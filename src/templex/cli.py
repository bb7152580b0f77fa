"""Single command-line entry point for the extraction engine.

Subcommands: validate, tune, wsd, extract, kwic, patterns.  Every run is a
deterministic function of its input files and flags; the effective semantic
parameters are echoed into each output's provenance.  Exit codes: 0 success,
1 diagnostics with errors, 2 usage or I/O errors.

`wsd` and `extract` train the classifier once over the whole corpus; every
later stage looks at one document at a time, so it runs over contiguous
document shards, in forked worker processes when `--jobs` > 1.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from bisect import bisect_left
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import CycleError, LexiconError, ParseError, parse_number

if TYPE_CHECKING:
    from . import bg_lexicon as bgmod
    from . import ontology as ontomod
    from . import textpipe


class RunConfig:
    """Effective settings of one run: defaults, then the config file, then flags."""

    __slots__ = ("ontology", "fg_lexicon", "bg_lexicon", "collapse_map", "corpus",
                 "tuned_lexicon", "output", "window", "alpha", "min_occurrences",
                 "top_k", "ospd", "passive_implicature", "order", "jobs", "raw", "lang")

    def __init__(self, ontology: str | None = None, fg_lexicon: str | None = None,
                 bg_lexicon: str | None = None, collapse_map: str | None = None,
                 corpus: str | None = None, tuned_lexicon: str | None = None,
                 output: str | None = None, window: int = 10, alpha: float = 0.1,
                 min_occurrences: int = 5, top_k: int = 10, ospd: bool = True,
                 passive_implicature: bool = True, order: str = "bg-first",
                 jobs: int = 1, raw: bool = False, lang: str = "en"):
        self.ontology = ontology
        self.fg_lexicon = fg_lexicon
        self.bg_lexicon = bg_lexicon
        self.collapse_map = collapse_map
        self.corpus = corpus
        self.tuned_lexicon = tuned_lexicon
        self.output = output
        self.window = window
        self.alpha = alpha
        self.min_occurrences = min_occurrences
        self.top_k = top_k
        self.ospd = ospd
        self.passive_implicature = passive_implicature
        self.order = order  # bg-first | fg-first
        self.jobs = jobs
        self.raw = raw
        self.lang = lang

    def validate(self) -> None:
        for name in ("ontology", "fg_lexicon", "bg_lexicon", "collapse_map",
                     "corpus", "tuned_lexicon"):
            path = getattr(self, name)
            if path is not None and not os.path.exists(path):
                raise OSError(f"{name.replace('_', '-')} file not found: {path}")
        if self.window <= 0 or self.alpha <= 0 or self.min_occurrences <= 0 \
                or self.top_k <= 0 or self.jobs <= 0:
            raise ValueError("window, alpha, min-occurrences, top-k and jobs "
                             "must be positive")
        if self.order not in ("bg-first", "fg-first"):
            raise ValueError(f"bad pipeline order {self.order!r}")

    def echo(self) -> dict:
        # parameters that shape the result; deliberately excludes jobs,
        # which must never change any output byte
        return {
            "window": self.window, "alpha": self.alpha,
            "min_occurrences": self.min_occurrences, "top_k": self.top_k,
            "ospd": str(self.ospd).lower(),
            "passive_implicature": str(self.passive_implicature).lower(),
            "order": self.order, "lang": self.lang,
        }


_BOOL_KEYS = {"ospd", "passive_implicature", "raw"}
_INT_KEYS = {"window", "min_occurrences", "top_k", "jobs"}
_FLOAT_KEYS = {"alpha"}


def load_config_file(path: str) -> dict:
    """Line-oriented `key = value`; `#` comments; flags override these."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected `key = value`", path=path, line=lineno)
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in RunConfig.__slots__:
                raise ParseError(f"unknown config key {key!r}", path=path, line=lineno)
            if key in _BOOL_KEYS:
                if value not in ("on", "off", "true", "false"):
                    raise ParseError(f"bad boolean {value!r}", path=path, line=lineno)
                values[key] = value in ("on", "true")
            elif key in _INT_KEYS:
                values[key] = parse_number(int, value, path=path, line=lineno)
            elif key in _FLOAT_KEYS:
                values[key] = parse_number(float, value, path=path, line=lineno)
            else:
                values[key] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="templex",
        description="Two-tier-lexicon template extraction and lexicographer tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, needs_corpus: bool = True):
        p.add_argument("--config", help="config file (key = value lines)")
        p.add_argument("--ontology")
        p.add_argument("--fg-lexicon", dest="fg_lexicon")
        p.add_argument("--bg-lexicon", dest="bg_lexicon")
        p.add_argument("--collapse-map", dest="collapse_map")
        p.add_argument("--tuned-lexicon", dest="tuned_lexicon")
        if needs_corpus:
            p.add_argument("--corpus")
            p.add_argument("--raw", action="store_true", default=None,
                           help="corpus is raw text, not vertical format")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--window", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--min-occurrences", dest="min_occurrences", type=int)
        p.add_argument("--top-k", dest="top_k", type=int)
        p.add_argument("--ospd", choices=("on", "off"))
        p.add_argument("--passive-implicature", dest="passive_implicature",
                       choices=("on", "off"))
        p.add_argument("--order", choices=("bg-first", "fg-first"))
        p.add_argument("--jobs", type=int)
        p.add_argument("--lang")

    common(sub.add_parser("validate", help="check ontology and lexicons"),
           needs_corpus=False)
    common(sub.add_parser("tune", help="emit a corpus-tuned background lexicon"))
    common(sub.add_parser("wsd", help="emit a sense-tagged corpus"))
    common(sub.add_parser("extract", help="run the full pipeline to JSON-Lines"))

    k = sub.add_parser("kwic", help="keyword-in-context concordance")
    common(k)
    k.add_argument("--query", required=True)
    k.add_argument("--width", type=int, default=5)
    k.add_argument("--tagged", help="sense-tagged corpus (4-column vertical)")
    k.add_argument("--tsv", action="store_true")

    pr = sub.add_parser("patterns", help="pattern-frequency report for a lemma")
    common(pr)
    pr.add_argument("--target", required=True)
    pr.add_argument("--top", type=int, default=20)
    pr.add_argument("--tagged", help="sense-tagged corpus (4-column vertical)")
    pr.add_argument("--tsv", action="store_true")
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    for name in RunConfig.__slots__:
        val = getattr(args, name, None)
        if val is None:
            continue
        if name in ("ospd", "passive_implicature"):
            setattr(cfg, name, val == "on")
        else:
            setattr(cfg, name, val)
    cfg.validate()
    return cfg


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_out(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def plan_shards(sizes: list[int], jobs: int, cpus: int) -> list[tuple[int, int]]:
    """Contiguous `(lo, hi)` document ranges with about equal token counts.

    `sizes` holds each document's token count.  There are at most
    min(jobs, documents, cpus) shards; each is non-empty, and together they
    cover every document once, in input order.  A cut falls at the document
    boundary nearest its share of the tokens, so no shard exceeds its share
    by more than the largest document.
    """
    n = min(jobs, len(sizes), cpus)
    prefix = list(accumulate(sizes, initial=0))
    cuts = [0]
    for k in range(1, n):
        target = prefix[-1] * k / n
        i = bisect_left(prefix, target)
        if i > 0 and target - prefix[i - 1] <= prefix[i] - target:
            i -= 1
        # leave at least one document for this shard and each one after it
        cuts.append(min(max(i, cuts[-1] + 1), len(sizes) - (n - k)))
    cuts.append(len(sizes))
    return list(zip(cuts, cuts[1:])) if n > 0 else []


_worker_job = None  # the shard job of a forked pool worker


def _init_worker(job) -> None:
    global _worker_job
    _worker_job = job


def _run_worker_job(bounds: tuple[int, int]) -> str:
    return _worker_job(*bounds)


def _run_shards(job, sizes: list[int], jobs: int) -> list[str]:
    """`job(lo, hi)` over the planned shards; the texts in input order.

    More than one shard runs in a "fork" process pool: workers inherit the
    job and everything it closes over, and exchange only index pairs and
    output text.  Without fork there is one shard, run inline.  A worker
    that dies (say, killed for memory) fails the run instead of hanging it.
    """
    cpus = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    shards = plan_shards(sizes, jobs, cpus)
    if len(shards) <= 1:
        return [job(lo, hi) for lo, hi in shards]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # inherited objects go to the permanent generation, so the workers'
    # collections neither scan them nor copy their pages
    gc.freeze()
    try:
        # under fork the workers start before any pool thread, and take
        # initargs unpickled
        with ProcessPoolExecutor(len(shards), mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker, initargs=(job,)) as pool:
            return list(pool.map(_run_worker_job, shards))
    except BrokenProcessPool as exc:
        raise OSError(f"a shard worker process died: {exc}") from None
    finally:
        gc.unfreeze()


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [n.replace("_", "-") for n in names if getattr(cfg, n) is None]
    if missing:
        raise OSError(f"missing required input(s): {', '.join('--' + m for m in missing)}")


def _load_ontology(cfg: RunConfig) -> ontomod.Ontology:
    from . import ontology as ontomod
    return ontomod.load_ontology(_read(cfg.ontology), cfg.ontology)


def _load_corpus(cfg: RunConfig) -> list[textpipe.Document]:
    from . import textpipe
    text = _read(cfg.corpus)
    doc_id = os.path.splitext(os.path.basename(cfg.corpus))[0]
    docs = textpipe.read_corpus(text, raw=cfg.raw, doc_id=doc_id, path=cfg.corpus)
    if cfg.raw:
        docs = [textpipe.tag_fallback(d) for d in docs]
    return docs


def _load_background(cfg: RunConfig, onto: ontomod.Ontology):
    """Collapsed background lexicon, tuned when a tuned lexicon is given."""
    from . import bg_lexicon as bgmod
    if cfg.tuned_lexicon:
        from . import tuner as tunemod
        tuned = tunemod.load_tuned_lexicon(_read(cfg.tuned_lexicon), cfg.tuned_lexicon)
        _check_classes(tuned.base, onto, cfg.tuned_lexicon)
        return tunemod.apply_tuning(tuned)
    _require(cfg, "bg_lexicon")
    bg = bgmod.load_bg_lexicon(_read(cfg.bg_lexicon), cfg.bg_lexicon)
    _check_classes(bg, onto, cfg.bg_lexicon)
    if cfg.collapse_map:
        cmap = bgmod.load_collapse_map(_read(cfg.collapse_map), cfg.collapse_map)
    else:
        cmap = bgmod.default_collapse_map()
    return bgmod.collapse(bg, cmap, onto)


def _check_classes(bg: bgmod.BgLexicon, onto: ontomod.Ontology, path: str) -> None:
    from . import bg_lexicon as bgmod
    problems = bgmod.validate_bg(bg, onto)
    if problems:
        raise LexiconError(f"{path}: " + "; ".join(problems))


def _shard_texts(cfg: RunConfig, docs, onto, bg, fg, render) -> list[str]:
    """Train once over all documents, then tag, match and render by shard.

    Each shard runs background tagging, OSPD and (given a foreground
    lexicon) analysis and foreground matching under the configured order:
    bg-first feeds the final background tags into the matcher; fg-first
    matches on the coarse-unambiguous tags alone, taken before OSPD.  Then
    `render(shard_docs, analyses, tags, matches)` turns it into text;
    analyses and matches are None without a foreground lexicon.
    """
    from . import textpipe
    from . import wsd as wsdmod

    model = wsdmod.train_bayes(docs, bg, cfg.window, cfg.alpha)

    def job(lo: int, hi: int) -> str:
        shard = docs[lo:hi]
        tags = wsdmod.disambiguate_background(model, shard, bg)
        anchors = ({k: t for k, t in tags.items() if t.method == "unambiguous"}
                   if cfg.order == "fg-first" else None)
        if cfg.ospd:
            tags = wsdmod.apply_ospd(tags, bg)
        if fg is None:
            return render(shard, None, tags, None)
        analyses = [textpipe.analyze(d) for d in shard]
        matches, _ = wsdmod.match_foreground(
            analyses, fg, tags if anchors is None else anchors, onto, bg, lang=cfg.lang,
            passive_lone=cfg.passive_implicature, window=cfg.window)
        return render(shard, analyses, tags, matches)

    sizes = [sum(len(sent) for sent in d.sentences) for d in docs]
    return _run_shards(job, sizes, cfg.jobs)


# ------------------------------------------------------------ subcommands

def _cmd_validate(cfg: RunConfig, args) -> int:
    from . import bg_lexicon as bgmod
    from . import fg_lexicon as fgmod

    _require(cfg, "ontology", "fg_lexicon")
    onto = _load_ontology(cfg)
    fg = fgmod.load_fg_lexicon(_read(cfg.fg_lexicon), cfg.fg_lexicon)
    diags = fgmod.validate(fg, onto)
    if cfg.bg_lexicon:
        bg = bgmod.load_bg_lexicon(_read(cfg.bg_lexicon), cfg.bg_lexicon)
        for problem in bgmod.validate_bg(bg, onto):
            diags.append(fgmod.Diagnostic("error", cfg.bg_lexicon, problem))
    out = "".join(f"{d}\n" for d in diags)
    out += f"{len(diags)} diagnostic(s)\n"
    _write_out(cfg, out)
    return 1 if any(d.severity == "error" for d in diags) else 0


def _cmd_tune(cfg: RunConfig, args) -> int:
    from . import tuner as tunemod

    _require(cfg, "ontology", "corpus")
    onto = _load_ontology(cfg)
    bg = _load_background(cfg, onto)
    docs = _load_corpus(cfg)
    params = tunemod.TuneParams(cfg.min_occurrences, cfg.window, cfg.alpha, cfg.top_k)
    corpus_id = os.path.basename(cfg.corpus)
    tuned = tunemod.tune(bg, docs, params, corpus_id=corpus_id, use_ospd=cfg.ospd)
    _write_out(cfg, tunemod.save_tuned_lexicon(tuned))
    return 0


def _cmd_wsd(cfg: RunConfig, args) -> int:
    from . import wsd as wsdmod

    _require(cfg, "ontology", "corpus")
    onto = _load_ontology(cfg)
    bg = _load_background(cfg, onto)
    docs = _load_corpus(cfg)
    fg = None
    if cfg.fg_lexicon:
        from . import fg_lexicon as fgmod
        fg = fgmod.load_fg_lexicon(_read(cfg.fg_lexicon), cfg.fg_lexicon)

    def render(shard, analyses, tags, matches):
        if matches is not None:
            tags = wsdmod.apply_foreground_priority(tags, matches)
        return wsdmod.dump_tagged_corpus(shard, tags)

    texts = _shard_texts(cfg, docs, onto, bg, fg, render)
    # the `#CONFIG` line alone; documents are separated by a blank line,
    # so shard texts are joined by one too
    header = wsdmod.dump_tagged_corpus([], {}, cfg.echo())
    _write_out(cfg, "\n".join([header, *texts]))
    return 0


def _cmd_extract(cfg: RunConfig, args) -> int:
    import json

    from . import extract as exmod
    from . import fg_lexicon as fgmod

    _require(cfg, "ontology", "fg_lexicon", "corpus")
    onto = _load_ontology(cfg)
    fg = fgmod.load_fg_lexicon(_read(cfg.fg_lexicon), cfg.fg_lexicon)
    diags = fgmod.validate(fg, onto)
    if any(d.severity == "error" for d in diags):
        for d in diags:
            print(d, file=sys.stderr)
        return 1
    bg = _load_background(cfg, onto)
    docs = _load_corpus(cfg)

    def render(shard, analyses, tags, matches):
        return exmod.write_output(
            exmod.fill_templates(matches, tags, analyses, onto, fg, cfg.lang))

    texts = _shard_texts(cfg, docs, onto, bg, fg, render)
    header = json.dumps({"config": cfg.echo()}, ensure_ascii=False)
    _write_out(cfg, header + "\n" + "".join(texts))
    return 0


def _load_query_corpus(cfg: RunConfig, args):
    if getattr(args, "tagged", None):
        from . import wsd as wsdmod
        docs, tags = wsdmod.load_tagged_corpus(_read(args.tagged), args.tagged)
        return docs, tags
    _require(cfg, "corpus")
    return _load_corpus(cfg), None


def _cmd_kwic(cfg: RunConfig, args) -> int:
    from . import workbench

    docs, tags = _load_query_corpus(cfg, args)
    query = workbench.parse_query(args.query)
    lines = workbench.kwic(docs, tags, query, args.width)
    out = f"# kwic query={args.query!r} width={args.width} matches={len(lines)}\n"
    out += workbench.format_kwic(lines, tsv=args.tsv)
    _write_out(cfg, out)
    return 0


def _cmd_patterns(cfg: RunConfig, args) -> int:
    from . import textpipe, workbench

    docs, tags = _load_query_corpus(cfg, args)
    analyses = [textpipe.analyze(d) for d in docs]
    entries = workbench.pattern_report(analyses, tags, args.target,
                                       window=cfg.window, top=args.top)
    out = (f"# patterns target={args.target} top={args.top} "
           f"window={cfg.window}\n")
    out += workbench.format_report(entries, tsv=args.tsv)
    _write_out(cfg, out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "tune": _cmd_tune,
    "wsd": _cmd_wsd,
    "extract": _cmd_extract,
    "kwic": _cmd_kwic,
    "patterns": _cmd_patterns,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        return _COMMANDS[args.command](cfg, args)
    except (ParseError, CycleError, LexiconError, ValueError, KeyError, OSError) as exc:
        print(f"templex: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
