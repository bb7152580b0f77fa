"""Single command-line entry point for the extraction engine.

Subcommands: validate, tune, wsd, extract, kwic, patterns.  Each takes only
the settings it reads.  Every run is a deterministic function of its input
files and flags, and echoes the settings that shaped its output into it.
`validate`, `tune`, `wsd` and `extract` read and cross-check their input
files through the same `_load_*` functions: a run raises the first problem,
a ParseError naming path and line; `validate` lists them all.  Exit codes:
0 success, 1 `validate` found errors, 2 usage, input or I/O errors.

`wsd`, `tune` and `extract` run a document shard per CPU or per `--jobs`
(`templex.shards`); each shard reads and counts its own documents.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from .errors import CycleError, ParseError, parse_number, raise_or_list, read_text

if TYPE_CHECKING:
    from . import ontology as ontomod


_ON_OFF = ("on", "off")

# Every run setting: name -> (type, default, role, readers, help).  Its flag,
# config key, default, layering, checks and echo all come from here, in table
# order, for its `readers` (subcommands) alone.  A bool that defaults to off
# is a bare switch; one that defaults to on takes `on|off`.  A tuple type
# lists the choices of a str.  Role "input" names a file that must exist;
# "echo" settings shape the output, which echoes them, and so do "match" ones
# if the foreground matcher ran.  `jobs` is never echoed: it may not change an
# output byte.  Its default, None, runs a shard per CPU.
_SETTINGS = {
    "ontology": (str, None, "input", "validate tune wsd extract", None),
    "fg_lexicon": (str, None, "input", "validate wsd extract", None),
    "bg_lexicon": (str, None, "input", "validate tune wsd extract", None),
    "collapse_map": (str, None, "input", "validate tune wsd extract", None),
    "corpus": (str, None, "input", "tune wsd extract kwic patterns", None),
    "raw": (bool, False, None, "tune wsd extract kwic patterns",
            "corpus is raw text, not vertical format"),
    "output": (str, None, None, "validate tune wsd extract kwic patterns",
               "output path (default: stdout)"),
    "window": (int, 10, "echo", "tune wsd extract patterns", None),
    "alpha": (float, 0.1, "echo", "tune wsd extract", None),
    "min_occurrences": (int, 5, "echo", "tune", None),
    "ospd": (bool, True, "echo", "tune wsd extract", None),
    "passive_implicature": (bool, True, "match", "wsd extract", None),
    "order": (("bg-first", "fg-first"), "bg-first", "match", "wsd extract", None),
    "jobs": (int, None, None, "tune wsd extract", None),
    "lang": (str, "en", "match", "wsd extract", None),
}
_BOOLEANS = {"on": True, "true": True, "off": False, "false": False}


def load_config_file(path: str) -> dict:
    """Line-oriented `key = value`; `#` comments; flags override these."""
    values: dict = {}
    for lineno, rawline in enumerate(read_text(path).splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected `key = value`", path=path, line=lineno)
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _SETTINGS:
            raise ParseError(f"unknown config key {key!r}", path=path, line=lineno)
        kind = _SETTINGS[key][0]
        if kind is bool:
            if value not in _BOOLEANS:
                raise ParseError(f"bad boolean {value!r}", path=path, line=lineno)
            values[key] = _BOOLEANS[value]
        elif kind in (int, float):
            values[key] = parse_number(kind, value, path=path, line=lineno)
        else:
            values[key] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="templex",
        description="Two-tier-lexicon template extraction and lexicographer tooling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func in (
            ("validate", "check ontology and lexicons", _cmd_validate),
            ("tune", "emit a corpus-tuned background lexicon", _cmd_tune),
            ("wsd", "emit a sense-tagged corpus", _cmd_wsd),
            ("extract", "run the full pipeline to JSON-Lines", _cmd_extract),
            ("kwic", "keyword-in-context concordance", _cmd_kwic),
            ("patterns", "pattern-frequency report for a lemma", _cmd_patterns)):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="config file (key = value lines)")
        for key, (kind, default, _, readers, text) in _SETTINGS.items():
            if name not in readers.split():
                continue
            flag = "--" + key.replace("_", "-")
            if kind is bool and not default:
                p.add_argument(flag, action="store_true", default=None, help=text)
            elif kind is bool or isinstance(kind, tuple):
                p.add_argument(flag, choices=_ON_OFF if kind is bool else kind, help=text)
            else:
                p.add_argument(flag, type=None if kind is str else kind, help=text)

    # the query flags of the two workbench commands, which no config key sets
    for name, target, number, default in (("kwic", "--query", "--width", 5),
                                          ("patterns", "--target", "--top", 20)):
        p = sub.choices[name]
        p.add_argument(target, required=True)
        p.add_argument(number, type=int, default=default)
        p.add_argument("--tagged", help="sense-tagged corpus (4-column vertical)")
        p.add_argument("--tsv", action="store_true")
    return parser


def _configure(cfg: argparse.Namespace) -> None:
    """Set each setting `cfg.command` reads: its flag, else the config file, else its default."""
    given = load_config_file(cfg.config) if cfg.config else {}
    for name, (kind, default, role, readers, _) in _SETTINGS.items():
        if cfg.command not in readers.split():
            continue
        value = getattr(cfg, name)
        if value is None:
            value = given.get(name, default)
        elif kind is bool and value in _ON_OFF:
            value = _BOOLEANS[value]
        if role == "input" and value is not None and not os.path.exists(value):
            raise OSError(f"{name.replace('_', '-')} file not found: {value}")
        if kind in (int, float) and value is not None and not 0 < value < math.inf:
            raise ValueError(f"{name.replace('_', '-')} must be "
                             + ("positive" if value <= 0 else "finite"))
        if name == "order" and value not in kind:
            raise ValueError(f"bad pipeline order {value!r}")
        setattr(cfg, name, value)


def _echo(cfg: argparse.Namespace, matched: bool) -> dict:
    """The settings that shaped a `wsd` or `extract` output: the matcher's if it `matched`."""
    return {name: str(getattr(cfg, name)).lower() if kind is bool else getattr(cfg, name)
            for name, (kind, _, role, readers, _) in _SETTINGS.items()
            if cfg.command in readers.split() and (role == "echo" or role == "match" and matched)}


def _write_out(cfg: argparse.Namespace, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(cfg: argparse.Namespace, *names: str) -> None:
    missing = [n.replace("_", "-") for n in names if getattr(cfg, n) is None]
    if missing:
        raise OSError(f"missing required input(s): {', '.join('--' + m for m in missing)}")


def _load_ontology(cfg: argparse.Namespace) -> ontomod.Ontology:
    from . import ontology as ontomod
    return ontomod.load_ontology(read_text(cfg.ontology), cfg.ontology)


def _load_foreground(cfg: argparse.Namespace, onto: ontomod.Ontology, problems=None):
    """The resolved `--fg-lexicon`, checked against the ontology; each of
    these loaders takes `problems` as `raise_or_list` does."""
    from . import fg_lexicon as fgmod
    fg = fgmod.load_fg_lexicon(read_text(cfg.fg_lexicon), cfg.fg_lexicon)
    raise_or_list(fgmod.validate(fg, onto), problems)
    return fg


def _load_background(cfg: argparse.Namespace, onto: ontomod.Ontology, problems=None):
    """The collapsed `--bg-lexicon`.  A tuned lexicon, told by a first line
    `tunedlex v1` as `load_tuned_lexicon` tells it, is collapsed already, so
    with one the collapse map is not read.  One that `validate` finds an
    error in is not collapsed."""
    from . import bg_lexicon as bgmod
    _require(cfg, "bg_lexicon")
    text = read_text(cfg.bg_lexicon)
    head = text.partition("\n")[0].splitlines()  # the first line, as splitlines ends it
    tuned = None
    if head and head[0].strip() == "tunedlex v1":
        from . import tuner as tunemod
        tuned = tunemod.load_tuned_lexicon(text, cfg.bg_lexicon)
    bg = bgmod.load_bg_lexicon(text, cfg.bg_lexicon) if tuned is None else tuned.base
    if raise_or_list(bgmod.validate_bg(bg, onto), problems):
        return None
    if tuned is not None:
        return tunemod.apply_tuning(tuned)
    if cfg.collapse_map:
        cmap = bgmod.load_collapse_map(read_text(cfg.collapse_map), cfg.collapse_map)
    else:
        cmap = bgmod.default_collapse_map()
    return bgmod.collapse(bg, cmap, onto, problems)


# ------------------------------------------------------------ subcommands

def _cmd_validate(cfg: argparse.Namespace) -> int:
    _require(cfg, "ontology", "fg_lexicon")
    problems: list[ParseError] = []
    onto = _load_ontology(cfg)
    _load_foreground(cfg, onto, problems)
    if cfg.bg_lexicon:
        _load_background(cfg, onto, problems)
    _write_out(cfg, "".join(f"{p.severity}: {p}\n" for p in problems)
               + f"{len(problems)} diagnostic(s)\n")
    return 1 if any(p.severity == "error" for p in problems) else 0


def _cmd_tune(cfg: argparse.Namespace) -> int:
    from . import shards
    from . import tuner as tunemod

    _require(cfg, "ontology", "corpus")
    onto = _load_ontology(cfg)
    bg = _load_background(cfg, onto)
    params = tunemod.TuneParams(cfg.min_occurrences, cfg.window, cfg.alpha, cfg.ospd)

    def render(shard, analyses, tags, matches):
        return tunemod.count_senses(tags)

    parts = shards.shard_texts(cfg, onto, bg, None, render)
    corpus_id = "_".join(os.path.basename(cfg.corpus).split())  # as the reader splits
    tuned = tunemod.finish(bg, parts, params, corpus_id)
    _write_out(cfg, tunemod.save_tuned_lexicon(tuned))
    return 0


def _cmd_wsd(cfg: argparse.Namespace) -> int:
    from . import shards
    from . import wsd as wsdmod

    _require(cfg, "ontology", "corpus")
    onto = _load_ontology(cfg)
    fg = _load_foreground(cfg, onto) if cfg.fg_lexicon else None
    bg = _load_background(cfg, onto)

    def render(shard, analyses, tags, matches):
        if matches is not None:
            tags = wsdmod.apply_foreground_priority(tags, matches)
        return wsdmod.dump_tagged_corpus(shard, tags)

    texts = shards.shard_texts(cfg, onto, bg, fg, render)
    # the `#CONFIG` line alone; documents are separated by a blank line,
    # so shard texts are joined by one too
    header = wsdmod.dump_tagged_corpus([], {}, _echo(cfg, fg is not None))
    _write_out(cfg, "\n".join([header, *texts]))
    return 0


def _cmd_extract(cfg: argparse.Namespace) -> int:
    import json

    from . import extract as exmod
    from . import shards

    _require(cfg, "ontology", "fg_lexicon", "corpus")
    onto = _load_ontology(cfg)
    fg = _load_foreground(cfg, onto)
    bg = _load_background(cfg, onto)
    cfg.jobs = cfg.jobs or 1  # one process unless asked (docs/formats.md)

    def render(shard, analyses, tags, matches):
        return exmod.write_output(
            exmod.fill_templates(matches, tags, analyses, onto))

    texts = shards.shard_texts(cfg, onto, bg, fg, render, on_demand=True)
    header = json.dumps({"config": _echo(cfg, True)}, ensure_ascii=False)
    _write_out(cfg, header + "\n" + "".join(texts))
    return 0


def _load_query_corpus(cfg: argparse.Namespace, with_tags: bool = True):
    from . import textpipe
    if cfg.tagged:
        return textpipe.load_tagged_corpus(read_text(cfg.tagged), cfg.tagged,
                                           with_tags=with_tags)
    _require(cfg, "corpus")
    docs = textpipe.read_corpus(read_text(cfg.corpus), raw=cfg.raw,
                                doc_id=textpipe.doc_id_of(cfg.corpus), path=cfg.corpus)
    return [textpipe.tag_fallback(d) for d in docs] if cfg.raw else docs, None


def _cmd_kwic(cfg: argparse.Namespace) -> int:
    from . import workbench

    query = workbench.parse_query(cfg.query)
    docs, tags = _load_query_corpus(cfg, with_tags=query.needs_tags())
    lines = workbench.kwic(docs, tags, query, cfg.width)
    out = f"# kwic query={cfg.query!r} width={cfg.width} matches={len(lines)}\n"
    out += workbench.format_kwic(lines, tsv=cfg.tsv)
    _write_out(cfg, out)
    return 0


def _cmd_patterns(cfg: argparse.Namespace) -> int:
    from . import textpipe, workbench

    docs, tags = _load_query_corpus(cfg)
    analyses = [textpipe.analyze(d) for d in docs]
    entries = workbench.pattern_report(analyses, tags, cfg.target,
                                       window=cfg.window, top=cfg.top)
    out = f"# patterns target={cfg.target} top={cfg.top} window={cfg.window}\n"
    out += workbench.format_report(entries, tsv=cfg.tsv)
    _write_out(cfg, out)
    return 0


def main(argv: list[str] | None = None) -> int:
    # no garbage cycle grows with the input, so the cyclic collector would only
    # rescan the records a run builds; forked shard workers inherit it off.
    # The argument parser is one cycle: built with the collector off, it stays
    # in the young generations, which a cheap collection frees before the run
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        cfg = _build_parser().parse_args(argv)
        gc.collect(1)
        _configure(cfg)
        return cfg.func(cfg)
    except (ParseError, CycleError, ValueError, KeyError, OSError) as exc:
        print(f"templex: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_on:
            gc.enable()


def run() -> NoReturn:
    """The `templex` program: `main()`, then, once stdout and stderr are flushed,
    exit without the 8-17 ms of interpreter teardown, which no output needs.
    `SystemExit` (`--help`, usage errors) and exceptions leave the normal way."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:  # a closed pipe, a full disk: as main() reports one
        code = 2
        try:
            print(f"templex: error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
