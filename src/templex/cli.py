"""Single command-line entry point for the extraction engine.

Subcommands: validate, tune, wsd, extract, kwic, patterns.  Every run is a
deterministic function of its input files and flags; the effective semantic
parameters are echoed into each output's provenance.  Exit codes: 0 success,
1 diagnostics with errors, 2 usage or I/O errors.

`wsd` and `extract` run over document shards (`templex.shards`): under
`--jobs` each shard reads and counts its own documents in its own process,
and every shard trains on the merged counts.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import CycleError, LexiconError, ParseError, parse_number

if TYPE_CHECKING:
    from . import bg_lexicon as bgmod
    from . import ontology as ontomod
    from . import textpipe


_ON_OFF = ("on", "off")

# Every run setting: name -> (type, default, role, help).  The flags, the
# config-file keys, the defaults, the layering and the checks all come from
# here, in this order.  A bool that defaults to off is a bare switch; one
# that defaults to on takes `on|off`.  A tuple type lists the choices of a
# str.  Role "input" names a file that must exist; the "echo" settings shape
# the output, which echoes them in table order.  `jobs` is never echoed: it
# may not change an output byte.
_SETTINGS = {
    "ontology": (str, None, "input", None),
    "fg_lexicon": (str, None, "input", None),
    "bg_lexicon": (str, None, "input", None),
    "collapse_map": (str, None, "input", None),
    "tuned_lexicon": (str, None, "input", None),
    "corpus": (str, None, "input", None),
    "raw": (bool, False, None, "corpus is raw text, not vertical format"),
    "output": (str, None, None, "output path (default: stdout)"),
    "window": (int, 10, "echo", None),
    "alpha": (float, 0.1, "echo", None),
    "min_occurrences": (int, 5, "echo", None),
    "top_k": (int, 10, "echo", None),
    "ospd": (bool, True, "echo", None),
    "passive_implicature": (bool, True, "echo", None),
    "order": (("bg-first", "fg-first"), "bg-first", "echo", None),
    "jobs": (int, 1, None, None),
    "lang": (str, "en", "echo", None),
}
_BOOLEANS = {"on": True, "true": True, "off": False, "false": False}


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
        for key, (kind, default, _, text) in _SETTINGS.items():
            if name == "validate" and key in ("corpus", "raw"):
                continue
            flag = "--" + key.replace("_", "-")
            if kind is bool and not default:
                p.add_argument(flag, action="store_true", default=None, help=text)
            elif kind is bool:
                p.add_argument(flag, choices=_ON_OFF, help=text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=text)
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
    """Set every setting in `cfg`: its flag, else the config file, else its default."""
    given = load_config_file(cfg.config) if cfg.config else {}
    for name, (kind, default, role, _) in _SETTINGS.items():
        value = getattr(cfg, name, None)
        if value is None:
            value = given.get(name, default)
        elif kind is bool and value in _ON_OFF:
            value = _BOOLEANS[value]
        if role == "input" and value is not None and not os.path.exists(value):
            raise OSError(f"{name.replace('_', '-')} file not found: {value}")
        if kind in (int, float) and not 0 < value < math.inf:
            numbers = [n.replace("_", "-") for n, row in _SETTINGS.items()
                       if row[0] in (int, float)]
            raise ValueError(f"{', '.join(numbers[:-1])} and {numbers[-1]} must be "
                             + ("positive" if value <= 0 else "finite"))
        setattr(cfg, name, value)
    if cfg.order not in _SETTINGS["order"][0]:
        raise ValueError(f"bad pipeline order {cfg.order!r}")


def _echo(cfg: argparse.Namespace) -> dict:
    """The settings that shape the output, as `wsd` and `extract` echo them."""
    echo = {}
    for name, (kind, _, role, _) in _SETTINGS.items():
        if role == "echo":
            value = getattr(cfg, name)
            echo[name] = str(value).lower() if kind is bool else value
    return echo


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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
    return ontomod.load_ontology(_read(cfg.ontology), cfg.ontology)


def _load_corpus(cfg: argparse.Namespace) -> list[textpipe.Document]:
    from . import textpipe
    text = _read(cfg.corpus)
    doc_id = os.path.splitext(os.path.basename(cfg.corpus))[0]
    docs = textpipe.read_corpus(text, raw=cfg.raw, doc_id=doc_id, path=cfg.corpus)
    if cfg.raw:
        docs = [textpipe.tag_fallback(d) for d in docs]
    return docs


def _load_background(cfg: argparse.Namespace, onto: ontomod.Ontology):
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


# ------------------------------------------------------------ subcommands

def _cmd_validate(cfg: argparse.Namespace) -> int:
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


def _cmd_tune(cfg: argparse.Namespace) -> int:
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


def _cmd_wsd(cfg: argparse.Namespace) -> int:
    from . import shards
    from . import wsd as wsdmod

    _require(cfg, "ontology", "corpus")
    onto = _load_ontology(cfg)
    bg = _load_background(cfg, onto)
    fg = None
    if cfg.fg_lexicon:
        from . import fg_lexicon as fgmod
        fg = fgmod.load_fg_lexicon(_read(cfg.fg_lexicon), cfg.fg_lexicon)

    def render(shard, analyses, tags, matches):
        if matches is not None:
            tags = wsdmod.apply_foreground_priority(tags, matches)
        return wsdmod.dump_tagged_corpus(shard, tags)

    texts = shards.shard_texts(cfg, onto, bg, fg, render)
    # the `#CONFIG` line alone; documents are separated by a blank line,
    # so shard texts are joined by one too
    header = wsdmod.dump_tagged_corpus([], {}, _echo(cfg))
    _write_out(cfg, "\n".join([header, *texts]))
    return 0


def _cmd_extract(cfg: argparse.Namespace) -> int:
    import json

    from . import extract as exmod
    from . import fg_lexicon as fgmod
    from . import shards

    _require(cfg, "ontology", "fg_lexicon", "corpus")
    onto = _load_ontology(cfg)
    fg = fgmod.load_fg_lexicon(_read(cfg.fg_lexicon), cfg.fg_lexicon)
    diags = fgmod.validate(fg, onto)
    if any(d.severity == "error" for d in diags):
        for d in diags:
            print(d, file=sys.stderr)
        return 1
    bg = _load_background(cfg, onto)

    def render(shard, analyses, tags, matches):
        return exmod.write_output(
            exmod.fill_templates(matches, tags, analyses, onto))

    texts = shards.shard_texts(cfg, onto, bg, fg, render)
    header = json.dumps({"config": _echo(cfg)}, ensure_ascii=False)
    _write_out(cfg, header + "\n" + "".join(texts))
    return 0


def _load_query_corpus(cfg: argparse.Namespace, with_tags: bool = True):
    if cfg.tagged:
        from . import textpipe
        return textpipe.load_tagged_corpus(_read(cfg.tagged), cfg.tagged,
                                           with_tags=with_tags)
    _require(cfg, "corpus")
    return _load_corpus(cfg), None


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
    out = (f"# patterns target={cfg.target} top={cfg.top} "
           f"window={cfg.window}\n")
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
    except (ParseError, CycleError, LexiconError, ValueError, KeyError, OSError) as exc:
        print(f"templex: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_on:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
