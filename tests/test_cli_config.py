"""The CLI's surface and its settings layers: defaults, then the config file, then flags."""

import argparse
import os

import pytest

from templex.cli import _SETTINGS, _build_parser, main
from helpers import fixture_path

# ------------------------------------------------------------ parser surface

# Each option as (option_strings, dest, type, choices, default, required,
# nargs, help), captured from the parser before its settings came from one
# table.  This pins what `--help` shows without its layout, which differs
# between Python versions.
_ON_OFF = ("on", "off")
_HELP = (("-h", "--help"), "help", None, None, "==SUPPRESS==", False, 0,
         "show this help message and exit")
_LEXICONS = [
    _HELP,
    (("--config",), "config", None, None, None, False, None,
     "config file (key = value lines)"),
    (("--ontology",), "ontology", None, None, None, False, None, None),
    (("--fg-lexicon",), "fg_lexicon", None, None, None, False, None, None),
    (("--bg-lexicon",), "bg_lexicon", None, None, None, False, None, None),
    (("--collapse-map",), "collapse_map", None, None, None, False, None, None),
    (("--tuned-lexicon",), "tuned_lexicon", None, None, None, False, None, None),
]
_CORPUS = [
    (("--corpus",), "corpus", None, None, None, False, None, None),
    (("--raw",), "raw", None, None, None, False, 0,
     "corpus is raw text, not vertical format"),
]
_RUN = [
    (("--output",), "output", None, None, None, False, None,
     "output path (default: stdout)"),
    (("--window",), "window", "int", None, None, False, None, None),
    (("--alpha",), "alpha", "float", None, None, False, None, None),
    (("--min-occurrences",), "min_occurrences", "int", None, None, False, None, None),
    (("--ospd",), "ospd", None, _ON_OFF, None, False, None, None),
    (("--passive-implicature",), "passive_implicature", None, _ON_OFF, None, False,
     None, None),
    (("--order",), "order", None, ("bg-first", "fg-first"), None, False, None, None),
    (("--jobs",), "jobs", "int", None, None, False, None, None),
    (("--lang",), "lang", None, None, None, False, None, None),
]
_TAGGED = [
    (("--tagged",), "tagged", None, None, None, False, None,
     "sense-tagged corpus (4-column vertical)"),
    (("--tsv",), "tsv", None, None, False, False, 0, None),
]
SURFACE = {
    "validate": _LEXICONS + _RUN,
    "tune": _LEXICONS + _CORPUS + _RUN,
    "wsd": _LEXICONS + _CORPUS + _RUN,
    "extract": _LEXICONS + _CORPUS + _RUN,
    "kwic": _LEXICONS + _CORPUS + _RUN + [
        (("--query",), "query", None, None, None, True, None, None),
        (("--width",), "width", "int", None, 5, False, None, None),
        *_TAGGED],
    "patterns": _LEXICONS + _CORPUS + _RUN + [
        (("--target",), "target", None, None, None, True, None, None),
        (("--top",), "top", "int", None, 20, False, None, None),
        *_TAGGED],
}
COMMANDS = [
    ("validate", "check ontology and lexicons"),
    ("tune", "emit a corpus-tuned background lexicon"),
    ("wsd", "emit a sense-tagged corpus"),
    ("extract", "run the full pipeline to JSON-Lines"),
    ("kwic", "keyword-in-context concordance"),
    ("patterns", "pattern-frequency report for a lemma"),
]


def test_parser_surface_is_pinned():
    parser = _build_parser()
    assert (parser.prog, parser.description) == (
        "templex",
        "Two-tier-lexicon template extraction and lexicographer tooling.")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert (sub.dest, sub.required) == ("command", True)
    assert [(a.dest, a.help) for a in sub._choices_actions] == COMMANDS
    surface = {name: [(tuple(a.option_strings), a.dest,
                       getattr(a.type, "__name__", a.type), a.choices, a.default,
                       a.required, a.nargs, a.help) for a in p._actions]
               for name, p in sub.choices.items()}
    assert surface == SURFACE


def test_every_config_key_is_documented():
    docs = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "formats.md")
    with open(docs, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
    assert "finite and positive" in section
    for key in _SETTINGS:
        assert f"| `{key}` |" in section


# ------------------------------------------------------------- config layers

def _inputs(**extra) -> str:
    lines = {"ontology": fixture_path("succession.onto"),
             "bg_lexicon": fixture_path("succession.bglex"),
             "collapse_map": fixture_path("succession.collapse"),
             "corpus": fixture_path("succession.vrt"), **extra}
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def _wsd_header(tmp_path, config: str, *flags: str) -> str:
    """The `#CONFIG` line of a `wsd` run from `config` and `flags`."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out.vrt"
    assert main(["wsd", "--config", str(cfg), *flags, "--output", str(out)]) == 0
    return out.read_text().splitlines()[0]


def test_defaults_are_echoed(tmp_path):
    assert _wsd_header(tmp_path, _inputs()) == (
        "#CONFIG alpha=0.1 lang=en min_occurrences=5 order=bg-first ospd=true "
        "passive_implicature=true window=10")


@pytest.mark.parametrize("key, file_value, flag, flag_value, from_file, from_flag", [
    ("ospd", "off", "--ospd", "on", "ospd=false", "ospd=true"),
    ("passive-implicature", "false", "--passive-implicature", "off",
     "passive_implicature=false", "passive_implicature=false"),
    ("min_occurrences", "3", "--min-occurrences", "7",
     "min_occurrences=3", "min_occurrences=7"),
    ("alpha", "0.5", "--alpha", "0.25", "alpha=0.5", "alpha=0.25"),
    ("alpha", "2", "--alpha", "3", "alpha=2.0", "alpha=3.0"),
    ("order", "fg-first", "--order", "bg-first", "order=fg-first", "order=bg-first"),
    ("lang", "de", "--lang", "en", "lang=de", "lang=en"),
])
def test_flag_overrides_file_overrides_default(tmp_path, key, file_value, flag,
                                                flag_value, from_file, from_flag):
    config = _inputs(**{key: file_value})
    assert from_file in _wsd_header(tmp_path, config).split()
    assert from_flag in _wsd_header(tmp_path, config, flag, flag_value).split()


def test_jobs_from_file_is_not_echoed(tmp_path):
    header = _wsd_header(tmp_path, _inputs(jobs=2))
    assert header == _wsd_header(tmp_path, _inputs())
    assert "jobs" not in header


def test_raw_from_config_file(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("The school dismissed the teacher. The firm sacked the manager.")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_inputs(corpus=raw, raw="on",
                           fg_lexicon=fixture_path("succession.fglex")))
    out = tmp_path / "raw.jsonl"
    assert main(["extract", "--config", str(cfg), "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith('{"config": {"window": 10, "alpha": 0.1,')
    assert len(lines) == 3  # header + two instances
    assert '"lemma": "school"' in lines[1]


@pytest.mark.parametrize("line, message", [
    ("windows = 4", ":7: unknown config key 'windows'"),
    ("ospd = maybe", ":7: bad boolean 'maybe'"),
    ("raw = 1", ":7: bad boolean '1'"),
    ("window 4", ":7: expected `key = value`"),
    ("window = 0", "window, alpha, min-occurrences and jobs must be positive"),
    ("jobs = -1", "window, alpha, min-occurrences and jobs must be positive"),
    ("order = sideways", "bad pipeline order 'sideways'"),
])
def test_bad_config_file_exit_two(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# five inputs\n" + _inputs(fg_lexicon=fixture_path("succession.fglex"))
                   + line + "\n")
    out = tmp_path / "out.vrt"
    assert main(["wsd", "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("templex: error: ")
    assert message in err
    if message.startswith(":"):
        assert f"{cfg}{message}" in err
    assert not out.exists()


def test_config_file_input_must_exist(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_inputs(collapse_map=tmp_path / "nope.collapse"))
    assert main(["validate", "--config", str(cfg),
                 "--fg-lexicon", fixture_path("succession.fglex")]) == 2
    assert (f"collapse-map file not found: {tmp_path / 'nope.collapse'}"
            in capsys.readouterr().err)


# ---------------------------------------------------- out-of-range numbers

@pytest.mark.parametrize("value, message", [
    ("nan", "must be finite"), ("inf", "must be finite"),
    ("-inf", "must be positive"), ("0", "must be positive")])
def test_alpha_must_be_finite_and_positive(tmp_path, capsys, value, message):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out.jsonl"
    by_flag = ["--config", str(cfg), f"--alpha={value}"]
    by_file = ["--config", str(cfg)]
    for argv, alpha in ((by_flag, "0.1"), (by_file, value)):
        cfg.write_text(_inputs(fg_lexicon=fixture_path("succession.fglex"), alpha=alpha))
        assert main(["extract", *argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "templex: error: window, alpha, min-occurrences and jobs "
            f"{message}\n")
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["kwic", "--query", "lemma=dismiss", "--width", "-2"], "width must be >= 0, not -2"),
    (["patterns", "--target", "sack", "--top", "0"], "top must be >= 1, not 0"),
    (["patterns", "--target", "sack", "--top", "-1"], "top must be >= 1, not -1"),
])
def test_workbench_bounds_exit_two(tmp_path, capsys, argv, message):
    out = tmp_path / "out.txt"
    for corpus in (["--corpus", fixture_path("succession.vrt")],
                   ["--tagged", fixture_path("succession_tuned_gold.vrt")]):
        assert main([*argv, *corpus, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"templex: error: {message}\n"
        assert not out.exists()


def test_workbench_bounds_are_inclusive(tmp_path):
    out = tmp_path / "out.txt"
    assert main(["kwic", "--corpus", fixture_path("succession.vrt"),
                 "--query", "lemma=dismiss", "--width", "0", "--output", str(out)]) == 0
    assert out.read_text().startswith("# kwic query='lemma=dismiss' width=0 matches=7\n")
    assert main(["patterns", "--corpus", fixture_path("succession.vrt"),
                 "--target", "sack", "--top", "1", "--tsv", "--output", str(out)]) == 0
    # one entry in each of the three sections
    assert len(out.read_text().splitlines()) == 4
