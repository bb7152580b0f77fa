"""The CLI's surface and its settings layers: defaults, then the config file, then flags."""

import argparse
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templex.cli import _SETTINGS, _build_parser, _configure, main
from templex.errors import ParseError
from helpers import fixture_path

# ------------------------------------------------------------ parser surface

# Each option as (option_strings, dest, type, choices, default, required,
# nargs, help), captured from the parser before its settings came from one
# table.  This pins what `--help` shows without its layout, which differs
# between Python versions.
_ON_OFF = ("on", "off")
_HELP = (("-h", "--help"), "help", None, None, "==SUPPRESS==", False, 0,
         "show this help message and exit")
_OPTIONS = {row[1]: row for row in [
    (("--config",), "config", None, None, None, False, None,
     "config file (key = value lines)"),
    (("--ontology",), "ontology", None, None, None, False, None, None),
    (("--fg-lexicon",), "fg_lexicon", None, None, None, False, None, None),
    (("--bg-lexicon",), "bg_lexicon", None, None, None, False, None, None),
    (("--collapse-map",), "collapse_map", None, None, None, False, None, None),
    (("--corpus",), "corpus", None, None, None, False, None, None),
    (("--raw",), "raw", None, None, None, False, 0,
     "corpus is raw text, not vertical format"),
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
    (("--query",), "query", None, None, None, True, None, None),
    (("--width",), "width", "int", None, 5, False, None, None),
    (("--target",), "target", None, None, None, True, None, None),
    (("--top",), "top", "int", None, 20, False, None, None),
    (("--tagged",), "tagged", None, None, None, False, None,
     "sense-tagged corpus (4-column vertical)"),
    (("--tsv",), "tsv", None, None, False, False, 0, None),
]}
# the options each command takes, in order: exactly the settings it reads
_PIPELINE = "ontology fg_lexicon bg_lexicon collapse_map corpus raw output " \
            "window alpha ospd passive_implicature order jobs lang"
TAKES = {
    "validate": "config ontology fg_lexicon bg_lexicon output",
    "tune": "config ontology bg_lexicon collapse_map corpus raw output "
            "window alpha min_occurrences ospd jobs",
    "wsd": "config " + _PIPELINE,
    "extract": "config " + _PIPELINE,
    "kwic": "config corpus raw output query width tagged tsv",
    "patterns": "config corpus raw output window target top tagged tsv",
}
SURFACE = {name: [_HELP, *(_OPTIONS[dest] for dest in takes.split())]
           for name, takes in TAKES.items()}
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
    # 64 options in all, not counting --help
    assert {name: len(options) - 1 for name, options in surface.items()} == {
        "validate": 5, "tune": 12, "wsd": 15, "extract": 15, "kwic": 8, "patterns": 9}


# a value for each option, or None for a bare switch
_VALUE = {"raw": None, "tsv": None, "window": "3", "alpha": "0.5", "min_occurrences": "2",
          "ospd": "off", "passive_implicature": "off", "order": "fg-first", "jobs": "2",
          "lang": "de", "query": "lemma=bank", "width": "2", "target": "bank", "top": "3"}
_REQUIRED = {"kwic": ["--query", "lemma=bank"], "patterns": ["--target", "bank"]}


# `tuned_lexicon` is no option: `--bg-lexicon` reads a tuned lexicon
@pytest.mark.parametrize("dest", [*_OPTIONS, "tuned_lexicon"])
@pytest.mark.parametrize("command", list(TAKES))
def test_a_command_takes_a_flag_if_and_only_if_it_reads_it(capsys, command, dest):
    value = _VALUE.get(dest, "x")
    flag = ["--" + dest.replace("_", "-"), *([] if value is None else [value])]
    argv = [command, *_REQUIRED.get(command, []), *flag]
    if dest in TAKES[command].split():
        cfg = _build_parser().parse_args(argv)
        assert str(getattr(cfg, dest)) == ("True" if value is None else value)
    else:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"templex: error: unrecognized arguments: {' '.join(flag)}\n")


def test_every_config_key_is_documented():
    docs = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "formats.md")
    with open(docs, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
    assert "finite and positive" in section
    rows = {line.split("|")[1].strip(" `"): line.split("|")[4].strip()
            for line in section.splitlines() if line.startswith("| `")}
    # the "read by" column names the commands that take the key
    assert {key: [c for c in TAKES if key in TAKES[c].split()] for key in _SETTINGS} == {
        key: list(TAKES) if read_by == "all six" else read_by.split(", ")
        for key, read_by in rows.items()}


# ------------------------------------------------------------- config layers

def _inputs(**extra) -> str:
    lines = {"ontology": fixture_path("succession.onto"),
             "bg_lexicon": fixture_path("succession.bglex"),
             "collapse_map": fixture_path("succession.collapse"),
             "corpus": fixture_path("succession.vrt"), **extra}
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def _echo_line(tmp_path, config: str, *flags: str, command: str = "wsd") -> str:
    """The settings a run from `config` and `flags` echoes: the `#CONFIG` line
    of `wsd`, or the `params` line of `tune`."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), *flags, "--output", str(out)]) == 0
    return out.read_text().splitlines()[0 if command == "wsd" else 2]


def test_defaults_are_echoed(tmp_path):
    # the matcher's settings only when a foreground lexicon loaded it
    assert _echo_line(tmp_path, _inputs(fg_lexicon=fixture_path("succession.fglex"))) == (
        "#CONFIG alpha=0.1 lang=en order=bg-first ospd=true "
        "passive_implicature=true window=10")
    assert _echo_line(tmp_path, _inputs()) == "#CONFIG alpha=0.1 ospd=true window=10"
    assert _echo_line(tmp_path, _inputs(order="fg-first", lang="de")) == (
        "#CONFIG alpha=0.1 ospd=true window=10")


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
    # only `tune` reads min_occurrences; it skips the file's fg_lexicon
    command = "tune" if key == "min_occurrences" else "wsd"
    config = _inputs(fg_lexicon=fixture_path("succession.fglex"), **{key: file_value})
    assert from_file in _echo_line(tmp_path, config, command=command).split()
    assert from_flag in _echo_line(tmp_path, config, flag, flag_value,
                                   command=command).split()


def test_jobs_from_file_is_not_echoed(tmp_path):
    header = _echo_line(tmp_path, _inputs(jobs=2))
    assert header == _echo_line(tmp_path, _inputs())
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


def test_a_config_naming_a_collapse_map_serves_a_tuned_lexicon(tmp_path):
    # a tuned lexicon is collapsed already: its runs skip the collapse map
    config = _inputs(bg_lexicon=fixture_path("succession_min2.tunedlex"))
    assert "collapse_map = " in config
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    for argv, gold in ((["extract", "--fg-lexicon", fixture_path("succession.fglex")],
                        "succession_gold.jsonl"),
                       (["wsd"], "succession_tuned_gold.vrt")):
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg), "--output", str(out)]) == 0
        assert out.read_bytes() == open(fixture_path(gold), "rb").read()


@pytest.mark.parametrize("line, message", [
    ("windows = 4", ":7: unknown config key 'windows'"),
    ("tuned_lexicon = x", ":7: unknown config key 'tuned_lexicon'"),
    ("ospd = maybe", ":7: bad boolean 'maybe'"),
    ("raw = 1", ":7: bad boolean '1'"),
    ("window 4", ":7: expected `key = value`"),
    ("window = 0", "window must be positive"),
    ("jobs = -1", "jobs must be positive"),
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


def test_a_key_the_command_does_not_read_is_skipped(tmp_path, capsys):
    # neither checked nor set: `kwic` reads no lexicon, window or order
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ontology = /nonexistent\nwindow = 0\norder = sideways\n"
                   f"corpus = {fixture_path('succession.vrt')}\n")
    argv = ["kwic", "--config", str(cfg), "--query", "lemma=dismiss",
            "--output", str(tmp_path / "out.txt")]
    assert main(argv) == 0
    assert (tmp_path / "out.txt").read_text().startswith(
        "# kwic query='lemma=dismiss' width=5 matches=7\n")
    # but every command parses every line
    cfg.write_text(cfg.read_text() + "ospd = maybe\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"templex: error: {cfg}:5: bad boolean 'maybe'\n"


_FIXTURES = [fixture_path(name) for name in ("succession.onto", "succession.vrt")]
_STRATEGY = {  # valid values by type
    str: st.sampled_from(_FIXTURES), int: st.integers(1, 10**6),
    float: st.floats(1e-9, 1e9), bool: st.booleans(),
    ("bg-first", "fg-first"): st.sampled_from(("bg-first", "fg-first"))}


def _settings(names=tuple(_SETTINGS)):
    """Some of the settings `names`, each with a valid value."""
    return st.sets(st.sampled_from(names)).flatmap(lambda chosen: st.fixed_dictionaries(
        {name: _STRATEGY[_SETTINGS[name][0]] for name in chosen}))


def _text(value) -> str:
    """A valid value as a config file or a flag writes it."""
    if isinstance(value, bool):
        return "on" if value else "off"
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(list(TAKES)))
def test_config_layering_property(tmp_path_factory, data, command):
    """Each setting a command reads comes from its flag, else the file, else
    its default; a setting it does not read is not set at all."""
    takes = [name for name in _SETTINGS if name in TAKES[command].split()]
    in_file = data.draw(_settings(), label="file")
    # a bare switch (default off) can only be given as on
    by_flag = {name: value for name, value in data.draw(_settings(takes), label="flags").items()
               if value or _SETTINGS[name][1] is not False}
    cfg_path = tmp_path_factory.getbasetemp() / "layers.cfg"
    cfg_path.write_text("".join(f"{n} = {_text(v)}\n" for n, v in in_file.items()))
    argv = [command, "--config", str(cfg_path), *_REQUIRED.get(command, [])]
    for name, value in by_flag.items():
        argv.append("--" + name.replace("_", "-"))
        if _SETTINGS[name][1] is not False:
            argv.append(_text(value))
    cfg = _build_parser().parse_args(argv)
    _configure(cfg)
    for name, (_, default, *_) in _SETTINGS.items():
        if name in takes:
            assert getattr(cfg, name) == by_flag.get(name, in_file.get(name, default)), name
        else:
            assert not hasattr(cfg, name), name


@settings(max_examples=100, deadline=None)
@given(valid=_settings(), at=st.integers(0, 16),
       key=st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True).filter(
           lambda key: key not in _SETTINGS))
def test_an_unknown_config_key_fails_at_its_line_for_every_command(
        tmp_path_factory, valid, at, key):
    lines = [f"{n} = {_text(v)}\n" for n, v in valid.items()]
    at = min(at, len(lines))
    lines.insert(at, f"{key} = 1\n")
    cfg_path = tmp_path_factory.getbasetemp() / "unknown.cfg"
    cfg_path.write_text("".join(lines))
    for command in TAKES:
        cfg = _build_parser().parse_args([command, "--config", str(cfg_path),
                                          *_REQUIRED.get(command, [])])
        with pytest.raises(ParseError) as info:
            _configure(cfg)
        assert (info.value.path, info.value.line) == (str(cfg_path), at + 1)
        assert str(info.value).endswith(f": unknown config key {key!r}")


def test_config_file_input_must_exist(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_inputs(collapse_map=tmp_path / "nope.collapse"))
    assert main(["tune", "--config", str(cfg), "--output", str(tmp_path / "t")]) == 2
    assert (f"collapse-map file not found: {tmp_path / 'nope.collapse'}"
            in capsys.readouterr().err)
    # `validate` reads no collapse map, so it does not look for one
    assert main(["validate", "--config", str(cfg), "--fg-lexicon",
                 fixture_path("succession.fglex"), "--output", str(tmp_path / "v")]) == 0


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
        # the message names the one setting out of range
        assert capsys.readouterr().err == f"templex: error: alpha {message}\n"
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
