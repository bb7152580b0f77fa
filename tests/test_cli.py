import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import templex
from templex import (TuneParams, apply_tuning, collapse, load_bg_lexicon, load_collapse_map,
                     load_tuned_lexicon, read_corpus, save_tuned_lexicon, tune)
from templex import cli
from templex.bg_lexicon import BG_POS
from templex.cli import main
from templex.errors import ParseError, read_text
from templex.ontology import Ontology, SemClass
from helpers import fixture_path, fixture_text, training_sets


def run(args):
    return main(args)


def base_args(tmp_path, command, out_name, extra=()):
    """A run over the succession fixture; `tune` takes no foreground lexicon."""
    out = tmp_path / out_name
    args = [command,
            "--ontology", fixture_path("succession.onto"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", fixture_path("succession.vrt"),
            "--output", str(out)]
    if command != "tune":
        args += ["--fg-lexicon", fixture_path("succession.fglex")]
    args.extend(extra)
    return args, out


def test_extract_matches_golden(tmp_path):
    args, out = base_args(tmp_path, "extract", "out.jsonl")
    assert run(args) == 0
    assert out.read_bytes() == open(fixture_path("succession_gold.jsonl"), "rb").read()


def test_extract_fg_first_matches_golden(tmp_path):
    args, out = base_args(tmp_path, "extract", "out.jsonl", ["--order", "fg-first"])
    assert run(args) == 0
    assert out.read_bytes() == Path(fixture_path("succession_fgfirst_gold.jsonl")).read_bytes()


def test_tuned_lexicon_runs_match_golden(tmp_path):
    targs, tuned = base_args(tmp_path, "tune", "t.tl", ["--min-occurrences", "2"])
    assert run(targs) == 0
    assert tuned.read_bytes() == Path(fixture_path("succession_min2.tunedlex")).read_bytes()
    # a tuned lexicon is a background lexicon: `--bg-lexicon` reads it, at
    # every `--jobs`; the 8 ejected senses change background tags but no
    # extracted instance
    inputs = ["--ontology", fixture_path("succession.onto"), "--bg-lexicon", str(tuned),
              "--corpus", fixture_path("succession.vrt")]
    # `tune` reads one too, and ejects from its surviving senses
    retuned = save_tuned_lexicon(tune(
        apply_tuning(load_tuned_lexicon(tuned.read_text())),
        read_corpus(fixture_text("succession.vrt")), TuneParams(2), corpus_id="succession.vrt"))
    for jobs in (["--jobs", "1"], ["--jobs", "2"], ["--jobs", "3"], []):
        for command, gold, extra in (
                ("extract", "succession_gold.jsonl",
                 ["--fg-lexicon", fixture_path("succession.fglex")]),
                ("wsd", "succession_tuned_gold.vrt", []),
                ("tune", None, ["--min-occurrences", "2"])):
            out = tmp_path / f"{command}.out"
            assert run([command, *inputs, "--output", str(out), *extra, *jobs]) == 0
            if gold is None:
                assert out.read_text() == retuned
            else:
                assert out.read_bytes() == Path(fixture_path(gold)).read_bytes()


def test_wsd_fg_lexicon_matches_golden(tmp_path):
    # every matched verb carries the tag its foreground match wrote
    args, out = base_args(tmp_path, "wsd", "out.vrt")
    assert run(args) == 0
    gold = Path(fixture_path("succession_wsd_fg_gold.vrt")).read_bytes()
    assert out.read_bytes() == gold
    assert gold.count(b"/foreground\n") == 11


def test_extract_deterministic_and_jobs_independent(tmp_path):
    args1, out1 = base_args(tmp_path, "extract", "a.jsonl")
    args2, out2 = base_args(tmp_path, "extract", "b.jsonl", ["--jobs", "8"])
    assert run(args1) == 0 and run(args2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_wsd_deterministic(tmp_path):
    args1, out1 = base_args(tmp_path, "wsd", "a.vrt")
    args2, out2 = base_args(tmp_path, "wsd", "b.vrt", ["--jobs", "8"])
    assert run(args1) == 0 and run(args2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("#CONFIG ")
    assert "fg1/DISMISS-EVENT/foreground" in text


def test_tune_deterministic(tmp_path):
    args1, out1 = base_args(tmp_path, "tune", "a.tl")
    args2, out2 = base_args(tmp_path, "tune", "b.tl")
    assert run(args1) == 0 and run(args2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "eject bank noun s2" in out1.read_text()


def test_tune_records_ospd(tmp_path):
    args, out = base_args(tmp_path, "tune", "off.tl", ["--min-occurrences", "2", "--ospd", "off"])
    assert run(args) == 0
    lines, gold = out.read_text().splitlines(), fixture_text("succession_min2.tunedlex").splitlines()
    assert lines[2] == "params min_occurrences=2 window=10 alpha=0.100000 ospd=false"
    # without OSPD a bank token keeps the landform sense, which then stays
    assert set(gold) - set(lines) == {gold[2], "eject bank noun s2"}
    assert set(lines) - set(gold) == {lines[2]}
    assert load_tuned_lexicon(out.read_text()).params.ospd is False


def test_extract_with_tuned_lexicon(tmp_path):
    targs, tuned = base_args(tmp_path, "tune", "t.tl")
    assert run(targs) == 0
    out = tmp_path / "out.jsonl"
    args = ["extract",
            "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--bg-lexicon", str(tuned),
            "--corpus", fixture_path("succession.vrt"),
            "--output", str(out)]
    assert run(args) == 0
    assert out.read_text().count("SUCCESSION") >= 11


def test_validate_ok_exit_zero(tmp_path, capsys):
    args = ["validate",
            "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--bg-lexicon", fixture_path("succession.bglex")]
    assert run(args) == 0
    assert "0 diagnostic(s)" in capsys.readouterr().out


def test_validate_typo_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.fglex"
    bad.write_text(fixture_text("succession.fglex").replace("EMPLOYER", "EMPLOYR"))
    args = ["validate",
            "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", str(bad)]
    assert run(args) == 1
    assert "EMPLOYR" in capsys.readouterr().out


def test_wsd_checks_the_foreground_lexicon_as_extract_does(tmp_path, capsys):
    # a class typo is a list of diagnostics and exit 1 from both runs, not
    # an unknown-class error in mid-match
    bad = tmp_path / "bad.fglex"
    bad.write_text(fixture_text("succession.fglex").replace("EMPLOYER", "EMPLOYR"))
    errs = []
    for command in ("extract", "wsd"):
        args, out = base_args(tmp_path, command, "out")
        args[args.index("--fg-lexicon") + 1] = str(bad)
        assert run(args) == 1
        assert not out.exists()
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert "error: concept DISMISS-EVENT: arg org: unknown class EMPLOYR\n" in errs[0]
    assert "'unknown class:" not in errs[0]


def test_missing_file_exit_two(capsys):
    args = ["extract", "--ontology", "/nonexistent/x.onto",
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--corpus", fixture_path("succession.vrt")]
    assert run(args) == 2
    assert "not found" in capsys.readouterr().err


def test_missing_required_input_exit_two(capsys):
    assert run(["extract", "--ontology", fixture_path("succession.onto")]) == 2


def test_malformed_corpus_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.vrt"
    bad.write_text("#DOC d1\nonly one column\n")
    args = ["wsd",
            "--ontology", fixture_path("succession.onto"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", str(bad)]
    assert run(args) == 2
    assert "bad.vrt:2" in capsys.readouterr().err


def test_extract_empty_lemma_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.vrt"
    bad.write_text("#DOC d1\nfirm\tfirm\tNN\nx\t\tNN\n")
    args, _ = base_args(tmp_path, "extract", "out.jsonl")
    args[args.index("--corpus") + 1] = str(bad)
    assert run(args) == 2
    assert "bad.vrt:3: empty lemma field" in capsys.readouterr().err


def test_validate_unknown_parent_concept_exit_two(tmp_path, capsys):
    bad = tmp_path / "x.fglex"
    bad.write_text("concept A isa B\n  template T\n")
    args = ["validate", "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", str(bad)]
    assert run(args) == 2
    assert f"{bad}:1: unknown parent concept B" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tune", "wsd", "extract"])
@pytest.mark.parametrize("sense, message", [
    ("widget noun s1 ORPHAN", "widget/noun/s1: fine class ORPHAN has no coarse image "
                              "(even via ancestors)"),
    ("widget noun s1 V_MOTION", "widget/noun/s1: V_MOTION collapses to V_MOTION, "
                                "which is not in the noun scheme"),
    ("widget verb s1 ARTIFACT", "widget/verb/s1: ARTIFACT collapses to ARTIFACT, "
                                "which is not in the verb scheme"),
])
def test_collapse_error_names_the_lexicon_line(tmp_path, capsys, command, sense, message):
    # the succession ontology with a class ORPHAN that maps to no coarse
    # class, and its background lexicon with `sense` as line 75
    onto, bg = tmp_path / "orphan.onto", tmp_path / "orphan.bglex"
    onto.write_text(fixture_text("succession.onto") + "class ORPHAN\n")
    text = fixture_text("succession.bglex")
    assert len(text.splitlines()) == 74
    bg.write_text(text + sense + "\n")
    args, _ = base_args(tmp_path, command, "out")
    args[args.index("--ontology") + 1] = str(onto)
    args[args.index("--bg-lexicon") + 1] = str(bg)
    assert run(args) == 2
    assert capsys.readouterr().err == f"templex: error: {bg}:75: {message}\n"


@pytest.mark.parametrize("command", ["tune", "wsd", "extract"])
def test_collapse_to_a_class_the_ontology_lacks_names_the_lexicon_line(tmp_path, capsys,
                                                                       command):
    # ZZZ is a scheme class but no ontology class; bank/noun/s2 (line 34)
    # is the LANDFORM sense that maps to it
    cmap = tmp_path / "zzz.collapse"
    text = fixture_text("succession.collapse")
    assert "scheme noun ORGANISATION " in text and "map LANDFORM -> LOCATION\n" in text
    cmap.write_text(text.replace("scheme noun ORGANISATION ", "scheme noun ZZZ ORGANISATION ")
                    .replace("map LANDFORM -> LOCATION", "map LANDFORM -> ZZZ"))
    args, out = base_args(tmp_path, command, "out")
    args[args.index("--collapse-map") + 1] = str(cmap)
    assert run(args) == 2
    assert not out.exists()
    bg = fixture_path("succession.bglex")
    assert capsys.readouterr().err == (
        f"templex: error: {bg}:34: bank/noun/s2: LANDFORM collapses to ZZZ, "
        "which is not an ontology class\n")


def test_unknown_background_classes_name_their_lines_in_file_order(tmp_path, capsys):
    # `sack` is the lexicon's first lemma, so its new sense on line 76 comes
    # before `widget`'s on line 75 in lexicon order, but not in file order
    bg = tmp_path / "nosuch.bglex"
    text = fixture_text("succession.bglex")
    assert len(text.splitlines()) == 74
    assert text.splitlines()[5].startswith("sack verb s1 PLUNDER_ACT ")
    bg.write_text(text + "widget noun s1 NOSUCH\nsack verb s9 PLUNDER_ACT obj=NOTHING\n")
    args, _ = base_args(tmp_path, "extract", "out.jsonl")
    args[args.index("--bg-lexicon") + 1] = str(bg)
    assert run(args) == 2
    assert capsys.readouterr().err == (
        f"templex: error: {bg}:75: widget/noun/s1: unknown class NOSUCH\n")
    args = ["validate", "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"), "--bg-lexicon", str(bg)]
    assert run(args) == 1
    assert capsys.readouterr().out == (
        f"error: {bg}:75: widget/noun/s1: unknown class NOSUCH\n"
        f"error: {bg}:76: sack/verb/s9: unknown class NOTHING\n"
        "2 diagnostic(s)\n")


@pytest.mark.parametrize("command", ["validate", "extract"])
def test_foreground_resolution_error_names_the_word_line(tmp_path, capsys, command):
    fg = tmp_path / "bad.fglex"
    text = fixture_text("succession.fglex")
    word = "word sack verb sense fg1 -> DISMISS-EVENT\n"
    assert text.splitlines(keepends=True)[24] == word
    # the map is line 26; the error names the word's line
    fg.write_text(text.replace(word, word + "  map iobj -> nosuchrole\n"))
    if command == "validate":
        args = ["validate", "--ontology", fixture_path("succession.onto"), "--fg-lexicon", str(fg)]
    else:
        args, _ = base_args(tmp_path, command, "out")
        args[args.index("--fg-lexicon") + 1] = str(fg)
    assert run(args) == 2
    assert capsys.readouterr().err == (
        f"templex: error: {fg}:25: word sack/verb: mapping iobj -> nosuchrole: "
        "concept DISMISS-EVENT has no role 'nosuchrole'\n")


def test_kwic_cli(tmp_path):
    out = tmp_path / "kwic.txt"
    args = ["kwic", "--corpus", fixture_path("succession.vrt"),
            "--query", "lemma=dismiss", "--width", "3",
            "--output", str(out)]
    assert run(args) == 0
    text = out.read_text()
    assert text.startswith("# kwic query=")
    assert "matches=7" in text


def test_kwic_tagged_unknown_pos_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.vrt"
    bad.write_text("#DOC d1\nx\tx\tNN\t-\ny\ty\tXX\t-\n")
    args = ["kwic", "--tagged", str(bad), "--query", "lemma=x",
            "--output", str(tmp_path / "k.txt")]
    assert run(args) == 2
    assert f"{bad}:3: unknown POS tag 'XX'" in capsys.readouterr().err


def test_kwic_cli_class_query_needs_tagged_corpus(tmp_path):
    tagged = tmp_path / "tagged.vrt"
    wargs, _ = base_args(tmp_path, "wsd", "tagged.vrt")
    assert run(wargs) == 0
    out = tmp_path / "k.tsv"
    args = ["kwic", "--tagged", str(tagged),
            "--query", "class=ORGANISATION lemma=dismiss",
            "--tsv", "--output", str(out)]
    assert run(args) == 0
    rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
    assert len(rows) == 4


def test_patterns_cli(tmp_path):
    out = tmp_path / "p.txt"
    args = ["patterns", "--corpus", fixture_path("succession.vrt"),
            "--target", "sack", "--top", "10", "--output", str(out)]
    assert run(args) == 0
    text = out.read_text()
    assert text.startswith("# patterns target=sack")
    assert "collocate" in text and "pos_trigram" in text


def test_patterns_cli_with_tagged_corpus(tmp_path):
    wargs, tagged = base_args(tmp_path, "wsd", "tagged.vrt")
    assert run(wargs) == 0
    out = tmp_path / "p.tsv"
    args = ["patterns", "--tagged", str(tagged), "--target", "sack",
            "--top", "10", "--tsv", "--output", str(out)]
    assert run(args) == 0
    assert "dobj:PERSON" in out.read_text()


def test_wsd_with_tuned_lexicon(tmp_path):
    targs, tuned = base_args(tmp_path, "tune", "t.tl")
    assert run(targs) == 0
    out = tmp_path / "tagged.vrt"
    args = ["wsd",
            "--ontology", fixture_path("succession.onto"),
            "--bg-lexicon", str(tuned),
            "--corpus", fixture_path("succession.vrt"),
            "--output", str(out)]
    assert run(args) == 0
    text = out.read_text()
    # with the landform sense ejected, every bank is unambiguous now
    for line in text.splitlines():
        if line.startswith("bank\t"):
            assert "/ORGANISATION/unambiguous" in line


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "ontology = {o}\nfg_lexicon = {f}\nbg_lexicon = {b}\n"
        "collapse_map = {c}\ncorpus = {k}\nwindow = 6\n".format(
            o=fixture_path("succession.onto"), f=fixture_path("succession.fglex"),
            b=fixture_path("succession.bglex"), c=fixture_path("succession.collapse"),
            k=fixture_path("succession.vrt")))
    out1 = tmp_path / "c1.vrt"
    assert run(["wsd", "--config", str(cfg), "--output", str(out1)]) == 0
    assert "window=6" in out1.read_text().splitlines()[0]
    # flags override the config file
    out2 = tmp_path / "c2.vrt"
    assert run(["wsd", "--config", str(cfg), "--window", "4",
                "--output", str(out2)]) == 0
    assert "window=4" in out2.read_text().splitlines()[0]


@pytest.mark.parametrize("raw", [True, False])
def test_a_file_name_with_whitespace_gives_ids_that_read_back(tmp_path, raw):
    # a document that no `#DOC` line opens is named after its file
    corpus = tmp_path / "my \t corpus.x.txt"
    if raw:
        corpus.write_text("The school dismissed the teacher.\n")
    else:
        # the fixture's first document, without its `#DOC` line
        corpus.write_text(fixture_text("succession.vrt").split("#DOC ")[1].split("\n", 1)[1])
    inputs = ["--ontology", fixture_path("succession.onto"),
              "--corpus", str(corpus), *(["--raw"] if raw else [])]
    bg = ["--bg-lexicon", fixture_path("succession.bglex")]
    tagged, tuned = tmp_path / "t.vrt", tmp_path / "t.tl"
    assert run(["wsd", *inputs, *bg, "--output", str(tagged)]) == 0
    assert tagged.read_text().splitlines()[1] == "#DOC my_corpus.x"
    assert run(["kwic", "--tagged", str(tagged), "--query", "lemma=the",
                "--output", str(tmp_path / "k.txt")]) == 0
    assert "my_corpus.x:0 " in (tmp_path / "k.txt").read_text()
    # and so is a tuned lexicon's corpus
    assert run(["tune", *inputs, *bg, "--output", str(tuned)]) == 0
    assert tuned.read_text().splitlines()[1] == "corpus my_corpus.x.txt"
    assert run(["wsd", *inputs, "--bg-lexicon", str(tuned), "--output", str(tagged)]) == 0


def test_raw_mode_end_to_end(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("The school dismissed the teacher. The firm sacked the manager.")
    out = tmp_path / "raw.jsonl"
    args = ["extract",
            "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", str(raw), "--raw", "--output", str(out)]
    assert run(args) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two instances
    assert '"lemma": "school"' in lines[1]


def test_pipeline_order_is_a_config_point(tmp_path):
    import json
    args1, out1 = base_args(tmp_path, "extract", "bgf.jsonl", ["--order", "bg-first"])
    args2, out2 = base_args(tmp_path, "extract", "fgf.jsonl", ["--order", "fg-first"])
    assert run(args1) == 0 and run(args2) == 0

    def locs(path):
        lines = path.read_text().strip().splitlines()[1:]
        return {(json.loads(l)["provenance"]["doc"],
                 json.loads(l)["provenance"]["sent"]) for l in lines}

    bg_first, fg_first = locs(out1), locs(out2)
    # matching before classification loses exactly the events whose subject
    # needs the classifier (the ambiguous "bank"); the default order finds them
    assert fg_first < bg_first
    assert bg_first - fg_first == {("d06", 3), ("d07", 7)}


def _extract_with_tuned(tmp_path, text):
    tuned = tmp_path / "t.tl"
    tuned.write_text(text)
    args = ["extract",
            "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--bg-lexicon", str(tuned),
            "--corpus", fixture_path("succession.vrt"),
            "--output", str(tmp_path / "out.jsonl")]
    return run(args), str(tuned)


def test_tuned_lexicon_with_a_tiny_alpha_reloads(tmp_path):
    targs, tuned = base_args(tmp_path, "tune", "t.tl",
                             ["--min-occurrences", "2", "--alpha", "0.0000001"])
    assert run(targs) == 0
    assert " alpha=1e-07 ospd=true\n" in tuned.read_text()
    code, _ = _extract_with_tuned(tmp_path, tuned.read_text())
    assert code == 0


def test_config_bad_number_exit_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# run settings\nwindow = x\n")
    args, _ = base_args(tmp_path, "wsd", "o.vrt", ["--config", str(cfg)])
    assert run(args) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2: bad number 'x'" in err


def test_tuned_lexicon_bad_param_exit_two(tmp_path, capsys):
    rc, path = _extract_with_tuned(
        tmp_path, "tunedlex v1\ncorpus -\n"
                  "params min_occurrences=5 window=10 alpha=x\n")
    assert rc == 2
    assert f"{path}:3: bad number 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    ("corpus -\nparams min_occurrences=5 window=10 alpha=0.100000 top_k=10\n",
     "3: param 'top_k' is no longer read; re-run tune"),
    # a whole file as older runs wrote it: the params line comes first
    ("corpus succession.vrt\nparams min_occurrences=2 window=10 alpha=0.100000 "
     "top_k=10\nsense bank noun s1 ORGANISATION\ndisc bank noun s1 loan:0.5\n",
     "3: param 'top_k' is no longer read; re-run tune"),
    ("sense bank noun s1 ORGANISATION\ndisc bank noun s1 loan:0.5,rate:high\n",
     "3: disc lines are no longer read; re-run tune"),
])
def test_tuned_lexicon_from_an_older_tune_exit_two(tmp_path, capsys, lines, message):
    rc, path = _extract_with_tuned(tmp_path, "tunedlex v1\n" + lines)
    assert rc == 2
    assert capsys.readouterr().err == f"templex: error: {path}:{message}\n"


@pytest.mark.parametrize("senses, message", [
    ("sense bank noun b1 ORGANISATION\n" * 2, "3: duplicate sense bank/noun/b1"),
    ("sense bank xyz b1 ORGANISATION\n", "2: bad pos 'xyz'"),
    ("sense bank noun b1 ORGANISATION\neject bank xyz b1\n", "3: bad pos 'xyz'"),
    ("eject bank noun s9\nsense bank noun b1 ORGANISATION\n",
     "2: undeclared sense bank/noun/s9"),
    ("sense bank noun b1 ORGANISATION\ndisc bank noun s7 loan:0.5\n",
     "3: disc lines are no longer read; re-run tune"),
])
def test_tuned_lexicon_bad_sense_line_exit_two(tmp_path, capsys, senses, message):
    rc, path = _extract_with_tuned(tmp_path, "tunedlex v1\n" + senses)
    assert rc == 2
    assert f"{path}:{message}" in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    ("corpus a.vrt\ncorpus b.vrt\n", "3: second corpus line"),
    ("params window=3\nparams window=7\n", "3: param 'window' given twice"),
    ("params alpha=nan\n", "2: alpha must be finite"),
    ("params alpha=inf\n", "2: alpha must be finite"),
])
def test_tuned_lexicon_repeated_or_non_finite_setting_exit_two(tmp_path, capsys,
                                                               lines, message):
    rc, path = _extract_with_tuned(tmp_path, "tunedlex v1\n" + lines)
    assert rc == 2
    assert f"{path}:{message}" in capsys.readouterr().err


def test_tuned_lexicon_unknown_class_rejected_at_load(tmp_path, capsys):
    rc, path = _extract_with_tuned(
        tmp_path, "tunedlex v1\nsense bank noun s1 NOSUCH\n"
                  "sense school noun s1 ORGANISATION\n")
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}:2: bank/noun/s1: unknown class NOSUCH" in err
    assert "school" not in err


def test_validate_checks_a_tuned_lexicon(tmp_path, capsys):
    args = ["validate", "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--bg-lexicon", fixture_path("succession_min2.tunedlex")]
    assert run(args) == 0
    assert capsys.readouterr().out == "0 diagnostic(s)\n"
    bad = tmp_path / "bad.tl"
    bad.write_text(fixture_text("succession_min2.tunedlex").replace(
        "sense bank noun s1 ORGANISATION", "sense bank noun s1 NOSUCH"))
    args[-1] = str(bad)
    assert run(args) == 1
    assert capsys.readouterr().out == (f"error: {bad}:9: bank/noun/s1: unknown class NOSUCH\n"
                                       "1 diagnostic(s)\n")


_ONTO_CLASSES = ("ACT", "LOC", "ORG", "PER", "BANK")
_LOADER_ONTO = Ontology({c: SemClass(c, "ORG" if c == "BANK" else None)
                         for c in _ONTO_CLASSES}, {})
_LOADER_MAP = "scheme noun LOC ORG PER\nscheme verb ACT\n"


@st.composite
def _bg_lexicon_texts(draw):
    """Background lexicon text over `_LOADER_ONTO`: each sense's class has an
    image in its part of speech's scheme; with restrictions, trailing comments
    and a comment line."""
    lines = ["# a background lexicon"]
    for lemma in draw(st.lists(st.sampled_from(["bank", "Sack", "firm"]), min_size=1,
                               max_size=3, unique=True)):
        for pos in draw(st.lists(st.sampled_from(BG_POS), min_size=1, max_size=2, unique=True)):
            classes = {"noun": ("LOC", "ORG", "PER", "BANK"), "verb": ("ACT",)}.get(
                pos, _ONTO_CLASSES)
            for sid in draw(st.lists(st.sampled_from(["s1", "s2", "s10"]), min_size=1,
                                     max_size=3, unique=True)):
                line = f"{lemma} {pos} {sid} {draw(st.sampled_from(classes))}"
                if draw(st.booleans()):
                    line += f" obj={draw(st.sampled_from(_ONTO_CLASSES))}"
                if draw(st.booleans()):
                    line += f" # a comment on {sid}"
                lines.append(line)
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def _tuned_lexicon_texts(draw):
    """`save_tuned_lexicon(tune(...))` over a generated corpus and lexicon."""
    docs, bg = draw(training_sets(verbs=True))
    params = TuneParams(draw(st.integers(1, 3)), draw(st.integers(1, 4)), 0.1,
                        draw(st.booleans()))
    try:
        return save_tuned_lexicon(tune(bg, docs, params, corpus_id="c.vrt"))
    except ValueError as exc:
        assert "anchors" in str(exc)
        assume(False)


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(_bg_lexicon_texts(), _tuned_lexicon_texts()))
def test_the_background_loader_reads_either_format(tmp_path_factory, text):
    lexicon = tmp_path_factory.getbasetemp() / "either.lex"
    lexicon.write_text(text)
    cmap = tmp_path_factory.getbasetemp() / "either.collapse"
    cmap.write_text(_LOADER_MAP)
    got = cli._load_background(
        argparse.Namespace(bg_lexicon=str(lexicon), collapse_map=str(cmap)), _LOADER_ONTO)
    if text.startswith("tunedlex v1\n"):
        want = apply_tuning(load_tuned_lexicon(text))
    else:
        want = collapse(load_bg_lexicon(text), load_collapse_map(_LOADER_MAP), _LOADER_ONTO)
    assert got.collapsed and want.collapsed
    assert list(got.senses_by_key.items()) == list(want.senses_by_key.items())


# ------------------------------------------------- what each command imports

# Runs `main(argv)` in a fresh interpreter with two CPUs and prints the
# templex modules, and `dataclasses` and the process-pool packages, loaded at
# the end and when each shard child is forked.
_PROBE = """
import json, os, sys
from templex.cli import main
from templex.errors import ParseError, read_text

def loaded():
    return sorted(m for m in sys.modules if m.startswith("templex")
                  or m.split(".")[0] in ("dataclasses", "multiprocessing", "concurrent"))

at_fork = []
fork = os.fork

def counting_fork():
    at_fork.append(loaded())
    return fork()

os.fork = counting_fork
os.cpu_count = lambda: 2
code = main(sys.argv[1:])
print(json.dumps({"code": code, "end": loaded(), "at_fork": at_fork}))
"""


def _modules(argv):
    src = os.path.dirname(os.path.dirname(templex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    return report


@pytest.mark.parametrize("collector_on", [True, False])
def test_parser_freed_before_the_subcommand_runs(monkeypatch, collector_on):
    import argparse
    import gc
    import weakref

    from templex import cli
    build, parsers, seen = cli._build_parser, [], []

    def build_and_watch():
        parser = build()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parsers.extend(weakref.ref(p) for p in (parser, *sub.choices.values()))
        return parser

    def command(cfg):
        seen.append(([ref() is None for ref in parsers], gc.isenabled()))
        return 0

    monkeypatch.setattr(cli, "_build_parser", build_and_watch)
    monkeypatch.setattr(cli, "_cmd_validate", command)
    was_on = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        assert main(["validate", "--ontology", fixture_path("succession.onto")]) == 0
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was_on else gc.disable)()
    # the root parser and its 6 subcommand parsers, all gone, the collector off
    assert seen == [([True] * 7, False)]


def test_validate_imports_no_pipeline_module_and_no_dataclasses(tmp_path):
    end = _modules(["validate",
                    "--ontology", fixture_path("succession.onto"),
                    "--fg-lexicon", fixture_path("succession.fglex"),
                    "--bg-lexicon", fixture_path("succession.bglex"),
                    "--output", str(tmp_path / "out.txt")])["end"]
    assert "templex.fg_lexicon" in end and "templex.bg_lexicon" in end
    assert "dataclasses" not in end
    for name in ("textpipe", "wsd", "tuner", "workbench", "extract"):
        assert f"templex.{name}" not in end


def test_tagged_kwic_imports_no_lexicon_module(tmp_path):
    # the tagged-corpus reader lives in textpipe, with or without tags
    for query in ("lemma=bank", "class=ORGANISATION"):
        end = _modules(["kwic", "--tagged", fixture_path("succession_tuned_gold.vrt"),
                        "--query", query, "--output", str(tmp_path / "out.txt")])["end"]
        assert end == ["templex", "templex.cli", "templex.errors", "templex.textpipe",
                       "templex.workbench"]


def test_shard_workers_import_nothing_the_parent_did_not(tmp_path):
    args, _ = base_args(tmp_path, "extract", "out.jsonl")
    serial = _modules([*args, "--jobs", "1"])
    forked = _modules([*args, "--jobs", "2"])
    assert serial["at_fork"] == [] and len(forked["at_fork"]) == 1
    # the forked workers inherit every module a one-process run ever loads
    assert set(serial["end"]) <= set(forked["at_fork"][0])


@pytest.mark.parametrize("command", ["extract", "wsd"])
def test_sharded_runs_import_no_process_pool_package(tmp_path, command):
    args, _ = base_args(tmp_path, command, "out")
    forked = _modules([*args, "--jobs", "2"])
    assert len(forked["at_fork"]) == 1
    assert [m for m in forked["end"] if m.split(".")[0] in ("multiprocessing", "concurrent")] == []


# ------------------------------------------------------ non-UTF-8 input files

def _with_latin1_byte(tmp_path, name):
    """A copy of fixture `name` whose last line opens with a Latin-1 byte: its
    path, and that line's number."""
    lines = fixture_text(name).splitlines()
    lines[-1] = "\xe9" + lines[-1]
    path = tmp_path / f"latin1-{name}"
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    return str(path), len(lines)


_ONTO, _FG, _BG = (fixture_path(f"succession.{ext}") for ext in ("onto", "fglex", "bglex"))
_VALIDATE = ["validate", "--ontology", _ONTO, "--fg-lexicon", _FG, "--bg-lexicon", _BG]
_EXTRACT = ["extract", "--ontology", _ONTO, "--fg-lexicon", _FG, "--bg-lexicon", _BG,
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", fixture_path("succession.vrt")]
_TAGGED = fixture_path("succession_tuned_gold.vrt")


@pytest.mark.parametrize("argv, flag, name", [
    (_VALIDATE, "--ontology", "succession.onto"),
    (_VALIDATE, "--fg-lexicon", "succession.fglex"),
    (_VALIDATE, "--bg-lexicon", "succession.bglex"),
    (_EXTRACT, "--bg-lexicon", "succession.bglex"),
    (_EXTRACT, "--collapse-map", "succession.collapse"),
    (_EXTRACT, "--corpus", "succession.vrt"),
    (["extract", "--ontology", _ONTO, "--fg-lexicon", _FG,
      "--bg-lexicon", fixture_path("succession_min2.tunedlex"),
      "--corpus", fixture_path("succession.vrt")], "--bg-lexicon", "succession_min2.tunedlex"),
    ([*_VALIDATE[:-1], fixture_path("succession_min2.tunedlex")],
     "--bg-lexicon", "succession_min2.tunedlex"),
    (["kwic", "--query", "lemma=bank", "--corpus", fixture_path("succession.vrt")],
     "--corpus", "succession.vrt"),
    (["kwic", "--query", "lemma=bank", "--tagged", _TAGGED],
     "--tagged", "succession_tuned_gold.vrt"),
    (["patterns", "--target", "bank", "--tagged", _TAGGED],
     "--tagged", "succession_tuned_gold.vrt"),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_non_utf8_input_file_exit_two(tmp_path, capsys, argv, flag, name):
    path, line = _with_latin1_byte(tmp_path, name)
    argv = list(argv)
    argv[argv.index(flag) + 1] = path
    assert run([*argv, "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"templex: error: {path}:{line}: "
                                       "not UTF-8: byte 0xe9 (invalid continuation byte)\n")


def test_non_utf8_config_file_exit_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(f"ontology = {_ONTO}\r\n# caf\xe9\nwindow = 6\n".encode("latin-1"))
    assert run(["validate", "--config", str(cfg), "--fg-lexicon", _FG]) == 2
    assert capsys.readouterr() == (
        "", f"templex: error: {cfg}:2: not UTF-8: byte 0xe9 (invalid continuation byte)\n")


def test_non_utf8_line_is_counted_as_splitlines_counts(tmp_path):
    path = tmp_path / "breaks.txt"
    path.write_bytes(b"a\r\nb\rc\x0cd\x1ee\n\xe9f\n")
    with pytest.raises(ParseError) as info:
        read_text(str(path))
    assert (info.value.path, info.value.line) == (str(path), 6)


# -------------------------------------------- the program and its hard exit

def _program_cases(tmp_path):
    typo = tmp_path / "typo.fglex"
    typo.write_text(fixture_text("succession.fglex").replace("EMPLOYER", "EMPLOYR"))
    return {
        "validate-0": _VALIDATE,
        "validate-1": ["validate", "--ontology", _ONTO, "--fg-lexicon", str(typo)],
        "kwic-stdout": ["kwic", "--tagged", _TAGGED, "--query", "lemma=dismiss"],
        "extract-stdout": _EXTRACT,
        "missing-file": ["validate", "--ontology", "/nonexistent/x.onto", "--fg-lexicon", _FG],
        "help": ["extract", "--help"],
    }


@pytest.mark.parametrize("case", ["validate-0", "validate-1", "kwic-stdout",
                                  "extract-stdout", "missing-file", "help"])
def test_program_equals_main_in_process(tmp_path, capsys, monkeypatch, case):
    argv = _program_cases(tmp_path)[case]
    monkeypatch.setenv("COLUMNS", "80")  # argparse's help width, in both
    src = os.path.dirname(os.path.dirname(templex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "templex.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert code == {"validate-1": 1, "missing-file": 2}.get(case, 0)


class _Stdout:
    def __init__(self, events, error=None):
        self.events, self.error = events, error

    def write(self, text):
        self.events.append(("write", text))

    def flush(self):
        self.events.append("flush")
        if self.error:
            raise self.error


def test_run_flushes_stdout_then_exits_with_mains_code(capsys, monkeypatch):
    from templex import cli
    events = []

    def writing():
        sys.stdout.write("out\n")
        return 1

    monkeypatch.setattr(sys, "stdout", _Stdout(events))
    monkeypatch.setattr(cli, "main", writing)
    monkeypatch.setattr(os, "_exit", lambda code: events.append(("exit", code)))
    cli.run()
    assert events == [("write", "out\n"), "flush", ("exit", 1)]


def test_run_reports_a_failed_flush_as_exit_two(capsys, monkeypatch):
    from templex import cli
    events = []
    monkeypatch.setattr(sys, "stdout", _Stdout(events, BrokenPipeError(32, "Broken pipe")))
    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(os, "_exit", lambda code: events.append(("exit", code)))
    cli.run()
    assert events == ["flush", ("exit", 2)]
    assert capsys.readouterr().err == "templex: error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("exc", [RuntimeError("boom"), SystemExit(0), KeyboardInterrupt()])
def test_run_lets_an_escaping_exception_propagate(monkeypatch, exc):
    from templex import cli

    def failing():
        raise exc

    codes = []
    monkeypatch.setattr(cli, "main", failing)
    monkeypatch.setattr(os, "_exit", codes.append)
    with pytest.raises(type(exc)):
        cli.run()
    assert codes == []


def test_console_script_is_run():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    assert 'templex = "templex.cli:run"' in pyproject.read_text().splitlines()
