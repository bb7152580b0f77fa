import json
import os
import subprocess
import sys
from pathlib import Path

import templex
from templex.cli import main
from helpers import fixture_path, fixture_text


def run(args):
    return main(args)


def base_args(tmp_path, command, out_name, extra=()):
    out = tmp_path / out_name
    args = [command,
            "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", fixture_path("succession.vrt"),
            "--output", str(out)]
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
    # the 8 ejected senses change background tags but no extracted instance
    for command, gold, extra in (
            ("extract", "succession_gold.jsonl",
             ["--fg-lexicon", fixture_path("succession.fglex")]),
            ("wsd", "succession_tuned_gold.vrt", [])):
        out = tmp_path / f"{command}.out"
        args = [command,
                "--ontology", fixture_path("succession.onto"),
                "--tuned-lexicon", str(tuned),
                "--corpus", fixture_path("succession.vrt"),
                "--output", str(out), *extra]
        assert run(args) == 0
        assert out.read_bytes() == Path(fixture_path(gold)).read_bytes()


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


def test_extract_with_tuned_lexicon(tmp_path):
    targs, tuned = base_args(tmp_path, "tune", "t.tl")
    assert run(targs) == 0
    out = tmp_path / "out.jsonl"
    args = ["extract",
            "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--tuned-lexicon", str(tuned),
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
            "--tuned-lexicon", str(tuned),
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
            "--tuned-lexicon", str(tuned),
            "--corpus", fixture_path("succession.vrt"),
            "--output", str(tmp_path / "out.jsonl")]
    return run(args), str(tuned)


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
                  "params min_occurrences=5 window=10 alpha=x top_k=10\n")
    assert rc == 2
    assert f"{path}:3: bad number 'x'" in capsys.readouterr().err


def test_tuned_lexicon_bad_discriminator_weight_exit_two(tmp_path, capsys):
    rc, path = _extract_with_tuned(
        tmp_path, "tunedlex v1\nsense bank noun s1 ORGANISATION\n"
                  "disc bank noun s1 loan:0.5,rate:high\n")
    assert rc == 2
    assert f"{path}:3: bad number 'high'" in capsys.readouterr().err


def test_tuned_lexicon_unknown_class_rejected_at_load(tmp_path, capsys):
    rc, path = _extract_with_tuned(
        tmp_path, "tunedlex v1\nsense bank noun s1 NOSUCH\n"
                  "sense school noun s1 ORGANISATION\n")
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}: bank/noun/s1: unknown class NOSUCH" in err
    assert "school" not in err


# ------------------------------------------------- what each command imports

# Runs `main(argv)` in a fresh interpreter and prints the templex modules,
# and `dataclasses`, loaded at the end and when each process pool is built.
_PROBE = """
import concurrent.futures, json, os, sys
from templex.cli import main

def loaded():
    return sorted(m for m in sys.modules if m == "dataclasses" or m.startswith("templex"))

at_pool = []

class CountingPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        at_pool.append(loaded())
        super().__init__(*args, **kwargs)

concurrent.futures.ProcessPoolExecutor = CountingPool
os.cpu_count = lambda: 2
code = main(sys.argv[1:])
print(json.dumps({"code": code, "end": loaded(), "at_pool": at_pool}))
"""


def _modules(argv):
    src = os.path.dirname(os.path.dirname(templex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    return report


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
    end = _modules(["kwic", "--tagged", fixture_path("succession_tuned_gold.vrt"),
                    "--query", "class=ORGANISATION",
                    "--output", str(tmp_path / "out.txt")])["end"]
    assert "templex.workbench" in end and "templex.wsd" in end
    for name in ("fg_lexicon", "decisionlist", "tuner", "extract", "ontology"):
        assert f"templex.{name}" not in end


def test_shard_workers_import_nothing_the_parent_did_not(tmp_path):
    args, _ = base_args(tmp_path, "extract", "out.jsonl")
    serial = _modules([*args, "--jobs", "1"])
    forked = _modules([*args, "--jobs", "2"])
    assert serial["at_pool"] == [] and len(forked["at_pool"]) == 1
    # the forked workers inherit every module a one-process run ever loads
    assert set(serial["end"]) <= set(forked["at_pool"][0])
