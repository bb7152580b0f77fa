"""The workbench commands over a sense-tagged corpus, and the collector guard of `main`.

The goldens were written by `kwic` and `patterns` over
`succession_tuned_gold.vrt` before the tagged-corpus reader moved into
`textpipe`; a query without a `class=` constraint reads no tags, so these
pin both reads.
"""

import gc
from pathlib import Path

import pytest

from templex.cli import main
from helpers import fixture_path, fixture_text

TAGGED = fixture_path("succession_tuned_gold.vrt")

GOLDENS = [
    ("succession_kwic_lemma.txt", ["kwic", "--query", "lemma=dismiss"]),
    ("succession_kwic_lemma.tsv", ["kwic", "--query", "lemma=dismiss", "--tsv"]),
    ("succession_kwic_pos_lemma.txt", ["kwic", "--query", "pos=DET lemma=bank"]),
    ("succession_kwic_pos_lemma.tsv", ["kwic", "--query", "pos=DET lemma=bank", "--tsv"]),
    ("succession_kwic_class.txt", ["kwic", "--query", "class=ORGANISATION"]),
    ("succession_kwic_class.tsv", ["kwic", "--query", "class=ORGANISATION", "--tsv"]),
    ("succession_patterns_bank.tsv", ["patterns", "--target", "bank", "--tsv"]),
    ("succession_patterns_dismiss.tsv", ["patterns", "--target", "dismiss", "--tsv"]),
]


@pytest.mark.parametrize("gold, argv", GOLDENS, ids=[g for g, _ in GOLDENS])
def test_query_output_matches_golden(tmp_path, gold, argv):
    out = tmp_path / "out"
    assert main([*argv, "--tagged", TAGGED, "--output", str(out)]) == 0
    assert out.read_bytes() == Path(fixture_path(gold)).read_bytes()


@pytest.mark.parametrize("gold, argv", GOLDENS, ids=[g for g, _ in GOLDENS])
def test_tagged_wins_over_corpus_and_raw(tmp_path, gold, argv):
    # a shared config file may name a corpus; given `--tagged`, neither it nor
    # `--corpus` or `raw` is read
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {fixture_path('succession.onto')}\nraw = on\n")
    out = tmp_path / "out"
    for given in (["--corpus", fixture_path("succession.onto"), "--raw"],
                  ["--config", str(cfg)]):
        assert main([*argv, *given, "--tagged", TAGGED, "--output", str(out)]) == 0
        assert out.read_bytes() == Path(fixture_path(gold)).read_bytes()


QUERIES = [["kwic", "--query", q] for q in
           ("lemma=x", "x", "word=/x|y/", "pos=NN", "pos=NN lemma=y", "class=ORG")] \
    + [["patterns", "--target", "x"]]


@pytest.mark.parametrize("column", ["s1/ORG", "a/b/c/d", "s1ORGbayes", "/"])
@pytest.mark.parametrize("argv", QUERIES, ids=[" ".join(a) for a in QUERIES])
def test_bad_tag_column_exit_two_for_every_query(tmp_path, capsys, argv, column):
    bad = tmp_path / "bad.vrt"
    bad.write_text(f"#DOC d1\nx\tx\tNN\ts1/ORG/bayes\ny\ty\tNN\t-\nz\tz\tNN\t{column}\n")
    assert main([*argv, "--tagged", str(bad), "--output", str(tmp_path / "o")]) == 2
    assert f"templex: error: {bad}:4: bad tag column {column!r}" in capsys.readouterr().err


def test_bad_query_is_reported_before_a_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.vrt"
    bad.write_text("#DOC d1\nx\tx\tNN\ts1/ORG\n")
    assert main(["kwic", "--tagged", str(bad), "--query", "lemma=x foo=bar"]) == 2
    assert "bad constraint 'foo=bar'" in capsys.readouterr().err


# ---------------------------------------------------------- the collector

def _extract_args(corpus, out):
    return ["extract", "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", corpus, "--output", out]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(tmp_path, enabled):
    bad_fg = tmp_path / "bad.fglex"
    bad_fg.write_text(fixture_text("succession.fglex").replace("EMPLOYER", "EMPLOYR"))
    runs = [
        (0, _extract_args(fixture_path("succession.vrt"), str(tmp_path / "a.jsonl"))),
        (1, ["validate", "--ontology", fixture_path("succession.onto"),
             "--fg-lexicon", str(bad_fg), "--output", str(tmp_path / "v.txt")]),
        (2, ["kwic", "--tagged", TAGGED, "--query", "foo=bar"]),
        (2, _extract_args(str(tmp_path / "missing.vrt"), str(tmp_path / "b.jsonl"))),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for code, argv in runs:
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_no_garbage_cycle_grows_with_the_corpus(tmp_path):
    # with the collector off, a run's cycles stay until collected: their
    # count must not depend on the corpus size
    text = fixture_text("succession.vrt")
    big = tmp_path / "big.vrt"
    big.write_text("".join(text.replace("#DOC d", f"#DOC c{k}-d") for k in range(20)))
    was = gc.isenabled()
    gc.disable()
    try:
        counts = []
        for corpus in (fixture_path("succession.vrt"), str(big)):
            gc.collect()
            assert main(_extract_args(corpus, str(tmp_path / "o.jsonl"))) == 0
            counts.append(gc.collect())
    finally:
        if was:
            gc.enable()
    assert counts[0] == counts[1]
