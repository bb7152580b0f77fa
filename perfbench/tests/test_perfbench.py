"""Tests of the benchmark's own parts: inputs, oracles, span arithmetic."""

import json
import os

import pytest

import gen
import oracle
import run
import tracing
from templex import cli, textpipe, workbench, wsd

ROOT = run.ROOT


def fixture_text(name):
    return gen.read_text(gen.fixture(ROOT, name))


# ------------------------------------------------------------ generator

def test_replica_is_deterministic_per_seed():
    vrt = fixture_text("succession.vrt")
    a, order_a = gen.replica_corpus(vrt, 5, 7)
    b, order_b = gen.replica_corpus(vrt, 5, 7)
    c, order_c = gen.replica_corpus(vrt, 5, 8)
    assert a == b and order_a == order_b
    assert a != c and sorted(order_a) == sorted(order_c)
    assert len(order_a) == 35 and len({new for new, _ in order_a}) == 35


def test_synth_vocab_is_deterministic_per_seed():
    bglex, collapse = fixture_text("succession.bglex"), fixture_text("succession.collapse")
    a = gen.synth_vocab(bglex, collapse, 3)
    b = gen.synth_vocab(bglex, collapse, 3)
    c = gen.synth_vocab(bglex, collapse, 4)
    assert (a.bglex, a.corpus) == (b.bglex, b.corpus)
    assert a.corpus != c.corpus and a.bglex != c.bglex
    assert a.lexicon_lemmas == gen.SYNTH_NOUNS + gen.SYNTH_VERBS


def test_synth_vocab_reads_and_chunks():
    sv = gen.synth_vocab(fixture_text("succession.bglex"),
                         fixture_text("succession.collapse"), 1)
    docs = textpipe.read_corpus(sv.corpus)
    assert len(docs) == gen.SYNTH_DOCS
    analysis = textpipe.analyze(docs[0])
    assert all(any(c.kind == "VG" for c in sa.chunks) for sa in analysis.sentences)


def test_query_mix_is_deterministic_and_cycles_kinds():
    corpus, _ = gen.replica_corpus(fixture_text("succession.vrt"), 2, 1)
    a = gen.query_mix(corpus, 20, 5)
    assert a == gen.query_mix(corpus, 20, 5)
    assert a != gen.query_mix(corpus, 20, 6)
    assert [q.command for q in a[:5]] == ["kwic"] * 4 + ["patterns"]
    for q in a:
        if q.command == "kwic":
            assert workbench.parse_query(q.text).constraints == tuple(
                workbench.TokenConstraint(k, v) for k, v in q.constraints)


# ---------------------------------------------------------------- spans

def span(sid, start, end, parent):
    return tracing.Span(sid, f"s{sid}", start, end, parent, 1)


def test_self_times_on_a_hand_built_tree():
    spans = [
        span(1, 0.0, 10.0, None),
        span(2, 1.0, 4.0, 1),   # overlaps its sibling 3, as pool threads do
        span(3, 3.0, 6.0, 1),
        span(4, 2.0, 3.0, 2),
        span(5, 8.0, 12.0, 1),  # runs past its parent: clipped to 8..10
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0})


def test_sequential_self_times_add_up_to_the_root():
    spans = [span(1, 0.0, 9.0, None), span(2, 0.5, 3.0, 1), span(3, 1.0, 2.0, 2),
             span(4, 3.0, 8.5, 1), span(5, 4.0, 4.25, 4), span(6, 5.0, 6.0, 4)]
    assert sum(tracing.self_times(spans).values()) == pytest.approx(9.0)


def test_tracer_spans_extract_and_restores_templex(tmp_path):
    out = tmp_path / "out.jsonl"
    argv = ["extract",
            "--ontology", gen.fixture(ROOT, "succession.onto"),
            "--fg-lexicon", gen.fixture(ROOT, "succession.fglex"),
            "--bg-lexicon", gen.fixture(ROOT, "succession.bglex"),
            "--collapse-map", gen.fixture(ROOT, "succession.collapse"),
            "--corpus", gen.fixture(ROOT, "succession.vrt"),
            "--output", str(out)]
    original = textpipe.read_corpus
    tracer = tracing.Tracer()
    with tracer:
        code = tracer.invoke(cli.main, argv)
    assert code == 0 and textpipe.read_corpus is original
    assert out.read_text() == fixture_text("succession_gold.jsonl")
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "textpipe.read_corpus", "wsd.train_bayes",
            "wsd.match_foreground", "extract.fill_templates"} <= names
    root = tracer.spans[-1]
    assert root.name == "cli.main"
    assert sum(tracing.self_times(tracer.spans).values()) == pytest.approx(root.end - root.start)
    assert tracer.counts["extract.instances"] == 11
    assert tracer.counts["textpipe.docs"] == 7


# -------------------------------------------------------------- oracles

def test_golden_rename_and_reorder():
    gold = ('{"config": {}}\n'
            '{"x": 1, "provenance": {"doc": "d01", "sent": 0}}\n'
            '{"x": 2, "provenance": {"doc": "d01", "sent": 2}}\n'
            '{"x": 3, "provenance": {"doc": "d02", "sent": 1}}\n')
    order = [("r1_d02", "d02"), ("r0_d01", "d01"), ("r0_d03", "d03"), ("r0_d02", "d02")]
    assert oracle.expected_extract(gold, order) == (
        '{"config": {}}\n'
        '{"x": 3, "provenance": {"doc": "r1_d02", "sent": 1}}\n'
        '{"x": 1, "provenance": {"doc": "r0_d01", "sent": 0}}\n'
        '{"x": 2, "provenance": {"doc": "r0_d01", "sent": 2}}\n'
        '{"x": 3, "provenance": {"doc": "r0_d02", "sent": 1}}\n')


def test_renamed_golden_file_matches_extract_on_a_replica(tmp_path):
    corpus, order = gen.replica_corpus(fixture_text("succession.vrt"), 3, 11)
    (tmp_path / "r.vrt").write_text(corpus)
    out = tmp_path / "out.jsonl"
    code = cli.main(["extract",
                     "--ontology", gen.fixture(ROOT, "succession.onto"),
                     "--fg-lexicon", gen.fixture(ROOT, "succession.fglex"),
                     "--bg-lexicon", gen.fixture(ROOT, "succession.bglex"),
                     "--collapse-map", gen.fixture(ROOT, "succession.collapse"),
                     "--corpus", str(tmp_path / "r.vrt"), "--output", str(out)])
    assert code == 0
    assert out.read_text() == oracle.expected_extract(
        fixture_text("succession_gold.jsonl"), order)


def test_naive_kwic_scan_agrees_with_workbench():
    corpus, _ = gen.replica_corpus(fixture_text("succession.vrt"), 2, 1)
    docs = textpipe.read_corpus(corpus)
    tags = {}
    for i, doc in enumerate(docs):
        for tok in doc.tokens():
            if tok.pos in ("NN", "NNP") and i % 2 == 0:
                tags[(doc.doc_id, tok.sent_idx, tok.tok_idx)] = wsd.SenseTag(
                    doc.doc_id, tok.sent_idx, tok.tok_idx, tok.lemma, "noun",
                    "s1", "PERSON" if tok.tok_idx % 2 else "TIME", 0.0, "bayes")
    tagged = wsd.dump_tagged_corpus(docs, tags)
    sentences = oracle.tagged_sentences(tagged)
    for q in gen.query_mix(corpus, 40, 2):
        if q.command == "kwic":
            lines = workbench.kwic(docs, tags, workbench.parse_query(q.text))
            assert oracle.naive_kwic_count(sentences, q.constraints) == len(lines), q.text


def test_kwic_header_count():
    assert oracle.kwic_header_count("# kwic query='a b' width=5 matches=12\nx\n") == 12
    assert oracle.kwic_header_count("nothing\n") is None


# -------------------------------------------------------------- contract

def test_declared_metrics_are_the_ones_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
