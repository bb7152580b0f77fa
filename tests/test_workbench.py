import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templex import (ParseError, PatternQuery, apply_ospd, disambiguate_background,
                     format_kwic, format_report, kwic, log_likelihood_ratio,
                     parse_query, pattern_report, train_bayes)
from templex.workbench import TokenConstraint
from helpers import (kwic_constraints, make_doc, naive_kwic, naive_kwic_count,
                     random_kwic_corpus, tagged_kwic_corpora)


@pytest.fixture(scope="module")
def tags(corpus, bg):
    model = train_bayes(corpus, bg)
    return apply_ospd(disambiguate_background(model, corpus, bg), bg)


def test_lemma_query_finds_every_occurrence(corpus, tags):
    lines = kwic(corpus, tags, parse_query("lemma=dismiss"), width=4)
    count = sum(1 for d in corpus for t in d.tokens() if t.lemma == "dismiss")
    assert len(lines) == count
    for l in lines:
        assert len(l.left) <= 4 and len(l.right) <= 4
        assert l.match[0] in ("dismissed",)


def test_class_constraint_query(corpus, tags):
    lines = kwic(corpus, tags, parse_query("class=ORGANISATION lemma=dismiss"))
    subjects = {l.match[0] for l in lines}
    assert subjects == {"school", "committee", "firm", "bank"}


def test_class_constraint_without_tags_is_error(corpus):
    with pytest.raises(ValueError, match="tags"):
        kwic(corpus, None, parse_query("class=ORGANISATION"))


def test_no_match_returns_empty(corpus, tags):
    assert kwic(corpus, tags, parse_query("lemma=zebra")) == []


def test_bare_literal_and_regex_queries(corpus, tags):
    lit = kwic(corpus, tags, parse_query("sacked"))
    assert all(l.match == ("sacked",) for l in lit)
    rx = kwic(corpus, tags, parse_query("word=/sack(ed)?/"))
    assert len(rx) == len(lit)


def test_invalid_regex_rejected():
    with pytest.raises(ParseError, match="bad regex"):
        parse_query("word=/([unclosed/")


def test_match_counts_equal_naive_scan_on_fixture(corpus, tags):
    queries = ["lemma=dismiss", "pos=DET lemma=bank", "the",
               "class=ORGANISATION lemma=sack", "lemma=the lemma=bank"]
    for qtext in queries:
        q = parse_query(qtext)
        checks = [_as_callable(c) for c in q.constraints]
        assert len(kwic(corpus, tags, q)) == naive_kwic_count(corpus, checks, tags)


@settings(max_examples=300, deadline=None)
@given(data=tagged_kwic_corpora(), constraints=kwic_constraints,
       width=st.integers(0, 6))
def test_kwic_equals_a_naive_scan(data, constraints, width):
    docs, tags = data
    query = PatternQuery(tuple(TokenConstraint(k, v) for k, v in constraints))
    lines = kwic(docs, tags, query, width)
    assert [tuple(line) for line in lines] == naive_kwic(docs, tags, constraints, width)
    if query.needs_tags():
        with pytest.raises(ValueError, match="tags"):
            kwic(docs, None, query, width)


def test_query_longer_than_the_sentence_never_matches():
    docs = [make_doc("d", [[("a", "NN"), ("a", "NN")], [("a", "NN")] * 4])]
    lines = kwic(docs, None, parse_query("lemma=a lemma=a lemma=a lemma=a"))
    assert [(l.sent_idx, l.start, l.end) for l in lines] == [(1, 0, 4)]


def test_match_counts_equal_naive_scan_on_generated_corpus():
    rng = random.Random(314)
    docs = random_kwic_corpus(rng, 100_000)
    total = sum(1 for d in docs for _ in d.tokens())
    assert total >= 100_000
    for qtext in ["lemma=w00", "pos=NN", "lemma=w01 lemma=w02",
                  "pos=DET pos=NN", "word=/w0[1-3]/"]:
        q = parse_query(qtext)
        checks = [_as_callable(c) for c in q.constraints]
        assert len(kwic(docs, None, q)) == naive_kwic_count(docs, checks)


def _as_callable(constraint):
    kind, value = constraint.kind, constraint.value
    if kind == "word":
        return lambda tok, tag: re.fullmatch(value, tok.surface) is not None
    if kind == "lemma":
        return lambda tok, tag: tok.lemma == value
    if kind == "pos":
        return lambda tok, tag: tok.pos == value
    return lambda tok, tag: tag is not None and tag.coarse_class == value


def test_kwic_rendering_deterministic(corpus, tags):
    lines = kwic(corpus, tags, parse_query("lemma=sack"), width=3)
    assert format_kwic(lines) == format_kwic(lines)
    tsv = format_kwic(lines, tsv=True)
    assert len(tsv.strip().split("\n")) == len(lines)


def test_llr_matches_contingency_oracle():
    import math

    def oracle(a, b, c, d):
        n = a + b + c + d
        total = 0.0
        for obs, rowsum, colsum in ((a, a + b, a + c), (b, a + b, b + d),
                                    (c, c + d, a + c), (d, c + d, b + d)):
            if obs:
                expected = rowsum * colsum / n
                total += obs * math.log(obs / expected)
        return 2.0 * total

    rng = random.Random(8)
    for _ in range(200):
        cells = [rng.randrange(0, 50) for _ in range(4)]
        if sum(cells) == 0:
            continue
        assert log_likelihood_ratio(*cells) == pytest.approx(oracle(*cells), abs=1e-9)


def test_llr_zero_cells():
    assert log_likelihood_ratio(0, 0, 0, 0) == 0.0
    assert log_likelihood_ratio(5, 0, 0, 5) > 0


def test_llr_symmetric_under_label_swap():
    rng = random.Random(13)
    for _ in range(100):
        a, b, c, d = (rng.randrange(0, 40) for _ in range(4))
        base = log_likelihood_ratio(a, b, c, d)
        assert log_likelihood_ratio(c, d, a, b) == pytest.approx(base)
        assert log_likelihood_ratio(b, a, d, c) == pytest.approx(base)


def test_pattern_report_sack_relations(analyses, tags):
    entries = pattern_report(analyses, tags, "sack", window=5, top=20)
    rel = {e.value: e.frequency for e in entries if e.kind == "relation"}
    dobj = {v: f for v, f in rel.items() if v.startswith("dobj:")}
    # direct objects are predominantly person-class
    assert dobj["dobj:PERSON"] == max(dobj.values())
    assert rel["subj:GROUP"] == 2  # army, troops


def test_pattern_report_absent_target_is_error(analyses, tags):
    with pytest.raises(ValueError, match="zebra"):
        pattern_report(analyses, tags, "zebra")


def test_pattern_report_single_occurrence(analyses, tags):
    entries = pattern_report(analyses, tags, "judge", window=5, top=50)
    collocs = {e.value: e.frequency for e in entries if e.kind == "collocate"}
    # a single occurrence reports exactly its own window's features
    assert set(collocs) == {"the", "dismiss", "appeal"}
    assert collocs["dismiss"] == 1 and collocs["appeal"] == 1


def test_collocate_llr_matches_recomputation(analyses, tags, corpus):
    entries = pattern_report(analyses, tags, "sack", window=5, top=100)
    colloc = {e.value: e for e in entries if e.kind == "collocate"}
    # independent recount of the contingency for one collocate
    from collections import Counter
    corpus_freq = Counter()
    corpus_total = 0
    joint = Counter()
    window_total = 0
    for d in corpus:
        flat = list(d.tokens())
        for t in flat:
            if t.pos != "PUNCT":
                corpus_freq[t.lemma] += 1
                corpus_total += 1
        for i, t in enumerate(flat):
            if t.lemma == "sack":
                for j in range(max(0, i - 5), min(len(flat), i + 6)):
                    if j != i and flat[j].pos != "PUNCT":
                        joint[flat[j].lemma] += 1
                        window_total += 1
    for w, e in colloc.items():
        a = joint[w]
        b = corpus_freq[w] - a
        c = window_total - a
        d = corpus_total - corpus_freq[w] - c
        assert e.frequency == a
        assert e.score == pytest.approx(log_likelihood_ratio(a, b, c, d))


def test_report_ordering_total_and_deterministic(analyses, tags):
    e1 = pattern_report(analyses, tags, "dismiss", window=5, top=30)
    e2 = pattern_report(analyses, tags, "dismiss", window=5, top=30)
    assert e1 == e2
    for kind in ("collocate", "pos_trigram", "relation"):
        block = [e for e in e1 if e.kind == kind]
        keys = [(-e.score, e.value) for e in block]
        assert keys == sorted(keys)
    assert format_report(e1) == format_report(e2)
    assert format_report(e1, tsv=True) == format_report(e2, tsv=True)
