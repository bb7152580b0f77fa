import math
import random
import string
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from templex import (BgLexicon, BgSense, Document, TuneParams, apply_ospd,
                     classify_bayes, disambiguate_background, load_tuned_lexicon,
                     save_tuned_lexicon, train_bayes, tune)
from templex.errors import ParseError
from templex.textpipe import LEXICON_POS, TAGSET, read_corpus
from templex.wsd import (BayesModel, _TagsOnDemand, count_training, dump_tagged_corpus,
                        load_tagged_corpus, merge_counts)
from helpers import make_doc, ospd_noisy_tags, training_sets


def naive_train(docs, bg, window, alpha):
    """Hand-count oracle: recomputes priors and weights with plain loops."""
    classes = bg.coarse_classes()
    anchor = Counter()
    ctx = Counter()
    ctx_total = Counter()
    unigram = Counter()
    total = 0
    vocab = set()
    for doc in docs:
        flat = [t for s in doc.sentences for t in s]
        for t in flat:
            if t.pos != "PUNCT":
                unigram[t.lemma] += 1
                total += 1
        for i, t in enumerate(flat):
            pos = LEXICON_POS.get(t.pos)
            if pos is None:
                continue
            entries = bg.entries(t.lemma, pos)
            if len(entries) != 1:
                continue
            cls = entries[0].coarse_class
            anchor[cls] += 1
            for j in range(max(0, i - window), min(len(flat), i + window + 1)):
                if j == i or flat[j].pos == "PUNCT":
                    continue
                ctx[(flat[j].lemma, cls)] += 1
                ctx_total[cls] += 1
                vocab.add(flat[j].lemma)
    n = sum(anchor.values())
    priors = {c: (anchor.get(c, 0) + alpha) / (n + alpha * len(classes))
              for c in classes}
    weights = {}
    for w in vocab:
        for c in classes:
            expected = ctx_total.get(c, 0) * (unigram[w] / total)
            weights[(w, c)] = math.log((ctx.get((w, c), 0) + alpha) / (expected + alpha))
    return priors, weights


def test_loan_deposit_weights(banking_corpus, banking_bg):
    m = train_bayes(banking_corpus, banking_bg, window=10, alpha=0.1)
    assert m.weights[("loan", "ORGANISATION")] > 0 > m.weights[("loan", "LOCATION")]
    assert m.weights[("deposit", "ORGANISATION")] > 0 > m.weights[("deposit", "LOCATION")]


def test_weights_match_hand_count_oracle(banking_corpus, banking_bg):
    m = train_bayes(banking_corpus, banking_bg, window=10, alpha=0.1)
    priors, weights = naive_train(banking_corpus, banking_bg, 10, 0.1)
    assert set(m.weights) == set(weights)
    for key in weights:
        assert m.weights[key] == pytest.approx(weights[key], rel=1e-12)
    for c in priors:
        assert m.class_priors[c] == pytest.approx(priors[c], rel=1e-12)


def test_weights_match_oracle_on_succession(corpus, bg):
    m = train_bayes(corpus, bg, window=10, alpha=0.1)
    priors, weights = naive_train(corpus, bg, 10, 0.1)
    assert set(m.weights) == set(weights)
    for key in weights:
        assert m.weights[key] == pytest.approx(weights[key], rel=1e-12)


def test_large_alpha_sends_weights_to_zero(banking_corpus, banking_bg):
    m = train_bayes(banking_corpus, banking_bg, window=10, alpha=1e9)
    assert all(abs(w) < 1e-6 for w in m.weights.values())
    small = train_bayes(banking_corpus, banking_bg, window=10, alpha=0.1)
    # priors barely move: same anchor frequencies under both smoothings
    top_small = max(small.class_priors, key=lambda c: small.class_priors[c])
    top_big = max(m.class_priors, key=lambda c: m.class_priors[c])
    assert top_small == top_big


def test_single_class_lexicon_prior_one():
    from templex import collapse, load_bg_lexicon, load_collapse_map, load_ontology
    onto = load_ontology("class ORGANISATION\n")
    bg = collapse(load_bg_lexicon("firm noun s1 ORGANISATION\n"),
                  load_collapse_map("scheme noun ORGANISATION\n"), onto)
    docs = [make_doc("d", [[("firm", "NN"), ("x", "NN")]])]
    m = train_bayes(docs, bg)
    assert m.class_priors["ORGANISATION"] == pytest.approx(1.0)


def test_no_anchors_is_an_error(banking_bg):
    docs = [make_doc("d", [[("zzz", "NN")]])]
    with pytest.raises(ValueError, match="anchor"):
        train_bayes(docs, banking_bg)


def test_classify_bank_with_loan_interest(banking_corpus, banking_bg):
    m = train_bayes(banking_corpus, banking_bg, window=10, alpha=0.1)
    ranking = classify_bayes(m, ["loan", "interest"], {"ORGANISATION", "LOCATION"})
    assert ranking[0][0] == "ORGANISATION"
    assert len(ranking) == 2 and ranking[0][1] >= ranking[1][1]


def test_classify_empty_context_falls_back_to_priors(banking_corpus, banking_bg):
    m = train_bayes(banking_corpus, banking_bg)
    ranking = classify_bayes(m, [], set(m.class_priors))
    by_prior = sorted(m.class_priors.items(), key=lambda cp: (-cp[1], cp[0]))
    assert ranking[0][0] == by_prior[0][0]


def test_classify_uniform_priors_ties_break_lexicographically():
    m = BayesModel({"B": 0.5, "A": 0.5}, 10, 0.1, set())
    ranking = classify_bayes(m, [], {"A", "B"})
    assert [c for c, _ in ranking] == ["A", "B"]


def test_ranking_invariant_under_uniform_score_shift(banking_corpus, banking_bg):
    m = train_bayes(banking_corpus, banking_bg)
    ctx = ["loan", "interest", "river"]
    base = classify_bayes(m, ctx, {"ORGANISATION", "LOCATION"})
    shifted = [(c, s + 7.25) for c, s in base]
    assert [c for c, _ in sorted(shifted, key=lambda cs: (-cs[1], cs[0]))] \
        == [c for c, _ in base]


def test_disambiguate_tags_unambiguous_school(corpus, bg):
    m = train_bayes(corpus, bg)
    tags = disambiguate_background(m, corpus, bg)
    t = tags[("d01", 0, 1)]  # "school"
    assert t.coarse_class == "ORGANISATION" and t.method == "unambiguous"


def test_duplicate_document_ids_rejected(corpus, bg):
    # tags are keyed by document id: a twin would overwrite the first
    # document's tags, and `tune` would count it at the first one's positions
    d = corpus[0]
    twin = Document(d.doc_id, d.sentences)
    m = train_bayes(corpus, bg)
    assert len(disambiguate_background(m, [d], bg)) == 10
    with pytest.raises(ValueError, match="duplicate document id d01"):
        disambiguate_background(m, [d, twin], bg)
    with pytest.raises(ValueError, match="duplicate document id d01"):
        train_bayes([*corpus, twin], bg)
    with pytest.raises(ValueError, match="duplicate document id d01"):
        tune(bg, [*corpus, twin], TuneParams())


def test_disambiguate_skips_unknown_words(corpus, bg):
    m = train_bayes(corpus, bg)
    tags = disambiguate_background(m, corpus, bg)
    assert ("d04", 0, 0) not in tags  # "Mary" is not in the lexicon
    assert ("d01", 0, 0) not in tags  # "the" is closed-class


def test_disambiguate_matches_score_recompute(banking_corpus, banking_bg):
    m = train_bayes(banking_corpus, banking_bg)
    tags = disambiguate_background(m, banking_corpus, banking_bg)
    for doc in banking_corpus:
        flat = [t for s in doc.sentences for t in s]
        for i, tok in enumerate(flat):
            pos = LEXICON_POS.get(tok.pos)
            if pos is None:
                continue
            entries = banking_bg.entries(tok.lemma, pos)
            if len(entries) < 2:
                continue
            context = [flat[j].lemma
                       for j in range(max(0, i - m.window), min(len(flat), i + m.window + 1))
                       if j != i and flat[j].pos != "PUNCT"]
            ranking = classify_bayes(m, context, {s.coarse_class for s in entries})
            tag = tags[(doc.doc_id, tok.sent_idx, tok.tok_idx)]
            assert tag.coarse_class == ranking[0][0]
            assert tag.score == pytest.approx(ranking[0][1])
            assert tag.method == "bayes"


def test_ospd_majority_reassigns():
    tags, _ = ospd_noisy_tags(random.Random(0), n_docs=1, per_doc=3, noise=0.0)
    # force one dissenting tag
    key = ("n0000", 0, 0)
    other = "LOCATION" if tags[key].coarse_class == "ORGANISATION" else "ORGANISATION"
    sid = "s2" if other == "LOCATION" else "s1"
    tags[key] = tags[key]._replace(coarse_class=other, sense_id=sid)
    out = apply_ospd(tags)
    assert len({t.coarse_class for t in out.values()}) == 1
    assert out[key].method == "ospd"


def test_ospd_tie_unchanged():
    from templex.wsd import SenseTag
    tags = {
        ("d", 0, 0): SenseTag("d", 0, 0, "bank", "noun", "s1", "ORGANISATION", 0.0, "bayes"),
        ("d", 0, 1): SenseTag("d", 0, 1, "bank", "noun", "s2", "LOCATION", 0.0, "bayes"),
    }
    assert apply_ospd(tags) == tags


def test_ospd_noisy_corpus_accuracy_and_idempotence():
    rng = random.Random(42)
    tags, truth = ospd_noisy_tags(rng, n_docs=200, per_doc=25, noise=0.3)
    out = apply_ospd(tags)
    correct = sum(1 for k, t in out.items() if t.coarse_class == truth[t.doc_id])
    assert correct / len(out) >= 0.95
    assert apply_ospd(out) == out


def test_tagged_corpus_roundtrip(corpus, bg):
    m = train_bayes(corpus, bg)
    tags = apply_ospd(disambiguate_background(m, corpus, bg), bg)
    text = dump_tagged_corpus(corpus, tags, {"window": 10})
    docs2, tags2 = load_tagged_corpus(text)
    assert [d.doc_id for d in docs2] == [d.doc_id for d in corpus]
    assert set(tags2) == set(tags)
    for key in tags:
        assert tags2[key].coarse_class == tags[key].coarse_class
        assert tags2[key].sense_id == tags[key].sense_id
        assert tags2[key].method == tags[key].method
    assert dump_tagged_corpus(docs2, tags2, {"window": 10}) == text


def test_tagged_corpus_duplicate_document_id_rejected():
    text = "#DOC a\nx\tx\tNN\t-\n\n#DOC b\ny\ty\tNN\t-\n\n#DOC a\nz\tz\tNN\t-\n"
    with pytest.raises(ParseError, match=r"^t\.vrt:7: duplicate document id a$"):
        load_tagged_corpus(text, "t.vrt")


def test_tagged_corpus_doc_prefixed_comments():
    text = "#DOCUMENTATION notes\nx\tx\tNN\t-\n#DOC-NOTES y\n\n#DOC b\ny\ty\tNN\ts1/C/bayes\n"
    docs, tags = load_tagged_corpus(text, "t.vrt")
    assert [d.doc_id for d in docs] == ["d1", "b"]
    assert list(tags) == [("b", 0, 0)]


def test_tagged_corpus_empty_surface_or_lemma_rejected():
    with pytest.raises(ParseError, match=r"^t\.vrt:3: empty lemma field$"):
        load_tagged_corpus("#DOC a\nx\tx\tNN\t-\ny\t\tNN\ts1/C/bayes\n", "t.vrt")
    with pytest.raises(ParseError, match=r"^t\.vrt:2: empty surface field$"):
        load_tagged_corpus("#DOC a\n\tx\tNN\t-\n", "t.vrt")


def test_tagged_corpus_unknown_pos_rejected():
    # the tagged corpus is the vertical format plus a column: same tagset
    text = "#DOC a\nx\tx\tNN\t-\ny\ty\tXX\t-\n"
    with pytest.raises(ParseError, match=r"^t\.vrt:3: unknown POS tag 'XX'$"):
        load_tagged_corpus(text, "t.vrt")


# ------------------------------------------- properties of the vertical reader

_WORDS = st.text(string.ascii_letters + string.digits + ".,!?'-", min_size=1, max_size=6)
_TOKEN = st.tuples(_WORDS, _WORDS, st.sampled_from(sorted(TAGSET))).map("\t".join)


@st.composite
def vertical_corpora(draw):
    """Vertical text: an optional implicit first document, then `#DOC`
    blocks of sentences split by one or more blank lines, with comments."""
    lines = []
    n_docs = draw(st.integers(0, 4))
    implicit = draw(st.booleans())
    for d in range(n_docs):
        if d or not implicit:
            lines.append(f"#DOC doc{d}")
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                lines.append("# a comment")
            lines.extend(draw(st.lists(_TOKEN, min_size=1, max_size=5)))
            lines.extend([""] * draw(st.integers(1, 2)))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=vertical_corpora())
def test_tagged_dump_of_a_corpus_reloads_as_the_corpus(text):
    docs = read_corpus(text)
    docs2, tags = load_tagged_corpus(dump_tagged_corpus(docs, {}))
    # Token equality covers sentence and token indices
    assert docs2 == docs
    assert tags == {}


_POS = st.sampled_from(["NN", "VBD", "XX", ""])
_TAG = st.sampled_from(["-", "s1/C/bayes", "a/b", "a/b/c/d", ""])
_MUTANT = st.one_of(
    st.text(" \tab/#-.DOCNXV", max_size=16),
    st.lists(st.sampled_from(["a", "", "NN", "XX", "-", "s1/C/bayes",
                              "#DOC", "#DOC doc0", "#DOC a b"]),
             min_size=1, max_size=5).map("\t".join),
    st.tuples(_WORDS, _WORDS, _POS).map("\t".join),
    st.tuples(_WORDS, _WORDS, _POS, _TAG).map("\t".join))


@settings(max_examples=300, deadline=None)
@given(text=vertical_corpora(), tagged=st.booleans(), data=st.data())
def test_one_line_mutation_loads_or_names_path_and_line(text, tagged, data):
    if tagged:
        text = dump_tagged_corpus(read_corpus(text), {})
    lines = text.splitlines()
    at = data.draw(st.integers(0, len(lines)))
    lines[at:at + 1] = [data.draw(_MUTANT)]
    mutated = "\n".join(lines) + "\n"
    reader = load_tagged_corpus if tagged else read_corpus
    try:
        reader(mutated, path="m.vrt")
    except ParseError as exc:
        assert exc.path == "m.vrt"
        assert 1 <= exc.line <= len(mutated.splitlines())


# every str.split() whitespace that survives splitlines() and the tab split
_FIELD = st.one_of(st.text("ab,", min_size=1, max_size=3),
                   st.text("ab, #.\x1f\xa0\u2003\u3000", max_size=4))


@st.composite
def readable_training_texts(draw):
    """Vertical text around an anchor lemma, with drawn surface and lemma
    fields that may be empty, hold `,` or hold any kind of whitespace."""
    lines = ["firm\tfirm\tNN", "bank\tbank\tNN"]
    for _ in range(draw(st.integers(1, 6))):
        lines.insert(draw(st.integers(0, len(lines))),
                     f"{draw(_FIELD)}\t{draw(_FIELD)}\t{draw(st.sampled_from(['NN', 'VBD']))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=readable_training_texts())
def test_every_readable_corpus_tunes_a_lexicon_that_reloads(text):
    bg = BgLexicon(collapsed=True)
    bg.senses_by_key[("firm", "noun")] = [BgSense("firm", "noun", "s1", "ORG", "ORG")]
    bg.senses_by_key[("bank", "noun")] = [BgSense("bank", "noun", "s1", "LOC", "LOC"),
                                          BgSense("bank", "noun", "s2", "ORG", "ORG")]
    try:
        docs = read_corpus(text, path="c.vrt")
    except ParseError as exc:
        assert exc.line is not None
        return
    dump = save_tuned_lexicon(tune(bg, docs, TuneParams(min_occurrences=1, window=3)))
    assert save_tuned_lexicon(load_tuned_lexicon(dump)) == dump


# ------------------------------------------ properties of the sparse model

def naive_observed_pairs(docs, bg, window):
    """(context lemma, anchor class) pairs seen at least once, by plain loops."""
    pairs = set()
    for doc in docs:
        flat = [t for s in doc.sentences for t in s]
        for i, t in enumerate(flat):
            pos = LEXICON_POS.get(t.pos)
            entries = bg.entries(t.lemma, pos) if pos else []
            if len(entries) != 1:
                continue
            for j in range(max(0, i - window), min(len(flat), i + window + 1)):
                if j != i and flat[j].pos != "PUNCT":
                    pairs.add((flat[j].lemma, entries[0].coarse_class))
    return pairs


def dense_classify(priors, weights, vocab, context, candidates):
    """Log prior plus the context's weights, read from a dense pair table."""
    scored = []
    for c in sorted(candidates):
        prior = priors.get(c, 0.0)
        score = math.log(prior) if prior > 0.0 else math.log(1e-12)
        for w in context:
            if w in vocab:
                score += weights.get((w, c), 0.0)
        scored.append((c, score))
    scored.sort(key=lambda cs: (-cs[1], cs[0]))
    return scored


_WINDOW = st.integers(0, 4)
_ALPHA = st.sampled_from([0.1, 0.5, 2.0])


@settings(max_examples=150, deadline=None)
@given(data=training_sets(), window=_WINDOW, alpha=_ALPHA)
def test_sparse_training_equals_dense_oracle(data, window, alpha):
    docs, bg = data
    if not any(len(bg.entries(t.lemma, LEXICON_POS.get(t.pos) or "")) == 1
               for d in docs for t in d.tokens()):
        with pytest.raises(ValueError, match="anchor"):
            train_bayes(docs, bg, window, alpha)
        return
    m = train_bayes(docs, bg, window, alpha)
    priors, weights = naive_train(docs, bg, window, alpha)
    # training stores counts of the observed pairs and no weight
    assert sum(len(table) for table in m.by_class.values()) == 0
    assert sum(len(table.counts) for table in m.by_class.values()) \
        == len(naive_observed_pairs(docs, bg, window))
    assert m.class_priors == pytest.approx(priors, rel=1e-12)
    assert set(m.weights) == set(weights) and len(m.weights) == len(weights)
    for key in weights:
        assert m.weights[key] == pytest.approx(weights[key], rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(data=training_sets(), window=_WINDOW, alpha=_ALPHA, draw=st.data())
def test_sparse_ranking_equals_dense_table_ranking(data, window, alpha, draw):
    docs, bg = data
    try:
        m = train_bayes(docs, bg, window, alpha)
    except ValueError:
        return
    priors, weights = naive_train(docs, bg, window, alpha)
    vocab = {w for w, _ in weights}
    words = sorted({t.lemma for d in docs for t in d.tokens()} | {"unseen"})
    classes = bg.coarse_classes() + ["UNTRAINED"]
    for _ in range(5):
        context = draw.draw(st.lists(st.sampled_from(words), max_size=8))
        candidates = draw.draw(st.sets(st.sampled_from(classes), min_size=1))
        dense = dense_classify(priors, weights, vocab, context, candidates)
        ranking = classify_bayes(m, context, candidates)
        assert [c for c, _ in ranking] == [c for c, _ in dense]
        assert [s for _, s in ranking] == pytest.approx([s for _, s in dense], rel=1e-12)


# ------------------------------------------- training counts merged by shard

@st.composite
def contiguous_runs(draw, docs):
    """`docs` cut into one to four contiguous, non-empty runs, in order."""
    k = draw(st.integers(1, min(4, len(docs))))
    cuts = sorted(draw(st.permutations(range(1, len(docs))))[:k - 1])
    bounds = [0, *cuts, len(docs)]
    return [docs[a:b] for a, b in zip(bounds, bounds[1:])]


def has_anchor(docs, bg):
    return any(len(bg.entries(t.lemma, LEXICON_POS.get(t.pos) or "")) == 1
               for d in docs for t in d.tokens())


def check_merged_training(docs, bg, runs, window, alpha):
    """Each run counts its own documents, as a shard does; the merged counts
    are the whole corpus's, and the model built from them is the oracle's."""
    parts = [count_training(run, bg, window) for run in runs]
    assert merge_counts(parts) == count_training(docs, bg, window)

    def share(counts):
        assert counts == parts[0]
        return merge_counts([counts, *parts[1:]])

    if not has_anchor(docs, bg):
        with pytest.raises(ValueError, match="no training anchors"):
            train_bayes(runs[0], bg, window, alpha, share=share)
        return
    m = train_bayes(runs[0], bg, window, alpha, share=share)
    priors, weights = naive_train(docs, bg, window, alpha)
    assert m.class_priors == pytest.approx(priors, rel=1e-12)
    assert set(m.weights) == set(weights)
    for key in weights:
        assert m.weights[key] == pytest.approx(weights[key], rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(data=training_sets(), window=_WINDOW, alpha=_ALPHA, draw=st.data())
def test_merged_counts_of_a_generated_corpus_train_its_model(data, window, alpha, draw):
    docs, bg = data
    check_merged_training(docs, bg, draw.draw(contiguous_runs(docs)), window, alpha)


@settings(max_examples=30, deadline=None)
@given(banking=st.booleans(), window=_WINDOW, alpha=_ALPHA, draw=st.data())
def test_merged_counts_of_a_fixture_corpus_train_its_model(corpus, bg, banking_corpus,
                                                           banking_bg, banking, window,
                                                           alpha, draw):
    docs, lexicon = (banking_corpus, banking_bg) if banking else (corpus, bg)
    check_merged_training(docs, lexicon, draw.draw(contiguous_runs(docs)), window, alpha)


def test_no_anchors_is_judged_on_the_merged_counts(banking_corpus, banking_bg):
    # `bank` has a sense in two classes and `zzz` none: neither anchors
    anchorless = [make_doc("x1", [[("bank", "NN"), ("zzz", "NN")]]),
                  make_doc("x2", [[("zzz", "NN")]])]
    assert not any(count_training([d], banking_bg)[0] for d in anchorless)
    check_merged_training(anchorless, banking_bg, [anchorless[:1], anchorless[1:]], 10, 0.1)
    # only one shard has anchors, and it need not be the first
    docs = [*anchorless, *banking_corpus[:1]]
    assert has_anchor(docs[2:], banking_bg)
    check_merged_training(docs, banking_bg, [docs[:1], docs[1:2], docs[2:]], 10, 0.1)


# ------------------------------------------------ tags made as they are read

@settings(max_examples=200, deadline=None)
@given(data=training_sets(verbs=True), window=_WINDOW, alpha=_ALPHA, draw=st.data())
def test_tags_on_demand_equal_the_eager_tags(data, window, alpha, draw):
    """`extract`'s tag map, read key by key in any order, gives the tags that
    tagging every token and then smoothing every group would; without a
    model, the coarse-unambiguous ones."""
    docs, bg = data
    assume(has_anchor(docs, bg))
    model = train_bayes(docs, bg, window, alpha)
    eager = disambiguate_background(model, docs, bg)
    keys = draw.draw(st.permutations([(d.doc_id, t.sent_idx, t.tok_idx)
                                      for d in docs for t in d.tokens()]))
    keys += [(docs[0].doc_id, 9, 0), ("no such doc", 0, 0)]  # keys no token holds
    anchors = {k: t for k, t in eager.items() if t.method == "unambiguous"}
    for want, lazy in ((apply_ospd(eager, bg), _TagsOnDemand(docs, bg, model, True)),
                       (eager, _TagsOnDemand(docs, bg, model, False)),
                       (anchors, _TagsOnDemand(docs, bg))):
        assert [lazy.get(k) for k in keys] == [want.get(k) for k in keys]


def test_tags_on_demand_vote_over_every_part_of_speech():
    """A lemma's noun and verb tags in one document are one OSPD group
    (the group key is the document and the lemma as written), on demand too."""
    bg = BgLexicon(collapsed=True)
    bg.senses_by_key[("x", "noun")] = [BgSense("x", "noun", "s1", "ACT", "ACT")]
    bg.senses_by_key[("x", "verb")] = [BgSense("x", "verb", "v1", "ACT", "ACT"),
                                       BgSense("x", "verb", "v2", "LOC", "LOC")]
    bg.senses_by_key[("b", "noun")] = [BgSense("b", "noun", "s1", "LOC", "LOC")]
    docs = [make_doc("d0", [[("x", "NN"), ("x", "NN"), ("x", "VBD")],
                            [("b", "NN"), ("b", "NN"), ("b", "NN")]])]
    # no context: the verb takes the class with more anchors, LOC, and the
    # two ACT nouns out-vote it
    model = train_bayes(docs, bg, window=0)
    eager = disambiguate_background(model, docs, bg)
    assert eager[("d0", 0, 2)].coarse_class == "LOC"
    smoothed = apply_ospd(eager, bg)
    assert smoothed[("d0", 0, 2)][5:] == ("v1", "ACT", 0.0, "ospd")
    lazy = _TagsOnDemand(docs, bg, model, True)
    assert lazy.get(("d0", 0, 2)) == smoothed[("d0", 0, 2)]
