import math
import random
from collections import Counter

import pytest

from templex import (apply_ospd, classify_bayes, disambiguate_background,
                     load_bayes_model, save_bayes_model, train_bayes)
from templex.errors import ParseError
from templex.textpipe import lexicon_pos
from templex.wsd import dump_tagged_corpus, load_tagged_corpus
from helpers import make_doc, ospd_noisy_tags


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
            pos = lexicon_pos(t.pos)
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
    from templex.wsd import BayesModel
    m = BayesModel({"B": 0.5, "A": 0.5}, {}, 10, 0.1, set())
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


def test_disambiguate_skips_unknown_words(corpus, bg):
    m = train_bayes(corpus, bg)
    tags = disambiguate_background(m, corpus, bg)
    assert ("d04", 0, 0) not in tags  # "Mary" is not in the lexicon
    assert ("d01", 0, 0) not in tags  # "the" is closed-class


def test_disambiguate_matches_score_recompute(banking_corpus, banking_bg):
    m = train_bayes(banking_corpus, banking_bg)
    tags = disambiguate_background(m, banking_corpus, banking_bg)
    from templex.wsd import _doc_positions, _window_lemmas
    for doc in banking_corpus:
        flat = _doc_positions(doc)
        for i, tok in enumerate(flat):
            pos = lexicon_pos(tok.pos)
            if pos is None:
                continue
            entries = banking_bg.entries(tok.lemma, pos)
            if len(entries) < 2:
                continue
            ranking = classify_bayes(m, _window_lemmas(flat, i, m.window),
                                     {s.coarse_class for s in entries})
            tag = tags[(doc.doc_id, tok.sent_idx, tok.tok_idx)]
            assert tag.coarse_class == ranking[0][0]
            assert tag.score == pytest.approx(ranking[0][1])
            assert tag.method == "bayes"


def test_ospd_majority_reassigns():
    tags, _ = ospd_noisy_tags(random.Random(0), n_docs=1, per_doc=3, noise=0.0)
    # force one dissenting tag
    from dataclasses import replace
    key = ("n0000", 0, 0)
    other = "LOCATION" if tags[key].coarse_class == "ORGANISATION" else "ORGANISATION"
    sid = "s2" if other == "LOCATION" else "s1"
    tags[key] = replace(tags[key], coarse_class=other, sense_id=sid)
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


def test_model_file_roundtrip(banking_corpus, banking_bg):
    m = train_bayes(banking_corpus, banking_bg)
    text = save_bayes_model(m)
    assert text.startswith("bayesmodel v1\n")
    again = load_bayes_model(text)
    assert save_bayes_model(again) == text
    assert again.window == m.window
    assert set(again.weights) == set(m.weights)


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


def test_model_file_bad_number_names_path_and_line():
    text = "bayesmodel v1\nalpha 0.100000\nwindow 3@\n"
    with pytest.raises(ParseError, match=r"^m\.bm:3: bad number '3@'$"):
        load_bayes_model(text, "m.bm")
    for line in ("alpha x", "prior ORG x", "weight loan ORG -"):
        with pytest.raises(ParseError, match=r"^m\.bm:2: bad number"):
            load_bayes_model(f"bayesmodel v1\n{line}\n", "m.bm")


def test_tagged_corpus_duplicate_document_id_rejected():
    text = "#DOC a\nx\tx\tNN\t-\n\n#DOC b\ny\ty\tNN\t-\n\n#DOC a\nz\tz\tNN\t-\n"
    with pytest.raises(ParseError, match=r"^t\.vrt:7: duplicate document id a$"):
        load_tagged_corpus(text, "t.vrt")
