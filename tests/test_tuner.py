import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templex import (Document, TuneParams, apply_tuning, load_tuned_lexicon,
                     save_tuned_lexicon, tune, wsd)
from helpers import training_sets


@pytest.fixture(scope="module")
def tuned(bg, corpus):
    return tune(bg, corpus, TuneParams(), corpus_id="succession.vrt")


def test_location_sense_of_bank_ejected(tuned):
    assert tuned.ejected[("bank", "noun")] == {"s2"}


def test_rare_lemmas_not_ejected(tuned, corpus, bg):
    # remove occurs fewer than min_occurrences times, so nothing is ejected
    assert ("remove", "verb") not in tuned.ejected
    count = sum(1 for d in corpus for t in d.tokens() if t.lemma == "remove")
    assert 0 < count < tuned.params.min_occurrences


def test_no_attested_lemma_loses_all_senses(tuned, bg):
    for key, gone in tuned.ejected.items():
        assert gone < {s.sense_id for s in bg.senses_by_key[key]}


def test_tuned_inventory_subset_of_base(tuned, bg):
    view = apply_tuning(tuned)
    for key in bg.senses_by_key:
        base_ids = {s.sense_id for s in bg.entries(*key)}
        view_ids = {s.sense_id for s in view.entries(*key)}
        assert view_ids <= base_ids


def test_every_retained_sense_of_attested_lemma_assigned(tuned, bg, corpus):
    from collections import Counter
    from templex import apply_ospd, disambiguate_background, train_bayes
    from templex.textpipe import lexicon_pos
    model = train_bayes(corpus, bg, tuned.params.window, tuned.params.alpha)
    tags = apply_ospd(disambiguate_background(model, corpus, bg), bg)
    occ = Counter()
    assigned = Counter()
    for d in corpus:
        for t in d.tokens():
            pos = lexicon_pos(t.pos)
            if pos and bg.entries(t.lemma, pos):
                occ[(t.lemma, pos)] += 1
                tag = tags.get((d.doc_id, t.sent_idx, t.tok_idx))
                if tag:
                    assigned[(t.lemma, pos, tag.sense_id)] += 1
    for key, senses in bg.senses_by_key.items():
        if occ[key] < tuned.params.min_occurrences:
            continue
        gone = tuned.ejected.get(key, set())
        for s in senses:
            if s.sense_id not in gone:
                assert assigned[(key[0], key[1], s.sense_id)] >= 1


def test_monotone_threshold(bg, corpus):
    previous = None
    for min_occ in (1, 3, 5, 8, 12):
        t = tune(bg, corpus, TuneParams(min_occurrences=min_occ))
        flat = {(k, sid) for k, gone in t.ejected.items() for sid in gone}
        if previous is not None:
            assert flat <= previous
        previous = flat


def test_view_hides_ejected_senses(tuned):
    view = apply_tuning(tuned)
    senses, ambiguous = view.senses("bank", "noun")
    assert senses == [("s1", "ORGANISATION")]
    assert not ambiguous
    # base untouched
    base_senses, base_amb = tuned.base.senses("bank", "noun")
    assert len(base_senses) == 2 and base_amb


def test_view_without_ejections_equals_base(bg, corpus):
    t = tune(bg, corpus, TuneParams(min_occurrences=999))
    assert t.ejected == {}
    view = apply_tuning(t)
    for key in bg.senses_by_key:
        assert view.entries(*key) == bg.entries(*key)


def test_discriminators_queryable_and_ranked(tuned):
    discs = tuned.discriminators_for("bank", "noun", "s1")
    assert discs
    assert len(discs) <= tuned.params.top_k
    weights = [w for _, w in discs]
    assert weights == sorted(weights, reverse=True)


def test_discriminators_restricted_to_cooccurring_words(tuned, corpus):
    cooc = set()
    for d in corpus:
        flat = list(d.tokens())
        for i, t in enumerate(flat):
            if t.lemma == "bank":
                for j in range(max(0, i - 10), min(len(flat), i + 10 + 1)):
                    if j != i and flat[j].pos != "PUNCT":
                        cooc.add(flat[j].lemma)
    for w, _ in tuned.discriminators_for("bank", "noun", "s1"):
        assert w in cooc


def test_tune_empty_corpus_is_error(bg):
    with pytest.raises(ValueError, match="empty"):
        tune(bg, [], TuneParams())


def test_tune_deterministic_and_idempotent_on_fixpoint(bg, corpus, tuned):
    again = tune(bg, corpus, TuneParams(), corpus_id="succession.vrt")
    assert save_tuned_lexicon(again) == save_tuned_lexicon(tuned)
    # a tuning run with nothing to eject re-applied is identical
    t1 = tune(bg, corpus, TuneParams(min_occurrences=999))
    t2 = tune(bg, corpus, TuneParams(min_occurrences=999))
    assert save_tuned_lexicon(t1) == save_tuned_lexicon(t2)


def test_retuning_an_empty_ejection_view_is_identity(bg, corpus):
    t1 = tune(bg, corpus, TuneParams(min_occurrences=999), corpus_id="c")
    assert t1.ejected == {}
    t2 = tune(apply_tuning(t1), corpus, TuneParams(min_occurrences=999),
              corpus_id="c")
    assert save_tuned_lexicon(t2) == save_tuned_lexicon(t1)


def test_file_roundtrip_bit_exact(tuned):
    text = save_tuned_lexicon(tuned)
    assert save_tuned_lexicon(load_tuned_lexicon(text)) == text
    reloaded = load_tuned_lexicon(text)
    assert reloaded.ejected == tuned.ejected
    assert reloaded.corpus_id == tuned.corpus_id
    view = apply_tuning(reloaded)
    senses, _ = view.senses("bank", "noun")
    assert senses == [("s1", "ORGANISATION")]


@settings(max_examples=100, deadline=None)
@given(data=training_sets(),
       params=st.builds(TuneParams, st.integers(1, 3), st.integers(1, 4),
                        st.sampled_from([0.1, 0.5, 2.0]), st.integers(1, 4)),
       corpus_id=st.sampled_from(["", "c.vrt"]))
def test_generated_tuned_lexicon_roundtrips(data, params, corpus_id):
    docs, bg = data
    try:
        tuned = tune(bg, docs, params, corpus_id=corpus_id)
    except ValueError as exc:
        assert "anchors" in str(exc)
        return
    text = save_tuned_lexicon(tuned)
    again = load_tuned_lexicon(text)
    assert save_tuned_lexicon(again) == text
    assert again.base.senses_by_key == tuned.base.senses_by_key
    assert (again.ejected, again.corpus_id, again.params) \
        == (tuned.ejected, tuned.corpus_id, tuned.params)
    assert again.discriminators == {
        key: [(w, float(f"{x:.6f}")) for w, x in pairs]
        for key, pairs in tuned.discriminators.items()}


def test_capitalised_lemmas_tune_like_lowercase_ones(bg, corpus):
    # the lexicon's lemmas are lowercase; the corpus's need not be
    upper = [Document(d.doc_id, [[t._replace(lemma=t.lemma.upper()) for t in s]
                                 for s in d.sentences]) for d in corpus]
    params = TuneParams(min_occurrences=1)
    lower, capital = tune(bg, corpus, params), tune(bg, upper, params)
    assert sum(len(gone) for gone in lower.ejected.values()) == 8
    assert capital.ejected == lower.ejected
    assert len(lower.discriminators) == 51
    assert capital.discriminators.keys() == lower.discriminators.keys()


def test_tune_calls_the_classifier_through_wsd(bg, corpus, monkeypatch):
    # a function replaced on `wsd` is the one `tune` calls, whenever `tuner`
    # was imported: the layer tracer of the benchmark replaces them there
    calls = []
    for name in ("train_bayes", "disambiguate_background", "apply_ospd"):
        def counted(*args, _original=getattr(wsd, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(wsd, name, counted)
    tune(bg, corpus, TuneParams())
    assert calls == ["train_bayes", "disambiguate_background", "apply_ospd"]
