import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from templex import (BgLexicon, Document, ParseError, TunedLexicon, TuneParams,
                     apply_tuning, load_tuned_lexicon, save_tuned_lexicon, tune, wsd)
from templex.textpipe import LEXICON_POS
from helpers import ejection_oracle, fixture_text, training_sets


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
    from templex.textpipe import LEXICON_POS
    model = train_bayes(corpus, bg, tuned.params.window, tuned.params.alpha)
    tags = apply_ospd(disambiguate_background(model, corpus, bg), bg)
    occ = Counter()
    assigned = Counter()
    for d in corpus:
        for t in d.tokens():
            pos = LEXICON_POS.get(t.pos)
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
    assert [(s.sense_id, s.coarse_class) for s in view.entries("bank", "noun")] \
        == [("s1", "ORGANISATION")]
    # base untouched
    assert len(tuned.base.entries("bank", "noun")) == 2


def test_view_without_ejections_equals_base(bg, corpus):
    t = tune(bg, corpus, TuneParams(min_occurrences=999))
    assert t.ejected == {}
    view = apply_tuning(t)
    for key in bg.senses_by_key:
        assert view.entries(*key) == bg.entries(*key)


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
    assert [(s.sense_id, s.coarse_class) for s in view.entries("bank", "noun")] \
        == [("s1", "ORGANISATION")]


def test_a_corpus_name_with_a_hash_roundtrips(bg):
    # a tuned lexicon has no comments: `#` on the corpus line is part of the name
    text = save_tuned_lexicon(TunedLexicon(bg, corpus_id="a#b.vrt"))
    assert text.splitlines()[1] == "corpus a#b.vrt"
    again = load_tuned_lexicon(text)
    assert again.corpus_id == "a#b.vrt"
    assert save_tuned_lexicon(again) == text


def test_golden_tuned_lexicon_resaves_byte_identically():
    text = fixture_text("succession_min2.tunedlex")
    assert save_tuned_lexicon(load_tuned_lexicon(text, "g.tl")) == text


@pytest.mark.parametrize("lines, message", [
    (["sense bank noun b1 ORGANISATION", "sense bank noun b1 ORGANISATION"],
     "x.tl:3: duplicate sense bank/noun/b1"),
    (["sense bank xyz b1 ORGANISATION"], "x.tl:2: bad pos 'xyz'"),
])
def test_tuned_sense_lines_checked_like_background_lines(lines, message):
    with pytest.raises(ParseError) as info:
        load_tuned_lexicon("\n".join(["tunedlex v1", *lines]) + "\n", "x.tl")
    assert str(info.value) == message


@pytest.mark.parametrize("line, message", [
    ("eject bank xyz s1", "x.tl:3: bad pos 'xyz'"),
    ("eject bank noun s9", "x.tl:3: undeclared sense bank/noun/s9"),
    ("eject bank verb s1", "x.tl:3: undeclared sense bank/verb/s1"),
    ("disc bank noun s7 loan:0.5", "x.tl:3: disc lines are no longer read; re-run tune"),
    ("disc bank nouns s1 loan:0.5", "x.tl:3: disc lines are no longer read; re-run tune"),
])
def test_tuned_eject_and_disc_lines_name_declared_senses(line, message):
    """An eject line names a declared sense; a disc line, which older `tune`
    runs wrote, fails where it stands, whatever it names."""
    for lines in (["sense bank noun s1 ORGANISATION", line, "sense firm noun s1 GROUP"],
                  [line, "sense bank noun s1 ORGANISATION"]):
        with pytest.raises(ParseError) as info:
            load_tuned_lexicon("\n".join(["tunedlex v1", *lines]) + "\n", "x.tl")
        assert str(info.value) == message.replace(":3:", f":{lines.index(line) + 2}:")
    # a sense declared after the line that names it counts
    tuned = load_tuned_lexicon("tunedlex v1\neject Bank noun s2\n"
                               "sense bank noun s2 LOCATION\n"
                               "sense bank noun s1 ORGANISATION\n")
    assert tuned.ejected == {("bank", "noun"): {"s2"}}


@pytest.mark.parametrize("lines, message", [
    (["corpus a.vrt", "corpus b.vrt"], "x.tl:3: second corpus line"),
    (["params window=3", "params window=7"], "x.tl:3: param 'window' given twice"),
    (["params window=3 alpha=4 window=3"], "x.tl:2: param 'window' given twice"),
    # the setting older `tune` runs wrote
    (["params min_occurrences=5 window=10 alpha=0.1 top_k=10"],
     "x.tl:2: param 'top_k' is no longer read; re-run tune"),
    (["params alpha=nan"], "x.tl:2: alpha must be finite"),
    (["params alpha=inf"], "x.tl:2: alpha must be finite"),
    (["params alpha=-1"], "x.tl:2: alpha must be positive"),
    (["corpus -", "params window=0"], "x.tl:3: window must be positive"),
    (["params ospd=on"], "x.tl:2: bad boolean 'on'"),
    (["params ospd=false", "params ospd=true"], "x.tl:3: param 'ospd' given twice"),
])
def test_tuned_lexicon_reads_each_setting_once(lines, message):
    with pytest.raises(ParseError) as info:
        load_tuned_lexicon("\n".join(["tunedlex v1", *lines]) + "\n", "x.tl")
    assert str(info.value) == message


def test_tuned_lexicon_params_may_span_lines():
    tuned = load_tuned_lexicon("tunedlex v1\ncorpus a.vrt\nparams window=3\n"
                               "params min_occurrences=4 alpha=0.5\n")
    assert (tuned.corpus_id, tuned.params) == ("a.vrt", TuneParams(4, 3, 0.5))
    # a file without `ospd` was written with it on
    assert tuned.params.ospd is True


@pytest.mark.parametrize("alpha, message", [
    (0.0, "alpha must be positive"), (-math.inf, "alpha must be positive"),
    (math.inf, "alpha must be finite"), (math.nan, "alpha must be finite")])
def test_tune_params_reject_non_positive_or_non_finite_alpha(alpha, message):
    with pytest.raises(ValueError, match=message):
        TuneParams(alpha=alpha).validate()


@settings(max_examples=300, deadline=None)
@given(params=st.builds(TuneParams, st.integers(-1, 10**9), st.integers(-1, 10**9),
                        st.floats(), st.booleans()))
def test_every_valid_params_line_reloads_as_written(params):
    try:
        params.validate()
    except ValueError:
        assume(False)
    text = save_tuned_lexicon(TunedLexicon(BgLexicon(collapsed=True), params=params))
    again = load_tuned_lexicon(text)
    assert again.params == params
    assert save_tuned_lexicon(again) == text


def test_tuned_sense_lines_use_background_case():
    tuned = load_tuned_lexicon("tunedlex v1\nsense Bank noun s1 organisation obj=person\n"
                               "eject Bank noun s1\n")
    [sense] = tuned.base.entries("bank", "noun")
    assert (sense.lemma, sense.fine_class, sense.coarse_class, sense.obj_restriction) \
        == ("bank", "ORGANISATION", "ORGANISATION", "PERSON")
    assert tuned.ejected == {("bank", "noun"): {"s1"}}


@settings(max_examples=100, deadline=None)
@given(data=training_sets(),
       params=st.builds(TuneParams, st.integers(1, 3), st.integers(1, 4),
                        st.sampled_from([0.1, 0.5, 2.0]), st.booleans()),
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


def test_tune_params_ospd_decides_whether_ospd_runs(bg, corpus):
    # OSPD re-votes bank's landform tags to the organisation sense, so the
    # landform sense is ejected only with it
    on = tune(bg, corpus, TuneParams(min_occurrences=2))
    off = tune(bg, corpus, TuneParams(min_occurrences=2, ospd=False))
    assert on.ejected[("bank", "noun")] == {"s2"}
    assert ("bank", "noun") not in off.ejected
    assert (on.params.ospd, off.params.ospd) == (True, False)


def test_capitalised_lemmas_tune_like_lowercase_ones(bg, corpus):
    # the lexicon's lemmas are lowercase; the corpus's need not be
    upper = [Document(d.doc_id, [[t._replace(lemma=t.lemma.upper()) for t in s]
                                 for s in d.sentences]) for d in corpus]
    params = TuneParams(min_occurrences=1)
    lower, capital = tune(bg, corpus, params), tune(bg, upper, params)
    assert sum(len(gone) for gone in lower.ejected.values()) == 8
    assert capital.ejected == lower.ejected


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


@settings(max_examples=150, deadline=None)
@given(data=training_sets(),
       params=st.builds(TuneParams, st.integers(1, 3), st.integers(1, 4),
                        st.sampled_from([0.1, 2.0]), st.booleans()))
def test_ejections_are_the_brute_force_recount(data, params):
    docs, bg = data
    try:
        tuned = tune(bg, docs, params)
    except ValueError as exc:
        assert "anchors" in str(exc)
        return
    model = wsd.train_bayes(docs, bg, params.window, params.alpha)
    tags = wsd.disambiguate_background(model, docs, bg)
    if params.ospd:
        tags = wsd.apply_ospd(tags, bg)
    assert tuned.ejected == ejection_oracle(docs, bg, tags, params.min_occurrences)
    # every occurrence's tag names a sense of its own key, so an attested
    # lemma keeps a sense with no rule to see to it
    occurrences = Counter((tok.lemma.lower(), LEXICON_POS[tok.pos])
                          for doc in docs for tok in doc.tokens()
                          if bg.entries(tok.lemma, LEXICON_POS.get(tok.pos, "")))
    for key, count in occurrences.items():
        if count >= params.min_occurrences:
            ids = {s.sense_id for s in bg.senses_by_key[key]}
            assert tuned.ejected.get(key, set()) < ids
