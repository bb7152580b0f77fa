import pytest
from hypothesis import event, given, settings

from templex import (UNFILLED, analyze_corpus, apply_foreground_priority,
                     apply_ospd, collapse, disambiguate_background,
                     load_bg_lexicon, load_collapse_map, load_fg_lexicon,
                     match_foreground, read_corpus, surviving_sense_count,
                     train_bayes)
from helpers import fixture_text, matcher_cases, matcher_oracle


@pytest.fixture(scope="module")
def tags(corpus, bg):
    model = train_bayes(corpus, bg)
    return apply_ospd(disambiguate_background(model, corpus, bg), bg)


@pytest.fixture(scope="module")
def matches(analyses, fg, tags, onto, bg):
    found, diags = match_foreground(analyses, fg, tags, onto, bg)
    assert diags == []
    return found


def by_loc(matches):
    return {(m.doc_id, m.sent_idx): m for m in matches}


def test_school_dismissed_teacher(matches):
    m = by_loc(matches)[("d01", 0)]
    assert m.concept == "DISMISS-EVENT"
    assert m.bindings == {"org": 1, "person": 4}
    assert not m.passive_implicature
    assert m.survivors == 1 and m.competitors == 0


def test_judge_dismissed_appeal_no_match(matches):
    assert ("d02", 0) not in by_loc(matches)


def test_manager_dismissed_idea_no_match(matches):
    assert ("d02", 1) not in by_loc(matches)


def test_army_sacked_city_no_match(matches):
    assert ("d02", 2) not in by_loc(matches)


def test_committee_dismissed_class_blocked_by_object(matches):
    # subject is a valid EMPLOYER but the object class disqualifies the sense
    assert ("d02", 3) not in by_loc(matches)


def test_agentless_passive_matches_with_implicature(matches):
    m = by_loc(matches)[("d03", 0)]
    assert m.trigger_lemma == "sack"
    assert m.bindings["org"] == UNFILLED
    assert isinstance(m.bindings["person"], int)
    assert m.passive_implicature


def test_by_agent_passive_fills_org(matches):
    m = by_loc(matches)[("d03", 1)]
    assert m.bindings == {"org": 6, "person": 1}
    assert not m.passive_implicature


def test_remove_passive_with_pp_and_agent(matches):
    m = by_loc(matches)[("d05", 0)]
    assert m.concept == "REMOVE-FROM-POST"
    assert m.bindings == {"org": 9, "person": 1, "post": 6}
    assert m.survivors == 3


def test_remove_survivor_arithmetic(matches):
    m = by_loc(matches)[("d01", 2)]
    assert m.trigger_lemma == "remove"
    assert m.survivors == 3 and m.competitors == 0


def test_sack_and_dismiss_survivor_arithmetic(matches):
    assert by_loc(matches)[("d01", 1)].survivors == 1  # sack
    assert by_loc(matches)[("d01", 0)].survivors == 1  # dismiss


def test_match_count_and_no_spurious(matches):
    expected = {("d01", 0), ("d01", 1), ("d01", 2), ("d03", 0), ("d03", 1),
                ("d04", 1), ("d05", 0), ("d06", 1), ("d06", 2), ("d06", 3),
                ("d07", 7)}
    assert set(by_loc(matches)) == expected


def test_emitted_matches_reverify_compatibility(matches, fg, tags, onto):
    # no match may violate its own restrictions: independent re-check
    for m in matches:
        real = next(r for r in fg.senses(m.trigger_lemma, "verb")
                    if r.sense_id == m.sense_id)
        for arg in real.effective.args:
            binding = m.bindings.get(arg.role)
            if isinstance(binding, int):
                tag = tags[(m.doc_id, m.sent_idx, binding)]
                assert onto.compatible(tag.coarse_class, arg.restriction)


def test_foreground_priority_replaces_verb_tag(matches, tags):
    out = apply_foreground_priority(tags, matches)
    for m in matches:
        t = out[(m.doc_id, m.sent_idx, m.verb_idx)]
        assert t.method == "foreground"
        assert t.coarse_class == m.concept
        assert t.sense_id == m.sense_id
    # untouched keys keep their background tags
    others = set(tags) - {(m.doc_id, m.sent_idx, m.verb_idx) for m in matches}
    for key in others:
        assert out[key] == tags[key]


def test_direct_filter_arithmetic(fg, bg, onto):
    for lemma, expected in (("sack", 1), ("dismiss", 1), ("remove", 3)):
        total, fg_fits = surviving_sense_count(
            fg, bg, onto, lemma, subj_class="EMPLOYER", obj_class="INDIVIDUAL")
        assert total == expected
        assert fg_fits == ["fg1"]


def test_filter_without_arguments_keeps_only_general_senses(fg, bg, onto):
    # no subject and no object: the foreground sense lacks its required roles,
    # while an absent argument eliminates no general sense
    total, fg_fits = surviving_sense_count(fg, bg, onto, "dismiss")
    assert total == 4 and fg_fits == []


def test_filter_drops_a_sense_that_lacks_a_required_role(fg, bg, onto, corpus):
    # the count and the matcher share one filter: a foreground sense whose
    # required `post` nothing fills survives in neither
    text = fixture_text("succession.fglex")
    assert "arg post : POST -> POST optional\n" in text
    strict = load_fg_lexicon(text.replace("arg post : POST -> POST optional\n",
                                          "arg post : POST -> POST\n"))
    docs = read_corpus("#DOC x\nThe\tthe\tDET\nbank\tbank\tNN\nremoved\tremove\tVBD\n"
                       "the\tthe\tDET\nmanager\tmanager\tNN\n.\t.\tPUNCT\n")
    tags = disambiguate_background(train_bayes(corpus, bg), docs, bg)
    assert [tags[("x", 0, i)].coarse_class for i in (1, 4)] == ["ORGANISATION", "PERSON"]
    analyses = analyze_corpus(docs)
    for lexicon, matched, count in ((fg, 1, (3, ["fg1"])), (strict, 0, (2, []))):
        assert surviving_sense_count(lexicon, bg, onto, "remove", "ORGANISATION",
                                     "PERSON") == count
        assert len(match_foreground(analyses, lexicon, tags, onto, bg)[0]) == matched


def test_passive_lone_trigger_flag(onto, fg, bg):
    corpus = read_corpus("#DOC x\nWas\tbe\tBE\nsacked\tsack\tVBN\n.\t.\tPUNCT\n")
    analyses = analyze_corpus(corpus)
    on, _ = match_foreground(analyses, fg, {}, onto, bg, passive_lone=True)
    off, _ = match_foreground(analyses, fg, {}, onto, bg, passive_lone=False)
    assert len(on) == 1 and on[0].passive_implicature
    assert on[0].bindings == {"org": UNFILLED, "person": UNFILLED}
    assert off == []


def test_multiple_fits_abstain_without_discriminators(onto):
    fg2 = load_fg_lexicon(
        "concept A-EVENT\n  template SUCCESSION\n"
        "  arg org : EMPLOYER -> ORGANIZATION\n"
        "  arg person : INDIVIDUAL -> PERSON_OUT\n"
        "concept B-EVENT\n  template SUCCESSION\n"
        "  arg org : EMPLOYER -> ORGANIZATION\n"
        "  arg person : INDIVIDUAL -> PERSON_OUT\n"
        "word boot verb sense fga -> A-EVENT\n  map subj -> org\n  map dobj -> person\n"
        "word boot verb sense fgb -> B-EVENT\n  map subj -> org\n  map dobj -> person\n")
    bg2 = collapse(load_bg_lexicon("firm noun s1 EMPLOYER\nteacher noun s1 INDIVIDUAL\n"),
                   load_collapse_map("scheme noun ORGANISATION PERSON\n"), onto)
    corpus = read_corpus(
        "#DOC x\nThe\tthe\tDET\nfirm\tfirm\tNN\nbooted\tboot\tVBD\n"
        "the\tthe\tDET\nteacher\tteacher\tNN\n.\t.\tPUNCT\n")
    model_tags = {("x", 0, 1): _tag("x", 1, "firm", "s1", "ORGANISATION"),
                  ("x", 0, 4): _tag("x", 4, "teacher", "s1", "PERSON")}
    matches, diags = match_foreground(analyze_corpus(corpus), fg2, model_tags,
                                      onto, bg2)
    assert matches == []
    assert len(diags) == 1 and "2 foreground senses" in diags[0].message


def test_multiple_fits_resolved_by_discriminators(onto):
    fg2 = load_fg_lexicon(
        "concept A-EVENT\n  template SUCCESSION\n"
        "  arg org : EMPLOYER -> ORGANIZATION\n"
        "  arg person : INDIVIDUAL -> PERSON_OUT\n"
        "  discriminate fga when window:unceremoniously\n"
        "  discriminate fgb when window:politely\n"
        "concept B-EVENT\n  template SUCCESSION\n"
        "  arg org : EMPLOYER -> ORGANIZATION\n"
        "  arg person : INDIVIDUAL -> PERSON_OUT\n"
        "word boot verb sense fga -> A-EVENT\n  map subj -> org\n  map dobj -> person\n"
        "word boot verb sense fgb -> B-EVENT\n  map subj -> org\n  map dobj -> person\n")
    corpus = read_corpus(
        "#DOC x\nThe\tthe\tDET\nfirm\tfirm\tNN\nunceremoniously\tunceremoniously\tADV\n"
        "booted\tboot\tVBD\nthe\tthe\tDET\nteacher\tteacher\tNN\n.\t.\tPUNCT\n")
    tags = {("x", 0, 1): _tag("x", 1, "firm", "s1", "ORGANISATION"),
            ("x", 0, 5): _tag("x", 5, "teacher", "s1", "PERSON")}
    matches, diags = match_foreground(analyze_corpus(corpus), fg2, tags, onto, None)
    assert diags == []
    assert len(matches) == 1
    assert matches[0].sense_id == "fga"
    assert matches[0].competitors == 1
    # a discriminator-decided verb is tagged as such
    retagged = apply_foreground_priority(tags, matches)
    assert retagged[("x", 0, 3)].method == "decision_list"


def _three_boots(rules_a: str, rules_b: str) -> object:
    """`boot` with senses fga, fgb and fgc, in that order, of concepts A, B
    and C; A and B carry `rules_a` and `rules_b` (`<sense> when <feature>`
    lines), and C wants a PERSON subject, so it never fits a firm's boot."""
    concept = ("concept {}-EVENT\n  template SUCCESSION\n  arg org : {} -> ORGANIZATION\n"
               "  arg person : INDIVIDUAL -> PERSON_OUT\n")
    return load_fg_lexicon(
        concept.format("A", "EMPLOYER") + "".join(f"  discriminate {r}\n" for r in rules_a)
        + concept.format("B", "EMPLOYER") + "".join(f"  discriminate {r}\n" for r in rules_b)
        + concept.format("C", "INDIVIDUAL")
        + "".join(f"word boot verb sense fg{x} -> {x.upper()}-EVENT\n"
                  "  map subj -> org\n  map dobj -> person\n" for x in "abc"))


@pytest.mark.parametrize("rules_a, rules_b, chosen", [
    # the first matching rule decides, in rule order...
    (["fgb when window:politely", "fga when left:firm"], [], "fgb"),
    # ...over the fitting senses' rules joined in lexicon order
    (["fgb when window:politely"], ["fga when left:firm"], "fgb"),
    ([], ["fga when left:firm", "fgb when window:politely"], "fga"),
    # the window crosses the sentence end: `politely` is 4 tokens on
    (["fgb when window:politely"], [], "fgb"),
    (["fgb when window:unheard"], [], None),
    # a rule that names a sense that does not fit decides for none, even
    # when a later rule names one that does
    (["fgc when left:firm", "fga when window:politely"], [], None),
])
def test_discriminators_decide_by_the_first_matching_rule(onto, rules_a, rules_b, chosen):
    corpus = read_corpus(
        "#DOC x\nThe\tthe\tDET\nfirm\tfirm\tNN\nbooted\tboot\tVBD\n"
        "the\tthe\tDET\nteacher\tteacher\tNN\n.\t.\tPUNCT\n\n"
        "Politely\tpolitely\tADV\n.\t.\tPUNCT\n")
    tags = {("x", 0, 1): _tag("x", 1, "firm", "s1", "ORGANISATION"),
            ("x", 0, 4): _tag("x", 4, "teacher", "s1", "PERSON")}
    matches, diags = match_foreground(analyze_corpus(corpus), _three_boots(rules_a, rules_b),
                                      tags, onto, None)
    assert [m.sense_id for m in matches] == ([chosen] if chosen else [])
    assert len(diags) == (chosen is None)
    if chosen:
        assert matches[0].competitors == 1  # fga and fgb fit; fgc does not


def _tag(doc, idx, lemma, sid, cls):
    from templex.wsd import SenseTag
    return SenseTag(doc, 0, idx, lemma, "noun", sid, cls, 0.0, "unambiguous")


def test_surviving_sense_count_agrees_with_the_matcher():
    # on an active clause whose verb has one tagged subject and one tagged
    # object, the count on the two heads' classes is the match's own
    checked = []

    @settings(max_examples=150, deadline=None)
    @given(case=matcher_cases(clauses=True))
    def check(case):
        matches, _ = match_foreground(**case)
        analyses = {a.doc.doc_id: a for a in case["analyses"]}
        for m in matches:
            sa = analyses[m.doc_id].sentences[m.sent_idx]
            # sorted, so an object comes before a subject
            deps = sorted((r.relation, r.dependent_idx) for r in sa.relations
                          if r.verb_idx == m.verb_idx)
            tags = [case["tags"].get((m.doc_id, m.sent_idx, idx)) for _, idx in deps]
            if (sa.tokens[m.verb_idx].pos == "VBN" or [rel for rel, _ in deps] != ["dobj", "subj"]
                    or None in tags):
                continue
            total, fg_fits = surviving_sense_count(
                case["fg"], case["bg"], case["onto"], m.trigger_lemma,
                tags[1].coarse_class, tags[0].coarse_class)
            assert total == m.survivors
            assert len(fg_fits) == m.competitors + 1 and m.sense_id in fg_fits
            checked.append(m)

    check()
    assert len(checked) >= 100


@settings(max_examples=200, deadline=None)
@given(case=matcher_cases())
def test_matcher_agrees_with_brute_force_oracle(case):
    matches, diags = match_foreground(**case)
    expected, abstentions = matcher_oracle(**case)
    assert [(m.doc_id, m.sent_idx, m.verb_idx, m.realization, m.bindings,
             m.passive_implicature, m.competitors, m.survivors, m.trigger_lemma)
            for m in matches] == expected
    assert [(d.severity, d.location, d.message) for d in diags] == [
        ("warning", f"{doc}:{sent}",
         f"{lemma}: {fits} foreground senses fit and no discriminator decided; abstaining")
        for doc, sent, lemma, fits in abstentions]
    for m in matches:
        event("decided by a discriminator" if m.competitors else "one sense fits")
        if m.passive_implicature:
            event("passive implicature")
    if abstentions:
        event("abstained")
