import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templex import (CycleError, ParseError, load_fg_lexicon,
                     parse_fg_lexicon, resolve_inheritance, validate)
from templex.fg_lexicon import StateAssertion
from helpers import merge_oracle, random_hierarchy, render_fg_lexicon

MINI = """\
concept DISMISS-EVENT
  template SUCCESSION
  arg org : EMPLOYER -> ORGANIZATION
  arg person : INDIVIDUAL -> PERSON_OUT
  assert not employed(person,org) @after
  instigator org

word sack verb sense fg1 -> DISMISS-EVENT
  map subj -> org
  map dobj -> person
word dismiss verb sense fg1 -> DISMISS-EVENT
  map subj -> org
  map dobj -> person
word remove verb sense fg1 -> DISMISS-EVENT
  map subj -> org
  map dobj -> person
"""


def test_parse_counts():
    raw = parse_fg_lexicon(MINI)
    assert len(raw.concepts) == 1
    assert len(raw.realizations) == 3
    lex = resolve_inheritance(raw)
    assert len(lex.senses("sack", "verb")) == 1
    assert lex.senses("sack", "verb")[0].concept == "DISMISS-EVENT"


def test_empty_file():
    lex = load_fg_lexicon("")
    assert lex.concepts == {} and lex.realizations == {}


def test_unknown_role_in_map_named_in_error():
    # the word's line: line 17 of the file
    text = MINI + "word oust verb sense fg1 -> DISMISS-EVENT\n  map dobj -> boss\n"
    with pytest.raises(ParseError) as info:
        load_fg_lexicon(text, "f.fglex")
    assert str(info.value) == ("f.fglex:17: word oust/verb: mapping dobj -> boss: "
                               "concept DISMISS-EVENT has no role 'boss'")


def test_undeclared_concept_rejected():
    with pytest.raises(ParseError, match="undeclared concept"):
        parse_fg_lexicon("word sack verb sense fg1 -> MISSING\n")


def test_duplicate_sense_key_rejected():
    text = MINI + "word sack verb sense fg1 -> DISMISS-EVENT\n"
    with pytest.raises(ParseError, match="duplicate sense"):
        parse_fg_lexicon(text)


@pytest.mark.parametrize("block, line, message", [
    # a concept block: the second `arg org` is line 4
    (MINI.replace("  arg person", "  arg org : PERSON\n  arg person", 1), 4,
     "duplicate arg 'org'"),
    # an override block may restate a concept's role once, not twice
    (MINI + "word oust verb sense fg1 -> DISMISS-EVENT\n"
            "  override arg org : EMPLOYER -> ORGANIZATION\n"
            "  override arg org : PERSON\n", 19, "duplicate override arg 'org'"),
])
def test_second_arg_for_a_role_is_rejected_at_its_line(block, line, message):
    with pytest.raises(ParseError) as info:
        load_fg_lexicon(block, "f.fglex")
    assert str(info.value) == f"f.fglex:{line}: {message}"


def test_parent_cycle_detected():
    text = "concept A isa B\n  template T\nconcept B isa A\n  template T\n"
    with pytest.raises(CycleError):
        load_fg_lexicon(text)


def test_missing_schema_after_resolution():
    with pytest.raises(ParseError) as info:
        load_fg_lexicon("# no template\nconcept A\n  arg x : C\n", "f.fglex")
    assert str(info.value) == "f.fglex:2: concept A: no schema after resolution"


def test_child_overrides_assertions_wholesale(fg):
    dismiss = fg.concepts["DISMISS-EVENT"]
    remove = fg.concepts["REMOVE-FROM-POST"]
    assert {a.predicate for a in dismiss.assertions} == {"employed"}
    assert {a.predicate for a in remove.assertions} == {"holds_post"}
    # the removal child carries only its own after-state
    assert not any(a.predicate == "employed" for a in remove.assertions)
    after = [a for a in remove.assertions if a.phase == "after"]
    assert after == [StateAssertion("holds_post", ("person", "post"), False, "after")]


def test_pure_inheritance_child_equals_parent_but_id(fg):
    parent = fg.concepts["SUCCESSION-EVENT"]
    child = fg.concepts["DISMISS-EVENT"]
    assert child.schema == parent.schema
    assert child.args == parent.args
    assert child.assertions == parent.assertions
    assert child.instigator == parent.instigator
    assert child.id != parent.id


def test_declaration_order_of_senses():
    text = (MINI
            + "word sack verb sense fg2 -> DISMISS-EVENT\n  map subj -> org\n")
    lex = load_fg_lexicon(text)
    senses = lex.senses("sack", "verb")
    assert [s.sense_id for s in senses] == ["fg1", "fg2"]


def test_unknown_word_gives_empty_list(fg):
    assert fg.senses("aardvark", "noun") == []


def test_fixture_dismiss_has_one_sense(fg):
    senses = fg.senses("dismiss", "verb", "en")
    assert len(senses) == 1
    assert senses[0].concept == "DISMISS-EVENT"


def test_multilingual_attachment_changes_no_en_lookup(fg):
    from helpers import fixture_text
    text = fixture_text("succession.fglex")
    before = [s.sense_id for s in fg.senses("dismiss", "verb")]
    text += ("word licencier verb lang fr sense fg1 -> DISMISS-EVENT\n"
             "  map subj -> org\n  map dobj -> person\n")
    lex2 = load_fg_lexicon(text)
    assert [s.sense_id for s in lex2.senses("dismiss", "verb")] == before
    assert len(lex2.senses("licencier", "verb", "fr")) == 1
    assert lex2.senses("licencier", "verb") == []


def test_realization_override_is_local():
    text = MINI + (
        "word oust verb sense fg1 -> DISMISS-EVENT\n"
        "  map subj -> org\n"
        "  map dobj -> person\n"
        "  override assert not holds(person) @after\n")
    lex = load_fg_lexicon(text)
    # shared concept untouched; sibling realization resolves independently
    shared = lex.concepts["DISMISS-EVENT"]
    assert {a.predicate for a in shared.assertions} == {"employed"}
    sack = lex.senses("sack", "verb")[0]
    assert sack.effective is shared
    oust = lex.senses("oust", "verb")[0]
    assert {a.predicate for a in oust.effective.assertions} == {"holds"}
    assert oust.effective is not shared


def test_override_unknown_role_rejected():
    text = MINI + (
        "word oust verb sense fg1 -> DISMISS-EVENT\n"
        "  map dobj -> item\n"
        "  override arg item : ARTIFACT\n"
        "  override assert gone(item) @after\n")
    lex = load_fg_lexicon(text)
    oust = lex.senses("oust", "verb")[0]
    assert {a.role for a in oust.effective.args} == {"item"}
    # once args are overridden the old roles are gone
    bad = text.replace("map dobj -> item", "map dobj -> person")
    with pytest.raises(ParseError, match="^<string>:17: word oust/verb: .*'person'$"):
        load_fg_lexicon(bad)


def test_resolution_idempotent_on_flat_lexicon():
    rng = random.Random(3)
    raw = random_hierarchy(rng, 40)
    lex = resolve_inheritance(raw)
    # feed the flattened result back through as parentless raw nodes
    from templex.fg_lexicon import RawConcept, RawLexicon
    flat = RawLexicon()
    for cid, node in lex.concepts.items():
        flat.concepts[cid] = RawConcept(
            cid, None, node.schema, list(node.args), list(node.assertions),
            node.instigator, list(node.discriminators), node.line)
    again = resolve_inheritance(flat)
    assert again.concepts == lex.concepts


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
def test_parser_reads_back_a_rendered_hierarchy(seed, n):
    # the DSL text of a random lexicon resolves to the same concepts and
    # effective senses as the records it was written from, line numbers aside
    raw = random_hierarchy(random.Random(seed), n, with_realizations=True)
    parsed = parse_fg_lexicon(render_fg_lexicon(raw))
    want, got = resolve_inheritance(raw), resolve_inheritance(parsed)

    def unlined(node):
        return node._replace(line=0)

    assert {cid: unlined(c) for cid, c in got.concepts.items()} \
        == {cid: unlined(c) for cid, c in want.concepts.items()}

    def senses(lex):
        return {key: [(r.sense_id, r.concept, r.complement_map, unlined(r.effective))
                      for r in reals] for key, reals in lex.realizations.items()}

    assert senses(got) == senses(want)


def test_inheritance_matches_field_merge_oracle():
    rng = random.Random(99)
    for _ in range(40):
        raw = random_hierarchy(rng, rng.randint(2, 100))
        lex = resolve_inheritance(raw)
        for cid in raw.concepts:
            assert lex.concepts[cid] == merge_oracle(raw, cid), cid


def test_validate_clean_fixture(fg, onto):
    assert validate(fg, onto) == []


def test_validate_reports_unknown_class(onto):
    text = MINI.replace("EMPLOYER", "EMPLOYR")
    lex = load_fg_lexicon(text)
    diags = validate(lex, onto)
    errors = [d for d in diags if d.severity == "error"]
    assert any("EMPLOYR" in d.message for d in errors)


def test_validate_names_the_line_of_each_failing_node_in_file_order(onto):
    # `oust` (line 17) is read after `sack`'s senses, but comes first in the file
    text = (MINI + "word oust verb sense fg1 -> DISMISS-EVENT\n"
                   "  override template NOSUCH\n"
                   "  override discriminate fg9 when left:board\n"
                   "word sack verb sense fg2 -> DISMISS-EVENT\n"
                   "  override template OTHER\n")
    problems = validate(load_fg_lexicon(text.replace("EMPLOYER", "EMPLOYR"), "m.fglex"), onto)
    assert [(p.severity, str(p)) for p in problems] == [
        ("error", "m.fglex:1: concept DISMISS-EVENT: arg org: unknown class EMPLOYR"),
        ("error", "m.fglex:17: word oust/verb/en/fg1: unknown template NOSUCH"),
        ("error", "m.fglex:17: word oust/verb/en/fg1: arg org: unknown class EMPLOYR"),
        ("warning", "m.fglex:17: word oust/verb/en/fg1: discriminator names unknown sense fg9"),
        ("error", "m.fglex:20: word sack/verb/en/fg2: unknown template OTHER"),
        ("error", "m.fglex:20: word sack/verb/en/fg2: arg org: unknown class EMPLOYR")]


def test_validate_reports_missing_slot(onto):
    text = MINI.replace("-> ORGANIZATION", "-> NO_SUCH_SLOT")
    lex = load_fg_lexicon(text)
    diags = validate(lex, onto)
    assert any("NO_SUCH_SLOT" in d.message and d.severity == "error" for d in diags)


def test_validate_reports_unknown_assertion_role(onto):
    text = MINI.replace("employed(person,org)", "employed(person,boss)")
    lex = load_fg_lexicon(text)
    diags = validate(lex, onto)
    assert any("boss" in d.message for d in diags if d.severity == "error")


def test_complement_roles_exist_on_random_lexicons():
    # monotone coverage: every mapped role resolves on the effective concept
    rng = random.Random(17)
    seen_realizations = 0
    seen_overrides = 0
    for _ in range(40):
        raw = random_hierarchy(rng, rng.randint(2, 30), with_realizations=True)
        lex = resolve_inheritance(raw)
        for reals in lex.realizations.values():
            for r in reals:
                seen_realizations += 1
                if not r.overrides.empty():
                    seen_overrides += 1
                for role in r.complement_map.values():
                    assert role in r.effective.roles()
                # shared concept untouched by realization overrides
                assert lex.concepts[r.concept] == merge_oracle(raw, r.concept)
                # the override block resolves as the leaf of the concept's chain
                assert r.effective == merge_oracle(raw, r.concept, r.overrides)
    assert seen_realizations > 50 and seen_overrides > 10
