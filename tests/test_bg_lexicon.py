import pytest
from hypothesis import given, settings

from templex import (BgSense, ParseError, collapse, default_collapse_map,
                     load_bg_lexicon, load_collapse_map, load_ontology)
from helpers import collapse_cases, collapse_oracle

TINY_ONTO = """\
class ORGANISATION
class LOCATION
class FINANCIAL_INSTITUTION isa ORGANISATION
class LANDFORM isa LOCATION
class BUILDING isa LOCATION
"""
TINY_MAP = "scheme noun ORGANISATION LOCATION\n"


def test_two_senses_for_bank():
    lex = load_bg_lexicon("bank noun s1 FINANCIAL_INSTITUTION\nbank noun s2 LANDFORM\n")
    assert len(lex.entries("bank", "noun")) == 2


def test_empty_file():
    lex = load_bg_lexicon("")
    assert lex.senses_by_key == {}


def test_duplicate_sense_named():
    with pytest.raises(ParseError, match="bank/noun/s1"):
        load_bg_lexicon("bank noun s1 LANDFORM\nbank noun s1 LANDFORM\n")


def test_trailing_comment_and_restrictions_parse():
    lex = load_bg_lexicon("# a comment line\nsack verb s1 LANDFORM obj=LOCATION # plunder\n")
    assert lex.entries("sack", "verb") == [
        BgSense("sack", "verb", "s1", "LANDFORM", None, None, "LOCATION")]


def test_collapse_distinct_coarse_classes():
    onto = load_ontology(TINY_ONTO)
    lex = load_bg_lexicon("bank noun s1 FINANCIAL_INSTITUTION\nbank noun s2 LANDFORM\n")
    out = collapse(lex, load_collapse_map(TINY_MAP), onto)
    senses = [(s.sense_id, s.coarse_class) for s in out.entries("bank", "noun")]
    assert senses == [("s1", "ORGANISATION"), ("s2", "LOCATION")]


def test_collapse_merges_same_coarse_class_keeping_lowest_id():
    onto = load_ontology(TINY_ONTO)
    lex = load_bg_lexicon("school noun s2 BUILDING\nschool noun s1 LANDFORM\n")
    out = collapse(lex, load_collapse_map(TINY_MAP), onto)
    senses = [(s.sense_id, s.coarse_class) for s in out.entries("school", "noun")]
    assert senses == [("s1", "LOCATION")]


def test_collapse_idempotent(bg, cmap, onto):
    again = collapse(bg, cmap, onto)
    assert again.senses_by_key == bg.senses_by_key


def test_collapse_leaves_input_unchanged(bg_raw, cmap, onto):
    before = {k: [s.coarse_class for s in ss]
              for k, ss in bg_raw.senses_by_key.items()}
    collapse(bg_raw, cmap, onto)
    after = {k: [s.coarse_class for s in ss]
             for k, ss in bg_raw.senses_by_key.items()}
    assert before == after
    assert not bg_raw.collapsed


def test_collapse_never_increases_sense_count(bg_raw, bg):
    for key, ss in bg_raw.senses_by_key.items():
        merged = bg.senses_by_key[key]
        assert len(merged) <= len(ss)
        # merged count equals the number of distinct coarse classes
        assert len(merged) == len({s.coarse_class for s in merged})


def test_collapse_unmappable_class_rejected():
    onto = load_ontology("class MYSTERY\n")
    lex = load_bg_lexicon("thing noun s1 MYSTERY\n")
    with pytest.raises(ParseError, match="MYSTERY"):
        collapse(lex, load_collapse_map(TINY_MAP), onto)


def test_senses_are_equal_by_value_wherever_they_are_read():
    # the line of a sense is the lexicon's, not the sense's
    a = load_bg_lexicon("bank noun s1 LANDFORM\n", "a.bglex")
    b = load_bg_lexicon("# first\n\nbank noun s1 LANDFORM\n", "b.bglex")
    assert a.senses_by_key == b.senses_by_key
    assert [a.lines[s] for s in a.entries("bank", "noun")] == [1]
    assert [b.lines[s] for s in b.entries("bank", "noun")] == [3]


@settings(max_examples=300, deadline=None)
@given(case=collapse_cases())
def test_collapse_equals_the_sense_by_sense_oracle(case):
    lex, cmap, onto, text = case
    try:
        want = collapse_oracle(lex, cmap, onto, text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            collapse(lex, cmap, onto)
        assert str(info.value) == str(exc)
        return
    out = collapse(lex, cmap, onto)
    assert out.collapsed
    assert list(out.senses_by_key.items()) == list(want.items())


def test_unknown_lemma_empty(bg):
    assert bg.entries("aardvark", "noun") == []


def test_ancestor_walk_supplies_mapping(bg):
    # EDUCATIONAL_INSTITUTION -> EMPLOYER -> ORGANISATION via the taxonomy
    assert [(s.sense_id, s.coarse_class) for s in bg.entries("school", "noun")] \
        == [("s1", "ORGANISATION")]


def test_default_scheme_sizes():
    cmap = default_collapse_map()
    assert len(cmap.noun_classes) == 25
    assert len(cmap.verb_classes) == 15
    assert not set(cmap.noun_classes) & set(cmap.verb_classes)


def test_scheme_classes_map_to_themselves():
    cmap = default_collapse_map()
    for cid in cmap.scheme():
        assert cmap.mapping[cid] == cid


def test_map_target_must_be_scheme_class():
    with pytest.raises(ParseError, match="not a scheme class"):
        load_collapse_map("scheme noun A\nmap B -> C\n")


