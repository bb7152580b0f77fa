import pytest

from templex import (ParseError, collapse, default_collapse_map,
                     load_bg_lexicon, load_collapse_map, load_ontology)
from templex.bg_lexicon import dump_bg_lexicon

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


def test_gloss_and_restrictions_parse():
    lex = load_bg_lexicon("sack verb s1 LANDFORM obj=LOCATION # plunder\n")
    s = lex.entries("sack", "verb")[0]
    assert s.gloss == "plunder"
    assert s.obj_restriction == "LOCATION"
    assert s.subj_restriction is None


def test_collapse_distinct_coarse_classes():
    onto = load_ontology(TINY_ONTO)
    lex = load_bg_lexicon("bank noun s1 FINANCIAL_INSTITUTION\nbank noun s2 LANDFORM\n")
    out = collapse(lex, load_collapse_map(TINY_MAP), onto)
    senses, ambiguous = out.senses("bank", "noun")
    assert senses == [("s1", "ORGANISATION"), ("s2", "LOCATION")]
    assert ambiguous


def test_collapse_merges_same_coarse_class_keeping_lowest_id():
    onto = load_ontology(TINY_ONTO)
    lex = load_bg_lexicon("school noun s2 BUILDING\nschool noun s1 LANDFORM\n")
    out = collapse(lex, load_collapse_map(TINY_MAP), onto)
    senses, ambiguous = out.senses("school", "noun")
    assert senses == [("s1", "LOCATION")]
    assert not ambiguous


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


def test_bg_senses_requires_collapse(bg_raw):
    with pytest.raises(RuntimeError, match="collapsed"):
        bg_raw.senses("bank", "noun")


def test_unknown_lemma_empty(bg):
    senses, ambiguous = bg.senses("aardvark", "noun")
    assert senses == [] and not ambiguous


def test_ancestor_walk_supplies_mapping(bg):
    # EDUCATIONAL_INSTITUTION -> EMPLOYER -> ORGANISATION via the taxonomy
    senses, _ = bg.senses("school", "noun")
    assert senses == [("s1", "ORGANISATION")]


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


def test_dump_reload_roundtrip(bg):
    text = dump_bg_lexicon(bg)
    again = load_bg_lexicon(text)
    assert dump_bg_lexicon(collapse_like(again)) == text


def collapse_like(lex):
    # a dumped collapsed lexicon reloads with the coarse class in the fine
    # column; mark it collapsed with coarse = fine for comparison purposes
    out_lex = type(lex)(collapsed=True)
    for key, ss in lex.senses_by_key.items():
        out_lex.senses_by_key[key] = [s._replace(coarse_class=s.fine_class)
                                      for s in ss]
    return out_lex
