import random

import pytest

from templex import CycleError, ParseError, dump_ontology, load_ontology
from helpers import chain_walk_subsumes, closure_pairs, random_taxonomy


def test_basic_isa_chain():
    onto = load_ontology("class ORGANISATION\nclass EMPLOYER isa ORGANISATION\n")
    assert set(onto.classes) == {"ORGANISATION", "EMPLOYER"}
    assert onto.classes["EMPLOYER"].parent == "ORGANISATION"
    assert onto.subsumes("ORGANISATION", "EMPLOYER")
    assert not onto.subsumes("EMPLOYER", "ORGANISATION")


def test_empty_input_gives_empty_ontology():
    onto = load_ontology("")
    assert onto.classes == {} and onto.schemas == {}


def test_minimal_cycle_reported_with_members():
    with pytest.raises(CycleError) as exc:
        load_ontology("class A isa B\nclass B isa A\n")
    assert exc.value.members == ["A", "B"]


def test_dangling_parent_rejected():
    with pytest.raises(ParseError, match="dangling parent"):
        load_ontology("class A isa NOWHERE\n")


def test_duplicate_class_rejected():
    with pytest.raises(ParseError, match="duplicate class"):
        load_ontology("class A\nclass A\n")


def test_ids_case_normalised():
    onto = load_ontology("class org\nclass employer isa Org\n")
    assert "ORG" in onto.classes
    assert onto.classes["EMPLOYER"].parent == "ORG"


def test_subsumes_reflexive():
    onto = load_ontology("class X\n")
    assert onto.subsumes("X", "X")


def test_subsumes_unknown_class_raises():
    onto = load_ontology("class X\n")
    with pytest.raises(KeyError):
        onto.subsumes("X", "Y")
    with pytest.raises(KeyError):
        onto.subsumes("Y", "X")


def test_compatible_two_way(onto):
    assert onto.compatible("ORGANISATION", "EMPLOYER")
    assert onto.compatible("EMPLOYER", "ORGANISATION")
    assert not onto.compatible("EMPLOYER", "INDIVIDUAL")


def test_subsumes_matches_chain_walk_oracle():
    rng = random.Random(11)
    for _ in range(30):
        onto = random_taxonomy(rng, rng.randint(2, 60))
        ids = sorted(onto.classes)
        for _ in range(40):
            a, b = rng.choice(ids), rng.choice(ids)
            assert onto.subsumes(a, b) == chain_walk_subsumes(onto, a, b)
            assert onto.compatible(a, b) == (chain_walk_subsumes(onto, a, b)
                                             or chain_walk_subsumes(onto, b, a))


def test_subsumption_order_properties_against_closure():
    rng = random.Random(7)
    for trial in range(8):
        onto = random_taxonomy(rng, rng.randint(5, 200))
        pairs = closure_pairs(onto)
        ids = sorted(onto.classes)
        for a in ids:
            assert onto.subsumes(a, a)  # reflexive
        sample = [(rng.choice(ids), rng.choice(ids)) for _ in range(150)]
        for a, b in sample:
            assert onto.subsumes(a, b) == ((a, b) in pairs)
            if a != b and onto.subsumes(a, b):
                assert not onto.subsumes(b, a)  # antisymmetric
            assert onto.compatible(a, b) == onto.compatible(b, a)  # symmetric
        # transitive, checked over the closure itself
        for (a, b) in list(pairs)[:200]:
            for (c, d) in list(pairs)[:50]:
                if b == c:
                    assert onto.subsumes(a, d)


def test_template_slots_parse(onto):
    schema = onto.schema("SUCCESSION")
    assert [s.name for s in schema.slots] == ["ORGANIZATION", "PERSON_OUT", "POST"]
    assert schema.slot("ORGANIZATION").required
    assert not schema.slot("POST").required
    assert schema.slot("PERSON_OUT").filler_class == "INDIVIDUAL"


def test_slot_unknown_filler_class_rejected():
    with pytest.raises(ParseError, match="not declared"):
        load_ontology("template T\n  slot a : MISSING\n")


def test_slot_unknown_filler_class_names_path_and_line():
    with pytest.raises(ParseError, match=r"^x\.onto:3: template T: slot s filler class "
                                         r"NOPE is not declared$"):
        load_ontology("class A\ntemplate T\n  slot s : NOPE\n", "x.onto")


def test_duplicate_slot_rejected():
    with pytest.raises(ParseError, match="duplicate slot"):
        load_ontology("class C\ntemplate T\n  slot a : C\n  slot a : C\n")


def test_roundtrip_through_serialisation(onto):
    text = dump_ontology(onto)
    again = load_ontology(text)
    assert again.classes == onto.classes
    assert again.schemas == onto.schemas
    assert dump_ontology(again) == text


def test_roundtrip_random_taxonomies():
    rng = random.Random(23)
    for _ in range(10):
        onto = random_taxonomy(rng, rng.randint(1, 50))
        again = load_ontology(dump_ontology(onto))
        assert again.classes == onto.classes
