import json

import pytest

from templex import (apply_ospd, disambiguate_background, fill_templates,
                     match_foreground, read_corpus, resolve_salient, textpipe,
                     train_bayes, write_output, wsd)
from templex.cli import main
from templex.textpipe import VERBAL
from helpers import fixture_path, fixture_text


@pytest.fixture(scope="module")
def tags(corpus, bg):
    model = train_bayes(corpus, bg)
    return apply_ospd(disambiguate_background(model, corpus, bg), bg)


@pytest.fixture(scope="module")
def instances(analyses, fg, tags, onto, bg):
    matches, _ = match_foreground(analyses, fg, tags, onto, bg)
    return fill_templates(matches, tags, analyses, onto)


def by_loc(instances):
    return {(i.doc_id, i.sent_idx): i for i in instances}


def test_dismiss_event_fills_succession(instances):
    inst = by_loc(instances)[("d01", 0)]
    assert inst.schema == "SUCCESSION"
    org = inst.fillers["ORGANIZATION"]
    person = inst.fillers["PERSON_OUT"]
    assert (org.lemma, org.source) == ("school", "direct")
    assert org.span == "The school"
    assert (person.lemma, person.source) == ("teacher", "direct")
    assert inst.instigator_slot == "ORGANIZATION"
    asserted = {(a["predicate"], a["polarity"], a["phase"])
                for a in inst.assertions}
    assert asserted == {("employed", True, "before"), ("employed", False, "after")}
    neg = next(a for a in inst.assertions if not a["polarity"])
    assert neg["args"] == ["teacher", "school"]


def test_remove_asserts_post_not_employment(instances):
    inst = by_loc(instances)[("d01", 2)]
    preds = {a["predicate"] for a in inst.assertions}
    assert preds == {"holds_post"}
    assert inst.fillers["POST"].lemma == "post"


def test_agentless_passive_unfilled_org(instances):
    inst = by_loc(instances)[("d03", 0)]
    org = inst.fillers["ORGANIZATION"]
    assert org.source == "unfilled" and org.lemma is None
    neg = next(a for a in inst.assertions if not a["polarity"])
    assert neg["args"] == ["teacher", None]


def test_salience_resolves_across_sentences(instances):
    inst = by_loc(instances)[("d04", 1)]
    org = inst.fillers["ORGANIZATION"]
    assert org.source == "salient"
    assert org.lemma == "corp"
    assert org.span == "Acme Corp"
    assert inst.fillers["PERSON_OUT"].lemma == "she"


def test_resolve_salient_direct(analyses, tags, onto):
    d04 = next(a for a in analyses if a.doc.doc_id == "d04")
    found = resolve_salient(d04, tags, onto, "EMPLOYER", 1, 4)
    assert found == ("corp", "Acme Corp", "ORGANISATION")


def test_resolve_salient_none_when_no_candidate(analyses, tags, onto):
    d03 = next(a for a in analyses if a.doc.doc_id == "d03")
    assert resolve_salient(d03, tags, onto, "EMPLOYER", 0, 3) is None


def test_explicit_salient_binding_resolved(analyses, fg, tags, onto):
    # a required role bound UNFILLED is resolved by salience
    from templex import UNFILLED
    from templex.wsd import FgMatch
    sack = fg.senses("sack", "verb")[0]
    assert next(a for a in sack.effective.args if a.role == "org").required
    match = FgMatch("d04", 1, 4, sack,
                    {"org": UNFILLED, "person": 2},
                    passive_implicature=True, trigger_lemma="sack")
    inst = fill_templates([match], tags, analyses, onto)[0]
    assert inst.fillers["ORGANIZATION"].source == "salient"
    assert inst.fillers["ORGANIZATION"].span == "Acme Corp"


def test_resolve_salient_recency_wins(analyses, tags, onto):
    # several compatible organisations precede: the nearest one is chosen
    d06 = next(a for a in analyses if a.doc.doc_id == "d06")
    found = resolve_salient(d06, tags, onto, "EMPLOYER", 2, 4)
    assert found is not None and found[0] == "firm"  # same-sentence subject
    found = resolve_salient(d06, tags, onto, "EMPLOYER", 2, 1)
    assert found is not None and found[0] == "company"  # sent 1 beats sent 0


def test_instances_in_document_order(instances):
    locs = [(i.doc_id, i.sent_idx) for i in instances]
    assert locs == sorted(locs)


def test_slot_class_soundness(instances, onto):
    for inst in instances:
        schema = onto.schema(inst.schema)
        for slot in schema.slots:
            filler = inst.fillers[slot.name]
            if filler.sem_class is not None:
                assert onto.compatible(filler.sem_class, slot.filler_class)


def test_write_output_empty():
    assert write_output([]) == ""


def test_write_output_key_order_and_determinism(instances):
    text = write_output(instances)
    assert text == write_output(instances)
    lines = text.strip().split("\n")
    assert len(lines) == len(instances)
    for line in lines:
        obj = json.loads(line)
        assert list(obj) == ["schema", "fillers", "assertions", "instigator",
                             "provenance"]
        assert list(obj["provenance"]) == ["doc", "sent", "trigger", "sense"]
        for filler in obj["fillers"].values():
            assert list(filler) == ["lemma", "span", "class", "source"]


def test_fillers_follow_schema_slot_order(instances, onto):
    for inst in instances:
        schema = onto.schema(inst.schema)
        assert list(inst.fillers) == [s.name for s in schema.slots]


def vertical(doc_id, *sentences):
    """A `#DOC` block of `surface/lemma/POS` sentences."""
    lines = [f"#DOC {doc_id}"]
    for sent in sentences:
        lines += ["\t".join(tok.split("/")) for tok in sent.split()] + [""]
    return "\n".join(lines) + "\n"


def test_extract_chunks_only_what_the_matcher_and_salience_read(tmp_path, monkeypatch):
    few = (
        vertical("p1", "The/the/DET firm/firm/NN announced/announce/VBD profits/profit/NN",
                 "Mary/mary/NNP joined/join/VBD Acme/acme/NNP Corp/corp/NNP ././PUNCT",
                 # an agent-less passive: its organisation is found a sentence back
                 "Last/last/ADJ week/week/NN she/she/PRON was/be/BE sacked/sack/VBN",
                 "The/the/DET bank/bank/NN announced/announce/VBD a/a/DET loan/loan/NN")
        + vertical("p2", "The/the/DET bank/bank/NN hired/hire/VBD a/a/DET manager/manager/NN",
                   # a foreground lemma as written, whatever its case
                   "The/the/DET school/school/NN Dismissed/Dismiss/VBD a/a/DET teacher/teacher/NN")
        # a foreground lemma, but not a verb
        + vertical("p3", "The/the/DET sack/sack/NN was/be/BE full/full/ADJ ././PUNCT"))
    corpus = tmp_path / "few.vrt"
    corpus.write_text(fixture_text("succession.vrt") + few)
    chunked = []
    real_chunk = textpipe.chunk

    def counting_chunk(tokens):
        chunked.append((tokens[0].doc_id, tokens[0].sent_idx))
        return real_chunk(tokens)

    monkeypatch.setattr(textpipe, "chunk", counting_chunk)
    out = tmp_path / "out.jsonl"
    assert main(["extract", "--ontology", fixture_path("succession.onto"),
                 "--fg-lexicon", fixture_path("succession.fglex"),
                 "--bg-lexicon", fixture_path("succession.bglex"),
                 "--collapse-map", fixture_path("succession.collapse"),
                 "--corpus", str(corpus), "--jobs", "1", "--output", str(out)]) == 0
    with_fg_verb = {(t.doc_id, t.sent_idx) for d in read_corpus(corpus.read_text())
                    for t in d.tokens() if t.pos in VERBAL
                    and t.lemma.lower() in ("sack", "dismiss", "remove")}
    assert ("p1", 1) not in with_fg_verb and ("p2", 1) in with_fg_verb
    # each chunked once: those sentences, and the ones a salience scan for an
    # agent-less passive's organisation reads before it finds one
    assert sorted(chunked) == sorted(with_fg_verb | {("d04", 0), ("p1", 1)})
    found = [json.loads(line)["provenance"] for line in out.read_text().splitlines()[1:]]
    assert [(p["doc"], p["sent"], p["trigger"]) for p in found[-2:]] \
        == [("p1", 2, "sack"), ("p2", 1, "Dismiss")]


@pytest.mark.parametrize("order", ["bg-first", "fg-first"])
def test_extract_ranks_only_the_groups_it_reads(tmp_path, monkeypatch, bg, order):
    """`extract` ranks the tokens of the (document, lemma) groups that the
    matcher and the filler read, and no others: those of an ambiguous noun
    that a salience scan reads, but none of a document whose ambiguous nouns
    no foreground verb and no salience scan reaches."""
    corpus = tmp_path / "quiet.vrt"
    corpus.write_text(
        fixture_text("succession.vrt")
        # an agent-less passive: the scan for its organisation reads `bank`
        + vertical("q0", "The/the/DET bank/bank/NN lent/lend/VBD money/money/NN ././PUNCT",
                   "She/she/PRON was/be/BE sacked/sack/VBN ././PUNCT")
        + vertical("q1", "The/the/DET bank/bank/NN stood/stand/VBD by/by/PREP the/the/DET "
                         "bank/bank/NN ././PUNCT"))
    ranked, read = [], set()
    real_rank, real_get = wsd._rank, wsd._TagsOnDemand.get

    def counting_rank(*args):
        ranked.append(args)
        return real_rank(*args)

    def noting_get(self, key):
        if self.model is not None:  # not fg-first's anchors, which rank nothing
            read.add(key)
        return real_get(self, key)

    monkeypatch.setattr(wsd, "_rank", counting_rank)
    monkeypatch.setattr(wsd._TagsOnDemand, "get", noting_get)
    assert main(["extract", "--ontology", fixture_path("succession.onto"),
                 "--fg-lexicon", fixture_path("succession.fglex"),
                 "--bg-lexicon", fixture_path("succession.bglex"),
                 "--collapse-map", fixture_path("succession.collapse"),
                 "--corpus", str(corpus), "--order", order, "--jobs", "1",
                 "--output", str(tmp_path / "out.jsonl")]) == 0
    monkeypatch.undo()
    docs = read_corpus(corpus.read_text())
    eager = disambiguate_background(train_bayes(docs, bg), docs, bg)
    lemma_of = {(t.doc_id, t.sent_idx, t.tok_idx): t.lemma for d in docs for t in d.tokens()}
    groups = {(key[0], lemma_of[key]) for key in read}
    ranked_in_groups = [key for key, tag in eager.items()
                        if tag.method == "bayes" and (tag.doc_id, tag.lemma) in groups]
    assert len(ranked) == len(ranked_in_groups)
    assert ("q0", "bank") in groups and all(key[0] != "q1" for key in read)
    assert [tag.lemma for key, tag in eager.items()
            if key[0] == "q1" and tag.method == "bayes"] == ["bank", "bank"]
