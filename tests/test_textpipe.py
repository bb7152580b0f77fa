import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templex import (DocAnalysis, ParseError, SenseTag, chunk, grammatical_relations,
                     load_tagged_corpus, pattern_report, read_corpus)
from templex.textpipe import (_RAW_TOKEN, _SENT_END, NOMINAL, TAGSET, VERBAL, Token,
                              _guess_tag, analyze, is_passive_vg, strip_suffix)
from helpers import make_doc, tagged_vertical_corpora, two_pass_tagged_read


def toks(*pairs):
    return [Token(lemma, lemma, pos, "d", 0, i)
            for i, (lemma, pos) in enumerate(pairs)]


def test_vertical_read(corpus):
    assert [d.doc_id for d in corpus] == [f"d{i:02d}" for i in range(1, 8)]
    first = corpus[0].sentences[0]
    assert [t.surface for t in first] == ["The", "school", "dismissed", "the",
                                          "teacher", "."]
    assert first[1].lemma == "school" and first[1].pos == "NN"
    assert first[2].tok_idx == 2 and first[2].sent_idx == 0


def test_empty_input():
    assert read_corpus("") == []


def test_malformed_column_count_reports_line():
    with pytest.raises(ParseError, match=":2:"):
        read_corpus("#DOC d1\njust one column\n")


def test_duplicate_document_id_rejected():
    with pytest.raises(ParseError, match="duplicate document id"):
        read_corpus("#DOC d1\na\ta\tNN\n\n#DOC d1\nb\tb\tNN\n")


def test_only_an_exact_doc_field_opens_a_document():
    # `#DOCUMENTATION` and `#DOC-NOTES` are comments, like every other `#` line
    text = "#DOCUMENTATION notes\na\ta\tNN\n#DOC-NOTES x\n\n#DOC d2\nb\tb\tNN\n"
    docs = read_corpus(text)
    assert [d.doc_id for d in docs] == ["d1", "d2"]
    assert [[t.lemma for t in s] for s in docs[0].sentences] == [["a"]]
    with pytest.raises(ParseError, match=r"^c\.vrt:1: expected `#DOC <id>`$"):
        read_corpus("#DOC\na\ta\tNN\n", path="c.vrt")


def test_empty_surface_or_lemma_rejected():
    # lexicon lines and queries split at whitespace, so none could name an empty lemma
    with pytest.raises(ParseError, match=r"^c\.vrt:2: empty lemma field$"):
        read_corpus("firm\tfirm\tNN\nx\t\tNN\n", path="c.vrt")
    with pytest.raises(ParseError, match=r"^c\.vrt:3: empty surface field$"):
        read_corpus("#DOC d\nfirm\tfirm\tNN\n\tq\tNN\n", path="c.vrt")
    # nor one that holds whitespace, also within a field
    with pytest.raises(ParseError, match=r"^c\.vrt:2: whitespace in lemma field 'the firm'$"):
        read_corpus("firm\tfirm\tNN\nthe\tthe firm\tNN\n", path="c.vrt")
    with pytest.raises(ParseError, match=r"^c\.vrt:1: whitespace in surface field 'a\\xa0b'$"):
        read_corpus("a\xa0b\tab\tNN\n", path="c.vrt")


def test_raw_mode_tokenizes_terminal_period():
    docs = read_corpus("The school dismissed the teacher.", raw=True)
    assert len(docs) == 1
    sent = docs[0].sentences[0]
    assert [t.surface for t in sent] == ["The", "school", "dismissed",
                                         "the", "teacher", "."]
    assert len(docs[0].sentences) == 1
    assert all(t.pos in TAGSET for t in sent)  # tagged as read
    assert sent[0].lemma == "the"


def test_raw_mode_tokens_are_the_source_without_whitespace():
    text = "A fox's den.  A dog-\tsled!\n"
    doc = read_corpus(text, raw=True)[0]
    assert [t.surface for t in doc.tokens()] == [
        "A", "fox's", "den", ".", "A", "dog", "-", "sled", "!"]
    assert "".join(t.surface for t in doc.tokens()) == "".join(text.split())
    assert [[t.tok_idx for t in s] for s in doc.sentences] == [[0, 1, 2, 3], [0, 1, 2, 3, 4]]


def test_fallback_tagger_on_fixture_sentence():
    sent = read_corpus("The school dismissed the teacher.", raw=True)[0].sentences[0]
    assert [t.pos for t in sent] == ["DET", "NN", "VBD", "DET", "NN", "PUNCT"]
    assert sent[2].lemma == "dismiss"


def test_fallback_passive_participle_after_be():
    sent = read_corpus("She was sacked.", raw=True)[0].sentences[0]
    assert [t.pos for t in sent] == ["PRON", "BE", "VBN", "PUNCT"]
    assert sent[2].lemma == "sack"


_RAW_PIECES = st.one_of(
    st.from_regex(r"[a-z]+(?:[-'][a-z]+)*", fullmatch=True),  # words and compounds
    st.from_regex(r"[A-Z][a-z]*(?:-[A-Z]?[a-z]+)?", fullmatch=True),  # capitalised
    st.sampled_from(["was", "is", "been", "the", "she", "of", "and", "very", "sacked",
                     "Sacked", "Was", "hiring", "studies", "one"]),
    st.from_regex(r"\d+(?:[.,]\d+)?", fullmatch=True),  # numbers
    st.sampled_from(list(".!?,;:-'\"()")))  # punctuation


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.tuples(_RAW_PIECES, st.sampled_from(["", " ", "  ", "\t", "\n",
                                                               " \n\n", "\t "])),
                       max_size=30))
def test_raw_reader_tags_each_token_as_it_reads(pieces):
    text = "".join(piece + space for piece, space in pieces)
    (doc,) = read_corpus(text, raw=True, doc_id="r")
    assert [t.surface for t in doc.tokens()] == _RAW_TOKEN.findall(text)
    # a sentence ends exactly after `.`, `!` or `?`
    for si, sent in enumerate(doc.sentences):
        assert sent and all(t.surface not in _SENT_END for t in sent[:-1])
        assert sent[-1].surface in _SENT_END or si == len(doc.sentences) - 1
        prev = None
        for ti, t in enumerate(sent):
            assert (t.doc_id, t.sent_idx, t.tok_idx) == ("r", si, ti)
            # the tag from the surface, the previous tag in this sentence and
            # whether it is the sentence's first token
            assert t.pos in TAGSET and t.pos == _guess_tag(t.surface, prev, ti == 0)
            assert t.lemma == (t.surface.lower() if t.pos in ("NNP", "PRON", "PUNCT")
                               else strip_suffix(t.surface))
            prev = t.pos


def test_suffix_table():
    assert strip_suffix("dismissed") == "dismiss"
    assert strip_suffix("removed") == "remove"
    assert strip_suffix("stopped") == "stop"
    assert strip_suffix("falling") == "fall"
    assert strip_suffix("studies") == "study"
    assert strip_suffix("classes") == "class"
    assert strip_suffix("teachers") == "teacher"
    assert strip_suffix("tried") == "try"
    assert strip_suffix("boss") == "boss"


def test_chunk_np_vg_np():
    sent = toks(("the", "DET"), ("school", "NN"), ("dismissed", "VBD"),
                ("the", "DET"), ("teacher", "NN"))
    chunks = chunk(sent)
    assert [(c.kind, c.start, c.end) for c in chunks] == [
        ("NP", 0, 2), ("VG", 2, 3), ("NP", 3, 5)]
    assert chunks[0].head_idx == 1 and chunks[2].head_idx == 4


def test_chunk_passive_by_pp():
    sent = toks(("be", "BE"), ("dismissed", "VBN"), ("by", "PREP"),
                ("the", "DET"), ("school", "NN"))
    chunks = chunk(sent)
    assert [c.kind for c in chunks] == ["VG", "PP", "NP"]
    assert is_passive_vg(sent, chunks[0])


def test_chunk_all_punctuation_is_o():
    sent = toks((".", "PUNCT"), ("-", "PUNCT"), (".", "PUNCT"))
    chunks = chunk(sent)
    assert [c.kind for c in chunks] == ["O"]
    assert (chunks[0].start, chunks[0].end) == (0, 3)


def test_chunk_adverb_inside_verb_group():
    sent = toks(("be", "BE"), ("quickly", "ADV"), ("sacked", "VBN"))
    chunks = chunk(sent)
    assert [(c.kind, c.start, c.end, c.head_idx) for c in chunks] == [("VG", 0, 3, 2)]
    assert is_passive_vg(sent, chunks[0])


@settings(max_examples=500, deadline=None)
@given(tags=st.lists(st.sampled_from(sorted(TAGSET)), min_size=1, max_size=14))
def test_chunk_spans_partition_random_sentences(tags):
    sent = toks(*[(f"w{i}", tag) for i, tag in enumerate(tags)])
    chunks = chunk(sent)
    # in order, with no gap or overlap
    assert [c.start for c in chunks] == [0, *(c.end for c in chunks[:-1])]
    assert chunks[-1].end == len(sent)
    for c, nxt in zip(chunks, chunks[1:] + [None]):
        assert c.start <= c.head_idx < c.end
        assert not (c.kind == "O" and nxt is not None and nxt.kind == "O")
        if c.kind == "NP":
            assert tags[c.head_idx] in NOMINAL | {"PRON"}
        if c.kind == "VG":
            assert tags[c.head_idx] in VERBAL


def test_relations_active():
    sent = toks(("the", "DET"), ("school", "NN"), ("dismissed", "VBD"),
                ("the", "DET"), ("teacher", "NN"))
    rels = grammatical_relations(chunk(sent), sent)
    rel = {(r.relation, r.dependent_idx) for r in rels}
    assert rel == {("subj", 1), ("dobj", 4)}
    assert not is_passive_vg(sent, chunk(sent)[1])


def test_relations_agentless_passive():
    sent = toks(("the", "DET"), ("teacher", "NN"), ("be", "BE"),
                ("sacked", "VBN"))
    rels = grammatical_relations(chunk(sent), sent)
    assert [(r.relation, r.dependent_idx) for r in rels] == [("subj", 1)]
    assert is_passive_vg(sent, chunk(sent)[1])


def test_relations_by_agent_passive():
    sent = toks(("the", "DET"), ("teacher", "NN"), ("be", "BE"),
                ("sacked", "VBN"), ("by", "PREP"), ("the", "DET"),
                ("firm", "NN"))
    rels = grammatical_relations(chunk(sent), sent)
    got = {(r.relation, r.dependent_idx) for r in rels}
    assert got == {("subj", 1), ("agent_by", 6)}
    assert is_passive_vg(sent, chunk(sent)[1])
    # an active verb's by-PP stays a pp relation
    active = toks(("the", "DET"), ("firm", "NN"), ("sacked", "VBD"), ("by", "PREP"),
                  ("the", "DET"), ("river", "NN"))
    assert {(r.relation, r.dependent_idx) for r in grammatical_relations(chunk(active), active)} \
        == {("subj", 1), ("pp:by", 5)}


def test_relations_pp_not_dobj():
    sent = toks(("he", "PRON"), ("removed", "VBD"), ("from", "PREP"),
                ("the", "DET"), ("post", "NN"))
    rels = grammatical_relations(chunk(sent), sent)
    got = {(r.relation, r.dependent_idx) for r in rels}
    assert got == {("subj", 0), ("pp:from", 4)}


def test_relations_double_object():
    sent = toks(("she", "PRON"), ("gave", "VBD"), ("the", "DET"),
                ("teacher", "NN"), ("a", "DET"), ("book", "NN"))
    rels = grammatical_relations(chunk(sent), sent)
    got = {(r.relation, r.dependent_idx) for r in rels}
    assert ("dobj", 3) in got and ("iobj", 5) in got


def test_relations_reference_np_and_vg_heads():
    tags = ["NN", "VBD", "VBN", "DET", "ADJ", "PREP", "PRON", "ADV",
            "PUNCT", "BE"]
    rng = random.Random(41)
    for _ in range(300):
        sent = toks(*[(f"w{i}", rng.choice(tags))
                      for i in range(rng.randint(1, 12))])
        chunks = chunk(sent)
        np_heads = {c.head_idx for c in chunks if c.kind == "NP"}
        vg_heads = {c.head_idx for c in chunks if c.kind == "VG"}
        for r in grammatical_relations(chunks, sent):
            assert r.verb_idx in vg_heads
            assert r.dependent_idx in np_heads


def test_passive_flag_only_on_be_participle_pattern():
    # exhaustive enumeration over small verbal tag sequences, checked
    # against an independent regex over the tag string
    verbal = ["BE", "VB", "VBD", "VBN"]
    for n in (1, 2, 3):
        for seq in itertools.product(verbal, repeat=n):
            sent = toks(*[(f"w{i}", t) for i, t in enumerate(seq)])
            chunks = chunk(sent)
            assert len(chunks) == 1 and chunks[0].kind == "VG"
            expected = re.fullmatch(r".*BE[ ](?:\w+[ ])*VBN", " ".join(seq)) is not None
            assert is_passive_vg(sent, chunks[0]) == expected, seq


def test_analyze_bundles_consistent_counts(corpus):
    analysis = analyze(corpus[0])
    assert len(analysis.sentences) == len(corpus[0].sentences)
    for sa in analysis.sentences:
        assert sa.chunks and sa.tokens


def test_make_doc_helper_roundtrip():
    doc = make_doc("x", [[("a", "DET"), ("b", "NN")]])
    assert [t.lemma for t in doc.tokens()] == ["a", "b"]


@settings(max_examples=200, deadline=None)
@given(text=tagged_vertical_corpora())
def test_tagged_read_with_and_without_tags_equals_the_two_pass_read(text):
    docs, tags = load_tagged_corpus(text, "t.vrt")
    bare, no_tags = load_tagged_corpus(text, "t.vrt", with_tags=False)
    assert no_tags is None
    assert bare == docs
    assert (docs, tags) == two_pass_tagged_read(text)


class EagerSentence:
    """A sentence analysis with its chunks and relations computed up front."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.chunks = chunk(tokens)
        self.relations = grammatical_relations(self.chunks, tokens)


_LAZY_WORDS = ("a", "by", "x", "y")


@settings(max_examples=200, deadline=None)
@given(sentences=st.lists(st.lists(st.lists(
           st.tuples(st.sampled_from(_LAZY_WORDS), st.sampled_from(sorted(TAGSET))),
           min_size=1, max_size=10), max_size=4), min_size=1, max_size=3),
       tagged=st.sets(st.sampled_from(_LAZY_WORDS)),
       target=st.sampled_from(_LAZY_WORDS), relations_first=st.booleans())
def test_lazy_analysis_equals_the_eager_one(sentences, tagged, target, relations_first):
    docs = [make_doc(f"d{i}", sents) for i, sents in enumerate(sentences)]
    tags = {(t.doc_id, t.sent_idx, t.tok_idx):
            SenseTag(t.doc_id, t.sent_idx, t.tok_idx, t.lemma, "noun", "s1",
                     t.lemma.upper(), 0.0, "bayes")
            for d in docs for t in d.tokens() if t.lemma in tagged}
    eager = [DocAnalysis(d, [EagerSentence(sent) for sent in d.sentences]) for d in docs]

    def report(analyses):
        try:
            return pattern_report(analyses, tags, target, window=2)
        except ValueError as exc:  # the target does not occur
            return str(exc)

    # the report reads every relation of a fresh analysis, so their chunks too
    assert report([analyze(d) for d in docs]) == report(eager)
    for lazy, ref in zip([analyze(d) for d in docs], eager):
        for sa, want in zip(lazy.sentences, ref.sentences):
            if relations_first:
                assert sa.relations == want.relations
            assert sa.chunks == want.chunks
            assert sa.relations == want.relations
            assert sa.chunks is sa.chunks  # computed once
