"""Shallow text analysis: tokens, chunks and local grammatical relations.

The primary input path is pre-tagged vertical text.  Raw text is tagged as
it is read, by a closed-class-list + suffix-heuristic fallback tagger; gold
results always come from tagged fixtures.  Chunking and relation finding
are deliberately rule-based and local: errors surface as extraction
misses, which the acceptance fixtures bound.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple

from .errors import ParseError

TAGSET = frozenset({
    "NN", "NNP", "VB", "VBD", "VBN", "DET", "ADJ", "PREP", "PRON",
    "CONJ", "NUM", "ADV", "PUNCT", "OTHER", "BE",
})
VERBAL = frozenset({"BE", "VB", "VBD", "VBN"})
NOMINAL = frozenset({"NN", "NNP"})

# maps corpus tags onto lexicon parts of speech; pronouns are looked up as
# nouns so that `she`/`he` can carry a semantic class
LEXICON_POS = {
    "NN": "noun", "NNP": "noun", "PRON": "noun",
    "VB": "verb", "VBD": "verb", "VBN": "verb",
    "ADJ": "adj",
}


class Token(NamedTuple):
    surface: str
    lemma: str
    pos: str
    doc_id: str
    sent_idx: int
    tok_idx: int


TokenKey = tuple[str, int, int]  # (doc_id, sent_idx, tok_idx)


class SenseTag(NamedTuple):
    doc_id: str
    sent_idx: int
    tok_idx: int
    lemma: str
    pos: str  # lexicon pos: noun | verb | adj
    sense_id: str
    coarse_class: str
    score: float
    method: str  # unambiguous | bayes | ospd | foreground | decision_list


class Document:
    __slots__ = ("doc_id", "sentences")

    def __init__(self, doc_id: str, sentences: list[list[Token]] | None = None):
        self.doc_id = doc_id
        self.sentences = [] if sentences is None else sentences

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.doc_id == other.doc_id and self.sentences == other.sentences

    def tokens(self):
        for sent in self.sentences:
            yield from sent


class Chunk(NamedTuple):
    kind: str  # NP | VG | PP | O
    start: int  # token index, inclusive
    end: int    # token index, exclusive
    head_idx: int


class GrRelation(NamedTuple):
    verb_idx: int
    relation: str  # subj | dobj | iobj | agent_by | pp:<prep>
    dependent_idx: int


class SentenceAnalysis:
    """A sentence's tokens; its chunks and relations are computed on first read."""

    __slots__ = ("tokens", "_chunks", "_relations")

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self._chunks = self._relations = None

    @property
    def chunks(self) -> list[Chunk]:
        if self._chunks is None:
            self._chunks = chunk(self.tokens)
        return self._chunks

    @property
    def relations(self) -> list[GrRelation]:
        if self._relations is None:
            self._relations = grammatical_relations(self.chunks, self.tokens)
        return self._relations


class DocAnalysis:
    __slots__ = ("doc", "sentences")

    def __init__(self, doc: Document, sentences: list[SentenceAnalysis]):
        self.doc = doc
        self.sentences = sentences


# ------------------------------------------------------------ corpus input

_RAW_TOKEN = re.compile(r"\w+(?:[-']\w+)*|[^\w\s]")
_SENT_END = frozenset({".", "!", "?"})


def read_corpus(text: str, *, raw: bool = False, doc_id: str = "d1",
                path: str = "<string>", first_line: int = 1) -> list[Document]:
    """Read vertical (`surface<TAB>lemma<TAB>POS`) or raw text into documents.

    Vertical mode: `#DOC <id>` opens a document, a blank line ends a
    sentence, other `#` lines are comments.  `text` may be a run of lines
    that starts at line `first_line` of `path`.  Raw mode yields one
    document, tagged as it is read by the fallback tagger: heuristic tags
    from TAGSET and suffix-stripped lemmas (docs/formats.md, "Raw mode").
    """
    if raw:
        return [_read_raw(text, doc_id)]
    return _read_vertical(text, 3, doc_id, path, None, first_line)


def doc_id_of(path: str) -> str:
    """The `doc_id` of `read_corpus` for a file: its stem, each whitespace run one `_`."""
    return re.sub(r"\s+", "_", os.path.splitext(os.path.basename(path))[0])


def load_tagged_corpus(text: str, path: str = "<string>", *, with_tags: bool = True) \
        -> tuple[list[Document], dict[TokenKey, SenseTag] | None]:
    """Read a sense-tagged corpus.  Every tag column is checked; the tags
    are None without `with_tags`, which builds no SenseTag."""
    tags: dict[TokenKey, SenseTag] | None = {} if with_tags else None
    return _read_vertical(text, 4, "d1", path, tags), tags


def _read_vertical(text: str, ncols: int, doc_id: str, path: str,
                   tags: dict[TokenKey, SenseTag] | None,
                   first_line: int = 1) -> list[Document]:
    """The one vertical reader: 3 columns, or 4 for the sense-tagged corpus,
    whose tag columns are checked and, given a `tags` dict, decoded into it."""
    docs: dict[str, Document] = {}  # by id, in input order
    cur_doc: Document | None = None
    cur_sent: list[Token] = []  # joins cur_doc.sentences at its first token
    sent_idx = 0

    for lineno, line in enumerate(text.splitlines(), start=first_line):
        if line.startswith("#"):
            parts = line.split()
            if parts[0] != "#DOC":
                continue  # a comment
            if len(parts) != 2:
                raise ParseError("expected `#DOC <id>`", path=path, line=lineno)
            doc_id = parts[1]
            if doc_id in docs:
                raise ParseError(f"duplicate document id {doc_id}", path=path, line=lineno)
            cur_doc = docs[doc_id] = Document(doc_id)
            cur_sent = []
            continue
        if not line.strip():
            cur_sent = []
            continue
        cols = line.split("\t")
        if len(cols) != ncols:
            raise ParseError(f"expected {ncols} tab-separated columns, got {len(cols)}",
                             path=path, line=lineno)
        surface, lemma, pos = cols[0], cols[1], cols[2]
        if not (surface.isalnum() and lemma.isalnum()):
            _check_field("surface", surface, path, lineno)
            _check_field("lemma", lemma, path, lineno)
        if pos not in TAGSET:
            raise ParseError(f"unknown POS tag {pos!r}", path=path, line=lineno)
        if not cur_sent:
            if cur_doc is None:
                cur_doc = docs[doc_id] = Document(doc_id)
            sent_idx = len(cur_doc.sentences)
            cur_doc.sentences.append(cur_sent)
        tok_idx = len(cur_sent)
        # tuple.__new__ skips the named tuples' Python-level __new__
        cur_sent.append(tuple.__new__(Token, (surface, lemma, pos, doc_id, sent_idx, tok_idx)))
        if ncols == 4 and cols[3] != "-":
            tagcol = cols[3]
            if tagcol.count("/") != 2:
                raise ParseError(f"bad tag column {tagcol!r}", path=path, line=lineno)
            if tags is not None:
                sense_id, cls, method = tagcol.split("/")
                tags[(doc_id, sent_idx, tok_idx)] = tuple.__new__(SenseTag, (
                    doc_id, sent_idx, tok_idx, lemma, LEXICON_POS.get(pos, "noun"),
                    sense_id, cls, 0.0, method))
    return list(docs.values())


def _check_field(name: str, value: str, path: str, lineno: int) -> None:
    # lexicon and tuned-lexicon lines and queries split at any whitespace, so
    # none could name a field that is empty or holds whitespace
    if not value:
        raise ParseError(f"empty {name} field", path=path, line=lineno)
    if value.split() != [value]:
        raise ParseError(f"whitespace in {name} field {value!r}", path=path, line=lineno)


def _read_raw(text: str, doc_id: str) -> Document:
    """One document of fallback-tagged tokens: each tag is guessed from the
    surface and the previous tag in its sentence; the lemma is the lowercased
    surface for NNP, PRON and PUNCT, and the suffix-stripped one otherwise."""
    doc = Document(doc_id)
    sent: list[Token] = []
    tag: str | None = None  # the previous tag in the sentence: None at its start
    for surface in _RAW_TOKEN.findall(text):
        tag = _guess_tag(surface, tag, tag is None)
        lemma = surface.lower() if tag in ("NNP", "PRON", "PUNCT") else strip_suffix(surface)
        sent.append(Token(surface, lemma, tag, doc_id, len(doc.sentences), len(sent)))
        if surface in _SENT_END:
            doc.sentences.append(sent)
            sent, tag = [], None
    if sent:
        doc.sentences.append(sent)
    return doc


# --------------------------------------------------------- fallback tagger

_DET = frozenset("the a an this that these those each every some any no another".split())
_BE = frozenset("am is are was were be been being".split())
_PREP = frozenset(("of in on at by for from with to into onto over under after "
                   "before between during about against through across").split())
_PRON = frozenset(("he she it they we i you him her them us me his hers its their "
                   "our your who whom himself herself itself themselves").split())
_CONJ = frozenset("and or but nor so yet".split())
_ADV = frozenset("not very quickly slowly now then here there also soon never always".split())
_NUM_WORDS = frozenset("one two three four five six seven eight nine ten".split())
_PUNCT_RE = re.compile(r"^[^\w\s]+$")
_NUM_RE = re.compile(r"^\d[\d.,]*$")

# normative raw-mode suffix table; see docs/formats.md
_UNDOUBLE = frozenset("bb dd gg mm nn pp rr tt".split())


def strip_suffix(word: str) -> str:
    """Small -s/-ed/-ing stripping table with undoubling; lowercases first."""
    w = word.lower()
    if w.endswith("ies") and len(w) > 4:
        return w[:-3] + "y"
    if w.endswith("es") and len(w) > 3 and w[-3] in "sxz":
        return w[:-2]
    if w.endswith("s") and len(w) > 3 and not w.endswith("ss") and not w.endswith("us"):
        return w[:-1]
    if w.endswith("ied") and len(w) > 4:
        return w[:-3] + "y"
    for suf in ("ed", "ing"):
        if w.endswith(suf) and len(w) - len(suf) >= 3:
            stem = w[: -len(suf)]
            if stem[-2:] in _UNDOUBLE:
                return stem[:-1]
            if stem.endswith("v") or stem.endswith("u"):
                return stem + "e"
            return stem
    return w


def _guess_tag(surface: str, prev_tag: str | None, sent_initial: bool) -> str:
    low = surface.lower()
    if _PUNCT_RE.match(surface):
        return "PUNCT"
    if _NUM_RE.match(surface) or low in _NUM_WORDS:
        return "NUM"
    if low in _BE:
        return "BE"
    if low in _DET:
        return "DET"
    if low in _PREP:
        return "PREP"
    if low in _PRON:
        return "PRON"
    if low in _CONJ:
        return "CONJ"
    if low in _ADV or (low.endswith("ly") and len(low) > 4):
        return "ADV"
    if surface[0].isupper() and not sent_initial:
        return "NNP"
    if low.endswith("ed") and len(low) > 4:
        return "VBN" if prev_tag == "BE" else "VBD"
    if low.endswith("ing") and len(low) > 5:
        return "VB"
    return "NN"


# ----------------------------------------------------------------- chunks

def chunk(tokens: list[Token]) -> list[Chunk]:
    """Partition a sentence into NP / VG / PP / O chunks.

    NP  := DET? (ADJ|NUM)* (NN|NNP)+  |  PRON        (head: last noun)
    VG  := maximal verbal run, ADV allowed between verbal elements
                                                     (head: last verb)
    PP  := single PREP token
    O   := maximal run of anything else              (head: last token)
    """
    tags = [t.pos for t in tokens]
    n = len(tags)
    chunks: list[Chunk] = []
    i = 0
    while i < n:
        pos = tags[i]
        if pos == "PRON":
            chunks.append(Chunk("NP", i, i + 1, i))
            i += 1
            continue
        if pos in ("DET", "ADJ", "NUM") or pos in NOMINAL:
            j = i + 1 if pos == "DET" else i
            while j < n and tags[j] in ("ADJ", "NUM"):
                j += 1
            k = j
            while k < n and tags[k] in NOMINAL:
                k += 1
            if k > j:
                chunks.append(Chunk("NP", i, k, k - 1))
                i = k
                continue
        elif pos in VERBAL:
            j = i
            last_verb = i
            while j < n:
                if tags[j] in VERBAL:
                    last_verb = j
                    j += 1
                elif tags[j] == "ADV":
                    m = j
                    while m < n and tags[m] == "ADV":
                        m += 1
                    if m < n and tags[m] in VERBAL:
                        j = m
                    else:
                        break
                else:
                    break
            chunks.append(Chunk("VG", i, last_verb + 1, last_verb))
            i = last_verb + 1
            continue
        elif pos == "PREP":
            chunks.append(Chunk("PP", i, i + 1, i))
            i += 1
            continue
        # anything else, and a DET/ADJ/NUM run with no noun, extends an O run
        if chunks and chunks[-1].kind == "O":
            chunks[-1] = Chunk("O", chunks[-1].start, i + 1, i)
        else:
            chunks.append(Chunk("O", i, i + 1, i))
        i += 1
    return chunks


def is_passive_vg(tokens: list[Token], vg: Chunk) -> bool:
    """be + past participle head: the definition of the passive flag."""
    if tokens[vg.head_idx].pos != "VBN":
        return False
    return any(tokens[i].pos == "BE" for i in range(vg.start, vg.head_idx))


# -------------------------------------------------------------- relations

def grammatical_relations(chunks: list[Chunk], tokens: list[Token]) -> list[GrRelation]:
    """Local subject / object / agent / pp relations around each verb group.

    Active: nearest preceding NP head is subj, nearest following NP head not
    inside a PP is dobj (a second adjacent NP becomes iobj).  Passive (see
    is_passive_vg): the surface subject keeps the subj label and a by-PP
    supplies agent_by.
    """
    rels: list[GrRelation] = []
    for gi, vg in enumerate(chunks):
        if vg.kind != "VG":
            continue
        passive = is_passive_vg(tokens, vg)
        verb = vg.head_idx
        for c in reversed(chunks[:gi]):
            if c.kind == "NP":
                rels.append(GrRelation(verb, "subj", c.head_idx))
                break
        post_nps: list[tuple[int, Chunk]] = []
        k = gi + 1
        while k < len(chunks) and chunks[k].kind != "VG":
            c = chunks[k]
            if c.kind == "PP":
                if k + 1 < len(chunks) and chunks[k + 1].kind == "NP":
                    prep = tokens[c.head_idx].lemma
                    dep = chunks[k + 1].head_idx
                    if passive and prep == "by":
                        rels.append(GrRelation(verb, "agent_by", dep))
                    else:
                        rels.append(GrRelation(verb, f"pp:{prep}", dep))
                    k += 2
                    continue
            elif c.kind == "NP":
                post_nps.append((k, c))
            k += 1
        if post_nps:
            rels.append(GrRelation(verb, "dobj", post_nps[0][1].head_idx))
            if len(post_nps) >= 2 and post_nps[1][0] == post_nps[0][0] + 1:
                rels.append(GrRelation(verb, "iobj", post_nps[1][1].head_idx))
    return rels


def analyze(doc: Document) -> DocAnalysis:
    return DocAnalysis(doc, [SentenceAnalysis(sent) for sent in doc.sentences])


def analyze_corpus(docs: list[Document]) -> list[DocAnalysis]:
    return [analyze(d) for d in docs]
