"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of its seed: the same seed gives the
same bytes.  Nothing imports templex; the program under test only ever sees
the files written from these values.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from itertools import accumulate

FIXTURES = os.path.join("tests", "fixtures")

# replica: copies of the 7-document fixture.  100 copies is 700 documents and
# 20,200 tokens: many short documents, each with its own per-document cost.
REPLICA_COPIES = 100
# concordance: small enough that >= 100 query processes fit in one run
CONCORDANCE_COPIES = 30

# synth-vocab: few long documents over a large generated background lexicon
SYNTH_NOUNS = 2400
SYNTH_VERBS = 800
SYNTH_DOCS = 24
SYNTH_SENTENCES = 80
KEY_SENTENCE_RATE = 0.03  # share of sentences built around a key verb

# every fifth query is a pattern report, the rest cycle through KWIC kinds
KWIC_KINDS = ("lemma", "pos", "class", "regex", "multi")
PATTERNS_EVERY = 5
# classes the succession background lexicon gives its nouns after collapse
QUERY_CLASSES = ("ORGANISATION", "PERSON", "TIME", "POSSESSION", "COGNITION",
                 "COMMUNICATION", "LOCATION", "GROUP", "STATE")


def fixture(root: str, name: str) -> str:
    return os.path.join(root, FIXTURES, name)


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def split_documents(vrt: str) -> list[tuple[str, list[str]]]:
    """(doc id, body lines) per `#DOC` block of a vertical corpus."""
    docs: list[tuple[str, list[str]]] = []
    for line in vrt.splitlines():
        if line.startswith("#DOC"):
            docs.append((line.split()[1], []))
        elif docs:
            docs[-1][1].append(line)
    return docs


# ---------------------------------------------------------------- replica

def replica_corpus(fixture_vrt: str, copies: int, seed: int) -> tuple[str, list[tuple[str, str]]]:
    """The fixture's documents copied, ids renamed `r<i>_<id>`, order permuted by seed.

    Returns the corpus and its (new id, fixture id) pairs in corpus order.
    """
    docs = dict(split_documents(fixture_vrt))
    order = [(f"r{i}_{d}", d) for i in range(copies) for d in docs]
    random.Random(f"replica:{seed}").shuffle(order)
    out: list[str] = []
    for new_id, src in order:
        out.append(f"#DOC {new_id}")
        out.extend(docs[src])
        out.append("")
    return "\n".join(out), order


# ------------------------------------------------------------ synth-vocab

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "z", "br", "dr", "gl", "kr", "pl", "st", "tr", "sk")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_ADJS = ("new", "old", "large", "small", "local", "former", "senior", "chief")
_NAMES = ("Smith", "Jones", "Brown", "Taylor", "Wilson", "Evans", "Walker")
_PREPS = ("of", "in", "for", "with", "at")


def scheme_classes(collapse_text: str) -> tuple[list[str], list[str]]:
    """Noun and verb class lists from the `scheme` lines of a collapse map."""
    nouns: list[str] = []
    verbs: list[str] = []
    for line in collapse_text.splitlines():
        parts = line.split("#", 1)[0].split()
        if len(parts) > 2 and parts[0] == "scheme":
            (nouns if parts[1] == "noun" else verbs).extend(parts[2:])
    return nouns, verbs


def _new_lemmas(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(2, 3)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _senses(rng: random.Random, lemma: str, pos: str, classes: list[str]) -> list[str]:
    k = rng.choices((1, 2, 3), weights=(6, 3, 1))[0]
    return [f"{lemma} {pos} s{i + 1} {cls}"
            for i, cls in enumerate(rng.sample(classes, k))]


@dataclass
class SynthVocab:
    bglex: str
    corpus: str
    lexicon_lemmas: int


def synth_vocab(fixture_bglex: str, collapse_text: str, seed: int) -> SynthVocab:
    """A large background lexicon plus long documents drawn from it.

    Nouns and verbs follow a Zipf-like law, and each document favours its
    own topic lemmas so that lemmas repeat inside a document (the
    one-sense-per-discourse filter has groups to vote on).  The fixture's
    key verbs head about three sentences in a hundred, always with a
    domain subject and object, so the foreground matcher has rare work.
    """
    rng = random.Random(f"synth-vocab:{seed}")
    noun_classes, verb_classes = scheme_classes(collapse_text)
    taken = {line.split()[0] for line in fixture_bglex.splitlines()
             if line.split() and not line.startswith("#")}
    taken.update(_ADJS, _PREPS, ("the", "a", "was", "by", "and", "she", "he"))
    nouns = _new_lemmas(rng, SYNTH_NOUNS, taken)
    verbs = _new_lemmas(rng, SYNTH_VERBS, taken)

    lex = [fixture_bglex.rstrip("\n"), "", "# generated senses"]
    for lemma in nouns:
        lex.extend(_senses(rng, lemma, "noun", noun_classes))
    for lemma in verbs:
        lex.extend(_senses(rng, lemma, "verb", verb_classes))

    noun_cw = list(accumulate(1.0 / (r + 1) for r in range(len(nouns))))
    verb_cw = list(accumulate(1.0 / (r + 1) for r in range(len(verbs))))
    key_verbs = ("sack", "dismiss", "remove")
    orgs = ("firm", "company", "board", "school")
    people = ("manager", "director", "chairman", "teacher")

    lines: list[str] = []
    for d in range(SYNTH_DOCS):
        topic_nouns = rng.sample(nouns, 60)
        topic_verbs = rng.sample(verbs, 20)

        def noun() -> str:
            if rng.random() < 0.5:
                return rng.choice(topic_nouns)
            return rng.choices(nouns, cum_weights=noun_cw)[0]

        def verb() -> str:
            if rng.random() < 0.5:
                return rng.choice(topic_verbs)
            return rng.choices(verbs, cum_weights=verb_cw)[0]

        def np(lemma: str, *, adj: bool = False) -> list[tuple[str, str, str]]:
            toks = [(rng.choice(("The", "the", "a")), "the", "DET")]
            if adj:
                a = rng.choice(_ADJS)
                toks.append((a, a, "ADJ"))
            return toks + [(lemma, lemma, "NN")]

        lines.append(f"#DOC s{d:03d}")
        for _ in range(SYNTH_SENTENCES):
            if rng.random() < KEY_SENTENCE_RATE:
                kv = rng.choice(key_verbs)
                toks = np(rng.choice(orgs)) + [(kv + "ed", kv, "VBD")] \
                    + np(rng.choice(people))
            else:
                shape = rng.randrange(5)
                v = verb()
                if shape == 0:
                    toks = np(noun()) + [(v + "ed", v, "VBD")] + np(noun())
                elif shape == 1:
                    p = rng.choice(_PREPS)
                    toks = np(noun(), adj=True) + [(v + "ed", v, "VBD")] \
                        + np(noun()) + [(p, p, "PREP")] + np(noun())
                elif shape == 2:
                    toks = np(noun()) + [("was", "be", "BE"), (v + "ed", v, "VBN"),
                                         ("by", "by", "PREP")] + np(noun())
                elif shape == 3:
                    pron = rng.choice(("she", "he"))
                    toks = [(pron.capitalize(), pron, "PRON"), (v + "ed", v, "VBD")] \
                        + np(noun(), adj=True)
                else:
                    name = rng.choice(_NAMES)
                    v2 = verb()
                    toks = [(name, name.lower(), "NNP"), (v + "ed", v, "VBD")] \
                        + np(noun()) + [("and", "and", "CONJ"),
                                        (v2 + "ed", v2, "VBD")] + np(noun())
            toks.append((".", ".", "PUNCT"))
            lines.extend("\t".join(t) for t in toks)
            lines.append("")
    return SynthVocab("\n".join(lex) + "\n", "\n".join(lines),
                      len(nouns) + len(verbs))


# ---------------------------------------------------------------- queries

@dataclass(frozen=True)
class Query:
    """One query invocation: a KWIC pattern or a pattern-report target.

    `constraints` holds (kind, value) pairs with kind in word|lemma|pos|class;
    the benchmark's own KWIC scan reads them, the program reads `text`.
    """
    command: str  # kwic | patterns
    text: str
    constraints: tuple[tuple[str, str], ...] = ()


def _kwic_query(kind: str, rng: random.Random,
                pairs: list[tuple[tuple[str, str, str], tuple[str, str, str]]]) -> Query:
    (surface, lemma, pos), nxt = rng.choice(pairs)
    if kind == "lemma":
        cons = (("lemma", lemma),)
    elif kind == "pos":
        cons = (("pos", pos),)
    elif kind == "class":
        cons = (("class", rng.choice(QUERY_CLASSES)),)
    elif kind == "regex":
        cons = (("word", re.escape(surface[:2]) + "[a-z]*"),)
    else:
        cons = (("pos", pos), ("lemma", nxt[1]))
    text = " ".join(f"word=/{v}/" if k == "word" else f"{k}={v}" for k, v in cons)
    return Query("kwic", text, cons)


def query_mix(corpus: str, n: int, seed: int) -> list[Query]:
    """n queries over words of the corpus; the kind cycle is fixed, the seed picks values.

    KWIC values come from adjacent token pairs of the corpus, so most
    queries match; pattern-report targets are nouns and verbs that occur.
    """
    rng = random.Random(f"queries:{seed}")
    pairs = []
    prev = None
    for line in corpus.splitlines():
        tok = tuple(line.split("\t")) if line and not line.startswith("#") else None
        if tok is not None and tok[2] == "PUNCT":
            tok = None
        if prev is not None and tok is not None:
            pairs.append((prev, tok))
        prev = tok
    targets = sorted({a[1] for a, _ in pairs if a[2] in ("VBD", "NN")})
    out: list[Query] = []
    kinds = 0
    for i in range(n):
        if i % PATTERNS_EVERY == PATTERNS_EVERY - 1:
            out.append(Query("patterns", rng.choice(targets)))
        else:
            out.append(_kwic_query(KWIC_KINDS[kinds % len(KWIC_KINDS)], rng, pairs))
            kinds += 1
    return out


def corpus_stats(corpus: str) -> dict:
    docs = tokens = 0
    lemmas: set[str] = set()
    for line in corpus.splitlines():
        if line.startswith("#DOC"):
            docs += 1
        elif line and not line.startswith("#"):
            tokens += 1
            lemmas.add(line.split("\t")[1])
    return {"docs": docs, "tokens": tokens, "vocabulary": len(lemmas)}
