"""Independent oracles and seeded data generators shared across the tests.

Everything here is deliberately naive: transitive closures by fixpoint,
field merges by walking root-to-leaf, window counts by nested loops.  The
oracles never call the code paths they check.
"""

from __future__ import annotations

import os
import random
import re
from collections import Counter

from hypothesis import strategies as st

from templex import (BgLexicon, DLInstance, Document, ParseError, Token,
                     load_bg_lexicon, load_collapse_map, read_corpus)
from templex.bg_lexicon import BG_POS, BgSense

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def fixture_text(name: str) -> str:
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()
from templex.decisionlist import DecisionRule
from templex.fg_lexicon import (ArgSpec, ConceptNode, FgLexicon, RawConcept, RawLexicon,
                                Realization, StateAssertion)
from templex.ontology import Ontology, SemClass
from templex.textpipe import LEXICON_POS, analyze
from templex.wsd import UNFILLED, SenseTag


# ------------------------------------------------------------- taxonomies

def random_taxonomy(rng: random.Random, n: int) -> Ontology:
    classes = {}
    for i in range(n):
        cid = f"C{i:03d}"
        parent = f"C{rng.randrange(i):03d}" if i and rng.random() < 0.8 else None
        classes[cid] = SemClass(cid, parent)
    return Ontology(classes, {})


def closure_pairs(onto: Ontology) -> set[tuple[str, str]]:
    """All (ancestor, descendant) pairs by naive fixpoint iteration."""
    pairs = {(c, c) for c in onto.classes}
    pairs |= {(cls.parent, cls.id) for cls in onto.classes.values()
              if cls.parent is not None}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def chain_walk_subsumes(onto: Ontology, ancestor: str, descendant: str) -> bool:
    cur: str | None = descendant
    while cur is not None:
        if cur == ancestor:
            return True
        cur = onto.classes[cur].parent
    return False


# ------------------------------------------------- inheritance hierarchies

_SCHEMAS = ("SUCCESSION", "TRANSFER", "GENERIC")
_CLASSES = ("EMPLOYER", "INDIVIDUAL", "POST", "ORGANISATION", "ARTIFACT")
_ROLES = ("org", "person", "post", "item", "source")
_SLOTS = ("S1", "S2", "S3")
_PREDS = ("employed", "holds_post", "owns")


def _random_args(rng: random.Random) -> list[ArgSpec]:
    roles = rng.sample(_ROLES, rng.randint(1, 3))
    return [ArgSpec(role, rng.choice(_CLASSES),
                    rng.choice(_SLOTS) if rng.random() < 0.7 else None,
                    rng.random() < 0.8)
            for role in roles]


def _random_assertions(rng: random.Random, roles: list[str]) -> list[StateAssertion]:
    out = []
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(1, min(2, len(roles)))
        out.append(StateAssertion(rng.choice(_PREDS),
                                  tuple(rng.sample(roles, k)),
                                  rng.random() < 0.5,
                                  rng.choice(("before", "after"))))
    return out


def random_hierarchy(rng: random.Random, n: int,
                     with_realizations: bool = False) -> RawLexicon:
    """A random concept forest whose roots carry complete definitions."""
    raw = RawLexicon()
    for i in range(n):
        cid = f"K{i:03d}"
        is_root = i == 0 or rng.random() < 0.2
        parent = None if is_root else f"K{rng.randrange(i):03d}"
        node = RawConcept(cid, parent)
        if is_root or rng.random() < 0.4:
            node.schema = rng.choice(_SCHEMAS)
        if is_root or rng.random() < 0.4:
            node.args = _random_args(rng)
        if is_root or rng.random() < 0.4:
            roles = [a.role for a in node.args] or list(_ROLES)
            node.assertions = _random_assertions(rng, roles)
        if rng.random() < 0.3:
            node.instigator = rng.choice(_ROLES)
        if rng.random() < 0.3:
            sense = f"fg{rng.randint(1, 3)}"
            kind = rng.choice(("word_left", "word_right", "word_in_window"))
            node.discriminators = [DecisionRule(kind, f"w{rng.randrange(20)}", sense, 1.0)]
        raw.concepts[cid] = node
    if with_realizations:
        _attach_realizations(rng, raw)
    return raw


def _attach_realizations(rng: random.Random, raw: RawLexicon) -> None:
    grels = ["subj", "dobj", "iobj", "pp:from", "pp:of"]
    for w in range(rng.randint(1, 6)):
        cid = rng.choice(sorted(raw.concepts))
        real = Realization(f"verb{w:02d}", "verb", "en", f"fg{w}", cid)
        if rng.random() < 0.4:
            # field overrides; overriding args changes the role inventory
            if rng.random() < 0.5:
                real.overrides.args = _random_args(rng)
            if rng.random() < 0.5:
                real.overrides.assertions = _random_assertions(rng, list(_ROLES))
            if rng.random() < 0.3:
                real.overrides.schema = rng.choice(_SCHEMAS)
            if rng.random() < 0.2:
                real.overrides.instigator = rng.choice(_ROLES)
            if rng.random() < 0.2:
                real.overrides.discriminators = [DecisionRule(
                    "word_left", f"w{rng.randrange(20)}", f"fg{w}", 1.0)]
        if real.overrides.args:
            roles = [a.role for a in real.overrides.args]
        else:
            roles = [a.role for a in merge_oracle(raw, cid).args]
        for gr in rng.sample(grels, min(len(roles), rng.randint(0, 3))):
            real.complement_map[gr] = rng.choice(roles)
        raw.realizations.append(real)


def merge_oracle(raw: RawLexicon, cid: str, overrides: RawConcept | None = None) \
        -> ConceptNode:
    """Brute-force root-to-leaf field merge, independent of the resolver.

    A word's override block, when given, is the leaf of the chain: its
    fields replace the concept's, and a new template rebinds every slot,
    since an arg names a slot of the resolved node's own template.
    """
    chain = []
    cur: str | None = cid
    while cur is not None:
        chain.append(raw.concepts[cur])
        cur = raw.concepts[cur].parent
    chain.reverse()  # root first
    if overrides is not None:
        chain.append(overrides)
    schema = args = assertions = None
    instigator = None
    discriminators = None
    for node in chain:  # later (more specific) nodes override
        if node.schema is not None:
            schema = node.schema
        if node.args:
            args = node.args
        if node.assertions:
            assertions = node.assertions
        if node.instigator is not None:
            instigator = node.instigator
        if node.discriminators:
            discriminators = node.discriminators
    assert schema is not None
    return ConceptNode(cid, schema, tuple(args or []), tuple(assertions or []),
                       instigator, tuple(discriminators or []), raw.concepts[cid].line)


_FEATURE_PREFIX = {"word_left": "left", "word_right": "right", "word_in_window": "window"}


def _field_lines(node: RawConcept) -> list[str]:
    """The DSL lines that set a concept's or an override block's fields."""
    lines = [f"template {node.schema}"] if node.schema is not None else []
    for a in node.args:
        lines.append(f"arg {a.role} : {a.restriction}"
                     + (f" -> {a.slot}" if a.slot is not None else "")
                     + ("" if a.required else " optional"))
    for s in node.assertions:
        lines.append(f"assert {'' if s.polarity else 'not '}"
                     f"{s.predicate}({','.join(s.role_args)}) @{s.phase}")
    if node.instigator is not None:
        lines.append(f"instigator {node.instigator}")
    for r in node.discriminators:
        lines.append(f"discriminate {r.sense_id} when {_FEATURE_PREFIX[r.kind]}:{r.value}")
    return lines


def render_fg_lexicon(raw: RawLexicon) -> str:
    """A raw lexicon as foreground DSL text, for parser round-trip tests."""
    out = []
    for cid, node in raw.concepts.items():
        out.append(f"concept {cid}" + (f" isa {node.parent}" if node.parent else ""))
        out.extend(f"  {line}" for line in _field_lines(node))
    for real in raw.realizations:
        lang = "" if real.lang == "en" else f" lang {real.lang}"
        out.append(f"word {real.lemma} {real.pos}{lang} sense {real.sense_id} "
                   f"-> {real.concept}")
        out.extend(f"  map {gr} -> {role}" for gr, role in real.complement_map.items())
        out.extend(f"  override {line}" for line in _field_lines(real.overrides))
    return "\n".join(out) + "\n"


# -------------------------------------------------------- synthetic corpora

def make_doc(doc_id: str, sentences: list[list[tuple[str, str]]]) -> Document:
    """Build a Document from (lemma, pos) sentences; surface = lemma."""
    doc = Document(doc_id)
    for si, sent in enumerate(sentences):
        doc.sentences.append([Token(lemma, lemma, pos, doc_id, si, ti)
                              for ti, (lemma, pos) in enumerate(sent)])
    return doc


def two_class_data(rng: random.Random, *, shared: int = 8, exclusive: int = 32,
                   n_train: int = 500, n_test: int = 200, ctx: int = 8):
    """Class-conditional unigram corpus for the coarse-classifier analog.

    Returns (train_docs, test_items, ontology_text, bglex_text, scheme_text);
    test_items are (context lemma list, true class) pairs.  The two
    vocabularies share `shared` words out of `exclusive + shared`.
    """
    org_words = [f"orgw{i:02d}" for i in range(exclusive)]
    loc_words = [f"locw{i:02d}" for i in range(exclusive)]
    shared_words = [f"shw{i:02d}" for i in range(shared)]

    def draw(cls: str) -> str:
        pool_exclusive = org_words if cls == "ORGANISATION" else loc_words
        total = exclusive + shared
        if shared and rng.random() < shared / total:
            return rng.choice(shared_words)
        return rng.choice(pool_exclusive)

    def sentence(cls: str) -> list[tuple[str, str]]:
        words = [draw(cls) for _ in range(ctx)]
        pos = rng.randrange(len(words) + 1)
        lemmas = words[:pos] + ["crane"] + words[pos:]
        return [(w, "NN") for w in lemmas]

    train_docs = []
    for i in range(n_train):
        cls = "ORGANISATION" if i % 2 == 0 else "LOCATION"
        train_docs.append(make_doc(f"t{i:04d}", [sentence(cls)]))
    test_items = []
    for i in range(n_test):
        cls = "ORGANISATION" if i % 2 == 0 else "LOCATION"
        sent = sentence(cls)
        test_items.append(([w for w, _ in sent if w != "crane"], cls))

    onto_text = "class ORGANISATION cat noun\nclass LOCATION cat noun\n"
    bg_lines = [f"{w} noun s1 ORGANISATION" for w in org_words]
    bg_lines += [f"{w} noun s1 LOCATION" for w in loc_words]
    bg_lines += ["crane noun s1 ORGANISATION", "crane noun s2 LOCATION"]
    scheme_text = "scheme noun ORGANISATION LOCATION\n"
    return train_docs, test_items, onto_text, "\n".join(bg_lines) + "\n", scheme_text


def ospd_noisy_tags(rng: random.Random, *, n_docs: int = 200, per_doc: int = 25,
                    noise: float = 0.3):
    """One true sense per document, tags flipped with the given noise rate.

    Returns (tags, truth) where truth maps doc id to its true class.
    """
    classes = {"ORGANISATION": "s1", "LOCATION": "s2"}
    tags = {}
    truth = {}
    for d in range(n_docs):
        doc_id = f"n{d:04d}"
        true_cls = rng.choice(sorted(classes))
        truth[doc_id] = true_cls
        for i in range(per_doc):
            cls = true_cls
            if rng.random() < noise:
                cls = next(c for c in classes if c != true_cls)
            tags[(doc_id, 0, i)] = SenseTag(doc_id, 0, i, "bank", "noun",
                                            classes[cls], cls, 0.0, "bayes")
    return tags, truth


def dl_corpus(rng: random.Random, *, n_per_sense: int = 100, n_test: int = 50,
              fillers: int = 20):
    """Deterministic collocation corpus for decision-list bootstrapping.

    Every instance carries exactly two collocates of its sense plus filler
    noise shared between the senses.
    """
    coll = {"A": [f"ca{i}" for i in range(10)],
            "B": [f"cb{i}" for i in range(10)]}
    noise = [f"f{i:02d}" for i in range(fillers)]

    def make(sense: str, doc_id: str) -> DLInstance:
        words = [rng.choice(noise) for _ in range(5)] + rng.sample(coll[sense], 2)
        rng.shuffle(words)
        pos = rng.randrange(len(words) + 1)
        lemmas = tuple(words[:pos] + ["bass"] + words[pos:])
        return DLInstance(lemmas, pos, doc_id)

    train, test = [], []
    for i in range(n_per_sense):
        train.append(make("A", f"da{i:03d}"))
        train.append(make("B", f"db{i:03d}"))
    for i in range(n_test):
        sense = "A" if i % 2 == 0 else "B"
        test.append((make(sense, f"dt{i:03d}"), sense))
    seeds = {"A": ["ca0"], "B": ["cb0"]}
    return train, test, seeds, coll


_KWIC_TAGS = ["NN", "NNP", "VB", "VBD", "DET", "ADJ", "PREP", "PRON", "ADV", "PUNCT"]


def random_kwic_corpus(rng: random.Random, n_tokens: int) -> list[Document]:
    vocab = [(f"w{i:02d}", rng.choice(_KWIC_TAGS)) for i in range(60)]
    docs = []
    total = 0
    d = 0
    while total < n_tokens:
        sents = []
        for _ in range(20):
            sent = [rng.choice(vocab) for _ in range(rng.randint(5, 15))]
            sents.append([(w, t) for (w, t) in sent])
            total += len(sent)
            if total >= n_tokens:
                break
        docs.append(make_doc(f"g{d:04d}", sents))
        d += 1
    return docs


def naive_kwic_count(docs: list[Document], constraints, tags=None) -> int:
    """Independent leftmost non-overlapping scan; constraints are callables."""
    count = 0
    for doc in docs:
        for sent in doc.sentences:
            i = 0
            while i + len(constraints) <= len(sent):
                ok = True
                for k, check in enumerate(constraints):
                    tok = sent[i + k]
                    tag = tags.get((doc.doc_id, tok.sent_idx, tok.tok_idx)) if tags else None
                    if not check(tok, tag):
                        ok = False
                        break
                if ok:
                    count += 1
                    i += len(constraints)
                else:
                    i += 1
    return count


_KWIC_SURFACES = ("a", "ab", "B", "ba", "b")
_KWIC_LEMMAS = ("a", "b", "c")
_KWIC_POS = ("NN", "VBD", "DET")
_KWIC_CLASSES = ("ORG", "LOC")


@st.composite
def tagged_kwic_corpora(draw):
    """(docs, tags) over a tiny vocabulary: surfaces, lemmas, tags and
    classes drawn independently, some tokens left untagged."""
    token = st.tuples(st.sampled_from(_KWIC_SURFACES), st.sampled_from(_KWIC_LEMMAS),
                      st.sampled_from(_KWIC_POS),
                      st.sampled_from(_KWIC_CLASSES + (None,)))
    docs, tags = [], {}
    for d in range(draw(st.integers(0, 3))):
        doc = Document(f"d{d}")
        for si, sent in enumerate(draw(st.lists(st.lists(token, min_size=1, max_size=6),
                                                max_size=4))):
            doc.sentences.append([Token(surface, lemma, pos, doc.doc_id, si, ti)
                                  for ti, (surface, lemma, pos, _) in enumerate(sent)])
            for ti, (_, lemma, _, cls) in enumerate(sent):
                if cls is not None:
                    tags[(doc.doc_id, si, ti)] = SenseTag(doc.doc_id, si, ti, lemma, "noun",
                                                          "s1", cls, 0.0, "bayes")
        docs.append(doc)
    return docs, tags


kwic_constraints = st.lists(st.one_of(
    st.tuples(st.just("word"), st.sampled_from(["a", "b|B", "[ab]+", "a.*", "x"])),
    st.tuples(st.just("lemma"), st.sampled_from(_KWIC_LEMMAS + ("z",))),
    st.tuples(st.just("pos"), st.sampled_from(_KWIC_POS + ("PUNCT",))),
    st.tuples(st.just("class"), st.sampled_from(_KWIC_CLASSES + ("PER",)))),
    min_size=1, max_size=4)


def naive_kwic(docs: list[Document], tags, constraints, width: int) -> list[tuple]:
    """KWIC lines as plain tuples: for each sentence, a left-to-right scan
    that jumps past each match; context is cut from the whole document."""
    def fits(tok, kind, value):
        if kind == "word":
            return re.fullmatch(value, tok.surface) is not None
        if kind == "lemma":
            return tok.lemma == value
        if kind == "pos":
            return tok.pos == value
        tag = tags.get((tok.doc_id, tok.sent_idx, tok.tok_idx))
        return tag is not None and tag.coarse_class == value

    out = []
    m = len(constraints)
    for doc in docs:
        places = [(si, ti) for si, sent in enumerate(doc.sentences) for ti in range(len(sent))]
        words = [tok.surface for sent in doc.sentences for tok in sent]
        for si, sent in enumerate(doc.sentences):
            i = 0
            while i + m <= len(sent):
                if all(fits(sent[i + k], kind, value)
                       for k, (kind, value) in enumerate(constraints)):
                    at = places.index((si, i))
                    out.append((doc.doc_id, sent[i].sent_idx, i, i + m,
                                tuple(words[max(0, at - width):at]),
                                tuple(words[at:at + m]),
                                tuple(words[at + m:at + m + width])))
                    i += m
                else:
                    i += 1
    return out


# ------------------------------------------------ sense-tagged corpora

_TAG_COLUMNS = ("-", "-", "s1/ORG/bayes", "s2/LOC/ospd", "fg1/EV/foreground",
                "s1/PER/unambiguous")
_TAGGED_POS = ("NN", "NNP", "PRON", "VBD", "ADJ", "DET", "PUNCT")


@st.composite
def tagged_vertical_corpora(draw):
    """4-column vertical text: an optional implicit first document, then
    `#DOC` blocks of sentences split by one or more blank lines, with
    comments; tag columns drawn from valid ones and `-`."""
    token = st.tuples(st.text("abXY1.", min_size=1, max_size=4),
                      st.text("ab", min_size=1, max_size=3),
                      st.sampled_from(_TAGGED_POS), st.sampled_from(_TAG_COLUMNS))
    lines = []
    implicit = draw(st.booleans())
    for d in range(draw(st.integers(0, 4))):
        if d or not implicit:
            lines.append(f"#DOC doc{d}")
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                lines.append("# a comment")
            lines.extend("\t".join(t) for t in draw(st.lists(token, min_size=1, max_size=5)))
            lines.extend([""] * draw(st.integers(1, 2)))
    return "\n".join(lines) + "\n"


def two_pass_tagged_read(text: str):
    """The tagged-corpus reader as it was, in two passes: the 3-column
    reader over the text without its tag columns, then each token's tag
    column decoded in input order.  For well-formed input only."""
    three, columns = [], []
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            three.append(line)
        else:
            head, _, column = line.rpartition("\t")
            three.append(head)
            columns.append(column)
    docs = read_corpus("\n".join(three))
    tokens = [tok for doc in docs for sent in doc.sentences for tok in sent]
    assert len(tokens) == len(columns)
    tags = {}
    for tok, column in zip(tokens, columns):
        if column != "-":
            sense_id, cls, method = column.split("/")
            tags[(tok.doc_id, tok.sent_idx, tok.tok_idx)] = SenseTag(
                tok.doc_id, tok.sent_idx, tok.tok_idx, tok.lemma,
                LEXICON_POS.get(tok.pos) or "noun", sense_id, cls, 0.0, method)
    return docs, tags


# ------------------------------------------------------ loader mutations

_FRAGMENTS = ("->", ":", "=", "isa", "not", "#", "@before", "@after", "p(a", "p()",
              "a:b", "x=", "subj=", "obj=", "1", "-1", "nan", "1e999", "")


@st.composite
def one_line_mutations(draw, text: str) -> str:
    """`text` with one line replaced: by a copy of itself with a word
    replaced, dropped or inserted, by a line of the file's own words and
    format fragments, or by another line of the file."""
    lines = text.splitlines()
    word = st.one_of(st.sampled_from(_FRAGMENTS),
                     st.sampled_from(sorted({w for line in lines for w in line.split()})))
    at = draw(st.integers(0, len(lines)))
    # a replaced word is the edit most likely to reach a field's own check
    how = draw(st.sampled_from(["replace"] * 3 + ["drop", "insert", "words", "copy"]))
    old = lines[at] if at < len(lines) else ""
    toks = old.split()
    if how in ("replace", "drop") and toks:
        i = draw(st.integers(0, len(toks) - 1))
        toks[i:i + 1] = [draw(word)] if how == "replace" else []
    elif how in ("replace", "drop", "insert"):
        toks.insert(draw(st.integers(0, len(toks))), draw(word))
    elif how == "words":
        old, toks = draw(st.sampled_from(["", "  "])), draw(st.lists(word, max_size=6))
    else:
        old, toks = draw(st.sampled_from(lines)), None
    new = old if toks is None else old[:len(old) - len(old.lstrip())] + " ".join(toks)
    lines[at:at + 1] = [new]
    return "\n".join(lines) + "\n"


# ------------------------------------------------- background collapse

@st.composite
def collapse_cases(draw):
    """(lexicon, collapse map, ontology, lexicon text): a small class forest,
    a noun and a verb scheme over some of its classes (and a class it lacks),
    `map` lines, and senses in shuffled order with restrictions and trailing
    comments, several often landing on one coarse class."""
    n = draw(st.integers(1, 8))
    classes = {}
    for i in range(n):
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None
        classes[f"C{i}"] = SemClass(f"C{i}", None if parent is None else f"C{parent}")
    onto = Ontology(classes, {})
    names = [*classes, "ODD"]  # ODD is in no ontology
    noun = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    verb = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    lines = [f"scheme {pos} {' '.join(ids)}" for pos, ids in (("noun", noun), ("verb", verb))
             if ids]
    scheme = [*noun, *verb]
    rest = [c for c in names if c not in scheme]
    if scheme and rest:
        for fine in draw(st.lists(st.sampled_from(rest), unique=True)):
            lines.append(f"map {fine} -> {draw(st.sampled_from(scheme))}")
    cmap = load_collapse_map("\n".join(lines) + "\n")
    senses = []
    for lemma in draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True)):
        for pos in draw(st.lists(st.sampled_from(BG_POS), min_size=1, max_size=2, unique=True)):
            for sid in draw(st.lists(st.sampled_from(["s1", "s2", "s3", "s10", "x"]),
                                     min_size=1, max_size=4, unique=True)):
                line = f"{lemma} {pos} {sid} {draw(st.sampled_from(names))}"
                for field in ("subj", "obj"):
                    if draw(st.booleans()):
                        line += f" {field}={draw(st.sampled_from(names))}"
                if draw(st.booleans()):
                    line += f" # a comment on {sid}"
                senses.append(line)
    text = "\n".join(draw(st.permutations(senses))) + "\n"
    lex = load_bg_lexicon(text)
    for key in lex.senses_by_key:  # collapse may get a lexicon in any order
        lex.senses_by_key[key] = draw(st.permutations(lex.senses_by_key[key]))
    return lex, cmap, onto, text


def collapse_oracle(lex, cmap, onto, text):
    """`collapse` by hand, sense by sense: each fine class's image is the
    first mapped class up its parent chain; of the senses without one, with
    one outside its part of speech's scheme, or with one the ontology lacks,
    the first in file order fails at the line of `text` that declares it.
    Each coarse class keeps its lowest sense id, and the key's senses are in
    sense-id order."""
    line_of = {tuple(line.split()[:3]): n for n, line in enumerate(text.splitlines(), 1)}
    out, problems = {}, []
    for (lemma, pos), senses in lex.senses_by_key.items():
        images = []
        for s in senses:
            cur, coarse = s.fine_class, None
            while cur is not None and coarse is None:
                coarse = cmap.mapping.get(cur)
                cur = onto.classes[cur].parent if cur in onto.classes else None
            where = f"{lemma}/{pos}/{s.sense_id}"
            at = {"path": "<string>", "line": line_of[(lemma, pos, s.sense_id)]}
            scheme = {"noun": cmap.noun_classes, "verb": cmap.verb_classes}.get(pos)
            if coarse is None:
                problems.append(ParseError(f"{where}: fine class {s.fine_class} has no "
                                           f"coarse image (even via ancestors)", **at))
            elif scheme is not None and coarse not in scheme:
                problems.append(ParseError(f"{where}: {s.fine_class} collapses to {coarse}, "
                                           f"which is not in the {pos} scheme", **at))
            elif coarse not in onto.classes:
                problems.append(ParseError(f"{where}: {s.fine_class} collapses to {coarse}, "
                                           f"which is not an ontology class", **at))
            else:
                images.append(s._replace(coarse_class=coarse))
        lowest = {}
        for s in images:
            if s.coarse_class not in lowest or s.sense_id < lowest[s.coarse_class].sense_id:
                lowest[s.coarse_class] = s
        out[(lemma, pos)] = sorted(lowest.values(), key=lambda s: s.sense_id)
    if problems:
        raise min(problems, key=lambda p: p.line)
    return out


# ------------------------------------------- generated classifier inputs

_TRAIN_CLASSES = ("ACT", "LOC", "ORG", "PER")
_TRAIN_POS = ("NN", "NN", "NNP", "VBD", "DET", "PUNCT")


@st.composite
def training_sets(draw, verbs: bool = False):
    """(docs, collapsed background lexicon): a few lemmas, each with zero to
    two noun senses over a few coarse classes, in short documents.  With
    `verbs`, each lemma also gets zero to two verb senses, so a document's
    tokens of one lemma can hold tags of both parts of speech."""
    classes = draw(st.lists(st.sampled_from(_TRAIN_CLASSES), min_size=1,
                            max_size=len(_TRAIN_CLASSES), unique=True))
    lemmas = draw(st.lists(st.text("abcde", min_size=1, max_size=2), min_size=2,
                           max_size=10, unique=True))
    bg = BgLexicon(collapsed=True)
    for lemma in lemmas:
        for pos, prefix in (("noun", "s"), ("verb", "v"))[:1 + verbs]:
            own = draw(st.lists(st.sampled_from(classes), max_size=2, unique=True))
            if own:
                bg.senses_by_key[(lemma, pos)] = [
                    BgSense(lemma, pos, f"{prefix}{i}", cls, cls)
                    for i, cls in enumerate(own, 1)]
    token = st.tuples(st.sampled_from(lemmas), st.sampled_from(_TRAIN_POS))
    docs = [make_doc(f"d{d}", draw(st.lists(st.lists(token, min_size=1, max_size=12),
                                            min_size=1, max_size=3)))
            for d in range(draw(st.integers(1, 3)))]
    return docs, bg


# ------------------------------------------------------ foreground matcher

_MATCH_CLASSES = ("C0", "C1", "C2", "C3", "C4")
_MATCH_ROLES = ("a", "b", "c")
_MATCH_RELATIONS = ("subj", "dobj", "iobj", "pp:from", "pp:by")
_MATCH_CHUNKS = ([("the", "DET"), ("n0", "NN")], [("n1", "NN")], [("n2", "NNP")],
                 [("it", "PRON")], [("v0", "VBD")], [("be", "BE"), ("v0", "VBN")],
                 [("be", "BE"), ("now", "ADV"), ("v1", "VBN")], [("v1", "VB")],
                 [("by", "PREP")], [("from", "PREP")], [(".", "PUNCT")])
_MATCH_WORDS = sorted({lemma for chunk in _MATCH_CHUNKS for lemma, _ in chunk})
_MATCH_NPS = _MATCH_CHUNKS[:3]
_MATCH_ACTIVE_VERBS = ([("v0", "VBD")], [("v1", "VB")])


@st.composite
def matcher_cases(draw, clauses: bool = False):
    """The arguments of `match_foreground`, by name: a small class tree; up to three competing foreground
    senses per verb, each with its own restrictions, required and optional
    roles, complement map and discriminator rules; general background senses
    with subject and object restrictions, some naming no class; sentences
    of a few chunks each, whose nouns are tagged with a class or untagged.
    With `clauses`, each sentence is a noun phrase, an active verb and a
    noun phrase, a document has three to six of them, and every noun is
    tagged."""
    cls = st.sampled_from(_MATCH_CLASSES)
    onto = Ontology({c: SemClass(c, draw(st.sampled_from(_MATCH_CLASSES[:i])) if i else None)
                     for i, c in enumerate(_MATCH_CLASSES)}, {})
    fg, bg = FgLexicon(), BgLexicon(collapsed=True)
    for verb in ("v0", "v1"):
        reals = []
        for k in range(draw(st.integers(verb == "v0", 3))):
            roles = draw(st.lists(st.sampled_from(_MATCH_ROLES), min_size=1, max_size=3,
                                  unique=True))
            rules = draw(st.lists(st.builds(
                DecisionRule, st.sampled_from(("word_left", "word_right", "word_in_window")),
                st.sampled_from(_MATCH_WORDS), st.sampled_from(("s0", "s1", "s2", "s9")),
                st.just(1.0)), max_size=3))
            node = ConceptNode(f"K-{verb}-{k}", "S",
                               tuple(ArgSpec(role, draw(cls), None, draw(st.booleans()))
                                     for role in roles), (), None, tuple(rules))
            fg.concepts[node.id] = node
            cmap = draw(st.dictionaries(st.sampled_from(_MATCH_RELATIONS),
                                        st.sampled_from(roles), max_size=3))
            reals.append(Realization(verb, "verb", "en", f"s{k}", node.id, cmap,
                                     effective=node))
        if reals:
            fg.realizations[(verb, "verb", "en")] = reals
        restriction = st.sampled_from(_MATCH_CLASSES + (None, "UNKNOWN"))
        bg.senses_by_key[(verb, "verb")] = [
            BgSense(verb, "verb", f"b{j}", "ACT", "ACT", draw(restriction),
                    draw(restriction)) for j in range(draw(st.integers(0, 2)))]
    if clauses:
        noun_phrase = st.sampled_from(_MATCH_NPS)
        chunks = st.tuples(noun_phrase, st.sampled_from(_MATCH_ACTIVE_VERBS), noun_phrase,
                           st.just([(".", "PUNCT")]))
    else:
        chunks = st.lists(st.sampled_from(_MATCH_CHUNKS), min_size=1, max_size=6)
    sentence = chunks.map(lambda chunks: [tok for chunk in chunks for tok in chunk])
    analyses, tags = [], {}
    for d in range(draw(st.integers(1, 2))):
        doc = make_doc(f"d{d}", draw(st.lists(sentence, min_size=1 + 2 * clauses,
                                              max_size=3 + 3 * clauses)))
        for tok in doc.tokens():
            if LEXICON_POS.get(tok.pos) == "noun":
                tag_class = draw(cls if clauses else st.one_of(st.none(), cls, cls))
                if tag_class is not None:
                    tags[(doc.doc_id, tok.sent_idx, tok.tok_idx)] = SenseTag(
                        doc.doc_id, tok.sent_idx, tok.tok_idx, tok.lemma, "noun", "n",
                        tag_class, 0.0, "bayes")
        analyses.append(analyze(doc))
    return dict(analyses=analyses, fg=fg, tags=tags, onto=onto, bg=bg,
                passive_lone=draw(st.booleans()), window=draw(st.integers(1, 4)))


def matcher_oracle(analyses, fg, tags, onto, bg, passive_lone, window):
    """Brute-force foreground selection: for every verb group, every
    foreground sense whose filled roles are class-compatible with its
    restrictions and whose required roles are filled (a passive may leave
    its agent, or with passive_lone every role of a bare passive, unfilled).

    Returns (matches, abstentions) in document order: a match is
    (doc_id, sent_idx, verb_idx, realization, bindings, implicature,
    competitors, survivors, trigger lemma), an abstention is
    (doc_id, sent_idx, verb lemma, number of fits).  One fit matches;
    several are decided by the first discriminator rule, in sense and then
    rule order, whose feature occurs around the verb, if it names a sense
    that fits; otherwise the verb group abstains.
    """
    def compatible(a: str, b: str) -> bool:
        return chain_walk_subsumes(onto, a, b) or chain_walk_subsumes(onto, b, a)

    matches, abstentions = [], []
    for analysis in analyses:
        doc = analysis.doc
        lemmas = [tok.lemma for sent in doc.sentences for tok in sent]
        offset = 0
        for si, sa in enumerate(analysis.sentences):
            for vg in sa.chunks:
                verb = sa.tokens[vg.head_idx]
                reals = fg.realizations.get((verb.lemma.lower(), "verb", "en"), [])
                if vg.kind != "VG" or not reals:
                    continue
                passive = verb.pos == "VBN" and any(
                    tok.pos == "BE" for tok in sa.tokens[vg.start:vg.head_idx])
                swap = {"subj": "dobj", "agent_by": "subj"} if passive else {}
                deps = [(swap.get(rel.relation, rel.relation), rel.dependent_idx)
                        for rel in sa.relations if rel.verb_idx == vg.head_idx]

                def class_of(idx):
                    tag = tags.get((doc.doc_id, si, idx))
                    return None if tag is None else tag.coarse_class

                fits = []
                for real in reals:
                    fills = {}
                    for key, dep in deps:
                        role = real.complement_map.get(key)
                        if role is not None and role not in fills:
                            fills[role] = dep
                    bindings, implicature = {}, False
                    for arg in real.effective.args:
                        if arg.role in fills:
                            c = class_of(fills[arg.role])
                            if c is None or not compatible(c, arg.restriction):
                                break
                            bindings[arg.role] = fills[arg.role]
                        elif not arg.required:
                            bindings[arg.role] = UNFILLED
                        elif passive and (arg.role == real.complement_map.get("subj")
                                          or (passive_lone and not fills)):
                            bindings[arg.role] = UNFILLED
                            implicature = True
                        else:
                            break
                    else:
                        fits.append((real, bindings, implicature))

                observed = {}
                for key, dep in deps:
                    if key in ("subj", "dobj") and key not in observed:
                        observed[key] = class_of(dep)
                general = sum(
                    all(r is None or observed.get(gr) is None
                        or (r in onto.classes and compatible(observed[gr], r))
                        for gr, r in (("subj", sense.subj_restriction),
                                      ("dobj", sense.obj_restriction)))
                    for sense in bg.senses_by_key.get((verb.lemma.lower(), "verb"), []))

                chosen = fits[0] if len(fits) == 1 else None
                if len(fits) > 1:
                    at = offset + vg.head_idx
                    near = {j for j in range(at - window, at + window + 1)
                            if j != at and 0 <= j < len(lemmas)}
                    features = {("word_in_window", lemmas[j]) for j in near}
                    features |= {(kind, lemmas[j]) for kind, j in
                                 (("word_left", at - 1), ("word_right", at + 1)) if j in near}
                    decided = next((rule.sense_id for real, _, _ in fits
                                    for rule in real.effective.discriminators
                                    if (rule.kind, rule.value) in features), None)
                    chosen = next((fit for fit in fits if fit[0].sense_id == decided), None)
                    if chosen is None:
                        abstentions.append((doc.doc_id, si, verb.lemma, len(fits)))
                if chosen is not None:
                    real, bindings, implicature = chosen
                    matches.append((doc.doc_id, si, vg.head_idx, real, bindings, implicature,
                                    len(fits) - 1, len(fits) + general, verb.lemma))
            offset += len(sa.tokens)
    return matches, abstentions


# ----------------------------------------------------------------- tuner

def ejection_oracle(docs, bg, tags, min_occurrences):
    """Brute-force ejections.  Every token whose lemma has senses under its
    lexicon part of speech is an occurrence; a lemma that occurs at least
    `min_occurrences` times loses each sense no occurrence is tagged with."""
    occurrences, assigned = Counter(), set()
    for doc in docs:
        for tok in doc.tokens():
            pos = LEXICON_POS.get(tok.pos)
            if pos is None or not bg.entries(tok.lemma, pos):
                continue
            key = (tok.lemma.lower(), pos)
            occurrences[key] += 1
            tag = tags.get((doc.doc_id, tok.sent_idx, tok.tok_idx))
            if tag is not None:
                assigned.add((*key, tag.sense_id))
    out = {}
    for key, count in occurrences.items():
        if count < min_occurrences:
            continue
        gone = {s.sense_id for s in bg.senses_by_key[key]
                if (*key, s.sense_id) not in assigned}
        if gone:
            out[key] = gone
    return out


# ---------------------------------------------------------------- shards

# every line break of str.splitlines
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")


def document_cuts_oracle(lines: list[str], doc_id: str) -> list[int]:
    """The index of the first line of each document block, then the number
    of lines, found by a loop over every line.  A block starts at a `#DOC`
    line; a malformed or repeated one (the preamble before the first
    `#DOC` line, if it holds a token line, is a document named `doc_id`)
    makes the corpus one block."""
    starts = [i for i, line in enumerate(lines)
              if line[:4] == "#DOC" and line.split()[0] == "#DOC"]
    seen = set()
    if starts and any(line.strip() and line[0] != "#" for line in lines[:starts[0]]):
        seen.add(doc_id)
    for i in starts:
        parts = lines[i].split()
        if len(parts) != 2 or parts[1] in seen:
            return [0, len(lines)]
        seen.add(parts[1])
    return [0, *starts[1:], len(lines)]


@st.composite
def corpus_texts(draw):
    """Vertical corpus text whose lines, `#DOC` lines well-formed or not
    among them, end in any of str.splitlines's line breaks."""
    lines = draw(st.lists(st.sampled_from(
        ["#DOC a", "#DOC b", "#DOC c", "#DOC t", "#DOC", "#DOC a b", "#DOCa", " #DOC c",
         "#DOC\x1fc", "#DOC\tb ", "# note", "", "  ", "firm\tfirm\tNN", "x#DOC a"]),
        max_size=12))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    if breaks and draw(st.booleans()):
        breaks[-1] = ""  # no break after the last line
    return "".join(line + brk for line, brk in zip(lines, breaks))
