"""Domain tuning of the background lexicon: sense ejection + discriminators.

Train the background classifier on the domain corpus, tag every occurrence,
then eject the senses of well-attested lemmas that were never assigned.
Surviving senses pick up discriminator lists: the context lemmas most
strongly associated with the sense's class among words actually co-occurring
with the lemma.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import NamedTuple

from . import wsd
from .bg_lexicon import BG_POS, BgLexicon, add_sense_line, sense_line
from .errors import ParseError, format_float, parse_number
from .textpipe import Document
from .wsd import BayesModel, _doc_positions, _lemma_row
# `tune` calls the classifier through the `wsd` module, as `cli` does, so it
# calls what `wsd` holds at the time, even a function replaced there before
# this module was imported.  `perfbench/tracing.py` still patches these
# names here.
from .wsd import apply_ospd, disambiguate_background, train_bayes  # noqa: F401


class TuneParams(NamedTuple):
    min_occurrences: int = 5
    window: int = 10
    alpha: float = 0.1
    top_k: int = 10

    def validate(self) -> None:
        for name in ("min_occurrences", "window", "top_k"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be {'positive' if self.alpha <= 0 else 'finite'}")


class TunedLexicon:
    __slots__ = ("base", "ejected", "discriminators", "corpus_id", "params")

    def __init__(self, base: BgLexicon,
                 ejected: dict[tuple[str, str], set[str]] | None = None,
                 discriminators: dict[tuple[str, str, str], list[tuple[str, float]]]
                 | None = None,
                 corpus_id: str = "", params: TuneParams = TuneParams()):
        self.base = base
        self.ejected = {} if ejected is None else ejected
        self.discriminators = {} if discriminators is None else discriminators
        self.corpus_id = corpus_id
        self.params = params


def tune(bg: BgLexicon, docs: list[Document], params: TuneParams | None = None,
         *, corpus_id: str = "", use_ospd: bool = True,
         model: BayesModel | None = None) -> TunedLexicon:
    """Eject unattested senses and attach per-sense salient-word lists.

    A sense is ejected iff its lemma occurs at least min_occurrences times
    (with a part of speech the lexicon knows) and the sense was assigned to
    zero occurrences.  A lemma attested in the corpus always keeps at least
    one sense.
    """
    params = params or TuneParams()
    params.validate()
    if not bg.collapsed:
        raise ValueError("tune requires a collapsed background lexicon")
    if not any(doc.sentences for doc in docs):
        raise ValueError("empty corpus")
    if model is None:
        model = wsd.train_bayes(docs, bg, params.window, params.alpha)
    tags = wsd.disambiguate_background(model, docs, bg)
    if use_ospd:
        tags = wsd.apply_ospd(tags, bg)
    return finish(bg, [count_senses(docs, tags, params.window)], model, params, corpus_id)


def count_senses(docs: list[Document], tags: dict, window: int) -> tuple:
    """(occurrences per (lemma, pos), assignments per (lemma, pos, sense id),
    context lemmas per (lemma, pos)) of the tagged `docs`: sums and unions
    over documents, so a corpus's counts merge from its parts'."""
    occurrences: Counter = Counter()          # (lemma, pos) -> corpus count
    assigned: Counter = Counter()             # (lemma, pos, sense_id) -> count
    cooc: dict[tuple[str, str], set[str]] = defaultdict(set)
    # the background pass tags exactly the tokens whose lexicon pos has
    # senses, and OSPD keeps every key: the tags are the occurrences
    for doc in docs:
        flat = _doc_positions(doc)
        row = _lemma_row(flat)
        for i, tok in enumerate(flat):
            tag = tags.get((doc.doc_id, tok.sent_idx, tok.tok_idx))
            if tag is None:
                continue
            # keyed like bg.senses_by_key, whose lemmas are lowercase
            key = (tag.lemma.lower(), tag.pos)
            occurrences[key] += 1
            assigned[(*key, tag.sense_id)] += 1
            context = cooc[key]
            context.update(row[max(0, i - window):i])
            context.update(row[i + 1:i + window + 1])
    for context in cooc.values():
        context.discard(None)  # punctuation's place in the row
    return occurrences, assigned, dict(cooc)


def finish(bg: BgLexicon, parts: list, model: BayesModel, params: TuneParams,
           corpus_id: str = "") -> TunedLexicon:
    """The tuned lexicon of a corpus from the `count_senses` counts of its
    parts, in order, and its model."""
    occurrences, assigned, cooc = parts[0]
    for more in parts[1:]:  # merged into the first part's counts
        occurrences.update(more[0])
        assigned.update(more[1])
        for key, lemmas in more[2].items():
            cooc.setdefault(key, set()).update(lemmas)
    ejected: dict[tuple[str, str], set[str]] = {}
    for key, senses in bg.senses_by_key.items():
        if occurrences.get(key, 0) < params.min_occurrences:
            continue
        gone = {s.sense_id for s in senses
                if assigned.get((key[0], key[1], s.sense_id), 0) == 0}
        if len(gone) == len(senses):
            # safety: never eject every sense of an attested lemma
            keep = min(s.sense_id for s in senses)
            gone.discard(keep)
        if gone:
            ejected[key] = gone

    discriminators: dict[tuple[str, str, str], list[tuple[str, float]]] = {}
    vocab = model.vocab
    for key, senses in bg.senses_by_key.items():
        # a lemma holding "," would split its item of the `disc` line
        context = [w for w in cooc.get(key, ()) if w in vocab and "," not in w]
        if not context:
            continue
        gone = ejected.get(key, set())
        for s in senses:
            table = model.by_class.get(s.coarse_class)
            if s.sense_id in gone or table is None:
                continue
            # heaviest first, ties by lemma: sorting (-weight, lemma) pairs
            # needs no key function, and fixes the order the set gave
            ranked = sorted([(-table[w], w) for w in context])
            top = [(w, -neg) for neg, w in ranked[:params.top_k]]
            if top:
                discriminators[(key[0], key[1], s.sense_id)] = top

    return TunedLexicon(bg, ejected, discriminators, corpus_id, params)


def apply_tuning(tuned: TunedLexicon) -> BgLexicon:
    """The base lexicon without its ejected senses; the base is left untouched."""
    out = BgLexicon(collapsed=tuned.base.collapsed)
    for key, senses in tuned.base.senses_by_key.items():
        gone = tuned.ejected.get(key, set())
        kept = [s for s in senses if s.sense_id not in gone]
        if kept:
            out.senses_by_key[key] = kept
    return out


# ---------------------------------------------------------- persistence

def save_tuned_lexicon(tuned: TunedLexicon) -> str:
    """Text dump that round-trips bit-exactly through load_tuned_lexicon."""
    p = tuned.params
    lines = ["tunedlex v1",
             f"corpus {tuned.corpus_id or '-'}",
             f"params min_occurrences={p.min_occurrences} window={p.window} "
             f"alpha={format_float(p.alpha)} top_k={p.top_k}"]
    for key in sorted(tuned.base.senses_by_key):
        lines.extend("sense " + sense_line(s, tuned.base.collapsed)
                     for s in tuned.base.senses_by_key[key])
    for key in sorted(tuned.ejected):
        for sid in sorted(tuned.ejected[key]):
            lines.append(f"eject {key[0]} {key[1]} {sid}")
    for (lemma, pos, sid) in sorted(tuned.discriminators):
        pairs = ",".join(f"{w}:{weight:.6f}"
                         for w, weight in tuned.discriminators[(lemma, pos, sid)])
        lines.append(f"disc {lemma} {pos} {sid} {pairs}")
    return "\n".join(lines) + "\n"


_PARAM_TYPES = {"min_occurrences": int, "window": int, "alpha": float, "top_k": int}


def load_tuned_lexicon(text: str, path: str = "<string>") -> TunedLexicon:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "tunedlex v1":
        raise ParseError("not a tunedlex v1 file", path=path, line=1)
    base = BgLexicon(collapsed=True)
    tuned = TunedLexicon(base)
    refs = []  # ((lemma, pos, sense_id), line) of each eject and disc line
    given = set()  # "corpus" and each param key read so far: each is read once
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "corpus" and len(parts) == 2:
            if kind in given:
                raise ParseError("second corpus line", path=path, line=lineno)
            given.add(kind)
            tuned.corpus_id = "" if parts[1] == "-" else parts[1]
        elif kind == "params":
            for tok in parts[1:]:
                k, _, v = tok.partition("=")
                number = _PARAM_TYPES.get(k)
                if number is None:
                    raise ParseError(f"unknown param {k!r}", path=path, line=lineno)
                if k in given:
                    raise ParseError(f"param {k!r} given twice", path=path, line=lineno)
                given.add(k)
                tuned.params = tuned.params._replace(
                    **{k: parse_number(number, v, path=path, line=lineno)})
            try:
                tuned.params.validate()
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
        elif kind == "sense":
            add_sense_line(base, parts[1:], path, lineno)
        elif (kind, len(parts)) in (("eject", 4), ("disc", 5)):
            # keyed like the sense lines, whose lemmas are lowercased
            ref = (parts[1].lower(), parts[2], parts[3])
            if ref[1] not in BG_POS:
                raise ParseError(f"bad pos {ref[1]!r}", path=path, line=lineno)
            refs.append((ref, lineno))
            if kind == "eject":
                tuned.ejected.setdefault(ref[:2], set()).add(ref[2])
            else:
                pairs = []
                for item in parts[4].split(","):
                    w, _, weight = item.rpartition(":")
                    weight = parse_number(float, weight, path=path, line=lineno)
                    if not w:
                        raise ParseError(f"empty lemma in disc item {item!r}",
                                         path=path, line=lineno)
                    pairs.append((w, weight))
                if ref in tuned.discriminators:
                    raise ParseError(f"second disc line for {'/'.join(ref)}",
                                     path=path, line=lineno)
                tuned.discriminators[ref] = pairs
        else:
            raise ParseError(f"bad tunedlex line {line!r}", path=path, line=lineno)
    # an ejection or a discriminator list must name a sense some line declares
    declared = {(s.lemma, s.pos, s.sense_id)
                for senses in base.senses_by_key.values() for s in senses}
    for ref, lineno in refs:
        if ref not in declared:
            raise ParseError(f"undeclared sense {'/'.join(ref)}", path=path, line=lineno)
    for senses in base.senses_by_key.values():
        senses.sort(key=lambda s: s.sense_id)
    return tuned
