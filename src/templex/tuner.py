"""Domain tuning of the background lexicon: sense ejection.

Train the background classifier on the domain corpus, tag every occurrence,
then eject the senses of well-attested lemmas that were never assigned.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from . import wsd
from .bg_lexicon import BG_POS, BgLexicon, add_sense_line, sense_line
from .errors import ParseError, format_float, parse_number
from .textpipe import Document
# `tune` calls the classifier through the `wsd` module, as `cli` does, so it
# calls what `wsd` holds at the time, even a function replaced there before
# this module was imported.  `perfbench/tracing.py` still patches these
# names here.
from .wsd import apply_ospd, disambiguate_background, train_bayes  # noqa: F401


class TuneParams(NamedTuple):
    min_occurrences: int = 5
    window: int = 10
    alpha: float = 0.1
    ospd: bool = True

    def validate(self) -> None:
        for name in ("min_occurrences", "window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be {'positive' if self.alpha <= 0 else 'finite'}")


class TunedLexicon:
    __slots__ = ("base", "ejected", "corpus_id", "params")

    def __init__(self, base: BgLexicon,
                 ejected: dict[tuple[str, str], set[str]] | None = None,
                 corpus_id: str = "", params: TuneParams = TuneParams()):
        self.base = base
        self.ejected = {} if ejected is None else ejected
        self.corpus_id = corpus_id
        self.params = params


def tune(bg: BgLexicon, docs: list[Document], params: TuneParams | None = None,
         *, corpus_id: str = "") -> TunedLexicon:
    """Eject unattested senses.

    A sense is ejected iff its lemma occurs at least min_occurrences times
    (with a part of speech the lexicon knows) and the sense was assigned to
    zero occurrences.  A lemma attested in the corpus always keeps at least
    one sense: each occurrence is tagged, and its tag names a sense of the
    occurrence's own (lemma, pos), which is thereby assigned.
    """
    params = params or TuneParams()
    params.validate()
    if not bg.collapsed:
        raise ValueError("tune requires a collapsed background lexicon")
    if not any(doc.sentences for doc in docs):
        raise ValueError("empty corpus")
    model = wsd.train_bayes(docs, bg, params.window, params.alpha)
    tags = wsd.disambiguate_background(model, docs, bg)
    if params.ospd:
        tags = wsd.apply_ospd(tags, bg)
    return finish(bg, [count_senses(tags)], params, corpus_id)


def count_senses(tags: dict) -> tuple:
    """(occurrences per (lemma, pos), assignments per (lemma, pos, sense id))
    of a tagging: sums over tags, so a corpus's counts merge from its parts'."""
    occurrences: Counter = Counter()          # (lemma, pos) -> corpus count
    assigned: Counter = Counter()             # (lemma, pos, sense_id) -> count
    # the background pass tags exactly the tokens whose lexicon pos has
    # senses, and OSPD keeps every key: the tags are the occurrences
    for tag in tags.values():
        # keyed like bg.senses_by_key, whose lemmas are lowercase
        key = (tag.lemma.lower(), tag.pos)
        occurrences[key] += 1
        assigned[(*key, tag.sense_id)] += 1
    return occurrences, assigned


def finish(bg: BgLexicon, parts: list, params: TuneParams,
           corpus_id: str = "") -> TunedLexicon:
    """The tuned lexicon of a corpus from the `count_senses` counts of its parts."""
    occurrences, assigned = parts[0]
    for more in parts[1:]:  # merged into the first part's counts
        occurrences.update(more[0])
        assigned.update(more[1])
    ejected: dict[tuple[str, str], set[str]] = {}
    for key, senses in bg.senses_by_key.items():
        if occurrences.get(key, 0) < params.min_occurrences:
            continue
        gone = {s.sense_id for s in senses
                if assigned.get((key[0], key[1], s.sense_id), 0) == 0}
        if gone:
            ejected[key] = gone
    return TunedLexicon(bg, ejected, corpus_id, params)


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
             f"alpha={format_float(p.alpha)} ospd={str(p.ospd).lower()}"]
    for key in sorted(tuned.base.senses_by_key):
        lines.extend("sense " + sense_line(s, tuned.base.collapsed)
                     for s in tuned.base.senses_by_key[key])
    for key in sorted(tuned.ejected):
        for sid in sorted(tuned.ejected[key]):
            lines.append(f"eject {key[0]} {key[1]} {sid}")
    return "\n".join(lines) + "\n"


_PARAM_TYPES = {"min_occurrences": int, "window": int, "alpha": float, "ospd": bool}


def load_tuned_lexicon(text: str, path: str = "<string>") -> TunedLexicon:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "tunedlex v1":
        raise ParseError("not a tunedlex v1 file", path=path, line=1)
    base = BgLexicon(collapsed=True, path=path)
    tuned = TunedLexicon(base)
    refs = []  # ((lemma, pos, sense_id), line) of each eject line
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
                typ = _PARAM_TYPES.get(k)
                if typ is None:
                    raise ParseError(f"param {k!r} is no longer read; re-run tune" if k == "top_k"
                                     else f"unknown param {k!r}", path=path, line=lineno)
                if k in given:
                    raise ParseError(f"param {k!r} given twice", path=path, line=lineno)
                given.add(k)
                if typ is bool and v not in ("true", "false"):
                    raise ParseError(f"bad boolean {v!r}", path=path, line=lineno)
                value = v == "true" if typ is bool else parse_number(typ, v, path=path, line=lineno)
                tuned.params = tuned.params._replace(**{k: value})
            try:
                tuned.params.validate()
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
        elif kind == "sense":
            base.lines[add_sense_line(base, parts[1:], path, lineno)] = lineno
        elif kind == "eject" and len(parts) == 4:
            # keyed like the sense lines, whose lemmas are lowercased
            ref = (parts[1].lower(), parts[2], parts[3])
            if ref[1] not in BG_POS:
                raise ParseError(f"bad pos {ref[1]!r}", path=path, line=lineno)
            refs.append((ref, lineno))
            tuned.ejected.setdefault(ref[:2], set()).add(ref[2])
        elif kind == "disc":
            # older tune runs wrote discriminator lists: say how to drop them
            raise ParseError("disc lines are no longer read; re-run tune",
                             path=path, line=lineno)
        else:
            raise ParseError(f"bad tunedlex line {line!r}", path=path, line=lineno)
    # an ejection must name a sense some line declares
    declared = {(s.lemma, s.pos, s.sense_id)
                for senses in base.senses_by_key.values() for s in senses}
    for ref, lineno in refs:
        if ref not in declared:
            raise ParseError(f"undeclared sense {'/'.join(ref)}", path=path, line=lineno)
    for senses in base.senses_by_key.values():
        senses.sort(key=lambda s: s.sense_id)
    return tuned
