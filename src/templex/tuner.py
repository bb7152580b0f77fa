"""Domain tuning of the background lexicon: sense ejection + discriminators.

Train the background classifier on the domain corpus, tag every occurrence,
then eject the senses of well-attested lemmas that were never assigned.
Surviving senses pick up discriminator lists: the context lemmas most
strongly associated with the sense's class among words actually co-occurring
with the lemma.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .bg_lexicon import BgLexicon, BgSense
from .errors import ParseError, parse_number
from .textpipe import Document, lexicon_pos
from .wsd import (BayesModel, _doc_positions, _window_lemmas, apply_ospd,
                  disambiguate_background, train_bayes)


@dataclass
class TuneParams:
    min_occurrences: int = 5
    window: int = 10
    alpha: float = 0.1
    top_k: int = 10

    def validate(self) -> None:
        for name in ("min_occurrences", "window", "top_k"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass
class TunedLexicon:
    base: BgLexicon
    ejected: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    discriminators: dict[tuple[str, str, str], list[tuple[str, float]]] = field(default_factory=dict)
    corpus_id: str = ""
    params: TuneParams = field(default_factory=TuneParams)


@dataclass
class TunedView:
    """Lookup view of a tuned lexicon: ejected senses invisible, base untouched."""

    tuned: TunedLexicon
    _filtered: BgLexicon = field(init=False, repr=False)

    def __post_init__(self):
        filtered = BgLexicon(collapsed=self.tuned.base.collapsed)
        for key, senses in self.tuned.base.senses_by_key.items():
            gone = self.tuned.ejected.get(key, set())
            kept = [s for s in senses if s.sense_id not in gone]
            if kept:
                filtered.senses_by_key[key] = kept
        self._filtered = filtered

    @property
    def collapsed(self) -> bool:
        return self._filtered.collapsed

    @property
    def senses_by_key(self):
        return self._filtered.senses_by_key

    def keys(self):
        return self._filtered.keys()

    def entries(self, lemma: str, pos: str) -> list[BgSense]:
        return self._filtered.entries(lemma, pos)

    def senses(self, lemma: str, pos: str):
        return self._filtered.senses(lemma, pos)

    def coarse_classes(self) -> list[str]:
        return self._filtered.coarse_classes()

    def discriminators_for(self, lemma: str, pos: str,
                           sense_id: str) -> list[tuple[str, float]]:
        return list(self.tuned.discriminators.get((lemma.lower(), pos, sense_id), ()))


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
        model = train_bayes(docs, bg, params.window, params.alpha)
    tags = disambiguate_background(model, docs, bg)
    if use_ospd:
        tags = apply_ospd(tags, bg)

    occurrences: Counter = Counter()          # (lemma, pos) -> corpus count
    assigned: Counter = Counter()             # (lemma, pos, sense_id) -> count
    cooc: dict[tuple[str, str], set[str]] = defaultdict(set)
    for doc in docs:
        flat = _doc_positions(doc)
        for i, tok in enumerate(flat):
            pos = lexicon_pos(tok.pos)
            if pos is None or not bg.entries(tok.lemma, pos):
                continue
            key = (tok.lemma, pos)
            occurrences[key] += 1
            cooc[key].update(_window_lemmas(flat, i, params.window))
            tag = tags.get((doc.doc_id, tok.sent_idx, tok.tok_idx))
            if tag is not None:
                assigned[(tok.lemma, pos, tag.sense_id)] += 1

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
    for key, senses in bg.senses_by_key.items():
        if not occurrences.get(key, 0):
            continue
        gone = ejected.get(key, set())
        for s in senses:
            if s.sense_id in gone:
                continue
            scored = []
            for w in sorted(cooc[key]):
                weight = model.weights.get((w, s.coarse_class))
                if weight is not None:
                    scored.append((w, weight))
            scored.sort(key=lambda ws: (-ws[1], ws[0]))
            top = scored[:params.top_k]
            if top:
                discriminators[(key[0], key[1], s.sense_id)] = top

    return TunedLexicon(bg, ejected, discriminators, corpus_id, params)


def apply_tuning(tuned: TunedLexicon) -> TunedView:
    return TunedView(tuned)


# ---------------------------------------------------------- persistence

def save_tuned_lexicon(tuned: TunedLexicon) -> str:
    """Text dump that round-trips bit-exactly through load_tuned_lexicon."""
    p = tuned.params
    lines = ["tunedlex v1",
             f"corpus {tuned.corpus_id or '-'}",
             f"params min_occurrences={p.min_occurrences} window={p.window} "
             f"alpha={p.alpha:.6f} top_k={p.top_k}"]
    for key in sorted(tuned.base.senses_by_key):
        for s in tuned.base.senses_by_key[key]:
            cls = s.coarse_class if tuned.base.collapsed else s.fine_class
            line = f"sense {s.lemma} {s.pos} {s.sense_id} {cls}"
            if s.subj_restriction:
                line += f" subj={s.subj_restriction}"
            if s.obj_restriction:
                line += f" obj={s.obj_restriction}"
            lines.append(line)
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
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "corpus" and len(parts) == 2:
            tuned.corpus_id = "" if parts[1] == "-" else parts[1]
        elif kind == "params":
            for tok in parts[1:]:
                k, _, v = tok.partition("=")
                number = _PARAM_TYPES.get(k)
                if number is None:
                    raise ParseError(f"unknown param {k!r}", path=path, line=lineno)
                setattr(tuned.params, k, parse_number(number, v, path=path, line=lineno))
        elif kind == "sense":
            if len(parts) < 5:
                raise ParseError("expected `sense <lemma> <pos> <id> <CLASS>`",
                                 path=path, line=lineno)
            lemma, pos, sid, cls = parts[1], parts[2], parts[3], parts[4]
            subj_r = obj_r = None
            for tok in parts[5:]:
                if tok.startswith("subj="):
                    subj_r = tok[5:]
                elif tok.startswith("obj="):
                    obj_r = tok[4:]
                else:
                    raise ParseError(f"unexpected token {tok!r}", path=path, line=lineno)
            sense = BgSense(lemma, pos, sid, cls, cls, None, subj_r, obj_r)
            base.senses_by_key.setdefault((lemma, pos), []).append(sense)
        elif kind == "eject" and len(parts) == 4:
            tuned.ejected.setdefault((parts[1], parts[2]), set()).add(parts[3])
        elif kind == "disc" and len(parts) == 5:
            pairs = []
            for item in parts[4].split(","):
                w, _, weight = item.rpartition(":")
                pairs.append((w, parse_number(float, weight, path=path, line=lineno)))
            tuned.discriminators[(parts[1], parts[2], parts[3])] = pairs
        else:
            raise ParseError(f"bad tunedlex line {line!r}", path=path, line=lineno)
    for senses in base.senses_by_key.values():
        senses.sort(key=lambda s: s.sense_id)
    return tuned
