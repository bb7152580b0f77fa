"""Domain tuning of the background lexicon: sense ejection + discriminators.

Train the background classifier on the domain corpus, tag every occurrence,
then eject the senses of well-attested lemmas that were never assigned.
Surviving senses pick up discriminator lists: the context lemmas most
strongly associated with the sense's class among words actually co-occurring
with the lemma.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import NamedTuple

from . import wsd
from .bg_lexicon import BgLexicon, BgSense
from .errors import ParseError, parse_number
from .textpipe import Document, lexicon_pos
from .wsd import BayesModel, _doc_positions, _lemma_row, _window
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
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


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

    def discriminators_for(self, lemma: str, pos: str,
                           sense_id: str) -> list[tuple[str, float]]:
        return list(self.discriminators.get((lemma.lower(), pos, sense_id), ()))


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

    occurrences: Counter = Counter()          # (lemma, pos) -> corpus count
    assigned: Counter = Counter()             # (lemma, pos, sense_id) -> count
    cooc: dict[tuple[str, str], set[str]] = defaultdict(set)
    for doc in docs:
        flat = _doc_positions(doc)
        row = _lemma_row(flat)
        for i, tok in enumerate(flat):
            pos = lexicon_pos(tok.pos)
            if pos is None or not bg.entries(tok.lemma, pos):
                continue
            # keyed like bg.senses_by_key, whose lemmas are lowercase
            key = (tok.lemma.lower(), pos)
            occurrences[key] += 1
            cooc[key].update(_window(row, i, params.window))
            tag = tags.get((doc.doc_id, tok.sent_idx, tok.tok_idx))
            if tag is not None:
                assigned[(*key, tag.sense_id)] += 1

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
        context = sorted(cooc[key])
        for s in senses:
            table = model.by_class.get(s.coarse_class)
            if s.sense_id in gone or table is None:
                continue
            lemmas = table.lemmas()
            # heaviest first, ties by lemma: sorting (-weight, lemma) pairs
            # needs no key function
            ranked = sorted([(-table[w], w) for w in context if w in lemmas])
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
                tuned.params = tuned.params._replace(
                    **{k: parse_number(number, v, path=path, line=lineno)})
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
