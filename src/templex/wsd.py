"""Both disambiguation routes plus the glue between them.

Background route: a naive-Bayes-style classifier over context windows,
trained without annotation by using coarse-unambiguous lemmas as anchors,
then smoothed with a one-sense-per-discourse majority filter.

Foreground route: no classifier at all.  A foreground sense is selected
when its selection restrictions are satisfied by the tagged argument heads;
disambiguation falls out of finding the one sense that fits.  General verb
senses from the background lexicon take part in the same restriction filter
so the surviving-sense arithmetic is observable per match.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import TYPE_CHECKING

from .errors import ParseError, format_float, parse_number
# load_tagged_corpus is re-exported: it reads the tagged corpus in textpipe
from .textpipe import (LEXICON_POS, DocAnalysis, Document, SenseTag, Token,
                       TokenKey, is_passive_vg, load_tagged_corpus)

if TYPE_CHECKING:
    from .bg_lexicon import BgLexicon, BgSense
    from .fg_lexicon import Diagnostic, FgLexicon, Realization
    from .ontology import Ontology

UNFILLED = "UNFILLED"
SALIENT = "SALIENT"


class _ClassWeights(dict):
    """lemma -> weight(lemma, c) for one class c.

    A trained model keeps only c's observed context counts `counts`, its
    context total `n_c` and the unigram probabilities `p` of the
    vocabulary; each weight is computed on first read and kept.  A model
    with explicit weights (loaded, or built by hand) stores them all, has
    no `p`, and a vocabulary lemma without a weight weighs 0.
    """

    def __init__(self, counts: Counter | None = None, n_c: int = 0,
                 p: dict[str, float] | None = None, alpha: float = 0.0):
        super().__init__()
        self.counts = counts
        self.n_c = n_c
        self.p = p
        self.alpha = alpha

    def lemmas(self):
        """The lemmas that have a weight for this class."""
        return self.keys() if self.p is None else self.p.keys()

    def __missing__(self, lemma: str) -> float:
        if self.p is None:
            return 0.0
        alpha = self.alpha
        weight = self[lemma] = math.log((self.counts.get(lemma, 0) + alpha)
                                        / (self.n_c * self.p[lemma] + alpha))
        return weight


class BayesModel:
    """Class priors and per-class context weights of the background classifier.

    `by_class` maps each class to its lemma -> weight table; `weights` copies
    every pair of the same tables into a (lemma, class) -> weight dict.
    Explicit `weights` given here fill the tables as they are.
    """

    def __init__(self, class_priors: dict[str, float] | None = None,
                 weights: dict[tuple[str, str], float] | None = None,
                 window: int = 10, alpha: float = 0.1,
                 vocab: set[str] | None = None):
        self.class_priors = {} if class_priors is None else class_priors
        self.window = window
        self.alpha = alpha
        self.vocab = set() if vocab is None else vocab
        self.by_class: dict[str, _ClassWeights] = {}
        for (lemma, cls), weight in (weights or {}).items():
            table = self.by_class.get(cls)
            if table is None:
                table = self.by_class[cls] = _ClassWeights()
            table[lemma] = weight

    @property
    def weights(self) -> dict[tuple[str, str], float]:
        return {(lemma, cls): table[lemma]
                for cls, table in self.by_class.items() for lemma in table.lemmas()}


class FgMatch:
    """A verb group and the foreground sense the matcher chose for it."""

    __slots__ = ("doc_id", "sent_idx", "verb_idx", "realization", "bindings",
                 "passive_implicature", "competitors", "survivors", "trigger_lemma")

    def __init__(self, doc_id: str, sent_idx: int, verb_idx: int,
                 realization: Realization, bindings: dict[str, int | str] | None = None,
                 passive_implicature: bool = False, competitors: int = 0,
                 survivors: int = 1, trigger_lemma: str = ""):
        self.doc_id = doc_id
        self.sent_idx = sent_idx
        self.verb_idx = verb_idx
        self.realization = realization
        self.bindings = {} if bindings is None else bindings
        self.passive_implicature = passive_implicature
        # other foreground senses that also fit
        self.competitors = competitors
        # all senses (foreground + general) passing the filter
        self.survivors = survivors
        self.trigger_lemma = trigger_lemma

    @property
    def concept(self) -> str:
        return self.realization.concept

    @property
    def sense_id(self) -> str:
        return self.realization.sense_id


# ------------------------------------------------------------ training

def _doc_positions(doc: Document) -> list[Token]:
    return list(doc.tokens())


def _lemma_row(flat: list[Token]) -> list[str | None]:
    """Each token's lemma, None for punctuation: the row windows are cut from."""
    return [None if tok.pos == "PUNCT" else tok.lemma for tok in flat]


def _window(row: list[str | None], i: int, window: int) -> list[str]:
    """The lemmas within +/-window of position i, except i and punctuation."""
    ctx = row[max(0, i - window):i] + row[i + 1:i + window + 1]
    return [lemma for lemma in ctx if lemma is not None]


def _check_unique_ids(docs: list[Document]) -> None:
    """Tags are keyed by document id, so two documents may not share one."""
    seen: set[str] = set()
    for doc in docs:
        if doc.doc_id in seen:
            raise ValueError(f"duplicate document id {doc.doc_id}")
        seen.add(doc.doc_id)


def count_training(docs: list[Document], bg: BgLexicon, window: int = 10) -> tuple:
    """(anchors per class, context lemma counts per class, lemma counts) of
    `docs`: sums over documents, so a corpus's counts merge from its parts'."""
    if not bg.collapsed:
        raise ValueError("train_bayes requires a collapsed background lexicon")
    _check_unique_ids(docs)
    anchors: Counter = Counter()
    contexts: dict[str, Counter] = defaultdict(Counter)
    unigram: Counter = Counter()
    # (lemma, lexicon pos) -> senses: one lexicon lookup per pair, not per token
    senses: dict[tuple[str, str], list[BgSense]] = {}
    pos_of = LEXICON_POS.get

    for doc in docs:
        flat = _doc_positions(doc)
        row = _lemma_row(flat)
        unigram.update(lemma for lemma in row if lemma is not None)
        for i, tok in enumerate(flat):
            pos = pos_of(tok.pos)
            if pos is None:
                continue
            entries = senses.get((tok.lemma, pos))
            if entries is None:
                entries = senses[tok.lemma, pos] = bg.entries(tok.lemma, pos)
            if len(entries) != 1:
                continue
            cls = entries[0].coarse_class
            anchors[cls] += 1
            contexts[cls].update(_window(row, i, window))
    return anchors, dict(contexts), unigram


def merge_counts(parts: list) -> tuple:
    """The `count_training` counts of all `parts`' documents."""
    anchors, contexts, unigram = Counter(), defaultdict(Counter), Counter()
    for part_anchors, part_contexts, part_unigram in parts:
        anchors.update(part_anchors)
        for cls, counts in part_contexts.items():
            contexts[cls].update(counts)
        unigram.update(part_unigram)
    return anchors, dict(contexts), unigram


def train_bayes(docs: list[Document], bg: BgLexicon, window: int = 10,
                alpha: float = 0.1, *, share=None) -> BayesModel:
    """Train from coarse-unambiguous anchor tokens; no annotation needed.

    weight(w, c) compares how often w appears within +/-window of class-c
    anchors against the count expected under the corpus unigram
    distribution, with add-alpha smoothing on both sides.  Only the
    observed (w, c) counts are stored; weights are computed on first use.
    `share`, given, maps the counts of `docs`, part of a corpus, to the
    whole corpus's counts, which the model is built from.
    """
    counts = count_training(docs, bg, window)
    anchors, contexts, unigram = counts if share is None else share(counts)
    if not anchors:
        raise ValueError("no training anchors found (corpus/lexicon mismatch)")
    classes = bg.coarse_classes()
    total_anchors = sum(anchors.values())
    priors = {c: (anchors.get(c, 0) + alpha) / (total_anchors + alpha * len(classes))
              for c in classes}
    vocab: set[str] = set().union(*contexts.values())
    total_tokens = sum(unigram.values())
    p = {w: unigram[w] / total_tokens for w in vocab}
    model = BayesModel(priors, None, window, alpha, vocab)
    for c in classes:
        ctx = contexts.get(c, Counter())
        model.by_class[c] = _ClassWeights(ctx, sum(ctx.values()), p, alpha)
    return model


def classify_bayes(model: BayesModel, context: list[str],
                   candidates: set[str]) -> list[tuple[str, float]]:
    """Score log prior + sum of context weights; full descending ranking.

    Ties break on lexicographic class order.
    """
    if not candidates:
        raise ValueError("no candidate classes")
    vocab = model.vocab
    known = [w for w in context if w in vocab]
    scored = []
    for c in sorted(candidates):
        prior = model.class_priors.get(c, 0.0)
        # classes absent from training still rank, just last
        score = math.log(prior) if prior > 0.0 else math.log(1e-12)
        table = model.by_class.get(c)
        if table is not None:
            for w in known:
                score += table[w]
        scored.append((c, score))
    scored.sort(key=lambda cs: (-cs[1], cs[0]))
    return scored


# ------------------------------------------------------------- tagging

def disambiguate_background(model: BayesModel, docs: list[Document],
                            bg: BgLexicon) -> dict[TokenKey, SenseTag]:
    """One tag per open-class token that the lexicon knows.

    Coarse-unambiguous lemmas are tagged directly; ambiguous ones get the
    classifier's argmax over their own candidate classes; unknown lemmas are
    left untagged.
    """
    _check_unique_ids(docs)
    tags: dict[TokenKey, SenseTag] = {}
    # (lemma, lexicon pos) -> senses: one lexicon lookup per pair, not per token
    senses: dict[tuple[str, str], list[BgSense]] = {}
    pos_of = LEXICON_POS.get
    for doc in docs:
        flat = _doc_positions(doc)
        row = _lemma_row(flat)
        for i, tok in enumerate(flat):
            pos = pos_of(tok.pos)
            if pos is None:
                continue
            entries = senses.get((tok.lemma, pos))
            if entries is None:
                entries = senses[tok.lemma, pos] = bg.entries(tok.lemma, pos)
            if not entries:
                continue
            key = (doc.doc_id, tok.sent_idx, tok.tok_idx)
            if len(entries) == 1:
                s = entries[0]
                tags[key] = SenseTag(doc.doc_id, tok.sent_idx, tok.tok_idx,
                                     tok.lemma, pos, s.sense_id, s.coarse_class,
                                     0.0, "unambiguous")
                continue
            candidates = {s.coarse_class for s in entries}
            ranking = classify_bayes(model, _window(row, i, model.window),
                                     candidates)
            win_class, win_score = ranking[0]
            sense = next(s for s in entries if s.coarse_class == win_class)
            tags[key] = SenseTag(doc.doc_id, tok.sent_idx, tok.tok_idx,
                                 tok.lemma, pos, sense.sense_id, win_class,
                                 win_score, "bayes")
    return tags


def apply_ospd(tags: dict[TokenKey, SenseTag],
               bg: BgLexicon | None = None) -> dict[TokenKey, SenseTag]:
    """One sense per discourse: per (doc, lemma) strict-majority re-vote.

    Groups with two or more tagged instances where one class holds a strict
    majority are reassigned wholesale; exact ties change nothing.  Idempotent.
    """
    groups: dict[tuple[str, str], list[TokenKey]] = defaultdict(list)
    for key, tag in tags.items():
        groups[(tag.doc_id, tag.lemma)].append(key)

    out = dict(tags)
    for (doc_id, lemma), keys in groups.items():
        if len(keys) < 2:
            continue
        counts = Counter(tags[k].coarse_class for k in keys)
        top = max(counts.values())
        winners = sorted(c for c, n in counts.items() if n == top)
        if len(winners) != 1 or top * 2 <= len(keys):
            continue
        majority = winners[0]
        # a sense id for the majority class, per pos, from the group itself
        sense_by_pos: dict[str, str] = {}
        for k in keys:
            t = tags[k]
            if t.coarse_class == majority:
                sense_by_pos.setdefault(t.pos, t.sense_id)
        for k in keys:
            t = tags[k]
            if t.coarse_class == majority:
                continue
            sense_id = sense_by_pos.get(t.pos)
            if sense_id is None and bg is not None:
                for s in bg.entries(t.lemma, t.pos):
                    if s.coarse_class == majority:
                        sense_id = s.sense_id
                        break
            if sense_id is None:
                continue  # lemma has no sense of that class for this pos
            out[k] = t._replace(sense_id=sense_id, coarse_class=majority,
                                score=0.0, method="ospd")
    return out


# ------------------------------------------------------ foreground match

def _transform_key(relation: str, voice: str) -> str:
    if voice == "passive":
        if relation == "subj":
            return "dobj"
        if relation == "agent_by":
            return "subj"
    return relation


def _fit_realization(real: Realization, fills: dict[str, int], voice: str,
                     passive_lone: bool, head_class, onto: Ontology):
    """Check one foreground sense against the filled roles.

    Returns (fits, bindings, passive_implicature).
    """
    eff = real.effective
    subj_role = real.complement_map.get("subj")
    bindings: dict[str, int | str] = {}
    implicature = False
    for arg in eff.args:
        idx = fills.get(arg.role)
        if idx is not None:
            cls = head_class(idx)
            if cls is None or not onto.compatible(cls, arg.restriction):
                return False, {}, False
            bindings[arg.role] = idx
        elif arg.required:
            if voice == "passive" and (arg.role == subj_role
                                       or (passive_lone and not fills)):
                implicature = True
                bindings[arg.role] = UNFILLED
            else:
                return False, {}, False
        else:
            bindings[arg.role] = UNFILLED
    return True, bindings, implicature


def _bg_sense_survives(sense: BgSense, observed: dict[str, str | None],
                       onto: Ontology) -> bool:
    # an absent or untagged argument never eliminates a general sense;
    # only a present, incompatible one does
    for gr, restriction in (("subj", sense.subj_restriction),
                            ("dobj", sense.obj_restriction)):
        cls = observed.get(gr)
        if restriction is not None and cls is not None:
            if restriction not in onto.classes or not onto.compatible(cls, restriction):
                return False
    return True


def match_foreground(analyses: list[DocAnalysis], fg: FgLexicon,
                     tags: dict[TokenKey, SenseTag], onto: Ontology,
                     bg: BgLexicon | None = None, *, lang: str = "en",
                     passive_lone: bool = True,
                     window: int = 10) -> tuple[list[FgMatch], list[Diagnostic]]:
    """Restriction-driven foreground sense selection for every verb group.

    A sense fits when every filled role is class-compatible with its
    restriction and every required role is filled; under passive voice the
    agent role may stay unfilled (passive_implicature), and with
    passive_lone a bare passive with no filled roles still triggers.
    Exactly one fit emits a match; several fits consult the concept's
    discriminator rules; a remaining tie abstains with a diagnostic.
    """
    from .fg_lexicon import Diagnostic

    matches: list[FgMatch] = []
    diagnostics: list[Diagnostic] = []
    # verb lemma -> its general senses: one lexicon lookup per lemma, not per verb
    general: dict[str, list[BgSense]] = {}

    for analysis in analyses:
        doc = analysis.doc
        positions = None  # the document's flat tokens and their index, on first need
        for sa in analysis.sentences:
            tokens = sa.tokens
            if not tokens:
                continue
            sent_idx = tokens[0].sent_idx

            def head_class(tok_idx: int) -> str | None:
                tag = tags.get((doc.doc_id, sent_idx, tok_idx))
                return tag.coarse_class if tag else None

            for vg in sa.chunks:
                if vg.kind != "VG":
                    continue
                verb = tokens[vg.head_idx]
                reals = fg.senses(verb.lemma, "verb", lang)
                if not reals:
                    continue
                voice = "passive" if is_passive_vg(tokens, vg) else "active"
                rels_v = [r for r in sa.relations if r.verb_idx == vg.head_idx]

                fits: list[tuple[Realization, dict[str, int | str], bool]] = []
                for real in reals:
                    fills: dict[str, int] = {}
                    for rel in rels_v:
                        key = _transform_key(rel.relation, voice)
                        role = real.complement_map.get(key)
                        if role is not None and role not in fills:
                            fills[role] = rel.dependent_idx
                    ok, bindings, implicature = _fit_realization(
                        real, fills, voice, passive_lone, head_class, onto)
                    if ok:
                        fits.append((real, bindings, implicature))

                if not fits:
                    continue
                bg_survivors = 0
                if bg is not None:
                    observed: dict[str, str | None] = {}
                    for rel in rels_v:
                        key = _transform_key(rel.relation, voice)
                        if key in ("subj", "dobj") and key not in observed:
                            observed[key] = head_class(rel.dependent_idx)
                    senses = general.get(verb.lemma)
                    if senses is None:
                        senses = general[verb.lemma] = bg.entries(verb.lemma, "verb")
                    for sense in senses:
                        if _bg_sense_survives(sense, observed, onto):
                            bg_survivors += 1
                if len(fits) == 1:
                    chosen = fits[0]
                else:
                    if positions is None:
                        flat = _doc_positions(doc)
                        positions = flat, {(t.sent_idx, t.tok_idx): i
                                           for i, t in enumerate(flat)}
                    chosen = _discriminate(fits, *positions,
                                           (sent_idx, vg.head_idx), window)
                    if chosen is None:
                        diagnostics.append(Diagnostic(
                            "warning",
                            f"{doc.doc_id}:{sent_idx}",
                            f"{verb.lemma}: {len(fits)} foreground senses fit "
                            f"and no discriminator decided; abstaining"))
                        continue
                real, bindings, implicature = chosen
                matches.append(FgMatch(
                    doc_id=doc.doc_id, sent_idx=sent_idx, verb_idx=vg.head_idx,
                    realization=real, bindings=bindings, passive_implicature=implicature,
                    competitors=len(fits) - 1,
                    survivors=len(fits) + bg_survivors,
                    trigger_lemma=verb.lemma))
    return matches, diagnostics


def _discriminate(fits, flat, flat_pos, verb_key, window):
    from .decisionlist import DecisionList, DLInstance, apply_decision_list

    # every fitting sense's rules in order: the first one whose feature occurs wins
    rules = [rule for real, _, _ in fits for rule in real.effective.discriminators]
    if not rules:
        return None
    i = flat_pos[verb_key]
    lo = max(0, i - window)
    hi = min(len(flat), i + window + 1)
    inst = DLInstance(tuple(t.lemma for t in flat[lo:hi]), i - lo)
    # no default sense: unless a rule names a sense that fits, none is chosen
    sense, _ = apply_decision_list(DecisionList(rules, None), inst)
    return next((fit for fit in fits if fit[0].sense_id == sense), None)


def apply_foreground_priority(tags: dict[TokenKey, SenseTag],
                              matches: list[FgMatch]) -> dict[TokenKey, SenseTag]:
    """Replace any background tag on a matched verb with its foreground tag.

    A match that beat competing foreground senses was decided by the
    concept's discriminator rules, and its tag says so.
    """
    out = dict(tags)
    for m in matches:
        key = (m.doc_id, m.sent_idx, m.verb_idx)
        method = "decision_list" if m.competitors > 0 else "foreground"
        out[key] = SenseTag(m.doc_id, m.sent_idx, m.verb_idx, m.trigger_lemma,
                            "verb", m.sense_id, m.concept, 0.0, method)
    return out


def surviving_sense_count(fg: FgLexicon, bg: BgLexicon | None, onto: Ontology,
                          lemma: str, subj_class: str | None = None,
                          obj_class: str | None = None,
                          lang: str = "en") -> tuple[int, list[str]]:
    """Restriction-filter arithmetic for a verb given argument classes.

    Counts how many senses (foreground realizations plus general background
    senses) are compatible with the given subject/object classes; a None
    class constrains nothing.  Returns (total survivors, surviving
    foreground sense ids).
    """
    fg_survivors: list[str] = []
    for real in fg.senses(lemma, "verb", lang):
        eff = real.effective
        ok = True
        for gr, cls in (("subj", subj_class), ("dobj", obj_class)):
            role = real.complement_map.get(gr)
            if role is None or cls is None:
                continue
            arg = eff.arg(role)
            if arg is not None and not onto.compatible(cls, arg.restriction):
                ok = False
                break
        if ok:
            fg_survivors.append(real.sense_id)
    total = len(fg_survivors)
    if bg is not None:
        observed = {"subj": subj_class, "dobj": obj_class}
        for sense in bg.entries(lemma, "verb"):
            if _bg_sense_survives(sense, observed, onto):
                total += 1
    return total, fg_survivors


# ---------------------------------------------------------- persistence

def save_bayes_model(model: BayesModel) -> str:
    """Versioned text dump: sorted keys, 6-decimal weights; bit-stable."""
    lines = ["bayesmodel v1",
             f"window {model.window}",
             f"alpha {format_float(model.alpha)}"]
    for c in sorted(model.class_priors):
        lines.append(f"prior {c} {model.class_priors[c]:.6f}")
    weights = model.weights
    for (w, c) in sorted(weights):
        lines.append(f"weight {w} {c} {weights[(w, c)]:.6f}")
    return "\n".join(lines) + "\n"


def load_bayes_model(text: str, path: str = "<string>") -> BayesModel:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "bayesmodel v1":
        raise ParseError("not a bayesmodel v1 file", path=path, line=1)
    model = BayesModel()
    weights: dict[tuple[str, str], float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "window" and len(parts) == 2:
            model.window = parse_number(int, parts[1], path=path, line=lineno)
        elif parts[0] == "alpha" and len(parts) == 2:
            model.alpha = parse_number(float, parts[1], path=path, line=lineno)
        elif parts[0] == "prior" and len(parts) == 3:
            model.class_priors[parts[1]] = parse_number(float, parts[2], path=path, line=lineno)
        elif parts[0] == "weight" and len(parts) == 4:
            weights[(parts[1], parts[2])] = parse_number(float, parts[3], path=path,
                                                         line=lineno)
        else:
            raise ParseError(f"bad model line {line!r}", path=path, line=lineno)
    return BayesModel(model.class_priors, weights, model.window, model.alpha,
                      {w for w, _ in weights})


# ------------------------------------------------------- tagged corpus io

def dump_tagged_corpus(docs: list[Document], tags: dict[TokenKey, SenseTag],
                       header: dict | None = None) -> str:
    """Vertical corpus plus a 4th `sense_id/CLASS/method` column (`-` if untagged)."""
    lines: list[str] = []
    if header:
        kv = " ".join(f"{k}={header[k]}" for k in sorted(header))
        lines.append(f"#CONFIG {kv}")
    for doc in docs:
        lines.append(f"#DOC {doc.doc_id}")
        for si, sent in enumerate(doc.sentences):
            if si:
                lines.append("")
            for tok in sent:
                tag = tags.get((doc.doc_id, tok.sent_idx, tok.tok_idx))
                col = f"{tag.sense_id}/{tag.coarse_class}/{tag.method}" if tag else "-"
                lines.append(f"{tok.surface}\t{tok.lemma}\t{tok.pos}\t{col}")
        lines.append("")
    return "\n".join(lines)


__all__ = [
    "BayesModel", "SenseTag", "FgMatch", "TokenKey", "UNFILLED", "SALIENT",
    "train_bayes", "classify_bayes", "disambiguate_background", "apply_ospd",
    "match_foreground", "apply_foreground_priority", "surviving_sense_count",
    "save_bayes_model", "load_bayes_model",
    "dump_tagged_corpus", "load_tagged_corpus",
]
