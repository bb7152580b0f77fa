"""Both disambiguation routes plus the glue between them.

Background route: a naive-Bayes-style classifier over context windows,
trained without annotation by using coarse-unambiguous lemmas as anchors,
then smoothed with a one-sense-per-discourse majority filter.

Foreground route: no classifier at all.  A foreground sense is selected
when its selection restrictions are satisfied by the tagged argument heads
and its required roles are filled; disambiguation falls out of finding the
one sense that fits.  General verb senses from the background lexicon take
part in the same restriction filter, so each match counts its surviving
senses, and `surviving_sense_count` runs that one filter on given classes.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import TYPE_CHECKING

from .decisionlist import DecisionList, DLInstance, apply_decision_list, strict_majority
# load_tagged_corpus is re-exported: it reads the tagged corpus in textpipe
from .textpipe import (LEXICON_POS, VERBAL, DocAnalysis, Document, SenseTag, Token,
                       TokenKey, is_passive_vg, load_tagged_corpus)

if TYPE_CHECKING:
    from .bg_lexicon import BgLexicon, BgSense
    from .fg_lexicon import Diagnostic, FgLexicon, Realization
    from .ontology import Ontology

UNFILLED = "UNFILLED"


class _ClassWeights(dict):
    """lemma -> weight(lemma, c) for one class c.

    The table keeps only c's observed context counts `counts`, its context
    total `n_c` and the unigram probabilities `p` of the vocabulary; each
    weight is computed on first read and kept.
    """

    def __init__(self, counts: Counter, n_c: int, p: dict[str, float], alpha: float):
        super().__init__()
        self.counts = counts
        self.n_c = n_c
        self.p = p
        self.alpha = alpha

    def __missing__(self, lemma: str) -> float:
        alpha = self.alpha
        weight = self[lemma] = math.log((self.counts.get(lemma, 0) + alpha)
                                        / (self.n_c * self.p[lemma] + alpha))
        return weight


class BayesModel:
    """Class priors and per-class context weights of the background classifier.

    `by_class` maps each class to its lemma -> weight table, which
    `train_bayes` fills; `weights` copies every vocabulary lemma's weight
    in every table into a (lemma, class) -> weight dict.
    """

    def __init__(self, class_priors: dict[str, float], window: int, alpha: float,
                 vocab: set[str]):
        self.class_priors = class_priors
        self.window = window
        self.alpha = alpha
        self.vocab = vocab
        self.by_class: dict[str, _ClassWeights] = {}

    @property
    def weights(self) -> dict[tuple[str, str], float]:
        return {(lemma, cls): table[lemma]
                for cls, table in self.by_class.items() for lemma in self.vocab}


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

def _lemma_row(flat: list[Token]) -> list[str | None]:
    """Each token's lemma, None for punctuation: the row windows are cut from."""
    return [None if tok.pos == "PUNCT" else tok.lemma for tok in flat]


def _window(row: list[str | None], i: int, window: int) -> list[str | None]:
    """The row within +/-window of position i, except i; None is punctuation."""
    return row[max(0, i - window):i] + row[i + 1:i + window + 1]


def _check_unique_ids(docs: list[Document]) -> None:
    """Tags are keyed by document id, so two documents may not share one."""
    seen: set[str] = set()
    for doc in docs:
        if doc.doc_id in seen:
            raise ValueError(f"duplicate document id {doc.doc_id}")
        seen.add(doc.doc_id)


def count_training(docs: list[Document], bg: BgLexicon, window: int = 10) -> tuple:
    """(anchors per class, context lemma counts per class, lemma counts,
    sentences) of `docs`: sums over documents, so a corpus's counts merge
    from its parts'."""
    if not bg.collapsed:
        raise ValueError("train_bayes requires a collapsed background lexicon")
    _check_unique_ids(docs)
    anchors: Counter = Counter()
    # each class's windows (None: punctuation), counted at the end in first-seen order
    windows: dict[str, list[str | None]] = defaultdict(list)
    unigram: Counter = Counter()
    # (lemma, lexicon pos) -> its class if it has one sense, else None: one lookup per pair
    anchor_of: dict[tuple[str, str], str | None] = {}
    pos_of = LEXICON_POS.get
    sentences = sum(len(doc.sentences) for doc in docs)

    for doc in docs:
        flat = list(doc.tokens())
        row = _lemma_row(flat)
        unigram.update(row)
        for i, tok in enumerate(flat):
            pos = pos_of(tok.pos)
            if pos is None:
                continue
            cls = anchor_of.get((tok.lemma, pos), False)
            if cls is False:
                entries = bg.entries(tok.lemma, pos)
                cls = anchor_of[tok.lemma, pos] = \
                    entries[0].coarse_class if len(entries) == 1 else None
            if cls is None:
                continue
            anchors[cls] += 1
            windows[cls] += _window(row, i, window)
    contexts = {cls: Counter(lemmas) for cls, lemmas in windows.items()}
    for counts in (unigram, *contexts.values()):
        counts.pop(None, None)
    return anchors, contexts, unigram, sentences


def merge_counts(parts: list) -> tuple:
    """The `count_training` counts of all `parts`' documents."""
    anchors, contexts, unigram, sentences = Counter(), defaultdict(Counter), Counter(), 0
    for part_anchors, part_contexts, part_unigram, part_sentences in parts:
        anchors.update(part_anchors)
        for cls, counts in part_contexts.items():
            contexts[cls].update(counts)
        unigram.update(part_unigram)
        sentences += part_sentences
    return anchors, dict(contexts), unigram, sentences


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
    anchors, contexts, unigram, sentences = counts if share is None else share(counts)
    if not anchors:
        raise ValueError("no training anchors found (corpus/lexicon mismatch)"
                         if sentences else "empty corpus")
    classes = bg.coarse_classes()
    total_anchors = sum(anchors.values())
    priors = {c: (anchors.get(c, 0) + alpha) / (total_anchors + alpha * len(classes))
              for c in classes}
    vocab: set[str] = set().union(*contexts.values())
    total_tokens = sum(unigram.values())
    p = {w: unigram[w] / total_tokens for w in vocab}
    model = BayesModel(priors, window, alpha, vocab)
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
    return _rank(model, context, _scorers(model, candidates))


def _scorers(model: BayesModel, candidates) -> list[tuple]:
    """(class, log prior, weight table or None) of each candidate, in class order."""
    scorers = []
    for c in sorted(candidates):
        prior = model.class_priors.get(c, 0.0)
        # classes absent from training still rank, just last
        scorers.append((c, math.log(prior) if prior > 0.0 else math.log(1e-12),
                        model.by_class.get(c)))
    return scorers


def _rank(model: BayesModel, context: list[str], scorers: list[tuple]) -> list:
    vocab = model.vocab
    known = [w for w in context if w in vocab]  # no None: punctuation is in no vocabulary
    scored = []
    for c, score, table in scorers:
        if table is not None:
            for w in known:  # left to right: the float sum depends on the order
                score += table[w]
        scored.append((c, score))
    scored.sort(key=lambda cs: (-cs[1], cs[0]))
    return scored


# ------------------------------------------------------------- tagging

def _tag_positions(model: BayesModel | None, bg: BgLexicon, known: dict, doc_id: str,
                   flat: list[Token], row: list[str | None], positions, tags: dict) -> None:
    """Tag `flat`'s tokens at `positions` into `tags` as `disambiguate_background`
    says, but without a `model` leave ambiguous lemmas untagged.  `known` maps
    (lemma, lexicon pos) to its senses, for two or more their classes'
    _scorers, and each class's first sense: one lexicon lookup per pair."""
    pos_of = LEXICON_POS.get
    for i in positions:
        tok = flat[i]
        pos = pos_of(tok.pos)
        if pos is None:
            continue
        lemma = tok.lemma
        entry = known.get((lemma, pos))
        if entry is None:
            entries = bg.entries(lemma, pos)
            sense_of = {s.coarse_class: s for s in reversed(entries)}
            scorers = (_scorers(model, sense_of)
                       if len(entries) > 1 and model is not None else None)
            entry = known[lemma, pos] = entries, scorers, sense_of
        entries, scorers, sense_of = entry
        if len(entries) == 1:
            tags[doc_id, tok.sent_idx, tok.tok_idx] = tuple.__new__(SenseTag, (
                doc_id, tok.sent_idx, tok.tok_idx, lemma, pos, entries[0].sense_id,
                entries[0].coarse_class, 0.0, "unambiguous"))
        elif scorers is not None:
            win_class, win_score = _rank(model, _window(row, i, model.window), scorers)[0]
            tags[doc_id, tok.sent_idx, tok.tok_idx] = tuple.__new__(SenseTag, (
                doc_id, tok.sent_idx, tok.tok_idx, lemma, pos, sense_of[win_class].sense_id,
                win_class, win_score, "bayes"))


def disambiguate_background(model: BayesModel, docs: list[Document],
                            bg: BgLexicon) -> dict[TokenKey, SenseTag]:
    """One tag per open-class token that the lexicon knows.

    Coarse-unambiguous lemmas are tagged directly; ambiguous ones get the
    classifier's argmax over their own candidate classes; unknown lemmas are
    left untagged.
    """
    _check_unique_ids(docs)
    tags: dict[TokenKey, SenseTag] = {}
    known: dict[tuple[str, str], tuple] = {}
    for doc in docs:
        flat = list(doc.tokens())
        _tag_positions(model, bg, known, doc.doc_id, flat, _lemma_row(flat),
                       range(len(flat)), tags)
    return tags


def _revote(tags: dict, keys: list[TokenKey], bg: BgLexicon | None) -> dict:
    """The tags of one OSPD group, `keys`, that its strict-majority class reassigns."""
    majority = strict_majority(Counter(tags[k].coarse_class for k in keys))
    if majority is None:
        return {}
    # a sense id for the majority class, per pos, from the group itself
    sense_by_pos: dict[str, str] = {}
    for k in keys:
        t = tags[k]
        if t.coarse_class == majority:
            sense_by_pos.setdefault(t.pos, t.sense_id)
    changed = {}
    for k in keys:
        t = tags[k]
        if t.coarse_class == majority:
            continue
        sense_id = sense_by_pos.get(t.pos)
        if sense_id is None and bg is not None:
            sense_id = next((s.sense_id for s in bg.entries(t.lemma, t.pos)
                             if s.coarse_class == majority), None)
        if sense_id is not None:  # else the lemma has no sense of that class for this pos
            changed[k] = t._replace(sense_id=sense_id, coarse_class=majority,
                                    score=0.0, method="ospd")
    return changed


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
    for keys in groups.values():
        if len(keys) > 1:  # one tag is its own majority
            out.update(_revote(tags, keys, bg))
    return out


class _TagsOnDemand:
    """`extract`'s background tags of `docs`: the first `get` of a key tags
    its OSPD group, the tokens of its document with its lemma as written, as
    `disambiguate_background` does and, with `ospd`, re-votes it as
    `apply_ospd` does.  Without a `model`, only coarse-unambiguous tags."""

    def __init__(self, docs: list[Document], bg: BgLexicon,
                 model: BayesModel | None = None, ospd: bool = False):
        self.docs = {doc.doc_id: doc for doc in docs}
        self.bg, self.model, self.ospd = bg, model, ospd
        self.known, self.indexed, self.tags = {}, {}, {}  # known: as in _tag_positions

    def get(self, key: TokenKey) -> SenseTag | None:
        doc_id, sent_idx, tok_idx = key
        try:
            lemma = self.docs[doc_id].sentences[sent_idx][tok_idx].lemma
        except (KeyError, IndexError):
            return None  # no token holds the key
        if doc_id not in self.indexed:
            # flat tokens, lemma row, and lemma -> positions of each group not yet tagged
            flat = list(self.docs[doc_id].tokens())
            row, groups = _lemma_row(flat), defaultdict(list)
            for i, row_lemma in enumerate(row):
                groups[row_lemma].append(i)
            self.indexed[doc_id] = flat, row, groups
        flat, row, groups = self.indexed[doc_id]
        positions = groups.pop(lemma, None)
        if positions is not None:
            group: dict[TokenKey, SenseTag] = {}
            _tag_positions(self.model, self.bg, self.known, doc_id, flat, row, positions, group)
            if self.ospd and len(group) > 1:
                group.update(_revote(group, list(group), self.bg))
            self.tags.update(group)
        return self.tags.get(key)


# ------------------------------------------------------ foreground match

# a passive verb's surface relations as read in active voice
_ACTIVE_READING = {"subj": "dobj", "agent_by": "subj"}


def _fitting_senses(reals: list[Realization], deps: list[tuple[str, int]], voice: str,
                    passive_lone: bool, head_class, onto: Ontology) -> list[tuple]:
    """The foreground senses of `reals` that fit, as (sense, bindings,
    passive_implicature).

    `deps` holds the verb's (relation as read in active voice, head index)
    pairs; each fills the role its relation maps to, first pair first.  A
    sense fits when every filled role's head has a class compatible with
    the role's restriction and every required role is filled, except a
    passive's agent, or with `passive_lone` every role of a bare passive.
    """
    fits = []
    for real in reals:
        cmap = real.complement_map
        fills: dict[str, int] = {}
        for relation, idx in deps:
            role = cmap.get(relation)
            if role is not None and role not in fills:
                fills[role] = idx
        bindings: dict[str, int | str] = {}
        implicature = False
        for arg in real.effective.args:
            idx = fills.get(arg.role)
            if idx is not None:
                cls = head_class(idx)
                if cls is None or not onto.compatible(cls, arg.restriction):
                    break
                bindings[arg.role] = idx
            elif not arg.required:
                bindings[arg.role] = UNFILLED
            elif voice == "passive" and (arg.role == cmap.get("subj")
                                         or (passive_lone and not fills)):
                implicature = True
                bindings[arg.role] = UNFILLED
            else:
                break
        else:
            fits.append((real, bindings, implicature))
    return fits


def _general_survivors(senses: list[BgSense], deps: list[tuple[str, int]], head_class,
                       onto: Ontology) -> int:
    """How many general `senses` no present, tagged subject or object contradicts.

    The first `subj` and the first `dobj` of `deps` are the arguments.  An
    absent or untagged one eliminates nothing; a tagged one eliminates a
    sense whose restriction is incompatible with its class or names no class.
    """
    observed: dict[str, str | None] = {}
    for relation, idx in deps:
        if relation in ("subj", "dobj") and relation not in observed:
            observed[relation] = head_class(idx)
    subj, obj = observed.get("subj"), observed.get("dobj")
    survivors = 0
    for sense in senses:
        for cls, restriction in ((subj, sense.subj_restriction),
                                 (obj, sense.obj_restriction)):
            if restriction is not None and cls is not None and (
                    restriction not in onto.classes or not onto.compatible(cls, restriction)):
                break
        else:
            survivors += 1
    return survivors


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
    `tags` is only read through `tags.get`.
    """
    from .fg_lexicon import Diagnostic

    matches: list[FgMatch] = []
    diagnostics: list[Diagnostic] = []
    # verb lemma -> its general senses: one lexicon lookup per lemma, not per verb
    general: dict[str, list[BgSense]] = {}
    fg_verbs = {lemma for lemma, pos, lg in fg.realizations if pos == "verb" and lg == lang}

    for analysis in analyses:
        doc = analysis.doc
        positions = None  # the document's flat tokens and their index, on first need
        for sa in analysis.sentences:
            tokens = sa.tokens
            # a verb group's head is verbal: without a verbal foreground lemma, skip
            if not any(t.pos in VERBAL and t.lemma.lower() in fg_verbs for t in tokens):
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
                swap = _ACTIVE_READING if voice == "passive" else {}
                deps = [(swap.get(rel.relation, rel.relation), rel.dependent_idx)
                        for rel in sa.relations if rel.verb_idx == vg.head_idx]
                fits = _fitting_senses(reals, deps, voice, passive_lone, head_class, onto)
                if not fits:
                    continue
                survivors = len(fits)
                if bg is not None:
                    senses = general.get(verb.lemma)
                    if senses is None:
                        senses = general[verb.lemma] = bg.entries(verb.lemma, "verb")
                    survivors += _general_survivors(senses, deps, head_class, onto)
                if len(fits) == 1:
                    chosen = fits[0]
                else:
                    if positions is None:
                        flat = list(doc.tokens())
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
                    survivors=survivors,
                    trigger_lemma=verb.lemma))
    return matches, diagnostics


def _discriminate(fits, flat, flat_pos, verb_key, window):
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

    The matcher's own filter, run on a made-up active clause: a given class
    is the class of a tagged subject or object head, and None means that
    argument is absent.  So a foreground sense survives only if its
    restrictions admit the given classes and every role it requires is
    filled; a general sense survives unless a given class contradicts its
    restriction.  Returns (total survivors, surviving foreground sense ids).
    """
    classes = (subj_class, obj_class)
    deps = [(relation, i) for i, relation in enumerate(("subj", "dobj"))
            if classes[i] is not None]
    fits = _fitting_senses(fg.senses(lemma, "verb", lang), deps, "active", False,
                           classes.__getitem__, onto)
    total = len(fits)
    if bg is not None:
        total += _general_survivors(bg.entries(lemma, "verb"), deps, classes.__getitem__, onto)
    return total, [real.sense_id for real, _, _ in fits]


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
    "BayesModel", "SenseTag", "FgMatch", "TokenKey", "UNFILLED",
    "train_bayes", "classify_bayes", "disambiguate_background", "apply_ospd",
    "match_foreground", "apply_foreground_priority", "surviving_sense_count",
    "dump_tagged_corpus", "load_tagged_corpus",
]
