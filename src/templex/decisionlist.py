"""Decision-list sense discrimination with seed-driven bootstrapping.

A decision list is an ordered set of (feature -> sense) rules ranked by the
absolute smoothed log-likelihood of the feature favouring the sense.  Given a
couple of seed collocations per sense it bootstraps further rules from
unlabelled instances: label what the current list can, re-score every
feature, repeat until the labelling reaches a fixpoint.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import NamedTuple

FEATURE_KINDS = ("word_left", "word_right", "word_in_window")


class DecisionRule(NamedTuple):
    kind: str  # word_left | word_right | word_in_window
    value: str
    sense_id: str
    score: float


class DecisionList:
    __slots__ = ("rules", "default_sense")

    def __init__(self, rules: list[DecisionRule] | None = None,
                 default_sense: str | None = None):
        self.rules = [] if rules is None else rules
        self.default_sense = default_sense


class DLInstance(NamedTuple):
    """One occurrence of the target word: sentence lemmas plus its position."""

    lemmas: tuple[str, ...]
    target_idx: int
    doc_id: str = "d1"


class DLParams(NamedTuple):
    alpha: float = 0.1
    max_iters: int = 10
    min_score: float = 0.0
    use_ospd: bool = False


def instance_features(inst: DLInstance) -> set[tuple[str, str]]:
    feats: set[tuple[str, str]] = set()
    if inst.target_idx > 0:
        feats.add(("word_left", inst.lemmas[inst.target_idx - 1]))
    if inst.target_idx + 1 < len(inst.lemmas):
        feats.add(("word_right", inst.lemmas[inst.target_idx + 1]))
    for i, lemma in enumerate(inst.lemmas):
        if i != inst.target_idx:
            feats.add(("word_in_window", lemma))
    return feats


def apply_decision_list(dl: DecisionList, inst: DLInstance) -> tuple[str | None, DecisionRule | None]:
    """First rule (highest |score|) whose feature matches wins; else default."""
    feats = instance_features(inst)
    for rule in dl.rules:
        if (rule.kind, rule.value) in feats:
            return rule.sense_id, rule
    return dl.default_sense, None


def _build_list(labels: dict[int, str], instances: list[DLInstance],
                senses: list[str], params: DLParams) -> DecisionList:
    joint: Counter = Counter()   # (feature, sense) -> count
    totals: Counter = Counter()  # feature -> count over labelled instances
    for idx, sense in labels.items():
        for feat in instance_features(instances[idx]):
            joint[(feat, sense)] += 1
            totals[feat] += 1
    rules: list[DecisionRule] = []
    for feat in totals:
        top = max(joint.get((feat, s), 0) for s in senses)
        winners = sorted(s for s in senses if joint.get((feat, s), 0) == top)
        if len(winners) > 1:
            continue  # evidence splits evenly; no usable rule
        best = winners[0]
        inside = joint.get((feat, best), 0)
        outside = totals[feat] - inside
        score = math.log((inside + params.alpha) / (outside + params.alpha))
        if score > params.min_score:
            rules.append(DecisionRule(feat[0], feat[1], best, score))
    rules.sort(key=lambda r: (-abs(r.score), r.kind, r.value, r.sense_id))
    label_counts = Counter(labels.values())
    default = None
    if label_counts:
        top = max(label_counts.values())
        default = sorted(s for s, c in label_counts.items() if c == top)[0]
    return DecisionList(rules, default)


def strict_majority(counts: Counter) -> str | None:
    """The label of more than half of `counts`' total, else None: OSPD's vote."""
    total = sum(counts.values())
    return next((label for label, n in counts.items() if n * 2 > total), None)


def _label_with_rules(dl: DecisionList, instances: list[DLInstance]) -> dict[int, str]:
    # default sense is not applied while bootstrapping: the residual stays
    # unlabelled rather than being swamped by the majority sense
    labels: dict[int, str] = {}
    for i, inst in enumerate(instances):
        sense, rule = apply_decision_list(dl, inst)
        if rule is not None and sense is not None:
            labels[i] = sense
    return labels


def _ospd_labels(labels: dict[int, str], instances: list[DLInstance]) -> dict[int, str]:
    by_doc: dict[str, list[int]] = defaultdict(list)
    for i in range(len(instances)):
        by_doc[instances[i].doc_id].append(i)
    out = dict(labels)
    for doc, idxs in by_doc.items():
        majority = strict_majority(Counter(labels[i] for i in idxs if i in labels))
        if majority is not None:
            for i in idxs:
                out[i] = majority
    return out


def learn_decision_list(instances: list[DLInstance],
                        seeds: dict[str, list[str]],
                        params: DLParams | None = None) -> DecisionList:
    """Bootstrap a decision list from seed collocations.

    Seeds label an instance when exactly one sense has a seed lemma in the
    instance window; conflicting instances stay unlabelled.  Raises
    ValueError when no instance matches any seed.
    """
    params = params or DLParams()
    if len(seeds) < 1:
        raise ValueError("need at least one seeded sense")
    senses = sorted(seeds)
    seed_sets = {s: set(ws) for s, ws in seeds.items()}

    labels: dict[int, str] = {}
    for i, inst in enumerate(instances):
        window = {inst.lemmas[j] for j in range(len(inst.lemmas)) if j != inst.target_idx}
        hits = [s for s in senses if window & seed_sets[s]]
        if len(hits) == 1:
            labels[i] = hits[0]
    if not labels:
        raise ValueError("no instance matches any seed collocation")

    dl = _build_list(labels, instances, senses, params)
    for _ in range(params.max_iters):
        new_labels = _label_with_rules(dl, instances)
        if params.use_ospd:
            new_labels = _ospd_labels(new_labels, instances)
        if new_labels == labels:
            break
        labels = new_labels
        dl = _build_list(labels, instances, senses, params)
    return dl
