"""Batch lexicographer tooling: KWIC concordancing and pattern reports.

Queries are sequences of per-token constraints (surface regex, lemma, POS
tag, or coarse semantic class) matched leftmost, non-overlapping, inside
sentences.  Pattern reports rank window collocates by log-likelihood ratio
against the corpus background and tabulate POS trigrams and grammatical
relations around a target lemma.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .errors import ParseError

if TYPE_CHECKING:
    from collections.abc import Callable

    from .textpipe import DocAnalysis, Document, Token
    from .wsd import SenseTag, TokenKey


class TokenConstraint(NamedTuple):
    kind: str  # word | lemma | pos | class
    value: str


class PatternQuery(NamedTuple):
    constraints: tuple[TokenConstraint, ...]

    def needs_tags(self) -> bool:
        return any(c.kind == "class" for c in self.constraints)


class KwicLine(NamedTuple):
    doc_id: str
    sent_idx: int
    start: int  # token index of first matched token
    end: int    # exclusive
    left: tuple[str, ...]
    match: tuple[str, ...]
    right: tuple[str, ...]


class PatternReportEntry(NamedTuple):
    kind: str  # collocate | pos_trigram | relation
    value: str
    frequency: int
    score: float


def parse_query(text: str) -> PatternQuery:
    """Space-separated constraints: word=/re/, lemma=x, pos=TAG, class=ID,
    or a bare literal (exact surface match)."""
    constraints: list[TokenConstraint] = []
    for part in text.split():
        if part.startswith("word=/") and part.endswith("/"):
            pattern = part[6:-1]
            try:
                re.compile(pattern)
            except re.error as exc:
                raise ParseError(f"bad regex {pattern!r}: {exc}") from exc
            constraints.append(TokenConstraint("word", pattern))
        elif part.startswith("lemma="):
            constraints.append(TokenConstraint("lemma", part[6:]))
        elif part.startswith("pos="):
            constraints.append(TokenConstraint("pos", part[4:]))
        elif part.startswith("class="):
            constraints.append(TokenConstraint("class", part[6:].upper()))
        elif "=" in part:
            raise ParseError(f"bad constraint {part!r}")
        else:
            constraints.append(TokenConstraint("word", re.escape(part)))
    if not constraints:
        raise ParseError("empty query")
    return PatternQuery(tuple(constraints))


def _token_test(constraint: TokenConstraint,
                tags: dict[TokenKey, SenseTag] | None) -> Callable[[Token], bool]:
    """One constraint as a test of one token, built once per query."""
    kind, value = constraint.kind, constraint.value
    if kind == "word":
        fullmatch = re.compile(value).fullmatch
        return lambda tok: fullmatch(tok.surface) is not None
    if kind == "lemma":
        return lambda tok: tok.lemma == value
    if kind == "pos":
        return lambda tok: tok.pos == value
    if kind == "class":
        def has_class(tok: Token) -> bool:
            tag = tags.get((tok.doc_id, tok.sent_idx, tok.tok_idx))
            return tag is not None and tag.coarse_class == value
        return has_class
    raise ValueError(f"bad constraint kind {kind}")


def kwic(docs: list[Document], tags: dict[TokenKey, SenseTag] | None,
         query: PatternQuery, width: int = 5) -> list[KwicLine]:
    """All leftmost non-overlapping matches in document order.

    Context comes from the surrounding document token stream and may cross
    sentence boundaries; class constraints require tags.
    """
    if query.needs_tags() and tags is None:
        raise ValueError("query uses class constraints but no tags were supplied")
    first, *rest = [_token_test(c, tags) for c in query.constraints]
    m = 1 + len(rest)
    lines: list[KwicLine] = []
    for doc in docs:
        surfaces: list[str] | None = None  # the document's, on its first match
        base = 0  # document position of the sentence's first token
        for sent in doc.sentences:
            free = 0  # the first start not inside an earlier match
            for i, tok in enumerate(sent[:max(len(sent) - m + 1, 0)]):
                if i < free or not first(tok) or not all(
                        test(t) for test, t in zip(rest, sent[i + 1:i + m])):
                    continue
                if surfaces is None:
                    surfaces = [t.surface for s in doc.sentences for t in s]
                fi = base + i
                fj = fi + m
                lines.append(KwicLine(
                    doc.doc_id, tok.sent_idx, i, i + m,
                    tuple(surfaces[max(0, fi - width):fi]),
                    tuple(surfaces[fi:fj]), tuple(surfaces[fj:fj + width])))
                free = i + m
            base += len(sent)
    return lines


def log_likelihood_ratio(k11: int, k12: int, k21: int, k22: int) -> float:
    """Dunning's G2 over a 2x2 contingency table (0 log 0 taken as 0)."""
    def xlx(x: float) -> float:
        return x * math.log(x) if x > 0 else 0.0

    n = k11 + k12 + k21 + k22
    return 2.0 * (xlx(k11) + xlx(k12) + xlx(k21) + xlx(k22)
                  - xlx(k11 + k12) - xlx(k21 + k22)
                  - xlx(k11 + k21) - xlx(k12 + k22)
                  + xlx(n))


def _sorted_entries(kind: str, freq: Counter, scores: dict) -> list[PatternReportEntry]:
    entries = [PatternReportEntry(kind, v, freq[v], scores[v]) for v in freq]
    entries.sort(key=lambda e: (-e.score, e.value))
    return entries


def pattern_report(analyses: list[DocAnalysis],
                   tags: dict[TokenKey, SenseTag] | None,
                   target: str, *, window: int = 5,
                   top: int = 20) -> list[PatternReportEntry]:
    """Collocates, POS trigrams and grammatical relations around a lemma.

    Collocates are ranked by log-likelihood ratio of appearing inside the
    target's +/-window against the rest of the corpus; trigram and relation
    scores use the same contingency construction over their own populations.
    Raises ValueError when the target does not occur.
    """
    colloc: Counter = Counter()
    corpus_freq: Counter = Counter()
    window_total = 0
    corpus_total = 0
    trigram: Counter = Counter()
    trigram_rest: Counter = Counter()
    relation: Counter = Counter()
    relation_rest: Counter = Counter()
    occurrences = 0

    for analysis in analyses:
        doc = analysis.doc
        flat = list(doc.tokens())
        target_flat = set()
        for i, tok in enumerate(flat):
            if tok.pos != "PUNCT":
                corpus_freq[tok.lemma] += 1
                corpus_total += 1
            if tok.lemma == target:
                target_flat.add(i)
                occurrences += 1
        for i in target_flat:
            lo, hi = max(0, i - window), min(len(flat), i + window + 1)
            for j in range(lo, hi):
                if j != i and flat[j].pos != "PUNCT":
                    colloc[flat[j].lemma] += 1
                    window_total += 1
        for sa in analysis.sentences:
            poss = [t.pos for t in sa.tokens]
            target_idx = {t.tok_idx for t in sa.tokens if t.lemma == target}
            for s in range(len(poss) - 2):
                gram = " ".join(poss[s:s + 3])
                if target_idx & {s, s + 1, s + 2}:
                    trigram[gram] += 1
                else:
                    trigram_rest[gram] += 1
            for rel in sa.relations:
                verb = sa.tokens[rel.verb_idx]
                dep = sa.tokens[rel.dependent_idx]
                dep_tag = tags.get((doc.doc_id, dep.sent_idx, dep.tok_idx)) if tags else None
                dep_label = dep_tag.coarse_class if dep_tag else dep.lemma
                if verb.lemma == target:
                    relation[f"{rel.relation}:{dep_label}"] += 1
                elif dep.lemma == target:
                    relation[f"{rel.relation}~{verb.lemma}"] += 1
                else:
                    relation_rest[f"{rel.relation}:{dep_label}"] += 1

    if not occurrences:
        raise ValueError(f"target lemma {target!r} does not occur in the corpus")

    colloc_scores = {}
    for w, a in colloc.items():
        b = corpus_freq[w] - a
        c = window_total - a
        d = corpus_total - corpus_freq[w] - c
        colloc_scores[w] = log_likelihood_ratio(a, max(b, 0), max(c, 0), max(d, 0))

    tri_total = sum(trigram.values())
    tri_rest_total = sum(trigram_rest.values())
    tri_scores = {g: log_likelihood_ratio(a, trigram_rest.get(g, 0),
                                          tri_total - a,
                                          tri_rest_total - trigram_rest.get(g, 0))
                  for g, a in trigram.items()}
    rel_total = sum(relation.values())
    rel_rest_total = sum(relation_rest.values())
    rel_scores = {r: log_likelihood_ratio(a, relation_rest.get(r, 0),
                                          rel_total - a,
                                          rel_rest_total - relation_rest.get(r, 0))
                  for r, a in relation.items()}

    out: list[PatternReportEntry] = []
    out.extend(_sorted_entries("collocate", colloc, colloc_scores)[:top])
    out.extend(_sorted_entries("pos_trigram", trigram, tri_scores)[:top])
    out.extend(_sorted_entries("relation", relation, rel_scores)[:top])
    return out


# ------------------------------------------------------------- rendering

def format_kwic(lines: list[KwicLine], tsv: bool = False) -> str:
    if tsv:
        rows = ["\t".join((l.doc_id, str(l.sent_idx), str(l.start), str(l.end),
                           " ".join(l.left), " ".join(l.match), " ".join(l.right)))
                for l in lines]
        return "\n".join(rows) + ("\n" if rows else "")
    if not lines:
        return ""
    locw = max(len(f"{l.doc_id}:{l.sent_idx}") for l in lines)
    leftw = max(len(" ".join(l.left)) for l in lines)
    rows = []
    for l in lines:
        loc = f"{l.doc_id}:{l.sent_idx}"
        rows.append(f"{loc:<{locw}}  {' '.join(l.left):>{leftw}} "
                    f"[{' '.join(l.match)}] {' '.join(l.right)}")
    return "\n".join(rows) + "\n"


def format_report(entries: list[PatternReportEntry], tsv: bool = False) -> str:
    if tsv:
        rows = ["\t".join((e.kind, e.value, str(e.frequency), f"{e.score:.6f}"))
                for e in entries]
        return "\n".join(rows) + ("\n" if rows else "")
    if not entries:
        return ""
    kindw = max(len(e.kind) for e in entries)
    valw = max(len(e.value) for e in entries)
    freqw = max(len(str(e.frequency)) for e in entries)
    rows = [f"{e.kind:<{kindw}}  {e.value:<{valw}}  "
            f"{e.frequency:>{freqw}}  {e.score:.6f}" for e in entries]
    return "\n".join(rows) + "\n"
