"""Expected outputs that do not come from the code under test.

The golden extraction of the fixture is renamed and reordered to match a
replica corpus; KWIC match counts come from a naive scan of the tagged file.
"""

from __future__ import annotations

import re


def expected_extract(gold: str, order: list[tuple[str, str]]) -> str:
    """The fixture's golden JSON-Lines for a replica corpus.

    `order` lists (new doc id, fixture doc id) in corpus order.  The header
    line stays; each instance line of a fixture document is repeated for
    every copy, with only its provenance doc id rewritten.
    """
    header, *body = gold.splitlines(keepends=True)
    by_doc: dict[str, list[str]] = {}
    for line in body:
        doc = re.search(r'"provenance": \{"doc": "([^"]*)"', line).group(1)
        by_doc.setdefault(doc, []).append(line)
    out = [header]
    for new_id, src in order:
        old = f'"provenance": {{"doc": "{src}"'
        new = f'"provenance": {{"doc": "{new_id}"'
        out.extend(line.replace(old, new) for line in by_doc.get(src, ()))
    return "".join(out)


def tagged_sentences(tagged: str) -> list[list[list[str]]]:
    """Sentences of a 4-column tagged corpus, each token as its column list."""
    sents: list[list[list[str]]] = []
    cur: list[list[str]] = []
    for line in tagged.splitlines():
        if not line.strip() or line.startswith("#"):
            if cur:
                sents.append(cur)
                cur = []
            continue
        cur.append(line.split("\t"))
    if cur:
        sents.append(cur)
    return sents


def _token_matches(kind: str, value: str, tok: list[str]) -> bool:
    surface, lemma, pos, tag = tok
    if kind == "word":
        return re.fullmatch(value, surface) is not None
    if kind == "lemma":
        return lemma == value
    if kind == "pos":
        return pos == value
    return tag != "-" and tag.split("/")[1] == value


def naive_kwic_count(sentences: list[list[list[str]]],
                     constraints: tuple[tuple[str, str], ...]) -> int:
    """Leftmost non-overlapping matches inside sentences, by plain scanning."""
    n = len(constraints)
    count = 0
    for sent in sentences:
        i = 0
        while i + n <= len(sent):
            if all(_token_matches(k, v, sent[i + j])
                   for j, (k, v) in enumerate(constraints)):
                count += 1
                i += n
            else:
                i += 1
    return count


def kwic_header_count(output: str) -> int | None:
    """The `matches=N` figure of a `templex kwic` output header, if present."""
    m = re.match(r"# kwic .* matches=(\d+)\n", output)
    return int(m.group(1)) if m else None
