"""General-coverage background lexicon and its coarse-scheme collapse.

One sense per line.  Verb senses may carry optional selection-restriction
fields (`subj=CLASS`, `obj=CLASS`) so that general verbal senses can take
part in the restriction filter alongside foreground senses.  Collapsing maps
every fine class onto the declared coarse scheme (walking the taxonomy for
the nearest mapped ancestor) and merges senses that land on the same coarse
class, keeping the lexicographically lowest sense id.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import ParseError

if TYPE_CHECKING:
    from .ontology import Ontology

BG_POS = ("noun", "verb", "adj", "other")


class BgSense(NamedTuple):
    lemma: str
    pos: str
    sense_id: str
    fine_class: str
    coarse_class: str | None = None
    gloss: str | None = None
    subj_restriction: str | None = None
    obj_restriction: str | None = None


class CollapseMap:
    __slots__ = ("mapping", "noun_classes", "verb_classes")

    def __init__(self, mapping: dict[str, str] | None = None,
                 noun_classes: tuple[str, ...] = (), verb_classes: tuple[str, ...] = ()):
        self.mapping = {} if mapping is None else mapping
        self.noun_classes = noun_classes
        self.verb_classes = verb_classes

    def scheme(self) -> set[str]:
        return set(self.noun_classes) | set(self.verb_classes)


class BgLexicon:
    __slots__ = ("senses_by_key", "collapsed")

    def __init__(self, senses_by_key: dict[tuple[str, str], list[BgSense]] | None = None,
                 collapsed: bool = False):
        self.senses_by_key = {} if senses_by_key is None else senses_by_key
        self.collapsed = collapsed

    def entries(self, lemma: str, pos: str) -> list[BgSense]:
        """Full sense records for the key, in sense-id order; empty if unknown."""
        return list(self.senses_by_key.get((lemma.lower(), pos), ()))

    def senses(self, lemma: str, pos: str) -> tuple[list[tuple[str, str]], bool]:
        """(sense_id, coarse class) pairs plus an ambiguity flag.

        Only meaningful on a collapsed lexicon; raises otherwise.
        """
        if not self.collapsed:
            raise RuntimeError("senses requires a collapsed lexicon")
        out = [(s.sense_id, s.coarse_class) for s in self.entries(lemma, pos)]
        return out, len(out) > 1

    def coarse_classes(self) -> list[str]:
        """Sorted coarse classes attested anywhere in the lexicon."""
        seen = {s.coarse_class for ss in self.senses_by_key.values() for s in ss
                if s.coarse_class is not None}
        return sorted(seen)


def load_bg_lexicon(text: str, path: str = "<string>") -> BgLexicon:
    """Parse `<lemma> <pos> <sense_id> <FINE_CLASS> [subj=C] [obj=C] [# gloss]`."""
    lex = BgLexicon()
    seen: set[tuple[str, str, str]] = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        gloss = None
        line = rawline
        if "#" in line:
            line, comment = line.split("#", 1)
            comment = comment.strip()
            if comment and line.strip():
                gloss = comment
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 4:
            raise ParseError("expected `<lemma> <pos> <sense_id> <FINE_CLASS>`",
                             path=path, line=lineno)
        lemma, pos, sense_id, fine = parts[0].lower(), parts[1], parts[2], parts[3].upper()
        if pos not in BG_POS:
            raise ParseError(f"bad pos {pos!r}", path=path, line=lineno)
        subj_r = obj_r = None
        for tok in parts[4:]:
            if tok.startswith("subj="):
                subj_r = tok[5:].upper()
            elif tok.startswith("obj="):
                obj_r = tok[4:].upper()
            else:
                raise ParseError(f"unexpected token {tok!r}", path=path, line=lineno)
        key3 = (lemma, pos, sense_id)
        if key3 in seen:
            raise ParseError(f"duplicate sense {lemma}/{pos}/{sense_id}",
                             path=path, line=lineno)
        seen.add(key3)
        sense = BgSense(lemma, pos, sense_id, fine, None, gloss, subj_r, obj_r)
        lex.senses_by_key.setdefault((lemma, pos), []).append(sense)
    for ss in lex.senses_by_key.values():
        ss.sort(key=lambda s: s.sense_id)
    return lex


def validate_bg(lex: BgLexicon, onto: Ontology) -> list[str]:
    """Fine classes and restriction classes that do not resolve in the ontology."""
    problems = []
    for ss in lex.senses_by_key.values():
        for s in ss:
            if s.fine_class not in onto.classes:
                problems.append(f"{s.lemma}/{s.pos}/{s.sense_id}: unknown class {s.fine_class}")
            for r in (s.subj_restriction, s.obj_restriction):
                if r is not None and r not in onto.classes:
                    problems.append(f"{s.lemma}/{s.pos}/{s.sense_id}: unknown class {r}")
    return problems


def load_collapse_map(text: str, path: str = "<string>") -> CollapseMap:
    """Parse `scheme noun C1 C2 ...`, `scheme verb ...` and `map FINE -> COARSE`."""
    noun: list[str] = []
    verb: list[str] = []
    mapping: dict[str, str] = {}
    pending: list[tuple[str, str, int]] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "scheme":
            if len(parts) < 3 or parts[1] not in ("noun", "verb"):
                raise ParseError("expected `scheme noun|verb <C1> <C2> ...`",
                                 path=path, line=lineno)
            target = noun if parts[1] == "noun" else verb
            for cid in parts[2:]:
                cid = cid.upper()
                if cid in target:
                    raise ParseError(f"duplicate scheme class {cid}", path=path, line=lineno)
                target.append(cid)
        elif parts[0] == "map":
            if len(parts) != 4 or parts[2] != "->":
                raise ParseError("expected `map <FINE> -> <COARSE>`", path=path, line=lineno)
            pending.append((parts[1].upper(), parts[3].upper(), lineno))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", path=path, line=lineno)
    cmap = CollapseMap(mapping, tuple(noun), tuple(verb))
    scheme = cmap.scheme()
    for cid in scheme:
        mapping[cid] = cid  # coarse classes map to themselves
    for fine, coarse, lineno in pending:
        if coarse not in scheme:
            raise ParseError(f"map target {coarse} is not a scheme class",
                             path=path, line=lineno)
        if fine in scheme and fine != coarse:
            raise ParseError(f"scheme class {fine} may only map to itself",
                             path=path, line=lineno)
        mapping[fine] = coarse
    return cmap


def default_collapse_map() -> CollapseMap:
    """The coarse scheme shipped with the package: 25 noun / 15 verb classes."""
    from importlib import resources
    text = resources.files("templex").joinpath("data/default_scheme.collapse").read_text()
    return load_collapse_map(text, "default_scheme.collapse")


def coarse_class_for(fine: str, cmap: CollapseMap, onto: Ontology) -> str | None:
    """Image of a fine class: itself or its nearest mapped ancestor."""
    if fine in cmap.mapping:
        return cmap.mapping[fine]
    if fine not in onto.classes:
        return None
    for anc in onto.ancestry(fine):
        if anc in cmap.mapping:
            return cmap.mapping[anc]
    return None


def collapse(lex: BgLexicon, cmap: CollapseMap, onto: Ontology) -> BgLexicon:
    """Rewrite every sense onto its coarse class, merging coarse duplicates.

    Idempotent; the input lexicon is left untouched.
    """
    out = BgLexicon(collapsed=True)
    for key, ss in lex.senses_by_key.items():
        lemma, pos = key
        by_coarse: dict[str, BgSense] = {}
        for s in ss:
            coarse = coarse_class_for(s.fine_class, cmap, onto)
            if coarse is None:
                raise ParseError(
                    f"{lemma}/{pos}/{s.sense_id}: fine class {s.fine_class} has no "
                    f"coarse image (even via ancestors)")
            if pos == "noun" and coarse not in cmap.noun_classes:
                raise ParseError(
                    f"{lemma}/{pos}/{s.sense_id}: {s.fine_class} collapses to "
                    f"{coarse}, which is not in the noun scheme")
            if pos == "verb" and coarse not in cmap.verb_classes:
                raise ParseError(
                    f"{lemma}/{pos}/{s.sense_id}: {s.fine_class} collapses to "
                    f"{coarse}, which is not in the verb scheme")
            collapsed = s._replace(coarse_class=coarse)
            kept = by_coarse.get(coarse)
            if kept is None or collapsed.sense_id < kept.sense_id:
                by_coarse[coarse] = collapsed
        merged = sorted(by_coarse.values(), key=lambda s: s.sense_id)
        out.senses_by_key[key] = merged
    return out


def dump_bg_lexicon(lex: BgLexicon) -> str:
    """Serialise sense lines (sorted) in the load format.

    On a collapsed lexicon the class column holds the coarse class, so a
    reload yields an already-collapsed lexicon under an identity scheme.
    """
    lines = []
    for key in sorted(lex.senses_by_key):
        for s in lex.senses_by_key[key]:
            cls = s.coarse_class if lex.collapsed else s.fine_class
            line = f"{s.lemma} {s.pos} {s.sense_id} {cls}"
            if s.subj_restriction:
                line += f" subj={s.subj_restriction}"
            if s.obj_restriction:
                line += f" obj={s.obj_restriction}"
            if s.gloss:
                line += f" # {s.gloss}"
            lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")
