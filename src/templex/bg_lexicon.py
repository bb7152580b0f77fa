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

from .errors import ParseError, raise_or_list

if TYPE_CHECKING:
    from .ontology import Ontology

BG_POS = ("noun", "verb", "adj", "other")


class BgSense(NamedTuple):
    lemma: str
    pos: str
    sense_id: str
    fine_class: str
    coarse_class: str | None = None
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
    """Senses by (lemma, pos).  `load_bg_lexicon` and `load_tuned_lexicon`
    set the file's `path` and each sense's line, by which `validate_bg` and
    `collapse` name a sense they reject."""

    __slots__ = ("senses_by_key", "collapsed", "path", "lines")

    def __init__(self, senses_by_key: dict[tuple[str, str], list[BgSense]] | None = None,
                 collapsed: bool = False, path: str | None = None):
        self.senses_by_key = {} if senses_by_key is None else senses_by_key
        self.collapsed = collapsed
        self.path = path
        self.lines: dict[BgSense, int] = {}

    def entries(self, lemma: str, pos: str) -> list[BgSense]:
        """Full sense records for the key, in sense-id order; empty if unknown."""
        return list(self.senses_by_key.get((lemma.lower(), pos), ()))

    def coarse_classes(self) -> list[str]:
        """Sorted coarse classes attested anywhere in the lexicon."""
        seen = {s.coarse_class for ss in self.senses_by_key.values() for s in ss
                if s.coarse_class is not None}
        return sorted(seen)


def add_sense_line(lex: BgLexicon, parts: list[str], path: str, lineno: int) -> BgSense:
    """Add a split `<lemma> <pos> <sense_id> <CLASS> [subj=C] [obj=C]` line to
    lex and return its sense.

    A repeated (lemma, pos, sense_id) is rejected.  On a collapsed lexicon
    the class is the coarse class too.
    """
    if len(parts) < 4:
        raise ParseError("expected `<lemma> <pos> <sense_id> <CLASS>`",
                         path=path, line=lineno)
    lemma, pos, sense_id, cls = parts[0].lower(), parts[1], parts[2], parts[3].upper()
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
    senses = lex.senses_by_key.setdefault((lemma, pos), [])
    for s in senses:
        if s.sense_id == sense_id:
            raise ParseError(f"duplicate sense {lemma}/{pos}/{sense_id}",
                             path=path, line=lineno)
    coarse = cls if lex.collapsed else None
    sense = tuple.__new__(BgSense, (lemma, pos, sense_id, cls, coarse, subj_r, obj_r))
    senses.append(sense)
    return sense


def sense_line(s: BgSense, collapsed: bool) -> str:
    """The sense in the `add_sense_line` grammar; the class column holds the
    coarse class when collapsed."""
    line = f"{s.lemma} {s.pos} {s.sense_id} {s.coarse_class if collapsed else s.fine_class}"
    if s.subj_restriction:
        line += f" subj={s.subj_restriction}"
    if s.obj_restriction:
        line += f" obj={s.obj_restriction}"
    return line


def load_bg_lexicon(text: str, path: str = "<string>") -> BgLexicon:
    """Parse `<lemma> <pos> <sense_id> <FINE_CLASS> [subj=C] [obj=C] [# comment]`."""
    lex = BgLexicon(path=path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split("#", 1)[0].split()
        if parts:
            lex.lines[add_sense_line(lex, parts, path, lineno)] = lineno
    for ss in lex.senses_by_key.values():
        if len(ss) > 1:
            ss.sort(key=lambda s: s.sense_id)
    return lex


def validate_bg(lex: BgLexicon, onto: Ontology) -> list[ParseError]:
    """Fine classes and restriction classes that do not resolve in the
    ontology, in file order, each a ParseError at its sense's line."""
    problems = []
    for ss in lex.senses_by_key.values():
        for s in ss:
            for cls in (s.fine_class, s.subj_restriction, s.obj_restriction):
                if cls is not None and cls not in onto.classes:
                    problems.append(ParseError(
                        f"{s.lemma}/{s.pos}/{s.sense_id}: unknown class {cls}",
                        path=lex.path, line=lex.lines.get(s)))
    problems.sort(key=lambda p: p.line or 0)
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


def collapse(lex: BgLexicon, cmap: CollapseMap, onto: Ontology,
             problems: list[ParseError] | None = None) -> BgLexicon:
    """Rewrite every sense onto its coarse class, merging coarse duplicates.

    Idempotent; the input lexicon is left untouched.  A sense whose class
    has no image in its part of speech's scheme, or one the ontology lacks,
    is a ParseError at its line: the first in file order is raised, or,
    given a `problems` list, each is added to it and its sense left out.
    """
    out = BgLexicon(collapsed=True)
    found: list[ParseError] = []
    images: dict[tuple[str, str], str] = {}  # (fine class, pos) -> its checked image
    for key, ss in lex.senses_by_key.items():
        lemma, pos = key
        by_coarse: dict[str, BgSense] = {}
        for s in ss:
            coarse = images.get((s.fine_class, pos))
            if coarse is None:
                coarse = coarse_class_for(s.fine_class, cmap, onto)
                problem = None
                if coarse is None:
                    problem = f"fine class {s.fine_class} has no coarse image (even via ancestors)"
                elif (pos == "noun" and coarse not in cmap.noun_classes
                      or pos == "verb" and coarse not in cmap.verb_classes):
                    problem = (f"{s.fine_class} collapses to {coarse}, "
                               f"which is not in the {pos} scheme")
                elif coarse not in onto.classes:
                    problem = (f"{s.fine_class} collapses to {coarse}, "
                               f"which is not an ontology class")
                if problem is not None:
                    found.append(ParseError(f"{lemma}/{pos}/{s.sense_id}: {problem}",
                                            path=lex.path, line=lex.lines.get(s)))
                    continue
                images[s.fine_class, pos] = coarse
            kept = by_coarse.get(coarse)
            if kept is None or s.sense_id < kept.sense_id:
                # s._replace(coarse_class=coarse) without its Python-level overhead
                by_coarse[coarse] = tuple.__new__(BgSense, (*s[:4], coarse, *s[5:]))
        merged = list(by_coarse.values())
        if len(merged) > 1:
            merged.sort(key=lambda s: s.sense_id)
        out.senses_by_key[key] = merged
    found.sort(key=lambda p: p.line or 0)
    raise_or_list(found, problems)
    return out

