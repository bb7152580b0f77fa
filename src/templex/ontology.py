"""Semantic-class taxonomy plus the template schemas extraction is asked to fill.

The taxonomy is a forest: every class has at most one parent, so subsumption
is a plain parent-chain walk.  Class ids are case-normalised to uppercase on
load.  Instances are immutable after loading and safe to share between
threads.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CycleError, ParseError

CATEGORIES = ("noun", "verb", "any")


class SemClass(NamedTuple):
    id: str
    parent: str | None = None
    lexical_category: str = "any"


class SlotSpec(NamedTuple):
    name: str
    filler_class: str
    required: bool = False
    multiplicity: str = "one"  # one | many


class TemplateSchema(NamedTuple):
    name: str
    slots: tuple[SlotSpec, ...] = ()

    def slot(self, name: str) -> SlotSpec | None:
        for s in self.slots:
            if s.name == name:
                return s
        return None


class Ontology:
    """Validated class forest and schema set; closed under parent references."""

    __slots__ = ("classes", "schemas")

    def __init__(self, classes: dict[str, SemClass] | None = None,
                 schemas: dict[str, TemplateSchema] | None = None):
        self.classes = {} if classes is None else classes
        self.schemas = {} if schemas is None else schemas

    def ancestry(self, cid: str) -> list[str]:
        """The class itself followed by its parent chain up to a root."""
        if cid not in self.classes:
            raise KeyError(f"unknown class: {cid}")
        chain = [cid]
        cur = self.classes[cid].parent
        while cur is not None:
            chain.append(cur)
            cur = self.classes[cur].parent
        return chain

    def subsumes(self, ancestor: str, descendant: str) -> bool:
        """True iff ancestor equals descendant or lies on its parent chain."""
        if ancestor not in self.classes:
            raise KeyError(f"unknown class: {ancestor}")
        return ancestor in self.ancestry(descendant)

    def compatible(self, a: str, b: str) -> bool:
        """True iff either class subsumes the other.

        Background tags are deliberately coarser than foreground
        restrictions, so an ancestor tag is allowed to satisfy a descendant
        restriction; incompatible means provably different branches.
        """
        return self.subsumes(a, b) or self.subsumes(b, a)

    def schema(self, name: str) -> TemplateSchema:
        if name not in self.schemas:
            raise KeyError(f"unknown template: {name}")
        return self.schemas[name]


def load_ontology(text: str, path: str = "<string>") -> Ontology:
    """Parse and validate the line-oriented ontology format.

    Grammar (see docs/formats.md):
        class <ID> [isa <ID>] [cat noun|verb]
        template <NAME>
          slot <name> : <CLASS> [required] [many]
    `#` starts a comment.
    """
    classes: dict[str, SemClass] = {}
    class_lines: dict[str, int] = {}
    slot_lines: dict[tuple[str, str], int] = {}  # (template, slot) -> line
    schemas: dict[str, TemplateSchema] = {}
    cur_template: str | None = None
    cur_slots: list[SlotSpec] = []

    def finish_template():
        nonlocal cur_template, cur_slots
        if cur_template is not None:
            schemas[cur_template] = TemplateSchema(cur_template, tuple(cur_slots))
            cur_template, cur_slots = None, []

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0] in " \t"
        parts = line.split()

        if not indented:
            finish_template()
            if parts[0] == "class":
                if len(parts) < 2:
                    raise ParseError("class needs a name", path=path, line=lineno)
                cid = parts[1].upper()
                parent = None
                cat = "any"
                rest = parts[2:]
                while rest:
                    if rest[0] == "isa" and len(rest) >= 2:
                        parent = rest[1].upper()
                        rest = rest[2:]
                    elif rest[0] == "cat" and len(rest) >= 2:
                        cat = rest[1].lower()
                        if cat not in ("noun", "verb"):
                            raise ParseError(f"bad category {rest[1]!r}",
                                             path=path, line=lineno)
                        rest = rest[2:]
                    else:
                        raise ParseError(f"unexpected token {rest[0]!r}",
                                         path=path, line=lineno)
                if cid in classes:
                    raise ParseError(f"duplicate class {cid}", path=path, line=lineno)
                classes[cid] = SemClass(cid, parent, cat)
                class_lines[cid] = lineno
            elif parts[0] == "template":
                if len(parts) != 2:
                    raise ParseError("template needs exactly one name",
                                     path=path, line=lineno)
                name = parts[1]
                if name in schemas:
                    raise ParseError(f"duplicate template {name}", path=path, line=lineno)
                cur_template = name
            else:
                raise ParseError(f"unknown directive {parts[0]!r}", path=path, line=lineno)
        else:
            if parts[0] != "slot":
                raise ParseError(f"unknown indented directive {parts[0]!r}",
                                 path=path, line=lineno)
            if cur_template is None:
                raise ParseError("slot outside a template", path=path, line=lineno)
            # slot <name> : <CLASS> [required] [many]
            if len(parts) < 4 or parts[2] != ":":
                raise ParseError("expected `slot <name> : <CLASS>`", path=path, line=lineno)
            sname = parts[1]
            fclass = parts[3].upper()
            required = False
            multiplicity = "one"
            for tok in parts[4:]:
                if tok == "required":
                    required = True
                elif tok == "many":
                    multiplicity = "many"
                else:
                    raise ParseError(f"unexpected token {tok!r}", path=path, line=lineno)
            if any(s.name == sname for s in cur_slots):
                raise ParseError(f"duplicate slot {sname} in template {cur_template}",
                                 path=path, line=lineno)
            cur_slots.append(SlotSpec(sname, fclass, required, multiplicity))
            slot_lines[(cur_template, sname)] = lineno

    finish_template()

    onto = Ontology(classes, schemas)
    _validate(onto, path, class_lines, slot_lines)
    return onto


def _validate(onto: Ontology, path: str, class_lines: dict[str, int],
              slot_lines: dict[tuple[str, str], int]) -> None:
    for cls in onto.classes.values():
        if cls.parent is not None and cls.parent not in onto.classes:
            raise ParseError(f"class {cls.id}: dangling parent {cls.parent}",
                             path=path, line=class_lines.get(cls.id))
    check_acyclic({cid: cls.parent for cid, cls in onto.classes.items()}, "class")
    for schema in onto.schemas.values():
        for s in schema.slots:
            if s.filler_class not in onto.classes:
                raise ParseError(
                    f"template {schema.name}: slot {s.name} filler class "
                    f"{s.filler_class} is not declared",
                    path=path, line=slot_lines.get((schema.name, s.name)))


def check_acyclic(parents: dict[str, str | None], what: str) -> None:
    """Raise CycleError if a parent chain loops; every parent must be a key.

    A colour walk over the single-parent graph: each node is visited once.
    """
    state: dict[str, int] = {}  # 1 = on current walk, 2 = done
    for start in parents:
        walk: list[str] = []
        cur: str | None = start
        while cur is not None and state.get(cur) != 2:
            if state.get(cur) == 1:
                raise CycleError(walk[walk.index(cur):], what=what)
            state[cur] = 1
            walk.append(cur)
            cur = parents[cur]
        for node in walk:
            state[node] = 2


def dump_ontology(onto: Ontology) -> str:
    """Serialise back to the input format; load(dump(o)) reproduces o."""
    out: list[str] = []
    for cls in onto.classes.values():
        line = f"class {cls.id}"
        if cls.parent is not None:
            line += f" isa {cls.parent}"
        if cls.lexical_category != "any":
            line += f" cat {cls.lexical_category}"
        out.append(line)
    for schema in onto.schemas.values():
        out.append(f"template {schema.name}")
        for s in schema.slots:
            line = f"  slot {s.name} : {s.filler_class}"
            if s.required:
                line += " required"
            if s.multiplicity == "many":
                line += " many"
            out.append(line)
    return "\n".join(out) + ("\n" if out else "")
