"""Hand-authored foreground lexicon: key predicates bound to template schemas.

Concepts form a single-parent default-inheritance hierarchy.  Resolution
flattens it field by field: a concept's effective value for schema / args /
assertions / instigator / discriminators is the nearest value set on its own
node or up the parent chain.  Assertions are replaced wholesale when
overridden, never merged.  A word's overrides restate the same fields as
the nearest link of its concept's chain, privately, without touching the
shared concept.
"""

from __future__ import annotations

from typing import NamedTuple

from .decisionlist import DecisionRule
from .errors import ParseError
from .ontology import Ontology, check_acyclic

POS_TAGS = ("verb", "noun", "adj")
GR_KEYS = ("subj", "dobj", "iobj")  # plus pp:<prep>

_FIELD_NAMES = ("schema", "args", "assertions", "instigator", "discriminators")


class ArgSpec(NamedTuple):
    role: str
    restriction: str
    slot: str | None = None  # a slot of the resolved node's own template
    required: bool = True


class StateAssertion(NamedTuple):
    predicate: str
    role_args: tuple[str, ...]
    polarity: bool = True
    phase: str = "after"  # before | after


class ConceptNode(NamedTuple):
    """A fully resolved concept: no inheritance links remain."""

    id: str
    schema: str
    args: tuple[ArgSpec, ...] = ()
    assertions: tuple[StateAssertion, ...] = ()
    instigator: str | None = None
    discriminators: tuple[DecisionRule, ...] = ()
    line: int = 0

    def roles(self) -> set[str]:
        return {a.role for a in self.args}


class RawConcept:
    """A concept block as written, or a word's override block (no id, no
    parent); a field left None or empty is inherited."""

    __slots__ = ("id", "parent", "schema", "args", "assertions", "instigator",
                 "discriminators", "line")

    def __init__(self, id: str | None, parent: str | None = None, schema: str | None = None,
                 args: list[ArgSpec] | None = None,
                 assertions: list[StateAssertion] | None = None,
                 instigator: str | None = None,
                 discriminators: list[DecisionRule] | None = None, line: int = 0):
        self.id = id
        self.parent = parent
        self.schema = schema
        self.args = [] if args is None else args
        self.assertions = [] if assertions is None else assertions
        self.instigator = instigator
        self.discriminators = [] if discriminators is None else discriminators
        self.line = line

    def empty(self) -> bool:
        """True when the block sets no field."""
        return (self.schema is None and not self.args and not self.assertions
                and self.instigator is None and not self.discriminators)


class Realization:
    """One word sense: the concept it realizes, its complement map and its
    override block as parsed; `effective` is the resolved concept node the
    word acts as, set by resolve_inheritance."""

    __slots__ = ("lemma", "pos", "lang", "sense_id", "concept", "complement_map",
                 "overrides", "effective", "line")

    def __init__(self, lemma: str, pos: str, lang: str, sense_id: str, concept: str,
                 complement_map: dict[str, str] | None = None,
                 overrides: RawConcept | None = None,
                 effective: ConceptNode | None = None, line: int = 0):
        self.lemma = lemma
        self.pos = pos
        self.lang = lang
        self.sense_id = sense_id
        self.concept = concept
        self.complement_map = {} if complement_map is None else complement_map
        self.overrides = RawConcept(None) if overrides is None else overrides
        self.effective = effective
        self.line = line


class RawLexicon:
    __slots__ = ("concepts", "realizations", "path")

    def __init__(self, concepts: dict[str, RawConcept] | None = None,
                 realizations: list[Realization] | None = None,
                 path: str = "<string>"):
        self.concepts = {} if concepts is None else concepts
        self.realizations = [] if realizations is None else realizations
        self.path = path


class FgLexicon:
    """Inheritance-resolved foreground lexicon, indexed by (lemma, pos, lang)."""

    __slots__ = ("concepts", "realizations")

    def __init__(self, concepts: dict[str, ConceptNode] | None = None,
                 realizations: dict[tuple[str, str, str], list[Realization]] | None = None):
        self.concepts = {} if concepts is None else concepts
        self.realizations = {} if realizations is None else realizations

    def senses(self, lemma: str, pos: str, lang: str = "en") -> list[Realization]:
        """All realizations for the key, in declaration order; empty if unknown."""
        return list(self.realizations.get((lemma.lower(), pos, lang), ()))


class Diagnostic(NamedTuple):
    severity: str  # error | warning
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"


# ---------------------------------------------------------------- parsing

def _parse_assert(parts: list[str], path: str, lineno: int) -> StateAssertion:
    # assert [not] pred(role,...) @before|@after
    toks = parts[:]
    polarity = True
    if toks and toks[0] == "not":
        polarity = False
        toks = toks[1:]
    if len(toks) != 2:
        raise ParseError("expected `assert [not] pred(role,...) @before|@after`",
                         path=path, line=lineno)
    call, phase_tok = toks
    if not phase_tok.startswith("@") or phase_tok[1:] not in ("before", "after"):
        raise ParseError(f"bad phase {phase_tok!r}", path=path, line=lineno)
    if "(" not in call or not call.endswith(")"):
        raise ParseError(f"bad predicate call {call!r}", path=path, line=lineno)
    pred, argstr = call[:-1].split("(", 1)
    roles = tuple(a.strip() for a in argstr.split(",") if a.strip())
    if not pred:
        raise ParseError("empty predicate name", path=path, line=lineno)
    return StateAssertion(pred, roles, polarity, phase_tok[1:])


def _parse_arg(parts: list[str], path: str, lineno: int) -> ArgSpec:
    # arg <role> : <CLASS> [-> <slot>] [optional]
    if len(parts) < 3 or parts[1] != ":":
        raise ParseError("expected `arg <role> : <CLASS> [-> <slot>] [optional]`",
                         path=path, line=lineno)
    role = parts[0]
    restriction = parts[2].upper()
    slot = None
    required = True
    rest = parts[3:]
    while rest:
        if rest[0] == "->" and len(rest) >= 2:
            slot = rest[1]
            rest = rest[2:]
        elif rest[0] == "optional":
            required = False
            rest = rest[1:]
        else:
            raise ParseError(f"unexpected token {rest[0]!r}", path=path, line=lineno)
    return ArgSpec(role, restriction, slot, required)


def _parse_rule(sense_id: str, text: str, path: str, lineno: int) -> DecisionRule:
    # a hand rule scores 1.0: a stable sort keeps declaration order as priority
    kinds = {"left": "word_left", "right": "word_right", "window": "word_in_window"}
    if ":" not in text:
        raise ParseError(f"bad feature pattern {text!r} (want left:/right:/window:)",
                         path=path, line=lineno)
    kind, value = text.split(":", 1)
    if kind not in kinds or not value:
        raise ParseError(f"bad feature pattern {text!r}", path=path, line=lineno)
    return DecisionRule(kinds[kind], value.lower(), sense_id, 1.0)


def _parse_field(node: RawConcept, parts: list[str], path: str,
                 lineno: int, prefix: str = "") -> None:
    """Set one inheritable field on a concept or a word's overrides.

    `parts` is a concept-block line, or the rest of an `override` line,
    whose messages then carry the prefix "override ".
    """
    head, rest = parts[0], parts[1:]
    if head == "template" and len(rest) == 1:
        node.schema = rest[0]
        return
    if head == "instigator" and len(rest) == 1:
        node.instigator = rest[0]
        return
    if head == "arg":
        name, item = "args", _parse_arg(rest, path, lineno)
    elif head == "assert":
        name, item = "assertions", _parse_assert(rest, path, lineno)
    elif head == "discriminate":
        if len(rest) != 3 or rest[1] != "when":
            raise ParseError(f"expected `{prefix}discriminate <sense_id> when <feature>`",
                             path=path, line=lineno)
        name, item = "discriminators", _parse_rule(rest[0], rest[2], path, lineno)
    else:
        what = "override field" if prefix else "concept directive"
        raise ParseError(f"unknown {what} {head!r}", path=path, line=lineno)
    getattr(node, name).append(item)


def parse_fg_lexicon(text: str, path: str = "<string>") -> RawLexicon:
    """Parse the foreground DSL; inheritance links are kept unresolved."""
    raw = RawLexicon(path=path)
    cur: RawConcept | Realization | None = None
    seen_keys: set[tuple[str, str, str, str]] = set()

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0] in " \t"
        parts = line.split()

        if not indented:
            if parts[0] == "concept":
                if len(parts) not in (2, 4) or (len(parts) == 4 and parts[2] != "isa"):
                    raise ParseError("expected `concept <ID> [isa <ID>]`",
                                     path=path, line=lineno)
                cid = parts[1].upper()
                if cid in raw.concepts:
                    raise ParseError(f"duplicate concept {cid}", path=path, line=lineno)
                parent = parts[3].upper() if len(parts) == 4 else None
                cur = RawConcept(cid, parent, line=lineno)
                raw.concepts[cid] = cur
            elif parts[0] == "word":
                # word <lemma> <pos> [lang <tag>] sense <id> -> <concept>
                toks = parts[1:]
                if len(toks) < 5:
                    raise ParseError("expected `word <lemma> <pos> [lang <tag>] "
                                     "sense <id> -> <concept>`", path=path, line=lineno)
                lemma = toks[0].lower()
                pos = toks[1]
                if pos not in POS_TAGS:
                    raise ParseError(f"bad word pos {pos!r}", path=path, line=lineno)
                toks = toks[2:]
                lang = "en"
                if toks[0] == "lang":
                    if len(toks) < 2:
                        raise ParseError("lang needs a tag", path=path, line=lineno)
                    lang = toks[1]
                    toks = toks[2:]
                if len(toks) != 4 or toks[0] != "sense" or toks[2] != "->":
                    raise ParseError("expected `sense <id> -> <concept>`",
                                     path=path, line=lineno)
                sense_id, concept = toks[1], toks[3].upper()
                key = (lemma, pos, lang, sense_id)
                if key in seen_keys:
                    raise ParseError(f"duplicate sense {lemma}/{pos}/{lang}/{sense_id}",
                                     path=path, line=lineno)
                seen_keys.add(key)
                cur = Realization(lemma, pos, lang, sense_id, concept, line=lineno)
                raw.realizations.append(cur)
            else:
                raise ParseError(f"unknown directive {parts[0]!r}", path=path, line=lineno)
            continue

        if cur is None:
            raise ParseError("indented line outside a block", path=path, line=lineno)

        if isinstance(cur, RawConcept):
            _parse_field(cur, parts, path, lineno)
        elif parts[0] == "map":
            # map subj|dobj|iobj|pp:<prep> -> <role>
            if len(parts) != 4 or parts[2] != "->":
                raise ParseError("expected `map <relation> -> <role>`",
                                 path=path, line=lineno)
            gr = parts[1]
            if gr not in GR_KEYS and not gr.startswith("pp:"):
                raise ParseError(f"bad grammatical relation {gr!r}",
                                 path=path, line=lineno)
            if gr in cur.complement_map:
                raise ParseError(f"duplicate map for {gr!r}", path=path, line=lineno)
            cur.complement_map[gr] = parts[3]
        elif parts[0] == "override":
            if len(parts) == 1:
                raise ParseError("empty override", path=path, line=lineno)
            _parse_field(cur.overrides, parts[1:], path, lineno, "override ")
        else:
            raise ParseError(f"unknown word directive {parts[0]!r}",
                             path=path, line=lineno)

    for r in raw.realizations:
        if r.concept not in raw.concepts:
            raise ParseError(f"word {r.lemma}/{r.pos}: undeclared concept {r.concept}",
                             path=path, line=r.line)
    return raw


# ------------------------------------------------------------- resolution

def _merge_chain(chain: list[RawConcept]) -> dict:
    """Nearest-set-value field merge, self first then up the parent chain:
    each field's first truthy value, or None."""
    return {name: next((value for node in chain if (value := getattr(node, name))), None)
            for name in _FIELD_NAMES}


def _build_node(cid: str, merged: dict, line: int, label: str, path: str,
                at: int) -> ConceptNode:
    """The node of a merged chain; a fault is a ParseError at line `at` of `path`."""
    if merged["schema"] is None:
        raise ParseError(f"{label}: no schema after resolution", path=path, line=at)
    return ConceptNode(
        id=cid,
        schema=merged["schema"],
        args=tuple(merged["args"] or []),
        assertions=tuple(merged["assertions"] or []),
        instigator=merged["instigator"],
        discriminators=tuple(merged["discriminators"] or []),
        line=line,
    )


def resolve_inheritance(raw: RawLexicon) -> FgLexicon:
    """Flatten the hierarchy and set each realization's `effective` node in
    place; resolving an already-flat lexicon is the identity."""
    for node in raw.concepts.values():
        if node.parent is not None and node.parent not in raw.concepts:
            raise ParseError(f"unknown parent concept {node.parent}",
                             path=raw.path, line=node.line)
    check_acyclic({cid: node.parent for cid, node in raw.concepts.items()}, "concept")

    concepts: dict[str, ConceptNode] = {}
    chains: dict[str, list[RawConcept]] = {}
    for cid, node in raw.concepts.items():
        chain = chains[cid] = [node]
        cur = node.parent
        while cur is not None:
            chain.append(raw.concepts[cur])
            cur = raw.concepts[cur].parent
        concepts[cid] = _build_node(cid, _merge_chain(chain), node.line, f"concept {cid}",
                                    raw.path, node.line)

    lex = FgLexicon(concepts=concepts)
    for real in raw.realizations:
        effective = concepts[real.concept]
        if not real.overrides.empty():
            # the word's overrides are the nearest link of the concept's chain
            effective = _build_node(real.concept,
                                    _merge_chain([real.overrides, *chains[real.concept]]),
                                    effective.line, f"word {real.lemma}/{real.pos}",
                                    raw.path, real.line)
        for gr, role in real.complement_map.items():
            if role not in effective.roles():
                raise ParseError(
                    f"word {real.lemma}/{real.pos}: mapping {gr} -> {role}: concept "
                    f"{real.concept} has no role {role!r}", path=raw.path, line=real.line)
        real.effective = effective
        lex.realizations.setdefault((real.lemma, real.pos, real.lang), []).append(real)
    return lex


def load_fg_lexicon(text: str, path: str = "<string>") -> FgLexicon:
    return resolve_inheritance(parse_fg_lexicon(text, path))


# ------------------------------------------------------------- validation

def validate(lex: FgLexicon, onto: Ontology) -> list[Diagnostic]:
    """Cross-check every reference against the ontology.

    Returns an empty list when every restriction, schema, slot, role
    reference and assertion role resolves.
    """
    diags: list[Diagnostic] = []

    def err(loc: str, msg: str) -> None:
        diags.append(Diagnostic("error", loc, msg))

    def warn(loc: str, msg: str) -> None:
        diags.append(Diagnostic("warning", loc, msg))

    def check_node(node: ConceptNode, loc: str) -> None:
        schema = onto.schemas.get(node.schema)
        if schema is None:
            err(loc, f"unknown template {node.schema}")
        for a in node.args:
            if a.restriction not in onto.classes:
                err(loc, f"arg {a.role}: unknown class {a.restriction}")
            if a.slot is not None and schema is not None:
                slot = schema.slot(a.slot)
                if slot is None:
                    err(loc, f"arg {a.role}: template {node.schema} has no slot {a.slot}")
                elif (a.restriction in onto.classes
                      and slot.filler_class in onto.classes
                      and not onto.compatible(a.restriction, slot.filler_class)):
                    warn(loc, f"arg {a.role}: restriction {a.restriction} incompatible "
                              f"with slot {a.slot} class {slot.filler_class}")
        roles = node.roles()
        for asrt in node.assertions:
            for role in asrt.role_args:
                if role not in roles:
                    err(loc, f"assertion {asrt.predicate}: unknown role {role}")
        if node.instigator is not None and node.instigator not in roles:
            err(loc, f"instigator role {node.instigator} not among args")

    for node in lex.concepts.values():
        check_node(node, f"concept {node.id}")
    for key, reals in lex.realizations.items():
        lemma, pos, lang = key
        for r in reals:
            loc = f"word {lemma}/{pos}/{lang}/{r.sense_id}"
            if r.effective is not lex.concepts.get(r.concept):
                check_node(r.effective, loc)
            for gr, role in r.complement_map.items():
                if role not in r.effective.roles():
                    err(loc, f"mapping {gr}: unknown role {role}")
            for rule in r.effective.discriminators:
                if not any(s.sense_id == rule.sense_id
                           for s in lex.realizations.get(key, [])):
                    warn(loc, f"discriminator names unknown sense {rule.sense_id}")
    return diags
