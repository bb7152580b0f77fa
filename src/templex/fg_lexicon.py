"""Hand-authored foreground lexicon: key predicates bound to template schemas.

Concepts form a single-parent default-inheritance hierarchy.  Resolution
flattens it field by field: a concept's effective value for schema / args /
assertions / instigator / discriminators is the nearest value set on its own
node or up the parent chain.  Assertions are replaced wholesale when
overridden, never merged.  Word realizations may override the same fields
again, privately, without touching the shared concept.
"""

from __future__ import annotations

from typing import NamedTuple

from .decisionlist import DecisionRule
from .errors import LexiconError, ParseError
from .ontology import Ontology, check_acyclic

POS_TAGS = ("verb", "noun", "adj")
GR_KEYS = ("subj", "dobj", "iobj")  # plus pp:<prep>

_FIELD_NAMES = ("schema", "args", "assertions", "instigator", "discriminators")


class ArgSpec(NamedTuple):
    role: str
    restriction: str
    slot_binding: tuple[str, str] | None = None  # (schema, slot)
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

    def arg(self, role: str) -> ArgSpec | None:
        for a in self.args:
            if a.role == role:
                return a
        return None

    def roles(self) -> set[str]:
        return {a.role for a in self.args}


class RawArg:
    __slots__ = ("role", "restriction", "slot", "required")

    def __init__(self, role: str, restriction: str | None, slot: str | None = None,
                 required: bool = True):
        self.role = role
        self.restriction = restriction
        self.slot = slot
        self.required = required


class RawOverrides:
    """Fields a realization restates; None means inherited unchanged."""

    __slots__ = ("schema", "args", "assertions", "instigator", "discriminators")

    def __init__(self, schema: str | None = None, args: list[RawArg] | None = None,
                 assertions: list[StateAssertion] | None = None,
                 instigator: str | None = None,
                 discriminators: list[tuple[str, str, str]] | None = None):
        self.schema = schema
        self.args = args
        self.assertions = assertions
        self.instigator = instigator
        self.discriminators = discriminators  # (sense, kind, value)

    def empty(self) -> bool:
        return (self.schema is None and self.args is None and self.assertions is None
                and self.instigator is None and self.discriminators is None)


class RawConcept:
    __slots__ = ("id", "parent", "schema", "args", "assertions", "instigator",
                 "discriminators", "line")

    def __init__(self, id: str, parent: str | None = None, schema: str | None = None,
                 args: list[RawArg] | None = None,
                 assertions: list[StateAssertion] | None = None,
                 instigator: str | None = None,
                 discriminators: list[tuple[str, str, str]] | None = None, line: int = 0):
        self.id = id
        self.parent = parent
        self.schema = schema
        self.args = [] if args is None else args
        self.assertions = [] if assertions is None else assertions
        self.instigator = instigator
        self.discriminators = [] if discriminators is None else discriminators
        self.line = line


class RawRealization:
    __slots__ = ("lemma", "pos", "lang", "sense_id", "concept", "complement_map",
                 "overrides", "line")

    def __init__(self, lemma: str, pos: str, lang: str, sense_id: str, concept: str,
                 complement_map: dict[str, str] | None = None,
                 overrides: RawOverrides | None = None, line: int = 0):
        self.lemma = lemma
        self.pos = pos
        self.lang = lang
        self.sense_id = sense_id
        self.concept = concept
        self.complement_map = {} if complement_map is None else complement_map
        self.overrides = RawOverrides() if overrides is None else overrides
        self.line = line


class RawLexicon:
    __slots__ = ("concepts", "realizations", "path")

    def __init__(self, concepts: dict[str, RawConcept] | None = None,
                 realizations: list[RawRealization] | None = None,
                 path: str = "<string>"):
        self.concepts = {} if concepts is None else concepts
        self.realizations = [] if realizations is None else realizations
        self.path = path


class Realization:
    __slots__ = ("lemma", "pos", "lang", "sense_id", "concept", "complement_map",
                 "overrides", "effective", "line")

    def __init__(self, lemma: str, pos: str, lang: str, sense_id: str, concept: str,
                 complement_map: dict[str, str] | None = None,
                 overrides: RawOverrides | None = None,
                 effective: ConceptNode | None = None, line: int = 0):
        self.lemma = lemma
        self.pos = pos
        self.lang = lang
        self.sense_id = sense_id
        self.concept = concept
        self.complement_map = {} if complement_map is None else complement_map
        self.overrides = RawOverrides() if overrides is None else overrides
        self.effective = effective
        self.line = line


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


def _parse_arg(parts: list[str], path: str, lineno: int) -> RawArg:
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
    return RawArg(role, restriction, slot, required)


def _parse_feature(text: str, path: str, lineno: int) -> tuple[str, str]:
    kinds = {"left": "word_left", "right": "word_right", "window": "word_in_window"}
    if ":" not in text:
        raise ParseError(f"bad feature pattern {text!r} (want left:/right:/window:)",
                         path=path, line=lineno)
    kind, value = text.split(":", 1)
    if kind not in kinds or not value:
        raise ParseError(f"bad feature pattern {text!r}", path=path, line=lineno)
    return kinds[kind], value.lower()


def parse_fg_lexicon(text: str, path: str = "<string>") -> RawLexicon:
    """Parse the foreground DSL; inheritance links are kept unresolved."""
    raw = RawLexicon(path=path)
    cur: RawConcept | RawRealization | None = None
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
                cur = RawRealization(lemma, pos, lang, sense_id, concept, line=lineno)
                raw.realizations.append(cur)
            else:
                raise ParseError(f"unknown directive {parts[0]!r}", path=path, line=lineno)
            continue

        if cur is None:
            raise ParseError("indented line outside a block", path=path, line=lineno)

        if isinstance(cur, RawConcept):
            if parts[0] == "template" and len(parts) == 2:
                cur.schema = parts[1]
            elif parts[0] == "arg":
                cur.args.append(_parse_arg(parts[1:], path, lineno))
            elif parts[0] == "assert":
                cur.assertions.append(_parse_assert(parts[1:], path, lineno))
            elif parts[0] == "instigator" and len(parts) == 2:
                cur.instigator = parts[1]
            elif parts[0] == "discriminate":
                if len(parts) != 4 or parts[2] != "when":
                    raise ParseError("expected `discriminate <sense_id> when <feature>`",
                                     path=path, line=lineno)
                kind, value = _parse_feature(parts[3], path, lineno)
                cur.discriminators.append((parts[1], kind, value))
            else:
                raise ParseError(f"unknown concept directive {parts[0]!r}",
                                 path=path, line=lineno)
        else:
            if parts[0] == "map":
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
                ov = cur.overrides
                sub = parts[1:]
                if not sub:
                    raise ParseError("empty override", path=path, line=lineno)
                if sub[0] == "template" and len(sub) == 2:
                    ov.schema = sub[1]
                elif sub[0] == "arg":
                    if ov.args is None:
                        ov.args = []
                    ov.args.append(_parse_arg(sub[1:], path, lineno))
                elif sub[0] == "assert":
                    if ov.assertions is None:
                        ov.assertions = []
                    ov.assertions.append(_parse_assert(sub[1:], path, lineno))
                elif sub[0] == "instigator" and len(sub) == 2:
                    ov.instigator = sub[1]
                elif sub[0] == "discriminate":
                    if len(sub) != 4 or sub[2] != "when":
                        raise ParseError("expected `override discriminate <sense_id> "
                                         "when <feature>`", path=path, line=lineno)
                    kind, value = _parse_feature(sub[3], path, lineno)
                    if ov.discriminators is None:
                        ov.discriminators = []
                    ov.discriminators.append((sub[1], kind, value))
                else:
                    raise ParseError(f"unknown override field {sub[0]!r}",
                                     path=path, line=lineno)
            else:
                raise ParseError(f"unknown word directive {parts[0]!r}",
                                 path=path, line=lineno)

    for r in raw.realizations:
        if r.concept not in raw.concepts:
            raise ParseError(f"word {r.lemma}/{r.pos}: undeclared concept {r.concept}",
                             path=path, line=r.line)
    return raw


# ------------------------------------------------------------- resolution

def _discriminator_rules(specs: list[tuple[str, str, str]]) -> tuple[DecisionRule, ...]:
    # hand rules all score 1.0; stable sort keeps declaration order as priority
    return tuple(DecisionRule(kind, value, sense, 1.0) for sense, kind, value in specs)


def _merge_chain(chain: list[RawConcept]) -> dict:
    """Nearest-set-value field merge, self first then up the parent chain."""
    merged: dict = {name: None for name in _FIELD_NAMES}
    for node in chain:
        if merged["schema"] is None and node.schema is not None:
            merged["schema"] = node.schema
        if merged["args"] is None and node.args:
            merged["args"] = node.args
        if merged["assertions"] is None and node.assertions:
            merged["assertions"] = node.assertions
        if merged["instigator"] is None and node.instigator is not None:
            merged["instigator"] = node.instigator
        if merged["discriminators"] is None and node.discriminators:
            merged["discriminators"] = node.discriminators
    return merged


def _build_node(cid: str, merged: dict, line: int) -> ConceptNode:
    if merged["schema"] is None:
        raise LexiconError(f"concept {cid}: no schema after resolution")
    args = []
    for ra in merged["args"] or []:
        if ra.restriction is None:
            raise LexiconError(f"concept {cid}: arg {ra.role} has no restriction")
        binding = (merged["schema"], ra.slot) if ra.slot is not None else None
        args.append(ArgSpec(ra.role, ra.restriction, binding, ra.required))
    return ConceptNode(
        id=cid,
        schema=merged["schema"],
        args=tuple(args),
        assertions=tuple(merged["assertions"] or []),
        instigator=merged["instigator"],
        discriminators=_discriminator_rules(merged["discriminators"] or []),
        line=line,
    )


def resolve_inheritance(raw: RawLexicon) -> FgLexicon:
    """Flatten the hierarchy; resolving an already-flat lexicon is the identity."""
    for node in raw.concepts.values():
        if node.parent is not None and node.parent not in raw.concepts:
            raise ParseError(f"unknown parent concept {node.parent}",
                             path=raw.path, line=node.line)
    check_acyclic({cid: node.parent for cid, node in raw.concepts.items()}, "concept")

    concepts: dict[str, ConceptNode] = {}
    for cid, node in raw.concepts.items():
        chain = [node]
        cur = node.parent
        while cur is not None:
            chain.append(raw.concepts[cur])
            cur = raw.concepts[cur].parent
        concepts[cid] = _build_node(cid, _merge_chain(chain), node.line)

    lex = FgLexicon(concepts=concepts)
    for rr in raw.realizations:
        base = concepts[rr.concept]
        effective = base
        if not rr.overrides.empty():
            ov = rr.overrides
            merged = {
                "schema": ov.schema if ov.schema is not None else base.schema,
                "args": ov.args,  # handled below
                "assertions": list(ov.assertions) if ov.assertions is not None
                              else list(base.assertions),
                "instigator": ov.instigator if ov.instigator is not None
                              else base.instigator,
                "discriminators": None,
            }
            schema = merged["schema"]
            if ov.args is not None:
                argspecs = []
                for ra in ov.args:
                    if ra.restriction is None:
                        raise LexiconError(
                            f"word {rr.lemma}/{rr.pos}: arg {ra.role} has no restriction")
                    binding = (schema, ra.slot) if ra.slot is not None else None
                    argspecs.append(ArgSpec(ra.role, ra.restriction, binding, ra.required))
                args = tuple(argspecs)
            else:
                args = base.args
                if ov.schema is not None:
                    # rebind inherited slots to the overridden schema
                    args = tuple(
                        a._replace(slot_binding=(schema, a.slot_binding[1]))
                        if a.slot_binding else a
                        for a in args)
            discs = (_discriminator_rules(ov.discriminators)
                     if ov.discriminators is not None else base.discriminators)
            effective = ConceptNode(
                id=base.id,
                schema=schema,
                args=args,
                assertions=tuple(merged["assertions"]),
                instigator=merged["instigator"],
                discriminators=discs,
                line=base.line,
            )
        for gr, role in rr.complement_map.items():
            if role not in effective.roles():
                raise LexiconError(
                    f"word {rr.lemma}/{rr.pos}: mapping {gr} -> {role}: concept "
                    f"{rr.concept} has no role {role!r}")
        real = Realization(rr.lemma, rr.pos, rr.lang, rr.sense_id, rr.concept,
                           dict(rr.complement_map), rr.overrides, effective, rr.line)
        lex.realizations.setdefault((rr.lemma, rr.pos, rr.lang), []).append(real)
    return lex


def load_fg_lexicon(text: str, path: str = "<string>") -> FgLexicon:
    return resolve_inheritance(parse_fg_lexicon(text, path))


# ------------------------------------------------------------- validation

def validate(lex: FgLexicon, onto: Ontology) -> list[Diagnostic]:
    """Cross-check every reference against the ontology.

    Returns an empty list when every restriction, schema, slot binding, role
    reference and assertion role resolves.
    """
    diags: list[Diagnostic] = []

    def err(loc: str, msg: str) -> None:
        diags.append(Diagnostic("error", loc, msg))

    def warn(loc: str, msg: str) -> None:
        diags.append(Diagnostic("warning", loc, msg))

    def check_node(node: ConceptNode, loc: str) -> None:
        if node.schema not in onto.schemas:
            err(loc, f"unknown template {node.schema}")
        for a in node.args:
            if a.restriction not in onto.classes:
                err(loc, f"arg {a.role}: unknown class {a.restriction}")
            if a.slot_binding is not None:
                schema_name, slot_name = a.slot_binding
                schema = onto.schemas.get(schema_name)
                if schema is None:
                    err(loc, f"arg {a.role}: binding to unknown template {schema_name}")
                    continue
                slot = schema.slot(slot_name)
                if slot is None:
                    err(loc, f"arg {a.role}: template {schema_name} has no slot {slot_name}")
                elif (a.restriction in onto.classes
                      and slot.filler_class in onto.classes
                      and not onto.compatible(a.restriction, slot.filler_class)):
                    warn(loc, f"arg {a.role}: restriction {a.restriction} incompatible "
                              f"with slot {slot_name} class {slot.filler_class}")
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
            if r.effective is not None and r.effective is not lex.concepts.get(r.concept):
                check_node(r.effective, loc)
            for gr, role in r.complement_map.items():
                if r.effective is not None and role not in r.effective.roles():
                    err(loc, f"mapping {gr}: unknown role {role}")
            for rule in (r.effective.discriminators if r.effective else ()):
                if not any(s.sense_id == rule.sense_id
                           for s in lex.realizations.get(key, [])):
                    warn(loc, f"discriminator names unknown sense {rule.sense_id}")
    return diags
