"""Turn foreground matches into filled template instances.

Each match instantiates its concept's schema: directly bound roles become
direct fillers, unfilled required roles (the agent of an agent-less passive,
typically) are resolved against the most recent compatible noun phrase in
the document, and whatever is left is emitted flagged unfilled rather than
suppressed.  State assertions are instantiated with the filler lemmas.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .ontology import Ontology
from .textpipe import DocAnalysis
from .wsd import UNFILLED, FgMatch, SenseTag, TokenKey


class SlotFiller(NamedTuple):
    lemma: str | None
    span: str | None
    sem_class: str | None
    source: str  # direct | salient | unfilled


_NO_FILLER = SlotFiller(None, None, None, "unfilled")


class TemplateInstance:
    __slots__ = ("schema", "fillers", "assertions", "instigator_slot", "doc_id",
                 "sent_idx", "trigger_lemma", "trigger_sense")

    def __init__(self, schema: str, fillers: dict[str, SlotFiller] | None = None,
                 assertions: list[dict] | None = None, instigator_slot: str | None = None,
                 doc_id: str = "", sent_idx: int = 0, trigger_lemma: str = "",
                 trigger_sense: str = ""):
        self.schema = schema
        self.fillers = {} if fillers is None else fillers
        self.assertions = [] if assertions is None else assertions
        self.instigator_slot = instigator_slot
        self.doc_id = doc_id
        self.sent_idx = sent_idx
        self.trigger_lemma = trigger_lemma
        self.trigger_sense = trigger_sense


def _np_span(analysis: DocAnalysis, sent_idx: int, head_idx: int) -> str:
    sa = analysis.sentences[sent_idx]
    for c in sa.chunks:
        if c.kind == "NP" and c.start <= head_idx < c.end:
            return " ".join(t.surface for t in sa.tokens[c.start:c.end])
    return sa.tokens[head_idx].surface


def resolve_salient(analysis: DocAnalysis, tags: dict[TokenKey, SenseTag],
                    onto: Ontology, restriction: str,
                    sent_idx: int, tok_idx: int) -> tuple[str, str, str] | None:
    """Most recent preceding NP head compatible with the restriction.

    Scans backwards through the document from the trigger position; returns
    (lemma, surface span, class) or None.
    """
    doc_id = analysis.doc.doc_id
    for si in range(sent_idx, -1, -1):
        sa = analysis.sentences[si]
        for c in reversed(sa.chunks):
            if c.kind != "NP":
                continue
            if si == sent_idx and c.head_idx >= tok_idx:
                continue
            tag = tags.get((doc_id, si, c.head_idx))
            if tag is None:
                continue
            if restriction in onto.classes and onto.compatible(tag.coarse_class, restriction):
                span = " ".join(t.surface for t in sa.tokens[c.start:c.end])
                return sa.tokens[c.head_idx].lemma, span, tag.coarse_class
    return None


def fill_templates(matches: list[FgMatch], tags: dict[TokenKey, SenseTag],
                   analyses: list[DocAnalysis], onto: Ontology) -> list[TemplateInstance]:
    """One template instance per verified match, in document order; `tags`
    is only read through `tags.get`, here and in `resolve_salient`."""
    by_doc = {a.doc.doc_id: a for a in analyses}
    instances: list[TemplateInstance] = []
    for m in matches:
        analysis = by_doc[m.doc_id]
        eff = m.realization.effective
        schema = onto.schema(eff.schema)

        role_fillers: dict[str, SlotFiller] = {}
        slot_for_role: dict[str, str] = {}
        for arg in eff.args:
            binding = m.bindings.get(arg.role, UNFILLED)
            if isinstance(binding, int):
                tag = tags.get((m.doc_id, m.sent_idx, binding))
                head = analysis.sentences[m.sent_idx].tokens[binding]
                role_fillers[arg.role] = SlotFiller(
                    head.lemma, _np_span(analysis, m.sent_idx, binding),
                    tag.coarse_class if tag else None, "direct")
            else:  # UNFILLED: a required role is resolved by salience
                found = resolve_salient(analysis, tags, onto, arg.restriction, m.sent_idx,
                                        m.verb_idx) if arg.required else None
                role_fillers[arg.role] = SlotFiller(*found, "salient") if found else _NO_FILLER
            if arg.slot is not None:
                slot_for_role[arg.role] = arg.slot

        # a slot takes the filler of the first role bound to it
        fillers = {slot.name: next((role_fillers[r] for r, s in slot_for_role.items()
                                    if s == slot.name), _NO_FILLER)
                   for slot in schema.slots}
        assertions = [{"predicate": a.predicate,
                       "args": [role_fillers[r].lemma if r in role_fillers else None
                                for r in a.role_args],
                       "polarity": a.polarity, "phase": a.phase}
                      for a in eff.assertions]
        instigator_slot = slot_for_role.get(eff.instigator)

        instances.append(TemplateInstance(
            schema=schema.name, fillers=fillers, assertions=assertions,
            instigator_slot=instigator_slot, doc_id=m.doc_id,
            sent_idx=m.sent_idx, trigger_lemma=m.trigger_lemma,
            trigger_sense=m.sense_id))
    return instances


def write_output(instances: list[TemplateInstance]) -> str:
    """JSON-Lines, one instance per line, fixed key order; byte-stable."""
    lines = []
    for inst in instances:
        obj = {
            "schema": inst.schema,
            "fillers": {
                slot: {"lemma": f.lemma, "span": f.span,
                       "class": f.sem_class, "source": f.source}
                for slot, f in inst.fillers.items()
            },
            "assertions": inst.assertions,
            "instigator": inst.instigator_slot,
            "provenance": {"doc": inst.doc_id, "sent": inst.sent_idx,
                           "trigger": inst.trigger_lemma,
                           "sense": inst.trigger_sense},
        }
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")
