"""Spans and counts around the layer boundaries of templex, from outside it.

A Tracer replaces module attributes of templex with timing wrappers for as
long as it is installed, at every place a caller looks the name up: `cli`
calls through module attributes (`textpipe.read_corpus`, `wsdmod.train_bayes`,
...), while `tuner` binds `train_bayes`, `disambiguate_background` and
`apply_ospd` by name, so those are patched in `templex.tuner` as well.
`Ontology.compatible` runs per argument check and is counted, not spanned.

Only boundary functions are wrapped.  Helpers called per token or per sense
(`chunk`, `classify_bayes`, `coarse_class_for`, ...) stay unwrapped: their
time is self time of the boundary that calls them, and a span per call
would cost more than the work it measures.

Counts derived from a call's arguments and result are computed after the
invocation returns, outside every span, so they cost the spans nothing.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children that overlap each other (threads of a worker pool) are
    counted once over their union.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(c.start, s.start), min(c.end, s.end))
                           for c in children[s.id]):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


# ------------------------------------------------------------- counters

def _count_read_corpus(counts, args, kwargs, docs):
    counts["textpipe.docs"] += len(docs)
    counts["textpipe.tokens"] += sum(len(sent) for d in docs for sent in d.sentences)


def _count_train_bayes(counts, args, kwargs, model):
    counts["wsd.model_weights"] += len(model.weights)


def _count_background(counts, args, kwargs, tags):
    for tag in tags.values():
        counts[f"wsd.tags.{tag.method}"] += 1


def _count_ospd(counts, args, kwargs, tags):
    counts["wsd.tags.ospd"] += sum(1 for t in tags.values() if t.method == "ospd")


def _count_match(counts, args, kwargs, result):
    analyses, fg = args[0], args[1]
    lang = kwargs.get("lang", "en")
    matches, diagnostics = result
    counts["wsd.matches"] += len(matches)
    counts["wsd.abstentions"] += sum(1 for d in diagnostics if "abstaining" in d.message)
    for a in analyses:
        for sa in a.sentences:
            for c in sa.chunks:
                if c.kind == "VG" and fg.senses(sa.tokens[c.head_idx].lemma, "verb", lang):
                    counts["wsd.fg_verb_groups"] += 1


def _count_fill(counts, args, kwargs, instances):
    counts["extract.instances"] += len(instances)
    for inst in instances:
        for f in inst.fillers.values():
            counts[f"extract.fillers.{f.source}"] += 1


def _count_write(counts, args, kwargs, text):
    counts["extract.output_bytes"] += len(text.encode("utf-8"))


def _count_tune(counts, args, kwargs, tuned):
    counts["tuner.ejected_senses"] += sum(len(v) for v in tuned.ejected.values())


def _count_kwic(counts, args, kwargs, lines):
    counts["workbench.kwic.lines"] += len(lines)


# (module, attribute, span name, counter); span names are `<module>.<function>`
BOUNDARIES = (
    ("ontology", "load_ontology", "ontology.load_ontology", None),
    ("fg_lexicon", "load_fg_lexicon", "fg_lexicon.load_fg_lexicon", None),
    ("fg_lexicon", "validate", "fg_lexicon.validate", None),
    ("bg_lexicon", "load_bg_lexicon", "bg_lexicon.load_bg_lexicon", None),
    ("bg_lexicon", "validate_bg", "bg_lexicon.validate_bg", None),
    ("bg_lexicon", "load_collapse_map", "bg_lexicon.load_collapse_map", None),
    ("bg_lexicon", "collapse", "bg_lexicon.collapse", None),
    ("textpipe", "read_corpus", "textpipe.read_corpus", _count_read_corpus),
    ("textpipe", "analyze", "textpipe.analyze", None),
    ("wsd", "train_bayes", "wsd.train_bayes", _count_train_bayes),
    ("wsd", "disambiguate_background", "wsd.disambiguate_background", _count_background),
    ("wsd", "apply_ospd", "wsd.apply_ospd", _count_ospd),
    ("wsd", "match_foreground", "wsd.match_foreground", _count_match),
    ("wsd", "apply_foreground_priority", "wsd.apply_foreground_priority", None),
    ("wsd", "dump_tagged_corpus", "wsd.dump_tagged_corpus", None),
    ("wsd", "load_tagged_corpus", "wsd.load_tagged_corpus", None),
    ("tuner", "train_bayes", "wsd.train_bayes", _count_train_bayes),
    ("tuner", "disambiguate_background", "wsd.disambiguate_background", _count_background),
    ("tuner", "apply_ospd", "wsd.apply_ospd", _count_ospd),
    ("tuner", "tune", "tuner.tune", _count_tune),
    ("tuner", "save_tuned_lexicon", "tuner.save_tuned_lexicon", None),
    ("extract", "fill_templates", "extract.fill_templates", _count_fill),
    ("extract", "write_output", "extract.write_output", _count_write),
    ("workbench", "parse_query", "workbench.parse_query", None),
    ("workbench", "kwic", "workbench.kwic", _count_kwic),
    ("workbench", "format_kwic", "workbench.format_kwic", None),
    ("workbench", "pattern_report", "workbench.pattern_report", None),
    ("workbench", "format_report", "workbench.format_report", None),
)
ROOT = "cli.main"


class Tracer:
    """Spans of templex CLI invocations run in this process.

    Use `with tracer:` to patch templex and `invoke()` to run one CLI
    invocation as one request; spans stay in memory until `dump()`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._pending: list = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, tracer.request))
            if counter is not None:
                tracer._pending.append((counter, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __enter__(self) -> "Tracer":
        for modname, attr, name, counter in BOUNDARIES:
            mod = importlib.import_module(f"templex.{modname}")
            self._patch(mod, attr, self._wrap(name, getattr(mod, attr), counter))
        ontology = importlib.import_module("templex.ontology").Ontology
        original = ontology.compatible
        counts, lock = self.counts, self._lock

        def compatible(onto, a, b):
            with lock:
                counts["ontology.compatible.calls"] += 1
            return original(onto, a, b)

        self._patch(ontology, "compatible", compatible)
        return self

    def _patch(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __exit__(self, *exc) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def invoke(self, main, argv: list[str]) -> int:
        """Run `main(argv)` as one request under a root span; its exit code."""
        self.request += 1
        self._pending.clear()
        sid = next(self._ids)
        self._root = sid
        start = time.perf_counter()
        try:
            code = main(argv)
        finally:
            end = time.perf_counter()
            self._root = None
            self.spans.append(Span(sid, ROOT, start, end, None, self.request))
        for counter, args, kwargs, result in self._pending:
            counter(self.counts, args, kwargs, result)
        return code

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request}) + "\n")
