"""templex benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload replica --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; templex runs from `src/`, nothing is
installed.  One closed-loop client sends the next invocation only when the
previous one has ended.

With `--trace 0` every invocation is a separate `python -m templex.cli`
process, and the last line of standard output holds the end-to-end metrics.
With `--trace 1` the same invocations call `templex.cli.main` in this
process, each once untraced and once under the Tracer, and the last line
holds the per-layer metrics.  Every output is checked either way; a failed
check counts in `failed` and the run goes on.  End-to-end timings are
corrected for the host's speed (see REFERENCE).  A record of the run (git
sha, Python, nproc, seed, input sizes, each metric's samples and quartiles,
the host factor and the uncorrected values) is appended to `perfbench/work/results.jsonl`, and the
spans of a traced run are written to its work directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import gen
import oracle
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", "work")
FIXTURES = ("succession.onto", "succession.fglex", "succession.bglex",
            "succession.collapse", "succession.vrt", "succession_gold.jsonl")
REQUIRED = [os.path.join("src", "templex", "cli.py")] + [
    os.path.join(gen.FIXTURES, name) for name in FIXTURES]

QUERY_POOL = 1000       # queries generated per run, used in order
TRACE_QUERIES = 10      # queries in one traced pass: every KWIC kind, 2 reports
BATCH = ("extract", "extract_j2", "wsd", "tune")
# the client's batch cycle; `validate` runs spread over the run give setup_s
CYCLE = ("extract", "validate", "extract_j2", "wsd", "validate", "tune")
# share of the measured time each workload's client spends on queries; the
# rest goes to the batch commands in turn
QUERY_SHARE = {"replica": 0.3, "synth-vocab": 0.3, "concordance": 0.7}
WORKLOADS = tuple(QUERY_SHARE)

# A fixed program that is not templex: Python start-up, then dict, regex and
# json work.  On a shared host the speed of every process drifts by 10-20%
# over minutes, which no number of samples within a 40-second run averages
# away.  The client runs this program between invocations, at most every
# REFERENCE_INTERVAL_S, and each timing of the run is multiplied by
# (REFERENCE_S / the run's median reference time) ** ELASTICITY: figures read
# as on a host where the reference takes REFERENCE_S.  REFERENCE_S is the
# median reference time over 68 runs on a 2-vCPU shared host, so there the
# factor is about 1 (0.8-1.2 in most runs).  ELASTICITY is how far templex
# times move when the reference time moves, on a log scale: 0.5 to 1.7,
# median 0.7, over 30 runs of the three workloads on that host.  The run's
# factor and its uncorrected values are in its record.  The reference is not
# templex: it counts in no metric and not in `attempted`, and if it fails the
# run has no result.
REFERENCE = r"""
import json, re
counts = {}
for i in range(60000):
    key = "w%d" % (i % 5000)
    counts[key] = counts.get(key, 0) + len(re.sub("a", "b", key))
rows = [dict(a=i, b=str(i)) for i in range(30000)]
json.dumps(rows[:5000])
"""
REFERENCE_S = 0.22
REFERENCE_INTERVAL_S = 1.5
ELASTICITY = 0.8

END_TO_END = {
    "setup_s": "s", "extract_tok_s": "tokens/s", "extract_j2_tok_s": "tokens/s",
    "wsd_tok_s": "tokens/s", "tune_tok_s": "tokens/s", "query_p50_s": "s",
    "query_p90_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_SPANS = (
    "textpipe.read_corpus", "wsd.load_tagged_corpus", "wsd.dump_tagged_corpus",
    "textpipe.analyze", "wsd.train_bayes", "wsd.disambiguate_background",
    "wsd.apply_ospd", "wsd.match_foreground", "extract.fill_templates",
    "extract.write_output", "tuner.tune", "workbench.kwic",
    "workbench.pattern_report", "ontology.load_ontology",
    "fg_lexicon.load_fg_lexicon", "fg_lexicon.validate",
    "bg_lexicon.load_bg_lexicon", "bg_lexicon.collapse", "cli.main",
)
PER_LAYER_CALLS = ("textpipe.read_corpus", "textpipe.analyze",
                   "wsd.disambiguate_background")
PER_LAYER_COUNTS = {
    "textpipe.docs": "count", "textpipe.tokens": "count",
    "wsd.model_weights": "count", "wsd.tags.unambiguous": "count",
    "wsd.tags.bayes": "count", "wsd.tags.ospd": "count", "wsd.matches": "count",
    "wsd.abstentions": "count", "ontology.compatible.calls": "count",
    "extract.instances": "count", "extract.fillers.salient": "count",
    "extract.fillers.unfilled": "count", "extract.output_bytes": "bytes",
    "tuner.ejected_senses": "count", "workbench.kwic.lines": "count",
}
PER_LAYER_UNITS = {
    **{f"{n}.self_s": "s" for n in PER_LAYER_SPANS},
    **{f"{n}.calls": "count" for n in PER_LAYER_CALLS},
    **PER_LAYER_COUNTS,
    "wsd.match_yield": "ratio", "trace.overhead_ratio": "ratio",
}


@dataclass
class Workload:
    """Generated inputs of one workload and what the run does with them."""
    name: str
    onto: str
    fg: str
    bg: str
    collapse: str
    corpus: str
    wsd_fg: bool
    tokens: int
    inputs: dict
    expected_extract: bytes | None = None
    tagged: str = ""
    queries: list = field(default_factory=list)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def build_workload(name: str, seed: int, work: str) -> Workload:
    fx = {n: gen.fixture(ROOT, n) for n in FIXTURES}
    onto, fg, collapse = fx["succession.onto"], fx["succession.fglex"], fx["succession.collapse"]
    if name in ("replica", "concordance"):
        copies = gen.REPLICA_COPIES if name == "replica" else gen.CONCORDANCE_COPIES
        text, order = gen.replica_corpus(gen.read_text(fx["succession.vrt"]), copies, seed)
        corpus = write(os.path.join(work, f"{name}.vrt"), text)
        expected = oracle.expected_extract(gen.read_text(fx["succession_gold.jsonl"]), order)
        stats = gen.corpus_stats(text)
        stats["copies"] = copies
        wl = Workload(name, onto, fg, fx["succession.bglex"], collapse, corpus,
                      wsd_fg=True, tokens=stats["tokens"], inputs=stats,
                      expected_extract=expected.encode("utf-8"))
    else:
        sv = gen.synth_vocab(gen.read_text(fx["succession.bglex"]),
                             gen.read_text(collapse), seed)
        corpus = write(os.path.join(work, "synth.vrt"), sv.corpus)
        bg = write(os.path.join(work, "synth.bglex"), sv.bglex)
        stats = gen.corpus_stats(sv.corpus)
        stats["lexicon_lemmas"] = sv.lexicon_lemmas
        wl = Workload(name, onto, fg, bg, collapse, corpus, wsd_fg=False,
                      tokens=stats["tokens"], inputs=stats)
    wl.tagged = os.path.join(work, "tagged.vrt")
    wl.queries = gen.query_mix(gen.read_text(corpus), QUERY_POOL, seed)
    return wl


def command_argv(wl: Workload, kind: str, out: str, query=None) -> list[str]:
    lex = ["--ontology", wl.onto, "--bg-lexicon", wl.bg, "--collapse-map", wl.collapse]
    if kind == "validate":
        return ["validate", "--ontology", wl.onto, "--fg-lexicon", wl.fg,
                "--bg-lexicon", wl.bg, "--output", out]
    if kind in ("extract", "extract_j2"):
        jobs = "2" if kind == "extract_j2" else "1"
        return ["extract", *lex, "--fg-lexicon", wl.fg, "--corpus", wl.corpus,
                "--jobs", jobs, "--output", out]
    if kind == "wsd":
        fg = ["--fg-lexicon", wl.fg] if wl.wsd_fg else []
        return ["wsd", *lex, *fg, "--corpus", wl.corpus, "--output", out]
    if kind == "tune":
        return ["tune", *lex, "--corpus", wl.corpus, "--output", out]
    if kind == "kwic":
        return ["kwic", "--tagged", wl.tagged, "--query", query.text, "--output", out]
    return ["patterns", "--tagged", wl.tagged, "--target", query.text, "--tsv",
            "--output", out]


# ----------------------------------------------------------------- checks

class Checker:
    """Output checks; the first output of a command is the reference for later ones.

    Replica-style extraction is compared with the renamed golden file, and
    `--jobs 2` with `--jobs 1`.  Each check returns an error message or None.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self.refs: dict[str, bytes] = {}
        self._sentences = None
        self._kwic: dict[str, int] = {}

    def _same(self, key: str, out: bytes) -> str | None:
        ref = self.refs.setdefault(key, out)
        return None if out == ref else f"{key}: output differs from the first run"

    def check(self, kind: str, out: bytes, query=None) -> str | None:
        if kind == "validate":
            return None if out == b"0 diagnostic(s)\n" else "validate: diagnostics reported"
        if kind in ("extract", "extract_j2"):
            if self.wl.expected_extract is not None and out != self.wl.expected_extract:
                return f"{kind}: output differs from the renamed golden file"
            if not out.startswith(b'{"config": '):
                return f"{kind}: no config header"
            return self._same("extract", out)
        if kind == "wsd":
            return self._same("wsd", out)
        if kind == "tune":
            if not out.startswith(b"tunedlex v1\n"):
                return "tune: not a tunedlex v1 file"
            return self._same("tune", out)
        if kind == "kwic":
            expected = self._kwic.get(query.text)
            if expected is None:
                if self._sentences is None:
                    self._sentences = oracle.tagged_sentences(gen.read_text(self.wl.tagged))
                expected = oracle.naive_kwic_count(self._sentences, query.constraints)
                self._kwic[query.text] = expected
            got = oracle.kwic_header_count(out.decode("utf-8"))
            if got != expected:
                return f"kwic {query.text!r}: {got} matches, naive scan finds {expected}"
            return None
        lines = out.decode("utf-8").splitlines()
        if not lines or not lines[0].startswith(f"# patterns target={query.text} "):
            return f"patterns {query.text}: bad header"
        for row in lines[1:]:
            cols = row.split("\t")
            if len(cols) != 4 or cols[0] not in ("collocate", "pos_trigram", "relation") \
                    or not cols[2].isdigit() or cols[2] == "0":
                return f"patterns {query.text}: bad row {row!r}"
        if len(lines) < 2:
            return f"patterns {query.text}: empty report"
        return self._same(f"patterns {query.text}", out)

    def check_tagged(self, out: bytes) -> str | None:
        """The tagged corpus must be the input corpus plus a fourth column."""
        src = [line for line in gen.read_text(self.wl.corpus).splitlines()
               if line and not line.startswith("#")]
        got = [line.rsplit("\t", 1)[0] for line in out.decode("utf-8").splitlines()
               if line and not line.startswith("#")]
        return None if got == src else "wsd: token columns differ from the corpus"


# ------------------------------------------------------------------ runs

@dataclass
class Sample:
    kind: str
    seconds: float
    ok: bool


class ReferenceFailed(Exception):
    """The reference program failed, so the run's timings cannot be corrected."""


class Run:
    """Shared state of one run: templex invocations attempted and failed,
    their samples and peak RSS, and the reference program's times."""

    def __init__(self, wl: Workload, work: str, seconds: float):
        self.wl = wl
        self.work = work
        self.seconds = seconds
        self.checker = Checker(wl)
        self.samples: list[Sample] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0
        self.reference_s: list[float] = []
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def out_path(self, kind: str) -> str:
        return os.path.join(self.work, f"out.{kind}")

    def record(self, kind: str, seconds: float, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(error)
            if kind == "query":
                seconds = self.seconds  # a failed query never answered
        self.samples.append(Sample(kind, seconds, error is None))

    def spawn(self, kind: str, query=None, out: str | None = None) -> tuple[float, bytes, str | None]:
        """One `python -m templex.cli` process; (wall s, output bytes, error).

        The process is reaped with wait4, so its own peak RSS is read and no
        other child of the client counts in `peak_rss_mb`.
        """
        out = out or self.out_path(kind)
        argv = [sys.executable, "-m", "templex.cli",
                *command_argv(self.wl, kind, out, query)]
        if os.path.exists(out):
            os.remove(out)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        with proc.stderr:
            stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code != 0:
            tail = stderr.decode("utf-8", "replace").strip()[-300:]
            return wall, b"", f"{kind}: exit {code}: {tail}"
        return wall, read_bytes(out), None

    def reference(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", REFERENCE], cwd=self.work,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip()[-300:]
            raise ReferenceFailed(f"reference program: exit {proc.returncode}: {tail}")
        self.reference_s.append(wall)

    def setup(self) -> None:
        """A warm-up `validate` run, then the tagged corpus for queries."""
        wall, out, err = self.spawn("validate")
        self.record("warmup", wall, err or self.checker.check("validate", out))
        wall, out, err = self.spawn("wsd", out=self.wl.tagged)
        err = err or self.checker.check_tagged(out) or self.checker.check("wsd", out)
        self.record("setup_wsd", wall, err)


def measure(run: Run, seconds: float) -> None:
    """Closed loop until the deadline, then once more for any kind not yet run.

    The next invocation is a query while queries have had less than the
    workload's share of the time spent so far, else the next batch command.
    """
    share = QUERY_SHARE[run.wl.name]
    batch, queries = itertools.cycle(CYCLE), itertools.cycle(run.wl.queries)
    spent = {"batch": 0.0, "query": 0.0}
    seen: set[str] = set()
    last_reference = time.perf_counter()

    def one(kind: str, query=None) -> None:
        nonlocal last_reference
        wall, out, err = run.spawn(kind, query)
        err = err or run.checker.check(kind, out, query)
        run.record("query" if query else kind, wall, err)
        spent["query" if query else "batch"] += wall
        seen.add("query" if query else kind)
        if time.perf_counter() - last_reference >= REFERENCE_INTERVAL_S:
            run.reference()
            last_reference = time.perf_counter()

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if spent["query"] < share * (spent["batch"] + spent["query"]):
            q = next(queries)
            one(q.command, q)
        else:
            one(next(batch))
    for kind in dict.fromkeys(CYCLE):
        if kind not in seen:
            one(kind)
    if "query" not in seen:
        q = next(queries)
        one(q.command, q)
    if not run.reference_s:
        run.reference()


def summarize(values: list[float], unit: str, value: float | None = None) -> dict:
    """The reported value (the median unless given) with the samples' quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": median if value is None else value, "unit": unit,
            "n": len(values), "median": median, "q1": q1, "q3": q3,
            "samples": values}


def host_factor(run: Run) -> float:
    """The factor every timing of the run is multiplied by (see REFERENCE)."""
    return (REFERENCE_S / statistics.median(run.reference_s)) ** ELASTICITY


def end_to_end(run: Run, factor: float) -> dict:
    wl = run.wl
    by_kind: dict[str, list[Sample]] = {}
    for s in run.samples:
        by_kind.setdefault(s.kind, []).append(Sample(s.kind, s.seconds * factor, s.ok))
    samples = {"setup_s": [s.seconds for s in by_kind["validate"]]}
    values = {}
    for kind in BATCH:
        # work completed per second: all tokens of the command's successful
        # invocations over all its time; a failed invocation delivered none
        runs = by_kind[kind]
        samples[f"{kind}_tok_s"] = [wl.tokens / s.seconds if s.ok else 0.0 for s in runs]
        values[f"{kind}_tok_s"] = wl.tokens * sum(s.ok for s in runs) / sum(s.seconds for s in runs)
    lat = samples["query_p50_s"] = samples["query_p90_s"] = \
        [s.seconds for s in by_kind["query"]]
    values["query_p90_s"] = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    samples["peak_rss_mb"] = [run.peak_rss_kb / 1024.0]
    return {name: summarize(samples[name], unit, values.get(name))
            for name, unit in END_TO_END.items()}


# ----------------------------------------------------------------- traced

def load_main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from templex.cli import main
    return main


def call(fn, *args) -> tuple[int | str, float]:
    """Exit code of an in-process CLI call, or the exception it raised; wall s."""
    start = time.perf_counter()
    try:
        code = fn(*args)
    except Exception as exc:  # a crash is a failed invocation; the run goes on
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start


def traced_pass(run: Run, tracer: tracing.Tracer, main, queries,
                traced_first: bool) -> dict:
    """Every command of the workload once untraced and once traced, in process.

    Returns this pass's per-layer values; outputs are checked as in the
    untraced run and traced bytes must equal untraced bytes.  Which of the
    two runs first alternates between passes, since the second run of a
    pair finds warmer caches.
    """
    counts_before = tracer.counts.copy()
    first_request = tracer.request + 1
    untraced = traced = 0.0
    overlap = 0.0
    ops = [("validate", None), *((k, None) for k in BATCH),
           *((q.command, q) for q in queries)]
    for kind, query in ops:
        out = run.out_path(kind)
        argv = command_argv(run.wl, kind, out, query)
        first_span = len(tracer.spans)
        for traced_side in (True, False) if traced_first else (False, True):
            if traced_side:
                with tracer:
                    tcode, _ = call(tracer.invoke, main, argv)
                data = read_bytes(out) if tcode == 0 else None
            else:
                code, wall = call(main, argv)
                plain = read_bytes(out) if code == 0 else None
        spans = tracer.spans[first_span:]
        root = spans[-1]  # the request's root span ends last
        twall = root.end - root.start
        untraced += wall
        traced += twall
        err = None
        if code != 0 or tcode != 0:
            err = f"{kind}: exit {code} untraced, {tcode} traced"
        elif plain != data:
            err = f"{kind}: traced output differs from untraced output"
        else:
            err = run.checker.check(kind, data, query)
        total_self = sum(tracing.self_times(spans).values())
        if kind == "extract_j2":
            overlap += total_self - twall  # pool threads overlap in time
        elif abs(total_self - twall) > 1e-6:
            err = err or f"{kind}: self times add to {total_self:.6f} s, wall {twall:.6f} s"
        run.record("query" if query else kind, twall, err)

    spans = [s for s in tracer.spans if s.request >= first_request]
    selfs = tracing.self_times(spans)
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
    counts = tracer.counts - counts_before
    values = {f"{n}.self_s": self_by_name.get(n, 0.0) for n in PER_LAYER_SPANS}
    values.update({f"{n}.calls": float(calls.get(n, 0)) for n in PER_LAYER_CALLS})
    values.update({n: float(counts.get(n, 0)) for n in PER_LAYER_COUNTS})
    groups = counts.get("wsd.fg_verb_groups", 0)
    values["wsd.match_yield"] = counts.get("wsd.matches", 0) / groups if groups else 0.0
    values["trace.overhead_ratio"] = (traced - untraced) / untraced
    values["trace.overhead_s"] = traced - untraced
    values["trace.pool_overlap_s"] = overlap
    return values


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    main = load_main()
    tracer = tracing.Tracer()
    passes = []
    start = last = time.perf_counter()
    # another pass only if one more, as long as the last, ends by the deadline
    while not passes or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        passes.append(traced_pass(run, tracer, main, run.wl.queries[:TRACE_QUERIES],
                                  traced_first=len(passes) % 2 == 1))
    tracer.dump(os.path.join(run.work, "spans.jsonl"))
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [p[name] for p in passes]
        metrics[name] = summarize(values, unit)
    extra = {n: statistics.median(p[n] for p in passes)
             for n in ("trace.overhead_s", "trace.pool_overlap_s")}
    extra["passes"] = len(passes)
    return metrics, extra


# ------------------------------------------------------------------- main

def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository.

    `--git-dir` keeps git from looking for a repository above the checkout.
    """
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                               "rev-parse", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a templex source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = build_workload(args.workload, args.seed, work)
    run = Run(wl, work, args.seconds)
    run.setup()
    extra: dict = {}
    if args.trace:
        metrics, extra = per_layer(run, args.seconds)
    else:
        try:
            measure(run, args.seconds)
        except ReferenceFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        extra["host_factor"] = host_factor(run)
        extra["reference_s"] = run.reference_s
        metrics = end_to_end(run, extra["host_factor"])
        extra["uncorrected"] = {name: m["value"]
                                for name, m in end_to_end(run, 1.0).items()}

    failed = len(run.failures)
    record = {
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "workload": wl.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inputs": wl.inputs,
        "attempted": run.attempted, "failed": failed,
        "failures": run.failures[:20], "metrics": metrics, **extra,
    }
    with open(os.path.join(WORK, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for msg in run.failures[:20]:
        print(f"perfbench: failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
