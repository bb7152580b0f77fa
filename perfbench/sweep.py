"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads replica,concordance]
                               [--seconds 30] [--trace 0]

Runs `perfbench/run.py` once per workload and seed, one run at a time, with
the command and run length of BENCHMARK.json unless overridden.  Prints,
for each workload and metric, its unit, the number of runs, the median and
quartiles of the per-run values, and their spread (interquartile distance
over the median) next to the metric's bound.  The per-run lines go to
`perfbench/work/sweep.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    os.makedirs(os.path.join(ROOT, "perfbench", "work"), exist_ok=True)
    with open(os.path.join(ROOT, "perfbench", "work", "sweep.jsonl"), "a",
              encoding="utf-8") as log:
        for workload in args.workloads.split(","):
            runs = []
            for seed in parse_seeds(args.seeds):
                argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)]
                proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                runs.append(result)
            if not runs:
                continue
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"\n{workload}: {len(runs)} runs, {attempted} invocations, "
                  f"{failed} failed ({failed / attempted:.4f})")
            print(f"  {'metric':34} {'unit':9} {'n':>3} {'median':>12} {'q1':>12} "
                  f"{'q3':>12} {'spread':>7} {'bound':>6}")
            for name in bounds:
                values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                if not values:
                    continue
                unit = runs[0]["metrics"][name]["unit"]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                    else (values[0],) * 3
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds[name]
                flag = " !" if bound is not None and spread > bound / 3 else ""
                print(f"  {name:34} {unit:9} {len(values):3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.4f} {bound if bound is not None else '-':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
