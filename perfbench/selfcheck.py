"""Self-check: two sets of runs of the same code, judged by the bounds.

    python3 perfbench/run.py --self-check [--workload NAME]

For each workload of ``BENCHMARK.json`` (or the one named), set A runs
seeds 1-5 and set B seeds 6-10, one run after the other, each a separate
process of ``run_seconds``.  For every end-to-end metric it prints each
set's median and spread (the distance between the first and third
quartile over the median) against the metric's bound in
``BENCHMARK.json``, the drift of B's median from A's, and the spread of
all ten runs together.  A metric passes when each set's spread and the
drift stay within the bound; the share of failed operations must be
equal in both sets.  One traced run per workload then reports the
tracing overhead.  Exits 1 if anything fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180
RUNS_PER_SET = 5


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(workload, seed, seconds, trace=0) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(workload=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [workload] if workload else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    record = {"runs_per_set": RUNS_PER_SET, "seconds": seconds, "workloads": {}}
    for name in names:
        sets = {}
        for label, first in (("A", 1), ("B", RUNS_PER_SET + 1)):
            sets[label] = []
            for seed in range(first, first + RUNS_PER_SET):
                res = run_once(name, seed, seconds)
                sets[label].append(res)
                print(f"{name} set {label} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        rows = {}
        print(f"\n{name}: {'metric':<12} {'bound':>6} {'med A':>10} {'med B':>10} {'drift':>7} "
              f"{'spr A':>6} {'spr B':>6} {'spr all':>7}  verdict")
        for metric, bound in bounds.items():
            a = [r["metrics"][metric]["value"] for r in sets["A"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"]]
            row = {"bound": bound, "median_a": statistics.median(a), "median_b": statistics.median(b),
                   "spread_a": spread(a), "spread_b": spread(b), "spread_all": spread(a + b)}
            row["drift"] = row["median_b"] / row["median_a"] - 1
            row["pass"] = max(row["spread_a"], row["spread_b"]) <= bound and abs(row["drift"]) <= bound
            ok = ok and row["pass"]
            rows[metric] = row
            print(f"{'':>{len(name) + 1}} {metric:<12} {bound:>6.3f} {row['median_a']:>10.4g} "
                  f"{row['median_b']:>10.4g} {row['drift']:>+7.3f} {row['spread_a']:>6.3f} "
                  f"{row['spread_b']:>6.3f} {row['spread_all']:>7.3f}  {'ok' if row['pass'] else 'FAIL'}")
        shares = {label: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for label, rs in sets.items()}
        correct = all(r["correct"] for rs in sets.values() for r in rs)
        ok = ok and correct and shares["A"] == shares["B"]
        traced = run_once(name, 1, seconds, trace=1)["metrics"]
        overhead = traced["trace.pass_s"]["value"] / rows["pass_s"]["median_a"]
        print(f"{'':>{len(name) + 1}} failed share A={shares['A']:.4g} B={shares['B']:.4g}  correct={correct}  "
              f"traced pass_s={traced['trace.pass_s']['value']:.4g} "
              f"({overhead:.2f}x the untraced median)\n", flush=True)
        record["workloads"][name] = {"metrics": rows, "failed_share": shares, "correct": correct,
                                     "traced_pass_s": traced["trace.pass_s"]["value"],
                                     "sets": sets}
    record["pass"] = ok
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "selfcheck.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1
