"""Benchmark of curvestab: three workloads, timed from outside the program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan_verdict --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check [--workload NAME]

One process, no threads, nothing run in parallel.  After set-up the run
repeats whole passes over the workload's fixed operation list for
``--seconds``, then checks every output against ``oracle``.  Times are
taken with ``speed.SpeedMeter``, so they read as nanoseconds at the full
speed of the reference machine, and each operation's time is the median
of its repeats (README.md says why).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback

import selfcheck
import tracing
import workloads
from speed import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 3


def load_program(meter):
    """Import curvestab from the checkout's ``src/``; fail if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "curvestab", "__init__.py")):
        raise SystemExit(f"error: no curvestab sources under {src}")
    sys.path.insert(0, src)
    mark = meter.mark()
    mods = {name: importlib.import_module(f"curvestab.{name}") for name in tracing.LAYERS}
    import_ns, _ = meter.since(mark)
    if not os.path.abspath(mods["curve"].__file__).startswith(src + os.sep):
        raise SystemExit(f"error: curvestab imported from {mods['curve'].__file__}, not {src}")
    return mods, import_ns / 1e9


def clear_caches(mods) -> None:
    """Empty every memo cache of the program, so each set-up starts as
    cold as a fresh process."""
    for mod in mods.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def area_cache_info(mods):
    cached = getattr(mods["newton"], "_finite_area", None)
    info = getattr(cached, "cache_info", None)
    return info() if info else None


class Runner:
    """Timed passes over one operation list, and the record of what they
    returned."""

    def __init__(self, ops, meter):
        self.ops = ops
        self.meter = meter
        self.times = [[] for _ in ops]  # nanoseconds at reference speed
        self.raw = [[] for _ in ops]    # wall nanoseconds
        self.first = [None] * len(ops)
        self.errors = [0] * len(ops)
        self.mismatches = [0] * len(ops)
        self.error_text = [None] * len(ops)
        self.passes = 0
        self.report_bytes = 0
        self.current = None  # index of the operation running, for tracing.Sampler

    def run_pass(self) -> None:
        report_bytes = 0
        for j, op in enumerate(self.ops):
            mark = self.meter.mark()
            self.current = j
            try:
                result = op.run()
            except Exception:  # one operation failing must not stop the run
                self.errors[j] += 1
                self.error_text[j] = self.error_text[j] or traceback.format_exc()
                continue
            finally:
                self.current = None
            scaled, raw = self.meter.since(mark)
            self.times[j].append(scaled)
            self.raw[j].append(raw)
            out = op.capture(result)
            report_bytes += op.report_bytes(out)
            if self.first[j] is None:
                self.first[j] = out
            elif out != self.first[j]:
                self.mismatches[j] += 1
        self.passes += 1
        self.report_bytes = report_bytes

    def run_for(self, seconds: float) -> None:
        deadline = self.meter.mark()[0] + int(seconds * 1e9)
        while True:
            self.run_pass()
            if self.meter.mark()[0] >= deadline:
                break

    def restart_times(self) -> None:
        """Forget the times so far; outputs and counts are kept."""
        self.times = [[] for _ in self.ops]
        self.raw = [[] for _ in self.ops]

    def per_op(self) -> list[float]:
        """Each operation's median time, in nanoseconds."""
        return [statistics.median(t) for t in self.times if t]

    def pass_s(self) -> float:
        return sum(self.per_op()) / 1e9

    def check(self):
        """Run the independent checkers on each operation's output.

        Returns ``(attempted, failed, correct, problems)``.  A wrong output
        counts every execution of that operation as failed.
        """
        attempted = self.passes * len(self.ops)
        failed, correct, problems = 0, True, []
        for j, op in enumerate(self.ops):
            failed += self.errors[j]
            if self.error_text[j]:
                problems.append(f"{op.name}: raised\n{self.error_text[j]}")
            if self.first[j] is None:
                continue
            try:
                found = op.check(self.first[j])
            except Exception:
                found = [f"checker raised\n{traceback.format_exc()}"]
            if self.mismatches[j]:
                found.append(f"output changed between passes ({self.mismatches[j]} times)")
            if found:
                correct = False
                failed += self.passes - self.errors[j]
                problems += [f"{op.name}: {p}" for p in found]
        return attempted, failed, correct, problems


def setup(mods, build, seed, workdir, meter):
    """One set-up: fresh caches, inputs from the seed, files, one warm-up
    pass.  Returns the operations and the seconds it took."""
    mark = meter.mark()
    clear_caches(mods)
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    ops = build(mods, random.Random(seed), workdir)
    Runner(ops, meter).run_pass()
    spent, _ = meter.since(mark)
    return ops, spent / 1e9


def end_to_end(runner, setup_s) -> dict:
    top = next(j for j, op in enumerate(runner.ops) if op.top)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": runner.pass_s(), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(runner.per_op()) / 1e6, "unit": "ms"},
        "top_op_ms": {"value": statistics.median(runner.times[top]) / 1e6, "unit": "ms"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def traced(mods, runner, seconds, meter):
    """A traced run on ``runner``: untraced passes for the first half of
    the time, sampled passes for the second, then one counting pass.

    A layer's self time in an operation is the operation's median time
    times the layer's share of the samples taken in it, so per pass the
    layer times add up to about the sampled ``pass_s``.
    """
    runner.run_for(seconds / 2)
    untraced_s = runner.pass_s()
    runner.restart_times()
    start = runner.passes
    sampler = tracing.Sampler()
    meter.on_tick = lambda frame: sampler.sample(frame, runner.current)
    try:
        runner.run_for(seconds / 2)
    finally:
        meter.on_tick = None
    traced_s = runner.pass_s()
    layer_ns = dict.fromkeys(tracing.LAYERS + (tracing.SCAN,), 0.0)
    by_op = {}
    for j, op in enumerate(runner.ops):
        samples = sampler.by_op[j]
        total = sum(samples[k] for k in tracing.LAYERS + (tracing.OTHER,))
        op_ns = statistics.median(runner.times[j]) if runner.times[j] else 0.0
        shares = {k: op_ns * samples[k] / total for k in layer_ns if samples[k]}
        for k, ns in shares.items():
            layer_ns[k] += ns
        by_op[op.name] = {k: round(ns / 1e6, 3) for k, ns in shares.items()}

    counter = tracing.CallCounter()
    cache0 = area_cache_info(mods)
    counter.install()
    try:
        runner.run_pass()
    finally:
        counter.remove()
    cache1 = area_cache_info(mods)

    metrics = {f"{layer}.self_ms": {"value": layer_ns[layer] / 1e6, "unit": "ms"}
               for layer in tracing.LAYERS}
    metrics["curve.calls"] = {"value": counter.calls["curve"], "unit": "count"}
    for name in tracing.COUNTS:
        metrics[name] = {"value": counter.counts[name], "unit": "count"}
    scanned = counter.scan_subcurves
    scan_us = layer_ns[tracing.SCAN] / scanned / 1e3 if scanned else 0.0
    metrics["slope.us_per_subcurve"] = {"value": scan_us, "unit": "us"}
    metrics["cli.report_bytes"] = {"value": runner.report_bytes, "unit": "B"}
    for key in ("hits", "misses"):
        value = getattr(cache1, key) - getattr(cache0, key) if cache0 else 0
        metrics[f"newton.area_cache_{key}"] = {"value": value, "unit": "count"}
    metrics["trace.pass_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    trace = {"untraced_pass_s": untraced_s, "untraced_passes": start,
             "sampled_passes": runner.passes - start - 1,
             "samples": sum(sum(c.values()) - c[tracing.SCAN] for c in sampler.by_op.values()),
             "layer_self_ms_by_op": by_op}
    return metrics, trace


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    build = workloads.WORKLOADS[workload]
    workdir = os.path.join(HERE, "work", f"{workload}-{os.getpid()}")
    try:
        with SpeedMeter() as meter:
            mods, import_s = load_program(meter)
            times = []
            for _ in range(SETUP_REPEATS):
                ops, spent = setup(mods, build, seed, workdir, meter)
                times.append(spent)
            setup_s = import_s + statistics.median(times)
            runner = Runner(ops, meter)
            if trace:
                metrics, trace_doc = traced(mods, runner, seconds, meter)
            else:
                runner.run_for(seconds)
                metrics, trace_doc = end_to_end(runner, setup_s), None
        attempted, failed, correct, problems = runner.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"CHECK {p}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    medians = lambda series: {op.name: statistics.median(t) / 1e6 for op, t in zip(runner.ops, series) if t}
    detail = {**result, "workload": workload, "seed": seed, "seconds": seconds, "passes": runner.passes,
              "import_s": import_s, "setup_runs_s": times,
              "op_ms": medians(runner.times), "op_wall_ms": medians(runner.raw)}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if trace_doc is not None:
        with open(os.path.join(RESULTS, f"trace-{workload}-seed{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "metrics": metrics, **trace_doc}, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="two sets of runs of this code; spread of every end-to-end metric against its bound")
    args = parser.parse_args(argv)
    if args.self_check:
        return selfcheck.main(args.workload)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
