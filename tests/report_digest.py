"""Print the exit code and the sha256 of the report bytes of ``cli.main``
runs over seeded inputs, one line per run, so that two trees can be
compared byte for byte:

    PYTHONPATH=src python tests/report_digest.py > head.txt
    PYTHONPATH=/path/to/base/src python tests/report_digest.py > base.txt
    diff base.txt head.txt

The curves are ``test_scan_walk.differential_curve`` draws (r <= 8,
self-nodes, marks of weight 0, 1/3 and 2/5), each with the polarizations
of ``test_scan_walk.polarizations`` (near the window centres, moved off
them, and small degrees below the section-count guard), plus genus-0
chains, some lightly marked, and unmarked cycles, whose weighted
dualizing total is not positive, at degrees inside the guard.  Every curve and polarization
runs ``check`` with each criterion, with and without ``--float`` and
``--connected-only``, then ``k-check``; every curve runs ``twist`` and
``classify``, and, with no command of its own, ``is_balanced`` on each
of its polarizations' degrees and on the first one moved inside its
degree class by two linking-matrix rows (``test_scan_walk.displaced``):
a line each with the ok flag and the failures, or the error.  Unmarked
chains and cycles of 12 and 14 components, at
their canonical polarization and moved off it inside the guard, run
``check`` with each criterion, with and without ``--connected-only``:
the cut screen and the walk behind it at larger r.  Two unmarked
chains of 10 components run ``check --criterion both --float`` and
``k-check``: one moved off its canonical polarization (Unstable), and
one of genus-2 components at degree 1 (below the guard, with a
disagreement at every subcurve).  Their reports hold hundreds of
witnesses, entries and margins that repeat a few values, which the
scans build and the report formats once each.  Chains and cycles of 2
to 4 components whose marks on one component sum to a weight of smaller
denominator than the marks' own (two of 1/2, three of 1/3, or 1/6 with
1/3), so that the lcm of the marks' denominators and the lcm of the
summed weights' differ, run ``check`` with each criterion, with and
without ``--float``, and ``twist`` at each polarization, one of them
strictly semistable, and ``classify``.  The weight side
follows: ``newton --oracle-k`` on seeded lattice point sets (empty,
unbounded, rationally clipped and lattice polygons, widths up to 40, K
up to 60), and ``two-weight``, ``chow-weight`` and ``bounds`` on small
seeded curves, the data written from ``chow.two_weight_datum``, then
the last of those data with a ``true`` in a repeated vanish list (exit
3), then ``chow-weight`` and ``bounds`` on the inputs of
``shared_data``: a d = 320 datum and a datum whose profiles carry
``marks`` lists, the latter written compact and indented.  The last
line counts the runs below the guard, at a non-positive total and on
these larger curves, the r = 10 chains by kind, the runs on the
reduced-sum curves, then the weight-side
runs by kind and the ``is_balanced`` calls by outcome (ok, a negative entry, a subcurve
outside its window, an error), so a change of inputs that drops them
shows.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import curvestab as cs  # noqa: E402
import reference_scans as ref  # noqa: E402
from curvestab.chow import two_weight_datum  # noqa: E402
from curvestab.cli import main  # noqa: E402
from curvestab.io import curve_to_json, datum_to_json  # noqa: E402
from conftest import (check_both, genus_zero_curve, random_curve, regime_polarization,  # noqa: E402
                      with_profile_marks)
from test_scan_walk import differential_curve, displaced, polarizations  # noqa: E402

CHECK_FLAGS = ([], ["--float"], ["--connected-only"], ["--float", "--connected-only"])
FLOAT_FLAGS = ([], ["--float"])
LARGE_FLAGS = ([], ["--connected-only"])


def guarded_polarization(rng: random.Random, curve: cs.CurveModel) -> cs.Polarization:
    """Degrees at or a little above the section-count guard."""
    return cs.Polarization({c: 2 * curve.genus_of(c) + cs.linking_nodes(curve, {c}) + 1 + rng.randint(0, 3)
                            for c in curve.component_ids})


def inputs():
    """``(curve, polarizations)`` pairs: differential draws, then genus-0
    chains and cycles (``conftest.genus_zero_curve``)."""
    rng = random.Random(20261018)
    for _ in range(40):
        curve = differential_curve(rng)
        yield curve, list(polarizations(rng, curve))
    for r in range(2, 6):
        for cycle in (False, True):
            curve = genus_zero_curve(rng, r, cycle)
            yield curve, [guarded_polarization(rng, curve) for _ in range(2)]


#: Mark weights on one component whose sum has a smaller denominator than
#: the marks' own: 1, 1 and 1/2.
REDUCED_GROUPS = ((Fraction(1, 2),) * 2, (Fraction(1, 3),) * 3, (Fraction(1, 6), Fraction(1, 3)))


def reduced_sum_inputs():
    """``(curve, polarizations)`` pairs of chains and cycles of 2 to 4
    components of genus 1 or 2, each component carrying one of
    ``REDUCED_GROUPS`` on a site per mark, with the polarizations of
    ``test_scan_walk.polarizations`` and, where one lies within 2 of the
    first of those on every component, the first (in lexicographic order)
    that ``reference_scans`` finds strictly semistable."""
    rng = random.Random(20261026)
    for r in (2, 3, 4):
        for cycle in (False, True):
            ids = [f"C{i}" for i in range(r)]
            nodes = tuple(zip(ids, ids[1:] + ids[:1] if cycle else ids[1:]))
            sites, marks = [], []
            for i, c in enumerate(ids):
                for j, weight in enumerate(REDUCED_GROUPS[(i + r) % 3]):
                    sites.append(cs.MarkSite(f"p{i}{j}", c))
                    marks.append(cs.Mark(f"x{i}{j}", f"p{i}{j}", weight))
            curve = cs.CurveModel(tuple(cs.Component(c, rng.randint(1, 2)) for c in ids), nodes,
                                  tuple(sites), tuple(marks))
            pols = list(polarizations(rng, curve))
            near = [range(max(1, d - 2), d + 3) for d in pols[0].degrees.values()]
            attained = (cs.Polarization(dict(zip(pols[0].degrees, degrees))) for degrees in itertools.product(*near))
            pols += itertools.islice((p for p in attained if ref.slope_check_interval(curve, p).status
                                      == "StrictlySemistable"), 1)
            yield curve, pols


def large_inputs():
    """Chains and cycles of 12 and 14 components of genus 1 or 2 at ``k``
    times their dualizing degrees (the canonical polarization, Stable),
    then with 1, 2 and 3 units moved from a component that keeps its
    degree guard to another one."""
    rng = random.Random(20261019)
    for r in (12, 14):
        for cycle in (False, True):
            ids = [f"C{i:02d}" for i in range(r)]
            nodes = tuple(zip(ids, ids[1:] + ids[:1] if cycle else ids[1:]))
            curve = cs.CurveModel(tuple(cs.Component(c, rng.randint(1, 2)) for c in ids), nodes)
            k = rng.randint(5, 6)
            canonical = {c: k * int(cs.omega_degree(curve, {c})) for c in ids}
            guard = {c: 2 * curve.genus_of(c) + cs.linking_nodes(curve, {c}) + 1 for c in ids}
            pols = [cs.Polarization(canonical)]
            for units in (1, 2, 3):
                src = rng.choice([c for c in ids if canonical[c] - units >= guard[c]])
                dst = rng.choice([c for c in ids if c != src])
                pols.append(cs.Polarization(dict(canonical, **{src: canonical[src] - units,
                                                               dst: canonical[dst] + units})))
            yield curve, pols


def witness_inputs():
    """``(curve, polarization)`` pairs of a chain of 10 components: genus
    1 or 2 at 8 times the dualizing degrees with 3 units moved from the
    first component to the last, then genus 2 everywhere at degree 1."""
    rng = random.Random(20261023)
    ids = [f"C{i}" for i in range(1, 11)]  # C10 sorts before C2: witness order is not numeric order
    nodes = tuple(zip(ids, ids[1:]))
    curve = cs.CurveModel(tuple(cs.Component(c, rng.randint(1, 2)) for c in ids), nodes)
    degrees = {c: 8 * int(cs.omega_degree(curve, {c})) for c in ids}
    degrees[ids[0]] -= 3
    degrees[ids[-1]] += 3
    yield curve, cs.Polarization(degrees)
    yield cs.CurveModel(tuple(cs.Component(c, 2) for c in ids), nodes), cs.Polarization(dict.fromkeys(ids, 1))


def gammas():
    """``(points, width, K)`` inputs of ``newton --oracle-k``: lattice
    points with abscissas and heights up to 40, with a point on the
    weight axis (at height 0 one in seven times: the empty polygon)
    except one in eight times (unbounded); a width that cuts the chain
    inside a slope gives a rational clip vertex."""
    rng = random.Random(20261020)
    for n in range(56):
        width = rng.randint(1, 40)
        pts = {(rng.randint(1, 40), rng.randint(0, 40)) for _ in range(rng.randint(1, 6))}
        if n % 8:
            pts.add((0, 0 if n % 7 == 1 else rng.randint(1, 40)))
        yield sorted(pts), width, rng.randint(0, 60)


def gamma_kind(points, width: int) -> str:
    try:
        vertices = cs.polygon_from_points(cs.GammaSet(points=tuple(points), width=width)).vertices
    except ValueError:
        return "unbounded"
    if not vertices:
        return "empty"
    return "rational clip" if any(y.denominator > 1 for _, y in vertices) else "lattice"


def weight_inputs():
    """``(curve, polarization, subcurve)`` triples: small seeded curves
    (``conftest.random_curve``, r from 2 to 4) above the section-count
    guard, each with a seeded proper subcurve."""
    rng = random.Random(20261021)
    while True:
        curve = random_curve(rng)
        ids = curve.component_ids
        if len(ids) < 2:
            continue
        yield curve, regime_polarization(rng, curve), sorted(rng.sample(ids, rng.randint(1, len(ids) - 1)))


def shared_data():
    """``(curve, polarization, datum, indent)`` inputs of the datum reader's
    shared lists: the d = 320 two-weight datum of two genus-one components
    (321 profiles, 3 distinct vanish lists), then a two-weight datum of a
    three-component chain with five marks on two components, each of its
    profiles there carrying a one-mark ``marks`` list
    (``conftest.with_profile_marks``), written compact and with
    ``indent=2``."""
    big = cs.CurveModel((cs.Component("A", 1), cs.Component("B", 1)), (("A", "B"),))
    pol = cs.Polarization({"A": 320, "B": 320})
    yield big, pol, datum_to_json(two_weight_datum(big, pol, {"B"})), None
    sites = tuple(cs.MarkSite(f"p{i}", "C1" if i < 3 else "C3") for i in range(5))
    marked = cs.CurveModel(
        (cs.Component("C1", 1), cs.Component("C2", 0), cs.Component("C3", 2)), (("C1", "C2"), ("C2", "C3")),
        sites, tuple(cs.Mark(f"x{i}", f"p{i}", Fraction(1, 3) if i % 2 else Fraction(2, 5)) for i in range(5)))
    pol = cs.Polarization({"C1": 40, "C2": 30, "C3": 50})
    datum = with_profile_marks(datum_to_json(two_weight_datum(marked, pol, {"C1", "C2"})), marked)
    for indent in (None, 2):
        yield marked, pol, datum, indent


def with_true(datum: dict) -> dict:
    """The datum with ``true`` for the last entry, a 1, of the first
    vanish list equal to the one before it."""
    profiles = datum["profiles"]
    i = next(i for i in range(1, len(profiles)) if profiles[i]["vanish"] == profiles[i - 1]["vanish"])
    vanish = profiles[i]["vanish"]
    assert vanish[-1] == 1
    profiles[i] = dict(profiles[i], vanish=vanish[:-1] + [True])
    return datum


def balance(curve: cs.CurveModel, vector: dict) -> tuple[str, str]:
    """The kind of ``is_balanced``'s outcome (ok, negative, window or
    raises) and its text: the ok flag and the failures, each subcurve
    sorted (frozenset order follows ``PYTHONHASHSEED``), or the error."""
    try:
        report = cs.is_balanced(curve, vector)
    except ValueError as exc:
        return "raises", f"raises {exc}"
    failures = [(kind, sorted(sub), *map(str, rest)) if kind == "interval" else (kind, sub)
                for kind, sub, *rest in report.failures]
    kind = "ok" if report.ok else report.failures[0][0].replace("interval", "window")
    return kind, f"{report.ok} {failures}"


def digest(argv: list[str], out_path: str) -> str:
    code = main([*argv, "--output", out_path])
    with open(out_path, "rb") as fh:
        return f"{code} {hashlib.sha256(fh.read()).hexdigest()}"


def literal(degrees: dict) -> str:
    return ",".join(f"{c}={d}" for c, d in sorted(degrees.items()))


def checks(common: list[str], flag_sets) -> list[list[str]]:
    return [["check", *common, "--criterion", criterion, *flags]
            for criterion in ("interval", "h0", "both") for flags in flag_sets]


def run() -> None:
    below_guard = non_positive = large = 0
    witness_runs = dict.fromkeys(("unstable", "with disagreements"), 0)
    kinds = dict.fromkeys(("empty", "unbounded", "rational clip", "lattice"), 0)
    weight_runs = reduced_runs = 0
    balanced = dict.fromkeys(("ok", "negative", "window", "raises"), 0)
    rng = random.Random(20261022)
    with tempfile.TemporaryDirectory() as tmp:
        curve_path, out_path = os.path.join(tmp, "curve.json"), os.path.join(tmp, "report.json")
        ops_path = os.path.join(tmp, "ops.json")
        labels = {curve_path: "<curve>", ops_path: "<ops>"}

        def emit(n: int, curve: cs.CurveModel, runs: list[list[str]], what: str = "curve") -> None:
            with open(curve_path, "w", encoding="utf-8") as fh:
                json.dump(curve_to_json(curve), fh)
            for argv in runs:
                shown = " ".join(labels.get(a, a) for a in argv)
                print(f"{what} {n}: {shown}: {digest(argv, out_path)}")

        def write_ops(datum: dict, indent=None) -> None:
            with open(ops_path, "w", encoding="utf-8") as fh:
                json.dump(datum, fh, indent=indent)

        for n, (curve, pols) in enumerate(inputs()):
            runs = []
            for pol in pols:
                below_guard += not cs.h0_regime(curve, pol)
                non_positive += cs.omega_degree(curve, weighted=True) <= 0
                common = ["--curve", curve_path, "--polarization", literal(pol.degrees)]
                runs += checks(common, CHECK_FLAGS)
                runs.append(["k-check", *common])
            runs.append(["twist", "--curve", curve_path, "--vector", literal(pols[-1].degrees)])
            runs.append(["classify", "--curve", curve_path])
            emit(n, curve, runs)
            for vector in [pol.degrees for pol in pols] + [displaced(rng, curve, pols[0].degrees, 2)]:
                kind, text = balance(curve, vector)
                balanced[kind] += 1
                print(f"balanced {n}: {literal(vector)}: {text}")
        for n, (curve, pols) in enumerate(large_inputs(), start=n + 1):
            large += sum(cs.h0_regime(curve, pol) for pol in pols)
            emit(n, curve, [argv for pol in pols
                            for argv in checks(["--curve", curve_path, "--polarization", literal(pol.degrees)],
                                               LARGE_FLAGS)])
        for n, (curve, pol) in enumerate(witness_inputs(), start=n + 1):
            common = ["--curve", curve_path, "--polarization", literal(pol.degrees)]
            both = check_both(curve, pol)
            witness_runs["unstable"] += both.interval.status == "Unstable"
            witness_runs["with disagreements"] += bool(both.disagreements)
            emit(n, curve, [["check", *common, "--criterion", "both", "--float"], ["k-check", *common]])
        for n, (curve, pols) in enumerate(reduced_sum_inputs(), start=n + 1):
            runs = []
            for pol in pols:
                runs += checks(["--curve", curve_path, "--polarization", literal(pol.degrees)], FLOAT_FLAGS)
                runs.append(["twist", "--curve", curve_path, "--vector", literal(pol.degrees)])
            runs.append(["classify", "--curve", curve_path])
            emit(n, curve, runs)
            reduced_runs += len(runs)
        for n, (points, width, k) in enumerate(gammas()):
            kinds[gamma_kind(points, width)] += 1
            argv = ["newton", "--gamma", ";".join(f"{x},{y}" for x, y in points), "--width", str(width),
                    "--oracle-k", str(k)]
            print(f"gamma {n}: {' '.join(argv)}: {digest(argv, out_path)}")
        for n, (curve, pol, sub) in enumerate(itertools.islice(weight_inputs(), 24)):
            common = ["--curve", curve_path, "--polarization", literal(pol.degrees)]
            datum = datum_to_json(two_weight_datum(curve, pol, sub))
            write_ops(datum)
            runs = [["two-weight", *common, "--subcurve", ",".join(sub)],
                    ["chow-weight", *common, "--ops", ops_path], ["bounds", *common, "--ops", ops_path]]
            emit(n, curve, runs, "weight")
            weight_runs += len(runs)
        write_ops(with_true(datum))
        emit(n, curve, [["chow-weight", *common, "--ops", ops_path]], "weight")
        weight_runs += 1
        for n, (curve, pol, datum, indent) in enumerate(shared_data(), start=n + 1):
            write_ops(datum, indent)
            common = ["--curve", curve_path, "--polarization", literal(pol.degrees)]
            runs = [["chow-weight", *common, "--ops", ops_path], ["bounds", *common, "--ops", ops_path]]
            emit(n, curve, runs, "weight")
            weight_runs += len(runs)
    print(f"runs below the guard: {below_guard}, at a non-positive total: {non_positive}, "
          f"inside the guard at r = 12 and 14: {large}; r = 10 chains: "
          + ", ".join(f"{kind} {count}" for kind, count in witness_runs.items())
          + f"; runs on curves whose mark weights sum to a smaller denominator: {reduced_runs}"
          + "; newton runs: "
          + ", ".join(f"{kind} {count}" for kind, count in kinds.items())
          + f"; two-weight, chow-weight and bounds runs: {weight_runs}; is_balanced calls: "
          + ", ".join(f"{kind} {count}" for kind, count in balanced.items()))


if __name__ == "__main__":
    run()
