"""The three workloads: fixed operation lists over seeded inputs.

Each workload function takes the loaded ``curvestab`` modules, a seeded
``random.Random`` and a scratch directory, writes whatever files its
operations read, and returns the operation list.  Sizes (component
counts, degrees, dilation factors) are fixed per operation; the seed
only moves genera, degree scales, chords, mark placement and lattice
points, so the work per pass stays nearly the same across seeds.

An operation's ``run`` is what gets timed.  It looks up the program's
function by module attribute at call time, so a traced run sees it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import inputs as I
import oracle as O


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    capture: Callable[[Any], Any] = lambda result: result
    check: Callable[[Any], list] = lambda output: []
    report_bytes: Callable[[Any], int] = lambda output: 0
    top: bool = False


def _lib_op(name, module, fn, args, check, top=False) -> Op:
    return Op(name, lambda: getattr(module, fn)(*args), check=check, top=top)


def _cli_op(name, mods, argv, out_path, check, top=False) -> Op:
    argv = list(argv) + ["--output", out_path]

    def capture(code):
        with open(out_path, "rb") as fh:
            return code, fh.read()

    return Op(name, lambda: mods["cli"].main(argv), capture=capture,
              check=lambda out: check(out[0], json.loads(out[1])),
              report_bytes=lambda out: len(out[1]), top=top)


def _write_json(workdir, name, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# scan_verdict: Stable and balanced inputs, empty witness lists

SHAPES = ("chain", "cycle", "dense")
VERDICT_R = 9
VERDICT_TOP_R = 12
TWIST_R = (7, 8)


def scan_verdict(mods, rng, workdir) -> list[Op]:
    io, slope, dc = mods["io"], mods["slope"], mods["degree_class"]
    Polarization = mods["curve"].Polarization
    ops = []
    for shape in SHAPES:
        for marked in (False, True):
            spec = I.curve_spec(rng, shape, VERDICT_R, marked)
            degs = I.canonical_polarization(spec, rng.randint(4, 6))
            curve, pol, bm = io.curve_from_json(spec), Polarization(degs), O.Bitmasks(spec)
            tag = f"{shape}{'+marks' if marked else ''}-r{VERDICT_R}"
            ops.append(_lib_op(f"interval/{tag}", slope, "slope_check_interval", (curve, pol),
                               lambda v, bm=bm, d=degs: O.check_verdict(bm, d, v, "interval")))
            ops.append(_lib_op(f"h0/{tag}", slope, "slope_check_h0", (curve, pol),
                               lambda v, bm=bm, d=degs: O.check_verdict(bm, d, v, "h0")))
            ops.append(_lib_op(f"balanced/{tag}", dc, "is_balanced", (curve, degs),
                               lambda rep, bm=bm, d=degs: O.check_balanced(bm, d, rep)))
    for r in TWIST_R:
        spec = I.curve_spec(rng, "cycle", r, False)
        degs = I.canonical_polarization(spec, rng.randint(4, 6))
        vector = I.displaced(spec, degs, rng, 2)
        curve, bm, rows = io.curve_from_json(spec), O.Bitmasks(spec), I.linking_rows(spec)
        ops.append(_lib_op(f"twist/cycle-r{r}", dc, "find_twist", (curve, vector),
                           lambda res, bm=bm, rows=rows, v=vector: O.check_twist(bm, rows, v, res)))
    spec = I.curve_spec(rng, "chain", VERDICT_TOP_R, False)
    degs = I.canonical_polarization(spec, rng.randint(4, 6))
    curve, pol, bm = io.curve_from_json(spec), Polarization(degs), O.Bitmasks(spec)
    ops.append(_lib_op(f"interval/chain-r{VERDICT_TOP_R}", slope, "slope_check_interval", (curve, pol),
                       lambda v, bm=bm, d=degs: O.check_verdict(bm, d, v, "interval"), top=True))
    return ops


# ---------------------------------------------------------------------------
# scan_witness: boundary and unstable inputs inside the h0 guard, through the CLI

# (shape, marked, r, source position, target position, units moved, expected status)
WITNESS_CASES = (
    ("chain", False, 9, 0, -1, 3, "Unstable"),
    ("cycle", True, 9, 0, 4, 1, "StrictlySemistable"),
    ("dense", False, 9, 0, 4, 3, "Unstable"),
)
WITNESS_TOP = ("chain", False, 10, 0, -1, 3, "Unstable")


def _witness_input(rng, case, workdir, n):
    shape, marked, r, src, dst, units, status = case
    spec = I.curve_spec(rng, shape, r, marked)
    ids = [c["id"] for c in spec["components"]]
    degs = I.shift(I.canonical_polarization(spec, rng.randint(7, 9)), ids[src], ids[dst], units)
    bm = O.Bitmasks(spec)
    if not bm.guard_ok(degs) or O.interval_expected(bm, degs)[0] != status:
        raise AssertionError(f"generator: {shape} r={r} is not a {status} input inside the guard")
    tag = f"{shape}{'+marks' if marked else ''}-r{r}"
    path = _write_json(workdir, f"curve{n}.json", spec)
    return tag, path, degs, bm


def scan_witness(mods, rng, workdir) -> list[Op]:
    ops = []
    out = lambda: os.path.join(workdir, f"report{len(ops)}.json")
    for n, case in enumerate(WITNESS_CASES):
        tag, path, degs, bm = _witness_input(rng, case, workdir, n)
        base = ["--curve", path, "--polarization", I.literal(degs)]
        for crit in ("interval", "h0", "both"):
            ops.append(_cli_op(f"check-{crit}/{tag}", mods,
                               ["check", *base, "--criterion", crit, "--float"], out(),
                               lambda code, rep, bm=bm, d=degs, c=crit: O.check_cli_check(bm, d, c, code, rep)))
        if bm.unmarked:
            ops.append(_cli_op(f"k-check/{tag}", mods, ["k-check", *base], out(),
                               lambda code, rep, bm=bm, d=degs: O.check_cli_kcheck(bm, d, code, rep)))
    tag, path, degs, bm = _witness_input(rng, WITNESS_TOP, workdir, len(WITNESS_CASES))
    ops.append(_cli_op(f"check-both/{tag}", mods,
                       ["check", "--curve", path, "--polarization", I.literal(degs),
                        "--criterion", "both", "--float"], out(),
                       lambda code, rep, bm=bm, d=degs: O.check_cli_check(bm, d, "both", code, rep),
                       top=True))
    return ops


# ---------------------------------------------------------------------------
# weight_side: subgroup data, Newton polygons and bound functionals

# (command, degrees, subcurve positions, marked).  Degrees are fixed: the
# datum has O(d^2) cells, so a seeded degree would move the cost.  The
# seed picks the genera.
WEIGHT_CASES = (
    ("two-weight", (80, 40), (1,), False),
    ("two-weight", (40, 40, 40), (1,), True),
    ("two-weight", (80, 60, 40, 20), (0, 1), False),
    ("two-weight", (320, 160), (0,), True),
    ("chow-weight", (320, 320), (0,), False),
    ("chow-weight", (40, 40, 40), (0, 2), True),
    ("chow-weight", (80, 60, 40, 20), (1, 2), False),
    ("bounds", (80, 60, 40, 20), (0, 1), True),
    ("bounds", (80, 40), (0,), False),
)
WEIGHT_TOP = ("chow-weight", (320, 320))  # the largest datum
ORACLE_K = (20, 35, 50)


def weight_side(mods, rng, workdir) -> list[Op]:
    ops = []
    for n, (command, base, positions, marked) in enumerate(WEIGHT_CASES):
        spec = I.small_curve_spec(rng, len(base), marked)
        ids = [c["id"] for c in spec["components"]]
        degs = dict(zip(ids, base))
        sub = [ids[p] for p in positions]
        bm = O.Bitmasks(spec)
        path = _write_json(workdir, f"curve{n}.json", spec)
        argv = [command, "--curve", path, "--polarization", I.literal(degs)]
        tag = f"{command}/r{len(base)}-d{max(base)}"
        out = os.path.join(workdir, f"report{n}.json")
        if command == "two-weight":
            check = lambda code, rep, bm=bm, d=degs, s=sub: O.check_weight_report(bm, d, s, code, rep, "two-weight")
            ops.append(_cli_op(tag, mods, argv + ["--subcurve", ",".join(sub)], out, check))
            continue
        datum = I.two_weight_datum_json(spec, degs, sub)
        ops_path = _write_json(workdir, f"datum{n}.json", datum)
        if command == "chow-weight":
            check = lambda code, rep, bm=bm, d=degs, s=sub: O.check_weight_report(bm, d, s, code, rep, "chow-weight")
        else:
            check = lambda code, rep, bm=bm, d=degs, s=sub, dt=datum: O.check_bounds(bm, d, s, dt, code, rep)
        ops.append(_cli_op(tag, mods, argv + ["--ops", ops_path], out, check,
                           top=(command, base) == WEIGHT_TOP))
    for n, k in enumerate(ORACLE_K):
        pts = I.gamma_points(rng)
        out = os.path.join(workdir, f"newton{n}.json")
        ops.append(_cli_op(f"newton/k{k}", mods,
                           ["newton", "--gamma", I.gamma_literal(pts), "--width", str(I.GAMMA_WIDTH),
                            "--oracle-k", str(k)], out,
                           lambda code, rep, p=pts, k=k: O.check_newton(p, I.GAMMA_WIDTH, k, code, rep)))
    return ops


WORKLOADS = {"scan_verdict": scan_verdict, "scan_witness": scan_witness, "weight_side": weight_side}
