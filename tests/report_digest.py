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
``classify``.  The last line counts the runs below the guard and at a
non-positive total, so a change of inputs that drops them shows.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import curvestab as cs  # noqa: E402
from curvestab.cli import main  # noqa: E402
from curvestab.io import curve_to_json  # noqa: E402
from conftest import genus_zero_curve  # noqa: E402
from test_scan_walk import differential_curve, polarizations  # noqa: E402

CHECK_FLAGS = ([], ["--float"], ["--connected-only"], ["--float", "--connected-only"])


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


def digest(argv: list[str], out_path: str) -> str:
    code = main([*argv, "--output", out_path])
    with open(out_path, "rb") as fh:
        return f"{code} {hashlib.sha256(fh.read()).hexdigest()}"


def literal(degrees: dict) -> str:
    return ",".join(f"{c}={d}" for c, d in sorted(degrees.items()))


def run() -> None:
    below_guard = non_positive = 0
    with tempfile.TemporaryDirectory() as tmp:
        curve_path, out_path = os.path.join(tmp, "curve.json"), os.path.join(tmp, "report.json")
        for n, (curve, pols) in enumerate(inputs()):
            with open(curve_path, "w", encoding="utf-8") as fh:
                json.dump(curve_to_json(curve), fh)
            runs = []
            for pol in pols:
                below_guard += not cs.h0_regime(curve, pol)
                non_positive += cs.omega_degree(curve, weighted=True) <= 0
                common = ["--curve", curve_path, "--polarization", literal(pol.degrees)]
                for criterion in ("interval", "h0", "both"):
                    for flags in CHECK_FLAGS:
                        runs.append(["check", *common, "--criterion", criterion, *flags])
                runs.append(["k-check", *common])
            runs.append(["twist", "--curve", curve_path, "--vector", literal(pols[-1].degrees)])
            runs.append(["classify", "--curve", curve_path])
            for argv in runs:
                shown = " ".join("<curve>" if a == curve_path else a for a in argv)
                print(f"curve {n}: {shown}: {digest(argv, out_path)}")
    print(f"runs below the guard: {below_guard}, at a non-positive total: {non_positive}")


if __name__ == "__main__":
    run()
