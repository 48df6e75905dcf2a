"""Command-line front end.

Every command reads exact-rational JSON/literal inputs, prints one JSON
report, and exits with a verdict code so batch scans can filter without
parsing:

* 0  stable / K-stable / twist found / computation done,
* 1  strictly semistable boundary,
* 2  unstable / not K-stable / no twist,
* 3+ errors (3 schema, 4 malformed rational, 5 unknown identifier,
  6 unreadable input or unwritable output, 7 domain precondition, 64 usage).

``CURVESTAB_MAX_R``, a positive integer, lowers the subcurve enumeration
cap; the hard bound stays at 24 components.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import chow as chow_mod
from . import degree_class as dc_mod
from . import kstab as kstab_mod
from . import newton as newton_mod
from . import slope as slope_mod
from .curve import ENUMERATION_CAP, classify_weighted, stabilize
from .io import (
    RationalError,
    SchemaError,
    UnknownIdError,
    curve_from_json,
    curve_to_json,
    datum_from_json,
    format_rational,
    gamma_from_literal,
    parse_rational,
    polarization_from_literal,
    subcurve_from_literal,
    vector_from_literal,
)

EXIT_STABLE = 0
EXIT_BOUNDARY = 1
EXIT_UNSTABLE = 2
EXIT_SCHEMA = 3
EXIT_RATIONAL = 4
EXIT_UNKNOWN_ID = 5
EXIT_IO = 6
EXIT_DOMAIN = 7
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _cap() -> int:
    raw = os.environ.get("CURVESTAB_MAX_R", str(ENUMERATION_CAP))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"CURVESTAB_MAX_R must be a positive integer, got {raw!r}")
    return min(ENUMERATION_CAP, cap)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IOError(f"invalid JSON in {path}: {exc}") from exc


def _load_curve(path: str):
    return curve_from_json(_load_json(path))


def _sub_list(sub) -> list[str]:
    return sorted(sub)


def _witness_json(w: slope_mod.Witness) -> dict:
    return {
        "subcurve": _sub_list(w.subcurve),
        "value": format_rational(w.value),
        "lower": None if w.lower is None else format_rational(w.lower),
        "upper": None if w.upper is None else format_rational(w.upper),
        "side": w.side,
        "kind": w.kind,
    }


def _status_exit(status: str) -> int:
    return {
        "Stable": EXIT_STABLE,
        "KStable": EXIT_STABLE,
        "StrictlySemistable": EXIT_BOUNDARY,
        "Semistable": EXIT_BOUNDARY,
        "Unstable": EXIT_UNSTABLE,
        "NotKStable": EXIT_UNSTABLE,
        "NotSemistable": EXIT_UNSTABLE,
    }[status]


def _sign_exit(value: Fraction) -> int:
    if value > 0:
        return EXIT_STABLE
    if value == 0:
        return EXIT_BOUNDARY
    return EXIT_UNSTABLE


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, report)


def _cmd_check(args):
    curve = _load_curve(args.curve)
    pol = polarization_from_literal(args.polarization, curve)
    scan = {"connected_only": args.connected_only, "cap": _cap()}
    report = {"command": "check", "criterion": args.criterion}
    check = slope_mod.slope_check_h0 if args.criterion == "h0" else slope_mod.slope_check_interval
    v = check(curve, pol, **scan)
    report["status"] = v.status
    report["witnesses"] = [_witness_json(w) for w in v.witnesses]
    if args.criterion == "both":
        eq = slope_mod.equivalence_report(curve, pol, **scan)
        # Below the degree guard the section-count scan refuses to run unless
        # there is nothing to scan; the regime flag and comparison stand in.
        h0 = None
        if eq.regime == "ok" or len(curve.component_ids) == 1:
            h0 = slope_mod.slope_check_h0(curve, pol, **scan)
        report["h0_status"] = eq.h0_status if h0 is None else h0.status
        report["h0_witnesses"] = None if h0 is None else [_witness_json(w) for w in h0.witnesses]
        report["regime"] = eq.regime
        report["disagreements"] = [
            {
                "subcurve": _sub_list(e.subcurve),
                "interval_state": e.interval_state,
                "h0_state": e.h0_state,
                "interval_margins": [format_rational(x) for x in e.interval_margins],
                "h0_margin": None if e.h0_margin is None else format_rational(e.h0_margin),
            }
            for e in eq.disagreements
        ]
    return _status_exit(v.status), report


def _cmd_twist(args):
    curve = _load_curve(args.curve)
    vector = vector_from_literal(args.vector, curve)
    result = dc_mod.find_twist(curve, vector, cap=_cap())
    if result is None:
        return EXIT_UNSTABLE, {"command": "twist", "twist": None}
    return EXIT_STABLE, {
        "command": "twist",
        "twist": result.vector,
        "coefficients": result.coefficients,
    }


def _cmd_chow_weight(args):
    curve = _load_curve(args.curve)
    pol = polarization_from_literal(args.polarization, curve)
    datum = datum_from_json(_load_json(args.ops), curve)
    rep = chow_mod.chow_report(datum, curve, pol)
    return _sign_exit(rep.total), {"command": "chow-weight", **_weights_json(rep)}


def _weights_json(rep: chow_mod.ChowWeights) -> dict:
    return {
        "omega": format_rational(rep.omega),
        "mu_a": format_rational(rep.mu),
        "omega_a": format_rational(rep.total),
        "e": format_rational(rep.multiplicity),
    }


def _cmd_two_weight(args):
    curve = _load_curve(args.curve)
    pol = polarization_from_literal(args.polarization, curve)
    sub = subcurve_from_literal(args.subcurve, curve)
    datum = chow_mod.two_weight_datum(curve, pol, sub)
    rep = chow_mod.chow_report(datum, curve, pol)
    closed = chow_mod.two_weight_closed_form(curve, pol, sub)
    return _sign_exit(rep.total), {
        "command": "two-weight",
        "subcurve": _sub_list(sub),
        "m": datum.m,
        **_weights_json(rep),
        "closed_form": format_rational(closed),
    }


def _cmd_newton(args):
    if args.oracle_k is not None and args.oracle_k < 0:
        raise argparse.ArgumentTypeError(f"--oracle-k must be nonnegative, got {args.oracle_k}")
    gamma = gamma_from_literal(args.gamma, args.width)
    poly = newton_mod.polygon_from_points(gamma)
    report = {
        "command": "newton",
        "vertices": [[format_rational(x), format_rational(y)] for x, y in poly.vertices],
        "area": format_rational(poly.area),
    }
    if args.oracle_k is not None:
        counts = [newton_mod.lattice_count_oracle(gamma, k) for k in range(args.oracle_k + 1)]
        report["oracle"] = {
            "counts": counts,
            "second_differences": [
                counts[k + 2] - 2 * counts[k + 1] + counts[k]
                for k in range(len(counts) - 2)
            ],
        }
    return EXIT_STABLE, report


def _cmd_bounds(args):
    curve = _load_curve(args.curve)
    pol = polarization_from_literal(args.polarization, curve)
    datum = datum_from_json(_load_json(args.ops), curve)
    epsilon = parse_rational(args.epsilon, "/epsilon")
    plain, weighted = bounds_mod.chow_weight_lower_bound(datum, curve, pol, epsilon)
    stairs = bounds_mod.increments_from_profiles(datum)
    e_alpha = {
        s.component: format_rational(
            bounds_mod.component_multiplicity_bound(s, datum.rho, epsilon, curve, pol))
        for s in stairs
    }
    shifted = bounds_mod.shifted_weights(datum)
    trapezoid = []
    for p in datum.profiles:
        h = datum.hbar[p.component]
        tb = bounds_mod.trapezoid_bound(p, datum.rho, h, 0, h)
        trapezoid.append({
            "point": p.id,
            "rhs": format_rational(tb.rhs),
            "exact": format_rational(tb.exact),
            "ok": tb.ok,
        })
    return EXIT_STABLE, {
        "command": "bounds",
        "epsilon": format_rational(epsilon),
        "E_alpha": e_alpha,
        "omega_hat": format_rational(plain),
        "omega_hat_weighted": format_rational(weighted),
        "rho_hat": list(shifted.values),
        "unassigned_indices": list(shifted.unassigned),
        "trapezoid_report": trapezoid,
    }


def _cmd_k_check(args):
    curve = _load_curve(args.curve)
    pol = polarization_from_literal(args.polarization, curve)
    rep = kstab_mod.k_stable(curve, pol, cap=_cap())
    return _status_exit(rep.verdict), {
        "command": "k-check",
        "verdict": rep.verdict,
        "proportional": rep.proportional,
        "df": [
            {"subcurve": _sub_list(e.subcurve), "value": format_rational(e.value)}
            for e in rep.entries
        ],
        "witness": None if rep.witness is None else _sub_list(rep.witness),
        "reason": rep.reason,
    }


def _cmd_classify(args):
    curve = _load_curve(args.curve)
    cls = classify_weighted(curve)
    return _status_exit(cls.status), {
        "command": "classify",
        "status": cls.status,
        "exceptional": list(cls.exceptional),
        "witness": cls.witness,
        "reason": cls.reason,
    }


def _cmd_stabilize(args):
    curve = _load_curve(args.curve)
    result = stabilize(curve)
    return EXIT_STABLE, {"command": "stabilize", "curve": curve_to_json(result)}


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="curvestab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **flags):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        if flags.get("curve"):
            p.add_argument("--curve", required=True, help="curve JSON file")
        if flags.get("polarization"):
            p.add_argument("--polarization", required=True, help='degrees, e.g. "C1=10,C2=10"')
        p.add_argument("--float", action="store_true", dest="with_float",
                       help="add a labelled block of decimal approximations")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        return p

    p = add("check", _cmd_check, curve=True, polarization=True)
    p.add_argument("--criterion", choices=("interval", "h0", "both"), default="interval")
    p.add_argument("--connected-only", action="store_true")

    p = add("twist", _cmd_twist, curve=True)
    p.add_argument("--vector", required=True, help='degree vector, e.g. "C1=13,C2=7"')

    p = add("chow-weight", _cmd_chow_weight, curve=True, polarization=True)
    p.add_argument("--ops", required=True, help="subgroup datum JSON file")

    p = add("two-weight", _cmd_two_weight, curve=True, polarization=True)
    p.add_argument("--subcurve", required=True, help='component ids, e.g. "C2" or "C1,C2"')

    p = add("newton", _cmd_newton)
    p.add_argument("--gamma", required=True, help='lattice points, e.g. "0,2;1,1;3,0"')
    p.add_argument("--width", required=True, type=int)
    p.add_argument("--oracle-k", type=int, default=None)

    p = add("bounds", _cmd_bounds, curve=True, polarization=True)
    p.add_argument("--ops", required=True, help="subgroup datum JSON file")
    p.add_argument("--epsilon", default="1/2")

    add("k-check", _cmd_k_check, curve=True, polarization=True)
    add("classify", _cmd_classify, curve=True)
    add("stabilize", _cmd_stabilize, curve=True)
    return parser


def _float_block(value):
    """Mirror of the report keeping only rational-string leaves, rendered
    as floats; empty containers are pruned."""
    if isinstance(value, str) and "/" in value:
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            return None
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            mirrored = _float_block(item)
            if mirrored is not None:
                out[key] = mirrored
        return out or None
    if isinstance(value, list):
        mirrored = [_float_block(v) for v in value]
        kept = [(i, m) for i, m in enumerate(mirrored) if m is not None]
        if not kept:
            return None
        return {str(i): m for i, m in kept}
    return None


def _emit(report: dict, args) -> None:
    if getattr(args, "with_float", False):
        block = _float_block(report)
        if block:
            report["approximations"] = {"note": "decimal renderings, not exact", **block}
    text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, report = args.handler(args)
    except SchemaError as exc:
        code, report = EXIT_SCHEMA, {"error": str(exc), "pointer": exc.pointer, "code": EXIT_SCHEMA}
    except RationalError as exc:
        code, report = EXIT_RATIONAL, {"error": str(exc), "code": EXIT_RATIONAL}
    except UnknownIdError as exc:
        code, report = EXIT_UNKNOWN_ID, {"error": str(exc), "code": EXIT_UNKNOWN_ID}
    except argparse.ArgumentTypeError as exc:
        code, report = EXIT_USAGE, {"error": str(exc), "code": EXIT_USAGE}
    except OSError as exc:
        code, report = EXIT_IO, {"error": str(exc), "code": EXIT_IO}
    except (ValueError, KeyError) as exc:
        code, report = EXIT_DOMAIN, {"error": str(exc), "code": EXIT_DOMAIN}
    try:
        _emit(report, args)
    except OSError as exc:
        _emit({"error": f"cannot write {args.output}: {exc}", "code": EXIT_IO}, argparse.Namespace())
        return EXIT_IO
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
