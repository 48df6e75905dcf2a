"""Per-subcurve reference scans: the frozenset-and-Fraction implementations
the integer subcurve walk replaced, kept for the differential tests.

Each scan enumerates subcurves with its own ``itertools`` enumeration and
recomputes every window and section count as an exact ``Fraction`` from
the invariants table, one subcurve at a time.  Only helpers that do not
scan (argument checks, the table, the normal form) come from the package,
except the polarization's cover check, which is the reference's own;
the class-membership solve is the full one, with both matrix products on
every call, that the factored solver replaced.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Optional

from curvestab.curve import (
    ENUMERATION_CAP,
    CurveModel,
    Polarization,
    Subcurve,
    _Invariants,
    is_connected,
)
from curvestab.degree_class import (
    BalanceReport,
    TwistResult,
    _check_vector,
    linking_matrix,
    smith_normal_form,
)
from curvestab.kstab import DFEntry, DFReport, _proportional, _require_scope
from curvestab.slope import (
    EquivalenceReport,
    ExtremesInterval,
    StabilityVerdict,
    SubcurveComparison,
    Witness,
    _in_regime,
    _status_from_states,
)


def _verdict(witnesses: list[Witness]) -> StabilityVerdict:
    return StabilityVerdict(_status_from_states(w.kind for w in witnesses), tuple(witnesses))


def _check_polarization(curve: CurveModel, pol: Polarization) -> None:
    """The cover check, kept apart from the package's table so that the
    reference rejects a polarization on its own."""
    have, want = set(pol.degrees), set(curve.component_ids)
    if have - want:
        raise ValueError(f"unknown component in polarization: {sorted(have - want)}")
    if want - have:
        raise ValueError(f"polarization missing components: {sorted(want - have)}")


def subcurves(
    curve: CurveModel,
    proper_only: bool = True,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> list[Subcurve]:
    ids = sorted(curve.component_ids)
    r = len(ids)
    if r > cap:
        raise ValueError(f"enumeration cap exceeded: {r} components > {cap}")
    subsets = []
    for size in range(1, r + 1):
        if proper_only and size == r:
            continue
        subsets.extend(itertools.combinations(ids, size))
    subsets.sort()
    out = [frozenset(t) for t in subsets]
    if connected_only:
        out = [s for s in out if is_connected(curve, s)]
    return out


# ---------------------------------------------------------------------------
# slope


def _require_positive_total(inv: _Invariants) -> Fraction:
    total = inv.omega(inv.full, weighted=True)
    if total <= 0:
        raise ValueError("total weighted degree non-positive")
    return total


def _margin_state(margin: Optional[Fraction]) -> str:
    if margin is None:
        return "undefined"
    if margin > 0:
        return "strict"
    if margin == 0:
        return "attained"
    return "violated"


def _window(inv: _Invariants, total: Fraction, total_degree: int, sub: Subcurve) -> ExtremesInterval:
    ratio = inv.omega(sub, weighted=True) / total
    center = ratio * (total_degree + inv.total_weight / 2) - inv.mark_weight(sub) / 2
    ell = inv.linking(sub)
    return ExtremesInterval(
        lower=center - Fraction(ell, 2), upper=center + Fraction(ell, 2), subcurve=sub)


def slope_check_interval(
    curve: CurveModel,
    pol: Polarization,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> StabilityVerdict:
    _check_polarization(curve, pol)
    inv = _Invariants(curve)
    total = _require_positive_total(inv)
    witnesses = []
    for sub in subcurves(curve, proper_only=True, connected_only=connected_only, cap=cap):
        window = _window(inv, total, pol.total, sub)
        value = Fraction(pol.deg(sub))
        if value <= window.lower:
            kind = "attained" if value == window.lower else "violated"
            witnesses.append(Witness(sub, value, window.lower, window.upper, "lower", kind))
        elif value >= window.upper:
            kind = "attained" if value == window.upper else "violated"
            witnesses.append(Witness(sub, value, window.lower, window.upper, "upper", kind))
    return _verdict(witnesses)


def _sections(inv: _Invariants, pol: Polarization, sub: Subcurve) -> int:
    return pol.deg(sub) + 1 - inv.genus(sub)  # Riemann-Roch


def _margin(inv: _Invariants, pol: Polarization, sub: Subcurve, h0_all: int) -> Optional[Fraction]:
    h0_sub = _sections(inv, pol, sub)
    if h0_sub <= 0 or h0_all <= 0:
        return None
    lhs_num = pol.deg(sub) + Fraction(inv.linking(sub), 2) + inv.mark_weight(sub) / 2
    rhs_num = pol.total + inv.total_weight / 2
    return rhs_num / h0_all - lhs_num / h0_sub


def slope_check_h0(
    curve: CurveModel,
    pol: Polarization,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> StabilityVerdict:
    _check_polarization(curve, pol)
    if len(curve.component_ids) == 1:
        return StabilityVerdict("Stable")  # no proper subcurves to test
    inv = _Invariants(curve)
    if not _in_regime(inv, pol):
        raise ValueError("degree too small for h0 formula")
    h0_all = _sections(inv, pol, inv.full)
    bound = (pol.total + inv.total_weight / 2) / h0_all
    witnesses = []
    for sub in subcurves(curve, proper_only=True, connected_only=connected_only, cap=cap):
        margin = _margin(inv, pol, sub, h0_all)  # never None inside the guard
        if margin > 0:
            continue
        value = bound - margin  # the subcurve's own slope
        kind = "attained" if margin == 0 else "violated"
        witnesses.append(Witness(sub, value, None, bound, "upper", kind))
    return _verdict(witnesses)


def equivalence_report(
    curve: CurveModel,
    pol: Polarization,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> EquivalenceReport:
    _check_polarization(curve, pol)
    inv = _Invariants(curve)
    total = _require_positive_total(inv)
    regime = "ok" if _in_regime(inv, pol) else "below large-degree regime"
    h0_all = _sections(inv, pol, inv.full)
    entries = []
    for sub in subcurves(curve, proper_only=True, connected_only=connected_only, cap=cap):
        window = _window(inv, total, pol.total, sub)
        value = Fraction(pol.deg(sub))
        margins = (value - window.lower, window.upper - value)
        hmargin = _margin(inv, pol, sub, h0_all)
        entries.append(SubcurveComparison(
            sub, _margin_state(margins[0]), margins, _margin_state(hmargin), hmargin))
    disagreements = tuple(e for e in entries if e.interval_state != e.h0_state)
    return EquivalenceReport(
        interval_status=_status_from_states(e.interval_state for e in entries),
        h0_status=_status_from_states(e.h0_state for e in entries),
        regime=regime,
        disagreements=disagreements,
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# kstab


def _df_margin(inv: _Invariants, pol: Polarization, sub: Subcurve) -> Fraction:
    ratio = inv.omega(sub) / inv.omega(inv.full)
    return ratio * pol.total - pol.deg(sub)


def _entry(inv: _Invariants, pol: Polarization, g: int, sub: Subcurve) -> DFEntry:
    margin = _df_margin(inv, pol, sub)
    value = Fraction(g - 1, pol.total) * (margin - Fraction(inv.linking(sub), 2))
    return DFEntry(subcurve=sub, value=value, margin=margin)


def k_stable(curve: CurveModel, pol: Polarization, cap: int = ENUMERATION_CAP) -> DFReport:
    _check_polarization(curve, pol)
    inv = _Invariants(curve)
    g = _require_scope(inv)
    proportional, offender = _proportional(inv, pol)
    entries = []
    df_witness = margin_witness = None
    for sub in subcurves(curve, proper_only=True, cap=cap):
        entry = _entry(inv, pol, g, sub)
        entries.append(entry)
        if entry.value > 0 and df_witness is None:
            df_witness = sub
        if entry.margin > 0 and margin_witness is None:
            margin_witness = sub
    if proportional:
        return DFReport("KStable", True, tuple(entries))
    if inv.omegas[offender] == 0:
        reason = f"dualizing-degree-zero component {offender!r}"
    else:
        reason = f"component {offender!r} breaks proportionality"
    witness = df_witness or margin_witness or frozenset({offender})
    return DFReport("NotKStable", False, tuple(entries), witness=witness, reason=reason)


# ---------------------------------------------------------------------------
# degree_class


def is_balanced(curve: CurveModel, vector: dict, cap: int = ENUMERATION_CAP) -> BalanceReport:
    vec = _check_vector(curve, vector)
    if not vec:
        raise ValueError("curve has no components")
    failures: list[tuple] = []
    for cid, val in sorted(vec.items()):
        if val < 0:
            failures.append(("negative", cid))
    if failures:
        return BalanceReport(ok=False, failures=tuple(failures))
    d = sum(vec.values())
    inv = _Invariants(curve)
    proper = subcurves(curve, proper_only=True, cap=cap)
    total = _require_positive_total(inv) if proper else None
    for sub in proper:
        window = _window(inv, total, d, sub)
        value = Fraction(sum(vec[c] for c in sub))
        if not (window.lower <= value <= window.upper):
            failures.append(("interval", sub, value, window.lower, window.upper))
    return BalanceReport(ok=not failures, failures=tuple(failures))


def _mat_vec(matrix, vec):
    return [sum(matrix[i][j] * vec[j] for j in range(len(vec))) for i in range(len(matrix))]


def _solve_factored(snf, target) -> Optional[list[int]]:
    """The full solve against the normal form ``(d, u, v)`` of the rows:
    both products, ``u @ target`` and ``v @ y``, on every call."""
    d, u, v = snf
    uc = _mat_vec(u, target)
    n = len(d)
    y = [0] * n
    for i in range(n):
        di = d[i][i] if i < len(d[i]) else 0
        if di == 0:
            if uc[i] != 0:
                return None
            y[i] = 0
        else:
            if uc[i] % di:
                return None
            y[i] = uc[i] // di
    return _mat_vec(v, y)


def find_twist(curve: CurveModel, vector: dict, cap: int = ENUMERATION_CAP) -> Optional[TwistResult]:
    vec = _check_vector(curve, vector)
    d = sum(vec.values())
    ids = sorted(curve.component_ids)
    r = len(ids)
    inv = _Invariants(curve)
    total = _require_positive_total(inv) if r > 1 else None  # windows exist only for r > 1
    lo, hi = [max(0, d)], [d]
    if r > 1:
        singles = [_window(inv, total, d, frozenset({cid})) for cid in ids]
        lo = [max(0, ceil(w.lower)) for w in singles]
        hi = [floor(w.upper) for w in singles]
    if any(l > h for l, h in zip(lo, hi)):
        return None
    suffix_lo = [0] * (r + 1)
    suffix_hi = [0] * (r + 1)
    for i in range(r - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + lo[i]
        suffix_hi[i] = suffix_hi[i + 1] + hi[i]

    proper = subcurves(curve, proper_only=True, cap=cap)
    windows = {sub: _window(inv, total, d, sub) for sub in proper}
    lm = linking_matrix(curve)
    order = {cid: i for i, cid in enumerate(lm.ids)}
    snf = smith_normal_form(lm.rows)

    def balanced(candidate: dict[str, int]) -> bool:
        for sub, window in windows.items():
            value = sum(candidate[c] for c in sub)
            if not (window.lower <= value <= window.upper):
                return False
        return True

    stack: list[int] = []

    def dfs(pos: int, partial: int) -> Optional[TwistResult]:
        if pos == r:
            if partial != d:
                return None
            candidate = {ids[i]: stack[i] for i in range(r)}
            if not balanced(candidate):
                return None
            b = _solve_factored(snf, [candidate[cid] - vec[cid] for cid in lm.ids])
            if b is None:
                return None
            shift = min(b)
            b = [x - shift for x in b]  # the all-ones vector is in the kernel
            coeffs = {cid: b[order[cid]] for cid in lm.ids}
            return TwistResult(
                vector={cid: candidate[cid] for cid in curve.component_ids},
                coefficients={cid: coeffs[cid] for cid in curve.component_ids},
            )
        for val in range(lo[pos], hi[pos] + 1):
            rest_lo = suffix_lo[pos + 1]
            rest_hi = suffix_hi[pos + 1]
            if partial + val + rest_lo > d or partial + val + rest_hi < d:
                continue
            stack.append(val)
            hit = dfs(pos + 1, partial + val)
            if hit is not None:
                return hit
            stack.pop()
        return None

    return dfs(0, 0)
