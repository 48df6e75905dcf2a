"""Slope stability of polarized weighted pointed nodal curves.

Two exact criteria are implemented side by side and kept independent:

* the *interval* form: each proper subcurve's degree must lie between two
  extremes built from the weighted dualizing degrees, the marks it hosts
  and its linking nodes;
* the *section-count* form: the normalized degree of every proper
  subcurve, with half its linking nodes and half its mark weights added,
  must stay below the normalized degree of the whole curve, where the
  normalization divides by the number of sections (computed by
  Riemann-Roch under a degree guard that kills the first cohomology).

Strict inequalities for every proper subcurve mean Stable; closed
inequalities with at least one attained bound mean StrictlySemistable;
anything outside means Unstable.  Witnesses are reported in enumeration
order with the attained or violated side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .curve import (
    ENUMERATION_CAP,
    CurveModel,
    Polarization,
    Subcurve,
    _check_subcurve,
    _Invariants,
    arithmetic_genus,
    subcurves,
)

STABLE = "Stable"
STRICTLY_SEMISTABLE = "StrictlySemistable"
UNSTABLE = "Unstable"


@dataclass(frozen=True)
class ExtremesInterval:
    lower: Fraction
    upper: Fraction
    subcurve: Subcurve


@dataclass(frozen=True)
class Witness:
    subcurve: Subcurve
    value: Fraction
    lower: Optional[Fraction]
    upper: Optional[Fraction]
    side: str  # "lower" | "upper"
    kind: str  # "attained" | "violated"


@dataclass(frozen=True)
class StabilityVerdict:
    status: str
    witnesses: tuple[Witness, ...] = ()


@dataclass(frozen=True)
class SubcurveComparison:
    subcurve: Subcurve
    interval_state: str  # lower-bound side: "strict" | "attained" | "violated"
    interval_margins: tuple[Fraction, Fraction]  # value-lower, upper-value
    h0_state: str  # as above, or "undefined" when a section count is nonpositive
    h0_margin: Optional[Fraction]  # whole-curve slope minus subcurve slope


@dataclass(frozen=True)
class EquivalenceReport:
    interval_status: str
    h0_status: str
    regime: str  # "ok" | "below large-degree regime"
    disagreements: tuple[SubcurveComparison, ...]
    entries: tuple[SubcurveComparison, ...]


@dataclass(frozen=True)
class DegreeBoundConstants:
    c: Fraction
    m: Fraction
    c_min: Fraction


@dataclass(frozen=True)
class ExtremalityReport:
    extremal: bool
    witnesses: tuple[tuple[Subcurve, tuple[tuple[str, str], ...]], ...] = ()


# ---------------------------------------------------------------------------
# scalar invariants


def weighted_chi(curve: CurveModel) -> Fraction:
    """Genus minus one plus the total mark weight."""
    inv = _Invariants(curve)
    return inv.genus(inv.full) - 1 + inv.total_weight


def weighted_degree_total(curve: CurveModel) -> Fraction:
    """Total degree of the weighted dualizing sheaf, ``2g - 2 + sum(a)``."""
    inv = _Invariants(curve)
    return inv.omega(inv.full, weighted=True)


def _require_positive_total(inv: _Invariants) -> Fraction:
    total = inv.omega(inv.full, weighted=True)
    if total <= 0:
        raise ValueError("total weighted degree non-positive")
    return total


def _check_polarization(curve: CurveModel, pol: Polarization) -> None:
    have = set(pol.degrees)
    want = set(curve.component_ids)
    if have - want:
        raise ValueError(f"unknown component in polarization: {sorted(have - want)}")
    if want - have:
        raise ValueError(f"polarization missing components: {sorted(want - have)}")


# ---------------------------------------------------------------------------
# the interval criterion


def extremes_for_total(curve: CurveModel, total_degree: int, cids: Iterable[str]) -> ExtremesInterval:
    """Degree window a proper subcurve must respect, given only the total
    degree of the polarization.

    Center: the subcurve's share (by weighted dualizing degree) of the
    total degree plus half the total mark weight, minus half the weight it
    hosts itself; half the linking-node count on either side.
    """
    inv = _Invariants(curve)
    total = _require_positive_total(inv)
    sub = _check_subcurve(curve, cids)
    if sub == inv.full:
        raise ValueError("subcurve must be proper")
    return _window(inv, total, total_degree, sub)


def _window(inv: _Invariants, total: Fraction, total_degree: int, sub: Subcurve) -> ExtremesInterval:
    ratio = inv.omega(sub, weighted=True) / total
    center = ratio * (total_degree + inv.total_weight / 2) - inv.mark_weight(sub) / 2
    ell = inv.linking(sub)
    return ExtremesInterval(
        lower=center - Fraction(ell, 2), upper=center + Fraction(ell, 2), subcurve=sub)


def extremes(curve: CurveModel, pol: Polarization, cids: Iterable[str]) -> ExtremesInterval:
    """Degree window of a proper subcurve under a polarization."""
    _check_polarization(curve, pol)
    return extremes_for_total(curve, pol.total, cids)


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


# ---------------------------------------------------------------------------
# the section-count criterion


def h0_regime(curve: CurveModel, pol: Polarization) -> bool:
    """Degree guard under which Riemann-Roch gives the section counts:
    every component degree at least ``2 g + l + 1``."""
    return _in_regime(_Invariants(curve), pol)


def _in_regime(inv: _Invariants, pol: Polarization) -> bool:
    return all(pol.of(cid) >= 2 * g + inv.links[cid] + 1 for cid, g in inv.genera.items())


def _h0(curve: CurveModel, pol: Polarization, sub: Subcurve) -> int:
    return _sections(_Invariants(curve), pol, sub)


def _h0_margin(curve: CurveModel, pol: Polarization, sub: Subcurve) -> Optional[Fraction]:
    inv = _Invariants(curve)
    return _margin(inv, pol, sub, _sections(inv, pol, inv.full))


def _sections(inv: _Invariants, pol: Polarization, sub: Subcurve) -> int:
    return pol.deg(sub) + 1 - inv.genus(sub)  # Riemann-Roch


def _margin(inv: _Invariants, pol: Polarization, sub: Subcurve, h0_all: int) -> Optional[Fraction]:
    """Whole-curve slope minus subcurve slope, as a true quotient.

    Positive means the subcurve passes strictly, zero is the boundary.
    None when a Riemann-Roch section count is nonpositive, which only
    happens below the degree guard, where the quotient form is
    meaningless.
    """
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
        return StabilityVerdict(STABLE)  # no proper subcurves to test
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


# ---------------------------------------------------------------------------
# side-by-side comparison


def _margin_state(margin: Optional[Fraction]) -> str:
    if margin is None:
        return "undefined"
    if margin > 0:
        return "strict"
    if margin == 0:
        return "attained"
    return "violated"


def _status_from_states(states: Iterable[str]) -> str:
    worst = STABLE
    for s in states:
        if s in ("violated", "undefined"):
            return UNSTABLE
        if s == "attained":
            worst = STRICTLY_SEMISTABLE
    return worst


def _verdict(witnesses: list[Witness]) -> StabilityVerdict:
    return StabilityVerdict(_status_from_states(w.kind for w in witnesses), tuple(witnesses))


def equivalence_report(
    curve: CurveModel,
    pol: Polarization,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> EquivalenceReport:
    """Run both criteria on every proper subcurve and flag disagreements.

    The per-subcurve correspondence pairs the section-count inequality at
    a subcurve with the *lower* extremes bound there (the upper bound is
    the complement's lower bound), so in the guarded degree regime the two
    columns agree subcurve by subcurve.  Below the guard the section
    counts can turn nonpositive; the comparison is still emitted but the
    report is flagged as out of regime.
    """
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
# explicit degree-bound constants


def degree_bound_constants(curve: CurveModel) -> DegreeBoundConstants:
    """Explicit constants ``(C, M)`` such that, at total degree at least
    ``M``, every connected proper subcurve of a slope-stable curve has
    degree at least ``C`` times the total (unmarked two-noded lines may sit
    at the semistable boundary and are exempt).

    ``c_min``, the least positive half mark-weight subset sum plus ``k/2``
    (``k`` = 0, 1, 2), is for nonnegative weights the lesser of ``1/2`` and
    half the smallest positive weight.
    """
    chi = weighted_chi(curve)
    if chi <= 0:
        raise ValueError("total weighted degree non-positive")
    n = len(curve.marks)
    c_min = min([Fraction(1, 2)] + [Fraction(m.weight) / 2 for m in curve.marks if m.weight > 0])
    c_prime = 1 / (4 * chi)
    c_second = min(c_min / chi, Fraction(1, 2) / chi)
    c = min(c_prime, c_second)
    g = arithmetic_genus(curve)
    m_prime = 4 * chi * (6 + Fraction(n, 2))
    m_second = max(6 * g + Fraction(n, 2) - 6, chi * (2 + n) / (2 * c_min))
    m = max(m_prime, m_second)
    return DegreeBoundConstants(c=c, m=m, c_min=c_min)


def is_line_exception(curve: CurveModel, pol: Polarization, sub: Subcurve) -> bool:
    """The semistable exemption: an unmarked degree-one subcurve with two
    linking nodes."""
    inv = _Invariants(curve)
    return pol.deg(sub) == 1 and not any(c in inv.weights for c in sub) and inv.linking(sub) == 2


# ---------------------------------------------------------------------------
# extremality (closed orbits)


def is_extremal(
    curve: CurveModel,
    pol: Polarization,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> ExtremalityReport:
    """A semistable configuration is extremal when every subcurve sitting
    at its lower extreme links to its complement only through degree-one
    rational components."""
    verdict = slope_check_interval(curve, pol, connected_only=connected_only, cap=cap)
    if verdict.status == UNSTABLE:
        raise ValueError("unstable input")
    one_lines = {
        cid for cid in curve.component_ids
        if pol.of(cid) == 1 and curve.genus_of(cid) == 0
    }
    bad = []
    # Unless violated, the lower-side witnesses are the subcurves at their lower extreme.
    for sub in (w.subcurve for w in verdict.witnesses if w.side == "lower"):
        off = tuple(
            (a, b) for a, b in curve.nodes
            if (a in sub) != (b in sub) and a not in one_lines and b not in one_lines
        )
        if off:
            bad.append((sub, off))
    return ExtremalityReport(extremal=not bad, witnesses=tuple(bad))
