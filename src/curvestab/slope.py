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

Both scans test each subcurve of the integer walk (``_Invariants.walk``)
by integer comparisons: the window bounds are multiplied once per call by
``2 D t`` (``D`` the lcm of the mark-weight denominators, ``t`` the
weighted dualizing total times ``D``), the slope comparison by
``2 D h0_all h0_Y``.  The exact ``Fraction`` values are built only for a
witness or a reported entry, and equal those of the quotient forms.
Before the walk, both verdict scans read the sign of the least margin over
all proper subcurves off one maximum flow (``_Invariants.cut_sign``); a
positive sign means Stable with no witness, and the walk is skipped.
For ``check --criterion both`` the command line runs ``_check_both``: both
scans and the comparison's section-count column in one walk.
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
    windows = _Windows(inv, total_degree)
    sub = _check_subcurve(curve, cids)
    if sub == inv.full:
        raise ValueError("subcurve must be proper")
    om, a, _, ell = inv.sums(sub, dict.fromkeys(sub, 0))
    lower, upper = windows.bounds(om, a, ell)
    return ExtremesInterval(Fraction(lower, windows.scale), Fraction(upper, windows.scale), sub)


class _Windows:
    """The windows at total degree ``d`` times ``scale = 2 D t``, where
    ``t = D (omega + W)`` clears the weighted dualizing total: the center
    ``(D omega_Y + a_Y) k - t a_Y`` (``k = D (2 d + W)``, ``a_Y = D w_Y``)
    plus or minus ``D t l_Y``."""

    def __init__(self, inv: _Invariants, total_degree: int):
        self.denom, self.k = inv.denom, _cleared_total(inv, total_degree)
        self.t = int(_require_positive_total(inv) * inv.denom)
        self.scale = 2 * self.denom * self.t

    def bounds(self, om: int, a: int, ell: int) -> tuple[int, int]:
        center, half = (self.denom * om + a) * self.k - self.t * a, self.denom * self.t * ell
        return center - half, center + half

    def room_sign(self, inv: _Invariants, degrees: dict) -> Optional[int]:
        """The sign of the least room of any proper subcurve's degree
        inside its window, on either side (``_Invariants.cut_sign``);
        ``degrees`` must total the windows' degree."""
        weights = [self.scale * degrees[c] - self.bounds(inv.omegas[c], inv.scaled[c], 0)[0] for c in inv.ids]
        return inv.cut_sign(weights, self.denom * self.t)


def _cleared_total(inv: _Invariants, total_degree: int) -> int:
    """``2 D (d + W / 2)``, the cleared numerator of both criteria."""
    return 2 * inv.denom * total_degree + sum(inv.scaled.values())


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
    windows = _Windows(inv, pol.total)
    scale = windows.scale
    steps = inv.walk(pol.degrees, connected_only, cap)  # checks the cap before the cut runs
    if (windows.room_sign(inv, pol.degrees) or 0) > 0:  # None: no proof, so walk
        return StabilityVerdict(STABLE)
    witnesses = []
    for mask, om, a, deg, ell in steps:
        lower, upper = windows.bounds(om, a, ell)
        if not lower < scale * deg < upper:
            witnesses.append(_interval_witness(inv.subcurve(mask), scale, deg, lower, upper))
    return _verdict(witnesses)


def _interval_witness(sub: Subcurve, scale: int, deg: int, lower: int, upper: int) -> Witness:
    """The interval witness at a subcurve whose degree does not lie
    strictly inside its window (``lower`` and ``upper`` times ``scale``)."""
    value = scale * deg
    side, bound = ("lower", lower) if value <= lower else ("upper", upper)
    kind = "attained" if value == bound else "violated"
    return Witness(sub, Fraction(deg), Fraction(lower, scale), Fraction(upper, scale), side, kind)


# ---------------------------------------------------------------------------
# the section-count criterion


def h0_regime(curve: CurveModel, pol: Polarization) -> bool:
    """Degree guard under which Riemann-Roch gives the section counts:
    every component degree at least ``2 g + l + 1``."""
    return _in_regime(_Invariants(curve), pol)


def _in_regime(inv: _Invariants, pol: Polarization) -> bool:
    return all(pol.of(cid) >= 2 * g + inv.links[cid] + 1 for cid, g in inv.genera.items())


def _sections(om: int, deg: int, ell: int) -> int:
    """Riemann-Roch: ``deg_Y + 1 - g_Y`` with ``2 g_Y - 2 = omega_Y - l_Y``."""
    return deg - (om - ell) // 2


def _margin_terms(denom: int, k: int, h0_all: int, om: int, a: int, deg: int, ell: int):
    """``(h0_Y, n, s)``: the margin is ``n / (2 D h0_all h0_Y)`` and the
    subcurve's slope ``s / (2 D h0_Y)``."""
    h0_sub = _sections(om, deg, ell)
    lhs = denom * (2 * deg + ell) + a
    return h0_sub, k * h0_sub - lhs * h0_all, lhs


def _margin(denom: int, k: int, h0_all: int, om: int, a: int, deg: int, ell: int) -> Optional[Fraction]:
    """Whole-curve slope minus subcurve slope, as a true quotient.

    Positive means the subcurve passes strictly, zero is the boundary.
    None when a Riemann-Roch section count is nonpositive, which only
    happens below the degree guard, where the quotient form is
    meaningless.
    """
    h0_sub, num, _ = _margin_terms(denom, k, h0_all, om, a, deg, ell)
    if h0_sub <= 0 or h0_all <= 0:
        return None
    return Fraction(num, 2 * denom * h0_all * h0_sub)


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
    h0_all = _sections(sum(inv.omegas.values()), pol.total, 0)
    k, denom = _cleared_total(inv, pol.total), inv.denom
    steps = inv.walk(pol.degrees, connected_only, cap)  # checks the cap before the cut runs
    lam = k - 2 * denom * h0_all  # D (omega + W)
    if lam > 0:
        doubled = [k * (2 * pol.of(c) - inv.omegas[c]) - 2 * h0_all * (2 * denom * pol.of(c) + inv.scaled[c])
                   for c in inv.ids]
        if (inv.cut_sign(doubled, lam) or 0) > 0:
            return StabilityVerdict(STABLE)
    bound = Fraction(k, 2 * denom * h0_all)
    witnesses = []
    for mask, om, a, deg, ell in steps:
        h0_sub, num, lhs = _margin_terms(denom, k, h0_all, om, a, deg, ell)
        if num <= 0:
            witnesses.append(_h0_witness(inv.subcurve(mask), denom, bound, h0_sub, num, lhs))
    return _verdict(witnesses)


def _h0_witness(sub: Subcurve, denom: int, bound: Fraction, h0_sub: int, num: int, lhs: int) -> Witness:
    """The section-count witness at a subcurve whose margin is not
    positive (``_margin_terms``, with ``h0_sub > 0`` as in the guard)."""
    kind = "attained" if num == 0 else "violated"
    return Witness(sub, Fraction(lhs, 2 * denom * h0_sub), None, bound, "upper", kind)


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
    windows = _Windows(inv, pol.total)
    regime = "ok" if _in_regime(inv, pol) else "below large-degree regime"
    h0_all = _sections(sum(inv.omegas.values()), pol.total, 0)
    entries = []
    for mask, om, a, deg, ell in inv.walk(pol.degrees, connected_only, cap):
        lower, upper = windows.bounds(om, a, ell)
        value = windows.scale * deg
        margins = (Fraction(value - lower, windows.scale), Fraction(upper - value, windows.scale))
        hmargin = _margin(inv.denom, windows.k, h0_all, om, a, deg, ell)
        entries.append(SubcurveComparison(
            inv.subcurve(mask), _margin_state(margins[0]), margins, _margin_state(hmargin), hmargin))
    return EquivalenceReport(
        _status_from_states(e.interval_state for e in entries), _status_from_states(e.h0_state for e in entries),
        regime, tuple(e for e in entries if e.interval_state != e.h0_state), tuple(entries))


@dataclass(frozen=True)
class _BothCriteria:
    interval: StabilityVerdict
    h0: Optional[StabilityVerdict]  # None below the degree guard, unless there is one component
    h0_status: str
    regime: str
    disagreements: tuple[SubcurveComparison, ...]


_STATES = {1: "strict", 0: "attained", -1: "violated", -2: "undefined"}  # by margin sign


def _check_both(
    curve: CurveModel,
    pol: Polarization,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> _BothCriteria:
    """``slope_check_interval``, ``slope_check_h0`` (inside the degree
    guard or on one component) and ``equivalence_report``'s section-count
    status, regime and disagreements, from one walk; raises what the first
    of them raises.  A subcurve's two states are the signs of its integer
    margins (-2 for an undefined section count), so ``Fraction``s are built
    only for a witness or a disagreement."""
    _check_polarization(curve, pol)
    inv = _Invariants(curve)
    windows = _Windows(inv, pol.total)
    scale, k, denom = windows.scale, windows.k, inv.denom
    regime = "ok" if _in_regime(inv, pol) else "below large-degree regime"
    h0_all = _sections(sum(inv.omegas.values()), pol.total, 0)
    bound = Fraction(k, 2 * denom * h0_all) if regime == "ok" else None  # h0_all > 0 in the guard
    witnesses, h0_witnesses, disagreements = [], [], []
    least = 1  # the least section-count state
    for mask, om, a, deg, ell in inv.walk(pol.degrees, connected_only, cap):
        lower, upper = windows.bounds(om, a, ell)
        h0_sub, num, lhs = _margin_terms(denom, k, h0_all, om, a, deg, ell)
        value = scale * deg
        inside = lower < value < upper
        h0_hit = bound is not None and num <= 0
        room = value - lower
        state = (room > 0) - (room < 0)
        h0_state = -2 if h0_sub <= 0 or h0_all <= 0 else (num > 0) - (num < 0)
        least = min(least, h0_state)
        if inside and not h0_hit and state == h0_state:
            continue
        sub = inv.subcurve(mask)  # built once, for both witnesses and the disagreement
        if not inside:
            witnesses.append(_interval_witness(sub, scale, deg, lower, upper))
        if h0_hit:
            h0_witnesses.append(_h0_witness(sub, denom, bound, h0_sub, num, lhs))
        if state != h0_state:
            margin = None if h0_state == -2 else Fraction(num, 2 * denom * h0_all * h0_sub)
            disagreements.append(SubcurveComparison(
                sub, _STATES[state], (Fraction(room, scale), Fraction(upper - value, scale)),
                _STATES[h0_state], margin))
    h0 = _verdict(h0_witnesses) if bound is not None or len(inv.ids) == 1 else None
    return _BothCriteria(_verdict(witnesses), h0, _status_from_states([_STATES[least]]), regime,
                         tuple(disagreements))


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
    linking nodes. The empty subcurve is simply not one; unknown ids are an
    error."""
    if sub:
        _check_subcurve(curve, sub)
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
    one_lines = {c.id for c in curve.components if pol.of(c.id) == 1 and c.genus == 0}
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
