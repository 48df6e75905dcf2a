"""Staircase validators and linear bound functionals on the weight cone.

A subgroup datum is a *staircase* when every profile's vanishing orders
are non-decreasing in the section index.  For staircase data the widths
and per-index increments are redundant encodings of the vanish lists;
this module aggregates them per component, singles out the primary
indices (those whose cumulative width stays under the component degree
minus twice its genus minus its linking nodes minus one), and evaluates
the component bound functional: a linear form in the shifted weights that
dominates the component's multiplicity contribution once the degree is
large enough.

The trapezoid estimate is reproduced verbatim next to the exact clipped
polygon area it is meant to bound.  The two are reported together and
never merged: on some staircase profiles the printed formula is exceeded
by the exact area (the smallest instance, vanish ``(0,1,2)`` with weights
``(3,1,0)``, gives formula 2 against exact area 5/2), so callers must
treat the formula as a logged estimate, not a certified bound.

Linear inequalities on the cone of non-increasing weight vectors hold
exactly when they hold on the edge vectors (a block of ones followed by
zeros); ``verify_on_edges`` runs that reduction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .curve import CurveModel, Polarization, _Invariants
from .chow import OnePSDatum, _marked, _require_valid
from .newton import PointProfile, _capped_area, _check_profile, _check_rho


@dataclass(frozen=True)
class StaircaseReport:
    ok: bool
    violations: tuple[tuple[str, int], ...] = ()  # (profile id, index)


@dataclass(frozen=True)
class StairPoint:
    profile_id: str
    initial_index: Optional[int]  # smallest index with a positive increment
    special: bool                 # node branch or mark-carrying point


@dataclass(frozen=True)
class ComponentStair:
    """Per-component aggregation of a staircase datum.

    ``widths[i]`` is the total vanishing order of section ``i`` over the
    component's points, for ``i`` up to the top index; increments are the
    width differences.  ``index_set`` lists the indices where some point
    jumps, plus the top index itself.
    """

    component: str
    hbar: int
    index_set: tuple[int, ...]
    delta: dict[int, int]
    widths: tuple[int, ...]
    points: tuple[StairPoint, ...]

    def width_after(self, i: int) -> Optional[int]:
        """Width of the next section sheaf; None past the top index, where
        the restriction vanishes identically."""
        if i + 1 <= self.hbar:
            return self.widths[i + 1]
        return None


@dataclass(frozen=True)
class PrimaryIndexReport:
    component: str
    primary: tuple[int, ...]
    j_bar: Optional[int]
    w_pri: Optional[int]
    gap: Optional[int]        # component degree minus w_pri
    gap_ok: bool              # 0 <= gap <= 2 (genus + linking nodes + 1)


@dataclass(frozen=True)
class TrapezoidBound:
    rhs: Fraction    # the printed estimate
    exact: Fraction  # exact clipped area of the reduced polygon
    ok: bool         # exact <= rhs


@dataclass(frozen=True)
class ShiftedWeights:
    values: tuple[int, ...]
    unassigned: tuple[int, ...]  # indices not covered by any component


# ---------------------------------------------------------------------------
# staircase validation and aggregation


def is_staircase(datum: OnePSDatum) -> StaircaseReport:
    """Vanishing orders must be non-decreasing along every profile.  The
    drops of a vanish list that several profiles carry are found once and
    listed for each of them, in profile order."""
    shapes, which = datum._shape_index
    drops = [[i + 1 for i in range(len(q.vanish) - 1) if q.vanish[i + 1] < q.vanish[i]] for q in shapes]
    violations = tuple((p.id, i) for p, n in zip(datum.profiles, which) for i in drops[n])
    return StaircaseReport(ok=not violations, violations=violations)


def profile_jumps(profile: PointProfile) -> dict[int, int]:
    """Indices where the profile's vanishing order strictly increases,
    with the increment sizes."""
    return {
        i: profile.vanish[i + 1] - profile.vanish[i]
        for i in range(len(profile.vanish) - 1)
        if profile.vanish[i + 1] > profile.vanish[i]
    }


def increments_from_profiles(datum: OnePSDatum) -> list[ComponentStair]:
    """Aggregate widths and increments per component of a staircase datum;
    raises on a non-staircase datum, then on an inconsistent one
    (``validate_datum``).

    Profiles of a component that carry one vanish list are added once,
    times their number; each still gets its own point, in profile order.
    """
    return _increments(datum, validated=False)


def _increments(datum: OnePSDatum, validated: bool = True) -> list[ComponentStair]:
    """``increments_from_profiles``, which skips the consistency check
    of a ``validated`` datum."""
    report = is_staircase(datum)
    if not report.ok:
        raise ValueError(f"non-staircase input: violations at {report.violations[:3]}")
    if not validated:
        _require_valid(datum)
    shapes, which = datum._shape_index
    jumps_of = [profile_jumps(q) for q in shapes]
    starts = [min(jumps, default=None) for jumps in jumps_of]
    stairs = []
    for cid in sorted(datum.hbar):
        h = datum.hbar[cid]
        mine = [(p, n) for p, n in zip(datum.profiles, which) if p.component == cid]
        points = tuple(StairPoint(profile_id=p.id, initial_index=starts[n], special=p.is_special)
                       for p, n in mine)
        widths = [0] * (h + 1)
        delta: dict[int, int] = {}
        for n, k in Counter(n for _, n in mine).items():  # first seen first
            for i, d in jumps_of[n].items():
                delta[i] = delta.get(i, 0) + k * d
            for i in range(h + 1):
                widths[i] += k * shapes[n].vanish[i]
        index_set = tuple(sorted(set(delta) | {h}))
        stairs.append(ComponentStair(
            component=cid, hbar=h, index_set=index_set, delta=delta,
            widths=tuple(widths), points=points))
    return stairs


# ---------------------------------------------------------------------------
# trapezoid estimate vs exact clipped area


def trapezoid_bound(
    profile: PointProfile,
    rho: Sequence[int],
    hbar_alpha: int,
    lo: int,
    hi: int,
) -> TrapezoidBound:
    """Printed trapezoid estimate over an index window, next to the exact
    clipped area it estimates.

    The estimate sums increment-times-shifted-weight over the window's
    jump indices and subtracts the average of the shifted weights at the
    first and last jump; an empty window degenerates to minus the shifted
    weight at the window start.  The exact companion is the reduced
    polygon area between the window's widths.  The weights and the profile
    are checked first, as ``point_multiplicity`` checks them.
    """
    rho = _check_rho(rho)
    _check_profile(profile, rho, hbar_alpha)
    if not (0 <= lo <= hi <= hbar_alpha):
        raise ValueError(f"index window [{lo},{hi}] out of range [0,{hbar_alpha}]")
    jumps = profile_jumps(profile)
    if any(profile.vanish[i + 1] < profile.vanish[i] for i in range(len(profile.vanish) - 1)):
        raise ValueError("non-staircase profile")
    rho_h = rho[hbar_alpha]
    rel = [rho[i] - rho_h for i in range(hbar_alpha + 1)]
    window = sorted(i for i in jumps if lo <= i <= hi - 1)
    if window:
        total = sum(jumps[i] * rel[i] for i in window)
        rhs = total - Fraction(rel[window[0]] + rel[window[-1]], 2)
    else:
        rhs = Fraction(-rel[lo])
    exact = _capped_area(profile.vanish, rho, hbar_alpha, profile.vanish[lo], profile.vanish[hi])
    return TrapezoidBound(rhs=rhs, exact=exact, ok=exact <= rhs)


# ---------------------------------------------------------------------------
# primary indices and the component bound functional


def primary_indices(stair: ComponentStair, curve: CurveModel, pol: Polarization) -> PrimaryIndexReport:
    """Indices whose next width stays at most the component degree minus
    twice the genus, the linking nodes and one; degree-one components keep
    just their first index."""
    return _primary(stair, _Invariants(curve, pol), pol)


def _primary(stair: ComponentStair, inv: _Invariants, pol: Polarization) -> PrimaryIndexReport:
    cid = stair.component
    d_a = pol.of(cid)
    g, ell = inv.genera[cid], inv.links[cid]
    if d_a == 1:
        primary = (stair.index_set[0],)
    else:
        threshold = d_a - 2 * g - ell - 1
        primary = tuple(
            i for i in stair.index_set
            if stair.width_after(i) is not None and stair.width_after(i) <= threshold
        )
    if primary:
        j_bar = max(primary)
        w_pri = stair.width_after(j_bar)
        gap = d_a - w_pri if w_pri is not None else None
    else:
        j_bar = w_pri = gap = None
    bound = 2 * (g + ell + 1)
    gap_ok = gap is not None and 0 <= gap <= bound
    return PrimaryIndexReport(component=cid, primary=primary, j_bar=j_bar,
                              w_pri=w_pri, gap=gap, gap_ok=gap_ok)


def component_multiplicity_bound(
    stair: ComponentStair,
    rho: Sequence[int],
    epsilon: Fraction,
    curve: CurveModel,
    pol: Polarization,
) -> Fraction:
    """Linear form in the weights that dominates the component's
    multiplicity contribution at large degree.

    General shape: ``(2 + 2e/d)`` times the primary increment-weight sum,
    minus ``(1 + 2e/d)`` times the shifted weights at the special support
    points, plus twice degree times the top-index weight.  Unmarked
    degree-one components use the degenerate one-term form.
    """
    epsilon = _check_epsilon(epsilon)
    return _component_bound(stair, rho, epsilon, _Invariants(curve, pol), pol)


def _component_bound(stair: ComponentStair, rho: Sequence[int], epsilon: Fraction,
                     inv: _Invariants, pol: Polarization) -> Fraction:
    cid = stair.component
    d_a = pol.of(cid)
    rho_h = rho[stair.hbar]
    rel = {i: rho[i] - rho_h for i in range(stair.hbar + 1)}
    if d_a == 1 and cid not in inv.homes.values():
        i0 = stair.index_set[0]
        return Fraction(stair.delta.get(i0, 0) * rel[i0]) + 2 * rho_h
    report = _primary(stair, inv, pol)
    lead = sum(stair.delta[i] * rel[i] for i in report.primary if i in stair.delta)
    special = sum(
        rel[pt.initial_index]
        for pt in stair.points
        if pt.special and pt.initial_index is not None
    )
    return (
        (2 + Fraction(2 * epsilon, d_a)) * lead
        - (1 + Fraction(2 * epsilon, d_a)) * special
        + 2 * d_a * rho_h
    )


def chow_weight_lower_bound(
    datum: OnePSDatum,
    curve: CurveModel,
    pol: Polarization,
    epsilon: Fraction = Fraction(1, 2),
) -> tuple[Fraction, Fraction]:
    """Surrogate for the Chow weight built from the component bounds.

    Returns the plain and the mark-augmented value.  On two-weight data
    the component bounds reproduce the multiplicity exactly, so the
    surrogate agrees with the true weight there.
    """
    inv = _require_valid(datum, curve, pol)
    return _lower_bound(datum, inv, pol, epsilon, _increments(datum))[:2]


def _lower_bound(datum: OnePSDatum, inv: _Invariants, pol: Polarization, epsilon: Fraction,
                 stairs: list[ComponentStair]) -> tuple[Fraction, Fraction, dict[str, Fraction]]:
    """Both values of the surrogate from a valid datum's staircase and
    its curve's table, with the component bounds they sum."""
    epsilon = _check_epsilon(epsilon)
    per = {s.component: _component_bound(s, datum.rho, epsilon, inv, pol) for s in stairs}
    plain = Fraction(2 * pol.total, datum.m + 1) * datum.weight_sum - sum(per.values())
    return plain, plain + _marked(datum, inv, require_imax=False), per


# ---------------------------------------------------------------------------
# shifted weights and edge reduction


def shifted_weights(datum: OnePSDatum) -> ShiftedWeights:
    """Per-index minimum of (weight minus the owning component's top-index
    weight), over the components whose index set contains the index.

    Indices no component touches are flagged and defaulted through the
    component with the largest top index, clamped at zero.
    """
    return _shifted(datum, increments_from_profiles(datum))


def _shifted(datum: OnePSDatum, stairs: list[ComponentStair]) -> ShiftedWeights:
    owners: dict[int, list[int]] = {}
    for s in stairs:
        for i in s.index_set:
            owners.setdefault(i, []).append(datum.rho[s.hbar])
    fallback = max((datum.hbar[cid] for cid in datum.hbar), default=datum.m)
    values = []
    unassigned = []
    for i in range(datum.m + 1):
        if i in owners:
            values.append(min(datum.rho[i] - top for top in owners[i]))
        else:
            unassigned.append(i)
            values.append(max(0, datum.rho[i] - datum.rho[fallback]))
    return ShiftedWeights(values=tuple(values), unassigned=tuple(unassigned))


def edge_vector(m: int, m0: int) -> tuple[int, ...]:
    """The cone edge with ``m0`` leading ones in ``m + 1`` slots."""
    if not (0 <= m0 <= m):
        raise ValueError(f"edge parameter {m0} out of range")
    return tuple([1] * m0 + [0] * (m + 1 - m0))


def verify_on_edges(
    functional: Callable[[Sequence[int]], Fraction],
    m: int,
    m0_range: Optional[Iterable[int]] = None,
    sense: str = "nonnegative",
) -> tuple[bool, Optional[int]]:
    """Check a functional's sign on every edge of the cone of
    non-increasing weight vectors with last entry zero.

    For linear functionals this settles the sign on the whole cone, since
    every such weight vector is a nonnegative combination of edges.
    Returns the verdict and the first failing edge parameter.
    """
    if sense not in ("nonnegative", "nonpositive"):
        raise ValueError(f"unknown sense {sense!r}")
    rng = range(1, m + 1) if m0_range is None else m0_range
    for m0 in rng:
        val = functional(edge_vector(m, m0))
        if sense == "nonnegative" and val < 0:
            return False, m0
        if sense == "nonpositive" and val > 0:
            return False, m0
    return True, None


def bound_validity_threshold(genus: int, ell: int, epsilon: Fraction) -> Fraction:
    """Degree beyond which the component bound provably dominates the
    multiplicity: ``2^14 (g + l + 1)^2 / e^2``."""
    epsilon = _check_epsilon(epsilon)
    return Fraction(2 ** 14) * (genus + ell + 1) ** 2 / (epsilon * epsilon)


def _check_epsilon(epsilon) -> Fraction:
    epsilon = Fraction(epsilon)
    if not (0 < epsilon <= 1):
        raise ValueError(f"epsilon {epsilon} outside (0, 1]")
    return epsilon
