"""Chow weights of one-parameter subgroups acting on an embedded curve.

A diagonalized one-parameter subgroup is described combinatorially: the
top index of the projective space, the non-increasing integer weights
(last one zero), each component's top nonvanishing section index, the
vanishing-order profiles at the support points on the normalization, and
for each marked point the largest index whose section does not vanish
there.

The weight of the limit cycle is the classical multiplicity formula:
``2 deg / (m+1)`` times the weight sum, minus the total Hilbert-Samuel
multiplicity read off the Newton polygons.  Marked points contribute the
weight-sum average minus the weight at their top nonvanishing index; a
mark without a recorded index is in generic position and contributes only
the average.

The two-weight construction realizes the subgroup that degenerates the
curve toward a chosen proper subcurve: weight one on the span of the
subcurve, weight zero on a complement.  Its total multiplicity is twice
the subcurve degree plus its linking nodes, and its full weight has the
exact closed form used by the slope criterion, which is recomputed here
independently so the two routes can be compared.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .curve import CurveModel, Polarization, Subcurve, _check_subcurve, _integer, _integers, _Invariants
from .newton import PointProfile, _shapes, total_multiplicity


@dataclass(frozen=True)
class OnePSDatum:
    """Combinatorial data of a diagonalized one-parameter subgroup."""

    m: int
    rho: tuple[int, ...]
    hbar: dict[str, int]
    profiles: tuple[PointProfile, ...] = ()
    imax: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        _integer(self.m, "m")
        object.__setattr__(self, "rho", _integers(tuple(self.rho), "rho entry"))
        object.__setattr__(self, "hbar", _integers(dict(self.hbar), "hbar"))
        object.__setattr__(self, "profiles", tuple(self.profiles))
        object.__setattr__(self, "imax", _integers(dict(self.imax), "imax"))

    @property
    def weight_sum(self) -> int:
        return sum(self.rho)


@dataclass(frozen=True)
class ChowWeights:
    omega: Fraction       # cycle part
    mu: Fraction          # marked-point part
    total: Fraction       # omega + mu
    multiplicity: Fraction


def validate_datum(
    datum: OnePSDatum,
    curve: Optional[CurveModel] = None,
    pol: Optional[Polarization] = None,
) -> list[str]:
    """All consistency problems of a datum, empty when sound.

    With a curve the component and mark references are checked; with a
    polarization the per-component profile widths must sum to the
    component degree (each section cuts the component in its degree).
    The curve and the polarization themselves are checked by the table
    (``_Invariants``), which raises."""
    return _problems(datum, None if curve is None else _Invariants(curve, pol), pol)


def _problems(datum: OnePSDatum, inv: Optional[_Invariants], pol: Optional[Polarization]) -> list[str]:
    """``validate_datum`` against a curve's table ``inv``, if any."""
    problems = []
    if len(datum.rho) != datum.m + 1:
        problems.append(f"rho has {len(datum.rho)} entries, expected m+1 = {datum.m + 1}")
    if any(datum.rho[i] < datum.rho[i + 1] for i in range(len(datum.rho) - 1)):
        problems.append("rho not sorted")
    if datum.rho and datum.rho[-1] != 0:
        problems.append("rho not normalized: last weight must be 0")
    for cid, h in datum.hbar.items():
        if not (0 <= h <= datum.m):
            problems.append(f"top index {h} of component {cid!r} out of range")
    if inv is not None:  # the dicts iterate in the curve's order
        problems += [f"component {cid!r} missing from hbar" for cid in inv.genera if cid not in datum.hbar]
        problems += [f"unknown component {cid!r} in hbar" for cid in datum.hbar if cid not in inv.genera]
    shapes, which = _shapes(datum.profiles)
    lowest = [min(q.vanish, default=0) for q in shapes]
    for p, n in zip(datum.profiles, which):
        if p.component not in datum.hbar:
            problems.append(f"profile {p.id!r} on component {p.component!r} without top index")
            continue
        h = datum.hbar[p.component]
        if len(p.vanish) != h + 1:
            problems.append(
                f"profile {p.id!r}: vanish list has {len(p.vanish)} entries, expected {h + 1}")
        if lowest[n] < 0:
            problems.append(f"profile {p.id!r}: negative vanishing order")
    homes = {} if inv is None else inv.homes  # mark id -> component
    for mid, i in datum.imax.items():
        if inv is not None and mid not in homes:
            problems.append(f"imax names unknown mark {mid!r}")
        if not (0 <= i <= datum.m):
            problems.append(f"imax of mark {mid!r} out of range")
        elif (cid := homes.get(mid)) in datum.hbar and i > datum.hbar[cid]:
            problems.append(f"imax of mark {mid!r} exceeds its component's top index")
    if pol is not None and inv is not None and not problems:
        per = dict.fromkeys(inv.genera, 0)
        for p in datum.profiles:
            per[p.component] += p.width
        for cid, total in per.items():
            if total != pol.of(cid):
                problems.append(
                    f"component {cid!r}: profile widths sum to {total}, degree is {pol.of(cid)}")
    return problems


def _require_valid(datum: OnePSDatum, curve: Optional[CurveModel] = None,
                   pol: Optional[Polarization] = None) -> Optional[_Invariants]:
    """Raise on any problem ``validate_datum`` finds; the curve's table,
    if a curve is given."""
    inv = None if curve is None else _Invariants(curve, pol)
    problems = _problems(datum, inv, pol)
    if problems:
        raise ValueError("inconsistent datum: " + "; ".join(problems))
    return inv


# ---------------------------------------------------------------------------
# the weights


def mumford_weight(datum: OnePSDatum, curve: CurveModel, pol: Polarization) -> Fraction:
    """Weight of the limit cycle: degree-normalized weight sum minus the
    total multiplicity of the subgroup's ideal."""
    return chow_report(datum, curve, pol).omega


def marked_weight(datum: OnePSDatum, curve: CurveModel, require_imax: bool = False) -> Fraction:
    """Weight contributed by the marked points.

    Each mark adds its weight times (average weight minus the weight at
    its top nonvanishing index).  Marks without a recorded index default
    to the last index, i.e. weight zero, which is the generic position;
    pass ``require_imax`` to treat a missing entry as an error instead.
    """
    return _marked(datum, _require_valid(datum, curve), require_imax)


def _marked(datum: OnePSDatum, inv: _Invariants, require_imax: bool) -> Fraction:
    avg = Fraction(datum.weight_sum, datum.m + 1)
    total = Fraction(0)
    for mark in inv.marks:
        if mark.id in datum.imax:
            idx = datum.imax[mark.id]
        elif require_imax:
            raise ValueError(f"missing imax for mark {mark.id!r}")
        else:
            idx = datum.m
        total += mark.weight * (avg - datum.rho[idx])
    return total


def chow_weight(datum: OnePSDatum, curve: CurveModel, pol: Polarization) -> Fraction:
    """Full weight: cycle part plus marked-point part."""
    return chow_report(datum, curve, pol).total


def chow_report(datum: OnePSDatum, curve: CurveModel, pol: Polarization) -> ChowWeights:
    """Both parts of the weight and the total multiplicity, from one
    validation of the datum and one multiplicity sum."""
    inv = _require_valid(datum, curve, pol)
    e = total_multiplicity(datum)
    omega = Fraction(2 * pol.total, datum.m + 1) * datum.weight_sum - e
    mu = _marked(datum, inv, require_imax=False)
    return ChowWeights(omega=omega, mu=mu, total=omega + mu, multiplicity=e)


# ---------------------------------------------------------------------------
# the two-weight construction


def _two_weight_shape(curve: CurveModel, pol: Polarization,
                      cids) -> tuple[_Invariants, Subcurve, int, int, list, Counter]:
    """The invariants table, the span dimensions of the two-weight
    construction, the nodes crossing the subcurve and their branches on
    each outside component, after checking it is realizable: the subcurve
    proper and known, both spans positive, at least one zero weight left
    over, and every outside component of degree at least its branches."""
    inv = _Invariants(curve, pol)
    sub = _check_subcurve(curve, cids, proper=True)
    m = pol.total - inv.genus(inv.full)   # m + 1 = deg + 1 - g
    m0 = pol.deg(sub) - inv.genus(sub)    # m0 + 1 = deg_Y + 1 - g_Y
    linking = [(a, b) for a, b in inv.nodes if (a in sub) != (b in sub)]
    branches = Counter(b if a in sub else a for a, b in linking)
    if m0 < 0 or m - m0 < 1 or any(pol.of(cid) < n for cid, n in branches.items()):
        raise ValueError("degree too small for the two-weight construction")
    return inv, sub, m, m0, linking, branches


def two_weight_datum(curve: CurveModel, pol: Polarization, cids) -> OnePSDatum:
    """Subgroup acting with weight one on the span of a proper subcurve
    and weight zero on a complement.

    Components inside the subcurve are compressed into one constant
    profile carrying the whole rectangle term; each linking node
    contributes the unit-triangle profile on its outside branch; outside
    components are padded with generic simple zeros so that profile widths
    add up to component degrees.  Total multiplicity comes out exactly as
    twice the subcurve degree plus its linking nodes.
    """
    inv, sub, m, m0, linking, branches = _two_weight_shape(curve, pol, cids)
    rho = tuple([1] * (m0 + 1) + [0] * (m - m0))
    hbar = {cid: (m0 if cid in sub else m) for cid in inv.genera}

    profiles = [
        PointProfile._exact(f"span_{cid}", cid, "smooth", (pol.of(cid),) * (m0 + 1))
        for cid in sorted(sub)
    ]

    # every linking branch shares one vanish tuple, and every filler another
    branch_vanish = (0,) * (m0 + 1) + (1,) * (m - m0)  # unit triangle
    fill_vanish = (0,) * m + (1,)                     # generic simple zero
    for link_idx, (a, b) in enumerate(linking):
        outside = b if a in sub else a
        profiles.append(PointProfile._exact(
            f"link{link_idx}_{outside}", outside, f"node-branch:{a}~{b}#{link_idx}", branch_vanish))
    for cid in sorted(inv.full - sub):
        for j in range(pol.of(cid) - branches[cid]):
            profiles.append(PointProfile._exact(f"fill{j}_{cid}", cid, "smooth", fill_vanish))

    imax = {mid: (m0 if cid in sub else m) for mid, cid in inv.homes.items()}
    return OnePSDatum(m=m, rho=rho, hbar=hbar, profiles=tuple(profiles), imax=imax)


def two_weight_closed_form(curve: CurveModel, pol: Polarization, cids) -> Fraction:
    """Exact full weight of the two-weight subgroup, computed without any
    polygon machinery: twice the span dimension times the slope gap
    between the whole curve and the subcurve."""
    inv, sub, m, m0, linking, _ = _two_weight_shape(curve, pol, cids)
    m1 = m + 1
    m01 = m0 + 1
    half_all = inv.total_weight / 2
    half_here = inv.mark_weight(sub) / 2
    ell = len(linking)
    return 2 * m01 * (
        (pol.total + half_all) / m1
        - (pol.deg(sub) + Fraction(ell, 2) + half_here) / m01
    )
