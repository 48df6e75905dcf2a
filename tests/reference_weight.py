"""Per-profile reference passes over a subgroup datum: the implementations
that grouping profiles by their shared vanish tuple replaced, kept for the
differential tests.

Each pass handles every profile's vanish list in full, once per profile,
whether or not other profiles carry the same list.  Only the per-point
pieces that do not loop over profiles (the weight check,
``point_multiplicity``, ``profile_jumps`` and the report types) come from
the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from curvestab.bounds import ComponentStair, StaircaseReport, StairPoint, profile_jumps
from curvestab.chow import OnePSDatum
from curvestab.curve import CurveModel, Polarization
from curvestab.newton import _check_rho, point_multiplicity


def validate_datum(
    datum: OnePSDatum,
    curve: Optional[CurveModel] = None,
    pol: Optional[Polarization] = None,
) -> list[str]:
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
    known_marks = {}
    if curve is not None:
        for cid in curve.component_ids:
            if cid not in datum.hbar:
                problems.append(f"component {cid!r} missing from hbar")
        problems += [f"unknown component {cid!r} in hbar"
                     for cid in datum.hbar if cid not in curve.component_ids]
        site_of = {s.id: s.component for s in curve.sites}
        known_marks = {m.id: site_of[m.site] for m in curve.marks}
    for p in datum.profiles:
        if p.component not in datum.hbar:
            problems.append(f"profile {p.id!r} on component {p.component!r} without top index")
            continue
        h = datum.hbar[p.component]
        if len(p.vanish) != h + 1:
            problems.append(
                f"profile {p.id!r}: vanish list has {len(p.vanish)} entries, expected {h + 1}")
        if min(p.vanish, default=0) < 0:
            problems.append(f"profile {p.id!r}: negative vanishing order")
    for mid, i in datum.imax.items():
        if curve is not None and mid not in known_marks:
            problems.append(f"imax names unknown mark {mid!r}")
        if not (0 <= i <= datum.m):
            problems.append(f"imax of mark {mid!r} out of range")
        elif curve is not None and mid in known_marks:
            cid = known_marks[mid]
            if cid in datum.hbar and i > datum.hbar[cid]:
                problems.append(f"imax of mark {mid!r} exceeds its component's top index")
    if pol is not None and curve is not None and not problems:
        per = {cid: 0 for cid in curve.component_ids}
        for p in datum.profiles:
            per[p.component] += p.width
        for cid, total in per.items():
            if total != pol.of(cid):
                problems.append(
                    f"component {cid!r}: profile widths sum to {total}, degree is {pol.of(cid)}")
    return problems


def is_staircase(datum: OnePSDatum) -> StaircaseReport:
    violations = []
    for p in datum.profiles:
        for i in range(len(p.vanish) - 1):
            if p.vanish[i + 1] < p.vanish[i]:
                violations.append((p.id, i + 1))
    return StaircaseReport(ok=not violations, violations=tuple(violations))


def increments_from_profiles(datum: OnePSDatum) -> list[ComponentStair]:
    report = is_staircase(datum)
    if not report.ok:
        raise ValueError(f"non-staircase input: violations at {report.violations[:3]}")
    problems = validate_datum(datum)
    if problems:
        raise ValueError("inconsistent datum: " + "; ".join(problems))
    stairs = []
    for cid in sorted(datum.hbar):
        h = datum.hbar[cid]
        mine = [p for p in datum.profiles if p.component == cid]
        widths = [0] * (h + 1)
        delta: dict[int, int] = {}
        points = []
        for p in mine:
            jumps = profile_jumps(p)
            for i, d in jumps.items():
                delta[i] = delta.get(i, 0) + d
            for i in range(h + 1):
                widths[i] += p.vanish[i]
            points.append(StairPoint(
                profile_id=p.id,
                initial_index=min(jumps) if jumps else None,
                special=p.is_special,
            ))
        index_set = tuple(sorted(set(delta) | {h}))
        stairs.append(ComponentStair(
            component=cid, hbar=h, index_set=index_set, delta=delta,
            widths=tuple(widths), points=tuple(points)))
    return stairs


def total_multiplicity(datum: OnePSDatum) -> Fraction:
    """One multiplicity per profile, added one at a time."""
    rho = _check_rho(datum.rho)
    total = Fraction(0)
    for p in datum.profiles:
        if p.component not in datum.hbar:
            raise ValueError(f"profile {p.id!r} on component {p.component!r} without top index")
        total += point_multiplicity(p, rho, datum.hbar[p.component])
    return total
