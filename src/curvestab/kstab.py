"""K-stability of polarized unmarked nodal curves.

The test configurations scanned here are the two-weight degenerations
toward proper subcurves.  For such a configuration the Donaldson-Futaki
invariant has a closed form: ``(g - 1) / deg`` times the subcurve's slope
deficit (its share of the total degree by dualizing-degree proportion,
minus its actual degree, minus half its linking nodes).

K-stability itself is insensitive to replacing the polarization by a
multiple, and under that scaling the half-linking-node term becomes
negligible against the slope deficit; the scale-free obstruction is
therefore the *margin* (the deficit without the half-node term).  A
polarized curve is K-stable exactly when the polarization is numerically
proportional to the dualizing sheaf, which is equivalent to every margin
vanishing; the verdict here tests proportionality by exact integer
cross-multiplication and cross-checks it against the sign scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .curve import (
    ENUMERATION_CAP,
    CurveModel,
    Polarization,
    Subcurve,
    _check_subcurve,
    _Invariants,
)
from .slope import _Fractions


@dataclass(frozen=True)
class DFEntry:
    subcurve: Subcurve
    value: Fraction      # invariant of the two-weight configuration
    margin: Fraction     # scale-free slope deficit


@dataclass(frozen=True)
class DFReport:
    verdict: str  # "KStable" | "NotKStable"
    proportional: bool
    entries: tuple[DFEntry, ...]
    witness: Optional[Subcurve] = None
    reason: Optional[str] = None


def _require_scope(inv: _Invariants) -> int:
    if inv.weights:
        raise ValueError("K-stability criterion requires an unmarked curve")
    g = inv.genus(inv.full)
    if g < 2:
        raise ValueError("dualizing sheaf not positive")
    return g


def slope_margin(curve: CurveModel, pol: Polarization, cids) -> Fraction:
    """Scale-free slope deficit of a proper subcurve: its
    dualizing-degree share of the total degree minus its degree."""
    inv = _Invariants(curve, pol)
    if inv.genus(inv.full) < 2:  # the dualizing total 2g - 2 is the share's denominator
        raise ValueError("dualizing sheaf not positive")
    sub = _check_subcurve(curve, cids)
    if sub == inv.full:
        raise ValueError("subcurve must be proper")
    return _entry_builder(1, pol.total, sum(inv.omegas.values()))(sub, *inv.sums(sub, pol.degrees)).margin


def _entry_builder(g: int, total: int, omega_all: int):
    """``entry(sub, om, _, deg, ell)``: the entry of a subcurve from the
    walk's sums (its mark weight unused), given the genus, the total
    degree and the total dualizing degree; each distinct value and margin
    is built once (``slope._Fractions``)."""
    values, margins = _Fractions(2 * total * omega_all), _Fractions(omega_all)

    def entry(sub: Subcurve, om: int, _, deg: int, ell: int) -> DFEntry:
        deficit = om * total - deg * omega_all  # the margin times omega_all
        value = values[(g - 1) * (2 * deficit - ell * omega_all)]
        return DFEntry(subcurve=sub, value=value, margin=margins[deficit])

    return entry


def df_two_weight(curve: CurveModel, pol: Polarization, cids) -> Fraction:
    """Donaldson-Futaki invariant of the two-weight configuration
    degenerating toward a proper subcurve."""
    inv = _Invariants(curve, pol)
    g = _require_scope(inv)
    sub = frozenset(cids)
    if not sub or sub == inv.full:
        raise ValueError("subcurve must be proper and nonempty")
    sub = _check_subcurve(curve, sub)
    return _entry_builder(g, pol.total, sum(inv.omegas.values()))(sub, *inv.sums(sub, pol.degrees)).value


def is_proportional(curve: CurveModel, pol: Polarization) -> tuple[bool, Optional[str]]:
    """Exact integer test that the polarization is numerically a multiple
    of the dualizing sheaf; returns the first offending component.

    A component of dualizing degree zero can never be proportional to an
    ample degree and is reported in preference to mere ratio mismatches.
    """
    return _proportional(_Invariants(curve, pol), pol)


def _proportional(inv: _Invariants, pol: Polarization) -> tuple[bool, Optional[str]]:
    total = sum(inv.omegas.values())
    offenders = [cid for cid, omega in inv.omegas.items() if omega == 0] or [
        cid for cid, omega in inv.omegas.items() if pol.of(cid) * total != pol.total * omega]
    return not offenders, (offenders[0] if offenders else None)


def k_stable(curve: CurveModel, pol: Polarization, cap: int = ENUMERATION_CAP) -> DFReport:
    """K-stability verdict with the full two-weight scan attached.

    Proportionality decides; the invariant of every two-weight
    configuration and its scale-free margin are reported, and on failure
    the witness is the first positive-invariant subcurve if one exists,
    otherwise the first positive-margin subcurve (a subcurve whose
    invariant turns positive after scaling the polarization), otherwise
    the offending component itself.
    """
    inv = _Invariants(curve, pol)
    g = _require_scope(inv)
    proportional, offender = _proportional(inv, pol)
    total, omega_all = pol.total, sum(inv.omegas.values())
    entry = _entry_builder(g, total, omega_all)
    entries = tuple(entry(inv.subcurve(mask), *sums) for mask, *sums in inv.walk(pol.degrees, cap=cap))
    if proportional:
        return DFReport("KStable", True, entries)
    if inv.omegas[offender] == 0:
        reason = f"dualizing-degree-zero component {offender!r}"
    else:
        reason = f"component {offender!r} breaks proportionality"
    witness = next((e.subcurve for e in entries if e.value > 0), None) or next(
        (e.subcurve for e in entries if e.margin > 0), frozenset({offender}))
    return DFReport("NotKStable", False, entries, witness=witness, reason=reason)
