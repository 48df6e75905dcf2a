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
    if inv.homes:
        raise ValueError("K-stability criterion requires an unmarked curve")
    g = inv.genus(inv.full)
    if g < 2:
        raise ValueError("dualizing sheaf not positive")
    return g


def _numerators(g: int, total: int, omega_all: int, om: int, deg: int, ell: int) -> tuple[int, int]:
    """The value and the margin of a subcurve from the walk's sums, as
    numerators over ``2 * total * omega_all`` and ``omega_all`` (both
    positive), given the genus, the total degree and the total dualizing
    degree."""
    deficit = om * total - deg * omega_all
    return (g - 1) * (2 * deficit - ell * omega_all), deficit


def slope_margin(curve: CurveModel, pol: Polarization, cids) -> Fraction:
    """Scale-free slope deficit of a proper subcurve: its
    dualizing-degree share of the total degree minus its degree."""
    inv = _Invariants(curve, pol)
    g = inv.genus(inv.full)
    if g < 2:  # the dualizing total 2g - 2 is the share's denominator
        raise ValueError("dualizing sheaf not positive")
    sub = _check_subcurve(curve, cids, proper=True)
    omega_all = sum(inv.omegas.values())
    om, _, deg, ell = inv.sums(sub, pol.degrees)
    return Fraction(_numerators(g, pol.total, omega_all, om, deg, ell)[1], omega_all)


def df_two_weight(curve: CurveModel, pol: Polarization, cids) -> Fraction:
    """Donaldson-Futaki invariant of the two-weight configuration
    degenerating toward a proper subcurve."""
    inv = _Invariants(curve, pol)
    g = _require_scope(inv)
    sub = _check_subcurve(curve, cids, proper=True)
    total, omega_all = pol.total, sum(inv.omegas.values())
    om, _, deg, ell = inv.sums(sub, pol.degrees)
    return Fraction(_numerators(g, total, omega_all, om, deg, ell)[0], 2 * total * omega_all)


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


# The fields of a ``_Scan`` row's tail, in the order ``k-check`` writes them.
_SCANNED = ("value",)


class _Scan:
    """One two-weight scan.  Built, it has checked the scope, decided the
    verdict by proportionality (``verdict``, ``proportional``, ``reason``)
    and created the walk, so past the cap it raises before any entry.
    Iterated once, it yields ``(mask, (value,), margin)`` for each proper
    subcurve in the walk's order (bit ``i`` of the mask is ``inv.ids[i]``):
    the report's row shape ``(mask, tail)`` with the margin beside it.  It
    builds each distinct tail, and so each distinct value, once and keeps
    it for the whole iteration, and each distinct margin once
    (``slope._Fractions``); it notes the first mask with a positive value
    and the first with a positive margin, and ``witness()`` reads them
    once the iteration is done."""

    def __init__(self, curve: CurveModel, pol: Polarization, cap: int = ENUMERATION_CAP):
        self.inv = inv = _Invariants(curve, pol)
        self._g = _require_scope(inv)
        self.proportional, self._offender = _proportional(inv, pol)
        if self.proportional:
            self.verdict, self.reason = "KStable", None
        elif inv.omegas[self._offender] == 0:
            self.verdict, self.reason = "NotKStable", f"dualizing-degree-zero component {self._offender!r}"
        else:
            self.verdict, self.reason = "NotKStable", f"component {self._offender!r} breaks proportionality"
        self._total, self._omega_all = pol.total, sum(inv.omegas.values())
        self._walk = inv.walk(pol.degrees, cap=cap)
        self._first_value = self._first_margin = None

    def __iter__(self):
        g, total, omega_all = self._g, self._total, self._omega_all
        scale, tails, margins = 2 * total * omega_all, {}, _Fractions(omega_all)
        first_value = first_margin = None
        for mask, om, _, deg, ell in self._walk:
            n, deficit = _numerators(g, total, omega_all, om, deg, ell)
            if n > 0 and first_value is None:
                first_value = self._first_value = mask
            if deficit > 0 and first_margin is None:
                first_margin = self._first_margin = mask
            yield mask, tails.get(n) or tails.setdefault(n, (Fraction(n, scale),)), margins[deficit]

    def witness(self) -> Optional[Subcurve]:
        """None when K-stable; otherwise the first positive-value subcurve,
        else the first positive-margin one, else the offending component."""
        if self.proportional:
            return None
        mask = self._first_value if self._first_value is not None else self._first_margin
        return frozenset({self._offender}) if mask is None else self.inv.subcurve(mask)


def k_stable(curve: CurveModel, pol: Polarization, cap: int = ENUMERATION_CAP) -> DFReport:
    """K-stability verdict with the full two-weight scan attached.

    Proportionality decides; the invariant of every two-weight
    configuration and its scale-free margin are reported, and on failure
    the witness is the first positive-invariant subcurve if one exists,
    otherwise the first positive-margin subcurve (a subcurve whose
    invariant turns positive after scaling the polarization), otherwise
    the offending component itself.
    """
    scan = _Scan(curve, pol, cap)
    subcurve = scan.inv.subcurve
    entries = tuple(DFEntry(subcurve(mask), value, margin) for mask, (value,), margin in scan)
    return DFReport(scan.verdict, scan.proportional, entries, witness=scan.witness(), reason=scan.reason)
