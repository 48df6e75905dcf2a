"""Slope stability of polarized weighted pointed nodal curves.

Two exact criteria are implemented:

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

The library computes one number per subcurve for both: the room of its
degree above the lower bound of its window, an integer over the window
scale ``2 D t`` (``D`` the lcm of the mark-weight denominators, ``t`` the
weighted dualizing total times ``D``), read off the integer walk
(``_Invariants.walk``) or the packed scan (``_packed``).  That room is
``2 D`` times the cleared section-count margin (``_Windows``), so the
section-count test reads its sign too, and builds slopes and margins
as ``Fraction``s only for a witness or a reported entry, the window-side
ones once per distinct value (``_Fractions``).  The independent quotient form, with
Riemann-Roch section counts and ``Fraction`` slopes for every subcurve,
lives in ``tests/reference_scans.py``.  ``slope_check_interval``,
``slope_check_h0``, the ``check`` command (``_check``, which also runs
``--criterion both``) and ``degree_class.is_balanced`` read one scan,
``_outside``: a positive sign of the least room over all proper
subcurves, off one maximum flow (``_Invariants.cut_sign``), means Stable
with no walk; otherwise the packed scan (``_packed``) lists the
subcurves not strictly inside their windows, in walk order, testing
many subcurves per big-integer operation, and steps no walk.
``is_balanced`` reads them closed: a sign of 0 already means balanced,
and its failures are the violated witnesses.  Each witness list is one
producer over those rows (``_interval_rows``, ``_h0_rows``) of ``(mask,
tail)`` pairs, the tail ``(value, lower, upper, side, kind)`` built once
per distinct tail; the library turns them into ``Witness`` objects, and
the command renders each distinct tail once (``cli._row_texts``, which
also writes ``k-check``'s rows).  Below the guard ``check --criterion
both`` runs a second packed pass for its disagreements, the subcurves
with a nonpositive section count.  One producer compares the two
criteria (``_comparison_rows``), in rows ``(mask, (interval_state,
h0_state, margins, h0_margin))``, each distinct tail built once:
``equivalence_report`` reads it over every subcurve, and the command
streams it over that second pass into that renderer as the report is
written.  Only the scans whose output lists every subcurve
(``equivalence_report``, ``kstab.k_stable``, ``curve.subcurves``) walk
every subcurve, and so do the scans where every subcurve is a row:
``t <= 0``, where no window is strict, and the second pass at
``h0_all <= 0``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from .curve import (
    ENUMERATION_CAP,
    CurveModel,
    Polarization,
    Subcurve,
    _check_subcurve,
    _Invariants,
    _neighbours,
    _spans,
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


class _Fractions(dict):
    """``q[n]`` is ``Fraction(n, q.d)``, built once per distinct numerator:
    a result's witnesses or entries can repeat a few values many times,
    and an integer hashes in C where a ``Fraction`` is normalized and
    hashed in Python.  One per call and denominator, so equal values built
    from it are one object, shared with no other result.  A numerator seen
    once costs a dict entry and a ``__missing__`` call on top of its
    ``Fraction`` (README, "Cost of a report").  A section-count slope or
    margin has a denominator of its own per subcurve and is built
    directly."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        self.d = d

    def __missing__(self, n: int) -> Fraction:
        value = self[n] = Fraction(n, self.d)
        return value


# ---------------------------------------------------------------------------
# the interval criterion


def extremes_for_total(curve: CurveModel, total_degree: int, cids: Iterable[str]) -> ExtremesInterval:
    """Degree window a proper subcurve must respect, given only the total
    degree of the polarization.

    Center: the subcurve's share (by weighted dualizing degree) of the
    total degree plus half the total mark weight, minus half the weight it
    hosts itself; half the linking-node count on either side.
    """
    return _extremes(curve, _Invariants(curve), total_degree, cids)


def _extremes(curve: CurveModel, inv: _Invariants, total_degree: int, cids: Iterable[str]) -> ExtremesInterval:
    windows = _interval_windows(inv, total_degree)
    sub = _check_subcurve(curve, cids, proper=True)
    om, a, _, ell = inv.sums(sub, dict.fromkeys(sub, 0))
    lower, upper = windows.bounds(om, a, ell)
    return ExtremesInterval(Fraction(lower, windows.scale), Fraction(upper, windows.scale), sub)


class _Windows:
    """The windows at total degree ``d`` times ``scale = 2 D t``, where
    ``t = D (omega + W)`` clears the weighted dualizing total: the center
    ``(D omega_Y + a_Y) k - t a_Y`` (``k = D (2 d + W)``, ``a_Y = D w_Y``)
    plus or minus ``D t l_Y``.  Built for any sign of ``t``; the interval
    criterion asks for ``t > 0`` (``_interval_windows``).

    The room ``scale deg_Y - lower_Y`` is also the section-count test.
    Riemann-Roch gives ``h0_all = d - omega / 2`` and ``h0_Y = deg_Y -
    (omega_Y - l_Y) / 2``, so ``k - t = D (2 d - omega) = 2 D h0_all``.
    The cleared section-count margin ``n(Y) = k h0_Y - lhs_Y h0_all``,
    with ``lhs_Y = D (2 deg_Y + l_Y) + a_Y``, is then
    ``(2 deg_Y + l_Y) (k - 2 D h0_all) / 2 - k omega_Y / 2 - a_Y h0_all
    = t deg_Y + t l_Y / 2 - k omega_Y / 2 - a_Y h0_all``, and the room,
    ``D t (2 deg_Y + l_Y) - D k omega_Y - a_Y (k - t)``, is ``2 D n(Y)``.
    So the margin ``k / (2 D h0_all) - lhs_Y / (2 D h0_Y)`` between the
    two slopes is ``room / (4 D^2 h0_all h0_Y)``: where both section
    counts are positive, it has the room's sign."""

    def __init__(self, inv: _Invariants, total_degree: int):
        marks = sum(inv.scaled.values())
        self.denom = inv.denom
        self.k = 2 * self.denom * total_degree + marks
        self.t = self.denom * sum(inv.omegas.values()) + marks
        self.scale = 2 * self.denom * self.t
        self.h0_all = (self.k - self.t) // (2 * self.denom)

    def bounds(self, om: int, a: int, ell: int) -> tuple[int, int]:
        center, half = (self.denom * om + a) * self.k - self.t * a, self.denom * self.t * ell
        return center - half, center + half

    def weights(self, inv: _Invariants, degrees: dict) -> list[int]:
        """Each component's room above its own window centre, by position:
        a subcurve's room above its lower bound is the sum over it plus
        ``D t`` times its linking count.  The centre at ``l = 0`` is ``D k
        omega_c + (k - t) a_c`` (``bounds``)."""
        scale, dk, kt, omegas, scaled = self.scale, self.denom * self.k, self.k - self.t, inv.omegas, inv.scaled
        return [scale * degrees[c] - dk * omegas[c] - kt * scaled[c] for c in inv.ids]

    def room_sign(self, inv: _Invariants, degrees: dict) -> Optional[int]:
        """The sign of the least room of any proper subcurve's degree
        inside its window, on either side (``_Invariants.cut_sign``);
        ``degrees`` must total the windows' degree.  None, no proof, when
        ``t <= 0``: the cut needs a positive multiple of the linking count."""
        if self.t <= 0:
            return None
        return inv.cut_sign(self.weights(inv, degrees), self.denom * self.t)


def _interval_windows(inv: _Invariants, total_degree: int) -> _Windows:
    """The windows of the interval criterion, which needs a positive
    weighted dualizing total."""
    windows = _Windows(inv, total_degree)
    if windows.t <= 0:
        raise ValueError("total weighted degree non-positive")
    return windows


def extremes(curve: CurveModel, pol: Polarization, cids: Iterable[str]) -> ExtremesInterval:
    """Degree window of a proper subcurve under a polarization."""
    return _extremes(curve, _Invariants(curve, pol), pol.total, cids)


def slope_check_interval(
    curve: CurveModel,
    pol: Polarization,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> StabilityVerdict:
    scan = _check(curve, pol, "interval", connected_only, cap)
    return _verdict(scan.witnesses, scan.inv.subcurve)


def _outside(inv: _Invariants, windows: _Windows, degrees: dict, steps: Iterable, connected_only: bool = False,
             closed: bool = False, block: Optional[int] = None) -> list:
    """The ``(mask, omega_Y, denom * w_Y, degree_Y, l_Y, lower, upper)``
    rows, in walk order, of the subcurves not strictly inside their
    windows (bounds times ``windows.scale``), the connected ones only if
    ``connected_only``.  No rows when the cut sign (``_Windows.room_sign``)
    is 1, or, if ``closed`` (``is_balanced``, which reads only the rows
    strictly outside), 0 or 1.  Otherwise the packed scan finds them with
    no walk step (``_packed``; ``block``, for the tests, forces its block
    size): a row's room above its lower bound, or below its upper bound,
    is at most 0.  No window is strict at ``t <= 0``, where the cut gives
    no sign: there every step of ``steps``, the caller's walk (whose
    creation checked the cap), is a row.  On one component there is no
    sign either, and the walk has no step."""
    sign = windows.room_sign(inv, degrees)
    if sign is not None and sign >= (0 if closed else 1):
        return []
    if sign is not None:
        steps = _packed(inv, degrees, windows.weights(inv, degrees), windows.denom * windows.t, True,
                        connected_only, block)
    return [(mask, om, a, deg, ell, *windows.bounds(om, a, ell)) for mask, om, a, deg, ell in steps]


#: The fewest components ``_packed`` packs into one integer, unless there are fewer.
_BLOCK = 6


def _packed(inv: _Invariants, degrees: dict, weights: list[int], lam: int, both: bool,
            connected_only: bool = False, block: Optional[int] = None):
    """Iterator of the walk's steps ``(mask, omega_Y, denom * w_Y,
    degree_Y, l_Y)`` (``_Invariants.walk``, in its order), only at the
    proper nonempty subcurves ``Y``, the connected ones if
    ``connected_only``, where ``g(Y) = (sum of weights over Y) + lam *
    l_Y`` is at most 0, or, if ``both``, ``g'(Y) = -(sum of weights over
    Y) + lam * l_Y`` is; ``weights`` by position, ``lam > 0``.

    SIMD within a register (Lamport, "Multiple byte processing with
    full-word instructions", CACM 1975).  The last ``h = block`` positions
    (by default ``max(_BLOCK, r // 2)``, at most ``r``) are packed: one
    integer per table holds a field of ``W`` bits (a whole number of
    bytes) per subset ``B`` of them, in walk order, so one addition moves
    ``2^h`` subcurves.  Write ``l_c``
    for ``c``'s linking count and ``e(Y)`` for the nodes inside ``Y``:
    ``l_Y = (sum of l_c over Y) - 2 e(Y)``, and for ``Y = A + B`` with
    ``A`` in the first ``r - h`` positions, ``e(Y) = e(A) + e(B) + n(A,
    B)``.  So the field of ``B`` is ``g(A)``, plus the table of ``sum of
    (w_c + lam l_c) over B - 2 lam e(B)``, minus ``2 lam`` times the
    table of ``B``'s bits of each packed end of a node from ``A``.  The
    tables are built by doubling, one packed position at a time, in
    O(nodes) big-integer operations each: the subsets with the new lowest
    position ``x`` follow the empty one and come before the rest, and
    ``e(x + B) = e(B) + n(x, B)``.  Each field carries the bias ``2^(W-1)
    - 1``, and ``2^(W-1)`` exceeds ``sum of |w| + lam * #nodes``, which
    bounds every ``|g|``: every field stays in ``[0, 2^W)``, so no carry
    crosses a field, and its top bit is clear exactly where its value is
    at most 0.  The rows of ``2^h`` subcurves are then ``HIGH & ~(lo &
    up)``.  ``A`` runs depth-first over the first ``r - h`` positions, as
    the walk does, with one addition per step for the nodes of the new
    component; ``A`` itself (``B`` empty) is a row before the subcurves
    that add unpacked positions to ``A``, and ``A + B`` for the other
    ``B`` after them, which is the walk's order.  A row's numbers are ``A``'s plus ``B``'s, and its
    linking count is read back from its field of ``g``.  Memory is a few
    tables of ``2^h`` fields per level of ``A``, never ``2^r`` of
    anything."""
    ids, r = inv.ids, len(inv.ids)
    h = min(r, block or max(_BLOCK, r // 2))
    p = r - h  # positions below p are stepped, the rest packed
    own = [(inv.omegas[c], inv.scaled[c], degrees[c], w, inv.links[c]) for c, w in zip(ids, weights)]
    above = [[] for _ in range(r)]  # above[i]: the upper end j of each node (i, j)
    for i, j in inv.pairs:
        above[i].append(j)
    size = (sum(map(abs, weights)) + lam * len(inv.pairs)).bit_length() // 8 + 1  # bytes per field
    width, bias = 8 * size, (1 << 8 * size - 1) - 1
    field = (1 << width) - 1
    fields, ones, lo, up, bits = [(0, 0, 0, 0, 0)], 1, bias, bias, {}  # fields: B's (mask, om, a, deg, w)
    for x in range(r - 1, p - 1, -1):  # add x below the packed positions above it
        n, (om, a, deg, w, ell) = len(fields), own[x]
        node = sum(bits[j] for j in above[x]) * 2 * lam

        def doubled(q, add=0):  # q's fields, then those of x + B, then the rest without the empty one
            return q & field | (q + add) << width | (q >> width) << width * (n + 1)

        lo = doubled(lo, (w + lam * ell) * ones - node)
        if both:
            up = doubled(up, (lam * ell - w) * ones - node)
        bits = {j: doubled(q) for j, q in bits.items()}
        bits[x], ones = ones << width, ones | ones << width * n
        fields[1:1] = [(m | 1 << x, o + om, s + a, d + deg, v + w) for m, o, s, d, v in fields]
    high, full = ones << width - 1, (1 << r) - 1
    cross = [sum(bits[j] for j in above[i] if j >= p) * -2 * lam for i in range(p)]
    below = [[] for _ in range(p)]  # below[j]: the bit of the lower end i of each node (i, j) with j < p
    for i, j in inv.pairs:
        if j < p:
            below[j].append(1 << i)
    neighbours = _neighbours(r, inv.pairs) if connected_only else None
    stack = [(0, -1, 0, 0, 0, 0, 0, 0, None)]  # A's numbers, its packed node term and, once visited, its rows
    while stack:
        mask, last, om, a, deg, ell, w, term, found = stack.pop()
        if found is None:
            lows = lo + term + (w + lam * ell) * ones
            found = high & ~(lows & (up + term + (lam * ell - w) * ones) if both else lows)
            if mask and found & 1 << width - 1 and (neighbours is None or _spans(mask, neighbours)):
                yield mask, om, a, deg, ell
            if found >> width:
                stack.append((mask, last, om, a, deg, ell, w, lows, found))
            for j in range(p - 1, last, -1):  # pushed downwards: the lowest comes off first
                j_om, j_a, j_deg, j_w, j_ell = own[j]
                for bit in below[j]:
                    if mask & bit:
                        j_ell -= 2
                stack.append((mask | 1 << j, j, om + j_om, a + j_a, deg + j_deg, ell + j_ell, w + j_w,
                              term + cross[j], None))
            continue
        table, rows = term.to_bytes(len(fields) * size, "little"), found.to_bytes(len(fields) * size, "little")
        at = rows.find(128, 2 * size - 1)  # the top byte of field 1 on
        while at >= 0:
            f = at // size
            m, o, s, d, v = fields[f]
            y = mask | m
            if y != full and (neighbours is None or _spans(y, neighbours)):
                g = int.from_bytes(table[at + 1 - size:at + 1], "little") - bias
                yield y, om + o, a + s, deg + d, (g - w - v) // lam
            at = rows.find(128, at + size)


# The fields of a witness row's tail (``_interval_rows``, ``_h0_rows``), in
# the order ``check`` writes them and ``Witness`` takes them after ``subcurve``.
_WITNESSED = ("value", "lower", "upper", "side", "kind")


def _interval_rows(rows: list, windows: _Windows):
    """The interval witness at each of ``_outside``'s rows, as ``(mask,
    (value, lower, upper, side, kind))``: each distinct tail is built once,
    keyed by the degree and the two scaled bounds, and each distinct
    degree and bound in it once (``_Fractions``)."""
    scale = windows.scale
    ints, bounds, tails = _Fractions(1), _Fractions(scale), {}
    for mask, _, _, deg, _, lower, upper in rows:
        tail = tails.get(key := (deg, lower, upper))
        if tail is None:
            side, bound = ("lower", lower) if scale * deg <= lower else ("upper", upper)
            tail = tails[key] = (ints[deg], bounds[lower], bounds[upper], side,
                                 "attained" if scale * deg == bound else "violated")
        yield mask, tail


# ---------------------------------------------------------------------------
# the section-count criterion


def h0_regime(curve: CurveModel, pol: Polarization) -> bool:
    """Degree guard under which Riemann-Roch gives the section counts:
    every component degree at least ``2 g + l + 1``."""
    return _in_regime(_Invariants(curve, pol), pol)


def _in_regime(inv: _Invariants, pol: Polarization) -> bool:
    return all(pol.degrees[cid] >= 2 * g + inv.links[cid] + 1 for cid, g in inv.genera.items())


def _sections(om: int, deg: int, ell: int) -> int:
    """Riemann-Roch: ``deg_Y + 1 - g_Y`` with ``2 g_Y - 2 = omega_Y - l_Y``."""
    return deg - (om - ell) // 2


def slope_check_h0(
    curve: CurveModel,
    pol: Polarization,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> StabilityVerdict:
    scan = _check(curve, pol, "h0", connected_only, cap)
    return _verdict(scan.witnesses, scan.inv.subcurve)


def _h0_rows(rows: list, windows: _Windows):
    """The section-count witnesses of ``_outside``'s rows, inside the
    degree guard (so ``h0_Y > 0``), as ``(mask, (value, None, bound,
    "upper", kind))``: at each row whose room is not positive, its slope
    ``lhs_Y / (2 D h0_Y)`` against the whole curve's.  Each distinct tail
    is built once, keyed by the slope's reduced pair of integers: the
    room is 0 exactly where the two slopes are equal (``_Windows``), so
    the slope decides the kind."""
    if not rows:  # the whole curve's slope may be undefined on one component
        return
    denom, bound = windows.denom, Fraction(windows.k, 2 * windows.denom * windows.h0_all)
    tails = {}
    for mask, om, a, deg, ell, lower, _ in rows:
        if (room := windows.scale * deg - lower) <= 0:
            n, d = denom * (2 * deg + ell) + a, 2 * denom * _sections(om, deg, ell)
            g = gcd(n, d)
            tail = tails.get(key := (n // g, d // g))
            if tail is None:
                tail = tails[key] = (Fraction(*key), None, bound, "upper", "attained" if room == 0 else "violated")
            yield mask, tail


# ---------------------------------------------------------------------------
# side-by-side comparison


def _status_from_states(states: Iterable[str]) -> str:
    worst = STABLE
    for s in states:
        if s in ("violated", "undefined"):
            return UNSTABLE
        if s == "attained":
            worst = STRICTLY_SEMISTABLE
    return worst


def _verdict(rows: list, subcurve) -> StabilityVerdict:
    """The verdict on witness rows ``(mask, (value, lower, upper, side,
    kind))``, a ``Witness`` at each; ``subcurve`` maps a mask to its
    subcurve."""
    if not rows:
        return StabilityVerdict(STABLE)
    witnesses = tuple(Witness(subcurve(mask), *tail) for mask, tail in rows)
    return StabilityVerdict(_status_from_states(w.kind for w in witnesses), witnesses)


# The fields of a comparison row's tail (``_comparison_rows``), in the order ``check`` writes them.
_COMPARED = ("interval_state", "h0_state", "interval_margins", "h0_margin")


def _comparison_rows(steps: Iterable, windows: _Windows):
    """The comparison at each of ``steps``, a walk's ``(mask, omega_Y,
    denom * w_Y, degree_Y, l_Y)``, as ``(mask, (interval_state, h0_state,
    (lower margin, upper margin), h0_margin))``, the fields ``_COMPARED``
    in the order ``check`` writes them: both states the sign of the room
    above the lower bound, unless a section count is nonpositive (then
    "undefined" on the section-count side and no margin), the two window
    margins, and the section-count margin ``room / (4 D^2 h0_all h0_Y)``
    (``_Windows``).  Each distinct tail is built once, keyed by the room,
    the room below the upper bound and the defined ``h0_Y`` (None where a
    section count is nonpositive), and each distinct window margin in it
    once (``_Fractions``)."""
    scale, h0_all, margins, tails = windows.scale, windows.h0_all, _Fractions(windows.scale), {}
    for mask, om, a, deg, ell in steps:
        lower, upper = windows.bounds(om, a, ell)
        room, gap, h0_sub = scale * deg - lower, upper - scale * deg, _sections(om, deg, ell)
        tail = tails.get(key := (room, gap, h0_sub if h0_all > 0 and h0_sub > 0 else None))
        if tail is None:
            state = "strict" if room > 0 else "attained" if room == 0 else "violated"
            tail = tails[key] = (state, state if key[2] else "undefined", (margins[room], margins[gap]),
                                 Fraction(room, 4 * windows.denom ** 2 * h0_all * h0_sub) if key[2] else None)
        yield mask, tail


def equivalence_report(
    curve: CurveModel,
    pol: Polarization,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> EquivalenceReport:
    """Run both criteria on every proper subcurve and flag disagreements.

    The per-subcurve correspondence pairs the section-count inequality at
    a subcurve with the *lower* extremes bound there (the upper bound is
    the complement's lower bound): both states are read off the room above
    the lower bound (``_comparison_rows``), so the two columns disagree
    exactly where a section count is nonpositive ("undefined").  That only
    happens below the degree guard; the comparison is still emitted there,
    but the report is flagged as out of regime.
    """
    inv = _Invariants(curve, pol)
    windows = _interval_windows(inv, pol.total)
    regime = "ok" if _in_regime(inv, pol) else "below large-degree regime"
    rows = _comparison_rows(inv.walk(pol.degrees, connected_only, cap), windows)
    entries = [SubcurveComparison(inv.subcurve(mask), **dict(zip(_COMPARED, tail))) for mask, tail in rows]
    return EquivalenceReport(
        _status_from_states(e.interval_state for e in entries), _status_from_states(e.h0_state for e in entries),
        regime, tuple(e for e in entries if e.interval_state != e.h0_state), tuple(entries))


@dataclass
class _Check:
    """One ``check`` scan (``_check``): the curve's table, the criterion's
    witness rows ``(mask, (value, lower, upper, side, kind))`` and, for
    "both", the section-count rows (None below the degree guard, unless
    there is one component) and status, the regime and the disagreements:
    below the guard a stream of ``_comparison_rows`` rows, drawn from a
    second pass as the report is written, otherwise none."""

    inv: _Invariants
    witnesses: list
    h0: Optional[list] = None
    h0_status: Optional[str] = None
    regime: Optional[str] = None
    disagreements: Iterable = ()

    @property
    def status(self) -> str:
        return _status_from_states(tail[4] for _, tail in self.witnesses)


def _check(curve: CurveModel, pol: Polarization, criterion: str, connected_only: bool = False,
           cap: int = ENUMERATION_CAP, block: Optional[int] = None) -> _Check:
    """The scan behind ``slope_check_interval`` ("interval"),
    ``slope_check_h0`` ("h0") and ``check --criterion both`` ("both"),
    from ``_outside``'s rows.  Every check runs before any row is built,
    in this order: the polarization (the table); for "h0" an empty curve,
    one component (Stable: no proper subcurve) and the degree guard, for
    the others a positive weighted dualizing total; then the cap (the
    walk).  "both" gives the interval verdict, and the section-count one
    inside the degree guard or on one component; otherwise
    ``equivalence_report``'s section-count status, and always its regime
    and disagreements.

    For "both", the disagreements are the subcurves with a nonpositive
    section count (``_comparison_rows``); inside the guard there is none.
    Write ``i_Y`` for the nodes internal to ``Y`` and ``l_c`` for the
    linking nodes of a component ``c``, so that the ``l_c`` over ``c`` in
    ``Y`` sum to ``2 i_Y + l_Y``.  Then ``h0_Y = sum over c in Y of (deg_c
    + 1 - g_c), minus i_Y``, and the guard ``deg_c >= 2 g_c + l_c + 1``
    gives ``h0_Y >= sum of g_c + i_Y + l_Y + 2 |Y| > 0``; so too for the
    whole curve.  Below the guard a second pass tests only the section
    counts: Unstable if one is nonpositive, otherwise the status of the
    lower-side rows.  As ``2 h0_Y = (sum over c in Y of (2 deg_c -
    omega_c)) + l_Y``, it is a packed scan with those weights and ``lam =
    1`` (``_packed``, lower side only), unless ``h0_all <= 0``, where
    every subcurve disagrees and the walk lists them.  Its first
    disagreement is drawn here, to set that status before any output, and
    chained back in front of the rest."""
    inv = _Invariants(curve, pol)
    if criterion == "h0" and not inv.ids:
        raise ValueError("curve has no components")
    if criterion == "h0" and len(inv.ids) > 1 and not _in_regime(inv, pol):  # one component: no row, Stable
        raise ValueError("degree too small for h0 formula")
    windows = _Windows(inv, pol.total) if criterion == "h0" else _interval_windows(inv, pol.total)
    rows = _outside(inv, windows, pol.degrees, inv.walk(pol.degrees, connected_only, cap), connected_only, block=block)
    witnesses = list((_h0_rows if criterion == "h0" else _interval_rows)(rows, windows)) if rows else []
    if criterion != "both":
        return _Check(inv, witnesses)
    regime = "ok" if _in_regime(inv, pol) else "below large-degree regime"
    if regime == "ok" or len(inv.ids) == 1:  # one component: no rows
        h0 = list(_h0_rows(rows, windows))
        return _Check(inv, witnesses, h0, _status_from_states(tail[4] for _, tail in h0), regime)
    if windows.h0_all <= 0:  # every subcurve's section-count margin is undefined
        steps = inv.walk(pol.degrees, connected_only, cap)
    else:
        steps = _packed(inv, pol.degrees, [2 * pol.degrees[c] - inv.omegas[c] for c in inv.ids], 1, False,
                        connected_only, block)
    disagreements = _comparison_rows(steps, windows)
    first = next(disagreements, None)
    lower_side = _status_from_states(tail[4] for _, tail in witnesses if tail[3] == "lower")
    return _Check(inv, witnesses, None, lower_side if first is None else UNSTABLE, regime,
                  () if first is None else itertools.chain((first,), disagreements))


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
    inv = _Invariants(curve)
    g = inv.genus(inv.full)
    chi = g - 1 + inv.total_weight
    if chi <= 0:
        raise ValueError("total weighted degree non-positive")
    n = len(curve.marks)
    c_min = min([Fraction(1, 2)] + [m.weight / 2 for m in curve.marks if m.weight > 0])
    c_prime = 1 / (4 * chi)
    c_second = min(c_min / chi, Fraction(1, 2) / chi)
    c = min(c_prime, c_second)
    m_prime = 4 * chi * (6 + Fraction(n, 2))
    m_second = max(6 * g + Fraction(n, 2) - 6, chi * (2 + n) / (2 * c_min))
    m = max(m_prime, m_second)
    return DegreeBoundConstants(c=c, m=m, c_min=c_min)


def is_line_exception(curve: CurveModel, pol: Polarization, sub: Subcurve) -> bool:
    """The semistable exemption: an unmarked degree-one subcurve with two
    linking nodes. The empty subcurve is simply not one; unknown ids are an
    error."""
    inv = _Invariants(curve, pol)
    if sub:
        _check_subcurve(curve, sub)
    return pol.deg(sub) == 1 and not any(c in sub for c in inv.homes.values()) and inv.linking(sub) == 2


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
