"""Exact Newton polygons over the integer lattice.

The central object is the region of the strip ``[0, w] x [0, oo)`` lying
below the lower-left convex envelope of a finite point set
``G + R^2_{>=0}`` with ``G`` in the nonnegative integer lattice.  Points
pair a vanishing order (abscissa) with a one-parameter-subgroup weight
(ordinate); twice the polygon area is the local Hilbert-Samuel
multiplicity contributed by the point that ``G`` describes.

The roof of the polygon is kept as integer line pieces
(``_roof``): each is the height ``(a*x + b) / den`` over an interval
with integer ends, where ``a / den`` is an envelope edge's slope, and
only a piece capped at the strip edge ends at a rational height.  Three
routes to the same numbers read that one roof and check each other:

* the polygon area, by the shoelace formula on the envelope vertices;
* the capped areas (``_roof_area``), one exact trapezoid per piece,
  behind the per-point multiplicities assembled from vanishing-order
  profiles;
* the lattice-point counter, which counts the integer points in dilates
  of the closed polygon by one floor sum per roof piece (the quadratic
  coefficient of that count is twice the area).

The tests check the roof itself against a brute-force envelope.
Everything is exact: the roof is integers, and a ``Fraction`` is built
only for a reported vertex or area.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import ge
from typing import Optional, Sequence

from .curve import _integer, _integers


@dataclass(frozen=True)
class GammaSet:
    """Finite set of lattice points plus the strip width of the polygon."""

    points: tuple[tuple[int, int], ...]
    width: int

    def __post_init__(self):
        pairs = [(x, y) for x, y in self.points]
        _integers([c for pair in pairs for c in pair], "lattice point coordinate")
        pts = tuple(sorted(set(pairs)))
        for x, y in pts:
            if x < 0 or y < 0:
                raise ValueError(f"lattice point ({x},{y}) outside the first quadrant")
        w = _integer(self.width, "width")
        if w < 1:
            raise ValueError(f"width {w} < 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "width", w)


@dataclass(frozen=True)
class NewtonPolygon:
    """Vertices counterclockwise from the origin, with the exact area."""

    vertices: tuple[tuple[Fraction, Fraction], ...]
    area: Fraction


@dataclass(frozen=True)
class PointProfile:
    """Vanishing-order data of the sections at one point of the
    normalization.

    ``vanish[i]`` is the vanishing order of the ``i``-th section for
    ``i`` up to the component's top nonvanishing index; sections beyond
    that index vanish identically at the point and are simply absent.
    ``kind`` is ``"smooth"`` or ``"node-branch:<label>"``; ``marks`` lists
    the ids of marked points sitting at this point.
    """

    id: str
    component: str
    kind: str = "smooth"
    vanish: tuple[int, ...] = ()
    marks: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vanish", _integers(tuple(self.vanish), "vanishing order"))
        object.__setattr__(self, "marks", tuple(self.marks))

    @classmethod
    def _exact(cls, id: str, component: str, kind: str, vanish: tuple[int, ...],
               marks: tuple[str, ...] = ()) -> "PointProfile":
        """A profile whose ``vanish`` is already a tuple of exact ints and
        ``marks`` a tuple, both kept as they are.  Profiles built here can
        share one vanish tuple, which the per-list passes (``_shapes``)
        then match by id, without hashing it again; the public constructor
        copies and coerces instead, and equal copies are matched by value."""
        self = object.__new__(cls)
        self.__dict__.update(id=id, component=component, kind=kind, vanish=vanish, marks=marks)
        return self

    @property
    def is_special(self) -> bool:
        return self.kind.startswith("node-branch") or bool(self.marks)

    @property
    def width(self) -> int:
        return self.vanish[-1]


# ---------------------------------------------------------------------------
# envelope geometry


def _reduced(points) -> list[tuple[int, int]]:
    best: dict[int, int] = {}
    for x, y in points:
        if x not in best or y < best[x]:
            best[x] = y
    return sorted(best.items())


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _envelope_chain(points) -> list[tuple[int, int]]:
    """Vertices of the lower-left convex envelope, left to right, ending at
    the first vertex that attains the minimal ordinate."""
    pts = _reduced(points)
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    ymin = min(y for _, y in pts)
    for idx, (_, y) in enumerate(hull):
        if y == ymin:
            return hull[: idx + 1]
    return hull


def _roof(points, width) -> list[tuple[int, int, int, int, int]]:
    """The polygon's roof over ``[0, width]`` as integer pieces
    ``(x0, x1, a, b, den)``, each the height ``(a*x + b) / den`` on
    ``[x0, x1]``: one per envelope edge that starts left of the width,
    capped there, then a flat piece at the minimal ordinate when the
    envelope ends before the width.

    Raises on no points, and if no point sits on the weight axis, in which
    case the region is unbounded and has no polygon.
    """
    if not points:
        raise ValueError("empty gamma")
    chain = _envelope_chain(points)
    if chain[0][0] > 0:
        raise ValueError("unbounded polygon: no point on the weight axis")
    pieces = []
    for (x0, y0), (x1, y1) in zip(chain, chain[1:]):
        if x0 >= width:
            break
        a, den = y1 - y0, x1 - x0
        pieces.append((x0, min(x1, width), a, y0 * den - a * x0, den))
    end, y_min = chain[-1]
    if end < width:
        pieces.append((end, width, 0, y_min, 1))
    return pieces


def _right_edge(pieces):
    """Abscissa where the area-carrying part of the polygon ends: the first
    piece end at height zero, or the strip edge."""
    return next((x1 for _, x1, a, b, _ in pieces if a * x1 + b == 0), pieces[-1][1])


def _roof_area(pieces, s: int, t: int) -> Fraction:
    """Exact integral of the roof over ``[s, t]``."""
    total = Fraction(0)
    for x0, x1, a, b, den in pieces:
        lo, hi = max(x0, s), min(x1, t)
        if lo < hi:
            total += Fraction(a * (hi * hi - lo * lo) + 2 * b * (hi - lo), 2 * den)
    return total


def polygon_from_points(gamma: GammaSet) -> NewtonPolygon:
    """Close off the strip region under the envelope of the point set.

    Vertices run counterclockwise starting at the origin; a point set
    containing the origin gives the empty polygon.
    """
    pieces = _roof(gamma.points, gamma.width)
    if pieces[0][3] == 0:  # roof starts at height zero: nothing below it
        return NewtonPolygon(vertices=(), area=Fraction(0))
    x_right = _right_edge(pieces)
    roof = [(0, pieces[0][3], pieces[0][4])] + [
        (x1, a * x1 + b, den) for _, x1, a, b, den in pieces if x1 <= x_right]
    verts = [(Fraction(0), Fraction(0)), (Fraction(x_right), Fraction(0))]
    verts += [(Fraction(x), Fraction(y, den)) for x, y, den in reversed(roof) if y]
    return NewtonPolygon(vertices=tuple(verts), area=polygon_area_of_vertices(verts))


def polygon_area_of_vertices(vertices: Sequence[tuple[Fraction, Fraction]]) -> Fraction:
    if len(vertices) < 3:
        return Fraction(0)
    twice = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        twice += x0 * y1 - x1 * y0
    return abs(twice) / 2


def polygon_area(polygon: NewtonPolygon) -> Fraction:
    """Shoelace area of the stored vertex cycle."""
    return polygon_area_of_vertices(polygon.vertices)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum(floor((a*i + b) / m) for i in range(n))`` for ``n >= 0`` and
    ``m >= 1``, ``a`` and ``b`` of either sign, in O(log m) steps.

    Euclid-like: once ``0 <= a, b < m``, the sum counts the lattice points
    under the line ``y = (a*x + b) / m``, and counting them by rows
    instead of columns swaps the roles of ``a`` and ``m``.
    """
    total = 0
    while True:
        q, a = divmod(a, m)  # floored, so a negative a or b lands in [0, m) too
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _lattice_counts(gamma: GammaSet, ks: Sequence[int]) -> list[int]:
    """``lattice_count_oracle(gamma, k)`` for each ``k`` in ``ks``, from
    one roof.

    Over the columns of a roof piece ``(x0, x1, a, b, den)``, up to
    ``k*x1``, the ``k``-dilate's roof is ``(a*x + k*b) / den``, so the
    piece's run of columns holds one floor sum (``_floor_sum``) plus one
    point per column.  A polygon clipped at a rational height is counted
    like any other; only a width that is not an integer, which
    ``GammaSet`` never holds, can leave a dilate without a lattice right
    edge, and that raises.
    """
    if any(k < 0 for k in ks):
        raise ValueError("dilation factor must be nonnegative")
    pieces = _roof(gamma.points, gamma.width)
    if pieces[0][3] == 0:
        return [0] * len(ks)  # empty region; every dilate is empty
    x_right = _right_edge(pieces)
    pieces = [piece for piece in pieces if piece[0] < x_right]
    counts = []
    for k in ks:
        if (k * x_right) % 1:
            raise ValueError("dilate of a non-lattice clip; counts would not be polynomial")
        count = nxt = 0  # nxt: the first column not yet counted
        for _, x1, a, b, den in pieces:
            n = int(k * x1) + 1 - nxt  # whole: x1 is an integer or x_right
            count += _floor_sum(n, den, a, a * nxt + k * b) + n
            nxt += n
        counts.append(count)
    return counts


def lattice_count_oracle(gamma: GammaSet, k: int) -> int:
    """Count lattice points in the ``k``-dilate of the closed polygon.

    Boundary points count; the 0-dilate of a nonempty region is the
    origin.  On each roof piece the dilate's columns are summed in
    closed form (``_lattice_counts``), and the per-column ``Fraction``
    counter the tests keep as a reference backs it.  This is the
    independent check on areas: the second difference of the count in
    ``k`` is twice the polygon area once the dilates have settled.
    """
    return _lattice_counts(gamma, (k,))[0]


# ---------------------------------------------------------------------------
# per-point multiplicities from profiles


def _check_rho(rho: Sequence[int]) -> tuple[int, ...]:
    rho = _integers(tuple(rho), "rho entry")
    if not rho:
        raise ValueError("empty weight vector")
    if not all(map(ge, rho, rho[1:])):
        raise ValueError("rho not sorted: weights must be non-increasing")
    if rho[-1] != 0:
        raise ValueError("rho not normalized: last weight must be 0")
    return rho


def _check_profile(profile: PointProfile, rho: tuple[int, ...], hbar_alpha: int) -> None:
    """Check that the vanish list is nonempty, nonnegative and ends at the
    top index of the checked weights ``rho``."""
    if not profile.vanish:
        raise ValueError("vanish list empty")
    if hbar_alpha < 0 or hbar_alpha >= len(rho):
        raise ValueError(f"top index {hbar_alpha} out of range")
    if len(profile.vanish) != hbar_alpha + 1:
        raise ValueError(
            f"profile {profile.id!r}: vanish list must end at the component top index "
            f"({len(profile.vanish)} entries, expected {hbar_alpha + 1})")
    if min(profile.vanish) < 0:
        raise ValueError(f"profile {profile.id!r}: negative vanishing order")


def _capped_area(vanish: tuple[int, ...], rho: tuple[int, ...], hbar_alpha: int,
                 lo: int, hi: int) -> Fraction:
    """Area of the reduced polygon (weights shifted so the component's top
    weight is zero) over ``[lo, hi]``.

    When every section vanishes at the point (no zero abscissa), the
    region is capped on the weight axis at the largest shifted weight;
    this makes the synthetic all-constant profiles contribute exactly
    their rectangle term and is invisible on genuine base-point-free data.
    """
    rho_h = rho[hbar_alpha]
    rel = tuple(rho[i] - rho_h for i in range(hbar_alpha + 1))
    width = vanish[-1]
    if width == 0:
        return Fraction(0)
    pts = {(vanish[i], rel[i]) for i in range(len(vanish))}
    top = max(y for _, y in pts)
    if top == 0:
        return Fraction(0)
    if all(x > 0 for x, _ in pts):
        pts.add((0, top))
    return _roof_area(_roof(pts, width), lo, hi)


def _multiplicity(profile: PointProfile, rho: tuple[int, ...], hbar_alpha: int) -> Fraction:
    """``point_multiplicity`` for weights already checked."""
    _check_profile(profile, rho, hbar_alpha)
    width = profile.vanish[-1]
    return 2 * _capped_area(profile.vanish, rho, hbar_alpha, 0, width) + 2 * rho[hbar_alpha] * width


def point_multiplicity(profile: PointProfile, rho: Sequence[int], hbar_alpha: int) -> Fraction:
    """Local multiplicity ``2 * |polygon|`` carried by one point.

    Decomposes as the reduced-polygon part plus the rectangle
    ``2 * rho[hbar] * width`` under it.
    """
    return _multiplicity(profile, _check_rho(rho), hbar_alpha)


def reduced_clipped_area(
    profile: PointProfile, rho: Sequence[int], hbar_alpha: int,
    x_lo: int, x_hi: int,
) -> Fraction:
    """Exact area of the reduced polygon between two abscissas.

    This is the polygon area over ``[x_lo, x_hi]`` minus the rectangle of
    height ``rho[hbar]``, the quantity the trapezoid estimates bound.
    """
    rho = _check_rho(rho)
    _check_profile(profile, rho, hbar_alpha)
    return _capped_area(profile.vanish, rho, hbar_alpha, x_lo, x_hi)


def _shapes(profiles) -> tuple[list[PointProfile], list[int]]:
    """The first profile of each distinct vanish list, in order of first
    appearance, and each profile's index into them.

    This is the one place that decides which profiles share a vanish
    list: every pass that works once per list reads it, through the
    datum's ``OnePSDatum._shape_index``, which runs it once per datum.
    A tuple object seen before is matched by id, any other tuple by
    value, so a list that many profiles share is hashed once, not once
    per profile.
    """
    shapes: list[PointProfile] = []
    by_value: dict[tuple[int, ...], int] = {}
    by_object: dict[int, int] = {}  # ``profiles`` keeps every tuple alive, so ids stay unique
    which = []
    for p in profiles:
        n = by_object.get(id(p.vanish))
        if n is None:
            n = by_object[id(p.vanish)] = by_value.setdefault(p.vanish, len(shapes))
            if n == len(shapes):
                shapes.append(p)
        which.append(n)
    return shapes, which


def total_multiplicity(datum) -> Fraction:
    """Sum of the per-point multiplicities of all profiles of a
    one-parameter-subgroup datum (order independent).

    A multiplicity and its checks depend only on the profile's top index
    and vanish list, and a list passes the checks only at the top index
    one below its length.  So each distinct list is measured once, through
    its first profile, and counts once per profile that carries it.  A
    later profile whose top index does not fit the list is measured too,
    which raises, so the error is always the first offending profile's.
    """
    return _total_multiplicity(datum, _check_rho(datum.rho))


def _total_multiplicity(datum, rho: tuple[int, ...]) -> Fraction:
    """``total_multiplicity`` for weights ``rho`` already checked."""
    shapes, which = datum._shape_index
    values: list[Optional[Fraction]] = [None] * len(shapes)
    for p, n in zip(datum.profiles, which):
        if p.component not in datum.hbar:
            raise ValueError(f"profile {p.id!r} on component {p.component!r} without top index")
        h = datum.hbar[p.component]
        if values[n] is None or len(p.vanish) != h + 1:
            values[n] = _multiplicity(p, rho, h)
    return sum((k * values[n] for n, k in Counter(which).items()), Fraction(0))
