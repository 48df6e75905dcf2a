"""Exact Newton polygons over the integer lattice.

The central object is the region of the strip ``[0, w] x [0, oo)`` lying
below the lower-left convex envelope of a finite point set
``G + R^2_{>=0}`` with ``G`` in the nonnegative integer lattice.  Points
pair a vanishing order (abscissa) with a one-parameter-subgroup weight
(ordinate); twice the polygon area is the local Hilbert-Samuel
multiplicity contributed by the point that ``G`` describes.

Three independent routes to the same numbers are kept deliberately
separate so they can check each other:

* the polygon area, by the shoelace formula on the envelope vertices;
* the lattice-point counter, which counts integer points column by column
  in dilates of the closed polygon (the quadratic coefficient of that
  count is twice the area);
* per-point multiplicities assembled from vanishing-order profiles.

Everything is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Sequence


@dataclass(frozen=True)
class GammaSet:
    """Finite set of lattice points plus the strip width of the polygon."""

    points: tuple[tuple[int, int], ...]
    width: int

    def __post_init__(self):
        pts = tuple(sorted({(int(x), int(y)) for x, y in self.points}))
        for x, y in pts:
            if x < 0 or y < 0:
                raise ValueError(f"lattice point ({x},{y}) outside the first quadrant")
        w = int(self.width)
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
        object.__setattr__(self, "vanish", tuple(int(v) for v in self.vanish))
        object.__setattr__(self, "marks", tuple(self.marks))

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


def _roof_segments(points, width) -> list[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]:
    """Piecewise-linear upper boundary of the polygon over ``[0, width]``.

    Raises if no point sits on the weight axis, in which case the region
    is unbounded and has no polygon.
    """
    chain = _envelope_chain(points)
    if chain[0][0] > 0:
        raise ValueError("unbounded polygon: no point on the weight axis")
    segs: list[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]] = []
    w = Fraction(width)
    prev = (Fraction(chain[0][0]), Fraction(chain[0][1]))
    for x, y in chain[1:]:
        cur = (Fraction(x), Fraction(y))
        if prev[0] >= w:
            break
        if cur[0] > w:  # clip inside this slope
            t = (w - prev[0]) / (cur[0] - prev[0])
            cut = (w, prev[1] + t * (cur[1] - prev[1]))
            segs.append((prev, cut))
            prev = cut
            break
        segs.append((prev, cur))
        prev = cur
    if prev[0] < w:
        segs.append((prev, (w, prev[1])))
    if not segs:  # width collapses onto the single chain point
        segs.append((prev, prev))
    return segs


def _roof_value(segs, x: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in segs:
        if x0 <= x <= x1:
            if x1 == x0:
                return y0
            return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    raise ValueError(f"abscissa {x} outside the roof range")


def _roof_area(segs, lo: Fraction, hi: Fraction) -> Fraction:
    """Exact integral of the roof over ``[lo, hi]``."""
    total = Fraction(0)
    for (x0, y0), (x1, y1) in segs:
        a, b = max(x0, lo), min(x1, hi)
        if a >= b:
            continue
        mid = (a + b) / 2  # a trapezoid's area is its width times its height at mid-width
        total += (b - a) * (y0 + (mid - x0) * (y1 - y0) / (x1 - x0))
    return total


def polygon_from_points(gamma: GammaSet) -> NewtonPolygon:
    """Close off the strip region under the envelope of the point set.

    Vertices run counterclockwise starting at the origin; a point set
    containing the origin gives the empty polygon.
    """
    if not gamma.points:
        raise ValueError("empty gamma")
    segs = _roof_segments(gamma.points, gamma.width)
    if segs[0][0][1] == 0:  # roof starts at height zero: nothing below it
        return NewtonPolygon(vertices=(), area=Fraction(0))
    # right edge of the area-carrying part
    ylast = segs[-1][1][1]
    if ylast > 0:
        x_right = segs[-1][1][0]
    else:
        x_right = next(p1[0] for (p0, p1) in segs if p1[1] == 0)
    verts: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
    if x_right > 0:
        verts.append((x_right, Fraction(0)))
    roof_pts: list[tuple[Fraction, Fraction]] = [segs[0][0]]
    for _, p1 in segs:
        if p1[0] <= x_right and p1 != roof_pts[-1]:
            roof_pts.append(p1)
    for p in reversed(roof_pts):
        if p not in verts:
            verts.append(p)
    area = polygon_area_of_vertices(verts)
    return NewtonPolygon(vertices=tuple(verts), area=area)


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


def lattice_count_oracle(gamma: GammaSet, k: int) -> int:
    """Count lattice points in the ``k``-dilate of the closed polygon.

    Column by column; boundary points count.  This is the independent
    check on areas: the second difference of the count in ``k`` is twice
    the polygon area once the dilates have settled.
    """
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    segs = _roof_segments(gamma.points, gamma.width)
    if segs[0][0][1] == 0:
        return 0  # empty region; every dilate is empty
    if k == 0:
        return 1  # the 0-dilate of a nonempty region is the origin
    ylast = segs[-1][1][1]
    if ylast > 0:
        x_right = segs[-1][1][0]
    else:
        x_right = next(p1[0] for (p0, p1) in segs if p1[1] == 0)
    xmax = k * x_right
    if xmax != int(xmax):
        raise ValueError("dilate of a non-lattice clip; counts would not be polynomial")
    count = 0
    for x in range(int(xmax) + 1):
        ymax = k * _roof_value(segs, Fraction(x, k))
        count += floor(ymax) + 1
    return count


# ---------------------------------------------------------------------------
# per-point multiplicities from profiles


def _check_rho(rho: Sequence[int]) -> tuple[int, ...]:
    rho = tuple(int(v) for v in rho)
    if not rho:
        raise ValueError("empty weight vector")
    if any(rho[i] < rho[i + 1] for i in range(len(rho) - 1)):
        raise ValueError("rho not sorted: weights must be non-increasing")
    if rho[-1] != 0:
        raise ValueError("rho not normalized: last weight must be 0")
    return rho


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
    segs = _roof_segments(tuple(pts), width)
    return _roof_area(segs, Fraction(lo), Fraction(hi))


def point_multiplicity(profile: PointProfile, rho: Sequence[int], hbar_alpha: int) -> Fraction:
    """Local multiplicity ``2 * |polygon|`` carried by one point.

    Decomposes as the reduced-polygon part plus the rectangle
    ``2 * rho[hbar] * width`` under it.
    """
    rho = _check_rho(rho)
    if not profile.vanish:
        raise ValueError("vanish list empty")
    if hbar_alpha < 0 or hbar_alpha >= len(rho):
        raise ValueError(f"top index {hbar_alpha} out of range")
    if len(profile.vanish) != hbar_alpha + 1:
        raise ValueError(
            f"profile {profile.id!r}: vanish list must end at the component top index "
            f"({len(profile.vanish)} entries, expected {hbar_alpha + 1})")
    if any(v < 0 for v in profile.vanish):
        raise ValueError(f"profile {profile.id!r}: negative vanishing order")
    width = profile.vanish[-1]
    area = _capped_area(profile.vanish, rho, hbar_alpha, 0, width)
    return 2 * area + 2 * rho[hbar_alpha] * width


def reduced_clipped_area(
    profile: PointProfile, rho: Sequence[int], hbar_alpha: int,
    x_lo: int, x_hi: int,
) -> Fraction:
    """Exact area of the reduced polygon between two abscissas.

    This is the polygon area over ``[x_lo, x_hi]`` minus the rectangle of
    height ``rho[hbar]``, the quantity the trapezoid estimates bound.
    """
    return _capped_area(profile.vanish, _check_rho(rho), hbar_alpha, x_lo, x_hi)


def total_multiplicity(datum) -> Fraction:
    """Sum of the per-point multiplicities of all profiles of a
    one-parameter-subgroup datum (order independent).

    A multiplicity and its checks depend only on the profile's top index
    and vanish list, so each distinct pair is measured once, through its
    first profile, which is also the one an error names.
    """
    rho = _check_rho(datum.rho)
    measured: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    total = Fraction(0)
    for p in datum.profiles:
        if p.component not in datum.hbar:
            raise ValueError(f"profile {p.id!r} on component {p.component!r} without top index")
        key = (datum.hbar[p.component], p.vanish)
        if key not in measured:
            measured[key] = point_multiplicity(p, rho, key[0])
        total += measured[key]
    return total
