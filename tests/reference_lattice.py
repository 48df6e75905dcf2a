"""A brute-force roof and the per-column ``Fraction`` lattice counter that
back the package's integer roof (``newton._roof``), its areas and its
floor-sum counter behind ``newton.lattice_count_oracle`` in the
differential tests.

Nothing here reads the package's envelope: the roof height at an
abscissa is the least height that a point of the set to its left, or a
chord between two points that straddle it, reaches there.  Between two
consecutive point abscissas (or the last one and the width) the roof is
linear, so each column interpolates between the heights at those
breakpoints.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from curvestab.newton import GammaSet


def envelope_height(points, x) -> Fraction:
    """Height at ``x`` of the lower-left convex envelope of ``points`` plus
    the nonnegative quadrant, by brute force over points and chords."""
    pts = set(points)
    heights = [Fraction(y) for px, y in pts if px <= x]
    heights += [y0 + Fraction(y1 - y0, x1 - x0) * (x - x0)
                for x0, y0 in pts for x1, y1 in pts if x0 <= x <= x1 and x0 < x1]
    if not heights:
        raise ValueError("unbounded polygon: no point on the weight axis")
    return min(heights)


def breakpoints(gamma: GammaSet) -> list[tuple[Fraction, Fraction]]:
    """``(x, height)`` at every point abscissa inside the strip and at its
    width, left to right."""
    xs = sorted({x for x, _ in gamma.points if x < gamma.width} | {0, gamma.width})
    return [(Fraction(x), envelope_height(gamma.points, x)) for x in xs]


def height(corners: list[tuple[Fraction, Fraction]], x) -> Fraction:
    """The roof at ``x``, linear between consecutive ``breakpoints``."""
    for (x0, y0), (x1, y1) in zip(corners, corners[1:]):
        if x0 <= x <= x1:
            return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    raise ValueError(f"abscissa {x} outside the roof range")


def lattice_count_oracle(gamma: GammaSet, k: int) -> int:
    """Count lattice points in the ``k``-dilate of the closed polygon.

    Column by column; boundary points count.  This is the independent
    check on areas: the second difference of the count in ``k`` is twice
    the polygon area once the dilates have settled.
    """
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    corners = breakpoints(gamma)
    if corners[0][1] == 0:
        return 0  # empty region; every dilate is empty
    if k == 0:
        return 1  # the 0-dilate of a nonempty region is the origin
    x_right = next((x for x, y in corners if y == 0), corners[-1][0])
    xmax = k * x_right
    if xmax != int(xmax):
        raise ValueError("dilate of a non-lattice clip; counts would not be polynomial")
    count = 0
    for x in range(int(xmax) + 1):
        count += floor(k * height(corners, Fraction(x, k))) + 1
    return count
