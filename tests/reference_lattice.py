"""The per-column ``Fraction`` lattice counter that backs the floor-sum
counter behind ``newton.lattice_count_oracle`` (one floor sum per roof
segment, ``newton._lattice_counts``) in the differential tests.

Every column looks its roof height up by a linear scan over the segments
and evaluates it in exact rationals.  Only the roof construction comes
from the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from curvestab.newton import GammaSet, _roof_segments


def _roof_value(segs, x: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in segs:
        if x0 <= x <= x1:
            if x1 == x0:
                return y0
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
