"""Degree class groups and polarization twisting.

The linking matrix of a nodal curve has one row per component: off the
diagonal it counts the nodes joining two components, on the diagonal it
carries minus the component's total linking-node count.  Its rows span a
sublattice of the integer degree vectors; the quotient is the degree
class group, computed here through an integer normal form.

Twisting moves a degree vector inside its class until it satisfies every
extremes-interval constraint ("balanced" vectors).  The search enumerates
the lattice points of the per-component extremes box with the total
degree pinned, so it is exhaustive on the region where balanced vectors
can live.  Each point is tested for class membership first, against the
normal form, and then by the sign of its least window room, read off one
maximum flow (``_Invariants.cut_sign``; Picard and Queyranne, 1980), so
it costs no subcurve walk.  A hit comes with the integer combination of
matrix rows that produces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .curve import ENUMERATION_CAP, CurveModel, _Invariants
from .slope import _Windows


@dataclass(frozen=True)
class LinkingMatrix:
    ids: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DegreeClassGroup:
    invariant_factors: tuple[int, ...]


@dataclass(frozen=True)
class BalanceReport:
    ok: bool
    failures: tuple[tuple, ...] = ()  # ("negative", cid) or ("interval", subcurve, value, lo, hi)


@dataclass(frozen=True)
class TwistResult:
    vector: dict[str, int]
    coefficients: dict[str, int]


def linking_matrix(curve: CurveModel) -> LinkingMatrix:
    """Symmetric integer matrix of pairwise linking-node counts with
    zero row sums.  Self-nodes never appear (they are genus by the time a
    curve is built)."""
    ids = curve.component_ids
    index = {cid: i for i, cid in enumerate(ids)}
    r = len(ids)
    m = [[0] * r for _ in range(r)]
    for a, b in curve.nodes:
        i, j = index[a], index[b]
        m[i][j] += 1
        m[j][i] += 1
        m[i][i] -= 1
        m[j][j] -= 1
    return LinkingMatrix(ids=ids, rows=tuple(tuple(row) for row in m))


# ---------------------------------------------------------------------------
# integer normal form


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row and column moves.

    Returns ``(d, u, v)`` with ``u @ matrix @ v == d`` diagonal, the
    diagonal entries nonnegative and each dividing the next.
    """
    m = [list(map(int, row)) for row in matrix]
    n_r = len(m)
    n_c = len(m[0]) if n_r else 0
    u = _identity(n_r)
    v = _identity(n_c)

    def row_op(i, j, q):  # row_i -= q * row_j
        for k in range(n_c):
            m[i][k] -= q * m[j][k]
        for k in range(n_r):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n_r, n_c):
        # pivot: nonzero entry of least magnitude in the trailing block
        pivot = None
        for i in range(t, n_r):
            for j in range(t, n_c):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, n_r):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    row_op(i, t, q)
                    if m[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n_c):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    col_op(j, t, q)
                    if m[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot
            offender = None
            for i in range(t + 1, n_r):
                for j in range(t + 1, n_c):
                    if m[i][j] % m[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # add the offending row to the pivot row
        if m[t][t] < 0:
            negate_row(t)
        t += 1
    return m, u, v


def _dot(row, vec) -> int:
    return sum(map(mul, row, vec))


def solve_in_row_span(rows, target) -> Optional[list[int]]:
    """Integer vector ``b`` with ``b @ rows == target``, or None.

    Works for symmetric ``rows`` (the linking matrix), where the row span
    equals the column span.
    """
    return _solver(rows)(target)


def _solver(rows):
    """``solve_in_row_span`` for one matrix and many targets, against its
    normal form ``(d, u, v)``, computed once.  With ``c = u @ target``,
    ``target`` is in the span exactly when each ``c_i`` is divisible by
    ``d_ii`` (zero where ``d_ii`` is), and then ``b = v @ (c_i / d_ii)``;
    a row of ``u`` whose factor is 1 always passes, so membership reads
    only the others, and ``v`` is applied only on a hit."""
    d, u, v = smith_normal_form(rows)
    factors = [d[i][i] if i < len(d[i]) else 0 for i in range(len(d))]
    checks = [(u[i], f) for i, f in enumerate(factors) if f != 1]

    def solve(target) -> Optional[list[int]]:
        for row, f in checks:
            c = _dot(row, target)
            if (c % f if f else c) != 0:
                return None
        y = [_dot(row, target) // f if f else 0 for row, f in zip(u, factors)]
        return [_dot(row, y) for row in v]
    return solve


def degree_class_group(curve: CurveModel) -> DegreeClassGroup:
    """Invariant factors of the integer degree vectors modulo the row
    lattice of the linking matrix; a factor 0 stands for a free summand."""
    lm = linking_matrix(curve)
    d, _, _ = smith_normal_form([list(r) for r in lm.rows])
    n = len(lm.ids)
    factors = [d[i][i] for i in range(n)]
    return DegreeClassGroup(invariant_factors=tuple(factors))


# ---------------------------------------------------------------------------
# balanced degree vectors and twisting


def _check_vector(curve: CurveModel, vector: dict) -> dict[str, int]:
    have, want = set(vector), set(curve.component_ids)
    if have != want:
        raise ValueError(f"vector must assign every component: have {sorted(have)}, want {sorted(want)}")
    return {cid: int(vector[cid]) for cid in curve.component_ids}


def _window_failures(inv: _Invariants, vec: dict[str, int], cap: int):
    """The ``("interval", subcurve, value, lo, hi)`` failures of a
    nonnegative degree vector, lazily and in walk order: the proper
    subcurves whose degree leaves their extremes window for the vector's
    own total.  A cut sign that shows no subcurve leaves its window ends
    the search before the walk."""
    steps = inv.walk(vec, cap=cap)  # checks the cap before the windows check the total
    if len(inv.ids) == 1:
        return
    windows = _Windows(inv, sum(vec.values()))
    sign = windows.room_sign(inv, vec)
    if sign is not None and sign >= 0:
        return
    for mask, om, a, deg, ell in steps:
        lower, upper = windows.bounds(om, a, ell)
        if not lower <= windows.scale * deg <= upper:
            yield ("interval", inv.subcurve(mask), Fraction(deg),
                   Fraction(lower, windows.scale), Fraction(upper, windows.scale))


def is_balanced(curve: CurveModel, vector: dict, cap: int = ENUMERATION_CAP) -> BalanceReport:
    """Whether a degree vector is entrywise nonnegative and sits inside
    every proper subcurve's extremes window for its own total degree."""
    vec = _check_vector(curve, vector)
    failures = tuple(("negative", cid) for cid, val in sorted(vec.items()) if val < 0)
    failures = failures or tuple(_window_failures(_Invariants(curve), vec, cap))
    return BalanceReport(ok=not failures, failures=failures)


def find_twist(curve: CurveModel, vector: dict, cap: int = ENUMERATION_CAP) -> Optional[TwistResult]:
    """Search the degree class of a vector for a balanced representative.

    Enumerates, in lexicographic order over sorted component ids, the
    integer points of the per-component extremes box whose entries sum to
    the vector's total degree, and returns the first one that lies in the
    input's class and passes ``is_balanced``'s window test, together with
    the integer coefficients on the linking-matrix rows that realize the
    move.  Class membership is tested first, by one solve against the
    normal form; a point in the class then costs one cut sign on the
    windows of the pinned total, and no subcurve walk.  None when the box
    holds no representative.
    """
    vec = _check_vector(curve, vector)
    d = sum(vec.values())
    inv = _Invariants(curve)
    ids, r = inv.ids, len(inv.ids)
    lo, hi = [max(0, d)], [d]
    if r > 1:  # windows exist only for r > 1
        windows = _Windows(inv, d)
        singles = [windows.bounds(inv.omegas[c], inv.scaled[c], inv.links[c]) for c in ids]
        lo = [max(0, -(-lower // windows.scale)) for lower, _ in singles]
        hi = [upper // windows.scale for _, upper in singles]
    if any(l > h for l, h in zip(lo, hi)):
        return None
    suffix_lo = [sum(lo[i:]) for i in range(r + 1)]
    suffix_hi = [sum(hi[i:]) for i in range(r + 1)]
    inv.walk(vec, cap=cap)  # raises past the cap, after the checks above
    lm = linking_matrix(curve)
    solve = _solver(lm.rows)

    def points(pos: int, rest: int):  # box points from ``pos`` on, summing to ``rest``
        if pos == r:
            yield ()
            return
        for val in range(max(lo[pos], rest - suffix_hi[pos + 1]), min(hi[pos], rest - suffix_lo[pos + 1]) + 1):
            for tail in points(pos + 1, rest - val):
                yield (val, *tail)

    for point in points(0, d):
        candidate = dict(zip(ids, point))
        b = solve([candidate[cid] - vec[cid] for cid in lm.ids])
        if b is not None and (r == 1 or windows.room_sign(inv, candidate) >= 0):
            shift = min(b)  # the all-ones vector is in the kernel
            return TwistResult(  # lm.ids is curve.component_ids
                vector={cid: candidate[cid] for cid in lm.ids},
                coefficients={cid: x - shift for cid, x in zip(lm.ids, b)})
    return None
