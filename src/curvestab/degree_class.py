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
can live, and it certifies any hit with the integer combination of
matrix rows that produces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Optional

from .curve import ENUMERATION_CAP, CurveModel, _Invariants, subcurves
from .slope import _require_positive_total, _window


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


def _mat_vec(matrix, vec):
    return [sum(matrix[i][j] * vec[j] for j in range(len(vec))) for i in range(len(matrix))]


def solve_in_row_span(rows, target) -> Optional[list[int]]:
    """Integer vector ``b`` with ``b @ rows == target``, or None.

    Works for symmetric ``rows`` (the linking matrix), where the row span
    equals the column span.
    """
    return _solve_factored(smith_normal_form(rows), target)


def _solve_factored(snf, target) -> Optional[list[int]]:
    """``solve_in_row_span`` against the normal form ``(d, u, v)`` of the rows."""
    d, u, v = snf
    uc = _mat_vec(u, target)
    n = len(d)
    y = [0] * n
    for i in range(n):
        di = d[i][i] if i < len(d[i]) else 0
        if di == 0:
            if uc[i] != 0:
                return None
            y[i] = 0
        else:
            if uc[i] % di:
                return None
            y[i] = uc[i] // di
    return _mat_vec(v, y)


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


def is_balanced(curve: CurveModel, vector: dict, cap: int = ENUMERATION_CAP) -> BalanceReport:
    """Whether a degree vector is entrywise nonnegative and sits inside
    every proper subcurve's extremes window for its own total degree."""
    vec = _check_vector(curve, vector)
    failures: list[tuple] = []
    for cid, val in sorted(vec.items()):
        if val < 0:
            failures.append(("negative", cid))
    if failures:
        return BalanceReport(ok=False, failures=tuple(failures))
    d = sum(vec.values())
    inv = _Invariants(curve)
    proper = subcurves(curve, proper_only=True, cap=cap)
    total = _require_positive_total(inv) if proper else None
    for sub in proper:
        window = _window(inv, total, d, sub)
        value = Fraction(sum(vec[c] for c in sub))
        if not (window.lower <= value <= window.upper):
            failures.append(("interval", sub, value, window.lower, window.upper))
    return BalanceReport(ok=not failures, failures=tuple(failures))


def find_twist(curve: CurveModel, vector: dict, cap: int = ENUMERATION_CAP) -> Optional[TwistResult]:
    """Search the degree class of a vector for a balanced representative.

    Enumerates, in lexicographic order over sorted component ids, the
    integer points of the per-component extremes box whose entries sum to
    the vector's total degree, keeps those balanced, and returns the first
    one lying in the input's class, together with the integer coefficients
    on the linking-matrix rows that realize the move.  None when the box
    holds no representative.
    """
    vec = _check_vector(curve, vector)
    d = sum(vec.values())
    ids = sorted(curve.component_ids)
    r = len(ids)
    inv = _Invariants(curve)
    total = _require_positive_total(inv) if r > 1 else None  # windows exist only for r > 1
    lo, hi = [max(0, d)], [d]
    if r > 1:
        singles = [_window(inv, total, d, frozenset({cid})) for cid in ids]
        lo = [max(0, ceil(w.lower)) for w in singles]
        hi = [floor(w.upper) for w in singles]
    if any(l > h for l, h in zip(lo, hi)):
        return None
    suffix_lo = [0] * (r + 1)
    suffix_hi = [0] * (r + 1)
    for i in range(r - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + lo[i]
        suffix_hi[i] = suffix_hi[i + 1] + hi[i]

    proper = subcurves(curve, proper_only=True, cap=cap)
    windows = {sub: _window(inv, total, d, sub) for sub in proper}
    lm = linking_matrix(curve)
    order = {cid: i for i, cid in enumerate(lm.ids)}
    snf = smith_normal_form(lm.rows)

    def balanced(candidate: dict[str, int]) -> bool:
        for sub, window in windows.items():
            value = sum(candidate[c] for c in sub)
            if not (window.lower <= value <= window.upper):
                return False
        return True

    stack: list[int] = []

    def dfs(pos: int, partial: int) -> Optional[TwistResult]:
        if pos == r:
            if partial != d:
                return None
            candidate = {ids[i]: stack[i] for i in range(r)}
            if not balanced(candidate):
                return None
            b = _solve_factored(snf, [candidate[cid] - vec[cid] for cid in lm.ids])
            if b is None:
                return None
            shift = min(b)
            b = [x - shift for x in b]  # the all-ones vector is in the kernel
            coeffs = {cid: b[order[cid]] for cid in lm.ids}
            return TwistResult(
                vector={cid: candidate[cid] for cid in curve.component_ids},
                coefficients={cid: coeffs[cid] for cid in curve.component_ids},
            )
        for val in range(lo[pos], hi[pos] + 1):
            rest_lo = suffix_lo[pos + 1]
            rest_hi = suffix_hi[pos + 1]
            if partial + val + rest_lo > d or partial + val + rest_hi < d:
                continue
            stack.append(val)
            hit = dfs(pos + 1, partial + val)
            if hit is not None:
                return hit
            stack.pop()
        return None

    return dfs(0, 0)
