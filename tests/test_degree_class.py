"""Degree class groups, the integer normal form, balanced vectors and
twist search."""

import math
import random
from fractions import Fraction

import pytest

import curvestab as cs
from curvestab.degree_class import smith_normal_form, solve_in_row_span
import reference_scans as ref
from conftest import (
    canonical_multiple,
    random_raw_curve,
    random_reducible_positive_curve,
    random_weighted_stable_curve,
)


def _banana(n_nodes=3):
    return cs.CurveModel(
        components=(cs.Component("C1", 0), cs.Component("C2", 0)),
        nodes=(("C1", "C2"),) * n_nodes)


def test_linking_matrix_examples(f2):
    assert cs.linking_matrix(f2).rows == ((-1, 1), (1, -1))
    assert cs.linking_matrix(_banana()).rows == ((-3, 3), (3, -3))
    irr = cs.CurveModel(components=(cs.Component("C", 2),))
    assert cs.linking_matrix(irr).rows == ((0,),)


def test_linking_matrix_invariants():
    rng = random.Random(71)
    for _ in range(50):
        c = random_reducible_positive_curve(rng, max_components=5)
        lm = cs.linking_matrix(c)
        r = len(lm.ids)
        for row in lm.rows:
            assert sum(row) == 0
        for i in range(r):
            for j in range(r):
                assert lm.rows[i][j] == lm.rows[j][i]
                if i != j:
                    assert lm.rows[i][j] >= 0
        ones = [1] * r
        assert all(sum(lm.rows[i][j] * ones[j] for j in range(r)) == 0 for i in range(r))


def test_degree_class_group_examples(f2):
    assert cs.degree_class_group(f2).invariant_factors == (1, 0)
    assert cs.degree_class_group(_banana()).invariant_factors == (3, 0)
    irr = cs.CurveModel(components=(cs.Component("C", 2),))
    assert cs.degree_class_group(irr).invariant_factors == (0,)


def test_degree_class_group_rank():
    rng = random.Random(73)
    for _ in range(40):
        c = random_reducible_positive_curve(rng, max_components=5)
        factors = cs.degree_class_group(c).invariant_factors
        assert factors.count(0) == 1  # connected: corank one
        nonzero = [f for f in factors if f]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def _det(matrix):
    m = [row[:] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1, m[col][col])
        for i in range(col + 1, n):
            f = m[i][col] * inv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


def _bareiss_det(matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination: every division
    is exact, so the arithmetic stays in the integers."""
    m = [list(row) for row in matrix]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def test_class_group_order_is_the_spanning_tree_count():
    """Matrix-tree theorem: the finite part of the degree class group has
    as many elements as the dual multigraph has spanning trees, the
    determinant of its Laplacian with one row and column struck out.  The
    components come in shuffled order, and the linking matrix keeps it:
    its ids are the curve's and its rows minus the Laplacian."""
    rng = random.Random(101)
    for _ in range(300):
        comps, nodes, _, _ = random_raw_curve(rng)
        nodes += tuple(rng.choice(nodes) for _ in range(rng.randint(0, 3)) if nodes)  # parallel nodes
        comps = rng.sample(comps, len(comps))
        ids = [c.id for c in comps]
        laplacian = [[0] * len(ids) for _ in ids]
        for a, b in nodes:
            i, j = ids.index(a), ids.index(b)
            if i != j:  # a self-node is a loop, in no spanning tree
                laplacian[i][i] += 1
                laplacian[j][j] += 1
                laplacian[i][j] -= 1
                laplacian[j][i] -= 1
        trees = _bareiss_det([row[1:] for row in laplacian[1:]])
        model = cs.CurveModel(comps, nodes)
        lm = cs.linking_matrix(model)
        assert lm.ids == tuple(ids) == model.component_ids
        assert all(lm.rows[i][j] == -laplacian[i][j] for i in range(len(ids)) for j in range(len(ids)))
        factors = cs.degree_class_group(model).invariant_factors
        assert factors.count(0) == 1
        assert math.prod(f for f in factors if f) == trees > 0


def test_smith_normal_form_random():
    rng = random.Random(79)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d, u, v = cs.smith_normal_form(a)
        assert abs(_det(u)) == 1 and abs(_det(v)) == 1
        prod = [[sum(u[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        prod = [[sum(prod[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (d[i][j] if i == j else 0)
        diag = [d[i][i] for i in range(n)]
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        for a1, a2 in zip(nonzero, nonzero[1:]):
            assert a2 % a1 == 0


def test_is_balanced_examples(f2):
    assert cs.is_balanced(f2, {"C1": 10, "C2": 10}).ok
    rep = cs.is_balanced(f2, {"C1": 13, "C2": 7})
    assert not rep.ok
    assert any(f[0] == "interval" and f[1] == frozenset({"C2"}) for f in rep.failures)
    neg = cs.is_balanced(f2, {"C1": 21, "C2": -1})
    assert not neg.ok and neg.failures[0][0] == "negative"


def test_find_twist_examples(f2):
    res = cs.find_twist(f2, {"C1": 13, "C2": 7})
    assert res.vector == {"C1": 10, "C2": 10}
    assert res.coefficients == {"C1": 3, "C2": 0}
    same = cs.find_twist(f2, {"C1": 10, "C2": 10})
    assert same.vector == {"C1": 10, "C2": 10}
    assert same.coefficients == {"C1": 0, "C2": 0}
    res3 = cs.find_twist(_banana(), {"C1": 25, "C2": -5})
    assert res3.vector == {"C1": 10, "C2": 10}


def test_find_twist_respects_class():
    # (11,9) and (10,10) on the banana differ by a non-multiple of 3, so
    # they are in different classes: the twist of (11,9) must be (11,9)
    # itself if balanced, never (10,10).
    banana = _banana()
    res = cs.find_twist(banana, {"C1": 11, "C2": 9})
    assert res is not None
    assert res.vector == {"C1": 11, "C2": 9}
    diff = 10 - 11
    assert diff % 3 != 0  # the classes really are distinct


def test_find_twist_exhausted_returns_none():
    banana = _banana()
    # total degree 2: the windows around 1 +- 3/2 leave {0,1,2} per axis,
    # but only residues of 25 mod 3 are reachable: (0,2) works, so force a
    # class with no representative by an off-lattice residue at tiny total.
    res = cs.find_twist(banana, {"C1": 2, "C2": 0})
    # class of (2,0): translates (2-3b, 3b): candidates with both entries in
    # window [>=0] summing 2: (2,0),(1,1),(0,2); (1,1) is off-class, (2,0)
    # and (0,2) are in class; so this one succeeds:
    assert res is not None
    # a genuinely empty search: windows too tight around the center
    skinny = cs.CurveModel(
        components=(cs.Component("C1", 1), cs.Component("C2", 1)),
        nodes=(("C1", "C2"),))
    out = cs.find_twist(skinny, {"C1": 4, "C2": -1})
    # total 3: windows are 3/2 +- 1/2 = [1,2] per component, sum must be 3:
    # candidates (1,2),(2,1), both in the class of (4,-1) (b=3 resp. b=2);
    # the lexicographically smaller representative wins:
    assert out is not None and out.vector == {"C1": 1, "C2": 2}
    # shrink to an unreachable class: banana with total 1
    none = cs.find_twist(_banana(5), {"C1": 7, "C2": -6})
    # windows: 1/2 +- 5/2 -> [0,3] each, sum 1: (0,1),(1,0); class of (7,-6)
    # mod 5: entries congruent to (2,4) mod 5: no candidate matches.
    assert none is None


def test_find_twist_rejects_a_curve_without_components():
    with pytest.raises(ValueError, match="^curve has no components$"):
        cs.find_twist(cs.CurveModel(()), {})


def test_is_balanced_rejects_a_curve_without_components():
    with pytest.raises(ValueError, match="^curve has no components$"):
        cs.is_balanced(cs.CurveModel(()), {})


def test_a_vector_entry_that_is_not_an_integer_is_rejected(f2):
    # int() used to truncate each entry: 2.7 became 2, 5/2 became 2 and
    # True became 1.
    for value in (2.7, Fraction(5, 2), Fraction(10), 10.0, True, "10"):
        vector = {"C1": value, "C2": 10}
        for fn in (cs.find_twist, cs.is_balanced):
            with pytest.raises(ValueError) as info:
                fn(f2, vector)
            assert str(info.value) == f"vector entry on 'C1' is not an integer: {value!r}"
    assert cs.is_balanced(f2, {"C1": 10, "C2": 10}).ok


def test_total_degree_is_class_invariant():
    rng = random.Random(83)
    for _ in range(50):
        c = random_reducible_positive_curve(rng, max_components=5)
        lm = cs.linking_matrix(c)
        r = len(lm.ids)
        v = [rng.randint(-20, 20) for _ in range(r)]
        b = [rng.randint(-5, 5) for _ in range(r)]
        moved = [v[j] + sum(b[i] * lm.rows[i][j] for i in range(r)) for j in range(r)]
        assert sum(moved) == sum(v)


def test_find_twist_certificate_random():
    rng = random.Random(89)
    done = 0
    while done < 20:
        c = random_weighted_stable_curve(rng)
        p, _ = canonical_multiple(c)
        d = p.total
        ids = sorted(c.component_ids)
        v = {cid: rng.randint(-10, 10) for cid in ids}
        v[ids[0]] += d - sum(v.values())
        res = cs.find_twist(c, v)
        assert res is not None
        assert cs.is_balanced(c, res.vector).ok
        lm = cs.linking_matrix(c)
        rebuilt = {
            cid: v[cid] + sum(res.coefficients[a] * lm.rows[i][j]
                              for i, a in enumerate(lm.ids))
            for j, cid in enumerate(lm.ids)
        }
        assert rebuilt == res.vector
        assert min(res.coefficients.values()) == 0
        done += 1


def test_solve_in_row_span_roundtrip():
    rng = random.Random(97)
    for _ in range(50):
        c = random_reducible_positive_curve(rng, max_components=4)
        lm = cs.linking_matrix(c)
        rows = [list(r) for r in lm.rows]
        r = len(rows)
        b = [rng.randint(-4, 4) for _ in range(r)]
        target = [sum(b[i] * rows[i][j] for i in range(r)) for j in range(r)]
        sol = solve_in_row_span(rows, target)
        assert sol is not None
        again = [sum(sol[i] * rows[i][j] for i in range(r)) for j in range(r)]
        assert again == target
        off = list(target)
        off[0] += 1  # breaks the zero-sum invariant of the row span
        assert solve_in_row_span(rows, off) is None


def test_solve_in_row_span_matches_the_full_solve():
    # Membership reads only the rows of u whose invariant factor is not 1;
    # the answer, None included, is the full two-product solve's.
    rng = random.Random(4242)
    hits = misses = 0
    for _ in range(60):
        c = cs.CurveModel(*random_raw_curve(rng))
        rows = [list(r) for r in cs.linking_matrix(c).rows]
        snf = smith_normal_form(rows)
        for _ in range(5):
            target = [rng.randint(-6, 6) for _ in rows]
            target[-1] -= sum(target) if rng.random() < 0.7 else 0
            got = solve_in_row_span(rows, target)
            assert got == ref._solve_factored(snf, target)
            hits += got is not None
            misses += got is None
    assert hits and misses
