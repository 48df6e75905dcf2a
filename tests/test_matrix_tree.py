"""The matrix-tree oracle: two independent routes to one number.

The interval windows are Oda-Seshadri windows.  At a generic
polarization, where no integer vector of total ``d`` lies on a window's
boundary, every class of such vectors modulo the linking matrix's rows
holds exactly one vector strictly inside every window, so there are as
many of those vectors as the dual graph has spanning trees (Kirchhoff):
the product of the nonzero invariant factors of the linking matrix's
normal form.  At a boundary polarization each class still holds a
vector with room of sign 0 or 1 (Oda and Seshadri, Trans. AMS 1979;
Caporaso, JAMS 1994; An, Baker, Kuperberg and Shokrieh, Forum
Math. Sigma 2014).

The classes come from ``smith_normal_form`` of ``linking_matrix``, the
signs from the window cut (``_Windows.room_sign``), and the candidates
from the box of the one-component windows of ``extremes_for_total``,
which holds every vector of room sign 0 or 1.
"""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction
from operator import mul

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import curvestab as cs
from curvestab.curve import _Invariants
from curvestab.slope import _interval_windows
from test_min_cut import multigraph

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
WEIGHTS = tuple(map(Fraction, ("0", "1/3", "2/5", "1/2", "1")))


def marked(rng: random.Random, curve: cs.CurveModel) -> cs.CurveModel:
    """The curve with 0 to 3 marks of weight 0, 1/3, 2/5, 1/2 or 1, each
    on a site of its own."""
    n = rng.randint(0, 3)
    sites = tuple(cs.MarkSite(f"p{i}", rng.choice(curve.component_ids)) for i in range(n))
    marks = tuple(cs.Mark(f"x{i}", f"p{i}", rng.choice(WEIGHTS)) for i in range(n))
    return cs.CurveModel(curve.components, curve.nodes, sites, marks)


def box(curve: cs.CurveModel, total: int):
    """The integer vectors of total ``total``, in the curve's component
    order, inside every one-component window, each as a tuple."""
    ranges = []
    for c in curve.component_ids:
        window = cs.extremes_for_total(curve, total, {c})
        ranges.append(range(math.ceil(window.lower), math.floor(window.upper) + 1))
    for head in itertools.product(*ranges[:-1]):
        if (last := total - sum(head)) in ranges[-1]:
            yield (*head, last)


@PROPERTY
@given(rng=st.integers(0, 2 ** 32 - 1).map(random.Random), r=st.integers(2, 6), total=st.integers(-3, 25))
def test_each_degree_class_holds_one_vector_inside_every_window(rng, r, total):
    curve = marked(rng, multigraph(rng, r))
    inv = _Invariants(curve)
    assume(inv.omega(inv.full, weighted=True) > 0)
    windows = _interval_windows(inv, total)
    lm = cs.linking_matrix(curve)
    d, u, _ = cs.smith_normal_form(lm.rows)
    factors = [d[i][i] for i in range(r)]
    order = math.prod(f for f in factors if f)
    signs = defaultdict(list)  # normal-form residues of a class -> (sign, vector) of its box vectors
    for vec in box(curve, total):
        dots = (sum(map(mul, row, vec)) for row in u)
        residues = tuple(x % f if f else x for x, f in zip(dots, factors))
        signs[residues].append((windows.room_sign(inv, dict(zip(lm.ids, vec))), vec))
    assert len(signs) == order
    generic = all(sign != 0 for held in signs.values() for sign, _ in held)
    if generic:
        inside = {key: [vec for sign, vec in held if sign == 1] for key, held in signs.items()}
        assert all(len(vecs) == 1 for vecs in inside.values())
        assert sum(len(vecs) for vecs in inside.values()) == order
        # find_twist's answer from the class's least-room vector is the
        # class's one vector, or None when that has a negative entry
        key = min(signs)
        (stable,), start = inside[key], min(signs[key])[1]
        twist = cs.find_twist(curve, dict(zip(lm.ids, start)))
        assert (None if twist is None else tuple(twist.vector[c] for c in lm.ids)) == (
            stable if min(stable) >= 0 else None)
    else:
        assert all(max(sign for sign, _ in held) >= 0 for held in signs.values())
