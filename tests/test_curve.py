"""Curve model: validation, genus/node/degree arithmetic, enumeration,
classification and stabilization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
from curvestab.curve import _Invariants
from conftest import bitmask_invariants, random_curve, random_raw_curve, random_semistable_curve


def test_validate_ok_irreducible():
    c = cs.CurveModel(components=(cs.Component("C", 3),))
    assert cs.validate_curve(c).ok


def test_validate_site_overweight():
    c = cs.CurveModel(
        components=(cs.Component("C", 1),),
        sites=(cs.MarkSite("p", "C"),),
        marks=(cs.Mark("x1", "p", Fraction(1, 2)), cs.Mark("x2", "p", Fraction(2, 3))),
    )
    report = cs.validate_curve(c)
    assert not report.ok
    assert any(v.code == "site-overweight" and "7/6 > 1" in v.message for v in report.violations)


def test_validate_disconnected():
    c = cs.CurveModel(components=(cs.Component("C1", 1), cs.Component("C2", 1)))
    report = cs.validate_curve(c)
    assert not report.ok
    assert any(v.message == "dual graph disconnected" for v in report.violations)


def test_self_node_folds_into_genus():
    c = cs.CurveModel(components=(cs.Component("C", 1),), nodes=(("C", "C"),))
    assert c.nodes == ()
    assert c.genus_of("C") == 2


def test_arithmetic_genus_examples(f2):
    assert cs.arithmetic_genus(f2) == 2
    irr = cs.CurveModel(components=(cs.Component("C", 3),))
    assert cs.arithmetic_genus(irr) == 3
    banana = cs.CurveModel(
        components=(cs.Component("C1", 0), cs.Component("C2", 0)),
        nodes=(("C1", "C2"),) * 3)
    assert cs.arithmetic_genus(banana) == 2
    with pytest.raises(ValueError, match="empty subcurve"):
        cs.arithmetic_genus(f2, frozenset())


def test_genus_additivity_on_connected_splits():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        c = random_curve(rng)
        if len(c.component_ids) < 2:
            continue
        g = cs.arithmetic_genus(c)
        for sub in cs.subcurves(c, connected_only=True):
            comp = c.full_subcurve() - sub
            if not comp or not cs.is_connected(c, comp):
                continue
            ell = cs.linking_nodes(c, sub)
            assert cs.arithmetic_genus(c, sub) + cs.arithmetic_genus(c, comp) + ell - 1 == g
            checked += 1


def test_invariants_table_matches_bitmask_oracle():
    # The table and the public wrappers against an independent recount on
    # every subcurve, proper or not, of curves with marks and self-nodes.
    rng = random.Random(97)
    sizes = set()
    for _ in range(60):
        raw = random_raw_curve(rng)
        curve = cs.CurveModel(*raw)
        table = _Invariants(curve)
        sizes.add(len(raw[0]))
        for sub, (genus, ell, omega, weight, marked) in bitmask_invariants(*raw).items():
            assert table.genus(sub) == cs.arithmetic_genus(curve, sub) == genus
            assert table.linking(sub) == ell
            assert table.omega(sub) == cs.omega_degree(curve, sub) == omega
            assert table.omega(sub, weighted=True) == omega + weight
            assert table.mark_weight(sub) == weight
            assert any(c in table.weights for c in sub) == marked
            if sub != curve.full_subcurve():
                assert cs.linking_nodes(curve, sub) == ell
    assert min(sizes) == 1 and max(sizes) == 8


def test_linking_nodes_examples():
    banana3 = cs.CurveModel(
        components=(cs.Component("C1", 0), cs.Component("C2", 0)),
        nodes=(("C1", "C2"),) * 3)
    assert cs.linking_nodes(banana3, {"C1"}) == 3
    chain = cs.CurveModel(
        components=(cs.Component("C1", 1), cs.Component("E", 0), cs.Component("C2", 1)),
        nodes=(("C1", "E"), ("E", "C2")))
    assert cs.linking_nodes(chain, {"E"}) == 2
    assert cs.linking_nodes(chain, {"C1", "E"}) == 1
    with pytest.raises(ValueError):
        cs.linking_nodes(chain, chain.full_subcurve())


def test_omega_degree_examples(f2):
    assert cs.omega_degree(f2, {"C1"}) == 1
    assert cs.omega_degree(f2, weighted=True) == 2
    tail = cs.CurveModel(
        components=(cs.Component("C", 2), cs.Component("P", 0)),
        nodes=(("C", "P"),),
        sites=(cs.MarkSite("p1", "P"), cs.MarkSite("p2", "P")),
        marks=(cs.Mark("x1", "p1", Fraction(1)), cs.Mark("x2", "p2", Fraction(1))))
    assert cs.omega_degree(tail, {"P"}, weighted=True) == 1  # -2 + 1 + 2


def test_weighted_total_on_unmarked_curves_is_twice_chi():
    # With marks the two quantities differ (the weighted total adds each
    # weight once, the chi invariant would add it twice); unmarked they agree.
    rng = random.Random(23)
    for _ in range(200):
        c = random_curve(rng, marked=False)
        assert cs.omega_degree(c, weighted=True) == 2 * cs.weighted_chi(c)


def test_weighted_total_vs_chi_with_marks(f4):
    assert cs.weighted_chi(f4) == 2                      # g - 1 + sum(a) = 0 + 2
    assert cs.omega_degree(f4, weighted=True) == 2       # 2g - 2 + sum(a) = 0 + 2
    lopsided = cs.CurveModel(
        components=(cs.Component("C", 0),),
        sites=(cs.MarkSite("p", "C"), cs.MarkSite("q", "C"), cs.MarkSite("r", "C")),
        marks=tuple(cs.Mark(f"x{i}", s, Fraction(1, 2)) for i, s in enumerate("pqr")))
    assert cs.weighted_chi(lopsided) == Fraction(1, 2)
    assert cs.omega_degree(lopsided, weighted=True) == Fraction(-1, 2)


def test_subcurve_enumeration():
    two = cs.CurveModel(
        components=(cs.Component("C1", 1), cs.Component("C2", 1)), nodes=(("C1", "C2"),))
    assert cs.subcurves(two) == [frozenset({"C1"}), frozenset({"C2"})]
    chain = cs.CurveModel(
        components=(cs.Component("C1", 0), cs.Component("C2", 0), cs.Component("C3", 0)),
        nodes=(("C1", "C2"), ("C2", "C3")))
    conn = cs.subcurves(chain, connected_only=True)
    assert len(conn) == 5  # three singletons and the two adjacent pairs
    irr = cs.CurveModel(components=(cs.Component("C", 2),))
    assert cs.subcurves(irr) == []


def test_subcurve_counts_and_cap():
    rng = random.Random(5)
    for _ in range(20):
        c = random_curve(rng)
        r = len(c.component_ids)
        assert len(cs.subcurves(c)) == 2 ** r - 2
        assert len(cs.subcurves(c, proper_only=False)) == 2 ** r - 1
    big = cs.CurveModel(
        components=tuple(cs.Component(f"C{i}", 1) for i in range(25)),
        nodes=tuple((f"C{i}", f"C{i+1}") for i in range(24)))
    with pytest.raises(ValueError, match="enumeration cap exceeded"):
        cs.subcurves(big)


def test_classify_weighted_examples():
    semi = cs.CurveModel(
        components=(cs.Component("C1", 1), cs.Component("E", 0), cs.Component("C2", 1)),
        nodes=(("C1", "E"), ("E", "C2")))
    cls = cs.classify_weighted(semi)
    assert cls.status == "Semistable" and cls.exceptional == ("E",)
    bad = cs.CurveModel(
        components=(cs.Component("C", 2), cs.Component("E", 0)), nodes=(("C", "E"),))
    cls = cs.classify_weighted(bad)
    assert cls.status == "NotSemistable" and cls.witness == "E"
    f2 = cs.CurveModel(
        components=(cs.Component("C1", 1), cs.Component("C2", 1)), nodes=(("C1", "C2"),))
    assert cs.classify_weighted(f2).status == "Stable"


def test_stabilize_bridge():
    chain = cs.CurveModel(
        components=(cs.Component("C1", 1), cs.Component("E", 0), cs.Component("C2", 1)),
        nodes=(("C1", "E"), ("E", "C2")))
    st = cs.stabilize(chain)
    assert st.component_ids == ("C1", "C2")
    assert st.nodes == (("C1", "C2"),)
    assert cs.arithmetic_genus(st) == cs.arithmetic_genus(chain) == 2


def test_stabilize_fixpoint(f2):
    assert cs.stabilize(f2) == f2


def test_stabilize_double_attachment():
    dbl = cs.CurveModel(
        components=(cs.Component("C1", 1), cs.Component("E", 0)),
        nodes=(("C1", "E"), ("C1", "E")))
    st = cs.stabilize(dbl)
    assert st.component_ids == ("C1",)
    assert st.genus_of("C1") == 2  # the loop became a genus increment
    assert cs.arithmetic_genus(st) == cs.arithmetic_genus(dbl) == 2


def test_stabilize_rejects_not_semistable():
    bad = cs.CurveModel(
        components=(cs.Component("C", 2), cs.Component("E", 0)), nodes=(("C", "E"),))
    with pytest.raises(ValueError, match="cannot stabilize"):
        cs.stabilize(bad)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(rng=st.integers(0, 2 ** 32 - 1).map(random.Random))
def test_stabilize_idempotent_and_preserving(rng):
    c = random_semistable_curve(rng)
    stable = cs.stabilize(c)
    assert cs.stabilize(stable) == stable
    assert cs.arithmetic_genus(stable) == cs.arithmetic_genus(c)
    assert sorted((m.id, m.weight) for m in stable.marks) == sorted((m.id, m.weight) for m in c.marks)
    assert not cs.classify_weighted(stable).exceptional


def test_polarization_is_hashable_consistently_with_equality():
    a = cs.Polarization({"C1": 3, "C2": 5, "C3": 2})
    b = cs.Polarization({"C3": 2, "C1": 3, "C2": 5})
    other = cs.Polarization({"C1": 5, "C2": 3, "C3": 2})
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert {a: "x"}[b] == "x"
    assert {a, b, other} == {b, other} and len({a, b, other}) == 2
