"""Curve model: validation, genus/node/degree arithmetic, enumeration,
classification and stabilization."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
from curvestab.cli import main
from curvestab import curve as curve_mod
from curvestab.curve import _BROKEN, _Invariants
from curvestab.io import curve_to_json, datum_to_json
from conftest import bitmask_invariants, random_curve, random_raw_curve, random_semistable_curve
from test_min_cut import multigraph


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


def test_validate_no_components():
    report = cs.validate_curve(cs.CurveModel(()))
    assert not report.ok
    assert [(v.code, v.message) for v in report.violations] == [("no-components", "curve has no components")]


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
            assert any(c in sub for c in table.homes.values()) == marked
            if sub != curve.full_subcurve():
                assert cs.linking_nodes(curve, sub) == ell
    assert min(sizes) == 1 and max(sizes) == 8


def test_subcurve_of_a_mask_matches_the_generator_over_all_ids():
    # Ids whose sorted order (bit i is the i-th sorted id) differs from the
    # curve's order, every mask at r <= 10, against the generator it replaced.
    for r in range(2, 11):
        ids = [f"C{r - i}" for i in range(r)]
        curve = cs.CurveModel(tuple(cs.Component(c, 1) for c in ids), tuple(zip(ids, ids[1:])))
        table = _Invariants(curve)
        assert table.ids == sorted(ids) != ids
        for mask in range(2 ** r):
            assert table.subcurve(mask) == frozenset(c for i, c in enumerate(table.ids) if mask >> i & 1)


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
    # a mark of weight 0 keeps the degree at 0 but leaves E not exceptional
    marked = cs.CurveModel(semi.components, semi.nodes, (cs.MarkSite("p", "E"),), (cs.Mark("x", "p", 0),))
    cls = cs.classify_weighted(marked)
    assert (cls.status, cls.witness) == ("NotSemistable", "E")
    assert cls.reason == "degree-zero component is not an unmarked rational curve"
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


def test_a_degree_or_genus_that_is_not_an_integer_is_rejected():
    # Never truncated: 2.7 and 5/2 used to be degree 2, 1.9 genus 1, and a
    # slope check gave a verdict on the truncated numbers.
    for degree in (2.7, Fraction(5, 2), 3.0, Fraction(4), "3", True):
        with pytest.raises(ValueError, match=r"polarization degree on 'A' is not an integer"):
            cs.Polarization({"B": 3, "A": degree})
    for genus in (1.9, Fraction(3, 2), 1.0, "1", True):
        with pytest.raises(ValueError, match=r"genus of 'A' is not an integer"):
            cs.CurveModel((cs.Component("B", 1), cs.Component("A", genus)), (("A", "B"),))
    curve = cs.CurveModel((cs.Component("A", 1), cs.Component("B", 1)), (("A", "B"),))
    assert cs.slope_check_interval(curve, cs.Polarization({"A": 10, "B": 10})).status == "Stable"
    with pytest.raises(ValueError, match="not ample"):
        cs.Polarization({"A": 0})


def test_a_mark_weight_that_is_not_an_exact_rational_is_rejected():
    # Fraction() used to take 0.1 at its binary value,
    # 3602879701896397/36028797018963968, and to parse the string '1/3'.
    comps, sites = (cs.Component("A", 2),), (cs.MarkSite("p", "A"),)
    with pytest.raises(ValueError, match=r"^weight of mark 'x' is not an exact rational: 0\.1$"):
        cs.CurveModel(comps, (), sites, (cs.Mark("x", "p", 0.1),))
    for weight in ("1/3", 1.0, True, None):
        with pytest.raises(ValueError, match=r"^weight of mark 'x' is not an exact rational: "):
            cs.CurveModel(comps, (), sites, (cs.Mark("x", "p", weight),))
    for weight in (2, Fraction(1, 3)):
        stored = cs.CurveModel(comps, (), sites, (cs.Mark("x", "p", weight),)).marks[0].weight
        assert stored == weight and type(stored) is Fraction


def test_unknown_references_raise_one_value_error_everywhere():
    # A node, site or mark that names nothing, or an id that two components,
    # sites or marks share: every user of the invariants table (scans,
    # twist, two-weight, classification, the Chow weights, the datum checks
    # against a curve, the lower bound, the linking matrix and the degree
    # class group) raises one ValueError naming it; the validator lists it
    # and never raises.
    comps = (cs.Component("A", 1), cs.Component("B", 1), cs.Component("C", 1))
    nodes = (("A", "B"), ("B", "C"))
    site, mark = cs.MarkSite("s", "A"), cs.Mark("m", "s", Fraction(1, 2))
    broken = {
        "node endpoint 'Z' is not a component":
            cs.CurveModel(comps, nodes + (("A", "Z"),), (site,), (mark,)),
        "site 't' on unknown component 'Q'":
            cs.CurveModel(comps, nodes, (site, cs.MarkSite("t", "Q")),
                          (mark, cs.Mark("n", "t", Fraction(1, 2)))),
        "mark 'n' on unknown site 'nope'":
            cs.CurveModel(comps, nodes, (site,), (mark, cs.Mark("n", "nope", Fraction(1, 2)))),
        "duplicate component ids":
            cs.CurveModel(comps + (cs.Component("A", 1),), nodes, (site,), (mark,)),
        "duplicate site ids":
            cs.CurveModel(comps, nodes, (site, cs.MarkSite("s", "B")),
                          (mark, cs.Mark("n", "s", Fraction(1, 3)))),
        "duplicate mark ids":
            cs.CurveModel(comps, nodes, (site,), (mark, cs.Mark("m", "s", Fraction(1, 6)))),
    }
    pol = cs.Polarization({"A": 6, "B": 7, "C": 6})
    vec = dict(pol.degrees)
    datum = cs.OnePSDatum(m=1, rho=(1, 0), hbar={"A": 1, "B": 1, "C": 1})
    calls = [
        lambda c: cs.subcurves(c), lambda c: cs.arithmetic_genus(c, {"A"}),
        lambda c: cs.is_connected(c, {"A", "B"}),
        lambda c: cs.weighted_chi(c), lambda c: cs.classify_weighted(c),
        lambda c: cs.slope_check_interval(c, pol), lambda c: cs.slope_check_h0(c, pol),
        lambda c: cs.equivalence_report(c, pol), lambda c: cs.is_extremal(c, pol),
        lambda c: cs.k_stable(c, pol), lambda c: cs.is_balanced(c, vec),
        lambda c: cs.find_twist(c, vec), lambda c: cs.two_weight_datum(c, pol, {"A"}),
        lambda c: cs.two_weight_closed_form(c, pol, {"A"}),
        lambda c: cs.chow_report(datum, c, pol), lambda c: cs.chow_weight(datum, c, pol),
        lambda c: cs.mumford_weight(datum, c, pol), lambda c: cs.marked_weight(datum, c),
        lambda c: cs.validate_datum(datum, c), lambda c: cs.chow_weight_lower_bound(datum, c, pol),
        cs.linking_matrix, cs.degree_class_group,
    ]
    for message, curve in broken.items():
        assert not cs.validate_curve(curve).ok
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(curve)
    # One component has no proper subcurve to scan, but its node is still checked.
    lone = cs.CurveModel((cs.Component("A", 1),), (("A", "Z"),))
    with pytest.raises(ValueError, match="node endpoint 'Z' is not a component"):
        cs.slope_check_h0(lone, cs.Polarization({"A": 6}))


def test_is_connected_checks_the_curve():
    # A and B meet only at a node end that names no component: the curve is
    # rejected, not read as two pieces; the validator lists the fault and
    # still tests connectivity on sound references only.
    curve = cs.CurveModel((cs.Component("A", 1), cs.Component("B", 1)), (("A", "Z"), ("B", "Z")))
    with pytest.raises(ValueError, match="node endpoint 'Z' is not a component"):
        cs.is_connected(curve, {"A", "B"})
    assert [v.code for v in cs.validate_curve(curve).violations] == ["unknown-component"] * 2
    sound = cs.CurveModel((cs.Component("A", 1), cs.Component("B", 1), cs.Component("C", 1)), (("A", "C"),))
    assert cs.is_connected(sound, {"A", "C"}) and not cs.is_connected(sound, {"A", "B"})
    twice = cs.CurveModel(sound.components, (), (cs.MarkSite("s", "A"),),
                          (cs.Mark("m", "s", Fraction(1, 3)), cs.Mark("m", "s", Fraction(1, 3))))
    assert [v.code for v in cs.validate_curve(twice).violations] == ["duplicate-mark", "disconnected"]


def test_validate_curve_lists_every_violation_in_one_order():
    # Each kind of violation, in the validator's order (the order the JSON
    # reader and the invariants table read their first one in).  No one
    # curve carries them all: connectedness is checked only when every
    # component id is unique and every reference to one resolves.
    C, S, M = cs.Component, cs.MarkSite, cs.Mark
    curves = {
        cs.CurveModel(
            (C("A", 1), C("B", -1), C("A", 0)), (("A", "B"), ("B", "Z"), ("Y", "A")),
            (S("p", "A"), S("q", "Q"), S("p", "B")),
            (M("x", "p", Fraction(1, 2)), M("x", "p", Fraction(2, 3)), M("y", "nope", Fraction(1, 3)),
             M("z", "q", Fraction(-1, 3)))): (
            ("duplicate-component", "A", "duplicate component ids"),
            ("negative-genus", "B", "genus -1 < 0"),
            ("unknown-component", "Y", "node endpoint 'Y' is not a component"),
            ("unknown-component", "Z", "node endpoint 'Z' is not a component"),
            ("duplicate-site", "", "duplicate site ids"),
            ("unknown-component", "q", "site 'q' on unknown component 'Q'"),
            ("duplicate-mark", "", "duplicate mark ids"),
            ("unknown-site", "y", "mark 'y' on unknown site 'nope'"),
            ("negative-weight", "z", "weight -1/3 < 0"),
            ("site-overweight", "p", "site overweight 7/6 > 1")),
        cs.CurveModel(
            (C("A", -2), C("B", 1), C("C", 1)), (("A", "B"),),
            (S("s", "A"), S("s", "C"), S("t", "B")),
            (M("m", "s", Fraction(1)), M("m", "t", Fraction(-1, 2)), M("n", "u", Fraction(1, 4)),
             M("k", "s", Fraction(1, 2)))): (
            ("negative-genus", "A", "genus -2 < 0"),
            ("duplicate-site", "", "duplicate site ids"),
            ("duplicate-mark", "", "duplicate mark ids"),
            ("negative-weight", "m", "weight -1/2 < 0"),
            ("unknown-site", "n", "mark 'n' on unknown site 'u'"),
            ("site-overweight", "s", "site overweight 3/2 > 1"),
            ("disconnected", "", "dual graph disconnected")),
        cs.CurveModel((), (("A", "B"),)): (
            ("no-components", "", "curve has no components"),
            ("unknown-component", "A", "node endpoint 'A' is not a component"),
            ("unknown-component", "B", "node endpoint 'B' is not a component")),
    }
    for curve, expected in curves.items():
        report = cs.validate_curve(curve)
        assert tuple((v.code, v.entity, v.message) for v in report.violations) == expected
        assert not report.ok


def faulty_curve(rng: random.Random) -> cs.CurveModel:
    """A ``multigraph`` curve with a few marks, then zero to three faults
    injected: a dangling node end, a site on an unknown component, a mark
    on an unknown site, an id that two components, sites or marks share, a
    negative genus or weight, an overweight site or an isolated component."""
    base = multigraph(rng, rng.randint(1, 5))
    comps, nodes = list(base.components), list(base.nodes)
    ids = [c.id for c in comps]
    sites = [cs.MarkSite(f"p{i}", rng.choice(ids)) for i in range(rng.randint(0, 3))]
    marks = [cs.Mark(f"x{i}", s.id, Fraction(rng.randint(0, 2), 4)) for i, s in enumerate(sites)]
    for _ in range(rng.randint(0, 3)):
        fault = rng.randrange(10)
        if fault == 0:
            nodes.insert(rng.randint(0, len(nodes)), (rng.choice(ids), "Z"))
        elif fault == 1:
            sites.append(cs.MarkSite("q", "Q"))
        elif fault == 2:
            marks.append(cs.Mark("y", "nowhere", Fraction(1, 3)))
        elif fault == 3:
            comps.append(cs.Component(rng.choice(ids), 1))
        elif fault == 4:
            sites += [cs.MarkSite("p0", rng.choice(ids))] * (1 if sites else 2)
        elif fault == 5 and marks:
            marks.append(cs.Mark(rng.choice(marks).id, marks[0].site, Fraction(0)))
        elif fault == 6:
            comps[0] = cs.Component(comps[0].id, -1)
        elif fault == 7 and marks:
            marks[0] = cs.Mark(marks[0].id, marks[0].site, Fraction(-1, 2))
        elif fault == 8 and marks:
            marks.append(cs.Mark("w", marks[0].site, Fraction(1)))
        elif fault == 9:
            comps.append(cs.Component("lone", 2))
    return cs.CurveModel(tuple(comps), tuple(nodes), tuple(sites), tuple(marks))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(rng=st.integers(0, 2 ** 32 - 1).map(random.Random))
def test_table_raises_exactly_the_first_reference_fault(rng):
    curve = faulty_curve(rng)
    broken = [v.message for v in cs.validate_curve(curve).violations if v.code in _BROKEN]
    if broken:
        with pytest.raises(ValueError) as err:
            _Invariants(curve)
        assert str(err.value) == broken[0]
    else:
        _Invariants(curve)


def test_table_of_a_sound_curve_never_lists_its_faults(monkeypatch):
    # Negative genera and weights, overweight sites and a disconnected dual
    # graph leave every number of the table defined: it is built without
    # listing the curve's violations.
    def listed(curve):
        raise AssertionError("the table listed a curve's violations")

    monkeypatch.setattr(curve_mod, "_faults", listed)
    comps = (cs.Component("A", -1), cs.Component("B", 1), cs.Component("C", 0))
    sites = (cs.MarkSite("s", "A"),)
    marks = (cs.Mark("m", "s", Fraction(-1, 2)), cs.Mark("n", "s", Fraction(2)))
    for curve in (cs.CurveModel(comps, (("A", "B"),), sites, marks),
                  cs.CurveModel(comps, (("A", "B"), ("B", "C")))):
        assert _Invariants(curve).genera == {"A": -1, "B": 1, "C": 0}


def test_mark_faults_raise_in_the_validators_order():
    # A duplicate mark id comes before a mark on an unknown site in the
    # validator's order, and so in the table's.
    curve = cs.CurveModel(
        (cs.Component("A", 1),), (), (cs.MarkSite("s", "A"),),
        (cs.Mark("m", "s", Fraction(1, 4)), cs.Mark("n", "nope", Fraction(1, 4)),
         cs.Mark("m", "s", Fraction(1, 4))))
    assert [v.code for v in cs.validate_curve(curve).violations] == ["duplicate-mark", "unknown-site"]
    with pytest.raises(ValueError, match="^duplicate mark ids$"):
        cs.arithmetic_genus(curve)


def counted_tables(monkeypatch) -> list[int]:
    """Wrap ``_Invariants.__init__`` so that each table built adds one to
    the returned list's only entry."""
    built, init = [0], _Invariants.__init__

    def counting(self, *args, **kw):
        built[0] += 1
        init(self, *args, **kw)

    monkeypatch.setattr(_Invariants, "__init__", counting)
    return built


def test_each_call_builds_one_table(monkeypatch, tmp_path, capsys):
    # A genus-one chain of four components, polarized by eight times the
    # dualizing sheaf (stable, inside the degree guard): each public call
    # that reads the curve, and each bounds command, builds the invariants
    # table once; the component bounds reuse the table the datum's check
    # built.
    ids = ("A", "B", "C", "D")
    curve = cs.CurveModel(tuple(cs.Component(c, 1) for c in ids), tuple(zip(ids, ids[1:])))
    pol = cs.Polarization({"A": 8, "B": 16, "C": 16, "D": 8})
    vec = dict(pol.degrees)
    datum = cs.two_weight_datum(curve, pol, {"A"})
    stair = cs.increments_from_profiles(datum)[1]
    calls = {
        "subcurves": lambda: cs.subcurves(curve), "arithmetic_genus": lambda: cs.arithmetic_genus(curve),
        "linking_nodes": lambda: cs.linking_nodes(curve, {"A"}), "omega_degree": lambda: cs.omega_degree(curve),
        "classify_weighted": lambda: cs.classify_weighted(curve), "stabilize": lambda: cs.stabilize(curve),
        "weighted_chi": lambda: cs.weighted_chi(curve),
        "weighted_degree_total": lambda: cs.weighted_degree_total(curve),
        "degree_bound_constants": lambda: cs.degree_bound_constants(curve),
        "extremes_for_total": lambda: cs.extremes_for_total(curve, 48, {"A"}),
        "extremes": lambda: cs.extremes(curve, pol, {"A"}),
        "slope_check_interval": lambda: cs.slope_check_interval(curve, pol),
        "slope_check_h0": lambda: cs.slope_check_h0(curve, pol),
        "equivalence_report": lambda: cs.equivalence_report(curve, pol),
        "h0_regime": lambda: cs.h0_regime(curve, pol), "is_extremal": lambda: cs.is_extremal(curve, pol),
        "is_line_exception": lambda: cs.is_line_exception(curve, pol, frozenset({"A"})),
        "is_balanced": lambda: cs.is_balanced(curve, vec), "find_twist": lambda: cs.find_twist(curve, vec),
        "linking_matrix": lambda: cs.linking_matrix(curve),
        "degree_class_group": lambda: cs.degree_class_group(curve),
        "slope_margin": lambda: cs.slope_margin(curve, pol, {"A"}),
        "df_two_weight": lambda: cs.df_two_weight(curve, pol, {"A"}),
        "is_proportional": lambda: cs.is_proportional(curve, pol), "k_stable": lambda: cs.k_stable(curve, pol),
        "two_weight_datum": lambda: cs.two_weight_datum(curve, pol, {"A"}),
        "two_weight_closed_form": lambda: cs.two_weight_closed_form(curve, pol, {"A"}),
        "validate_datum": lambda: cs.validate_datum(datum, curve, pol),
        "chow_report": lambda: cs.chow_report(datum, curve, pol),
        "chow_weight": lambda: cs.chow_weight(datum, curve, pol),
        "mumford_weight": lambda: cs.mumford_weight(datum, curve, pol),
        "marked_weight": lambda: cs.marked_weight(datum, curve),
        "chow_weight_lower_bound": lambda: cs.chow_weight_lower_bound(datum, curve, pol),
        "primary_indices": lambda: cs.primary_indices(stair, curve, pol),
        "component_multiplicity_bound":
            lambda: cs.component_multiplicity_bound(stair, datum.rho, Fraction(1, 2), curve, pol),
    }
    curve_path, datum_path = tmp_path / "curve.json", tmp_path / "datum.json"
    curve_path.write_text(json.dumps(curve_to_json(curve)))
    datum_path.write_text(json.dumps(datum_to_json(datum)))
    calls["cli bounds"] = lambda: main(["bounds", "--curve", str(curve_path), "--polarization",
                                        "A=8,B=16,C=16,D=8", "--ops", str(datum_path)])
    built = counted_tables(monkeypatch)
    tables = {}
    for name, call in calls.items():
        built[0] = 0
        call()
        tables[name] = built[0]
    assert json.loads(capsys.readouterr().out)["command"] == "bounds"
    assert tables == dict.fromkeys(calls, 1)
