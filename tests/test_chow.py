"""Chow weights: the multiplicity formula, marked-point weights, and the
two-weight construction against its closed form."""

import random
from fractions import Fraction

import pytest

import curvestab as cs
from conftest import pol, random_reducible_positive_curve, regime_polarization


def _single_point_datum(curve, node_case: bool):
    """Weight pattern (1, 0, ..., 0) on a degree-12 genus-2 curve whose
    distinguished point is a node or a regular point."""
    rho = tuple([1] + [0] * 10)
    simple_zero = tuple([0] * 10 + [1])
    if node_case:
        p = cs.Polarization({"C1": 6, "C2": 6})
        profiles = []
        for cid in ("C1", "C2"):
            profiles.append(cs.PointProfile(
                id=f"q_{cid}", component=cid, kind="node-branch:C1~C2#0",
                vanish=tuple([0] + [1] * 10)))
            profiles.extend(
                cs.PointProfile(id=f"t{j}_{cid}", component=cid, vanish=simple_zero)
                for j in range(5))
        return cs.OnePSDatum(m=10, rho=rho, hbar={"C1": 10, "C2": 10},
                             profiles=tuple(profiles)), p
    p = cs.Polarization({"C": 12})
    profiles = [cs.PointProfile(id="q0", component="C", vanish=tuple([0] + [1] * 10))]
    profiles += [cs.PointProfile(id=f"t{j}", component="C", vanish=simple_zero)
                 for j in range(11)]
    return cs.OnePSDatum(m=10, rho=rho, hbar={"C": 10}, profiles=tuple(profiles)), p


def test_mumford_weight_single_point(f2):
    irr = cs.CurveModel(components=(cs.Component("C", 2),))
    datum, p = _single_point_datum(irr, node_case=False)
    assert cs.mumford_weight(datum, irr, p) == Fraction(13, 11)
    datum2, p2 = _single_point_datum(f2, node_case=True)
    assert cs.mumford_weight(datum2, f2, p2) == Fraction(2, 11)


def test_mumford_weight_zero_subgroup(f2):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C2"})
    zero = cs.OnePSDatum(m=datum.m, rho=(0,) * (datum.m + 1), hbar=datum.hbar,
                         profiles=datum.profiles, imax=datum.imax)
    assert cs.mumford_weight(zero, f2, p) == 0
    assert cs.chow_weight(zero, f2, p) == 0


def test_mumford_weight_rejects_inconsistent(f2):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C2"})
    broken = cs.OnePSDatum(m=datum.m, rho=datum.rho, hbar=datum.hbar,
                           profiles=datum.profiles[:-1], imax=datum.imax)
    with pytest.raises(ValueError, match="inconsistent datum"):
        cs.mumford_weight(broken, f2, p)


def test_unknown_hbar_component_is_a_problem_not_a_key_error(f2):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C2"})
    stray = cs.OnePSDatum(m=datum.m, rho=datum.rho, hbar=dict(datum.hbar, X=0),
                          profiles=datum.profiles + (cs.PointProfile(id="q", component="X", vanish=(0,)),),
                          imax=datum.imax)
    assert cs.validate_datum(stray, f2, p) == ["unknown component 'X' in hbar"]
    assert cs.validate_datum(stray) == []  # without a curve there is nothing to check it against
    for fn in (cs.chow_report, cs.chow_weight_lower_bound):
        with pytest.raises(ValueError, match="inconsistent datum: unknown component 'X' in hbar"):
            fn(stray, f2, p)


def test_a_datum_entry_that_is_not_an_integer_is_rejected(f2):
    # m used to be kept as it came, and rho, hbar and imax went through int().
    datum = cs.two_weight_datum(f2, pol(f2, 10, 10), {"C2"})
    fields = dict(m=datum.m, rho=datum.rho, hbar=datum.hbar, profiles=datum.profiles, imax=datum.imax)
    for field, value, message in (
            ("m", 1.9, "m is not an integer: 1.9"), ("m", True, "m is not an integer: True"),
            ("rho", datum.rho[:-1] + (0.0,), "rho entry is not an integer: 0.0"),
            ("hbar", dict(datum.hbar, C1=Fraction(21, 2)), "hbar on 'C1' is not an integer: Fraction(21, 2)"),
            ("imax", dict(datum.imax, C2=2.5), "imax on 'C2' is not an integer: 2.5")):
        with pytest.raises(ValueError) as info:
            cs.OnePSDatum(**dict(fields, **{field: value}))
        assert str(info.value) == message
    same = cs.OnePSDatum(**dict(fields, rho=list(datum.rho)))
    assert same == datum and type(same.rho) is tuple and same.hbar is not datum.hbar


@pytest.mark.parametrize("fn", [
    cs.two_weight_datum, cs.two_weight_closed_form, cs.is_line_exception, cs.df_two_weight,
    cs.slope_margin, cs.extremes, lambda curve, p, sub: cs.linking_nodes(curve, sub),
], ids=["two_weight_datum", "two_weight_closed_form", "is_line_exception", "df_two_weight",
        "slope_margin", "extremes", "linking_nodes"])
def test_unknown_subcurve_ids_raise_value_error(f2, fn):
    with pytest.raises(ValueError, match=r"unknown components in subcurve: \['Z'\]"):
        fn(f2, pol(f2, 10, 10), frozenset({"Z"}))


def test_is_line_exception_on_the_empty_subcurve_is_false(f2):
    assert cs.is_line_exception(f2, pol(f2, 10, 10), frozenset()) is False


def test_is_line_exception_needs_an_unmarked_line():
    # A degree-one line with two linking nodes is exempt until a mark, even
    # one of weight 0, sits on it.
    comps, nodes = (cs.Component("A", 1), cs.Component("P", 0), cs.Component("B", 1)), (("A", "P"), ("P", "B"))
    line = cs.CurveModel(comps, nodes)
    marked = cs.CurveModel(comps, nodes, (cs.MarkSite("p", "P"),), (cs.Mark("x", "p", 0),))
    p = cs.Polarization({"A": 10, "P": 1, "B": 10})
    assert cs.is_line_exception(line, p, frozenset({"P"})) is True
    assert cs.is_line_exception(marked, p, frozenset({"P"})) is False
    assert cs.is_line_exception(marked, p, frozenset({"A"})) is False


def test_marked_weight_examples(f2, f4):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C1"})
    assert cs.marked_weight(datum, f2) == 0  # no marks at all
    p49 = pol(f4, 11, 9)
    d4 = cs.two_weight_datum(f4, p49, {"P"})
    assert cs.marked_weight(d4, f4) == -1
    generic = cs.OnePSDatum(m=d4.m, rho=d4.rho, hbar=d4.hbar,
                            profiles=d4.profiles, imax={})  # marks in generic position
    expected = sum(mk.weight for mk in f4.marks) * Fraction(sum(d4.rho), d4.m + 1)
    assert cs.marked_weight(generic, f4) == expected
    with pytest.raises(ValueError, match="missing imax"):
        cs.marked_weight(generic, f4, require_imax=True)


def test_marked_weight_checks_the_datum_against_the_curve(f4):
    # An imax entry for a mark the curve lacks is a problem for the mark
    # part alone as for the full weight.
    p49 = pol(f4, 11, 9)
    d4 = cs.two_weight_datum(f4, p49, {"P"})
    stray = cs.OnePSDatum(m=d4.m, rho=d4.rho, hbar=d4.hbar, profiles=d4.profiles, imax=dict(d4.imax, zz=0))
    for call in (lambda: cs.marked_weight(stray, f4), lambda: cs.chow_report(stray, f4, p49)):
        with pytest.raises(ValueError, match="inconsistent datum: imax names unknown mark 'zz'"):
            call()


def test_marked_weight_matches_direct_filtration_sum(f4):
    # The implemented reduction telescopes the filtration-dimension sum;
    # recompute that sum directly and compare.
    rng = random.Random(7)
    p49 = pol(f4, 11, 9)
    for sub in cs.subcurves(f4):
        datum = cs.two_weight_datum(f4, p49, sub)
        direct = Fraction(0)
        for mark in f4.marks:
            imax = datum.imax.get(mark.id, datum.m)
            inner = sum(
                datum.rho[i + 1] - datum.rho[i]
                for i in range(datum.m)
                if i >= imax  # the span of the mark sits inside the filtration level
            )
            direct += mark.weight * (Fraction(sum(datum.rho), datum.m + 1) + inner)
        assert cs.marked_weight(datum, f4) == direct


def test_chow_weight_fixture_values(f2, f4):
    p49 = pol(f4, 11, 9)
    datum = cs.two_weight_datum(f4, p49, {"P"})
    rep = cs.chow_report(datum, f4, p49)
    assert (rep.omega, rep.mu, rep.total) == (1, -1, 0)
    p = pol(f2, 10, 10)
    d2 = cs.two_weight_datum(f2, p, {"C2"})
    assert cs.chow_weight(d2, f2, p) == Fraction(1, 19)


def test_two_weight_datum_structure(f2, f4):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C1"})
    assert cs.total_multiplicity(datum) == 21
    assert sum(datum.rho) == 10  # span dimension of the subcurve
    assert cs.is_staircase(datum).ok
    assert cs.validate_datum(datum, f2, p) == []
    p49 = pol(f4, 11, 9)
    d4 = cs.two_weight_datum(f4, p49, {"P"})
    assert cs.total_multiplicity(d4) == 19
    assert sum(d4.rho) == 10
    assert all(d4.imax[mk.id] == 9 for mk in f4.marks)
    deg1 = cs.two_weight_datum(
        cs.CurveModel(
            components=(cs.Component("C", 1), cs.Component("P", 0)),
            nodes=(("C", "P"), ("C", "P"))),
        cs.Polarization({"C": 11, "P": 1}), {"P"})
    assert cs.total_multiplicity(deg1) == 2 * 1 + 2


def test_two_weight_guard(f2):
    # span of the subcurve exhausts the whole space: no zero weight left
    with pytest.raises(ValueError, match="degree too small"):
        cs.two_weight_datum(f2, pol(f2, 1, 1), {"C1"})
    # an outside component cannot even carry its linking-node branches
    skinny = cs.CurveModel(
        components=(cs.Component("C1", 0), cs.Component("C2", 3)),
        nodes=(("C1", "C2"),) * 3)
    with pytest.raises(ValueError, match="degree too small"):
        cs.two_weight_datum(skinny, cs.Polarization({"C1": 2, "C2": 30}), {"C2"})
    with pytest.raises(ValueError, match="proper"):
        cs.two_weight_datum(f2, pol(f2, 10, 10), f2.full_subcurve())


def test_two_weight_closed_form_examples(f2, f4):
    assert cs.two_weight_closed_form(f4, pol(f4, 11, 9), {"P"}) == 0
    assert cs.two_weight_closed_form(f2, pol(f2, 10, 10), {"C2"}) == Fraction(1, 19)
    assert cs.two_weight_closed_form(f2, pol(f2, 11, 9), {"C2"}) < 0


def test_two_weight_consistency_random():
    rng = random.Random(19)
    for _ in range(40):
        c = random_reducible_positive_curve(rng)
        p = regime_polarization(rng, c)
        for sub in cs.subcurves(c):
            datum = cs.two_weight_datum(c, p, sub)
            assert cs.chow_weight(datum, c, p) == cs.two_weight_closed_form(c, p, sub)


def test_sign_pattern_matches_h0_verdict():
    rng = random.Random(37)
    for _ in range(40):
        c = random_reducible_positive_curve(rng)
        p = regime_polarization(rng, c)
        signs = [cs.two_weight_closed_form(c, p, sub) for sub in cs.subcurves(c)]
        status = cs.slope_check_h0(c, p).status
        if all(s > 0 for s in signs):
            assert status == "Stable"
        elif all(s >= 0 for s in signs):
            assert status == "StrictlySemistable"
        else:
            assert status == "Unstable"


def test_weights_scale_linearly(f4):
    p49 = pol(f4, 11, 9)
    datum = cs.two_weight_datum(f4, p49, {"C1"})
    for c in (2, 3, 7):
        scaled = cs.OnePSDatum(
            m=datum.m, rho=tuple(c * v for v in datum.rho),
            hbar=datum.hbar, profiles=datum.profiles, imax=datum.imax)
        assert cs.mumford_weight(scaled, f4, p49) == c * cs.mumford_weight(datum, f4, p49)
        assert cs.marked_weight(scaled, f4) == c * cs.marked_weight(datum, f4)
        assert cs.chow_weight(scaled, f4, p49) == c * cs.chow_weight(datum, f4, p49)
