"""Bound functionals: staircase validation, increments, the trapezoid
estimate against exact areas, primary indices, component bounds, the
weight surrogate, shifted weights and edge reduction."""

import random
from fractions import Fraction

import pytest

import curvestab as cs
from curvestab import chow
from conftest import pol, random_reducible_positive_curve, random_staircase_profile, regime_polarization


def test_is_staircase(f2):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C1"})
    assert cs.is_staircase(datum).ok
    bad = cs.OnePSDatum(
        m=2, rho=(1, 1, 0), hbar={"C1": 2, "C2": 2},
        profiles=(cs.PointProfile(id="q", component="C1", vanish=(0, 2, 1)),))
    rep = cs.is_staircase(bad)
    assert not rep.ok and rep.violations == (("q", 2),)
    empty = cs.OnePSDatum(m=1, rho=(1, 0), hbar={"C1": 1, "C2": 1})
    assert cs.is_staircase(empty).ok


def test_increments_from_profiles():
    datum = cs.OnePSDatum(
        m=2, rho=(2, 1, 0), hbar={"C": 2},
        profiles=(cs.PointProfile(id="a", component="C", vanish=(0, 1, 2)),))
    (stair,) = cs.increments_from_profiles(datum)
    assert stair.delta == {0: 1, 1: 1}
    assert stair.widths == (0, 1, 2)
    datum2 = cs.OnePSDatum(
        m=2, rho=(2, 1, 0), hbar={"C": 2},
        profiles=(cs.PointProfile(id="a", component="C", vanish=(0, 0, 3)),))
    (stair2,) = cs.increments_from_profiles(datum2)
    assert stair2.delta == {1: 3}
    two = cs.OnePSDatum(
        m=1, rho=(1, 0), hbar={"C": 1},
        profiles=(cs.PointProfile(id="a", component="C", vanish=(0, 1)),
                  cs.PointProfile(id="b", component="C", vanish=(0, 2))))
    (stair3,) = cs.increments_from_profiles(two)
    assert stair3.delta == {0: 3}
    assert stair3.widths == (0, 3)


def test_increments_rejects_non_staircase():
    bad = cs.OnePSDatum(
        m=2, rho=(1, 1, 0), hbar={"C": 2},
        profiles=(cs.PointProfile(id="q", component="C", vanish=(0, 2, 1)),))
    with pytest.raises(ValueError, match="non-staircase"):
        cs.increments_from_profiles(bad)


@pytest.mark.parametrize("hbar, vanish, problem", [
    ({"C": 2}, (0, 1), "profile 'a': vanish list has 2 entries, expected 3"),
    ({"C": 3}, (0, 1, 2, 3), "top index 3 of component 'C' out of range"),
], ids=["short-vanish-list", "top-index-past-m"])
def test_staircase_passes_reject_an_inconsistent_datum(hbar, vanish, problem):
    # Indexing past a short vanish list or past the weights would raise a
    # bare IndexError; the datum's check names the problem instead.
    datum = cs.OnePSDatum(m=2, rho=(2, 1, 0), hbar=hbar,
                          profiles=(cs.PointProfile(id="a", component="C", vanish=vanish),))
    for fn in (cs.increments_from_profiles, cs.shifted_weights):
        with pytest.raises(ValueError, match=f"inconsistent datum: {problem}"):
            fn(datum)


def test_lower_bound_checks_the_datum_once(f2, monkeypatch):
    # chow_weight_lower_bound checks the datum against the curve, then
    # aggregates it without a second check.
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C2"})
    checks, problems = [], chow._problems
    monkeypatch.setattr(chow, "_problems", lambda *a: checks.append(1) or problems(*a))
    cs.chow_weight_lower_bound(datum, f2, p)
    assert len(checks) == 1


def test_trapezoid_bound_pinned_values():
    # Unit step: the printed estimate gives 0 while the exact clipped area
    # is 1/2 (the one-sided weakening of the same estimate is sharp at
    # 1/2, which is the number usually quoted for this profile).
    tri = cs.PointProfile(id="a", component="C", vanish=(0, 1))
    tb = cs.trapezoid_bound(tri, (1, 0), 1, 0, 1)
    assert tb.exact == Fraction(1, 2)
    assert tb.rhs == 0 and not tb.ok
    # Flat profile: empty window, estimate degenerates to minus the
    # shifted weight at the window start.
    flat = cs.PointProfile(id="f", component="C", vanish=(5, 5, 5))
    tb2 = cs.trapezoid_bound(flat, (2, 2, 2, 0), 2, 0, 2)
    assert tb2.rhs == 0 and tb2.exact == 0 and tb2.ok
    # The documented instance where the estimate is exceeded.
    steep = cs.PointProfile(id="s", component="C", vanish=(0, 1, 2))
    tb3 = cs.trapezoid_bound(steep, (3, 1, 0), 2, 0, 2)
    assert tb3.rhs == 2 and tb3.exact == Fraction(5, 2) and not tb3.ok


def test_trapezoid_bound_window_errors():
    tri = cs.PointProfile(id="a", component="C", vanish=(0, 1))
    with pytest.raises(ValueError, match="window"):
        cs.trapezoid_bound(tri, (1, 0), 1, 1, 0)
    with pytest.raises(ValueError, match="window"):
        cs.trapezoid_bound(tri, (1, 0), 1, 0, 5)


def test_primary_indices_threshold():
    datum = cs.OnePSDatum(
        m=9, rho=(9, 8, 7, 6, 5, 4, 3, 2, 1, 0), hbar={"C": 9},
        profiles=(cs.PointProfile(id="a", component="C",
                                  vanish=(0, 1, 2, 3, 4, 5, 6, 7, 8, 10)),))
    (stair,) = cs.increments_from_profiles(datum)
    curve = cs.CurveModel(
        components=(cs.Component("C", 0), cs.Component("D", 2)), nodes=(("C", "D"),))
    p = cs.Polarization({"C": 10, "D": 20})
    rep = cs.primary_indices(stair, curve, p)
    # threshold is 10 - 0 - 1 - 1 = 8: indices with next width <= 8
    assert rep.primary == tuple(i for i in stair.index_set
                                if stair.width_after(i) is not None
                                and stair.width_after(i) <= 8)
    assert rep.gap_ok


def test_primary_indices_degree_one():
    datum = cs.OnePSDatum(
        m=3, rho=(1, 1, 0, 0), hbar={"P": 3},
        profiles=(cs.PointProfile(id="a", component="P", vanish=(0, 0, 1, 1)),))
    (stair,) = cs.increments_from_profiles(datum)
    curve = cs.CurveModel(
        components=(cs.Component("P", 0), cs.Component("D", 2)), nodes=(("P", "D"),))
    p = cs.Polarization({"P": 1, "D": 20})
    rep = cs.primary_indices(stair, curve, p)
    assert rep.primary == (stair.index_set[0],)


def test_primary_indices_all_past_threshold():
    datum = cs.OnePSDatum(
        m=2, rho=(1, 1, 0), hbar={"C": 2},
        profiles=(cs.PointProfile(id="a", component="C", vanish=(0, 4, 4)),))
    (stair,) = cs.increments_from_profiles(datum)
    curve = cs.CurveModel(
        components=(cs.Component("C", 1), cs.Component("D", 1)), nodes=(("C", "D"),))
    p = cs.Polarization({"C": 4, "D": 10})
    rep = cs.primary_indices(stair, curve, p)
    assert rep.primary == () and not rep.gap_ok


def test_component_bound_on_two_weight_data(f2):
    # Inside the subcurve the bound collapses to twice the degree; outside
    # it reproduces the linking-node count; the total equals the true
    # multiplicity, so the weight surrogate is exact here.
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C2"})
    stairs = {s.component: s for s in cs.increments_from_profiles(datum)}
    eps = Fraction(1, 2)
    assert cs.component_multiplicity_bound(stairs["C2"], datum.rho, eps, f2, p) == 20
    assert cs.component_multiplicity_bound(stairs["C1"], datum.rho, eps, f2, p) == 1
    total = sum(cs.component_multiplicity_bound(stairs[cid], datum.rho, eps, f2, p)
                for cid in f2.component_ids)
    assert total == cs.total_multiplicity(datum)


def test_component_bound_degree_one_form():
    curve = cs.CurveModel(
        components=(cs.Component("C", 1), cs.Component("P", 0)),
        nodes=(("C", "P"), ("C", "P")))
    p = cs.Polarization({"C": 11, "P": 1})
    datum = cs.two_weight_datum(curve, p, {"P"})
    stairs = {s.component: s for s in cs.increments_from_profiles(datum)}
    eps = Fraction(1, 2)
    # inside component of degree one, unmarked: rectangle term only
    assert cs.component_multiplicity_bound(stairs["P"], datum.rho, eps, curve, p) == 2
    # a degree-one component with a smooth jump: one term unmarked, the
    # general form (2 + 2 eps / d) times the jump once a mark sits there,
    # even one of weight 0
    datum = cs.OnePSDatum(m=3, rho=(1, 1, 0, 0), hbar={"P": 3},
                          profiles=(cs.PointProfile(id="a", component="P", vanish=(0, 0, 1, 1)),))
    (stair,) = cs.increments_from_profiles(datum)
    curve = cs.CurveModel(components=(cs.Component("P", 0), cs.Component("D", 2)), nodes=(("P", "D"),))
    marked = cs.CurveModel(curve.components, curve.nodes, (cs.MarkSite("p", "P"),), (cs.Mark("x", "p", 0),))
    p = cs.Polarization({"P": 1, "D": 20})
    assert cs.component_multiplicity_bound(stair, datum.rho, eps, curve, p) == 1
    assert cs.component_multiplicity_bound(stair, datum.rho, eps, marked, p) == 3


def test_component_bound_zero_weights(f2):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C2"})
    zero = cs.OnePSDatum(m=datum.m, rho=(0,) * (datum.m + 1), hbar=datum.hbar,
                         profiles=datum.profiles, imax=datum.imax)
    stairs = cs.increments_from_profiles(zero)
    for s in stairs:
        assert cs.component_multiplicity_bound(s, zero.rho, Fraction(1, 2), f2, p) == 0


def test_component_bound_epsilon_range(f2):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C2"})
    (stair, _) = cs.increments_from_profiles(datum)
    with pytest.raises(ValueError, match="epsilon"):
        cs.component_multiplicity_bound(stair, datum.rho, Fraction(3, 2), f2, p)
    with pytest.raises(ValueError, match="epsilon"):
        cs.bound_validity_threshold(1, 2, Fraction(0))


def test_weight_surrogate_on_two_weight_data(f2):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C2"})
    plainzero, weightedzero = cs.chow_weight_lower_bound(datum, f2, p)
    assert plainzero == weightedzero == Fraction(1, 19)
    silent = cs.OnePSDatum(m=datum.m, rho=(0,) * (datum.m + 1), hbar=datum.hbar,
                           profiles=datum.profiles, imax=datum.imax)
    assert cs.chow_weight_lower_bound(silent, f2, p) == (0, 0)
    rng = random.Random(53)
    for _ in range(20):
        c = random_reducible_positive_curve(rng)
        q = regime_polarization(rng, c)
        for sub in cs.subcurves(c):
            datum = cs.two_weight_datum(c, q, sub)
            _, weighted = cs.chow_weight_lower_bound(datum, c, q)
            assert weighted == cs.chow_weight(datum, c, q)
            assert weighted == cs.two_weight_closed_form(c, q, sub)


def test_width_telescoping_conservation():
    # Increments telescope exactly between the base and the top width;
    # adding the remaining gap recovers the component degree.  Genuine
    # profiles (here: everything outside the compressed span) start at
    # base width zero, so for them the increments plus the gap *are* the
    # degree; the compressed span carries its degree entirely in the gap.
    rng = random.Random(131)
    for _ in range(20):
        c = random_reducible_positive_curve(rng)
        p = regime_polarization(rng, c)
        for sub in cs.subcurves(c):
            datum = cs.two_weight_datum(c, p, sub)
            for stair in cs.increments_from_profiles(datum):
                jumps = sum(stair.delta.values())
                assert jumps == stair.widths[stair.hbar] - stair.widths[0]
                gap = p.of(stair.component) - jumps
                assert jumps + gap == p.of(stair.component)
                assert stair.widths[stair.hbar] == p.of(stair.component)
                if stair.component not in sub:
                    assert stair.widths[0] == 0
                    assert gap == 0


def test_bound_validity_threshold_value():
    assert cs.bound_validity_threshold(1, 2, Fraction(1, 2)) == 2 ** 14 * 16 * 4
    assert cs.bound_validity_threshold(0, 1, Fraction(1)) == 2 ** 16


def test_shifted_weights_two_weight(f2):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C2"})
    shifted = cs.shifted_weights(datum)
    assert all(v >= 0 for v in shifted.values)
    # block-of-ones count minus the indices hit by the weight-one side
    m0_plus_1 = sum(datum.rho)
    stairs = cs.increments_from_profiles(datum)
    hit = set()
    for s in stairs:
        if datum.rho[s.hbar] == 1:
            hit.update(s.index_set)
    assert sum(shifted.values) == m0_plus_1 - len(hit)


def test_shifted_weights_single_component():
    datum = cs.OnePSDatum(
        m=2, rho=(3, 1, 0), hbar={"C": 2},
        profiles=(cs.PointProfile(id="a", component="C", vanish=(0, 1, 2)),))
    shifted = cs.shifted_weights(datum)
    assert shifted.values == (3, 1, 0)
    assert shifted.unassigned == ()
    const = cs.OnePSDatum(
        m=2, rho=(0, 0, 0), hbar={"C": 2},
        profiles=(cs.PointProfile(id="a", component="C", vanish=(0, 1, 2)),))
    assert cs.shifted_weights(const).values == (0, 0, 0)


def test_verify_on_edges():
    assert cs.verify_on_edges(lambda rho: Fraction(0), 5) == (True, None)
    ok, failing = cs.verify_on_edges(lambda rho: sum(rho) - rho[0] * len(rho), 5)
    assert not ok and failing == 1
    assert cs.verify_on_edges(lambda rho: Fraction(sum(rho)), 7) == (True, None)


def test_edge_reduction_spans_cone():
    # Any non-increasing weight vector with last entry zero is a
    # nonnegative combination of edges, so a linear functional that is
    # nonnegative on all edges is nonnegative on random such vectors.
    rng = random.Random(61)
    m = 6
    coeffs = [rng.randint(-3, 3) for _ in range(m + 1)]

    def functional(rho):
        return Fraction(sum(c * v for c, v in zip(coeffs, rho)))

    ok, _ = cs.verify_on_edges(functional, m)
    for _ in range(200):
        weights = sorted((rng.randint(0, 9) for _ in range(m)), reverse=True) + [0]
        value = functional(weights)
        if ok:
            assert value >= 0
    # and a positive combination of edges reproduces any such vector
    weights = sorted((rng.randint(0, 9) for _ in range(m)), reverse=True) + [0]
    rebuilt = [0] * (m + 1)
    for m0 in range(1, m + 1):
        lam = weights[m0 - 1] - (weights[m0] if m0 <= m - 1 else 0)
        edge = cs.edge_vector(m, m0)
        rebuilt = [r + lam * e for r, e in zip(rebuilt, edge)]
    assert rebuilt[:-1] == weights[:-1]


def test_trapezoid_windows_on_random_staircases():
    # Full-window estimates are logged against the exact areas; record the
    # counts so regressions in either direction are visible.
    rng = random.Random(47)
    held = exceeded = 0
    for _ in range(200):
        profile, rho, h = random_staircase_profile(rng)
        tb = cs.trapezoid_bound(profile, rho, h, 0, h)
        if tb.ok:
            held += 1
        else:
            exceeded += 1
        # sub-windows never raise and stay consistent with the full one
        lo = rng.randint(0, h)
        hi = rng.randint(lo, h)
        cs.trapezoid_bound(profile, rho, h, lo, hi)
    assert held + exceeded == 200


def test_trapezoid_bound_rejects_profiles_that_do_not_fit_the_top_index():
    short = cs.PointProfile(id="q", component="C", vanish=(0, 1))
    with pytest.raises(ValueError, match="vanish list must end at the component top index"):
        cs.trapezoid_bound(short, (2, 1, 0), 2, 0, 1)
    negative = cs.PointProfile(id="q", component="C", vanish=(0, -3))
    with pytest.raises(ValueError):
        cs.trapezoid_bound(negative, (1, 0), 1, 0, 1)
    short_weights = cs.PointProfile(id="q", component="C", vanish=(0, 1, 2))
    with pytest.raises(ValueError, match="top index 2 out of range"):
        cs.trapezoid_bound(short_weights, (1, 0), 2, 0, 2)
