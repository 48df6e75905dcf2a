"""K-stability: the two-weight invariant values, the proportionality
verdict, and the exact sign relation to the slope machinery."""

import inspect
import random
from fractions import Fraction

import pytest

import curvestab as cs
from conftest import (
    canonical_multiple,
    has_positive_component_dualizing_degrees,
    pol,
    random_unmarked_k_curve,
)


def test_df_values(f2):
    assert cs.df_two_weight(f2, pol(f2, 10, 10), {"C2"}) == Fraction(-1, 40)
    assert cs.df_two_weight(f2, pol(f2, 11, 9), {"C2"}) == Fraction(1, 40)
    # proportional share: only the linking-node term survives
    p = pol(f2, 10, 10)
    assert cs.df_two_weight(f2, p, {"C1"}) == -Fraction(1, 20) * Fraction(1, 2)


def test_df_scope_errors(f2, f4):
    elliptic = cs.CurveModel(components=(cs.Component("C", 1),))
    with pytest.raises(ValueError, match="dualizing sheaf not positive"):
        cs.df_two_weight(elliptic, cs.Polarization({"C": 5}), frozenset())
    with pytest.raises(ValueError, match="unmarked"):
        cs.df_two_weight(f4, pol(f4, 11, 9), {"P"})


def test_k_stable_fixvalues(f2):
    rep = cs.k_stable(f2, pol(f2, 10, 10))
    assert rep.verdict == "KStable" and rep.proportional
    assert all(e.value < 0 for e in rep.entries)
    rep2 = cs.k_stable(f2, pol(f2, 11, 9))
    assert rep2.verdict == "NotKStable"
    assert rep2.witness == frozenset({"C2"})
    values = {e.subcurve: e.value for e in rep2.entries}
    assert values[frozenset({"C2"})] == Fraction(1, 40)


def test_k_stable_irreducible():
    irr = cs.CurveModel(components=(cs.Component("C", 3),))
    rep = cs.k_stable(irr, cs.Polarization({"C": 7}))
    assert rep.verdict == "KStable" and rep.entries == ()


def test_k_stable_dualizing_zero_component():
    c = cs.CurveModel(
        components=(cs.Component("C", 2), cs.Component("P", 0)),
        nodes=(("C", "P"), ("C", "P")))
    rep = cs.k_stable(c, cs.Polarization({"C": 10, "P": 2}))
    assert rep.verdict == "NotKStable"
    assert "dualizing-degree-zero" in rep.reason


def test_df_vs_closed_form_sign_relation():
    # Exact rescaling identity on unmarked curves: the invariant is the
    # closed-form weight scaled by -(m+1)/(2 deg); signs always oppose.
    rng = random.Random(103)
    done = 0
    while done < 40:
        c = random_unmarked_k_curve(rng)
        if not has_positive_component_dualizing_degrees(c):
            continue
        done += 1
        p, _ = canonical_multiple(c)
        degs = dict(p.degrees)
        ids = sorted(degs)
        degs[ids[0]] += rng.randint(0, 3)  # push off proportionality sometimes
        p = cs.Polarization(degs)
        g = cs.arithmetic_genus(c)
        m1 = p.total + 1 - g
        for sub in cs.subcurves(c):
            df = cs.df_two_weight(c, p, sub)
            try:
                closed = cs.two_weight_closed_form(c, p, sub)
            except ValueError:
                continue  # construction infeasible at this degree
            assert df == -Fraction(m1, 2 * p.total) * closed


def test_antisymmetry_at_proportionality():
    rng = random.Random(107)
    done = 0
    while done < 30:
        c = random_unmarked_k_curve(rng)
        if not has_positive_component_dualizing_degrees(c):
            continue
        p, _ = canonical_multiple(c)
        g = cs.arithmetic_genus(c)
        for sub in cs.subcurves(c):
            ell = cs.linking_nodes(c, sub)
            expected = -Fraction(g - 1, p.total) * Fraction(ell, 2)
            assert cs.df_two_weight(c, p, sub) == expected
        done += 1


def test_proportionality_agrees_with_margin_scan():
    rng = random.Random(109)
    for i in range(60):
        c = random_unmarked_k_curve(rng)
        if i % 2 == 0 and has_positive_component_dualizing_degrees(c):
            p, _ = canonical_multiple(c)
        else:
            p = cs.Polarization({cid: rng.randint(2, 25) for cid in c.component_ids})
        rep = cs.k_stable(c, p)
        any_positive_margin = any(e.margin > 0 for e in rep.entries)
        assert rep.proportional == (not any_positive_margin)
        if rep.proportional:
            assert all(e.value < 0 for e in rep.entries)


def test_slope_margin_rejects_a_nonpositive_dualizing_total(f2):
    # Two rational components joined by two nodes have genus 1, so the
    # dualizing total 2g - 2 is zero; a tree of them has genus 0.
    banana = cs.CurveModel((cs.Component("A", 0), cs.Component("B", 0)), (("A", "B"), ("A", "B")))
    tree = cs.CurveModel((cs.Component("A", 0), cs.Component("B", 0)), (("A", "B"),))
    for curve in (banana, tree):
        with pytest.raises(ValueError, match="dualizing sheaf not positive"):
            cs.slope_margin(curve, cs.Polarization({"A": 3, "B": 3}), {"A"})
    p = pol(f2, 11, 9)
    margins = {e.subcurve: e.margin for e in cs.k_stable(f2, p).entries}
    assert {sub: cs.slope_margin(f2, p, sub) for sub in margins} == margins


# Every public function with a ``pol`` parameter, found from the signatures,
# so that a new reader joins the test below by itself.
POLARIZATION_READERS = sorted(
    name for name in cs.__all__
    if inspect.isfunction(getattr(cs, name)) and "pol" in inspect.signature(getattr(cs, name)).parameters)

# A value for each other parameter a reader may take: two genus-two
# components A and B, a datum and a staircase on them.
READER_ARGUMENTS = {
    "curve": cs.CurveModel((cs.Component("A", 2), cs.Component("B", 2)), (("A", "B"),)),
    "datum": cs.OnePSDatum(m=1, rho=(1, 0), hbar={"A": 1, "B": 1}),
    "stair": cs.ComponentStair("A", 1, (1,), {}, (0, 0), ()),
    "cids": {"A"}, "sub": frozenset({"A"}), "rho": (1, 0), "epsilon": Fraction(1, 2),
}


@pytest.mark.parametrize("degrees, message", [
    ({"A": 3}, "polarization missing components"),
    ({"A": 3, "B": 3, "Z": 1}, "unknown component in polarization"),
], ids=["missing", "unknown"])
@pytest.mark.parametrize("name", POLARIZATION_READERS)
def test_polarization_readers_check_the_polarization(name, degrees, message):
    # A polarization that misses B or names an unknown Z is rejected by
    # each reader, through the invariants table it builds.
    fn = getattr(cs, name)
    kwargs = {"pol": cs.Polarization(degrees)}
    for param in inspect.signature(fn).parameters.values():
        if param.name in READER_ARGUMENTS:
            kwargs[param.name] = READER_ARGUMENTS[param.name]
        elif param.name != "pol":
            assert param.default is not param.empty, f"no test argument for {name}({param.name})"
    with pytest.raises(ValueError, match=message):
        fn(**kwargs)


@pytest.mark.parametrize("fn", [
    cs.slope_margin, cs.df_two_weight, cs.extremes, cs.two_weight_closed_form,
    lambda curve, p, sub: cs.linking_nodes(curve, sub),
], ids=["slope_margin", "df_two_weight", "extremes", "two_weight_closed_form", "linking_nodes"])
def test_subcurve_readers_reject_the_whole_curve(fn):
    # Two genus-two components: each reader asks for a proper subcurve.
    curve = cs.CurveModel((cs.Component("A", 2), cs.Component("B", 2)), (("A", "B"),))
    with pytest.raises(ValueError, match="subcurve must be proper"):
        fn(curve, cs.Polarization({"A": 5, "B": 5}), {"A", "B"})


@pytest.mark.parametrize("fn", [
    lambda curve, p, sub: cs.linking_nodes(curve, sub), cs.extremes,
    lambda curve, p, sub: cs.extremes_for_total(curve, p.total, sub), cs.slope_margin,
    cs.df_two_weight, cs.two_weight_datum, cs.two_weight_closed_form,
], ids=["linking_nodes", "extremes", "extremes_for_total", "slope_margin", "df_two_weight",
        "two_weight_datum", "two_weight_closed_form"])
def test_a_subcurve_argument_is_checked_once_in_one_order(fn):
    # Empty, then unknown ids (even when the known ones are the whole
    # curve), then the whole curve: one message per fault.
    curve = cs.CurveModel((cs.Component("A", 2), cs.Component("B", 2)), (("A", "B"),))
    p = cs.Polarization({"A": 8, "B": 8})
    for sub, message in ((set(), "empty subcurve"), ({"A", "B", "Z"}, r"unknown components in subcurve: \['Z'\]"),
                         ({"A", "B"}, "subcurve must be proper")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(curve, p, sub)
    fn(curve, p, {"A"})
