"""Slope stability: extremes windows, both criteria, their exact
per-subcurve correspondence, degree-bound constants and extremality."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
import reference_scans as ref
from curvestab.curve import _Invariants
from conftest import (
    bitmask_invariants,
    canonical_multiple,
    genus_zero_curve,
    pol,
    random_curve,
    random_positive_curve,
    random_raw_curve,
    random_reducible_positive_curve,
    random_weighted_stable_curve,
    regime_polarization,
)
from test_scan_walk import differential_curve


def test_witness_rows_name_the_fields_witness_takes_after_subcurve():
    # _verdict fills each Witness by position from a row's tail, and check
    # writes the tail under these names.
    assert cs.slope._WITNESSED == tuple(f.name for f in dataclasses.fields(cs.Witness))[1:]


def test_weighted_chi_examples(f2, f4):
    assert cs.weighted_chi(f2) == 1
    assert cs.weighted_chi(f4) == 2
    tri = cs.CurveModel(
        components=(cs.Component("C", 0),),
        sites=tuple(cs.MarkSite(f"p{i}", "C") for i in range(3)),
        marks=tuple(cs.Mark(f"x{i}", f"p{i}", Fraction(1, 2)) for i in range(3)))
    assert cs.weighted_chi(tri) == Fraction(1, 2)


def test_extremes_examples(f2, f4):
    w = cs.extremes(f2, pol(f2, 10, 10), {"C1"})
    assert (w.lower, w.upper) == (Fraction(19, 2), Fraction(21, 2))
    w1 = cs.extremes(f2, pol(f2, 10, 10), {"C1"})
    w2 = cs.extremes(f2, pol(f2, 10, 10), {"C2"})
    assert w1.upper + w2.lower == 20
    w4 = cs.extremes(f4, pol(f4, 11, 9), {"P"})
    assert (w4.lower, w4.upper) == (Fraction(9), Fraction(10))


def test_extremes_requires_positive_total():
    c = cs.CurveModel(
        components=(cs.Component("C1", 0), cs.Component("C2", 0)), nodes=(("C1", "C2"),))
    with pytest.raises(ValueError, match="total weighted degree non-positive"):
        cs.extremes(c, pol(c, 5, 5), {"C1"})


def test_interval_witnesses_match_bitmask_oracle():
    # Windows rebuilt from independently recounted invariants give the same
    # witnesses, in lexicographic order of the sorted component ids.
    rng = random.Random(131)
    kinds = set()
    checked = 0
    while checked < 80:
        raw = random_raw_curve(rng)
        ref = bitmask_invariants(*raw)
        full = frozenset(c.id for c in raw[0])
        _, _, omega_all, weight_all, _ = ref[full]
        total = omega_all + weight_all
        if total <= 0:
            continue
        degs = {cid: rng.randint(1, 9) for cid in sorted(full)}
        d = sum(degs.values())
        expected = []
        for sub in sorted(ref.keys() - {full}, key=lambda s: tuple(sorted(s))):
            _, ell, omega, weight, _ = ref[sub]
            center = (omega + weight) / total * (d + weight_all / 2) - weight / 2
            lower, upper = center - Fraction(ell, 2), center + Fraction(ell, 2)
            value = Fraction(sum(degs[c] for c in sub))
            if value <= lower:
                side, bound = "lower", lower
            elif value >= upper:
                side, bound = "upper", upper
            else:
                continue
            kind = "attained" if value == bound else "violated"
            expected.append(cs.Witness(sub, value, lower, upper, side, kind))
            kinds.add(kind)
        verdict = cs.slope_check_interval(cs.CurveModel(*raw), cs.Polarization(degs))
        assert verdict.witnesses == tuple(expected)
        checked += 1
    assert kinds == {"attained", "violated"}


def test_interval_verdicts(f2, f4):
    assert cs.slope_check_interval(f2, pol(f2, 10, 10)).status == "Stable"
    v = cs.slope_check_interval(f2, pol(f2, 11, 9))
    assert v.status == "Unstable"
    assert frozenset({"C2"}) in {w.subcurve for w in v.witnesses if w.kind == "violated"}
    v4 = cs.slope_check_interval(f4, pol(f4, 11, 9))
    assert v4.status == "StrictlySemistable"
    (w,) = [w for w in v4.witnesses if w.subcurve == frozenset({"P"})]
    assert w.kind == "attained" and w.side == "lower" and w.value == 9


def test_h0_verdicts(f2, f4):
    assert cs.slope_check_h0(f2, pol(f2, 10, 10)).status == "Stable"
    v = cs.slope_check_h0(f2, pol(f2, 11, 9))
    assert v.status == "Unstable"
    assert {w.subcurve for w in v.witnesses} == {frozenset({"C2"})}
    assert cs.slope_check_h0(f4, pol(f4, 11, 9)).status == "StrictlySemistable"
    irr = cs.CurveModel(components=(cs.Component("C", 3),))
    assert cs.slope_check_h0(irr, cs.Polarization({"C": 1})).status == "Stable"


def test_h0_guard(f2):
    with pytest.raises(ValueError, match="degree too small"):
        cs.slope_check_h0(f2, pol(f2, 2, 2))


def test_h0_rejects_a_curve_without_components():
    with pytest.raises(ValueError, match="^curve has no components$"):
        cs.slope_check_h0(cs.CurveModel(()), cs.Polarization({}))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(rng=st.integers(0, 2 ** 32 - 1).map(random.Random), below=st.booleans())
def test_h0_margin_is_scaled_lower_margin(rng, below):
    # Exact identity: the section-count margin at a subcurve, in the
    # reference's Riemann-Roch quotient form and cleared of its two section
    # counts, equals half the total weighted dualizing degree times the
    # distance to the library's lower extreme, wherever both counts are
    # positive, at degrees below the guard and above it.
    while True:
        c = differential_curve(rng)
        inv = _Invariants(c)
        total = inv.omega(inv.full, weighted=True)
        if len(inv.ids) > 1 and total > 0:
            break
    guard = {cid: 2 * inv.genera[cid] + inv.links[cid] + 1 for cid in inv.ids}
    p = cs.Polarization({cid: rng.randint(1, 3) if below else g + rng.randint(0, 4) for cid, g in guard.items()})
    h0_all = ref._sections(inv, p, inv.full)
    for sub in ref.subcurves(c):
        margin = ref._margin(inv, p, sub, h0_all)
        if margin is None:
            assert min(h0_all, ref._sections(inv, p, sub)) <= 0
            continue
        lower = cs.extremes(c, p, sub).lower
        assert margin * ref._sections(inv, p, sub) * h0_all == total / 2 * (p.deg(sub) - lower)


def test_h0_at_a_non_positive_total_matches_the_reference():
    # Genus-0 chains (weighted total -2 plus at most two light marks) and
    # unmarked cycles (total 0), inside the degree guard: the interval
    # windows need a positive total, the section-count test does not, and
    # reads the sign of the same room there with no cut screen.  The rooms
    # of a subcurve and of its complement add up to 2 D t l_Y <= 0, and a
    # line of a chain or cycle and its complement are both connected, so
    # nothing here is Stable.
    rng = random.Random(31)
    statuses = set()
    for _ in range(80):
        c = genus_zero_curve(rng, rng.randint(2, 7), rng.random() < 0.5)
        assert cs.omega_degree(c, weighted=True) <= 0
        p = cs.Polarization({cid: cs.linking_nodes(c, {cid}) + 1 + rng.randint(0, 3) for cid in c.component_ids})
        for connected_only in (False, True):
            got = cs.slope_check_h0(c, p, connected_only=connected_only)
            assert got == ref.slope_check_h0(c, p, connected_only=connected_only)
            statuses.add(got.status)
        with pytest.raises(ValueError, match="total weighted degree non-positive"):
            cs.slope_check_interval(c, p)
    assert statuses == {"StrictlySemistable", "Unstable"}


def test_equivalence_in_regime():
    rng = random.Random(13)
    for _ in range(60):
        c = random_positive_curve(rng)
        p = regime_polarization(rng, c)
        rep = cs.equivalence_report(c, p)
        assert rep.regime == "ok"
        assert rep.disagreements == ()
        assert rep.interval_status == rep.h0_status


def test_equivalence_below_regime_is_flagged(f2):
    rep = cs.equivalence_report(f2, pol(f2, 1, 1))
    assert rep.regime == "below large-degree regime"


def test_equivalence_vacuous_on_irreducible():
    irr = cs.CurveModel(components=(cs.Component("C", 2),))
    rep = cs.equivalence_report(irr, cs.Polarization({"C": 12}))
    assert rep.entries == () and rep.disagreements == ()
    assert rep.interval_status == rep.h0_status == "Stable"


def test_degree_bound_constants_examples(f4):
    g1 = cs.CurveModel(
        components=(cs.Component("C", 1),),
        sites=(cs.MarkSite("p1", "C"), cs.MarkSite("p2", "C")),
        marks=(cs.Mark("x1", "p1", Fraction(1)), cs.Mark("x2", "p2", Fraction(1))))
    consts = cs.degree_bound_constants(g1)
    assert consts.c_min == Fraction(1, 2)
    assert consts.c == Fraction(1, 8)
    g3 = cs.CurveModel(components=(cs.Component("C", 3),))
    consts3 = cs.degree_bound_constants(g3)
    assert consts3.c_min == Fraction(1, 2) and consts3.c == Fraction(1, 8)


def reference_degree_bound_constants(curve):
    """The constants by the mark-subset loop: ``c_min`` is the least
    positive half subset sum of the weights plus ``k/2``, ``k`` in 0..2."""
    chi = cs.weighted_chi(curve)
    if chi <= 0:
        raise ValueError("total weighted degree non-positive")
    weights = [m.weight for m in curve.marks]
    n = len(weights)
    c_min = None
    for k in range(0, 3):
        for size in range(0, n + 1):
            for combo in itertools.combinations(weights, size):
                val = sum(combo, Fraction(0)) / 2 + Fraction(k, 2)
                if val > 0 and (c_min is None or val < c_min):
                    c_min = val
    c = min(1 / (4 * chi), min(c_min / chi, Fraction(1, 2) / chi))
    g = cs.arithmetic_genus(curve)
    m = max(4 * chi * (6 + Fraction(n, 2)),
            max(6 * g + Fraction(n, 2) - 6, chi * (2 + n) / (2 * c_min)))
    return cs.slope.DegreeBoundConstants(c=c, m=m, c_min=c_min)


def test_degree_bound_constants_match_subset_loop():
    rng = random.Random(71)
    weights = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]
    checked = 0
    while checked < 150:
        base = random_curve(rng, marked=False)
        n = rng.randint(0, 8)
        sites = tuple(cs.MarkSite(f"p{i}", rng.choice(base.component_ids)) for i in range(n))
        marks = tuple(cs.Mark(f"x{i}", f"p{i}", rng.choice(weights)) for i in range(n))
        curve = cs.CurveModel(base.components, base.nodes, sites, marks)
        if not cs.validate_curve(curve).ok:
            continue
        try:
            expected = reference_degree_bound_constants(curve)
        except ValueError:
            with pytest.raises(ValueError, match="non-positive"):
                cs.degree_bound_constants(curve)
            continue
        assert cs.degree_bound_constants(curve) == expected
        checked += 1


def test_degree_bound_constants_past_the_enumeration_cap():
    n = 25
    curve = cs.CurveModel(
        components=(cs.Component("C", 2),),
        sites=tuple(cs.MarkSite(f"p{i}", "C") for i in range(n)),
        marks=tuple(cs.Mark(f"x{i}", f"p{i}", Fraction(1, 5 + i)) for i in range(n)))
    consts = cs.degree_bound_constants(curve)
    assert consts.c_min == Fraction(1, 2 * (5 + n - 1))


def test_degree_bound_diagnostic():
    # Slope-stable pairs at total degree past M: every connected proper
    # subcurve clears C times the total, except possibly exempt lines.
    rng = random.Random(41)
    done = 0
    while done < 50:
        c = random_weighted_stable_curve(rng, marked=False)
        if len(c.component_ids) < 2:
            continue
        consts = cs.degree_bound_constants(c)
        base, _ = canonical_multiple(c, k_min=max(20, int(consts.m) + 1))
        assert cs.slope_check_interval(c, base).status == "Stable"
        assert base.total >= consts.m
        for sub in cs.subcurves(c, connected_only=True):
            if cs.is_line_exception(c, base, sub):
                continue
            assert base.total * consts.c <= base.deg(sub)
        done += 1


def test_extremes_identities_random():
    rng = random.Random(59)
    for _ in range(200):
        c = random_reducible_positive_curve(rng, max_components=6)
        p = regime_polarization(rng, c, jitter=4)
        full = c.full_subcurve()
        for sub in cs.subcurves(c):
            w = cs.extremes(c, p, sub)
            assert w.upper - w.lower == cs.linking_nodes(c, sub)
            wc = cs.extremes(c, p, full - sub)
            assert w.upper + wc.lower == p.total


def test_union_identity_disjoint_pairs():
    rng = random.Random(67)
    for _ in range(100):
        c = random_reducible_positive_curve(rng, max_components=5)
        p = regime_polarization(rng, c, jitter=4)
        subs = cs.subcurves(c)
        for s1 in subs:
            for s2 in subs:
                if s1 & s2 or s1 | s2 == c.full_subcurve():
                    continue
                between = sum(1 for a, b in c.nodes
                              if (a in s1 and b in s2) or (a in s2 and b in s1))
                w1, w2 = cs.extremes(c, p, s1), cs.extremes(c, p, s2)
                wu = cs.extremes(c, p, s1 | s2)
                assert wu.upper + between == w1.upper + w2.upper
                assert wu.lower - between == w1.lower + w2.lower


def test_witness_symmetry():
    # A subcurve below its lower extreme forces the complement above its
    # upper extreme, by the same amount.
    rng = random.Random(101)
    seen = 0
    while seen < 25:
        c = random_reducible_positive_curve(rng)
        p = regime_polarization(rng, c)
        # perturb away from the window on purpose
        degs = dict(p.degrees)
        ids = sorted(degs)
        degs[ids[0]] += 7
        degs[ids[-1]] = max(1, degs[ids[-1]] - 7)
        p = cs.Polarization(degs)
        full = c.full_subcurve()
        for sub in cs.subcurves(c):
            w = cs.extremes(c, p, sub)
            below = w.lower - p.deg(sub)
            if below > 0:
                wc = cs.extremes(c, p, full - sub)
                assert p.deg(full - sub) - wc.upper == below
                seen += 1


def test_canonical_multiple_unmarked_is_stable():
    rng = random.Random(3)
    done = 0
    while done < 40:
        c = random_weighted_stable_curve(rng, marked=False)
        p, _ = canonical_multiple(c)
        assert cs.slope_check_interval(c, p).status == "Stable"
        done += 1


def test_canonical_multiple_marked_can_fail():
    # A marked weighted-stable curve whose canonical multiple is slope
    # unstable; twisting exists precisely to repair such cases.
    c = cs.CurveModel(
        components=(cs.Component("C", 2), cs.Component("P", 0)),
        nodes=(("C", "P"),),
        sites=tuple(cs.MarkSite(f"p{i}", "P") for i in range(3)),
        marks=tuple(cs.Mark(f"x{i}", f"p{i}", Fraction(1, 2)) for i in range(3)))
    assert cs.classify_weighted(c).status == "Stable"
    p, _ = canonical_multiple(c, k_min=2)
    assert p.degrees == {"C": 12, "P": 2}
    assert cs.slope_check_interval(c, p).status == "Unstable"
    twisted = cs.find_twist(c, dict(p.degrees))
    assert twisted is not None
    assert cs.is_balanced(c, twisted.vector).ok


def test_is_extremal(f2, f4):
    assert cs.is_extremal(f2, pol(f2, 10, 10)).extremal  # vacuous: no endpoint hit
    rep = cs.is_extremal(f4, pol(f4, 11, 9))
    assert not rep.extremal
    assert rep.witnesses[0][0] == frozenset({"P"})
    with pytest.raises(ValueError, match="unstable input"):
        cs.is_extremal(f2, pol(f2, 13, 7))


def test_is_extremal_positive_case():
    # Lower extreme attained, but the attaining subcurve links through a
    # degree-one line: extremal.
    c = cs.CurveModel(
        components=(cs.Component("C", 1), cs.Component("P", 0)),
        nodes=(("C", "P"), ("C", "P")))
    p = pol(c, 11, 1)
    v = cs.slope_check_interval(c, p)
    assert v.status == "StrictlySemistable"
    lower_hits = {w.subcurve for w in v.witnesses if w.side == "lower"}
    assert frozenset({"C"}) in lower_hits
    rep = cs.is_extremal(c, p)
    assert rep.extremal
