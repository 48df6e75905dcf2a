"""``check --criterion both`` (``slope._check(..., "both")``, its witness
lists as verdicts by ``conftest.check_both``: the scan that the two
verdicts share, plus a walk for the section counts below the degree
guard) against the three scans it replaces: ``slope_check_interval``,
then ``equivalence_report``, then ``slope_check_h0`` inside the degree
guard or on a single component.  Equal verdicts, witnesses, statuses,
regime and disagreements, and the same error first, the enumeration cap
included."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
from curvestab.curve import _Invariants
from conftest import check_both
from test_scan_walk import chain, differential_curve, outcome

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def three_scans(curve, pol, connected_only=False, cap=cs.ENUMERATION_CAP):
    """The interval verdict, the section-count verdict (None where it was
    not run), the reported section-count status, the regime and the
    disagreements, as the three separate scans give them."""
    scan = {"connected_only": connected_only, "cap": cap}
    interval = cs.slope_check_interval(curve, pol, **scan)
    eq = cs.equivalence_report(curve, pol, **scan)
    h0 = None
    if eq.regime == "ok" or len(curve.component_ids) == 1:
        h0 = cs.slope_check_h0(curve, pol, **scan)
    return interval, h0, eq.h0_status if h0 is None else h0.status, eq.regime, eq.disagreements


def one_walk(curve, pol, **scan):
    got = check_both(curve, pol, **scan)
    return got.interval, got.h0, got.h0_status, got.regime, got.disagreements


def moved_polarization(rng, curve, units):
    """Degrees at the window centres (multiple ``k`` of the weighted
    dualizing degree), ``units`` moved from one component to another."""
    inv = _Invariants(curve)
    k = rng.randint(3, 6)
    degrees = {c: max(1, round(k * (om + inv.mark_weight({c})) - inv.mark_weight({c}) / 2))
               for c, om in inv.omegas.items()}
    src, dst = rng.choice(inv.ids), rng.choice(inv.ids)
    if degrees[src] > units:
        degrees[src] -= units
        degrees[dst] += units
    return cs.Polarization(degrees)


@PROPERTY
@given(rng=st.integers(0, 2 ** 32 - 1).map(random.Random), units=st.integers(0, 3),
       below=st.booleans())
def test_one_walk_matches_the_three_scans(rng, units, below):
    curve = differential_curve(rng)
    if below:  # small degrees, mostly under the section-count guard
        pol = cs.Polarization({c: rng.randint(1, 3) for c in curve.component_ids})
    else:
        pol = moved_polarization(rng, curve, units)
    for connected_only in (False, True):
        want = outcome(three_scans, curve, pol, connected_only=connected_only)
        assert outcome(one_walk, curve, pol, connected_only=connected_only) == want


def test_one_walk_covers_every_regime_and_verdict():
    rng = random.Random(2718)
    seen = set()
    for _ in range(400):
        curve = differential_curve(rng)
        below = rng.random() < 0.3
        pol = (cs.Polarization({c: rng.randint(1, 3) for c in curve.component_ids}) if below
               else moved_polarization(rng, curve, rng.randint(0, 3)))
        got = outcome(one_walk, curve, pol)
        assert got == outcome(three_scans, curve, pol)
        if got[0] != "raises":
            seen.add((got[3], got[0].status, got[1] is None, bool(got[4])))
    assert {status for _, status, _, _ in seen} == {"Stable", "StrictlySemistable", "Unstable"}
    assert {regime for regime, *_ in seen} == {"ok", "below large-degree regime"}
    assert any(disagrees for *_, disagrees in seen)


def test_one_component_gets_a_section_count_verdict_in_either_regime():
    curve = cs.CurveModel((cs.Component("C", 2),))
    for degree in (1, 3, 12):
        pol = cs.Polarization({"C": degree})
        got = check_both(curve, pol)
        assert one_walk(curve, pol) == three_scans(curve, pol)
        assert got.h0 == cs.StabilityVerdict("Stable") and got.disagreements == ()
    assert check_both(curve, cs.Polarization({"C": 1})).regime == "below large-degree regime"


def test_one_walk_raises_what_the_interval_scan_raises_first():
    curve, pol = chain(25)
    ids = curve.component_ids
    missing = cs.Polarization({c: 5 for c in ids[1:]})
    low = cs.Polarization(dict.fromkeys(ids, 1))
    rational = cs.CurveModel(tuple(cs.Component(c, 0) for c in ids), tuple(zip(ids, ids[1:])))
    cases = [(curve, pol), (curve, missing), (rational, pol), (curve, low)]
    errors = []
    for args in cases:
        for connected_only in (False, True):
            got = outcome(one_walk, *args, connected_only=connected_only)
            assert got == outcome(three_scans, *args, connected_only=connected_only)
            errors.append(got[1])
    assert errors.count("enumeration cap exceeded: 25 components > 24") == 4
    small, small_pol = chain(4)
    assert outcome(one_walk, small, small_pol, cap=3) == ("raises", "enumeration cap exceeded: 4 components > 3")
