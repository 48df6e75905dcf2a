"""Hypothesis properties of the subcurve walk and the windows it feeds:
the complement and union identities, interval and section-count
witnesses inside the guard, and the enumeration order.

Hypothesis draws the seed of each example's random curve; examples come
from a fixed seed (``derandomize``) and are capped in number, so the
suite stays deterministic and quick.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
from conftest import (
    bitmask_invariants,
    random_raw_curve,
    random_reducible_positive_curve,
    regime_polarization,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)
randoms = st.integers(0, 2 ** 32 - 1).map(random.Random)


def between(curve: cs.CurveModel, s1, s2) -> int:
    return sum(1 for a, b in curve.nodes if (a in s1 and b in s2) or (a in s2 and b in s1))


@PROPERTY
@given(rng=randoms)
def test_complement_identity(rng):
    # lower(Y) = d - upper(Y^c): the room above the lower extreme at Y is
    # the room below the upper extreme at the complement.
    curve = random_reducible_positive_curve(rng, max_components=6)
    pol = regime_polarization(rng, curve, jitter=4)
    full = curve.full_subcurve()
    entries = {e.subcurve: e for e in cs.equivalence_report(curve, pol).entries}
    for sub, entry in entries.items():
        assert entry.interval_margins[0] == entries[full - sub].interval_margins[1]
        window, other = cs.extremes(curve, pol, sub), cs.extremes(curve, pol, full - sub)
        assert window.lower == pol.total - other.upper
        assert entry.interval_margins[0] == pol.deg(sub) - window.lower


@PROPERTY
@given(rng=randoms, picks=st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=8))
def test_union_identity(rng, picks):
    # On disjoint subcurves the window bounds add up, corrected by the
    # nodes joining the two parts.
    curve = random_reducible_positive_curve(rng, max_components=6)
    pol = regime_polarization(rng, curve, jitter=4)
    full = curve.full_subcurve()
    lower_room = {e.subcurve: e.interval_margins[0] for e in cs.equivalence_report(curve, pol).entries}
    subs = list(lower_room)
    for i, j in zip(picks, picks[1:]):
        s1, s2 = subs[i % len(subs)], subs[j % len(subs)]
        if s1 & s2 or s1 | s2 == full:
            continue
        n = between(curve, s1, s2)
        w1, w2, wu = (cs.extremes(curve, pol, s) for s in (s1, s2, s1 | s2))
        assert wu.upper + n == w1.upper + w2.upper
        assert wu.lower - n == w1.lower + w2.lower
        assert lower_room[s1 | s2] + n == lower_room[s1] + lower_room[s2]


@PROPERTY
@given(rng=randoms, shift=st.integers(0, 6))
def test_interval_and_section_count_witnesses_agree_inside_the_guard(rng, shift):
    curve = random_reducible_positive_curve(rng)
    degs = dict(regime_polarization(rng, curve).degrees)
    ids = sorted(degs)
    degs[ids[0]] += shift
    pol = cs.Polarization(degs)
    if not cs.h0_regime(curve, pol):
        return
    for connected_only in (False, True):
        interval = cs.slope_check_interval(curve, pol, connected_only=connected_only)
        h0 = cs.slope_check_h0(curve, pol, connected_only=connected_only)
        assert h0.status == interval.status
        assert [(w.subcurve, w.kind) for w in h0.witnesses] == \
            [(w.subcurve, w.kind) for w in interval.witnesses if w.side == "lower"]


@PROPERTY
@given(rng=randoms)
def test_subcurves_come_in_bitmask_oracle_order(rng):
    raw = random_raw_curve(rng)
    curve = cs.CurveModel(*raw)
    full = curve.full_subcurve()
    order = sorted(bitmask_invariants(*raw), key=lambda s: tuple(sorted(s)))
    assert cs.subcurves(curve, proper_only=False) == order
    assert cs.subcurves(curve) == [s for s in order if s != full]
    assert cs.subcurves(curve, connected_only=True) == \
        [s for s in order if s != full and cs.is_connected(curve, s)]
