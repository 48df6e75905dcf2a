"""The minimum cut in front of the verdict scans: its value against a
brute-force minimum over the walk, the three fast-pathed scans against
the per-subcurve reference, and Stable verdicts at r = 24 without a
single walk step."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
import reference_scans as ref
from curvestab.curve import _Invariants
from test_scan_walk import chain, differential_curve, outcome

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def multigraph(rng: random.Random, r: int) -> cs.CurveModel:
    """Connected dual graph on r components: a random tree, then extra
    nodes that may repeat a pair (parallel nodes) or name one component
    twice (self-nodes)."""
    ids = [f"C{i}" for i in range(r)]
    nodes = [(ids[rng.randrange(i)], ids[i]) for i in range(1, r)]
    for _ in range(rng.randint(0, 2 * r)):
        nodes.append((rng.choice(ids), rng.choice(ids)))
    if nodes and rng.random() < 0.5:
        nodes.append(rng.choice(nodes))
    return cs.CurveModel(tuple(cs.Component(c, rng.randint(0, 2)) for c in ids), tuple(nodes))


def brute_least(inv: _Invariants, weights: list[int], lam: int):
    values = [sum(w for i, w in enumerate(weights) if mask >> i & 1) + lam * ell
              for mask, *_, ell in inv.walk(dict.fromkeys(inv.ids, 0))]
    return min(values, default=None)


def test_least_cut_matches_brute_force_minimum():
    rng = random.Random(8080)
    signs = set()
    for _ in range(300):
        curve = multigraph(rng, rng.randint(1, 8))
        inv = _Invariants(curve)
        weights = [rng.randint(-30, 30) for _ in inv.ids]
        if rng.random() < 0.3:  # weights summing to zero, as the scans' are
            weights[-1] -= sum(weights)
        lam = rng.randint(1, 6)
        least = inv.least_cut(weights, lam)
        assert least == brute_least(inv, weights, lam), (curve, weights, lam)
        if least is not None:
            signs.add((least > 0) - (least < 0))
    assert signs == {-1, 0, 1}


def test_least_cut_declines_without_a_proper_subcurve_or_with_an_unknown_node():
    single = cs.CurveModel((cs.Component("C", 2),))
    assert _Invariants(single).least_cut([5], 1) is None
    dangling = cs.CurveModel((cs.Component("A", 1), cs.Component("B", 1)), (("A", "B"), ("A", "Z")))
    assert _Invariants(dangling).least_cut([3, -3], 1) is None


@PROPERTY
@given(rng=st.integers(0, 2 ** 32 - 1).map(random.Random), units=st.integers(0, 3),
       k=st.integers(3, 6))
def test_fast_pathed_scans_match_the_reference(rng, units, k):
    # Polarizations at the window centres, moved off them by 0-3 units.
    curve = differential_curve(rng)
    inv = _Invariants(curve)
    degrees = {c: max(1, round(k * (om + inv.weights[c]) - inv.weights[c] / 2))
               for c, om in inv.omegas.items()}
    src, dst = rng.choice(inv.ids), rng.choice(inv.ids)
    if degrees[src] > units:
        degrees[src] -= units
        degrees[dst] += units
    pol = cs.Polarization(degrees)
    for connected_only in (False, True):
        for name in ("slope_check_interval", "slope_check_h0"):
            got = outcome(getattr(cs, name), curve, pol, connected_only=connected_only)
            assert got == outcome(getattr(ref, name), curve, pol, connected_only=connected_only), name
    assert outcome(cs.is_balanced, curve, degrees) == outcome(ref.is_balanced, curve, degrees)


def counted_walks(monkeypatch) -> list[int]:
    """Wrap ``_Invariants.walk`` so that each walk's step count lands in
    the returned list; a walk created and never read counts 0."""
    steps, walk = [], _Invariants.walk

    def counting(self, *args, **kw):
        it = walk(self, *args, **kw)
        steps.append(0)
        slot = len(steps) - 1

        def counted():
            for item in it:
                steps[slot] += 1
                yield item
        return counted()

    monkeypatch.setattr(_Invariants, "walk", counting)
    return steps


def test_stable_r24_chain_takes_no_walk_step(monkeypatch):
    curve, pol = chain(24)
    steps = counted_walks(monkeypatch)
    assert cs.slope_check_interval(curve, pol) == cs.StabilityVerdict("Stable")
    assert cs.slope_check_interval(curve, pol, connected_only=True) == cs.StabilityVerdict("Stable")
    assert cs.slope_check_h0(curve, pol) == cs.StabilityVerdict("Stable")
    assert cs.is_balanced(curve, pol.degrees) == cs.BalanceReport(ok=True)
    assert steps == [0, 0, 0, 0]


def test_unstable_chain_still_walks_every_subcurve(monkeypatch):
    curve, pol = chain(10)
    ids = curve.component_ids
    shifted = cs.Polarization(dict(pol.degrees, **{ids[0]: pol.of(ids[0]) + 3, ids[-1]: pol.of(ids[-1]) - 3}))
    steps = counted_walks(monkeypatch)
    verdict = cs.slope_check_interval(curve, shifted)
    assert verdict.status == "Unstable" and verdict == ref.slope_check_interval(curve, shifted)
    assert not cs.is_balanced(curve, shifted.degrees).ok
    assert steps == [2 ** 10 - 2] * 2
