"""The cut sign in front of the verdict scans: its sign against a
brute-force minimum over the walk, the three fast-pathed scans against
the per-subcurve reference, and Stable verdicts at r = 24, ``check
--criterion both`` at r = 16, twist searches at r = 12 and 16 and a
vector balanced at a cut sign of 0 without a single walk step, and the
screened verdicts at r = 16 without the walk's tables."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
import reference_scans as ref
from curvestab import curve as curve_mod
from curvestab.cli import main
from curvestab.curve import _Invariants
from curvestab.io import curve_to_json
from curvestab.slope import _interval_windows
from conftest import check_both
from test_scan_walk import chain, differential_curve, displaced, outcome

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


def zero_sum_weights(rng: random.Random, r: int, lam: int) -> list[int]:
    """Weights summing to zero, as the scans' do.  Most are a few +/-
    transfers between components, often of whole multiples of ``lam``, so
    that a subcurve's margin lands on 0 often; the rest are uniform."""
    if rng.random() < 0.6:
        weights = [0] * r
        for _ in range(rng.randint(1, 3)):
            x = lam * rng.randint(1, 3) if rng.random() < 0.7 else rng.randint(1, 12)
            weights[rng.randrange(r)] += x
            weights[rng.randrange(r)] -= x
        return weights
    weights = [rng.randint(-30, 30) for _ in range(r)]
    weights[-1] -= sum(weights)
    return weights


@PROPERTY
@given(rng=st.integers(0, 2 ** 32 - 1).map(random.Random), r=st.integers(1, 8), lam=st.integers(1, 6))
def test_cut_sign_matches_brute_force_sign(rng, r, lam):
    inv = _Invariants(multigraph(rng, r))
    weights = zero_sum_weights(rng, r, lam)
    least = brute_least(inv, weights, lam)
    sign = inv.cut_sign(weights, lam)
    assert sign == (None if least is None else (least > 0) - (least < 0))
    if sign is not None:
        with pytest.raises(ValueError, match="sum to"):
            inv.cut_sign([weights[0] + 1, *weights[1:]], lam)


def test_zero_sum_weights_reach_every_sign():
    # The property above is only as strong as its draws: ties at 0 must be common.
    rng = random.Random(8080)
    signs = Counter()
    for _ in range(400):
        r, lam = rng.randint(1, 8), rng.randint(1, 6)
        signs[_Invariants(multigraph(rng, r)).cut_sign(zero_sum_weights(rng, r, lam), lam)] += 1
    assert set(signs) == {None, -1, 0, 1} and signs[0] >= 20, signs


def test_cut_sign_declines_without_a_proper_subcurve_or_with_an_unknown_node():
    single = cs.CurveModel((cs.Component("C", 2),))
    assert _Invariants(single).cut_sign([0], 1) is None
    # a node to an unknown component is refused when the table is built
    dangling = cs.CurveModel((cs.Component("A", 1), cs.Component("B", 1)), (("A", "B"), ("A", "Z")))
    with pytest.raises(ValueError, match="node endpoint 'Z' is not a component"):
        _Invariants(dangling)


@PROPERTY
@given(rng=st.integers(0, 2 ** 32 - 1).map(random.Random), units=st.integers(0, 3),
       k=st.integers(3, 6))
def test_fast_pathed_scans_match_the_reference(rng, units, k):
    # Polarizations at the window centres, moved off them by 0-3 units.
    curve = differential_curve(rng)
    inv = _Invariants(curve)
    degrees = {c: max(1, round(k * (om + inv.mark_weight({c})) - inv.mark_weight({c}) / 2))
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
    if len(inv.ids) > 1:  # every degree is at least 1: the failures are the violated interval witnesses
        verdict = outcome(cs.slope_check_interval, curve, pol)
        if isinstance(verdict, cs.StabilityVerdict):
            failures = tuple(("interval", w.subcurve, w.value, w.lower, w.upper)
                             for w in verdict.witnesses if w.kind == "violated")
            verdict = cs.BalanceReport(ok=not failures, failures=failures)
        assert outcome(cs.is_balanced, curve, degrees) == verdict


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


def test_is_balanced_takes_no_walk_step_at_cut_sign_zero(monkeypatch):
    # Balanced windows are closed: a subcurve on its bound (cut sign 0) passes without the walk.
    curve, _ = chain(4)
    on_bound, outside = (dict(zip(curve.component_ids, degrees)) for degrees in ((2, 2, 3, 2), (4, 1, 3, 1)))
    inv = _Invariants(curve)
    assert _interval_windows(inv, sum(on_bound.values())).room_sign(inv, on_bound) == 0
    steps = counted_walks(monkeypatch)
    assert cs.is_balanced(curve, on_bound) == cs.BalanceReport(ok=True)
    assert steps == [0]
    assert cs.slope_check_interval(curve, cs.Polarization(on_bound)).status == "StrictlySemistable"
    report = cs.is_balanced(curve, outside)
    assert not report.ok and report == ref.is_balanced(curve, outside)
    assert steps == [0, 2 ** 4 - 2, 2 ** 4 - 2]


def test_check_both_on_a_stable_r16_chain_takes_no_walk_step(monkeypatch, tmp_path):
    curve, pol = chain(16)
    path, out = tmp_path / "chain.json", tmp_path / "report.json"
    path.write_text(json.dumps(curve_to_json(curve)))
    literal = ",".join(f"{c}={d}" for c, d in pol.degrees.items())
    steps = counted_walks(monkeypatch)
    for connected_only in (False, True):
        got = check_both(curve, pol, connected_only=connected_only)
        assert (got.interval, got.h0, got.h0_status, got.regime, got.disagreements) == (
            cs.StabilityVerdict("Stable"), cs.StabilityVerdict("Stable"), "Stable", "ok", ())
    argv = ["check", "--curve", str(path), "--polarization", literal, "--criterion", "both", "--output", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert (report["status"], report["h0_status"], report["h0_witnesses"]) == ("Stable", "Stable", [])
    assert steps == [0, 0, 0]


def test_a_screened_verdict_builds_no_walk_table(monkeypatch):
    curve, pol = chain(16)

    def unbuilt(*_):
        raise AssertionError("the walk built its neighbour table")

    monkeypatch.setattr(curve_mod, "_neighbours", unbuilt)
    stable = cs.StabilityVerdict("Stable")
    assert cs.slope_check_interval(curve, pol, connected_only=True) == stable
    assert cs.slope_check_h0(curve, pol, connected_only=True) == stable
    got = check_both(curve, pol, connected_only=True)
    assert (got.interval, got.h0, got.h0_status) == (stable, stable, "Stable")


def test_unstable_chain_still_walks_every_subcurve(monkeypatch):
    curve, pol = chain(10)
    ids = curve.component_ids
    shifted = cs.Polarization(dict(pol.degrees, **{ids[0]: pol.of(ids[0]) + 3, ids[-1]: pol.of(ids[-1]) - 3}))
    steps = counted_walks(monkeypatch)
    verdict = cs.slope_check_interval(curve, shifted)
    assert verdict.status == "Unstable" and verdict == ref.slope_check_interval(curve, shifted)
    assert not cs.is_balanced(curve, shifted.degrees).ok
    assert steps == [2 ** 10 - 2] * 2


def test_find_twist_takes_no_walk_step(monkeypatch):
    curve, _ = chain(16)
    balanced = cs.find_twist(curve, dict.fromkeys(curve.component_ids, 4)).vector
    ids = [f"C{i:02d}" for i in range(12)]
    cycle = cs.CurveModel(tuple(cs.Component(c, 1) for c in ids), tuple(zip(ids, ids[1:] + ids[:1])))
    moved = displaced(random.Random(12), cycle, dict.fromkeys(ids, 10), 3)
    steps = counted_walks(monkeypatch)
    assert cs.find_twist(curve, balanced).vector == balanced
    twist = cs.find_twist(cycle, moved)
    assert steps and not any(steps)
    assert twist.vector != moved and cs.is_balanced(cycle, twist.vector).ok
