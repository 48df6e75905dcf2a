"""The integer subcurve walk behind every scan, against the per-subcurve
``Fraction`` reference in ``reference_scans``: equal results, order
included, equal errors, bounded memory and the enumeration cap."""

import random
import tracemalloc
from fractions import Fraction

import pytest

import curvestab as cs
import reference_scans as ref
from conftest import random_raw_curve

WEIGHTS = (Fraction(0), Fraction(1, 3), Fraction(2, 5))


def outcome(fn, *args, **kw):
    """The result, or the type and message of the ``ValueError`` raised."""
    try:
        return fn(*args, **kw)
    except ValueError as exc:
        return ("raises", str(exc))


def differential_curve(rng: random.Random) -> cs.CurveModel:
    """Random curve with r <= 8, self-nodes and marks of weight 0, 1/3
    and 2/5, each mark on its own site."""
    comps, nodes, sites, marks = random_raw_curve(rng)
    marks = tuple(cs.Mark(m.id, m.site, rng.choice(WEIGHTS)) for m in marks)
    return cs.CurveModel(comps, nodes, sites, marks)


def polarizations(rng: random.Random, curve: cs.CurveModel):
    """Near the window centers (mostly Stable), moved off them by a few
    units (attained or violated), and small degrees below the h0 guard."""
    table = cs.curve._Invariants(curve)
    k = rng.randint(3, 6)
    center = {c: max(1, round(k * (om + table.weights[c]) - table.weights[c] / 2))
              for c, om in table.omegas.items()}
    yield cs.Polarization(center)
    ids = sorted(center)
    for units in (1, 2, 3):
        moved = dict(center)
        src, dst = rng.choice(ids), rng.choice(ids)
        if moved[src] > units:
            moved[src] -= units
            moved[dst] += units
        yield cs.Polarization(moved)
    yield cs.Polarization({c: rng.randint(1, 3) for c in ids})


def test_scans_match_per_subcurve_reference():
    rng = random.Random(2024)
    statuses, below_guard, sizes, twists = set(), 0, set(), 0
    for _ in range(30):
        curve = differential_curve(rng)
        sizes.add(len(curve.component_ids))
        for pol in polarizations(rng, curve):
            for connected_only in (False, True):
                for name in ("slope_check_interval", "slope_check_h0", "equivalence_report"):
                    got = outcome(getattr(cs, name), curve, pol, connected_only=connected_only)
                    assert got == outcome(getattr(ref, name), curve, pol, connected_only=connected_only)
                    if name == "slope_check_interval" and isinstance(got, cs.StabilityVerdict):
                        statuses.add(got.status)
            below_guard += not cs.h0_regime(curve, pol)
            assert outcome(cs.k_stable, curve, pol) == outcome(ref.k_stable, curve, pol)
            vector = dict(pol.degrees)
            assert outcome(cs.is_balanced, curve, vector) == outcome(ref.is_balanced, curve, vector)
            vector[rng.choice(sorted(vector))] = -1
            assert outcome(cs.is_balanced, curve, vector) == outcome(ref.is_balanced, curve, vector)
        vector = {c: rng.randint(0, 4) for c in curve.component_ids}
        got = outcome(cs.find_twist, curve, vector)
        assert got == outcome(ref.find_twist, curve, vector)
        if isinstance(got, cs.TwistResult):
            expected = ref.find_twist(curve, vector)
            assert list(got.vector.items()) == list(expected.vector.items())
            assert list(got.coefficients.items()) == list(expected.coefficients.items())
            twists += 1
    assert statuses == {"Stable", "StrictlySemistable", "Unstable"}
    assert below_guard and twists
    assert min(sizes) == 1 and max(sizes) == 8


def family_curve(rng: random.Random, shape: str, r: int) -> cs.CurveModel:
    """A tree, a cycle or a chain of bananas (two or three parallel nodes
    per link) on r components of genus 0-2, with marks of weight 0, 1/3
    and 2/5."""
    ids = [f"C{i}" for i in range(r)]
    if shape == "tree":
        nodes = [(ids[rng.randrange(i)], ids[i]) for i in range(1, r)]
    elif shape == "cycle":  # a self-node at r = 1, two parallel nodes at r = 2
        nodes = list(zip(ids, ids[1:] + ids[:1]))
    else:
        nodes = [(a, b) for a, b in zip(ids, ids[1:]) for _ in range(rng.randint(2, 3))]
    sites = [cs.MarkSite(f"p{i}", rng.choice(ids)) for i in range(rng.randint(0, 3))]
    marks = [cs.Mark(f"x{i}", site.id, rng.choice(WEIGHTS)) for i, site in enumerate(sites)]
    return cs.CurveModel(tuple(cs.Component(c, rng.randint(0, 2)) for c in ids), tuple(nodes),
                         tuple(sites), tuple(marks))


def displaced(rng: random.Random, curve: cs.CurveModel, vector: dict, moves: int) -> dict:
    """The vector moved inside its degree class by random linking-matrix rows."""
    lm = cs.linking_matrix(curve)
    out = dict(vector)
    for _ in range(moves):
        row, sign = rng.choice(lm.rows), rng.choice((-1, 1))
        for cid, x in zip(lm.ids, row):
            out[cid] += sign * x
    return out


def twist_outcome(fn, *args, **kw):
    """``outcome``, with a twist's vector and coefficients as ordered item lists."""
    got = outcome(fn, *args, **kw)
    if isinstance(got, cs.TwistResult):
        return list(got.vector.items()), list(got.coefficients.items())
    return got


def test_twist_and_balance_match_reference_on_graph_families():
    rng = random.Random(515)
    seen = set()
    for shape in ("tree", "cycle", "banana"):
        for r in range(1, 9):
            for _ in range(3 if r <= 6 else 1):  # the reference box search is slow past r = 6
                curve = family_curve(rng, shape, r)
                center = next(polarizations(rng, curve)).degrees
                for moves, cap in ((0, 24), (1, 24), (3, 24), (2, max(1, r - 1))):
                    vector = displaced(rng, curve, center, moves)
                    got = twist_outcome(cs.find_twist, curve, vector, cap=cap)
                    assert got == twist_outcome(ref.find_twist, curve, vector, cap=cap), (shape, r, vector)
                    balance = outcome(cs.is_balanced, curve, vector, cap=cap)
                    assert balance == outcome(ref.is_balanced, curve, vector, cap=cap), (shape, r, vector)
                    seen.add("no twist" if got is None else "twist" if got[0] != "raises" else got[1])
                    seen.add(balance.ok if isinstance(balance, cs.BalanceReport) else balance[1])
    capped = {f"enumeration cap exceeded: {r} components > {r - 1}" for r in range(2, 9)}
    assert {"twist", "no twist", True, False} <= seen and capped <= seen


def test_k_stable_matches_reference_on_proportional_polarizations():
    rng = random.Random(77)
    checked = 0
    while checked < 30:
        comps, nodes, _, _ = random_raw_curve(rng)
        curve = cs.CurveModel(comps, nodes)
        table = cs.curve._Invariants(curve)
        if cs.arithmetic_genus(curve) < 2 or min(table.omegas.values()) <= 0:
            continue
        pol = cs.Polarization({c: 3 * om for c, om in table.omegas.items()})
        report = cs.k_stable(curve, pol)
        assert report.verdict == "KStable"
        assert report == ref.k_stable(curve, pol)
        checked += 1


def chain(r: int) -> tuple[cs.CurveModel, cs.Polarization]:
    """Unmarked chain of genus-one components at five times its dualizing
    degrees: Stable, with every subcurve strictly inside its window."""
    ids = [f"C{i:02d}" for i in range(r)]
    curve = cs.CurveModel(tuple(cs.Component(c, 1) for c in ids),
                          tuple(zip(ids, ids[1:])))
    ends = {ids[0], ids[-1]}
    return curve, cs.Polarization({c: 5 * (1 if c in ends else 2) for c in ids})


def test_interval_scan_memory_is_bounded():
    curve, pol = chain(16)
    tracemalloc.start()
    try:
        verdict = cs.slope_check_interval(curve, pol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == cs.StabilityVerdict("Stable")
    assert peak < 1_000_000


def test_twist_search_memory_is_bounded():
    curve, _ = chain(16)
    tracemalloc.start()
    try:
        twist = cs.find_twist(curve, dict.fromkeys(curve.component_ids, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cs.is_balanced(curve, twist.vector).ok
    assert peak < 1_000_000


def test_every_scan_checks_the_cap_after_the_same_checks_as_before():
    curve, pol = chain(25)
    ids = curve.component_ids
    missing = cs.Polarization({c: 5 for c in ids[1:]})
    low = cs.Polarization(dict.fromkeys(ids, 1))
    negative = dict(pol.degrees, **{ids[3]: -1})
    empty_box = dict.fromkeys(ids, -1)  # total -25: every singleton window lies below zero
    rational = cs.CurveModel(tuple(cs.Component(c, 0) for c in ids), tuple(zip(ids, ids[1:])))
    cases = [
        ("slope_check_interval", (curve, pol)), ("slope_check_interval", (curve, missing)),
        ("slope_check_interval", (rational, pol)),
        ("slope_check_h0", (curve, pol)), ("slope_check_h0", (curve, low)),
        ("equivalence_report", (curve, pol)), ("equivalence_report", (rational, pol)),
        ("k_stable", (curve, pol)), ("k_stable", (rational, pol)),
        ("is_balanced", (curve, pol.degrees)), ("is_balanced", (curve, negative)),
        ("is_balanced", (rational, pol.degrees)),
        ("find_twist", (curve, pol.degrees)), ("find_twist", (curve, empty_box)),
    ]
    capped = 0
    for name, args in cases:
        got = outcome(getattr(cs, name), *args)
        assert got == outcome(getattr(ref, name), *args), name
        capped += got == ("raises", "enumeration cap exceeded: 25 components > 24")
    assert capped == 7
    for connected_only in (False, True):
        with pytest.raises(ValueError, match="enumeration cap exceeded"):
            cs.slope_check_interval(curve, pol, connected_only=connected_only)
    with pytest.raises(ValueError, match="enumeration cap exceeded"):
        cs.is_extremal(curve, pol)
