"""The integer subcurve walk behind every scan, against the per-subcurve
``Fraction`` reference in ``reference_scans``: equal results, order
included, equal errors, exact ``Fraction`` values shared within a result,
bounded memory and the enumeration cap."""

import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

import curvestab as cs
import reference_scans as ref
from conftest import check_both, k_check_chain, random_raw_curve
from curvestab import cli
from curvestab.slope import SubcurveComparison

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
    center = {c: max(1, round(k * (om + table.mark_weight({c})) - table.mark_weight({c}) / 2))
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


def leaves(obj):
    """Every leaf of a result: dataclass fields and tuple items, taken
    recursively; a subcurve, a string or None is a leaf."""
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from leaves(getattr(obj, field.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from leaves(item)
    else:
        yield obj


def rationals(result) -> list:
    """The leaves of a result that are neither labels, subcurves, flags
    nor missing values: its rational fields."""
    return [x for x in leaves(result) if not isinstance(x, (str, frozenset, bool, type(None)))]


# The field groups of a list that one table per call builds
# (``slope._Fractions``): equal values there are one object.  A
# section-count witness's slope is built once per reduced numerator and
# denominator, and its bound once per verdict; a section-count margin is
# built directly.
SHARED = {cs.Witness: (("value",), ("lower", "upper")), cs.DFEntry: (("value",), ("margin",)),
          SubcurveComparison: (("interval_margins",),)}


def item_lists(obj):
    """The tuples of witnesses, entries or comparisons in a result, taken
    recursively."""
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from item_lists(getattr(obj, field.name))
    elif isinstance(obj, tuple):
        if obj and all(type(x) in SHARED for x in obj):
            yield obj
        for item in obj:
            yield from item_lists(item)


def shared_groups(result):
    """The values of each ``SHARED`` field group of each list in a
    result."""
    for items in item_lists(result):
        h0_witnesses = type(items[0]) is cs.Witness and items[0].lower is None
        for fields in (("value",), ("upper",)) if h0_witnesses else SHARED[type(items[0])]:
            values = (getattr(item, name) for item in items for name in fields)
            yield [x for value in values for x in (value if isinstance(value, tuple) else (value,))]


def assert_shared(result) -> None:
    """Assert that every rational field is a ``Fraction`` and that equal
    ones in one ``shared_groups`` group are one object."""
    for x in rationals(result):
        assert type(x) is Fraction, (type(x), x)
    for values in shared_groups(result):
        first = {}
        for x in values:
            assert first.setdefault(x, x) is x, x


def matches(expected, program, *args, **kw):
    """The program's outcome, asserted equal to the reference's outcome
    ``expected``, with its values shared (``assert_shared``)."""
    got = outcome(program, *args, **kw)
    assert got == expected, program.__name__
    if not (isinstance(got, tuple) and got[0] == "raises"):
        assert_shared(got)
    return got


def program_both(curve, pol, connected_only):
    got = check_both(curve, pol, connected_only=connected_only)
    return got.interval, got.h0, got.h0_status, got.regime, got.disagreements


def reference_both(expected: dict, curve: cs.CurveModel):
    """``check_both``'s outcome from the reference scans' outcomes."""
    interval, eq, h0 = (expected[name] for name in ("slope_check_interval", "equivalence_report", "slope_check_h0"))
    for raised in (interval, eq):
        if isinstance(raised, tuple):
            return raised
    if eq.regime != "ok" and len(curve.component_ids) > 1:
        return interval, None, eq.h0_status, eq.regime, eq.disagreements
    if isinstance(h0, tuple):
        return h0
    return interval, h0, h0.status, eq.regime, eq.disagreements


def test_scans_match_per_subcurve_reference():
    rng = random.Random(2024)
    statuses, below_guard, sizes, twists = set(), 0, set(), 0
    for _ in range(30):
        curve = differential_curve(rng)
        unmarked = cs.CurveModel(curve.components, curve.nodes)
        sizes.add(len(curve.component_ids))
        for pol in polarizations(rng, curve):
            for connected_only in (False, True):
                expected = {}
                for name in ("slope_check_interval", "slope_check_h0", "equivalence_report"):
                    expected[name] = outcome(getattr(ref, name), curve, pol, connected_only=connected_only)
                    got = matches(expected[name], getattr(cs, name), curve, pol, connected_only=connected_only)
                    if name == "slope_check_interval" and isinstance(got, cs.StabilityVerdict):
                        statuses.add(got.status)
                matches(reference_both(expected, curve), program_both, curve, pol, connected_only)
            below_guard += not cs.h0_regime(curve, pol)
            for model in (curve, unmarked):
                matches(outcome(ref.k_stable, model, pol), cs.k_stable, model, pol)
            vector = dict(pol.degrees)
            matches(outcome(ref.is_balanced, curve, vector), cs.is_balanced, curve, vector)
            vector[rng.choice(sorted(vector))] = -1
            matches(outcome(ref.is_balanced, curve, vector), cs.is_balanced, curve, vector)
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


@pytest.mark.parametrize("r", [12, 14])
def test_k_check_memory_is_bounded(tmp_path, r):
    # The report is written as the walk runs, so the peak does not grow
    # with the 2^r - 2 entries.
    target = tmp_path / "report.json"
    argv = k_check_chain(tmp_path, r) + ["--output", str(target)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and len(json.loads(target.read_text())["df"]) == 2 ** r - 2
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
