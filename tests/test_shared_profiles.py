"""Profiles that share one vanish tuple: the grouped weight-side passes
against the per-profile reference passes in ``reference_weight.py``, and
the JSON reader's sharing of repeated lists.

Data come from a seeded pool of vanish lists drawn with repeats, shuffled,
and built three ways: through the private constructor that keeps one
shared tuple (as the JSON reader and ``two_weight_datum`` do), through the
public constructor, which copies each list into an equal but unshared
tuple, or a mix of both.  Two-weight data and data read from JSON are
also checked with a random half of their profiles copied publicly.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
import reference_weight as ref
from conftest import random_curve, random_reducible_positive_curve, regime_polarization
from curvestab.io import datum_from_json, datum_to_json

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)
randoms = st.integers(0, 2 ** 32 - 1).map(random.Random)


def _vanish(rng: random.Random, h: int) -> tuple[int, ...]:
    """Mostly a staircase of top index ``h``; now and then a drop, a
    negative entry or a wrong length."""
    v = [0]
    for _ in range(h):
        v.append(v[-1] + rng.choice((0, 0, 1, 2)))
    roll = rng.random()
    if roll < 0.08 and len(v) > 1:
        i = rng.randrange(len(v) - 1)
        v[i], v[i + 1] = v[i + 1] + 1, v[i]
    elif roll < 0.12:
        v[rng.randrange(len(v))] = -1
    elif roll < 0.16:
        v = v[:-1] if len(v) > 1 and rng.random() < 0.5 else v + [v[-1]]
    return tuple(v)


def random_datum(rng: random.Random, curve: cs.CurveModel) -> cs.OnePSDatum:
    ids = sorted(curve.component_ids)
    m = rng.randint(1, 6)
    rho = sorted((rng.randint(0, 5) for _ in range(m)), reverse=True) + [0]
    hbar = {cid: rng.randint(0, m) for cid in ids if rng.random() < 0.9}
    homes = ids + (["ZZ"] if rng.random() < 0.1 else [])  # "ZZ" has no top index
    pool = []
    for _ in range(rng.randint(1, 4)):
        cid = rng.choice(homes)
        pool.append((cid, _vanish(rng, hbar.get(cid, rng.randint(0, m)))))
    draws = [rng.choice(pool) for _ in range(rng.randint(0, 14))]
    rng.shuffle(draws)
    mode = rng.choice(("shared", "public", "mixed"))
    marks = [mk.id for mk in curve.marks]
    profiles = []
    for j, (cid, vanish) in enumerate(draws):
        kind = rng.choice(("smooth", "smooth", f"node-branch:x#{j}"))
        on = tuple(rng.sample(marks, rng.randint(0, min(1, len(marks)))))
        if mode == "public" or (mode == "mixed" and rng.random() < 0.5):
            profiles.append(cs.PointProfile(f"p{j}", cid, kind, list(vanish), on))
        else:
            profiles.append(cs.PointProfile._exact(f"p{j}", cid, kind, vanish, on))
    return cs.OnePSDatum(m=m, rho=tuple(rho), hbar=hbar, profiles=tuple(profiles))


def mixed(rng: random.Random, datum: cs.OnePSDatum) -> cs.OnePSDatum:
    """The datum with a random half of its profiles rebuilt by the public
    constructor, so shared tuples sit next to equal unshared ones."""
    profiles = tuple(cs.PointProfile(p.id, p.component, p.kind, list(p.vanish), p.marks)
                     if rng.random() < 0.5 else p for p in datum.profiles)
    return cs.OnePSDatum(datum.m, datum.rho, datum.hbar, profiles, datum.imax)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, IndexError) as exc:
        return type(exc).__name__, str(exc)


def stairs_in_order(result):
    """A staircase outcome with each increment dict's insertion order."""
    kind, value = result
    if kind != "ok":
        return result
    return kind, [(s, list(s.delta.items())) for s in value]


def check_against_reference(datum: cs.OnePSDatum, curve: cs.CurveModel, pol: cs.Polarization):
    for args in ((datum,), (datum, curve), (datum, curve, pol)):
        assert cs.validate_datum(*args) == ref.validate_datum(*args)
    assert cs.is_staircase(datum) == ref.is_staircase(datum)
    assert (stairs_in_order(outcome(cs.increments_from_profiles, datum))
            == stairs_in_order(outcome(ref.increments_from_profiles, datum)))
    assert outcome(cs.total_multiplicity, datum) == outcome(ref.total_multiplicity, datum)


@PROPERTY
@given(rng=randoms)
def test_grouped_passes_match_the_per_profile_reference(rng):
    curve = random_curve(rng)
    datum = random_datum(rng, curve)
    widths = {cid: 0 for cid in curve.component_ids}
    for p in datum.profiles:
        if p.component in widths and p.vanish:
            widths[p.component] += p.width
    # degrees equal to the widths when they can be, so the width check runs and passes
    pol = cs.Polarization({cid: max(1, w) for cid, w in widths.items()})
    check_against_reference(datum, curve, pol)


@PROPERTY
@given(rng=randoms)
def test_two_weight_data_match_the_per_profile_reference(rng):
    curve = random_reducible_positive_curve(rng, max_components=4)
    pol = regime_polarization(rng, curve, jitter=4)
    ids = sorted(curve.component_ids)
    sub = set(rng.sample(ids, rng.randint(1, len(ids) - 1)))
    try:
        datum = cs.two_weight_datum(curve, pol, sub)
    except ValueError:
        return  # degree too small for the construction
    shuffled = list(datum.profiles)
    rng.shuffle(shuffled)
    shuffled = cs.OnePSDatum(datum.m, datum.rho, datum.hbar, tuple(shuffled), datum.imax)
    for each in (datum, shuffled, mixed(rng, shuffled)):
        check_against_reference(each, curve, pol)


@PROPERTY
@given(rng=randoms)
def test_profiles_read_from_json_equal_publicly_built_ones(rng):
    curve = random_curve(rng)
    datum = random_datum(rng, curve)
    if any(min(p.vanish, default=0) < 0 for p in datum.profiles) or "ZZ" in {
            p.component for p in datum.profiles}:
        return  # the reader rejects these
    read = datum_from_json(json.loads(json.dumps(datum_to_json(datum))), curve)
    public = tuple(cs.PointProfile(p.id, p.component, p.kind, list(p.vanish), p.marks)
                   for p in read.profiles)
    assert read.profiles == public == datum.profiles
    assert [(hash(p), repr(p)) for p in read.profiles] == [(hash(p), repr(p)) for p in public]
    assert all(type(v) is int for p in read.profiles for v in p.vanish)
    for before, after in zip(read.profiles, read.profiles[1:]):
        assert (after.vanish is before.vanish) == (after.vanish == before.vanish)
    for each in (read, mixed(rng, read)):
        check_against_reference(each, curve, cs.Polarization({cid: 1 for cid in curve.component_ids}))


def test_each_distinct_list_is_read_once_among_equal_unshared_tuples():
    # Every profile gets its own tuple, as the public constructor gives it;
    # the per-list passes still read the entries of the first tuple of
    # each distinct list only.
    read = set()  # ids of the tuples whose entries were read

    class Watched(tuple):
        def __iter__(self):
            read.add(id(self))
            return super().__iter__()

        def __getitem__(self, i):
            if not (isinstance(i, int) and i < 0):  # the last entry is the profile's width
                read.add(id(self))
            return super().__getitem__(i)

    curve = cs.CurveModel((cs.Component("A", 0), cs.Component("B", 1)), (("A", "B"),))
    lists = {"A": [(0, 0, 1), (0, 1, 2), (0, 0, 1)], "B": [(0, 1, 1, 3), (0, 0, 0, 1), (0, 1, 1, 3)]}
    profiles = [cs.PointProfile(f"{cid}{j}", cid, vanish=list(v))
                for j in range(4) for cid, vs in lists.items() for v in vs]
    pol = cs.Polarization({cid: sum(p.width for p in profiles if p.component == cid) for cid in lists})
    watched = tuple(cs.PointProfile._exact(p.id, p.component, p.kind, Watched(p.vanish))
                    for p in profiles)
    datum = cs.OnePSDatum(m=3, rho=(3, 2, 1, 0), hbar={"A": 2, "B": 3}, profiles=watched)
    firsts = {}
    for p in watched:
        firsts.setdefault(tuple(p.vanish), id(p.vanish))
    assert len(firsts) == 4 and cs.validate_datum(datum, curve, pol) == [] and cs.is_staircase(datum).ok
    for run in (lambda: cs.validate_datum(datum, curve, pol), lambda: cs.is_staircase(datum),
                lambda: cs.increments_from_profiles(datum)):
        read.clear()
        run()
        assert read == set(firsts.values())
