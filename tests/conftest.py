"""Shared fixtures: the two reference curves and seeded random generators.

F2 is two genus-one components joined at a node (genus 2, unmarked).
F4 is a genus-one component joined to a line carrying two weight-one
marks at distinct sites (genus 1, total weight 2).
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional

import pytest

import curvestab as cs
from curvestab import slope

WEIGHTS = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
           Fraction(1, 4), Fraction(3, 4)]


@pytest.fixture
def f2() -> cs.CurveModel:
    return cs.CurveModel(
        components=(cs.Component("C1", 1), cs.Component("C2", 1)),
        nodes=(("C1", "C2"),),
    )


@pytest.fixture
def f4() -> cs.CurveModel:
    return cs.CurveModel(
        components=(cs.Component("C1", 1), cs.Component("P", 0)),
        nodes=(("C1", "P"),),
        sites=(cs.MarkSite("p1", "P"), cs.MarkSite("p2", "P")),
        marks=(cs.Mark("x1", "p1", Fraction(1)), cs.Mark("x2", "p2", Fraction(1))),
    )


def pol(curve: cs.CurveModel, *degrees) -> cs.Polarization:
    return cs.Polarization(dict(zip(curve.component_ids, degrees)))


# ---------------------------------------------------------------------------
# random generators (always explicitly seeded by the caller)


def random_curve(rng: random.Random, max_components=4, max_genus=2,
                 marked=True, max_extra=2, max_marks=3) -> cs.CurveModel:
    r = rng.randint(1, max_components)
    ids = [f"C{i+1}" for i in range(r)]
    comps = tuple(cs.Component(cid, rng.randint(0, max_genus)) for cid in ids)
    nodes = []
    order = ids[:]
    rng.shuffle(order)
    for i in range(1, r):
        nodes.append((order[i], order[rng.randrange(i)]))
    if r > 1:
        for _ in range(rng.randint(0, max_extra)):
            a, b = rng.sample(ids, 2)
            nodes.append((a, b))
    sites, marks = [], []
    if marked:
        for s in range(rng.randint(0, max_marks)):
            comp = rng.choice(ids)
            sites.append(cs.MarkSite(f"p{s}", comp))
            marks.append(cs.Mark(f"x{s}", f"p{s}", rng.choice(WEIGHTS)))
    return cs.CurveModel(comps, tuple(nodes), tuple(sites), tuple(marks))


def random_raw_curve(rng: random.Random, max_components=8):
    """Random curve as raw ``(components, nodes, sites, marks)`` lists, with
    self-nodes left in the node list and, now and then, a weight-zero mark;
    ``cs.CurveModel(*raw)`` folds the self-nodes into the genera."""
    c = random_curve(rng, max_components=max_components, max_marks=5)
    nodes = c.nodes + tuple((cid, cid) for cid in c.component_ids if rng.random() < 0.3)
    sites, marks = c.sites, c.marks
    if rng.random() < 0.3:
        sites += (cs.MarkSite("z", rng.choice(c.component_ids)),)
        marks += (cs.Mark("xz", "z", Fraction(0)),)
    return c.components, nodes, sites, marks


def bitmask_invariants(components, nodes, sites, marks) -> dict:
    """Reference invariants of every nonempty subset of components, computed
    on bitmasks straight from the raw lists: subset -> (g_Y, l_Y, omega_Y,
    mark weight, whether any mark sits on Y)."""
    ids = [c.id for c in components]
    bit = {cid: 1 << i for i, cid in enumerate(ids)}
    ends = [(bit[a], bit[b]) for a, b in nodes]
    site_bit = {s.id: bit[s.component] for s in sites}
    out = {}
    for mask in range(1, 1 << len(ids)):
        inside = sum(1 for a, b in ends if a & mask and b & mask)
        ell = sum(1 for a, b in ends if bool(a & mask) != bool(b & mask))
        genus = 1 - bin(mask).count("1") + inside + sum(
            c.genus for c in components if bit[c.id] & mask)
        here = [m.weight for m in marks if site_bit[m.site] & mask]
        sub = frozenset(cid for cid in ids if bit[cid] & mask)
        out[sub] = (genus, ell, 2 * genus - 2 + ell, sum(here, Fraction(0)), bool(here))
    return out


def random_positive_curve(rng: random.Random, **kw) -> cs.CurveModel:
    """Random curve with positive total weighted dualizing degree."""
    while True:
        c = random_curve(rng, **kw)
        if cs.omega_degree(c, weighted=True) > 0:
            return c


def random_reducible_positive_curve(rng: random.Random, **kw) -> cs.CurveModel:
    while True:
        c = random_positive_curve(rng, **kw)
        if len(c.component_ids) > 1:
            return c


def random_weighted_stable_curve(rng: random.Random, **kw) -> cs.CurveModel:
    while True:
        c = random_curve(rng, **kw)
        if cs.classify_weighted(c).status == "Stable":
            return c


def random_semistable_curve(rng: random.Random) -> cs.CurveModel:
    """Random semistable curve; exceptional bridges are inserted on
    purpose so stabilization has work to do."""
    while True:
        base = random_curve(rng, max_components=3)
        if cs.classify_weighted(base).status != "Stable":
            continue
        comps = list(base.components)
        nodes = list(base.nodes)
        sites, marks = list(base.sites), list(base.marks)
        for j, (a, b) in enumerate(list(nodes)):
            if rng.random() < 0.5:
                eid = f"E{j}"
                comps.append(cs.Component(eid, 0))
                nodes.remove((a, b))
                nodes.extend([(a, eid), (eid, b)])
        c = cs.CurveModel(tuple(comps), tuple(nodes), tuple(sites), tuple(marks))
        if cs.classify_weighted(c).status in ("Stable", "Semistable"):
            return c


def genus_zero_curve(rng: random.Random, r: int, cycle: bool) -> cs.CurveModel:
    """A chain of r lines with up to two marks of weight 1/3 or 2/5
    (weighted dualizing total -2 plus at most 4/5), or an unmarked cycle of
    r lines (total 0): the weighted total is never positive."""
    ids = [f"L{i}" for i in range(r)]
    nodes = tuple(zip(ids, ids[1:] + ids[:1] if cycle else ids[1:]))
    sites = () if cycle else tuple(cs.MarkSite(f"p{i}", rng.choice(ids)) for i in range(rng.randint(0, 2)))
    marks = tuple(cs.Mark(f"x{i}", s.id, rng.choice((Fraction(1, 3), Fraction(2, 5))))
                  for i, s in enumerate(sites))
    return cs.CurveModel(tuple(cs.Component(cid, 0) for cid in ids), nodes, sites, marks)


def k_check_chain(tmp_path, r: int) -> list[str]:
    """``k-check`` arguments for an unmarked chain of r genus-two components
    at three times its dualizing degrees, with one unit moved from the
    first end to the last: not K-stable, 2^r - 2 entries."""
    ids = [f"C{i:02d}" for i in range(r)]
    path = tmp_path / f"chain{r}.json"
    path.write_text(json.dumps({"components": [{"id": c, "genus": 2} for c in ids],
                                "nodes": [[a, b] for a, b in zip(ids, ids[1:])]}))
    degrees = dict.fromkeys(ids, 12) | {ids[0]: 8, ids[-1]: 10}
    return ["k-check", "--curve", str(path), "--polarization", ",".join(f"{c}={d}" for c, d in degrees.items())]


def random_unmarked_k_curve(rng: random.Random, max_components=5) -> cs.CurveModel:
    """Unmarked nodal curve of genus at least two."""
    while True:
        c = random_curve(rng, max_components=max_components, marked=False)
        if cs.arithmetic_genus(c) >= 2:
            return c


def has_positive_component_dualizing_degrees(curve: cs.CurveModel) -> bool:
    r = len(curve.component_ids)
    for cid in curve.component_ids:
        ell = 0 if r == 1 else cs.linking_nodes(curve, {cid})
        if 2 * curve.genus_of(cid) - 2 + ell <= 0:
            return False
    return True


def regime_polarization(rng: random.Random, curve: cs.CurveModel, jitter=8) -> cs.Polarization:
    """Component degrees above the section-count guard with total degree
    at least ten times (2 g + number of marks)."""
    g = cs.arithmetic_genus(curve)
    n = len(curve.marks)
    r = len(curve.component_ids)
    target = 10 * (2 * g + n)
    degs = {}
    for cid in curve.component_ids:
        ell = 0 if r == 1 else cs.linking_nodes(curve, {cid})
        lo = max(2 * curve.genus_of(cid) + ell + 1, -(-target // r))
        degs[cid] = lo + rng.randint(0, jitter)
    return cs.Polarization(degs)


def canonical_multiple(curve: cs.CurveModel, k_min=20) -> tuple[cs.Polarization, int]:
    """Polarization proportional to the weighted dualizing degrees with
    integer entries, scaled to at least ``k_min`` times them."""
    r = len(curve.component_ids)
    omegas = {
        cid: (cs.omega_degree(curve, {cid}, weighted=True) if r > 1
              else cs.omega_degree(curve, weighted=True))
        for cid in curve.component_ids
    }
    den = lcm(*[o.denominator for o in omegas.values()])
    k = k_min * den
    return cs.Polarization({cid: int(k * o) for cid, o in omegas.items()}), k


def random_gamma(rng: random.Random, max_points=6, max_coord=8) -> cs.GammaSet:
    """Random lattice point set with a point on the weight axis (so the
    region is bounded) and the width derived from the minimum-weight
    points (resampled until that width is positive)."""
    while True:
        pts = {(rng.randint(0, max_coord), rng.randint(0, max_coord))
               for _ in range(rng.randint(1, max_points - 1))}
        if not any(x == 0 for x, _ in pts):
            pts.add((0, rng.randint(0, max_coord)))
        ymin = min(y for _, y in pts)
        width = max(x for x, y in pts if y == ymin)
        if width >= 1:
            return cs.GammaSet(points=tuple(pts), width=width)


def random_staircase_profile(rng: random.Random, max_len=7, max_step=3):
    """Random staircase profile plus a compatible weight vector: vanishing
    orders non-decreasing from zero, weights non-increasing to zero."""
    h = rng.randint(1, max_len)
    vanish = [0]
    for _ in range(h):
        vanish.append(vanish[-1] + rng.randint(0, max_step))
    if vanish[-1] == 0:
        vanish[-1] = 1
    m = h + rng.randint(0, 2)
    rho = [0] * (m + 1)
    level = 0
    for i in range(m - 1, -1, -1):
        level += rng.randint(0, 2)
        rho[i] = level
    profile = cs.PointProfile(id="q", component="C", vanish=tuple(vanish))
    return profile, tuple(rho), h


def with_profile_marks(datum: dict, curve: cs.CurveModel) -> dict:
    """A datum in the JSON schema with a one-mark ``marks`` list on every
    profile of a component that carries marks, cycling through that
    component's marks, so that a ``marks`` array sits between each two
    ``vanish`` arrays of those profiles."""
    site_of = {s.id: s.component for s in curve.sites}
    on = {}
    for mk in curve.marks:
        on.setdefault(site_of[mk.site], []).append(mk.id)
    profiles, seen = [], {}
    for p in datum["profiles"]:
        here = on.get(p["component"])
        if here:
            j = seen[p["component"]] = seen.get(p["component"], -1) + 1
            p = dict(p, marks=[here[j % len(here)]])
        profiles.append(p)
    return dict(datum, profiles=profiles)


class BothVerdicts(NamedTuple):
    interval: cs.StabilityVerdict
    h0: Optional[cs.StabilityVerdict]  # None below the degree guard, unless there is one component
    h0_status: str
    regime: str
    disagreements: tuple


def check_both(curve: cs.CurveModel, pol: cs.Polarization, **scan) -> BothVerdicts:
    """``check --criterion both``'s scan (``slope._check``) with its witness
    lists as verdicts and its disagreement rows as ``SubcurveComparison``s,
    each row's subcurve built once for all three."""
    got = slope._check(curve, pol, "both", **scan)
    subcurve = functools.cache(got.inv.subcurve)
    h0 = None if got.h0 is None else slope._verdict(got.h0, subcurve)
    disagreements = tuple(
        slope.SubcurveComparison(subcurve(mask), interval_state=interval_state, interval_margins=margins,
                                 h0_state=h0_state, h0_margin=h0_margin)
        for mask, (interval_state, h0_state, margins, h0_margin) in got.disagreements)
    return BothVerdicts(slope._verdict(got.witnesses, subcurve), h0, got.h0_status, got.regime, disagreements)
