"""The packed scan (``slope._packed``), which finds the witness rows of
the verdict scans that the cut does not settle and, below the degree
guard, the subcurves of ``check --criterion both`` with a nonpositive
section count: against the per-subcurve reference scans over both
criteria, both ``connected_only`` values and ``is_balanced``'s closed
reading, and against a filtered walk with fields at the edge of the
width they were sized for, each at forced block sizes h in {1, r // 2,
r}.  Examples come from a fixed seed (``derandomize``)."""

import functools
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
import reference_scans as ref
from curvestab import degree_class, slope
from curvestab.curve import _Invariants
from conftest import check_both, random_raw_curve
from test_check_both import moved_polarization
from test_min_cut import multigraph
from test_scan_walk import WEIGHTS, outcome

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)
randoms = st.integers(0, 2 ** 32 - 1).map(random.Random)


def blocks(r: int) -> list[int]:
    """The forced block sizes: one packed component, half of them, all."""
    return sorted({1, max(1, r // 2), max(1, r)})


def marked_curve(rng: random.Random) -> cs.CurveModel:
    """Random curve with r <= 10, self-nodes and marks of weight 0, 1/3
    and 2/5."""
    comps, nodes, sites, marks = random_raw_curve(rng, max_components=10)
    return cs.CurveModel(comps, nodes, sites, tuple(cs.Mark(m.id, m.site, rng.choice(WEIGHTS)) for m in marks))


def polarization(rng: random.Random, curve: cs.CurveModel, below: bool) -> cs.Polarization:
    if below:  # small degrees, mostly under the section-count guard
        return cs.Polarization({c: rng.randint(1, 3) for c in curve.component_ids})
    return moved_polarization(rng, curve, rng.randint(0, 3))


def verdict(curve, pol, criterion, connected_only, block):
    scan = slope._check(curve, pol, criterion, connected_only, block=block)
    return slope._verdict(scan.witnesses, scan.inv.subcurve)


def reference_both(curve, pol, connected_only):
    """``check --criterion both``'s five results, from the reference scans."""
    interval = ref.slope_check_interval(curve, pol, connected_only=connected_only)
    eq = ref.equivalence_report(curve, pol, connected_only=connected_only)
    h0 = None
    if eq.regime == "ok" or len(curve.component_ids) == 1:
        h0 = ref.slope_check_h0(curve, pol, connected_only=connected_only)
    return interval, h0, eq.h0_status if h0 is None else h0.status, eq.regime, eq.disagreements


def packed_both(curve, pol, connected_only, block):
    got = check_both(curve, pol, connected_only=connected_only, block=block)
    return got.interval, got.h0, got.h0_status, got.regime, got.disagreements


@PROPERTY
@given(rng=randoms, below=st.booleans())
def test_packed_rows_match_the_reference_at_every_block_size(rng, below):
    curve = marked_curve(rng)
    pol = polarization(rng, curve, below)
    r = len(curve.component_ids)
    for connected_only in (False, True):
        want = {name: outcome(getattr(ref, f"slope_check_{name}"), curve, pol, connected_only=connected_only)
                for name in ("interval", "h0")}
        both = outcome(reference_both, curve, pol, connected_only)
        for block in blocks(r):
            for name in ("interval", "h0"):
                assert outcome(verdict, curve, pol, name, connected_only, block) == want[name], (name, block)
            assert outcome(packed_both, curve, pol, connected_only, block) == both, block
    balanced = outcome(ref.is_balanced, curve, pol.degrees)
    for block in blocks(r):  # is_balanced reads the rows closed: only the violated ones fail
        with mock.patch.object(degree_class, "_outside", functools.partial(slope._outside, block=block)):
            assert outcome(cs.is_balanced, curve, pol.degrees) == balanced, block


def test_the_draws_reach_both_packed_passes():
    # The property above is only as strong as its draws: both packed passes must run often and find rows.
    rng, calls, packed = random.Random(3141), [], slope._packed

    def counting(inv, degrees, weights, lam, both, *args):
        rows = list(packed(inv, degrees, weights, lam, both, *args))
        calls.append((both, bool(rows)))
        return iter(rows)

    with mock.patch.object(slope, "_packed", counting):
        for _ in range(200):
            curve = marked_curve(rng)
            outcome(check_both, curve, polarization(rng, curve, rng.random() < 0.4))
    assert min(calls.count((both, True)) for both in (True, False)) >= 20, calls


def brute_rows(inv, degrees, weights, lam, both, connected_only):
    """The walk's steps at which ``g`` (or, if ``both``, ``g'``) is at most 0."""
    rows = []
    for step in inv.walk(degrees, connected_only):
        w = sum(x for i, x in enumerate(weights) if step[0] >> i & 1)
        if w + lam * step[4] <= 0 or (both and lam * step[4] - w <= 0):
            rows.append(step)
    return rows


@PROPERTY
@given(rng=randoms, r=st.integers(2, 10), lam=st.integers(1, 4), nbytes=st.integers(1, 3),
       past=st.booleans(), extreme=st.booleans(), both=st.booleans())
def test_fields_at_the_edge_of_their_width_hold_exact_rooms(rng, r, lam, nbytes, past, extreme, both):
    # A field of 8 k bits holds every room of absolute value up to S = 2^(8 k - 1) - 1, the
    # largest sum of |w| + lam #nodes it is sized for; S + 1 takes a field of 8 k + 8 bits.
    bound = 2 ** (8 * nbytes - 1) - 1 + past
    if extreme:
        # A chain, whose nodes all join an even position to an odd one, with weights of one
        # sign on the even positions only: the room g (w >= 0) or g' (w <= 0) of the even
        # positions is the bound itself.
        ids = [f"C{i}" for i in range(r)]
        curve = cs.CurveModel(tuple(cs.Component(c, 1) for c in ids), tuple(zip(ids, ids[1:])))
        evens, rest = (r + 1) // 2, bound - lam * (r - 1)
        weights = [0] * r
        for i in range(0, r, 2):
            weights[i] = rest // evens + (i // 2 < rest % evens)
        if both:
            weights = [-w for w in weights]
    else:
        # Any curve, with the weight of position 0 taking up what the others leave of the bound.
        curve = multigraph(rng, r)
        nodes = len(_Invariants(curve).pairs)
        lam = min(lam, bound // (2 * nodes))
        spread = (bound - lam * nodes) // (2 * r)
        weights = [rng.randint(-spread, spread) for _ in range(r)]
        weights[0] = rng.choice((-1, 1)) * (bound - lam * nodes - sum(map(abs, weights[1:])))
    inv = _Invariants(curve)
    assert sum(map(abs, weights)) + lam * len(inv.pairs) == bound
    degrees = {c: rng.randint(-3, 9) for c in inv.ids}
    for connected_only in (False, True):
        want = brute_rows(inv, degrees, weights, lam, both, connected_only)
        for block in blocks(r):
            got = list(slope._packed(inv, degrees, weights, lam, both, connected_only, block))
            assert got == want, (connected_only, block)
