"""Newton polygons: envelope construction, exact areas, the lattice-count
oracle, and per-point multiplicities."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import curvestab as cs
import reference_lattice
from curvestab import newton
from curvestab.newton import _capped_area, _envelope_chain, _reduced, reduced_clipped_area
from conftest import random_gamma, random_staircase_profile


def test_polygon_unit_triangle():
    poly = cs.polygon_from_points(cs.GammaSet(points=((0, 1), (1, 0)), width=1))
    assert poly.vertices == ((0, 0), (1, 0), (0, 1))
    assert poly.area == Fraction(1, 2)


def test_polygon_empty_when_origin_present():
    poly = cs.polygon_from_points(cs.GammaSet(points=((0, 0),), width=5))
    assert poly.vertices == () and poly.area == 0


def test_polygon_three_point_area():
    poly = cs.polygon_from_points(cs.GammaSet(points=((0, 2), (1, 1), (3, 0)), width=3))
    assert poly.area == Fraction(5, 2)


def test_polygon_unbounded_rejected():
    with pytest.raises(ValueError, match="unbounded"):
        cs.polygon_from_points(cs.GammaSet(points=((2, 1), (3, 0)), width=3))


def test_an_empty_point_set_is_rejected_by_the_polygon_and_the_counter():
    # the counter used to fail inside min() with "min() arg is an empty sequence"
    empty = cs.GammaSet(points=(), width=3)
    for call in (lambda: cs.polygon_from_points(empty), lambda: cs.lattice_count_oracle(empty, 2)):
        with pytest.raises(ValueError, match="^empty gamma$"):
            call()


def test_area_examples():
    tri = cs.polygon_from_points(cs.GammaSet(points=((0, 1), (1, 0)), width=1))
    assert cs.polygon_area(tri) == Fraction(1, 2)
    rect = cs.NewtonPolygon(
        vertices=((Fraction(0), Fraction(0)), (Fraction(5), Fraction(0)),
                  (Fraction(5), Fraction(2)), (Fraction(0), Fraction(2))),
        area=Fraction(10))
    assert cs.polygon_area(rect) == 10
    stair = cs.polygon_from_points(cs.GammaSet(points=((0, 3), (1, 1), (2, 0)), width=2))
    assert cs.polygon_area(stair) == Fraction(5, 2)


def test_lattice_count_examples():
    tri = cs.GammaSet(points=((0, 1), (1, 0)), width=1)
    assert cs.lattice_count_oracle(tri, 2) == 6
    assert cs.lattice_count_oracle(tri, 0) == 1
    g = cs.GammaSet(points=((0, 2), (1, 1), (3, 0)), width=3)
    counts = [cs.lattice_count_oracle(g, k) for k in range(7)]
    for k in range(1, 5):
        assert counts[k + 2] - 2 * counts[k + 1] + counts[k] == 5


def test_lattice_count_empty_polygon():
    g = cs.GammaSet(points=((0, 0), (2, 3)), width=4)
    assert all(cs.lattice_count_oracle(g, k) == 0 for k in range(4))


def test_ehrhart_second_difference_random():
    rng = random.Random(17)
    for _ in range(100):
        g = random_gamma(rng)
        poly = cs.polygon_from_points(g)
        counts = [cs.lattice_count_oracle(g, k) for k in range(g.width, g.width + 6)]
        for i in range(len(counts) - 2):
            assert counts[i + 2] - 2 * counts[i + 1] + counts[i] == 2 * poly.area


def _count_or_error(count, gamma, k):
    try:
        return count(gamma, k)
    except ValueError as exc:
        return str(exc)


def test_lattice_count_matches_the_fraction_reference():
    # Widths cut the chain anywhere, so clip vertices are often rational;
    # a point set without a weight-axis point is unbounded; one with the
    # origin is the empty polygon.
    rng = random.Random(83)
    seen = {"rational clip": 0, "empty": 0, "unbounded": 0}
    for _ in range(300):
        pts = {(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 6))}
        if rng.random() < 0.85:
            pts.add((0, rng.randint(0, 9)))
        gamma = cs.GammaSet(points=tuple(pts), width=rng.randint(1, 10))
        try:
            vertices = cs.polygon_from_points(gamma).vertices
        except ValueError:
            seen["unbounded"] += 1
        else:
            seen["empty"] += not vertices
            seen["rational clip"] += any(y.denominator > 1 for _, y in vertices)
        for k in range(10):
            assert (_count_or_error(newton.lattice_count_oracle, gamma, k)
                    == _count_or_error(reference_lattice.lattice_count_oracle, gamma, k))
    assert min(seen.values()) > 10


def test_lattice_count_rejects_a_non_lattice_clip_like_the_reference():
    # A valid GammaSet has an integer width, so every polygon vertex has an
    # integer abscissa; a width forced past the constructor reaches the
    # check that guards the integer column range.
    gamma = cs.GammaSet(points=((0, 4), (3, 1)), width=2)
    object.__setattr__(gamma, "width", Fraction(3, 2))
    for k in range(7):
        got = _count_or_error(newton.lattice_count_oracle, gamma, k)
        assert got == _count_or_error(reference_lattice.lattice_count_oracle, gamma, k)
        if k % 2:
            assert got == "dilate of a non-lattice clip; counts would not be polynomial"
    with pytest.raises(ValueError, match="nonnegative"):
        newton.lattice_count_oracle(gamma, -1)


def test_lattice_count_matches_the_reference_on_tall_dilates():
    for seed in range(6):
        rng = random.Random(seed)
        pts = {(0, rng.randint(5, 9))} | {(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(3)}
        gamma = cs.GammaSet(points=tuple(pts), width=6)
        for k in (20, 35, 50):
            assert newton.lattice_count_oracle(gamma, k) == reference_lattice.lattice_count_oracle(gamma, k)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=6),
       axis=st.integers(0, 9), width=st.integers(1, 10))
def test_ehrhart_second_differences_on_lattice_polygons(points, axis, width):
    gamma = cs.GammaSet(points=tuple(points) + ((0, axis),), width=width)
    poly = cs.polygon_from_points(gamma)
    # a rational clip vertex makes the counts only quasi-polynomial
    assume(all(x.denominator == 1 and y.denominator == 1 for x, y in poly.vertices))
    counts = [cs.lattice_count_oracle(gamma, k) for k in range(8)]
    assert all(counts[k + 2] - 2 * counts[k + 1] + counts[k] == 2 * poly.area for k in range(6))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=0, max_size=7),
       axis=st.integers(0, 12), width=st.integers(1, 14),
       window=st.tuples(st.integers(0, 14), st.integers(0, 14)))
@example(points=[(1, 3), (2, 1)], axis=4, width=2, window=(0, 2))  # (1, 3) lies just above a chord
def test_roof_pieces_and_areas_match_the_brute_envelope(points, axis, width, window):
    # The brute envelope takes the least height of the points to the left
    # and of the chords over each abscissa; it shares no code with _roof.
    gamma = cs.GammaSet(points=tuple(points) + ((0, axis),), width=width)
    pieces = newton._roof(gamma.points, width)
    assert [p[0] for p in pieces] == [0] + [p[1] for p in pieces[:-1]] and pieces[-1][1] == width
    for x in (Fraction(i, 2) for i in range(2 * width + 1)):
        _, _, a, b, den = next(p for p in pieces if p[0] <= x <= p[1])
        assert (a * x + b) / den == reference_lattice.envelope_height(gamma.points, x)
    heights = [reference_lattice.envelope_height(gamma.points, x) for x in range(width + 1)]

    def brute_area(s, t):  # the roof is linear between integer abscissas
        return sum((heights[x] + heights[x + 1]) / 2 for x in range(s, t))

    s, t = sorted(min(v, width) for v in window)
    assert newton._roof_area(pieces, s, t) == brute_area(s, t)
    assert cs.polygon_from_points(gamma).area == brute_area(0, width)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(n=st.integers(0, 40), m=st.integers(1, 30), a=st.integers(-200, 200), b=st.integers(-200, 200))
def test_floor_sum_is_the_brute_sum(n, m, a, b):
    assert newton._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=8),
       axis=st.integers(0, 40), width=st.integers(1, 40), K=st.integers(1, 60),
       shape=st.sampled_from(("plain",) * 6 + ("unbounded", "half-width")))
def test_all_dilate_counts_match_the_reference(points, axis, width, K, shape):
    # "unbounded" adds no weight-axis point, so the region is unbounded
    # unless a drawn point sits on the axis; an axis point at 0 gives the
    # empty polygon; a half-integer width, forced past the constructor,
    # makes odd dilates of a polygon clipped there non-lattice polygons.
    gamma = cs.GammaSet(points=tuple(points) + (() if shape == "unbounded" else ((0, axis),)), width=width)
    if shape == "half-width":
        object.__setattr__(gamma, "width", Fraction(2 * width - 1, 2))
    expected = []
    for k in range(K):
        got = _count_or_error(reference_lattice.lattice_count_oracle, gamma, k)
        if isinstance(got, str):
            with pytest.raises(ValueError) as exc:
                newton._lattice_counts(gamma, range(K))
            assert str(exc.value) == got
            return
        expected.append(got)
    assert newton._lattice_counts(gamma, range(K)) == expected


def test_point_profile_copies_vanish_to_a_tuple_and_rejects_non_integers():
    for given_vanish in ([0, 1, 1, 3], (v for v in (0, 1, 1, 3))):
        profile = cs.PointProfile(id="q", component="C", vanish=given_vanish)
        assert profile.vanish == (0, 1, 1, 3) and type(profile.vanish) is tuple
    # int() used to truncate 1.7 to 1 and count True as 1
    for value in (1.7, 1.0, True, Fraction(1)):
        with pytest.raises(ValueError, match="^vanishing order is not an integer: "):
            cs.PointProfile(id="q", component="C", vanish=(0, value))


def test_gamma_set_rejects_a_coordinate_or_width_that_is_not_an_integer():
    # int() used to truncate: a width of 3.9 became 3, a point (0, 1.7) became (0, 1)
    with pytest.raises(ValueError, match="^width is not an integer: 3.9$"):
        cs.GammaSet(points=((0, 2), (3, 0)), width=3.9)
    for point in ((0, 1.7), (Fraction(1), 0), (True, 0)):
        with pytest.raises(ValueError, match="^lattice point coordinate is not an integer: "):
            cs.GammaSet(points=((0, 2), point), width=3)
    gamma = cs.GammaSet(points=[(3, 0), (0, 2), (3, 0)], width=3)
    assert gamma.points == ((0, 2), (3, 0)) and gamma.width == 3


def test_check_rho_rejects_a_weight_that_is_not_an_integer():
    assert newton._check_rho([2, 1, 0]) == (2, 1, 0)
    for rho in ((2.5, 1, 0), (2, True, 0), (2, 1, Fraction(0))):
        with pytest.raises(ValueError, match="^rho entry is not an integer: "):
            newton._check_rho(rho)


def test_adding_points_never_grows_area():
    rng = random.Random(29)
    for _ in range(100):
        g = random_gamma(rng)
        base = cs.polygon_from_points(g).area
        extra = (rng.randint(0, 8), rng.randint(0, 8))
        grown = cs.GammaSet(points=g.points + (extra,), width=g.width)
        assert cs.polygon_from_points(grown).area <= base


def test_width_clipping():
    pts = ((0, 2), (1, 1), (3, 0))
    base = cs.polygon_from_points(cs.GammaSet(points=pts, width=3)).area
    wider = cs.polygon_from_points(cs.GammaSet(points=pts, width=9)).area
    assert wider == base  # minimum weight is zero: nothing accrues past the chain
    narrower = cs.polygon_from_points(cs.GammaSet(points=pts, width=2)).area
    assert narrower < base
    raised = cs.GammaSet(points=((0, 3), (2, 1)), width=2)
    taller = cs.GammaSet(points=((0, 3), (2, 1)), width=5)
    assert cs.polygon_from_points(taller).area > cs.polygon_from_points(raised).area


def test_point_multiplicity_examples():
    smooth = cs.PointProfile(id="q", component="C", vanish=(0, 1))
    assert cs.point_multiplicity(smooth, (1, 0), 1) == 1
    # both branches of a node with the same pattern
    total = sum(
        cs.point_multiplicity(cs.PointProfile(id=f"q{i}", component="C", vanish=(0, 1)), (1, 0), 1)
        for i in range(2))
    assert total == 2
    flat = cs.PointProfile(id="f", component="C", vanish=(5, 5, 5))
    assert cs.point_multiplicity(flat, (2, 2, 2, 0), 2) == 20


def test_point_multiplicity_errors():
    with pytest.raises(ValueError, match="vanish list empty"):
        cs.point_multiplicity(cs.PointProfile(id="q", component="C", vanish=()), (1, 0), 1)
    prof = cs.PointProfile(id="q", component="C", vanish=(0, 1))
    with pytest.raises(ValueError, match="rho not sorted"):
        cs.point_multiplicity(prof, (0, 1), 1)
    with pytest.raises(ValueError, match="rho not normalized"):
        cs.point_multiplicity(prof, (2, 1), 1)


def test_total_multiplicity(f2, f4):
    p49 = cs.Polarization({"C1": 11, "P": 9})
    datum = cs.two_weight_datum(f4, p49, {"P"})
    assert cs.total_multiplicity(datum) == 2 * 9 + 1
    p = cs.Polarization({"C1": 10, "C2": 10})
    datum2 = cs.two_weight_datum(f2, p, {"C1"})
    assert cs.total_multiplicity(datum2) == 21
    zero = cs.OnePSDatum(
        m=1, rho=(0, 0), hbar={"C": 1},
        profiles=(cs.PointProfile(id="q", component="C", vanish=(0, 1)),))
    assert cs.total_multiplicity(zero) == 0
    lone = cs.OnePSDatum(
        m=1, rho=(1, 0), hbar={"C": 1},
        profiles=(cs.PointProfile(id="q", component="C", vanish=(0, 1)),))
    assert cs.total_multiplicity(lone) == 1  # a single unit step and nothing else


def test_total_multiplicity_profile_order_invariant(f2):
    p = cs.Polarization({"C1": 10, "C2": 10})
    datum = cs.two_weight_datum(f2, p, {"C2"})
    rng = random.Random(3)
    shuffled = list(datum.profiles)
    rng.shuffle(shuffled)
    permuted = cs.OnePSDatum(m=datum.m, rho=datum.rho, hbar=datum.hbar,
                             profiles=tuple(shuffled), imax=datum.imax)
    assert cs.total_multiplicity(permuted) == cs.total_multiplicity(datum)


def test_safe_interpolation_bound_random():
    # Exact polygon area never exceeds the area under the interpolation of
    # the reduced points, with equality exactly when every reduced point
    # sits on the envelope.  Staircase profiles always carry a point on
    # the weight axis, so no capping is involved here.
    rng = random.Random(43)
    equalities = strict = 0
    for _ in range(200):
        profile, rho, h = random_staircase_profile(rng)
        rel = [rho[i] - rho[h] for i in range(h + 1)]
        pts = _reduced((profile.vanish[i], rel[i]) for i in range(h + 1))
        assert pts[0][0] == 0
        exact = cs.point_multiplicity(profile, rho, h) / 2 - rho[h] * profile.vanish[-1]
        interp = Fraction(0)
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            interp += Fraction((x1 - x0) * (y0 + y1), 2)
        interp += (profile.vanish[-1] - pts[-1][0]) * pts[-1][1]
        assert exact <= interp
        chain = _envelope_chain(pts)

        def roof(x):
            for (a0, b0), (a1, b1) in zip(chain, chain[1:]):
                if a0 <= x <= a1:
                    return b0 + Fraction((x - a0) * (b1 - b0), a1 - a0)
            return Fraction(chain[-1][1])

        on_envelope = all(roof(x) == y for x, y in pts)
        assert (exact == interp) == on_envelope
        equalities += on_envelope
        strict += not on_envelope
    assert equalities and strict  # both sides of the dichotomy exercised


def _repeated_staircase_datum(rng):
    """Datum of seeded staircase profiles, each repeated and the order
    shuffled; some components share a top index and a vanish list."""
    samples = [random_staircase_profile(rng) for _ in range(rng.randint(1, 4))]
    rho = max((s[1] for s in samples), key=len)
    hbar, profiles = {}, []
    for i, (profile, _, h) in enumerate(samples):
        for cid in [f"C{i}"] + ([f"T{i}"] if rng.random() < 0.5 else []):
            hbar[cid] = h
            for j in range(rng.randint(1, 3)):
                profiles.append(cs.PointProfile(id=f"{cid}_{j}", component=cid,
                                                vanish=profile.vanish))
    rng.shuffle(profiles)
    return cs.OnePSDatum(m=len(rho) - 1, rho=rho, hbar=hbar, profiles=tuple(profiles))


def test_total_multiplicity_measures_each_distinct_profile_once(monkeypatch):
    rng = random.Random(61)
    calls = []
    measure = newton._multiplicity

    def counted(profile, rho, hbar_alpha):
        calls.append((hbar_alpha, profile.vanish))
        return measure(profile, rho, hbar_alpha)

    for _ in range(100):
        datum = _repeated_staircase_datum(rng)
        expected = sum(cs.point_multiplicity(p, datum.rho, datum.hbar[p.component]) for p in datum.profiles)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(newton, "_multiplicity", counted)
            assert cs.total_multiplicity(datum) == expected
        distinct = {(datum.hbar[p.component], p.vanish) for p in datum.profiles}
        assert sorted(calls) == sorted(distinct)


def test_capped_area_is_both_public_areas():
    # The one area routine behind point_multiplicity and
    # reduced_clipped_area, on plain staircases and on capped ones (every
    # order shifted up, so no point sits on the weight axis); the plain
    # ones also match the shoelace area of the unshifted polygon.
    rng = random.Random(67)
    for _ in range(200):
        profile, rho, h = random_staircase_profile(rng)
        shift = rng.choice((0, 0, 1, 2))
        if shift:
            profile = cs.PointProfile(id="q", component="C",
                                      vanish=tuple(v + shift for v in profile.vanish))
        width = profile.vanish[-1]
        area = _capped_area(profile.vanish, rho, h, 0, width)
        mult = cs.point_multiplicity(profile, rho, h)
        assert area == (mult - 2 * rho[h] * width) / 2
        assert area == reduced_clipped_area(profile, rho, h, 0, width)
        if not shift:
            gamma = cs.GammaSet(points=tuple(zip(profile.vanish, rho)), width=width)
            assert mult == 2 * cs.polygon_from_points(gamma).area


def test_total_multiplicity_error_names_first_profile_of_a_shared_list():
    good = (0, 1, 2)
    bad = (0, 1)  # one entry short of the top index
    datum = cs.OnePSDatum(
        m=2, rho=(2, 1, 0), hbar={"C": 2},
        profiles=tuple(cs.PointProfile(id=f"q{i}", component="C", vanish=v)
                       for i, v in enumerate((good, bad, good, bad))))
    with pytest.raises(ValueError, match="profile 'q1'"):
        cs.total_multiplicity(datum)
    # a list measured on one component is still checked on another
    # component whose top index it does not fit
    mixed = cs.OnePSDatum(
        m=2, rho=(2, 1, 0), hbar={"C": 1, "D": 2},
        profiles=(cs.PointProfile(id="c", component="C", vanish=bad),
                  cs.PointProfile(id="d", component="D", vanish=bad)))
    with pytest.raises(ValueError, match="profile 'd'"):
        cs.total_multiplicity(mixed)


def test_reduced_clipped_area_checks_the_profile_like_point_multiplicity():
    short = cs.PointProfile(id="q", component="C", vanish=(0, 1))  # top index 2 needs 3 entries
    with pytest.raises(ValueError, match="vanish list must end at the component top index"):
        reduced_clipped_area(short, (2, 1, 0), 2, 0, 1)
    negative = cs.PointProfile(id="q", component="C", vanish=(0, -3))
    with pytest.raises(ValueError, match="negative vanishing order"):
        reduced_clipped_area(negative, (1, 0), 1, 0, 0)
    for profile, rho, h in ((short, (2, 1, 0), 2), (negative, (1, 0), 1)):
        with pytest.raises(ValueError, match="profile 'q'|negative"):
            cs.point_multiplicity(profile, rho, h)
