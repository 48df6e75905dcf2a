"""Newton polygons: envelope construction, exact areas, the lattice-count
oracle, and per-point multiplicities."""

import random
from fractions import Fraction

import pytest

import curvestab as cs
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
    measure = newton.point_multiplicity

    def counted(profile, rho, hbar_alpha):
        calls.append((hbar_alpha, profile.vanish))
        return measure(profile, rho, hbar_alpha)

    for _ in range(100):
        datum = _repeated_staircase_datum(rng)
        expected = sum(measure(p, datum.rho, datum.hbar[p.component]) for p in datum.profiles)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(newton, "point_multiplicity", counted)
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
