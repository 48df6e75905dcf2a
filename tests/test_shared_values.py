"""Values the scans build once per call (``slope._Fractions``): equal
values in one field group of one list are one object, shared with no
other call.  The row tails the report renders once per object
(``cli._row_texts``) are built so too: in one list of ``slope._check``
or ``kstab._Scan`` rows, the disagreements included, equal tails are one
object and distinct tails distinct ones.  That every result equals the
per-subcurve reference with exact ``Fraction`` fields, and shares its
values so, is checked in
``test_scan_walk.test_scans_match_per_subcurve_reference``."""

from fractions import Fraction

import pytest

import curvestab as cs
from curvestab import kstab, slope
from curvestab.io import format_rational
from conftest import check_both
from test_report import writer_text
from test_scan_walk import assert_shared, chain, rationals, shared_groups


def moved_chain(r: int, units: int) -> tuple[cs.CurveModel, cs.Polarization]:
    """``test_scan_walk.chain`` with ``units`` moved from its second
    component to its last, inside the degree guard: Unstable, with many
    witnesses."""
    curve, pol = chain(r)
    ids = curve.component_ids
    return curve, cs.Polarization(dict(pol.degrees, **{ids[1]: pol.of(ids[1]) - units,
                                                        ids[-1]: pol.of(ids[-1]) + units}))


def test_equal_values_within_one_result_are_one_object():
    curve, pol = moved_chain(9, 3)
    low, low_pol = below_guard(curve, 1, 0)  # each component without sections, so disagreements
    results = [
        cs.slope_check_interval(curve, pol), cs.slope_check_h0(curve, pol), cs.equivalence_report(curve, pol),
        check_both(curve, pol), check_both(low, low_pol), cs.k_stable(curve, pol),
    ]
    for result in results:
        assert_shared(result)
        groups = list(shared_groups(result))
        assert groups and all(len({id(x) for x in values}) == len(set(values)) for values in groups)
        assert any(len(set(values)) < len(values) for values in groups)  # values repeat, objects do not
    assert results[3].interval.witnesses and results[3].h0.witnesses and results[4].disagreements
    again = cs.k_stable(curve, pol)
    assert again == results[-1]
    assert not {id(x) for x in rationals(again)} & {id(x) for x in rationals(results[-1])}  # one table per call


def below_guard(curve: cs.CurveModel, degree: int, units: int) -> tuple[cs.CurveModel, cs.Polarization]:
    """The curve's dual graph with genus-2 components at ``degree``, with
    ``units`` moved from its second component to its last: below the
    degree guard."""
    low, ids = cs.CurveModel(tuple(cs.Component(c, 2) for c in curve.component_ids), curve.nodes), curve.component_ids
    return low, cs.Polarization(dict(dict.fromkeys(ids, degree), **{ids[1]: degree - units, ids[-1]: degree + units}))


def assert_one_tail_per_value(rows: list) -> None:
    """Equal tails of ``(mask, tail, ...)`` rows are one object, and
    distinct tails distinct objects; some tail repeats."""
    tails = [row[1] for row in rows]
    assert len({id(t) for t in tails}) == len(set(tails)) < len(tails)


@pytest.mark.parametrize("criterion", ["interval", "h0", "both"])
@pytest.mark.parametrize("guard", ["inside", "below"])
def test_each_distinct_row_tail_is_one_object(criterion, guard):
    curve, pol = moved_chain(9, 3)
    if guard == "below":
        curve, pol = below_guard(curve, 3, 2)  # many interval witnesses, one disagreement
        if criterion == "h0":
            with pytest.raises(ValueError, match="degree too small"):
                slope._check(curve, pol, criterion)
            return
    scan = slope._check(curve, pol, criterion)
    assert_one_tail_per_value(scan.witnesses)
    if criterion == "both":
        assert (scan.h0 is None) == (guard == "below")
        if scan.h0 is not None:
            assert_one_tail_per_value(scan.h0)
            assert_one_tail_per_value(scan.witnesses + scan.h0)  # and no tail is the other list's


def test_each_distinct_k_check_tail_is_one_object():
    curve, pol = moved_chain(9, 3)
    rows = list(kstab._Scan(curve, pol))
    assert_one_tail_per_value(rows)
    assert all(type(tail) is tuple and len(tail) == 1 for _, tail, _ in rows)
    assert len({id(m) for *_, m in rows}) == len({m for *_, m in rows})  # the margins beside them


def hub(arms: int) -> tuple[cs.CurveModel, cs.Polarization]:
    """Genus-3 components ``A0``, ``A1``, ... at degree 1, each joined
    twice to a line ``B`` at degree 20: below the degree guard, the whole
    curve and every subcurve through ``B`` with sections, every other
    subcurve with none."""
    ids = [f"A{i}" for i in range(arms)]
    curve = cs.CurveModel(tuple(cs.Component(c, 3) for c in ids) + (cs.Component("B", 0),),
                          tuple((c, "B") for c in ids for _ in range(2)))
    return curve, cs.Polarization(dict(dict.fromkeys(ids, 1), B=20))


@pytest.mark.parametrize("whole", ["without sections", "with sections"])
def test_each_distinct_disagreement_tail_is_one_object(whole):
    if whole == "without sections":
        curve, pol = below_guard(moved_chain(9, 3)[0], 1, 0)
    else:
        curve, pol = hub(4)
    scan = slope._check(curve, pol, "both")
    assert (slope._Windows(scan.inv, pol.total).h0_all > 0) == (whole == "with sections")
    rows = list(scan.disagreements)
    assert scan.h0_status == "Unstable" and scan.h0 is None
    assert len(rows) == (2 ** 9 - 2 if whole == "without sections" else 2 ** 4 - 1)
    assert_one_tail_per_value(rows)
    assert all(h0_state == "undefined" and h0_margin is None for _, (_, h0_state, _, h0_margin) in rows)


def test_the_writer_gives_format_rationals_text():
    for value in [Fraction(0), Fraction(-7), Fraction(3, 4), Fraction(-10 ** 30, 7), Fraction(10 ** 40 + 1, 3)]:
        assert writer_text(value) == '"%s"' % format_rational(value)
