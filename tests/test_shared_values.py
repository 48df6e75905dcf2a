"""Values the scans build once per call (``slope._Fractions``) and the
report formats once (``cli._q`` with a memo): equal values in one field
group of one list are one object, shared with no other call, and a memo
gives ``format_rational``'s text.  That every result equals the
per-subcurve reference with exact ``Fraction`` fields, and shares its
values so, is checked in ``test_scan_walk.test_scans_match_per_subcurve_reference``."""

from fractions import Fraction

import curvestab as cs
from curvestab.cli import _q, _Rational
from curvestab.io import format_rational
from conftest import check_both
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
    # genus 2 at degree 1: below the guard, each component without sections, so disagreements
    low = cs.CurveModel(tuple(cs.Component(c, 2) for c in curve.component_ids), curve.nodes)
    low_pol = cs.Polarization(dict.fromkeys(curve.component_ids, 1))
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


def test_q_gives_format_rationals_text_with_or_without_a_memo():
    values = [Fraction(0), Fraction(-7), Fraction(3, 4), Fraction(-10 ** 30, 7), Fraction(10 ** 40 + 1, 3)]
    memo = {}
    for value in values + values:
        for text in (_q(value), _q(value, memo)):
            assert type(text) is _Rational and text == format_rational(value)
    assert len(memo) == len(values)
    assert _q(values[2], memo) is _q(values[2], memo)

