"""The datum reader's JSON decoders: ``io.loads_shared`` gives the same
value as ``json.loads`` (or the same error), with each run of
text-identical leaf arrays decoded to one shared list; ``io.loads_datum``
uses it only on text that repeats enough; and the reader's checks on the
lists they share."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
from curvestab.cli import main
import curvestab.io
from curvestab.io import SchemaError, datum_from_json, datum_to_json, loads_datum, loads_shared
from conftest import with_profile_marks

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

scalars = st.one_of(
    st.integers(-3, 3), st.booleans(), st.none(),
    st.sampled_from([1.0, 0.0, -2.5, 1e300, float("inf")]),
    st.text(alphabet='ab[]{},:" \\\n', max_size=4))
leaves = st.lists(scalars, max_size=5)
STYLES = ({}, {"separators": (",", ":")}, {"indent": 2}, {"indent": "\t", "separators": (",", ": ")})


@st.composite
def documents(draw):
    """JSON text of nested arrays and objects whose leaves are scalars,
    fresh leaf arrays or arrays drawn again from a small pool (repeats),
    in one of several layouts, now and then with whitespace around it or
    after its commas."""
    pool = draw(st.lists(leaves, min_size=1, max_size=3))
    kids = st.one_of(scalars, leaves, st.sampled_from(pool))
    value = draw(st.recursive(kids, lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(alphabet="ab[", max_size=2), inner, max_size=4)), max_leaves=30))
    text = json.dumps(value, **draw(st.sampled_from(STYLES)))
    if draw(st.booleans()):
        text = text.replace(",", draw(st.sampled_from([" ,", ",\n ", "\t,\r\n"])))
    return draw(st.sampled_from(["", " ", "\n"])) + text + draw(st.sampled_from(["", " \n"]))


@st.composite
def damaged(draw):
    """A document with one character deleted, replaced or inserted, or
    cut short."""
    text = draw(documents())
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from('[]{},:"0t1. ' + "\ufeff"))
    how = draw(st.sampled_from(("delete", "replace", "insert", "cut")))
    if how == "cut":
        return text[:i]
    return text[:i] + ("" if how == "delete" else char) + text[i + (how != "insert"):]


def outcome(loads, text):
    """The value's ``repr`` (which tells ``1``, ``1.0`` and ``True``
    apart), or the error's type and message."""
    try:
        return "ok", repr(loads(text))
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


@PROPERTY
@given(text=documents())
def test_decodes_as_json_loads(text):
    assert outcome(loads_shared, text) == outcome(loads_datum, text) == outcome(json.loads, text)


@PROPERTY
@given(text=damaged())
def test_damaged_text_fails_or_decodes_as_json_loads(text):
    assert outcome(loads_shared, text) == outcome(loads_datum, text) == outcome(json.loads, text)


@pytest.mark.parametrize("text", ["\ufeff[1]", "[" * 100_000, "[[0]] x", '{"a": [1, 2,]}'],
                         ids=["bom", "deep", "extra-data", "trailing-comma"])
def test_errors_are_those_of_json_loads(text):
    kind, message = outcome(json.loads, text)
    assert kind != "ok" and outcome(loads_shared, text) == outcome(loads_datum, text) == (kind, message)


def test_runs_of_identical_arrays_share_one_list():
    value = loads_shared('[[0, 1], [0, 1], {"a": [0, 1]}, [0, true], [0, 1.0], [0,1], [0, 1]]')
    assert value == [[0, 1], [0, 1], {"a": [0, 1]}, [0, True], [0, 1.0], [0, 1], [0, 1]]
    assert value[0] is value[1] is value[2]["a"] is value[6]
    assert value[5] is not value[0]  # different text: ``[0,1]``
    assert [type(v[1]) for v in value[3:6]] == [bool, float, int]


def two_weight(degree: int, marks=0) -> tuple[cs.CurveModel, dict]:
    """Two genus-one components at ``degree`` each, the first carrying
    ``marks`` marks of weight 1/3, and the two-weight datum toward it."""
    sites = tuple(cs.MarkSite(f"p{i}", "A") for i in range(marks))
    curve = cs.CurveModel((cs.Component("A", 1), cs.Component("B", 1)), (("A", "B"),), sites,
                          tuple(cs.Mark(f"x{i}", f"p{i}", Fraction(1, 3)) for i in range(marks)))
    pol = cs.Polarization({"A": degree, "B": degree})
    return curve, datum_to_json(cs.two_weight_datum(curve, pol, {"B"}))


def test_the_d320_datum_decodes_to_three_vanish_lists():
    curve, datum = two_weight(320)
    read = loads_datum(json.dumps(datum))
    assert read == datum and len(read["profiles"]) == 321
    assert len({id(p["vanish"]) for p in read["profiles"]}) == 3
    assert datum_from_json(read, curve) == datum_from_json(datum, curve)


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
def test_profiles_with_marks_still_share_their_vanish_lists(indent):
    curve, datum = two_weight(40, marks=6)
    datum = with_profile_marks(datum, curve)
    read = loads_shared(json.dumps(datum, indent=indent))
    assert read == datum
    marked = [p for p in read["profiles"] if "marks" in p]
    assert len({tuple(p["marks"]) for p in marked}) == 6 and len(marked) > 30
    runs = sum(1 for a, b in zip(read["profiles"], read["profiles"][1:]) if a["vanish"] != b["vanish"]) + 1
    assert len({id(p["vanish"]) for p in read["profiles"]}) == runs == 3
    assert datum_from_json(read, curve) == datum_from_json(datum, curve)


LONG = "[" + "0, " * 200 + "1]"  # a leaf array long enough for ``loads_datum`` to share


@pytest.mark.parametrize("text", ["", "]", "]" * 600, "[" * 600 + "]", '"' + "]" * 600 + '"',
                                  "[" + ", ".join([LONG] * 40) + "]", "[" + ", ".join([LONG] * 40) + "] x",
                                  "[" + ", ".join([LONG] * 40), '{"a": [' + ", ".join([LONG] * 40) + "]}"])
def test_the_datum_decoder_decodes_as_json_loads(text):
    assert outcome(loads_datum, text) == outcome(json.loads, text)


def distinct_datum(rng) -> str:
    """1,000 profiles of 3 to 10 entries, no two vanish lists alike."""
    return json.dumps({"m": 1, "rho": [1, 0], "hbar": {"C1": 1}, "profiles": [
        {"id": f"p{i}", "component": "C1", "vanish": [i, *sorted(rng.sample(range(1000, 2000), rng.randint(2, 9)))]}
        for i in range(1000)]})


def test_the_datum_decoder_shares_only_where_the_text_repeats(monkeypatch):
    shared = []
    monkeypatch.setattr(curvestab.io, "loads_shared", lambda text: shared.append(text) or loads_shared(text))
    repeats = json.dumps(two_weight(320)[1])
    small = json.dumps(two_weight(20)[1])  # repeats, but its vanish lists are short
    for text in (distinct_datum(random.Random(3)), small, repeats):
        assert loads_datum(text) == json.loads(text)
    assert shared == [repeats]


@pytest.mark.parametrize("other", [True, 1.0], ids=["true", "float"])
def test_an_equal_list_of_other_types_in_a_shared_run_is_named(other):
    curve, datum = two_weight(320)
    vanish = datum["profiles"][100]["vanish"]
    j = vanish.index(1)
    datum["profiles"][100] = dict(datum["profiles"][100], vanish=[*vanish[:j], other, *vanish[j + 1:]])
    read = loads_datum(json.dumps(datum))
    assert read["profiles"][99]["vanish"] is read["profiles"][101]["vanish"] == vanish
    with pytest.raises(SchemaError) as err:
        datum_from_json(read, curve)
    assert err.value.pointer == f"/profiles/100/vanish/{j}"
