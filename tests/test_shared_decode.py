"""The datum reader's JSON decoder: ``io.loads_datum`` gives, from a
file's bytes, the value (or the error) that ``json.loads`` gives of a
text-mode read of the file, UTF-8 with universal newlines, with every
copy of the leaf array at the middle of the file decoded to one shared
list, and a file without a second copy decoded by ``json.loads``; and
the reader's checks on the lists it shares."""

import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
from curvestab.cli import main
from curvestab.io import SchemaError, datum_from_json, datum_to_json, loads_datum
from conftest import with_profile_marks

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

WIDE = "\u00e9\u20ac\U0001d538"  # characters of two, three and four UTF-8 bytes
scalars = st.one_of(
    st.integers(-3, 3), st.booleans(), st.none(),
    st.sampled_from([1.0, 0.0, -2.5, 1e300, float("inf")]),
    st.text(alphabet='ab[]{},:" \\\n' + WIDE, max_size=4))
leaves = st.lists(scalars, max_size=5)
STYLES = ({}, {"separators": (",", ":")}, {"indent": 2}, {"indent": "\t", "separators": (",", ": ")})
NEWLINES = ("\n", "\r\n", "\r")  # line ends: LF, CRLF and a lone CR


def universal(text: str) -> str:
    """``text`` as a text-mode read gives it: each CRLF and lone CR a LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


@st.composite
def documents(draw):
    """JSON text of nested arrays and objects whose leaves are scalars,
    fresh leaf arrays or arrays drawn again from a small pool (repeats),
    in one of several layouts, with non-ASCII characters escaped or
    written out, now and then with whitespace around it or after its
    commas, its line ends LF, CRLF or a lone CR."""
    pool = draw(st.lists(leaves, min_size=1, max_size=3))
    kids = st.one_of(scalars, leaves, st.sampled_from(pool))
    value = draw(st.recursive(kids, lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(alphabet="ab[" + WIDE, max_size=2), inner, max_size=4)), max_leaves=30))
    text = json.dumps(value, ensure_ascii=draw(st.booleans()), **draw(st.sampled_from(STYLES)))
    if draw(st.booleans()):
        text = text.replace(",", draw(st.sampled_from([" ,", ",\n ", "\t,\r\n"])))
    text = draw(st.sampled_from(["", " ", "\n"])) + text + draw(st.sampled_from(["", " \n"]))
    return text.replace("\n", draw(st.sampled_from(NEWLINES)))


@st.composite
def damaged(draw):
    """A document with one character deleted, replaced or inserted, or
    cut short."""
    text = draw(documents())
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from('[]{},:"0t1. \r\n' + "\ufeff" + WIDE))
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
    assert outcome(loads_datum, text.encode()) == outcome(json.loads, universal(text))


@PROPERTY
@given(text=damaged())
def test_damaged_text_fails_or_decodes_as_json_loads(text):
    assert outcome(loads_datum, text.encode()) == outcome(json.loads, universal(text))


@pytest.mark.parametrize("text", ["\ufeff[1]", "[" * 100_000, "[[0]] x", '{"a": [1, 2,]}'],
                         ids=["bom", "deep", "extra-data", "trailing-comma"])
def test_errors_are_those_of_json_loads(text):
    kind, message = outcome(json.loads, universal(text))
    assert kind != "ok" and outcome(loads_datum, text.encode()) == (kind, message)


def text_read(data: bytes):
    """``json.loads`` of what a text-mode read of a file holding ``data``
    gives (a ``UnicodeDecodeError`` for bytes that are not UTF-8)."""
    return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())


@st.composite
def damaged_bytes(draw):
    """A document's bytes in another encoding (UTF-16, UTF-8 with a BOM,
    Latin-1), or its UTF-8 bytes with a stray, cut or surrogate sequence
    written in."""
    text = draw(documents())
    how = draw(st.sampled_from(("utf-16", "utf-8-sig", "latin-1", "bytes")))
    if how != "bytes":
        return text.encode(how, "replace")
    data = text.encode()
    i = draw(st.integers(0, len(data)))
    stray = draw(st.sampled_from([b"\xff", b"\xe9", b"\xa9", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\r"]))
    return data[:i] + stray + data[i + draw(st.integers(0, 1)):]


@PROPERTY
@given(data=damaged_bytes())
def test_bytes_fail_or_decode_as_a_text_mode_read(data):
    assert outcome(loads_datum, data) == outcome(text_read, data)


def test_runs_of_identical_arrays_share_one_list():
    # the middle leaf is the fourth item; its copies share one list in a run, in an
    # object and apart, and text that differs (``[0,1]``, ``true``, ``1.0``) does not
    value = loads_datum(b'[[0, 1], [0, 1], {"a": [0, 1]}, [0, 1], [0, true], [0, 1.0], [0,1], [0, 1]]')
    assert value == [[0, 1], [0, 1], {"a": [0, 1]}, [0, 1], [0, True], [0, 1.0], [0, 1], [0, 1]]
    assert value[0] is value[1] is value[2]["a"] is value[3] is value[7]
    assert value[6] is not value[0]  # different text: ``[0,1]``
    assert [type(v[1]) for v in value[4:7]] == [bool, float, int]


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
    read = loads_datum(json.dumps(datum).encode())
    assert read == datum and len(read["profiles"]) == 321
    assert len({id(p["vanish"]) for p in read["profiles"]}) == 3
    assert datum_from_json(read, curve) == datum_from_json(datum, curve)


@pytest.mark.parametrize("newline", NEWLINES, ids=["lf", "crlf", "cr"])
def test_line_ends_and_non_ascii_text_keep_the_vanish_lists_shared(newline):
    curve, datum = two_weight(80)
    for p in datum["profiles"]:
        p["id"] = WIDE + p["id"]
    text = json.dumps(datum, indent=2, ensure_ascii=False).replace("\n", newline)
    read = loads_datum(text.encode())
    assert read == datum and len({id(p["vanish"]) for p in read["profiles"]}) == 3


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
def test_profiles_with_marks_still_share_their_vanish_lists(indent):
    curve, datum = two_weight(40, marks=6)
    datum = with_profile_marks(datum, curve)
    read = loads_datum(json.dumps(datum, indent=indent).encode())
    assert read == datum
    marked = [p for p in read["profiles"] if "marks" in p]
    assert len({tuple(p["marks"]) for p in marked}) == 6 and len(marked) > 30
    runs = sum(1 for a, b in zip(read["profiles"], read["profiles"][1:]) if a["vanish"] != b["vanish"]) + 1
    assert len({id(p["vanish"]) for p in read["profiles"]}) == runs == 3
    assert datum_from_json(read, curve) == datum_from_json(datum, curve)


LONG = "[" + "0, " * 200 + "1]"  # a long leaf array


@pytest.mark.parametrize("text", ["", "]", "]" * 600, "[" * 600 + "]", '"' + "]" * 600 + '"',
                                  "[" + ", ".join([LONG] * 40) + "]", "[" + ", ".join([LONG] * 40) + "] x",
                                  "[" + ", ".join([LONG] * 40), '{"a": [' + ", ".join([LONG] * 40) + "]}"])
def test_the_datum_decoder_decodes_as_json_loads(text):
    assert outcome(loads_datum, text.encode()) == outcome(json.loads, universal(text))


@st.composite
def leaf_copies(draw):
    """JSON text, valid or not, in a compact, ``indent=2``, CRLF or
    lone-CR layout, whose items are mostly copies of one long leaf array,
    whose last entry is ``1`` or a string of non-ASCII characters: as
    values, inside strings, inside object keys, after a ``\\"`` escape or
    an ``Na``, and beside ``NaN``, ``Infinity`` and ``-Infinity`` values
    and strings and non-ASCII strings and keys."""
    layout = draw(st.sampled_from(("compact", "indent", "crlf", "cr")))
    last = draw(st.sampled_from([1, WIDE]))
    leaf = json.dumps([0] * 60 + [last], ensure_ascii=False,
                      **({"separators": (",", ":")} if layout == "compact" else {"indent": 2}))
    newline = {"crlf": "\r\n", "cr": "\r"}.get(layout, "\n")
    sep = "," if layout == "compact" else ",\n  ".replace("\n", newline)
    leaf = leaf.replace("\n", newline)
    item = st.sampled_from([
        leaf, '"' + leaf + '"', '{"' + leaf + '": ' + leaf + "}", '"\\"' + leaf + '"', '"\\"", ' + leaf,
        "NaN", "Infinity", "-Infinity", '"NaN"', '"Infinity"', '"-Infinity"', "Na" + leaf, '"a"', "[0, 1]",
        '"' + WIDE + '"', '{"' + WIDE + '": ' + leaf + "}"])
    items = draw(st.lists(st.one_of(st.just(leaf), st.just(leaf), st.just(leaf), item), min_size=1, max_size=8))
    return "[" + sep.join(items) + "]"


@PROPERTY
@given(text=leaf_copies())
def test_copies_in_strings_keys_and_beside_constants_decode_as_json_loads(text):
    assert outcome(loads_datum, text.encode()) == outcome(json.loads, universal(text))


def distinct_datum(rng) -> str:
    """1,000 profiles of 3 to 10 entries, no two vanish lists alike."""
    return json.dumps({"m": 1, "rho": [1, 0], "hbar": {"C1": 1}, "profiles": [
        {"id": f"p{i}", "component": "C1", "vanish": [i, *sorted(rng.sample(range(1000, 2000), rng.randint(2, 9)))]}
        for i in range(1000)]})


def test_the_datum_decoder_shares_only_where_the_text_repeats(monkeypatch):
    calls, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: calls.append((text, kw)) or loads(text, **kw))
    distinct = distinct_datum(random.Random(3))
    assert loads_datum(distinct.encode()) == loads(distinct) and calls == [(distinct, {})]
    for degree in (20, 320):
        calls.clear()
        text = json.dumps(two_weight(degree)[1])
        read = loads_datum(text.encode())
        assert read == loads(text)
        (_, plain), (kept, shared) = calls  # the leaf alone, then the kept text
        assert not plain and list(shared) == ["parse_constant"] and len(kept) < len(text)
        fill = read["profiles"][-1]["vanish"]
        copies = [p["vanish"] for p in read["profiles"] if p["vanish"] == fill]
        assert len(copies) == degree - 1 and all(v is fill for v in copies)


@pytest.mark.parametrize("other", [True, 1.0], ids=["true", "float"])
def test_an_equal_list_of_other_types_in_a_shared_run_is_named(other):
    curve, datum = two_weight(320)
    vanish = datum["profiles"][100]["vanish"]
    j = vanish.index(1)
    datum["profiles"][100] = dict(datum["profiles"][100], vanish=[*vanish[:j], other, *vanish[j + 1:]])
    read = loads_datum(json.dumps(datum).encode())
    assert read["profiles"][99]["vanish"] is read["profiles"][101]["vanish"] == vanish
    with pytest.raises(SchemaError) as err:
        datum_from_json(read, curve)
    assert err.value.pointer == f"/profiles/100/vanish/{j}"
