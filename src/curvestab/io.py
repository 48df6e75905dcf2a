"""JSON schemas and command-line literals for the domain objects.

Rationals travel as strings ``"p/q"`` (plain ``"p"`` for integers) and
are parsed exactly; no decimal representation is ever read or written
unless a caller explicitly asks for labelled approximations.

Errors are typed so the command line can map them to distinct exit
codes: schema violations carry a JSON-pointer path, malformed rationals
and unknown identifiers are their own exception classes.

JSON files are decoded from their bytes by ``loads_datum``: the value
``json.loads`` gives of a text-mode read, decoded by json's C scanner in
one call, with every copy of the leaf array at the middle of the file
one shared list, so that a datum whose profiles repeat one ``vanish``
array is parsed and checked once per distinct array.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from operator import countOf
from typing import Any

from .chow import OnePSDatum
from .curve import Component, CurveModel, Mark, MarkSite, Polarization, _faults
from .newton import GammaSet, PointProfile


class SchemaError(ValueError):
    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class RationalError(ValueError):
    pass


class UnknownIdError(ValueError):
    pass


def parse_rational(value: Any, pointer: str = "") -> Fraction:
    """Exact rational from ``"p/q"``, ``"p"`` or an integer."""
    if isinstance(value, bool):
        raise RationalError(f"{pointer}: boolean is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise RationalError(f"{pointer}: expected a rational string, got {type(value).__name__}")
    text = value.strip()
    num, sep, den = text.partition("/")
    try:
        n = int(num)
    except ValueError:
        raise RationalError(f"{pointer}: malformed rational {value!r}") from None
    if not sep:
        return Fraction(n)
    try:
        d = int(den)
    except ValueError:
        raise RationalError(f"{pointer}: malformed rational {value!r}") from None
    if d == 0:
        raise RationalError(f"{pointer}: zero denominator in {value!r}")
    if d < 0:
        raise RationalError(f"{pointer}: negative denominator in {value!r}")
    return Fraction(n, d)


def format_rational(value: Fraction) -> str:
    """``n/d`` in lowest terms, or ``n`` for an integer; a ``Fraction`` is
    already in lowest terms, so it is not rebuilt."""
    return str(value if type(value) is Fraction else Fraction(value))


def _expect(obj, key, kind, pointer, default=None, message=None):
    """``obj[key]`` (an object's field or a list's entry), checked to be a
    ``kind``; an ``int`` is never a boolean.  A missing field is an error
    unless there is a default.  ``message`` replaces the type complaint."""
    if isinstance(obj, list) and type(key) is int:
        val = obj[key]
    elif not isinstance(obj, dict):
        raise SchemaError(pointer, f"expected an object, got {type(obj).__name__}")
    elif key in obj:
        val = obj[key]
    elif default is None:
        raise SchemaError(f"{pointer}/{key}", "missing field")
    else:
        return default
    if kind is None or type(val) is kind:  # the common case, decided first
        return val
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise SchemaError(f"{pointer}/{key}",
                          message or f"expected {kind.__name__}, got {type(val).__name__}")
    return val


# ---------------------------------------------------------------------------
# curves


def curve_from_json(obj: Any) -> CurveModel:
    comps = _expect(obj, "components", list, "")
    components = []
    for i, c in enumerate(comps):
        cid = _expect(c, "id", str, f"/components/{i}")
        genus = _expect(c, "genus", int, f"/components/{i}")
        components.append(Component(cid, genus))
    nodes = []
    for i, pair in enumerate(_expect(obj, "nodes", list, "", [])):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
            raise SchemaError(f"/nodes/{i}", "expected a pair of component ids")
        nodes.append((pair[0], pair[1]))
    sites = []
    for i, s in enumerate(_expect(obj, "sites", list, "", [])):
        sites.append(MarkSite(
            _expect(s, "id", str, f"/sites/{i}"),
            _expect(s, "component", str, f"/sites/{i}")))
    marks = []
    for i, mk in enumerate(_expect(obj, "marks", list, "", [])):
        weight = parse_rational(_expect(mk, "weight", None, f"/marks/{i}"), f"/marks/{i}/weight")
        marks.append(Mark(
            _expect(mk, "id", str, f"/marks/{i}"),
            _expect(mk, "site", str, f"/marks/{i}"),
            weight))
    curve = CurveModel(tuple(components), tuple(nodes), tuple(sites), tuple(marks))
    for pointer, violation in _faults(curve):  # the first one only
        raise SchemaError(pointer, violation.message)
    return curve


def curve_to_json(curve: CurveModel) -> dict:
    return {
        "components": [{"id": c.id, "genus": c.genus} for c in curve.components],
        "nodes": [[a, b] for a, b in curve.nodes],
        "sites": [{"id": s.id, "component": s.component} for s in curve.sites],
        "marks": [
            {"id": m.id, "site": m.site, "weight": format_rational(m.weight)}
            for m in curve.marks
        ],
    }


# ---------------------------------------------------------------------------
# assignment literals ("C1=10,C2=7") and friends

_QUOTED = 40  # characters of a literal's chunk that an error message quotes


def _quoted(chunk: str) -> str:
    return repr(chunk) if len(chunk) <= _QUOTED else f"{chunk[:_QUOTED]!r}..."


def _chunks(text: str, sep: str) -> list[str]:
    """The nonblank entries of a literal, stripped."""
    return [chunk for chunk in map(str.strip, text.split(sep)) if chunk]


def _literal_int(text: str, chunk: str, message: str) -> int:
    """``int(text)``, or a schema error quoting the start of ``chunk``, the
    literal's entry: ``message`` filled with the quote, or, for a decimal
    integer past ``int``'s digit limit (``sys.get_int_max_str_digits``),
    a message that names the limit."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-")
        if digits.isdecimal() and len(digits) > (limit := sys.get_int_max_str_digits()):
            message = f"integer of {len(digits)} digits in {{}}, past int's limit of {limit} digits"
        raise SchemaError("/", message.format(_quoted(chunk))) from None


def _assignments_from_literal(text: str, what: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for chunk in _chunks(text, ","):
        key, sep, val = chunk.partition("=")
        if not sep:
            raise SchemaError("/", f"malformed {what} entry {_quoted(chunk)}, expected id=integer")
        key = key.strip()
        if key in out:
            raise SchemaError("/", f"repeated id {key!r} in {what} literal")
        out[key] = _literal_int(val, chunk, f"non-integer {what} value in {{}}")
    if not out:
        raise SchemaError("/", f"empty {what} literal")
    return out


def _check_component_cover(curve: CurveModel, entries: dict[str, int], what: str) -> None:
    want = set(curve.component_ids)
    have = set(entries)
    unknown = have - want
    if unknown:
        raise UnknownIdError(f"unknown component in {what}: {sorted(unknown)}")
    missing = want - have
    if missing:
        raise SchemaError("/", f"{what} missing components {sorted(missing)}")


def polarization_from_literal(text: str, curve: CurveModel) -> Polarization:
    entries = _assignments_from_literal(text, "polarization")
    _check_component_cover(curve, entries, "polarization")
    return Polarization(entries)


def vector_from_literal(text: str, curve: CurveModel) -> dict[str, int]:
    entries = _assignments_from_literal(text, "vector")
    _check_component_cover(curve, entries, "vector")
    return entries


def subcurve_from_literal(text: str, curve: CurveModel) -> frozenset:
    ids = _chunks(text, ",")
    unknown = set(ids) - set(curve.component_ids)
    if unknown:
        raise UnknownIdError(f"unknown component in subcurve: {sorted(unknown)}")
    if not ids:
        raise SchemaError("/", "empty subcurve literal")
    return frozenset(ids)


def gamma_from_literal(text: str, width: int) -> GammaSet:
    points = []
    for chunk in _chunks(text, ";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise SchemaError("/", f"malformed gamma point {_quoted(chunk)}, expected x,y")
        points.append(tuple(_literal_int(part, chunk, "non-integer gamma point {}") for part in parts))
    if not points:
        raise SchemaError("/", "empty gamma literal")
    return GammaSet(points=tuple(points), width=width)


# ---------------------------------------------------------------------------
# subgroup data

def _text(data: bytes) -> str:
    """The text a text-mode read of a file holding ``data`` gives:
    ``data`` decoded as UTF-8, or its ``UnicodeDecodeError`` (a leading
    BOM is kept, for ``json.loads`` to reject), with universal newlines,
    each ``\\r\\n`` and each lone ``\\r`` read as ``\\n``."""
    text = data.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def loads_datum(data: bytes) -> Any:
    """``json.loads(_text(data))``, or its error, except that every copy
    of the leaf array at the middle of ``data`` (the last ``[`` before
    the first ``]`` past the middle, up to that ``]``) decodes to one
    shared ``list``.

    The copies are found in the bytes and cut out, ``NaN`` is written in
    their place, and json's C scanner decodes the kept bytes' text in one
    call, with the leaf's one list for each ``NaN``; only the leaf and
    the kept bytes are decoded from UTF-8.  The guards: the kept bytes
    have no backslash and no ``Infinity``, they count one ``NaN`` per
    copy (so no kept piece holds one), and each piece before a copy has
    an even number of ``"``.  UTF-8 is self-synchronizing: no byte of a
    multi-byte character is ASCII, so a ``[``, ``]``, ``"`` or ``\\``
    byte is that character, the leaf and the pieces are whole texts, and
    the file is UTF-8 exactly when the leaf and the kept bytes are.  The
    value is then ``json.loads``'s.  With no backslash every quote opens
    or closes a string, so each written ``NaN`` stands outside strings,
    where its ``N`` can only start the value token ``NaN`` (one that
    started at an ``Na`` just before it is followed by ``a``, a decode
    error).  The copy it stands for is a valid value text (it is decoded
    alone), which lexes inside the text as it does alone.  So the text's
    tokens are the kept text's with each ``NaN`` spelt out as the copy's.
    Newlines are left as they are: a ``\\r`` is whitespace outside
    strings and an error inside one, as a ``\\n`` is, so reading both as
    ``\\n`` moves no token and changes only where an error is reported.
    A failed guard, a decode error (too deep nesting and invalid UTF-8
    included) or bytes without a second copy go to ``json.loads`` of the
    whole text, whose value or error is the answer."""
    close = data.find(b"]", len(data) // 2) + 1
    start = data.rfind(b"[", 0, close)
    leaf = data[start:close]
    if close and start >= 0 and (data.find(leaf, close) >= 0 or data.rfind(leaf, 0, start) >= 0):
        parts, at = [], 0
        i = data.find(b"[")
        while i >= 0:
            if not data.startswith(leaf, i):
                i = data.find(b"[", i + 1)
                continue
            if data.count(b'"', at, i) % 2:
                return json.loads(_text(data))
            parts.append(data[at:i])
            at = i + len(leaf)
            i = data.find(b"[", at)
        kept = b"NaN".join([*parts, data[at:]])
        if b"\\" not in kept and b"Infinity" not in kept and kept.count(b"NaN") == len(parts):
            try:
                shared = json.loads(leaf.decode("utf-8"))
                return json.loads(kept.decode("utf-8"), parse_constant=lambda _: shared)
            except (ValueError, RecursionError):
                pass
    return json.loads(_text(data))


_VANISH = "vanishing orders must be nonnegative integers"


def datum_from_json(obj: Any, curve: CurveModel) -> OnePSDatum:
    """Subgroup datum from its JSON object, checked against the curve.
    ``rho`` and each ``vanish`` list are checked whole (every entry's
    type is ``int`` itself, and a ``vanish`` list's smallest entry
    nonnegative); only a list that fails is walked entry by entry, so the
    error names its first offending entry.  A ``vanish`` list that is the
    very object checked just before it (``loads_datum`` decodes every copy
    of the leaf array at the middle of the file to one list, so a run of
    equal profiles shares it) is not checked again.  A
    list equal to it shares its tuple and skips its sign check; the type
    check still runs, since ``[0, true]`` and ``[0, 1.0]`` compare equal
    to ``[0, 1]``."""
    m = _expect(obj, "m", int, "")
    rho = _expect(obj, "rho", list, "")
    if countOf(map(type, rho), int) != len(rho):
        for i in range(len(rho)):
            _expect(rho, i, int, "/rho", message="weights must be integers")
    hbar_raw = _expect(obj, "hbar", dict, "")
    components = set(curve.component_ids)
    hbar = {}
    for cid in hbar_raw:
        if cid not in components:
            raise UnknownIdError(f"unknown component {cid!r} in hbar")
        hbar[cid] = _expect(hbar_raw, cid, int, "/hbar", message="top index must be an integer")
    known = {mk.id for mk in curve.marks}
    profiles = []
    last, shared = None, ()  # the last checked list and its tuple
    for i, p in enumerate(_expect(obj, "profiles", list, "", [])):
        pointer = f"/profiles/{i}"
        comp = _expect(p, "component", str, pointer)
        if comp not in components:
            raise UnknownIdError(f"unknown component {comp!r} in profile")
        vanish = _expect(p, "vanish", list, pointer)
        if vanish is not last:
            repeat = vanish == last
            if countOf(map(type, vanish), int) != len(vanish) or (not repeat and min(vanish, default=0) < 0):
                at = f"{pointer}/vanish"
                for j in range(len(vanish)):
                    if _expect(vanish, j, int, at, message=_VANISH) < 0:
                        raise SchemaError(f"{at}/{j}", _VANISH)
            if not repeat:
                shared = tuple(vanish)
            last = vanish
        marks = tuple(_expect(p, "marks", list, pointer, []))
        for mid in marks:
            if not (isinstance(mid, str) and mid in known):
                raise UnknownIdError(f"unknown mark {mid!r} in profile")
        profiles.append(PointProfile._exact(
            _expect(p, "id", str, pointer), comp,
            _expect(p, "kind", str, pointer, "smooth"), shared, marks))
    imax_raw = _expect(obj, "imax", dict, "", {})
    imax = {}
    for mid in imax_raw:
        if mid not in known:
            raise UnknownIdError(f"unknown mark {mid!r} in imax")
        imax[mid] = _expect(imax_raw, mid, int, "/imax", message="index must be an integer")
    return OnePSDatum(m=m, rho=tuple(rho), hbar=hbar, profiles=tuple(profiles), imax=imax)


def datum_to_json(datum: OnePSDatum) -> dict:
    out = {
        "m": datum.m,
        "rho": list(datum.rho),
        "hbar": dict(sorted(datum.hbar.items())),
        "profiles": [
            {
                "id": p.id,
                "component": p.component,
                "kind": p.kind,
                "vanish": list(p.vanish),
                **({"marks": list(p.marks)} if p.marks else {}),
            }
            for p in datum.profiles
        ],
    }
    if datum.imax:
        out["imax"] = dict(sorted(datum.imax.items()))
    return out
