"""JSON schemas and command-line literals for the domain objects.

Rationals travel as strings ``"p/q"`` (plain ``"p"`` for integers) and
are parsed exactly; no decimal representation is ever read or written
unless a caller explicitly asks for labelled approximations.

Errors are typed so the command line can map them to distinct exit
codes: schema violations carry a JSON-pointer path, malformed rationals
and unknown identifiers are their own exception classes.
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

_RECENT = 4  # distinct leaf-array texts a shared decode remembers
_scan_value = json.JSONDecoder().scan_once  # json's C scanner, where there is one
_space = json.decoder.WHITESPACE.match


class _SharedScanner:
    """One decode's scanner.  Objects and arrays that hold containers go
    through json's pure-Python ``JSONObject`` and ``JSONArray``; any other
    value, leaf arrays included, through ``_scan_value``, except a leaf
    array whose text is one of the last ``_RECENT`` distinct leaf arrays
    seen, which is that array's list again.  The scanner is a bound
    method, not a closure over itself, so a decode leaves no reference
    cycle behind."""

    def __init__(self):
        self.memo = {}
        self.recent = []  # (raw text, list) pairs, newest first

    def scan_once(self, s: str, idx: int):
        char = s[idx:idx + 1]
        if char == "{":
            return json.decoder.JSONObject((s, idx + 1), True, self.scan_once, None, None, self.memo)
        if char != "[":
            return _scan_value(s, idx)
        recent = self.recent
        for i, (raw, value) in enumerate(recent):
            if s.startswith(raw, idx):
                if i:
                    recent.insert(0, recent.pop(i))
                return value, idx + len(raw)
        close = s.find("]", idx)
        if close < 0 or s.find("[", idx + 1, close) >= 0 or s.find("{", idx + 1, close) >= 0:
            return json.decoder.JSONArray((s, idx + 1), self.scan_once)
        value, stop = _scan_value(s, idx)
        recent.insert(0, (s[idx:stop], value))
        del recent[_RECENT:]
        return value, stop


def loads_shared(text: str) -> Any:
    """``json.loads(text)``, except that text-identical arrays holding no
    containers decode to one shared ``list``.

    Each leaf array is parsed once, unless it repeats, as text, one of
    the last few distinct leaf arrays seen, whose list is then returned
    again (so a run of equal ``vanish`` arrays stays one list with a
    ``marks`` array between each two).  Identical text decodes to
    identical values and types, so ``[0, 1]``, ``[0, true]`` and
    ``[0, 1.0]`` stay three lists.  Text that fails to decode, too deep
    nesting included, is decoded again by ``json.loads``, whose value or
    error is the answer."""
    try:
        value, end = _SharedScanner().scan_once(text, _space(text, 0).end())
        if _space(text, end).end() == len(text):
            return value
    except (ValueError, RecursionError, StopIteration):
        pass
    return json.loads(text)


_SHARE_BYTES = 256  # repeated leaf-array bytes that pay for one Python-driven object
_WINDOW = 1 << 16  # bytes of text the choice in ``loads_datum`` looks at


def loads_datum(text: str) -> Any:
    """``json.loads(text)``, through ``loads_shared`` when the text repeats
    enough to pay for it.

    ``loads_shared`` drives every object in Python and saves the parse of
    each repeated leaf array, and ``datum_from_json`` then skips the
    checks of each repeat; the two savings pay for an object at about
    280 repeated bytes of integers.  So ``loads_shared`` runs only if, in
    the ``_WINDOW`` bytes from the leaf array at the middle of the text,
    the copies of that array after the first add up to ``_SHARE_BYTES``
    per object.  The choice takes a few C-speed scans; the value or error
    is ``json.loads``'s either way."""
    close = text.find("]", len(text) // 2) + 1
    start = text.rfind("[", 0, close)
    if close and start >= 0 and close - start >= _SHARE_BYTES and text.find("{", start, close) < 0:
        stop = start + _WINDOW
        copies = text.count(text[start:close], start, stop)
        if (copies - 1) * (close - start) >= _SHARE_BYTES * text.count("{", start, stop):
            return loads_shared(text)
    return json.loads(text)


_VANISH = "vanishing orders must be nonnegative integers"


def datum_from_json(obj: Any, curve: CurveModel) -> OnePSDatum:
    """Subgroup datum from its JSON object, checked against the curve.
    Each ``vanish`` list is checked whole (every entry's type is ``int``
    itself, the smallest entry nonnegative); only a list that fails is
    walked entry by entry, so the error names its first offending entry.
    A list that is the very object checked just before it (``loads_datum``,
    on text that repeats enough, decodes consecutive text-identical arrays
    once and shares the list) is not checked again.  A list equal to it
    shares its tuple and skips its sign check; the type check still runs,
    since ``[0, true]`` and ``[0, 1.0]`` compare equal to ``[0, 1]``."""
    m = _expect(obj, "m", int, "")
    rho_raw = _expect(obj, "rho", list, "")
    rho = [_expect(rho_raw, i, int, "/rho", message="weights must be integers")
           for i in range(len(rho_raw))]
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
