"""JSON schemas and command-line literals for the domain objects.

Rationals travel as strings ``"p/q"`` (plain ``"p"`` for integers) and
are parsed exactly; no decimal representation is ever read or written
unless a caller explicitly asks for labelled approximations.

Errors are typed so the command line can map them to distinct exit
codes: schema violations carry a JSON-pointer path, malformed rationals
and unknown identifiers are their own exception classes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .chow import OnePSDatum
from .curve import Component, CurveModel, Mark, MarkSite, Polarization, validate_curve
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
    return str(Fraction(value))


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
    report = validate_curve(curve)
    if not report.ok:
        first = report.violations[0]
        raise SchemaError(_violation_pointer(curve, first), first.message)
    return curve


def _violation_pointer(curve: CurveModel, violation) -> str:
    if violation.code == "site-overweight":
        for i, s in enumerate(curve.sites):
            if s.id == violation.entity:
                return f"/sites/{i}"
    if violation.code in ("negative-genus", "unknown-component"):
        for i, c in enumerate(curve.components):
            if c.id == violation.entity:
                return f"/components/{i}"
    if violation.code in ("negative-weight", "unknown-site"):
        for i, m in enumerate(curve.marks):
            if m.id == violation.entity:
                return f"/marks/{i}"
    return "/"


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


def _assignments_from_literal(text: str, what: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, val = chunk.partition("=")
        if not sep:
            raise SchemaError("/", f"malformed {what} entry {chunk!r}, expected id=integer")
        try:
            out[key.strip()] = int(val.strip())
        except ValueError:
            raise SchemaError("/", f"non-integer {what} value in {chunk!r}") from None
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
    ids = [x.strip() for x in text.split(",") if x.strip()]
    unknown = set(ids) - set(curve.component_ids)
    if unknown:
        raise UnknownIdError(f"unknown component in subcurve: {sorted(unknown)}")
    if not ids:
        raise SchemaError("/", "empty subcurve literal")
    return frozenset(ids)


def gamma_from_literal(text: str, width: int) -> GammaSet:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise SchemaError("/", f"malformed gamma point {chunk!r}, expected x,y")
        try:
            points.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise SchemaError("/", f"non-integer gamma point {chunk!r}") from None
    if not points:
        raise SchemaError("/", "empty gamma literal")
    return GammaSet(points=tuple(points), width=width)


# ---------------------------------------------------------------------------
# subgroup data

_VANISH = "vanishing orders must be nonnegative integers"


def datum_from_json(obj: Any, curve: CurveModel) -> OnePSDatum:
    m = _expect(obj, "m", int, "")
    rho_raw = _expect(obj, "rho", list, "")
    rho = [_expect(rho_raw, i, int, "/rho", message="weights must be integers")
           for i in range(len(rho_raw))]
    hbar_raw = _expect(obj, "hbar", dict, "")
    hbar = {}
    for cid in hbar_raw:
        if cid not in curve.component_ids:
            raise UnknownIdError(f"unknown component {cid!r} in hbar")
        hbar[cid] = _expect(hbar_raw, cid, int, "/hbar", message="top index must be an integer")
    known = {mk.id for mk in curve.marks}
    profiles = []
    for i, p in enumerate(_expect(obj, "profiles", list, "", [])):
        pointer = f"/profiles/{i}"
        comp = _expect(p, "component", str, pointer)
        if comp not in curve.component_ids:
            raise UnknownIdError(f"unknown component {comp!r} in profile")
        vanish = _expect(p, "vanish", list, pointer)
        at = f"{pointer}/vanish"
        for j in range(len(vanish)):
            if _expect(vanish, j, int, at, message=_VANISH) < 0:
                raise SchemaError(f"{at}/{j}", _VANISH)
        marks = tuple(_expect(p, "marks", list, pointer, []))
        for mid in marks:
            if not (isinstance(mid, str) and mid in known):
                raise UnknownIdError(f"unknown mark {mid!r} in profile")
        profiles.append(PointProfile(
            id=_expect(p, "id", str, pointer),
            component=comp,
            kind=_expect(p, "kind", str, pointer, "smooth"),
            vanish=tuple(vanish),
            marks=marks))
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
