"""Command-line front end.

Every command reads exact-rational JSON/literal inputs, prints one JSON
report, and exits with a verdict code so batch scans can filter without
parsing:

* 0  stable / K-stable / twist found / computation done,
* 1  strictly semistable boundary,
* 2  unstable / not K-stable / no twist,
* 3+ errors (3 schema, with the JSON pointer of the faulty element,
  4 malformed rational, 5 unknown identifier, 6 unreadable input or
  unwritable output, 7 domain precondition, 64 usage).

``CURVESTAB_MAX_R``, a positive integer, lowers the subcurve enumeration
cap; the hard bound stays at 24 components.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import chow as chow_mod
from . import degree_class as dc_mod
from . import kstab as kstab_mod
from . import newton as newton_mod
from . import slope as slope_mod
from .curve import ENUMERATION_CAP, classify_weighted, stabilize
from .io import (
    RationalError,
    SchemaError,
    UnknownIdError,
    curve_from_json,
    curve_to_json,
    datum_from_json,
    gamma_from_literal,
    loads_datum,
    parse_rational,
    polarization_from_literal,
    subcurve_from_literal,
    vector_from_literal,
)

EXIT_STABLE = 0
EXIT_BOUNDARY = 1
EXIT_UNSTABLE = 2
EXIT_SCHEMA = 3
EXIT_RATIONAL = 4
EXIT_UNKNOWN_ID = 5
EXIT_IO = 6
EXIT_DOMAIN = 7
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _cap() -> int:
    raw = os.environ.get("CURVESTAB_MAX_R", str(ENUMERATION_CAP))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"CURVESTAB_MAX_R must be a positive integer, got {raw!r}")
    return min(ENUMERATION_CAP, cap)


def _load_json(path: str):
    """The JSON value in a file, read once as bytes and decoded by
    ``loads_datum`` to what a text-mode read would give; an unreadable
    file, one that is not UTF-8, or invalid JSON, too deeply nested ones
    and integers past ``int``'s digit limit included, is an I/O error."""
    try:
        with open(path, "rb") as fh:
            return loads_datum(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise IOError(f"invalid JSON in {path}: {exc}") from exc


def _load_curve(path: str):
    return curve_from_json(_load_json(path))


_quote = json.encoder.encode_basestring


class _Rows:
    """A list of a report that is written as it is made, each item once,
    or with ``shape`` "{}" an object: ``texts(pad)`` yields each item's
    JSON (an object's ``"key": value``) as ``_write`` would write it at
    ``pad``.  ``floats``, the list's ``--float`` mirror or None, holds one
    entry per row: the row's mirror, its JSON at indent 0, one string
    shared by the rows of one tail, or None for a row with nothing to
    mirror; it is complete once the items are written."""

    __slots__ = ("texts", "floats", "shape")

    def __init__(self, texts, floats, shape="[]"):
        self.texts, self.floats, self.shape = texts, floats, shape


def _joined(items: list, sep: str) -> list:
    """``out[m]``: the items at the set bits of ``m``, in ascending bit
    order, joined by ``sep``."""
    out = [""]
    for item in items:
        out += [text + sep + item if text else item for text in out]
    return out


def _row_texts(rows, quoted: list, names: tuple, floats, pad: str):
    """The JSON of each row ``(mask, tail, ...)`` of a subcurve list,
    indented from ``pad``: the subcurve's ids, then the fields ``names``
    read from ``tail``, each a ``Fraction`` (written as its quoted
    ``n/d``), a pair of them (a list), a label or None.  Bit ``i`` of the
    mask is ``quoted[i]``, a quoted id, and the id list of a mask is
    ``low[mask & cut]`` and ``high[mask >> h]`` joined, the ids of the
    lower and of the upper half of its bits, in ascending bit order, which
    is ``sorted()`` order since ``inv.ids`` is sorted.  Unless ``floats``
    is None, each row appends its ``--float`` mirror there (``_mirrored``:
    the tail's mirror text, or None).  The rest of a row, from its id
    list's closing bracket on, and its mirror are
    rendered once per tail object: a producer builds each distinct tail
    once and keeps it alive while ``rows`` is drawn
    (``slope._interval_rows``, ``slope._h0_rows``,
    ``slope._comparison_rows``, ``kstab._Scan``), so its ``id`` stands
    for it."""
    inner, h = pad + "  ", len(quoted) // 2
    opened, sep, closed = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
    head, cut = "{\n" + inner + '"subcurve": ' + opened, (1 << h) - 1
    low, high = _joined(quoted[:h], sep), _joined(quoted[h:], sep)
    template = ("\n  ]" + "".join(',\n  "%s": %%s' % name for name in names) + "\n}").replace("\n", "\n" + pad)
    memo = {}  # id of a tail -> the row's text from the closing bracket on and its mirror, or None
    for row in rows:
        shown = memo.get(id(row[1]))
        if shown is None:
            kept = [] if floats is None else ['"%s": %s' % (name, m) for name, x in zip(names, row[1])
                                              if (m := _mirrored(x)) is not None]
            shown = memo[id(row[1])] = (
                template % tuple("null" if x is None else _quote(x) if type(x) is str
                                 else opened + sep.join(['"%s"' % q for q in x]) + closed if type(x) is tuple
                                 else '"%s"' % x for x in row[1]),
                "{\n  " + ",\n  ".join(kept) + "\n}" if kept else None)
        text, mirror = shown
        if floats is not None:
            floats.append(mirror)
        lo, hi = low[row[0] & cut], high[row[0] >> h]
        yield head + (lo + sep + hi if lo and hi else lo or hi) + text


def _mirrored(value):
    """A row field's ``--float`` mirror, as JSON at indent 2: a
    ``Fraction`` that ``_approximate`` renders, as its float, and a pair
    of them as an object of its members that it renders; None, left out,
    for anything else."""
    if type(value) is tuple:
        kept = ['"%d": %r' % (i, f) for i, x in enumerate(value) if (f := _approximate(x)) is not None]
        return "{\n    " + ",\n    ".join(kept) + "\n  }" if kept else None
    return repr(f) if type(value) is Fraction and (f := _approximate(value)) is not None else None


def _subcurve_rows(rows, ids: list, names: tuple, with_float: bool) -> _Rows:
    """The streamed list of ``rows`` (``_row_texts``), whose masks index
    ``ids``, with its ``--float`` mirror if ``with_float``."""
    floats = [] if with_float else None
    return _Rows(functools.partial(_row_texts, rows, [_quote(c) for c in ids], names, floats), floats)


def _status_exit(status: str) -> int:
    return {
        "Stable": EXIT_STABLE,
        "KStable": EXIT_STABLE,
        "StrictlySemistable": EXIT_BOUNDARY,
        "Semistable": EXIT_BOUNDARY,
        "Unstable": EXIT_UNSTABLE,
        "NotKStable": EXIT_UNSTABLE,
        "NotSemistable": EXIT_UNSTABLE,
    }[status]


def _sign_exit(value: Fraction) -> int:
    if value > 0:
        return EXIT_STABLE
    if value == 0:
        return EXIT_BOUNDARY
    return EXIT_UNSTABLE


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, report)


def _cmd_check(args):
    curve = _load_curve(args.curve)
    pol = polarization_from_literal(args.polarization, curve)
    # every check of the criterion's public scan, in its order, before any output
    scan = slope_mod._check(curve, pol, args.criterion, args.connected_only, _cap())
    ids, fields = scan.inv.ids, slope_mod._WITNESSED
    report = {"command": "check", "criterion": args.criterion, "status": scan.status,
              "witnesses": _subcurve_rows(scan.witnesses, ids, fields, args.with_float)}
    if args.criterion == "both":
        # Below the degree guard the section-count witnesses are withheld and
        # the comparison's regime flag and status stand in.
        report["h0_status"] = scan.h0_status
        report["h0_witnesses"] = None if scan.h0 is None else _subcurve_rows(scan.h0, ids, fields, args.with_float)
        report["regime"] = scan.regime
        report["disagreements"] = _subcurve_rows(scan.disagreements, ids, slope_mod._COMPARED, args.with_float)
    return _status_exit(scan.status), report


def _cmd_twist(args):
    curve = _load_curve(args.curve)
    vector = vector_from_literal(args.vector, curve)
    result = dc_mod.find_twist(curve, vector, cap=_cap())
    if result is None:
        return EXIT_UNSTABLE, {"command": "twist", "twist": None}
    return EXIT_STABLE, {
        "command": "twist",
        "twist": result.vector,
        "coefficients": result.coefficients,
    }


def _cmd_chow_weight(args):
    curve = _load_curve(args.curve)
    pol = polarization_from_literal(args.polarization, curve)
    datum = datum_from_json(_load_json(args.ops), curve)
    rep = chow_mod.chow_report(datum, curve, pol)
    return _sign_exit(rep.total), {"command": "chow-weight", **_weights_json(rep)}


def _weights_json(rep: chow_mod.ChowWeights) -> dict:
    return {"omega": rep.omega, "mu_a": rep.mu, "omega_a": rep.total, "e": rep.multiplicity}


def _cmd_two_weight(args):
    curve = _load_curve(args.curve)
    pol = polarization_from_literal(args.polarization, curve)
    sub = subcurve_from_literal(args.subcurve, curve)
    datum = chow_mod.two_weight_datum(curve, pol, sub)
    rep = chow_mod.chow_report(datum, curve, pol)
    closed = chow_mod.two_weight_closed_form(curve, pol, sub)
    return _sign_exit(rep.total), {
        "command": "two-weight",
        "subcurve": sorted(sub),
        "m": datum.m,
        **_weights_json(rep),
        "closed_form": closed,
    }


def _cmd_newton(args):
    if args.oracle_k is not None and args.oracle_k < 0:
        raise argparse.ArgumentTypeError(f"--oracle-k must be nonnegative, got {args.oracle_k}")
    gamma = gamma_from_literal(args.gamma, args.width)
    poly = newton_mod.polygon_from_points(gamma)
    report = {
        "command": "newton",
        "vertices": [[x, y] for x, y in poly.vertices],
        "area": poly.area,
    }
    if args.oracle_k is not None:
        counts = newton_mod._lattice_counts(gamma, range(args.oracle_k + 1))
        report["oracle"] = {
            "counts": counts,
            "second_differences": [
                counts[k + 2] - 2 * counts[k + 1] + counts[k]
                for k in range(len(counts) - 2)
            ],
        }
    return EXIT_STABLE, report


def _cmd_bounds(args):
    curve = _load_curve(args.curve)
    pol = polarization_from_literal(args.polarization, curve)
    datum = datum_from_json(_load_json(args.ops), curve)
    epsilon = parse_rational(args.epsilon, "/epsilon")
    inv = chow_mod._require_valid(datum, curve, pol)
    stairs = bounds_mod._increments(datum)
    plain, weighted, e_alpha = bounds_mod._lower_bound(datum, inv, pol, epsilon, stairs)
    shifted = bounds_mod._shifted(datum, stairs)
    shapes, which = datum._shape_index
    rows = [_trapezoid_row(datum.rho, q, datum.hbar[q.component]) for q in shapes]
    trapezoid = [{"point": p.id, **rows[n]} for p, n in zip(datum.profiles, which)]
    return EXIT_STABLE, {
        "command": "bounds",
        "epsilon": epsilon,
        "E_alpha": e_alpha,
        "omega_hat": plain,
        "omega_hat_weighted": weighted,
        "rho_hat": list(shifted.values),
        "unassigned_indices": list(shifted.unassigned),
        "trapezoid_report": trapezoid,
    }


def _trapezoid_row(rho, profile, h) -> dict:
    """The trapezoid row over a profile's whole index range.  In a valid
    datum a vanish list has one entry more than its profile's top index,
    so the row depends on the list alone."""
    tb = bounds_mod.trapezoid_bound(profile, rho, h, 0, h)
    return {"rhs": tb.rhs, "exact": tb.exact, "ok": tb.ok}


def _cmd_k_check(args):
    curve = _load_curve(args.curve)
    pol = polarization_from_literal(args.polarization, curve)
    scan = kstab_mod._Scan(curve, pol, cap=_cap())  # every check: the scope, then the cap
    return _status_exit(scan.verdict), _k_report(scan, args.with_float)


def _k_report(scan: kstab_mod._Scan, with_float: bool):
    """The ``k-check`` report's pairs: ``df`` streams from the scan, and
    the witness, which the report writes after it, is read once it is
    written."""
    yield "command", "k-check"
    yield "verdict", scan.verdict
    yield "proportional", scan.proportional
    yield "df", _subcurve_rows(scan, scan.inv.ids, kstab_mod._SCANNED, with_float)
    witness = scan.witness()
    yield "witness", None if witness is None else sorted(witness)
    yield "reason", scan.reason


def _cmd_classify(args):
    curve = _load_curve(args.curve)
    cls = classify_weighted(curve)
    return _status_exit(cls.status), {
        "command": "classify",
        "status": cls.status,
        "exceptional": list(cls.exceptional),
        "witness": cls.witness,
        "reason": cls.reason,
    }


def _cmd_stabilize(args):
    stable = stabilize(_load_curve(args.curve))
    result = curve_to_json(stable)
    for mark, m in zip(result["marks"], stable.marks):
        mark["weight"] = m.weight
    return EXIT_STABLE, {"command": "stabilize", "curve": result}


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing keeps no state in it
    (each call fills a new namespace), so later ``main`` calls reuse it."""
    parser = _Parser(prog="curvestab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **flags):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        if flags.get("curve"):
            p.add_argument("--curve", required=True, help="curve JSON file")
        if flags.get("polarization"):
            p.add_argument("--polarization", required=True, help='degrees, e.g. "C1=10,C2=10"')
        p.add_argument("--float", action="store_true", dest="with_float",
                       help="add a labelled block of decimal approximations")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        return p

    p = add("check", _cmd_check, curve=True, polarization=True)
    p.add_argument("--criterion", choices=("interval", "h0", "both"), default="interval")
    p.add_argument("--connected-only", action="store_true")

    p = add("twist", _cmd_twist, curve=True)
    p.add_argument("--vector", required=True, help='degree vector, e.g. "C1=13,C2=7"')

    p = add("chow-weight", _cmd_chow_weight, curve=True, polarization=True)
    p.add_argument("--ops", required=True, help="subgroup datum JSON file")

    p = add("two-weight", _cmd_two_weight, curve=True, polarization=True)
    p.add_argument("--subcurve", required=True, help='component ids, e.g. "C2" or "C1,C2"')

    p = add("newton", _cmd_newton)
    p.add_argument("--gamma", required=True, help='lattice points, e.g. "0,2;1,1;3,0"')
    p.add_argument("--width", required=True, type=int)
    p.add_argument("--oracle-k", type=int, default=None)

    p = add("bounds", _cmd_bounds, curve=True, polarization=True)
    p.add_argument("--ops", required=True, help="subgroup datum JSON file")
    p.add_argument("--epsilon", default="1/2")

    add("k-check", _cmd_k_check, curve=True, polarization=True)
    add("classify", _cmd_classify, curve=True)
    add("stabilize", _cmd_stabilize, curve=True)
    return parser


def _approximate(value: Fraction):
    """``float(value)``: the quotient of two ints, which Python rounds
    correctly.  None, left out of the ``--float`` block, for an integer and
    past the largest float."""
    try:
        return value.numerator / value.denominator if value.denominator != 1 else None
    except OverflowError:
        return None


def _float_block(container):
    """Mirror of a report's dict or list (list positions as string keys)
    keeping only its ``Fraction``s that ``_approximate`` renders as
    floats; empty containers are pruned.  A streamed list brings its own
    mirror, written as an object of its rows (``_mirror_texts``), and is
    pruned when no row has a mirror text."""
    out = {}
    items = container.items() if isinstance(container, dict) else enumerate(container)
    for key, item in items:
        if type(item) is Fraction:
            mirrored = _approximate(item)
        elif isinstance(item, (dict, list)):
            mirrored = _float_block(item)
        elif type(item) is _Rows:
            mirrored = _Rows(functools.partial(_mirror_texts, item.floats), None, "{}") if any(item.floats) else None
        else:
            continue
        if mirrored is not None:
            out[str(key)] = mirrored
    return out or None


def _mirror_texts(mirrors: list, pad: str):
    """The members of a streamed list's ``--float`` mirror: ``"position":
    text`` for each row whose mirror text is not None, each distinct text
    indented from ``pad`` once."""
    indented = {}
    for i, text in enumerate(mirrors):
        if text is not None:
            shown = indented.get(text)
            if shown is None:
                shown = indented[text] = text.replace("\n", "\n" + pad)
            yield '"%d": %s' % (i, shown)


_CHUNK = 1000  # pieces of text a list writes between two writes to the report's target


class _Pieces(list):
    """The pieces of text ``_write`` appends.  A list drains them every
    ``_CHUNK`` pieces or so: ``drain()`` passes them to ``sink`` as one
    string and empties the list, so no report is ever joined whole."""

    __slots__ = ("sink",)

    def __init__(self, sink):
        super().__init__()
        self.sink = sink

    def drain(self) -> None:
        self.sink("".join(self))
        self.clear()


def _write(value, pad: str, out: _Pieces) -> None:
    """Append the JSON of ``value``, indented from ``pad``, to ``out``: the
    text ``json.dumps(value, indent=2, ensure_ascii=False)`` gives, written
    directly, as with ``indent`` the standard library falls back to its
    pure-Python encoder.  A ``Fraction`` is written as its quoted ``n/d``
    (``io.format_rational``), and a ``_Rows`` as the list, or object, of
    its items."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif type(value) is Fraction:
        out.append('"%s"' % value)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value) if math.isfinite(value) else json.dumps(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = ",\n" + inner
            if len(out) >= _CHUNK:
                out.drain()
        out.append("\n" + pad + "]")
    elif isinstance(value, dict):
        _write_pairs(value.items(), pad, out)
    elif type(value) is _Rows:
        inner = pad + "  "
        first = sep = value.shape[0] + "\n" + inner
        for text in value.texts(inner):
            out.append(sep + text)
            sep = ",\n" + inner
            if len(out) >= _CHUNK:
                out.drain()
        out.append(value.shape if sep is first else "\n" + pad + value.shape[1])
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_pairs(pairs, pad: str, out: _Pieces) -> None:
    """Append the JSON object of the ``(key, value)`` pairs, as ``_write``
    does a dict's items; each value is written before the next pair is
    drawn."""
    inner = pad + "  "
    first = sep = "{\n" + inner
    for key, item in pairs:
        out.append(sep + _quote(key) + ": ")
        _write(item, inner, out)
        sep = ",\n" + inner
    out.append("{}" if sep is first else "\n" + pad + "}")


def _with_approximations(pairs):
    """A report's pairs, then its ``approximations`` unless its ``--float``
    mirror is empty: read once every other value is written, so that a
    streamed list's mirror is complete."""
    written = {}
    for key, value in pairs:
        written[key] = value
        yield key, value
    block = _float_block(written)
    if block:
        yield "approximations", {"note": "decimal renderings, not exact", **block}


def _write_report(pairs, sink) -> None:
    out = _Pieces(sink)
    _write_pairs(pairs, "", out)
    out.append("\n")
    out.drain()


def _emit(report, args) -> None:
    """Write a report, a dict or an iterator of its ``(key, value)`` pairs,
    to ``--output`` or stdout as it is made.  A report file that fails
    partway is removed."""
    pairs = report.items() if isinstance(report, dict) else report
    if getattr(args, "with_float", False):
        pairs = _with_approximations(pairs)
    path = getattr(args, "output", None)
    if path:
        fh = open(path, "w", encoding="utf-8")
        try:
            with fh:
                _write_report(pairs, fh.write)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(path)
            raise
        return
    stdout = sys.stdout
    if hasattr(stdout, "buffer"):  # the UTF-8 bytes an --output file gets, whatever stdout's encoding
        stdout.flush()
        buffer = stdout.buffer
        _write_report(pairs, lambda text: buffer.write(text.encode("utf-8")))
        buffer.flush()
    else:
        _write_report(pairs, stdout.write)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, report = args.handler(args)
    except SchemaError as exc:
        code, report = EXIT_SCHEMA, {"error": str(exc), "pointer": exc.pointer, "code": EXIT_SCHEMA}
    except RationalError as exc:
        code, report = EXIT_RATIONAL, {"error": str(exc), "code": EXIT_RATIONAL}
    except UnknownIdError as exc:
        code, report = EXIT_UNKNOWN_ID, {"error": str(exc), "code": EXIT_UNKNOWN_ID}
    except argparse.ArgumentTypeError as exc:
        code, report = EXIT_USAGE, {"error": str(exc), "code": EXIT_USAGE}
    except OSError as exc:
        code, report = EXIT_IO, {"error": str(exc), "code": EXIT_IO}
    except (ValueError, KeyError, OverflowError) as exc:
        code, report = EXIT_DOMAIN, {"error": str(exc), "code": EXIT_DOMAIN}
    try:
        _emit(report, args)
    except OSError as exc:
        _emit({"error": f"cannot write {args.output}: {exc}", "code": EXIT_IO}, argparse.Namespace())
        return EXIT_IO
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
