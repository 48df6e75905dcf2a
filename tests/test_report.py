"""Report rendering: the direct JSON writer against
``json.dumps(indent=2, ensure_ascii=False)``, the streamed ``check`` and
``k-check`` reports against the ones built from the public scans, the
``--float`` block against its ``Fraction(str)`` reference, identifiers
kept out of that block, and reports written to stdout as UTF-8 whatever
its encoding."""

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvestab as cs
from curvestab import cli, slope
from curvestab.io import (UnknownIdError, curve_from_json, curve_to_json, datum_to_json, format_rational,
                          polarization_from_literal)
from conftest import random_positive_curve, regime_polarization
from test_cli import F2_JSON, F4_JSON
from test_scan_walk import differential_curve, polarizations

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def stdlib_text(value) -> str:
    """``json.dumps``'s text, a ``Fraction`` written as ``format_rational``'s."""
    return json.dumps(value, indent=2, ensure_ascii=False, default=format_rational)


def writer_text(value) -> str:
    """What the report writer makes of one value, its chunks joined."""
    chunks = []
    out = cli._Pieces(chunks.append)
    cli._write(value, "", out)
    out.drain()
    return "".join(chunks)


def reference_float_block(value):
    """The ``--float`` mirror as first written: every string with a ``/``
    that ``Fraction`` parses, identifiers included."""
    if isinstance(value, str) and "/" in value:
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            return None
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            mirrored = reference_float_block(item)
            if mirrored is not None:
                out[key] = mirrored
        return out or None
    if isinstance(value, list):
        mirrored = [reference_float_block(v) for v in value]
        kept = [(i, m) for i, m in enumerate(mirrored) if m is not None]
        if not kept:
            return None
        return {str(i): m for i, m in kept}
    return None


# ---------------------------------------------------------------------------
# the writer


TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é", "中", "\U0001f600", "/"])
texts = st.lists(TRICKY | st.characters(), max_size=8).map("".join)
leaves = (st.none() | st.booleans() | st.integers() | st.integers(-(10 ** 30), 10 ** 30)
          | st.floats() | texts | st.fractions() | st.builds(Fraction, st.integers(-(10 ** 30), 10 ** 30),
                                                             st.integers(1, 10 ** 30)))
json_values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=25)


@PROPERTY
@given(value=json_values)
def test_writer_matches_the_standard_library(value):
    assert writer_text(value) == stdlib_text(value)


def test_writer_matches_the_standard_library_on_edge_values():
    for value in ({}, [], (), "", {"": []}, [{}], [[]], {"a": {}}, math.nan, math.inf, -math.inf,
                  -0.0, 1e300, 2 ** 70, {"k": [True, False, None, 0.1]}, Fraction(1, 2), Fraction(-4)):
        assert writer_text(value) == stdlib_text(value)
    with pytest.raises(TypeError, match="not JSON serializable"):
        writer_text({"x": {1}})


def test_long_lists_are_written_in_chunks():
    drained = []
    out = cli._Pieces(drained.append)
    value = {"a": list(range(2500)), "b": [[str(i)] * 3 for i in range(800)], "c": []}
    cli._write(value, "", out)
    out.drain()
    assert "".join(drained) == stdlib_text(value)
    assert len(drained) > 4 and max(map(len, drained)) < 20_000


def test_witness_and_entry_lists_of_an_unstable_chain_match_the_standard_library(capsys, tmp_path):
    # A genus-one chain at r = 10, eight times its dualizing degrees with
    # three units moved from one end to the other: hundreds of rows a report.
    ids = [f"C{i}" for i in range(10)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"components": [{"id": c, "genus": 1} for c in ids],
                                "nodes": [[a, b] for a, b in zip(ids, ids[1:])]}))
    degrees = {c: 16 for c in ids} | {"C0": 5, "C9": 11}
    base = ["--curve", str(path), "--polarization", ",".join(f"{c}={d}" for c, d in degrees.items())]
    for argv, rows_key in ((["check", *base, "--criterion", "both", "--float"], "witnesses"),
                           (["k-check", *base], "df")):
        assert cli.main(argv) == 2
        out = capsys.readouterr().out
        report = json.loads(out)
        assert out == stdlib_text(report) + "\n" and len(report[rows_key]) > 400


def command_lines(tmp_path) -> list[list[str]]:
    """One or more argument lists per command, error reports included."""
    f2, f4 = tmp_path / "f2.json", tmp_path / "f4.json"
    f2.write_text(json.dumps(F2_JSON))
    f4.write_text(json.dumps(F4_JSON))
    curve = curve_from_json(F4_JSON)
    datum = tmp_path / "datum.json"
    two_weight = cs.two_weight_datum(curve, cs.Polarization({"C1": 11, "P": 9}), {"P"})
    datum.write_text(json.dumps(datum_to_json(two_weight)))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "components": [{"id": "C1", "genus": 1}, {"id": "E", "genus": 0}, {"id": "C2", "genus": 1}],
        "nodes": [["C1", "E"], ["E", "C2"]],
        "sites": [{"id": "p", "component": "C1"}], "marks": [{"id": "x", "site": "p", "weight": "1/3"}]}))
    return [
        ["check", "--curve", str(f2), "--polarization", "C1=11,C2=9"],
        ["check", "--curve", str(f4), "--polarization", "C1=11,P=9", "--criterion", "both"],
        ["check", "--curve", str(f2), "--polarization", "C1=2,C2=3", "--criterion", "both"],
        ["check", "--curve", str(f2), "--polarization", "C1=13,C2=7", "--criterion", "h0"],
        ["twist", "--curve", str(f2), "--vector", "C1=13,C2=7"],
        ["chow-weight", "--curve", str(f4), "--polarization", "C1=11,P=9", "--ops", str(datum)],
        ["two-weight", "--curve", str(f4), "--polarization", "C1=11,P=9", "--subcurve", "P"],
        ["newton", "--gamma", "0,2;1,1;3,0", "--width", "3", "--oracle-k", "4"],
        ["bounds", "--curve", str(f4), "--polarization", "C1=11,P=9", "--ops", str(datum)],
        ["k-check", "--curve", str(f2), "--polarization", "C1=11,C2=9"],
        ["classify", "--curve", str(chain)],
        ["stabilize", "--curve", str(chain)],
        ["check", "--curve", str(f2), "--polarization", "C1=10,C9=10"],
    ]


def k_check_reference(curve_path: str, literal: str, with_float: bool) -> str:
    """The ``k-check`` report as ``json.dumps`` prints it, built from the
    public ``k_stable`` and, with ``--float``, the reference block of its
    rationals, the ids in ``df`` and ``witness`` left out."""
    with open(curve_path, encoding="utf-8") as fh:
        curve = curve_from_json(json.load(fh))
    rep = cs.k_stable(curve, polarization_from_literal(literal, curve))
    report = {"command": "k-check", "verdict": rep.verdict, "proportional": rep.proportional,
              "df": [{"subcurve": sorted(e.subcurve), "value": format_rational(e.value)} for e in rep.entries],
              "witness": None if rep.witness is None else sorted(rep.witness), "reason": rep.reason}
    block = reference_float_block(without_ids(dict(report, witness=None))) if with_float else None
    if block:
        report["approximations"] = {"note": "decimal renderings, not exact", **block}
    return stdlib_text(report) + "\n"


def witness_json(w: cs.Witness) -> dict:
    optional = lambda x: None if x is None else format_rational(x)
    return {"subcurve": sorted(w.subcurve), "value": format_rational(w.value), "lower": optional(w.lower),
            "upper": optional(w.upper), "side": w.side, "kind": w.kind}


def without_ids(value):
    """A report with every ``subcurve`` field left out: ids are not
    rationals, however they look."""
    if isinstance(value, dict):
        return {key: without_ids(item) for key, item in value.items() if key != "subcurve"}
    if isinstance(value, list):
        return [without_ids(item) for item in value]
    return value


def check_reference(argv: list[str]) -> str:
    """The ``check`` report of ``argv`` as ``json.dumps`` prints it, built
    from the public ``slope_check_interval``, ``slope_check_h0`` and
    ``equivalence_report`` and, with ``--float``, the reference block of
    its rationals; a ``ValueError`` of theirs, or of the polarization's
    reader, is the error report."""
    args = cli._build_parser().parse_args(argv)
    with open(args.curve, encoding="utf-8") as fh:
        curve = curve_from_json(json.load(fh))
    scan = {"connected_only": args.connected_only}
    try:
        pol = polarization_from_literal(args.polarization, curve)
        first = (cs.slope_check_h0 if args.criterion == "h0" else cs.slope_check_interval)(curve, pol, **scan)
        report = {"command": "check", "criterion": args.criterion, "status": first.status,
                  "witnesses": [witness_json(w) for w in first.witnesses]}
        if args.criterion == "both":
            eq = cs.equivalence_report(curve, pol, **scan)
            h0 = cs.slope_check_h0(curve, pol, **scan) if eq.regime == "ok" or len(curve.components) == 1 else None
            report |= {
                "h0_status": eq.h0_status if h0 is None else h0.status,
                "h0_witnesses": None if h0 is None else [witness_json(w) for w in h0.witnesses],
                "regime": eq.regime,
                "disagreements": [{"subcurve": sorted(e.subcurve), "interval_state": e.interval_state,
                                   "h0_state": e.h0_state,
                                   "interval_margins": [format_rational(x) for x in e.interval_margins],
                                   "h0_margin": None if e.h0_margin is None else format_rational(e.h0_margin)}
                                  for e in eq.disagreements]}
    except UnknownIdError as exc:
        report = {"error": str(exc), "code": 5}
    except ValueError as exc:
        report = {"error": str(exc), "code": 7}
    block = reference_float_block(without_ids(report)) if args.with_float and "command" in report else None
    if block:
        report["approximations"] = {"note": "decimal renderings, not exact", **block}
    return stdlib_text(report) + "\n"


def test_writer_matches_the_standard_library_on_every_command(capsys, tmp_path, monkeypatch):
    # Every report but check's and k-check's is made before it is written,
    # so the pairs the writer gets, approximations included, are gathered
    # into a dict.  check and k-check write their lists as they render
    # them; their text is compared with the report built from the public
    # scans.
    seen, real = [], cli._write_report

    def gathered(pairs, sink):
        pairs = list(pairs)
        seen.append(dict(pairs))
        real(iter(pairs), sink)

    commands = set()
    for argv in command_lines(tmp_path):
        for extra in ([], ["--float"]):
            streamed = argv[0] in ("check", "k-check")
            with monkeypatch.context() as patch:
                if not streamed:
                    patch.setattr(cli, "_write_report", gathered)
                cli.main(argv + extra)
            out = capsys.readouterr().out
            if argv[0] == "k-check":
                assert out == k_check_reference(argv[2], argv[4], bool(extra))
            elif streamed:
                assert out == check_reference(argv + extra)
            else:
                assert out == stdlib_text(seen[-1]) + "\n"
            commands.add(json.loads(out).get("command", "error"))
    assert len(commands) == 10  # nine commands and an error report
    assert any("approximations" in report for report in seen)


# Ids that the polarization literal keeps whole (no comma, "=" or outer
# whitespace): JSON escapes, text beyond ASCII, and a fraction's look.
ODD_IDS = ('"q', "a\nb", "é", "1/2", "b\\", "中", "t\tu", "\U0001f600", "/", "0")


def renamed(curve: cs.CurveModel, names) -> cs.CurveModel:
    """The curve with its components, in id order, renamed to ``names``."""
    new = dict(zip(sorted(curve.component_ids), names))
    return cs.CurveModel(tuple(cs.Component(new[c.id], c.genus) for c in curve.components),
                         tuple((new[a], new[b]) for a, b in curve.nodes),
                         tuple(cs.MarkSite(s.id, new[s.component]) for s in curve.sites), curve.marks)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), names=st.permutations(ODD_IDS))
def test_streamed_check_matches_the_public_scans(seed, names):
    # differential_curve's polarizations: near the window centres, moved
    # off them (attained and violated witnesses) and below the degree guard.
    rng = random.Random(seed)
    curve = renamed(differential_curve(rng), names)
    with tempfile.TemporaryDirectory() as tmp:
        path, target = os.path.join(tmp, "curve.json"), os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(curve_to_json(curve), fh)
        for pol in polarizations(rng, curve):
            literal = ",".join(f"{c}={d}" for c, d in pol.degrees.items())
            for criterion in ("interval", "h0", "both"):
                for flags in ([], ["--float"], ["--connected-only"], ["--float", "--connected-only"]):
                    argv = ["check", "--curve", path, "--polarization", literal, "--criterion", criterion, *flags]
                    code = cli.main(argv + ["--output", target])
                    with open(target, encoding="utf-8") as fh:
                        text = fh.read()
                    assert text == check_reference(argv), argv
                    report = json.loads(text)
                    assert code == (report["code"] if "error" in report else cli._status_exit(report["status"]))


def k_input(seed: int, kind: str) -> tuple[cs.CurveModel, cs.Polarization]:
    """An unmarked curve of genus at least two with every dualizing degree
    positive, at most eight components, and a polarization whose
    ``k_stable`` witness comes from ``kind``: "none" (K-stable, a multiple
    of the dualizing degrees), "value" (one component moved off by more
    than half its linking count, so it has a positive value) or "margin"
    (a cycle through every component, on which each proper subcurve links
    at least twice, with one unit moved: positive margins, no positive
    value)."""
    rng = random.Random(seed)
    while True:
        r = rng.randint(1 if kind == "none" else 2, 8)
        ids = [f"C{i}" for i in range(r)]
        if kind == "margin":
            nodes = list(zip(ids, ids[1:] + ids[:1]))
        else:
            nodes = [(ids[i], ids[rng.randrange(i)]) for i in range(1, r)]
        nodes += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 2) if r > 1 else 0)]
        curve = cs.CurveModel(tuple(cs.Component(c, rng.randint(0, 2)) for c in ids), tuple(nodes))
        omegas = cs.curve._Invariants(curve).omegas
        if cs.arithmetic_genus(curve) >= 2 and min(omegas.values()) > 0:
            break
    k = rng.randint(1, 3)
    degrees = {c: k * om for c, om in omegas.items()}
    if kind != "none":
        a, b = rng.sample(ids, 2)
        moved = 1 if kind == "margin" else cs.curve._Invariants(curve).links[a] // 2 + 1
        degrees = {c: (k + moved) * om for c, om in omegas.items()}
        degrees[a] -= moved
        degrees[b] += moved
    return curve, cs.Polarization(degrees)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["none", "value", "margin"]),
       names=st.permutations(ODD_IDS))
def test_streamed_k_check_matches_the_k_stable_report(seed, kind, names):
    curve, pol = k_input(seed, kind)
    new = dict(zip(sorted(curve.component_ids), names))
    curve, pol = renamed(curve, names), cs.Polarization({new[c]: d for c, d in pol.degrees.items()})
    rep = cs.k_stable(curve, pol)
    positive_values = [e.subcurve for e in rep.entries if e.value > 0]
    positive_margins = [e.subcurve for e in rep.entries if e.margin > 0]
    if kind == "none":
        assert rep.verdict == "KStable" and rep.witness is None
    elif kind == "value":
        assert rep.witness == positive_values[0]
    else:
        assert not positive_values and rep.witness == positive_margins[0]
    # The offender itself is never the witness: a subcurve's margin and
    # its complement's add up to zero, and a polarization that is not
    # proportional gives some component a nonzero margin.
    assert rep.verdict == "KStable" or positive_margins
    literal = ",".join(f"{c}={d}" for c, d in pol.degrees.items())
    with tempfile.TemporaryDirectory() as tmp:
        path, target = os.path.join(tmp, "curve.json"), os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(curve_to_json(curve), fh)
        for extra in ([], ["--float"]):
            code = cli.main(["k-check", "--curve", path, "--polarization", literal, "--output", target, *extra])
            assert code == (0 if kind == "none" else 2)
            with open(target, encoding="utf-8") as fh:
                assert fh.read() == k_check_reference(path, literal, bool(extra))


def run_float(capsys, argv):
    """The ``--float`` block of a command and the block the reference
    makes of the same report without it."""
    code = cli.main(argv)
    plain = json.loads(capsys.readouterr().out)
    assert cli.main(argv + ["--float"]) == code
    shown = json.loads(capsys.readouterr().out)
    expected = reference_float_block(plain)
    return shown.pop("approximations", None), None if expected is None else {
        "note": "decimal renderings, not exact", **expected}


def test_float_block_matches_the_reference_on_every_command(capsys, tmp_path):
    blocks = 0
    for argv in command_lines(tmp_path):
        got, want = run_float(capsys, argv)
        assert got == want, argv
        blocks += got is not None
    assert blocks >= 6


def test_float_block_matches_the_reference_on_random_checks(capsys, tmp_path):
    rng = random.Random(4242)
    path = tmp_path / "curve.json"
    for _ in range(40):
        curve = random_positive_curve(rng, max_components=5)
        pol = regime_polarization(rng, curve, jitter=6)
        path.write_text(json.dumps(curve_to_json(curve)))
        literal = ",".join(f"{c}={d}" for c, d in pol.degrees.items())
        for criterion in ("interval", "h0", "both"):
            got, want = run_float(capsys, ["check", "--curve", str(path), "--polarization", literal,
                                           "--criterion", criterion])
            assert got == want


@PROPERTY
@given(n=st.integers(-(10 ** 40), 10 ** 40) | st.integers(-50, 50),
       d=st.integers(2, 10 ** 40) | st.integers(2, 50))
def test_each_rational_approximates_as_fraction_parsing_does(n, d):
    value = Fraction(n, d)
    text = format_rational(value)
    if "/" in text:
        assert cli._approximate(value) == float(Fraction(text)), text
    else:
        assert cli._approximate(value) is None, text


def test_a_rational_past_the_largest_float_is_left_out_of_the_mirror():
    # float(big) overflows; the mirror leaves the value out, as it does an
    # integer, and the exact string stays in the report.
    big = Fraction(10 ** 400, 3)
    with pytest.raises(OverflowError):
        float(big)
    assert cli._approximate(big) is None and cli._approximate(-big) is None
    assert cli._approximate(Fraction(10 ** 400 + 1, 10 ** 399)) == 10.0
    report = {"big": big, "half": Fraction(1, 2), "list": [-big]}
    assert cli._float_block(report) == {"half": 0.5}
    floats = []
    rows = [(1, (big, Fraction(1, 2), None, "lower", "violated"))]
    texts = list(cli._row_texts(rows, ['"A"'], slope._WITNESSED, floats, ""))
    assert json.loads(texts[0])["value"] == format_rational(big) and floats == ['{\n  "lower": 0.5\n}']


def test_a_streamed_list_keeps_one_mirror_entry_per_row():
    # Rows of one tail share its mirror text; a tail of integers and labels
    # has none, so its rows keep None, and a list of such rows only is
    # left out of the block.
    half = (Fraction(1, 2), Fraction(1), Fraction(3), "upper", "violated")
    whole = (Fraction(2), None, Fraction(3), "upper", "attained")
    rows = [(1, half), (2, whole), (3, half), (4, whole), (5, whole)]
    floats = []
    texts = list(cli._row_texts(iter(rows), ['"A"', '"B"', '"C"'], slope._WITNESSED, floats, ""))
    assert len(texts) == len(floats) == len(rows)
    assert floats[0] == '{\n  "value": 0.5\n}' and floats[2] is floats[0]
    assert floats[1::2] == [None, None] and floats[4] is None
    assert list(cli._mirror_texts(floats, "")) == ['"0": {\n  "value": 0.5\n}', '"2": {\n  "value": 0.5\n}']
    assert cli._float_block({"rows": cli._Rows(None, floats)})["rows"].floats is None
    assert cli._float_block({"rows": cli._Rows(None, [None, None]), "empty": cli._Rows(None, [])}) is None


def test_identifiers_that_look_like_fractions_stay_out_of_the_float_block(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"components": [{"id": "1/2", "genus": 1}, {"id": "B", "genus": 1}],
                                "nodes": [["1/2", "B"]]}))
    code = cli.main(["check", "--curve", str(path), "--polarization", "1/2=9,B=1", "--float"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and [w["subcurve"] for w in report["witnesses"]] == [["1/2"], ["B"]]
    assert report["approximations"] == {"note": "decimal renderings, not exact", "witnesses": {
        "0": {"lower": 4.5, "upper": 5.5}, "1": {"lower": 4.5, "upper": 5.5}}}
    # the reference mirrors the identifier as well
    del report["approximations"]
    assert reference_float_block(report)["witnesses"]["0"]["subcurve"] == {"0": 0.5}


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_gets_the_utf8_bytes_of_an_output_file(tmp_path, encoding):
    path, out = tmp_path / "curve.json", tmp_path / "report.json"
    path.write_text(json.dumps({"components": [{"id": "é", "genus": 1}, {"id": "B", "genus": 1}],
                                "nodes": [["é", "B"]]}), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONIOENCODING=encoding, PYTHONPATH=src)
    argv = [sys.executable, "-m", "curvestab.cli", "check", "--curve", str(path), "--polarization", "é=11,B=9"]
    shown = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    written = subprocess.run(argv + ["--output", str(out)], env=env, capture_output=True, timeout=60)
    assert (shown.returncode, shown.stderr) == (2, b"")
    assert (written.returncode, written.stdout, written.stderr) == (2, b"", b"")
    assert shown.stdout == out.read_bytes()
    assert json.loads(shown.stdout.decode("utf-8"))["witnesses"][1]["subcurve"] == ["é"]
