"""Command line: JSON round-trips, literal parsing, exit codes, and one
happy path per command."""

import json
import random
import sys
from fractions import Fraction

import pytest

import curvestab as cs
from curvestab import bounds, chow, cli
from curvestab.cli import main
from curvestab.io import (
    RationalError,
    SchemaError,
    UnknownIdError,
    curve_from_json,
    curve_to_json,
    datum_from_json,
    datum_to_json,
    parse_rational,
    polarization_from_literal,
)
from conftest import k_check_chain, pol, random_curve

F2_JSON = {
    "components": [{"id": "C1", "genus": 1}, {"id": "C2", "genus": 1}],
    "nodes": [["C1", "C2"]],
    "sites": [],
    "marks": [],
}

F4_JSON = {
    "components": [{"id": "C1", "genus": 1}, {"id": "P", "genus": 0}],
    "nodes": [["C1", "P"]],
    "sites": [{"id": "p1", "component": "P"}, {"id": "p2", "component": "P"}],
    "marks": [
        {"id": "x1", "site": "p1", "weight": "1"},
        {"id": "x2", "site": "p2", "weight": "1"},
    ],
}


@pytest.fixture
def f2_path(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(F2_JSON))
    return str(path)


@pytest.fixture
def f4_path(tmp_path):
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(F4_JSON))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# parsing


def test_parse_rational():
    from fractions import Fraction
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("7") == 7
    assert parse_rational(3) == 3
    with pytest.raises(RationalError, match="zero denominator"):
        parse_rational("2/0")
    with pytest.raises(RationalError, match="malformed"):
        parse_rational("a/b")


def test_curve_round_trip():
    rng = random.Random(113)
    for _ in range(50):
        c = random_curve(rng)
        if not cs.validate_curve(c).ok:
            continue
        assert curve_from_json(curve_to_json(c)) == c


def test_curve_schema_errors():
    with pytest.raises(SchemaError) as err:
        curve_from_json({"components": [{"id": "C"}]})
    assert err.value.pointer == "/components/0/genus"
    overweight = {
        "components": [{"id": "C", "genus": 1}],
        "sites": [{"id": "p", "component": "C"}],
        "marks": [
            {"id": "x1", "site": "p", "weight": "1/2"},
            {"id": "x2", "site": "p", "weight": "2/3"},
        ],
    }
    with pytest.raises(SchemaError, match="site overweight 7/6 > 1"):
        curve_from_json(overweight)
    with pytest.raises(SchemaError, match="curve has no components") as err:
        curve_from_json({"components": []})
    assert err.value.pointer == "/components"


def _pair(sites=(), marks=(), **fields):
    # Components A and B of genus 1 joined by one node, with these sites
    # and marks, and any field replaced.
    return {"components": [{"id": "A", "genus": 1}, {"id": "B", "genus": 1}],
            "nodes": [["A", "B"]], "sites": [{"id": s, "component": c} for s, c in sites],
            "marks": [{"id": m, "site": s, "weight": w} for m, s, w in marks], **fields}


@pytest.mark.parametrize("curve, pointer, message", [
    ({"components": []}, "/components", "curve has no components"),
    (_pair(components=[{"id": "A", "genus": 1}, {"id": "A", "genus": 1}], nodes=[]),
     "/", "duplicate component ids"),
    (_pair(components=[{"id": "A", "genus": 1}, {"id": "B", "genus": -1}]), "/components/1", "genus -1 < 0"),
    (_pair(nodes=[["B", "A"], ["Z", "A"]]), "/nodes", "node endpoint 'Z' is not a component"),
    (_pair(sites=[("p", "A"), ("B", "Q")]), "/sites/1", "site 'B' on unknown component 'Q'"),
    (_pair(sites=[("p", "A"), ("p", "B")]), "/", "duplicate site ids"),
    (_pair(sites=[("p", "A")], marks=[("x", "p", "1/4"), ("x", "p", "1/4")]), "/", "duplicate mark ids"),
    (_pair(sites=[("p", "A")], marks=[("x", "p", "1/4"), ("y", "q", "1/4")]),
     "/marks/1", "mark 'y' on unknown site 'q'"),
    (_pair(sites=[("p", "A")], marks=[("x", "p", "1/4"), ("y", "p", "-1/4")]), "/marks/1", "weight -1/4 < 0"),
    (_pair(sites=[("p", "A"), ("q", "B")], marks=[("x", "q", "1/2"), ("y", "q", "2/3")]),
     "/sites/1", "site overweight 7/6 > 1"),
    (_pair(nodes=[]), "/", "dual graph disconnected"),
], ids=["no-components", "duplicate-component", "negative-genus", "node-end", "site-component",
        "duplicate-site", "duplicate-mark", "unknown-site", "negative-weight", "site-overweight",
        "disconnected"])
def test_curve_violation_points_at_the_faulty_element(capsys, tmp_path, curve, pointer, message):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    code, rep = run(capsys, "classify", "--curve", str(path))
    assert code == 3
    assert (rep["pointer"], rep["error"]) == (pointer, f"{pointer}: {message}")


def test_polarization_literal_errors(f2):
    with pytest.raises(UnknownIdError, match="C9"):
        polarization_from_literal("C1=10,C9=3", f2)
    with pytest.raises(SchemaError, match="missing components"):
        polarization_from_literal("C1=10", f2)
    with pytest.raises(SchemaError, match=r"^/: non-integer polarization value in 'C1=\+-5'$"):
        polarization_from_literal("C1=+-5,C2=3", f2)
    with pytest.raises(SchemaError, match=r"^/: malformed polarization entry 'C1x{38}'\.\.\., expected id=integer$"):
        polarization_from_literal("C1" + "x" * 5000, f2)


def test_datum_round_trip(f2):
    p = pol(f2, 10, 10)
    datum = cs.two_weight_datum(f2, p, {"C2"})
    assert datum_from_json(datum_to_json(datum), f2) == datum


# ---------------------------------------------------------------------------
# commands and exit codes


def test_check_exit_codes(capsys, f2_path, f4_path):
    code, rep = run(capsys, "check", "--curve", f2_path, "--polarization", "C1=10,C2=10")
    assert code == 0 and rep["status"] == "Stable"
    code, rep = run(capsys, "check", "--curve", f2_path, "--polarization", "C1=11,C2=9")
    assert code == 2 and rep["status"] == "Unstable"
    code, rep = run(capsys, "check", "--curve", f4_path, "--polarization", "C1=11,P=9",
                    "--criterion", "both")
    assert code == 1
    assert rep["status"] == rep["h0_status"] == "StrictlySemistable"
    assert rep["disagreements"] == []


def test_check_error_codes(capsys, f2_path, tmp_path):
    code, rep = run(capsys, "check", "--curve", f2_path, "--polarization", "C1=10,C9=10")
    assert code == 5 and "C9" in rep["error"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "components": [{"id": "C", "genus": 1}],
        "sites": [{"id": "p", "component": "C"}],
        "marks": [{"id": "x", "site": "p", "weight": "2/0"}]}))
    code, rep = run(capsys, "check", "--curve", str(bad), "--polarization", "C=10")
    assert code == 4 and "zero denominator" in rep["error"]
    code, rep = run(capsys, "check", "--curve", str(tmp_path / "none.json"),
                    "--polarization", "C=10")
    assert code == 6
    disconnected = tmp_path / "disc.json"
    disconnected.write_text(json.dumps({
        "components": [{"id": "A", "genus": 1}, {"id": "B", "genus": 1}]}))
    code, rep = run(capsys, "check", "--curve", str(disconnected), "--polarization", "A=5,B=5")
    assert code == 3 and "disconnected" in rep["error"]


def test_twist_command(capsys, f2_path):
    code, rep = run(capsys, "twist", "--curve", f2_path, "--vector", "C1=13,C2=7")
    assert code == 0
    assert rep["twist"] == {"C1": 10, "C2": 10}
    assert rep["coefficients"] == {"C1": 3, "C2": 0}


def test_two_weight_command(capsys, f4_path):
    code, rep = run(capsys, "two-weight", "--curve", f4_path,
                    "--polarization", "C1=11,P=9", "--subcurve", "P")
    assert code == 1  # boundary weight zero
    assert (rep["omega"], rep["mu_a"], rep["omega_a"], rep["e"]) == ("1", "-1", "0", "19")
    code, rep = run(capsys, "two-weight", "--curve", f4_path,
                    "--polarization", "C1=11,P=9", "--subcurve", "C1,P")
    assert code == 7 and rep["error"] == "subcurve must be proper"


def test_newton_command(capsys):
    code, rep = run(capsys, "newton", "--gamma", "0,1;1,0", "--width", "1", "--oracle-k", "3")
    assert code == 0
    assert rep["area"] == "1/2"
    assert rep["oracle"]["counts"] == [1, 3, 6, 10]
    code, rep = run(capsys, "newton", "--gamma", "0,2;1,1;3,0", "--width", "3")
    assert rep["area"] == "5/2"


def test_bounds_command(capsys, f2_path, tmp_path):
    f2 = curve_from_json(F2_JSON)
    datum = cs.two_weight_datum(f2, pol(f2, 10, 10), {"C2"})
    ops = tmp_path / "datum.json"
    ops.write_text(json.dumps(datum_to_json(datum)))
    code, rep = run(capsys, "bounds", "--curve", f2_path, "--polarization",
                    "C1=10,C2=10", "--ops", str(ops))
    assert code == 0
    assert rep["omega_hat"] == rep["omega_hat_weighted"] == "1/19"
    assert rep["E_alpha"] == {"C1": "1", "C2": "20"}
    # the node-branch unit triangles are the documented case where the
    # printed estimate is exceeded by the exact area; they are logged
    by_point = {e["point"]: e for e in rep["trapezoid_report"]}
    assert not by_point["link0_C1"]["ok"]
    assert by_point["link0_C1"]["exact"] == "1/2"
    assert by_point["span_C2"]["ok"]


@pytest.mark.parametrize("command", ["chow-weight", "bounds"])
def test_a_weight_command_groups_the_profiles_once(capsys, monkeypatch, f2_path, tmp_path, command):
    f2 = curve_from_json(F2_JSON)
    ops = tmp_path / "datum.json"
    ops.write_text(json.dumps(datum_to_json(cs.two_weight_datum(f2, pol(f2, 10, 10), {"C2"}))))
    calls, shapes = [], cs.newton._shapes
    for module in (cs.newton, chow, bounds, cli):
        if hasattr(module, "_shapes"):
            monkeypatch.setattr(module, "_shapes", lambda profiles: calls.append(profiles) or shapes(profiles))
    run(capsys, command, "--curve", f2_path, "--polarization", "C1=10,C2=10", "--ops", str(ops))
    assert len(calls) == 1


def test_chow_weight_command(capsys, f4_path, tmp_path):
    f4 = curve_from_json(F4_JSON)
    datum = cs.two_weight_datum(f4, cs.Polarization({"C1": 11, "P": 9}), {"P"})
    ops = tmp_path / "datum.json"
    ops.write_text(json.dumps(datum_to_json(datum)))
    code, rep = run(capsys, "chow-weight", "--curve", f4_path, "--polarization",
                    "C1=11,P=9", "--ops", str(ops))
    assert code == 1
    assert rep["omega_a"] == "0"


def test_k_check_command(capsys, f2_path):
    code, rep = run(capsys, "k-check", "--curve", f2_path, "--polarization", "C1=11,C2=9")
    assert code == 2
    assert rep["verdict"] == "NotKStable" and rep["witness"] == ["C2"]
    code, rep = run(capsys, "k-check", "--curve", f2_path, "--polarization", "C1=10,C2=10")
    assert code == 0 and rep["verdict"] == "KStable"


def test_classify_and_stabilize_commands(capsys, tmp_path):
    chain = {
        "components": [{"id": "C1", "genus": 1}, {"id": "E", "genus": 0},
                       {"id": "C2", "genus": 1}],
        "nodes": [["C1", "E"], ["E", "C2"]],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    code, rep = run(capsys, "classify", "--curve", str(path))
    assert code == 1 and rep["status"] == "Semistable" and rep["exceptional"] == ["E"]
    code, rep = run(capsys, "stabilize", "--curve", str(path))
    assert code == 0
    assert [c["id"] for c in rep["curve"]["components"]] == ["C1", "C2"]
    assert rep["curve"]["nodes"] == [["C1", "C2"]]


def test_reports_are_deterministic(capsys, f2_path):
    code1 = main(["check", "--curve", f2_path, "--polarization", "C1=11,C2=9"])
    out1 = capsys.readouterr().out
    code2 = main(["check", "--curve", f2_path, "--polarization", "C1=11,C2=9"])
    out2 = capsys.readouterr().out
    assert code1 == code2 and out1 == out2


def test_float_flag(capsys, f2_path):
    code, rep = run(capsys, "check", "--curve", f2_path, "--polarization",
                    "C1=11,C2=9", "--float")
    assert "approximations" in rep
    assert rep["approximations"]["note"].startswith("decimal")


def test_max_r_env(capsys, f2_path, monkeypatch):
    monkeypatch.setenv("CURVESTAB_MAX_R", "1")
    code, rep = run(capsys, "check", "--curve", f2_path, "--polarization", "C1=10,C2=10")
    assert code == 7 and "enumeration cap exceeded" in rep["error"]


def test_k_check_past_the_cap_writes_no_report(capsys, tmp_path, monkeypatch):
    # The cap is checked before the first byte: the output file holds the
    # error report alone, as for any failing command.
    monkeypatch.setenv("CURVESTAB_MAX_R", "3")
    target = tmp_path / "report.json"
    assert main(k_check_chain(tmp_path, 4) + ["--output", str(target)]) == 7
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == {"error": "enumeration cap exceeded: 4 components > 3", "code": 7}


ONE_GENUS_ONE = {"components": [{"id": "C", "genus": 1}]}
TWO_GENUS_TWO = {"components": [{"id": "A", "genus": 2}, {"id": "B", "genus": 2}], "nodes": [["A", "B"]]}
TWO_LINES = {"components": [{"id": "A", "genus": 0}, {"id": "B", "genus": 0}], "nodes": [["A", "B"]]}
THREE_CHAIN = {"components": [{"id": c, "genus": 1} for c in "ABC"], "nodes": [["A", "B"], ["B", "C"]]}
NON_POSITIVE = "total weighted degree non-positive"
BELOW_GUARD = "degree too small for h0 formula"


@pytest.mark.parametrize("curve, literal, criterion, cap, code, error", [
    *[({"components": []}, "C=1", criterion, None, 3, "/components: curve has no components")
      for criterion in ("interval", "h0", "both")],
    (ONE_GENUS_ONE, "C=5", "interval", None, 7, NON_POSITIVE),
    (ONE_GENUS_ONE, "C=5", "both", None, 7, NON_POSITIVE),
    (TWO_GENUS_TWO, "A=1,B=1", "h0", None, 7, BELOW_GUARD),
    (TWO_GENUS_TWO, "A=1,B=1", "h0", "1", 7, BELOW_GUARD),
    (TWO_GENUS_TWO, "A=1,B=1", "both", "1", 7, "enumeration cap exceeded: 2 components > 1"),
    (TWO_LINES, "A=3,B=3", "interval", "1", 7, NON_POSITIVE),
    (TWO_LINES, "A=3,B=3", "both", "1", 7, NON_POSITIVE),
    (TWO_LINES, "A=3,B=3", "h0", "1", 7, "enumeration cap exceeded: 2 components > 1"),
    *[(THREE_CHAIN, "A=9,B=5,C=5", criterion, "2", 7, "enumeration cap exceeded: 3 components > 2")
      for criterion in ("interval", "h0", "both")],
], ids=["empty-interval", "empty-h0", "empty-both", "one-interval", "one-both", "guard-h0", "guard-before-cap-h0",
        "cap-below-guard-both", "total-before-cap-interval", "total-before-cap-both", "cap-at-total-h0",
        "cap-interval", "cap-h0", "cap-both"])
def test_check_errors_come_before_any_output(capsys, tmp_path, monkeypatch, curve, literal, criterion, cap, code,
                                             error):
    # Each check error, its code and message pinned as the command gave
    # them before its lists were streamed, is raised in the public scan's
    # order and before the first byte: the output file holds the error
    # report alone.
    if cap:
        monkeypatch.setenv("CURVESTAB_MAX_R", cap)
    path, target = tmp_path / "curve.json", tmp_path / "report.json"
    path.write_text(json.dumps(curve))
    argv = ["check", "--curve", str(path), "--polarization", literal, "--criterion", criterion]
    assert main(argv + ["--output", str(target)]) == code
    assert capsys.readouterr().out == ""
    expected = {"error": error, "pointer": "/components", "code": 3} if code == 3 else {"error": error, "code": 7}
    assert json.loads(target.read_text()) == expected


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_check_h0_on_one_component_is_stable_at_any_degree(capsys, tmp_path, genus):
    # No proper subcurve: Stable before the degree guard or the total is read.
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"components": [{"id": "C", "genus": genus}]}))
    for degree in (1, 5):
        code, rep = run(capsys, "check", "--curve", str(path), "--polarization", f"C={degree}", "--criterion", "h0")
        assert (code, rep) == (0, {"command": "check", "criterion": "h0", "status": "Stable", "witnesses": []})
    with pytest.raises(ValueError, match="^curve has no components$"):
        cs.slope_check_h0(cs.CurveModel((), ()), cs.Polarization({}))
    with pytest.raises(ValueError, match=f"^{NON_POSITIVE}$"):
        cs.slope_check_interval(cs.CurveModel((), ()), cs.Polarization({}))


def test_a_write_that_fails_partway_leaves_no_report(capsys, tmp_path, monkeypatch):
    # r = 11 gives 2,046 entries, more than one chunk; the second write fails.
    writes, real_open = [], open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            writes.append(len(text))
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def opened(path, mode="r", **kw):
        fh = real_open(path, mode, **kw)
        return FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr(cli, "open", opened, raising=False)
    target = tmp_path / "report.json"
    code, rep = run(capsys, *k_check_chain(tmp_path, 11), "--output", str(target))
    assert code == 6 and rep == {"error": f"cannot write {target}: [Errno 28] No space left on device", "code": 6}
    assert len(writes) == 2 and writes[0] > 10_000
    assert not target.exists()


def test_unwritable_output_is_an_io_error(capsys, f2_path, tmp_path):
    target = str(tmp_path / "missing" / "out.json")
    for command in ("check", "k-check"):
        code, rep = run(capsys, command, "--curve", f2_path, "--polarization", "C1=10,C2=10",
                        "--output", target)
        assert code == 6 and rep["code"] == 6 and target in rep["error"]
    # the error report of a failing command cannot be written there either
    code, rep = run(capsys, "check", "--curve", f2_path, "--polarization", "C1=10,C9=10",
                    "--output", target)
    assert code == 6 and rep["code"] == 6 and target in rep["error"]


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_max_r_env_rejects_non_positive_integers(capsys, f2_path, monkeypatch, value):
    monkeypatch.setenv("CURVESTAB_MAX_R", value)
    code, rep = run(capsys, "check", "--curve", f2_path, "--polarization", "C1=10,C2=10")
    assert code == 64 and rep["code"] == 64 and "CURVESTAB_MAX_R" in rep["error"]
    monkeypatch.setenv("CURVESTAB_MAX_R", "99")  # clamped to the hard bound
    code, rep = run(capsys, "check", "--curve", f2_path, "--polarization", "C1=10,C2=10")
    assert code == 0 and rep["status"] == "Stable"


def test_newton_rejects_negative_oracle_k(capsys):
    code, rep = run(capsys, "newton", "--gamma", "0,1;1,0", "--width", "1", "--oracle-k", "-1")
    assert code == 64 and rep["code"] == 64 and "--oracle-k" in rep["error"]


def test_check_both_below_degree_guard(capsys, f2_path, tmp_path):
    code, rep = run(capsys, "check", "--curve", f2_path, "--polarization", "C1=2,C2=2",
                    "--criterion", "both")
    assert code == 0
    assert (rep["status"], rep["witnesses"]) == ("Stable", [])
    assert rep["regime"] == "below large-degree regime"
    assert rep["h0_witnesses"] is None
    assert rep["h0_status"] == "Stable" and rep["disagreements"] == []
    # genus-two components at degree one: no sections on either component,
    # so the section-count side is undefined where the interval side passes
    g2 = tmp_path / "g2.json"
    g2.write_text(json.dumps({**F2_JSON, "components": [
        {"id": "C1", "genus": 2}, {"id": "C2", "genus": 2}]}))
    code, rep = run(capsys, "check", "--curve", str(g2), "--polarization", "C1=1,C2=1",
                    "--criterion", "both")
    assert code == 0 and rep["status"] == "Stable"
    assert rep["h0_status"] == "Unstable" and rep["h0_witnesses"] is None
    assert [(d["subcurve"], d["interval_state"], d["h0_state"], d["h0_margin"])
            for d in rep["disagreements"]] == [
        (["C1"], "strict", "undefined", None), (["C2"], "strict", "undefined", None)]


def test_check_at_a_non_positive_total(capsys, tmp_path):
    # Two lines meeting once have weighted dualizing total -2: no interval
    # windows, but inside the degree guard the section counts 7 (whole
    # curve) and 4 (each line) still give the section-count verdict.
    lines = tmp_path / "lines.json"
    lines.write_text(json.dumps({"components": [{"id": "A", "genus": 0}, {"id": "B", "genus": 0}],
                                 "nodes": [["A", "B"]], "sites": [], "marks": []}))
    check = ("check", "--curve", str(lines), "--polarization", "A=3,B=3", "--criterion")
    code, rep = run(capsys, *check, "h0")
    assert code == 2 and rep["status"] == "Unstable"
    assert [(w["subcurve"], w["value"], w["upper"], w["kind"]) for w in rep["witnesses"]] == [
        (["A"], "7/8", "6/7", "violated"), (["B"], "7/8", "6/7", "violated")]
    for criterion in ("interval", "both"):
        code, rep = run(capsys, *check, criterion)
        assert (code, rep["error"]) == (7, "total weighted degree non-positive")


SMALL_DATUM = {"m": 1, "rho": [1, 0], "hbar": {"C1": 1, "C2": 1}, "profiles": [
    {"id": "a", "component": "C1", "vanish": [0, 10]},
    {"id": "b", "component": "C2", "vanish": [0, 10]}]}


def _with(base, path, value):
    """Deep copy of ``base`` with the field at ``path`` replaced."""
    out = json.loads(json.dumps(base))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("kind, path, value, pointer", [
    ("curve", ("nodes",), 5, "/nodes"),
    ("curve", ("components", 0, "genus"), True, "/components/0/genus"),
    ("curve", ("components",), [], "/components"),
    ("datum", ("profiles",), 5, "/profiles"),
    ("datum", ("profiles", 0, "marks"), 5, "/profiles/0/marks"),
    ("datum", ("imax",), [], "/imax"),
    ("datum", ("profiles", 0, "kind"), 5, "/profiles/0/kind"),
    ("datum", ("m",), True, "/m"),
], ids=["nodes", "genus", "no-components", "profiles", "marks", "imax", "kind", "m"])
def test_mistyped_fields_are_schema_errors(capsys, f2_path, tmp_path, kind, path, value, pointer):
    if kind == "curve":
        bad = tmp_path / "curve.json"
        bad.write_text(json.dumps(_with(F2_JSON, path, value)))
        commands = [("classify", "--curve", str(bad)),
                     ("check", "--curve", str(bad), "--polarization", "C1=10,C2=10")]
    else:
        bad = tmp_path / "datum.json"
        bad.write_text(json.dumps(_with(SMALL_DATUM, path, value)))
        commands = [(cmd, "--curve", f2_path, "--polarization", "C1=10,C2=10", "--ops", str(bad))
                    for cmd in ("chow-weight", "bounds")]
    for argv in commands:
        code, rep = run(capsys, *argv)
        assert (code, rep["code"], rep["pointer"]) == (3, 3, pointer)


STAIR_DATUM = {"m": 2, "rho": [2, 1, 0], "hbar": {"C1": 2, "C2": 2}, "profiles": [
    {"id": "a", "component": "C1", "vanish": [0, 5, 10]},
    {"id": "b", "component": "C2", "vanish": [0, 5, 10]}]}


@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000],
                         ids=["open-arrays", "closed-arrays", "objects"])
def test_deeply_nested_json_is_an_io_error(capsys, f2_path, tmp_path, text):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    commands = [("classify", "--curve", str(deep)),
                ("check", "--curve", str(deep), "--polarization", "C1=10,C2=10")]
    commands += [(cmd, "--curve", f2_path, "--polarization", "C1=10,C2=10", "--ops", str(deep))
                 for cmd in ("chow-weight", "bounds")]
    for argv in commands:
        code, rep = run(capsys, *argv)
        assert code == 6 and rep["code"] == 6 and set(rep) == {"error", "code"}
        assert rep["error"].startswith(f"invalid JSON in {deep}: ")


def test_an_integer_past_the_digit_limit_is_invalid_json(capsys, f2_path, tmp_path):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal past int's 4,300-digit conversion limit.
    curve, ops = tmp_path / "long-curve.json", tmp_path / "long-ops.json"
    curve.write_text('{"components": [{"id": "C1", "genus": %s}]}' % ("1" * 5000))
    ops.write_text(json.dumps(STAIR_DATUM).replace('"m": 2', '"m": ' + "2" * 5000))
    commands = [(curve, ("classify", "--curve", str(curve))),
                (curve, ("check", "--curve", str(curve), "--polarization", "C1=10"))]
    commands += [(ops, (cmd, "--curve", f2_path, "--polarization", "C1=10,C2=10", "--ops", str(ops)))
                 for cmd in ("chow-weight", "bounds")]
    for path, argv in commands:
        code, rep = run(capsys, *argv)
        assert code == 6 and rep["code"] == 6 and set(rep) == {"error", "code"}
        assert rep["error"].startswith(f"invalid JSON in {path}: ") and "digits" in rep["error"]


LONG = "1" * 5000  # past int's 4,300-digit conversion limit


@pytest.mark.parametrize("argv, chunk", [
    (("check", "--curve", "{f2}", "--polarization", f"C1={LONG},C2=3"), f"C1={LONG}"),
    (("twist", "--curve", "{f2}", "--vector", f"C1={LONG},C2=3"), f"C1={LONG}"),
    (("newton", "--gamma", f"0,{LONG};3,0", "--width", "3"), f"0,{LONG}"),
], ids=["check", "twist", "newton"])
def test_a_literal_integer_past_the_digit_limit_is_a_short_schema_error(capsys, f2_path, argv, chunk):
    # int() raises a ValueError past its digit limit; the literal readers
    # name that limit and quote only the first 40 characters of the chunk.
    code = main([a.format(f2=f2_path) for a in argv])
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert code == 3 and rep["code"] == 3 and rep["pointer"] == "/"
    assert rep["error"] == (f"/: integer of 5000 digits in {chunk[:40]!r}..., past int's limit of "
                            f"{sys.get_int_max_str_digits()} digits")
    assert len(out) < 200


def test_input_that_is_not_utf8_is_an_io_error(capsys, f2_path, tmp_path):
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"components": [{"id": "C\u00e9", "genus": 1}]}'.encode("latin-1"))
    commands = [("classify", "--curve", str(latin)),
                ("check", "--curve", str(latin), "--polarization", "C1=10,C2=10")]
    commands += [(cmd, "--curve", f2_path, "--polarization", "C1=10,C2=10", "--ops", str(latin))
                 for cmd in ("chow-weight", "bounds")]
    for argv in commands:
        code, rep = run(capsys, *argv)
        assert code == 6 and rep["code"] == 6 and set(rep) == {"error", "code"}
        assert rep["error"].startswith(f"cannot read {latin}: ") and "utf-8" in rep["error"]


@pytest.mark.parametrize("value", [True, 1.5, "3", [1], -1], ids=["true", "float", "str", "list", "negative"])
@pytest.mark.parametrize("j", [0, 1, 2], ids=["first", "middle", "last"])
def test_bad_vanish_entry_is_named(capsys, f2_path, tmp_path, value, j):
    for vanish in ([0, 5, 10], [0, 5, 10, 1.5]):  # a later bad entry is not the one named
        bad = tmp_path / "datum.json"
        vanish = list(vanish)
        vanish[j] = value
        bad.write_text(json.dumps(_with(STAIR_DATUM, ("profiles", 1, "vanish"), vanish)))
        for cmd in ("chow-weight", "bounds"):
            code, rep = run(capsys, cmd, "--curve", f2_path, "--polarization", "C1=10,C2=10",
                            "--ops", str(bad))
            assert code == 3 and rep == {
                "error": f"/profiles/1/vanish/{j}: vanishing orders must be nonnegative integers",
                "pointer": f"/profiles/1/vanish/{j}", "code": 3}


@pytest.mark.parametrize("value", [True, 1.5, "3", None], ids=["true", "float", "str", "null"])
@pytest.mark.parametrize("j", [0, 1, 2], ids=["first", "middle", "last"])
def test_bad_rho_entry_is_named(capsys, f2_path, tmp_path, value, j):
    bad = tmp_path / "datum.json"
    rho = [2, 1, 0, 0.5]  # a later bad entry is not the one named
    rho[j] = value
    bad.write_text(json.dumps(dict(STAIR_DATUM, rho=rho)))
    for cmd in ("chow-weight", "bounds"):
        code, rep = run(capsys, cmd, "--curve", f2_path, "--polarization", "C1=10,C2=10", "--ops", str(bad))
        assert code == 3 and rep == {"error": f"/rho/{j}: weights must be integers", "pointer": f"/rho/{j}",
                                     "code": 3}


REPEAT_DATUM = {"m": 2, "rho": [2, 1, 0], "hbar": {"C1": 2, "C2": 2}, "profiles": [
    {"id": "a", "component": "C1", "vanish": [0, 1, 10]},
    {"id": "b", "component": "C1", "vanish": [0, 1, 10]},
    {"id": "c", "component": "C2", "vanish": [0, 1, 10]}]}


BROKEN_DATUM = json.dumps(REPEAT_DATUM, indent=2).replace('"id": "b",', '"id": "b"')  # a comma short


@pytest.mark.parametrize("data, error", [
    (BROKEN_DATUM.replace("\n", "\r\n").encode(),
     "invalid JSON in {}: Expecting ',' delimiter: line 24 column 7 (char 248)"),
    (BROKEN_DATUM.replace("\n", "\r").encode(),
     "invalid JSON in {}: Expecting ',' delimiter: line 24 column 7 (char 248)"),
    (b"\xef\xbb\xbf" + json.dumps(REPEAT_DATUM, indent=2).encode(),
     "invalid JSON in {}: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (json.dumps(REPEAT_DATUM, indent=2).encode("utf-16"),
     "cannot read {}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (json.dumps(REPEAT_DATUM, indent=2).replace('"b"', '"b\u00e9"').encode("latin-1"),
     "cannot read {}: 'utf-8' codec can't decode byte 0xe9 in position 240: invalid continuation byte"),
], ids=["crlf", "lone-cr", "bom", "utf-16", "latin-1"])
def test_datum_file_errors_are_those_of_a_text_mode_read(capsys, f2_path, tmp_path, data, error):
    # A datum file is read as bytes, but it reports as a text-mode read
    # would: line ends count as one LF each, and a BOM or another encoding
    # than UTF-8 is refused.  The vanish arrays repeat, so the decoder tries
    # its shared path first, and the error is rebuilt from the whole file.
    path = tmp_path / "datum.json"
    path.write_bytes(data)
    code, rep = run(capsys, "chow-weight", "--curve", f2_path, "--polarization", "C1=10,C2=10",
                    "--ops", str(path))
    assert code == 6 and rep == {"error": error.format(path), "code": 6}


def test_non_ascii_ids_report_the_weights_of_their_ascii_renaming(capsys, tmp_path):
    reports = []
    for a, b, mark in (("A", "B", "x"), ("A\u00e9", "B\u20ac", "x\U0001d538")):
        curve = cs.CurveModel((cs.Component(a, 1), cs.Component(b, 1)), ((a, b),), (cs.MarkSite("p", a),),
                              (cs.Mark(mark, "p", Fraction(1, 3)),))
        datum = datum_to_json(chow.two_weight_datum(curve, cs.Polarization({a: 40, b: 40}), {b}))
        for p in datum["profiles"]:
            p["id"] += "\u00e9" * (a != "A")
            if p["component"] == a:
                p["marks"] = [mark]
        paths = tmp_path / f"curve-{len(reports)}.json", tmp_path / f"datum-{len(reports)}.json"
        paths[0].write_text(json.dumps(curve_to_json(curve), ensure_ascii=False), encoding="utf-8")
        paths[1].write_text(json.dumps(datum, indent=2, ensure_ascii=False), encoding="utf-8")
        reports.append(run(capsys, "chow-weight", "--curve", str(paths[0]), "--polarization",
                           f"{a}=40,{b}=40", "--ops", str(paths[1])))
    assert reports[0] == reports[1] and reports[0][1]["mu_a"] != "0"


@pytest.mark.parametrize("j, value", [(1, True), (1, 1.0), (0, False), (0, 0.0), (2, 10.0)],
                         ids=["true", "float", "first-false", "first-float", "last-float"])
@pytest.mark.parametrize("i", [1, 2], ids=["after-one", "after-a-repeat"])
def test_a_list_equal_to_a_checked_one_is_still_type_checked(capsys, f2_path, tmp_path, j, value, i):
    # [false, 1, 10], [0, true, 10], [0, 1, 10.0], ... compare equal to the checked [0, 1, 10]
    bad = tmp_path / "datum.json"
    bad.write_text(json.dumps(_with(REPEAT_DATUM, ("profiles", i, "vanish", j), value)))
    for cmd in ("chow-weight", "bounds"):
        code, rep = run(capsys, cmd, "--curve", f2_path, "--polarization", "C1=10,C2=10",
                        "--ops", str(bad))
        assert (code, rep["pointer"]) == (3, f"/profiles/{i}/vanish/{j}")


@pytest.mark.parametrize("vanish, j", [([0, -1, 10], 1), ([-2, 1, 10], 0)])
def test_a_negative_entry_after_a_repeat_is_named(capsys, f2_path, tmp_path, vanish, j):
    bad = tmp_path / "datum.json"
    bad.write_text(json.dumps(_with(REPEAT_DATUM, ("profiles", 2, "vanish"), vanish)))
    for cmd in ("chow-weight", "bounds"):
        code, rep = run(capsys, cmd, "--curve", f2_path, "--polarization", "C1=10,C2=10",
                        "--ops", str(bad))
        assert (code, rep["pointer"]) == (3, f"/profiles/2/vanish/{j}")


def test_bounds_aggregates_once_and_bounds_each_distinct_profile_once(capsys, f2_path, tmp_path,
                                                                      monkeypatch):
    # One validation (chow._problems), one aggregation (bounds._increments,
    # the kernel behind increments_from_profiles) and one trapezoid row.
    calls = []
    for module, name in ((chow, "_problems"), (bounds, "_increments"), (bounds, "trapezoid_bound")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name, **kw: calls.append(name) or real(*a, **kw))
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(STAIR_DATUM))
    code, rep = run(capsys, "bounds", "--curve", f2_path, "--polarization", "C1=10,C2=10",
                    "--ops", str(datum))
    assert sorted(calls) == ["_increments", "_problems", "trapezoid_bound"]
    assert code == 0 and set(rep["E_alpha"]) == {"C1", "C2"}
    assert [row["point"] for row in rep["trapezoid_report"]] == ["a", "b"]
    assert rep["trapezoid_report"][0] == {**rep["trapezoid_report"][1], "point": "a"}


@pytest.mark.parametrize("path, value", [
    (("hbar", "C1"), 3),                  # top index past m = 1
    (("profiles", 0, "vanish"), [0]),     # one entry short of top index 1
], ids=["hbar", "vanish"])
def test_bounds_validates_the_datum_first(capsys, f2_path, tmp_path, path, value):
    bad = tmp_path / "datum.json"
    bad.write_text(json.dumps(_with(SMALL_DATUM, path, value)))
    for cmd in ("bounds", "chow-weight"):
        code, rep = run(capsys, cmd, "--curve", f2_path, "--polarization", "C1=10,C2=10",
                        "--ops", str(bad))
        assert code == 7 and "inconsistent datum" in rep["error"]


@pytest.mark.parametrize("command, flag, literal, repeated", [
    ("check", "--polarization", "C1=99,C1=10,C2=10", "C1"),
    ("twist", "--vector", "C1=13,C2=7,C2=9", "C2"),
])
def test_repeated_id_in_literal_is_a_schema_error(capsys, f2_path, command, flag, literal, repeated):
    code, rep = run(capsys, command, "--curve", f2_path, flag, literal)
    assert code == 3 and rep["code"] == 3
    assert f"repeated id {repeated!r}" in rep["error"]


def test_one_parser_serves_many_calls_like_fresh_ones(capsys, f2_path, tmp_path):
    from curvestab import cli
    target = tmp_path / "out.json"
    calls = [
        ["check", "--curve", f2_path],  # usage error: --polarization is missing
        ["check", "--curve", f2_path, "--polarization", "C1=11,C2=9", "--criterion", "both"],
        ["twist", "--curve", f2_path, "--vector", "C1=13,C2=7"],
        ["check", "--curve", f2_path, "--polarization", "C1=10,C2=10", "--output", str(target)],
        ["check", "--curve", f2_path, "--polarization", "C1=10,C2=10"],
    ]

    def outcomes(fresh):
        got = []
        for argv in calls:
            if target.exists():
                target.unlink()
            if fresh:
                cli._build_parser.cache_clear()
            code = main(list(argv))
            out = capsys.readouterr()
            got.append((code, out.out, out.err, target.read_text() if target.exists() else None))
        return got

    expected = outcomes(fresh=True)
    cli._build_parser.cache_clear()
    assert outcomes(fresh=False) == expected
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, *_ in expected] == [64, 2, 0, 0, 0]
    assert expected[3][1] == "" and expected[3][3] == expected[4][1]


PAIR = {"components": [{"id": "A", "genus": 1}, {"id": "B", "genus": 1}], "nodes": [["A", "B"]]}
HUGE = 10 ** 400


def test_float_leaves_out_rationals_past_the_largest_float(capsys, tmp_path):
    # Each rational of these reports is past 1e308: the mirror leaves it
    # out, so --float adds no block, and the verdict's code stands.
    path, target = tmp_path / "pair.json", tmp_path / "report.json"
    path.write_text(json.dumps(dict(PAIR, sites=[{"id": "p", "component": "A"}],
                                    marks=[{"id": "x", "site": "p", "weight": "1/3"}])))
    for argv, want, rational in (
            (["check", "--curve", str(path), "--polarization", f"A={HUGE},B={HUGE + 1}"], 2,
             lambda rep: rep["witnesses"][0]["lower"]),
            (["newton", "--gamma", f"0,{HUGE + 1};3,0", "--width", "3"], 0, lambda rep: rep["area"])):
        assert main(argv) == want
        plain = capsys.readouterr()
        assert plain.err == "" and "/" in rational(json.loads(plain.out))
        assert main(argv + ["--float"]) == want
        shown = capsys.readouterr()
        assert shown.err == "" and shown.out == plain.out
        assert main(argv + ["--float", "--output", str(target)]) == want
        assert capsys.readouterr() == ("", "") and target.read_text() == plain.out


def test_two_weight_past_an_index_sized_integer_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(PAIR))
    code = main(["two-weight", "--curve", str(path), "--polarization", f"A={10 ** 30},B=7", "--subcurve", "A"])
    shown = capsys.readouterr()
    rep = json.loads(shown.out)
    assert code == 7 and shown.err == "" and rep["code"] == 7 and set(rep) == {"error", "code"}
