"""Command line: JSON round-trips, literal parsing, exit codes, and one
happy path per command."""

import json
import random

import pytest

import curvestab as cs
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
from conftest import pol, random_curve

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


def test_polarization_literal_errors(f2):
    with pytest.raises(UnknownIdError, match="C9"):
        polarization_from_literal("C1=10,C9=3", f2)
    with pytest.raises(SchemaError, match="missing components"):
        polarization_from_literal("C1=10", f2)


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


def test_unwritable_output_is_an_io_error(capsys, f2_path, tmp_path):
    target = str(tmp_path / "missing" / "out.json")
    code, rep = run(capsys, "check", "--curve", f2_path, "--polarization", "C1=10,C2=10",
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
    ("datum", ("profiles",), 5, "/profiles"),
    ("datum", ("profiles", 0, "marks"), 5, "/profiles/0/marks"),
    ("datum", ("imax",), [], "/imax"),
    ("datum", ("profiles", 0, "kind"), 5, "/profiles/0/kind"),
    ("datum", ("m",), True, "/m"),
], ids=["nodes", "genus", "profiles", "marks", "imax", "kind", "m"])
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
