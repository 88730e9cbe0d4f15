"""Command-line interface: reports, exit codes, determinism."""

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import logging
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ostromech as om
from ostromech import cli, legendre
from ostromech import expressions as ex

from conftest import NL3_LIKE, SYSTEM_DOCS, chain_doc, write_spec

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos" / "systems"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv, expect=0):
    code, out, err = run_cli(capsys, argv)
    assert code == expect, f"exit {code}, stderr: {err}"
    return json.loads(out)


# -- derive -----------------------------------------------------------------


def test_derive_report_expressions_reparse(tmp_path, capsys, pu):
    spec = write_spec(tmp_path, "pais_uhlenbeck")
    report = run_json(capsys, ["derive", spec])
    assert report["system"] == "pais-uhlenbeck"
    assert report["order"] == 2 and report["dofs"] == 1
    assert report["singular_warning"] is False

    ctx = om.SystemContext.for_reports(2, 1)

    def matches(text, expr):
        assert om.equivalent_numeric(om.parse(text, ctx), expr,
                                     tol=1e-10).equivalent

    matches(report["lagrangian"], pu.model.lagrangian)
    for per_dof, exprs in zip(report["momenta"], pu.momenta):
        for text, expr in zip(per_dof, exprs):
            matches(text, expr)
    matches(report["euler_lagrange"][0], pu.el[0])
    matches(report["hessian"][0][0], pu.hessian[0][0])
    matches(report["hamiltonian"], pu.hamiltonian)
    assert report["hessian_det"] == "1"
    assert report["regularity"]["regular"] is True


def test_derive_is_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, "coupled_beam")
    first = run_cli(capsys, ["derive", spec, "--pretty"])
    second = run_cli(capsys, ["derive", spec, "--pretty"])
    assert first == second


# the first 16 hex digits of the sha256 of the derived texts, as JSON,
# of each demo spec and of two larger systems
DERIVED_TEXT_SHA = {
    "coupled_beam": "abc4d4b81b317124",
    "coupled_mass": "54c2483d75de22c5",
    "degenerate": "c45fe4f4850fe2b7",
    "driven_oscillator": "e47b2e4dcca82fa8",
    "free_particle": "eefd284d67da2806",
    "harmonic": "3bb5b9e6fd943ec4",
    "pais_uhlenbeck": "4db1ad9a4c8caf20",
    "nl3_like": "bf3e06592f95da1b",
    "chain6": "560eede834033c47",
}


@pytest.mark.parametrize("name", DERIVED_TEXT_SHA)
def test_derive_prints_the_pinned_texts(tmp_path, capsys, name):
    # the symbolic text is pure Python, so its bytes do not depend on the
    # numpy build; the regularity sweep is left out
    doc = {"nl3_like": NL3_LIKE, "chain6": chain_doc(6)}.get(name)
    spec = DEMOS / f"{name}.json"
    if doc is not None:
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(doc))
    report = run_json(capsys, ["derive", str(spec), "--samples", "1"])
    text = json.dumps([report[field] for field in (
        "lagrangian", "momenta", "euler_lagrange", "hessian", "hessian_det",
        "hamiltonian")])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] \
        == DERIVED_TEXT_SHA[name]


def test_derive_degenerate_warns_but_succeeds(tmp_path, capsys):
    spec = write_spec(tmp_path, "degenerate")
    report = run_json(capsys, ["derive", spec])
    assert report["singular_warning"] is True
    assert report["regularity"]["regular"] is False
    assert report["regularity"]["rank_at_worst_point"] == 0


def test_derive_out_file(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, ["derive", spec, "--out", str(out)])
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["system"] == "harmonic"


@pytest.mark.parametrize("argv", [
    ["derive", "--samples", "3", "--out", "x.json"],
    ["simulate", "--init", "1,0", "--t-end", "1", "--out", "x.csv"]],
    ids=["report", "csv"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    # the write raised FileNotFoundError, a traceback and exit 1
    command, *options, name = argv
    spec = write_spec(tmp_path, "harmonic")
    out = tmp_path / "absent" / name
    code, stdout, err = run_cli(capsys, [command, spec, *options, str(out)])
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1 and str(out) in err


def test_derive_bad_inputs(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["derive", str(tmp_path / "absent.json")])
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["derive", str(bad)])
    assert code == 2 and "not valid JSON" in err
    nonsense = tmp_path / "list.json"
    nonsense.write_text("[1, 2]")
    code, _, _ = run_cli(capsys, ["derive", str(nonsense)])
    assert code == 2


# a spec field of the wrong type, written over a valid document, and the
# start of the one error line that names it
MALFORMED_FIELDS = [
    ('"name": null', "name must be text, got None"),
    ('"name": ["a"]', "name must be text, got ['a']"),
    ('"dofs": true', "dofs must be an integer >= 1, got True"),
    ('"order": true', "order must be an integer >= 1, got True"),
    ('"parameters": [1, 2]', "parameters must map names to numbers"),
    ('"parameters": "m"', "parameters must map names to numbers"),
    ('"parameters": {"m": true}', "parameter 'm' must be a finite number"),
    ('"parameters": {"m": 1e400}', "parameter 'm' must be a finite number"),
    ('"parameters": {"m": NaN}', "parameter 'm' must be a finite number"),
    ('"autonomous": "false"', "autonomous must be true, false or null"),
]


@pytest.mark.parametrize("field, message", MALFORMED_FIELDS)
@pytest.mark.parametrize("command", [
    ["derive"], ["simulate", "--init", "1,0", "--t-end", "1"]])
def test_malformed_spec_field_is_a_usage_error(tmp_path, capsys, command,
                                               field, message):
    # no boolean is a number, parameters is a mapping of finite numbers
    # and autonomous a boolean or null, else one error line names the field
    spec = tmp_path / "spec.json"
    spec.write_text('{"name": "x", "order": 1, "dofs": 1, "lagrangian": '
                    f'"1/2*q1^2", {field}}}')
    code, out, err = run_cli(capsys, [command[0], str(spec), *command[1:]])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("lagrangian", [
    "1e400*q1^2", "0*1e400*q1^2 + q1^2", "q1^1e400", "1e308*10*q1^2",
    "1e308*q1^2"])
def test_non_finite_constant_is_a_usage_error(tmp_path, capsys, lagrangian):
    # the grammar has no literal for inf or NaN: a literal that is not
    # finite does not parse, and a constant that folding (1e308*10) or
    # deriving (W = 2e308) makes infinite does not print
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "x", "order": 1, "dofs": 1,
                                "lagrangian": lagrangian}))
    code, out, err = run_cli(capsys, ["derive", str(spec)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("is not finite" in err if "e400" in lagrangian
            else "the constant inf has no literal" in err)


def _lagrangian_spec(tmp_path, lagrangian):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "x", "order": 1, "dofs": 1,
                                "lagrangian": lagrangian}))
    return str(spec)


@pytest.mark.parametrize("lagrangian, text", [
    (" + ".join(f"{i}*q1^2" for i in range(1, 501)), "125250*q1^2"),
    ("*".join(["q1"] * 500), "q1^500"),
    ("(" * 50 + "q1" + ")" * 50 + "^2", "q1^2")],
    ids=["sum", "product", "parentheses"])
def test_long_or_nested_input_derives(tmp_path, capsys, lagrangian, text):
    # a + b + c parses as (a + b) + c; simplify walks such a chain in a
    # loop, so its length costs no recursion; 50 parentheses are the limit
    report = run_json(capsys, ["derive", _lagrangian_spec(tmp_path, lagrangian),
                               "--samples", "1"])
    assert report["lagrangian"] == text


@pytest.mark.parametrize("opening, base, closing", [
    ("(", "q1", ")"), ("sin(", "q1", ")"), ("-", "q1", ""),
    ("", "q1", "/2"), ("", "q1^1", "^1")],
    ids=["parentheses", "calls", "minus", "quotients", "powers"])
def test_nesting_past_the_limit_is_a_usage_error(tmp_path, capsys, opening,
                                                 base, closing):
    # 50 levels of parentheses, calls, minus signs, quotients or chained
    # powers parse; one more is a ParseError, never a RecursionError
    def nested(depth):
        return opening * depth + base + closing * depth

    context = om.SystemContext.for_lagrangian(1, 1)
    om.parse(nested(50), context)
    with pytest.raises(om.ParseError, match="nests deeper than 50 levels"):
        om.parse(nested(51), context)
    code, out, err = run_cli(capsys, [
        "derive", _lagrangian_spec(tmp_path, nested(200) + "*q1^2")])
    assert (code, out) == (2, "")
    assert err.startswith("error: expression nests deeper than 50 levels")
    assert err.count("\n") == 1


@pytest.mark.parametrize("count", ["-3", "0"])
def test_derive_sample_count_must_be_positive(tmp_path, capsys, count):
    spec = write_spec(tmp_path, "harmonic")
    code, out, err = run_cli(capsys, ["derive", spec, "--samples", count])
    assert code == 2 and out == ""
    assert err == f"error: --samples must be at least 1, got {count}\n"


def test_derive_omits_determinant_text_above_eight_dofs(tmp_path, capsys,
                                                        monkeypatch):
    # the nested-expansion text of a dense 9 x 9 W would be some 20 MB
    monkeypatch.delenv("OSTRO_LOG", raising=False)
    spec = tmp_path / "chain9.json"
    spec.write_text(json.dumps(chain_doc(9)))
    code, out, err = run_cli(capsys, ["derive", str(spec), "--samples", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["hessian_det"] is None
    assert report["regularity"]["regular"] is True
    assert len(report["hessian"]) == 9
    assert err == ("WARNING ostromech.cli: hessian_det omitted: 9 dofs "
                   "exceed the limit of 8\n")


VARYING_HESSIAN = {"name": "varying", "order": 1, "dofs": 1,
                   "lagrangian": "1/2*q1^2 + 1/4*q1^4 - 1/2*q0^2"}


@pytest.mark.parametrize("box", ["-inf,inf", "0,inf", "-1e308,1e308",
                                 "nan,1", "2,1", "1", "a,b"])
@pytest.mark.parametrize("command", ["derive", "unified-check"])
def test_sampling_box_must_be_finite(tmp_path, capsys, command, box):
    # an infinite box or width made rng.uniform raise OverflowError
    spec = tmp_path / "varying.json"
    spec.write_text(json.dumps(VARYING_HESSIAN))
    flags = ([f"--domain={box}"] if command == "derive"
             else ["--random", "2", f"--box={box}"])
    code, out, err = run_cli(capsys, [command, str(spec), *flags])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--box" in err


def test_sampling_box_bounds_the_samples(tmp_path, capsys):
    spec = tmp_path / "varying.json"
    spec.write_text(json.dumps(VARYING_HESSIAN))
    report = run_json(capsys, ["derive", str(spec), "--domain=1,1.5"])
    worst = report["regularity"]["worst_point"]
    assert worst and all(1.0 <= v <= 1.5 for v in worst.values())


# -- simulate ---------------------------------------------------------------


def test_simulate_free_particle_prints_exact_state(tmp_path, capsys):
    spec = write_spec(tmp_path, "free_particle")
    code, out, _ = run_cli(capsys, [
        "simulate", spec, "--init", "0,1", "--t-end", "1",
        "--method", "rk4", "--step", "0.125"])
    assert code == 0
    assert '"final_state": [1.0, 1.0]' in out
    report = json.loads(out)
    assert report["method"] == "rk4"
    assert report["verification"]["holonomy_ok"] is True


def test_simulate_overflowing_differences_warn_nothing(tmp_path, capsys):
    # verify_trajectory differences dL/dq1 = 2e307*q1, which overflows: the
    # residual reports it as NaN, and no NumPy warning repeats it
    spec = _lagrangian_spec(tmp_path, "1e307*q1^2")
    code, out, err = run_cli(capsys, ["simulate", spec, "--init", "1,1",
                                      "--t-end", "0.1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["verification"]["el_residual"] == "nan"


@pytest.mark.parametrize("lagrangian, init", [
    ("1/2*q4^2 + (1e200*1e307)^3", "0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1"),
    ("1/2*q4^2 + (1e200*q1 + (log(q2))^3)",
     "0.1,0.2,1e150,0.1,0.1,0.1,0.1,0.1")], ids=["constant", "state"])
def test_simulate_overflowing_energy_warns_nothing(tmp_path, capsys,
                                                  lagrangian, init):
    # the energy overflows, as a constant or at the state: the drift
    # reports it as NaN, and no NumPy warning repeats it
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "x", "order": 4, "dofs": 1,
                                "lagrangian": lagrangian}))
    code, out, err = run_cli(capsys, ["simulate", str(spec), "--init", init,
                                      "--t-end", "0.5"])
    assert (code, err) == (0, "")
    assert json.loads(out)["verification"]["energy_drift"] == "nan"


def test_simulate_writes_csv_and_verify_accepts(tmp_path, capsys):
    spec = write_spec(tmp_path, "pais_uhlenbeck")
    csv = tmp_path / "traj.csv"
    report = run_json(capsys, [
        "simulate", spec, "--init", "1,0,-1,0", "--t-end", "10",
        "--out", str(csv)])
    assert report["trajectory_file"] == str(csv)
    assert csv.read_text().splitlines()[0] == "t,q_0_1,q_1_1,q_2_1,q_3_1"

    verdict = run_json(capsys, ["verify", spec, "--traj", str(csv)])
    assert verdict["passed"] is True
    assert verdict["failed_checks"] == []
    assert verdict["report"]["el_residual"] < 1e-3


def test_simulate_unified_summary(tmp_path, capsys):
    spec = write_spec(tmp_path, "pais_uhlenbeck")
    report = run_json(capsys, [
        "simulate", spec, "--unified", "--init", "1,0,-1,0,0,-1",
        "--t-end", "5"])
    assert report["layout"] == "unified"
    assert report["max_constraint_residual"] < 1e-7
    assert report["constraint_drift_warning"] is False
    assert report["verification"]["hamilton_q_residual"] is not None


@pytest.mark.parametrize("method", [[], ["--method", "rk4", "--step", "0.1"]])
def test_simulate_summary_prints_the_counters(tmp_path, capsys, method):
    spec = write_spec(tmp_path, "harmonic")
    report = run_json(capsys, ["simulate", spec, "--init", "1,0",
                               "--t-end", "1.45", *method])
    keys = list(report)
    at = keys.index("rejected")
    assert keys[at + 1:at + 4] == ["rhs_calls", "smallest_step",
                                   "largest_step"]
    per_step = 4 if method else 6
    assert report["rhs_calls"] == per_step * (report["steps"]
                                              + report["rejected"])
    assert 0 < report["smallest_step"] <= report["largest_step"]


def _order_spec(tmp_path, k):
    """L = 1/2*q_k^2 - 1/2*q_0^2 of order k, and an --init of 0.1s."""
    spec = tmp_path / f"order{k}.json"
    spec.write_text(json.dumps({"name": f"order{k}", "order": k, "dofs": 1,
                                "lagrangian": f"1/2*q{k}^2 - 1/2*q0^2"}))
    return str(spec), ",".join(["0.1"] * (2 * k))


@pytest.mark.parametrize("k, method, el_max, perturb", [
    (20, [], 1e-3, False), (8, [], 1e-5, False),
    (100, ["--method", "rk4", "--step", "0.02"], 1e-3, False),
    (20, ["--method", "rk4", "--step", "1"], math.inf, False),
    (3, [], 1e-3, True), (8, [], 1e-5, True)],
    ids=["order20", "order8", "order100_51_points", "order20_2_points",
         "order3_perturbed", "order8_perturbed"])
def test_el_defect_is_checked_at_every_order(tmp_path, capsys, k, method,
                                             el_max, perturb):
    # the defect dL/dq_0 - D p^0 takes one first-order difference D, so
    # neither the grid it needs nor its error grows with the order; a
    # grid of two points is differenced to first order
    spec, init = _order_spec(tmp_path, k)
    csv = tmp_path / "traj.csv"
    report = run_json(capsys, ["simulate", spec, "--init", init, "--t-end",
                               "1", *method, "--out", str(csv)])
    assert report["verification"]["el_residual"] <= el_max
    if not perturb:
        return
    # dof 1 moved by 0.2*sin(0.3 t) and its exact derivatives, as the
    # benchmark's perturbed trajectories are: the jets stay holonomic and
    # only the Euler-Lagrange check can see it
    traj = om.load_trajectory_csv(csv, k)
    states = np.array(traj.states)
    for i in range(2 * k):
        states[:, i] += 0.2 * 0.3 ** i * np.sin(0.3 * traj.grid
                                                 + i * np.pi / 2)
    om.save_trajectory_csv(om.Trajectory(traj.grid, states, "jet", k, 1),
                           csv)
    verdict = run_json(capsys, ["verify", spec, "--traj", str(csv)],
                       expect=1)
    assert "el_residual" in verdict["failed_checks"]


def test_simulate_unified_rejects_off_constraint(tmp_path, capsys):
    spec = write_spec(tmp_path, "pais_uhlenbeck")
    code, _, err = run_cli(capsys, [
        "simulate", spec, "--unified", "--init", "1,0,-1,0,0.5,-1",
        "--t-end", "1"])
    assert code == 2
    assert "constraint" in err


def test_simulate_degenerate_exits_singular(tmp_path, capsys):
    spec = write_spec(tmp_path, "degenerate")
    code, _, err = run_cli(capsys, [
        "simulate", spec, "--init", "1,0,0,0", "--t-end", "1"])
    assert code == 3
    assert "last good time t=0.0" in err


def test_simulate_rk4_singular_message_has_plain_times(tmp_path, capsys):
    spec = write_spec(tmp_path, "degenerate")
    code, _, err = run_cli(capsys, [
        "simulate", spec, "--init", "1,0,0,0", "--t-end", "1",
        "--method", "rk4", "--step", "0.1"])
    assert code == 3
    assert err == ("error: Hessian is singular, accelerations are not "
                   "determined (at t=0.0) (last good time t=0.0)\n")


def test_small_mass_is_regular(tmp_path, capsys):
    doc = {"name": "particle", "order": 1, "dofs": 3,
           "lagrangian": "1/2*1e-3*(q1_1^2+q1_2^2+q1_3^2)"}
    spec = tmp_path / "particle.json"
    spec.write_text(json.dumps(doc))
    regularity = run_json(capsys, ["derive", str(spec)])["regularity"]
    assert regularity["regular"] is True
    assert regularity["max_condition"] == pytest.approx(1.0)
    assert regularity["rank_at_worst_point"] == 3
    summary = run_json(capsys, ["simulate", str(spec), "--init",
                                "1,1,0,2,0,-1", "--t-end", "1"])
    assert summary["final_state"] == pytest.approx([2, 1, 2, 2, -1, -1])


def test_simulate_blow_up_exits_singular(tmp_path, capsys):
    doc = {"name": "crossing", "order": 1, "dofs": 1,
           "lagrangian": "1/2*q0*q1^2"}
    spec = tmp_path / "crossing.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, [
        "simulate", str(spec), "--init", "1,-0.6666666666666666",
        "--t-end", "2"])
    assert code == 3
    assert "underflow" in err


@pytest.mark.parametrize("key, init", [("harmonic", "1,0"),
                                       ("pais_uhlenbeck", "1,0,-1,0")])
def test_simulate_short_span_is_no_step_underflow(tmp_path, capsys, key,
                                                  init):
    # the step floor was 1e-14 near t = 0, above every step of this span
    spec = write_spec(tmp_path, key)
    summary = run_json(capsys, ["simulate", spec, "--init", init,
                                "--t-end", "1e-13"])
    assert summary["final_time"] == 1e-13 and summary["steps"] == 4


STEEP = {"name": "steep", "order": 1, "dofs": 1,
         "lagrangian": "1/2*q0^200*q1^2"}


@pytest.mark.parametrize("method", [["--method", "rk4", "--step", "0.05"],
                                    ["--method", "rk45"]], ids=["rk4", "rk45"])
def test_simulate_non_finite_final_state_fails(tmp_path, capsys, method):
    # rk4 steps through the overflow into NaN; rk45 rejects every such step
    spec = tmp_path / "steep.json"
    spec.write_text(json.dumps(STEEP))
    code, out, err = run_cli(capsys, ["simulate", str(spec), "--init",
                                      "30,200", "--t-end", "1", *method])
    summary = json.loads(out)
    if method[1] == "rk4":
        assert code == 1
        assert err == "warning: non-finite final_state\n"
        assert summary["final_state"] == ["nan", "nan"]
    else:
        assert (code, err) == (0, "")
        assert all(math.isfinite(x) for x in summary["final_state"])


def test_simulate_usage_errors(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    code, _, _ = run_cli(capsys, [
        "simulate", spec, "--init", "1,0,0", "--t-end", "1"])
    assert code == 2  # wrong state width
    code, _, _ = run_cli(capsys, [
        "simulate", spec, "--init", "1,zap", "--t-end", "1"])
    assert code == 2
    code, _, _ = run_cli(capsys, [
        "simulate", spec, "--init", "1,0", "--t-end", "1",
        "--method", "rk4"])
    assert code == 2  # rk4 without --step


@pytest.mark.parametrize("flag", [
    "--tol=-1e-9", "--tol=0", "--max-step=0", "--max-step=-0.1"])
def test_simulate_rejects_bad_integrator_inputs(tmp_path, capsys, flag):
    # a negative tolerance was a TypeError traceback, a zero one a
    # divide-by-zero step underflow, a zero cap an uncapped run and a
    # negative cap a step underflow
    spec = write_spec(tmp_path, "harmonic")
    code, out, err = run_cli(capsys, [
        "simulate", spec, "--init", "1,0", "--t-end", "1", flag])
    assert code == 2 and out == ""
    assert err.startswith("error: rk45 integration needs atol > 0")


@pytest.mark.parametrize("flag", ["--tol=-1", "--max-step=-1"])
def test_simulate_rk4_rejects_bad_integrator_inputs(tmp_path, capsys, flag):
    # rk4 reads neither option, and ran with them to exit 0
    spec = write_spec(tmp_path, "harmonic")
    code, out, err = run_cli(capsys, [
        "simulate", spec, "--init", "1,0", "--t-end", "1", "--method", "rk4",
        "--step", "0.1", flag])
    assert code == 2 and out == ""
    assert err.startswith("error: rk4 integration needs atol > 0")


@pytest.mark.parametrize("method", [["--method", "rk4", "--step", "0.1"],
                                    ["--method", "rk45"]])
@pytest.mark.parametrize("layout", [["--init", "1,0"],
                                    ["--unified", "--init", "1,0,0"]])
@pytest.mark.parametrize("span", [["--t-end", "inf"], ["--t-end", "nan"],
                                  ["--t0=-inf", "--t-end", "1"],
                                  ["--t0=-1e308", "--t-end", "1e308"]])
def test_simulate_rejects_non_finite_span(tmp_path, capsys, method, layout,
                                          span):
    # rk4 died with an OverflowError (inf) or ValueError (nan) traceback
    # and exit 1; rk45 ran to max_steps.  The last span is finite at both
    # ends, but t_end - t0 overflows to inf
    spec = write_spec(tmp_path, "harmonic")
    code, out, err = run_cli(capsys, ["simulate", spec, *layout, *span,
                                      *method])
    assert code == 2 and out == ""
    assert err.startswith("error: the time span must be finite, got t0=")


def test_simulate_rejects_an_overflowing_step_count(tmp_path, capsys):
    # span / step is inf, which round() refused with an OverflowError
    spec = write_spec(tmp_path, "harmonic")
    code, out, err = run_cli(capsys, ["simulate", spec, "--init", "1,0",
                                      "--t-end", "1e10", "--method", "rk4",
                                      "--step", "1e-310"])
    assert code == 2 and out == ""
    assert err == ("error: fixed step 1e-310 needs inf steps, above the "
                   "limit 1000000\n")


# -- verify -----------------------------------------------------------------


def test_verify_flags_corruption(tmp_path, capsys):
    spec = write_spec(tmp_path, "pais_uhlenbeck")
    csv = tmp_path / "traj.csv"
    run_json(capsys, ["simulate", spec, "--init", "1,0,-1,0",
                      "--t-end", "10", "--out", str(csv)])
    lines = csv.read_text().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    for row in rows:
        row[2] = f"{float(row[2]) * 1.01:.17g}"
    corrupted = tmp_path / "corrupted.csv"
    corrupted.write_text(header + "\n"
                         + "\n".join(",".join(row) for row in rows) + "\n")
    code, out, _ = run_cli(capsys, ["verify", spec, "--traj", str(corrupted)])
    assert code == 1
    verdict = json.loads(out)
    assert "el_residual" in verdict["failed_checks"]


def nan_velocity_csv(tmp_path, capsys, spec, column="q_1_1", value="nan",
                     row=None, span=("--init", "1,0", "--t-end", "1")):
    """A harmonic rk45 trajectory over ``span`` with one cell of
    ``column`` set to ``value``: that of row ``row``, or of the middle
    row."""
    csv = tmp_path / "h.csv"
    run_json(capsys, ["simulate", spec, *span, "--out", str(csv)])
    lines = csv.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows[len(rows) // 2 if row is None else row][
        lines[0].split(",").index(column)] = value
    csv.write_text("\n".join([lines[0]] + [",".join(row) for row in rows])
                   + "\n")
    return str(csv)


def test_verify_fails_a_nan_cell(tmp_path, capsys):
    spec = str(DEMOS / "harmonic.json")
    csv = nan_velocity_csv(tmp_path, capsys, spec)
    code, out, _ = run_cli(capsys, ["verify", spec, "--traj", csv])
    verdict = json.loads(out)
    assert code == 1 and verdict["passed"] is False
    assert verdict["report"]["el_residual"] == "nan"
    assert "el_residual" in verdict["failed_checks"]


@pytest.mark.parametrize("value, row", [("nan", None), ("inf", -1),
                                        ("-inf", 0)])
@pytest.mark.parametrize("command", ["verify", "action-check"])
def test_non_finite_time_cell_is_a_usage_error(tmp_path, capsys, command,
                                               value, row):
    spec = str(DEMOS / "harmonic.json")
    csv = nan_velocity_csv(tmp_path, capsys, spec, "t", value, row)
    code, out, err = run_cli(capsys, [command, spec, "--traj", csv])
    assert (code, out) == (2, "")
    assert err == ("error: trajectory grid must be finite and strictly "
                   "increasing\n")


def test_verify_malformed_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, "pais_uhlenbeck")
    broken = tmp_path / "broken.csv"
    broken.write_text("t,q_0_1\n0,1\n")
    code, _, err = run_cli(capsys, ["verify", spec, "--traj", str(broken)])
    assert code == 2
    assert "broken.csv" in err


@pytest.mark.parametrize("command", ["verify", "action-check"])
def test_unreadable_trajectory_is_a_usage_error(tmp_path, capsys, command):
    spec = write_spec(tmp_path, "harmonic")
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe\x00")
    for traj in (tmp_path / "missing.csv", binary):
        code, out, err = run_cli(capsys, [command, spec, "--traj", str(traj)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {traj}: cannot read trajectory file")


# -- action-check -----------------------------------------------------------


def test_action_check_path_document(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    doc = {"basis": "fourier", "coefficients": [[0.0, 1.0, 0.0]],
           "interval": [0.0, float(np.pi)]}
    pf = tmp_path / "path.json"
    pf.write_text(json.dumps(doc))
    report = run_json(capsys, [
        "action-check", spec, "--path", str(pf), "--variations", "10"])
    assert report["passed"] is True
    assert report["stationarity"]["stationary"] is True
    assert report["action_difference"] <= 1e-9 * (
        1 + abs(report["action_lagrangian"]))


def test_action_check_fails_off_solution(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    doc = {"basis": "monomial", "coefficients": [[0.0, 1.0]],
           "interval": [0.0, 1.0]}
    pf = tmp_path / "path.json"
    pf.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, [
        "action-check", spec, "--path", str(pf), "--variations", "10"])
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("key, basis, coefficients, interval", [
    ("harmonic", "fourier", [[0, 1, 0]], [0, 1e-200]),
    ("pais_uhlenbeck", "monomial", [[0, 1]], [0, 1e-60]),
    ("harmonic", "monomial", [[0, 1]], [0, 1e200])])
def test_action_check_bump_scale_out_of_range_is_a_usage_error(
        tmp_path, capsys, key, basis, coefficients, interval):
    # half_width^(2 exponent) underflowed to 0 on a short interval (a
    # ZeroDivisionError traceback) and overflowed on a long one (an
    # OverflowError traceback)
    spec = write_spec(tmp_path, key)
    pf = tmp_path / "path.json"
    pf.write_text(json.dumps({"basis": basis, "coefficients": coefficients,
                              "interval": interval}))
    code, out, err = run_cli(capsys, ["action-check", spec, "--path",
                                      str(pf)])
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: variation support \[\S+, \S+\] admits no "
                        r"bump of exponent \d+: .*\n", err)


def test_action_check_fitted_trajectory(tmp_path, capsys):
    # the path through the recorded jets is stationary
    spec = write_spec(tmp_path, "harmonic")
    csv = tmp_path / "traj.csv"
    run_json(capsys, ["simulate", spec, "--init", "1,0",
                      "--t-end", f"{2 * np.pi:.17g}", "--out", str(csv)])
    report = run_json(capsys, ["action-check", spec, "--traj", str(csv),
                               "--variations", "10"])
    assert report["passed"] is True
    assert report["source"] == {"trajectory_file": str(csv)}
    assert report["interval"] == [0.0, 2 * np.pi]


def test_action_check_default_fit_is_silent(tmp_path, capsys):
    # the path through the recorded jets takes no option and prints
    # nothing on stderr
    spec = write_spec(tmp_path, "harmonic")
    csv = tmp_path / "traj.csv"
    run_json(capsys, ["simulate", spec, "--init", "1,0",
                      "--t-end", f"{2 * np.pi:.17g}", "--out", str(csv)])
    code, out, err = run_cli(capsys, ["action-check", spec, "--traj",
                                      str(csv), "--variations", "2"])
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


# simulate arguments of correct rk45 runs over long spans, each of which
# the global least-squares fit of 12 coefficients failed (max|dS| 5e-6 to
# 1.2e-3 against bounds near 1e-6)
_LONG_SPANS = {
    "harmonic": ["--init", "0.7,-0.4", "--t-end", "7.3"],
    "pais_uhlenbeck": ["--init", "1,0,-1,0", "--t-end", "6"],
    "pais_uhlenbeck_unified": ["--init", "1,0,-1,0,0,-1", "--t-end", "6",
                               "--unified"],
    "coupled_mass": ["--init", "0.3,0.4,0.5,0.6,0.7,0.8", "--t-end", "5"],
    "coupled_beam": ["--init", "0.3,0.1,0,0,0.5,-0.2,0,0", "--t-end", "4"],
    "driven_oscillator": ["--init", "0.3,0", "--t-end", "6"],
}


def _moved(csv, changes):
    """Add to each named column of the CSV a function of the time."""
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    for row in rows:
        for column, change in changes.items():
            row[header.index(column)] += change(row[0])
    csv.write_text("\n".join([lines[0]] + [",".join(map(repr, row))
                                           for row in rows]) + "\n")


@pytest.mark.parametrize("case", [*_LONG_SPANS, "harmonic_perturbed"])
def test_action_check_long_span_trajectories(tmp_path, capsys, case):
    # k = 1 and k = 2, jet and unified layouts: the path through the
    # recorded jets keeps max|dS| two orders below the bound; q0 moved by
    # 2e-4 t^2, and q1 with it, is not a solution and fails
    name = case.removesuffix("_unified").removesuffix("_perturbed")
    spec = str(DEMOS / f"{name}.json")
    csv = tmp_path / "traj.csv"
    run_json(capsys, ["simulate", spec, *_LONG_SPANS.get(
        case, _LONG_SPANS["harmonic"]), "--out", str(csv)])
    if case.endswith("_perturbed"):
        _moved(csv, {"q_0_1": lambda t: 2e-4 * t * t,
                     "q_1_1": lambda t: 4e-4 * t})
    code, out, err = run_cli(capsys, ["action-check", spec, "--traj",
                                      str(csv)])
    report = json.loads(out)
    stat = report["stationarity"]
    bound = stat["tolerance"] * (1.0 + abs(stat["action"]))
    assert err == "" and report["action_difference"] <= 1e-14
    if case.endswith("_perturbed"):
        assert (code, report["passed"]) == (1, False)
        assert stat["max_abs_derivative"] > 1e3 * bound
    else:
        assert (code, report["passed"]) == (0, True)
        assert stat["max_abs_derivative"] < 0.2 * bound


def test_action_check_fails_a_non_finite_fit_residual(tmp_path, capsys):
    # a NaN velocity, read by the path, fails the run whether or not a
    # quadrature node falls on the intervals it enters: at row 21 of 137
    # one bump and 17 nodes miss them, and the loose bound passes the
    # finite action
    spec = str(DEMOS / "harmonic.json")
    csv = nan_velocity_csv(tmp_path, capsys, spec, row=21,
                           span=_LONG_SPANS["harmonic"])
    for options in ([], ["--variations", "1", "--quad-points", "8",
                         "--tol", "1e-3"]):
        code, out, err = run_cli(capsys, ["action-check", spec, "--traj",
                                          csv, *options])
        report = json.loads(out)
        assert (code, report["passed"]) == (1, False)
        assert err == "warning: non-finite jets in the trajectory\n"
    assert report["stationarity"]["stationary"] is True
    assert math.isfinite(report["action_lagrangian"])


def test_action_check_short_trajectory_default_coeffs(tmp_path, capsys):
    # rk45 takes 4 steps here: four intervals are a path
    spec = str(DEMOS / "free_particle.json")
    csv = tmp_path / "short.csv"
    run_json(capsys, ["simulate", spec, "--init", "0,1", "--t-end", "3",
                      "--out", str(csv)])
    assert len(csv.read_text().splitlines()) == 1 + 5
    report = run_json(capsys, ["action-check", spec, "--traj", str(csv)])
    assert report["passed"] is True
    # the path takes no coefficient count
    with pytest.raises(SystemExit) as info:
        cli.main(["action-check", spec, "--traj", str(csv), "--coeffs", "9"])
    assert info.value.code == 2
    capsys.readouterr()


def test_action_check_usage(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    pf = tmp_path / "path.json"
    pf.write_text(json.dumps({"basis": "monomial",
                              "coefficients": [[0.0, 1.0]],
                              "interval": [0.0, 1.0]}))
    code, _, err = run_cli(capsys, [
        "action-check", spec, "--path", str(pf), "--variations", "0"])
    assert code == 2 and "--variations" in err
    with pytest.raises(SystemExit) as info:
        cli.main(["action-check", spec])  # neither --path nor --traj
    assert info.value.code == 2
    capsys.readouterr()
    pf.write_text(json.dumps({"basis": "monomial",
                              "coefficients": [[0.0, 1.0]]}))
    code, _, err = run_cli(capsys, ["action-check", spec, "--path", str(pf)])
    assert code == 2 and "interval" in err


@pytest.mark.parametrize("text", [
    b"3",
    b'{"basis": "monomial", "coefficients": "abc", "interval": [0, 1]}',
    b'{"basis": "monomial", "coefficients": [[0, 1]], "interval": ["a", 1]}',
    b'{"basis": "monomial", "coefficients": [[0, 1], [1]], "interval": [0, 1]}',
    b'{"basis": "monomial", "coefficients": [[0, 1]], '
    b'"interval": [0, Infinity]}',
    b"\xff\xfe",
    b'{"basis": "monomial", "coefficients": [[null, 1]], "interval": [0, 1]}',
    # finite ends whose b - a overflows: drawing the bump centres raised
    # numpy's OverflowError
    b'{"basis": "monomial", "coefficients": [[0, 1]], '
    b'"interval": [-1e308, 1e308]}',
], ids=["not_object", "text_coefficients", "text_interval", "ragged",
        "infinite_interval", "not_utf8", "null_coefficient",
        "overflowing_interval"])
def test_malformed_path_document_is_a_usage_error(tmp_path, capsys, text):
    spec = write_spec(tmp_path, "harmonic")
    pf = tmp_path / "path.json"
    pf.write_bytes(text)
    code, out, err = run_cli(capsys, ["action-check", spec, "--path", str(pf)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_action_check_overflowing_action_warns_nothing(tmp_path, capsys):
    # the Simpson sums of L = 1e307*q1^2 overflow: the action is reported
    # as inf and fails the run, and no NumPy warning repeats it
    spec = _lagrangian_spec(tmp_path, "1e307*q1^2")
    csv = str(tmp_path / "big.csv")
    run_json(capsys, ["simulate", spec, "--init", "1,1", "--t-end", "0.1",
                      "--out", csv])
    code, out, err = run_cli(capsys, ["action-check", spec, "--traj", csv,
                                      "--variations", "3"])
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["action_lagrangian"] == report["action_cartan"] == "inf"
    assert report["stationarity"]["action"] == "inf"


def test_action_check_fails_an_action_that_overflows_outside_the_bumps(
        tmp_path, capsys):
    # exp(1000 - 1e7*t) overflows only for t below about 2.9e-5, where no
    # bump of seed 42 reaches: the derivatives, differenced over the
    # supports, stay finite and small, and the infinite action fails the run
    spec = _lagrangian_spec(tmp_path, "1/2*q1^2 + exp(1000 - 10000000*t)")
    pf = tmp_path / "path.json"
    pf.write_text(json.dumps({"basis": "monomial",
                              "coefficients": [[0.0, 1.0]],
                              "interval": [0.0, 1.0]}))
    code, out, err = run_cli(capsys, ["action-check", spec, "--path", str(pf),
                                      "--variations", "5"])
    assert (code, err) == (1, "")
    report = json.loads(out)
    stationarity = report["stationarity"]
    assert stationarity["action"] == "inf"
    assert 0.0 < stationarity["max_abs_derivative"] <= 1e-10
    assert stationarity["stationary"] is False and report["passed"] is False


# -- unified-check ----------------------------------------------------------


def test_unified_check_explicit_point(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    report = run_json(capsys, ["unified-check", spec, "--point", "0,1,0,0"])
    assert report["all_on_constraint"] is True
    entry = report["points"][0]
    np.testing.assert_allclose(entry["solved_field"], [1.0, 0.0, -1.0, -1.0],
                               atol=1e-12)
    assert entry["transversality"] == 1.0
    # H = -L + p q1 = 1/2 q0^2 ... = -1/2 here, so the section picks p = 1/2
    assert entry["hamiltonian"] == pytest.approx(0.5)
    assert entry["section_p"] == pytest.approx(-0.5)
    assert entry["coupling"] == pytest.approx(-0.5)


def test_unified_check_extended_point(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    report = run_json(capsys, [
        "unified-check", spec, "--point", "0,1,0,0,-0.5", "--extended"])
    entry = report["points"][0]
    assert entry["coupling"] == pytest.approx(-0.5)


def test_unified_check_random_points(tmp_path, capsys):
    spec = write_spec(tmp_path, "pais_uhlenbeck")
    report = run_json(capsys, [
        "unified-check", spec, "--random", "25", "--seed", "7"])
    assert report["n_points"] == 25 and report["seed"] == 7
    assert report["all_on_constraint"] is True
    assert report["max_field_difference"] <= 1e-10
    assert report["max_kernel_residual"] <= 1e-9


@pytest.mark.parametrize("count", ["0", "-2"])
def test_unified_check_random_count_must_be_positive(tmp_path, capsys, count):
    # zero points passed with all_on_constraint true, having checked nothing
    spec = write_spec(tmp_path, "harmonic")
    code, out, err = run_cli(capsys, [
        "unified-check", spec, f"--random={count}"])
    assert code == 2 and out == ""
    assert err == f"error: --random must be at least 1, got {count}\n"


def test_unified_check_off_constraint_point(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    code, out, _ = run_cli(capsys, [
        "unified-check", spec, "--point", "0,1,0,0.25"])
    assert code == 1
    report = json.loads(out)
    entry = report["points"][0]
    assert entry["on_constraint"] is False
    assert entry["solved_field"] is None
    assert entry["kernel_residual"] > 0.1


def test_unified_check_fails_an_overflowing_point(tmp_path, capsys):
    # 1e200^2 overflows: the fields say inf, and the run fails without a
    # raw numpy warning
    spec = write_spec(tmp_path, "harmonic")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, [
            "unified-check", spec, "--point", "0,1e200,0,0"])
    assert code == 1 and caught == []
    assert "RuntimeWarning" not in err
    assert err == ("warning: point 0 has non-finite hamiltonian, section_p, "
                   "coupling\n")
    report = json.loads(out)
    assert report["all_on_constraint"] is True
    entry = report["points"][0]
    assert entry["hamiltonian"] == "inf" and entry["coupling"] == "-inf"
    assert list(entry) == list(run_json(capsys, [
        "unified-check", spec, "--point", "0,1,0,0"])["points"][0])


def test_unified_check_summary_keeps_a_nan(tmp_path, capsys):
    # exp(q0) overflows across the box: one point's kernel residual is
    # NaN, and the summary's maximum is NaN wherever that point comes
    spec = _lagrangian_spec(tmp_path, "1/2*q1^2 - exp(q0)*q1^2/1000")
    for seed, point in ((1, 0), (2, 5)):
        code, out, err = run_cli(capsys, [
            "unified-check", spec, "--random", "12", "--box=-800,800",
            "--seed", str(seed)])
        assert code == 1 and f"point {point} has non-finite" in err
        report = json.loads(out)
        residuals = [entry["kernel_residual"] for entry in report["points"]]
        assert residuals.index("nan") == point
        assert report["max_kernel_residual"] == "nan"


def test_unified_check_wrong_point_length(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    code, _, err = run_cli(capsys, ["unified-check", spec, "--point", "0,1,0"])
    assert code == 2 and "--point needs 4 values" in err


# -- cross-cutting ----------------------------------------------------------


def test_each_command_derives_only_the_families_it_reads(tmp_path, capsys,
                                                         monkeypatch):
    """Each family of the DerivedSystem a command builds is derived on
    first read, and each total derivative of a partial of L once: the
    momenta take n k(k-1)/2 of them, and el n k more."""
    spec = tmp_path / "nl3.json"
    spec.write_text(json.dumps(NL3_LIKE))
    spec, csv = str(spec), str(tmp_path / "nl3.csv")
    run_json(capsys, ["simulate", spec, "--init", ",".join(["0.1"] * 18),
                      "--t-end", "0.2", "--out", csv])
    systems, calls = [], []
    derive, total_derivative = legendre.derive, ex.total_derivative

    def capturing(model):
        systems.append(derive(model))
        return systems[-1]

    def counted(*args):
        calls.append(args)
        return total_derivative(*args)

    monkeypatch.setattr(legendre, "derive", capturing)
    monkeypatch.setattr(ex, "total_derivative", counted)
    n, k = 3, 3
    families = {
        name for name, member in vars(legendre.DerivedSystem).items()
        if isinstance(member, functools.cached_property)}
    for argv, derivatives in (
            (["verify", spec, "--traj", csv], n * k * (k - 1) // 2),
            (["action-check", spec, "--traj", csv, "--variations", "2"],
             n * k * (k - 1) // 2),
            (["unified-check", spec, "--random", "2"], n * k * (k + 1) // 2),
            (["derive", spec, "--samples", "2"], n * k * (k + 1) // 2)):
        systems.clear()
        calls.clear()
        assert run_cli(capsys, argv)[0] in (0, 1), argv[0]
        derived = set(vars(systems[0])) & families
        if argv[0] in ("verify", "action-check"):
            assert not derived & {"el", "hessian"}, argv[0]
        elif argv[0] == "derive":
            assert {"momenta", "el", "hessian", "hamiltonian"} <= derived
        else:
            assert derived == families
        assert len(calls) == derivatives, argv[0]


def test_outputs_byte_identical_across_runs(tmp_path, capsys):
    spec = write_spec(tmp_path, "pais_uhlenbeck")
    csv = tmp_path / "traj.csv"
    pf = tmp_path / "path.json"
    pf.write_text(json.dumps({
        "basis": "fourier", "coefficients": [[0.0, 0.0, 0.0, 1.0, 0.0]],
        "interval": [0.0, 2 * np.pi]}))
    runs = [
        ["simulate", spec, "--init=1,0,-1,0", "--t-end", "3",
         "--out", str(csv)],
        ["derive", spec, "--samples", "20"],
        ["verify", spec, "--traj", str(csv)],
        ["action-check", spec, "--path", str(pf), "--variations", "8"],
        ["action-check", spec, "--traj", str(csv), "--variations", "4"],
        ["unified-check", spec, "--random", "10"],
    ]
    for argv in runs:
        first = run_cli(capsys, argv)[:2]
        trajectory = csv.read_bytes()
        assert first[0] in (0, 1) and first[1]
        assert run_cli(capsys, argv)[:2] == first, argv
        assert csv.read_bytes() == trajectory, argv


def _plain(value):
    """Whether a report holds only dict, list, str, bool, int, float and
    None, exactly those types and no subclass of them."""
    if type(value) is dict:
        return all(type(key) is str and _plain(item)
                   for key, item in value.items())
    if type(value) is list:
        return all(_plain(item) for item in value)
    return value is None or type(value) in (str, bool, int, float)


@pytest.mark.parametrize("spec", sorted(DEMOS.glob("*.json")),
                         ids=lambda path: path.stem)
def test_reports_hold_plain_python_values(tmp_path, capsys, monkeypatch,
                                          spec):
    reports = []
    emit = cli._emit

    def recording_emit(args, report, to_out=True):
        reports.append((args.command, report))
        emit(args, report, to_out)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    doc = json.loads(spec.read_text())
    k, n = doc["order"], doc["dofs"]
    jets = [0.3 + 0.1 * j for j in range(2 * k * n)]
    momenta = om.legendre_map(om.derive(om.build_system(doc)),
                              om.JetPoint.from_state(0.0, jets, k, n))
    state = ",".join(map(repr, jets + momenta.reshape(-1).tolist()))
    jet_csv, unified_csv = tmp_path / "jet.csv", tmp_path / "unified.csv"
    for argv in (["derive", str(spec), "--samples", "20"],
                 ["simulate", str(spec), "--init", ",".join(map(repr, jets)),
                  "--t-end", "1", "--out", str(jet_csv)],
                 ["simulate", str(spec), "--init", state, "--t-end", "1",
                  "--unified", "--out", str(unified_csv)],
                 ["unified-check", str(spec), "--random", "3"],
                 ["unified-check", str(spec), "--point", "0," + state]):
        run_cli(capsys, argv)
    for csv in (jet_csv, unified_csv):
        if csv.exists():
            run_cli(capsys, ["verify", str(spec), "--traj", str(csv)])
            run_cli(capsys, ["action-check", str(spec), "--traj", str(csv),
                             "--variations", "2"])
    commands = {command for command, _ in reports}
    # a singular W stops every command on the degenerate system but derive
    assert commands == ({"derive"} if spec.stem == "degenerate" else
                        {"derive", "simulate", "verify", "action-check",
                         "unified-check"})
    for command, report in reports:
        assert _plain(report), command


def test_jsonable_prints_non_finite_floats_as_text():
    non_finite = [math.nan, math.inf, -math.inf,
                  np.float64("nan"), np.float64("inf"), np.float64("-inf")]
    assert cli._jsonable({"values": non_finite}) == {
        "values": ["nan", "inf", "-inf"] * 2}
    kept = {"float": 0.1, "zero": -0.0, "tiny": 1e-300, "int": 3,
            "true": True, "false": False, "none": None, "text": "nan",
            "nested": [[2.5, None], {"x": 7}]}
    assert repr(cli._jsonable(kept)) == repr(kept)


@pytest.mark.parametrize("pretty", [False, True])
def test_emit_copies_only_a_report_with_a_non_finite_float(capsys,
                                                           monkeypatch,
                                                           pretty):
    finite = {"float": 0.1, "zero": -0.0, "int": 3, "none": None,
              "rows": [[2.5, 1e-300], {"x": 7, "ok": True}], "text": "nan"}
    non_finite = {"a": [1.0, [math.nan, {"b": math.inf}]],
                  "c": {"d": [-math.inf, 2.0]}, "e": np.float64("nan")}
    args = argparse.Namespace(pretty=pretty, out=None)
    indent = 2 if pretty else None
    # what _emit printed when it walked every report
    cases = [(report, json.dumps(cli._jsonable(report), indent=indent) + "\n")
             for report in (finite, non_finite)]
    jsonable = cli._jsonable
    copied = []

    def recording_jsonable(value):
        copied.append(value)
        return jsonable(value)

    monkeypatch.setattr(cli, "_jsonable", recording_jsonable)
    for report, expected in cases:
        cli._emit(args, report)
        assert capsys.readouterr().out == expected
    assert '"nan"' in expected
    # the finite report, emitted first, was never walked
    assert copied and copied[0] is non_finite


def test_derive_worst_point_is_the_first_nan_condition(tmp_path, capsys):
    # W = (q0+1)^400 - q0^400 is inf or NaN where a power overflows; the
    # first NaN kappa_1 follows finite ones at seed 0, and the worst W is
    # NaN at seed 3, where taking its rank raised
    spec = tmp_path / "gap.json"
    spec.write_text(json.dumps({
        "name": "gap", "order": 1, "dofs": 1,
        "lagrangian": "1/2*((q0+1)^400 - q0^400)*q1^2"}))
    for seed in ("0", "3"):
        regularity = run_json(capsys, [
            "derive", str(spec), "--domain=-10,10", "--samples", "40",
            "--seed", seed])["regularity"]
        assert regularity["regular"] is False
        assert regularity["max_condition"] == "nan"
        assert regularity["rank_at_worst_point"] is None


def test_jobs_flag_is_gone(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["unified-check", spec, "--random", "2", "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def _exit(capsys, parse, argv):
    """The exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    return (exit_info.value.code, *capsys.readouterr())


def test_one_parser_per_process(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert cli.main(["derive", spec, "--samples", "2"]) == 0
    capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # what a parser built afresh for each call printed, the shared one prints
    fresh = cli._build_parser.__wrapped__().parse_args
    for argv in (["--help"], ["unified-check", "--help"], ["--version"],
                 ["derive"], ["derive", spec, "--samples", "many"]):
        want = _exit(capsys, fresh, argv)
        assert want[0] == (0 if argv[-1] in ("--help", "--version") else 2)
        for _ in range(2):
            assert _exit(capsys, cli.main, argv) == want, argv


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ostromech.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_log_level_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OSTRO_LOG", "error")
    cli._configure_logging()
    assert logging.getLogger("ostromech").level == logging.ERROR
    monkeypatch.setenv("OSTRO_LOG", "debug")
    cli._configure_logging()
    assert logging.getLogger("ostromech").level == logging.DEBUG
    monkeypatch.delenv("OSTRO_LOG")
    cli._configure_logging()
    assert logging.getLogger("ostromech").level == logging.WARNING


def test_debug_log_reports_compiled_kernel(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path, "harmonic")
    argv = ["simulate", spec, "--init", "1,0", "--t-end", "1"]
    monkeypatch.delenv("OSTRO_LOG", raising=False)
    quiet = run_cli(capsys, argv)
    monkeypatch.setenv("OSTRO_LOG", "debug")
    try:
        code, out, err = run_cli(capsys, argv)
    finally:
        monkeypatch.delenv("OSTRO_LOG")
        cli._configure_logging()
    assert (code, out) == quiet[:2]
    lines = [line for line in err.splitlines() if "compiled kernel" in line]
    assert len(lines) == 1
    assert re.fullmatch(r"DEBUG ostromech\.expressions: compiled kernel "
                        r"harmonic: 3 expressions, \d+ temporaries, "
                        r"\d+\.\d\d ms", lines[0])


def test_log_handler_follows_current_stderr(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("OSTRO_LOG", raising=False)
    spec = tmp_path / "diagonal9.json"
    spec.write_text(json.dumps({
        "name": "diagonal9", "order": 1, "dofs": 9,
        "lagrangian": " + ".join(f"1/2*q1_{a}^2" for a in range(1, 10))}))
    # nine dofs log that the determinant text is omitted
    for _ in range(2):
        stream = io.StringIO()
        with contextlib.redirect_stderr(stream):
            cli.main(["derive", str(spec)])
        err = stream.getvalue()
        stream.close()
        assert "WARNING ostromech.cli: hessian_det omitted: 9 dofs exceed " \
            "the limit of 8" in err
        assert "Logging error" not in err


def test_installed_entry_point(tmp_path):
    spec = write_spec(tmp_path, "harmonic")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ostromech.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "derive", spec],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["system"] == "harmonic"


@pytest.mark.parametrize("argv", [
    ["derive", "--domain=1,2,3"],
    ["unified-check", "--point", "nan,1,0,0"],
    ["unified-check", "--point", "0,inf,0,0"],
    ["simulate", "--init", "nan,0", "--t-end", "1", "--method", "rk4",
     "--step", "0.1"],
    ["simulate", "--init", "nan,0", "--t-end", "1"],
    ["simulate", "--unified", "--init", "1,0,nan", "--t-end", "1",
     "--method", "rk4", "--step", "0.1"],
    ["simulate", "--init", "1,0", "--t-end", "1", "--method", "rk4",
     "--step", "nan"],
    # a NaN tolerance is a usage error, not a passed or failed check
    *(["verify", "--traj", "TRAJ", f"--{name}-tol", "nan"]
      for name, *_ in cli._VERIFY_CHECKS),
    ["verify", "--traj", "TRAJ", "--tol", "nan"],
    ["action-check", "--traj", "TRAJ", "--tol", "nan"],
    # so is a negative one, which passed or failed every check
    *(["verify", "--traj", "TRAJ", f"--{name}-tol=-1"]
      for name, *_ in cli._VERIFY_CHECKS),
    ["verify", "--traj", "TRAJ", "--tol=-1"],
    ["verify", "--traj", "TRAJ", "--tol=-inf"],
    ["action-check", "--traj", "TRAJ", "--tol=-1"],
])
def test_non_finite_or_extra_numbers_are_usage_errors(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, "harmonic")
    if "TRAJ" in argv:
        # a valid trajectory, so the NaN alone makes the usage error
        csv = str(tmp_path / "traj.csv")
        run_json(capsys, ["simulate", spec, "--init", "1,0", "--t-end", "1",
                          "--out", csv])
        argv = [csv if arg == "TRAJ" else arg for arg in argv]
    code, out, err = run_cli(capsys, [argv[0], spec, *argv[1:]])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_infinite_tolerance_is_no_bound(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    csv = str(tmp_path / "traj.csv")
    run_json(capsys, ["simulate", spec, "--init", "1,0", "--t-end", "1",
                      "--out", csv])
    verdict = run_json(capsys, ["verify", spec, "--traj", csv, "--tol", "inf",
                                "--el-tol", "inf"])
    assert verdict["thresholds"]["el_residual"] == "inf"
    assert verdict["passed"]
    report = run_json(capsys, ["action-check", spec, "--traj", csv,
                               "--variations", "3", "--tol", "inf"])
    assert report["stationarity"]["tolerance"] == "inf"


@pytest.mark.parametrize("command, options", [
    ("derive", []),
    ("unified-check", ["--random", "2"]),
    ("action-check", ["--path", "PATH"])])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command, options):
    # default_rng raised ValueError: a traceback and exit 1
    spec = write_spec(tmp_path, "harmonic")
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"basis": "monomial",
                                "coefficients": [[0.3, 0.2, -0.1]],
                                "interval": [0.0, 1.0]}))
    options = [str(path) if option == "PATH" else option
               for option in options]
    code, out, err = run_cli(capsys, [command, spec, *options, "--seed", "-1"])
    assert (code, out, err) == (2, "", "error: --seed must be non-negative, "
                                       "got -1\n")


def _digest_tool():
    spec = importlib.util.spec_from_file_location(
        "cli_digest", ROOT / "tools" / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_DIGEST = _digest_tool()
# the digest's specs whose values overflow somewhere, with the options of
# its one run of each
EXTREME_SPECS = {name: _DIGEST.INLINE_SYSTEMS[name] for name in (
    "steep", "huge", "power", "gap", "huge_differences", "energy_constant",
    "energy_state")}
EXTREME_SPECS["quartic"] = (_DIGEST.QUARTIC, ["derive"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", EXTREME_SPECS)
def test_extreme_inputs_end_in_an_exit_code(tmp_path, capsys, name):
    # every subcommand, on a spec and at points where values overflow: each
    # run ends in a documented exit code, and an exception, a raw NumPy
    # warning among them, fails the test
    text, (command, *options) = EXTREME_SPECS[name]
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    doc = json.loads(text)
    size = 2 * doc["order"] * doc["dofs"]
    if command != "simulate":
        options = ["--init", ",".join(["0.5"] * (size - 1) + ["1e150"]),
                   "--t-end", "0.1"]
    csv = tmp_path / "traj.csv"
    runs = [["derive"], ["simulate", *options, "--out", str(csv)],
            ["unified-check", "--random", "3", "--box=-1e200,1e200"],
            ["verify", "--traj", str(csv)],
            ["action-check", "--traj", str(csv), "--variations", "3"]]
    for command, *rest in runs:
        if "--traj" in rest and not csv.exists():
            continue
        code, _, err = run_cli(capsys, [command, str(spec), *rest])
        assert code in (0, 1, 2, 3) and "Traceback" not in err


@pytest.mark.parametrize("command, option, value, message", [
    ("derive", "--samples", "100000000000000000000000",
     "--samples must be at most 10000000"),
    ("action-check", "--quad-points", "100000000000000000000000000000",
     "--quad-points must be at most 100000"),
    ("action-check", "--quad-points", "1", "--quad-points must be at least 2"),
    ("action-check", "--variations", "50001",
     "--variations must be at most 50000"),
    ("action-check", "--variations", "0", "--variations must be at least 1"),
    ("unified-check", "--random", "100001",
     "--random must be at most 100000")])
def test_count_options_have_one_range(tmp_path, capsys, command, option,
                                      value, message):
    # a count past its bound ran for minutes or ended in a traceback from
    # np.linspace; now each is a usage error before any work
    spec = write_spec(tmp_path, "harmonic")
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"basis": "monomial",
                                "coefficients": [[0.3, 0.2, -0.1]],
                                "interval": [0.0, 1.0]}))
    where = ["--path", str(path)] if command == "action-check" else []
    code, out, err = run_cli(capsys, [command, spec, *where, option, value])
    assert (code, out, err) == (2, "", f"error: {message}, got {value}\n")


@pytest.mark.parametrize("variations, quad_points", [
    ("50000", "100000"), ("201", "100000")])
def test_action_check_cost_has_one_bound(tmp_path, capsys, variations,
                                         quad_points):
    # each count inside its range, their product past the bound: a run of
    # hours before; now a usage error before the path file is read
    spec = write_spec(tmp_path, "harmonic")
    path = tmp_path / "path.json"
    path.write_text("3")
    code, out, err = run_cli(capsys, [
        "action-check", spec, "--path", str(path), "--variations", variations,
        "--quad-points", quad_points])
    work = int(variations) * int(quad_points)
    assert (code, out, err) == (
        2, "", "error: --variations x --quad-points must be at most "
        f"20000000, got {work}\n")


def test_domain_error_names_its_value_on_a_grid(tmp_path, capsys,
                                               monkeypatch):
    # log(q0) on a harmonic trajectory that crosses q0 = 0: the message of
    # the array evaluation named no value
    monkeypatch.chdir(tmp_path)
    run_json(capsys, ["simulate", write_spec(tmp_path, "harmonic"), "--init",
                      "1,0", "--t-end", "3", "--out", "h.csv"])
    spec = tmp_path / "logpot.json"
    spec.write_text(json.dumps({"name": "logpot", "order": 1, "dofs": 1,
                                "lagrangian": "1/2*q1^2 + log(q0)"}))
    # verify evaluates on the recorded grid, action-check on the quadrature
    # nodes of the first bump's support, along the path through the
    # recorded jets
    for command, value in (("verify", "-0.02870131354713589"),
                           ("action-check", "-6.922574316861228e-05")):
        code, out, err = run_cli(capsys, [command, str(spec), "--traj",
                                          "h.csv"])
        assert (code, out, err) == (
            2, "", f"error: log of non-positive value {value}\n")


def test_a_large_seed_is_a_seed(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    seed = str(10**40)
    code, out, _ = run_cli(capsys, ["unified-check", spec, "--random", "2",
                                    "--seed", seed])
    assert code == 0 and json.loads(out)["seed"] == 10**40


# 1/4*q1^4 from q1 = 1e150: the momentum q1^3 overflows on the recorded
# grid; exp(q0) overflows at q0 = 800 and across the box of derive
OVERFLOW_RUNS = [
    ("1/4*q1^4", ["simulate", "--init", "0.5,1e150", "--t-end", "0.1",
                  "--out", "q.csv"], 0),
    ("1/4*q1^4", ["verify", "--traj", "q.csv"], 1),
    ("1/4*q1^4", ["action-check", "--traj", "q.csv"], 1),
    ("exp(q0)*q1^2/2 + q1^2", ["unified-check", "--point=0,800,1,0"], 1),
    ("exp(q0)*q1^2/2", ["derive", "--domain=-1000,1000", "--samples", "20"],
     0)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflow_is_a_value_on_the_command_line(tmp_path, capsys,
                                                    monkeypatch):
    # each run exited 2, a usage error, on the tree walker's overflow
    monkeypatch.chdir(tmp_path)
    reports, errs = [], []
    for lagrangian, (command, *options), expect in OVERFLOW_RUNS:
        spec = _lagrangian_spec(tmp_path, lagrangian)
        code, out, err = run_cli(capsys, [command, spec, *options])
        assert code == expect and "Traceback" not in err, (command, err)
        reports.append(json.loads(out))
        errs.append(err)
    _, verify, action, point, derive = reports
    assert verify["failed_checks"] == [
        "el_residual", "holonomy_defect", "energy_drift"]
    assert verify["report"]["el_residual"] == "nan"
    assert verify["report"]["energy_drift"] == "nan"
    assert action["stationarity"]["action"] == "inf"
    assert action["passed"] is False
    assert point["points"][0]["hamiltonian"] == "-inf"
    assert errs[3] == ("warning: point 0 has non-finite hamiltonian, "
                       "section_p, coupling, explicit_field\n")
    assert derive["regularity"]["max_condition"] == "nan"
    assert derive["regularity"]["regular"] is False


@pytest.mark.parametrize("argv, expect", [
    (["derive", "harmonic", "--samples", "3"], 0),
    (["unified-check", "harmonic", "--point=0,1,0,5"], 1),
    (["derive", "harmonic", "--samples", "0"], 2),
    (["simulate", "degenerate", "--init", "1,0,0,0", "--t-end", "1"], 3)],
    ids=["passed", "failed", "usage", "singular"])
def test_main_restores_the_numpy_error_state(tmp_path, capsys, argv, expect):
    # main ignores every floating-point error while it runs, and only then
    command, key, *options = argv
    spec = write_spec(tmp_path, key)
    with np.errstate(divide="raise", over="warn", under="ignore",
                     invalid="print"):
        before = np.geterr()
        code, _, _ = run_cli(capsys, [command, spec, *options])
        assert np.geterr() == before
    assert code == expect
