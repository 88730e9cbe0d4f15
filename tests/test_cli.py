"""Command-line interface: reports, exit codes, determinism."""

import contextlib
import io
import json
import logging
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ostromech as om
from ostromech import cli

from conftest import SYSTEM_DOCS, chain_doc, write_spec

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "systems"


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


@pytest.mark.parametrize("count", ["-3", "0"])
def test_derive_sample_count_must_be_positive(tmp_path, capsys, count):
    spec = write_spec(tmp_path, "harmonic")
    code, out, err = run_cli(capsys, ["derive", spec, "--samples", count])
    assert code == 2 and out == ""
    assert err == f"error: samples must be at least 1, got {count}\n"


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


@pytest.mark.parametrize("method", [["--method", "rk4", "--step", "0.1"],
                                    ["--method", "rk45"]])
@pytest.mark.parametrize("layout", [["--init", "1,0"],
                                    ["--unified", "--init", "1,0,0"]])
@pytest.mark.parametrize("span", [["--t-end", "inf"], ["--t-end", "nan"],
                                  ["--t0=-inf", "--t-end", "1"]])
def test_simulate_rejects_non_finite_span(tmp_path, capsys, method, layout,
                                          span):
    # rk4 died with an OverflowError (inf) or ValueError (nan) traceback
    # and exit 1; rk45 ran to max_steps
    spec = write_spec(tmp_path, "harmonic")
    code, out, err = run_cli(capsys, ["simulate", spec, *layout, *span,
                                      *method])
    assert code == 2 and out == ""
    assert err.startswith("error: the time span must be finite, got t0=")


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


def nan_velocity_csv(tmp_path, capsys, spec):
    """A harmonic rk45 trajectory with one q_1_1 cell set to NaN."""
    csv = tmp_path / "h.csv"
    run_json(capsys, ["simulate", spec, "--init", "1,0", "--t-end", "1",
                      "--out", str(csv)])
    lines = csv.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows[len(rows) // 2][lines[0].split(",").index("q_1_1")] = "nan"
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


def test_action_check_fitted_trajectory(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    csv = tmp_path / "traj.csv"
    run_json(capsys, ["simulate", spec, "--init", "1,0",
                      "--t-end", f"{2 * np.pi:.17g}", "--out", str(csv)])
    report = run_json(capsys, [
        "action-check", spec, "--traj", str(csv), "--basis", "fourier",
        "--coeffs", "9", "--variations", "10"])
    assert report["passed"] is True
    assert report["source"]["fit"]["used_orthogonal"] is False
    assert report["source"]["fit"]["max_residual"] < 1e-8


def test_action_check_fails_a_non_finite_fit_residual(tmp_path, capsys):
    # the fit reads positions only, so the path stays stationary
    spec = str(DEMOS / "harmonic.json")
    csv = nan_velocity_csv(tmp_path, capsys, spec)
    code, out, _ = run_cli(capsys, ["action-check", spec, "--traj", csv,
                                    "--variations", "5"])
    report = json.loads(out)
    assert report["source"]["fit"]["derivative_residuals"] == ["nan"]
    assert report["stationarity"]["stationary"] is True
    assert code == 1 and report["passed"] is False


def test_action_check_short_trajectory_default_coeffs(tmp_path, capsys):
    # rk45 takes 4 steps here; the default fit needs no more coefficients
    # than the trajectory has grid points
    spec = str(DEMOS / "free_particle.json")
    csv = tmp_path / "short.csv"
    run_json(capsys, ["simulate", spec, "--init", "0,1", "--t-end", "3",
                      "--out", str(csv)])
    assert len(csv.read_text().splitlines()) == 1 + 5
    report = run_json(capsys, ["action-check", spec, "--traj", str(csv)])
    assert report["source"]["fit"]["n_coefficients"] == 5
    assert report["passed"] is True
    code, _, err = run_cli(capsys, ["action-check", spec, "--traj", str(csv),
                                    "--coeffs", "6"])
    assert code == 2 and "n_coeffs" in err


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
], ids=["not_object", "text_coefficients", "text_interval", "ragged",
        "infinite_interval", "not_utf8", "null_coefficient"])
def test_malformed_path_document_is_a_usage_error(tmp_path, capsys, text):
    spec = write_spec(tmp_path, "harmonic")
    pf = tmp_path / "path.json"
    pf.write_bytes(text)
    code, out, err = run_cli(capsys, ["action-check", spec, "--path", str(pf)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


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
    assert err == "error: --random must be at least 1\n"


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


def test_unified_check_wrong_point_length(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    code, _, err = run_cli(capsys, ["unified-check", spec, "--point", "0,1,0"])
    assert code == 2 and "--point needs 4 values" in err


# -- cross-cutting ----------------------------------------------------------


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


def test_jobs_flag_is_gone(tmp_path, capsys):
    spec = write_spec(tmp_path, "harmonic")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["unified-check", spec, "--random", "2", "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


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
    spec = write_spec(tmp_path, "harmonic")
    csv = tmp_path / "traj.csv"
    run_json(capsys, ["simulate", spec, "--init", "1,0",
                      "--t-end", f"{2 * np.pi:.17g}", "--out", str(csv)])
    # the default 12-coefficient monomial fit logs an ill-conditioning warning
    argv = ["action-check", spec, "--traj", str(csv), "--variations", "2"]
    for _ in range(2):
        stream = io.StringIO()
        with contextlib.redirect_stderr(stream):
            cli.main(argv)
        err = stream.getvalue()
        stream.close()
        assert "WARNING ostromech.variational: normal equations are " \
            "ill-conditioned" in err
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
])
def test_non_finite_or_extra_numbers_are_usage_errors(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, "harmonic")
    code, out, err = run_cli(capsys, [argv[0], spec, *argv[1:]])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
