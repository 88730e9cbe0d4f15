"""Each check of the benchmark accepts the program's real outputs and
rejects a wrong one.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ostromech  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def run_once(workload, tmp_path_factory):
    bench = workloads.WORKLOADS[workload]()
    bench.setup(ostromech, tmp_path_factory.mktemp(workload), SEED)
    return bench.run_pass(), reference.build(workload, SEED)


@pytest.fixture(scope="module")
def integrate_run(tmp_path_factory):
    return run_once("integrate", tmp_path_factory)


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    return run_once("verify", tmp_path_factory)


@pytest.fixture(scope="module")
def derive_run(tmp_path_factory):
    return run_once("derive", tmp_path_factory)


def edit_report(outputs, key, change):
    """Copy of the outputs with one CLI report changed by ``change``."""
    out = dict(outputs)
    code, text = out[key]
    report = json.loads(text)
    change(report)
    out[key] = (code, json.dumps(report))
    return out


def edit_states(outputs, key, change):
    out = dict(outputs)
    traj = dict(out[key])
    states = np.array(traj["states"])
    change(states, traj)
    traj["states"] = states
    out[key] = traj
    return out


def assert_rejected(failures, fragment):
    assert any(fragment in message for message in failures), failures


# -- integrate -------------------------------------------------------------


def test_integrate_outputs_pass(integrate_run):
    outputs, ref = integrate_run
    assert workloads.check_integrate(outputs, ref) == []


def test_integrate_rejects_wrong_final_state(integrate_run):
    outputs, ref = integrate_run

    def nudge(states, traj):
        states[-1, 0] += 1e-4
    assert_rejected(workloads.check_integrate(
        edit_states(outputs, "nl3/jet", nudge), ref), "final jets")


def test_integrate_rejects_perturbed_reference_state(integrate_run):
    outputs, ref = integrate_run
    wrong = copy.deepcopy(ref)
    wrong["coupled_beam"]["final_jets"][1][2] += 1e-4
    assert_rejected(workloads.check_integrate(outputs, wrong), "final jets")


def test_integrate_rejects_wrong_final_momenta(integrate_run):
    outputs, ref = integrate_run
    wrong = copy.deepcopy(ref)
    wrong["nl3"]["final_momenta"][2][1] += 1e-4
    assert_rejected(workloads.check_integrate(outputs, wrong), "final momenta")


def test_integrate_rejects_pu_off_cosine(integrate_run):
    outputs, ref = integrate_run

    def shift(states, traj):
        states[:, 0] += 1e-5
    assert_rejected(workloads.check_integrate(
        edit_states(outputs, "pais_uhlenbeck/jet", shift), ref), "cos t")


def test_integrate_rejects_energy_drift(integrate_run):
    outputs, ref = integrate_run

    def kink(states, traj):
        states[len(states) // 2, 1] += 1e-6
    assert_rejected(workloads.check_integrate(
        edit_states(outputs, "coupled_beam/jet", kink), ref), "energy drift")


def test_integrate_rejects_constraint_drift(integrate_run):
    outputs, ref = integrate_run

    def sign_flip(states, traj):
        k, n = traj["k"], traj["n"]
        states[1:, 2 * k * n] *= -1.0  # p^0 of dof 1 after the start
    assert_rejected(workloads.check_integrate(
        edit_states(outputs, "nl3/unified", sign_flip), ref),
        "constraint residual")


def test_integrate_rejects_raising_call(integrate_run):
    outputs, ref = integrate_run
    wrong = dict(outputs, **{"nl3/jet": {"error": "ConvergenceError()"}})
    assert_rejected(workloads.check_integrate(wrong, ref), "raised")


# -- verify ----------------------------------------------------------------


def test_verify_outputs_pass(verify_run):
    outputs, _ = verify_run
    assert workloads.check_verify(outputs) == []


def test_verify_rejects_passed_perturbed_copy(verify_run):
    outputs, _ = verify_run
    wrong = dict(outputs, **{"verify/nl3_perturbed": outputs["verify/nl3"]})
    assert_rejected(workloads.check_verify(wrong), "expected fail")


def test_verify_rejects_failed_recorded_trajectory(verify_run):
    outputs, _ = verify_run
    wrong = dict(outputs, **{"verify/pu": outputs["verify/pu_perturbed"]})
    assert_rejected(workloads.check_verify(wrong), "expected pass")


def test_verify_rejects_perturbation_missed_by_el(verify_run):
    outputs, _ = verify_run

    def drop(report):
        report["failed_checks"].remove("el_residual")
    assert_rejected(workloads.check_verify(
        edit_report(outputs, "verify/pu_perturbed", drop)), "Euler-Lagrange")


def test_verify_rejects_wrong_stationarity_verdict(verify_run):
    outputs, _ = verify_run
    wrong = dict(outputs, **{"action/off": outputs["action/cos"]})
    assert_rejected(workloads.check_verify(wrong), "action/off: verdict")


def test_verify_rejects_nonzero_cosine_action(verify_run):
    outputs, _ = verify_run

    def shift(report):
        report["action_lagrangian"] = report["action_cartan"] = 1e-6
    assert_rejected(workloads.check_verify(
        edit_report(outputs, "action/cos", shift)), "expected 0")


def test_verify_rejects_cartan_disagreement(verify_run):
    outputs, _ = verify_run

    def split(report):
        report["action_cartan"] += 1e-6
    assert_rejected(workloads.check_verify(
        edit_report(outputs, "action/off", split)), "disagree")


def test_verify_rejects_field_difference(verify_run):
    outputs, _ = verify_run

    def widen(report):
        report["points"][3]["max_field_difference"] = 1e-6
    assert_rejected(workloads.check_verify(
        edit_report(outputs, "unified/nl3", widen)), "fields differ")


def test_verify_rejects_kernel_residual(verify_run):
    outputs, _ = verify_run

    def raise_residual(report):
        report["max_kernel_residual"] = 1e-8
    assert_rejected(workloads.check_verify(
        edit_report(outputs, "unified/coupled_beam", raise_residual)),
        "kernel residual")


def test_verify_rejects_missing_report(verify_run):
    outputs, _ = verify_run
    wrong = dict(outputs, **{"verify/nl3": (2, "")})
    assert_rejected(workloads.check_verify(wrong), "no JSON report")


# -- derive ----------------------------------------------------------------


def test_derive_outputs_pass(derive_run):
    outputs, ref = derive_run
    assert workloads.check_derive(outputs, ref) == []


def test_derive_rejects_sign_flipped_momentum(derive_run):
    outputs, ref = derive_run

    def flip(report):
        report["momenta"][0][0] = f"-({report['momenta'][0][0]})"
    assert_rejected(workloads.check_derive(
        edit_report(outputs, "pais-uhlenbeck", flip), ref), "momenta differs")


def test_derive_rejects_wrong_euler_lagrange(derive_run):
    outputs, ref = derive_run

    def drop_term(report):
        report["euler_lagrange"][1] += " + q0_2^3/1000"
    assert_rejected(workloads.check_derive(
        edit_report(outputs, "nl3", drop_term), ref), "el differs")


def test_derive_rejects_wrong_hessian(derive_run):
    outputs, ref = derive_run

    def scale(report):
        report["hessian"][2][4] = f"2*({report['hessian'][2][4]})"
    assert_rejected(workloads.check_derive(
        edit_report(outputs, "chain6", scale), ref), "hessian differs")


def test_derive_rejects_wrong_determinant(derive_run):
    outputs, ref = derive_run

    def offset(report):
        report["hessian_det"] += " + 1/1000"
    assert_rejected(workloads.check_derive(
        edit_report(outputs, "order4", offset), ref), "hessian_det")


def test_derive_rejects_accepted_degenerate_system(derive_run):
    outputs, ref = derive_run

    def accept(report):
        report["regularity"]["regular"] = True
        report["singular_warning"] = False
    assert_rejected(workloads.check_derive(
        edit_report(outputs, "degenerate", accept), ref), "not refused")


def test_derive_rejects_refused_regular_system(derive_run):
    outputs, ref = derive_run

    def refuse(report):
        report["regularity"]["regular"] = False
    assert_rejected(workloads.check_derive(
        edit_report(outputs, "harmonic", refuse), ref), "reported singular")
