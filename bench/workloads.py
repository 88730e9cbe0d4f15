"""The three workloads: set-up, one pass over the roster, and the checks.

A pass is one operation of the benchmark.  Each workload keeps its
set-up (building the roster, writing input files) apart from its pass,
so that set-up is timed as ``setup_s`` and passes as ``op_p50_s``.

Checks compare the program's outputs with the independent reference of
``reference.py`` or with a property the method must have; none compares
with a stored copy of an earlier output.  Check functions take plain
outputs and return a list of failure messages, so the tests can feed
them wrong outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import roster

# rk45 steps of nl3 and coupled_beam are capped below the controller's own
# step (at least 0.019 for nl3 and 0.036 for coupled_beam over seeds
# 0..59), so every step is accepted and the final step is never retried;
# no capped call rejected a step over seeds 0..299.  Uncapped, 12 of seeds
# 0..149 livelock in the final step (see README).
NL3_MAX_STEP = 0.01
BEAM_MAX_STEP = 0.02

# perturbation added to the recorded trajectories: the jets of dof 1 move
# by DELTA * sin(OMEGA t) and its exact derivatives, so holonomy still
# holds but the Euler-Lagrange equation does not (OMEGA is no frequency
# of PU or nl3)
DELTA = 0.2
OMEGA = 0.3

MATH_NAMES = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
              "log": math.log, "sqrt": math.sqrt}
NUMPY_NAMES = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
               "log": np.log, "sqrt": np.sqrt}


def capture_cli(main, argv):
    """Run ``cli.main`` in-process; return (exit code, stdout text).

    Callers pass ``cli.main`` looked up at call time, so that a traced run
    sees the wrapped function."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def digest(outputs):
    """Fingerprint of a pass's outputs, to spot a pass whose outputs differ
    from an already checked pass."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        value = outputs[name]
        h.update(name.encode())
        if isinstance(value, dict) and "states" in value:
            h.update(value["grid"].tobytes())
            h.update(value["states"].tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _rel_close(value, expected, rtol):
    value, expected = np.asarray(value, float), np.asarray(expected, float)
    return bool(np.all(np.abs(value - expected) <= rtol * (1.0 + np.abs(expected))))


def eval_text(text, names):
    """Evaluate an expression text of the program's grammar or of sympy's
    printer with Python's own parser (``^`` is the power operator)."""
    return eval(compile(text.replace("^", "**"), "<expr>", "eval"),
                {"__builtins__": {}}, names)


def jet_names(k, n, columns):
    """Variable names of jets: ``q{i}_{a}``, and ``q{i}`` too when n == 1."""
    names = {}
    for a in range(n):
        for i in range(2 * k + 1):
            if (a, i) in columns:
                names[f"q{i}_{a + 1}"] = columns[(a, i)]
                if n == 1:
                    names[f"q{i}"] = columns[(a, i)]
    return names


def sine_jet(ts, orders):
    """DELTA * sin(OMEGA t) and its derivatives of orders 0 .. orders-1."""
    phase = OMEGA * np.asarray(ts)
    cycle = (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    return [DELTA * OMEGA ** i * cycle[i % 4](phase) for i in range(orders)]


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


class Integrate:
    """Library ``integrate`` and ``integrate_unified`` on nl3, PU and
    coupled_beam: rk45 at tolerance 1e-9 in both layouts."""

    name = "integrate"

    def setup(self, om, workdir, seed):
        self.om = om
        items = [
            ("nl3", roster.nl3_spec(seed), roster.nl3_init(seed),
             roster.NL3_SPAN, NL3_MAX_STEP),
            ("pais_uhlenbeck", roster.demo_spec("pais_uhlenbeck"),
             [roster.PU_COS_JET], roster.PU_SPAN, math.inf),
            ("coupled_beam", roster.demo_spec("coupled_beam"),
             roster.beam_init(seed), roster.BEAM_SPAN, BEAM_MAX_STEP),
        ]
        self.roster = []
        for name, spec, init, span, max_step in items:
            ds = om.derive(om.build_system(spec))
            jet = om.JetPoint(0.0, np.array(init, dtype=float))
            point = om.UnifiedPoint(jet, om.legendre_map(ds, jet))
            self.roster.append((name, ds, jet, point, span, max_step))

    def run_pass(self):
        om = self.om
        out = {}
        for name, ds, jet, point, span, max_step in self.roster:
            for layout in ("jet", "unified"):
                key = f"{name}/{layout}"
                try:
                    if layout == "jet":
                        traj = om.integrate(ds, jet, span, rtol=roster.TOL,
                                            atol=roster.TOL, max_step=max_step)
                    else:
                        traj = om.integrate_unified(
                            ds, point, span, rtol=roster.TOL, atol=roster.TOL,
                            max_step=max_step)
                except Exception as err:  # a raising call fails the pass
                    out[key] = {"error": repr(err)}
                    continue
                out[key] = {"grid": traj.grid, "states": traj.states,
                            "k": ds.k, "n": ds.n, "tolerance": traj.meta["tolerance"]}
        return out

    def check(self, outputs, ref):
        return check_integrate(outputs, ref)


def energy_and_momenta(traj, texts):
    """Ostrogradsky energy series and momenta series from the reference
    texts, evaluated on a trajectory's jets."""
    k, n = traj["k"], traj["n"]
    names = dict(NUMPY_NAMES, t=traj["grid"])
    names.update(jet_names(k, n, {(a, i): traj["states"][:, a * 2 * k + i]
                                  for a in range(n) for i in range(2 * k)}))
    momenta = np.array([[np.broadcast_to(eval_text(p, names), traj["grid"].shape)
                         for p in row] for row in texts["momenta"]], dtype=float)
    energy = -np.broadcast_to(eval_text(texts["lagrangian"], names),
                              traj["grid"].shape).astype(float)
    for a in range(n):
        for i in range(k):
            energy = energy + momenta[a, i] * traj["states"][:, a * 2 * k + i + 1]
    return energy, momenta


def check_integrate(outputs, ref):
    failures = []
    for key, traj in outputs.items():
        name, layout = key.split("/")
        if "error" in traj:
            failures.append(f"{key}: raised {traj['error']}")
            continue
        k, n, tol = traj["k"], traj["n"], traj["tolerance"]
        jets = traj["states"][:, :2 * k * n]
        if name == "pais_uhlenbeck":
            err = float(np.max(np.abs(jets[:, 0] - np.cos(traj["grid"]))))
            if not err <= 1e-6:
                failures.append(f"{key}: position differs from cos t by {err:.3e}")
        else:
            expected = np.asarray(ref[name]["final_jets"]).reshape(-1)
            scale = 1.0 + float(np.max(np.abs(expected)))
            err = float(np.max(np.abs(jets[-1] - expected)))
            if not err <= 1e-6 * scale:
                failures.append(f"{key}: final jets differ from the reference "
                                f"by {err:.3e} (state scale {scale:.3g})")
            if layout == "unified":
                expected = np.asarray(ref[name]["final_momenta"]).reshape(-1)
                got = traj["states"][-1, 2 * k * n:]
                err = float(np.max(np.abs(got - expected)))
                if not err <= 1e-6 * (1.0 + float(np.max(np.abs(expected)))):
                    failures.append(f"{key}: final momenta differ from the "
                                    f"reference by {err:.3e}")
        energy, momenta = energy_and_momenta(traj, ref[name]["texts"])
        drift = float(np.max(np.abs(energy - energy[0])))
        if not drift <= 10 * tol * (1.0 + abs(energy[0])):
            failures.append(f"{key}: energy drift {drift:.3e} above 10x the "
                            f"tolerance")
        if layout == "unified":
            recorded = traj["states"][:, 2 * k * n:].T.reshape(n, k, -1)
            residual = float(np.max(np.abs(recorded - momenta)))
            if not residual <= 10 * tol * (1.0 + float(np.max(np.abs(momenta)))):
                failures.append(f"{key}: constraint residual {residual:.3e} "
                                f"above 10x the tolerance")
    return failures


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc))
    return str(path)


def perturbed(om, traj):
    """A copy of a trajectory moved off its equations (dof 1 jets)."""
    k = traj.k
    states = np.array(traj.states)
    for i, column in enumerate(sine_jet(traj.grid, 2 * k)):
        states[:, i] += column
    return om.Trajectory(traj.grid, states, traj.layout, traj.k, traj.n,
                         dict(traj.meta))


class CliWorkload:
    """A workload whose pass runs ``self.commands`` through ``cli.main``."""

    def run_pass(self):
        out = {}
        for key, argv in self.commands.items():
            try:
                out[key] = capture_cli(self.cli.main, argv)
            except Exception as err:  # a raising call fails the pass
                out[key] = (None, repr(err))
        return out


class Verify(CliWorkload):
    """``ostromech verify``, ``action-check`` and ``unified-check`` run
    through ``cli.main`` on inputs written in set-up."""

    name = "verify"

    def setup(self, om, workdir, seed):
        from ostromech import cli
        self.cli = cli
        d = Path(workdir)
        pu_spec = roster.demo_spec("pais_uhlenbeck")
        nl3_spec = roster.nl3_spec(seed)
        pu = _write_json(d / "pais_uhlenbeck.json", pu_spec)
        nl3 = _write_json(d / "nl3.json", nl3_spec)
        beam = _write_json(d / "coupled_beam.json",
                           roster.demo_spec("coupled_beam"))

        ds = om.derive(om.build_system(pu_spec))
        jet = om.JetPoint(0.0, np.array([roster.PU_COS_JET]))
        start = om.UnifiedPoint(jet, om.legendre_map(ds, jet))
        steps = roster.PU_VERIFY_POINTS - 1
        pu_traj = om.integrate_unified(ds, start, roster.PU_SPAN, method="rk4",
                                       step=roster.PU_SPAN / steps)
        ds = om.derive(om.build_system(nl3_spec))
        jet = om.JetPoint(0.0, np.array(roster.nl3_init(seed)))
        nl3_traj = om.integrate(ds, jet, roster.NL3_VERIFY_SPAN, rtol=roster.TOL,
                                atol=roster.TOL, max_step=NL3_MAX_STEP)
        files = {}
        for name, traj in (("pu_unified", pu_traj), ("nl3_jet", nl3_traj)):
            files[name] = str(d / f"{name}.csv")
            om.save_trajectory_csv(traj, files[name])
            files[name + "_perturbed"] = str(d / f"{name}_perturbed.csv")
            om.save_trajectory_csv(perturbed(om, traj), files[name + "_perturbed"])

        interval = [0.0, math.pi]
        cos_path = _write_json(d / "cos_path.json", {
            "basis": "fourier", "coefficients": [[0.0, 1.0, 0.0]],
            "interval": interval})
        # cos 3t is not a solution of PU, so this path is not stationary
        off_path = _write_json(d / "off_path.json", {
            "basis": "fourier",
            "coefficients": [[0.0, 1.0, 0.0, 0.0, 0.0, 0.1]],
            "interval": interval})
        s = str(seed)
        count = str(roster.UNIFIED_CHECK_POINTS)
        self.commands = {
            "verify/pu": ["verify", pu, "--traj", files["pu_unified"]],
            "verify/pu_perturbed": ["verify", pu, "--traj",
                                    files["pu_unified_perturbed"]],
            "verify/nl3": ["verify", nl3, "--traj", files["nl3_jet"]],
            "verify/nl3_perturbed": ["verify", nl3, "--traj",
                                     files["nl3_jet_perturbed"]],
            "action/cos": ["action-check", pu, "--path", cos_path, "--seed", s],
            "action/off": ["action-check", pu, "--path", off_path, "--seed", s],
            "unified/nl3": ["unified-check", nl3, "--random", count, "--seed", s],
            "unified/coupled_beam": ["unified-check", beam, "--random", count,
                                     "--seed", s],
        }

    def check(self, outputs, ref):
        return check_verify(outputs)


def check_verify(outputs):
    failures = []
    reports = {}
    for key, (code, text) in outputs.items():
        try:
            reports[key] = json.loads(text)
        except ValueError:
            failures.append(f"{key}: exit {code}, no JSON report ({text[:200]!r})")
            continue
        expect_pass = not key.endswith(("_perturbed", "/off"))
        # unified-check reports all_on_constraint where the others say passed
        verdict = reports[key].get("passed", reports[key].get("all_on_constraint"))
        if verdict is not expect_pass or code != (0 if expect_pass else 1):
            failures.append(f"{key}: verdict {verdict} with exit {code}, "
                            f"expected {'pass' if expect_pass else 'fail'}")
    for key in ("verify/pu_perturbed", "verify/nl3_perturbed"):
        failed_checks = reports.get(key, {}).get("failed_checks", [])
        if key in reports and "el_residual" not in failed_checks:
            failures.append(f"{key}: the Euler-Lagrange check did not catch the "
                            f"perturbation")
    for key in ("action/cos", "action/off"):
        report = reports.get(key)
        if report is None:
            continue
        s_l, s_c = report["action_lagrangian"], report["action_cartan"]
        if not abs(s_l - s_c) <= 1e-9 * (1.0 + abs(s_l)):
            failures.append(f"{key}: Lagrangian action {s_l!r} and Cartan "
                            f"action {s_c!r} disagree")
    report = reports.get("action/cos")
    if report is not None and not abs(report["action_lagrangian"]) <= 1e-9:
        # the integrand along cos t is 5/2 cos 2t, whose integral on [0, pi] is 0
        failures.append(f"action/cos: action {report['action_lagrangian']!r}, "
                        f"expected 0")
    for key in ("unified/nl3", "unified/coupled_beam"):
        report = reports.get(key)
        if report is None:
            continue
        for point in report["points"]:
            scale = 1.0 + max(abs(v) for v in point["explicit_field"])
            if not point["max_field_difference"] <= 1e-9 * scale:
                failures.append(f"{key}: solved and explicit fields differ by "
                                f"{point['max_field_difference']:.3e}")
                break
        if not report["max_kernel_residual"] <= 1e-10:
            failures.append(f"{key}: kernel residual "
                            f"{report['max_kernel_residual']:.3e} above 1e-10")
    return failures


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


class Derive(CliWorkload):
    """``ostromech derive`` through ``cli.main`` over a roster of growing
    symbolic size.  Every call re-derives, as each CLI call does."""

    name = "derive"

    def setup(self, om, workdir, seed):
        from ostromech import cli
        self.cli = cli
        self.commands = {}
        for spec in roster.derive_specs(seed):
            path = _write_json(Path(workdir) / f"{spec['name']}.json", spec)
            self.commands[spec["name"]] = ["derive", path, "--seed", str(seed)]

    def check(self, outputs, ref):
        return check_derive(outputs, ref)


def check_derive(outputs, ref):
    failures = []
    for key, (code, text) in outputs.items():
        try:
            report = json.loads(text)
        except ValueError:
            failures.append(f"{key}: exit {code}, no JSON report ({text[:200]!r})")
            continue
        regular = report["regularity"]["regular"]
        if key == "degenerate":
            if regular or not report["singular_warning"]:
                failures.append(f"{key}: a degenerate system was not refused")
        elif not regular or report["singular_warning"]:
            failures.append(f"{key}: a regular system was reported singular")
        k, n = report["order"], report["dofs"]
        for point, want in zip(ref[key]["points"], ref[key]["values"]):
            q = point["q"]
            names = dict(MATH_NAMES, t=point["t"])
            names.update(jet_names(k, n, {(a, i): q[a][i] for a in range(n)
                                          for i in range(2 * k + 1)}))
            got = {
                "el": [eval_text(e, names) for e in report["euler_lagrange"]],
                "momenta": [[eval_text(p, names) for p in row]
                            for row in report["momenta"]],
                "hessian": [[eval_text(w, names) for w in row]
                            for row in report["hessian"]],
                "hessian_det": eval_text(report["hessian_det"], names),
            }
            for what in ("el", "momenta", "hessian"):
                if np.shape(got[what]) != np.shape(want[what]) or \
                        not _rel_close(got[what], want[what], 1e-9):
                    failures.append(f"{key}: {what} differs from the sympy "
                                    f"derivation at t={point['t']:.3f}")
            det = float(np.linalg.det(np.array(want["hessian"])))
            if not _rel_close(got["hessian_det"], det, 1e-9):
                failures.append(f"{key}: hessian_det {got['hessian_det']!r} is "
                                f"not det W = {det!r}")
    return failures


WORKLOADS = {w.name: w for w in (Integrate, Verify, Derive)}
