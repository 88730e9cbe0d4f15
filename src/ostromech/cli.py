"""Command-line front end.

Loads system descriptions from JSON, runs derivations, simulations and
verifications, and emits machine-readable JSON reports (trajectories go
to CSV).  Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 checks failed, 2 input or validation error,
3 runtime singularity.  The ``OSTRO_LOG`` environment variable (error,
warn, info, debug) controls diagnostic verbosity on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from . import expressions as ex
from . import dynamics, legendre, unified, variational
from .errors import (
    ConvergenceError,
    OstromechError,
    SingularHessianError,
    ValidationError,
)
from .systems import JetPoint, UnifiedPoint, build_system

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3

# default coefficient count of the action-check --traj fit
_FIT_COEFFS = 12

# derive prints hessian_det up to this many dofs; the text of the nested
# row expansion grows like n!: about 2.3 MB at 8 dofs, some 20 MB at 9
_DET_TEXT_MAX_DOFS = 8

logger = logging.getLogger("ostromech.cli")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

# the checks of verify: the flag --NAME-tol, its default, the report
# fields it bounds and its help; the defaults sit between the residuals of
# a tolerance-1e-9 adaptive run (1e-5 and below, dominated by finite
# differencing) and those of a visibly wrong trajectory (1e-2 and above)
_VERIFY_CHECKS = (
    ("el", "1e-3", ("el_residual",), "Euler-Lagrange residual threshold"),
    ("holonomy", "1e-4", ("holonomy_defect",), "holonomy defect threshold"),
    ("energy", "1e-6", ("energy_drift",),
     "energy drift threshold, autonomous systems only"),
    ("momenta", "1e-3", ("momenta_residual",),
     "momentum-equation residual threshold, unified trajectories only"),
    ("hamilton", "1e-3", ("hamilton_q_residual", "hamilton_p_residual"),
     "Hamilton-form residual threshold, unified trajectories only"),
)


def _configure_logging():
    name = os.environ.get("OSTRO_LOG", "warn").strip().lower()
    logger = logging.getLogger("ostromech")
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.set_name(__name__)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
    for handler in logger.handlers:
        if handler.name == __name__:
            # not setStream, which flushes the old stream, maybe closed now
            handler.stream = sys.stderr
    logger.setLevel(_LOG_LEVELS.get(name, logging.WARNING))


def _jsonable(value):
    """Plain-Python view of a report value, fit for json.dumps."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if np.isfinite(value) else repr(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _rounded(value):
    """Like _jsonable but with floats rounded to 15 significant digits,
    hiding last-ulp accumulation noise in human-facing summaries."""
    value = _jsonable(value)
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def _emit(args, report, to_out=True):
    """Print the report as JSON, to --out when given and applicable."""
    text = json.dumps(_jsonable(report), indent=2 if args.pretty else None)
    destination = getattr(args, "out", None) if to_out else None
    if destination:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_json(path, what):
    """The JSON object held by the file ``path``; ``what`` names the file
    in the error messages."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"cannot read {what} {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"{what} {path!r} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path!r} must hold a JSON object")
    return doc


def _load_model(path):
    return build_system(_load_json(path, "spec"))


def _parse_floats(text, what, count=None, layout=""):
    """The numbers of the comma-separated value ``text`` of option
    ``what``, every one finite and, with ``count``, exactly that many;
    ``layout`` says in the count error what the values are."""
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as err:
        raise ValidationError(f"{what} must be comma-separated numbers, "
                              f"got {text!r}") from err
    if count is not None and len(values) != count:
        raise ValidationError(
            f"{what} needs {count} values{layout}, got {len(values)}")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} must be finite numbers, got {text!r}")
    return values


def _parse_domain(text):
    if text is None:
        return None
    try:
        lo, hi = _parse_floats(text, "--domain/--box", 2)
        if hi > lo and np.isfinite(hi - lo):
            return (lo, hi)
    except ValidationError:
        pass
    raise ValidationError(f"--domain/--box must be 'lo,hi' with lo < hi "
                          f"and a finite hi - lo, got {text!r}")


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def cmd_derive(args):
    model = _load_model(args.spec)
    ds = legendre.derive(model)
    regularity = legendre.regularity_report(
        ds, domain=_parse_domain(args.domain), samples=args.samples,
        seed=args.seed)
    n = model.n
    report = {
        "system": model.name,
        "order": model.k,
        "dofs": n,
        "lagrangian": ex.to_text(model.lagrangian, n),
        "momenta": [[ex.to_text(p, n) for p in per_dof]
                    for per_dof in ds.momenta],
        "euler_lagrange": [ex.to_text(e, n) for e in ds.el],
        "hessian": [[ex.to_text(entry, n) for entry in row]
                    for row in ds.hessian],
        "hessian_det": _hessian_det_text(ds),
        "hamiltonian": ex.to_text(ds.hamiltonian, n),
        "regularity": regularity.to_dict(),
        "singular_warning": not regularity.regular,
    }
    _emit(args, report)
    return EXIT_OK


def _hessian_det_text(ds):
    """The symbolic det W, or None above _DET_TEXT_MAX_DOFS dofs, where the
    sampled determinant of the regularity report stands alone."""
    if ds.n > _DET_TEXT_MAX_DOFS:
        logger.warning("hessian_det omitted: %d dofs exceed the limit of %d",
                       ds.n, _DET_TEXT_MAX_DOFS)
        return None
    return ex.to_text(legendre.hessian_det_expr(ds), ds.n)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    model = _load_model(args.spec)
    ds = legendre.derive(model)
    k, n = model.k, model.n
    values = _parse_floats(args.init, "--init")
    kwargs = dict(method=args.method, step=args.step, rtol=args.tol,
                  atol=args.tol,
                  max_step=np.inf if args.max_step is None else args.max_step)
    if args.unified:
        init = UnifiedPoint.from_state(args.t0, values, k, n)
        traj = dynamics.integrate_unified(ds, init, args.t_end, **kwargs)
    else:
        init = JetPoint.from_state(args.t0, values, k, n)
        traj = dynamics.integrate(ds, init, args.t_end, **kwargs)
    if args.out:
        dynamics.save_trajectory_csv(traj, args.out)
    verification = dynamics.verify_trajectory(ds, traj)

    meta = traj.meta
    summary = {
        "system": model.name,
        "layout": traj.layout,
        "method": meta["method"],
        "tolerance": meta["tolerance"],
        "t0": args.t0,
        "t_end": args.t_end,
        "steps": meta["steps"],
        "rejected": meta["rejected"],
        "final_time": float(traj.grid[-1]),
        "final_state": list(traj.states[-1]),
        "trajectory_file": args.out,
        "verification": verification.to_dict(),
    }
    if traj.layout == "unified":
        summary["max_constraint_residual"] = meta["max_constraint_residual"]
        summary["constraint_drift_warning"] = meta["constraint_drift_warning"]
    _emit(args, _rounded(summary), to_out=False)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args):
    model = _load_model(args.spec)
    ds = legendre.derive(model)
    traj = dynamics.load_trajectory_csv(args.traj, k=model.k, n=model.n)
    report = dynamics.verify_trajectory(ds, traj, tolerance=args.tol)

    thresholds = {field: getattr(args, f"{name}_tol")
                  for name, _, fields, _ in _VERIFY_CHECKS
                  for field in fields}
    values = report.to_dict()
    failed = [name for name, limit in thresholds.items()
              if values.get(name) is not None and not values[name] <= limit]
    out = {
        "system": model.name,
        "trajectory_file": args.traj,
        "layout": traj.layout,
        "n_points": int(traj.grid.size),
        "report": values,
        "thresholds": thresholds,
        "failed_checks": failed,
        "passed": not failed,
    }
    _emit(args, out)
    return EXIT_OK if not failed else EXIT_CHECKS_FAILED


# ---------------------------------------------------------------------------
# action-check
# ---------------------------------------------------------------------------


def _load_path(path_file):
    doc = _load_json(path_file, "path")
    for field in ("basis", "coefficients", "interval"):
        if field not in doc:
            raise ValidationError(f"path document lacks the {field!r} field")
    interval = doc["interval"]
    if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
        raise ValidationError("path interval must be a [start, end] pair")
    try:
        coefficients = np.asarray(doc["coefficients"], dtype=float)
        interval = (float(interval[0]), float(interval[1]))
    except (TypeError, ValueError) as err:
        raise ValidationError("path coefficients and interval ends must be "
                              f"numbers, one row per dof: {err}") from None
    return variational.PathRepresentation(doc["basis"], coefficients,
                                          interval)


def cmd_action_check(args):
    if args.variations < 1:
        raise ValidationError("--variations must be at least 1")
    model = _load_model(args.spec)
    ds = legendre.derive(model)

    source = {}
    fit_finite = True
    if args.path:
        path = _load_path(args.path)
        source["path_file"] = args.path
    else:
        traj = dynamics.load_trajectory_csv(args.traj, k=model.k, n=model.n)
        coeffs = args.coeffs
        if coeffs is None:
            coeffs = min(_FIT_COEFFS, traj.grid.size)
        fit = variational.fit_path(traj, args.basis, coeffs)
        path = fit.path
        source["trajectory_file"] = args.traj
        source["fit"] = fit.to_dict()
        # a non-finite residual means the recorded jets are not a path
        fit_finite = bool(np.all(np.isfinite(
            [fit.max_residual, *fit.derivative_residuals])))

    stat = variational.stationarity_check(
        ds, path, n_variations=args.variations, tol=args.tol, seed=args.seed,
        quad_points=args.quad_points)
    s_lagrangian = stat.action
    s_cartan = variational.discrete_action(ds, path, "cartan",
                                           args.quad_points)
    report = {
        "system": model.name,
        "source": source,
        "interval": list(path.interval),
        "action_lagrangian": s_lagrangian,
        "action_cartan": s_cartan,
        "action_difference": abs(s_lagrangian - s_cartan),
        "stationarity": stat.to_dict(),
        "passed": stat.stationary and fit_finite,
    }
    _emit(args, report)
    return EXIT_OK if report["passed"] else EXIT_CHECKS_FAILED


# ---------------------------------------------------------------------------
# unified-check
# ---------------------------------------------------------------------------


def _point_entry(ds, up):
    residuals, tolerance, on_constraint = unified._constraint_check(ds, up)

    section_p = float(unified.hamiltonian_section_p(ds, up))
    lifted = up if up.p_ext is not None else UnifiedPoint(
        up.jet, up.momenta, p_ext=section_p)

    entry = {
        "t": up.t,
        "on_constraint": on_constraint,
        "constraint_residuals": [list(level) for level in residuals],
        "constraint_tolerance": tolerance,
        "hamiltonian": -section_p,
        "section_p": section_p,
        "coupling": unified.coupling(lifted),
    }
    explicit = unified.explicit_semispray(ds, up)
    entry["explicit_field"] = list(explicit.components)
    entry["solved_field"] = None
    field = explicit
    if on_constraint:
        field = unified.solve_unified_vf(ds, up)
        entry["solved_field"] = list(field.components)
        entry["max_field_difference"] = float(
            np.max(np.abs(field.components - explicit.components)))
    kernel = unified.kernel_check(ds, up, field)
    entry["kernel_residual"] = kernel.residual
    entry["transversality"] = kernel.transversality
    if on_constraint:
        entry["condition"] = field.condition
    return entry


def cmd_unified_check(args):
    if args.random is not None and args.random < 1:
        raise ValidationError("--random must be at least 1")
    model = _load_model(args.spec)
    ds = legendre.derive(model)
    k, n = model.k, model.n

    points = []
    if args.point is not None:
        values = _parse_floats(
            args.point, "--point", 1 + 3 * k * n + (1 if args.extended else 0),
            f" (t, {2 * k * n} jets, {k * n} momenta"
            + (", p)" if args.extended else ")"))
        t = values[0]
        state = np.asarray(values[1:1 + 3 * k * n])
        p_ext = values[-1] if args.extended else None
        points.append(UnifiedPoint.from_state(t, state, k, n, p_ext))
    else:
        box = _parse_domain(args.box) or ex.DEFAULT_SAMPLE_RANGE
        rng = np.random.default_rng(args.seed)
        for _ in range(args.random):
            t = float(rng.uniform(*box))
            jets = rng.uniform(box[0], box[1], size=(n, 2 * k))
            momenta = legendre.legendre_map(ds, JetPoint(t, jets))
            points.append(UnifiedPoint(JetPoint(t, jets), momenta))

    entries = [_point_entry(ds, up) for up in points]

    on_constraint = all(entry["on_constraint"] for entry in entries)
    diffs = [entry["max_field_difference"] for entry in entries
             if entry.get("max_field_difference") is not None]
    kernels = [entry["kernel_residual"] for entry in entries]
    report = {
        "system": model.name,
        "n_points": len(entries),
        "all_on_constraint": on_constraint,
        "max_field_difference": max(diffs) if diffs else None,
        "max_kernel_residual": max(kernels) if kernels else None,
        "points": entries,
    }
    if args.random:
        report["seed"] = args.seed
    _emit(args, report)
    return EXIT_OK if on_constraint else EXIT_CHECKS_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42,
                        help="seed for every random draw (default 42)")
    common.add_argument("--pretty", action="store_true",
                        help="indent JSON output")
    common.add_argument("--out", metavar="FILE",
                        help="write the primary output here (the report "
                             "JSON; for simulate, the trajectory CSV)")

    parser = argparse.ArgumentParser(
        prog="ostromech",
        description="Derive, simulate and verify higher-order Lagrangian, "
                    "Hamiltonian and unified dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", parents=[common],
                       help="derive momenta, equations of motion, Hessian "
                            "and Hamiltonian from a system spec")
    p.add_argument("spec", help="system spec (JSON)")
    p.add_argument("--samples", type=int, default=100,
                   help="sample count for the regularity report (default 100)")
    p.add_argument("--domain", metavar="LO,HI",
                   help="sampling box for the regularity report "
                        "(default -2,2)")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the dynamics and report a verified "
                            "summary")
    p.add_argument("spec", help="system spec (JSON)")
    p.add_argument("--init", required=True, metavar="V1,V2,...",
                   help="initial state: 2kn jet values, or 3kn with "
                        "--unified (dof-major, ascending order)")
    p.add_argument("--t0", type=float, default=0.0,
                   help="initial time (default 0)")
    p.add_argument("--t-end", type=float, required=True, dest="t_end",
                   help="final time")
    p.add_argument("--method", choices=("rk45", "rk4"), default="rk45",
                   help="integrator (default rk45)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="adaptive error tolerance (default 1e-9)")
    p.add_argument("--step", type=float,
                   help="fixed step size (rk4 only)")
    p.add_argument("--max-step", type=float, dest="max_step",
                   help="cap on the adaptive step size")
    p.add_argument("--unified", action="store_true",
                   help="integrate on the unified jet-momentum space "
                        "(initial point must satisfy the constraints)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common],
                       help="check a recorded trajectory against the "
                            "equations it should satisfy")
    p.add_argument("spec", help="system spec (JSON)")
    p.add_argument("--traj", required=True, metavar="FILE",
                   help="trajectory CSV")
    p.add_argument("--tol", type=float,
                   help="integrator tolerance used for the holonomy "
                        "verdict (default: none recorded in a CSV)")
    for name, default, _, text in _VERIFY_CHECKS:
        # argparse converts a string default with the option's type
        p.add_argument(f"--{name}-tol", type=float, default=default,
                       help=f"{text} (default {default})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("action-check", parents=[common],
                       help="probe stationarity of the action along a path")
    p.add_argument("spec", help="system spec (JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--path", metavar="FILE",
                       help="path document (JSON: basis, coefficients, "
                            "interval)")
    group.add_argument("--traj", metavar="FILE",
                       help="trajectory CSV to fit a path through")
    p.add_argument("--basis", choices=("monomial", "fourier"),
                   default="monomial",
                   help="fit basis for --traj (default monomial)")
    p.add_argument("--coeffs", type=int,
                   help=f"fit coefficient count for --traj (default "
                        f"{_FIT_COEFFS}, or the grid point count if smaller)")
    p.add_argument("--variations", type=int, default=20,
                   help="number of random bump variations (default 20)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="stationarity tolerance on max|dS|/(1+|S|) "
                        "(default 1e-6)")
    p.add_argument("--quad-points", type=int, default=512, dest="quad_points",
                   help="Simpson panel count (default 512)")
    p.set_defaults(func=cmd_action_check)

    p = sub.add_parser("unified-check", parents=[common],
                       help="verify the unified field equation at points of "
                            "the jet-momentum space")
    p.add_argument("spec", help="system spec (JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", metavar="T,JETS...,MOMENTA...",
                       help="one point: t, the 2kn jets, the kn momenta "
                            "(and p with --extended)")
    group.add_argument("--random", type=int, metavar="N",
                       help="check N seeded points placed exactly on the "
                            "constraint manifold")
    p.add_argument("--box", metavar="LO,HI",
                   help="sampling box for --random (default -2,2)")
    p.add_argument("--extended", action="store_true",
                   help="the point carries a trailing extended momentum "
                        "coordinate")
    p.set_defaults(func=cmd_unified_check)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularHessianError as err:
        last = getattr(err, "last_good_time", None)
        if last is not None:
            print(f"error: {err} (last good time t={last!r})",
                  file=sys.stderr)
        else:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_SINGULAR
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SINGULAR
    except OstromechError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
