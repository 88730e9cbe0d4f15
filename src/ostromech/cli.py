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
import functools
import json
import logging
import math
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


# the range of each count option, and the bound of the cost of action-check,
# --variations x --quad-points; the largest run of one option or of the
# product on demos/systems/harmonic.json, the others at their defaults,
# ends within about a minute, and a seed costs nothing whatever its size
_COUNTS = {"seed": (0, math.inf), "samples": (1, 10**7),
           "variations": (1, 5 * 10**4), "random": (1, 10**5),
           "quad_points": (2, 10**5)}
_ACTION_WORK = 2 * 10**7


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
    """The report fit for json.dumps: every report is built from plain
    Python values, and only a non-finite float, which JSON cannot hold,
    is replaced, by its text ("nan", "inf" or "-inf").  It copies the
    whole report, so :func:`_emit` calls it only for a report that holds
    such a float."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def _rounded(value):
    """A plain report with its floats rounded to 15 significant digits,
    hiding last-ulp accumulation noise in human-facing summaries."""
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def _emit(args, report, to_out=True):
    """Print the report as JSON, to --out when given and applicable."""
    indent = 2 if args.pretty else None
    try:
        text = json.dumps(report, indent=indent, allow_nan=False)
    except ValueError:
        text = json.dumps(_jsonable(report), indent=indent)
    destination = getattr(args, "out", None) if to_out else None
    # two writes, not one of text + "\n", which would copy the text
    if destination:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


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


def cmd_derive(args, ds):
    regularity = legendre.regularity_report(
        ds, domain=_parse_domain(args.domain), samples=args.samples,
        seed=args.seed)
    n = ds.n
    report = {
        "system": ds.model.name,
        "order": ds.k,
        "dofs": n,
        "lagrangian": ex.to_text(ds.model.lagrangian, n),
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


def cmd_simulate(args, ds):
    k, n = ds.k, ds.n
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
        "system": ds.model.name,
        "layout": traj.layout,
        "method": meta["method"],
        "tolerance": meta["tolerance"],
        "t0": args.t0,
        "t_end": args.t_end,
        "steps": meta["steps"],
        "rejected": meta["rejected"],
        "rhs_calls": meta["rhs_calls"],
        "smallest_step": meta["smallest_step"],
        "largest_step": meta["largest_step"],
        "final_time": float(traj.grid[-1]),
        "final_state": traj.states[-1].tolist(),
        "trajectory_file": args.out,
        "verification": verification.to_dict(),
    }
    if traj.layout == "unified":
        summary["max_constraint_residual"] = meta["max_constraint_residual"]
        summary["constraint_drift_warning"] = meta["constraint_drift_warning"]
    _emit(args, _rounded(summary), to_out=False)
    # rk45 rejects a non-finite step, but under rk4 a non-finite component
    # stays non-finite, so the final state tells
    if not np.all(np.isfinite(traj.states[-1])):
        print("warning: non-finite final_state", file=sys.stderr)
        return EXIT_CHECKS_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args, ds):
    traj = dynamics.load_trajectory_csv(args.traj, k=ds.k, n=ds.n)
    report = dynamics.verify_trajectory(ds, traj, tolerance=args.tol)

    thresholds = {field: getattr(args, f"{name}_tol")
                  for name, _, fields, _ in _VERIFY_CHECKS
                  for field in fields}
    values = report.to_dict()
    failed = [name for name, limit in thresholds.items()
              if values.get(name) is not None and not values[name] <= limit]
    out = {
        "system": ds.model.name,
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


def cmd_action_check(args, ds):
    source = {}
    finite = True
    if args.path:
        path = _load_path(args.path)
        source["path_file"] = args.path
    else:
        traj = dynamics.load_trajectory_csv(args.traj, k=ds.k, n=ds.n)
        path = variational.HermitePath(traj)
        source["trajectory_file"] = args.traj
        # a non-finite recorded jet is not a path, whether or not a
        # quadrature node falls on its intervals
        finite = bool(np.all(np.isfinite(path.coefficients)))
        if not finite:
            print("warning: non-finite jets in the trajectory",
                  file=sys.stderr)

    stat = variational.stationarity_check(
        ds, path, n_variations=args.variations, tol=args.tol, seed=args.seed,
        quad_points=args.quad_points)
    s_lagrangian = stat.action
    s_cartan = variational.discrete_action(ds, path, "cartan",
                                           args.quad_points)
    report = {
        "system": ds.model.name,
        "source": source,
        "interval": list(path.interval),
        "action_lagrangian": s_lagrangian,
        "action_cartan": s_cartan,
        "action_difference": abs(s_lagrangian - s_cartan),
        "stationarity": stat.to_dict(),
        "passed": stat.stationary and finite,
    }
    _emit(args, report)
    return EXIT_OK if report["passed"] else EXIT_CHECKS_FAILED


# ---------------------------------------------------------------------------
# unified-check
# ---------------------------------------------------------------------------


def cmd_unified_check(args, ds):
    k, n = ds.k, ds.n

    if args.point is not None:
        values = _parse_floats(
            args.point, "--point", 1 + 3 * k * n + (1 if args.extended else 0),
            f" (t, {2 * k * n} jets, {k * n} momenta"
            + (", p)" if args.extended else ")"))
        entries = unified.check_states(
            ds, values[:1], np.array([values[1:1 + 3 * k * n]]),
            values[-1:] if args.extended else None)
    else:
        box = _parse_domain(args.box) or ex.DEFAULT_SAMPLE_RANGE
        # one draw of every point's time and jets, in the order of the
        # stream that a scalar and an array draw per point would take
        draws = np.random.default_rng(args.seed).uniform(
            box[0], box[1], (args.random, 1 + 2 * k * n))
        times, jets = draws[:, 0].tolist(), draws[:, 1:]
        # the states: the drawn jets, then the momenta of the Legendre map
        states = np.empty((args.random, 3 * k * n))
        states[:, :2 * k * n] = jets
        momenta = legendre._momenta_kernel(ds)
        for state, t, row in zip(states, times, jets.tolist()):
            state[2 * k * n:] = momenta(t, *row)
        entries = unified.check_states(ds, times, states)

    # the entries hold plain floats, and lists of them or None for fields
    non_finite = [(i, bad) for i, entry in enumerate(entries) if (bad := [
        name for name in ("hamiltonian", "section_p", "coupling")
        if not math.isfinite(entry[name])] + [
        name for name in ("explicit_field", "solved_field")
        if not all(map(math.isfinite, entry[name] or ()))])]
    for i, bad in non_finite:
        print(f"warning: point {i} has non-finite {', '.join(bad)}",
              file=sys.stderr)

    on_constraint = all(entry["on_constraint"] for entry in entries)
    diffs = [entry["max_field_difference"] for entry in entries
             if entry.get("max_field_difference") is not None]
    kernels = [entry["kernel_residual"] for entry in entries]
    report = {
        "system": ds.model.name,
        "n_points": len(entries),
        "all_on_constraint": on_constraint,
        "max_field_difference": float(np.max(diffs)) if diffs else None,
        "max_kernel_residual": float(np.max(kernels)) if kernels else None,
        "points": entries,
    }
    if args.random:
        report["seed"] = args.seed
    _emit(args, report)
    return EXIT_OK if on_constraint and not non_finite else EXIT_CHECKS_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argument parser, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42,
                        help="seed for every random draw (default 42)")
    common.add_argument("--pretty", action="store_true",
                        help="indent JSON output")
    common.add_argument("--out", metavar="FILE",
                        help="write the primary output here (the report "
                             "JSON; for simulate, the trajectory CSV)")
    # every subcommand reads the system of one spec, which main derives
    common.add_argument("spec", help="system spec (JSON)")

    parser = argparse.ArgumentParser(
        prog="ostromech",
        description="Derive, simulate and verify higher-order Lagrangian, "
                    "Hamiltonian and unified dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", parents=[common],
                       help="derive momenta, equations of motion, Hessian "
                            "and Hamiltonian from a system spec")
    p.add_argument("--samples", type=int, default=100,
                   help="sample count for the regularity report (default 100)")
    p.add_argument("--domain", metavar="LO,HI",
                   help="sampling box for the regularity report "
                        "(default -2,2)")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the dynamics and report a verified "
                            "summary")
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
                   help="adaptive error tolerance (rk45 only, default 1e-9)")
    p.add_argument("--step", type=float,
                   help="fixed step size (rk4 only)")
    p.add_argument("--max-step", type=float, dest="max_step",
                   help="cap on the adaptive step size (rk45 only)")
    p.add_argument("--unified", action="store_true",
                   help="integrate on the unified jet-momentum space "
                        "(initial point must satisfy the constraints)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common],
                       help="check a recorded trajectory against the "
                            "equations it should satisfy")
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
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--path", metavar="FILE",
                       help="path document (JSON: basis, coefficients, "
                            "interval)")
    group.add_argument("--traj", metavar="FILE",
                       help="trajectory CSV, read as the piecewise "
                            "polynomial through its recorded q_0 .. q_k")
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
    args = _build_parser().parse_args(argv)
    # an overflow or an invalid value is reported as inf or NaN, which the
    # checks judge and the reports print, so a NumPy warning on stderr
    # would only repeat it; the caller's NumPy error state is restored
    with np.errstate(all="ignore"):
        try:
            for name, (lo, hi) in _COUNTS.items():
                value = getattr(args, name, None)
                if value is not None and not lo <= value <= hi:
                    limit = (f"at most {hi}" if value > hi else
                             "non-negative" if lo == 0 else f"at least {lo}")
                    raise ValidationError(f"--{name.replace('_', '-')} must "
                                          f"be {limit}, got {value}")
            work = (getattr(args, "variations", 0)
                    * getattr(args, "quad_points", 0))
            if work > _ACTION_WORK:
                raise ValidationError("--variations x --quad-points must be "
                                      f"at most {_ACTION_WORK}, got {work}")
            # a NaN bound fails every comparison and a negative one every
            # check; inf stays "no bound".  simulate's --tol is rk45's
            # error tolerance, which the integrator checks itself
            for name, value in vars(args).items():
                if not name.endswith("tol") or value is None:
                    continue
                flag = f"--{name.replace('_', '-')}"
                if math.isnan(value):
                    raise ValidationError(f"{flag} must be a number, got nan")
                if value < 0 and args.command != "simulate":
                    raise ValidationError(
                        f"{flag} must be non-negative, got {value}")
            ds = legendre.derive(build_system(_load_json(args.spec, "spec")))
            return args.func(args, ds)
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
        except OSError as err:
            # every read raises a ValidationError, so this is an --out write
            print(f"error: cannot write output: {err}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
