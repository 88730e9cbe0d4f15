"""Numerical integration and verification of trajectories.

Two integrators are provided behind one interface: the classic fixed-step
fourth-order Runge-Kutta scheme and an adaptive Runge-Kutta-Fehlberg 4(5)
pair with local extrapolation (the fifth-order solution is propagated, the
embedded fourth-order solution drives the step controller).  State vectors
are the dof-major flattened jets, with the momenta appended for unified
integration.

Verification differentiates the recorded time series with finite
differences built from Fornberg weights on sliding stencils, fourth-order
accurate at every grid point including the ends; one vectorized recurrence
gives the weights of the whole grid.  It checks the recorded states against
the equations of motion, the momentum equations in Hamiltonian form, energy
conservation, and holonomy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expressions as ex
from .errors import (
    ConvergenceError,
    DimensionError,
    SingularHessianError,
    TrajectoryFormatError,
    ValidationError,
)
from .legendre import DerivedSystem, _values, legendre_map
from .systems import (
    JetPoint, UnifiedPoint, _bindings, _coordinates, _pairing, _readonly,
    _split_state, jet_bindings)
from .unified import _check_point, _constraint_check

__all__ = [
    "Trajectory", "integrate", "integrate_unified", "lagrangian_rhs",
    "ostrogradsky_energy", "energy_series", "verify_trajectory",
    "VerificationReport", "save_trajectory_csv", "load_trajectory_csv",
    "fd_derivative",
]

logger = logging.getLogger("ostromech.dynamics")

_DEFAULT_RTOL = 1e-9
_DEFAULT_ATOL = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Sampled states on a finite, strictly increasing time grid.

    ``layout`` is ``"jet"`` (states are flattened jets) or ``"unified"``
    (momenta appended).  ``meta`` records the integrator, its tolerances
    and its counters ``rhs_calls``, ``smallest_step`` and ``largest_step``
    (over accepted steps); ``meta["tolerance"]`` is the scalar used by
    downstream tolerance-relative checks (max of atol and rtol for the
    adaptive method, the fourth power of the step for fixed-step RK4).
    """

    grid: np.ndarray
    states: np.ndarray
    layout: str
    k: int
    n: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = _readonly(self.grid)
        states = _readonly(self.states)
        if grid.ndim != 1 or states.ndim != 2 or states.shape[0] != grid.size:
            raise DimensionError("trajectory needs matching grid and state rows")
        if (grid.size < 2 or not np.isfinite(grid).all()
                or np.any(np.diff(grid) <= 0)):
            raise ValidationError(
                "trajectory grid must be finite and strictly increasing")
        expected = {"jet": 2 * self.k * self.n,
                    "unified": 3 * self.k * self.n}.get(self.layout)
        if expected is None:
            raise ValidationError(f"unknown trajectory layout {self.layout!r}")
        if states.shape[1] != expected:
            raise DimensionError(
                f"{self.layout} states must have width {expected}, got "
                f"{states.shape[1]}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "states", states)

    def jet_point(self, row: int) -> JetPoint:
        jets = self.states[row, :2 * self.k * self.n]
        return JetPoint.from_state(self.grid[row], jets, self.k, self.n)

    def unified_point(self, row: int) -> UnifiedPoint:
        if self.layout != "unified":
            raise ValidationError("trajectory has no momenta")
        return UnifiedPoint.from_state(self.grid[row], self.states[row],
                                       self.k, self.n)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def lagrangian_rhs(ds: DerivedSystem, t: float, state) -> np.ndarray:
    """Time derivative of a flattened jet state.

    Each jet order advances to its successor; the top order comes from the
    Euler-Lagrange linear solve against the Hessian.  Raises
    :class:`SingularHessianError` at points where that solve is not
    possible.
    """
    y = np.asarray(state, dtype=float)
    if y.shape != (2 * ds.k * ds.n,):
        raise DimensionError(
            f"jet state must have length {2 * ds.k * ds.n}, got {y.shape}")
    return ds._field(float(t), y)


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

# Runge-Kutta-Fehlberg 4(5) tableau: the stage times c as floats, the
# lower-triangular A as one array, the fifth-order weights b5 and the
# error weights b5 - b4 of the embedded fourth-order solution
_RKF_C = (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_RKF_A = np.array((
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.25, 0.0, 0.0, 0.0, 0.0, 0.0),
    (3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0, 0.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0, 0.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0, 0.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0, 0.0),
))
_RKF_B5 = np.array((16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0,
                    -9.0 / 50.0, 2.0 / 55.0))
_RKF_B4 = np.array((25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0,
                    -0.2, 0.0))
_RKF_E = _RKF_B5 - _RKF_B4


def _run_rk4(f, t0, y0, t_end, step, max_steps):
    span = t_end - t0
    # a step count that overflows to inf cannot be rounded, and is refused
    count = span / step
    nsteps = max(1, round(count)) if count < np.inf else count
    if nsteps > max_steps:
        raise ValidationError(
            f"fixed step {step} needs {nsteps} steps, above the limit "
            f"{max_steps}")
    h = span / nsteps
    grid = t0 + h * np.arange(nsteps + 1)
    grid[-1] = t_end
    states = np.empty((nsteps + 1, np.size(y0)))
    y = np.array(y0, dtype=float)
    states[0] = y
    for j in range(nsteps):
        t = float(grid[j])
        try:
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
        except SingularHessianError as err:
            err.last_good_time = t
            raise
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[j + 1] = y
    meta = {"method": "rk4", "step": h, "steps": nsteps, "rejected": 0,
            "rhs_calls": 4 * nsteps, "smallest_step": h, "largest_step": h,
            "tolerance": h ** 4}
    return grid, states, meta


def _run_rkf45(f, t0, y0, t_end, rtol, atol, max_step, max_steps):
    """Adaptive RKF 4(5) steps from (t0, y0) to t_end.  The stages of a
    step fill the rows of one array, and each stage input, the solution
    and the error estimate are one coefficient row times them
    (``hA[s, :s] @ stages[:s]``), zero coefficients included, so a
    non-finite stage rejects the step.  The error estimate is
    h (b5 - b4) @ stages, one product, so it carries no cancellation
    between two O(1) solutions.  A step shorter than four units in the
    last place of the larger end of the span is an underflow: every time
    of the span resolves it, so a step never leaves t where it was."""
    t = t0
    y = np.array(y0, dtype=float)
    grid = [t]
    states = [y]
    h = min((t_end - t0) / 100.0, max_step)
    accepted = rejected = 0
    smallest, largest = np.inf, 0.0
    stages = np.empty((6, y.size))
    scale = np.empty(y.size)
    # h A is formed in one buffer per step; the views of its rows and of
    # the stages they weigh are taken once
    ha = np.empty_like(_RKF_A)
    weighted = [(ha[s, :s], stages[:s], _RKF_C[s]) for s in range(1, 6)]
    abs_y = np.abs(y)
    stretch = 1.3
    floor = 4.0 * math.ulp(max(abs(t0), abs(t_end)))
    while t < t_end:
        h = min(h, max_step)
        # land exactly on t_end, stretching up to 30% so the final step
        # never degenerates into a sliver (sliver grids ruin the finite
        # differencing done by verification); past max_step, up to the
        # rounding in t, it is split into two equal steps
        last = t + stretch * h >= t_end
        if last:
            h = t_end - t
            if h > max_step * (1.0 + 1e-9):
                h *= 0.5
                last = False
        if h < floor:
            raise ConvergenceError(
                f"adaptive step size underflow at t={t!r}")
        np.multiply(_RKF_A, h, out=ha)
        try:
            stages[0] = f(t, y)
            for s, (row, prior, c) in enumerate(weighted, start=1):
                stage_input = row @ prior
                stage_input += y
                stages[s] = f(t + c * h, stage_input)
        except SingularHessianError as err:
            err.last_good_time = t
            raise
        y5 = _RKF_B5 @ stages
        y5 *= h
        y5 += y
        # max |err| / (atol + rtol max(|y|, |y5|)), in place
        err = _RKF_E @ stages
        err *= h
        np.abs(err, out=err)
        abs_y5 = np.abs(y5)
        np.maximum(abs_y, abs_y5, out=scale)
        scale *= rtol
        scale += atol
        err /= scale
        ratio = float(err.max())
        if ratio <= 1.0:
            t = t_end if last else t + h
            y, abs_y = y5, abs_y5
            grid.append(t)
            states.append(y)
            accepted += 1
            smallest, largest = min(smallest, h), max(largest, h)
            stretch = 1.3
        else:
            rejected += 1
            # a shrunk step may still reach t_end within the stretch, which
            # would retry the rejected final step unchanged forever
            stretch = 1.0
        if accepted + rejected > max_steps:
            raise ConvergenceError(
                f"adaptive integrator exceeded {max_steps} steps")
        factor = 5.0 if ratio == 0.0 else 0.8 * ratio ** -0.2
        h *= min(5.0, max(0.2, factor))
    meta = {"method": "rk45", "rtol": rtol, "atol": atol,
            "steps": accepted, "rejected": rejected,
            "rhs_calls": 6 * (accepted + rejected), "smallest_step": smallest,
            "largest_step": largest, "max_step": max_step,
            "tolerance": max(rtol, atol)}
    return np.array(grid), np.array(states), meta


def _integrate(f, t0, y0, t_end, method, step, rtol, atol, max_step,
               max_steps):
    # non-finite when t0 or t_end is, or when the difference overflows
    if not np.isfinite(float(t_end) - float(t0)):
        raise ValidationError(f"the time span must be finite, got "
                              f"t0={float(t0)}, t_end={float(t_end)}")
    if t_end <= t0:
        raise ValidationError("t_end must lie after the initial time")
    if method not in ("rk4", "rk45"):
        raise ValidationError(f"unknown integration method {method!r}")
    # rk4 reads none of them, but a meaningless value is refused under
    # either method
    if not (atol > 0 and rtol >= 0 and max_step > 0):
        raise ValidationError(
            f"{method} integration needs atol > 0, rtol >= 0 and "
            f"max_step > 0, got atol={atol}, rtol={rtol}, "
            f"max_step={max_step}")
    # a stage may overflow to inf or NaN, which rk45 rejects as it rejects
    # any too-large error, so a library caller that turns RuntimeWarning
    # into an error must still get the rejection and not an exception
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "rk4":
            if step is None or not step > 0:
                raise ValidationError("rk4 integration needs a positive step")
            return _run_rk4(f, t0, y0, t_end, step, max_steps)
        return _run_rkf45(f, t0, y0, t_end, rtol, atol, max_step, max_steps)


def integrate(ds: DerivedSystem, init: JetPoint, t_end: float,
              method: str = "rk45", step: float | None = None,
              rtol: float = _DEFAULT_RTOL, atol: float = _DEFAULT_ATOL,
              max_step: float = np.inf,
              max_steps: int = 1_000_000) -> Trajectory:
    """Integrate the Euler-Lagrange dynamics from a full jet point.

    The initial point must carry orders 0 .. 2k-1.  Regularity of the
    Hessian is enforced at every evaluation point; a singular Hessian
    aborts with the failing time and state attached to the error.
    """
    k, n = ds.k, ds.n
    if init.n != n or init.orders != 2 * k:
        raise DimensionError(
            f"initial jet point must have shape {(n, 2 * k)}, got "
            f"{init.q.shape}")
    grid, states, meta = _integrate(
        ds._field, init.t, init.to_state(), t_end, method, step,
        rtol, atol, max_step, max_steps)
    return Trajectory(grid, states, "jet", k, n, meta)


def integrate_unified(ds: DerivedSystem, init: UnifiedPoint, t_end: float,
                      method: str = "rk45", step: float | None = None,
                      rtol: float = _DEFAULT_RTOL, atol: float = _DEFAULT_ATOL,
                      max_step: float = np.inf,
                      max_steps: int = 1_000_000) -> Trajectory:
    """Integrate the unified dynamics from an on-constraint point.

    The initial point must satisfy the momentum constraint chain within
    its scale-aware tolerance, otherwise :class:`OffConstraintError` is
    raised.  After integration the constraint residual along the whole
    trajectory is measured; drift beyond 10x the integrator tolerance is
    logged and flagged in ``meta["constraint_drift_warning"]``.
    """
    k, n = ds.k, ds.n
    _check_point(ds, init)
    _constraint_check(init.momenta[None], legendre_map(ds, init.jet)[None],
                      require="initial point")
    grid, states, meta = _integrate(
        ds._field, init.t, init.to_state(), t_end, method, step,
        rtol, atol, max_step, max_steps)
    traj = Trajectory(grid, states, "unified", k, n, meta)

    # the constraint residuals of the grid points, stacked points first
    _, own, env = _grid_bindings(traj)
    drift = float(np.max(np.abs(_constraint_check(
        np.moveaxis(own, -1, 0),
        np.moveaxis(_values(ds.momenta, env, grid.shape), -1, 0))[0])))
    meta["max_constraint_residual"] = drift
    threshold = 10.0 * meta["tolerance"]
    meta["constraint_drift_warning"] = not drift <= threshold
    if meta["constraint_drift_warning"]:
        logger.warning(
            "unified trajectory drifted off the constraints "
            "(residual %.3e > %.3e)", drift, threshold)
    return traj


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def _energy(ds, env, jets, momenta):
    """E = sum p_A^i q_{i+1}^A - L with ``momenta`` the values of
    ``ds.momenta`` under ``env``, at a point or over a grid."""
    return _pairing(momenta, jets) - ds.lagrangian_value(env)


def ostrogradsky_energy(ds: DerivedSystem, jp: JetPoint) -> float:
    """E = sum p_A^i q_{i+1}^A - L with momenta from the Legendre map."""
    momenta = legendre_map(ds, jp)
    return float(_energy(ds, jet_bindings(jp), jp.q, momenta))


def _grid_bindings(traj):
    """Column views jets[a, i] and momenta[a, i] of a trajectory, each a
    series over the grid, and the bindings of the whole grid."""
    jets, momenta = _split_state(traj.states.T, traj.k, traj.n)
    return jets, momenta, _bindings(traj.grid, jets, momenta)


def energy_series(ds: DerivedSystem, traj: Trajectory) -> np.ndarray:
    """Ostrogradsky energy at every grid point (via the Legendre map)."""
    jets, _, env = _grid_bindings(traj)
    return _energy(ds, env, jets, _values(ds.momenta, env, traj.grid.shape))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def _fornberg_weights(z, x, m):
    """Weights for derivatives 0..m at every z[p] on the nodes x[p].

    Shapes: z (npts,), x (npts, width), result (npts, width, m + 1)."""
    npts, width = x.shape
    c = np.zeros((npts, width, m + 1))
    c1 = 1.0
    c4 = x[:, 0] - z
    c[:, 0, 0] = 1.0
    for i in range(1, width):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[:, i] - z
        for j in range(i):
            c3 = x[:, i] - x[:, j]
            c2 = c2 * c3
            if j == i - 1:
                for v in range(mn, 0, -1):
                    c[:, i, v] = c1 * (v * c[:, i - 1, v - 1]
                                       - c5 * c[:, i - 1, v]) / c2
                c[:, i, 0] = -c1 * c5 * c[:, i - 1, 0] / c2
            for v in range(mn, 0, -1):
                c[:, j, v] = (c4 * c[:, j, v] - v * c[:, j, v - 1]) / c3
            c[:, j, 0] = c4 * c[:, j, 0] / c3
        c1 = c2
    return c


def fd_derivative(grid, values, order: int = 1) -> np.ndarray:
    """Differentiate sampled values on an arbitrary strictly increasing grid.

    ``values`` is one series over the grid or a stack of them, the grid
    along the last axis.  Uses sliding Fornberg stencils of order + 4
    points, which gives fourth-order accuracy at interior and boundary
    points alike (the boundary stencils are one-sided but keep the same
    width).  The weights of every grid point come from one vectorized
    recurrence, once for the whole stack.
    """
    return _differences(grid, values, order)[0]


def _differences(grid, values, order):
    """:func:`fd_derivative` of ``values``, and the weights (npts, width)
    of each grid point's stencil that gave it."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    npts = grid.size
    width = min(order + 4, npts)
    if width <= order:
        raise ValidationError(
            f"grid of {npts} points is too short for derivative order {order}")
    if values.shape[-1:] != (npts,):
        raise DimensionError(
            f"values of shape {values.shape} are not series over a grid of "
            f"{npts} points")
    starts = np.clip(np.arange(npts) - width // 2, 0, npts - width)
    idx = starts[:, None] + np.arange(width)
    # the recurrence multiplies node differences, whose products underflow
    # on very short steps; it runs on the nodes times 2^-e, e the binary
    # exponent of the largest step, and the weights are scaled back by
    # 2^(-e order) in place, both exact, so a grid of normal steps keeps
    # its weights to the bit
    e = int(np.frexp(np.max(np.diff(grid), initial=0.0))[1])
    w = _fornberg_weights(np.ldexp(grid, -e), np.ldexp(grid[idx], -e),
                          order)[:, None, :, order]
    np.ldexp(w, -e * order, out=w)
    # one dot product per point, series by series: a sum over the stencil
    # or a single matrix product for all points adds in another order and
    # moves the last bits
    rows = values.reshape(-1, npts)
    return np.array([np.matmul(w, row[idx][:, :, None])[:, 0, 0]
                     for row in rows]).reshape(values.shape), w[:, 0]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Direct numerical checks of a recorded trajectory.

    All residuals are maxima over the grid.  ``el_residual`` measures the
    Euler-Lagrange defect in the paper's form dp^0/dt = dL/dq_0: the
    closed-form momentum p^0 on the recorded jets, differenced once.  On
    holonomic jets, which the holonomy check judges, that is the
    Euler-Lagrange expression; and it reads no vector field, since the
    closed-form momenta are checked against the backward recursion.
    ``hamilton_q_residual`` and ``hamilton_p_residual`` are the residuals
    of dq_i/dt = dH/dp^i and dp^i/dt = -dH/dq_i (unified trajectories
    only, None otherwise), ``momenta_residual`` the momentum equations in
    Lagrangian form.  ``energy_drift`` is None for non-autonomous systems.
    Holonomy passes when every differentiated q_i^A series matches
    q_{i+1}^A within 10x the integrator tolerance plus the truncation
    floor h^4 max|q_{i+5}^A| of its differencing, h the largest step,
    and at least the rounding floor 4 ulp(max|q_i^A|) times the largest
    sum of |w| over the weights of a point's first-difference stencil;
    ``holonomy_tolerance`` is the bound of the column whose defect is the
    largest fraction of its bound.  A grid of fewer than five points gets
    no verdict, and its differences are accurate only to order
    points - 1.
    """

    el_residual: float
    holonomy_defect: float
    holonomy_tolerance: float | None
    holonomy_ok: bool | None
    energy_drift: float | None
    momenta_residual: float | None
    hamilton_q_residual: float | None
    hamilton_p_residual: float | None
    layout: str
    n_points: int

    def to_dict(self):
        return asdict(self)


def verify_trajectory(ds: DerivedSystem, traj: Trajectory,
                      tolerance: float | None = None) -> VerificationReport:
    """Check a trajectory directly against the equations it should satisfy.

    ``tolerance`` overrides the integrator tolerance recorded in the
    trajectory metadata for the holonomy verdict; when neither is
    available the holonomy defect is reported without a verdict.  A
    given ``tolerance`` must be non-negative; inf bounds nothing.
    """
    k, n = ds.k, ds.n
    if traj.k != k or traj.n != n:
        raise DimensionError("trajectory dimensions do not match the system")
    # a NaN or negative bound would pass or fail every column alike
    if tolerance is not None and not tolerance >= 0:
        raise ValidationError(
            f"tolerance must be non-negative, got {tolerance}")
    grid = traj.grid
    jets, momenta, env = _grid_bindings(traj)
    partials = _values(ds.lagrangian_partials, env, grid.shape)
    top = 2 * k - 1
    tol = tolerance if tolerance is not None else traj.meta.get("tolerance")

    # one first-order difference of the closed-form p^0, of every jet and
    # of the recorded momenta (none in the jet layout); the energy reads
    # the same closed-form momenta
    closed = _values(ds.momenta, env, grid.shape)
    rates, weights = _differences(grid, np.concatenate(
        [closed[:, :1], jets, momenta], axis=1), 1)

    # Euler-Lagrange defect in the form dp^0/dt = dL/dq_0; one maximum
    # over every dof, so a NaN residual is not dropped
    el_max = float(np.max(np.abs(partials[:, 0] - rates[:, 0])))

    # holonomy: differentiated q_i must reproduce q_{i+1}
    qdots = rates[:, 1:top + 1]
    defects = np.max(np.abs(qdots - jets[:, 1:]), axis=-1)
    holo_max = float(np.max(defects))
    holo_tol = holo_ok = None
    # column q_i cannot be judged sharper than the truncation floor
    # h^4 max|q_{i+5}| of its differencing, which is fourth order only on
    # five points or more
    if tol is not None and grid.size >= 5:
        h4 = float(np.max(np.diff(grid))) ** 4
        # q_5 .. q_{top+4}: recorded up to the top order, differenced above;
        # on very short steps the weights of the higher differences
        # overflow, so over finite samples a floor that is not finite
        # bounds nothing
        with np.errstate(over="ignore", invalid="ignore"):
            higher = [jets[:, i] for i in range(5, top + 1)] + [
                rates[:, top + 1] if order == 1
                else fd_derivative(grid, jets[:, top], order)
                for order in range(max(1, 5 - top), 5)]
            floors = h4 * np.stack(
                [np.max(np.abs(q), axis=-1) for q in higher], axis=1)
        if np.all(np.isfinite(jets)):
            floors[~np.isfinite(floors)] = 0.0
        tols = 10.0 * float(tol) + floors
        # nor sharper than the rounding of its samples: a few ulp of
        # max|q_i| through the largest sum of |w| of a point's stencil;
        # fmax keeps the bound where that floor is NaN
        tols = np.fmax(tols, 4.0 * np.spacing(
            np.max(np.abs(jets[:, :top]), axis=-1))
            * float(np.max(np.abs(weights).sum(axis=-1))))
        # a bound of zero gives a ratio of inf or NaN, not an exception
        with np.errstate(divide="ignore", invalid="ignore"):
            holo_tol = float(tols.flat[np.argmax(defects / tols)])
        holo_ok = bool(np.all(defects <= tols))

    energy_drift = None
    if ds.model.autonomous:
        energies = _energy(ds, env, jets, closed)
        energy_drift = float(np.max(np.abs(energies - energies[0])))

    momenta_residual = hq_residual = hp_residual = None
    if traj.layout == "unified":
        pdots = rates[:, top + 2:]
        # dp^0/dt = dL/dq_0 and dp^i/dt = dL/dq_i - p^{i-1}
        lower = np.concatenate([np.zeros_like(momenta[:, :1]),
                                momenta[:, :-1]], axis=1)
        momenta_residual = float(np.max(np.abs(
            pdots - (partials - lower))))
        # Hamilton form: dp^i/dt + dH/dq_i = 0 and dq_i/dt - dH/dp^i = 0
        zero = ex.Const(0.0)
        dh_dq, dh_dp = _values(
            [[[ds.hamiltonian_partials.get(coordinate(a, i), zero)
               for i in range(k)] for a in range(1, n + 1)]
             for coordinate in (ex.jet, ex.momentum)], env, grid.shape)
        hp_residual = float(np.max(np.abs(pdots + dh_dq)))
        hq_residual = float(np.max(np.abs(qdots[:, :k] - dh_dp)))

    return VerificationReport(
        el_residual=el_max,
        holonomy_defect=holo_max,
        holonomy_tolerance=holo_tol,
        holonomy_ok=holo_ok,
        energy_drift=energy_drift,
        momenta_residual=momenta_residual,
        hamilton_q_residual=hq_residual,
        hamilton_p_residual=hp_residual,
        layout=traj.layout,
        n_points=int(grid.size),
    )


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------


def _column_names(k, n, layout):
    coords = _coordinates(n, 2 * k, k if layout == "unified" else 0)
    return ["t", *(f"{'q' if ref.kind == 'jet' else 'p'}_{ref.order}_{ref.dof}"
                   for ref in coords[1:])]


def save_trajectory_csv(traj: Trajectory, path):
    """Write a trajectory as CSV with 17-significant-digit floats, the
    text of ``numpy.savetxt`` with ``fmt="%.17g"``.  A name ending in .gz
    is not compressed."""
    # not numpy.savetxt, whose local class leaves a cycle behind each call
    columns = _column_names(traj.k, traj.n, traj.layout)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for values in np.column_stack([traj.grid, traj.states]).tolist():
            fh.write(row % tuple(values))


def load_trajectory_csv(path, k: int | None = None,
                        n: int | None = None) -> Trajectory:
    """Read a trajectory CSV written by :func:`save_trajectory_csv`.

    The layout and dimensions are recovered from the header and, when
    ``k``/``n`` are given, validated against them.  Blank lines are
    skipped.  The rows are parsed by one :func:`numpy.loadtxt` call, so a
    cell is a number when NumPy reads it as one (Python's ``float`` also
    takes ``1_0`` and non-ASCII digits, NumPy does not).  Any malformed
    header, ragged row, or non-numeric cell raises
    :class:`TrajectoryFormatError`, whose message names the first bad line
    by its line number in the file, and so does a file that cannot be
    read.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            # the non-blank lines, with their line numbers in the file
            lines = [(lineno, line.rstrip("\n"))
                     for lineno, line in enumerate(fh, start=1)
                     if line.strip()]
    except (OSError, UnicodeDecodeError) as err:
        raise TrajectoryFormatError(
            f"{path}: cannot read trajectory file: {err}") from err
    if not lines:
        raise TrajectoryFormatError(f"{path}: empty trajectory file")
    header = lines[0][1].split(",")
    jet_cols = [c for c in header if c.startswith("q_")]
    mom_cols = [c for c in header if c.startswith("p_")]
    layout = "unified" if mom_cols else "jet"
    try:
        orders = 1 + max(int(c.split("_")[1]) for c in jet_cols)
        dofs = max(int(c.split("_")[2]) for c in jet_cols)
    except (ValueError, IndexError):
        raise TrajectoryFormatError(f"{path}: malformed header {header!r}") from None
    if orders % 2:
        raise TrajectoryFormatError(
            f"{path}: jet columns cover {orders} orders, expected an even count")
    file_k, file_n = orders // 2, dofs
    if (k is not None and k != file_k) or (n is not None and n != file_n):
        raise TrajectoryFormatError(
            f"{path}: file is for k={file_k}, n={file_n} but the system has "
            f"k={k}, n={n}")
    if header != _column_names(file_k, file_n, layout):
        raise TrajectoryFormatError(
            f"{path}: header does not match the expected column layout")
    width = len(header)
    rows = lines[1:]
    data = _parsed([line for _, line in rows]) if rows else None
    if rows and (data is None or data.shape[1] != width):
        # a line scan, only to name the first bad line
        for lineno, line in rows:
            cells = line.split(",")
            if len(cells) != width:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: expected {width} columns, got "
                    f"{len(cells)}")
            if _parsed([line]) is None:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: non-numeric cell")
    if len(rows) < 2:
        raise TrajectoryFormatError(f"{path}: a trajectory needs at least two rows")
    return Trajectory(data[:, 0], data[:, 1:], layout, file_k, file_n,
                      meta={"source": str(path), "tolerance": None})


def _parsed(lines):
    """The rows of comma-separated numbers ``lines`` as a 2-d float array,
    or None where :func:`numpy.loadtxt` cannot read a cell or the rows are
    ragged."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
