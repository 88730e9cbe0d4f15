"""Premultisymplectic structure and dynamics on the unified space.

The unified space of a k-th order system with n dofs has dimension
3kn + 1 with coordinates ordered time-first, then jets dof-major
(q_0^1 .. q_{2k-1}^1, q_0^2, ...), then momenta dof-major
(p_1^0 .. p_1^{k-1}, p_2^0, ...).

With H = -L + sum p_A^i q_{i+1}^A the closed two-form is

    Omega = sum dq_i^A ^ dp_A^i + dH ^ dt,

whose matrix has the +1/-1 pairing blocks between q_i and p^i (levels
i < k) and carries the partial derivatives of H in the dt row and column.
A vector field X with dt-component 1 (the gauge used throughout) that is
a semispray and annihilates Omega on the momentum constraint has

    X = d/dt + q_{i+1}^A d/dq_i^A + F_{2k-1}^A d/dq_{2k-1}^A
        + G_A^i d/dp_A^i,
    G_A^0 = dL/dq_0^A,      G_A^i = dL/dq_i^A - p_A^{i-1},
    (-1)^k W_AB F_{2k-1}^B + (reduced Euler-Lagrange terms) = 0,

equivalently G_A^i = -dH/dq_i^A and q_{i+1}^A = dH/dp_A^i, the sign
convention this package uses for the momentum equations throughout.

Two independent routes to X are provided: :func:`solve_unified_vf`
assembles and solves the linear system built from the numeric two-form
matrix plus the tangency rows, while :func:`explicit_semispray` evaluates
the closed-form components.  They must agree at regular on-constraint
points; the solver route is the one that would reveal a sign or ordering
defect in the matrix assembly.  The closed form is written once, in
:func:`_unified_field`, which is also the right-hand side of both
integrators.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import (
    OffConstraintError,
    SingularHessianError,
    ValidationError,
)
from .legendre import DerivedSystem, _regular_inverse, _values
from .systems import UnifiedPoint, _coordinates, _index, unified_bindings

__all__ = [
    "unified_coordinates", "TwoFormMatrix",
    "SemisprayVector", "coupling", "hamiltonian_section_p",
    "omega_r_matrix", "constraint_residuals", "constraint_tolerance",
    "explicit_semispray", "solve_unified_vf", "kernel_check", "KernelReport",
]

logger = logging.getLogger("ostromech.unified")

# condition number above which the vector-field solve logs a warning
_CONDITION_WARN = 1e12


def unified_coordinates(k: int, n: int):
    """Coordinates of the unified space in canonical order."""
    return list(_coordinates(n, 2 * k, k))


def _check_point(ds: DerivedSystem, up: UnifiedPoint):
    k, n = ds.k, ds.n
    if up.jet.n != n or up.jet.orders != 2 * k or up.momenta.shape != (n, k):
        raise ValidationError(
            f"point does not match the system: expected jets {(n, 2 * k)} "
            f"and momenta {(n, k)}, got jets {up.jet.q.shape} and momenta "
            f"{up.momenta.shape}")


@dataclass(frozen=True)
class TwoFormMatrix:
    """Numeric matrix of the unified two-form at a point.

    ``entries[i, j]`` is Omega applied to the i-th and j-th coordinate
    directions; the matrix is exactly antisymmetric by construction.
    """

    entries: np.ndarray
    coords: tuple

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def entry(self, row: ex.VarRef, col: ex.VarRef) -> float:
        return float(self.entries[self.coords.index(row),
                                  self.coords.index(col)])


@dataclass(frozen=True)
class SemisprayVector:
    """A vector field value at a point of the unified space.

    Components follow the canonical coordinate ordering; the time
    component is the transversality gauge and equals 1 for every solved
    field.  ``condition`` reports the condition number of the linear
    system when the vector came from the solver route.
    """

    components: np.ndarray
    coords: tuple
    condition: float = 0.0

    def __post_init__(self):
        components = np.asarray(self.components, dtype=float)
        components.flags.writeable = False
        object.__setattr__(self, "components", components)

    @property
    def time_component(self) -> float:
        return float(self.components[0])

    def component(self, ref: ex.VarRef) -> float:
        return float(self.components[self.coords.index(ref)])


def coupling(up: UnifiedPoint) -> float:
    """The pairing function p + sum p_A^i q_{i+1}^A at an extended point."""
    if up.p_ext is None:
        raise ValidationError("coupling needs the extended momentum coordinate")
    n, k = up.momenta.shape
    if up.jet.orders < k + 1:
        raise ValidationError("jet point must carry orders up to k")
    total = up.p_ext
    for a in range(n):
        for i in range(k):
            total += up.momenta[a, i] * up.jet.q[a, i + 1]
    return float(total)


def hamiltonian_section_p(ds: DerivedSystem, up: UnifiedPoint) -> float:
    """Extended momentum selected by the Hamiltonian section, p = -H.

    Substituting this value makes :func:`coupling` equal the Lagrangian at
    the point, which is the defining property of the section.
    """
    _check_point(ds, up)
    return -ds.hamiltonian.evaluate(unified_bindings(up))


def omega_r_matrix(ds: DerivedSystem, up: UnifiedPoint) -> TwoFormMatrix:
    """Numeric two-form matrix at a point."""
    _check_point(ds, up)
    k, n = ds.k, ds.n
    index = _index(n, 2 * k, k)
    env = unified_bindings(up)
    dim = 3 * k * n + 1
    m = np.zeros((dim, dim))
    for a in range(1, n + 1):
        for i in range(k):
            r, c = index[ex.jet(a, i)], index[ex.momentum(a, i)]
            m[r, c] += 1.0
            m[c, r] -= 1.0
    rows = [index[ref] for ref in ds.hamiltonian_partials]
    values = _values(list(ds.hamiltonian_partials.values()), env)
    m[rows, 0] += values
    m[0, rows] -= values
    return TwoFormMatrix(m, _coordinates(n, 2 * k, k))


def constraint_tolerance(up: UnifiedPoint) -> float:
    """Scale-aware tolerance for membership in the constraint manifold."""
    scale = float(np.max(np.abs(up.momenta))) if up.momenta.size else 0.0
    return 1e-8 * (1.0 + scale)


def constraint_residuals(ds: DerivedSystem, up: UnifiedPoint):
    """Residuals of the k-level momentum constraint chain.

    Level 1 compares p^{k-1} with dL/dq_k; each deeper level compares the
    next lower momentum with its closed-form value on jets, down to level
    k which fixes p^0.  Returns a list of arrays, one per level, each of
    length n.
    """
    _check_point(ds, up)
    residuals = up.momenta - _values(ds.momenta, unified_bindings(up))
    return [residuals[:, i] for i in range(ds.k - 1, -1, -1)]


def _constraint_check(ds: DerivedSystem, up: UnifiedPoint, require=None):
    """The one membership test of the constraint manifold: the constraint
    residuals of a point, the tolerance their worst absolute value is held
    to and the verdict, on the manifold only when ``worst <= tolerance``
    and both are finite.  With ``require``, the name of the point in the
    message, a point off the manifold raises :class:`OffConstraintError`."""
    residuals = constraint_residuals(ds, up)
    worst = float(np.max(np.abs(residuals)))
    tolerance = constraint_tolerance(up)
    on = bool(np.isfinite(tolerance) and worst <= tolerance)
    if require and not on:
        raise OffConstraintError(
            f"{require} violates the momentum constraints (residual "
            f"{worst:.3e} > tolerance {tolerance:.3e})", residuals=residuals)
    return residuals, tolerance, on


def explicit_semispray(ds: DerivedSystem, up: UnifiedPoint) -> SemisprayVector:
    """Closed-form components of the unified vector field at a point.

    Evaluates the coordinate formulas directly: the jet components shift
    orders upward, the top jet component solves the Euler-Lagrange linear
    system, and the momentum components are dL/dq_0 and
    dL/dq_i - p^{i-1}.  No constraint membership is checked here; off the
    constraint manifold the result is simply not a solution of the field
    equation.
    """
    _check_point(ds, up)
    field = _unified_field(ds)
    return SemisprayVector([1.0, *field(up.t, up.to_state())],
                           _coordinates(ds.n, 2 * ds.k, ds.k))


def _unified_field(ds: DerivedSystem):
    """The unified vector field as a map (t, flat state) -> d(state)/dt.

    The state layout is :func:`unified_coordinates` without time, and the
    state binds those coordinates in order, so a 2kn jet state gets the
    jet components only and a 3kn unified state also gets the momentum
    components G^0 = dL/dq_0 and G^i = dL/dq_i - p^{i-1}.  A singular
    Hessian raises :class:`SingularHessianError` with the state attached.

    The Hessian, the reduced Euler-Lagrange values and the partials
    dL/dq_i (i < k) come from one kernel over (t, jets) built by
    :func:`expressions.compile_kernel` on first use; the field is cached
    on ``ds``, so a system compiles once.  Where the kernel raises (a
    domain error, or ``**`` overflowing on Python floats), the call
    solves with :meth:`DerivedSystem.acceleration` and, for a unified
    state, tree-walks the partials, and so returns the tree walker's
    values or raises its exact :class:`DomainEvalError`.
    """
    cached = getattr(ds, "_unified_field", None)
    if cached is not None:
        return cached
    k, n = ds.k, ds.n
    coords = unified_coordinates(k, n)
    jets = 2 * k * n
    nn = n * n
    exprs = ([w for row in ds.hessian for w in row] + ds.el_reduced
             + [g for row in ds.lagrangian_partials for g in row[:k]])
    kernel = ex.compile_kernel(exprs, coords[:jets + 1], name=ds.model.name)

    def field(t, y):
        try:
            values = kernel(t, *y[:jets].tolist())
        except (ArithmeticError, ValueError, TypeError):
            values = None
            env = dict(zip(coords, (t, *y)))
        try:
            accel = (ds.acceleration(env) if values is None else
                     ds._solve_top_jets(np.array(values[:nn]).reshape(n, n),
                                        values[nn:nn + n], t))
        except SingularHessianError as err:
            err.state = np.array(y)
            raise
        ydot = np.empty(len(y))
        # each jet order moves to the next one; the top order of every dof
        # is then overwritten by its solved value
        ydot[:jets - 1] = y[1:jets]
        ydot[2 * k - 1:jets:2 * k] = accel
        if len(y) == jets:
            return ydot
        partials = (values[nn + n:] if values is not None else
                    [g.evaluate(env) for g in exprs[nn + n:]])
        for a in range(n):
            base, g = jets + a * k, a * k
            ydot[base] = partials[g]
            for i in range(1, k):
                ydot[base + i] = partials[g + i] - y[base + i - 1]
        return ydot

    ds._unified_field = field
    return field


def solve_unified_vf(ds: DerivedSystem, up: UnifiedPoint) -> SemisprayVector:
    """Solve for the unified vector field at an on-constraint point.

    Assembles a square linear system in the 3kn unknown components (the
    time component is fixed to 1 by the gauge): the semispray conditions
    on the jet components below the top order, the tangency rows
    (-1)^k W F = -(reduced Euler-Lagrange), and the momentum rows of the
    numeric two-form matrix.  The system is solved by pivoted LU; a
    condition number above 1e12 logs a warning and is reported on the
    result.

    Raises :class:`OffConstraintError` when the point violates the
    constraint chain beyond the scale-aware tolerance and
    :class:`SingularHessianError` when the Hessian is singular at the
    point, in which case no numeric answer is produced.
    """
    _constraint_check(ds, up, require="point")
    k, n = ds.k, ds.n

    env = unified_bindings(up)
    w = ds.hessian_value(env)
    if _regular_inverse(w)[0] is None:
        raise SingularHessianError(
            "Hessian is singular, the unified vector field is not "
            "determined", time=up.t)

    index = _index(n, 2 * k, k)
    omega = omega_r_matrix(ds, up).entries
    size = 3 * k * n
    a = np.zeros((size, size))
    b = np.zeros(size)
    row = 0
    # semispray rows: jet components below the top order shift upward
    for dof in range(1, n + 1):
        for i in range(2 * k - 1):
            a[row, index[ex.jet(dof, i)] - 1] = 1.0
            b[row] = up.jet.q[dof - 1, i + 1]
            row += 1
    # tangency rows determine the top jet components
    sign = -1.0 if k % 2 else 1.0
    reduced = _values(ds.el_reduced, env)
    for dof in range(n):
        for other in range(n):
            a[row, index[ex.jet(other + 1, 2 * k - 1)] - 1] = sign * w[dof, other]
        b[row] = -reduced[dof]
        row += 1
    # momentum rows of the two-form matrix (time column moves to the rhs)
    for dof in range(1, n + 1):
        for i in range(k):
            r = index[ex.jet(dof, i)]
            a[row, :] = omega[r, 1:]
            b[row] = -omega[r, 0]
            row += 1

    solution = np.linalg.solve(a, b)
    condition = float(np.linalg.cond(a))
    if condition > _CONDITION_WARN:
        logger.warning(
            "unified vector-field system is ill-conditioned (cond=%.3e)",
            condition)
    x = np.concatenate([[1.0], solution])
    return SemisprayVector(x, _coordinates(n, 2 * k, k), condition=condition)


@dataclass(frozen=True)
class KernelReport:
    """Contraction residual and transversality of a candidate field.

    ``residual`` is the max-norm of the two-form matrix applied to the
    vector; ``transversality`` is the dt-component.  Reported as numbers
    only, with no pass or fail verdict: directions inside the kernel give
    residual 0 with transversality 0, solutions give residual ~0 with
    transversality 1.
    """

    residual: float
    transversality: float
    contraction: np.ndarray


def kernel_check(ds: DerivedSystem, up: UnifiedPoint, field) -> KernelReport:
    """Contract the two-form with a vector and report the residual."""
    x = field.components if isinstance(field, SemisprayVector) else \
        np.asarray(field, dtype=float)
    omega = omega_r_matrix(ds, up).entries
    if x.shape != (omega.shape[0],):
        raise ValidationError(
            f"vector length {x.shape} does not match the unified dimension "
            f"{omega.shape[0]}")
    contraction = omega @ x
    return KernelReport(
        residual=float(np.max(np.abs(contraction))),
        transversality=float(x[0]),
        contraction=contraction)
