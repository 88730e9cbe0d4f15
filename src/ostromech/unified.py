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
defect in the matrix assembly.  The closed form is written once, as the
field ``_field`` of :class:`legendre.DerivedSystem`, which is also the
right-hand side of both integrators.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import (
    OffConstraintError,
    SingularHessianError,
    ValidationError,
)
from .legendre import (DerivedSystem, _momenta_kernel, _regular_inverse,
                       legendre_map)
from .systems import UnifiedPoint, _coordinates, _index, _pairing, _readonly

__all__ = [
    "unified_coordinates", "TwoFormMatrix",
    "SemisprayVector", "coupling", "hamiltonian_section_p",
    "omega_r_matrix", "constraint_residuals", "constraint_tolerance",
    "explicit_semispray", "solve_unified_vf", "kernel_check", "KernelReport",
]

logger = logging.getLogger("ostromech.unified")

# condition number above which the vector-field solve logs a warning
_CONDITION_WARN = 1e12

# check_states solves and contracts the fields of this many points at a
# time; larger blocks gain no time and raise the peak memory
_POINT_BLOCK = 16


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


def _point_family(ds: DerivedSystem):
    """The expressions of the point kernel in the order of its outputs: H,
    the partials of H along every coordinate of :func:`unified_coordinates`
    (zero where H does not depend on it), W row by row and ``el_reduced``."""
    return [ds.hamiltonian,
            *(ds.hamiltonian_partials.get(ref, ex._ZERO)
              for ref in _coordinates(ds.n, 2 * ds.k, ds.k)),
            *(w for row in ds.hessian for w in row), *ds.el_reduced]


def _point_values(ds: DerivedSystem, times, states, explicit=False):
    """The Legendre map's momenta and the values of :func:`_point_family`
    at the points of the times ``times`` (m floats) and the unified states
    ``states`` (m, 3kn), stacked and sliced: the momenta (m, n, k), H (m,),
    the partials of H (m, 3kn + 1), W (m, n, n) and ``el_reduced`` (m, n)
    and, with ``explicit``, the explicit fields (m, 3kn + 1), else None.
    Point by point, in order, each point is evaluated once by the momenta
    kernel, then the point kernel and with ``explicit`` the field, built
    in that order, so the first point that fails raises its error."""
    k, n = ds.k, ds.n
    momenta = _momenta_kernel(ds)
    kernel = ds._kernel("point", lambda: _point_family(ds),
                        _coordinates(n, 2 * k, k))
    rows, m, nk = [], len(states), n * k
    # the time component of every explicit field is 1
    fields = np.ones((m, 3 * k * n + 1)) if explicit else None
    for i, (t, state, values) in enumerate(zip(times, states,
                                               states.tolist())):
        rows.append(momenta(t, *values[:2 * nk]) + kernel(t, *values))
        if explicit:
            fields[i, 1:] = ds._field(t, state)
    rows = np.array(rows, dtype=float)
    h = nk + 2 + 3 * k * n  # W starts here
    return (rows[:, :nk].reshape(m, n, k), rows[:, nk], rows[:, nk + 1:h],
            rows[:, h:h + n * n].reshape(m, n, n), rows[:, h + n * n:],
            fields)


def _one_point(ds: DerivedSystem, up: UnifiedPoint):
    """:func:`_point_values` of the checked point, a one-row stack."""
    _check_point(ds, up)
    return _point_values(ds, [up.t], up.to_state()[None])


def _omegas(k: int, n: int, partials):
    """The two-form matrices of the stacked partials of H ``partials``:
    the +1/-1 pairing blocks and the partials in the dt column and,
    negated, the dt row (whose dt entry is dH/dt - dH/dt, so NaN where
    dH/dt is not finite)."""
    levels, momenta, _, _ = _positions(k, n)
    m = np.zeros((len(partials),) + (3 * k * n + 1,) * 2)
    m[:, levels, momenta] = 1.0
    m[:, momenta, levels] = -1.0
    m[:, :, 0] += partials
    m[:, 0, :] -= partials
    return m


@dataclass(frozen=True)
class TwoFormMatrix:
    """Numeric matrix of the unified two-form at a point.

    ``entries[i, j]`` is Omega applied to the i-th and j-th coordinate
    directions; the matrix is exactly antisymmetric by construction.
    """

    entries: np.ndarray
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", _readonly(self.entries))

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
        object.__setattr__(self, "components", _readonly(self.components))

    @property
    def time_component(self) -> float:
        return float(self.components[0])

    def component(self, ref: ex.VarRef) -> float:
        return float(self.components[self.coords.index(ref)])


def coupling(up: UnifiedPoint) -> float:
    """The pairing function p + sum p_A^i q_{i+1}^A at an extended point."""
    if up.p_ext is None:
        raise ValidationError("coupling needs the extended momentum coordinate")
    if up.jet.orders < up.momenta.shape[1] + 1:
        raise ValidationError("jet point must carry orders up to k")
    return float(_pairing(up.momenta, up.jet.q, start=up.p_ext))


def hamiltonian_section_p(ds: DerivedSystem, up: UnifiedPoint) -> float:
    """Extended momentum selected by the Hamiltonian section, p = -H.

    Substituting this value makes :func:`coupling` equal the Lagrangian at
    the point, which is the defining property of the section.
    """
    return float(-_one_point(ds, up)[1][0])


def omega_r_matrix(ds: DerivedSystem, up: UnifiedPoint) -> TwoFormMatrix:
    """Numeric two-form matrix at a point."""
    return TwoFormMatrix(_omegas(ds.k, ds.n, _one_point(ds, up)[2])[0],
                         _coordinates(ds.n, 2 * ds.k, ds.k))


def constraint_tolerance(up: UnifiedPoint) -> float:
    """Scale-aware tolerance for membership in the constraint manifold."""
    return float(_constraint_check(up.momenta[None], up.momenta[None])[1][0])


def constraint_residuals(ds: DerivedSystem, up: UnifiedPoint):
    """Residuals of the k-level momentum constraint chain.

    Level 1 compares p^{k-1} with dL/dq_k; each deeper level compares the
    next lower momentum with its closed-form value on jets, down to level
    k which fixes p^0.  Returns a list of arrays, one per level, each of
    length n.  Only the momenta of the Legendre map are evaluated.
    """
    _check_point(ds, up)
    return list(_constraint_check(up.momenta[None],
                                  legendre_map(ds, up.jet)[None])[0][0])


def _constraint_check(own, momenta, require=None):
    """The one membership test of the constraint manifold, over a stack of
    own momenta ``own`` (m, n, k) whose jets the Legendre map takes to
    ``momenta`` (m, n, k): the constraint residuals p - (Legendre momenta)
    (m, k, n), level by level, the tolerances 1e-8 * (1 + max |p|) their
    worst absolute values are held to and the verdicts, each point on the
    manifold only when ``worst <= tolerance`` and both are finite, as a
    list.  With ``require``, the name of the point in the message, a point
    off the manifold raises :class:`OffConstraintError`."""
    residuals = (own - momenta)[:, :, ::-1].transpose(0, 2, 1)
    worst = np.max(np.abs(residuals), axis=(1, 2), initial=0.0)
    tolerances = 1e-8 * (1.0 + np.max(np.abs(own), axis=(1, 2), initial=0.0))
    on = (np.isfinite(tolerances) & (worst <= tolerances)).tolist()
    if require and not all(on):
        i = on.index(False)
        raise OffConstraintError(
            f"{require} violates the momentum constraints (residual "
            f"{worst[i]:.3e} > tolerance {tolerances[i]:.3e})",
            residuals=list(residuals[i]))
    return residuals, tolerances, on


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
    return SemisprayVector([1.0, *ds._field(up.t, up.to_state())],
                           _coordinates(ds.n, 2 * ds.k, ds.k))


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
    momenta, _, partials, hessians, reduced, _ = _one_point(ds, up)
    _constraint_check(up.momenta[None], momenta, require="point")
    if _regular_inverse(hessians[0])[0] is None:
        raise SingularHessianError(
            "Hessian is singular, the unified vector field is not "
            "determined", time=up.t)
    fields, conditions = _solved(ds.k, ds.n, up.to_state()[None], hessians,
                                 reduced, _omegas(ds.k, ds.n, partials))
    return SemisprayVector(fields[0], _coordinates(ds.n, 2 * ds.k, ds.k),
                           condition=conditions[0])


@functools.cache
def _positions(k: int, n: int):
    """Positions in :func:`unified_coordinates` that the two-form matrix
    and the solver address, found once per (k, n): the jets q_i^A of the
    levels i < k, their momenta p_A^i, the jets below the top order and
    the top jets q_{2k-1}^A, each dof-major."""
    index = _index(n, 2 * k, k)
    dofs = range(1, n + 1)

    def at(refs):
        return np.array([index[ref] for ref in refs], dtype=int)

    return (at(ex.jet(a, i) for a in dofs for i in range(k)),
            at(ex.momentum(a, i) for a in dofs for i in range(k)),
            at(ex.jet(a, i) for a in dofs for i in range(2 * k - 1)),
            at(ex.jet(a, 2 * k - 1) for a in dofs))


def _solved(k: int, n: int, states, hessians, reduced, omegas):
    """:func:`solve_unified_vf` at points on the constraint manifold whose
    W passed the regularity test, given their stacked states, W,
    ``el_reduced`` values and two-form matrices: the fields
    (m, 3kn + 1) and the condition numbers, a list.  The linear systems,
    their solve and their condition are each formed once over the stacked
    points, and the ill-conditioning warnings keep the point order."""
    levels, _, low, top = _positions(k, n)
    size, m = 3 * k * n, len(states)
    a = np.zeros((m, size, size))
    b = np.zeros((m, size))
    # semispray rows: jet components below the top order shift upward
    # (q_{i+1} is at the state position of q_i's coordinate, t counted)
    semi = len(low)
    a[:, np.arange(semi), low - 1] = 1.0
    b[:, :semi] = states[:, low]
    # tangency rows determine the top jet components
    sign = -1.0 if k % 2 else 1.0
    a[:, semi:semi + n, top - 1] = sign * hessians
    b[:, semi:semi + n] = -reduced
    # momentum rows of the two-form matrix (time column moves to the rhs)
    a[:, semi + n:] = omegas[:, levels, 1:]
    b[:, semi + n:] = -omegas[:, levels, 0]

    solutions = np.linalg.solve(a, b[..., None])[..., 0]
    conditions = np.linalg.cond(a).tolist()
    for condition in conditions:
        if condition > _CONDITION_WARN:
            logger.warning(
                "unified vector-field system is ill-conditioned (cond=%.3e)",
                condition)
    return np.concatenate([np.ones((m, 1)), solutions], axis=1), conditions


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
    omegas = _omegas(ds.k, ds.n, _one_point(ds, up)[2])
    x = field.components if isinstance(field, SemisprayVector) else \
        np.asarray(field, dtype=float)
    if x.shape != omegas.shape[-1:]:
        raise ValidationError(
            f"vector length {x.shape} does not match the unified dimension "
            f"{omegas.shape[-1]}")
    contraction = (omegas @ x[:, None])[0, :, 0]
    return KernelReport(float(np.max(np.abs(contraction))), float(x[0]),
                        contraction)


def check_states(ds: DerivedSystem, times, states, p_ext=None) -> list:
    """The unified-check entry of each point, a dict of plain values.

    The points are read from stacked arrays: ``times``, m floats, the
    unified states ``states`` (m, 3kn), jets then momenta dof-major, and
    ``p_ext``, None or each point's extended momentum or None, where None
    takes the Hamiltonian section's -H.  No point object is built.
    :func:`_point_values` evaluates the points one by one, and a singular
    W raises the explicit field's :class:`SingularHessianError`, so every
    point solved here has passed the one regularity test.  The rest is
    formed once per block of ``_POINT_BLOCK`` points from the stacked
    arrays: the constraint test, the two-form matrices, the solved field
    of the points on the constraint manifold, the contraction of each
    point's field, solved or else explicit, the field differences and the
    couplings; each array becomes plain values with one ``tolist``.
    """
    if p_ext is None:
        p_ext = [None] * len(times)
    return [entry for start in range(0, len(times), _POINT_BLOCK)
            for entry in _check_block(ds, *(
                part[start:start + _POINT_BLOCK]
                for part in (times, states, p_ext)))]


def _check_block(ds: DerivedSystem, times, states, p_ext) -> list:
    k, n = ds.k, ds.n
    momenta, hamiltonians, partials, hessians, reduced, explicit = \
        _point_values(ds, times, states, explicit=True)
    own = states[:, 2 * k * n:].reshape(-1, n, k)
    residuals, tolerances, verdicts = _constraint_check(own, momenta)
    on = [i for i, verdict in enumerate(verdicts) if verdict]
    omegas = _omegas(k, n, partials)
    fields = explicit.copy()
    fields[on], conditions = _solved(k, n, states[on], hessians[on],
                                     reduced[on], omegas[on])
    conditions = dict(zip(on, conditions))
    kernels = np.max(np.abs((omegas @ fields[..., None])[..., 0]),
                     axis=-1).tolist()
    differences = dict(zip(on, np.max(np.abs(fields[on] - explicit[on]),
                                      axis=1).tolist()))
    hamiltonians = hamiltonians.tolist()
    # the coupling of each point's own momenta, the points along the last axis
    starts = [-h if p is None else p for p, h in zip(p_ext, hamiltonians)]
    couplings = _pairing(np.moveaxis(own, 0, -1),
                         states.T[:2 * k * n].reshape(n, 2 * k, -1),
                         start=np.array(starts)).tolist()
    entries = []
    for i, (t, levels, tolerance, explicit_field, field_values) in \
            enumerate(zip(times, residuals.tolist(), tolerances.tolist(),
                          explicit.tolist(), fields.tolist())):
        solved = verdicts[i]
        entries.append({
            "t": t,
            "on_constraint": solved,
            "constraint_residuals": levels,
            "constraint_tolerance": tolerance,
            "hamiltonian": hamiltonians[i],
            "section_p": -hamiltonians[i],
            "coupling": couplings[i],
            "explicit_field": explicit_field,
            "solved_field": field_values if solved else None,
            **({"max_field_difference": differences[i]} if solved else {}),
            "kernel_residual": kernels[i],
            "transversality": field_values[0],
            **({"condition": conditions[i]} if solved else {}),
        })
    return entries
