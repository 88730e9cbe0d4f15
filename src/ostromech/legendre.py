"""Mechanical derivation of momenta, equations of motion, and regularity.

Given a k-th order Lagrangian L the module produces:

* the Ostrogradsky momenta, level r-1 for r = 1 .. k:
      p^{r-1}_A = sum_{i=0}^{k-r} (-1)^i (d/dt)^i (dL/dq_{r+i}^A),
  which satisfy the backward recursion
      p^{k-1}_A = dL/dq_k^A,
      p^{i-1}_A = dL/dq_i^A - d/dt p^i_A;
* the Euler-Lagrange expressions
      el_A = sum_{i=0}^{k} (-1)^i (d/dt)^i (dL/dq_i^A),
  in which the highest jet q_{2k}^B enters linearly through the Hessian:
      el_A = (-1)^k W_AB q_{2k}^B + (terms of order <= 2k-1);
* the Hessian W_AB = d^2 L / dq_k^B dq_k^A and its regularity status;
* the Hamiltonian function on the unified space,
      H = -L + sum p_A^i q_{i+1}^A.

All total derivatives are taken along holonomic prolongations, so momenta
live on jets of order at most 2k-1 and el on jets of order at most 2k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import (
    ConvergenceError,
    DimensionError,
    SingularHessianError,
    SingularJacobianError,
    ValidationError,
)
from .systems import JetPoint, SystemModel, jet_bindings

__all__ = [
    "DerivedSystem", "derive",
    "momentum_exprs", "momentum_exprs_recursive",
    "euler_lagrange_exprs", "hessian_exprs", "hessian_det_expr",
    "regularity_report", "RegularityReport",
    "legendre_map", "legendre_inverse",
]

# W counts as singular when its 1-norm condition number reaches 1/rtol
_SINGULAR_RTOL = 1e-9


def _dt(expr, max_order):
    return ex.simplify(ex.total_derivative(expr, max_order))


def momentum_exprs(sys: SystemModel):
    """Closed-form momenta as expressions on jets of order <= 2k-1.

    Returns nested lists indexed [dof][level]; the level r-1 momentum
    involves jets of order at most 2k-r.
    """
    k = sys.k
    out = []
    for a in range(1, sys.n + 1):
        per_dof = []
        for r in range(1, k + 1):
            terms = []
            for i in range(k - r + 1):
                term = ex.diff(sys.lagrangian, ex.jet(a, r + i))
                for _ in range(i):
                    term = _dt(term, 2 * k - 1)
                if i % 2:
                    term = ex.Neg(term)
                terms.append(term)
            # r runs 1..k, so per_dof is already indexed by level r-1
            per_dof.append(ex.simplify(ex._add(*terms)))
        out.append(per_dof)
    return out


def momentum_exprs_recursive(sys: SystemModel):
    """Momenta via the backward recursion, an independent route used to
    cross-check the closed form."""
    k = sys.k
    out = []
    for a in range(1, sys.n + 1):
        levels = [None] * k
        levels[k - 1] = ex.simplify(ex.diff(sys.lagrangian, ex.jet(a, k)))
        for i in range(k - 1, 0, -1):
            levels[i - 1] = ex.simplify(
                ex._add(ex.diff(sys.lagrangian, ex.jet(a, i)),
                        ex.Neg(_dt(levels[i], 2 * k - 1))))
        out.append(levels)
    return out


def euler_lagrange_exprs(sys: SystemModel):
    """Euler-Lagrange expressions, one per dof, on jets of order <= 2k."""
    k = sys.k
    out = []
    for a in range(1, sys.n + 1):
        terms = []
        for i in range(k + 1):
            term = ex.diff(sys.lagrangian, ex.jet(a, i))
            for _ in range(i):
                term = _dt(term, 2 * k)
            if i % 2:
                term = ex.Neg(term)
            terms.append(term)
        out.append(ex.simplify(ex._add(*terms)))
    return out


def hessian_exprs(sys: SystemModel):
    """Symmetric Hessian of L in the highest jet order, as expressions."""
    k, n = sys.k, sys.n
    rows = []
    for a in range(1, n + 1):
        row = []
        first = ex.diff(sys.lagrangian, ex.jet(a, k))
        for b in range(1, n + 1):
            row.append(ex.simplify(ex.diff(first, ex.jet(b, k))))
        rows.append(row)
    return rows


def hessian_det_expr(sys: SystemModel | DerivedSystem) -> ex.Expression:
    """Symbolic determinant of the Hessian (Leibniz expansion) of a model,
    or of a :class:`DerivedSystem`, whose Hessian is reused."""
    w = sys.hessian if isinstance(sys, DerivedSystem) else hessian_exprs(sys)
    n = sys.n
    terms = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        sign = -1 if inversions % 2 else 1
        factors = [w[i][perm[i]] for i in range(n)]
        term = factors[0] if n == 1 else ex.Product(*factors)
        terms.append(ex.Neg(term) if sign < 0 else term)
    return ex.simplify(ex._add(*terms))


class DerivedSystem:
    """A system model together with everything derived from its Lagrangian.

    Exposes the momenta, Euler-Lagrange expressions, Hessian, the unified
    Hamiltonian ``hamiltonian`` with its partial derivatives, partials of L
    with respect to the low jet orders, and the reduced Euler-Lagrange
    expressions obtained by deleting the q_{2k} terms (the affine remainder
    used when solving for accelerations).
    """

    def __init__(self, model: SystemModel):
        self.model = model
        k, n = model.k, model.n
        self.momenta = momentum_exprs(model)
        self.el = euler_lagrange_exprs(model)
        self.hessian = hessian_exprs(model)

        # dL/dq_i for i = 0 .. k, per dof
        self.lagrangian_partials = [
            [ex.simplify(ex.diff(model.lagrangian, ex.jet(a, i)))
             for i in range(k + 1)]
            for a in range(1, n + 1)]

        # H = -L + sum_{a,i} p_a^i q_{i+1}^a on the unified space
        coupling_terms = [
            ex.Product(ex.Variable(ex.momentum(a, i)),
                       ex.Variable(ex.jet(a, i + 1)))
            for a in range(1, n + 1) for i in range(k)]
        self.hamiltonian = ex.simplify(
            ex._add(ex.Neg(model.lagrangian), *coupling_terms))
        self.hamiltonian_partials = {
            v: ex.simplify(ex.diff(self.hamiltonian, v))
            for v in sorted(self.hamiltonian.free_vars(), key=lambda r: r._key())}

        # el with the top jet removed: el_a = (-1)^k W_ab q_{2k}^b + reduced_a
        top = {ex.jet(b, 2 * k): 0.0 for b in range(1, n + 1)}
        self.el_reduced = [ex.simplify(ex.substitute(e, top)) for e in self.el]

    # -- numeric helpers ----------------------------------------------------

    @property
    def k(self):
        return self.model.k

    @property
    def n(self):
        return self.model.n

    def lagrangian_value(self, env) -> float:
        return self.model.lagrangian.evaluate(env)

    def hessian_value(self, env) -> np.ndarray:
        return _values(self.hessian, env)

    def acceleration(self, env) -> np.ndarray:
        """Solve the Euler-Lagrange system for the order-2k jets.

        Uses el_a = (-1)^k W_ab q_{2k}^b + reduced_a = 0, i.e. a linear
        solve against the Hessian at the bound point.  Raises
        :class:`SingularHessianError` when the Hessian fails the regularity
        test of :func:`_regular_inverse`.
        """
        return self._solve_top_jets(
            self.hessian_value(env),
            (e.evaluate(env) for e in self.el_reduced),
            env.get(ex.time_var()))

    def _solve_top_jets(self, w, reduced, time) -> np.ndarray:
        """Solve (-1)^k W q_{2k} + reduced = 0 for the order-2k jets.

        ``reduced`` is iterated only after the regularity test, so a
        generator of evaluations runs in the tree walker's order; a
        singular ``w`` raises :class:`SingularHessianError` at ``time``.
        """
        inv = _regular_inverse(w)[0]
        if inv is None:
            raise SingularHessianError(
                "Hessian is singular, accelerations are not determined",
                time=time)
        sign = -1.0 if self.k % 2 else 1.0
        return sign * (inv @ np.array([-value for value in reduced]))


def _values(rows, env) -> np.ndarray:
    """Float array of the values of a nested list of expressions."""
    return np.array([[e.evaluate(env) for e in row] for row in rows],
                    dtype=float)


def derive(sys: SystemModel) -> DerivedSystem:
    """Run the full mechanical derivation for a system model."""
    return DerivedSystem(sys)


def _regular_inverse(w: np.ndarray):
    """The one regularity test: W^-1, or None when W is singular, and
    kappa_1(W) = |W|_1 |W^-1|_1 (inf where the inversion fails), from one
    inversion.  W is singular when kappa_1(W) >= 1/rtol, but not when it is
    NaN; scaling W leaves kappa_1(W) and so the verdict unchanged."""
    try:
        inv = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        return None, np.inf
    condition = float(np.abs(w).sum(axis=0).max()
                      * np.abs(inv).sum(axis=0).max())
    return (None if condition * _SINGULAR_RTOL >= 1.0 else inv), condition


@dataclass
class RegularityReport:
    """Sampled regularity diagnosis of the Hessian."""

    regular: bool
    min_abs_det: float
    max_abs_det: float
    max_condition: float
    worst_point: dict = field(default_factory=dict)
    rank_at_worst: int = 0
    samples: int = 0
    seed: int = 0

    def to_dict(self):
        worst = {ref.display(n_dofs=_worst_dofs(self.worst_point)): value
                 for ref, value in self.worst_point.items()}
        return {
            "regular": self.regular,
            "min_abs_det": self.min_abs_det,
            "max_abs_det": self.max_abs_det,
            "max_condition": self.max_condition,
            "rank_at_worst_point": self.rank_at_worst,
            "worst_point": worst,
            "samples": self.samples,
            "seed": self.seed,
        }


def _worst_dofs(point):
    dofs = [ref.dof for ref in point if ref.kind == "jet"]
    return max(dofs) if dofs else 1


def regularity_report(sys: SystemModel, domain=None, samples: int = 100,
                      seed: int = 0) -> RegularityReport:
    """Sample the Hessian over a box and report regularity.

    The system is regular on the box when W passes :func:`_regular_inverse`
    at every sample.  The worst point is the sample of largest kappa_1(W),
    the first on ties; the |det W| range is descriptive only.  ``samples``
    must be at least 1.
    """
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    ds = sys if isinstance(sys, DerivedSystem) else DerivedSystem(sys)
    variables = set()
    for row in ds.hessian:
        for entry in row:
            variables |= entry.free_vars()
    rng = np.random.default_rng(seed)

    regular = True
    min_det, max_det = np.inf, 0.0
    max_condition, worst_point, worst_w = -np.inf, {}, None
    for _ in range(samples):
        point = ex.sample_point(variables, rng, domain)
        w = ds.hessian_value(point)
        inv, condition = _regular_inverse(w)
        if inv is None:
            regular = False
        if worst_w is None or condition > max_condition:
            max_condition, worst_point, worst_w = condition, point, w
        detval = abs(np.linalg.det(w))
        min_det, max_det = min(min_det, detval), max(max_det, detval)

    return RegularityReport(
        regular=regular, min_abs_det=float(min_det), max_abs_det=float(max_det),
        max_condition=max_condition, worst_point=worst_point,
        rank_at_worst=int(np.linalg.matrix_rank(worst_w)),
        samples=samples, seed=seed)


def legendre_map(ds: DerivedSystem, jp: JetPoint) -> np.ndarray:
    """Momenta of a jet point under the Legendre-Ostrogradsky map.

    Returns an array of shape (n, k); the jet point must carry orders up
    to 2k-1.
    """
    k, n = ds.k, ds.n
    if jp.n != n or jp.orders < 2 * k:
        raise DimensionError(
            f"jet point must carry {n} dofs and orders up to {2 * k - 1}")
    return _values(ds.momenta, jet_bindings(jp))


def _momentum_jacobian_exprs(ds: DerivedSystem):
    """d p^i_A / d q_j^B for the high jets j = k .. 2k-1 (cached)."""
    cached = getattr(ds, "_momentum_jacobian", None)
    if cached is not None:
        return cached
    k, n = ds.k, ds.n
    rows = []
    for a in range(n):
        for i in range(k):
            row = []
            for b in range(n):
                for j in range(k, 2 * k):
                    row.append(ex.simplify(
                        ex.diff(ds.momenta[a][i], ex.jet(b + 1, j))))
            rows.append(row)
    ds._momentum_jacobian = rows
    return rows


def legendre_inverse(ds: DerivedSystem, t: float, base_q, momenta,
                     guess=None, tol: float = 1e-10,
                     max_iterations: int = 50) -> np.ndarray:
    """Recover the high jets q_k .. q_{2k-1} from base jets and momenta.

    Damped Newton iteration with step halving on the residual
    ``legendre_map - momenta``; the Jacobian is evaluated from exact
    symbolic partials.  Raises :class:`SingularJacobianError` when the
    Jacobian cannot be inverted and :class:`ConvergenceError` when the
    residual fails to fall below ``tol`` within ``max_iterations``.
    Returns the high jets with shape (n, k).
    """
    k, n = ds.k, ds.n
    base_q = np.asarray(base_q, dtype=float)
    target = np.asarray(momenta, dtype=float)
    if base_q.shape != (n, k):
        raise DimensionError(f"base jets must have shape {(n, k)}")
    if target.shape != (n, k):
        raise DimensionError(f"momenta must have shape {(n, k)}")
    high = (np.zeros((n, k)) if guess is None
            else np.array(guess, dtype=float).reshape(n, k))

    jac_exprs = _momentum_jacobian_exprs(ds)

    def residual_of(high_jets):
        jp = JetPoint(t, np.hstack([base_q, high_jets]))
        return (legendre_map(ds, jp) - target).reshape(-1), jp

    res, jp = residual_of(high)
    for _ in range(max_iterations):
        if np.max(np.abs(res)) <= tol:
            return high
        try:
            step = np.linalg.solve(_values(jac_exprs, jet_bindings(jp)), -res)
        except np.linalg.LinAlgError:
            raise SingularJacobianError(
                "Jacobian of the momentum map is singular; the system is "
                "degenerate at this point") from None
        # damped update: halve the step until the residual improves
        scale = 1.0
        best = np.max(np.abs(res))
        for _ in range(30):
            trial = high + scale * step.reshape(n, k)
            trial_res, trial_jp = residual_of(trial)
            if np.max(np.abs(trial_res)) < best or scale < 1e-12:
                high, res, jp = trial, trial_res, trial_jp
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "Newton step failed to reduce the momentum residual")
    if np.max(np.abs(res)) <= tol:
        return high
    raise ConvergenceError(
        f"momentum inversion did not reach residual {tol} in "
        f"{max_iterations} iterations (final residual "
        f"{np.max(np.abs(res)):.3e})")
