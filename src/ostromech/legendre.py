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
from .systems import JetPoint, SystemModel, _bindings, jet_bindings

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


def _partial_chains(sys: SystemModel):
    """Each partial of L and its total derivatives, derived once: the
    table ``chains[a][j] = [dL/dq_j, D dL/dq_j, ..., D^j dL/dq_j]`` of dof
    a+1, j = 0 .. k, with entry 0 the unsimplified partial."""
    k = sys.k
    chains = []
    for a in range(1, sys.n + 1):
        per_dof = []
        for j in range(k + 1):
            chain = [ex.diff(sys.lagrangian, ex.jet(a, j))]
            for _ in range(j):
                chain.append(_dt(chain[-1], 2 * k))
            per_dof.append(chain)
        chains.append(per_dof)
    return chains


def _alternating_sum(terms):
    """simplify(t_0 - t_1 + t_2 - ...)."""
    return ex.simplify(ex._add(*(ex.Neg(term) if i % 2 else term
                                 for i, term in enumerate(terms))))


def _momenta(chains, k):
    # level r-1 of dof a: sum_i (-1)^i D^i dL/dq_{r+i}
    return [[_alternating_sum([per_dof[r + i][i] for i in range(k - r + 1)])
             for r in range(1, k + 1)]
            for per_dof in chains]


def _euler_lagrange(chains):
    # el of dof a: sum_i (-1)^i D^i dL/dq_i
    return [_alternating_sum([chain[-1] for chain in per_dof])
            for per_dof in chains]


def _hessian(firsts, k):
    # W_ab from the unsimplified firsts[a] = dL/dq_k^(a+1)
    return [[ex.simplify(ex.diff(first, ex.jet(b, k)))
             for b in range(1, len(firsts) + 1)]
            for first in firsts]


def momentum_exprs(sys: SystemModel):
    """Closed-form momenta as expressions on jets of order <= 2k-1.

    Returns nested lists indexed [dof][level]; the level r-1 momentum
    involves jets of order at most 2k-r.
    """
    return _momenta(_partial_chains(sys), sys.k)


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
    return _euler_lagrange(_partial_chains(sys))


def hessian_exprs(sys: SystemModel):
    """Symmetric Hessian of L in the highest jet order, as expressions."""
    return _hessian([ex.diff(sys.lagrangian, ex.jet(a, sys.k))
                     for a in range(1, sys.n + 1)], sys.k)


def hessian_det_expr(sys: SystemModel | DerivedSystem) -> ex.Expression:
    """Symbolic determinant of the Hessian of a model, or of a
    :class:`DerivedSystem`, whose Hessian is reused.

    Laplace expansion along the rows with each minor built once: the minor
    of the last m rows on the sorted columns ``cols`` is
        sum_pos (-1)^pos W[n-m][cols[pos]] * minor(cols without cols[pos]).
    That is at most n 2^(n-1) products in place of the n! of the Leibniz
    expansion, exact and without division; zero entries and zero minors
    are skipped.  Every product and sum is normalized from already
    simplified parts, so no shared minor is walked twice.
    """
    w = sys.hessian if isinstance(sys, DerivedSystem) else hessian_exprs(sys)
    n = sys.n
    minors = {(): ex._ONE}
    for m in range(1, n + 1):
        row = w[n - m]
        for cols in itertools.combinations(range(n), m):
            terms = []
            for pos, c in enumerate(cols):
                minor = minors[cols[:pos] + cols[pos + 1:]]
                if ex._is_zero(row[c]) or ex._is_zero(minor):
                    continue
                sign = ex.Const(-1.0 if pos % 2 else 1.0)
                terms.append(ex._normal_product([sign, row[c], minor]))
            minors[cols] = ex._normal_sum(terms)
    return minors[tuple(range(n))]


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
        chains = _partial_chains(model)
        self.momenta = _momenta(chains, k)
        self.el = _euler_lagrange(chains)
        self.hessian = _hessian([per_dof[k][0] for per_dof in chains], k)
        # dL/dq_i for i = 0 .. k, per dof
        self.lagrangian_partials = [[ex.simplify(chain[0]) for chain in per_dof]
                                    for per_dof in chains]

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


def _values(family, env, shape=()) -> np.ndarray:
    """The one evaluator of derived families: the float array of the
    values of an expression, or of a nested list of expressions, under
    ``env``, each broadcast to ``shape``, the shape of the grid the
    bindings range over, or () at a point."""
    return np.array(_evaluated(family, env, shape), dtype=float)


def _evaluated(family, env, shape):
    # module level, not a closure: a self-referencing closure is a cycle
    # that would keep the bindings of a whole grid alive until collected
    if isinstance(family, ex.Expression):
        value = family.evaluate(env)
        return np.broadcast_to(value, shape) if shape else value
    return [_evaluated(member, env, shape) for member in family]


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
        return {
            "regular": self.regular,
            "min_abs_det": self.min_abs_det,
            "max_abs_det": self.max_abs_det,
            "max_condition": self.max_condition,
            "rank_at_worst_point": self.rank_at_worst,
            "worst_point": self.worst_point,
            "samples": self.samples,
            "seed": self.seed,
        }


def regularity_report(sys: SystemModel, domain=None, samples: int = 100,
                      seed: int = 0) -> RegularityReport:
    """Sample the Hessian over a box and report regularity.

    The system is regular on the box when W passes :func:`_regular_inverse`
    at every sample.  The worst point is the sample of largest kappa_1(W),
    the first on ties, keyed by variable names as the system's n dofs
    spell them; the |det W| range is descriptive only.  ``samples`` must be
    at least 1.
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
        max_condition=max_condition,
        worst_point={ref.display(ds.n): value
                     for ref, value in worst_point.items()},
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


def legendre_inverse(ds: DerivedSystem, t: float, base_q, momenta,
                     guess=None, tol: float = 1e-10,
                     max_iterations: int = 50) -> np.ndarray:
    """Recover the high jets q_k .. q_{2k-1} from base jets and momenta.

    The level r-1 momentum is affine in its top jet q_{2k-r} with
    coefficient (-1)^(k-r) W, so W is the only Jacobian the inversion
    needs, and the solve runs level by level.  A damped Newton iteration
    with step halving solves p^{k-1} = dL/dq_k for q_k, seeded by
    ``guess[:, 0]`` (zero without a guess; the rest of ``guess`` is not
    used).  Each lower level r = k-1 .. 1 is then one linear solve,
        q_{2k-r} = (-1)^(k-r) W^-1 (p^{r-1} - p^{r-1}|_{q_{2k-r}=0}).
    W is tested by :func:`_regular_inverse` at every Newton iterate and
    raises :class:`SingularJacobianError` where it is singular.  The
    returned jets, of shape (n, k), reproduce ``momenta`` within ``tol``
    at every level; otherwise, and when Newton has not reached ``tol``
    after ``max_iterations`` steps, :class:`ConvergenceError` is raised.
    """
    k, n = ds.k, ds.n
    base_q = np.asarray(base_q, dtype=float)
    target = np.asarray(momenta, dtype=float)
    if base_q.shape != (n, k):
        raise DimensionError(f"base jets must have shape {(n, k)}")
    if target.shape != (n, k):
        raise DimensionError(f"momenta must have shape {(n, k)}")
    jets = np.hstack([base_q, np.zeros((n, k))])
    if guess is not None:
        jets[:, k] = np.array(guess, dtype=float).reshape(n, k)[:, 0]

    def residual(r):
        # the level r-1 momenta at the current jets less their targets
        return (_values([per_dof[r - 1] for per_dof in ds.momenta],
                        _bindings(t, jets)) - target[:, r - 1])

    res = residual(k)
    for iteration in range(max_iterations + 1):
        inv = _regular_inverse(ds.hessian_value(_bindings(t, jets)))[0]
        if inv is None:
            raise SingularJacobianError(
                "Hessian is singular, the momenta do not determine the jets")
        worst = np.max(np.abs(res))
        if worst <= tol or iteration == max_iterations:
            break
        # damped update: halve the step until the residual improves
        q_k, step = jets[:, k].copy(), inv @ res
        for halving in range(30):
            jets[:, k] = q_k - 0.5 ** halving * step
            trial = residual(k)
            if np.max(np.abs(trial)) < worst:
                res = trial
                break
        else:
            raise ConvergenceError(
                "Newton step failed to reduce the momentum residual")

    # W involves jets up to order k only, so inv serves every lower level,
    # whose top jet is still zero when its residual is taken
    for r in range(k - 1, 0, -1):
        jets[:, 2 * k - r] = (-1) ** (k - r) * inv @ -residual(r)
    worst = np.max(np.abs(_values(ds.momenta, _bindings(t, jets)) - target))
    if not worst <= tol:
        raise ConvergenceError(
            f"momentum inversion did not reach residual {tol} in "
            f"{max_iterations} iterations (final residual {worst:.3e})")
    return jets[:, k:].copy()
