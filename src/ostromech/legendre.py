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

import functools
import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expressions as ex
from .errors import DimensionError, SingularHessianError, ValidationError
from .systems import JetPoint, SystemModel, _coordinates

__all__ = [
    "DerivedSystem", "derive",
    "momentum_exprs", "momentum_exprs_recursive", "hessian_det_expr",
    "regularity_report", "RegularityReport",
    "legendre_map",
]

# W counts as singular when its 1-norm condition number reaches 1/rtol
_SINGULAR_RTOL = 1e-9

# samples per block of the regularity sweep, which bounds its arrays
_SWEEP_BLOCK = 256


def _dt(expr, max_order):
    return ex.simplify(ex.total_derivative(expr, max_order))


def _alternating_sum(terms):
    """simplify(t_0 - t_1 + t_2 - ...)."""
    return ex.simplify(ex._add(*(ex.Neg(term) if i % 2 else term
                                 for i, term in enumerate(terms))))


def momentum_exprs(sys: SystemModel):
    """Closed-form momenta as expressions on jets of order <= 2k-1.

    Returns nested lists indexed [dof][level]; the level r-1 momentum
    involves jets of order at most 2k-r.
    """
    return DerivedSystem(sys).momenta


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


def hessian_det_expr(sys: SystemModel | DerivedSystem) -> ex.Expression:
    """Symbolic determinant of the Hessian of a :class:`DerivedSystem`,
    or of the one a model derives.

    Laplace expansion along the rows with each minor built once: the minor
    of the last m rows on the sorted columns ``cols`` is
        sum_pos (-1)^pos W[n-m][cols[pos]] * minor(cols without cols[pos]).
    That is at most n 2^(n-1) products in place of the n! of the Leibniz
    expansion, exact and without division; zero entries and zero minors
    are skipped.  Every product and sum is normalized from already
    simplified parts, so no shared minor is walked twice.
    """
    ds = sys if isinstance(sys, DerivedSystem) else DerivedSystem(sys)
    w, n = ds.hessian, ds.n
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

    Each family is derived on first read and then kept, so a command
    derives only what it reads: ``momenta``, ``el``, ``hessian``, the
    unified Hamiltonian ``hamiltonian``, ``lagrangian_partials`` (the
    partials of L with respect to the jet orders 0 .. k-1),
    ``hamiltonian_partials``, ``el_reduced`` (el with the q_{2k} terms
    deleted, the affine remainder of the acceleration solve) and
    ``_field``, the unified vector field.  The momenta and ``el`` share
    each total derivative of a partial of L.  No other code derives from L
    or keeps what it derives.
    """

    def __init__(self, model: SystemModel):
        self.model = model
        self._kernels = {}

    @functools.cached_property
    def _firsts(self):
        """The unsimplified dL/dq_j for j = 0 .. k, per dof."""
        return [[ex.diff(self.model.lagrangian, ex.jet(a, j))
                 for j in range(self.k + 1)]
                for a in range(1, self.n + 1)]

    @functools.cached_property
    def _chains(self):
        """``_chains[a][j] = [dL/dq_j, D dL/dq_j, ..., D^{j-1} dL/dq_j]``
        of dof a+1, j = 0 .. k, with entry 0 the unsimplified partial: the
        total derivatives that the momenta read."""
        k = self.k
        return [[list(itertools.accumulate(
            range(j - 1), lambda d, _: _dt(d, 2 * k), initial=first))
            for j, first in enumerate(firsts)] for firsts in self._firsts]

    @functools.cached_property
    def momenta(self):
        """Level r-1 of dof a: sum_i (-1)^i D^i dL/dq_{r+i}, [dof][level]."""
        k = self.k
        return [[_alternating_sum([per_dof[r + i][i]
                                   for i in range(k - r + 1)])
                 for r in range(1, k + 1)]
                for per_dof in self._chains]

    @functools.cached_property
    def el(self):
        """el_a = sum_j (-1)^j D^j dL/dq_j: each chain plus one link."""
        return [_alternating_sum([per_dof[0][0]] + [
            _dt(chain[-1], 2 * self.k) for chain in per_dof[1:]])
            for per_dof in self._chains]

    @functools.cached_property
    def hessian(self):
        """W_ab = d^2 L / dq_k^b dq_k^a."""
        k = self.k
        return [[ex.simplify(ex.diff(firsts[k], ex.jet(b, k)))
                 for b in range(1, self.n + 1)]
                for firsts in self._firsts]

    @functools.cached_property
    def hamiltonian(self):
        """H = -L + sum_{a,i} p_a^i q_{i+1}^a on the unified space."""
        return ex.simplify(ex._add(ex.Neg(self.model.lagrangian), *(
            ex.Product(ex.Variable(ex.momentum(a, i)),
                       ex.Variable(ex.jet(a, i + 1)))
            for a in range(1, self.n + 1) for i in range(self.k))))

    @functools.cached_property
    def lagrangian_partials(self):
        """dL/dq_i for i = 0 .. k-1, per dof: no reader takes dL/dq_k."""
        return [[ex.simplify(first) for first in firsts[:self.k]]
                for firsts in self._firsts]

    @functools.cached_property
    def hamiltonian_partials(self):
        """{v: dH/dv} over the free variables of H, in sorted order."""
        return {v: ex.simplify(ex.diff(self.hamiltonian, v))
                for v in sorted(self.hamiltonian.free_vars(),
                                key=lambda r: r._key())}

    @functools.cached_property
    def el_reduced(self):
        """el with the top jet removed:
        el_a = (-1)^k W_ab q_{2k}^b + reduced_a."""
        k = self.k
        top = {ex.jet(b, 2 * k): 0.0 for b in range(1, self.n + 1)}
        return [ex.simplify(ex.substitute(e, top)) for e in self.el]

    # -- numeric helpers ----------------------------------------------------

    @property
    def k(self):
        return self.model.k

    @property
    def n(self):
        return self.model.n

    def _kernel(self, use, family, coords):
        """The compiled kernel of ``use``, built on first use by
        :func:`expressions.compile_kernel` from the expressions
        ``family()`` over ``coords`` and then cached on the system, so a
        system compiles each kernel once.  A call of a compiled kernel
        returns the tree walker's values of the whole family, or raises
        its first :class:`DomainEvalError`.  The debug line of the build
        names the system, followed by ``use``."""
        kernel = self._kernels.get(use)
        if kernel is None:
            kernel = self._kernels[use] = ex.compile_kernel(
                family(), coords, name=f"{self.model.name} {use}")
        return kernel

    def lagrangian_value(self, env) -> float:
        return self.model.lagrangian.evaluate(env)

    def hessian_value(self, env) -> np.ndarray:
        return _values(self.hessian, env)

    def acceleration(self, env) -> np.ndarray:
        """Solve the Euler-Lagrange system for the order-2k jets at the
        bound point by :func:`_solve_top_jets`."""
        return _solve_top_jets(
            self.k, self.hessian_value(env),
            (e.evaluate(env) for e in self.el_reduced),
            env.get(ex.time_var()))

    @functools.cached_property
    def _field(self):
        """The unified vector field as a map (t, flat state) -> d(state)/dt.

        The state layout is :func:`unified.unified_coordinates` without
        time, and the state binds those coordinates in order, so a 2kn jet
        state gets the jet components only and a 3kn unified state also
        gets the momentum components G^0 = dL/dq_0 and
        G^i = dL/dq_i - p^{i-1}.  A singular Hessian raises
        :class:`SingularHessianError` with the state attached.

        The field is one function generated on first use, so a system
        builds it once: the straight-line body of the kernel of the
        Hessian, the reduced Euler-Lagrange values and the
        partials dL/dq_i (i < k) over (t, jets), as
        :func:`expressions.compile_kernel` would build it, followed by the
        solve and the assembly of the derivative (see
        :func:`_field_source`).  Where that body raises, the function
        takes the tree walker's values, so a state too raises the tree
        walker's first :class:`DomainEvalError` where any of these
        expressions, the partials included, cannot be evaluated.  For
        n <= 3 the top jets come from the straight-line solve
        :func:`_top_jet_solver` on those values; it leaves every doubtful
        W, and above n = 3 every W, to :func:`_solve_top_jets` and its one
        regularity test.  The function refers to no system, so a system
        and its field are freed by reference counting.
        """
        k, n = self.k, self.n
        exprs = ([w for row in self.hessian for w in row] + self.el_reduced
                 + [g for row in self.lagrangian_partials for g in row])
        solve = _top_jet_solver(n) if n <= 3 else None
        return ex._generated(
            exprs, _coordinates(n, 2 * k, 0), self.model.name,
            functools.partial(_field_source, k, n, solve is not None),
            _solve_top_jets=_solve_top_jets, _solve=solve, _array=np.array,
            _SingularHessianError=SingularHessianError)


def _field_source(k, n, solved, args, body, outputs):
    """The source lines of :meth:`DerivedSystem._field`, the ``assemble``
    of :func:`expressions._generated` for the kernel body of the n^2
    Hessian entries, the n reduced Euler-Lagrange values and the nk
    partials dL/dq_i.

    ``kernel(t, y)`` binds ``t`` and the 2kn jets of ``y.tolist()`` to the
    kernel's arguments, runs the body and names its values ``o0``, ...,
    or the tree walker's where the body raises.  The top jets come from
    ``_solve`` where ``solved``, else (or where it returns None) from
    ``_solve_top_jets``.  The derivative is one list display: each
    jet order moves to the next one, the top order of every dof is its
    solved value and, for a 3kn state, G^i = dL/dq_i - p^{i-1} follows,
    with p^{-1} = 0 for every dof."""
    jets, nn, top = 2 * k * n, n * n, 2 * k - 1
    sign = -1.0 if k % 2 else 1.0

    def listed(names):
        return "".join(f"{name}, " for name in names)

    values = [f"o{i}" for i in range(len(outputs))]
    accel = [f"a{a}" for a in range(n)]
    shift = [accel[j // (2 * k)] if j % (2 * k) == top else args[j + 2]
             for j in range(jets)]
    forces = [g if j % k == 0 else f"{g} - ys[{jets + j - 1}]"
              for j, g in enumerate(values[nn + n:])]
    inverse = [
        "try:",
        f"    accel = _solve_top_jets({k}, _array([{listed(values[:nn])}])"
        f".reshape({n}, {n}), ({listed(values[nn:nn + n])}), x0)",
        "except _SingularHessianError as err:",
        "    err.state = _array(y)",
        "    raise"]
    if solved:
        inverse = [f"accel = _solve(({listed(values[:nn + n])}), {sign!r})",
                   "if accel is None:", *("    " + line for line in inverse)]
    return [
        "def kernel(x0, y):",
        "    ys = y.tolist()",
        f"    {listed(args[1:])}= ys[:{jets}]",
        "    try:",
        *body,
        f"        {listed(values)}= {listed(outputs)}",
        "    except (ArithmeticError, ValueError, TypeError):",
        f"        {listed(values)}= _walk({', '.join(args)})",
        *("    " + line for line in inverse),
        f"    {listed(accel)}= accel",
        f"    if len(ys) == {jets}:",
        f"        return _array([{listed(shift)}])",
        f"    return _array([{listed(shift + forces)}])"]


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


def _solve_top_jets(k, w, reduced, time) -> np.ndarray:
    """Solve el_a = (-1)^k W_ab q_{2k}^b + reduced_a = 0 for the order-2k
    jets q_{2k}, a linear solve against the Hessian ``w``.

    ``reduced`` is iterated only after the regularity test of
    :func:`_regular_inverse`, so a generator of evaluations runs in the
    tree walker's order; a singular ``w`` raises
    :class:`SingularHessianError` at ``time``.
    """
    inv = _regular_inverse(w)[0]
    if inv is None:
        raise SingularHessianError(
            "Hessian is singular, accelerations are not determined",
            time=time)
    sign = -1.0 if k % 2 else 1.0
    return sign * (inv @ np.array([-value for value in reduced]))


def _kappa(w, inv):
    """kappa_1(W) = |W|_1 |W^-1|_1 over the last two axes, so of one W or
    of a stack of them."""
    return (np.abs(w).sum(axis=-2).max(axis=-1)
            * np.abs(inv).sum(axis=-2).max(axis=-1))


def _regular_inverse(w: np.ndarray):
    """The one regularity test: W^-1, or None when W is singular, and
    kappa_1(W) (inf where the inversion fails), from one inversion.  W is
    singular when kappa_1(W) >= 1/rtol, but not when it is NaN; scaling W
    leaves kappa_1(W) and so the verdict unchanged."""
    try:
        inv = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        return None, np.inf
    condition = float(_kappa(w, inv))
    return (None if condition * _SINGULAR_RTOL >= 1.0 else inv), condition


def _conditions(ws):
    """kappa_1 of each W of a stack, from one stacked inverse; where that
    raises, each W's from :func:`_regular_inverse`, inf where its own
    inversion fails."""
    try:
        return _kappa(ws, np.linalg.inv(ws)).tolist()
    except np.linalg.LinAlgError:
        return [_regular_inverse(w)[1] for w in ws]


@functools.cache
def _top_jet_solver(n: int):
    """The top-jet solve of n <= 3 dofs, straight-line code generated once
    per n: ``solve(values, sign)`` takes the kernel's floats, the n^2
    Hessian entries row by row then the n reduced Euler-Lagrange values,
    and returns the jets ``sign * (W^-1 @ -reduced)`` with
    W^-1 = adj(W) / det W, or None to leave W to
    :func:`_solve_top_jets`.  It does so unless det W is
    finite and nonzero and kappa_1(W) * _SINGULAR_RTOL < 0.999, so every
    singular verdict and NaN outcome is still that of
    :func:`_regular_inverse`; the adjugate's kappa_1 is off by about
    n kappa_1 eps, some 1e-6 relative at 1e9, so no verdict changes."""
    idx = range(n)
    pairs = list(itertools.product(idx, idx))
    source = "\n    ".join([
        "def solve(values, sign):",
        "".join(f"w{i}{j}, " for i, j in pairs)
        + "".join(f"r{i}, " for i in idx) + f"= values[:{n * n + n}]",
        *(f"c{i}{j} = {'-' if (i + j) % 2 else ''}("
          + _minor_text([r for r in idx if r != i],
                        [c for c in idx if c != j]) + ")"
          for i, j in pairs),
        "det = " + " + ".join(f"w0{j} * c0{j}" for j in idx),
        "if not 0.0 < abs(det) < _INF: return None",
        *(f"i{i}{j} = c{j}{i} / det" for i, j in pairs),
        # kappa_1: the largest column sum of |W| times that of |W^-1|
        "kappa = " + " * ".join("max((" + "".join(" + ".join(
            f"abs({m}{i}{j})" for i in idx) + ", " for j in idx) + "))"
            for m in "wi"),
        "if not kappa * _RTOL < 0.999: return None",
        "return (" + "".join("sign * (" + " + ".join(
            f"i{i}{j} * -r{j}" for j in idx) + "), " for i in idx) + ")"])
    namespace = {"_INF": np.inf, "_RTOL": _SINGULAR_RTOL}
    exec(compile(source, f"<top-jet solve n={n}>", "exec"), namespace)
    return namespace["solve"]


def _minor_text(rows, cols):
    """The determinant of W on rows x cols, along its first row, as the
    text of :func:`_top_jet_solver`."""
    return " ".join(
        ("- " if pos % 2 else "+ " if pos else "") + f"w{rows[0]}{c}"
        + (f" * ({_minor_text(rows[1:], cols[:pos] + cols[pos + 1:])})"
           if len(rows) > 1 else "")
        for pos, c in enumerate(cols)) or "1.0"


@dataclass
class RegularityReport:
    """Sampled regularity diagnosis of the Hessian."""

    regular: bool
    min_abs_det: float
    max_abs_det: float
    max_condition: float
    rank_at_worst_point: int | None = 0
    worst_point: dict = field(default_factory=dict)
    samples: int = 0
    seed: int = 0

    def to_dict(self):
        return asdict(self)


def regularity_report(sys: SystemModel, domain=None, samples: int = 100,
                      seed: int = 0) -> RegularityReport:
    """Sample the Hessian over a box and report regularity.

    The system is regular on the box when kappa_1(W) * rtol < 1 at every
    sample, so a NaN kappa_1(W), which :func:`_regular_inverse` does not
    call singular at a point, fails the box.  The worst point is the
    first sample of NaN kappa_1(W), if any, else the first of largest
    kappa_1(W), keyed by variable names as the system's n dofs spell
    them; the rank of W there is None where W is not finite.  The |det W|
    range is descriptive only.  ``samples`` must be at least 1.

    The samples are drawn in :func:`expressions.sample_point`'s order and
    swept in blocks of ``_SWEEP_BLOCK``: W comes from the system's
    compiled Hessian kernel (inf entries where a power or an exp
    overflows), and a block then takes one stacked inverse and one
    stacked determinant, with NumPy's overflow and invalid-value warnings
    off.  Where the stacked inverse raises, kappa_1 of each W of the
    block comes from :func:`_regular_inverse`, so every verdict, extreme
    and error is that of a sample-by-sample sweep.
    """
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    ds = sys if isinstance(sys, DerivedSystem) else DerivedSystem(sys)
    n = ds.n
    variables = set()
    for row in ds.hessian:
        for entry in row:
            variables |= entry.free_vars()
    order = tuple(sorted(variables, key=lambda r: r._key()))
    kernel = ds._kernel(
        "hessian", lambda: [w for row in ds.hessian for w in row], order)
    lo, hi = ex.DEFAULT_SAMPLE_RANGE if domain is None else domain
    rng = np.random.default_rng(seed)

    regular = True
    min_det, max_det = np.inf, 0.0
    max_condition, worst_point, worst_w = -np.inf, (), None
    for start in range(0, samples, _SWEEP_BLOCK):
        size = min(_SWEEP_BLOCK, samples - start)
        points = rng.uniform(lo, hi, (size, len(order))).tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            ws = np.array([kernel(*point) for point in points],
                          dtype=float).reshape(size, n, n)
            conditions = _conditions(ws)
            dets = np.abs(np.linalg.det(ws))
        regular = regular and all(
            condition * _SINGULAR_RTOL < 1.0 for condition in conditions)
        # argmax finds the block's first NaN, else its first largest; an
        # earlier block keeps its ties and its NaN
        i = int(np.argmax(conditions))
        if not (np.isnan(max_condition) or conditions[i] <= max_condition):
            max_condition, worst_point, worst_w = (
                conditions[i], points[i], ws[i])
        min_det, max_det = min(min_det, *dets), max(max_det, *dets)

    return RegularityReport(
        regular=regular, min_abs_det=float(min_det), max_abs_det=float(max_det),
        max_condition=max_condition,
        worst_point={ref.display(n): value
                     for ref, value in zip(order, worst_point)},
        rank_at_worst_point=(int(np.linalg.matrix_rank(worst_w))
                             if np.isfinite(worst_w).all() else None),
        samples=samples, seed=seed)


def legendre_map(ds: DerivedSystem, jp: JetPoint) -> np.ndarray:
    """Momenta of a jet point under the Legendre-Ostrogradsky map.

    Returns an array of shape (n, k); the jet point must carry orders up
    to 2k-1, and any higher order is not read.  The values, or the tree
    walker's :class:`DomainEvalError`, come from the system's momenta
    kernel over (t, q_0 .. q_{2k-1}).
    """
    k, n = ds.k, ds.n
    if jp.n != n or jp.orders < 2 * k:
        raise DimensionError(
            f"jet point must carry {n} dofs and orders up to {2 * k - 1}")
    return np.array(_momenta_kernel(ds)(
        jp.t, *jp.q[:, :2 * k].reshape(-1).tolist())).reshape(n, k)


def _momenta_kernel(ds: DerivedSystem):
    """The system's compiled momenta kernel: called with t and the 2kn
    jets dof-major, it returns the nk momenta dof-major, the layout of
    the momenta of a unified state."""
    return ds._kernel(
        "momenta", lambda: [p for per_dof in ds.momenta for p in per_dof],
        _coordinates(ds.n, 2 * ds.k, 0))
