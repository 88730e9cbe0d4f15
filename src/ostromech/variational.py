"""Direct numerical tests of the variational principle.

Paths are smooth curves t -> q(t) with analytic derivatives to any order,
either polynomial (monomial basis) or half-range trigonometric (fourier
basis, frequencies m*pi/(b-a)), or the piecewise polynomial through a
recorded trajectory's jets.  The action of a path is computed by
composite Simpson quadrature of the Lagrangian along the analytic jet
prolongation, or equivalently of the pulled-back unified one-form
(momenta from the Legendre map, extended momentum from the Hamiltonian
section); on holonomic prolongations both integrands agree pointwise up
to round-off, and the pair of routes is kept separate precisely so that
this agreement can be measured.

Compactly supported polynomial bumps provide admissible variations whose
derivatives vanish at the support ends to high order, so boundary terms
drop from the first variation and stationarity can be probed by finite
differences of the action over the bump's support alone.  The actions of
one such difference share one quadrature grid and one set of path and bump
derivatives on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError
from .dynamics import Trajectory, fd_derivative
from .legendre import DerivedSystem, _values
from .systems import _bindings, _pairing, _split_state

__all__ = [
    "PathRepresentation", "Variation", "discrete_action",
    "action_derivative", "first_variation", "stationarity_check",
    "StationarityReport", "HermitePath", "el_along_path",
]

_BASES = ("monomial", "fourier")
_DEFAULT_QUAD_POINTS = 512

# scale of the variation in the central differences of action_derivative
_EPSILON = 1e-5


def _basis_matrices(basis, interval, n_coeffs, ts, max_order):
    """One matrix per order 0 .. max_order, whose columns are the order-th
    derivatives of the basis functions at ts.  The orders share one power
    table of ts (monomial) or one cos and one sin per frequency (fourier)."""
    ts = np.asarray(ts, dtype=float)
    a, b = interval
    out = [np.zeros((ts.size, n_coeffs)) for _ in range(max_order + 1)]
    if basis == "monomial":
        powers = [ts ** p for p in range(n_coeffs)]
        for order, matrix in enumerate(out):
            for j in range(order, n_coeffs):
                coeff = 1.0
                for i in range(order):
                    coeff *= j - i
                matrix[:, j] = coeff * powers[j - order]
        return out
    # fourier: 1, cos(w1 tau), sin(w1 tau), cos(w2 tau), ... with
    # w_m = m*pi/(b-a) and tau = t - a
    tau = ts - a
    base = np.pi / (b - a)
    out[0][:, 0] = 1.0
    for m in range(1, n_coeffs // 2 + 1):
        w = m * base
        phase = w * tau
        cos, sin = np.cos(phase), np.sin(phase)
        # the derivatives cycle through the signed waves; the sign goes on
        # the factor w^order, which flips it exactly
        for j, cycle in ((2 * m - 1, ((1, cos), (-1, sin), (-1, cos),
                                      (1, sin))),
                         (2 * m, ((1, sin), (1, cos), (-1, sin),
                                  (-1, cos)))):
            if j < n_coeffs:
                for order, matrix in enumerate(out):
                    sign, wave = cycle[order % 4]
                    np.multiply(sign * w ** order, wave, out=matrix[:, j])
    return out


@dataclass(frozen=True)
class PathRepresentation:
    """A smooth curve per dof with exact derivatives of every order.

    ``coefficients`` has one row per dof.  In the monomial basis row
    entries are ascending polynomial coefficients; in the fourier basis
    they are (constant, cos_1, sin_1, cos_2, ...) for frequencies
    m*pi/(b-a) measured from the left end of the interval.
    """

    basis: str
    coefficients: np.ndarray
    interval: tuple

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValidationError(f"unknown path basis {self.basis!r}")
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.ndim == 1:
            coeffs = coeffs[None, :]
        if coeffs.ndim != 2 or coeffs.shape[1] < 1:
            raise DimensionError("coefficients must be one row per dof")
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("path coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        a, b = (float(end) for end in self.interval)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValidationError(f"path interval ends must be finite, got "
                                  f"[{a}, {b}]")
        if not b > a:
            raise ValidationError("path interval must have positive length")
        if not np.isfinite(b - a):
            raise ValidationError(f"path interval length must be finite, "
                                  f"got [{a}, {b}]")
        object.__setattr__(self, "interval", (a, b))

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]

    def jets(self, ts, max_order: int) -> np.ndarray:
        """jets[a, i]: the order-i time derivative of dof a at the given
        times, orders 0 .. max_order, from one evaluation of the basis."""
        return np.stack([self.coefficients @ matrix.T for matrix in
                         _basis_matrices(self.basis, self.interval,
                                         self.coefficients.shape[1], ts,
                                         max_order)], axis=1)

    def derivative_values(self, ts, order: int = 0) -> np.ndarray:
        """Order-th time derivative of every dof at the given times."""
        return self.jets(ts, order)[:, order]


@dataclass(frozen=True)
class Variation:
    """A compactly supported polynomial bump on one dof.

    On its support [center - half_width, center + half_width] the bump is
    amplitude * ((t - l)(r - t) / half_width^2)^exponent, normalized to
    peak amplitude at the center, and zero outside.  Derivatives up to
    exponent - 1 vanish at the support ends, so an exponent of k + 1
    makes the variation admissible for an order-k problem.
    """

    dof: int
    center: float
    half_width: float
    exponent: int
    amplitude: float = 1.0
    _coefficients: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dof < 1:
            raise ValidationError("variation dof index is 1-based")
        if self.half_width <= 0:
            raise ValidationError("variation half_width must be positive")
        if self.exponent < 1:
            raise ValidationError("variation exponent must be at least 1")
        left, right = self.support
        # half_width^(2 exponent) underflows to 0 on a short support, and
        # overflows on a long one
        try:
            scale = self.amplitude / self.half_width ** (2 * self.exponent)
        except (OverflowError, ZeroDivisionError):
            scale = math.nan
        if not math.isfinite(scale):
            raise ValidationError(
                f"variation support [{left}, {right}] admits no bump of "
                f"exponent {self.exponent}: amplitude / half_width^"
                f"{2 * self.exponent} is not a finite number")
        # (t - l)(r - t) has the coefficients (-l r, l + r, -1); each
        # derivative multiplies coefficient j by j and drops the constant
        factor = np.convolve([-left, 1.0], [right, -1.0])
        bump = factor
        for _ in range(1, self.exponent):
            bump = np.convolve(bump, factor)
        coefficients = [bump * scale]
        while coefficients[-1].size > 1:
            c = coefficients[-1]
            coefficients.append(np.arange(1, c.size) * c[1:])
        # past the degree every derivative is zero
        coefficients.append(coefficients[0][:1] * 0)
        object.__setattr__(self, "_coefficients", tuple(coefficients))

    @property
    def support(self) -> tuple:
        return (self.center - self.half_width, self.center + self.half_width)

    def jets(self, ts, max_order: int) -> np.ndarray:
        """jets[i]: the order-i derivative of the bump at the given times,
        orders 0 .. max_order."""
        ts = np.asarray(ts, dtype=float)
        left, right = self.support
        inside = (ts > left) & (ts < right)
        out = np.zeros((max_order + 1, ts.size))
        if np.any(inside):
            x, last = ts[inside], len(self._coefficients) - 1
            for order in range(max_order + 1):
                # Horner's rule in numpy.polynomial.polyval's order of
                # operations, in place
                c = self._coefficients[min(order, last)]
                value = c[-1] + x * 0
                for coefficient in c[-2::-1]:
                    value *= x
                    value += coefficient
                out[order, inside] = value
        return out

    def derivative_values(self, ts, order: int = 0) -> np.ndarray:
        return self.jets(ts, order)[order]


# ---------------------------------------------------------------------------
# quadrature: nodes -> path jets -> integrand -> Simpson sum
# ---------------------------------------------------------------------------


def _nodes(interval, panels):
    """Simpson nodes and step of the interval at the panel count.

    A bump's support receives the full panel count, as a whole path
    interval does: variation bumps have derivatives growing like
    width^-6, so the short support needs the resolution far more than its
    share of the path's interval suggests.
    """
    if panels < 2:
        raise ValidationError("quad_points must be at least 2")
    lo, hi = interval
    return np.linspace(lo, hi, 2 * panels + 1), (hi - lo) / (2 * panels)


def _simpson_weights(size):
    """Composite Simpson weights of ``size`` nodes, the factor h / 3
    left out."""
    weights = np.ones(size)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return weights


def _simpson(values, h, weights=None):
    """Composite Simpson sum of node values at step h, with the weights
    ``weights`` where they are given."""
    if weights is None:
        weights = _simpson_weights(values.size)
    return (h / 3.0) * float(weights @ values)


def _path_env(path, ts, max_order):
    """Bindings of the path's jets, orders 0 .. max_order, at the times ts."""
    return _bindings(np.asarray(ts, dtype=float), path.jets(ts, max_order))


def _lagrangian(ds, ts, jets):
    return _values(ds.model.lagrangian, _bindings(ts, jets), ts.shape)


def _cartan(ds, ts, jets):
    momenta = _values(ds.momenta, _bindings(ts, jets), ts.shape)
    # p = -H on the Hamiltonian section
    return _pairing(momenta, jets) - _values(
        ds.hamiltonian, _bindings(ts, jets, momenta), ts.shape)


def _integrand(ds, name):
    """The integrand called ``name`` and the top jet order it reads."""
    if name == "lagrangian":
        return _lagrangian, ds.k
    if name == "cartan":
        return _cartan, 2 * ds.k - 1
    raise ValidationError(f"unknown integrand {name!r}")


def _check_path(ds, pathlike):
    if pathlike.n != ds.n:
        raise DimensionError(
            f"path has {pathlike.n} dofs but the system has {ds.n}")


def discrete_action(ds: DerivedSystem, path, integrand: str = "lagrangian",
                    quad_points: int = _DEFAULT_QUAD_POINTS) -> float:
    """Action of a path by composite Simpson quadrature.

    ``integrand`` selects the Lagrangian along the prolonged path or the
    pullback of the unified one-form (``"cartan"``), with momenta from the
    Legendre map and the extended momentum from the Hamiltonian section.
    ``quad_points`` is the panel count; doubling it reduces the
    quadrature error of smooth integrands by about 16x.
    """
    _check_path(ds, path)
    f, top = _integrand(ds, integrand)
    ts, h = _nodes(path.interval, quad_points)
    return _simpson(f(ds, ts, path.jets(ts, top)), h)


def _variation_inside(path, variation):
    a, b = path.interval
    left, right = variation.support
    if not (a < left and right < b):
        raise ValidationError(
            f"variation support [{left}, {right}] must lie strictly inside "
            f"the path interval [{a}, {b}]")
    if not 1 <= variation.dof <= path.n:
        raise ValidationError(f"variation dof {variation.dof} out of range")


def action_derivative(ds: DerivedSystem, path, variation: Variation,
                      quad_points: int = _DEFAULT_QUAD_POINTS,
                      integrand: str = "lagrangian") -> float:
    """Directional derivative of the action along a variation.

    Central finite difference in the variation scale, 1e-5.  When the two
    one-sided differences disagree by more than 10 percent the result is
    Richardson-extrapolated from a second central difference at half the
    scale.  The bump vanishes outside its support, where the actions of
    the difference agree exactly, so each action sums the support alone:
    all of them share one quadrature grid on it, so quadrature error
    cancels in the differences, and one set of path and bump derivatives
    on it, each action adding its scaled bump jets to the path jets of
    the variation's dof.  The actions of one difference are evaluated
    together: their jets are laid side by side along the grid axis, so
    the integrand is called once for the three actions of the central
    difference and once for the two of the Richardson step, and each
    action is one product with the Simpson weights, built once.
    """
    _check_path(ds, path)
    _variation_inside(path, variation)
    f, top = _integrand(ds, integrand)
    row = variation.dof - 1
    ts, h = _nodes(variation.support, quad_points)
    jets, bump = path.jets(ts, top), variation.jets(ts, top)
    weights, size = _simpson_weights(ts.size), ts.size

    def actions(*scales):
        varied = np.concatenate([jets] * len(scales), axis=-1)
        for i, scale in enumerate(scales):
            if scale:
                varied[row, :, i * size:(i + 1) * size] += scale * bump
        values = f(ds, np.concatenate([ts] * len(scales)), varied)
        return [_simpson(part, h, weights)
                for part in values.reshape(len(scales), size)]

    s_plus, s_minus, s_zero = actions(_EPSILON, -_EPSILON, 0.0)
    central = (s_plus - s_minus) / (2.0 * _EPSILON)
    d_plus = (s_plus - s_zero) / _EPSILON
    d_minus = (s_zero - s_minus) / _EPSILON
    disagreement = abs(d_plus - d_minus)
    if disagreement > 0.1 * max(abs(d_plus), abs(d_minus)):
        s_half, s_minus_half = actions(0.5 * _EPSILON, -0.5 * _EPSILON)
        half = (s_half - s_minus_half) / _EPSILON
        return (4.0 * half - central) / 3.0
    return central


def first_variation(ds: DerivedSystem, path, variation: Variation,
                    quad_points: int = _DEFAULT_QUAD_POINTS) -> float:
    """The boundary-free first variation, integral of el * v.

    The variation's derivatives vanish to high order at its support ends,
    so integration by parts leaves only the Euler-Lagrange factor; this is
    the analytic value that :func:`action_derivative` approximates.
    """
    _check_path(ds, path)
    _variation_inside(path, variation)
    ts, h = _nodes(variation.support, quad_points)
    el = _values(ds.el[variation.dof - 1], _path_env(path, ts, 2 * ds.k),
                 ts.shape)
    return _simpson(el * variation.derivative_values(ts), h)


@dataclass
class StationarityReport:
    """Result of probing a path with random admissible variations."""

    stationary: bool
    action: float
    max_abs_derivative: float
    tolerance: float
    derivatives: list = field(default_factory=list)
    variations: list = field(default_factory=list)
    seed: int = 0

    def to_dict(self):
        return {
            "stationary": self.stationary,
            "action": self.action,
            "max_abs_derivative": self.max_abs_derivative,
            "tolerance": self.tolerance,
            "n_variations": len(self.derivatives),
            "derivatives": list(self.derivatives),
            "seed": self.seed,
        }


def stationarity_check(ds: DerivedSystem, path, n_variations: int = 20,
                       tol: float = 1e-6, seed: int = 0,
                       quad_points: int = _DEFAULT_QUAD_POINTS
                       ) -> StationarityReport:
    """Probe stationarity of the action with seeded random bump variations.

    The path passes when its action S is finite and max |dS| <=
    tol * (1 + |S|) over all drawn variations; each dS differences the
    action over its bump's support only, so an overflow outside every
    support leaves it finite.  Bump exponents are k + 1 so every variation
    is admissible for the order of the problem.
    """
    _check_path(ds, path)
    if n_variations < 1:
        raise ValidationError("at least one variation is required")
    rng = np.random.default_rng(seed)
    a, b = path.interval
    span = b - a
    margin = 1e-9 * span
    variations = []
    for _ in range(n_variations):
        dof = int(rng.integers(1, ds.n + 1))
        half_width = float(rng.uniform(0.05, 0.15)) * span
        center = float(rng.uniform(a + half_width + margin,
                                   b - half_width - margin))
        variations.append(Variation(dof=dof, center=center,
                                    half_width=half_width,
                                    exponent=ds.k + 1))

    derivatives = [action_derivative(ds, path, v, quad_points=quad_points)
                   for v in variations]
    action = discrete_action(ds, path, "lagrangian", quad_points)
    max_abs = float(np.max(np.abs(derivatives)))
    return StationarityReport(
        stationary=math.isfinite(action)
        and max_abs <= tol * (1.0 + abs(action)),
        action=action, max_abs_derivative=max_abs, tolerance=tol,
        derivatives=derivatives, variations=variations, seed=seed)


def el_along_path(ds: DerivedSystem, path, ts) -> np.ndarray:
    """Euler-Lagrange residuals of an analytic path, one row per dof."""
    _check_path(ds, path)
    return _values(ds.el, _path_env(path, ts, 2 * ds.k), np.shape(ts))


# ---------------------------------------------------------------------------
# the path of a recorded trajectory
# ---------------------------------------------------------------------------


def _taylor_basis(m):
    """Monomial coefficients, in s = (t - t_j) / h on one interval, of the
    two-point Taylor basis of degree 2m - 1.  Row i of the first array
    takes the scaled derivative h^i q_i / i! at s = 0, row i of the second
    that at s = 1: s^i (1 - s)^m sum_{j < m - i} C(m - 1 + j, j) s^j, and
    that function of 1 - s times (-1)^i."""
    s = np.polynomial.Polynomial([0.0, 1.0])
    left = [s ** i * (1 - s) ** m * sum(math.comb(m - 1 + j, j) * s ** j
                                        for j in range(m - i))
            for i in range(m)]
    return (np.array([p.coef for p in left]),
            np.array([(-1) ** i * p(1 - s).coef for i, p in enumerate(left)]))


class HermitePath:
    """The piecewise polynomial through a trajectory's recorded jets.

    On each grid interval it is the polynomial of degree 2k + 1 that takes
    the recorded q_0 .. q_k at both ends, so it is exact at the nodes and
    joins C^k; the grid fixes it.  At k = 1, where a cubic is too coarse
    for a bump a few steps wide, it also takes q_2, the recorded q_1
    differenced, and has degree 5.  ``coefficients[p, a, j]`` multiplies
    s^p, s = (t - t_j) / (t_j+1 - t_j), for dof a on interval j.
    """

    def __init__(self, traj: Trajectory):
        grid = traj.grid
        jets = _split_state(traj.states.T, traj.k, traj.n)[0][:, :traj.k + 1]
        if traj.k == 1:
            jets = np.concatenate([jets, fd_derivative(grid, jets[:, 1:])],
                                  axis=1)
        m, steps = jets.shape[1], np.diff(grid)
        # the Taylor data h^i q_i / i! at both ends of every interval
        scale = np.array([steps ** i / math.factorial(i) for i in range(m)])
        left, right = _taylor_basis(m)
        self.grid, self.n = grid, traj.n
        self.interval = (float(grid[0]), float(grid[-1]))
        self.coefficients = (
            np.einsum("aij,ip->paj", jets[..., :-1] * scale, left)
            + np.einsum("aij,ip->paj", jets[..., 1:] * scale, right))

    def jets(self, ts, max_order: int) -> np.ndarray:
        """jets[a, i]: the order-i time derivative of dof a at the given
        times, orders 0 .. max_order; each time is read on the interval
        that holds it, the right one at a node."""
        ts = np.asarray(ts, dtype=float)
        grid, c = self.grid, self.coefficients
        j = np.clip(np.searchsorted(grid, ts, side="right") - 1, 0,
                    grid.size - 2)
        steps = grid[j + 1] - grid[j]
        x = (ts - grid[j]) / steps
        out = np.zeros((self.n, max_order + 1, ts.size))
        for order in range(min(max_order + 1, len(c))):
            # Horner's rule in s on the order-th s-derivative, whose
            # coefficient of s^(p - order) is c[p] p! / (p - order)!; one
            # interval's coefficients are gathered per time and power
            for power in range(len(c) - 1, order - 1, -1):
                out[:, order] *= x
                out[:, order] += math.perm(power, order) * c[power][:, j]
            out[:, order] /= steps ** order
        return out
