"""System models and points of the underlying jet and jet-momentum spaces.

A system of order k with n degrees of freedom lives on jet coordinates
q_i^A for orders i = 0 .. 2k-1 together with momenta p_A^i for levels
i = 0 .. k-1.  Flattened state vectors and file columns are dof-major:
all orders of dof 1, then all orders of dof 2, and so on, with momenta
appended in the same pattern.  This module alone defines that layout:
:func:`_coordinates` names the coordinates in order, :func:`_split_state`
views a state as jets[a, i] and momenta[a, i], :func:`_bindings` binds them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import DimensionError, ValidationError

__all__ = [
    "SystemModel", "JetPoint", "UnifiedPoint", "build_system",
    "jet_of_polynomial", "jet_bindings", "unified_bindings",
]


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SystemModel:
    """A validated k-th order Lagrangian system.

    ``lagrangian`` has parameter values already substituted, so downstream
    derivations work with purely numeric coefficients; the declared values
    stay available in ``parameters`` and the original text in
    ``lagrangian_text``.
    """

    name: str
    k: int
    n: int
    lagrangian: ex.Expression
    parameters: dict = field(default_factory=dict)
    autonomous: bool = True
    lagrangian_text: str = ""

    @property
    def jet_count(self) -> int:
        """Number of jet coordinates, 2kn."""
        return 2 * self.k * self.n

    @property
    def momentum_count(self) -> int:
        """Number of momentum coordinates, kn."""
        return self.k * self.n


@dataclass(frozen=True)
class JetPoint:
    """A point of jet space: time plus the array q[(dof, order)].

    ``q`` has shape (n, orders); a full point of the integration state
    space carries orders 0 .. 2k-1.
    """

    t: float
    q: np.ndarray

    def __post_init__(self):
        q = _readonly(self.q)
        if q.ndim != 2:
            raise DimensionError("jet coordinates must form a 2-d array (dof, order)")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def orders(self) -> int:
        return self.q.shape[1]

    def to_state(self) -> np.ndarray:
        """Flatten to the dof-major state vector (time not included)."""
        return self.q.reshape(-1).copy()

    @classmethod
    def from_state(cls, t: float, y, k: int, n: int) -> "JetPoint":
        y = np.asarray(y, dtype=float)
        if y.shape != (2 * k * n,):
            raise DimensionError(
                f"jet state must have length {2 * k * n}, got {y.shape}")
        return cls(t, _split_state(y, k, n)[0])


@dataclass(frozen=True)
class UnifiedPoint:
    """A point of the unified jet-momentum space.

    Wraps a :class:`JetPoint` with momenta of shape (n, k) and, optionally,
    the extended momentum coordinate ``p_ext`` conjugate to time.
    """

    jet: JetPoint
    momenta: np.ndarray
    p_ext: float | None = None

    def __post_init__(self):
        momenta = _readonly(self.momenta)
        if momenta.ndim != 2:
            raise DimensionError("momenta must form a 2-d array (dof, level)")
        if momenta.shape[0] != self.jet.n:
            raise DimensionError(
                f"momenta rows ({momenta.shape[0]}) disagree with the jet "
                f"dof count ({self.jet.n})")
        object.__setattr__(self, "momenta", momenta)
        if self.p_ext is not None:
            object.__setattr__(self, "p_ext", float(self.p_ext))

    @property
    def t(self) -> float:
        return self.jet.t

    def to_state(self) -> np.ndarray:
        """Flatten to the dof-major (jets, momenta) state vector."""
        return np.concatenate([self.jet.to_state(), self.momenta.reshape(-1)])

    @classmethod
    def from_state(cls, t: float, y, k: int, n: int,
                   p_ext: float | None = None) -> "UnifiedPoint":
        y = np.asarray(y, dtype=float)
        if y.shape != (3 * k * n,):
            raise DimensionError(
                f"unified state must have length {3 * k * n}, got {y.shape}")
        jets, momenta = _split_state(y, k, n)
        return cls(JetPoint(t, jets), momenta, p_ext)


@functools.cache
def _coordinates(n: int, orders: int, levels: int) -> tuple:
    """Time, then the jets q_i^A (i < orders) and then the momenta p_A^i
    (i < levels), each dof-major."""
    return (ex.time_var(),
            *(ex.jet(a, i) for a in range(1, n + 1) for i in range(orders)),
            *(ex.momentum(a, i) for a in range(1, n + 1)
              for i in range(levels)))


def _split_state(y, k: int, n: int):
    """Views jets[a, i] and momenta[a, i] of a state laid out along axis 0
    (a trajectory passes ``states.T``); a jet state has no momentum levels."""
    rest = y.shape[1:]
    return (y[:2 * k * n].reshape(n, 2 * k, *rest),
            y[2 * k * n:].reshape(n, -1, *rest))


def _bindings(t, jets, momenta=None, p_ext=None) -> dict:
    """Evaluation bindings {VarRef: value} with jets[a, i] bound to
    q_i^(a+1) and momenta[a, i] to p_(a+1)^i; the values are scalars at a
    point or arrays over a grid."""
    n, orders, *rest = jets.shape
    levels = 0 if momenta is None else momenta.shape[1]
    env = dict(zip(_coordinates(n, orders, levels),
                   (t, *jets.reshape(-1, *rest),
                    *(momenta.reshape(-1, *rest) if levels else ()))))
    if p_ext is not None:
        env[ex.ext_momentum()] = p_ext
    return env


def jet_bindings(jp: JetPoint) -> dict:
    """Evaluation bindings {VarRef: value} for a jet point."""
    return _bindings(jp.t, jp.q)


def unified_bindings(up: UnifiedPoint) -> dict:
    """Evaluation bindings for a unified point (jets, momenta, optional p)."""
    return _bindings(up.t, up.jet.q, up.momenta, up.p_ext)


def build_system(doc: dict) -> SystemModel:
    """Build and validate a system model from a spec document.

    The document is a mapping with keys ``name``, ``order`` (k >= 1),
    ``dofs`` (n >= 1), ``lagrangian`` (expression text), optional
    ``parameters`` (name to value) and optional ``autonomous``.  Validation
    enforces that the Lagrangian uses jet orders at most k, that every
    identifier is a declared parameter or coordinate, and that a system
    declared autonomous has no explicit time dependence.  When the
    ``autonomous`` flag is omitted it is inferred from the Lagrangian.
    """
    if not isinstance(doc, dict):
        raise ValidationError("system description must be a mapping")
    missing = [key for key in ("name", "order", "dofs", "lagrangian")
               if key not in doc]
    if missing:
        raise ValidationError(f"system description lacks fields: {missing}")

    name = str(doc["name"])
    k, n = doc["order"], doc["dofs"]
    if not isinstance(k, int) or k < 1:
        raise ValidationError(f"order must be an integer >= 1, got {k!r}")
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"dofs must be an integer >= 1, got {n!r}")

    parameters = dict(doc.get("parameters") or {})
    for pname, value in parameters.items():
        if not isinstance(value, (int, float)):
            raise ValidationError(
                f"parameter {pname!r} must be numeric, got {value!r}")
        parameters[pname] = float(value)

    text = doc["lagrangian"]
    if not isinstance(text, str):
        raise ValidationError("lagrangian must be expression text")
    context = ex.SystemContext.for_lagrangian(k, n, parameters)
    lagrangian = ex.parse(text, context)

    time_free = ex.time_var() in lagrangian.free_vars()
    autonomous = doc.get("autonomous")
    if autonomous is None:
        autonomous = not time_free
    elif autonomous and time_free:
        raise ValidationError(
            "system is declared autonomous but the Lagrangian depends on t")

    # bind parameter values now; every later derivation sees numbers only
    if parameters:
        bound = {ex.parameter(pname): value
                 for pname, value in parameters.items()}
        lagrangian = ex.substitute(lagrangian, bound)
    lagrangian = ex.simplify(lagrangian)

    return SystemModel(name=name, k=k, n=n, lagrangian=lagrangian,
                       parameters=parameters, autonomous=bool(autonomous),
                       lagrangian_text=text)


def jet_of_polynomial(coefficients, t: float, max_order: int) -> JetPoint:
    """Exact jet of polynomial curves at time t.

    ``coefficients`` is one ascending coefficient sequence per dof (a
    single sequence is accepted for n = 1).  Entry (a, i) of the result is
    the exact i-th derivative of the a-th polynomial at t, for orders
    0 .. max_order.
    """
    if max_order < 0:
        raise ValidationError("max_order must be non-negative")
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.ndim == 1:
        coeffs = coeffs[None, :]
    if coeffs.ndim != 2:
        raise DimensionError("coefficients must be one sequence per dof")
    n = coeffs.shape[0]
    q = np.zeros((n, max_order + 1))
    for a in range(n):
        poly = np.polynomial.polynomial.Polynomial(coeffs[a])
        for i in range(max_order + 1):
            q[a, i] = poly.deriv(i)(t) if i else poly(t)
    return JetPoint(t, q)
