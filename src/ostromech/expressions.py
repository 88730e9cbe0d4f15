"""Symbolic expression kernel for jet-space mechanics.

Immutable expression trees over a fixed variable alphabet: the time
coordinate ``t``, jet coordinates ``q_i^A`` (dof ``A``, derivative order
``i``), conjugate momenta ``p_A^i``, one optional extended momentum, and
named scalar parameters.  The kernel provides exact partial derivatives,
total time derivatives along holonomic prolongations, a terminating
simplifier, numeric evaluation over scalars or numpy arrays, parsing and
printing of a small infix grammar, and seeded numeric equivalence checks.

Equality of expressions is structural.  Semantic equality is established
numerically with :func:`equivalent_numeric`; no canonical form is claimed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainEvalError,
    JetOrderError,
    OrderOverflowError,
    ParseError,
    UnboundVariableError,
    UnknownIdentifierError,
    ValidationError,
)

__all__ = [
    "VarRef", "time_var", "jet", "momentum", "ext_momentum", "parameter",
    "Expression", "Const", "Variable", "Sum", "Product", "Power", "Neg",
    "Quotient", "Call",
    "SystemContext", "parse", "to_text",
    "diff", "total_derivative", "simplify", "substitute",
    "equivalent_numeric", "EquivalenceResult", "sample_point",
    "DEFAULT_SAMPLE_RANGE",
]

# Default sampling interval for variables with no explicit domain entry.
DEFAULT_SAMPLE_RANGE = (-2.0, 2.0)


# ---------------------------------------------------------------------------
# variable references
# ---------------------------------------------------------------------------

_KIND_RANK = {"time": 0, "jet": 1, "momentum": 2, "ext": 3, "param": 4}


@dataclass(frozen=True)
class VarRef:
    """Reference to one coordinate of the extended jet-momentum space.

    ``kind`` is one of ``time``, ``jet``, ``momentum``, ``ext`` (the single
    extended momentum coordinate), or ``param``.  ``dof`` is 1-based,
    ``order`` is the jet order for jets and the momentum level for momenta.
    """

    kind: str
    dof: int = 0
    order: int = 0
    name: str = ""

    def display(self, n_dofs: int = 1) -> str:
        """Grammar-conformant identifier for this variable."""
        if self.kind == "time":
            return "t"
        if self.kind == "jet":
            return f"q{self.order}" if n_dofs == 1 else f"q{self.order}_{self.dof}"
        if self.kind == "momentum":
            return f"p{self.order}" if n_dofs == 1 else f"p{self.order}_{self.dof}"
        if self.kind == "ext":
            return "p"
        return self.name

    def _key(self):
        return (_KIND_RANK[self.kind], self.dof, self.order, self.name)

    def __repr__(self):
        if self.kind == "param":
            return f"VarRef(param {self.name!r})"
        if self.kind in ("jet", "momentum"):
            return f"VarRef({self.kind} dof={self.dof} order={self.order})"
        return f"VarRef({self.kind})"


def time_var() -> VarRef:
    return VarRef("time")


def jet(dof: int, order: int) -> VarRef:
    """Jet coordinate q_order for 1-based dof index."""
    if dof < 1 or order < 0:
        raise ValidationError(f"invalid jet coordinate: dof={dof}, order={order}")
    return VarRef("jet", dof=dof, order=order)


def momentum(dof: int, level: int) -> VarRef:
    """Momentum coordinate p^level conjugate to the 1-based dof index."""
    if dof < 1 or level < 0:
        raise ValidationError(f"invalid momentum coordinate: dof={dof}, level={level}")
    return VarRef("momentum", dof=dof, order=level)


def ext_momentum() -> VarRef:
    return VarRef("ext")


def parameter(name: str) -> VarRef:
    return VarRef("param", name=name)


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


class Expression:
    """Base class of all expression nodes.  Instances are immutable."""

    __slots__ = ("_free", "_kcache", "_hash")

    # every concrete node sets _free (frozenset of VarRef) in __init__

    def free_vars(self) -> frozenset:
        return self._free

    def key(self):
        """Structural key: a nested tuple usable for ordering and hashing."""
        k = self._kcache
        if k is None:
            k = self._make_key()
            object.__setattr__(self, "_kcache", k)
        return k

    def evaluate(self, bindings):
        """Evaluate with a ``{VarRef: value}`` mapping.  Values may be floats
        or numpy arrays of a common shape."""
        return self._eval(bindings)

    # -- python niceties ----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Expression) and self.key() == other.key()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        return Sum(self, _coerce(other))

    def __radd__(self, other):
        return Sum(_coerce(other), self)

    def __sub__(self, other):
        return Sum(self, Neg(_coerce(other)))

    def __rsub__(self, other):
        return Sum(_coerce(other), Neg(self))

    def __mul__(self, other):
        return Product(self, _coerce(other))

    def __rmul__(self, other):
        return Product(_coerce(other), self)

    def __truediv__(self, other):
        return Quotient(self, _coerce(other))

    def __rtruediv__(self, other):
        return Quotient(_coerce(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, exponent):
        return Power(self, exponent)

    def __repr__(self):
        return f"<{type(self).__name__} {to_text(self)}>"

    def _init_common(self, free):
        object.__setattr__(self, "_free", free)
        object.__setattr__(self, "_kcache", None)
        object.__setattr__(self, "_hash", None)


def _coerce(value) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Const(float(value))
    raise TypeError(f"cannot use {value!r} in an expression")


class Const(Expression):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))
        self._init_common(frozenset())

    def _make_key(self):
        return (0, self.value)

    def _eval(self, env):
        return self.value


class Variable(Expression):
    __slots__ = ("ref",)

    def __init__(self, ref: VarRef):
        object.__setattr__(self, "ref", ref)
        self._init_common(frozenset((ref,)))

    def _make_key(self):
        return (1,) + self.ref._key()

    def _eval(self, env):
        try:
            return env[self.ref]
        except KeyError:
            raise UnboundVariableError(self.ref) from None


class Sum(Expression):
    __slots__ = ("terms",)

    def __init__(self, *terms):
        terms = tuple(_coerce(term) for term in terms)
        if len(terms) < 2:
            raise ValidationError("a sum needs at least two terms")
        object.__setattr__(self, "terms", terms)
        self._init_common(frozenset().union(*(t._free for t in terms)))

    def _make_key(self):
        return (6, len(self.terms)) + tuple(t.key() for t in self.terms)

    def _eval(self, env):
        total = self.terms[0]._eval(env)
        for term in self.terms[1:]:
            total = total + term._eval(env)
        return total


class Product(Expression):
    __slots__ = ("factors",)

    def __init__(self, *factors):
        factors = tuple(_coerce(f) for f in factors)
        if len(factors) < 2:
            raise ValidationError("a product needs at least two factors")
        object.__setattr__(self, "factors", factors)
        self._init_common(frozenset().union(*(f._free for f in factors)))

    def _make_key(self):
        return (5, len(self.factors)) + tuple(f.key() for f in self.factors)

    def _eval(self, env):
        total = self.factors[0]._eval(env)
        for factor in self.factors[1:]:
            total = total * factor._eval(env)
        return total


class Power(Expression):
    """Power with a literal numeric exponent (the grammar admits no other)."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        if isinstance(exponent, Expression):
            if not isinstance(exponent, Const):
                raise ValidationError("power exponents must be numeric literals")
            exponent = exponent.value
        if not isinstance(exponent, (int, float, np.integer, np.floating)):
            raise ValidationError("power exponents must be numeric literals")
        object.__setattr__(self, "base", _coerce(base))
        object.__setattr__(self, "exponent", float(exponent))
        self._init_common(self.base._free)

    def _make_key(self):
        return (3, self.base.key(), self.exponent)

    def _eval(self, env):
        b = self.base._eval(env)
        e = self.exponent
        if isinstance(b, np.ndarray):
            if not e.is_integer():
                if np.any(b < 0):
                    raise DomainEvalError(
                        f"negative base raised to non-integer power {e}")
            if e < 0 and np.any(b == 0.0):
                raise DomainEvalError("zero raised to a negative power")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                try:
                    return np.power(b, e)
                except FloatingPointError as exc:
                    raise DomainEvalError(f"power evaluation failed: {exc}") from None
        if b < 0 and not e.is_integer():
            raise DomainEvalError(f"negative base {b!r} raised to non-integer power {e}")
        if b == 0.0 and e < 0:
            raise DomainEvalError("zero raised to a negative power")
        try:
            return b ** e
        except OverflowError:
            raise DomainEvalError("overflow in power evaluation") from None


class Neg(Expression):
    __slots__ = ("child",)

    def __init__(self, child):
        object.__setattr__(self, "child", _coerce(child))
        self._init_common(self.child._free)

    def _make_key(self):
        return (7, self.child.key())

    def _eval(self, env):
        return -self.child._eval(env)


class Quotient(Expression):
    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator):
        object.__setattr__(self, "numerator", _coerce(numerator))
        object.__setattr__(self, "denominator", _coerce(denominator))
        self._init_common(self.numerator._free | self.denominator._free)

    def _make_key(self):
        return (4, self.numerator.key(), self.denominator.key())

    def _eval(self, env):
        num = self.numerator._eval(env)
        den = self.denominator._eval(env)
        if isinstance(den, np.ndarray):
            if np.any(den == 0.0):
                raise DomainEvalError("division by zero")
        elif den == 0.0:
            raise DomainEvalError("division by zero")
        return num / den


_SCALAR_FUNCS = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "log": math.log, "sqrt": math.sqrt,
}
_ARRAY_FUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt,
}
FUNCTION_NAMES = tuple(sorted(_SCALAR_FUNCS))


class Call(Expression):
    """Unary function application: sin, cos, exp, log, sqrt."""

    __slots__ = ("fname", "arg")

    def __init__(self, fname, arg):
        if fname not in _SCALAR_FUNCS:
            raise ValidationError(f"unknown function {fname!r}")
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "arg", _coerce(arg))
        self._init_common(self.arg._free)

    def _make_key(self):
        return (2, self.fname, self.arg.key())

    def _eval(self, env):
        x = self.arg._eval(env)
        name = self.fname
        if isinstance(x, np.ndarray):
            if name == "log" and np.any(x <= 0.0):
                raise DomainEvalError("log of a non-positive value")
            if name == "sqrt" and np.any(x < 0.0):
                raise DomainEvalError("sqrt of a negative value")
            with np.errstate(over="raise", invalid="raise"):
                try:
                    return _ARRAY_FUNCS[name](x)
                except FloatingPointError as exc:
                    raise DomainEvalError(f"{name} evaluation failed: {exc}") from None
        if name == "log" and x <= 0.0:
            raise DomainEvalError(f"log of non-positive value {x!r}")
        if name == "sqrt" and x < 0.0:
            raise DomainEvalError(f"sqrt of negative value {x!r}")
        try:
            return _SCALAR_FUNCS[name](x)
        except (ValueError, OverflowError) as exc:
            raise DomainEvalError(f"{name} evaluation failed: {exc}") from None


# ---------------------------------------------------------------------------
# helpers over trees
# ---------------------------------------------------------------------------


def substitute(expr: Expression, mapping) -> Expression:
    """Replace variables by expressions or numbers, rebuilding the tree."""
    mapping = {ref: _coerce(value) for ref, value in mapping.items()}

    def walk(e):
        if isinstance(e, Const):
            return e
        if isinstance(e, Variable):
            return mapping.get(e.ref, e)
        if not (e._free & mapping.keys()):
            return e
        if isinstance(e, Sum):
            return Sum(*(walk(t) for t in e.terms))
        if isinstance(e, Product):
            return Product(*(walk(f) for f in e.factors))
        if isinstance(e, Power):
            return Power(walk(e.base), e.exponent)
        if isinstance(e, Neg):
            return Neg(walk(e.child))
        if isinstance(e, Quotient):
            return Quotient(walk(e.numerator), walk(e.denominator))
        if isinstance(e, Call):
            return Call(e.fname, walk(e.arg))
        raise TypeError(f"unknown node {type(e).__name__}")

    return walk(expr)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_zero(e):
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e):
    return isinstance(e, Const) and e.value == 1.0


def _add(*terms):
    terms = [t for t in terms if not _is_zero(t)]
    if not terms:
        return _ZERO
    if len(terms) == 1:
        return terms[0]
    return Sum(*terms)


def _mul(*factors):
    if any(_is_zero(f) for f in factors):
        return _ZERO
    factors = [f for f in factors if not _is_one(f)]
    if not factors:
        return _ONE
    if len(factors) == 1:
        return factors[0]
    return Product(*factors)


def diff(expr: Expression, ref: VarRef) -> Expression:
    """Exact partial derivative with respect to one variable.

    The result is not simplified; pass it through :func:`simplify` when a
    compact tree is wanted.
    """
    if ref not in expr.free_vars():
        return _ZERO
    if isinstance(expr, Variable):
        return _ONE if expr.ref == ref else _ZERO
    if isinstance(expr, Sum):
        return _add(*(diff(t, ref) for t in expr.terms))
    if isinstance(expr, Product):
        factors = expr.factors
        terms = []
        for i, factor in enumerate(factors):
            d = diff(factor, ref)
            if _is_zero(d):
                continue
            rest = factors[:i] + factors[i + 1:]
            terms.append(_mul(d, *rest))
        return _add(*terms)
    if isinstance(expr, Power):
        e = expr.exponent
        inner = diff(expr.base, ref)
        if e == 1.0:
            return inner
        return _mul(Const(e), Power(expr.base, e - 1.0), inner)
    if isinstance(expr, Neg):
        return Neg(diff(expr.child, ref))
    if isinstance(expr, Quotient):
        num, den = expr.numerator, expr.denominator
        dnum, dden = diff(num, ref), diff(den, ref)
        if _is_zero(dden):
            return Quotient(dnum, den)
        return Quotient(_add(_mul(dnum, den), Neg(_mul(num, dden))),
                        Power(den, 2.0))
    if isinstance(expr, Call):
        inner = diff(expr.arg, ref)
        x = expr.arg
        if expr.fname == "sin":
            outer = Call("cos", x)
        elif expr.fname == "cos":
            outer = Neg(Call("sin", x))
        elif expr.fname == "exp":
            outer = Call("exp", x)
        elif expr.fname == "log":
            outer = Quotient(_ONE, x)
        else:  # sqrt
            outer = Quotient(_ONE, _mul(Const(2.0), Call("sqrt", x)))
        return _mul(outer, inner)
    raise TypeError(f"cannot differentiate node {type(expr).__name__}")


def total_derivative(expr: Expression, max_order: int) -> Expression:
    """Total time derivative along holonomic prolongations.

    Applies d/dt = d/dt|explicit + sum over jets of q_{i+1} d/dq_i, so each
    jet coordinate of order i contributes a term through its successor of
    order i+1.  Momenta and parameters are treated as constants.
    ``max_order`` caps the highest jet order the result may contain; the
    call raises :class:`OrderOverflowError` rather than exceed it.
    """
    jets = sorted((v for v in expr.free_vars() if v.kind == "jet"),
                  key=lambda v: (v.dof, v.order))
    for v in jets:
        if v.order + 1 > max_order:
            raise OrderOverflowError(
                f"total derivative would create jet order {v.order + 1}, "
                f"above the cap {max_order}")
    terms = [diff(expr, time_var())]
    for v in jets:
        terms.append(_mul(Variable(jet(v.dof, v.order + 1)), diff(expr, v)))
    return _add(*terms)


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------


def _term_parts(e):
    """Decompose a (simplified) term as coefficient * ordered factors."""
    if isinstance(e, Const):
        return e.value, ()
    if isinstance(e, Neg):
        coeff, rest = _term_parts(e.child)
        return -coeff, rest
    if isinstance(e, Product):
        coeff = 1.0
        rest = []
        for f in e.factors:
            if isinstance(f, Const):
                coeff *= f.value
            elif isinstance(f, Neg):
                coeff = -coeff
                rest.append(f.child)
            else:
                rest.append(f)
        return coeff, tuple(rest)
    return 1.0, (e,)


def _rebuild_term(coeff, factors):
    if coeff == 0.0:
        return _ZERO
    if not factors:
        return Const(coeff)
    body = factors[0] if len(factors) == 1 else Product(*factors)
    if coeff == 1.0:
        return body
    if coeff == -1.0:
        return Neg(body)
    return Product(Const(coeff), *factors)


def _simplify_product(factors):
    coeff = 1.0
    bases = []          # ordered list of base expressions
    exponents = {}      # key -> [base, exponent]
    for f in factors:
        if isinstance(f, Const):
            coeff *= f.value
            continue
        if isinstance(f, Neg):
            coeff = -coeff
            f = f.child
        if isinstance(f, Power):
            base, exp = f.base, f.exponent
        else:
            base, exp = f, 1.0
        k = base.key()
        if k in exponents:
            exponents[k][1] += exp
        else:
            exponents[k] = [base, exp]
            bases.append(k)
    if coeff == 0.0:
        return _ZERO
    out = []
    for k in sorted(bases):
        base, exp = exponents[k]
        if exp == 0.0:
            continue
        out.append(base if exp == 1.0 else Power(base, exp))
    return _rebuild_term(coeff, tuple(out))


def _simplify_sum(terms):
    order = []          # insertion-free deterministic ordering of keys
    collected = {}      # factors-key -> [coeff, factors]
    for t in terms:
        coeff, factors = _term_parts(t)
        k = tuple(f.key() for f in factors)
        if k in collected:
            collected[k][0] += coeff
        else:
            collected[k] = [coeff, factors]
            order.append(k)
    out = []
    for k in sorted(order):
        coeff, factors = collected[k]
        if coeff == 0.0:
            continue
        out.append(_rebuild_term(coeff, factors))
    if not out:
        return _ZERO
    if len(out) == 1:
        return out[0]
    return Sum(*out)


def simplify(expr: Expression) -> Expression:
    """One bottom-up normalization pass.

    Performs constant folding, the 0/1 identities, flattening of nested
    sums and products, collection of like terms with numeric coefficients,
    and merging of repeated factors into powers.  The result is numerically
    equivalent to the input; no canonical form beyond that is promised, and
    the pass always terminates because every node is rewritten once.
    """
    if isinstance(expr, (Const, Variable)):
        return expr

    if isinstance(expr, Sum):
        flat = []
        for term in expr.terms:
            s = simplify(term)
            if isinstance(s, Sum):
                flat.extend(s.terms)
            elif not _is_zero(s):
                flat.append(s)
        return _simplify_sum(flat)

    if isinstance(expr, Product):
        flat = []
        for factor in expr.factors:
            s = simplify(factor)
            if isinstance(s, Product):
                flat.extend(s.factors)
            else:
                flat.append(s)
        return _simplify_product(flat)

    if isinstance(expr, Neg):
        child = simplify(expr.child)
        if isinstance(child, Const):
            return Const(-child.value)
        if isinstance(child, Neg):
            return child.child
        coeff, factors = _term_parts(child)
        return _rebuild_term(-coeff, factors)

    if isinstance(expr, Power):
        base = simplify(expr.base)
        e = expr.exponent
        if e == 0.0:
            return _ONE
        if e == 1.0:
            return base
        if isinstance(base, Const):
            probe = Power(base, e)
            try:
                return Const(probe._eval({}))
            except DomainEvalError:
                return probe
        if isinstance(base, Power) and base.exponent.is_integer() and e.is_integer():
            return Power(base.base, base.exponent * e)
        return Power(base, e)

    if isinstance(expr, Quotient):
        num = simplify(expr.numerator)
        den = simplify(expr.denominator)
        if isinstance(den, Const):
            if den.value == 0.0:
                return Quotient(num, den)
            if den.value == 1.0:
                return num
            return simplify(_mul(Const(1.0 / den.value), num))
        if _is_zero(num):
            return _ZERO
        return Quotient(num, den)

    if isinstance(expr, Call):
        arg = simplify(expr.arg)
        if isinstance(arg, Const):
            probe = Call(expr.fname, arg)
            try:
                return Const(probe._eval({}))
            except DomainEvalError:
                return probe
        return Call(expr.fname, arg)

    raise TypeError(f"cannot simplify node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


_RESERVED = frozenset(("t", "p") + FUNCTION_NAMES)
_COORD_PATTERN = re.compile(r"^[qp]\d+(_\d+)?$")
_JET_PATTERN = re.compile(r"^q(\d+)(?:_(\d+))?$")
_MOMENTUM_PATTERN = re.compile(r"^p(\d+)(?:_(\d+))?$")
_IDENT_PATTERN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class SystemContext:
    """Parsing context fixing the coordinate alphabet.

    ``max_jet_order`` bounds the admissible jet orders; ``momentum_levels``
    is the number of momentum levels visible (0 disables momenta, as in a
    Lagrangian context); ``allow_extended`` admits the bare identifier ``p``
    for the extended momentum.
    """

    n_dofs: int
    max_jet_order: int
    parameters: frozenset
    momentum_levels: int = 0
    allow_extended: bool = False

    def __post_init__(self):
        if self.n_dofs < 1:
            raise ValidationError("a system needs at least one degree of freedom")
        if self.max_jet_order < 0:
            raise ValidationError("max_jet_order must be non-negative")
        object.__setattr__(self, "parameters", frozenset(self.parameters))
        for name in self.parameters:
            if not _IDENT_PATTERN.match(name):
                raise ValidationError(f"invalid parameter name {name!r}")
            if name in _RESERVED or _COORD_PATTERN.match(name):
                raise ValidationError(
                    f"parameter name {name!r} shadows a reserved identifier")

    @classmethod
    def for_lagrangian(cls, k: int, n: int, parameters=()) -> "SystemContext":
        """Context for Lagrangian input: jets up to order k, no momenta."""
        return cls(n_dofs=n, max_jet_order=k, parameters=frozenset(parameters))

    @classmethod
    def for_reports(cls, k: int, n: int, parameters=()) -> "SystemContext":
        """Context wide enough to re-read any printed derived expression:
        jets up to order 2k, momenta up to level k-1, extended momentum."""
        return cls(n_dofs=n, max_jet_order=2 * k, parameters=frozenset(parameters),
                   momentum_levels=k, allow_extended=True)


_TOKEN_RE = re.compile(r"""
    (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    additive   := term (('+' | '-') term)*
    term       := unary (('*' | '/') unary)*
    unary      := '-' unary | power
    power      := atom ('^' exponent)?         (right-associative)
    exponent   := ('-')? number ('^' exponent)?
    atom       := number | ident '(' additive ')' | ident | '(' additive ')'
    """

    def __init__(self, text, context):
        self.text = text
        self.context = context
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        expr = self.additive()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return expr

    def additive(self):
        expr = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                expr = Sum(expr, rhs) if value == "+" else Sum(expr, Neg(rhs))
            else:
                return expr

    def term(self):
        expr = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                expr = Product(expr, rhs) if value == "*" else Quotient(expr, rhs)
            else:
                return expr

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Power(base, self.exponent())
        return base

    def exponent(self):
        # exponents are literals only; chained '^' folds right-associatively
        sign = 1.0
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1.0
            kind, value, pos = self.peek()
        if kind != "number":
            raise ParseError("power exponents must be numeric literals", pos)
        self.advance()
        result = sign * float(value)
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            result = result ** self.exponent()
        return result

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "number":
            self.advance()
            return Const(float(value))
        if kind == "ident":
            self.advance()
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in _SCALAR_FUNCS:
                    raise UnknownIdentifierError(f"unknown function {value!r}", pos)
                self.advance()
                arg = self.additive()
                self.expect_op(")")
                return Call(value, arg)
            return Variable(self.resolve(value, pos))
        if kind == "op" and value == "(":
            self.advance()
            expr = self.additive()
            self.expect_op(")")
            return expr
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)

    def resolve(self, name, pos):
        ctx = self.context
        if name == "t":
            return time_var()
        m = _JET_PATTERN.match(name)
        if m:
            order = int(m.group(1))
            dof = self.coord_dof(m.group(2), name, pos)
            if order > ctx.max_jet_order:
                raise JetOrderError(
                    f"jet order {order} exceeds the maximum {ctx.max_jet_order} "
                    "allowed in this context", pos)
            return jet(dof, order)
        m = _MOMENTUM_PATTERN.match(name)
        if m:
            if ctx.momentum_levels <= 0:
                raise UnknownIdentifierError(
                    f"momentum {name!r} is not available in this context", pos)
            level = int(m.group(1))
            dof = self.coord_dof(m.group(2), name, pos)
            if level >= ctx.momentum_levels:
                raise ParseError(
                    f"momentum level {level} exceeds the maximum "
                    f"{ctx.momentum_levels - 1}", pos)
            return momentum(dof, level)
        if name == "p" and ctx.allow_extended:
            return ext_momentum()
        if name in ctx.parameters:
            return parameter(name)
        raise UnknownIdentifierError(f"unknown identifier {name!r}", pos)

    def coord_dof(self, suffix, name, pos):
        n = self.context.n_dofs
        if suffix is None:
            if n > 1:
                raise ParseError(
                    f"{name!r} needs a dof suffix (such as {name}_1) when the "
                    f"system has {n} degrees of freedom", pos)
            return 1
        dof = int(suffix)
        if not 1 <= dof <= n:
            raise ParseError(f"dof index {dof} out of range 1..{n}", pos)
        return dof


def parse(text: str, context: SystemContext) -> Expression:
    """Parse expression text against a coordinate context."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, context).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_SUM, _PREC_TERM, _PREC_UNARY, _PREC_POWER, _PREC_ATOM = 1, 2, 3, 4, 5


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _wrap(text, prec, minimum):
    return f"({text})" if prec < minimum else text


def _render(expr, n):
    """Return (text, precedence)."""
    if isinstance(expr, Const):
        if expr.value < 0:
            return f"-{_format_number(-expr.value)}", _PREC_UNARY
        return _format_number(expr.value), _PREC_ATOM
    if isinstance(expr, Variable):
        return expr.ref.display(n), _PREC_ATOM
    if isinstance(expr, Call):
        inner, _ = _render(expr.arg, n)
        return f"{expr.fname}({inner})", _PREC_ATOM
    if isinstance(expr, Neg):
        inner, prec = _render(expr.child, n)
        return f"-{_wrap(inner, prec, _PREC_UNARY + 1)}", _PREC_UNARY
    if isinstance(expr, Power):
        base, prec = _render(expr.base, n)
        base = _wrap(base, prec, _PREC_ATOM)
        e = expr.exponent
        etext = _format_number(e) if e >= 0 else f"-{_format_number(-e)}"
        return f"{base}^{etext}", _PREC_POWER
    if isinstance(expr, Quotient):
        num, nprec = _render(expr.numerator, n)
        den, dprec = _render(expr.denominator, n)
        return (f"{_wrap(num, nprec, _PREC_TERM)}/{_wrap(den, dprec, _PREC_TERM + 1)}",
                _PREC_TERM)
    if isinstance(expr, Product):
        parts = []
        for f in expr.factors:
            text, prec = _render(f, n)
            parts.append(_wrap(text, prec, _PREC_TERM + (1 if parts else 0)))
        return "*".join(parts), _PREC_TERM
    if isinstance(expr, Sum):
        first, prec = _render(expr.terms[0], n)
        out = _wrap(first, prec, _PREC_SUM)
        for term in expr.terms[1:]:
            sign, body = _signed_render(term, n)
            out += f" {sign} {body}"
        return out, _PREC_SUM
    raise TypeError(f"cannot render node {type(expr).__name__}")


def _signed_render(term, n):
    """Render a sum term as ('+' | '-', text) pulling a leading minus out."""
    if isinstance(term, Neg):
        inner, prec = _render(term.child, n)
        return "-", _wrap(inner, prec, _PREC_SUM + 1)
    if isinstance(term, Const) and term.value < 0:
        return "-", _format_number(-term.value)
    coeff, factors = _term_parts(term)
    if coeff < 0 and factors:
        flipped = _rebuild_term(-coeff, factors)
        inner, prec = _render(flipped, n)
        return "-", _wrap(inner, prec, _PREC_SUM + 1)
    inner, prec = _render(term, n)
    return "+", _wrap(inner, prec, _PREC_SUM + 1)


def to_text(expr: Expression, n_dofs: int = 1) -> str:
    """Print an expression in the input grammar.

    Re-parsing the output in a sufficiently wide context yields a
    numerically equivalent tree.
    """
    text, _ = _render(expr, n_dofs)
    return text


# ---------------------------------------------------------------------------
# numeric equivalence
# ---------------------------------------------------------------------------


def sample_point(variables, rng, domain=None):
    """Draw one binding for the given variables from a box domain.

    ``domain`` is either a single (lo, hi) pair applied to every variable
    or a map from VarRef to such pairs; missing entries use
    ``DEFAULT_SAMPLE_RANGE``.  Variables are drawn in a fixed sorted
    order, so a seeded generator yields reproducible points.
    """
    per_var = domain if isinstance(domain, dict) else {}
    if domain is None or isinstance(domain, dict):
        default = DEFAULT_SAMPLE_RANGE
    else:
        default = (float(domain[0]), float(domain[1]))
    point = {}
    for v in sorted(variables, key=lambda r: r._key()):
        lo, hi = per_var.get(v, default)
        point[v] = float(rng.uniform(lo, hi))
    return point


@dataclass
class EquivalenceResult:
    """Outcome of a sampled numeric comparison of two expressions."""

    equivalent: bool
    max_deviation: float
    tolerance: float
    samples: int
    worst_point: dict
    worst_values: tuple

    def __bool__(self):
        return self.equivalent


def equivalent_numeric(e1: Expression, e2: Expression, domain=None,
                       samples: int = 100, tol: float = 1e-10,
                       seed: int = 0) -> EquivalenceResult:
    """Compare two expressions numerically on seeded random samples.

    The test at each sampled point is
    ``|v1 - v2| <= tol * (1 + max(|v1|, |v2|))``.  Sampling is deterministic
    for a given seed.  Domain errors at a sample point propagate to the
    caller rather than being swallowed.
    """
    rng = np.random.default_rng(seed)
    variables = e1.free_vars() | e2.free_vars()
    worst = (-1.0, {}, (0.0, 0.0))
    ok = True
    for _ in range(samples):
        point = sample_point(variables, rng, domain)
        v1 = e1.evaluate(point)
        v2 = e2.evaluate(point)
        defect = abs(v1 - v2)
        scaled = defect / (1.0 + max(abs(v1), abs(v2)))
        if scaled > worst[0]:
            worst = (scaled, point, (v1, v2))
        if defect > tol * (1.0 + max(abs(v1), abs(v2))):
            ok = False
    return EquivalenceResult(
        equivalent=ok,
        max_deviation=max(worst[0], 0.0),
        tolerance=tol,
        samples=samples,
        worst_point=worst[1],
        worst_values=worst[2],
    )
