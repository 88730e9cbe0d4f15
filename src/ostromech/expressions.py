"""Symbolic expression kernel for jet-space mechanics.

Immutable expression trees over a fixed variable alphabet: the time
coordinate ``t``, jet coordinates ``q_i^A`` (dof ``A``, derivative order
``i``) and conjugate momenta ``p_A^i``; the parser reads a declared
parameter as its value.  The kernel provides exact partial derivatives,
total time derivatives along holonomic prolongations, a terminating
simplifier, numeric evaluation over scalars or numpy arrays, parsing and
printing of a small infix grammar, and seeded numeric equivalence checks.

Evaluation walks the tree (:meth:`Expression.evaluate`).  For a hot loop,
:func:`compile_kernel` lowers a list of expressions into one generated
straight-line Python function with common subexpressions computed once;
on scalars it performs the tree walker's operations in the tree walker's
order, so its values are the same to the bit.  The tree walker remains
the reference and the error path: where the straight-line code fails,
the kernel itself tree-walks its expressions, so every call answers with
the tree walker's values or its exact :class:`DomainEvalError`.

Equality of expressions is structural.  Semantic equality is established
numerically with :func:`equivalent_numeric`; no canonical form is claimed.
"""

from __future__ import annotations

import logging
import math
import operator
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainEvalError,
    ExpressionError,
    JetOrderError,
    OrderOverflowError,
    ParseError,
    UnboundVariableError,
    UnknownIdentifierError,
    ValidationError,
)

__all__ = [
    "VarRef", "time_var", "jet", "momentum",
    "Expression", "SystemContext", "parse", "to_text",
    "diff", "total_derivative", "simplify", "substitute",
    "equivalent_numeric", "EquivalenceResult",
]

logger = logging.getLogger("ostromech.expressions")

# Default sampling interval for variables with no explicit domain entry.
DEFAULT_SAMPLE_RANGE = (-2.0, 2.0)


# ---------------------------------------------------------------------------
# variable references
# ---------------------------------------------------------------------------

_KIND_RANK = {"time": 0, "jet": 1, "momentum": 2}


@dataclass(frozen=True)
class VarRef:
    """Reference to one coordinate of the jet-momentum space.

    ``kind`` is one of ``time``, ``jet`` or ``momentum``.  ``dof`` is
    1-based, ``order`` is the jet order for jets and the momentum level for
    momenta.
    """

    kind: str
    dof: int = 0
    order: int = 0

    def display(self, n_dofs: int = 1) -> str:
        """Grammar-conformant identifier for this variable."""
        if self.kind == "time":
            return "t"
        if self.kind == "jet":
            return f"q{self.order}" if n_dofs == 1 else f"q{self.order}_{self.dof}"
        return f"p{self.order}" if n_dofs == 1 else f"p{self.order}_{self.dof}"

    def _key(self):
        return (_KIND_RANK[self.kind], self.dof, self.order)

    def __repr__(self):
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

    def __repr__(self):
        try:
            return f"<{type(self).__name__} {to_text(self)}>"
        except ExpressionError:
            return f"<{type(self).__name__} with a non-finite constant>"

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


def _first(values, bad):
    """The first of ``values`` (a float or an array) where ``bad`` holds."""
    return float(np.extract(bad, values)[0])


class Power(Expression):
    """Power with a literal numeric exponent (the grammar admits no other)."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        if isinstance(exponent, Const):
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
        if not e.is_integer() and np.any(b < 0):
            raise DomainEvalError(f"negative base {_first(b, b < 0)!r} "
                                  f"raised to non-integer power {e}")
        if e < 0 and np.any(b == 0.0):
            raise DomainEvalError("zero raised to a negative power")
        if isinstance(b, np.ndarray):
            return np.power(b, e)
        try:
            return b ** e
        except OverflowError:
            return np.power(b, e)


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
        if np.any(den == 0.0):
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
        if name == "log" and np.any(x <= 0.0):
            raise DomainEvalError(
                f"log of non-positive value {_first(x, x <= 0.0)!r}")
        if name == "sqrt" and np.any(x < 0.0):
            raise DomainEvalError(
                f"sqrt of negative value {_first(x, x < 0.0)!r}")
        if isinstance(x, np.ndarray):
            return _ARRAY_FUNCS[name](x)
        try:
            return _SCALAR_FUNCS[name](x)
        except (ValueError, OverflowError):
            # past the domain checks: an overflow, or sin or cos of +-inf
            return _ARRAY_FUNCS[name](x)


# ---------------------------------------------------------------------------
# helpers over trees
# ---------------------------------------------------------------------------


def substitute(expr: Expression, mapping) -> Expression:
    """Replace variables by expressions or numbers, rebuilding the tree."""
    return _substituted(
        expr, {ref: _coerce(value) for ref, value in mapping.items()})


def _substituted(e, mapping):
    # module level, not a closure: a self-referencing closure is a cycle
    # that would keep the mapping alive until collected
    if isinstance(e, Const):
        return e
    if isinstance(e, Variable):
        return mapping.get(e.ref, e)
    if not (e._free & mapping.keys()):
        return e
    if isinstance(e, Sum):
        return Sum(*(_substituted(t, mapping) for t in e.terms))
    if isinstance(e, Product):
        return Product(*(_substituted(f, mapping) for f in e.factors))
    if isinstance(e, Power):
        return Power(_substituted(e.base, mapping), e.exponent)
    if isinstance(e, Neg):
        return Neg(_substituted(e.child, mapping))
    if isinstance(e, Quotient):
        return Quotient(_substituted(e.numerator, mapping),
                        _substituted(e.denominator, mapping))
    if isinstance(e, Call):
        return Call(e.fname, _substituted(e.arg, mapping))
    raise TypeError(f"unknown node {type(e).__name__}")


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
    order i+1.  Momenta are treated as constants.
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


def _normal_sum(terms):
    """The simplified sum of already simplified ``terms``: nested sums are
    flattened, zeros dropped and like terms collected."""
    flat = []
    for term in terms:
        if isinstance(term, Sum):
            flat.extend(term.terms)
        elif not _is_zero(term):
            flat.append(term)
    collected = {}      # factors-key -> [coeff, factors]
    for t in flat:
        coeff, factors = _term_parts(t)
        k = tuple(f.key() for f in factors)
        if k in collected:
            collected[k][0] += coeff
        else:
            collected[k] = [coeff, factors]
    out = []
    for k in sorted(collected):
        coeff, factors = collected[k]
        if coeff == 0.0:
            continue
        out.append(_rebuild_term(coeff, factors))
    if not out:
        return _ZERO
    if len(out) == 1:
        return out[0]
    return Sum(*out)


def _normal_product(factors):
    """The simplified product of already simplified ``factors``: nested
    products are flattened, constants folded and repeats merged."""
    flat = []
    for factor in factors:
        if isinstance(factor, Product):
            flat.extend(factor.factors)
        else:
            flat.append(factor)
    coeff = 1.0
    exponents = {}      # key -> [base, exponent]
    for f in flat:
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
    if coeff == 0.0:
        return _ZERO
    out = []
    for k in sorted(exponents):
        base, exp = exponents[k]
        if exp == 0.0:
            continue
        out.append(base if exp == 1.0 else Power(base, exp))
    return _rebuild_term(coeff, tuple(out))


def _fold(node, op, *operands):
    """``node``, an operation on constants, folded to ``op(*operands)`` on
    Python floats, or ``node`` itself where ``op`` raises.  Python raises
    where a finite operand would give a value that is not finite and where
    an operand that is not NaN would give NaN, so a domain error, an
    overflow and sin(inf) stay symbolic, while inf^3 folds."""
    try:
        return Const(op(*operands))
    except (ArithmeticError, ValueError):
        return node


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

    if isinstance(expr, (Sum, Product)):
        # (a + b) + c, as the parser reads a + b + c, is normalized
        # innermost first in a loop: a long chain costs no recursion
        kind, chain = type(expr), []
        attr, normal = (("terms", _normal_sum) if kind is Sum
                        else ("factors", _normal_product))
        while type(expr) is kind:
            chain.append(expr)
            expr = getattr(expr, attr)[0]
        result = simplify(expr)
        for node in reversed(chain):
            result = normal([result, *map(simplify, getattr(node, attr)[1:])])
        return result

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
            return _fold(Power(base, e),
                         operator.pow if e.is_integer() else _real_power,
                         base.value, e)
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
            return _fold(Call(expr.fname, arg), _SCALAR_FUNCS[expr.fname],
                         arg.value)
        return Call(expr.fname, arg)

    raise TypeError(f"cannot simplify node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


_RESERVED = frozenset(("t", "p") + FUNCTION_NAMES)
_JET_PATTERN = re.compile(r"^q(\d+)(?:_(\d+))?$")
_MOMENTUM_PATTERN = re.compile(r"^p(\d+)(?:_(\d+))?$")
_IDENT_PATTERN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class SystemContext:
    """Parsing context fixing the coordinate alphabet.

    ``parameters`` maps each declared parameter name to its value, and the
    parser reads the name as that constant.  ``max_jet_order`` bounds the
    admissible jet orders; ``momentum_levels`` is the number of momentum
    levels visible (0 disables momenta, as in a Lagrangian context).
    """

    n_dofs: int
    max_jet_order: int
    parameters: dict = field(hash=False)
    momentum_levels: int = 0

    def __post_init__(self):
        if self.n_dofs < 1:
            raise ValidationError("a system needs at least one degree of freedom")
        if self.max_jet_order < 0:
            raise ValidationError("max_jet_order must be non-negative")
        object.__setattr__(self, "parameters", dict(self.parameters))
        for name in self.parameters:
            if not _IDENT_PATTERN.match(name):
                raise ValidationError(f"invalid parameter name {name!r}")
            if (name in _RESERVED or _JET_PATTERN.match(name)
                    or _MOMENTUM_PATTERN.match(name)):
                raise ValidationError(
                    f"parameter name {name!r} shadows a reserved identifier")

    @classmethod
    def for_lagrangian(cls, k: int, n: int, parameters=None) -> "SystemContext":
        """Context for Lagrangian input: jets up to order k, no momenta."""
        return cls(n_dofs=n, max_jet_order=k, parameters=parameters or {})

    @classmethod
    def for_reports(cls, k: int, n: int) -> "SystemContext":
        """Context wide enough to re-read any printed derived expression:
        jets up to order 2k and momenta up to level k-1.  A report prints
        numbers only, so it names no parameter."""
        return cls(n_dofs=n, max_jet_order=2 * k, parameters={},
                   momentum_levels=k)


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


# the nesting levels the parser admits: each parenthesis, function call,
# unary minus, '/' and chained '^' opens one; at 17 frames per level, the
# deepest derivation seen stays inside Python's recursion limit of 1000
_MAX_NESTING = 50


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
        self.depth = 0

    def enter(self, pos):
        """Open one nesting level, refusing more than _MAX_NESTING."""
        if self.depth == _MAX_NESTING:
            raise ParseError(
                f"expression nests deeper than {_MAX_NESTING} levels", pos)
        self.depth += 1

    def nested(self, parse, pos):
        """``parse()`` one nesting level deeper."""
        self.enter(pos)
        result = parse()
        self.depth -= 1
        return result

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
        depth = self.depth
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                if value == "/":  # a quotient nests the ones before it
                    self.enter(pos)
                rhs = self.unary()
                expr = Product(expr, rhs) if value == "*" else Quotient(expr, rhs)
            else:
                self.depth = depth
                return expr

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.nested(self.unary, pos))
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
        result = sign * self.number(value, pos)
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            try:
                result = result ** self.nested(self.exponent, pos)
            except OverflowError:
                raise ParseError("power exponent overflows", pos) from None
        return result

    def number(self, value, pos):
        # the grammar spells finite numbers only, so to_text prints them all
        if not math.isfinite(float(value)):
            raise ParseError(f"number {value} is not finite", pos)
        return float(value)

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "number":
            self.advance()
            return Const(self.number(value, pos))
        if kind == "ident":
            self.advance()
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in _SCALAR_FUNCS:
                    raise UnknownIdentifierError(f"unknown function {value!r}", pos)
                self.advance()
                arg = self.nested(self.additive, pos)
                self.expect_op(")")
                return Call(value, arg)
            return self.resolve(value, pos)
        if kind == "op" and value == "(":
            self.advance()
            expr = self.nested(self.additive, pos)
            self.expect_op(")")
            return expr
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)

    def resolve(self, name, pos):
        """The coordinate named ``name`` or the value of a parameter."""
        ctx = self.context
        if name == "t":
            return Variable(time_var())
        m = _JET_PATTERN.match(name)
        if m:
            order = int(m.group(1))
            dof = self.coord_dof(m.group(2), name, pos)
            if order > ctx.max_jet_order:
                raise JetOrderError(
                    f"jet order {order} exceeds the maximum {ctx.max_jet_order} "
                    "allowed in this context", pos)
            return Variable(jet(dof, order))
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
            return Variable(momentum(dof, level))
        if name in ctx.parameters:
            return Const(ctx.parameters[name])
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
    if not math.isfinite(x):
        raise ExpressionError(
            f"the constant {x!r} has no literal in the expression grammar")
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _wrap(text, prec, minimum):
    return f"({text})" if prec < minimum else text


# the children of each non-leaf node type, for the walk of _shared_nodes
_CHILDREN = {
    Sum: lambda e: e.terms,
    Product: lambda e: e.factors,
    Quotient: lambda e: (e.numerator, e.denominator),
    Power: lambda e: (e.base,),
    Neg: lambda e: (e.child,),
    Call: lambda e: (e.arg,),
}


def _shared_nodes(expr):
    """A memo for one print of ``expr``: a key for the ``id`` of each
    non-leaf node that occurs more than once in it, each mapped to None
    until its text is known.  The walk is iterative and enters a node once."""
    seen, memo = set(), {}
    stack = [expr]
    while stack:
        node = stack.pop()
        children = _CHILDREN.get(type(node))
        if children is None:
            continue
        key = id(node)
        if key in seen:
            memo[key] = None
        else:
            seen.add(key)
            stack.extend(children(node))
    return memo


def _render(expr, n, memo):
    """Return (text, precedence).  A node keyed in ``memo`` is rendered
    once; its entry holds the node too, so that no other object can take
    its id while the memo lives."""
    if isinstance(expr, Const):
        if expr.value < 0:
            return f"-{_format_number(-expr.value)}", _PREC_UNARY
        return _format_number(expr.value), _PREC_ATOM
    if isinstance(expr, Variable):
        return expr.ref.display(n), _PREC_ATOM
    key = id(expr)
    shared = key in memo
    if shared and memo[key] is not None:
        return memo[key][1:]
    if isinstance(expr, Call):
        inner, _ = _render(expr.arg, n, memo)
        text, prec = f"{expr.fname}({inner})", _PREC_ATOM
    elif isinstance(expr, Neg):
        inner, prec = _render(expr.child, n, memo)
        text, prec = f"-{_wrap(inner, prec, _PREC_UNARY + 1)}", _PREC_UNARY
    elif isinstance(expr, Power):
        base, prec = _render(expr.base, n, memo)
        base = _wrap(base, prec, _PREC_ATOM)
        e = expr.exponent
        etext = _format_number(e) if e >= 0 else f"-{_format_number(-e)}"
        text, prec = f"{base}^{etext}", _PREC_POWER
    elif isinstance(expr, Quotient):
        num, nprec = _render(expr.numerator, n, memo)
        den, dprec = _render(expr.denominator, n, memo)
        text = f"{_wrap(num, nprec, _PREC_TERM)}/{_wrap(den, dprec, _PREC_TERM + 1)}"
        prec = _PREC_TERM
    elif isinstance(expr, Product):
        parts = []
        for f in expr.factors:
            text, prec = _render(f, n, memo)
            parts.append(_wrap(text, prec, _PREC_TERM + (1 if parts else 0)))
        text, prec = "*".join(parts), _PREC_TERM
    elif isinstance(expr, Sum):
        first, prec = _render(expr.terms[0], n, memo)
        text = _wrap(first, prec, _PREC_SUM)
        for term in expr.terms[1:]:
            sign, body = _signed_render(term, n, memo)
            text += f" {sign} {body}"
        prec = _PREC_SUM
    else:
        raise TypeError(f"cannot render node {type(expr).__name__}")
    if shared:
        memo[key] = (expr, text, prec)
    return text, prec


def _signed_render(term, n, memo):
    """Render a sum term as ('+' | '-', text) pulling a leading minus out.
    A term keyed in ``memo`` is signed once; its entry is keyed ``~id``."""
    key = id(term)
    shared = key in memo
    if shared and ~key in memo:
        return memo[~key][1:]
    if isinstance(term, Const) and term.value < 0:
        return "-", _format_number(-term.value)
    sign, body = "+", term
    if isinstance(term, Neg):
        sign, body = "-", term.child
    else:
        coeff, factors = _term_parts(term)
        if coeff < 0 and factors:
            sign, body = "-", _rebuild_term(-coeff, factors)
    inner, prec = _render(body, n, memo)
    text = _wrap(inner, prec, _PREC_SUM + 1)
    if shared:
        memo[~key] = (term, sign, text)
    return sign, text


def to_text(expr: Expression, n_dofs: int = 1) -> str:
    """Print an expression in the input grammar.

    Re-parsing the output in a sufficiently wide context yields a
    numerically equivalent tree.  A constant that is not finite, made by
    folding or deriving, has no literal and raises :class:`ExpressionError`.
    A subexpression shared as one object is rendered once, so the cost
    follows the distinct nodes and the length of the text, not the size of
    the tree that the text spells.
    """
    text, _ = _render(expr, n_dofs, _shared_nodes(expr))
    return text


# ---------------------------------------------------------------------------
# numeric equivalence
# ---------------------------------------------------------------------------


def sample_point(variables, rng, domain=None):
    """Draw one binding for the given variables from a box domain.

    ``domain`` is a (lo, hi) pair applied to every variable, by default
    ``DEFAULT_SAMPLE_RANGE``.  Variables are drawn in a fixed sorted
    order, so a seeded generator yields reproducible points.
    """
    lo, hi = DEFAULT_SAMPLE_RANGE if domain is None else domain
    return {v: float(rng.uniform(lo, hi))
            for v in sorted(variables, key=lambda r: r._key())}


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

    Two values agree at a sampled point when equal, infinities included,
    or finite with ``|v1 - v2| <= tol * (1 + max(|v1|, |v2|))``; else a
    NaN or an infinity gives deviation NaN, and the first such sample is
    the worst.  Sampling is deterministic for a given seed.  Domain errors
    at a sample point propagate to the caller rather than being swallowed.
    """
    rng = np.random.default_rng(seed)
    variables = e1.free_vars() | e2.free_vars()
    worst = (-1.0, {}, (0.0, 0.0))
    ok = True
    for _ in range(samples):
        point = sample_point(variables, rng, domain)
        v1 = e1.evaluate(point)
        v2 = e2.evaluate(point)
        if v1 == v2:
            scaled = 0.0
        elif math.isfinite(v1) and math.isfinite(v2):
            defect = abs(v1 - v2)
            scaled = defect / (1.0 + max(abs(v1), abs(v2)))
            ok = ok and not defect > tol * (1.0 + max(abs(v1), abs(v2)))
        else:
            scaled, ok = math.nan, False
        if not (math.isnan(worst[0]) or scaled <= worst[0]):
            worst = (scaled, point, (v1, v2))
    return EquivalenceResult(
        equivalent=ok,
        max_deviation=max(worst[0], 0.0),
        tolerance=tol,
        samples=samples,
        worst_point=worst[1],
        worst_values=worst[2],
    )


# ---------------------------------------------------------------------------
# compiled kernels
# ---------------------------------------------------------------------------


def _real_power(base, exponent):
    """``base ** exponent`` for a non-integer exponent.  Python would return
    a complex number for a negative base; the tree walker refuses it."""
    if base < 0:
        raise ValueError(f"negative base raised to non-integer power {exponent}")
    return base ** exponent


def compile_kernel(exprs, coords, name: str = "kernel"):
    """Lower expressions into one straight-line function of the coordinates.

    Returns ``f(*values) -> tuple``: ``values`` are bound to ``coords`` in
    order, and the tuple holds one value per expression.  The function is
    generated as Python source and built once with ``compile()``.  Each
    distinct non-leaf node (equal :meth:`Expression.key`) becomes one
    local temporary, so a shared subtree is computed once.  Sums and
    products fold left to right and every node performs the operation the
    tree walker performs, so on float arguments the values equal
    :meth:`Expression.evaluate` bit for bit.

    The straight-line body runs in one ``try``: where an operation raises
    ``ArithmeticError``, ``ValueError`` or ``TypeError`` (a domain error,
    an overflow on Python floats, or sin or cos of +-inf), the kernel
    instead returns the tree walker's values of ``exprs`` with ``values``
    bound as numpy float64 scalars, so an overflow gives inf or NaN as in
    NumPy, and only a domain error raises, the tree walker's first
    :class:`DomainEvalError`.  A value that is not a real number (None,
    say) raises ``TypeError``, and so does a call with the wrong number of
    values.  A variable outside ``coords`` raises
    :class:`UnboundVariableError` when the kernel is built.  Under debug
    logging one line reports ``name``, the expression and temporary counts
    and the build time.
    """
    return _generated(exprs, coords, name, lambda args, body, outputs: [
        f"def kernel({', '.join(args)}):",
        "    try:",
        *body,
        f"        return ({''.join(out + ', ' for out in outputs)})",
        "    except (ArithmeticError, ValueError, TypeError):",
        f"        return _walk({', '.join(args)})",
    ])


def _generated(exprs, coords, name, assemble, **names):
    """The generator behind :func:`compile_kernel`, shared with the unified
    field of :class:`legendre.DerivedSystem`.

    ``assemble(args, body, outputs)`` returns the source lines of one
    function named ``kernel``: ``args`` names the local of each coordinate
    (``x0``, ``x1``, ...), ``body`` holds the straight-line lines that
    compute every temporary, indented for a ``try`` block, and
    ``outputs`` is the operand text of each expression.  The function sees
    ``_walk(*values)``, the tree walker's values of ``exprs``, the
    generated constants and ``names``; it is built once with
    ``compile()`` and returned, and the debug line is logged.

    The function's globals are a namespace of their own that does not
    hold the function, and the lowering's closures are emptied before
    this returns, so the function and what it refers to form no cycle:
    they are freed by reference counting once the caller drops the
    function, as long as ``names`` holds nothing that refers back to it.
    """
    start = time.perf_counter()
    exprs, coords = tuple(exprs), tuple(coords)
    args = {ref: f"x{i}" for i, ref in enumerate(coords)}

    def walk(*values):
        env = dict(zip(coords, np.array([float(v) for v in values])))
        return tuple(e.evaluate(env) for e in exprs)

    namespace = {"_real_power": _real_power, "_walk": walk, **_SCALAR_FUNCS,
                 **names}
    temps = {}          # node -> name of the local holding its value
    body = []

    def literal(value):
        if not math.isfinite(value):
            # repr gives inf or nan, which are no Python literals
            const = f"_c{len(namespace)}"
            namespace[const] = value
            return const
        # parenthesized so a negative constant cannot bind looser than **
        return f"({value!r})" if math.copysign(1.0, value) < 0 else repr(value)

    def operation(node):
        if isinstance(node, Sum):
            return " + ".join([operand(term) for term in node.terms])
        if isinstance(node, Product):
            return " * ".join([operand(factor) for factor in node.factors])
        if isinstance(node, Neg):
            return f"-{operand(node.child)}"
        if isinstance(node, Quotient):
            return f"{operand(node.numerator)} / {operand(node.denominator)}"
        if isinstance(node, Call):
            return f"{node.fname}({operand(node.arg)})"
        if isinstance(node, Power):
            base, exponent = operand(node.base), literal(node.exponent)
            if node.exponent.is_integer():
                return f"{base} ** {exponent}"
            return f"_real_power({base}, {exponent})"
        raise TypeError(f"cannot compile node {type(node).__name__}")

    def operand(node):
        if isinstance(node, Const):
            return literal(node.value)
        if isinstance(node, Variable):
            try:
                return args[node.ref]
            except KeyError:
                raise UnboundVariableError(node.ref) from None
        local = temps.get(node)
        if local is None:
            text = operation(node)
            local = temps[node] = f"v{len(temps)}"
            body.append(f"        {local} = {text}")
        return local

    try:
        outputs = [operand(expr) for expr in exprs]
    finally:
        # operand and operation refer to each other through their cells
        del operand, operation
    source = "\n".join(assemble(list(args.values()), body, outputs))
    exec(compile(source, f"<kernel {name}>", "exec"), namespace)
    logger.debug("compiled kernel %s: %d expressions, %d temporaries, "
                 "%.2f ms", name, len(outputs), len(temps),
                 1e3 * (time.perf_counter() - start))
    return namespace.pop("kernel")
