"""Expression language: parsing, printing, differentiation, simplification."""

import json
from pathlib import Path

import numpy as np
import pytest

import ostromech as om
from ostromech import expressions as ex
from ostromech import legendre, unified

from conftest import LOG_DOC, field_family, field_outcome, reference_field

CTX = om.SystemContext.for_lagrangian(2, 1)
CTX2 = om.SystemContext.for_lagrangian(1, 2)


def test_parse_print_round_trip():
    for text in [
        "1/2*(q2^2 - 5*q1^2 + 4*q0^2)",
        "q0*sin(2*t)",
        "sqrt(q0^2 + 1)",
        "-q1^2",
        "q1^-2",
        "exp(-q0)*log(q0^2 + 1)",
        "(q0 + q1)*(q0 - q1)",
        "2 - q0 - q1",
    ]:
        first = om.parse(text, CTX)
        again = om.parse(om.to_text(first), CTX)
        assert om.equivalent_numeric(first, again, tol=1e-12)


def test_multi_dof_round_trip():
    e = om.parse("q1_1*q1_2 - (q0_1 - q0_2)^2", CTX2)
    again = om.parse(om.to_text(e, 2), CTX2)
    assert om.equivalent_numeric(e, again, tol=1e-12)


def test_precedence_and_associativity():
    # 1/2*q1^2 is (1/2)*(q1^2), not 1/(2*q1^2)
    e = om.parse("1/2*q1^2", CTX)
    assert e.evaluate({ex.jet(1, 1): 3.0}) == pytest.approx(4.5)
    # subtraction associates left
    e = om.parse("8 - 4 - 2", CTX)
    assert e.evaluate({}) == 2.0
    # unary minus binds looser than the power
    e = om.parse("-q0^2", CTX)
    assert e.evaluate({ex.jet(1, 0): 3.0}) == -9.0
    # exponent chains associate right and fold to a literal
    e = om.parse("2^3^2", CTX)
    assert e.evaluate({}) == 512.0


def test_exponent_must_be_literal():
    with pytest.raises(om.ParseError):
        om.parse("q1^q0", CTX)
    with pytest.raises(om.ParseError):
        om.parse("q1^(1 + 1)", CTX)
    assert om.parse("q1^-2", CTX).evaluate({ex.jet(1, 1): 2.0}) == 0.25


def test_identifier_errors():
    with pytest.raises(om.JetOrderError):
        om.parse("q5", CTX)
    with pytest.raises(om.UnknownIdentifierError):
        om.parse("frob(q0)", CTX)
    with pytest.raises(om.UnknownIdentifierError):
        om.parse("q0 + mass", CTX)
    with pytest.raises(om.ParseError):
        om.parse("q1", CTX2)  # needs a dof suffix at n=2
    with pytest.raises(om.ParseError):
        om.parse("q1_3", CTX2)  # dof out of range
    err = None
    try:
        om.parse("q0 + (q1", CTX)
    except om.ParseError as caught:
        err = caught
    assert err is not None and err.position is not None


def test_reserved_parameter_names_rejected():
    for name in ("t", "q3", "sin"):
        with pytest.raises(om.ValidationError):
            om.SystemContext.for_lagrangian(1, 1, parameters={name: 1.0})
    # a parameter parses to its constant and leaves no free variable
    ctx = om.SystemContext.for_lagrangian(1, 1, parameters={"omega": 3.0})
    assert om.parse("omega", ctx) == ex.Const(3.0)
    e = om.parse("omega*q0", ctx)
    assert e.free_vars() == {ex.jet(1, 0)}
    assert e.evaluate({ex.jet(1, 0): 2.0}) == 6.0


def test_report_context_accepts_momenta():
    ctx = om.SystemContext.for_reports(2, 1)
    e = om.parse("q1*p0 + q2*p1", ctx)
    value = e.evaluate({ex.jet(1, 1): 3.0, ex.momentum(1, 0): 1.0,
                        ex.jet(1, 2): 4.0, ex.momentum(1, 1): 2.0})
    assert value == 3.0 + 8.0
    # the plain Lagrangian context refuses momentum identifiers, and no
    # context reads the bare p, which names no coordinate
    with pytest.raises(om.ParseError):
        om.parse("p0", CTX)
    with pytest.raises(om.UnknownIdentifierError):
        om.parse("q1 - p", ctx)


def test_diff_oracles():
    L = om.parse("1/2*(q2^2 - 5*q1^2 + 4*q0^2)", CTX)
    assert om.equivalent_numeric(om.diff(L, ex.jet(1, 2)),
                                 om.parse("q2", CTX), tol=1e-12)
    assert om.equivalent_numeric(om.diff(L, ex.jet(1, 1)),
                                 om.parse("-5*q1", CTX), tol=1e-12)
    assert om.equivalent_numeric(om.diff(L, ex.jet(1, 0)),
                                 om.parse("4*q0", CTX), tol=1e-12)


def test_diff_against_finite_differences():
    ctx = om.SystemContext.for_lagrangian(2, 1, parameters={"a": 1.7})
    exprs = [
        "sin(q1)*cos(q0)",
        "exp(q0/4)*q2^2",
        "log(q1^2 + 2)",
        "sqrt(q0^2 + q2^2 + 1)",
        "a*q0^3/(q1^2 + 1)",
        "q0*q1*q2*t",
    ]
    rng = np.random.default_rng(3)
    eps = 1e-6
    for text in exprs:
        e = om.parse(text, ctx)
        for ref in sorted(e.free_vars(), key=lambda r: r._key()):
            d = om.diff(e, ref)
            for _ in range(10):
                point = ex.sample_point(e.free_vars(), rng, (-1.5, 1.5))
                up = dict(point)
                dn = dict(point)
                up[ref] = point[ref] + eps
                dn[ref] = point[ref] - eps
                fd = (e.evaluate(up) - e.evaluate(dn)) / (2 * eps)
                exact = d.evaluate(point)
                assert abs(fd - exact) <= 1e-6 * (1 + abs(exact))


def test_total_derivative_oracles():
    e = om.parse("q0^2", CTX)
    dt = om.simplify(om.total_derivative(e, 4))
    assert om.to_text(dt) == "2*q0*q1"
    dt2 = om.simplify(om.total_derivative(dt, 4))
    assert om.equivalent_numeric(dt2, om.parse("2*q1^2 + 2*q0*q2",
                                               om.SystemContext.for_reports(2, 1)),
                                 tol=1e-12)
    # time dependence feeds the plain partial
    e = om.parse("q0*sin(2*t)", om.SystemContext.for_lagrangian(1, 1))
    dt = om.simplify(om.total_derivative(e, 2))
    want = om.parse("q1*sin(2*t) + 2*q0*cos(2*t)",
                    om.SystemContext.for_reports(1, 1))
    assert om.equivalent_numeric(dt, want, tol=1e-12)


def test_total_derivative_order_cap():
    e = om.parse("q2^2", CTX)  # produces q3
    om.total_derivative(e, 3)
    with pytest.raises(om.OrderOverflowError):
        om.total_derivative(e, 2)


def test_total_derivative_chains_along_prolonged_curve():
    # d_T along the jet of a polynomial equals the time derivative
    ctx = om.SystemContext.for_lagrangian(2, 1)
    e = om.parse("q0*q1^2 + sin(q0)", ctx)
    dt = om.total_derivative(e, 4)
    path = om.PathRepresentation("monomial", [0.3, -1.2, 0.7, 0.25],
                                 (-1.0, 2.0))

    def jet(t, max_order):
        return om.jet_bindings(
            om.JetPoint(t, path.jets([t], max_order)[:, :, 0]))
    eps = 1e-6
    for t in (0.0, 0.4, 1.3):
        env = jet(t, 4)
        plus, minus = jet(t + eps, 2), jet(t - eps, 2)
        fd = (e.evaluate(plus) - e.evaluate(minus)) / (2 * eps)
        assert abs(dt.evaluate(env) - fd) <= 1e-6 * (1 + abs(fd))


def test_simplify_collects_and_folds():
    ctx = CTX
    cases = [
        ("q1 + q1", "2*q1"),
        ("q0*q0", "q0^2"),
        ("0*q1 + q0^1", "q0"),
        ("q2*1 + 0", "q2"),
        ("2*q0 + 3*q0 - 5*q0", "0"),
        ("6/3*q1", "2*q1"),
    ]
    for text, expected in cases:
        assert om.to_text(om.simplify(om.parse(text, ctx))) == expected


def test_simplify_preserves_value():
    rng = np.random.default_rng(11)
    for text in [
        "(q0 + q1)^2 - q0^2 - 2*q0*q1 - q1^2",
        "q0/2 + q0/2",
        "sin(q0)*0 + cos(0)",
        "q2^2*q2^-1",
        "-(q0 - q1) + q0",
    ]:
        e = om.parse(text, CTX)
        s = om.simplify(e)
        result = om.equivalent_numeric(e, s, tol=1e-10, seed=5)
        assert result, (text, result.max_deviation)


def test_evaluate_errors():
    e = om.parse("q0 + q1", CTX)
    with pytest.raises(om.UnboundVariableError):
        e.evaluate({ex.jet(1, 0): 1.0})


# each domain rule: an expression, the values that break it and its one
# message, which names the offending value where a value tells more
DOMAIN_RULES = {
    "negative_base": ("q0^2.5", [-1.0],
                      "negative base {} raised to non-integer power 2.5"),
    "zero_to_negative": ("q0^-1", [0.0], "zero raised to a negative power"),
    "zero_denominator": ("1/q0", [0.0], "division by zero"),
    "log": ("log(q0)", [-1.0, 0.0], "log of non-positive value {}"),
    "sqrt": ("sqrt(q0)", [-4.0], "sqrt of negative value {}"),
}


@pytest.mark.parametrize("text, values, message", DOMAIN_RULES.values(),
                         ids=DOMAIN_RULES)
def test_evaluate_array_errors(text, values, message):
    # a Python float, a NumPy scalar (the kernels' fallback) and an array
    # (the grid bindings of verify and the action quadrature) raise one
    # message; one point outside the real domain fails the whole array,
    # which names its first offending value
    expr = om.parse(text, CTX)
    for bad in values:
        for q0 in (bad, np.float64(bad), np.array([1.0, bad, bad - 1.0])):
            with pytest.raises(om.DomainEvalError) as err:
                expr.evaluate({ex.jet(1, 0): q0})
            assert str(err.value) == message.format(bad)


@pytest.mark.parametrize("text, q0", [
    ("q0^3", [1.0, 1e200]),
    ("exp(q0)", [1.0, 1e3]),
    ("sin(q0)", [1.0, np.inf]),
], ids=["power_overflow", "exp_overflow", "sin_of_inf"])
def test_evaluate_array_overflow_is_a_value(text, q0):
    # an overflow, and sin of inf, stay in the real domain: an array
    # holding such a point gives that point's kernel value and warns as
    # NumPy does, and so does a Python float
    expr = om.parse(text, CTX)
    kernel = ex.compile_kernel([expr], [ex.jet(1, 0)])
    with pytest.warns(RuntimeWarning):
        got = expr.evaluate({ex.jet(1, 0): np.array(q0)})
    with pytest.warns(RuntimeWarning):
        scalar = expr.evaluate({ex.jet(1, 0): q0[1]})
    with np.errstate(all="ignore"):
        want = [kernel(value)[0] for value in q0]
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert float(got[1]).hex() == float(want[1]).hex() == \
        float(scalar).hex() == ("nan" if text == "sin(q0)" else "inf")


def test_simplify_folds_only_where_python_floats_answer():
    # a constant power or call folds unless a finite operand would give a
    # value that is not finite, or a number would give NaN
    inf = ex.Const(np.inf)
    for node in (ex.Power(ex.Const(1e200), 2.0), ex.Call("exp", ex.Const(1e3)),
                 ex.Call("sin", inf), ex.Call("log", ex.Const(-1.0)),
                 ex.Power(ex.Const(-2.0), 0.5), ex.Power(ex.Const(0.0), -1.0)):
        assert om.simplify(node) == node
    assert om.simplify(ex.Power(inf, 3.0)) == inf
    assert om.simplify(ex.Call("exp", inf)) == inf
    assert om.simplify(ex.Power(ex.Const(-2.0), 3.0)) == ex.Const(-8.0)
    assert om.simplify(ex.Call("sqrt", ex.Const(4.0))) == ex.Const(2.0)


def test_evaluate_vectorized_matches_scalar():
    e = om.parse("sin(q0)*q1 + q0/(q1^2 + 1)", CTX)
    q0 = np.linspace(-2, 2, 23)
    q1 = np.linspace(1, 3, 23)
    vec = e.evaluate({ex.jet(1, 0): q0, ex.jet(1, 1): q1})
    scalar = np.array([e.evaluate({ex.jet(1, 0): a, ex.jet(1, 1): b})
                       for a, b in zip(q0, q1)])
    np.testing.assert_allclose(vec, scalar, rtol=0, atol=1e-15)


def test_equivalent_numeric_verdicts():
    one = om.parse("sin(q0)^2 + cos(q0)^2", CTX)
    result = om.equivalent_numeric(one, ex.Const(1.0))
    assert result and result.samples == 100
    assert result.max_deviation <= 1e-12

    # max_deviation is the scale-aware defect |v1-v2|/(1+max|v|)
    close = om.parse("q0 + 0.000001", CTX)
    result = om.equivalent_numeric(om.parse("q0", CTX), close, tol=1e-10)
    assert not result
    assert result.worst_point is not None
    assert 3e-7 < result.max_deviation <= 1e-6


def test_equivalent_numeric_seeded_determinism():
    a = om.parse("exp(q0)*q1", CTX)
    b = om.parse("q1*exp(q0)", CTX)
    r1 = om.equivalent_numeric(a, b, seed=9)
    r2 = om.equivalent_numeric(a, b, seed=9)
    assert r1.max_deviation == r2.max_deviation


def test_non_finite_numbers_have_no_text():
    ctx = ex.SystemContext.for_lagrangian(1, 1)
    for text in ("1e400*q1^2", "-1e400", "q1^1e400", "q1^10^400"):
        with pytest.raises(om.ParseError):
            ex.parse(text, ctx)
    # folding can still make a constant infinite or NaN; to_text refuses
    # it by name, and the repr of the expression does not raise
    for value in (np.inf, -np.inf, np.nan):
        expr = ex.Product(ex.Const(value), ex.Variable(ex.jet(1, 1)))
        with pytest.raises(om.ExpressionError, match="has no literal"):
            ex.to_text(expr)
        assert repr(expr) == "<Product with a non-finite constant>"
    assert ex.to_text(ex.parse("1e308*q1^2", ctx)) == "1e+308*q1^2"


def test_cannot_parse_empty_or_trailing():
    with pytest.raises(om.ParseError):
        om.parse("", CTX)
    with pytest.raises(om.ParseError):
        om.parse("q0 q1", CTX)
    with pytest.raises(om.ParseError):
        om.parse("q0 +", CTX)


# -- compiled kernels ---------------------------------------------------------

DEMO_SYSTEMS = Path(__file__).resolve().parent.parent / "demos" / "systems"

# an order-3, three-dof system with weak nonlinear couplings, as in the
# benchmark's nl3 roster entry
NL3_DOC = {
    "name": "nl3-like", "order": 3, "dofs": 3,
    "lagrangian": (
        "1/2*(q3_1^2 - 2.1*q2_1^2 + 1.3*q1_1^2 - 0.25*q0_1^2)"
        " + 1/2*(q3_2^2 - 3.4*q2_2^2 + 3.7*q1_2^2 - 1.1*q0_2^2)"
        " + 1/2*(q3_3^2 - 4.9*q2_3^2 + 7.6*q1_3^2 - 4.2*q0_3^2)"
        " + 0.021*q0_3^2*q3_1^2 + 0.013*q0_1^2*q0_2^2"
        " + 0.027*q0_2*q0_3*q1_1^2"),
}

# every node type: the five functions, a quotient, a fractional power, a
# negative constant and subtrees shared between derived expressions
ALL_NODES_DOC = {
    "name": "all-nodes", "order": 2, "dofs": 1,
    "lagrangian": (
        "1/2*q2^2*(2 + cos(q0*q1)) + q1^2*log(2 + sin(q0))"
        " - 3.5*q0^2*cos(t) + sqrt(1 + q1^2)*exp(-q0^2/4)"
        " + q2*q1/(3 + cos(q0)) + (2 + sin(q0*q1))^1.5"),
}


def _kernel_families(ds):
    """Every derived family over the unified coordinates, flattened."""
    exprs = [w for row in ds.hessian for w in row] + list(ds.el_reduced)
    exprs += [g for row in ds.lagrangian_partials for g in row]
    exprs += [p for row in ds.momenta for p in row]
    exprs += list(ds.hamiltonian_partials.values())
    return exprs + [ds.hamiltonian, ds.model.lagrangian]


def _children(node):
    return (getattr(node, "terms", ()) + getattr(node, "factors", ())
            + tuple(getattr(node, attr) for attr in
                    ("base", "child", "numerator", "denominator", "arg")
                    if hasattr(node, attr)))


def _nodes(expr):
    yield expr
    for child in _children(expr):
        yield from _nodes(child)


def _kernel_systems():
    docs = {path.stem: json.loads(path.read_text())
            for path in sorted(DEMO_SYSTEMS.glob("*.json"))}
    docs.update({"nl3": NL3_DOC, "all_nodes": ALL_NODES_DOC})
    return docs


@pytest.mark.parametrize("key", sorted(_kernel_systems()))
def test_compiled_kernel_equals_tree_walker(key):
    ds = om.derive(om.build_system(_kernel_systems()[key]))
    coords = unified.unified_coordinates(ds.k, ds.n)
    exprs = _kernel_families(ds)
    kernel = ex.compile_kernel(exprs, coords)
    if key == "all_nodes":
        nodes = [node for e in exprs for node in _nodes(e)]
        kinds = {type(node).__name__ for node in nodes}
        assert kinds >= {"Sum", "Product", "Power", "Neg", "Quotient", "Call"}
        assert {n.fname for n in nodes if isinstance(n, ex.Call)} == {
            "sin", "cos", "exp", "log", "sqrt"}
        assert any(isinstance(n, ex.Power) and not n.exponent.is_integer()
                   for n in nodes)
        assert any(isinstance(n, ex.Const) and n.value < 0 for n in nodes)
        compound = [n for n in nodes if not isinstance(n, (ex.Const, ex.Variable))]
        assert len(set(compound)) < len(compound)  # shared subtrees
    rng = np.random.default_rng(11)
    for _ in range(200):
        values = rng.uniform(-2.0, 2.0, len(coords))
        got = np.array(kernel(*values.tolist()))
        # the integrators bind numpy scalars, library callers Python floats
        for point in (values, values.tolist()):
            env = dict(zip(coords, point))
            want = np.array([e.evaluate(env) for e in exprs])
            assert got.tobytes() == want.tobytes()


def test_compiled_kernel_leaves_and_constants():
    ctx = om.SystemContext.for_lagrangian(2, 1)
    coords = [om.time_var(), om.jet(1, 0), om.jet(1, 1)]
    exprs = [om.parse("q0", ctx), ex.Const(-2.5), ex.Const(float("inf")),
             ex.Power(ex.Const(-2.0), 2.0), ex.Neg(ex.Const(-0.0)),
             om.parse("q0^-2 + t*q1", ctx)]
    kernel = ex.compile_kernel(exprs, coords)
    got = kernel(0.5, 3.0, -1.0)
    env = dict(zip(coords, (0.5, 3.0, -1.0)))
    assert np.array(got).tobytes() == np.array(
        [e.evaluate(env) for e in exprs]).tobytes()
    assert got[3] == 4.0  # (-2)^2, not -(2^2)
    assert ex.compile_kernel([], coords)(0.5, 3.0, -1.0) == ()
    with pytest.raises(om.UnboundVariableError):
        ex.compile_kernel([om.parse("q2", ctx)], coords)


def _outcome(fn):
    """The float.hex of each value fn() returns, so == is bit equality, or
    the type and text of the DomainEvalError it raises."""
    try:
        return "ok", [float(value).hex() for value in fn()]
    except om.DomainEvalError as err:
        return type(err).__name__, str(err)


def _walked(exprs, coords, values):
    env = dict(zip(coords, values))
    return lambda: [e.evaluate(env) for e in exprs]


def test_compiled_kernel_answers_as_the_tree_walker_where_its_body_fails():
    ctx = om.SystemContext.for_lagrangian(1, 1)
    coords = [om.time_var(), om.jet(1, 0), om.jet(1, 1)]
    for text, q0 in (("log(q0)", -1.0), ("q1/q0", 0.0), ("q0^1.5", -2.0),
                     ("q0^-1", 0.0), ("sqrt(q0)", -4.0)):
        exprs = [om.parse(text, ctx), om.parse("q1", ctx)]
        kernel = ex.compile_kernel(exprs, coords)
        got = _outcome(lambda: kernel(0.0, q0, 1.0))
        assert got[0] == "DomainEvalError"
        assert got == _outcome(_walked(exprs, coords, (0.0, q0, 1.0)))
    # Python floats overflow a power; the kernel binds numpy scalars, on
    # which the tree walker gives inf
    exprs = [om.parse("q0^3", ctx), om.parse("q1", ctx)]
    kernel = ex.compile_kernel(exprs, coords)
    with np.errstate(over="ignore"):
        got = kernel(0.0, 1e200, 0.5)
        assert got == (np.inf, 0.5)
        assert _outcome(lambda: got) == _outcome(_walked(
            exprs, coords, np.array([0.0, 1e200, 0.5])))
    assert kernel(0.0, 2.0, 0.5) == (8.0, 0.5)
    # a value that is no real number, and a wrong arity, raise
    with pytest.raises(TypeError):
        kernel(0.0, None, 0.0)
    with pytest.raises(TypeError):
        kernel(0.0, 2.0)



def test_kernels_of_every_family_answer_as_the_numpy_tree_walker(
        monkeypatch):
    # the field, point, momenta and Hessian kernels, each built by the
    # function that reads it, at inputs where the straight-line body fails:
    # overflows of all-nodes, and besides them domain errors of log; a
    # kernel answers as the tree walker on numpy scalars and on floats, and
    # the field as the top-jet solve and the jet shift of those values
    built = {}
    generated = ex._generated

    def recording(exprs, coords, name, assemble, **names):
        exprs, coords = list(exprs), list(coords)
        built[name] = exprs, coords, generated(exprs, coords, name, assemble,
                                               **names)
        return built[name][2]

    monkeypatch.setattr(ex, "_generated", recording)
    systems = {}
    for doc in (ALL_NODES_DOC, LOG_DOC):
        ds = systems[doc["name"]] = om.derive(om.build_system(doc))
        size = 3 * ds.k * ds.n
        up = om.UnifiedPoint.from_state(0.0, np.full(size, 0.5), ds.k, ds.n)
        om.explicit_semispray(ds, up)
        om.kernel_check(ds, up, np.zeros(size + 1))
        om.legendre_map(ds, up.jet)
        om.regularity_report(ds, domain=(0.5, 2.0), samples=1)
    assert sorted(built) == [
        "all-nodes", "all-nodes hessian", "all-nodes momenta",
        "all-nodes point", "log", "log hessian", "log momenta", "log point"]
    for name, ds in systems.items():
        assert built[name][:2] == tuple(map(list, field_family(ds)))

    walks = []
    evaluate = ex.Expression.evaluate
    monkeypatch.setattr(ex.Expression, "evaluate", lambda expr, env: (
        walks.append(expr), evaluate(expr, env))[1])
    rng = np.random.default_rng(3)
    kinds = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, (exprs, coords, kernel) in built.items():
            failing = 0
            for i in range(100):
                values = rng.uniform(-2.0, 2.0, len(coords))
                scaled = min(1 + i % 2, len(coords))
                values[rng.choice(len(coords), scaled, replace=False)] *= 1e200
                values = values.tolist()
                walks.clear()
                if name in systems:
                    # the field of a unified state, whose momenta are 0.5
                    ds = systems[name]
                    t, y = values[0], np.array(values[1:] + [0.5] * ds.k)
                    got = field_outcome(lambda: kernel(t, y))
                    if not walks:
                        continue  # the straight-line body answered
                    failing += 1
                    for bound in (np.array(values), values):
                        walked = _walked(exprs, coords, bound)
                        assert got == field_outcome(
                            lambda: reference_field(ds, t, y, walked())), name
                    kinds.setdefault(name + " field", set()).add(got[0])
                    continue
                got = _outcome(lambda: kernel(*values))
                if not walks:
                    continue  # the straight-line body answered
                failing += 1
                assert got == _outcome(_walked(
                    exprs, coords, np.array(values))), name
                assert got == _outcome(_walked(exprs, coords, values)), name
                kinds.setdefault(name.split()[0], set()).add(got[0])
            assert failing >= 20, name
    assert kinds == {"all-nodes": {"ok"}, "log": {"ok", "DomainEvalError"},
                     "all-nodes field": {"ok"},
                     "log field": {"ok", "DomainEvalError"}}


def test_domain_errors_print_plain_numbers():
    ctx = om.SystemContext.for_lagrangian(1, 1)
    value = np.float64(-1.0)
    for text, message in (
            ("log(q0)", "log of non-positive value -1.0"),
            ("sqrt(q0)", "sqrt of negative value -1.0"),
            ("q0^0.5", "negative base -1.0 raised to non-integer power 0.5")):
        with pytest.raises(om.DomainEvalError) as err:
            om.parse(text, ctx).evaluate({om.jet(1, 0): value})
        assert str(err.value) == message


@pytest.mark.parametrize("text", ["exp(800 + q0)", "0*exp(1000*q0^2 + 800)"])
def test_equivalent_numeric_counts_no_overflow_as_agreement(text):
    # an infinity or a NaN against 12345 disagrees, and the first such
    # sample is the worst, with deviation NaN
    with np.errstate(over="ignore", invalid="ignore"):
        result = om.equivalent_numeric(om.parse(text, CTX),
                                       om.parse("12345", CTX))
        same = om.equivalent_numeric(om.parse(text, CTX),
                                     om.parse(text, CTX))
    assert result.equivalent is False
    assert np.isnan(result.max_deviation)
    assert result.worst_values[1] == 12345
    assert not np.isfinite(result.worst_values[0])
    # equal infinities agree; two NaNs do not
    assert same.equivalent is (text == "exp(800 + q0)")


# -- printing shared subexpressions ---------------------------------------------


def _roster_rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _chain_rotors_doc(seed, n):
    """n rotors in a chain, built as the benchmark's six-rotor roster entry:
    nearest-neighbour springs plus all-pairs velocity couplings, so W is
    dense and its determinant's minors are shared throughout."""
    rng = _roster_rng(seed, 4)
    terms = ["1/2*(" + " + ".join(f"q1_{a}^2" for a in range(1, n + 1)) + ")"]
    terms += [f"{rng.uniform(0.02, 0.1):.6f}*cos(q0_{a} - q0_{b})*q1_{a}*q1_{b}"
              for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    springs = rng.uniform(0.5, 1.5, n)
    terms.append(f"-1/2*{springs[0]:.6f}*q0_1^2")
    terms += [f"-1/2*{springs[a]:.6f}*(q0_{a} - q0_{a + 1})^2"
              for a in range(1, n)]
    return {"name": f"chain{n}", "order": 1, "dofs": n,
            "lagrangian": " + ".join(terms), "autonomous": True}


def _roster_nl3_doc(seed):
    """Three sixth-order oscillators with weak couplings, as the
    benchmark's nl3 roster entry."""
    rng = _roster_rng(seed, 1)
    freqs = np.linspace(0.55, 1.45, 9) + rng.uniform(-0.03, 0.03, 9)
    order = rng.permutation(9)
    terms = []
    for dof in range(3):
        w2 = np.round(freqs[order[3 * dof:3 * dof + 3]], 6) ** 2
        a, c = w2.sum(), w2.prod()
        b = w2[0] * w2[1] + w2[0] * w2[2] + w2[1] * w2[2]
        d = dof + 1
        terms.append(f"1/2*(q3_{d}^2 - {a:.6f}*q2_{d}^2 + {b:.6f}*q1_{d}^2"
                     f" - {c:.6f}*q0_{d}^2)")
    e1, e2, e3 = rng.uniform(0.01, 0.03, 3)
    terms += [f"{e1:.6f}*q0_3^2*q3_1^2", f"{e2:.6f}*q0_1^2*q0_2^2",
              f"{e3:.6f}*q0_2*q0_3*q1_1^2"]
    return {"name": "nl3", "order": 3, "dofs": 3,
            "lagrangian": " + ".join(terms), "autonomous": True}


def _roster_order4_doc(seed):
    """The order-4, two-dof roster entry with a state-dependent W entry."""
    rng = _roster_rng(seed, 3)
    a1, a2 = rng.uniform(1.0, 2.0, 2)
    k, e = rng.uniform(0.1, 0.5), rng.uniform(0.01, 0.05)
    text = (f"1/2*(q4_1^2 + q4_2^2) - 1/2*({a1:.6f}*q2_1^2 + {a2:.6f}*q2_2^2)"
            f" + 1/2*{k:.6f}*(q1_1 - q1_2)^2 + {e:.6f}*q0_2^2*q4_1^2"
            f" - 1/2*(q0_1^2 + q0_2^2)")
    return {"name": "order4", "order": 4, "dofs": 2, "lagrangian": text,
            "autonomous": True}


def _printed_docs():
    """The seven demos, and the benchmark's derive roster of seeds 1-3."""
    docs = {path.stem: json.loads(path.read_text())
            for path in sorted(DEMO_SYSTEMS.glob("*.json"))}
    for seed in (1, 2, 3):
        docs[f"nl3-{seed}"] = _roster_nl3_doc(seed)
        docs[f"order4-{seed}"] = _roster_order4_doc(seed)
        docs[f"chain6-{seed}"] = _chain_rotors_doc(seed, 6)
    return docs


def _tree_text(expr, n):
    """The plain recursive printer, the oracle of to_text: every occurrence
    of a shared node is rendered anew."""
    if isinstance(expr, ex.Const):
        if expr.value < 0:
            return f"-{ex._format_number(-expr.value)}", ex._PREC_UNARY
        return ex._format_number(expr.value), ex._PREC_ATOM
    if isinstance(expr, ex.Variable):
        return expr.ref.display(n), ex._PREC_ATOM
    if isinstance(expr, ex.Call):
        return f"{expr.fname}({_tree_text(expr.arg, n)[0]})", ex._PREC_ATOM
    if isinstance(expr, ex.Neg):
        return (f"-{ex._wrap(*_tree_text(expr.child, n), ex._PREC_UNARY + 1)}",
                ex._PREC_UNARY)
    if isinstance(expr, ex.Power):
        e = expr.exponent
        etext = ex._format_number(e) if e >= 0 else f"-{ex._format_number(-e)}"
        return (f"{ex._wrap(*_tree_text(expr.base, n), ex._PREC_ATOM)}^{etext}",
                ex._PREC_POWER)
    if isinstance(expr, ex.Quotient):
        num = ex._wrap(*_tree_text(expr.numerator, n), ex._PREC_TERM)
        den = ex._wrap(*_tree_text(expr.denominator, n), ex._PREC_TERM + 1)
        return f"{num}/{den}", ex._PREC_TERM
    if isinstance(expr, ex.Product):
        return "*".join(
            ex._wrap(*_tree_text(f, n), ex._PREC_TERM + (1 if i else 0))
            for i, f in enumerate(expr.factors)), ex._PREC_TERM
    out = ex._wrap(*_tree_text(expr.terms[0], n), ex._PREC_SUM)
    for term in expr.terms[1:]:
        sign, body = "+", term
        if isinstance(term, ex.Neg):
            sign, body = "-", term.child
        elif isinstance(term, ex.Const) and term.value < 0:
            sign, body = "-", ex.Const(-term.value)
        else:
            coeff, factors = ex._term_parts(term)
            if coeff < 0 and factors:
                sign, body = "-", ex._rebuild_term(-coeff, factors)
        out += f" {sign} {ex._wrap(*_tree_text(body, n), ex._PREC_SUM + 1)}"
    return out, ex._PREC_SUM


def _compound_ids(expr):
    """The ids of the distinct non-leaf nodes of ``expr``, and the count of
    non-leaf nodes of the tree it spells."""
    sizes = {}

    def walk(node):
        if isinstance(node, (ex.Const, ex.Variable)):
            return 0
        if id(node) not in sizes:
            sizes[id(node)] = 1 + sum(walk(child) for child in _children(node))
        return sizes[id(node)]

    size = walk(expr)
    return set(sizes), size


def _counted_text(monkeypatch, expr, n):
    """to_text(expr, n), and how often each non-leaf node was rendered:
    called, and not answered from the memo of the call."""
    renders = {}
    render = ex._render

    def counting(node, n, *memo):
        if (not isinstance(node, (ex.Const, ex.Variable))
                and (not memo or memo[0].get(id(node)) is None)):
            renders[id(node)] = renders.get(id(node), 0) + 1
        return render(node, n, *memo)

    with monkeypatch.context() as patch:
        patch.setattr(ex, "_render", counting)
        text = ex.to_text(expr, n)
    return text, renders


def test_dense_determinant_renders_each_node_once(monkeypatch):
    # det W of six dense rotors is a DAG: each minor is one object, read by
    # every larger minor that contains it
    ds = om.derive(om.build_system(_chain_rotors_doc(1, 6)))
    det = legendre.hessian_det_expr(ds)
    nodes, tree_size = _compound_ids(det)
    assert tree_size > 5 * len(nodes)
    text, renders = _counted_text(monkeypatch, det, 6)
    assert text == _tree_text(det, 6)[0]
    assert {key: count for key, count in renders.items()
            if key in nodes and count > 1} == {}
    # the rest are the fresh terms whose leading minus a sum pulls out
    assert sum(renders.values()) - len(renders.keys() & nodes) < tree_size // 5


@pytest.mark.parametrize("key", sorted(_printed_docs()))
def test_to_text_equals_the_tree_printer_on_every_family(key):
    ds = om.derive(om.build_system(_printed_docs()[key]))
    exprs = _kernel_families(ds) + list(ds.el)
    if ds.n > 1:
        exprs.append(legendre.hessian_det_expr(ds))
    for expr in exprs:
        assert ex.to_text(expr, ds.n) == _tree_text(expr, ds.n)[0]


@pytest.mark.parametrize("shared", ["q0 + cos(q1)", "2*q0*q1", "q0^2",
                                    "-q1", "q0/q1", "sin(q0 - 1)"])
def test_to_text_renders_a_shared_node_once_in_every_position(
        monkeypatch, shared):
    s = om.parse(shared, CTX)
    q0, q1 = om.parse("q0", CTX), om.parse("q1", CTX)
    # the same objects as sum terms: plain, negated and with a negative
    # coefficient, whose minus a sum pulls out; the last two also hold a
    # node that occurs nowhere else
    negated = ex.Neg(ex.Product(s, ex.Call("cos", q0)))
    scaled = ex.Product(ex.Const(-2.0), s, ex.Call("sin", q1))
    expr = ex.Sum(
        ex.Sum(q1, s), ex.Sum(s, q0), ex.Sum(q0, negated), ex.Sum(q1, negated),
        ex.Sum(q0, scaled), ex.Sum(q1, scaled, s),
        ex.Product(s, q0), ex.Product(q1, s, s),
        ex.Quotient(s, q1), ex.Quotient(q0, s), ex.Quotient(s, s),
        ex.Power(s, 3.0), ex.Power(s, -0.5), ex.Neg(s),
        ex.Call("exp", s), ex.Call("log", ex.Neg(s)))
    nodes, _ = _compound_ids(expr)
    text, renders = _counted_text(monkeypatch, expr, 1)
    assert text == _tree_text(expr, 1)[0]
    assert {key: count for key, count in renders.items()
            if key in nodes and count > 1} == {}
