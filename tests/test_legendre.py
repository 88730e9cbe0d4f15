"""Mechanical derivation: momenta, Euler-Lagrange, Hessian, inverse map."""

import itertools
import json
import pathlib

import numpy as np
import pytest

import ostromech as om
from ostromech import expressions as ex
from ostromech import legendre

from conftest import chain_doc, cos_jet, derived

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "pais_uhlenbeck_derivation.json"


def test_derivation_matches_hand_worked_fixture(pu):
    """Every derived expression agrees with the independently worked file."""
    doc = json.loads(FIXTURE.read_text())
    ctx = om.SystemContext.for_reports(2, 1)

    def same(derived_expr, text):
        r = om.equivalent_numeric(derived_expr, om.parse(text, ctx), tol=1e-12)
        assert r.equivalent, f"{om.to_text(derived_expr)} != {text}"

    same(pu.model.lagrangian, doc["lagrangian"])
    for level, text in enumerate(doc["momenta"]):
        same(pu.momenta[0][level], text)
    same(pu.el[0], doc["euler_lagrange"])
    same(pu.hessian[0][0], doc["hessian"][0][0])
    same(om.hessian_det_expr(pu.model), doc["hessian_det"])

    probe = doc["cos_jet"]
    jp = om.JetPoint(probe["t"], np.array([probe["jets"]]))
    np.testing.assert_allclose(om.legendre_map(pu, jp), [probe["momenta"]],
                               atol=1e-14)
    assert pu.lagrangian_value(om.jet_bindings(jp)) == pytest.approx(
        probe["lagrangian_value"], abs=1e-14)


def test_closed_form_momenta_match_recursion(all_systems):
    for ds in all_systems.values():
        closed = om.momentum_exprs(ds.model)
        rec = om.momentum_exprs_recursive(ds.model)
        for a in range(ds.n):
            for i in range(ds.k):
                r = om.equivalent_numeric(closed[a][i], rec[a][i], tol=1e-12)
                assert r.equivalent, (ds.model.name, a, i, r.max_deviation)


def test_harmonic_momentum_is_velocity(harmonic):
    ctx = om.SystemContext.for_reports(1, 1)
    assert om.equivalent_numeric(harmonic.momenta[0][0],
                                 om.parse("q1", ctx)).equivalent


def test_free_particle_euler_lagrange(free_particle):
    ctx = om.SystemContext.for_reports(1, 1)
    assert om.equivalent_numeric(free_particle.el[0],
                                 om.parse("-q2", ctx)).equivalent


def test_coupled_beam_derivation(coupled_beam):
    ctx = om.SystemContext.for_reports(2, 2)
    for a, dof in ((0, 1), (1, 2)):
        assert om.equivalent_numeric(
            coupled_beam.momenta[a][1], om.parse(f"q2_{dof}", ctx)).equivalent
        assert om.equivalent_numeric(
            coupled_beam.momenta[a][0], om.parse(f"-q3_{dof}", ctx)).equivalent
    assert om.equivalent_numeric(
        coupled_beam.el[0], om.parse("q4_1 - (q0_1 - q0_2)", ctx)).equivalent
    assert om.equivalent_numeric(
        coupled_beam.el[1], om.parse("q4_2 + (q0_1 - q0_2)", ctx)).equivalent


def test_driven_el_vanishes_on_exact_solution(driven):
    # q(t) = cos t + 2/3 sin t - 1/3 sin 2t solves q'' + q = sin 2t
    for t in np.linspace(0.0, 7.0, 29):
        q0 = np.cos(t) + 2 / 3 * np.sin(t) - 1 / 3 * np.sin(2 * t)
        q1 = -np.sin(t) + 2 / 3 * np.cos(t) - 2 / 3 * np.cos(2 * t)
        q2 = -np.cos(t) - 2 / 3 * np.sin(t) + 4 / 3 * np.sin(2 * t)
        env = om.jet_bindings(om.JetPoint(t, np.array([[q0, q1, q2]])))
        assert abs(driven.el[0].evaluate(env)) < 1e-12


def test_hessians(pu, coupled_beam, degenerate):
    assert om.to_text(om.hessian_det_expr(pu.model)) == "1"
    np.testing.assert_array_equal(coupled_beam.hessian_value({}), np.eye(2))
    assert degenerate.hessian_value({})[0][0] == 0.0

    cross = om.derive(om.build_system({
        "name": "cross", "order": 1, "dofs": 2,
        "lagrangian": "1/2*(q1_1^2 + q1_2^2) + 1/2*q1_1*q1_2"}))
    np.testing.assert_allclose(cross.hessian_value({}),
                               [[1.0, 0.5], [0.5, 1.0]])
    assert om.to_text(om.hessian_det_expr(cross.model)) == "0.75"
    assert om.to_text(om.hessian_det_expr(degenerate)) == "0"


def _tridiagonal_doc(n):
    """W tridiagonal: diagonal 1 + q0_a^2/10, off-diagonal cos(q0_a)/5, and
    zero entries everywhere else."""
    terms = [f"1/2*(1 + 1/10*q0_{a}^2)*q1_{a}^2" for a in range(1, n + 1)]
    terms += [f"1/5*cos(q0_{a})*q1_{a}*q1_{a + 1}" for a in range(1, n)]
    return {"name": f"tridiagonal{n}", "order": 1, "dofs": n,
            "lagrangian": " + ".join(terms)}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["dense", "tridiagonal", "zero_row"])
def test_hessian_det_expr_equals_numeric_det(n, kind):
    zero_dof = n // 2 + 1 if kind == "zero_row" else None
    doc = (_tridiagonal_doc(n) if kind == "tridiagonal"
           else chain_doc(n, zero_dof))
    ds = om.derive(om.build_system(doc))
    det = om.hessian_det_expr(ds)
    if kind == "zero_row":
        assert om.to_text(det, n) == "0"
    variables = {v for row in ds.hessian for entry in row
                 for v in entry.free_vars()}
    rng = np.random.default_rng(n)
    for _ in range(5):
        env = ex.sample_point(variables, rng)
        assert det.evaluate(env) == pytest.approx(
            np.linalg.det(ds.hessian_value(env)), rel=1e-12, abs=0.0)


def test_hessian_det_expr_cost_is_subset_bounded(monkeypatch):
    """The memoized row expansion of a dense 6 x 6 W forms at most
    6 * 2^5 = 192 products (Leibniz: 720 of six factors each) and never
    re-simplifies a minor."""
    ds = om.derive(om.build_system(chain_doc(6)))
    calls = {"product": 0, "simplify": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(ex, "_normal_product",
                        counted("product", ex._normal_product))
    monkeypatch.setattr(ex, "simplify", counted("simplify", ex.simplify))
    det = om.hessian_det_expr(ds)
    assert 0 < calls["product"] <= 6 * 2 ** 5
    assert calls["simplify"] == 0
    env = ex.sample_point(det.free_vars(), np.random.default_rng(0))
    assert det.evaluate(env) == pytest.approx(
        np.linalg.det(ds.hessian_value(env)), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_derive_takes_each_total_derivative_once(k, monkeypatch):
    """derive differentiates each dL/dq_j along its chain once: per dof
    D^i dL/dq_j for 1 <= i <= j <= k, so n k(k+1)/2 total derivatives."""
    n = 2
    terms = [f"1/2*q{k}_{a}^2" for a in (1, 2)]
    terms += [f"q{i}_1*q{i + 1}_2" for i in range(k)]
    model = om.build_system({"name": f"order{k}", "order": k, "dofs": n,
                             "lagrangian": " + ".join(terms)})
    calls = []
    total_derivative = ex.total_derivative

    def counted(*args):
        calls.append(args)
        return total_derivative(*args)

    monkeypatch.setattr(ex, "total_derivative", counted)
    ds = legendre.derive(model)
    assert len(calls) == n * k * (k + 1) // 2
    monkeypatch.undo()
    assert ds.momenta == legendre.momentum_exprs(model)
    assert ds.el == legendre.euler_lagrange_exprs(model)
    assert ds.hessian == legendre.hessian_exprs(model)


def test_acceleration_oracle(pu):
    # el = 4 q0 + 5 q2 + q4 = 0 gives q4 = -4 q0 - 5 q2; cos jet ->  1
    env = om.jet_bindings(cos_jet())
    np.testing.assert_allclose(pu.acceleration(env), [1.0], atol=1e-14)

    harmonic = derived("harmonic")
    env = om.jet_bindings(om.JetPoint(0.0, np.array([[0.3, 0.0]])))
    np.testing.assert_allclose(harmonic.acceleration(env), [-0.3], atol=1e-15)


def test_singular_acceleration_raises_with_time(degenerate):
    env = om.jet_bindings(om.JetPoint(0.75, np.array([[1.0, 2.0, 3.0, 4.0]])))
    with pytest.raises(om.SingularHessianError) as info:
        degenerate.acceleration(env)
    assert info.value.time == 0.75
    assert "t=0.75" in str(info.value)


def test_regularity_report_regular(pu):
    rep = om.regularity_report(pu, samples=100, seed=0)
    assert rep.regular
    assert rep.min_abs_det == 1.0 and rep.max_abs_det == 1.0
    assert rep.max_condition == 1.0
    d = rep.to_dict()
    assert d["rank_at_worst_point"] == 1
    assert d["samples"] == 100 and d["seed"] == 0


@pytest.mark.parametrize("samples", [0, -3])
def test_regularity_report_needs_a_sample(pu, samples):
    with pytest.raises(om.ValidationError, match="samples must be at least 1"):
        om.regularity_report(pu, samples=samples)


def test_regularity_report_degenerate(degenerate):
    rep = om.regularity_report(degenerate, samples=50, seed=3)
    assert not rep.regular
    assert rep.min_abs_det == 0.0 and rep.max_abs_det == 0.0
    assert rep.to_dict()["rank_at_worst_point"] == 0


def test_regularity_sign_crossing():
    # W = [[q0]] is singular where the sampled box pins q0 to zero
    model = om.build_system({"name": "crossing", "order": 1, "dofs": 1,
                             "lagrangian": "1/2*q0*q1^2"})
    wide = om.regularity_report(model, samples=100, seed=0)
    assert wide.min_abs_det < wide.max_abs_det  # det actually varies
    pinned = om.regularity_report(model, domain=(0.0, 0.0), samples=20,
                                  seed=0)
    assert not pinned.regular
    assert pinned.to_dict()["rank_at_worst_point"] == 0


def particle(mass, n):
    """Free particle with n dofs and W = mass * identity."""
    kinetic = " + ".join(f"q1_{a}^2" for a in range(1, n + 1))
    return om.build_system({"name": "particle", "order": 1, "dofs": n,
                            "lagrangian": f"1/2*{mass!r}*({kinetic})"})


def test_regularity_test_is_scale_invariant():
    """W = c*I is regular for every c, whatever the units; the verdict
    comes from kappa_1(W), which scaling leaves at 1."""
    for n, mass in itertools.product((1, 2, 3), (1e-6, 1e-3, 1.0, 1e3, 1e6)):
        inv, condition = legendre._regular_inverse(mass * np.eye(n))
        np.testing.assert_allclose(inv, np.eye(n) / mass, rtol=1e-15)
        assert condition == pytest.approx(1.0, rel=1e-15)

        ds = om.derive(particle(mass, n))
        report = om.regularity_report(ds, samples=5, seed=0)
        assert report.regular
        assert report.max_condition == pytest.approx(1.0, rel=1e-15)
        assert report.rank_at_worst == n

        init = om.JetPoint(0.0, np.tile([1.0, -0.5], (n, 1)))
        traj = om.integrate(ds, init, 1.0)
        np.testing.assert_allclose(traj.states[-1], np.tile([0.5, -0.5], n),
                                   rtol=1e-12)


@pytest.mark.parametrize("w", [[[1.0, 1.0], [1.0, 1.0]],
                               [[1.0, 0.0], [0.0, 1e-10]],
                               [[0.0, 0.0], [0.0, 0.0]]])
def test_regularity_test_refuses_singular(w):
    for scale in (1e-6, 1.0, 1e6):
        inv, condition = legendre._regular_inverse(scale * np.array(w))
        assert inv is None and condition >= 1e9


def test_regularity_test_nan_is_not_singular():
    inv, condition = legendre._regular_inverse(np.array([[np.nan]]))
    assert inv is not None and np.isnan(condition)


def test_rank_deficient_hessian_refused_by_dynamics():
    model = om.build_system({"name": "sum", "order": 1, "dofs": 2,
                             "lagrangian": "1/2*(q1_1 + q1_2)^2"})
    ds = om.derive(model)
    assert not om.regularity_report(ds, samples=5, seed=0).regular
    with pytest.raises(om.SingularHessianError):
        om.integrate(ds, om.JetPoint(0.0, np.array([[0.0, 1.0],
                                                    [0.0, 2.0]])), 1.0)


def test_hessian_det_expr_reuses_derived_hessian(pu, monkeypatch):
    expected = om.to_text(om.hessian_det_expr(pu.model))
    monkeypatch.setattr(legendre, "hessian_exprs", None)
    assert om.to_text(om.hessian_det_expr(pu)) == expected


def test_legendre_map_cos_jet(pu):
    np.testing.assert_allclose(om.legendre_map(pu, cos_jet()), [[0.0, -1.0]],
                               atol=1e-14)
    with pytest.raises(om.DimensionError):
        om.legendre_map(pu, om.JetPoint(0.0, np.array([[1.0, 0.0]])))


def test_legendre_inverse_round_trip(pu, coupled_beam):
    rng = np.random.default_rng(11)
    for ds in (pu, coupled_beam):
        n, k = ds.n, ds.k
        for _ in range(5):
            base = rng.uniform(-1, 1, size=(n, k))
            high = rng.uniform(-1, 1, size=(n, k))
            jp = om.JetPoint(0.0, np.hstack([base, high]))
            p = om.legendre_map(ds, jp)
            got = om.legendre_inverse(ds, 0.0, base, p)
            assert isinstance(got, np.ndarray) and got.shape == (n, k)
            np.testing.assert_allclose(got, high, atol=1e-9)


def test_legendre_inverse_nonlinear():
    # p = q1 + q1^3/3 is monotone, so Newton must land on the unique root
    ds = om.derive(om.build_system({"name": "quartic", "order": 1, "dofs": 1,
                                    "lagrangian": "1/2*q1^2 + 1/12*q1^4"}))
    q1 = 0.8
    p = q1 + q1 ** 3 / 3
    got = om.legendre_inverse(ds, 0.0, [[0.2]], [[p]])
    np.testing.assert_allclose(got, [[q1]], atol=1e-10)


def test_legendre_inverse_errors(degenerate, pu):
    with pytest.raises(om.SingularJacobianError):
        om.legendre_inverse(degenerate, 0.0, [[1.0, 0.0]], [[5.0, 3.0]])
    with pytest.raises(om.ConvergenceError):
        om.legendre_inverse(pu, 0.0, [[0.0, 0.0]], [[1.0, 1.0]],
                            max_iterations=0)
    # an exact guess satisfies the residual test before any iteration
    got = om.legendre_inverse(pu, 0.0, [[0.0, 0.0]], [[0.0, 1.0]],
                              guess=[[1.0, 0.0]], max_iterations=0)
    np.testing.assert_allclose(got, [[1.0, 0.0]])
    with pytest.raises(om.DimensionError):
        om.legendre_inverse(pu, 0.0, [[0.0]], [[0.0, 1.0]])


# W = diag(1, 1e-12): kappa_1(W) = 1e12 is past the one regularity test
STIFF_PAIR = {"name": "stiff-pair", "order": 1, "dofs": 2,
              "lagrangian": "1/2*q1_1^2 + 1/2*0.000000000001*q1_2^2"
                            " - 1/2*q0_1^2 - 1/2*q0_2^2"}


def test_legendre_inverse_shares_the_regularity_test():
    ds = om.derive(om.build_system(STIFF_PAIR))
    jp = om.JetPoint(0.0, [[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(om.SingularHessianError):
        om.lagrangian_rhs(ds, 0.0, jp.to_state())
    with pytest.raises(om.SingularJacobianError):
        om.legendre_inverse(ds, 0.0, jp.q[:, :1], om.legendre_map(ds, jp))


INVERSE_DOCS = [
    {"name": "nl3", "order": 3, "dofs": 3,
     "lagrangian": "1/2*(1 + q0_2^2)*q3_1^2 + 1/2*q3_2^2"
                   " + 1/2*q3_3^2*(1 + 1/10*q1_1^2) + 1/5*q3_1*q3_2"
                   " - q0_1^2*q2_3 + cos(q1_2)*q2_1*q0_3"},
    {"name": "order4", "order": 4, "dofs": 2,
     "lagrangian": "1/2*q4_1^2 + 1/2*(1 + 1/4*q0_1^2)*q4_2^2"
                   " + 1/3*q4_1*q3_2 - q1_1^2*q2_2 - 1/2*q0_1^2 - 1/2*q0_2^2"},
    {"name": "driven-beam", "order": 2, "dofs": 1, "autonomous": False,
     "lagrangian": "1/2*(1 + 1/4*t^2)*q2^2 + sin(t)*q1*q2 - 1/2*q0^2"},
]


@pytest.mark.parametrize("doc", INVERSE_DOCS, ids=lambda doc: doc["name"])
def test_legendre_inverse_round_trip_levels(doc):
    ds = om.derive(om.build_system(doc))
    rng = np.random.default_rng(5)
    for _ in range(5):
        t = float(rng.uniform(-1, 1))
        base = rng.uniform(-1, 1, size=(ds.n, ds.k))
        high = rng.uniform(-1, 1, size=(ds.n, ds.k))
        p = om.legendre_map(ds, om.JetPoint(t, np.hstack([base, high])))
        np.testing.assert_allclose(om.legendre_inverse(ds, t, base, p), high,
                                   atol=1e-9)


def test_worst_point_named_with_the_system_dofs(tmp_path):
    # only q0_1 enters W, yet the system has two dofs
    ds = om.derive(om.build_system({
        "name": "two-dof", "order": 2, "dofs": 2,
        "lagrangian": "1/2*q2_1^2*(1 + q0_1^2) + 1/2*q2_2^2"
                      " - 1/2*q0_1^2 - 1/2*q0_2^2"}))
    worst = om.regularity_report(ds, samples=5).to_dict()["worst_point"]
    assert list(worst) == ["q0_1"]
