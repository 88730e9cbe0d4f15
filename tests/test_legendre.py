"""Mechanical derivation: momenta, Euler-Lagrange, Hessian, Legendre map."""

import itertools
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

import ostromech as om
from ostromech import expressions as ex
from ostromech import legendre

from conftest import (LOG_DOC, NL3_LIKE, SYSTEM_DOCS, chain_doc, cos_jet,
                      derived, field_family, field_outcome, reference_field)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "pais_uhlenbeck_derivation.json"
DEMO_SYSTEMS = pathlib.Path(__file__).parent.parent / "demos" / "systems"


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
    re-simplifies a minor; W is read first, since it is derived on first
    read."""
    ds = om.derive(om.build_system(chain_doc(6)))
    ds.hessian
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
    """Reading the families differentiates each dL/dq_j along its chain
    once: per dof D^i dL/dq_j for 1 <= i <= j <= k, so n k(k+1)/2 total
    derivatives, of which the momenta read n k(k-1)/2."""
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
    ds.momenta, ds.el, ds.hessian
    assert len(calls) == n * k * (k + 1) // 2
    monkeypatch.undo()
    assert ds.momenta == legendre.momentum_exprs(model)
    assert ds.hessian == [
        [ex.simplify(ex.diff(ex.diff(model.lagrangian, ex.jet(a, k)),
                             ex.jet(b, k))) for b in range(1, n + 1)]
        for a in range(1, n + 1)]


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


# -- the stacked regularity sweep --------------------------------------------
#
# The reference is the sample-by-sample sweep: W tree-walked at each point
# that expressions.sample_point draws and judged alone by _regular_inverse.
# The compiled, stacked sweep must give the same report, float for float.

DEMO_SYSTEMS = (pathlib.Path(__file__).resolve().parent.parent
                / "demos" / "systems")
CROSSING = {"name": "crossing", "order": 1, "dofs": 1,
            "lagrangian": "1/2*q0*q1^2"}
# W = q0 + |q0| is exactly zero at every negative q0, so a block mixes
# singular and regular W
KINK = {"name": "kink", "order": 1, "dofs": 1,
        "lagrangian": "1/2*(q0 + sqrt(q0^2))*q1^2"}
# W = 2e300*q0 overflows to +-inf where |q0| exceeds about 9e7, and there
# kappa_1 = inf * 0 is NaN
HUGE = {"name": "huge", "order": 1, "dofs": 1, "lagrangian": "1e300*q0*q1^2"}
# W = 1e300*(exp(q0) - exp(2*q0)) is -inf for q0 in about (9.5, 19) and
# inf - inf = NaN above, so some |det W| are NaN
OVERFLOW = {"name": "overflow", "order": 1, "dofs": 1,
            "lagrangian": "1/2*(1e300*exp(q0) - 1e300*exp(2*q0))*q1^2"}
# W = q0^400 overflows Python floats' ** where |q0| exceeds about 5.6; on
# numpy scalars it is inf there
POWER = {"name": "power", "order": 1, "dofs": 1,
         "lagrangian": "1/2*q0^400*q1^2"}
# W = (q0+1)^400 - q0^400 is inf - inf = NaN where both powers overflow
GAP = {"name": "gap", "order": 1, "dofs": 1,
       "lagrangian": "1/2*((q0+1)^400 - q0^400)*q1^2"}


def _swept_one_by_one(ds, domain=None, samples=100, seed=0):
    variables = set()
    for row in ds.hessian:
        for entry in row:
            variables |= entry.free_vars()
    rng = np.random.default_rng(seed)
    regular, min_det, max_det = True, np.inf, 0.0
    max_condition, worst_point, worst_w = -np.inf, {}, None
    for _ in range(samples):
        point = ex.sample_point(variables, rng, domain)
        w = ds.hessian_value({ref: np.float64(value)
                              for ref, value in point.items()})
        condition = legendre._regular_inverse(w)[1]
        if not condition * legendre._SINGULAR_RTOL < 1.0:
            regular = False
        # the first NaN kappa_1 is worst, else the first largest
        if not (math.isnan(max_condition) or condition <= max_condition):
            max_condition, worst_point, worst_w = condition, point, w
        detval = abs(np.linalg.det(w))
        min_det, max_det = min(min_det, detval), max(max_det, detval)
    return legendre.RegularityReport(
        regular=regular, min_abs_det=float(min_det),
        max_abs_det=float(max_det), max_condition=max_condition,
        worst_point={ref.display(ds.n): value
                     for ref, value in worst_point.items()},
        rank_at_worst_point=(int(np.linalg.matrix_rank(worst_w))
                             if np.all(np.isfinite(worst_w)) else None),
        samples=samples, seed=seed).to_dict()


def _sweep_cases():
    for path in sorted(DEMO_SYSTEMS.glob("*.json")):
        doc = json.loads(path.read_text())
        yield path.stem, doc, None, 100, 42
    mass = json.loads((DEMO_SYSTEMS / "coupled_mass.json").read_text())
    blocks = 2 * legendre._SWEEP_BLOCK + 37
    for seed in (0, 3, 11):
        yield f"coupled_mass-{seed}", mass, None, blocks, seed
    yield "coupled_mass-wide", mass, (-40.0, 40.0), 300, 5
    yield "crossing-pinned", CROSSING, (0.0, 0.0), 20, 0
    yield "crossing-unit", CROSSING, (-1.0, 1.0), 300, 0
    degenerate = json.loads((DEMO_SYSTEMS / "degenerate.json").read_text())
    yield "degenerate-blocks", degenerate, None, legendre._SWEEP_BLOCK + 1, 3
    yield "kink", KINK, (-1.0, 1.0), 300, 0
    # a NaN kappa_1 is worst, whether it comes first (seed 0) or after a
    # finite one (seed 1); GAP's W is NaN at seed 3, where it has no rank
    yield "huge-nan-first", HUGE, (-1e9, 1e9), 40, 0
    yield "huge-nan-later", HUGE, (-1e9, 1e9), 40, 1
    yield "overflow-nan-det", OVERFLOW, (-30.0, 30.0), 60, 1
    yield "power-inf", POWER, (-10.0, 10.0), 60, 2
    yield "gap-nan-later", GAP, (-10.0, 10.0), 40, 0
    yield "gap-nan-w", GAP, (-10.0, 10.0), 40, 3
    # across blocks: the first NaN comes in the second block at seed 2,
    # and every block has one over the wider box
    yield "gap-nan-second-block", GAP, (-5.0, 4.95), blocks - 20, 2
    yield "gap-nan-every-block", GAP, (-10.0, 10.0), blocks - 20, 4


SWEEP_CASES = list(_sweep_cases())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("doc, domain, samples, seed",
                         [case[1:] for case in SWEEP_CASES],
                         ids=[case[0] for case in SWEEP_CASES])
def test_stacked_sweep_is_the_sample_by_sample_sweep(doc, domain, samples,
                                                     seed):
    ds = om.derive(om.build_system(doc))
    got = om.regularity_report(ds, domain=domain, samples=samples,
                               seed=seed).to_dict()
    assert repr(got) == repr(_swept_one_by_one(ds, domain, samples, seed))


def test_unified_families_are_derived_on_first_read(pu):
    ds = om.derive(pu.model)
    lazy = ("momenta", "el", "hessian", "hamiltonian", "lagrangian_partials",
            "hamiltonian_partials", "el_reduced")
    assert not set(lazy) & set(vars(ds))
    for name in lazy:
        assert getattr(ds, name) == getattr(pu, name)
        assert getattr(ds, name) is getattr(ds, name)


def test_sweep_judges_an_overflowing_w_without_warnings():
    # q0^400 overflows at nearly every sample: W is inf there, kappa_1 is
    # NaN, and a NaN kappa_1 fails the box
    ds = om.derive(om.build_system(POWER))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = om.regularity_report(ds, domain=(-1e9, 1e9))
    assert not report.regular
    assert np.isnan(report.max_condition)
    assert report.min_abs_det == report.max_abs_det == np.inf
    # an all-inf W is not the zero matrix: it has no rank
    assert report.rank_at_worst_point is None


def test_stacked_sweep_raises_the_tree_walkers_error():
    # 2*sqrt(q0) is a domain error at every negative sample
    ds = om.derive(om.build_system({"name": "root", "order": 1, "dofs": 1,
                                    "lagrangian": "sqrt(q0)*q1^2"}))
    with pytest.raises(om.DomainEvalError) as want:
        _swept_one_by_one(ds, samples=50, seed=1)
    with pytest.raises(om.DomainEvalError) as got:
        om.regularity_report(ds, samples=50, seed=1)
    assert str(got.value) == str(want.value)


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
        assert report.rank_at_worst_point == n

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


def _dense_w(rng, n, kappa):
    """A dense n x n matrix of random scale whose 2-norm condition number
    is kappa (1 for n = 1)."""
    u = np.linalg.qr(rng.normal(size=(n, n)))[0]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    s = np.geomspace(1.0, 1.0 / kappa, n) * 10.0 ** rng.uniform(-3.0, 3.0)
    return (u * s) @ v.T


@pytest.mark.parametrize("n", [1, 2, 3])
def test_straight_line_top_jets_match_the_solve(n, harmonic, pu):
    """Over dense W with kappa_1 from 1 to 1e8, the adjugate solve accepts
    W and agrees with the inversion route to 1e-12 kappa_1 relative, for
    odd and even k."""
    rng = np.random.default_rng(n)
    solve = legendre._top_jet_solver(n)
    for _ in range(500):
        w = _dense_w(rng, n, 10.0 ** rng.uniform(0.0, 8.0))
        reduced = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        condition = legendre._regular_inverse(w)[1]
        for ds in (harmonic, pu):
            got = solve([*w.ravel().tolist(), *reduced.tolist()],
                        -1.0 if ds.k % 2 else 1.0)
            want = legendre._solve_top_jets(ds.k, w, reduced, 0.0)
            assert got is not None
            assert (np.max(np.abs(np.subtract(got, want)))
                    <= 1e-12 * condition * np.max(np.abs(want)))


# -- the generated unified field ----------------------------------------------
#
# DerivedSystem._field is one generated function: the body of the kernel
# of its family, the top-jet solve and the assembly of the derivative.
# Each test holds it bit for bit to an independent route: the values of
# the family's compiled kernel, then the solve, then the jet shift by
# array slicing.

FIELD_DOCS = [SYSTEM_DOCS[key] for key in
              ("harmonic", "driven", "pais_uhlenbeck", "coupled_beam")] + [
    NL3_LIKE, chain_doc(4)]


def _kernel_route(ds, t, y):
    exprs, coords = field_family(ds)
    values = ex.compile_kernel(exprs, coords)(
        t, *y[:2 * ds.k * ds.n].tolist())
    return reference_field(ds, t, y, values)


@pytest.mark.parametrize("forced", [False, True], ids=["solve", "inverse"])
@pytest.mark.parametrize("doc", FIELD_DOCS, ids=lambda doc: doc["name"])
def test_generated_field_matches_the_kernel_route(monkeypatch, doc, forced):
    """Random jet and unified states of n = 1, 2, 3 and 4 dofs; forced,
    every W goes to _solve_top_jets, as it does above n = 3."""
    inverted = []
    solve_top_jets = legendre._solve_top_jets
    monkeypatch.setattr(legendre, "_solve_top_jets",
                        lambda *args: (inverted.append(args[-1]),
                                       solve_top_jets(*args))[1])
    if forced:
        monkeypatch.setattr(legendre, "_top_jet_solver", lambda n: None)
    ds = om.derive(om.build_system(doc))
    k, n = ds.k, ds.n
    rng = np.random.default_rng(n * 10 + k)
    for layout in (2, 3):
        for _ in range(50):
            t = float(rng.uniform(-2.0, 2.0))
            y = rng.uniform(-2.0, 2.0, layout * k * n)
            got = field_outcome(lambda: ds._field(t, y))
            assert got[0] == "ok"
            assert got == field_outcome(lambda: _kernel_route(ds, t, y))
    # the field and the route each inverted W once per state
    assert len(inverted) == (200 if forced or n > 3 else 0)


@pytest.mark.parametrize("layout", [2, 3])
@pytest.mark.parametrize("q0", [0.0, -0.5])
def test_generated_field_raises_the_tree_walkers_domain_error(layout, q0):
    ds = om.derive(om.build_system(LOG_DOC))
    y = np.array([q0, 0.3, -0.2, 0.1, 0.5, 0.25][:layout * 2])
    got = field_outcome(lambda: ds._field(0.5, y))
    assert got == ("DomainEvalError", f"log of non-positive value {q0}")
    assert got == field_outcome(lambda: _kernel_route(ds, 0.5, y))


@pytest.mark.parametrize("layout", [2, 3])
def test_generated_field_raises_singular_with_the_state(layout):
    doc = json.loads((DEMO_SYSTEMS / "degenerate.json").read_text())
    ds = om.derive(om.build_system(doc))
    y = np.linspace(-1.0, 1.0, layout * ds.k * ds.n)
    with pytest.raises(om.SingularHessianError) as info:
        ds._field(0.25, y)
    assert info.value.time == 0.25
    assert info.value.state.tobytes() == y.tobytes()
    assert info.value.state is not y
    assert (field_outcome(lambda: ds._field(0.25, y))
            == field_outcome(lambda: _kernel_route(ds, 0.25, y)))


def test_generated_field_is_built_once_per_system(monkeypatch):
    built = []
    generated = ex._generated

    def counting(exprs, coords, name, assemble, **extra):
        built.append(name)
        return generated(exprs, coords, name, assemble, **extra)

    monkeypatch.setattr(ex, "_generated", counting)
    ds = om.derive(om.build_system(NL3_LIKE))
    field = ds._field
    jet = om.JetPoint(0.0, np.full((3, 6), 0.1))
    om.lagrangian_rhs(ds, 0.0, jet.to_state())
    om.integrate(ds, jet, 0.5)
    om.integrate_unified(ds, om.UnifiedPoint(jet, om.legendre_map(ds, jet)),
                         0.5)
    assert ds._field is field
    assert built == ["nl3-like", "nl3-like momenta"]


def test_rank_deficient_hessian_refused_by_dynamics():
    model = om.build_system({"name": "sum", "order": 1, "dofs": 2,
                             "lagrangian": "1/2*(q1_1 + q1_2)^2"})
    ds = om.derive(model)
    assert not om.regularity_report(ds, samples=5, seed=0).regular
    with pytest.raises(om.SingularHessianError):
        om.integrate(ds, om.JetPoint(0.0, np.array([[0.0, 1.0],
                                                    [0.0, 2.0]])), 1.0)


def test_hessian_det_expr_reuses_derived_hessian(pu, monkeypatch):
    # a DerivedSystem input whose W has been read derives nothing again
    expected = om.to_text(om.hessian_det_expr(pu.model))
    pu.hessian
    for name in ("diff", "total_derivative", "simplify"):
        monkeypatch.setattr(ex, name, None)
    assert om.to_text(om.hessian_det_expr(pu)) == expected


def test_legendre_map_cos_jet(pu):
    np.testing.assert_allclose(om.legendre_map(pu, cos_jet()), [[0.0, -1.0]],
                               atol=1e-14)
    with pytest.raises(om.DimensionError):
        om.legendre_map(pu, om.JetPoint(0.0, np.array([[1.0, 0.0]])))


def test_legendre_map_tree_walks_only_where_the_kernel_fails(monkeypatch):
    # p = q1^3 + log(q0): the momenta kernel's straight-line code overflows
    # at q1 = 1e200 and meets a domain error at q0 = -1; only these two
    # are tree-walked, with the jets bound as numpy scalars
    ds = om.derive(om.build_system({
        "name": "quartic", "order": 1, "dofs": 1,
        "lagrangian": "1/4*q1^4 + log(q0)*q1"}))
    walks = []
    evaluate = ex.Expression.evaluate

    def counting(expr, env):
        if expr is ds.momenta[0][0]:
            walks.append([env[om.jet(1, 0)], env[om.jet(1, 1)]])
        return evaluate(expr, env)

    points = [om.JetPoint(0.5, [q])
              for q in ([2.0, 0.7], [0.3, -1.9], [2.0, 1e200])]
    with np.errstate(over="ignore"):
        wants = [legendre._values(ds.momenta, om.jet_bindings(jp))
                 for jp in points]
        monkeypatch.setattr(ex.Expression, "evaluate", counting)
        for jp, want in zip(points, wants):
            got = om.legendre_map(ds, jp)
            assert got.tobytes() == want.tobytes()
    assert got.tolist() == [[np.inf]]
    with pytest.raises(om.DomainEvalError) as err:
        om.legendre_map(ds, om.JetPoint(0.5, [[-1.0, 1.0]]))
    assert str(err.value) == "log of non-positive value -1.0"
    assert walks == [[2.0, 1e200], [-1.0, 1.0]]
    assert all(type(value) is np.float64 for walk in walks for value in walk)


def test_legendre_map_reads_orders_up_to_2k_minus_1(pu, coupled_beam):
    rng = np.random.default_rng(5)
    for ds in (pu, coupled_beam):
        q = rng.uniform(-1, 1, size=(ds.n, 2 * ds.k + 2))
        got = om.legendre_map(ds, om.JetPoint(0.3, q))
        want = om.legendre_map(ds, om.JetPoint(0.3, q[:, :2 * ds.k]))
        assert got.tobytes() == want.tobytes()


# W = diag(1, 1e-12): kappa_1(W) = 1e12 is past the one regularity test,
# though det W is nonzero and both entries are positive
STIFF_PAIR = {"name": "stiff-pair", "order": 1, "dofs": 2,
              "lagrangian": "1/2*q1_1^2 + 1/2*0.000000000001*q1_2^2"
                            " - 1/2*q0_1^2 - 1/2*q0_2^2"}


def test_lagrangian_rhs_refuses_an_ill_conditioned_hessian():
    ds = om.derive(om.build_system(STIFF_PAIR))
    jp = om.JetPoint(0.0, [[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(om.SingularHessianError):
        om.lagrangian_rhs(ds, 0.0, jp.to_state())


# nonlinear systems of orders 2 to 4, one of them time-dependent
LEVEL_DOCS = [
    {"name": "nl3", "order": 3, "dofs": 3,
     "lagrangian": "1/2*(1 + q0_2^2)*q3_1^2 + 1/2*q3_2^2"
                   " + 1/2*q3_3^2*(1 + 1/10*q1_1^2) + 1/5*q3_1*q3_2"
                   " - q0_1^2*q2_3 + cos(q1_2)*q2_1*q0_3"},
    {"name": "order4", "order": 4, "dofs": 2,
     "lagrangian": "1/2*q4_1^2 + 1/2*(1 + 1/4*q0_1^2)*q4_2^2"
                   " + 1/3*q4_1*q3_2 - q1_1^2*q2_2 - 1/2*q0_1^2 - 1/2*q0_2^2"},
    {"name": "driven-beam", "order": 2, "dofs": 1, "autonomous": False,
     "lagrangian": "1/2*(1 + 1/4*t^2)*q2^2 + sin(t)*q1*q2 - 1/2*q0^2"},
    SYSTEM_DOCS["pais_uhlenbeck"],
    SYSTEM_DOCS["coupled_beam"],
]


@pytest.mark.parametrize("doc", LEVEL_DOCS, ids=lambda doc: doc["name"])
def test_momentum_level_enters_its_top_jet_through_the_hessian(doc):
    # p^{r-1} reads jets of order at most 2k-r, and
    # dp^{r-1}_A/dq^B_{2k-r} = (-1)^(k-r) W_AB, so W alone relates each
    # level's momenta to its top jets
    ds = om.derive(om.build_system(doc))
    k, n = ds.k, ds.n
    for r in range(1, k + 1):
        top = 2 * k - r
        for a in range(n):
            p = ds.momenta[a][r - 1]
            assert all(ref.order <= top for ref in p.free_vars()
                       if ref.kind == "jet")
            for b in range(n):
                w = ds.hessian[a][b]
                want = w if (k - r) % 2 == 0 else ex.Neg(w)
                assert om.equivalent_numeric(
                    om.diff(p, ex.jet(b + 1, top)), want, tol=1e-12)


def test_worst_point_named_with_the_system_dofs(tmp_path):
    # only q0_1 enters W, yet the system has two dofs
    ds = om.derive(om.build_system({
        "name": "two-dof", "order": 2, "dofs": 2,
        "lagrangian": "1/2*q2_1^2*(1 + q0_1^2) + 1/2*q2_2^2"
                      " - 1/2*q0_1^2 - 1/2*q0_2^2"}))
    worst = om.regularity_report(ds, samples=5).to_dict()["worst_point"]
    assert list(worst) == ["q0_1"]
