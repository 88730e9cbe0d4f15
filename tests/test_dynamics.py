"""Integration, energy, finite differences, verification, trajectory files."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import ostromech as om
from ostromech import cli, dynamics, legendre, unified

from conftest import NL3_LIKE, cos_jet, derived, hex_digest


def pu_unified_init(pu, t=0.0):
    jp = cos_jet(t)
    return om.UnifiedPoint(jp, om.legendre_map(pu, jp))


def test_rk4_free_particle_exact(free_particle):
    init = om.JetPoint(0.0, np.array([[0.0, 1.0]]))
    traj = om.integrate(free_particle, init, 1.0, method="rk4", step=0.1)
    assert traj.meta["method"] == "rk4"
    assert traj.meta["steps"] == 10
    assert traj.meta["rejected"] == 0
    assert traj.meta["tolerance"] == pytest.approx(0.1 ** 4)
    assert abs(traj.states[-1, 0] - 1.0) <= 5e-15
    np.testing.assert_allclose(traj.grid, np.linspace(0, 1, 11), atol=1e-15)


def test_rk45_harmonic_tracks_cosine(harmonic):
    init = om.JetPoint(0.0, np.array([[1.0, 0.0]]))
    traj = om.integrate(harmonic, init, 10.0)
    assert traj.meta["method"] == "rk45"
    assert traj.meta["rejected"] >= 0
    err = np.abs(traj.states[:, 0] - np.cos(traj.grid))
    assert np.max(err) < 1e-6
    assert traj.grid[-1] == 10.0


def test_rk45_rejected_final_step_is_not_retried_unchanged(harmonic):
    # on [0, 1.45] the stretched final step is rejected, and the shrunk
    # step still reaches t_end within the 30% stretch
    init = om.JetPoint(0.0, np.array([[1.0, 0.0]]))
    traj = om.integrate(harmonic, init, 1.45, max_steps=1000)
    assert traj.meta["rejected"] >= 1
    assert traj.grid[-1] == 1.45
    assert np.max(np.abs(traj.states[:, 0] - np.cos(traj.grid))) < 1e-8


def test_rk45_final_step_respects_max_step(harmonic):
    # the 30% stretch of the final step would take 0.1298 here
    init = om.JetPoint(0.0, np.array([[1.0, 0.0]]))
    traj = om.integrate(harmonic, init, 1.3083, rtol=1e-5, atol=1e-5,
                        max_step=0.1)
    assert np.max(np.diff(traj.grid)) <= 0.1 * (1 + 1e-9)
    assert traj.grid[-1] == 1.3083


@pytest.mark.parametrize("method, step", [("rk45", None), ("rk4", 0.1)])
def test_integrator_counters(harmonic, method, step):
    # on [0, 1.45] rk45 rejects its stretched final step
    field = harmonic._field
    calls = []

    def counting(t, y):
        calls.append(t)
        return field(t, y)

    runs = []
    for _ in range(2):
        calls.clear()
        grid, states, meta = dynamics._integrate(
            counting, 0.0, np.array([1.0, 0.0]), 1.45, method, step,
            1e-9, 1e-9, np.inf, 1000)
        per_step = 6 if method == "rk45" else 4
        assert meta["rhs_calls"] == len(calls) == per_step * (
            meta["steps"] + meta["rejected"])
        steps = np.diff(grid)
        assert meta["smallest_step"] == pytest.approx(steps.min(), rel=1e-12)
        assert meta["largest_step"] == pytest.approx(steps.max(), rel=1e-12)
        runs.append((grid.tobytes(), states.tobytes(), meta))
    assert runs[0] == runs[1]
    assert (meta["rejected"] >= 1) == (method == "rk45")


@pytest.mark.parametrize("stage", range(6))
def test_rk45_rejects_a_step_with_a_non_finite_stage(stage):
    # stage 1 has weight zero in both solutions, stage 5 in the embedded one
    calls = []

    def decay(t, y):
        calls.append(t)
        return np.full_like(y, np.inf) if len(calls) == stage + 1 else -y

    with np.errstate(invalid="ignore"):
        grid, states, meta = dynamics._integrate(
            decay, 0.0, np.array([1.0]), 1.0, "rk45", None, 1e-9, 1e-9,
            np.inf, 1000)
    # the first try, h = 0.01, is rejected and the step shrinks fivefold
    assert meta["rejected"] >= 1 and grid[1] == pytest.approx(0.002)
    assert np.all(np.isfinite(states))
    assert states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-8)


def test_rejected_overflowing_stages_print_no_numpy_warning():
    # q0^200 overflows in the stages of the steps that overshoot, where W
    # is inf and kappa_1 is NaN; those steps are rejected, not warned of
    steep = om.derive(om.build_system({"name": "steep", "order": 1,
                                       "dofs": 1,
                                       "lagrangian": "1/2*q0^200*q1^2"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = om.integrate(steep, om.JetPoint(0.0, np.array([[30.0, 200.0]])),
                            1.0)
    assert traj.meta["rejected"] >= 1
    assert np.all(np.isfinite(traj.states))


def test_coupled_mass_straight_line_solve_matches_the_inversion(monkeypatch):
    # the demo's dense W goes through the adjugate; a run forced through
    # _regular_inverse gives the same trajectories to rounding
    path = Path(__file__).resolve().parent.parent / "demos" / "systems"
    doc = json.loads((path / "coupled_mass.json").read_text())
    init = om.JetPoint(0.0, [[0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    solved = []
    solve_top_jets = om.DerivedSystem._solve_top_jets

    def counting(self, w, reduced, time):
        solved.append(time)
        return solve_top_jets(self, w, reduced, time)

    monkeypatch.setattr(om.DerivedSystem, "_solve_top_jets", counting)

    # the step cap holds every step at 0.02, so both runs share one grid;
    # uncapped, the last-bit changes of the error estimate still shift the
    # grid by some 1e-10, and the states follow
    def runs():
        ds = om.derive(om.build_system(doc))
        start = om.UnifiedPoint(init, om.legendre_map(ds, init))
        return [om.integrate(ds, init, 2.0, max_step=0.02),
                om.integrate_unified(ds, start, 2.0, max_step=0.02)]

    fast = runs()
    assert solved == []
    monkeypatch.setattr(legendre, "_top_jet_solver", lambda n: None)
    forced = runs()
    assert len(solved) == sum(t.meta["rhs_calls"] for t in forced)
    for got, want in zip(fast, forced):
        assert got.grid.tobytes() == want.grid.tobytes()
        assert (np.max(np.abs(got.states - want.states))
                <= 1e-12 * np.max(np.abs(want.states)))


def test_rk45_grid_does_not_follow_the_last_bits(monkeypatch):
    # uncapped, the step controller reads the error estimate; taken as
    # |y5 - y4| it carried rounding noise of some 1e-7 relative, and the
    # two solves of W gave grids 4.1e-9 apart
    path = Path(__file__).resolve().parent.parent / "demos" / "systems"
    doc = json.loads((path / "coupled_mass.json").read_text())
    init = om.JetPoint(0.0, [[0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])

    def runs():
        ds = om.derive(om.build_system(doc))
        start = om.UnifiedPoint(init, om.legendre_map(ds, init))
        return [om.integrate(ds, init, 2.0),
                om.integrate_unified(ds, start, 2.0)]

    fast = runs()
    monkeypatch.setattr(legendre, "_top_jet_solver", lambda n: None)
    for got, want in zip(fast, runs()):
        assert got.grid.size == want.grid.size
        assert np.max(np.abs(got.grid - want.grid)) <= 1e-9


def test_rkf45_tableau_conditions():
    # in the stored layout: the rows of A sum to c, both weight vectors
    # meet the order conditions sum b c^(q-1) = 1/q of their order, and
    # the error weights b5 - b4 sum to zero
    a, c = dynamics._RKF_A, np.array(dynamics._RKF_C)
    b5, b4, e = dynamics._RKF_B5, dynamics._RKF_B4, dynamics._RKF_E
    assert a.shape == (6, 6) and not np.any(np.triu(a))
    np.testing.assert_allclose(a.sum(axis=1), c, rtol=0, atol=1e-15)
    for b, order in ((b4, 4), (b5, 5)):
        for q in range(1, order + 1):
            assert b @ c ** (q - 1) == pytest.approx(1.0 / q, rel=1e-14)
    assert abs(e.sum()) <= 1e-16


def test_driven_tracks_exact_solution(driven):
    init = om.JetPoint(0.0, np.array([[1.0, 0.0]]))
    traj = om.integrate(driven, init, 6.0)
    t = traj.grid
    exact = np.cos(t) + 2 / 3 * np.sin(t) - 1 / 3 * np.sin(2 * t)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-6


def test_integration_validation(harmonic):
    init = om.JetPoint(0.0, np.array([[1.0, 0.0]]))
    with pytest.raises(om.ValidationError):
        om.integrate(harmonic, init, 0.0)
    with pytest.raises(om.ValidationError):
        om.integrate(harmonic, init, 1.0, method="rk4")  # step missing
    with pytest.raises(om.ValidationError):
        om.integrate(harmonic, init, 1.0, method="euler")
    with pytest.raises(om.DimensionError):
        om.integrate(harmonic, om.JetPoint(0.0, np.array([[1.0]])), 1.0)
    with pytest.raises(om.ConvergenceError):
        om.integrate(harmonic, init, 10.0, max_steps=3)


@pytest.mark.parametrize("name, value", [
    ("atol", 0.0), ("atol", -1e-9), ("atol", math.nan), ("rtol", -1e-9),
    ("rtol", math.nan), ("max_step", 0.0), ("max_step", -0.1)])
def test_rk45_rejects_bad_tolerances_and_step_caps(harmonic, pu, name, value):
    init = om.JetPoint(0.0, np.array([[1.0, 0.0]]))
    with pytest.raises(om.ValidationError, match="rk45 integration needs"):
        om.integrate(harmonic, init, 1.0, **{name: value})
    with pytest.raises(om.ValidationError, match="rk45 integration needs"):
        om.integrate_unified(pu, pu_unified_init(pu), 1.0, **{name: value})


def test_rk45_accepts_zero_rtol_and_rk4_ignores_tolerances(harmonic):
    init = om.JetPoint(0.0, np.array([[1.0, 0.0]]))
    traj = om.integrate(harmonic, init, 1.0, rtol=0.0)
    assert abs(traj.states[-1, 0] - math.cos(1.0)) < 1e-8
    # valid tolerances and a cap below the step change nothing under rk4
    traj = om.integrate(harmonic, init, 1.0, method="rk4", step=0.1,
                        atol=1.0, rtol=1.0, max_step=1e-3)
    assert traj.meta["steps"] == 10


@pytest.mark.parametrize("name, value", [
    ("atol", 0.0), ("atol", -1e-9), ("atol", math.nan), ("rtol", -1e-9),
    ("rtol", math.nan), ("max_step", 0.0), ("max_step", -0.1)])
def test_rk4_rejects_the_tolerances_and_step_caps_rk45_rejects(
        harmonic, pu, name, value):
    # rk4 reads none of them, and accepted every one
    init = om.JetPoint(0.0, np.array([[1.0, 0.0]]))
    with pytest.raises(om.ValidationError, match="rk4 integration needs"):
        om.integrate(harmonic, init, 1.0, method="rk4", step=0.1,
                     **{name: value})
    with pytest.raises(om.ValidationError, match="rk4 integration needs"):
        om.integrate_unified(pu, pu_unified_init(pu), 1.0, method="rk4",
                             step=0.1, **{name: value})


def test_first_step_knob_is_gone(harmonic):
    init = om.JetPoint(0.0, np.array([[1.0, 0.0]]))
    with pytest.raises(TypeError):
        om.integrate(harmonic, init, 1.0, first_step=0.1)


def test_unified_integration(pu):
    traj = om.integrate_unified(pu, pu_unified_init(pu), 5.0)
    assert traj.layout == "unified"
    assert traj.states.shape[1] == 6
    assert traj.meta["max_constraint_residual"] < 1e-7
    assert traj.meta["constraint_drift_warning"] is False
    # the exact solution through the cosine jet stays cos t
    assert abs(traj.states[-1, 0] - np.cos(5.0)) < 1e-6
    up = traj.unified_point(0)
    np.testing.assert_allclose(up.momenta, [[0.0, -1.0]], atol=1e-14)


def test_unified_rejects_off_constraint(pu):
    bad = om.UnifiedPoint(cos_jet(), np.array([[0.5, -1.0]]))
    with pytest.raises(om.OffConstraintError):
        om.integrate_unified(pu, bad, 1.0)


def test_step_collapse_at_blow_up():
    # W = [[q0]] and the solution (1 - t)^(2/3) drives q0 to zero at t = 1,
    # where the acceleration -q1^2/(2 q0) diverges and the step underflows
    ds = om.derive(om.build_system({
        "name": "crossing", "order": 1, "dofs": 1,
        "lagrangian": "1/2*q0*q1^2"}))
    init = om.JetPoint(0.0, np.array([[1.0, -2.0 / 3.0]]))
    with pytest.raises(om.ConvergenceError) as info:
        om.integrate(ds, init, 2.0)
    assert "underflow" in str(info.value)


def test_stuck_step_underflows_at_a_few_ulps_of_the_span():
    # a field that rejects every step shrinks it below four ulps of the
    # span's larger end, which raises; before, a floor of 1e-14 near t = 0
    # also refused the steps of a span as short as 1e-13
    calls = []

    def stuck(t, y):
        calls.append(t)
        return np.array([np.nan])
    for t0, t_end in ((0.0, 1e-13), (1e6, 1e6 + 1.0)):
        calls.clear()
        with pytest.raises(om.ConvergenceError, match="underflow"):
            dynamics._run_rkf45(stuck, t0, [1.0], t_end, 1e-9, 1e-9, np.inf,
                                10**6)
        floor = 4.0 * math.ulp(t_end)
        # six stages per attempt, each step 0.2 of the last
        h = (t_end - t0) / 100.0
        attempts = 1
        while h * 0.2 >= floor:
            h *= 0.2
            attempts += 1
        assert len(calls) == 6 * attempts
    ok = dynamics._run_rkf45(lambda t, y: -y, 0.0, [1.0], 1e-13, 1e-9, 1e-9,
                             np.inf, 10**6)
    assert ok[0][-1] == 1e-13


def test_singular_start_reports_last_good_time(degenerate):
    init = om.JetPoint(0.0, np.array([[1.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(om.SingularHessianError) as info:
        om.integrate(degenerate, init, 1.0)
    assert info.value.last_good_time == 0.0


def test_ostrogradsky_energy(pu, harmonic):
    assert om.ostrogradsky_energy(pu, cos_jet()) == pytest.approx(-1.5,
                                                                  abs=1e-14)
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = rng.uniform(-2, 2, size=(1, 2))
        e = om.ostrogradsky_energy(harmonic, om.JetPoint(0.0, q))
        assert e == pytest.approx(0.5 * (q[0, 0] ** 2 + q[0, 1] ** 2))


DEMO_SYSTEMS = Path(__file__).resolve().parent.parent / "demos" / "systems"

# momenta that read sin, exp and log
TRIG_DOC = {"name": "trig", "order": 2, "dofs": 2,
            "lagrangian": "1/2*(q2_1^2 + q2_2^2) + sin(q1_1)*q2_2*exp(q0_2/4)"
                          " - log(1 + q0_1^2)*q1_2^2 + q2_1*q1_2*q0_1"}


@pytest.mark.parametrize("doc", [
    *(json.loads(path.read_text())
      for path in sorted(DEMO_SYSTEMS.glob("*.json"))), TRIG_DOC],
    ids=lambda doc: doc["name"])
def test_ostrogradsky_energy_reads_the_legendre_map(doc):
    # the momenta come from the Legendre map's kernel, bit for bit the
    # tree walker's, and an order above 2k - 1 is not read
    ds = om.derive(om.build_system(doc))
    rng = np.random.default_rng(11)
    for orders in [2 * ds.k] * 100 + [2 * ds.k + 1] * 10:
        jp = om.JetPoint(float(rng.uniform(-2, 2)),
                         rng.uniform(-2, 2, (ds.n, orders)))
        env = om.jet_bindings(jp)
        want = dynamics._energy(ds, env, jp.q,
                                legendre._values(ds.momenta, env))
        assert om.ostrogradsky_energy(ds, jp).hex() == float(want).hex()


def test_ostrogradsky_energy_refuses_a_short_jet_point(pu):
    for q in (np.zeros((1, 3)), np.zeros((2, 4))):
        with pytest.raises(om.DimensionError) as info:
            om.ostrogradsky_energy(pu, om.JetPoint(0.0, q))
        assert str(info.value) == ("jet point must carry 1 dofs and orders "
                                   "up to 3")


def test_energy_series_matches_pointwise(pu):
    init = cos_jet()
    traj = om.integrate(pu, init, 3.0)
    series = om.energy_series(pu, traj)
    direct = [om.ostrogradsky_energy(pu, traj.jet_point(i))
              for i in range(traj.grid.size)]
    np.testing.assert_allclose(series, direct, atol=1e-13)
    # exact cosine data has energy -3/2 everywhere
    assert series[0] == pytest.approx(-1.5, abs=1e-12)


def test_fd_derivative_polynomial_exact():
    rng = np.random.default_rng(2)
    grid = np.sort(rng.uniform(0, 2, size=30))
    coeffs = rng.uniform(-1, 1, size=5)
    poly = np.polynomial.Polynomial(coeffs)
    for order in (1, 2, 3):
        want = poly.deriv(order)(grid)
        got = om.fd_derivative(grid, poly(grid), order=order)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_fd_derivative_fourth_order_convergence():
    errs = []
    for npts in (101, 201, 401):
        grid = np.linspace(0, 3, npts)
        err = om.fd_derivative(grid, np.sin(grid)) - np.cos(grid)
        errs.append(np.max(np.abs(err)))
    assert 10 < errs[0] / errs[1] < 30
    assert 10 < errs[1] / errs[2] < 30


def _scalar_fornberg_weights(z, x, m):
    """Fornberg's recurrence for one point, in the operation order of the
    vectorized routine."""
    c = np.zeros((len(x), m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, len(x)):
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for v in range(min(i, m), 0, -1):
                    c[i, v] = c1 * (v * c[i - 1, v - 1] - c5 * c[i - 1, v]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for v in range(min(i, m), 0, -1):
                c[j, v] = (c4 * c[j, v] - v * c[j, v - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def test_fornberg_weights_equal_scalar_recurrence():
    rng = np.random.default_rng(23)
    for m in (1, 2, 3):
        z = rng.uniform(-1, 1, size=50)
        x = np.sort(rng.uniform(-1, 1, size=(50, m + 4)), axis=1)
        got = dynamics._fornberg_weights(z, x, m)
        for p in range(z.size):
            assert np.array_equal(got[p], _scalar_fornberg_weights(z[p], x[p], m))


def _vandermonde_derivative(grid, values, order):
    """Stencil weights solved from the moment conditions at each point."""
    npts = grid.size
    width = min(order + 4, npts)
    out = np.empty(npts)
    for p in range(npts):
        start = min(max(p - width // 2, 0), npts - width)
        nodes = grid[start:start + width] - grid[p]
        scale = np.max(np.abs(nodes))
        powers = np.vander(nodes / scale, width, increasing=True).T
        rhs = np.zeros(width)
        rhs[order] = math.factorial(order)
        weights = np.linalg.solve(powers, rhs) / scale ** order
        out[p] = weights @ values[start:start + width]
    return out


def test_fd_derivative_matches_vandermonde_weights():
    rng = np.random.default_rng(17)
    for order in (1, 2, 3):
        # npts == width makes every row use the same one-sided stencil
        for npts in (order + 4, 7, 40, int(rng.integers(100, 501))):
            steps = rng.uniform(0.02, 0.08, size=npts - 1)
            grid = np.concatenate([[0.0], np.cumsum(steps)]) + rng.uniform(-1, 1)
            values = np.sin(1.3 * grid) + 0.2 * grid ** 2
            got = om.fd_derivative(grid, values, order=order)
            want = _vandermonde_derivative(grid, values, order)
            np.testing.assert_allclose(got, want, rtol=1e-8,
                                       atol=1e-8 * np.max(np.abs(want)))


def test_fd_derivative_short_grid():
    with pytest.raises(om.ValidationError):
        om.fd_derivative([0.0], [1.0], order=1)
    grid = np.linspace(0.0, 1.0, 10)
    for values in (np.zeros(9), np.zeros(20), np.zeros((10, 2)), 1.0):
        with pytest.raises(om.DimensionError):
            om.fd_derivative(grid, values)


def _nonuniform_grid(seed, npts):
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.02, 0.08, size=npts - 1)
    return np.concatenate([[0.0], np.cumsum(steps)]) + rng.uniform(-1, 1)


# fd_derivative at orders 1-4 on a 9-point non-uniform grid, one digest
# of the float.hex spellings per order, as one weight set per call gave them
_FD_PINS = {1: "d4d049dd63523b2d", 2: "ef759f5ed676faf9",
            3: "53ff2f535748cfa7", 4: "0d09157e49f0245d"}


def test_fd_derivative_values_pinned_bit_for_bit():
    grid = _nonuniform_grid(5, 9)
    values = np.sin(1.3 * grid) + 0.2 * grid ** 2
    assert {order: hex_digest(om.fd_derivative(grid, values, order=order))
            for order in _FD_PINS} == _FD_PINS


def _k3_jet_trajectory():
    """A seeded k = 3, n = 3 jet trajectory on a non-uniform grid of 40
    points: each dof a sine, with its exact derivatives."""
    rng = np.random.default_rng(31)
    grid = _nonuniform_grid(31, 40)
    amp, freq, phase = (rng.uniform(lo, hi, 3) for lo, hi in
                        ((0.2, 0.6), (0.5, 1.5), (0.0, 2.0 * np.pi)))
    columns = [amp[a] * freq[a] ** i
               * np.sin(freq[a] * grid + phase[a] + i * np.pi / 2)
               for a in range(3) for i in range(6)]
    return om.Trajectory(grid, np.column_stack(columns), "jet", 3, 3)


# the verify_trajectory reports, every float spelled by float.hex; the
# el_residual is dL/dq_0 - D p^0 with one first-order difference D
_VERIFY_PINS = {
    "k3_jet": {
        "el_residual": "0x1.18dee7ef80394p-1",
        "holonomy_defect": "0x1.1568e1a9c0000p-19",
        "holonomy_tolerance": None, "holonomy_ok": None,
        "energy_drift": "0x1.e2d4d4ed74928p-4", "momenta_residual": None,
        "hamilton_q_residual": None, "hamilton_p_residual": None,
        "layout": "jet", "n_points": 40},
    "k3_jet_tol": {
        "el_residual": "0x1.18dee7ef80394p-1",
        "holonomy_defect": "0x1.1568e1a9c0000p-19",
        "holonomy_tolerance": "0x1.be5095b5ca740p-22", "holonomy_ok": True,
        "energy_drift": "0x1.e2d4d4ed74928p-4", "momenta_residual": None,
        "hamilton_q_residual": None, "hamilton_p_residual": None,
        "layout": "jet", "n_points": 40},
    "pu_unified": {
        "el_residual": "0x1.5c37389400000p-18",
        "holonomy_defect": "0x1.5c37389400000p-20",
        "holonomy_tolerance": "0x1.205bab4020c4cp-14", "holonomy_ok": True,
        "energy_drift": "0x1.bf40aa0000000p-27",
        "momenta_residual": "0x1.5c37389400000p-18",
        "hamilton_q_residual": "0x1.5c37389400000p-20",
        "hamilton_p_residual": "0x1.5c37389400000p-18",
        "layout": "unified", "n_points": 41},
}


def _verify_case(case, pu):
    if case == "pu_unified":
        traj = om.integrate_unified(pu, pu_unified_init(pu), 2.0,
                                    method="rk4", step=0.05)
        return om.verify_trajectory(pu, traj)
    ds = om.derive(om.build_system(NL3_LIKE))
    return om.verify_trajectory(ds, _k3_jet_trajectory(),
                                tolerance=1e-9 if case.endswith("tol")
                                else None)


@pytest.mark.parametrize("case", sorted(_VERIFY_PINS))
def test_verify_reports_pinned_bit_for_bit(pu, case):
    report = _verify_case(case, pu).to_dict()
    assert {key: value.hex() if isinstance(value, float) else value
            for key, value in report.items()} == _VERIFY_PINS[case]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_fd_derivative_stack_rows_equal_single_calls(order):
    grid = _nonuniform_grid(7, 60)
    stack = np.random.default_rng(order).standard_normal((2, 3, grid.size))
    got = om.fd_derivative(grid, stack, order=order)
    assert got.shape == stack.shape
    for index in np.ndindex(stack.shape[:-1]):
        single = om.fd_derivative(grid, stack[index], order=order)
        assert got[index].tobytes() == single.tobytes()


def test_verify_computes_one_weight_set_per_order(tmp_path, capsys,
                                                  monkeypatch, pu):
    orders = []
    weights = dynamics._fornberg_weights

    def counted(z, x, m):
        orders.append(m)
        return weights(z, x, m)
    monkeypatch.setattr(dynamics, "_fornberg_weights", counted)
    spec, csv = tmp_path / "k3.json", tmp_path / "k3.csv"
    spec.write_text(json.dumps(NL3_LIKE))
    om.save_trajectory_csv(_k3_jet_trajectory(), csv)
    argv = ["verify", str(spec), "--traj", str(csv)]
    # k = 3: p^0 and every jet at order 1, and with --tol the floors of
    # q_2 .. q_4 at orders 2-4; no order grows with k
    for extra, want in (([], [1]), (["--tol", "1e-9"], [1, 2, 3, 4]),
                        (["--tol", "1e-9"], [1, 2, 3, 4])):
        orders.clear()
        cli.main(argv + extra)
        assert orders == want
    # k = 20, rk45 with its tolerance recorded: the same four orders
    spec20 = tmp_path / "k20.json"
    spec20.write_text(json.dumps({"name": "k20", "order": 20, "dofs": 1,
                                  "lagrangian": "1/2*q20^2 - 1/2*q0^2"}))
    orders.clear()
    cli.main(["simulate", str(spec20), "--init", ",".join(["0.1"] * 40),
              "--t-end", "1"])
    assert orders == [1, 2, 3, 4]
    capsys.readouterr()
    orders.clear()
    # a unified PU trajectory without a tolerance, as read from a CSV: p^0,
    # the jets and the momenta at order 1
    traj = om.integrate_unified(pu, pu_unified_init(pu), 1.0)
    om.verify_trajectory(pu, om.Trajectory(traj.grid, traj.states,
                                           "unified", 2, 1))
    assert orders == [1]


def test_verify_clean_trajectory(pu):
    traj = om.integrate(pu, cos_jet(), 10.0)
    report = om.verify_trajectory(pu, traj)
    assert report.el_residual < 1e-4
    assert report.holonomy_ok is True
    assert report.energy_drift < 1e-6
    assert report.momenta_residual is None
    assert report.hamilton_q_residual is None
    assert report.layout == "jet" and report.n_points == traj.grid.size


def test_verify_catches_corruption(pu):
    traj = om.integrate(pu, cos_jet(), 10.0)
    states = traj.states.copy()
    states[:, 1] *= 1.01  # systematically wrong velocity channel
    bad = om.Trajectory(traj.grid, states, "jet", 2, 1, dict(traj.meta))
    report = om.verify_trajectory(pu, bad)
    assert report.el_residual > 1e-3
    assert report.holonomy_ok is False


def test_verify_energy_none_for_driven(driven):
    init = om.JetPoint(0.0, np.array([[1.0, 0.0]]))
    report = om.verify_trajectory(driven, om.integrate(driven, init, 4.0))
    assert report.energy_drift is None
    assert report.el_residual < 1e-4


def test_verify_unified_hamilton_residuals(pu):
    traj = om.integrate_unified(pu, pu_unified_init(pu), 2.0, max_step=0.01)
    report = om.verify_trajectory(pu, traj)
    assert report.momenta_residual is not None
    assert report.momenta_residual < 1e-3
    assert report.hamilton_q_residual < 1e-3
    assert report.hamilton_p_residual < 1e-3
    d = report.to_dict()
    assert d["layout"] == "unified"


def test_holonomy_verdict_per_column():
    """Each column q_i is held to 10 tol plus its own truncation floor
    h^4 max|q_{i+5}|: a correct order-3 trajectory passes, though one
    floor from max|q| for all columns failed it, and an offset of 1e-3 in
    its q_1 column fails."""
    ds = om.derive(om.build_system({
        "name": "order3", "order": 3, "dofs": 1,
        "lagrangian": "1/2*(q3^2 - 14*q2^2 + 49*q1^2 - 36*q0^2)"}))
    init = om.JetPoint(0.0, np.array([[0.3, 0.0, 0.0, 0.0, 0.0, 0.0]]))
    traj = om.integrate(ds, init, 5.0)
    report = om.verify_trajectory(ds, traj)
    assert report.energy_drift < 1e-8
    assert report.holonomy_ok is True
    assert report.holonomy_defect <= report.holonomy_tolerance

    states = traj.states.copy()
    states[:, 1] += 1e-3
    bad = om.Trajectory(traj.grid, states, "jet", 3, 1, dict(traj.meta))
    report = om.verify_trajectory(ds, bad)
    assert report.holonomy_ok is False
    assert report.holonomy_defect > report.holonomy_tolerance


@pytest.mark.parametrize("key, init", [("harmonic", [[1.0, 0.0]]),
                                       ("pais_uhlenbeck",
                                        [[1.0, 0.0, -1.0, 0.0]])])
def test_holonomy_bound_has_a_rounding_floor(key, init):
    """Over a span of 1e-13, q_0 = 1 does not change in its last bit, yet
    its difference reads 16: the stencil weights are some 1e16 and do not
    sum to zero exactly.  Each column's bound is at least 4 ulp of its
    max|q_i| times the largest sum of |w| of a point's stencil, so the
    correct run passes, and a change of 1e-12 in one q_0 sample fails."""
    ds = derived(key)
    traj = om.integrate(ds, om.JetPoint(0.0, np.array(init)), 1e-13)
    assert np.all(traj.states[:, 0] == 1.0)
    report = om.verify_trajectory(ds, traj)
    assert report.holonomy_defect == pytest.approx(16.0)
    grid = traj.grid
    w = dynamics._fornberg_weights(grid, grid[np.arange(5)[None, :]
                                              .repeat(5, axis=0)], 1)
    floor = 4.0 * np.spacing(1.0) * np.max(np.abs(w[:, :, 1]).sum(axis=-1))
    assert report.holonomy_tolerance == floor
    assert report.holonomy_ok is True

    states = traj.states.copy()
    states[2, 0] += 1e-12
    bad = om.Trajectory(grid, states, "jet", ds.k, ds.n, dict(traj.meta))
    assert om.verify_trajectory(ds, bad).holonomy_ok is False


@pytest.mark.parametrize("order, power", [(1, 600), (2, 400), (4, 200)])
def test_differences_scale_with_the_grid_to_the_bit(order, power):
    """A grid times 2^-power has the weights times 2^(power order), and so
    the derivatives, bit for bit; the products of node differences in the
    recurrence underflowed there, and the weights came out inf or NaN.
    On a grid of normal steps the weights are the recurrence's own."""
    rng = np.random.default_rng(order)
    grid = np.cumsum(rng.uniform(0.05, 0.2, 12))
    values = np.stack([np.sin(grid), np.exp(-grid)])
    idx = np.clip(np.arange(12) - (order + 4) // 2, 0, 8 - order)[:, None] \
        + np.arange(order + 4)
    derivative, weights = dynamics._differences(grid, values, order)
    assert weights.tobytes() == dynamics._fornberg_weights(
        grid, grid[idx], order)[:, :, order].tobytes()
    short, short_weights = dynamics._differences(
        np.ldexp(grid, -power), values, order)
    assert short_weights.tobytes() == np.ldexp(weights,
                                               power * order).tobytes()
    assert short.tobytes() == np.ldexp(derivative, power * order).tobytes()


@pytest.mark.parametrize("span", [1e-80, 1e-300])
@pytest.mark.parametrize("key, init", [("harmonic", [[1.0, 0.0]]),
                                       ("pais_uhlenbeck",
                                        [[1.0, 0.0, -1.0, 0.0]])])
def test_very_short_spans_verify_without_warnings(key, init, span):
    """Steps of 1e-82 and below: the Euler-Lagrange defect was 1e-3 or
    NaN, and the holonomy defect 1e77 or NaN, since the stencil weights
    underflowed.  The truncation floor's higher differences still
    overflow there; a floor that is not finite bounds nothing, so the
    bound is the rounding floor."""
    ds = derived(key)
    traj = om.integrate(ds, om.JetPoint(0.0, np.array(init)), span)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = om.verify_trajectory(ds, traj)
    assert report.el_residual < 6e-14
    assert report.holonomy_ok is True
    # the rounding floor of the q_0 column, whose samples are all 1
    assert np.all(traj.states[:, 0] == 1.0)
    weights = dynamics._differences(traj.grid, traj.states[:, 0], 1)[1]
    assert report.holonomy_tolerance == 4.0 * np.spacing(1.0) * float(
        np.max(np.abs(weights).sum(axis=-1)))
    assert 0.0 < report.holonomy_defect < report.holonomy_tolerance < np.inf


@pytest.mark.parametrize("key", ["coupled_beam", "pais_uhlenbeck", "driven"])
def test_point_and_grid_values_agree_bit_for_bit(key):
    """The energy and the constraint residuals of a trajectory row are the
    same numbers whether evaluated at the point or over the grid, where
    the one constraint test takes the trajectory's stack and gives the
    drift integrate_unified records."""
    ds = derived(key)
    k, n = ds.k, ds.n
    jp = om.JetPoint(0.0, 0.3 + 0.1 * np.arange(2 * k * n).reshape(n, 2 * k))
    traj = om.integrate_unified(
        ds, om.UnifiedPoint(jp, om.legendre_map(ds, jp)), 1.0)
    energies = om.energy_series(ds, traj)
    _, own, env = dynamics._grid_bindings(traj)
    stack = unified._constraint_check(
        np.moveaxis(own, -1, 0),
        np.moveaxis(legendre._values(ds.momenta, env, traj.grid.shape),
                    -1, 0))[0]
    assert traj.meta["max_constraint_residual"] == np.max(np.abs(stack))
    for r in range(traj.grid.size):
        assert om.ostrogradsky_energy(ds, traj.jet_point(r)) == energies[r]
        levels = om.constraint_residuals(ds, traj.unified_point(r))
        for level, residuals in enumerate(levels):
            np.testing.assert_array_equal(residuals, stack[r, level])


@pytest.mark.parametrize("layout", ["jet", "unified"])
def test_verify_evaluates_the_momenta_once(pu, monkeypatch, layout):
    # p^0 of the Euler-Lagrange defect and the energy read one evaluation
    # of the closed-form momenta over the grid
    traj = (om.integrate(pu, cos_jet(), 2.0) if layout == "jet"
            else om.integrate_unified(pu, pu_unified_init(pu), 2.0))
    momenta = {id(p) for per_dof in pu.momenta for p in per_dof}
    reads = []
    values = dynamics._values

    def recording(family, env, shape=()):
        leaves, stack = [], [family]
        while stack:
            item = stack.pop()
            if isinstance(item, list):
                stack.extend(item)
            else:
                leaves.append(item)
        if momenta & set(map(id, leaves)):
            reads.append(family)
        return values(family, env, shape)
    monkeypatch.setattr(dynamics, "_values", recording)
    report = om.verify_trajectory(pu, traj)
    assert report.energy_drift < 1e-8
    assert len(reads) == 1 and reads[0] is pu.momenta


def test_verify_dimension_mismatch(pu, harmonic):
    traj = om.integrate(harmonic, om.JetPoint(0.0, np.array([[1.0, 0.0]])), 1.0)
    with pytest.raises(om.DimensionError):
        om.verify_trajectory(pu, traj)


@pytest.mark.parametrize("tolerance", [-1.0, -math.inf, math.nan])
def test_verify_rejects_a_negative_or_nan_tolerance(harmonic, tolerance):
    # the holonomy bound was built from 10 * tolerance and then floored:
    # 3.59e-14 for -1
    traj = om.integrate(harmonic, om.JetPoint(0.0, np.array([[1.0, 0.0]])), 1.0)
    with pytest.raises(om.ValidationError, match="non-negative"):
        om.verify_trajectory(harmonic, traj, tolerance=tolerance)
    report = om.verify_trajectory(harmonic, traj, tolerance=math.inf)
    assert report.holonomy_tolerance == math.inf and report.holonomy_ok


def test_csv_round_trip(tmp_path, pu):
    traj = om.integrate_unified(pu, pu_unified_init(pu), 1.0)
    path = tmp_path / "traj.csv"
    om.save_trajectory_csv(traj, path)
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    header = raw.split(b"\n", 1)[0].decode()
    assert header == "t,q_0_1,q_1_1,q_2_1,q_3_1,p_0_1,p_1_1"
    back = om.load_trajectory_csv(path, k=2, n=1)
    np.testing.assert_array_equal(back.grid, traj.grid)
    np.testing.assert_array_equal(back.states, traj.states)
    assert back.layout == "unified"


def test_csv_cells_are_17_digit_floats(tmp_path):
    grid = np.array([0.0, 0.25, 1.0])
    states = np.array([[-0.0, 1e-300], [np.nan, np.inf], [-np.inf, 1 / 3]])
    path = tmp_path / "cells.csv"
    om.save_trajectory_csv(om.Trajectory(grid, states, "jet", 1, 1), path)
    rows = np.column_stack([grid, states])
    assert path.read_bytes() == "".join(
        ["t,q_0_1,q_1_1\n"]
        + [",".join(f"{v:.17g}" for v in row) + "\n" for row in rows]
    ).encode()


def test_csv_jet_layout_header(tmp_path, harmonic):
    traj = om.integrate(harmonic, om.JetPoint(0.0, np.array([[1.0, 0.0]])), 1.0)
    path = tmp_path / "h.csv"
    om.save_trajectory_csv(traj, path)
    assert path.read_text().splitlines()[0] == "t,q_0_1,q_1_1"
    assert om.load_trajectory_csv(path).layout == "jet"


def test_csv_errors(tmp_path):
    def malformed(text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        return p

    with pytest.raises(om.TrajectoryFormatError):
        om.load_trajectory_csv(malformed(""))
    with pytest.raises(om.TrajectoryFormatError):
        om.load_trajectory_csv(malformed("t,q_0_1,q_1_1\n0,1\n1,1,0\n"))
    with pytest.raises(om.TrajectoryFormatError):
        om.load_trajectory_csv(malformed("t,q_0_1,q_1_1\n0,1,x\n1,1,0\n"))
    with pytest.raises(om.TrajectoryFormatError):
        om.load_trajectory_csv(malformed("t,q_0_1,q_1_1\n0,1,0\n"))  # one row
    with pytest.raises(om.TrajectoryFormatError):
        om.load_trajectory_csv(malformed("t,q_1_1,q_0_1\n0,1,0\n1,1,0\n"))
    with pytest.raises(om.TrajectoryFormatError):
        om.load_trajectory_csv(malformed("t,q_0_1\n0,1\n1,1\n"))  # odd orders
    good = malformed("t,q_0_1,q_1_1\n0,1,0\n1,1,0\n")
    with pytest.raises(om.TrajectoryFormatError):
        om.load_trajectory_csv(good, k=2, n=1)  # dimension mismatch


def test_csv_error_names_the_physical_line_after_a_blank_line(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("t,q_0_1,q_1_1\n0,1,0\n\n0.1,1,0\n0.2,1\n")
    with pytest.raises(om.TrajectoryFormatError) as err:
        om.load_trajectory_csv(path)
    assert str(err.value) == f"{path}:5: expected 3 columns, got 2"


_H = "t,q_0_1,q_1_1\n"

# each file's text and the rows it reads as, or the error text with {} for
# the path; every outcome but the last two is also that of a cell-by-cell
# float() parse, which reads 1_0 as 10 and \u0661 as 1
_PARSER_TABLE = [
    (_H + "0,nan,0\n1,1,0\n", [[0, math.nan, 0], [1, 1, 0]]),
    (_H + "0,inf,0\n1,1,0\n", [[0, math.inf, 0], [1, 1, 0]]),
    (_H + "0,-inf,0\n1,1,0\n", [[0, -math.inf, 0], [1, 1, 0]]),
    (_H + "0,1e400,0\n1,1,0\n", [[0, math.inf, 0], [1, 1, 0]]),
    (_H + "0, 2 ,0\n1,1,0\n", [[0, 2, 0], [1, 1, 0]]),
    (_H + "0,+1,0\n1,.5,0\n", [[0, 1, 0], [1, 0.5, 0]]),
    (_H + "0,,0\n1,1,0\n", "{}:2: non-numeric cell"),
    (_H + "0,1,0,\n1,1,0\n", "{}:2: expected 3 columns, got 4"),
    ("t,q_0_1,q_1_1\r\n0,1,0\r\n1,1,0\r\n", [[0, 1, 0], [1, 1, 0]]),
    (_H + "0,1,0\n# a comment\n1,1,0\n", "{}:3: expected 3 columns, got 1"),
    (_H + "0,1,0\n#,#,#\n1,1,0\n", "{}:3: non-numeric cell"),
    (_H + "", "{}: a trajectory needs at least two rows"),
    (_H + "0,1,0\n", "{}: a trajectory needs at least two rows"),
    (_H + "0,1,0\n1,1\n", "{}:3: expected 3 columns, got 2"),
    (_H + "0,1,0\n1,x,0\n", "{}:3: non-numeric cell"),
    (_H + "0,1_0,0\n1,1,0\n", "{}:2: non-numeric cell"),
    (_H + "0,1,0\n1,\u0661,0\n", "{}:3: non-numeric cell"),
]


@pytest.mark.parametrize("text, outcome", _PARSER_TABLE)
def test_csv_parser_equivalence_table(tmp_path, text, outcome):
    path = tmp_path / "cells.csv"
    path.write_bytes(text.encode())
    if isinstance(outcome, str):
        with pytest.raises(om.TrajectoryFormatError) as err:
            om.load_trajectory_csv(path)
        assert str(err.value) == outcome.format(path)
        return
    traj = om.load_trajectory_csv(path)
    rows = np.column_stack([traj.grid, traj.states])
    assert rows.tobytes() == np.array(outcome, dtype=float).tobytes()


def test_trajectory_validation():
    with pytest.raises(om.ValidationError):
        om.Trajectory([0.0, 0.0], np.zeros((2, 2)), "jet", 1, 1)
    with pytest.raises(om.DimensionError):
        om.Trajectory([0.0, 1.0], np.zeros((2, 3)), "jet", 1, 1)
    with pytest.raises(om.ValidationError):
        om.Trajectory([0.0, 1.0], np.zeros((2, 2)), "cartesian", 1, 1)
    traj = om.Trajectory([0.0, 1.0], np.zeros((2, 2)), "jet", 1, 1)
    with pytest.raises(om.ValidationError):
        traj.unified_point(0)
    with pytest.raises(ValueError):
        traj.states[0, 0] = 1.0  # read-only


def test_singular_hessian_error_contract(degenerate):
    # W = 0 everywhere, so the first right-hand side call fails
    init = om.JetPoint(0.25, np.array([[1.0, 0.5, -0.3, 0.2]]))
    up = om.UnifiedPoint(init, om.legendre_map(degenerate, init))
    runs = [(om.integrate, init), (om.integrate_unified, up)]
    for run, start in runs:
        for method, step in (("rk45", None), ("rk4", 0.1)):
            with pytest.raises(om.SingularHessianError) as info:
                run(degenerate, start, 1.0, method=method, step=step)
            err = info.value
            assert np.array_equal(err.state, start.to_state())
            assert err.time == 0.25
            assert err.last_good_time == 0.25
    state = init.to_state()
    with pytest.raises(om.SingularHessianError) as info:
        om.lagrangian_rhs(degenerate, 0.5, state)
    assert np.array_equal(info.value.state, state)
    assert info.value.time == 0.5
