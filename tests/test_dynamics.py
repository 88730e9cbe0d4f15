"""Integration, energy, finite differences, verification, trajectory files."""

import math

import numpy as np
import pytest

import ostromech as om
from ostromech import dynamics

from conftest import cos_jet, derived


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
    traj = om.integrate(harmonic, init, 1.0, method="rk4", step=0.1,
                        atol=0.0, max_step=0.0)
    assert traj.meta["steps"] == 10


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


def test_verify_dimension_mismatch(pu, harmonic):
    traj = om.integrate(harmonic, om.JetPoint(0.0, np.array([[1.0, 0.0]])), 1.0)
    with pytest.raises(om.DimensionError):
        om.verify_trajectory(pu, traj)


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
