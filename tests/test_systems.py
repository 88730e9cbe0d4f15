"""System models, jet points, unified points, polynomial jets."""

import numpy as np
import pytest

import ostromech as om
from ostromech import dynamics, variational
from ostromech import expressions as ex

from conftest import SYSTEM_DOCS


def test_build_system_basic():
    model = om.build_system(SYSTEM_DOCS["pais_uhlenbeck"])
    assert model.k == 2 and model.n == 1
    assert model.autonomous
    assert model.parameters == {"w1": 1.0, "w2": 2.0}
    # parameters are substituted into the stored expression
    assert not any(v.kind == "param" for v in model.lagrangian.free_vars())
    assert model.jet_count == 4 and model.momentum_count == 2


def test_build_system_validation():
    with pytest.raises(om.ValidationError):
        om.build_system({"name": "x", "order": 1, "dofs": 1})  # no lagrangian
    with pytest.raises(om.ValidationError):
        om.build_system({"name": "x", "order": 0, "dofs": 1,
                         "lagrangian": "q0"})
    with pytest.raises(om.ValidationError):
        om.build_system({"name": "x", "order": 1, "dofs": 0,
                         "lagrangian": "q0"})
    with pytest.raises(om.ExpressionError):
        om.build_system({"name": "x", "order": 1, "dofs": 1,
                         "lagrangian": "1/2*q2^2"})  # jet above order k
    # declared autonomous but depends on t
    with pytest.raises(om.ValidationError):
        om.build_system({"name": "x", "order": 1, "dofs": 1,
                         "lagrangian": "q0*t", "autonomous": True})


def test_autonomy_inferred():
    auto = om.build_system({"name": "a", "order": 1, "dofs": 1,
                            "lagrangian": "1/2*q1^2"})
    assert auto.autonomous
    driven = om.build_system(SYSTEM_DOCS["driven"])
    assert not driven.autonomous


def test_unknown_parameter_in_lagrangian():
    with pytest.raises(om.ExpressionError):
        om.build_system({"name": "x", "order": 1, "dofs": 1,
                         "lagrangian": "mass*q1^2"})
    model = om.build_system({"name": "x", "order": 1, "dofs": 1,
                             "lagrangian": "mass/2*q1^2",
                             "parameters": {"mass": 3.0}})
    assert model.lagrangian.evaluate({ex.jet(1, 1): 2.0}) == 6.0


def test_jet_point_round_trip():
    q = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    jp = om.JetPoint(0.5, q)
    assert jp.n == 2 and jp.orders == 4
    state = jp.to_state()
    np.testing.assert_array_equal(state, [1, 2, 3, 4, 5, 6, 7, 8])
    back = om.JetPoint.from_state(0.5, state, k=2, n=2)
    np.testing.assert_array_equal(back.q, q)
    with pytest.raises(ValueError):
        jp.q[0, 0] = 9.0  # read-only


def test_unified_point_round_trip():
    jp = om.JetPoint(0.0, np.array([[1.0, 2.0, 3.0, 4.0]]))
    up = om.UnifiedPoint(jp, np.array([[0.5, 0.25]]))
    state = up.to_state()
    np.testing.assert_array_equal(state, [1, 2, 3, 4, 0.5, 0.25])
    back = om.UnifiedPoint.from_state(0.0, state, k=2, n=1)
    np.testing.assert_array_equal(back.momenta, [[0.5, 0.25]])
    assert back.p_ext is None
    lifted = om.UnifiedPoint(jp, np.array([[0.5, 0.25]]), p_ext=2.0)
    assert lifted.p_ext == 2.0


def test_point_shape_errors():
    with pytest.raises(om.DimensionError):
        om.JetPoint.from_state(0.0, [1.0, 2.0, 3.0], k=2, n=1)
    with pytest.raises(om.DimensionError):
        om.UnifiedPoint.from_state(0.0, [1.0] * 5, k=2, n=1)
    jp = om.JetPoint(0.0, np.array([[1.0, 2.0]]))
    with pytest.raises(om.DimensionError):
        om.UnifiedPoint(jp, np.array([[1.0], [2.0]]))  # dof mismatch


def test_bindings():
    jp = om.JetPoint(0.25, np.array([[1.0, 2.0], [3.0, 4.0]]))
    env = om.jet_bindings(jp)
    assert env[ex.time_var()] == 0.25
    assert env[ex.jet(1, 0)] == 1.0
    assert env[ex.jet(2, 1)] == 4.0
    up = om.UnifiedPoint(jp, np.array([[5.0], [6.0]]), p_ext=7.0)
    uenv = om.unified_bindings(up)
    assert uenv[ex.momentum(2, 0)] == 6.0
    assert uenv[ex.ext_momentum()] == 7.0


def test_one_coordinate_layout():
    """Point, trajectory and path bindings all bind unified_coordinates()[j]
    to the value at layout position j (k = 2, n = 2)."""
    k, n = 2, 2
    coords = om.unified_coordinates(k, n)
    assert len(coords) == 1 + 3 * k * n and coords[8] == ex.jet(2, 3)

    state = np.arange(1.0, 1.0 + 3 * k * n)
    env = om.unified_bindings(om.UnifiedPoint.from_state(0.5, state, k, n))
    assert list(env) == coords and [env[c] for c in coords] == [0.5, *state]

    grid = np.linspace(0.0, 1.0, 6)
    states = 100.0 * np.arange(3 * k * n) + grid[:, None]
    traj = om.Trajectory(grid, states, "unified", k, n)
    jets, momenta, tenv = dynamics._grid_bindings(traj)
    assert list(tenv) == coords
    for column, ref in zip([grid, *states.T], coords):
        np.testing.assert_array_equal(tenv[ref], column)
    np.testing.assert_array_equal(tenv[ex.jet(2, 3)], states[:, 7])
    np.testing.assert_array_equal(jets[1, 3], states[:, 7])
    np.testing.assert_array_equal(momenta[1, 0], states[:, 10])
    jet_traj = om.Trajectory(grid, states[:, :2 * k * n], "jet", k, n)
    assert list(dynamics._grid_bindings(jet_traj)[2]) == coords[:1 + 2 * k * n]

    path = om.PathRepresentation(
        "monomial", [[1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0]],
        (0.0, 1.0))
    penv = variational._path_env(path, grid, 2 * k - 1)
    assert list(penv) == coords[:1 + 2 * k * n]
    np.testing.assert_array_equal(penv[ex.time_var()], grid)
    for ref in coords[1:1 + 2 * k * n]:
        np.testing.assert_array_equal(
            penv[ref], path.derivative_values(grid, ref.order)[ref.dof - 1])

    # the coordinates are cached; a caller's list is its own
    expected = list(coords)
    coords.append(ex.ext_momentum())
    coords[0] = ex.jet(9, 9)
    assert om.unified_coordinates(k, n) == expected


def test_jet_of_polynomial_oracles():
    # t^2 at t=1: value 1, slope 2, curvature 2, third derivative 0
    jp = om.jet_of_polynomial([0.0, 0.0, 1.0], 1.0, 3)
    np.testing.assert_allclose(jp.q, [[1.0, 2.0, 2.0, 0.0]], atol=1e-14)
    # t^3 at t=2: (8, 12, 12, 6)
    jp = om.jet_of_polynomial([0.0, 0.0, 0.0, 1.0], 2.0, 3)
    np.testing.assert_allclose(jp.q, [[8.0, 12.0, 12.0, 6.0]], atol=1e-14)


def test_jet_of_polynomial_matches_numeric_derivatives():
    rng = np.random.default_rng(21)
    coeffs = rng.uniform(-1, 1, size=5)
    eps = 1e-5
    for t in (-0.5, 0.0, 1.2):
        jp = om.jet_of_polynomial(coeffs, t, 3)
        up = om.jet_of_polynomial(coeffs, t + eps, 2)
        dn = om.jet_of_polynomial(coeffs, t - eps, 2)
        fd = (up.q[0] - dn.q[0]) / (2 * eps)
        np.testing.assert_allclose(jp.q[0, 1:], fd, rtol=0, atol=1e-8)


def test_jet_of_polynomial_multi_dof():
    jp = om.jet_of_polynomial([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]], 2.0, 2)
    np.testing.assert_allclose(jp.q, [[2.0, 1.0, 0.0], [5.0, 4.0, 2.0]],
                               atol=1e-14)
