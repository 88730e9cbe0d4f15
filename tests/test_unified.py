"""Unified phase space: coupling, two-form, constraints, vector field."""

import logging

import numpy as np
import pytest

import ostromech as om
from ostromech import expressions as ex
from ostromech import cli, unified

from conftest import SYSTEM_DOCS, cos_jet, on_constraint_points, write_spec


def pu_point(t=0.0):
    return om.UnifiedPoint(cos_jet(t), np.array([[0.0, -1.0]]))


def test_coordinate_ordering():
    coords = om.unified_coordinates(2, 2)
    assert len(coords) == 13
    assert coords[0] == ex.time_var()
    assert coords[1:5] == [ex.jet(1, i) for i in range(4)]
    assert coords[5:9] == [ex.jet(2, i) for i in range(4)]
    assert coords[9:11] == [ex.momentum(1, 0), ex.momentum(1, 1)]
    assert coords[11:] == [ex.momentum(2, 0), ex.momentum(2, 1)]
    names = [c.display(n_dofs=2) for c in coords]
    assert names[0] == "t" and names[1] == "q0_1" and names[9] == "p0_1"


def test_coupling_oracle():
    jp = om.JetPoint(0.0, np.array([[0.0, 3.0, 4.0, 0.0]]))
    up = om.UnifiedPoint(jp, np.array([[1.0, 2.0]]), p_ext=1.0)
    assert om.coupling(up) == 12.0
    with pytest.raises(om.ValidationError):
        om.coupling(om.UnifiedPoint(jp, np.array([[1.0, 2.0]])))


def test_section_momentum_makes_coupling_the_lagrangian(pu):
    up = pu_point()
    p = om.hamiltonian_section_p(pu, up)
    assert p == pytest.approx(1.5, abs=1e-14)
    lifted = om.UnifiedPoint(up.jet, up.momenta, p_ext=p)
    lag = pu.lagrangian_value(om.jet_bindings(up.jet))
    assert om.coupling(lifted) == pytest.approx(lag, abs=1e-14)
    assert lag == pytest.approx(2.5, abs=1e-14)


def test_two_form_entries_harmonic(harmonic):
    t, q0, q1 = ex.time_var(), ex.jet(1, 0), ex.jet(1, 1)
    p0 = ex.momentum(1, 0)

    up = om.UnifiedPoint(om.JetPoint(0.0, np.array([[1.0, 0.0]])),
                         np.array([[0.0]]))
    m = om.omega_r_matrix(harmonic, up)
    assert m.dim == 4
    assert m.entry(q0, p0) == 1.0 and m.entry(p0, q0) == -1.0
    # dH/dq0 = q0 = 1 couples q0 to the time direction
    assert m.entry(q0, t) == 1.0 and m.entry(t, q0) == -1.0
    assert m.entry(q1, t) == 0.0 and m.entry(p0, t) == 0.0

    up = om.UnifiedPoint(om.JetPoint(0.0, np.array([[0.0, 0.0]])),
                         np.array([[1.0]]))
    m = om.omega_r_matrix(harmonic, up)
    # dH/dq1 = p0 - q1 = 1 now
    assert m.entry(q1, t) == 1.0
    assert m.entry(q0, t) == 0.0


def test_two_form_antisymmetric(all_systems):
    for name in ("pais_uhlenbeck", "coupled_beam", "driven"):
        ds = all_systems[name]
        for up in on_constraint_points(ds, 3, seed=7):
            m = om.omega_r_matrix(ds, up).entries
            np.testing.assert_array_equal(m, -m.T)


def test_constraint_residual_levels(pu):
    clean = om.constraint_residuals(pu, pu_point())
    assert all(np.max(np.abs(r)) < 1e-14 for r in clean)

    # corrupt p0 only: level 1 (p1 = dL/dq2) stays clean, level 2 fires
    bad = om.UnifiedPoint(cos_jet(), np.array([[0.3, -1.0]]))
    levels = om.constraint_residuals(pu, bad)
    assert np.max(np.abs(levels[0])) < 1e-14
    assert levels[1][0] == pytest.approx(0.3)


def test_explicit_semispray_oracle(pu):
    field = om.explicit_semispray(pu, pu_point())
    np.testing.assert_allclose(
        field.components, [1.0, 0.0, -1.0, 0.0, 1.0, 4.0, 0.0], atol=1e-14)
    assert field.time_component == 1.0
    assert field.component(ex.jet(1, 3)) == pytest.approx(1.0)


def test_solver_matches_explicit_formulas(all_systems):
    for name in ("pais_uhlenbeck", "harmonic", "free_particle", "driven",
                 "coupled_beam"):
        ds = all_systems[name]
        for up in on_constraint_points(ds, 5, seed=13):
            solved = om.solve_unified_vf(ds, up)
            direct = om.explicit_semispray(ds, up)
            np.testing.assert_allclose(solved.components, direct.components,
                                       rtol=0, atol=1e-10)
            assert solved.time_component == 1.0
            assert solved.condition > 0.0


def test_kernel_check(pu):
    up = pu_point()
    field = om.solve_unified_vf(pu, up)
    report = om.kernel_check(pu, up, field)
    assert report.residual < 1e-10
    assert report.transversality == 1.0
    assert report.contraction.shape == (7,)

    # a vector that is not a solution contracts to something visible
    off = om.kernel_check(pu, up, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert off.residual > 1.0

    with pytest.raises(om.ValidationError):
        om.kernel_check(pu, up, [1.0, 2.0, 3.0])


def test_off_constraint_rejected(pu):
    bad = om.UnifiedPoint(cos_jet(), np.array([[2.0, -1.0]]))
    with pytest.raises(om.OffConstraintError) as info:
        om.solve_unified_vf(pu, bad)
    residuals = info.value.residuals
    assert residuals is not None
    assert max(np.max(np.abs(r)) for r in residuals) == pytest.approx(2.0)


def test_constraint_tolerance_scales():
    jp = om.JetPoint(0.0, np.zeros((1, 4)))
    small = om.UnifiedPoint(jp, np.zeros((1, 2)))
    large = om.UnifiedPoint(jp, np.array([[100.0, 0.0]]))
    assert unified.constraint_tolerance(small) == pytest.approx(1e-8)
    assert unified.constraint_tolerance(large) == pytest.approx(1.01e-6)


def test_degenerate_field_raises(degenerate):
    jet = om.JetPoint(0.0, np.array([[0.5, 0.7, 0.3, 0.1]]))
    up = om.UnifiedPoint(jet, np.array([[0.7, 0.0]]))  # on-constraint
    with pytest.raises(om.SingularHessianError):
        om.solve_unified_vf(degenerate, up)
    with pytest.raises(om.SingularHessianError):
        om.explicit_semispray(degenerate, up)


def test_point_shape_validation(pu):
    wrong = om.UnifiedPoint(om.JetPoint(0.0, np.zeros((1, 2))),
                            np.zeros((1, 1)))
    with pytest.raises(om.ValidationError):
        om.solve_unified_vf(pu, wrong)


def test_condition_warning_logged(pu, monkeypatch, caplog):
    monkeypatch.setattr(unified, "_CONDITION_WARN", 1e-16)
    with caplog.at_level(logging.WARNING, logger="ostromech.unified"):
        om.solve_unified_vf(pu, pu_point())
    assert any("ill-conditioned" in rec.message for rec in caplog.records)


def _one_dof(lagrangian):
    return om.derive(om.build_system(
        {"name": "probe", "order": 1, "dofs": 1, "lagrangian": lagrangian}))


def test_field_falls_back_to_tree_walker_errors():
    # log of a negative value, a zero denominator, a negative base to a
    # fractional power: the kernel raises a plain Python error, and the
    # field reports the tree walker's DomainEvalError
    coords = om.unified_coordinates(1, 1)
    for lagrangian, q0 in (("1/2*q1^2 - q0*log(q0)", -1.0),
                           ("1/2*q1^2 - 1/q0", 0.0),
                           ("1/2*q1^2 - q0^2.5", -1.0)):
        ds = _one_dof(lagrangian)
        state = np.array([q0, 0.5])
        env = dict(zip(coords, (0.0, *state)))
        with pytest.raises(om.DomainEvalError) as walked:
            ds.el_reduced[0].evaluate(env)
        with pytest.raises(om.DomainEvalError) as fielded:
            om.lagrangian_rhs(ds, 0.0, state)
        assert type(fielded.value) is type(walked.value)
        assert str(fielded.value) == str(walked.value)


def test_field_overflow_returns_tree_walker_value():
    # q0^3 overflows on Python floats (OverflowError) and gives inf on the
    # numpy scalars the tree walker binds
    ds = _one_dof("1/2*q1^2 - q0^4/4")
    state = np.array([1e200, 1.0])
    env = dict(zip(om.unified_coordinates(1, 1), (0.0, *state)))
    with np.errstate(all="ignore"):
        got = om.lagrangian_rhs(ds, 0.0, state)
        want = np.array([state[1], *ds.acceleration(env)])
    assert np.isinf(got[1])
    assert got.tobytes() == want.tobytes()


def test_field_falls_back_through_acceleration(monkeypatch):
    # the tree walker has one route to the top jets; the field takes it
    # once per call where the kernel fails and never where it does not
    calls = []
    acceleration = om.DerivedSystem.acceleration

    def counting(self, env):
        calls.append(env)
        return acceleration(self, env)

    monkeypatch.setattr(om.DerivedSystem, "acceleration", counting)
    ds = _one_dof("1/2*q1^2 - q0^4/4")
    field = unified._unified_field(ds)
    field(0.0, np.array([0.5, 1.0]))
    field(0.0, np.array([0.5, 1.0, 1.0]))
    assert calls == []
    with np.errstate(all="ignore"):
        field(0.0, np.array([1e200, 1.0]))
        assert len(calls) == 1
        # a unified state also tree-walks G^0 = dL/dq_0 = -q0^3
        ydot = field(0.0, np.array([1e200, 1.0, 1.0]))
    assert len(calls) == 2
    assert ydot[2] == -np.inf


# W = [[q0_1, q0_1 q0_2], [q0_1 q0_2, q0_2]], dense at q0 = (1 - d, 1),
# where kappa_1(W) = (2 - d)^2 / ((1 - d) d)
PINCHED = {"name": "pinched", "order": 1, "dofs": 2,
           "lagrangian": "1/2*q0_1*q1_1^2 + q0_1*q0_2*q1_1*q1_2"
                         " + 1/2*q0_2*q1_2^2"}


def _pinched_at(kappa):
    """q0_1 = 1 - d with kappa_1(W) = kappa, the small root of
    (kappa + 1) d^2 - (kappa + 4) d + 4 = 0."""
    b = kappa + 4.0
    return 1.0 - 8.0 / (b + np.sqrt(b * b - 16.0 * (kappa + 1.0)))


def test_pinched_hessian_has_the_asked_condition():
    for kappa in (1e9 * (1 - 1e-4), 1e9 * (1 + 1e-4)):
        x = _pinched_at(kappa)
        w = np.array([[x, x], [x, 1.0]])
        assert om.legendre._regular_inverse(w)[1] == pytest.approx(
            kappa, rel=1e-6)


def _field_outcome(ds, y):
    try:
        return unified._unified_field(ds)(0.0, np.array(y)).tobytes()
    except om.SingularHessianError as err:
        return "singular", err.state.tobytes()


@pytest.mark.parametrize("q0, verdict", [
    ((_pinched_at(1e9 * (1 - 1e-4)), 1.0), "regular"),
    ((_pinched_at(1e9 * (1 + 1e-4)), 1.0), "singular"),
    ((0.0, 0.0), "singular"),
    ((np.nan, 1.0), "nan"),
    ((np.inf, 1.0), "nan"),
])
def test_straight_line_solve_leaves_doubtful_w_to_the_one_test(
        monkeypatch, q0, verdict):
    # the adjugate declines W, and the field gives the outcome of the
    # inversion route: the same jets, or the same error and state
    (x, z), y = q0, [q0[0], 0.5, q0[1], -0.5]
    w = [x, x * z, x * z, z]
    assert om.legendre._top_jet_solver(2)([*w, 1.0, 1.0], 1.0) is None
    with np.errstate(all="ignore"):
        fast = _field_outcome(om.derive(om.build_system(PINCHED)), y)
        monkeypatch.setattr(unified, "_top_jet_solver", lambda n: None)
        forced = _field_outcome(om.derive(om.build_system(PINCHED)), y)
    assert fast == forced
    if verdict == "singular":
        assert fast == ("singular", np.array(y).tobytes())
    else:
        jets = np.frombuffer(fast)[1::2]
        assert np.all(np.isnan(jets) if verdict == "nan"
                      else np.isfinite(jets))


def test_field_compiles_once_per_system(tmp_path, capsys, monkeypatch):
    names = []
    compile_kernel = ex.compile_kernel

    def counting(exprs, coords, name="kernel"):
        names.append(name)
        return compile_kernel(exprs, coords, name)

    monkeypatch.setattr(ex, "compile_kernel", counting)
    ds = om.derive(om.build_system(SYSTEM_DOCS["pais_uhlenbeck"]))
    assert cli.main(["derive", write_spec(tmp_path, "pais_uhlenbeck")]) == 0
    capsys.readouterr()
    assert names == []  # deriving builds no kernel
    state = cos_jet().to_state()
    first = om.lagrangian_rhs(ds, 0.0, state)
    assert om.lagrangian_rhs(ds, 0.0, state).tobytes() == first.tobytes()
    om.explicit_semispray(ds, pu_point())
    om.explicit_semispray(ds, pu_point(0.5))
    assert names == ["pais-uhlenbeck"]
    assert unified._unified_field(ds) is unified._unified_field(ds)


@pytest.mark.parametrize("momentum", [np.nan, np.inf])
def test_non_finite_momentum_is_off_constraint(harmonic, momentum):
    # a NaN residual and an infinite tolerance used to pass a point
    bad = om.UnifiedPoint(om.JetPoint(0.0, [[1.0, 0.0]]), [[momentum]])
    with pytest.raises(om.OffConstraintError):
        om.solve_unified_vf(harmonic, bad)
    with pytest.raises(om.OffConstraintError):
        om.integrate_unified(harmonic, bad, 1.0, method="rk4", step=0.1)
    with np.errstate(invalid="ignore"):
        entry = cli._point_entry(harmonic, bad)
    assert entry["on_constraint"] is False and entry["solved_field"] is None
