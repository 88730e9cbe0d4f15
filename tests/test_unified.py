"""Unified phase space: coupling, two-form, constraints, vector field."""

import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

import ostromech as om
from ostromech import expressions as ex
from ostromech import cli, unified

from conftest import (
    NL3_LIKE, SYSTEM_DOCS, cos_jet, derived, hex_digest, on_constraint_points,
    write_spec)


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


def test_unified_check_raises_the_first_failing_points_error():
    # W = q0 - 1 is singular at q0 = 1, and log(q0) fails at q0 = -1
    ds = _one_dof("1/2*(q0 - 1)*q1^2 + log(q0)")

    def point(t, q0):
        jet = om.JetPoint(t, [[q0, 0.5]])
        return om.UnifiedPoint(jet, om.legendre_map(ds, jet))
    regular, singular, domain = point(0.0, 2.0), point(0.5, 1.0), point(
        1.0, -1.0)
    with pytest.raises(om.SingularHessianError, match="accelerations"):
        unified.check_points(ds, [regular, singular, domain])
    with pytest.raises(om.DomainEvalError):
        unified.check_points(ds, [domain, singular, regular])


def test_unified_check_warnings_keep_the_point_order(tmp_path, capsys,
                                                     monkeypatch, caplog):
    spec = tmp_path / "nl3.json"
    spec.write_text(json.dumps(NL3_LIKE))
    argv = ["unified-check", str(spec), "--random", "20", "--seed", "3"]
    assert cli.main(argv) == 0
    conditions = [point["condition"]
                  for point in json.loads(capsys.readouterr().out)["points"]]
    threshold = sorted(conditions)[10]
    monkeypatch.setattr(unified, "_CONDITION_WARN", threshold)
    with caplog.at_level(logging.WARNING, logger="ostromech.unified"):
        assert cli.main(argv) == 0
    assert [rec.getMessage() for rec in caplog.records] == [
        f"unified vector-field system is ill-conditioned (cond={c:.3e})"
        for c in conditions if c > threshold]
    # points whose values overflow: one warning line per point, in order
    code = cli.main(["unified-check", write_spec(tmp_path, "pais_uhlenbeck"),
                     "--random", "4", "--box=-1e170,1e170"])
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("warning")]
    assert code == 1 and len(lines) > 1 and lines == sorted(
        lines, key=lambda line: int(line.split()[2]))


def _one_dof(lagrangian):
    return om.derive(om.build_system(
        {"name": "probe", "order": 1, "dofs": 1, "lagrangian": lagrangian}))


def test_field_falls_back_to_tree_walker_errors():
    # log of a negative value, a zero denominator, a negative base to a
    # fractional power: the kernel's straight-line code fails, and the
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


def test_field_overflow_at_a_unified_state_gives_the_tree_walked_partials():
    # q0^3 overflows the field kernel's straight-line code on Python
    # floats; the top jet and G^0 = dL/dq_0 = -q0^3 are then the tree
    # walker's values on numpy scalars
    ds = _one_dof("1/2*q1^2 - q0^4/4")
    state = np.array([1e200, 1.0, 1.0])
    env = dict(zip(om.unified_coordinates(1, 1), np.array([0.0, *state])))
    with np.errstate(all="ignore"):
        got = ds._field(0.0, state)
        want = np.array([state[1], *ds.acceleration(env),
                         ds.lagrangian_partials[0][0].evaluate(env)])
    assert got.tobytes() == want.tobytes()
    assert got[2] == -np.inf


def test_jet_field_raises_where_a_first_partial_fails():
    # W = 1 and el_reduced = 0 everywhere, but dL/dq_0 = q1/q0, read by
    # the unified field only, is undefined at q0 = 0; L's derivative is
    # undefined there, so the jet field raises too
    ds = _one_dof("1/2*q1^2 + q1*log(q0)")
    assert om.to_text(ds.el_reduced[0]) == "0"
    for state in ([0.0, 0.5], [0.0, 0.5, 0.25]):
        with pytest.raises(om.DomainEvalError) as err:
            ds._field(0.0, np.array(state))
        assert str(err.value) == "division by zero"


def test_point_checks_raise_the_first_failing_expression_of_the_point():
    # H = q1*p0 - (q1^0.5 + 0.5*q1^2) is 0 at q1 = 0, where the momentum
    # q1 + 0.5*q1^-0.5, the first expression of the point, is undefined
    ds = _one_dof("1/2*q1^2 + q1^0.5")
    up = om.UnifiedPoint.from_state(0.0, [1.0, 0.0, 2.0], 1, 1)
    assert ds.hamiltonian.evaluate(om.unified_bindings(up)) == 0.0
    for check in (om.hamiltonian_section_p, om.omega_r_matrix,
                  om.solve_unified_vf, om.constraint_residuals,
                  lambda ds, up: om.kernel_check(ds, up, np.zeros(4))):
        with pytest.raises(om.DomainEvalError) as err:
            check(ds, up)
        assert str(err.value) == "zero raised to a negative power"
    # the constraint residuals read only the momenta, here p = q1, and
    # not H = q1*p0 - (0.5*q1^2 + log(q0))
    ds = _one_dof("1/2*q1^2 + log(q0)")
    up = om.UnifiedPoint.from_state(0.0, [-1.0, 0.5, 0.5], 1, 1)
    assert [level.tolist() for level in om.constraint_residuals(ds, up)] \
        == [[0.0]]
    with pytest.raises(om.DomainEvalError) as err:
        om.hamiltonian_section_p(ds, up)
    assert str(err.value) == "log of non-positive value -1.0"


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
        return ds._field(0.0, np.array(y)).tobytes()
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
    ds = om.derive(om.build_system(PINCHED))
    jet = om.JetPoint(0.0, np.reshape(y, (2, 2)))
    singular = om.legendre._regular_inverse(np.reshape(w, (2, 2)))[0] is None
    assert singular == (verdict == "singular")
    with np.errstate(all="ignore"):
        fast = _field_outcome(ds, y)
        # the solve judges its W by the one test; unified-check leaves W
        # to the explicit field, which raises first at the same points
        up = om.UnifiedPoint(jet, om.legendre_map(ds, jet))
        if singular:
            with pytest.raises(om.SingularHessianError, match="vector field"):
                om.solve_unified_vf(ds, up)
            with pytest.raises(om.SingularHessianError,
                               match="accelerations"):
                unified.check_points(ds, [up])
        else:
            entry, = unified.check_points(ds, [up])
            if verdict == "regular":
                solved = om.solve_unified_vf(ds, up).components
                assert entry["solved_field"] == solved.tolist()
            else:
                # NaN momenta are off the constraint manifold
                with pytest.raises(om.OffConstraintError):
                    om.solve_unified_vf(ds, up)
                assert entry["solved_field"] is None
        monkeypatch.setattr(om.legendre, "_top_jet_solver", lambda n: None)
        forced = _field_outcome(om.derive(om.build_system(PINCHED)), y)
    assert fast == forced
    if verdict == "singular":
        assert fast == ("singular", np.array(y).tobytes())
    else:
        jets = np.frombuffer(fast)[1::2]
        assert np.all(np.isnan(jets) if verdict == "nan"
                      else np.isfinite(jets))


def test_field_compiles_once_per_system(tmp_path, capsys, monkeypatch):
    # every kernel, the generated field among them, is built by one
    # generator; count its builds
    names = []
    generated = ex._generated

    def counting(exprs, coords, name, assemble, **extra):
        names.append(name)
        return generated(exprs, coords, name, assemble, **extra)

    monkeypatch.setattr(ex, "_generated", counting)

    def debug_run(argv):
        # stdout and the kernels named by the debug lines of one run
        monkeypatch.setenv("OSTRO_LOG", "debug")
        try:
            assert cli.main(argv) == 0
            out, err = capsys.readouterr()
        finally:
            monkeypatch.delenv("OSTRO_LOG")
            cli._configure_logging()
        logged = [re.fullmatch(r"DEBUG ostromech\.expressions: compiled "
                               r"kernel (.+): \d+ expressions, \d+ "
                               r"temporaries, \d+\.\d\d ms", line)
                  for line in err.splitlines() if "compiled kernel" in line]
        return out, [match[1] for match in logged]

    ds = om.derive(om.build_system(SYSTEM_DOCS["pais_uhlenbeck"]))
    spec = write_spec(tmp_path, "pais_uhlenbeck")
    monkeypatch.delenv("OSTRO_LOG", raising=False)
    # deriving builds one kernel, the Hessian's of the regularity sweep
    assert cli.main(["derive", spec]) == 0
    quiet = capsys.readouterr().out
    assert names == ["pais-uhlenbeck hessian"]
    assert debug_run(["derive", spec]) == (quiet, ["pais-uhlenbeck hessian"])
    names.clear()
    state = cos_jet().to_state()
    first = om.lagrangian_rhs(ds, 0.0, state)
    assert om.lagrangian_rhs(ds, 0.0, state).tobytes() == first.tobytes()
    om.explicit_semispray(ds, pu_point())
    om.explicit_semispray(ds, pu_point(0.5))
    assert names == ["pais-uhlenbeck"]
    assert ds._field is ds._field

    # the integrators run through the field kernel, and the constraint
    # check of a unified start through the momenta kernel
    names.clear()
    fresh = om.derive(om.build_system(SYSTEM_DOCS["pais_uhlenbeck"]))
    om.integrate(fresh, cos_jet(), 1.0)
    om.integrate_unified(fresh, pu_point(), 1.0)
    assert names == ["pais-uhlenbeck", "pais-uhlenbeck momenta"]

    # unified-check compiles each kernel it uses once, for all its points,
    # and logs one debug line for each without changing stdout
    names.clear()
    argv = ["unified-check", spec, "--random", "20"]
    assert cli.main(argv) == 0
    quiet = capsys.readouterr().out
    kernels = ["pais-uhlenbeck momenta", "pais-uhlenbeck point",
               "pais-uhlenbeck"]
    assert names == kernels
    assert debug_run(argv) == (quiet, kernels)


@pytest.mark.parametrize("name", [*SYSTEM_DOCS, "nl3_like"])
def test_point_family_holds_no_momenta(name):
    # H, its 3kn + 1 partials, W and el_reduced: the momenta of a point
    # come from the Legendre map's kernel alone
    ds = om.derive(om.build_system(NL3_LIKE if name == "nl3_like"
                                   else SYSTEM_DOCS[name]))
    k, n = ds.k, ds.n
    assert len(unified._point_family(ds)) == 1 + (3 * k * n + 1) + n * n + n


@pytest.mark.parametrize("run", ["point", "random", "library"])
def test_unified_checks_build_each_kernel_once(tmp_path, capsys, monkeypatch,
                                               run):
    # the Legendre map's momenta kernel, the point kernel and the field,
    # each built once per system however many points are checked
    names = []
    generated = ex._generated

    def counting(exprs, coords, name, assemble, **extra):
        names.append(name)
        return generated(exprs, coords, name, assemble, **extra)

    points = on_constraint_points(derived("coupled_beam"), 3, seed=4)
    monkeypatch.setattr(ex, "_generated", counting)
    kernels = ["coupled-beam momenta", "coupled-beam point", "coupled-beam"]
    if run == "library":
        ds = derived("coupled_beam")
        for up in points:
            om.solve_unified_vf(ds, up)
            om.constraint_residuals(ds, up)
            om.omega_r_matrix(ds, up)
        assert names == kernels[:2]
        for up in points:
            om.explicit_semispray(ds, up)
        assert names == kernels
        return
    spec = write_spec(tmp_path, "coupled_beam")
    options = (["--random", "20"] if run == "random" else
               ["--point", ",".join(map(repr, [
                   points[0].t, *points[0].to_state().tolist()]))])
    assert cli.main(["unified-check", spec, *options]) == 0
    assert json.loads(capsys.readouterr().out)["points"][0]["on_constraint"]
    assert names == kernels


@pytest.mark.parametrize("momentum", [np.nan, np.inf])
def test_non_finite_momentum_is_off_constraint(harmonic, momentum):
    # a NaN residual and an infinite tolerance used to pass a point
    bad = om.UnifiedPoint(om.JetPoint(0.0, [[1.0, 0.0]]), [[momentum]])
    with pytest.raises(om.OffConstraintError):
        om.solve_unified_vf(harmonic, bad)
    with pytest.raises(om.OffConstraintError):
        om.integrate_unified(harmonic, bad, 1.0, method="rk4", step=0.1)
    with np.errstate(invalid="ignore"):
        entry, = unified.check_points(harmonic, [bad])
    assert entry["on_constraint"] is False and entry["solved_field"] is None


# -- one evaluation per unified-check point ---------------------------------
#
# The references below evaluate every family by the tree walker under the
# point's bindings and assemble the matrices entry by entry, with one
# coordinate lookup each; the point kernel, the library functions and the
# precomputed positions must reproduce them bit for bit.

DEMO_SYSTEMS = Path(__file__).resolve().parent.parent / "demos" / "systems"


def _point_systems():
    docs = {path.stem: json.loads(path.read_text())
            for path in sorted(DEMO_SYSTEMS.glob("*.json"))}
    return {**docs, "nl3_like": NL3_LIKE}


def _reference_omega(ds, up):
    k, n = ds.k, ds.n
    index = {ref: i for i, ref in enumerate(om.unified_coordinates(k, n))}
    env = om.unified_bindings(up)
    m = np.zeros((3 * k * n + 1,) * 2)
    for a in range(1, n + 1):
        for i in range(k):
            r, c = index[ex.jet(a, i)], index[ex.momentum(a, i)]
            m[r, c] += 1.0
            m[c, r] -= 1.0
    rows = [index[ref] for ref in ds.hamiltonian_partials]
    values = np.array([e.evaluate(env)
                       for e in ds.hamiltonian_partials.values()])
    m[rows, 0] += values
    m[0, rows] -= values
    return m


def _reference_residuals(ds, up):
    env = om.unified_bindings(up)
    momenta = np.array([[p.evaluate(env) for p in per_dof]
                        for per_dof in ds.momenta])
    residuals = up.momenta - momenta
    return [residuals[:, i] for i in range(ds.k - 1, -1, -1)]


def _reference_solve(ds, up):
    """(components, condition) of the solved field, or the error raised."""
    k, n = ds.k, ds.n
    index = {ref: i for i, ref in enumerate(om.unified_coordinates(k, n))}
    env = om.unified_bindings(up)
    w = np.array([[e.evaluate(env) for e in row] for row in ds.hessian])
    if om.legendre._regular_inverse(w)[0] is None:
        return om.SingularHessianError
    omega = _reference_omega(ds, up)
    size = 3 * k * n
    a, b, row = np.zeros((size, size)), np.zeros(size), 0
    for dof in range(1, n + 1):
        for i in range(2 * k - 1):
            a[row, index[ex.jet(dof, i)] - 1] = 1.0
            b[row] = up.jet.q[dof - 1, i + 1]
            row += 1
    sign = -1.0 if k % 2 else 1.0
    reduced = [e.evaluate(env) for e in ds.el_reduced]
    for dof in range(n):
        for other in range(n):
            a[row, index[ex.jet(other + 1, 2 * k - 1)] - 1] = \
                sign * w[dof, other]
        b[row] = -reduced[dof]
        row += 1
    for dof in range(1, n + 1):
        for i in range(k):
            r = index[ex.jet(dof, i)]
            a[row, :] = omega[r, 1:]
            b[row] = -omega[r, 0]
            row += 1
    return (np.concatenate([[1.0], np.linalg.solve(a, b)]),
            float(np.linalg.cond(a)))


def _public_entry(ds, up):
    """The unified-check entry composed of the public functions."""
    residuals = om.constraint_residuals(ds, up)
    worst = float(np.max(np.abs(residuals)))
    tolerance = om.constraint_tolerance(up)
    on_constraint = bool(np.isfinite(tolerance) and worst <= tolerance)
    section_p = float(om.hamiltonian_section_p(ds, up))
    entry = {
        "t": up.t,
        "on_constraint": on_constraint,
        "constraint_residuals": [list(level) for level in residuals],
        "constraint_tolerance": tolerance,
        "hamiltonian": -section_p,
        "section_p": section_p,
        "coupling": om.coupling(
            om.UnifiedPoint(up.jet, up.momenta, p_ext=section_p)),
    }
    explicit = om.explicit_semispray(ds, up)
    entry["explicit_field"] = list(explicit.components)
    entry["solved_field"] = None
    field = explicit
    if on_constraint:
        field = om.solve_unified_vf(ds, up)
        entry["solved_field"] = list(field.components)
        entry["max_field_difference"] = float(
            np.max(np.abs(field.components - explicit.components)))
    kernel = om.kernel_check(ds, up, field)
    entry["kernel_residual"] = kernel.residual
    entry["transversality"] = kernel.transversality
    if on_constraint:
        entry["condition"] = field.condition
    return entry


def _cli_entry(ds, up):
    """The unified-check entry of one point."""
    return unified.check_points(ds, [up])[0]


def _bits(value):
    """A value with every float spelled by float.hex, so == is bit equality
    (every NaN compares equal)."""
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.shape, value.tobytes()]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def _outcome(fn, *args):
    try:
        return "ok", _bits(fn(*args))
    except om.OstromechError as err:
        return type(err).__name__, str(err)


def _check_points(ds, seed):
    on = on_constraint_points(ds, 20, seed=seed)
    up = on[0]
    return on + [om.UnifiedPoint(up.jet, up.momenta + 0.5)]


@pytest.mark.parametrize("name", sorted(_point_systems()))
def test_one_evaluation_gives_the_tree_walked_answer(name):
    ds = om.derive(om.build_system(_point_systems()[name]))
    points = _check_points(ds, seed=sum(map(ord, name)))
    if name == "harmonic":
        # the point kernel's straight-line code overflows on Python floats
        points.append(om.UnifiedPoint.from_state(0.0, [1e200, 0.0, 0.0], 1, 1))
    singular = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for up in points:
            entry = _outcome(_cli_entry, ds, up)
            assert entry == _outcome(_public_entry, ds, up)
            singular += entry[0] == "SingularHessianError"
            assert _bits(om.constraint_residuals(ds, up)) == _bits(
                _reference_residuals(ds, up))
            omega = om.omega_r_matrix(ds, up).entries
            assert _bits(omega) == _bits(_reference_omega(ds, up))
            x = np.arange(omega.shape[0], dtype=float) - 1.5
            report = om.kernel_check(ds, up, x)
            assert _bits(report.contraction) == _bits(omega @ x)
            assert report.transversality == -1.5
            if up is points[20]:
                # the moved momenta leave the manifold, so nothing is solved
                assert entry[0] != "ok" or not entry[1]["on_constraint"]
                continue
            want = _reference_solve(ds, up)
            if want is om.SingularHessianError:
                with pytest.raises(om.SingularHessianError):
                    om.solve_unified_vf(ds, up)
                continue
            solved = om.solve_unified_vf(ds, up)
            assert _bits((solved.components, solved.condition)) == _bits(want)
    # the degenerate system has a singular W everywhere, every other one
    # only off the sampled box
    assert singular == (21 if name == "degenerate" else 0)
    if not singular:
        # the entries of all points at once, solved and contracted over
        # the stacked points, are those of the points one by one
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits(unified.check_points(ds, points)) == [
                _bits(_public_entry(ds, up)) for up in points]
    if name == "harmonic":
        # where the point kernel's straight-line code overflows, it
        # answers with the tree walker's values on numpy scalars
        up = points[-1]
        env = dict(zip(om.unified_coordinates(1, 1),
                       np.array([up.t, *up.to_state()])))
        with np.errstate(over="ignore", invalid="ignore"):
            got = ds._kernels["point"](up.t, *up.to_state().tolist())
            want = [e.evaluate(env) for e in unified._point_family(ds)]
        assert _bits(list(got)) == _bits(want)
        assert np.isinf(got).any()


# unified-check --random 4 at seed 5: per point the digest of the solved
# field's float.hex spellings, its condition and the kernel residual, as
# the point-by-point solve gave them
_ENTRY_PINS = {
    "coupled_beam": [
        ["8aad7261f80d05e2", "0x1.0000000000000p+0", "0x1.66a315681cb0cp-51"],
        ["8b2fb6b93d4dafdb", "0x1.0000000000000p+0", "0x1.424695dc71380p-56"],
        ["0bf97cd9434ea52a", "0x1.0000000000000p+0", "0x1.caab41f875840p-55"],
        ["48cd10b58095275a", "0x1.0000000000000p+0", "0x1.8bddb3d436f78p-52"]],
    "nl3_like": [
        ["a91ff4bc74d4b928", "0x1.bcb70c989f25ep+0", "0x1.0000000000000p-50"],
        ["8021ad648f36da99", "0x1.041b49f3be0b3p+0", "0x0.0p+0"],
        ["2d284e1ccc5fd628", "0x1.64da7cbbea593p+0", "0x0.0p+0"],
        ["160f6746dd98ad8d", "0x1.0d085d28bab1bp+0", "0x1.0000000000000p-52"]],
}


@pytest.mark.parametrize("name", sorted(_ENTRY_PINS))
def test_unified_check_entries_pinned_bit_for_bit(tmp_path, capsys, name):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(NL3_LIKE if name == "nl3_like"
                               else SYSTEM_DOCS[name]))
    argv = ["unified-check", str(spec), "--random", "4", "--seed", "5"]
    assert cli.main(argv) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert [[hex_digest(point["solved_field"]), point["condition"].hex(),
             point["kernel_residual"].hex()] for point in points] == \
        _ENTRY_PINS[name]


@pytest.mark.parametrize("name", ["harmonic", "pais_uhlenbeck",
                                  "coupled_beam"])
def test_check_points_in_blocks_equal_the_points_one_by_one(name):
    # 20 points span two blocks of 16; the second holds points on and off
    # the constraint manifold, one with the extended momentum and one
    # whose H overflows
    ds = om.derive(om.build_system(SYSTEM_DOCS[name]))
    points = on_constraint_points(ds, 17, seed=23)
    k, n = ds.k, ds.n
    for i in (2, 16):
        points[i] = om.UnifiedPoint(points[i].jet, points[i].momenta + 0.5)
    points.append(om.UnifiedPoint(points[4].jet, points[4].momenta, 0.25))
    points.append(om.UnifiedPoint.from_state(
        0.0, [1e200] * (2 * k * n) + [0.0] * (k * n), k, n))
    points.append(om.UnifiedPoint(points[7].jet, points[7].momenta))
    with np.errstate(over="ignore", invalid="ignore"):
        together = unified.check_points(ds, points)
        alone = [entry for up in points
                 for entry in unified.check_points(ds, [up])]
    assert json.dumps(together) == json.dumps(alone)
    assert [entry["on_constraint"] for entry in together].count(False) >= 2
    assert not np.isfinite(together[18]["hamiltonian"])
    assert together[17]["coupling"] != together[4]["coupling"]


@pytest.mark.parametrize("name", ["harmonic", "pais_uhlenbeck",
                                  "coupled_beam"])
def test_check_points_builds_no_point_objects(name, monkeypatch):
    # the check reads stacked arrays: only solve_unified_vf and
    # kernel_check wrap a field or a contraction in an object
    ds = om.derive(om.build_system(SYSTEM_DOCS[name]))
    points = _check_points(ds, seed=5)

    def refused(*args, **kwargs):
        raise AssertionError("a point object was built")
    monkeypatch.setattr(unified, "SemisprayVector", refused)
    monkeypatch.setattr(unified, "KernelReport", refused)
    entries = unified.check_points(ds, points)
    assert [entry["on_constraint"] for entry in entries] == [True] * 20 + [
        False]
    assert all(entry["kernel_residual"] < 1e-8 for entry in entries[:20])


def test_random_points_are_one_draw_of_the_scalar_and_array_stream(
        tmp_path, capsys, monkeypatch):
    # the points of unified-check --random, each once drawn as a scalar
    # time and an (n, 2k) array of jets, are the rows of one stack whose
    # momenta are those of the Legendre map
    ds = om.derive(om.build_system(SYSTEM_DOCS["coupled_beam"]))
    drawn = []
    check_states = unified.check_states

    def recording(ds, times, states, p_ext=None):
        drawn.append((times, states.copy(), p_ext))
        return check_states(ds, times, states, p_ext)
    monkeypatch.setattr(unified, "check_states", recording)
    jets = 2 * ds.k * ds.n
    for seed, box in ((0, None), (7, "-3,0.5")):
        drawn.clear()
        argv = ["unified-check", write_spec(tmp_path, "coupled_beam"),
                "--random", "5", "--seed", str(seed)]
        assert cli.main(argv + ([f"--box={box}"] if box else [])) == 0
        capsys.readouterr()
        (times, states, p_ext), = drawn
        assert p_ext is None and states.shape == (5, 3 * ds.k * ds.n)
        lo, hi = (-2.0, 2.0) if box is None else (-3.0, 0.5)
        rng = np.random.default_rng(seed)
        for t, state in zip(times, states):
            want_t = float(rng.uniform(lo, hi))
            want = rng.uniform(lo, hi, size=(ds.n, 2 * ds.k))
            assert t == want_t and state[:jets].tobytes() == want.tobytes()
            assert state[jets:].tobytes() == om.legendre_map(
                ds, om.JetPoint(t, want)).tobytes()
        assert len(times) == 5


@pytest.mark.parametrize("name", ["harmonic", "pais_uhlenbeck",
                                  "coupled_beam"])
def test_random_check_builds_no_point_objects(name, tmp_path, capsys,
                                              monkeypatch):
    # unified-check --random fills one stack of states from the draws and
    # checks it as one: no jet or unified point, no Legendre map call and
    # no per-point check
    argv = ["unified-check", write_spec(tmp_path, name), "--random", "20",
            "--seed", "3"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out

    def refused(*args, **kwargs):
        raise AssertionError("a point object was built")
    for owner, attr in ((om.JetPoint, "__post_init__"),
                        (om.UnifiedPoint, "__post_init__"),
                        (om.legendre, "legendre_map"),
                        (unified, "legendre_map"),
                        (unified, "_check_point")):
        monkeypatch.setattr(owner, attr, refused)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
