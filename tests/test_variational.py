"""Paths, variations, discrete actions, stationarity probes, fitting."""

import math

import numpy as np
import pytest

import ostromech as om
from ostromech import variational

from conftest import cos_jet, hex_digest


def test_monomial_derivatives_match_polynomial():
    rng = np.random.default_rng(4)
    coeffs = rng.uniform(-1, 1, size=5)
    path = om.PathRepresentation("monomial", coeffs, (0.0, 2.0))
    poly = np.polynomial.Polynomial(coeffs)
    ts = np.linspace(0.1, 1.9, 17)
    for order in range(4):
        np.testing.assert_allclose(path.derivative_values(ts, order)[0],
                                   poly.deriv(order)(ts) if order else poly(ts),
                                   atol=1e-12)


def test_fourier_derivatives():
    # frequencies m*pi/(b-a); on (0, 2) that is pi/2 and pi
    path = om.PathRepresentation("fourier", [0.5, 1.0, 0.0, 0.0, 2.0],
                                 (0.0, 2.0))
    ts = np.linspace(0.0, 2.0, 9)
    w1, w2 = np.pi / 2, np.pi
    value = 0.5 + np.cos(w1 * ts) + 2 * np.sin(w2 * ts)
    np.testing.assert_allclose(path.derivative_values(ts)[0], value,
                               atol=1e-12)
    d1 = -w1 * np.sin(w1 * ts) + 2 * w2 * np.cos(w2 * ts)
    np.testing.assert_allclose(path.derivative_values(ts, 1)[0], d1,
                               atol=1e-12)
    d2 = -w1 ** 2 * np.cos(w1 * ts) - 2 * w2 ** 2 * np.sin(w2 * ts)
    np.testing.assert_allclose(path.derivative_values(ts, 2)[0], d2,
                               atol=1e-11)


def test_path_validation():
    with pytest.raises(om.ValidationError):
        om.PathRepresentation("chebyshev", [1.0], (0.0, 1.0))
    with pytest.raises(om.ValidationError):
        om.PathRepresentation("monomial", [1.0], (1.0, 1.0))
    path = om.PathRepresentation("monomial", [1.0, 2.0], (0.0, 1.0))
    assert path.n == 1
    with pytest.raises(ValueError):
        path.coefficients[0, 0] = 5.0  # read-only


def test_variation_bump_shape():
    v = om.Variation(dof=1, center=0.5, half_width=0.2, exponent=3,
                     amplitude=2.0)
    assert v.support == (0.3, 0.7)
    assert v.derivative_values([0.5])[0] == pytest.approx(2.0)
    np.testing.assert_array_equal(v.derivative_values([0.1, 0.9]), [0.0, 0.0])
    # derivatives through exponent - 1 vanish at the support ends
    for order in range(3):
        np.testing.assert_allclose(v.derivative_values([0.3, 0.7], order),
                                   [0.0, 0.0], atol=1e-12)
        just_inside = v.derivative_values([0.3 + 1e-9, 0.7 - 1e-9], order)
        np.testing.assert_allclose(just_inside, [0.0, 0.0], atol=1e-4)


def test_variation_args():
    with pytest.raises(om.ValidationError):
        om.Variation(dof=0, center=0.5, half_width=0.1, exponent=2)
    with pytest.raises(om.ValidationError):
        om.Variation(dof=1, center=0.5, half_width=0.0, exponent=2)
    with pytest.raises(om.ValidationError):
        om.Variation(dof=1, center=0.5, half_width=0.1, exponent=0)
    # half_width^(2 exponent) underflows to 0, or overflows
    for half_width in (1e-100, 1e100):
        with pytest.raises(om.ValidationError, match="admits no bump"):
            om.Variation(dof=1, center=0.0, half_width=half_width,
                         exponent=4)


def test_discrete_action_oracles(free_particle):
    line = om.PathRepresentation("monomial", [0.0, 1.0], (0.0, 1.0))
    assert om.discrete_action(free_particle, line) == pytest.approx(
        0.5, abs=1e-14)
    # q = t^2 gives the quadratic integrand 2 t^2, which Simpson integrates
    # exactly: S = 2/3
    parabola = om.PathRepresentation("monomial", [0.0, 0.0, 1.0], (0.0, 1.0))
    assert om.discrete_action(free_particle, parabola) == pytest.approx(
        2.0 / 3.0, abs=1e-14)


def test_discrete_action_validation(free_particle):
    line = om.PathRepresentation("monomial", [0.0, 1.0], (0.0, 1.0))
    with pytest.raises(om.ValidationError):
        om.discrete_action(free_particle, line, integrand="hamiltonian")
    with pytest.raises(om.ValidationError):
        om.discrete_action(free_particle, line, quad_points=1)


def test_quadrature_fourth_order(free_particle):
    # q = t^3 makes the integrand 4.5 t^4; the Simpson error then shrinks
    # by exactly 16x per panel doubling
    cubic = om.PathRepresentation("monomial", [0.0, 0.0, 0.0, 1.0],
                                  (0.0, 1.0))
    errors = [abs(om.discrete_action(free_particle, cubic,
                                     quad_points=panels) - 0.9)
              for panels in (2, 4, 8)]
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(16.0, rel=0.05)


def test_cartan_action_equals_lagrangian_action(pu, coupled_beam):
    rng = np.random.default_rng(9)
    for ds in (pu, coupled_beam):
        coeffs = rng.uniform(-1, 1, size=(ds.n, 6))
        path = om.PathRepresentation("monomial", coeffs, (0.0, 1.5))
        s_l = om.discrete_action(ds, path, "lagrangian")
        s_c = om.discrete_action(ds, path, "cartan")
        assert abs(s_l - s_c) <= 1e-9 * (1.0 + abs(s_l))


def test_action_derivative_matches_first_variation(free_particle):
    # q = t^2 has el = -2 everywhere, so dS = -2 * integral of the bump:
    # the exponent-2 bump of half width 0.2 integrates to 32/150
    parabola = om.PathRepresentation("monomial", [0.0, 0.0, 1.0], (0.0, 1.0))
    v = om.Variation(dof=1, center=0.5, half_width=0.2, exponent=2)
    exact = -2.0 * (2 ** 5 * 0.2 * math.factorial(2) ** 2
                    / math.factorial(5))
    assert exact == pytest.approx(-32.0 / 75.0)
    fd = om.action_derivative(free_particle, parabola, v)
    analytic = om.first_variation(free_particle, parabola, v)
    assert fd == pytest.approx(exact, abs=1e-9)
    assert analytic == pytest.approx(exact, abs=1e-10)
    # the one-form route integrates the same values on the section
    cartan = om.action_derivative(free_particle, parabola, v,
                                  integrand="cartan")
    assert cartan == pytest.approx(exact, abs=1e-9)


# the PU path of the benchmark that is not a solution, and a coupled-beam
# case whose one-sided differences disagree, so that its derivative takes
# the Richardson branch (five actions, not three)
_PU_OFF = om.PathRepresentation("fourier", [[0, 1, 0, 0, 0, 0.1]],
                                (0.0, math.pi))
_PU_BUMP = om.Variation(dof=1, center=1.2, half_width=0.3, exponent=3)
_BEAM_PATH = om.PathRepresentation(
    "monomial", [[0.3, 0.2, -0.1, 0.05], [0.4, -0.2, 0.1, 0.3]], (0.0, 1.0))
_BEAM_BUMP = om.Variation(dof=2, center=0.6, half_width=0.15, exponent=3)


def test_action_values_pinned_bit_for_bit(pu, coupled_beam):
    # the quadrature's values; the derivatives difference the actions over
    # the bump's support alone, where the beam's differs from the sum over
    # the whole interval (0x1.bce5415605fffp-10) in rounding only
    for integrand in ("lagrangian", "cartan"):
        assert om.discrete_action(pu, _PU_OFF, integrand).hex() == \
            "0x1.41b2f769cf0dap-2"
        assert om.action_derivative(pu, _PU_OFF, _PU_BUMP,
                                    integrand=integrand).hex() == \
            "-0x1.e17cb27473e1fp-1"
        assert om.action_derivative(coupled_beam, _BEAM_PATH, _BEAM_BUMP,
                                    integrand=integrand).hex() == \
            "0x1.bce54199297ffp-10"
    assert om.first_variation(pu, _PU_OFF, _PU_BUMP).hex() == \
        "-0x1.e17cb275990aep-1"
    assert om.first_variation(coupled_beam, _BEAM_PATH, _BEAM_BUMP).hex() \
        == "0x1.bce55445aa553p-10"


# derivative values of orders 0 .. k + 1 of an exponent k + 1 bump (k = 2)
# and of orders 0 .. 4 of the two paths above, at times inside and
# outside the support, one digest of the float.hex spellings per order,
# as the numpy.polynomial bump and the per-order basis matrices gave them
_VARIATION_PINS = ["e1562cbb143dece0", "6230e572f8a0df15", "87420497a7ffe44b",
                   "6b5ddfbca28542d2"]
_PATH_PINS = {
    "fourier": ["d1884362c93b2efb", "9fecf81ec8ebd925", "88958f7078a2e4c8",
                "fa219f40bbd589ac", "dc7d1141a762bdbb"],
    "monomial": ["c9bd0b94bea6d1ec", "9cb8f594732f0611", "e810e941014ea8c0",
                 "741422a1b46be0ea", "0712ee934dd1bfb6"],
}


def test_variation_and_path_values_pinned_bit_for_bit():
    bump = om.Variation(dof=1, center=0.37, half_width=0.21, exponent=3,
                        amplitude=1.7)
    ts = [0.1, bump.support[0], 0.2, 0.37, 0.45, 0.579, bump.support[1], 0.9]
    assert [hex_digest(bump.derivative_values(ts, order))
            for order in range(4)] == _VARIATION_PINS
    ts = np.linspace(0.05, 0.95, 7)
    for path in (_PU_OFF, _BEAM_PATH):
        nodes = ts * path.interval[1]
        assert [hex_digest(path.derivative_values(nodes, order))
                for order in range(5)] == _PATH_PINS[path.basis]


@pytest.mark.parametrize("integrand", ["lagrangian", "cartan"])
@pytest.mark.parametrize("case, actions", [("pu", 3), ("beam", 5)])
def test_action_derivative_evaluates_each_jet_once(pu, coupled_beam,
                                                   monkeypatch, integrand,
                                                   case, actions):
    # the support alone: the path's jets of orders 0 .. top once on it, the
    # bump's once, and one sum per action, however many actions the
    # difference takes: 3 for a central difference, 5 when it is
    # Richardson-extrapolated
    ds, path, bump = ((pu, _PU_OFF, _PU_BUMP) if case == "pu"
                      else (coupled_beam, _BEAM_PATH, _BEAM_BUMP))
    top = ds.k if integrand == "lagrangian" else 2 * ds.k - 1
    counts = {}
    for cls in (om.PathRepresentation, om.Variation):
        method = cls.jets

        def counted(self, ts, max_order, method=method, name=cls.__name__):
            assert max_order == top
            counts[name] = counts.get(name, 0) + 1
            return method(self, ts, max_order)
        monkeypatch.setattr(cls, "jets", counted)
    simpson = om.variational._simpson

    def counted_simpson(*args):
        counts["_simpson"] = counts.get("_simpson", 0) + 1
        return simpson(*args)
    monkeypatch.setattr(om.variational, "_simpson", counted_simpson)
    om.action_derivative(ds, path, bump, integrand=integrand)
    assert counts == {"PathRepresentation": 1, "Variation": 1,
                      "_simpson": actions}


@pytest.mark.parametrize("integrand", ["lagrangian", "cartan"])
@pytest.mark.parametrize("case, calls", [("pu", 1), ("beam", 2)])
def test_action_derivative_calls_the_integrand_once_per_difference(
        pu, coupled_beam, monkeypatch, integrand, case, calls):
    # the actions of one difference are one stacked integrand call: the
    # three of the central difference, then the two of the Richardson
    # step; the Simpson weights are built once
    ds, path, bump = ((pu, _PU_OFF, _PU_BUMP) if case == "pu"
                      else (coupled_beam, _BEAM_PATH, _BEAM_BUMP))
    want = om.action_derivative(ds, path, bump, integrand=integrand)
    sizes = []
    name = "_" + integrand
    f = getattr(variational, name)

    def counted(ds, ts, jets):
        sizes.append(ts.size)
        return f(ds, ts, jets)
    monkeypatch.setattr(variational, name, counted)
    weights = variational._simpson_weights

    def counted_weights(size):
        sizes.append(("weights", size))
        return weights(size)
    monkeypatch.setattr(variational, "_simpson_weights", counted_weights)
    got = om.action_derivative(ds, path, bump, integrand=integrand)
    assert got.hex() == want.hex()
    nodes = 2 * 512 + 1
    assert sizes == [("weights", nodes), 3 * nodes, 2 * nodes][:1 + calls]


def _whole_interval_derivative(ds, path, variation, integrand):
    """The derivative with each action summed over the whole interval: the
    segment before the support, the support and the segment after it."""
    f, top = variational._integrand(ds, integrand)
    edges = [path.interval[0], *variation.support, path.interval[1]]
    segments = [variational._nodes(ends, 512)
                for ends in zip(edges[:-1], edges[1:])]
    jets = [path.jets(ts, top) for ts, _ in segments]
    bump = variation.jets(segments[1][0], top)

    def action(scale):
        varied = jets[1].copy()
        varied[variation.dof - 1] += scale * bump
        total = 0.0
        for (ts, h), values in zip(segments, (jets[0], varied, jets[2])):
            total += variational._simpson(f(ds, ts, values), h)
        return total

    eps = variational._EPSILON
    s_plus, s_minus, s_zero = action(eps), action(-eps), action(0.0)
    central = (s_plus - s_minus) / (2.0 * eps)
    d_plus, d_minus = (s_plus - s_zero) / eps, (s_zero - s_minus) / eps
    if abs(d_plus - d_minus) > 0.1 * max(abs(d_plus), abs(d_minus)):
        half = (action(0.5 * eps) - action(-0.5 * eps)) / eps
        return (4.0 * half - central) / 3.0
    return central


@pytest.mark.parametrize("integrand", ["lagrangian", "cartan"])
@pytest.mark.parametrize("case", ["pu", "beam"])
def test_support_derivative_matches_the_whole_interval(pu, coupled_beam,
                                                       integrand, case):
    # the PU case takes the central difference, the beam case Richardson's
    ds, path, bump = ((pu, _PU_OFF, _PU_BUMP) if case == "pu"
                      else (coupled_beam, _BEAM_PATH, _BEAM_BUMP))
    action = om.discrete_action(ds, path, integrand)
    got = om.action_derivative(ds, path, bump, integrand=integrand)
    want = _whole_interval_derivative(ds, path, bump, integrand)
    assert abs(got - want) <= 1e-9 * (1.0 + abs(action))
    # the bits the whole-interval sums gave before the re-pin above
    assert want.hex() == ("-0x1.e17cb27473e1fp-1" if case == "pu"
                          else "0x1.bce5415605fffp-10")


def test_action_derivative_validation(free_particle):
    line = om.PathRepresentation("monomial", [0.0, 1.0], (0.0, 1.0))
    outside = om.Variation(dof=1, center=0.9, half_width=0.2, exponent=2)
    with pytest.raises(om.ValidationError):
        om.action_derivative(free_particle, line, outside)
    wrong_dof = om.Variation(dof=2, center=0.5, half_width=0.1, exponent=2)
    with pytest.raises(om.ValidationError):
        om.action_derivative(free_particle, line, wrong_dof)


@pytest.mark.parametrize("quad_points", [1, 0])
def test_quadratures_reject_too_few_panels(free_particle, quad_points):
    line = om.PathRepresentation("monomial", [0.0, 1.0], (0.0, 1.0))
    v = om.Variation(dof=1, center=0.5, half_width=0.1, exponent=2)
    for quadrature in (
            lambda: om.discrete_action(free_particle, line,
                                       quad_points=quad_points),
            lambda: om.action_derivative(free_particle, line, v,
                                         quad_points=quad_points),
            lambda: om.first_variation(free_particle, line, v,
                                       quad_points=quad_points)):
        with pytest.raises(om.ValidationError, match="quad_points"):
            quadrature()


def test_stationarity_pass_on_solution(harmonic):
    # cos t solves the harmonic equation; on (0, pi) the first fourier
    # cosine mode is exactly that
    path = om.PathRepresentation("fourier", [0.0, 1.0, 0.0], (0.0, np.pi))
    report = om.stationarity_check(harmonic, path, n_variations=8, seed=2)
    assert report.stationary
    assert report.max_abs_derivative <= 1e-6 * (1.0 + abs(report.action))
    d = report.to_dict()
    assert d["n_variations"] == 8 and d["seed"] == 2


def test_stationarity_fail_off_solution(harmonic):
    # q = t leaves the residual el = -t, plainly visible to the probes
    path = om.PathRepresentation("monomial", [0.0, 1.0], (0.0, 1.0))
    report = om.stationarity_check(harmonic, path, n_variations=8, seed=2)
    assert not report.stationary
    assert report.max_abs_derivative > 1e-3


def test_stationarity_keeps_a_nan_derivative_after_the_first(harmonic,
                                                              monkeypatch):
    # a NaN derivative of the second variation is the maximum, so the
    # solution path is not judged stationary
    path = om.PathRepresentation("fourier", [0.0, 1.0, 0.0], (0.0, np.pi))
    derivative = variational.action_derivative
    calls = []

    def second_nan(*args, **kwargs):
        calls.append(None)
        return math.nan if len(calls) == 2 else derivative(*args, **kwargs)
    monkeypatch.setattr(variational, "action_derivative", second_nan)
    report = om.stationarity_check(harmonic, path, n_variations=8, seed=2)
    assert math.isnan(report.derivatives[1])
    assert math.isnan(report.max_abs_derivative)
    assert not report.stationary


def test_stationarity_seeding(harmonic):
    path = om.PathRepresentation("monomial", [0.0, 1.0], (0.0, 1.0))
    one = om.stationarity_check(harmonic, path, n_variations=6, seed=5)
    again = om.stationarity_check(harmonic, path, n_variations=6, seed=5)
    assert one.derivatives == again.derivatives
    other = om.stationarity_check(harmonic, path, n_variations=6, seed=6)
    assert [v.center for v in other.variations] != \
        [v.center for v in one.variations]


def test_stationarity_needs_variations(harmonic):
    path = om.PathRepresentation("monomial", [0.0, 1.0], (0.0, 1.0))
    with pytest.raises(om.ValidationError):
        om.stationarity_check(harmonic, path, n_variations=0)


def test_el_along_path(pu):
    # cos t solves the fourth-order equation; on (0, 2 pi) it is the
    # second fourier cosine mode
    path = om.PathRepresentation("fourier", [0.0, 0.0, 0.0, 1.0, 0.0],
                                 (0.0, 2.0 * np.pi))
    ts = np.linspace(0.5, 5.5, 11)
    np.testing.assert_allclose(om.el_along_path(pu, path, ts), 0.0,
                               atol=1e-11)

    # (1 + 0.05 t) cos t leaves exactly el = -0.3 sin t
    taylor = np.zeros(22)
    for j in range(0, 22, 2):
        taylor[j] = (-1.0) ** (j // 2) / math.factorial(j)
    pert = np.zeros(23)
    pert[:22] += taylor
    pert[1:] += 0.05 * taylor
    path = om.PathRepresentation("monomial", pert, (0.0, 1.0))
    ts = np.linspace(0.1, 0.9, 9)
    np.testing.assert_allclose(om.el_along_path(pu, path, ts)[0],
                               -0.3 * np.sin(ts), atol=1e-10)


def _polynomial_trajectory(k, n, grid, degree, seed=0):
    """A jet trajectory whose dof a is a polynomial of the given degree,
    and the coefficients of each dof."""
    coefficients = np.random.default_rng(seed).uniform(-1, 1, (n, degree + 1))
    states = np.stack([
        np.polynomial.polynomial.polyval(
            grid, np.polynomial.polynomial.polyder(c, i))
        for c in coefficients for i in range(2 * k)], axis=1)
    return om.Trajectory(grid, states, "jet", k, n), coefficients


@pytest.mark.parametrize("k, degree", [(1, 5), (2, 5), (3, 7)])
def test_hermite_path_reproduces_polynomials_of_its_degree(k, degree):
    # each interval's polynomial is the only one of its degree that takes
    # q_0 .. q_k at both ends, and at k = 1 the differenced q_2, exact on
    # a quartic q_1; so a polynomial path comes back with every derivative,
    # on an uneven grid
    grid = np.cumsum([0.0, 0.3, 0.05, 0.4, 0.2, 0.25]) - 0.5
    traj, coefficients = _polynomial_trajectory(k, 2, grid, degree)
    path = om.HermitePath(traj)
    assert (path.n, path.interval) == (2, (-0.5, 0.7))
    assert path.coefficients.shape == (degree + 1, 2, 5)
    ts = np.linspace(-0.5, 0.7, 61)
    jets = path.jets(ts, degree + 1)
    for a, c in enumerate(coefficients):
        for order in range(degree + 2):
            want = np.polynomial.polynomial.polyval(
                ts, np.polynomial.polynomial.polyder(c, order))
            # rounding grows as order! / h^order, h down to 0.05
            np.testing.assert_allclose(
                jets[a, order], want, rtol=0,
                atol=1e-12 * 20.0 ** order * math.factorial(order))


def test_hermite_path_takes_the_recorded_jets_at_the_nodes():
    # matching q_0 .. q_k only: q_{k+1} of a degree-9 polynomial is not
    # taken at the nodes, the lower jets are
    k, grid = 2, np.linspace(0.0, 1.0, 11)
    traj, _ = _polynomial_trajectory(k, 1, grid, 9, seed=1)
    jets = om.HermitePath(traj).jets(grid, 2 * k - 1)
    recorded = traj.states.T.reshape(1, 2 * k, -1)
    np.testing.assert_allclose(jets[:, :k + 1], recorded[:, :k + 1],
                               rtol=1e-12, atol=1e-11)
    assert np.max(np.abs(jets[:, k + 1] - recorded[:, k + 1])) > 1e-6


def test_hermite_path_of_a_non_finite_jet():
    # a NaN q_1 at node 3 enters the intervals 2 and 3 only
    traj, _ = _polynomial_trajectory(2, 1, np.linspace(0.0, 1.0, 6), 5)
    states = traj.states.copy()
    states[3, 1] = np.nan
    path = om.HermitePath(om.Trajectory(traj.grid, states, "jet", 2, 1))
    finite = np.isfinite(path.coefficients).all(axis=(0, 1))
    assert finite.tolist() == [True, True, False, False, True]
    jets = path.jets(np.array([0.1, 0.5, 0.9]), 1)
    assert np.isfinite(jets[:, :, [0, 2]]).all()
    assert np.isnan(jets[:, :, 1]).all()
