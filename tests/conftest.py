"""Shared example systems and helpers for the test suite."""

import hashlib
import json

import numpy as np
import pytest

import ostromech as om
from ostromech import legendre
from ostromech.systems import _coordinates

# the example corpus: small systems exercising every structural case
# (orders 1 and 2, one and two dofs, autonomy and driving, degeneracy)
SYSTEM_DOCS = {
    "pais_uhlenbeck": {
        "name": "pais-uhlenbeck",
        "order": 2,
        "dofs": 1,
        "lagrangian": "1/2*(q2^2 - (w1^2 + w2^2)*q1^2 + w1^2*w2^2*q0^2)",
        "parameters": {"w1": 1.0, "w2": 2.0},
        "autonomous": True,
    },
    "harmonic": {
        "name": "harmonic",
        "order": 1,
        "dofs": 1,
        "lagrangian": "1/2*(q1^2 - q0^2)",
        "autonomous": True,
    },
    "free_particle": {
        "name": "free-particle",
        "order": 1,
        "dofs": 1,
        "lagrangian": "1/2*q1^2",
        "autonomous": True,
    },
    "degenerate": {
        "name": "degenerate",
        "order": 2,
        "dofs": 1,
        "lagrangian": "1/2*q1^2",
        "autonomous": True,
    },
    "driven": {
        "name": "driven-oscillator",
        "order": 1,
        "dofs": 1,
        "lagrangian": "1/2*(q1^2 - q0^2) + q0*sin(2*t)",
        "autonomous": False,
    },
    "coupled_beam": {
        "name": "coupled-beam",
        "order": 2,
        "dofs": 2,
        "lagrangian": "1/2*(q2_1^2 + q2_2^2) - 1/2*(q0_1 - q0_2)^2",
        "autonomous": True,
    },
}

# k = 3, n = 3: sixth-order oscillators with weak couplings, among them a
# Hessian entry that depends on the state, a cube and two functions
NL3_LIKE = {
    "name": "nl3-like", "order": 3, "dofs": 3, "autonomous": True,
    "lagrangian": "1/2*(q3_1^2 - 3*q2_1^2 + 2*q1_1^2 - q0_1^2)"
                  " + 1/2*(q3_2^2 - 2*q2_2^2 + q1_2^2 - 1/2*q0_2^2)"
                  " + 1/2*(q3_3^2 - q2_3^2 + 1/2*q1_3^2 - 1/4*q0_3^2)"
                  " + 1/10*q0_1^2*q0_2^2 + 1/20*q1_2*q1_3*q0_1^3"
                  " + 1/10*q0_3^2*q3_1^2 + 1/50*sin(q0_2)*q2_3^2"
                  " + 1/100*exp(1/4*q1_1)*q3_2*q3_3",
}

# each kernel of this system meets a domain error wherever q0 <= 0
LOG_DOC = {"name": "log", "order": 2, "dofs": 1,
           "lagrangian": "1/2*q2^2*log(q0) + q1^2*sqrt(q0)"}

# systems with an everywhere-regular Hessian
REGULAR = ("pais_uhlenbeck", "harmonic", "free_particle", "driven",
           "coupled_beam")


def derived(key):
    return om.derive(om.build_system(SYSTEM_DOCS[key]))


@pytest.fixture(scope="session")
def pu():
    return derived("pais_uhlenbeck")


@pytest.fixture(scope="session")
def harmonic():
    return derived("harmonic")


@pytest.fixture(scope="session")
def free_particle():
    return derived("free_particle")


@pytest.fixture(scope="session")
def degenerate():
    return derived("degenerate")


@pytest.fixture(scope="session")
def driven():
    return derived("driven")


@pytest.fixture(scope="session")
def coupled_beam():
    return derived("coupled_beam")


@pytest.fixture(scope="session")
def all_systems():
    return {key: derived(key) for key in SYSTEM_DOCS}


def cos_jet(t=0.0):
    """The order-3 jet of cos at time t (the exact fourth-order solution)."""
    return om.JetPoint(t, np.array([[np.cos(t), -np.sin(t),
                                     -np.cos(t), np.sin(t)]]))


def on_constraint_points(ds, count, seed, box=(-2.0, 2.0)):
    """Seeded unified points placed exactly on the constraint manifold."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        t = float(rng.uniform(*box))
        jets = rng.uniform(box[0], box[1], size=(ds.n, 2 * ds.k))
        momenta = om.legendre_map(ds, om.JetPoint(t, jets))
        points.append(om.UnifiedPoint(om.JetPoint(t, jets), momenta))
    return points


def field_family(ds):
    """The expressions whose values the unified field reads: the Hessian
    row by row, ``el_reduced`` and the partials dL/dq_i (i < k), over the
    coordinates (t, jets)."""
    exprs = ([w for row in ds.hessian for w in row] + ds.el_reduced
             + [g for row in ds.lagrangian_partials for g in row])
    return exprs, _coordinates(ds.n, 2 * ds.k, 0)


def reference_field(ds, t, y, values):
    """The unified field at (t, y) by separate steps from ``values``, the
    values of :func:`field_family`: the top jets from the straight-line
    solve where it answers, else from ``_solve_top_jets``; then the jet
    shift and G^i = dL/dq_i - p^{i-1} by array slicing.  A singular W
    raises with ``y`` as its state."""
    k, n = ds.k, ds.n
    jets, nn = 2 * k * n, n * n
    solve = legendre._top_jet_solver(n) if n <= 3 else None
    accel = solve(values, -1.0 if k % 2 else 1.0) if solve else None
    if accel is None:
        try:
            accel = legendre._solve_top_jets(
                k, np.array(values[:nn]).reshape(n, n), values[nn:nn + n], t)
        except om.SingularHessianError as err:
            err.state = np.array(y)
            raise
    q = np.reshape(y[:jets], (n, 2 * k))
    out = np.concatenate([q[:, 1:], np.reshape(accel, (n, 1))], axis=1)
    if len(y) == jets:
        return out.ravel()
    p = np.reshape(y[jets:], (n, k))
    lower = np.concatenate([np.zeros((n, 1)), p[:, :-1]], axis=1)
    forces = np.reshape(np.array(values[nn + n:], dtype=float), (n, k))
    return np.concatenate([out.ravel(), (forces - lower).ravel()])


def field_outcome(fn):
    """The bytes of a field's answer, or its error: a singular W with the
    state it carries, any other error by type and message."""
    try:
        return "ok", fn().tobytes()
    except om.SingularHessianError as err:
        return "singular", str(err), err.state.tobytes()
    except om.OstromechError as err:
        return type(err).__name__, str(err)


def hex_digest(values):
    """The first 16 hex digits of the sha256 of the values' float.hex
    spellings, so two digests are equal exactly when the values are equal
    bit for bit."""
    text = " ".join(float(v).hex() for v in np.ravel(values))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_spec(tmp_path, key, **overrides):
    """Write one of the example system docs as a spec file."""
    doc = dict(SYSTEM_DOCS[key], **overrides)
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def chain_doc(n, zero_dof=None):
    """A dense n-dof chain of rotors: nearest-neighbour springs plus
    all-pairs velocity couplings, so every entry of W is non-zero.  The
    velocity of ``zero_dof`` enters nowhere, which makes its row of W zero.
    """
    moving = [a for a in range(1, n + 1) if a != zero_dof]
    terms = ["-1/2*q0_1^2"]
    terms += [f"1/2*(1 + 1/10*q0_{a}^2)*q1_{a}^2" for a in moving]
    terms += [f"{(a + 2 * b) % 7 + 2}/100*cos(q0_{a} - q0_{b})*q1_{a}*q1_{b}"
              for a in moving for b in moving if a < b]
    terms += [f"-1/2*(q0_{a} - q0_{a + 1})^2" for a in range(1, n)]
    return {"name": f"chain{n}", "order": 1, "dofs": n,
            "lagrangian": " + ".join(terms), "autonomous": True}
