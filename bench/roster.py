"""Seeded inputs of the benchmark: system specs, initial points and spans.

Everything here is plain data built from the workload seed; nothing
imports the program, so the independent reference and the program read
the same specs.  Coefficients are rounded to six decimals so that the
spec text is exact both for the program's parser and for sympy.
"""

from __future__ import annotations

import json
import math
import zlib
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
DEMO_SYSTEMS = REPO / "demos" / "systems"
REF_DIR = Path(__file__).resolve().parent / "_ref"
DEMO_NAMES = ("coupled_beam", "degenerate", "driven_oscillator",
              "free_particle", "harmonic", "pais_uhlenbeck")

# integration tolerance of every library call of the integrate workload
TOL = 1e-9

# spans: PU over one period of its slow mode; coupled_beam over a short
# span because its relative mode grows like e^{1.19 t}; nl3 over a span in
# which its weak couplings act on states of size up to about 10
PU_SPAN = 2.0 * math.pi
BEAM_SPAN = 3.0
NL3_SPAN = 4.0

# verify workload: rk4 unified PU trajectory of 2001 points on [0, 2*pi]
PU_VERIFY_POINTS = 2001
NL3_VERIFY_SPAN = 3.0
UNIFIED_CHECK_POINTS = 120

# derive workload: points per spec at which the checks compare with sympy
DERIVE_POINTS = 4

# the cosine jet of PU (w1 = 1, w2 = 2): q = cos t solves q'''' + 5 q'' + 4 q = 0
PU_COS_JET = [1.0, 0.0, -1.0, 0.0]


def ref_path(workload, seed):
    """File of the independent reference of one workload and seed."""
    return REF_DIR / f"{workload}-{seed}.json"


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _num(x):
    return f"{x:.6f}"


def demo_spec(name):
    return json.loads((DEMO_SYSTEMS / f"{name}.json").read_text())


def nl3_spec(seed):
    """Order-3, three-dof Lagrangian: three sixth-order oscillators.

    Each dof is 1/2*(q3^2 - a q2^2 + b q1^2 - c q0^2), whose equation
    q6 + a q4 + b q2 + c q0 = 0 has the three real frequencies w with
    a = sum w^2, b = sum of pairwise w^2 products, c = prod w^2.  The nine
    frequencies are distinct.  Three weak couplings follow: a quartic
    potential term, a velocity coupling and a Hessian term e*q0_3^2*q3_1^2
    that keeps W_11 = 1 + 2 e q0_3^2 >= 1, so the system stays regular.
    """
    rng = _rng(seed, 1)
    base = np.linspace(0.55, 1.45, 9)
    freqs = base + rng.uniform(-0.03, 0.03, 9)
    order = rng.permutation(9)
    terms = []
    for dof in range(3):
        w2 = np.round(freqs[order[3 * dof:3 * dof + 3]], 6) ** 2
        a = w2.sum()
        b = w2[0] * w2[1] + w2[0] * w2[2] + w2[1] * w2[2]
        c = w2.prod()
        d = dof + 1
        terms.append(f"1/2*(q3_{d}^2 - {_num(a)}*q2_{d}^2 + {_num(b)}*q1_{d}^2"
                     f" - {_num(c)}*q0_{d}^2)")
    e1, e2, e3 = rng.uniform(0.01, 0.03, 3)
    terms.append(f"{_num(e1)}*q0_3^2*q3_1^2")
    terms.append(f"{_num(e2)}*q0_1^2*q0_2^2")
    terms.append(f"{_num(e3)}*q0_2*q0_3*q1_1^2")
    return {"name": "nl3", "order": 3, "dofs": 3,
            "lagrangian": " + ".join(terms), "autonomous": True}


def nl3_init(seed):
    """Initial jet of nl3, shape (3, 6): orders 0..5 per dof."""
    rng = _rng(seed, 2)
    return np.round(rng.uniform(-0.5, 0.5, (3, 6)), 6).tolist()


def order4_spec(seed):
    """Order-4, two-dof system with a state-dependent Hessian entry."""
    rng = _rng(seed, 3)
    a1, a2 = rng.uniform(1.0, 2.0, 2)
    k, e = rng.uniform(0.1, 0.5), rng.uniform(0.01, 0.05)
    text = (f"1/2*(q4_1^2 + q4_2^2) - 1/2*({_num(a1)}*q2_1^2 + {_num(a2)}*q2_2^2)"
            f" + 1/2*{_num(k)}*(q1_1 - q1_2)^2 + {_num(e)}*q0_2^2*q4_1^2"
            f" - 1/2*(q0_1^2 + q0_2^2)")
    return {"name": "order4", "order": 4, "dofs": 2, "lagrangian": text,
            "autonomous": True}


def chain6_spec(seed):
    """Six rotors in a chain: nearest-neighbour springs plus all-pairs
    velocity couplings e_ab*cos(q0_a - q0_b)*q1_a*q1_b.

    The Hessian I + (e_ab cos(q0_a - q0_b)) is dense and diagonally
    dominant (each row's couplings sum to at most 0.5), so every one of
    the 720 Leibniz products is non-zero and the system is regular.
    """
    rng = _rng(seed, 4)
    n = 6
    terms = ["1/2*(" + " + ".join(f"q1_{a}^2" for a in range(1, n + 1)) + ")"]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            e = rng.uniform(0.02, 0.1)
            terms.append(f"{_num(e)}*cos(q0_{a} - q0_{b})*q1_{a}*q1_{b}")
    springs = rng.uniform(0.5, 1.5, n)
    terms.append(f"-1/2*{_num(springs[0])}*q0_1^2")
    for a in range(1, n):
        terms.append(f"-1/2*{_num(springs[a])}*(q0_{a} - q0_{a + 1})^2")
    return {"name": "chain6", "order": 1, "dofs": n,
            "lagrangian": " + ".join(terms), "autonomous": True}


def beam_init(seed):
    """Initial jet of coupled_beam, shape (2, 4)."""
    rng = _rng(seed, 5)
    return np.round(rng.uniform(-0.5, 0.5, (2, 4)), 6).tolist()


def derive_specs(seed):
    """The derive roster, in growing symbolic size."""
    specs = [demo_spec(name) for name in DEMO_NAMES]
    return specs + [nl3_spec(seed), order4_spec(seed), chain6_spec(seed)]


def derive_points(seed, spec):
    """DERIVE_POINTS seeded evaluation points for the derive checks: t and
    jets up to order 2k, drawn from [-1, 1]."""
    rng = np.random.default_rng([int(seed), 6, zlib.crc32(spec["name"].encode())])
    k, n = spec["order"], spec["dofs"]
    out = []
    for _ in range(DERIVE_POINTS):
        out.append({"t": float(rng.uniform(-1, 1)),
                    "q": rng.uniform(-1, 1, (n, 2 * k + 1)).tolist()})
    return out
