"""Independent reference for the benchmark's checks.

Derives every roster Lagrangian with sympy (exact rational coefficients):
the Euler-Lagrange expressions, the closed-form Ostrogradsky momenta and
the Hessian.  For the integrate workload it also integrates nl3 and
coupled_beam with scipy's DOP853 (rtol = atol = 1e-12) on the sympy
right-hand side.  Nothing here imports the program.

Rebuild the reference of a seed with

    python3 bench/reference.py --workload integrate --seed 7

which writes ``bench/_ref/integrate-7.json``.  ``bench/run.py`` runs this
command in its own process before it sets up, so the reference's time and
memory stay outside every timed process.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp

import roster

T = sp.Symbol("t")


class SymSystem:
    """A roster spec derived with sympy."""

    def __init__(self, spec):
        self.spec = spec
        self.k, self.n = k, n = spec["order"], spec["dofs"]
        # q[a][i]: jet of order i of dof a (0-based a), orders 0 .. 2k
        self.q = [[sp.Symbol(f"q{i}_{a + 1}") for i in range(2 * k + 1)]
                  for a in range(n)]
        names = {f"q{i}_{a + 1}": self.q[a][i]
                 for a in range(n) for i in range(k + 1)}
        if n == 1:
            names.update({f"q{i}": self.q[0][i] for i in range(k + 1)})
        for pname, value in (spec.get("parameters") or {}).items():
            names[pname] = sp.Rational(str(value))
        names["t"] = T
        text = spec["lagrangian"].replace("^", "**")
        self.lagrangian = sp.sympify(text, locals=names, rational=True)

        self.hessian = [[sp.diff(self.lagrangian, self.q[a][k], self.q[b][k])
                         for b in range(n)] for a in range(n)]
        self.el = [sp.expand(sum((-1) ** i * self.dt(
            sp.diff(self.lagrangian, self.q[a][i]), i) for i in range(k + 1)))
            for a in range(n)]
        # p^{r-1} = sum_i (-1)^i D^i dL/dq_{r+i}, levels r-1 = 0 .. k-1
        self.momenta = [[sp.expand(sum((-1) ** i * self.dt(
            sp.diff(self.lagrangian, self.q[a][r + i]), i)
            for i in range(k - r + 1))) for r in range(1, k + 1)]
            for a in range(n)]

    def dt(self, expr, times=1):
        """Total time derivative along the jet prolongation."""
        for _ in range(times):
            expr = sp.diff(expr, T) + sum(
                self.q[a][i + 1] * sp.diff(expr, self.q[a][i])
                for a in range(self.n) for i in range(2 * self.k))
        return expr

    def bindings(self, t, jets):
        """Symbol values for t and a jet array of shape (n, >= 1)."""
        env = {T: t}
        for a in range(self.n):
            for i, value in enumerate(jets[a]):
                env[self.q[a][i]] = value
        return env

    def values_at(self, point):
        """Reference el, momenta, Hessian and its determinant at a point."""
        args = [T] + [s for row in self.q for s in row]
        values = [point["t"]] + [v for row in point["q"] for v in row]
        f = sp.lambdify(args, [self.el, self.momenta, self.hessian], "math")
        el, momenta, hessian = f(*values)
        w = np.array(hessian, dtype=float)
        return {"el": [float(v) for v in el],
                "momenta": [[float(v) for v in row] for row in momenta],
                "hessian": w.tolist(), "hessian_det": float(np.linalg.det(w))}

    def rhs(self):
        """Right-hand side of the flattened jet state (dof-major, orders
        0 .. 2k-1), solving el = J q_{2k} + reduced = 0 for the top jets."""
        k, n = self.k, self.n
        top = [self.q[a][2 * k] for a in range(n)]
        jac = sp.Matrix(self.el).jacobian(top)
        reduced = sp.Matrix(self.el).subs({s: 0 for s in top})
        state = [self.q[a][i] for a in range(n) for i in range(2 * k)]
        f_jac = sp.lambdify([T] + state, jac, "numpy")
        f_red = sp.lambdify([T] + state, reduced, "numpy")

        def f(t, y):
            accel = np.linalg.solve(np.array(f_jac(t, *y), dtype=float),
                                    -np.array(f_red(t, *y), dtype=float).ravel())
            ydot = np.empty_like(y)
            for a in range(n):
                base = 2 * k * a
                ydot[base:base + 2 * k - 1] = y[base + 1:base + 2 * k]
                ydot[base + 2 * k - 1] = accel[a]
            return ydot
        return f

    def texts(self):
        """Python-syntax texts of the momenta and the Lagrangian, for
        evaluation over trajectory arrays."""
        return {"lagrangian": str(self.lagrangian),
                "momenta": [[str(p) for p in row] for row in self.momenta]}


def integrate_reference(spec, init, span):
    sym = SymSystem(spec)
    y0 = np.asarray(init, dtype=float).reshape(-1)
    sol = solve_ivp(sym.rhs(), (0.0, span), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    final = sol.y[:, -1]
    n, k = sym.n, sym.k
    jets = final.reshape(n, 2 * k)
    momenta = [[float(p.evalf(subs=sym.bindings(span, jets)))
                for p in row] for row in sym.momenta]
    return {"span": span, "final_jets": jets.tolist(),
            "final_momenta": momenta, "texts": sym.texts()}


def build(workload, seed):
    """The reference data a workload's checks read, for one seed."""
    if workload == "integrate":
        pu = SymSystem(roster.demo_spec("pais_uhlenbeck"))
        return {
            "nl3": integrate_reference(roster.nl3_spec(seed),
                                       roster.nl3_init(seed), roster.NL3_SPAN),
            "coupled_beam": integrate_reference(
                roster.demo_spec("coupled_beam"), roster.beam_init(seed),
                roster.BEAM_SPAN),
            "pais_uhlenbeck": {"texts": pu.texts()},
        }
    if workload == "derive":
        out = {}
        for spec in roster.derive_specs(seed):
            sym = SymSystem(spec)
            points = roster.derive_points(seed, spec)
            out[spec["name"]] = {"points": points,
                                 "values": [sym.values_at(p) for p in points]}
        return out
    if workload == "verify":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("integrate", "verify", "derive"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    data = build(args.workload, args.seed)
    target = roster.ref_path(args.workload, args.seed)
    target.parent.mkdir(exist_ok=True)
    tmp = target.with_suffix(".tmp")
    tmp.write_text(json.dumps(data))
    tmp.replace(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
