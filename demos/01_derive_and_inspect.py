"""Derive everything a fourth-order Lagrangian determines, then look at it.

Loads the two-frequency oscillator spec, runs the mechanical derivation,
and prints the momenta, the equation of motion, and the regularity
diagnosis.  The degenerate spec at the end shows what refusal looks like.
"""

import json
import pathlib

import ostromech as om

HERE = pathlib.Path(__file__).parent


def load(name):
    return om.build_system(json.loads((HERE / "systems" / name).read_text()))


def main():
    model = load("pais_uhlenbeck.json")
    ds = om.derive(model)
    n = model.n

    print(f"system: {model.name} (order {model.k}, {n} dof)")
    print(f"L = {om.to_text(model.lagrangian, n)}")
    print()
    print("Ostrogradsky momenta (closed form):")
    for a, per_dof in enumerate(ds.momenta, start=1):
        for level, p in enumerate(per_dof):
            print(f"  p{level} = {om.to_text(p, n)}")
    print()
    print("the recursion builds the same expressions from the top down:")
    for per_dof in om.momentum_exprs_recursive(model):
        for level, p in enumerate(per_dof):
            print(f"  p{level} = {om.to_text(p, n)}")
    print()
    print(f"equation of motion: {om.to_text(ds.el[0], n)} = 0")
    print(f"Hessian in q{model.k}: {om.to_text(ds.hessian[0][0], n)}")
    print(f"unified Hamiltonian: {om.to_text(ds.hamiltonian, n)}")

    report = om.regularity_report(ds, samples=200, seed=0)
    print()
    print(f"regular on the sampled box: {report.regular} "
          f"(|det W| in [{report.min_abs_det:g}, {report.max_abs_det:g}], "
          f"max condition {report.max_condition:g})")

    # and the cautionary tale
    bad = om.derive(load("degenerate.json"))
    bad_report = om.regularity_report(bad, samples=50, seed=0)
    print()
    print("degenerate system L = 1/2*q1^2 at order 2:")
    print(f"  det W = {om.to_text(om.hessian_det_expr(bad.model), 1)}, "
          f"rank at worst point = {bad_report.to_dict()['rank_at_worst_point']}")
    try:
        om.lagrangian_rhs(bad, 0.0, [1.0, 0.0, 0.0, 0.0])
    except om.SingularHessianError as err:
        print(f"  accelerations refused: {err}")


if __name__ == "__main__":
    main()
