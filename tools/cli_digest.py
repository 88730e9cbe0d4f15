"""Digest the command-line output over the demo systems, and the demos.

Runs every subcommand of ``ostromech`` on each spec of ``demos/systems``
and prints one line per run: the argv, the exit code and the first 16
hex digits of the sha256 of stdout, of stderr and of the CSV the run
wrote, if any.  Then it runs each ``demos/0*.py`` under
``-W error::RuntimeWarning`` and prints the same fields, the CSV always
``-``, and last a few more command-line runs.  The runs take place in a
temporary directory with relative file names, so no line depends on
where the repository lives.  Two checkouts print the same lines exactly
when their output is byte-identical:

    python3 tools/cli_digest.py > digest.txt

The command line is run from the ``src`` directory next to this script.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SYSTEMS = ROOT / "demos" / "systems"

# path documents that are not paths; each must be a usage error
MALFORMED_PATHS = {
    "not_object": "3",
    "text_coefficients": '{"basis": "monomial", "coefficients": "abc", '
                         '"interval": [0, 1]}',
    "text_interval": '{"basis": "monomial", "coefficients": [[0, 1]], '
                     '"interval": ["a", 1]}',
    "ragged": '{"basis": "monomial", "coefficients": [[0, 1], [1]], '
              '"interval": [0, 1]}',
    "infinite_interval": '{"basis": "monomial", "coefficients": [[0, 1]], '
                         '"interval": [0, Infinity]}',
    "null_coefficient": '{"basis": "monomial", "coefficients": [[null, 1]], '
                        '"interval": [0, 1]}',
}

# system documents written inline, each with the subcommand and options
# of its one run.  The regularity sweep of derive: W crosses zero inside
# the default box; W = 2*sqrt(q0) is a domain error at every negative
# sample (a usage error); W = 2e300*q0 overflows to inf, where kappa_1 is
# NaN; W = q0^400 overflows a power.  unified-check at a point where the
# momentum q1^3 + log(q0) is a domain error.  W = (q0+1)^400 - q0^400 is
# inf - inf = NaN where both powers overflow: at seed 0 a NaN kappa_1
# follows finite ones and must be the worst point, at seed 3 the worst W
# is NaN and has no rank.  simulate of W = q0^200, whose stages overflow
# and are rejected by rk45, with no NumPy warning; under rk4 the same run
# goes to NaN and exits 1.  Malformed documents are usage errors: a
# boolean dof count, a parameter list in place of a mapping, and a
# Lagrangian whose W = 2e308 overflows to inf, which no literal spells.
# A sum of 500 terms derives; q1 inside 200 parentheses nests past the
# parser's limit and a null name is no text, both usage errors.  simulate
# of 1e307*q1^2 differences an overflowing dL/dq1, with no NumPy warning;
# so do two order-4 simulate runs whose energy overflows, as a constant or
# at the state.
INLINE_SYSTEMS = {
    "crossing": ('{"name": "crossing", "order": 1, "dofs": 1, '
                 '"lagrangian": "1/2*q0*q1^2"}', ["derive"]),
    "root": ('{"name": "root", "order": 1, "dofs": 1, '
             '"lagrangian": "sqrt(q0)*q1^2"}', ["derive"]),
    "quartic": ('{"name": "quartic", "order": 1, "dofs": 1, '
                '"lagrangian": "1/4*q1^4 + log(q0)*q1"}',
                ["unified-check", "--point=0,-1,1,0"]),
    "huge": ('{"name": "huge", "order": 1, "dofs": 1, '
             '"lagrangian": "1e300*q0*q1^2"}',
             ["derive", "--domain=-1e9,1e9", "--samples", "40", "--seed",
              "0"]),
    "power": ('{"name": "power", "order": 1, "dofs": 1, '
              '"lagrangian": "1/2*q0^400*q1^2"}',
              ["derive", "--domain=-1e9,1e9"]),
    "gap": ('{"name": "gap", "order": 1, "dofs": 1, '
            '"lagrangian": "1/2*((q0+1)^400 - q0^400)*q1^2"}',
            ["derive", "--domain=-10,10", "--samples", "40", "--seed", "0"]),
    "gap_nan": ('{"name": "gap", "order": 1, "dofs": 1, '
                '"lagrangian": "1/2*((q0+1)^400 - q0^400)*q1^2"}',
                ["derive", "--domain=-10,10", "--samples", "40", "--seed",
                 "3"]),
    "steep": ('{"name": "steep", "order": 1, "dofs": 1, '
              '"lagrangian": "1/2*q0^200*q1^2"}',
              ["simulate", "--init", "30,200", "--t-end", "1"]),
    "steep_rk4": ('{"name": "steep", "order": 1, "dofs": 1, '
                  '"lagrangian": "1/2*q0^200*q1^2"}',
                  ["simulate", "--init", "30,200", "--t-end", "1",
                   "--method", "rk4", "--step", "0.05"]),
    "dofs_bool": ('{"name": "dofs_bool", "order": 1, "dofs": true, '
                  '"lagrangian": "1/2*q1^2"}', ["derive"]),
    "parameters_list": ('{"name": "parameters_list", "order": 1, '
                        '"dofs": 1, "parameters": [1, 2], '
                        '"lagrangian": "1/2*q1^2"}', ["derive"]),
    "overflow": ('{"name": "overflow", "order": 1, "dofs": 1, '
                 '"lagrangian": "1e308*q1^2"}', ["derive"]),
    "long_sum": ('{"name": "long_sum", "order": 1, "dofs": 1, '
                 '"lagrangian": "'
                 + " + ".join(f"{i}*q1^2" for i in range(1, 501)) + '"}',
                 ["derive"]),
    "deep": ('{"name": "deep", "order": 1, "dofs": 1, "lagrangian": "'
             + "(" * 200 + "q1" + ")" * 200 + '^2"}', ["derive"]),
    "name_null": ('{"name": null, "order": 1, "dofs": 1, '
                  '"lagrangian": "1/2*q1^2"}', ["derive"]),
    "huge_differences": ('{"name": "huge_differences", "order": 1, '
                         '"dofs": 1, "lagrangian": "1e307*q1^2"}',
                         ["simulate", "--init", "1,1", "--t-end", "0.1"]),
    "energy_constant": ('{"name": "c", "order": 4, "dofs": 1, '
                        '"lagrangian": "1/2*q4^2 + (1e200*1e307)^3"}',
                        ["simulate", "--init",
                         "0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1", "--t-end",
                         "0.5"]),
    "energy_state": ('{"name": "d", "order": 4, "dofs": 1, "lagrangian": '
                     '"1/2*q4^2 + (1e200*q1 + (log(q2))^3)"}',
                     ["simulate", "--init",
                      "0.1,0.2,1e150,0.1,0.1,0.1,0.1,0.1", "--t-end",
                      "0.5"]),
}


# W = 3*q1^2, finite wherever q1 is below about 1e154, while the momentum
# q1^3 overflows from about 1e103: the Legendre map of a point of a wide
# --random box, or of a unified initial state, prints no NumPy warning
QUARTIC = ('{"name": "quartic", "order": 1, "dofs": 1, '
           '"lagrangian": "1/4*q1^4"}')


# exp(q0) overflows at q0 = 800 and across the box -1000,1000; each run
# reports inf or NaN, with no usage error
EXP_POINT = ('{"name": "exp_point", "order": 1, "dofs": 1, '
             '"lagrangian": "exp(q0)*q1^2/2 + q1^2"}')
EXP_BOX = ('{"name": "exp_box", "order": 1, "dofs": 1, '
           '"lagrangian": "exp(q0)*q1^2/2"}')
# the order-5 member of the family u_k; the action of its trajectory
# overflows inside exp(q4_2)
U5 = ('{"name": "u5", "order": 5, "dofs": 2, "lagrangian": '
      '"1/2*q5_1^2 + 1/2*q5_2^2 + sin(q4_1*q5_2)*exp(q4_2)"}')


# a k = 3, n = 3 system shaped like the benchmark's nl3 (bench/roster.py,
# seed 1) and its initial jets: unified-check solves 27 x 27 systems over
# the stacked points, and verify --tol differences up to order 4
NL3 = ('{"name": "nl3", "order": 3, "dofs": 3, "autonomous": true, '
       '"lagrangian": "1/2*(q3_1^2 - 2.331885*q2_1^2 + 1.460129*q1_1^2 '
       '- 0.252253*q0_1^2) + 1/2*(q3_2^2 - 4.712432*q2_2^2 '
       '+ 6.858214*q1_2^2 - 2.916970*q0_2^2) + 1/2*(q3_3^2 '
       '- 2.658922*q2_3^2 + 2.207715*q1_3^2 - 0.545250*q0_3^2) '
       '+ 0.010576*q0_3^2*q3_1^2 + 0.010107*q0_1^2*q0_2^2 '
       '+ 0.025607*q0_2*q0_3*q1_1^2"}')
NL3_INIT = "-0.051585,-0.069118,-0.080001,-0.222977,0.321913,-0.45025," \
    "-0.407026,0.374922,0.161235,-0.29401,0.020116,0.48792," \
    "0.387476,-0.167326,-0.315129,-0.333997,-0.077513,0.408727"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _on_constraint_state(spec, jets):
    """The unified state (jets, momenta) of the jets at t = 0, with the
    momenta of the Legendre map."""
    from ostromech import legendre
    from ostromech.systems import JetPoint, build_system

    with open(spec, encoding="utf-8") as fh:
        model = build_system(json.load(fh))
    q = [jets[a * 2 * model.k:(a + 1) * 2 * model.k] for a in range(model.n)]
    momenta = legendre.legendre_map(legendre.derive(model), JetPoint(0.0, q))
    return jets + [float(p) for p in momenta.reshape(-1)]


def _runs(work: Path):
    for spec in sorted(SYSTEMS.glob("*.json")):
        name = spec.stem
        shutil.copy(spec, work / spec.name)
        doc = json.loads(spec.read_text())
        k, n = doc["order"], doc["dofs"]
        jets = [0.3 + 0.1 * j for j in range(2 * k * n)]
        state = _on_constraint_state(spec, jets)
        path = {"basis": "monomial",
                "coefficients": [[0.3 + 0.1 * a, 0.2, -0.1, 0.05]
                                 for a in range(n)],
                "interval": [0.0, 1.0]}
        (work / f"{name}_path.json").write_text(json.dumps(path))

        s = spec.name
        rk45, rk4, uni = f"{name}_rk45.csv", f"{name}_rk4.csv", \
            f"{name}_unified.csv"
        yield ["derive", s], None
        yield ["simulate", s, "--init", _csv(jets), "--t-end", "1",
               "--out", rk45], rk45
        yield ["simulate", s, "--init", _csv(jets), "--t-end", "1",
               "--method", "rk4", "--step", "0.01", "--out", rk4], rk4
        yield ["simulate", s, "--init", _csv(state), "--t-end", "1",
               "--unified", "--out", uni], uni
        yield ["verify", s, "--traj", rk45], None
        yield ["verify", s, "--traj", rk45, "--tol", "1e-9"], None
        yield ["verify", s, "--traj", uni, "--tol", "1e-9"], None
        yield ["action-check", s, "--traj", rk45, "--variations", "5"], None
        yield ["action-check", s, "--path", f"{name}_path.json",
               "--variations", "5"], None
        yield ["unified-check", s, "--random", "20"], None
        yield ["unified-check", s, "--point", _csv([0.0, *state])], None

    for what, text in MALFORMED_PATHS.items():
        (work / f"{what}.json").write_text(text)
        yield ["action-check", "harmonic.json", "--path", f"{what}.json"], None

    # a trajectory with one NaN cell must fail verify
    lines = (work / "harmonic_rk45.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows[len(rows) // 2][lines[0].split(",").index("q_1_1")] = "nan"
    (work / "harmonic_nan.csv").write_text(
        "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
    yield ["verify", "harmonic.json", "--traj", "harmonic_nan.csv"], None
    # ... and action-check, whose path then reads a NaN jet
    yield ["action-check", "harmonic.json", "--traj", "harmonic_nan.csv",
           "--variations", "5"], None

    # an error names the line of the file: the ragged row is on line 5
    (work / "harmonic_blank.csv").write_text(
        "t,q_0_1,q_1_1\n0,1,0\n\n0.1,1,0\n0.2,1\n")
    yield ["verify", "harmonic.json", "--traj", "harmonic_blank.csv"], None

    (work / "nl3.json").write_text(NL3)
    yield ["simulate", "nl3.json", f"--init={NL3_INIT}", "--t-end", "1",
           "--max-step", "0.01", "--out", "nl3_rk45.csv"], "nl3_rk45.csv"
    yield ["verify", "nl3.json", "--traj", "nl3_rk45.csv"], None
    yield ["verify", "nl3.json", "--traj", "nl3_rk45.csv", "--tol",
           "1e-9"], None
    yield ["action-check", "nl3.json", "--traj", "nl3_rk45.csv",
           "--variations", "5"], None
    yield ["unified-check", "nl3.json", "--random", "20"], None

    # sampling boxes must be finite with lo < hi
    yield ["unified-check", "harmonic.json", "--random", "2",
           "--box=-inf,inf"], None
    yield ["derive", "harmonic.json", "--domain=2,1"], None

    # option values hold exactly their count of finite numbers
    yield ["derive", "harmonic.json", "--domain=1,2,3"], None
    yield ["unified-check", "harmonic.json", "--point", "nan,1,0,0"], None
    # the coupling of an extended point uses its own p; points off the
    # constraint manifold are not solved, and fail
    yield ["unified-check", "harmonic.json", "--point=0,1,0,0,-0.5",
           "--extended"], None
    yield ["unified-check", "harmonic.json", "--point=0,1,0,5"], None
    yield ["unified-check", "pais_uhlenbeck.json",
           "--point=0,1,0,-1,0,0,0"], None
    # a finite point whose evaluation overflows fails, with no numpy warning
    yield ["unified-check", "harmonic.json", "--point", "0,1e200,0,0"], None
    # the compiled point kernel overflows on Python floats at these points,
    # so the tree walker evaluates them
    yield ["unified-check", "pais_uhlenbeck.json", "--random", "3",
           "--box=-1e170,1e170"], None
    yield ["simulate", "harmonic.json", "--init", "nan,0", "--t-end", "1",
           "--method", "rk4", "--step", "0.1"], None
    yield ["simulate", "harmonic.json", "--init", "nan,0", "--t-end", "1"], None
    # a NaN tolerance is a usage error
    yield ["verify", "harmonic.json", "--traj", "harmonic_rk45.csv",
           "--el-tol", "nan"], None
    yield ["verify", "harmonic.json", "--traj", "harmonic_rk45.csv",
           "--tol", "nan"], None
    yield ["action-check", "harmonic.json", "--traj", "harmonic_rk45.csv",
           "--tol", "nan"], None

    # the regularity sweep of derive: more samples than one block of
    # legendre._SWEEP_BLOCK (256) at a second seed, a wide box, and the
    # inline systems
    yield ["derive", "coupled_mass.json", "--samples", "600", "--seed",
           "7"], None
    yield ["derive", "coupled_mass.json", "--domain=-40,40"], None
    for what, (text, (command, *options)) in INLINE_SYSTEMS.items():
        (work / f"{what}.json").write_text(text)
        yield [command, f"{what}.json", *options], None
    # the action of 1e307*q1^2 overflows its Simpson sums, with no NumPy
    # warning
    yield ["simulate", "huge_differences.json", "--init", "1,1", "--t-end",
           "0.1", "--out", "big.csv"], "big.csv"
    yield ["action-check", "huge_differences.json", "--traj", "big.csv",
           "--variations", "3"], None
    # an --out file that cannot be written, and a time span or an rk4 step
    # count that overflows, are usage errors
    yield ["derive", "harmonic.json", "--samples", "3", "--out",
           "absent/x.json"], None
    yield ["simulate", "harmonic.json", "--init", "1,0", "--t-end", "1",
           "--out", "absent/x.csv"], None
    yield ["simulate", "harmonic.json", "--init", "1,0", "--t-end", "1e10",
           "--method", "rk4", "--step", "1e-310"], None
    for method in (["--method", "rk4", "--step", "1"], ["--method", "rk45"]):
        yield ["simulate", "harmonic.json", "--init", "1,0", "--t0=-1e308",
               "--t-end", "1e308", *method], None
    # a negative seed is a usage error
    yield ["derive", "harmonic.json", "--seed", "-1"], None
    (work / "quartic_power.json").write_text(QUARTIC)
    yield ["unified-check", "quartic_power.json", "--random", "2",
           "--box=-1e200,1e200"], None
    yield ["simulate", "quartic_power.json", "--unified", "--init",
           "0,1e150,1", "--t-end", "1"], None
    # an overflow on the recorded grid is a value: the momentum q1^3 of
    # the CSV from q1 = 1e150 overflows in verify and action-check
    yield ["simulate", "quartic_power.json", "--init", "0.5,1e150",
           "--t-end", "0.1", "--out", "quartic.csv"], "quartic.csv"
    yield ["verify", "quartic_power.json", "--traj", "quartic.csv"], None
    yield ["action-check", "quartic_power.json", "--traj", "quartic.csv"], None
    (work / "exp_point.json").write_text(EXP_POINT)
    yield ["unified-check", "exp_point.json", "--point=0,800,1,0"], None
    (work / "exp_box.json").write_text(EXP_BOX)
    yield ["derive", "exp_box.json", "--domain=-1000,1000", "--samples",
           "20"], None
    (work / "u5.json").write_text(U5)
    yield ["simulate", "u5.json", "--init", ",".join(["0.1"] * 20),
           "--t-end", "0.5", "--out", "u5.csv"], "u5.csv"
    yield ["action-check", "u5.json", "--traj", "u5.csv"], None
    # a count outside its range is a usage error before any work
    yield ["derive", "harmonic.json", "--samples", "0"], None
    yield ["derive", "harmonic.json", "--samples",
           "100000000000000000000000"], None
    yield ["action-check", "harmonic.json", "--path", "harmonic_path.json",
           "--quad-points", "100000000000000000000000000000"], None
    yield ["action-check", "harmonic.json", "--path", "harmonic_path.json",
           "--variations", "50001"], None
    yield ["unified-check", "harmonic.json", "--random", "100001"], None


# log(q0) crosses out of its domain on a harmonic trajectory through q0 = 0
LOGPOT = ('{"name": "logpot", "order": 1, "dofs": 1, '
          '"lagrangian": "1/2*q1^2 + log(q0)"}')


# exp(q0) overflows across the box -800,800: at seed 2 the kernel residual
# of point 5, not the first, is NaN, and so is the summary's maximum
EXPQ = ('{"name": "expq", "order": 1, "dofs": 1, '
        '"lagrangian": "1/2*q1^2 - exp(q0)*q1^2/1000"}')


def _later_runs(work: Path):
    """Runs printed after the demos, so that the lines before them keep
    their place."""
    # a domain error on a grid names its first offending value
    yield ["simulate", "harmonic.json", "--init", "1,0", "--t-end", "3",
           "--out", "h.csv"], "h.csv"
    (work / "logpot.json").write_text(LOGPOT)
    yield ["verify", "logpot.json", "--traj", "h.csv"], None
    yield ["action-check", "logpot.json", "--traj", "h.csv"], None
    # a spec's size fields, and the cost of action-check, are bounded
    for what, order, dofs in (("wide", 1, 10**5), ("tall", 10**6, 1)):
        (work / f"{what}.json").write_text(json.dumps(
            {"name": what, "order": order, "dofs": dofs,
             "lagrangian": "1/2*q1_1^2"}))
        yield ["derive", f"{what}.json"], None
    yield ["action-check", "harmonic.json", "--path", "harmonic_path.json",
           "--variations", "50000", "--quad-points", "100000"], None
    # the Euler-Lagrange check takes one first-order difference at any
    # order: a short rk45 grid at order 20, a fine rk4 grid at order 100,
    # and the u5 trajectory written above
    for order, method in ((20, []), (100, ["--method", "rk4", "--step",
                                           "0.001"])):
        (work / f"order{order}.json").write_text(json.dumps(
            {"name": f"order{order}", "order": order, "dofs": 1,
             "lagrangian": f"1/2*q{order}^2 - 1/2*q0^2"}))
        yield ["simulate", f"order{order}.json", "--init",
               ",".join(["0.1"] * (2 * order)), "--t-end", "1",
               *method], None
    yield ["verify", "u5.json", "--traj", "u5.csv"], None
    # a time cell of nan (mid-grid) or inf (the last row) is no grid: a
    # usage error of verify and of action-check
    lines = (work / "harmonic_rk45.csv").read_text().splitlines()
    for what, row in (("nan", len(lines) // 2), ("inf", len(lines) - 1)):
        cells = lines[row].split(",")
        cells[0] = what
        (work / f"harmonic_t_{what}.csv").write_text("\n".join(
            lines[:row] + [",".join(cells)] + lines[row + 1:]) + "\n")
        yield ["verify", "harmonic.json", "--traj",
               f"harmonic_t_{what}.csv"], None
        yield ["action-check", "harmonic.json", "--traj",
               f"harmonic_t_{what}.csv", "--variations", "5"], None
    (work / "expq.json").write_text(EXPQ)
    yield ["unified-check", "expq.json", "--random", "12", "--box=-800,800",
           "--seed", "2"], None
    # a span of 1e-13 takes rk45 steps far below 1e-14
    yield ["simulate", "harmonic.json", "--init", "1,0", "--t-end",
           "1e-13"], None
    yield ["simulate", "pais_uhlenbeck.json", "--init", "1,0,-1,0",
           "--t-end", "1e-13"], None
    # a path interval so short that a bump's half_width^(2 exponent)
    # underflows to 0 is a usage error
    for name, what, text in (
            ("harmonic.json", "short_fourier",
             '{"basis": "fourier", "coefficients": [[0, 1, 0]], '
             '"interval": [0, 1e-200]}'),
            ("pais_uhlenbeck.json", "short_monomial",
             '{"basis": "monomial", "coefficients": [[0, 1]], '
             '"interval": [0, 1e-60]}')):
        (work / f"{what}.json").write_text(text)
        yield ["action-check", name, "--path", f"{what}.json"], None
    # ... and so is one whose length b - a overflows to inf
    (work / "overflowing_interval.json").write_text(
        '{"basis": "monomial", "coefficients": [[0, 1]], '
        '"interval": [-1e308, 1e308]}')
    yield ["action-check", "harmonic.json", "--path",
           "overflowing_interval.json", "--variations", "3"], None
    # spans whose steps make the products of node differences of the
    # Fornberg recurrence subnormal (1e-80) or zero (1e-300)
    for span in ("1e-80", "1e-300"):
        yield ["simulate", "harmonic.json", "--init", "1,0", "--t-end",
               span], None
        yield ["simulate", "pais_uhlenbeck.json", "--init", "1,0,-1,0",
               "--t-end", span], None
    # a negative tolerance is a usage error
    yield ["verify", "harmonic.json", "--traj", "harmonic_rk45.csv",
           "--tol", "-1"], None
    # ... under rk4 too, which reads neither --tol nor --max-step
    yield ["simulate", "harmonic.json", "--init", "1,0", "--t-end", "1",
           "--method", "rk4", "--step", "0.1", "--tol=-1"], None
    # a correct trajectory over a long span, 136 points, is stationary
    yield ["simulate", "harmonic.json", "--init", "0.7,-0.4", "--t-end",
           "7.3", "--out", "harmonic_long.csv"], "harmonic_long.csv"
    yield ["action-check", "harmonic.json", "--traj", "harmonic_long.csv"], \
        None


def _line(label, command, work, env, csv=None):
    """Run ``command`` in ``work`` and print its digest line."""
    done = subprocess.run(command, cwd=work, env=env, capture_output=True,
                          check=False)
    written = work / csv if csv else None
    csv_sha = (_sha(written.read_bytes())
               if written and written.exists() else "-")
    print(label, f"exit={done.returncode}", f"stdout={_sha(done.stdout)}",
          f"stderr={_sha(done.stderr)}", f"csv={csv_sha}", flush=True)


def main() -> int:
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OSTRO_LOG", None)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def cli(runs):
            for argv, csv in runs:
                _line(" ".join(argv), [sys.executable, "-m", "ostromech.cli",
                                       *argv], work, env, csv)

        cli(_runs(work))
        for demo in sorted((ROOT / "demos").glob("0*.py")):
            _line(f"-W error::RuntimeWarning demos/{demo.name}",
                  [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                  work, env)
        cli(_later_runs(work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
