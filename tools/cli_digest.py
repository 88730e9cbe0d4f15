"""Digest the command-line output over the demo systems.

Runs every subcommand of ``ostromech`` on each spec of ``demos/systems``
and prints one line per run: the argv, the exit code and the first 16
hex digits of the sha256 of stdout, of stderr and of the CSV the run
wrote, if any.  The runs take
place in a temporary directory with relative file names, so no line
depends on where the repository lives.  Two checkouts print the same
lines exactly when their command-line output is byte-identical:

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
        yield ["action-check", s, "--traj", rk45, "--basis", "fourier",
               "--variations", "5"], None
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
    # ... and action-check, whose fit then has a NaN derivative residual
    yield ["action-check", "harmonic.json", "--traj", "harmonic_nan.csv",
           "--variations", "5"], None

    # sampling boxes must be finite with lo < hi
    yield ["unified-check", "harmonic.json", "--random", "2",
           "--box=-inf,inf"], None
    yield ["derive", "harmonic.json", "--domain=2,1"], None

    # option values hold exactly their count of finite numbers
    yield ["derive", "harmonic.json", "--domain=1,2,3"], None
    yield ["unified-check", "harmonic.json", "--point", "nan,1,0,0"], None
    yield ["simulate", "harmonic.json", "--init", "nan,0", "--t-end", "1",
           "--method", "rk4", "--step", "0.1"], None
    yield ["simulate", "harmonic.json", "--init", "nan,0", "--t-end", "1"], None


def main() -> int:
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("OSTRO_LOG", None)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for argv, csv in _runs(work):
            done = subprocess.run(
                [sys.executable, "-m", "ostromech.cli", *argv], cwd=work,
                env=env, capture_output=True, check=False)
            written = work / csv if csv else None
            csv_sha = (_sha(written.read_bytes())
                       if written and written.exists() else "-")
            print(" ".join(argv), f"exit={done.returncode}",
                  f"stdout={_sha(done.stdout)}", f"stderr={_sha(done.stderr)}",
                  f"csv={csv_sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
