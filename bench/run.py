"""Run one benchmark workload in a fresh process and print its metrics.

    python3 bench/run.py --workload integrate --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from
``src/``.  The steps are:

1. build the independent reference for the seed, in its own process, if
   ``bench/_ref`` does not hold it yet (``reference.py``);
2. untraced runs only: set up SETUP_SAMPLES times, each in a fresh
   interpreter, and take the median time from the spawn to the end of
   set-up as ``setup_s``;
3. set up in this process, then run one untimed pass whose outputs are
   fully checked;
4. run timed passes until ``--seconds`` have passed; each pass is
   checked, fully unless its outputs are identical to an already checked
   pass;
5. print one JSON line: with ``--trace 0`` the end-to-end metrics, with
   ``--trace 1`` the per-layer metrics of ``tracer.py``.

In untraced runs, set-ups and timed passes run under ``calibrate.py``,
and every time is scaled to the reference machine speed; the raw figures
go to stderr.

Exit code 0 when the run completed, 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORK = BENCH / "_work"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def _import_program():
    """Import ``ostromech.cli`` from the checkout; returns its time."""
    sys.path.insert(0, str(REPO / "src"))
    start = time.perf_counter()
    import ostromech.cli  # noqa: F401
    return time.perf_counter() - start


def _setup(workload, seed, workdir):
    import ostromech
    import workloads
    bench = workloads.WORKLOADS[workload]()
    bench.setup(ostromech, workdir, seed)
    return bench


def _fresh_dir(tag):
    # fixed-width name: the CLI reports echo input paths, so cli.output_bytes
    # stays the same from run to run in one checkout
    path = WORK / f"{tag}-{os.getpid():07d}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_child(args):
    """Set up in this fresh interpreter under calibration and report the
    monotonic clock at the end (CLOCK_MONOTONIC is shared by all processes
    of the machine), the calibration handler's time and the scale."""
    import calibrate
    cal = calibrate.Calibrator().start()
    workdir = _fresh_dir("setup")
    try:
        _import_program()
        _setup(args.workload, args.seed, workdir)
        cal.stop()
        print(json.dumps({"setup_done": time.monotonic(), "busy": cal.busy,
                          "scale": cal.scale()}))
    finally:
        cal.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_samples(args):
    """Raw and scaled set-up times of SETUP_SAMPLES fresh interpreters."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        child = json.loads(proc.stdout.splitlines()[-1])
        raw.append(child["setup_done"] - start - child["busy"])
        scaled.append(raw[-1] * child["scale"])
    return raw, scaled


def ensure_reference(args):
    import roster
    path = roster.ref_path(args.workload, args.seed)
    if not path.exists():
        subprocess.run([sys.executable, str(BENCH / "reference.py"),
                        "--workload", args.workload, "--seed", str(args.seed)],
                       timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(path.read_text())


class Checker:
    """Checks each pass; a pass whose outputs are identical to a pass
    already checked shares its verdict."""

    def __init__(self, bench, ref, digest):
        self.bench, self.ref, self.digest = bench, ref, digest
        self.verdicts = {}

    def failures(self, outputs):
        key = self.digest(outputs)
        if key not in self.verdicts:
            self.verdicts[key] = self.bench.check(outputs, self.ref)
            for message in self.verdicts[key]:
                print(f"check failed: {message}", file=sys.stderr)
        return self.verdicts[key]


def output_bytes(outputs):
    return sum(len(value[1].encode()) for value in outputs.values()
               if isinstance(value, tuple) and isinstance(value[1], str))


def run(args):
    # first, so that cli.import_s finds none of the program's imports loaded
    import_s = _import_program()
    import calibrate
    import tracer as tracing
    import workloads
    ref = ensure_reference(args)
    setup = None if args.trace else setup_samples(args)

    workdir = _fresh_dir(args.workload)
    cal = None
    try:
        bench = _setup(args.workload, args.seed, workdir)
        checker = Checker(bench, ref, workloads.digest)
        # untimed first pass: lazy imports and caches settle, outputs checked
        checker.failures(bench.run_pass())

        tracer = tracing.Tracer().install() if args.trace else None
        cal = None if args.trace else calibrate.Calibrator().start()
        times, scaled, layers, failed = [], [], [], 0
        deadline = time.perf_counter() + args.seconds
        while not times or time.perf_counter() < deadline:
            busy, first = (cal.busy, len(cal.samples)) if cal else (0.0, 0)
            start = time.perf_counter()
            outputs = bench.run_pass()
            elapsed = time.perf_counter() - start
            if cal is None:
                times.append(elapsed)
            else:
                times.append(elapsed - (cal.busy - busy))
                # a pass too short to hold a sample takes the run's scale
                scaled.append(times[-1] * cal.scale(
                    first if len(cal.samples) > first else 0))
            if tracer is not None:
                totals = tracer.end_pass()
                totals["cli.output_bytes"] = output_bytes(outputs)
                layers.append(totals)
            if checker.failures(outputs):
                failed += 1
        if tracer is not None:
            tracer.uninstall()
    finally:
        if cal is not None:
            cal.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {}
        for name, unit in tracing.METRICS.items():
            values = [layer.get(name, 0) for layer in layers]
            value = import_s if name == "cli.import_s" else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        raw = {"setup_s": statistics.median(setup[0]),
               "ops_per_s": len(times) / sum(times),
               "op_p50_s": statistics.median(times),
               "calibration_mean_s": cal.mean(),
               "calibration_samples": len(cal.samples)}
        print(f"raw: {json.dumps(raw)}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setup[1]), "unit": "s"},
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": len(times), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("integrate", "verify", "derive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "ostromech" / "__init__.py").is_file():
        print(f"error: no program source under {REPO / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_child(args)
    try:
        result = run(args)
    except (subprocess.SubprocessError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
