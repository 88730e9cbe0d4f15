"""Time each item of one benchmark workload's pass, for two checkouts.

    python3 tools/command_times.py OLD NEW --workload verify --seed 3

``bench/run.py`` times a pass as a whole, and its trace sums the time of
every ``cli.main`` call of the pass, so neither breaks a pass down by
command.  This script starts one worker process per checkout.  The worker
imports the checkout's ``src`` and its ``bench/workloads.py`` without
writing bytecode, sets the workload up in a temporary directory and runs
one untimed pass; then it runs one pass per request, timing each command
of ``cli.main`` in-process.  The two workers take turns pass by pass, and
which of them goes first alternates from round to round, so a change of
the machine's speed reaches both alike.  The table gives each command's
minimum time over ``--rounds`` passes in ms, the ratio NEW / OLD and,
last, the sums of those minima.  Next to the times it gives, from one
more untimed pass run before them, each command's ``tracemalloc`` peak
in MB and the count ``gc.collect()`` returns after it, with the
collector off while the command runs: what it left in reference cycles.
The timed passes run untraced.

Each worker also hashes the exit code and stdout of every command of its
untimed pass, with its temporary directory's path taken out.  Below the
table the script names each command whose output differs between the
checkouts, and then exits 1; so a change meant to keep its output gets a
byte-identity check next to its timing.

The workloads that run the command line (verify, derive) are timed
command by command.  The integrate workload runs no command: its pass
calls ``integrate`` or ``integrate_unified`` once per ``name/layout``,
so the worker times each of those library calls instead, and hashes the
bytes of the call's ``grid`` and ``states`` (or its error), so a change
meant to keep every trajectory to the bit is checked the same way:

    python3 tools/command_times.py OLD NEW --workload integrate --rounds 3
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402


def timed(call, record):
    """Run ``call()`` and record the seconds it took."""
    start = time.perf_counter()
    try:
        return call()
    finally:
        record(time.perf_counter() - start)


def traced(call, record):
    """Run ``call()`` under ``tracemalloc`` with the collector off, and
    record its traced peak in MB and the count of unreachable objects a
    collection then finds."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        return call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        gc.enable()
        record([peak / 1e6, gc.collect()])


def worker(checkout, workload, seed):
    """Set the workload up, print the hash of each item's output in one
    untimed pass and each item's peak and cycles in one traced pass, then
    answer each line of stdin with one JSON line of the seconds each item
    of one pass took."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import ostromech
    import workloads
    bench = workloads.WORKLOADS[workload]()
    with tempfile.TemporaryDirectory() as workdir:
        bench.setup(ostromech, workdir, int(seed))
        one_pass = (library_pass(bench, ostromech) if workload == "integrate"
                    else command_pass(bench, workloads, workdir))
        print(json.dumps(one_pass()[1]), flush=True)
        print(json.dumps(one_pass(traced)[0]), flush=True)
        for _ in sys.stdin:
            print(json.dumps(one_pass()[0]), flush=True)


def command_pass(bench, workloads, workdir):
    """One pass of a command-line workload: what ``meter`` records of each
    command and the hash of its exit code and stdout, without
    ``workdir``."""
    def one_pass(meter=timed):
        values, outputs = {}, {}
        for key, argv in bench.commands.items():
            with contextlib.redirect_stderr(io.StringIO()):
                code, out = meter(
                    lambda: workloads.capture_cli(bench.cli.main, argv),
                    lambda value: values.__setitem__(key, value))
            outputs[key] = hashlib.sha256(
                f"{code}\n{out.replace(workdir, '')}".encode()).hexdigest()
        return values, outputs
    return one_pass


def library_pass(bench, ostromech):
    """One pass of the integrate workload: what ``meter`` records of each
    ``name/layout`` call and the hash of its grid and states bytes.  The
    pass reaches the integrators through the module it was set up with,
    so that module is swapped for a copy whose integrators meter each
    call, in the order of the pass's keys."""
    values, meter_of_pass = [], [timed]

    def metered(integrator):
        def call(*args, **kwargs):
            return meter_of_pass[0](lambda: integrator(*args, **kwargs),
                                    values.append)
        return call

    bench.om = types.SimpleNamespace(**{
        **vars(ostromech), "integrate": metered(ostromech.integrate),
        "integrate_unified": metered(ostromech.integrate_unified)})

    def one_pass(meter=timed):
        values.clear()
        meter_of_pass[0] = meter
        out = bench.run_pass()
        outputs = {key: hashlib.sha256(
            repr(value["error"]).encode() if "error" in value
            else value["grid"].tobytes() + value["states"].tobytes()
        ).hexdigest() for key, value in out.items()}
        return dict(zip(out, values, strict=True)), outputs
    return one_pass


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        worker(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", help="the checkout to compare against")
    parser.add_argument("new", help="the checkout under test")
    parser.add_argument("--workload",
                        choices=("verify", "derive", "integrate"),
                        default="verify")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=20,
                        help="timed passes per checkout (default 20)")
    args = parser.parse_args(argv)

    procs = [subprocess.Popen(
        [sys.executable, "-B", str(Path(__file__).resolve()), "--worker",
         checkout, args.workload, str(args.seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for checkout in (args.old, args.new)]
    try:
        outputs = [json.loads(proc.stdout.readline()) for proc in procs]
        memory = [json.loads(proc.stdout.readline()) for proc in procs]
        keys = list(outputs[0])
        best = [dict.fromkeys(keys, float("inf")) for _ in procs]
        turns = list(zip(procs, best))
        for round_ in range(args.rounds):
            for proc, mins in turns[::-1] if round_ % 2 else turns:
                proc.stdin.write("pass\n")
                proc.stdin.flush()
                for key, seconds in json.loads(proc.stdout.readline()).items():
                    mins[key] = min(mins[key], seconds)
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()

    width = max(len(key) for key in keys + ["total"])
    print(f"{'item':<{width}}  {'old ms':>8}  {'new ms':>8}  new/old  "
          f"{'old MB':>7}  {'new MB':>7}  {'old gc':>6}  {'new gc':>6}")
    for key in keys + ["total"]:
        old, new = (sum(mins.values()) if key == "total" else mins[key]
                    for mins in best)
        line = (f"{key:<{width}}  {old * 1e3:8.2f}  {new * 1e3:8.2f}  "
                f"{new / old:7.3f}")
        if key != "total":
            (old_mb, old_gc), (new_mb, new_gc) = (side[key] for side in memory)
            line += f"  {old_mb:7.3f}  {new_mb:7.3f}  {old_gc:6d}  {new_gc:6d}"
        print(line)
    differ = [key for key in keys if outputs[0][key] != outputs[1].get(key)]
    for key in differ:
        print(f"output differs: {key}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
