"""Time each command of one benchmark workload's pass, for two checkouts.

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
last, the sums of those minima.

Each worker also hashes the exit code and stdout of every command of its
untimed pass, with its temporary directory's path taken out.  Below the
table the script names each command whose output differs between the
checkouts, and then exits 1; so a change meant to keep its output gets a
byte-identity check next to its timing.

Only the workloads that run the command line (verify, derive) have
commands.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def worker(checkout, workload, seed):
    """Set the workload up, print the hash of each command's output in one
    untimed pass, then answer each line of stdin with one JSON line of the
    seconds each command of one pass took."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import ostromech
    import workloads
    bench = workloads.WORKLOADS[workload]()
    with tempfile.TemporaryDirectory() as workdir:
        bench.setup(ostromech, workdir, int(seed))
        commands = getattr(bench, "commands", None)
        if commands is None:
            raise SystemExit(f"workload {workload} runs no commands")

        def one_pass():
            times, outputs = {}, {}
            for key, argv in commands.items():
                with contextlib.redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    code, out = workloads.capture_cli(bench.cli.main, argv)
                    times[key] = time.perf_counter() - start
                outputs[key] = hashlib.sha256(
                    f"{code}\n{out.replace(workdir, '')}".encode()
                ).hexdigest()
            return times, outputs

        print(json.dumps(one_pass()[1]), flush=True)
        for _ in sys.stdin:
            print(json.dumps(one_pass()[0]), flush=True)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        worker(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", help="the checkout to compare against")
    parser.add_argument("new", help="the checkout under test")
    parser.add_argument("--workload", choices=("verify", "derive"),
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
    print(f"{'command':<{width}}  {'old ms':>8}  {'new ms':>8}  new/old")
    for key in keys + ["total"]:
        old, new = (sum(mins.values()) if key == "total" else mins[key]
                    for mins in best)
        print(f"{key:<{width}}  {old * 1e3:8.2f}  {new * 1e3:8.2f}  "
              f"{new / old:7.3f}")
    differ = [key for key in keys if outputs[0][key] != outputs[1].get(key)]
    for key in differ:
        print(f"output differs: {key}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
