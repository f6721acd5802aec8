"""Time from the return of `cli.main` to the exit of a cold `spirallike` process.

    python perf/exit_time.py [--rounds N] [--seed S] [SRC ...]

Each SRC is a directory that holds the `spirallike` package (default: the
repository's src/); give two to compare checkouts.  A round starts, for each
SRC, one fresh interpreter per subcommand of the cli_cold benchmark cycle
(eval, verify, growth, beta, qtheta with the benchmark's arguments), in a
seeded order.  The interpreter wraps `spirallike.cli.main` so that it writes
`time.monotonic()` to stderr when main returns, then runs the package as
`python -m spirallike` does (`runpy.run_module(..., run_name="__main__")`),
with stdout to /dev/null.  This script reads the same clock when the child
has exited and closed its pipe, so the difference is everything the process
does after main: the entry's own work, atexit handlers, the stdio flush and
interpreter shutdown with its collections.

Prints one JSON object per SRC and subcommand: the median and quartiles of
main-return-to-exit and of the whole call, in ms, and the number of calls.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
QUARTER_PI, PI = repr(math.pi / 4), repr(math.pi)
CALLS = {
    "eval": ["eval", "--gallery", "koebe", "--z", "0.5"],
    "verify": ["verify", "--gallery", "hansen", "--lambda", QUARTER_PI, "--A", PI],
    "growth": ["growth", "--gallery", "hansen", "--lambda", QUARTER_PI, "--A", PI, "--r-k", "2:8"],
    "beta": ["beta", "--gallery", "g0", "--lambda", "0.6"],
    "qtheta": ["qtheta"],
}
# BLAS pinned to one thread, as the benchmark runs it
ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
CHILD = """\
import runpy, sys, time
import spirallike.cli as cli

main = cli.main

def timed_main(argv=None):
    code = main(argv)
    sys.stderr.write(repr(time.monotonic()) + "\\n")
    return code

cli.main = timed_main
runpy.run_module("spirallike", run_name="__main__")
"""


def one_call(src, argv):
    """(main-return-to-exit s, whole call s) of one cold process."""
    env = dict(os.environ, PYTHONPATH=str(src), **ONE_THREAD)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    _, err = proc.communicate()
    t_exit = time.monotonic()
    lines = err.decode().splitlines()
    if proc.returncode != 0 or len(lines) != 1:
        sys.exit(f"{src}: {argv} exited {proc.returncode}:\n{err.decode()}")
    return t_exit - float(lines[0]), t_exit - t0


def quartiles_ms(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"p25": 1e3 * q1, "p50": 1e3 * q2, "p75": 1e3 * q3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", default=[str(REPO / "src")])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    samples = {(src, name): [] for src in args.src for name in CALLS}
    for _ in range(args.rounds):
        order = [(src, name) for src in args.src for name in CALLS]
        rng.shuffle(order)
        for src, name in order:
            samples[src, name].append(one_call(src, CALLS[name]))
    for (src, name), rows in samples.items():
        after, whole = zip(*rows)
        print(json.dumps({
            "src": src, "subcommand": name, "calls": len(rows),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "main_return_to_exit_ms": quartiles_ms(list(after)),
            "call_ms": quartiles_ms(list(whole)),
        }))


if __name__ == "__main__":
    main()
