"""Cold `spirallike qtheta` to a pipe and to /dev/null, its peak memory and its imports.

    python perf/stream_time.py [--rounds N] [--seed S] [SRC ...]

Each SRC is a directory that holds the `spirallike` package (default: the
repository's src/); give two to compare checkouts.  Three readings per SRC,
each printed as one JSON object:

- "time": a round starts one fresh `python -m spirallike qtheta` (the
  benchmark's 100,000-row table) per SRC and sink, in a seeded order.  The
  "pipe" sink reads stdout as the benchmark does (`subprocess.run` with
  captured output); the "devnull" sink sends it to /dev/null.  Median and
  quartiles of the whole call in ms.  The pipe's extra time is what the
  process spends waiting for its reader.
- "peak_rss": the peak resident set of one cold call per entry of
  RSS_CALLS, read from RUSAGE_CHILDREN by a small parent interpreter that
  does nothing but start the call (stdout to /dev/null), in MB, and the
  call's minor page faults: each first touch of a fresh page is one.
- "imports": the package modules a cold qtheta imports, with their
  cumulative import time in ms, from `python -X importtime`.

The environment passes through as it is, so PYTHONDONTWRITEBYTECODE decides
whether the calls compile the package or read cached bytecode; each object
records it.  BLAS is pinned to one thread, as the benchmark runs it.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from bench_file import quartiles

REPO = Path(__file__).resolve().parents[1]
QTHETA = ["qtheta"]
RSS_CALLS = {
    "qtheta": ["qtheta"],
    "qtheta_1e6": ["qtheta", "--qtheta-grid", "1000000"],
    "beta_1e6": ["beta", "--gallery", "koebe", "--t-grid", "1000000"],
}
ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
# the parent of a peak-RSS reading: it imports only what starting the call needs
RSS_PARENT = """\
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(code, usage.ru_maxrss, usage.ru_minflt)
"""


def _env(src):
    return dict(os.environ, PYTHONPATH=str(src), **ONE_THREAD)


def _command(*argv):
    return [sys.executable, "-m", "spirallike", *argv]


def one_call(src, sink):
    """Seconds of one cold qtheta whose stdout goes to sink ("pipe" or "devnull")."""
    stdout = subprocess.PIPE if sink == "pipe" else subprocess.DEVNULL
    t0 = time.monotonic()
    proc = subprocess.run(_command(*QTHETA), env=_env(src), stdout=stdout, stderr=subprocess.PIPE)
    dt = time.monotonic() - t0
    if proc.returncode != 0 or proc.stderr:
        sys.exit(f"{src}: qtheta exited {proc.returncode}:\n{proc.stderr.decode()}")
    return dt


def memory(src, argv):
    """(peak resident set in MB, minor page faults) of one cold call, as its small parent reads them."""
    out = subprocess.run(
        [sys.executable, "-c", RSS_PARENT, *_command(*argv)],
        env=_env(src), capture_output=True, text=True, check=True,
    ).stdout.split()
    if out[0] != "0":
        sys.exit(f"{src}: {argv} exited {out[0]}")
    return int(out[1]) / 1024.0, int(out[2])


def imports_ms(src):
    """{package module: cumulative import ms} of one cold qtheta, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *_command(*QTHETA)[1:]],
        env=_env(src), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
    )
    out = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line.split("|")
            name = name.strip()
            if name.split(".")[0] == "spirallike":
                out[name] = int(cumulative) / 1e3
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", default=[str(REPO / "src")])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    facts = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
             "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
             "rounds": args.rounds, "seed": args.seed}
    rng = random.Random(args.seed)
    samples = {(src, sink): [] for src in args.src for sink in ("pipe", "devnull")}
    for _ in range(args.rounds):
        order = list(samples)
        rng.shuffle(order)
        for src, sink in order:
            samples[src, sink].append(one_call(src, sink))
    for (src, sink), times in samples.items():
        ms = {key: 1e3 * value for key, value in quartiles(times).items()}
        print(json.dumps({"reading": "time", "src": src, "sink": sink, "calls": len(times),
                          "call_ms": ms, **facts}))
    for src in args.src:
        rss, faults = zip(*(memory(src, argv) for argv in RSS_CALLS.values()))
        print(json.dumps({"reading": "peak_rss", "src": src, "mb": dict(zip(RSS_CALLS, rss)),
                          "minor_faults": dict(zip(RSS_CALLS, faults)), **facts}))
        print(json.dumps({"reading": "imports", "src": src, "cumulative_ms": imports_ms(src),
                          **facts}))


if __name__ == "__main__":
    main()
