"""Benchmark of the spirallike package: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

Run from the root of a checkout.  The package is imported from the
checkout's src/ in fresh processes with one BLAS thread.  Workloads, sizes
and metrics are described in bench/README.md and BENCHMARK.json.

With --trace 0 the run reports the end-to-end metrics: setup_s is the
median wall time of SETUP_REPEATS fresh processes that import the package
and build the workload's inputs and function handles, each taken relative to
cold `import numpy` processes around it (see setup_seconds); the other metrics come
from one worker process that measures the workload for S seconds.  With
--trace 1 the worker alternates traced and untraced units of work and the
run reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every failed operation is a known baseline failure
(KNOWN_FAILURES), 1 when an oracle check failed beyond that, and 2 when the
checkout cannot be benchmarked.  --record appends the result and the
machine facts to FILE as one JSON line, for bench/compare.py.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402

SETUP_REPEATS = 5
# setup_s is given in seconds of a machine whose cold `import numpy` process
# takes this long; on the 2-core VM where the benchmark was defined,
# reference.process took 0.11 to 0.26 s.  See setup_seconds.
NOMINAL_REFERENCE_S = 0.16
WORKER_TIMEOUT_S = 150

# Operations that fail their oracle check at the commit that defined the
# benchmark.  Koebe's Taylor coefficients from the FFT route miss a_n = n by
# 9.7e-6 at n = 40 and by 6e13 at n = 100, against the acceptance suite's
# 1e-8.
KNOWN_FAILURES = {
    "experiments": {"taylor_coefficients.koebe_n40", "taylor_coefficients.koebe_n100"},
}

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd, env, timeout):
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def probe_versions(env):
    """Import the package once (filling bytecode caches) and read versions."""
    code = (
        "import json, spirallike.cli, numpy, scipy, spirallike; "
        "print(json.dumps([spirallike.__file__, numpy.__version__, scipy.__version__]))"
    )
    proc = run_child([sys.executable, "-c", code], env, 120)
    if proc.returncode != 0:
        fail("cannot import spirallike from src/:\n" + proc.stderr.decode())
    where, numpy_version, scipy_version = json.loads(proc.stdout.decode().splitlines()[-1])
    if ROOT / "src" not in Path(where).resolve().parents:
        fail(f"spirallike resolves to {where}, outside this checkout's src/")
    return numpy_version, scipy_version


def machine_facts(env):
    numpy_version, scipy_version = probe_versions(env)
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh).get("project", {}).get("dependencies", [])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": scipy_version,
        "blas_threads": int(PINNED_THREADS["OPENBLAS_NUM_THREADS"]),
        "src_lines": src_lines,
        "runtime_deps": deps,
    }


def setup_seconds(workload, seed, env):
    """Median set-up time, in seconds of the nominal machine, and the raw times.

    Set-up processes alternate with reference processes (a cold `import
    numpy`); each set-up time is divided by the mean of the two reference
    times around it, which cancels a slowdown of the host common to both,
    and scaled by NOMINAL_REFERENCE_S.
    """
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "setup", workload, "--seed", str(seed)]
    times = []
    refs = [reference.process(ROOT, env)[0]]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = run_child(cmd, env, 120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail("set-up failed:\n" + proc.stderr.decode())
        refs.append(reference.process(ROOT, env)[0])
    ratios = [t / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(times)]
    return NOMINAL_REFERENCE_S * statistics.median(ratios), times, refs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result as one JSON line to this file")
    args = parser.parse_args()

    if not (ROOT / "src" / "spirallike" / "__init__.py").is_file():
        fail(f"no spirallike package under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    env = environment()
    started = time.time()
    facts = machine_facts(env)
    setup = None
    if not args.trace:
        setup = setup_seconds(args.workload, args.seed, env)
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "run", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = run_child(cmd, env, WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("worker failed:\n" + proc.stderr.decode())
    out = json.loads(proc.stdout.decode().splitlines()[-1])

    values = dict(out["per_layer"] if args.trace else out["metrics"])
    if setup is not None:
        values["setup_s"] = setup[0]
    missing = set(units) - set(values)
    if missing:
        fail(f"worker did not produce {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    known = KNOWN_FAILURES.get(args.workload, set())
    unexpected = sorted(set(out["failures"]) - known)
    correct = not unexpected

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    if setup is not None:
        print(f"set-up: {SETUP_REPEATS} fresh processes, "
              + ", ".join(f"{t:.4g}" for t in setup[1]) + " s; reference processes around them, "
              + ", ".join(f"{t:.4g}" for t in setup[2]) + " s")
    for line in out["report"]:
        print(line)
    failed_share = out["failed"] / out["attempted"]
    print(f"failed_share = {failed_share:.6g} ({out['failed']} of {out['attempted']} operations; "
          f"known baseline failures: {sorted(known) or 'none'})")
    for op, info in sorted(out["failures"].items()):
        tag = "known" if op in known else "FAIL"
        print(f"  {tag} {op}: {info['count']}x, {info['detail']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not correct:
        print(f"bench: oracle checks failed beyond the baseline: {unexpected}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "started": started, "machine": facts, "result": result,
        }
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
