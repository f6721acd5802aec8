"""Workload processes of the benchmark; run.py starts them.

    python bench/worker.py setup WORKLOAD --seed N
    python bench/worker.py run WORKLOAD --seed N --seconds S --trace 0|1

`setup` imports the package and builds what the workload's first timed
operation needs, then exits; run.py times it from outside.  `run` measures
the workload for S seconds as a closed loop with one client and prints one
JSON object (metrics, attempted, failed, failures by operation, report
lines) as its last line of output.

With --trace 1 the loop alternates untraced and traced units of work (CLI
cycles, kernel rounds, suite passes).  The traced units give the per-layer
metrics; the ratio of traced to untraced unit times gives the tracing
overhead.
"""

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import stats  # noqa: E402

clock = time.perf_counter


class Tally:
    """Attempted and failed operations, with per-operation failure counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.errors = {}

    def record(self, op, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            entry = self.failures.setdefault(op, {"count": 0, "detail": detail})
            entry["count"] += 1

    def error(self, value, key=""):
        """Keep the largest exact error seen for each checked quantity."""
        self.errors[key] = max(self.errors.get(key, 0.0), value)

    def worst_error(self):
        return max(self.errors.values(), default=0.0)


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def unit_overhead(units):
    """Median traced over median untraced unit time, minus 1.

    Unit times are taken relative to their reference time, so that a
    slowdown of the host between the two kinds of unit does not count.
    """
    plain = [u["time"] / u["ref"] for u in units if not u["traced"]]
    traced = [u["time"] / u["ref"] for u in units if u["traced"]]
    return statistics.median(traced) / statistics.median(plain) - 1.0


def keep_going(units, start, seconds, trace):
    return len(units) < (2 if trace else 1) or clock() - start < seconds


# -- eval_kernel ------------------------------------------------------------

METHODS = ("log_f_over_z", "log_derivative", "evaluate")


def _check_kernel(tally, op, method, out, points, expected):
    import numpy as np
    import oracles

    if isinstance(out, Exception):
        tally.record(op, False, f"{type(out).__name__}: {out}")
        return
    values = out if points is None else np.asarray(out)[points]
    values = np.atleast_1d(values)
    worst = 0.0
    for value, triple in zip(values, expected):
        err = oracles.kernel_error(method, complex(value), triple)
        worst = max(worst, err if math.isfinite(err) else math.inf)
    ok = worst <= oracles.KERNEL_TOL and len(values) == len(expected)
    if ok:
        tally.error(worst)
    tally.record(op, ok, f"relative error {worst:.3g} > {oracles.KERNEL_TOL:g}")


def _call(fn, *args):
    t0 = clock()
    try:
        out = fn(*args)
    except Exception as exc:  # counted as a failed operation
        out = exc
    return out, clock() - t0


def kernel_round(cases, expected, tally):
    """Every batch of every handle with each method, batch size by batch size.

    Each batch call is followed by the scalar calls at its checked points.
    The batch time and the mean scalar call time of each batch size are
    taken relative to the reference vector sweep and scalar loop timed right
    before and after that batch size; each relative mean scalar call time is
    one latency sample.
    """
    import inputs
    import reference

    batch_time = 0.0
    batch_ref = 0.0
    batch_points = 0
    scalar_times = []
    scalar_ref = []
    refs = [(reference.vector(), reference.scalar())]
    for bi in range(len(inputs.BATCH_SIZES)):
        batch = 0.0
        times = []
        for ci, (name, _, handle, batches) in enumerate(cases):
            z, idx = batches[bi]
            want = expected[ci, bi]
            for method in METHODS:
                call = getattr(handle, method)
                out, dt = _call(call, z)
                batch += dt
                batch_points += z.size
                _check_kernel(tally, f"{name}.{method}.batch", method, out, idx, want)
                for k in range(inputs.SCALARS):
                    out, dt = _call(call, z[idx[k]])
                    times.append(dt)
                    _check_kernel(tally, f"{name}.{method}.scalar", method, out, None, want[k:k + 1])
        refs.append((reference.vector(), reference.scalar()))
        (v0, s0), (v1, s1) = refs[-2], refs[-1]
        batch_time += batch
        batch_ref += batch / (0.5 * (v0 + v1))
        scalar_times += times
        scalar_ref.append(statistics.fmean(times) / (0.5 * (s0 + s1)))
    ref_vector = statistics.fmean(v for v, _ in refs)
    ref_scalar = statistics.fmean(sc for _, sc in refs)
    return {
        "time": batch_time + sum(scalar_times),
        "batch_time": batch_time,
        "batch_ref": batch_ref,
        "batch_points": batch_points,
        "scalar_times": scalar_times,
        "scalar_ref": scalar_ref,
        "ref_vector": ref_vector,
        "ref_scalar": ref_scalar,
        "ref": ref_vector + ref_scalar,
    }


def run_eval_kernel(seed, seconds, trace):
    import inputs
    import oracles

    cases = inputs.kernel_inputs(seed)
    expected = {}
    for ci, (_, spec, _, batches) in enumerate(cases):
        for bi, (z, idx) in enumerate(batches):
            expected[ci, bi] = [oracles.oracle(spec, z[i]) for i in idx]
    tally = Tally()
    tracer = _tracer(trace)
    units = []
    start = clock()
    while keep_going(units, start, seconds, trace):
        traced = trace and len(units) % 2 == 1
        unit = _traced(tracer, traced, kernel_round, cases, expected, tally)
        unit["traced"] = traced
        units.append(unit)
    plain = [u for u in units if not u["traced"]]
    scalar = [t for u in plain for t in u["scalar_times"]]
    # Per-call times mix six handles and three methods, so their median jumps
    # between modes; the mean call time over all handles and methods at one
    # batch size is steady.
    scalar_ref = [r for u in plain for r in u["scalar_ref"]]
    points_per_round = plain[0]["batch_points"]
    batch_ref = statistics.median(u["batch_ref"] for u in plain)
    p_tail, tail = stats.tail(scalar_ref)
    result = {
        "latency_p50_ref": statistics.median(scalar_ref),
        "latency_tail_ref": tail,
        "throughput_per_ref": points_per_round / batch_ref,
        "correct_digits": oracles.digits(tally.worst_error()),
    }
    raw_p, raw_tail = stats.tail(scalar)
    report = [
        f"unit: one round = {len(cases)} handles x batches of {inputs.BATCH_SIZES} points "
        f"x {len(METHODS)} methods, each batch call followed by {inputs.SCALARS} scalar calls; "
        f"n={len(plain)} rounds, {len(scalar)} scalar calls",
        f"eval_points_per_s = "
        f"{points_per_round / statistics.median(u['batch_time'] for u in plain):.6g} 1/s, "
        f"{result['throughput_per_ref']:.6g} points per reference vector sweep",
        f"scalar_calls_per_s = {len(scalar) / sum(scalar):.6g} 1/s",
        f"scalar call latency: p50 {statistics.median(scalar):.6g} s, "
        f"p{100 * raw_p:.4g} {raw_tail:.6g} s over calls",
        f"mean scalar call per batch size and round, in reference scalar loops: "
        f"p50 {result['latency_p50_ref']:.6g}, p{100 * p_tail:.4g} {tail:.6g} "
        f"over {len(scalar_ref)} samples",
        f"reference: vector sweep {statistics.median(u['ref_vector'] for u in plain):.6g} s, "
        f"scalar loop {statistics.median(u['ref_scalar'] for u in plain):.6g} s (medians)",
        f"eval_correct_digits = {result['correct_digits']:.6g} digits "
        f"(max relative error {tally.worst_error():.3g} over checked outputs)",
    ]
    return _finish(result, tally, report, tracer, units)


# -- experiments --------------------------------------------------------------


def experiment_ops(h):
    """(name, run, check) triples; check returns (ok, detail, exact errors).

    The exact errors map a checked quantity with a known exact value to the
    output's error in it (relative where the value is not 0); slacks such as
    goodman_check's excess or the margin above its lower bound are not errors.
    """
    import numpy as np

    import spirallike as sp

    pi = math.pi
    mixed = h["mixed"]

    def beta(fn):
        def run():
            trace = sp.beta_trace(fn)
            return trace, sp.estimate_max_jump(trace)

        def check(res):
            trace, est = res
            want = mixed.beta_at(trace.t_samples) - mixed.canonical_offset()
            atoms = [t for t, _ in mixed.atoms]
            cont = ~np.isin(trace.t_samples, atoms)
            e_trace = float(np.max(np.abs(trace.beta_values - want)[cont]))
            e_jump = abs(est.jump - mixed.max_jump())
            ok = e_trace <= 0.02 and e_jump <= 0.02
            detail = f"trace err {e_trace:.3g}, jump err {e_jump:.3g} (tol 0.02)"
            return ok, detail, {"trace": e_trace, "jump": e_jump / mixed.max_jump()}
        return run, check

    def growth():
        return sp.growth_exponent(h["koebe_l07"], r_schedule=sp.default_r_schedule(2, 8))

    def check_growth(rep):
        exponent = 2.0 * math.cos(h["koebe_l07"].angle.lam) ** 2
        diff = abs(rep.rows[-1][2] - exponent)
        return diff <= 0.05, f"|E - 2cos^2 lambda| = {diff:.3g} (tol 0.05)", {"E": diff / exponent}

    def ratio():
        return sp.hansen_ratio(h["counterexample"], 0.5, r_schedule=sp.default_r_schedule(2, 8))

    def check_ratio(rows):
        r = np.array([x for x, _ in rows])
        v = np.array([y for _, y in rows])
        increasing = bool(np.all(np.diff(v) > 0.0))
        factor = v[-1] / v[0]
        slope = float(np.polyfit(np.log(np.log(1.0 / (1.0 - r))), np.log(v), 1)[0])
        ok = increasing and factor > 1.5 and abs(slope - 0.5) <= 0.15
        return ok, f"increasing {increasing}, k8/k2 {factor:.3f}, slope {slope:.3f}", {}

    def check_margin(margin):
        bound = h["hansen_params"].margin_lower_bound()
        return margin >= bound - 1e-6, f"margin {margin:.6g} vs bound {bound:.6g}", {}

    def check_goodman(excess):
        return excess <= 1e-9, f"excess {excess:.3g} (tol 1e-9)", {}

    spacing = 2.0 * pi / 256

    def check_refine(res):
        err = abs(res[0] - pi)
        return err <= 0.03, f"|jump - pi| = {err:.3g} (tol 0.03)", {"jump": err / pi}

    def check_sector(sector):
        if sector is None:
            return False, "no sector", {}
        err = abs(sector.opening - pi)
        return err <= 0.02, f"|opening - pi| = {err:.3g} (tol 0.02)", {}

    def taylor(n):
        def check(coeffs):
            diff = np.abs(coeffs - np.arange(1, n + 1))
            err = float(np.max(diff))
            rel = float(np.max(diff / np.arange(1, n + 1)))
            return err <= 1e-8, f"max|a_n - n| = {err:.3g} (tol 1e-8)", {"a_n": rel}
        return (lambda: h["koebe"].taylor_coefficients(n)), check

    ops = [
        ("beta_trace.mixed_l0", *beta(h["mixed_l0"])),
        ("beta_trace.mixed_l07", *beta(h["mixed_l07"])),
        ("growth_exponent.koebe_l07", growth, check_growth),
        ("hansen_ratio.counterexample", ratio, check_ratio),
        ("spirallikeness_margin.hansen", lambda: sp.spirallikeness_margin(h["hansen"]), check_margin),
        ("goodman_check.g0", lambda: sp.goodman_check(h["g0"]), check_goodman),
    ]
    for k, fn in enumerate(h["atomic"]):
        ops.append((f"goodman_check.atomic{k}", lambda fn=fn: sp.goodman_check(fn), check_goodman))
    ops += [
        ("refine_jump.g0", lambda: sp.refine_jump(h["g0"], (-spacing, spacing)), check_refine),
        ("detect_maximal_sector.two_atom", lambda: sp.detect_maximal_sector(h["two_atom"]), check_sector),
        ("taylor_coefficients.koebe_n40", *taylor(40)),
        ("taylor_coefficients.koebe_n100", *taylor(100)),
    ]
    return ops


def experiment_pass(ops):
    results = []
    total = 0.0
    for name, run, check in ops:
        out, dt = _call(run)
        total += dt
        results.append((name, check, out, dt))
    return {"time": total, "results": results}


def run_experiments(seed, seconds, trace):
    import inputs
    import oracles
    import reference

    ops = experiment_ops(inputs.experiment_handles(seed))
    tally = Tally()
    tracer = _tracer(trace)
    units = []
    op_times = {name: [] for name, _, _ in ops}
    start = clock()
    while keep_going(units, start, seconds, trace):
        traced = trace and len(units) % 2 == 1
        before = reference.vector() + reference.scalar()
        unit = _traced(tracer, traced, experiment_pass, ops)
        unit["ref"] = 0.5 * (before + reference.vector() + reference.scalar())
        unit["traced"] = traced
        for name, check, out, dt in unit.pop("results"):
            if not traced:
                op_times[name].append(dt)
            if isinstance(out, Exception):
                tally.record(name, False, f"{type(out).__name__}: {out}")
                continue
            ok, detail, exact = check(out)
            if ok:
                for key, err in exact.items():
                    tally.error(err, f"{name}.{key}")
            tally.record(name, ok, detail)
        units.append(unit)
    plain = [u for u in units if not u["traced"]]
    passes = [u["time"] for u in plain]
    ratios = [u["time"] / u["ref"] for u in plain]
    p50 = statistics.median(ratios)
    p_tail, tail = stats.tail(ratios)
    result = {
        "latency_p50_ref": p50,
        "latency_tail_ref": tail,
        "throughput_per_ref": len(ops) / p50,
        # Mean over the checked quantities, so that every computation's
        # accuracy counts, not only the least accurate one's.
        "correct_digits": statistics.fmean(
            [oracles.digits(err) for err in tally.errors.values()] or [0.0]
        ),
    }
    report = [
        f"unit: one suite pass over {len(ops)} computations; n={len(passes)} passes",
        f"suite_pass_p50_s = {statistics.median(passes):.6g} s, "
        f"{p50:.6g} in reference sweeps+loops",
        f"suite_pass_tail_s = {stats.tail(passes)[1]:.6g} s (p{100 * p_tail:.4g}), "
        f"{tail:.6g} in reference sweeps+loops",
        f"reference: vector sweep + scalar loop {statistics.median(u['ref'] for u in plain):.6g} s (median)",
        "correct_digits: mean of " + ", ".join(
            f"{key} {oracles.digits(err):.4g}" for key, err in sorted(tally.errors.items())
        ),
    ]
    report += [f"  {name}: p50 {statistics.median(t):.6g} s" for name, t in op_times.items()]
    return _finish(result, tally, report, tracer, units)


# -- cli_cold -------------------------------------------------------------------

QUARTER_PI = repr(math.pi / 4)
PI = repr(math.pi)
# Subcommands and fixed arguments of one CLI cycle; the seed shuffles the
# order inside each cycle.
CLI_CALLS = {
    "eval": ["eval", "--gallery", "koebe", "--z", "0.5"],
    "verify": ["verify", "--gallery", "hansen", "--lambda", QUARTER_PI, "--A", PI],
    "growth": ["growth", "--gallery", "hansen", "--lambda", QUARTER_PI, "--A", PI, "--r-k", "2:8"],
    "beta": ["beta", "--gallery", "g0", "--lambda", "0.6"],
    "qtheta": ["qtheta"],
}
# verify's margin at the commit that defined the benchmark.
VERIFY_MARGIN = 0.219910298222131
CLI_TIMEOUT_S = 120


def _header_values(lines):
    out = {}
    for line in lines:
        if " = " in line:
            key, value = line.lstrip("# ").split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


def check_cli(name, rc, text):
    """(ok, detail, exact relative errors) for one CLI call's stdout."""
    lines = text.splitlines()
    if rc != 0:
        return False, f"exit code {rc}", []
    try:
        if name == "eval":
            f = complex(_header_values(lines)["f"].replace("i", "j"))
            err = abs(f - 2.0) / 2.0
            return err <= 1e-12, f"|f(1/2) - 2|/2 = {err:.3g}", [err]
        if name == "verify":
            margin = float(_header_values(lines)["margin"])
            rel = abs(margin - VERIFY_MARGIN) / VERIFY_MARGIN
            return margin > 0.0 and rel <= 1e-9, f"margin {margin!r}", []
        if name == "growth":
            head = _header_values(lines)
            rows = [list(map(float, line.split(","))) for line in lines[1:] if not line.startswith("#")]
            q0 = float(head["predicted_q0"])
            radii_ok = len(rows) == 7 and all(
                abs(r[0] - (1.0 - 10.0 ** -k)) <= 1e-15 for r, k in zip(rows, range(2, 9))
            )
            increasing = all(b[3] > a[3] for a, b in zip(rows, rows[1:]))
            flagged = any(line.startswith("# O-bound fails") for line in lines)
            err = abs(q0 - 0.5) / 0.5
            ok = radii_ok and increasing and flagged and err <= 1e-12
            return ok, f"{len(rows)} rows, q0 {q0!r}, increasing {increasing}", [err]
        if name == "beta":
            rows = [list(map(float, line.split(","))) for line in lines[1:]]
            finite = all(math.isfinite(v) for row in rows for v in row)
            ok = lines[0] == "t,beta_estimate" and len(rows) == 256 and finite
            return ok, f"{len(rows)} rows", []
        if name == "qtheta":
            head = _header_values(lines[:3])
            sup_q, c0 = float(head["sup_Q"]), float(head["C0"])
            n_rows = len(lines) - 4
            ok = (
                2.0 - 1e-3 <= sup_q <= 2.0 + 1e-9
                and abs(c0 - 2.0 * math.e**2) <= 1e-3
                and n_rows == 100000
                and lines[3] == "theta,Q"
            )
            return ok, f"sup_Q {sup_q!r}, C0 {c0!r}, {n_rows} rows", []
    except (KeyError, ValueError, IndexError) as exc:
        return False, f"unparsable output: {exc!r}", []
    raise ValueError(name)


def _cli_command(name, traced):
    if traced:
        return [sys.executable, str(BENCH_DIR / "cli_probe.py"), *CLI_CALLS[name]]
    return [sys.executable, "-m", "spirallike", *CLI_CALLS[name]]


def _run_process(cmd):
    t0 = clock()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S)
    return proc, clock() - t0


def run_cli_cold(seed, seconds, trace):
    import oracles
    import reference
    import tracer as tracing

    rng = random.Random(seed)
    tally = Tally()
    units = []
    calls = []  # (name, traced, seconds, reference seconds before the call)
    summaries = []
    probe = {"import_s": 0.0, "main_s": 0.0, "wall_s": 0.0}
    floor = []  # numpy import times of the reference processes before traced calls
    start = clock()
    while keep_going(units, start, seconds, trace):
        traced = trace and len(units) % 2 == 1
        order = list(CLI_CALLS)
        rng.shuffle(order)
        for name in order:
            ref, ref_import = reference.process(ROOT)
            if traced:
                floor.append(ref_import)
            proc, dt = _run_process(_cli_command(name, traced))
            calls.append((name, traced, dt, ref))
            ok, detail, exact = check_cli(name, proc.returncode, proc.stdout.decode())
            if ok:
                for err in exact:
                    tally.error(err)
            tally.record(name, ok, detail)
            if traced and proc.returncode == 0:
                info = json.loads(proc.stderr.decode().splitlines()[-1])
                summaries.append(info["summary"])
                probe["import_s"] += info["import_s"]
                probe["main_s"] += info["main_s"]
                probe["wall_s"] += dt
        units.append({"traced": traced})
    refs = [c[3] for c in calls] + [reference.process(ROOT)[0]]
    # Each call's time over the mean of the reference processes around it.
    calls = [(name, traced, dt, 0.5 * (refs[i] + refs[i + 1]))
             for i, (name, traced, dt, _) in enumerate(calls)]
    plain = [c for c in calls if not c[1]]
    ratios = [dt / ref for _, _, dt, ref in plain]
    n_calls = len(CLI_CALLS)
    p_tail, tail = stats.tail(ratios)
    result = {
        "latency_p50_ref": statistics.median(ratios),
        "latency_tail_ref": tail,
        # Every cycle is complete, so the mean weighs the subcommands equally;
        # over all calls it is steadier than a median over the few cycles.
        "throughput_per_ref": 1.0 / statistics.fmean(ratios),
        "correct_digits": oracles.digits(tally.worst_error()),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    raw = [dt for _, _, dt, _ in plain]
    report = [
        f"unit: one cycle of {n_calls} cold `python -m spirallike` processes, one at a time; "
        f"n={len(raw)} calls",
        f"cli_latency_p50_s = {statistics.median(raw):.6g} s, "
        f"{result['latency_p50_ref']:.6g} reference processes",
        f"cli_latency_tail_s = {stats.tail(raw)[1]:.6g} s (p{100 * p_tail:.4g}), "
        f"{tail:.6g} reference processes",
        f"reference: cold `python -c 'import numpy'` {statistics.median(refs):.6g} s (median)",
    ]
    for name in CLI_CALLS:
        ts = [dt for n, _, dt, _ in plain if n == name]
        report.append(f"  {name}: p50 {statistics.median(ts):.6g} s (n={len(ts)})")
    layers = None
    if trace:
        n_traced = sum(1 for u in units if u["traced"])
        merged = tracing.merge_summaries(summaries)
        cli_self = merged["layers"].get("cli", {}).get("self_s", 0.0)
        traced_ratios = [dt / ref for _, traced, dt, ref in calls if traced]
        processes = n_traced * n_calls
        extra = {
            "cli.import_s": probe["import_s"] / processes,
            "cli.import_floor_s": statistics.fmean(floor),
            "cli.compute_s": (probe["main_s"] - cli_self) / n_traced,
            "cli.startup_s": (probe["wall_s"] - probe["import_s"] - probe["main_s"]) / processes,
            "trace.overhead_share": statistics.median(traced_ratios) / statistics.median(ratios) - 1.0,
        }
        layers = tracing.layer_metrics(merged, n_traced, probe["wall_s"], extra)
        layers["trace.accounted_share"] = (
            probe["import_s"] / n_traced + layers["trace.layer_self_s"]
        ) / layers["trace.wall_s"]
    return _output(result, tally, report, layers)


# -- shared -------------------------------------------------------------------


def _tracer(trace):
    if not trace:
        return None
    import tracer as tracing

    return tracing.Tracer()


def _traced(tracer, traced, fn, *args):
    if not traced:
        return fn(*args)
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()


def _finish(result, tally, report, tracer, units):
    import tracer as tracing

    result["peak_rss_mb"] = peak_rss_mb()
    layers = None
    if tracer is not None:
        traced = [u for u in units if u["traced"]]
        wall = sum(u["time"] for u in traced)
        extra = {
            "cli.import_s": 0.0,
            "cli.import_floor_s": 0.0,
            "cli.compute_s": 0.0,
            "cli.startup_s": 0.0,
            "trace.overhead_share": unit_overhead(units),
        }
        layers = tracing.layer_metrics(tracer.summary(), len(traced), wall, extra)
        layers["trace.accounted_share"] = layers["trace.layer_self_s"] / layers["trace.wall_s"]
    return _output(result, tally, report, layers)


def _output(result, tally, report, layers):
    result["ok_share"] = 1.0 - tally.failed / tally.attempted
    return {
        "metrics": result,
        "per_layer": layers,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "report": report,
    }


WORKLOADS = {
    "cli_cold": run_cli_cold,
    "eval_kernel": run_eval_kernel,
    "experiments": run_experiments,
}


def setup(workload, seed):
    """What a workload builds before its first timed operation."""
    if workload == "cli_cold":
        import spirallike.cli  # noqa: F401
    elif workload == "eval_kernel":
        import inputs

        inputs.kernel_inputs(seed)
    else:
        import inputs

        experiment_ops(inputs.experiment_handles(seed))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.workload, args.seed)
        return
    import spirallike

    where = Path(spirallike.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"spirallike imported from {where}, not from this checkout's src/")
    out = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
