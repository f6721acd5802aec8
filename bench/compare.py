"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds lines written by `bench/run.py --record FILE`.  Runs are
paired by (workload, trace, seed), so make both sets with the same seeds and
alternate which side runs first.  For each workload and metric the verdict
is:

- better: at least 10 pairs, the change wins at least 9/10 of them (ties
  count for neither side), and the medians differ in its favour by more
  than the parent's interquartile spread;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (per-layer metrics, which have no bound: by more than the
  parent's spread, losing 9/10 of the pairs), while the parent's own spread
  is within the bound;
- unchanged: neither, with the parent's spread within the bound, or every
  change run better than every parent run;
- unresolved: fewer than 10 pairs, or a spread too wide to tell.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    runs = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[rec["workload"], rec["trace"]][rec["seed"]] = rec
    return runs


def verdict(parent, change, better, bound):
    """Classify paired samples (parent[i], change[i]) of one metric."""
    n = len(parent)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if n < MIN_PAIRS:
        return "unresolved", wins, losses
    q1, median, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    gain = sign * (statistics.median(change) - median)
    scale = abs(median)
    if wins >= WIN_SHARE * n and gain > spread:
        return "better", wins, losses
    if bound is None:
        if losses >= WIN_SHARE * n and -gain > spread:
            return "worse", wins, losses
        return ("unchanged" if abs(gain) <= spread else "unresolved"), wins, losses
    resolved = spread <= bound * scale
    if -gain > bound * scale:
        return ("worse" if resolved else "unresolved"), wins, losses
    everywhere = min(sign * c for c in change) > max(sign * p for p in parent)
    return ("unchanged" if resolved or everywhere else "unresolved"), wins, losses


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent_runs, change_runs = load(args.parent), load(args.change)
    counts = defaultdict(int)
    print(f"{'workload':<12} {'trace':>5} {'metric':<40} {'parent median [q1, q3]':>36} "
          f"{'change median':>14} {'wins':>7} verdict")
    for key in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[key]) & set(change_runs[key]))
        pairs = [(parent_runs[key][s], change_runs[key][s]) for s in seeds]
        first = sum(p["started"] < c["started"] for p, c in pairs)
        workload, trace = key
        print(f"# {workload} trace {trace}: {len(pairs)} pairs, parent ran first in {first}")
        names = pairs[0][0]["result"]["metrics"] if pairs else {}
        for name in names:
            meta = declared.get(name)
            if meta is None:
                continue
            p = [a["result"]["metrics"][name]["value"] for a, _ in pairs]
            c = [b["result"]["metrics"][name]["value"] for _, b in pairs]
            result, wins, losses = verdict(p, c, meta["better"], meta.get("bound"))
            counts[result] += 1
            if len(p) >= 2:
                q1, med, q3 = statistics.quantiles(p, n=4)
                shown = f"{med:.6g} [{q1:.4g}, {q3:.4g}]"
            else:
                shown = f"{p[0]:.6g}"
            print(f"{workload:<12} {trace:>5} {name:<40} {shown:>36} "
                  f"{statistics.median(c):>14.6g} {wins:>3}/{len(p):<3} {result}")
    print("# " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
