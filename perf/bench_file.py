"""Write a BENCH_<n>.json file from one checked-in pair of benchmark run sets.

    python perf/bench_file.py NAME OUT

NAME names the pair perf/NAME_parent.jsonl and perf/NAME_change.jsonl, each
written by `bench/run.py --record`.  The runs are paired and judged by
`load` and `verdict`, imported from bench/compare.py, so the file holds the
verdicts that `python3 bench/compare.py` prints for the pair.  OUT gets one
JSON object:

- pair: the two files and, per workload and trace flag, the paired seeds and
  how many pairs the parent ran first;
- end_to_end: per untraced workload and end-to-end metric of BENCHMARK.json,
  the parent's and the change's median and quartiles, the change's wins and
  losses, the number of pairs and the verdict;
- per_layer: how many traced pairs the files hold.  Their values are not
  summarised here;
- machine: the machine facts of the first parent and change record;
- source: perf/src_lines.py's counts for the repository's src/: physical
  and code lines, public names, public methods and runtime dependencies.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
REPO = PERF.parent
sys.path[:0] = [str(REPO / "bench"), str(PERF)]

import src_lines  # noqa: E402
from compare import load, verdict  # noqa: E402


def quartiles(values):
    """{"p25", "p50", "p75"} of values, by the rule bench/compare.py prints them with."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"p25": q1, "p50": q2, "p75": q3}


def summary(name):
    """The BENCH object of the pair perf/NAME_{parent,change}.jsonl, as a dict."""
    files = {side: PERF / f"{name}_{side}.jsonl" for side in ("parent", "change")}
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"]}
    parent_runs, change_runs = load(files["parent"]), load(files["change"])
    pairs, rows, traced, machine = [], [], 0, {}
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        seeds = sorted(set(parent_runs[key]) & set(change_runs[key]))
        runs = [(parent_runs[key][s], change_runs[key][s]) for s in seeds]
        pairs.append({
            "workload": workload, "trace": trace, "seeds": seeds,
            "parent_first": sum(p["started"] < c["started"] for p, c in runs),
        })
        machine = machine or {"parent": runs[0][0]["machine"], "change": runs[0][1]["machine"]}
        if trace:
            traced += len(runs)
            continue
        for metric in runs[0][0]["result"]["metrics"]:
            meta = declared.get(metric)
            if meta is None:
                continue
            p = [a["result"]["metrics"][metric]["value"] for a, _ in runs]
            c = [b["result"]["metrics"][metric]["value"] for _, b in runs]
            result, wins, losses = verdict(p, c, meta["better"], meta.get("bound"))
            rows.append({
                "workload": workload, "metric": metric, "unit": meta["unit"],
                "better": meta["better"], "bound": meta.get("bound"),
                "parent": quartiles(p), "change": quartiles(c),
                "wins": wins, "losses": losses, "pairs": len(runs), "verdict": result,
            })
    return {
        "pair": {side: str(path.relative_to(REPO)) for side, path in files.items()}
        | {"runs": pairs},
        "end_to_end": rows,
        "per_layer": {"traced_pairs": traced, "summarised": False},
        "machine": machine,
        "source": src_lines.count(REPO / "src"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("name")
    parser.add_argument("out")
    args = parser.parse_args(argv)
    text = json.dumps(summary(args.name), indent=2) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
