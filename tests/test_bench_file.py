"""perf/bench_file.py: a BENCH file holds the verdicts bench/compare.py prints.

Both read the same checked-in pairs of benchmark run sets.  The script
imports compare.py's pairing and verdict rule; this test runs each in its
own process and reads compare.py's printed table, so a difference in which
runs are paired, which metrics are judged or how the medians are taken
shows here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_file(name, tmp_path):
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(ROOT / "perf" / "bench_file.py"), name, str(out)],
                   check=True, cwd=ROOT)
    return json.loads(out.read_text(encoding="utf-8"))


def _compare_table(name):
    """{(workload, metric): (parent median, change median, wins, pairs, verdict)}.

    compare.py's untraced rows, with the medians as it prints them (6 digits).
    """
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"),
         str(ROOT / "perf" / f"{name}_parent.jsonl"), str(ROOT / "perf" / f"{name}_change.jsonl")],
        capture_output=True, text=True, cwd=ROOT,
    ).stdout
    table = {}
    for line in out.splitlines()[1:]:
        if line.startswith("#"):
            continue
        fields = line.split()
        workload, trace, metric = fields[:3]
        wins, pairs = fields[-2].split("/")
        if trace == "0":
            table[workload, metric] = (fields[3], fields[-3], int(wins), int(pairs), fields[-1])
    return table


@pytest.mark.parametrize("name", ["gc_freeze", "log_route"])
def test_bench_file_reproduces_compare_verdicts(name, tmp_path):
    report = _bench_file(name, tmp_path)
    got = {
        (r["workload"], r["metric"]): (
            f"{r['parent']['p50']:.6g}", f"{r['change']['p50']:.6g}",
            r["wins"], r["pairs"], r["verdict"],
        )
        for r in report["end_to_end"]
    }
    want = _compare_table(name)
    assert len(want) == 21 and got == want
    assert all(r["parent"]["p25"] <= r["parent"]["p50"] <= r["parent"]["p75"]
               for r in report["end_to_end"])
    assert report["source"]["runtime_dependencies"] == ["numpy"]
    assert report["pair"]["parent"] == f"perf/{name}_parent.jsonl"
