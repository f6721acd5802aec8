"""CLI surface: argument parsing, output contracts, exit codes.

Exit code contract: 0 success, 1 failed verification, 2 invalid input,
3 numeric domain violation, 4 accuracy not met.  Everything runs through
cli.main(argv) so the tests observe exactly what a shell would.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spirallike import (
    STARLIKE,
    BoundaryMeasure,
    HansenParams,
    MeasureFunction,
    SpiralAngle,
    beta_trace,
    counterexample_for,
    default_r_schedule,
    growth_exponent,
    hansen_build,
    hansen_ratio,
    q_function,
    spirallike_of,
)
from spirallike import cli, formatting
from spirallike.cli import _build_parser, main, parse_complex, parse_r_schedule
from spirallike.errors import ConfigError
from spirallike.gallery import DEFAULT_C
from spirallike.threshold import _SUP_Q, DEFAULT_C0, _q_table

PI = math.pi


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- parsers -------------------------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("3") == 3 + 0j
    assert parse_complex(" 0.25 + 0.1 i ") == 0.25 + 0.1j
    assert parse_complex("1e-3-2I") == 1e-3 - 2j


def test_parse_complex_rejects_garbage():
    for bad in ("abc", "1+2k", "nan", "inf+0i", ""):
        with pytest.raises(ConfigError):
            parse_complex(bad)


def test_parse_r_schedule():
    assert parse_r_schedule("2:8") == (2, 8)
    with pytest.raises(ConfigError):
        parse_r_schedule("2-8")
    with pytest.raises(ConfigError):
        parse_r_schedule("a:b")


@pytest.mark.parametrize("schedule", ["3:2", "2:13"])
def test_r_schedule_out_of_order_or_range_exits_2(capsys, schedule):
    rc, out, err = run(capsys, "growth", "--gallery", "koebe", "--r-k", schedule)
    assert (rc, out) == (2, "")
    assert err == f"error: r-schedule exponents need 0 < k_min < k_max <= 12, got {schedule}\n"


# -- eval -----------------------------------------------------------------------


def test_eval_koebe_values(capsys):
    rc, out, _ = run(capsys, "eval", "--gallery", "koebe", "--z", "0.5+0i")
    assert rc == 0
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert complex(fields["f"].replace("i", "j")) == pytest.approx(2.0, abs=1e-12)
    assert complex(fields["log_derivative"].replace("i", "j")) == pytest.approx(3.0, abs=1e-12)
    assert float(fields["arg_lambda_f_over_z"]) == pytest.approx(0.0, abs=1e-12)


def test_eval_identity_json(capsys):
    rc, out, _ = run(
        capsys, "eval", "--gallery", "identity", "--lambda", "0.5",
        "--z", "0.3+0.4i", "--format", "json",
    )
    assert rc == 0
    d = json.loads(out)
    assert d["f"] == pytest.approx([0.3, 0.4], abs=1e-12)
    assert d["log_f_over_z"] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert d["log_derivative"] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_eval_g0_value(capsys):
    rc, out, _ = run(capsys, "eval", "--gallery", "g0", "--z", "0.5+0i", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,re,im"
    row = dict((ln.split(",")[0], ln.split(",")[1:]) for ln in lines[1:])
    assert float(row["f"][0]) == pytest.approx(2 * math.log(2), abs=1e-12)


def test_eval_arg_lambda_is_the_continuous_branch(capsys):
    # f/z of the Hansen handle winds near z = 1: the principal spiral
    # argument of f(0.999)/0.999 is -2*pi, the branch pinned at the center 0
    argv = ("eval", "--gallery", "hansen", "--lambda", "0.7853981633974483", "--z", "0.999")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert fields["arg_lambda_f_over_z"] == "0"
    params = HansenParams(alpha=1.0, beta_exp=1.0, c=DEFAULT_C)
    fn = spirallike_of(hansen_build(params), SpiralAngle(0.7853981633974483))
    assert fn.arg_lambda_f_over_z(0.999) == 0.0


@pytest.mark.parametrize("gallery", ["koebe", "identity", "g0", "hansen"])
def test_eval_every_gallery_entry_at_lambda_07(capsys, gallery):
    rc, out, _ = run(capsys, "eval", "--gallery", gallery, "--lambda", "0.7", "--z", "0.5")
    assert rc == 0
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert list(fields) == ["f", "log_f_over_z", "log_derivative", "arg_lambda_f_over_z"]
    f, log_f_over_z, log_derivative = (
        complex(fields[k].replace("i", "j")) for k in ("f", "log_f_over_z", "log_derivative")
    )
    assert all(np.isfinite([f, log_f_over_z, log_derivative]))
    assert f == pytest.approx(0.5 * np.exp(log_f_over_z), rel=1e-13)


def test_eval_csv_shape(capsys):
    rc, out, _ = run(capsys, "eval", "--gallery", "koebe", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,re,im"
    assert len(lines) == 5
    assert out.endswith("\n")


# -- verify ------------------------------------------------------------------------


def test_verify_koebe_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--gallery", "koebe")
    assert rc == 0
    assert out.startswith("margin = ")
    assert float(out.split("=")[1]) > 0.0


def test_verify_hansen_counterexample_passes(capsys):
    rc, out, _ = run(
        capsys, "verify", "--gallery", "hansen", "--lambda", str(PI / 4),
        "--A", str(PI),
    )
    assert rc == 0
    assert float(out.split("=")[1]) > 0.2


def test_verify_g0_margin_meets_criterion_6(capsys):
    # criterion 6's bound 1/(2 log 2) - 1/2 = 0.2213475..., from the CLI
    rc, out, _ = run(capsys, "verify", "--gallery", "g0")
    assert rc == 0
    assert float(out.split("=")[1]) >= 0.2213475


def test_verify_lambda_selects_construction_angle(capsys):
    # --lambda changes the built function, which is then spirallike at that
    # inclination by construction; the margin shrinks but stays positive
    rc, out, _ = run(capsys, "verify", "--gallery", "koebe", "--lambda", "1.2")
    assert rc == 0
    assert 0.0 < float(out.split("=")[1]) < 0.01


def test_verify_nonpositive_margin_exits_1(capsys, monkeypatch):
    # every valid measure yields a spirallike function, so a failing margin
    # only arises from numerical breakage; force one to pin the exit code
    # verify imports the margin from its defining module when it runs
    import spirallike.analysis as analysis

    monkeypatch.setattr(analysis, "spirallikeness_margin", lambda *a, **k: -0.25)
    rc, out, _ = run(capsys, "verify", "--gallery", "koebe")
    assert rc == 1
    assert float(out.split("=")[1]) == -0.25


def test_verify_non_finite_margin_exits_3(capsys, monkeypatch):
    # a kernel that yields NaN once printed "margin = nan" and exited 1
    monkeypatch.setattr(
        MeasureFunction, "_log_derivative_excess",
        lambda self, z: np.full(z.shape, complex(np.nan, 0.0)),
    )
    rc, out, err = run(capsys, "verify", "--gallery", "koebe")
    assert rc == 3
    assert out == ""
    assert "not finite" in err


def test_eval_non_finite_kernel_value_exits_3(capsys, monkeypatch):
    # eval once printed nan values and exited 0
    monkeypatch.setattr(
        MeasureFunction, "_log_g_over_z",
        lambda self, z: np.full(z.shape, complex(np.nan, 0.0)),
    )
    rc, out, err = run(capsys, "eval", "--gallery", "koebe", "--z", "0.5")
    assert rc == 3
    assert out == ""
    assert "not finite at z = (0.5+0j)" in err


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "--gallery", "identity", "--format", "json")
    assert rc == 0
    d = json.loads(out)
    assert d["margin"] == pytest.approx(1.0, abs=1e-12)


# -- beta --------------------------------------------------------------------------


def test_beta_identity_csv(capsys):
    rc, out, _ = run(capsys, "beta", "--gallery", "identity", "--t-grid", "32")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,beta_estimate"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 32
    for t, b in rows:
        assert b == pytest.approx(t, abs=1e-9)


def test_beta_koebe_staircase(capsys):
    rc, out, _ = run(capsys, "beta", "--gallery", "koebe", "--t-grid", "64")
    assert rc == 0
    rows = [tuple(map(float, ln.split(","))) for ln in out.strip().splitlines()[1:]]
    assert rows[0][1] == pytest.approx(0.0, abs=1e-6)
    mid = [b for t, b in rows if 0.5 < t < 5.8]
    assert np.max(np.abs(np.array(mid) - PI)) < 5e-3


def test_beta_two_atom_staircase_matches_beta_at(tmp_path, capsys):
    m = BoundaryMeasure.from_atoms([(1.0, 1.0), (4.0, 3.0)])
    p = tmp_path / "m.json"
    p.write_text(json.dumps(m.to_json_dict()))
    rc, out, _ = run(capsys, "beta", "--measure", str(p), "--t-grid", "128")
    assert rc == 0
    rows = np.array([[float(x) for x in ln.split(",")] for ln in out.strip().splitlines()[1:]])
    want = m.beta_at(rows[:, 0]) - m.canonical_offset()
    err = np.abs(rows[:, 1] - want)
    away = np.ones(len(rows), dtype=bool)
    for pos in (1.0, 4.0):
        away &= np.abs(rows[:, 0] - pos) > 0.2
    assert np.max(err[away]) < 5e-3


def test_beta_json_radius(capsys):
    rc, out, _ = run(
        capsys, "beta", "--gallery", "identity", "--t-grid", "16",
        "--r-k", "2:3", "--format", "json",
    )
    assert rc == 0
    d = json.loads(out)
    assert d["radius_used"] == pytest.approx(0.999)
    assert len(d["t"]) == 16 and len(d["beta_estimate"]) == 16


# -- growth -------------------------------------------------------------------------


def test_growth_koebe_no_flag(capsys):
    rc, out, _ = run(capsys, "growth", "--gallery", "koebe")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,M,E,ratio"
    assert "# predicted_q0 = 2" in out
    assert "# a_estimate = 6.28318530717959" in out
    assert "O-bound fails" not in out
    last = lines[-3].split(",")  # last data row before the summary comments
    assert float(last[2]) == pytest.approx(2.0, abs=0.05)


def test_growth_counterexample_flags_failure(capsys):
    rc, out, _ = run(
        capsys, "growth", "--gallery", "hansen", "--lambda", str(PI / 4),
        "--A", str(PI),
    )
    assert rc == 0
    assert "# O-bound fails: ratio column increases without settling" in out
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:-3]]
    ratios = [float(r[3]) for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 1.5 * ratios[0]


def test_growth_identity_near_zero_exponent(capsys):
    rc, out, _ = run(
        capsys, "growth", "--gallery", "identity", "--r-k", "2:4",
    )
    assert rc == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:-2]]
    for row in rows:
        # E = log(r)/log(1/(1-r)) is about -2e-3 at r = 0.99 and shrinks
        assert abs(float(row[2])) < 0.01  # E column


def test_growth_two_radii(capsys):
    # --r-k 2:3 parses to two radii, and growth needs no third
    rc, out, _ = run(capsys, "growth", "--gallery", "koebe", "--r-k", "2:3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,M,E,ratio"
    assert [ln.split(",")[0] for ln in lines[1:3]] == ["0.99", "0.999"]
    assert lines[3].startswith("#")


def test_growth_json(capsys):
    rc, out, _ = run(
        capsys, "growth", "--gallery", "koebe", "--r-k", "2:4", "--format", "json",
    )
    assert rc == 0
    d = json.loads(out)
    assert d["predicted_q0"] == pytest.approx(2.0)
    assert not d["o_bound_fails"]
    assert len(d["rows"]) == 3


# -- qtheta -------------------------------------------------------------------------


def test_qtheta_summary(capsys):
    rc, out, _ = run(capsys, "qtheta", "--qtheta-grid", "2000")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# sup_Q = ")
    assert float(lines[0].split("=")[1]) == pytest.approx(2.0, abs=1e-5)
    assert float(lines[1].split("=")[1]) == pytest.approx(2 * math.e**2, abs=1e-3)
    assert lines[2] == "# monotone_decreasing = true"
    assert lines[3] == "theta,Q"
    assert len(lines) == 4 + 2000


def test_qtheta_json_reports_exact_sup_and_c0(capsys):
    # sup Q is the limit 2 at 0+ and C0 = 2 e^2, not grid estimates
    rc, out, _ = run(capsys, "qtheta", "--format", "json", "--qtheta-grid", "1000")
    assert rc == 0
    report = json.loads(out)
    assert report["sup_q"] == 2.0
    assert report["c0"] == 2 * math.exp(2.0)
    assert report["monotone"] is True
    assert len(report["rows"]) == 1000


def test_python_m_prints_the_default_qtheta_table_byte_for_byte():
    # `python -m spirallike` runs the CLI and exits with its code; the
    # default table's 100,000 rows are each "%.15g" formatting
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cold = subprocess.run(
        [sys.executable, "-m", "spirallike", "qtheta"], env=env, capture_output=True, check=True
    )
    theta, values, monotone = _q_table(100000)
    head = "# sup_Q = %.15g\n# C0 = %.15g\n# monotone_decreasing = %s\ntheta,Q\n"
    text = head % (_SUP_Q, DEFAULT_C0, str(monotone).lower())
    text += "".join("%.15g,%.15g\n" % row for row in zip(theta.tolist(), values.tolist()))
    assert cold.stdout == text.encode()
    assert cold.stderr == b""
    refused = subprocess.run(
        [sys.executable, "-m", "spirallike", "qtheta", "--qtheta-grid", "100"],
        env=env, capture_output=True,
    )
    assert refused.returncode == 2


# -- file IO and exit codes ------------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.csv"
    rc, out, _ = run(
        capsys, "eval", "--gallery", "koebe", "--format", "csv", "--out", str(target)
    )
    assert rc == 0
    assert out == ""
    assert target.read_text().startswith("quantity,re,im")


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.txt"
    rc, out, err = run(capsys, "eval", "--gallery", "koebe", "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.parent.exists()


def test_measure_file_roundtrip(tmp_path, capsys):
    m = BoundaryMeasure.from_atoms([(0.0, 2.0), (2.0, 1.0)], uniform_density_mass=1.0)
    p = tmp_path / "m.json"
    p.write_text(json.dumps(m.to_json_dict()))
    rc, out, _ = run(capsys, "verify", "--measure", str(p), "--lambda", "0.4")
    assert rc == 0
    assert float(out.split("=")[1]) > 0.0


def test_invalid_measure_exits_2_with_itemized_errors(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"atoms": [{"t": 0.0, "jump": 1.0}], "density_knots": []}))
    rc, _, err = run(capsys, "verify", "--measure", str(p))
    assert rc == 2
    assert "total mass" in err


@pytest.mark.parametrize(
    "content",
    [b'{"atoms": 5}', b'{"atoms": true}', b'{"density_knots": 3.5}', b"\xff\xfe{",
     b"[" * 100_000 + b"]" * 100_000,
     b'{"atoms": [{"t": false, "jump": 6.283185307179586}]}',
     b'{"atoms": [{"t": "0", "jump": "6.283185307179586"}]}',
     b'{"density_knots": [{"t": 0, "value": true}]}',
     b'{"atoms": [{"t": 0, "jump": 6.283185307179586, "typo": 1}]}'],
    ids=["atoms-int", "atoms-bool", "knots-float", "not-utf8", "too-deep",
         "t-bool", "numeric-strings", "value-bool", "entry-typo"],
)
def test_malformed_measure_spec_exits_2(tmp_path, capsys, content):
    p = tmp_path / "m.json"
    p.write_bytes(content)
    rc, out, err = run(capsys, "eval", "--measure", str(p))
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_unreadable_measure_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, "eval", "--measure", str(tmp_path / "nope.json"))
    assert rc == 2
    assert "cannot read" in err


def test_exit_codes():
    assert main(["eval", "--gallery", "koebe", "--z", "abc"]) == 2  # parse failure
    assert main(["eval", "--gallery", "nope"]) == 2  # bad choice via argparse
    assert main(["eval"]) == 2  # no measure or gallery
    assert main(["eval", "--gallery", "koebe", "--z", "2+0i"]) == 3  # outside disk
    assert main(["eval", "--gallery", "koebe", "--lambda", "2.0"]) == 2  # bad lambda
    assert main(["verify", "--gallery", "koebe", "--r-max", "1.5"]) == 2
    assert main(["beta", "--gallery", "identity", "--t-grid", "8"]) == 2
    assert main(["qtheta", "--qtheta-grid", "100"]) == 2
    assert main(["qtheta", "--qtheta-grid", "1000001"]) == 2
    assert main(["eval", "--gallery", "hansen", "--A", "x"]) == 2  # not a number
    assert main(["--help"]) == 0
    assert main(["eval", "--help"]) == 0
    assert main([]) == 2  # missing subcommand


@pytest.mark.parametrize(
    "argv,message",
    [
        (["qtheta", "--qtheta-grid", "1000000000000"],
         "error: --qtheta-grid must lie in [1000, 1000000], got 1000000000000"),
        (["beta", "--gallery", "koebe", "--t-grid", "1000000000000"],
         "error: --t-grid must lie in [16, 1000000], got 1000000000000"),
    ],
    ids=["qtheta", "beta"],
)
def test_oversized_grid_exits_2_naming_the_bound(capsys, argv, message):
    # argparse refuses the size before any array is allocated
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [message]


def test_removed_noop_flags_exit_2(capsys, tmp_path):
    assert main(["eval", "--gallery", "koebe", "--threads", "2"]) == 2
    assert main(["eval", "--gallery", "koebe", "--quadrature-nodes", "64"]) == 2
    assert main(["verify", "--gallery", "koebe", "--grid-r", "48"]) == 2
    assert main(["verify", "--gallery", "koebe", "--grid-theta", "512"]) == 2
    assert main(["growth", "--gallery", "koebe", "--coarse", "64"]) == 2
    # qtheta builds no function, so it takes none of the function flags
    for flag, value in (
        ("--measure", "m.json"), ("--gallery", "koebe"), ("--lambda", "0.3"),
        ("--beta-exp", "2"), ("--c", "0.2"), ("--A", "2"),
    ):
        assert main(["qtheta", "--qtheta-grid", "1000", flag, value]) == 2
    # flags that would change nothing: a --measure next to a --gallery, a
    # hansen parameter with any other function, and csv from verify
    spec = tmp_path / "koebe.json"
    spec.write_text(json.dumps({"atoms": [{"t": 0.0, "jump": 2 * PI}]}))
    calls = [["eval", "--measure", str(spec), "--gallery", "g0"],
             ["verify", "--gallery", "koebe", "--format", "csv"]]
    for source in (["--gallery", "koebe"], ["--gallery", "g0"], ["--measure", str(spec)]):
        for flag, value in (("--A", "2"), ("--beta-exp", "2"), ("--c", "0.2")):
            calls.append(["eval", *source, flag, value])
    for argv in calls:
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert "error: " in err and "Traceback" not in err, argv
    rc, _, err = run(capsys, "eval", "--gallery", "koebe", "--A", "2", "--c", "0.2")
    assert err == "error: only --gallery hansen takes --A, --c\n"
    # --A is the one way to set the hansen exponent (alpha = A/pi), so
    # --alpha is an unknown flag: argparse's usage error, no traceback
    rc, out, err = run(capsys, "eval", "--gallery", "hansen", "--alpha", "1.0")
    assert (rc, out) == (2, "")
    assert err.startswith("usage: spirallike ")
    assert err.endswith("spirallike: error: unrecognized arguments: --alpha 1.0\n")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags,kwargs",
    [((), {"A": PI}),
     (("--A", "2", "--beta-exp", "2", "--c", "0.2"), {"A": 2.0, "beta_exp": 2.0, "c": 0.2})],
    ids=["defaults", "A-beta-exp-c"],
)
def test_cli_hansen_is_counterexample_for(flags, kwargs):
    # the CLI's hansen entry is counterexample_for, bit for bit
    args = _build_parser().parse_args(["eval", "--gallery", "hansen", "--lambda", "0.7", *flags])
    z = np.array([0.0, 0.25, -0.5 + 0.5j, 0.9j, 0.999, 0.7 - 0.7j])
    got = cli.build_function(args).log_f_over_z(z)
    want = counterexample_for(SpiralAngle(0.7), **kwargs).log_f_over_z(z)
    np.testing.assert_array_equal(got, want)


# -- parser ------------------------------------------------------------------------

COMMANDS = ("eval", "verify", "beta", "growth", "qtheta")


@pytest.mark.parametrize(
    "argv",
    [["--help"], *([name, "--help"] for name in COMMANDS),
     # every exit-2 path of the parser: no, an unknown or a misplaced
     # subcommand, an unknown flag before or after it, a bad choice, value or
     # pair, a function flag to qtheta, and a format the subcommand lacks
     [], ["nope"], ["--bogus", "eval"], ["growth", "eval"], ["eval", "--bogus"],
     ["eval", "--gallery", "nope"], ["eval", "--gallery", "koebe", "--z", "abc"],
     ["eval", "--gallery", "koebe", "--z"], ["eval", "--lambda", "2.0"],
     ["eval", "--measure", "m.json", "--gallery", "g0"],
     ["eval", "--gallery", "hansen", "--A", "x"],
     ["verify", "--r-max", "1.5"], ["verify", "--format", "csv"],
     ["beta", "--t-grid", "8"], ["beta", "--t-grid", "x"], ["growth", "--r-k", "3:2"],
     ["qtheta", "--gallery", "koebe"], ["qtheta", "--qtheta-grid", "100"]],
    ids=lambda argv: " ".join(argv) or "no-argv",
)
def test_help_and_parse_errors_match_a_full_build(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, bool(out), bool(err)) == ((0, True, False) if "--help" in argv else (2, False, True))


def table_lines(header, rows):
    return [header] + [",".join(f"{x:.15g}" for x in row) for row in rows]


def test_csv_tables_match_per_row_formatting(capsys):
    # each table row is the library's values, each formatted as f"{x:.15g}"
    koebe = MeasureFunction(BoundaryMeasure.single_atom(), STARLIKE)
    trace = beta_trace(koebe, t_grid=64, r_schedule=default_r_schedule(2, 6))
    rc, out, _ = run(capsys, "beta", "--gallery", "koebe", "--t-grid", "64", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == table_lines(
        "t,beta_estimate", zip(trace.t_samples, trace.beta_values)
    )

    fn = counterexample_for(SpiralAngle(PI / 4), PI)
    schedule = default_r_schedule(2, 5)
    report = growth_exponent(fn, r_schedule=schedule)
    ratios = hansen_ratio(fn, report.predicted_q0, r_schedule=schedule)
    rc, out, _ = run(
        capsys, "growth", "--gallery", "hansen", "--lambda", str(PI / 4), "--A", str(PI),
        "--r-k", "2:5",
    )
    assert rc == 0
    rows = [(r, M, E, ratio) for (r, M, E), (_, ratio) in zip(report.rows, ratios)]
    assert out.splitlines()[: len(rows) + 1] == table_lines("r,M,E,ratio", rows)

    theta = np.linspace(0.0, PI / 2.0, 1002)[1:-1]
    rc, out, _ = run(capsys, "qtheta", "--qtheta-grid", "1000")
    assert rc == 0
    lines = out.splitlines()
    assert lines[:2] == [f"# sup_Q = {_SUP_Q:.15g}", f"# C0 = {DEFAULT_C0:.15g}"]
    assert lines[3:] == table_lines("theta,Q", zip(theta, q_function(theta)))


def exact_ties():
    """Doubles whose decimal expansion has 16 significant digits, the last a 5.

    (2m + 1) * 2^-j has j decimals ending in 5: next to a 16 - j digit
    integer part, in [0.01, 0.1) at j = 17 and in [1e-4, 1e-3) at j = 19.
    """
    ties = [(10 ** (16 - j) // 7 * 2**j + 2 * m + 1) / 2**j for j in range(1, 7) for m in (0, 1)]
    ties += [m * 2.0**-17 for m in (1311, 1313, 8191, 13105)]
    ties += [m * 2.0**-19 for m in (53, 55, 257, 523)]
    return [x for t in ties for x in (t, -t)]


# cells where "%.15g" changes notation, rounds across a power of ten, or
# sits on a tie; zeros, non-finite values and subnormals
EDGE_CELLS = [
    1e-4, 9.99999999999999e-5, 0.00099999999999999995, 999999999999999.4,
    999999999999999.9, 1e15, 123456789012345.5, 0.0, -0.0, math.nan, math.inf, -math.inf,
    5e-324, 2.2250738585072014e-308, -1e-310, 1.0, 10.0, 1e14, 0.1, 0.5, 1e300,
    *[np.nextafter(10.0**k, side) for k in range(-5, 17) for side in (0.0, math.inf)],
    *[float(f"999999999999999e{k}") for k in range(-19, 1)],  # where log10 may round up to k + 15
    *exact_ties(),
]


def per_cell_table(header, columns):
    return "\n".join(table_lines(header, zip(*columns))) + "\n"


def test_exact_ties_are_ties():
    # |x| * 10^(14 - e) is an integer plus exactly 1/2
    from fractions import Fraction

    for x in exact_ties():
        scaled = abs(Fraction(x)) * Fraction(10) ** (14 - math.floor(math.log10(abs(x))))
        assert scaled.denominator == 2, x


cells = st.one_of(st.floats(), st.floats(allow_subnormal=True, max_value=1e-300, min_value=-1e-300),
                  st.sampled_from(EDGE_CELLS))


@given(st.integers(1, 4).flatmap(
    lambda ncols: st.lists(st.lists(cells, min_size=ncols, max_size=ncols), min_size=1, max_size=13)
))
def test_table_matches_per_cell_formatting(rows):
    # blocks of 5 rows, so that most tables cross a block boundary
    columns = [np.array(col) for col in zip(*rows)]
    with mock.patch.object(formatting, "_CHUNK_ROWS", 5):
        assert "".join(formatting.csv_blocks("h", *columns)) == per_cell_table("h", columns)


@pytest.mark.parametrize("ncols", [1, 2, 3, 4])
def test_table_across_full_blocks_matches_per_cell_formatting(ncols):
    rng = np.random.default_rng(ncols)
    n = (formatting._CHUNK_ROWS + 3) * ncols
    values = np.concatenate([
        rng.integers(0, 2**64, n // 2, dtype=np.uint64, endpoint=False).view(np.float64),
        10.0 ** rng.uniform(-5.0, 16.0, n - n // 2) * rng.choice([-1.0, 1.0], n - n // 2),
    ])
    values[rng.choice(n, len(EDGE_CELLS), replace=False)] = EDGE_CELLS
    columns = list(rng.permutation(values).reshape(-1, ncols).T)
    assert "".join(formatting.csv_blocks("h", *columns)) == per_cell_table("h", columns)


# -- streamed tables -----------------------------------------------------------------

BLOCK = formatting._CHUNK_ROWS


def written_three_ways(capsys, tmp_path, *argv):
    """A subcommand's output to stdout, to --out, and to a text stream that has no .buffer."""
    assert main(list(argv)) == 0
    to_stdout = capsys.readouterr().out
    target = tmp_path / "out.csv"
    assert main([*argv, "--out", str(target)]) == 0
    to_file = target.read_bytes().decode("utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as text_only:
        assert main(list(argv)) == 0
    assert capsys.readouterr() == ("", "")
    return to_stdout, to_file, text_only.getvalue()


@pytest.mark.parametrize("grid", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5],
                         ids=["block-1", "block", "block+1", "several-blocks"])
def test_qtheta_table_is_written_block_by_block_byte_for_byte(capsys, tmp_path, grid):
    theta, values, monotone = _q_table(grid)
    head = "# sup_Q = %.15g\n# C0 = %.15g\n# monotone_decreasing = %s\n"
    want = head % (_SUP_Q, DEFAULT_C0, str(monotone).lower())
    want += per_cell_table("theta,Q", [theta, values])
    got = written_three_ways(capsys, tmp_path, "qtheta", "--qtheta-grid", str(grid))
    assert got == (want,) * 3


@pytest.mark.parametrize("grid", [1000, BLOCK, BLOCK + 1, 10000])
def test_qtheta_json_is_written_block_by_block_as_one_dump(capsys, tmp_path, grid):
    theta, values, monotone = _q_table(grid)
    payload = {"sup_q": _SUP_Q, "c0": DEFAULT_C0, "monotone": monotone,
               "rows": np.column_stack((theta, values)).tolist()}
    argv = ["qtheta", "--format", "json", "--qtheta-grid", str(grid)]
    assert written_three_ways(capsys, tmp_path, *argv) == (json.dumps(payload) + "\n",) * 3
    # the head, one chunk per block of rows, and the closing brackets
    code, chunks = cli.cmd_qtheta(_build_parser().parse_args(argv))
    assert (code, len(list(chunks))) == (0, 2 + math.ceil(grid / BLOCK))


def test_beta_table_is_written_block_by_block_byte_for_byte(capsys, tmp_path):
    koebe = MeasureFunction(BoundaryMeasure.single_atom(), STARLIKE)
    trace = beta_trace(koebe, t_grid=BLOCK + 1, r_schedule=default_r_schedule(2, 6))
    want = per_cell_table("t,beta_estimate", [trace.t_samples, trace.beta_values])
    got = written_three_ways(capsys, tmp_path, "beta", "--gallery", "koebe",
                             "--t-grid", str(BLOCK + 1))
    assert got == (want,) * 3


def test_growth_table_is_written_byte_for_byte(capsys, tmp_path):
    fn = counterexample_for(SpiralAngle(PI / 4), PI)
    schedule = default_r_schedule(2, 8)
    report = growth_exponent(fn, r_schedule=schedule)
    ratios = hansen_ratio(fn, report.predicted_q0, r_schedule=schedule)
    rows = [(r, M, E, ratio) for (r, M, E), (_, ratio) in zip(report.rows, ratios)]
    want = per_cell_table("r,M,E,ratio", list(zip(*rows)))
    want += f"# predicted_q0 = {report.predicted_q0:.15g}\n# a_estimate = {report.a_estimate:.15g}\n"
    want += "# O-bound fails: ratio column increases without settling\n"
    got = written_three_ways(capsys, tmp_path, "growth", "--gallery", "hansen",
                             "--lambda", str(PI / 4), "--A", str(PI), "--r-k", "2:8")
    assert got == (want,) * 3


def test_hansen_inadmissible_parameters_exit_2(capsys):
    rc, _, err = run(
        capsys, "verify", "--gallery", "hansen", "--A", "6", "--c", "0.3"
    )
    assert rc == 2
    assert "violates" in err
    # HansenFunction refuses the parameters when it is built
    rc, out, err = run(capsys, "eval", "--gallery", "hansen", "--c", "5")
    assert (rc, out) == (2, "")
    assert err == "error: c = 5.0 violates c <= 1/log(C0) = 0.371313\n"
