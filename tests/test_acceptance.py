"""Acceptance suite: twelve numbered desk-scale checks with pinned tolerances.

Each criterion records one PASS/FAIL line (echoed in the terminal summary by
conftest.py, after pytest's capture ends) and asserts on the same condition,
so a red criterion is visible both in the line report and the pytest summary.
Oracles are closed forms and the measure-side beta_at; growth limits use the
decade radii schedule.
"""

import math
import time

import numpy as np

import _acceptance_report
from spirallike import (
    DEFAULT_C0,
    STARLIKE,
    BoundaryMeasure,
    G0Function,
    HansenParams,
    MeasureFunction,
    SpiralAngle,
    beta_trace,
    counterexample_for,
    default_r_schedule,
    detect_maximal_sector,
    estimate_max_jump,
    g0_correction,
    goodman_check,
    growth_exponent,
    hansen_build,
    hansen_ratio,
    lemma_c_margins,
    q_function,
    refine_jump,
    spirallikeness_margin,
)
from spirallike.cli import main as cli_main

PI = math.pi
TWO_PI = 2.0 * math.pi
WILKEN_FENG = 1.0 / (2.0 * math.log(2.0))  # 0.7213475...


def _report(num, name, passed, detail):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    _acceptance_report.LINES.append(line)
    assert passed, line


# -- 1: identity law ------------------------------------------------------------


def test_criterion_01_identity_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    z = 0.999 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * PI * rng.uniform(0, 1, 200))
    worst = 0.0
    for lam in (0.0, 0.5, -0.5, 1.2, -1.2):
        f = MeasureFunction(BoundaryMeasure.uniform(), SpiralAngle(lam))
        worst = max(worst, float(np.max(np.abs(f.evaluate(z) - z))))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "identity law",
        worst <= 1e-10 and elapsed < 1.0,
        f"max|f(z)-z| = {worst:.3g} (tol 1e-10), {elapsed:.2f}s (limit 1s)",
    )


# -- 2: koebe exactness ------------------------------------------------------------


def test_criterion_02_koebe_exactness():
    f = MeasureFunction(BoundaryMeasure.single_atom(), STARLIKE)
    e_val = abs(f.evaluate(0.5) - 2.0)
    e_der = abs(f.log_derivative(0.5) - 3.0)
    coeffs = f.taylor_coefficients(20)
    e_coef = float(np.max(np.abs(coeffs - np.arange(1, 21))))
    _report(
        2,
        "koebe exactness",
        e_val <= 1e-12 and e_der <= 1e-12 and e_coef <= 1e-8,
        f"|f(1/2)-2| = {e_val:.2g}, |zf'/f-3| = {e_der:.2g} (tol 1e-12); "
        f"max|a_n - n| = {e_coef:.2g} (tol 1e-8)",
    )


# -- 3: growth law ------------------------------------------------------------------


def test_criterion_03_growth_law():
    results = []
    ok = True
    for lam in (0.0, PI / 4, -PI / 6):
        t0 = time.perf_counter()
        f = MeasureFunction(BoundaryMeasure.single_atom(), SpiralAngle(lam))
        rep = growth_exponent(f, r_schedule=default_r_schedule(2, 8))
        elapsed = time.perf_counter() - t0
        diff = abs(rep.rows[-1][2] - 2.0 * math.cos(lam) ** 2)
        ok &= diff <= 0.05 and elapsed < 5.0
        results.append(f"lam={lam:+.3f}: |E-2cos^2| = {diff:.4f} in {elapsed:.2f}s")
    _report(3, "growth law", ok, "; ".join(results) + " (tol 0.05, limit 5s each)")


# -- 4: beta recovery ----------------------------------------------------------------


def test_criterion_04_beta_recovery():
    m = BoundaryMeasure.from_atoms(
        [(0.0, 1.0), (PI / 2, 0.5)], uniform_density_mass=PI / 2
    )
    ok = True
    parts = []
    for lam in (0.0, 0.7):
        f = MeasureFunction(m, SpiralAngle(lam))
        trace = beta_trace(f)  # schedule ends at r = 1 - 1e-6
        want = m.beta_at(trace.t_samples) - m.canonical_offset()
        continuity = ~np.isin(trace.t_samples, (0.0, PI / 2))
        e_trace = float(np.max(np.abs(trace.beta_values - want)[continuity]))
        est = estimate_max_jump(trace)
        e_jump = abs(est.jump - PI)
        ok &= e_trace <= 0.02 and e_jump <= 0.02
        parts.append(f"lam={lam}: trace err {e_trace:.4f}, jump err {e_jump:.4f}")
    _report(4, "beta recovery", ok, "; ".join(parts) + " (tol 0.02 both)")


# -- 5: correspondence ----------------------------------------------------------------


def test_criterion_05_correspondence():
    from _oracles import continuous_arg_lambda
    from spirallike import spirallike_of, starlike_of

    m = BoundaryMeasure.from_atoms([(0.3, 1.0), (2.0, 2.0), (5.5, 0.5)])
    g = MeasureFunction(m, STARLIKE)
    a = SpiralAngle(0.7)
    f = spirallike_of(g, a)
    back = starlike_of(f, a)

    rng = np.random.default_rng(5)
    pts = 0.98 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * PI * rng.uniform(0, 1, 100))
    e_round = float(np.max(np.abs(back.log_f_over_z(pts) - g.log_f_over_z(pts))))

    e_arg = 0.0
    for k in range(8):
        phi = 2 * PI * k / 8 + 0.05
        z = np.concatenate(([0.0], np.linspace(1e-4, 0.97, 300))) * np.exp(1j * phi)
        path_f = np.concatenate(([1.0], f.f_over_z(z[1:])))
        path_g = np.concatenate(([1.0], g.f_over_z(z[1:])))
        lift_f = continuous_arg_lambda(path_f, a)
        lift_g = continuous_arg_lambda(path_g, STARLIKE)
        e_arg = max(e_arg, float(np.max(np.abs(lift_f - lift_g))))

    lf = f.log_f_over_z(pts)
    lg = g.log_f_over_z(pts)
    excess = np.abs(lf.real - a.cos_lambda**2 * lg.real) - PI * abs(
        math.sin(a.lam) * math.cos(a.lam)
    )
    e_mod = float(np.max(excess))

    _report(
        5,
        "correspondence",
        e_round <= 1e-12 and e_arg <= 1e-10 and e_mod <= 0.0,
        f"roundtrip {e_round:.2g} (tol 1e-12); arg transfer {e_arg:.2g} "
        f"(tol 1e-10); modulus-bound excess {e_mod:.2g} (tol 0)",
    )


# -- 6: g0 certification ----------------------------------------------------------------


def test_criterion_06_g0_certification():
    g0 = G0Function()
    margin = spirallikeness_margin(g0, r_max=0.999)
    bound = WILKEN_FENG - 0.5  # 0.221348...

    trace = beta_trace(g0)
    est = estimate_max_jump(trace)
    spacing = TWO_PI / len(trace.t_samples)
    jump, _ = refine_jump(g0, (est.location - spacing, est.location + spacing))
    e_jump = abs(jump - PI)

    coeffs = G0Function().taylor_coefficients(50)
    harm = np.cumsum(1.0 / np.arange(1, 51))
    e_coef = float(np.max(np.abs(coeffs - harm)))

    _report(
        6,
        "g0 certification",
        margin >= bound and e_jump <= 0.03 and e_coef <= 1e-8,
        f"circle min Re(zg0'/g0) = {margin:.7f} >= {bound:.7f}; "
        f"|jump - pi| = {e_jump:.4f} (tol 0.03); max|a_n - H_n| = {e_coef:.2g} (tol 1e-8)",
    )


# -- 7: Q / C0 -----------------------------------------------------------------------


def test_criterion_07_q_and_c0():
    q_lo = q_function(1e-6)
    q_hi = q_function(PI / 2 - 1e-6)
    # sup Q read as the largest Q on the 100,000-point interior grid of (0, pi/2)
    sup_q = float(np.max(q_function(np.linspace(0.0, PI / 2.0, 100002)[1:-1])))
    c0 = DEFAULT_C0
    m1, m2 = lemma_c_margins(2.0 * math.e**2)
    ok = (
        2.0 - 1e-3 <= q_lo <= 2.0
        and q_hi <= 1e-2
        and sup_q <= 2.0 + 1e-9
        and abs(c0 - 14.778) <= 1e-3
        and m1 > 0.0
        and m2 > 0.0
    )
    _report(
        7,
        "Q threshold and C0",
        ok,
        f"Q(1e-6) = {q_lo:.6f} in [1.999, 2]; Q(pi/2-1e-6) = {q_hi:.2g} <= 1e-2; "
        f"sup Q = {sup_q:.9f} <= 2+1e-9; C0 = {c0:.5f} (14.778 +- 1e-3); "
        f"margins ({m1:.2g}, {m2:.2g}) > 0",
    )


# -- 8: Wilken-Feng oracle ----------------------------------------------------------------


def test_criterion_08_wilken_feng_oracle():
    radii = 1.0 - np.geomspace(1.0, 1e-4, 64)  # r <= 0.9999
    thetas = np.arange(512) * (TWO_PI / 512)
    z = radii[:, None] * np.exp(1j * thetas)[None, :]
    low = float(np.min(g0_correction(z).real))
    _report(
        8,
        "correction-term lower bound",
        low >= WILKEN_FENG - 1e-9,
        f"grid min Re G = {low:.9f} >= 1/(2 log 2) - 1e-9 = {WILKEN_FENG - 1e-9:.9f}",
    )


# -- 9: growth-bound counterexample ---------------------------------------------------------


def test_criterion_09_counterexample():
    t0 = time.perf_counter()
    rc = cli_main(
        ["verify", "--gallery", "hansen", "--lambda", str(PI / 4),
         "--A", str(PI), "--beta-exp", "1.0", "--c", "0.3", "--out", "/dev/null"]
    )
    f = counterexample_for(SpiralAngle(PI / 4), PI, beta_exp=1.0, c=0.3)
    rows = hansen_ratio(f, 0.5, r_schedule=default_r_schedule(2, 8))
    r = np.array([x for x, _ in rows])
    v = np.array([y for _, y in rows])
    increasing = bool(np.all(np.diff(v) > 0.0))
    growth_factor = v[-1] / v[0]
    slope = float(np.polyfit(np.log(np.log(1.0 / (1.0 - r))), np.log(v), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (
        rc == 0
        and increasing
        and growth_factor > 1.5
        and abs(slope - 0.5) <= 0.15
        and elapsed < 10.0
    )
    _report(
        9,
        "counterexample growth",
        ok,
        f"verify rc = {rc}; ratios increasing = {increasing}; "
        f"k8/k2 = {growth_factor:.3f} > 1.5; slope = {slope:.3f} "
        f"(0.5 +- 0.15); {elapsed:.2f}s (limit 10s)",
    )


# -- 10: validity margin ----------------------------------------------------------------


def test_criterion_10_validity_margin():
    ok = True
    parts = []
    for p in (
        HansenParams(1.0, 1.0, 0.3),
        HansenParams(0.5, 2.0, 0.2),
        HansenParams(1.5, 0.5, 0.25),
    ):
        assert p.violations() == []
        margin = spirallikeness_margin(hansen_build(p))
        bound = p.margin_lower_bound()
        ok &= margin >= bound - 1e-6
        parts.append(f"({p.alpha},{p.beta_exp},{p.c}): {margin:.5f} >= {bound:.5f}")
    _report(10, "validity margin", ok, "; ".join(parts) + " (slack 1e-6)")


# -- 11: goodman bound -------------------------------------------------------------------


def test_criterion_11_goodman_bound():
    rng = np.random.default_rng(3)
    cases = {
        "identity": MeasureFunction(BoundaryMeasure.uniform(), STARLIKE),
        "koebe": MeasureFunction(BoundaryMeasure.single_atom(), STARLIKE),
        "g0": G0Function(),
    }
    for trial in range(2):
        k = int(rng.integers(2, 6))
        pairs = [(float(rng.uniform(0, TWO_PI)), float(rng.uniform(0.2, 2.0))) for _ in range(k)]
        cases[f"random{trial}"] = MeasureFunction(BoundaryMeasure.from_atoms(pairs), STARLIKE)
    worst_name, worst = max(
        ((name, goodman_check(fn)) for name, fn in cases.items()),
        key=lambda kv: kv[1],
    )
    _report(
        11,
        "goodman bound",
        worst <= 1e-9,
        f"max excess over {sorted(cases)} = {worst:.3g} at {worst_name} (tol 1e-9)",
    )


# -- 12: sector detection -----------------------------------------------------------------


def test_criterion_12_sector_detection():
    koebe = MeasureFunction(BoundaryMeasure.single_atom(), STARLIKE)
    s1 = detect_maximal_sector(koebe)
    two = MeasureFunction(BoundaryMeasure.from_atoms([(0.0, 1.0), (PI, 1.0)]), STARLIKE)
    s2 = detect_maximal_sector(two)
    spiral = MeasureFunction(BoundaryMeasure.single_atom(), SpiralAngle(PI / 4))
    s3 = detect_maximal_sector(spiral)
    ok = (
        abs(s1.center_angle) <= 1e-6
        and abs(s1.opening - TWO_PI) <= 1e-9
        and abs(s2.opening - PI) <= 0.02
        and abs(s3.opening - TWO_PI) <= 0.02
    )
    _report(
        12,
        "sector detection",
        ok,
        f"koebe center {s1.center_angle:.2g} (tol 1e-6), opening {s1.opening:.6f}; "
        f"two-atom opening {s2.opening:.6f} (pi +- 0.02); "
        f"spiral koebe opening {s3.opening:.6f} (2pi +- 0.02)",
    )
