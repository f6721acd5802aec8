"""Seeded inputs and function handles for the benchmark.

Everything the package receives is generated here from the workload seed:
evaluation points, boundary measures and Hansen parameters.  The oracles
live in oracles.py, so that set-up probes import only what the package
needs.
"""

import math

import numpy as np

import spirallike as sp

TWO_PI = 2.0 * math.pi

# eval_kernel sizes.  A round evaluates every batch of every handle with
# each of the three methods; each batch call is followed by SCALARS scalar
# calls at points of the checked subsample (the call pattern of a golden
# search).  The batch sizes are those the analysis routines send to the
# representation layer in one experiments pass (counted with
# t_grid=256/grid=(512, 32) defaults): 1024 per call of growth_exponent and
# hansen_ratio (one circle), 28928 for the median call of beta_trace
# (256 angles x 113 radii; its calls range from 16384 to 40960), 45056 for
# goodman_check (512 angles x 88 radii).  detect_maximal_sector's 114688-point
# calls are left out: on the wide measure each temporary would be 44 MB.
# Half of a batch lies in |z| <= 1/2, where li2/li3 use their power series;
# the other half has 1 - |z| log-uniform in (1e-6, 1/2), where they use the
# zeta expansion.
BATCH_SIZES = (1024, 28928, 45056)
CHECKED = 16
SCALARS = 16
R_GAP_MIN = 1e-6
MIXED_ATOMS, MIXED_KNOTS = 2, 4
WIDE_ATOMS, WIDE_KNOTS = 24, 12
MEASURE_SEED = 20100308

# -- seeded generation -------------------------------------------------------


def disk_points(rng, n):
    """n points: half area-uniform in |z| <= 1/2, half with 1-|z| log-uniform."""
    inner = n // 2
    r = np.concatenate((
        0.5 * np.sqrt(rng.uniform(0.0, 1.0, inner)),
        1.0 - 0.5 * (2.0 * R_GAP_MIN) ** rng.uniform(0.0, 1.0, n - inner),
    ))
    theta = rng.uniform(0.0, TWO_PI, n)
    return r * np.exp(1j * theta)


def _spread_positions(rng, n, min_gap):
    """n sorted positions in [0, 2*pi) with cyclic gaps of at least min_gap."""
    while True:
        t = np.sort(rng.uniform(0.0, TWO_PI, n))
        gaps = np.diff(np.concatenate((t, [t[0] + TWO_PI])))
        if n == 1 or gaps.min() >= min_gap:
            return t


def random_measure(rng, n_atoms, n_knots, atom_share=0.6):
    """Atoms plus a non-constant piecewise-linear density, total mass 2*pi."""
    atom_t = _spread_positions(rng, n_atoms, 0.05)
    w = rng.uniform(0.2, 1.0, n_atoms)
    jumps = w / w.sum() * atom_share * TWO_PI
    knot_t = _spread_positions(rng, n_knots, 0.1)
    values = rng.uniform(0.2, 1.0, n_knots)
    values *= (1.0 - atom_share) * TWO_PI / _density_mass(knot_t, values)
    measure = sp.BoundaryMeasure(
        atoms=tuple(zip(atom_t.tolist(), jumps.tolist())),
        density_knots=tuple(zip(knot_t.tolist(), values.tolist())),
    )
    measure.require_valid()
    return measure


def _density_mass(knot_t, values):
    dt = np.diff(np.concatenate((knot_t, [knot_t[0] + TWO_PI])))
    return float(np.sum(0.5 * (values + np.roll(values, -1)) * dt))


def fixed_mixed_measure():
    """Atoms pi at 0 and pi/4 at pi/2 on the t grid, plus a 4-knot density."""
    knot_t = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    values = np.array([0.1, 0.3, 0.5, 0.2])
    values *= (TWO_PI - 1.25 * math.pi) / _density_mass(knot_t, values)
    return sp.BoundaryMeasure(
        atoms=((0.0, math.pi), (0.5 * math.pi, 0.25 * math.pi)),
        density_knots=tuple(zip(knot_t.tolist(), values.tolist())),
    )


def random_atomic_measure(rng):
    k = int(rng.integers(2, 6))
    pairs = [(float(rng.uniform(0, TWO_PI)), float(rng.uniform(0.2, 2.0))) for _ in range(k)]
    return sp.BoundaryMeasure.from_atoms(pairs)


def random_hansen_params(rng):
    while True:
        p = sp.HansenParams(
            alpha=float(rng.uniform(0.3, 1.7)),
            beta_exp=float(rng.uniform(0.3, 2.0)),
            c=float(rng.uniform(0.1, 0.3)),
        )
        if not p.violations():
            return p


# -- eval_kernel handles --------------------------------------------------------

COUNTEREXAMPLE = dict(lam=math.pi / 4, A=math.pi, beta_exp=1.0, c=0.3)


def kernel_specs():
    """(name, spec) pairs; a spec says how to build the handle and its oracle.

    The measures come from a fixed generator seed, so that the accuracy
    figures of different workload seeds differ only by their points.
    """
    rng = np.random.default_rng(MEASURE_SEED)
    mixed = random_measure(rng, MIXED_ATOMS, MIXED_KNOTS)
    wide = random_measure(rng, WIDE_ATOMS, WIDE_KNOTS)
    c = COUNTEREXAMPLE
    return [
        ("mixed_l0", ("measure", mixed, 0.0)),
        ("mixed_l07", ("measure", mixed, 0.7)),
        ("wide", ("measure", wide, 0.0)),
        ("koebe_l07", ("koebe", 0.7)),
        ("g0", ("g0",)),
        ("hansen_ce", ("hansen", c["A"] / math.pi, c["beta_exp"], c["c"], c["lam"])),
    ]


def build_handle(spec):
    kind = spec[0]
    if kind == "measure":
        return sp.MeasureFunction(spec[1], sp.SpiralAngle(spec[2]))
    if kind == "koebe":
        koebe = sp.MeasureFunction(sp.BoundaryMeasure.single_atom(), sp.STARLIKE)
        return sp.spirallike_of(koebe, sp.SpiralAngle(spec[1]))
    if kind == "g0":
        return sp.G0Function()
    if kind == "hansen":
        _, alpha, beta_exp, c, lam = spec
        return sp.counterexample_for(sp.SpiralAngle(lam), alpha * math.pi, beta_exp=beta_exp, c=c)
    raise ValueError(kind)


def kernel_inputs(seed):
    """Handles, batches and checked-subsample indices for eval_kernel.

    The seed makes the batch points and the positions of the checked points
    in each batch.  The checked points themselves, where the scalar calls
    are made too, come from a fixed generator seed like the measures: the
    largest error over them depends on how close a point comes to the circle
    and to an atom, and with seeded checked points it moved by 7% between
    seeds.  Half of them lie in each half of a batch.
    """
    rng = np.random.default_rng([seed, 1])
    fixed = np.random.default_rng([MEASURE_SEED, 1])
    cases = []
    for name, spec in kernel_specs():
        handle = build_handle(spec)
        batches = []
        for size in BATCH_SIZES:
            z = disk_points(rng, size)
            half = size // 2
            idx = np.concatenate((
                rng.choice(half, CHECKED // 2, replace=False),
                half + rng.choice(size - half, CHECKED - CHECKED // 2, replace=False),
            ))
            z[idx] = disk_points(fixed, CHECKED)
            batches.append((z, idx))
        cases.append((name, spec, handle, batches))
    return cases


# -- experiments handles --------------------------------------------------------


def experiment_handles(seed):
    """The functions the experiments pass runs on; seeded parts use the seed."""
    rng = np.random.default_rng([seed, 2])
    c = COUNTEREXAMPLE
    mixed = fixed_mixed_measure()
    hansen_params = random_hansen_params(rng)
    koebe = sp.BoundaryMeasure.single_atom()
    return {
        "mixed": mixed,
        "mixed_l0": sp.MeasureFunction(mixed, sp.STARLIKE),
        "mixed_l07": sp.MeasureFunction(mixed, sp.SpiralAngle(0.7)),
        "koebe_l07": sp.MeasureFunction(koebe, sp.SpiralAngle(0.7)),
        "koebe": sp.MeasureFunction(koebe, sp.STARLIKE),
        "counterexample": sp.counterexample_for(
            sp.SpiralAngle(c["lam"]), c["A"], beta_exp=c["beta_exp"], c=c["c"]
        ),
        "hansen_params": hansen_params,
        "hansen": sp.hansen_build(hansen_params),
        "g0": sp.G0Function(),
        "atomic": [
            sp.MeasureFunction(random_atomic_measure(rng), sp.STARLIKE) for _ in range(2)
        ],
        "two_atom": sp.MeasureFunction(
            sp.BoundaryMeasure.from_atoms([(0.0, 1.0), (math.pi, 1.0)]), sp.STARLIKE
        ),
    }
