"""Named families of boundary measures that the property tests draw from.

Each family is a seeded recipe that returns (measure, lam) pairs, so a test
names the family it draws from and a count of its cases reproduces exactly.

close_pairs: two atoms a gap 10^uniform(-4, -1.3) apart, from 1e-4 to about
2 spacings of max_modulus's 1,024-angle scan.  Closeness is the hard axis:
two close atoms make a narrow peak of log|f| that need not be a scan
maximum (ROADMAP item 1), and a pair inside one trace spacing reads as one
jump (item 2).
"""

import numpy as np

from spirallike import BoundaryMeasure

TWO_PI = 2.0 * np.pi


def close_pairs(count, seed=5):
    """(measure, lam) for count two-atom measures, drawn from default_rng(seed).

    Per measure, in this order: the first atom t0 uniform in [0, 2*pi), the
    gap 10^uniform(-4, -1.3), the positions (t0, t0 + gap) mod 2*pi sorted,
    two weights uniform in [0.2, 3] scaled to total 2*pi, and lam uniform in
    (-1.3, 1.3).
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        t0 = rng.uniform(0.0, TWO_PI)
        gap = 10.0 ** rng.uniform(-4.0, -1.3)
        t = np.sort(np.mod([t0, t0 + gap], TWO_PI))
        w = rng.uniform(0.2, 3.0, 2)
        w *= TWO_PI / w.sum()
        lam = float(rng.uniform(-1.3, 1.3))
        cases.append((BoundaryMeasure.from_atoms(list(zip(t.tolist(), w.tolist()))), lam))
    return cases
