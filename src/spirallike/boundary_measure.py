"""Non-decreasing boundary functions beta with beta(t + 2*pi) = beta(t) + 2*pi.

A boundary measure d(beta) is stored as two position-ordered tables of
(position, value) pairs: point atoms (t, jump) and the knots (t, value) of a
2*pi-periodic piecewise-linear density.  beta_at uses the base normalization
beta(0-) = 0 and the midpoint convention at atoms.  Total mass must equal
2*pi within 1e-9 so that beta gains exactly 2*pi per period.
"""

import os
from functools import cached_property

import numpy as np

from .errors import MeasureValidationError, ParameterError, _finite_angles, _real_number, _scalar
from .spiral_geometry import TWO_PI, _record

MASS_TOL = 1e-9
# each table's JSON key and the JSON name of its value field
_TABLES = (("atoms", "jump"), ("density_knots", "value"))


def _json_number(value):
    """value as a float if it is a JSON number (an int or float, not a bool), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return None


def _segment_integral(x1, v1, x2, v2):
    """Integral of the linear interpolant between (x1, v1) and (x2, v2)."""
    return 0.5 * (v1 + v2) * (x2 - x1)


def _segment_moment(x1, v1, x2, v2):
    """Integral of t * linear(t) over [x1, x2]."""
    return (x2 - x1) * ((2 * x1 + x2) * v1 + (x1 + 2 * x2) * v2) / 6.0


@_record
class BoundaryMeasure:
    """Atoms (t_k, jump_k) plus a periodic piecewise-linear density.

    atoms: pairs (position in [0, 2*pi), jump > 0), strictly increasing
        positions.
    density_knots: pairs (position in [0, 2*pi), value >= 0), strictly
        increasing positions; a single knot means a constant density and no
        knots means no density part.
    """

    atoms: tuple = ()
    density_knots: tuple = ()

    def __post_init__(self):
        problems = []
        for name, _ in _TABLES:
            table = getattr(self, name)
            try:
                pairs = tuple((float(t), float(x)) for t, x in table)
            except (TypeError, ValueError, OverflowError):
                problems.append(f"{name}: expected pairs of real numbers, got {table!r}")
            else:
                object.__setattr__(self, name, pairs)
        if problems:
            raise MeasureValidationError(problems)

    # -- validation ----------------------------------------------------

    @cached_property
    def _violations(self):
        """Invariant violations as a tuple, found once: the measure is frozen."""
        violations = []
        structural = False
        rules = (
            ("atom", self.atoms, lambda d: d > 0.0, "jump {} is not strictly positive"),
            ("density knot", self.density_knots, lambda v: v >= 0.0, "negative value {}"),
        )
        for label, pairs, value_ok, value_problem in rules:
            for k, (t, x) in enumerate(pairs):
                if not (np.isfinite(t) and np.isfinite(x)):
                    violations.append(f"{label} {k}: non-finite entry ({t}, {x})")
                    structural = True
                    continue
                if not (0.0 <= t < TWO_PI):
                    violations.append(f"{label} {k}: position {t} outside [0, 2*pi)")
                if not value_ok(x):
                    violations.append(f"{label} {k}: " + value_problem.format(x))
            if any(b[0] <= a[0] for a, b in zip(pairs, pairs[1:])):
                violations.append(f"{label} positions are not strictly increasing")
        if not structural:
            mass = self.total_mass()
            if abs(mass - TWO_PI) > MASS_TOL:
                violations.append(
                    f"total mass {mass!r} differs from 2*pi by more than {MASS_TOL}"
                )
        return tuple(violations)

    def require_valid(self):
        if self._violations:
            raise MeasureValidationError(self._violations)

    # -- the two tables as arrays -----------------------------------------

    @cached_property
    def _atom_arrays(self):
        """Positions, jumps and running jump sums (0 first); read after require_valid."""
        ts, ds = np.array(self.atoms, dtype=float).reshape(-1, 2).T.copy()
        return ts, ds, np.concatenate(([0.0], np.cumsum(ds)))

    @cached_property
    def _knot_arrays(self):
        """Knot positions and values, sorted by position.

        Sorted because total_mass runs inside validation, before the order
        is known.
        """
        tt, vv = np.array(self.density_knots, dtype=float).reshape(-1, 2).T
        order = np.argsort(tt, kind="stable")
        return tt[order], vv[order]

    @cached_property
    def _density_segments(self):
        """One period of density: knots 0 = x_0 < ... < x_m = 2*pi, values, running integral."""
        tt, vv = self._knot_arrays
        # the value at both ends, 0 and 2*pi; not density_at, which validates,
        # and validation reads total_mass, which reads these segments
        edge = np.interp(0.0, tt, vv, period=TWO_PI) if tt.size else 0.0
        inner = tt > 0.0
        x = np.concatenate(([0.0], tt[inner], [TWO_PI]))
        v = np.concatenate(([edge], vv[inner], [edge]))
        areas = _segment_integral(x[:-1], v[:-1], x[1:], v[1:])
        return x, v, np.concatenate(([0.0], np.cumsum(areas)))

    def density_at(self, t):
        """Periodic piecewise-linear density value(s) at t; DomainError unless t is finite."""
        self.require_valid()
        t = _finite_angles(t)
        tt, vv = self._knot_arrays
        out = np.interp(t, tt, vv, period=TWO_PI) if tt.size else np.zeros_like(t)
        return _scalar(out)

    def _density_cumulative(self, s):
        """Integral of the density over [0, s] for s in [0, 2*pi]."""
        x, v, F = self._density_segments
        idx = np.clip(np.searchsorted(x, s, side="right") - 1, 0, len(x) - 2)
        return F[idx] + _segment_integral(x[idx], v[idx], s, np.interp(s, x, v))

    # -- measure-level quantities ---------------------------------------

    def total_mass(self):
        """Sum of the jumps and the density's integral over one period.

        Not validated: validation reads it, and it normalizes raw tables.
        """
        _, _, F = self._density_segments
        return float(sum(d for _, d in self.atoms) + F[-1])

    def beta_at(self, t):
        """beta(t), beta(0-) = 0, midpoint values at atoms; DomainError unless t is finite."""
        self.require_valid()
        t = _finite_angles(t)
        q, s = np.divmod(t, TWO_PI)
        ts, _, cum = self._atom_arrays
        below = cum[np.searchsorted(ts, s, side="left")]
        through = cum[np.searchsorted(ts, s, side="right")]
        out = TWO_PI * q + self._density_cumulative(s) + 0.5 * (below + through)
        return _scalar(out)

    def max_jump(self):
        """Largest atom jump; 0 for atomless measures."""
        largest = self.largest_atom()
        return 0.0 if largest is None else largest[1]

    def largest_atom(self):
        """(position, jump) of the largest atom, earliest position on ties."""
        self.require_valid()
        ts, ds, _ = self._atom_arrays
        if not ds.size:
            return None
        k = int(np.argmax(ds))
        return float(ts[k]), float(ds[k])

    def first_moment(self):
        """Integral of t d(beta)(t) over the fundamental window [0, 2*pi)."""
        self.require_valid()
        x, v, _ = self._density_segments
        density_moment = np.sum(_segment_moment(x[:-1], v[:-1], x[1:], v[1:]))
        return float(sum(t * d for t, d in self.atoms) + density_moment)

    def canonical_offset(self):
        """Constant relating beta_at to the branch pinned at the disk center.

        Boundary traces continued from f(z)/z -> 1 at z = 0 estimate
        beta_at(t) - canonical_offset; the value is pi - first_moment/(2*pi).
        """
        return float(np.pi - self.first_moment() / TWO_PI)

    def slope_changes(self):
        """Knot positions and density-slope jumps (zero entries dropped).

        The density's second derivative is a sum of point masses sigma_j at
        the knots; these drive the polylogarithm closed form.  Returns a pair
        of arrays (positions, sigmas), both empty for constant densities.
        """
        self.require_valid()
        if len(self.density_knots) < 2:
            return np.array([]), np.array([])
        tt, vv = self._knot_arrays
        dt = np.diff(np.concatenate((tt, [tt[0] + TWO_PI])))
        dv = np.diff(np.concatenate((vv, [vv[0]])))
        slopes = dv / dt
        sigma = slopes - np.roll(slopes, 1)
        keep = sigma != 0.0
        return tt[keep], sigma[keep]

    # -- constructors ----------------------------------------------------

    @classmethod
    def uniform(cls):
        """The uniform measure d(beta) = dt (builds the identity function)."""
        return cls(density_knots=((0.0, 1.0),))

    @classmethod
    def single_atom(cls, position=0.0):
        """All mass 2*pi in one atom (builds a rotated Koebe function).

        ParameterError unless float() takes position.
        """
        return cls(atoms=((_real_number(position, "atom position", ParameterError), TWO_PI),))

    @classmethod
    def from_atoms(cls, pairs, uniform_density_mass=0.0):
        """Atoms with weights rescaled so total mass is exactly 2*pi.

        pairs: (position, weight) entries, weights > 0; duplicates merge.
        uniform_density_mass: portion of the 2*pi mass carried by a constant
            density instead of the atoms.
        """
        udm = _real_number(uniform_density_mass, "uniform density mass", ParameterError)
        if not (0.0 <= udm <= TWO_PI):
            raise ParameterError(f"uniform density mass {udm} outside [0, 2*pi]")
        try:
            pairs = [(t, w) for t, w in pairs]
        except (TypeError, ValueError):
            raise ParameterError(f"atoms must be (position, weight) pairs, got {pairs!r}") from None
        merged = {}
        for t, w in pairs:
            t = _real_number(t, "atom position", ParameterError)
            w = _real_number(w, "atom weight", ParameterError)
            if not np.isfinite(t):
                raise ParameterError(f"atom position {t} is not finite")
            if not (0.0 < w < np.inf):
                raise ParameterError(f"atom weight {w} is not finite and strictly positive")
            merged[t] = merged.get(t, 0.0) + w
        total = sum(merged.values())
        if total == 0.0:
            if abs(udm - TWO_PI) > MASS_TOL:
                raise ParameterError("no atoms: uniform density mass must be 2*pi")
            return cls.uniform()
        scale = (TWO_PI - udm) / total
        atoms = tuple((t, w * scale) for t, w in sorted(merged.items()))
        knots = ((0.0, udm / TWO_PI),) if udm > 0.0 else ()
        return cls(atoms=atoms, density_knots=knots)

    # -- JSON interchange -------------------------------------------------

    def to_json_dict(self):
        return {
            name: [{"t": t, field: x} for t, x in getattr(self, name)]
            for name, field in _TABLES
        }

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise MeasureValidationError(["measure spec must be a JSON object"])
        problems = []
        tables = {}
        for name, field in _TABLES:
            entries = data.get(name)
            if not isinstance(entries, (list, type(None))):
                problems.append(f"{name}: expected a list of objects, got {entries!r}")
                continue
            pairs = tables[name] = []
            for k, entry in enumerate(entries or ()):
                if not isinstance(entry, dict) or "t" not in entry or field not in entry:
                    problems.append(f'{name}[{k}]: expected an object with "t" and "{field}"')
                    continue
                t, x = _json_number(entry["t"]), _json_number(entry[field])
                if t is None or x is None:
                    problems.append(f"{name}[{k}]: non-numeric entry {entry!r}")
                else:
                    pairs.append((t, x))
                extra = set(entry) - {"t", field}
                if extra:
                    problems.append(f"{name}[{k}]: unknown keys: {sorted(extra)}")
        unknown = set(data) - {name for name, _ in _TABLES}
        if unknown:
            problems.append(f"unknown keys: {sorted(unknown)}")
        if problems:
            raise MeasureValidationError(problems)
        return cls(**{name: tuple(pairs) for name, pairs in tables.items()})


def load_measure(path):
    """Load a measure-spec JSON file, validating and itemizing all errors.

    MeasureValidationError unless path is a str, bytes or os.PathLike: open()
    would read an int as a file descriptor and close it.
    """
    import json  # here, not at module level: only --measure reads JSON

    if not isinstance(path, (str, bytes, os.PathLike)):
        raise MeasureValidationError([f"cannot read {path!r}: expected a file path"])
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MeasureValidationError([f"cannot read {path}: {exc}"]) from exc
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise MeasureValidationError([f"invalid JSON in {path}: {exc}"]) from exc
    measure = BoundaryMeasure.from_json_dict(data)
    measure.require_valid()
    return measure
