"""Non-decreasing boundary functions beta with beta(t + 2*pi) = beta(t) + 2*pi.

A boundary measure d(beta) is stored as point atoms plus a 2*pi-periodic
piecewise-linear density.  beta_at uses the base normalization beta(0-) = 0
and the midpoint convention at atoms.  Total mass must equal 2*pi within
1e-9 so that beta gains exactly 2*pi per period.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeasureValidationError, ParameterError
from .spiral_geometry import _finite_angles

TWO_PI = 2.0 * np.pi
MASS_TOL = 1e-9


def _segment_integral(x1, v1, x2, v2):
    """Integral of the linear interpolant between (x1, v1) and (x2, v2)."""
    return 0.5 * (v1 + v2) * (x2 - x1)


def _segment_moment(x1, v1, x2, v2):
    """Integral of t * linear(t) over [x1, x2]."""
    return (x2 - x1) * ((2 * x1 + x2) * v1 + (x1 + 2 * x2) * v2) / 6.0


@dataclass(frozen=True)
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
        object.__setattr__(
            self, "atoms", tuple((float(t), float(d)) for t, d in self.atoms)
        )
        object.__setattr__(
            self,
            "density_knots",
            tuple((float(t), float(v)) for t, v in self.density_knots),
        )

    # -- validation ----------------------------------------------------

    def validate(self):
        """Return the list of invariant violations (empty when valid)."""
        violations = []
        structural = False
        for k, (t, d) in enumerate(self.atoms):
            if not (np.isfinite(t) and np.isfinite(d)):
                violations.append(f"atom {k}: non-finite entry ({t}, {d})")
                structural = True
                continue
            if not (0.0 <= t < TWO_PI):
                violations.append(f"atom {k}: position {t} outside [0, 2*pi)")
            if not (d > 0.0):
                violations.append(f"atom {k}: jump {d} is not strictly positive")
        positions = [t for t, _ in self.atoms]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            violations.append("atom positions are not strictly increasing")
        for j, (t, v) in enumerate(self.density_knots):
            if not (np.isfinite(t) and np.isfinite(v)):
                violations.append(f"density knot {j}: non-finite entry ({t}, {v})")
                structural = True
                continue
            if not (0.0 <= t < TWO_PI):
                violations.append(f"density knot {j}: position {t} outside [0, 2*pi)")
            if v < 0.0:
                violations.append(f"density knot {j}: negative value {v}")
        knot_ts = [t for t, _ in self.density_knots]
        if any(b <= a for a, b in zip(knot_ts, knot_ts[1:])):
            violations.append("density knot positions are not strictly increasing")
        if not structural:
            mass = self.total_mass()
            if abs(mass - TWO_PI) > MASS_TOL:
                violations.append(
                    f"total mass {mass!r} differs from 2*pi by more than {MASS_TOL}"
                )
        return violations

    def require_valid(self):
        violations = self.validate()
        if violations:
            raise MeasureValidationError(violations)

    # -- density helpers -----------------------------------------------

    @cached_property
    def _atom_arrays(self):
        ts = np.array([t for t, _ in self.atoms], dtype=float)
        ds = np.array([d for _, d in self.atoms], dtype=float)
        order = np.argsort(ts, kind="stable")
        return ts[order], ds[order]

    @cached_property
    def _density_ext(self):
        """Knot arrays extended periodically to cover [0, 2*pi] fully.

        Returns (tt, vv, cumulative integral F with F[0] = 0); the extension
        spans [t_last - 2*pi, t_first + 2*pi] so every s in [0, 2*pi] lies
        inside an interior segment.
        """
        if not self.density_knots:
            return None
        tt = np.array([t for t, _ in self.density_knots], dtype=float)
        vv = np.array([v for _, v in self.density_knots], dtype=float)
        order = np.argsort(tt, kind="stable")
        tt, vv = tt[order], vv[order]
        tt_ext = np.concatenate(([tt[-1] - TWO_PI], tt, [tt[0] + TWO_PI]))
        vv_ext = np.concatenate(([vv[-1]], vv, [vv[0]]))
        areas = _segment_integral(tt_ext[:-1], vv_ext[:-1], tt_ext[1:], vv_ext[1:])
        F = np.concatenate(([0.0], np.cumsum(areas)))
        return tt_ext, vv_ext, F

    def density_at(self, t):
        """Periodic piecewise-linear density value(s) at t; DomainError unless t is finite."""
        t = _finite_angles(t)
        if not self.density_knots:
            out = np.zeros_like(t)
            return out if out.ndim else float(out)
        tt = [k for k, _ in self.density_knots]
        vv = [v for _, v in self.density_knots]
        out = np.interp(t, tt, vv, period=TWO_PI)
        return out if out.ndim else float(out)

    def _density_cumulative(self, s):
        """Integral of the density over [0, s] for s in [0, 2*pi]."""
        if self._density_ext is None:
            return np.zeros_like(np.asarray(s, dtype=float))
        tt, vv, F = self._density_ext

        def antider(x):
            x = np.asarray(x, dtype=float)
            idx = np.clip(np.searchsorted(tt, x, side="right") - 1, 0, len(tt) - 2)
            x0 = tt[idx]
            v0 = vv[idx]
            vx = np.interp(x, tt, vv)
            return F[idx] + _segment_integral(x0, v0, x, vx)

        return antider(s) - antider(0.0)

    def density_integral(self, a, b):
        """Exact integral of the periodic density over [a, b]; DomainError unless a, b finite."""
        a, b = _finite_angles((float(a), float(b))).tolist()
        qa, sa = divmod(a, TWO_PI)
        qb, sb = divmod(b, TWO_PI)
        period_mass = float(self._density_cumulative(TWO_PI))
        return float(
            (qb - qa) * period_mass
            + self._density_cumulative(sb)
            - self._density_cumulative(sa)
        )

    # -- measure-level quantities ---------------------------------------

    def total_mass(self):
        return float(sum(d for _, d in self.atoms) + self.density_integral(0.0, TWO_PI))

    def beta_at(self, t):
        """beta(t), beta(0-) = 0, midpoint values at atoms; DomainError unless t is finite."""
        self.require_valid()
        t = _finite_angles(t)
        q, s = np.divmod(t, TWO_PI)
        out = TWO_PI * q + self._density_cumulative(s)
        ts, ds = self._atom_arrays
        if ts.size:
            cum = np.concatenate(([0.0], np.cumsum(ds)))
            below = cum[np.searchsorted(ts, s, side="left")]
            through = cum[np.searchsorted(ts, s, side="right")]
            out = out + 0.5 * (below + through)
        return out if out.ndim else float(out)

    def max_jump(self):
        """Largest atom jump; 0 for atomless measures."""
        self.require_valid()
        if not self.atoms:
            return 0.0
        return float(max(d for _, d in self.atoms))

    def largest_atom(self):
        """(position, jump) of the largest atom, earliest position on ties."""
        self.require_valid()
        if not self.atoms:
            return None
        ts, ds = self._atom_arrays
        k = int(np.argmax(ds))
        return float(ts[k]), float(ds[k])

    def first_moment(self):
        """Integral of t d(beta)(t) over the fundamental window [0, 2*pi)."""
        moment = sum(t * d for t, d in self.atoms)
        if self._density_ext is not None:
            tt, vv, _ = self._density_ext
            lo = np.maximum(tt[:-1], 0.0)
            hi = np.minimum(tt[1:], TWO_PI)
            keep = hi > lo
            v_lo = np.interp(lo, tt, vv)
            v_hi = np.interp(hi, tt, vv)
            moment += float(
                np.sum(_segment_moment(lo[keep], v_lo[keep], hi[keep], v_hi[keep]))
            )
        return float(moment)

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
        if len(self.density_knots) < 2:
            return np.array([]), np.array([])
        tt = np.array([t for t, _ in self.density_knots], dtype=float)
        vv = np.array([v for _, v in self.density_knots], dtype=float)
        order = np.argsort(tt, kind="stable")
        tt, vv = tt[order], vv[order]
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
        """All mass 2*pi in one atom (builds a rotated Koebe function)."""
        return cls(atoms=((float(position), TWO_PI),))

    @classmethod
    def from_atoms(cls, pairs, uniform_density_mass=0.0):
        """Atoms with weights rescaled so total mass is exactly 2*pi.

        pairs: (position, weight) entries, weights > 0; duplicates merge.
        uniform_density_mass: portion of the 2*pi mass carried by a constant
            density instead of the atoms.
        """
        udm = float(uniform_density_mass)
        if not (0.0 <= udm <= TWO_PI):
            raise ParameterError(f"uniform density mass {udm} outside [0, 2*pi]")
        merged = {}
        for t, w in pairs:
            t, w = float(t), float(w)
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
            "atoms": [{"t": t, "jump": d} for t, d in self.atoms],
            "density_knots": [{"t": t, "value": v} for t, v in self.density_knots],
        }

    @classmethod
    def from_json_dict(cls, data):
        problems = []
        if not isinstance(data, dict):
            raise MeasureValidationError(["measure spec must be a JSON object"])
        atoms = []
        for k, entry in enumerate(data.get("atoms", []) or []):
            if not isinstance(entry, dict) or "t" not in entry or "jump" not in entry:
                problems.append(f'atoms[{k}]: expected an object with "t" and "jump"')
                continue
            try:
                atoms.append((float(entry["t"]), float(entry["jump"])))
            except (TypeError, ValueError):
                problems.append(f"atoms[{k}]: non-numeric entry {entry!r}")
        knots = []
        for j, entry in enumerate(data.get("density_knots", []) or []):
            if not isinstance(entry, dict) or "t" not in entry or "value" not in entry:
                problems.append(
                    f'density_knots[{j}]: expected an object with "t" and "value"'
                )
                continue
            try:
                knots.append((float(entry["t"]), float(entry["value"])))
            except (TypeError, ValueError):
                problems.append(f"density_knots[{j}]: non-numeric entry {entry!r}")
        unknown = set(data) - {"atoms", "density_knots"}
        if unknown:
            problems.append(f"unknown keys: {sorted(unknown)}")
        if problems:
            raise MeasureValidationError(problems)
        return cls(atoms=tuple(atoms), density_knots=tuple(knots))


def load_measure(path):
    """Load a measure-spec JSON file, validating and itemizing all errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MeasureValidationError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise MeasureValidationError([f"invalid JSON in {path}: {exc}"]) from exc
    measure = BoundaryMeasure.from_json_dict(data)
    measure.require_valid()
    return measure
