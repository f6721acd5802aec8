"""Command-line front end: evaluate, verify, trace, and run growth experiments.

Subcommands: eval, verify, beta, growth, qtheta.  Functions come from a
measure-spec JSON file (--measure) or the gallery (--gallery).  Exit codes:
0 success, 1 failed verification, 2 invalid input, 3 domain error,
4 accuracy not met.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (
    _bound_ratios,
    beta_trace,
    default_r_schedule,
    growth_exponent,
    spirallikeness_margin,
)
from .boundary_measure import BoundaryMeasure, load_measure
from .correspondence import spirallike_of
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    MeasureValidationError,
    ParameterError,
    SpirallikeError,
)
from .gallery import DEFAULT_C0, G0Function, HansenParams, c0_constant, hansen_build, q_function
from .representation import MeasureFunction
from .spiral_geometry import SpiralAngle, arg_lambda

GALLERY_CHOICES = ("koebe", "identity", "g0", "hansen")


def parse_complex(text):
    """Parse 'a+bi' complex literals without locale dependence."""
    s = re.sub(r"\s+", "", str(text)).replace("I", "i").replace("i", "j")
    try:
        value = complex(s)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex literal {text!r}") from exc
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ConfigError(f"complex literal {text!r} is not finite")
    return value


def parse_r_schedule(text):
    """Parse 'kmin:kmax' into the radii 1 - 10^-k."""
    m = re.fullmatch(r"(\d+):(\d+)", str(text).strip())
    if not m:
        raise ConfigError(f"--r-k expects 'kmin:kmax', got {text!r}")
    return int(m.group(1)), int(m.group(2))


@dataclass
class RunConfig:
    command: str
    measure_path: str = None
    gallery: str = None
    lam: float = 0.0
    z: complex = 0.0j
    alpha: float = None
    beta_exp: float = 1.0
    c: float = None
    A: float = None
    t_grid: int = 256
    grid_r: int = 48
    grid_theta: int = 512
    r_max: float = 0.999
    coarse: int = 1024
    k_min: int = 2
    k_max: int = 6
    qtheta_grid: int = 100000
    out: str = None
    fmt: str = None

    def validate(self):
        if not (-np.pi / 2 < self.lam < np.pi / 2):
            raise ConfigError(f"lambda = {self.lam} outside (-pi/2, pi/2)")
        if not (0 < self.k_min < self.k_max <= 12):
            raise ConfigError(
                f"r-schedule exponents need 0 < k_min < k_max <= 12, got {self.k_min}:{self.k_max}"
            )
        for name in ("t_grid", "grid_r", "grid_theta", "coarse"):
            if getattr(self, name) < 16:
                raise ConfigError(f"--{name.replace('_', '-')} must be at least 16")
        if self.qtheta_grid < 1000:
            raise ConfigError("--qtheta-grid must be at least 1000")
        if self.fmt not in (None, "csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if not (0.0 < self.r_max < 1.0):
            raise ConfigError(f"--r-max must lie in (0, 1), got {self.r_max}")
        if self.command != "qtheta" and not (self.measure_path or self.gallery):
            raise ConfigError("need one of --measure or --gallery")


def build_function(cfg):
    """Construct the requested SpiralFunction and its angle."""
    angle = SpiralAngle(cfg.lam)
    if cfg.measure_path:
        measure = load_measure(cfg.measure_path)
        return MeasureFunction(measure, angle), angle
    if cfg.gallery == "koebe":
        return MeasureFunction(BoundaryMeasure.single_atom(), angle), angle
    if cfg.gallery == "identity":
        return MeasureFunction(BoundaryMeasure.uniform(), angle), angle
    if cfg.gallery == "g0":
        return spirallike_of(G0Function(), angle), angle
    if cfg.gallery == "hansen":
        alpha = cfg.alpha
        if cfg.A is not None:
            alpha = cfg.A / np.pi
        if alpha is None:
            alpha = 1.0
        c = cfg.c if cfg.c is not None else min(0.3, 0.99 / np.log(DEFAULT_C0))
        g = hansen_build(HansenParams(alpha=alpha, beta_exp=cfg.beta_exp, c=c))
        return spirallike_of(g, angle), angle
    raise ConfigError(f"unknown gallery entry {cfg.gallery!r}")


def _emit(cfg, text):
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_complex(value):
    return f"{value.real:.15g}{value.imag:+.15g}i"


def cmd_eval(cfg):
    fn, angle = build_function(cfg)
    z = cfg.z
    if abs(z) >= 1.0:
        raise DomainError(f"|z| = {abs(z)} is not inside the unit disk")
    record = {
        "f": fn.evaluate(z),
        "log_f_over_z": fn.log_f_over_z(z),
        "log_derivative": fn.log_derivative(z),
        "arg_lambda_f_over_z": arg_lambda(fn.f_over_z(z), angle),
    }
    if cfg.fmt == "json":
        payload = {
            key: ([val.real, val.imag] if isinstance(val, complex) else val)
            for key, val in record.items()
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif cfg.fmt == "csv":
        lines = ["quantity,re,im"]
        for key, val in record.items():
            val = complex(val)
            lines.append(f"{key},{val.real:.15g},{val.imag:.15g}")
        text = "\n".join(lines) + "\n"
    else:
        lines = []
        for key, val in record.items():
            shown = _fmt_complex(val) if isinstance(val, complex) else f"{val:.15g}"
            lines.append(f"{key} = {shown}")
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return 0


def cmd_verify(cfg):
    fn, angle = build_function(cfg)
    margin = spirallikeness_margin(
        fn, angle, r_max=cfg.r_max, grid=(cfg.grid_r, cfg.grid_theta)
    )
    if cfg.fmt == "json":
        text = json.dumps({"margin": margin, "lambda": cfg.lam}, indent=2) + "\n"
    else:
        text = f"margin = {margin:.15g}\n"
    _emit(cfg, text)
    return 0 if margin > 0.0 else 1


def cmd_beta(cfg):
    fn, angle = build_function(cfg)
    schedule = default_r_schedule(cfg.k_min, cfg.k_max)
    trace = beta_trace(fn, angle, t_grid=cfg.t_grid, r_schedule=schedule)
    if cfg.fmt == "json":
        text = (
            json.dumps(
                {
                    "radius_used": trace.radius_used,
                    "t": list(trace.t_samples),
                    "beta_estimate": list(trace.beta_values),
                },
                indent=2,
            )
            + "\n"
        )
    else:
        lines = ["t,beta_estimate"]
        for t, b in zip(trace.t_samples, trace.beta_values):
            lines.append(f"{t:.15g},{b:.15g}")
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return 0


def cmd_growth(cfg):
    fn, angle = build_function(cfg)
    schedule = default_r_schedule(cfg.k_min, cfg.k_max)
    report = growth_exponent(fn, angle, r_schedule=schedule, coarse=cfg.coarse)
    radii, peaks, _ = zip(*report.rows)
    ratios = _bound_ratios(radii, peaks, report.predicted_q0)
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    fails = increasing and len(ratios) >= 2 and ratios[-1] > 1.5 * ratios[0]
    if cfg.fmt == "json":
        text = (
            json.dumps(
                {
                    "rows": [
                        {"r": r, "M": M, "E": E, "ratio": ratio}
                        for (r, M, E), ratio in zip(report.rows, ratios)
                    ],
                    "predicted_q0": report.predicted_q0,
                    "a_estimate": report.a_estimate,
                    "o_bound_fails": fails,
                },
                indent=2,
            )
            + "\n"
        )
    else:
        lines = ["r,M,E,ratio"]
        for (r, M, E), ratio in zip(report.rows, ratios):
            lines.append(f"{r:.15g},{M:.15g},{E:.15g},{ratio:.15g}")
        lines.append(f"# predicted_q0 = {report.predicted_q0:.15g}")
        lines.append(f"# a_estimate = {report.a_estimate:.15g}")
        if fails:
            lines.append("# O-bound fails: ratio column increases without settling")
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return 0


def cmd_qtheta(cfg):
    sup_q, c0, monotone = c0_constant(cfg.qtheta_grid)
    theta = np.linspace(0.0, np.pi / 2.0, cfg.qtheta_grid + 2)[1:-1]
    values = q_function(theta)
    if cfg.fmt == "json":
        text = (
            json.dumps(
                {
                    "sup_q": sup_q,
                    "c0": c0,
                    "monotone": monotone,
                    "rows": [[float(t), float(q)] for t, q in zip(theta, values)],
                }
            )
            + "\n"
        )
    else:
        lines = [
            f"# sup_Q = {sup_q:.15g}",
            f"# C0 = {c0:.15g}",
            f"# monotone_decreasing = {str(monotone).lower()}",
            "theta,Q",
        ]
        lines.extend(f"{t:.15g},{q:.15g}" for t, q in zip(theta, values))
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "verify": cmd_verify,
    "beta": cmd_beta,
    "growth": cmd_growth,
    "qtheta": cmd_qtheta,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spirallike",
        description="Spirallike functions from boundary measures: evaluation and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--measure", dest="measure_path", help="measure-spec JSON path")
        p.add_argument("--gallery", choices=GALLERY_CHOICES)
        p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                       help="spiral inclination in radians")
        p.add_argument("--alpha", type=float, help="growth exponent of the hansen gallery entry")
        p.add_argument("--beta-exp", dest="beta_exp", type=float, default=1.0)
        p.add_argument("--c", type=float, help="hansen log-factor coefficient")
        p.add_argument("--A", type=float, help="target boundary jump; sets alpha = A/pi")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"))

    p_eval = sub.add_parser("eval", help="evaluate f, log(f/z), zf'/f, arg_lambda(f/z)")
    add_common(p_eval)
    p_eval.add_argument("--z", type=parse_complex, default=0.25 + 0.0j,
                        help="evaluation point 'a+bi'")

    p_verify = sub.add_parser("verify", help="grid-check the spirallike inequality")
    add_common(p_verify)
    p_verify.add_argument("--grid-r", dest="grid_r", type=int, default=48)
    p_verify.add_argument("--grid-theta", dest="grid_theta", type=int, default=512)
    p_verify.add_argument("--r-max", dest="r_max", type=float, default=0.999)

    p_beta = sub.add_parser("beta", help="trace the boundary function")
    add_common(p_beta)
    p_beta.add_argument("--t-grid", dest="t_grid", type=int, default=256)
    p_beta.add_argument("--r-k", dest="r_k", type=parse_r_schedule, default=(2, 6),
                        help="radii 1-10^-k for k in 'kmin:kmax'")

    p_growth = sub.add_parser("growth", help="growth table and O-bound check")
    add_common(p_growth)
    p_growth.add_argument("--r-k", dest="r_k", type=parse_r_schedule, default=(2, 8))
    p_growth.add_argument("--coarse", type=int, default=1024,
                          help="coarse circle samples for the max modulus")

    p_q = sub.add_parser("qtheta", help="Q(theta) table and the C0 constant")
    add_common(p_q)
    p_q.add_argument("--qtheta-grid", dest="qtheta_grid", type=int, default=100000)
    return parser


def _config_from_args(args):
    cfg = RunConfig(command=args.command)
    for field in vars(cfg):
        if hasattr(args, field):
            setattr(cfg, field, getattr(args, field))
    if getattr(args, "r_k", None) is not None:
        cfg.k_min, cfg.k_max = args.r_k
    cfg.validate()
    return cfg


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except BrokenPipeError:
        # Reading side of a pipeline (e.g. `| head`) closed early; point
        # stdout at devnull so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (MeasureValidationError, ParameterError, ConfigError) as exc:
        if isinstance(exc, MeasureValidationError):
            for line in exc.violations:
                print(f"error: {line}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SpirallikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
