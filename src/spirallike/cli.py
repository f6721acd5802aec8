"""Command-line front end: evaluate, verify, trace, and run growth experiments.

Subcommands: eval, verify, beta, growth, qtheta.  Functions come from a
measure-spec JSON file (--measure) or the gallery (--gallery).  Exit codes:
0 success, 1 failed verification, 2 invalid input, 3 domain error,
4 accuracy not met.

Importing this module loads only the package's errors; each subcommand
imports, where it runs, the modules its branch uses.  A subcommand returns
its exit code and its output as an iterable of text chunks, and main writes
them to stdout or --out as they come.
"""

import argparse
import gc
import itertools
import os
import re
import sys

import numpy as np

from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    MeasureValidationError,
    ParameterError,
    SpirallikeError,
)

GALLERY_CHOICES = ("koebe", "identity", "g0", "hansen")

# exit code of each package error; the first matching class wins
_EXIT_CODES = (
    ((ParameterError, ConfigError, MeasureValidationError), 2),
    (DomainError, 3),
    (AccuracyError, 4),
    (SpirallikeError, 1),
)


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
    """Parse 'kmin:kmax' into the exponents of the radii 1 - 10^-k."""
    m = re.fullmatch(r"(\d+):(\d+)", str(text).strip())
    if not m:
        raise ConfigError(f"--r-k expects 'kmin:kmax', got {text!r}")
    k_min, k_max = int(m.group(1)), int(m.group(2))
    if not (0 < k_min < k_max <= 12):
        raise ConfigError(
            f"r-schedule exponents need 0 < k_min < k_max <= 12, got {k_min}:{k_max}"
        )
    return k_min, k_max


def _checked(convert, ok, message):
    """argparse type: convert(text), ConfigError with message unless ok(value)."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise ConfigError(message.format(value))
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_LAMBDA = _checked(float, lambda v: abs(v) < np.pi / 2, "lambda = {} outside (-pi/2, pi/2)")
_R_MAX = _checked(float, lambda v: 0.0 < v < 1.0, "--r-max must lie in (0, 1), got {}")


# the largest --t-grid and --qtheta-grid.  A cold call at 10^6 peaks at
# 191 MB resident for beta on koebe's 5 default radii (404 MB on 12 radii),
# and at 68 MB for the qtheta table (281 MB as JSON; perf/stream_time.py).
# At 10^12 numpy cannot allocate the arrays
_GRID_MAX = 10**6


def _grid(flag, least=16):
    return _checked(int, lambda n: least <= n <= _GRID_MAX,
                    f"{flag} must lie in [{least}, {_GRID_MAX}], got {{}}")


def build_function(args):
    """Construct the SpiralFunction named by --measure or --gallery."""
    from .spiral_geometry import SpiralAngle

    # the hansen flags default below, so that one given with another function is refused
    hansen = {k: getattr(args, k) for k in ("alpha", "A", "beta_exp", "c")
              if getattr(args, k) is not None}
    if hansen and args.gallery != "hansen":
        flags = ", ".join("--" + k.replace("_", "-") for k in hansen)
        raise ConfigError(f"only --gallery hansen takes {flags}")
    angle = SpiralAngle(args.lam)
    if args.measure_path or args.gallery in ("koebe", "identity"):
        from .boundary_measure import BoundaryMeasure, load_measure
        from .representation import MeasureFunction

        if args.measure_path:
            measure = load_measure(args.measure_path)
        elif args.gallery == "koebe":
            measure = BoundaryMeasure.single_atom()
        else:
            measure = BoundaryMeasure.uniform()
        return MeasureFunction(measure, angle)
    if args.gallery in ("g0", "hansen"):
        from .correspondence import spirallike_of
        from .gallery import DEFAULT_C, G0Function, HansenFunction, HansenParams

        if args.gallery == "g0":
            return spirallike_of(G0Function(), angle)
        if "A" in hansen:
            hansen["alpha"] = hansen.pop("A") / np.pi
        params = HansenParams(**{"alpha": 1.0, "beta_exp": 1.0, "c": DEFAULT_C, **hansen})
        return spirallike_of(HansenFunction(params), angle)
    raise ConfigError("need one of --measure or --gallery")


def _json(payload, indent=2):
    """payload as JSON text in one chunk: its cost is json's float repr, which blocks would not cut."""
    import json  # here, not at module level: only --format json writes JSON

    return (json.dumps(payload, indent=indent) + "\n",)


def cmd_eval(args):
    fn, z = build_function(args), args.z
    record = {
        "f": fn.evaluate(z),
        "log_f_over_z": fn.log_f_over_z(z),
        "log_derivative": fn.log_derivative(z),
        "arg_lambda_f_over_z": fn.arg_lambda_f_over_z(z),
    }
    if args.fmt == "json":
        return 0, _json({
            key: ([val.real, val.imag] if isinstance(val, complex) else val)
            for key, val in record.items()
        })
    if args.fmt == "csv":
        cells = {key: complex(val) for key, val in record.items()}
        rows = (f"{key},{v.real:.15g},{v.imag:.15g}\n" for key, v in cells.items())
        return 0, ("quantity,re,im\n" + "".join(rows),)
    shown = {
        key: f"{val.real:.15g}{val.imag:+.15g}i" if isinstance(val, complex) else f"{val:.15g}"
        for key, val in record.items()
    }
    return 0, ("".join(f"{key} = {val}\n" for key, val in shown.items()),)


def cmd_verify(args):
    from .analysis import spirallikeness_margin

    fn = build_function(args)
    margin = spirallikeness_margin(fn, r_max=args.r_max)
    code = 0 if margin > 0.0 else 1
    if args.fmt == "json":
        return code, _json({"margin": margin, "lambda": args.lam})
    return code, (f"margin = {margin:.15g}\n",)


def cmd_beta(args):
    from .analysis import beta_trace, default_r_schedule

    fn = build_function(args)
    trace = beta_trace(fn, t_grid=args.t_grid, r_schedule=default_r_schedule(*args.r_k))
    if args.fmt == "json":
        return 0, _json({
            "radius_used": trace.radius_used,
            "t": trace.t_samples.tolist(),
            "beta_estimate": trace.beta_values.tolist(),
        })
    from .formatting import csv_blocks

    return 0, csv_blocks("t,beta_estimate", trace.t_samples, trace.beta_values)


def cmd_growth(args):
    from .analysis import _bound_ratios, default_r_schedule, growth_exponent

    fn = build_function(args)
    report = growth_exponent(fn, r_schedule=default_r_schedule(*args.r_k))
    radii, peaks, exponents = zip(*report.rows)
    ratios = _bound_ratios(radii, peaks, report.predicted_q0)
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    fails = increasing and len(ratios) >= 2 and ratios[-1] > 1.5 * ratios[0]
    if args.fmt == "json":
        return 0, _json({
            "rows": [
                {"r": r, "M": M, "E": E, "ratio": ratio}
                for (r, M, E), ratio in zip(report.rows, ratios)
            ],
            "predicted_q0": report.predicted_q0,
            "a_estimate": report.a_estimate,
            "o_bound_fails": fails,
        })
    from .formatting import csv_blocks

    tail = f"# predicted_q0 = {report.predicted_q0:.15g}\n"
    tail += f"# a_estimate = {report.a_estimate:.15g}\n"
    if fails:
        tail += "# O-bound fails: ratio column increases without settling\n"
    return 0, itertools.chain(csv_blocks("r,M,E,ratio", radii, peaks, exponents, ratios), (tail,))


def cmd_qtheta(args):
    from .threshold import _SUP_Q as sup_q, DEFAULT_C0 as c0, _q_table

    theta, values, monotone = _q_table(args.qtheta_grid)
    if args.fmt == "json":
        rows = np.column_stack((theta, values)).tolist()
        return 0, _json({"sup_q": sup_q, "c0": c0, "monotone": monotone, "rows": rows}, None)
    from .formatting import csv_blocks

    head = "# sup_Q = %.15g\n# C0 = %.15g\n# monotone_decreasing = %s\ntheta,Q"
    return 0, csv_blocks(head % (sup_q, c0, str(monotone).lower()), theta, values)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments when it first parses.

    A call runs one subcommand, so the other four never build theirs; the
    top-level help and its errors show each only by name and help line.
    """

    def __init__(self, *, add_arguments, **kwargs):
        super().__init__(**kwargs)
        self._pending = add_arguments

    def add_arguments(self):
        """Add this subcommand's arguments, once."""
        pending, self._pending = self._pending, None
        if pending is not None:
            pending(self)

    def parse_known_args(self, args=None, namespace=None):
        self.add_arguments()
        return super().parse_known_args(args, namespace)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spirallike",
        description="Spirallike functions from boundary measures: evaluation and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    def add_command(name, run, help, own, builds_function=True, formats=("csv", "json")):
        def add_arguments(p):
            if builds_function:
                source = p.add_mutually_exclusive_group()
                source.add_argument("--measure", dest="measure_path", help="measure-spec JSON path")
                source.add_argument("--gallery", choices=GALLERY_CHOICES)
                p.add_argument("--lambda", dest="lam", type=_LAMBDA, default=0.0,
                               help="spiral inclination in radians")
                jump = p.add_mutually_exclusive_group()
                jump.add_argument("--alpha", type=float,
                                  help="growth exponent of the hansen gallery entry")
                jump.add_argument("--A", type=float, help="target boundary jump; sets alpha = A/pi")
                p.add_argument("--beta-exp", type=float)
                p.add_argument("--c", type=float, help="hansen log-factor coefficient")
            p.add_argument("--out", help="write output to this path instead of stdout")
            p.add_argument("--format", dest="fmt", choices=formats)
            for flag, options in own.items():
                p.add_argument(flag, **options)

        sub.add_parser(name, help=help, add_arguments=add_arguments).set_defaults(run=run)

    add_command("eval", cmd_eval, "evaluate f, log(f/z), zf'/f, arg_lambda(f/z)",
                {"--z": dict(type=parse_complex, default=0.25 + 0.0j,
                             help="evaluation point 'a+bi'")})
    add_command("verify", cmd_verify, "check the spirallike inequality on |z| = r_max",
                {"--r-max": dict(type=_R_MAX, default=0.999)}, formats=("json",))
    add_command("beta", cmd_beta, "trace the boundary function",
                {"--t-grid": dict(type=_grid("--t-grid"), default=256),
                 "--r-k": dict(type=parse_r_schedule, default=(2, 6),
                               help="radii 1-10^-k for k in 'kmin:kmax'")})
    add_command("growth", cmd_growth, "growth table and O-bound check",
                {"--r-k": dict(type=parse_r_schedule, default=(2, 8))})
    add_command("qtheta", cmd_qtheta, "Q(theta) table and the C0 constant",
                {"--qtheta-grid": dict(type=_grid("--qtheta-grid", 1000), default=100000)},
                builds_function=False)
    return parser


def _write(chunks, path):
    """Write the text chunks to the file path, or to stdout if there is none, as they come.

    The subcommand has finished its numeric work when it returns the
    chunks, so an error exits before any output and before path is created.
    No chunk is kept once written, so the whole table never stands in memory
    as one string or one encoded copy.  A reader that closes stdout early
    ends the writing, and main still returns the subcommand's exit code.
    """
    if not path:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # a pipe closed after the last chunk raises here, not at exit
        except BrokenPipeError:
            # the reading side of a pipeline (e.g. `| head`) closed early.
            # Point stdout at devnull so the interpreter's exit-time flush
            # stays quiet; the exit code stays the subcommand's.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        code, chunks = args.run(args)
        _write(chunks, args.out)
        return code
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except SpirallikeError as exc:
        for line in getattr(exc, "violations", [exc]):
            print(f"error: {line}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def entry():
    """Run main() as a process's last work and return its exit code.

    `python -m spirallike` and the `spirallike` console script both call
    this.  gc.freeze() moves every object the interpreter, the imports and
    the call left into the collector's permanent generation, so that the
    collections of interpreter shutdown skip them: about 21,000 objects,
    9,000 of them from importing numpy.  The rest of shutdown still runs:
    atexit handlers and the stdio flush (into /dev/null once main() has met
    a closed pipe).  main() itself does not freeze, so an in-process caller
    keeps a collectable heap.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
