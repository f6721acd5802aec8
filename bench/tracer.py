"""Span tracer that wraps the public functions of each spirallike layer.

Layers are the package modules.  `Tracer.install` replaces every public
function, and every public method of the classes a layer defines, with a
wrapper that records a span (layer, name, start, end, parent) plus the work
counts the per-layer metrics need.  Functions are replaced wherever callers
look them up: the defining module, every other package module that imported
them (`spirallike.representation.li3`, `spirallike.cli.beta_trace`, ...),
the package namespace itself, and module-level dicts such as the CLI's
subcommand table.  `uninstall` restores the originals, so one process can
alternate traced and untraced runs of the same work.

Spans are kept in memory; `summary` folds them into per-layer totals, where
a span's self time is its duration minus the time its child spans cover.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "polylog",
    "representation",
    "boundary_measure",
    "spiral_geometry",
    "correspondence",
    "gallery",
    "analysis",
    "cli",
)

# Analysis routines reported one by one.
ANALYSIS_ROUTINES = (
    "beta_trace",
    "goodman_check",
    "refine_jump",
    "max_modulus",
    "growth_exponent",
    "spirallikeness_margin",
    "detect_maximal_sector",
)

# Methods and functions whose first point argument is counted as evaluated
# points (index into the positional arguments).
_POINT_ARG = {
    ("representation", "log_f_over_z"): 1,
    ("representation", "log_derivative"): 1,
    ("representation", "f_over_z"): 1,
    ("representation", "evaluate"): 1,
    ("gallery", "log_f_over_z"): 1,
    ("gallery", "log_derivative"): 1,
    ("gallery", "g0_correction"): 0,
    ("gallery", "g0_log_derivative"): 0,
    ("gallery", "q_function"): 0,
    ("polylog", "li2"): 0,
    ("polylog", "li3"): 0,
}

# Bookkeeping done after a wrapped call ends is recorded as a span of this
# pseudo-layer, so it is not charged to the caller's self time.
TRACE_LAYER = "trace"


def _outputs(name, bound, result):
    """Output samples of the analysis routines with a useful-work ratio."""
    if name == "beta_trace":
        return len(result.t_samples) * len(result.refinement_record)
    if name == "goodman_check":
        n_theta, n_steps = bound.arguments["grid"]
        return int(n_theta) * int(n_steps)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)
        self._patches = []
        self._installed = False

    # -- patching ------------------------------------------------------

    def install(self):
        if self._installed:
            return
        package = importlib.import_module("spirallike")
        modules = {name: importlib.import_module(f"spirallike.{name}") for name in LAYERS}
        lookups = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, layer, attr)
                    for owner in lookups:
                        self._replace_everywhere(owner, obj, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        self._installed = True

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
        self._installed = False

    def _replace_everywhere(self, module, original, wrapped):
        for key, value in list(vars(module).items()):
            if value is original:
                self._patches.append((module, key, original, False))
                setattr(module, key, wrapped)
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        self._patches.append((value, dkey, original, True))
                        value[dkey] = wrapped

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                continue
            if inspect.isfunction(member):
                replacement = self._wrap(member, layer, attr)
            elif isinstance(member, classmethod):
                replacement = classmethod(self._wrap(member.__func__, layer, attr))
            elif isinstance(member, staticmethod):
                replacement = staticmethod(self._wrap(member.__func__, layer, attr))
            else:
                continue
            self._patches.append((cls, attr, member, False))
            setattr(cls, attr, replacement)

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, layer, name):
        point_arg = _POINT_ARG.get((layer, name))
        signature = inspect.signature(fn) if (layer, name) == ("analysis", "goodman_check") else None
        spans = self.spans
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            outer = depth[layer] == 0
            same_name_outer = depth[(layer, name)] == 0
            spans.append(None)
            stack.append(index)
            depth[layer] += 1
            depth[(layer, name)] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                depth[layer] -= 1
                depth[(layer, name)] -= 1
                stack.pop()
                spans[index] = (layer, name, t0, t1, parent, outer, same_name_outer,
                                0, 0, 0, 0)
                raise
            t1 = clock()
            depth[layer] -= 1
            depth[(layer, name)] -= 1
            stack.pop()
            points = scalar = zeta = outputs = 0
            if outer and point_arg is not None and len(args) > point_arg:
                z = args[point_arg]
                points = int(np.size(z))
                scalar = int(np.ndim(z) == 0)
                if layer == "polylog":
                    u = np.asarray(z)
                    zeta = int(np.count_nonzero((np.abs(u) > 0.5) & (u != 1.0)))
            if layer == "analysis" and name in ("beta_trace", "goodman_check"):
                bound = None
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                outputs = _outputs(name, bound, result)
            spans[index] = (layer, name, t0, t1, parent, outer, same_name_outer,
                            points, scalar, zeta, outputs)
            t2 = clock()
            spans.append((TRACE_LAYER, "bookkeeping", t1, t2, parent, True, True,
                          0, 0, 0, 0))
            return result

        return functools.wraps(fn)(traced)

    # -- aggregation ---------------------------------------------------

    def summary(self):
        """Per-layer totals over all recorded spans.

        Returns a dict with, per layer: calls (spans not nested in the same
        layer), self_s, points, scalar_calls, zeta_points; per analysis
        routine: calls, time_s (inclusive), outputs, points_below (points the
        representation layer evaluated beneath the call).
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, _, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        layers = {name: defaultdict(float) for name in (*LAYERS, TRACE_LAYER)}
        routines = {name: defaultdict(float) for name in ANALYSIS_ROUTINES}
        points_below = [0] * len(spans)
        for index, span in enumerate(spans):
            layer, name, t0, t1, parent, outer, same_name_outer, points, scalar, zeta, outputs = span
            acc = layers[layer]
            acc["self_s"] += (t1 - t0) - child_time[index]
            if outer:
                acc["calls"] += 1
                acc["points"] += points
                acc["scalar_calls"] += scalar
                acc["zeta_points"] += zeta
            if layer == "representation" and outer and points:
                ancestor = parent
                while ancestor >= 0:
                    if spans[ancestor][0] == "analysis":
                        points_below[ancestor] += points
                    ancestor = spans[ancestor][4]
        for index, span in enumerate(spans):
            layer, name, t0, t1, parent, outer, same_name_outer, *_, outputs = span
            if layer == "analysis" and name in routines and same_name_outer:
                acc = routines[name]
                acc["calls"] += 1
                acc["time_s"] += t1 - t0
                acc["outputs"] += outputs
                acc["points_below"] += points_below[index]
        return {
            "layers": {k: dict(v) for k, v in layers.items()},
            "routines": {k: dict(v) for k, v in routines.items()},
        }


def merge_summaries(summaries):
    """Sum several `Tracer.summary` results (one per traced process)."""
    out = {"layers": defaultdict(lambda: defaultdict(float)),
           "routines": defaultdict(lambda: defaultdict(float))}
    for summary in summaries:
        for group in ("layers", "routines"):
            for name, values in summary[group].items():
                for key, value in values.items():
                    out[group][name][key] += value
    return {group: {k: dict(v) for k, v in out[group].items()} for group in out}


def layer_metrics(summary, units, wall_s, extra):
    """Per-layer metrics per unit of work from a (merged) summary.

    units: number of traced work units (CLI cycles, kernel rounds or suite
    passes) the summary covers; wall_s: their total timed duration; extra:
    metrics the workload measured outside the tracer.
    """
    layers = summary["layers"]
    routines = summary["routines"]

    def layer(name, key):
        return float(layers.get(name, {}).get(key, 0.0))

    def per_unit(value):
        return value / units

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    poly_points = layer("polylog", "points")
    m["polylog.points"] = per_unit(poly_points)
    m["polylog.self_s"] = per_unit(layer("polylog", "self_s"))
    m["polylog.ns_per_point"] = ratio(layer("polylog", "self_s") * 1e9, poly_points)
    m["polylog.zeta_share"] = ratio(layer("polylog", "zeta_points"), poly_points)
    rep_points = layer("representation", "points")
    m["representation.calls"] = per_unit(layer("representation", "calls"))
    m["representation.scalar_calls"] = per_unit(layer("representation", "scalar_calls"))
    m["representation.points"] = per_unit(rep_points)
    m["representation.self_s"] = per_unit(layer("representation", "self_s"))
    m["representation.ns_per_point"] = ratio(layer("representation", "self_s") * 1e9, rep_points)
    m["analysis.self_s"] = per_unit(layer("analysis", "self_s"))
    outputs = points = 0.0
    for name in ANALYSIS_ROUTINES:
        r = routines.get(name, {})
        m[f"analysis.{name}.s"] = per_unit(float(r.get("time_s", 0.0)))
        m[f"analysis.{name}.calls"] = per_unit(float(r.get("calls", 0.0)))
        if name in ("beta_trace", "goodman_check"):
            out_n = float(r.get("outputs", 0.0))
            pts_n = float(r.get("points_below", 0.0))
            m[f"analysis.{name}.outputs_per_point"] = ratio(out_n, pts_n)
            outputs += out_n
            points += pts_n
    m["analysis.outputs_per_point"] = ratio(outputs, points)
    m["gallery.points"] = per_unit(layer("gallery", "points"))
    for name in ("gallery", "boundary_measure", "spiral_geometry", "correspondence", "cli"):
        m[f"{name}.self_s"] = per_unit(layer(name, "self_s"))
    for name in ("boundary_measure", "spiral_geometry", "correspondence"):
        m[f"{name}.calls"] = per_unit(layer(name, "calls"))
    m["trace.self_s"] = per_unit(layer(TRACE_LAYER, "self_s"))
    m["trace.layer_self_s"] = per_unit(sum(layer(name, "self_s") for name in LAYERS))
    m["trace.wall_s"] = per_unit(wall_s)
    m.update(extra)
    return m
