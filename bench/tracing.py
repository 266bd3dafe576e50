"""Outside-in span tracing of the surfconv layers.

The tracer wraps chosen functions of the package from outside: nothing under
`src/` changes.  Each call becomes a span (name, start, end, parent span,
counts).  Spans stay in memory while the workload runs; the layer metrics are
derived from them afterwards, with self time computed from how spans nest.

A function imported with `from .x import y` is bound under its name in every
importing module, so `install` replaces every binding of the original object
across the loaded `surfconv` modules, not only the one in the defining module.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- counters: (args, kwargs, result) -> counts recorded on the span ---------


def _count_convolve_many(args, kwargs, result) -> dict:
    """Work of one SurfaceMeasure.convolve_many(test_set, zs) call.

    The candidate count is z times the cube index window the kernel scans
    (2 * floor(half_width / spacing) + 3 offsets per head axis); atoms inside
    the set are recovered from the returned masses divided by spacing^k.
    """
    measure, test_set = args[0], args[1]
    lo, hi = test_set.bounding_box()
    k, spacing = measure.k, measure.spacing
    window = math.prod(2 * int((hi[i] - lo[i]) / 2.0 / spacing) + 3 for i in range(k))
    z = len(result)
    atoms = round(float(result.sum()) / spacing**k)
    return {
        "z": z,
        "candidates": z * window,
        "atoms": atoms,
        "zeros": int((result == 0).sum()),
        "bytes_computed": z * window * measure.d * 8,
    }


def _count_lq_norm_mc(args, kwargs, result) -> dict:
    return {"low_conf": int(bool(result.low_confidence))}


def _count_evaluate(args, kwargs, result) -> dict:
    return {"points": result.size, "bytes_computed": result.size * args[0].dim * 8}


def _count_ordered_map(args, kwargs, result) -> dict:
    return {"tasks": len(result)}


# (module, attribute path, span name, counter).  The layer set and the
# functions follow the package's module split; span names are layer.function.
TARGETS = [
    ("surfconv.cli", "main", "cli.main", None),
    ("surfconv.suites", "run_suite", "suites.run_suite", None),
    ("surfconv.convolution", "SurfaceMeasure.convolve_many", "convolution.convolve_many",
     _count_convolve_many),
    ("surfconv.convolution", "lq_norm_mc", "convolution.lq_norm_mc", _count_lq_norm_mc),
    ("surfconv.convolution", "shell_bilinear_estimate", "convolution.shell_bilinear_estimate",
     None),
    ("surfconv.convolution", "ball_scaling_experiment", "convolution.ball_scaling_experiment",
     None),
    ("surfconv.convolution", "restricted_estimate_scan", "convolution.restricted_estimate_scan",
     None),
    ("surfconv.gaussians", "GaussianSpec.evaluate", "gaussians.evaluate", _count_evaluate),
    ("surfconv.pullback", "pullback_weight_ratio", "pullback.pullback_weight_ratio", None),
    ("surfconv.pullback", "region_weight_ratio", "pullback.region_weight_ratio", None),
    ("surfconv.pullback", "plancherel_ratio", "pullback.plancherel_ratio", None),
    ("surfconv.pullback", "region_cover_factor", "pullback.region_cover_factor", None),
    ("surfconv.surface", "check_submatrices", "surface.check_submatrices", None),
    ("surfconv.surface", "comparability_constant", "surface.comparability_constant", None),
    ("surfconv.transform", "plane_transform", "transform.plane_transform", None),
    ("surfconv.transform", "pairing_check", "transform.pairing_check", None),
    ("surfconv.transform", "fourier_check", "transform.fourier_check", None),
    ("surfconv.transform", "oscillatory_sup_bound", "transform.oscillatory_sup_bound", None),
    ("surfconv.parallel", "ordered_map", "parallel.ordered_map", _count_ordered_map),
]


class Tracer:
    """Collects spans from wrapped functions; `install`/`uninstall` patch them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target, in every surfconv module that bound it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "surfconv" or n.startswith("surfconv."))]
        for module_name, path, name, counter in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules[module_name]
            if owner_name:
                owner = getattr(owner, owner_name)
                self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], counter))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, counter)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- aggregation --------------------------------------------------------------


def _self_time(span: Span, children: list) -> float:
    """Span duration minus the part of it covered by its child spans."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def _ancestor_named(span: Span, name: str) -> "Span | None":
    node = span.parent
    while node is not None and node.name != name:
        node = node.parent
    return node


def summarize(spans: list) -> dict:
    """Per span name: calls, busy seconds (outermost spans), self seconds, counts."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    stats: dict = {}
    for _, _, name, _ in TARGETS:
        stats[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}}
    for span in spans:
        entry = stats[span.name]
        entry["calls"] += 1
        if _ancestor_named(span, span.name) is None:
            entry["s"] += span.duration
        entry["self_s"] += _self_time(span, children.get(id(span), []))
        for key, value in span.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    # convolution samples taken on behalf of an lq_norm_mc call
    mc = stats["convolution.lq_norm_mc"]["counts"]
    for key in ("samples", "zero_samples"):
        mc.setdefault(key, 0)
    for span in spans:
        if span.name == "convolution.convolve_many" and _ancestor_named(
            span, "convolution.lq_norm_mc"
        ) is not None:
            mc["samples"] += span.counts["z"]
            mc["zero_samples"] += span.counts["zeros"]
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict) -> dict:
    """The per-layer metric values, keyed layer.function.metric."""
    out: dict = {}

    def timing(name: str, *fields: str) -> None:
        for f in fields:
            out[f"{name}.{f}"] = stats[name][f]

    out["cli.self_s"] = stats["cli.main"]["self_s"]
    timing("suites.run_suite", "s", "self_s")

    cm = stats["convolution.convolve_many"]
    cmc = cm["counts"]
    timing("convolution.convolve_many", "calls", "s")
    out["convolution.convolve_many.z"] = cmc.get("z", 0)
    out["convolution.convolve_many.z_per_s"] = _ratio(cmc.get("z", 0), cm["s"])
    out["convolution.convolve_many.candidates"] = cmc.get("candidates", 0)
    out["convolution.convolve_many.useful_frac"] = _ratio(cmc.get("atoms", 0),
                                                          cmc.get("candidates", 0))
    out["convolution.convolve_many.bytes_computed"] = cmc.get("bytes_computed", 0)

    lq = stats["convolution.lq_norm_mc"]
    timing("convolution.lq_norm_mc", "calls", "s", "self_s")
    out["convolution.lq_norm_mc.zero_frac"] = _ratio(lq["counts"]["zero_samples"],
                                                     lq["counts"]["samples"])
    out["convolution.lq_norm_mc.low_conf_frac"] = _ratio(lq["counts"].get("low_conf", 0),
                                                         lq["calls"])
    timing("convolution.shell_bilinear_estimate", "calls", "s")
    timing("convolution.ball_scaling_experiment", "self_s")
    timing("convolution.restricted_estimate_scan", "self_s")

    ge = stats["gaussians.evaluate"]
    timing("gaussians.evaluate", "calls", "s")
    out["gaussians.evaluate.points"] = ge["counts"].get("points", 0)
    out["gaussians.evaluate.points_per_s"] = _ratio(ge["counts"].get("points", 0), ge["s"])
    out["gaussians.evaluate.bytes_computed"] = ge["counts"].get("bytes_computed", 0)

    timing("pullback.pullback_weight_ratio", "calls", "s", "self_s")
    timing("pullback.region_weight_ratio", "calls", "s")
    timing("pullback.plancherel_ratio", "calls", "s")
    timing("pullback.region_cover_factor", "s")
    timing("surface.check_submatrices", "calls", "s")
    timing("surface.comparability_constant", "calls", "s")
    for fn in ("plane_transform", "pairing_check", "fourier_check", "oscillatory_sup_bound"):
        timing(f"transform.{fn}", "calls", "s")
    timing("parallel.ordered_map", "calls")
    out["parallel.ordered_map.tasks"] = stats["parallel.ordered_map"]["counts"].get("tasks", 0)
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rpartition(".")[2]
    if last.endswith("per_s"):
        return "1/s"
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.endswith("_frac"):
        return "frac"
    if last == "bytes_computed":
        return "B"
    if last == "src_loc":
        return "lines"
    if last == "mean_relvar":
        return "1"
    return "count"
