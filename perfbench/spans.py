"""Span recorder and per-layer metrics for the traced benchmark passes.

``traced(recorder)`` wraps each public function listed in ``TARGETS`` at
every name under which a ``mealclust`` module holds it (for example
``pipeline.sweep_dbscan``, ``validation.dbscan_fit`` and
``gmm.kmeans_fit``), so each call opens a span with its caller's span as
parent. On exit the original functions are put back. No program file
changes; spans stay in memory until the run writes them out.

Counting hooks run after the wrapped call returns, inside a span named
``trace.instrument``, so the time they take is kept out of every layer's
self time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

INSTRUMENT = "trace.instrument"


class Recorder:
    """Spans as [name, start, end, parent index] plus per-layer counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_parse(c, fn, result, args, kwargs):
    events, rejections = result
    c["events.rows_in"] += len(events) + len(rejections)
    c["events.rows_rejected"] += len(rejections)


def _count_filter(c, fn, result, args, kwargs):
    c["events.meal_rows"] += len(result)


def _count_segment(c, fn, result, args, kwargs):
    c["episodes.count"] += len(result)


def _count_kmeans(c, fn, result, args, kwargs):
    c["kmeans.iterations"] += result.iterations_run


def _count_gmm(c, fn, result, args, kwargs):
    c["gmm.em_iterations"] += result.iterations_run
    c["gmm.fits_at_max_iter"] += result.iterations_run >= _bound(fn, args, kwargs)["max_iter"]


def _count_dbscan(c, fn, result, args, kwargs):
    # Computed by the benchmark, not reported by the program: unordered
    # pairs of distinct points strictly closer than eps, with the distance
    # formula of the program's exact scan so ties at eps count the same.
    a = _bound(fn, args, kwargs)
    data = np.asarray(getattr(a["m"], "data", a["m"]), dtype=float)
    diff = data[:, None, :] - data[None, :, :]
    close = np.count_nonzero(np.sqrt(np.einsum("ijd,ijd->ij", diff, diff)) < a["eps"])
    c["dbscan.neighbor_pairs"] += int(close - len(data)) // 2


def _count_pipeline(c, fn, result, args, kwargs):
    c["pipeline.households"] += len(result.households) + len(result.failures)
    c["pipeline.households_failed"] += len(result.failures)


# (module, public function) -> counting hook; the span is named module.function.
TARGETS = {
    ("events", "parse_events"): _count_parse,
    ("events", "filter_meal_locations"): _count_filter,
    ("events", "group_by_household"): None,
    ("episodes", "segment_episodes"): _count_segment,
    ("features", "build_features"): None,
    ("features", "scale_features"): None,
    ("synth", "generate_trace"): None,
    ("kmeans", "kmeans_fit"): _count_kmeans,
    ("gmm", "gmm_fit"): _count_gmm,
    ("gmm", "category_summary"): None,
    ("dbscan", "dbscan_fit"): _count_dbscan,
    ("validation", "sweep_kmeans"): None,
    ("validation", "sweep_gmm"): None,
    ("validation", "sweep_dbscan"): None,
    ("validation", "davies_bouldin"): None,
    ("pipeline", "run_pipeline"): _count_pipeline,
}

# Per-layer time metric -> the spans whose self time it sums.
TIME_METRICS = {
    "events.parse_s": ["events.parse_events"],
    "events.filter_s": ["events.filter_meal_locations"],
    "events.group_s": ["events.group_by_household"],
    "episodes.segment_s": ["episodes.segment_episodes"],
    "features.s": ["features.build_features", "features.scale_features"],
    "synth.generate_s": ["synth.generate_trace"],
    "kmeans.fit_s": ["kmeans.kmeans_fit"],
    "gmm.fit_s": ["gmm.gmm_fit", "gmm.category_summary"],
    "dbscan.fit_s": ["dbscan.dbscan_fit"],
    "validation.sweep_kmeans_s": ["validation.sweep_kmeans"],
    "validation.sweep_gmm_s": ["validation.sweep_gmm"],
    "validation.sweep_dbscan_s": ["validation.sweep_dbscan"],
    "validation.dbi_s": ["validation.davies_bouldin"],
    "pipeline.self_s": ["pipeline.run_pipeline"],
    "trace.instrument_s": [INSTRUMENT],
}
# Count metric -> the span whose calls it counts, raised or returned.
CALL_METRICS = {
    "kmeans.fits": "kmeans.kmeans_fit",
    "gmm.fits": "gmm.gmm_fit",
    "dbscan.fits": "dbscan.dbscan_fit",
    "validation.dbi_calls": "validation.davies_bouldin",
}
# Counts the hooks add up, from the calls that returned.
COUNT_METRICS = [
    "events.rows_in", "events.rows_rejected", "events.meal_rows", "episodes.count",
    "kmeans.iterations", "gmm.em_iterations", "gmm.fits_at_max_iter", "dbscan.neighbor_pairs",
    "pipeline.households", "pipeline.households_failed",
]
# Derived per run: traced pass time not under any span, and traced minus
# untraced median pass time.
RUN_METRICS = ["trace.unspanned_s", "trace.overhead_s"]

# Unit of every per-layer metric.
UNITS = {**{name: "s" for name in TIME_METRICS}, **{name: "count" for name in [*CALL_METRICS, *COUNT_METRICS]},
         **{name: "s" for name in RUN_METRICS}}


def _wrap(fn, name, recorder, hook):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        idx = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if hook is not None:
            idx = recorder.open(INSTRUMENT)
            try:
                hook(recorder.counts, fn, result, args, kwargs)
            finally:
                recorder.close(idx)
        return result

    return traced_call


@contextmanager
def traced(recorder: Recorder):
    """Wrap every target at every name a mealclust module binds it to.

    Yields the targets the program no longer defines; their metrics read 0.
    """
    modules = [m for name, m in list(sys.modules.items()) if name == "mealclust" or name.startswith("mealclust.")]
    patches = []
    missing = []
    for (mod_name, fn_name), hook in TARGETS.items():
        fn = getattr(sys.modules.get(f"mealclust.{mod_name}"), fn_name, None)
        if fn is None:
            missing.append(f"{mod_name}.{fn_name}")
            continue
        wrapper = _wrap(fn, f"{mod_name}.{fn_name}", recorder, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patches.append((module, attr, fn, wrapper))
    for module, attr, _, wrapper in patches:
        setattr(module, attr, wrapper)
    try:
        yield missing
    finally:
        for module, attr, fn, _ in patches:
            setattr(module, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that end before they start or stick out of their parent."""
    errors = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {i} ({name}) is not closed in order")
        elif parent is not None and not (spans[parent][1] <= start and end <= spans[parent][2]):
            errors.append(f"span {i} ({name}) lies outside its parent {parent}")
    return errors


def pass_metrics(spans: list[list], counts: dict, wall_s: float) -> dict[str, float]:
    """Per-layer times (self times) and counts of one traced pass."""
    own = self_times(spans)
    by_name: Counter = Counter()
    for (name, *_), t in zip(spans, own):
        by_name[name] += t
    metrics = {metric: float(sum(by_name[n] for n in names)) for metric, names in TIME_METRICS.items()}
    metrics.update({name: int(counts.get(name, 0)) for name in COUNT_METRICS})
    calls = Counter(name for name, *_ in spans)
    metrics.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
    top = sum(end - start for _, start, end, parent in spans if parent is None)
    metrics["trace.unspanned_s"] = wall_s - top
    return metrics


def accounting_error(metrics: dict, wall_s: float) -> float:
    """|sum of layer self times + unspanned time - traced pass| / traced pass.

    Zero up to rounding when every span is mapped to exactly one time
    metric and the spans nest; a span left out of TIME_METRICS shows here.
    """
    covered = sum(metrics[name] for name in TIME_METRICS) + metrics["trace.unspanned_s"]
    return abs(covered - wall_s) / wall_s


def run_metrics(traced_passes: list[dict], untraced_walls: list[float]) -> dict[str, float]:
    """Median per-layer times over the traced passes; counts from the first."""
    per_pass = [pass_metrics(p["spans"], p["counts"], p["wall_s"]) for p in traced_passes]
    out = {}
    for name in TIME_METRICS:
        out[name] = statistics.median(m[name] for m in per_pass)
    for name in [*CALL_METRICS, *COUNT_METRICS]:
        out[name] = per_pass[0][name]
    out["trace.unspanned_s"] = statistics.median(m["trace.unspanned_s"] for m in per_pass)
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced_passes)
                               - statistics.median(untraced_walls))
    return out
