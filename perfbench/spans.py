"""Spans and counters recorded from outside csfm.

The tracer replaces public csfm functions with thin wrappers while it is
installed.  A function object is replaced in every loaded ``csfm.*`` module
that holds it, so calls made through re-exported names (``csfm.pipeline``
imports ``recursive_partition``, ``csfm.cli`` imports ``measure_pairs``, ...)
are seen as well.  Spans are recorded on the main thread only; calls made on
worker threads (RANSAC inside ``measure_pairs``) are counted, not timed.

A layer's self time is a span's duration minus the durations of its direct
child spans, so the self times of one operation add up to its root span.
"""
from __future__ import annotations

import contextlib
import inspect
import os
import resource
import statistics
import sys
import threading
import time
from collections import Counter

# (module, function, per-layer metric that receives the span's self time)
SPANS = [
    ("csfm.synth", "generate_world", "synth.generate_world_s"),
    ("csfm.synth", "fracture", "synth.fracture_s"),
    ("csfm.synth", "load_world", "synth.load_world_s"),
    ("csfm.community", "recursive_partition", "community.detect_s"),
    ("csfm.community", "absorb_small", "community.detect_s"),
    ("csfm.community", "modularity", "community.detect_s"),
    ("csfm.community", "greedy_merge_trace", "community.kernel_s"),
    ("csfm.graph", "load_graph", "graph.load_s"),
    ("csfm.pipeline", "measure_pairs", "measurements.pairwise_s"),
    ("csfm.averaging", "average_scales", "averaging.scales_s"),
    ("csfm.averaging", "average_rotations", "averaging.rotations_s"),
    ("csfm.averaging", "recompute_pairwise_translations", "averaging.recompute_s"),
    ("csfm.averaging", "average_translations", "averaging.translations_s"),
    ("csfm.merging", "merge_reconstructions", "merging.merge_s"),
    ("csfm.merging", "joint_refine", "merging.refine_s"),
    ("csfm.merging", "evaluate_against_truth", "merging.eval_s"),
    ("csfm.pipeline", "run_pipeline", "pipeline.self_s"),
]
WRITERS = [
    ("csfm.synth", "save_world"),
    ("csfm.graph", "save_graph"),
    ("csfm.community", "save_partition"),
    ("csfm.reconstruction", "save_reconstruction"),
    ("csfm.measurements", "save_measurements"),
    ("csfm.averaging", "save_transforms"),
    ("csfm.merging", "save_merged"),
    ("csfm.merging", "export_ply"),
]
READERS = [
    ("csfm.community", "load_partition"),
    ("csfm.reconstruction", "load_reconstruction"),
    ("csfm.measurements", "load_measurements"),
    ("csfm.averaging", "load_transforms"),
    ("csfm.merging", "load_merged"),
]
# load_world and load_graph keep their own time metrics; their bytes count as reads
READ_BYTES = {"load_world", "load_graph"} | {name for _, name in READERS}
WRITE_BYTES = {name for _, name in WRITERS}
# ru_maxrss growth is summed over the outermost span of each of these groups
RSS_GROUPS = ("synth", "merging")

TIME_METRICS = sorted(
    {metric for _, _, metric in SPANS} | {"io.write_s", "io.read_s", "cli.self_s"}
)
COUNT_METRICS = [
    "community.kernel_calls",
    "community.merges",
    "community.kernel_edges",
    "measurements.pairs_attempted",
    "measurements.pairs_measured",
    "measurements.covisible",
    "measurements.inliers",
    "alignment.horn_calls",
    "l1.weighted_solves",
    "merging.refine_iterations",
]

UNITS = {
    **dict.fromkeys(TIME_METRICS, "s"),
    **dict.fromkeys(COUNT_METRICS, "count"),
    "io.write_mb": "MiB",
    "io.read_mb": "MiB",
    "synth.rss_growth_mb": "MiB",
    "merging.rss_growth_mb": "MiB",
    "measurements.inlier_ratio": "ratio",
    "trace.overhead_s": "s",
}


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _path_arg(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)):
            return value
    return None


class Tracer:
    """Keeps spans and counters in memory; the run writes ``spans`` out at its end."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()  # key (op, metric)
        self.op = None
        self._stack = []
        self._lock = threading.Lock()
        self._patched = []
        self._in_pairwise = False

    # -- recording -------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name, metric):
        """A span opened by the benchmark itself."""
        rec = self._open(name, metric)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name, metric):
        rec = {
            "id": len(self.spans),
            "name": name,
            "metric": metric,
            "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "rss_before_kib": _maxrss_kib(),
            "rss_after_kib": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        rec["end"] = time.perf_counter()
        rec["rss_after_kib"] = _maxrss_kib()
        self._stack.pop()

    def count(self, metric, n=1):
        with self._lock:
            self.counts[(self.op, metric)] += n

    # -- patching --------------------------------------------------------
    def install(self):
        targets = list(SPANS)
        targets += [(m, f, "io.write_s") for m, f in WRITERS]
        targets += [(m, f, "io.read_s") for m, f in READERS]
        for module, name, metric in targets:
            self._patch(module, name, self._span_wrapper(name, metric))
        self._patch("csfm.alignment", "horn_similarity", self._count_wrapper("alignment.horn_calls"))
        self._patch("csfm.l1", "solve_weighted_ls", self._count_wrapper("l1.weighted_solves"))
        self._patch("csfm.alignment", "ransac_similarity", self._ransac_wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _patch(self, module_name, name, make_wrapper):
        original = getattr(sys.modules[module_name], name)
        wrapper = make_wrapper(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "csfm" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _span_wrapper(self, name, metric):
        tracer = self

        def make(original):
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    return original(*args, **kwargs)
                path = _path_arg(args, kwargs)
                if name in READ_BYTES and path is not None:
                    tracer.count("io.read_mb", os.path.getsize(path) / 2**20)
                rec = tracer._open(name, metric)
                if name == "measure_pairs":
                    tracer._in_pairwise = True
                try:
                    result = original(*args, **kwargs)
                finally:
                    if name == "measure_pairs":
                        tracer._in_pairwise = False
                    tracer._close(rec)
                if name in WRITE_BYTES and path is not None:
                    tracer.count("io.write_mb", os.path.getsize(path) / 2**20)
                if name == "greedy_merge_trace":
                    graph = signature.bind(*args, **kwargs).arguments["g"]
                    tracer.count("community.kernel_calls")
                    tracer.count("community.merges", len(result.merges))
                    tracer.count("community.kernel_edges", graph.edge_count)
                elif name == "measure_pairs":
                    pairs = signature.bind(*args, **kwargs).arguments["pairs"]
                    tracer.count("measurements.pairs_attempted", len(pairs))
                    tracer.count("measurements.pairs_measured", len(result))
                elif name == "joint_refine":
                    tracer.count("merging.refine_iterations", result[2]["iterations"])
                return result

            return wrapper

        return make

    def _count_wrapper(self, metric):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                tracer.count(metric)
                return original(*args, **kwargs)

            return wrapper

        return make

    def _ransac_wrapper(self, original):
        tracer = self

        def wrapper(corr, *args, **kwargs):
            result = original(corr, *args, **kwargs)
            if tracer._in_pairwise:  # gauge alignment inside eval is not a pair
                tracer.count("measurements.covisible", len(corr))
                tracer.count("measurements.inliers", len(result[1]))
            return result

        return wrapper

    # -- reduction -------------------------------------------------------
    def self_times(self, op) -> dict:
        """Per-layer self time of every span of one operation."""
        spans = [s for s in self.spans if s["op"] == op]
        child = Counter()
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for s in spans:
            out[s["metric"]] += (s["end"] - s["start"]) - child[s["id"]]
        return out

    def op_counts(self, op) -> dict:
        return {
            metric: self.counts[(op, metric)]
            for metric in COUNT_METRICS + ["io.write_mb", "io.read_mb"]
        }

    def rss_growth_mb(self, group) -> float:
        """Rise of ru_maxrss across the outermost spans of one module group."""
        by_id = {s["id"]: s for s in self.spans}
        total = 0
        for s in self.spans:
            if not s["metric"].startswith(group + "."):
                continue
            parent = by_id.get(s["parent"])
            if parent is not None and parent["metric"].startswith(group + "."):
                continue
            total += s["rss_after_kib"] - s["rss_before_kib"]
        return total / 1024

    def per_layer(self, traced_ops, setup_ops, overhead_s) -> dict:
        """Medians over the traced operations; generate_world over set-ups."""
        values = {}
        self_by_op = [self.self_times(op) for op in traced_ops]
        for metric in TIME_METRICS:
            values[metric] = statistics.median(t[metric] for t in self_by_op)
        values["synth.generate_world_s"] = statistics.median(
            self.self_times(op)["synth.generate_world_s"] for op in setup_ops
        )
        counts = self.op_counts(traced_ops[0])
        values.update(counts)
        covisible = counts["measurements.covisible"]
        values["measurements.inlier_ratio"] = (
            counts["measurements.inliers"] / covisible if covisible else 0.0
        )
        for group in RSS_GROUPS:
            values[f"{group}.rss_growth_mb"] = self.rss_growth_mb(group)
        values["trace.overhead_s"] = overhead_s
        return values

    def counts_repeat(self, ops) -> bool:
        """Whether the given operations (all on one input) counted the same work."""
        return len({tuple(self.op_counts(op).items()) for op in ops}) <= 1
