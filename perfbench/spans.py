"""In-memory span recording around the program's public layer functions.

The benchmark wraps each listed function at every module binding through
which the program calls it (``mvdesc.bench.match_all`` and
``mvdesc.matching.pairwise_distances`` are separate bindings). A span is
``(name, start, end, parent, run_id, info)``; ``parent`` is the index of the
enclosing span, or -1. Spans stay in memory until the run ends. Nothing in
``src/`` is edited: the wrappers are installed and removed at run time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time

# (span name, [module bindings], attribute). A dotted attribute names a
# method on a class; the class object is shared by every importer, so one
# binding covers all callers.
LAYER_FUNCTIONS = [
    ("scene.generate_dataset", ["mvdesc.bench", "mvdesc.cli"], "generate_dataset"),
    ("scene.render_view", ["mvdesc.scene"], "render_view"),
    ("scene.ground_truth_correspondence", ["mvdesc.bench"], "ground_truth_correspondence"),
    ("scene.load_dataset", ["mvdesc.cli"], "load_dataset"),
    ("image.build_pyramid", ["mvdesc.bench", "mvdesc.tracking", "mvdesc.image"], "build_pyramid"),
    ("tracking.run_tracker", ["mvdesc.bench", "mvdesc.cli"], "run_tracker"),
    ("tracking.detect_corners", ["mvdesc.tracking"], "detect_corners"),
    ("tracking.klt_step", ["mvdesc.tracking"], "klt_step"),
    ("tracking.attach_patches", ["mvdesc.cli"], "attach_patches"),
    ("tracking.save_tracks", ["mvdesc.cli"], "save_tracks"),
    ("tracking.load_tracks", ["mvdesc.cli"], "load_tracks"),
    ("hog.patch_density", ["mvdesc.viewsynth", "mvdesc.bench", "mvdesc.cli"], "patch_density"),
    ("viewsynth.from_frame", ["mvdesc.viewsynth"], "LocalSurface.from_frame"),
    ("viewsynth.synthesize_views", ["mvdesc.bench", "mvdesc.cli"], "synthesize_views"),
    ("viewsynth.view_descriptors", ["mvdesc.bench", "mvdesc.cli"], "view_descriptors"),
    ("multiview.update", ["mvdesc.multiview"], "MultiViewAccumulator.update"),
    ("matching.pairwise_distances", ["mvdesc.matching"], "pairwise_distances"),
    ("matching.match_all", ["mvdesc.bench"], "match_all"),
    ("matching.nn_query", ["mvdesc.cli"], "nn_query"),
    ("matching.db_save", ["mvdesc.matching"], "DescriptorDatabase.save"),
    ("matching.db_load", ["mvdesc.matching"], "DescriptorDatabase.load"),
]


def _info(name: str, args, result):
    """Counts taken at the boundary, from arguments and results only."""
    if name == "tracking.klt_step":
        return {"ok": result is not None}
    if name == "viewsynth.synthesize_views":
        # both callers pass the rotation grid positionally; a call that
        # raised (no view accepted) kept none
        kept = 0 if result is None else len(result[1])
        return {"attempted": len(args[2]), "kept": kept}
    if name == "matching.pairwise_distances":
        q, x = args[0], args[1]
        nq = 1 if q.ndim == 1 else q.shape[0]
        nx, d = (1, x.shape[0]) if x.ndim == 1 else x.shape
        return {"evals": nq * nx, "bytes": nq * nx * d * 8}
    if name == "matching.match_all":
        q = args[1]
        return {"queries": 1 if q.ndim == 1 else q.shape[0]}
    if name == "matching.nn_query":
        return {"queries": 1}
    if name == "matching.db_save":
        return {"bytes": os.path.getsize(args[1])}
    return None


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1,
                           self.run_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx, info=None):
        self._stack.pop()
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[5] = info

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(idx, _info(name, args, result))
        return wrapper

    def install(self):
        for name, modules, attr in LAYER_FUNCTIONS:
            for mod_name in modules:
                mod = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(mod, cls_name)
                    raw = owner.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                else:
                    owner, meth = mod, attr
                    raw = getattr(mod, attr)
                    new = self._wrap(name, raw)
                self._saved.append((owner, meth, raw))
                setattr(owner, meth, new)
        return self

    def uninstall(self):
        for owner, meth, raw in reversed(self._saved):
            setattr(owner, meth, raw)
        self._saved.clear()

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, run_id, info."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(spans: list) -> dict:
    """Per span name: calls, total seconds, self seconds (minus children)."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict = {}
    for i, rec in enumerate(spans):
        s = out.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = rec[2] - rec[1]
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child[i]
    return out


def info_sum(spans: list, name: str, key: str) -> float:
    return sum(rec[5][key] for rec in spans
               if rec[0] == name and rec[5] is not None)


# Measured on every workload, so listed in BENCHMARK.json. The rest of
# layer_metrics() is zero on the workloads that never call that layer.
COMMON_LAYER_METRICS = {
    "scene.render_ms_per_view": ("ms", "lower"),
    "image.pyramid_s": ("s", "lower"),
    "tracking.detect_s": ("s", "lower"),
    "tracking.klt_calls": ("count", "lower"),
    "tracking.klt_us_per_call": ("us", "lower"),
    "tracking.run_tracker_s": ("s", "lower"),
    "tracking.klt_success_ratio": ("fraction", "higher"),
    "hog.density_calls": ("count", "lower"),
    "hog.density_us_per_patch": ("us", "lower"),
    "viewsynth.synth_s": ("s", "lower"),
    "viewsynth.rotations_attempted": ("count", "lower"),
    "viewsynth.views_kept_ratio": ("fraction", "higher"),
    "viewsynth.view_descriptors_s": ("s", "lower"),
    "viewsynth.lift_s": ("s", "lower"),
    "multiview.update_calls": ("count", "lower"),
    "multiview.update_s": ("s", "lower"),
    "matching.distance_evals": ("count", "lower"),
    "matching.pairwise_s": ("s", "lower"),
    "matching.ns_per_distance_eval": ("ns", "lower"),
    "matching.best_row_self_s": ("s", "lower"),
    "matching.queries_per_s": ("1/s", "higher"),
    "matching.pairwise_bytes_computed": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced iteration, keyed by metric name."""
    s = summarize(spans)

    def get(name, key="total_s"):
        return s.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    klt = get("tracking.klt_step", "calls")
    dens = get("hog.patch_density", "calls")
    attempted = info_sum(spans, "viewsynth.synthesize_views", "attempted")
    evals = info_sum(spans, "matching.pairwise_distances", "evals")
    queries = (info_sum(spans, "matching.match_all", "queries")
               + info_sum(spans, "matching.nn_query", "queries"))
    match_s = get("matching.match_all") + get("matching.nn_query")
    cli = [n for n in s if n.startswith("cli.")]
    return {
        "scene.render_ms_per_view": 1e3 * ratio(
            get("scene.render_view"), get("scene.render_view", "calls")),
        "scene.gt_corr_s": get("scene.ground_truth_correspondence"),
        "image.pyramid_s": get("image.build_pyramid"),
        "tracking.detect_s": get("tracking.detect_corners"),
        "tracking.klt_calls": klt,
        "tracking.klt_us_per_call": 1e6 * ratio(get("tracking.klt_step"), klt),
        "tracking.run_tracker_s": get("tracking.run_tracker"),
        "tracking.klt_success_ratio": ratio(
            sum(1 for r in spans if r[0] == "tracking.klt_step" and r[5]["ok"]),
            klt),
        "hog.density_calls": dens,
        "hog.density_us_per_patch": 1e6 * ratio(get("hog.patch_density"), dens),
        "viewsynth.synth_s": get("viewsynth.synthesize_views"),
        "viewsynth.rotations_attempted": attempted,
        "viewsynth.views_kept_ratio": ratio(
            info_sum(spans, "viewsynth.synthesize_views", "kept"), attempted),
        "viewsynth.view_descriptors_s": get("viewsynth.view_descriptors"),
        "viewsynth.lift_s": get("viewsynth.from_frame"),
        "multiview.update_calls": get("multiview.update", "calls"),
        "multiview.update_s": get("multiview.update"),
        "matching.distance_evals": evals,
        "matching.pairwise_s": get("matching.pairwise_distances"),
        "matching.ns_per_distance_eval": 1e9 * ratio(
            get("matching.pairwise_distances"), evals),
        "matching.best_row_self_s": (get("matching.match_all", "self_s")
                                     + get("matching.nn_query", "self_s")),
        "matching.queries_per_s": ratio(queries, match_s),
        "matching.pairwise_bytes_computed": info_sum(
            spans, "matching.pairwise_distances", "bytes"),
        "matching.db_save_s": get("matching.db_save"),
        "matching.db_load_s": get("matching.db_load"),
        "matching.db_bytes": info_sum(spans, "matching.db_save", "bytes"),
        "bench.self_s": get("bench.run_benchmark", "self_s"),
        "cli.track_s": get("cli.track"),
        "cli.describe_s": get("cli.describe"),
        "cli.match_s": get("cli.match"),
        "cli.self_s": sum(get(n, "self_s") for n in cli),
    }
