"""End-to-end matching benchmark on synthetic ground-truthed scenes.

The pipeline per scene: render a training orbit and held-out test views,
track corners through the orbit, build one descriptor database per method,
then query each database with descriptors computed at the ground-truth
location of every track in every test view. A query is correct when the
nearest stored track is the one it came from, so the reported rate is a
recognition rate over tracks.

Methods compared:

* ``sv``      one tracked frame per track (averaged over seeded draws)
* ``mv``      all frames averaged into a single density per track
* ``keepall`` every frame kept as its own row, best row wins
* ``rhog``    per-view descriptors synthesized from ground-truth depth,
              best row wins (max-out matching)
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

from .hog import (METHODS, DescriptorParams, OrientationDensity,
                  _normalized_rows, patch_densities)
from .image import (_check_fields, _field_defaults, _json_field, base_to_level,
                    build_pyramid, level_to_base)
from .matching import METRICS, DescriptorDatabase, match_all
from .multiview import MultiViewAccumulator, excitation_score, patch_scatter
from .scene import (VISIBLE, _check_spec, default_scene_spec, generate_dataset,
                    ground_truth_correspondences)
from .tracking import (TrackerConfig, _check_tracker, _fits, quantized_patches,
                       run_tracker)
from .viewsynth import (MIN_FACING, lift_surfaces, sample_rotations,
                        select_keyframes, synthesize_views, view_descriptors)
# not called here; bound because perfbench/spans.py traces them on this module
from .scene import ground_truth_correspondence  # noqa: F401
from .viewsynth import patch_density  # noqa: F401

__all__ = [
    "default_benchmark_config",
    "quick_benchmark_config",
    "run_benchmark",
    "spearman",
    "memory_scaling",
    "update_cost_profile",
    "sv",
    "mv",
    "keepall",
    "rhog",
    "lift_keyframes",
]


# Each benchmark config field once, in rows as in scene._SPEC_FIELDS and a
# nested table per section; _check_config checks the scenes, the tracker
# section by tracking._TRACKER_FIELDS, and every rule that relates two fields.
_CONFIG_FIELDS = {
    "seed": (7, int, None, 0, False),
    "metric": ("l2", METRICS, None, None, False),
    "patch_sizes": ([11, 21], int, 0, 3, False),
    "sv_trials": (5, int, None, 1, False),
    "max_tracks": (140, int, None, 1, False),
    "scenes": ([
        {"name": "plane0", "kind": "plane", "seed": 101},
        {"name": "relief0", "kind": "heightfield", "seed": 202},
        {"name": "plane1", "kind": "plane", "seed": 303},
        {"name": "relief1", "kind": "heightfield", "seed": 404},
        {"name": "plane2", "kind": "plane", "seed": 505},
    ], None, 0, None, False),
    "tracker": ({
        "n_features": 500,
        "levels": 2,
        "window": 11,
        "reject_thresh": 0.04,
        "min_border": 13,
    }, None, None, None, False),
    "rhog": {
        "keyframes": (4, int, None, 1, False),
        "n_azimuth": (4, int, None, 1, False),
        "n_inplane": (5, int, None, 1, False),
        "tilt": (math.pi / 6, float, None, None, False),
        "inplane_halfwidth": (math.pi / 3, float, None, None, False),
        "min_facing": (0.2, float, None, None, False),
    },
    "excitation": {
        "ks": ([2, 5, 10, 20, 30], int, 0, 1, False),
        "trials": (5, int, None, 1, False),
        "patch_size": (21, int, None, 3, False),
    },
    "memory_lengths": ([5, 10, 15, 20, 25, 30], int, 0, 1, False),
    "timing_lengths": ([1, 5, 10, 15, 20, 25, 30], int, 0, 1, False),
    "timing_reps": (200, int, None, 1, False),
}


def default_benchmark_config() -> dict:
    """Desk-scale benchmark: five scenes, two patch sizes, minutes to run.
    A fresh copy of the defaults in ``_CONFIG_FIELDS``."""
    return _field_defaults(_CONFIG_FIELDS)


def quick_benchmark_config() -> dict:
    """Overrides for a single-scene run that finishes in well under a minute."""
    return {
        "scenes": [{"name": "plane0", "kind": "plane", "seed": 101}],
        "patch_sizes": [11],
        "sv_trials": 2,
        "max_tracks": 60,
        "tracker": {"n_features": 250},
        "excitation": {"ks": [2, 10, 30], "trials": 2, "patch_size": 11},
        "memory_lengths": [5, 15, 30],
        "timing_lengths": [1, 10, 30],
        "timing_reps": 50,
    }


def _merge_config(overrides: dict = None) -> dict:
    cfg = default_benchmark_config()
    for k, v in (overrides or {}).items():
        if isinstance(v, dict) and isinstance(cfg.get(k), dict):
            cfg[k] = {**cfg[k], **v}
        else:
            cfg[k] = v
    return cfg


def _check_config(cfg: dict) -> None:
    """ValueError naming the first field of a merged benchmark config that
    the run cannot use, before anything is rendered: its row of
    ``_CONFIG_FIELDS`` refuses it, or it breaks a rule relating two fields.
    The ``tracker`` section is walked as :class:`TrackerConfig` walks its
    fields, under the path ``tracker``."""
    _check_fields(cfg, _CONFIG_FIELDS, "benchmark config")
    _check_tracker(_json_field(cfg, "tracker", dict), "tracker")
    sizes, exc_size = cfg["patch_sizes"], cfg["excitation"]["patch_size"]
    if exc_size not in sizes:
        raise ValueError(f"excitation.patch_size: {exc_size}, expected one "
                         f"of patch_sizes {sizes}")
    names = []
    for i, entry in enumerate(cfg["scenes"]):
        name = _json_field(entry, "name", str, f"scenes[{i}]")
        if name in names:
            raise ValueError(f"scenes[{i}].name: {name!r} is also "
                             f"scenes[{names.index(name)}].name")
        names.append(name)
        try:
            _check_spec({**default_scene_spec(), **entry})
        except ValueError as exc:
            raise ValueError(f"scenes[{i}].{exc}") from None
    # memory_scaling cuts the first scene's tracks; update_cost_profile cycles
    n_frames = {**default_scene_spec(), **cfg["scenes"][0]}["n_frames"]
    for i, t in enumerate(cfg["memory_lengths"]):
        if t > n_frames:
            raise ValueError(f"memory_lengths[{i}]: {t}, expected at most "
                             f"the {n_frames} frames of scenes[0]")
    # a slope or a flatness over the lengths, a rank correlation over the ks
    for path, values in (("memory_lengths", cfg["memory_lengths"]),
                         ("timing_lengths", cfg["timing_lengths"]),
                         ("excitation.ks", cfg["excitation"]["ks"])):
        if len(set(values)) < 2:
            raise ValueError(f"{path}: {values}, expected at least two "
                             f"distinct values")


# ---------------------------------------------------------------------------
# statistics helpers


def _avg_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank."""
    a = np.asarray(a, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size)
    ranks[order] = np.arange(1, a.size + 1)
    vals, inv, cnt = np.unique(a, return_inverse=True, return_counts=True)
    sums = np.zeros(vals.size)
    np.add.at(sums, inv, ranks)
    return sums[inv] / cnt[inv]


def spearman(x, y) -> float:
    """Rank correlation in [-1, 1]; 0 when either input is constant."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two same-length samples")
    rx = _avg_ranks(x) - (x.size + 1) / 2.0
    ry = _avg_ranks(y) - (y.size + 1) / 2.0
    denom = math.sqrt(float((rx * rx).sum()) * float((ry * ry).sum()))
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


# ---------------------------------------------------------------------------
# database builders: one per method, shared by the benchmark and the CLI


def sv(track_ids, grids, params: DescriptorParams) -> DescriptorDatabase:
    """One row per track from an (n, cells, cells, bins) stack of
    unnormalized densities, one per track (the caller picks the frame)."""
    return DescriptorDatabase("sv", params, track_ids,
                              _normalized_rows(grids, params))


def mv(track_ids, track_grids, params: DescriptorParams) -> DescriptorDatabase:
    """One row per track: the normalized mean of its (frames, cells, cells,
    bins) density stack. ``mean(axis=0)`` adds the frames in order and then
    divides by their count, as :class:`MultiViewAccumulator` does."""
    means = []
    for tid, grids in zip(track_ids, track_grids):
        if not len(grids):
            raise ValueError(f"mv: track {tid} has no frames")
        means.append(np.mean(grids, axis=0))
    return DescriptorDatabase("mv", params, track_ids,
                              _normalized_rows(means, params))


def keepall(track_ids, track_grids, params: DescriptorParams) -> DescriptorDatabase:
    """One row per frame of every track's (frames, cells, cells, bins)
    density stack, in frame order. ``track_grids`` is one (tracks, frames,
    ...) array or a list of stacks of any lengths."""
    frames = track_grids if isinstance(track_grids, np.ndarray) else np.concatenate(
        [np.empty((0, params.cells, params.cells, params.bins)), *track_grids])
    ids = np.repeat(track_ids, [len(grids) for grids in track_grids])
    return DescriptorDatabase("keepall", params, ids,
                              _normalized_rows(frames, params))


def rhog(track_ids, track_views, params: DescriptorParams, rotations,
         min_facing: float = MIN_FACING) -> DescriptorDatabase:
    """One row per synthesized view of every track, for max-out matching.

    ``track_views`` holds, per track, ``(surface, level_image)`` pairs: a
    lifted keyframe surface and the pyramid level image it reprojects into.
    A keyframe none of whose views is accepted contributes no rows.
    """
    ids, blocks = [], [np.zeros((0, params.cells ** 2 * params.bins))]
    for tid, views in zip(track_ids, track_views):
        for surface, level_image in views:
            try:
                patches, _ = synthesize_views(surface, level_image, rotations,
                                              min_facing)
            except ValueError:
                continue
            blocks.append(view_descriptors(patches, params))
            ids += [tid] * len(blocks[-1])
            del patches  # the last stack, if alive at the join, pins freed heap memory
    return DescriptorDatabase("rhog", params, ids, np.concatenate(blocks))


def lift_keyframes(dataset, pyramids, tracks, n_keyframes: int,
                   patch_size: int) -> list:
    """Per track, the ``(LocalSurface, level image)`` pair of each of its
    ``select_keyframes(track.length, n_keyframes)`` whose depth lifts, in
    keyframe order: the pairs :func:`rhog` takes for that track.
    ``pyramids[k]`` is frame k's pyramid; only keyframes are read.

    The tracks of one keyframe are lifted together, each at its own level,
    by one :func:`lift_surfaces` call.
    """
    views = [[] for _ in tracks]
    groups = {}
    for i, tr in enumerate(tracks):
        for k in select_keyframes(tr.length, n_keyframes).tolist():
            groups.setdefault(k, []).append(i)
    for k, group in sorted(groups.items()):
        surfaces = lift_surfaces(dataset.frames[k].depth, dataset.camera,
                                 [tracks[i].positions[k] for i in group],
                                 patch_size, [tracks[i].level for i in group])
        for i, surface in zip(group, surfaces):
            if surface is not None:
                views[i].append((surface, pyramids[k].level(surface.level)))
    return views


# ---------------------------------------------------------------------------
# storage and update-cost studies


def memory_scaling(track_grids: np.ndarray, params: DescriptorParams,
                   lengths) -> dict:
    """Stored bytes versus track length for the running-average and keep-all
    strategies, with fitted slopes (bytes per extra frame).

    ``track_grids`` is a (tracks, frames, cells, cells, bins) density stack;
    databases are actually built for each prefix length, and their real
    storage cost is measured. Bytes are whole, so the ratio divides by at
    least one byte per frame: an ``mv`` slope below that is fitting noise.
    """
    lengths = [int(t) for t in lengths]
    if track_grids.shape[1] < max(lengths):
        raise ValueError(f"tracks have fewer than {max(lengths)} frames")
    if len(set(lengths)) < 2:
        raise ValueError(f"lengths {lengths}: a slope needs at least two "
                         f"distinct lengths")
    ids = range(len(track_grids))
    mv_bytes, keep_bytes = [], []
    for t in lengths:
        prefixes = track_grids[:, :t]
        mv_bytes.append(mv(ids, prefixes, params).memory_bytes)
        keep_bytes.append(keepall(ids, prefixes, params).memory_bytes)

    mv_slope = float(np.polyfit(lengths, mv_bytes, 1)[0])
    keep_slope = float(np.polyfit(lengths, keep_bytes, 1)[0])
    return {
        "lengths": lengths,
        "mv_bytes": mv_bytes,
        "keepall_bytes": keep_bytes,
        "mv_slope": mv_slope,
        "keepall_slope": keep_slope,
        "slope_ratio": keep_slope / max(abs(mv_slope), 1.0),
    }


# Updates timed together per probe of update_cost_profile: one update takes
# about a microsecond, close to what the timer resolves.
_UPDATES_PER_PROBE = 64


def update_cost_profile(grids: np.ndarray, params: DescriptorParams,
                        lengths, reps: int = 200) -> dict:
    """Wall-clock cost of folding in one more frame, at several track lengths.

    One accumulator per length is advanced once. Each probe then times
    ``_UPDATES_PER_PROBE`` further updates in a row, so that a sample lies
    far above the timer's resolution, and restores the saved state; an
    update costs the probe's time over that count. A length reports the
    median of its ``reps`` probes: a minimum would let one lucky sample make a
    length look fast. The rounds interleave the lengths so a transient load
    spike inflates all of them alike instead of biasing one; flatness is a
    ratio across lengths, so correlated noise cancels. For a constant-time
    update the profile is flat. ``grids`` is one track's (frames, cells,
    cells, bins) density stack; lengths past its frames cycle through it,
    and the probe is its last frame.
    """
    lengths = [int(t) for t in lengths]
    if reps < 1:
        raise ValueError(f"reps: {reps}, expected at least 1")
    if len(set(lengths)) < 2:
        raise ValueError(f"lengths {lengths}: a flatness needs at least two "
                         f"distinct lengths")
    probe = OrientationDensity(grids[-1], params)
    accs = []
    for t in lengths:
        acc = MultiViewAccumulator(params)
        for i in range(t):
            acc.update(OrientationDensity(grids[i % len(grids)], params))
        accs.append(acc)

    saved = [acc.density_sum.copy() for acc in accs]

    def probe_once(acc, state):
        t0 = time.perf_counter()
        for _ in range(_UPDATES_PER_PROBE):
            acc.update(probe)
        dt = (time.perf_counter() - t0) / _UPDATES_PER_PROBE
        # restore rather than subtract, so the state cannot drift over reps
        np.copyto(acc.density_sum, state)
        acc.frames -= _UPDATES_PER_PROBE
        return dt

    for acc, state in zip(accs, saved):
        probe_once(acc, state)  # warm-up round, not timed
    samples = [[probe_once(acc, state) for acc, state in zip(accs, saved)]
               for _ in range(reps)]
    cost = [float(c) for c in np.median(samples, axis=0)]
    return {"lengths": lengths, "update_seconds": cost,
            "flatness": max(cost) / min(cost)}


# ---------------------------------------------------------------------------
# per-scene pipeline


class _SceneRun:
    """Everything the benchmark derives from one scene.

    The tracks that survive the whole orbit are held as arrays: their
    ``positions`` (tracks, frames, 2) and pyramid ``levels`` (tracks,), and
    the ground-truth landing point of each track's frame-0 anchor in each
    test view, ``corr_xy`` (tracks, views, 2) with its ``corr_status``
    (tracks, views). Each stage makes one array call per frame or test
    view, each track at its own level, not one per track.
    """

    def __init__(self, spec: dict, cfg: dict, out_dir: Path):
        self.cfg = cfg
        self.dataset = generate_dataset(spec, out_dir)
        self.name = self.dataset.name
        tcfg = TrackerConfig(**cfg["tracker"])
        self.n_frames = len(self.dataset.frames)

        self.frame_pyrs = [build_pyramid(v.image, tcfg.levels)
                           for v in self.dataset.frames]
        self.test_pyrs = [build_pyramid(v.image, tcfg.levels)
                          for v in self.dataset.tests]
        # every view has the camera's size: one set of level bounds for all
        _, self.bounds = self.frame_pyrs[0].layout()

        tracks = run_tracker(self.frame_pyrs, tcfg)
        self.tracks = [t for t in tracks
                       if t.alive and t.length == self.n_frames]
        n = len(self.tracks)
        self.levels = np.array([tr.level for tr in self.tracks], dtype=int)
        self.positions = np.reshape([tr.positions for tr in self.tracks],
                                    (n, self.n_frames, 2))

        base0 = level_to_base(self.positions[:, 0], self.levels)
        views = len(self.dataset.tests)
        self.corr_xy = np.empty((n, views, 2))
        self.corr_status = np.empty((n, views), dtype=object)
        for vi, tv in enumerate(self.dataset.tests):
            self.corr_xy[:, vi], self.corr_status[:, vi] = (
                ground_truth_correspondences(self.dataset.frames[0], tv, base0))

    # -- per patch size ---------------------------------------------------

    def prepare(self, patch_size: int):
        """Patches, densities, synthesized-view surfaces for one patch size.

        Keeps the first ``max_tracks`` tracks that can supply every
        ingredient (full patch support in every frame at their level, and a
        liftable surface in at least one keyframe), so every method sees the
        same track set. Support is one array test over every frame. The
        candidates are lifted in batches of the places still open, by
        :func:`lift_keyframes`, until the cap is met or none are left. The
        patches are cut by one :func:`quantized_patches` call per frame.
        ``"patches"`` is one (tracks, frames, p, p) stack and ``"densities"``
        its (tracks, frames, cells, cells, bins) stack of unnormalized
        densities.
        """
        cfg = self.cfg
        params = DescriptorParams(patch_size)
        rot = sample_rotations(cfg["rhog"]["n_azimuth"], cfg["rhog"]["n_inplane"],
                               cfg["rhog"]["tilt"], cfg["rhog"]["inplane_halfwidth"])
        p = patch_size

        # support: the patch fits in its level with a pixel to spare
        supported = _fits(self.bounds, self.positions, self.levels[:, None],
                          (p - 1) / 2.0 + 1).all(axis=1)
        candidates = np.flatnonzero(supported).tolist()
        chosen, views = [], []
        while candidates and len(chosen) < cfg["max_tracks"]:
            take = cfg["max_tracks"] - len(chosen)
            batch, candidates = candidates[:take], candidates[take:]
            lifted = lift_keyframes(self.dataset, self.frame_pyrs,
                                    [self.tracks[i] for i in batch],
                                    cfg["rhog"]["keyframes"], p)
            for i, pairs in zip(batch, lifted):
                if pairs:
                    chosen.append(i)
                    views.append(pairs)

        levels, positions = self.levels[chosen], self.positions[chosen]
        patches = np.empty((len(chosen), self.n_frames, p, p))
        for f, pyr in enumerate(self.frame_pyrs):
            patches[:, f] = quantized_patches(pyr, positions[:, f], levels, p)
        grids = patch_densities(patches.reshape(-1, p, p), params)
        ids = [self.tracks[i].id for i in chosen]
        return {
            "params": params,
            "track_ids": ids,
            "views": views,
            "densities": grids.reshape(len(chosen), self.n_frames,
                                       *grids.shape[1:]),
            "patches": patches,
            "rotations": rot,
            "queries": self._build_queries(chosen, ids, params),
        }

    def _build_queries(self, chosen, ids, params: DescriptorParams):
        """Descriptors at ground-truth positions in the test views of the
        tracks ``chosen`` (indices into ``self.tracks``), whose ids are
        ``ids``.

        The same query set serves every method, so rate differences come
        only from what each database stores. A query is a track's visible
        landing point in one test view, with full patch support there; the
        patches of one view are cut together, and the queries are ordered by
        track, then by view.
        """
        p = params.patch_size
        levels = self.levels[chosen, None]
        xy = base_to_level(self.corr_xy[chosen], levels)
        keep = ((self.corr_status[chosen] == VISIBLE)
                & _fits(self.bounds, xy, levels, (p - 1) / 2.0 + 1))
        rows, cols = np.nonzero(keep)
        patches = np.empty((len(rows), p, p))
        for vi, pyr in enumerate(self.test_pyrs):
            at = cols == vi
            patches[at] = quantized_patches(pyr, xy[rows[at], vi],
                                            levels[rows[at], 0], p)
        grids = patch_densities(patches, params)
        return {"track_ids": np.array(ids, dtype=int)[rows],
                "values": _normalized_rows(grids, params)}


def _rate(db: DescriptorDatabase, queries: dict, metric: str):
    """(recognition rate, query count) of ``db`` under ``metric`` on a
    prepared query set."""
    pred, _ = match_all(db, queries["values"], metric)
    return float(np.mean(pred == queries["track_ids"])), len(pred)


# ---------------------------------------------------------------------------
# the full run


def run_benchmark(config: dict = None, out_dir="bench_out") -> dict:
    """Run the full benchmark and write report/excitation/timing files.

    Everything except ``timing.csv`` (wall-clock measurements) is a pure
    function of the config, so repeated runs produce byte-identical output.
    Returns the report dictionary.
    """
    cfg = _merge_config(config)
    _check_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()

    runs = [_SceneRun(spec, cfg, out / "scenes" / spec["name"])
            for spec in cfg["scenes"]]

    rows = []                 # (scene, method, patch_size, metric, rate)
    # max-out matching is squared-l2 over rows, so the rhog metric is fixed
    metrics = {m: "l2" if m == "rhog" else cfg["metric"] for m in METHODS}
    pooled = {m: {} for m in METHODS}
    n_tracks = {}
    preps = {}

    for run in runs:
        for size in cfg["patch_sizes"]:
            prep = run.prepare(size)
            if not prep["track_ids"]:
                raise ValueError(f"scene {run.name}, patch size {size}: no "
                                 f"track has full patch support in every "
                                 f"frame and a liftable keyframe")
            if not len(prep["queries"]["track_ids"]):
                raise ValueError(f"scene {run.name}, patch size {size}: no "
                                 f"track lands visible, with full patch "
                                 f"support, in any test view")
            preps[(run.name, size)] = prep
            n_tracks[f"{run.name}/{size}"] = len(prep["track_ids"])
            ids, dens, params = prep["track_ids"], prep["densities"], prep["params"]
            queries = prep["queries"]
            truth = queries["track_ids"]

            sv_rates = []
            for trial in range(cfg["sv_trials"]):
                rng = np.random.default_rng(np.random.SeedSequence(
                    (cfg["seed"], hash_name(run.name), size, 11, trial)))
                picks = [d[int(rng.integers(0, len(d)))] for d in dens]
                sv_rates.append(_rate(sv(ids, picks, params), queries,
                                      metrics["sv"])[0])
            rhog_db = rhog(ids, prep["views"], params, prep["rotations"],
                           cfg["rhog"]["min_facing"])
            scene_rates = {
                "sv": float(np.mean(sv_rates)),
                "mv": _rate(mv(ids, dens, params), queries, metrics["mv"])[0],
                "keepall": _rate(keepall(ids, dens, params), queries,
                                 metrics["keepall"])[0],
                "rhog": _rate(rhog_db, queries, metrics["rhog"])[0],
            }
            for m in METHODS:
                rows.append((run.name, m, size, metrics[m], scene_rates[m]))
                bucket = pooled[m].setdefault(size, {"correct": 0.0, "n": 0})
                bucket["correct"] += scene_rates[m] * len(truth)
                bucket["n"] += len(truth)

    pooled_rates = {m: {str(s): b["correct"] / b["n"] for s, b in per.items()}
                    for m, per in pooled.items()}
    for m in METHODS:
        for s, r in pooled_rates[m].items():
            rows.append(("ALL", m, int(s), metrics[m], r))

    # -- excitation study --------------------------------------------------
    # Subsets are contiguous windows of the (closed) orbit with a random
    # start: window length stands in for how long the point was observed,
    # so both the excitation proxy and the appearance coverage grow with k.
    exc_cfg = cfg["excitation"]
    exc_size = exc_cfg["patch_size"]
    scatters = {run.name: [patch_scatter(pats) for pats in
                           preps[(run.name, exc_size)]["patches"]]
                for run in runs}
    exc_points = []
    for k in exc_cfg["ks"]:
        for trial in range(exc_cfg["trials"]):
            rng = np.random.default_rng(np.random.SeedSequence(
                (cfg["seed"], 77, int(k), trial)))
            correct = total = 0
            exc_vals = []
            for run in runs:
                prep = preps[(run.name, exc_size)]
                n = min(int(k), run.n_frames)
                start = int(rng.integers(0, run.n_frames))
                subset = (start + np.arange(n)) % run.n_frames
                db = mv(prep["track_ids"], prep["densities"][:, subset],
                        prep["params"])
                r, nq = _rate(db, prep["queries"], metrics["mv"])
                correct += r * nq
                total += nq
                exc_vals += [excitation_score(pats[subset], scatter) for pats, scatter
                             in zip(prep["patches"], scatters[run.name])]
            exc_points.append({
                "k": int(k),
                "trial": trial,
                "excitation": float(np.mean(exc_vals)),
                "rate": correct / total,
            })
    ks = sorted({p["k"] for p in exc_points})
    mean_exc = [float(np.mean([p["excitation"] for p in exc_points if p["k"] == k]))
                for k in ks]
    mean_rate = [float(np.mean([p["rate"] for p in exc_points if p["k"] == k]))
                 for k in ks]
    exc_spearman = spearman(mean_exc, mean_rate)

    # -- storage and update-cost studies -----------------------------------
    ref_prep = preps[(runs[0].name, cfg["patch_sizes"][-1])]
    memory = memory_scaling(ref_prep["densities"], ref_prep["params"],
                            cfg["memory_lengths"])
    timing = update_cost_profile(ref_prep["densities"][0], ref_prep["params"],
                                 cfg["timing_lengths"], cfg["timing_reps"])

    elapsed = time.perf_counter() - t_start
    report = {
        "config": cfg,
        "rows": [{"scene": s, "method": m, "patch_size": p, "metric": met,
                  "rate": r} for (s, m, p, met, r) in rows],
        "pooled": pooled_rates,
        "n_tracks": n_tracks,
        "excitation": {"points": exc_points, "spearman": exc_spearman,
                       "mean_excitation": mean_exc, "mean_rate": mean_rate,
                       "ks": ks},
        "memory": memory,
    }

    _write_csv(out / "report.csv",
               ["scene", "method", "patch_size", "metric", "rate"],
               [(s, m, p, met, f"{r:.6f}") for (s, m, p, met, r) in rows])
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=1) + "\n")
    _write_csv(out / "excitation.csv", ["k", "trial", "excitation", "rate"],
               [(p["k"], p["trial"], f"{p['excitation']:.8f}", f"{p['rate']:.6f}")
                for p in exc_points])
    _write_csv(out / "timing.csv", ["frames", "update_seconds"],
               [(t, f"{s:.9f}") for t, s in
                zip(timing["lengths"], timing["update_seconds"])]
               + [("total_wall_seconds", f"{elapsed:.3f}")])
    report["timing"] = timing
    report["elapsed_seconds"] = elapsed
    return report


def hash_name(name: str) -> int:
    """Stable small integer from a scene name (hash() is salted per process)."""
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) % 1000003
    return h


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
