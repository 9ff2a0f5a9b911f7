"""Layer benchmark for tracking: ``run_tracker``, the batched KLT step and ``_nms``.

Run from the repository root with one BLAS thread (kept out of
``testpaths``, so the unit tests do not pay for it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/test_track_kernels.py -q -s

The scene has the size of the plane-match benchmark workload: a 120 x 90
plane orbit of 10 frames with a 15 degree sway, 60 corners over two
pyramid levels. ``klt_steps`` is timed on every level-0 corner of the
first frame pair, beside the same points through ``klt_step`` one at a
time; ``_nms`` on the candidates of level 0 at the lowest detector
threshold, the largest set ``auto_threshold`` suppresses.
"""

import time

import numpy as np
import pytest

from mvdesc.image import build_pyramid
from mvdesc.scene import default_scene_spec, generate_dataset
from mvdesc.tracking import (TrackerConfig, _nms, detect_corners,
                             fast_score_map, klt_step, klt_steps, run_tracker)

CFG = TrackerConfig(n_features=60, levels=2, reject_thresh=0.08, count_tol=0.02)


@pytest.fixture(scope="module")
def frames(tmp_path_factory):
    spec = default_scene_spec("bench-plane", "plane", 7)
    spec.update(n_frames=10, orbit_azimuth_amp_deg=15, resolution=[120, 90],
                focal=127.5)
    ds = generate_dataset(spec, tmp_path_factory.mktemp("track-bench"))
    return [v.image for v in ds.frames]


def test_run_tracker(benchmark, frames):
    tracks = benchmark.pedantic(run_tracker, args=(frames, CFG), rounds=5,
                                iterations=1, warmup_rounds=1)
    steps = sum(t.length - 1 for t in tracks) + sum(not t.alive for t in tracks)
    ms = 1e3 * benchmark.stats.stats.median
    benchmark.extra_info.update(tracks=len(tracks), point_frames=steps)
    print(f"\nrun_tracker: {len(tracks)} tracks, {steps} point-frames, "
          f"{ms:.1f} ms per sequence")
    assert tracks


def test_klt_steps(benchmark, frames):
    p0, p1 = build_pyramid(frames[0], CFG.levels), build_pyramid(frames[1], CFG.levels)
    pos = np.array([xy for lvl, xy, _ in detect_corners(p0, CFG) if lvl == 0])
    prev, nxt = p0.level(0), p1.level(0)

    new, ok = benchmark.pedantic(klt_steps, args=(prev, nxt, pos, CFG),
                                 rounds=20, iterations=5, warmup_rounds=1)
    batched = 1e6 * benchmark.stats.stats.median / len(pos)

    t0 = time.perf_counter()
    for _ in range(5):
        one = [klt_step(prev, nxt, p, CFG) for p in pos]
    single = 1e6 * (time.perf_counter() - t0) / (5 * len(pos))
    benchmark.extra_info.update(points=len(pos), us_per_point=batched,
                                us_per_point_single=single)
    print(f"\nklt_steps: {len(pos)} points, {batched:.0f} us per point-frame "
          f"batched, {single:.0f} us one at a time")
    assert [o is not None for o in one] == ok.tolist()


def test_nms(benchmark, frames):
    img = build_pyramid(frames[0], CFG.levels).level(0)
    mask, score = fast_score_map(img, CFG.threshold_range[0], CFG.arc)
    m = CFG.min_border
    mask[:m] = mask[-m:] = False
    mask[:, :m] = mask[:, -m:] = False
    ys, xs = np.nonzero(mask)
    xy = np.stack([xs, ys], axis=1).astype(np.float64)
    kept = benchmark.pedantic(_nms, args=(xy, score[ys, xs], CFG.nms_radius),
                              rounds=20, iterations=1, warmup_rounds=1)
    us = 1e6 * benchmark.stats.stats.median / len(xy)
    benchmark.extra_info.update(candidates=len(xy), kept=len(kept),
                                us_per_candidate=us)
    print(f"\n_nms: {len(xy)} candidates, {len(kept)} kept, "
          f"{us:.2f} us per candidate")
    assert 0 < len(kept) < len(xy)
