"""Layer benchmark for tracking: ``run_tracker``, corner detection, the
batched KLT step and ``_nms``.

Run from the repository root with one BLAS thread (kept out of
``testpaths``, so the unit tests do not pay for it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/test_track_kernels.py -q -s

The scene has the size of the plane-match benchmark workload: a 120 x 90
plane orbit of 10 frames with a 15 degree sway, 60 corners over two
pyramid levels, each frame's pyramid built once by the fixture, as the
benchmark and ``mvdesc track`` build them. ``detect_corners`` is timed over the whole threshold
search on the first frame; ``klt_steps`` in one call on every corner of
both levels of the first frame pair, beside the same points through
``klt_step`` one at a time; ``_nms`` on the candidates of level 0 at the
lowest detector threshold, the largest set ``auto_threshold`` suppresses.
Under ``--benchmark-disable`` each case runs once, untimed, as a smoke check.
"""

import time

import numpy as np
import pytest

from mvdesc.image import build_pyramid
from mvdesc.scene import default_scene_spec, generate_dataset
from mvdesc.tracking import (TrackerConfig, _nms, detect_corners, klt_step,
                             klt_steps, run_tracker)

from oracles import fast_score_map

CFG = TrackerConfig(n_features=60, levels=2, reject_thresh=0.08, count_tol=0.02)


@pytest.fixture(scope="module")
def pyrs(tmp_path_factory):
    spec = default_scene_spec("bench-plane", "plane", 7)
    spec.update(n_frames=10, orbit_azimuth_amp_deg=15, resolution=[120, 90],
                focal=127.5)
    ds = generate_dataset(spec, tmp_path_factory.mktemp("track-bench"))
    return [build_pyramid(v.image, CFG.levels) for v in ds.frames]


def test_run_tracker(benchmark, pyrs):
    tracks = benchmark.pedantic(run_tracker, args=(pyrs, CFG), rounds=5,
                                iterations=1, warmup_rounds=1)
    assert tracks
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    steps = sum(t.length - 1 for t in tracks) + sum(not t.alive for t in tracks)
    ms = 1e3 * benchmark.stats.stats.median
    benchmark.extra_info.update(tracks=len(tracks), point_frames=steps)
    print(f"\nrun_tracker: {len(tracks)} tracks, {steps} point-frames, "
          f"{ms:.1f} ms per sequence")


def test_detect_corners(benchmark, pyrs):
    det = benchmark.pedantic(detect_corners, args=(pyrs[0], CFG), rounds=20,
                             iterations=1, warmup_rounds=1)
    assert {lvl for lvl, _, _ in det} == {0, 1}
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    ms = 1e3 * benchmark.stats.stats.median
    benchmark.extra_info.update(corners=len(det))
    print(f"\ndetect_corners: {len(det)} corners, {ms:.1f} ms per threshold "
          f"search")


def test_klt_steps(benchmark, pyrs):
    p0, p1 = pyrs[:2]
    det = detect_corners(p0, CFG)
    pos = np.array([xy for _, xy, _ in det])
    levels = [lvl for lvl, _, _ in det]

    new, ok = benchmark.pedantic(klt_steps, args=(p0, p1, pos, levels, CFG),
                                 rounds=20, iterations=5, warmup_rounds=1)
    t0 = time.perf_counter()
    for _ in range(5):
        one = [klt_step(p0.level(lvl), p1.level(lvl), p, CFG)
               for lvl, p in zip(levels, pos)]
    single = 1e6 * (time.perf_counter() - t0) / (5 * len(pos))
    assert [o is not None for o in one] == ok.tolist()
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    batched = 1e6 * benchmark.stats.stats.median / len(pos)
    benchmark.extra_info.update(points=len(pos), us_per_point=batched,
                                us_per_point_single=single)
    print(f"\nklt_steps: {len(pos)} points on {CFG.levels} levels, "
          f"{batched:.0f} us per point-frame "
          f"batched, {single:.0f} us one at a time")


def test_nms(benchmark, pyrs):
    img = pyrs[0].level(0)
    mask, score = fast_score_map(img, CFG.threshold_range[0], CFG.arc)
    m = CFG.min_border
    mask[:m] = mask[-m:] = False
    mask[:, :m] = mask[:, -m:] = False
    ys, xs = np.nonzero(mask)
    xy = np.stack([xs, ys], axis=1).astype(np.float64)
    kept = benchmark.pedantic(_nms, args=(xy, score[ys, xs], CFG.nms_radius),
                              rounds=20, iterations=1, warmup_rounds=1)
    assert 0 < len(kept) < len(xy)
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    us = 1e6 * benchmark.stats.stats.median / len(xy)
    benchmark.extra_info.update(candidates=len(xy), kept=len(kept),
                                us_per_candidate=us)
    print(f"\n_nms: {len(xy)} candidates, {len(kept)} kept, "
          f"{us:.2f} us per candidate")
