"""Layer benchmark for the per-scene array stages: the batched patch cut and
one test view's ground-truth correspondence, each beside its per-item loop.

Run from the repository root with one BLAS thread (kept out of
``testpaths``, so the unit tests do not pay for it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/test_scene_kernels.py -q -s

The scene has the size of the plane-match benchmark workload: a 120 x 90
plane orbit of 10 frames with a 15 degree sway and its detector settings.
``quantized_patches`` cuts 1, 24 and 240 patches at p 11 and 21 (one
query, one frame of the workload's 24 tracks, ten such frames) centered on
the level-0 corners of frame 0, cycled as needed.
``ground_truth_correspondences`` maps the frame-0 corners of both levels
into the first test view. Each case prints the time per item, batched and
one at a time, and checks that both give the same bits.
"""

import time

import numpy as np
import pytest

from mvdesc.image import build_pyramid, level_to_base
from mvdesc.scene import (default_scene_spec, generate_dataset,
                          ground_truth_correspondence,
                          ground_truth_correspondences)
from mvdesc.tracking import (TrackerConfig, detect_corners, quantized_patch,
                             quantized_patches)

CFG = TrackerConfig(n_features=60, levels=2, reject_thresh=0.08, count_tol=0.02)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    spec = default_scene_spec("bench-plane", "plane", 7)
    spec.update(n_frames=10, orbit_azimuth_amp_deg=15, resolution=[120, 90],
                focal=127.5)
    ds = generate_dataset(spec, tmp_path_factory.mktemp("scene-bench"))
    pyr = build_pyramid(ds.frames[0].image, CFG.levels)
    corners = detect_corners(pyr, CFG)
    return ds, pyr, corners


def per_item_seconds(fn, items, reps=5):
    t0 = time.perf_counter()
    for _ in range(reps):
        out = [fn(x) for x in items]
    return (time.perf_counter() - t0) / (reps * len(items)), out


@pytest.mark.parametrize("n", [1, 24, 240])
@pytest.mark.parametrize("patch_size", [11, 21])
def test_quantized_patches(benchmark, scene, patch_size, n):
    _, pyr, corners = scene
    img = pyr.level(0)
    level0 = np.array([xy for lvl, xy, _ in corners if lvl == 0])
    xy = level0[np.arange(n) % len(level0)]

    got = benchmark.pedantic(quantized_patches,
                             args=(img.data, xy, patch_size),
                             rounds=20, iterations=5, warmup_rounds=1)
    batched = 1e6 * benchmark.stats.stats.median / n
    single, one = per_item_seconds(lambda q: quantized_patch(img, q, patch_size), xy)
    benchmark.extra_info.update(us_per_patch=batched,
                                us_per_patch_single=1e6 * single)
    print(f"\npatch {patch_size}, {n} patches: {batched:.1f} us per patch "
          f"batched, {1e6 * single:.1f} us one at a time")
    assert got.tobytes() == np.stack(one).tobytes()


def test_ground_truth_correspondences(benchmark, scene):
    ds, _, corners = scene
    src, dst = ds.frames[0], ds.tests[0]
    xy = np.array([level_to_base(xy, lvl) for lvl, xy, _ in corners])

    uv, status = benchmark.pedantic(ground_truth_correspondences,
                                    args=(src, dst, xy),
                                    rounds=20, iterations=5, warmup_rounds=1)
    batched = 1e6 * benchmark.stats.stats.median / len(xy)
    single, one = per_item_seconds(
        lambda q: ground_truth_correspondence(src, dst, q), xy)
    benchmark.extra_info.update(points=len(xy), us_per_point=batched,
                                us_per_point_single=1e6 * single)
    print(f"\n{len(xy)} points into one test view: {batched:.1f} us per point "
          f"batched, {1e6 * single:.1f} us one at a time")
    assert status.tolist() == [c.status for c in one]
    assert uv.tobytes() == np.array([c.xy for c in one]).tobytes()
