"""Layer benchmark for the per-scene array stages: the batched patch cut,
``attach_patches`` over a whole sequence and one test view's ground-truth
correspondence, each beside its per-item loop.

Run from the repository root with one BLAS thread (kept out of
``testpaths``, so the unit tests do not pay for it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/test_scene_kernels.py -q -s

The scene has the size of the plane-match benchmark workload: a 120 x 90
plane orbit of 10 frames with a 15 degree sway and its detector settings.
``quantized_patches`` cuts 1, 24 and 240 patches at p 11 and 21 (one
query, one frame of the workload's 24 tracks, ten such frames) centered on
the corners of frame 0, each at its own pyramid level, cycled as needed.
``attach_patches`` cuts the p 21 patches of the first 24 tracks that
survive the orbit from the frames' pyramids, each built once by the fixture.
``ground_truth_correspondences`` maps the frame-0 corners of both levels
into the first test view. Each case prints the time per item, batched and
one at a time through the scalar reference forms of ``tests/oracles.py``,
and checks that both give the same bits. Under
``--benchmark-disable`` each case runs once, untimed, as a smoke check.
"""

import time

import numpy as np
import pytest

from mvdesc.image import build_pyramid, level_to_base
from mvdesc.scene import (default_scene_spec, generate_dataset,
                          ground_truth_correspondences)
from mvdesc.tracking import (TrackerConfig, attach_patches, detect_corners,
                             quantized_patches, run_tracker)

from oracles import ground_truth_correspondence, quantized_patch

CFG = TrackerConfig(n_features=60, levels=2, reject_thresh=0.08, count_tol=0.02)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    spec = default_scene_spec("bench-plane", "plane", 7)
    spec.update(n_frames=10, orbit_azimuth_amp_deg=15, resolution=[120, 90],
                focal=127.5)
    ds = generate_dataset(spec, tmp_path_factory.mktemp("scene-bench"))
    pyrs = [build_pyramid(v.image, CFG.levels) for v in ds.frames]
    corners = detect_corners(pyrs[0], CFG)
    return ds, pyrs, corners


def per_item_seconds(fn, items, reps=5):
    t0 = time.perf_counter()
    for _ in range(reps):
        out = [fn(x) for x in items]
    return (time.perf_counter() - t0) / (reps * len(items)), out


@pytest.mark.parametrize("n", [1, 24, 240])
@pytest.mark.parametrize("patch_size", [11, 21])
def test_quantized_patches(benchmark, scene, patch_size, n):
    _, (pyr, *_), corners = scene
    pick = np.arange(n) % len(corners)
    levels = np.array([lvl for lvl, _, _ in corners])[pick]
    xy = np.array([xy for _, xy, _ in corners])[pick]

    got = benchmark.pedantic(quantized_patches,
                             args=(pyr, xy, levels, patch_size),
                             rounds=20, iterations=5, warmup_rounds=1)
    single, one = per_item_seconds(
        lambda i: quantized_patch(pyr.level(levels[i]), xy[i], patch_size),
        range(n))
    assert got.tobytes() == np.stack(one).tobytes()
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    batched = 1e6 * benchmark.stats.stats.median / n
    benchmark.extra_info.update(us_per_patch=batched,
                                us_per_patch_single=1e6 * single)
    print(f"\npatch {patch_size}, {n} patches: {batched:.1f} us per patch "
          f"batched, {1e6 * single:.1f} us one at a time")


def test_ground_truth_correspondences(benchmark, scene):
    ds, _, corners = scene
    src, dst = ds.frames[0], ds.tests[0]
    xy = level_to_base(np.array([xy for _, xy, _ in corners]),
                       np.array([lvl for lvl, _, _ in corners]))

    uv, status = benchmark.pedantic(ground_truth_correspondences,
                                    args=(src, dst, xy),
                                    rounds=20, iterations=5, warmup_rounds=1)
    single, one = per_item_seconds(
        lambda q: ground_truth_correspondence(src, dst, q), xy)
    assert status.tolist() == [c.status for c in one]
    assert uv.tobytes() == np.array([c.xy for c in one]).tobytes()
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    batched = 1e6 * benchmark.stats.stats.median / len(xy)
    benchmark.extra_info.update(points=len(xy), us_per_point=batched,
                                us_per_point_single=1e6 * single)
    print(f"\n{len(xy)} points into one test view: {batched:.1f} us per point "
          f"batched, {1e6 * single:.1f} us one at a time")


def test_attach_patches(benchmark, scene):
    _, pyrs, _ = scene
    tracks = [t for t in run_tracker(pyrs, CFG) if t.alive][:24]
    p = 21

    benchmark.pedantic(attach_patches, args=(tracks, pyrs, p),
                       rounds=20, iterations=1, warmup_rounds=1)
    per_track, one = per_item_seconds(
        lambda t: [quantized_patch(pyr.level(t.level), q, p)
                   for pyr, q in zip(pyrs, t.positions)], tracks)
    got = np.stack([t.patches for t in tracks])
    assert got.tobytes() == np.array(one).tobytes()
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    n = got.shape[0] * got.shape[1]
    batched = 1e6 * benchmark.stats.stats.median / n
    single = 1e6 * per_track * len(tracks) / n
    benchmark.extra_info.update(patches=n, us_per_patch=batched,
                                us_per_patch_single=single)
    print(f"\nattach_patches, {len(tracks)} tracks, {n} patches: "
          f"{batched:.1f} us per patch batched, {single:.1f} us one at a time")
