"""Layer benchmark for rendering: ``render_view`` per view,
``generate_dataset`` per scene and ``HeightfieldSurface.height`` per point.

Run from the repository root (kept out of ``testpaths``, so the unit tests
do not pay for it):

    PYTHONPATH=src python -m pytest benchmarks/test_render_kernels.py -q -s

The scenes are the default spec's plane and relief (heightfield) at seed
202, rendered at 160x120 from the first training pose, with the
photometric draw of that frame. ``generate_dataset`` renders and writes a
plane scene of the plane-match benchmark workload's size: 120x90, 10
orbit frames with a 15 degree sway and 18 held-out views, all through one
camera. ``height`` is timed on 100,000 points spread over twice the
lattice footprint, so a quarter of them fall inside it and the rest
exercise the clamp. Each case prints the median time per view, per scene
or per point. Pin the BLAS thread count (``OPENBLAS_NUM_THREADS=1``) to
compare runs across machines.
"""

import numpy as np
import pytest

from mvdesc.scene import (_camera, _draw_photometric, _spec_rng, build_scene,
                          default_scene_spec, generate_dataset, orbit_poses,
                          render_view)

SEED = 202
ROUNDS = {"plane": 40, "heightfield": 5}
# the plane-match scene: 120x90 at the default field of view, a 10-frame
# orbit swaying 15 degrees, and 18 held-out views 16-22 degrees below it
PLANE_MATCH_SCENE = {
    "resolution": [120, 90], "focal": 127.5,
    "n_frames": 10, "orbit_azimuth_amp_deg": 15,
    "test_azimuths_deg": [0, 5, -5, 10, -10, 15, -15, 20, -20,
                          25, -25, 0, 8, -8, 12, -12, 18, -18],
    "test_elevations_deg": [46, 44, 45, 46, 44, 45, 46, 44, 45,
                            46, 44, 45, 46, 44, 45, 46, 44, 45],
    "test_distance_scale": [1, 1.05, 1.1, 1.05, 1.1, 1, 1.1, 1, 1.05,
                            1, 1.05, 1.1, 1.05, 1.1, 1, 1.1, 1, 1.05],
}


@pytest.mark.parametrize("kind", ["plane", "heightfield"])
def test_render_view(benchmark, kind):
    spec = default_scene_spec("bench", kind, SEED)
    scene = build_scene(spec)
    cam = _camera(spec)
    pose = orbit_poses(spec)[0]
    photo = _draw_photometric(spec, _spec_rng(SEED, 2, 0, 0))

    def render():
        return render_view(scene, cam, pose, photo, rng=_spec_rng(SEED, 2, 0, 1))

    view = benchmark.pedantic(render, rounds=ROUNDS[kind], iterations=1,
                              warmup_rounds=1)
    assert view.image.shape == (cam.height, cam.width)
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    ms = 1e3 * benchmark.stats.stats.median
    benchmark.extra_info.update(ms_per_view=ms)
    print(f"\n{kind}: {ms:.2f} ms per {cam.width}x{cam.height} view")


def test_generate_dataset(benchmark, tmp_path):
    spec = {**default_scene_spec("bench", "plane", SEED), **PLANE_MATCH_SCENE}

    ds = benchmark.pedantic(generate_dataset, args=(spec, tmp_path),
                            rounds=10, iterations=1, warmup_rounds=1)
    views = len(ds.frames) + len(ds.tests)
    assert (views, ds.camera.width, ds.camera.height) == (28, 120, 90)
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    ms = 1e3 * benchmark.stats.stats.median
    benchmark.extra_info.update(ms_per_scene=ms, ms_per_view=ms / views)
    print(f"\ngenerate_dataset: {ms:.1f} ms per scene, {ms / views:.2f} ms "
          f"per {ds.camera.width}x{ds.camera.height} view ({views} views)")


def test_height_per_point(benchmark):
    spec = default_scene_spec("bench", "heightfield", SEED)
    surface = build_scene(spec).surface
    rng = np.random.default_rng(SEED)
    x, y = rng.uniform(-surface.extent, surface.extent, (2, 100_000))

    z = benchmark.pedantic(surface.height, args=(x, y), rounds=20,
                           iterations=1, warmup_rounds=1)
    assert z.shape == x.shape and np.all(np.isfinite(z))
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    ns = 1e9 * benchmark.stats.stats.median / x.size
    benchmark.extra_info.update(ns_per_point=ns)
    print(f"\nheight: {ns:.1f} ns per point")
