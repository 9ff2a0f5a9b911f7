"""Layer benchmark for rendering: ``render_view`` per view and
``HeightfieldSurface.height`` per point.

Run from the repository root (kept out of ``testpaths``, so the unit tests
do not pay for it):

    PYTHONPATH=src python -m pytest benchmarks/test_render_kernels.py -q -s

The scenes are the default spec's plane and relief (heightfield) at seed
202, rendered at 160x120 from the first training pose, with the
photometric draw of that frame. ``height`` is timed on 100,000 points
spread over twice the lattice footprint, so a quarter of them fall inside
it and the rest exercise the clamp. Each case prints the median time per
view or per point. Pin the BLAS thread count (``OPENBLAS_NUM_THREADS=1``)
to compare runs across machines.
"""

import numpy as np
import pytest

from mvdesc.scene import (_camera, _draw_photometric, _spec_rng, build_scene,
                          default_scene_spec, orbit_poses, render_view)

SEED = 202
ROUNDS = {"plane": 40, "heightfield": 5}


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
