"""Layer benchmark for view synthesis: ``synthesize_views`` per rotation.

Run from the repository root (kept out of ``testpaths``, so the unit tests
do not pay for it):

    PYTHONPATH=src python -m pytest benchmarks/test_synth_kernels.py -q -s

The surface is a plane lifted at the center of a 160x120 view, at patch 11
and 21. The rotation grids are the benchmark's (4 azimuths x 5 in-plane
angles, 20 views) and the library default (8 x 10, 80 views); every view
of both grids is accepted here, so the time covers the full pass. Each
case prints the time per rotation and the peak memory NumPy allocated
during one call, as traced by ``tracemalloc``. Pin the BLAS thread count
(``OPENBLAS_NUM_THREADS=1``) to compare runs across machines.
"""

import tracemalloc

import numpy as np
import pytest

from mvdesc.geometry import PinholeCamera
from mvdesc.image import GrayImage
from mvdesc.viewsynth import LocalSurface, sample_rotations, synthesize_views

GRIDS = {20: (4, 5), 80: (8, 10)}


@pytest.mark.parametrize("n_rot", sorted(GRIDS))
@pytest.mark.parametrize("patch_size", [11, 21])
def test_synthesize_views(benchmark, patch_size, n_rot):
    cam = PinholeCamera(170.0, 79.5, 59.5, 160, 120)
    rays = cam.ray_directions(cam.pixel_grid())
    surface = LocalSurface.from_frame(1.8 / rays[..., 2], cam, (80, 60),
                                      patch_size)
    image = GrayImage(np.random.default_rng(2013).random((120, 160)))
    rotations = sample_rotations(*GRIDS[n_rot])

    tracemalloc.start()
    synthesize_views(surface, image, rotations)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    stack, kept = benchmark.pedantic(synthesize_views,
                                     args=(surface, image, rotations),
                                     rounds=20, iterations=5, warmup_rounds=1)
    assert stack.shape == (n_rot, patch_size, patch_size)
    assert len(kept) == n_rot
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    us = 1e6 * benchmark.stats.stats.median / n_rot
    benchmark.extra_info.update(us_per_rotation=us, peak_mib=peak / 2 ** 20)
    print(f"\npatch {patch_size}, {n_rot} rotations: {us:.1f} us per "
          f"rotation, peak {peak / 2 ** 20:.2f} MiB")
