"""Layer benchmark for orientation densities: ``patch_densities`` per stack.

Run from the repository root (kept out of ``testpaths``, so the unit tests
do not pay for it):

    PYTHONPATH=src python -m pytest benchmarks/test_density_kernels.py -q -s

Stacks of 1, 20 and 80 patches are the natural sizes in the program: one
query patch, one track's frames, and the default grid of 80 synthesized
views. Patches are 8-bit quantized like the stored ones. Each case prints
the time per patch and the peak memory NumPy allocated during one call, as
traced by ``tracemalloc``. Pin the BLAS thread count
(``OPENBLAS_NUM_THREADS=1``) to compare runs across machines.
"""

import tracemalloc

import numpy as np
import pytest

from mvdesc.hog import DescriptorParams, patch_densities


@pytest.mark.parametrize("stack", [1, 20, 80])
@pytest.mark.parametrize("patch_size", [11, 21])
def test_patch_densities(benchmark, patch_size, stack):
    params = DescriptorParams(patch_size)
    rng = np.random.default_rng(2013)
    patches = np.round(rng.random((stack, patch_size, patch_size)) * 255.0) / 255.0
    patch_densities(patches, params)  # build the cached spatial weights

    tracemalloc.start()
    patch_densities(patches, params)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    grids = benchmark.pedantic(patch_densities, args=(patches, params),
                               rounds=20, iterations=5, warmup_rounds=1)
    assert grids.shape == (stack, params.cells, params.cells, params.bins)
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    us = 1e6 * benchmark.stats.stats.median / stack
    benchmark.extra_info.update(us_per_patch=us, peak_mib=peak / 2 ** 20)
    print(f"\npatch {patch_size}, stack {stack}: {us:.1f} us per patch, "
          f"peak {peak / 2 ** 20:.2f} MiB")
