"""Layer benchmark for matching: ``match_all`` at the rhog row shape.

Run from the repository root (kept out of ``testpaths``, so the unit tests
do not pay for it):

    PYTHONPATH=src python -m pytest benchmarks -q -s

The database is 11,200 rows of 256 values, the size of one full-benchmark
rhog database at patch 21 (140 tracks x 4 keyframes x 20 views). Each case
times one batch of 64 queries and prints the peak memory NumPy allocated
during one call, as traced by ``tracemalloc``. Pin the BLAS thread count
(``OPENBLAS_NUM_THREADS=1``) to compare runs across machines.
"""

import tracemalloc

import numpy as np
import pytest

from mvdesc.hog import DescriptorParams
from mvdesc.matching import DescriptorDatabase, match_all

ROWS = 11_200
QUERIES = 64
PARAMS = DescriptorParams(patch_size=21)   # 4 x 4 cells x 16 bins = 256


def _cells(rng, n):
    v = rng.random((n, PARAMS.cells ** 2, PARAMS.bins))
    return (v / v.sum(axis=2, keepdims=True)).reshape(n, -1)


@pytest.fixture(scope="module")
def rhog_rows():
    rng = np.random.default_rng(2013)
    rows = _cells(rng, ROWS)
    queries = _cells(rng, QUERIES)
    return rows, queries


@pytest.mark.parametrize("metric", ["l2", "chi2"])
def test_match_all(benchmark, rhog_rows, metric):
    rows, queries = rhog_rows
    db = DescriptorDatabase("rhog", PARAMS, np.arange(ROWS) // 80, rows)

    tracemalloc.start()
    match_all(db, queries, metric)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    benchmark.extra_info["peak_mib"] = peak / 2 ** 20
    print(f"\n{metric}: {QUERIES} queries x {ROWS} rows x {rows.shape[1]}, "
          f"peak {peak / 2 ** 20:.1f} MiB")

    ids, _ = benchmark.pedantic(match_all, args=(db, queries, metric), rounds=3,
                                iterations=1, warmup_rounds=0)
    assert ids.shape == (QUERIES,)
