"""Layer benchmark for the descriptor database: ``extend``, ``save``, ``load``.

Run from the repository root (kept out of ``testpaths``, so the unit tests
do not pay for it):

    PYTHONPATH=src python -m pytest benchmarks/test_db_kernels.py -q -s

The database is 11,200 rows of 256 values, the size of one full-benchmark
rhog database at patch 21 (140 tracks x 4 keyframes x 20 views). ``extend``
is timed as the rhog builder calls it, one block of 20 views per keyframe
surface, followed by the first ``matrix`` access that joins the blocks.
Each case prints the time per call and the peak memory NumPy allocated
during one call, as traced by ``tracemalloc``. Pin the BLAS thread count
(``OPENBLAS_NUM_THREADS=1``) to compare runs across machines.
"""

import tracemalloc

import numpy as np
import pytest

from mvdesc.hog import DescriptorParams
from mvdesc.matching import DescriptorDatabase

ROWS = 11_200
VIEWS = 20                                  # rows per extend call
PARAMS = DescriptorParams(patch_size=21)   # 4 x 4 cells x 16 bins = 256


@pytest.fixture(scope="module")
def rhog_rows():
    rng = np.random.default_rng(2013)
    v = rng.random((ROWS, PARAMS.cells ** 2, PARAMS.bins))
    return (v / v.sum(axis=2, keepdims=True)).reshape(ROWS, -1)


def build(rows):
    db = DescriptorDatabase("rhog", PARAMS)
    for s in range(0, ROWS, VIEWS):
        db.extend(s // 80, rows[s:s + VIEWS])
    db.matrix  # joins the blocks
    return db


def traced_peak_mib(fn, *args) -> float:
    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2 ** 20


def report(benchmark, name, peak):
    if benchmark.stats is None:  # --benchmark-disable: run once, untimed
        return
    ms = 1e3 * benchmark.stats.stats.median
    benchmark.extra_info.update(ms=ms, peak_mib=peak)
    print(f"\n{name}: {ROWS} x {PARAMS.cells ** 2 * PARAMS.bins} rows, "
          f"{ms:.1f} ms, peak {peak:.1f} MiB")


def test_extend(benchmark, rhog_rows):
    peak = traced_peak_mib(build, rhog_rows)
    db = benchmark.pedantic(build, args=(rhog_rows,), rounds=5,
                            iterations=1, warmup_rounds=1)
    report(benchmark, "extend", peak)
    assert db.matrix.shape == (ROWS, 256)
    assert db.track_ids[-1] == ROWS // 80 - 1


def test_save(benchmark, rhog_rows, tmp_path):
    db = build(rhog_rows)
    path = tmp_path / "rhog.db"
    peak = traced_peak_mib(db.save, path)
    benchmark.pedantic(db.save, args=(path,), rounds=5, iterations=1,
                       warmup_rounds=1)
    report(benchmark, "save", peak)
    assert path.stat().st_size == 21 + ROWS * (4 + 4 * 256)


def test_load(benchmark, rhog_rows, tmp_path):
    path = tmp_path / "rhog.db"
    build(rhog_rows).save(path)
    peak = traced_peak_mib(DescriptorDatabase.load, path)
    back = benchmark.pedantic(DescriptorDatabase.load, args=(path,),
                              rounds=5, iterations=1, warmup_rounds=1)
    report(benchmark, "load", peak)
    assert back.matrix.tobytes() == \
        rhog_rows.astype(np.float32).astype(np.float64).tobytes()
