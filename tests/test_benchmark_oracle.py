"""The benchmark's nearest-neighbour oracle accepts the program's calls.

``perfbench/oracle.py`` wraps ``mvdesc.bench.match_all`` and
``mvdesc.cli.nn_query`` during a timed run and re-checks every sampled
answer by brute force under the metric each call names. Here a small
benchmark and one ``mvdesc match`` run under it, so a change that breaks
what the oracle relies on fails in the unit tests, not only in a perfbench
run. The oracle is loaded from its file as it stands.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mvdesc import bench
from mvdesc.cli import main
from mvdesc.hog import DescriptorParams

ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


@pytest.fixture
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorded_queries_pass_the_oracle(oracle, tmp_path):
    params = DescriptorParams(11)
    grids = np.random.default_rng(5).random((2, 6, 4, 4, 16))
    for name, stack in zip(("db", "queries"), grids):
        bench.sv(range(6), stack, params).save(tmp_path / name)
    recorder = oracle.MatchRecorder().install()
    try:
        bench.run_benchmark({
            "scenes": [{"name": "tiny", "kind": "plane", "seed": 101,
                        "n_frames": 4}],
            "patch_sizes": [11], "sv_trials": 1, "max_tracks": 10,
            "tracker": {"n_features": 60},
            "rhog": {"keyframes": 2},
            "excitation": {"ks": [2, 4], "trials": 1, "patch_size": 11},
            "memory_lengths": [2, 4], "timing_lengths": [1, 4],
            "timing_reps": 2,
        }, tmp_path / "bench")
        # no --metric: the match command's default must reach the call
        assert main(["match", "--db", str(tmp_path / "db"), "--queries",
                      str(tmp_path / "queries"),
                      "--out", str(tmp_path / "m.csv")]) == 0
    finally:
        recorder.uninstall()
    # every nn_query call of the match, and the benchmark's match_all calls
    assert len(recorder.calls) > len(recorder.nn_latency_s) == 6
    assert all(c[2] is not None for c in recorder.calls)
    checked, failed, notes = oracle.check(recorder.calls)
    assert checked > 6 and failed == 0, notes
