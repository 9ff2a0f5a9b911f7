"""Tests of the benchmark itself: ``python -m pytest perfbench -q`` from the root.

The integration tests run ``perfbench/run.py`` in subprocesses on the
smallest workload, so they take a couple of minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracle import check, reference_answer
from spans import COMMON_LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
SMALLEST = "cli-roundtrip"
EXACT_COUNTS = ["tracking.klt_calls", "hog.density_calls",
                "viewsynth.rotations_attempted", "matching.distance_evals"]


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _details(workload, seed, trace):
    path = ROOT / ".perfbench_out" / f"{workload}-s{seed}-t{trace}.json"
    return json.loads(path.read_text())


def test_benchmark_json_matches_the_code():
    sys.path.insert(0, str(ROOT / "src"))
    from run import END_TO_END
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == COMMON_LAYER_METRICS


def test_oracle_breaks_ties_toward_the_lowest_track():
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    tid, dist, _ = reference_answer([0.0, 1.0], rows, [9, 4, 4], "l2")
    assert (tid, dist) == (4, 0.0)


class _Db:
    method, metric = "mv", "l2"
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    track_ids = [1, 2]


def test_oracle_counts_a_wrong_answer_and_a_raised_call():
    q = np.array([[0.0, 1.0]])
    calls = [(_Db, q, None, np.array([1]), np.array([0.0]), None),
             (_Db, q, None, np.array([2]), np.array([0.0]), None),
             (_Db, q, None, None, None, RuntimeError("boom"))]
    checked, failed, notes = check(calls)
    assert (checked, failed) == (3, 2)
    assert len(notes) == 2


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SMALLEST, "--seed", 1, "--seconds", 1,
                "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def traced_twice():
    runs = []
    for _ in range(2):
        _result(_run("--workload", SMALLEST, "--seed", 3, "--seconds", 1,
                     "--trace", 1))
        runs.append(_details(SMALLEST, 3, 1))
    return runs


def test_traced_counts_repeat_exactly(traced_twice):
    a, b = traced_twice
    assert a["result"]["correct"] and b["result"]["correct"]
    for name in EXACT_COUNTS:
        assert a["layers"][name] == b["layers"][name] > 0, name


def test_tracing_changes_no_output(traced_twice):
    before, traced, after = traced_twice[0]["iterations"]
    assert before["fingerprint"] == traced["fingerprint"] == after["fingerprint"]
    assert before["rates"] == traced["rates"] == after["rates"]


def test_untraced_run_matches_traced_output(traced_twice):
    res = _result(_run("--workload", SMALLEST, "--seed", 3, "--seconds", 1,
                       "--trace", 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    plain = _details(SMALLEST, 3, 0)
    assert plain["fingerprint"] == traced_twice[0]["fingerprint"]
    assert plain["rates"] == traced_twice[0]["rates"]
    assert set(res["metrics"]) == {"solve_s", "setup_s", "peak_rss_mb"}
