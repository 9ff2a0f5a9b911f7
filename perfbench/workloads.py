"""The benchmark workloads, built from the workload seed.

Each workload is a closed loop: one process, one Python thread, and the next
step starts only when the previous one returns. The workload seed only
derives scene and sampling seeds; the program sees nothing but the generated
config (or the CLI arguments). One *iteration* renders the scenes (set-up)
and then produces the workload's final outputs (solve). It returns a dict
with ``setup_s``, ``solve_s``, the output fingerprint and the rates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from pathlib import Path

import mvdesc.bench
import mvdesc.cli

# Every scene uses a 15 deg orbit sway (default 45) and a looser KLT residual
# threshold (0.08, default 0.04), so most tracks survive the orbit. In
# run_benchmark the detector's count tolerance of 2% (default 20%) pins the
# number of corners tracked. Together they keep the work per iteration
# nearly independent of which scene the seed draws.
_ORBIT = {"n_frames": 10, "orbit_azimuth_amp_deg": 15}
_TRACKER = {"n_features": 60, "reject_thresh": 0.08, "count_tol": 0.02}
# 120x90 keeps the default 160x120 field of view.
_SMALL = {"resolution": [120, 90], "focal": 127.5}

# Eighteen held-out views for plane-match, 16-22 deg below the training orbit
# (the program checks the 15 deg minimum offset) and within 25 deg of its
# centre azimuth, so nearly every track is visible in each. Three times the
# default six gives three times the queries per stored row, which keeps
# matching the largest stage while the database, and with it the
# (64, rows, 256) distance temporaries, stays small enough for a shared box.
_PLANE_TESTS = {
    "test_azimuths_deg": [0, 5, -5, 10, -10, 15, -15, 20, -20,
                          25, -25, 0, 8, -8, 12, -12, 18, -18],
    "test_elevations_deg": [46, 44, 45, 46, 44, 45, 46, 44, 45,
                            46, 44, 45, 46, 44, 45, 46, 44, 45],
    "test_distance_scale": [1, 1.05, 1.1, 1.05, 1.1, 1, 1.1, 1, 1.05,
                            1, 1.05, 1.1, 1.05, 1.1, 1, 1.1, 1, 1.05],
}
_STUDIES = {
    "memory_lengths": [2, 5, 10],
    "timing_lengths": [1, 5, 10],
    "timing_reps": 20,
}


def derived_seed(workload: str, seed: int, tag: str) -> int:
    """Stable per-purpose seed (str seeds hash with SHA-512, not salted)."""
    return random.Random(f"{workload}/{seed}/{tag}").randrange(1, 2 ** 31)


def plane_match_config(seed: int) -> dict:
    """Batch ``match_all`` against rhog and keepall databases dominates."""
    return {
        "seed": derived_seed("plane-match", seed, "bench"),
        "metric": "l2",
        "patch_sizes": [21],
        "sv_trials": 5,
        "max_tracks": 24,
        "scenes": [{
            "name": "plane1", "kind": "plane",
            "seed": derived_seed("plane-match", seed, "scene"),
            **_ORBIT, **_SMALL, **_PLANE_TESTS,
        }],
        "tracker": _TRACKER,
        "excitation": {"ks": [2, 5, 10], "trials": 1, "patch_size": 21},
        **_STUDIES,
    }


BENCH_CONFIGS = {"plane-match": plane_match_config}
WORKLOADS = [*BENCH_CONFIGS, "cli-roundtrip"]


def run_bench_iteration(workload: str, seed: int, out: Path, tracer=None) -> dict:
    """One ``run_benchmark`` call; set-up is the time inside generate_dataset."""
    cfg = BENCH_CONFIGS[workload](seed)
    setup = []
    real_generate = mvdesc.bench.generate_dataset

    def timed_generate(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real_generate(*args, **kwargs)
        finally:
            setup.append(time.perf_counter() - t0)

    mvdesc.bench.generate_dataset = timed_generate
    try:
        t0 = time.perf_counter()
        with (tracer.span("bench.run_benchmark") if tracer
              else contextlib.nullcontext()):
            report = mvdesc.bench.run_benchmark(cfg, out)
        total = time.perf_counter() - t0
    finally:
        mvdesc.bench.generate_dataset = real_generate

    raw = (out / "report.json").read_bytes()
    pooled = json.loads(raw)["pooled"]
    problems = []
    if pooled != report["pooled"]:
        problems.append("report.json pooled rates differ from the returned report")
    rates = {}
    for method, per in pooled.items():
        for size, rate in per.items():
            if not 0.0 <= rate <= 1.0:
                problems.append(f"rate {method}/{size} = {rate} is not a fraction")
            rates[f"rate_{method}"] = rate
    if min(report["n_tracks"].values(), default=0) < 1:
        problems.append(f"a scene kept no tracks: {report['n_tracks']}")
    return {
        "setup_s": sum(setup),
        "solve_s": total - sum(setup),
        "fingerprint": hashlib.sha256(raw).hexdigest(),
        "rates": rates,
        "problems": problems,
        "n_tracks": report["n_tracks"],
    }


_ACCURACY = re.compile(r"# accuracy (\d+)/(\d+)")


def _cli(argv, tracer=None) -> str:
    """Run one ``mvdesc`` command in-process; returns what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with (tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mvdesc.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"mvdesc {argv[0]} exited {code}: {err.getvalue()}")
    return err.getvalue()


# The CLI has no track cap, and how many of the 48 detected corners survive
# the orbit varies from scene to scene (19 to 34 of 40 in trials). Describing and
# matching the first 24 (by id) makes that work the same for every seed.
CLI_TRACKS = 24


def _keep_first_tracks(path: Path, n: int) -> None:
    doc = json.loads(path.read_text())
    doc["tracks"] = sorted(doc["tracks"], key=lambda r: r["id"])[:n]
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def run_cli_iteration(seed: int, out: Path, tracer=None) -> dict:
    """generate, track, describe four databases, match three query sets."""
    out.mkdir(parents=True, exist_ok=True)
    spec = out / "spec.json"
    spec.write_text(json.dumps({**_ORBIT, **_SMALL}))
    scene, tracks = out / "scene", out / "tracks"

    t0 = time.perf_counter()
    _cli(["generate", "--out", scene, "--kind", "plane", "--name", "plane1",
          "--seed", derived_seed("cli-roundtrip", seed, "scene"),
          "--spec", spec], tracer)
    t1 = time.perf_counter()
    _cli(["track", "--dataset", scene, "--out", tracks,
          "--features", 48, "--reject", _TRACKER["reject_thresh"],
          "--patch-size", 21], tracer)
    t_track = time.perf_counter()
    _keep_first_tracks(tracks / "tracks.json", CLI_TRACKS)
    t_trimmed = time.perf_counter()
    for name, extra in (("sv0", ["--method", "sv", "--frame", 0]),
                        ("sv5", ["--method", "sv", "--frame", 5]),
                        ("mv", ["--method", "mv"]),
                        ("rhog", ["--method", "rhog", "--keyframes", 2,
                                  "--dataset", scene])):
        _cli(["describe", "--tracks", tracks, "--out", out / f"{name}.db",
              *extra], tracer)
    matches = (("mv", "sv5", "chi2"), ("rhog", "sv0", "l2"),
               ("rhog", "sv5", "l2"))
    logs = []
    for db, queries, metric in matches:
        logs.append(_cli(["match", "--db", out / f"{db}.db",
                          "--queries", out / f"{queries}.db",
                          "--metric", metric,
                          "--out", out / f"{db}-{queries}.csv"], tracer))
    t2 = time.perf_counter()

    problems, digest = [], hashlib.sha256()
    counts = {"mv": [0, 0], "rhog": [0, 0]}
    for (db, queries, _), log in zip(matches, logs):
        raw = (out / f"{db}-{queries}.csv").read_bytes()
        digest.update(raw)
        rows = raw.decode().splitlines()[1:]
        correct = sum(int(r.split(",")[1] == r.split(",")[2]) for r in rows)
        m = _ACCURACY.search(log)
        if m is None or (int(m.group(1)), int(m.group(2))) != (correct, len(rows)):
            problems.append(f"{db}-{queries}: CSV gives {correct}/{len(rows)}, "
                            f"mvdesc printed {log.strip()!r}")
        counts[db][0] += correct
        counts[db][1] += len(rows)
    return {
        "setup_s": t1 - t0,
        "solve_s": (t_track - t1) + (t2 - t_trimmed),
        "fingerprint": digest.hexdigest(),
        "rates": {f"rate_{k}": c / n for k, (c, n) in counts.items() if n},
        "problems": problems,
        "n_queries": {k: n for k, (_, n) in counts.items()},
    }


def run_iteration(workload: str, seed: int, out: Path, tracer=None) -> dict:
    if workload == "cli-roundtrip":
        return run_cli_iteration(seed, out, tracer)
    return run_bench_iteration(workload, seed, out, tracer)
