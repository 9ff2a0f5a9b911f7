"""mvdesc benchmark: one workload per process, results as one JSON line.

Run from the root of a source checkout (the program is imported from
``./src``; nothing is installed or built):

    python3 perfbench/run.py --workload plane-match --seed 1 --seconds 50 --trace 0

``--trace 0`` repeats the workload until ``--seconds`` have passed (at least
twice), then prints the end-to-end metrics: the medians over the iterations
and the peak RSS. ``--trace 1`` runs an untraced, a traced and another
untraced iteration and prints the per-layer metrics of the traced one, plus
the tracing overhead.
Both modes re-check sampled nearest-neighbour answers against a float64
brute-force oracle and compare the output fingerprints of their iterations.
Details (environment, rates, every layer metric, spans) go to
``.perfbench_out/``; the last line of stdout is the result.
"""

import os

# Pinned before NumPy loads so a BLAS-backed change measures the kernel,
# not the scheduler. One thread matches the one-thread closed loop.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from oracle import MatchRecorder, check  # noqa: E402
from spans import (COMMON_LAYER_METRICS, Tracer, layer_metrics,  # noqa: E402
                   summarize)

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
OUT_DIR = ".perfbench_out"


def load_program(root: Path):
    """Import mvdesc from the checkout's own sources, or exit without a result."""
    src = root / "src"
    if not (src / "mvdesc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src / 'mvdesc'}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(src))
    import mvdesc
    if Path(mvdesc.__file__).resolve().parent != (src / "mvdesc").resolve():
        sys.exit(f"perfbench: imported mvdesc from {mvdesc.__file__}, "
                 f"not from {src}")


def environment(root: Path) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src" / "mvdesc").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def checked_iteration(workload, seed, work, recorder):
    """One untraced iteration with its oracle check; the records are freed."""
    from workloads import run_iteration
    recorder.calls.clear()
    it = run_iteration(workload, seed, work)
    it["checked"], it["failed"], notes = check(recorder.calls)
    it["problems"] += notes
    recorder.calls.clear()
    shutil.rmtree(work, ignore_errors=True)
    return it


def timed_run(workload, seed, seconds, scratch):
    recorder = MatchRecorder().install()
    iters = []
    try:
        t_start = time.perf_counter()
        while len(iters) < 2 or time.perf_counter() - t_start < seconds:
            iters.append(checked_iteration(workload, seed,
                                           scratch / f"it{len(iters)}", recorder))
    finally:
        recorder.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_s": statistics.median(it["solve_s"] for it in iters),
        "setup_s": statistics.median(it["setup_s"] for it in iters),
        "peak_rss_mb": peak_mb,
    }
    info = {"iterations": [_brief(it) for it in iters]}
    if recorder.nn_latency_s:
        rhog = sorted(s for m, s in recorder.nn_latency_s if m == "r")
        if rhog:
            q = statistics.quantiles(rhog, n=10)
            info["rhog_nn_query"] = {"p50_ms": 1e3 * statistics.median(rhog),
                                     "p90_ms": 1e3 * q[8], "samples": len(rhog)}
    return iters, metrics, info


def traced_run(workload, seed, scratch, run_id):
    """Untraced, traced, untraced: overhead is traced minus the plain mean,
    so the first iteration's warm-up does not pass for negative overhead."""
    from workloads import run_iteration
    recorder = MatchRecorder().install()
    tracer = Tracer(run_id)
    try:
        before = checked_iteration(workload, seed, scratch / "before", recorder)
        recorder.uninstall()
        tracer.install()
        try:
            traced = run_iteration(workload, seed, scratch / "traced", tracer)
        finally:
            tracer.uninstall()
        recorder.install()
        after = checked_iteration(workload, seed, scratch / "after", recorder)
    finally:
        recorder.uninstall()
    traced.update(checked=0, failed=0)
    layers = layer_metrics(tracer.spans)
    layers["trace.overhead_s"] = traced["solve_s"] - 0.5 * (
        before["solve_s"] + after["solve_s"])
    return [before, traced, after], layers, tracer


def _brief(it):
    return {k: it[k] for k in ("setup_s", "solve_s", "fingerprint", "rates",
                               "checked", "failed")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    load_program(root)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {WORKLOADS}")

    out = root / OUT_DIR
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch = out / f"work-{tag}-{os.getpid()}"
    env = environment(root)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    try:
        if args.trace:
            iters, layers, tracer = traced_run(args.workload, args.seed,
                                               scratch, tag)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, (unit, _) in COMMON_LAYER_METRICS.items()}
            info = {"layers": layers,
                    "iterations": [_brief(it) for it in iters],
                    "spans": summarize(tracer.spans)}
        else:
            iters, values, info = timed_run(args.workload, args.seed,
                                            args.seconds, scratch)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = [p for it in iters for p in it["problems"]]
    if len({it["fingerprint"] for it in iters}) != 1:
        problems.append("output fingerprints differ between iterations")
    if len({json.dumps(it["rates"], sort_keys=True) for it in iters}) != 1:
        problems.append("rates differ between iterations")
    attempted = sum(it["checked"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    if attempted == 0:
        problems.append("the oracle checked no queries")
    result = {"correct": not problems and failed == 0,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}

    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "env": env, "problems": problems,
               "fingerprint": iters[0]["fingerprint"],
               "rates": iters[0]["rates"],
               "failed_frac": failed / max(attempted, 1), **info,
               "result": result}
    out.mkdir(exist_ok=True)
    (out / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tracer.write(out / f"{tag}.spans.jsonl")
    for p in problems:
        print(f"# problem: {p}")
    print(f"# fingerprint {details['fingerprint']}")
    print(f"# rates {json.dumps(details['rates'], sort_keys=True)}")
    print(f"# failed_frac {details['failed_frac']:.6f} "
          f"({failed} of {attempted} checked queries)")
    for key, val in info.items():
        print(f"# {key} {json.dumps(val, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
