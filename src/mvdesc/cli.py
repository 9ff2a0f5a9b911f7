"""Command-line interface: generate, track, describe, match, bench, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench, image
from .bench import quick_benchmark_config, run_benchmark
from .hog import METHODS, DescriptorParams, patch_densities
from .image import MAX_PYRAMID_LEVELS, _json_field, _json_number
from .matching import METRICS, DescriptorDatabase, nn_query
from .scene import default_scene_spec, generate_dataset, load_dataset
from .tracking import TrackerConfig, attach_patches, load_tracks, run_tracker, save_tracks
from .viewsynth import MIN_FACING, patch_density, sample_rotations, select_keyframes
# not called here; bound because perfbench/spans.py traces them on this module
from .viewsynth import synthesize_views, view_descriptors  # noqa: F401


def _json_object(path) -> dict:
    """The JSON object in ``path``; ValueError naming the file otherwise."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got "
                         f"{type(obj).__name__}")
    return obj


def _cmd_generate(args) -> int:
    spec = default_scene_spec(args.name, args.kind, args.seed)
    if args.spec:
        spec.update(_json_object(args.spec))
    ds = generate_dataset(spec, args.out)
    print(f"wrote {len(ds.frames)} frames and {len(ds.tests)} test views "
          f"to {args.out}")
    return 0


def _cmd_track(args) -> int:
    _json_number(args.patch_size, "--patch-size", int, 3)
    ds = load_dataset(args.dataset)
    cfg = TrackerConfig(n_features=args.features, levels=args.levels,
                        window=args.window, reject_thresh=args.reject)
    # read from the module at call time, so perfbench's wrapper sees it
    pyrs = [image.build_pyramid(v.image, cfg.levels) for v in ds.frames]
    tracks = run_tracker(pyrs, cfg)
    full = [t for t in tracks if t.alive and t.length == len(pyrs)]
    attach_patches(full, pyrs, args.patch_size)
    save_tracks(full, args.out, meta={
        "dataset": str(args.dataset),
        "patch_size": args.patch_size,
        "levels": cfg.levels,
        "n_detected": len(tracks),
    })
    print(f"{len(full)} of {len(tracks)} tracks survived all "
          f"{len(pyrs)} frames; saved to {args.out}")
    return 0


def _stored_depth(file, meta: dict, tracks: list, dataset, frames: int) -> int:
    """``meta.levels`` of a ``tracks.json``: its tracks' pyramid depth, in
    1..MAX_PYRAMID_LEVELS and above every track's level, no track longer than
    the ``frames`` of ``dataset``; ValueError naming the file and the field."""
    try:
        levels = _json_field(meta, "levels", int, "meta", 1)
        if levels > MAX_PYRAMID_LEVELS:
            raise ValueError(f"meta.levels: {levels}, expected at most "
                             f"{MAX_PYRAMID_LEVELS}")
        for i, tr in enumerate(tracks):
            if tr.level >= levels:
                raise ValueError(f"tracks[{i}].level: {tr.level}, expected "
                                 f"below meta.levels {levels}")
            if tr.length > frames:
                raise ValueError(f"tracks[{i}].positions: {tr.length} entries, "
                                 f"expected at most the {frames} frames of {dataset}")
    except ValueError as exc:
        raise ValueError(f"{file}: {exc}") from None
    return levels


def _cmd_describe(args) -> int:
    _json_number(args.frame, "--frame", int, 0)
    if args.patch_size is not None:
        _json_number(args.patch_size, "--patch-size", int, 3)
    loaded, meta = load_tracks(args.tracks)
    tracks = [t for t in loaded if t.patches is not None]
    if not tracks:
        raise ValueError("no tracks with stored patches")
    stored = tracks[0].patches.shape[1]
    patch_size = stored if args.patch_size is None else args.patch_size
    params = DescriptorParams(patch_size)

    if args.method == "rhog":
        _json_number(args.keyframes, "--keyframes", int, 1)
        if not args.dataset:
            raise ValueError("rhog descriptors need --dataset for depth maps")
    elif patch_size != stored:
        raise ValueError(f"--patch-size {patch_size} differs from the stored "
                         f"{stored}-pixel patches that {args.method} describes")

    ids = [tr.id for tr in tracks]
    if args.method == "sv":
        shortest = min(len(tr.patches) for tr in tracks)
        if args.frame >= shortest:
            raise ValueError(f"--frame: {args.frame}, expected below "
                             f"{shortest}, the frames of the shortest stored "
                             f"track")
        picks = [patch_density(tr.patches[args.frame], params).grid
                 for tr in tracks]
        db = bench.sv(ids, picks, params)
    elif args.method in ("mv", "keepall"):
        build = bench.mv if args.method == "mv" else bench.keepall
        db = build(ids, [patch_densities(tr.patches, params) for tr in tracks],
                   params)
    else:
        ds = load_dataset(args.dataset)
        levels = _stored_depth(Path(args.tracks) / "tracks.json", meta, loaded,
                               args.dataset, len(ds.frames))
        keys = {k for tr in tracks
                for k in select_keyframes(tr.length, args.keyframes).tolist()}
        pyrs = {k: image.build_pyramid(ds.frames[k].image, levels) for k in keys}
        views = bench.lift_keyframes(ds, pyrs, tracks, args.keyframes, patch_size)
        db = bench.rhog(ids, views, params, sample_rotations(), MIN_FACING)
    if not len(db):
        raise ValueError(f"no {args.method} descriptor was built; {args.out} "
                         f"not written")
    db.save(args.out)
    print(f"wrote {len(db)} descriptors ({args.method}) for {len(tracks)} "
          f"tracks to {args.out}")
    return 0


def _cmd_match(args) -> int:
    db = DescriptorDatabase.load(args.db)
    queries = DescriptorDatabase.load(args.queries)
    if queries.params != db.params:
        raise ValueError(f"query params {queries.params} differ from database "
                         f"params {db.params}")
    lines = ["query_index,query_track,predicted_track,distance"]
    correct = 0
    for i in range(len(queries)):
        tid, dist = nn_query(db, queries.matrix[i], args.metric)
        truth = queries.track_ids[i]
        correct += int(tid == truth)
        lines.append(f"{i},{truth},{tid},{dist:.8f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"# accuracy {correct}/{len(queries)} = {correct / len(queries):.4f}",
          file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    overrides = quick_benchmark_config() if args.quick else {}
    if args.config:
        overrides.update(_json_object(args.config))
    report = run_benchmark(overrides, args.out)
    print(f"benchmark finished in {report['elapsed_seconds']:.1f}s; "
          f"outputs in {args.out}")
    for method, per in sorted(report["pooled"].items()):
        for size, rate in sorted(per.items()):
            print(f"  {method:8s} patch {size:>3s}: {rate:.3f}")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.bench_dir) / "report.json"
    rep = _json_object(path)
    try:  # every field the summary prints, checked before it prints
        pooled = _json_field(rep, "pooled", dict)
        for m in pooled:
            for s in _json_field(pooled, m, dict, "pooled"):
                _json_field(pooled[m], s, float, f"pooled.{m}")
        exc = _json_field(rep, "excitation", dict)
        spearman = _json_field(exc, "spearman", float, "excitation")
        points = _json_field(exc, "points", list, "excitation")
        mem = _json_field(rep, "memory", dict)
        ratio, keep, mv = [_json_field(mem, k, float, "memory") for k in
                           ("slope_ratio", "keepall_slope", "mv_slope")]
        n_tracks = _json_field(rep, "n_tracks", dict)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    print("recognition rate, pooled over scenes")
    sizes = sorted({s for per in pooled.values() for s in per})
    print("method    " + "".join(f"patch {s:>4s}  " for s in sizes))
    for method in METHODS:
        per = pooled.get(method, {})
        cells = "".join(f"{per.get(s, float('nan')):10.3f}  " for s in sizes)
        print(f"{method:8s}{cells}")
    print(f"\nexcitation vs rate: spearman {spearman:.3f} "
          f"over {len(points)} points")
    print(f"storage slope keepall/mv: {ratio:.0f} (keepall {keep:.0f} B/frame, "
          f"mv {mv:.1f} B/frame)")
    print("\ntracks used per scene/patch size:")
    for key, n in sorted(n_tracks.items()):
        print(f"  {key}: {n}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="mvdesc",
        description="multi-view gradient-orientation descriptors and their "
                    "synthetic matching benchmark")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="render a synthetic scene dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--kind", choices=["plane", "heightfield"], default="plane")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--name", default="scene")
    g.add_argument("--spec", help="JSON file overriding scene fields")
    g.set_defaults(func=_cmd_generate)

    t = sub.add_parser("track", help="detect corners and track them")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--features", type=int, default=400)
    t.add_argument("--levels", type=int, default=2)
    t.add_argument("--window", type=int, default=11)
    t.add_argument("--reject", type=float, default=0.04)
    t.add_argument("--patch-size", type=int, default=21)
    t.set_defaults(func=_cmd_track)

    d = sub.add_parser("describe", help="build a descriptor database from tracks")
    d.add_argument("--tracks", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--method", choices=METHODS, default="mv")
    d.add_argument("--frame", type=int, default=0, help="frame index for sv")
    d.add_argument("--keyframes", type=int, default=10, help="keyframes for rhog")
    d.add_argument("--dataset", help="dataset dir (rhog needs depth maps)")
    d.add_argument("--patch-size", type=int)
    d.set_defaults(func=_cmd_describe)

    m = sub.add_parser("match", help="query one database against another")
    m.add_argument("--db", required=True)
    m.add_argument("--queries", required=True)
    m.add_argument("--metric", default="l2", choices=list(METRICS))
    m.add_argument("--out", help="write CSV here instead of stdout")
    m.set_defaults(func=_cmd_match)

    b = sub.add_parser("bench", help="run the full matching benchmark")
    b.add_argument("--out", required=True)
    b.add_argument("--config", help="JSON overriding benchmark defaults")
    b.add_argument("--quick", action="store_true",
                   help="single small scene, for smoke tests")
    b.set_defaults(func=_cmd_bench)

    r = sub.add_parser("report", help="summarize a finished benchmark")
    r.add_argument("--bench-dir", required=True)
    r.set_defaults(func=_cmd_report)

    args = ap.parse_args(argv)
    try:  # a missing or malformed input file, or an option out of range
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
