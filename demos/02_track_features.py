"""Detect corners on the first frame and follow them around the orbit.

Detection is a segment-test corner detector run on every pyramid level;
tracking is translational KLT with gain-matched windows. A track dies the
first time alignment fails, so surviving tracks cover every frame. The
ray-depth maps let us check each survivor against the true geometry.
"""

import argparse

import numpy as np

from mvdesc import (TrackerConfig, build_pyramid, default_scene_spec,
                    generate_dataset, ground_truth_correspondence,
                    level_to_base, run_tracker)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out/track_scene")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    # the default 30-frame orbit keeps per-step viewpoint change small
    # enough for a translation-only tracker
    spec = default_scene_spec("trackdemo", "plane", args.seed)
    ds = generate_dataset(spec, args.out)

    # the caller builds each frame's pyramid once; the tracker reads them
    cfg = TrackerConfig(n_features=300, levels=2)
    tracks = run_tracker([build_pyramid(v.image, cfg.levels) for v in ds.frames],
                         cfg)
    full = [t for t in tracks if t.alive]
    print(f"{len(tracks)} corners detected, {len(full)} tracked through "
          f"all {len(ds.frames)} frames")

    by_level = {}
    for t in tracks:
        by_level.setdefault(t.level, [0, 0])
        by_level[t.level][0] += 1
        by_level[t.level][1] += t.alive
    for lvl in sorted(by_level):
        n, alive = by_level[lvl]
        print(f"  level {lvl}: {alive}/{n} survive")

    # compare each survivor's last position against the geometric transfer
    # of its first position (frame 0 -> last frame through the surface)
    errs = []
    last = ds.frames[-1]
    for t in full[:200]:
        base0 = level_to_base(t.positions[0], t.level)
        c = ground_truth_correspondence(ds.frames[0], last, base0)
        if c.status != "visible":
            continue
        got = level_to_base(t.positions[-1], t.level)
        errs.append(np.linalg.norm(got - c.xy))
    errs = np.array(errs)
    print(f"drift vs ground truth over {len(errs)} visible tracks: "
          f"median {np.median(errs):.3f} px, p90 {np.percentile(errs, 90):.3f} px")


if __name__ == "__main__":
    main()
