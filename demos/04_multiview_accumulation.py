"""Pool one track's appearance into a single fixed-size descriptor.

The multi-view density is just the running average of the per-frame
unnormalized densities (each a cells x cells x bins array), normalized
once at the end into one descriptor row. The accumulator state
never grows with track length, and the excitation score says how much
genuinely new appearance the track has contributed so far.
"""

import numpy as np

from mvdesc import (DescriptorParams, MultiViewAccumulator, TrackerConfig,
                    attach_patches, build_pyramid, default_scene_spec,
                    excitation_score, generate_dataset, patch_scatter,
                    run_tracker)
from mvdesc.viewsynth import patch_density


def main():
    spec = default_scene_spec("mvdemo", "plane", seed=5)
    spec["n_frames"] = 12
    ds = generate_dataset(spec, "demo_out/mv_scene")

    # one pyramid per frame serves both tracking and patch cutting
    cfg = TrackerConfig(n_features=200, levels=2)
    pyrs = [build_pyramid(v.image, cfg.levels) for v in ds.frames]
    tracks = [t for t in run_tracker(pyrs, cfg) if t.alive]
    attach_patches(tracks, pyrs, patch_size=21)

    # the track whose appearance changes most over the orbit
    track = max(tracks, key=lambda t: patch_scatter(t.patches))
    print(f"track {track.id} (level {track.level}), {track.length} frames")

    params = DescriptorParams(patch_size=21)
    acc = MultiViewAccumulator(params)
    full_scatter = patch_scatter(track.patches)

    print("frames  excitation  bytes")
    for f, patch in enumerate(track.patches):
        acc.update(patch_density(patch, params))
        exc = excitation_score(track.patches[:f + 1], full_scatter)
        print(f"  {f + 1:3d}    {exc:8.3f}  {acc.memory_bytes:6d}")

    mv = acc.finalize()
    print(f"final multi-view descriptor: {mv.size} values, cell masses "
          f"{np.round(mv.reshape(-1, params.bins).sum(axis=1), 6)}")


if __name__ == "__main__":
    main()
