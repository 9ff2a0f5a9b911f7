"""Fabricate unseen viewpoints of a tracked patch from its depth map.

With ground-truth depth the patch lattice lifts to a small 3-D surface.
Rotating that surface about its anchor and resampling the source image
shows the patch from vantage points the camera never visited. Averaging
densities over the rotation grid gives one viewpoint-marginalized
descriptor; keeping every view and scoring a query by its best match
(max-out) is the high-memory, high-selectivity alternative.
"""

import numpy as np

from mvdesc import (DescriptorParams, LocalSurface, aggregate_descriptor,
                    default_scene_spec, generate_dataset, match_all,
                    normalize_densities, pairwise_distances, rot_z,
                    sample_rotations, synthesize_patch, synthesize_views)
from mvdesc.bench import rhog
from mvdesc.viewsynth import patch_density


def main():
    spec = default_scene_spec("synthdemo", "heightfield", seed=9)
    spec["n_frames"] = 8
    ds = generate_dataset(spec, "demo_out/synth_scene")
    frame = ds.frames[0]

    anchor = (frame.camera.width / 2.0, frame.camera.height / 2.0)
    surf = LocalSurface.from_frame(frame.depth, frame.camera, anchor, 21)
    print(f"lifted a 21x21 surface at {anchor}; "
          f"mean normal {np.round(surf.mean_normal, 3)}")

    # the identity rotation must reproduce what the camera actually saw
    identity = synthesize_patch(surf, frame.image, np.eye(3))
    direct = frame.image.data[50:71, 70:91]
    print(f"identity view vs source pixels: "
          f"max diff {np.abs(identity - direct).max():.2e}")

    rotations = sample_rotations()
    stack, kept = synthesize_views(surf, frame.image, rotations)
    print(f"{len(kept)} of {len(rotations)} synthesized views accepted")

    params = DescriptorParams(patch_size=21)
    marginal = aggregate_descriptor(stack, params)
    # one track (id 0) whose rows are the per-view descriptors
    stored = rhog([0], [[(surf, frame.image)]], params, rotations)

    # a query seen from a novel in-plane angle: max-out finds a close
    # stored view, while the marginal descriptor blurs over all of them
    query_patch = synthesize_patch(surf, frame.image, rot_z(0.4))
    q = normalize_densities(patch_density(query_patch, params), params)[0]
    _, best = match_all(stored, q, "l2")
    single = pairwise_distances(marginal, q, "l2")[0, 0]
    print(f"query l2 distance: best stored view {best[0]:.5f}, "
          f"marginal descriptor {single:.5f}")


if __name__ == "__main__":
    main()
