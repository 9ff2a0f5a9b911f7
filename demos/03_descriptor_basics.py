"""What the orientation-density descriptor is and what it ignores.

A patch votes its gradient orientations into a few spatial cells, each
vote smoothed by an angular kernel and weighted by gradient magnitude and
by distance from the cell center. Kept unnormalized, the density scales
linearly with image contrast; normalized per cell, it is a distribution
over orientations and affine lighting changes drop out entirely.
"""

import numpy as np

from mvdesc import (AffineContrast, DescriptorParams, GrayImage,
                    apply_contrast, normalize_densities, patch_densities)


def density_of(img, params):
    """The (cells, cells, bins) unnormalized density of one image patch."""
    return patch_densities(img.data[None], params)[0]


def main():
    rng = np.random.default_rng(3)
    patch = rng.random((21, 21)) * 0.6 + 0.2
    img = GrayImage(patch)
    params = DescriptorParams(patch_size=21, bins=16, cells=2)

    base = density_of(img, params)
    print(f"density grid: {base.shape} (cells x cells x bins), "
          f"mass {base.sum():.4f}")

    # doubling the contrast doubles every vote...
    doubled = apply_contrast(img, AffineContrast(2.0, 0.0))
    d2 = density_of(doubled, params)
    ratio = d2.sum() / base.sum()
    print(f"contrast x2 -> unnormalized mass x{ratio:.6f}")

    # ...and cancels exactly once each cell is normalized
    n1, n2 = normalize_densities([base, d2], params)[0]
    print(f"normalized densities differ by {np.abs(n1 - n2).max():.2e}")

    # a brightness offset never moves gradients at all
    shifted = apply_contrast(img, AffineContrast(1.0, 0.05))
    d3 = density_of(shifted, params)
    print(f"brightness +0.05 -> density moves by "
          f"{np.abs(d3 - base).max():.2e}")

    # cells respond to where the structure is: a vertical edge in the
    # left half puts all its mass in the two bins straddling 0 deg,
    # while the flat right half has no votes and falls back to uniform
    edge = np.full((21, 21), 0.2)
    edge[:, 5:] = 0.8
    de = normalize_densities(density_of(GrayImage(edge), params), params)[0]
    de = de.reshape(2, 2, params.bins)
    bins = np.degrees(params.bin_centers())
    for r in range(2):
        for c in range(2):
            top2 = np.argsort(de[r, c])[-2:][::-1]
            pair = ", ".join(f"{bins[b]:5.1f} deg: {de[r, c, b]:.3f}"
                             for b in top2)
            print(f"  cell ({r},{c}): {pair}")


if __name__ == "__main__":
    main()
