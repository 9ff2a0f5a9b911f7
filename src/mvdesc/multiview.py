"""Multi-view aggregation of orientation densities.

A track's multi-view descriptor is the per-cell normalized average of the
unnormalized single-frame densities, each a (cells, cells, bins) array.
The running state is one such array, their sum, so per-frame updates cost
the same no matter how many frames came before, and memory does not grow
with track length.
"""

from __future__ import annotations

import numpy as np

from .hog import DescriptorParams, normalize_densities

__all__ = [
    "MultiViewAccumulator",
    "patch_scatter",
    "excitation_score",
]


class MultiViewAccumulator:
    """Running average of unnormalized densities over the frames of a track."""

    __slots__ = ("params", "frames", "density_sum")

    def __init__(self, params: DescriptorParams):
        self.params = params
        self.frames = 0
        self.density_sum = np.zeros((params.cells, params.cells, params.bins))

    def update(self, grid: np.ndarray) -> None:
        """Fold in one frame's unnormalized (cells, cells, bins) density."""
        if np.shape(grid) != self.density_sum.shape:
            raise ValueError(f"density grid of shape {np.shape(grid)}, "
                             f"expected {self.density_sum.shape}")
        self.density_sum += grid
        self.frames += 1

    def finalize(self) -> np.ndarray:
        """The multi-view descriptor row: the mean density over the frames
        seen so far, normalized per cell."""
        if self.frames == 0:
            raise ValueError("no frames accumulated")
        return normalize_densities(self.density_sum / self.frames,
                                   self.params)[0][0]

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the running state (independent of frame count)."""
        return self.density_sum.nbytes


def patch_scatter(patches: np.ndarray) -> float:
    """Mean over frames of the squared l2 distance to the mean patch.

    ``patches`` is (frames, h, w).
    """
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 3 or patches.shape[0] < 1:
        raise ValueError("expected a (frames, h, w) stack with at least one frame")
    mean = patches.mean(axis=0)
    return float(np.mean(np.sum((patches - mean) ** 2, axis=(1, 2))))


def excitation_score(patches: np.ndarray, normalizer: float) -> float:
    """Patch-diversity score in [0, 1].

    :func:`patch_scatter` divided by ``normalizer`` (the full track's
    scatter, so the whole track scores 1), clipped to 1 since a subset of
    frames can be more varied than the track as a whole. A normalizer of 0
    (a track with no appearance change at all) gives 0 for every subset.
    """
    if normalizer <= 0.0:
        return 0.0
    return min(patch_scatter(patches) / normalizer, 1.0)
