"""Gradient-orientation densities over a patch and their descriptor form.

The core quantity is a kernel-weighted density of gradient orientation,
evaluated per spatial cell: each pixel contributes its gradient magnitude,
spread over the two nearest orientation bins by a triangular kernel one bin
wide and over cell centers by a truncated Gaussian. Left unnormalized the
density is homogeneous of degree 1 in image contrast; normalized per cell it
is a proper conditional distribution over orientation and is
contrast-insensitive. A descriptor is a normalized density flattened to one
(cells**2 * bins,) row: cell-major (row, col), then orientation bin.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .image import TWO_PI, GradientField, _central_differences

__all__ = [
    "DescriptorParams",
    "OrientationDensity",
    "orientation_density",
    "patch_densities",
    "normalize_density",
]

ZERO_MASS_EPS = 1e-12
METHODS = ("sv", "mv", "keepall", "rhog")
# Byte budget for the (patches, pixels, bins) vote array of one pass of
# patch_densities: a pass's temporaries then stay in a core's cache, which
# measured about a quarter faster per patch than one pass over 80 patches.
_STACK_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class DescriptorParams:
    """Patch side, orientation bins and cells per side of a density.

    The kernel widths follow from these: ``eps``, the support of the
    triangular angular kernel, is one bin width, and ``sigma``, the spatial
    Gaussian's, an eighth of the patch side (a two-sigma support of half a
    patch per cell).
    """

    patch_size: int
    bins: int = 16
    cells: int = 4

    def __post_init__(self):
        if self.patch_size < 3:
            raise ValueError("patch_size must be at least 3")
        if self.bins < 2:
            raise ValueError("need at least 2 orientation bins")
        if not 1 <= self.cells <= self.patch_size:
            raise ValueError("cells per side must be in 1..patch_size")

    @property
    def eps(self) -> float:
        return 2.0 * np.pi / self.bins

    @property
    def sigma(self) -> float:
        return self.patch_size / 8.0

    def bin_centers(self) -> np.ndarray:
        """Orientation bin centers (b + 0.5) * 2*pi / bins."""
        return (np.arange(self.bins) + 0.5) * (2.0 * np.pi / self.bins)

    def cell_centers(self) -> np.ndarray:
        """Cell centers as a (cells*cells, 2) array of (x, y), row-major.

        A patch spans pixel centers 0 .. patch_size - 1; the continuous
        footprint is split into a cells x cells grid and each cell
        contributes its midpoint.
        """
        step = self.patch_size / self.cells
        c = (np.arange(self.cells) + 0.5) * step - 0.5
        cx, cy = np.meshgrid(c, c)
        return np.stack([cx.ravel(), cy.ravel()], axis=1)


@dataclass
class OrientationDensity:
    """Orientation density on a cells x cells grid, ``grid[row, col, bin]``.

    ``zero_mass`` marks cells whose total mass vanished before
    normalization; those are replaced by the uniform distribution.
    """

    grid: np.ndarray
    params: DescriptorParams
    normalized: bool = False
    zero_mass: np.ndarray = None

    def __post_init__(self):
        expect = (self.params.cells, self.params.cells, self.params.bins)
        if self.grid.shape != expect:
            raise ValueError(f"grid shape {self.grid.shape}, expected {expect}")
        if np.any(self.grid < 0.0) or not np.all(np.isfinite(self.grid)):
            raise ValueError("density values must be finite and nonnegative")

    def cell_mass(self) -> np.ndarray:
        return self.grid.sum(axis=2)


@functools.lru_cache(maxsize=32)
def _patch_spatial_weights(params: DescriptorParams) -> np.ndarray:
    """Read-only (cells**2, patch_size**2) Gaussian weights of the pixel
    centers, row-major, around each cell center, cut off hard at 3 sigma."""
    y, x = np.indices((params.patch_size,) * 2, dtype=np.float64)
    diff = params.cell_centers()[:, None] - np.stack([x.ravel(), y.ravel()], 1)
    r2 = np.einsum("nmk,nmk->nm", diff, diff)
    sw = np.exp(-r2 / (2.0 * params.sigma ** 2))
    sw[r2 > (3.0 * params.sigma) ** 2] = 0.0
    sw.flags.writeable = False
    return sw


def _orientation_weights(ang: np.ndarray, params: DescriptorParams,
                         scale: np.ndarray) -> np.ndarray:
    """Triangular angular kernel weights (..., bins) of orientations ``ang``
    in [0, 2*pi) at every bin center, times ``scale`` of ``ang``'s shape.

    The kernel is 1 at a bin center and falls linearly to 0 one bin width
    away: a vote is split between the two nearest bins. It is zero beyond
    the bin holding an angle and its two neighbours, so it is evaluated
    there alone and scattered into zeros; every value equals its evaluation
    at every bin (times ``scale``) bit for bit, and a zero weight times a
    finite nonnegative scale stays +0.0. Both neighbours are kept because
    an angle on a bin center can give the far one a weight of order 1e-16;
    with two bins they are one bin, written twice with one value.
    """
    centers = params.bin_centers()
    bins = params.bins
    width = params.eps
    # k = floor(ang / width) lies in [0, bins]; entry k + j of these tables
    # is neighbour j - 1 of bin k, wrapped into [0, bins), and its center.
    # Arrays are neighbour-major (3, pixels), so every loop runs along pixels
    wrap = np.arange(-1, bins + 2) % bins
    a = ang.ravel()
    k = np.floor(a / width).astype(np.intp) + np.array([[0], [1], [2]])
    near = wrap.take(k)
    # circular distance: theta - mu lies in (-2pi, 2pi), where
    # np.mod(d, 2pi) is d + 2pi for d < 0 and d otherwise
    d = a - centers[wrap].take(k)
    d = np.where(d < 0.0, d + TWO_PI, d)
    vals = np.maximum(0.0, 1.0 - np.minimum(d, TWO_PI - d) / width)
    vals *= scale.ravel()
    out = np.zeros((a.size, bins))
    near += np.arange(0, a.size * bins, bins)
    out.ravel()[near] = vals
    return out.reshape(ang.shape + (bins,))


def orientation_density(grad: GradientField,
                        params: DescriptorParams) -> OrientationDensity:
    """Unnormalized orientation density of one patch on its cell grid.

    ``grad`` is a patch_size x patch_size patch's gradient; each pixel's
    magnitude is weighted by the angular kernel around each bin center and
    the spatial Gaussian around each cell center. This is the step
    :func:`patch_densities` runs per chunk. Raises ValueError for a gradient
    of another size."""
    p = params.patch_size
    if grad.shape != (p, p):
        h, w = grad.shape
        raise ValueError(f"gradient is {w} x {h} pixels, expected the "
                         f"{p} x {p} patch")
    weights = _orientation_weights(grad.angle.ravel(), params,
                                   grad.magnitude.ravel())
    grid = _patch_spatial_weights(params) @ weights
    return OrientationDensity(grid.reshape(params.cells, params.cells, -1), params)


def patch_densities(patches, params: DescriptorParams) -> np.ndarray:
    """Unnormalized densities of an (n, patch_size, patch_size) stack of
    patches, as an (n, cells, cells, bins) array.

    Slice i equals ``orientation_density(compute_gradient(GrayImage(
    patches[i], unit_range=False)), params).grid`` bit for bit: the same
    gradient and kernel values, and the same matrix product per patch, with
    the spatial weights built once per params. The stack is taken in
    chunks under a byte budget. Raises ValueError for another shape or a
    non-finite intensity.
    """
    stack = np.asarray(patches, dtype=np.float64)
    p = params.patch_size
    if stack.ndim != 3 or stack.shape[1:] != (p, p):
        raise ValueError(f"expected an (n, {p}, {p}) patch stack, "
                         f"got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("image intensities must be finite")
    n = stack.shape[0]
    grids = np.empty((n, params.cells ** 2, params.bins))
    step = max(1, _STACK_CHUNK_BYTES // (p * p * params.bins * 8))
    for s in range(0, n, step):
        grad = GradientField(*_central_differences(stack[s:s + step]))
        weights = _orientation_weights(grad.angle.reshape(-1, p * p), params,
                                       grad.magnitude.reshape(-1, p * p))
        np.matmul(_patch_spatial_weights(params), weights,
                  out=grids[s:s + step])
    return grids.reshape(n, params.cells, params.cells, params.bins)


def _normalized_cells(grid: np.ndarray, bins: int):
    """Per-cell unit-mass (..., bins) grids and the zero-mass mask."""
    mass = grid.sum(axis=-1)
    zero = mass < ZERO_MASS_EPS
    safe = np.where(zero, 1.0, mass)
    out = grid / safe[..., None]
    out[zero] = 1.0 / bins
    return out, zero


def _normalized_rows(grids, params: DescriptorParams) -> np.ndarray:
    """(n, cells**2 * bins) per-cell normalized descriptor rows of n
    unnormalized density grids; row i equals ``normalize_density(...)
    .grid.reshape(-1)`` bit for bit."""
    n_cells = params.cells ** 2
    stack = np.reshape(grids, (-1, n_cells, params.bins))
    return _normalized_cells(stack, params.bins)[0].reshape(-1, n_cells * params.bins)


def normalize_density(density: OrientationDensity) -> OrientationDensity:
    """Normalize each cell to a unit-mass distribution over orientation.

    Cells with (numerically) zero mass carry no orientation evidence; they
    become uniform and are flagged in ``zero_mass``.
    """
    grid, zero = _normalized_cells(density.grid, density.params.bins)
    return OrientationDensity(grid, density.params, normalized=True, zero_mass=zero)
