"""Gradient-orientation densities over a patch and their descriptor form.

The core quantity is a kernel-weighted density of gradient orientation,
evaluated per spatial cell: each pixel's gradient magnitude is split
linearly between the two orientation bins nearest its angle, both taken
straight from (gx, gy), and spread over cell centers by a truncated
Gaussian. Left unnormalized the density is homogeneous of degree 1 in
image contrast; normalized per cell it is a conditional distribution over
orientation, contrast-insensitive. A descriptor is a normalized density
as one (cells**2 * bins,) row: cell-major (row, col), then orientation bin.
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
# Byte budget for patch_densities' (patches, pixels, bins) vote buffer: a
# pass stays in cache, measured a tenth faster than one pass over 80 patches.
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


def _orientation_votes(gx: np.ndarray, gy: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out``, gx.size rows of bins, the votes of gradients (gx, gy):
    at t = arctan2(gy, gx) * bins / 2pi - 1/2 and f = t - floor(t), m =
    sqrt(gx**2 + gy**2) gives f * m to bin (floor(t) + 1) mod bins, m - f * m
    to bin floor(t) mod bins and 0 to the rest: the triangular kernel one bin
    wide. First order in u = eps/2, in bin widths: bins / fl(2pi), within
    1.18 u, moves t by 0.59 bins u; the product and shift, up to bins/2 + 1/2,
    round by u times that; t - floor(t) by u in (-1, 0) only. So f is within
    (0.8 bins + 1) eps; m and hypot lie within eps m of the exact magnitude,
    and the vote roundings add eps m: votes lie within (0.8 bins + 4) eps m
    <= (bins + 4) eps m of the exact kernel of the arctan2 angle times hypot.
    Raises ValueError for a non-finite m: squares overflow past about 1e154."""
    bins = out.shape[-1]
    with np.errstate(over="ignore"):
        m = np.sqrt(gx * gx + gy * gy)
    if not np.isfinite(m.max(initial=0.0)):
        raise ValueError("gradient magnitudes must be finite (below about 1e154)")
    t = np.arctan2(gy, gx) * (bins / TWO_PI) - 0.5
    lo = np.floor(t)
    t -= lo
    t *= m
    np.subtract(m, t, out=m)
    # k in [0, 2 bins): wrap[k] is bin floor(t) mod bins, wrap[k + 1] the next
    k = lo.astype(np.intp) + bins
    wrap = np.arange(2 * bins + 1) % bins
    first = np.arange(0, out.size, bins).reshape(m.shape)
    flat = out.reshape(-1)
    flat.fill(0.0)
    flat[wrap.take(k) + first] = m
    flat[wrap[1:].take(k) + first] = t


def orientation_density(grad: GradientField,
                        params: DescriptorParams) -> OrientationDensity:
    """Unnormalized orientation density of one patch on its cell grid.

    ``grad`` is a patch_size x patch_size patch's gradient; each pixel's
    magnitude votes into the two bins nearest its angle, weighted by the
    spatial Gaussian around each cell center, as :func:`patch_densities`
    does per chunk. Raises ValueError for another size or a non-finite magnitude."""
    p = params.patch_size
    if grad.shape != (p, p):
        h, w = grad.shape
        raise ValueError(f"gradient is {w} x {h} pixels, expected the "
                         f"{p} x {p} patch")
    votes = np.empty((p * p, params.bins))
    _orientation_votes(grad.gx, grad.gy, votes)
    grid = _patch_spatial_weights(params) @ votes
    return OrientationDensity(grid.reshape(params.cells, params.cells, -1), params)


def patch_densities(patches, params: DescriptorParams) -> np.ndarray:
    """Unnormalized densities of an (n, patch_size, patch_size) stack of
    patches, as an (n, cells, cells, bins) array.

    Slice i equals ``orientation_density(compute_gradient(GrayImage(
    patches[i], unit_range=False)), params).grid`` bit for bit: the same
    gradient, votes and matrix product per patch, with the spatial weights
    built once per params and one vote buffer under a byte budget. Raises
    ValueError for another shape, or a non-finite intensity or gradient.
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
    votes = np.empty((min(n, step), p * p, params.bins))
    for s in range(0, n, step):
        gx, gy = _central_differences(stack[s:s + step])
        _orientation_votes(gx, gy, votes[:len(gx)])
        np.matmul(_patch_spatial_weights(params), votes[:len(gx)],
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
