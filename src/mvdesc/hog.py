"""Gradient-orientation densities over a patch and their descriptor form.

The core quantity is a kernel-weighted density of gradient orientation,
evaluated per spatial cell: each pixel contributes its gradient magnitude,
spread over orientation bins by an angular kernel and over cell centers by a
truncated Gaussian. Left unnormalized the density is homogeneous of degree 1
in image contrast; normalized per cell it is a proper conditional
distribution over orientation and is contrast-insensitive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .image import TWO_PI, GradientField, _central_differences, angular_kernel

__all__ = [
    "DescriptorParams",
    "OrientationDensity",
    "DescriptorVector",
    "density_at",
    "orientation_density",
    "patch_densities",
    "normalize_density",
    "sample_descriptor",
]

ZERO_MASS_EPS = 1e-12
METHODS = ("sv", "mv", "keepall", "rhog")
KERNELS = ("triangular", "wrapped-gaussian")
# Byte budget for the (patches, pixels, bins) vote array of one pass of
# patch_densities: a pass's temporaries then stay in a core's cache, which
# measured about a quarter faster per patch than one pass over 80 patches.
_STACK_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class DescriptorParams:
    """Patch geometry and kernel widths for orientation densities.

    ``eps`` defaults to one bin width, ``sigma`` to an eighth of the patch
    side (a two-sigma spatial support of half a patch per cell).
    """

    patch_size: int
    bins: int = 16
    cells: int = 4
    eps: float = None
    sigma: float = None
    kernel: str = "triangular"

    def __post_init__(self):
        if self.patch_size < 3:
            raise ValueError("patch_size must be at least 3")
        if self.bins < 2:
            raise ValueError("need at least 2 orientation bins")
        if not 1 <= self.cells <= self.patch_size:
            raise ValueError("cells per side must be in 1..patch_size")
        if self.eps is None:
            object.__setattr__(self, "eps", 2.0 * np.pi / self.bins)
        if self.sigma is None:
            object.__setattr__(self, "sigma", self.patch_size / 8.0)
        if not 0.0 < self.eps < np.pi:
            raise ValueError("eps must lie in (0, pi)")
        if not 0.0 < self.sigma < self.patch_size:
            raise ValueError("sigma must lie in (0, patch_size)")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel: {self.kernel!r}")

    def bin_centers(self) -> np.ndarray:
        """Orientation bin centers (b + 0.5) * 2*pi / bins."""
        return (np.arange(self.bins) + 0.5) * (2.0 * np.pi / self.bins)

    def cell_centers(self, origin=(0, 0)) -> np.ndarray:
        """Cell centers as a (cells*cells, 2) array of (x, y), row-major.

        A patch anchored at ``origin`` spans pixel centers origin ..
        origin + patch_size - 1; the continuous footprint is split into a
        cells x cells grid and each cell contributes its midpoint.
        """
        step = self.patch_size / self.cells
        c = (np.arange(self.cells) + 0.5) * step - 0.5
        cx, cy = np.meshgrid(origin[0] + c, origin[1] + c)
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


def _window_pixels(x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
    """(x, y) of the pixel centers in [x0, x1) x [y0, y1), row-major."""
    px, py = np.meshgrid(np.arange(x0, x1, dtype=np.float64),
                         np.arange(y0, y1, dtype=np.float64))
    return np.stack([px.ravel(), py.ravel()], axis=1)


def _spatial_kernel(centers: np.ndarray, pix: np.ndarray,
                    sigma: float) -> np.ndarray:
    """Gaussian weights (len(centers), len(pix)), cut off hard at 3 sigma."""
    diff = centers[:, None, :] - pix[None, :, :]
    r2 = np.einsum("nmk,nmk->nm", diff, diff)
    sw = np.exp(-r2 / (2.0 * sigma ** 2))
    sw[r2 > (3.0 * sigma) ** 2] = 0.0
    return sw


@functools.lru_cache(maxsize=32)
def _patch_spatial_weights(params: DescriptorParams) -> np.ndarray:
    """Read-only (cells**2, patch_size**2) spatial weights of a whole patch
    at origin (0, 0): the matrix :func:`density_at` builds there."""
    p = params.patch_size
    sw = _spatial_kernel(params.cell_centers(), _window_pixels(0, p, 0, p),
                         params.sigma)
    sw.flags.writeable = False
    return sw


def _orientation_weights(ang: np.ndarray, params: DescriptorParams,
                         scale: np.ndarray = None) -> np.ndarray:
    """Angular kernel weights (..., bins) of orientations ``ang`` in
    [0, 2*pi) at every bin center, times ``scale`` (same shape as ``ang``)
    when it is given.

    The triangular kernel with eps at most one bin width is zero beyond the
    bin holding an angle and its two neighbours, so it is evaluated there
    alone and scattered into zeros; every value equals the dense evaluation
    (times ``scale``) bit for bit, and a zero weight times a finite
    nonnegative scale stays +0.0. Both neighbours are kept because an angle
    on a bin center can give the far one a weight of order 1e-16. Other
    kernels and wider eps evaluate every bin.
    """
    centers = params.bin_centers()
    bins = params.bins
    width = 2.0 * np.pi / bins
    if params.kernel != "triangular" or params.eps > width:
        out = angular_kernel(ang[..., None], centers, params.eps, params.kernel)
        if scale is not None:
            out *= scale[..., None]
        return out
    # k = floor(ang / width) lies in [0, bins]; entry k + j of these tables
    # is neighbour j - 1 of bin k, wrapped into [0, bins), and its center.
    # Arrays are neighbour-major (3, pixels), so every loop runs along pixels
    wrap = np.arange(-1, bins + 2) % bins
    a = ang.ravel()
    k = np.floor(a / width).astype(np.intp) + np.array([[0], [1], [2]])
    near = wrap.take(k)
    # angular_kernel's circular distance: theta - mu lies in (-2pi, 2pi),
    # where np.mod(d, 2pi) is d + 2pi for d < 0 and d otherwise
    d = a - centers[wrap].take(k)
    d = np.where(d < 0.0, d + TWO_PI, d)
    vals = np.maximum(0.0, 1.0 - np.minimum(d, TWO_PI - d) / params.eps)
    if scale is not None:
        vals *= scale.ravel()
    out = np.zeros((a.size, bins))
    near += np.arange(0, a.size * bins, bins)
    out.ravel()[near] = vals
    return out.reshape(ang.shape + (bins,))


def density_at(grad: GradientField, params: DescriptorParams,
               centers: np.ndarray, origin=(0, 0)) -> np.ndarray:
    """Evaluate the unnormalized orientation density at arbitrary centers.

    Sums over the patch window anchored at integer ``origin`` (clipped to the
    image), weighting each pixel's gradient magnitude by an angular kernel
    around each bin center and a spatial Gaussian around each query center.
    The Gaussian is cut off hard at three sigma. Returns (len(centers), bins).
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    ox, oy = int(round(origin[0])), int(round(origin[1]))
    p = params.patch_size
    h, w = grad.shape
    x0, x1 = max(ox, 0), min(ox + p, w)
    y0, y1 = max(oy, 0), min(oy + p, h)
    out = np.zeros((centers.shape[0], params.bins))
    if x0 >= x1 or y0 >= y1:
        return out
    aw = _orientation_weights(grad.angle[y0:y1, x0:x1].ravel(), params,
                              grad.magnitude[y0:y1, x0:x1].ravel())
    sw = _spatial_kernel(centers, _window_pixels(x0, x1, y0, y1), params.sigma)
    return sw @ aw


def orientation_density(grad: GradientField, params: DescriptorParams,
                        origin=(0, 0)) -> OrientationDensity:
    """Unnormalized orientation density on the default cell grid."""
    vals = density_at(grad, params, params.cell_centers(origin), origin)
    grid = vals.reshape(params.cells, params.cells, params.bins)
    return OrientationDensity(grid, params, normalized=False)


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
    unnormalized density grids; row i equals ``sample_descriptor(
    normalize_density(...)).values`` bit for bit."""
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


@dataclass
class DescriptorVector:
    """Flattened descriptor: cell-major (row, col), then orientation bin."""

    values: np.ndarray
    method: str
    params: DescriptorParams

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        expect = self.params.cells ** 2 * self.params.bins
        if self.values.size != expect:
            raise ValueError(f"descriptor has {self.values.size} values, expected {expect}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("descriptor values must be finite")

    @property
    def bins(self) -> int:
        return self.params.bins


def sample_descriptor(density: OrientationDensity, method: str) -> DescriptorVector:
    """Flatten a density grid into a descriptor vector (C order)."""
    return DescriptorVector(density.grid.reshape(-1).copy(), method, density.params)
