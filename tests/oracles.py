"""Scalar reference forms of the library's batched operations.

Each function here is a per-item or dense body that the library once ran
beside its batched or sparse form, or a per-item restatement of a batched
kernel in the same float steps. The library keeps one implementation per
operation (its per-item names are one-row calls of the batched forms), and
the tests compare both against these bodies. Nothing in
``src/`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mvdesc.hog import ZERO_MASS_EPS, _patch_spatial_weights
from mvdesc.image import (TWO_PI, AffineContrast, GrayImage, base_to_level,
                          bilinear_sample, build_pyramid, compute_gradient,
                          level_to_base)
from mvdesc.scene import (OCCLUDED, OCCLUSION_REL_TOL, OUT_OF_VIEW, UNDEFINED,
                          VISIBLE, RenderedView)
from mvdesc.tracking import _SegmentTest, extract_patch
from mvdesc.viewsynth import (BOUNDS_MARGIN, MIN_FACING, LocalSurface,
                              ReprojectionOutOfBounds, _lattice_normals)


# ---------------------------------------------------------------------------
# angular kernel, densities and their normalization


def circular_distance(a, b):
    """Distance on the circle between angles ``a`` and ``b``, in [0, pi]."""
    d = np.mod(np.asarray(a, dtype=np.float64) - b, TWO_PI)
    return np.minimum(d, TWO_PI - d)


def angular_kernel(theta, mu, eps: float):
    """Triangular kernel on the circular distance d(theta, mu): 1 at d = 0,
    0 for d >= eps. At eps = one bin width and every bin center it is the
    dense form of the votes of ``hog._orientation_votes``, to rounding."""
    return np.maximum(0.0, 1.0 - circular_distance(theta, mu) / eps)


def two_bin_votes(gx: float, gy: float, bins: int) -> np.ndarray:
    """(bins,) orientation votes of one gradient in the float steps of
    ``hog._orientation_votes``: the magnitude m goes f * m to the bin above
    the angle and m - f * m to the bin below, f being the angle's fraction
    of a bin past the lower bin's center."""
    m = np.sqrt(gx * gx + gy * gy)
    # np.arctan2, not math.atan2: NumPy's vector loop and libm can differ
    # in the last bit, and NumPy gives a scalar its vector loop's value
    t = np.arctan2(gy, gx) * (bins / TWO_PI) - 0.5
    lo = math.floor(t)
    f = t - lo
    out = np.zeros(bins)
    out[(lo + 1) % bins] = f * m
    out[lo % bins] = m - f * m
    return out


def patch_density(patch, params) -> np.ndarray:
    """Unnormalized (cells, cells, bins) density of one patch: the spatial
    weights times the (pixels, bins) :func:`two_bin_votes` of its gradient,
    one pixel at a time."""
    grad = compute_gradient(GrayImage(patch, unit_range=False))
    votes = np.array([two_bin_votes(float(x), float(y), params.bins)
                      for x, y in zip(grad.gx.ravel(), grad.gy.ravel())])
    grid = _patch_spatial_weights(params) @ votes
    return grid.reshape(params.cells, params.cells, params.bins)


def normalized_row(grid, bins: int):
    """``(row, zero_mass)`` of one density, one cell at a time: each cell of
    ``bins`` values over its sum, or uniform where that sum is below
    ``ZERO_MASS_EPS``, flattened to one row; and the per-cell mask of the
    uniform-by-zero-mass cells."""
    cells = np.asarray(grid, dtype=np.float64).reshape(-1, bins)
    row, zero = np.empty_like(cells), np.empty(len(cells), dtype=bool)
    for i, cell in enumerate(cells):
        mass = np.sum(cell)
        zero[i] = mass < ZERO_MASS_EPS
        row[i] = 1.0 / bins if zero[i] else cell / mass
    return row.reshape(-1), zero


# ---------------------------------------------------------------------------
# rendering


def render_view(scene, camera, pose, photometric: dict = None, rng=None):
    """The image data and depth of one view, ray-cast as each view once was:
    a ray grid of its own, ``ray_directions(pixel_grid())``, the full
    3-component hit points, and the texture read through one stacked
    ``(..., 2)`` :func:`bilinear_sample` lookup of the wrapped texture."""
    dirs = camera.ray_directions(camera.pixel_grid()) @ pose.r
    origins = np.broadcast_to(pose.center, dirs.shape)
    t = scene.surface.intersect(origins, dirs)
    hit = np.isfinite(t)
    pts = origins + np.where(hit, t, 0.0)[..., None] * dirs
    n = scene.texture.shape[0]
    xy = np.stack([np.mod(pts[..., 0] * scene.texels_per_meter, n),
                   np.mod(pts[..., 1] * scene.texels_per_meter, n)], axis=-1)
    wrapped = np.pad(scene.texture, (0, 1), mode="wrap")
    img = np.where(hit, bilinear_sample(wrapped, xy, clamp=False), 0.0)
    photometric = photometric or {}
    a = float(photometric.get("a", 1.0))
    b = float(photometric.get("b", 0.0))
    sigma = float(photometric.get("noise_sigma", 0.0))
    img = AffineContrast(a, b).apply(img) if (a != 1.0 or b != 0.0) else img
    if sigma > 0.0:
        img = img + sigma * rng.standard_normal(img.shape)
    image = GrayImage.from_u8(GrayImage(np.clip(img, 0.0, 1.0)).to_u8())
    return image.data, np.where(hit, t, np.inf)


# ---------------------------------------------------------------------------
# ground-truth correspondence


@dataclass
class Correspondence:
    """Where a pixel of one view lands in another view, and its status."""

    xy: np.ndarray
    status: str
    depth_source: float = np.nan
    depth_target: float = np.nan


# Not bilinear_sample: a reliability test over the corners of nonzero weight.
def _interp_depth(depth: np.ndarray, x: float, y: float,
                  max_rel_spread: float = OCCLUSION_REL_TOL):
    """Bilinear ray depth, or None where no reliable value exists.

    Only raster samples with nonzero interpolation weight participate, so
    integer positions read the raster exactly. Fractional positions whose
    participating samples are non-finite or spread wider than
    ``max_rel_spread`` (a depth discontinuity, e.g. a self-occlusion
    silhouette) have no meaningful interpolant and return None.
    """
    h, w = depth.shape
    if not (0.0 <= x <= w - 1 and 0.0 <= y <= h - 1):
        return None
    x0 = min(int(math.floor(x)), w - 2)
    y0 = min(int(math.floor(y)), h - 2)
    fx, fy = x - x0, y - y0
    wts = np.array([[(1 - fx) * (1 - fy), fx * (1 - fy)],
                    [(1 - fx) * fy, fx * fy]])
    quad = depth[y0:y0 + 2, x0:x0 + 2]
    used = wts > 1e-12
    vals = quad[used]
    if not np.all(np.isfinite(vals)):
        return None
    lo = float(vals.min())
    if float(vals.max()) - lo > max_rel_spread * lo:
        return None
    return float(np.sum(wts[used] * quad[used]))


def ground_truth_correspondence(src: RenderedView, dst: RenderedView,
                                xy) -> Correspondence:
    """Map a source-view pixel to the target view through the 3-D surface.

    The source pixel is lifted to 3-D with interpolated ray depth, moved to
    the target camera, and projected. Status is ``visible`` when the target
    view's own depth at the landing point agrees with the transferred point
    (within a relative tolerance), ``occluded`` when the target surface lies
    in front of it or its depth there is too unreliable to certify
    visibility, ``out_of_view`` when the projection leaves the image or
    lands behind the camera, and ``undefined`` when the source depth itself
    gives no reliable lift.
    """
    x, y = float(xy[0]), float(xy[1])
    z = _interp_depth(src.depth, x, y)
    if z is None:
        return Correspondence(np.full(2, np.nan), UNDEFINED)

    d = src.camera.ray_directions(np.array([x, y]))
    pt_src = z * d
    pt_world = src.pose.inverse().transform(pt_src)
    pt_dst = dst.pose.transform(pt_world)
    if pt_dst[2] <= 0.0:
        return Correspondence(np.full(2, np.nan), OUT_OF_VIEW, depth_source=z)

    uv = dst.camera.project(pt_dst[None, :])[0]
    expected = float(np.linalg.norm(pt_dst))
    surf = _interp_depth(dst.depth, uv[0], uv[1])
    if surf is None:
        status = OUT_OF_VIEW if not dst.camera.contains(uv) else OCCLUDED
        return Correspondence(uv, status, depth_source=z, depth_target=expected)
    if expected > surf * (1.0 + OCCLUSION_REL_TOL):
        return Correspondence(uv, OCCLUDED, depth_source=z, depth_target=expected)
    return Correspondence(uv, VISIBLE, depth_source=z, depth_target=expected)


# ---------------------------------------------------------------------------
# surface lifting and view synthesis


def from_frame(depth: np.ndarray, camera, anchor_xy, patch_size: int,
               level: int = 0) -> LocalSurface:
    """Lift the patch lattice at ``anchor_xy`` using a ray-depth map.

    Raises ValueError when the depth under any lattice point has
    incomplete (non-finite) bilinear support.
    """
    half = (patch_size - 1) / 2.0
    offs = np.arange(patch_size) - half
    ax, ay = float(anchor_xy[0]), float(anchor_xy[1])
    gx, gy = np.meshgrid(ax + offs, ay + offs)
    lattice = np.stack([gx, gy], axis=-1)
    base_xy = level_to_base(lattice, level)

    h, w = depth.shape
    x, y = base_xy[..., 0], base_xy[..., 1]
    if np.any((x < 0) | (x > w - 1) | (y < 0) | (y > h - 1)):
        raise ValueError("patch lattice leaves the depth map")
    # a non-finite corner makes its sample non-finite, even at weight 0
    # (inf * 0 is nan)
    with np.errstate(invalid="ignore"):
        z = bilinear_sample(depth, base_xy, clamp=False)
    if not np.all(np.isfinite(z)):
        raise ValueError("depth has holes under the patch lattice")
    points = z[..., None] * camera.ray_directions(base_xy)

    anchor_base = level_to_base(np.array([ax, ay], dtype=np.float64), level)
    za = bilinear_sample(depth, anchor_base[None, :], clamp=False)[0]
    anchor = za * camera.ray_directions(anchor_base)

    normals = _lattice_normals(points)
    mean_normal = normals.reshape(-1, 3).mean(axis=0)
    mean_normal /= np.linalg.norm(mean_normal)
    return LocalSurface(points, normals, mean_normal, anchor, level, camera,
                        patch_size)


def view_visible(surface: LocalSurface, rotation: np.ndarray,
                 min_facing: float = MIN_FACING) -> bool:
    """Whether the rotated patch still faces the camera with some margin."""
    return float(-(rotation @ surface.mean_normal)[2]) > min_facing


def synthesize_patch(surface: LocalSurface, level_image: GrayImage,
                     rotation: np.ndarray) -> np.ndarray:
    """Appearance of the surface rotated about its anchor, on the patch lattice.

    Each lattice point's 3-D surface point is rotated about the anchor,
    reprojected, and the source level image is sampled there bilinearly
    (borders clamped). Raises :class:`ReprojectionOutOfBounds` if any sample
    would land further outside the image than ``BOUNDS_MARGIN`` times its
    smaller side, or behind the camera.
    """
    rotated = (surface.points - surface.anchor) @ rotation.T + surface.anchor
    if np.any(rotated[..., 2] <= 0.0):
        raise ReprojectionOutOfBounds("rotated surface reaches behind the camera")
    uv_base = surface.camera.project(rotated.reshape(-1, 3))
    uv = base_to_level(uv_base, surface.level).reshape(surface.points.shape[:2] + (2,))

    h, w = level_image.shape
    slack = BOUNDS_MARGIN * min(h, w)
    if (uv[..., 0].min() < -slack or uv[..., 0].max() > w - 1 + slack
            or uv[..., 1].min() < -slack or uv[..., 1].max() > h - 1 + slack):
        raise ReprojectionOutOfBounds("synthesized view samples outside the image")
    return bilinear_sample(level_image.data, uv)


# ---------------------------------------------------------------------------
# corner detection and patch cutting


def fast_score_map(img: GrayImage, threshold: float, arc: int = 9):
    """Segment-test corner mask and scores for one image.

    A pixel passes when some ``arc`` contiguous circle pixels are all
    brighter than center + threshold or all darker than center - threshold.
    The score is the total intensity excess beyond the threshold, for
    whichever polarity is stronger. Returns (mask, score) over the full
    image; a 3-pixel border never fires.
    """
    test = _SegmentTest(build_pyramid(img, 1), arc, 3)
    sel, sc = test.at(threshold)
    xs, ys = test.xy[sel].astype(np.intp).T
    mask, score = np.zeros(img.shape, bool), np.zeros(img.shape)
    mask[ys, xs], score[ys, xs] = True, sc
    return mask, score


def normalize_patch(patch: np.ndarray) -> np.ndarray:
    """Standardize a patch, then rescale to fill [0, 1]; flat patches to 0.5."""
    s = patch.std()
    if s < 1e-12:
        return np.full_like(patch, 0.5)
    z = (patch - patch.mean()) / s
    return (z - z.min()) / (z.max() - z.min())


def quantized_patch(img: GrayImage, xy, size: int) -> np.ndarray:
    """Normalized patch at xy, quantized to 8 bits as it is stored on disk."""
    norm = normalize_patch(extract_patch(img, xy, size))
    return GrayImage.from_u8(GrayImage(norm).to_u8()).data
