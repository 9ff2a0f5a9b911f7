"""Descriptors from synthesized viewpoints of a reconstructed local surface.

When ground-truth depth is available, the patch under a tracked point can be
lifted to a small 3-D surface, rotated about its anchor, and reprojected
into the source image to fabricate how the patch would look from vantage
points the camera never visited. Aggregating orientation densities over a
grid of such rotations approximates marginalizing the viewpoint; keeping
the per-view descriptors instead and scoring a query by its best match
(max-out) trades memory for selectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PinholeCamera, axis_angle_rotation, rot_z
from .hog import DescriptorParams, normalize_densities, patch_densities
from .image import (GrayImage, _central_differences, base_to_level,
                    bilinear_sample, level_to_base)

__all__ = [
    "ReprojectionOutOfBounds",
    "LocalSurface",
    "lift_surfaces",
    "sample_rotations",
    "synthesize_patch",
    "synthesize_views",
    "patch_density",
    "view_descriptors",
    "aggregate_descriptor",
    "select_keyframes",
]

N_AZIMUTH = 8
N_INPLANE = 10
TILT_ANGLE = np.pi / 6
INPLANE_HALFWIDTH = np.pi / 3
MIN_FACING = 0.2
BOUNDS_MARGIN = 0.2
DEFAULT_KEYFRAMES = 10


class ReprojectionOutOfBounds(ValueError):
    """No synthesized view is kept: each rotation faced away, reached behind
    the camera or would sample far outside the source image."""


def sample_rotations(n_azimuth: int = N_AZIMUTH, n_inplane: int = N_INPLANE,
                     tilt: float = TILT_ANGLE,
                     inplane_halfwidth: float = INPLANE_HALFWIDTH) -> np.ndarray:
    """Rotation grid over a viewing hemisphere, (n_azimuth*n_inplane, 3, 3).

    Out-of-plane factor: the untilted pole plus ``n_azimuth - 1`` tilts of
    ``tilt`` radians about evenly spaced axes in the camera's image plane.
    In-plane factor: ``n_inplane`` rotations about the optical axis stepped
    across ``[-inplane_halfwidth, inplane_halfwidth)``, always including 0.
    The identity is therefore always on the grid. Defaults give 80 views.
    """
    if n_azimuth < 1 or n_inplane < 1:
        raise ValueError("need at least one azimuth and one in-plane angle")
    oop = [np.eye(3)]
    for j in range(n_azimuth - 1):
        phi = 2.0 * np.pi * j / (n_azimuth - 1)
        axis = np.array([-np.sin(phi), np.cos(phi), 0.0])
        oop.append(axis_angle_rotation(axis, tilt))
    step = 2.0 * inplane_halfwidth / n_inplane
    inplane = [rot_z((k - n_inplane // 2) * step) for k in range(n_inplane)]
    return np.array([a @ b for a in oop for b in inplane])


@dataclass
class LocalSurface:
    """Patch-sized surface reconstruction in the source camera's frame.

    ``points[r, c]`` is the 3-D point under lattice pixel (r, c); the lattice
    is the patch-extraction grid on pyramid level ``level`` centred on the
    pixel whose ray holds ``anchor``. Normals point toward the camera
    (negative z).
    """

    points: np.ndarray
    normals: np.ndarray
    mean_normal: np.ndarray
    anchor: np.ndarray
    level: int
    camera: PinholeCamera
    patch_size: int

    @classmethod
    def from_frame(cls, depth: np.ndarray, camera: PinholeCamera, anchor_xy,
                   patch_size: int, level: int = 0) -> "LocalSurface":
        """One anchor of :func:`lift_surfaces`; ValueError where that lifts
        no surface."""
        surface = lift_surfaces(depth, camera, [anchor_xy], patch_size, level)[0]
        if surface is None:
            raise ValueError("patch lattice leaves the depth or covers a hole")
        return surface


def lift_surfaces(depth: np.ndarray, camera: PinholeCamera, anchors,
                  patch_size: int, levels=0) -> list:
    """Lift the patch lattice at every row of ``anchors`` (n, 2) from a
    ray-depth map, each anchor on its own pyramid level ``levels`` (n,) or
    one level for all: per anchor its :class:`LocalSurface`, or None where
    the lattice leaves the depth map or the depth under a lattice point has
    incomplete (non-finite) bilinear support.

    The lattices of all anchors share one depth gather and one normal
    computation. Each mean normal is reduced per surface, so its summation
    order cannot depend on how many surfaces share the batch.
    """
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 2)
    levels = np.broadcast_to(np.asarray(levels, dtype=np.intp), len(anchors))
    offs = np.arange(patch_size) - (patch_size - 1) / 2.0
    lattice = np.empty((len(anchors), patch_size, patch_size, 2))
    lattice[..., 0] = anchors[:, 0, None, None] + offs
    lattice[..., 1] = anchors[:, 1, None, None] + offs[:, None]
    base_xy = level_to_base(lattice, levels[:, None, None])

    h, w = depth.shape
    x, y = base_xy[..., 0], base_xy[..., 1]
    idx = np.flatnonzero(~np.any((x < 0) | (x > w - 1) | (y < 0) | (y > h - 1),
                                 axis=(1, 2)))
    with np.errstate(invalid="ignore"):
        z = bilinear_sample(depth, base_xy[idx], clamp=False)
    whole = np.all(np.isfinite(z), axis=(1, 2))
    idx, z, base_xy = idx[whole], z[whole], base_xy[idx[whole]]
    points = z[..., None] * camera.ray_directions(base_xy)

    anchor_base = level_to_base(anchors[idx], levels[idx])
    za = bilinear_sample(depth, anchor_base, clamp=False)
    anchor = za[:, None] * camera.ray_directions(anchor_base)

    normals = _lattice_normals(points)
    surfaces = [None] * len(anchors)
    for j, i in enumerate(idx.tolist()):
        mean_normal = normals[j].reshape(-1, 3).mean(axis=0)
        mean_normal /= np.linalg.norm(mean_normal)
        surfaces[i] = LocalSurface(points[j], normals[j], mean_normal, anchor[j],
                                   int(levels[i]), camera, patch_size)
    return surfaces


def _lattice_normals(points: np.ndarray) -> np.ndarray:
    """Per-lattice-point surface normals of (..., p, p, 3) lattice points,
    oriented toward the camera.

    The interior factor 0.5 of the central differences scales the cross
    product and its norm by a power of two, which the division cancels."""
    du, dv = _central_differences(np.ascontiguousarray(np.moveaxis(points, -1, -3)))
    n = np.cross(du, dv, axisa=-3, axisb=-3)
    norms = np.linalg.norm(n, axis=-1, keepdims=True)
    n = n / np.where(norms < 1e-300, 1.0, norms)
    flip = n[..., 2] > 0.0  # camera looks along +z; facing normals have z < 0
    n[flip] *= -1.0
    return n


def synthesize_patch(surface: LocalSurface, level_image: GrayImage,
                     rotation: np.ndarray) -> np.ndarray:
    """One rotation of :func:`synthesize_views`, with no facing test; raises
    :class:`ReprojectionOutOfBounds` where that keeps no view."""
    return synthesize_views(surface, level_image, rotation[None], -np.inf)[0][0]


def synthesize_views(surface: LocalSurface, level_image: GrayImage,
                     rotations: np.ndarray = None,
                     min_facing: float = MIN_FACING):
    """Appearance of the surface rotated about its anchor by each rotation,
    on the patch lattice; returns (stack, kept indices).

    A rotation is kept when the rotated mean normal faces the camera by more
    than ``min_facing``, no rotated lattice point reaches behind the camera,
    and no sample lands further outside the image than ``BOUNDS_MARGIN``
    times its smaller side. Its lattice points are rotated about the anchor
    and reprojected, and the source level image is sampled there bilinearly
    (borders clamped). All facing rotations share one batched product,
    projection and gather; each lattice row is rotated by its own ``(p, 3)
    @ (3, 3)`` product. Raises :class:`ReprojectionOutOfBounds` when no
    rotation is kept.
    """
    if rotations is None:
        rotations = sample_rotations()
    rotations = np.asarray(rotations, dtype=np.float64)
    idx = np.flatnonzero(-(rotations @ surface.mean_normal)[:, 2] > min_facing)
    rel = surface.points - surface.anchor
    rotated = np.matmul(rel[None], rotations[idx].transpose(0, 2, 1)[:, None])
    # the anchor tiled over the lattice, so the add runs along whole rows
    rotated.reshape(len(idx), rel.size)[:] += np.tile(surface.anchor, rel.size // 3)
    # a lattice reaching behind the camera is dropped before projecting
    behind = np.any(rotated[..., 2] <= 0.0, axis=(1, 2))
    if behind.any():
        idx, rotated = idx[~behind], rotated[~behind]
    uv = base_to_level(surface.camera.project(rotated), surface.level)
    h, w = level_image.shape
    slack = BOUNDS_MARGIN * min(h, w)
    u, v = uv[..., 0], uv[..., 1]
    outside = ((u.min(axis=(1, 2)) < -slack) | (u.max(axis=(1, 2)) > w - 1 + slack)
               | (v.min(axis=(1, 2)) < -slack) | (v.max(axis=(1, 2)) > h - 1 + slack))
    if outside.any():
        idx, uv = idx[~outside], uv[~outside]
    if not idx.size:
        raise ReprojectionOutOfBounds(
            "no synthesized view was accepted: each rotation faced away, "
            "reached behind the camera or sampled outside the image")
    return bilinear_sample(level_image.data, uv), idx


def patch_density(patch: np.ndarray, params: DescriptorParams) -> np.ndarray:
    """Unnormalized (cells, cells, bins) density of one patch array."""
    return patch_densities(np.asarray(patch)[None], params)[0]


def view_descriptors(patches: np.ndarray, params: DescriptorParams) -> np.ndarray:
    """Per-view normalized descriptor rows, (views, cells**2 * bins), for
    max-out storage."""
    return normalize_densities(patch_densities(patches, params), params)[0]


def aggregate_descriptor(patches: np.ndarray,
                         params: DescriptorParams) -> np.ndarray:
    """Single descriptor row, (cells**2 * bins,), marginalized over the
    synthesized views. Raises ValueError for an empty stack."""
    if not len(patches):
        raise ValueError("no synthesized views to aggregate")
    mean = patch_densities(patches, params).mean(axis=0)
    return normalize_densities(mean, params)[0][0]


def select_keyframes(n_frames: int, k: int = DEFAULT_KEYFRAMES) -> np.ndarray:
    """Indices of up to k frames spread evenly across a track."""
    if n_frames < 1:
        raise ValueError("track has no frames")
    k = min(k, n_frames)
    return np.unique(np.round(np.linspace(0, n_frames - 1, k)).astype(int))
