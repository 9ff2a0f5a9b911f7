"""Rigid-body poses, rotation constructors, and the pinhole camera model.

Conventions used throughout the package:

* world/camera points are length-3 vectors, stacked along the last axis;
* a :class:`Pose` maps world coordinates to camera coordinates,
  ``X_cam = R @ X_world + t``;
* the camera looks down its +z axis, +x is image-right, +y is image-down,
  matching row-major image storage (``data[y, x]``);
* pixel positions are ``(x, y)`` pairs with pixel centers at integer
  coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Pose",
    "PinholeCamera",
    "axis_angle_rotation",
    "rot_z",
    "look_at",
    "rotation_is_valid",
]

_ORTHO_TOL = 1e-9


def rotation_is_valid(r: np.ndarray, tol: float = _ORTHO_TOL) -> bool:
    """True when ``r`` is a proper rotation: r.T @ r = I and det r = 1."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        return False
    if not np.all(np.isfinite(r)):
        return False
    err = np.max(np.abs(r.T @ r - np.eye(3)))
    return err <= tol and abs(np.linalg.det(r) - 1.0) <= tol


def axis_angle_rotation(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a rotation of ``angle`` radians about ``axis``.

    Rodrigues' formula; ``axis`` need not be unit length.
    """
    a = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    a = a / n
    k = np.array(
        [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rot_z(angle: float) -> np.ndarray:
    """Rotation about the +z axis (the camera's optical axis)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Pose:
    """Rigid transform ``X_out = r @ X_in + t`` with ``r`` in SO(3).

    Used as a camera extrinsic (world -> camera).
    """

    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(self.r, dtype=np.float64)
        t = np.ascontiguousarray(self.t, dtype=np.float64).reshape(3)
        if not rotation_is_valid(r):
            raise ValueError("pose rotation is not a proper rotation matrix")
        if not np.all(np.isfinite(t)):
            raise ValueError("pose translation must be finite")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", t)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to points of shape (..., 3).

        Every point is a (1, 3) row times ``r.T`` of its own, the product a
        lone point makes, so a point transforms to the same bits alone or in
        a stack; a plain ``(n, 3) @ r.T`` rounds some rows differently.
        """
        pts = np.asarray(points, dtype=np.float64)
        return (pts[..., None, :] @ self.r.T)[..., 0, :] + self.t

    def inverse(self) -> "Pose":
        return Pose(self.r.T, -self.r.T @ self.t)

    @property
    def center(self) -> np.ndarray:
        """Origin of the output frame expressed in the input frame.

        For a world->camera pose this is the camera center in world
        coordinates.
        """
        return -self.r.T @ self.t

    def to_config(self) -> dict:
        return {"r": self.r.tolist(), "t": self.t.tolist()}

    @classmethod
    def from_config(cls, cfg: dict) -> "Pose":
        return cls(np.asarray(cfg["r"]), np.asarray(cfg["t"]))


def look_at(eye, target, up=(0.0, 0.0, 1.0)) -> Pose:
    """World->camera pose for a camera at ``eye`` looking toward ``target``.

    ``up`` fixes the roll: the camera's -y (image-up) axis is aligned with
    ``up`` as closely as the viewing direction allows.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    z = target - eye
    zn = np.linalg.norm(z)
    if zn == 0.0:
        raise ValueError("eye and target coincide")
    z = z / zn
    x = np.cross(z, up)
    xn = np.linalg.norm(x)
    if xn < 1e-12:
        raise ValueError("viewing direction is parallel to the up vector")
    x = x / xn
    y = np.cross(z, x)
    r = np.stack([x, y, z], axis=0)
    return Pose(r, -r @ eye)


@dataclass(frozen=True)
class PinholeCamera:
    """Ideal pinhole camera with square pixels and no distortion."""

    focal: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.focal <= 0.0:
            raise ValueError("focal length must be positive")
        if not (0.0 <= self.cx < self.width and 0.0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def project(self, points: np.ndarray) -> np.ndarray:
        """Project camera-frame points (..., 3) to pixel coordinates (..., 2).

        Points must have positive depth; the caller guards z <= 0.
        """
        pts = np.asarray(points, dtype=np.float64)
        z = pts[..., 2]
        out = np.empty(pts.shape[:-1] + (2,), dtype=np.float64)
        out[..., 0] = self.focal * pts[..., 0] / z + self.cx
        out[..., 1] = self.focal * pts[..., 1] / z + self.cy
        return out

    def ray_directions(self, xy: np.ndarray) -> np.ndarray:
        """Unit ray directions in camera coordinates for pixels (..., 2)."""
        xy = np.asarray(xy, dtype=np.float64)
        d = np.empty(xy.shape[:-1] + (3,), dtype=np.float64)
        d[..., 0] = (xy[..., 0] - self.cx) / self.focal
        d[..., 1] = (xy[..., 1] - self.cy) / self.focal
        d[..., 2] = 1.0
        return d / np.linalg.norm(d, axis=-1, keepdims=True)

    def pixel_grid(self) -> np.ndarray:
        """(height, width, 2) array of pixel-center coordinates."""
        xs = np.arange(self.width, dtype=np.float64)
        ys = np.arange(self.height, dtype=np.float64)
        gx, gy = np.meshgrid(xs, ys)
        return np.stack([gx, gy], axis=-1)

    @cached_property
    def pixel_rays(self) -> np.ndarray:
        """Read-only (height, width, 3) unit rays through the pixel centers,
        ``ray_directions(pixel_grid())``, built on first use and kept on this
        camera, so every view rendered through it shares one grid."""
        rays = self.ray_directions(self.pixel_grid())
        rays.flags.writeable = False
        return rays

    def contains(self, xy: np.ndarray) -> np.ndarray:
        """Boolean mask of pixel coordinates inside the image bounds."""
        xy = np.asarray(xy, dtype=np.float64)
        return ((xy[..., 0] >= 0.0) & (xy[..., 0] <= self.width - 1)
                & (xy[..., 1] >= 0.0) & (xy[..., 1] <= self.height - 1))

    def to_config(self) -> dict:
        return {
            "focal": self.focal,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "PinholeCamera":
        return cls(cfg["focal"], cfg["cx"], cfg["cy"], cfg["width"], cfg["height"])
