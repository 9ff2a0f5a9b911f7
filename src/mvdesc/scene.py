"""Synthetic textured scenes with exact depth and correspondence ground truth.

A scene is a textured surface (a plane, or a smooth heightfield that decays
to the plane outside its bump region) posed in world coordinates. Rendering
casts one ray per pixel and stores ray depth: Euclidean distance from the
camera center along the unit ray, so a 3-D point is depth times ray
direction. Because every quantity is computed, correspondence between any
two views of the same scene is available exactly, including whether the
target point is occluded.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import PinholeCamera, Pose, look_at
from .image import (AffineContrast, GrayImage, _bilinear, _check_fields,
                    _field_defaults, _json_field, _json_list, _need, read_pgm,
                    write_pgm)

__all__ = [
    "RenderError",
    "PlaneSurface",
    "HeightfieldSurface",
    "SceneModel",
    "RenderedView",
    "Correspondence",
    "render_view",
    "ground_truth_correspondence",
    "ground_truth_correspondences",
    "make_texture",
    "build_scene",
    "default_scene_spec",
    "generate_dataset",
    "load_dataset",
    "SceneDataset",
    "write_depth",
    "read_depth",
    "VISIBLE",
    "OCCLUDED",
    "OUT_OF_VIEW",
    "UNDEFINED",
]

VISIBLE = "visible"
OCCLUDED = "occluded"
OUT_OF_VIEW = "out_of_view"
UNDEFINED = "undefined"

OCCLUSION_REL_TOL = 0.01  # relative depth slack before a point counts as hidden
_TMIN = 1e-6
_MARCH_STEPS = 48
_BISECT_ITERS = 40


class RenderError(ValueError):
    """Raised when a view sees (almost) none of the scene."""


# ---------------------------------------------------------------------------
# surfaces, defined in the scene's local frame


class PlaneSurface:
    """The plane z = 0, extended indefinitely."""

    def intersect(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Ray parameter t of the first hit per ray, inf where none."""
        oz = origins[..., 2]
        dz = dirs[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(np.abs(dz) > 1e-12, -oz / dz, np.inf)
        return np.where(t > _TMIN, t, np.inf)


class HeightfieldSurface:
    """Smooth bump field z = f(x, y), flattening to z = 0 away from center.

    ``f`` interpolates a lattice of control heights with the Catmull-Rom
    bicubic kernel. The two outermost lattice rings are zero and indices are
    clamped, so the surface continues as the plane z = 0 everywhere outside
    the lattice footprint.
    """

    def __init__(self, coefficients: np.ndarray, extent: float):
        c = np.asarray(coefficients, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 6 or c.shape[1] < 6:
            raise ValueError("lattice must be 2-D, at least 6x6")
        if extent <= 0.0:
            raise ValueError("extent must be positive")
        c = c.copy()
        c[:2, :] = 0.0
        c[-2:, :] = 0.0
        c[:, :2] = 0.0
        c[:, -2:] = 0.0
        self.coefficients = c
        # one edge ring: the index clamp of the 16 taps at the lattice border
        self._padded = np.pad(c, 1, mode="edge")
        self.extent = float(extent)
        self.spacing = extent / (c.shape[0] - 1)
        self.x0 = -extent / 2.0
        span = float(c.max() - c.min())
        # Catmull-Rom can overshoot the control range; pad the slab bounds.
        self.zmin = float(c.min()) - 0.35 * span - 1e-6
        self.zmax = float(c.max()) + 0.35 * span + 1e-6

    @staticmethod
    def _weights(u: np.ndarray) -> tuple[np.ndarray, ...]:
        u2 = u * u
        u3 = u2 * u
        return (
            -0.5 * u3 + u2 - 0.5 * u,
            1.5 * u3 - 2.5 * u2 + 1.0,
            -1.5 * u3 + 2.0 * u2 + 0.5 * u,
            0.5 * u3 - 0.5 * u2,
        )

    def height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """f(x, y), vectorized over same-shaped coordinate arrays; positions
        clamp to the lattice as in :func:`bilinear_sample`."""
        n = self.coefficients.shape[0]
        u = np.clip((np.asarray(x, dtype=np.float64) - self.x0) / self.spacing,
                    0.0, n - 1.0)
        v = np.clip((np.asarray(y, dtype=np.float64) - self.x0) / self.spacing,
                    0.0, n - 1.0)
        iu = np.minimum(np.floor(u), n - 2).astype(np.intp)
        iv = np.minimum(np.floor(v), n - 2).astype(np.intp)
        wu = self._weights(u - iu)
        wv = self._weights(v - iv)
        flat = self._padded.ravel()
        corner = iv * (n + 2) + iu  # padded index of tap (iv - 1, iu - 1)
        out = np.zeros(corner.shape)
        for j in range(4):
            acc = np.zeros_like(out)
            for i in range(4):
                acc += wu[i] * flat.take(corner + (j * (n + 2) + i))
            out += wv[j] * acc
        return out

    def intersect(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """First surface hit per ray by slab-bounded marching plus bisection."""
        o = origins.reshape(-1, 3)
        d = dirs.reshape(-1, 3)
        t_out = np.full(o.shape[0], np.inf)

        dz = d[:, 2]
        oz = o[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (self.zmin - oz) / dz
            tb = (self.zmax - oz) / dz
        enter = np.minimum(ta, tb)
        exit_ = np.maximum(ta, tb)
        level = np.abs(dz) <= 1e-12
        inside = (oz >= self.zmin) & (oz <= self.zmax)
        enter[level] = _TMIN
        exit_[level] = np.where(inside[level], 1e4, -1.0)
        enter = np.maximum(enter, _TMIN)
        ok = exit_ > enter
        if not np.any(ok):
            return t_out.reshape(origins.shape[:-1])

        ow, dw = o[ok], d[ok]
        lo, hi = enter[ok], exit_[ok]

        def residual(ro, rd, t):
            p = ro + t[:, None] * rd
            return p[:, 2] - self.height(p[:, 0], p[:, 1])

        steps = np.linspace(0.0, 1.0, _MARCH_STEPS + 1)
        ts = lo[:, None] + (hi - lo)[:, None] * steps[None, :]
        g = np.empty_like(ts)
        for k in range(ts.shape[1]):
            g[:, k] = residual(ow, dw, ts[:, k])
        crossing = (g[:, :-1] > 0.0) & (g[:, 1:] <= 0.0)
        has = crossing.any(axis=1)
        first = np.argmax(crossing, axis=1)

        idx = np.nonzero(has)[0]
        ow, dw = ow[idx], dw[idx]
        a = ts[idx, first[idx]]
        b = ts[idx, first[idx] + 1]

        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (a + b)
            pos = residual(ow, dw, mid) > 0.0
            a = np.where(pos, mid, a)
            b = np.where(pos, b, mid)
        hit_t = 0.5 * (a + b)

        sel = np.nonzero(ok)[0][idx]
        t_out[sel] = hit_t
        return t_out.reshape(origins.shape[:-1])


# ---------------------------------------------------------------------------
# textures


# Not bilinear_sample: this sums (v00*g + v01*f)*g + ..., another rounding
# order, and every texture (so every rendered byte) depends on it.
def _upsample_bilinear(grid: np.ndarray, size: int) -> np.ndarray:
    n = grid.shape[0] - 1
    c = np.arange(size) * (n / size)
    i = np.minimum(c.astype(np.intp), n - 1)
    f = c - i
    top = grid[i][:, i] * (1 - f)[None, :] + grid[i][:, i + 1] * f[None, :]
    bot = grid[i + 1][:, i] * (1 - f)[None, :] + grid[i + 1][:, i + 1] * f[None, :]
    rows = top * (1 - f)[:, None] + bot * f[:, None]
    return rows


def make_texture(rng: np.random.Generator, size: int = 256,
                 octaves: int = 5) -> np.ndarray:
    """Multi-octave value-noise albedo in [0.02, 0.98], (size, size).

    Smooth low frequencies carry shading-like variation; a small amount of
    per-texel grain at the end keeps corners and gradients plentiful.
    """
    acc = np.zeros((size, size))
    amp = 1.0
    total = 0.0
    for o in range(octaves):
        n = min(4 * 2 ** o, size)
        grid = rng.random((n + 1, n + 1))
        acc += amp * _upsample_bilinear(grid, size)
        total += amp
        amp *= 0.55
    acc /= total
    acc += 0.05 * (rng.random((size, size)) - 0.5)
    lo, hi = acc.min(), acc.max()
    return 0.02 + 0.96 * (acc - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# scene assembly and rendering


@dataclass
class SceneModel:
    """A textured surface in world coordinates.

    The albedo texture is pinned to the world (x, y) plane at
    ``texels_per_meter``.
    """

    surface: object
    texture: np.ndarray
    texels_per_meter: float

    def __post_init__(self):
        # one wrapped column and row, so a lookup at [n - 1, n] tiles the torus
        self._wrapped = np.pad(np.asarray(self.texture, dtype=np.float64),
                               (0, 1), mode="wrap")

    def local_rays(self, camera: PinholeCamera, pose: Pose):
        """Per-pixel ray origin (one point) and unit directions, world frame:
        the camera's shared :attr:`~PinholeCamera.pixel_rays` grid turned by
        the pose, one product per view."""
        # row-vector form of R^T d
        return pose.center, camera.pixel_rays @ pose.r

    def albedo(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Surface intensity at local coordinates (x, y), tiling the texture
        as a torus: the two wrapped texel coordinates go to the bilinear
        kernel as two arrays, each of which must land inside the texture."""
        n = self.texture.shape[0]
        h, w = self._wrapped.shape
        u = np.mod(x * self.texels_per_meter, n)
        v = np.mod(y * self.texels_per_meter, n)
        return _bilinear(self._wrapped.ravel(), u, v, w, h, 0, clamp=False)


@dataclass
class RenderedView:
    """One rendered (or loaded) view: image, ray-depth map, and its pose."""

    image: GrayImage
    depth: np.ndarray
    camera: PinholeCamera
    pose: Pose
    photometric: dict = None

    def __post_init__(self):
        if self.depth.shape != (self.camera.height, self.camera.width):
            raise ValueError("depth map does not match camera resolution")


def render_view(scene: SceneModel, camera: PinholeCamera, pose: Pose,
                photometric: dict = None, rng: np.random.Generator = None,
                min_hit_fraction: float = 0.5) -> RenderedView:
    """Ray-cast one view of the scene.

    ``photometric`` may carry ``a``/``b`` (affine contrast applied to the
    albedo) and ``noise_sigma`` (additive Gaussian, needs ``rng``); the image
    is clipped to [0, 1] and quantized to 8 bits, so views rendered in memory
    and views reloaded from disk are identical. Depth keeps full precision
    in memory (float32 on disk) and is inf where the ray misses.

    The rays are the camera's one :attr:`~PinholeCamera.pixel_rays` grid
    turned by the pose (:meth:`SceneModel.local_rays`); of each hit point
    only x and y are formed, for the texture lookup.
    """
    origin, dirs = scene.local_rays(camera, pose)
    t = scene.surface.intersect(np.broadcast_to(origin, dirs.shape), dirs)
    hit = np.isfinite(t)
    if hit.mean() < min_hit_fraction:
        raise RenderError(
            f"view sees only {hit.mean():.0%} of the scene; camera likely "
            "points away from the surface")

    tt = np.where(hit, t, 0.0)
    x = origin[0] + tt * dirs[..., 0]
    y = origin[1] + tt * dirs[..., 1]
    img = np.where(hit, scene.albedo(x, y), 0.0)

    photometric = dict(photometric or {})
    a = float(photometric.get("a", 1.0))
    b = float(photometric.get("b", 0.0))
    sigma = float(photometric.get("noise_sigma", 0.0))
    img = AffineContrast(a, b).apply(img) if (a != 1.0 or b != 0.0) else img
    if sigma > 0.0:
        if rng is None:
            raise ValueError("noise_sigma needs an rng")
        img = img + sigma * rng.standard_normal(img.shape)
    img = np.clip(img, 0.0, 1.0)

    image = GrayImage.from_u8(GrayImage(img).to_u8())
    depth = np.where(hit, t, np.inf)
    return RenderedView(image, depth, camera, pose, photometric)


# ---------------------------------------------------------------------------
# ground-truth correspondence


@dataclass
class Correspondence:
    """Where a pixel of one view lands in another view, and its status."""

    xy: np.ndarray
    status: str


def ground_truth_correspondence(src: RenderedView, dst: RenderedView,
                                xy) -> Correspondence:
    """Map a source-view pixel to the target view through the 3-D surface:
    one row of :func:`ground_truth_correspondences`, which says how the
    status is decided."""
    uv, status = ground_truth_correspondences(src, dst, [xy])
    return Correspondence(uv[0], status[0])


# Not bilinear_sample: a reliability test over the corners of nonzero weight.
def _interp_depths(depth: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Bilinear ray depth at arrays of positions: ``(values, ok)``.

    Only raster samples with nonzero interpolation weight participate, so
    integer positions read the raster exactly. ``ok`` is false off the
    raster and where the participating samples are non-finite or spread
    wider than ``OCCLUSION_REL_TOL`` (a depth discontinuity, e.g. a
    self-occlusion silhouette), which have no meaningful interpolant. The
    unused corners enter the sum as +0.0 terms, added left to right, so the
    sum is the one ``np.sum`` takes over the used corners alone.
    """
    h, w = depth.shape
    ok = (0.0 <= x) & (x <= w - 1) & (0.0 <= y) & (y <= h - 1)
    x, y = np.where(ok, x, 0.0), np.where(ok, y, 0.0)
    x0 = np.minimum(np.floor(x), w - 2).astype(np.intp)
    y0 = np.minimum(np.floor(y), h - 2).astype(np.intp)
    fx, fy = x - x0, y - y0
    wts = np.stack([(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy])
    idx = y0 * w + x0
    quad = depth.ravel().take(np.stack([idx, idx + 1, idx + w, idx + w + 1]))
    used = wts > 1e-12
    ok &= ~(used & ~np.isfinite(quad)).any(axis=0)
    with np.errstate(invalid="ignore"):
        lo = np.where(used, quad, np.inf).min(axis=0)
        ok &= ~(np.where(used, quad, -np.inf).max(axis=0) - lo
                > OCCLUSION_REL_TOL * lo)
        terms = np.where(used, wts * quad, 0.0)
    return ((terms[0] + terms[1]) + terms[2]) + terms[3], ok


def ground_truth_correspondences(src: RenderedView, dst: RenderedView, xy):
    """Map source-view pixels ``xy`` (n, 2) to the target view through the
    3-D surface: ``(uv, status)``, the (n, 2) landing points and (n,)
    statuses.

    Each pixel is lifted with interpolated ray depth, moved to the target
    camera and projected. Status is ``visible`` when the target's own depth
    at the landing point agrees with the transferred point (within a
    relative tolerance), ``occluded`` when the target surface lies in front
    of it or its depth there is too unreliable to certify visibility,
    ``out_of_view`` when the projection leaves the image or lands behind the
    camera (``uv`` NaN), and ``undefined`` (``uv`` NaN) when the source
    depth gives no reliable lift.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    uv = np.full(xy.shape, np.nan)
    status = np.full(len(xy), UNDEFINED, dtype=object)
    z, lifted = _interp_depths(src.depth, xy[:, 0], xy[:, 1])
    idx = np.flatnonzero(lifted)
    pt_src = z[idx, None] * src.camera.ray_directions(xy[idx])
    pt_dst = dst.pose.transform(src.pose.inverse().transform(pt_src))
    behind = pt_dst[:, 2] <= 0.0
    status[idx[behind]] = OUT_OF_VIEW
    idx, pt_dst = idx[~behind], pt_dst[~behind]
    land = dst.camera.project(pt_dst)
    uv[idx] = land
    # a (1, 3) @ (3, 1) product per row is the dot np.linalg.norm takes of
    # one point
    expected = np.sqrt((pt_dst[:, None, :] @ pt_dst[:, :, None])[:, 0, 0])
    surf, reliable = _interp_depths(dst.depth, land[:, 0], land[:, 1])
    status[idx] = np.where(
        reliable,
        np.where(expected > surf * (1.0 + OCCLUSION_REL_TOL), OCCLUDED, VISIBLE),
        np.where(dst.camera.contains(land), OCCLUDED, OUT_OF_VIEW))
    return uv, status


# ---------------------------------------------------------------------------
# depth raster I/O: 16-byte header (magic, width, height), float32 LE pixels

_DEPTH_MAGIC = b"DEPTHF32"
_DEPTH_HEADER = struct.Struct("<8sII")


def _check_depth(path, vals: np.ndarray, w: int) -> None:
    """Refuse a raster's first pixel not above 0 (NaN too) or finite beyond
    float32's range; inf (a miss) passes."""
    top = np.finfo(np.float32).max
    bad = ~(vals > 0.0) | ((vals > top) & (vals != np.inf))
    if bad.any():
        y, x = divmod(int(bad.argmax()), w)
        val = vals[y * w + x]
        raise ValueError(f"{path}: depth raster[{y}, {x}]: {val}, expected "
                         + (f"at most {top!s}" if val > 0.0 else "above 0"))


def write_depth(path, depth: np.ndarray) -> None:
    """Write a depth raster; refuse, writing nothing, what read_depth refuses
    and a finite depth that float32 would round to a miss."""
    h, w = depth.shape
    _check_depth(path, depth.reshape(-1), w)
    Path(path).write_bytes(_DEPTH_HEADER.pack(_DEPTH_MAGIC, w, h)
                           + depth.astype("<f4").tobytes())


def read_depth(path) -> np.ndarray:
    """Read a depth raster; a foreign or cut header, a short raster,
    trailing bytes or a pixel that is not a positive depth or ``inf`` (a
    miss) raise ValueError naming the file and the field."""
    buf = Path(path).read_bytes()
    try:
        _need(buf, 0, _DEPTH_HEADER.size, "depth header")
        magic, w, h = _DEPTH_HEADER.unpack_from(buf, 0)
        if magic != _DEPTH_MAGIC:
            raise ValueError("depth header: not a depth raster file")
        _need(buf, _DEPTH_HEADER.size, 4 * w * h, "depth raster")
        if len(buf) - _DEPTH_HEADER.size > 4 * w * h:
            raise ValueError(f"{len(buf) - _DEPTH_HEADER.size - 4 * w * h} "
                             f"trailing bytes after the depth raster")
        vals = np.frombuffer(buf, "<f4", w * h, _DEPTH_HEADER.size)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    _check_depth(path, vals, w)
    return vals.astype(np.float64).reshape(h, w)


# ---------------------------------------------------------------------------
# dataset generation: one scene, a closed training orbit, offset test views


# Each scene spec field, declared once as (default, kind, entries, low,
# strict): default_scene_spec copies the defaults and _check_spec checks
# every row through image._check_fields.
_SPEC_FIELDS = {
    "name": ("scene", str, None, None, False),
    "kind": ("plane", ("plane", "heightfield"), None, None, False),
    "seed": (0, int, None, 0, False),
    "n_frames": (30, int, None, 1, False),
    "resolution": ([160, 120], int, 2, 3, False),
    "focal": (170.0, float, None, 0, True),
    "distance": (1.6, float, None, 0, True),
    "elevation_deg": (65.0, float, None, None, False),
    "orbit_azimuth_amp_deg": (45.0, float, None, None, False),
    "orbit_elevation_amp_deg": (3.0, float, None, None, False),
    "orbit_distance_amp": (0.08, float, None, None, False),
    "test_azimuths_deg": ([0.0, 20.0, -20.0, 35.0, -35.0, 10.0], float,
                          0, None, False),
    "test_elevations_deg": ([46.0, 44.0, 46.5, 45.0, 44.5, 46.0], float,
                            "test_azimuths_deg", None, False),
    "test_distance_scale": ([1.0, 1.05, 0.95, 1.1, 1.0, 1.05], float,
                            "test_azimuths_deg", 0, True),
    "min_test_offset_deg": (15.0, float, None, 0, False),
    "texture_size": (256, int, None, 2, False),
    "texture_octaves": (5, int, None, 1, False),
    "texels_per_meter": (96.0, float, None, 0, True),
    "heightfield_grid": (12, int, None, 6, False),
    "heightfield_amplitude": (0.12, float, None, 0, False),
    "extent": (2.5, float, None, 0, True),
    "contrast_a_range": ([0.85, 1.1], float, 2, 0, True),
    "contrast_b_range": ([-0.04, 0.04], float, 2, None, False),
    "noise_sigma": (0.005, float, None, 0, False),
}


def default_scene_spec(name: str = "scene", kind: str = "plane",
                       seed: int = 0) -> dict:
    """Fully populated scene description, a fresh copy of the defaults in
    ``_SPEC_FIELDS``; every field may be overridden."""
    return {**_field_defaults(_SPEC_FIELDS), "name": name, "kind": kind,
            "seed": int(seed)}


def _check_spec(spec: dict) -> None:
    """ValueError naming the first field of a scene spec (defaults merged
    in) that its row of ``_SPEC_FIELDS`` refuses, a contrast range whose
    ends are out of order, or a test view closer to the training orbit than
    ``min_test_offset_deg``."""
    _check_fields(spec, _SPEC_FIELDS, "scene spec")
    for key in ("contrast_a_range", "contrast_b_range"):
        lo, hi = spec[key]
        if lo > hi:
            raise ValueError(f"{key}: {spec[key]}, expected the low end first")
    # every view looks at the origin, so its direction is its eye's
    train = np.array(_orbit_eyes(spec))
    train /= np.linalg.norm(train, axis=1, keepdims=True)
    for i, eye in enumerate(_test_eyes(spec)):
        worst = min(float(np.max(train @ (eye / np.linalg.norm(eye)))), 1.0)
        if worst > math.cos(math.radians(spec["min_test_offset_deg"])):
            raise ValueError(
                f"test_azimuths_deg[{i}]: {spec['test_azimuths_deg'][i]!r}, "
                f"expected a view at least {spec['min_test_offset_deg']} deg "
                f"from the training orbit (it is "
                f"{math.degrees(math.acos(worst)):.1f} deg)")


def _spec_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *tags)))


def build_scene(spec: dict) -> SceneModel:
    """Construct the surface and texture a spec describes (deterministic)."""
    seed = int(spec["seed"])
    tex = make_texture(_spec_rng(seed, 0), spec["texture_size"],
                       spec["texture_octaves"])
    if spec["kind"] == "plane":
        surface = PlaneSurface()
    elif spec["kind"] == "heightfield":
        g = spec["heightfield_grid"]
        amp = spec["heightfield_amplitude"]
        coefs = (_spec_rng(seed, 1).random((g, g)) - 0.5) * 2.0 * amp
        surface = HeightfieldSurface(coefs, spec["extent"])
    else:
        raise ValueError(f"unknown surface kind {spec['kind']!r}")
    return SceneModel(surface, tex, spec["texels_per_meter"])


def _spherical_eye(distance: float, azimuth: float, elevation: float) -> np.ndarray:
    return distance * np.array([
        math.cos(elevation) * math.cos(azimuth),
        math.cos(elevation) * math.sin(azimuth),
        math.sin(elevation),
    ])


def _orbit_eyes(spec: dict) -> list:
    """Eyes of the closed training trajectory: smooth azimuth, elevation
    and distance sway."""
    n = spec["n_frames"]
    el0 = math.radians(spec["elevation_deg"])
    eyes = []
    for k in range(n):
        ph = 2.0 * math.pi * k / n
        az = math.radians(spec["orbit_azimuth_amp_deg"]) * math.sin(ph)
        el = el0 + math.radians(spec["orbit_elevation_amp_deg"]) * math.cos(ph)
        d = spec["distance"] * (1.0 + spec["orbit_distance_amp"] * math.cos(ph))
        eyes.append(_spherical_eye(d, az, el))
    return eyes


def _test_eyes(spec: dict) -> list:
    """Eyes of the held-out viewpoints."""
    return [_spherical_eye(spec["distance"] * ds, math.radians(az_d),
                           math.radians(el_d))
            for az_d, el_d, ds in zip(spec["test_azimuths_deg"],
                                      spec["test_elevations_deg"],
                                      spec["test_distance_scale"])]


def orbit_poses(spec: dict) -> list[Pose]:
    """Closed training trajectory, looking at the origin."""
    return [look_at(eye, np.zeros(3)) for eye in _orbit_eyes(spec)]


def test_poses(spec: dict) -> list[Pose]:
    """Held-out viewpoints, looking at the origin; :func:`_check_spec`
    keeps each offset from every training viewpoint."""
    return [look_at(eye, np.zeros(3)) for eye in _test_eyes(spec)]


def _camera(spec: dict) -> PinholeCamera:
    w, h = spec["resolution"]
    return PinholeCamera(spec["focal"], (w - 1) / 2.0, (h - 1) / 2.0, w, h)


def _draw_photometric(spec: dict, rng: np.random.Generator) -> dict:
    a0, a1 = spec["contrast_a_range"]
    b0, b1 = spec["contrast_b_range"]
    return {
        "a": float(rng.uniform(a0, a1)),
        "b": float(rng.uniform(b0, b1)),
        "noise_sigma": float(spec["noise_sigma"]),
    }


def generate_dataset(spec: dict, out_dir) -> "SceneDataset":
    """Render a full scene dataset to disk and return it.

    Writes 8-bit PGM images, float32 depth rasters, and a JSON manifest.
    Everything is derived from ``spec`` (including its seed), so the same
    spec regenerates byte-identical files.
    """
    spec = {**default_scene_spec(), **spec}
    _check_spec(spec)
    out = Path(out_dir)
    (out / "frames").mkdir(parents=True, exist_ok=True)
    (out / "tests").mkdir(parents=True, exist_ok=True)

    scene = build_scene(spec)
    cam = _camera(spec)
    seed = int(spec["seed"])

    frames, tests = [], []
    manifest_frames, manifest_tests = [], []
    for role, poses, store, records, tag in (
        ("frame", orbit_poses(spec), frames, manifest_frames, 2),
        ("test", test_poses(spec), tests, manifest_tests, 3),
    ):
        for i, pose in enumerate(poses):
            photo = _draw_photometric(spec, _spec_rng(seed, tag, i, 0))
            rel_img = f"{role}s/{role}_{i:03d}.pgm"
            rel_depth = f"{role}s/{role}_{i:03d}.depth"
            try:
                view = render_view(scene, cam, pose, photo,
                                   rng=_spec_rng(seed, tag, i, 1))
            except RenderError as exc:
                raise RenderError(f"{out / rel_img}: {exc}") from None
            write_pgm(view.image, out / rel_img)
            write_depth(out / rel_depth, view.depth)
            store.append(view)
            records.append({
                "image": rel_img,
                "depth": rel_depth,
                "pose": pose.to_config(),
                "photometric": photo,
            })

    manifest = {
        "format_version": 1,
        "spec": spec,
        "camera": cam.to_config(),
        "frames": manifest_frames,
        "tests": manifest_tests,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return SceneDataset(spec, cam, frames, tests, manifest)


@dataclass
class SceneDataset:
    """A generated scene: training frames, held-out test views, manifest."""

    spec: dict
    camera: PinholeCamera
    frames: list
    tests: list
    manifest: dict

    @property
    def name(self) -> str:
        return self.spec["name"]


def _parse_pose(rec, where: str) -> Pose:
    pose = _json_field(rec, "pose", dict, where)
    where += ".pose"
    r = _json_list(_json_field(pose, "r", list, where), f"{where}.r", 3)
    for k, row in enumerate(r):
        _json_list(row, f"{where}.r[{k}]", 3, float)
    _json_list(_json_field(pose, "t", list, where), f"{where}.t", 3, float)
    try:
        return Pose.from_config(pose)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_manifest(manifest, root: Path) -> tuple[dict, PinholeCamera, dict]:
    """Spec, camera and per-role view records ``(image, depth, pose,
    photometric)`` of a parsed ``manifest.json`` in ``root``, each raster a
    ``(field, name)`` pair naming a file under ``root``; ValueError naming
    the field on any malformed entry."""
    version = _json_field(manifest, "format_version", int)
    if version != 1:
        raise ValueError(f"format_version: {version}, expected 1")
    spec = _json_field(manifest, "spec", dict)
    cfg = _json_field(manifest, "camera", dict)
    for key in ("focal", "cx", "cy", "width", "height"):
        _json_field(cfg, key, int if key in ("width", "height") else float,
                    "camera")
    try:
        cam = PinholeCamera.from_config(cfg)
    except ValueError as exc:
        raise ValueError(f"camera: {exc}") from None
    views = {}
    for role in ("frames", "tests"):
        views[role] = []
        for i, rec in enumerate(_json_field(manifest, role, list)):
            where = f"{role}[{i}]"
            files = []
            for key in ("image", "depth"):
                name = _json_field(rec, key, str, where)
                if (Path(name).is_absolute() or ".." in Path(name).parts
                        or not (root / name).is_file()):
                    raise ValueError(f"{where}.{key}: {name!r}, expected a "
                                     f"file in the dataset directory")
                files.append((f"{where}.{key}", name))
            pose = _parse_pose(rec, where)
            photo = rec.get("photometric")
            if photo is not None and not isinstance(photo, dict):
                raise ValueError(f"{where}.photometric: expected dict, got "
                                 f"{type(photo).__name__}")
            views[role].append((*files, pose, photo))
    return spec, cam, views


def load_dataset(path) -> SceneDataset:
    """Read back a dataset written by :func:`generate_dataset`.

    Images roundtrip exactly (they are quantized before writing); depth comes
    back float32-rounded, adequate for correspondence at far better than a
    tenth of a pixel. A malformed ``manifest.json`` (a missing or wrongly
    typed field, a pose that is not finite numbers of the right shape, a
    view path that names no file inside the dataset directory, or a foreign
    ``format_version``) raises ValueError naming the file and the field
    before any raster is read, and so does an image or depth map of
    another size than the camera's, with both sizes.
    """
    root = Path(path)
    file = root / "manifest.json"
    try:
        manifest = json.loads(file.read_text())
        spec, cam, views = _parse_manifest(manifest, root)
    except ValueError as exc:
        raise ValueError(f"{file}: {exc}") from None

    def load(where, name, read):
        data = read(root / name)
        if data.shape != (cam.height, cam.width):
            raise ValueError(f"{file}: {where}: {name!r} is {data.shape[1]}x"
                             f"{data.shape[0]}, expected the camera's "
                             f"{cam.width}x{cam.height}")
        return data

    def load_views(records):
        return [RenderedView(load(*image, read_pgm), load(*depth, read_depth),
                             cam, pose, photo)
                for image, depth, pose, photo in records]

    return SceneDataset(spec, cam, load_views(views["frames"]),
                        load_views(views["tests"]), manifest)
