"""Grayscale images, pyramids, gradients, and affine contrast.

Images are row-major float64 arrays indexed ``data[y, x]`` with intensities
in [0, 1]. Positions are ``(x, y)`` pairs; pixel centers sit at integer
coordinates. Gradient orientation is the angle of the gradient vector with
the +x axis, in [0, 2*pi); +y points down the rows.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GrayImage",
    "ImagePyramid",
    "GradientField",
    "AffineContrast",
    "apply_contrast",
    "compute_gradient",
    "build_pyramid",
    "bilinear_sample",
    "level_to_base",
    "base_to_level",
    "read_pgm",
    "write_pgm",
]

MAX_PYRAMID_LEVELS = 5
TWO_PI = 2.0 * math.pi


class GrayImage:
    """Single-channel intensity image with values in [0, 1].

    Contrast transforms can push values outside the unit interval; such
    images are constructed with ``unit_range=False`` and are accepted by all
    downstream operations (gradients, pyramids, descriptors).
    """

    __slots__ = ("data",)

    def __init__(self, data, unit_range: bool = True):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected 2-D intensity data, got shape {arr.shape}")
        if arr.shape[0] < 3 or arr.shape[1] < 3:
            raise ValueError(
                f"image must be at least 3x3, got {arr.shape[1]}x{arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("image intensities must be finite")
        if unit_range and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("image intensities must lie in [0, 1]")
        self.data = arr

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @classmethod
    def from_u8(cls, arr: np.ndarray) -> "GrayImage":
        """Wrap an 8-bit array, normalizing intensities to [0, 1]."""
        return cls(np.asarray(arr, dtype=np.float64) / 255.0)

    def to_u8(self) -> np.ndarray:
        return np.clip(np.rint(self.data * 255.0), 0, 255).astype(np.uint8)


@dataclass
class ImagePyramid:
    """Discrete scale-space: level k is the base downsampled by 2**k."""

    levels: list

    def __post_init__(self):
        if not 1 <= len(self.levels) <= MAX_PYRAMID_LEVELS:
            raise ValueError(f"pyramid must have 1..{MAX_PYRAMID_LEVELS} levels")
        for k in range(1, len(self.levels)):
            prev, cur = self.levels[k - 1], self.levels[k]
            if cur.height != -(-prev.height // 2) or cur.width != -(-prev.width // 2):
                raise ValueError("pyramid level sizes must halve (ceil) each step")

    def __len__(self) -> int:
        return len(self.levels)

    def level(self, k: int) -> GrayImage:
        return self.levels[k]

    def layout(self):
        """``(pixels, (widths, heights, offsets))``: every level's row-major
        pixels end to end, and each level's size and start in them. Built per
        call, so the pyramid holds no second copy of its pixels."""
        hs, ws = np.array([lv.shape for lv in self.levels], dtype=np.intp).T
        offsets = np.concatenate([[0], np.cumsum(hs * ws)[:-1]])
        return (np.concatenate([lv.data.ravel() for lv in self.levels]),
                (ws, hs, offsets))


class GradientField:
    """Per-pixel image gradient: vector, magnitude, and orientation.

    Components are (h, w) for one image or (..., h, w) for a stack of
    equally sized images. ``angle`` lies in [0, 2*pi) and is set to 0 where
    the magnitude is exactly zero; ``valid`` marks the pixels of nonzero
    magnitude. The stored vector satisfies ``(gx, gy) = magnitude *
    (cos(angle), sin(angle))`` wherever valid.
    """

    __slots__ = ("gx", "gy", "magnitude", "angle", "valid")

    def __init__(self, gx: np.ndarray, gy: np.ndarray):
        gx = np.asarray(gx, dtype=np.float64)
        gy = np.asarray(gy, dtype=np.float64)
        if gx.shape != gy.shape or gx.ndim < 2:
            raise ValueError("gradient components must be matching (..., h, w) "
                             "arrays")
        self.gx = gx
        self.gy = gy
        self.magnitude = np.hypot(gx, gy)
        # np.mod(ang, 2pi) for ang in [-pi, pi]: ang + 2pi below zero, and
        # ang itself otherwise, with -0.0 made +0.0 by the added zero
        ang = np.arctan2(gy, gx)
        ang = np.where(ang < 0.0, ang + TWO_PI, ang + 0.0)
        ang[ang >= TWO_PI] = 0.0  # guard rounding of tiny negative angles
        self.valid = self.magnitude > 0.0
        ang[~self.valid] = 0.0
        self.angle = ang

    @property
    def shape(self) -> tuple[int, int]:
        return self.magnitude.shape


def _central_differences(a: np.ndarray):
    """(gx, gy) of an (..., h, w) array by central differences over its last
    two axes, one-sided at the borders."""
    gx = np.empty_like(a)
    gy = np.empty_like(a)
    gx[..., 1:-1] = (a[..., 2:] - a[..., :-2]) * 0.5
    gx[..., 0] = a[..., 1] - a[..., 0]
    gx[..., -1] = a[..., -1] - a[..., -2]
    gy[..., 1:-1, :] = (a[..., 2:, :] - a[..., :-2, :]) * 0.5
    gy[..., 0, :] = a[..., 1, :] - a[..., 0, :]
    gy[..., -1, :] = a[..., -1, :] - a[..., -2, :]
    return gx, gy


def compute_gradient(img: GrayImage) -> GradientField:
    """Image gradient by central differences (one-sided at the borders)."""
    return GradientField(*_central_differences(img.data))


def _box_halve(a: np.ndarray) -> np.ndarray:
    """2x2 box filter followed by 2-subsampling; partial boxes at odd edges."""
    h, w = a.shape
    sums = np.add.reduceat(np.add.reduceat(a, np.arange(0, h, 2), axis=0),
                           np.arange(0, w, 2), axis=1)
    rows = np.minimum(np.arange(0, h, 2) + 2, h) - np.arange(0, h, 2)
    cols = np.minimum(np.arange(0, w, 2) + 2, w) - np.arange(0, w, 2)
    return sums / np.outer(rows, cols)


def build_pyramid(img: GrayImage, levels: int) -> ImagePyramid:
    """Box-filtered half-resolution pyramid with ``levels`` levels (base included)."""
    if not 1 <= levels <= MAX_PYRAMID_LEVELS:
        raise ValueError(f"levels must be in 1..{MAX_PYRAMID_LEVELS}")
    need = 3 * 2 ** (levels - 1)
    if img.width < need or img.height < need:
        raise ValueError(
            f"image too small for {levels} pyramid levels: need {need} px per side"
        )
    out = [img]
    for _ in range(levels - 1):
        out.append(GrayImage(_box_halve(out[-1].data), unit_range=False))
    return ImagePyramid(out)


def level_to_base(xy, level):
    """Map pixel coordinates (..., 2) at pyramid ``level`` to base-resolution
    coordinates; ``level`` is one integer or one per row, shaped like
    ``xy[..., 0]`` or broadcasting to it.

    A level-k pixel covers a 2**k block of base pixels; its center maps to
    the center of that block.
    """
    s = np.ldexp(1.0, level)[..., None]
    return np.asarray(xy, dtype=np.float64) * s + (s - 1.0) / 2.0


def base_to_level(xy, level):
    """Inverse of :func:`level_to_base`."""
    s = np.ldexp(1.0, level)[..., None]
    return (np.asarray(xy, dtype=np.float64) - (s - 1.0) / 2.0) / s


# ---------------------------------------------------------------------------
# contrast transforms


class AffineContrast:
    """v -> a*v + b with a > 0. Output is not clipped."""

    def __init__(self, a: float, b: float = 0.0):
        if a <= 0.0:
            raise ValueError("affine contrast requires a > 0 to stay monotone")
        self.a = float(a)
        self.b = float(b)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.a * values + self.b


def apply_contrast(img: GrayImage, transform) -> GrayImage:
    """Apply a monotone range transform to an image; the output is returned
    unclipped (it may exceed [0, 1])."""
    return GrayImage(transform.apply(img.data), unit_range=False)


# ---------------------------------------------------------------------------
# sampling


def bilinear_sample(data: np.ndarray, xy: np.ndarray, clamp: bool = True) -> np.ndarray:
    """Bilinearly sample ``data[y, x]`` at float positions (..., 2).

    Coordinates are clamped to the valid interpolation domain, so border
    pixels extend outward. Pass ``clamp=False`` to require in-bounds input.
    """
    h, w = data.shape
    xy = np.asarray(xy, dtype=np.float64)
    return _bilinear(np.asarray(data, dtype=np.float64).ravel(), xy[..., 0],
                     xy[..., 1], w, h, 0, clamp)


def _bilinear(flat: np.ndarray, x, y, w, h, offset, clamp: bool = True):
    """:func:`bilinear_sample` at ``(x, y)`` of row-major images stored end
    to end in ``flat``: each sample reads the ``h`` x ``w`` image starting at
    ``offset``. Bounds, ``x`` and ``y`` are scalars or broadcast arrays."""
    if clamp:
        x = np.clip(x, 0.0, w - 1.0)
        y = np.clip(y, 0.0, h - 1.0)
    elif np.any((x < 0) | (x > w - 1) | (y < 0) | (y > h - 1)):
        raise ValueError("sample position outside image bounds")
    x0 = np.minimum(np.floor(x), w - 2).astype(np.intp)
    y0 = np.minimum(np.floor(y), h - 2).astype(np.intp)
    fx = x - x0
    fy = y - y0
    gx = 1 - fx
    gy = 1 - fy
    # flat gathers read the elements data[y0, x0] ... data[y0 + 1, x0 + 1];
    # the in-place products and sums keep v00*gx*gy + v01*fx*gy + ... in
    # that order, without a temporary per term
    idx = y0 * w + offset + x0
    out = flat.take(idx)
    out *= gx
    out *= gy
    term = flat.take(idx + 1)
    term *= fx
    term *= gy
    out += term
    idx += w
    term = flat.take(idx)
    term *= gx
    term *= fy
    out += term
    idx += 1
    term = flat.take(idx)
    term *= fx
    term *= fy
    out += term
    return out


# ---------------------------------------------------------------------------
# PGM I/O (binary, 8-bit)


_PGM_FIELDS = ("magic", "width", "height", "maxval")


def _need(buf: bytes, offset: int, size: int, field: str) -> None:
    """Raise ValueError naming ``field`` unless ``size`` bytes remain."""
    if len(buf) - offset < size:
        raise ValueError(f"{field} cut short: needs {size} bytes at offset "
                         f"{offset}, {max(len(buf) - offset, 0)} left")


def _json_field(rec, key: str, kind, where: str = "", low=None):
    """``rec[key]`` of a parsed JSON document; ValueError naming the field
    when it is missing or not of ``kind`` (a bool is not a number). An int
    or float ``kind`` is a :func:`_json_number` of at least ``low``."""
    path = f"{where}.{key}" if where else key
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: not a JSON object" if where
                         else "not a JSON object")
    if key not in rec:
        raise ValueError(f"{path}: missing")
    val = rec[key]
    if kind in (int, float):
        return _json_number(val, path, kind, low)
    if not isinstance(val, kind) or isinstance(val, bool) != (kind is bool):
        names = kind if isinstance(kind, tuple) else (kind,)
        raise ValueError(f"{path}: expected {' or '.join(k.__name__ for k in names)}, "
                         f"got {type(val).__name__}")
    return val


def _json_number(val, path: str, kind=float, low=None, strict=False):
    """``val`` if it is a finite JSON number, an integer when ``kind`` is
    int, of at least ``low`` (above it when ``strict``); else ValueError
    naming ``path``."""
    if (not isinstance(val, (int, float)) or isinstance(val, bool)
            or not (isinstance(val, int) or kind is float and math.isfinite(val))):
        what = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{path}: {val!r}, expected {what}")
    if low is not None and (val <= low if strict else val < low):
        raise ValueError(f"{path}: {val!r}, expected "
                         f"{'above' if strict else 'at least'} {low}")
    return val


def _json_list(val, path: str, entries=None, kind=None, low=None,
               strict=False) -> list:
    """``val`` if it is a JSON list of ``entries`` values (any number when
    None, any but none when 0), each a :func:`_json_number` of ``kind``,
    ``low`` and ``strict`` unless ``kind`` is None; else ValueError naming
    ``path`` or the entry."""
    if not isinstance(val, list):
        raise ValueError(f"{path}: expected list, got {type(val).__name__}")
    if entries == 0 and not val:
        raise ValueError(f"{path}: empty")
    if entries and len(val) != entries:
        raise ValueError(f"{path}: {len(val)} entries, expected {entries}")
    if kind is not None:
        for i, v in enumerate(val):
            _json_number(v, f"{path}[{i}]", kind, low, strict)
    return val


def _field_defaults(table: dict) -> dict:
    """A fresh copy of the defaults declared by a :func:`_check_fields` table."""
    return {key: _field_defaults(row) if isinstance(row, dict)
            else copy.deepcopy(row[0]) for key, row in table.items()}


def _check_fields(doc: dict, table: dict, what: str, where: str = "") -> None:
    """ValueError naming the first field of ``doc`` (defaults merged in) that
    ``table`` does not declare or whose row refuses its value.

    A row is ``(default, kind, entries, low, strict)``, or a nested table
    for a JSON object. ``kind`` is str, a tuple of the allowed values, int
    or float (each number a :func:`_json_number` with ``low`` and
    ``strict``), or None for a value checked elsewhere. ``entries`` is None
    for one value, else the length of a list: a count, the name of the field
    whose list it matches, or 0 for any length but none."""
    prefix = f"{where}." if where else ""
    for key in doc:
        if key not in table:
            raise ValueError(f"{prefix}{key}: not a {what} field")
    for key, row in table.items():
        path = prefix + key
        if isinstance(row, dict):
            _check_fields(_json_field(doc, key, dict, where), row, key, path)
            continue
        _, kind, entries, low, strict = row
        val = doc[key]
        if kind is str:
            _json_field(doc, key, str, where)
        elif isinstance(kind, tuple) and val not in kind:
            raise ValueError(f"{path}: {val!r}, expected one of {kind}")
        elif isinstance(entries, str):
            count = len(_json_field(doc, entries, list, where))
            if len(_json_list(val, path, None, kind, low, strict)) != count:
                raise ValueError(f"{path}: {len(val)} entries, {entries} "
                                 f"has {count}")
        elif entries is not None:
            _json_list(val, path, entries, kind, low, strict)
        elif kind in (int, float):
            _json_number(val, path, kind, low, strict)


def _read_pgm_tokens(raw: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated header tokens, skipping comments."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(raw):
            raise ValueError(f"PGM header cut short: no {_PGM_FIELDS[len(tokens)]}")
        c = raw[i : i + 1]
        if c == b"#":
            while i < len(raw) and raw[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j : j + 1].isspace():
                j += 1
            tokens.append(raw[i:j])
            i = j
    return tokens, i + 1  # single whitespace after maxval precedes the raster


def _pgm_size(token: bytes, field: str) -> int:
    if not token.isdigit():
        raise ValueError(f"PGM {field}: {token!r} is not a decimal integer")
    return int(token)


def read_pgm(path) -> GrayImage:
    """Read an 8-bit binary (P5) PGM file.

    A foreign or cut header, a short raster, trailing bytes or an image
    smaller than 3x3 raise ValueError naming the file and the field.
    """
    raw = Path(path).read_bytes()
    try:
        tokens, offset = _read_pgm_tokens(raw, 4)
        if tokens[0] != b"P5":
            raise ValueError("PGM magic: only binary (P5) PGM files are supported")
        w, h, maxval = (_pgm_size(t, f) for t, f in zip(tokens[1:], _PGM_FIELDS[1:]))
        if maxval != 255:
            raise ValueError("PGM maxval: only 8-bit PGM files are supported")
        _need(raw, offset, w * h, "PGM raster")
        if len(raw) - offset > w * h:
            raise ValueError(f"{len(raw) - offset - w * h} trailing bytes after "
                             f"the PGM raster")
        pixels = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=offset)
        return GrayImage.from_u8(pixels.reshape(h, w))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_pgm(img: GrayImage, path) -> None:
    """Write an image as an 8-bit binary (P5) PGM file."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.to_u8().tobytes())
