"""Corner detection and short-baseline tracking across a frame sequence.

Detection is a segment-test corner detector on every pyramid level of the
first frame; tracking is translational Lucas-Kanade (inverse compositional)
run independently per level, with gain/bias-matched windows so smooth
illumination changes between frames do not break brightness constancy.
Positions are kept in the coordinates of the track's own pyramid level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .image import (GrayImage, ImagePyramid, _central_differences,
                    bilinear_sample, build_pyramid, read_pgm, write_pgm)

__all__ = [
    "TrackerConfig",
    "Track",
    "detect_corners",
    "fast_score_map",
    "auto_threshold",
    "klt_step",
    "run_tracker",
    "attach_patches",
    "extract_patch",
    "normalize_patch",
    "quantized_patch",
    "save_tracks",
    "load_tracks",
]

# circle of radius 3 around the candidate, (dx, dy), starting at 12 o'clock
FAST_OFFSETS = np.array([
    (0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3),
])
_COND_LIMIT = 1e4
_CONVERGE = 1e-4


@dataclass
class TrackerConfig:
    n_features: int = 400
    levels: int = 3
    window: int = 11
    max_iters: int = 30
    reject_thresh: float = 0.04
    nms_radius: float = 4.0
    arc: int = 9
    threshold_range: tuple = (1.0 / 255.0, 0.5)
    count_tol: float = 0.2
    min_border: int = 13

    def __post_init__(self):
        if self.window % 2 == 0 or self.window < 5:
            raise ValueError("tracking window must be odd and at least 5")
        if not 1 <= self.arc <= 16:
            raise ValueError("segment-test arc length must be in 1..16")


@dataclass
class Track:
    """One tracked point: per-frame positions at a fixed pyramid level."""

    id: int
    level: int
    positions: list = field(default_factory=list)
    alive: bool = True
    patches: list = None

    @property
    def length(self) -> int:
        return len(self.positions)


# ---------------------------------------------------------------------------
# detection


def fast_score_map(img: GrayImage, threshold: float, arc: int = 9):
    """Segment-test corner mask and scores for one image.

    A pixel passes when some ``arc`` contiguous circle pixels are all
    brighter than center + threshold or all darker than center - threshold.
    The score is the total intensity excess beyond the threshold, for
    whichever polarity is stronger. Returns (mask, score) over the full
    image; a 3-pixel border never fires.
    """
    a = img.data
    h, w = a.shape
    if h < 7 or w < 7:
        return np.zeros((h, w), bool), np.zeros((h, w))
    center = a[3:h - 3, 3:w - 3]
    circle = np.empty((16,) + center.shape)
    for k, (dx, dy) in enumerate(FAST_OFFSETS):
        circle[k] = a[3 + dy:h - 3 + dy, 3 + dx:w - 3 + dx]

    brighter = circle > center + threshold
    darker = circle < center - threshold
    bright_arc = brighter.copy()
    dark_arc = darker.copy()
    for k in range(1, arc):
        bright_arc &= np.roll(brighter, -k, axis=0)
        dark_arc &= np.roll(darker, -k, axis=0)
    mask_in = bright_arc.any(axis=0) | dark_arc.any(axis=0)

    excess_b = np.maximum(circle - center - threshold, 0.0).sum(axis=0)
    excess_d = np.maximum(center - threshold - circle, 0.0).sum(axis=0)
    score_in = np.where(mask_in, np.maximum(excess_b, excess_d), 0.0)

    mask = np.zeros((h, w), bool)
    score = np.zeros((h, w))
    mask[3:h - 3, 3:w - 3] = mask_in
    score[3:h - 3, 3:w - 3] = score_in
    return mask, score


def _nms(xy: np.ndarray, scores: np.ndarray, radius: float):
    """Greedy suppression: strongest first, drop anything within radius."""
    order = np.argsort(-scores, kind="stable")
    kept: list[int] = []
    r2 = radius * radius
    for i in order:
        p = xy[i]
        ok = True
        for j in kept:
            d = p - xy[j]
            if d[0] * d[0] + d[1] * d[1] < r2:
                ok = False
                break
        if ok:
            kept.append(i)
    return np.array(kept, dtype=np.intp)


def _detect_at_threshold(pyr: ImagePyramid, t: float, cfg: TrackerConfig):
    """Corners at one threshold: list of (level, xy, score) after suppression."""
    found = []
    for lvl in range(len(pyr)):
        img = pyr.level(lvl)
        mask, score = fast_score_map(img, t, cfg.arc)
        m = cfg.min_border
        inner = np.zeros_like(mask)
        if img.height > 2 * m and img.width > 2 * m:
            inner[m:img.height - m, m:img.width - m] = True
        mask &= inner
        ys, xs = np.nonzero(mask)
        if xs.size == 0:
            continue
        xy = np.stack([xs, ys], axis=1).astype(np.float64)
        sc = score[ys, xs]
        keep = _nms(xy, sc, cfg.nms_radius)
        for i in keep:
            found.append((lvl, xy[i], sc[i]))
    return found


def auto_threshold(pyr: ImagePyramid, cfg: TrackerConfig):
    """Bisect the detector threshold until the corner count is near target.

    The count decreases monotonically with the threshold, so bisection over
    ``cfg.threshold_range`` lands within ``count_tol`` of ``n_features``
    whenever that is attainable; otherwise the closest endpoint or midpoint
    seen is used. Returns (threshold, detections).
    """
    lo, hi = cfg.threshold_range
    lo_det = _detect_at_threshold(pyr, lo, cfg)
    target = cfg.n_features
    band = (target * (1.0 - cfg.count_tol), target * (1.0 + cfg.count_tol))
    if len(lo_det) <= band[1]:
        return lo, lo_det  # even the most permissive threshold is not too many
    hi_det = _detect_at_threshold(pyr, hi, cfg)
    if len(hi_det) >= band[0]:
        return hi, hi_det

    best = (abs(len(lo_det) - target), lo, lo_det)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        det = _detect_at_threshold(pyr, mid, cfg)
        n = len(det)
        if abs(n - target) < best[0]:
            best = (abs(n - target), mid, det)
        if band[0] <= n <= band[1]:
            return mid, det
        if n > band[1]:
            lo = mid  # too many corners: raise the threshold
        else:
            hi = mid
    return best[1], best[2]


def detect_corners(pyr: ImagePyramid, cfg: TrackerConfig):
    """Up to ``n_features`` corners across all levels, strongest first."""
    _, det = auto_threshold(pyr, cfg)
    det.sort(key=lambda d: -d[2])
    return det[:cfg.n_features]


# ---------------------------------------------------------------------------
# tracking


def extract_patch(img: GrayImage, xy, size: int) -> np.ndarray:
    """size x size bilinear window centered on xy (border-clamped)."""
    half = (size - 1) / 2.0
    offs = np.arange(size) - half
    gx, gy = np.meshgrid(xy[0] + offs, xy[1] + offs)
    return bilinear_sample(img.data, np.stack([gx, gy], axis=-1))


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

def klt_step(prev: GrayImage, nxt: GrayImage, pos, cfg: TrackerConfig,
             guess=None):
    """Track one point from ``prev`` to ``nxt``; returns the new (x, y) or None.

    Inverse-compositional translational alignment of a window around ``pos``.
    Both windows are shifted to zero mean and the moving window is gain
    matched to the template, so affine lighting changes cancel. A point is
    dropped when the template is degenerate (flat or one-dimensional, by a
    condition-number test), when it wanders out of the image, or when the
    converged residual stays large.
    """
    pos = np.asarray(pos, dtype=np.float64)
    half = (cfg.window - 1) / 2.0
    h, w = prev.shape

    def in_bounds(p):
        return (half <= p[0] <= w - 1 - half) and (half <= p[1] <= h - 1 - half)

    if not in_bounds(pos):
        return None
    t = extract_patch(prev, pos, cfg.window)
    t_mean, t_std = t.mean(), t.std()
    if t_std < 1e-9:
        return None
    tz = t - t_mean
    gx, gy = _central_differences(t)
    h00 = np.sum(gx * gx)
    h01 = np.sum(gx * gy)
    h11 = np.sum(gy * gy)
    tr = h00 + h11
    det = h00 * h11 - h01 * h01
    disc = max(tr * tr / 4.0 - det, 0.0) ** 0.5
    lam_min = tr / 2.0 - disc
    lam_max = tr / 2.0 + disc
    if lam_min <= 0.0 or lam_max / lam_min > _COND_LIMIT:
        return None
    inv00, inv01, inv11 = h11 / det, -h01 / det, h00 / det

    cur = np.array(guess, dtype=np.float64) if guess is not None else pos.copy()
    resid = None
    for _ in range(cfg.max_iters):
        if not in_bounds(cur):
            return None
        win = extract_patch(nxt, cur, cfg.window)
        w_std = win.std()
        if w_std < 1e-9:
            return None
        r = (win - win.mean()) * (t_std / w_std) - tz
        bx = np.sum(gx * r)
        by = np.sum(gy * r)
        dx = inv00 * bx + inv01 * by
        dy = inv01 * bx + inv11 * by
        cur[0] -= dx
        cur[1] -= dy
        resid = r
        if dx * dx + dy * dy < _CONVERGE * _CONVERGE:
            break
    if not in_bounds(cur):
        return None
    if resid is None or np.mean(np.abs(resid)) > cfg.reject_thresh:
        return None
    return cur


def run_tracker(images: list, cfg: TrackerConfig = None) -> list:
    """Detect on the first frame and track every corner through the sequence.

    ``images`` are base-resolution frames. A track that fails on any frame is
    marked dead and stops growing, so ``positions`` always covers frames
    0..length-1 contiguously. Position init for each new frame assumes
    constant velocity.
    """
    cfg = cfg or TrackerConfig()
    if not images:
        raise ValueError("no frames to track")
    pyrs = [build_pyramid(img, cfg.levels) for img in images]

    detections = detect_corners(pyrs[0], cfg)
    tracks = [Track(i, lvl, [xy.copy()]) for i, (lvl, xy, _) in enumerate(detections)]

    for f in range(1, len(images)):
        for tr in tracks:
            if not tr.alive:
                continue
            prev = pyrs[f - 1].level(tr.level)
            nxt = pyrs[f].level(tr.level)
            pos = tr.positions[-1]
            if len(tr.positions) >= 2:
                guess = pos + (pos - tr.positions[-2])
            else:
                guess = pos
            new = klt_step(prev, nxt, pos, cfg, guess=guess)
            if new is None:
                tr.alive = False
            else:
                tr.positions.append(new)
    return tracks


def attach_patches(tracks: list, images: list, patch_size: int,
                   levels: int) -> None:
    """Extract and store the normalized patch stack for each live track.

    Stored patches are quantized to 8 bits, matching their on-disk form, so
    anything computed from them is identical in memory and after a reload.
    """
    pyrs = [build_pyramid(img, levels) for img in images]
    for tr in tracks:
        tr.patches = [quantized_patch(pyrs[f].level(tr.level), pos, patch_size)
                      for f, pos in enumerate(tr.positions)]


# ---------------------------------------------------------------------------
# track I/O: JSON manifest plus one PGM per stored patch


def save_tracks(tracks: list, out_dir, meta: dict = None) -> None:
    out = Path(out_dir)
    (out / "patches").mkdir(parents=True, exist_ok=True)
    records = []
    for tr in tracks:
        rec = {
            "id": tr.id,
            "level": tr.level,
            "alive": tr.alive,
            "positions": [[float(p[0]), float(p[1])] for p in tr.positions],
        }
        if tr.patches is not None:
            names = []
            for f, patch in enumerate(tr.patches):
                name = f"patches/t{tr.id:05d}_f{f:03d}.pgm"
                write_pgm(GrayImage(patch), out / name)
                names.append(name)
            rec["patches"] = names
        records.append(rec)
    doc = {"format_version": 1, "meta": meta or {}, "tracks": records}
    (out / "tracks.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_tracks(path) -> tuple[list, dict]:
    root = Path(path)
    doc = json.loads((root / "tracks.json").read_text())
    tracks = []
    for rec in doc["tracks"]:
        tr = Track(rec["id"], rec["level"],
                   [np.array(p, dtype=np.float64) for p in rec["positions"]],
                   rec["alive"])
        if "patches" in rec:
            tr.patches = [read_pgm(root / n).data for n in rec["patches"]]
        tracks.append(tr)
    return tracks, doc["meta"]
