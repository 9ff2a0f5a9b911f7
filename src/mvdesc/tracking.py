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
                    _finite_numbers, _json_field, bilinear_sample, build_pyramid,
                    read_pgm, write_pgm)

__all__ = [
    "TrackerConfig",
    "Track",
    "detect_corners",
    "fast_score_map",
    "auto_threshold",
    "klt_step",
    "klt_steps",
    "run_tracker",
    "attach_patches",
    "extract_patch",
    "normalize_patch",
    "quantized_patch",
    "quantized_patches",
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
    patches: np.ndarray = None  # (frames, p, p) stack, one patch per position

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
    """Greedy suppression: strongest first, drop anything within radius.

    Kept points are bucketed in a grid of ``radius``-sized cells, so each
    candidate is tested only against the kept points of the cells its
    ``[x - radius, x + radius]`` box touches (3 x 3 of them). The cell index
    ``floor(v / radius)`` is monotone in ``v``, so those cells hold every
    kept point within ``radius``. A radius of zero or less keeps everything.
    Coordinates must be finite.
    """
    order = np.argsort(-scores, kind="stable").astype(np.intp)
    if radius <= 0 or order.size == 0:
        return order
    r2 = radius * radius
    lo = np.floor((xy - radius) / radius).astype(np.int64).tolist()
    hi = np.floor((xy + radius) / radius).astype(np.int64).tolist()
    cell = np.floor(xy / radius).astype(np.int64).tolist()
    pts = xy.tolist()
    grid: dict = {}
    kept: list[int] = []
    for i in order.tolist():
        x, y = pts[i]
        (x0, y0), (x1, y1) = lo[i], hi[i]
        if not any((x - px) * (x - px) + (y - py) * (y - py) < r2
                   for cx in range(x0, x1 + 1) for cy in range(y0, y1 + 1)
                   for px, py in grid.get((cx, cy), ())):
            kept.append(i)
            grid.setdefault(tuple(cell[i]), []).append((x, y))
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


def _windows(data: np.ndarray, xy: np.ndarray, size: int) -> np.ndarray:
    """(n, size, size) bilinear windows centered on the rows of xy (n, 2)."""
    offs = np.arange(size) - (size - 1) / 2.0
    grid = np.empty((len(xy), size, size, 2))
    grid[..., 0] = xy[:, 0, None, None] + offs
    grid[..., 1] = xy[:, 1, None, None] + offs[:, None]
    return bilinear_sample(data, grid)


def extract_patch(img: GrayImage, xy, size: int) -> np.ndarray:
    """size x size bilinear window centered on xy (border-clamped)."""
    return _windows(img.data, np.asarray(xy, dtype=np.float64).reshape(1, 2),
                    size)[0]


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


def quantized_patches(data: np.ndarray, xy, size: int) -> np.ndarray:
    """``(n, size, size)`` stack of :func:`quantized_patch` of the image
    ``data`` at every row of ``xy`` (n, 2), each slice bit-identical to it.

    One window gather serves all positions. Every patch is normalized by
    reductions along its own contiguous row of an ``(n, size * size)``
    array, which add its pixels in the order a lone patch does.
    """
    if size < 3:
        raise ValueError(f"patch size must be at least 3, got {size}")
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    rows = _windows(data, xy, size).reshape(len(xy), size * size)
    s = rows.std(axis=1)
    flat = s < 1e-12
    z = rows[~flat]
    z = (z - z.mean(axis=1, keepdims=True)) / s[~flat, None]
    lo = z.min(axis=1, keepdims=True)
    norm = np.full_like(rows, 0.5)
    norm[~flat] = (z - lo) / (z.max(axis=1, keepdims=True) - lo)
    u8 = np.clip(np.rint(norm * 255.0), 0, 255).astype(np.uint8)
    return (u8 / 255.0).reshape(len(xy), size, size)


def klt_steps(prev: GrayImage, nxt: GrayImage, pos, cfg: TrackerConfig,
              guess=None):
    """Track the points ``pos`` (n, 2) from ``prev`` to ``nxt`` together.

    Returns ``(new, ok)``: the new positions (n, 2) and which points were
    tracked; the rows of dropped points are meaningless. ``guess`` (n, 2)
    starts the search, by default at ``pos``.

    Inverse-compositional translational alignment of a window around each
    point. Both windows are shifted to zero mean and the moving window is
    gain matched to the template, so affine lighting changes cancel. A point
    is dropped when its template is degenerate (flat or one-dimensional, by
    a condition-number test), when it wanders out of the image, or when its
    converged residual stays large. Every iteration gathers the windows of
    the points still moving at once; each point sees exactly the arithmetic
    of tracking it alone, because every reduction runs over one contiguous
    window.
    """
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 2)
    cur = (pos.copy() if guess is None
           else np.array(guess, dtype=np.float64).reshape(-1, 2))
    half = (cfg.window - 1) / 2.0
    h, w = prev.shape

    def in_bounds(p):
        return ((half <= p[:, 0]) & (p[:, 0] <= w - 1 - half)
                & (half <= p[:, 1]) & (p[:, 1] <= h - 1 - half))

    idx = np.flatnonzero(in_bounds(pos))
    t = _windows(prev.data, pos[idx], cfg.window)
    t_std = t.std(axis=(1, 2))
    flat = t_std < 1e-9
    idx, t, t_std = idx[~flat], t[~flat], t_std[~flat]
    tz = t - t.mean(axis=(1, 2), keepdims=True)
    gx, gy = _central_differences(t)
    h00 = (gx * gx).sum(axis=(1, 2))
    h01 = (gx * gy).sum(axis=(1, 2))
    h11 = (gy * gy).sum(axis=(1, 2))
    tr = h00 + h11
    det = h00 * h11 - h01 * h01
    # Python's ** is C pow, which the per-point tracker used; np.sqrt differs
    # from it in the last bit for about one value in a thousand
    disc = np.array([max(v, 0.0) ** 0.5 for v in (tr * tr / 4.0 - det).tolist()])
    lam_min = tr / 2.0 - disc
    lam_max = tr / 2.0 + disc
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (lam_min <= 0.0) | (lam_max / lam_min > _COND_LIMIT)
        inv00, inv01, inv11 = h11 / det, -h01 / det, h00 / det
    state = [a[~bad] for a in (idx, tz, gx, gy, t_std, inv00, inv01, inv11)]

    resid = np.full(len(pos), np.nan)
    finished = np.zeros(len(pos), bool)
    for it in range(cfg.max_iters):
        inside = in_bounds(cur[state[0]])
        state = [a[inside] for a in state]
        win = _windows(nxt.data, cur[state[0]], cfg.window)
        w_std = win.std(axis=(1, 2))
        moving = ~(w_std < 1e-9)
        state, win, w_std = [a[moving] for a in state], win[moving], w_std[moving]
        idx, tz, gx, gy, t_std, inv00, inv01, inv11 = state
        r = ((win - win.mean(axis=(1, 2), keepdims=True))
             * (t_std / w_std)[:, None, None] - tz)
        bx = (gx * r).sum(axis=(1, 2))
        by = (gy * r).sum(axis=(1, 2))
        dx = inv00 * bx + inv01 * by
        dy = inv01 * bx + inv11 * by
        cur[idx, 0] -= dx
        cur[idx, 1] -= dy
        done = ((dx * dx + dy * dy < _CONVERGE * _CONVERGE)
                | (it == cfg.max_iters - 1))
        resid[idx[done]] = np.abs(r[done]).mean(axis=(1, 2))
        finished[idx[done]] = True
        state = [a[~done] for a in state]
        if not len(state[0]):
            break
    ok = finished & in_bounds(cur) & ~(resid > cfg.reject_thresh)
    return cur, ok


def klt_step(prev: GrayImage, nxt: GrayImage, pos, cfg: TrackerConfig,
             guess=None):
    """Track one point from ``prev`` to ``nxt``; returns the new (x, y) or
    None. The stack of one of :func:`klt_steps`."""
    new, ok = klt_steps(prev, nxt, pos, cfg, guess)
    return new[0] if ok[0] else None


def run_tracker(images: list, cfg: TrackerConfig = None) -> list:
    """Detect on the first frame and track every corner through the sequence.

    ``images`` are base-resolution frames. A track that fails on any frame is
    marked dead and stops growing, so ``positions`` always covers frames
    0..length-1 contiguously. Position init for each new frame assumes
    constant velocity. The live tracks of one pyramid level are tracked
    together, one :func:`klt_steps` call per frame and level.
    """
    cfg = cfg or TrackerConfig()
    if not images:
        raise ValueError("no frames to track")
    pyrs = [build_pyramid(img, cfg.levels) for img in images]

    detections = detect_corners(pyrs[0], cfg)
    tracks = [Track(i, lvl, [xy.copy()]) for i, (lvl, xy, _) in enumerate(detections)]

    for f in range(1, len(images)):
        for lvl in range(len(pyrs[f])):
            group = [tr for tr in tracks if tr.alive and tr.level == lvl]
            if not group:
                continue
            pos = np.array([tr.positions[-1] for tr in group])
            guess = pos
            if f >= 2:  # every live track holds frames 0..f-1
                guess = pos + (pos - np.array([tr.positions[-2] for tr in group]))
            new, ok = klt_steps(pyrs[f - 1].level(lvl), pyrs[f].level(lvl),
                                pos, cfg, guess)
            for tr, p, good in zip(group, new, ok):
                if good:
                    tr.positions.append(p)
                else:
                    tr.alive = False
    return tracks


def attach_patches(tracks: list, images: list, patch_size: int,
                   levels: int) -> None:
    """Extract and store the normalized ``(frames, p, p)`` patch stack of
    each live track.

    Stored patches are quantized to 8 bits, matching their on-disk form, so
    anything computed from them is identical in memory and after a reload.
    The patches of one frame and pyramid level are cut together, by one
    :func:`quantized_patches` call.
    """
    pyrs = [build_pyramid(img, levels) for img in images]
    stacks = [np.empty((tr.length, patch_size, patch_size)) for tr in tracks]
    for f, pyr in enumerate(pyrs):
        for lvl in range(len(pyr)):
            group = [i for i, tr in enumerate(tracks)
                     if tr.level == lvl and tr.length > f]
            if not group:
                continue
            pats = quantized_patches(pyr.level(lvl).data,
                                     [tracks[i].positions[f] for i in group],
                                     patch_size)
            for i, pat in zip(group, pats):
                stacks[i][f] = pat
    for tr, stack in zip(tracks, stacks):
        tr.patches = stack


# ---------------------------------------------------------------------------
# track I/O: JSON manifest plus one raster of every stored patch


def save_tracks(tracks: list, out_dir, meta: dict = None) -> None:
    """Write ``tracks.json`` and, when any track has patches, ``patches.pgm``:
    a ``p``-wide raster of every patch in record order, into which each such
    record gives its ``first_patch``. Patches that are not one ``(frames, p,
    p)`` stack per track, all of one ``p``, raise ValueError; nothing is
    written then."""
    records, stacks, first, size = [], [], 0, None
    for tr in tracks:
        rec = {
            "id": tr.id,
            "level": tr.level,
            "alive": tr.alive,
            "positions": [[float(p[0]), float(p[1])] for p in tr.positions],
        }
        if tr.patches is not None:
            pats = np.asarray(tr.patches)
            if size is None:
                size = pats.shape[-1] if pats.ndim else 0
            if pats.shape != (tr.length, size, size):
                raise ValueError(f"track {tr.id}: patches of shape {pats.shape}, "
                                 f"expected ({tr.length}, {size}, {size})")
            rec["first_patch"] = first
            first += len(pats)
            stacks.append(pats)
        records.append(rec)
    raster = (GrayImage(np.concatenate(stacks).reshape(first * size, size))
              if stacks else None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if raster is not None:
        write_pgm(raster, out / "patches.pgm")
    doc = {"format_version": 2, "meta": meta or {}, "tracks": records}
    (out / "tracks.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _parse_tracks(doc) -> tuple[list, dict, list]:
    """Tracks, meta and per-track ``first_patch`` (or None) of a parsed
    ``tracks.json``; ValueError naming the field on any malformed entry."""
    version = _json_field(doc, "format_version", int)
    if version != 2:
        raise ValueError(f"format_version: {version}, expected 2; rebuild it "
                         f"with `mvdesc track`")
    meta = _json_field(doc, "meta", dict)
    tracks, firsts = [], []
    for i, rec in enumerate(_json_field(doc, "tracks", list)):
        where = f"tracks[{i}]"
        level = _json_field(rec, "level", int, where)
        if level < 0:
            raise ValueError(f"{where}.level: {level} is negative")
        raw = _json_field(rec, "positions", list, where)
        if not raw:
            raise ValueError(f"{where}.positions: empty")
        positions = [np.array(_finite_numbers(p, 2, f"{where}.positions[{k}]"),
                              dtype=np.float64) for k, p in enumerate(raw)]
        tracks.append(Track(_json_field(rec, "id", int, where), level, positions,
                            _json_field(rec, "alive", bool, where)))
        first = None
        if "first_patch" in rec:
            first = _json_field(rec, "first_patch", int, where)
            if first < 0:
                raise ValueError(f"{where}.first_patch: {first} is negative")
        firsts.append(first)
    return tracks, meta, firsts


def load_tracks(path) -> tuple[list, dict]:
    """Read back what :func:`save_tracks` wrote.

    A malformed ``tracks.json`` (a missing or wrongly typed field, a position
    that is not a pair of finite numbers, a ``first_patch`` that is negative
    or runs past the raster, or a foreign ``format_version``) or a malformed
    ``patches.pgm`` raises ValueError naming the file and the field. Each
    track with patches gets one ``(frames, p, p)`` array.
    """
    root = Path(path)
    file = root / "tracks.json"
    try:
        tracks, meta, firsts = _parse_tracks(json.loads(file.read_text()))
    except ValueError as exc:
        raise ValueError(f"{file}: {exc}") from None
    if any(f is not None for f in firsts):
        raster = root / "patches.pgm"
        data = read_pgm(raster).data
        h, w = data.shape
        if h % w:
            raise ValueError(f"{raster}: PGM height: {h} is not a multiple of "
                             f"the width {w}")
        stack = data.reshape(h // w, w, w)
        for i, (tr, first) in enumerate(zip(tracks, firsts)):
            if first is None:
                continue
            if first + tr.length > len(stack):
                raise ValueError(f"{file}: tracks[{i}].first_patch: {tr.length} "
                                 f"patches from {first} run past the "
                                 f"{len(stack)} in {raster}")
            tr.patches = stack[first:first + tr.length]
    return tracks, meta
