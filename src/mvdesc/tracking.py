"""Corner detection and short-baseline tracking across a frame sequence.

Detection is a segment-test corner detector on every pyramid level of the
first frame; tracking is translational Lucas-Kanade (inverse compositional)
on each track's own pyramid level, with gain/bias-matched windows so smooth
illumination changes between frames do not break brightness constancy.
Positions are kept in the coordinates of the track's own pyramid level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, make_dataclass
from pathlib import Path

import numpy as np

from .image import (MAX_PYRAMID_LEVELS, GrayImage, ImagePyramid,
                    _central_differences, _bilinear, _check_fields,
                    _field_defaults, _json_field, _json_list, build_pyramid,
                    read_pgm, write_pgm)

__all__ = [
    "TrackerConfig",
    "Track",
    "detect_corners",
    "auto_threshold",
    "klt_step",
    "klt_steps",
    "run_tracker",
    "attach_patches",
    "extract_patch",
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


# Each TrackerConfig field once, as (default, kind, entries, low, strict)
# rows in the form of scene._SPEC_FIELDS: the dataclass takes its defaults
# from here and _check_tracker walks the rows, then the rules no row states.
_TRACKER_FIELDS = {
    "n_features": (400, int, None, 1, False),
    "levels": (3, int, None, 1, False),
    "window": (11, int, None, 5, False),
    "max_iters": (30, int, None, 1, False),
    "reject_thresh": (0.04, float, None, 0, True),
    "nms_radius": (4.0, float, None, None, False),
    "arc": (9, int, None, 1, False),
    "threshold_range": ((1.0 / 255.0, 0.5), float, 2, None, False),
    "count_tol": (0.2, float, None, 0, False),
    "min_border": (13, int, None, 0, False),
}


def _check_tracker(doc: dict, where: str = "") -> None:
    """ValueError naming the first field of tracker settings ``doc``
    (defaults merged in, tuples read as lists) that its row of
    ``_TRACKER_FIELDS`` refuses, or that tracking cannot use: a
    ``count_tol`` of 1 or more, an even ``window``, more ``levels`` than a
    pyramid holds, an ``arc`` past the 16-pixel circle, or a
    ``threshold_range`` not in increasing order."""
    doc = {key: list(val) if isinstance(val, tuple) else val
           for key, val in {**_field_defaults(_TRACKER_FIELDS), **doc}.items()}
    _check_fields(doc, _TRACKER_FIELDS, "tracker", where)
    lo, hi = doc["threshold_range"]
    for key, ok, expected in (
            ("count_tol", doc["count_tol"] < 1, "below 1"),
            ("window", doc["window"] % 2, "an odd number"),
            ("levels", doc["levels"] <= MAX_PYRAMID_LEVELS,
             f"at most {MAX_PYRAMID_LEVELS}"),
            ("arc", doc["arc"] <= 16, "at most 16"),
            ("threshold_range", lo < hi, "increasing order")):
        if not ok:
            raise ValueError(f"{where + '.' if where else ''}{key}: "
                             f"{doc[key]!r}, expected {expected}")


TrackerConfig = make_dataclass(
    "TrackerConfig",
    [(key, row[1] if row[2] is None else tuple, field(default=row[0]))
     for key, row in _TRACKER_FIELDS.items()],
    namespace={"__doc__": "Corner detection and tracking settings, each "
                          "checked by its row of ``_TRACKER_FIELDS``.",
               "__module__": __name__,
               "__post_init__": lambda self: _check_tracker(vars(self))})


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


class _SegmentTest:
    """One pyramid's segment test, reduced once for every threshold.

    Holds the candidate pixels of every level at least ``border`` (and 3)
    pixels inside it, with their ``level`` and in-level ``xy``, their
    centers and circles, and two reductions over the circle's ``arc``-long
    runs: ``bright``, the largest run minimum, and ``dark``, the smallest run
    maximum. A whole run is brighter than ``center + t`` exactly when its
    minimum is, so the test at ``t`` is ``(bright > center + t) | (dark <
    center - t)``. Candidates are ordered by level, then row-major."""

    def __init__(self, pyr: ImagePyramid, arc: int, border: int):
        pixels, (ws, hs, offsets) = pyr.layout()
        b = max(border, 3)
        at = np.arange(pixels.size)
        level = np.searchsorted(offsets, at, side="right") - 1
        w = ws[level]
        y, x = np.divmod(at - offsets[level], w)
        inner = np.flatnonzero((b <= x) & (x < w - b)
                               & (b <= y) & (y < hs[level] - b))
        # rebound, so no array over every pixel outlives the selection
        at, level, w, x, y = (a[inner] for a in (at, level, w, x, y))
        self.level = level
        self.xy = np.stack([x, y], axis=1).astype(np.float64)
        self.center = pixels[at]
        self.circle = np.stack([pixels[at + dy * w + dx]
                                for dx, dy in FAST_OFFSETS])
        runs = np.concatenate([self.circle, self.circle[:arc - 1]])
        lo, hi = runs[:16].copy(), runs[:16].copy()
        for k in range(1, arc):
            np.minimum(lo, runs[k:k + 16], out=lo)
            np.maximum(hi, runs[k:k + 16], out=hi)
        self.bright = lo.max(axis=0)
        self.dark = hi.min(axis=0)

    def at(self, t: float):
        """Indices into the candidates of the pixels passing at threshold
        ``t``, and their scores: the intensity excess beyond ``t`` over the
        circle, summed in circle order, for the stronger polarity."""
        c = self.center
        sel = np.flatnonzero((self.bright > c + t) | (self.dark < c - t))
        c = c[sel]
        circle = self.circle[:, sel]
        diff, ct = circle - c, c - t
        excess_b = np.maximum(diff[0] - t, 0.0)
        excess_d = np.maximum(ct - circle[0], 0.0)
        for k in range(1, 16):
            excess_b += np.maximum(diff[k] - t, 0.0)
            excess_d += np.maximum(ct - circle[k], 0.0)
        return sel, np.maximum(excess_b, excess_d)


def _nms(xy: np.ndarray, scores: np.ndarray, radius: float, levels=None):
    """Greedy suppression: strongest first, drop anything within radius on
    the same pyramid level ``levels`` (n,), by default one level for all.
    The kept indices are ordered by level, then by falling score.

    Kept points are bucketed in a grid of ``radius``-sized cells per level,
    so each candidate is tested only against the kept points of the cells
    its ``[x - radius, x + radius]`` box touches (3 x 3 of them). The cell
    index ``floor(v / radius)`` is monotone in ``v``, so those cells hold
    every kept point within ``radius``. A radius of zero or less keeps
    everything. Coordinates must be finite.
    """
    levels = np.zeros(len(xy), np.intp) if levels is None else levels
    order = np.lexsort((-scores, levels)).astype(np.intp)
    if radius <= 0 or order.size == 0:
        return order
    r2 = radius * radius
    lo = np.floor((xy - radius) / radius).astype(np.int64).tolist()
    hi = np.floor((xy + radius) / radius).astype(np.int64).tolist()
    cell = np.floor(xy / radius).astype(np.int64).tolist()
    pts, lvl = xy.tolist(), levels.tolist()
    grid: dict = {}
    kept: list[int] = []
    for i in order.tolist():
        (x, y), k = pts[i], lvl[i]
        (x0, y0), (x1, y1) = lo[i], hi[i]
        if not any((x - px) * (x - px) + (y - py) * (y - py) < r2
                   for cx in range(x0, x1 + 1) for cy in range(y0, y1 + 1)
                   for px, py in grid.get((k, cx, cy), ())):
            kept.append(i)
            grid.setdefault((k, *cell[i]), []).append((x, y))
    return np.array(kept, dtype=np.intp)


def _detect_at_threshold(test: _SegmentTest, t: float, cfg: TrackerConfig):
    """Corners at one threshold: list of (level, xy, score) after
    suppression, by level, then by falling score."""
    sel, sc = test.at(t)
    xy, lvl = test.xy[sel], test.level[sel]
    return [(int(lvl[i]), xy[i], sc[i])
            for i in _nms(xy, sc, cfg.nms_radius, lvl)]


def auto_threshold(pyr: ImagePyramid, cfg: TrackerConfig):
    """Bisect the detector threshold until the corner count is near target.

    The count decreases monotonically with the threshold, so bisection over
    ``cfg.threshold_range`` lands within ``count_tol`` of ``n_features``
    whenever that is attainable; otherwise the closest endpoint or midpoint
    seen is used. The segment test of every level is reduced once and
    evaluated at every threshold tried. Returns (threshold, detections).
    """
    test = _SegmentTest(pyr, cfg.arc, cfg.min_border)
    lo, hi = cfg.threshold_range
    lo_det = _detect_at_threshold(test, lo, cfg)
    target = cfg.n_features
    band = (target * (1.0 - cfg.count_tol), target * (1.0 + cfg.count_tol))
    if len(lo_det) <= band[1]:
        return lo, lo_det  # even the most permissive threshold is not too many
    hi_det = _detect_at_threshold(test, hi, cfg)
    if len(hi_det) >= band[0]:
        return hi, hi_det

    best = (abs(len(lo_det) - target), lo, lo_det)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        det = _detect_at_threshold(test, mid, cfg)
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


def _windows(layout, xy: np.ndarray, levels, size: int) -> np.ndarray:
    """(n, size, size) bilinear windows centered on the rows of xy (n, 2),
    each at its own pyramid level ``levels`` (n,) or one level for all, of a
    pyramid's :meth:`~mvdesc.image.ImagePyramid.layout`."""
    pixels, bounds = layout
    offs = np.arange(size) - (size - 1) / 2.0
    x = xy[:, 0, None, None] + offs
    y = xy[:, 1, None, None] + offs[:, None]
    w, h, offset = (b[levels][..., None, None] for b in bounds)
    return _bilinear(pixels, x, y, w, h, offset)


def _fits(bounds, xy: np.ndarray, levels, margin: float) -> np.ndarray:
    """Whether each point ``xy`` (..., 2) lies ``margin`` or more inside its
    level ``levels`` (broadcasting to ``xy[..., 0]``) of a layout's
    ``bounds``; a window of ``size`` fits from margin ``(size - 1) / 2``."""
    w, h = bounds[0][levels], bounds[1][levels]
    x, y = xy[..., 0], xy[..., 1]
    return ((margin <= x) & (x <= w - 1 - margin)
            & (margin <= y) & (y <= h - 1 - margin))


def extract_patch(img: GrayImage, xy, size: int) -> np.ndarray:
    """size x size bilinear window centered on xy (border-clamped)."""
    return _windows(build_pyramid(img, 1).layout(),
                    np.asarray(xy, dtype=np.float64).reshape(1, 2), 0, size)[0]


def quantized_patches(pyr: ImagePyramid, xy, levels, size: int) -> np.ndarray:
    """``(n, size, size)`` stack of the patches centered on the rows of
    ``xy`` (n, 2), each on its own level ``levels`` (n,) of ``pyr`` or one
    level for all, as they are stored on disk: each bilinear window (border
    clamped) is standardized, rescaled to fill [0, 1] (a flat window
    becomes 0.5) and quantized to 8 bits.

    One window gather serves all positions and levels. Every patch is
    normalized by reductions along its own contiguous row of an ``(n, size
    * size)`` array, which add its pixels in the order a lone patch does.
    """
    if size < 3:
        raise ValueError(f"patch size must be at least 3, got {size}")
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    rows = _windows(pyr.layout(), xy, levels, size).reshape(len(xy), size * size)
    s = rows.std(axis=1)
    flat = s < 1e-12
    z = rows[~flat]
    z = (z - z.mean(axis=1, keepdims=True)) / s[~flat, None]
    lo = z.min(axis=1, keepdims=True)
    norm = np.full_like(rows, 0.5)
    norm[~flat] = (z - lo) / (z.max(axis=1, keepdims=True) - lo)
    u8 = np.clip(np.rint(norm * 255.0), 0, 255).astype(np.uint8)
    return (u8 / 255.0).reshape(len(xy), size, size)


def _centered(win: np.ndarray, size: int):
    """``win`` (n, size, size) centered per window, and each window's std by
    ``np.std``'s own steps; ``size ** 2`` serves an empty stack too."""
    win = win - win.mean(axis=(1, 2), keepdims=True)
    return win, np.sqrt((win * win).sum(axis=(1, 2)) / size ** 2)


def klt_steps(prev: ImagePyramid, nxt: ImagePyramid, pos, levels,
              cfg: TrackerConfig, guess=None):
    """Track the points ``pos`` (n, 2), each in the coordinates of its
    pyramid level ``levels`` (n,), from ``prev`` to ``nxt`` together.

    Returns ``(new, ok)``: the new positions (n, 2) and which points were
    tracked; the rows of dropped points are meaningless. ``guess`` (n, 2)
    starts the search, by default at ``pos``. The two pyramids must have
    levels of equal sizes.

    Inverse-compositional translational alignment of a window around each
    point. Both windows are shifted to zero mean and the moving window is
    gain matched to the template, so affine lighting changes cancel. A point
    is dropped when its template is degenerate (flat or one-dimensional, by
    a condition-number test), when it wanders out of its level, or when its
    converged residual stays large. Every iteration gathers the windows of
    the points still moving, of all levels, at once; each point sees exactly
    the arithmetic of tracking it alone, because every reduction runs over
    one contiguous window.
    """
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 2)
    cur = (pos.copy() if guess is None
           else np.array(guess, dtype=np.float64).reshape(-1, 2))
    src, dst = prev.layout(), nxt.layout()
    if not np.array_equal(src[1], dst[1]):
        raise ValueError(f"pyramid level sizes differ: (width, height) "
                         f"{np.transpose(src[1][:2]).tolist()} against "
                         f"{np.transpose(dst[1][:2]).tolist()}")
    lvl = np.broadcast_to(np.asarray(levels, dtype=np.intp), len(pos))
    half = (cfg.window - 1) / 2.0

    idx = np.flatnonzero(_fits(src[1], pos, lvl, half))
    t = _windows(src, pos[idx], lvl[idx], cfg.window)
    tz, t_std = _centered(t, cfg.window)
    flat = t_std < 1e-9
    idx, t, tz, t_std = idx[~flat], t[~flat], tz[~flat], t_std[~flat]
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
        inside = _fits(src[1], cur[state[0]], lvl[state[0]], half)
        if not inside.all():
            state = [a[inside] for a in state]
        i = state[0]
        win, w_std = _centered(_windows(dst, cur[i], lvl[i], cfg.window),
                              cfg.window)
        moving = ~(w_std < 1e-9)
        if not moving.all():
            state, win, w_std = ([a[moving] for a in state], win[moving],
                                 w_std[moving])
        idx, tz, gx, gy, t_std, inv00, inv01, inv11 = state
        r = win * (t_std / w_std)[:, None, None] - tz
        bx = (gx * r).sum(axis=(1, 2))
        by = (gy * r).sum(axis=(1, 2))
        dx = inv00 * bx + inv01 * by
        dy = inv01 * bx + inv11 * by
        cur[idx, 0] -= dx
        cur[idx, 1] -= dy
        done = ((dx * dx + dy * dy < _CONVERGE * _CONVERGE)
                | (it == cfg.max_iters - 1))
        if done.any():
            resid[idx[done]] = np.abs(r[done]).mean(axis=(1, 2))
            finished[idx[done]] = True
            state = [a[~done] for a in state]
        if not len(state[0]):
            break
    ok = finished & _fits(src[1], cur, lvl, half) & ~(resid > cfg.reject_thresh)
    return cur, ok


def klt_step(prev: GrayImage, nxt: GrayImage, pos, cfg: TrackerConfig,
             guess=None):
    """Track one point from ``prev`` to ``nxt``; returns the new (x, y) or
    None. The stack of one of :func:`klt_steps`, on one-level pyramids."""
    new, ok = klt_steps(build_pyramid(prev, 1), build_pyramid(nxt, 1), pos,
                        0, cfg, guess)
    return new[0] if ok[0] else None


def run_tracker(pyramids: list, cfg: TrackerConfig = None) -> list:
    """Detect on the first frame and track every corner through the sequence.

    ``pyramids`` are the frames' pyramids, built by the caller, all of one
    size and depth. A track that fails on any frame is marked dead and stops
    growing, so ``positions`` always covers frames 0..length-1 contiguously.
    Position init for each new frame assumes constant velocity. The live
    tracks of every pyramid level are tracked together, one
    :func:`klt_steps` call per frame.
    """
    cfg = cfg or TrackerConfig()
    if not pyramids:
        raise ValueError("no frames to track")
    first = pyramids[0].level(0)
    for f, img in enumerate(pyr.level(0) for pyr in pyramids):
        if img.shape != first.shape:
            raise ValueError(f"frame {f} is {img.width}x{img.height}, frame 0 "
                             f"is {first.width}x{first.height}")
    detections = detect_corners(pyramids[0], cfg)
    tracks = [Track(i, lvl, [xy.copy()]) for i, (lvl, xy, _) in enumerate(detections)]

    for f in range(1, len(pyramids)):
        live = [tr for tr in tracks if tr.alive]
        if not live:
            break
        pos = np.array([tr.positions[-1] for tr in live])
        guess = pos
        if f >= 2:  # every live track holds frames 0..f-1
            guess = pos + (pos - np.array([tr.positions[-2] for tr in live]))
        new, ok = klt_steps(pyramids[f - 1], pyramids[f], pos,
                            [tr.level for tr in live], cfg, guess)
        for tr, p, good in zip(live, new, ok):
            if good:
                tr.positions.append(p)
            else:
                tr.alive = False
    return tracks


def attach_patches(tracks: list, pyramids: list, patch_size: int) -> None:
    """Extract and store the normalized ``(frames, p, p)`` patch stack of
    each live track from the frames' ``pyramids``.

    Stored patches are quantized to 8 bits, matching their on-disk form, so
    anything computed from them is identical in memory and after a reload.
    The patches of one frame are cut together, each at its track's level, by
    one :func:`quantized_patches` call.
    """
    stacks = [np.empty((tr.length, patch_size, patch_size)) for tr in tracks]
    for f, pyr in enumerate(pyramids):
        group = [i for i, tr in enumerate(tracks) if tr.length > f]
        pats = quantized_patches(pyr, [tracks[i].positions[f] for i in group],
                                 [tracks[i].level for i in group], patch_size)
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
        raw = _json_list(_json_field(rec, "positions", list, where),
                         f"{where}.positions", 0)
        positions = [np.array(_json_list(p, f"{where}.positions[{k}]", 2, float),
                              dtype=np.float64) for k, p in enumerate(raw)]
        tracks.append(Track(_json_field(rec, "id", int, where),
                            _json_field(rec, "level", int, where, 0), positions,
                            _json_field(rec, "alive", bool, where)))
        firsts.append(_json_field(rec, "first_patch", int, where, 0)
                      if "first_patch" in rec else None)
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
