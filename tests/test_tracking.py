"""Corner detection, KLT tracking, patch extraction, and track I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdesc.image import (GrayImage, ImagePyramid, _central_differences,
                          bilinear_sample, build_pyramid)
from mvdesc.scene import make_texture
from mvdesc.tracking import (FAST_OFFSETS, Track, TrackerConfig, _COND_LIMIT,
                             _CONVERGE, _nms, attach_patches, auto_threshold,
                             detect_corners, extract_patch, klt_step,
                             klt_steps, load_tracks, quantized_patches,
                             run_tracker, save_tracks)

from oracles import fast_score_map, normalize_patch, quantized_patch


def fast_oracle(a, threshold, arc):
    """Literal per-pixel segment test with wraparound arcs; each score adds
    its 16 circle excesses in circle order."""
    h, w = a.shape
    mask = np.zeros((h, w), bool)
    score = np.zeros((h, w))
    for y in range(3, h - 3):
        for x in range(3, w - 3):
            c = a[y, x]
            vals = np.array([a[y + dy, x + dx] for dx, dy in FAST_OFFSETS])
            b = np.concatenate([vals, vals]) > c + threshold
            d = np.concatenate([vals, vals]) < c - threshold
            if any(b[s:s + arc].all() or d[s:s + arc].all()
                   for s in range(16)):
                mask[y, x] = True
                eb = ed = 0.0
                for v in vals:
                    eb += max(v - c - threshold, 0.0)
                    ed += max(c - threshold - v, 0.0)
                score[y, x] = max(eb, ed)
    return mask, score


def nms_oracle(xy, scores, radius):
    """Greedy suppression against every kept point, strongest first."""
    order = np.argsort(-scores, kind="stable")
    kept = []
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


def detect_oracle(pyr, threshold, cfg):
    """Corners at one threshold from fast_oracle and nms_oracle, per level:
    list of (level, xy, score) as auto_threshold returns them."""
    found = []
    for lvl in range(len(pyr)):
        a = pyr.level(lvl).data
        mask, score = fast_oracle(a, threshold, cfg.arc)
        h, w = a.shape
        m = cfg.min_border
        inner = np.zeros_like(mask)
        if h > 2 * m and w > 2 * m:
            inner[m:h - m, m:w - m] = True
        ys, xs = np.nonzero(mask & inner)
        xy = np.stack([xs, ys], axis=1).astype(np.float64)
        sc = score[ys, xs]
        found += [(lvl, xy[i], sc[i])
                  for i in nms_oracle(xy, sc, cfg.nms_radius)]
    return found


def window_oracle(img, xy, size):
    half = (size - 1) / 2.0
    offs = np.arange(size) - half
    gx, gy = np.meshgrid(xy[0] + offs, xy[1] + offs)
    return bilinear_sample(img.data, np.stack([gx, gy], axis=-1))


def klt_oracle(prev, nxt, pos, cfg, guess=None):
    """One point at a time: inverse-compositional translational KLT."""
    pos = np.asarray(pos, dtype=np.float64)
    half = (cfg.window - 1) / 2.0
    h, w = prev.shape

    def in_bounds(p):
        return (half <= p[0] <= w - 1 - half) and (half <= p[1] <= h - 1 - half)

    if not in_bounds(pos):
        return None
    t = window_oracle(prev, pos, cfg.window)
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
        win = window_oracle(nxt, cur, cfg.window)
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


def tracker_oracle(images, cfg):
    """The sequence loop of run_tracker, one klt_oracle call per point."""
    pyrs = [build_pyramid(img, cfg.levels) for img in images]
    tracks = [Track(i, lvl, [xy.copy()])
              for i, (lvl, xy, _) in enumerate(detect_corners(pyrs[0], cfg))]
    for f in range(1, len(images)):
        for tr in tracks:
            if not tr.alive:
                continue
            pos = tr.positions[-1]
            guess = pos + (pos - tr.positions[-2]) if len(tr.positions) >= 2 else pos
            new = klt_oracle(pyrs[f - 1].level(tr.level), pyrs[f].level(tr.level),
                             pos, cfg, guess)
            if new is None:
                tr.alive = False
            else:
                tr.positions.append(new)
    return tracks


def shifted(base: GrayImage, shift) -> GrayImage:
    """The same scene translated by ``shift`` pixels (border-clamped)."""
    h, w = base.shape
    gx, gy = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    grid = np.stack([gx - shift[0], gy - shift[1]], axis=-1)
    return GrayImage(bilinear_sample(base.data, grid))


class TestFast:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(90)
        a = rng.random((20, 24))
        for arc in (9, 12):
            mask, score = fast_score_map(GrayImage(a), 0.08, arc)
            want_mask, want_score = fast_oracle(a, 0.08, arc)
            np.testing.assert_array_equal(mask, want_mask)
            assert score.tobytes() == want_score.tobytes()

    def test_square_corners_fire(self):
        a = np.full((32, 32), 0.9)
        a[10:20, 10:20] = 0.1
        mask, _ = fast_score_map(GrayImage(a), 0.3)
        corners = np.array([[10, 10], [10, 19], [19, 10], [19, 19]])
        for y, x in corners:
            assert mask[y, x]
        # everything that fires sits on or right next to a true corner
        for y, x in np.argwhere(mask):
            d = np.abs(corners - [y, x]).max(axis=1).min()
            assert d <= 2

    def test_flat_and_tiny_images_are_silent(self):
        mask, score = fast_score_map(GrayImage(np.full((16, 16), 0.5)), 0.05)
        assert not mask.any() and score.max() == 0.0
        mask, _ = fast_score_map(GrayImage(np.full((5, 6), 0.5)), 0.05)
        assert mask.shape == (5, 6) and not mask.any()


@st.composite
def nms_cases(draw):
    """Points on a radius-spaced lattice (exactly radius apart), random or
    mixed, negative coordinates included; tied or random scores."""
    radius = draw(st.one_of(st.sampled_from([4.0, 1.0, 2.5, 0.1, 0.3, 7.0]),
                            st.floats(0.01, 20.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 60))
    lattice = rng.integers(-6, 7, (n, 2)) * radius
    jitter = rng.uniform(-30.0, 30.0, (n, 2))
    xy = {"lattice": lattice, "random": jitter,
          "mixed": np.where(rng.random((n, 1)) < 0.5, lattice, jitter),
          "near": lattice + rng.choice([-1e-12, 0.0, 1e-12], (n, 2)) * radius,
          }[draw(st.sampled_from(["lattice", "random", "mixed", "near"]))]
    if draw(st.booleans()):
        scores = rng.choice([1.0, 2.0, 3.0], n)
    else:
        scores = rng.random(n)
    return xy, scores, radius


class TestNms:
    def test_greedy_by_score(self):
        xy = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        scores = np.array([5.0, 3.0, 4.0])
        kept = _nms(xy, scores, radius=4.0)
        assert kept.tolist() == [0, 2]

    def test_ties_keep_first_index(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0]])
        kept = _nms(xy, np.array([2.0, 2.0]), radius=3.0)
        assert kept.tolist() == [0]

    def test_exactly_radius_apart_both_kept(self):
        xy = np.array([[-4.0, -8.0], [0.0, -8.0], [-4.0, -4.0], [-2.0, -6.0]])
        kept = _nms(xy, np.array([3.0, 3.0, 3.0, 1.0]), radius=4.0)
        assert kept.tolist() == [0, 1, 2]

    def test_empty_input(self):
        kept = _nms(np.zeros((0, 2)), np.zeros(0), radius=4.0)
        assert kept.dtype == np.intp and kept.size == 0

    @pytest.mark.parametrize("radius", [0.0, -0.0, -4.0])
    def test_nonpositive_radius_keeps_everything(self, radius):
        xy = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        kept = _nms(xy, np.array([1.0, 2.0, 2.0]), radius)
        assert kept.dtype == np.intp and kept.tolist() == [1, 2, 0]

    @settings(max_examples=300, deadline=None)
    @given(case=nms_cases())
    def test_equals_greedy_oracle(self, case):
        xy, scores, radius = case
        got = _nms(xy, scores, radius)
        assert got.dtype == np.intp
        assert got.tolist() == nms_oracle(xy, scores, radius).tolist()


@st.composite
def detection_cases(draw):
    """A random, 8-bit or smooth image on 1-3 pyramid levels of odd or even
    size; a threshold at or inside the detector's range; arc and border."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h, w = draw(st.integers(12, 34)), draw(st.integers(12, 34))
    kind = draw(st.sampled_from(["random", "8-bit", "smooth"]))
    if kind == "random":
        a = rng.random((h, w))
    elif kind == "8-bit":
        a = rng.integers(0, 256, (h, w)) / 255.0
    else:
        a = make_texture(rng, max(h, w), 3)[:h, :w]
    cfg = TrackerConfig(levels=draw(st.integers(1, 3)),
                        arc=draw(st.sampled_from([1, 5, 9, 12, 16])),
                        min_border=draw(st.sampled_from([0, 2, 3, 5, 13])),
                        nms_radius=draw(st.sampled_from([0.0, 2.0, 4.0])))
    t = draw(st.one_of(st.sampled_from([0.0, 1.0 / 255.0, 0.5]),
                       st.floats(0.0, 0.5)))
    return build_pyramid(GrayImage(a), cfg.levels), t, cfg


class TestDetection:
    @settings(max_examples=60, deadline=None)
    @given(case=detection_cases())
    def test_detections_equal_the_oracle_detector(self, case):
        pyr, t, cfg = case
        # a one-point range evaluates exactly that threshold
        cfg.threshold_range, cfg.n_features = (t, t), 1
        got_t, got = auto_threshold(pyr, cfg)
        want = detect_oracle(pyr, t, cfg)
        assert got_t == t and len(got) == len(want)
        for (lg, xg, sg), (lw, xw, sw) in zip(got, want):
            assert lg == lw and xg.tobytes() == xw.tobytes()
            assert np.float64(sg).tobytes() == np.float64(sw).tobytes()

    def test_threshold_bisection_hits_the_band(self):
        rng = np.random.default_rng(91)
        img = GrayImage(rng.random((80, 80)))
        cfg = TrackerConfig(n_features=60, levels=1)
        t, det = auto_threshold(build_pyramid(img, 1), cfg)
        assert cfg.threshold_range[0] <= t <= cfg.threshold_range[1]
        assert 0.8 * 60 <= len(det) <= 1.2 * 60

    def test_detect_corners_orders_by_score(self):
        rng = np.random.default_rng(92)
        img = GrayImage(rng.random((64, 64)))
        cfg = TrackerConfig(n_features=20, levels=1)
        det = detect_corners(build_pyramid(img, 1), cfg)
        assert 0 < len(det) <= 20
        scores = [s for _, _, s in det]
        assert scores == sorted(scores, reverse=True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(window=10)
        with pytest.raises(ValueError):
            TrackerConfig(arc=17)

    # each id keeps the field, the value and the rule the value breaks
    @pytest.mark.parametrize("field, value, message", [
        ("n_features", 0, r"^n_features: 0, expected at least 1$"),
        ("n_features", -5, r"^n_features: -5, expected at least 1$"),
        ("n_features", 250.5, r"^n_features: 250\.5, expected an integer$"),
        ("max_iters", 0, r"^max_iters: 0, expected at least 1$"),
        ("reject_thresh", math.nan, r"^reject_thresh: nan, expected a finite "
                                    r"number$"),
        ("reject_thresh", math.inf, r"^reject_thresh: inf, expected a finite "
                                    r"number$"),
        ("reject_thresh", 0.0, r"^reject_thresh: 0\.0, expected above 0$"),
        ("reject_thresh", -1.0, r"^reject_thresh: -1\.0, expected above 0$"),
        ("min_border", -1, r"^min_border: -1, expected at least 0$"),
        ("levels", 0, r"^levels: 0, expected at least 1$"),
        ("levels", 6, r"^levels: 6, expected at most 5$"),
        ("window", 10, r"^window: 10, expected an odd number$"),
        ("arc", 17, r"^arc: 17, expected at most 16$"),
        ("count_tol", 1.0, r"^count_tol: 1\.0, expected below 1$"),
        ("threshold_range", (0.1, 0.1), r"^threshold_range: \[0\.1, 0\.1\], "
                                        r"expected increasing order$"),
        ("threshold_range", [0.1], r"^threshold_range: 1 entries, expected 2$"),
    ], ids=[
        "n_features-0-n_features must be at least 1",
        "n_features--5-n_features must be at least 1",
        "n_features-250.5-n_features must be an integer",
        "max_iters-0-max_iters must be at least 1",
        "reject_thresh-nan-reject_thresh must be finite",
        "reject_thresh-inf-reject_thresh must be finite",
        "reject_thresh-0.0-reject_thresh must be above 0",
        "reject_thresh--1.0-reject_thresh must be above 0",
        "min_border--1-min_border must be at least 0",
        "levels-0-levels must be at least 1",
        "levels-6-levels must be at most 5",
        "window-10-window must be odd",
        "arc-17-arc must be at most 16",
        "count_tol-1.0-count_tol must be below 1",
        "threshold_range-values equal",
        "threshold_range-value alone",
    ])
    def test_values_that_break_tracking_are_refused(self, field, value,
                                                    message):
        with pytest.raises(ValueError, match=message):
            TrackerConfig(**{field: value})


class TestKlt:
    def setup_method(self):
        self.base = GrayImage(make_texture(np.random.default_rng(93), 64, 3))
        self.cfg = TrackerConfig(levels=1)

    def corners(self, k):
        cfg = TrackerConfig(n_features=k, levels=1)
        det = detect_corners(build_pyramid(self.base, 1), cfg)
        assert len(det) >= k
        return [xy for _, xy, _ in det[:k]]

    def test_integer_shift_recovered_exactly(self):
        # an integer translate needs no resampling, so the only slack is
        # the convergence threshold
        s = np.array([1.0, -2.0])
        nxt = shifted(self.base, s)
        for pos in self.corners(5):
            got = klt_step(self.base, nxt, pos, self.cfg)
            assert got is not None
            np.testing.assert_allclose(got, pos + s, atol=1e-3)

    def test_subpixel_shift_within_resampling_bias(self):
        # fractional warps blur the moving window (bilinear tent), which
        # biases a translational step by up to about a tenth of a pixel
        s = np.array([0.3, -0.2])
        nxt = shifted(self.base, s)
        for pos in self.corners(5):
            got = klt_step(self.base, nxt, pos, self.cfg)
            assert got is not None
            np.testing.assert_allclose(got, pos + s, atol=0.15)

    def test_gain_and_bias_do_not_move_the_answer(self):
        s = np.array([2.0, 1.0])
        nxt = shifted(self.base, s)
        lit = GrayImage(0.6 * nxt.data + 0.2)
        pos = self.corners(1)[0]
        got = klt_step(self.base, lit, pos, self.cfg)
        np.testing.assert_allclose(got, pos + s, atol=1e-3)

    def test_flat_window_is_dropped(self):
        flat = GrayImage(np.full((64, 64), 0.5))
        assert klt_step(flat, self.base, (32.0, 32.0), self.cfg) is None

    def test_one_dimensional_texture_is_dropped(self):
        x = np.arange(64)
        stripes = GrayImage(np.tile(0.5 + 0.4 * np.sin(x / 3.0), (64, 1)))
        assert klt_step(stripes, stripes, (32.0, 32.0), self.cfg) is None

    def test_border_positions_are_dropped(self):
        assert klt_step(self.base, self.base, (2.0, 32.0), self.cfg) is None

    def test_unrelated_target_is_rejected(self):
        other = GrayImage(make_texture(np.random.default_rng(94), 64, 3))
        assert klt_step(self.base, other, (32.0, 32.0), self.cfg) is None


@st.composite
def klt_cases(draw):
    """Textured, random, flat, striped (one-dimensional) or partly flat
    templates; shifted, relit, unrelated or flat targets; points at and
    just past the border; guesses at, near or far from the point."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(20, 36))
    cfg = TrackerConfig(levels=1, window=draw(st.sampled_from([5, 7, 9, 11])),
                        max_iters=draw(st.sampled_from([1, 2, 5, 30])),
                        reject_thresh=draw(st.sampled_from([0.04, 0.3, 10.0])))
    x = np.arange(size, dtype=np.float64)
    kind = draw(st.sampled_from(["texture", "random", "flat", "stripes",
                                 "diagonal", "flat-patch"]))
    if kind == "texture":
        a = make_texture(rng, size, 3)
    elif kind == "random":
        a = rng.random((size, size))
    elif kind == "flat":
        a = np.full((size, size), rng.random())
    elif kind == "stripes":
        a = np.tile(0.5 + 0.4 * np.sin(x / rng.uniform(1.0, 4.0)), (size, 1))
    elif kind == "diagonal":
        a = 0.5 + 0.4 * np.sin((x[:, None] + x) / rng.uniform(1.0, 4.0))
    else:
        a = make_texture(rng, size, 3)
        a[size // 4:3 * size // 4, size // 4:3 * size // 4] = rng.random()
    prev = GrayImage(a)
    target = draw(st.sampled_from(["shifted", "relit", "unrelated", "flat",
                                   "flat-patch"]))
    if target in ("shifted", "relit", "flat-patch"):
        b = shifted(prev, rng.uniform(-3.0, 3.0, 2)).data
        if target == "relit":
            b = 0.6 * b + 0.2
        elif target == "flat-patch":
            b[: size // 2, : size // 2] = rng.random()
    elif target == "unrelated":
        b = make_texture(rng, size, 3)
    else:
        b = np.full((size, size), rng.random())
    nxt = GrayImage(b)

    half = (cfg.window - 1) / 2.0
    lo, hi = half, size - 1 - half
    edges = [lo, np.nextafter(lo, -np.inf), hi, np.nextafter(hi, np.inf)]
    pos = rng.uniform(lo - 1.0, hi + 1.0, (draw(st.integers(1, 8)), 2))
    pick = rng.random(pos.shape) < 0.3
    pos[pick] = rng.choice(edges, pos.shape)[pick]
    guess = draw(st.sampled_from(["none", "at", "near", "far"]))
    if guess == "none":
        return prev, nxt, pos, cfg, None
    step = {"at": 0.0, "near": 1.5, "far": size / 2.0}[guess]
    return prev, nxt, pos, cfg, pos + rng.uniform(-step, step, pos.shape)


def one_level(img):
    return ImagePyramid([img])


def assert_klt_matches_oracle(prev, nxt, pos, cfg, guess):
    """klt_steps on the stack, and klt_step on each point, bit for bit."""
    new, ok = klt_steps(one_level(prev), one_level(nxt), pos, 0, cfg, guess)
    assert new.shape == pos.shape and ok.shape == (len(pos),)
    for i in range(len(pos)):
        g = None if guess is None else guess[i]
        want = klt_oracle(prev, nxt, pos[i], cfg, g)
        one = klt_step(prev, nxt, pos[i], cfg, g)
        assert bool(ok[i]) == (want is not None) == (one is not None)
        if want is not None:
            assert new[i].tobytes() == want.tobytes() == one.tobytes()
    return ok


@st.composite
def multilevel_klt_cases(draw):
    """A texture of odd or even size on 2 or 3 levels and its shifted,
    relit or unrelated next frame; points of mixed levels at random, on and
    just past each level's border; guesses at, near or far from them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h, w = draw(st.integers(27, 61)), draw(st.integers(27, 61))
    cfg = TrackerConfig(levels=draw(st.integers(2, 3)),
                        window=draw(st.sampled_from([5, 7, 11])),
                        max_iters=draw(st.sampled_from([1, 5, 30])),
                        reject_thresh=draw(st.sampled_from([0.04, 0.3])))
    prev = GrayImage(make_texture(rng, max(h, w), 4)[:h, :w])
    target = draw(st.sampled_from(["shifted", "relit", "unrelated"]))
    if target == "unrelated":
        b = make_texture(rng, max(h, w), 4)[:h, :w]
    else:
        b = shifted(prev, rng.uniform(-2.0, 2.0, 2)).data
        if target == "relit":
            b = 0.6 * b + 0.2
    p0, p1 = build_pyramid(prev, cfg.levels), build_pyramid(GrayImage(b), cfg.levels)
    n = draw(st.integers(1, 12))
    levels = rng.integers(0, cfg.levels, n)
    half = (cfg.window - 1) / 2.0
    pos = np.empty((n, 2))
    for i, lvl in enumerate(levels):
        lh, lw = p0.level(lvl).shape
        lo, hi = np.array([half, half]), np.array([lw - 1 - half, lh - 1 - half])
        pos[i] = lo - 1.0 + rng.random(2) * (hi - lo + 2.0)  # hi < lo: none fit
        edges = np.array([lo, np.nextafter(lo, -np.inf), hi,
                          np.nextafter(hi, np.inf)])
        pick = rng.random(2) < 0.4
        pos[i, pick] = edges[rng.integers(0, 4, 2), [0, 1]][pick]
    guess = draw(st.sampled_from(["none", "at", "near", "far"]))
    if guess == "none":
        return p0, p1, pos, levels, cfg, None
    step = {"at": 0.0, "near": 1.5, "far": 8.0}[guess]
    return p0, p1, pos, levels, cfg, pos + rng.uniform(-step, step, pos.shape)


class TestBatchedKlt:
    @settings(max_examples=200, deadline=None)
    @given(case=klt_cases())
    def test_equals_per_point_oracle(self, case):
        assert_klt_matches_oracle(*case)

    @pytest.mark.parametrize("template, target, max_iters", [
        ("texture", "shifted", 1), ("texture", "shifted", 30),
        ("flat", "shifted", 30), ("stripes", "stripes", 30),
        ("texture", "flat", 30), ("texture", "flat", 1)])
    def test_named_cases_equal_oracle(self, template, target, max_iters):
        size, cfg = 32, TrackerConfig(levels=1, max_iters=max_iters)
        x = np.arange(size, dtype=np.float64)
        images = {
            "texture": make_texture(np.random.default_rng(107), size, 3),
            "flat": np.full((size, size), 0.4),
            "stripes": np.tile(0.5 + 0.4 * np.sin(x / 2.0), (size, 1)),
        }
        prev = GrayImage(images[template])
        nxt = (shifted(prev, (0.6, -0.3)) if target == "shifted"
               else GrayImage(images[target]))
        lo, hi = 5.0, size - 6.0   # the window of 11 fits from 5 to 26
        pos = np.array([[lo, lo], [hi, hi], [np.nextafter(lo, 0.0), 16.0],
                        [16.0, np.nextafter(hi, size)], [16.0, 16.0],
                        [12.3, 19.8]])
        ok = assert_klt_matches_oracle(prev, nxt, pos, cfg, None)
        assert not ok[2:4].any()   # just past the border
        if template != "texture" or target == "flat":
            assert not ok.any()

    def test_guess_leaving_the_image_is_dropped(self):
        base = GrayImage(make_texture(np.random.default_rng(102), 40, 3))
        nxt = shifted(base, (6.0, 0.0))
        cfg = TrackerConfig(levels=1)
        pos = np.array([[20.0, 20.0], [29.0, 20.0], [33.5, 20.0]])
        new, ok = klt_steps(one_level(base), one_level(nxt), pos, 0, cfg)
        # the last two start inside but their targets lie past the border
        assert ok.tolist() == [True, False, False]
        np.testing.assert_allclose(new[0], [26.0, 20.0], atol=1e-3)
        for i, p in enumerate(pos):
            assert (klt_oracle(base, nxt, p, cfg) is None) == (not ok[i])

    def test_empty_stack(self):
        base = GrayImage(make_texture(np.random.default_rng(103), 32, 3))
        new, ok = klt_steps(one_level(base), one_level(base), np.zeros((0, 2)),
                            [], TrackerConfig(levels=1))
        assert new.shape == (0, 2) and ok.shape == (0,)

    def test_pyramids_of_other_sizes_are_refused(self):
        a = GrayImage(make_texture(np.random.default_rng(108), 32, 3))
        b = GrayImage(a.data[:30])
        with pytest.raises(ValueError, match="pyramid level sizes differ"):
            klt_steps(build_pyramid(a, 2), build_pyramid(b, 2),
                      [[16.0, 16.0]], [0], TrackerConfig(levels=2))

    @settings(max_examples=100, deadline=None)
    @given(case=multilevel_klt_cases())
    def test_all_levels_at_once_equal_the_oracle(self, case):
        prev, nxt, pos, levels, cfg, guess = case
        new, ok = klt_steps(prev, nxt, pos, levels, cfg, guess)
        for i, lvl in enumerate(levels):
            want = klt_oracle(prev.level(lvl), nxt.level(lvl), pos[i], cfg,
                              None if guess is None else guess[i])
            assert bool(ok[i]) == (want is not None)
            if want is not None:
                assert new[i].tobytes() == want.tobytes()


class TestRunTracker:
    def test_equals_per_point_tracker(self):
        base = GrayImage(make_texture(np.random.default_rng(104), 96, 4))
        junk = GrayImage(make_texture(np.random.default_rng(105), 96, 4))
        v = np.array([0.7, -0.4])
        frames = [shifted(base, k * v) for k in range(4)] + [junk]
        cfg = TrackerConfig(n_features=80, levels=2, reject_thresh=0.08)
        got = run_tracker([build_pyramid(f, cfg.levels) for f in frames], cfg)
        want = tracker_oracle(frames, cfg)
        assert len(got) == len(want) > 40
        assert {t.level for t in got} == {0, 1}
        assert 0 < sum(t.length == 4 for t in got) < len(got)
        for a, b in zip(got, want):
            assert (a.id, a.level, a.alive) == (b.id, b.level, b.alive)
            assert np.array(a.positions).tobytes() == np.array(b.positions).tobytes()

    def test_constant_velocity_sequence(self):
        base = GrayImage(make_texture(np.random.default_rng(95), 96, 4))
        v = np.array([0.8, 0.5])
        frames = [shifted(base, k * v) for k in range(5)]
        tracks = run_tracker([build_pyramid(f, 3) for f in frames],
                             TrackerConfig(n_features=60))
        full = [t for t in tracks if t.length == 5 and t.level == 0]
        assert len(full) >= 20
        errs = [np.abs(t.positions[-1] - t.positions[0] - 4 * v).max()
                for t in full]
        # every track stays locked on its feature (a jump would be pixels)
        assert max(errs) < 0.6
        assert np.mean(errs) < 0.15

    def test_dead_tracks_stop_growing(self):
        base = GrayImage(make_texture(np.random.default_rng(96), 96, 4))
        junk = GrayImage(make_texture(np.random.default_rng(97), 96, 4))
        tracks = run_tracker([build_pyramid(f, 3)
                              for f in (base, base, junk, junk)])
        # positions stay contiguous: a track is alive iff it covers all frames
        assert all((t.length == 4) == t.alive for t in tracks)
        # most tracks die right at the scene cut
        assert sum(t.length == 2 for t in tracks) > len(tracks) // 2

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            run_tracker([])

    def test_frames_of_another_size_are_refused(self):
        base = GrayImage(make_texture(np.random.default_rng(109), 64, 3))
        with pytest.raises(ValueError, match="frame 2 is 64x50, frame 0 is 64x64"):
            run_tracker([build_pyramid(f, 3) for f in
                         (base, base, GrayImage(base.data[:50]))])

    def test_one_klt_steps_call_per_frame(self, monkeypatch):
        import mvdesc.tracking as tracking

        calls = []

        def counted(prev, nxt, pos, levels, cfg, guess=None):
            calls.append(sorted(set(np.asarray(levels).tolist())))
            return klt_steps(prev, nxt, pos, levels, cfg, guess)

        monkeypatch.setattr(tracking, "klt_steps", counted)
        base = GrayImage(make_texture(np.random.default_rng(110), 96, 4))
        frames = [shifted(base, (0.5 * k, 0.3 * k)) for k in range(5)]
        tracks = run_tracker([build_pyramid(f, 2) for f in frames],
                             TrackerConfig(n_features=60, levels=2))
        assert all(t.length == 5 for t in tracks if t.alive)
        assert calls == [[0, 1]] * 4


class TestPatches:
    def test_integer_center_reads_the_subarray(self):
        rng = np.random.default_rng(98)
        img = GrayImage(rng.random((30, 30)))
        got = extract_patch(img, (12.0, 9.0), 7)
        np.testing.assert_array_equal(got, img.data[6:13, 9:16])

    def test_half_pixel_center_averages_columns(self):
        rng = np.random.default_rng(99)
        img = GrayImage(rng.random((20, 20)))
        got = extract_patch(img, (5.5, 7.0), 3)
        want = 0.5 * (img.data[6:9, 4:7] + img.data[6:9, 5:8])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_normalize_is_affine_invariant_and_fills_range(self):
        rng = np.random.default_rng(100)
        p = rng.random((9, 9))
        n = normalize_patch(p)
        assert n.min() == 0.0 and n.max() == pytest.approx(1.0)
        np.testing.assert_allclose(normalize_patch(0.4 * p + 0.3), n,
                                   atol=1e-12)
        np.testing.assert_array_equal(normalize_patch(np.full((5, 5), 0.2)),
                                      np.full((5, 5), 0.5))


@st.composite
def patch_cases(draw):
    """A pyramid of 1-3 levels over an 8-bit image, an odd patch size and
    centers, each on a level of its own: inside, on and past that level's
    border (where the window clamps), and over a flat region."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_levels = draw(st.integers(1, 3))
    least = 3 * 2 ** (n_levels - 1)
    h, w = draw(st.integers(least, 40)), draw(st.integers(least, 40))
    a = np.round(rng.random((h, w)) * 255.0) / 255.0
    if draw(st.booleans()):
        a[: h // 2 + 1, : w // 2 + 1] = np.round(rng.random() * 255.0) / 255.0
    pyr = build_pyramid(GrayImage(a), n_levels)
    p = draw(st.sampled_from(range(3, 22, 2)))
    n = draw(st.integers(0, 12)) + 3
    levels = rng.integers(0, n_levels, n)
    size = np.array([pyr.level(lvl).shape[::-1] for lvl in levels], float)
    xy = rng.uniform(-p, 1.0, (n, 2)) + rng.random((n, 2)) * (size + p)
    snap = rng.random(xy.shape) < 0.3
    xy[snap] = np.round(xy[snap])
    # the last three: a level's first pixel, its last, and past a corner
    xy[-3:] = [0.0, 0.0], size[-2] - 1.0, [-3.0, size[-1, 1] + 2.0]
    keep = n - draw(st.integers(0, 3))
    return pyr, xy[:keep], levels[:keep], p


class TestBatchedPatches:
    @settings(max_examples=200, deadline=None)
    @given(case=patch_cases())
    def test_equals_quantized_patch(self, case):
        pyr, xy, levels, p = case
        got = quantized_patches(pyr, xy, levels, p)
        want = np.reshape([quantized_patch(pyr.level(lvl), q, p)
                           for q, lvl in zip(xy, levels)], (len(xy), p, p))
        assert got.shape == (len(xy), p, p)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [3, 11, 21])
    def test_flat_patches_become_one_half(self, p):
        img = GrayImage(np.full((30, 30), 0.3))
        xy = np.array([[10.0, 10.0], [-4.0, 2.5], [29.0, 29.0]])
        got = quantized_patches(one_level(img), xy, 0, p)
        assert (got == np.rint(0.5 * 255.0) / 255.0).all()
        assert got.tobytes() == np.stack(
            [quantized_patch(img, q, p) for q in xy]).tobytes()

    @pytest.mark.parametrize("p", [2, 0, -3])
    def test_size_below_three_rejected(self, p):
        with pytest.raises(ValueError, match=f"at least 3, got {p}"):
            quantized_patches(one_level(GrayImage(np.zeros((9, 9)))),
                              np.zeros((1, 2)), 0, p)

    def test_attach_patches_equals_per_position_patches(self):
        rng = np.random.default_rng(108)
        frames = [GrayImage(make_texture(rng, 48, 3)) for _ in range(3)]
        tracks = [Track(0, 0, [np.array([20.2, 21.7]), np.array([-2.0, 9.5]),
                               np.array([47.0, 30.0])]),
                  Track(1, 1, [np.array([10.4, 3.0])], alive=False),
                  Track(2, 0, [np.array([5.0, 5.0]), np.array([6.5, 4.0])],
                        alive=False),
                  Track(3, 1, [np.array([11.0, 12.0]), np.array([11.5, 12.5]),
                               np.array([12.0, 13.0])])]
        pyrs = [build_pyramid(f, 2) for f in frames]
        attach_patches(tracks, pyrs, patch_size=7)
        for tr in tracks:
            want = np.stack([quantized_patch(pyrs[f].level(tr.level), pos, 7)
                             for f, pos in enumerate(tr.positions)])
            assert tr.patches.tobytes() == want.tobytes()


class TestTrackIO:
    def test_roundtrip(self, tmp_path):
        base = GrayImage(make_texture(np.random.default_rng(101), 64, 3))
        nxt = shifted(base, (0.7, 0.3))
        tracks = [
            Track(0, 0, [np.array([20.2, 21.7]), np.array([20.9, 22.1])]),
            Track(3, 1, [np.array([15.0, 16.0])], alive=False),
        ]
        attach_patches(tracks, [build_pyramid(base, 2), build_pyramid(nxt, 2)],
                       patch_size=9)
        save_tracks(tracks, tmp_path, meta={"patch_size": 9})
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "patches.pgm", "tracks.json"]

        back, meta = load_tracks(tmp_path)
        assert meta == {"patch_size": 9}
        assert [t.id for t in back] == [0, 3]
        assert [t.level for t in back] == [0, 1]
        assert [t.alive for t in back] == [True, False]
        for mine, loaded in zip(tracks, back):
            assert loaded.length == mine.length
            for p, q in zip(mine.positions, loaded.positions):
                np.testing.assert_array_equal(q, p)
            assert mine.patches.shape == (mine.length, 9, 9)
            assert loaded.patches.shape == mine.patches.shape
            np.testing.assert_array_equal(loaded.patches, mine.patches)

    @settings(max_examples=60, deadline=None)
    @given(tracks=st.lists(st.tuples(
               st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * 2),
                        min_size=1, max_size=12),
               st.integers(0, 5), st.booleans(), st.booleans()),
               min_size=1, max_size=6),
           size=st.integers(3, 25), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_track_sets_roundtrip_bit_identically(
            self, tracks, size, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        mine = []
        for tid, (positions, level, alive, with_patches) in enumerate(tracks):
            tr = Track(tid, level, [np.array(p) for p in positions], alive)
            if with_patches:
                tr.patches = rng.integers(0, 256, (tr.length, size, size)) / 255.0
            mine.append(tr)
        root = tmp_path_factory.mktemp("tracks")
        save_tracks(mine, root)
        back, _ = load_tracks(root)
        assert [(t.id, t.level, t.alive) for t in back] == [
            (t.id, t.level, t.alive) for t in mine]
        for m, b in zip(mine, back):
            assert np.array(b.positions).tobytes() == np.array(m.positions).tobytes()
            if m.patches is None:
                assert b.patches is None
            else:
                assert b.patches.dtype == m.patches.dtype
                assert b.patches.tobytes() == m.patches.tobytes()

    @pytest.mark.parametrize("mangle, field", [
        (lambda d: d.pop("tracks"), r"tracks: missing"),
        (lambda d: d.update(meta=[]), r"meta: expected dict, got list"),
        (lambda d: d.update(format_version=1),
         r"format_version: 1, expected 2; rebuild it with `mvdesc track`"),
        (lambda d: d.update(format_version="1"),
         r"format_version: '1', expected an integer"),
        (lambda d: d["tracks"].append(7), r"tracks\[2\]: not a JSON object"),
        (lambda d: d["tracks"][0].pop("id"), r"tracks\[0\]\.id: missing"),
        (lambda d: d["tracks"][0].update(id="0"),
         r"tracks\[0\]\.id: '0', expected an integer"),
        (lambda d: d["tracks"][1].update(level=-1),
         r"tracks\[1\]\.level: -1, expected at least 0"),
        (lambda d: d["tracks"][0].update(alive=1),
         r"tracks\[0\]\.alive: expected bool, got int"),
        (lambda d: d["tracks"][1].update(level=True),
         r"tracks\[1\]\.level: True, expected an integer"),
        (lambda d: d["tracks"][0].update(positions=[]),
         r"tracks\[0\]\.positions: empty"),
        (lambda d: d["tracks"][0]["positions"].__setitem__(1, [1.0]),
         r"tracks\[0\]\.positions\[1\]: 1 entries, expected 2"),
        (lambda d: d["tracks"][0]["positions"].__setitem__(1, [1.0, "2"]),
         r"tracks\[0\]\.positions\[1\]\[1\]: '2', expected a finite number"),
        (lambda d: d["tracks"][0]["positions"].__setitem__(0, [float("nan"), 2.0]),
         r"tracks\[0\]\.positions\[0\]\[0\]: nan, expected a finite number"),
        (lambda d: d["tracks"][0]["positions"].__setitem__(0, {"x": 1}),
         r"tracks\[0\]\.positions\[0\]: expected list, got dict"),
        (lambda d: d["tracks"][0].update(first_patch=-1),
         r"tracks\[0\]\.first_patch: -1, expected at least 0"),
        (lambda d: d["tracks"][0].update(first_patch="0"),
         r"tracks\[0\]\.first_patch: '0', expected an integer"),
        (lambda d: d["tracks"][0].update(first_patch=1.0),
         r"tracks\[0\]\.first_patch: 1\.0, expected an integer"),
        (lambda d: d["tracks"][0].update(first_patch=1),
         r"tracks\[0\]\.first_patch: 2 patches from 1 run past the 2 in "
         r".*patches\.pgm"),
        (lambda d: d["tracks"][1].update(first_patch=2),
         r"tracks\[1\]\.first_patch: 1 patches from 2 run past the 2 in "),
    ], ids=["no-tracks", "meta-type", "version", "version-type", "track-type",
            "no-id", "id-type", "level-negative", "alive-type", "level-bool",
            "no-positions", "short-position", "string-coordinate",
            "nan-coordinate", "position-type", "first-patch-negative",
            "first-patch-type", "first-patch-float", "first-patch-past-raster",
            "first-patch-at-raster-end"])
    def test_load_names_file_and_field(self, tmp_path, mangle, field):
        tracks = [Track(0, 0, [np.array([20.2, 21.7]), np.array([20.9, 22.1])]),
                  Track(3, 1, [np.array([15.0, 16.0])], alive=False)]
        base = GrayImage(make_texture(np.random.default_rng(106), 64, 3))
        attach_patches(tracks[:1], [build_pyramid(base, 2)] * 2, patch_size=9)
        save_tracks(tracks, tmp_path)
        path = tmp_path / "tracks.json"
        doc = json.loads(path.read_text())
        mangle(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=field) as err:
            load_tracks(tmp_path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("raster, field", [
        (b"P5\n9 17\n255\n" + bytes(9 * 17),
         r"PGM height: 17 is not a multiple of the width 9"),
        (b"P5\n2 4\n255\n" + bytes(8), r"image must be at least 3x3, got 2x4"),
        (b"P5\n9 18\n255\n" + bytes(9 * 18 - 1), r"PGM raster cut short"),
        (b"P5\n9 18\n255\n" + bytes(9 * 18 + 1), r"1 trailing bytes"),
        (b"P2\n9 18\n255\n", r"PGM magic"),
    ], ids=["height-not-multiple", "too-small", "cut", "padded", "foreign"])
    def test_load_names_the_raster_and_field(self, tmp_path, raster, field):
        tracks = [Track(0, 0, [np.array([20.2, 21.7]), np.array([20.9, 22.1])])]
        tracks[0].patches = np.zeros((2, 9, 9))
        save_tracks(tracks, tmp_path)
        path = tmp_path / "patches.pgm"
        path.write_bytes(raster)
        with pytest.raises(ValueError, match=field) as err:
            load_tracks(tmp_path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("shapes, message", [
        ([(2, 9, 9), (1, 11, 11)],
         r"track 1: patches of shape \(1, 11, 11\), expected \(1, 9, 9\)"),
        ([(2, 9, 7), (1, 9, 9)],
         r"track 0: patches of shape \(2, 9, 7\), expected \(2, 7, 7\)"),
        ([(2, 9, 9), (2, 9, 9)],
         r"track 1: patches of shape \(2, 9, 9\), expected \(1, 9, 9\)"),
        ([(2, 9, 9), (9, 9)],
         r"track 1: patches of shape \(9, 9\), expected \(1, 9, 9\)"),
    ], ids=["mixed-sizes", "non-square", "count-unlike-positions", "flat"])
    def test_save_refuses_patches_it_cannot_stack(self, tmp_path, shapes,
                                                   message):
        tracks = [Track(0, 0, [np.array([20.2, 21.7]), np.array([20.9, 22.1])]),
                  Track(1, 0, [np.array([15.0, 16.0])])]
        for tr, shape in zip(tracks, shapes):
            tr.patches = np.full(shape, 0.5)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            save_tracks(tracks, out)
        assert not out.exists()

    @pytest.mark.parametrize("text, field", [
        ("[]", "not a JSON object"), ("{", "Expecting property name")])
    def test_load_rejects_a_foreign_document(self, tmp_path, text, field):
        (tmp_path / "tracks.json").write_text(text)
        with pytest.raises(ValueError, match=field) as err:
            load_tracks(tmp_path)
        assert str(err.value).startswith(f"{tmp_path / 'tracks.json'}: ")

    def test_positions_only_tracks_roundtrip(self, tmp_path):
        tracks = [Track(7, 2, [np.array([3.5, 4.5])])]
        save_tracks(tracks, tmp_path)
        assert [f.name for f in tmp_path.iterdir()] == ["tracks.json"]
        back, meta = load_tracks(tmp_path)
        assert meta == {}
        assert back[0].patches is None
        np.testing.assert_array_equal(back[0].positions[0], [3.5, 4.5])
