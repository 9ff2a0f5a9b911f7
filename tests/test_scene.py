"""Surfaces, rendering, ground-truth correspondence, and dataset I/O."""

import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvdesc.scene as scene
from mvdesc.bench import run_benchmark
from mvdesc.cli import main
from mvdesc.geometry import PinholeCamera, Pose, axis_angle_rotation, look_at
from mvdesc.image import GrayImage, write_pgm
from mvdesc.scene import (HeightfieldSurface, OCCLUDED, OUT_OF_VIEW,
                          PlaneSurface, RenderError, RenderedView, SceneModel,
                          UNDEFINED, VISIBLE, build_scene, default_scene_spec,
                          generate_dataset, ground_truth_correspondence,
                          ground_truth_correspondences, load_dataset,
                          make_texture, orbit_poses, read_depth, render_view,
                          write_depth)

import oracles
from conftest import small_spec


def catmull_rom(p, u):
    """Reference 1-D Catmull-Rom interpolation of 4 control values."""
    return 0.5 * ((2.0 * p[1])
                  + (-p[0] + p[2]) * u
                  + (2.0 * p[0] - 5.0 * p[1] + 4.0 * p[2] - p[3]) * u * u
                  + (-p[0] + 3.0 * p[1] - 3.0 * p[2] + p[3]) * u ** 3)


class TestTexture:
    def test_deterministic_and_bounded(self):
        a = make_texture(np.random.default_rng(5), 64, 3)
        b = make_texture(np.random.default_rng(5), 64, 3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (64, 64)
        assert a.min() == pytest.approx(0.02) and a.max() == pytest.approx(0.98)

    def test_seeds_differ(self):
        a = make_texture(np.random.default_rng(5), 64, 3)
        c = make_texture(np.random.default_rng(6), 64, 3)
        assert not np.array_equal(a, c)


def bilinear_wrap(tex, x, y):
    """Oracle: the texture lookup on the unpadded torus, wrapping every
    index modulo the texture side."""
    n = tex.shape[0]
    x = np.mod(x, n)
    y = np.mod(y, n)
    x0 = np.floor(x).astype(np.intp) % n
    y0 = np.floor(y).astype(np.intp) % n
    x1 = (x0 + 1) % n
    y1 = (y0 + 1) % n
    fx = x - np.floor(x)
    fy = y - np.floor(y)
    return (tex[y0, x0] * (1 - fx) * (1 - fy) + tex[y0, x1] * fx * (1 - fy)
            + tex[y1, x0] * (1 - fx) * fy + tex[y1, x1] * fx * fy)


def clipped_height(surf, x, y):
    """Oracle: the heightfield from 16 clipped index pairs, with the
    fractional position forced to 0 or 1 outside the lattice."""
    c = surf.coefficients
    n = c.shape[0]
    u = (np.asarray(x, dtype=np.float64) - surf.x0) / surf.spacing
    v = (np.asarray(y, dtype=np.float64) - surf.x0) / surf.spacing
    iu = np.floor(u).astype(np.intp)
    iv = np.floor(v).astype(np.intp)
    fu = u - iu
    fv = v - iv
    fu = np.where(iu < 0, 0.0, np.where(iu > n - 2, 1.0, fu))
    fv = np.where(iv < 0, 0.0, np.where(iv > n - 2, 1.0, fv))
    iu = np.clip(iu, 0, n - 2)
    iv = np.clip(iv, 0, n - 2)
    wu = surf._weights(fu)
    wv = surf._weights(fv)
    out = np.zeros(np.broadcast(u, v).shape)
    for j in range(4):
        rows = np.clip(iv + j - 1, 0, n - 1)
        acc = np.zeros_like(out)
        for i in range(4):
            cols = np.clip(iu + i - 1, 0, n - 1)
            acc += wu[i] * c[rows, cols]
        out += wv[j] * acc
    return out


@st.composite
def texture_lookups(draw):
    """A random square texture, a texel scale, and local (x, y) positions:
    ones that np.mod rounds up to the side n, +-1e6, signed zeros, whole
    and wrapped texel positions, and arbitrary floats."""
    n = draw(st.integers(2, 16))
    tex = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random((n, n))
    tpm = draw(st.sampled_from([1.0, 0.5, 96.0]))
    special = st.sampled_from([0.0, -0.0, -1e-17, -1e-300, -5e-324, 1e6, -1e6,
                               (n - 1) / tpm, n / tpm, -n / tpm, 2 * n / tpm])
    coord = st.one_of(special, st.floats(-3.0 * n, 3.0 * n),
                      st.floats(-1e6, 1e6))
    xy = np.array(draw(st.lists(st.tuples(coord, coord), min_size=1,
                                max_size=24)))
    return SceneModel(PlaneSurface(), tex, tpm), xy


@st.composite
def heightfield_queries(draw):
    """A random lattice and world positions: beyond each side, on the last
    lattice line n - 1, on other lattice lines, signed zeros, +-1e6, and
    arbitrary floats."""
    n = draw(st.integers(6, 14))
    spacing = draw(st.sampled_from([0.25, 0.5, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    surf = HeightfieldSurface(rng.uniform(-0.3, 0.3, (n, n)), (n - 1) * spacing)
    lattice = st.one_of(
        st.sampled_from([0.0, n - 1.0, n - 2.0, -1.0, float(n), n - 1.5]),
        st.integers(-3, n + 2).map(float), st.floats(-3.0, n + 2.0))
    world = st.one_of(lattice.map(lambda u: surf.x0 + u * surf.spacing),
                      st.sampled_from([0.0, -0.0, 1e6, -1e6]),
                      st.floats(-1e6, 1e6))
    xy = np.array(draw(st.lists(st.tuples(world, world), min_size=1,
                                max_size=24)))
    return surf, xy


class TestKernelOracles:
    """Texture lookup and heightfield evaluation equal their pre-gather
    forms byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(texture_lookups())
    def test_texture_lookup_equals_wrap_oracle(self, case):
        model, xy = case
        x, y = xy[:, 0], xy[:, 1]
        want = bilinear_wrap(model.texture, x * model.texels_per_meter,
                             y * model.texels_per_meter)
        assert model.albedo(x, y).tobytes() == want.tobytes()

    def test_coordinate_rounded_up_to_the_side_reads_column_zero(self):
        tex = np.random.default_rng(70).random((8, 8))
        model = SceneModel(PlaneSurface(), tex, 1.0)
        assert np.mod(-1e-17, 8) == 8.0  # the case the padded column serves
        x = np.array([-1e-17, 0.0, 3.25])
        y = np.array([2.5, -1e-17, -1e-17])
        assert model.albedo(x, y).tobytes() == bilinear_wrap(tex, x, y).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(heightfield_queries())
    def test_height_equals_clipped_gather_oracle(self, case):
        surf, xy = case
        x, y = xy[:, 0], xy[:, 1]
        want = clipped_height(surf, x, y)
        assert surf.height(x, y).tobytes() == want.tobytes()

    def test_height_at_the_last_lattice_line_and_beyond(self):
        rng = np.random.default_rng(71)
        surf = HeightfieldSurface(rng.uniform(-0.3, 0.3, (9, 9)), 2.0)
        u = np.array([8.0, 8.5, 9.0, -0.5, -1.0, 0.0, 7.0, 7.75])
        x = surf.x0 + u * surf.spacing
        assert np.all((x - surf.x0) / surf.spacing == u)  # exact lattice units
        xs, ys = np.meshgrid(x, x)
        assert surf.height(xs, ys).tobytes() == clipped_height(surf, xs, ys).tobytes()


class TestPlaneSurface:
    def test_intersection_formula(self):
        rng = np.random.default_rng(60)
        surf = PlaneSurface()
        o = np.array([[0.0, 0.0, 2.0], [1.0, -1.0, 0.5], [0.0, 0.0, 1.0]])
        d = np.array([[0.0, 0.0, -1.0],
                      [0.6, 0.0, -0.8],
                      [1.0, 0.0, 0.0]])  # parallel ray misses
        t = surf.intersect(o, d)
        assert t[0] == pytest.approx(2.0)
        assert t[1] == pytest.approx(0.5 / 0.8)
        assert t[2] == math.inf

    def test_behind_origin_misses(self):
        surf = PlaneSurface()
        t = surf.intersect(np.array([[0.0, 0.0, 1.0]]),
                           np.array([[0.0, 0.0, 1.0]]))
        assert t[0] == math.inf


class TestHeightfield:
    def build(self, rng=None, n=10, amp=0.3, extent=2.0):
        rng = rng or np.random.default_rng(61)
        coefs = (rng.random((n, n)) - 0.5) * 2.0 * amp
        return HeightfieldSurface(coefs, extent)

    def test_interior_matches_bicubic_oracle(self):
        surf = self.build()
        c = surf.coefficients
        rng = np.random.default_rng(62)
        for _ in range(60):
            # stay a full cell away from the boundary to avoid tap clamping
            u = rng.uniform(1.0, c.shape[0] - 3.0)
            v = rng.uniform(1.0, c.shape[0] - 3.0)
            x = surf.x0 + u * surf.spacing
            y = surf.x0 + v * surf.spacing
            iu, iv = int(u), int(v)
            fu, fv = u - iu, v - iv
            cols = [catmull_rom(c[iv - 1 + j, iu - 1:iu + 3], fu)
                    for j in range(4)]
            want = catmull_rom(np.array(cols), fv)
            assert surf.height(np.array(x), np.array(y)) \
                == pytest.approx(want, abs=1e-12)

    def test_passes_through_lattice_values(self):
        surf = self.build()
        c = surf.coefficients
        for i, j in ((3, 4), (5, 5), (6, 3)):
            x = surf.x0 + j * surf.spacing
            y = surf.x0 + i * surf.spacing
            assert surf.height(np.array(x), np.array(y)) \
                == pytest.approx(c[i, j], abs=1e-12)

    def test_flattens_outside_extent(self):
        surf = self.build()
        far = np.array([10.0, -8.0, 3.0, surf.extent])
        np.testing.assert_allclose(surf.height(far, far), 0.0, atol=1e-15)

    def test_zeroed_border_rings(self):
        coefs = np.full((8, 8), 0.5)
        surf = HeightfieldSurface(coefs, 2.0)
        assert surf.coefficients[:2].max() == 0.0
        assert surf.coefficients[-2:].max() == 0.0
        assert surf.coefficients[1, 1] == 0.0
        assert surf.coefficients[3, 3] == 0.5

    def test_rejects_small_lattice(self):
        with pytest.raises(ValueError):
            HeightfieldSurface(np.zeros((5, 5)), 2.0)

    def test_intersection_lies_on_surface(self):
        surf = self.build()
        rng = np.random.default_rng(63)
        eyes = np.array([[0.4, -0.3, 2.0], [1.0, 1.0, 1.5], [-0.8, 0.2, 2.5]])
        for eye in eyes:
            target = np.array([rng.uniform(-0.5, 0.5),
                               rng.uniform(-0.5, 0.5), 0.0])
            d = target - eye
            d /= np.linalg.norm(d)
            t = surf.intersect(eye[None, :], d[None, :])[0]
            assert np.isfinite(t)
            p = eye + t * d
            resid = p[2] - float(surf.height(p[0], p[1]))
            assert abs(resid) < 1e-8

    def test_intersection_picks_first_hit(self):
        # a tall ridge: a grazing ray must hit the near slope, not pass it
        coefs = np.zeros((10, 10))
        coefs[4:6, 4:6] = 0.6
        surf = HeightfieldSurface(coefs, 2.0)
        eye = np.array([-1.4, -0.05, 0.55])
        d = np.array([1.0, 0.05, -0.12])
        d /= np.linalg.norm(d)
        t = surf.intersect(eye[None, :], d[None, :])[0]
        p = eye + t * d
        assert p[0] < 0.0  # stopped on the near side of the bump
        assert abs(p[2] - float(surf.height(p[0], p[1]))) < 1e-8

    def test_flat_region_matches_plane_depth(self):
        surf = self.build(extent=1.0)  # small bump region
        plane = PlaneSurface()
        eye = np.array([[2.5, 2.5, 1.0]])
        d = np.array([[0.2, 0.2, -1.0]])
        d = d / np.linalg.norm(d)
        np.testing.assert_allclose(surf.intersect(eye, d),
                                   plane.intersect(eye, d), atol=1e-7)


class TestRender:
    def overhead(self):
        return Pose(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, 1.8]))

    def test_plane_depth_and_quantization(self):
        spec = small_spec("r0", "plane", 70)
        sc = build_scene(spec)
        cam = PinholeCamera(170.0, 79.5, 59.5, 160, 120)
        view = render_view(sc, cam, self.overhead())
        assert view.depth.shape == (120, 160)
        assert np.isfinite(view.depth).all()
        # image was quantized at render time: u8 roundtrip is exact
        np.testing.assert_array_equal(
            view.image.data,
            np.round(view.image.data * 255.0) / 255.0)

    def test_contrast_changes_mean(self):
        spec = small_spec("r1", "plane", 71)
        sc = build_scene(spec)
        cam = PinholeCamera(170.0, 79.5, 59.5, 160, 120)
        plainv = render_view(sc, cam, self.overhead())
        dark = render_view(sc, cam, self.overhead(), {"a": 0.5, "b": 0.0})
        assert dark.image.data.mean() < 0.7 * plainv.image.data.mean()

    def test_noise_needs_rng_and_is_seeded(self):
        spec = small_spec("r2", "plane", 72)
        sc = build_scene(spec)
        cam = PinholeCamera(170.0, 79.5, 59.5, 160, 120)
        with pytest.raises(ValueError):
            render_view(sc, cam, self.overhead(), {"noise_sigma": 0.01})
        a = render_view(sc, cam, self.overhead(), {"noise_sigma": 0.01},
                        rng=np.random.default_rng(1))
        b = render_view(sc, cam, self.overhead(), {"noise_sigma": 0.01},
                        rng=np.random.default_rng(1))
        np.testing.assert_array_equal(a.image.data, b.image.data)

    def test_camera_looking_away_raises(self):
        spec = small_spec("r3", "plane", 73)
        sc = build_scene(spec)
        cam = PinholeCamera(170.0, 79.5, 59.5, 160, 120)
        up = Pose(np.diag([1.0, 1.0, 1.0]), np.array([0.0, 0.0, -1.8]))
        with pytest.raises(RenderError):
            render_view(sc, cam, up)


class TestCorrespondenceStatuses:
    def test_out_of_view(self, plane_ds):
        # a quarter of the way around the orbit the azimuth swing peaks
        src = plane_ds.frames[0]
        dst = plane_ds.frames[len(plane_ds.frames) // 4]
        statuses = set()
        for x in range(2, src.camera.width, 6):
            c = ground_truth_correspondence(src, dst, (x, 2))
            statuses.add(c.status)
        assert OUT_OF_VIEW in statuses or VISIBLE in statuses
        found = [ground_truth_correspondence(src, dst, (x, y)).status
                 for x in range(2, 158, 3) for y in (2, 60, 117)]
        assert OUT_OF_VIEW in found

    def test_undefined_where_source_misses(self):
        # a shallow view of the plane has sky above the horizon
        spec = small_spec("h0", "plane", 74)
        sc = build_scene(spec)
        cam = PinholeCamera(170.0, 79.5, 59.5, 160, 120)
        low = look_at(np.array([2.0, 0.0, 0.12]), np.zeros(3))
        side = render_view(sc, cam, low, min_hit_fraction=0.2)
        assert not np.isfinite(side.depth).all()
        other = render_view(sc, cam, self_pose_overhead())
        miss_y = int(np.argwhere(~np.isfinite(side.depth[:, 80]))[0, 0])
        c = ground_truth_correspondence(side, other, (80, miss_y))
        assert c.status == UNDEFINED

    def test_occlusion_behind_a_ridge(self):
        # overhead camera sees the far slope; a low side camera cannot
        coefs = np.zeros((10, 10))
        coefs[4:6, 4:6] = 0.5
        surf = HeightfieldSurface(coefs, 2.0)
        tex = make_texture(np.random.default_rng(75), 128, 3)
        sc = scene.SceneModel(surf, tex, 96.0)
        cam = PinholeCamera(170.0, 79.5, 59.5, 160, 120)
        top = render_view(sc, cam, self_pose_overhead())
        low = render_view(sc, cam,
                          look_at(np.array([-1.6, 0.0, 0.45]), np.zeros(3)),
                          min_hit_fraction=0.2)
        statuses = []
        for x in range(40, 120, 2):
            for y in range(30, 90, 2):
                c = ground_truth_correspondence(top, low, (x, y))
                statuses.append(c.status)
        assert statuses.count(OCCLUDED) > 10
        assert statuses.count(VISIBLE) > 10

    def test_visible_depths_agree(self, relief_ds):
        src, dst = relief_ds.frames[0], relief_ds.tests[0]
        seen = 0
        for x in range(20, 140, 9):
            for y in range(20, 100, 9):
                c = oracles.ground_truth_correspondence(src, dst, (x, y))
                if c.status != VISIBLE:
                    continue
                seen += 1
                assert c.depth_target <= oracles._interp_depth(
                    dst.depth, c.xy[0], c.xy[1]) * (1.0 + 0.01) + 1e-12
        assert seen > 20


def self_pose_overhead():
    return Pose(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, 1.8]))


def assert_correspondences_match(src, dst, xy):
    """The batch, the one-row form and the per-point oracle on each row, bit
    for bit."""
    uv, status = ground_truth_correspondences(src, dst, xy)
    assert uv.shape == (len(xy), 2) and status.shape == (len(xy),)
    want = [oracles.ground_truth_correspondence(src, dst, q) for q in xy]
    assert status.tolist() == [c.status for c in want]
    assert uv.tobytes() == np.reshape([c.xy for c in want], (-1, 2)).tobytes()
    one = [ground_truth_correspondence(src, dst, q) for q in xy]
    assert [c.status for c in one] == [c.status for c in want]
    assert np.reshape([c.xy for c in one], (-1, 2)).tobytes() == uv.tobytes()
    return status


@st.composite
def correspondence_cases(draw):
    """Two views of a small camera over noisy depth with discontinuities and
    NaN or inf holes; the target pose is the source's, near it, or anywhere
    (often turned away, so points land behind it). Source pixels sit at
    integer and fractional positions, on the last column and row, and off
    the image."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w, h = draw(st.integers(3, 24)), draw(st.integers(3, 18))
    cam = PinholeCamera(draw(st.floats(5.0, 40.0)), (w - 1) / 2.0,
                        (h - 1) / 2.0, w, h)

    def depth():
        d = 2.0 * (1.0 + 0.004 * rng.random((h, w)))
        d[rng.random((h, w)) < 0.1] *= 1.5
        d[rng.random((h, w)) < 0.1] = rng.choice([np.nan, np.inf])
        return d

    src_pose = Pose(axis_angle_rotation(rng.normal(size=3), rng.uniform(0, 3)),
                    rng.normal(size=3))
    move = draw(st.sampled_from(["same", "near", "anywhere"]))
    if move == "same":
        dst_pose = src_pose
    else:
        angle, shift = (0.05, 0.05) if move == "near" else (np.pi, 2.0)
        turn = axis_angle_rotation(rng.normal(size=3), rng.uniform(0, angle))
        dst_pose = Pose(turn @ src_pose.r,
                        turn @ src_pose.t + rng.uniform(-shift, shift, 3))
    src_depth = depth()
    views = [RenderedView(GrayImage(np.zeros((h, w))), d, cam, pose)
             for d, pose in ((src_depth, src_pose),
                             (src_depth if move == "same" else depth(), dst_pose))]
    xy = rng.uniform(-2.0, max(w, h) + 1.0, (draw(st.integers(0, 30)), 2))
    kind = rng.integers(0, 4, len(xy))
    xy[kind == 0] = np.round(xy[kind == 0])
    xy[kind == 1, 0] = w - 1
    xy[kind == 2, 1] = h - 1
    return views[0], views[1], xy


class TestBatchedCorrespondence:
    @settings(max_examples=200, deadline=None)
    @given(case=correspondence_cases())
    def test_equals_per_point_oracle(self, case):
        assert_correspondences_match(*case)

    def test_rendered_views_equal_per_point(self, relief_ds):
        src = relief_ds.frames[0]
        h, w = src.depth.shape
        xs = np.r_[np.arange(-2, w + 2, 7), w - 1, 50.25]
        ys = np.r_[np.arange(-2, h + 2, 7), h - 1, 40.5]
        xy = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2).astype(float)
        seen = set()
        for dst in relief_ds.tests + relief_ds.frames[1:]:
            seen.update(assert_correspondences_match(src, dst, xy).tolist())
        assert seen == {VISIBLE, OCCLUDED, OUT_OF_VIEW, UNDEFINED}

    def test_target_turned_away_sees_nothing(self, plane_ds):
        src = plane_ds.frames[0]
        turn = axis_angle_rotation([0.0, 1.0, 0.0], np.pi)
        away = Pose(turn @ src.pose.r, turn @ src.pose.t)  # same center
        dst = RenderedView(src.image, src.depth, src.camera, away)
        xy = np.array([[10.0, 10.0], [80.5, 60.25], [159.0, 119.0]])
        status = assert_correspondences_match(src, dst, xy)
        assert status.tolist() == [OUT_OF_VIEW] * 3

    def test_empty_batch(self, plane_ds):
        uv, status = ground_truth_correspondences(
            plane_ds.frames[0], plane_ds.tests[0], np.zeros((0, 2)))
        assert uv.shape == (0, 2) and status.shape == (0,)


def interp_depth(depth, x, y):
    """The scalar oracle, after checking that the library's array form
    gives the same value bit for bit, and None where it does."""
    want = oracles._interp_depth(depth, x, y)
    got, ok = scene._interp_depths(depth, np.array([x]), np.array([y]))
    assert bool(ok[0]) == (want is not None)
    if want is not None:
        assert got[0].tobytes() == np.float64(want).tobytes()
    return want


class TestInterpDepth:
    def test_integer_positions_read_exactly(self):
        depth = np.array([[1.0, 9.0], [1.0, 9.0]])
        assert interp_depth(depth, 0.0, 0.0) == 1.0
        assert interp_depth(depth, 1.0, 1.0) == 9.0

    def test_discontinuity_rejected_between_samples(self):
        depth = np.array([[1.0, 9.0], [1.0, 9.0]])
        assert interp_depth(depth, 0.5, 0.5) is None

    def test_smooth_support_interpolates(self):
        depth = np.array([[1.0, 1.004], [1.002, 1.006]])
        got = interp_depth(depth, 0.5, 0.5)
        assert got == pytest.approx(1.003, abs=1e-12)

    def test_nonfinite_support_rejected(self):
        depth = np.array([[1.0, np.inf], [1.0, 1.0]])
        assert interp_depth(depth, 0.5, 0.5) is None
        assert interp_depth(depth, 0.0, 0.5) \
            == pytest.approx(1.0)  # finite column only


class TestDepthIO:
    def test_roundtrip_with_misses(self, tmp_path):
        rng = np.random.default_rng(76)
        depth = rng.uniform(0.5, 3.0, (6, 9))
        depth[2, 3] = np.inf
        write_depth(tmp_path / "d", depth)
        back = read_depth(tmp_path / "d")
        assert back.shape == depth.shape
        assert np.isinf(back[2, 3])
        np.testing.assert_allclose(back, depth.astype(np.float32), rtol=0.0)

    def test_rejects_garbage(self, tmp_path):
        (tmp_path / "x").write_bytes(b"0123456789abcdef")
        with pytest.raises(ValueError):
            read_depth(tmp_path / "x")

    @pytest.mark.parametrize("value", [np.nan, 0.0, -1.5, -np.inf],
                             ids=["nan", "zero", "negative", "minus-inf"])
    def test_refuses_a_pixel_that_is_no_depth(self, tmp_path, value):
        # ray depth is positive; inf, a miss, is the one other value
        depth = np.full((3, 4), 2.0)
        depth[1, 2] = value
        write_depth(tmp_path / "d", depth)
        with pytest.raises(ValueError) as exc:
            read_depth(tmp_path / "d")
        assert str(exc.value) == (f"{tmp_path / 'd'}: depth raster[1, 2]: "
                                  f"{np.float32(value)}, expected above 0")


class TestTrajectories:
    def test_orbit_count_and_radii(self):
        spec = default_scene_spec("t", seed=1)
        poses = orbit_poses(spec)
        assert len(poses) == spec["n_frames"]
        for p in poses:
            r = np.linalg.norm(p.center)
            lo = spec["distance"] * (1.0 - spec["orbit_distance_amp"]) - 1e-9
            hi = spec["distance"] * (1.0 + spec["orbit_distance_amp"]) + 1e-9
            assert lo <= r <= hi

    def test_heldout_views_keep_their_distance(self):
        spec = default_scene_spec("t", seed=1)
        held = scene.test_poses(spec)
        assert len(held) == len(spec["test_azimuths_deg"])
        min_off = math.radians(spec["min_test_offset_deg"])
        train = np.array([p.center / np.linalg.norm(p.center)
                          for p in orbit_poses(spec)])
        for p in held:
            d = p.center / np.linalg.norm(p.center)
            assert float(np.max(train @ d)) <= math.cos(min_off) + 1e-12

    def test_too_close_heldout_view_rejected(self):
        spec = default_scene_spec("t", seed=1)
        spec["test_azimuths_deg"] = [0.0]
        spec["test_elevations_deg"] = [spec["elevation_deg"]]
        spec["test_distance_scale"] = [1.0]
        with pytest.raises(ValueError,
                           match=r"^test_azimuths_deg\[0\]: 0\.0, "):
            scene._check_spec(spec)


@pytest.fixture(scope="module")
def plane_dir(plane_ds, tmp_path_factory):
    """``plane_ds`` on disk, for tests that mangle a copy of it."""
    root = tmp_path_factory.mktemp("plane_dir")
    generate_dataset(dict(plane_ds.spec), root)
    return root


class TestDataset:
    def test_written_files_reload_identically(self, plane_ds, tmp_path):
        spec = dict(plane_ds.spec)
        root = tmp_path / "ds"
        generate_dataset(spec, root)
        back = load_dataset(root)
        assert back.name == plane_ds.name
        assert len(back.frames) == len(plane_ds.frames)
        assert len(back.tests) == len(plane_ds.tests)
        for mine, loaded in zip(plane_ds.frames, back.frames):
            np.testing.assert_array_equal(loaded.image.data, mine.image.data)
            np.testing.assert_array_equal(
                loaded.depth, mine.depth.astype(np.float32).astype(np.float64))
            np.testing.assert_array_equal(loaded.pose.r, mine.pose.r)
            np.testing.assert_array_equal(loaded.pose.t, mine.pose.t)

    def test_manifest_carries_spec_and_camera(self, plane_ds, tmp_path):
        root = tmp_path / "ds"
        generate_dataset(dict(plane_ds.spec), root)
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["spec"]["name"] == plane_ds.name
        assert manifest["camera"]["width"] == plane_ds.camera.width
        assert len(manifest["frames"]) == len(plane_ds.frames)

    @pytest.mark.parametrize("mangle, field", [
        (lambda m: m.update(format_version=2), r"format_version: 2, expected 1"),
        (lambda m: m.pop("format_version"), r"format_version: missing"),
        (lambda m: m.update(spec="plane"), r"spec: expected dict, got str"),
        (lambda m: m.pop("camera"), r"camera: missing"),
        (lambda m: m["camera"].update(width="160"),
         r"camera\.width: '160', expected an integer"),
        (lambda m: m["camera"].update(focal=float("inf")),
         r"camera\.focal: inf, expected a finite number"),
        (lambda m: m["camera"].update(focal=-1.0),
         r"camera: focal length must be positive"),
        (lambda m: m.update(tests={}), r"tests: expected list, got dict"),
        (lambda m: m["frames"].__setitem__(2, []),
         r"frames\[2\]: not a JSON object"),
        (lambda m: m["frames"][0].pop("image"), r"frames\[0\]\.image: missing"),
        (lambda m: m["tests"][1].update(depth=None),
         r"tests\[1\]\.depth: expected str, got NoneType"),
        (lambda m: m["frames"][3]["pose"].update(t=[0.0, 1.0]),
         r"frames\[3\]\.pose\.t: 2 entries, expected 3"),
        (lambda m: m["frames"][3]["pose"]["t"].__setitem__(1, "x"),
         r"frames\[3\]\.pose\.t\[1\]: 'x', expected a finite number"),
        (lambda m: m["frames"][1]["pose"]["r"].pop(),
         r"frames\[1\]\.pose\.r: 2 entries, expected 3"),
        (lambda m: m["frames"][1]["pose"]["r"][2].__setitem__(0, float("nan")),
         r"frames\[1\]\.pose\.r\[2\]\[0\]: nan, expected a finite number"),
        (lambda m: m["frames"][0]["pose"].update(
            r=[[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
         r"frames\[0\]\.pose: pose rotation is not a proper rotation matrix"),
        (lambda m: m["frames"][0].update(photometric=[1.0]),
         r"frames\[0\]\.photometric: expected dict, got list"),
        (lambda m: m["camera"].update(width=m["camera"]["width"] + 1),
         r"frames\[0\]\.image: 'frames/frame_000\.pgm' is \d+x\d+, expected "
         r"the camera's "),
    ], ids=["version", "no-version", "spec-type", "no-camera", "width-type",
            "focal-inf", "focal-negative", "tests-type", "view-type",
            "no-image", "depth-type", "short-translation",
            "string-translation", "two-rows",
            "nan-rotation", "not-a-rotation", "photometric-type",
            "camera-size"])
    def test_load_names_file_and_field(self, plane_ds, plane_dir, tmp_path,
                                       mangle, field):
        shutil.copytree(plane_dir, tmp_path, dirs_exist_ok=True)
        manifest = json.loads(json.dumps(plane_ds.manifest))
        mangle(manifest)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=field) as err:
            load_dataset(tmp_path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("role, key, name", [
        ("frames", "image", "../ds/frames/frame_000.pgm"),
        ("tests", "depth", "tests/../../ds/tests/test_001.depth"),
        ("frames", "depth", "ABSOLUTE"),
        ("frames", "image", "frames/frame_099.pgm"),
        ("tests", "image", "tests"),
        ("frames", "image", ""),
    ], ids=["parent", "parent-inside", "absolute", "no-file", "directory",
            "empty"])
    def test_view_path_outside_the_dataset_is_refused(
            self, plane_ds, plane_dir, tmp_path, monkeypatch, role, key, name):
        # every named file exists but the last three, and none may be read
        root = tmp_path / "ds"
        shutil.copytree(plane_dir, root)
        if name == "ABSOLUTE":
            name = str(root / plane_ds.manifest[role][0][key])
        manifest = json.loads(json.dumps(plane_ds.manifest))
        manifest[role][0][key] = name
        (root / "manifest.json").write_text(json.dumps(manifest))

        def read(path):
            raise AssertionError(f"read {path} before the manifest was checked")
        monkeypatch.setattr("mvdesc.scene.read_pgm", read)
        monkeypatch.setattr("mvdesc.scene.read_depth", read)
        with pytest.raises(ValueError) as err:
            load_dataset(root)
        assert str(err.value) == (
            f"{root / 'manifest.json'}: {role}[0].{key}: {name!r}, expected a "
            f"file in the dataset directory")

    @pytest.mark.parametrize("kind, index", [("frames", 2), ("tests", 0)])
    @pytest.mark.parametrize("field", ["image", "depth"])
    def test_view_of_another_size_names_the_file(self, plane_ds, tmp_path,
                                                 kind, index, field):
        root = tmp_path / "ds"
        generate_dataset(dict(plane_ds.spec), root)
        name = plane_ds.manifest[kind][index][field]
        path = root / name
        if field == "image":
            write_pgm(GrayImage(np.full((40, 50), 0.5)), path)
        else:
            write_depth(path, np.ones((40, 50)))
        cam = plane_ds.camera
        with pytest.raises(ValueError) as err:
            load_dataset(root)
        assert str(err.value) == (
            f"{root / 'manifest.json'}: {kind}[{index}].{field}: {name!r} is "
            f"50x40, expected the camera's {cam.width}x{cam.height}")

    def test_photometric_jitter_varies_between_frames(self, plane_ds):
        gains = {v.photometric["a"] for v in plane_ds.frames}
        assert len(gains) == len(plane_ds.frames)

    def test_unknown_surface_kind(self):
        with pytest.raises(ValueError):
            build_scene(default_scene_spec("x", kind="torus", seed=0))

    @pytest.mark.parametrize("spec, field", [
        ({"name": 3}, "name: expected str, got int"),
        ({"kind": "torus"}, "kind: 'torus', expected one of ('plane', "),
        ({"seed": -1}, "seed: -1, expected at least 0"),
        ({"seed": 1.5}, "seed: 1.5, expected an integer"),
        ({"resolution": [160]}, "resolution: 1 entries, expected 2"),
        ({"resolution": [160, 2]}, "resolution[1]: 2, expected at least 3"),
        ({"focal": "x"}, "focal: 'x', expected a finite number"),
        ({"focal": 0}, "focal: 0, expected above 0"),
        ({"distance": "far"}, "distance: 'far', expected a finite number"),
        ({"elevation_deg": float("nan")},
         "elevation_deg: nan, expected a finite number"),
        ({"orbit_distance_amp": None},
         "orbit_distance_amp: None, expected a finite number"),
        ({"test_azimuths_deg": [0.0, "x"], "test_elevations_deg": [46.0, 44.0],
          "test_distance_scale": [1.0, 1.0]},
         "test_azimuths_deg[1]: 'x', expected a finite number"),
        ({"test_distance_scale": [1.0, 1.05, 0.0, 1.1, 1.0, 1.05]},
         "test_distance_scale[2]: 0.0, expected above 0"),
        ({"min_test_offset_deg": -1}, "min_test_offset_deg: -1, expected at "
                                      "least 0"),
        ({"texture_size": 0}, "texture_size: 0, expected at least 2"),
        ({"texture_size": 1}, "texture_size: 1, expected at least 2"),
        ({"texture_octaves": 0}, "texture_octaves: 0, expected at least 1"),
        ({"texels_per_meter": 0}, "texels_per_meter: 0, expected above 0"),
        ({"heightfield_grid": 5}, "heightfield_grid: 5, expected at least 6"),
        ({"heightfield_amplitude": -0.1},
         "heightfield_amplitude: -0.1, expected at least 0"),
        ({"extent": 0.0}, "extent: 0.0, expected above 0"),
        ({"contrast_a_range": [0.0, 1.0]},
         "contrast_a_range[0]: 0.0, expected above 0"),
        ({"contrast_a_range": [1.1, 0.85]},
         "contrast_a_range: [1.1, 0.85], expected the low end first"),
        ({"contrast_b_range": [0.04, -0.04]},
         "contrast_b_range: [0.04, -0.04], expected the low end first"),
        ({"contrast_b_range": [0.0]}, "contrast_b_range: 1 entries, expected 2"),
        ({"noise_sigma": -1}, "noise_sigma: -1, expected at least 0"),
        ({"test_azimuths_deg": [], "test_elevations_deg": [],
          "test_distance_scale": []}, "test_azimuths_deg: empty"),
        ({"test_azimuths_deg": [40.0], "test_elevations_deg": [65.0],
          "test_distance_scale": [1.0]},
         "test_azimuths_deg[0]: 40.0, expected a view at least 15.0 deg from "
         "the training orbit (it is 1.5 deg)"),
    ], ids=["name-type", "unknown-kind", "negative-seed", "fractional-seed",
            "one-resolution", "tiny-resolution", "focal-type", "zero-focal",
            "distance-type", "nan-elevation", "null-amplitude",
            "azimuth-type", "zero-distance-scale", "negative-offset",
            "no-texture", "one-texel", "no-octaves", "no-texels",
            "coarse-heightfield", "negative-amplitude", "no-extent",
            "zero-contrast", "contrast-a-order", "contrast-b-order",
            "short-contrast-b", "negative-noise", "no-test-views",
            "test-view-on-the-orbit"])
    def test_bad_field_refused_before_any_output(self, tmp_path, capsys,
                                                 spec, field):
        # one line naming the field, no traceback and no directory, from
        # both the generate command and a benchmark scene
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["generate", "--out", str(tmp_path / "ds"),
                     "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(field) and err.count("\n") == 1
        assert not (tmp_path / "ds").exists()
        with pytest.raises(ValueError) as exc:
            run_benchmark({"scenes": [{"name": "s", **spec}]}, tmp_path / "b")
        assert str(exc.value).startswith(f"scenes[0].{field}")
        assert not (tmp_path / "b").exists()
