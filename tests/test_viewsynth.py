"""Local surface lifting, view synthesis, and max-out aggregation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvdesc.geometry import PinholeCamera, Pose, axis_angle_rotation, rot_z
from mvdesc.hog import DescriptorParams, normalize_density
from mvdesc.image import GrayImage, bilinear_sample, level_to_base
from mvdesc.matching import DescriptorDatabase, match_all
from mvdesc.viewsynth import (LocalSurface, ReprojectionOutOfBounds,
                              _lattice_normals, aggregate_descriptor,
                              lift_surfaces, patch_density, sample_rotations,
                              select_keyframes, synthesize_patch,
                              synthesize_views, view_descriptors)

import oracles


def overhead_camera():
    return PinholeCamera(170.0, 79.5, 59.5, 160, 120)


def flat_depth(cam, z=1.8):
    """Exact ray-depth map of the fronto-parallel plane at camera depth z."""
    dirs = cam.ray_directions(cam.pixel_grid())
    return z / dirs[..., 2]


class TestRotationGrid:
    def test_default_grid(self):
        rots = sample_rotations()
        assert rots.shape == (80, 3, 3)
        eye_rows = [i for i, r in enumerate(rots)
                    if np.allclose(r, np.eye(3), atol=1e-12)]
        assert len(eye_rows) == 1

    def test_all_entries_are_rotations(self):
        for r in sample_rotations(5, 7, tilt=0.4):
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)

    def test_tilt_angle_reached(self):
        tilt = 0.31
        rots = sample_rotations(4, 3, tilt=tilt)
        # pure out-of-plane rows pair each tilt with the 0 in-plane angle
        z_angles = [math.acos(np.clip(r[2, 2], -1, 1)) for r in rots]
        assert min(z_angles) == pytest.approx(0.0, abs=1e-12)
        assert max(z_angles) == pytest.approx(tilt)

    def test_custom_counts_and_identity_only(self):
        assert sample_rotations(3, 4).shape == (12, 3, 3)
        only = sample_rotations(1, 1)
        np.testing.assert_allclose(only[0], np.eye(3), atol=1e-15)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            sample_rotations(0, 5)


class TestLocalSurface:
    def lift(self, plane_ds, patch=11):
        frame = plane_ds.frames[0]
        anchor = (frame.camera.width // 2, frame.camera.height // 2)
        return frame, LocalSurface.from_frame(frame.depth, frame.camera,
                                              anchor, patch)

    def test_points_lie_on_the_world_plane(self, plane_ds):
        frame, surf = self.lift(plane_ds)
        world = frame.pose.inverse().transform(surf.points.reshape(-1, 3))
        np.testing.assert_allclose(world[:, 2], 0.0, atol=1e-9)

    def test_anchor_is_the_lattice_center(self, plane_ds):
        _, surf = self.lift(plane_ds)
        np.testing.assert_allclose(surf.points[5, 5], surf.anchor, atol=1e-12)

    def test_normals_face_the_camera(self, plane_ds):
        frame, surf = self.lift(plane_ds)
        assert (surf.normals[..., 2] < 0.0).all()
        assert np.linalg.norm(surf.mean_normal) == pytest.approx(1.0)
        plane_in_cam = frame.pose.r @ np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(surf.mean_normal, plane_in_cam, atol=1e-6)

    def test_rejects_lattice_off_the_image(self, plane_ds):
        frame = plane_ds.frames[0]
        with pytest.raises(ValueError):
            LocalSurface.from_frame(frame.depth, frame.camera, (2, 2), 11)

    def test_rejects_depth_holes(self, plane_ds):
        frame = plane_ds.frames[0]
        holed = frame.depth.copy()
        holed[60, 81] = np.inf
        with pytest.raises(ValueError):
            LocalSurface.from_frame(holed, frame.camera, (80, 60), 11)

    def test_level_lattice_lifts_base_pixels(self):
        cam = overhead_camera()
        depth = flat_depth(cam)
        surf = LocalSurface.from_frame(depth, cam, (20.0, 15.0), 5, level=1)
        base = np.array([2.0 * 20.0 + 0.5, 2.0 * 15.0 + 0.5])
        z = bilinear_sample(depth, base[None, :], clamp=False)[0]
        want = z * cam.ray_directions(base)
        np.testing.assert_allclose(surf.points[2, 2], want, atol=1e-12)
        assert surf.level == 1


@st.composite
def lift_cases(draw):
    """A ray-depth map of a bumpy tilted surface with NaN or inf holes, a
    pyramid level for all anchors or one per anchor, an odd patch size and
    anchors inside, near and past the border of their level, so some
    lattices leave the map or cover a hole."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w, h = draw(st.integers(8, 48)), draw(st.integers(8, 40))
    cam = PinholeCamera(draw(st.floats(10.0, 80.0)), (w - 1) / 2.0,
                        (h - 1) / 2.0, w, h)
    gx, gy = np.meshgrid(np.arange(w), np.arange(h))
    depth = (2.0 + rng.uniform(-0.02, 0.02) * gx + rng.uniform(-0.02, 0.02) * gy
             + 0.01 * rng.random((h, w)))
    holes = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.002, 0.02]))
    depth[holes] = rng.choice([np.nan, np.inf])
    p = draw(st.sampled_from(range(3, 22, 2)))
    n = draw(st.integers(0, 12))
    level = (rng.integers(0, 3, n) if draw(st.booleans())
             else draw(st.integers(0, 2)))
    scale = np.ldexp(1.0, np.broadcast_to(level, n))[:, None]
    anchors = (rng.uniform(-2.0, 1.0, (n, 2)) + [w / 2, h / 2] / scale) * (
        rng.uniform(0.0, 2.0, (n, 2)))
    return depth, cam, anchors, p, level


class TestBatchedLifting:
    @settings(max_examples=200, deadline=None)
    @given(case=lift_cases())
    def test_equals_from_frame(self, case):
        """The batch and the one-anchor form against the scalar oracle."""
        depth, cam, anchors, p, level = case
        got = lift_surfaces(depth, cam, anchors, p, level)
        assert len(got) == len(anchors)
        levels = np.broadcast_to(level, len(anchors))
        for anchor, lvl, surface in zip(anchors, levels, got):
            try:
                want = oracles.from_frame(depth, cam, anchor, p, int(lvl))
            except ValueError:
                assert surface is None
                with pytest.raises(ValueError):
                    LocalSurface.from_frame(depth, cam, anchor, p, int(lvl))
                continue
            assert surface is not None
            one = LocalSurface.from_frame(depth, cam, anchor, p, int(lvl))
            for field in dataclasses.fields(LocalSurface):
                b = getattr(want, field.name)
                for a in (getattr(surface, field.name), getattr(one, field.name)):
                    if isinstance(b, np.ndarray):
                        assert a.shape == b.shape, field.name
                        assert a.tobytes() == b.tobytes(), field.name
                    else:
                        assert a == b, field.name

    def test_rejects_what_from_frame_rejects(self, plane_ds):
        frame = plane_ds.frames[0]
        holed = frame.depth.copy()
        holed[60, 81] = np.inf
        anchors = np.array([[2.0, 2.0], [80.0, 60.0], [40.0, 30.0]])
        got = lift_surfaces(holed, frame.camera, anchors, 11)
        assert got[0] is None and got[1] is None and got[2] is not None
        assert lift_surfaces(holed, frame.camera, np.zeros((0, 2)), 11) == []


def explicit_difference_normals(points):
    """Oracle: lattice normals from undivided neighbour differences."""
    du = np.empty_like(points)
    dv = np.empty_like(points)
    du[:, 1:-1] = points[:, 2:] - points[:, :-2]
    du[:, 0] = points[:, 1] - points[:, 0]
    du[:, -1] = points[:, -1] - points[:, -2]
    dv[1:-1, :] = points[2:, :] - points[:-2, :]
    dv[0, :] = points[1, :] - points[0, :]
    dv[-1, :] = points[-1, :] - points[-2, :]
    n = np.cross(du, dv)
    norms = np.linalg.norm(n, axis=-1, keepdims=True)
    n = n / np.where(norms < 1e-300, 1.0, norms)
    n[n[..., 2] > 0.0] *= -1.0
    return n


@st.composite
def lattices(draw):
    """(p, p, 3) lattices with p from 3 to 21 and point magnitudes from 1e-6
    to 1e3: noisy tilted planes, pure noise, and constant lattices."""
    p = draw(st.sampled_from([3, 4, 11, 21]))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["tilted", "noise", "constant"]))
    if kind == "constant":
        return np.broadcast_to(rng.standard_normal(3) * scale, (p, p, 3)).copy()
    if kind == "noise":
        return rng.standard_normal((p, p, 3)) * scale
    gx, gy = np.meshgrid(np.arange(p) - p // 2, np.arange(p) - p // 2)
    pts = np.stack([gx, gy, rng.uniform(-1.0, 1.0) * gx + 4.0 * p], axis=-1)
    return (pts + 0.1 * rng.standard_normal(pts.shape)) * (scale / (4.0 * p))


class TestLatticeNormals:
    @settings(max_examples=300, deadline=None)
    @given(lattices())
    def test_equal_the_explicit_difference_oracle(self, points):
        want = explicit_difference_normals(points)
        assert _lattice_normals(points).tobytes() == want.tobytes()

    def test_constant_lattice_has_zero_normals(self):
        points = np.full((5, 5, 3), 2.0)
        got = _lattice_normals(points)
        assert got.tobytes() == np.zeros((5, 5, 3)).tobytes()


class TestSynthesis:
    def setup_method(self):
        self.cam = overhead_camera()
        self.depth = flat_depth(self.cam)
        rng = np.random.default_rng(80)
        self.image = GrayImage(rng.random((120, 160)))
        self.surf = LocalSurface.from_frame(self.depth, self.cam,
                                            (80, 60), 15)

    def test_identity_reproduces_the_source_pixels(self):
        got = synthesize_patch(self.surf, self.image, np.eye(3))
        want = self.image.data[53:68, 73:88]
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_inplane_rotation_matches_image_space_oracle(self):
        phi = math.radians(37.0)
        got = synthesize_patch(self.surf, self.image, rot_z(phi))
        offs = np.arange(15) - 7.0
        dx, dy = np.meshgrid(offs, offs)
        rx = math.cos(phi) * dx - math.sin(phi) * dy
        ry = math.sin(phi) * dx + math.cos(phi) * dy
        uv = np.stack([80.0 + rx, 60.0 + ry], axis=-1)
        want = bilinear_sample(self.image.data, uv)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_rejects_views_behind_the_camera(self):
        offs = np.linspace(-0.2, 0.2, 5)
        dx, dy = np.meshgrid(offs, offs)
        pts = np.stack([dx, dy, np.full_like(dx, 0.05)], axis=-1)
        normals = np.tile([0.0, 0.0, -1.0], (5, 5, 1))
        surf = LocalSurface(pts, normals, np.array([0.0, 0.0, -1.0]),
                            np.array([0.0, 0.0, 0.05]), 0, self.cam, 5)
        with pytest.raises(ReprojectionOutOfBounds):
            synthesize_patch(surf, self.image,
                             axis_angle_rotation([1.0, 0.0, 0.0],
                                                 math.radians(60.0)))

    def test_rejects_samples_far_outside_the_image(self):
        tiny = GrayImage(np.full((20, 20), 0.5))
        with pytest.raises(ReprojectionOutOfBounds):
            synthesize_patch(self.surf, tiny, np.eye(3))

    def test_visibility_threshold(self):
        tilt80 = axis_angle_rotation([1.0, 0.0, 0.0], math.radians(80.0))
        assert oracles.view_visible(self.surf, np.eye(3))
        assert not oracles.view_visible(self.surf, tilt80)
        assert oracles.view_visible(self.surf, tilt80, min_facing=0.1)
        rots = np.array([np.eye(3), tilt80])
        assert synthesize_views(self.surf, self.image, rots)[1].tolist() == [0]
        assert synthesize_views(self.surf, self.image, rots,
                                min_facing=0.1)[1].tolist() == [0, 1]

    def test_synthesize_views_keeps_the_whole_default_grid(self):
        stack, kept = synthesize_views(self.surf, self.image)
        assert stack.shape == (80, 15, 15)
        np.testing.assert_array_equal(kept, np.arange(80))

    def test_synthesize_views_filters_tilted_views(self):
        stack, kept = synthesize_views(self.surf, self.image,
                                       min_facing=0.9)
        # only the untilted out-of-plane factor survives cos(30 deg) < 0.9
        assert len(kept) == 10
        assert kept.max().item() == 9

    def test_synthesize_views_can_reject_everything(self):
        with pytest.raises(ValueError):
            synthesize_views(self.surf, self.image, min_facing=1.5)


def plane_surface(cam, anchor_xy, patch, depth, normal, level=0):
    """Surface of the plane through the anchor ray at ``depth`` with unit
    ``normal`` (facing the camera), lifted on the patch lattice. Unlike
    :meth:`LocalSurface.from_frame` the lattice may lie off the image."""
    normal = np.asarray(normal, dtype=np.float64)
    offs = np.arange(patch) - (patch - 1) / 2.0
    gx, gy = np.meshgrid(anchor_xy[0] + offs, anchor_xy[1] + offs)
    rays = cam.ray_directions(level_to_base(np.stack([gx, gy], axis=-1), level))
    anchor = depth * cam.ray_directions(
        level_to_base(np.asarray(anchor_xy, dtype=np.float64), level))
    points = (anchor @ normal / (rays @ normal))[..., None] * rays
    return LocalSurface(points, np.broadcast_to(normal, points.shape).copy(),
                        normal, anchor, level, cam, patch)


def assert_patch_matches_oracle(surface, image, rotation):
    """The one-rotation form against the scalar oracle, bit for bit, or both
    raising :class:`ReprojectionOutOfBounds`."""
    try:
        want = oracles.synthesize_patch(surface, image, rotation)
    except ReprojectionOutOfBounds:
        with pytest.raises(ReprojectionOutOfBounds):
            synthesize_patch(surface, image, rotation)
        return
    got = synthesize_patch(surface, image, rotation)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def loop_oracle(surface, image, rotations, min_facing):
    """The per-rotation synthesis that ``synthesize_views`` batches; checks
    the one-rotation form on every rotation on the way."""
    patches, kept = [], []
    for i, r in enumerate(rotations):
        assert_patch_matches_oracle(surface, image, r)
        if not oracles.view_visible(surface, r, min_facing):
            continue
        try:
            patches.append(oracles.synthesize_patch(surface, image, r))
        except ReprojectionOutOfBounds:
            continue
        kept.append(i)
    if not patches:
        raise ValueError("no synthesized view was accepted")
    return np.array(patches), np.array(kept)


def assert_matches_oracle(surface, image, rotations, min_facing):
    try:
        want = loop_oracle(surface, image, rotations, min_facing)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            synthesize_views(surface, image, rotations, min_facing)
        return None
    stack, kept = synthesize_views(surface, image, rotations, min_facing)
    assert stack.shape == want[0].shape and stack.dtype == want[0].dtype
    assert stack.tobytes() == want[0].tobytes()
    assert kept.dtype == want[1].dtype
    np.testing.assert_array_equal(kept, want[1])
    return kept


def random_rotation(draw, max_angle):
    axis = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    if math.hypot(*axis) < 1e-3:
        axis = (0.0, 0.0, 1.0)
    return axis_angle_rotation(np.array(axis), draw(st.floats(0.0, max_angle)))


@st.composite
def synthesis_cases(draw):
    """Plane surfaces anywhere in and around the image, some close enough to
    the camera for a turn to put lattice points behind it, and grids that
    mix the default kind with arbitrary rotations (many facing away)."""
    # short focal lengths make lattices wide enough to turn behind the camera
    cam = PinholeCamera(draw(st.sampled_from([3.0, 6.0, 20.0, 80.0, 170.0])),
                        39.5, 29.5, 80, 60)
    level = draw(st.integers(0, 1))
    lw, lh = -(-cam.width // 2 ** level), -(-cam.height // 2 ** level)
    patch = draw(st.integers(3, 15))
    anchor = (draw(st.floats(-0.2 * lw, 1.2 * lw)),
              draw(st.floats(-0.2 * lh, 1.2 * lh)))
    tilt = random_rotation(draw, 1.2)
    normal = tilt @ np.array([0.0, 0.0, -1.0])
    if normal[2] > -0.2:
        normal = np.array([0.0, 0.0, -1.0])
    depth = draw(st.sampled_from([0.02, 0.05, 0.3, 1.0, 3.0]))
    surface = plane_surface(cam, anchor, patch, depth, normal, level)
    assume(np.all(np.isfinite(surface.points)))
    grid = [] if draw(st.booleans()) else list(sample_rotations(
        draw(st.integers(1, 5)), draw(st.integers(1, 5)),
        draw(st.floats(0.0, 1.4)), draw(st.floats(0.0, 1.5))))
    grid += [random_rotation(draw, math.pi)
             for _ in range(draw(st.integers(0 if grid else 1, 12)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # the image may be smaller than the camera's level, so the bounds test
    # sees samples beyond each side
    shape = draw(st.one_of(st.just((lh, lw)), st.tuples(st.integers(3, lh),
                                                        st.integers(3, lw))))
    image = GrayImage(rng.random(shape))
    min_facing = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.2, 0.9]))
    return surface, image, np.array(grid), min_facing


def side_case(side):
    """A fronto-parallel surface whose identity view samples past one side
    of a 40x30 image by more than the bounds margin."""
    cam = PinholeCamera(100.0, 19.5, 14.5, 40, 30)
    anchor = {"left": (-12.0, 14.0), "right": (52.0, 14.0),
              "top": (20.0, -11.0), "bottom": (20.0, 41.0),
              "inside": (20.0, 14.0)}[side]
    return plane_surface(cam, anchor, 5, 1.0, [0.0, 0.0, -1.0])


@st.composite
def facing_cases(draw):
    """Any unit mean normal, facing away included, under the default grid,
    the benchmark's grid or a drawn one, and thresholds across [-1, 1]."""
    v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    assume(np.linalg.norm(v) > 1e-3)
    rotations = draw(st.one_of(
        st.just(sample_rotations()),
        st.just(sample_rotations(4, 5, math.pi / 6, math.pi / 3)),
        st.builds(sample_rotations, st.integers(1, 8), st.integers(1, 10),
                  st.floats(0.0, 1.5), st.floats(0.0, 1.5))))
    min_facing = draw(st.one_of(st.sampled_from([-1.0, 0.0, 0.2, 0.9]),
                                st.floats(-1.0, 1.0)))
    return v / np.linalg.norm(v), rotations, min_facing


class TestBatchedSynthesis:
    """synthesize_views against the per-rotation loop it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(case=synthesis_cases())
    def test_equals_per_rotation_loop(self, case):
        assert_matches_oracle(*case)

    @settings(max_examples=200, deadline=None)
    @given(case=facing_cases())
    def test_facing_test_equals_view_visible(self, case):
        normal, rotations, min_facing = case
        # a small lattice far from every border: any turn stays in bounds
        # and in front of the camera, so only the facing test drops a view
        surf = dataclasses.replace(side_case("inside"), mean_normal=normal)
        image = GrayImage(np.random.default_rng(88).random((30, 40)))
        kept = assert_matches_oracle(surf, image, rotations, min_facing)
        want = [i for i, r in enumerate(rotations)
                if oracles.view_visible(surf, r, min_facing)]
        assert ([] if kept is None else kept.tolist()) == want

    @pytest.mark.parametrize("side", ["left", "right", "top", "bottom"])
    def test_views_past_each_side_are_dropped(self, side):
        image = GrayImage(np.random.default_rng(85).random((30, 40)))
        rots = np.array([np.eye(3), rot_z(0.3), rot_z(-0.3)])
        inside = side_case("inside")
        # the same grid on a surface inside the image keeps every view
        np.testing.assert_array_equal(
            assert_matches_oracle(inside, image, rots, 0.2), [0, 1, 2])
        outside = side_case(side)
        with pytest.raises(ReprojectionOutOfBounds):
            synthesize_patch(outside, image, np.eye(3))
        assert assert_matches_oracle(outside, image, rots, 0.2) is None

    def test_mixed_rejections_keep_the_survivors(self):
        cam = PinholeCamera(2.0, 79.5, 59.5, 160, 120)
        near = plane_surface(cam, (79.5, 59.5), 9, 0.05, [0.0, 0.0, -1.0])
        image = GrayImage(np.random.default_rng(86).random((120, 160)))
        behind = axis_angle_rotation([1.0, 0.0, 0.0], math.radians(70.0))
        away = axis_angle_rotation([0.0, 1.0, 0.0], math.radians(100.0))
        rots = np.array([behind, np.eye(3), away, rot_z(0.5), behind])
        assert oracles.view_visible(near, behind)
        with pytest.raises(ReprojectionOutOfBounds, match="behind"):
            synthesize_patch(near, image, behind)
        assert not oracles.view_visible(near, away)
        kept = assert_matches_oracle(near, image, rots, 0.2)
        np.testing.assert_array_equal(kept, [1, 3])

    @pytest.mark.parametrize("reason", ["facing", "behind", "bounds"])
    def test_every_view_rejected_raises_the_same_error(self, reason):
        cam = PinholeCamera(2.0, 79.5, 59.5, 160, 120)
        image = GrayImage(np.random.default_rng(87).random((120, 160)))
        surf = plane_surface(cam, (79.5, 59.5), 9, 0.05, [0.0, 0.0, -1.0])
        rots = sample_rotations(3, 2)
        if reason == "facing":
            min_facing = 1.5
        elif reason == "behind":
            rots = np.array([axis_angle_rotation([1.0, 0.0, 0.0], a)
                             for a in np.radians([60.0, 70.0, -65.0])])
            min_facing = 0.2
        else:
            image = GrayImage(np.full((12, 12), 0.5))
            min_facing = 0.2
        assert assert_matches_oracle(surf, image, rots, min_facing) is None
        with pytest.raises(ValueError, match="no synthesized view"):
            synthesize_views(surf, image, rots, min_facing)


class TestAggregation:
    def params(self):
        return DescriptorParams(patch_size=15, bins=8, cells=2)

    def test_view_descriptors_are_normalized_per_cell(self):
        rng = np.random.default_rng(81)
        # the flat last view has no mass; its cells become uniform
        patches = np.concatenate([rng.random((3, 15, 15)),
                                  np.full((1, 15, 15), 0.5)])
        p = self.params()
        rows = view_descriptors(patches, p)
        assert rows.shape == (4, 4 * 8)
        for row, q in zip(rows, patches):
            np.testing.assert_allclose(row.reshape(4, 8).sum(axis=1), 1.0,
                                       atol=1e-6)
            one = normalize_density(patch_density(q, p)).grid.reshape(-1)
            assert row.tobytes() == one.tobytes()

    def test_aggregate_equals_normalized_mean_density(self):
        rng = np.random.default_rng(82)
        patches = rng.random((4, 15, 15))
        p = self.params()
        grids = np.array([patch_density(q, p).grid for q in patches])
        want = grids.mean(axis=0)
        want = want / want.sum(axis=2, keepdims=True)
        got = aggregate_descriptor(patches, p)
        np.testing.assert_allclose(got, want.reshape(-1), atol=1e-12)

    def test_aggregate_of_identical_views_is_the_single_view(self):
        rng = np.random.default_rng(83)
        patch = rng.random((15, 15))
        p = self.params()
        single = view_descriptors(patch[None], p)[0]
        four = aggregate_descriptor(np.repeat(patch[None], 4, axis=0), p)
        np.testing.assert_allclose(four, single, atol=1e-12)


class TestMaxOut:
    """Max-out scoring is match_all's per-track best row under l2."""

    @staticmethod
    def best_squared_residual(stored, query):
        stored = np.atleast_2d(stored)
        params = DescriptorParams(patch_size=3, bins=stored.shape[1], cells=1)
        db = DescriptorDatabase("rhog", params, 0, stored)
        _, dist = match_all(db, np.asarray(query, dtype=np.float64), "l2")
        return float(dist[0]) ** 2

    def test_minimum_squared_residual(self):
        stored = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert self.best_squared_residual(stored, [1.0, 0.0]) \
            == pytest.approx(1.0)
        assert self.best_squared_residual(np.array([0.5, 0.0]), [0.0, 0.0]) \
            == pytest.approx(0.25)

    def test_matches_bruteforce_over_random_rows(self):
        rng = np.random.default_rng(84)
        stored = rng.random((12, 9))
        q = rng.random(9)
        want = min(float(np.sum((row - q) ** 2)) for row in stored)
        assert self.best_squared_residual(stored, q) \
            == pytest.approx(want, abs=1e-12)


class TestKeyframes:
    def test_even_spread(self):
        idx = select_keyframes(30, 10)
        assert idx[0] == 0 and idx[-1] == 29 and len(idx) == 10
        assert set(np.diff(idx)) <= {3, 4}

    def test_short_tracks_keep_everything(self):
        np.testing.assert_array_equal(select_keyframes(5, 10), np.arange(5))
        np.testing.assert_array_equal(select_keyframes(1), [0])

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError):
            select_keyframes(0)
