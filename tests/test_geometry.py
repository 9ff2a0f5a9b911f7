"""Rotations, poses, and the pinhole camera."""

import math

import numpy as np
import pytest

from mvdesc.geometry import (PinholeCamera, Pose, axis_angle_rotation,
                             look_at, rot_z, rotation_is_valid)


def random_rotation(rng):
    axis = rng.standard_normal(3)
    return axis_angle_rotation(axis / np.linalg.norm(axis),
                               rng.uniform(-math.pi, math.pi))


class TestRotations:
    def test_axis_angle_known_quarter_turn(self):
        r = axis_angle_rotation([0.0, 0.0, 1.0], math.pi / 2.0)
        np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                   atol=1e-12)
        np.testing.assert_allclose(r @ [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                   atol=1e-12)

    def test_axis_angle_preserves_axis(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            r = axis_angle_rotation(axis, rng.uniform(-3.0, 3.0))
            np.testing.assert_allclose(r @ axis, axis, atol=1e-12)
            assert rotation_is_valid(r)

    def test_axis_angle_matches_quaternion_oracle(self):
        # independent construction through unit quaternions
        rng = np.random.default_rng(4)
        for _ in range(20):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            ang = rng.uniform(-math.pi, math.pi)
            w = math.cos(ang / 2.0)
            x, y, z = math.sin(ang / 2.0) * axis
            oracle = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ])
            np.testing.assert_allclose(axis_angle_rotation(axis, ang), oracle,
                                       atol=1e-12)

    def test_rot_z_matches_axis_angle(self):
        for ang in (-2.0, 0.0, 0.3, math.pi):
            np.testing.assert_allclose(
                rot_z(ang), axis_angle_rotation([0, 0, 1], ang), atol=1e-15)

    def test_validity_rejects_scale_and_reflection(self):
        assert rotation_is_valid(np.eye(3))
        assert not rotation_is_valid(2.0 * np.eye(3))
        assert not rotation_is_valid(np.diag([1.0, 1.0, -1.0]))
        assert not rotation_is_valid(np.eye(3) + 1e-6)


class TestPose:
    def test_transform_inverse_roundtrip(self):
        rng = np.random.default_rng(5)
        pose = Pose(random_rotation(rng), rng.standard_normal(3))
        pts = rng.standard_normal((40, 3))
        back = pose.inverse().transform(pose.transform(pts))
        np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_center_maps_to_origin(self):
        rng = np.random.default_rng(6)
        pose = Pose(random_rotation(rng), rng.standard_normal(3))
        np.testing.assert_allclose(pose.transform(pose.center), 0.0, atol=1e-12)

    def test_rejects_invalid_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_config_roundtrip(self):
        rng = np.random.default_rng(8)
        pose = Pose(random_rotation(rng), rng.standard_normal(3))
        again = Pose.from_config(pose.to_config())
        np.testing.assert_array_equal(again.r, pose.r)
        np.testing.assert_array_equal(again.t, pose.t)


class TestLookAt:
    def test_target_lands_on_optical_axis(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            eye = rng.standard_normal(3) * 2.0
            target = rng.standard_normal(3)
            pose = look_at(eye, target)
            cam = pose.transform(target)
            assert cam[2] > 0.0
            np.testing.assert_allclose(cam[:2], 0.0, atol=1e-12)
            np.testing.assert_allclose(pose.center, eye, atol=1e-12)

    def test_up_direction_maps_to_negative_image_y(self):
        # world +z should point toward the top of the image (y down)
        pose = look_at([3.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        up_cam = pose.r @ np.array([0.0, 0.0, 1.0])
        assert up_cam[1] < 0.0

    def test_degenerate_direction_raises(self):
        with pytest.raises(ValueError):
            look_at([0.0, 0.0, 5.0], [0.0, 0.0, 0.0], up=(0.0, 0.0, 1.0))


class TestPinholeCamera:
    def make(self):
        return PinholeCamera(170.0, 79.5, 59.5, 160, 120)

    def test_project_known_point(self):
        cam = self.make()
        uv = cam.project(np.array([[0.1, -0.2, 2.0]]))[0]
        np.testing.assert_allclose(uv, [79.5 + 170.0 * 0.05,
                                        59.5 - 170.0 * 0.1], atol=1e-12)

    def test_ray_project_roundtrip(self):
        cam = self.make()
        rng = np.random.default_rng(10)
        xy = np.stack([rng.uniform(0, 159, 50), rng.uniform(0, 119, 50)], axis=1)
        rays = cam.ray_directions(xy)
        np.testing.assert_allclose(np.linalg.norm(rays, axis=-1), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(cam.project(3.7 * rays), xy, atol=1e-9)

    def test_pixel_grid_shape_and_corners(self):
        cam = self.make()
        grid = cam.pixel_grid()
        assert grid.shape == (120, 160, 2)
        np.testing.assert_array_equal(grid[0, 0], [0.0, 0.0])
        np.testing.assert_array_equal(grid[119, 159], [159.0, 119.0])

    def test_contains_and_margin(self):
        cam = self.make()
        assert cam.contains(np.array([0.0, 0.0]))
        assert cam.contains(np.array([159.0, 119.0]))
        assert not cam.contains(np.array([159.5, 60.0]))

    def test_config_roundtrip(self):
        cam = self.make()
        assert PinholeCamera.from_config(cam.to_config()) == cam
