"""Images, gradients, pyramids, kernels, contrast maps, and PGM I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdesc.image import (TWO_PI, AffineContrast, GradientField, GrayImage,
                          angular_kernel, apply_contrast, base_to_level,
                          bilinear_sample, build_pyramid, circular_distance,
                          compute_gradient, level_to_base, read_pgm,
                          write_pgm)


class TestGrayImage:
    def test_accepts_unit_range(self):
        img = GrayImage(np.linspace(0.0, 1.0, 12).reshape(3, 4))
        assert img.shape == (3, 4)
        assert img.width == 4 and img.height == 3

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GrayImage(np.full((4, 4), 1.5))
        with pytest.raises(ValueError):
            GrayImage(np.full((4, 4), np.nan), unit_range=False)
        with pytest.raises(ValueError):
            GrayImage(np.zeros((2, 2)))

    def test_unit_range_escape_hatch(self):
        img = GrayImage(np.full((4, 4), 3.0), unit_range=False)
        assert float(img.data.max()) == 3.0

    def test_u8_roundtrip(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(9, 7)).astype(np.uint8)
        img = GrayImage.from_u8(raw)
        np.testing.assert_array_equal(img.to_u8(), raw)


class TestGradient:
    def oracle(self, a):
        """Double-loop central differences, one-sided at the borders."""
        h, w = a.shape
        gx = np.zeros_like(a)
        gy = np.zeros_like(a)
        for y in range(h):
            for x in range(w):
                if x == 0:
                    gx[y, x] = a[y, 1] - a[y, 0]
                elif x == w - 1:
                    gx[y, x] = a[y, w - 1] - a[y, w - 2]
                else:
                    gx[y, x] = (a[y, x + 1] - a[y, x - 1]) / 2.0
                if y == 0:
                    gy[y, x] = a[1, x] - a[0, x]
                elif y == h - 1:
                    gy[y, x] = a[h - 1, x] - a[h - 2, x]
                else:
                    gy[y, x] = (a[y + 1, x] - a[y - 1, x]) / 2.0
        return gx, gy

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.random((12, 17))
        g = compute_gradient(GrayImage(a))
        gx, gy = self.oracle(a)
        np.testing.assert_allclose(g.gx, gx, atol=1e-15)
        np.testing.assert_allclose(g.gy, gy, atol=1e-15)

    def test_polar_decomposition(self):
        rng = np.random.default_rng(2)
        g = compute_gradient(GrayImage(rng.random((8, 8))))
        np.testing.assert_allclose(g.magnitude * np.cos(g.angle), g.gx,
                                   atol=1e-12)
        np.testing.assert_allclose(g.magnitude * np.sin(g.angle), g.gy,
                                   atol=1e-12)
        assert np.all((g.angle >= 0.0) & (g.angle < 2.0 * math.pi))

    def test_constant_image_has_no_valid_pixels(self):
        g = compute_gradient(GrayImage(np.full((6, 6), 0.25)))
        assert not g.valid.any()
        np.testing.assert_array_equal(g.magnitude, 0.0)

    def test_linear_ramp(self):
        x = np.tile(np.linspace(0.0, 1.0, 10), (6, 1))
        g = compute_gradient(GrayImage(x))
        np.testing.assert_allclose(g.gx[:, 1:-1], 1.0 / 9.0, atol=1e-12)
        np.testing.assert_allclose(g.gy, 0.0, atol=1e-12)


class TestPyramid:
    def halve_oracle(self, a):
        """Averages of 2x2 boxes; ragged edges average the partial box."""
        h, w = a.shape
        oh, ow = (h + 1) // 2, (w + 1) // 2
        out = np.zeros((oh, ow))
        for y in range(oh):
            for x in range(ow):
                block = a[2 * y:2 * y + 2, 2 * x:2 * x + 2]
                out[y, x] = block.mean()
        return out

    def test_matches_box_oracle(self):
        rng = np.random.default_rng(3)
        for shape in ((8, 8), (9, 7), (13, 16), (15, 15)):
            a = rng.random(shape)
            pyr = build_pyramid(GrayImage(a), 2)
            np.testing.assert_allclose(pyr.level(1).data,
                                       self.halve_oracle(a), atol=1e-12)

    def test_three_levels_iterated(self):
        rng = np.random.default_rng(4)
        a = rng.random((24, 20))
        pyr = build_pyramid(GrayImage(a), 3)
        np.testing.assert_allclose(
            pyr.level(2).data, self.halve_oracle(self.halve_oracle(a)),
            atol=1e-12)
        assert len(pyr) == 3
        assert pyr.level(0).shape == (24, 20)
        assert pyr.level(1).shape == (12, 10)
        assert pyr.level(2).shape == (6, 5)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            build_pyramid(GrayImage(np.zeros((4, 4)) + 0.5), 3)

    def test_coordinate_mapping_roundtrip(self):
        xy = np.array([3.25, 7.5])
        for level in range(4):
            base = level_to_base(xy, level)
            np.testing.assert_allclose(base_to_level(base, level), xy,
                                       atol=1e-12)

    def test_coordinate_mapping_known_values(self):
        # level-1 pixel 0 covers base pixels 0 and 1, centered at 0.5
        np.testing.assert_allclose(level_to_base(np.array([0.0, 0.0]), 1),
                                   [0.5, 0.5])
        np.testing.assert_allclose(level_to_base(np.array([1.0, 2.0]), 2),
                                   [5.5, 9.5])
        np.testing.assert_array_equal(level_to_base(np.array([2.0, 3.0]), 0),
                                      [2.0, 3.0])


class TestKernels:
    def test_circular_distance_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-10.0, 10.0, 200)
        b = rng.uniform(-10.0, 10.0, 200)
        got = circular_distance(a, b)
        raw = np.abs(a - b) % (2.0 * math.pi)
        want = np.minimum(raw, 2.0 * math.pi - raw)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert np.all(got <= math.pi + 1e-12)

    def test_triangular_kernel_shape(self):
        eps = 0.5
        assert angular_kernel(1.0, 1.0, eps) == pytest.approx(1.0)
        assert angular_kernel(1.25, 1.0, eps) == pytest.approx(0.5)
        assert angular_kernel(1.5, 1.0, eps) == pytest.approx(0.0)
        assert angular_kernel(2.0, 1.0, eps) == 0.0
        # wraps around the circle
        assert angular_kernel(2.0 * math.pi - 0.1, 0.1, eps) \
            == pytest.approx(1.0 - 0.2 / eps)

    def test_wrapped_gaussian_properties(self):
        eps = 0.4
        k0 = angular_kernel(0.0, 0.0, eps, "wrapped-gaussian")
        k1 = angular_kernel(0.3, 0.0, eps, "wrapped-gaussian")
        k1b = angular_kernel(-0.3, 0.0, eps, "wrapped-gaussian")
        assert k0 > k1 > 0.0
        assert k1 == pytest.approx(k1b, rel=1e-12)
        # periodic in 2*pi
        assert angular_kernel(0.3 + 2.0 * math.pi, 0.0, eps,
                              "wrapped-gaussian") == pytest.approx(k1, rel=1e-9)


class TestContrast:
    def test_affine(self):
        t = AffineContrast(2.0, 0.1)
        np.testing.assert_allclose(t.apply(np.array([0.0, 0.5])), [0.1, 1.1])
        with pytest.raises(ValueError):
            AffineContrast(0.0)
        with pytest.raises(ValueError):
            AffineContrast(-1.0)

    def test_apply_contrast_tracks_range_flag(self):
        img = GrayImage(np.linspace(0.0, 1.0, 16).reshape(4, 4))
        stretched = apply_contrast(img, AffineContrast(3.0))
        assert float(stretched.data.max()) > 1.0  # allowed, flag relaxed


class TestBilinear:
    def test_exact_at_integers(self):
        rng = np.random.default_rng(6)
        a = rng.random((7, 9))
        xy = np.array([[4.0, 2.0], [0.0, 0.0], [8.0, 6.0]])
        got = bilinear_sample(a, xy)
        np.testing.assert_array_equal(got, [a[2, 4], a[0, 0], a[6, 8]])

    def test_midpoint_average(self):
        a = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert bilinear_sample(a, np.array([[0.5, 0.5]]))[0] \
            == pytest.approx(1.5)
        assert bilinear_sample(a, np.array([[0.5, 0.0]]))[0] \
            == pytest.approx(0.5)

    def test_oracle_random_positions(self):
        rng = np.random.default_rng(7)
        a = rng.random((11, 13))
        xy = np.stack([rng.uniform(0, 12, 60), rng.uniform(0, 10, 60)], axis=1)
        got = bilinear_sample(a, xy)
        for (x, y), v in zip(xy, got):
            x0, y0 = int(math.floor(x)), int(math.floor(y))
            fx, fy = x - x0, y - y0
            want = (a[y0, x0] * (1 - fx) * (1 - fy)
                    + a[y0, x0 + 1] * fx * (1 - fy)
                    + a[y0 + 1, x0] * (1 - fx) * fy
                    + a[y0 + 1, x0 + 1] * fx * fy)
            assert v == pytest.approx(want, abs=1e-12)

    def test_clamping_and_strict_mode(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = bilinear_sample(a, np.array([[-2.0, 0.0], [5.0, 2.5]]))
        assert out[0] == a[0, 0]
        assert out[1] == pytest.approx(a[2, 3])
        with pytest.raises(ValueError):
            bilinear_sample(a, np.array([[-0.1, 0.0]]), clamp=False)


def bilinear_2d_index(data, xy, clamp):
    """Bilinear sampling written with 2-D fancy indexing, term by term."""
    h, w = data.shape
    x, y = xy[..., 0], xy[..., 1]
    if clamp:
        x = np.clip(x, 0.0, w - 1.0)
        y = np.clip(y, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(x), w - 2).astype(np.intp)
    y0 = np.minimum(np.floor(y), h - 2).astype(np.intp)
    fx, fy = x - x0, y - y0
    return (data[y0, x0] * (1 - fx) * (1 - fy)
            + data[y0, x0 + 1] * fx * (1 - fy)
            + data[y0 + 1, x0] * (1 - fx) * fy
            + data[y0 + 1, x0 + 1] * fx * fy)


@st.composite
def bilinear_cases(draw):
    """Random images and position stacks of any leading shape: random,
    integer and edge coordinates, some past the border when clamping."""
    h, w = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    clamp = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = rng.random((h, w))
    if draw(st.booleans()):
        data = np.asfortranarray(data)
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=0, max_size=3)))
    pad = 3.0 if clamp else 0.0
    x = rng.uniform(-pad, w - 1 + pad, shape)
    y = rng.uniform(-pad, h - 1 + pad, shape)
    if draw(st.booleans()):  # pixel centers, including the last row and column
        x = np.round(x).clip(-pad, w - 1 + pad)
        y = np.round(y).clip(-pad, h - 1 + pad)
    return data, np.stack([x, y], axis=-1), clamp


class TestBilinearProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=bilinear_cases())
    def test_flat_gather_equals_2d_indexing(self, case):
        data, xy, clamp = case
        got = bilinear_sample(data, xy, clamp=clamp)
        want = bilinear_2d_index(data, xy, clamp)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@st.composite
def gradient_components(draw):
    """Components drawn from signed zeros, tiny, 8-bit and random values."""
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                               1.0 / 255.0, -1.0 / 255.0, 0.5, -0.5])
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for _ in range(2):
        vals = np.array(draw(st.lists(special, min_size=n, max_size=n)))
        mixed = np.where(rng.random(n) < 0.5, vals, rng.normal(size=n))
        parts.append(mixed.reshape(1, n))
    return parts


class TestGradientAngle:
    @settings(max_examples=300, deadline=None)
    @given(comps=gradient_components())
    def test_angle_equals_mod_two_pi(self, comps):
        gx, gy = comps
        want = np.mod(np.arctan2(gy, gx), TWO_PI)
        want[want >= TWO_PI] = 0.0
        want[~(np.hypot(gx, gy) > 0.0)] = 0.0
        got = GradientField(gx, gy).angle
        assert got.tobytes() == want.tobytes()
        assert np.all((got >= 0.0) & (got < TWO_PI))


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        img = GrayImage.from_u8(rng.integers(0, 256, (10, 14)).astype(np.uint8))
        write_pgm(img, tmp_path / "a.pgm")
        back = read_pgm(tmp_path / "a.pgm")
        np.testing.assert_array_equal(back.to_u8(), img.to_u8())

    def test_header_comments(self, tmp_path):
        body = bytes(range(7, 16))
        raw = b"P5\n# a comment\n3 3\n# more\n255\n" + body
        (tmp_path / "c.pgm").write_bytes(raw)
        img = read_pgm(tmp_path / "c.pgm")
        np.testing.assert_array_equal(
            img.to_u8(), np.arange(7, 16, dtype=np.uint8).reshape(3, 3))

    def test_rejects_other_formats(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError):
            read_pgm(tmp_path / "bad.pgm")
