"""Orientation densities: kernels, normalization, flattening, serialization."""

import math

import numpy as np
import pytest

from mvdesc.hog import (DescriptorParams, DescriptorVector, OrientationDensity,
                        density_at, descriptor_from_json, descriptor_to_json,
                        normalize_density, orientation_density,
                        pack_descriptor, sample_descriptor, unpack_descriptor)
from mvdesc.image import GrayImage, angular_kernel, compute_gradient


def triple_loop_density(grad, params, centers, origin=(0, 0)):
    """Independent evaluation: explicit loops over centers, pixels, and bins."""
    h, w = grad.shape
    bc = (np.arange(params.bins) + 0.5) * 2.0 * math.pi / params.bins
    ox, oy = int(origin[0]), int(origin[1])
    out = np.zeros((len(centers), params.bins))
    for ci, (cx, cy) in enumerate(centers):
        for y in range(max(oy, 0), min(oy + params.patch_size, h)):
            for x in range(max(ox, 0), min(ox + params.patch_size, w)):
                r2 = (x - cx) ** 2 + (y - cy) ** 2
                if r2 > (3.0 * params.sigma) ** 2:
                    continue
                spatial = math.exp(-r2 / (2.0 * params.sigma ** 2))
                for b in range(params.bins):
                    d = abs(grad.angle[y, x] - bc[b]) % (2.0 * math.pi)
                    d = min(d, 2.0 * math.pi - d)
                    if params.kernel == "triangular":
                        ang = max(0.0, 1.0 - d / params.eps)
                    else:
                        ang = angular_kernel(grad.angle[y, x], bc[b],
                                             params.eps, params.kernel)
                    out[ci, b] += spatial * ang * grad.magnitude[y, x]
    return out


class TestParams:
    def test_defaults(self):
        p = DescriptorParams(patch_size=16)
        assert p.bins == 16 and p.cells == 4
        assert p.eps == pytest.approx(2.0 * math.pi / 16.0)
        assert p.sigma == pytest.approx(2.0)

    def test_bin_centers(self):
        p = DescriptorParams(patch_size=8, bins=4)
        np.testing.assert_allclose(
            p.bin_centers(),
            [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4])

    def test_cell_centers_known_layout(self):
        p = DescriptorParams(patch_size=4, bins=8, cells=2)
        # pixels 0..3 split into two cells per side, midpoints at 0.5 and 2.5
        np.testing.assert_allclose(p.cell_centers(), [[0.5, 0.5], [2.5, 0.5],
                                                      [0.5, 2.5], [2.5, 2.5]])
        np.testing.assert_allclose(p.cell_centers(origin=(10, 20)),
                                   [[10.5, 20.5], [12.5, 20.5],
                                    [10.5, 22.5], [12.5, 22.5]])

    def test_validation(self):
        with pytest.raises(ValueError):
            DescriptorParams(patch_size=2)
        with pytest.raises(ValueError):
            DescriptorParams(patch_size=8, bins=1)
        with pytest.raises(ValueError):
            DescriptorParams(patch_size=8, cells=9)
        with pytest.raises(ValueError):
            DescriptorParams(patch_size=8, kernel="boxcar")

    def test_config_roundtrip(self):
        p = DescriptorParams(patch_size=11, bins=8, cells=2, eps=0.5,
                             sigma=1.25, kernel="wrapped-gaussian")
        assert DescriptorParams.from_config(p.to_config()) == p


class TestDensity:
    def test_matches_triple_loop(self):
        rng = np.random.default_rng(11)
        for bins, cells, kernel in ((8, 2, "triangular"), (16, 4, "triangular"),
                                    (8, 2, "wrapped-gaussian")):
            size = int(rng.integers(8, 18))
            params = DescriptorParams(patch_size=size, bins=bins, cells=cells,
                                      kernel=kernel)
            grad = compute_gradient(GrayImage(rng.random((size, size))))
            centers = params.cell_centers()
            got = density_at(grad, params, centers)
            want = triple_loop_density(grad, params, centers)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_offset_window_in_larger_image(self):
        rng = np.random.default_rng(12)
        img = GrayImage(rng.random((30, 40)))
        grad = compute_gradient(img)
        params = DescriptorParams(patch_size=9, bins=8, cells=2)
        origin = (13, 4)
        got = density_at(grad, params, params.cell_centers(origin), origin)
        want = triple_loop_density(grad, params, params.cell_centers(origin),
                                   origin)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_window_clipped_at_border(self):
        rng = np.random.default_rng(13)
        grad = compute_gradient(GrayImage(rng.random((10, 10))))
        params = DescriptorParams(patch_size=8, bins=8, cells=2)
        origin = (-3, 6)  # window hangs off the left and bottom
        got = density_at(grad, params, params.cell_centers(origin), origin)
        want = triple_loop_density(grad, params, params.cell_centers(origin),
                                   origin)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_fully_outside_window_is_zero(self):
        rng = np.random.default_rng(14)
        grad = compute_gradient(GrayImage(rng.random((10, 10))))
        params = DescriptorParams(patch_size=5, bins=8, cells=2)
        got = density_at(grad, params, params.cell_centers((40, 40)), (40, 40))
        np.testing.assert_array_equal(got, 0.0)

    def test_orientation_density_is_cell_grid(self):
        rng = np.random.default_rng(15)
        params = DescriptorParams(patch_size=12, bins=8, cells=4)
        grad = compute_gradient(GrayImage(rng.random((12, 12))))
        dens = orientation_density(grad, params)
        flat = density_at(grad, params, params.cell_centers())
        np.testing.assert_array_equal(
            dens.grid, flat.reshape(params.cells, params.cells, params.bins))
        assert not dens.normalized

    def test_single_oriented_edge_hits_expected_bin(self):
        # vertical edge: gradient along +x, angle 0, lands in the bins
        # adjacent to zero under the default half-bin center offset
        img = np.zeros((16, 16))
        img[:, 8:] = 1.0
        params = DescriptorParams(patch_size=16, bins=16, cells=1)
        dens = orientation_density(compute_gradient(GrayImage(img)), params)
        mass = dens.grid[0, 0]
        top2 = set(np.argsort(mass)[-2:])
        assert top2 == {0, params.bins - 1}


class TestNormalization:
    def test_cells_sum_to_one(self):
        rng = np.random.default_rng(16)
        params = DescriptorParams(patch_size=16, bins=16, cells=4)
        dens = orientation_density(
            compute_gradient(GrayImage(rng.random((16, 16)))), params)
        norm = normalize_density(dens)
        np.testing.assert_allclose(norm.cell_mass(), 1.0, atol=1e-12)
        assert norm.normalized
        assert not norm.zero_mass.any()

    def test_zero_mass_cells_become_uniform(self):
        params = DescriptorParams(patch_size=8, bins=8, cells=2)
        dens = orientation_density(
            compute_gradient(GrayImage(np.full((8, 8), 0.7))), params)
        norm = normalize_density(dens)
        assert norm.zero_mass.all()
        np.testing.assert_allclose(norm.grid, 1.0 / 8.0)

    def test_original_density_unchanged(self):
        rng = np.random.default_rng(17)
        params = DescriptorParams(patch_size=8, bins=8, cells=2)
        dens = orientation_density(
            compute_gradient(GrayImage(rng.random((8, 8)))), params)
        before = dens.grid.copy()
        normalize_density(dens)
        np.testing.assert_array_equal(dens.grid, before)

    def test_grid_shape_validated(self):
        params = DescriptorParams(patch_size=8, bins=8, cells=2)
        with pytest.raises(ValueError):
            OrientationDensity(np.zeros((2, 2, 7)), params)
        with pytest.raises(ValueError):
            OrientationDensity(np.full((2, 2, 8), -1.0), params)


class TestDescriptorVector:
    def test_flattening_order(self):
        rng = np.random.default_rng(18)
        params = DescriptorParams(patch_size=8, bins=4, cells=2)
        grid = rng.random((2, 2, 4))
        vec = sample_descriptor(OrientationDensity(grid, params), "sv")
        np.testing.assert_array_equal(vec.values, grid.reshape(-1))
        np.testing.assert_array_equal(vec.cell_view()[1], grid[0, 1])
        assert vec.bins == 4 and vec.n_cells == 4

    def test_length_validated(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=2)
        with pytest.raises(ValueError):
            DescriptorVector(np.zeros(15), "sv", params)
        with pytest.raises(ValueError):
            DescriptorVector(np.zeros(16), "who", params)

    def test_binary_roundtrip(self):
        rng = np.random.default_rng(19)
        params = DescriptorParams(patch_size=11, bins=16, cells=4,
                                  kernel="wrapped-gaussian")
        vec = DescriptorVector(rng.random(16 * 16), "mv", params)
        buf = pack_descriptor(vec)
        back, offset = unpack_descriptor(buf)
        assert offset == len(buf)
        assert back.method == "mv"
        assert back.params == params
        np.testing.assert_array_equal(back.values,
                                      vec.values.astype(np.float32))

    def test_binary_stream_of_records(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=2)
        vecs = [DescriptorVector(np.full(16, 0.25 * (i + 1)), "sv", params)
                for i in range(3)]
        blob = b"".join(pack_descriptor(v) for v in vecs)
        offset = 0
        for v in vecs:
            got, offset = unpack_descriptor(blob, offset)
            np.testing.assert_array_equal(got.values, v.values)
        assert offset == len(blob)

    def test_json_roundtrip(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=2)
        vec = DescriptorVector(np.linspace(0.0, 1.0, 16), "rhog", params)
        back = descriptor_from_json(descriptor_to_json(vec))
        assert back.method == "rhog" and back.params == params
        np.testing.assert_allclose(back.values, vec.values, atol=1e-15)

    def test_corrupt_record_rejected(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=2)
        buf = pack_descriptor(DescriptorVector(np.zeros(16), "sv", params))
        with pytest.raises(ValueError):
            unpack_descriptor(b"XXXX" + buf[4:])
