"""Orientation densities: kernels, normalization and flattening."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvdesc.hog import (DescriptorParams, DescriptorVector, OrientationDensity,
                        _orientation_weights, density_at, normalize_density,
                        orientation_density, patch_densities,
                        sample_descriptor)
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


# gradient directions of the ramps: axis-aligned and diagonal, so their
# angles are multiples of pi/4 and land on bin edges or centers
RAMPS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)]


def ramp(p, a, b):
    y, x = np.mgrid[0:p, 0:p].astype(np.float64)
    return a * x + b * y


@st.composite
def density_cases(draw):
    """Random params with eps below, at, just around and above one bin
    width, and a stack of random, 8-bit, flat, ramp or non-finite patches."""
    p = draw(st.integers(3, 25))
    bins = draw(st.integers(2, 36))
    width = 2.0 * math.pi / bins
    where = draw(st.sampled_from(["below", "just-below", "at", "just-above",
                                  "above"]))
    # eps must stay below pi, so two bins leave no room at or above one width
    assume(bins > 2 or where in ("below", "just-below"))
    if where == "below":
        eps = width * draw(st.floats(0.05, 1.0, exclude_max=True))
    elif where == "above":
        eps = draw(st.floats(width, math.pi, exclude_min=True, exclude_max=True))
    else:
        eps = {"just-below": np.nextafter(width, 0.0), "at": None,
               "just-above": np.nextafter(width, math.inf)}[where]
    params = DescriptorParams(
        p, bins, draw(st.integers(1, p)), eps,
        draw(st.one_of(st.none(), st.floats(0.1, p - 0.1))),
        draw(st.sampled_from(["triangular", "wrapped-gaussian"])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = []
    for kind in draw(st.lists(st.sampled_from(
            ["random", "8-bit", "flat", "ramp", "non-finite"]),
            min_size=1, max_size=5)):
        if kind == "random":
            stack.append(rng.normal(0.5, 2.0, (p, p)))
        elif kind == "8-bit":
            stack.append(np.round(rng.random((p, p)) * 255.0) / 255.0)
        elif kind == "flat":
            stack.append(np.full((p, p), rng.random()))
        elif kind == "ramp":
            stack.append(ramp(p, *draw(st.sampled_from(RAMPS)))
                         * draw(st.sampled_from([1.0 / 255.0, 0.5, 3.0])))
        else:
            bad = rng.random((p, p))
            bad[rng.integers(p), rng.integers(p)] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
            stack.append(bad)
    return params, np.array(stack)


class TestPatchDensities:
    @settings(max_examples=150, deadline=None)
    @given(case=density_cases())
    @example(case=(DescriptorParams(9, bins=8, cells=3),
                   np.array([ramp(9, *d) for d in RAMPS])))
    @example(case=(DescriptorParams(12, bins=36, cells=2),
                   np.array([ramp(12, *d) / 255.0 for d in RAMPS])))
    # 20 patches of 21 pixels span three chunks of the stack
    @example(case=(DescriptorParams(21),
                   np.round(np.random.default_rng(5).random((20, 21, 21))
                            * 255.0) / 255.0))
    def test_equals_per_patch_oracle(self, case):
        params, stack = case
        if not np.all(np.isfinite(stack)):
            with pytest.raises(ValueError, match="finite"):
                patch_densities(stack, params)
            return
        got = patch_densities(stack, params)
        assert got.shape == (len(stack), params.cells, params.cells, params.bins)
        for patch, grid in zip(stack, got):
            grad = compute_gradient(GrayImage(patch, unit_range=False))
            want = orientation_density(grad, params).grid
            assert grid.tobytes() == want.tobytes()
            # density_at shares the kernel helper; it must equal the dense
            # kernel at every bin, as density_at evaluated it before
            dense = angular_kernel(grad.angle[..., None], params.bin_centers(),
                                   params.eps, params.kernel)
            assert _orientation_weights(grad.angle, params).tobytes() \
                == dense.tobytes()

    @pytest.mark.parametrize("bins, eps_scale", [
        (2, 0.5), (3, 0.5), (3, 1.0), (4, 1.0), (5, 1.0), (8, 0.5), (8, 1.0),
        (16, 1.0), (36, 0.5), (36, 1.0)])
    def test_three_bin_kernel_at_centers_edges_and_wrap(self, bins, eps_scale):
        width = 2.0 * math.pi / bins
        params = DescriptorParams(5, bins=bins,
                                  eps=None if eps_scale == 1.0 else eps_scale * width)
        edges = np.arange(bins) * width
        ang = np.concatenate([params.bin_centers(), edges,
                              np.nextafter(edges[1:], 0.0),
                              np.nextafter(edges, math.inf),
                              [0.0, np.nextafter(2.0 * math.pi, 0.0)]])
        dense = angular_kernel(ang[:, None], params.bin_centers(), params.eps)
        assert _orientation_weights(ang, params).tobytes() == dense.tobytes()

    def test_rejects_other_shapes(self):
        params = DescriptorParams(5)
        for shape in ((5, 5), (2, 5, 6), (2, 4, 4)):
            with pytest.raises(ValueError, match="patch stack"):
                patch_densities(np.zeros(shape), params)

    def test_empty_stack(self):
        params = DescriptorParams(5, bins=8, cells=2)
        assert patch_densities(np.zeros((0, 5, 5)), params).shape == (0, 2, 2, 8)


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
        assert vec.bins == 4

    def test_length_validated(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=2)
        with pytest.raises(ValueError):
            DescriptorVector(np.zeros(15), "sv", params)
        with pytest.raises(ValueError):
            DescriptorVector(np.zeros(16), "who", params)
