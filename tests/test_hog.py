"""Orientation densities: kernels and normalization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvdesc.hog import (DescriptorParams, OrientationDensity,
                        _orientation_votes, normalize_density,
                        orientation_density, patch_densities)
from mvdesc.image import GradientField, GrayImage, compute_gradient
from oracles import angular_kernel, two_bin_votes

EPS = np.finfo(np.float64).eps


def triple_loop_density(grad, params, centers):
    """Independent evaluation: explicit loops over centers, pixels, and bins."""
    h, w = grad.shape
    bc = (np.arange(params.bins) + 0.5) * 2.0 * math.pi / params.bins
    out = np.zeros((len(centers), params.bins))
    for ci, (cx, cy) in enumerate(centers):
        for y in range(h):
            for x in range(w):
                r2 = (x - cx) ** 2 + (y - cy) ** 2
                if r2 > (3.0 * params.sigma) ** 2:
                    continue
                spatial = math.exp(-r2 / (2.0 * params.sigma ** 2))
                for b in range(params.bins):
                    d = abs(grad.angle[y, x] - bc[b]) % (2.0 * math.pi)
                    d = min(d, 2.0 * math.pi - d)
                    ang = max(0.0, 1.0 - d / params.eps)
                    out[ci, b] += spatial * ang * grad.magnitude[y, x]
    return out


class TestParams:
    def test_defaults(self):
        p = DescriptorParams(patch_size=16)
        assert p.bins == 16 and p.cells == 4
        assert p.eps == pytest.approx(2.0 * math.pi / 16.0)
        assert p.sigma == pytest.approx(2.0)
        # the kernel widths follow from the geometry; nothing else is set
        assert [f.name for f in dataclasses.fields(p)] \
            == ["patch_size", "bins", "cells"]

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

    def test_validation(self):
        with pytest.raises(ValueError):
            DescriptorParams(patch_size=2)
        with pytest.raises(ValueError):
            DescriptorParams(patch_size=8, bins=1)
        with pytest.raises(ValueError):
            DescriptorParams(patch_size=8, cells=9)


class TestDensity:
    def test_matches_triple_loop(self):
        rng = np.random.default_rng(11)
        for bins, cells in ((8, 2), (16, 4), (2, 2)):
            size = int(rng.integers(8, 18))
            params = DescriptorParams(patch_size=size, bins=bins, cells=cells)
            grad = compute_gradient(GrayImage(rng.random((size, size))))
            dens = orientation_density(grad, params)
            want = triple_loop_density(grad, params, params.cell_centers())
            np.testing.assert_allclose(dens.grid.reshape(-1, bins), want,
                                       atol=1e-10)
            assert not dens.normalized

    @pytest.mark.parametrize("shape", [(8, 9), (9, 8), (7, 7), (30, 40)])
    def test_rejects_a_gradient_of_another_size(self, shape):
        grad = compute_gradient(GrayImage(np.zeros(shape)))
        params = DescriptorParams(patch_size=8, bins=8, cells=2)
        want = f"gradient is {shape[1]} x {shape[0]} pixels, expected the 8 x 8"
        with pytest.raises(ValueError, match=want):
            orientation_density(grad, params)

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
    """Random params from two bins up, and a stack of random, 8-bit, flat,
    ramp or non-finite patches."""
    p = draw(st.integers(3, 25))
    params = DescriptorParams(p, draw(st.integers(2, 36)),
                              draw(st.integers(1, p)))
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


@st.composite
def vote_cases(draw):
    """Bins from 2 to 36 and gradients at bin centers, bin edges, +-pi, the
    signed zeros and random angles, of magnitudes where no square
    underflows or overflows."""
    bins = draw(st.integers(2, 36))
    width = 2.0 * math.pi / bins
    near = st.floats(-1e-12, 1e-12)
    angle = st.one_of(
        st.builds(lambda k, d: (k + 0.5) * width - math.pi + d,
                  st.integers(0, bins - 1), near),
        st.builds(lambda k, d: k * width - math.pi + d,
                  st.integers(0, bins), near),
        st.floats(-math.pi, math.pi))
    polar = st.builds(lambda t, r: (r * math.cos(t), r * math.sin(t)), angle,
                      st.floats(1e-100, 1e100))
    axis = st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                     st.sampled_from([-0.0, 0.0]))
    grads = draw(st.lists(st.one_of(polar, axis, axis.map(lambda g: g[::-1])),
                          min_size=1, max_size=40))
    return bins, grads


def check_votes(gx, gy, bins):
    """The votes of gradients ``(gx, gy)``: bit for bit the scalar oracle's,
    within (bins + 4) eps m of the dense kernel times the hypot magnitude,
    nonnegative, summing to m within 2 ulp, and zero for a zero gradient.

    The helper's docstring derives (0.8 bins + 4) eps m against the exact
    kernel. The dense one rounds its angle, centers and circular distances
    in radians and errs about as much; against it the votes measured within
    0.93 (bins + 4) eps m at worst (25 bins, eight million angles)."""
    votes = np.empty((gx.size, bins))
    _orientation_votes(gx, gy, votes)
    want = np.array([two_bin_votes(float(x), float(y), bins)
                     for x, y in zip(gx, gy)])
    assert votes.tobytes() == want.tobytes()
    params = DescriptorParams(5, bins=bins)
    grad = GradientField(gx[None], gy[None])
    hyp = grad.magnitude[0][:, None]
    dense = angular_kernel(grad.angle[0][:, None], params.bin_centers(),
                           params.eps) * hyp
    assert np.all(np.abs(votes - dense) <= (bins + 4) * EPS * hyp)
    assert np.all(votes >= 0.0)
    m = np.sqrt(gx * gx + gy * gy)
    assert np.all(np.abs(votes.sum(axis=1) - m) <= 2.0 * np.spacing(m))
    assert not votes[m == 0.0].any()


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
            check_votes(grad.gx.ravel(), grad.gy.ravel(), params.bins)

    # an id reads bins-eps, with eps in bin widths: always one bin
    @pytest.mark.parametrize("bins", [2, 3, 4, 5, 8, 16, 36],
                             ids=lambda bins: f"{bins}-1.0")
    def test_three_bin_kernel_at_centers_edges_and_wrap(self, bins):
        # angles on bin centers and edges, either side of each edge, and at
        # the wrap: each votes into two of the three bins around it
        width = 2.0 * math.pi / bins
        params = DescriptorParams(5, bins=bins)
        edges = np.arange(bins) * width
        ang = np.concatenate([params.bin_centers(), edges,
                              np.nextafter(edges[1:], 0.0),
                              np.nextafter(edges, math.inf),
                              [0.0, np.nextafter(2.0 * math.pi, 0.0)]])
        # (-1, +-0) are the angles +-pi; the signed zeros a zero gradient
        gx = np.concatenate([np.cos(ang), [-1.0, -1.0, 0.0, -0.0, 0.0, -0.0]])
        gy = np.concatenate([np.sin(ang), [0.0, -0.0, 0.0, 0.0, -0.0, -0.0]])
        check_votes(gx, gy, bins)

    @settings(max_examples=200, deadline=None)
    @given(case=vote_cases())
    @example(case=(2, [(-1.0, 0.0), (-1.0, -0.0), (0.0, 0.0), (-0.0, -0.0)]))
    # two angles whose error reached 0.9 of the bound in a search at 25 bins
    @example(case=(25, [(math.cos(t), math.sin(t)) for t in
                        (-0.5015842401849322, -0.6116399355439408)]))
    def test_two_bin_votes_against_the_dense_kernel(self, case):
        bins, grads = case
        gx, gy = np.array(grads, dtype=np.float64).reshape(-1, 2).T
        check_votes(gx, gy, bins)

    def test_refuses_intensities_whose_gradient_squares_overflow(self):
        params = DescriptorParams(5, bins=8, cells=2)
        stack = np.zeros((2, 5, 5))
        stack[1, 2, 2] = 1e150
        assert np.all(np.isfinite(patch_densities(stack, params)))
        stack[1, 2, 2] = 1e160
        with pytest.raises(ValueError, match="magnitudes must be finite"):
            patch_densities(stack, params)
        grad = compute_gradient(GrayImage(stack[1], unit_range=False))
        with pytest.raises(ValueError, match="magnitudes must be finite"):
            orientation_density(grad, params)

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
