"""Running-average descriptor accumulation and the excitation proxy."""

import numpy as np
import pytest

from mvdesc.hog import DescriptorParams, OrientationDensity, normalize_density
from mvdesc.multiview import (MultiViewAccumulator, excitation_score,
                              patch_scatter)

PARAMS = DescriptorParams(patch_size=8, bins=8, cells=2)


def random_density(rng, normalized=False):
    grid = rng.random((2, 2, 8)) + 0.01
    dens = OrientationDensity(grid, PARAMS)
    return normalize_density(dens) if normalized else dens


class TestAccumulator:
    def test_mean_matches_two_pass_average(self):
        rng = np.random.default_rng(21)
        dens = [random_density(rng) for _ in range(7)]
        acc = MultiViewAccumulator(PARAMS)
        for d in dens:
            acc.update(d)
        want = np.mean([d.grid for d in dens], axis=0)
        np.testing.assert_allclose(acc.mean_density().grid, want, atol=1e-12)
        assert acc.frames == 7

    def test_finalize_normalizes_the_mean(self):
        rng = np.random.default_rng(22)
        dens = [random_density(rng) for _ in range(5)]
        acc = MultiViewAccumulator(PARAMS)
        for d in dens:
            acc.update(d)
        out = acc.finalize()
        assert out.normalized
        np.testing.assert_allclose(out.cell_mass(), 1.0, atol=1e-12)

    def test_single_frame_equals_single_view_bitwise(self):
        rng = np.random.default_rng(23)
        dens = random_density(rng)
        acc = MultiViewAccumulator(PARAMS)
        acc.update(dens)
        assert np.array_equal(acc.finalize().grid,
                              normalize_density(dens).grid)

    def test_rejects_normalized_input_and_foreign_params(self):
        rng = np.random.default_rng(24)
        acc = MultiViewAccumulator(PARAMS)
        with pytest.raises(ValueError):
            acc.update(random_density(rng, normalized=True))
        other = OrientationDensity(rng.random((4, 4, 16)),
                                   DescriptorParams(patch_size=16))
        with pytest.raises(ValueError):
            acc.update(other)

    def test_finalize_empty_raises(self):
        with pytest.raises(ValueError):
            MultiViewAccumulator(PARAMS).finalize()

    def test_memory_constant_in_track_length(self):
        rng = np.random.default_rng(26)
        acc = MultiViewAccumulator(PARAMS)
        acc.update(random_density(rng))
        first = acc.memory_bytes
        for _ in range(50):
            acc.update(random_density(rng))
        assert acc.memory_bytes == first == acc.density_sum.nbytes


class TestScatter:
    def two_pass(self, patches):
        mean = patches.mean(axis=0)
        return float(np.mean([np.sum((p - mean) ** 2) for p in patches]))

    def test_incremental_matches_two_pass(self):
        rng = np.random.default_rng(27)
        pats = rng.random((12, 8, 8))
        want = self.two_pass(pats)
        assert patch_scatter(pats) == pytest.approx(want, rel=1e-9)

    def test_constant_patches_scatter_zero(self):
        pats = np.full((6, 5, 5), 0.3)
        assert patch_scatter(pats) == pytest.approx(0.0, abs=1e-15)


class TestExcitation:
    def test_full_track_scores_one(self):
        rng = np.random.default_rng(28)
        pats = rng.random((10, 7, 7))
        assert excitation_score(pats, patch_scatter(pats)) \
            == pytest.approx(1.0, rel=1e-12)

    def test_constant_subset_scores_zero(self):
        rng = np.random.default_rng(29)
        pats = rng.random((10, 7, 7))
        flat = np.repeat(pats[:1], 4, axis=0)
        assert excitation_score(flat, patch_scatter(pats)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_capped_at_one(self):
        rng = np.random.default_rng(30)
        pats = rng.random((10, 7, 7))
        wild = np.concatenate([pats[:1], pats[:1] * 0.0 + 1.0])
        assert excitation_score(wild, 1e-6) == 1.0

    def test_degenerate_normalizer(self):
        rng = np.random.default_rng(31)
        pats = rng.random((4, 5, 5))
        assert excitation_score(pats, 0.0) == 0.0

    def test_monotone_in_window_for_smooth_variation(self):
        # patches drifting along a line: longer windows cover more variation
        base = np.linspace(0.0, 1.0, 25).reshape(5, 5)
        pats = np.array([base * (0.3 + 0.1 * i) for i in range(10)])
        total = patch_scatter(pats)
        scores = [excitation_score(pats[:k], total) for k in (2, 4, 6, 8, 10)]
        assert all(a < b for a, b in zip(scores, scores[1:]))
