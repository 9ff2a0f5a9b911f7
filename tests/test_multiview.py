"""Running-average descriptor accumulation and the excitation proxy."""

import numpy as np
import pytest

from mvdesc.hog import DescriptorParams
from mvdesc.multiview import (MultiViewAccumulator, excitation_score,
                              patch_scatter)
from oracles import normalized_row

PARAMS = DescriptorParams(patch_size=8, bins=8, cells=2)


def random_density(rng):
    return rng.random((2, 2, 8)) + 0.01


class TestAccumulator:
    def test_mean_matches_two_pass_average(self):
        rng = np.random.default_rng(21)
        dens = [random_density(rng) for _ in range(7)]
        acc = MultiViewAccumulator(PARAMS)
        for d in dens:
            acc.update(d)
        want = normalized_row(np.mean(dens, axis=0), PARAMS.bins)[0]
        assert acc.finalize().tobytes() == want.tobytes()
        assert acc.frames == 7

    def test_finalize_normalizes_the_mean(self):
        rng = np.random.default_rng(22)
        dens = [random_density(rng) for _ in range(5)]
        acc = MultiViewAccumulator(PARAMS)
        for d in dens:
            acc.update(d)
        out = acc.finalize()
        assert out.shape == (2 * 2 * 8,)
        np.testing.assert_allclose(out.reshape(4, 8).sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_single_frame_equals_single_view_bitwise(self):
        rng = np.random.default_rng(23)
        dens = random_density(rng)
        acc = MultiViewAccumulator(PARAMS)
        acc.update(dens)
        assert acc.finalize().tobytes() \
            == normalized_row(dens, PARAMS.bins)[0].tobytes()

    @pytest.mark.parametrize("shape", [(4, 4, 16), (2, 2, 7), (32,),
                                       (1, 2, 2, 8)])
    def test_rejects_a_grid_of_another_shape(self, shape):
        acc = MultiViewAccumulator(PARAMS)
        want = rf"shape \({', '.join(map(str, shape))},?\), expected \(2, 2, 8\)"
        with pytest.raises(ValueError, match=want):
            acc.update(np.ones(shape))
        assert acc.frames == 0 and not acc.density_sum.any()

    def test_finalize_empty_raises(self):
        with pytest.raises(ValueError, match="no frames accumulated"):
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
