"""Running-average descriptor accumulation and the excitation proxy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_merge_equals_sequential(self):
        rng = np.random.default_rng(25)
        dens = [random_density(rng) for _ in range(9)]
        pats = [rng.random((8, 8)) for _ in range(9)]
        one = MultiViewAccumulator(PARAMS)
        for d, p in zip(dens, pats):
            one.update(d, p)
        left = MultiViewAccumulator(PARAMS)
        right = MultiViewAccumulator(PARAMS)
        for d, p in zip(dens[:4], pats[:4]):
            left.update(d, p)
        for d, p in zip(dens[4:], pats[4:]):
            right.update(d, p)
        left.merge(right)
        np.testing.assert_allclose(left.mean_density().grid,
                                   one.mean_density().grid, atol=1e-12)
        assert left.frames == one.frames
        assert left.patch_scatter() == pytest.approx(one.patch_scatter(),
                                                     rel=1e-9)

    def test_memory_constant_in_track_length(self):
        rng = np.random.default_rng(26)
        acc = MultiViewAccumulator(PARAMS)
        acc.update(random_density(rng), rng.random((8, 8)))
        first = acc.memory_bytes
        for _ in range(50):
            acc.update(random_density(rng), rng.random((8, 8)))
        assert acc.memory_bytes == first


@st.composite
def merge_cases(draw):
    """Random params and frames split into parts (some empty), plus two
    orders in which to merge the parts."""
    patch = draw(st.integers(3, 8))
    params = DescriptorParams(patch, draw(st.integers(2, 8)),
                              draw(st.integers(1, 2)), eps=0.5)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    parts = [[(OrientationDensity(scale * rng.random(
                  (params.cells, params.cells, params.bins)), params),
               rng.random((patch, patch)))
              for _ in range(draw(st.integers(0, 4)))]
             for _ in range(draw(st.integers(1, 5)))]
    orders = [draw(st.permutations(range(len(parts)))) for _ in range(2)]
    return params, parts, orders


def merged(params, parts, order):
    accs = []
    for frames in parts:
        acc = MultiViewAccumulator(params)
        for dens, patch in frames:
            acc.update(dens, patch)
        accs.append(acc)
    out = accs[order[0]]
    for k in order[1:]:
        out.merge(accs[k])
    return out


def state(acc):
    return (acc.density_sum, acc.patch_sum, acc.patch_sumsq)


class TestMergeProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=merge_cases())
    def test_any_order_gives_the_same_result(self, case):
        params, parts, (first, second) = case
        a = merged(params, parts, first)
        b = merged(params, parts, second)
        seq = merged(params, [[f for frames in parts for f in frames]], [0])
        assert a.frames == b.frames == seq.frames
        # a sum of nonnegative terms in another order moves by rounding only
        n = max(a.frames, 1)
        for x, y, z in zip(state(a), state(b), state(seq)):
            np.testing.assert_allclose(x, y, rtol=4 * n * 2.0 ** -52, atol=0)
            np.testing.assert_allclose(x, z, rtol=4 * n * 2.0 ** -52, atol=0)
        if a.frames:
            np.testing.assert_allclose(a.finalize().grid, b.finalize().grid,
                                       rtol=1e-12, atol=0)
            assert a.patch_scatter() == pytest.approx(
                b.patch_scatter(), rel=1e-9, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(case=merge_cases())
    def test_two_parts_and_empty_parts_merge_exactly(self, case):
        params, parts, _ = case
        halves = [[f for frames in parts[::2] for f in frames],
                  [f for frames in parts[1::2] for f in frames]]
        ab = merged(params, halves, [0, 1])
        ba = merged(params, halves, [1, 0])
        for x, y in zip(state(ab), state(ba)):
            assert x.tobytes() == y.tobytes()
        with_empty = merged(params, [[], halves[0], []], [1, 0, 2])
        alone = merged(params, [halves[0]], [0])
        assert with_empty.frames == alone.frames
        for x, y in zip(state(with_empty), state(alone)):
            assert x.tobytes() == y.tobytes()


class TestScatter:
    def two_pass(self, patches):
        mean = patches.mean(axis=0)
        return float(np.mean([np.sum((p - mean) ** 2) for p in patches]))

    def test_incremental_matches_two_pass(self):
        rng = np.random.default_rng(27)
        pats = rng.random((12, 8, 8))
        want = self.two_pass(pats)
        assert patch_scatter(pats) == pytest.approx(want, rel=1e-9)
        acc = MultiViewAccumulator(PARAMS)
        for i, p in enumerate(pats):
            acc.update(random_density(rng), p)
        assert acc.patch_scatter() == pytest.approx(want, rel=1e-9)

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
