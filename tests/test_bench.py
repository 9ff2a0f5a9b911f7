"""Benchmark statistics, storage/timing studies, and config plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdesc import bench
from mvdesc.bench import (_merge_config, default_benchmark_config, hash_name,
                          memory_scaling, quick_benchmark_config, spearman,
                          update_cost_profile)
from mvdesc.hog import (DescriptorParams, OrientationDensity, normalize_density,
                        patch_densities, sample_descriptor)
from mvdesc.multiview import MultiViewAccumulator
from mvdesc.image import build_pyramid
from mvdesc.tracking import Track
from mvdesc.viewsynth import (LocalSurface, patch_density, sample_rotations,
                              select_keyframes, synthesize_views)


class TestSpearman:
    def test_monotone_pairs(self):
        x = np.array([0.1, 0.4, 1.2, 3.0, 9.0])
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_tied_ranks_hand_case(self):
        rho = spearman([1.0, 2.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0])
        assert rho == pytest.approx(3.0 / math.sqrt(10.0))

    def test_constant_input_gives_zero(self):
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_pair_order_does_not_matter(self):
        rng = np.random.default_rng(110)
        x, y = rng.random(20), rng.random(20)
        perm = rng.permutation(20)
        assert spearman(x[perm], y[perm]) == pytest.approx(spearman(x, y))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            spearman([1.0], [2.0])


def synthetic_tracks(params, n_tracks, n_frames, seed):
    """A (tracks, frames, cells, cells, bins) stack of densities of random
    patches."""
    rng = np.random.default_rng(seed)
    grids = patch_densities(rng.random((n_tracks * n_frames,)
                                       + (params.patch_size,) * 2), params)
    return grids.reshape((n_tracks, n_frames) + grids.shape[1:])


def per_row(grid, params, method):
    """The per-density descriptor path the builders batch."""
    return sample_descriptor(normalize_density(OrientationDensity(grid, params)),
                             method).values


def accumulated(track_grids, params):
    """The ``MultiViewAccumulator`` fold the mv builder batches, per track."""
    rows = []
    for grids in track_grids:
        acc = MultiViewAccumulator(params)
        for g in grids:
            acc.update(OrientationDensity(g, params))
        rows.append(sample_descriptor(acc.finalize(), "mv").values)
    return rows


class TestBuildersEqualThePerRowPath:
    """Each builder's rows, track ids and groups equal, byte for byte, what
    one ``sample_descriptor(normalize_density(d))`` per row (or
    ``MultiViewAccumulator.finalize`` per track) gives."""

    params = DescriptorParams(patch_size=9, bins=8, cells=3)
    ids = [7, 3, 11, 5]

    def tracks(self):
        tracks = synthetic_tracks(self.params, 4, 5, seed=113)
        # a flat frame: every cell has zero mass and becomes uniform
        tracks[1, 2] = patch_density(np.full((9, 9), 0.5), self.params).grid
        return tracks

    @staticmethod
    def assert_rows(db, method, rows, ids, groups):
        assert db.method == method
        assert db.matrix.dtype == np.float64
        assert db.matrix.tobytes() == np.array(rows).tobytes()
        assert db.track_ids.tolist() == ids
        assert db.groups.tolist() == groups

    def test_sv(self):
        picks = self.tracks()[np.arange(4), np.arange(4)]
        db = bench.sv(self.ids, picks, self.params, "chi2")
        assert db.metric == "chi2"
        self.assert_rows(db, "sv", [per_row(g, self.params, "sv") for g in picks],
                         self.ids, [0] * 4)

    def test_mv(self):
        tracks = self.tracks()
        self.assert_rows(bench.mv(self.ids, tracks, self.params), "mv",
                         accumulated(tracks, self.params), self.ids, [0] * 4)

    @pytest.mark.filterwarnings("error")
    def test_mv_names_a_track_with_no_frames(self):
        tracks = [self.tracks()[0], np.empty((0, 3, 3, 8))]
        with pytest.raises(ValueError, match="mv: track 3 has no frames"):
            bench.mv([7, 3], tracks, self.params)

    def test_keepall(self):
        tracks = self.tracks()
        self.assert_rows(bench.keepall(self.ids, tracks, self.params),
                         "keepall",
                         [per_row(g, self.params, "keepall")
                          for grids in tracks for g in grids],
                         [t for t in self.ids for _ in range(5)],
                         list(range(5)) * 4)

    @settings(max_examples=100, deadline=None)
    @given(lengths=st.lists(st.integers(1, 24), min_size=1, max_size=5),
           scale=st.sampled_from([1e-13, 1.0, 1e6]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_stacks_of_unequal_lengths(self, lengths, scale, seed):
        """Per-track stacks of any length, magnitude and zero-mass cells."""
        rng = np.random.default_rng(seed)
        shape = (self.params.cells, self.params.cells, self.params.bins)
        tracks = [scale * rng.random((n,) + shape)
                  * (rng.random((n,) + shape[:2] + (1,)) < 0.8)
                  for n in lengths]
        ids = list(range(len(tracks)))
        self.assert_rows(bench.mv(ids, tracks, self.params), "mv",
                         accumulated(tracks, self.params), ids, [0] * len(ids))
        self.assert_rows(bench.keepall(ids, tracks, self.params), "keepall",
                         [per_row(g, self.params, "keepall")
                          for grids in tracks for g in grids],
                         [t for t, n in zip(ids, lengths) for _ in range(n)],
                         [f for n in lengths for f in range(n)])
        picks = np.array([grids[-1] for grids in tracks])
        self.assert_rows(bench.sv(ids, picks, self.params), "sv",
                         [per_row(g, self.params, "sv") for g in picks],
                         ids, [0] * len(ids))

    def test_rhog(self, plane_ds):
        frame = plane_ds.frames[0]
        w, h = frame.camera.width // 2, frame.camera.height // 2
        surfs = [LocalSurface.from_frame(frame.depth, frame.camera, xy, 11)
                 for xy in ((w, h), (w - 20, h + 10), (w + 15, h - 12))]
        views = [[(surfs[0], frame.image), (surfs[1], frame.image)],
                 [(surfs[2], frame.image)]]
        params, rotations = DescriptorParams(11), sample_rotations()
        rows, ids, groups = [], [], []
        for tid, track in zip([4, 9], views):
            for surf, image in track:
                for patch in synthesize_views(surf, image, rotations)[0]:
                    rows.append(per_row(patch_density(patch, params).grid,
                                        params, "rhog"))
                    ids.append(tid)
            groups += list(range(ids.count(tid)))
        db = bench.rhog([4, 9], views, params, rotations)
        self.assert_rows(db, "rhog", rows, ids, groups)
        assert len(db) > 3 * 10


class TestLiftKeyframes:
    def test_equals_from_frame_per_track_and_keyframe(self, relief_ds):
        """Tracks of both levels and of unequal lengths, some positions too
        close to the border to lift: each track gets the surfaces
        ``from_frame`` lifts at its own keyframes, in keyframe order."""
        pyrs = [build_pyramid(v.image, 2) for v in relief_ds.frames]
        rng = np.random.default_rng(109)
        tracks = []
        for i, (level, length) in enumerate([(0, 8), (1, 8), (0, 3), (1, 5),
                                             (0, 8), (1, 1)]):
            size = np.array([160.0, 120.0]) / 2 ** level
            pos = rng.uniform(-0.05, 1.05, (length, 2)) * (size - 1)
            tracks.append(Track(i, level, list(pos)))
        got = bench.lift_keyframes(relief_ds, pyrs, tracks, 4, 11)
        lifted = 0
        for tr, views in zip(tracks, got):
            want = []
            for k in select_keyframes(tr.length, 4):
                try:
                    want.append((k, LocalSurface.from_frame(
                        relief_ds.frames[k].depth, relief_ds.camera,
                        tr.positions[k], 11, tr.level)))
                except ValueError:
                    pass
            assert len(views) == len(want)
            for (surface, image), (k, oracle) in zip(views, want):
                assert image is pyrs[k].level(tr.level)
                assert surface.points.tobytes() == oracle.points.tobytes()
                assert surface.mean_normal.tobytes() == oracle.mean_normal.tobytes()
                assert surface.anchor.tobytes() == oracle.anchor.tobytes()
            lifted += len(views)
        assert 0 < lifted < sum(len(select_keyframes(t.length, 4)) for t in tracks)


class TestMemoryScaling:
    def test_keepall_grows_linearly_and_mv_stays_flat(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=1)
        tracks = synthetic_tracks(params, 3, 30, seed=111)
        out = memory_scaling(tracks, params, [5, 10, 20, 30])

        assert len(set(out["mv_bytes"])) == 1
        assert out["mv_slope"] == pytest.approx(0.0, abs=1e-9)
        # no growth: the ratio divides by one byte per frame
        assert out["slope_ratio"] == out["keepall_slope"]

        kb = np.array(out["keepall_bytes"], dtype=np.float64)
        lengths = np.array(out["lengths"], dtype=np.float64)
        per_frame = np.diff(kb) / np.diff(lengths)
        # one stored row per track per frame, so growth is exactly affine
        assert len(set(per_frame.tolist())) == 1
        assert out["keepall_slope"] == pytest.approx(per_frame[0])
        assert (np.diff(kb) > 0).all()

    def test_short_track_rejected(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=1)
        tracks = synthetic_tracks(params, 2, 10, seed=112)
        with pytest.raises(ValueError):
            memory_scaling(tracks, params, [20])


class TestUpdateCost:
    def test_profile_shape(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=1)
        dens = synthetic_tracks(params, 1, 4, seed=113)[0]
        out = update_cost_profile(dens, params, [1, 5, 20], reps=10)
        assert out["lengths"] == [1, 5, 20]
        assert len(out["update_seconds"]) == 3
        assert all(t > 0.0 for t in out["update_seconds"])
        assert out["flatness"] >= 1.0

    def test_probes_leave_the_state_bit_identical(self, monkeypatch):
        params = DescriptorParams(patch_size=8, bins=4, cells=2)
        dens = synthetic_tracks(params, 1, 4, seed=114)[0]
        made = []

        class Recording(MultiViewAccumulator):
            def __init__(self, p):
                super().__init__(p)
                made.append(self)

        monkeypatch.setattr(bench, "MultiViewAccumulator", Recording)
        update_cost_profile(dens, params, [1, 5, 20], reps=200)
        assert len(made) == 3
        for acc, t in zip(made, [1, 5, 20]):
            want = MultiViewAccumulator(params)
            for i in range(t):
                want.update(OrientationDensity(dens[i % len(dens)], params))
            assert acc.frames == t
            assert acc.density_sum.tobytes() == want.density_sum.tobytes()


class TestNameHash:
    def test_deterministic_and_hand_checked(self):
        assert hash_name("a") == 97
        assert hash_name("ab") == 97 * 131 + 98
        assert hash_name("plane0") == hash_name("plane0")
        assert hash_name("plane0") != hash_name("plane1")
        assert 0 <= hash_name("some very long scene name") < 1000003


class TestConfig:
    def test_nested_merge_keeps_unrelated_keys(self):
        cfg = _merge_config({"tracker": {"n_features": 9}, "sv_trials": 1})
        assert cfg["tracker"]["n_features"] == 9
        assert cfg["tracker"]["levels"] == \
            default_benchmark_config()["tracker"]["levels"]
        assert cfg["sv_trials"] == 1

    def test_none_gives_defaults(self):
        assert _merge_config(None) == default_benchmark_config()

    def test_quick_config_only_overrides_known_keys(self):
        quick = quick_benchmark_config()
        base = default_benchmark_config()
        assert set(quick) <= set(base)
        merged = _merge_config(quick)
        assert len(merged["scenes"]) == 1
        assert merged["patch_sizes"] == [11]
        assert merged["tracker"]["levels"] == base["tracker"]["levels"]

    def test_scene_entries_are_complete(self):
        for sc in default_benchmark_config()["scenes"]:
            assert {"name", "kind", "seed"} <= set(sc)
