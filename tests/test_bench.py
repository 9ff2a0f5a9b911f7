"""Benchmark statistics, storage/timing studies, and config plumbing."""

import math

import numpy as np
import pytest

from mvdesc import bench
from mvdesc.bench import (_merge_config, default_benchmark_config, hash_name,
                          memory_scaling, quick_benchmark_config, spearman,
                          update_cost_profile)
from mvdesc.hog import DescriptorParams, normalize_density, sample_descriptor
from mvdesc.multiview import MultiViewAccumulator
from mvdesc.viewsynth import (LocalSurface, patch_density, sample_rotations,
                              synthesize_views)


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
    rng = np.random.default_rng(seed)
    return [[patch_density(rng.random((params.patch_size,) * 2), params)
             for _ in range(n_frames)]
            for _ in range(n_tracks)]


def per_row(density, method):
    """The per-density descriptor path the builders batch."""
    return sample_descriptor(normalize_density(density), method).values


class TestBuildersEqualThePerRowPath:
    """Each builder's rows, track ids and groups equal, byte for byte, what
    one ``sample_descriptor(normalize_density(d))`` per row (or
    ``MultiViewAccumulator.finalize`` per track) gives."""

    params = DescriptorParams(patch_size=9, bins=8, cells=3)
    ids = [7, 3, 11, 5]

    def tracks(self):
        tracks = synthetic_tracks(self.params, 4, 5, seed=113)
        # a flat frame: every cell has zero mass and becomes uniform
        tracks[1][2] = patch_density(np.full((9, 9), 0.5), self.params)
        return tracks

    @staticmethod
    def assert_rows(db, method, rows, ids, groups):
        assert db.method == method
        assert db.matrix.dtype == np.float64
        assert db.matrix.tobytes() == np.array(rows).tobytes()
        assert db.track_ids.tolist() == ids
        assert db.groups.tolist() == groups

    def test_sv(self):
        picks = [t[i] for i, t in enumerate(self.tracks())]
        db = bench.sv(self.ids, picks, self.params, "chi2")
        assert db.metric == "chi2"
        self.assert_rows(db, "sv", [per_row(d, "sv") for d in picks],
                         self.ids, [0] * 4)

    def test_mv(self):
        tracks = self.tracks()
        want = []
        for dens in tracks:
            acc = MultiViewAccumulator(self.params)
            for d in dens:
                acc.update(d)
            want.append(sample_descriptor(acc.finalize(), "mv").values)
        self.assert_rows(bench.mv(self.ids, tracks, self.params), "mv", want,
                         self.ids, [0] * 4)

    def test_keepall(self):
        tracks = self.tracks()
        self.assert_rows(bench.keepall(self.ids, tracks, self.params),
                         "keepall",
                         [per_row(d, "keepall") for dens in tracks for d in dens],
                         [t for t in self.ids for _ in range(5)],
                         list(range(5)) * 4)

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
                    rows.append(per_row(patch_density(patch, params), "rhog"))
                    ids.append(tid)
            groups += list(range(ids.count(tid)))
        db = bench.rhog([4, 9], views, params, rotations)
        self.assert_rows(db, "rhog", rows, ids, groups)
        assert len(db) > 3 * 10


class TestMemoryScaling:
    def test_keepall_grows_linearly_and_mv_stays_flat(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=1)
        tracks = synthetic_tracks(params, 3, 30, seed=111)
        out = memory_scaling(tracks, params, [5, 10, 20, 30])

        assert len(set(out["mv_bytes"])) == 1
        assert out["mv_slope"] == pytest.approx(0.0, abs=1e-9)
        assert out["slope_ratio"] == math.inf

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
                want.update(dens[i % len(dens)])
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
