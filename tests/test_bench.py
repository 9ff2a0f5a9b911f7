"""Benchmark statistics, storage/timing studies, and config plumbing."""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdesc import bench
from mvdesc.bench import (_merge_config, default_benchmark_config, hash_name,
                          memory_scaling, quick_benchmark_config, spearman,
                          update_cost_profile)
from mvdesc.hog import DescriptorParams, patch_densities
from mvdesc.multiview import MultiViewAccumulator
from mvdesc.image import build_pyramid
from mvdesc.scene import _SPEC_FIELDS, _check_spec, default_scene_spec
from mvdesc.tracking import Track
from mvdesc.viewsynth import (LocalSurface, sample_rotations,
                              select_keyframes, synthesize_views)
from oracles import normalized_row, patch_density


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


def per_row(grid, params):
    """One density's descriptor row, normalized one cell at a time."""
    return normalized_row(grid, params.bins)[0]


def accumulated(track_grids, params):
    """Per track, the mean that the ``MultiViewAccumulator`` fold keeps,
    normalized one cell at a time: what the mv builder batches."""
    rows = []
    for grids in track_grids:
        acc = MultiViewAccumulator(params)
        for g in grids:
            acc.update(g)
        rows.append(per_row(acc.density_sum / acc.frames, params))
    return rows


class TestBuildersEqualThePerRowPath:
    """Each builder's rows and track ids equal, byte for byte, the scalar
    per-cell normalization of each row's density (of each track's
    accumulated mean for mv)."""

    params = DescriptorParams(patch_size=9, bins=8, cells=3)
    ids = [7, 3, 11, 5]

    def tracks(self):
        tracks = synthetic_tracks(self.params, 4, 5, seed=113)
        # a flat frame: every cell has zero mass and becomes uniform
        tracks[1, 2] = patch_densities(np.full((1, 9, 9), 0.5), self.params)[0]
        return tracks

    @staticmethod
    def assert_rows(db, method, rows, ids):
        assert db.method == method
        assert db.matrix.dtype == np.float64
        assert db.matrix.tobytes() == np.array(rows).tobytes()
        assert db.track_ids.tolist() == ids

    def test_sv(self):
        picks = self.tracks()[np.arange(4), np.arange(4)]
        self.assert_rows(bench.sv(self.ids, picks, self.params), "sv",
                         [per_row(g, self.params) for g in picks], self.ids)

    def test_mv(self):
        tracks = self.tracks()
        self.assert_rows(bench.mv(self.ids, tracks, self.params), "mv",
                         accumulated(tracks, self.params), self.ids)

    @pytest.mark.filterwarnings("error")
    def test_mv_names_a_track_with_no_frames(self):
        tracks = [self.tracks()[0], np.empty((0, 3, 3, 8))]
        with pytest.raises(ValueError, match="mv: track 3 has no frames"):
            bench.mv([7, 3], tracks, self.params)

    def test_keepall(self):
        tracks = self.tracks()
        self.assert_rows(bench.keepall(self.ids, tracks, self.params),
                         "keepall",
                         [per_row(g, self.params)
                          for grids in tracks for g in grids],
                         [t for t in self.ids for _ in range(5)])

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
                         accumulated(tracks, self.params), ids)
        self.assert_rows(bench.keepall(ids, tracks, self.params), "keepall",
                         [per_row(g, self.params)
                          for grids in tracks for g in grids],
                         [t for t, n in zip(ids, lengths) for _ in range(n)])
        picks = np.array([grids[-1] for grids in tracks])
        self.assert_rows(bench.sv(ids, picks, self.params), "sv",
                         [per_row(g, self.params) for g in picks], ids)

    def test_rhog(self, plane_ds):
        frame = plane_ds.frames[0]
        w, h = frame.camera.width // 2, frame.camera.height // 2
        surfs = [LocalSurface.from_frame(frame.depth, frame.camera, xy, 11)
                 for xy in ((w, h), (w - 20, h + 10), (w + 15, h - 12))]
        views = [[(surfs[0], frame.image), (surfs[1], frame.image)],
                 [(surfs[2], frame.image)]]
        params, rotations = DescriptorParams(11), sample_rotations()
        rows, ids = [], []
        for tid, track in zip([4, 9], views):
            for surf, image in track:
                for patch in synthesize_views(surf, image, rotations)[0]:
                    rows.append(per_row(patch_density(patch, params), params))
                    ids.append(tid)
        db = bench.rhog([4, 9], views, params, rotations)
        self.assert_rows(db, "rhog", rows, ids)
        assert len(db) > 3 * 10


class TestBuildersOfNoRows:
    """Each builder makes its database in one call, also from nothing."""

    params = DescriptorParams(patch_size=9, bins=8, cells=3)

    @pytest.mark.parametrize("method, build", [
        ("sv", lambda p: bench.sv([], np.empty((0, 3, 3, 8)), p)),
        ("mv", lambda p: bench.mv([], [], p)),
        ("keepall", lambda p: bench.keepall([], np.empty((0, 5, 3, 3, 8)), p)),
        ("keepall", lambda p: bench.keepall([], [], p)),
        ("rhog", lambda p: bench.rhog([], [], p, sample_rotations())),
    ], ids=["sv", "mv", "keepall-array", "keepall-list", "rhog"])
    def test_no_tracks_give_an_empty_database(self, tmp_path, method, build):
        db = build(self.params)
        assert (db.method, len(db), db.memory_bytes) == (method, 0, 0)
        assert db.track_ids.dtype == np.int64 and db.track_ids.size == 0
        with pytest.raises(ValueError, match="database is empty"):
            db.matrix
        with pytest.raises(ValueError, match="database is empty"):
            db.save(tmp_path / "d.db")
        assert not (tmp_path / "d.db").exists()

    def test_keepall_takes_a_track_with_no_frames(self):
        grids = synthetic_tracks(self.params, 1, 3, seed=117)[0]
        db = bench.keepall([7, 3], [grids, np.empty((0, 3, 3, 8))], self.params)
        TestBuildersEqualThePerRowPath.assert_rows(
            db, "keepall", [per_row(g, self.params) for g in grids], [7, 7, 7])


class TestBuildersRefuseAWrongIdCount:
    """Each builder takes one track id per track and refuses any other
    count before building, naming itself and both counts."""

    params = DescriptorParams(patch_size=9, bins=8, cells=3)

    @pytest.mark.parametrize("ids", [[7], [7, 3, 11]],
                             ids=["too-few", "too-many"])
    @pytest.mark.parametrize("method", ["sv", "mv", "keepall", "rhog"])
    def test_a_wrong_id_count_is_refused(self, method, ids):
        tracks = synthetic_tracks(self.params, 2, 4, seed=119)
        inputs = {"sv": tracks[:, 0], "mv": list(tracks), "keepall": tracks,
                  "rhog": [[], []]}
        extra = (sample_rotations(),) if method == "rhog" else ()
        with pytest.raises(ValueError, match=f"^{method}: {len(ids)} track "
                                             f"ids for 2 tracks$"):
            getattr(bench, method)(ids, inputs[method], self.params, *extra)


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
        with pytest.raises(ValueError, match="fewer than 20 frames"):
            memory_scaling(tracks, params, [20])

    def test_one_distinct_length_rejected(self):
        # a slope fitted through one length is rank-deficient
        params = DescriptorParams(patch_size=8, bins=4, cells=1)
        tracks = synthetic_tracks(params, 3, 10, seed=112)
        for lengths in ([4], [4, 4]):
            with pytest.raises(ValueError, match="two distinct lengths"):
                memory_scaling(tracks, params, lengths)


class TestUpdateCost:
    def test_profile_shape(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=1)
        dens = synthetic_tracks(params, 1, 4, seed=113)[0]
        out = update_cost_profile(dens, params, [1, 5, 20], reps=10)
        assert out["lengths"] == [1, 5, 20]
        assert len(out["update_seconds"]) == 3
        assert all(t > 0.0 for t in out["update_seconds"])
        assert out["flatness"] >= 1.0

    def test_no_reps_rejected(self):
        params = DescriptorParams(patch_size=8, bins=4, cells=1)
        dens = synthetic_tracks(params, 1, 4, seed=113)[0]
        with pytest.raises(ValueError, match="reps: 0, expected at least 1"):
            update_cost_profile(dens, params, [1, 3], reps=0)

    def test_one_distinct_length_rejected(self):
        # a flatness over one length compares nothing and would read 1.0
        params = DescriptorParams(patch_size=8, bins=4, cells=1)
        dens = synthetic_tracks(params, 1, 4, seed=113)[0]
        for lengths in ([5], [5, 5]):
            with pytest.raises(ValueError, match="two distinct lengths"):
                update_cost_profile(dens, params, lengths, reps=3)

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


def _table_rows(table: dict, where: tuple = ()) -> list:
    """(keys, row) of every row of a field table, nested tables walked."""
    rows = []
    for key, row in table.items():
        if isinstance(row, dict):
            rows += _table_rows(row, where + (key,))
        else:
            rows.append((where + (key,), row))
    return rows


def _spec_with(keys, value):
    return {**default_scene_spec(), keys[0]: value}


def _config_with(keys, value):
    for key in reversed(keys):
        value = {key: value}
    return _merge_config(value)


TABLES = [("spec", _SPEC_FIELDS, _spec_with, _check_spec),
          ("config", bench._CONFIG_FIELDS, _config_with, bench._check_config)]
ROWS = [(name, keys, row, build, check) for name, table, build, check in TABLES
        for keys, row in _table_rows(table)]


def _rows_where(keep):
    rows = [r for r in ROWS if keep(r[2])]
    return pytest.mark.parametrize("keys, row, build, check",
                                   [r[1:] for r in rows],
                                   ids=[f"{r[0]}:{'.'.join(r[1])}" for r in rows])


def _refused(keys, row, build, check, bad):
    """Put ``bad`` in the field (its first entry, for a list) and expect a
    ValueError naming the field."""
    default, _, entries, _, _ = row
    path = ".".join(keys)
    if entries is None:
        value = bad
    else:
        value, path = [bad] + default[1:], f"{path}[0]"
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: "):
        check(build(keys, value))


class TestFieldTables:
    @_rows_where(lambda row: row[1] in (int, float) and row[3] is not None)
    def test_a_value_past_the_bound_is_refused(self, keys, row, build, check):
        _, _, _, low, strict = row
        _refused(keys, row, build, check, low if strict else low - 1)

    @_rows_where(lambda row: row[1] in (int, float) or isinstance(row[1], tuple))
    def test_a_value_of_the_wrong_kind_is_refused(self, keys, row, build,
                                                  check):
        _refused(keys, row, build, check, "x")

    @pytest.mark.parametrize("default", [default_scene_spec,
                                         default_benchmark_config])
    def test_defaults_are_fresh_copies(self, default):
        def mutate(val):
            for v in val.values() if isinstance(val, dict) else val:
                if isinstance(v, (dict, list)):
                    mutate(v)
            if isinstance(val, dict):
                val["added"] = 1
            else:
                val.append(1)

        before = copy.deepcopy(default())
        mutate(default())
        assert default() == before

    def test_defaults_pass_their_own_check(self):
        _check_spec(default_scene_spec())
        bench._check_config(default_benchmark_config())


class TestSceneRun:
    def test_one_pyramid_per_view(self, tmp_path, pyramid_builds):
        spec = {"name": "once", "kind": "plane", "seed": 5, "n_frames": 4}
        run = bench._SceneRun(spec, _merge_config(quick_benchmark_config()),
                              tmp_path)
        n_tests = len(default_scene_spec()["test_azimuths_deg"])
        assert len(run.frame_pyrs) == 4 and len(run.test_pyrs) == n_tests
        assert run.tracks
        assert pyramid_builds == [2] * (4 + n_tests)
