"""End-to-end command-line workflows on a small scene."""

import json
import shutil

import numpy as np
import pytest

from mvdesc import bench
from mvdesc.cli import main
from mvdesc.hog import DescriptorParams, patch_densities
from mvdesc.image import GrayImage, build_pyramid, write_pgm
from mvdesc.matching import DescriptorDatabase
from mvdesc.scene import load_dataset
from mvdesc.tracking import load_tracks
from mvdesc.viewsynth import MIN_FACING, sample_rotations


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus a finished tracking run."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"n_frames": 6}))
    assert main(["generate", "--out", str(root / "ds"), "--kind", "plane",
                 "--seed", "21", "--name", "cliplane",
                 "--spec", str(spec)]) == 0
    assert main(["track", "--dataset", str(root / "ds"),
                 "--out", str(root / "tracks"),
                 "--features", "150", "--patch-size", "15"]) == 0
    return root


class TestGenerateAndTrack:
    def test_dataset_layout(self, workspace):
        ds = workspace / "ds"
        assert (ds / "manifest.json").is_file()
        assert len(list((ds / "frames").glob("*.pgm"))) == 6
        assert len(list((ds / "frames").glob("*.depth"))) == 6
        assert len(list((ds / "tests").glob("*.pgm"))) == 6
        manifest = json.loads((ds / "manifest.json").read_text())
        assert manifest["spec"]["name"] == "cliplane"
        assert manifest["spec"]["n_frames"] == 6

    def test_tracks_survive_and_carry_patches(self, workspace):
        tracks, meta = load_tracks(workspace / "tracks")
        assert meta["patch_size"] == 15
        assert len(tracks) >= 5
        for tr in tracks[:5]:
            assert tr.length == 6
            assert tr.patches.shape == (6, 15, 15)

    def test_tracks_layout(self, workspace):
        out = workspace / "tracks"
        assert sorted(f.name for f in out.iterdir()) == ["patches.pgm",
                                                          "tracks.json"]
        doc = json.loads((out / "tracks.json").read_text())
        assert doc["format_version"] == 2
        firsts = [rec["first_patch"] for rec in doc["tracks"]]
        assert firsts == [6 * i for i in range(len(firsts))]


    def test_one_pyramid_per_frame(self, workspace, tmp_path, pyramid_builds):
        assert main(["track", "--dataset", str(workspace / "ds"),
                     "--out", str(tmp_path / "tracks"),
                     "--features", "150", "--patch-size", "15"]) == 0
        assert pyramid_builds == [2] * 6
        assert (tmp_path / "tracks" / "tracks.json").read_bytes() == \
            (workspace / "tracks" / "tracks.json").read_bytes()


class TestTrackErrors:
    @pytest.mark.parametrize("tiny, args, message", [
        (False, ["--window", "10"], "window: 10, expected an odd number"),
        (False, ["--levels", "6"], "levels: 6, expected at most 5"),
        # 40 x 30 frames hold 4 pyramid levels, not 5
        (True, ["--levels", "5"], "image too small for 5 pyramid levels"),
        (False, ["--features", "0"], "n_features: 0, expected at least 1"),
        (False, ["--features", "-5"], "n_features: -5, expected at least 1"),
        (False, ["--reject", "nan"],
         "reject_thresh: nan, expected a finite number"),
        (False, ["--reject", "-1"], "reject_thresh: -1.0, expected above 0"),
    ], ids=["even-window", "levels-past-max", "levels-past-image",
            "no-features", "negative-features", "nan-reject", "negative-reject"])
    def test_invalid_option_prints_the_error(self, workspace, tmp_path, capsys,
                                             tiny, args, message):
        ds = workspace / "ds"
        if tiny:
            spec = tmp_path / "tiny.json"
            spec.write_text(json.dumps({"n_frames": 2, "resolution": [40, 30],
                                        "focal": 42.5}))
            ds = tmp_path / "ds"
            assert main(["generate", "--out", str(ds), "--spec", str(spec)]) == 0
        rc = main(["track", "--dataset", str(ds), "--out",
                   str(tmp_path / "tracks"), *args])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "tracks").exists()


    @pytest.mark.parametrize("size", ["2", "0", "-3"])
    def test_patch_size_below_three_fails_before_tracking(self, tmp_path,
                                                           capsys, size):
        # the dataset does not exist: the option is checked before it is read
        rc = main(["track", "--dataset", str(tmp_path / "no-dataset"),
                   "--out", str(tmp_path / "tracks"), "--patch-size", size])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"--patch-size: {size}, expected at least 3\n")
        assert not (tmp_path / "tracks").exists()


class TestDescribe:
    def build(self, workspace, method, extra=()):
        out = workspace / f"db_{method}"
        args = ["describe", "--tracks", str(workspace / "tracks"),
                "--out", str(out), "--method", method, *extra]
        assert main(args) == 0
        return DescriptorDatabase.load(out)

    def test_single_view_database(self, workspace):
        n_tracks = len(load_tracks(workspace / "tracks")[0])
        db = self.build(workspace, "sv")
        assert db.method == "sv"
        assert len(db) == n_tracks
        assert db.params.patch_size == 15

    def test_multiview_database(self, workspace):
        n_tracks = len(load_tracks(workspace / "tracks")[0])
        db = self.build(workspace, "mv")
        assert db.method == "mv"
        assert len(db) == n_tracks

    def test_keepall_database_equals_the_bench_builder(self, workspace):
        tracks, _ = load_tracks(workspace / "tracks")
        params = DescriptorParams(15)
        want = bench.keepall([tr.id for tr in tracks],
                             [patch_densities(tr.patches, params)
                              for tr in tracks], params)
        db = self.build(workspace, "keepall")
        assert db.method == "keepall"
        assert len(db) == sum(len(tr.patches) for tr in tracks)
        assert np.array_equal(db.track_ids, want.track_ids)
        # the file stores float32 values
        assert np.array_equal(db.matrix,
                              want.matrix.astype(np.float32).astype(np.float64))

    def test_last_frame_is_the_sv_pick(self, workspace, tmp_path):
        tracks, _ = load_tracks(workspace / "tracks")
        params = DescriptorParams(15)
        want = bench.sv([tr.id for tr in tracks],
                        [patch_densities(tr.patches[5:6], params)[0]
                         for tr in tracks], params)
        db = self.build(workspace, "sv", ("--frame", "5"))
        assert np.array_equal(db.matrix,
                              want.matrix.astype(np.float32).astype(np.float64))

    def test_reconstruction_database(self, workspace):
        n_tracks = len(load_tracks(workspace / "tracks")[0])
        db = self.build(workspace, "rhog",
                        ("--dataset", str(workspace / "ds"),
                         "--keyframes", "2"))
        assert db.method == "rhog"
        # several synthesized views per track
        assert len(db) > 2 * n_tracks

    def test_rhog_builds_only_the_keyframes_pyramids(self, workspace, tmp_path,
                                                     pyramid_builds):
        out = tmp_path / "rhog.db"
        assert main(["describe", "--tracks", str(workspace / "tracks"),
                     "--out", str(out), "--method", "rhog",
                     "--dataset", str(workspace / "ds"), "--keyframes", "2"]) == 0
        # 6-frame tracks: keyframes 0 and 5, at the stored depth of 2
        assert pyramid_builds == [2, 2]
        # the database that every frame's pyramid gives
        tracks, meta = load_tracks(workspace / "tracks")
        ds = load_dataset(workspace / "ds")
        pyrs = [build_pyramid(v.image, meta["levels"]) for v in ds.frames]
        want = bench.rhog([tr.id for tr in tracks],
                          bench.lift_keyframes(ds, pyrs, tracks, 2, 15),
                          DescriptorParams(15), sample_rotations(), MIN_FACING)
        want.save(tmp_path / "want.db")
        assert out.read_bytes() == (tmp_path / "want.db").read_bytes()

    def test_rhog_without_dataset_fails(self, workspace, capsys):
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(workspace / "nope"), "--method", "rhog"])
        assert rc == 1
        assert "depth" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["sv", "mv", "keepall"])
    def test_patch_size_must_match_stored_patches(self, workspace, capsys,
                                                  method):
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(workspace / "nope"), "--method", method,
                   "--patch-size", "11"])
        assert rc == 1
        assert "stored 15-pixel patches" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["sv", "mv", "rhog"])
    def test_patch_size_zero_fails_and_writes_nothing(
            self, workspace, tmp_path, capsys, method):
        # 0 is a size to refuse, not a request for the stored size
        out = tmp_path / "zero.db"
        extra = (["--dataset", str(workspace / "ds"), "--keyframes", "2"]
                 if method == "rhog" else [])
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(out), "--method", method,
                   "--patch-size", "0", *extra])
        assert rc == 1
        assert "--patch-size: 0, expected at least 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["2", "0", "-3"])
    def test_patch_size_below_three_names_the_option(
            self, workspace, tmp_path, capsys, size):
        out = tmp_path / "small.db"
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(out), "--method", "rhog", "--patch-size", size,
                   "--dataset", str(workspace / "ds"), "--keyframes", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"--patch-size: {size}, expected at least 3\n")
        assert not out.exists()

    @pytest.mark.parametrize("keyframes", ["0", "-1"])
    def test_rhog_without_keyframes_fails_and_writes_nothing(
            self, workspace, tmp_path, capsys, keyframes):
        out = tmp_path / "none.db"
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(out), "--method", "rhog",
                   "--dataset", str(workspace / "ds"), "--keyframes", keyframes])
        assert rc == 1
        assert f"--keyframes: {keyframes}, expected at least 1" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_no_rows_fails_and_writes_nothing(self, workspace, tmp_path,
                                              capsys, monkeypatch):
        # every keyframe surface refused: the rhog database stays empty
        def refuse(*args):
            raise ValueError("no synthesized view was accepted")
        monkeypatch.setattr("mvdesc.bench.synthesize_views", refuse)
        out = tmp_path / "empty.db"
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(out), "--method", "rhog",
                   "--dataset", str(workspace / "ds"), "--keyframes", "2"])
        assert rc == 1
        assert "no rhog descriptor was built" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def match_dbs(workspace, tmp_path_factory):
    """sv and mv databases of the workspace tracks, built here so that each
    match test can run on its own."""
    root = tmp_path_factory.mktemp("match")
    for method in ("sv", "mv"):
        assert main(["describe", "--tracks", str(workspace / "tracks"),
                     "--out", str(root / f"db_{method}"),
                     "--method", method]) == 0
    return root


class TestMatch:
    def test_self_match_is_perfect(self, match_dbs, capsys):
        db = str(match_dbs / "db_sv")
        out = match_dbs / "self.csv"
        assert main(["match", "--db", db, "--queries", db,
                     "--out", str(out)]) == 0
        assert "accuracy" in capsys.readouterr().err
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "query_index,query_track,predicted_track,distance"
        n = len(DescriptorDatabase.load(match_dbs / "db_sv"))
        assert len(lines) == n + 1
        for row in lines[1:]:
            _, truth, pred, dist = row.split(",")
            assert truth == pred
            assert float(dist) == 0.0

    def test_cross_method_match_with_metric(self, match_dbs, capsys):
        out = match_dbs / "cross.csv"
        assert main(["match", "--db", str(match_dbs / "db_mv"),
                     "--queries", str(match_dbs / "db_sv"),
                     "--metric", "chi2", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "accuracy" in err
        n = len(DescriptorDatabase.load(match_dbs / "db_sv"))
        assert len(out.read_text().strip().splitlines()) == n + 1


    def test_unreadable_database_prints_the_error(self, match_dbs, tmp_path,
                                                  capsys):
        bad = tmp_path / "cut.db"
        bad.write_bytes((match_dbs / "db_sv").read_bytes()[:-5])
        rc = main(["match", "--db", str(bad),
                   "--queries", str(match_dbs / "db_sv")])
        assert rc == 1
        assert f"{bad}: descriptor values cut short" in capsys.readouterr().err

    def test_queries_with_other_params_are_refused(self, workspace, match_dbs,
                                                   tmp_path, capsys):
        # an 11-pixel rhog database against 15-pixel sv queries: the rows
        # have the same length, but describe different patches
        db = tmp_path / "rhog11.db"
        assert main(["describe", "--tracks", str(workspace / "tracks"),
                     "--out", str(db), "--method", "rhog", "--patch-size",
                     "11", "--dataset", str(workspace / "ds"),
                     "--keyframes", "2"]) == 0
        capsys.readouterr()
        out = tmp_path / "m.csv"
        rc = main(["match", "--db", str(db), "--queries",
                   str(match_dbs / "db_sv"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "patch_size=15" in err and "patch_size=11" in err
        assert "differ" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clibench")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "scenes": [{"name": "tiny", "kind": "plane", "seed": 101,
                    "n_frames": 12}],
        "patch_sizes": [11],
        "sv_trials": 2,
        "max_tracks": 40,
        "tracker": {"n_features": 200, "levels": 2},
        "excitation": {"ks": [2, 6, 12], "trials": 2, "patch_size": 11},
        "memory_lengths": [4, 8, 12],
        "timing_lengths": [1, 6, 12],
        "timing_reps": 20,
    }))
    out = root / "bench"
    assert main(["bench", "--out", str(out), "--config", str(cfg)]) == 0
    return out


class TestBenchAndReport:
    def test_bench_outputs(self, bench_dir):
        rep = json.loads((bench_dir / "report.json").read_text())
        assert set(rep["pooled"]) == {"sv", "mv", "keepall", "rhog"}
        assert (bench_dir / "report.csv").is_file()
        assert (bench_dir / "excitation.csv").is_file()
        assert (bench_dir / "timing.csv").is_file()

    def test_report_summarizes(self, bench_dir, capsys):
        assert main(["report", "--bench-dir", str(bench_dir)]) == 0
        text = capsys.readouterr().out
        assert "recognition rate" in text
        assert "spearman" in text
        for method in ("sv", "mv", "keepall", "rhog"):
            assert method in text


class TestInputErrors:
    """A bad input file or option prints the error and exits 1, with no
    traceback and no output file."""

    def test_report_on_a_missing_bench_dir(self, tmp_path, capsys):
        missing = tmp_path / "nothing"
        assert main(["report", "--bench-dir", str(missing)]) == 1
        assert str(missing / "report.json") in capsys.readouterr().err

    def test_track_on_a_malformed_manifest(self, tmp_path, capsys):
        (tmp_path / "ds").mkdir()
        (tmp_path / "ds" / "manifest.json").write_text('{"format_version": 1}')
        rc = main(["track", "--dataset", str(tmp_path / "ds"),
                   "--out", str(tmp_path / "tracks")])
        assert rc == 1
        assert "manifest.json: spec: missing" in capsys.readouterr().err
        assert not (tmp_path / "tracks").exists()

    def test_track_on_a_frame_of_another_size(self, workspace, tmp_path,
                                              capsys):
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        name = json.loads((ds / "manifest.json").read_text())["frames"][3]["image"]
        write_pgm(GrayImage(np.full((40, 50), 0.5)), ds / name)
        rc = main(["track", "--dataset", str(ds), "--out",
                   str(tmp_path / "tracks")])
        assert rc == 1
        assert (f"{ds / 'manifest.json'}: frames[3].image: {name!r} is 50x40, "
                f"expected the camera's ") in capsys.readouterr().err
        assert not (tmp_path / "tracks").exists()

    def test_describe_on_malformed_tracks(self, tmp_path, capsys):
        (tmp_path / "tracks").mkdir()
        (tmp_path / "tracks" / "tracks.json").write_text("[]")
        rc = main(["describe", "--tracks", str(tmp_path / "tracks"),
                   "--out", str(tmp_path / "db")])
        assert rc == 1
        assert "tracks.json: not a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "db").exists()

    def test_describe_on_version_1_tracks(self, tmp_path, capsys):
        (tmp_path / "tracks").mkdir()
        (tmp_path / "tracks" / "tracks.json").write_text(json.dumps({
            "format_version": 1, "meta": {}, "tracks": [{
                "id": 0, "level": 0, "alive": True, "positions": [[1.0, 2.0]],
                "patches": ["patches/t00000_f000.pgm"]}]}))
        rc = main(["describe", "--tracks", str(tmp_path / "tracks"),
                   "--out", str(tmp_path / "db")])
        assert rc == 1
        assert ("tracks.json: format_version: 1, expected 2; rebuild it with "
                "`mvdesc track`") in capsys.readouterr().err
        assert not (tmp_path / "db").exists()

    def test_rhog_on_a_missing_dataset(self, workspace, tmp_path, capsys):
        missing = tmp_path / "nothing"
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(tmp_path / "db"), "--method", "rhog",
                   "--dataset", str(missing)])
        assert rc == 1
        assert str(missing / "manifest.json") in capsys.readouterr().err
        assert not (tmp_path / "db").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"n_frames": 6', "Expecting"),
        ('[["n_frames", 6]]', "expected a JSON object, got list"),
    ], ids=["unparsable", "list"])
    def test_generate_with_a_bad_spec(self, tmp_path, capsys, text, message):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        rc = main(["generate", "--out", str(tmp_path / "ds"),
                   "--spec", str(spec)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{spec}: " in err and message in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("spec, field", [
        ({"test_azimuths_deg": [0.0, 20.0, -20.0],
          "test_elevations_deg": [46.0, 44.0],
          "test_distance_scale": [1.0, 1.05, 0.95]},
         "test_elevations_deg: 2 entries, test_azimuths_deg has 3"),
        ({"n_frames": 0}, "n_frames: 0, expected at least 1"),
        ({"bogus": 3}, "bogus: not a scene spec field"),
    ], ids=["test-view-lengths", "no-frames", "unknown-field"])
    def test_generate_with_a_refused_spec(self, tmp_path, capsys, spec, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["generate", "--out", str(tmp_path / "ds"),
                   "--spec", str(path)])
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("config, field", [
        ({"patch_sizes": [11]},
         "excitation.patch_size: 21, expected one of patch_sizes [11]"),
        ({"max_tracks": 0}, "max_tracks: 0, expected at least 1"),
        ({"rhog": {"keyframes": 0}}, "rhog.keyframes: 0, expected at least 1"),
        ({"tracker": {"bogus": 1}}, "tracker.bogus: not a tracker field"),
        ({"bogus": 1}, "bogus: not a benchmark config field"),
        ({"scenes": [{"name": "a", "n_frames": 0}]},
         "scenes[0].n_frames: 0, expected at least 1"),
    ], ids=["excitation-size", "no-tracks", "no-keyframes", "tracker-field",
            "unknown-field", "scene-spec"])
    def test_bench_with_a_refused_config(self, tmp_path, capsys, config,
                                         field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        rc = main(["bench", "--out", str(tmp_path / "bench"),
                   "--config", str(path)])
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("config, field", [
        ({"memory_lengths": [5, 15, 30]},
         "memory_lengths[0]: 5, expected at most the 4 frames of scenes[0]"),
        ({"memory_lengths": []}, "memory_lengths: empty"),
        ({"memory_lengths": [0, 2]},
         "memory_lengths[0]: 0, expected at least 1"),
        ({"timing_lengths": [1, 2.5]},
         "timing_lengths[1]: 2.5, expected an integer"),
        ({"timing_lengths": "4"}, "timing_lengths: expected list, got str"),
        ({"timing_reps": 0}, "timing_reps: 0, expected at least 1"),
        ({"timing_reps": 2.5}, "timing_reps: 2.5, expected an integer"),
        ({"memory_lengths": [4, 4]},
         "memory_lengths: [4, 4], expected at least two distinct values"),
        ({"rhog": {"n_azimuth": 0}}, "rhog.n_azimuth: 0, expected at least 1"),
        ({"rhog": {"n_inplane": -1}},
         "rhog.n_inplane: -1, expected at least 1"),
        ({"excitation": {"trials": 0, "patch_size": 11}},
         "excitation.trials: 0, expected at least 1"),
        ({"excitation": {"ks": [2, 0], "patch_size": 11}},
         "excitation.ks[1]: 0, expected at least 1"),
        ({"excitation": {"ks": [5, 5], "patch_size": 11}},
         "excitation.ks: [5, 5], expected at least two distinct values"),
        ({"timing_lengths": [5, 5]},
         "timing_lengths: [5, 5], expected at least two distinct values"),
        ({"patch_sizes": [2, 11]}, "patch_sizes[0]: 2, expected at least 3"),
        ({"patch_sizes": [11.0]}, "patch_sizes[0]: 11.0, expected an integer"),
        ({"metric": "cosine"}, "metric: 'cosine', expected one of ('l1', "),
        ({"seed": "a"}, "seed: 'a', expected an integer"),
        ({"seed": -1}, "seed: -1, expected at least 0"),
        ({"rhog": {"tilt": "x"}}, "rhog.tilt: 'x', expected a finite number"),
        ({"rhog": {"inplane_halfwidth": None}},
         "rhog.inplane_halfwidth: None, expected a finite number"),
        ({"rhog": {"min_facing": float("inf")}},
         "rhog.min_facing: inf, expected a finite number"),
        ({"tracker": {"n_features": 250.5}},
         "tracker.n_features: 250.5, expected an integer"),
        ({"tracker": {"nms_radius": "x"}},
         "tracker.nms_radius: 'x', expected a finite number"),
        ({"tracker": {"max_iters": True}},
         "tracker.max_iters: True, expected an integer"),
        ({"tracker": {"count_tol": -1}},
         "tracker.count_tol: -1, expected at least 0"),
        ({"tracker": {"count_tol": float("nan")}},
         "tracker.count_tol: nan, expected a finite number"),
        ({"tracker": {"threshold_range": [0.5, 0.1]}},
         "tracker.threshold_range: [0.5, 0.1], expected increasing order"),
    ], ids=["memory-past-frames", "memory-empty", "memory-zero",
            "timing-fraction", "timing-not-a-list", "timing-reps-zero",
            "timing-reps-fraction", "memory-one-length", "rhog-no-azimuth",
            "rhog-no-inplane", "excitation-no-trials", "excitation-k-zero",
            "excitation-one-k", "timing-one-length", "patch-size-two",
            "patch-size-fraction", "unknown-metric", "seed-type",
            "negative-seed", "rhog-tilt-type", "rhog-halfwidth-type",
            "rhog-facing-inf", "tracker-features-fraction",
            "tracker-nms-type", "tracker-iters-bool", "tracker-tol-negative",
            "tracker-tol-nan", "tracker-range-reversed"])
    def test_bench_lengths_the_first_scene_cannot_run(
            self, tmp_path, capsys, monkeypatch, pyramid_builds, config, field):
        # a 4-frame scene under the quick config, refused before rendering
        def render(*args, **kwargs):
            raise AssertionError("rendered before the config was checked")
        monkeypatch.setattr("mvdesc.bench.generate_dataset", render)
        quick = bench.quick_benchmark_config()
        quick["scenes"] = [{**quick["scenes"][0], "n_frames": 4}]
        quick["memory_lengths"] = [2, 4]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**quick, **config}))
        rc = main(["bench", "--out", str(tmp_path / "bench"),
                   "--config", str(path)])
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "bench").exists() and not pyramid_builds

    def test_bench_on_a_scene_that_keeps_no_track(self, tmp_path, capsys):
        # a 119-pixel patch fits in no level of a 160 x 120 frame
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenes": [{"name": "tiny", "kind": "plane", "seed": 101,
                        "n_frames": 3}],
            "patch_sizes": [119], "excitation": {"patch_size": 119},
            "memory_lengths": [1, 2, 3]}))
        rc = main(["bench", "--out", str(tmp_path / "bench"),
                   "--config", str(path)])
        assert rc == 1
        assert "scene tiny, patch size 119: no track" in capsys.readouterr().err
        assert not (tmp_path / "bench" / "report.json").exists()

    def test_bench_on_a_scene_that_makes_no_query(self, tmp_path, capsys,
                                                  monkeypatch):
        # every track occluded in every test view: no rate can be measured
        def occluded(src, dst, xy):
            return np.full((len(xy), 2), np.nan), np.full(len(xy), "occluded",
                                                          dtype=object)
        monkeypatch.setattr("mvdesc.bench.ground_truth_correspondences",
                            occluded)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenes": [{"name": "tiny", "kind": "plane", "seed": 101,
                        "n_frames": 3}],
            "patch_sizes": [11], "excitation": {"patch_size": 11},
            "max_tracks": 10, "memory_lengths": [1, 2, 3]}))
        rc = main(["bench", "--out", str(tmp_path / "bench"),
                   "--config", str(path)])
        assert rc == 1
        assert "scene tiny, patch size 11: no track lands visible" \
            in capsys.readouterr().err
        assert not (tmp_path / "bench" / "report.json").exists()

    @pytest.mark.parametrize("mangle, field", [
        (lambda doc: doc["meta"].update(levels=9),
         "meta.levels: 9, expected at most 5"),
        (lambda doc: doc["meta"].update(levels=0),
         "meta.levels: 0, expected at least 1"),
        (lambda doc: doc["meta"].update(levels="two"),
         "meta.levels: 'two', expected an integer"),
        (lambda doc: doc["tracks"][1].update(level=2),
         "tracks[1].level: 2, expected below meta.levels 2"),
        (lambda doc: doc["tracks"][3].update(level=4),
         "tracks[3].level: 4, expected below meta.levels 2"),
    ], ids=["levels-past-max", "levels-zero", "levels-string",
            "level-at-depth", "level-past-depth"])
    def test_rhog_on_tracks_of_another_depth(self, workspace, tmp_path, capsys,
                                             mangle, field):
        tracks = tmp_path / "tracks"
        shutil.copytree(workspace / "tracks", tracks)
        doc = json.loads((tracks / "tracks.json").read_text())
        mangle(doc)
        (tracks / "tracks.json").write_text(json.dumps(doc))
        rc = main(["describe", "--tracks", str(tracks), "--out",
                   str(tmp_path / "db"), "--method", "rhog",
                   "--dataset", str(workspace / "ds")])
        assert rc == 1
        assert f"{tracks / 'tracks.json'}: {field}" in capsys.readouterr().err
        assert not (tmp_path / "db").exists()

    @pytest.mark.parametrize("frame", ["-1", "-100"])
    def test_describe_with_a_negative_frame(self, workspace, tmp_path, capsys,
                                            frame):
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(tmp_path / "db"), "--method", "sv",
                   "--frame", frame])
        assert rc == 1
        assert f"--frame: {frame}, expected at least 0" \
            in capsys.readouterr().err
        assert not (tmp_path / "db").exists()

    @pytest.mark.parametrize("frame", ["6", "99"])
    def test_describe_with_a_frame_past_the_tracks(self, workspace, tmp_path,
                                                   capsys, frame):
        # the tracks have 6 frames; a later frame is refused, not clamped
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(tmp_path / "db"), "--method", "sv",
                   "--frame", frame])
        assert rc == 1
        assert (f"--frame: {frame}, expected below 6, the frames of the "
                f"shortest stored track") in capsys.readouterr().err
        assert not (tmp_path / "db").exists()

    @pytest.mark.parametrize("text, message", [
        ("{}", "pooled: missing"),
        ("[1]", "expected a JSON object, got list"),
        ("not json", "Expecting value"),
        ('{"pooled": []}', "pooled: expected dict, got list"),
        ('{"pooled": {"sv": {"11": "0.5"}}}',
         "pooled.sv.11: '0.5', expected a finite number"),
        ('{"pooled": {"sv": {"11": 0.5}}, "excitation": {"spearman": null}}',
         "excitation.spearman: None, expected a finite number"),
    ], ids=["empty", "list", "unparsable", "pooled-list", "rate-string",
            "spearman-null"])
    def test_report_on_a_malformed_report(self, tmp_path, capsys, text,
                                          message):
        (tmp_path / "report.json").write_text(text)
        assert main(["report", "--bench-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert f"{tmp_path / 'report.json'}: " in captured.err
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("section, field", [
        ("memory", "mv_slope"), ("excitation", "points"), (None, "n_tracks"),
    ], ids=["memory.mv_slope", "excitation.points", "n_tracks"])
    def test_report_missing_a_printed_field(self, bench_dir, tmp_path, capsys,
                                            section, field):
        rep = json.loads((bench_dir / "report.json").read_text())
        del (rep[section] if section else rep)[field]
        (tmp_path / "report.json").write_text(json.dumps(rep))
        assert main(["report", "--bench-dir", str(tmp_path)]) == 1
        name = f"{section}.{field}" if section else field
        assert f"report.json: {name}: missing" in capsys.readouterr().err
