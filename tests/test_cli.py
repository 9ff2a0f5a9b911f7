"""End-to-end command-line workflows on a small scene."""

import json

import pytest

from mvdesc.cli import main
from mvdesc.matching import DescriptorDatabase
from mvdesc.tracking import load_tracks


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


class TestTrackErrors:
    @pytest.mark.parametrize("tiny, args, message", [
        (False, ["--window", "10"], "tracking window must be odd"),
        (False, ["--levels", "6"], "levels must be in 1..5"),
        # 40 x 30 frames hold 4 pyramid levels, not 5
        (True, ["--levels", "5"], "image too small for 5 pyramid levels"),
    ], ids=["even-window", "levels-past-max", "levels-past-image"])
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
            f"--patch-size must be at least 3, got {size}\n")
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

    def test_reconstruction_database(self, workspace):
        n_tracks = len(load_tracks(workspace / "tracks")[0])
        db = self.build(workspace, "rhog",
                        ("--dataset", str(workspace / "ds"),
                         "--keyframes", "2"))
        assert db.method == "rhog"
        # several synthesized views per track
        assert len(db) > 2 * n_tracks

    def test_rhog_without_dataset_fails(self, workspace, capsys):
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(workspace / "nope"), "--method", "rhog"])
        assert rc == 1
        assert "depth" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["sv", "mv"])
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
        assert "--patch-size must be at least 3, got 0" in capsys.readouterr().err
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
            f"--patch-size must be at least 3, got {size}\n")
        assert not out.exists()

    @pytest.mark.parametrize("keyframes", ["0", "-1"])
    def test_rhog_without_keyframes_fails_and_writes_nothing(
            self, workspace, tmp_path, capsys, keyframes):
        out = tmp_path / "none.db"
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(out), "--method", "rhog",
                   "--dataset", str(workspace / "ds"), "--keyframes", keyframes])
        assert rc == 1
        assert f"--keyframes must be at least 1, got {keyframes}" \
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


class TestMatch:
    def test_self_match_is_perfect(self, workspace, capsys):
        db = str(workspace / "db_sv")
        out = workspace / "self.csv"
        assert main(["match", "--db", db, "--queries", db,
                     "--out", str(out)]) == 0
        assert "accuracy" in capsys.readouterr().err
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "query_index,query_track,predicted_track,distance"
        n = len(DescriptorDatabase.load(workspace / "db_sv"))
        assert len(lines) == n + 1
        for row in lines[1:]:
            _, truth, pred, dist = row.split(",")
            assert truth == pred
            assert float(dist) == 0.0

    def test_cross_method_match_with_metric(self, workspace, capsys):
        out = workspace / "cross.csv"
        assert main(["match", "--db", str(workspace / "db_mv"),
                     "--queries", str(workspace / "db_sv"),
                     "--metric", "chi2", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "accuracy" in err
        n = len(DescriptorDatabase.load(workspace / "db_sv"))
        assert len(out.read_text().strip().splitlines()) == n + 1


    def test_unreadable_database_prints_the_error(self, workspace, tmp_path,
                                                  capsys):
        bad = tmp_path / "cut.db"
        bad.write_bytes((workspace / "db_sv").read_bytes()[:-5])
        rc = main(["match", "--db", str(bad),
                   "--queries", str(workspace / "db_sv")])
        assert rc == 1
        assert f"{bad}: descriptor values cut short" in capsys.readouterr().err

    def test_queries_with_other_params_are_refused(self, workspace, tmp_path,
                                                   capsys):
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
                   str(workspace / "db_sv"), "--out", str(out)])
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

    @pytest.mark.parametrize("frame", ["-1", "-100"])
    def test_describe_with_a_negative_frame(self, workspace, tmp_path, capsys,
                                            frame):
        rc = main(["describe", "--tracks", str(workspace / "tracks"),
                   "--out", str(tmp_path / "db"), "--method", "sv",
                   "--frame", frame])
        assert rc == 1
        assert f"--frame must be at least 0, got {frame}" \
            in capsys.readouterr().err
        assert not (tmp_path / "db").exists()
