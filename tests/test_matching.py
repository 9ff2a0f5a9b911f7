"""Distance metrics, the descriptor database, and nearest-neighbor queries."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdesc.hog import METHODS, DescriptorParams
from mvdesc.image import GrayImage, read_pgm, write_pgm
from mvdesc.matching import (_CHUNK_BYTES, _DB_HEADER, METRICS,
                             DescriptorDatabase, match_all, nn_query,
                             pairwise_distances)
from mvdesc.scene import read_depth, write_depth

PARAMS = DescriptorParams(patch_size=8, bins=4, cells=2)


def unit_cells(rng, n):
    v = rng.random((n, 4, 4)) + 1e-3
    v /= v.sum(axis=2, keepdims=True)
    return v.reshape(n, 16)


class TestMetricValues:
    # q and r are per-cell distributions over 2 bins, 2 cells
    q = np.array([0.5, 0.5, 0.25, 0.75])
    r = np.array([0.75, 0.25, 0.25, 0.75])

    def test_l1(self):
        assert pairwise_distances(self.q, self.r, "l1")[0, 0] \
            == pytest.approx(0.5)

    def test_l2(self):
        assert pairwise_distances(self.q, self.r, "l2")[0, 0] \
            == pytest.approx(math.sqrt(2 * 0.25 ** 2))

    def test_chi2(self):
        want = 0.5 * ((0.25 ** 2) / 1.25 + (0.25 ** 2) / 0.75)
        assert pairwise_distances(self.q, self.r, "chi2", bins=2)[0, 0] \
            == pytest.approx(want)

    def test_chi2_zero_bins_contribute_nothing(self):
        a = np.array([0.0, 1.0, 0.5, 0.5])
        b = np.array([0.0, 1.0, 0.5, 0.5])
        assert pairwise_distances(a, b, "chi2", bins=2)[0, 0] == 0.0

    def test_bhattacharyya(self):
        bc1 = math.sqrt(0.5 * 0.75) + math.sqrt(0.5 * 0.25)
        want = -math.log(min(bc1, 1.0))  # second cell is identical, bc = 1
        assert pairwise_distances(self.q, self.r, "bhattacharyya",
                                  bins=2)[0, 0] \
            == pytest.approx(want, rel=1e-9)

    def test_bhattacharyya_disjoint_is_infinite(self):
        a = np.array([1.0, 0.0, 0.5, 0.5])
        b = np.array([0.0, 1.0, 0.5, 0.5])
        assert pairwise_distances(a, b, "bhattacharyya", bins=2)[0, 0] \
            == math.inf

    def test_kl_self_distance_zero(self):
        assert pairwise_distances(self.q, self.q, "kl", bins=2)[0, 0] \
            == pytest.approx(0.0)

    def test_kl_known_value(self):
        s = 1e-8
        qs = (self.q.reshape(2, 2) + s) / (1 + 2 * s)
        rs = (self.r.reshape(2, 2) + s) / (1 + 2 * s)
        want = float(np.sum(qs * (np.log(qs) - np.log(rs))))
        assert pairwise_distances(self.q, self.r, "kl", bins=2)[0, 0] \
            == pytest.approx(want, rel=1e-12)

    def test_kl_asymmetric(self):
        a = np.array([0.9, 0.1, 0.5, 0.5])
        b = np.array([0.2, 0.8, 0.5, 0.5])
        assert pairwise_distances(a, b, "kl", bins=2)[0, 0] != pytest.approx(
            pairwise_distances(b, a, "kl", bins=2)[0, 0])

    def test_neg_correlation(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert pairwise_distances(a, 2.0 * a + 1.0, "neg-correlation")[0, 0] \
            == pytest.approx(0.0, abs=1e-12)
        assert pairwise_distances(a, -a, "neg-correlation")[0, 0] \
            == pytest.approx(2.0)
        flat = np.full(4, 0.5)
        assert pairwise_distances(flat, flat, "neg-correlation")[0, 0] == 0.0
        assert pairwise_distances(flat, np.full(4, 0.9),
                                  "neg-correlation")[0, 0] == 1.0
        assert pairwise_distances(flat, a, "neg-correlation")[0, 0] \
            == pytest.approx(1.0)

    def test_per_cell_metrics_require_bins(self):
        with pytest.raises(ValueError):
            pairwise_distances(self.q, self.r, "chi2")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            pairwise_distances(self.q, self.r, "cosine")


class TestPairwise:
    def test_matches_scalar_distance(self):
        rng = np.random.default_rng(41)
        qs = unit_cells(rng, 5)
        rows = unit_cells(rng, 7)
        for metric in METRICS:
            mat = pairwise_distances(qs, rows, metric, bins=4)
            assert mat.shape == (5, 7)
            for i in (0, 3):
                for j in (0, 6):
                    assert mat[i, j] == pytest.approx(
                        pairwise_distances(qs[i], rows[j], metric,
                                           bins=4)[0, 0], rel=1e-12)

    def test_chunked_queries_consistent(self):
        # enough rows that a broadcast chunk holds two queries, so five
        # queries cross two chunk boundaries
        rng = np.random.default_rng(42)
        qs = unit_cells(rng, 5)
        rows = unit_cells(rng, _CHUNK_BYTES // (8 * 16 * 2))
        whole = pairwise_distances(qs, rows, "chi2", bins=4)
        for i in range(5):
            np.testing.assert_array_equal(
                whole[i], pairwise_distances(qs[i], rows, "chi2", bins=4)[0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((2, 8)), np.zeros((2, 9)), "l2")


# byte offsets in a saved two-row database of 16 values per row: the file
# header, then 2 int32 track ids and 2 x 16 float32 values
_IDS = _DB_HEADER.size
_VALUES = _IDS + 4 * 2
# header fields: version, method code, patch, row count
_VERSION, _METHOD, _PATCH, _COUNT = 8, 10, 15, 17


def _put(buf: bytes, at: int, fmt: str, value) -> bytes:
    """``buf`` with the field at ``at`` (packed as ``fmt``) set to ``value``."""
    return buf[:at] + struct.pack(fmt, value) + buf[at + struct.calcsize(fmt):]


class TestDatabase:
    def build(self, rng, n=10):
        rows = unit_cells(rng, n)
        return DescriptorDatabase("sv", PARAMS, np.arange(n) % 4, rows), rows

    def test_basic_bookkeeping(self):
        rng = np.random.default_rng(43)
        db, rows = self.build(rng)
        assert len(db) == 10
        assert db.matrix.shape == (10, 16)
        assert db.memory_bytes == 4 * 16 * 10
        np.testing.assert_array_equal(db.matrix, rows)
        assert db.track_ids.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_constructor_validates_the_rows_once(self):
        with pytest.raises(ValueError, match=r"expected \(n, 16\)"):
            DescriptorDatabase("sv", PARAMS, 0, np.zeros((2, 15)))
        with pytest.raises(ValueError, match=r"expected \(n, 16\)"):
            DescriptorDatabase("sv", PARAMS, 0, np.zeros(16))
        rows = np.full((3, 16), 0.25)
        rows[2, 5] = np.nan
        with pytest.raises(ValueError, match="descriptor values: row 2"):
            DescriptorDatabase("sv", PARAMS, [1, 2, 3], rows)
        # rows are checked in blocks under the byte budget; the first bad
        # row of a later block is named by its place in the whole matrix
        step = _CHUNK_BYTES // (8 * 16)
        rows = np.zeros((step + 2, 16))
        rows[[step + 1, step], 3] = np.inf, np.nan
        with pytest.raises(ValueError,
                           match=f"descriptor values: row {step} is not"):
            DescriptorDatabase("sv", PARAMS, 0, rows)
        with pytest.raises(ValueError):
            DescriptorDatabase("sv", PARAMS, [1, 2], np.zeros((3, 16)))
        with pytest.raises(ValueError, match="method must be one of"):
            DescriptorDatabase("hog", PARAMS, 0, np.zeros((1, 16)))
        db = DescriptorDatabase("sv", PARAMS, 4, np.zeros((3, 16)))
        assert db.track_ids.dtype == np.int64
        assert db.track_ids.tolist() == [4, 4, 4]

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(45)
        rows = unit_cells(rng, 6).astype(np.float32).astype(np.float64)
        db = DescriptorDatabase("mv", PARAMS, 3 * np.arange(6), rows)
        db.save(tmp_path / "d.db")
        back = DescriptorDatabase.load(tmp_path / "d.db")
        assert back.method == "mv" and back.params == PARAMS
        np.testing.assert_array_equal(back.track_ids, db.track_ids)
        np.testing.assert_array_equal(back.matrix, db.matrix)

    def test_load_rejects_garbage(self, tmp_path):
        (tmp_path / "junk").write_bytes(b"not a database at all")
        with pytest.raises(ValueError):
            DescriptorDatabase.load(tmp_path / "junk")

    @pytest.mark.parametrize("mangle, field", [
        (lambda b: b[:5], "database header cut short"),
        (lambda b: b[:_IDS], "track ids cut short"),
        (lambda b: b[:_IDS + 3], "track ids cut short"),
        (lambda b: b[:_VALUES], "descriptor values cut short"),
        (lambda b: b[:_VALUES + 10], "descriptor values cut short"),
        (lambda b: b[:_VALUES + 4 * 16], "descriptor values cut short"),
        (lambda b: b + b"\x00\x07\x00", "3 trailing bytes"),
        (lambda b: _put(b, _VERSION, "<H", 1),
         "database header: version 1.*mvdesc describe"),
        (lambda b: _put(b, _VERSION, "<H", 2),
         "database header: version 2.*mvdesc describe"),
        (lambda b: _put(b, _METHOD, "<B", 4), "database method: unknown code 4"),
        (lambda b: _put(b, _VERSION, "<H", 3),
         "database header: version 3, expected 5; rebuild it with "
         "`mvdesc describe`"),
        # version 4 also held a metric code and a uint16 group per row
        (lambda b: _put(b, _VERSION, "<H", 4),
         "database header: version 4, expected 5; rebuild it with "
         "`mvdesc describe`"),
        (lambda b: _put(b, _PATCH, "<H", 2),
         "database params: patch_size: 2, expected at least 3"),
        (lambda b: _put(b, _VALUES + 4 * 16 + 8, "<f", np.inf),
         "descriptor values: row 1 is not finite"),
        (lambda b: _put(b, _VALUES + 4, "<f", np.nan),
         "descriptor values: row 0 is not finite"),
        (lambda b: _put(b, _COUNT, "<I", 0),
         "database header: holds no descriptors"),
    ], ids=["in-db-header", "at-ids", "in-ids", "at-values", "in-values",
            "at-second-row", "trailing", "db-version-1", "db-version-2",
            "unknown-method", "db-version-3", "db-version-4", "invalid-params",
            "stored-inf", "stored-nan", "zero-rows"])
    def test_load_names_file_and_field(self, tmp_path, mangle, field):
        db = DescriptorDatabase("keepall", PARAMS, [0, 1],
                                unit_cells(np.random.default_rng(46), 2))
        db.save(tmp_path / "good.db")
        assert (tmp_path / "good.db").stat().st_size == _VALUES + 2 * 16 * 4
        bad = tmp_path / "bad.db"
        bad.write_bytes(mangle((tmp_path / "good.db").read_bytes()))
        with pytest.raises(ValueError, match=field) as err:
            DescriptorDatabase.load(bad)
        assert str(err.value).startswith(f"{bad}: ")

    @pytest.mark.parametrize("kind, mangle, field", [
        ("pgm", lambda b: b[:0], "PGM header cut short: no magic"),
        ("pgm", lambda b: b[:4], "PGM header cut short: no height"),
        ("pgm", lambda b: b[:7], "PGM header cut short: no maxval"),
        ("pgm", lambda b: b.replace(b"5 4", b"x 4", 1), "PGM width"),
        ("pgm", lambda b: b[:11], "PGM raster cut short"),
        ("pgm", lambda b: b[:-1], "PGM raster cut short"),
        ("pgm", lambda b: b + b"\x00", "1 trailing bytes after the PGM raster"),
        ("depth", lambda b: b[:5], "depth header cut short"),
        ("depth", lambda b: b"X" + b[1:], "depth header: not a depth raster"),
        ("depth", lambda b: b[:16], "depth raster cut short"),
        ("depth", lambda b: b[:-3], "depth raster cut short"),
        ("depth", lambda b: b + b"\x00\x00",
         "2 trailing bytes after the depth raster"),
    ], ids=["pgm-empty", "pgm-in-header", "pgm-before-maxval", "pgm-width",
            "pgm-at-raster", "pgm-in-raster", "pgm-trailing", "depth-in-header",
            "depth-magic", "depth-at-raster", "depth-in-raster",
            "depth-trailing"])
    def test_raster_load_names_file_and_field(self, tmp_path, kind, mangle,
                                              field):
        good, bad = tmp_path / "good", tmp_path / "bad"
        if kind == "pgm":   # a 5 x 4 image: an 11-byte header, 20 pixels
            write_pgm(GrayImage(np.linspace(0.0, 1.0, 20).reshape(4, 5)), good)
            read = read_pgm
        else:               # a 16-byte header, 20 float32 depths
            write_depth(good, np.linspace(1.0, 2.0, 20).reshape(4, 5))
            read = read_depth
        bad.write_bytes(mangle(good.read_bytes()))
        with pytest.raises(ValueError, match=field) as err:
            read(bad)
        assert str(err.value).startswith(f"{bad}: ")

    def test_empty_matrix_raises(self):
        db = DescriptorDatabase("sv", PARAMS, [], np.zeros((0, 16)))
        with pytest.raises(ValueError):
            db.matrix


@st.composite
def saved_databases(draw):
    """Databases over random params and methods, with track ids across
    int32; rows are float32 values."""
    p = draw(st.integers(3, 40))
    bins = draw(st.integers(2, 24))
    params = DescriptorParams(p, bins, draw(st.integers(1, min(p, 4))))
    method = draw(st.sampled_from(METHODS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = params.cells ** 2 * bins
    ids, blocks = [], []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.integers(1, 4))
        ids += draw(st.lists(st.integers(-2 ** 31, 2 ** 31 - 1),
                             min_size=rows, max_size=rows))
        blocks.append(rng.random((rows, n)).astype(np.float32).astype(np.float64))
    return DescriptorDatabase(method, params, ids, np.concatenate(blocks))


class TestDatabaseProperty:
    @settings(max_examples=100, deadline=None)
    @given(db=saved_databases())
    def test_save_load_roundtrip(self, db, tmp_path_factory):
        path = tmp_path_factory.mktemp("db") / "d.db"
        db.save(path)
        back = DescriptorDatabase.load(path)
        assert (back.method, back.params) == (db.method, db.params)
        assert back.track_ids.tobytes() == db.track_ids.tobytes()
        assert back.matrix.tobytes() == db.matrix.tobytes()
        back.save(path.with_suffix(".again"))
        assert path.with_suffix(".again").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("tid, value, field", [
        (2 ** 31, 0.5, "row 1"), (0, 1e39, "row 1: descriptor values")])
    def test_save_refuses_what_the_format_cannot_hold(self, tmp_path, tid,
                                                      value, field):
        db = DescriptorDatabase("sv", PARAMS, [3, tid],
                                [np.full(16, 0.25), np.full(16, value)])
        with pytest.raises(ValueError, match=field):
            db.save(tmp_path / "d.db")
        assert not (tmp_path / "d.db").exists()


class TestQueries:
    def test_track_scores_by_its_best_row(self):
        target = unit_cells(np.random.default_rng(46), 1)[0]
        far = target.copy()
        far[0], far[1] = far[1], far[0]
        # track 5 owns one bad and one perfect row; track 1 a mediocre one
        db = DescriptorDatabase("sv", PARAMS, [5, 1, 5],
                                [np.roll(target, 4), (target + far) / 2.0, target])
        tid, d = nn_query(db, target, "l2")
        assert tid == 5
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_exact_tie_prefers_lowest_id(self):
        row = unit_cells(np.random.default_rng(47), 1)[0]
        db = DescriptorDatabase("sv", PARAMS, [9, 2, 7], [row] * 3)
        tid, _ = nn_query(db, row, "l2")
        assert tid == 2

    def test_match_all_agrees_with_nn_query(self):
        rng = np.random.default_rng(48)
        rows = unit_cells(rng, 20)
        db = DescriptorDatabase("sv", PARAMS,
                                [int(rng.integers(0, 6)) for _ in rows], rows)
        qs = unit_cells(rng, 8)
        ids, dists = match_all(db, qs, "chi2")
        for i in range(8):
            tid, d = nn_query(db, qs[i], "chi2")
            assert ids[i] == tid
            assert dists[i] == pytest.approx(d, rel=1e-12)

    def test_near_duplicate_l2_is_exact(self):
        # the norm expansion loses about 1e-8 here; the re-check must not
        rng = np.random.default_rng(53)
        rows = unit_cells(rng, 30)
        db = DescriptorDatabase("sv", PARAMS, np.arange(30), rows)
        q = rows[17] + 1e-9 * rng.random(16)
        tid, d = nn_query(db, q, "l2")
        assert tid == 17
        assert d == np.sqrt(np.square(q - rows[17]).sum())

    def test_identical_rows_tie_under_neg_correlation(self):
        # the GEMM alone rounds row 2 a few ulps below its copy in row 0
        rows = unit_cells(np.random.default_rng(59), 3)
        rows[2] = rows[0]
        db = DescriptorDatabase("sv", PARAMS, np.arange(3), rows)
        assert nn_query(db, rows[0], "neg-correlation")[0] == 0
        d = pairwise_distances(rows[0], rows, "neg-correlation")[0]
        assert d[0] == d[2]

    def test_metric_override(self):
        # the metric is the query's: the same database answers under l1
        rng = np.random.default_rng(49)
        db = DescriptorDatabase("sv", PARAMS, np.arange(5), unit_cells(rng, 5))
        q = unit_cells(rng, 1)[0]
        assert nn_query(db, q, "l2")[1] == pytest.approx(float(
            pairwise_distances(q, db.matrix, "l2")[0].min()), rel=1e-12)
        _, d = nn_query(db, q, metric="l1")
        dists = pairwise_distances(q, db.matrix, "l1")[0]
        assert d == pytest.approx(float(dists.min()), rel=1e-12)


def _literal_distance(q, x, metric, bins):
    """One query against one row, written out from each metric's definition."""
    if metric == "l1":
        return float(np.abs(q - x).sum())
    if metric == "l2":
        return float(np.sqrt(np.square(q - x).sum()))
    if metric == "neg-correlation":
        qc, xc = q - q.mean(), x - x.mean()
        qn, xn = math.sqrt(qc @ qc), math.sqrt(xc @ xc)
        if qn < 1e-300 and xn < 1e-300:
            return 0.0 if math.isclose(q[0], x[0], rel_tol=1e-9,
                                       abs_tol=1e-12) else 1.0
        if qn < 1e-300 or xn < 1e-300:
            return 1.0
        return 1.0 - float(qc @ xc) / (qn * xn)
    if metric == "chi2":
        return 0.5 * sum((a - b) ** 2 / (a + b) for a, b in zip(q, x) if a + b > 0)
    qa, xa = q.reshape(-1, bins), x.reshape(-1, bins)
    if metric == "bhattacharyya":
        bc = np.minimum(np.sqrt(qa * xa).sum(axis=1), 1.0)
        return math.inf if np.any(bc == 0.0) else float(-np.log(bc).sum())
    s = 1e-8
    qs, xs = (qa + s) / (1 + bins * s), (xa + s) / (1 + bins * s)
    return float(np.sum(qs * (np.log(qs) - np.log(xs))))


def _oracle_check(tid, dist, q, rows, ids, metric):
    """Brute force: a track scores by its best row, ties go to the lowest id.

    l2 must agree bit for bit. The other metrics sum in another order here,
    so tracks within 1e-12 of the best count as tied, and the lowest id must
    win among tracks that tie exactly here too."""
    per_track = {}
    for x, t in zip(rows, ids):
        d = _literal_distance(q, x, metric, 4)
        per_track[t] = min(d, per_track.get(t, math.inf))
    best = min(per_track.values())
    if metric == "l2" or best == math.inf:
        assert dist == best
        assert tid == min(t for t, d in per_track.items() if d == best)
        return
    tol = 1e-12 * max(1.0, abs(best))
    near = [t for t, d in per_track.items() if d <= best + tol]
    assert abs(dist - best) <= tol
    assert tid in near and abs(per_track[tid] - best) <= tol
    if len({per_track[t] for t in near}) == 1:
        assert tid == min(near)


def _random_cells(rng, n, sparse):
    """n rows of 4 cells x 4 bins, each cell a distribution or all zero."""
    v = rng.random((n, 4, 4))
    if sparse:
        v *= rng.random((n, 4, 4)) > 0.4
    mass = v.sum(axis=2, keepdims=True)
    return (v / np.where(mass > 0.0, mass, 1.0)).reshape(n, 16)


@st.composite
def match_cases(draw):
    """A database with exact duplicate rows and shared track ids, and
    queries that are fresh, equal to a stored row, or 1e-9 away from one."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sparse = draw(st.booleans())
    rows = _random_cells(rng, n, sparse)
    for i, src in enumerate(draw(st.lists(st.integers(0, n - 1),
                                          min_size=n, max_size=n))):
        if src < i:
            rows[i] = rows[src]
    ids = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    kinds = draw(st.lists(st.tuples(st.sampled_from(["fresh", "stored", "near"]),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=6))
    queries = np.array([_random_cells(rng, 1, sparse)[0] if kind == "fresh"
                        else rows[j] + (1e-9 * rng.random(16) if kind == "near"
                                        else 0.0)
                        for kind, j in kinds])
    return rows, ids, queries


class TestOracleProperty:
    @pytest.mark.parametrize("metric", METRICS)
    @settings(max_examples=60, deadline=None)
    @given(case=match_cases())
    def test_queries_match_brute_force(self, metric, case):
        rows, ids, queries = case
        db = DescriptorDatabase("sv", PARAMS, ids, rows)
        got_ids, got_dists = match_all(db, queries, metric)
        for i, q in enumerate(queries):
            _oracle_check(int(got_ids[i]), float(got_dists[i]), q, rows, ids,
                          metric)
            _oracle_check(*nn_query(db, q, metric), q, rows, ids, metric)
