"""Descriptor comparison metrics, nearest-neighbor queries, and a database.

A database row is one stored descriptor owned by a track; a track may own
several rows (per-frame or per-synthesized-view storage), distinguished by a
group index. Queries score a track by the best row it owns, so growing a
track's row set can only help it.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .hog import (_CODE_METHOD, _METHOD_CODE, METHODS, DescriptorParams,
                  DescriptorVector, OrientationDensity, _decode,
                  pack_descriptor, unpack_descriptor)
from .image import _need

__all__ = [
    "METRICS",
    "distance",
    "pairwise_distances",
    "DescriptorDatabase",
    "nn_query",
    "match_all",
    "log_likelihood",
    "likelihood_query",
]

METRICS = ("l1", "l2", "neg-correlation", "chi2", "bhattacharyya", "kl")
KL_SMOOTHING = 1e-8
# Byte budget for one (queries, rows, values) float64 temporary of a
# broadcast metric, and for one gather of the l2 re-check; a chunk holds at
# least one query or pair.
_CHUNK_BYTES = 1 << 24


def _cellwise(values: np.ndarray, bins: int) -> np.ndarray:
    """Reshape (..., n_cells*bins) descriptor rows to (..., n_cells, bins)."""
    if values.shape[-1] % bins:
        raise ValueError("descriptor length is not a multiple of bins")
    return values.reshape(*values.shape[:-1], -1, bins)


def _smooth(dist: np.ndarray, bins: int) -> np.ndarray:
    """Mix a distribution with a whisper of uniform so logs stay finite."""
    return (dist + KL_SMOOTHING) / (1.0 + bins * KL_SMOOTHING)


def pairwise_distances(queries: np.ndarray, rows: np.ndarray, metric: str,
                       bins: int = None) -> np.ndarray:
    """Distance matrix (n_queries, n_rows) under the named metric.

    ``bins`` is required for the per-cell metrics (chi2, bhattacharyya, kl),
    which treat each cell of the descriptor as its own distribution.

    l2 comes from the norm expansion (see :func:`_l2`): each query's minimum,
    and every entry that ties with it, equals ``sqrt(sum((q - x)**2))``
    exactly; the other entries are accurate to about
    ``1e-15 * (|q|**2 + |x|**2)`` in the squared distance.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    x = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if q.shape[1] != x.shape[1]:
        raise ValueError("query and row lengths differ")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    if metric in ("chi2", "bhattacharyya", "kl") and bins is None:
        raise ValueError(f"metric {metric!r} needs the per-cell bin count")

    if metric == "neg-correlation":
        return _neg_correlation(q, x)
    if metric == "l2":
        return _l2(q, x)

    out = np.empty((q.shape[0], x.shape[0]))
    chunk = max(1, _CHUNK_BYTES // max(x.nbytes, 1))
    for s in range(0, q.shape[0], chunk):
        qc = q[s:s + chunk]
        if metric == "l1":
            d = np.abs(qc[:, None, :] - x[None, :, :]).sum(axis=2)
        elif metric == "chi2":
            diff = qc[:, None, :] - x[None, :, :]
            denom = qc[:, None, :] + x[None, :, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(denom > 0.0, diff * diff / denom, 0.0)
            d = 0.5 * term.sum(axis=2)
        elif metric == "bhattacharyya":
            qa = _cellwise(qc, bins)
            xa = _cellwise(x, bins)
            bc = np.sqrt(qa[:, None] * xa[None]).sum(axis=3)
            with np.errstate(divide="ignore"):
                d = -np.log(np.minimum(bc, 1.0)).sum(axis=2)
        elif metric == "kl":
            qa = _smooth(_cellwise(qc, bins), bins)
            xa = _smooth(_cellwise(x, bins), bins)
            d = (qa[:, None] * (np.log(qa)[:, None] - np.log(xa)[None])) \
                .sum(axis=3).sum(axis=2)
        out[s:s + chunk] = d
    return out


def _l2(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean distances by one GEMM, with the near-winners recomputed.

    Let S = |q|**2 + max |x|**2. To first order, the expansion
    |q|**2 + |x|**2 - 2 q.x and the direct sum of squared differences each
    lie within (d + 2) eps S of the true squared distance: the expansion has
    three sums of d products (2 |q_k x_k| <= q_k**2 + x_k**2) and two
    additions of terms below 2 S, and the direct sum adds d terms totalling
    at most 2 S. The two differ by at most delta = 2 (d + 2) eps S, so an
    entry more than 2 delta above a query's approximate minimum is strictly
    larger than the direct sum's minimum. Recomputing the entries inside
    that band by the direct sum makes each query's minimum, and every tie
    with it, equal to sqrt(sum((q - x)**2)).
    """
    qq = np.einsum("ij,ij->i", q, q)
    xx = np.einsum("ij,ij->i", x, x)
    d2 = q @ x.T
    d2 *= -2.0
    d2 += qq[:, None]
    d2 += xx[None, :]
    np.maximum(d2, 0.0, out=d2)
    band = 4.0 * (q.shape[1] + 2) * np.finfo(np.float64).eps \
        * (qq + xx.max(initial=0.0))
    _recheck_near_min(d2, band, lambda a, b: np.square(q[a] - x[b]).sum(axis=1),
                      x.itemsize * x.shape[1])
    return np.sqrt(d2, out=d2)


def _recheck_near_min(dist: np.ndarray, band: np.ndarray, exact,
                      pair_bytes: int) -> None:
    """Overwrite, in place, every entry within ``band`` of its row's minimum
    by ``exact(query_index, row_index)`` over arrays of pairs.

    Identical rows can put every pair in the band, so the pairs are taken
    in chunks whose gathered rows stay under the byte budget.
    """
    iq, ix = np.nonzero(dist <= (dist.min(axis=1, initial=np.inf) + band)[:, None])
    step = max(1, _CHUNK_BYTES // max(pair_bytes, 1))
    for s in range(0, iq.size, step):
        a, b = iq[s:s + step], ix[s:s + step]
        dist[a, b] = exact(a, b)


def _neg_correlation(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """1 - Pearson correlation; constant rows correlate only with themselves.

    The correlations come from one GEMM of the standardized rows, whose
    rounding depends on where a row sits, so two identical rows can come
    out a few ulps apart. Both the GEMM and a per-pair sum of products of
    unit vectors lie within about d eps of the true correlation, so entries
    within 4 (d + 2) eps of each query's minimum are recomputed by the
    per-pair sum, as in :func:`_l2`; identical rows then tie exactly.
    """
    def standardize(a):
        c = a - a.mean(axis=1, keepdims=True)
        n = np.linalg.norm(c, axis=1, keepdims=True)
        flat = n[:, 0] < 1e-300
        c = np.where(flat[:, None], 0.0, c / np.where(flat[:, None], 1.0, n))
        return c, flat

    qs, qflat = standardize(q)
    xs, xflat = standardize(x)
    d = 1.0 - qs @ xs.T
    band = 4.0 * (q.shape[1] + 2) * np.finfo(np.float64).eps
    _recheck_near_min(d, band, lambda a, b: 1.0 - (qs[a] * xs[b]).sum(axis=1),
                      x.itemsize * x.shape[1])
    # the flat-pair rule comes last, or the re-check would overwrite it
    both = qflat[:, None] & xflat[None, :]
    if np.any(both):
        iq, ix = np.nonzero(both)
        same = np.isclose(q[iq, 0], x[ix, 0], rtol=1e-9, atol=1e-12)
        d[iq, ix] = np.where(same, 0.0, 1.0)
    return d


def distance(a, b, metric: str, bins: int = None) -> float:
    """Distance between two descriptors (vectors or raw value arrays)."""
    if isinstance(a, DescriptorVector):
        bins = a.bins if bins is None else bins
        a = a.values
    if isinstance(b, DescriptorVector):
        bins = b.bins if bins is None else bins
        b = b.values
    return float(pairwise_distances(a, b, metric, bins)[0, 0])


# ---------------------------------------------------------------------------
# likelihood scoring

def log_likelihood(model: np.ndarray, query: np.ndarray, bins: int) -> float:
    """Cross-entropy score of a query distribution under a model distribution.

    Both arguments are flattened per-cell distributions. The model is
    smoothed so empty model bins cannot produce -inf; higher is better.
    """
    m = _smooth(_cellwise(np.asarray(model, dtype=np.float64), bins), bins)
    q = _cellwise(np.asarray(query, dtype=np.float64), bins)
    return float(np.sum(q * np.log(m)))


# ---------------------------------------------------------------------------
# database

_DB_MAGIC = b"MVDESCDB"
_DB_VERSION = 2
_METRIC_CODE = {m: i for i, m in enumerate(METRICS)}
_CODE_METRIC = {v: k for k, v in _METRIC_CODE.items()}
_DB_HEADER = struct.Struct("<8sHBBI")
_ROW_HEADER = struct.Struct("<iH")


class DescriptorDatabase:
    """Stored descriptors keyed by track, with a default query metric."""

    def __init__(self, method: str, params: DescriptorParams, metric: str = "l2"):
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        self.method = method
        self.params = params
        self.metric = metric
        self.track_ids: list[int] = []
        self.groups: list[int] = []
        self._rows: list[np.ndarray] = []
        self._matrix = None

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, track_id: int, vec: DescriptorVector, group: int = 0) -> None:
        if vec.method != self.method:
            raise ValueError(f"cannot add {vec.method!r} descriptor to {self.method!r} database")
        if vec.params != self.params:
            raise ValueError("descriptor params do not match database")
        self.track_ids.append(int(track_id))
        self.groups.append(int(group))
        self._rows.append(vec.values)
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        """(n_rows, descriptor_length) matrix of stored values."""
        if self._matrix is None:
            if not self._rows:
                raise ValueError("database is empty")
            self._matrix = np.vstack(self._rows)
        return self._matrix

    @property
    def memory_bytes(self) -> int:
        """Storage cost of the payload at 4 bytes per descriptor value."""
        d = self.params.cells ** 2 * self.params.bins
        return 4 * d * len(self._rows)

    def vector(self, i: int) -> DescriptorVector:
        return DescriptorVector(self._rows[i].copy(), self.method, self.params)

    def save(self, path) -> None:
        """Write the database; raises ValueError, naming the row, for a track
        id beyond int32, a group beyond uint16 or a value beyond float32."""
        parts = [_DB_HEADER.pack(_DB_MAGIC, _DB_VERSION,
                                 _METHOD_CODE[self.method],
                                 _METRIC_CODE[self.metric], len(self._rows))]
        for i, (tid, grp, row) in enumerate(zip(self.track_ids, self.groups,
                                                self._rows)):
            try:
                parts.append(_ROW_HEADER.pack(tid, grp))
                parts.append(pack_descriptor(
                    DescriptorVector(row, self.method, self.params)))
            except (struct.error, ValueError) as exc:
                raise ValueError(f"row {i}: {exc}") from None
        Path(path).write_bytes(b"".join(parts))

    @classmethod
    def load(cls, path) -> "DescriptorDatabase":
        """Read a saved database; any malformed input raises ValueError
        naming the file and the field."""
        try:
            return cls._parse(Path(path).read_bytes())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def _parse(cls, buf: bytes) -> "DescriptorDatabase":
        _need(buf, 0, _DB_HEADER.size, "database header")
        magic, ver, mcode, metcode, count = _DB_HEADER.unpack_from(buf, 0)
        if magic != _DB_MAGIC:
            raise ValueError("database header: not a descriptor database file")
        if ver != _DB_VERSION:
            raise ValueError(f"database header: version {ver}, expected "
                             f"{_DB_VERSION}; rebuild it with `mvdesc describe`")
        method = _decode(_CODE_METHOD, mcode, "database method")
        metric = _decode(_CODE_METRIC, metcode, "database metric")
        if count == 0:
            raise ValueError("database header: holds no descriptors")
        offset = _DB_HEADER.size
        db = None
        for i in range(count):
            try:
                _need(buf, offset, _ROW_HEADER.size, "row header")
                tid, grp = _ROW_HEADER.unpack_from(buf, offset)
                vec, offset = unpack_descriptor(buf, offset + _ROW_HEADER.size)
                if db is None:
                    db = cls(method, vec.params, metric)
                db.add(tid, vec, grp)
            except ValueError as exc:
                raise ValueError(f"row {i}: {exc}") from None
        if offset != len(buf):
            raise ValueError(f"{len(buf) - offset} trailing bytes after the "
                             f"last row")
        return db


def _best_rows(dists: np.ndarray, track_ids: np.ndarray) -> np.ndarray:
    """Per query row, index of the winning entry.

    A track scores by its best row; among equal distances the lowest track
    id wins (then the first row), so results do not depend on insertion
    order.
    """
    tied = dists == dists.min(axis=1, keepdims=True)
    order = np.argsort(track_ids, kind="stable")
    return order[tied[:, order].argmax(axis=1)]


def nn_query(db: DescriptorDatabase, query, metric: str = None):
    """Exact nearest-neighbor lookup; returns (track_id, distance)."""
    values = query.values if isinstance(query, DescriptorVector) else query
    metric = db.metric if metric is None else metric
    dists = pairwise_distances(values, db.matrix, metric, db.params.bins)
    ids = np.asarray(db.track_ids)
    best = _best_rows(dists, ids)[0]
    return int(ids[best]), float(dists[0, best])


def match_all(db: DescriptorDatabase, queries: np.ndarray, metric: str = None):
    """Batch form of :func:`nn_query`; returns (track_ids, distances)."""
    metric = db.metric if metric is None else metric
    q = np.atleast_2d(queries)
    dists = pairwise_distances(q, db.matrix, metric, db.params.bins)
    ids = np.asarray(db.track_ids)
    best = _best_rows(dists, ids)
    return ids[best].copy(), dists[np.arange(q.shape[0]), best]


def likelihood_query(db: DescriptorDatabase, query):
    """Maximum-likelihood lookup; returns (track_id, log_likelihood).

    Stored rows act as per-cell model distributions for the query
    distribution. A track scores by its best row; ties prefer the lowest id.
    """
    if isinstance(query, OrientationDensity):
        if not query.normalized:
            raise ValueError("likelihood queries need a normalized density")
        values = query.grid.reshape(-1)
    elif isinstance(query, DescriptorVector):
        values = query.values
    else:
        values = np.asarray(query, dtype=np.float64)
    bins = db.params.bins
    m = _smooth(_cellwise(db.matrix, bins), bins)
    ll = np.sum(_cellwise(values, bins)[None] * np.log(m), axis=(1, 2))
    ids = np.asarray(db.track_ids)
    best = _best_rows(-ll[None, :], ids)[0]
    return int(ids[best]), float(ll[best])
