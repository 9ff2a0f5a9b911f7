"""Descriptor comparison metrics, nearest-neighbor queries, and a database.

A database row is one stored descriptor owned by a track; a track may own
several rows (per-frame or per-synthesized-view storage). Queries name
their metric and score a track by the best row it owns, so growing a
track's row set can only help it.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .hog import METHODS, DescriptorParams
from .image import _need

__all__ = [
    "METRICS",
    "pairwise_distances",
    "DescriptorDatabase",
    "nn_query",
    "match_all",
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


# ---------------------------------------------------------------------------
# database

_DB_MAGIC = b"MVDESCDB"
_DB_VERSION = 5
# magic, version, the method code (its index in METHODS), bins, cells,
# patch, rows
_DB_HEADER = struct.Struct("<8sHBHHHI")


class DescriptorDatabase:
    """Stored descriptors keyed by track, built once from all its rows:
    an (n, cells**2 * bins) float64 ``matrix`` and ``track_ids``, which
    broadcasts to n and is kept as an int64 array, one entry per row."""

    def __init__(self, method: str, params: DescriptorParams, track_ids, rows):
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        self.method = method
        self.params = params
        d = params.cells ** 2 * params.bins
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != d:
            raise ValueError(f"expected (n, {d}) descriptor rows, got {rows.shape}")
        step = max(1, _CHUNK_BYTES // (8 * d))  # the bool temporary is d per row
        for s in range(0, len(rows), step):
            bad = ~np.isfinite(rows[s:s + step]).all(axis=1)
            if bad.any():
                raise ValueError(f"descriptor values: row {s + int(bad.argmax())} "
                                 f"is not finite")
        self.track_ids = np.broadcast_to(
            np.asarray(track_ids, dtype=np.int64), rows.shape[:1]).copy()
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def matrix(self) -> np.ndarray:
        """(n_rows, descriptor_length) matrix of stored values."""
        if not len(self):
            raise ValueError("database is empty")
        return self._rows

    @property
    def memory_bytes(self) -> int:
        """Storage cost of the payload at 4 bytes per descriptor value."""
        return 4 * self.params.cells ** 2 * self.params.bins * len(self)

    def save(self, path) -> None:
        """Write the database (format version 5). Raises ValueError, naming
        the row, for a track id beyond int32 or a value beyond float32, and
        writes nothing then."""
        p = self.params
        ids = self.track_ids
        with np.errstate(over="ignore"):
            values = self.matrix.astype("<f4")
        for bad, what in (((ids < -2 ** 31) | (ids >= 2 ** 31), "track id beyond int32"),
                          (~np.isfinite(values).all(axis=1),
                           "descriptor values beyond float32")):
            if bad.any():
                raise ValueError(f"row {int(bad.argmax())}: {what}")
        head = _DB_HEADER.pack(_DB_MAGIC, _DB_VERSION, METHODS.index(self.method),
                               p.bins, p.cells, p.patch_size, len(ids))
        with open(path, "wb") as fh:
            for part in (head, ids.astype("<i4"), values):
                fh.write(part)

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
        magic, ver, mcode, bins, cells, patch, count = \
            _DB_HEADER.unpack_from(buf, 0)
        if magic != _DB_MAGIC:
            raise ValueError("database header: not a descriptor database file")
        if ver != _DB_VERSION:
            raise ValueError(f"database header: version {ver}, expected "
                             f"{_DB_VERSION}; rebuild it with `mvdesc describe`")
        if mcode >= len(METHODS):
            raise ValueError(f"database method: unknown code {mcode}")
        try:
            params = DescriptorParams(patch, bins, cells)
        except ValueError as exc:
            raise ValueError(f"database params: {exc}") from None
        if count == 0:
            raise ValueError("database header: holds no descriptors")
        offset, arrays = _DB_HEADER.size, []
        for field, dtype, n in (("track ids", "<i4", count),
                                ("descriptor values", "<f4",
                                 count * cells * cells * bins)):
            _need(buf, offset, np.dtype(dtype).itemsize * n, field)
            arrays.append(np.frombuffer(buf, dtype, n, offset))
            offset += arrays[-1].nbytes
        if offset != len(buf):
            raise ValueError(f"{len(buf) - offset} trailing bytes after the "
                             f"descriptor values")
        ids, values = arrays
        return cls(METHODS[mcode], params, ids, values.reshape(count, -1))


def _best_rows(dists: np.ndarray, track_ids: np.ndarray) -> np.ndarray:
    """Per query row, index of the winning entry.

    A track scores by its best row; among equal distances the lowest track
    id wins (then the first row), so results do not depend on insertion
    order.
    """
    tied = dists == dists.min(axis=1, keepdims=True)
    order = np.argsort(track_ids, kind="stable")
    return order[tied[:, order].argmax(axis=1)]


def nn_query(db: DescriptorDatabase, query: np.ndarray, metric: str):
    """Exact nearest-neighbor lookup of one descriptor row under ``metric``;
    returns (track_id, distance)."""
    ids, dists = match_all(db, query, metric)
    return int(ids[0]), float(dists[0])


def match_all(db: DescriptorDatabase, queries: np.ndarray, metric: str):
    """Batch form of :func:`nn_query`; returns (track_ids, distances)."""
    q = np.atleast_2d(queries)
    dists = pairwise_distances(q, db.matrix, metric, db.params.bins)
    best = _best_rows(dists, db.track_ids)
    return db.track_ids[best], dists[np.arange(q.shape[0]), best]
