"""Record the program's nearest-neighbour answers and re-check them.

During a timed run, :class:`MatchRecorder` wraps ``mvdesc.bench.match_all``
and ``mvdesc.cli.nn_query`` and keeps, per call, the database object, a
sample of the query rows and the answers. It holds no reference to the
distance matrix or to the broadcast temporaries, so it does not raise peak
memory. After the timed region, :func:`check` recomputes every sampled query
by brute force in float64 under the documented rule: a track scores by its
best row, and among equal scores the lowest track id wins.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

SAMPLE_PER_CALL = 32
# Distances within this relative gap count as a tie: the program and the
# oracle sum in different orders, so exact ties can differ in the last bits.
TIE_RTOL = 1e-9


def _distances(q: np.ndarray, rows: np.ndarray, metric: str) -> np.ndarray:
    """One query against every row, written out independently of mvdesc."""
    diff = rows - q[None, :]
    if metric == "l2":
        return np.sqrt((diff * diff).sum(axis=1))
    if metric == "l1":
        return np.abs(diff).sum(axis=1)
    if metric == "chi2":
        denom = rows + q[None, :]
        safe = np.where(denom > 0.0, denom, 1.0)
        return 0.5 * np.where(denom > 0.0, diff * diff / safe, 0.0).sum(axis=1)
    raise ValueError(f"oracle has no reference for metric {metric!r}")


def reference_answer(q, rows, track_ids, metric):
    """(track_id, distance) by brute force: per-track best row, lowest id on ties."""
    d = _distances(np.asarray(q, dtype=np.float64),
                   np.asarray(rows, dtype=np.float64), metric)
    ids = np.asarray(track_ids)
    best = {}
    for tid, dist in zip(ids.tolist(), d.tolist()):
        if tid not in best or dist < best[tid]:
            best[tid] = dist
    tid = min(best, key=lambda t: (best[t], t))
    return tid, best[tid], best


class MatchRecorder:
    """Wraps the program's matching entry points while installed."""

    BINDINGS = [("mvdesc.bench", "match_all"), ("mvdesc.cli", "nn_query")]

    def __init__(self):
        self.calls: list = []
        self.nn_latency_s: list = []   # (database method, seconds) per nn_query
        self._saved: list = []

    def install(self):
        for mod_name, attr in self.BINDINGS:
            mod = importlib.import_module(mod_name)
            raw = getattr(mod, attr)
            self._saved.append((mod, attr, raw))
            setattr(mod, attr, self._batch(raw) if attr == "match_all"
                    else self._single(raw))
        return self

    def uninstall(self):
        for mod, attr, raw in reversed(self._saved):
            setattr(mod, attr, raw)
        self._saved.clear()

    def _batch(self, fn):
        def match_all(db, queries, metric=None):
            q = np.atleast_2d(queries)
            pick = np.unique(np.linspace(0, q.shape[0] - 1, SAMPLE_PER_CALL)
                             .astype(int)) if q.shape[0] else np.zeros(0, int)
            try:
                ids, dists = fn(db, queries, metric)
            except Exception as exc:
                self.calls.append((db, q[pick].copy(), metric, None, None, exc))
                raise
            self.calls.append((db, q[pick].copy(), metric, ids[pick].copy(),
                               dists[pick].copy(), None))
            return ids, dists
        return match_all

    def _single(self, fn):
        def nn_query(db, query, metric=None):
            values = getattr(query, "values", query)
            t0 = time.perf_counter()
            try:
                tid, dist = fn(db, query, metric)
            except Exception as exc:
                self.calls.append((db, np.atleast_2d(values).copy(), metric,
                                   None, None, exc))
                raise
            self.nn_latency_s.append((db.method, time.perf_counter() - t0))
            self.calls.append((db, np.atleast_2d(values).copy(), metric,
                               np.array([tid]), np.array([dist]), None))
            return tid, dist
        return nn_query


def check(calls) -> tuple[int, int, list]:
    """(checked, failed, first few failure messages) over recorded calls."""
    checked = failed = 0
    notes: list = []
    for db, queries, metric, ids, dists, exc in calls:
        metric = db.metric if metric is None else metric
        for i, q in enumerate(queries):
            checked += 1
            try:
                if exc is not None:
                    raise exc
                ref_tid, ref_dist, per_track = reference_answer(
                    q, db.matrix, db.track_ids, metric)
                got = int(ids[i])
                tol = TIE_RTOL * max(1.0, abs(ref_dist))
                ok = (got in per_track
                      and abs(per_track[got] - ref_dist) <= tol
                      and abs(float(dists[i]) - ref_dist) <= tol
                      and (got == ref_tid or not _clear_winner(per_track, ref_tid, tol)))
                if not ok:
                    raise AssertionError(
                        f"{db.method}/{metric}: program gave track {got} "
                        f"at {float(dists[i]):.12g}, oracle track {ref_tid} "
                        f"at {ref_dist:.12g}")
            except Exception as err:  # every failure counts; keep checking
                failed += 1
                if len(notes) < 5:
                    notes.append(f"{type(err).__name__}: {err}")
    return checked, failed, notes


def _clear_winner(per_track: dict, winner: int, tol: float) -> bool:
    """True when no other track is within ``tol`` of the winner's score."""
    best = per_track[winner]
    return all(abs(d - best) > tol for t, d in per_track.items() if t != winner)
