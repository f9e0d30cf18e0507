"""Correctness oracles and exact quantiles.

Every check counts violations instead of raising: the benchmark reports
them as failed operations and a run with any violation is not correct.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.core.ingest import OP_DELETE, OP_INSERT

__all__ = [
    "EdgeOracle",
    "VersionedOracle",
    "quantile",
    "rows_to_pairs",
    "levels_to_pairs",
    "gather_violations",
    "embedding_violations",
]


def quantile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile: always one of the observed values."""
    if not len(values):
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def levels_to_pairs(levels, fanouts):
    """(src, dst) arrays of a multi-hop expansion (seeds first)."""
    srcs, dsts = [], []
    for hop, fanout in enumerate(fanouts):
        srcs.append(np.repeat(np.asarray(levels[hop], dtype=np.int64), fanout))
        dsts.append(np.asarray(levels[hop + 1], dtype=np.int64))
    return np.concatenate(srcs), np.concatenate(dsts)


def rows_to_pairs(srcs, rows):
    """(src, dst) arrays of a ``sample_neighbors_many`` answer, plus the
    sources whose row came back empty."""
    pair_src, pair_dst, empty = [], [], []
    for src, row in zip(srcs, rows):
        if len(row):
            pair_src.append(np.full(len(row), int(src), dtype=np.int64))
            pair_dst.append(np.asarray(row, dtype=np.int64))
        else:
            empty.append(int(src))
    if pair_src:
        return np.concatenate(pair_src), np.concatenate(pair_dst), empty
    none = np.empty(0, dtype=np.int64)
    return none, none, empty


class EdgeOracle:
    """Live adjacency the benchmark keeps from its own edges and ops.

    Keys are ``src * n + dst``.  ``keys``/``pos`` support uniform draws
    of live edges and O(1) deletion (swap with the last key).
    """

    def __init__(self, src, dst, num_vertices: int) -> None:
        self.n = num_vertices
        keys = np.unique(np.asarray(src, np.int64) * self.n + dst)
        self.keys: List[int] = keys.tolist()
        self.pos: Dict[int, int] = {k: i for i, k in enumerate(self.keys)}
        self.degree = np.bincount(keys // self.n, minlength=self.n)

    def __len__(self) -> int:
        return len(self.keys)

    def apply(self, src, dst, op) -> None:
        """Sequential application, as ``apply_edge_batch`` promises."""
        n, pos, keys = self.n, self.pos, self.keys
        for s, d, o in zip(src.tolist(), dst.tolist(), op.tolist()):
            key = s * n + d
            if o == OP_INSERT:
                if key not in pos:
                    pos[key] = len(keys)
                    keys.append(key)
                    self.degree[s] += 1
            elif o == OP_DELETE:
                i = pos.pop(key, None)
                if i is not None:
                    last = keys.pop()
                    if last != key:
                        keys[i] = last
                        pos[last] = i
                    self.degree[s] -= 1
            # OP_UPDATE changes a live edge's weight, never liveness.

    def pair_violations(self, src, dst, empty=()) -> int:
        """Sampled pairs that are not live edges.  A self-loop that is
        not an edge is padding, legal only for a source with no
        out-edges; an empty row is legal only for such a source too."""
        n = self.n
        in_range = (dst >= 0) & (dst < n) & (src >= 0) & (src < n)
        bad = int(np.count_nonzero(~in_range))
        s, d = src[in_range], dst[in_range]
        pos = self.pos
        live = np.fromiter(
            (k in pos for k in (s * n + d).tolist()), dtype=bool, count=s.size
        )
        padding = ~live & (s == d)
        bad += int(np.count_nonzero(~live & ~padding))
        bad += int(np.count_nonzero(self.degree[s[padding]] > 0))
        bad += sum(
            1 for v in empty if not 0 <= v < n or self.degree[v] > 0
        )
        return bad


class VersionedOracle:
    """Insert-only adjacency with the churn version each edge appeared at,
    so a sample taken after ``v`` churn batches is checked against the
    graph as it was then."""

    def __init__(self, num_vertices: int) -> None:
        self.n = num_vertices
        self.version = 0
        self.first: Dict[int, int] = {}
        self.src_first = np.full(num_vertices, np.iinfo(np.int64).max)

    def insert(self, src, dst) -> None:
        n, first, version = self.n, self.first, self.version
        for s, d in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
            first.setdefault(s * n + d, version)
            if self.src_first[s] > version:
                self.src_first[s] = version

    def pair_violations(self, src, dst, empty, version: int) -> int:
        n = self.n
        in_range = (dst >= 0) & (dst < n) & (src >= 0) & (src < n)
        bad = int(np.count_nonzero(~in_range))
        s, d = src[in_range], dst[in_range]
        first = self.first
        never = version + 1
        seen = np.fromiter(
            (first.get(k, never) for k in (s * n + d).tolist()),
            dtype=np.int64,
            count=s.size,
        )
        live = seen <= version
        padding = ~live & (s == d)
        bad += int(np.count_nonzero(~live & ~padding))
        bad += int(np.count_nonzero(self.src_first[s[padding]] <= version))
        bad += sum(
            1 for v in empty if not 0 <= v < n or self.src_first[v] <= version
        )
        return bad


def gather_violations(ids, rows, expected: np.ndarray) -> int:
    """Gathered rows that differ from the stored features of their ids."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.asarray(rows)
    if rows.shape != (ids.size, expected.shape[1]):
        return max(1, ids.size)
    if ids.size and (ids.min() < 0 or ids.max() >= expected.shape[0]):
        return int(np.count_nonzero((ids < 0) | (ids >= expected.shape[0])))
    return int(np.count_nonzero((rows != expected[ids]).any(axis=1)))


def embedding_violations(matrix, tol: float = 1e-3) -> int:
    """Rows that are not finite unit vectors."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or not m.shape[0]:
        return 1
    finite = np.isfinite(m).all(axis=1)
    norms = np.linalg.norm(np.where(np.isfinite(m), m, 0.0), axis=1)
    return int(np.count_nonzero(~finite | (np.abs(norms - 1.0) > tol)))
