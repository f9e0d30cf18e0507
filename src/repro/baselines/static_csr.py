"""Static-system baseline: the Euler / Plato / DistDGL / ByteGNN regime.

The paper excludes the static deep graph learning systems from its
dynamic comparisons because "the graph needs to be re-partitioned and
re-deployed from scratch in graph servers when an edge is
inserted/deleted" (§I).  This store makes that cost measurable: the
graph lives in immutable CSR arrays (the layout those systems serve
queries from), mutations accumulate in a small delta buffer, and *any*
read or sample after a mutation first pays a **full rebuild** of the
CSR — the re-deploy the paper refuses to do online.

It exists for the ablation bench that quantifies why a dynamic store is
non-negotiable, and as the fourth point on the systems spectrum:

====================  ==========================================
PlatoD2GL             in-place O(log) updates
PlatoGL               in-place O(n_s) CSTable maintenance
AliGraph              per-vertex O(n_s) alias rebuilds
StaticCSRStore        whole-graph O(E) rebuild per update batch
====================  ==========================================
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.core.snapshot import RNGLike, coerce_scalar_rng
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI, check_fanout

__all__ = ["StaticCSRStore"]


class _RelationCSR:
    """Immutable CSR + prefix-sum sampling arrays for one relation."""

    __slots__ = ("src_ids", "indptr", "indices", "weights", "cumweights")

    def __init__(self, adjacency: Dict[int, Dict[int, float]]) -> None:
        # Vectorized build: gather the edge columns once, derive indptr
        # from a degree cumsum, and dst-sort each row with a single
        # stable lexsort (row-major, dst ascending) — no per-edge Python
        # list appends, so the rebuild cost this baseline exists to
        # measure is the arrays' cost, not the interpreter's.
        self.src_ids: List[int] = sorted(adjacency)
        num_rows = len(self.src_ids)
        counts = np.fromiter(
            (len(adjacency[s]) for s in self.src_ids),
            dtype=np.int64,
            count=num_rows,
        )
        total = int(counts.sum())
        dst = np.fromiter(
            (d for s in self.src_ids for d in adjacency[s]),
            dtype=np.int64,
            count=total,
        )
        w = np.fromiter(
            (wt for s in self.src_ids for wt in adjacency[s].values()),
            dtype=np.float64,
            count=total,
        )
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        row_of = np.repeat(np.arange(num_rows, dtype=np.int64), counts)
        order = np.lexsort((dst, row_of))
        self.indptr = indptr
        self.indices = dst[order]
        self.weights = w[order]
        # Per-source cumulative weights for ITS sampling.
        self.cumweights = np.cumsum(self.weights)

    def row(self, src: int) -> Optional[Tuple[int, int]]:
        i = bisect.bisect_left(self.src_ids, src)
        if i == len(self.src_ids) or self.src_ids[i] != src:
            return None
        return int(self.indptr[i]), int(self.indptr[i + 1])

    def nbytes(self, model: MemoryModel) -> int:
        return (
            len(self.src_ids) * model.id_bytes
            + self.indptr.size * 8
            + self.indices.size * model.id_bytes
            + self.weights.size * model.weight_bytes
            + self.cumweights.size * model.weight_bytes
        )


class StaticCSRStore(GraphStoreAPI):
    """A static store with rebuild-on-read-after-write semantics."""

    def __init__(self) -> None:
        # Mutable staging adjacency (the "offline" copy).
        self._staging: Dict[int, Dict[int, Dict[int, float]]] = {}
        self._csr: Dict[int, _RelationCSR] = {}
        self._dirty = False
        self._num_edges = 0
        self.rebuild_count = 0

    # ------------------------------------------------------------------
    # mutation (cheap staging, deferred rebuild)
    # ------------------------------------------------------------------
    def add_edge(
        self,
        src: int,
        dst: int,
        weight: float = 1.0,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        adjacency = self._staging.setdefault(etype, {})
        row = adjacency.setdefault(src, {})
        is_new = dst not in row
        row[dst] = float(weight)
        if is_new:
            self._num_edges += 1
        self._dirty = True
        return is_new

    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        row = self._staging.get(etype, {}).get(src)
        if row is None or dst not in row:
            return False
        row[dst] = float(weight)
        self._dirty = True
        return True

    def remove_edge(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> bool:
        adjacency = self._staging.get(etype, {})
        row = adjacency.get(src)
        if row is None or dst not in row:
            return False
        del row[dst]
        if not row:
            del adjacency[src]
        self._num_edges -= 1
        self._dirty = True
        return True

    # ------------------------------------------------------------------
    # the static regime: reads pay the re-deploy
    # ------------------------------------------------------------------
    def _ensure_built(self) -> None:
        if not self._dirty:
            return
        self._csr = {
            etype: _RelationCSR(adjacency)
            for etype, adjacency in self._staging.items()
            if adjacency
        }
        self._dirty = False
        self.rebuild_count += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def degree(self, src: int, etype: int = DEFAULT_ETYPE) -> int:
        self._ensure_built()
        rel = self._csr.get(etype)
        if rel is None:
            return 0
        row = rel.row(src)
        return row[1] - row[0] if row else 0

    def edge_weight(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> Optional[float]:
        self._ensure_built()
        rel = self._csr.get(etype)
        if rel is None:
            return None
        row = rel.row(src)
        if row is None:
            return None
        lo, hi = row
        i = lo + int(np.searchsorted(rel.indices[lo:hi], dst))
        if i < hi and rel.indices[i] == dst:
            return float(rel.weights[i])
        return None

    def neighbors(
        self, src: int, etype: int = DEFAULT_ETYPE
    ) -> List[Tuple[int, float]]:
        self._ensure_built()
        rel = self._csr.get(etype)
        if rel is None:
            return []
        row = rel.row(src)
        if row is None:
            return []
        lo, hi = row
        return [
            (int(d), float(w))
            for d, w in zip(rel.indices[lo:hi], rel.weights[lo:hi])
        ]

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def num_sources(self) -> int:
        return sum(len(adj) for adj in self._staging.values())

    def sources(self, etype: int = DEFAULT_ETYPE) -> Iterator[int]:
        return iter(sorted(self._staging.get(etype, {})))

    # ------------------------------------------------------------------
    # sampling (fast once built — the static systems' strong suit)
    # ------------------------------------------------------------------
    def sample_neighbors(
        self,
        src: int,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        check_fanout(k)
        self._ensure_built()
        rel = self._csr.get(etype)
        if rel is None:
            return []
        row = rel.row(src)
        if row is None or row[0] == row[1]:
            return []
        lo, hi = row
        base = rel.cumweights[lo - 1] if lo > 0 else 0.0
        total = rel.cumweights[hi - 1] - base
        rng = coerce_scalar_rng(rng) or random
        if total <= 0:
            return [int(rel.indices[lo + rng.randrange(hi - lo)]) for _ in range(k)]
        draws = base + np.array([rng.random() * total for _ in range(k)])
        slots = np.searchsorted(rel.cumweights[lo:hi], draws, side="right")
        slots = np.minimum(slots, hi - lo - 1)
        return [int(rel.indices[lo + s]) for s in slots]

    # Batched sampling uses the generic :class:`GraphStoreAPI` loop — the
    # static regime's cost lives in `_ensure_built`, which the first call
    # of a batch pays once; per-row draws are already array-backed.

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        self._ensure_built()
        # CSR image + the staging copy (the "offline" adjacency the
        # rebuild reads from — static deployments keep both).
        total = 0
        for rel in self._csr.values():
            total += rel.nbytes(model)
        for adjacency in self._staging.values():
            for row in adjacency.values():
                total += len(row) * (model.id_bytes + model.weight_bytes)
            total += len(adjacency) * model.pointer_bytes
        return total
