"""AliGraph baseline: hash-by-source static storage with alias sampling.

AliGraph [38] is the integrated GNN platform the paper compares against.
Its relevant traits (paper §I, §VIII, Table IV):

* graph storage is *static* — the deployment the paper benchmarks uses
  the ``hash-by-source`` partitioning "so that it can be used for
  dynamic graphs", meaning an update touches one source's adjacency and
  forces that adjacency's sampling structures to be rebuilt;
* weighted sampling uses the **alias method** [34][25], which answers a
  draw in ``O(1)`` but requires an ``O(n_s)`` table rebuild after *any*
  weight change, insertion, or deletion — this is the expensive dynamic
  behaviour Figure 8/9 exhibit;
* it "duplicates the graph topology for supporting fast sampling", so
  its per-edge memory is roughly (IDs + weights) × duplication + the
  alias table — the reason it is the memory worst case in Table IV and
  goes out of memory on the WeChat graph.

The alias table here is a real Vose construction, not a stub: sampling
draws are genuinely ``O(1)`` and the rebuild is genuinely ``O(n_s)``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.core.snapshot import RNGLike, coerce_scalar_rng
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI, check_fanout
from repro.errors import EmptyStructureError

__all__ = ["AliasTable", "AliGraphStore"]


class AliasTable:
    """Vose's alias method: O(n) build, O(1) weighted draw."""

    __slots__ = ("_prob", "_alias", "_n")

    def __init__(self, weights: List[float]) -> None:
        n = len(weights)
        self._n = n
        self._prob = [0.0] * n
        self._alias = [0] * n
        if n == 0:
            return
        total = sum(weights)
        if total <= 0.0:
            # Degenerate uniform table.
            self._prob = [1.0] * n
            self._alias = list(range(n))
            return
        scaled = [w * n / total for w in weights]
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            self._prob[s] = scaled[s]
            self._alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for i in large:
            self._prob[i] = 1.0
            self._alias[i] = i
        for i in small:  # numerical leftovers
            self._prob[i] = 1.0
            self._alias[i] = i

    def __len__(self) -> int:
        return self._n

    def sample(self, rng: Optional[random.Random] = None) -> int:
        """One O(1) draw."""
        if self._n == 0:
            raise EmptyStructureError("cannot sample from an empty alias table")
        rng = rng or random
        i = rng.randrange(self._n)
        if rng.random() < self._prob[i]:
            return i
        return self._alias[i]

    def nbytes(self, model: MemoryModel) -> int:
        """One probability + one alias index per element."""
        return self._n * model.alias_entry_bytes


class _Adjacency:
    """One source's adjacency: parallel arrays + its alias table."""

    __slots__ = ("ids", "weights", "alias", "index")

    def __init__(self) -> None:
        self.ids: List[int] = []
        self.weights: List[float] = []
        self.index: Dict[int, int] = {}
        self.alias = AliasTable([])

    def rebuild(self) -> None:
        """O(n_s) alias-table reconstruction after any mutation."""
        self.alias = AliasTable(self.weights)


class AliGraphStore(GraphStoreAPI):
    """Hash-by-source AliGraph storage with alias-method sampling.

    Every mutation of a source's adjacency rebuilds that source's alias
    table from scratch — the O(n_s) dynamic cost the paper's Figures 8
    and 9 penalise.
    """

    def __init__(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> None:
        self._model = model
        self._adj: Dict[Tuple[int, int], _Adjacency] = {}
        self._num_edges = 0

    def _get(self, src: int, etype: int) -> Optional[_Adjacency]:
        return self._adj.get((etype, src))

    # ------------------------------------------------------------------
    # dynamic updates (each triggers a full alias rebuild)
    # ------------------------------------------------------------------
    def add_edge(
        self,
        src: int,
        dst: int,
        weight: float = 1.0,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        adj = self._adj.setdefault((etype, src), _Adjacency())
        slot = adj.index.get(dst)
        if slot is not None:
            adj.weights[slot] = float(weight)
            adj.rebuild()
            return False
        adj.index[dst] = len(adj.ids)
        adj.ids.append(dst)
        adj.weights.append(float(weight))
        adj.rebuild()
        self._num_edges += 1
        return True

    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        adj = self._get(src, etype)
        if adj is None:
            return False
        slot = adj.index.get(dst)
        if slot is None:
            return False
        adj.weights[slot] = float(weight)
        adj.rebuild()
        return True

    def remove_edge(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> bool:
        adj = self._get(src, etype)
        if adj is None:
            return False
        slot = adj.index.pop(dst, None)
        if slot is None:
            return False
        last = len(adj.ids) - 1
        if slot != last:
            adj.ids[slot] = adj.ids[last]
            adj.weights[slot] = adj.weights[last]
            adj.index[adj.ids[slot]] = slot
        adj.ids.pop()
        adj.weights.pop()
        self._num_edges -= 1
        if adj.ids:
            adj.rebuild()
        else:
            del self._adj[(etype, src)]
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def degree(self, src: int, etype: int = DEFAULT_ETYPE) -> int:
        adj = self._get(src, etype)
        return len(adj.ids) if adj is not None else 0

    def edge_weight(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> Optional[float]:
        adj = self._get(src, etype)
        if adj is None:
            return None
        slot = adj.index.get(dst)
        if slot is None:
            return None
        return adj.weights[slot]

    def neighbors(
        self, src: int, etype: int = DEFAULT_ETYPE
    ) -> List[Tuple[int, float]]:
        adj = self._get(src, etype)
        if adj is None:
            return []
        return list(zip(adj.ids, adj.weights))

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def num_sources(self) -> int:
        return len(self._adj)

    def sources(self, etype: int = DEFAULT_ETYPE) -> Iterator[int]:
        for key_etype, src in self._adj:
            if key_etype == etype:
                yield src

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_neighbors(
        self,
        src: int,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        check_fanout(k)
        adj = self._get(src, etype)
        if adj is None or not adj.ids:
            return []
        rng = coerce_scalar_rng(rng)
        return [adj.ids[adj.alias.sample(rng)] for _ in range(k)]

    # Batched sampling stays the generic :class:`GraphStoreAPI` loop:
    # AliGraph's alias tables answer one O(1) draw at a time and have no
    # snapshot/caching tier to vectorize over.

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        """Duplicated topology + alias tables + per-vertex headers."""
        total = 0
        dup = model.aligraph_duplication_factor
        for adj in self._adj.values():
            n = len(adj.ids)
            topo = n * (model.id_bytes + model.weight_bytes)
            total += dup * topo
            total += adj.alias.nbytes(model)
            # The dst->slot membership index (one entry per edge).
            total += n * (model.id_bytes + 4)
            total += model.aligraph_vertex_header_bytes
        return total

    def peak_nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        """Build-time peak footprint (steady state × load-peak factor).

        AliGraph's loading pipeline holds the raw edge lists while the
        CSR/alias structures are assembled; budget checks against this
        value reproduce the paper's WeChat "o.o.m" entries.
        """
        return int(self.nbytes(model) * model.aligraph_build_peak_factor)
