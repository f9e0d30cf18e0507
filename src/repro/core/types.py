"""Shared types: edge records, update operations, and the store interface.

Every topology store in this package — PlatoD2GL's samtree store, the
PlatoGL block-KV baseline, and the AliGraph static baseline — implements
:class:`GraphStoreAPI`, so benchmark drivers, the distributed layer, and
the GNN samplers are store-agnostic.
"""

from __future__ import annotations

import abc
import enum
import random
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.core.snapshot import RNGLike, coerce_scalar_rng
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_ETYPE",
    "UNAVAILABLE",
    "Edge",
    "OpKind",
    "EdgeOp",
    "GraphStoreAPI",
    "check_fanout",
]

#: Edge type used when the graph is homogeneous.
DEFAULT_ETYPE = 0


class _UnavailableType(tuple):
    """Singleton marker for results from shards with no live replica.

    An empty tuple subclass: falsy, iterates empty (samplers degrade
    gracefully), and identity-testable (``row is UNAVAILABLE``).  Lives
    here rather than in the distributed layer so store-agnostic
    consumers (the GNN samplers, the serving tier) can detect degraded
    rows without importing ``repro.distributed``.
    """

    __slots__ = ()

    def __new__(cls) -> "_UnavailableType":
        return super().__new__(cls, ())

    def __repr__(self) -> str:
        return "<UNAVAILABLE>"


#: Per-source marker returned by degraded reads.
UNAVAILABLE = _UnavailableType()


def check_fanout(k: int) -> None:
    """Reject a negative fan-out — the one argument check every store's
    sampling entry points share, so no read path can answer it
    differently (an empty row, a numpy shape error, ...)."""
    if k < 0:
        raise ConfigurationError(f"fanout must be >= 0, got {k}")


#: ``slots=True`` (3.10+) removes the per-instance ``__dict__`` from the
#: per-edge record types — millions of them are alive during a stream
#: replay, so the dict header is the dominant overhead.
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTTED)
class Edge:
    """A weighted directed edge ``e(src, dst, weight)`` of type ``etype``."""

    src: int
    dst: int
    weight: float = 1.0
    etype: int = DEFAULT_ETYPE


class OpKind(enum.Enum):
    """The three dynamic-update kinds of the paper's Table II."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True, **_SLOTTED)
class EdgeOp:
    """One dynamic-update operation against a topology store."""

    kind: OpKind
    src: int
    dst: int
    weight: float = 1.0
    etype: int = DEFAULT_ETYPE

    @classmethod
    def insert(
        cls, src: int, dst: int, weight: float = 1.0, etype: int = DEFAULT_ETYPE
    ) -> "EdgeOp":
        return cls(OpKind.INSERT, src, dst, weight, etype)

    @classmethod
    def update(
        cls, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> "EdgeOp":
        return cls(OpKind.UPDATE, src, dst, weight, etype)

    @classmethod
    def delete(cls, src: int, dst: int, etype: int = DEFAULT_ETYPE) -> "EdgeOp":
        return cls(OpKind.DELETE, src, dst, 0.0, etype)


class GraphStoreAPI(abc.ABC):
    """Interface every topology store implements.

    Sources and destinations are 64-bit vertex IDs; ``etype`` selects a
    relation in heterogeneous graphs and defaults to ``0``.
    """

    # -- dynamic updates ------------------------------------------------
    @abc.abstractmethod
    def add_edge(
        self,
        src: int,
        dst: int,
        weight: float = 1.0,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        """Insert an edge (or overwrite its weight); True when new."""

    @abc.abstractmethod
    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        """In-place weight update; False when the edge does not exist."""

    @abc.abstractmethod
    def remove_edge(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> bool:
        """Delete an edge; False when it does not exist."""

    def apply(self, op: EdgeOp) -> bool:
        """Apply one :class:`EdgeOp` (dispatch helper)."""
        if op.kind is OpKind.INSERT:
            return self.add_edge(op.src, op.dst, op.weight, op.etype)
        if op.kind is OpKind.UPDATE:
            return self.update_edge(op.src, op.dst, op.weight, op.etype)
        return self.remove_edge(op.src, op.dst, op.etype)

    def add_edges(self, edges: Iterable[Tuple[int, int, float]]) -> int:
        """Bulk-insert ``(src, dst, weight)`` triples; returns #new edges."""
        added = 0
        for src, dst, weight in edges:
            if self.add_edge(src, dst, weight):
                added += 1
        return added

    # -- columnar bulk ingestion ----------------------------------------
    # Generic fallbacks replaying row by row; samtree-backed stores
    # override these with the O(n) bottom-up build
    # (:meth:`repro.core.topology.DynamicGraphStore.apply_edge_batch`).
    # Imports are lazy: :mod:`repro.core.ingest` imports this module.
    def bulk_load(self, src, dst=None, weight=None, etype=None):
        """Insert-only columnar load; returns an ``IngestStats``."""
        from repro.core.ingest import EdgeBatch

        if isinstance(src, EdgeBatch):
            batch = src
            if not batch.is_insert_only:
                from repro.errors import ConfigurationError

                raise ConfigurationError(
                    "bulk_load takes insert-only batches; use "
                    "apply_edge_batch for mixed-op batches"
                )
        else:
            batch = EdgeBatch.inserts(src, dst, weight, etype)
        return self.apply_edge_batch(batch)

    def apply_edge_batch(self, batch, dst=None, weight=None, etype=None,
                         op=None):
        """Apply a columnar update batch; returns an ``IngestStats``.

        The fallback replays the batch op by op through
        :meth:`add_edge`/:meth:`update_edge`/:meth:`remove_edge` — the
        reference semantics every bulk path must reproduce exactly.
        """
        from repro.core.ingest import (
            OP_DELETE,
            OP_INSERT,
            EdgeBatch,
            IngestStats,
        )

        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch(batch, dst, weight, etype, op)
        stats = IngestStats(ops=len(batch))
        for i in range(len(batch)):
            code = int(batch.op[i])
            s = int(batch.src[i])
            d = int(batch.dst[i])
            e = int(batch.etype[i])
            if code == OP_INSERT:
                if self.add_edge(s, d, float(batch.weight[i]), e):
                    stats.inserted += 1
            elif code == OP_DELETE:
                if self.remove_edge(s, d, e):
                    stats.removed += 1
            else:
                self.update_edge(s, d, float(batch.weight[i]), e)
        return stats

    # -- queries ---------------------------------------------------------
    @abc.abstractmethod
    def degree(self, src: int, etype: int = DEFAULT_ETYPE) -> int:
        """Out-degree of ``src`` (0 when absent)."""

    @abc.abstractmethod
    def edge_weight(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> Optional[float]:
        """Weight of ``e(src, dst)`` or ``None``."""

    @abc.abstractmethod
    def neighbors(
        self, src: int, etype: int = DEFAULT_ETYPE
    ) -> List[Tuple[int, float]]:
        """All ``(dst, weight)`` pairs of ``src`` (order unspecified)."""

    def has_edge(self, src: int, dst: int, etype: int = DEFAULT_ETYPE) -> bool:
        """Whether ``e(src, dst)`` exists."""
        return self.edge_weight(src, dst, etype) is not None

    @property
    @abc.abstractmethod
    def num_edges(self) -> int:
        """Total stored edges across all relations."""

    @property
    @abc.abstractmethod
    def num_sources(self) -> int:
        """Number of vertices with at least one out-edge."""

    @abc.abstractmethod
    def sources(self, etype: int = DEFAULT_ETYPE) -> Iterator[int]:
        """Iterate over source vertices of a relation."""

    # -- sampling ----------------------------------------------------------
    @abc.abstractmethod
    def sample_neighbors(
        self,
        src: int,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        """Draw ``k`` weighted neighbor samples (with replacement).

        Returns an empty list when ``src`` has no out-edges, matching the
        padding convention of the GNN sampler layer.  ``rng`` may be a
        ``random.Random``, a ``numpy.random.Generator``, an ``int`` seed,
        or ``None``.  Implementations reject ``k < 0`` with
        :func:`check_fanout` before anything else.
        """

    def sample_neighbors_many(
        self,
        srcs: Sequence[int],
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
        *,
        uniform: bool = False,
    ) -> List[Sequence[int]]:
        """Batched sampling: one row of ``k`` draws per source.

        This is the read path the operator layer
        (:mod:`repro.gnn.samplers`) calls for whole frontiers.  Draws
        are weighted, or — with ``uniform=True`` — every neighbor is
        equally likely.  The generic fallback is a per-source loop (the
        uniform one draws over :meth:`neighbors`); stores with a
        vectorized read path (:class:`~repro.core.topology.DynamicGraphStore`
        via its snapshot cache, the distributed client via one RPC per
        shard) override it.  Rows may be lists **or** int64 arrays;
        sources without out-edges yield empty rows.
        """
        check_fanout(k)
        rng = coerce_scalar_rng(rng)
        if not uniform:
            return [self.sample_neighbors(s, k, rng, etype) for s in srcs]
        rng = rng or random
        rows: List[Sequence[int]] = []
        for s in srcs:
            ids = [dst for dst, _ in self.neighbors(s, etype)]
            n = len(ids)
            rows.append([ids[rng.randrange(n)] for _ in range(k)] if n else [])
        return rows

    # -- accounting -------------------------------------------------------
    @abc.abstractmethod
    def nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        """Modeled memory footprint in bytes (see ``repro.core.memory``)."""
