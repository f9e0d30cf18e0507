"""Attribute (feature) storage (paper §III: "As for the attribute
storage, the key-value store is used").

GNN training needs, besides topology, a feature vector per vertex (and
optionally labels).  PlatoD2GL keeps these in a key-value store —
attributes are point-updated, never range-sampled, so the KV indexing
overhead the samtree avoids for topology is the right tool here.

The store is schema'd: each named field has a fixed dimensionality and
dtype, so batch gathers return dense ``numpy`` matrices ready for the
operator layer.  Each field is laid out as one dense row matrix, so a
batch gather is an id→row map plus a single ``np.take``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.errors import ConfigurationError, ShapeError, VertexNotFoundError

__all__ = ["AttributeSchema", "AttributeStore"]

_ID_MIN, _ID_MAX = -(1 << 63), (1 << 63) - 1  # ids are int64
#: The dense offset table is used while the id span (plus the two
#: sentinels) is at most this many times the number of stored ids.
_DENSE_SPAN_FACTOR = 4
_INITIAL_ROWS = 16


@dataclass(frozen=True)
class AttributeSchema:
    """A named, fixed-width vertex attribute field."""

    name: str
    dim: int
    dtype: np.dtype = np.dtype(np.float32)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigurationError(
                f"attribute dim must be >= 1, got {self.dim}"
            )


def _as_ids(vertices: Iterable[int]) -> np.ndarray:
    """Vertex ids as a flat int64 array (no copy for int64 input)."""
    if not isinstance(vertices, (np.ndarray, list, tuple)):
        vertices = list(vertices)
    return np.asarray(vertices, dtype=np.int64).reshape(-1)


class _Column:
    """One field: a dense ``(rows, dim)`` matrix and its id→row maps.

    Row 0 is a permanent zero row that every missing id maps to.
    ``row_of`` serves point access; ``_index`` is the vectorised id→row
    map for batches, rebuilt lazily after an id is inserted or deleted
    (overwriting a stored id leaves it valid).  It is either
    ``(lo, None, table)`` — an offset table over ``[min - 1, max + 1]``
    whose zero end sentinels catch every out-of-range id under
    ``mode="clip"`` — or ``(0, keys, rows)``, a sorted id column read
    with ``searchsorted`` when the ids are too sparse for a table.
    """

    __slots__ = ("schema", "matrix", "row_of", "free", "used", "_index")

    def __init__(self, schema: AttributeSchema) -> None:
        self.schema = schema
        self.matrix = np.zeros((_INITIAL_ROWS, schema.dim), dtype=schema.dtype)
        self.row_of: Dict[int, int] = {}
        self.free: List[int] = []  # rows released by delete, reused first
        self.used = 1  # rows handed out so far, the zero row included
        self._index = None  # built on demand by rows()

    # -- id -> row -----------------------------------------------------
    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Row of each id; 0 (the zero row) for ids not stored."""
        if self._index is None:
            self._index = self._build_index()
        lo, keys, rows = self._index
        if keys is None:
            return rows.take(ids - lo, mode="clip")
        pos = keys.searchsorted(ids)
        hit = keys.take(pos, mode="clip") == ids
        return np.where(hit, rows.take(pos, mode="clip"), 0)

    def _build_index(self):
        n = len(self.row_of)
        ids = np.fromiter(self.row_of, np.int64, n)
        rows = np.fromiter(self.row_of.values(), np.intp, n)
        if not n:
            return np.int64(0), None, np.zeros(1, dtype=np.intp)
        lo, hi = int(ids.min()) - 1, int(ids.max()) + 1
        dense = hi - lo + 1 <= _DENSE_SPAN_FACTOR * n
        if dense and _ID_MIN <= lo and hi <= _ID_MAX:
            table = np.zeros(hi - lo + 1, dtype=np.intp)
            table[ids - lo] = rows
            return np.int64(lo), None, table
        order = ids.argsort()
        return np.int64(0), ids[order], rows[order]

    # -- row allocation ------------------------------------------------
    def insert(self, vertex: int) -> int:
        """Row for a new id (a freed row if any)."""
        if not _ID_MIN <= vertex <= _ID_MAX:
            raise ConfigurationError(f"vertex id {vertex} is outside int64")
        if self.free:
            row = self.free.pop()
        else:
            row = self.used
            self._reserve(row + 1)
            self.used = row + 1
        self.row_of[vertex] = row
        self._index = None
        return row

    def insert_many(self, ids: np.ndarray) -> np.ndarray:
        """Rows for distinct new ids, freed rows first."""
        reuse = min(len(self.free), ids.size)
        rows = np.empty(ids.size, dtype=np.intp)
        rows[:reuse] = self.free[len(self.free) - reuse:]
        del self.free[len(self.free) - reuse:]
        start = self.used
        self.used = start + ids.size - reuse
        self._reserve(self.used)
        rows[reuse:] = np.arange(start, self.used, dtype=np.intp)
        self.row_of.update(zip(ids.tolist(), rows.tolist()))
        self._index = None
        return rows

    def delete(self, vertex: int) -> bool:
        row = self.row_of.pop(vertex, None)
        if row is None:
            return False
        self.matrix[row] = 0
        self.free.append(row)
        self._index = None
        return True

    def _reserve(self, rows: int) -> None:
        capacity = self.matrix.shape[0]
        if rows <= capacity:
            return
        grown = np.zeros(
            (max(rows, 2 * capacity), self.schema.dim), dtype=self.schema.dtype
        )
        grown[:capacity] = self.matrix
        self.matrix = grown


class AttributeStore:
    """Per-vertex feature vectors behind a key-value interface.

    Each field is stored columnar: one dense ``(rows, dim)`` matrix
    whose row 0 is a permanent zero row, an ``id → row`` dict for point
    reads and writes, and a lazily rebuilt vectorised ``id → row``
    index for batches.  The index is an offset table over the id span
    when the ids are dense (span at most about 4× the number of stored
    ids) and a sorted id column searched with ``searchsorted``
    otherwise (e.g. typed ids on the 2^40 stride).  :meth:`gather` is
    one index lookup plus one ``np.take``; missing ids land on the zero
    row.  Deleted rows are zeroed and reused by later inserts.

    Writes copy into the matrix and every read returns a fresh array,
    so neither a caller's input nor a returned row aliases the store.

    Examples
    --------
    >>> store = AttributeStore()
    >>> store.register("feat", dim=4)
    >>> store.put("feat", 7, [1.0, 2.0, 3.0, 4.0])
    >>> store.gather("feat", [7, 8]).shape
    (2, 4)
    """

    def __init__(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> None:
        self._columns: Dict[str, _Column] = {}
        self._model = model

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------
    def register(
        self, name: str, dim: int, dtype: np.dtype = np.dtype(np.float32)
    ) -> None:
        """Declare a field; idempotent if the declaration is identical."""
        schema = AttributeSchema(name, dim, np.dtype(dtype))
        existing = self._columns.get(name)
        if existing is not None:
            if existing.schema != schema:
                raise ConfigurationError(
                    f"attribute {name!r} already registered with a "
                    f"different schema ({existing.schema} vs {schema})"
                )
            return
        self._columns[name] = _Column(schema)

    def schema(self, name: str) -> AttributeSchema:
        """Return the schema of a field."""
        return self._column(name).schema

    def fields(self) -> Iterator[str]:
        """Iterate over registered field names."""
        return iter(self._columns)

    def vertices(self, name: str) -> np.ndarray:
        """Sorted int64 ids of the vertices with a stored value."""
        row_of = self._column(name).row_of
        return np.sort(np.fromiter(row_of, np.int64, len(row_of)))

    def _column(self, name: str) -> _Column:
        try:
            return self._columns[name]
        except KeyError:
            raise ConfigurationError(f"unknown attribute field {name!r}") from None

    # ------------------------------------------------------------------
    # point access
    # ------------------------------------------------------------------
    def put(self, name: str, vertex: int, value: Sequence[float]) -> None:
        """Set the feature vector of one vertex."""
        col = self._column(name)
        schema = col.schema
        arr = np.asarray(value, dtype=schema.dtype)
        if arr.shape != (schema.dim,):
            raise ShapeError(
                f"attribute {name!r} expects shape ({schema.dim},), "
                f"got {arr.shape}"
            )
        v = int(vertex)
        row = col.row_of.get(v)
        if row is None:
            row = col.insert(v)
        col.matrix[row] = arr

    def put_many(
        self, name: str, vertices: Iterable[int], values: np.ndarray
    ) -> None:
        """Set feature vectors for many vertices from a dense matrix."""
        col = self._column(name)
        schema = col.schema
        ids = _as_ids(vertices)
        matrix = np.asarray(values, dtype=schema.dtype)
        if matrix.shape != (ids.size, schema.dim):
            raise ShapeError(
                f"attribute {name!r} expects shape "
                f"({ids.size}, {schema.dim}), got {matrix.shape}"
            )
        # An id listed twice keeps its last row.
        uniq, last = np.unique(ids[::-1], return_index=True)
        if uniq.size != ids.size:
            keep = ids.size - 1 - last
            ids, matrix = ids[keep], matrix[keep]
        rows = col.rows(ids)
        new = rows == 0
        if new.any():
            rows[new] = col.insert_many(ids[new])
        col.matrix[rows] = matrix

    def get(self, name: str, vertex: int) -> np.ndarray:
        """Feature vector of one vertex; raises if missing."""
        col = self._column(name)
        row = col.row_of.get(int(vertex))
        if row is None:
            raise VertexNotFoundError(
                f"vertex {vertex} has no {name!r} attribute"
            )
        return col.matrix[row].copy()

    def get_or_default(self, name: str, vertex: int) -> np.ndarray:
        """Feature vector or a zero vector when missing (cold vertices)."""
        col = self._column(name)
        return col.matrix[col.row_of.get(int(vertex), 0)].copy()

    def delete(self, name: str, vertex: int) -> bool:
        """Drop one vertex's value; returns whether it existed."""
        return self._column(name).delete(int(vertex))

    def has(self, name: str, vertex: int) -> bool:
        """Whether the vertex has a stored value for the field."""
        return int(vertex) in self._column(name).row_of

    def num_vertices(self, name: str) -> int:
        """Number of vertices with a stored value for the field."""
        return len(self._column(name).row_of)

    # ------------------------------------------------------------------
    # batch access (the GNN gather path)
    # ------------------------------------------------------------------
    def gather(self, name: str, vertices: Iterable[int]) -> np.ndarray:
        """Dense ``(len(vertices), dim)`` matrix; missing rows are zero."""
        col = self._column(name)
        return col.matrix.take(col.rows(_as_ids(vertices)), axis=0)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Keys + index entries + payload bytes under the memory model."""
        model = self._model
        per_pair = model.id_bytes + model.kv_index_entry_bytes
        total = 0
        for col in self._columns.values():
            row_bytes = col.schema.dtype.itemsize * col.schema.dim
            total += len(col.row_of) * (per_pair + row_bytes)
        return total
