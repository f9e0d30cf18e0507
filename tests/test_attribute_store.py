"""Columnar attribute store: aliasing, index forms and a differential
test against a plain-dict reference model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory import DEFAULT_MEMORY_MODEL
from repro.datasets.synthetic import TYPE_ID_STRIDE
from repro.errors import ConfigurationError
from repro.storage.attributes import AttributeStore

DIM = 3


def _store(dim: int = DIM) -> AttributeStore:
    store = AttributeStore()
    store.register("feat", dim)
    return store


def _index_is_dense(store: AttributeStore, name: str = "feat") -> bool:
    col = store._column(name)
    col.rows(np.zeros(0, dtype=np.int64))  # build the lazy index
    return col._index[1] is None


class TestNoAliasing:
    def test_put_copies_the_callers_array(self):
        store = _store(2)
        x = np.float32([1, 2])
        store.put("feat", 7, x)
        x[0] = 99
        assert store.get("feat", 7).tolist() == [1.0, 2.0]
        assert store.gather("feat", [7]).tolist() == [[1.0, 2.0]]

    def test_writing_into_get_leaves_the_store(self):
        store = _store(2)
        store.put("feat", 7, [1.0, 2.0])
        store.get("feat", 7)[0] = 99
        store.get_or_default("feat", 7)[1] = 99
        store.get_or_default("feat", 8)[:] = 5  # the zero row stays zero
        assert store.get("feat", 7).tolist() == [1.0, 2.0]
        assert store.get_or_default("feat", 8).tolist() == [0.0, 0.0]

    def test_writing_into_gather_leaves_the_store(self):
        store = _store(2)
        store.put_many("feat", [1, 2], np.float32([[1, 2], [3, 4]]))
        out = store.gather("feat", [1, 2, 99])
        out[:] = -1
        assert store.gather("feat", [1, 2, 99]).tolist() == [
            [1.0, 2.0], [3.0, 4.0], [0.0, 0.0]
        ]

    def test_put_many_copies_the_callers_matrix(self):
        store = _store(2)
        values = np.float32([[1, 2], [3, 4]])
        store.put_many("feat", np.array([1, 2]), values)
        values[:] = 0
        assert store.get("feat", 2).tolist() == [3.0, 4.0]


class TestLayout:
    def test_dense_ids_use_the_offset_table(self):
        store = _store()
        store.put_many("feat", range(100, 200), np.ones((100, DIM)))
        assert _index_is_dense(store)

    def test_sparse_and_typed_ids_use_the_sorted_column(self):
        sparse = _store()
        sparse.put_many("feat", [0, 10**9], np.ones((2, DIM)))
        typed = _store()
        typed.put_many(
            "feat", [k * TYPE_ID_STRIDE for k in range(1, 5)], np.ones((4, DIM))
        )
        assert not _index_is_dense(sparse)
        assert not _index_is_dense(typed)

    def test_deleted_rows_are_reused(self):
        store = _store()
        store.put_many("feat", range(10), np.ones((10, DIM)))
        rows = store._column("feat").used
        store.delete("feat", 3)
        store.put("feat", 42, [1.0, 2.0, 3.0])
        store.delete("feat", 4)
        store.put_many("feat", [43], np.ones((1, DIM)))
        assert store._column("feat").used == rows

    def test_put_many_keeps_the_last_row_of_a_repeated_id(self):
        store = _store(1)
        store.put_many("feat", [5, 6, 5], np.float32([[1], [2], [3]]))
        assert store.gather("feat", [5, 6]).tolist() == [[3.0], [2.0]]
        assert store.num_vertices("feat") == 2
        assert store._column("feat").used == 3  # zero row + one row per id

    def test_vertices_are_sorted_int64(self):
        store = _store()
        store.put_many("feat", [9, -4, 2**40], np.ones((3, DIM)))
        store.delete("feat", 9)
        ids = store.vertices("feat")
        assert ids.dtype == np.int64
        assert ids.tolist() == [-4, 2**40]

    def test_ids_at_the_ends_of_int64(self):
        store = _store(1)
        lo, hi = -(2**63), 2**63 - 1
        store.put_many("feat", [lo, hi], np.float32([[1], [2]]))
        assert store.gather("feat", [hi, lo, 0]).tolist() == [[2.0], [1.0], [0.0]]
        lone = _store(1)
        lone.put("feat", lo, [3.0])
        assert lone.gather("feat", [lo, lo + 1, hi]).tolist() == [[3.0], [0.0], [0.0]]
        with pytest.raises(ConfigurationError):
            store.put("feat", 2**63, [0.0])

    def test_empty_field_gathers_zero_rows(self):
        store = _store()
        assert store.gather("feat", []).shape == (0, DIM)
        assert store.gather("feat", [1, -1]).tolist() == [[0.0] * DIM] * 2
        assert store.vertices("feat").tolist() == []


# ----------------------------------------------------------------------
# differential test against a plain-dict reference model
# ----------------------------------------------------------------------
ID_SPACES = {
    "dense": st.integers(-20, 40),
    "sparse": st.integers(0, 10**9),
    "typed": st.builds(
        lambda k, i: k * TYPE_ID_STRIDE + i,
        st.integers(0, 6),
        st.integers(0, 3),
    ),
}
ID_SPACES["mixed"] = st.one_of(*ID_SPACES.values())
EXTREME_PROBES = [-1, -(2**62), 2**62, 41, 10**9 + 1, -(2**63), 2**63 - 1]
VECTORS = st.lists(
    st.integers(-100, 100).map(float), min_size=DIM, max_size=DIM
)


@st.composite
def scenarios(draw):
    space = draw(st.sampled_from(sorted(ID_SPACES)))
    pool = draw(st.lists(ID_SPACES[space], min_size=1, max_size=40, unique=True))
    slot = st.integers(0, len(pool) - 1)
    op = st.one_of(
        st.tuples(st.just("put"), slot, VECTORS),
        st.tuples(st.just("put_many"), st.lists(st.tuples(slot, VECTORS), max_size=24)),
        st.tuples(st.just("delete"), slot),
        st.tuples(st.just("gather"), st.lists(slot, max_size=8)),
    )
    return pool, draw(st.lists(op, min_size=1, max_size=30))


def _expected(model, ids):
    return np.array(
        [model.get(v, [0.0] * DIM) for v in ids], dtype=np.float32
    ).reshape(len(ids), DIM)


def _check(store, model, pool):
    probes = list(pool) + EXTREME_PROBES
    expected = _expected(model, probes)
    got = store.gather("feat", np.asarray(probes, dtype=np.int64))
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(store.gather("feat", probes), expected)
    np.testing.assert_array_equal(store.gather("feat", tuple(probes)), expected)
    assert store.gather("feat", []).shape == (0, DIM)
    assert store.gather("feat", np.zeros(0, dtype=np.int64)).shape == (0, DIM)
    for v, row in zip(probes, expected):
        assert store.has("feat", v) == (v in model)
        np.testing.assert_array_equal(store.get_or_default("feat", v), row)
    assert store.num_vertices("feat") == len(model)
    assert store.vertices("feat").tolist() == sorted(model)
    # nbytes counts stored ids only, exactly as the per-row KV layout did.
    per_row = (
        DEFAULT_MEMORY_MODEL.id_bytes
        + DEFAULT_MEMORY_MODEL.kv_index_entry_bytes
        + 4 * DIM
    )
    assert store.nbytes() == len(model) * per_row


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_matches_a_dict_reference_model(scenario):
    pool, ops = scenario
    store = _store()
    model = {}
    for op in ops:
        kind = op[0]
        if kind == "put":
            v = pool[op[1]]
            store.put("feat", v, op[2])
            model[v] = op[2]
        elif kind == "put_many":
            ids = [pool[i] for i, _ in op[1]]
            values = np.array([vec for _, vec in op[1]]).reshape(-1, DIM)
            store.put_many("feat", ids, values)
            model.update(zip(ids, (vec for _, vec in op[1])))
        elif kind == "delete":
            v = pool[op[1]]
            assert store.delete("feat", v) == (model.pop(v, None) is not None)
        else:
            ids = [pool[i] for i in op[1]]
            np.testing.assert_array_equal(
                store.gather("feat", ids), _expected(model, ids)
            )
        _check(store, model, pool)


@settings(max_examples=50, deadline=None)
@given(st.lists(ID_SPACES["mixed"], max_size=30, unique=True), st.randoms())
def test_nbytes_depends_only_on_contents(ids, rnd):
    values = np.arange(len(ids) * DIM, dtype=np.float32).reshape(-1, DIM)
    bulk = _store()
    bulk.put_many("feat", ids, values)
    churned = _store()
    order = list(range(len(ids)))
    rnd.shuffle(order)
    for i in order:
        churned.put("feat", ids[i], -values[i])
        churned.put("feat", -(2**61) - i, values[i])
        churned.delete("feat", -(2**61) - i)
        churned.put("feat", ids[i], values[i])
    assert churned.nbytes() == bulk.nbytes()
    np.testing.assert_array_equal(
        churned.gather("feat", ids), bulk.gather("feat", ids)
    )
