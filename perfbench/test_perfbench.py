"""The benchmark's own tests: each correctness check must be able to fail.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
Every test runs a shrunken workload; the fault tests hand the program a
deliberately wrong object and assert that the matching check counts it.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.core.ingest import OP_DELETE  # noqa: E402

from perfbench.checks import EdgeOracle, quantile  # noqa: E402
from perfbench.tracing import Proxy, SpanLog, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ServeConfig,
    TrainConfig,
    run_serve,
    run_train,
)

TINY_TRAIN = dict(
    vertices=500, draws=5000, feat_dim=8, hidden=16, classes=4,
    fanouts=(5, 5), batch=64, setups=1, warmup=1, min_steps=20,
)
TINY_SERVE = ServeConfig(
    duration=3.0, spike_start=1.0, spike_seconds=0.2, churn_start=1.5,
    churn_seconds=1.0, reps=1,
)


def keep(role, obj):
    return obj


def train(churn_ops: int = 128, fault=keep, trace: bool = False):
    cfg = TrainConfig(churn_ops=churn_ops, **TINY_TRAIN)
    return run_train(cfg, seed=3, seconds=0.0, trace=trace, fault=fault)


def only(role_wanted, make):
    """A fault that replaces one role's object and passes the rest."""
    return lambda role, obj: make(obj) if role == role_wanted else obj


# ---------------------------------------------------------------------------
# the machinery
# ---------------------------------------------------------------------------
def test_quantile_is_an_observed_value():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert quantile(values, 0.5) == 3.0
    assert quantile(values, 0.99) == 5.0
    assert quantile(values, 0.0) == 1.0
    assert quantile([1.0, float("inf")], 0.99) == float("inf")


def test_proxy_forwards_missing_attribute_as_missing():
    class NoFastPath:
        def sample_neighbors_many(self, srcs, k):
            return [[s] * k for s in srcs]

    proxy = Proxy(NoFastPath(), SpanLog(), {
        "sample_fanouts": ("core.sample", None),
        "sample_neighbors_many": ("core.sample", None),
    })
    assert getattr(proxy, "sample_fanouts", None) is None
    assert proxy.sample_neighbors_many([1, 2], 2) == [[1, 1], [2, 2]]


def test_self_time_subtracts_children():
    spans = [
        ("gnn.trainer", 0.0, 10.0, -1, 0),
        ("core.sample", 1.0, 3.0, 0, 0),
        ("storage.gather", 4.0, 8.0, 0, 0),
    ]
    selfs = self_times(spans)
    assert selfs["gnn.trainer"] == (4.0, 1)
    assert selfs["storage.gather"] == (4.0, 1)


def test_oracle_padding_rules():
    oracle = EdgeOracle(np.array([0, 0]), np.array([1, 2]), 4)
    src, dst = np.array([0, 0, 3]), np.array([1, 2, 3])
    assert oracle.pair_violations(src, dst) == 0  # 3 has no out-edges
    assert oracle.pair_violations(np.array([0]), np.array([0])) == 1
    assert oracle.pair_violations(np.array([0]), np.array([3])) == 1
    assert oracle.pair_violations(src[:0], dst[:0], empty=[0]) == 1
    oracle.apply(np.array([0]), np.array([1]), np.array([OP_DELETE]))
    assert oracle.pair_violations(np.array([0]), np.array([1])) == 1


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("churn_ops", [0, 128])
def test_train_passes_with_correct_program(churn_ops):
    result = train(churn_ops)
    assert result.failed == 0, result.violations
    assert result.attempted == 21
    assert set(result.end_to_end) >= {"seeds_per_s", "step_p90_ms"}


def test_frozen_path_is_taken_through_the_proxy():
    result = train(churn_ops=0, trace=True)
    assert result.per_layer["core.sample.frozen_served_ratio"] == 1.0
    assert result.per_layer["bench.named_fraction"] > 0.9


def test_stale_frozen_image_is_caught():
    def serve_stale(store):
        store.frozen_staleness_budget = 10**9
        return store

    result = train(fault=only("store", serve_stale))
    assert result.violations["stale_or_phantom_samples"] > 0
    assert result.failed > 0


def test_store_that_keeps_deleted_edges_is_caught():
    class KeepsDeleted:
        def __init__(self, store):
            self._store = store

        def __getattr__(self, name):
            return getattr(self._store, name)

        def apply_edge_batch(self, batch):
            return self._store.apply_edge_batch(
                batch.select(np.flatnonzero(batch.op != OP_DELETE))
            )

    result = train(fault=only("store", KeepsDeleted))
    assert result.violations["stale_or_phantom_samples"] > 0


def test_zero_gather_row_is_caught():
    class ZeroRow:
        def __init__(self, features):
            self._features = features

        def __getattr__(self, name):
            return getattr(self._features, name)

        def gather(self, name, ids):
            out = self._features.gather(name, ids)
            out[0] = 0.0
            return out

    result = train(churn_ops=0, fault=only("features", ZeroRow))
    assert result.violations["wrong_gather_rows"] > 0
    assert result.failed > 0


def test_loss_that_does_not_fall_is_caught():
    class GradientAscent:
        def __init__(self, model):
            self._model = model

        def __getattr__(self, name):
            return getattr(self._model, name)

        def backward(self, grad):
            return self._model.backward(-grad)

    result = train(churn_ops=0, fault=only("model", GradientAscent))
    assert result.violations["loss_not_decreasing"] == 1


# ---------------------------------------------------------------------------
# serving workload
# ---------------------------------------------------------------------------
def serve(fault=keep):
    return run_serve(TINY_SERVE, seed=4, seconds=0.0, trace=False, fault=fault)


def test_serve_passes_with_correct_program():
    result = serve()
    assert result.failed == 0, result.violations
    assert result.attempted > 0
    assert result.end_to_end["serve_p99_ms_modeled"] >= (
        result.end_to_end["serve_p50_ms_modeled"]
    )


def test_phantom_vertex_from_client_is_caught():
    class Phantom:
        def __init__(self, client):
            self._client = client

        def __getattr__(self, name):
            return getattr(self._client, name)

        def sample_neighbors_many(self, srcs, k, *args, **kwargs):
            rows = self._client.sample_neighbors_many(srcs, k, *args, **kwargs)
            rows[0] = np.full(k, 10**6, dtype=np.int64)
            return rows

    result = serve(fault=only("client", Phantom))
    assert result.violations["stale_or_phantom_samples"] > 0


def test_non_finite_embedding_is_caught():
    class NaNEncoder:
        def __init__(self, encoder):
            self._encoder = encoder

        def __getattr__(self, name):
            return getattr(self._encoder, name)

        def forward(self, feats, fanouts):
            return self._encoder.forward(feats, fanouts) * np.nan

    result = serve(fault=only("encoder", NaNEncoder))
    assert result.violations["bad_embeddings"] > 0


def test_unresolved_request_is_caught():
    class LosesAnswers:
        def __init__(self, service):
            self._service = service
            self._requests = []

        def __getattr__(self, name):
            return getattr(self._service, name)

        def submit(self, *args, **kwargs):
            request = self._service.submit(*args, **kwargs)
            self._requests.append(request)
            return request

        def flush(self):
            self._service.flush()
            for request in self._requests[::50]:
                request.answer = None

    result = serve(fault=only("service", LosesAnswers))
    assert result.violations["unresolved_requests"] > 0


def test_request_accounting_mismatch_is_caught():
    class CountsTwice:
        def __init__(self, service):
            self._service = service

        def __getattr__(self, name):
            return getattr(self._service, name)

        def submit(self, *args, **kwargs):
            request = self._service.submit(*args, **kwargs)
            if request.request_id == 0:
                self._service.stats.submitted += 1
            return request

    result = serve(fault=only("service", CountsTwice))
    assert result.violations["accounting_mismatch"] == 1
