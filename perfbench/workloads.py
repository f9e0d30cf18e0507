"""The benchmark's workloads: seeded inputs, timed loops and their checks.

``train_static`` and ``train_churn`` are closed loops on one
:class:`DynamicGraphStore`; ``serve_mixed`` is one open-loop schedule
through :func:`build_serving_rig` on the simulated clock.  Each run
returns a :class:`Result` holding both metric sets; the CLI prints the
end-to-end set for an untraced run and the per-layer set for a traced
one.  ``WORKLOADS.md`` says why each workload exists and what each
metric should move.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core import DynamicGraphStore
from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.types import UNAVAILABLE
from repro.datasets.stream import RequestStream
from repro.datasets.synthetic import power_law_edges
from repro.distributed.rpc import NetworkModel
from repro.gnn import GraphSAGE, Trainer
from repro.serving.scenarios import (
    Scenario,
    ScenarioRunner,
    ServingRig,
    build_serving_rig,
)
from repro.storage.attributes import AttributeStore

from perfbench.checks import (
    EdgeOracle,
    VersionedOracle,
    embedding_violations,
    gather_violations,
    levels_to_pairs,
    quantile,
    rows_to_pairs,
)
from perfbench.tracing import LAYERS, Proxy, SpanLog, layer_of, self_times

__all__ = [
    "TrainConfig",
    "ServeConfig",
    "Result",
    "run_train",
    "run_serve",
    "WORKLOADS",
]

_now = time.perf_counter

#: ``fault(role, obj) -> obj`` lets a test put a deliberately wrong
#: object under the benchmark's proxy, where a defect of the program
#: itself would sit; the default hands over every object unchanged.
Fault = Callable[[str, object], object]


def _no_fault(role: str, obj):
    return obj


@dataclass
class TrainConfig:
    vertices: int = 20_000
    draws: int = 400_000
    feat_dim: int = 32
    hidden: int = 64
    classes: int = 8
    fanouts: Tuple[int, ...] = (10, 10)
    batch: int = 256
    #: Ops per churn batch applied before every step (0: no writes).
    churn_ops: int = 0
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    #: Untimed iterations before the timed loop.
    warmup: int = 3
    #: Timed iterations at least, whatever ``--seconds`` says.
    min_steps: int = 20


@dataclass
class ServeConfig:
    shards: int = 4
    duration: float = 30.0
    base_rate: float = 200.0
    spike_rate: float = 6000.0
    spike_start: float = 6.0
    spike_seconds: float = 0.5
    hot_keys: int = 32
    churn_rate: float = 40.0
    churn_start: float = 12.0
    churn_seconds: float = 9.0
    churn_edges: int = 64
    monitor_interval: float = 0.05
    #: Rigs set up and scenarios run per run, at least: one repetition
    #: is ~5 s of wall time and the host's speed drifts between them, so
    #: the median of six is what keeps the run-to-run spread small.
    reps: int = 6


@dataclass
class Result:
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    attempted: int
    failed: int
    violations: Dict[str, int]
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(spans, wall: float) -> Dict[str, float]:
    """``layer.<name>.share`` of the traced wall time, and their sum."""
    shares = {layer: 0.0 for layer in LAYERS}
    for name, (seconds, _) in self_times(spans).items():
        shares[layer_of(name)] += seconds / wall
    out = {f"layer.{layer}.share": shares[layer] for layer in LAYERS}
    out["bench.named_fraction"] = sum(shares.values())
    return out


def _span_table(selfs) -> Dict[str, list]:
    """The traced run's spans, written out as ``{name: [self s, calls]}``."""
    return {name: [round(t, 6), n] for name, (t, n) in sorted(selfs.items())}


def _bytes_metrics(breakdowns) -> Dict[str, float]:
    total: Dict[str, int] = {}
    for parts in breakdowns:
        for key, value in parts.items():
            total[key] = total.get(key, 0) + value
    return {
        "core.bytes.samtree": float(
            total["leaf_nodes"] + total["fstables"]
            + total["internal_nodes"] + total["cstables"]
        ),
        "core.bytes.directory": float(total["directory"]),
        "core.bytes.snapshot_cache": float(total["snapshot_cache"]),
        "core.bytes.frozen": float(total["frozen"]),
    }


def _core_counters(stores) -> Dict[str, float]:
    """Snapshot-cache and ingest counters summed over ``stores``."""
    out: Dict[str, float] = {}
    for store in stores:
        for key, value in store.snapshot_cache.stats.to_dict().items():
            out["snapshot." + key] = out.get("snapshot." + key, 0) + value
        for key, value in store.ingest_stats.to_dict().items():
            out["ingest." + key] = out.get("ingest." + key, 0) + value
    return out


def _core_metrics(before, after, steps: int) -> Dict[str, float]:
    """Per-step core counters between two :func:`_core_counters` reads."""
    d = {key: after[key] - before[key] for key in after}
    lookups = d["snapshot.hits"] + d["snapshot.misses"]
    return {
        "core.ingest.trees_incremental_per_step": (
            d["ingest.trees_incremental"] / steps
        ),
        "core.ingest.trees_rebuilt_per_step": d["ingest.trees_rebuilt"] / steps,
        "core.snapshot.hit_rate": (
            d["snapshot.hits"] / lookups if lookups else 0.0
        ),
        "core.snapshot.builds_per_step": d["snapshot.builds"] / steps,
        "core.snapshot.exact_fallbacks_per_step": (
            d["snapshot.exact_fallbacks"] / steps
        ),
    }


def _modeled_transfer(sizes) -> float:
    """Seconds the serving tier's network model charges to move one
    message per ``(payload bytes)`` entry."""
    network = NetworkModel()
    for nbytes in sizes:
        network.send(int(nbytes))
    return network.now()


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------
class _TrainRecorder:
    """Outputs of one iteration's calls, checked after the iteration."""

    def __init__(self) -> None:
        self.clear()
        self.frozen_vertices = 0
        self.live_vertices = 0

    def clear(self) -> None:
        self.samples: List[tuple] = []
        self.gathers: List[tuple] = []

    def on_fanouts(self, levels, _s, seeds, fanouts, *rest, **kw) -> None:
        if levels is not None:
            self.samples.append(("levels", levels, list(fanouts)))
            self.frozen_vertices += sum(int(l.size) for l in levels[:-1])

    def on_rows(self, rows, _s, srcs, k, *rest, **kw) -> None:
        self.samples.append(("rows", list(srcs), rows))
        self.live_vertices += len(rows)

    def on_gather(self, out, _s, name, ids) -> None:
        self.gathers.append((ids, out))

    def violations(self, oracle: EdgeOracle, features) -> Tuple[int, int]:
        sample_bad = 0
        for kind, a, b in self.samples:
            if kind == "levels":
                src, dst = levels_to_pairs(a, b)
                sample_bad += oracle.pair_violations(src, dst)
            else:
                src, dst, empty = rows_to_pairs(a, b)
                sample_bad += oracle.pair_violations(src, dst, empty)
        gather_bad = sum(
            gather_violations(ids, out, features) for ids, out in self.gathers
        )
        return sample_bad, gather_bad


def _churn_batch(rng, oracle: EdgeOracle, base_src, base_dst, ops: int):
    """50% inserts (endpoints degree-weighted like the base graph), 30%
    weight updates and 20% deletes of distinct live edges, shuffled.
    The oracle applies the batch as it is generated."""
    n_ins = ops // 2
    n_upd = ops * 3 // 10
    n_del = ops - n_ins - n_upd
    ins_src = base_src[rng.integers(0, base_src.size, n_ins)]
    ins_dst = base_dst[rng.integers(0, base_dst.size, n_ins)]
    victims = rng.choice(len(oracle), n_upd + n_del, replace=False)
    keys = np.fromiter(
        (oracle.keys[i] for i in victims.tolist()), np.int64, victims.size
    )
    src = np.concatenate([ins_src, keys // oracle.n])
    dst = np.concatenate([ins_dst, keys % oracle.n])
    op = np.repeat(
        np.array([OP_INSERT, OP_UPDATE, OP_DELETE], np.uint8),
        [n_ins, n_upd, n_del],
    )
    order = rng.permutation(ops)
    src, dst, op = src[order], dst[order], op[order]
    weight = rng.uniform(0.1, 1.0, ops)
    oracle.apply(src, dst, op)
    return EdgeBatch(src, dst, weight, None, op)


#: Per-layer metrics of layers the training loop never enters.
_SERVING_ONLY = (
    "distributed.read.ms",
    "distributed.read.calls",
    "distributed.write.ms",
    "distributed.write.calls",
    "distributed.messages_per_request",
    "distributed.bytes_per_request",
    "distributed.network_s_modeled",
    "distributed.retries",
    "serving.admission.ms",
    "serving.batch_self.ms",
    "serving.batches",
    "serving.mean_batch_size",
    "serving.handover_lag_ms_modeled",
    "serving.shed.queue_full",
    "serving.shed.deadline_hopeless",
    "serving.shed.breaker_open",
    "obs.monitor.ms",
    "obs.monitor.scrapes",
    "obs.recorder.events",
    "obs.recorder.dropped",
)


def _train_inputs(cfg: TrainConfig, seed: int):
    """Graph, labels and class-signal features (as examples/gnn_training)."""
    rng = np.random.default_rng(seed)
    src, dst, weight = power_law_edges(cfg.vertices, cfg.vertices, cfg.draws, rng)
    labels = rng.integers(0, cfg.classes, cfg.vertices)
    centers = rng.normal(0.0, 1.0, (cfg.classes, cfg.feat_dim))
    features = (
        centers[labels] + rng.normal(0.0, 2.0, (cfg.vertices, cfg.feat_dim))
    ).astype(np.float32)
    return rng, src, dst, weight, labels, features


def run_train(
    cfg: TrainConfig,
    seed: int,
    seconds: float,
    trace: bool,
    fault: Fault = _no_fault,
) -> Result:
    rng, src, dst, weight, labels, features = _train_inputs(cfg, seed)
    vertex_ids = list(range(cfg.vertices))

    setup, bulk, freeze = [], [], []
    for _ in range(cfg.setups):
        store = None  # let the previous set-up's store go first
        t0 = _now()
        store = DynamicGraphStore()
        store.bulk_load(src, dst, weight)
        t1 = _now()
        store.freeze()
        t2 = _now()
        attrs = AttributeStore()
        attrs.register("feat", cfg.feat_dim)
        attrs.put_many("feat", vertex_ids, features)
        model = GraphSAGE(
            cfg.feat_dim, cfg.hidden, cfg.classes,
            num_layers=len(cfg.fanouts), rng=np.random.default_rng(seed + 1),
        )
        t3 = _now()
        setup.append(t3 - t0)
        bulk.append(t1 - t0)
        freeze.append(t2 - t1)

    log = SpanLog()
    rec = _TrainRecorder()
    store_p = Proxy(fault("store", store), log, {
        "sample_fanouts": ("core.sample", rec.on_fanouts),
        "sample_neighbors_many": ("core.sample", rec.on_rows),
        "apply_edge_batch": ("core.ingest", None),
    })
    attrs_p = Proxy(
        fault("features", attrs), log,
        {"gather": ("storage.gather", rec.on_gather)},
    )
    model_p = Proxy(fault("model", model), log, {
        "forward": ("gnn.forward", None),
        "backward": ("gnn.backward", None),
    })
    trainer = Trainer(
        store_p, attrs_p, model_p, list(cfg.fanouts),
        rng=random.Random(seed + 2),
    )

    oracle = EdgeOracle(src, dst, cfg.vertices)
    pool = np.flatnonzero(oracle.degree > 0)
    core0 = _core_counters([store])

    times: List[float] = []
    traced_times: List[float] = []
    untraced_times: List[float] = []
    modeled: List[float] = []
    losses: List[float] = []
    gathered_rows = unique_rows = 0
    bad_steps = sample_bad_steps = gather_bad_steps = 0
    sample_bad = gather_bad = 0
    measured = 0.0
    step = 0
    while step < cfg.warmup + cfg.min_steps or measured < seconds:
        seeds = rng.choice(pool, cfg.batch).tolist()
        y = labels[seeds]
        churn = (
            _churn_batch(rng, oracle, src, dst, cfg.churn_ops)
            if cfg.churn_ops else None
        )
        timed = step >= cfg.warmup
        traced = trace and timed and step % 2 == 0
        rec.clear()
        log.op_id = step
        log.enabled = traced
        t0 = _now()
        if churn is not None:
            store_p.apply_edge_batch(churn)
        loss, _ = log.call("gnn.trainer", trainer.train_step, seeds, y)
        dt = _now() - t0
        log.enabled = False

        s_bad, g_bad = rec.violations(oracle, features)
        sample_bad += s_bad
        gather_bad += g_bad
        sample_bad_steps += bool(s_bad)
        gather_bad_steps += bool(g_bad)
        bad_steps += bool(s_bad or g_bad)
        losses.append(float(loss))
        if timed:
            times.append(dt)
            (traced_times if traced else untraced_times).append(dt)
            measured += dt
            levels = [np.asarray(i, dtype=np.int64) for i, _ in rec.gathers]
            distinct = [int(np.unique(level).size) for level in levels]
            gathered_rows += sum(level.size for level in levels)
            unique_rows += sum(distinct)
            # What the iteration would move over the serving tier's
            # network model: one message per gathered level (distinct ids
            # and their rows), one per sampling hop (distinct sources and
            # their draws), one for the churn batch (see WORKLOADS.md).
            sizes = [(8 + 4 * cfg.feat_dim) * u for u in distinct]
            sizes += [
                8 * (u + nxt.size) for u, nxt in zip(distinct, levels[1:])
            ]
            if churn is not None:
                sizes.append(churn.payload_nbytes())
            modeled.append(_modeled_transfer(sizes))
        step += 1

    tenth = max(1, len(losses) // 10)
    loss_bad = int(
        statistics.fmean(losses[-tenth:]) >= statistics.fmean(losses[:tenth])
    )
    steps = len(times)
    wall = sum(times)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": _peak_rss_mb(),
        "bytes_per_edge": store.nbytes() / store.num_edges,
        "seeds_per_s": cfg.batch * steps / wall,
        "step_p50_ms": quantile(times, 0.50) * 1e3,
        "step_p90_ms": quantile(times, 0.90) * 1e3,
        "serve_wall_rps": steps / wall,
        "serve_p50_ms_modeled": quantile(modeled, 0.50) * 1e3,
        "serve_p99_ms_modeled": quantile(modeled, 0.99) * 1e3,
        "availability": 1.0 - gather_bad_steps / len(losses),
        "fresh_fraction": 1.0 - sample_bad_steps / len(losses),
    }

    per_step = 1.0 / steps
    n_traced = len(traced_times) or 1
    spans = log.spans
    selfs = self_times(spans)

    def span_s(name: str) -> float:
        return selfs.get(name, (0.0, 0))[0]

    ingest_s = span_s("core.ingest")
    sample_s = span_s("core.sample")
    gather_s = span_s("storage.gather")
    sampled = rec.frozen_vertices + rec.live_vertices
    per_layer = {
        "core.ingest.ms_per_step": ingest_s * 1e3 / n_traced,
        "core.ingest.ops_per_s": (
            cfg.churn_ops * n_traced / ingest_s if ingest_s else 0.0
        ),
        "core.bulk_load_s": statistics.median(bulk),
        "core.freeze_s": statistics.median(freeze),
        "core.sample.ms_per_step": sample_s * 1e3 / n_traced,
        "core.sample.vertices_per_s": (
            sampled / len(losses) * n_traced / sample_s if sample_s else 0.0
        ),
        "core.sample.frozen_served_ratio": (
            rec.frozen_vertices / sampled if sampled else 0.0
        ),
        **_core_metrics(core0, _core_counters([store]), len(losses)),
        **_bytes_metrics([store.nbytes_breakdown()]),
        "storage.gather.ms_per_step": gather_s * 1e3 / n_traced,
        "storage.gather.rows_per_s": (
            gathered_rows * per_step * n_traced / gather_s if gather_s else 0.0
        ),
        "storage.gather.rows_per_step": gathered_rows * per_step,
        "storage.gather.unique_ratio": (
            unique_rows / gathered_rows if gathered_rows else 0.0
        ),
        "gnn.forward.ms_per_step": span_s("gnn.forward") * 1e3 / n_traced,
        "gnn.backward.ms_per_step": span_s("gnn.backward") * 1e3 / n_traced,
        "gnn.trainer_self.ms_per_step": span_s("gnn.trainer") * 1e3 / n_traced,
    }
    per_layer.update(dict.fromkeys(_SERVING_ONLY, 0.0))
    per_layer.update(_layer_metrics(spans, sum(traced_times) or 1.0))
    per_layer["bench.trace_overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(untraced_times)
        if traced_times and untraced_times else 1.0
    )
    return Result(
        end_to_end,
        per_layer,
        attempted=len(losses),
        failed=bad_steps + loss_bad,
        violations={
            "stale_or_phantom_samples": sample_bad,
            "wrong_gather_rows": gather_bad,
            "loss_not_decreasing": loss_bad,
        },
        notes={
            "steps_timed": steps,
            "span_self_s": _span_table(selfs),
            "loss_first_tenth": statistics.fmean(losses[:tenth]),
            "loss_last_tenth": statistics.fmean(losses[-tenth:]),
        },
    )


# ---------------------------------------------------------------------------
# serving workload
# ---------------------------------------------------------------------------
def _serve_scenario(cfg: ServeConfig, num_sources: int, seed: int) -> Scenario:
    """Open loop of independent users: Poisson arrivals of zipf-keyed
    requests (every 8th a two-vertex link request), a Poisson flash crowd
    on the hottest keys, and insert churn at a fixed rate."""
    rng = np.random.default_rng(seed)
    stream = RequestStream(num_sources, exponent=0.99, seed=seed + 1)

    def arrivals(rate: float, start: float, end: float) -> np.ndarray:
        return np.sort(rng.uniform(start, end, rng.poisson(rate * (end - start))))

    events = []
    base = arrivals(cfg.base_rate, 0.0, cfg.duration)
    keys = stream.batch(2 * base.size).reshape(-1, 2).tolist()
    for i, (t, pair) in enumerate(zip(base.tolist(), keys)):
        if i % 8 == 7:
            events.append((t, "request", (pair, "link")))
        else:
            events.append((t, "request", (pair[:1], "embed")))
    hot = stream.hot_sources(cfg.hot_keys).tolist()
    spike_end = cfg.spike_start + cfg.spike_seconds
    for i, t in enumerate(arrivals(cfg.spike_rate, cfg.spike_start, spike_end)):
        events.append((float(t), "request", ([hot[i % len(hot)]], "embed")))
    n = cfg.churn_edges
    for i in range(int(round(cfg.churn_rate * cfg.churn_seconds))):
        batch = EdgeBatch.inserts(
            rng.integers(0, num_sources, n),
            rng.integers(0, num_sources, n),
            rng.uniform(0.1, 1.0, n),
        )
        events.append((cfg.churn_start + i / cfg.churn_rate, "churn", batch))
    return Scenario("serve_mixed", cfg.duration, events, seed=seed)


class _ServeRecorder:
    """Everything one scenario run hands back, checked after the run."""

    def __init__(self, service, oracle: VersionedOracle, log: SpanLog) -> None:
        self.service = service
        self.oracle = oracle
        self.log = log
        self.requests: List[object] = []
        self.lags: List[float] = []
        self.samples: List[tuple] = []
        self.gathers: List[tuple] = []
        self.step_seconds: List[float] = []
        self._batches = 0

    def on_service(self, out, seconds, *args, **kwargs) -> None:
        batches = self.service.stats.batches
        if batches > self._batches:
            self.step_seconds.append(seconds)
            self._batches = batches

    def on_submit(self, request, seconds, *args, **kwargs) -> None:
        self.requests.append(request)
        # Spans opened from here on belong to the latest request.
        self.log.op_id = request.request_id
        self.lags.append(
            self.service.network.now() - request.submitted_at
        )
        self.on_service(request, seconds)

    def on_read(self, rows, _s, srcs, *rest, **kw) -> None:
        self.samples.append((srcs, rows, self.oracle.version))

    def on_write(self, _out, _s, batch, *rest, **kw) -> None:
        self.oracle.version += 1
        self.oracle.insert(batch.src, batch.dst)

    def on_gather(self, out, _s, name, ids) -> None:
        self.gathers.append((ids, out))


def _serve_oracle(rig) -> VersionedOracle:
    """The rig builds its own graph, so its oracle is read once from the
    shard stores before the run; every later write is the benchmark's."""
    oracle = VersionedOracle(rig.num_sources)
    shard_of = rig.cluster.partitioner.shard_for
    for v in range(rig.num_sources):
        store = rig.cluster.servers[shard_of(v)].store
        dsts = [d for d, _ in store.neighbors(v)]
        oracle.insert(np.full(len(dsts), v), np.asarray(dsts, np.int64))
    return oracle


def _serve_per_layer(rig, spans, wall, rec, before):
    """Per-layer metrics of one scenario repetition, its modeled bytes
    per edge and its span table.

    ``before`` holds the counters read just before the run.  The shard
    stores sit behind the client, out of the benchmark's reach: their
    sampling and ingest time is inside ``distributed.*``, so the core
    timings read 0 here while their counters are summed over the shards.
    """
    stats = rig.service.stats
    net = rig.cluster.network.stats
    stores = [server.store for server in rig.cluster.servers]
    selfs = self_times(spans)

    def span_ms(name: str) -> float:
        return selfs.get(name, (0.0, 0))[0] * 1e3

    batches = stats.batches or 1
    ids = [np.asarray(i, dtype=np.int64) for i, _ in rec.gathers]
    rows = sum(i.size for i in ids)
    uniq = sum(int(np.unique(i).size) for i in ids)
    gather_ms = span_ms("storage.gather")
    out = {
        "core.ingest.ms_per_step": 0.0,
        "core.ingest.ops_per_s": 0.0,
        **_core_metrics(before["core"], _core_counters(stores), batches),
        "core.bulk_load_s": 0.0,
        "core.freeze_s": 0.0,
        "core.sample.ms_per_step": 0.0,
        "core.sample.vertices_per_s": 0.0,
        "core.sample.frozen_served_ratio": 0.0,
        **_bytes_metrics([s.nbytes_breakdown() for s in stores]),
        "storage.gather.ms_per_step": gather_ms / batches,
        "storage.gather.rows_per_s": rows / gather_ms * 1e3 if gather_ms else 0.0,
        "storage.gather.rows_per_step": rows / batches,
        "storage.gather.unique_ratio": uniq / rows if rows else 0.0,
        "gnn.forward.ms_per_step": span_ms("gnn.forward") / batches,
        "gnn.backward.ms_per_step": 0.0,
        "gnn.trainer_self.ms_per_step": 0.0,
        "distributed.read.ms": span_ms("distributed.read"),
        "distributed.read.calls": float(len(rec.samples)),
        "distributed.write.ms": span_ms("distributed.write"),
        "distributed.write.calls": float(rec.oracle.version),
        "distributed.messages_per_request": (
            net.messages - before["messages"]
        ) / stats.submitted,
        "distributed.bytes_per_request": (
            net.payload_bytes - before["bytes"]
        ) / stats.submitted,
        "distributed.network_s_modeled": (
            net.simulated_seconds - net.slept_seconds - before["network_s"]
        ),
        "distributed.retries": float(sum(
            r.stats.retries
            for r in (rig.cluster.retry, rig.cluster.client.retry)
            if r is not None
        )),
        "serving.admission.ms": span_ms("serving.admission"),
        "serving.batch_self.ms": span_ms("serving.batch"),
        "serving.batches": float(stats.batches),
        "serving.mean_batch_size": stats.batched_requests / batches,
        "serving.handover_lag_ms_modeled": statistics.fmean(rec.lags) * 1e3,
        "serving.shed.queue_full": float(stats.shed_queue_full),
        "serving.shed.deadline_hopeless": float(stats.shed_deadline_hopeless),
        "serving.shed.breaker_open": float(stats.shed_breaker_open),
        "obs.monitor.ms": span_ms("obs.monitor"),
        "obs.monitor.scrapes": float(rig.monitor.scrapes - before["scrapes"]),
        "obs.recorder.events": float(rig.recorder.events_total),
        "obs.recorder.dropped": float(rig.recorder.dropped_total),
    }
    out.update(_layer_metrics(spans, wall))
    bytes_per_edge = sum(s.nbytes() for s in stores) / sum(
        s.num_edges for s in stores
    )
    return out, bytes_per_edge, _span_table(selfs)


def run_serve(
    cfg: ServeConfig,
    seed: int,
    seconds: float,
    trace: bool,
    fault: Fault = _no_fault,
) -> Result:
    setup: List[float] = []
    walls: List[Tuple[float, bool]] = []
    latencies: List[float] = []
    step_seconds: List[float] = []
    seeds_done = submitted = ok_in_deadline = fresh = failed_answers = 0
    bad = {
        "stale_or_phantom_samples": 0,
        "wrong_gather_rows": 0,
        "bad_embeddings": 0,
        "unresolved_requests": 0,
        "accounting_mismatch": 0,
    }
    per_layer: Dict[str, float] = {}
    bytes_per_edge = 0.0
    span_table: Dict[str, list] = {}
    slo = None
    rep = 0
    while rep < cfg.reps or sum(w for w, _ in walls) < seconds:
        traced = trace and rep % 2 == 1
        t0 = _now()
        rig = build_serving_rig(
            num_shards=cfg.shards,
            seed=seed,
            monitor_interval=cfg.monitor_interval,
            recorder=True,
        )
        setup.append(_now() - t0)
        oracle = _serve_oracle(rig)
        expected = np.stack(
            [rig.features.get("feat", v) for v in range(rig.num_sources)]
        )
        scenario = _serve_scenario(cfg, rig.num_sources, seed)

        log = SpanLog()
        rec = _ServeRecorder(rig.service, oracle, log)
        client_p = Proxy(fault("client", rig.cluster.client), log, {
            "sample_neighbors_many": ("distributed.read", rec.on_read),
            "apply_edge_batch": ("distributed.write", rec.on_write),
        })
        service = rig.service
        features_p = Proxy(fault("features", rig.features), log, {
            "gather": ("storage.gather", rec.on_gather),
        })
        encoder_p = Proxy(
            fault("encoder", rig.encoder), log,
            {"forward": ("gnn.forward", None)},
        )
        service_p = Proxy(fault("service", service), log, {
            "submit": ("serving.admission", rec.on_submit),
            "poll": ("serving.batch", rec.on_service),
            "flush": ("serving.batch", rec.on_service),
        })
        monitor_p = Proxy(rig.monitor, log, {
            "poll": ("obs.monitor", None),
            "scrape": ("obs.monitor", None),
        })
        cluster_p = Proxy(rig.cluster, log, {})
        object.__setattr__(cluster_p, "client", client_p)
        service.client = client_p
        service.features = features_p
        service.encoder = encoder_p
        proxied = ServingRig(
            cluster_p, service_p, features_p, encoder_p, rig.num_sources,
            monitor=monitor_p, recorder=rig.recorder,
        )

        net = rig.cluster.network.stats
        before = {
            "messages": net.messages,
            "bytes": net.payload_bytes,
            "network_s": net.simulated_seconds - net.slept_seconds,
            "scrapes": rig.monitor.scrapes,
            "core": _core_counters([server.store for server in rig.cluster.servers]),
        }
        log.enabled = traced
        t0 = _now()
        slo = ScenarioRunner(proxied, scenario).run()
        wall = _now() - t0
        log.enabled = False
        walls.append((wall, traced))

        # -- checks (after the timed run) --------------------------------
        stats = service.stats
        if not (
            stats.submitted
            == stats.answered_fresh + stats.answered_degraded + stats.failed
            == len(rec.requests)
        ):
            bad["accounting_mismatch"] += 1
        for request in rec.requests:
            answer = request.answer
            submitted += 1
            if answer is None:
                bad["unresolved_requests"] += 1
                latencies.append(math.inf)
                continue
            if not answer.ok:
                failed_answers += 1
                latencies.append(math.inf)
                continue
            latencies.append(answer.latency)
            seeds_done += len(request.vertices)
            bad["bad_embeddings"] += bool(embedding_violations(answer.embeddings))
            fresh += answer.status == "fresh"
            ok_in_deadline += (
                request.deadline is None
                or answer.completed_at <= request.deadline
            )
        for srcs, rows, version in rec.samples:
            served = [(s, r) for s, r in zip(srcs, rows) if r is not UNAVAILABLE]
            src, dst, empty = rows_to_pairs(
                [s for s, _ in served], [r for _, r in served]
            )
            bad["stale_or_phantom_samples"] += bool(
                oracle.pair_violations(src, dst, empty, version)
            )
        for ids, out in rec.gathers:
            bad["wrong_gather_rows"] += bool(
                gather_violations(ids, out, expected)
            )
        step_seconds.extend(rec.step_seconds)
        if traced or not per_layer:
            per_layer, bytes_per_edge, span_table = _serve_per_layer(
                rig, log.spans, wall, rec, before
            )
        rep += 1

    # Every repetition runs the same schedule, so per-repetition counts
    # are equal and the median wall is the steadiest denominator.
    untraced = statistics.median(w for w, t in walls if not t)
    per_rep = 1.0 / len(walls)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": _peak_rss_mb(),
        "bytes_per_edge": bytes_per_edge,
        "seeds_per_s": seeds_done * per_rep / untraced,
        "step_p50_ms": quantile(step_seconds, 0.50) * 1e3,
        "step_p90_ms": quantile(step_seconds, 0.90) * 1e3,
        "serve_wall_rps": submitted * per_rep / untraced,
        "serve_p50_ms_modeled": quantile(latencies, 0.50) * 1e3,
        "serve_p99_ms_modeled": quantile(latencies, 0.99) * 1e3,
        "availability": ok_in_deadline / submitted,
        "fresh_fraction": fresh / submitted,
    }
    traced_walls = [w for w, t in walls if t]
    per_layer["bench.trace_overhead_ratio"] = (
        statistics.median(traced_walls) / untraced if traced_walls else 1.0
    )
    return Result(
        end_to_end,
        per_layer,
        attempted=submitted,
        failed=sum(bad.values()) + failed_answers,
        violations=dict(bad, failed_answers=failed_answers),
        notes={
            "scenario_walls_s": [round(w, 4) for w, _ in walls],
            "span_self_s": span_table,
            "slo_report_p50_ms": slo.p50_seconds * 1e3,
            "slo_report_p99_ms": slo.p99_seconds * 1e3,
            "exact_max_ms": max(latencies) * 1e3,
        },
    )


WORKLOADS = {
    "train_static": lambda seed, seconds, trace: run_train(
        TrainConfig(), seed, seconds, trace
    ),
    "train_churn": lambda seed, seconds, trace: run_train(
        TrainConfig(churn_ops=1024), seed, seconds, trace
    ),
    "serve_mixed": lambda seed, seconds, trace: run_serve(
        ServeConfig(), seed, seconds, trace
    ),
}
