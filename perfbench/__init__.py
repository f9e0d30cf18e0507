"""End-to-end benchmark of GNN training under churn and of the serving tier.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; ``WORKLOADS.md`` describes the
workloads, the metrics and the layer each per-layer metric belongs to.
The benchmark drives only public entry points of :mod:`repro` and gets
its per-layer numbers from proxies around the objects it hands to the
program (:mod:`perfbench.tracing`).
"""
