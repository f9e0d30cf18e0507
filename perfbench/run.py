"""Run one workload of the end-to-end benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_static --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that attributes the wall time to the layers.  The
output is a human-readable table, one JSON record stamped with
provenance (git sha, host fingerprint, seed, calibration score) and, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
# The load is one process with one thread: BLAS worker threads would
# compete with it for the host's cores and widen the run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from perfbench.workloads import WORKLOADS  # noqa: E402

#: Names, units and order of the metrics to print: the contract file.
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _git(*args: str) -> str:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibrate(seconds: float = 0.25) -> float:
    """Fixed pure-Python + numpy loop, in loops per second.

    Lets records from different hosts be compared by how fast each host
    runs the same unchanging code.
    """
    a = np.arange(4096, dtype=np.float64)
    loops = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        sum(range(2000))
        np.sort(a[::-1])
        loops += 1
    return loops / (time.perf_counter() - start)


def provenance(seed: int) -> dict:
    sha = _git("rev-parse", "HEAD")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": (
            bool(_git("status", "--porcelain", "--untracked-files=no"))
            if sha else None
        ),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "calibration_loops_per_s": calibrate(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = {"workload": args.workload, "trace": args.trace}
    record["provenance"] = provenance(args.seed)
    with open(SPEC) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    values = result.per_layer if args.trace else result.end_to_end
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec
    }
    record.update(
        violations=result.violations, notes=result.notes, metrics=metrics
    )

    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>16.6g} {m['unit']}")
    for name, value in {**result.violations, **result.notes}.items():
        print(f"{name:<{width}}  {value}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
