"""SRS-step microbenchmark and dense-fallback crossover measurement (PR 2).

Two experiments, emitted as the ``BENCH_PR2.json`` trajectory point that CI
uploads alongside ``BENCH_PR1.json``:

* **SRS message batching** — runs Spar-Reduce-Scatter at ``P = 64`` workers
  over a gradient of 16 separately selected buckets, once as one exchange
  (every bucket a set of segments of the block layout: one
  :class:`~repro.comm.packed.PackedBags` message per worker and step, one
  bag per segment) and once bucket by bucket (one SRS each — what
  ``buckets=layer`` cost before buckets shared an exchange), recording
  rounds, messages-per-step and wall time for both.  The reduced blocks and
  the recorded element volumes are identical by construction; only rounds,
  message count and per-call cost differ.
* **Dense-fallback crossover** — sweeps the density ``k/n`` at a
  power-of-two worker count (where the dense All-Reduce is
  bandwidth-optimal) and reports the ratio of SparDL's simulated alpha-beta
  time to the dense baseline's, interpolating the crossover density at which
  the sparse pipeline starts losing.  This is the measurement behind
  ``repro.core.config.DEFAULT_DENSE_CROSSOVER``; wall-clock ratios are
  recorded as diagnostics only (the in-process simulator's Python overhead
  is not the quantity the paper models).

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_srs.py

Exits non-zero when the shared exchange fails to cut rounds and messages or
moves a different volume (the deterministic gate; wall time is recorded but
not gated — shared CI runners are too noisy).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict

import numpy as np

from repro.baselines.dense import DenseAllReduceSynchronizer
from repro.comm.cluster import SimulatedCluster
from repro.comm.network import ETHERNET
from repro.core.config import DEFAULT_DENSE_CROSSOVER, SparDLConfig
from repro.core.residuals import ResidualManager
from repro.core.spardl import SparDLSynchronizer, make_teams
from repro.core.srs import spar_reduce_scatter
from repro.sparse.blocks import BlockLayout

#: SRS microbenchmark scale: the paper's large-model regime, one team.
SRS_WORKERS = 64
SRS_ELEMENTS = 100_000
SRS_DENSITY = 0.01
#: Buckets of the batching experiment: weight tensors of doubling size, each
#: followed by a bias a hundredth of it.
SRS_BUCKETS = 16

#: Crossover sweep: power-of-two workers so the dense baseline is
#: bandwidth-optimal (Rabenseifner), the regime with the tightest crossover.
CROSSOVER_WORKERS = 8
CROSSOVER_ELEMENTS = 50_000
CROSSOVER_DENSITIES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)


def _gradients(num_workers: int, num_elements: int, seed: int = 0) -> Dict[int, np.ndarray]:
    return {w: np.random.default_rng(seed + w).normal(size=num_elements)
            for w in range(num_workers)}


# ---------------------------------------------------------------------------
# experiment 1: one SRS over all buckets vs one SRS per bucket
# ---------------------------------------------------------------------------
def _bucket_sizes(num_elements: int, num_buckets: int = SRS_BUCKETS) -> list:
    weights = 2.0 ** np.arange(num_buckets // 2)
    sizes = []
    for share in weights / weights.sum():
        weight = max(1, int(share * num_elements / 1.01))
        sizes += [weight, max(1, weight // 100)]
    sizes[-2] += num_elements - sum(sizes)
    return sizes


def run_srs_benchmark(num_workers: int = SRS_WORKERS, num_elements: int = SRS_ELEMENTS,
                      density: float = SRS_DENSITY, repeats: int = 3) -> Dict[str, dict]:
    gradients = _gradients(num_workers, num_elements)
    teams = make_teams(num_workers, 1)
    sizes = _bucket_sizes(num_elements)
    budgets = [max(1, int(round(density * size)) // num_workers) for size in sizes]
    edges = np.concatenate(([0], np.cumsum(sizes))).tolist()

    def shared(cluster):
        residuals = ResidualManager(num_workers, num_elements)
        layout = BlockLayout(num_elements, num_workers, tuple(sizes))
        spar_reduce_scatter(cluster, teams, residuals.apply(gradients), layout,
                            np.repeat(budgets, num_workers), residuals)

    def per_bucket(cluster):
        for lo, hi, budget in zip(edges, edges[1:], budgets):
            residuals = ResidualManager(num_workers, hi - lo)
            sliced = {rank: grad[lo:hi] for rank, grad in gradients.items()}
            spar_reduce_scatter(cluster, teams, residuals.apply(sliced),
                                BlockLayout(hi - lo, num_workers), budget, residuals)

    results: Dict[str, dict] = {}
    for name, run in (("per-bucket", per_bucket), ("shared", shared)):
        best = float("inf")
        stats = None
        for _ in range(repeats):
            cluster = SimulatedCluster(num_workers)
            start = time.perf_counter()
            run(cluster)
            best = min(best, time.perf_counter() - start)
            stats = cluster.stats
        results[name] = {
            "wall_s": best,
            "rounds": stats.rounds,
            "total_messages": stats.total_messages,
            "messages_per_step": stats.total_messages / stats.rounds,
            "received_elements": sum(stats.received_per_worker),
        }
    one, many = results["shared"], results["per-bucket"]
    results["summary"] = {
        "buckets": len(sizes),
        "round_reduction": many["rounds"] / one["rounds"],
        "message_reduction": many["total_messages"] / one["total_messages"],
        "wall_speedup": many["wall_s"] / one["wall_s"] if one["wall_s"] else float("inf"),
        "volume_identical": many["received_elements"] == one["received_elements"],
    }
    return results


# ---------------------------------------------------------------------------
# experiment 2: dense-fallback crossover
# ---------------------------------------------------------------------------
def run_crossover_benchmark(num_workers: int = CROSSOVER_WORKERS,
                            num_elements: int = CROSSOVER_ELEMENTS) -> Dict[str, object]:
    gradients = _gradients(num_workers, num_elements, seed=7)

    cluster = SimulatedCluster(num_workers)
    dense_result = DenseAllReduceSynchronizer(cluster, num_elements).synchronize(gradients)
    dense_sim = dense_result.stats.simulated_time(ETHERNET)

    points = []
    for rho in CROSSOVER_DENSITIES:
        cluster = SimulatedCluster(num_workers)
        sync = SparDLSynchronizer(cluster, num_elements,
                                  SparDLConfig(density=rho, dense_fallback=False))
        start = time.perf_counter()
        result = sync.synchronize({w: g.copy() for w, g in gradients.items()})
        wall = time.perf_counter() - start
        points.append({
            "density": rho,
            "sim_time_ratio": result.stats.simulated_time(ETHERNET) / dense_sim,
            "wall_s": wall,
        })

    crossover = None
    for prev, curr in zip(points, points[1:]):
        a, b = prev["sim_time_ratio"], curr["sim_time_ratio"]
        if a < 1.0 <= b:
            # Linear interpolation of the density where the ratio hits 1.
            frac = (1.0 - a) / (b - a)
            crossover = prev["density"] + frac * (curr["density"] - prev["density"])
            break

    return {
        "num_workers": num_workers,
        "num_elements": num_elements,
        "network": ETHERNET.name,
        "dense_sim_time_s": dense_sim,
        "points": points,
        "measured_crossover_density": crossover,
        "shipped_default": DEFAULT_DENSE_CROSSOVER,
    }


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_PR2.json",
                        help="path of the JSON trajectory point to write")
    parser.add_argument("--quick", action="store_true",
                        help="fewer timing repeats (CI smoke mode)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record results without enforcing the batching gate")
    args = parser.parse_args(argv)

    srs = run_srs_benchmark(repeats=1 if args.quick else 3)
    crossover = run_crossover_benchmark()

    report = {
        "bench": "PR2 batched SRS wire format + dense-fallback crossover",
        "config": {
            "srs": {"num_workers": SRS_WORKERS, "num_elements": SRS_ELEMENTS,
                    "density": SRS_DENSITY, "buckets": SRS_BUCKETS},
            "crossover": {"num_workers": CROSSOVER_WORKERS,
                          "num_elements": CROSSOVER_ELEMENTS,
                          "densities": list(CROSSOVER_DENSITIES)},
        },
        "srs_batching": srs,
        "dense_crossover": crossover,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    summary = srs["summary"]
    print(f"SRS @ P={SRS_WORKERS}, {summary['buckets']} buckets: rounds "
          f"{srs['per-bucket']['rounds']} -> {srs['shared']['rounds']}, messages "
          f"{srs['per-bucket']['total_messages']} -> {srs['shared']['total_messages']} "
          f"({summary['message_reduction']:.1f}x fewer, "
          f"wall {summary['wall_speedup']:.2f}x)")
    measured = crossover["measured_crossover_density"]
    print(f"dense/sparse crossover @ P={CROSSOVER_WORKERS} ({ETHERNET.name}): "
          f"k/n = {measured:.3f} (shipped default {DEFAULT_DENSE_CROSSOVER})"
          if measured is not None else
          "dense/sparse crossover: sparse never lost inside the sweep")
    print(f"wrote {args.output}")

    if not args.no_gate:
        failures = []
        if srs["shared"]["messages_per_step"] != SRS_WORKERS:
            failures.append("a shared exchange must emit exactly one message per worker per step")
        if summary["round_reduction"] != summary["buckets"]:
            failures.append("a shared exchange must cost the rounds of one SRS")
        if summary["message_reduction"] <= 1.0:
            failures.append("sharing the exchange must reduce the message count")
        if not summary["volume_identical"]:
            failures.append("sharing the exchange must not change recorded volumes")
        if failures:
            print("SRS BATCHING GATE FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
