"""Wide k-way merge + deferred-residual microbenchmarks (PR 3 harness).

Two measurements, both emitted into one JSON trajectory point
(``BENCH_PR3.json``) that CI uploads next to ``BENCH_PR1.json`` /
``BENCH_PR2.json``:

* **merge_many** — the production k-way merge (the compiled tournament-tree
  kernel, or the packed-key NumPy path without it) at stream counts
  matching very wide gathers (P = 8 .. 256): asserts bit-identity with the
  seed's sequential pairwise fold and records the time per merge.
* **Deferred residual accumulation** — runs the full SparDL synchroniser
  with eager and deferred residual collection on identical gradients and
  records the per-worker sparse-scatter counts (the deferred mode performs
  exactly one fold per worker per iteration) plus the bit-identity of
  ``total_residual``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_merge_tree.py

Exits non-zero if the merge stops matching the seed fold or the deferred
path stops matching the eager path bit-for-bit, so it doubles as a CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from naive_reference import naive_merge_many  # noqa: E402

from repro.comm.cluster import SimulatedCluster  # noqa: E402
from repro.core.config import SparDLConfig  # noqa: E402
from repro.core.spardl import SparDLSynchronizer  # noqa: E402
from repro.sparse.vector import compiled_kernels_available, merge_many_coo  # noqa: E402

#: Gradient length and per-stream selection for the merge benchmark.
N = 1_000_000
NNZ_PER_STREAM = 2_000
STREAM_COUNTS = (8, 64, 128, 256)

#: Deferred-residual scenario: P = 16 workers in two teams of eight.
RES_WORKERS = 16
RES_TEAMS = 2
RES_ELEMENTS = 40_000
RES_DENSITY = 0.01
RES_ITERATIONS = 3


def best_of(func, repeats: int, loops: int) -> float:
    """Best-of-``repeats`` mean seconds per call over ``loops`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            func()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def make_streams(rng: np.random.Generator, num_streams: int, n: int, nnz: int):
    index_streams, value_streams = [], []
    for _ in range(num_streams):
        index_streams.append(
            np.sort(rng.choice(n, size=nnz, replace=False)).astype(np.int64))
        value_streams.append(rng.normal(size=nnz))
    return index_streams, value_streams


def run_merge_benchmarks(repeats: int = 3, loops: int = 1,
                         seed: int = 0) -> Dict[str, dict]:
    """Time the production merge at every stream count; verify its bits
    against the seed fold (sequential pairwise ``np.unique`` +
    ``np.add.at`` merging)."""
    rng = np.random.default_rng(seed)
    results: Dict[str, dict] = {}
    for num_streams in STREAM_COUNTS:
        index_streams, value_streams = make_streams(
            rng, num_streams, N, NNZ_PER_STREAM)
        seed_fold = naive_merge_many(index_streams, value_streams)
        production = merge_many_coo(index_streams, value_streams)
        results[f"streams_{num_streams}"] = {
            "num_streams": num_streams,
            "total_entries": num_streams * NNZ_PER_STREAM,
            "seed_fold_bit_identical": bool(
                np.array_equal(seed_fold[0], production[0])
                and np.array_equal(seed_fold[1].view(np.int64),
                                   production[1].view(np.int64))),
            "merge_s": best_of(
                lambda: merge_many_coo(index_streams, value_streams),
                repeats, loops),
        }
    return results


def _run_spardl(deferred: bool):
    cluster = SimulatedCluster(RES_WORKERS)
    config = SparDLConfig(density=RES_DENSITY, num_teams=RES_TEAMS,
                          deferred_residuals=deferred)
    sync = SparDLSynchronizer(cluster, RES_ELEMENTS, config)
    start = time.perf_counter()
    for iteration in range(RES_ITERATIONS):
        gradients = {
            worker: np.random.default_rng(97 * iteration + worker)
            .normal(size=RES_ELEMENTS)
            for worker in range(RES_WORKERS)
        }
        sync.synchronize(gradients)
    wall_s = time.perf_counter() - start
    total = sync.residuals.total_residual()
    scatters = {worker: sync.residuals.store(worker).scatter_count
                for worker in range(RES_WORKERS)}
    return total, scatters, wall_s


def run_residual_benchmarks() -> Dict[str, object]:
    """Eager vs deferred residual collection on identical SparDL runs."""
    eager_total, eager_scatters, eager_wall = _run_spardl(deferred=False)
    deferred_total, deferred_scatters, deferred_wall = _run_spardl(
        deferred=True)
    return {
        "config": {"num_workers": RES_WORKERS, "num_teams": RES_TEAMS,
                   "num_elements": RES_ELEMENTS, "density": RES_DENSITY,
                   "iterations": RES_ITERATIONS},
        "total_residual_bit_identical": bool(
            np.array_equal(eager_total.view(np.int64),
                           deferred_total.view(np.int64))),
        "eager": {"wall_s": eager_wall,
                  "max_scatters_per_worker": max(eager_scatters.values()),
                  "total_scatters": sum(eager_scatters.values())},
        "deferred": {"wall_s": deferred_wall,
                     "max_scatters_per_worker": max(deferred_scatters.values()),
                     "total_scatters": sum(deferred_scatters.values())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_PR3.json",
                        help="path of the JSON trajectory point to write")
    parser.add_argument("--quick", action="store_true",
                        help="fewer timing repeats (CI smoke mode)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record timings without enforcing the gates")
    args = parser.parse_args(argv)

    repeats, loops = (2, 1) if args.quick else (5, 2)
    merge = run_merge_benchmarks(repeats=repeats, loops=loops)
    residuals = run_residual_benchmarks()

    report = {
        "bench": "PR3 k-way merge + deferred residuals",
        "config": {"n": N, "nnz_per_stream": NNZ_PER_STREAM,
                   "stream_counts": list(STREAM_COUNTS),
                   "compiled_kernels": compiled_kernels_available(),
                   "repeats": repeats, "loops": loops},
        "merge_many": merge,
        "deferred_residuals": residuals,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'streams':>8}  {'merge':>10}  seed fold")
    for entry in merge.values():
        print(f"{entry['num_streams']:>8}  {entry['merge_s'] * 1e3:8.2f}ms  "
              f"{'identical' if entry['seed_fold_bit_identical'] else 'DIFFERS'}")
    deferred = residuals["deferred"]
    eager = residuals["eager"]
    print(f"residual scatters/worker: eager {eager['max_scatters_per_worker']}"
          f" -> deferred {deferred['max_scatters_per_worker']} "
          f"(bit-identical: {residuals['total_residual_bit_identical']})")
    print(f"wrote {args.output}")

    if args.no_gate:
        return 0
    failures = [f"streams={entry['num_streams']}: diverged from the seed fold"
                for entry in merge.values()
                if not entry["seed_fold_bit_identical"]]
    if not residuals["total_residual_bit_identical"]:
        failures.append("deferred total_residual diverged from eager")
    if (residuals["deferred"]["max_scatters_per_worker"]
            > RES_ITERATIONS):
        failures.append("deferred mode exceeded one scatter per worker "
                        "per iteration")
    if failures:
        print("PERF GATE FAILED:\n  " + "\n  ".join(failures),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
