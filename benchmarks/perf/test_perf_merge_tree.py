"""Smoke gate for the k-way merge and deferred residual accumulation.

Runs the PR 3 microbenchmark harness with quick timing settings and asserts

* the production k-way merge stays bit-identical to the seed's sequential
  pairwise fold at every stream count,
* deferred residual accumulation performs exactly one scatter per worker
  per iteration while matching the eager path bit-for-bit.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from bench_merge_tree import (
    RES_ITERATIONS,
    run_merge_benchmarks,
    run_residual_benchmarks,
)


@pytest.fixture(scope="module")
def merge_results():
    return run_merge_benchmarks(repeats=1, loops=1)


@pytest.fixture(scope="module")
def residual_results():
    return run_residual_benchmarks()


def test_bit_identical_to_seed_fold(merge_results):
    for entry in merge_results.values():
        assert entry["seed_fold_bit_identical"], (
            f"merge diverged from the seed fold at "
            f"{entry['num_streams']} streams")


def test_deferred_residuals_bit_identical(residual_results):
    assert residual_results["total_residual_bit_identical"]


def test_deferred_residuals_single_scatter_per_flush(residual_results):
    deferred = residual_results["deferred"]["max_scatters_per_worker"]
    eager = residual_results["eager"]["max_scatters_per_worker"]
    assert deferred <= RES_ITERATIONS, (
        f"deferred mode used {deferred} scatters per worker for "
        f"{RES_ITERATIONS} iterations")
    assert deferred < eager
