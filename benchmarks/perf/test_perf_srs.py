"""Smoke gate for the SRS batching benchmark and the dense crossover.

Runs the PR 2 microbenchmarks at quick settings and asserts the
deterministic properties: one SRS over all buckets emits exactly one packed
message per worker per step, costs the rounds of a single SRS, cuts the
total message count against one SRS per bucket, moves the same recorded
volume, and the simulated-time dense/sparse crossover sits where the
closed-form volume analysis puts it (``k/n = 0.5`` at a power-of-two worker
count).  Wall-clock speedups are recorded in ``BENCH_PR2.json`` but not
asserted — shared CI runners are too noisy.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from bench_srs import run_crossover_benchmark, run_srs_benchmark

from repro.core.config import DEFAULT_DENSE_CROSSOVER


@pytest.fixture(scope="module")
def srs_results():
    return run_srs_benchmark(num_workers=16, num_elements=20_000, repeats=1)


def test_packed_emits_one_message_per_worker_per_step(srs_results):
    assert srs_results["shared"]["messages_per_step"] == 16


def test_batching_reduces_message_count(srs_results):
    summary = srs_results["summary"]
    assert summary["message_reduction"] > 1.0
    assert summary["round_reduction"] == summary["buckets"]


def test_batching_preserves_recorded_volume(srs_results):
    assert srs_results["summary"]["volume_identical"]


def test_measured_crossover_matches_volume_analysis():
    crossover = run_crossover_benchmark(num_workers=8, num_elements=10_000)
    measured = crossover["measured_crossover_density"]
    assert measured is not None
    # The COO volume 4k(P-1)/P meets the dense 2n(P-1)/P at k/n = 1/2; the
    # simulated alpha-beta measurement must land there (latency rounding
    # gives it a little slack) and the shipped default must match.
    assert measured == pytest.approx(0.5, abs=0.1)
    assert DEFAULT_DENSE_CROSSOVER == pytest.approx(measured, abs=0.1)
