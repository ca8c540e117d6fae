"""Ablation — the "Optimization for SRS" of Section III-B.

The optimisation sparsifies only the blocks about to be sent at the next
transmission step instead of every held block after each summation.  Both
variants must produce consistent, equally sparse results; the optimised
variant performs strictly fewer top-k selections (counted by SRS itself:
``SRSOutput.resparsified``, the blocks it re-sparsified after a merge).  The
wall-clock of both is printed as a diagnostic, not gated: a ~10 ms best-of-3
on a shared host is noise.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.comm.cluster import SimulatedCluster
from repro.core.config import SparDLConfig
from repro.core.residuals import ResidualManager, ResidualPolicy
from repro.core.spardl import SparDLSynchronizer, make_teams
from repro.core.srs import spar_reduce_scatter
from repro.sparse.blocks import BlockLayout

NUM_WORKERS = 14
NUM_ELEMENTS = 20_000
DENSITY = 0.01
ITERATIONS = 3


def _run_variant(sparsify_all: bool):
    k = max(NUM_WORKERS, int(NUM_ELEMENTS * DENSITY))
    k_block = max(1, k // NUM_WORKERS)
    layout = BlockLayout(NUM_ELEMENTS, NUM_WORKERS)
    teams = make_teams(NUM_WORKERS, 1)
    resparsified = 0
    # Best-of-iterations filters one-off GC pauses and scheduler preemptions
    # out of the printed wall-clock.
    elapsed = float("inf")
    final_nnz = []
    for iteration in range(ITERATIONS):
        cluster = SimulatedCluster(NUM_WORKERS)
        residuals = ResidualManager(NUM_WORKERS, NUM_ELEMENTS, ResidualPolicy.GLOBAL)
        gradients = {w: np.random.default_rng(100 * iteration + w).normal(size=NUM_ELEMENTS)
                     for w in range(NUM_WORKERS)}
        start = time.perf_counter()
        residuals.apply(gradients)
        output = spar_reduce_scatter(cluster, teams, layout, k_block, residuals,
                                     sparsify_all=sparsify_all)
        elapsed = min(elapsed, time.perf_counter() - start)
        resparsified += output.resparsified
        final_nnz.append(sum(block.nnz for block in output.reduced_blocks.values()))
    return resparsified, elapsed, final_nnz


def test_srs_optimization_reduces_sparsification_work(run_once):
    def run():
        return {"optimized": _run_variant(False), "sparsify-all": _run_variant(True)}

    results = run_once(run)
    rows = [(name, blocks, seconds, nnz[0]) for name, (blocks, seconds, nnz) in results.items()]
    print()
    print(format_table(
        ["variant", "blocks re-sparsified", "SRS wall-clock best (s)", "total reduced nnz"],
        rows, title="Ablation: Optimization for SRS (Section III-B)"))

    optimized_blocks, _, optimized_nnz = results["optimized"]
    full_blocks, _, full_nnz = results["sparsify-all"]
    assert optimized_blocks < full_blocks
    # Both variants keep every reduced block within the k/P budget.
    k_block = max(1, int(NUM_ELEMENTS * DENSITY) // NUM_WORKERS)
    assert max(optimized_nnz) <= NUM_WORKERS * k_block
    assert max(full_nnz) <= NUM_WORKERS * k_block


def test_srs_optimization_preserves_consistency(run_once):
    def run():
        outcomes = {}
        for label, sparsify_all in (("optimized", False), ("sparsify-all", True)):
            cluster = SimulatedCluster(NUM_WORKERS)
            config = SparDLConfig(density=DENSITY, sparsify_all_blocks=sparsify_all)
            sync = SparDLSynchronizer(cluster, NUM_ELEMENTS, config)
            gradients = {w: np.random.default_rng(w).normal(size=NUM_ELEMENTS)
                         for w in range(NUM_WORKERS)}
            result = sync.synchronize(gradients)
            outcomes[label] = (result.is_consistent, result.info["final_nnz"],
                               result.stats.rounds)
        return outcomes

    outcomes = run_once(run)
    print()
    print(format_table(["variant", "consistent", "final nnz", "rounds"],
                       [(k, *v) for k, v in outcomes.items()],
                       title="Ablation: both SRS variants synchronise correctly"))
    assert all(consistent for consistent, _, _ in outcomes.values())
    assert outcomes["optimized"][2] == outcomes["sparsify-all"][2]
