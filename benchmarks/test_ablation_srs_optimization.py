"""Ablation — the "Optimization for SRS" of Section III-B.

The optimisation sparsifies only the blocks about to be sent at the next
transmission step instead of every held block after each summation.  Both
variants must produce consistent, equally sparse results; the optimised
variant performs strictly fewer top-k selections (measured here by counting
block sparsification events).  The wall-clock of both is printed as a
diagnostic, not gated: a ~10 ms best-of-3 on a shared host is noise.
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


class _CountingResiduals(ResidualManager):
    """Residual manager that counts procedure-discard events, a direct proxy
    for the number of block sparsifications performed during SRS."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.procedure_events = 0

    def collect_procedure(self, worker, dropped, share=1.0):
        self.procedure_events += 1
        super().collect_procedure(worker, dropped, share)


def _run_variant(sparsify_all: bool):
    k = max(NUM_WORKERS, int(NUM_ELEMENTS * DENSITY))
    k_block = max(1, k // NUM_WORKERS)
    layout = BlockLayout(NUM_ELEMENTS, NUM_WORKERS)
    teams = make_teams(NUM_WORKERS, 1)
    events = 0
    # Best-of-iterations filters one-off GC pauses and scheduler preemptions
    # out of the printed wall-clock.
    elapsed = float("inf")
    final_nnz = []
    for iteration in range(ITERATIONS):
        cluster = SimulatedCluster(NUM_WORKERS)
        residuals = _CountingResiduals(NUM_WORKERS, NUM_ELEMENTS, ResidualPolicy.GLOBAL)
        gradients = {w: np.random.default_rng(100 * iteration + w).normal(size=NUM_ELEMENTS)
                     for w in range(NUM_WORKERS)}
        start = time.perf_counter()
        output = spar_reduce_scatter(cluster, teams, residuals.apply(gradients), layout,
                                     k_block, residuals, sparsify_all=sparsify_all)
        elapsed = min(elapsed, time.perf_counter() - start)
        events += residuals.procedure_events
        final_nnz.append(sum(block.nnz for block in output.reduced_blocks.values()))
    return events, elapsed, final_nnz


def test_srs_optimization_reduces_sparsification_work(run_once):
    def run():
        return {"optimized": _run_variant(False), "sparsify-all": _run_variant(True)}

    results = run_once(run)
    rows = [(name, events, seconds, nnz[0]) for name, (events, seconds, nnz) in results.items()]
    print()
    print(format_table(
        ["variant", "block sparsification events", "SRS wall-clock best (s)", "total reduced nnz"],
        rows, title="Ablation: Optimization for SRS (Section III-B)"))

    optimized_events, _, optimized_nnz = results["optimized"]
    full_events, _, full_nnz = results["sparsify-all"]
    assert optimized_events < full_events
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
