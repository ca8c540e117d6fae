"""Table I — communication complexity of sparse All-Reduce methods.

Regenerates Table I by printing, for each method, the analytical latency
rounds / bandwidth bounds next to the rounds and per-worker received volume
measured on the simulated cluster, for the paper's 14-worker setting and an
8-worker power-of-two setting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.complexity import table1
from repro.analysis.reporting import format_table
from repro.api import available_methods, make
from repro.comm.cluster import SimulatedCluster

NUM_ELEMENTS = 7_000
DENSITY = 0.01


def measure(num_workers: int, k: int):
    measured = {}
    for method in available_methods(num_workers):
        cluster = SimulatedCluster(num_workers)
        sync = make(method, cluster, num_elements=NUM_ELEMENTS, k=k)
        gradients = {w: np.random.default_rng(w).normal(size=NUM_ELEMENTS)
                     for w in range(num_workers)}
        result = sync.synchronize(gradients)
        measured[method] = (result.stats.rounds, result.stats.max_received)
    return measured


@pytest.mark.parametrize("num_workers", [8, 14])
def test_table1_measured_vs_analytical(num_workers, run_once):
    # k is rounded down to a multiple of P so the per-block budget is exact.
    k = max(num_workers, (int(NUM_ELEMENTS * DENSITY) // num_workers) * num_workers)
    measured = run_once(measure, num_workers, k)
    analytical = table1(num_workers, NUM_ELEMENTS, k, d=7 if num_workers == 14 else 4)

    rows = []
    for method, (rounds, volume) in measured.items():
        bound = analytical[method]
        rows.append((method, bound.latency_rounds, rounds,
                     f"[{bound.bandwidth_low:.0f}, {bound.bandwidth_high:.0f}]", volume))
    print()
    print(format_table(
        ["method", "rounds (Table I)", "rounds (measured)",
         "bandwidth bound (elems)", "max received (measured)"],
        rows, title=f"Table I reproduction: P={num_workers}, n={NUM_ELEMENTS}, k={k}"))

    # Qualitative checks mirroring the table's claims.
    spardl_rounds, spardl_volume = measured["SparDL"]
    assert spardl_rounds == analytical["SparDL"].latency_rounds
    assert spardl_volume <= analytical["SparDL"].bandwidth_high + 1e-9
    assert spardl_volume < measured["TopkA"][1]
    assert spardl_rounds < measured["TopkDSA"][0]
    assert spardl_rounds < measured["Ok-Topk"][0]
    # TopkA achieves log-P latency but pays ~2(P-1)k bandwidth.
    assert measured["TopkA"][1] <= analytical["TopkA"].bandwidth_high + 1e-9
    assert measured["TopkA"][1] >= 0.5 * analytical["TopkA"].bandwidth_high


def test_table1_spardl_sag_rows(run_once):
    """The SparDL (R-SAG) and (B-SAG) rows: team variants trade bandwidth for
    latency exactly as equations (7) and (10) describe."""
    num_workers, k = 16, 320

    def run():
        rows = {}
        for num_teams, mode in ((1, "auto"), (2, "rsag"), (4, "rsag"), (4, "bsag"), (8, "bsag")):
            cluster = SimulatedCluster(num_workers)
            sync = make("SparDL", cluster, num_elements=NUM_ELEMENTS, k=k,
                        teams=num_teams, sag=mode)
            gradients = {w: np.random.default_rng(w).normal(size=NUM_ELEMENTS)
                         for w in range(num_workers)}
            result = sync.synchronize(gradients)
            rows[(num_teams, mode)] = (result.stats.rounds, result.stats.max_received)
        return rows

    rows = run_once(run)
    table = [(f"d={d} ({mode})", rounds, volume) for (d, mode), (rounds, volume) in rows.items()]
    print()
    print(format_table(["configuration", "rounds", "max received (elems)"], table,
                       title=f"SparDL team variants: P={num_workers}, k={k}"))

    # More teams -> fewer rounds (the latency lever of Spar-All-Gather).
    assert rows[(2, "rsag")][0] < rows[(1, "auto")][0]
    assert rows[(4, "rsag")][0] < rows[(2, "rsag")][0]
    assert rows[(8, "bsag")][0] <= rows[(4, "bsag")][0]
