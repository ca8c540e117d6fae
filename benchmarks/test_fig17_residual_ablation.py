"""Fig. 17 — impact of the residual collection algorithm (GRES / PRES / LRES).

The paper compares SparDL's global residual collection (GRES) against the
partial (PRES, Ok-Topk/gTopk-style) and local (LRES, DGC-style) policies over
120-160 training epochs, where GRES's retention of in-procedure residuals
translates into a visible accuracy gap after the learning-rate drop.

That horizon is far beyond what the scaled-down CPU runs here can reach, so
this benchmark reproduces the figure in two parts:

* the *mechanism* (quantitative): across several synchronisations of
  realistic, overlapping gradients, GRES retains strictly more discarded
  gradient mass than PRES, which retains more than LRES — i.e. only GRES is
  lossless, exactly the property the paper attributes the accuracy gap to;
* the *training runs* (qualitative): the three policies are trained for a few
  epochs under SparDL with and without SAG, the accuracy-per-epoch table of
  Fig. 17 is printed, and all runs are checked to remain stable.  The
  long-horizon accuracy separation itself is not reproduced; ROADMAP item
  20 tracks it.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_utils import MethodSpec, correlated_gradients, run_convergence
from repro.analysis.reporting import format_table
from repro.comm.cluster import SimulatedCluster
from repro.core.config import SparDLConfig
from repro.core.residuals import ResidualPolicy
from repro.core.spardl import SparDLSynchronizer

NUM_WORKERS = 14
DENSITY = 0.02
EPOCHS = 3
SAMPLES = 56

POLICIES = [("GRES", ResidualPolicy.GLOBAL), ("PRES", ResidualPolicy.PARTIAL),
            ("LRES", ResidualPolicy.LOCAL)]

VARIANTS = {
    "SparDL": dict(num_teams=1, sag_mode="auto"),
    "SparDL (R-SAG d=2)": dict(num_teams=2, sag_mode="rsag"),
    "SparDL (B-SAG d=7)": dict(num_teams=7, sag_mode="bsag"),
}


def test_fig17_residual_mass_retention(run_once):
    """GRES keeps strictly more discarded gradient mass than PRES, and PRES
    more than LRES, on identical overlapping gradients — the mechanism behind
    the convergence gap of Fig. 17."""
    def run():
        num_elements = 4000
        masses = {}
        for name, policy in POLICIES:
            cluster = SimulatedCluster(NUM_WORKERS)
            sync = SparDLSynchronizer(cluster, num_elements,
                                      SparDLConfig(density=0.01, residual_policy=policy))
            for iteration in range(3):
                gradients = correlated_gradients(NUM_WORKERS, num_elements,
                                                 seed=11 * iteration, overlap=0.7)
                sync.synchronize(gradients)
            masses[name] = float(np.abs(sync.residuals.total_residual()).sum())
        return masses

    masses = run_once(run)
    print()
    print(format_table(["policy", "retained residual mass"], list(masses.items()),
                       title="Fig. 17 mechanism: residual mass kept by each policy"))
    assert masses["GRES"] > masses["PRES"] > masses["LRES"]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_fig17_convergence_by_policy(variant, run_once):
    case_id = 1
    options = VARIANTS[variant]
    configs = [MethodSpec("SparDL", label=name, density=DENSITY,
                          residual_policy=policy, **options)
               for name, policy in POLICIES]
    histories = run_once(run_convergence, case_id, configs, NUM_WORKERS, EPOCHS, SAMPLES,
                         learning_rate=0.02)

    rows = []
    for name, _ in POLICIES:
        history = histories[name]
        accuracy_by_epoch = [record.eval_metric for record in history.epochs]
        rows.append((name, history.final_eval_loss, history.final_metric,
                     " ".join(f"{value:.3f}" for value in accuracy_by_epoch
                              if np.isfinite(value))))
    print()
    print(format_table(["policy", "final loss", "final accuracy", "accuracy per epoch"],
                       rows, title=f"Fig. 17 reproduction: {variant} (P={NUM_WORKERS})"))

    # All three policies must train stably at this scale; the long-horizon
    # accuracy gap is covered by the mass-retention mechanism test above.
    for name, _ in POLICIES:
        history = histories[name]
        assert np.isfinite(history.final_eval_loss)
        assert history.final_eval_loss < 3 * np.log(10) + 1.0
        assert len(history.epochs) == EPOCHS
    # Identical communication structure: the policy only changes what is kept
    # locally, never what is transmitted.
    times = {name: history.total_communication_time for name, history in histories.items()}
    assert max(times.values()) - min(times.values()) <= 0.05 * max(times.values()) + 1e-9
