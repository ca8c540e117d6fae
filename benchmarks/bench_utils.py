"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation.  The helpers here provide the two measurement modes used across
them:

* **per-update timing** (:func:`measure_per_update`): run a handful of
  synchronisations of a case-sized gradient with each method and price the
  measured rounds/volumes with the alpha-beta model at the *paper's* model
  scale.  This regenerates the per-update-time bar charts (Figs. 8, 10, 18)
  and the scalability plot (Fig. 12a).
* **convergence runs** (:func:`run_convergence`): actually train the
  scaled-down case models over the simulated cluster with each method and
  record metric-versus-simulated-time curves (Figs. 9, 11, 12b, 13, 16, 17).

Scale knobs are deliberately small so the full benchmark suite completes in
minutes on a laptop CPU; the qualitative shape (which method wins, by what
factor, where crossovers appear) is what the assertions check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api import make
from repro.comm.cluster import SimulatedCluster
from repro.comm.network import ETHERNET, NetworkProfile
from repro.core.residuals import ResidualPolicy
from repro.training.cases import get_case
from repro.training.metrics import TrainingHistory
from repro.training.trainer import DistributedTrainer, TrainerConfig

__all__ = [
    "MethodSpec",
    "PerUpdateResult",
    "correlated_gradients",
    "measure_per_update",
    "run_convergence",
    "print_per_update_table",
    "print_convergence_table",
]

#: Size of the synthetic gradient used by the per-update measurements.  The
#: bandwidth term is rescaled to the paper's model size, so this only needs to
#: be large enough for the sparsity pattern to be non-degenerate.
SIM_GRADIENT_SIZE = 4_000


@dataclass
class MethodSpec:
    """A communication method plus its SparDL-specific options."""

    name: str
    label: Optional[str] = None
    density: Optional[float] = 0.01
    k: Optional[int] = None
    num_teams: int = 1
    sag_mode: str = "auto"
    residual_policy: ResidualPolicy | str = ResidualPolicy.GLOBAL

    @property
    def display(self) -> str:
        return self.label or self.name

    def build(self, cluster: SimulatedCluster, num_elements: int):
        kwargs = {}
        if self.name.lower() != "dense":
            kwargs = dict(k=self.k, density=None if self.k else self.density)
        return make(self.name, cluster, num_elements=num_elements,
                    teams=self.num_teams, sag=self.sag_mode,
                    residuals=self.residual_policy, **kwargs)


@dataclass
class PerUpdateResult:
    """Per-update timing of one method on one case."""

    method: str
    communication_time: float
    compute_time: float
    rounds: float
    max_received: float

    @property
    def total(self) -> float:
        return self.communication_time + self.compute_time


def correlated_gradients(num_workers: int, num_elements: int, seed: int,
                         overlap: float = 0.0) -> Dict[int, np.ndarray]:
    """Per-worker gradients with a tunable degree of top-k index overlap.

    In real data-parallel training the workers' large-magnitude coordinates
    largely agree (they differentiate the same model on similar data), which
    is what makes too many teams expensive in Spar-All-Gather.  ``overlap``
    controls that agreement: a fraction ``overlap`` of every worker's
    magnitude profile comes from a shared heavy-tailed profile over a common
    coordinate ranking, the rest from worker-private heavy-tailed noise.
    ``overlap = 0`` gives independent gradients.
    """
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    rng = np.random.default_rng(seed)
    ranking = rng.permutation(num_elements)
    profile = np.zeros(num_elements)
    # Heavy-tailed shared magnitudes: a few coordinates dominate, as observed
    # for real gradients.
    profile[ranking] = (np.arange(1, num_elements + 1) ** -0.8)
    signs = rng.choice((-1.0, 1.0), size=num_elements)
    gradients = {}
    for worker in range(num_workers):
        worker_rng = np.random.default_rng(seed + 1 + worker)
        private = np.zeros(num_elements)
        private[worker_rng.permutation(num_elements)] = (np.arange(1, num_elements + 1) ** -0.8)
        scale_noise = 1.0 + 0.2 * worker_rng.normal(size=num_elements)
        gradients[worker] = signs * (overlap * profile + (1.0 - overlap) * private) * scale_noise
    return gradients


def measure_per_update(case_id: int, methods: Sequence[MethodSpec], num_workers: int,
                       network: NetworkProfile = ETHERNET, iterations: int = 3,
                       num_elements: int = SIM_GRADIENT_SIZE, seed: int = 0,
                       overlap: float = 0.0, measure_last: Optional[int] = None,
                       ) -> Dict[str, PerUpdateResult]:
    """Average per-update communication/compute time of each method.

    ``iterations`` synchronisations are run per method (stateful methods such
    as B-SAG's top-h controller and Ok-Topk's threshold calibration warm up
    over them); the reported averages cover the last ``measure_last`` of them
    (default: all).
    """
    case = get_case(case_id)
    scale = case.compute_profile.volume_scale(num_elements)
    keep = measure_last or iterations
    results: Dict[str, PerUpdateResult] = {}
    for spec in methods:
        cluster = SimulatedCluster(num_workers)
        sync = spec.build(cluster, num_elements)
        comm_times: List[float] = []
        rounds: List[float] = []
        volumes: List[float] = []
        for iteration in range(iterations):
            gradients = correlated_gradients(num_workers, num_elements,
                                             seed + 977 * iteration, overlap)
            outcome = sync.synchronize(gradients)
            comm_times.append(outcome.stats.simulated_time(network, scale))
            rounds.append(outcome.stats.rounds)
            volumes.append(outcome.stats.max_received)
        results[spec.display] = PerUpdateResult(
            method=spec.display,
            communication_time=float(np.mean(comm_times[-keep:])),
            compute_time=case.compute_profile.compute_time_per_update,
            rounds=float(np.mean(rounds[-keep:])),
            max_received=float(np.mean(volumes[-keep:])),
        )
    return results


def run_convergence(case_id: int, methods: Sequence[MethodSpec], num_workers: int,
                    epochs: int, num_samples: int = 96, batch_size: int = 8,
                    network: NetworkProfile = ETHERNET, seed: int = 0,
                    learning_rate: Optional[float] = None,
                    ) -> Dict[str, TrainingHistory]:
    """Train the case with every method and return the training histories."""
    case = get_case(case_id)
    histories: Dict[str, TrainingHistory] = {}
    for spec in methods:
        train, test = case.build_datasets(num_samples=num_samples, seed=seed)
        cluster = SimulatedCluster(num_workers)
        num_elements = case.build_model(seed).num_parameters()
        sync = spec.build(cluster, num_elements)
        trainer = DistributedTrainer(
            cluster, sync, case.build_model, train, test,
            config=TrainerConfig(batch_size=batch_size,
                                 learning_rate=learning_rate or case.learning_rate,
                                 momentum=case.momentum, seed=seed),
            network=network, compute_profile=case.compute_profile, case_name=case.name,
        )
        histories[spec.display] = trainer.train(epochs)
    return histories


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------
def print_per_update_table(title: str, results: Dict[str, PerUpdateResult]) -> None:
    from repro.analysis.reporting import format_table

    rows = [
        (name, r.communication_time, r.compute_time, r.total, r.rounds, r.max_received)
        for name, r in sorted(results.items(), key=lambda item: item[1].total)
    ]
    print()
    print(format_table(
        ["method", "comm time (s)", "comp time (s)", "per-update (s)", "rounds", "max recv (elems)"],
        rows, title=title))


def print_convergence_table(title: str, histories: Dict[str, TrainingHistory],
                            metric_name: str = "metric") -> None:
    from repro.analysis.reporting import format_table

    rows = []
    for name, history in histories.items():
        rows.append((
            name,
            history.total_time,
            history.total_communication_time,
            history.final_eval_loss,
            history.final_metric,
        ))
    rows.sort(key=lambda row: row[1])
    print()
    print(format_table(
        ["method", "train time (s)", "comm time (s)", "final loss", f"final {metric_name}"],
        rows, title=title))
