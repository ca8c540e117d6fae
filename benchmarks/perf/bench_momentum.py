"""DGC momentum-correction trajectory point (PR 10): convergence + hybrid.

Two parts, mirroring the two behaviours PR 10 ships on top of the
compressor stack:

* **convergence** — corrected vs naive momentum training-loss
  trajectories at high sparsity (density 0.01).  *Naive* momentum folds
  the momentum factor into each worker's optimizer after the sparse
  exchange, so delayed coordinates lose their velocity history and the
  bursty sparse updates are amplified by stale local velocity; DGC
  *correction* (``TrainerConfig.momentum_correction``) moves velocity
  accumulation into the residual store with momentum-factor masking.
  The sweep runs both variants over several seeds at an aggressive
  learning rate (2x the case default) where naive momentum destabilises
  while corrected stays on track;
* **hybrid volume accounting** — a per-layer bucketed run under the
  ``hybrid=dense<SIZE`` policy (small buckets dense, large buckets
  sparse+quantized), audited against the closed-form dense/sparse
  partition of the billed wire volume.

Deterministic gates (wall time is never gated; the simulation is seeded
numpy end to end and bit-identical across the compiled/fallback kernel
legs, so both trajectories are reproducible):

* **corrected beats naive** — mean final training loss of the corrected
  runs is strictly below the naive runs' at density 0.01;
* **dense closed form** — every dense bucket bills exactly the ring
  All-Reduce volume ``2 * n * (P - 1)`` per iteration;
* **sparse partition** — the hybrid run's sparse buckets bill exactly
  the same volume and rounds as the corresponding buckets of a
  pure-sparse (no ``hybrid=``) run, and the dense + sparse partition
  sums to the hybrid run's total billed volume;
* **residual conservation** — the momentum ledger ``sum_t global_t +
  residuals == sum_t inputs + m * sum_t velocity_before_t`` to 1e-9 for
  the hybrid run (momentum composes with the hybrid split without
  leaking mass; the velocity credit is the mass the recursion
  legitimately injects each step).

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_momentum.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.api import make, make_factory
from repro.comm.cluster import SimulatedCluster
from repro.comm.network import ETHERNET
from repro.nn.models import build_mlp
from repro.training.cases import get_case
from repro.training.trainer import DistributedTrainer, TrainerConfig

# -- convergence sweep ------------------------------------------------------
NUM_WORKERS = 8
DENSITY = 0.01
#: Case 5's default momentum.  At the doubled learning rate, naive momentum
#: (optimizer-side velocity on the bursty sparse aggregate) destabilises on
#: one of the three seeds while the DGC-corrected runs stay stable on all of
#: them — that stability difference is what the mean-final-loss gate pins.
CONVERGENCE_MOMENTUM = 0.5
LR_SCALE = 2.0
CASE_ID = 5
SAMPLES = 192
EPOCHS = 6
SEEDS = (0, 1, 2)
QUICK_SEEDS = (1,)

# -- hybrid volume accounting -----------------------------------------------
HYBRID_WORKERS = 4
HYBRID_MOMENTUM = 0.9
HYBRID_DENSITY = 0.05
HYBRID_THRESHOLD = 64  # biases of the MLP below go dense, weights sparse
HYBRID_BITS = 8
HYBRID_ITERATIONS = 8
HYBRID_QUICK_ITERATIONS = 3


# ---------------------------------------------------------------------------
# corrected vs naive momentum at density 0.01
# ---------------------------------------------------------------------------
def run_convergence(correction: bool, seed: int) -> dict:
    """One training run; returns the per-epoch loss trajectory."""
    case = get_case(CASE_ID)
    train_set, test_set = case.build_datasets(num_samples=SAMPLES, seed=seed)
    trainer = DistributedTrainer(
        SimulatedCluster(NUM_WORKERS), make_factory(f"spardl?density={DENSITY:g}"),
        case.build_model, train_set, test_set,
        config=TrainerConfig(batch_size=8,
                             learning_rate=case.learning_rate * LR_SCALE,
                             momentum=CONVERGENCE_MOMENTUM,
                             momentum_correction=correction,
                             seed=seed),
        network=ETHERNET, compute_profile=case.compute_profile,
        case_name=case.name,
    )
    history = trainer.train(EPOCHS)
    return {
        "momentum": CONVERGENCE_MOMENTUM,
        "momentum_correction": correction,
        "seed": seed,
        "train_losses": [epoch.train_loss for epoch in history.epochs],
        "final_train_loss": history.epochs[-1].train_loss,
        "total_volume_elements": trainer.session.cumulative_stats.total_volume,
    }


# ---------------------------------------------------------------------------
# hybrid dense/sparse billed-volume partition
# ---------------------------------------------------------------------------
def _velocity(sync, num_elements: int) -> np.ndarray:
    """Assemble the per-bucket momentum velocity stores to full length."""
    velocity = np.zeros(num_elements)
    for (lo, hi), session in zip(sync.slices, sync.sessions):
        residuals = getattr(session.synchronizer, "residuals", None)
        if residuals is not None:
            velocity[lo:hi] = residuals.total_velocity()
    return velocity


def _hybrid_gradients(num_elements: int, iteration: int):
    return {worker: np.random.default_rng(9000 + 100 * iteration + worker)
                      .normal(size=num_elements)
            for worker in range(HYBRID_WORKERS)}


def run_hybrid(iterations: int, failures: list) -> dict:
    """Drive the hybrid policy next to a pure-sparse reference per bucket and
    audit the billed volume against the closed-form dense/sparse partition."""
    flat = (f"spardl?density={HYBRID_DENSITY:g}"
            f"&momentum={HYBRID_MOMENTUM:g}&bits={HYBRID_BITS}")
    spec = f"{flat}&buckets=layer&hybrid=dense<{HYBRID_THRESHOLD}"
    model = build_mlp(32, [32], 4, seed=0)
    num_elements = model.num_parameters()
    hybrid = make(spec, SimulatedCluster(HYBRID_WORKERS), model=model)
    # What every bucket costs run sparse on its own; an exchange group of
    # the hybrid moves the volume of its buckets in the rounds of one.
    pure = [make(flat, SimulatedCluster(HYBRID_WORKERS), num_elements=size)
            for size in hybrid.bucket_sizes]
    edges = np.concatenate(([0], np.cumsum(hybrid.bucket_sizes))).tolist()

    total_input = np.zeros(num_elements)
    total_global = np.zeros(num_elements)
    velocity_credit = np.zeros(num_elements)
    per_bucket_volume = np.zeros(hybrid.num_buckets)
    per_bucket_pure = np.zeros(hybrid.num_buckets)
    methods = None
    total_volume = 0.0
    for iteration in range(iterations):
        gradients = _hybrid_gradients(num_elements, iteration)
        total_input += sum(gradients.values())
        velocity_credit += HYBRID_MOMENTUM * _velocity(hybrid, num_elements)
        result = hybrid.synchronize(gradients)
        references = [sync.synchronize({w: g[lo:hi] for w, g in gradients.items()}).stats
                      for sync, lo, hi in zip(pure, edges, edges[1:])]
        total_global += result.gradient(0)
        total_volume += result.stats.total_volume
        methods = result.info["bucket_methods"]
        for index, reference in enumerate(references):
            per_bucket_pure[index] += reference.total_volume
        for group, stats in zip(result.info["groups"], result.info["bucket_stats"]):
            # A dense bucket is a group of its own: the group's volume is
            # the bucket's.  A sparse group's volume is split as billed pure.
            pure_volume = sum(references[index].total_volume for index in group)
            for index in group:
                per_bucket_volume[index] += (
                    stats.total_volume if len(group) == 1
                    else references[index].total_volume)
            if methods[group[0]] != "Dense" and (
                    stats.total_volume != pure_volume
                    or stats.rounds != max(references[index].rounds for index in group)):
                names = [hybrid.bucket_names[index] for index in group]
                failures.append(
                    f"hybrid: sparse group {names!r} diverged from the "
                    f"pure-sparse reference at iteration {iteration} "
                    f"({stats.total_volume} vs {pure_volume} elements)")

    dense_volume = 0.0
    expected_dense = 0.0
    sparse_volume = 0.0
    buckets = []
    for index, (name, size) in enumerate(zip(hybrid.bucket_names,
                                             hybrid.bucket_sizes)):
        volume = float(per_bucket_volume[index])
        is_dense = methods[index] == "Dense"
        closed_form = 2.0 * size * (HYBRID_WORKERS - 1) * iterations
        if is_dense:
            dense_volume += volume
            expected_dense += closed_form
            if volume != closed_form:
                failures.append(
                    f"hybrid: dense bucket {name!r} billed {volume} elements, "
                    f"closed form says {closed_form}")
        else:
            sparse_volume += volume
        buckets.append({
            "name": name,
            "elements": size,
            "method": methods[index],
            "volume_elements": volume,
            "closed_form_dense_volume": closed_form if is_dense else None,
            "pure_sparse_volume": float(per_bucket_pure[index]),
        })
    if dense_volume + sparse_volume != total_volume:
        failures.append(
            f"hybrid: dense ({dense_volume}) + sparse ({sparse_volume}) "
            f"partition does not sum to the billed total ({total_volume})")

    # Momentum conservation ledger across the hybrid split: telescoping the
    # per-iteration invariant ``global_t + R_t == R_{t-1} + m*V_{t-1} + G_t``
    # gives ``sum_t global_t + R_T == sum_t G_t + m * sum_t V_{t-1}``.
    conservation_error = float(np.abs(
        total_global + hybrid.total_residual()
        - total_input - velocity_credit).max())
    if conservation_error > 1e-9:
        failures.append(f"hybrid: residual conservation violated "
                        f"({conservation_error:.2e})")

    return {
        "spec": spec,
        "pure_spec": flat,
        "num_workers": HYBRID_WORKERS,
        "iterations": iterations,
        "model_elements": num_elements,
        "buckets": buckets,
        "dense_volume_elements": dense_volume,
        "expected_dense_volume_closed_form": expected_dense,
        "sparse_volume_elements": sparse_volume,
        "total_volume_elements": total_volume,
        "dense_fraction_of_volume": dense_volume / total_volume,
        "conservation_error": conservation_error,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_PR10.json",
                        help="path of the JSON trajectory point to write")
    parser.add_argument("--quick", action="store_true",
                        help="single seed + fewer hybrid iterations (CI "
                             "smoke mode; the gates still apply)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record results without enforcing the gates")
    args = parser.parse_args(argv)

    seeds = QUICK_SEEDS if args.quick else SEEDS
    iterations = HYBRID_QUICK_ITERATIONS if args.quick else HYBRID_ITERATIONS
    failures: list = []

    runs = {}
    for correction in (False, True):
        variant = "corrected" if correction else "naive"
        runs[variant] = [run_convergence(correction, seed) for seed in seeds]
    naive_final = [run["final_train_loss"] for run in runs["naive"]]
    corrected_final = [run["final_train_loss"] for run in runs["corrected"]]
    convergence = {
        "case": get_case(CASE_ID).name,
        "num_workers": NUM_WORKERS,
        "density": DENSITY,
        "momentum": CONVERGENCE_MOMENTUM,
        "learning_rate_scale": LR_SCALE,
        "samples": SAMPLES,
        "epochs": EPOCHS,
        "seeds": list(seeds),
        "naive": runs["naive"],
        "corrected": runs["corrected"],
        "naive_mean_final_loss": float(np.mean(naive_final)),
        "corrected_mean_final_loss": float(np.mean(corrected_final)),
    }

    hybrid = run_hybrid(iterations, failures)

    report = {
        "bench": "PR10 DGC momentum correction (convergence + hybrid volume)",
        "convergence": convergence,
        "hybrid": hybrid,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    for variant in ("naive", "corrected"):
        for run in runs[variant]:
            losses = " ".join(f"{loss:.3f}" for loss in run["train_losses"])
            print(f"{variant:9s} seed {run['seed']}: {losses}")
    print(f"mean final loss: naive {convergence['naive_mean_final_loss']:.4f} "
          f"vs corrected {convergence['corrected_mean_final_loss']:.4f}")
    print(f"hybrid volume: dense {hybrid['dense_volume_elements']:.0f} "
          f"(closed form {hybrid['expected_dense_volume_closed_form']:.0f}) + "
          f"sparse {hybrid['sparse_volume_elements']:.0f} = "
          f"{hybrid['total_volume_elements']:.0f} elements | "
          f"conservation {hybrid['conservation_error']:.2e}")
    print(f"wrote {args.output}")

    if args.no_gate:
        return 0
    if not convergence["corrected_mean_final_loss"] < convergence["naive_mean_final_loss"]:
        failures.append(
            f"convergence: corrected momentum "
            f"({convergence['corrected_mean_final_loss']:.4f}) must strictly "
            f"beat naive ({convergence['naive_mean_final_loss']:.4f}) on mean "
            f"final training loss at density {DENSITY:g}")
    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
