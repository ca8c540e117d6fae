"""End-to-end training-throughput trajectory point (PR 4).

The ROADMAP's end-to-end follow-on: train a real (scaled-down) case with
data-parallel synchronous SGD over the simulated cluster and record the
training throughput of the staged sync pipeline in its four API shapes —
flat vs per-layer bucketed gradients, constant vs DGC-style warm-up
schedule — plus the dense reference.  For every configuration the bench
records wall-clock iterations/sec (the in-process Python cost of the
pipeline, diagnostics only) and the *simulated* communication/total time
of the alpha-beta model (the quantity the paper reports), together with
the session's cumulative rounds/volume and the schedule's resolved-``k``
trajectory.  Emitted as ``BENCH_PR4.json``, uploaded by CI next to the
PR 1-3 trajectory points.

Deterministic gates (wall time is recorded but never gated):

* the facade-built flat-constant run is *identical* (same per-epoch
  losses) to a run with a legacy pre-built synchroniser — the staged
  pipeline and factory wiring change no numerics;
* warm-up really warms up: the first resolved ``k`` is denser than the
  target, the last equals it;
* bucketing moves a comparable volume (within 3x of flat — per-layer
  top-k rounding differs, wholesale inflation would be a bug) in the
  *rounds* of the flat run at equal teams: per-layer selection, shared
  exchange (``buckets=layer`` layers are segments of one SRS/SAG).

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_e2e_throughput.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.api import make_factory, make_synchronizer
from repro.comm.cluster import SimulatedCluster
from repro.comm.network import ETHERNET
from repro.training.cases import get_case
from repro.training.trainer import DistributedTrainer, TrainerConfig

NUM_WORKERS = 4
CASE_ID = 5
SAMPLES = 160  # 5 iterations per epoch at batch 8 over 4 workers
EPOCHS = 2
DENSITY = 0.02


def build_configs(warmup_steps: int):
    """The benchmarked API shapes: label -> facade spec.  ``warmup_steps``
    must fit inside the run so the trajectory reaches the target."""
    return {
        "flat-constant": f"spardl?density={DENSITY:g}",
        "flat-warmup": f"spardl?density={DENSITY:g}&schedule=warmup:{warmup_steps}",
        "bucketed-constant": f"spardl?density={DENSITY:g}&buckets=layer",
        "bucketed-warmup": (f"spardl?density={DENSITY:g}"
                            f"&schedule=warmup:{warmup_steps}&buckets=layer"),
        "dense": "dense",
    }


def _build_trainer(synchronizer_like, epochs_samples: int,
                   cluster: SimulatedCluster | None = None):
    case = get_case(CASE_ID)
    train_set, test_set = case.build_datasets(num_samples=epochs_samples, seed=0)
    if cluster is None:
        cluster = SimulatedCluster(NUM_WORKERS)
    return DistributedTrainer(
        cluster, synchronizer_like, case.build_model, train_set, test_set,
        config=TrainerConfig(batch_size=8, learning_rate=case.learning_rate,
                             momentum=case.momentum, seed=0,
                             check_consistency=True),
        network=ETHERNET, compute_profile=case.compute_profile,
        case_name=case.name,
    )


def run_config(spec: str, epochs: int, samples: int) -> dict:
    trainer = _build_trainer(make_factory(spec), samples)
    start = time.perf_counter()
    history = trainer.train(epochs)
    wall = time.perf_counter() - start
    iterations = len(history.iterations)
    session = trainer.session
    ks = [k for k in session.k_history if k is not None]
    return {
        "spec": spec,
        "iterations": iterations,
        "wall_s": wall,
        "iterations_per_sec": iterations / wall if wall else float("inf"),
        "sim_total_time_s": history.total_time,
        "sim_comm_time_s": history.total_communication_time,
        "final_train_loss": history.epochs[-1].train_loss,
        "rounds": session.cumulative_stats.rounds,
        "total_volume_elements": session.cumulative_stats.total_volume,
        "k_first": ks[0] if ks else None,
        "k_last": ks[-1] if ks else None,
        "train_losses": [epoch.train_loss for epoch in history.epochs],
    }


def run_legacy_reference(epochs: int, samples: int) -> dict:
    """The pre-facade construction path: pre-computed num_elements and a
    ready synchroniser.  Must produce the identical training run."""
    case = get_case(CASE_ID)
    cluster = SimulatedCluster(NUM_WORKERS)
    num_elements = case.build_model(0).num_parameters()
    sync = make_synchronizer("SparDL", cluster, num_elements, density=DENSITY)
    trainer = _build_trainer(sync, samples, cluster=cluster)
    history = trainer.train(epochs)
    return {"train_losses": [epoch.train_loss for epoch in history.epochs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_PR4.json",
                        help="path of the JSON trajectory point to write")
    parser.add_argument("--quick", action="store_true",
                        help="one epoch / fewer samples (CI smoke mode)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record results without enforcing the gates")
    args = parser.parse_args(argv)

    epochs = 1 if args.quick else EPOCHS
    samples = SAMPLES
    # 5 iterations per epoch: the warm-up must finish inside the run.
    warmup_steps = 3 if args.quick else 6

    results = {label: run_config(spec, epochs, samples)
               for label, spec in build_configs(warmup_steps).items()}
    legacy = run_legacy_reference(epochs, samples)

    target_k = results["flat-constant"]["k_first"]
    report = {
        "bench": "PR4 end-to-end training throughput (staged pipeline API)",
        "config": {
            "num_workers": NUM_WORKERS,
            "case": get_case(CASE_ID).name,
            "samples": samples,
            "epochs": epochs,
            "density": DENSITY,
            "warmup_steps": warmup_steps,
            "network": ETHERNET.name,
        },
        "results": results,
        "legacy_reference_losses": legacy["train_losses"],
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    for label, row in results.items():
        print(f"{label:18s} {row['iterations_per_sec']:8.1f} it/s wall | "
              f"sim total {row['sim_total_time_s']:7.3f} s "
              f"(comm {row['sim_comm_time_s']:7.3f} s) | "
              f"rounds {row['rounds']:5d} | k {row['k_first']}->{row['k_last']} | "
              f"loss {row['final_train_loss']:.4f}")
    print(f"wrote {args.output}")

    if args.no_gate:
        return 0
    failures = []
    if results["flat-constant"]["train_losses"] != legacy["train_losses"]:
        failures.append("facade flat-constant run must be identical to the "
                        "legacy pre-built-synchroniser run")
    for label in ("flat-warmup", "bucketed-warmup"):
        row = results[label]
        if not (row["k_first"] > row["k_last"]):
            failures.append(f"{label}: warm-up must start denser than it ends")
    if results["flat-warmup"]["k_last"] != target_k:
        failures.append("flat-warmup must land on the configured target k")
    flat_volume = results["flat-constant"]["total_volume_elements"]
    bucketed = results["bucketed-constant"]
    if not (flat_volume / 3 <= bucketed["total_volume_elements"] <= flat_volume * 3):
        failures.append("bucketed volume must stay within 3x of flat")
    if bucketed["rounds"] != results["flat-constant"]["rounds"]:
        failures.append("buckets=layer must share one exchange: rounds equal "
                        "to the flat run's at equal teams")
    if failures:
        print("E2E THROUGHPUT GATE FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("gates passed: facade==legacy bit-equality, warm-up trajectory, "
          "bucketed volume/rounds accounting")
    return 0


if __name__ == "__main__":
    sys.exit(main())
