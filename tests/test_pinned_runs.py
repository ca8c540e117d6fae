"""Pooled runs equal runs pinned to one CPU.

With two or more CPUs in the affinity mask the rank pool is as wide as the
mask: the ranks' error-feedback sweeps, the trainer replicas and the dense
All-Reduce's owned ranges run side by side.  Pinned to one CPU there is no
pool thread and the same task functions run through ``map`` on the calling
thread.  Each check below runs in two child processes of this file, one
with the whole mask and one pinned to its lowest CPU
(``os.sched_setaffinity``, before NumPy loads, as ``taskset -c 0`` would);
it asserts its lanes, threads and gauges there and prints the CPU count and
a digest, and the two digests must be equal.  The kernel-dependent checks
run on both kernel legs (``REPRO_DISABLE_CKERNELS``).  On one CPU both
children are pinned: the lanes and gauges are still asserted, the
comparison is trivial, so a CI runner asserts ``nproc >= 2`` before tier-1.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and sys.argv[2:] == ["pinned"]:
    # Before NumPy loads: OpenBLAS sizes its thread pool from the mask it
    # starts with.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import hashlib
import subprocess
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.comm import make_transport
from repro.comm.cluster import SimulatedCluster
from repro.comm.collectives import allreduce_rabenseifner, allreduce_ring
from repro.core import rank_pool
from repro.nn.parameter import flatten_values
from repro.obs import Tracer
from repro.training.cases import get_case
from repro.training.trainer import DistributedTrainer, TrainerConfig

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
SRC = str(Path(__file__).resolve().parents[1] / "src")


def sweep():
    """One SparDL step on sim:4: the pool as wide as the mask, the
    ``residuals.sweep_workers`` gauge saying so, and no other thread; the
    digest covers every rank's global gradient and residual store."""
    cpus = len(os.sched_getaffinity(0))
    sync = api.make("spardl?density=0.01&backend=sim:4&trace=steps", num_elements=1 << 16)
    before = threading.active_count()
    result = sync.synchronize({w: np.random.default_rng(w).standard_normal(1 << 16) ** 3
                               for w in range(4)})
    assert len(rank_pool._lanes()) == (cpus if cpus > 1 else 0), rank_pool._lanes()
    assert sync.residuals.sweep_workers == min(cpus, 4), sync.residuals.sweep_workers
    assert sync.tracer.snapshot()["residuals.sweep_workers"] == min(cpus, 4)
    started = min(cpus, 4) if cpus > 1 else 0
    assert threading.active_count() == before + started == 1 + started
    digest = hashlib.sha256()
    for w in range(4):
        digest.update(np.ascontiguousarray(result.global_gradients[w]).tobytes())
        digest.update(sync.residuals.store(w).peek().tobytes())
    return cpus, digest.hexdigest()


def training():
    """Two epochs of case 1 on sim:4, whose replicas compute and update on
    the pool (their matrix products on one OpenBLAS thread): the lanes the
    compute ran on, and the OpenBLAS thread count after training the one
    from before."""
    cpus = len(os.sched_getaffinity(0))
    blas = rank_pool._blas()  # () where NumPy has no OpenBLAS
    before = blas and blas[0]()
    case = get_case(1)
    with make_transport("sim:4") as cluster:
        trainer = DistributedTrainer(
            cluster, api.make_factory("spardl?density=0.01"), case.build_model,
            *case.build_datasets(num_samples=64, seed=0),
            config=TrainerConfig(batch_size=8, seed=0, learning_rate=case.learning_rate,
                                 momentum=case.momentum, trace="steps"),
            compute_profile=case.compute_profile)
        trainer.train(num_epochs=2)
        parameters = flatten_values(trainer.global_model.parameters())
    lanes = trainer.tracer.snapshot()["transport.run_workers_lanes{task=_worker_compute_gradient}"]
    assert lanes == min(cpus, 4), lanes
    assert (blas and blas[0]()) == before, before
    return cpus, hashlib.sha256(parameters.tobytes()).hexdigest()


def dense():
    """Rabenseifner at P = 8 and the ring at P = 6 over 2^20 + 3 elements,
    whose owned ranges are summed on the pool: ``comm.reduce_workers`` as
    wide as the mask."""
    cpus = len(os.sched_getaffinity(0))
    digest = hashlib.sha256()
    for algorithm, workers in ((allreduce_rabenseifner, 8), (allreduce_ring, 6)):
        cluster = SimulatedCluster(workers)
        cluster.install_tracer(Tracer("steps"))
        vectors = {r: np.random.default_rng(r).standard_normal((1 << 20) + 3)
                   for r in range(workers)}
        digest.update(algorithm(cluster, vectors)[0].tobytes())
        reduce_workers = cluster.tracer.snapshot()["comm.reduce_workers"]
        assert reduce_workers == min(cpus, workers), reduce_workers
    return cpus, digest.hexdigest()


CHECKS = {"sweep": sweep, "training": training, "dense": dense}


def run(check: str, pinned: bool, disable: str):
    """``(cpus, digest)`` of ``check`` in a child process of this file,
    pinned to one CPU when ``pinned``, on the NumPy kernel leg when
    ``disable``."""
    command = [sys.executable, __file__, check] + (["pinned"] if pinned else [])
    env = {**os.environ, "PYTHONPATH": SRC}
    if disable:
        env["REPRO_DISABLE_CKERNELS"] = disable
    child = subprocess.run(command, capture_output=True, text=True, timeout=300, env=env)
    assert child.returncode == 0, child.stderr
    cpus, digest = child.stdout.split()
    return int(cpus), digest


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize("check, disable", [
    ("dense", ""), ("sweep", ""), ("sweep", "1"), ("training", ""), ("training", "1")],
    ids=["dense", "sweep", "sweep-numpy", "training", "training-numpy"])
def test_pinned_run_equals_pooled_run(check, disable):
    pooled_cpus, pooled = run(check, pinned=False, disable=disable)
    pinned_cpus, pinned = run(check, pinned=True, disable=disable)
    assert pinned_cpus == 1 and pooled_cpus == CPUS
    assert pinned == pooled


if __name__ == "__main__":  # the children of test_pinned_run_equals_pooled_run
    print(*CHECKS[sys.argv[1]]())
