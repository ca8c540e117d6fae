"""Shared helpers for the test-suite."""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, Tuple
from unittest import mock

import numpy as np

from repro.api import make_factory
from repro.comm import collectives as collectives_module
from repro.comm.cluster import SimulatedCluster
from repro.comm.network import ETHERNET
from repro.core import rank_pool
from repro.core import residuals as residuals_module
from repro.core import srs as srs_module
from repro.nn.module import Module
from repro.nn.parameter import assign_flat_values, flatten_gradients, flatten_values
from repro.sparse import topk as topk_module
from repro.sparse import vector as vector_module
from repro.sparse.ckernels import SEED_MIN_RUNS, SEED_RUN, SEED_SHARE, SIMD_LANES
from repro.training.cases import get_case
from repro.training.trainer import DistributedTrainer, TrainerConfig

__all__ = ["random_gradients", "numerical_gradient_check", "max_relative_error",
           "SEED_LENGTHS", "SEEDING_KINDS", "seeding_values", "selection_legs",
           "case5_trainer", "ledger", "lanes"]

#: Segment lengths around what a seeded cut's sample depends on: the run,
#: the length up to which the whole segment is read, and the one past which
#: the number of runs grows with the segment.
SEED_LENGTHS = [0, 1, 2, SEED_RUN - 1, SEED_RUN, SEED_RUN + 1,
                SEED_MIN_RUNS * SEED_RUN - 1, SEED_MIN_RUNS * SEED_RUN,
                SEED_MIN_RUNS * SEED_RUN + 1, 1500, 4099,
                (SEED_MIN_RUNS + 1) * SEED_RUN * SEED_SHARE - 1,
                (SEED_MIN_RUNS + 1) * SEED_RUN * SEED_SHARE + 5]
SEEDING_KINDS = ["heavy", "constant", "zero-heavy", "special", "sorted", "clustered"]


def seeding_values(rng: np.random.Generator, kind: str, n: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """A ``(store, addend)`` pair of ``n`` entries for the tests of seeded
    cuts, whose sum is heavy-tailed, constant (all ties), mostly zero, full
    of NaN / inf / denormals, sorted by magnitude along the index, or large
    only in one stretch of it (a sample of fixed positions is biased on the
    last two: the selection must fall back, not go wrong)."""
    if kind == "constant":
        return np.full(n, 1.5), np.full(n, -0.25)
    store, addend = rng.standard_normal(n) ** 3, rng.standard_normal(n)
    if kind == "zero-heavy":
        keep = rng.random(n) < 0.02
        return np.where(keep, store, 0.0), np.where(keep, addend, -0.0)
    if kind == "special":
        special = rng.random(n) < 0.3
        return np.where(special, rng.choice(_SPECIAL, size=n), store), addend
    if kind == "sorted":
        order = np.argsort(np.abs(store + addend))
        return store[order], addend[order]
    if kind == "clustered":
        lo = int(rng.integers(0, n + 1))
        store[lo:lo + max(n // 50, 1)] *= 1e3
    return store, addend


@contextmanager
def lanes(width: int):
    """Run ``rank_pool`` on ``width`` threads of the test's own (0: on the
    calling thread), whatever this host's affinity mask."""
    pool = [ThreadPoolExecutor(1) for _ in range(width)]
    try:
        with mock.patch.object(rank_pool, "_LANES", pool):
            yield
    finally:
        for lane in pool:
            lane.shutdown()


@contextmanager
def _numpy_statements():
    """The NumPy statements of the selection, the sparse kernels, the
    residual take, the SRS rounds and the dense All-Reduce's sums in this
    process, compiled kernels or not."""
    with mock.patch.object(topk_module, "get_kernels", lambda: None), \
            mock.patch.object(collectives_module, "get_kernels", lambda: None), \
            mock.patch.object(srs_module, "get_kernels", lambda: None), \
            mock.patch.object(residuals_module, "get_kernels", lambda: None), \
            mock.patch.object(vector_module, "_get_c_kernels", lambda: None):
        yield


def selection_legs():
    """Every way a selector can come by its candidates here, as ``{name:
    context-manager factory}``: the NumPy statements (of the SRS rounds
    and the sparse kernels too), and each variant of the fused sweep this
    CPU runs."""
    kernels = topk_module.get_kernels()
    legs = {"numpy": _numpy_statements}
    for name, lanes in SIMD_LANES.items():
        if kernels is not None and lanes <= SIMD_LANES[kernels.simd]:
            legs[name] = functools.partial(
                mock.patch.object, kernels, "scan_task",
                functools.partial(kernels.scan_task, simd=name))
    return legs


_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0, -2.0,
            5e-324, 1e-310, 1e300]


def random_gradients(num_workers: int, num_elements: int, seed: int = 0,
                     scale: float = 1.0) -> Dict[int, np.ndarray]:
    """Per-worker dense gradients with distinct seeds (deterministic)."""
    return {
        worker: scale * np.random.default_rng(seed + worker).normal(size=num_elements)
        for worker in range(num_workers)
    }


def case5_trainer(synchronizer, *, workers: int = 4, samples: int = 160,
                  seed: int = 0, cluster=None, network=ETHERNET,
                  **config) -> DistributedTrainer:
    """Case 5 trained data-parallel on ``workers`` simulated workers (or on
    ``cluster``) the way the training gates run it: ``samples`` examples,
    batch 8, the case's learning rate and momentum unless ``config``
    overrides them, timed on ``network``.  ``synchronizer`` is a spec
    string or anything else the trainer accepts."""
    case = get_case(5)
    train, test = case.build_datasets(num_samples=samples, seed=seed)
    config = {"batch_size": 8, "learning_rate": case.learning_rate,
              "momentum": case.momentum, "seed": seed, **config}
    if isinstance(synchronizer, str):
        synchronizer = make_factory(synchronizer)
    return DistributedTrainer(
        cluster or SimulatedCluster(workers), synchronizer, case.build_model,
        train, test, config=TrainerConfig(**config), network=network,
        compute_profile=case.compute_profile, case_name=case.name)


def ledger(sync) -> Tuple[np.ndarray, np.ndarray]:
    """``(sum of residuals, momentum * sum of velocities)`` of a bucketed
    synchroniser, over its exchange groups: with the step's gradients they
    are what the next global gradient plus residuals must add up to."""
    velocity = np.zeros(sync.num_elements)
    for (lo, hi), session in zip(sync.slices, sync.sessions):
        residuals = getattr(session.synchronizer, "residuals", None)
        if residuals is not None:  # (a dense bucket without momentum has none)
            velocity[lo:hi] = residuals.momentum * residuals.total_velocity()
    return sync.total_residual(), velocity


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Element-wise relative error with an absolute floor to ignore noise on
    near-zero entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), floor)
    return float((np.abs(a - b) / denom).max())


def numerical_gradient_check(model: Module, inputs: np.ndarray,
                             loss_fn: Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]],
                             targets: np.ndarray, *, eps: float = 1e-6,
                             num_checks: int = 20, seed: int = 0) -> float:
    """Compare analytic parameter gradients against central finite differences.

    Returns the maximum absolute difference over ``num_checks`` randomly
    sampled parameters (absolute, because tiny-gradient entries make relative
    errors meaningless).
    """
    model.eval()
    outputs = model.forward(inputs)
    _, grad_output = loss_fn(outputs, targets)
    model.zero_grad()
    model.backward(grad_output)

    parameters = model.parameters()
    analytic = flatten_gradients(parameters)
    values = flatten_values(parameters)
    rng = np.random.default_rng(seed)
    picks = rng.choice(values.size, size=min(num_checks, values.size), replace=False)

    worst = 0.0
    for index in picks:
        original = values[index]
        values[index] = original + eps
        assign_flat_values(parameters, values)
        loss_plus, _ = loss_fn(model.forward(inputs), targets)
        values[index] = original - eps
        assign_flat_values(parameters, values)
        loss_minus, _ = loss_fn(model.forward(inputs), targets)
        values[index] = original
        assign_flat_values(parameters, values)
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        worst = max(worst, abs(numeric - analytic[index]))
    return worst
