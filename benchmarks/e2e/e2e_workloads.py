"""The five workloads of the end-to-end benchmark and their seeded inputs.

Everything random comes from ``--seed`` through one
``numpy.random.default_rng(seed)`` stream (gradient pools, bucket layout);
the program under test receives only the generated arrays and a spec
string.  The training problem (dataset, initial weights, batch order) is
pinned to :data:`TRAIN_SEED`, so ``--seed`` changes nothing on the training
workloads (recorded as ``shape.seed_drives``): the last-epoch loss of so
short a run moves 15-25% between training seeds (measured over seeds
0..7), which no regression bound could resolve, while a pinned problem
reproduces its loss bit for bit.

A workload is three calls: :meth:`generate` builds the inputs (untimed),
:meth:`setup` constructs transport + synchroniser/trainer (timed; with
the first step it makes ``setup_s``) and :meth:`drive` runs the steps of
one round.
"""

from __future__ import annotations

import time
import types
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro import api
from repro.comm.transport import make_transport
from repro.core.pipeline import SyncSession
from repro.training.cases import get_case
from repro.training.trainer import DistributedTrainer, TrainerConfig

#: Selected fraction of every sparse workload (the paper's default).
DENSITY = 0.01
#: Gradient sets cycled through the steps of a sync workload.
POOL_SETS = 3
#: Weight of the component every worker shares.  Each gradient is
#: ``SHARED_WEIGHT * cube(shared) + cube(private)`` (cubed normals: heavy
#: tails, so a large entry comes from one component or the other).  The
#: weight is calibrated against the training workloads, on what
#: ``e2e_layers.SelectionOverlap`` measures at the select stage (every run
#: reports both numbers in ``shape``): neighbouring workers of ``train_sim``
#: / ``train_mp`` share 0.149 / 0.113 of the top-1% indices of their raw
#: gradients and 0.094 / 0.047 of the indices they select (gradient +
#: residual; the residuals are private, so the overlap falls from 0.25 to
#: 0.02 over 300 iterations).  0.55 gives 0.118 and 0.057 over the six
#: steps of ``flat_sparse`` (0.118 falling to 0.039).
SHARED_WEIGHT = 0.55
#: Seed of the pinned training problem (see the module docstring).
TRAIN_SEED = 0
TRAIN_EPOCHS = 2
TRAIN_CASE = 1


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark profile."""

    name: str
    elements: int
    steps: Dict[str, int]
    samples: Dict[str, int]
    batch_size: int
    #: Leading iterations of a training round left out of the timings.
    skip: int
    #: Default ``--seconds`` of one measuring run in the all-workloads mode.
    seconds: float
    #: Untraced measuring runs per workload in the all-workloads mode.
    runs: int


PROFILES = {
    "default": Profile(
        name="default", elements=1 << 20,
        steps={"flat_sparse": 6, "bucketed_stack": 3, "dense_ref": 12},
        samples={"train_sim": 640, "train_mp": 320},
        batch_size=8, skip=3, seconds=8.0, runs=3),
    "smoke": Profile(
        name="smoke", elements=1 << 13,
        steps={"flat_sparse": 2, "bucketed_stack": 1, "dense_ref": 2},
        samples={"train_sim": 12, "train_mp": 6},
        batch_size=2, skip=0, seconds=0.0, runs=0),
}


@dataclass
class Live:
    """One constructed instance of the program, ready to step."""

    session: SyncSession
    cluster: Any
    tracer: Any
    #: Wall time of the ``api.make`` call inside the set-up.
    make_s: float
    trainer: Optional[DistributedTrainer] = None

    @property
    def synchronizer(self):
        return self.session.synchronizer

    def close(self) -> None:
        self.cluster.close()


@dataclass
class Inputs:
    """Generated inputs of one workload (never timed)."""

    steps: int
    elements: int
    shape: Dict[str, Any]
    pool: List[Dict[int, np.ndarray]] = field(default_factory=list)
    model: Any = None
    datasets: Any = None
    batch_size: int = 0


def _cube(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return x * x * x


def gradient_pool(rng: np.random.Generator, workers: int,
                  n: int) -> List[Dict[int, np.ndarray]]:
    """``POOL_SETS`` sets of per-worker heavy-tailed gradients whose top-k
    index sets overlap between workers as much as those of the training
    workloads do (see :data:`SHARED_WEIGHT`): SRS/SAG merge sizes depend
    on how much the workers' selections agree."""
    pool = []
    for _ in range(POOL_SETS):
        shared = _cube(rng, n) * SHARED_WEIGHT
        pool.append({rank: shared + _cube(rng, n) for rank in range(workers)})
    return pool


def bucket_layout(rng: np.random.Generator, n: int) -> List[tuple]:
    """16 ``(name, size)`` buckets summing to ``n``: eight weight tensors
    with roughly doubling sizes (jittered by the seed), each followed by a
    small bias tensor — the shape of a real model's ``parameters()``."""
    bias = max(8, n // 1024)
    weights = 2.0 ** np.arange(8) * rng.uniform(0.85, 1.15, size=8)
    sizes = np.maximum(bias, np.floor(weights / weights.sum() * (n - 8 * bias)))
    sizes = sizes.astype(np.int64)
    sizes[-1] += n - 8 * bias - int(sizes.sum())
    layout = []
    for index, size in enumerate(sizes):
        layout.append((f"layer{index}.weight", int(size)))
        layout.append((f"layer{index}.bias", bias))
    return layout


class Workload:
    """Common surface of the five workloads."""

    name = ""
    why = ""
    spec = ""
    workers = 0
    #: Backend of the inline reference run whose per-step digests this
    #: workload must reproduce (``train_mp`` only).
    reference_backend: Optional[str] = None
    is_training = False

    def generate(self, seed: int, profile: Profile) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs, traced: bool,
              backend: Optional[str] = None) -> Live:
        raise NotImplementedError

    def drive(self, live: Live, inputs: Inputs) -> None:
        raise NotImplementedError


class SyncWorkload(Workload):
    """``SyncSession.step`` over a cycled pool of generated gradients."""

    def __init__(self, name: str, why: str, spec: str, workers: int,
                 bucketed: bool = False) -> None:
        self.name, self.why, self.workers = name, why, workers
        separator = "&" if "?" in spec else "?"
        self.spec = f"{spec}{separator}backend=sim:{workers}"
        self.bucketed = bucketed

    def generate(self, seed: int, profile: Profile) -> Inputs:
        rng = np.random.default_rng(seed)
        n = profile.elements
        shape: Dict[str, Any] = {"workers": self.workers, "elements": n,
                                 "density": DENSITY, "pool_sets": POOL_SETS,
                                 "shared_weight": SHARED_WEIGHT,
                                 "seed_drives": "gradient pools"}
        model = None
        if self.bucketed:
            layout = bucket_layout(rng, n)
            model = types.SimpleNamespace(parameters=lambda: [
                types.SimpleNamespace(name=name, size=size)
                for name, size in layout])
            shape["bucket_sizes"] = [size for _, size in layout]
            shape["seed_drives"] = "bucket layout, gradient pools"
        return Inputs(steps=profile.steps[self.name], elements=n, shape=shape,
                      pool=gradient_pool(rng, self.workers, n), model=model)

    def setup(self, inputs: Inputs, traced: bool,
              backend: Optional[str] = None) -> Live:
        spec = self.spec + ("&trace=comm" if traced else "")
        start = time.perf_counter()
        if inputs.model is not None:
            sync = api.make(spec, model=inputs.model)
        else:
            sync = api.make(spec, num_elements=inputs.elements)
        make_s = time.perf_counter() - start
        return Live(session=SyncSession(sync), cluster=sync.cluster,
                    tracer=sync.tracer, make_s=make_s)

    def drive(self, live: Live, inputs: Inputs) -> None:
        pool = inputs.pool
        for step in range(inputs.steps):
            live.session.step(pool[step % len(pool)])


class TrainWorkload(Workload):
    """``DistributedTrainer`` on the VGG-16 stand-in (case 1)."""

    is_training = True

    def __init__(self, name: str, why: str, backend: str,
                 reference_backend: Optional[str] = None) -> None:
        self.name, self.why, self.backend = name, why, backend
        self.workers = int(backend.split(":")[1])
        self.spec = f"spardl?density={DENSITY}"
        self.reference_backend = reference_backend

    def generate(self, seed: int, profile: Profile) -> Inputs:
        case = get_case(TRAIN_CASE)
        samples = profile.samples[self.name]
        datasets = case.build_datasets(num_samples=samples, seed=TRAIN_SEED)
        per_epoch = len(datasets[0]) // self.workers // profile.batch_size
        elements = case.build_model(TRAIN_SEED).num_parameters()
        return Inputs(
            steps=per_epoch * TRAIN_EPOCHS, elements=elements,
            shape={"workers": self.workers, "elements": elements,
                   "density": DENSITY, "case": case.name, "samples": samples,
                   "batch_size": profile.batch_size, "epochs": TRAIN_EPOCHS,
                   "backend": self.backend, "train_seed": TRAIN_SEED,
                   "seed_drives": "nothing (the training problem is pinned "
                                  "to train_seed)"},
            datasets=datasets, batch_size=profile.batch_size)

    def setup(self, inputs: Inputs, traced: bool,
              backend: Optional[str] = None) -> Live:
        case = get_case(TRAIN_CASE)
        make = api.make_factory(self.spec)
        make_s = [0.0]

        def factory(cluster, model, **context):
            start = time.perf_counter()
            sync = make(cluster, model, **context)
            make_s[0] = time.perf_counter() - start
            return sync

        cluster = make_transport(backend or self.backend)
        try:
            trainer = DistributedTrainer(
                cluster, factory, case.build_model, *inputs.datasets,
                config=TrainerConfig(
                    batch_size=inputs.batch_size,
                    learning_rate=case.learning_rate, momentum=case.momentum,
                    seed=TRAIN_SEED, trace="comm" if traced else "off"),
                compute_profile=case.compute_profile, case_name=case.name)
        except BaseException:
            cluster.close()
            raise
        return Live(session=trainer.session, cluster=cluster,
                    tracer=trainer.tracer, make_s=make_s[0], trainer=trainer)

    def drive(self, live: Live, inputs: Inputs) -> None:
        for epoch in range(TRAIN_EPOCHS):
            live.trainer.train_epoch(epoch, evaluate=False)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    SyncWorkload(
        "flat_sparse",
        "The paper's core path on one flat vector: residuals (select), "
        "srs+sparse kernels (exchange) and the dense re-materialisation "
        "(combine) do all the work, transport almost none.",
        f"spardl?density={DENSITY}", workers=8),
    SyncWorkload(
        "bucketed_stack",
        "The same layers as many small calls: 16 buckets with 8-bit "
        "quantisation, momentum correction and two teams, so per-call "
        "set-up, compression, SAG and bucketing glue decide the step.",
        f"spardl?density={DENSITY}&buckets=layer&bits=8&momentum=0.9&teams=2",
        workers=8, bucketed=True),
    SyncWorkload(
        "dense_ref",
        "Dense All-Reduce, the paper's baseline and the bypass workload: "
        "only collectives and transport run, so every sparse-path change "
        "must leave it flat.",
        "dense", workers=8),
    TrainWorkload(
        "train_sim",
        "What a user runs: full training iterations (compute + sync + "
        "update) in one process; forward/backward dominates, so it shows "
        "how much of a sync win survives, and carries the loss check.",
        backend="sim:4"),
    TrainWorkload(
        "train_mp",
        "The same training on two worker processes: gradients and updates "
        "cross pipes every iteration, so it is the only workload the "
        "multiprocess transport can move.",
        backend="mp:2", reference_backend="sim:2"),
)}
