"""Cross-backend equivalence gate and transport-protocol tests.

The multiprocess backend must be indistinguishable from the simulated
reference everywhere the algorithms can observe: synchronised gradients,
residual stores and communication accounting, bit for bit, for SparDL and
every baseline — including quantized wire formats.  These tests are the
gate.
"""

from __future__ import annotations

import dataclasses
import gc
import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

import repro
from repro.api import describe, make, parse_spec
from repro.comm import (
    Message,
    MultiprocessCluster,
    SimulatedCluster,
    Transport,
    make_transport,
    parse_backend_spec,
    transport_spec,
)
from repro.comm.faults import FaultPlan, MembershipEvent
from repro.comm.mp_backend import _CKERNELS_ENV
from repro.core.pipeline import SyncSession
from repro.data.synthetic import synthetic_image_classification
from repro.data.datasets import train_test_split
from repro.nn.models import build_mlp
from repro.nn.optim import SGD
from repro.nn.parameter import flatten_values
from repro.obs import Tracer
from repro.training.trainer import (
    DistributedTrainer,
    TrainerConfig,
    _worker_apply_update,
    _worker_compute_gradient,
    _worker_fetch_params,
)

from tests.helpers import lanes, random_gradients

NUM_ELEMENTS = 300
ITERATIONS = 3

#: The equivalence matrix: SparDL variants (teams, quantized, PRES held-back
#: discards) and all five baselines.
EQUIVALENCE_SPECS = [
    "spardl?density=0.02",
    "spardl?density=0.02&teams=2",
    "spardl?density=0.02&bits=8",
    "spardl?density=0.02&residuals=partial",
    "ok-topk?density=0.02",
    "topka?density=0.02",
    "topkdsa?density=0.02",
    "gtopk?density=0.02",
    "dense",
    "dense?bits=4",
]


def _run_trace(spec: str, cluster: Transport):
    """Synchronise ITERATIONS steps and record everything observable."""
    sync = make(spec, cluster, num_elements=NUM_ELEMENTS)
    trace = []
    for iteration in range(ITERATIONS):
        gradients = random_gradients(cluster.num_workers, NUM_ELEMENTS,
                                     seed=17 * iteration + 1)
        result = sync.synchronize(gradients)
        residuals = getattr(sync, "residuals", None)
        trace.append({
            "gradients": {worker: np.asarray(result.gradient(worker))
                          for worker in cluster.ranks},
            "residuals": {
                worker: residuals.store(worker).peek()
                for worker in cluster.ranks
            } if residuals is not None else None,
            "rounds": result.stats.rounds,
            "messages": result.stats.total_messages,
            "volume": result.stats.total_volume,
            "sent": list(result.stats.sent_per_worker),
            "received": list(result.stats.received_per_worker),
        })
    return trace


@pytest.mark.parametrize("num_workers", [2, 4])
@pytest.mark.parametrize("spec", EQUIVALENCE_SPECS)
def test_mp_backend_is_bit_identical_to_sim(spec, num_workers):
    with SimulatedCluster(num_workers) as sim:
        reference = _run_trace(spec, sim)
    with MultiprocessCluster(num_workers) as mp:
        measured = _run_trace(spec, mp)
    for step, (want, got) in enumerate(zip(reference, measured)):
        for worker in range(num_workers):
            assert np.array_equal(want["gradients"][worker],
                                  got["gradients"][worker]), \
                f"step {step}, worker {worker}: global gradients diverged"
        if want["residuals"] is not None:
            for worker in range(num_workers):
                assert np.array_equal(want["residuals"][worker],
                                      got["residuals"][worker]), \
                    f"step {step}, worker {worker}: residual stores diverged"
        for key in ("rounds", "messages", "volume", "sent", "received"):
            assert want[key] == got[key], f"step {step}: stats[{key}] diverged"


# ---------------------------------------------------------------------------
# read-only payload discipline across the process boundary (satellite)
# ---------------------------------------------------------------------------
def _assert_all_readonly(payload):
    if isinstance(payload, np.ndarray):
        assert not payload.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            payload[...] = 0.0
    elif isinstance(payload, (list, tuple)):
        for item in payload:
            _assert_all_readonly(item)


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_payloads_arrive_readonly_including_nested(backend):
    nested = [np.arange(4.0), (np.ones(3), [np.zeros(2), np.full(2, 7.0)])]
    with make_transport(backend, num_workers=2) as cluster:
        inboxes = cluster.exchange([
            Message(src=0, dst=1, payload=np.arange(5.0)),
            Message(src=1, dst=0, payload=nested),
        ])
        _assert_all_readonly(inboxes[1][0].payload)
        _assert_all_readonly(inboxes[0][0].payload)
        # The nested structure survives the trip intact.
        received = inboxes[0][0].payload
        assert np.array_equal(received[0], np.arange(4.0))
        assert np.array_equal(received[1][1][1], np.full(2, 7.0))
    # The sender's own arrays stay writable: freezing delivers read-only
    # views, never mutates the source.
    nested[0][0] = 99.0


# ---------------------------------------------------------------------------
# a round is checked whole before anything of it is admitted (satellite)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_a_round_that_raises_admits_nothing(backend):
    with make_transport(backend, num_workers=2) as cluster:
        cluster.install_tracer(Tracer("steps"))
        payload = np.arange(3.0)
        # priced by its sender: twice its payload's size
        messages = [Message(src=0, dst=1, payload=payload, size=6.0, tag="t"),
                    Message(src=1, dst=5, payload=1.0, tag="t")]
        before = cluster.tracer.snapshot()
        with pytest.raises(ValueError, match="rank 5 out of range"):
            cluster.exchange(messages)
        with pytest.raises(ValueError, match="themselves"):
            cluster.exchange([messages[0], Message(src=1, dst=1, payload=1.0)])
        assert cluster.tracer.snapshot() == before
        assert cluster.stats.rounds == 0 and cluster.stats.total_messages == 0
        # The caller's messages are as they were built: their sender's
        # size, and still carrying the sender's own (writable) array.
        assert messages[0].size == 6.0 and messages[0].payload is payload
        assert messages[0].payload.flags.writeable
        # A good round after the failed ones bills its sender's size and is
        # recorded once.
        inboxes = cluster.exchange(messages[:1])
        assert inboxes[1][0].size == 6.0 and cluster.stats.rounds == 1
        assert cluster.stats.total_volume == 6.0
        assert cluster.tracer.snapshot()["messages_total{tag=t}"] == 1


@pytest.mark.parametrize("size", [float("nan"), float("inf"), -1.0])
def test_message_rejects_a_non_finite_or_negative_size(size):
    with pytest.raises(ValueError, match="message size must be"):
        Message(src=0, dst=1, size=size)


# ---------------------------------------------------------------------------
# exchange inboxes and fault fates per tag
# ---------------------------------------------------------------------------
def test_exchange_default_tag_and_shape():
    with SimulatedCluster(3) as cluster:
        inboxes = cluster.exchange([Message(src=0, dst=1, payload=1.0),
                                    Message(src=2, dst=1, payload=2.0)])
        assert all(message.tag == "" for message in inboxes[1])
        assert {rank: {m.src: m.payload for m in inbox}
                for rank, inbox in inboxes.items()} == {1: {0: 1.0, 2: 2.0}}


def test_exchange_works_on_mp_backend():
    with MultiprocessCluster(2) as mp:
        inboxes = mp.exchange([Message(src=0, dst=1, payload=np.arange(3.0), tag="pairwise"),
                               Message(src=1, dst=0, payload=np.arange(2.0), tag="pairwise")])
        assert np.array_equal(inboxes[1][0].payload, np.arange(3.0))
        assert np.array_equal(inboxes[0][0].payload, np.arange(2.0))
        assert mp.stats.rounds == 1


def test_message_tag_separates_fault_fates():
    # FaultPlan keys each message fate by (round, attempt, src, dst, tag):
    # the same pair in the same round draws independent fates per tag.
    plan = FaultPlan(seed=5, drop_rate=0.5)
    fates = {
        tag: plan.message_fate(0, 1, 0, 1, tag)
        for tag in ("pairwise", "a", "b", "c", "d", "e", "f", "g")
    }
    assert len(set(fates.values())) > 1


# ---------------------------------------------------------------------------
# fault plans on every backend
# ---------------------------------------------------------------------------
#: Drops, delays and stragglers on every step, a crash before step 2 and a
#: join before step 4.
FAULT_PLAN = FaultPlan(seed=5, drop_rate=0.3, delay_rate=0.2,
                       straggler_rate=0.2,
                       events=[MembershipEvent(iteration=2, kind="crash"),
                               MembershipEvent(iteration=4, kind="join")])
FAULT_STEPS = 6


def _run_faulted_trace(spec: str, cluster: Transport):
    """Drive FAULT_STEPS session steps under FAULT_PLAN, membership polled
    before every step; record everything observable."""
    sync = make(spec, cluster, num_elements=NUM_ELEMENTS, trace="comm")
    cluster.install_fault_plan(FAULT_PLAN)
    session = SyncSession(sync)
    trace = []
    for iteration in range(FAULT_STEPS):
        session.poll_membership()
        workers = session.num_workers
        result = session.step(random_gradients(workers, NUM_ELEMENTS,
                                               seed=17 * iteration + 1))
        residuals = getattr(sync, "residuals", None)
        trace.append({
            "workers": workers,
            "gradients": [np.asarray(result.gradient(rank))
                          for rank in range(workers)],
            "residuals": None if residuals is None else [
                residuals.store(rank).peek() for rank in range(workers)],
            "stats": dataclasses.asdict(result.stats),
            "lost": (result.info.get("lost_messages"),
                     result.info.get("lost_mass")),
            "stragglers": FAULT_PLAN.straggler_factors(iteration, workers),
        })
    events = [(event.name, event.cat, event.args) for event in sync.tracer.events
              if event.cat in ("retry", "membership")]
    return trace, events


@pytest.mark.parametrize("num_workers", [2, 4])
@pytest.mark.parametrize("spec", ["spardl?density=0.02", "dense",
                                  "spardl?density=0.02&bits=8"])
def test_mp_faulted_sync_is_bit_identical_to_sim(spec, num_workers):
    """One fault loop in ``Transport.exchange``: under drops, delays,
    stragglers and a crash/join, ``mp`` replays ``sim`` exactly — results,
    residual stores, every ``CommStats`` counter, the lost mass and the
    fault and membership trace."""
    with SimulatedCluster(num_workers) as sim:
        reference, reference_events = _run_faulted_trace(spec, sim)
    with MultiprocessCluster(num_workers) as mp:
        measured, measured_events = _run_faulted_trace(spec, mp)
    for step, (want, got) in enumerate(zip(reference, measured)):
        assert want["workers"] == got["workers"], f"step {step}: membership"
        for rank, (a, b) in enumerate(zip(want["gradients"], got["gradients"])):
            assert np.array_equal(a, b), f"step {step}, rank {rank}: globals"
        if want["residuals"] is not None:
            for rank, (a, b) in enumerate(zip(want["residuals"],
                                              got["residuals"])):
                assert np.array_equal(a, b), f"step {step}, rank {rank}: residuals"
        for key in ("stats", "lost", "stragglers"):
            assert want[key] == got[key], f"step {step}: {key} diverged"
    assert [step["workers"] for step in reference] == (
        [num_workers] * 2 + [num_workers - 1] * 2 + [num_workers] * 2)
    # The plan really fired: drops, delays and retries on the wire, lost
    # mass on the lossy sparse path, and at P = 4 (enough messages to
    # exhaust the budget) forced deliveries of reliable messages.
    assert reference_events == measured_events
    kinds = {name for name, _, _ in reference_events}
    assert {"drop", "late", "retry", "crash", "join"} <= kinds
    assert ("lost" in kinds) == (spec != "dense")
    assert ("forced" in kinds) == (num_workers == 4)


def _seed_draw_task(context, rank):
    """The next draw of this rank's stream, kept in its context."""
    if "rng" not in context:
        context["rng"] = np.random.default_rng(context["seed_sequence"])
    return float(context["rng"].normal())


def test_worker_seed_streams_match_across_backends():
    """In-process on the calling thread, on three pool lanes, and on three
    worker processes: the same draws, and a second call continues each
    rank's stream from its persistent context."""
    runs = []
    for width in (0, 3):
        with SimulatedCluster(3) as sim, lanes(width):
            runs.append([sim.run_workers(_seed_draw_task) for _ in range(2)])
    with MultiprocessCluster(3) as mp:
        runs.append([mp.run_workers(_seed_draw_task) for _ in range(2)])
    assert runs[0] == runs[1] == runs[2]
    first, second = runs[0]
    assert all(first[rank] != second[rank] for rank in range(3))


def _log_task(context, rank, value):
    """Append ``value`` to this rank's log; returns the log so far."""
    context.setdefault("log", []).append(value)
    return rank, context["log"]


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_run_workers_checks_every_rank_before_any_task_runs(backend):
    with make_transport(backend, num_workers=2) as cluster:
        with pytest.raises(ValueError, match="rank 5 out of range"):
            cluster.run_workers(_log_task, {0: ("a",), 5: ("b",)})
        # Rank 0 ran nothing, and no reply of the failed call is left over.
        assert cluster.run_workers(_log_task, {0: ("fresh",), 1: ("fresh",)}) == {
            0: (0, ["fresh"]), 1: (1, ["fresh"])}


def _mark_then_fail_on_rank_0(context, rank):
    context["ran"] = True
    if rank == 0:
        raise ValueError("boom on rank 0")


def test_in_process_task_error_is_raised_once_no_task_runs():
    """Lane 0 holds rank 0, lane 1 ranks 1 and 2: rank 0's error is raised
    after the other lane has finished, and the cluster stays usable."""
    with SimulatedCluster(3) as sim, lanes(2):
        with pytest.raises(ValueError, match="boom on rank 0"):
            sim.run_workers(_mark_then_fail_on_rank_0)
        assert sim.run_workers(lambda context, rank: context.get("ran")) == {
            0: True, 1: True, 2: True}


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_run_workers_publishes_its_lanes_per_task(backend):
    with make_transport(backend, num_workers=3) as cluster, lanes(2):
        cluster.install_tracer(Tracer("steps"))
        cluster.run_workers(_pid_task)
        cluster.run_workers(_log_task, {1: ("x",)})
        snapshot = cluster.tracer.snapshot()
    # In-process: the pool's width, capped by the task count; on mp: the
    # ranks dispatched.
    assert snapshot["transport.run_workers_lanes{task=_pid_task}"] == (
        2 if backend == "sim" else 3)
    assert snapshot["transport.run_workers_lanes{task=_log_task}"] == 1


def _pid_task(context, rank):
    return os.getpid()


def test_mp_workers_are_real_processes():
    with MultiprocessCluster(2) as mp:
        pids = mp.run_workers(_pid_task)
    assert os.getpid() not in pids.values()
    assert pids[0] != pids[1]


def _env_task(context, rank):
    return os.environ.get(_CKERNELS_ENV, "")


def test_kernel_env_propagates_into_workers(monkeypatch):
    monkeypatch.setenv(_CKERNELS_ENV, "1")
    with MultiprocessCluster(2) as mp:
        values = mp.run_workers(_env_task)
    assert values == {0: "1", 1: "1"}


def _kernel_probe_task(context, rank):
    from repro.sparse import compiled_kernels_available
    return compiled_kernels_available()


def test_kernel_handshake_reports_worker_state():
    # Construction already performs the parent/worker kernel handshake;
    # reaching here with live workers means it agreed.
    from repro.sparse import compiled_kernels_available

    with MultiprocessCluster(2) as mp:
        states = mp.run_workers(_kernel_probe_task)
    assert set(states.values()) == {compiled_kernels_available()}


# ---------------------------------------------------------------------------
# lifecycle and deadlock containment
# ---------------------------------------------------------------------------
def _leftover_files():
    """Backing files of shared arrays still on disk (there must be none
    once ``shared_array`` has returned, however the cluster ends)."""
    return [path for directory in ("/dev/shm", tempfile.gettempdir())
            for path in glob.glob(os.path.join(directory, "repro-mp-*"))]


def _live_mappings():
    """Shared-array mappings of this process, where the platform can tell."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            return [line for line in maps if "repro-mp-" in line]
    except OSError:  # pragma: no cover - no procfs
        return []


def test_mp_close_is_idempotent_and_use_after_close_raises():
    mp = MultiprocessCluster(2)
    mp.close()
    mp.close()
    with pytest.raises(RuntimeError, match="closed"):
        mp.exchange([Message(src=0, dst=1, payload=1.0)])
    with pytest.raises(RuntimeError, match="closed"):
        mp.run_workers(_pid_task)
    # The faulted delivery loop is closed too.
    mp.install_fault_plan(FaultPlan(seed=0, drop_rate=0.5))
    with pytest.raises(RuntimeError, match="closed"):
        mp.exchange([Message(src=0, dst=1, payload=1.0)])
    assert mp.stats.rounds == 0


def _failing_task(context, rank):
    raise ValueError(f"boom on rank {rank}")


def test_worker_exception_propagates_and_tears_down():
    mp = MultiprocessCluster(2)
    mp.shared_array("state", (2, 3))
    with pytest.raises(RuntimeError, match="boom on rank"):
        mp.run_workers(_failing_task)
    with pytest.raises(RuntimeError, match="closed"):
        mp.run_workers(_pid_task)
    gc.collect()
    assert _leftover_files() == [] and _live_mappings() == []


def test_mp_resize_restarts_worker_pool():
    with MultiprocessCluster(2) as mp:
        before = mp.run_workers(_pid_task)
        mp.resize(3)
        after = mp.run_workers(_pid_task)
        assert mp.num_workers == 3
        assert len(after) == 3
        assert set(before.values()).isdisjoint(after.values())


def test_mp_resize_with_undrained_losses_raises_before_teardown():
    with MultiprocessCluster(2) as mp:
        pids = mp.run_workers(_pid_task)
        # Every attempt drops: the lossy message is lost past the budget.
        mp.install_fault_plan(FaultPlan(seed=0, drop_rate=1.0))
        mp.exchange([Message(src=0, dst=1, payload=1.0, lossy=True)])
        with pytest.raises(RuntimeError, match="undrained lost messages"):
            mp.resize(3)
        # Nothing was torn down: the same workers serve the same membership.
        assert mp.num_workers == 2
        assert mp.run_workers(_pid_task) == pids
        assert len(mp.drain_lost()) == 1
        mp.resize(3)
        assert len(mp.run_workers(_pid_task)) == 3


START_METHODS = [method for method in ("fork", "spawn")
                 if method in multiprocessing.get_all_start_methods()]


def _assert_fails_fast(cluster, call, match):
    """``call`` raises the dead-worker error within 2 s and leaves the
    cluster closed with nothing of its shared memory behind."""
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=match):
        call()
    assert time.perf_counter() - start < 2.0
    with pytest.raises(RuntimeError, match="closed"):
        cluster.run_workers(_pid_task)
    gc.collect()
    assert _leftover_files() == [] and _live_mappings() == []


@pytest.mark.parametrize("start_method", START_METHODS)
def test_worker_killed_between_calls_fails_the_next_one_at_once(start_method):
    mp = MultiprocessCluster(2, start_method=start_method)
    mp.shared_array("state", (2, 5))
    pids = mp.run_workers(_pid_task)
    os.kill(pids[1], signal.SIGKILL)
    _assert_fails_fast(mp, lambda: mp.run_workers(_pid_task),
                       r"worker 1 terminated unexpectedly \(exit code -9\)")


def _sleep_task(context, rank, seconds):
    time.sleep(seconds)
    return rank


@pytest.mark.parametrize("start_method", START_METHODS)
def test_worker_killed_during_run_workers_fails_the_call_at_once(start_method):
    # Every rank is busy for a minute; rank 1 dies 0.2 s in, while the
    # driver waits on rank 0's reply, so only rank 1's process sentinel
    # can tell.
    mp = MultiprocessCluster(3, start_method=start_method)
    mp.shared_array("state", (3, 5))
    pids = mp.run_workers(_pid_task)
    killer = threading.Timer(0.2, os.kill, (pids[1], signal.SIGKILL))
    killer.start()
    try:
        _assert_fails_fast(
            mp, lambda: mp.run_workers(
                _sleep_task, {rank: (60.0,) for rank in range(3)}),
            r"worker 1 terminated unexpectedly \(exit code -9\)")
    finally:
        killer.join(timeout=5.0)
    assert not killer.is_alive()


def test_stuck_worker_still_hits_the_deadline():
    mp = MultiprocessCluster(2, timeout=0.3)
    pids = mp.run_workers(_pid_task)
    os.kill(pids[0], signal.SIGSTOP)
    with pytest.raises(RuntimeError, match="worker 0 did not reply within"):
        mp.run_workers(_pid_task)
    with pytest.raises(RuntimeError, match="closed"):
        mp.run_workers(_pid_task)


# ---------------------------------------------------------------------------
# shared arrays
# ---------------------------------------------------------------------------
def _mark_row_task(context, rank, key, value):
    """Write ``value`` into this rank's row; report what the row held."""
    array = context["shared"][key]
    seen = float(array[rank, 0])
    array[rank] = value
    return seen


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_shared_array_is_one_memory_for_driver_and_ranks(backend):
    with make_transport(backend, num_workers=2) as cluster:
        array = cluster.shared_array("state", (2, 3))
        assert array.dtype == np.float64 and not array.any()
        assert cluster.shared_array("state", [2, 3]) is array
        with pytest.raises(ValueError, match="exists with shape"):
            cluster.shared_array("state", (2, 4))
        array[1] = 7.0  # the driver writes between two run_workers calls ...
        seen = cluster.run_workers(
            _mark_row_task, {rank: ("state", 10.0 + rank) for rank in range(2)})
        assert seen == {0: 0.0, 1: 7.0}  # ... the ranks read it, and the
        assert array.tolist() == [[10.0] * 3, [11.0] * 3]  # driver their rows
        assert cluster.shared_array("empty", (2, 0)).shape == (2, 0)


#: Two epochs of training case 1 per spec on ``sim:2`` and on ``mp:2``; the
#: final parameters must agree bit for bit (``buckets=auto`` too: its fusion
#: plan is priced, not timed, so it cannot depend on the backend), and no
#: shared-array backing file may be left behind.
_TRAIN_MP_SCRIPT = """
import glob, os, tempfile
import numpy as np
import repro.api as api
from repro.comm import make_transport
from repro.nn.parameter import flatten_values
from repro.training.cases import get_case
from repro.training.trainer import DistributedTrainer, TrainerConfig

def final_parameters(backend, spec):
    case = get_case(1)
    datasets = case.build_datasets(num_samples=96, seed=0)
    with make_transport(backend) as cluster:
        trainer = DistributedTrainer(
            cluster, api.make_factory(spec), case.build_model,
            *datasets, config=TrainerConfig(batch_size=8, seed=0,
                                            learning_rate=case.learning_rate),
            compute_profile=case.compute_profile)
        trainer.train(num_epochs=2)
        return flatten_values(trainer.global_model.parameters())

for spec in ("spardl?density=0.01", "dense",
             "spardl?density=0.01&buckets=auto"):
    reference = final_parameters("sim:2", spec)
    measured = final_parameters("mp:2", spec)
    assert np.array_equal(reference, measured), f"{spec}: mp:2 diverged from sim:2"
left = [path for directory in ("/dev/shm", tempfile.gettempdir())
        for path in glob.glob(os.path.join(directory, "repro-mp-*"))]
assert not left, left
print("mp:2 == sim:2 (spardl, dense, buckets=auto) on", reference.size,
      "parameters; no repro-mp-* file left")
"""


def test_mp_training_is_warning_free_and_leaves_nothing_behind():
    """Training on ``mp:2`` under ``python -W error``: a resource-tracker
    "leaked shared_memory" warning, an unclosed file or a mapping that
    outlives ``close()`` fails the run, as does any divergence from
    ``sim:2`` or a ``repro-mp-*`` file left in ``/dev/shm`` or the temp
    dir.  A fresh interpreter, so no warning filter of the test session
    applies."""
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error", "-c", _TRAIN_MP_SCRIPT],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert "no repro-mp-* file left" in run.stdout


@pytest.mark.parametrize("start_method", START_METHODS)
def test_shared_arrays_across_resize_and_close(start_method):
    mp = MultiprocessCluster(2, start_method=start_method)
    before = mp.shared_array("state", (2, 3))
    assert _leftover_files() == []  # unlinked as soon as all have attached
    assert len(_live_mappings()) <= 1
    mp.run_workers(_mark_row_task, {0: ("state", 1.0), 1: ("state", 2.0)})
    mp.resize(3)
    # The new membership starts without arrays; the old one is the
    # caller's to drop (still readable, no longer anybody's row).
    after = mp.shared_array("state", (3, 3))
    assert after is not before and not after.any()
    assert before.tolist() == [[1.0] * 3, [2.0] * 3]
    mp.run_workers(_mark_row_task, {rank: ("state", 5.0) for rank in range(3)})
    assert after.tolist() == [[5.0] * 3] * 3
    mp.close()
    with pytest.raises(RuntimeError, match="closed"):
        mp.shared_array("state", (3, 3))
    with pytest.raises(RuntimeError, match="closed"):
        mp.shared_array("other", (1,))
    del before, after
    gc.collect()
    assert _leftover_files() == [] and _live_mappings() == []


# ---------------------------------------------------------------------------
# backend spec strings
# ---------------------------------------------------------------------------
def test_parse_backend_spec():
    assert parse_backend_spec("sim") == ("sim", None)
    assert parse_backend_spec("mp:4") == ("mp", 4)
    assert parse_backend_spec("SIM:2") == ("sim", 2)
    for bad in ("tcp", "mp:", "mp:zero", "mp:0", "mp:-1"):
        with pytest.raises(ValueError):
            parse_backend_spec(bad)


def test_make_transport_round_trips():
    with make_transport("mp:2") as mp:
        assert isinstance(mp, MultiprocessCluster)
        assert transport_spec(mp) == "mp:2"
    sim = make_transport("sim", num_workers=5)
    assert isinstance(sim, SimulatedCluster)
    assert transport_spec(sim) == "sim:5"
    with pytest.raises(ValueError):
        make_transport("mp")  # no worker count anywhere
    with pytest.raises(ValueError):
        make_transport("mp:2", num_workers=3)  # contradictory counts


def test_api_backend_key_builds_the_transport():
    sync = make("spardl?density=0.05&backend=mp:2", num_elements=NUM_ELEMENTS)
    try:
        assert isinstance(sync.cluster, MultiprocessCluster)
        assert sync.cluster.num_workers == 2
        assert describe(sync) == "spardl?density=0.05&backend=mp:2"
        result = sync.synchronize(random_gradients(2, NUM_ELEMENTS, seed=3))
        assert result.is_consistent
    finally:
        sync.cluster.close()


def test_api_backend_key_round_trips_through_describe():
    spec = "spardl?density=0.01&backend=mp:4"
    assert parse_spec(spec).canonical() == spec
    assert describe(spec) == spec
    assert parse_spec(describe(spec)) == parse_spec(spec)


def test_api_backend_without_worker_count_needs_a_cluster():
    with pytest.raises(ValueError, match="worker count"):
        make("dense?backend=mp", num_elements=NUM_ELEMENTS)
    with SimulatedCluster(3) as sim:
        sync = make("dense?backend=sim", sim, num_elements=NUM_ELEMENTS)
        assert sync.cluster is sim
        # describe() records the *effective* backend, with its worker count.
        assert describe(sync) == "dense?backend=sim:3"


def test_api_backend_key_must_agree_with_passed_cluster():
    with SimulatedCluster(2) as sim:
        with pytest.raises(ValueError, match="backend"):
            make("dense?backend=mp:2", sim, num_elements=NUM_ELEMENTS)
        with pytest.raises(ValueError, match="backend"):
            make("dense?backend=sim:4", sim, num_elements=NUM_ELEMENTS)


def test_api_without_backend_or_cluster_fails_loudly():
    with pytest.raises(ValueError, match="cluster"):
        make("dense", num_elements=NUM_ELEMENTS)


def test_describe_keeps_sim_specs_unchanged():
    with SimulatedCluster(2) as sim:
        sync = make("spardl?density=0.05", sim, num_elements=NUM_ELEMENTS)
        assert describe(sync) == "spardl?density=0.05"


# ---------------------------------------------------------------------------
# the trainer on every transport
# ---------------------------------------------------------------------------
def _trainer(cluster, spec="spardl?density=0.1", hidden=8, **config_overrides):
    dataset = synthetic_image_classification(num_samples=48, num_classes=4,
                                             image_size=4, channels=1,
                                             seed=11)
    train, test = train_test_split(dataset, test_fraction=0.25, seed=11)

    def model_factory(seed):
        from repro.nn.layers import Flatten
        from repro.nn.module import Sequential
        return Sequential(Flatten(),
                          *build_mlp(input_dim=16, hidden_dims=[hidden],
                                     num_outputs=4, seed=seed).layers)

    from repro.api import make_factory
    config = TrainerConfig(batch_size=8, learning_rate=0.05, seed=7,
                           **config_overrides)
    return DistributedTrainer(cluster, make_factory(spec),
                              model_factory, train, test, config=config)


def _final_params(trainer):
    return flatten_values(trainer.global_model.parameters())


def _spy_on_worker_tasks(cluster):
    """Record ``(task name, args by rank, results by rank)`` of every
    ``run_workers`` call."""
    calls = []
    inner = cluster.run_workers

    def run_workers(fn, args_by_rank=None):
        results = inner(fn, args_by_rank)
        calls.append((fn.__name__, args_by_rank, results))
        return results

    cluster.run_workers = run_workers
    return calls


#: Synchroniser spec + trainer config of the mp == sim matrix.
TRAINER_CASES = {
    "plain": ("spardl?density=0.1", {}),
    "bits8": ("spardl?density=0.1&bits=8", {}),
    "dense": ("dense", {}),
    "momentum-correction": ("spardl?density=0.1&momentum=0.9", {}),
}


@pytest.mark.parametrize("case", sorted(TRAINER_CASES))
def test_mp_training_equals_sim_bit_for_bit(case):
    spec, config = TRAINER_CASES[case]
    with SimulatedCluster(2) as sim:
        reference = _trainer(sim, spec, **config)
        history_sim = reference.train(num_epochs=2)
    with MultiprocessCluster(2) as mp:
        trainer = _trainer(mp, spec, check_consistency=True, **config)
        calls = _spy_on_worker_tasks(mp)
        history_mp = trainer.train(num_epochs=2)
        mp_params = _final_params(trainer)
        # The dense vectors went through shared_array, not through tasks:
        shape = (2, trainer.num_elements)
        assert mp.shared_array("trainer.gradients", shape).any()
        assert mp.shared_array("trainer.updates", shape)[0].any()
    for name, args_by_rank, results in calls:
        if name == _worker_compute_gradient.__name__:
            assert all(type(loss) is float for loss in results.values())
        elif name == _worker_apply_update.__name__:
            assert all(type(row) is int and type(rate) is float
                       for row, rate in args_by_rank.values())
    assert np.array_equal(_final_params(reference), mp_params)
    assert ([record.loss for record in history_sim.iterations]
            == [record.loss for record in history_mp.iterations])
    assert history_sim.epochs[-1].eval_loss == history_mp.epochs[-1].eval_loss


@pytest.mark.parametrize("backend", ["sim:2", "mp:2"])
def test_global_model_is_rank_0s_replica_as_its_worker_holds_it(backend):
    """In-process the live replica itself, no copy; on ``mp`` the pickle's
    copy of the worker's replica."""
    with make_transport(backend) as cluster:
        trainer = _trainer(cluster)
        trainer.train_epoch(0, evaluate=False)
        live = cluster.run_workers(_worker_fetch_params, {0: ()})[0]
        model = trainer.global_model
    assert (model is trainer.replicas[0]) == (backend == "sim:2")
    assert np.array_equal(flatten_values(model.parameters()), live)


def _spy_on_applied_updates(monkeypatch):
    """Record the ``flat_gradient`` of every ``SGD.step`` in this process."""
    applied = []
    inner = SGD.step
    monkeypatch.setattr(SGD, "step", lambda self, flat_gradient=None, **kw: (
        applied.append(flat_gradient) or inner(self, flat_gradient, **kw)))
    return applied


@pytest.mark.parametrize("workers", [2, 3])
def test_training_hands_out_readonly_views_of_the_shared_rows(monkeypatch, workers):
    """One gradient path: ``session.step`` gets the same read-only views of
    ``trainer.gradients`` every iteration, written in place rather than
    allocated.  One update path: every rank applies a read-only view of
    the one row of ``trainer.updates`` the global was averaged into."""
    with SimulatedCluster(workers) as sim:
        trainer = _trainer(sim)
        shape = (workers, trainer.num_elements)
        shared_gradients = sim.shared_array("trainer.gradients", shape)
        shared_updates = sim.shared_array("trainer.updates", shape)
        synchronised, applied = [], _spy_on_applied_updates(monkeypatch)
        inner_step = trainer.session.step
        trainer.session.step = lambda gradients: (
            synchronised.append((gradients, dict(gradients)))
            or inner_step(gradients))
        trainer.train_epoch(0, evaluate=False)
    assert len(synchronised) > 1 and shared_gradients.any()
    assert len(applied) == workers * len(synchronised)
    for gradients, views in synchronised:
        assert gradients is synchronised[0][0]
        for rank, view in views.items():
            assert view is synchronised[0][1][rank]
            assert np.shares_memory(view, shared_gradients[rank])  # zero-copy
            _assert_all_readonly(view)
    for view in applied:
        assert np.shares_memory(view, shared_updates[0])  # averaged once
        _assert_all_readonly(view)


@pytest.mark.parametrize("backend", ["sim:2", "mp:2"])
def test_ranks_holding_different_globals_each_apply_their_own_row(backend):
    rate = 0.05
    with make_transport(backend) as cluster:
        trainer = _trainer(cluster)
        before = cluster.run_workers(_worker_fetch_params)
        inner_step = trainer.session.step
        forced = []

        def step(gradients):
            result = inner_step(gradients)
            # Rank 1 holds its own array with its own values.
            result.global_gradients[1] = 3.0 * result.global_gradients[0]
            forced.append(dict(result.global_gradients))
            return result

        trainer.session.step = step
        trainer.train_epoch(0, evaluate=False)
        after = cluster.run_workers(_worker_fetch_params)
    assert forced and all(np.count_nonzero(step[0]) for step in forced)
    for rank in range(2):
        expected = before[rank].copy()
        for step in forced:
            expected -= rate * (step[rank] / 2)
        assert np.array_equal(after[rank], expected)
    assert not np.array_equal(after[0], after[1])


def test_traced_mp_iteration_keeps_dense_vectors_off_the_pipes():
    # 10,756 parameters: one gradient is 86 KB, more than the budget of a
    # whole iteration.
    with MultiprocessCluster(2) as mp:
        trainer = _trainer(mp, hidden=512, trace="steps")
        assert 8 * trainer.num_elements > 64 * 1024
        tracer = trainer.tracer
        assert (tracer.snapshot()["mp.shared_bytes"]
                == 2 * 2 * 8 * trainer.num_elements)
        trainer.train_epoch(0, evaluate=False)
        through_pipes = tracer.snapshot()["mp.pipe_bytes{op=run}"]
        trainer.train_epoch(1, evaluate=False)
        through_pipes = tracer.snapshot()["mp.pipe_bytes{op=run}"] - through_pipes
        iterations = len(trainer.history.iterations) // 2
        assert 0 < through_pipes / iterations < 64 * 1024
        tracer.collect()
        computes = [event for event in tracer.events
                    if event.name == "run:_worker_compute_gradient"]
        assert len(computes) == 2 * 2 * iterations
        for event in computes:
            assert 0 < event.args["args_bytes"] < 1024
            assert 0 < event.args["reply_bytes"] < 1024
    snapshot = tracer.snapshot()
    assert snapshot["mp.shared_bytes"] == 0
    assert snapshot["transport.run_workers_lanes{task=_worker_compute_gradient}"] == 2


def test_mp_sync_step_sends_nothing_through_the_pipes():
    """Synchronisation runs in the driver: a SparDL step on four worker
    processes adds nothing to any ``mp.pipe_bytes{op=...}`` counter."""
    sync = make("spardl?density=0.05&backend=mp:4&trace=steps",
                num_elements=NUM_ELEMENTS)
    try:
        def pipe_bytes():
            return {key: value for key, value in sync.tracer.snapshot().items()
                    if key.startswith("mp.pipe_bytes")}

        before = pipe_bytes()
        assert before  # the trace toggle itself went through the pipes
        result = sync.synchronize(random_gradients(4, NUM_ELEMENTS, seed=5))
        assert result.is_consistent and result.stats.rounds > 0
        assert pipe_bytes() == before
    finally:
        sync.cluster.close()
