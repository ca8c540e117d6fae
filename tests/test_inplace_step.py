"""The in-place sparse step: ownership, exact warm selection, shared results.

Three contracts introduced together (see ``docs/architecture.md`` §1–§2):

* error feedback is applied *inside* the residual stores, a selection takes
  its picks out of them, and the caller's gradient arrays are never written;
* SRS phase 1 selects from the few candidates that reach each block's cut
  (remembered from the previous step, or seeded from a sample) — an
  optimisation of the exact top-k, so a synchroniser whose remembered cuts
  are wiped before every step must be bit-identical to one that keeps them;
* every rank that agrees gets the *same* read-only global gradient, and a
  step allocates O(n), not O(P*n).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.comm.cluster import SimulatedCluster
from repro.comm.faults import FaultPlan, MembershipEvent
from repro.core.config import SparDLConfig
from repro.core.pipeline import SyncSession, SyncStage
from repro.core.schedules import KSchedule
from repro.core.spardl import SparDLSynchronizer
from repro.sparse import compiled_kernels_available
from repro.sparse import topk as topk_module

NUM_ELEMENTS = 1200


def drifting_gradients(num_workers, num_elements, step, seed=0):
    """Heavy-tailed gradients that change slowly from step to step, so the
    previous cut of a block usually still admits ``k_block`` entries."""
    out = {}
    for worker in range(num_workers):
        base = np.random.default_rng(1000 * seed + worker).standard_normal(num_elements) ** 3
        noise = np.random.default_rng(7919 * (step + 1) + worker).standard_normal(num_elements)
        out[worker] = (1.0 + 0.05 * step) * base + 0.05 * noise
    return out


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def assert_same_state(warm, cold, warm_result, cold_result):
    assert warm.num_workers == cold.num_workers
    for rank in range(warm.num_workers):
        assert np.array_equal(bits(warm_result.gradient(rank)),
                              bits(cold_result.gradient(rank)))
        assert np.array_equal(bits(warm.residuals.store(rank).peek()),
                              bits(cold.residuals.store(rank).peek()))
        if warm.residuals.momentum:
            assert np.array_equal(bits(warm.residuals.velocity(rank)),
                                  bits(cold.residuals.velocity(rank)))
    assert warm_result.stats == cold_result.stats
    assert warm_result.info.get("final_nnz") == cold_result.info.get("final_nnz")


# ---------------------------------------------------------------------------
# one scenario that visits every way a step can treat the selector's state
# ---------------------------------------------------------------------------
class _DenseAt(KSchedule):
    """The wrapped schedule, except ``k = n`` (every entry is selected, and
    no segment keeps a cut) at one iteration."""

    def __init__(self, inner, iteration):
        self.inner, self.iteration = inner, iteration

    def resolve(self, iteration, num_elements):
        if iteration == self.iteration:
            return num_elements
        return self.inner.resolve(iteration, num_elements)

    def spec(self):
        return self.inner.spec()


#: teams x bits x momentum x schedule
MATRIX = list(itertools.product([1, 2], [None, 8], [0.0, 0.9],
                                ["constant", "warmup:3"]))
DENSE_STEP, CRASH_STEP, JOIN_STEP, SCENARIO_STEPS = 3, 2, 5, 8


def scenario_session(num_teams, num_bits, momentum, schedule):
    """P=6; a crash before step 2 (teams of 3 become one team of 5), a
    ``k = n`` step at 3, a join before step 5."""
    cluster = SimulatedCluster(6)
    cluster.install_fault_plan(FaultPlan(events=[
        MembershipEvent(iteration=CRASH_STEP, kind="crash", worker=1),
        MembershipEvent(iteration=JOIN_STEP, kind="join")]))
    sync = SparDLSynchronizer(cluster, NUM_ELEMENTS, SparDLConfig(
        density=0.03, num_teams=num_teams, num_bits=num_bits,
        momentum=momentum or None, schedule=schedule))
    sync.schedule = _DenseAt(sync.schedule, DENSE_STEP)
    return SyncSession(sync)


def scenario_digest(num_teams, num_bits, momentum, schedule):
    """SHA-256 over every step's globals, stores, velocities and stats."""
    session = scenario_session(num_teams, num_bits, momentum, schedule)
    sync, digest = session.synchronizer, hashlib.sha256()
    for step in range(SCENARIO_STEPS):
        session.poll_membership()
        result = session.step(drifting_gradients(session.num_workers,
                                                 NUM_ELEMENTS, step))
        for rank in range(session.num_workers):
            digest.update(bits(result.gradient(rank)).tobytes())
            digest.update(bits(sync.residuals.store(rank).peek()).tobytes())
            if sync.residuals.momentum:
                digest.update(bits(sync.residuals.velocity(rank)).tobytes())
        stats = result.stats
        digest.update(repr((stats.rounds, stats.total_volume, stats.total_messages,
                            stats.max_received, result.info.get("final_nnz"))).encode())
    return digest.hexdigest()


def matrix_digests():
    return {"compiled": compiled_kernels_available(),
            "digests": {repr(case): scenario_digest(*case) for case in MATRIX}}


# ---------------------------------------------------------------------------
# warm selection == cold selection, at synchroniser level
# ---------------------------------------------------------------------------
class TestWarmSelectionIsExact:
    @pytest.mark.parametrize("num_teams,num_bits,momentum,policy", list(
        itertools.product([1, 2], [None, 8], [0.0, 0.9],
                          ["global", "partial", "local"])))
    def test_six_steps_bit_identical_to_cold(self, num_teams, num_bits,
                                             momentum, policy):
        """The residual policy decides which procedure discards reach the
        stores (GRES at once, PRES at finalize, LRES never), so a kept cut
        meets a different store under each."""
        num_workers = 6  # not a power of two; teams of 6 and of 3
        pair = []
        for _ in range(2):
            config = SparDLConfig(density=0.03, num_teams=num_teams,
                                  num_bits=num_bits, momentum=momentum or None,
                                  residual_policy=policy)
            pair.append(SparDLSynchronizer(SimulatedCluster(num_workers),
                                           NUM_ELEMENTS, config))
        warm, cold = pair
        for step in range(6):
            gradients = drifting_gradients(num_workers, NUM_ELEMENTS, step)
            cold.selector.clear()
            assert_same_state(warm, cold, warm.synchronize(gradients),
                              cold.synchronize(gradients))
        assert len(warm.selector.cuts) == num_workers * warm.team_size

    @pytest.mark.parametrize("num_teams,num_bits,momentum,schedule", MATRIX)
    def test_kept_cuts_equal_wiped_cuts_through_churn_and_a_dense_step(
            self, num_teams, num_bits, momentum, schedule):
        warm, cold = (scenario_session(num_teams, num_bits, momentum, schedule)
                      for _ in range(2))
        sizes, kept = [], []
        for step in range(SCENARIO_STEPS):
            for session in (warm, cold):
                session.poll_membership()
            sizes.append(warm.num_workers)
            if step in (CRASH_STEP, JOIN_STEP):
                # the cuts describe the old partitioning: dropped with it
                assert warm.synchronizer.selector.cuts == {}
            gradients = drifting_gradients(warm.num_workers, NUM_ELEMENTS, step)
            cold.synchronizer.selector.clear()
            warm_result = warm.step(gradients)
            assert_same_state(warm.synchronizer, cold.synchronizer,
                              warm_result, cold.step(gradients))
            kept.append(warm_result.info["final_nnz"])
        assert sizes == [6, 6, 5, 5, 5, 6, 6, 6]
        assert kept[DENSE_STEP] == NUM_ELEMENTS > max(kept[DENSE_STEP + 1:])
        # kept cuts are remembered from step to step and seeded only when
        # the partitioning changed; wiped ones are seeded afresh every step
        selector, wiped = warm.synchronizer.selector, cold.synchronizer.selector
        assert selector.hits > selector.seeded > 0
        assert wiped.seeded > selector.seeded and wiped.seeded >= wiped.hits > 0

    def test_compiled_kernels_equal_the_numpy_reference(self):
        """The whole matrix again in a child process on the *other* kernel
        leg (``REPRO_DISABLE_CKERNELS`` flipped): fused add + scan and
        NumPy add + lazy compare must agree on every bit of every step."""
        env = dict(os.environ)
        if compiled_kernels_available():
            env["REPRO_DISABLE_CKERNELS"] = "1"
        else:
            env.pop("REPRO_DISABLE_CKERNELS", None)
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
        child = subprocess.run([sys.executable, __file__], env=env, check=True,
                               capture_output=True, text=True, timeout=300)
        other = json.loads(child.stdout)
        if other["compiled"] == compiled_kernels_available():
            pytest.skip("no C compiler: both processes ran the NumPy kernels")
        assert other["digests"] == matrix_digests()["digests"]

    @pytest.mark.parametrize("spec", ["", "&teams=2&bits=8&momentum=0.9"])
    def test_no_step_partitions_a_whole_block(self, monkeypatch, spec):
        """Guards the tests above against passing vacuously: on heavy-tailed
        (cubed-normal) gradients phase-1 selections partition a few
        candidates, not the whole block — also at step 0, whose cuts are
        seeded, and at the steps after a crash and a join wiped them."""
        sizes = []
        inner = topk_module._top_k_of_magnitude
        monkeypatch.setattr(topk_module, "_top_k_of_magnitude",
                            lambda magnitude, *rest: sizes.append(magnitude.shape[0])
                            or inner(magnitude, *rest))
        n = 1 << 14
        sync = api.make(f"spardl?density=0.01{spec}&backend=sim:4", num_elements=n)
        sync.cluster.install_fault_plan(FaultPlan(events=[
            MembershipEvent(iteration=2, kind="crash", worker=1),
            MembershipEvent(iteration=4, kind="join")]))
        session = SyncSession(sync)
        whole, seeded = [], []
        for step in range(6):
            session.poll_membership()
            before = sync.selector.seeded
            del sizes[:]
            session.step(drifting_gradients(session.num_workers, n, step))
            blocks = set(np.diff(sync.layout.edges).tolist())
            whole.append(sum(size in blocks for size in sizes))
            seeded.append(sync.selector.seeded - before)
        assert whole[0] == whole[2] == whole[4] == 0
        assert sum(whole) <= 4
        # every (rank, segment) once per partitioning: teams of 4 or 2, then
        # one team of 3 (no smaller team count divides it), then as before
        segments = 4 * sync.team_size
        assert seeded[0] == seeded[4] == segments and seeded[2] == 9
        assert sum(seeded) - 2 * segments - 9 == sync.selector.misses - sum(whole) == 0

    def test_a_sparsity_change_only_costs_a_cold_step(self):
        pair = [SparDLSynchronizer(SimulatedCluster(4), NUM_ELEMENTS,
                                   SparDLConfig(density=0.02)) for _ in range(2)]
        warm, cold = pair
        for step, k in enumerate([24, 24, 96, 96, 8, 8]):
            gradients = drifting_gradients(4, NUM_ELEMENTS, step)
            for sync in pair:
                sync.set_sparsity(k)
            cold.selector.clear()
            assert_same_state(warm, cold, warm.synchronize(gradients),
                              cold.synchronize(gradients))


# ---------------------------------------------------------------------------
# ownership
# ---------------------------------------------------------------------------
SPECS = ["spardl?density=0.02", "spardl?density=0.02&teams=2&bits=8&momentum=0.9",
         "spardl?density=0.7", "spardl?density=0.7&bits=4",
         "topka?density=0.02", "topkdsa?density=0.02",
         "gtopk?density=0.02", "oktopk?density=0.02",
         "dense?bits=8", "dense?momentum=0.9", "dense"]


class TestCallerGradientsAreNeverWritten:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_flat(self, spec, dtype):
        sync = api.make(f"{spec}{'&' if '?' in spec else '?'}backend=sim:4",
                        num_elements=NUM_ELEMENTS)
        for step in range(3):
            gradients = {rank: grad.astype(dtype) for rank, grad in
                         drifting_gradients(4, NUM_ELEMENTS, step).items()}
            kept = {rank: grad.copy() for rank, grad in gradients.items()}
            sync.synchronize(gradients)
            for rank, grad in gradients.items():
                assert grad.dtype == dtype
                assert np.array_equal(grad.view(np.uint8), kept[rank].view(np.uint8))

    def test_bucketed_views(self):
        model = _Model([("a.weight", 700), ("a.bias", 60), ("b.weight", 440)])
        sync = api.make("spardl?density=0.05&buckets=layer&momentum=0.9&backend=sim:4",
                        model=model)
        for step in range(3):
            gradients = drifting_gradients(4, NUM_ELEMENTS, step)
            kept = {rank: grad.copy() for rank, grad in gradients.items()}
            sync.synchronize(gradients)
            for rank, grad in gradients.items():
                assert np.array_equal(bits(grad), bits(kept[rank]))


class _Model:
    def __init__(self, layout):
        self._layout = layout

    def parameters(self):
        return [type("P", (), {"name": name, "size": size})()
                for name, size in self._layout]


class TestStoreLifecycle:
    def test_select_exposes_the_live_buffer_holding_g_plus_r(self):
        sync = SparDLSynchronizer(SimulatedCluster(4), NUM_ELEMENTS,
                                  SparDLConfig(density=0.02))
        session = SyncSession(sync)
        seen = {}

        def hook(stage, context):
            if stage is SyncStage.SELECT:
                for rank, corrected in context.selected.items():
                    assert np.shares_memory(corrected,
                                            sync.residuals._stores[rank]._data)
                    seen[rank] = corrected.copy()

        session.add_stage_hook(hook)
        session.step(drifting_gradients(4, NUM_ELEMENTS, 0))
        before = {rank: sync.residuals.store(rank).peek() for rank in range(4)}
        gradients = drifting_gradients(4, NUM_ELEMENTS, 1)
        session.step(gradients)
        for rank in range(4):
            assert np.array_equal(bits(seen[rank]), bits(before[rank] + gradients[rank]))

    @pytest.mark.parametrize("method", ["topka", "oktopk"])
    def test_after_selection_the_store_is_exactly_the_local_residual(self, method):
        """LRES/one-worker view: what a selection leaves behind is the
        corrected vector with the selected slots zeroed, nothing else."""
        sync = api.make(f"{method}?density=0.02&backend=sim:4",
                        num_elements=NUM_ELEMENTS)
        session = SyncSession(sync)
        selected = {}
        session.add_stage_hook(
            lambda stage, context: stage is SyncStage.SELECT
            and selected.update(context.selected))
        residual = {rank: np.zeros(NUM_ELEMENTS) for rank in range(4)}
        for step in range(3):
            gradients = drifting_gradients(4, NUM_ELEMENTS, step)
            session.step(gradients)
            for rank in range(4):
                corrected = residual[rank] + gradients[rank]
                np.testing.assert_array_equal(selected[rank].values,
                                              corrected[selected[rank].indices])
                corrected[selected[rank].indices] = 0.0
                if method == "oktopk":  # PRES also keeps end-procedure discards
                    untouched = np.setdiff1d(np.arange(NUM_ELEMENTS),
                                             sync.residuals.store(rank).peek().nonzero()[0])
                    assert np.all(corrected[untouched] == 0.0)
                    residual[rank] = sync.residuals.store(rank).peek()
                else:
                    residual[rank] = corrected
                    np.testing.assert_array_equal(
                        sync.residuals.store(rank).peek(), corrected)


class TestSharedGlobalGradient:
    @pytest.mark.parametrize("spec", ["spardl?density=0.02", "spardl?density=0.02&teams=2",
                                      "topka?density=0.02", "topkdsa?density=0.02",
                                      "gtopk?density=0.02", "oktopk?density=0.02"])
    def test_one_read_only_array_for_every_rank(self, spec):
        sync = api.make(f"{spec}&backend=sim:4", num_elements=NUM_ELEMENTS)
        result = sync.synchronize(drifting_gradients(4, NUM_ELEMENTS, 0))
        reference = result.gradient(0)
        assert all(result.gradient(rank) is reference for rank in range(4))
        assert result.is_consistent
        assert not reference.flags.writeable
        with pytest.raises(ValueError):
            reference[0] = 1.0

    def test_bucketed_concatenates_once(self):
        model = _Model([("a.weight", 700), ("a.bias", 60), ("b.weight", 440)])
        sync = api.make("spardl?density=0.05&buckets=layer&backend=sim:4", model=model)
        result = sync.synchronize(drifting_gradients(4, NUM_ELEMENTS, 0))
        reference = result.gradient(0)
        assert reference.shape == (NUM_ELEMENTS,)
        assert all(result.gradient(rank) is reference for rank in range(4))
        with pytest.raises(ValueError):
            reference[0] = 1.0

    @pytest.mark.parametrize("spec", ["spardl?density=0.02&momentum=0.9",
                                      "spardl?density=0.05&buckets=layer"])
    def test_a_kept_result_survives_later_steps(self, spec):
        """No returned buffer is reused by a later step."""
        model = _Model([("a.weight", 700), ("a.bias", 60), ("b.weight", 440)])
        sync = api.make(f"{spec}&backend=sim:4", model=model,
                        num_elements=None if "buckets" in spec else NUM_ELEMENTS)
        first = sync.synchronize(drifting_gradients(4, NUM_ELEMENTS, 0))
        snapshot = first.gradient(0).copy()
        second = sync.synchronize(drifting_gradients(4, NUM_ELEMENTS, 1))
        assert second.gradient(0) is not first.gradient(0)
        assert not np.shares_memory(second.gradient(0), first.gradient(0))
        assert np.array_equal(bits(first.gradient(0)), bits(snapshot))

    def test_a_disagreeing_rank_gets_its_own_array(self):
        from repro.core.base import SyncResult, shared_dense_gradients
        from repro.sparse.vector import SparseGradient
        same = SparseGradient(np.array([1, 4]), np.array([2.0, -3.0]), 6)
        twin = SparseGradient(np.array([1, 4]), np.array([2.0, -3.0]), 6)
        other = SparseGradient(np.array([1, 4]), np.array([2.0, -3.5]), 6)
        dense = shared_dense_gradients({0: same, 1: twin, 2: other})
        assert dense[1] is dense[0] and dense[2] is not dense[0]
        np.testing.assert_array_equal(dense[2], [0, 2, 0, 0, -3.5, 0])
        assert not SyncResult(dense, stats=None).is_consistent
        assert SyncResult({0: dense[0], 1: dense[1]}, stats=None).is_consistent
        # exact: an equal copy agrees, arrays 1e-15 apart do not
        near = dense[0] + np.array([0, 1e-15, 0, 0, 0, 0])
        assert not np.array_equal(near, dense[0])
        assert SyncResult({0: dense[0], 1: dense[0].copy()}, stats=None).is_consistent
        assert not SyncResult({0: dense[0], 1: near}, stats=None).is_consistent


# ---------------------------------------------------------------------------
# allocation guard: counts bytes, so host noise cannot move it
# ---------------------------------------------------------------------------
def _step_peak_bytes(sync, pool):
    """Peak bytes one warm step allocates beyond what is live before it."""
    for gradients in pool[:2]:
        sync.synchronize(gradients)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = sync.synchronize(pool[2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, result


class TestStepAllocatesOrderN:
    NUM_WORKERS = 8
    N = 1 << 18

    def _pool(self):
        return [drifting_gradients(self.NUM_WORKERS, self.N, step) for step in range(3)]

    def test_flat_step_stays_under_three_vectors(self):
        """Parent commit: P corrected copies + P dense globals, >= 2*P*n
        doubles.  Now: one shared dense global plus O(k*P) sparse pieces."""
        sync = api.make("spardl?density=0.01&backend=sim:8", num_elements=self.N)
        peak, _ = _step_peak_bytes(sync, self._pool())
        assert peak < 3 * self.N * 8

    def test_bucketed_step_stays_under_two_vectors_beyond_its_result(self):
        sizes = [self.N // 2, 256, self.N // 4, 256, self.N // 4 - 512]
        model = _Model([(f"p{i}", size) for i, size in enumerate(sizes)])
        sync = api.make("spardl?density=0.01&buckets=layer&teams=2&backend=sim:8",
                        model=model)
        peak, result = _step_peak_bytes(sync, self._pool())
        assert peak - result.gradient(0).nbytes < 2 * self.N * 8


if __name__ == "__main__":  # the child of test_compiled_kernels_equal_the_numpy_reference
    print(json.dumps(matrix_digests()))
