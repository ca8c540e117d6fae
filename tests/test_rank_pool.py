"""The rank pool and the slab it sweeps: ``ResidualManager.apply`` on pinned
threads equals ``apply`` on the calling thread bit for bit, on every kernel
leg, and owns its state the way the pool needs it to."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.comm.mp_backend import MultiprocessCluster
from repro.core import rank_pool
from repro.core.residuals import ResidualManager
from repro.sparse.topk import WarmTopK

from tests.helpers import lanes, random_gradients, selection_legs


def segments(n: int, workers: int, buckets: int):
    """``(bounds, ks)`` of ``buckets`` buckets of ``workers`` blocks each
    over ``n`` entries (empty segments where ``n`` is tiny)."""
    bounds = np.linspace(0, n, buckets * workers + 1).astype(np.int64)
    return bounds, np.maximum(np.diff(bounds) // 20, 1)


def state(manager: ResidualManager, selector: WarmTopK):
    """Everything an ``apply`` may have written, comparable with ``==``."""
    return (
        {w: store._data.tobytes() for w, store in manager._stores.items()},
        None if manager._velocity is None
        else {w: v.tobytes() for w, v in manager._velocity.items()},
        dict(selector.cuts), dict(selector._reach), set(selector._loose),
        {group: tuple(a.tobytes() for a in scan)
         for group, scan in selector._scanned.items()},
        (selector.hits, selector.misses, selector.candidates,
         selector.requested, selector.seeded),
    )


def select_and_take(manager, selector, corrected, bounds, ks):
    workers = list(corrected)
    picks = selector.select_segments(workers, list(corrected.values()), bounds, ks)
    manager.take_rows(workers, picks)
    return picks.tobytes()


@pytest.mark.parametrize("leg", selection_legs())
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("buckets", [1, 16])
@pytest.mark.parametrize("workers,n", [(1, 4099), (2, 1), (2, 40_003), (3, 7),
                                       (3, 1001), (8, 513), (8, 20_001)])
def test_pooled_apply_equals_inline_apply(leg, momentum, buckets, workers, n):
    """Four steps walk the cuts through seeded, remembered, overflowed and
    cleared; after every add and every selection both sides hold the same
    bytes, cuts, candidate lists and tallies."""
    bounds, ks = segments(n, workers, buckets)
    sides = [(ResidualManager(workers, n, momentum=momentum), WarmTopK(), width)
             for width in (0, 3)]
    with selection_legs()[leg]():
        for step in range(4):
            gradients = random_gradients(workers, n, seed=10 * step)
            for grad in gradients.values():
                grad **= 3  # heavy tails: what a seeded cut is made for
            seen = []
            for manager, selector, width in sides:
                if step == 2:  # remembered cuts that everything reaches
                    for key in list(selector.cuts)[::2]:
                        selector.cuts[key] = 5e-324
                if step == 3:
                    selector.clear()
                with lanes(width):
                    corrected = manager.apply(gradients, selector, bounds, ks)
                assert manager.sweep_workers == max(min(width, workers), 1)
                after_add = state(manager, selector)
                picks = select_and_take(manager, selector, corrected, bounds, ks)
                seen.append((after_add, picks, state(manager, selector)))
            assert seen[0] == seen[1], (leg, step)
    if leg != "numpy" and n > 1000:
        assert sides[0][1].seeded and sides[0][1].hits


def test_the_real_pool_is_as_wide_as_the_mask_and_parks_between_steps():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else 1
    sync = api.make("spardl?density=0.01&backend=sim:4&trace=steps",
                    num_elements=1 << 12)
    sync.synchronize(random_gradients(4, 1 << 12))
    assert sync.residuals.sweep_workers == min(cpus, 4)
    assert sync.tracer.snapshot()["residuals.sweep_workers"] == min(cpus, 4)
    assert len(rank_pool._lanes()) == (cpus if cpus > 1 else 0)
    before = threading.active_count()
    sync.synchronize(random_gradients(4, 1 << 12, seed=9))
    assert threading.active_count() == before  # long-lived: none per step
    # one rank is never handed off
    alone = ResidualManager(1, 64)
    alone.apply(random_gradients(1, 64))
    assert alone.sweep_workers == 1


def test_ranks_are_dealt_in_contiguous_chunks_one_per_thread():
    with lanes(3):
        names, width = rank_pool.run(
            [lambda: threading.current_thread().name] * 8)
    assert width == 3
    chunks = [names[0:2], names[2:5], names[5:8]]
    assert all(len(set(chunk)) == 1 for chunk in chunks)
    assert len(set(names)) == 3
    with lanes(3):
        names, width = rank_pool.run([lambda: threading.current_thread().name] * 2)
    assert width == 2 and len(set(names)) == 2
    assert rank_pool.run([]) == ([], 1)


@pytest.mark.parametrize("width", [0, 2])
def test_a_raising_task_surfaces_once_every_task_has_finished(width):
    done = []

    def slow(rank):
        threading.Event().wait(0.05)
        done.append(rank)

    def task(rank):
        if rank == 0:
            raise KeyError(rank)
        return slow(rank)

    with lanes(width), pytest.raises(KeyError):
        rank_pool.run([lambda rank=rank: task(rank) for rank in range(4)])
    # the raiser's chunk stops at it; every other chunk ran to its end
    assert done == ([2, 3] if width else [])
    # and from apply, on the NumPy leg (the compiled leg checks shapes when
    # it plans, before anything is dispatched)
    manager, gradients = ResidualManager(4, 32), random_gradients(4, 32)
    gradients[1] = np.ones(31)
    with selection_legs()["numpy"](), lanes(width), pytest.raises(ValueError):
        manager.apply(gradients)
    # pooled, the other chunk was swept; inline, nothing after the raiser was
    assert (manager.store(3).norm() > 0) == bool(width)


def test_no_lost_update_under_more_threads_than_cores():
    """The selector is written on the calling thread only: tallies and cuts
    add up however the pool threads interleave."""
    workers, n = 8, 2048
    bounds, ks = segments(n, workers, 2)
    manager, selector = ResidualManager(workers, n, momentum=0.9), WarmTopK()
    inline, reference = ResidualManager(workers, n, momentum=0.9), WarmTopK()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with lanes(2 * (os.cpu_count() or 1) + 1):
            for step in range(40):
                gradients = random_gradients(workers, n, seed=step)
                select_and_take(manager, selector,
                                manager.apply(gradients, selector, bounds, ks),
                                bounds, ks)
                if step % 7 == 6:
                    selector.clear()
    finally:
        sys.setswitchinterval(interval)
    with lanes(0):
        for step in range(40):
            gradients = random_gradients(workers, n, seed=step)
            select_and_take(inline, reference,
                            inline.apply(gradients, reference, bounds, ks),
                            bounds, ks)
            if step % 7 == 6:
                reference.clear()
    assert state(manager, selector) == state(inline, reference)
    assert selector.hits + selector.misses == 40 * workers * (bounds.shape[0] - 1)


def _numpy_links_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas and Path("/proc/self/maps").exists()


@contextmanager
def blas_threads(count: int):
    """Hold the loaded OpenBLAS at ``count`` threads for the test; give it
    back its own count afterwards."""
    get, set_ = rank_pool._blas()
    before = get()
    set_(count)
    try:
        yield get
    finally:
        set_(before)


def _blas_thread_count(context, rank):
    return rank_pool._blas()[0]()


@pytest.mark.skipif(not _numpy_links_openblas(), reason="NumPy links no OpenBLAS")
class TestOneBlasThread:
    def test_the_openblas_numpy_loaded_is_found(self):
        blas = rank_pool._blas()
        assert blas and blas[0]() >= 1

    @pytest.mark.parametrize("raising", [False, True])
    def test_lanes_run_on_one_blas_thread_and_the_count_comes_back(self, raising):
        def task(rank):
            if raising and rank == 1:
                raise KeyError(rank)
            return get()

        with blas_threads(2) as get, lanes(2):
            if raising:
                with pytest.raises(KeyError):
                    rank_pool.run([lambda rank=rank: task(rank) for rank in range(4)])
            else:
                assert rank_pool.run([lambda rank=rank: task(rank)
                                      for rank in range(4)]) == ([1] * 4, 2)
            assert get() == 2
        with blas_threads(2) as get, lanes(0):  # the calling thread: left alone
            assert rank_pool.run([get] * 4) == ([2] * 4, 1)

    def test_overlapping_runs_never_restore_each_others_count(self):
        """Three callers, two lanes, a switch every microsecond: inside every
        task one BLAS thread, after the last run the count from before (a
        run that restored the count while another's tasks still ran would
        show them two)."""
        seen, interval = [], sys.getswitchinterval()

        def task():
            threading.Event().wait(0.001)  # another caller's run may start
            return get()

        def caller():
            for _ in range(30):
                seen.extend(rank_pool.run([task] * 3)[0])

        with blas_threads(2) as get, lanes(2):
            sys.setswitchinterval(1e-6)
            try:
                callers = [threading.Thread(target=caller) for _ in range(3)]
                for thread in callers:
                    thread.start()
                for thread in callers:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in callers)
            assert seen == [1] * (3 * 30 * 3)
            assert get() == 2


    @pytest.mark.parametrize("start_method", [method for method in ("fork", "spawn")
                                              if method in multiprocessing.get_all_start_methods()])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mp_workers_take_their_share_of_the_cpus(self, start_method, workers, monkeypatch):
        """Regression: ``mp`` workers ran OpenBLAS at its default, a thread
        per CPU each, and oversubscribed the CPUs they share."""
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        share = max(1, len(os.sched_getaffinity(0)) // workers)
        with blas_threads(share + 1), \
                MultiprocessCluster(workers, start_method=start_method) as cluster:
            assert cluster.run_workers(_blas_thread_count) == dict.fromkeys(range(workers), share)


def test_without_openblas_the_pool_runs_and_leaves_blas_alone(monkeypatch):
    monkeypatch.setattr(rank_pool, "_BLAS", None)
    monkeypatch.setattr(rank_pool, "_find_openblas", lambda: ())
    with lanes(2):
        assert rank_pool.run([lambda rank=rank: rank for rank in range(4)]) == ([0, 1, 2, 3], 2)
    assert rank_pool._BLAS == ()


class TestSlab:
    def test_stores_and_velocity_are_rows_of_one_array_each(self):
        manager = ResidualManager(5, 33, momentum=0.9)
        rows = [manager.store(w)._data for w in range(5)]
        assert all(row.base is rows[0].base for row in rows)
        assert rows[0].base.shape == (5, 33)
        velocity = [manager._velocity[w] for w in range(5)]
        assert all(v.base is velocity[0].base for v in velocity)
        assert velocity[0].base is not rows[0].base
        assert all(row.flags.c_contiguous and row.flags.writeable for row in rows)

    @pytest.mark.parametrize("num_workers,mapping", [
        (3, {0: 0, 1: 1, 2: 1, 3: 2}),   # rank 2 crashed onto rank 1
        (5, {0: 0, 1: 1, 2: 2, 3: 3}),   # rank 4 joined
    ])
    def test_remap_keeps_the_ledger_and_builds_a_new_slab(self, num_workers, mapping):
        manager, selector = ResidualManager(4, 257, momentum=0.9), WarmTopK()
        bounds, ks = segments(257, 4, 1)
        select_and_take(manager, selector, manager.apply(
            random_gradients(4, 257), selector, bounds, ks), bounds, ks)
        residual, velocity = manager.total_residual(), manager.total_velocity()
        old_rows = {w: manager.store(w).peek() for w in range(4)}
        manager.remap_workers(num_workers, mapping)
        np.testing.assert_allclose(manager.total_residual(), residual, atol=1e-9)
        np.testing.assert_allclose(manager.total_velocity(), velocity, atol=1e-9)
        rows = [manager.store(w)._data for w in range(num_workers)]
        assert all(row.base is rows[0].base for row in rows)
        assert rows[0].base.shape == (num_workers, 257)
        if num_workers == 5:
            assert not rows[4].any() and not manager._velocity[4].any()
            np.testing.assert_array_equal(rows[2], old_rows[2])
        else:
            np.testing.assert_array_equal(rows[1], old_rows[1] + old_rows[2])
        # and the new membership sweeps like any other
        selector.clear()
        with lanes(2):
            manager.apply(random_gradients(num_workers, 257, seed=5),
                          selector, *segments(257, num_workers, 1))
        assert manager.sweep_workers == 2

    def test_release_swaps_a_row_out_for_the_adopted_error(self):
        manager = ResidualManager(3, 16)
        gradients = random_gradients(3, 16)
        corrected = manager.apply(gradients)
        error = np.full(16, 0.25)
        sent = manager.release(1, error)
        assert sent is corrected[1] and sent.base is corrected[0].base
        np.testing.assert_array_equal(sent, gradients[1])
        assert manager.store(1)._data is error
        assert manager.release(2).base is sent.base and not manager.store(2)._data.any()
        # rows on and off the slab are swept together
        with lanes(2):
            after = manager.apply(gradients)
        np.testing.assert_array_equal(after[0], 2 * gradients[0])
        np.testing.assert_array_equal(after[1], gradients[1] + 0.25)
        np.testing.assert_array_equal(after[2], gradients[2])

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="no /proc")
    def test_a_manager_that_never_steps_touches_no_page(self):
        """The slab is allocated zeroed, not zero-filled: managers built only
        to be read (a bucketed stack builds one per bucket) stay unmapped."""
        def resident_mb():
            pages = int(Path("/proc/self/statm").read_text().split()[1])
            return pages * os.sysconf("SC_PAGE_SIZE") / 2**20

        before = resident_mb()
        managers = [ResidualManager(8, 1 << 20, momentum=0.9) for _ in range(4)]
        assert len(managers) == 4 and resident_mb() - before < 16  # of 512 MB


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_builds_its_own_pool():
    """``mp_backend`` forks workers from a parent whose pool threads are
    parked: the child must not queue to threads that did not come along."""
    manager = ResidualManager(4, 4096)
    gradients = random_gradients(4, 4096)
    with lanes(2):
        manager.apply(gradients)  # the parent's pool has run
        inherited = rank_pool._LANES

        def child():
            assert rank_pool._LANES is None and inherited is not None
            corrected = manager.apply(gradients)
            ok = all(np.array_equal(corrected[w], 2 * gradients[w]) for w in range(4))
            os._exit(0 if ok else 1)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(60)
        alive = process.is_alive()
        if alive:
            process.kill()
        assert not alive and process.exitcode == 0
    digest = hashlib.sha256(manager.store(0).peek().tobytes()).hexdigest()
    assert digest == hashlib.sha256(gradients[0].tobytes()).hexdigest()  # parent untouched
