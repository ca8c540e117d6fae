"""Unit tests for Spar-Reduce-Scatter."""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from repro.comm.cluster import SimulatedCluster
from repro.comm.faults import FaultPlan
from repro.compression.stack import CompressorStack
from repro.core import spardl as spardl_module
from repro.core.config import SparDLConfig
from repro.core.pipeline import fold_lost_messages
from repro.core.residuals import ResidualManager, ResidualPolicy
from repro.core.spardl import SparDLSynchronizer, make_teams
from repro.core.srs import spar_reduce_scatter, srs_round_numpy
from repro.sparse.blocks import BlockLayout
from repro.sparse.ckernels import get_kernels
from repro.sparse.topk import WarmTopK

from tests.helpers import random_gradients, selection_legs
from tests.references import seed_spar_reduce_scatter


def run_srs(num_workers, num_elements, k_block, *, num_teams=1, sparsify_all=False,
            policy=ResidualPolicy.GLOBAL, seed=0, bucket_sizes=None, gradients=None):
    cluster = SimulatedCluster(num_workers)
    teams = make_teams(num_workers, num_teams)
    layout = BlockLayout(num_elements, num_workers // num_teams, bucket_sizes)
    residuals = ResidualManager(num_workers, num_elements, policy)
    if gradients is None:
        gradients = random_gradients(num_workers, num_elements, seed=seed)
    residuals.apply(gradients)
    output = spar_reduce_scatter(cluster, teams, layout, k_block, residuals,
                                 sparsify_all=sparsify_all)
    return cluster, output, residuals, gradients


class TestSRSStructure:
    @pytest.mark.parametrize("num_workers", [2, 3, 4, 5, 6, 7, 8, 14])
    def test_each_worker_owns_its_rank_block(self, num_workers):
        _, output, _, _ = run_srs(num_workers, 200, 3)
        for rank in range(num_workers):
            assert output.owned_block[rank] == rank

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 6, 8, 14])
    def test_reduced_block_stays_inside_block_bounds(self, num_workers):
        _, output, _, _ = run_srs(num_workers, 300, 4)
        for rank in range(num_workers):
            lo, hi = output.layout.bound(rank)
            indices = output.reduced_blocks[rank].indices
            assert ((indices >= lo) & (indices < hi)).all()

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 6, 8, 14])
    def test_block_nnz_bounded_by_k_block(self, num_workers):
        k_block = 4
        _, output, _, _ = run_srs(num_workers, 300, k_block)
        for rank in range(num_workers):
            assert output.reduced_blocks[rank].nnz <= k_block

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 6, 8, 14, 16])
    def test_number_of_rounds_is_ceil_log2(self, num_workers):
        cluster, output, _, _ = run_srs(num_workers, 300, 4)
        expected = math.ceil(math.log2(num_workers))
        assert output.num_steps == expected
        assert cluster.stats.rounds == expected

    def test_single_worker_needs_no_communication(self):
        cluster, output, _, _ = run_srs(1, 50, 5)
        assert cluster.stats.rounds == 0
        assert output.reduced_blocks[0].nnz <= 5

    def test_bandwidth_matches_equation_2(self):
        """Each worker receives at most 2k(P-1)/P elements during SRS."""
        num_workers, num_elements, k_block = 8, 400, 5
        cluster, _, _, _ = run_srs(num_workers, num_elements, k_block)
        k = k_block * num_workers
        bound = 2 * k * (num_workers - 1) / num_workers
        assert cluster.stats.max_received <= bound + 1e-9

    def test_teams_run_concurrently(self):
        # Two teams of 4 share rounds: still ceil(log2 4) = 2 rounds.
        cluster, output, _, _ = run_srs(8, 400, 5, num_teams=2)
        assert cluster.stats.rounds == 2
        for rank in range(8):
            assert output.owned_block[rank] == rank % 4


class TestSRSCorrectness:
    @pytest.mark.parametrize("num_workers", [2, 3, 6, 8])
    def test_dense_k_reduces_exactly(self, num_workers):
        """With k_block equal to the block size, SRS is an exact (dense)
        Reduce-Scatter: every owned block equals the sum of all workers'
        blocks."""
        num_elements = num_workers * 10
        cluster = SimulatedCluster(num_workers)
        teams = make_teams(num_workers, 1)
        layout = BlockLayout(num_elements, num_workers)
        residuals = ResidualManager(num_workers, num_elements, ResidualPolicy.GLOBAL)
        gradients = random_gradients(num_workers, num_elements, seed=3)
        residuals.apply(gradients)
        output = spar_reduce_scatter(cluster, teams, layout, 10, residuals)
        total = sum(gradients.values())
        for rank in range(num_workers):
            lo, hi = layout.bound(rank)
            np.testing.assert_allclose(output.reduced_blocks[rank].to_dense()[lo:hi],
                                       total[lo:hi], atol=1e-12)

    @pytest.mark.parametrize("num_workers", [2, 5, 6, 8, 14])
    @pytest.mark.parametrize("sparsify_all", [False, True])
    def test_conservation_with_global_residuals(self, num_workers, sparsify_all):
        """Reduced blocks plus all residuals reconstruct the total gradient."""
        num_elements = 120
        _, output, residuals, gradients = run_srs(num_workers, num_elements, 2,
                                                  sparsify_all=sparsify_all)
        total = sum(gradients.values())
        reconstructed = residuals.total_residual()
        for rank in range(num_workers):
            reconstructed = reconstructed + output.reduced_blocks[rank].to_dense()
        np.testing.assert_allclose(reconstructed, total, atol=1e-9)

    def test_optimized_and_unoptimized_hold_same_owned_blocks_structure(self):
        _, fast, _, _ = run_srs(6, 200, 3, sparsify_all=False, seed=7)
        _, slow, _, _ = run_srs(6, 200, 3, sparsify_all=True, seed=7)
        for rank in range(6):
            assert fast.reduced_blocks[rank].nnz <= 3
            assert slow.reduced_blocks[rank].nnz <= 3

    def test_max_bag_nnz_never_exceeds_bag_capacity_times_k(self):
        num_workers, k_block = 6, 3
        _, output, _, _ = run_srs(num_workers, 300, k_block)
        capacities = [2, 2, 1]  # bag sizes sent at steps 1..3 for 6 workers: E=2, 2, 1
        for step_max, capacity in zip(output.max_bag_nnz_per_step, capacities):
            assert step_max <= capacity * k_block


class TestSRSWireFormat:
    """Every bag travels as one batched ``PackedBags`` message."""

    @pytest.mark.parametrize("num_workers", [2, 3, 5, 6, 8, 14])
    def test_packed_emits_one_message_per_worker_per_step(self, num_workers):
        cluster, output, _, _ = run_srs(num_workers, 300, 4)
        assert cluster.stats.total_messages == num_workers * output.num_steps


class TestSRSOverBuckets:
    """One SRS over a gradient that concatenates separately selected
    buckets: every bucket is a set of segments of the block layout, the
    result is that of one SRS per bucket, the rounds are those of one."""

    SIZES = (130, 1, 47, 2, 120)  # with tensors shorter than the team
    BUDGETS = (3, 1, 2, 1, 4)     # per segment, bucket by bucket

    @pytest.mark.parametrize("num_workers,num_teams", [(2, 1), (5, 1), (6, 2), (8, 2), (8, 1)])
    @pytest.mark.parametrize("sparsify_all", [False, True])
    def test_equals_one_srs_per_bucket(self, num_workers, num_teams, sparsify_all):
        team_size = num_workers // num_teams
        total = sum(self.SIZES)
        gradients = random_gradients(num_workers, total, seed=13)
        cluster, fused, fused_res, _ = run_srs(
            num_workers, total, np.repeat(self.BUDGETS, team_size),
            num_teams=num_teams, sparsify_all=sparsify_all,
            bucket_sizes=self.SIZES, gradients=gradients)
        residual = fused_res.total_residual()
        lo = 0
        for size, budget in zip(self.SIZES, self.BUDGETS):
            single_cluster, single, single_res, _ = run_srs(
                num_workers, size, budget, num_teams=num_teams,
                sparsify_all=sparsify_all,
                gradients={rank: grad[lo:lo + size] for rank, grad in gradients.items()})
            assert cluster.stats.rounds == single_cluster.stats.rounds
            for rank in range(num_workers):
                part = fused.reduced_blocks[rank].restrict(lo, lo + size)
                np.testing.assert_array_equal(part.indices - lo,
                                              single.reduced_blocks[rank].indices)
                np.testing.assert_array_equal(part.values,
                                              single.reduced_blocks[rank].values)
            np.testing.assert_array_equal(residual[lo:lo + size],
                                          single_res.total_residual())
            lo += size
        assert cluster.stats.total_messages == num_workers * fused.num_steps

    def test_sixteen_buckets_cost_the_rounds_of_one(self):
        """P = 64, n = 1e5 at density 0.01 in 16 buckets (weights of
        doubling size, each followed by a bias a hundredth of it): one SRS
        sends one packed message per worker per step, and one SRS per bucket
        takes exactly 16 times its rounds and messages for the same
        recorded volume."""
        P, n = 64, 100_000
        weights = 2.0 ** np.arange(8)
        sizes = []
        for share in weights / weights.sum():
            weight = int(share * n / 1.01)
            sizes += [weight, max(1, weight // 100)]
        sizes[-2] += n - sum(sizes)
        budgets = [max(1, round(0.01 * size) // P) for size in sizes]
        gradients = random_gradients(P, n)
        shared = run_srs(P, n, np.repeat(budgets, P), bucket_sizes=sizes,
                         gradients=gradients)[0].stats
        per_bucket = SimulatedCluster(P)
        lo = 0
        for size, budget in zip(sizes, budgets):
            residuals = ResidualManager(P, size)
            sliced = {rank: grad[lo:lo + size] for rank, grad in gradients.items()}
            residuals.apply(sliced)
            spar_reduce_scatter(per_bucket, [list(range(P))], BlockLayout(size, P),
                                budget, residuals)
            lo += size
        assert shared.total_messages == P * shared.rounds
        assert per_bucket.stats.rounds == 16 * shared.rounds
        assert per_bucket.stats.total_messages == 16 * shared.total_messages
        assert per_bucket.stats.received_per_worker == shared.received_per_worker

    def test_a_message_keeps_one_bag_per_segment(self):
        """Bag ids are segment numbers: block ``j`` of a team of 4 is the
        segments ``j, j + 4, ...``, bucket after bucket."""
        seen = []
        cluster = SimulatedCluster(4)
        inner = cluster.exchange
        cluster.exchange = lambda messages: seen.extend(messages) or inner(messages)
        layout = BlockLayout(300, 4, (200, 60, 40))
        residuals = ResidualManager(4, 300)
        gradients = random_gradients(4, 300, seed=2)
        residuals.apply(gradients)
        spar_reduce_scatter(cluster, [[0, 1, 2, 3]], layout, 2, residuals)
        first = next(m for m in seen if m.src == 0 and m.tag == "srs-1")
        # worker 0 first sends its last bag: blocks 2 and 3
        assert first.payload.ids == (2, 6, 10, 3, 7, 11)
        for position, segment in enumerate(first.payload.ids):
            lo, hi = layout.bound(segment)
            bag = first.payload.bag(position)
            assert bag.nnz <= 2
            assert ((bag.indices >= lo) & (bag.indices < hi)).all()
        block = first.payload.span(0, 3)  # block 2 again, as one sorted COO
        assert (np.diff(block.indices) > 0).all()


class TestSRSValidation:
    def test_rejects_unequal_teams(self):
        cluster = SimulatedCluster(5)
        layout = BlockLayout(50, 3)
        residuals = ResidualManager(5, 50)
        with pytest.raises(ValueError):
            spar_reduce_scatter(cluster, [[0, 1, 2], [3, 4]], layout, 2, residuals)

    def test_rejects_layout_team_mismatch(self):
        cluster = SimulatedCluster(4)
        layout = BlockLayout(50, 3)
        residuals = ResidualManager(4, 50)
        with pytest.raises(ValueError):
            spar_reduce_scatter(cluster, [[0, 1, 2, 3]], layout, 2, residuals)

    def test_rejects_duplicate_workers_across_teams(self):
        cluster = SimulatedCluster(4)
        layout = BlockLayout(50, 2)
        residuals = ResidualManager(4, 50)
        with pytest.raises(ValueError):
            spar_reduce_scatter(cluster, [[0, 1], [1, 2]], layout, 2, residuals)

    def test_rejects_non_positive_k(self):
        cluster = SimulatedCluster(2)
        layout = BlockLayout(50, 2)
        residuals = ResidualManager(2, 50)
        with pytest.raises(ValueError):
            spar_reduce_scatter(cluster, [[0, 1]], layout, 0, residuals)

    def test_a_block_the_receiver_no_longer_holds_violates_theorem_1(self):
        cluster = SimulatedCluster(4)
        exchange = cluster.exchange

        def misroute(messages):
            if messages[0].tag == "srs-2":  # back to where each went at step 1
                messages = [dataclasses.replace(message, payload=dataclasses.replace(
                    message.payload, ids=((message.dst + 2) % 4,))) for message in messages]
            return exchange(messages)

        cluster.exchange = misroute
        residuals = ResidualManager(4, 64)
        residuals.apply(random_gradients(4, 64))
        with pytest.raises(RuntimeError, match="worker 0 received block 2 it no longer"):
            spar_reduce_scatter(cluster, [[0, 1, 2, 3]], BlockLayout(64, 4), 2, residuals)

    def test_rejects_empty_teams(self):
        cluster = SimulatedCluster(2)
        layout = BlockLayout(50, 2)
        residuals = ResidualManager(2, 50)
        with pytest.raises(ValueError):
            spar_reduce_scatter(cluster, [], layout, 2, residuals)


class TestSRSSelectsFromTheStores:
    """SRS ranks and takes out of one array, the residual store: there is no
    second vector to select from."""

    def test_applied_mass_reaches_the_blocks_or_stays_in_the_stores(self):
        """With a ``gradients`` argument, P = 4 and n = 64 once returned four
        blocks of four zeros for gradients that were never applied, and
        their whole mass left the conservation ledger."""
        P, n = 4, 64
        residuals = ResidualManager(P, n)
        gradients = random_gradients(P, n, seed=5)
        with pytest.raises(TypeError):
            spar_reduce_scatter(SimulatedCluster(P), [list(range(P))], BlockLayout(n, P),
                                4, residuals, gradients=gradients)
        residuals.apply(gradients)
        output = spar_reduce_scatter(SimulatedCluster(P), [list(range(P))],
                                     BlockLayout(n, P), 4, residuals)
        assert [np.count_nonzero(block.values) for block in output.reduced_blocks.values()] \
            == [4] * P
        reduced = sum(block.to_dense() for block in output.reduced_blocks.values())
        np.testing.assert_allclose(reduced + residuals.total_residual(),
                                   sum(gradients.values()), atol=1e-12)

    def test_a_layout_of_another_length_is_refused(self):
        with pytest.raises(ValueError, match="80 elements.*64"):
            spar_reduce_scatter(SimulatedCluster(4), [[0, 1, 2, 3]], BlockLayout(80, 4),
                                4, ResidualManager(4, 64))

    @pytest.mark.parametrize("k_block", [2.5, float("nan"), [2, 2.5, 2, 2]])
    def test_a_fractional_budget_is_refused(self, k_block):
        with pytest.raises(ValueError, match="integer"):
            spar_reduce_scatter(SimulatedCluster(4), [[0, 1, 2, 3]], BlockLayout(64, 4),
                                k_block, ResidualManager(4, 64))

    def test_a_budget_array_of_the_wrong_length_names_the_segment_count(self):
        layout = BlockLayout(300, 4, (200, 60, 40))
        with pytest.raises(ValueError, match=r"segment of the layout \(12\), got 4"):
            spar_reduce_scatter(SimulatedCluster(4), [[0, 1, 2, 3]], layout,
                                [2, 2, 2, 2], ResidualManager(4, 300))


# ---------------------------------------------------------------------------
# the batched SRS against the seed's block-by-block one
# ---------------------------------------------------------------------------
#: A flat vector, and buckets with empty segments and segments shorter than
#: any team of more than one worker (sizes, per-segment budgets).
LAYOUTS = {"flat": ((97,), (3,)), "buckets": ((60, 1, 7, 2, 45), (3, 1, 2, 1, 4))}
#: The NumPy statements and the widest compiled variant this CPU runs.
LEGS = ["numpy"] + [leg for leg in selection_legs() if leg != "numpy"][-1:]


class _LoseOneBag(FaultPlan):
    """Worker 1's first SRS bag is dropped on every attempt, so it is lost."""

    @property
    def injects_message_faults(self) -> bool:
        return True

    def message_fate(self, round_index, attempt, src, dst, tag):
        return ("drop", 0) if (src, tag) == (1, "srs-1") else ("deliver", 0)


def srs_record(run, workers, teams, layout_name, policy, sparsify_all=False,
               bits=None, momentum=0.0, specials=False, plan=None):
    """Two steps of ``run`` (an SRS) with what a synchroniser does around
    it — the fused add, lost bags folded, ``finalize`` — and every byte they
    leave: blocks, stores, velocities, messages, statistics, selector
    tallies and cuts."""
    sizes, budgets = LAYOUTS[layout_name]
    team_size = workers // teams
    layout = BlockLayout(sum(sizes), team_size, sizes)
    k_block = np.repeat(budgets, team_size) if len(sizes) > 1 else budgets[0]
    residuals = ResidualManager(workers, layout.length, policy, momentum=momentum)
    selector = WarmTopK()
    compressor = (None if bits is None else CompressorStack.from_config(
        workers, num_bits=bits, sparsify=True, streams=len(sizes)))
    cluster = SimulatedCluster(workers)
    cluster.install_fault_plan(plan)
    sent = []
    exchange = cluster.exchange
    cluster.exchange = lambda messages: sent.extend(messages) or exchange(messages)
    rng = np.random.default_rng(100 * workers + teams)
    record = []
    for step in range(2):
        gradients = {w: rng.standard_normal(layout.length) ** 3 for w in range(workers)}
        if specials and step == 1:
            for gradient in gradients.values():
                gradient[::5], gradient[1::7], gradient[2::11] = -0.0, 5e-324, -1e-310
                gradient[3::29] = np.nan
        residuals.apply(gradients, selector, layout.edges,
                        np.broadcast_to(k_block, (len(layout.bounds),)))
        output = run(cluster, make_teams(workers, teams), layout, k_block, residuals,
                     sparsify_all=sparsify_all, compressor=compressor, selector=selector)
        lost = fold_lost_messages(cluster.drain_lost(), residuals)
        residuals.finalize(np.concatenate(
            [block.indices for block in output.reduced_blocks.values()]))
        stats = cluster.reset_stats()
        record.append((
            {rank: (block.indices.tobytes(), block.values.tobytes())
             for rank, block in output.reduced_blocks.items()},
            output.owned_block, output.num_steps, output.max_bag_nnz_per_step,
            output.resparsified, lost,
            [residuals.store(w).peek().tobytes() for w in range(workers)],
            [None if momentum == 0.0 else residuals.velocity(w).tobytes()
             for w in range(workers)],
            [(m.src, m.dst, m.tag, m.lossy, m.size, m.payload.ids,
              m.payload.offsets.tobytes(), m.payload.indices.tobytes(),
              m.payload.values.tobytes()) for m in sent],
            (stats.rounds, stats.total_volume, stats.max_received, stats.lost_messages),
            (selector.hits, selector.misses, selector.candidates, selector.requested,
             selector.seeded, selector.cuts)))
        sent.clear()
    return record


class TestSRSEqualsTheSeed:
    """The batched SRS — one selection for every worker, one round call
    per transmission step — returns, leaves and sends the bytes of the
    seed's block-by-block SRS (``tests/references.py``), on the NumPy leg
    and the compiled one."""

    @pytest.mark.parametrize("leg", LEGS)
    @pytest.mark.parametrize("team_size", range(1, 10))
    @pytest.mark.parametrize("teams", [1, 2, 3])
    def test_bytes_equal_the_seed(self, leg, team_size, teams):
        """Both layouts, each under two residual policies; the policies,
        ``sparsify_all``, 8-bit quantisation, momentum and ±0.0 / NaN /
        subnormal values rotate through the team shapes."""
        workers = team_size * teams
        policies = list(ResidualPolicy)
        cases = [(layout_name, policies[(team_size + teams + shift) % 4])
                 for shift, layout_name in product((0, 2), LAYOUTS)]
        with selection_legs()[leg]():
            for case, (layout_name, policy) in enumerate(cases):
                variant = dict(sparsify_all=(case + team_size) % 2 == 0,
                               bits=8 if (case + teams) % 3 == 0 else None,
                               momentum=0.9 if (case + team_size + teams) % 4 == 1 else 0.0,
                               specials=case % 2 == 1)
                seed = srs_record(seed_spar_reduce_scatter, workers, teams,
                                  layout_name, policy, **variant)
                batched = srs_record(spar_reduce_scatter, workers, teams,
                                     layout_name, policy, **variant)
                assert batched == seed, (layout_name, policy, variant)

    @pytest.mark.parametrize("leg", LEGS)
    @pytest.mark.parametrize("policy", list(ResidualPolicy))
    def test_a_lost_bag_folds_as_in_the_seed(self, leg, policy):
        with selection_legs()[leg]():
            seed = srs_record(seed_spar_reduce_scatter, 8, 1, "buckets", policy,
                              plan=_LoseOneBag())
            batched = srs_record(spar_reduce_scatter, 8, 1, "buckets", policy,
                                 plan=_LoseOneBag())
        assert batched == seed
        assert all(step[5] > 0 and step[-2][-1] == 1 for step in batched)

    @pytest.mark.parametrize("defer", [False, True])
    @pytest.mark.parametrize("scatter", [False, True])
    def test_the_round_kernel_equals_its_numpy_statement(self, defer, scatter):
        """``srs_round_f64`` against ``srs_round_numpy`` on one hand-made
        round: a received block meeting an empty held one (taken as it is:
        -0.0 stays), an empty received one, shared indices, a NaN and ties
        at the cut."""
        kernels = get_kernels()
        if kernels is None:
            pytest.skip("the compiled kernels are not loaded")
        # 2 workers, 1 slot sent, 2 slots staying, 2 buckets: offsets over
        # (worker, slot, bucket) of the held buffer.
        held_counts = np.array([[[1, 1], [2, 0], [0, 0]],
                                [[0, 1], [3, 1], [1, 2]]])
        offsets = np.concatenate(([0], np.cumsum(held_counts)))
        indices = np.array([0, 50, 1, 3, 7, 1, 2, 4, 60, 20, 70, 71])
        values = np.array([1., 2., 5., -0.0, 1., 3., -3., 3., 9., -0.0, 2., np.nan])
        received = (np.array([1, 3, 65, 20, 21]), np.array([-0.0, 2., 1., -0.0, 4.]))
        in_bounds = np.zeros((2, 2, 2, 2), dtype=np.int64)
        in_bounds[0, 0, 0] = (0, 2)   # into worker 0's slot 1: shared index 3
        in_bounds[0, 0, 1] = (2, 3)
        in_bounds[0, 1, 0] = (3, 5)   # into an empty held block: as it is
        targets = np.array([[True, True], [True, False]])
        ks = np.full((2, 2, 2), 1, dtype=np.int64)
        ks[1, 0] = (2, 1)
        arguments = (1, (offsets, indices, values), [received, None], in_bounds,
                     targets, ks)
        results = []
        for run in (kernels.srs_round, srs_round_numpy):
            rows = [np.zeros(100), np.zeros(100)] if scatter else None
            out = run(*arguments, rows, defer)
            results.append(([a.tobytes() for a in out[:3]],
                            None if out[3] is None else [a.tobytes() for a in out[3]],
                            None if rows is None else [row.tobytes() for row in rows]))
        assert results[0] == results[1]


class TestSRSIsBatched:
    """One compiled call per transmission step for every worker, plus two
    for phase 1 (selection, take) — whatever the team size, team count and
    bucket count."""

    @pytest.mark.skipif(get_kernels() is None, reason="counts compiled kernel calls")
    @pytest.mark.parametrize("workers,teams,buckets,bits,momentum", [
        (8, 1, 1, None, None), (8, 2, 16, 8, 0.9), (5, 1, 3, None, None),
        (16, 1, 1, None, None), (12, 3, 4, 8, None)])
    def test_kernel_calls_per_step(self, monkeypatch, workers, teams, buckets, bits,
                                   momentum):
        kernels, calls, inside = get_kernels(), Counter(), []
        for name in ("merge_add", "merge_many", "scan_task", "segmented_top_k",
                     "top_k_split", "take_rows", "srs_round", "im2col", "col2im"):
            def counted(*args, _name=name, _inner=getattr(kernels, name), **kwargs):
                calls[_name] += bool(inside)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(kernels, name, counted)
        srs = spardl_module.spar_reduce_scatter

        def traced(*args, **kwargs):
            inside.append(True)
            try:
                return srs(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(spardl_module, "spar_reduce_scatter", traced)
        sizes = [4096 * (1 + bucket % 3) for bucket in range(buckets)]
        sync = SparDLSynchronizer(SimulatedCluster(workers), sizes, SparDLConfig(
            density=0.01, num_teams=teams, num_bits=bits, momentum=momentum))
        for step in range(2):
            calls.clear()
            gradients = random_gradients(workers, sum(sizes), seed=step)
            info = sync.synchronize(gradients).info
            assert calls["srs_round"] == info["srs_steps"] == math.ceil(
                math.log2(workers // teams))
            assert calls["take_rows"] == 1
            assert sum(calls.values()) <= info["srs_steps"] + 2, calls
