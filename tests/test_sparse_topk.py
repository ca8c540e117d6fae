"""Unit tests for top-k / threshold selection primitives."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sparse import topk as topk_module
from repro.sparse.ckernels import SEED_MIN_RUNS, SEED_RUN, SEED_SHARE
from repro.sparse.topk import (
    WarmTopK,
    kth_largest_magnitude,
    seed_cut,
    seed_ranks,
    segmented_top_k,
    threshold_indices,
    top_k_indices,
)

from tests.helpers import (
    SEED_LENGTHS, SEEDING_KINDS, seeding_values, selection_legs)
from tests.references import naive_top_k_indices, two_rank_partition_cut

#: NaN, infinities, signed zeros, heavy ties and a denormal-scale value: every
#: case the partition cut and the tie pass have to rank like a stable argsort.
ADVERSARIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 1e-300]
adversarial_vectors = hnp.arrays(
    dtype=np.float64, shape=st.integers(min_value=1, max_value=120),
    elements=st.one_of(st.sampled_from(ADVERSARIAL),
                       st.floats(min_value=-1e3, max_value=1e3)))


class TestTopKIndices:
    def test_selects_largest_magnitudes(self):
        values = np.array([0.1, -5.0, 2.0, 0.0, -3.0])
        picked = top_k_indices(values, 2)
        assert set(picked.tolist()) == {1, 4}

    def test_result_is_sorted(self):
        values = np.array([5.0, -1.0, 4.0, 3.0, -6.0])
        picked = top_k_indices(values, 3)
        assert list(picked) == sorted(picked)

    def test_k_zero_returns_empty(self):
        assert top_k_indices(np.array([1.0, 2.0]), 0).size == 0

    def test_k_negative_returns_empty(self):
        assert top_k_indices(np.array([1.0, 2.0]), -3).size == 0

    def test_k_larger_than_length_returns_all(self):
        values = np.array([1.0, -2.0, 3.0])
        assert list(top_k_indices(values, 10)) == [0, 1, 2]

    def test_empty_input(self):
        assert top_k_indices(np.array([]), 3).size == 0

    def test_deterministic_tie_breaking_towards_lower_index(self):
        values = np.array([1.0, -1.0, 1.0, 1.0])
        picked = top_k_indices(values, 2)
        assert list(picked) == [0, 1]

    def test_absolute_value_not_sign(self):
        values = np.array([-10.0, 1.0, 2.0])
        assert 0 in top_k_indices(values, 1)

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=100)
        first = top_k_indices(values, 17)
        second = top_k_indices(values.copy(), 17)
        np.testing.assert_array_equal(first, second)

    def test_nan_ranks_below_every_magnitude(self):
        # A stable argsort (the seed idiom) sorts NaN last, so NaN entries
        # are only selected once every finite magnitude is taken — and then
        # by lowest index.  The partition path must reproduce that.
        values = np.array([np.nan, 5.0, 4.0, 3.0])
        np.testing.assert_array_equal(top_k_indices(values, 2), [1, 2])
        np.testing.assert_array_equal(top_k_indices(values, 3), [1, 2, 3])
        many_nan = np.array([np.nan, 1.0, np.nan, 2.0, np.nan])
        np.testing.assert_array_equal(top_k_indices(many_nan, 3), [0, 1, 3])
        np.testing.assert_array_equal(top_k_indices(many_nan, 4), [0, 1, 2, 3])


    @given(values=adversarial_vectors, k=st.integers(min_value=-2, max_value=130))
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort_on_adversarial_values(self, values, k):
        np.testing.assert_array_equal(top_k_indices(values, k),
                                      naive_top_k_indices(values, k))

    @pytest.mark.parametrize("values", [
        np.zeros(9), np.full(9, -3.0), np.full(9, np.nan), np.full(9, np.inf),
        np.array([np.inf, -np.inf, np.nan, 1.0, np.nan, np.inf]),
    ], ids=["all-zero", "all-ties", "all-nan", "all-inf", "mixed"])
    def test_degenerate_vectors_at_every_k(self, values):
        for k in range(-1, values.shape[0] + 3):
            np.testing.assert_array_equal(top_k_indices(values, k),
                                          naive_top_k_indices(values, k))


def segment_bounds(draw, n, max_inner=5):
    """Edges of up to ``max_inner + 1`` segments covering ``n`` entries;
    repeated edges make empty segments."""
    inner = sorted(draw(st.lists(st.integers(min_value=0, max_value=n),
                                 max_size=max_inner)))
    return np.array([0] + inner + [n], dtype=np.int64)


def looped_top_k(values, bounds, ks):
    """The reference a segmented selection must equal: ``top_k_indices``
    segment by segment."""
    pieces = [top_k_indices(values[lo:hi], int(k)) + lo
              for lo, hi, k in zip(bounds[:-1], bounds[1:], ks)]
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


class TestPartitionCut:
    """Two one-rank partitions find the cut and the looser cut the
    two-rank ``np.partition`` statement finds, bit for bit, NaN remap
    included."""

    #: few distinct magnitudes, so both ranks sit in ties
    tied = hnp.arrays(dtype=np.float64, shape=st.integers(min_value=1, max_value=60),
                      elements=st.sampled_from([0.0, 1.0, 2.0, np.inf, np.nan]))

    @staticmethod
    def _long(seed, n, specials):
        """Thousands of rounded cubed normals (NumPy sorts short arrays
        outright, which would hide a missing second partition), ties
        included, with ``specials`` NaN / inf entries."""
        rng = np.random.default_rng(seed)
        values = np.round(rng.standard_normal(n) ** 3, 1)
        values[rng.integers(0, n, specials)] = rng.choice([np.nan, np.inf, -np.inf],
                                                          specials)
        return values

    long = st.builds(_long.__func__, st.integers(0, 2 ** 32 - 1),
                     st.integers(2_000, 20_000), st.integers(0, 40))

    @given(values=st.one_of(adversarial_vectors, tied, long), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_two_rank_statement(self, values, data):
        magnitude = np.abs(values)
        n = magnitude.shape[0]
        k = data.draw(st.integers(1, n))
        reach = data.draw(st.sampled_from([None, k, n]) | st.integers(k, n))
        got = topk_module._partition_cut(magnitude, k, reach)
        want = two_rank_partition_cut(magnitude, k, reach)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert _bits(got[1]) == _bits(want[1]) and _bits(got[2]) == _bits(want[2])

    @pytest.mark.parametrize("values,k,reach", [
        ([np.nan, 1.0, 2.0, np.nan, 3.0], 2, 5),        # NaN, reach == n
        ([np.inf, np.inf, 1.0, 1.0, 1.0, 0.0], 2, 4),    # ties at both ranks
        ([np.inf, np.nan, 5.0, 5.0, 5.0], 3, 3),         # reach == k
        ([np.nan] * 4, 1, 3),                            # nothing but NaN
    ])
    def test_edge_cases(self, values, k, reach):
        magnitude = np.abs(np.array(values))
        got = topk_module._partition_cut(magnitude, k, reach)
        want = two_rank_partition_cut(magnitude, k, reach)
        assert (float(got[1]), float(got[2])) == (float(want[1]), float(want[2]))
        assert np.array_equal(_bits(got[0]), _bits(want[0]))


class TestSegmentedTopK:
    """One call over many segments selects what ``top_k_indices`` selects on
    each, whichever leg (compiled quickselect, NumPy partition) serves it."""

    #: Every segment through the compiled kernel (where there is one), or
    #: every segment through the per-segment NumPy path.
    @pytest.mark.parametrize("limit", [10 ** 9, -1], ids=["batched", "looped"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_looping_top_k_indices(self, limit, data):
        n = data.draw(st.integers(min_value=0, max_value=90))
        bounds = segment_bounds(data.draw, n)
        segments = bounds.shape[0] - 1
        kind = data.draw(st.sampled_from(["heavy", "ties", "special", "zeros"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "ties":
            values = rng.choice([-2.0, -1.0, 0.0, -0.0, 1.0, 2.0], size=n)
        elif kind == "special":
            values = rng.choice(ADVERSARIAL, size=n)
        elif kind == "zeros":
            values = np.zeros(n)
        else:
            values = rng.standard_normal(n) ** 3
        # k = 0, negative, "keep all" and past-the-length all occur
        ks = np.array(data.draw(st.lists(st.integers(min_value=-1, max_value=40),
                                         min_size=segments, max_size=segments)),
                      dtype=np.int64)
        reaches = None
        if data.draw(st.booleans()):
            reaches = np.array(data.draw(st.lists(
                st.integers(min_value=0, max_value=80),
                min_size=segments, max_size=segments)), dtype=np.int64)
        with mock.patch.object(topk_module, "_BATCHED_SEGMENT", limit):
            keep, cuts, reached = segmented_top_k(np.abs(values), bounds, ks, reaches)
        assert keep.dtype == bool and keep.shape == (n,)
        np.testing.assert_array_equal(np.flatnonzero(keep),
                                      looped_top_k(values, bounds, ks))
        for s, (lo, hi, k) in enumerate(zip(bounds[:-1], bounds[1:], ks.tolist())):
            if 0 < k < hi - lo:  # a cut exists: the magnitude at the reached rank
                rank = min(max(k, 0 if reaches is None else int(reaches[s])), hi - lo)
                assert reached[s] == rank
                assert cuts[s] == kth_largest_magnitude(values[lo:hi], rank)
            else:
                assert np.isnan(cuts[s]) and reached[s] == 0

    def test_long_segments_are_left_to_numpy(self, monkeypatch):
        """The compiled kernel batches the short segments only; the long one
        goes through the NumPy partition, with the same result."""
        sizes = []
        inner = topk_module._top_k_of_magnitude
        monkeypatch.setattr(topk_module, "_top_k_of_magnitude",
                            lambda magnitude, *rest: sizes.append(magnitude.shape[0])
                            or inner(magnitude, *rest))
        long = topk_module._BATCHED_SEGMENT + 1
        rng = np.random.default_rng(3)
        values = rng.standard_normal(40 + long + 40) ** 3
        bounds = np.array([0, 40, 40 + long, 80 + long])
        ks = np.array([7, 300, 7])
        keep, _, _ = segmented_top_k(np.abs(values), bounds, ks)
        partitioned = list(sizes)
        np.testing.assert_array_equal(np.flatnonzero(keep),
                                      looped_top_k(values, bounds, ks))
        if topk_module.get_kernels() is not None:
            assert partitioned == [long]


class TestTopKSegmentsOfASparseGradient:
    """``SparseGradient.top_k_segments``: the same selection fused with the
    split it decides (one kernel call), and its NumPy reference."""

    @pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_kept_and_dropped_equal_the_looped_reference(self, compiled, data):
        from repro.sparse import vector as vector_module
        from repro.sparse.vector import SparseGradient
        n = data.draw(st.integers(min_value=0, max_value=60))
        bounds = segment_bounds(data.draw, n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.choice(ADVERSARIAL + [0.5, -0.5, 3.0], size=n)
        indices = np.sort(rng.choice(1000, size=n, replace=False)).astype(np.int64)
        ks = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=30),
                                         min_size=bounds.shape[0] - 1,
                                         max_size=bounds.shape[0] - 1)), dtype=np.int64)
        sparse = SparseGradient.from_sorted_unique(indices, values, 1000)
        kernels = vector_module._get_c_kernels() if compiled else None
        with mock.patch.object(vector_module, "_get_c_kernels", lambda: kernels):
            kept, dropped = sparse.top_k_segments(bounds, ks)
        picked = looped_top_k(values, bounds, ks)
        rest = np.setdiff1d(np.arange(n), picked)
        np.testing.assert_array_equal(kept.indices, indices[picked])
        np.testing.assert_array_equal(dropped.indices, indices[rest])
        np.testing.assert_array_equal(kept.values.view(np.uint64),
                                      values[picked].view(np.uint64))
        np.testing.assert_array_equal(dropped.values.view(np.uint64),
                                      values[rest].view(np.uint64))
        if n:
            whole_kept, whole_dropped = sparse.top_k(int(ks[0]))
            np.testing.assert_array_equal(
                whole_kept.indices, indices[top_k_indices(values, int(ks[0]))])
            assert whole_kept.nnz + whole_dropped.nnz == n


def select_one(warm, key, values, k):
    """The whole vector as the one segment of group ``key`` (its cut is
    ``warm.cuts[(key, 0)]``)."""
    return warm.select_segments([key], [values],
                                np.array([0, values.shape[0]], dtype=np.int64),
                                np.array([k]))[0]


class TestWarmTopK:
    """The warm path is an optimisation of the exact selection, never a
    different selector: whatever cut it remembers, seeds or is handed, its
    result equals the cold ``top_k_indices`` index for index."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_sequences_match_cold_selection(self, data):
        n = data.draw(st.integers(min_value=1, max_value=80))
        steps = data.draw(st.integers(min_value=1, max_value=6))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        warm = WarmTopK()
        for _ in range(steps):
            kind = data.draw(st.sampled_from(
                ["heavy", "ties", "zeros", "shrink", "grow", "special"]))
            if kind == "ties":
                values = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=n)
            elif kind == "zeros":
                values = np.zeros(n)
            elif kind == "special":
                values = rng.choice(ADVERSARIAL, size=n)
            else:
                scale = {"heavy": 1.0, "shrink": 1e-3, "grow": 1e3}[kind]
                values = scale * rng.standard_normal(n) ** 3
            k = data.draw(st.integers(min_value=0, max_value=n + 2))
            forced = data.draw(st.sampled_from(["keep", "high", "low", "nan", "drop"]))
            if forced == "high":
                warm.cuts[("block", 0)] = np.inf
            elif forced == "low":
                warm.cuts[("block", 0)] = 0.0
            elif forced == "nan":
                warm.cuts[("block", 0)] = np.nan
            elif forced == "drop":
                warm.cuts.clear()
            picked = select_one(warm, "block", values, k)
            np.testing.assert_array_equal(picked, top_k_indices(values, k))
            assert picked.dtype == np.int64

    def test_every_selection_runs_on_candidates_only(self, monkeypatch):
        sizes = []
        inner = topk_module._top_k_of_magnitude
        monkeypatch.setattr(topk_module, "_top_k_of_magnitude",
                            lambda magnitude, *rest: sizes.append(magnitude.shape[0])
                            or inner(magnitude, *rest))
        rng = np.random.default_rng(0)
        base = rng.standard_normal(4096) ** 3
        warm = WarmTopK()
        first = select_one(warm, "b", base, 40)
        grown = 1.05 * base + 1e-3 * rng.standard_normal(4096)
        np.testing.assert_array_equal(select_one(warm, "b", grown, 40),
                                      top_k_indices(grown, 40))
        np.testing.assert_array_equal(first, top_k_indices(base, 40))
        assert 40 <= sizes[0] < 400      # the first: against a seeded cut
        assert 40 <= sizes[1] < 400      # the second: against the remembered one
        assert (warm.hits, warm.misses, warm.seeded) == (2, 0, 1)

    def test_keys_are_independent(self):
        warm = WarmTopK()
        big, small = np.array([9.0, 8.0, 7.0]), np.array([0.3, 0.2, 0.1])
        select_one(warm, "big", big, 1)
        np.testing.assert_array_equal(select_one(warm, "small", small, 1), [0])
        assert warm.cuts == {("big", 0): 9.0, ("small", 0): 0.3}
        # and so are the segments of one group
        both = np.concatenate([big, small])
        picked = warm.select_segments(["g"], [both], np.array([0, 3, 6]), np.array([1, 2]))[0]
        np.testing.assert_array_equal(picked, [0, 3, 4])
        assert (warm.cuts[("g", 0)], warm.cuts[("g", 1)]) == (9.0, 0.2)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fused_sequences_match_cold_selection(self, data):
        """The same property with the add in the loop and several segments
        per selection: candidates found while the gradient is added
        (compiled kernels; the NumPy leg adds here and compares inside
        ``select_segments``) select what a cold top-k of the summed vector
        selects — also after the picks are taken out, after a cut is
        overwritten between the add and the selection, and when a step adds
        but never selects."""
        n = data.draw(st.integers(min_value=1, max_value=80))
        bounds = segment_bounds(data.draw, n, max_inner=3)
        segments = bounds.shape[0] - 1
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        warm = WarmTopK()
        store = np.zeros(n)
        budgets = st.lists(st.integers(min_value=0, max_value=n + 1),
                           min_size=segments, max_size=segments)
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            kind = data.draw(st.sampled_from(["heavy", "ties", "tiny", "huge", "special"]))
            if kind == "ties":
                addend = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=n)
            elif kind == "special":
                addend = rng.choice(ADVERSARIAL, size=n)
            else:
                scale = {"heavy": 1.0, "tiny": 1e-3, "huge": 1e3}[kind]
                addend = scale * rng.standard_normal(n) ** 3
            ks = np.array(data.draw(budgets))
            with np.errstate(invalid="ignore"):  # inf - inf
                expected = store + addend
                plan = warm.plan_accumulate("g", bounds, ks, store, addend)
                if plan is None:
                    store += addend
                else:
                    sweep, adopt = plan
                    adopt(sweep())
            np.testing.assert_array_equal(store, expected)
            if data.draw(st.booleans()):
                continue  # e.g. a dense-fallback step: added, not selected
            for segment in range(segments):
                forced = data.draw(st.sampled_from(["keep", "keep", "high", "low", "drop"]))
                if forced == "high":
                    warm.cuts[("g", segment)] = np.inf
                elif forced == "low":
                    warm.cuts[("g", segment)] = 0.0
                elif forced == "drop":
                    warm.cuts.pop(("g", segment), None)
            if data.draw(st.booleans()):  # budgets other than the add was told
                ks = np.array(data.draw(budgets))
            picked = warm.select_segments(["g"], [store], bounds, ks)[0]
            np.testing.assert_array_equal(picked, looped_top_k(store, bounds, ks))
            assert picked.dtype == np.int64
            taken = data.draw(st.lists(st.booleans(), min_size=segments,
                                       max_size=segments))
            for lo, hi, take in zip(bounds[:-1], bounds[1:], taken):
                if take:
                    store[picked[(picked >= lo) & (picked < hi)]] = 0.0

    def test_a_key_that_never_misses_keeps_the_rank_k_cut(self):
        """Growing magnitudes: last step's smallest kept entry keeps
        admitting enough candidates, and a looser cut would only add work."""
        rng = np.random.default_rng(5)
        base = rng.standard_normal(4096) ** 3
        warm = WarmTopK()
        for step in range(8):
            values = (1.0 + 0.05 * step) * base + 1e-3 * rng.standard_normal(4096)
            select_one(warm, "b", values, 40)
            assert warm.cuts[("b", 0)] == kth_largest_magnitude(values, 40)
        assert (warm.hits, warm.misses, warm.seeded) == (8, 0, 1)
        assert warm.candidates < 3 * warm.requested

    def test_a_stale_high_cut_is_loosened_to_rank_2k_and_stops_missing(self):
        """Shrinking magnitudes, the shape of a training run: every
        selection takes the largest entries out and the new gradient is
        small against what was taken, so the rank-k cut is stale-high one
        step later.  After its first miss the key remembers the magnitude
        at rank 2k and most later selections are served from candidates."""
        rng = np.random.default_rng(6)
        n, k, steps = 4096, 40, 30
        tight_hits = 0
        warm = WarmTopK()
        residual = rng.standard_normal(n) ** 3
        for step in range(steps):
            residual += 0.2 * rng.standard_normal(n) ** 3
            # what a selector that always remembers rank k would have found
            if step and np.count_nonzero(np.abs(residual) >= tight) >= k:
                tight_hits += 1
            misses = warm.misses
            picked = select_one(warm, "b", residual, k)
            np.testing.assert_array_equal(picked, top_k_indices(residual, k))
            tight = kth_largest_magnitude(residual, k)
            if warm.misses > misses:  # a miss (step 0 seeds its cut: a hit)
                assert step
                assert warm.cuts[("b", 0)] == kth_largest_magnitude(residual, 2 * k)
            residual[picked] = 0.0
        assert warm.hits + warm.misses == steps
        assert warm.hits / steps >= 0.6
        assert tight_hits / steps < 0.4
        assert warm.candidates <= 2.5 * warm.requested

    def test_publish_feeds_counters_and_gauges_summed_over_selectors(self):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        rng = np.random.default_rng(7)
        selectors = [WarmTopK(), WarmTopK()]
        for step in range(4):
            for index, warm in enumerate(selectors):
                select_one(warm, "b", (1.0 + 0.1 * step) * rng.standard_normal(512) ** 3,
                           8 * (index + 1))
                warm.publish(registry)
        snap = registry.snapshot()
        hits = sum(warm.hits for warm in selectors)
        misses = sum(warm.misses for warm in selectors)
        assert (snap["select.hits"], snap["select.misses"]) == (hits, misses)
        assert snap["select.seeded"] == sum(warm.seeded for warm in selectors) == 2
        assert snap["select.warm_share"] == hits / (hits + misses)
        assert snap["select.candidates_per_k"] == (
            sum(warm.candidates for warm in selectors)
            / sum(warm.requested for warm in selectors))
        selectors[0].publish(registry)  # nothing new: nothing added twice
        assert registry.snapshot() == snap


def add_and_select(warm, group, bounds, ks, store, addend, velocity=None, momentum=0.0):
    """One step of a synchroniser's selection: the error-feedback add
    (fused where the leg has kernels) and the segmented selection."""
    plan = warm.plan_accumulate(group, bounds, ks, store, addend, velocity, momentum)
    if plan is not None:
        sweep, adopt = plan
        adopt(sweep())
    elif velocity is None:
        store += addend
    else:
        velocity *= momentum
        velocity += addend
        store += velocity
    return warm.select_segments([group], [store], bounds, ks)[0]


class TestSeededSelection:
    """A selector without a cut seeds one from a sample — inside the fused
    sweep, or with ``seed_cut`` on the NumPy leg — and selects from the
    candidates it admits.  The sample only ever proposes: the picks equal
    ``top_k_indices`` on every input, and every leg seeds the same cut."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_equals_top_k_indices_on_adversarial_segments(self, data):
        lengths = data.draw(st.lists(st.sampled_from(SEED_LENGTHS), min_size=1, max_size=3))
        bounds = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        n = int(bounds[-1])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        store, addend = seeding_values(rng, data.draw(st.sampled_from(SEEDING_KINDS)), n)
        momentum = data.draw(st.sampled_from([0.0, 0.9]))
        velocity = rng.standard_normal(n) if momentum else None
        ks = np.array([data.draw(st.one_of(
            st.sampled_from([0, 1, length - 1, length, length + 2]),
            st.integers(min_value=1, max_value=max(length // 50, 1))))
            for length in lengths], dtype=np.int64)
        steps = data.draw(st.integers(min_value=1, max_value=2))
        kept, cuts = addend.copy(), {}
        for leg, patched in selection_legs().items():
            warm, mine = WarmTopK(), store.copy()
            mine_velocity = None if velocity is None else velocity.copy()
            with patched(), np.errstate(all="ignore"):
                for _ in range(steps):  # the second: remembered or seeded again
                    picked = add_and_select(warm, "g", bounds, ks, mine, addend,
                                            mine_velocity, momentum)
                    np.testing.assert_array_equal(
                        picked, looped_top_k(mine, bounds, ks), err_msg=leg)
                    mine[picked] = 0.0
            assert warm.hits + warm.misses == steps * len(lengths)
            assert not any(cut <= 0 for cut in warm.cuts.values())
            cuts[leg] = warm.cuts
            assert addend.tobytes() == kept.tobytes()
        assert all(leg_cuts == cuts["numpy"] for leg_cuts in cuts.values())

    @pytest.mark.parametrize("leg", selection_legs())
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_a_first_selection_makes_no_full_partition(self, leg, momentum, monkeypatch):
        """Heavy-tailed values (cubed normals), segments of every sampling
        regime: the seeded cut admits between ``k`` and its cap."""
        sizes = []
        inner = topk_module._top_k_of_magnitude
        monkeypatch.setattr(topk_module, "_top_k_of_magnitude",
                            lambda magnitude, *rest: sizes.append(magnitude.shape[0])
                            or inner(magnitude, *rest))
        lengths = np.array([256, 1024, 3000, 20000, 80000, 131072])
        bounds = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        ks = np.maximum(lengths // 100, 1)
        rng = np.random.default_rng(19)
        n = int(bounds[-1])
        warm, store = WarmTopK(), np.zeros(n)
        velocity = np.zeros(n) if momentum else None
        with selection_legs()[leg]():
            for step in range(2):
                if step:
                    warm.clear()  # what a membership change does
                picked = add_and_select(warm, 0, bounds, ks, store,
                                        rng.standard_normal(n) ** 3, velocity, momentum)
                expected = looped_top_k(store, bounds, ks)  # (partitions in full)
                del sizes[-len(lengths):]
                np.testing.assert_array_equal(picked, expected)
                store[picked] = 0.0
        assert (warm.hits, warm.misses, warm.seeded) == (12, 0, 12)
        assert not set(sizes) & set(lengths.tolist())
        assert warm.candidates < 3.5 * warm.requested

    def test_sample_positions_depend_on_the_length_alone(self):
        """Runs of ``SEED_RUN`` entries from the start of equal parts: an
        entry outside them cannot move the cut, one inside can."""
        length = 2 * SEED_MIN_RUNS * SEED_RUN * SEED_SHARE
        runs = length // (SEED_RUN * SEED_SHARE)
        values = np.random.default_rng(2).standard_normal(length)
        rank = int(seed_ranks(length, 300)[0])
        assert rank == 2 * 300 // SEED_SHARE + 1 + topk_module.SEED_SLACK
        cut = seed_cut(values, rank)
        inside = np.zeros(length, dtype=bool)
        for start in (np.arange(runs) * length // runs).tolist():
            inside[start:start + SEED_RUN] = True
        assert inside.sum() * SEED_SHARE == length
        moved = values.copy()
        moved[~inside] = 1e9
        assert seed_cut(moved, rank) == cut
        moved = values.copy()
        moved[np.flatnonzero(inside)[:rank]] = 1e9
        assert seed_cut(moved, rank) == 1e9
        # a short segment is read whole
        short = values[:SEED_MIN_RUNS * SEED_RUN]
        assert seed_cut(short, 5) == kth_largest_magnitude(short, 5)

    def test_nothing_to_seed(self):
        ranks, reach = seed_ranks(np.array([100, 100, 100, 0]), np.array([0, 100, 250, 3]))
        assert ranks.tolist() == reach.tolist() == [0, 0, 0, 0]
        assert seed_cut(np.ones(8), 0) is None and seed_cut(np.empty(0), 3) is None
        assert seed_cut(np.zeros(8), 3) is None            # not positive
        assert seed_cut(np.array([np.nan, 2.0, 1.0]), 3) is None  # NaN ranks last
        assert seed_cut(np.array([np.nan, 2.0, 1.0]), 9) is None  # (clipped)
        assert seed_cut(np.array([np.nan, 2.0, 1.0]), 2) == 1.0

    @pytest.mark.parametrize("leg", selection_legs())
    def test_a_segment_with_fewer_nonzeros_than_k_never_holds_a_zero_cut(self, leg):
        """Regression: the rank-``k`` magnitude of such a segment is 0.0, a
        cut every entry reaches — remembered, it filled the fused pass's
        candidate buffer every step, overflowed, was forgotten, and the
        full partition stored it again (six steps: six misses)."""
        n, k = 4096, 64
        rng = np.random.default_rng(4)
        bounds, ks = np.array([0, n], dtype=np.int64), np.array([k])
        warm, store = WarmTopK(), np.zeros(n)
        with selection_legs()[leg]():
            for step in range(6):
                addend = np.zeros(n)
                addend[rng.choice(n, size=20, replace=False)] = rng.standard_normal(20)
                picked = add_and_select(warm, "z", bounds, ks, store, addend)
                np.testing.assert_array_equal(picked, top_k_indices(store, k))
                assert ("z", 0) not in warm.cuts
                assert not warm._scanned  # no candidates were collected and left
                store[picked] = 0.0
        assert (warm.hits, warm.seeded, warm.candidates) == (0, 0, 0)
        # once it has enough non-zeros again, it seeds and hits like any other
        picked = add_and_select(warm, "z", bounds, ks, store,
                                rng.standard_normal(n) ** 3)
        np.testing.assert_array_equal(picked, top_k_indices(store, k))
        assert (warm.hits, warm.seeded) == (1, 1) and warm.cuts[("z", 0)] > 0


class TestKthLargestMagnitude:
    def test_empty_input_returns_zero(self):
        # Regression: the seed returned inf for an empty vector although the
        # docstring promised 0.0 whenever k exceeds the number of entries.
        assert kth_largest_magnitude(np.array([]), 3) == 0.0

    def test_empty_input_with_nonpositive_k_returns_zero(self):
        assert kth_largest_magnitude(np.array([]), 0) == 0.0
        assert kth_largest_magnitude(np.array([]), -1) == 0.0

    def test_nonpositive_k_returns_zero(self):
        assert kth_largest_magnitude(np.array([1.0, 2.0]), 0) == 0.0

    def test_exact_value(self):
        values = np.array([1.0, -4.0, 3.0, 2.0])
        assert kth_largest_magnitude(values, 2) == 3.0

    def test_k_equals_length_returns_min(self):
        values = np.array([1.0, -4.0, 3.0])
        assert kth_largest_magnitude(values, 3) == 1.0

    def test_k_exceeds_length_returns_min_magnitude(self):
        values = np.array([2.0, -5.0])
        assert kth_largest_magnitude(values, 10) == 2.0

    def test_selection_consistency_with_topk(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=200)
        k = 31
        cut = kth_largest_magnitude(values, k)
        assert (np.abs(values) >= cut).sum() >= k


    @given(values=adversarial_vectors, k=st.integers(min_value=1, max_value=130))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_selection_it_calibrates(self, values, k):
        """The threshold is the magnitude of the last entry the stable
        argsort selects, with NaN ranked below everything (-inf) — so it
        never disagrees with ``top_k_indices`` about NaN."""
        magnitude = np.abs(values)
        ranked = np.where(np.isnan(magnitude), -np.inf, magnitude)
        order = np.argsort(-magnitude, kind="stable")
        expected = ranked[order[min(k, values.shape[0]) - 1]]
        assert kth_largest_magnitude(values, k) == expected

    def test_nan_does_not_count_among_the_k_largest(self):
        values = np.array([np.nan, 5.0, 4.0, np.nan, 3.0])
        assert kth_largest_magnitude(values, 2) == 4.0
        assert kth_largest_magnitude(values, 3) == 3.0
        assert kth_largest_magnitude(values, 4) == -np.inf
        assert kth_largest_magnitude(values, 9) == -np.inf


class TestThresholdIndices:
    def test_keeps_entries_at_or_above_threshold(self):
        values = np.array([0.5, -2.0, 1.0, 0.1])
        picked = threshold_indices(values, 1.0)
        assert set(picked.tolist()) == {1, 2}

    def test_zero_threshold_keeps_all(self):
        values = np.array([0.0, 1.0, -1.0])
        assert threshold_indices(values, 0.0).size == 3

    def test_large_threshold_keeps_none(self):
        values = np.array([0.5, -2.0])
        assert threshold_indices(values, 100.0).size == 0

    def test_may_select_more_than_k(self):
        # Threshold pruning (as used by Ok-Topk) has no hard cardinality bound.
        values = np.ones(10)
        assert threshold_indices(values, 1.0).size == 10
