"""The fused accumulate + candidate-scan kernel against its NumPy reference.

``accumulate_scan`` replaces ``store += addend`` (or the momentum form
``velocity *= m; velocity += addend; store += velocity``) followed by
``flatnonzero(|store[block]| >= cut)`` and a gather of those magnitudes per
block.  It is an accelerator, so every variant the CPU runs must leave the
same bits in the store and the velocity and report the same candidates, on
every input NumPy accepts.  A block without a cut may be *seeded* one inside
the sweep; ``repro.sparse.topk.seed_cut`` on the summed values is the
reference for that, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import SEED_LENGTHS, SEEDING_KINDS, seeding_values
from repro.sparse import ckernels
from repro.sparse.ckernels import SIMD_LANES, get_kernels
from repro.sparse.topk import seed_cut

KERNELS = get_kernels()
needs_kernels = pytest.mark.skipif(KERNELS is None,
                                   reason="compiled kernels unavailable")


def variants():
    """Every variant this CPU runs, narrowest first."""
    widest = 0 if KERNELS is None else SIMD_LANES[KERNELS.simd]
    return [name for name, lanes in SIMD_LANES.items() if lanes <= widest]


#: NaN, infinities, signed zeros, ties, a value that cancels to zero, the
#: smallest denormal and one that stays denormal when doubled.
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0, -2.0,
           5e-324, -5e-324, 1e-310, 1e-300, 1e300]
values = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(min_value=-1e3, max_value=1e3, width=32))


def reference(store, addend, velocity, momentum, bounds, cuts, caps, seed_ranks=None):
    """The NumPy statements the kernel stands in for; with ``seed_ranks``,
    ``cuts`` is completed in place like the kernel's."""
    addend = np.asarray(addend, dtype=np.float64)
    if velocity is None:
        store += addend
    else:
        velocity *= momentum
        velocity += addend
        store += velocity
    found = []
    for block, (lo, hi, cap) in enumerate(zip(bounds[:-1], bounds[1:], caps)):
        if seed_ranks is not None and np.isnan(cuts[block]):
            seeded = seed_cut(store[lo:hi], int(seed_ranks[block]))
            cuts[block] = np.nan if seeded is None else seeded
        reached = np.flatnonzero(np.abs(store[lo:hi]) >= cuts[block])
        found.append(None if reached.shape[0] > cap else reached + lo)
    return found


def per_block(scan):
    """The kernel's ``(counts, indices, magnitudes)`` as one ``(indices,
    magnitudes)`` pair per block (``None``: overflowed), checking that the
    candidates really are back to back."""
    counts, indices, magnitudes = scan
    assert indices.dtype == np.int64 and magnitudes.dtype == np.float64
    assert indices.shape == magnitudes.shape == (np.maximum(counts, 0).sum(),)
    found, start = [], 0
    for count in counts.tolist():
        if count < 0:
            found.append(None)
        else:
            found.append((indices[start:start + count], magnitudes[start:start + count]))
            start += count
    return found


def assert_same_bits(actual, expected):
    """Bit for bit, the sign of a zero included; any NaN equals any NaN
    (which operand's payload survives ``nan + nan`` is the compiler's
    choice of operand order, not arithmetic)."""
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual.view(np.uint64)[~nan],
                                  expected.view(np.uint64)[~nan])


@st.composite
def problems(draw):
    n = draw(st.integers(min_value=0, max_value=70))
    # Repeated edges make empty blocks; n = 0 is one empty block.
    inner = sorted(draw(st.lists(st.integers(min_value=0, max_value=n), max_size=5)))
    bounds = np.array([0] + inner + [n], dtype=np.int64)
    blocks = bounds.shape[0] - 1
    store = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    with np.errstate(over="ignore"):
        addend = np.array(draw(st.lists(values, min_size=n, max_size=n)),
                          dtype=np.float64).astype(dtype)
    momentum = draw(st.sampled_from([None, 0.0, 0.5, 0.9]))
    velocity = None
    if momentum is not None:
        velocity = np.array(draw(st.lists(values, min_size=n, max_size=n)),
                            dtype=np.float64)
    # Cuts: special values, and magnitudes the sum will hold (ties at the cut).
    with np.errstate(invalid="ignore", over="ignore"):
        after = np.abs(store + addend.astype(np.float64))
    tie = st.sampled_from(after.tolist()) if n else st.nothing()
    cuts = np.array(draw(st.lists(
        st.one_of(st.sampled_from([np.inf, -np.inf, np.nan, 0.0, 1.0, 2.0, 5e-324]),
                  st.floats(min_value=0.0, max_value=10.0), tie),
        min_size=blocks, max_size=blocks)), dtype=np.float64)
    caps = np.array(draw(st.lists(st.integers(min_value=0, max_value=n + 1),
                                  min_size=blocks, max_size=blocks)), dtype=np.int64)
    layout = draw(st.sampled_from(["plain", "offset", "strided"]))
    return store, addend, velocity, momentum or 0.0, bounds, cuts, caps, layout


def placed(array, layout):
    """``array`` as the caller may hold it: its own buffer, a view one
    element into a larger one (8-byte, not 64-byte aligned — a bucket's
    slice of the flat gradient), or every other element of one."""
    n = array.shape[0]
    if layout == "offset":
        backing = np.zeros(n + 3, dtype=array.dtype)
        backing[1:n + 1] = array
        return backing, backing[1:n + 1]
    if layout == "strided":
        backing = np.zeros(2 * n + 1, dtype=array.dtype)
        backing[::2][:n] = array
        return backing, backing[::2][:n]
    backing = array.copy()
    return backing, backing


@needs_kernels
class TestAgainstNumPy:
    @given(problem=problems())
    @settings(max_examples=400, deadline=None)
    def test_store_velocity_and_candidates_match(self, problem):
        store, addend, velocity, momentum, bounds, cuts, caps, layout = problem
        with np.errstate(all="ignore"):
            want_store = store.copy()
            want_velocity = None if velocity is None else velocity.copy()
            want = reference(want_store, addend, want_velocity, momentum,
                             bounds, cuts, caps)
        for simd in variants():
            # The store and the velocity may be unaligned views too, but
            # always contiguous: they are the manager's own buffers.
            _, got_store = placed(store, "offset" if layout == "offset" else "plain")
            got_velocity = None if velocity is None else placed(
                velocity, "offset" if layout == "offset" else "plain")[1]
            backing, given_addend = placed(addend, layout)
            kept = backing.copy()
            got = per_block(KERNELS.accumulate_scan(
                got_store, given_addend, got_velocity, momentum, bounds, cuts,
                caps, simd=simd))
            assert_same_bits(got_store, want_store)
            if velocity is not None:
                assert_same_bits(got_velocity, want_velocity)
            assert len(got) == len(want)
            for block, (mine, theirs) in enumerate(zip(got, want)):
                if theirs is None:
                    assert mine is None, (simd, block)
                else:
                    assert mine is not None, (simd, block)
                    np.testing.assert_array_equal(mine[0], theirs, err_msg=simd)
                    assert_same_bits(mine[1], np.abs(want_store[theirs]))
            # the caller's gradient is read, never written
            assert backing.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("simd", variants())
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1000])
    def test_every_length_around_the_vector_width(self, simd, n):
        rng = np.random.default_rng(n)
        store, addend = rng.standard_normal(n) ** 3, rng.standard_normal(n)
        velocity = rng.standard_normal(n)
        bounds = np.array([0, n // 3, n], dtype=np.int64)
        cuts = np.array([0.5, 1.0])
        caps = np.array([n, n], dtype=np.int64)
        want_store, want_velocity = store.copy(), velocity.copy()
        want = reference(want_store, addend, want_velocity, 0.9, bounds, cuts, caps)
        got = per_block(KERNELS.accumulate_scan(store, addend, velocity, 0.9,
                                                bounds, cuts, caps, simd=simd))
        assert_same_bits(store, want_store)
        assert_same_bits(velocity, want_velocity)
        for mine, theirs in zip(got, want):
            np.testing.assert_array_equal(mine[0], theirs)
            assert_same_bits(mine[1], np.abs(store[theirs]))

    @pytest.mark.parametrize("simd", variants())
    def test_an_overflowing_block_still_gets_its_add(self, simd):
        n = 4096
        rng = np.random.default_rng(3)
        store, addend = rng.standard_normal(n), rng.standard_normal(n)
        bounds = np.array([0, n // 2, n], dtype=np.int64)
        want = store + addend
        got = per_block(KERNELS.accumulate_scan(
            store, addend, None, 0.0, bounds, np.array([0.0, 3.0]),
            np.array([5, 500], dtype=np.int64), simd=simd))
        assert got[0] is None                       # everything reaches 0.0
        np.testing.assert_array_equal(
            got[1][0], n // 2 + np.flatnonzero(np.abs(want[n // 2:]) >= 3.0))
        assert_same_bits(store, want)

    def test_momentum_rounds_twice_like_numpy(self):
        """``m * v + g`` contracted into one FMA would round once and differ
        in the last bit on inputs like these (-ffp-contract=off)."""
        rng = np.random.default_rng(11)
        n = 4096
        velocity = rng.standard_normal(n) * (1.0 + 2.0 ** -30)
        addend = -0.9 * velocity + rng.standard_normal(n) * 2.0 ** -40
        store = np.zeros(n)
        want_velocity = velocity.copy()
        want_velocity *= 0.9
        want_velocity += addend
        for simd in variants():
            for cut in (np.inf, np.nan):  # the scanning loop, the plain one
                got_velocity, got_store = velocity.copy(), store.copy()
                KERNELS.accumulate_scan(got_store, addend, got_velocity, 0.9,
                                        np.array([0, n], dtype=np.int64),
                                        np.array([cut]), np.array([0], dtype=np.int64),
                                        simd=simd)
                assert_same_bits(got_velocity, want_velocity)
                assert_same_bits(got_store, want_velocity)


@needs_kernels
class TestSeededCuts:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_the_seeded_cut_is_the_helpers_and_nothing_is_added_twice(self, data):
        lengths = data.draw(st.lists(st.sampled_from(SEED_LENGTHS), min_size=1, max_size=3))
        bounds = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        n, blocks = int(bounds[-1]), len(lengths)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        store, addend = seeding_values(rng, data.draw(st.sampled_from(SEEDING_KINDS)), n)
        momentum = data.draw(st.sampled_from([None, 0.9]))
        velocity = None if momentum is None else rng.standard_normal(n)
        ranks = np.array([data.draw(st.one_of(
            st.sampled_from([0, 1, 7, length, length + 3]),
            st.integers(min_value=0, max_value=max(length // 20, 1))))
            for length in lengths], dtype=np.int64)
        # a remembered cut is left alone, whatever the rank says
        cuts = np.array([data.draw(st.sampled_from([np.nan, np.nan, 1.0]))
                         for _ in lengths])
        caps = np.array([data.draw(st.sampled_from([0, 16, length]))
                         for length in lengths], dtype=np.int64)
        with np.errstate(all="ignore"):
            want_store, want_cuts = store.copy(), cuts.copy()
            want_velocity = None if velocity is None else velocity.copy()
            want = reference(want_store, addend, want_velocity, momentum or 0.0,
                             bounds, want_cuts, caps, ranks)
        kept = addend.copy()
        for simd in variants():
            got_store, got_cuts = store.copy(), cuts.copy()
            got_velocity = None if velocity is None else velocity.copy()
            got = per_block(KERNELS.accumulate_scan(
                got_store, addend, got_velocity, momentum or 0.0, bounds,
                got_cuts, caps, simd=simd, seed_ranks=ranks))
            assert_same_bits(got_cuts, want_cuts)
            assert not (got_cuts <= 0).any()  # NaN or positive, never zero
            assert_same_bits(got_store, want_store)
            if velocity is not None:
                assert_same_bits(got_velocity, want_velocity)
            for block, (mine, theirs) in enumerate(zip(got, want)):
                assert (mine is None) == (theirs is None), (simd, block)
                if theirs is not None:
                    np.testing.assert_array_equal(mine[0], theirs, err_msg=simd)
                    assert_same_bits(mine[1], np.abs(want_store[theirs]))
            assert addend.tobytes() == kept.tobytes()

    def test_without_ranks_a_missing_cut_stays_missing(self):
        store, cuts = np.zeros(256), np.array([np.nan])
        counts, indices, _ = KERNELS.accumulate_scan(
            store, np.arange(256.0), None, 0.0, np.array([0, 256], dtype=np.int64),
            cuts, np.array([256], dtype=np.int64))
        assert np.isnan(cuts[0]) and counts.tolist() == [0] and not indices.size

    def test_ranks_must_match_the_blocks_and_cuts_be_writable(self):
        bounds, caps = np.array([0, 4], dtype=np.int64), np.array([4], dtype=np.int64)
        with pytest.raises(ValueError):
            KERNELS.accumulate_scan(np.zeros(4), np.ones(4), None, 0.0, bounds,
                                    np.array([np.nan]), caps,
                                    seed_ranks=np.array([1, 1], dtype=np.int64))
        with pytest.raises(ValueError):
            KERNELS.accumulate_scan(np.zeros(4), np.ones(4), None, 0.0, bounds,
                                    np.array([np.nan]), caps,
                                    seed_ranks=np.array([1.0]))
        frozen = np.array([np.nan])
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            KERNELS.accumulate_scan(np.zeros(4), np.ones(4), None, 0.0, bounds,
                                    frozen, caps,
                                    seed_ranks=np.array([1], dtype=np.int64))


@needs_kernels
class TestRejectsWhatItCannotRead:
    BOUNDS = np.array([0, 4], dtype=np.int64)
    CUTS = np.array([1.0])
    CAPS = np.array([4], dtype=np.int64)

    def call(self, store, addend, velocity=None, bounds=None, cuts=None, caps=None):
        return KERNELS.accumulate_scan(
            store, addend, velocity, 0.5,
            self.BOUNDS if bounds is None else bounds,
            self.CUTS if cuts is None else cuts,
            self.CAPS if caps is None else caps)

    def test_store_must_be_contiguous_writable_float64(self):
        addend = np.ones(4)
        with pytest.raises(ValueError):
            self.call(np.zeros(8)[::2], addend)
        with pytest.raises(ValueError):
            self.call(np.zeros(4, dtype=np.float32), addend)
        frozen = np.zeros(4)
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            self.call(frozen, addend)
        with pytest.raises(ValueError):
            self.call(np.zeros(4), addend, velocity=np.zeros(8)[::2])

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError):
            self.call(np.zeros(4), np.ones(5))
        with pytest.raises(ValueError):
            self.call(np.zeros(4), np.ones(4), velocity=np.zeros(3))

    @pytest.mark.parametrize("bounds", [[0, 3], [1, 4], [0, 5, 4], [0]])
    def test_bounds_must_cover_the_store(self, bounds):
        bounds = np.array(bounds, dtype=np.int64)
        blocks = max(bounds.shape[0] - 1, 0)
        with pytest.raises(ValueError):
            self.call(np.zeros(4), np.ones(4), bounds=bounds,
                      cuts=np.ones(blocks), caps=np.ones(blocks, dtype=np.int64))

    def test_one_cut_and_one_cap_per_block(self):
        with pytest.raises(ValueError):
            self.call(np.zeros(4), np.ones(4), cuts=np.ones(2))
        with pytest.raises(ValueError):
            self.call(np.zeros(4), np.ones(4), caps=np.array([-1], dtype=np.int64))
        with pytest.raises(ValueError):
            self.call(np.zeros(4), np.ones(4), caps=np.array([4.0]))

    def test_a_variant_the_cpu_lacks_is_an_error_not_a_crash(self):
        missing = [name for name in SIMD_LANES if name not in variants()]
        if not missing:
            pytest.skip("this CPU runs every variant")
        with pytest.raises(ValueError):
            KERNELS.accumulate_scan(np.zeros(4), np.ones(4), None, 0.0, self.BOUNDS,
                                    self.CUTS, self.CAPS, simd=missing[0])


class TestBuildRecipe:
    def test_flags_keep_products_and_sums_apart(self):
        assert "-ffp-contract=off" in ckernels._FLAGS

    def test_cache_key_covers_source_compiler_and_flags(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        base = ckernels._cache_path("int x;", "cc")
        assert base == ckernels._cache_path("int x;", "cc")
        assert base != ckernels._cache_path("int y;", "cc")
        assert base != ckernels._cache_path("int x;", "clang")
        monkeypatch.setattr(ckernels, "_FLAGS", ckernels._FLAGS + ("-g",))
        assert base != ckernels._cache_path("int x;", "cc")


class TestMarshalling:
    """Pointers travel as integers (``array.ctypes.data``); inputs are
    compacted only when they are not already contiguous."""

    def test_contiguous_inputs_are_passed_through_uncopied(self):
        array = np.arange(6, dtype=np.int64)
        assert ckernels._contiguous(array) is array
        strided = np.arange(12, dtype=np.int64)[::2]
        compact = ckernels._contiguous(strided)
        assert compact.flags.c_contiguous and not np.shares_memory(compact, strided)
        np.testing.assert_array_equal(compact, strided)

    @needs_kernels
    def test_merges_read_strided_views(self):
        ai, av = np.arange(0, 20, 2)[::2], np.arange(10.0)[::2]
        bi, bv = np.arange(0, 20, 4), np.ones(5)
        indices, merged = KERNELS.merge_many([ai, bi], [av, bv])
        np.testing.assert_array_equal(indices, [0, 4, 8, 12, 16])
        np.testing.assert_array_equal(merged, av + bv)
        indices, merged = KERNELS.merge_many([ai, bi, ai], [av, bv, av])
        np.testing.assert_array_equal(indices, [0, 4, 8, 12, 16])
        np.testing.assert_array_equal(merged, av + bv + av)
