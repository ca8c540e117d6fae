"""Unit tests for residual collection policies (Section III-C)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.residuals import ResidualManager, ResidualPolicy, ResidualStore
from repro.sparse.vector import SparseGradient


class TestResidualPolicy:
    def test_coerce_from_string(self):
        assert ResidualPolicy.coerce("global") is ResidualPolicy.GLOBAL
        assert ResidualPolicy.coerce("PARTIAL") is ResidualPolicy.PARTIAL
        assert ResidualPolicy.coerce(ResidualPolicy.LOCAL) is ResidualPolicy.LOCAL

    def test_coerce_invalid(self):
        with pytest.raises(ValueError):
            ResidualPolicy.coerce("bogus")


class TestResidualStore:
    def test_add_dense_with_offset(self):
        store = ResidualStore(6)
        store.add_dense(np.array([1.0, 2.0]), offset=2)
        np.testing.assert_allclose(store.peek(), [0, 0, 1, 2, 0, 0])

    def test_add_sparse_with_share(self):
        store = ResidualStore(4)
        sparse = SparseGradient(np.array([1, 3]), np.array([2.0, 4.0]), 4)
        store.add_sparse(sparse, share=0.5)
        np.testing.assert_allclose(store.peek(), [0, 1, 0, 2])

    def test_take_returns_values_and_zeroes_slots(self):
        store = ResidualStore(4)
        store.add_dense(np.array([1.0, -2.0, 3.0, 4.0]))
        taken = store.take(np.array([1, 3]))
        np.testing.assert_array_equal(taken, [-2.0, 4.0])
        np.testing.assert_array_equal(store.peek(), [1, 0, 3, 0])

    def test_peek_is_a_copy(self):
        store = ResidualStore(3)
        store.add_dense(np.ones(3))
        snapshot = store.peek()
        store.take(np.array([0]))
        np.testing.assert_array_equal(snapshot, [1, 1, 1])

    def test_accumulates_across_adds(self):
        store = ResidualStore(2)
        store.add_dense(np.array([1.0, 0.0]))
        store.add_dense(np.array([2.0, 1.0]))
        np.testing.assert_allclose(store.peek(), [3, 1])

    def test_norm(self):
        store = ResidualStore(2)
        store.add_dense(np.array([3.0, 4.0]))
        assert store.norm() == pytest.approx(5.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ResidualStore(0)


class TestResidualManagerApply:
    def test_apply_adds_in_place_and_take_leaves_the_residual(self):
        manager = ResidualManager(2, 3, ResidualPolicy.GLOBAL)
        manager.collect_local(0, np.array([1.0, 0.0, 0.0]))
        gradients = {0: np.array([0.0, 2.0, -3.0]), 1: np.ones(3)}
        kept = {rank: grad.copy() for rank, grad in gradients.items()}
        corrected = manager.apply(gradients)
        np.testing.assert_array_equal(corrected[0], [1, 2, -3])
        np.testing.assert_array_equal(corrected[1], [1, 1, 1])
        # the store holds g + r (apply does not drain) ...
        np.testing.assert_array_equal(manager.store(0).peek(), [1, 2, -3])
        # ... the caller's arrays are untouched ...
        for rank in gradients:
            np.testing.assert_array_equal(gradients[rank], kept[rank])
        # ... and a selection takes its picks out, leaving the local residual
        selected = manager.take(0, np.array([1, 2]))
        np.testing.assert_array_equal(selected.indices, [1, 2])
        np.testing.assert_array_equal(selected.values, [2, -3])
        assert selected.length == 3
        np.testing.assert_array_equal(manager.store(0).peek(), [1, 0, 0])
        # the next apply corrects with exactly that residual
        corrected = manager.apply({0: np.zeros(3), 1: np.zeros(3)})
        np.testing.assert_array_equal(corrected[0], [1, 0, 0])

    def test_release_hands_out_the_buffer_and_keeps_only_the_error(self):
        manager = ResidualManager(1, 3, ResidualPolicy.GLOBAL)
        corrected = manager.apply({0: np.array([1.0, 2.0, 3.0])})
        sent = manager.release(0)
        assert sent is corrected[0]
        np.testing.assert_array_equal(sent, [1, 2, 3])
        np.testing.assert_array_equal(manager.total_residual(), np.zeros(3))
        manager.apply({0: np.ones(3)})
        manager.release(0, np.array([0.5, 0.0, -0.5]))
        np.testing.assert_array_equal(manager.total_residual(), [0.5, 0, -0.5])

    def test_none_policy_keeps_nothing_of_a_selection(self):
        manager = ResidualManager(1, 3, ResidualPolicy.NONE)
        manager.apply({0: np.array([1.0, 2.0, 3.0])})
        manager.take(0, np.array([2]))
        manager.finalize(np.array([2]))
        np.testing.assert_array_equal(manager.total_residual(), np.zeros(3))
        manager.apply({0: np.ones(3)})
        manager.release(0, np.full(3, 0.25))
        np.testing.assert_array_equal(manager.total_residual(), np.zeros(3))


class TestResidualManagerPolicies:
    def _dropped(self):
        return SparseGradient(np.array([1]), np.array([5.0]), 4)

    def test_global_collects_procedure_discards_immediately(self):
        manager = ResidualManager(2, 4, ResidualPolicy.GLOBAL)
        manager.collect_procedure(0, self._dropped())
        np.testing.assert_allclose(manager.store(0).peek(), [0, 5, 0, 0])

    def test_partial_defers_until_finalize(self):
        manager = ResidualManager(2, 4, ResidualPolicy.PARTIAL)
        manager.collect_procedure(0, self._dropped())
        np.testing.assert_allclose(manager.store(0).peek(), [0, 0, 0, 0])
        # Index 1 absent from the final gradient -> end-procedure residual, kept.
        manager.finalize(final_indices=[2, 3])
        np.testing.assert_allclose(manager.store(0).peek(), [0, 5, 0, 0])

    def test_partial_drops_in_procedure_residuals(self):
        manager = ResidualManager(2, 4, ResidualPolicy.PARTIAL)
        manager.collect_procedure(0, self._dropped())
        # Index 1 present in the final gradient -> in-procedure residual, lost.
        manager.finalize(final_indices=[1, 2])
        np.testing.assert_allclose(manager.store(0).peek(), [0, 0, 0, 0])

    def test_partial_finalize_accepts_ndarray(self):
        manager = ResidualManager(2, 4, ResidualPolicy.PARTIAL)
        manager.collect_procedure(0, self._dropped())
        manager.finalize(final_indices=np.array([2, 3], dtype=np.int64))
        np.testing.assert_allclose(manager.store(0).peek(), [0, 5, 0, 0])

    def test_partial_finalize_accepts_duplicated_final_indices(self):
        manager = ResidualManager(2, 4, ResidualPolicy.PARTIAL)
        manager.collect_procedure(0, self._dropped())
        manager.finalize(final_indices=[1, 1, 2, 2])
        np.testing.assert_allclose(manager.store(0).peek(), [0, 0, 0, 0])

    def test_partial_finalize_with_none_keeps_everything(self):
        manager = ResidualManager(2, 4, ResidualPolicy.PARTIAL)
        manager.collect_procedure(0, self._dropped())
        manager.finalize(final_indices=None)
        np.testing.assert_allclose(manager.store(0).peek(), [0, 5, 0, 0])

    def test_local_ignores_procedure_discards(self):
        manager = ResidualManager(2, 4, ResidualPolicy.LOCAL)
        manager.collect_procedure(0, self._dropped())
        manager.finalize(final_indices=[])
        np.testing.assert_allclose(manager.store(0).peek(), [0, 0, 0, 0])

    def test_local_keeps_local_discards(self):
        manager = ResidualManager(2, 4, ResidualPolicy.LOCAL)
        manager.collect_local(0, np.array([0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(manager.store(0).peek(), [0, 1, 0, 0])

    def test_none_ignores_everything(self):
        manager = ResidualManager(2, 4, ResidualPolicy.NONE)
        manager.collect_local(0, np.ones(4))
        manager.collect_procedure(0, self._dropped())
        manager.finalize(final_indices=[])
        np.testing.assert_allclose(manager.total_residual(), np.zeros(4))

    def test_share_is_applied(self):
        manager = ResidualManager(2, 4, ResidualPolicy.GLOBAL)
        manager.collect_procedure(1, self._dropped(), share=0.25)
        np.testing.assert_allclose(manager.store(1).peek(), [0, 1.25, 0, 0])

    def test_total_residual_sums_workers(self):
        manager = ResidualManager(2, 4, ResidualPolicy.GLOBAL)
        manager.collect_local(0, np.array([1.0, 0, 0, 0]))
        manager.collect_local(1, np.array([0.0, 2.0, 0, 0]))
        np.testing.assert_allclose(manager.total_residual(), [1, 2, 0, 0])

    def test_residual_norms(self):
        manager = ResidualManager(2, 4, ResidualPolicy.GLOBAL)
        manager.collect_local(0, np.array([3.0, 4.0, 0, 0]))
        norms = manager.residual_norms()
        assert norms[0] == pytest.approx(5.0)
        assert norms[1] == 0.0

    def test_string_policy_accepted(self):
        manager = ResidualManager(1, 4, "partial")
        assert manager.policy is ResidualPolicy.PARTIAL

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ResidualManager(0, 4)
