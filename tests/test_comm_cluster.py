"""Unit tests for the simulated cluster and message accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.cluster import Message, SimulatedCluster, payload_size
from repro.comm.packed import PackedBags
from repro.compression.quantization import QuantizedCompressor
from repro.sparse.vector import SparseGradient


class TestPayloadSize:
    def test_none_is_free(self):
        assert payload_size(None) == 0.0

    def test_array_counts_elements(self):
        assert payload_size(np.zeros((3, 4))) == 12.0

    def test_one_bag_pack_counts_two_per_entry(self):
        sparse = SparseGradient(np.array([0, 1]), np.array([1.0, 2.0]), 5)
        assert payload_size(PackedBags.pack([sparse])) == 4.0

    def test_list_sums_items(self):
        items = [np.zeros(3),
                 PackedBags.pack([SparseGradient(np.array([0]), np.array([1.0]), 5)])]
        assert payload_size(items) == 5.0

    def test_bare_sparse_gradient_raises(self):
        """Sparse gradient mass travels only as PackedBags: a bare
        SparseGradient is not sized (nor priced) by duck-typing."""
        sparse = SparseGradient(np.array([0, 1]), np.array([1.0, 2.0]), 5)
        for payload in (sparse, [sparse], (3, sparse)):
            with pytest.raises(TypeError):
                payload_size(payload)
            with pytest.raises(TypeError):
                QuantizedCompressor(8, num_workers=2).price(payload)
            with pytest.raises(TypeError):
                Message(src=0, dst=1, payload=payload)

    def test_scalar_counts_one(self):
        assert payload_size(3.5) == 1.0
        assert payload_size(7) == 1.0

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            payload_size(object())


class TestMessage:
    def test_size_derived_from_payload(self):
        message = Message(src=0, dst=1, payload=np.zeros(5))
        assert message.size == 5.0

    def test_explicit_size_wins(self):
        message = Message(src=0, dst=1, payload=np.zeros(5), size=2.0)
        assert message.size == 2.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(src=0, dst=1, payload=None, size=-1.0)


class TestSimulatedCluster:
    def test_requires_positive_workers(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0)

    def test_exchange_delivers_payloads(self, cluster4):
        inboxes = cluster4.exchange([Message(src=0, dst=1, payload=np.arange(3.0))])
        assert list(inboxes) == [1]
        np.testing.assert_array_equal(inboxes[1][0].payload, [0.0, 1.0, 2.0])

    def test_exchange_counts_one_round(self, cluster4):
        cluster4.exchange([Message(src=0, dst=1, payload=np.zeros(2)),
                           Message(src=2, dst=3, payload=np.zeros(7))])
        assert cluster4.stats.rounds == 1
        assert cluster4.stats.total_messages == 2

    def test_empty_exchange_counts_no_round(self, cluster4):
        assert cluster4.exchange([]) == {}
        assert cluster4.stats.rounds == 0

    def test_self_message_rejected(self, cluster4):
        with pytest.raises(ValueError):
            cluster4.exchange([Message(src=1, dst=1, payload=np.zeros(2))])

    def test_out_of_range_rank_rejected(self, cluster4):
        with pytest.raises(ValueError):
            cluster4.exchange([Message(src=0, dst=7, payload=None)])

    def test_received_volume_recorded_per_worker(self, cluster4):
        cluster4.exchange([Message(src=0, dst=1, payload=np.zeros(10)),
                           Message(src=2, dst=1, payload=np.zeros(5)),
                           Message(src=3, dst=0, payload=np.zeros(2))])
        assert cluster4.stats.received_per_worker[1] == 15.0
        assert cluster4.stats.received_per_worker[0] == 2.0
        assert cluster4.stats.sent_per_worker[0] == 10.0

    def test_reset_stats_returns_and_clears(self, cluster4):
        cluster4.exchange([Message(src=0, dst=1, payload=np.zeros(3))])
        old = cluster4.reset_stats()
        assert old.rounds == 1
        assert cluster4.stats.rounds == 0

    def test_exchange_keyed_by_source(self, cluster4):
        inboxes = cluster4.exchange([Message(src=0, dst=1, payload=np.arange(2.0)),
                                     Message(src=1, dst=0, payload=np.arange(3.0))])
        assert set(inboxes) == {0, 1}
        assert [m.src for m in inboxes[0]] == [1]
        assert inboxes[0][0].payload.shape == (3,)
        assert inboxes[1][0].payload.shape == (2,)

    def test_exchange_multiple_to_same_destination(self, cluster4):
        inboxes = cluster4.exchange([Message(src=0, dst=2, payload=1.0),
                                     Message(src=1, dst=2, payload=2.0)])
        assert {m.src: m.payload for m in inboxes[2]} == {0: 1.0, 1: 2.0}

    def test_exchange_single_list_payload_is_unambiguous(self, cluster4):
        # A single received payload that *is* a list stays distinguishable
        # from two separate payloads: each message is its own inbox entry.
        inboxes = cluster4.exchange([Message(src=0, dst=2, payload=[1.0, 2.0])])
        assert len(inboxes[2]) == 1
        assert inboxes[2][0].src == 0
        assert inboxes[2][0].payload == [1.0, 2.0]

    def test_ranks_property(self, cluster6):
        assert list(cluster6.ranks) == [0, 1, 2, 3, 4, 5]


class TestPayloadAliasing:
    """Receivers must never be able to mutate sender-owned memory."""

    def test_received_array_is_read_only(self, cluster4):
        source = np.arange(6.0)
        inboxes = cluster4.exchange([Message(src=0, dst=1, payload=source[2:5])])
        received = inboxes[1][0].payload
        with pytest.raises(ValueError):
            received += 1.0
        np.testing.assert_array_equal(source, np.arange(6.0))

    def test_sender_view_stays_writable(self, cluster4):
        # Freezing happens on a delivered *view*; the sender's own array (and
        # the very slice it sent) must remain writable.
        source = np.arange(6.0)
        chunk = source[2:5]
        cluster4.exchange([Message(src=0, dst=1, payload=chunk)])
        chunk += 1.0  # must not raise
        assert source[2] == 3.0

    def test_arrays_nested_in_tuples_and_lists_are_frozen(self, cluster4):
        payload = (3, [np.zeros(4), np.ones(2)])
        inboxes = cluster4.exchange([Message(src=0, dst=1, payload=payload, size=6.0)])
        offset, arrays = inboxes[1][0].payload
        assert offset == 3
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 99.0
