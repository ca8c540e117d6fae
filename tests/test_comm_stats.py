"""Unit tests for communication statistics and the alpha-beta timing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.network import ETHERNET, PERFECT, RDMA, HeterogeneousNetwork, NetworkProfile
from repro.comm.stats import CommStats


class TestCommStats:
    def test_record_round_accumulates(self):
        stats = CommStats(num_workers=3)
        stats.record_round([(0, 1, 10.0), (2, 1, 5.0)])
        stats.record_round([(1, 0, 3.0)])
        assert stats.rounds == 2
        assert stats.total_messages == 3
        assert stats.received_per_worker == [3.0, 15.0, 0.0]
        assert stats.max_received == 15.0
        assert stats.per_round_max_received == [15.0, 3.0]

    def test_total_and_mean_volume(self):
        stats = CommStats(num_workers=2)
        stats.record_round([(0, 1, 4.0), (1, 0, 2.0)])
        assert stats.total_volume == 6.0
        assert stats.mean_received == 3.0

    def test_negative_size_rejected(self):
        stats = CommStats(num_workers=2)
        with pytest.raises(ValueError):
            stats.record_round([(0, 1, -1.0)])

    def test_rank_out_of_range_rejected(self):
        stats = CommStats(num_workers=2)
        with pytest.raises(ValueError):
            stats.record_round([(0, 5, 1.0)])

    def test_merge(self):
        a = CommStats(num_workers=2)
        a.record_round([(0, 1, 4.0)])
        b = CommStats(num_workers=2)
        b.record_round([(1, 0, 2.0)])
        a.merge(b)
        assert a.rounds == 2
        assert a.received_per_worker == [2.0, 4.0]

    def test_merge_size_mismatch(self):
        a = CommStats(num_workers=2)
        b = CommStats(num_workers=3)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_copy_is_independent(self):
        a = CommStats(num_workers=2)
        a.record_round([(0, 1, 4.0)])
        b = a.copy()
        b.record_round([(0, 1, 4.0)])
        assert a.rounds == 1
        assert b.rounds == 2

    def test_simulated_time_uses_per_round_maxima(self):
        stats = CommStats(num_workers=2)
        stats.record_round([(0, 1, 10.0)])
        stats.record_round([(1, 0, 20.0)])
        network = NetworkProfile("test", alpha=1.0, beta=0.1)
        assert stats.simulated_time(network) == pytest.approx(2.0 + 0.1 * 30.0)

    @pytest.mark.parametrize("network", [
        ETHERNET, RDMA, HeterogeneousNetwork(default=ETHERNET, overrides={1: RDMA}),
    ], ids=["ethernet", "rdma", "heterogeneous"])
    def test_empty_stats_cost_nothing(self, network):
        assert CommStats(num_workers=2).simulated_time(network) == 0.0

    @pytest.mark.parametrize("network", [
        ETHERNET, HeterogeneousNetwork(default=ETHERNET),
    ], ids=["uniform", "heterogeneous"])
    @pytest.mark.parametrize("volume_scale", [0.0, -1.0])
    def test_non_positive_volume_scale_rejected(self, network, volume_scale):
        stats = CommStats(num_workers=2)
        stats.record_round([(0, 1, 10.0)])
        with pytest.raises(ValueError, match="volume_scale"):
            stats.simulated_time(network, volume_scale)


class TestNetworkProfile:
    def test_total_time(self):
        net = NetworkProfile("n", alpha=2.0, beta=0.5)
        assert net.time(3, 10) == 11.0

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            NetworkProfile("bad", alpha=-1.0, beta=0.0)

    @given(alpha=st.floats(0.0, 1.0), beta=st.floats(0.0, 1e-4),
           rounds=st.integers(0, 64), volume=st.floats(0.0, 1e9))
    @settings(max_examples=40, deadline=None)
    def test_time_is_the_linear_model(self, alpha, beta, rounds, volume):
        net = NetworkProfile("n", alpha=alpha, beta=beta)
        assert net.time(rounds, volume) == alpha * rounds + beta * volume

    def test_scaled(self):
        net = ETHERNET.scaled(alpha_factor=0.5, beta_factor=2.0, name="custom")
        assert net.alpha == ETHERNET.alpha * 0.5
        assert net.beta == ETHERNET.beta * 2.0
        assert net.name == "custom"

    def test_builtin_profiles_ordering(self):
        # RDMA improves both latency and bandwidth over Ethernet.
        assert RDMA.alpha < ETHERNET.alpha
        assert RDMA.beta < ETHERNET.beta
        assert PERFECT.alpha == 0.0 and PERFECT.beta == 0.0


# ---------------------------------------------------------------------------
# property-based merge/expand round-trips (hypothesis)
# ---------------------------------------------------------------------------
# Integer message sizes keep every accumulation exact, so the merged-equals-
# sum-of-parts properties can assert strict equality instead of approx.


_P = 4  # fixed cluster size shared by every generated part


@st.composite
def comm_stats_parts(draw, max_parts=4, max_rounds=3, max_msgs=5):
    """A list of independently recorded CommStats windows of size ``_P``."""
    parts = []
    for _ in range(draw(st.integers(1, max_parts))):
        part = CommStats(num_workers=_P)
        for _ in range(draw(st.integers(0, max_rounds))):
            transfers = draw(st.lists(
                st.tuples(st.integers(0, _P - 1), st.integers(0, _P - 1),
                          st.integers(0, 100)),
                min_size=0, max_size=max_msgs))
            part.record_round([(s, d, float(size)) for s, d, size in transfers])
        part.dropped_messages = draw(st.integers(0, 3))
        part.retried_messages = draw(st.integers(0, 3))
        part.lost_messages = draw(st.integers(0, 3))
        part.fault_extra_rounds = draw(st.integers(0, 3))
        parts.append(part)
    return parts


class TestCommStatsProperties:
    @given(comm_stats_parts())
    @settings(max_examples=80, deadline=None)
    def test_merged_totals_equal_sum_of_parts(self, parts):
        total = CommStats.merged(_P, (part.copy() for part in parts))
        assert total.rounds == sum(p.rounds for p in parts)
        assert total.total_messages == sum(p.total_messages for p in parts)
        for w in range(_P):
            assert total.sent_per_worker[w] == sum(p.sent_per_worker[w] for p in parts)
            assert total.received_per_worker[w] == sum(p.received_per_worker[w]
                                                       for p in parts)
        assert total.dropped_messages == sum(p.dropped_messages for p in parts)
        assert total.retried_messages == sum(p.retried_messages for p in parts)
        assert total.lost_messages == sum(p.lost_messages for p in parts)
        assert total.fault_extra_rounds == sum(p.fault_extra_rounds for p in parts)
        assert total.total_volume == sum(p.total_volume for p in parts)

    @given(comm_stats_parts())
    @settings(max_examples=80, deadline=None)
    def test_merged_preserves_per_round_rows_in_order(self, parts):
        total = CommStats.merged(_P, (part.copy() for part in parts))
        expected_rows = [row for part in parts for row in part.per_round_received]
        assert total.per_round_received == expected_rows
        assert total.per_round_max_received == [
            value for part in parts for value in part.per_round_max_received]
        # The per-round series stays self-consistent after the merge.
        assert total.per_round_max_received == [
            max(row) if row else 0.0 for row in total.per_round_received]

    @given(comm_stats_parts())
    @settings(max_examples=60, deadline=None)
    def test_merged_rows_are_copies_not_aliases(self, parts):
        total = CommStats.merged(_P, parts)
        for row in total.per_round_received:
            row[0] += 1000.0
        for part in parts:
            for row in part.per_round_received:
                assert row[0] < 1000.0

    @given(comm_stats_parts())
    @settings(max_examples=60, deadline=None)
    def test_simulated_time_of_merge_is_sum_of_parts(self, parts):
        network = NetworkProfile("prop", alpha=3.0, beta=2.0)
        total = CommStats.merged(_P, (part.copy() for part in parts))
        assert total.simulated_time(network) == pytest.approx(
            sum(part.simulated_time(network) for part in parts))

    @given(comm_stats_parts())
    @settings(max_examples=60, deadline=None)
    def test_unit_volume_scale_is_the_unscaled_formula(self, parts):
        # alpha * rounds + beta * sum(per-round maxima), bit for bit: a
        # volume scale of 1.0 multiplies exactly.
        stats = CommStats.merged(_P, (part.copy() for part in parts))
        network = NetworkProfile("prop", alpha=0.3, beta=0.7)
        unscaled = (network.alpha * stats.rounds
                    + network.beta * sum(stats.per_round_max_received))
        assert stats.simulated_time(network) == unscaled
        assert stats.simulated_time(network, 1.0) == unscaled

    @given(comm_stats_parts())
    @settings(max_examples=60, deadline=None)
    def test_heterogeneous_without_overrides_prices_as_uniform(self, parts):
        stats = CommStats.merged(_P, (part.copy() for part in parts))
        network = NetworkProfile("prop", alpha=3.0, beta=2.0)
        for scale in (1.0, 2.5):
            assert stats.simulated_time(HeterogeneousNetwork(default=network), scale) \
                == pytest.approx(stats.simulated_time(network, scale))

    @given(comm_stats_parts(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_expand_round_trip_preserves_accounting(self, parts, extra):
        reference = CommStats.merged(_P, (part.copy() for part in parts))
        grown = reference.copy()
        grown.expand(_P + extra)
        assert grown.num_workers == _P + extra
        # Old slots keep their totals; new slots start empty.
        assert grown.sent_per_worker[:_P] == reference.sent_per_worker
        assert grown.received_per_worker[:_P] == reference.received_per_worker
        assert grown.sent_per_worker[_P:] == [0.0] * extra
        assert grown.received_per_worker[_P:] == [0.0] * extra
        # Historic rows keep the membership they were recorded under, so
        # the timing series is unchanged by the expansion.
        assert grown.per_round_received == reference.per_round_received
        assert grown.per_round_max_received == reference.per_round_max_received
        assert grown.total_volume == reference.total_volume
        # A part recorded at the new size now merges in cleanly.
        late = CommStats(num_workers=_P + extra)
        if extra:
            late.record_round([(0, _P + extra - 1, 7.0)])
        grown.merge(late)
        assert grown.rounds == reference.rounds + late.rounds
