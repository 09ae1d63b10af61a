"""Tests for message transport semantics."""

from __future__ import annotations

import numpy as np

from repro.sim.network import Network


class StubHook:
    """Scripted fault hook: maps (src, dst) to a fates tuple, default clean."""

    def __init__(self, fates=None, active=True):
        self.by_pair = fates or {}
        self.message_faults_active = active

    def message_fates(self, t, src, dst):
        return self.by_pair.get((src, dst), (1,))

    def fates(self, t, srcs, dsts):
        """The columnar hook: the per-pair tuples flattened to (idx, lat)."""
        idx, lat = [], []
        for i, (src, dst) in enumerate(zip(srcs.tolist(), dsts.tolist())):
            for latency in self.message_fates(t, src, dst):
                idx.append(i)
                lat.append(latency)
        return np.array(idx, dtype=np.int64), np.array(lat, dtype=np.int64)


class TestSendDeliver:
    def test_basic_delivery(self):
        net = Network()
        net.send(1, 2, "hello")
        edges, sent = net.close_send_phase()
        assert edges == [(1, 2)]
        assert sent == {1: 1}
        inboxes, received = net.deliver({1, 2})
        assert inboxes == {2: [(1, "hello")]}
        assert received == {2: 1}

    def test_churned_receiver_gets_nothing(self):
        """A node churned out before delivery receives nothing (immediacy)."""
        net = Network()
        net.send(1, 2, "hello")
        net.close_send_phase()
        inboxes, _ = net.deliver({1})  # 2 is gone
        assert inboxes == {}

    def test_churned_sender_messages_still_delivered(self):
        """Messages sent in t-1 by a node that leaves at t are delivered."""
        net = Network()
        net.send(1, 2, "bye")
        net.close_send_phase()
        inboxes, _ = net.deliver({2})  # 1 is gone
        assert inboxes == {2: [(1, "bye")]}

    def test_edges_recorded_even_for_dead_receivers(self):
        """The edge exists at send time; the adversary sees it regardless."""
        net = Network()
        net.send(1, 2, "x")
        edges, _ = net.close_send_phase()
        assert (1, 2) in edges

    def test_no_same_round_delivery(self):
        """A message sent this round is not in this round's delivery."""
        net = Network()
        inboxes, _ = net.deliver(set())
        assert inboxes == {}
        net.send(1, 2, "x")
        # Not yet closed: nothing pending for delivery.
        assert net.has_pending


class TestMulticast:
    def test_send_many(self):
        net = Network()
        net.send_many(1, [2, 3, 4], "m")
        edges, sent = net.close_send_phase()
        assert sorted(edges) == [(1, 2), (1, 3), (1, 4)]
        assert sent == {1: 3}
        inboxes, received = net.deliver({2, 3, 4})
        assert all(inboxes[d] == [(1, "m")] for d in (2, 3, 4))
        assert received == {2: 1, 3: 1, 4: 1}

    def test_payload_shared_not_copied(self):
        net = Network()
        payload = {"k": 1}
        net.send_many(1, [2, 3], payload)
        net.close_send_phase()
        inboxes, _ = net.deliver({2, 3})
        assert inboxes[2][0][1] is inboxes[3][0][1]

    def test_empty_multicast_noop(self):
        net = Network()
        net.send_many(1, [], "m")
        edges, sent = net.close_send_phase()
        assert edges == [] and sent == {}

    def test_partial_survivors(self):
        net = Network()
        net.send_many(1, [2, 3], "m")
        net.close_send_phase()
        inboxes, _ = net.deliver({3})
        assert inboxes == {3: [(1, "m")]}


class TestIdCoercion:
    def test_send_many_coerces_numpy_ids(self):
        """NumPy ids must not leak into trace edges (type-consistent with send)."""
        net = Network()
        net.send_many(1, np.array([2, 3], dtype=np.int64), "m")
        net.send(1, np.int64(4), "m")
        edges, _ = net.close_send_phase()
        assert sorted(edges) == [(1, 2), (1, 3), (1, 4)]
        assert all(type(dst) is int for _, dst in edges)
        inboxes, _ = net.deliver({2, 3, 4})
        assert all(type(dst) is int for dst in inboxes)


class TestFaultHook:
    def test_dropped_message_keeps_its_edge(self):
        net = Network()
        net.fault_hook = StubHook({(1, 2): ()})
        net.send(1, 2, "x")
        edges, _ = net.close_send_phase()
        assert edges == [(1, 2)]  # the adversary still observes the attempt
        inboxes, _ = net.deliver({1, 2})
        assert inboxes == {}
        assert not net.has_pending

    def test_delayed_message_arrives_later(self):
        net = Network()
        net.fault_hook = StubHook({(1, 2): (3,)})
        net.send(1, 2, "slow")
        net.close_send_phase()
        for _ in range(2):
            inboxes, _ = net.deliver({1, 2})
            assert inboxes == {}
            assert net.has_pending
        inboxes, _ = net.deliver({1, 2})
        assert inboxes == {2: [(1, "slow")]}
        assert not net.has_pending

    def test_delayed_message_respects_churn_at_delivery(self):
        net = Network()
        net.fault_hook = StubHook({(1, 2): (2,)})
        net.send(1, 2, "slow")
        net.close_send_phase()
        net.deliver({1, 2})
        inboxes, _ = net.deliver({1})  # 2 left while the message was in flight
        assert inboxes == {}

    def test_duplicate_delivers_two_copies(self):
        net = Network()
        net.fault_hook = StubHook({(1, 2): (1, 1)})
        net.send(1, 2, "x")
        net.close_send_phase()
        inboxes, received = net.deliver({2})
        assert inboxes == {2: [(1, "x"), (1, "x")]}
        assert received == {2: 2}

    def test_multicast_split_by_latency_shares_payload(self):
        net = Network()
        net.fault_hook = StubHook({(1, 3): (2,), (1, 4): ()})
        payload = {"k": 1}
        net.send_many(1, [2, 3, 4], payload)
        edges, _ = net.close_send_phase()
        assert sorted(edges) == [(1, 2), (1, 3), (1, 4)]
        first, _ = net.deliver({2, 3, 4})
        assert first == {2: [(1, payload)]}
        second, _ = net.deliver({2, 3, 4})
        assert second == {3: [(1, payload)]}
        assert second[3][0][1] is first[2][0][1]
        assert not net.has_pending

    def test_has_pending_drains_only_after_all_buckets(self):
        """Both queues (singles and multicasts), all latency buckets."""
        net = Network()
        net.fault_hook = StubHook({(1, 2): (3,), (5, 6): (2,)})
        net.send(1, 2, "late-single")
        net.send_many(5, [6, 7], "multi")
        net.close_send_phase()
        alive = {1, 2, 5, 6, 7}
        assert net.has_pending
        net.deliver(alive)  # round 1: only (5, 7) due
        assert net.has_pending
        net.deliver(alive)  # round 2: (5, 6) due
        assert net.has_pending
        inboxes, _ = net.deliver(alive)  # round 3: (1, 2) due
        assert inboxes == {2: [(1, "late-single")]}
        assert not net.has_pending

    def test_inactive_hook_uses_fast_path(self):
        net = Network()
        net.fault_hook = StubHook({(1, 2): ()}, active=False)
        net.send(1, 2, "x")
        net.close_send_phase()
        inboxes, _ = net.deliver({2})
        assert inboxes == {2: [(1, "x")]}


class Msg:
    """Stand-in routed message (the plane interns on identity)."""


class TestHopFates:
    """Fault fates on the hop plane: per-copy latencies, masks and repeats."""

    def test_delayed_and_fresh_copy_share_one_row(self):
        net = Network()
        net.fault_hook = StubHook({(1, 10): (2,)})
        m = Msg()
        net.send_hops(1, m, 0, [10])
        net.close_send_phase()
        net.deliver({10})
        assert net.hop_delivery.rows == {}
        net.send_hops(2, m, 0, [10])  # the same logical hop, one round later
        net.close_send_phase()
        _, received = net.deliver({10})
        delivery = net.hop_delivery
        assert delivery.msgs == [m]
        assert delivery.rows[10].tolist() == [0]
        assert delivery.counts == {10: 2}
        assert received == {10: 2}
        assert not net.has_pending

    def test_delayed_copy_to_churned_receiver_not_delivered(self):
        net = Network()
        net.fault_hook = StubHook({(1, 10): (2,)})
        net.send_hops(1, Msg(), 0, [10, 11])
        net.close_send_phase()
        net.deliver({10, 11})
        assert set(net.hop_delivery.rows) == {11}
        _, received = net.deliver({11})  # 10 left while its copy was delayed
        assert net.hop_delivery.rows == {}
        assert received == {}
        assert not net.has_pending

    def test_has_pending_drains_after_last_hop_bucket(self):
        net = Network()
        net.fault_hook = StubHook({(1, 10): (3,), (1, 11): (2,)})
        net.send_hops(1, Msg(), 0, [10, 11, 12])
        net.close_send_phase()
        alive = {10, 11, 12}
        for due in ({12}, {11}):
            assert net.has_pending
            net.deliver(alive)
            assert set(net.hop_delivery.rows) == due
        assert net.has_pending
        net.deliver(alive)
        assert set(net.hop_delivery.rows) == {10}
        assert not net.has_pending

    def test_dropped_hop_copy_keeps_its_edge(self):
        net = Network()
        net.fault_hook = StubHook({(1, 10): ()})
        net.send_hops(1, Msg(), 0, [10, 11])
        edges, sent = net.close_send_phase()
        assert list(edges) == [(1, 10), (1, 11)]
        assert sent == {1: 2}
        _, received = net.deliver({10, 11})
        assert set(net.hop_delivery.rows) == {11}
        assert received == {11: 1}
        assert not net.has_pending

    def test_duplicate_raises_count_not_rows(self):
        net = Network()
        net.fault_hook = StubHook({(1, 10): (1, 1)})
        m = Msg()
        net.send_hops(1, m, 0, [10])
        net.close_send_phase()
        _, received = net.deliver({10})
        assert net.hop_delivery.rows[10].tolist() == [0]
        assert net.hop_delivery.counts == {10: 2}
        assert received == {10: 2}

    def test_copy_sequence_is_singles_multicasts_hops(self):
        seen = []

        class Recorder(StubHook):
            def fates(self, t, srcs, dsts):
                seen.append(list(zip(srcs.tolist(), dsts.tolist())))
                return super().fates(t, srcs, dsts)

        net = Network()
        net.fault_hook = Recorder()
        net.send_hops(1, Msg(), 0, [5])
        net.send_many(2, [6, 7], "m")
        net.send(3, 8, "s")
        net.send_singles_batch(4, [(9, "a"), (10, "b")])
        net.close_send_phase()
        assert seen == [[(3, 8), (4, 9), (4, 10), (2, 6), (2, 7), (1, 5)]]


class TestRoundIsolation:
    def test_counts_reset_between_rounds(self):
        net = Network()
        net.send(1, 2, "a")
        net.close_send_phase()
        _, sent = net.close_send_phase()
        assert sent == {}

    def test_pending_cleared_after_delivery(self):
        net = Network()
        net.send(1, 2, "a")
        net.close_send_phase()
        net.deliver({2})
        inboxes, _ = net.deliver({2})
        assert inboxes == {}
