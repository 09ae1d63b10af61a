"""Edge-case tests for the maintenance node (defensive behaviour)."""

from __future__ import annotations

import pytest

from repro.config import ProtocolParams
from repro.core.messages import CreateBatch, JoinBatch, JoinRecord, TokenGrant
from repro.core.node import MaintenanceNode, Phase
from repro.routing.messages import make_routed_message
from repro.sim.engine import EngineServices, NodeContext
from repro.sim.hopplane import HopPlane
from repro.sim.network import Network
from repro.util.rngs import RngService


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(n=48, c=1.2, r=2, delta=3, tau=6, seed=31)


@pytest.fixture
def services(params) -> EngineServices:
    svc = RngService(params.seed)
    return EngineServices(params=params, rng=svc, position_hash=svc.position_hash())


def ctx_for(node, services, t, inbox):
    net = Network()
    return (
        NodeContext(
            node_id=node.id,
            t=t,
            inbox=inbox,
            rng=services.rng.node_stream(node.id),
            params=services.params,
            joined_round=0,
            network=net,
        ),
        net,
    )


def hop_ctx_for(node, services, t, arrivals):
    """A context whose hops arrive through a :class:`HopPlane`.

    ``arrivals`` holds one ``(sender, msg, step)`` copy each, sent in order
    and delivered the way the engine does: ``send`` -> ``close_round`` ->
    ``deliver``.
    """
    plane = HopPlane()
    for sender, msg, step in arrivals:
        plane.send(sender, msg, step, [node.id])
    delivery = plane.close_round().deliver({node.id})
    net = Network()
    return (
        NodeContext(
            node_id=node.id,
            t=t,
            inbox=[],
            rng=services.rng.node_stream(node.id),
            params=services.params,
            joined_round=0,
            network=net,
            hops=delivery.rows[node.id],
            hop_delivery=delivery,
        ),
        net,
    )


def make_msg(services, params, payload=None, target=0.5, rank=None):
    return make_routed_message(
        msg_id=("probe", "x", 99),
        origin=99,
        origin_position=0.4,
        target=target,
        lam=params.lam,
        start_round=0,
        sample_rank=rank,
        payload=payload if payload is not None else ("probe", "x"),
    )


class TestHopEdgeCases:
    def test_fresh_node_ignores_hops(self, services, params):
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        msg = make_msg(services, params)
        ctx, net = hop_ctx_for(node, services, 11, [(2, msg, 2)])
        node.on_round(ctx)
        edges, _ = net.close_send_phase()
        assert edges == []

    def test_duplicate_hops_forwarded_once(self, services, params):
        # A ring-spanning neighbourhood guarantees the next trajectory point
        # has known swarm members, so the forwarding must happen — exactly
        # once (r copies) despite three identical arrivals.
        node = MaintenanceNode(1, services)
        dense = {i: (i - 2) / 60 for i in range(2, 62)}
        node.prime(epoch=5, pos=0.5, neighbors=dense)
        msg = make_msg(services, params)
        ctx, net = hop_ctx_for(
            node, services, 10, [(2, msg, 2), (3, msg, 2), (4, msg, 2)]
        )
        node.on_round(ctx)
        _, sent = net.close_send_phase()
        # Launches go out next odd round, so all sends here are hop copies.
        assert sent.get(1, 0) == params.r

    def test_final_hop_at_even_round_is_defensively_dropped(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        msg = make_msg(services, params)
        ctx, net = hop_ctx_for(node, services, 10, [(2, msg, params.lam + 1)])
        node.on_round(ctx)  # must not raise
        assert node.delivered == []

    def test_probe_delivery_recorded_at_odd_round(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        msg = make_msg(services, params)
        ctx, _ = hop_ctx_for(node, services, 11, [(2, msg, params.lam + 1)])
        node.on_round(ctx)
        assert node.delivered and node.delivered[0][0] == ("probe", "x")

    def test_token_with_wrong_rank_ignored(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        msg = make_msg(
            services, params, payload=("token", 7), target=0.5, rank=10_000
        )
        ctx, _ = hop_ctx_for(node, services, 11, [(2, msg, params.lam + 1)])
        node.on_round(ctx)
        assert all(owner != 7 for _, owner in node.tokens)

    def test_unknown_payload_recorded_not_crashed(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        msg = make_msg(services, params, payload="mystery")
        ctx, _ = hop_ctx_for(node, services, 11, [(2, msg, params.lam + 1)])
        node.on_round(ctx)
        assert ("mystery", 11) in node.delivered


class TestRecordEdgeCases:
    def test_empty_create_batch_still_cuts_over(self, services, params):
        """An empty batch signals the cutover even with no neighbours yet."""
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        e = params.lam + 6
        # CreateBatch with one record of the right epoch for another node
        # plus self-only implies empty neighbourhood for us; send one real
        # record so the batch is non-trivial.
        recs = (JoinRecord(2, 0.3, e),)
        ctx, _ = ctx_for(node, services, 2 * e, [(9, CreateBatch(recs))])
        node.on_round(ctx)
        assert node.phase is Phase.ESTABLISHED
        assert node.epoch == e

    def test_own_record_excluded_from_neighbors(self, services, params):
        node = MaintenanceNode(1, services)
        e = params.lam + 6
        recs = (JoinRecord(1, 0.4, e), JoinRecord(2, 0.3, e))
        ctx, _ = ctx_for(node, services, 2 * e, [(9, CreateBatch(recs))])
        node.on_round(ctx)
        assert 1 not in node.d_nbrs and 2 in node.d_nbrs

    def test_join_batches_ignored_when_not_established(self, services, params):
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        batch = JoinBatch((JoinRecord(7, 0.2, 6),))
        ctx, net = ctx_for(node, services, 11, [(2, batch)])
        node.on_round(ctx)
        edges, _ = net.close_send_phase()
        assert edges == []  # no matchmaking from outside the overlay

    def test_grant_on_established_node_adds_tokens_only(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        ctx, _ = ctx_for(node, services, 11, [(2, TokenGrant((8, 9)))])
        node.on_round(ctx)
        assert node.phase is Phase.ESTABLISHED
        assert {o for _, o in node.tokens} >= {8, 9}


class TestPipelineBookkeeping:
    def test_primed_node_never_reconnects(self, services, params):
        """Bootstrap-primed nodes have no pipeline gap to bridge."""
        node = MaintenanceNode(1, services)
        node.prime(epoch=0, pos=0.5, neighbors={2: 0.51})
        node.tokens = [(100, 5), (100, 6), (100, 7)]
        ctx, net = ctx_for(node, services, 2, [])
        node.on_round(ctx)
        from repro.core.messages import ConnectMsg

        _, sent = net.close_send_phase()
        inboxes, _ = net.deliver(frozenset(range(100)))
        connects = [
            m for msgs in inboxes.values() for _, m in msgs if isinstance(m, ConnectMsg)
        ]
        assert connects == []

    def test_newly_established_keeps_connecting(self, services, params):
        """A freshly promoted node bridges its pipeline with CONNECTs."""
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        node.tokens = [(1000, 5), (1000, 6), (1000, 7)]
        e = params.lam + 6
        ctx, _ = ctx_for(node, services, 2 * e, [(9, CreateBatch((JoinRecord(2, 0.3, e),)))])
        node.on_round(ctx)
        assert node.phase is Phase.ESTABLISHED
        ctx, net = ctx_for(node, services, 2 * e + 2, [])
        node.on_round(ctx)
        from repro.core.messages import ConnectMsg

        net.close_send_phase()
        inboxes, _ = net.deliver(frozenset(range(100)))
        connects = [
            m for msgs in inboxes.values() for _, m in msgs if isinstance(m, ConnectMsg)
        ]
        assert connects  # still bridging the pipeline


def even_filing(node, services, t, arrivals):
    """Run one even round on ``arrivals`` and return the hops it filed.

    Returns the outgoing plane's send columns with each row resolved to its
    ``(message, step)`` hop: ``(srcs, hops, lens, flat)``.
    """
    ctx, net = hop_ctx_for(node, services, t, arrivals)
    node.on_round(ctx)
    _, msgs, steps, srcs, rows, lens, flat = net.plane.columns()
    hops = [(msgs[row], steps[row]) for row in rows]
    filed = (list(srcs), hops, list(lens), list(flat))
    _, sent = net.close_send_phase()
    assert sent.get(node.id, 0) == len(filed[3])  # count_hop_sends matches
    return filed


class TestEvenHopFiling:
    """Exact plane columns filed by even-round forwarding (``_even_hops``)."""

    # Swarm radius at n=48, c=1.2: lam=6, rho = c*lam/n = 0.15.
    NBRS = {2: 0.02, 3: 0.05, 4: 0.95, 5: 0.98, 6: 0.40, 7: 0.32, 8: 0.62}

    def final(self, services, params, target):
        """A probe one step short of its final swarm."""
        msg = make_msg(services, params, target=target)
        return msg, msg.final_step - 1

    def test_final_window_wrapping_the_ring(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors=self.NBRS)
        msg, k = self.final(services, params, 0.0)
        # Window [0.85, 0.15] starts at its counter-clockwise end; the
        # holder (at 0.5) lies outside it, so nothing is skipped (rank -1).
        assert even_filing(node, services, 10, [(9, msg, k)]) == (
            [1], [(msg, k + 1)], [4], [4, 5, 2, 3]
        )

    def test_final_skips_the_holders_own_slot(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors=self.NBRS)
        mid_rank, last_rank = (self.final(services, params, p) for p in (0.5, 0.45))
        # [0.35, 0.65] holds 6, 1, 8 (holder in the middle); [0.30, 0.60]
        # holds 7, 6, 1 (holder last).
        assert even_filing(node, services, 10, [(9, *mid_rank), (9, *last_rank)]) == (
            [1, 1],
            [(mid_rank[0], mid_rank[1] + 1), (last_rank[0], last_rank[1] + 1)],
            [2, 2],
            [6, 8, 7, 6],
        )

    def test_full_ring_window(self):
        params = ProtocolParams(n=8, c=1.5, r=2, delta=3, tau=6, seed=31)
        assert params.swarm_radius >= 0.5
        svc = RngService(params.seed)
        services = EngineServices(
            params=params, rng=svc, position_hash=svc.position_hash()
        )
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.1, 3: 0.7, 4: 0.3})
        msg, k = self.final(services, params, 0.9)
        # Every member, in ring-position order from slot 0, minus self.
        assert even_filing(node, services, 10, [(9, msg, k)]) == (
            [1], [(msg, k + 1)], [3], [2, 4, 3]
        )

    def test_window_of_only_the_holder_files_nothing(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.1, 3: 0.9})
        msg, k = self.final(services, params, 0.5)
        assert even_filing(node, services, 10, [(9, msg, k)]) == ([], [], [], [])

    def mid(self, params, point):
        """A probe whose next trajectory point (from step 1) is ``point``."""
        msg = make_routed_message(
            msg_id=("probe", "mid", point),
            origin=99,
            origin_position=0.4,
            target=0.5,
            lam=params.lam,
            start_round=0,
            payload=("probe", "mid"),
            trajectory_fn=lambda src, dst, lam: (src, src, point)
            + (dst,) * (lam - 1),
        )
        return msg, 1

    def test_empty_mid_window_between_finals(self, services, params):
        # Members sit around the first mid's next point and around the two
        # final targets; the second mid's next point, half a ring away,
        # has an empty window and files nothing.
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.52, 3: 0.7, 4: 0.3})
        full, empty = self.mid(params, 0.5), self.mid(params, 0.0)
        fin1, fin2 = self.final(services, params, 0.7), self.final(services, params, 0.3)
        srcs, hops, lens, flat = even_filing(
            node, services, 10, [(9, *fin1), (9, *full), (9, *empty), (9, *fin2)]
        )
        assert srcs == [1, 1, 1]
        assert hops == [
            (fin1[0], fin1[1] + 1), (full[0], full[1] + 1), (fin2[0], fin2[1] + 1)
        ]
        assert lens == [1, params.r, 1]
        assert flat[0] == 3 and flat[-1] == 4
        assert set(flat[1:-1]) <= {1, 2}  # r random picks from S(0.5)
