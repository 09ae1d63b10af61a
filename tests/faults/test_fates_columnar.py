"""The columnar fate pass equals the scalar fates of the same copies, in order."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    AsymmetricPartition,
    FaultPlan,
    LatencyMatrix,
    MessageFaults,
    NodeStall,
    RateCap,
    RingPartition,
)
from repro.util.rngs import RngService

PLANS = {
    "drop": FaultPlan(seed=3, messages=(MessageFaults(drop_p=0.3),)),
    "delay": FaultPlan(seed=3, messages=(MessageFaults(delay_p=0.4, delay_rounds=2),)),
    "duplicate": FaultPlan(seed=3, messages=(MessageFaults(duplicate_p=0.4),)),
    "two-rules": FaultPlan(
        seed=4,
        messages=(
            MessageFaults(drop_p=0.2),
            MessageFaults(delay_p=0.3, delay_rounds=3, duplicate_p=0.3),
        ),
    ),
    "ratecap-duplicates": FaultPlan(
        seed=5,
        messages=(MessageFaults(duplicate_p=0.5),),
        ratecaps=(
            RateCap(limit=3, defer_rounds=2),
            RateCap(limit=1, defer_rounds=1, nodes=frozenset({2, 5})),
        ),
    ),
    "partition": FaultPlan(
        seed=6,
        messages=(MessageFaults(drop_p=0.2, delay_p=0.2),),
        partitions=(RingPartition(lo=0.1, hi=0.6),),
    ),
    "latency-matrix": FaultPlan(
        seed=7,
        latencies=(LatencyMatrix(delays=((0, 1, 3), (1, 0, 2), (3, 2, 0))),),
    ),
    "asymmetric": FaultPlan(
        seed=8,
        messages=(MessageFaults(duplicate_p=0.2),),
        asymmetric=(AsymmetricPartition(lo=0.7, hi=0.2),),
    ),
}


def copies(t: int) -> tuple[list[int], list[int]]:
    """A round's frozen copies: repeated sources, so budgets and pairs recur."""
    rng = np.random.default_rng(100 + t)
    srcs = rng.integers(0, 12, size=300).tolist()
    dsts = rng.integers(0, 12, size=300).tolist()
    return srcs, dsts


def injector(plan: FaultPlan) -> FaultInjector:
    return FaultInjector(plan, position_hash=RngService(3).position_hash())


@pytest.mark.parametrize("name", sorted(PLANS))
def test_columnar_fates_equal_scalar_fates(name):
    plan = PLANS[name]
    columnar, scalar = injector(plan), injector(plan)
    for t in (0, 1, 4):
        columnar.begin_round(t)
        scalar.begin_round(t)
        srcs, dsts = copies(t)
        # Two calls per round: sequence numbers and budgets carry over.
        cut = 170
        idx_a, lat_a = columnar.fates(t, srcs[:cut], dsts[:cut])
        idx_b, lat_b = columnar.fates(t, srcs[cut:], dsts[cut:])
        idx = idx_a.tolist() + (idx_b + cut).tolist()
        lat = lat_a.tolist() + lat_b.tolist()
        expected = [scalar.message_fates(t, s, d) for s, d in zip(srcs, dsts)]
        assert idx == [j for j, fates in enumerate(expected) for _ in fates]
        assert lat == [latency for fates in expected for latency in fates]
        assert columnar.round_stats() == scalar.round_stats()
        assert columnar.round_stats() is not None  # the plan really fired


def test_ratecap_charges_duplicates_in_copy_order():
    plan = FaultPlan(
        seed=5,
        messages=(MessageFaults(duplicate_p=1.0),),
        ratecaps=(RateCap(limit=3, defer_rounds=2),),
    )
    inj = injector(plan)
    inj.begin_round(0)
    idx, lat = inj.fates(0, [1, 1, 1], [2, 3, 4])
    assert idx.tolist() == [0, 0, 1, 1, 2, 2]
    assert lat.tolist() == [1, 1, 1, 3, 3, 3]
    assert inj.round_stats().deferred == 3


def test_stalled_nodes_equal_scalar_stalls():
    plan = FaultPlan(
        seed=2,
        stalls=(NodeStall(stall_p=0.3), NodeStall(stall_p=0.5, nodes=frozenset({3, 4}))),
    )
    columnar, scalar = injector(plan), injector(plan)
    for t in range(6):
        columnar.begin_round(t)
        scalar.begin_round(t)
        nodes = list(range(20))
        assert columnar.stalled_nodes(t, nodes) == {
            v for v in nodes if scalar.stalled(t, v)
        }
        assert columnar.round_stats() == scalar.round_stats()


def test_cut_copies_consume_no_sequence_numbers():
    """A copy a partition removes leaves the coins of later copies unchanged."""
    cut = RingPartition(lo=0.0, hi=0.5)
    plan = FaultPlan(
        seed=9, messages=(MessageFaults(drop_p=0.5, delay_p=0.5),), partitions=(cut,)
    )
    ph = RngService(3).position_hash()
    inside = next(v for v in range(40) if cut.inside(ph.position(v, 0)))
    outside = next(v for v in range(40) if not cut.inside(ph.position(v, 0)))
    srcs, dsts = copies(0)
    same_side = [
        (s, d)
        for s, d in zip(srcs, dsts)
        if cut.inside(ph.position(s, 0)) == cut.inside(ph.position(d, 0))
    ]
    a, b = injector(plan), injector(plan)
    a.begin_round(0)
    b.begin_round(0)
    idx_a, lat_a = a.fates(0, [s for s, _ in same_side], [d for _, d in same_side])
    idx_b, lat_b = b.fates(
        0, [inside] + [s for s, _ in same_side], [outside] + [d for _, d in same_side]
    )
    assert (idx_b - 1).tolist() == idx_a.tolist()
    assert lat_b.tolist() == lat_a.tolist()
