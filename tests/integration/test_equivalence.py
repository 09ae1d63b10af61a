"""Bit-for-bit equivalence of the cached hot paths against the reference.

The epoch cache (shared per-epoch position tables + interned copy-on-write
``PositionIndex`` slabs) and the columnar hop plane are pure optimisations:
every observable of a run — per-round metrics, the exact edge multiset, the
churn decisions, every node's final state, audits and probe deliveries —
must be identical with the epoch cache on (the default) and off.  The
fault-free golden digests below were captured from the pre-optimisation
code, so these tests pin the optimised paths against the original
implementation, not just against each other.
"""

from __future__ import annotations

import pytest

from .simfp import run_scenario

#: ``steady`` and ``churn`` were captured from the seed implementation
#: (before the epoch cache and hop plane existed).  ``faults`` and
#: ``churn_faults`` pin the counter-based fate PRF: they were re-pinned
#: once when it replaced the per-copy BLAKE2b coins.  Any behavioural
#: drift — one extra RNG draw, one reordered send — flips the digest.
GOLDEN = {
    "steady": "ad475a0578dc63811b3c04d39543dffd",
    "churn": "69c056247a56a212e963e9654c2d178c",
    "faults": "6589f2a1770353d6b9a1ff7ecf90550b",
    "churn_faults": "8fa2663894495c8ff1b6ce373593d87e",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_optimized_matches_golden(scenario):
    """Default (cached) configuration reproduces the reference digests."""
    assert run_scenario(scenario) == GOLDEN[scenario]


@pytest.mark.parametrize("scenario", ["steady", "churn"])
def test_reference_matches_golden(scenario):
    """With caches disabled the original code paths still run — and agree."""
    fp = run_scenario(scenario, epoch_cache=False)
    assert fp == GOLDEN[scenario]


def test_cache_without_plane_matches_golden():
    """The epoch cache on the one hop transport is equivalence-safe."""
    assert run_scenario("steady") == GOLDEN["steady"]


def test_trivial_new_rules_match_golden():
    """A plan carrying the scenario rule types, all trivial, is a no-op.

    RateCap with no limit, an all-zero LatencyMatrix and an asymmetric cut
    whose window never opens must consume no entropy and reorder nothing:
    the run still reproduces the pre-fault-layer golden digest bit for bit.
    """
    from repro.faults.plan import (
        AsymmetricPartition,
        FaultPlan,
        LatencyMatrix,
        RateCap,
    )

    plan = FaultPlan(
        seed=123,
        ratecaps=(RateCap(),),
        latencies=(LatencyMatrix(delays=((0, 0), (0, 0))),),
        asymmetric=(AsymmetricPartition(lo=0.0, hi=0.5, start=10**9),),
    )
    assert run_scenario("steady", faults=plan) == GOLDEN["steady"]
