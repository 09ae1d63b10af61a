"""The benchmark's named workloads, each generated from one seed.

A workload fixes the protocol parameters, the adversary, the fault plan and
the probe schedule.  Everything random is derived from the ``seed`` argument,
so the same seed gives the same simulation, round for round.

``tiny`` shrinks every workload to a few dozen nodes for the harness
self-test; the timed benchmark never uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.adversary.swarm_wipe import DegreeTargetAdversary
from repro.config import ProtocolParams
from repro.faults.plan import FaultPlan, MessageFaults

__all__ = ["PROBES_PER_CYCLE", "Workload", "WORKLOADS", "warmup_rounds"]

#: Probes queued at the start of every cycle, warm-up included.
PROBES_PER_CYCLE = 2


@dataclass(frozen=True)
class Workload:
    """One named workload: how to build its inputs and what it must satisfy."""

    name: str
    why: str
    params: Callable[[int, bool], ProtocolParams]
    faults: Callable[[int], FaultPlan | None] = lambda seed: None
    #: Build the adversary for ``(params, seed, first_window_round)``.
    adversary: Callable[[ProtocolParams, int, int], object] | None = None
    #: Minimum timed cycles beyond the ``--seconds`` budget.
    min_cycles: Callable[[ProtocolParams], int] = lambda p: 3
    #: Whether a lost probe fails the correctness gate.
    lossless: bool = True

    def build(self, seed: int, tiny: bool = False):
        """``(params, adversary, faults)`` for this seed."""
        params = self.params(seed, tiny)
        first = warmup_rounds(params)
        adversary = (
            self.adversary(params, seed, first) if self.adversary is not None else None
        )
        return params, adversary, self.faults(seed)


def warmup_rounds(params: ProtocolParams) -> int:
    """Rounds ``0 .. dilation + 2``: the routing pipeline is full after them."""
    return params.dilation + 3


def _light(n: int, seed: int, **extra) -> ProtocolParams:
    return ProtocolParams(n=n, c=1.2, r=2, delta=3, tau=8, seed=seed, **extra)


def _calm_params(seed: int, tiny: bool) -> ProtocolParams:
    # Paper defaults: c=1.5, r=2, delta=lam, tau=4*lam.
    return ProtocolParams(n=24 if tiny else 128, seed=seed)


def _faulted_params(seed: int, tiny: bool) -> ProtocolParams:
    return _light(24 if tiny else 64, seed)


def _churn_params(seed: int, tiny: bool) -> ProtocolParams:
    return _light(24 if tiny else 128, seed, alpha=0.25, kappa=1.25)


def _faulted_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, messages=(MessageFaults(drop_p=0.05, duplicate_p=0.05),))


def _churn_adversary(params: ProtocolParams, seed: int, first: int):
    # A 2-late "kill the hubs" adversary, active from the first timed round.
    return DegreeTargetAdversary(params, seed=seed + 1, top=8, active_from=first)


def _churn_min_cycles(params: ProtocolParams) -> int:
    # The window covers the first burst's newcomers from join to cutover:
    # lam' = 2*lam + 4 rounds of maturing plus two cycles of cutover.
    return (params.lambda_prime + 4) // 2


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="calm",
            why="paper-default params, no churn or faults: hop plane, forwarding and handover do the work",
            params=_calm_params,
        ),
        Workload(
            name="faulted",
            why="5% drop and 5% duplicate fates: the plane is unmounted, so copies take the object path",
            params=_faulted_params,
            faults=_faulted_plan,
            # Cheap cycles on a noisy host: more of them steady the median.
            min_cycles=lambda p: 12,
            lossless=False,
        ),
        Workload(
            name="churn",
            why="2-late degree-target adversary replaces 16 nodes: joins, grants, CONNECTs and maturing",
            params=_churn_params,
            adversary=_churn_adversary,
            min_cycles=_churn_min_cycles,
        ),
    )
}
