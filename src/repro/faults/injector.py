"""Deterministic fault oracle — turns a :class:`FaultPlan` into decisions.

The injector sits at the :meth:`Network.close_send_phase` boundary and
answers the engine's node-stall queries during the compute phase.  The
network hands it one round's frozen copies as columns — singles, then
multicasts, then hop-plane copies, each in send order — and :meth:`fates`
returns their delivery latencies as two flat columns (see there).  The
scalar :meth:`message_fates` is a one-element call into the same function.

Every probabilistic decision is a coin of one keyed counter-based PRF, in
the style of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3"
(SC'11): a chain of splitmix64 finalisers over ``(plan seed, domain, round,
rule index, counter, payload)`` evaluated in numpy ``uint64``.  The counter
of a message coin is the copy's per-round sequence number and its payload
the packed ``(src, dst)`` pair; a stall coin's counter is the node id.
Because decisions are *hash-derived* rather than drawn from a shared RNG
stream, the schedule depends only on the plan seed and the (deterministic)
order of sends: the same seed and plan always reproduce the identical fault
schedule, and a plan whose rules never fire consumes no counter values,
never alters delivery order, and never perturbs any protocol RNG — the
zero-overhead-when-off property the experiments rely on.

Send-time edges are *not* affected by faults: a dropped or delayed message
still created the edge ``(src, dst)`` in ``E_t`` (the adversary observes the
send attempt; the environment eats the payload afterwards).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.faults.plan import (
    AsymmetricPartition,
    FaultPlan,
    LatencyMatrix,
    MessageFaults,
    NodeStall,
    RateCap,
    RingPartition,
)
from repro.sim.metrics import FaultRoundStats
from repro.util.rngs import PositionHash

__all__ = ["FaultInjector"]

_MASK64 = (1 << 64) - 1
#: splitmix64 constants: the Weyl increment and the two finaliser multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA2 = (2 * _GAMMA) & _MASK64
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
#: Domain words separating the message and stall coin streams.
_DOMAIN_MSG = 1
_DOMAIN_STALL = 2


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, elementwise on a ``uint64`` array (mod 2**64)."""
    x = x ^ (x >> 30)
    x = x * _M1
    x = x ^ (x >> 27)
    x = x * _M2
    return x ^ (x >> 31)


def _chain(h: np.ndarray, *words) -> np.ndarray:
    """Absorb ``words`` (ints or ``uint64`` arrays) into ``h``, one mix each."""
    for w in words:
        h = _mix(h ^ w)
    return h


def _unit(x: np.ndarray) -> np.ndarray:
    """Uniform ``[0, 1)`` doubles from the top 53 bits of ``uint64`` words."""
    return (x >> 11).astype(np.float64) * (1.0 / (1 << 53))


def _inside(rule: RingPartition | AsymmetricPartition, p: np.ndarray) -> np.ndarray:
    """Vectorised ``rule.inside`` over an array of ring positions."""
    if rule.lo < rule.hi:
        return (p >= rule.lo) & (p < rule.hi)
    return (p >= rule.lo) | (p < rule.hi)


class FaultInjector:
    """Per-run fault schedule: message fates, node stalls, round accounting."""

    def __init__(
        self, plan: FaultPlan, position_hash: PositionHash | None = None
    ) -> None:
        self.plan = plan
        self._hash = position_hash
        if plan.needs_positions and position_hash is None:
            raise ValueError(
                "partition/latency-matrix/asymmetric rules require a position hash"
            )
        seed = np.array([plan.seed & _MASK64], dtype=np.uint64)
        key = _chain(seed, (plan.seed >> 64) & _MASK64)
        self._msg_key = _chain(key, _DOMAIN_MSG)
        self._stall_key = _chain(key, _DOMAIN_STALL)
        self._round = -1
        self._seq = 0
        self._dropped = 0
        self._delayed = 0
        self._duplicated = 0
        self._stalled = 0
        self._deferred = 0
        # Per-round rule activity (refreshed by begin_round).
        self._msg_rules: list[tuple[int, MessageFaults]] = []
        self._stall_rules: list[tuple[int, NodeStall]] = []
        self._partitions: list[RingPartition] = []
        self._ratecaps: list[tuple[int, RateCap]] = []
        self._latencies: list[LatencyMatrix] = []
        self._asymmetric: list[AsymmetricPartition] = []
        # Copies sent so far this round per (rate-cap rule index, src node).
        self._cap_counts: dict[tuple[int, int], int] = {}
        # Position cache for position-keyed rules, keyed per epoch.
        self._pos_epoch = -1
        self._pos_cache: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------

    def begin_round(self, t: int) -> None:
        """Reset per-round counters and rule activity (engine, round start)."""
        self._round = t
        self._seq = 0
        self._dropped = 0
        self._delayed = 0
        self._duplicated = 0
        self._stalled = 0
        self._deferred = 0
        self._msg_rules = [
            (i, r)
            for i, r in enumerate(self.plan.messages)
            if not r.is_trivial and r.active(t)
        ]
        self._stall_rules = [
            (i, r)
            for i, r in enumerate(self.plan.stalls)
            if r.stall_p and r.active(t)
        ]
        self._partitions = [r for r in self.plan.partitions if r.active(t)]
        self._ratecaps = [
            (i, r)
            for i, r in enumerate(self.plan.ratecaps)
            if not r.is_trivial and r.active(t)
        ]
        self._latencies = [
            r for r in self.plan.latencies if not r.is_trivial and r.active(t)
        ]
        self._asymmetric = [r for r in self.plan.asymmetric if r.active(t)]
        self._cap_counts = {}
        needs_pos = self._partitions or self._latencies or self._asymmetric
        if needs_pos and t // 2 != self._pos_epoch:
            self._pos_epoch = t // 2
            self._pos_cache = {}

    def round_stats(self) -> FaultRoundStats | None:
        """This round's injected-fault counts, or ``None`` if nothing fired."""
        if not (
            self._dropped
            or self._delayed
            or self._duplicated
            or self._stalled
            or self._deferred
        ):
            return None
        return FaultRoundStats(
            dropped=self._dropped,
            delayed=self._delayed,
            duplicated=self._duplicated,
            stalled=self._stalled,
            deferred=self._deferred,
        )

    # ------------------------------------------------------------------
    # Node-level faults (queried by the engine during the compute phase)
    # ------------------------------------------------------------------

    def stalled_nodes(self, t: int, nodes: Sequence[int]) -> set[int]:
        """The nodes of ``nodes`` that skip their compute phase this round."""
        if not self._stall_rules or not len(nodes):
            return set()
        ids = np.asarray(nodes, dtype=np.int64)
        hit = np.zeros(ids.size, dtype=bool)
        for i, rule in self._stall_rules:
            coin = _unit(_mix(_chain(self._stall_key, t, i, ids.astype(np.uint64))))
            fired = coin < rule.stall_p
            if rule.nodes is not None:
                fired &= np.isin(ids, list(rule.nodes))
            hit |= fired
        out = set(ids[hit].tolist())
        self._stalled += len(out)
        return out

    def stalled(self, t: int, v: int) -> bool:
        """Whether node ``v`` skips its compute phase this round."""
        return bool(self.stalled_nodes(t, [v]))

    # ------------------------------------------------------------------
    # Message-level faults (the Network hook)
    # ------------------------------------------------------------------

    @property
    def message_faults_active(self) -> bool:
        """Whether any message rule or partition can fire this round.

        The network skips the fate pass entirely on rounds where the plan
        is quiet (e.g. before a fault window opens).
        """
        return bool(
            self._msg_rules
            or self._partitions
            or self._ratecaps
            or self._latencies
            or self._asymmetric
        )

    def _position(self, v: int) -> float:
        p = self._pos_cache.get(v)
        if p is None:
            p = self._hash.position(v, self._pos_epoch)
            self._pos_cache[v] = p
        return p

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        uniq, inv = np.unique(ids, return_inverse=True)
        pos = np.array([self._position(v) for v in uniq.tolist()], dtype=np.float64)
        return pos[inv]

    def _ratecap_deferrals(self, srcs: np.ndarray) -> np.ndarray:
        """Per-copy rate-cap deferral of the expanded copies, in copy order.

        Every copy consumes one unit of its source's budget; the ``k``-th
        copy over the limit is deferred ``ceil(k / limit)`` budget periods
        of ``defer_rounds`` rounds — deferred, never dropped.  Counts carry
        over between calls of one round (``_cap_counts``).
        """
        defer = np.zeros(srcs.size, dtype=np.int64)
        for i, rule in self._ratecaps:
            limit = rule.limit
            if limit is None:
                continue
            pos = (
                np.arange(srcs.size)
                if rule.nodes is None
                else np.flatnonzero(np.isin(srcs, list(rule.nodes)))
            )
            if not pos.size:
                continue
            order = np.argsort(srcs[pos], kind="stable")
            sorted_src = srcs[pos][order]
            starts = np.flatnonzero(np.r_[True, sorted_src[1:] != sorted_src[:-1]])
            sizes = np.diff(np.r_[starts, sorted_src.size])
            prev = np.array(
                [
                    self._cap_counts.get((i, v), 0)
                    for v in sorted_src[starts].tolist()
                ],
                dtype=np.int64,
            )
            for v, total in zip(sorted_src[starts].tolist(), (prev + sizes).tolist()):
                self._cap_counts[(i, v)] = total
            rank = np.arange(sorted_src.size) - np.repeat(starts, sizes)
            count = np.empty(sorted_src.size, dtype=np.int64)
            count[order] = np.repeat(prev, sizes) + rank + 1
            over = count - limit
            d = np.where(over > 0, ((over - 1) // limit + 1) * rule.defer_rounds, 0)
            defer[pos] = np.maximum(defer[pos], d)
        self._deferred += int(np.count_nonzero(defer))
        return defer

    def fates(
        self, t: int, srcs: ArrayLike, dsts: ArrayLike
    ) -> tuple[np.ndarray, np.ndarray]:
        """Delivery fates of the frozen ``(srcs[j], dsts[j])`` copies of round ``t``.

        Returns ``(idx, lat)``: one entry per delivered copy, in input
        order — ``idx`` is the input position the copy came from, ``lat``
        its latency in rounds (1 = next round).  A dropped copy has no
        entry, a delayed one a latency ``1 + k``, and each duplicate repeats
        its input position; rate caps may give each repeat its own
        deferral.  Equal to calling :meth:`message_fates` per copy in
        order and concatenating the tuples.
        """
        src = np.asarray(srcs, dtype=np.int64)
        dst = np.asarray(dsts, dtype=np.int64)
        n = src.size
        keep = np.ones(n, dtype=bool)
        extra = np.zeros(n, dtype=np.int64)
        dups = np.zeros(n, dtype=np.int64)
        if self._partitions or self._asymmetric or self._latencies:
            p_src = self._positions(src)
            p_dst = self._positions(dst)
            for cut in self._partitions:
                keep &= _inside(cut, p_src) == _inside(cut, p_dst)
            for arc in self._asymmetric:
                keep &= ~(_inside(arc, p_src) & ~_inside(arc, p_dst))
            for matrix in self._latencies:
                top = matrix.bands - 1
                b_src = np.minimum((p_src * matrix.bands).astype(np.int64), top)
                b_dst = np.minimum((p_dst * matrix.bands).astype(np.int64), top)
                extra += np.asarray(matrix.delays, dtype=np.int64)[b_src, b_dst]
        if self._msg_rules:
            # Copies cut by a partition consume no sequence numbers.
            live = np.flatnonzero(keep)
            seq = np.arange(self._seq, self._seq + live.size, dtype=np.uint64)
            self._seq += live.size
            pair = (src[live].astype(np.uint64) << 32) | dst[live].astype(np.uint64)
            survive = np.ones(live.size, dtype=bool)
            for i, rule in self._msg_rules:
                # The drop, delay and duplicate coins are mix(h), mix(h + γ)
                # and mix(h + 2γ); a zero-probability coin is never drawn.
                h = _chain(self._msg_key, t, i, seq, pair)
                if rule.drop_p:
                    survive &= _unit(_mix(h)) >= rule.drop_p
                if rule.delay_p:
                    delayed = _unit(_mix(h + _GAMMA)) < rule.delay_p
                    extra[live] += np.where(delayed, rule.delay_rounds, 0)
                if rule.duplicate_p:
                    dups[live] += _unit(_mix(h + _GAMMA2)) < rule.duplicate_p
            keep[live[~survive]] = False
        kept = np.flatnonzero(keep)
        extra = extra[kept]
        reps = dups[kept] + 1
        self._dropped += n - kept.size
        self._delayed += int(np.count_nonzero(extra))
        self._duplicated += int(reps.sum()) - kept.size
        idx = np.repeat(kept, reps)
        lat = np.repeat(1 + extra, reps)
        if self._ratecaps:
            lat += self._ratecap_deferrals(src[idx])
        return idx, lat

    def message_fates(self, t: int, src: int, dst: int) -> tuple[int, ...]:
        """Delivery fates for one frozen (src, dst) message of round ``t``.

        Returns a tuple of latencies in rounds — ``(1,)`` for an undisturbed
        message, ``()`` for a dropped one, ``(1 + k,)`` for a delayed one,
        and one extra entry per duplicate.  Rate caps may give each copy
        its own deferral, so entries need not be equal.  A one-element
        call into :meth:`fates`.
        """
        _, lat = self.fates(t, [src], [dst])
        return tuple(lat.tolist())
