"""Set-up, timed steady-state window and correctness gate of one workload.

The harness drives the simulator only through its public surface:
``MaintenanceSimulation(params, adversary, faults=, profiler=)``, ``run``,
``node(v)`` (``queue_probe``, ``delivered``, ``phase``,
``max_connects_in_round``), ``alive_nodes``, ``established_nodes`` and
``audit_overlay``, plus the per-round reports the engine keeps
(``sim.engine.reports``) for the simulated statistics.

A run is:

1. **set-up** — construct the simulation (D_0 priming included) and run the
   warm-up rounds ``0 .. dilation + 2``; the routing pipeline is full after
   them (Lemma 9's dilation window);
2. **timed window** — whole even/odd cycles, each round timed on its own,
   until ``--seconds`` of cycle wall time have passed and the workload's
   minimum cycle count is reached.  The checks run between cycles, outside
   the timing;
3. **settle** — untimed cycles, only while some alive node is not yet
   ESTABLISHED and for at most ``lam'`` rounds, so that the final check
   sees every churn newcomer's cutover.

Probes are queued from round 1 on, a fixed number per cycle, at random
established origins, so that probes queued in the warm-up reach their
deadline inside the window.

Every timed span (the construction and each round) is also reported
**scaled to a fixed host speed**.  The host's speed drifts by up to a factor
of two over minutes, so raw wall times of the same code spread too widely
between runs.  :class:`ScaledClock` therefore times a fixed pure-Python loop
between spans and scales each span's wall time by ``REFERENCE_S`` over the
mean of the loop times right before and right after it.  Drift slower than a
round cancels out; the program's own cost does not, since the loop does not
call it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.node import Phase
from repro.core.runner import MaintenanceSimulation

from workloads import PROBES_PER_CYCLE, Workload, warmup_rounds

__all__ = [
    "REFERENCE_S",
    "SETUPS",
    "Gate",
    "ProbeBook",
    "RunResult",
    "ScaledClock",
    "extra_setups",
    "reference_s",
    "run_workload",
    "set_up",
]

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 2
#: Minimum traced (and untraced) cycles of a traced run.
TRACED_MIN_CYCLES = 3
#: Iterations of the reference loop of :func:`reference_s`.
REFERENCE_LOOPS = 300_000
#: Scaled times are quoted at the host speed at which that loop takes 25 ms
#: (about the fast phases of a 2-core shared x86_64 VM).
REFERENCE_S = 0.025


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class ScaledClock:
    """Times calls in wall seconds and in seconds scaled to ``REFERENCE_S`` speed.

    The reference loop runs once after every timed call; that sample is the
    "after" of this call and the "before" of the next one.
    """

    def __init__(self) -> None:
        reference_s()  # warm the loop
        self._ref = reference_s()

    def time(self, fn, *args, **kwargs) -> tuple[object, tuple[float, float]]:
        """``fn(*args, **kwargs)`` and its ``(wall s, scaled s)``."""
        before = self._ref
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self._ref = reference_s()
        return out, (wall, wall * 2 * REFERENCE_S / (before + self._ref))

    def rounds(self, sim: MaintenanceSimulation, count: int) -> tuple[float, float]:
        """``(wall s, scaled s)`` of ``count`` rounds, timed one by one."""
        spans = [self.time(sim.run, 1)[1] for _ in range(count)]
        return sum(w for w, _ in spans), sum(s for _, s in spans)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class _Probe:
    pid: object
    origin: int
    queued: int
    entry: int  # the round the origin first sends it (next even round + 1)
    deadline: int  # entry + 2*lam + 2
    state: str = "pending"  # pending | delivered | lost | withdrawn


class ProbeBook:
    """Queues seeded probes and resolves each one at its deadline round.

    A probe enters the network in the round after its launch (the origin's
    next even round) and must be logged by its target swarm exactly
    ``dilation = 2*lam + 2`` rounds later.  The members that receive the
    final hop log it one round before the deadline and multicast it to the
    whole target swarm, which logs it at the deadline.  So every log of a
    probe must fall on ``deadline - 1`` or ``deadline`` (Lemma 9), and a due
    probe with no log at its deadline is lost.  A probe whose origin was
    churned out before the entry round never entered the network; it is
    counted as withdrawn, not due.
    """

    def __init__(self, sim: MaintenanceSimulation, seed: int) -> None:
        self.sim = sim
        self.dilation = sim.params.dilation
        self.rng = np.random.default_rng([seed, 0x9B0BE])
        self.probes: list[_Probe] = []
        self.logs: dict[object, set[int]] = {}
        self._seen: dict[int, int] = {}  # node id -> delivered entries read
        self.off_deadline: set[object] = set()  # probes logged off their window

    def queue(self, count: int = PROBES_PER_CYCLE) -> None:
        sim = self.sim
        origins = sorted(sim.established_nodes())
        t = sim.round
        launch = t + (t % 2)
        for _ in range(count):
            origin = int(origins[int(self.rng.integers(len(origins)))])
            target = float(self.rng.random())
            pid = ("bench", len(self.probes))
            sim.node(origin).queue_probe(pid, target)
            entry = launch + 1
            self.probes.append(_Probe(pid, origin, t, entry, entry + self.dilation))

    def collect(self) -> None:
        """Read new probe logs from every alive node (incremental)."""
        for node in self.sim.alive_nodes():
            entries = node.delivered
            start = self._seen.get(node.id, 0)
            for payload, rnd in entries[start:]:
                if isinstance(payload, tuple) and payload[0] == "probe":
                    self.logs.setdefault(payload[1], set()).add(rnd)
            self._seen[node.id] = len(entries)

    def resolve(self, reports) -> None:
        """Resolve every pending probe whose deadline round has run."""
        self.collect()
        done = self.sim.round - 1  # last round that has run
        for p in self.probes:
            rounds = self.logs.get(p.pid, ())
            if any(r not in (p.deadline - 1, p.deadline) for r in rounds):
                self.off_deadline.add(p.pid)
            if p.state != "pending" or p.deadline > done:
                continue
            if p.deadline in rounds:
                p.state = "delivered"
            elif any(p.origin in reports[t].decision.leaves for t in range(p.queued, p.entry + 1)):
                p.state = "withdrawn"
            else:
                p.state = "lost"

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(("delivered", "lost", "withdrawn", "pending"), 0)
        for p in self.probes:
            out[p.state] += 1
        out["due"] = out["delivered"] + out["lost"]
        return out


@dataclass
class Gate:
    """The correctness checks; each failure is kept as one message."""

    failures: list[str] = field(default_factory=list)
    max_connects: int = 0
    #: ``(new, fresh, established)`` node counts at each cycle boundary.
    phases: list[tuple[int, int, int]] = field(default_factory=list)
    audit: object = None
    settle_rounds: int = 0  # untimed rounds run after the window

    def between_cycles(self, sim: MaintenanceSimulation, book: ProbeBook) -> None:
        book.resolve(sim.engine.reports)
        alive = sim.alive_nodes()
        self.max_connects = max(
            [self.max_connects] + [n.max_connects_in_round for n in alive]
        )
        phases = [n.phase for n in alive]
        self.phases.append(
            (phases.count(Phase.NEW), phases.count(Phase.FRESH), phases.count(Phase.ESTABLISHED))
        )

    def final(self, sim: MaintenanceSimulation, book: ProbeBook, workload: Workload) -> None:
        params = sim.params
        immature = [n.id for n in sim.alive_nodes() if n.phase is not Phase.ESTABLISHED]
        if immature:
            self._fail(
                f"{len(immature)} alive nodes not ESTABLISHED at the end of round "
                f"{sim.round - 1}: {immature[:8]}"
            )
        if book.off_deadline:
            self._fail(f"{len(book.off_deadline)} probes logged off their 2*lam+2 deadline")
        counts = book.counts()
        if counts["due"] < 1:
            self._fail("no probe reached its deadline inside the run")
        if workload.lossless and counts["lost"]:
            self._fail(f"{counts['lost']} of {counts['due']} due probes lost")
        if self.max_connects > 2 * params.delta_eff:
            self._fail(
                f"max CONNECTs in a round {self.max_connects} > 2*delta = {2 * params.delta_eff}"
            )
        audit = sim.audit_overlay()
        if audit.edge_coverage != 1.0:
            self._fail(
                f"edge coverage {audit.edge_coverage:.6f} "
                f"({audit.missing_edges} of {audit.required_edges} edges missing)"
            )
        self.audit = audit

    def _fail(self, msg: str) -> None:
        if msg not in self.failures:
            self.failures.append(msg)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class RunResult:
    construct_s: float
    warmup_s: float
    setup_scaled_s: float  # construct + warm-up, scaled to REFERENCE_S speed
    cycle_s: list[float]
    cycle_scaled_s: list[float]
    traced: list[bool]  # per cycle: whether the span wrappers were installed
    first_window_round: int
    gate: Gate
    probes: dict[str, int]
    rounds: list[dict[str, int]]  # simulated statistics per round
    digest_rounds: int
    peak_rss_mb: float

    def cycles(self, traced: bool = False) -> list[int]:
        """Indexes of the timed cycles that ran with (or without) tracing."""
        return [i for i, on in enumerate(self.traced) if on == traced]

    def cycle_rounds(self, traced: bool = False) -> list[int]:
        """Round numbers of those cycles."""
        first = self.first_window_round
        return [first + 2 * i + k for i in self.cycles(traced) for k in (0, 1)]

    def median_round_ms(self, traced: bool = False, scaled: bool = True) -> float:
        """Median over the cycles of the cycle's ms per round (scaled or wall)."""
        times = self.cycle_scaled_s if scaled else self.cycle_s
        return statistics.median(times[i] for i in self.cycles(traced)) * 1e3 / 2

    @property
    def round_ms(self) -> float:
        """``round_ms`` over the untraced cycles (all of them when untraced)."""
        return self.median_round_ms(traced=False)

    @property
    def window_rounds(self) -> list[dict[str, int]]:
        first = self.first_window_round
        return self.rounds[first:first + 2 * len(self.cycle_s)]

    def digest(self) -> str:
        """Hash of the simulated statistics over a fixed prefix of rounds.

        The prefix (warm-up plus the workload's minimum cycle count) does not
        depend on host speed, so equal digests mean equal simulations.
        """
        blob = json.dumps(self.rounds[: self.digest_rounds], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def round_stats(reports) -> list[dict[str, int]]:
    """Per-round simulated statistics from the engine's round reports."""
    out = []
    for rep in reports:
        m = rep.metrics
        f = m.faults
        out.append(
            {
                "round": rep.round,
                "sent": m.total_sent,
                "received": int(round(m.mean_received * m.alive)),
                "alive": m.alive,
                "dropped": f.dropped if f is not None else 0,
                "duplicated": f.duplicated if f is not None else 0,
                "delayed": f.delayed if f is not None else 0,
                "leaves": len(rep.decision.leaves),
                "joins": len(rep.decision.joins),
            }
        )
    return out


def set_up(workload: Workload, seed: int, tiny: bool, profiler=None):
    """Construct and warm one simulation.

    Returns it with its probe book, its clock and the ``(wall s, scaled s)``
    of the construction and of the warm-up; probe queueing is not timed.
    """
    params, adversary, faults = workload.build(seed, tiny)
    clock = ScaledClock()
    sim, construct = clock.time(
        MaintenanceSimulation, params, adversary, faults=faults, profiler=profiler
    )
    book = ProbeBook(sim, seed)
    warm = warmup_rounds(params)
    steps = [clock.rounds(sim, 1)]
    while sim.round < warm:
        book.queue()
        steps.append(clock.rounds(sim, 2))
    warmup = (sum(w for w, _ in steps), sum(s for _, s in steps))
    return sim, book, clock, construct, warmup


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    tiny: bool = False,
    profiler=None,
    tracer=None,
) -> RunResult:
    """One set-up, one timed window and the settle cycles, gated between cycles."""
    sim, book, clock, construct, warmup = set_up(workload, seed, tiny, profiler)
    params = sim.params
    first = sim.round
    min_cycles = workload.min_cycles(params)
    gate = Gate()
    cycles: list[tuple[float, float]] = []
    traced: list[bool] = []
    if tracer is not None:
        # Traced runs alternate traced and untraced cycles, so both halves
        # see the same workload phase and the same host-speed drift.
        min_cycles = max(min_cycles, 2 * TRACED_MIN_CYCLES)
    try:
        while sum(w for w, _ in cycles) < seconds or len(cycles) < min_cycles:
            book.queue()
            on = tracer is not None and len(cycles) % 2 == 0
            if on:
                tracer.install(sim)
            cycles.append(clock.rounds(sim, 2))
            if on:
                tracer.uninstall()
            traced.append(on)
            gate.between_cycles(sim, book)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # The run ends once every churn newcomer has cut over into the overlay:
    # untimed cycles, at most lam' rounds of them.
    while gate.settle_rounds < params.lambda_prime and any(
        n.phase is not Phase.ESTABLISHED for n in sim.alive_nodes()
    ):
        sim.run(2)
        gate.settle_rounds += 2
        gate.between_cycles(sim, book)
    gate.final(sim, book, workload)
    return RunResult(
        construct_s=construct[0],
        warmup_s=warmup[0],
        setup_scaled_s=construct[1] + warmup[1],
        cycle_s=[w for w, _ in cycles],
        cycle_scaled_s=[s for _, s in cycles],
        traced=traced,
        first_window_round=first,
        gate=gate,
        probes=book.counts(),
        rounds=round_stats(sim.engine.reports),
        digest_rounds=first + 2 * workload.min_cycles(params),
        peak_rss_mb=peak_rss_mb(),
    )


def extra_setups(workload: Workload, seed: int, tiny: bool, count: int) -> list[float]:
    """Scaled set-up times of ``count`` further, independent simulations."""
    times = []
    for _ in range(count):
        gc.collect()
        sim, book, _, construct, warmup = set_up(workload, seed, tiny)
        times.append(construct[1] + warmup[1])
        del sim, book
    gc.collect()
    return times
