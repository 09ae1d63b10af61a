"""Per-layer spans for the traced run: wrappers around public entry points.

Only ``run.py --trace 1`` imports this module.  :class:`Tracer` replaces a
few public functions and methods of the simulator with timing wrappers for
each traced cycle and restores them afterwards; the untraced runs never
touch it.  A target that no longer exists, or that records no call, is
reported as missing, never as an error.

``LAYERS`` is the layer table: each per-layer metric with its unit, the
end-to-end metric it should move, and the workloads on which it is large
or near zero.
"""

from __future__ import annotations

import gc
import importlib
import time
from collections import defaultdict

__all__ = ["LAYERS", "Tracer", "layer_metrics", "table"]

# (metric, unit, better, moves, large on, ~0 on)
LAYERS: tuple[tuple[str, str, str, str, str, str], ...] = (
    ("engine.adversary_ms", "ms", "lower", "round_ms", "churn", "calm, faulted"),
    ("engine.receive_ms", "ms", "lower", "round_ms", "calm", "-"),
    ("engine.compute_ms", "ms", "lower", "round_ms", "calm", "-"),
    ("engine.close_ms", "ms", "lower", "round_ms", "faulted", "-"),
    ("engine.even_round_ms", "ms", "lower", "round_ms", "calm", "-"),
    ("engine.odd_round_ms", "ms", "lower", "round_ms", "calm", "-"),
    ("hopplane.deliver_ms", "ms", "lower", "round_ms", "calm", "faulted"),
    ("hopplane.freeze_ms", "ms", "lower", "round_ms", "calm", "faulted"),
    ("hopplane.rows", "count/round", "lower", "round_ms", "calm", "faulted"),
    ("hopplane.copies", "count/round", "lower", "round_ms", "calm", "faulted"),
    ("hopplane.kept_share", "share", "higher", "round_ms", "calm", "faulted"),
    ("network.deliver_ms", "ms", "lower", "round_ms", "calm", "-"),
    ("network.close_ms", "ms", "lower", "round_ms", "faulted", "-"),
    ("network.copies_sent", "count/round", "lower", "round_ms", "calm", "-"),
    ("network.copies_received", "count/round", "lower", "round_ms", "calm", "-"),
    ("faults.dropped", "count/round", "lower", "network.close_ms", "faulted", "calm, churn"),
    ("faults.duplicated", "count/round", "lower", "network.close_ms", "faulted", "calm, churn"),
    ("adversary.decide_ms", "ms", "lower", "round_ms", "churn", "calm, faulted"),
    ("adversary.edges_visible", "count/round", "lower", "round_ms", "churn", "calm, faulted"),
    ("adversary.leaves", "count", "lower", "round_ms", "churn", "calm, faulted"),
    ("adversary.joins", "count", "lower", "round_ms", "churn", "calm, faulted"),
    ("node.on_round_even_ms", "ms", "lower", "round_ms", "calm", "-"),
    ("node.on_round_odd_ms", "ms", "lower", "round_ms", "calm", "-"),
    ("node.new", "count", "lower", "round_ms", "churn", "calm, faulted"),
    ("node.fresh", "count", "lower", "round_ms", "churn", "calm, faulted"),
    ("node.established_share", "share", "higher", "round_ms", "calm", "-"),
    ("node.max_connects", "count", "lower", "round_ms", "churn", "-"),
    ("routing.make_message_ms", "ms", "lower", "round_ms", "calm", "-"),
    ("routing.messages_made", "count/round", "lower", "round_ms", "calm", "-"),
    ("epochs.index_for_ms", "ms", "lower", "round_ms", "churn", "-"),
    ("epochs.index_for_calls", "count/round", "lower", "round_ms", "churn", "-"),
    ("trace.record_ms", "ms", "lower", "round_ms", "faulted", "churn"),
    ("trace.edges", "count/round", "lower", "round_ms", "calm", "-"),
    ("gc.pause_ms", "ms", "lower", "round_ms, peak_rss_mb", "calm", "-"),
    ("gc.collections", "count/round", "lower", "round_ms, peak_rss_mb", "calm", "-"),
    ("runner.construct_s", "s", "lower", "setup_s", "calm", "-"),
    ("runner.warmup_s", "s", "lower", "setup_s", "calm", "-"),
    ("engine.copies_per_s", "1/s", "higher", "-", "-", "-"),
    ("bench.trace_overhead", "ratio", "lower", "-", "-", "-"),
)

# Span name -> "module:attribute.path" of the wrapped public entry point.
_TARGETS = {
    "hopplane.deliver": "repro.sim.hopplane:FrozenHopRound.deliver",
    "hopplane.freeze": "repro.sim.hopplane:HopPlane.close_round",
    "network.deliver": "repro.sim.network:Network.deliver",
    "network.close": "repro.sim.network:Network.close_send_phase",
    "node.on_round": "repro.core.node:MaintenanceNode.on_round",
    # node.py binds the factory at import; wrap the name it calls.
    "routing.make_message": "repro.core.node:make_routed_message",
    "epochs.index_for": "repro.sim.epochs:EpochCache.index_for",
    "trace.record": "repro.sim.trace:GraphTrace.record",
}


def _resolve(spec: str):
    """``(owner, attribute)`` for ``module:Class.attr``, or ``None`` if gone."""
    module_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Span and count accumulators plus the wrappers that fill them."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._restore: list[tuple[object, str, object, bool]] = []
        self._gc_start = 0.0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self, sim) -> None:
        for span, spec in _TARGETS.items():
            target = _resolve(spec)
            if target is None:
                self.missing.add(span)
                continue
            self._wrap(*target, span, getattr(self, "_after_" + span.replace(".", "_"), None))
        adversary = sim.engine.adversary
        if adversary is not None and callable(getattr(adversary, "decide", None)):
            self._wrap(adversary, "decide", "adversary.decide", self._after_adversary_decide)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def _wrap(self, owner, attr: str, span: str, after) -> None:
        original = getattr(owner, attr)
        # Instance attributes and class members restore differently.
        own = attr in getattr(owner, "__dict__", {})
        stored = owner.__dict__[attr] if own else original
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter
        split = span == "node.on_round"

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            dt = clock() - t0
            name = span
            if split:  # on_round(self, ctx): split by round parity
                name = span + ("_even" if args[1].round % 2 == 0 else "_odd")
            seconds[name] += dt
            calls[name] += 1
            if after is not None:
                after(result, args)
            return result

        self._restore.append((owner, attr, stored, own))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # Counts taken at the span boundaries (outside the timed interval)
    # ------------------------------------------------------------------

    def _after_hopplane_deliver(self, delivery, args) -> None:
        self.counts["hopplane.rows"] += len(delivery.msgs)
        self.counts["hopplane.copies"] += delivery.total
        self.counts["hopplane.kept"] += sum(len(r) for r in delivery.rows.values())

    def _after_trace_record(self, _result, args) -> None:
        self.counts["trace.edges"] += len(args[2])

    def _after_adversary_decide(self, _decision, args) -> None:
        view = args[0]
        s = view.newest_visible_topology_round()
        if s >= 0:
            self.counts["adversary.edges_visible"] += len(view.edges_at(s))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.seconds["gc.pause"] += time.perf_counter() - self._gc_start
            self.calls["gc.pause"] += 1


def layer_metrics(tracer: Tracer, res, profiler) -> dict[str, float]:
    """The per-layer metric values of one traced run.

    ``res`` is the run's :class:`~harness.RunResult`; its traced cycles give
    every span metric, its untraced cycles ``engine.copies_per_s`` and the
    base of ``bench.trace_overhead``.
    """
    rounds = res.cycle_rounds(traced=True)
    per_round = 1.0 / len(rounds)
    ms = 1e3 * per_round
    stats = [res.rounds[r] for r in rounds]
    out: dict[str, float] = {}

    history = {r: profiler.history[r] for r in rounds}
    for phase in ("adversary", "receive", "compute", "close"):
        out[f"engine.{phase}_ms"] = sum(getattr(h, phase) for h in history.values()) * ms
    even = [r for r in rounds if r % 2 == 0]
    odd = [r for r in rounds if r % 2 == 1]
    out["engine.even_round_ms"] = 1e3 * sum(history[r].total for r in even) / len(even)
    out["engine.odd_round_ms"] = 1e3 * sum(history[r].total for r in odd) / len(odd)

    s, c, k = tracer.seconds, tracer.calls, tracer.counts
    out["hopplane.deliver_ms"] = s["hopplane.deliver"] * ms
    out["hopplane.freeze_ms"] = s["hopplane.freeze"] * ms
    out["hopplane.rows"] = k["hopplane.rows"] * per_round
    out["hopplane.copies"] = k["hopplane.copies"] * per_round
    out["hopplane.kept_share"] = (
        k["hopplane.kept"] / k["hopplane.copies"] if k["hopplane.copies"] else 0.0
    )
    out["network.deliver_ms"] = s["network.deliver"] * ms
    out["network.close_ms"] = s["network.close"] * ms
    out["network.copies_sent"] = sum(r["sent"] for r in stats) * per_round
    out["network.copies_received"] = sum(r["received"] for r in stats) * per_round
    out["faults.dropped"] = sum(r["dropped"] for r in stats) * per_round
    out["faults.duplicated"] = sum(r["duplicated"] for r in stats) * per_round
    out["adversary.decide_ms"] = s["adversary.decide"] * ms
    out["adversary.edges_visible"] = k["adversary.edges_visible"] * per_round
    out["adversary.leaves"] = float(sum(r["leaves"] for r in stats))
    out["adversary.joins"] = float(sum(r["joins"] for r in stats))
    out["node.on_round_even_ms"] = s["node.on_round_even"] * 1e3 / len(even)
    out["node.on_round_odd_ms"] = s["node.on_round_odd"] * 1e3 / len(odd)
    samples = res.gate.phases[: len(res.cycle_s)]  # (new, fresh, established) per window cycle
    out["node.new"] = sum(p[0] for p in samples) / len(samples)
    out["node.fresh"] = sum(p[1] for p in samples) / len(samples)
    out["node.established_share"] = sum(p[2] / sum(p) for p in samples) / len(samples)
    out["node.max_connects"] = float(res.gate.max_connects)
    out["routing.make_message_ms"] = s["routing.make_message"] * ms
    out["routing.messages_made"] = c["routing.make_message"] * per_round
    out["epochs.index_for_ms"] = s["epochs.index_for"] * ms
    out["epochs.index_for_calls"] = c["epochs.index_for"] * per_round
    out["trace.record_ms"] = s["trace.record"] * ms
    out["trace.edges"] = k["trace.edges"] * per_round
    out["gc.pause_ms"] = s["gc.pause"] * ms
    out["gc.collections"] = c["gc.pause"] * per_round
    out["runner.construct_s"] = res.construct_s
    out["runner.warmup_s"] = res.warmup_s
    sent = sum(res.rounds[r]["sent"] for r in res.cycle_rounds(traced=False))
    out["engine.copies_per_s"] = sent / sum(res.cycle_s[i] for i in res.cycles(traced=False))
    out["bench.trace_overhead"] = res.median_round_ms(traced=True) / res.round_ms
    return out


def missing_spans(tracer: Tracer) -> list[str]:
    """Spans whose target is gone or that recorded no call."""
    spans = set(_TARGETS) - {"node.on_round"} | {
        "node.on_round_even",
        "node.on_round_odd",
        "adversary.decide",
    }
    return sorted(s for s in spans if s in tracer.missing or tracer.calls[s] == 0)


def table(metrics: dict[str, float], missing: list[str]) -> str:
    """The layer table of one workload, one metric a line."""
    lines = [f"{'metric':<26} {'value':>14} {'unit':<12} {'moves':<22} {'large on':<9} ~0 on"]
    for name, unit, _better, moves, large, zero in LAYERS:
        span = name.rsplit("_", 1)[0]
        flag = "  (missing)" if span in missing else ""
        lines.append(
            f"{name:<26} {metrics[name]:>14.4f} {unit:<12} {moves:<22} {large:<9} {zero}{flag}"
        )
    return "\n".join(lines)
