"""Steady-state round benchmark of the LDS maintenance simulator.

Run from the repository root::

    python3 perfbench/run.py --workload calm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

One invocation runs one workload in this single-threaded process and prints
its end-to-end metrics (``--trace 0``) or its per-layer table (``--trace 1``).
``--workload all`` runs each workload in a fresh process of its own, one
after the other.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted``/``failed``
count the due and lost probes.  The exit code is 0 only when the
correctness gate passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# Pin native thread pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help="calm, faulted, churn or all")
    ap.add_argument(
        "--seed", type=int, default=1, help="workload seed (default 1; 9001 is held out)"
    )
    ap.add_argument("--seconds", type=float, default=10.0, help="timed cycle seconds per window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    ap.add_argument("--tiny", action="store_true", help="n=24 workloads (harness self-test)")
    return ap.parse_args(argv)


def _import_program():
    """Import the simulator from this checkout's ``src``; ``None`` if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return None
    return repro


def host_facts() -> dict[str, object]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def _print_run(name: str, seed: int, res) -> None:
    window = res.window_rounds
    first = res.first_window_round
    even = [r for r in window if r["round"] % 2 == 0]
    odd = [r for r in window if r["round"] % 2 == 1]

    def mean(rows, key):
        return sum(r[key] for r in rows) / max(1, len(rows))

    plain = [res.cycle_s[i] for i in res.cycles(traced=False)]
    summary = (
        f"wall median {res.median_round_ms(scaled=False):.1f}, "
        f"mean {sum(plain) * 500 / len(plain):.1f}; scaled median {res.round_ms:.1f}"
    )
    if any(res.traced):
        summary += f" untraced, {res.median_round_ms(traced=True):.1f} traced (*)"
    print(
        f"window: rounds {first}..{first + len(window) - 1} "
        f"({len(res.cycle_s)} cycles), wall ms/round per cycle "
        + " ".join(f"{c * 500:.0f}{'*' if on else ''}" for c, on in zip(res.cycle_s, res.traced))
        + f"; {summary}"
    )
    print(
        "host speed: scaled/wall per cycle "
        + " ".join(f"{s / w:.2f}" for s, w in zip(res.cycle_scaled_s, res.cycle_s))
    )
    print(
        f"simulated per round: copies sent even {mean(even, 'sent'):.0f} / odd "
        f"{mean(odd, 'sent'):.0f}, received even {mean(even, 'received'):.0f} / odd "
        f"{mean(odd, 'received'):.0f}; fates dropped {sum(r['dropped'] for r in window)}, "
        f"duplicated {sum(r['duplicated'] for r in window)}, delayed "
        f"{sum(r['delayed'] for r in window)}; leaves {sum(r['leaves'] for r in window)}, "
        f"joins {sum(r['joins'] for r in window)}"
    )
    print(f"digest (rounds 0..{res.digest_rounds - 1}): {res.digest()}")
    p = res.probes
    share = p["lost"] / p["due"] if p["due"] else 0.0
    print(
        f"probe_fail_share {share:.4f} ({p['lost']} lost of {p['due']} due; "
        f"{p['withdrawn']} withdrawn, {p['pending']} not yet due)"
    )
    gate = res.gate
    audit = gate.audit
    print(
        f"gate: edge_coverage {audit.edge_coverage:.6f}, established "
        f"{audit.established_fraction:.4f} after {gate.settle_rounds} settle rounds, "
        f"max CONNECTs/round {gate.max_connects}"
    )
    for failure in gate.failures:
        print(f"CHECK FAILED [{name} seed {seed}]: {failure}")


def run_one(args: argparse.Namespace) -> int:
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"host: {json.dumps(host_facts())}")
    seed = args.seed
    print(f"workload {workload.name} (seed {seed}): {workload.why}")
    params, _, faults = workload.build(seed, args.tiny)
    print(
        f"params: n={params.n} c={params.c} r={params.r} delta={params.delta_eff} "
        f"tau={params.tau_eff} lam={params.lam} dilation={params.dilation} "
        f"alpha={params.alpha} kappa={params.kappa} faults={'yes' if faults else 'no'}"
    )
    print(
        "accuracy: exact paper invariants (Lemma 9 dilation, Lemma 22 CONNECTs, "
        "Definition 5 edge coverage); unvalidated against real networks"
    )

    if args.trace:
        import spans
        from repro.sim.profile import PhaseProfiler

        tracer = spans.Tracer()
        profiler = PhaseProfiler()
        res = harness.run_workload(
            workload, seed, args.seconds, args.tiny, profiler=profiler, tracer=tracer
        )
        _print_run(workload.name, seed, res)
        metrics = spans.layer_metrics(tracer, res, profiler)
        missing = spans.missing_spans(tracer)
        print(
            f"layer table ({workload.name}; traced cycles "
            f"{' '.join(map(str, res.cycles(traced=True)))}; ms per traced round):"
        )
        print(spans.table(metrics, missing))
        print(f"missing spans: {', '.join(missing) if missing else 'none'}")
        units = {name: unit for name, unit, *_ in spans.LAYERS}
        out = {name: _metric(metrics[name], units[name]) for name in units}
    else:
        res = harness.run_workload(workload, seed, args.seconds, args.tiny)
        _print_run(workload.name, seed, res)
        setups = [res.setup_scaled_s] + harness.extra_setups(
            workload, seed, args.tiny, harness.SETUPS - 1
        )
        print(
            f"setup_s per set-up (scaled): {' '.join(f'{s:.3f}' for s in setups)}; "
            f"first set-up wall {res.construct_s + res.warmup_s:.3f}"
        )
        out = {
            "round_ms": _metric(res.round_ms, "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(res.peak_rss_mb, "MB"),
        }
    correct = res.gate.ok
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res.probes["due"],
                "failed": res.probes["lost"],
                "metrics": out,
            }
        )
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process of its own, one after the other."""
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows.append((name, json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None))
    print("summary:")
    for name, result in rows:
        if result is None:
            print(f"  {name}: no result")
            continue
        metrics = " ".join(
            f"{k}={v['value']:.4g}{v['unit']}" for k, v in result["metrics"].items()
        )
        print(
            f"  {name}: correct={result['correct']} probes {result['failed']}/"
            f"{result['attempted']} lost; {metrics}"
        )
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if _import_program() is None:
        print(f"simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
