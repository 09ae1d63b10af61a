"""Fast self-test of the benchmark harness at tiny n (about half a minute).

Run from the repository root::

    python3 perfbench/selftest.py

Every workload runs at n=24, untraced and traced, each in its own process
through ``run.py``.  The test asserts that each run exits 0 with a passing
correctness gate, that the metrics are exactly the ones ``BENCHMARK.json``
names, with its units, and that the layer table matches the per-layer list.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names drifted"
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    layers = {name: unit for name, unit, *_ in spans.LAYERS}
    assert layers == expected[1], "spans.LAYERS and BENCHMARK.json per_layer differ"
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    assert better == {name: b for name, _, b, *_ in spans.LAYERS}, "per-layer 'better' differs"
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0, (workload, trace, result)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, sorted(units))
            for name, metric in result["metrics"].items():
                value = metric["value"]
                assert isinstance(value, (int, float)) and not isinstance(value, bool), name
            print(f"ok  {workload:<8} trace={trace}  {len(units)} metrics")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
