"""Smoke test of the benchmark runner.

    python3 bench/smoke.py

Runs one short lossy-sweep run with tracing off and one with tracing on, and
checks that every metric BENCHMARK.json names is printed, both as a
``metric <name> = <value> <unit>`` line and in the final JSON line, with the
unit BENCHMARK.json gives it.  Takes about 20 s.  Exit code 0 when all
checks pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(trace: int, expected: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lossy-sweep", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            printed[name] = rest.split()[-1]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"trace {trace}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"trace {trace}: gates failed: {lines[-1][:300]}")
    if set(result["metrics"]) != set(expected):
        errors.append(f"trace {trace}: metric names differ from BENCHMARK.json")
    for name, unit in expected.items():
        if printed.get(name) != unit:
            errors.append(f"trace {trace}: line for {name} prints unit {printed.get(name)!r}, want {unit!r}")
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            errors.append(f"trace {trace}: JSON entry for {name} is {got!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_run(0, {m["name"]: m["unit"] for m in spec["end_to_end"]})
    errors += check_run(1, {m["name"]: m["unit"] for m in spec["per_layer"]})
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
