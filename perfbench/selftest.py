"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at toy size, untraced and traced,
and checks that each run exits 0, passes its own output checks and
reports exactly the metrics BENCHMARK.json names, with their units.
Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(name: str, trace: int, expected: dict) -> list[str]:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
        "--seconds", "0", "--trace", str(trace), "--toy",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for metric, unit in expected.items():
        entry = metrics.get(metric, {})
        if entry.get("unit") != unit:
            problems.append(f"{where}: {metric} unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric} value {value!r} is not a finite number")
        elif trace == 0 and value <= 0:
            problems.append(f"{where}: end-to-end metric {metric} is {value}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(workload["name"], trace, expected[trace])
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
