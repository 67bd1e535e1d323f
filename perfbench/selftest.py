"""Smoke-scale self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` for one second on tiny inputs:
untraced with two seeds, then traced.  Each run must exit 0 and print a
correct result that names every declared metric with its declared unit,
and the two seeds must have produced different inputs.  Run it from the
root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One smoke run; its detail record and its result."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=600)
    expect(completed.returncode == 0,
           f"exit {completed.returncode}:\n{completed.stderr[-3000:]}")
    detail, result = completed.stdout.strip().splitlines()[-2:]
    return json.loads(detail)["perfbench"], json.loads(result)


def check(result: dict, declared: list, what: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{what}: not correct: {result}")
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    wanted = {metric["name"]: metric["unit"] for metric in declared}
    expect(units == wanted, f"{what}: metrics {units} != {wanted}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        expect(isinstance(value, (int, float)) and value == value,
               f"{what}: {name} = {value!r}")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        try:
            first, result = run(workload, 1, 0)
            check(result, benchmark["end_to_end"], f"{workload} seed 1")
            second, result = run(workload, 2, 0)
            check(result, benchmark["end_to_end"], f"{workload} seed 2")
            expect(first["inputs_digest"] != second["inputs_digest"],
                   f"{workload}: seeds 1 and 2 gave the same inputs")
            _detail, result = run(workload, 1, 1)
            check(result, benchmark["per_layer"], f"{workload} traced")
        except SelfTestError as error:
            failures += 1
            print(f"FAIL {workload}: {error}")
        else:
            print(f"ok   {workload}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
