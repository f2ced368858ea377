"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced at tiny sizes (a few episodes, a
short bandit horizon), checks each result line against BENCHMARK.json, and
checks that the benchmark fails without a result in a directory that holds
only BENCHMARK.json and the benchmark's own files. Prints each problem and
exits 1 if there is one.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_problems(proc, units, positive):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    if set(result["metrics"]) != set(units):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ set(units))}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if set(metric) != {"value", "unit"} or metric["unit"] != units.get(name):
            problems.append(f"{name}: {metric}")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}: value {value!r} is not a number")
        elif positive and not value > 0:
            problems.append(f"{name}: end-to-end value {value} is not positive")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in spec["workloads"]:
        for trace, units in (("0", end_to_end), ("1", per_layer)):
            label = f"{workload['name']} --trace {trace}"
            proc = bench(ROOT, "--workload", workload["name"], "--seed", "0",
                         "--seconds", "1", "--trace", trace, "--tiny")
            found = result_problems(proc, units, positive=trace == "0")
            problems += [f"{label}: {p}" for p in found]
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)

    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "--workload", spec["workloads"][0]["name"], "--seed",
                 "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without src/ the benchmark exited "
                        f"{proc.returncode} with output {proc.stdout[-200:]!r}")
    print(f"bare directory: {'ok' if proc.returncode else 'FAILED'}")

    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
