"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

For each workload, untraced and traced, it checks that the last output line
is the result object and that it carries every metric BENCHMARK.json declares,
with its unit and a numeric value.  It also checks that the benchmark exits
with an error, printing no result, in a directory without the sources.
"""

from __future__ import annotations

import json
import numbers
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-400:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["attempted"] >= 1:
                problems.append(f"{where}: nothing attempted")
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if (got is None or got.get("unit") != metric["unit"]
                        or not isinstance(got.get("value"), numbers.Real)):
                    problems.append(f"{where}: {metric['name']} missing or malformed: {got}")
            extra = set(result["metrics"]) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            print(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")

    bare = os.path.join(ROOT, ".perfbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("without sources the benchmark must fail and print no result")

    for problem in problems:
        print("FAIL", problem)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
