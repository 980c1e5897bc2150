"""genmeans benchmark: run one seeded workload and print every metric.

Usage, from the repository root:

    python3 perfbench/run.py --workload roundtrip-cold --seed 1 --seconds 25 --trace 0

Workloads and metrics, with units and bounds, are declared in BENCHMARK.json.
Each workload runs in a fresh worker process (``worker.py``), single-threaded,
as a closed loop with one client; set-up is timed from process start to the
first job, in several processes (``SETUP_SAMPLES``), and reported as the median.
``--seconds`` covers those set-up samples and the measured jobs; a run ends at
the whole cycle of jobs nearest that deadline, but never before it holds 100
jobs, so that ten lie beyond the 90th percentile.  ``--trace 0`` prints the
end-to-end metrics and ``--trace 1`` the per-layer ones from a separate traced
run.  Every job's output is checked against an oracle outside the timed region.

Job times are gated in reference units: before every job the worker times a
fixed computation of the benchmark's own (``worker.reference_round``), and a
job's cost is its time over the median of the rounds timed around it.  A
shared host's CPU speed can move by up to 2x for minutes at a time, far past
any allowed bound, and the reference round moves with it; the program's own code
never runs in it, so a change to the program moves these costs in full.
``jobs_per_kref`` is passing jobs per 1000 such units, and ``job_ref_p50`` and
``job_ref_p90`` the median and 90th-percentile job cost.  The wall-clock
figures (``jobs_per_s``, ``job_ms_p50``, ``job_ms_p90``) and the reference
round's own median time are printed as ``also measured`` lines and kept in the
run record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when any job fails an oracle other than the known defects listed in
``workloads.KNOWN_DEFECTS``; those are still counted in ``failed``.  Lines
before it give the provenance and name every failed oracle; the full record,
and for traced runs every span, goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = (3, 9)     # set-up processes per run: at least 3, at most 9,
SETUP_SAMPLED_S = 2.0      # stopping once this much set-up time has been sampled
RUN_TIMEOUT_S = 170


def source_digest():
    """sha256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "genmeans")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(seed):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "seed": seed}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def worker(args, deadline, index, *extra):
    """Start a worker; return the process and its seconds from start to ``ready``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--deadline", repr(deadline),
           "--trace", str(args.trace), "--size", args.size,
           "--workdir", os.path.join(OUT, f"work-{os.getpid()}-{index}"), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, 0)
        raise RuntimeError(f"worker failed during set-up: {line!r}")
    return proc, ready


def finish(proc, timeout):
    """Wait for a worker, killing it past ``timeout`` seconds; its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def measure(args):
    """Run the set-up samples and the measured worker; the worker's result."""
    deadline = time.time() + args.seconds    # set-up samples count against the run time
    hard_stop = time.time() + RUN_TIMEOUT_S
    setup = []
    while not args.trace and len(setup) < SETUP_SAMPLES[1] - 1 and (
            len(setup) < SETUP_SAMPLES[0] - 1 or sum(setup) < SETUP_SAMPLED_S):
        proc, ready = worker(args, deadline, len(setup), "--setup-only")
        finish(proc, hard_stop - time.time())
        setup.append(ready)
    spans = ["--spans", os.path.join(OUT, f"{tag(args)}-spans.json")] if args.trace else []
    proc, ready = worker(args, deadline, len(setup), *spans)
    setup.append(ready)
    result = json.loads(finish(proc, hard_stop - time.time()).strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
    result["setup_samples_s"] = setup
    return result


def tag(args):
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def main(argv=None):
    parser = argparse.ArgumentParser(description="genmeans benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small orders and no minimum job count (smoke test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "genmeans", "__init__.py")):
        print(f"error: no genmeans sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    os.makedirs(OUT, exist_ok=True)
    try:
        result = measure(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"error: worker did not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    unexpected = sorted(set(result["failures"]) - set(result["known_defects"]))
    final = {"correct": result["attempted"] >= 1 and not unexpected,
             "attempted": result["attempted"], "failed": result["failed"],
             "metrics": metrics}

    prov = dict(provenance(args.seed), dont_write_bytecode=result["dont_write_bytecode"])
    record = {"workload": args.workload, "provenance": prov, **result, **final,
              "measured": result["metrics"]}
    with open(os.path.join(OUT, f"{tag(args)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("provenance: " + json.dumps(prov))
    for name, count in sorted(result["failures"].items()):
        known = " (known defect)" if name in result["known_defects"] else ""
        print(f"oracle failed: {name} x{count}{known}")
    if "failed_ratio" in result:
        print(f"failed_ratio: {result['failed_ratio']}")
    for name in sorted(set(result["metrics"]) - set(units)):
        print(f"also measured: {name} = {result['metrics'][name]}")
    if result.get("absent"):
        print("boundary functions absent: " + ", ".join(result["absent"]))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
