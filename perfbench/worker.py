"""One workload in one fresh process: set up, run whole cycles, report.

Started by ``run.py``; prints ``ready`` once set-up is done (the parent times
process start to that line) and then, unless ``--setup-only`` is given, one
JSON line with the raw measurements.  With ``--trace 1`` it runs the
workload's jobs both untraced and traced and reports per-layer figures and
the tracing overhead instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (needs the path set above)
from tracer import ESTIMATORS, LAYERS, Tracer  # noqa: E402

MIN_JOBS = {"full": 100, "tiny": 1}   # 100 leaves ten jobs beyond the 90th percentile
REF_NEIGHBOURS = 2    # a job's reference time: median of the rounds up to two jobs away


def reference_round():
    """A fixed pure-Python computation of the benchmark's own, never the
    program's, timed before every job.  On a shared host the CPU's speed can
    move by up to 2x for minutes at a time; this round's duration moves with
    it, so a job's time divided by it measures the program in units that stay
    put."""
    total = Fraction(0)
    for i in range(1, 160):
        total += Fraction(i % 7 + 1, i)
    x = 0
    for i in range(15000):
        x = (x * 31 + i) % 1000003
    return total, x


def reference_ms(ref_ms):
    """Each job's reference time: the median of the rounds timed around it."""
    n = len(ref_ms)
    return [statistics.median(ref_ms[max(0, i - REF_NEIGHBOURS):i + REF_NEIGHBOURS + 1])
            for i in range(n)]


def p90(values):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def cycles_until(seconds, enough, cycles=None):
    """Yield cycle numbers: a fixed count, or until enough work is done and the
    deadline is nearer than half a cycle."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        if cycles is not None:
            if done >= cycles:
                return
        elif enough():
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done / 2 >= seconds:
                return


class Runner:
    """Runs jobs one at a time and keeps every job's time and outcome."""

    def __init__(self, tracer=None, observe=None, reference=False):
        self.tracer = tracer
        self.observe = observe         # called with each job's result
        self.reference = reference     # time a reference round before each job
        self.caches = workloads.program_caches()
        self.ms = []
        self.ref_ms = []
        self.classes = []
        self.failures = Counter()
        self.failed_jobs = 0
        self.per_job_counts = []       # traced runs: (kind, Counter of calls)
        self.cache_hits = self.cache_misses = 0

    def run_job(self, job):
        if job.fresh:
            for fn in self.caches:
                fn.cache_clear()
        if self.reference:
            start = time.perf_counter()
            reference_round()
            self.ref_ms.append((time.perf_counter() - start) * 1000)
        tr = self.tracer
        if tr is not None:
            tr.job = len(self.ms)
            tr.counts.clear()
            hits0, misses0 = tr.cache_stats()
            tr.active = True
        start = time.perf_counter()
        try:
            result, raised = job.run(), None
        except Exception as exc:       # a failing job is counted, not fatal
            result, raised = None, exc
        elapsed = time.perf_counter() - start
        if tr is not None:
            tr.active = False
            hits1, misses1 = tr.cache_stats()
            self.cache_hits += hits1 - hits0
            self.cache_misses += misses1 - misses0
            self.per_job_counts.append((job.kind, Counter(tr.counts)))
        if raised is not None:
            fails = [f"{job.cls}:raised-{type(raised).__name__}"]
        else:
            fails = job.check(result)
            if self.observe is not None:
                self.observe(result)
        self.ms.append(elapsed * 1000)
        self.classes.append(job.cls)
        if fails:
            self.failed_jobs += 1
            self.failures.update(fails)

    def run_cycles(self, workload, seconds, min_jobs=1, cycles=None):
        count = 0
        for count in cycles_until(seconds, lambda: len(self.ms) >= min_jobs, cycles):
            for job in workload.cycle():
                self.run_job(job)
        return count + 1


def end_to_end(workload, args):
    runner = Runner(reference=True)
    runner.run_cycles(workload, args.deadline - time.time(), MIN_JOBS[args.size])
    ms = runner.ms
    refs = [t / r for t, r in zip(ms, reference_ms(runner.ref_ms))]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    passed = len(ms) - runner.failed_jobs
    by_class = defaultdict(list)
    for cls, t in zip(runner.classes, ms):
        by_class[cls].append(t)
    return {
        "attempted": len(ms), "failed": runner.failed_jobs, "failures": dict(runner.failures),
        "metrics": {
            "jobs_per_kref": passed / sum(refs) * 1000,
            "job_ref_p50": statistics.median(refs),
            "job_ref_p90": p90(refs),
            "ref_ms_p50": statistics.median(runner.ref_ms),
            "jobs_per_s": passed / (sum(ms) / 1000),
            "job_ms_p50": statistics.median(ms),
            "job_ms_p90": p90(ms),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "ok_ratio": passed / len(ms),
        },
        "failed_ratio": runner.failed_jobs / len(ms),
        "class_ms_p50": {cls: statistics.median(v) for cls, v in sorted(by_class.items())},
        "job_ms": ms, "ref_ms": runner.ref_ms,
    }


def in_process(job):
    """The same cli job, run through ``genmeans.cli.main`` in this process with
    the caches emptied first, as a fresh process would have them."""
    import genmeans.cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = genmeans.cli.main(list(job.argv))
        return code, out.getvalue(), err.getvalue()

    return workloads.Job(job.cls, job.kind, run, job.check, job.argv, fresh=True)


def segments(jobs):
    """Split a cycle before every job that empties the caches, so a segment
    replays the same work; with no such job, every job is a segment."""
    if not any(job.fresh for job in jobs):
        return [[job] for job in jobs]
    out = []
    for job in jobs:
        if job.fresh or not out:
            out.append([])
        out[-1].append(job)
    return out


def traced(workload, args):
    """Each segment of jobs runs untraced and traced, in alternating order, so
    the tracing overhead is measured on identical work close in time."""
    seconds = args.deadline - time.time()
    extra = {}
    cycles = None
    if args.workload == "cli":
        # whole-process times first; the in-process runs replay the same argvs
        sizes = []
        spawned = Runner(observe=lambda result: sizes.append(len(result[1].encode())))
        cycles = spawned.run_cycles(workload, seconds / 3)
        extra["serialize.report_bytes_per_job"] = sum(sizes) / len(spawned.ms)
        next_cycle = workload.cycle
        workload.cycle = lambda: [in_process(job) for job in next_cycle()]
    tracer = Tracer()
    plain, runner = Runner(), Runner(tracer)
    for _ in cycles_until(args.deadline - time.time(), lambda: True, cycles):
        for i, segment in enumerate(segments(workload.cycle())):
            for side in ((plain, runner) if i % 2 == 0 else (runner, plain)):
                if side is runner:
                    tracer.install()
                try:
                    for job in segment:
                        side.run_job(job)
                finally:
                    tracer.remove()
    if args.workload == "cli":
        extra["cli.startup_ms_p50"] = statistics.median(
            a - b for a, b in zip(spawned.ms, plain.ms))

    jobs = len(runner.ms)
    wall = sum(runner.ms) / 1000
    totals, root = tracer.layer_totals()

    def calls(name, kind=None):
        return sum(c[name] for k, c in runner.per_job_counts if kind in (None, k))

    def per(name, kind, per_name):
        n = calls(per_name, kind)
        return calls(name, kind) / n if n else 0.0

    decisive = [sum(calls(f"{n}{suffix}") for n in ESTIMATORS) for suffix in ("", ":decisive")]
    lookups = runner.cache_hits + runner.cache_misses
    metrics = {}
    for layer in LAYERS:
        self_s, n_calls = totals[layer]
        metrics[f"{layer}.self_ms_per_job"] = self_s * 1000 / jobs
        metrics[f"{layer}.self_share"] = self_s / wall
        metrics[f"{layer}.calls_per_job"] = n_calls / jobs
    metrics.update({
        "triangle.toeplitz_coeffs_per_job": calls("toeplitz_inverse_coeffs:coeffs") / jobs,
        "operators.matrix_builds_per_job": runner.cache_misses / jobs,
        "operators.cache_hit_ratio": runner.cache_hits / lookups if lookups else 0.0,
        "scalars.bits_max": workload.stats.bits_max,
        "operators.f64_err_max": workload.stats.f64_err_max,
        "duality.associate_rows_per_job": calls("associate_row") / jobs,
        "duality.tail_sum_matrices_per_job": calls("tail_sum_matrix") / jobs,
        "conditions.transformed_rows_per_classify":
            per("transformed_rows", "classify", "classify_map"),
        "conditions.tail_sum_family_per_classify":
            per("tail_sum_family", "classify", "classify_map"),
        "compactness.associate_builds_per_chi":
            per("associate_matrix", "chi-matrix", "chi_norm"),
        "limits.extended_rows_per_job": calls("extended_rows:rows") / jobs,
        "limits.decisive_share": decisive[1] / decisive[0] if decisive[0] else 0.0,
        "serialize.report_bytes_per_job": 0.0,
        "cli.startup_ms_p50": 0.0,
        "trace.overhead_share": wall / (sum(plain.ms) / 1000) - 1,
        "trace.attributed_share": root / wall,
        **extra,
    })
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["job", "id", "parent", "layer", "name", "start", "end",
                                  "child_s"], "spans": tracer.spans}, fh)
    return {
        "attempted": len(plain.ms) + jobs, "failed": plain.failed_jobs + runner.failed_jobs,
        "failures": dict(plain.failures + runner.failures), "metrics": metrics,
        "absent": tracer.absent,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--deadline", type=float, required=True,
                        help="time.time() by which the measured cycles should end")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="traced runs: write every span here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    print("ready", flush=True)
    try:
        if args.setup_only:
            return 0
        result = traced(workload, args) if args.trace else end_to_end(workload, args)
    finally:
        workload.close()
    result["known_defects"] = sorted(set(result["failures"]) & workloads.KNOWN_DEFECTS)
    result["dont_write_bytecode"] = bool(sys.flags.dont_write_bytecode)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
