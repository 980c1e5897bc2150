#!/usr/bin/env python3
"""Print sha256 digests of the reports a change must leave byte-identical.

Usage: python scripts/report_digest.py

Runs the benchmark's own seeded jobs (``perfbench/workloads.py``) in this
process and prints one digest line per group:

  analysis seed S     ``serialize._plain`` of every job of one analysis cycle
  cli seed S          stdout and exit code of each cli spec, run in process
  roundtrip-cold      ``repr`` of every job result of one cycle
  roundtrip-warm      the same for the warm workload

Run it on two checkouts and compare the output: equal lines mean equal bytes.
The sources come from this checkout (``src/`` and ``perfbench/``), whatever
``PYTHONPATH`` says.
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench's modules import each other by bare name)
from genmeans.serialize import _plain  # noqa: E402
from worker import in_process  # noqa: E402

SEEDS = (1, 2)


def _run(job, caches):
    if job.fresh:
        for fn in caches:
            fn.cache_clear()
    return job.run()


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def main():
    caches = workloads.program_caches()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            load = workloads.Analysis(seed, "full", os.path.join(tmp, f"a{seed}"))
            texts = [json.dumps(_plain(_run(job, caches)), sort_keys=True)
                     for job in load.cycle()]
            print(f"analysis seed {seed}: {len(texts)} jobs {digest(texts)}")
        for seed in SEEDS:
            load = workloads.Cli(seed, "full", os.path.join(tmp, f"c{seed}"))
            texts = []
            for spec in load.specs:
                code, out, _err = _run(in_process(load._job(*spec)), caches)
                texts.append(f"{code}\n{out}")
            load.close()
            print(f"cli seed {seed}: {len(texts)} jobs {digest(texts)}")
        for name in ("roundtrip-cold", "roundtrip-warm"):
            load = workloads.WORKLOADS[name](SEEDS[0], "full", os.path.join(tmp, name))
            texts = [repr(_run(job, caches)) for job in load.cycle()]
            print(f"{name} seed {SEEDS[0]}: {len(texts)} jobs {digest(texts)}")


if __name__ == "__main__":
    main()
