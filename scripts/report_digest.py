#!/usr/bin/env python3
"""Check the sha256 digests of the reports a change must leave byte-identical.

Usage: python scripts/report_digest.py

Runs the benchmark's own seeded jobs (``perfbench/workloads.py``) in this
process and the two demo scripts as child processes, and prints one digest
line per group:

  analysis seed S     ``serialize._plain`` of every job of one analysis cycle
  cli seed S          stdout and exit code of each cli spec, run in process
  roundtrip-cold      ``repr`` of every job result of one cycle
  roundtrip-warm      the same for the warm workload
  SCRIPT ARG          sha256 of the stdout of ``scripts/compactness_survey.py 12``
                      and of ``scripts/transform_demo.py 8``

It then compares the lines with the committed ``scripts/report_digests.txt``
and exits 1, naming each group that differs.  A change that alters reports on
purpose says so and commits the new lines:

  python scripts/report_digest.py > digests.new; mv digests.new scripts/report_digests.txt

The sources come from this checkout (``src/`` and ``perfbench/``), whatever
``PYTHONPATH`` says.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench's modules import each other by bare name)
from genmeans.serialize import _plain  # noqa: E402
from worker import in_process  # noqa: E402

SEEDS = (1, 2)
SCRIPTS = (("compactness_survey.py", "12"), ("transform_demo.py", "8"))
EXPECTED = os.path.join(ROOT, "scripts", "report_digests.txt")


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def digest_lines():
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            load = workloads.Analysis(seed, "full", os.path.join(tmp, f"a{seed}"))
            texts = [json.dumps(_plain(job.run()), sort_keys=True)
                     for job in load.cycle()]
            yield f"analysis seed {seed}: {len(texts)} jobs {digest(texts)}"
        for seed in SEEDS:
            load = workloads.Cli(seed, "full", os.path.join(tmp, f"c{seed}"))
            texts = []
            for spec in load.specs:
                code, out, _err = in_process(load._job(*spec)).run()
                texts.append(f"{code}\n{out}")
            load.close()
            yield f"cli seed {seed}: {len(texts)} jobs {digest(texts)}"
        for name in ("roundtrip-cold", "roundtrip-warm"):
            load = workloads.WORKLOADS[name](SEEDS[0], "full", os.path.join(tmp, name))
            texts = [repr(job.run()) for job in load.cycle()]
            yield f"{name} seed {SEEDS[0]}: {len(texts)} jobs {digest(texts)}"
    path = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))))
    for script, arg in SCRIPTS:
        out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), arg],
                             stdout=subprocess.PIPE, check=True,
                             env={**os.environ, "PYTHONPATH": path}).stdout
        yield f"{script} {arg}: stdout {hashlib.sha256(out).hexdigest()}"


def _group(line):
    return line.split(":", 1)[0]


def main():
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = {_group(line): line for line in fh.read().splitlines() if line}
    differ = []
    for line in digest_lines():
        print(line, flush=True)
        if expected.pop(_group(line), None) != line:
            differ.append(_group(line))
    differ += expected    # groups the file lists but this run did not produce
    if differ:
        print(f"differs from {os.path.relpath(EXPECTED, ROOT)}: {', '.join(differ)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
