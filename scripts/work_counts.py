#!/usr/bin/env python3
"""Print the call counts of in-process benchmark cycles, as cProfile sees them.

Usage: python scripts/work_counts.py [SEED]

Runs one cycle of each of the benchmark's seeded ``analysis``,
``roundtrip-warm`` and ``roundtrip-cold`` workloads (``perfbench/workloads.py``,
read only, seed 3 by default) under cProfile and prints how often each
function below was called while the jobs ran (set-up is not counted).  The
counts are deterministic: they measure work, not time, so two checkouts
compare on any machine.  Nothing is bounded; a change that claims less work
quotes them.  The round-trip cycles print the first three rows, the analysis
cycle every row but ``math.gcd``.

  Fraction.__new__     every rational built
  common_denominator   every lcm taken over a list of values
  math.gcd             every gcd taken, by ``Fraction`` or by a kernel
  integer_row          every column-limit vector and every row a caller's
                       generator makes, brought to its form; a caller's stored
                       rows are brought to forms as its window is built, which
                       the analysis workload does in set-up
  form entries         the integers the windows' exact forms hold (each
                       window's ``MatrixWindow.integer_rows``, made once); a
                       float row's form, its own values, holds none
  Fraction rows made   every row made as values from its form
                       (``triangle.form_values``), for a reader of them
  analyze_tail         every run of the trend ladder over a trace
  estimates            every sup_of_rows, limit_of_rows and limsup_of_rows call:
                       with analyze_tail, how often an estimate reads a
                       reading its window already holds
  column_limits        every column-limit pass over a window's extended rows
  transformed_rows     every request for an associate window
  associates built     every associate window built (``duality.associate_window``)
  kernels built        every ``operators._InverseKernel`` constructed
  _toeplitz_solve      every reciprocal-series (or W^{-1}) solve
  parameter checks     every check of a parameter set's conditions
  kernel den bits      the widest denominator of an inverse kernel
                       (``operators._InverseKernel.den``), in bits
  assoc entry bits     the widest numerator or denominator of a reduced
                       associate entry the kernels made, in bits

A name the checkout does not have prints as 0.  The next line counts the
modules a fresh interpreter loads for ``import genmeans``: the share of
start-up time that the package's imports decide.  The last two count the lines
of ``src/genmeans``, in all and outside ``selfcheck.py``: the size of the
production code.  The sources come from this
checkout (``src/`` and ``perfbench/``), whatever ``PYTHONPATH`` says.
"""

import cProfile
import contextlib
import math
import os
import pstats
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench's modules import each other by bare name)
from genmeans.operators import _InverseKernel  # noqa: E402
from genmeans.triangle import MatrixWindow  # noqa: E402

# (label, source file suffix, function name) as pstats keys them
FRACTION = ("Fraction.__new__", "fractions.py", "__new__")
COMMON = ("common_denominator", "scalars.py", "common_denominator")
ANALYSIS = (
    FRACTION,
    COMMON,
    ("integer_row", "limits.py", "integer_row"),
    ("form entries", None, None),     # counted by ``held_forms``, not by cProfile
    ("Fraction rows made", "triangle.py", "form_values"),
    ("analyze_tail", "limits.py", "analyze_tail"),
    # one row summing three estimators
    ("estimates", "limits.py", "sup_of_rows"),
    ("estimates", "limits.py", "limit_of_rows"),
    ("estimates", "limits.py", "limsup_of_rows"),
    ("column_limits", "limits.py", "column_limits"),
    ("transformed_rows", "conditions.py", "transformed_rows"),
    ("associates built", "duality.py", "associate_window"),
    ("kernels built", "operators.py", "__init__"),  # the module's one __init__: _InverseKernel
    ("_toeplitz_solve", "operators.py", "_toeplitz_solve"),
    ("parameter checks", "operators.py", "_violations"),
    ("kernel den bits", None, None),  # measured by ``kernel_widths``
    ("assoc entry bits", None, None),
)
ROUNDTRIP = (FRACTION, COMMON, ("math.gcd", "~", "<built-in method math.gcd>"))
CYCLES = (("analysis", ANALYSIS), ("roundtrip-warm", ROUNDTRIP), ("roundtrip-cold", ROUNDTRIP))


@contextlib.contextmanager
def held_forms(found):
    """Add to ``found["form entries"]``, when it is counted, the integers of
    every exact form (start, ints, den) ``MatrixWindow.integer_rows`` makes; a
    float row's form, (0, values, None), holds none."""
    prop = vars(MatrixWindow).get("integer_rows")
    if prop is None or "form entries" not in found:
        yield
        return
    make = prop.func

    def counting(window):
        forms = make(window)
        found["form entries"] += sum(len(ints) for _, ints, den in forms if den is not None)
        return forms

    prop.func = counting
    try:
        yield
    finally:
        prop.func = make


@contextlib.contextmanager
def kernel_widths(found):
    """Keep in ``found`` the bit widths of every kernel denominator and every
    reduced associate entry ``_InverseKernel.associate`` makes, when counted."""
    make = _InverseKernel.associate
    if "kernel den bits" not in found:
        yield
        return

    def measuring(kernel, *args):
        ints, den = pair = make(kernel, *args)    # each entry reduced by one gcd below
        found["kernel den bits"] = max(found["kernel den bits"], kernel.den.bit_length())
        found["assoc entry bits"] = max([found["assoc entry bits"]] + [
            max((abs(v) // g).bit_length(), (den // g).bit_length())
            for v in ints for g in (math.gcd(v, den),)])
        return pair

    _InverseKernel.associate = measuring
    try:
        yield
    finally:
        _InverseKernel.associate = make


def counts(workload, seed, counted):
    """(jobs, {label: calls}) over one cycle of the named workload and seed."""
    found = dict.fromkeys((label for label, _, _ in counted), 0)
    with tempfile.TemporaryDirectory() as tmp:
        jobs = workloads.WORKLOADS[workload](seed, "full", tmp).cycle()
        profile = cProfile.Profile()
        with held_forms(found), kernel_widths(found):
            profile.enable()
            for job in jobs:
                job.run()
            profile.disable()
    stats = pstats.Stats(profile).stats
    for (path, _line, name), (_cc, calls, *_rest) in stats.items():
        for label, suffix, fn in counted:
            if suffix is not None and name == fn and path.endswith(suffix):
                found[label] += calls
    return len(jobs), found


def import_modules():
    """The number of modules ``import genmeans`` adds in a fresh interpreter."""
    probe = ("import sys; before = set(sys.modules); import genmeans; "
             "print(len(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return int(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True).stdout)


def source_lines():
    """{file name: line count} of the ``src/genmeans`` modules."""
    package = os.path.join(ROOT, "src", "genmeans")
    lines = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as source:
                lines[name] = sum(1 for _ in source)
    return lines


def main(argv):
    seed = int(argv[0]) if argv else 3
    for workload, counted in CYCLES:
        jobs, found = counts(workload, seed, counted)
        print(f"{workload} seed {seed}: {jobs} jobs")
        for label, calls in found.items():
            print(f"{label:20} {calls:>8}")
    print(f"{'import genmeans':20} {import_modules():>8} modules")
    lines = source_lines()
    print(f"{'src/genmeans':20} {sum(lines.values()):>8} lines")
    print(f"{'without selfcheck':20} {sum(lines.values()) - lines.get('selfcheck.py', 0):>8} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
