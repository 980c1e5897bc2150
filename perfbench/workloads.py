"""Seeded workloads for the genmeans benchmark: inputs, jobs and oracles.

Every input comes from this file's own generator, driven by the seed the
benchmark was given; nothing here uses ``genmeans.selfcheck``, so a change to
the program cannot change what it is asked to do.  Each oracle recomputes the
expected answer with plain ``fractions.Fraction`` arithmetic or from a known
closed answer, and runs outside the timed region.

A workload hands out its jobs one *cycle* at a time.  A cycle holds every job
class in fixed shares, so a run of whole cycles always has the same mix and
the median and 90th-percentile latencies fall inside one class.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import genmeans
from genmeans import compactness, conditions, operators
from genmeans.operators import ParameterTriple, PresetSpec
from genmeans.scalars import FLOAT64, RATIONAL
from genmeans.triangle import MatrixWindow, SequenceWindow

F64_ROUNDTRIP_TOL = 1e-10
TARGETS = ("c0", "c", "l_inf")
PAIRS = tuple((src, tgt) for src in TARGETS for tgt in TARGETS)

# Oracle failures the seed commit is known to produce; a run whose failures all
# come from this set is still reported correct, with the failures counted.
KNOWN_DEFECTS = {
    # the trend ladder accepts the anti-limit of a diverging 2^n trace
    "assoc-q2:norm-not-indeterminate",
    "assoc-q2:verdict-satisfied",
    # rank-one associate judged not compact although its chi bracket is [0, 1]
    "assoc-q1:rank-one-not-compact",
}

SIZES = {
    # roundtrip-cold orders, warm order, analysis widths, euler orders,
    # supplied-associate stored rows, cli orders
    "full": {"cold": (16, 32, 64), "warm": 64, "zt": (8, 12), "euler": (4, 6),
             "assoc_rows": (16, 64), "cli": (32, 16, 8)},
    "tiny": {"cold": (4, 6, 8), "warm": 8, "zt": (3, 4), "euler": (3, 4),
             "assoc_rows": (16, 64), "cli": (6, 4, 3)},
}


class Job:
    """One unit of timed work: ``run()`` is timed, ``check(result)`` is not and
    returns the names of the oracles the result fails."""

    __slots__ = ("cls", "kind", "run", "check", "argv", "fresh")

    def __init__(self, cls, kind, run, check, argv=None, fresh=False):
        self.cls, self.kind, self.run, self.check, self.argv = cls, kind, run, check, argv
        self.fresh = fresh    # empty the program's caches before this job


def program_caches():
    """Every lru_cache-wrapped function the loaded genmeans modules hold."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "genmeans" or name.startswith("genmeans."):
            for value in vars(mod).values():
                # a traced run sees its wrapper, which keeps the cached function
                for fn in (value, getattr(value, "__wrapped__", None)):
                    if callable(getattr(fn, "cache_clear", None)):
                        found[id(fn)] = fn
    return list(found.values())


# --- generators ------------------------------------------------------------

def _nonzero(rng, span=3, den=3):
    while True:
        v = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if v:
            return v


def _any(rng, span=3, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_triple(rng, order):
    """Random small-rational (r, s, t) windows of length 4 * order."""
    length = 4 * order
    r = tuple(_nonzero(rng) for _ in range(length))
    t = tuple(_nonzero(rng) for _ in range(length))
    s = (_nonzero(rng),) + tuple(_any(rng, span=2) for _ in range(length - 1))
    return r, s, t


def euler_windows(alpha, length):
    """Exact euler windows: r_n = 1/n!, t_n = a^n/n!, s_n = (1-a)^n/n!."""
    fact = [math.factorial(i) for i in range(length)]
    r = tuple(Fraction(1, f) for f in fact)
    t = tuple(alpha ** i / f for i, f in enumerate(fact))
    s = tuple((1 - alpha) ** i / f for i, f in enumerate(fact))
    return r, s, t


def _signed_float(rng):
    """A float of magnitude in [0.5, 2] with a random sign."""
    return rng.choice((-1.0, 1.0)) * (0.5 + 1.5 * rng.randint(0, 1 << 20) / (1 << 20))


def _float_seq(rng, n):
    return tuple(rng.randint(-4096, 4096) / 1024 for _ in range(n))


# --- reference arithmetic --------------------------------------------------

def ref_transform(r, s, t, m, x):
    """(1/r_n) sum_{i<=n} s_{n-i} t_i (Delta^m x)_i in exact rationals."""
    x = [Fraction(v) for v in x]
    dx = [sum((-1) ** d * math.comb(m, d) * x[i - d] for d in range(min(m, i) + 1))
          for i in range(len(x))]
    r, s, t = ([Fraction(v) for v in w[:len(x)]] for w in (r, s, t))
    return [sum(s[n - i] * t[i] * dx[i] for i in range(n + 1)) / r[n] for n in range(len(x))]


def bits(value):
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


# --- roundtrip jobs --------------------------------------------------------

class RoundtripStats:
    """Largest rational bit length and f64 round-trip error seen by oracles."""

    def __init__(self):
        self.bits_max = 0
        self.f64_err_max = 0.0


def roundtrip_job(cls, p, x, windows, stats):
    """transform, inverse_transform and space_norm on one sequence, checked
    against the exact reference built from ``windows`` = (r, s, t)."""
    rational = p.backend is RATIONAL

    def run():
        y = operators.transform(p, x)
        back = operators.inverse_transform(p, y)
        return y, back, operators.space_norm(p, x)

    def check(result):
        y, back, norm = result
        ref = ref_transform(*windows, p.m, x.values)
        fails = []
        if rational:
            stats.bits_max = max(stats.bits_max, *(bits(v) for v in y.values + back.values))
            if back.values != x.values:
                fails.append("roundtrip-exact")
            if list(y.values) != ref:
                fails.append("transform-matches-reference")
        else:
            err = max(abs(a - b) for a, b in zip(back.values, x.values))
            stats.f64_err_max = max(stats.f64_err_max, err)
            if not err <= F64_ROUNDTRIP_TOL:
                fails.append("roundtrip-f64")
            scale = max(abs(v) for v in ref)
            if not all(abs(Fraction(a) - b) <= F64_ROUNDTRIP_TOL * scale
                       for a, b in zip(y.values, ref)):
                fails.append("transform-matches-reference")
        peak = max(abs(v) for v in y.values)
        if not (norm.value == peak == abs(y.values[norm.arg_index])):
            fails.append("norm-is-max-abs")
        return fails

    return Job(cls, "roundtrip", run, check)


def _rational_random(rng, order, m, stats):
    r, s, t = random_triple(rng, order)
    p = ParameterTriple(r, s, t, m, order, RATIONAL)
    x = SequenceWindow(tuple(_any(rng, span=9, den=9) for _ in range(order)))
    return roundtrip_job(f"rational-n{order}", p, x, (r, s, t), stats)


def _rational_euler(rng, order, alpha, m, stats):
    p = operators.preset(PresetSpec("euler", alpha=alpha), order, m=m)
    x = SequenceWindow(tuple(_any(rng, span=9, den=9) for _ in range(order)))
    return roundtrip_job(f"euler-n{order}", p, x, euler_windows(alpha, order), stats)


def _f64_uv(rng, order, m, stats):
    u = tuple(_signed_float(rng) for _ in range(4 * order))
    v = tuple(_signed_float(rng) for _ in range(4 * order))
    p = operators.preset(PresetSpec("uv", u=u, v=v), order, m=m, backend=FLOAT64)
    x = SequenceWindow(_float_seq(rng, order))
    windows = (tuple(1 / Fraction(w) for w in u), (1,) * order, v)
    return roundtrip_job(f"f64-uv-n{order}", p, x, windows, stats)


def _interleave(counts):
    """Class indices in a fixed order that spreads each class over the cycle."""
    slots = [((i + 0.5) / n, c) for c, n in enumerate(counts) for i in range(n)]
    return [c for _, c in sorted(slots)]


class Workload:
    """Base: ``cycle()`` returns the next cycle of jobs, built from the seed.

    Subclasses give ``class_specs()``: (jobs per cycle, factory) pairs, where
    ``factory(k)`` makes the class's k-th job.
    """

    def __init__(self, seed, size, workdir):
        self.rng = random.Random(seed)
        self.size = SIZES[size]
        self.workdir = workdir
        self.stats = RoundtripStats()
        self.made = {}

    def cycle(self):
        specs = self.class_specs()
        jobs = []
        for c in _interleave([n for n, _ in specs]):
            k = self.made.get(c, 0)
            self.made[c] = k + 1
            jobs.append(specs[c][1](k))
        return jobs

    def close(self):
        pass


class RoundtripCold(Workload):
    """Every job draws fresh parameters, so every construction cache misses."""

    def class_specs(self):
        n1, n2, n3 = self.size["cold"]
        rng, st = self.rng, self.stats
        alphas = (Fraction(1, 2), Fraction(1, 3))
        # by latency: n16 < n32 < euler < f64 n64 < rational n64; the euler class
        # (fixed parameters) holds both the median (at 36%) and the 90th
        # percentile (at 93%) of its span
        return [
            (6, lambda k: _rational_random(rng, n1, k % 4, st)),
            (4, lambda k: _rational_random(rng, n2, k % 4, st)),
            (28, lambda k: _rational_euler(rng, n2, alphas[k % 2], 1 + k // 2 % 2, st)),
            (1, lambda k: _f64_uv(rng, n3, 1 + k % 2, st)),
            (1, lambda k: _rational_random(rng, n3, k % 4, st)),
        ]

    def cycle(self):
        jobs = super().cycle()
        for job in jobs:
            job.fresh = True
        return jobs


class RoundtripWarm(Workload):
    """A pool of four parameter sets built and warmed in setup; jobs reuse them."""

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        n = self.size["warm"]
        self.pool = []
        for m in (1, 2):
            r, s, t = random_triple(self.rng, n)
            self.pool.append((ParameterTriple(r, s, t, m, n, RATIONAL), (r, s, t)))
        for m in (1, 2):
            u = tuple(_signed_float(self.rng) for _ in range(4 * n))
            v = tuple(_signed_float(self.rng) for _ in range(4 * n))
            p = operators.preset(PresetSpec("uv", u=u, v=v), n, m=m, backend=FLOAT64)
            self.pool.append((p, (tuple(1 / Fraction(w) for w in u), (1,) * n, v)))
        for p, _ in self.pool:       # warm every construction cache the jobs use
            zero = SequenceWindow((p.backend.zero,) * n)
            operators.inverse_transform(p, operators.transform(p, zero))

    def _job(self, member, k):
        p, windows = self.pool[member + k % 2]
        rng = self.rng
        if p.backend is RATIONAL:
            x = SequenceWindow(tuple(_any(rng, span=9, den=9) for _ in range(p.order)))
            cls = f"warm-rational-n{p.order}"
        else:
            x = SequenceWindow(_float_seq(rng, p.order))
            cls = f"warm-f64-uv-n{p.order}"
        return roundtrip_job(cls, p, x, windows, self.stats)

    def class_specs(self):
        # rational members 0-1 take the median, f64 members 2-3 the 90th percentile
        return [(7, lambda k: self._job(0, k)), (3, lambda k: self._job(2, k))]


# --- analysis jobs ---------------------------------------------------------

def _classify_job(cls, p, A, src, tgt, expect_satisfied):
    def run():
        return conditions.classify_map(p, A, src, tgt)

    def check(report):
        if expect_satisfied and report.overall.status != "satisfied":
            return [f"zero-tail:{src}-{tgt}-satisfied"]
        return []

    return Job(cls, "classify", run, check)


def _chi_job(cls, p, operand, target, check_fn):
    kind = "chi-supplied" if isinstance(operand, compactness.AssociateMatrix) else "chi-matrix"

    def run():
        return (compactness.chi_norm(p, operand, target),
                compactness.compactness_verdict(p, operand, target),
                compactness.operator_norm(p, operand))

    return Job(cls, kind, run, lambda result: check_fn(target, *result))


def _zero_tail_instance(rng, width, rows, m):
    r, s, t = random_triple(rng, width)
    p = ParameterTriple(r, s, t, m, width, RATIONAL)
    A = MatrixWindow(tuple(tuple(_any(rng) if rng.random() < 0.6 else Fraction(0)
                                 for _ in range(width)) for _ in range(rows)), "zero")
    x = tuple(_any(rng, span=9, den=9) for _ in range(width))
    checked = []

    def check_chi(target, chi, verdict, norm):
        fails = []
        if not (chi.lower == 0 and chi.upper == 0):
            fails.append("zero-tail:chi-bracket-zero")
        if verdict.status != "satisfied":
            fails.append("zero-tail:finite-rank-compact")
        if not checked:    # coordinate change: A x == associate (T x), once per instance
            checked.append(True)
            assoc = compactness.associate_matrix(p, A).window
            y = ref_transform(r, s, t, m, x)
            lhs = [sum(a * b for a, b in zip(row, x)) for row in A.rows]
            rhs = [sum(a * b for a, b in zip(row, y)) for row in assoc.rows]
            if lhs != rhs:
                fails.append("zero-tail:coordinate-change")
        return fails

    cls = f"zero-tail-n{width}"
    return ([_classify_job(f"{cls}-classify", p, A, s_, t_, True) for s_, t_ in PAIRS]
            + [_chi_job(f"{cls}-chi", p, A, tgt, check_chi) for tgt in TARGETS])


def _euler_instance(order, alpha, composite):
    p = operators.preset(PresetSpec("euler", alpha=alpha), order, m=1)
    A = (operators.mean_difference_matrix if composite else operators.weighted_mean_matrix)(p)
    kind = f"euler-{'composite' if composite else 'weighted-mean'}-n{order}"

    def check_chi(target, chi, verdict, norm):
        if composite and target == "c0" and not (chi.lower == 1 and chi.upper == 1):
            return [f"{kind}:chi-c0-is-one"]
        return []

    return ([_classify_job(f"{kind}-classify", p, A, s_, t_, False) for s_, t_ in PAIRS]
            + [_chi_job(f"{kind}-chi", p, A, tgt, check_chi) for tgt in TARGETS])


# Supplied associates: rows f(n) e_0 (or the identity) with known answers.
# known[target] = True (compact), False (not compact) or None (no claim);
# norm is the exact operator norm, or None when the operator is unbounded.
ASSOCIATES = {
    "q1/2": (lambda n: (Fraction(1, 2 ** n),), dict.fromkeys(TARGETS, True), 1),
    "q1": (lambda n: (Fraction(1),), {"c0": None, "c": True, "l_inf": True}, 1),
    "q2": (lambda n: (Fraction(2 ** n),), dict.fromkeys(TARGETS, None), None),
    "harmonic": (lambda n: (Fraction(1, n + 1),), dict.fromkeys(TARGETS, True), 1),
    "identity": (lambda n: (Fraction(0),) * n + (Fraction(1),),
                 dict.fromkeys(TARGETS, False), 1),
}

_DECISIVE = ("exact", "trend-converged")


def _assoc_instances(p, rows):
    jobs = []
    for name, (row_fn, known, norm_value) in ASSOCIATES.items():
        operand = compactness.supplied_associate(MatrixWindow(
            tuple(row_fn(n) for n in range(rows)), "structural", row_fn))

        def check(target, chi, verdict, norm, name=name, known=known, norm_value=norm_value):
            fails = []
            expect = known[target]
            if norm_value is None:
                if norm.status != "indeterminate":
                    fails.append(f"assoc-{name}:norm-not-indeterminate")
                if verdict.status == "satisfied":
                    fails.append(f"assoc-{name}:verdict-satisfied")
            elif norm.status in _DECISIVE and norm.value != norm_value:
                fails.append(f"assoc-{name}:norm-value")
            if expect is True and verdict.status == "violated":
                fails.append(f"assoc-{name}:{'rank-one-' if name == 'q1' else ''}not-compact")
            if expect is False and verdict.status == "satisfied":
                fails.append(f"assoc-{name}:compact-verdict")
            return fails

        jobs += [_chi_job(f"assoc-{name}-chi", p, operand, tgt, check) for tgt in TARGETS]
    return jobs


class Analysis(Workload):
    """classify_map over the nine space pairs and the chi trio per target."""

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        r, s, t = random_triple(self.rng, 4)
        self.assoc_params = ParameterTriple(r, s, t, 1, 4, RATIONAL)

    def class_specs(self):
        w1, w2 = self.size["zt"]
        e1, e2 = self.size["euler"]
        lo, hi = self.size["assoc_rows"]
        rng = self.rng
        half, third = Fraction(1, 2), Fraction(1, 3)

        def zero_tail(width, rows, m):
            return 1, lambda k: _zero_tail_instance(rng, width, rows, m)

        def euler(order, alpha, composite):
            return 1, lambda k: _euler_instance(order, alpha, composite)

        # One cycle holds every variant (174 jobs), so every run has the same mix.
        # The costly order-e2 euler instances, which hold the 90th percentile, are
        # spread over the cycle so that no single stretch of the run decides it.
        return [
            (2, lambda k: _assoc_instances(self.assoc_params, rng.randint(lo, hi))),
            zero_tail(w1, 3, 1), euler(e2, half, True), euler(e1, half, True),
            zero_tail(w2, 3, 3), euler(e2, third, False), euler(e1, third, True),
            zero_tail(w1, 4, 2), euler(e2, third, True), euler(e1, half, False),
            zero_tail(w2, 4, 1), euler(e2, half, False), euler(e1, third, False),
        ]

    def cycle(self):
        instances = super().cycle()
        for jobs in instances:     # an instance's jobs share the caches it fills
            jobs[0].fresh = True
        return [job for jobs in instances for job in jobs]


# --- cli jobs --------------------------------------------------------------

def _hash(job_doc):
    text = json.dumps(job_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _seq_doc(values, tail="zero"):
    def scalar(v):
        if isinstance(v, float):
            return repr(v)
        return {"num": str(v.numerator), "den": str(v.denominator)}
    return {"values": [scalar(v) for v in values], "tail": tail}


def _matrix_doc(rows, tail):
    return {"kind": "window", "tail": tail,
            "rows": [[{"num": str(v.numerator), "den": str(v.denominator)} for v in row]
                     for row in rows]}


class Cli(Workload):
    """One ``python -m genmeans.cli`` child at a time over every subcommand."""

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        n_rt, n_dual, n_mat = self.size["cli"]
        rng = self.rng
        os.makedirs(workdir, exist_ok=True)
        docs = {
            "x.json": _seq_doc([_any(rng, span=9, den=9) for _ in range(n_rt)]),
            "xf.json": _seq_doc(list(_float_seq(rng, n_rt))),
            "a.json": _seq_doc([_any(rng) for _ in range(n_dual // 2)]
                               + [Fraction(0)] * (n_dual - n_dual // 2)),
            "A.json": _matrix_doc([[_any(rng) for _ in range(n_mat)] for _ in range(3)],
                                  "zero"),
            "atilde.json": _matrix_doc([[Fraction(1, n + 1)] for n in range(2 * n_mat)],
                                       "structural"),
        }
        self.files = {}
        for name, doc in docs.items():
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.files[name] = (path, doc)
        self.env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(genmeans.__file__)))
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.specs = self._specs(n_rt, n_dual, n_mat)

    def _specs(self, n_rt, n_dual, n_mat):
        """(class, argv, expected exit code, job document) for every cli job."""
        f = self.files
        euler = {"preset": "euler", "n": n_rt, "m": 2, "scalar": "rational", "alpha": "1/2"}
        aydin = {"preset": "aydin", "n": n_rt, "m": 1, "scalar": "float", "alpha": "0.5"}
        e_args = ["--preset", "euler", "--alpha", "1/2", "--m", "2", "--n", str(n_rt)]
        a_args = ["--preset", "aydin", "--alpha", "1/2", "--scalar", "f64", "--n", str(n_rt)]
        dual = {"preset": "euler", "n": n_dual, "m": 1, "scalar": "rational", "alpha": "1/3"}
        d_args = ["--preset", "euler", "--alpha", "1/3", "--n", str(n_dual)]
        mat = {"preset": "euler", "n": n_mat, "m": 1, "scalar": "rational", "alpha": "1/2"}
        m_args = ["--preset", "euler", "--alpha", "1/2", "--n", str(n_mat)]
        matf = dict(mat, scalar="float", alpha="0.5")
        specs = [
            ("transform", ["transform", *e_args, "--input", f["x.json"][0]], 0,
             {"command": "transform", **euler, "input": f["x.json"][1]}),
            ("inverse-transform", ["inverse-transform", *e_args, "--input", f["x.json"][0]], 0,
             {"command": "inverse-transform", **euler, "input": f["x.json"][1]}),
            ("transform-f64", ["transform", *a_args, "--input", f["xf.json"][0]], 0,
             {"command": "transform", **aydin, "input": f["xf.json"][1]}),
            ("inverse-transform-f64",
             ["inverse-transform", *a_args, "--input", f["xf.json"][0]], 0,
             {"command": "inverse-transform", **aydin, "input": f["xf.json"][1]}),
            ("norm", ["norm", *e_args, "--input", f["x.json"][0]], 0,
             {"command": "norm", **euler, "input": f["x.json"][1]}),
            ("basis", ["basis", *d_args, "--j", "3"], 0,
             {"command": "basis", **dual, "j": 3}),
        ]
        for kind in ("alpha", "beta", "gamma"):
            specs.append((f"dual-{kind}", ["dual", *d_args, "--dual", kind,
                                           "--input", f["a.json"][0]], 0,
                          {"command": "dual", **dual, "dual": kind, "space": "c0",
                           "input": f["a.json"][1]}))
        for src, tgt in (("c", "c"), ("l_inf", "c0")):
            specs.append((f"matclass-{src}-{tgt}",
                          ["matclass", *m_args, "--matrix", f["A.json"][0],
                           "--source", src, "--target", tgt], 0,
                          {"command": "matclass", **mat, "source": src, "target": tgt,
                           "matrix": f["A.json"][1]}))
        specs += [
            ("chi-matrix", ["chi", *m_args, "--matrix", f["A.json"][0], "--target", "c"], 0,
             {"command": "chi", **mat, "target": "c", "matrix": f["A.json"][1]}),
            ("chi-matrix-f64", ["chi", *m_args, "--scalar", "f64", "--matrix",
                                f["A.json"][0], "--target", "c0"], 0,
             {"command": "chi", **matf, "target": "c0", "matrix": f["A.json"][1]}),
            ("chi-atilde", ["chi", *m_args, "--atilde", f["atilde.json"][0],
                            "--target", "c0"], 0,
             {"command": "chi", **mat, "target": "c0", "atilde": f["atilde.json"][1]}),
            ("selftest", ["selftest"], 0, {"command": "selftest", "seed": 20240601}),
            ("missing-input", ["norm", *e_args, "--input",
                               os.path.join(self.workdir, "absent.json")], 2, None),
        ]
        return specs

    def class_specs(self):
        # one cycle holds at least 100 jobs: each job seven times, the slow selftest twice
        return [(2 if spec[0] == "selftest" else 7, lambda k, spec=spec: self._job(*spec))
                for spec in self.specs]

    def _job(self, cls, argv, code, job_doc):
        def run():
            done = subprocess.run([sys.executable, "-m", "genmeans.cli", *argv],
                                  env=self.env, cwd=self.workdir, capture_output=True,
                                  text=True, timeout=170)
            return done.returncode, done.stdout, done.stderr

        def check(result):
            return check_cli(cls, code, job_doc, *result)

        return Job(cls, "cli", run, check, argv)

    def close(self):
        for path, _ in self.files.values():
            os.remove(path)
        os.rmdir(self.workdir)


def check_cli(cls, expected_code, job_doc, code, stdout, stderr):
    fails = []
    if code != expected_code:
        fails.append(f"cli-{cls}:exit-code")
    if "Traceback" in stderr:
        fails.append(f"cli-{cls}:traceback")
    if job_doc is None:
        if stdout or not stderr.startswith("error:"):
            fails.append(f"cli-{cls}:validation-message")
        return fails
    try:
        report = json.loads(stdout)
    except ValueError:
        return fails + [f"cli-{cls}:report-parses"]
    if report.get("job_hash") != _hash(job_doc):
        fails.append(f"cli-{cls}:job-hash")
    return fails


WORKLOADS = {
    "roundtrip-cold": RoundtripCold,
    "roundtrip-warm": RoundtripWarm,
    "analysis": Analysis,
    "cli": Cli,
}
