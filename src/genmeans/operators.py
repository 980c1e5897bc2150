"""Weighted-mean and difference operators: construction, transforms, presets.

The central objects are the weighted-mean triangle W with entries
s_{n-k} t_k / r_n, the order-m difference triangle with entries
(-1)^{n-k} binom(m, n-k), and the composite mean-difference operator
T = W Delta^m.  Transforms never build T or its inverse: they run m
differences or running sums and one convolution or forward substitution
on W.  Associate rows and rows of T^{-1} come from ``_InverseKernel``,
sized once by its caller, on the reciprocal series c = 1/s.  The kernels
compute on integers over one common denominator (fraction-free, as in
Bareiss elimination), so an inner product costs no gcd, and hand each other
that integer form; each result value is made once from its integer pair.
W and T hold the integer form of each row, made with one gcd per row; the
inverse kernel maps a source row's form to the integers of its associate's
form (``duality.associate_window``), which the row statistics read as is.
The float backend has one boundary: ``exact_twin`` lifts the parameters and
makes result values, and ``scalars.common_denominator`` reads input values
exactly; a triple keeps only its exact twin and its kernels' integer forms.
W and T are the only dense triangles built here; the dense inverses and the
difference triangle are oracles in ``selfcheck``.
A ``ParameterTriple`` is checked once, when it is built, and never again.
Its windows may be longer than the truncation order; the surplus feeds
the structural row generators used by tail-trend diagnostics; row n of T
is m reverse differences of row n of W, never a matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, starmap
from operator import add, mul, truediv
from typing import Optional

from .errors import DimensionError, ParameterError
from .scalars import (
    FLOAT_MODE, RATIONAL, RATIONAL_MODE, Backend, common_denominator, common_quotients)
from .triangle import STRUCTURAL_TAIL, SequenceWindow, TriangleMatrix, span_form

PRESET_NAMES = ("uv", "euler", "aydin", "lambda", "identity")


@dataclass(frozen=True)
class ParameterTriple:
    """Defining data (r, s, t, m) of a mean-difference space truncated at ``order``.

    r and t must be zero-free, s must have a nonzero leading entry, and every
    window must cover at least ``order`` terms.  Windows longer than ``order``
    raise the structural-extension capacity.  On the rational backend the
    windows are stored as Fractions (``Backend.convert``), so int windows
    cannot leak floats through division.  A triple is valid by construction:
    building one that breaks a condition raises ``ParameterError`` listing
    every violation, so no function that receives a triple checks it again.
    """

    r: tuple
    s: tuple
    t: tuple
    m: int
    order: int
    backend: Backend = RATIONAL

    def __post_init__(self):
        for name in ("r", "s", "t"):
            window = tuple(getattr(self, name))
            if self.backend.mode == RATIONAL_MODE and set(map(type, window)) - {Fraction}:
                window = tuple(map(self.backend.convert, window))
            object.__setattr__(self, name, window)
        problems = _violations(self)
        if problems:
            raise ParameterError(problems)

    @property
    def capacity(self):
        return min(len(self.r), len(self.s), len(self.t))

    @cached_property
    def _twin(self):
        """The rational triple on the truncation-order windows, lifted on first
        use by ``exact_twin`` and kept with the triple."""
        n = self.order
        return ParameterTriple(*(tuple(map(Fraction, w[:n])) for w in (self.r, self.s, self.t)),
                               self.m, n, RATIONAL)

    @cached_property
    def _forms(self):
        """(s, t, 1/r) at the order: s, t over one denominator, 1/r_k as (num, den > 0)."""
        n = self.order
        return (common_denominator(self.s[:n]), common_denominator(self.t[:n]),
                [(r.denominator if r > 0 else -r.denominator, abs(r.numerator)) for r in self.r[:n]])


def _violations(p) -> list:
    """All parameter violations, or an empty list when p is usable."""
    problems = []
    if p.order < 1:
        problems.append(f"truncation order must be positive, got {p.order}")
    if p.m < 0:
        problems.append(f"difference order must be nonnegative, got {p.m}")
    for name, window in (("r", p.r), ("s", p.s), ("t", p.t)):
        if len(window) < p.order:
            problems.append(f"{name} window has {len(window)} terms, needs at least {p.order}")
    if p.s and p.s[0] == 0:
        problems.append("s[0] = 0 (leading entry must be nonzero)")
    for name, window in (("r", p.r), ("t", p.t)):
        problems += [f"{name}[{i}] = 0 (window must be zero-free)"
                     for i, value in enumerate(window) if value == 0]
    return problems


def exact_twin(p):
    """The float boundary of the parameters: (the exact twin of p, out);
    rational parameters pass through.  Input values are not lifted here:
    ``common_denominator`` reads a float exactly.

    Binary floats are dyadic rationals, so the lift is exact.  The inverse
    entries are alternating binomial sums whose terms can dwarf the result;
    in doubles they would cancel to nothing, so float-backend constructions
    run on the twin, which keeps only the truncation-order window
    (structural extension stays a rational-backend facility).  Value
    functions make each scalar they return once by ``out(num, den)`` on ints:
    ``Fraction``, or ``num / den`` on the float backend, which CPython rounds
    correctly, so with den > 0 it is ``float(Fraction(num, den))`` bit for
    bit, overflow included (den < 0 would round a zero to -0.0).
    """
    if p.backend.mode != FLOAT_MODE:
        return p, Fraction
    return p._twin, truediv


def _lifted(p, order):
    """The exact twin of p and the requested order; p is valid as built, so the
    one check left is the order against the twin's capacity."""
    p = exact_twin(p)[0]
    order = p.order if order is None else order
    if order > p.capacity:
        raise DimensionError(f"order {order} exceeds parameter capacity {p.capacity}")
    return p, order


def _structural(order, form, capacity):
    """The triangle whose row n has integer form ``form(n)``; structural tail."""
    return TriangleMatrix._of_forms(tuple(map(form, range(order))), STRUCTURAL_TAIL, form, capacity)


def _row_form(ints, den):
    """The integer form of the Fraction row ints / den, den > 0, over the lcm of
    its entries' denominators, which one gcd of the row makes."""
    g = math.gcd(*ints, den)
    return span_form([v // g for v in ints], den // g)


def _mean_row(p):
    """Row n of W on the exact twin p, entries s_{n-k} t_k / r_n for k <= n, as
    integers over the lcm of the entries' denominators: no gcd per entry."""

    (sn, sd), (tn, td) = (zip(*(v.as_integer_ratio() for v in w)) for w in (p.s, p.t))

    def row(n):
        rn, rd = p.r[n].as_integer_ratio()
        rd = rd if rn > 0 else -rd
        nums = [a * b * rd for a, b in zip(sn[n::-1], tn)]
        dens = list(map(mul, sd[n::-1], td))
        den = math.lcm(*dens)
        return [v * (den // d) for v, d in zip(nums, dens)], den * abs(rn)

    return row


def weighted_mean_matrix(p, order=None) -> TriangleMatrix:
    """Entries s_{n-k} t_k / r_n for k <= n; structural tail."""
    p, order = _lifted(p, order)
    mean_row = _mean_row(p)
    return _structural(order, lambda n: _row_form(*mean_row(n)), p.capacity)


def mean_difference_matrix(p, order=None) -> TriangleMatrix:
    """The composite operator T = W Delta^m; structural tail.

    Row n of T is row n of W times Delta^m, that is m reverse differences
    w_k - w_{k+1} (with w_{n+1} = 0) of the weighted-mean row: O(mn) per row.
    """
    p, order = _lifted(p, order)
    mean_row = _mean_row(p)

    def form(n):
        ints, den = mean_row(n)
        d, den = _differences((ints[::-1], den), p.m)
        return _row_form(d[::-1], den)

    return _structural(order, form, p.capacity)


# Substitution kernels.  They take the exact twin and integer forms (ints, den),
# den > 0, at most its order long, touch only the two triangular factors of
# T = W Delta^m (W's through the twin's ``_forms``), and return integer forms.

def _differences(x, m):
    """Delta^m x: m first differences x_n - x_{n-1}, with x_{-1} = 0."""
    x, den = x
    for _ in range(m):
        x = [b - a for a, b in zip([0] + x, x)]
    return x, den


def _running_sums(x, m):
    """Delta^{-m} x: m running sums."""
    x, den = x
    for _ in range(m):
        x = accumulate(x)
    return list(x), den


def _mean_apply(p, d):
    """W d, the convolution y_n = sum_{k<=n} s_{n-k} t_k d_k / r_n, as one pair
    (num, den > 0) per entry: the lcm of r's numerators can be very long."""
    d, dd = d
    (s, ds), (t, dt), rinv = p._forms
    td, den = list(map(mul, t, d)), ds * dt * dd
    return [(sum(map(mul, s[n::-1], td)) * a, den * b) for n, (a, b) in enumerate(rinv[:len(d)])]


def _toeplitz_solve(s, c):
    """(W, q): the w with sum_{k<=n} s_{n-k} w_k = c_n, for s as one integer form
    over at least c's terms and c as pairs (num, den > 0), as integers W over one
    running denominator q > 0, the lcm of the denominators seen, by forward substitution."""
    s, ds = s
    tail, w, q = s[1:], [], 1
    for v, dv in c:
        # w_n = (c_n - sum_{k<n} s_{n-k} w_k) / s_0 with c_n = v / dv, s = S / ds, w = W / q
        num = v * ds * q - sum(map(mul, tail, reversed(w))) * dv
        den = dv * q * s[0]
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        num, den = num // g, den // g
        if q % den:
            f = den // math.gcd(q, den)
            q *= f
            w = [u * f for u in w]
        w.append(num * (q // den))
    return w, q


def _mean_solve(p, y):
    """W^{-1} y by forward substitution: s_0 t_n z_n = r_n y_n - sum_{k<n} s_{n-k} t_k z_k."""
    y, dy = y
    tz, q = _toeplitz_solve(p._forms[0], [(r.numerator * v, r.denominator * dy)
                                          for r, v in zip(p.r, y)])
    z, dz = common_quotients(tz, p.t)      # t_n's numerator cancelled where tz_n allows
    return z, q * dz


def _add_rows(g, row):
    """g + row for integer rows, row one entry longer: a running-sum step."""
    return [*map(add, g, row), row[-1]]


class _InverseKernel:
    """Associate rows and rows of T^{-1} = Delta^{-m} W^{-1} on the exact twin p.

    (W^{-1})_{jk} = c_{j-k} r_k / t_j, with c = 1/s the reciprocal series from
    one ``_toeplitz_solve`` of e_0.  c, 1/t and r are held as integers, each
    over one denominator, for exactly the n terms its caller sizes it to, the
    longest support it will map: the denominators of c_n grow geometrically
    on general (r, s, t).  A kernel serves one call; nothing caches it on p.
    """

    def __init__(self, p, n):
        if n > p.capacity:
            raise DimensionError(f"source row support {n} exceeds parameter capacity {p.capacity}")
        self.p = p
        e0 = ((1, 1),) + ((0, 1),) * (n - 1)     # one term even at n = 0
        self.c, dc = _toeplitz_solve(common_denominator(p.s[:len(e0)]), e0)
        self.tinv, dt = common_quotients((1,) * n, p.t)
        self.r, dr = common_denominator(p.r[:n])
        self.den = dr * dt * dc

    def associate(self, form):
        """(R_0 .. R_{s-1} as ints, their one denominator) of R(a) for the row a of
        integer form ``form`` (start, ints, den), s the support of a within the
        kernel's n terms: with b the m reverse running sums of a,
        R_k = r_k sum_{j>=k} b_j c_{j-k} / t_j, one integer product per entry and no
        gcd.  R vanishes past the support, so the ints end there."""
        start, ints, db = form
        b = reversed([0] * start + ints)
        for _ in range(self.p.m):
            b = accumulate(b)
        u = list(map(mul, list(b)[::-1], self.tinv))
        return [r * sum(map(mul, u[k:], self.c))
                for k, r in enumerate(self.r[:len(u)])], self.den * db

    def inverse_rows(self):
        """(the kernel's rows of T^{-1} as integer lists, their denominator):
        the rows of W^{-1}, then m running sums down the rows."""
        rows = [[r * tj * c for r, c in zip(self.r, self.c[j::-1])]
                for j, tj in enumerate(self.tinv)]
        for _ in range(self.p.m):
            rows = list(accumulate(rows, _add_rows))
        return rows, self.den


def transform(p, x) -> SequenceWindow:
    """Image of a window under the composite operator: W applied to Delta^m x."""
    if len(x) != p.order:
        raise DimensionError(f"sequence length {len(x)} does not match order {p.order}")
    q, out = exact_twin(p)
    return SequenceWindow(starmap(out, _mean_apply(q, _differences(common_denominator(x), q.m))))


def inverse_transform(p, y) -> SequenceWindow:
    """Preimage of a window under the composite operator: m running sums of W^{-1} y."""
    if len(y) != p.order:
        raise DimensionError(f"sequence length {len(y)} does not match order {p.order}")
    q, out = exact_twin(p)
    x, den = _running_sums(_mean_solve(q, common_denominator(y)), q.m)
    return SequenceWindow(out(v, den) for v in x)


@dataclass(frozen=True)
class NormResult:
    """Sup of |transform| over the window, with the attaining index.

    ``exact`` is False whenever the window only bounds the true supremum from
    below (the usual case: the transform tail is undeclared).
    """

    value: object
    arg_index: int
    exact: bool


def space_norm(p, x) -> NormResult:
    y = transform(p, x)
    sizes = [abs(v) for v in y]
    best = max(sizes)
    return NormResult(best, sizes.index(best), exact=(y.tail == "zero"))


@dataclass(frozen=True)
class PresetSpec:
    """Arguments for a named parameter family."""

    name: str
    alpha: object = None
    u: Optional[tuple] = None
    v: Optional[tuple] = None
    lam: Optional[tuple] = None

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ParameterError([f"unknown preset {self.name!r}; choose from {PRESET_NAMES}"])
        for field in ("u", "v", "lam"):
            value = getattr(self, field)
            if value is not None:
                object.__setattr__(self, field, tuple(value))


def preset(spec, order, m=1, backend=RATIONAL) -> ParameterTriple:
    """Instantiate a named parameter family at the given truncation order.

    Windows are 4x the order long so structural tails can be extended for
    trend diagnostics.  The "lambda" family forces m = 1.

    Families:
      uv       r_n = 1/u_n, t_n = v_n, s = ones
      euler    r_n = 1/n!, t_n = a^n/n!, s_n = (1-a)^n/n!, 0 < a < 1
      aydin    r_n = n+1, t_n = 1 + a^n, s = ones, 0 < a < 1
      lambda   r_n = L_n, t_n = L_n - L_{n-1} (L_{-1} = 0), s = ones, m = 1
      identity s = (1, 0, 0, ...), r = t = ones
    """
    if order < 1:
        raise ParameterError([f"truncation order must be positive, got {order}"])
    length = 4 * order
    one, zero = backend.one, backend.zero
    name = spec.name

    if name in ("euler", "aydin"):
        if spec.alpha is None:
            raise ParameterError([f"preset {name!r} requires alpha"])
        alpha = Fraction(spec.alpha) if backend.mode == "rational" else float(spec.alpha)
        if not 0 < alpha < 1:
            raise ParameterError([f"alpha must lie strictly between 0 and 1, got {spec.alpha}"])

    if name == "identity":
        r = t = (one,) * length
        s = (one,) + (zero,) * (length - 1)
    elif name == "uv":
        if spec.u is None or spec.v is None:
            raise ParameterError(["preset 'uv' requires both u and v windows"])
        length = min(length, len(spec.u), len(spec.v))
        if length < order:
            raise ParameterError([f"u/v windows cover {length} terms, need at least {order}"])
        problems = [f"u[{i}] = 0 (must be zero-free)" for i in range(length) if spec.u[i] == 0]
        problems += [f"v[{i}] = 0 (must be zero-free)" for i in range(length) if spec.v[i] == 0]
        if problems:
            raise ParameterError(problems)
        r = tuple(1 / backend.convert(spec.u[i]) for i in range(length))
        t = tuple(backend.convert(spec.v[i]) for i in range(length))
        s = (one,) * length
    elif name == "euler":
        # factorials exact first, converted at the end; never a floating factorial
        af = Fraction(spec.alpha)
        fact = [Fraction(math.factorial(i)) for i in range(length)]
        r = tuple(backend.convert(1 / fact[i]) for i in range(length))
        t = tuple(backend.convert(af ** i / fact[i]) for i in range(length))
        s = tuple(backend.convert((1 - af) ** i / fact[i]) for i in range(length))
    elif name == "aydin":
        r = tuple(backend.convert(i + 1) for i in range(length))
        t = tuple(one + alpha ** i for i in range(length))
        s = (one,) * length
    else:  # lambda
        if spec.lam is None:
            raise ParameterError(["preset 'lambda' requires the lam window"])
        length = min(length, len(spec.lam))
        if length < order:
            raise ParameterError([f"lam window covers {length} terms, need at least {order}"])
        lam = [backend.convert(v) for v in spec.lam[:length]]
        problems = [f"lam[{i}] = 0 (must be zero-free)" for i in range(length) if lam[i] == 0]
        increasing = all(lam[i] < lam[i + 1] for i in range(length - 1))
        decreasing = all(lam[i] > lam[i + 1] for i in range(length - 1))
        if not (increasing or decreasing):
            problems.append("lam must be strictly monotone")
        if problems:
            raise ParameterError(problems)
        r = tuple(lam)
        # strictly monotone and zero-free: every step t_n is nonzero
        t = tuple(lam[i] - (lam[i - 1] if i else zero) for i in range(length))
        s = (one,) * length
        m = 1

    if backend.mode == "float":
        # float windows may underflow to zero or overflow; keep the clean prefix
        usable = next((i for i in range(length) if r[i] == 0 or t[i] == 0
                       or not all(map(math.isfinite, (r[i], s[i], t[i])))), length)
        if usable < order:
            raise ParameterError([
                f"float backend cannot represent the {name!r} windows past index "
                f"{usable}; truncation order {order} needs more"])
        r, s, t = r[:usable], s[:usable], t[:usable]

    return ParameterTriple(r, s, t, m, order, backend)


def identity_triple(order, m=1, backend=RATIONAL) -> ParameterTriple:
    return preset(PresetSpec("identity"), order, m=m, backend=backend)


__all__ = [
    "ParameterTriple", "PresetSpec", "NormResult", "PRESET_NAMES",
    "weighted_mean_matrix", "mean_difference_matrix",
    "transform", "inverse_transform", "space_norm",
    "preset", "identity_triple",
]
