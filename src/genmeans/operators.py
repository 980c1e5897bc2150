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
that integer form; each result value is made once from its integer pair, and
the norm compares the transform's pairs by cross-multiplication and makes one.
W and T come from one builder, W being T at m = 0, at the triple's own order
(another order is ``dataclasses.replace(p, order=n)``); it holds each row's
integer form, made with one gcd per row.  The inverse kernel maps a source row's
form to the integers of its associate's form (``duality.associate_window``),
which the row statistics read as is.
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
from operator import add, gt, lt, mul, truediv
from typing import Optional

from .errors import DimensionError, ParameterError
from .scalars import (
    FLOAT_MODE, RATIONAL, RATIONAL_MODE, Backend, common_denominator, common_quotients)
from .triangle import STRUCTURAL_TAIL, SequenceWindow, TriangleMatrix, span_form

# the arguments each named family takes (``PresetSpec`` fields): alpha a number,
# every other a window
PRESET_ARGS = {"uv": ("u", "v"), "euler": ("alpha",), "aydin": ("alpha",), "lambda": ("lam",),
               "identity": ()}
PRESET_NAMES = tuple(PRESET_ARGS)


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
        """(s, t, r, 1/r) at the order: s, t over one denominator, r and 1/r as pairs."""
        n = self.order
        r = [v.as_integer_ratio() for v in self.r[:n]]
        return (common_denominator(self.s[:n]), common_denominator(self.t[:n]), r,
                [(d if v > 0 else -d, abs(v)) for v, d in r])


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


def _mean_difference(p, m):
    """W Delta^m on the exact twin of p, at its order, extending to the twin's
    capacity; structural tail.  W is the case m = 0.

    Row n of W, entries s_{n-k} t_k / r_n for k <= n, is made as integers over
    the lcm of its entries' denominators (the numerators and denominators of s
    and t read once per matrix), so no gcd per entry; row n of W Delta^m is m
    reverse differences w_k - w_{k+1} (with w_{n+1} = 0) of it, O(mn) per row,
    never a matrix product.  One gcd of the row reduces it to its integer form.
    """
    p = exact_twin(p)[0]
    (sn, sd), (tn, td) = (zip(*(v.as_integer_ratio() for v in w)) for w in (p.s, p.t))

    def form(n):
        rn, rd = p.r[n].as_integer_ratio()
        rd = rd if rn > 0 else -rd
        dens = list(map(mul, sd[n::-1], td))
        den = math.lcm(*dens)
        ints = [a * b * rd * (den // d) for a, b, d in zip(sn[n::-1], tn, dens)]
        d, den = _differences((ints[::-1], den * abs(rn)), m)
        g = math.gcd(*d, den)
        return span_form([v // g for v in reversed(d)], den // g)

    return TriangleMatrix._of_forms(tuple(map(form, range(p.order))), STRUCTURAL_TAIL, form,
                                    p.capacity)


def weighted_mean_matrix(p) -> TriangleMatrix:
    """The weighted mean W: entries s_{n-k} t_k / r_n for k <= n; structural tail."""
    return _mean_difference(p, 0)


def mean_difference_matrix(p) -> TriangleMatrix:
    """The composite operator T = W Delta^m; structural tail."""
    return _mean_difference(p, p.m)


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
    (s, ds), (t, dt), _, rinv = p._forms
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
    tz, q = _toeplitz_solve(p._forms[0], [(a * v, b * dy) for (a, b), v in zip(p._forms[2], y)])
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


def _image(p, x):
    """(out, T x as one pair (num, den > 0) per entry) on the exact twin of p."""
    if len(x) != p.order:
        raise DimensionError(f"sequence length {len(x)} does not match order {p.order}")
    q, out = exact_twin(p)
    return out, _mean_apply(q, _differences(common_denominator(x), q.m))


def transform(p, x) -> SequenceWindow:
    """Image of a window under the composite operator: W applied to Delta^m x."""
    return SequenceWindow(starmap(*_image(p, x)))


def inverse_transform(p, y) -> SequenceWindow:
    """Preimage of a window under the composite operator: m running sums of W^{-1} y."""
    if len(y) != p.order:
        raise DimensionError(f"sequence length {len(y)} does not match order {p.order}")
    q, out = exact_twin(p)
    x, den = _running_sums(_mean_solve(q, common_denominator(y)), q.m)
    return SequenceWindow(out(v, den) for v in x)


@dataclass(frozen=True)
class NormResult:
    """Sup of |transform| over the window and the first index attaining it; ``exact``
    is always False, as the window only bounds the true supremum from below."""

    value: object
    arg_index: int
    exact: bool


def space_norm(p, x) -> NormResult:
    """sup_n |(T x)_n| over the window, one value made from the first largest |num| / den
    of the kernel's pairs by cross-multiplication (on f64: the printed doubles, over 1)."""
    out, y = _image(p, x)
    if out is not Fraction:
        y = [(out(v, d), 1) for v, d in y]
    i, num, den = 0, 0, 1
    for k, (v, d) in enumerate(y):
        if abs(v) * den > num * d:
            i, num, den = k, abs(v), d
    return NormResult(out(num, den), i, False)


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


def _euler(n, a):
    f = math.factorial(n)
    return Fraction(1, f), (1 - a) ** n / f, a ** n / f


# name: (the difference order it forces, or None; its (r_n, s_n, t_n) from n
# and its arguments in PRESET_ARGS order, read exactly)
_PRESETS = {
    "uv": (None, lambda n, u, v: (1 / u[n], 1, v[n])),
    "euler": (None, _euler),
    "aydin": (None, lambda n, a: (n + 1, 1, 1 + a ** n)),
    "lambda": (1, lambda n, lam: (lam[n], 1, lam[n] - lam[n - 1] if n else lam[0])),
    "identity": (None, lambda n: (1, int(n == 0), 1)),
}


def _rounded(backend, value):
    """``value`` in ``backend``; past the double range, inf, which the f64 cut reads."""
    try:
        return backend.convert(value)
    except OverflowError:
        return math.inf


def preset(spec, order, m=1, backend=RATIONAL) -> ParameterTriple:
    """Instantiate a named parameter family at the given truncation order.

    Windows are 4x the order long (at most the argument windows' length) so
    structural tails can be extended for trend diagnostics.  Every term is
    computed exactly and converted to the backend once; an f64 triple keeps
    the prefix before the first term that underflows to 0 (r or t) or leaves
    the double range.  The "lambda" family forces m = 1.

    Families (arguments in ``PRESET_ARGS``):
      uv       r_n = 1/u_n, t_n = v_n, s = ones
      euler    r_n = 1/n!, t_n = a^n/n!, s_n = (1-a)^n/n!, 0 < a < 1
      aydin    r_n = n+1, t_n = 1 + a^n, s = ones, 0 < a < 1
      lambda   r_n = L_n, t_n = L_n - L_{n-1} (L_{-1} = 0), s = ones, m = 1
      identity s = (1, 0, 0, ...), r = t = ones
    """
    if order < 1:       # the empty construction has no windows to cut
        raise ParameterError([f"truncation order must be positive, got {order}"])
    name, keys = spec.name, PRESET_ARGS[spec.name]
    missing = [key for key in keys if getattr(spec, key) is None]
    if missing:
        raise ParameterError([f"preset {name!r} requires {' and '.join(missing)}"])
    given = {key: getattr(spec, key) for key in keys}
    windows = [key for key in keys if key != "alpha"]
    length = min([4 * order, *(len(given[key]) for key in windows)])
    problems = [f"{key} window covers {len(given[key])} terms, need at least {order}"
                for key in windows if len(given[key]) < order]
    if problems:
        raise ParameterError(problems)
    try:
        args = {key: Fraction(value) if key == "alpha" else tuple(map(Fraction, value[:length]))
                for key, value in given.items()}
    except (ValueError, OverflowError):     # nan or inf has no exact value
        raise ParameterError([f"preset {name!r} arguments must be finite numbers"]) from None
    if "alpha" in args and not 0 < args["alpha"] < 1:
        problems.append(f"alpha must lie strictly between 0 and 1, got {spec.alpha}")
    problems += [f"{key}[{i}] = 0 (must be zero-free)"
                 for key in windows for i, value in enumerate(args[key]) if value == 0]
    lam = args.get("lam", ())
    # strictly monotone and zero-free: every step t_n is nonzero
    if not (all(map(lt, lam, lam[1:])) or all(map(gt, lam, lam[1:]))):
        problems.append("lam must be strictly monotone")
    if problems:
        raise ParameterError(problems)

    forced, term = _PRESETS[name]
    terms = [[_rounded(backend, v) for v in term(n, *args.values())] for n in range(length)]
    # a rational term is never 0 nor inf here, so only an f64 window is cut
    usable = next((n for n, (r, s, t) in enumerate(terms)
                   if r == 0 or t == 0 or math.inf in (r, s, t)), length)
    if usable < order:
        raise ParameterError([
            f"float backend cannot represent the {name!r} windows past index "
            f"{usable}; truncation order {order} needs more"])
    r, s, t = zip(*terms[:usable])
    return ParameterTriple(r, s, t, m if forced is None else forced, order, backend)


def identity_triple(order, m=1, backend=RATIONAL) -> ParameterTriple:
    return preset(PresetSpec("identity"), order, m=m, backend=backend)


__all__ = [
    "ParameterTriple", "PresetSpec", "NormResult", "PRESET_ARGS", "PRESET_NAMES",
    "weighted_mean_matrix", "mean_difference_matrix",
    "transform", "inverse_transform", "space_norm",
    "preset", "identity_triple",
]
