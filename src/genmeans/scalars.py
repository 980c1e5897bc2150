"""Scalar backends: exact rationals or IEEE doubles, never mixed in one computation.

The rational backend is bit-exact (arbitrary-precision integers underneath).
``TOLERANCE`` is how close to zero is zero for a trend estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

RATIONAL_MODE = "rational"
FLOAT_MODE = "float"
TOLERANCE = 1e-10


@dataclass(frozen=True)
class Backend:
    """Arithmetic mode: exact rationals or IEEE doubles."""

    mode: str

    def __post_init__(self):
        if self.mode not in (RATIONAL_MODE, FLOAT_MODE):
            raise ValueError(f"unknown scalar mode {self.mode!r}")

    def convert(self, value):
        if self.mode == RATIONAL_MODE:
            return value if isinstance(value, Fraction) else Fraction(value)
        return float(value)

    @property
    def zero(self):
        return Fraction(0) if self.mode == RATIONAL_MODE else 0.0

    @property
    def one(self):
        return Fraction(1) if self.mode == RATIONAL_MODE else 1.0


RATIONAL = Backend(RATIONAL_MODE)
FLOAT64 = Backend(FLOAT_MODE)


def backend_for(mode):
    """Resolve a mode name ("rational", or "f64" or "float") to its Backend."""
    backend = {"rational": RATIONAL, "f64": FLOAT64, "float": FLOAT64}.get(mode)
    if backend is None:
        raise ValueError(f"unknown scalar mode {mode!r}")
    return backend


def zero_like(value):
    """A zero of the same backend type as ``value``."""
    return Fraction(0) if isinstance(value, (Fraction, int)) else 0.0


def common_denominator(values):
    """(ints, den): int, Fraction or float values as integers over den, the lcm
    of their denominators, so sums and inner products over them cost no gcd.
    A float is read exactly, as the dyadic rational it is: the one lift of the
    float backend's values."""
    pairs = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def common_quotients(ints, values):
    """(ints, den): the quotients u / v of ints u by nonzero values v over den > 0,
    the lcm of what each u leaves of its v's numerator; no Fraction is built."""
    cut = [(u // g, v.denominator, v.numerator // g)
           for u, v in zip(ints, values) for g in (math.gcd(u, v.numerator),)]
    den = math.lcm(*(b for _, _, b in cut))
    return [u * a * (den // b) for u, a, b in cut], den
