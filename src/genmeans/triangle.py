"""Finite sequence and matrix windows with declared tail behavior.

Every object here is a finite truncation plus a *tail tag* saying what the
rows beyond the stored window do: vanish identically ("zero"), follow the
generating formula that built the object ("structural"), or are unspecified
("unknown").  Operations propagate tags pessimistically so that no infinite
claim is ever produced from finite data without a declaration backing it.

A ``TriangleMatrix`` is a ``MatrixWindow`` of triangular shape (row n holds
n+1 entries), so it extends past its order as any window does, and one
``apply`` takes either.  Dense triangle algebra (products, inverses, the
Toeplitz inverse coefficients) is not needed on any production route; it
lives in ``selfcheck`` as oracles.

Every value is immutable after construction; a window memoizes what it derives
(extension, row statistics and the trend ladder's readings of them, column
limits, its latest associate): a race computes one twice, never a wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

from .errors import DimensionError, TailError
from .scalars import RATIONAL as _RATIONAL_BACKEND

ZERO_TAIL = "zero"
STRUCTURAL_TAIL = "structural"
UNKNOWN_TAIL = "unknown"

SEQUENCE_TAILS = (ZERO_TAIL, UNKNOWN_TAIL)
MATRIX_TAILS = (ZERO_TAIL, STRUCTURAL_TAIL, UNKNOWN_TAIL)

SPACE_LABELS = ("c0", "c", "l_inf")

# structural extension reaches this many times the stored row count
EXTENSION_FACTOR = 4


@dataclass(frozen=True)
class SequenceWindow:
    """A finite prefix of a sequence plus a declared tail.

    tail = "zero" asserts x_n = 0 for every index beyond the stored window;
    tail = "unknown" asserts nothing.  The optional space label (c0 / c /
    l_inf) is metadata only; no operation silently assumes it.
    """

    values: tuple
    tail: str = UNKNOWN_TAIL
    space_label: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.tail not in SEQUENCE_TAILS:
            raise ValueError(f"sequence tail must be one of {SEQUENCE_TAILS}, got {self.tail!r}")
        if self.space_label is not None and self.space_label not in SPACE_LABELS:
            raise ValueError(f"space label must be one of {SPACE_LABELS}, got {self.space_label!r}")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    @property
    def support(self):
        """Index one past the last stored nonzero entry."""
        return support_of(self.values)

    def require_zero_tail(self, what="input sequence"):
        if self.tail != ZERO_TAIL:
            raise TailError(f"{what} must have a declared zero tail, got {self.tail!r}")


def support_of(values):
    """Index one past the last nonzero entry of a value sequence."""
    n = len(values)
    while n and values[n - 1] == 0:
        n -= 1
    return n


def unit_sequence(order, j, backend):
    """e_j as a zero-tail window."""
    if not 0 <= j < order:
        raise DimensionError(f"unit index {j} outside window of length {order}")
    vals = [backend.zero] * order
    vals[j] = backend.one
    return SequenceWindow(vals, ZERO_TAIL)


def ones_sequence(order, backend):
    """The all-ones window; its true tail is nonzero, hence tagged unknown."""
    return SequenceWindow((backend.one,) * order, UNKNOWN_TAIL)


def seq_sub(x, y):
    if len(x) != len(y):
        raise DimensionError(f"length mismatch: {len(x)} vs {len(y)}")
    tail = ZERO_TAIL if (x.tail == ZERO_TAIL and y.tail == ZERO_TAIL) else UNKNOWN_TAIL
    return SequenceWindow(tuple(a - b for a, b in zip(x, y)), tail)


@dataclass(frozen=True)
class MatrixWindow:
    """A general (not necessarily triangular) matrix truncation.

    Stored rows are complete supports: entries beyond a stored row are zero,
    so every row has a zero tail in the column direction.  ``row_tail``
    declares the rows beyond the stored block.  ``row_fn`` optionally
    generates row n beyond it when the tail is structural; ``capacity`` is
    the exclusive bound on generatable indices (None = unlimited).

    Row statistics read ``integer_rows``, each extended row's support span
    (start, ints, den): its entries from the first nonzero to the last as ints
    over one den, None for a float row; ``_integers`` holds the forms of the
    leading rows from a builder that has them (the inverse kernel's).
    """

    rows: tuple
    row_tail: str = UNKNOWN_TAIL
    row_fn: Optional[Callable[[int], tuple]] = None
    capacity: Optional[int] = None
    _integers: Optional[tuple] = field(default=None, compare=False, repr=False)
    # {id(trace): its trend ladder reading and max slot} for the traces the window holds
    readings: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        if self.row_tail not in MATRIX_TAILS:
            raise ValueError(f"row tail must be one of {MATRIX_TAILS}, got {self.row_tail!r}")

    @property
    def width(self):
        return max((len(row) for row in self.rows), default=0)

    @cached_property
    def extended(self):
        """The stored rows plus whatever the tail declaration allows, computed
        once per window: zero rows extend freely and structural rows come from
        the generator, up to EXTENSION_FACTOR times the stored count (bounded by
        the capacity, stored rows kept); an unknown tail or no generator adds none."""
        if self.row_tail == UNKNOWN_TAIL or (self.row_tail == STRUCTURAL_TAIL
                                             and self.row_fn is None):
            return self.rows
        stop = EXTENSION_FACTOR * max(len(self.rows), 1)
        if self.row_tail == STRUCTURAL_TAIL and self.capacity is not None:
            stop = max(min(stop, self.capacity), len(self.rows))
        return tuple(self.row(n) for n in range(stop))

    @cached_property
    def integer_rows(self):
        """The integer form of each extended row, computed once per window."""
        from .limits import integer_row    # limits imports this module
        given = self._integers or ()
        return given[:len(self.extended)] + tuple(map(integer_row, self.extended[len(given):]))

    @cached_property
    def row_sums(self):
        """sum_k a_nk over the extended rows, computed once per window."""
        from .limits import row_statistic
        return tuple(map(row_statistic, self.extended, self.integer_rows))

    @cached_property
    def row_abs_sums(self):
        """sum_k |a_nk| over the extended rows, computed once per window."""
        from .limits import row_statistic
        return tuple(map(partial(row_statistic, absolute=True), self.extended, self.integer_rows))

    @cached_property
    def row_sum_magnitudes(self):
        """|sum_k a_nk| over the extended rows, computed once per window."""
        return tuple(map(abs, self.row_sums))

    @cached_property
    def columns(self):
        """The column limits lim_n a_nk, computed once per window."""
        from .limits import column_limits
        return column_limits(self)

    @cached_property
    def shifted_abs_sums(self):
        """sum_k |a_nk - alpha_k| over the extended rows, alpha the column limits,
        or None for unresolved alpha, computed once per window: alpha is brought
        to its span once, and each row's span merges with it."""
        from .limits import STATUS_INDET, integer_row, row_statistic
        alphas = self.columns.value
        if self.columns.status == STATUS_INDET or alphas is None:
            return None
        stat = partial(row_statistic, absolute=True, alphas=alphas, shift=integer_row(alphas))
        return tuple(map(stat, self.extended, self.integer_rows))

    def reading(self, trace):
        """[*``limits.analyze_tail(trace)``, max slot]: kept in ``readings`` for a
        trace the window holds, which lives as long as it; afresh else."""
        if id(trace) not in self.readings:
            from .limits import analyze_tail
            got = [*analyze_tail(trace), None]
            if not any(value is trace for value in vars(self).values()):
                return got
            self.readings[id(trace)] = got
        return self.readings[id(trace)]

    def maximum(self, trace):
        """max(trace): kept in the max slot of a kept reading once a sup asks; afresh else."""
        kept = self.readings.get(id(trace), [None] * 4)
        if kept[3] is None:
            kept[3] = max(trace)
        return kept[3]

    def entry(self, n, k):
        row = self.rows[n]
        return row[k] if k < len(row) else 0

    def row(self, n):
        """Row n, or None when the tail declaration cannot produce it."""
        if n < len(self.rows):
            return self.rows[n]
        if self.row_tail == ZERO_TAIL:
            return ()
        if self.row_tail == STRUCTURAL_TAIL and self.row_fn is not None:
            if self.capacity is None or n < self.capacity:
                return tuple(self.row_fn(n))
        return None


class TriangleMatrix(MatrixWindow):
    """A matrix window of triangular shape: row n holds n+1 entries, so the
    invariant entry (n, k) = 0 for k > n holds by storage.  Invertibility (a
    nonzero diagonal) is checked only by the operations that need it.
    ``order`` and ``tail`` read the row count and the row tail."""

    def __init__(self, order, rows, tail=UNKNOWN_TAIL, row_fn=None, capacity=None):
        super().__init__(rows, tail, row_fn, capacity)
        if order != len(self.rows):
            raise DimensionError(f"order {order} does not match {len(self.rows)} stored rows")
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise DimensionError(f"row {n} must hold {n + 1} entries, got {len(row)}")

    @property
    def order(self):
        return len(self.rows)

    @property
    def tail(self):
        return self.row_tail


def identity(order, backend=None):
    """The identity triangle; its structural tail extends to every index."""
    backend = backend or _RATIONAL_BACKEND
    one, zero = backend.one, backend.zero

    def row(n):
        return tuple(zero for _ in range(n)) + (one,)

    return TriangleMatrix(order, tuple(row(n) for n in range(order)), STRUCTURAL_TAIL, row_fn=row)


def apply(matrix, x):
    """The matrix transform (Mx)_n = sum_k m_nk x_k of any matrix window.

    Each sum starts from the row's first product, so float zeros keep their
    sign; an empty row gives 0.  The result has a zero tail only when both
    the row tail and x do."""
    if isinstance(matrix, TriangleMatrix) and matrix.order != len(x):
        raise DimensionError(f"order {matrix.order} does not match sequence length {len(x)}")
    vals = []
    for row in matrix.rows:
        if len(row) > len(x):
            raise DimensionError(f"row of width {len(row)} exceeds sequence length {len(x)}")
        acc = row[0] * x[0] if row else 0
        for k in range(1, len(row)):
            acc += row[k] * x[k]
        vals.append(acc)
    tail = ZERO_TAIL if (matrix.row_tail == ZERO_TAIL and x.tail == ZERO_TAIL) else UNKNOWN_TAIL
    return SequenceWindow(vals, tail)
