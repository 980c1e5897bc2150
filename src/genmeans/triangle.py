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

A matrix window holds each row as its form, on either backend and whoever
built it: an exact row as its support span (start, ints, den), integers over
one denominator; a row holding a float as its own values, (0, values, None).
The program's producers (W, T, the identity, associates, dual triangles) build
windows from forms; rows a caller passes are brought to forms once, in the
constructor, and stay the ``rows`` view.  Every other view is made from the
forms, only when read, and every exact entry and row statistic it hands out is
a Fraction.

Every value is immutable after construction; a window memoizes what it derives
(extension, integer forms, row statistics and the trend ladder's readings of
them, column limits, its latest associate): a race computes one twice, never a
wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import compress, count
from typing import Optional

from .errors import DimensionError, TailError
from .scalars import RATIONAL as _RATIONAL_BACKEND, RATIONAL_MODE

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


def span_form(values, *rest):
    """(start, the values from index start, the first nonzero, to the last, *rest):
    with ``rest`` a den, the form of the row ints / den, its support span."""
    stop = support_of(values)
    start = next(compress(count(), values), stop)
    return (start, values[start:stop], *rest)


def span_values(form):
    """The entries of the support span of a row of form ``form``: Fraction(v, den)
    for an exact row, a float row's own values."""
    _, ints, den = form
    return tuple(ints) if den is None else tuple(Fraction(v, den) for v in ints)


def form_values(form, width):
    """The ``width`` values of a row of form ``form``: its span's entries
    (``span_values``) between Fraction zeros; a float row's form spans its width."""
    start, span = form[0], span_values(form)
    return (Fraction(0),) * start + span + (Fraction(0),) * (width - start - len(span))


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


class MatrixWindow:
    """A general (not necessarily triangular) matrix truncation.

    Stored rows are complete supports: entries beyond a stored row are zero,
    so every row has a zero tail in the column direction.  ``row_tail``
    declares the rows beyond the ``stored`` block.  ``row_fn`` optionally
    generates row n beyond it when the tail is structural; ``capacity`` is
    the exclusive bound on generatable indices (None = unlimited).

    A window holds each row as its form (start, ints, den), read by the row
    statistics (``integer_rows``): the support span, entries from the first
    nonzero to the last as ints over one den > 0; a float row is its values,
    (0, values, None).  A caller's rows become forms here
    (``limits.integer_row``), a generated row once, and the tuple passed stays
    the ``rows`` view; the program builds from forms (``_of_forms``).  Other
    views are made from the forms when read: every exact entry a Fraction, a
    float row its floats.
    """

    def __init__(self, rows, row_tail=UNKNOWN_TAIL, row_fn=None, capacity=None):
        from .limits import integer_row    # limits imports this module
        rows = tuple(map(tuple, rows))
        made = row_fn and cache(lambda n: tuple(row_fn(n)))    # each generated row once

        def form(n):
            return integer_row(made(n))

        def width(n):
            return len(rows[n] if n < len(rows) else made(n))

        # the window of the rows' forms, the tuple passed its ``rows`` view
        window = self._of_forms(map(integer_row, rows), row_tail, made and form, capacity, width)
        vars(self).update(vars(window), rows=rows)

    @classmethod
    def _of_forms(cls, forms, row_tail, form_fn=None, capacity=None, width=(1).__add__):
        """The window of the stored rows' forms, ``form_fn(n)`` giving row n's past
        them and ``width(n)`` its width (n + 1: a triangle)."""
        if row_tail not in MATRIX_TAILS:
            raise ValueError(f"row tail must be one of {MATRIX_TAILS}, got {row_tail!r}")
        window, forms = cls.__new__(cls), tuple(forms)
        # readings: {id(trace): its trend ladder reading and max slot} for the traces held
        vars(window).update(row_tail=row_tail, capacity=capacity, stored=len(forms), readings={},
                            _forms=forms, _form_fn=form_fn, _width=width)
        return window

    @cached_property
    def rows(self):
        """The stored rows: the view of their forms, made on first read."""
        return tuple(form_values(f, self._width(n)) for n, f in enumerate(self._forms))

    @property
    def width(self):
        return max(map(self.row_width, range(self.stored)), default=0)

    def row_width(self, n):
        """The width of extended row n."""
        return self._width(n) if n < self.stored or self.row_tail == STRUCTURAL_TAIL else 0

    @cached_property
    def _stop(self):
        """How many rows the extension holds: zero rows extend freely and
        structural rows come from the generator, up to EXTENSION_FACTOR times the
        stored count (bounded by the capacity, stored rows kept); an unknown tail
        or no generator adds none."""
        if self.row_tail == UNKNOWN_TAIL or (self.row_tail == STRUCTURAL_TAIL
                                             and self._form_fn is None):
            return self.stored
        stop = EXTENSION_FACTOR * max(self.stored, 1)
        if self.row_tail == STRUCTURAL_TAIL and self.capacity is not None:
            stop = max(min(stop, self.capacity), self.stored)
        return stop

    @cached_property
    def extended(self):
        """The stored rows and the ``_stop`` past them, computed once per window."""
        return self.rows + tuple(form_values(f, self.row_width(n))
                                 for n, f in enumerate(self.integer_rows[self.stored:], self.stored))

    @cached_property
    def integer_rows(self):
        """The form of each extended row, computed once per window."""
        past = range(self.stored, self._stop)
        if self.row_tail != STRUCTURAL_TAIL:    # zero rows past the stored ones, or none
            return self._forms + tuple((0, [], 1) for _ in past)
        return self._forms + tuple(map(self._form_fn, past))

    def _statistic(self, **options):
        """``limits.row_statistic`` of each extended row's form."""
        from .limits import row_statistic
        return tuple(map(partial(row_statistic, **options), self.integer_rows))

    @cached_property
    def row_sums(self):
        """sum_k a_nk over the extended rows, computed once per window."""
        return self._statistic()

    @cached_property
    def row_abs_sums(self):
        """sum_k |a_nk| over the extended rows, computed once per window."""
        return self._statistic(absolute=True)

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
        to its form once, and each row's span merges with it; a float alpha is
        subtracted from the rows' values."""
        from .limits import STATUS_INDET, integer_row
        alphas = self.columns.value
        if self.columns.status == STATUS_INDET or alphas is None:
            return None
        return self._statistic(absolute=True, shift=integer_row(alphas))

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

    @property
    def row_fn(self):
        """The generator of rows past the stored ones, as values (``row``), or None."""
        return self._form_fn and self.row

    def row(self, n):
        """Row n, or None when the tail declaration cannot produce it."""
        if n < self.stored:
            return self.rows[n]
        if self.row_tail == ZERO_TAIL:
            return ()
        if self.row_tail == STRUCTURAL_TAIL and self._form_fn is not None:
            if self.capacity is None or n < self.capacity:
                return form_values(self._form_fn(n), self._width(n))
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
        return self.stored

    @property
    def tail(self):
        return self.row_tail


def identity(order, backend=None):
    """The identity triangle; its structural tail extends to every index.  Row n
    is the form (n, [1], 1) on the exact backend, e_n's floats on f64."""
    backend = backend or _RATIONAL_BACKEND

    def form(n):
        if backend.mode == RATIONAL_MODE:
            return n, [1], 1
        return 0, (0.0,) * n + (1.0,), None

    return TriangleMatrix._of_forms(tuple(map(form, range(order))), STRUCTURAL_TAIL, form)


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
