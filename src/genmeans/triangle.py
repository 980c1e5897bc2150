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

On the exact backend a matrix window holds each row as its integer form, the
row's support span as integers over one denominator: the program's producers
(W, T, the identity, associates, dual triangles) build windows from forms, and
their Fraction rows are a view made only when read; rows a caller passes are
brought to forms once.

Every value is immutable after construction; a window memoizes what it derives
(extension, integer forms, row statistics and the trend ladder's readings of
them, column limits, its latest associate): a race computes one twice, never a
wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import compress, count, repeat
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


def span_of(values):
    """(start, stop): the index of the first nonzero entry and one past the last."""
    stop = support_of(values)
    return next(compress(count(), values), stop), stop


def span_form(ints, den, fraction):
    """The integer form (start, ints, den, fraction) of the row ints / den: its
    support span, and whether the row holds a Fraction."""
    start, stop = span_of(ints)
    return start, ints[start:stop], den, fraction


def form_values(form, width, zero=0, out=Fraction):
    """The ``width`` values of a row of integer form ``form``: out(v, den) for an
    entry v of its span, ``zero`` for a zero and past the span."""
    start, ints, den = form[:3]
    return ((zero,) * start + tuple(out(v, den) if v else zero for v in ints)
            + (zero,) * (width - start - len(ints)))


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

    Row statistics read ``integer_rows``, each extended row's integer form
    (start, ints, den, fraction): its support span, the entries from the first
    nonzero to the last as ints over one den > 0, and whether the row holds a
    Fraction; None for a float row.  Rows a caller passes are kept and brought
    to forms once (``limits.integer_row``); a window the program builds holds
    forms (``_of_forms``), and its ``rows`` and ``extended`` are views.
    """

    def __init__(self, rows, row_tail=UNKNOWN_TAIL, row_fn=None, capacity=None):
        if row_tail not in MATRIX_TAILS:
            raise ValueError(f"row tail must be one of {MATRIX_TAILS}, got {row_tail!r}")
        self.rows, self.row_tail, self.row_fn = tuple(map(tuple, rows)), row_tail, row_fn
        # readings: {id(trace): its trend ladder reading and max slot} for the traces held
        self.capacity, self.stored, self._forms, self.readings = capacity, len(self.rows), None, {}

    @classmethod
    def _of_forms(cls, forms, row_tail, form_fn=None, capacity=None, zero=0, width=(1).__add__):
        """The window of the stored rows' integer forms, ``form_fn(n)`` giving row
        n's past them and ``width(n)`` its width (n + 1: a triangle); its views
        write ``zero`` for a zero entry."""
        window = cls.__new__(cls)
        vars(window).update(row_tail=row_tail, capacity=capacity, stored=len(forms), readings={},
                            row_fn=form_fn and partial(_generated_row, form_fn, width, zero),
                            _forms=tuple(forms), _form_fn=form_fn, _width=width, _zero=zero)
        return window

    @cached_property
    def rows(self):
        """The stored rows: the view of their forms, made on first read."""
        return tuple(form_values(f, self._width(n), self._zero) for n, f in enumerate(self._forms))

    @property
    def width(self):
        return max(map(self.row_width, range(self.stored)), default=0)

    def row_width(self, n):
        """The width of extended row n."""
        if self._forms is None:
            return len(self.rows[n] if n < self.stored else self.extended[n])
        return self._width(n) if n < self.stored or self.row_tail == STRUCTURAL_TAIL else 0

    @cached_property
    def _stop(self):
        """How many rows the extension holds: zero rows extend freely and
        structural rows come from the generator, up to EXTENSION_FACTOR times the
        stored count (bounded by the capacity, stored rows kept); an unknown tail
        or no generator adds none."""
        if self.row_tail == UNKNOWN_TAIL or (self.row_tail == STRUCTURAL_TAIL
                                             and self.row_fn is None):
            return self.stored
        stop = EXTENSION_FACTOR * max(self.stored, 1)
        if self.row_tail == STRUCTURAL_TAIL and self.capacity is not None:
            stop = max(min(stop, self.capacity), self.stored)
        return stop

    @cached_property
    def extended(self):
        """The stored rows and the ``_stop`` past them, computed once per window."""
        if self._forms is None:
            return tuple(map(self.row, range(self._stop)))
        return self.rows + tuple(form_values(self.integer_rows[n], self.row_width(n), self._zero)
                                 for n in range(self.stored, self._stop))

    @cached_property
    def integer_rows(self):
        """The integer form of each extended row, computed once per window."""
        past = range(self.stored, self._stop)
        if self._forms is None:
            from .limits import integer_row    # limits imports this module
            forms = tuple(map(integer_row, self.rows))
            more = map(integer_row, self.extended[self.stored:])
        else:
            forms, more = self._forms, map(self._form_fn, past)
        if self.row_tail != STRUCTURAL_TAIL:    # zero rows past the stored ones, or none
            more = ((0, [], 1, False) for _ in past)
        return forms + tuple(more)

    def spans(self):
        """(start, entries) of each extended row's support span; a float row whole."""
        if self._forms is not None:
            return ((f[0], tuple(Fraction(v, f[2]) if v else self._zero for v in f[1]))
                    for f in self.integer_rows)
        return ((0, row) if f is None else (f[0], row[f[0]:f[0] + len(f[1])])
                for f, row in zip(self.integer_rows, self.extended))

    def _statistic(self, rows=None, **options):
        """``limits.row_statistic`` of each extended row off its form: of its
        values only where it has none, or where ``rows`` are given."""
        from .limits import row_statistic
        rows = rows or (self.extended if self._forms is None else repeat(None))
        return tuple(map(partial(row_statistic, **options), rows, self.integer_rows))

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
        to its span once, and each row's span merges with it; a float alpha is
        subtracted from the rows' values."""
        from .limits import STATUS_INDET, integer_row
        alphas = self.columns.value
        if self.columns.status == STATUS_INDET or alphas is None:
            return None
        shift = integer_row(alphas)
        return self._statistic(None if shift else self.extended, absolute=True,
                               alphas=alphas, shift=shift)

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
        if n < self.stored:
            return self.rows[n]
        if self.row_tail == ZERO_TAIL:
            return ()
        if self.row_tail == STRUCTURAL_TAIL and self.row_fn is not None:
            if self.capacity is None or n < self.capacity:
                return tuple(self.row_fn(n))
        return None


def _generated_row(form_fn, width, zero, n):
    return form_values(form_fn(n), width(n), zero)


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
    """The identity triangle; its structural tail extends to every index.  On the
    exact backend row n is the integer form (n, [1], 1, True)."""
    backend = backend or _RATIONAL_BACKEND
    if backend.mode == RATIONAL_MODE:
        def form(n):
            return n, [1], 1, True

        return TriangleMatrix._of_forms(tuple(map(form, range(order))), STRUCTURAL_TAIL, form,
                                        zero=Fraction(0))

    def row(n):
        return (backend.zero,) * n + (backend.one,)

    return TriangleMatrix(order, tuple(map(row, range(order))), STRUCTURAL_TAIL, row_fn=row)


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
