"""Tail-aware estimation of sups, limits and limsups over declared-tail windows.

A quantity indexed by an infinite row index is *computed* only when the
declared tail turns it into a finite computation (status "exact").  A
structural tail lets us extend the window by the generating formula and
classify the observed trace (status "trend-converged" when the trace
resolves, "indeterminate" otherwise).  Unknown tails never produce a
decisive status.  That rule is written once, in ``_tail_rule``, which every
estimator (sup, lim, limsup, column limits) asks, adding only its own part.
The row estimators take a window and one scalar trace over
its extension, ``MatrixWindow.extended``; trace indices are its row numbers.
The window supplies the tail declaration, the trace the values: one the window
holds (``row_sums``, ``row_abs_sums``, ``row_sum_magnitudes``,
``shifted_abs_sums``), computed once per window with its ladder reading
(``MatrixWindow.reading``) and, once a sup asks, its max
(``MatrixWindow.maximum``), so each estimate and gauge shares them; or a trace
a caller builds, read afresh.

Row statistics read each row's form alone (``MatrixWindow.integer_rows``, all
a window holds), an exact row's support span (start, ints, den): integer adds
over the span and one Fraction, no gcd per term, the shifted trace merging it
with the span of the column limits, scaled once per window.  A float row's form
is its values, (0, values, None), which, like a limit vector holding a float,
add left to right through ``total``.  The column limits
(``MatrixWindow.columns``, once per window) scatter each row's span from its
form into their traces, and whether an estimate's value is zero is decided
by ``vanishes`` alone, the one reader of ``TOLERANCE`` besides the ladder,
which reads a trace's last window first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, zip_longest

from .scalars import TOLERANCE, common_denominator, zero_like
from .triangle import STRUCTURAL_TAIL, ZERO_TAIL, form_values, span_form, span_values

STATUS_EXACT = "exact"
STATUS_TREND = "trend-converged"
STATUS_INDET = "indeterminate"

# trace shapes: exact computations, settled windows, power-law decay to zero,
# unresolved monotone drift, persistent growth, no visible pattern, too short
TREND_EXACT = "exact"
TREND_CONVERGED = "converged"
TREND_DECAYING = "decaying"
TREND_DRIFTING = "drifting"
TREND_DIVERGING = "diverging"
TREND_OSCILLATING = "oscillating"
TREND_SHORT = "short"

DEFAULT_TREND_WINDOW = 8

EXACT_SUBSET_COLUMNS = 12


@dataclass(frozen=True)
class LimitEstimate:
    """A numerically observed sup/lim/limsup with its window trace."""

    kind: str                     # "sup" | "lim" | "limsup" | "exists"
    value: object                 # scalar, (lower, upper) interval, tuple, or None
    status: str                   # exact | trend-converged | indeterminate
    trend: str = TREND_EXACT
    window: tuple = ()            # indices inspected
    trace: tuple = ()             # values at those indices
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    """satisfied | violated | indeterminate, with a detail line and the evidence
    behind it; a condition's or compactness verdict has none, its estimate
    holds the number, and a dual verdict on a zero tail has none either, the
    finite support is its certificate."""

    status: str
    detail: str = ""
    evidence: object = None


def vanishes(value, status):
    """The one zero test of an estimate's value: equal to 0 when exact, within
    ``TOLERANCE`` of 0 at trend status; a tuple when every entry vanishes;
    None never."""
    if isinstance(value, tuple):
        return all(vanishes(v, status) for v in value)
    if value is None:
        return False
    if status == STATUS_EXACT:
        return value == 0
    return abs(float(value)) <= TOLERANCE


def analyze_tail(values):
    """Classify the tail of a finite trace, read on its row numbers 0, 1, ...
    over the last ``DEFAULT_TREND_WINDOW`` terms.

    Returns (status, trend, value).  The ladder: settled window -> converged;
    stable second-difference acceleration over contracting differences ->
    converged to the accelerated value; positive monotone decay whose fit
    a + b (n+1)^-p puts its limit a at 0 (``vanishes``) -> limit zero;
    otherwise drifting / diverging / oscillating at indeterminate status.  A
    trace settles within ``TOLERANCE``.
    """
    values = list(values)
    if len(values) < 3:
        return STATUS_INDET, TREND_SHORT, None
    try:
        # the last window first; the rest of the trace only when a rung needs it
        floats = [float(v) for v in values[-DEFAULT_TREND_WINDOW:]]
    except OverflowError:
        # past the double range no rung of the ladder can read the trace
        return STATUS_INDET, TREND_DIVERGING, None
    if max(floats) - min(floats) <= TOLERANCE:
        return STATUS_TREND, TREND_CONVERGED, values[-1]

    # second-difference (Aitken) acceleration, trusted only while the trailing
    # differences contract: a diverging trace accelerates to an anti-limit
    steps = [abs(b - a) for a, b in zip(floats, floats[1:])]
    contracting = all(later < earlier for earlier, later in zip(steps, steps[1:]))
    accelerated = []
    for i in range(len(floats) - 2):
        a, b, c = floats[i], floats[i + 1], floats[i + 2]
        denom = (c - b) - (b - a)
        if abs(denom) > 1e-300:
            accelerated.append(c - (c - b) ** 2 / denom)
    if contracting and len(accelerated) >= 2:
        scale = max(1.0, max(abs(v) for v in floats))
        if abs(accelerated[-1] - accelerated[-2]) <= max(TOLERANCE, 1e-9 * scale):
            return STATUS_TREND, TREND_CONVERGED, accelerated[-1]

    try:
        full = [float(v) for v in values[:-DEFAULT_TREND_WINDOW]] + floats
    except OverflowError:
        return STATUS_INDET, TREND_DIVERGING, None
    nonincreasing = all(full[i + 1] <= full[i] for i in range(len(full) - 1))
    nondecreasing = all(full[i + 1] >= full[i] for i in range(len(full) - 1))

    if nonincreasing and all(v > 0 for v in full):
        # fit a + b (n+1)^-p through the terms y1, y2, y3 at n+1 = k, 2k, 4k (4k
        # <= N), which are in ratio 2, so a is their Aitken value: the trace
        # decays to zero only when that limit a vanishes
        k = len(full) // 4
        if k:
            y1, y2, y3 = full[k - 1], full[2 * k - 1], full[4 * k - 1]
            near, far = y1 - y2, y2 - y3
            if far < near and vanishes(y3 - far * far / (near - far), STATUS_TREND):
                return STATUS_TREND, TREND_DECAYING, zero_like(values[-1])
        return STATUS_INDET, TREND_DRIFTING, None
    if nondecreasing:
        return STATUS_INDET, TREND_DIVERGING, None
    return STATUS_INDET, TREND_OSCILLATING, None


def total(values):
    """Left-to-right sum.  Unlike ``sum``, which adds floats with compensated
    summation since Python 3.12, it rounds the same on every version."""
    return reduce(operator.add, values, 0)


def integer_row(row):
    """The form (start, ints, den) of a row of int and Fraction entries: its
    support span, the entries from the first nonzero to the last as ints over
    den, the lcm of their denominators; a row holding a float is its own values,
    (0, row, None)."""
    if not set(map(type, row)) <= {int, Fraction}:
        return 0, row, None
    start, span = span_form(row)
    return start, *common_denominator(span)


def row_statistic(form, absolute=False, shift=None):
    """sum_k a_k, sum_k |a_k| (``absolute``) or, with ``absolute``, sum_k |a_k -
    alpha_k| (``shift`` the form of the column limits alpha; both padded with
    zeros) of the row a of form ``form``: a Fraction, summed on integers; left to
    right through ``total`` over the values when either form is a float row's.  A
    float sum of finite entries past the double range raises ``OverflowError``."""
    start, ints, den = form
    if den is None or (shift is not None and shift[2] is None):
        row, alphas = form_values(form, 0), shift and form_values(shift, 0)
        terms = row if shift is None else [v - a for v, a in zip_longest(row, alphas, fillvalue=0)]
        value = total(map(abs, terms)) if absolute else total(terms)
        if math.isinf(value) and all(map(math.isfinite, chain(row, alphas or ()))):
            raise OverflowError("row statistic beyond the double range")
        return value
    if shift is not None:
        at, alpha_ints, alpha_den = shift
        if alpha_ints:    # the two spans aligned from the first start on
            lo = min(start, at)
            ints = [v * alpha_den - x * den for v, x in zip_longest(
                [0] * (start - lo) + ints, [0] * (at - lo) + alpha_ints, fillvalue=0)]
        den *= alpha_den
    value = sum(map(abs, ints)) if absolute else sum(ints)
    return Fraction(value, den)


def column_value(row, k):
    return row[k] if k < len(row) else 0


def _tail_rule(window, trace, undeclared, read=None):
    """The one rule by which a window's declared tail reads ``trace``, a statistic
    over ``window.extended``: (status, trend, value, note).  A zero tail reads an
    exact 0; a structural tail whose trace reaches past the stored rows, the trend
    ladder's reading (``read``, else ``MatrixWindow.reading``); any other window
    nothing, noting why it was not extended: a generator stopping at the stored
    rows, none, or an undeclared tail (``undeclared``: what its window still says)."""
    if window.row_tail == ZERO_TAIL:
        return STATUS_EXACT, TREND_EXACT, 0, ""
    if window.row_tail == STRUCTURAL_TAIL and len(trace) > window.stored:
        return (*(read or window.reading)(trace)[:3], "")
    if window.row_tail != STRUCTURAL_TAIL:
        note = f"tail undeclared; {undeclared}"
    elif window.row_fn is None:
        note = "structural tail has no generator available; stored window only"
    else:
        note = "structural tail not extendable past the stored rows"
    return STATUS_INDET, TREND_SHORT, None, note


def sup_of_rows(window, trace):
    """sup_n of ``trace``, a row statistic over ``window.extended``, over the
    infinite row index: the max of the observed values and the limit the tail
    reads.  Past a zero tail every row statistic is 0."""
    if not trace and window.row_tail != ZERO_TAIL:
        return LimitEstimate("sup", None, STATUS_INDET, TREND_SHORT, note="no rows")
    status, trend, limit, note = _tail_rule(window, trace, "observed max is a lower bound")
    value = window.maximum(trace) if trace else 0
    if limit is not None:
        # a trace rising to its limit never attains it: then the sup is the limit
        value = max(value, limit)
    elif trend == TREND_DRIFTING:
        status = STATUS_TREND    # drifting down: the observed max dominates
    elif not note:
        note = "tail trace unresolved; observed max is a lower bound"
    return LimitEstimate("sup", value, status, trend, tuple(range(len(trace))), trace, note)


def limit_of_rows(window, trace, kind="lim"):
    """lim_n of ``trace``, a row statistic over ``window.extended``; exactly 0
    past a zero tail."""
    status, trend, value, note = _tail_rule(window, trace, "limit not computable from the window")
    return LimitEstimate(kind, value, status, trend, tuple(range(len(trace))), trace, note)


def limsup_of_rows(window, trace):
    """limsup_n of ``trace``, a row statistic over ``window.extended``: the limit
    the tail reads (a convergent trace's limsup is its limit), else the windowed
    maximum at indeterminate status."""
    if not trace and window.row_tail != ZERO_TAIL:
        return LimitEstimate("limsup", None, STATUS_INDET, TREND_SHORT, note="no rows")
    status, trend, value, note = _tail_rule(window, trace, "stored window only bounds the quantity")
    if status == STATUS_INDET:
        value = max(trace[-DEFAULT_TREND_WINDOW:])
        note = note or "tail trace unresolved; windowed max reported"
    return LimitEstimate("limsup", value, status, trend, tuple(range(len(trace))), trace, note)


def column_limits(window):
    """Per-column limits lim_n a_nk, aggregated over k < width; read through
    ``MatrixWindow.columns``, computed once per window.  A window whose rows are
    read past a stored width of 0 reads no column, so it decides nothing."""
    width = window.width

    def read(forms):
        # each row's span scattered into the column traces, 0 past it
        traces = [[0] * len(forms) for _ in range(width)]
        for n, form in enumerate(forms):
            for k, value in zip(range(form[0], width), span_values(form)):
                traces[k][n] = value
        statuses, trends, values = zip(*map(analyze_tail, traces)) if traces else ((),) * 3
        return (STATUS_INDET if STATUS_INDET in statuses else STATUS_TREND,
                trends[0] if len(set(trends)) == 1 else TREND_OSCILLATING, values)

    forms = window.integer_rows
    status, trend, value, note = _tail_rule(window, forms, "column limits not computable", read)
    if status == STATUS_EXACT:
        value = (0,) * width
    elif not (width or note):
        status, trend, value = STATUS_INDET, TREND_SHORT, None
        note = "no stored columns: the column limits past the stored width are not read"
    return LimitEstimate("lim", value, status, trend, tuple(range(len(forms))), note=note)


def subset_column_sup(window):
    """sup over finite column sets K of sum_n |sum_{k in K} a_nk|.

    Brute-forced over all nonempty subsets of the nonzero columns when they
    number at most EXACT_SUBSET_COLUMNS (2^12 subsets); otherwise reported as
    the exact bound pair [greedy sign-aligned lower, absolute-total upper].
    Exact only for zero row tails: with any other tail the inner series over
    n is not a finite computation.
    """
    rows = window.extended
    ns = tuple(range(len(rows)))
    width = max((len(r) for r in rows), default=0)
    nonzero_cols = [k for k in range(width) if any(column_value(r, k) != 0 for r in rows)]
    exact_tail = window.row_tail == ZERO_TAIL

    if not nonzero_cols:
        status = STATUS_EXACT if exact_tail else STATUS_INDET
        return LimitEstimate("sup", 0, status, TREND_EXACT if exact_tail else TREND_SHORT, ns)

    def objective(chosen):
        return total(abs(total(column_value(r, k) for k in chosen)) for r in rows)

    if len(nonzero_cols) <= EXACT_SUBSET_COLUMNS:
        subsets = (tuple(k for i, k in enumerate(nonzero_cols) if mask >> i & 1)
                   for mask in range(1, 1 << len(nonzero_cols)))
        # the first subset attaining the max, as the search order gives it
        best, best_set = max(((objective(K), K) for K in subsets), key=lambda pair: pair[0])
        if exact_tail:
            return LimitEstimate("sup", best, STATUS_EXACT, TREND_EXACT, ns,
                                 note=f"attained at columns {best_set}")
        return LimitEstimate("sup", best, STATUS_INDET, TREND_SHORT, ns,
                             note="finite-window value; series over rows not certified by tail")

    # bound pair: greedy sign-aligned lower, triangle-inequality upper
    chosen = [max(nonzero_cols, key=lambda k: total(abs(column_value(r, k)) for r in rows))]
    current = objective(chosen)
    improved = True
    while improved:
        improved = False
        for k in nonzero_cols:
            if k in chosen:
                continue
            cand = objective(chosen + [k])
            if cand > current:
                chosen.append(k)
                current = cand
                improved = True
    upper = total(window.row_abs_sums)
    status = STATUS_EXACT if exact_tail else STATUS_INDET
    return LimitEstimate("sup", (current, upper), status,
                         TREND_EXACT if exact_tail else TREND_SHORT, ns,
                         note=f"bound pair; exhaustive search skipped beyond 2^{EXACT_SUBSET_COLUMNS} subsets")
