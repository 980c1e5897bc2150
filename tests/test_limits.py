import dataclasses
import inspect
import math
from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genmeans import (
    FLOAT64,
    RATIONAL,
    Backend,
    MatrixWindow,
    compactness,
    conditions,
    duality,
    eval_condition,
    identity,
    identity_triple,
    limits,
    operators,
    transformed_rows,
    triangle,
)
from genmeans.compactness import chi_norm, compactness_verdict, operator_norm, supplied_associate
from genmeans.limits import (
    STATUS_EXACT,
    STATUS_INDET,
    STATUS_TREND,
    analyze_tail,
    column_limits,
    column_value,
    integer_row,
    limit_of_rows,
    limsup_of_rows,
    row_statistic,
    sup_of_rows,
    total,
    vanishes,
)

from conftest import f64_triples, no_shrink, parameter_triples, small_fractions

# q -> lim q^n, or None when the powers have no limit
GEOMETRIC_LIMITS = {F(1, 2): 0, F(-1, 2): 0, F(1): 1, F(-1): None, F(2): None, F(-2): None}


@given(st.sampled_from(sorted(GEOMETRIC_LIMITS)), st.integers(min_value=0, max_value=20),
       st.integers(min_value=3, max_value=60))
def test_decisive_status_on_geometric_traces_matches_the_truth(q, start, length):
    status, trend, value = analyze_tail([q ** n for n in range(start, start + length)])
    limit = GEOMETRIC_LIMITS[q]
    if status == STATUS_INDET:
        assert value is None
        return
    assert status == STATUS_TREND
    assert limit is not None, f"{q}^n has no limit but the ladder says {trend} {value}"
    assert abs(float(value) - limit) <= 1e-9


def test_decaying_rung_never_calls_a_nonzero_limit_zero():
    # 1/100 + 1/(n+1) and 1/2 + 50/(n+1) fall to 1/100 and 1/2: a decisive
    # status must carry that limit, from the ladder and through the public API
    for a, b in ((F(1, 100), 1), (F(1, 2), 50)):
        for length in (16, 64, 256):
            status, _, value = analyze_tail([a + F(b, n + 1) for n in range(length)])
            assert status == STATUS_INDET or abs(float(value) - a) <= 1e-9

    def row_fn(n):
        return (F(1, 100) + F(1, n + 1),)

    for stored in (16, 64):
        rows = MatrixWindow(tuple(map(row_fn, range(stored))), "structural", row_fn)
        est = eval_condition("4.6", rows)    # row absolute sums vanish: they do not
        assert est.status == STATUS_INDET or abs(float(est.value) - 0.01) <= 1e-9
        chi = chi_norm(None, supplied_associate(rows), "c0")    # chi = 1/100: not compact
        assert chi.status == STATUS_INDET or abs(float(chi.upper) - 0.01) <= 1e-9


def test_diverging_structural_associate_is_not_decided():
    p = identity_triple(4)
    for q in (2, -2):
        def row_fn(n, q=q):
            return (F(q) ** n,)

        assoc = supplied_associate(MatrixWindow(tuple(row_fn(n) for n in range(8)),
                                                "structural", row_fn))
        assert operator_norm(p, assoc).status == STATUS_INDET
        assert compactness_verdict(p, assoc, "c0").status == "indeterminate"


def test_rising_trace_reports_its_limit_as_the_sup():
    # rows (1 - (9/10)^n,) never reach 1, and 1 is their sup: the 32 rows of
    # the extension only reach 0.9618
    def row_fn(n):
        return (1 - F(9, 10) ** n,)

    rows = MatrixWindow(tuple(row_fn(n) for n in range(8)), "structural", row_fn)
    p = identity_triple(8, m=0)    # T = I, so the associate rows are the rows
    for est in (operator_norm(p, supplied_associate(rows)), eval_condition("4.13", rows, p),
                eval_condition("4.24", rows, p)):
        assert est.status == STATUS_TREND
        assert abs(float(est.value) - 1) <= 1e-9


def test_trace_beyond_the_double_range_is_indeterminate():
    def row_fn(n):
        return (2 ** (40 * n),)

    rows = MatrixWindow(tuple(row_fn(n) for n in range(8)), "structural", row_fn)
    p = identity_triple(8, m=0)
    for est in (operator_norm(p, supplied_associate(rows)), eval_condition("4.13", rows, p)):
        assert est.status == STATUS_INDET
        assert est.value == 2 ** (40 * 31)    # the observed max, a lower bound


def test_ladder_reads_the_last_window_before_the_rest():
    # a term past the double range before a settled window does not stop the
    # settled rung; the rungs that read the whole trace still cannot read it
    assert analyze_tail([2 ** 2000] + [F(1, 3)] * 8) == (STATUS_TREND, "converged", F(1, 3))
    assert analyze_tail([2 ** 2000] + [F(1, n + 1) for n in range(1, 40)]) == (
        STATUS_INDET, "diverging", None)
    assert analyze_tail([F(1, 3)] * 8 + [2 ** 2000]) == (STATUS_INDET, "diverging", None)


def test_float_row_sums_add_left_to_right():
    # compensated summation (sum() since Python 3.12) would give 1.0
    assert MatrixWindow(((1e16, 1.0, -1e16),)).row_sums == (0.0,)


def reference_row_statistics(row, alphas):
    """The three row statistics as left-to-right sums through ``total``."""
    shifted = (abs(column_value(row, k) - column_value(alphas, k))
               for k in range(max(len(row), len(alphas))))
    return total(row), total(abs(v) for v in row), total(shifted)


def same_statistic(got, want):
    """A row statistic is its reference sum: a float one bit for bit, an exact
    one equal and a Fraction."""
    if isinstance(want, float):
        return repr(got) == repr(want)
    return got == want and type(got) is F


def row_statistics(row, alphas):
    """The three statistics as a window takes them: its row sums, and the
    shifted trace's ``row_statistic`` on the integer forms of row and alphas."""
    window = MatrixWindow((row,))
    shifted = row_statistic(window.integer_rows[0], True, integer_row(alphas))
    return window.row_sums[0], window.row_abs_sums[0], shifted


def with_zero_runs(values, zeros):
    """Rows of ``values`` after, between and before runs of ``zeros``: among
    them all-zero rows and the empty row."""
    runs = st.lists(zeros, max_size=4)
    return st.builds(lambda lead, body, gap, tail: lead + body[:1] + gap + body[1:] + tail,
                     runs, st.lists(values, max_size=6), runs, runs)


ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
rationals = st.one_of(ints, st.fractions(max_denominator=10 ** 4))
exact_rows = st.one_of(st.lists(ints, max_size=10), st.lists(rationals, max_size=10),
                       with_zero_runs(ints, st.just(0)),
                       with_zero_runs(rationals, st.sampled_from((0, F(0)))))


@given(exact_rows, exact_rows)
@example([], [])
@example([3, -4], [1])
@example([F(1, 2), -2], [])
@example([0, 0, 3, 0, -4, 0], [0, 1, 0])
@example([0, 0, 0, 5], [7, 0])
@example([7, 0], [0, 0, 0, 5])
@example([F(0), F(0)], [0, 0])
@example([0, F(1, 3), 0], [0, 0, 2, 0, 0, F(1, 2)])
def test_exact_row_statistics_match_left_to_right_sums(row, alphas):
    # one common denominator must give the same value, as a Fraction (the
    # empty row and an all-int row included)
    for got, want in zip(row_statistics(row, alphas), reference_row_statistics(row, alphas)):
        assert same_statistic(got, want)


@given(exact_rows)
@example([F(0), 0, F(0)])
def test_integer_form_is_the_support_span(row):
    # (start, ints, den): the entries from the first nonzero to the last over
    # one denominator den > 0, zeros outside it
    start, ints, den = integer_row(row)
    assert den > 0
    support = [k for k, v in enumerate(row) if v]
    assert (start, len(ints)) == ((support[0], support[-1] + 1 - support[0]) if support
                                  else (0, 0))
    assert [F(v, den) for v in ints] == list(row[start:start + len(ints)])
    # a row holding a float is its own values
    floats = [0.0] + list(row)
    assert integer_row(floats) == (0, floats, None)


def test_identity_associate_forms_hold_one_integer_per_row():
    # the 256 extended rows of the supplied identity: one nonzero each
    A = supplied_associate(identity(64)).window
    assert A.integer_rows == tuple((n, [1], 1) for n in range(256))
    assert A.row_sums == A.row_abs_sums == A.shifted_abs_sums == (1,) * 256
    assert A.columns.value == (0,) * 64


CALLER_ROWS = ((1, 0, 2), (0, 3))


def invariant_window(name, backend):
    """The window ``name`` on ``backend``: W, T, the identity, the associate of
    the caller's window, a dual triangle, or the caller's window: rows of ints
    (floats on f64) and a generator of them."""
    one = backend.one
    p = operators.preset(operators.PresetSpec("euler", alpha=F(1, 2)), 4, m=2, backend=backend)
    a = triangle.SequenceWindow((one, one / 2, 0 * one, one / 3), "zero")
    kind = int if backend is RATIONAL else float
    caller = MatrixWindow(tuple(tuple(map(kind, row)) for row in CALLER_ROWS), "structural",
                          lambda n: (kind(n), kind(0), kind(1)))
    return {"W": operators.weighted_mean_matrix(p), "T": operators.mean_difference_matrix(p),
            "identity": identity(4, backend), "associate": transformed_rows(p, caller),
            "alpha": duality.alpha_dual_matrix(p, a), "gamma": duality.gamma_dual_matrix(p, a),
            "beta": duality.tail_sum_matrix(p, a), "caller": caller}[name]


@pytest.mark.parametrize("backend", (RATIONAL, FLOAT64), ids=("rational", "f64"))
@pytest.mark.parametrize("name", ("W", "T", "identity", "associate", "alpha", "gamma", "beta",
                                  "caller"))
def test_every_exact_entry_and_row_statistic_is_a_fraction(name, backend):
    # one row form, (start, ints, den) with den > 0, or a float row's (0, values,
    # None): every exact entry and row statistic a window hands out is a
    # Fraction and an f64 row's entries are floats; a caller's rows stay the
    # tuple passed.  W and T are built on the exact twin on either backend
    window = invariant_window(name, backend)
    exact = backend is RATIONAL or name in ("W", "T")
    for start, ints, den in window.integer_rows:
        assert den is None and not exact or type(den) is int and den > 0
    passed = window.stored if name == "caller" else 0
    if passed:
        assert window.rows == tuple(map(tuple, CALLER_ROWS))
    rows = [*window.rows[passed:], *window.extended[passed:],
            *map(window.row, range(passed, len(window.extended)))]
    assert rows and all(type(v) is (F if exact else float) for row in rows for v in row)
    held = [window.row_sums, window.row_abs_sums, window.row_sum_magnitudes]
    if window.shifted_abs_sums is not None and not any(
            isinstance(v, float) for v in window.columns.value):    # exact column limits
        held.append(window.shifted_abs_sums)
    for trace in held:
        assert [type(v) for v in trace] == [
            float if den is None else F for _, _, den in window.integer_rows]


def form_and_row_window(row, stored, tail, generate, capacity):
    """(the window built from the forms of rows ``row(n)`` as the constructor
    builds a caller's window, the caller's window of those rows)."""
    def form(n):
        return integer_row(row(n))

    built = MatrixWindow._of_forms([form(n) for n in range(stored)], tail,
                                   form if generate else None, capacity, lambda n: len(row(n)))
    given = MatrixWindow(tuple(map(row, range(stored))), tail, row if generate else None, capacity)
    return built, given


small_floats = st.floats(min_value=-10 ** 6, max_value=10 ** 6, allow_nan=False)


@st.composite
def form_and_row_windows(draw):
    """``form_and_row_window`` on row n = a_k + b_k q^n, for drawn int, Fraction,
    float and mixed a, b, widths varying with n, exact zeros 0 or Fraction(0),
    and a tail: zero, unknown, or structural with or without a generator and a
    capacity."""
    zero = draw(st.sampled_from((0, F(0))))
    rows = st.one_of(exact_rows, st.lists(small_floats, max_size=10),
                     st.lists(st.one_of(rationals, small_floats), max_size=10))
    a, b = draw(rows), draw(rows)
    q = draw(st.sampled_from((F(1), F(1, 2), F(-1, 3), F(2))))
    tail = draw(st.sampled_from(("zero", "structural", "unknown")))

    def row(n):
        values = [x + y * q ** n for x, y in zip_longest(a, b, fillvalue=0)]
        return tuple(v if isinstance(v, float) else F(v) if v else zero
                     for v in values[:max(0, len(values) - n % 3)])

    return form_and_row_window(row, draw(st.integers(min_value=0, max_value=6)), tail,
                               tail == "structural" and draw(st.booleans()),
                               draw(st.one_of(st.none(), st.integers(min_value=0, max_value=30))))


def check_form_and_row_windows(built, given):
    # a caller's window is the window of its rows' forms: the same forms, typed
    # row statistics, column limits, shifted trace and estimates; its stored
    # rows are the tuple passed, equal to their view
    held = ("row_sums", "row_abs_sums", "row_sum_magnitudes", "shifted_abs_sums")
    got, want = ([repr(getattr(w, name)) for name in held + ("columns",)] for w in (built, given))
    assert got == want
    assert built.rows == given.rows
    assert repr(built.extended[built.stored:]) == repr(given.extended[given.stored:])
    assert built.integer_rows == given.integer_rows and built.width == given.width
    # each statistic is the left-to-right sum over its row's values
    alphas = given.columns.value if given.shifted_abs_sums is not None else ()
    for n, row in enumerate(given.extended):
        want = reference_row_statistics(row, alphas)
        assert same_statistic(given.row_sums[n], want[0])
        assert same_statistic(given.row_abs_sums[n], want[1])
        if given.shifted_abs_sums is not None:
            assert same_statistic(given.shifted_abs_sums[n], want[2])
    for name in held:
        if getattr(given, name) is not None:
            for estimate in (sup_of_rows, limit_of_rows, limsup_of_rows):
                assert repr(estimate(built, getattr(built, name))) == repr(
                    estimate(given, getattr(given, name)))


@given(form_and_row_windows())
def test_windows_built_from_forms_read_as_windows_of_their_rows(windows):
    check_form_and_row_windows(*windows)


def test_window_built_from_forms_subtracts_a_float_column_limit_from_its_rows():
    # 1 + 2^-n and 3 - 2^-n do not settle in 16 rows: the ladder reads their
    # column limits 1 and 3 as accelerated floats, which the shifted trace
    # subtracts from the rows' values
    def row(n):
        return (1 + F(1, 2 ** n), F(0), 3 - F(1, 2 ** n))

    built, given = form_and_row_window(row, 4, "structural", True, None)
    assert [type(v) for v in built.columns.value] == [float, F, float]
    check_form_and_row_windows(built, given)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.lists(st.one_of(finite_floats, rationals), max_size=10),
       st.lists(st.one_of(finite_floats, rationals), max_size=10))
@example([1e308, 1e308], [])
@example([], [3e292, 1.7976931348623155e308])
@example([1e308, -1e308], [-1e308])
def test_rows_with_floats_keep_left_to_right_sums(row, alphas):
    # each statistic is the left-to-right sum, except that a sum of these
    # finite entries past the double range raises instead of reading inf
    window = MatrixWindow((row,))
    statistics = (lambda: window.row_sums[0], lambda: window.row_abs_sums[0],
                  lambda: row_statistic(window.integer_rows[0], True, integer_row(alphas)))
    for statistic, want in zip(statistics, reference_row_statistics(row, alphas)):
        if isinstance(want, float) and math.isinf(want):
            with pytest.raises(OverflowError):
                statistic()
            continue
        assert same_statistic(statistic(), want)


def test_structural_tail_without_generator_is_named_by_every_estimator():
    note = "structural tail has no generator available; stored window only"
    rows = MatrixWindow(((F(1),),) * 8, "structural")
    for estimate in (sup_of_rows, limit_of_rows, limsup_of_rows):
        est = estimate(rows, rows.row_abs_sums)
        assert est.status == STATUS_INDET and est.note == note
    est = column_limits(rows)
    assert est.status == STATUS_INDET and est.note == note
    # a generator capped at the stored rows is not a missing one
    capped = MatrixWindow(rows.rows, "structural", lambda n: (F(1),), 8)
    for estimate in (sup_of_rows, limit_of_rows, limsup_of_rows):
        est = estimate(capped, capped.row_abs_sums)
        assert est.note == "structural tail not extendable past the stored rows"
    # an undeclared tail keeps each estimator's own reading
    unknown = MatrixWindow(rows.rows, "unknown")
    assert sup_of_rows(unknown, unknown.row_abs_sums).note == (
        "tail undeclared; observed max is a lower bound")
    assert limit_of_rows(unknown, unknown.row_abs_sums).note == (
        "tail undeclared; limit not computable from the window")
    assert column_limits(unknown).note == "tail undeclared; column limits not computable"


CAPPED = "structural tail not extendable past the stored rows"
NO_GENERATOR = "structural tail has no generator available; stored window only"
UNDECLARED = "tail undeclared; "
NO_COLUMNS = "no stored columns: the column limits past the stored width are not read"
EXACT = (STATUS_EXACT, "exact")
SHORT = (STATUS_INDET, "short")
NOT_EXTENDED = (*SHORT, None)


def tail_rule_windows(stored):
    """One window of each tail over ``stored`` rows of row(n), whose absolute
    sums read 3/2, 1, 1, ... and whose sums read -1/2, -1, -1, ..."""
    def row(n):
        return (F(1, 2) if n == 0 else 0, -1)

    rows = tuple(map(row, range(stored)))
    return {"zero": MatrixWindow(rows, "zero"),
            "extended": MatrixWindow(rows, "structural", row),
            "capped": MatrixWindow(rows, "structural", row, stored),
            "no generator": MatrixWindow(rows, "structural"),
            "unknown": MatrixWindow(rows, "unknown")}


TAIL_RULE_ESTIMATORS = {
    "sup": lambda w: sup_of_rows(w, w.row_abs_sums),
    "lim": lambda w: limit_of_rows(w, w.row_sums),
    "exists": lambda w: limit_of_rows(w, w.row_sums, kind="exists"),
    "limsup": lambda w: limsup_of_rows(w, w.row_abs_sums),
    "columns": column_limits,
}

# (stored rows, tail) -> (status, trend, value, note) of sup, lim, exists,
# limsup and column limits.  With no stored rows a zero tail extends by four
# empty rows and a generator by four of its rows, as the window's ``extended``;
# a row statistic is a Fraction, so the sup of the empty rows' sums is F(0),
# and a column trace holds its rows' span entries, 0 past them
TAIL_RULE_TABLE = {
    (0, "zero"): ((*EXACT, F(0), ""),) + ((*EXACT, 0, ""),) * 3 + ((*EXACT, (), ""),),
    (0, "extended"): ((STATUS_TREND, "drifting", F(3, 2), ""),
                      (STATUS_INDET, "oscillating", None, ""),
                      (STATUS_INDET, "oscillating", None, ""),
                      (STATUS_INDET, "drifting", F(3, 2),
                       "tail trace unresolved; windowed max reported"),
                      (*SHORT, None, NO_COLUMNS)),
    (0, "capped"): ((*NOT_EXTENDED, "no rows"), (*NOT_EXTENDED, CAPPED),
                    (*NOT_EXTENDED, CAPPED), (*NOT_EXTENDED, "no rows"),
                    (*NOT_EXTENDED, CAPPED)),
    (0, "no generator"): ((*NOT_EXTENDED, "no rows"), (*NOT_EXTENDED, NO_GENERATOR),
                          (*NOT_EXTENDED, NO_GENERATOR), (*NOT_EXTENDED, "no rows"),
                          (*NOT_EXTENDED, NO_GENERATOR)),
    (0, "unknown"): ((*NOT_EXTENDED, "no rows"),
                     (*NOT_EXTENDED, UNDECLARED + "limit not computable from the window"),
                     (*NOT_EXTENDED, UNDECLARED + "limit not computable from the window"),
                     (*NOT_EXTENDED, "no rows"),
                     (*NOT_EXTENDED, UNDECLARED + "column limits not computable")),
    (4, "zero"): ((*EXACT, F(3, 2), ""), (*EXACT, 0, ""), (*EXACT, 0, ""), (*EXACT, 0, ""),
                  (*EXACT, (0, 0), "")),
    (4, "extended"): ((STATUS_TREND, "converged", F(3, 2), ""),
                      (STATUS_TREND, "converged", F(-1), ""),
                      (STATUS_TREND, "converged", F(-1), ""),
                      (STATUS_TREND, "converged", F(1), ""),
                      (STATUS_TREND, "converged", (0, F(-1)), "")),
    (4, "capped"): ((*SHORT, F(3, 2), CAPPED), (*NOT_EXTENDED, CAPPED), (*NOT_EXTENDED, CAPPED),
                    (*SHORT, F(3, 2), CAPPED), (*NOT_EXTENDED, CAPPED)),
    (4, "no generator"): ((*SHORT, F(3, 2), NO_GENERATOR), (*NOT_EXTENDED, NO_GENERATOR),
                          (*NOT_EXTENDED, NO_GENERATOR), (*SHORT, F(3, 2), NO_GENERATOR),
                          (*NOT_EXTENDED, NO_GENERATOR)),
    (4, "unknown"): ((*SHORT, F(3, 2), UNDECLARED + "observed max is a lower bound"),
                     (*NOT_EXTENDED, UNDECLARED + "limit not computable from the window"),
                     (*NOT_EXTENDED, UNDECLARED + "limit not computable from the window"),
                     (*SHORT, F(3, 2), UNDECLARED + "stored window only bounds the quantity"),
                     (*NOT_EXTENDED, UNDECLARED + "column limits not computable")),
}


@pytest.mark.parametrize("stored, tail", sorted(TAIL_RULE_TABLE))
def test_every_estimator_reads_a_tail_by_one_rule(stored, tail):
    # each tail and estimator, on an empty and a non-empty window: a zero tail
    # reads exact 0, a trace past the stored rows the ladder, any other window
    # nothing, noting why; each estimator adds only its own part (a sup its
    # observed max, a limsup its windowed max, column limits their aggregate)
    window = tail_rule_windows(stored)[tail]
    for (name, estimate), want in zip(TAIL_RULE_ESTIMATORS.items(), TAIL_RULE_TABLE[stored, tail]):
        est = estimate(window)
        assert repr((est.status, est.trend, est.value, est.note)) == repr(want), name
        assert est.kind == ("lim" if name == "columns" else name)
        assert est.window == tuple(range(len(window.extended)))
    if tail == "zero":    # an empty trace past a zero tail is an exact 0 too
        for estimate in (sup_of_rows, limsup_of_rows):
            est = estimate(window, ())
            assert repr((est.status, est.trend, est.value, est.note)) == repr((*EXACT, 0, ""))
            assert est.window == est.trace == ()


def test_f64_window_reads_the_estimates_of_a_fresh_ladder_run():
    # float traces: a kept reading gives the estimates that a trace read
    # afresh gives, on the first read and on every later one
    def row(n):
        return (1.0 - 0.9 ** n, 0.5 ** n, -(0.75 ** n))

    window = MatrixWindow(tuple(map(row, range(8))), "structural", row)
    own = (window.row_sums, window.row_abs_sums, window.row_sum_magnitudes, window.shifted_abs_sums)
    estimators = (sup_of_rows, limit_of_rows, limsup_of_rows)
    for _ in range(2):
        for trace in own:
            for estimate in estimators:
                afresh = tuple(list(trace))     # a new tuple: tuple() of a tuple is itself
                got, want = estimate(window, trace), estimate(window, afresh)
                assert repr(got) == repr(want)
    assert set(window.readings) == set(map(id, own))
    assert all(isinstance(value, float) for _, _, value, _ in window.readings.values()
               if value is not None)


def test_sup_of_a_held_trace_reads_the_max_kept_with_its_reading(monkeypatch):
    # the window takes the max of a trace it holds once, when a sup first
    # asks, and keeps it with its ladder reading; a limit and a limsup that
    # resolve take none; a trace a caller builds is read afresh on every call
    maxima = []

    def counting_max(*args, **kwargs):
        maxima.extend(args[:len(args) == 1])
        return max(*args, **kwargs)

    for module in (limits, triangle):
        monkeypatch.setattr(module, "max", counting_max, raising=False)

    def row(n):
        return (1 - F(9, 10) ** n,)

    window = MatrixWindow(tuple(map(row, range(8))), "structural", row)
    held, afresh = window.row_abs_sums, tuple(list(window.row_abs_sums))
    assert limit_of_rows(window, held).status == limsup_of_rows(window, held).status == STATUS_TREND
    assert not any(trace is held for trace in maxima)
    for _ in range(3):
        assert sup_of_rows(window, held) == sup_of_rows(window, afresh)
    assert sum(trace is held for trace in maxima) == 1
    assert sum(trace is afresh for trace in maxima) == 3
    assert window.readings[id(held)][3] == max(held)


def _same_sums(got, want):
    """Each statistic its reference sum (``same_statistic``): a float one bit for
    bit, an exact one, an empty row's on f64 included, equal and a Fraction."""
    assert len(got) == len(want) and all(map(same_statistic, got, want))


@no_shrink
@given(st.one_of(parameter_triples(order=3), f64_triples(max_order=4)), st.data())
def test_window_statistics_are_left_to_right_sums(p, data):
    convert = p.backend.convert
    width = data.draw(st.integers(min_value=1, max_value=p.order))
    if data.draw(st.booleans()):
        A = MatrixWindow(tuple(tuple(convert(data.draw(small_fractions)) for _ in range(width))
                               for _ in range(3)), "zero")
    else:
        # columns a_k + b_k q^n: the column limits resolve, often to an
        # accelerated float, so the shifted trace meets float alphas
        a, b = ([data.draw(small_fractions) for _ in range(width)] for _ in "ab")
        q = data.draw(st.sampled_from((F(1, 2), F(-1, 2), F(1, 3))))

        def row_fn(n):
            return tuple(convert(x + y * q ** n) for x, y in zip(a, b))

        A = MatrixWindow(tuple(map(row_fn, range(3))), "structural", row_fn)
    # a window of given rows and one whose integer rows come off the kernel
    for window in (A, transformed_rows(p, A)):
        rows = window.extended
        _same_sums(window.row_sums, tuple(map(total, rows)))
        _same_sums(window.row_abs_sums, tuple(total(map(abs, row)) for row in rows))
        cols, trace = window.columns, window.shifted_abs_sums
        if trace is not None:
            est = limit_of_rows(window, trace)
            alphas = cols.value
            _same_sums(est.trace, tuple(
                total(abs(column_value(row, k) - column_value(alphas, k))
                      for k in range(max(len(row), len(alphas)))) for row in rows))


def test_no_function_takes_a_tolerance():
    # one tolerance, scalars.TOLERANCE, read by the trend ladder and the zero
    # test of trend estimates; no caller can pass another
    for module in (limits, conditions, compactness, operators, duality):
        for name, value in vars(module).items():
            if callable(value) and getattr(value, "__module__", None) == module.__name__:
                assert "tolerance" not in inspect.signature(value).parameters, (module, name)
    assert [f.name for f in dataclasses.fields(Backend)] == ["mode"]


def test_vanishes_is_the_one_zero_test():
    # exact values compare with ==, trend values within TOLERANCE; a tuple
    # vanishes entrywise and None never does
    assert vanishes(0, STATUS_EXACT) and vanishes(F(0), STATUS_EXACT)
    assert not vanishes(F(1, 10 ** 12), STATUS_EXACT)
    assert vanishes(F(1, 10 ** 12), STATUS_TREND)
    assert vanishes(1e-11, STATUS_TREND) and vanishes(-1e-11, STATUS_TREND)
    assert not vanishes(1e-9, STATUS_TREND)
    assert vanishes((0, F(0)), STATUS_EXACT) and not vanishes((0, F(1, 2)), STATUS_EXACT)
    assert vanishes((1e-11, 0.0), STATUS_TREND) and not vanishes((1e-11, None), STATUS_TREND)
    assert not vanishes(None, STATUS_EXACT) and not vanishes(None, STATUS_TREND)
    assert not any(hasattr(module, "_near_zero") for module in (conditions, compactness))
