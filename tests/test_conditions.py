import gc
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genmeans import (
    CONDITION_IDS,
    DimensionError,
    FLOAT64,
    MatrixWindow,
    ParameterError,
    PresetSpec,
    RATIONAL,
    SequenceWindow,
    TriangleMatrix,
    alpha_dual_matrix,
    basis_vector,
    chi_norm,
    classify_map,
    compactness_verdict,
    condition_verdict,
    dual_membership,
    eval_condition,
    gamma_dual_matrix,
    identity,
    identity_triple,
    inverse_transform,
    mean_difference_matrix,
    operator_norm,
    preset,
    reconstruct,
    space_norm,
    supplied_associate,
    tail_sum_matrix,
    transform,
    transformed_rows,
    unit_sequence,
    weighted_mean_matrix,
)
from genmeans import compactness, conditions, limits, operators, triangle
from genmeans.conditions import REQUIRED_CONDITIONS
from genmeans.limits import LimitEstimate
from genmeans.selfcheck import associate_row_closed

from conftest import counted_ladder, nonzero_fractions, parameter_triples, zero_tail_windows

SPACES = ("c0", "c", "l_inf")


def zero_tail_identity(order):
    rows = tuple(tuple(F(1) if i == j else F(0) for j in range(i + 1)) for i in range(order))
    return TriangleMatrix(order, rows, "zero")


def finite_rank(order, width):
    rows = (
        (F(1),) + (F(0),) * (width - 1),
        tuple(F(i - 1) for i in range(width)),
        tuple(F(1, i + 2) for i in range(width)),
    )
    return MatrixWindow(rows[:order], "zero")


# --- raw conditions -----------------------------------------------------------

def test_row_sup_on_zero_tail_identity():
    est = eval_condition("4.5", zero_tail_identity(3))
    assert est.value == 1 and est.status == "exact"


def test_subset_sup_brute_force_identity():
    est = eval_condition("4.4", zero_tail_identity(3))
    assert est.value == 3 and est.status == "exact"


def test_subset_sup_sign_cancellation():
    # columns cancel inside a group: best set keeps them apart
    rows = ((F(1), F(-1)), (F(1), F(-1)))
    est = eval_condition("4.4", MatrixWindow(rows, "zero"))
    assert est.value == 2 and est.status == "exact"


def test_row_limit_on_zero_matrix():
    est = eval_condition("4.6", MatrixWindow(((),), "zero"))
    assert est.value == 0 and est.status == "exact"


def test_column_limits_zero_tail_are_zero():
    est = eval_condition("4.7", finite_rank(3, 4))
    assert est.status == "exact"
    assert all(v == 0 for v in est.value)


def test_unknown_tail_is_indeterminate():
    est = eval_condition("4.6", MatrixWindow(((F(1),),), "unknown"))
    assert est.status == "indeterminate"
    verdict = condition_verdict("4.6", est)
    assert verdict.status == "indeterminate"


def test_unknown_condition_id_rejected():
    with pytest.raises(Exception):
        eval_condition("4.12", zero_tail_identity(2))


# --- transformed objects --------------------------------------------------------

def test_transformed_rows_of_composite_is_identity():
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    T = mean_difference_matrix(p)
    B = transformed_rows(p, T)
    for n in range(6):
        for k in range(n + 1):
            assert B.entry(n, k) == (1 if n == k else 0)


def test_transformed_rows_identity_preset_is_input():
    p = identity_triple(5, m=0)
    A = finite_rank(3, 5)
    B = transformed_rows(p, A)
    assert B.rows == A.rows


def test_transformed_rows_of_zero():
    p = identity_triple(4)
    A = MatrixWindow(((F(0),) * 4,), "zero")
    assert all(v == 0 for v in transformed_rows(p, A).rows[0])


@given(parameter_triples(order=6))
def test_transformed_rows_match_associate_rows(p):
    A = mean_difference_matrix(p)
    B = transformed_rows(p, A)
    for n in range(6):
        row = A.rows[n]
        assert B.rows[n] == tuple(associate_row_closed(p, SequenceWindow(row, "zero"), len(row)))


def _widening_row(n):
    return tuple(F((-1) ** k, k + 1) for k in range(n + 1))


@pytest.mark.parametrize("capacity", [2, 10, 16, 20, None, 40])
def test_transformed_rows_extend_as_the_associates_of_the_source_extension(capacity):
    # four stored rows extend to 16; the parameters' capacity is 24
    p = preset(PresetSpec("euler", alpha=F(1, 3)), 6, m=2)
    A = MatrixWindow(tuple(map(_widening_row, range(4))), "structural", _widening_row, capacity)
    B = transformed_rows(p, A)

    def associate(row):
        return tuple(associate_row_closed(p, SequenceWindow(row, "zero"), len(row)))

    assert B.rows == tuple(map(associate, A.rows))
    # a capacity below the stored count stops the generator, never a stored row
    assert len(A.extended) == max(4, min(16, capacity or 16))
    assert B.extended == tuple(map(associate, A.extended[:p.capacity]))


def test_transformed_rows_reject_a_generated_row_past_the_capacity():
    p = preset(PresetSpec("euler", alpha=F(1, 3)), 4, m=1)

    def row(n):
        return (F(1),) * (2 * n + 1)

    A = MatrixWindow(tuple(map(row, range(4))), "structural", row)
    with pytest.raises(DimensionError):
        transformed_rows(p, A).extended


def test_transformed_rows_make_one_toeplitz_solve(monkeypatch):
    solves = []
    solve = operators._toeplitz_solve

    def counting_solve(*args):
        solves.append(len(args[1]))
        return solve(*args)

    monkeypatch.setattr(operators, "_toeplitz_solve", counting_solve)
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    B = transformed_rows(p, mean_difference_matrix(p))
    assert len(B.extended) == 24
    assert solves == [24]


@pytest.mark.parametrize("composite", (True, False), ids=("composite", "weighted-mean"))
def test_kernel_windows_sum_rows_with_no_rescaling(monkeypatch, composite):
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    B = transformed_rows(p, (mean_difference_matrix if composite else weighted_mean_matrix)(p))
    rows = B.extended
    scaled = []
    common_denominator = limits.common_denominator

    def counting_common_denominator(values):
        values = list(values)
        scaled.append(values)
        return common_denominator(values)

    # every lcm the row statistics take goes through limits.common_denominator
    monkeypatch.setattr(limits, "common_denominator", counting_common_denominator)
    assert len(rows) == 24
    assert B.row_sums == tuple(map(limits.total, rows))
    assert B.row_abs_sums == tuple(limits.total(map(abs, row)) for row in rows)
    cols, trace = B.columns, B.shifted_abs_sums    # the c-target trace
    est = limits.limsup_of_rows(B, trace)
    alphas = cols.value
    assert est.trace == tuple(
        limits.total(abs(limits.column_value(row, k) - limits.column_value(alphas, k))
                     for k in range(max(len(row), len(alphas)))) for row in rows)
    # the kernel's integers serve every row; only the column limits are scaled,
    # from their first nonzero to their last
    support = [k for k, v in enumerate(alphas) if v]
    assert scaled == [list(alphas[support[0]:support[-1] + 1] if support else ())]


def test_column_limits_are_computed_once_per_window(monkeypatch):
    # 4.17 and 4.20 read the associate's column limits, and the chi trio into
    # c reads a supplied associate's: each window computes them once
    windows = []
    column_limits = limits.column_limits

    def counting_column_limits(window, *args, **kwargs):
        windows.append(window)
        return column_limits(window, *args, **kwargs)

    for module in (limits, conditions, compactness):
        monkeypatch.setattr(module, "column_limits", counting_column_limits, raising=False)
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 4, m=1)
    report = classify_map(p, weighted_mean_matrix(p), "l_inf", "c")
    assert report.estimates["4.17"].kind == "exists"
    assert len(windows) == 1
    operand = supplied_associate(transformed_rows(p, weighted_mean_matrix(p)))
    chi = chi_norm(p, operand, "c")
    assert compactness_verdict(p, operand, "c") == chi.verdict()
    operator_norm(p, operand)
    assert len(windows) == 2 and windows[1] is operand.window


def test_tail_sum_rows_single_coordinate_row():
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    from genmeans.selfcheck import mean_difference_inverse
    S = mean_difference_inverse(p)
    W = tail_sum_matrix(p, SequenceWindow(unit_sequence(6, 2, RATIONAL).values, "zero")).rows
    for cut in range(3):
        for k in range(cut + 1):
            assert W[cut][k] == S.entry(2, k)
    # rows past the support vanish
    assert all(v == 0 for v in W[3])


def test_no_function_rechecks_a_built_triple(monkeypatch):
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=2)
    A = finite_rank(3, 6)
    a = SequenceWindow(unit_sequence(6, 2, RATIONAL).values, "zero")
    x = SequenceWindow(tuple(F(1, k + 1) for k in range(6)))
    calls = []
    violations = operators._violations

    def counting(q):
        calls.append(q)
        return violations(q)

    monkeypatch.setattr(operators, "_violations", counting)
    for source in SPACES:
        for target in SPACES:
            classify_map(p, A, source, target)
    eval_condition("4.15", A, p)
    for operand in (A, supplied_associate(zero_tail_identity(6))):
        for target in SPACES:
            chi_norm(p, operand, target)
            compactness_verdict(p, operand, target)
        operator_norm(p, operand)
    inverse_transform(p, transform(p, x))
    space_norm(p, x)
    basis_vector(p, 2)
    reconstruct(p, x, 3, "c")
    for dual in ("alpha", "beta", "gamma"):
        dual_membership(p, a, dual)
    tail_sum_matrix(p, a)
    alpha_dual_matrix(p, a)
    gamma_dual_matrix(p, a)
    assert calls == []
    # the wrapper is live: building a triple is the one check
    replace(p, m=1)
    assert len(calls) == 1


@pytest.mark.parametrize("cond", ["4.23", "4.24", "4.25"])
def test_shifted_membership_without_generator_is_indeterminate(cond):
    # a structural tail read from JSON has no generator: the stored rows alone
    # cannot decide a limit over the row index
    A = MatrixWindow(((F(1),),) * 8, "structural")
    est = eval_condition(cond, A, identity_triple(4, m=0))
    assert est.status == "indeterminate"
    assert condition_verdict(cond, est).status == "indeterminate"


def _source_row(n):
    return (F(1), F(-1, n + 2))


@pytest.mark.parametrize("tail, row_fn", [
    ("zero", None), ("structural", _source_row), ("structural", None), ("unknown", None),
])
def test_transported_conditions_are_their_raw_twins_on_the_associate(tail, row_fn):
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    A = MatrixWindow(tuple(_source_row(n) for n in range(6)), tail, row_fn)
    assoc = transformed_rows(p, A)
    for cond, raw in conditions.ON_ASSOCIATE.items():
        est = eval_condition(cond, A, p)
        twin = eval_condition(raw, assoc)
        if cond in ("4.23", "4.25"):
            assert est.note == "; ".join(filter(None, (twin.note,
                                                       conditions.SHIFTED_MEMBERSHIP_NOTE)))
            est = replace(est, note=twin.note)
        assert est == twin, cond


def test_tail_sum_bound_over_structural_rows_claims_no_sup(monkeypatch):
    # every source row is finitely supported, so its tail-sum rows are
    # bounded and 4.15 holds exactly on any declared row tail; it reports no
    # bound and builds no kernel (4.13, a sup over all rows, is indeterminate
    # on the structural tail)
    def no_solve(*args):
        raise AssertionError("4.15 built an inverse kernel")

    p = identity_triple(4, m=0)
    A = MatrixWindow(((F(1),),) * 8, "structural")
    assert eval_condition("4.13", A, p).status == "indeterminate"
    monkeypatch.setattr(operators, "_toeplitz_solve", no_solve)
    for tail in ("zero", "structural"):
        est = eval_condition("4.15", MatrixWindow(((F(1),),) * 8, tail), p)
        assert est == LimitEstimate("sup", None, "exact", "exact", note=est.note)
        assert "finitely supported" in est.note and "tail_sum_matrix" in est.note
        assert condition_verdict("4.15", est).status == "satisfied"
    unknown = eval_condition("4.15", MatrixWindow(((F(1),),) * 8, "unknown"), p)
    assert unknown == LimitEstimate("sup", None, "indeterminate", unknown.trend,
                                    note=unknown.note)
    assert condition_verdict("4.15", unknown).status == "indeterminate"


@pytest.mark.parametrize("cond", ["4.15", "4.16", "4.19", "4.21", "4.22"])
def test_per_row_conditions_keep_one_kind_on_every_tail(cond):
    p = identity_triple(4, m=0)
    kinds = {eval_condition(cond, MatrixWindow(((F(1),),) * 4, tail), p).kind
             for tail in ("zero", "structural", "unknown")}
    predicate = conditions.CONDITION_PREDICATE[cond]
    assert kinds == {{"finite": "sup", "exists": "exists", "zero": "lim"}[predicate]}


# --- condition table totality -----------------------------------------------------

def test_condition_table_is_total():
    assert len(CONDITION_IDS) == 21
    p = identity_triple(6)
    A = finite_rank(3, 6)
    for cond in CONDITION_IDS:
        est = eval_condition(cond, A, p)
        verdict = condition_verdict(cond, est)
        assert verdict.status in ("satisfied", "violated", "indeterminate"), cond


def test_transformed_conditions_need_params():
    with pytest.raises(ParameterError):
        eval_condition("4.13", finite_rank(2, 4))


# --- classification ------------------------------------------------------------

def test_zero_matrix_satisfies_every_pair():
    p = identity_triple(4)
    A = MatrixWindow((), "zero")
    for source in SPACES:
        for target in SPACES:
            report = classify_map(p, A, source, target)
            assert report.overall.status == "satisfied", (source, target)


@given(parameter_triples(order=6))
def test_finite_rank_classifies_exactly(p):
    A = finite_rank(3, 6)
    report = classify_map(p, A, "c0", "c0")
    assert report.overall.status == "satisfied"
    assert all(est.status == "exact" for est in report.estimates.values())


def test_composite_rows_give_unit_row_sums():
    # every associate row of the composite operator is a coordinate vector
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 8, m=1)
    T = mean_difference_matrix(p)
    report = classify_map(p, T, "c0", "l_inf")
    est = report.estimates["4.13"]
    assert est.value == 1
    assert report.overall.status == "satisfied"


@pytest.mark.parametrize("source,target", sorted(REQUIRED_CONDITIONS))
def test_classification_builds_the_associate_once_and_each_row_once(source, target,
                                                                     monkeypatch):
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    T = mean_difference_matrix(p)
    generated = Counter()

    def row_fn(n):
        generated[n] += 1
        return T.row_fn(n)

    built = []

    def counting_transformed_rows(*args):
        built.append(args)
        return transformed_rows(*args)

    monkeypatch.setattr(conditions, "transformed_rows", counting_transformed_rows)
    window = MatrixWindow(T.rows, "structural", row_fn, T.capacity)
    report = classify_map(p, window, source, target)
    assert len(built) == 1
    assert sorted(generated) == list(range(6, 24))
    assert set(generated.values()) == {1}
    assert report == classify_map(p, T, source, target)


@pytest.mark.parametrize("source,target", sorted(REQUIRED_CONDITIONS))
def test_classification_builds_one_inverse_kernel(source, target, monkeypatch):
    solves = []
    solve = operators._toeplitz_solve

    def counting_solve(*args):
        solves.append(len(args[1]))
        return solve(*args)

    monkeypatch.setattr(operators, "_toeplitz_solve", counting_solve)
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    A = MatrixWindow((tuple(F(k + 1) for k in range(6)), (F(1), F(-1, 2))), "zero")
    classify_map(p, A, source, target)
    assert solves == [6]


def test_classifications_of_one_window_generate_each_source_row_once():
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    T = mean_difference_matrix(p)
    generated = Counter()

    def row_fn(n):
        generated[n] += 1
        return T.row_fn(n)

    window = MatrixWindow(T.rows, "structural", row_fn, T.capacity)
    classify_map(p, window, "c", "c")
    classify_map(p, window, "c0", "l_inf")
    assert sorted(generated) == list(range(6, 24))
    assert set(generated.values()) == {1}


def _analysis(p, A):
    """The nine classifications, condition 4.13 and the chi trio of one operator."""
    return ([classify_map(p, A, source, target) for source, target in sorted(REQUIRED_CONDITIONS)],
            eval_condition("4.13", A, p),
            [(chi_norm(p, A, target), compactness_verdict(p, A, target)) for target in SPACES],
            operator_norm(p, A))


def test_one_operator_shares_one_associate(monkeypatch):
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    T = mean_difference_matrix(p)
    generated = Counter()

    def row_fn(n):
        generated[n] += 1
        return T.row_fn(n)

    solves = []
    solve = operators._toeplitz_solve

    def counting_solve(*args):
        solves.append(len(args[1]))
        return solve(*args)

    monkeypatch.setattr(operators, "_toeplitz_solve", counting_solve)
    window = MatrixWindow(T.rows, "structural", row_fn, T.capacity)
    reports = _analysis(p, window)
    assert solves == [24]
    assert sorted(generated) == list(range(6, 24))
    assert set(generated.values()) == {1}
    assert reports == _analysis(p, MatrixWindow(T.rows, "structural", row_fn, T.capacity))


def _associate_view(window):
    return window.rows, window.extended, window.row_tail, window.capacity, window.integer_rows


def test_associate_follows_the_triple_it_was_built_for():
    spec = PresetSpec("euler", alpha=F(1, 2))
    p = preset(spec, 6, m=1)
    T = mean_difference_matrix(p)

    def source():
        return MatrixWindow(T.rows, "zero")

    A = source()
    first = transformed_rows(p, A)
    assert transformed_rows(p, A) is first
    views = []
    for q in (replace(p, m=2), preset(spec, 6, m=1, backend=FLOAT64), p):
        view = _associate_view(transformed_rows(q, A))
        assert view == _associate_view(transformed_rows(q, source()))
        views.append(view)
    # each triple reads its own associate, never the one held before it
    assert views[0] != views[2] and views[1] != views[2]
    assert all(isinstance(v, float) for row in views[1][1] for v in row)


def test_associate_dies_with_its_window():
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    A = MatrixWindow(mean_difference_matrix(p).rows, "zero")
    _analysis(p, A)
    refs = weakref.ref(A), weakref.ref(p)
    del A, p
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_one_operator_runs_the_ladder_once_per_trace(monkeypatch):
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    T = mean_difference_matrix(p)
    traces = counted_ladder(monkeypatch)
    reports = ([classify_map(p, T, source, target) for source, target in sorted(REQUIRED_CONDITIONS)],
               [chi_norm(p, T, target) for target in SPACES], operator_norm(p, T))
    assert traces and len(traces) == len({id(trace) for trace in traces})
    # every row-statistic trace of the associate is read, and read once
    assoc = transformed_rows(p, T)
    assert set(assoc.readings) == set(map(id, (assoc.row_sums, assoc.row_abs_sums,
                                               assoc.row_sum_magnitudes, assoc.shifted_abs_sums)))
    assert sum(trace is assoc.row_abs_sums for trace in traces) == 1

    def fresh():
        return MatrixWindow(T.rows, "structural", T.row_fn, T.capacity)

    # the readings kept change no estimate: a fresh window per call reads the same
    assert reports == ([classify_map(p, fresh(), source, target)
                        for source, target in sorted(REQUIRED_CONDITIONS)],
                       [chi_norm(p, fresh(), target) for target in SPACES],
                       operator_norm(p, fresh()))


def test_repeated_conditions_keep_nothing_more_on_the_window():
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    T = mean_difference_matrix(p)
    first = eval_condition("4.24", T, p)
    assoc = transformed_rows(p, T)
    held = len(vars(T)), len(vars(assoc)), dict(assoc.readings)
    for _ in range(3):
        assert eval_condition("4.24", T, p) == first
        # a trace the caller builds is read afresh, never kept
        caller = tuple(map(abs, assoc.row_sums))
        assert limits.sup_of_rows(assoc, caller).value == first.value
    assert (len(vars(T)), len(vars(assoc)), dict(assoc.readings)) == held
    assert set(assoc.readings) == {id(assoc.row_sum_magnitudes)}


def test_readings_die_with_their_window():
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    T = mean_difference_matrix(p)
    _analysis(p, T)
    assoc = transformed_rows(p, T)
    assert assoc.readings
    refs = weakref.ref(T), weakref.ref(assoc), weakref.ref(p)
    del T, assoc, p
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def _analysed_windows(backend):
    """The windows one analysis on ``backend`` builds: W and T, classified and
    gauged, with their associates; a caller's zero-tail window and its
    associate; a supplied structural associate with a generator, gauged; the
    identity; the alpha, gamma and tail-sum triangles."""
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1, backend=backend)
    one = backend.one

    def row(n):
        return (one / 2 ** n, one - one / 2 ** n)

    a = SequenceWindow((one, -one / 3, one / 4) + (0 * one,) * 3, "zero")
    sources = [weighted_mean_matrix(p), mean_difference_matrix(p),
               MatrixWindow(((one, 0 * one, -one / 2), (), (one / 4,)), "zero")]
    for source in sources:
        _analysis(p, source)
    supplied = supplied_associate(MatrixWindow(tuple(map(row, range(4))), "structural", row))
    for target in SPACES:
        chi_norm(p, supplied, target), compactness_verdict(p, supplied, target)
    operator_norm(p, supplied)
    return (sources + [transformed_rows(p, source) for source in sources]
            + [supplied.window, identity(6, backend), alpha_dual_matrix(p, a),
               gamma_dual_matrix(p, a), tail_sum_matrix(p, a)])


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT64], ids=["rational", "f64"])
def test_windows_are_freed_without_the_garbage_collector(backend):
    # no window, nor a view or generator it holds, refers back to a window that
    # holds it: reference counts alone free every one
    gc.collect()
    gc.disable()
    try:
        refs = [weakref.ref(window) for window in _analysed_windows(backend)]
        assert len(refs) == 11 and [ref() for ref in refs] == [None] * 11
    finally:
        gc.enable()


def test_f64_triple_extends_a_rational_source_only_as_far_as_its_twin():
    # the kernel runs on the exact twin, whose capacity is the truncation order,
    # not the length of the stored float windows
    spec = PresetSpec("euler", alpha=F(1, 2))
    T = mean_difference_matrix(preset(spec, 6, m=1))
    q = preset(spec, 6, m=1, backend=FLOAT64)
    assert transformed_rows(q, T).capacity == 6
    notes = {target: chi_norm(q, T, target).note for target in SPACES}
    stored = "structural tail not extendable past the stored rows"
    assert notes == {"c0": stored, "c": "per-column limits unresolved", "l_inf": stored}
    assert {chi_norm(q, T, target).status for target in SPACES} == {"indeterminate"}
    assert classify_map(q, T, "c", "c").overall.status == "indeterminate"


def test_associate_keeps_every_stored_row_past_the_twin_capacity():
    # eight stored rows of support 1, a window capacity of 5: the generator
    # stops, the stored rows stay
    def row(n):
        return (F(n + 1),)

    A = MatrixWindow(tuple(map(row, range(8))), "structural", row, capacity=5)
    assert A.extended == A.rows and len(A.row_abs_sums) == 8
    # the f64 kernel runs on the exact twin, of capacity 5: the associate maps
    # all eight stored rows, and its observed sup is its last row's
    q = preset(PresetSpec("euler", alpha=F(1, 2)), 5, m=1, backend=FLOAT64)
    assoc = transformed_rows(q, MatrixWindow(A.rows, "structural", row))
    assert len(assoc.extended) == assoc.capacity == 8
    est = limits.sup_of_rows(assoc, assoc.row_abs_sums)
    assert est.status == "indeterminate" and est.value == assoc.row_abs_sums[7] > 0
    assert est.note == "structural tail not extendable past the stored rows"


def dense_column_limits(window):
    """(values, status, trend) of the column limits read entry by entry: each
    column's trace through ``column_value`` over every extended row."""
    rows = window.extended
    readings = [limits.analyze_tail(tuple(limits.column_value(row, k) for row in rows))
                for k in range(window.width)]
    statuses, trends, values = zip(*readings)
    status = "indeterminate" if "indeterminate" in statuses else "trend-converged"
    return values, status, trends[0] if len(set(trends)) == 1 else "oscillating"


@given(st.data())
def test_column_limits_scatter_the_row_spans(data):
    # columns that stay zero, settle, decay, start late (as the identity's do)
    # or stop early, in rows as long as the stored width or longer, with int,
    # Fraction or float zeros: the spans scattered into the column traces give
    # the limits the traces read entry by entry give
    width = data.draw(st.integers(min_value=1, max_value=5))
    kinds = data.draw(st.lists(st.sampled_from(("zero", "constant", "geometric", "late",
                                                "early")), min_size=width, max_size=width))
    zero = data.draw(st.sampled_from((0, F(0), 0.0)))
    convert = float if isinstance(zero, float) else F
    c = [data.draw(nonzero_fractions) for _ in kinds]
    q = data.draw(st.sampled_from((F(1, 2), F(-1, 3), F(3, 2))))

    def entry(n, k):
        nonzero = {"zero": False, "late": n >= k + 2, "early": n < k + 2}.get(kinds[k], True)
        return convert(c[k] * q ** n if kinds[k] == "geometric" else c[k]) if nonzero else zero

    def row_fn(n):
        return tuple(entry(n, k) for k in range(min(width, n + 1)))

    stored = data.draw(st.integers(min_value=3, max_value=6))
    window = MatrixWindow(tuple(map(row_fn, range(stored))), "structural", row_fn)
    est = window.columns
    assert (est.value, est.status, est.trend) == dense_column_limits(window)


def test_associate_forms_end_at_the_source_support():
    # the associate's form of R(a) is its support span, which ends at the
    # support of a; the associate rows keep the width of their source rows,
    # every entry a Fraction, and the zero tail extends the four stored rows by
    # twelve empty ones
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 4, m=1)
    A = MatrixWindow(((F(1), F(2), F(0), F(0)), (0, F(1, 3)), (), (F(0),) * 3), "zero")
    assoc = transformed_rows(p, A)
    assert [(form[0], len(form[1])) for form in assoc.integer_rows] == (
        [(0, 2), (1, 1)] + [(0, 0)] * 14)
    for source, row, (start, ints, den) in zip(A.rows, assoc.rows, assoc.integer_rows):
        assert row == (0,) * start + tuple(F(v, den) for v in ints) + (0,) * (
            len(source) - start - len(ints))
        assert den > 0 and all(type(v) is F for v in row)


@pytest.mark.xfail(
    strict=True,
    reason="column limits cover only the stored width: a column past it is taken "
           "as alpha_k = 0 in the shifted trace, so rows that reach past the "
           "stored width read a limit 2^-15 that is really 0")
def test_column_limits_past_the_stored_width():
    # a_nk = 2^-k for k <= n: sum_{k>n} 2^-k = 2^-n -> 0, so 4.10 holds and the
    # supplied associate is compact into c; a decisive status must say so
    def row(n):
        return tuple(F(1, 2 ** k) for k in range(n + 1))

    W = MatrixWindow(tuple(map(row, range(16))), "structural", row)
    assert condition_verdict("4.10", eval_condition("4.10", W)).status != "violated"
    assert chi_norm(None, supplied_associate(W), "c").verdict().status != "violated"


def test_columns_past_no_stored_row_decide_nothing():
    # with no stored rows the stored width is 0: column 1 tends to -1, so 4.7
    # does not hold, and the window reads no column limit at all
    def row(n):
        return (F(1, 2) if n == 0 else 0, -1)

    W = MatrixWindow((), "structural", row)
    for cond in ("4.7", "4.9", "4.10"):
        est = eval_condition(cond, W)
        assert (est.status, est.value) == ("indeterminate", None)
        assert condition_verdict(cond, est).status == "indeterminate"
    assert W.columns.note.startswith("no stored columns")
    assert chi_norm(None, supplied_associate(W), "c").verdict().status == "indeterminate"


def test_classifying_generated_triangles_makes_no_fraction_row(monkeypatch):
    # W and T hold their rows' integer forms: the nine classifications of each
    # read the forms and map them to the associate's, making no row's values;
    # they report as windows of the same Fraction rows do
    made = []
    form_values = triangle.form_values

    def counting_form_values(*args, **kwargs):
        made.append(args)
        return form_values(*args, **kwargs)

    monkeypatch.setattr(triangle, "form_values", counting_form_values)
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 6, m=1)
    for matrix in (weighted_mean_matrix(p), mean_difference_matrix(p)):
        reports = [classify_map(p, matrix, source, target)
                   for source, target in sorted(REQUIRED_CONDITIONS)]
        assoc = transformed_rows(p, matrix)
        assert made == []
        for window in (matrix, assoc):
            assert not {"rows", "extended"} & set(vars(window))
        given = MatrixWindow(matrix.rows, "structural", matrix.row_fn, matrix.capacity)
        assert reports == [classify_map(p, given, source, target)
                           for source, target in sorted(REQUIRED_CONDITIONS)]
        made.clear()


def test_structural_identity_violates_null_target():
    # associate rows stay at absolute sum 1, so they cannot vanish
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 8, m=1)
    T = mean_difference_matrix(p)
    report = classify_map(p, T, "l_inf", "c0")
    assert report.verdicts["4.18"].status == "violated"
    assert report.overall.status == "violated"


def test_unknown_tail_forces_indeterminate_overall():
    p = identity_triple(4)
    A = MatrixWindow(((F(1), F(0), F(0), F(0)),), "unknown")
    report = classify_map(p, A, "c0", "c0")
    assert report.overall.status == "indeterminate"


def test_shifted_membership_reading_is_recorded():
    p = identity_triple(6)
    A = finite_rank(3, 6)
    report = classify_map(p, A, "c", "c0")
    assert report.notes and "gamma_n" in report.notes[0]


def test_required_condition_sets_cover_nine_pairs():
    assert set(REQUIRED_CONDITIONS) == {(s, t) for s in SPACES for t in SPACES}
