from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmeans import (
    FLOAT64,
    InconsistencyError,
    MatrixWindow,
    PresetSpec,
    SequenceWindow,
    apply,
    associate_matrix,
    associate_row,
    chi_norm,
    classify_map,
    compactness_verdict,
    identity,
    identity_triple,
    mean_difference_matrix,
    operator_norm,
    preset,
    supplied_associate,
    transform,
)

from genmeans import limits, operators, scalars
from genmeans.selfcheck import linf_source_autocompact_check

from conftest import counted_ladder, parameter_triples, small_fractions, zero_tail_windows


def euler_triple(order=8, m=1, alpha=F(1, 2)):
    return preset(PresetSpec("euler", alpha=alpha), order, m=m)


def finite_rank(width):
    rows = (
        tuple(F(1, i + 1) for i in range(width)),
        (F(2),) + (F(0),) * (width - 1),
        tuple(F((-1) ** i) for i in range(width)),
    )
    return MatrixWindow(rows, "zero")


def counted_solves(monkeypatch):
    """The length of every ``operators._toeplitz_solve`` made from now on."""
    solves = []
    solve = operators._toeplitz_solve

    def counting_solve(*args):
        solves.append(len(args[1]))
        return solve(*args)

    monkeypatch.setattr(operators, "_toeplitz_solve", counting_solve)
    return solves


def identity_associate(order):
    return supplied_associate(identity(order))


def decaying_associate(order):
    def row(n):
        return (F(1, n + 1),)
    return supplied_associate(
        MatrixWindow(tuple(row(n) for n in range(order)), "structural", row))


# --- associate matrices -------------------------------------------------------

@given(parameter_triples(order=6))
def test_associate_of_composite_is_identity(p):
    T = mean_difference_matrix(p)
    assoc = associate_matrix(p, T)
    for n in range(6):
        for k in range(6):
            assert assoc.window.entry(n, k) == (1 if n == k else 0)


def test_associate_of_zero_matrix():
    p = euler_triple(4)
    assoc = associate_matrix(p, MatrixWindow(((F(0),) * 4,), "zero"))
    assert all(v == 0 for v in assoc.window.rows[0])


def test_associate_identity_preset_reproduces_input():
    p = identity_triple(5, m=0)
    A = finite_rank(5)
    assert associate_matrix(p, A).window.rows == A.rows


@given(parameter_triples(order=8), st.data())
def test_fundamental_identity(p, data):
    rows = tuple(
        tuple(data.draw(small_fractions) for _ in range(8)) for _ in range(4))
    A = MatrixWindow(rows, "zero")
    x = SequenceWindow(tuple(data.draw(small_fractions) for _ in range(8)))
    y = transform(p, x)
    assert apply(A, x).values == apply(associate_matrix(p, A).window, y).values


# --- operator norm --------------------------------------------------------------

def test_operator_norm_of_identity_associate():
    p = identity_triple(6)
    est = operator_norm(p, identity_associate(6))
    assert est.value == 1


def test_operator_norm_of_zero():
    p = identity_triple(4)
    est = operator_norm(p, supplied_associate(MatrixWindow(((F(0),),), "zero")))
    assert est.value == 0 and est.status == "exact"


def test_operator_norm_of_composite_is_one():
    p = euler_triple(6)
    est = operator_norm(p, mean_difference_matrix(p))
    assert est.value == 1


@given(parameter_triples(order=6))
def test_operator_norm_matches_rowwise_associate_norms(p):
    A = finite_rank(6)
    est = operator_norm(p, A)
    rowwise = max(
        sum(abs(v) for v in associate_row(p, SequenceWindow(row, "zero")).values)
        for row in A.rows)
    assert est.value == max(rowwise, 0)


# --- chi estimates ---------------------------------------------------------------

def test_finite_rank_chi_is_zero_for_all_targets():
    p = euler_triple(6)
    A = finite_rank(6)
    for target in ("c0", "c", "l_inf"):
        est = chi_norm(p, A, target)
        assert est.lower == 0 and est.upper == 0
        assert est.status == "exact"
        assert compactness_verdict(p, A, target).status == "satisfied"


def test_identity_associate_chi_null_target():
    p = identity_triple(8)
    est = chi_norm(p, identity_associate(8), "c0")
    assert est.lower == 1 and est.upper == 1
    assert est.status == "trend-converged"


def test_identity_associate_chi_convergent_target():
    p = identity_triple(8)
    est = chi_norm(p, identity_associate(8), "c")
    assert est.lower == F(1, 2) and est.upper == 1
    assert all(v == 0 for v in est.alpha_tilde)


def test_identity_associate_chi_bounded_target():
    p = identity_triple(8)
    est = chi_norm(p, identity_associate(8), "l_inf")
    assert est.lower == 0 and est.upper == 1


def test_identity_associate_not_compact():
    p = identity_triple(8)
    verdict = compactness_verdict(p, identity_associate(8), "c0")
    assert verdict.status == "violated"


def test_decaying_rows_are_compact():
    p = identity_triple(16)
    verdict = compactness_verdict(p, decaying_associate(16), "c0")
    assert verdict.status == "satisfied"
    est = chi_norm(p, decaying_associate(16), "c0")
    assert est.status == "trend-converged" and est.trend == "decaying"


@pytest.mark.parametrize("rows", [6, 8, 10, 12, 16])
@pytest.mark.parametrize("target", ["c0", "c", "l_inf"])
def test_geometric_rows_are_never_decisively_non_compact(target, rows):
    # rows (2^-n,) define a compact operator: a converged trace's limsup is
    # the ladder's limit, not the windowed maximum of the trace
    def row(n):
        return (F(1, 2 ** n),)
    A = supplied_associate(MatrixWindow(tuple(row(n) for n in range(rows)), "structural", row))
    p = euler_triple(4)
    assert compactness_verdict(p, A, target).status != "violated"
    est = chi_norm(p, A, target)
    assert est.status == "trend-converged" and abs(float(est.upper)) <= 1e-10


def test_bounded_target_nonzero_limit_is_not_decisive():
    # the gauge into l_inf is only bracketed by [0, L]: rank-one rows (1,) are
    # compact although lim |R_n| = 1, so a nonzero limit cannot give "violated"
    def row(n):
        return (F(1),)
    rank_one = supplied_associate(MatrixWindow(tuple(row(n) for n in range(16)),
                                               "structural", row))
    p = euler_triple(4)
    verdict = compactness_verdict(p, rank_one, "l_inf")
    assert verdict.status == "indeterminate" and "[0, 1]" in verdict.detail
    assert compactness_verdict(p, rank_one, "c").status == "satisfied"
    assert compactness_verdict(p, rank_one, "c0").status == "violated"
    # null and convergent targets keep their decisive "not compact"
    eye = identity_associate(16)
    assert compactness_verdict(p, eye, "c0").status == "violated"
    assert compactness_verdict(p, eye, "c").status == "violated"
    assert compactness_verdict(p, eye, "l_inf").status == "indeterminate"
    assert compactness_verdict(p, finite_rank(6), "l_inf").status == "satisfied"


# rows f(n) e_0 (or the identity) on structural tails, one per kind of trace
STRUCTURAL_ASSOCIATES = {
    "q^n": lambda n: (F(1, 2 ** n),),
    "1": lambda n: (F(1),),
    "2^n": lambda n: (F(2 ** n),),
    "1/(n+1)": lambda n: (F(1, n + 1),),
    "identity": lambda n: (F(0),) * n + (F(1),),
}


@pytest.mark.parametrize("name", list(STRUCTURAL_ASSOCIATES))
@pytest.mark.parametrize("target", ["c0", "c", "l_inf"])
def test_compactness_verdict_is_read_off_chi(target, name):
    # indeterminate chi: indeterminate; vanishing upper end L: compact;
    # nonzero L: not compact into c0 or c, undecided into l_inf ([0, L])
    row = STRUCTURAL_ASSOCIATES[name]
    A = supplied_associate(MatrixWindow(tuple(row(n) for n in range(16)), "structural", row))
    p = euler_triple(4)
    chi = chi_norm(p, A, target)
    verdict = compactness_verdict(p, A, target)
    assert verdict.evidence is None
    if chi.status == "indeterminate":
        expected = "indeterminate"
    elif abs(float(chi.upper)) <= scalars.TOLERANCE:
        expected = "satisfied"
    else:
        expected = "indeterminate" if target == "l_inf" else "violated"
    assert verdict.status == expected


def test_gauges_on_one_associate_generate_each_row_once():
    generated = Counter()

    def row(n):
        generated[n] += 1
        return (F(1, n + 1), F(n, n + 1))

    A = supplied_associate(MatrixWindow(tuple(row(n) for n in range(8)), "structural", row))
    generated.clear()
    p = euler_triple(4)
    for target in ("c0", "c", "l_inf"):
        chi_norm(p, A, target)
        compactness_verdict(p, A, target)
    operator_norm(p, A)
    assert sorted(generated) == list(range(8, 32))
    assert set(generated.values()) == {1}


def test_gauges_on_one_associate_sum_each_row_once(monkeypatch):
    scaled, shifted = [], []
    integer_row, row_statistic = limits.integer_row, limits.row_statistic

    def counting_integer_row(row):
        scaled.append(row)
        return integer_row(row)

    def counting_row_statistic(form, absolute=False, shift=None):
        if shift is not None:
            shifted.append(form)
        return row_statistic(form, absolute, shift)

    # a window of caller rows brings each extended row over one denominator
    # through limits.integer_row, the stored ones as it is built, and every row
    # statistic, the column-shifted trace included, reads that form alone
    # through limits.row_statistic
    monkeypatch.setattr(limits, "integer_row", counting_integer_row)
    monkeypatch.setattr(limits, "row_statistic", counting_row_statistic)
    eye = identity(8)
    A = supplied_associate(MatrixWindow(eye.rows, "structural", eye.row_fn))
    p = euler_triple(4)
    operator_norm(p, A)
    chi_norm(p, A, "c0")
    compactness_verdict(p, A, "c0")
    assert scaled == list(A.window.extended) and len(scaled) == 32
    chi = chi_norm(p, A, "c")
    verdict = compactness_verdict(p, A, "c")
    # the column limits are scaled once per window; no row is scaled again
    assert scaled == list(A.window.extended) + [chi.alpha_tilde]
    assert shifted == list(A.window.integer_rows) and len(shifted) == 32
    assert chi.status == "trend-converged"
    assert verdict.detail == f"not compact ({chi.status}): limit {chi.upper} is nonzero"
    # the shifted trace belongs to the window: another parameter set on the
    # same associate scales no row and sums no row again
    assert chi_norm(preset(PresetSpec("aydin", alpha=F(1, 3)), 6, m=2), A, "c") == chi
    assert len(shifted) == 32 and len(scaled) == 33
    # the program's identity holds its forms: it scales only its column limits,
    # reads the forms it holds and makes no Fraction row
    program = supplied_associate(identity(8))
    shifted.clear()
    assert chi_norm(p, program, "c") == chi and operator_norm(p, program) == operator_norm(p, A)
    assert len(scaled) == 34 and shifted == list(program.window.integer_rows)
    assert "rows" not in vars(program.window) and "extended" not in vars(program.window)


def test_gauges_on_one_associate_run_the_ladder_once_per_trace(monkeypatch):
    def row(n):
        return (F(1, 2 ** n), 1 - F(1, 2 ** n))

    traces = counted_ladder(monkeypatch)
    A = supplied_associate(MatrixWindow(tuple(row(n) for n in range(8)), "structural", row))
    p = euler_triple(4)
    gauges = [(chi_norm(p, A, target), compactness_verdict(p, A, target))
              for target in ("c0", "c", "l_inf")]
    assert operator_norm(p, A).status == "trend-converged"
    window = A.window
    assert sum(trace is window.row_abs_sums for trace in traces) == 1
    assert sum(trace is window.shifted_abs_sums for trace in traces) == 1
    assert set(window.readings) == {id(window.row_abs_sums), id(window.shifted_abs_sums)}
    # the two columns and the two traces: nothing else ran the ladder
    assert len(traces) == 4
    assert gauges[0][0].upper == gauges[2][0].upper == 1


def test_euler_structural_instances_give_trend_estimates():
    p = euler_triple(16, m=1)
    # composite operator: associate rows are coordinate vectors, trace constant 1
    T = mean_difference_matrix(p)
    est = chi_norm(p, T, "c0")
    assert est.status == "trend-converged"
    trace = [float(v) for v in est.trace]
    assert all(t2 >= t1 - 1e-12 for t1, t2 in zip(trace, trace[1:]))
    assert est.lower == 1
    # weighted-mean triangle alone: absolute row sums grow; honest indeterminate
    A = p_mean = __import__("genmeans").weighted_mean_matrix(p)
    est2 = chi_norm(p, A, "c0")
    trace2 = [float(v) for v in est2.trace]
    assert all(t2 >= t1 - 1e-12 for t1, t2 in zip(trace2, trace2[1:]))
    assert est2.trend == "diverging" and est2.status == "indeterminate"


def test_chi_invariants_hold_on_outputs():
    p = euler_triple(8)
    instances = [finite_rank(8).rows and finite_rank(8), identity_associate(8)]
    for inst in instances:
        for target in ("c0", "c", "l_inf"):
            est = chi_norm(p, inst, target)
            if est.lower is None:
                continue
            assert float(est.lower) <= float(est.upper) + 1e-12
            if target == "c0":
                assert est.lower == est.upper
            if target == "l_inf":
                assert est.lower == 0
            if target == "c" and est.upper is not None:
                assert float(est.upper) <= 2 * float(est.lower) + 1e-12


def test_appending_zero_row_never_raises_chi():
    p = euler_triple(6)
    A = finite_rank(6)
    extended = MatrixWindow(A.rows + ((F(0),) * 6,), "zero")
    for target in ("c0", "c", "l_inf"):
        before = chi_norm(p, A, target)
        after = chi_norm(p, extended, target)
        assert float(after.upper) <= float(before.upper) + 1e-12
        assert float(after.lower) <= float(before.lower) + 1e-12


# --- consistency corollary --------------------------------------------------------

def test_autocompact_on_finite_rank():
    p = euler_triple(6)
    verdict = linf_source_autocompact_check(p, finite_rank(6), "c0")
    assert verdict.status == "satisfied"
    assert verdict.detail == "consistent-compact"


@given(parameter_triples(order=6))
def test_autocompact_on_random_finite_rank(p):
    verdict = linf_source_autocompact_check(p, finite_rank(6), "c")
    assert verdict.status == "satisfied"


def test_autocompact_guard_when_membership_fails():
    # composite operator: associate rows keep absolute sum 1, membership fails
    p = euler_triple(8)
    T = mean_difference_matrix(p)
    verdict = linf_source_autocompact_check(p, T, "c0")
    assert verdict.status == "indeterminate"
    assert "not applicable" in verdict.detail


def test_autocompact_check_builds_one_associate(monkeypatch):
    solves = counted_solves(monkeypatch)
    p = euler_triple(6)
    A = MatrixWindow(((F(1), F(2)), (F(0), F(1), F(3))), "zero")
    verdict = linf_source_autocompact_check(p, A, "c0")
    assert verdict.status == "satisfied"
    # the classification and the compactness verdict read one associate
    assert solves == [3]


# --- one associate per raw matrix ---------------------------------------------------

def test_gauges_on_one_raw_matrix_build_one_associate(monkeypatch):
    p = euler_triple(6)
    T = mean_difference_matrix(p)
    solves = counted_solves(monkeypatch)
    reports = [(chi_norm(p, T, target), compactness_verdict(p, T, target))
               for target in ("c0", "c", "l_inf")]
    norm = operator_norm(p, T)
    assert solves == [24]
    assert associate_matrix(p, T).window is associate_matrix(p, T).window
    # an equal window of its own builds its own associate, to the same reports
    fresh = mean_difference_matrix(p)
    assert [(chi_norm(p, fresh, t), compactness_verdict(p, fresh, t))
            for t in ("c0", "c", "l_inf")] == reports
    assert operator_norm(p, fresh) == norm
    assert len(solves) == 2


# --- f64 range ---------------------------------------------------------------------

def test_f64_row_sums_past_the_double_range_raise():
    p = identity_triple(2, backend=FLOAT64)
    A = supplied_associate(MatrixWindow(((1e308, 1e308),), "zero"))
    # the sup of finite rows is finite: an inf is never an exact value
    with pytest.raises(OverflowError):
        operator_norm(p, A)
    for target in ("c0", "c", "l_inf"):
        with pytest.raises(OverflowError):
            chi_norm(p, A, target)
    inside = supplied_associate(MatrixWindow(((1e307, 1e307),), "zero"))
    assert operator_norm(p, inside).value == 2e307
    assert chi_norm(p, inside, "c0").upper == 0
