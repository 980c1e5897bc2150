from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genmeans import (
    DimensionError,
    FLOAT64,
    MatrixWindow,
    PresetSpec,
    RATIONAL,
    SequenceWindow,
    TailError,
    TriangleMatrix,
    alpha_dual_matrix,
    apply,
    associate_row,
    basis_vector,
    dual_membership,
    gamma_dual_matrix,
    identity_triple,
    inverse_transform,
    mean_difference_matrix,
    preset,
    reconstruct,
    tail_sum_matrix,
    transform,
    unit_sequence,
)
from genmeans import operators
from genmeans.conditions import transformed_rows
from genmeans.duality import associate_window
from genmeans.limits import integer_row
from genmeans.operators import _InverseKernel, exact_twin
from genmeans.selfcheck import (
    associate_row_closed,
    binom,
    gamma_dual_closed,
    invert_triangle,
    mean_difference_inverse,
    tail_sum_closed,
)
from genmeans.triangle import support_of

from conftest import (
    dyadic_floats,
    f64_triples,
    no_shrink,
    parameter_triples,
    small_fractions,
    zero_tail_windows,
)


def euler_triple(order=6, m=1, alpha=F(1, 2)):
    return preset(PresetSpec("euler", alpha=alpha), order, m=m)


# --- basis ----------------------------------------------------------------

def test_basis_identity_preset_gives_coordinates():
    p = identity_triple(4, m=0)
    for j in range(4):
        assert basis_vector(p, j).values == unit_sequence(4, j, RATIONAL).values


@given(parameter_triples(order=6))
def test_basis_vectors_transform_to_coordinates(p):
    for j in range(6):
        y = transform(p, basis_vector(p, j))
        assert y.values == unit_sequence(6, j, RATIONAL).values


@given(parameter_triples(order=6))
def test_basis_minus_one_transforms_to_ones(p):
    y = transform(p, basis_vector(p, -1))
    assert y.values == (F(1),) * 6


def test_basis_uv_two_term_display():
    u = (F(2), F(3), F(-1), F(1, 2)) * 4
    v = (F(1), F(-2), F(4), F(3)) * 4
    p = preset(PresetSpec("uv", u=u, v=v), 4, m=2)
    for j in range(4):
        b = basis_vector(p, j)
        for n in range(4):
            if j > n:
                assert b.values[n] == 0
                continue
            expected = sum(
                (-1) ** ((k - j) % 2) * binom(2 + n - k - 1, n - k) / (u[j] * v[k])
                for k in (j, j + 1) if k <= n)
            assert b.values[n] == expected


def test_basis_index_out_of_range():
    p = identity_triple(4)
    with pytest.raises(DimensionError):
        basis_vector(p, 4)
    with pytest.raises(DimensionError):
        basis_vector(p, -2)


# --- reconstruction ---------------------------------------------------------

@given(parameter_triples(order=6), st.data())
def test_full_reconstruction_is_exact(p, data):
    x = SequenceWindow(tuple(data.draw(small_fractions) for _ in range(6)))
    for space in ("c0", "c"):
        rec = reconstruct(p, x, 5, space)
        assert rec.residual.value == 0
        assert rec.partial.values == x.values


def test_reconstruct_single_basis_vector():
    p = euler_triple(8)
    b5 = basis_vector(p, 5)
    rec = reconstruct(p, b5, 5, "c0")
    assert rec.residual.value == 0


def test_reconstruct_identity_preset_coordinate():
    p = identity_triple(4, m=0)
    e0 = unit_sequence(4, 0, RATIONAL)
    rec = reconstruct(p, e0, 0, "c0")
    assert rec.partial.values == e0.values


def test_reconstruct_flags_limit_proxy():
    p = euler_triple(6)
    x = SequenceWindow(tuple(F(1) for _ in range(6)))
    rec = reconstruct(p, x, 3, "c")
    assert rec.limit_is_proxy
    y = transform(p, x)
    assert rec.limit_proxy == y[5]


def test_reconstruct_rejects_full_order():
    p = euler_triple(4)
    with pytest.raises(DimensionError):
        reconstruct(p, SequenceWindow((F(1),) * 4), 4, "c0")


@pytest.mark.parametrize("partial_order", [-1, -2])
@pytest.mark.parametrize("build", [
    lambda p, x, n: reconstruct(p, x, n, "c0"),
    lambda p, x, n: gamma_dual_matrix(p, SequenceWindow(x.values, "zero"), n),
], ids=["reconstruct", "gamma_dual_matrix"])
def test_negative_partial_order_is_rejected(build, partial_order):
    p = euler_triple(4)
    with pytest.raises(DimensionError, match=f"partial-sum order {partial_order} "):
        build(p, SequenceWindow((F(1),) * 4), partial_order)


# --- associate rows and tail sums --------------------------------------------

def test_associate_row_of_first_coordinate():
    p = euler_triple(6)
    a = unit_sequence(6, 0, RATIONAL)
    R = associate_row(p, a)
    assert R[0] == p.r[0] / (p.s[0] * p.t[0])
    assert all(R[k] == 0 for k in range(1, 6))


def test_associate_row_identity_preset_is_input():
    p = identity_triple(6, m=0)
    a = SequenceWindow((F(1), F(-2), F(3), F(0), F(0), F(0)), "zero")
    assert associate_row(p, a).values == a.values


def test_associate_row_of_zero():
    p = euler_triple(5)
    a = SequenceWindow((F(0),) * 5, "zero")
    assert associate_row(p, a).values == (F(0),) * 5


def test_associate_row_rejects_unknown_tail():
    p = euler_triple(5)
    with pytest.raises(TailError):
        associate_row(p, SequenceWindow((F(1),) * 5))


@given(parameter_triples(order=8), zero_tail_windows(order=8))
def test_associate_row_equals_inverse_columns(p, a):
    # definitional route: row of a against the inverse columns
    S = mean_difference_inverse(p)
    R = associate_row(p, a)
    for k in range(8):
        assert R[k] == sum(a[j] * S.entry(j, k) for j in range(k, 8))


@pytest.mark.parametrize("m", range(4))
@no_shrink
@given(p=parameter_triples(order=3), length=st.integers(min_value=1, max_value=12),
       data=st.data())
def test_defining_sums_equal_closed_form_oracles(m, p, length, data):
    # rows longer than the order reach into the capacity window, as the rows
    # that structural extension generates do
    p = replace(p, m=m)
    a = data.draw(zero_tail_windows(order=length))
    assert list(associate_row(p, a).values) == associate_row_closed(p, a, length)
    assert list(tail_sum_matrix(p, a).rows) == tail_sum_closed(p, a, length)
    L = min(length, p.order)
    assert list(gamma_dual_matrix(p, a, L).rows) == gamma_dual_closed(p, a, L)


@pytest.mark.parametrize("m", range(4))
@no_shrink
@given(p=parameter_triples(order=4), data=st.data())
def test_substitution_kernels_match_dense_triangles(m, p, data):
    # the dense triangles are the oracles; sources reach the whole capacity
    p = replace(p, m=m)
    x = SequenceWindow(tuple(data.draw(small_fractions) for _ in range(4)))
    assert transform(p, x).values == apply(mean_difference_matrix(p), x).values
    assert inverse_transform(p, x).values == apply(mean_difference_inverse(p), x).values
    a = data.draw(zero_tail_windows(order=p.capacity))
    S = mean_difference_inverse(replace(p, order=p.capacity))
    assert associate_row(p, a).values == tuple(
        sum(a[j] * S.entry(j, k) for j in range(k, len(a))) for k in range(len(a)))


@given(parameter_triples(order=8), zero_tail_windows(order=8), st.data())
def test_duality_identity(p, a, data):
    x = SequenceWindow(tuple(data.draw(small_fractions) for _ in range(8)))
    y = transform(p, x)
    R = associate_row(p, a)
    assert sum(a[k] * x[k] for k in range(8)) == sum(R[k] * y[k] for k in range(8))


def test_tail_sum_matrix_support_below_cut_is_zero():
    p = euler_triple(6)
    a = unit_sequence(6, 1, RATIONAL)
    W = tail_sum_matrix(p, a)
    assert all(v == 0 for v in W.rows[2])


def test_tail_sum_matrix_single_support():
    p = euler_triple(6)
    a = unit_sequence(6, 2, RATIONAL)
    W = tail_sum_matrix(p, a)
    S = mean_difference_inverse(p)
    for cut in range(3):
        for k in range(cut + 1):
            assert W.entry(cut, k) == S.entry(2, k)


def test_tail_sum_matrix_of_zero():
    p = euler_triple(5)
    a = SequenceWindow((F(0),) * 5, "zero")
    W = tail_sum_matrix(p, a)
    assert all(all(v == 0 for v in row) for row in W.rows)


def test_duality_results_are_core_windows():
    p = euler_triple(6)
    a = SequenceWindow((F(1), F(-2), F(1, 3), F(0), F(0), F(0)), "zero")
    R = associate_row(p, a)
    assert type(R) is SequenceWindow and R.tail == "zero" and len(R) == 6
    b = basis_vector(p, 2)
    assert type(b) is SequenceWindow
    assert b == inverse_transform(p, unit_sequence(6, 2, RATIONAL))
    W = tail_sum_matrix(p, a)
    assert type(W) is TriangleMatrix and W.tail == "zero" and W.order == 6
    # rows past the order vanish, and apply takes the triangle as any other
    assert W.row(6) == () and len(W.extended) > 6
    assert apply(W, a).tail == "zero"
    assert apply(W, a).values == tuple(sum(w * v for w, v in zip(row, a)) for row in W.rows)


# --- the reciprocal-series kernel -------------------------------------------------

def check_kernel_against_dense_inverse(q, a):
    """The kernel's rows of T^{-1} and its associate row of a, on the exact
    twin q up to its capacity, against the dense inverse and against the
    inverse of the dense composite (which does not use c = 1/s)."""
    n = q.capacity
    full = replace(q, order=n)
    S = mean_difference_inverse(full)
    assert S.rows == invert_triangle(mean_difference_matrix(full)).rows
    kernel = _InverseKernel(q, n)
    rows, den = kernel.inverse_rows()
    assert tuple(tuple(F(v, den) for v in row) for row in rows) == S.rows
    assert len(a) == n
    ints, den = kernel.associate(integer_row(a))
    # the ints end at the support of a, where R vanishes
    assert len(ints) == support_of(a)
    assert [F(v, den) for v in ints] + [0] * (n - len(ints)) == [
        sum(a[j] * S.entry(j, k) for j in range(k, n)) for k in range(n)]


PRESET_SPECS = (
    PresetSpec("uv", u=(F(2), F(-3), F(1, 2), F(5)) * 4, v=(F(1), F(3, 2), F(-2), F(1, 3)) * 4),
    PresetSpec("euler", alpha=F(1, 3)),
    PresetSpec("aydin", alpha=F(2, 5)),
    PresetSpec("lambda", lam=tuple(F(k * k + 1) for k in range(16))),
    PresetSpec("identity"),
)


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("spec", PRESET_SPECS, ids=lambda spec: spec.name)
def test_kernel_matches_dense_inverse_on_presets(spec, m):
    p = preset(spec, 4, m=m)
    a = tuple(F((-1) ** k * (k + 1), k % 3 + 1) for k in range(p.capacity))
    check_kernel_against_dense_inverse(p, a)


@pytest.mark.parametrize("m", range(4))
@no_shrink
@given(p=parameter_triples(order=3), data=st.data())
def test_kernel_matches_dense_inverse_on_rational_triples(m, p, data):
    p = replace(p, m=m)
    a = tuple(data.draw(small_fractions) for _ in range(p.capacity - 1)) + (F(1),)
    check_kernel_against_dense_inverse(p, a)


@given(f64_triples(), st.data())
def test_kernel_runs_f64_through_the_exact_twin(p, data):
    q = exact_twin(p)[0]
    a = tuple(data.draw(dyadic_floats) for _ in range(q.capacity))
    check_kernel_against_dense_inverse(q, tuple(map(F, a)))
    ints, den = _InverseKernel(q, len(a)).associate(integer_row(tuple(map(F, a))))
    # an f64 associate row is its floats, padded with 0.0 to the source width:
    # its statistics add the floats
    values = tuple(float(F(v, den)) for v in ints) + (0.0,) * (len(a) - len(ints))
    rows = transformed_rows(p, MatrixWindow((a,))).rows
    assert rows == (values,) and all(type(v) is float for v in rows[0])


def test_kernel_support_at_and_past_the_capacity():
    p = euler_triple(3, m=2)
    n = p.capacity
    full = SequenceWindow((F(1),) * n, "zero")
    S = mean_difference_inverse(replace(p, order=n))
    assert associate_row(p, full).values == tuple(
        sum(S.entry(j, k) for j in range(k, n)) for k in range(n))
    assert tail_sum_matrix(p, full).order == n
    # zeros past the capacity are no support; a nonzero entry there is
    padded = SequenceWindow(full.values + (F(0),), "zero")
    assert associate_row(p, padded).values == associate_row(p, full).values + (0,)
    past = SequenceWindow(full.values + (F(1),), "zero")
    for fn in (associate_row, tail_sum_matrix):
        with pytest.raises(DimensionError):
            fn(p, past)
    with pytest.raises(DimensionError):
        associate_window(p, MatrixWindow((past.values,)))
    with pytest.raises(DimensionError):
        _InverseKernel(p, n + 1)


def test_tail_sum_rows_make_one_toeplitz_solve(monkeypatch):
    solves = []
    solve = operators._toeplitz_solve

    def counting_solve(*args):
        solves.append(len(args[1]))
        return solve(*args)

    monkeypatch.setattr(operators, "_toeplitz_solve", counting_solve)
    p = euler_triple(8)
    for n in range(16):
        support = n % 8 + 1
        a = tuple(F(n + k + 1, k + 1) for k in range(support)) + (F(0),) * (8 - support)
        solves.clear()
        tail_sum_matrix(p, SequenceWindow(a, "zero"))
        assert solves == [support]


# --- dual matrices -------------------------------------------------------------

def test_alpha_dual_identity_preset_is_diagonal():
    p = identity_triple(5, m=0)
    a = SequenceWindow((F(2), F(-1), F(3), F(1, 2), F(0)), "zero")
    C = alpha_dual_matrix(p, a)
    for n in range(5):
        for j in range(n + 1):
            assert C.entry(n, j) == (a[n] if n == j else 0)


def test_alpha_dual_of_zero_sequence():
    p = euler_triple(4)
    C = alpha_dual_matrix(p, SequenceWindow((F(0),) * 4, "zero"))
    assert all(all(v == 0 for v in row) for row in C.rows)


@given(parameter_triples(order=8), zero_tail_windows(order=8), st.data())
def test_alpha_dual_identity(p, a, data):
    x = SequenceWindow(tuple(data.draw(small_fractions) for _ in range(8)))
    y = transform(p, x)
    Cy = apply(alpha_dual_matrix(p, a), y)
    for n in range(8):
        assert Cy[n] == a[n] * x[n]


def test_gamma_dual_identity_preset_first_coordinate():
    p = identity_triple(5, m=0)
    a = unit_sequence(5, 0, RATIONAL)
    E = gamma_dual_matrix(p, a)
    x = SequenceWindow((F(3), F(1), F(-2), F(5), F(0)))
    y = transform(p, x)
    Ey = apply(E, y)
    for l in range(5):
        assert Ey[l] == a[0] * x[0]


def test_gamma_dual_of_zero():
    p = euler_triple(4)
    E = gamma_dual_matrix(p, SequenceWindow((F(0),) * 4, "zero"))
    assert all(all(v == 0 for v in row) for row in E.rows)


@given(parameter_triples(order=8), zero_tail_windows(order=8), st.data())
def test_gamma_dual_partial_sum_identity(p, a, data):
    x = SequenceWindow(tuple(data.draw(small_fractions) for _ in range(8)))
    y = transform(p, x)
    Ey = apply(gamma_dual_matrix(p, a), y)
    for l in range(8):
        assert Ey[l] == sum(a[n] * x[n] for n in range(l + 1))


# --- membership ------------------------------------------------------------------

@given(parameter_triples(order=6), zero_tail_windows(order=6))
def test_beta_membership_satisfied_for_zero_tails(p, a):
    for space in ("c0", "c", "l_inf"):
        verdict = dual_membership(p, a, "beta", space)
        assert verdict.status == "satisfied"


def test_membership_of_zero_sequence_everywhere():
    p = euler_triple(5)
    zero = SequenceWindow((F(0),) * 5, "zero")
    for dual in ("alpha", "beta", "gamma"):
        assert dual_membership(p, zero, dual, "c0").status == "satisfied"


def test_gamma_membership_single_coordinate_trace():
    p = identity_triple(6, m=0)
    a = unit_sequence(6, 3, RATIONAL)
    verdict = dual_membership(p, a, "gamma", "c0")
    assert verdict.status == "satisfied"
    assert "vanishes from index 4" in verdict.detail


def test_membership_indeterminate_without_zero_tail():
    p = euler_triple(5)
    verdict = dual_membership(p, SequenceWindow((F(1),) * 5), "beta", "c0")
    assert verdict.status == "indeterminate"


def test_membership_makes_one_toeplitz_solve(monkeypatch):
    solves = []
    solve = operators._toeplitz_solve

    def counting_solve(*args):
        solves.append(len(args[1]))
        return solve(*args)

    monkeypatch.setattr(operators, "_toeplitz_solve", counting_solve)
    for backend in (RATIONAL, FLOAT64):
        p = preset(PresetSpec("euler", alpha=backend.convert(F(1, 2))), 8, m=1, backend=backend)
        a = SequenceWindow(tuple(backend.convert(F(k + 1, 3)) for k in range(5))
                           + (backend.zero,) * 3, "zero")
        # a zero tail is the certificate: membership solves nothing
        for dual in ("alpha", "beta", "gamma"):
            for space in ("c0", "c", "l_inf"):
                solves.clear()
                verdict = dual_membership(p, a, dual, space)
                assert solves == []
                assert verdict.status == "satisfied" and verdict.evidence is None
        # the dual matrices read one kernel each
        for fn in (alpha_dual_matrix, gamma_dual_matrix, tail_sum_matrix):
            solves.clear()
            fn(p, a)
            assert solves == [5], (backend.mode, fn.__name__)


def test_membership_of_a_wide_support_builds_no_kernel(monkeypatch):
    # twelve nonzero entries once meant a search over 4,095 column subsets
    def no_kernel(*args):
        raise AssertionError("dual_membership built an inverse kernel")

    monkeypatch.setattr(_InverseKernel, "__init__", no_kernel)
    p = euler_triple(16, alpha=F(1, 3))
    a = SequenceWindow(tuple(F((-1) ** k * (k + 2), k + 1) for k in range(12))
                       + (F(0),) * 4, "zero")
    for dual in ("alpha", "beta", "gamma"):
        for space in ("c0", "c", "l_inf"):
            verdict = dual_membership(p, a, dual, space)
            assert verdict.status == "satisfied" and verdict.evidence is None
            assert "vanishes from index 12" in verdict.detail


def test_membership_input_length_is_the_order():
    p = euler_triple(5)
    for dual in ("alpha", "beta", "gamma"):
        with pytest.raises(DimensionError):
            dual_membership(p, SequenceWindow((F(1),) + (F(0),) * 5, "zero"), dual)
        # the tail check comes first: an undeclared tail is indeterminate at any length
        assert dual_membership(p, SequenceWindow((F(1),) * 6), dual).status == "indeterminate"


# --- float boundary ---------------------------------------------------------

def _rows(matrix):
    return tuple(v for row in matrix.rows for v in row)


def _reconstruction(rec):
    proxy = () if rec.limit_proxy is None else (rec.limit_proxy,)
    return rec.partial.values + (rec.residual.value,) + rec.coefficients + proxy


@given(f64_triples(), st.data())
def test_float_results_are_the_exact_twin_rounded_once(p, data):
    n = p.order
    # windows draw exact zeros too: each must round to 0.0, never -0.0
    values = st.one_of(st.just(0.0), dyadic_floats)
    x = SequenceWindow(tuple(data.draw(values) for _ in range(n)))
    support = data.draw(st.integers(min_value=1, max_value=n))
    a = SequenceWindow(tuple(data.draw(values) for _ in range(support))
                       + (0.0,) * (n - support), "zero")
    calls = [(transform, (x,), lambda y: y.values),
             (inverse_transform, (x,), lambda y: y.values),
             (associate_row, (a,), lambda R: R.values),
             (tail_sum_matrix, (a,), _rows),
             (alpha_dual_matrix, (a,), _rows),
             (gamma_dual_matrix, (a,), _rows)]
    calls += [(transformed_rows, (MatrixWindow((a.values,), "zero"),), _rows)]
    calls += [(basis_vector, (j,), lambda b: b.values) for j in range(-1, n)]
    calls += [(reconstruct, (x, order, space), _reconstruction)
              for order in range(n) for space in ("c0", "c")]

    def lift(arg):
        if isinstance(arg, SequenceWindow):
            return SequenceWindow(tuple(F(v) for v in arg.values), arg.tail)
        if isinstance(arg, MatrixWindow):
            return MatrixWindow([tuple(map(F, row)) for row in arg.rows], arg.row_tail)
        return arg

    q = exact_twin(p)[0]
    for fn, args, scalars in calls:
        got = scalars(fn(p, *args))
        exact = scalars(fn(q, *map(lift, args)))
        assert all(isinstance(v, float) for v in got), fn.__name__
        # reprs, since -0.0 == 0.0
        assert list(map(repr, got)) == [repr(float(v)) for v in exact], fn.__name__
