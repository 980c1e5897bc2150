from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmeans import (
    DimensionError,
    GuardError,
    MatrixWindow,
    ParameterError,
    RATIONAL,
    SequenceWindow,
    SingularTriangleError,
    TriangleMatrix,
    apply,
    identity,
    unit_sequence,
)
from genmeans.operators import identity_triple, mean_difference_matrix
from genmeans.selfcheck import (
    binom,
    coeff_via_determinant,
    compose,
    difference_matrix,
    invert_triangle,
    seq_add,
    seq_scale,
    toeplitz_inverse_coeffs,
)

from conftest import fraction_windows, lower_triangles, small_fractions


def ones_triangle(order):
    return TriangleMatrix(order, tuple(tuple(F(1) for _ in range(n + 1))
                                       for n in range(order)), "structural")


def test_binom_edge_cases():
    assert binom(-1, 0) == 1
    assert binom(0, 1) == 0
    assert binom(5, 2) == 10
    assert binom(2, -1) == 0


def test_compose_identity_is_neutral():
    M = difference_matrix(2, 5)
    assert compose(identity(5), M).rows == M.rows
    assert compose(M, identity(5)).rows == M.rows


def test_compose_first_differences_gives_second_differences():
    # (x_n - x_{n-1}) - (x_{n-1} - x_{n-2}) has weights 1, -2, 1
    d1 = difference_matrix(1, 5)
    d2 = compose(d1, d1)
    assert d2.rows[3] == (F(0), F(1), F(-2), F(1))
    assert d2.rows == difference_matrix(2, 5).rows


def test_compose_order_mismatch():
    with pytest.raises(DimensionError):
        compose(identity(3), identity(4))


def test_compose_tail_combination():
    z = TriangleMatrix(2, ((F(1),), (F(0), F(1))), "zero")
    s = identity(2)
    assert compose(z, z).tail == "zero"
    assert compose(s, s).tail == "structural"
    assert compose(z, s).tail == "unknown"


def test_apply_examples():
    x = SequenceWindow((F(1), F(1), F(1), F(1)))
    assert apply(identity(4), x).values == x.values
    assert apply(difference_matrix(1, 4), x).values == (F(1), F(0), F(0), F(0))
    e0 = unit_sequence(4, 0, RATIONAL)
    assert apply(ones_triangle(4), e0).values == (F(1), F(1), F(1), F(1))


def test_apply_tail_propagation():
    z = TriangleMatrix(2, ((F(1),), (F(0), F(1))), "zero")
    x = SequenceWindow((F(1), F(2)), "zero")
    assert apply(z, x).tail == "zero"
    assert apply(identity(2), x).tail == "unknown"


def test_apply_general_window():
    A = MatrixWindow(((F(1), F(2)), (), (F(0), F(0), F(3))), "zero")
    y = apply(A, SequenceWindow((F(1), F(1), F(2)), "zero"))
    assert y.values == (F(3), 0, F(6)) and y.tail == "zero"


def test_apply_dimension_errors():
    A = MatrixWindow(((F(1), F(2), F(3)),), "zero")
    with pytest.raises(DimensionError):
        apply(A, SequenceWindow((F(1), F(1)), "zero"))
    with pytest.raises(DimensionError):
        apply(identity(2), SequenceWindow((F(1), F(1), F(1)), "zero"))


def test_triangles_are_matrix_windows():
    assert isinstance(mean_difference_matrix(identity_triple(4)), MatrixWindow)


def test_invert_identity():
    assert invert_triangle(identity(4)).rows == identity(4).rows


def test_invert_first_difference_is_cumulative_sum():
    inv = invert_triangle(difference_matrix(1, 5))
    assert inv.rows == ones_triangle(5).rows
    # a structural input gives a structural inverse, without a row generator
    assert inv.tail == "structural" and inv.row_fn is None


def test_invert_singular_names_row():
    M = TriangleMatrix(3, ((F(1),), (F(1), F(0)), (F(1), F(1), F(2))))
    with pytest.raises(SingularTriangleError) as err:
        invert_triangle(M)
    assert err.value.row == 1


def test_toeplitz_coeffs_ones():
    D = toeplitz_inverse_coeffs((F(1),) * 6, 6)
    assert D == (F(1), F(1), F(0), F(0), F(0), F(0))


def test_toeplitz_coeffs_delta_sequence():
    D = toeplitz_inverse_coeffs((F(1), F(0), F(0)), 3)
    assert D == (F(1), F(0), F(0))


def test_toeplitz_coeffs_frozen_value():
    # determinant route: (s_1^2 - s_0 s_2) / s_0^3 = (1 - 6) / 8
    D = toeplitz_inverse_coeffs((F(2), F(1), F(3)), 3)
    assert D[2] == F(-5, 8)


def test_toeplitz_rejects_zero_leading_entry():
    with pytest.raises(ParameterError):
        toeplitz_inverse_coeffs((F(0), F(1)), 2)


def test_toeplitz_convolution_invariant():
    s = (F(3), F(-1), F(2), F(1, 2), F(5))
    D = toeplitz_inverse_coeffs(s, 5)
    c = [D[n] if n % 2 == 0 else -D[n] for n in range(5)]
    for n in range(5):
        total = sum(s[j] * c[n - j] for j in range(n + 1))
        assert total == (1 if n == 0 else 0)


def test_det_oracle_examples():
    assert coeff_via_determinant((F(2), F(1), F(3)), 0) == F(1, 2)
    assert coeff_via_determinant((F(1), F(1), F(1)), 2) == 0
    assert coeff_via_determinant((F(2), F(1), F(3)), 2) == F(-5, 8)


def test_det_oracle_guard():
    with pytest.raises(GuardError):
        coeff_via_determinant((F(1),) * 10, 9)


@given(fraction_windows(9, zero_free=False), st.fractions(min_value=-3, max_value=3,
                                                          max_denominator=3).filter(bool))
def test_toeplitz_matches_det_oracle(tail, lead):
    s = (lead,) + tail
    D = toeplitz_inverse_coeffs(s, 9)
    for n in range(9):
        assert D[n] == coeff_via_determinant(s, n)


@given(lower_triangles(max_order=8))
def test_inverse_composes_to_identity(M):
    inv = invert_triangle(M)
    assert compose(inv, M).rows == identity(M.order).rows
    assert compose(M, inv).rows == identity(M.order).rows


@settings(max_examples=5)
@given(lower_triangles(max_order=32))
def test_inverse_composes_to_identity_large(M):
    assert compose(invert_triangle(M), M).rows == identity(M.order).rows


@given(lower_triangles(max_order=6), st.data())
def test_apply_is_linear(M, data):
    n = M.order
    x = SequenceWindow(tuple(data.draw(small_fractions) for _ in range(n)))
    y = SequenceWindow(tuple(data.draw(small_fractions) for _ in range(n)))
    a = data.draw(small_fractions)
    b = data.draw(small_fractions)
    lhs = apply(M, seq_add(seq_scale(a, x), seq_scale(b, y)))
    rhs = seq_add(seq_scale(a, apply(M, x)), seq_scale(b, apply(M, y)))
    assert lhs.values == rhs.values


@given(st.data())
def test_compose_is_associative(data):
    order = data.draw(st.integers(min_value=1, max_value=6))

    def draw_triangle():
        rows = tuple(tuple(data.draw(small_fractions) for _ in range(n + 1))
                     for n in range(order))
        return TriangleMatrix(order, rows)

    A, B, C = draw_triangle(), draw_triangle(), draw_triangle()
    assert compose(compose(A, B), C).rows == compose(A, compose(B, C)).rows
