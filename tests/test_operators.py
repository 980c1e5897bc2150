import dataclasses
import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from genmeans import (
    FLOAT64,
    NormResult,
    ParameterError,
    ParameterTriple,
    PresetSpec,
    RATIONAL,
    SequenceWindow,
    TriangleMatrix,
    associate_row,
    identity,
    identity_triple,
    inverse_transform,
    mean_difference_matrix,
    ones_sequence,
    preset,
    space_norm,
    transform,
    weighted_mean_matrix,
)

from genmeans.operators import (
    _InverseKernel,
    _differences,
    _mean_apply,
    _mean_solve,
    _running_sums,
    exact_twin,
)
from genmeans.limits import integer_row
from genmeans.scalars import common_denominator
from genmeans.selfcheck import (
    compose,
    composite_entry,
    difference_inverse,
    difference_matrix,
    invert_triangle,
    mean_difference_inverse,
    weighted_mean_inverse,
)
from genmeans.triangle import apply

from conftest import (
    dyadic_floats,
    f64_triples,
    no_shrink,
    parameter_triples,
    small_fractions,
    zero_tail_windows,
)
from hypothesis import strategies as st


def ones_params(order, m=1):
    e = (F(1),) * (4 * order)
    return ParameterTriple(e, e, e, m, order, RATIONAL)


# --- validation -------------------------------------------------------------

def test_validate_accepts_basic_triple():
    p = ParameterTriple((F(1),) * 4, (F(1), F(0), F(0), F(0)), (F(1),) * 4, 1, 4)
    assert (p.m, p.order, p.capacity) == (1, 4, 4)


def test_validate_names_zero_index():
    t = [F(1)] * 6
    t[3] = F(0)
    with pytest.raises(ParameterError) as err:
        ParameterTriple((F(1),) * 6, (F(1),) * 6, tuple(t), 1, 6)
    assert err.value.violations == ("t[3] = 0 (window must be zero-free)",)


def test_validate_rejects_zero_leading_s():
    with pytest.raises(ParameterError) as err:
        ParameterTriple((F(1),) * 4, (F(0), F(1), F(1), F(1)), (F(1),) * 4, 1, 4)
    assert err.value.violations == ("s[0] = 0 (leading entry must be nonzero)",)


def test_validate_reports_short_windows():
    with pytest.raises(ParameterError) as err:
        ParameterTriple((F(1),) * 2, (F(1),) * 4, (F(1),) * 4, 1, 4)
    assert err.value.violations == ("r window has 2 terms, needs at least 4",)


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT64])
def test_construction_lists_every_violation(backend):
    one, zero = backend.one, backend.zero
    with pytest.raises(ParameterError) as err:
        ParameterTriple((one, zero), (zero, one, one), (one,) * 3, -2, 3, backend)
    assert err.value.violations == (
        "difference order must be nonnegative, got -2",
        "r window has 2 terms, needs at least 3",
        "s[0] = 0 (leading entry must be nonzero)",
        "r[1] = 0 (window must be zero-free)",
    )
    with pytest.raises(ParameterError) as err:
        ParameterTriple((one,), (one,), (one,), 0, 0, backend)
    assert err.value.violations == ("truncation order must be positive, got 0",)


def test_replace_goes_through_the_construction_check():
    p = ones_params(4)
    assert dataclasses.replace(p, m=3).m == 3
    with pytest.raises(ParameterError) as err:
        dataclasses.replace(p, m=-1)
    assert err.value.violations == ("difference order must be nonnegative, got -1",)


def test_rational_triple_converts_int_windows():
    p = ParameterTriple((1, 2, 3, 4), (1, 1, 1, 1), (1, 1, 1, 1), 1, 2, RATIONAL)
    assert weighted_mean_matrix(p).rows == ((F(1),), (F(1, 2), F(1, 2)))
    assert all(type(v) is F for row in weighted_mean_matrix(p).rows for v in row)
    assert mean_difference_matrix(p).rows == ((F(1),), (F(0), F(1, 2)))


# --- matrix constructions ---------------------------------------------------

def test_mean_matrix_identity_preset():
    p = identity_triple(4)
    assert weighted_mean_matrix(p).rows == identity(4).rows


def test_mean_matrix_euler_row_is_binomial():
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 4)
    A = weighted_mean_matrix(p)
    assert A.rows[2] == (F(1, 4), F(1, 2), F(1, 4))


def test_mean_matrix_all_ones_is_running_sum():
    A = weighted_mean_matrix(ones_params(4))
    assert A.rows == tuple(tuple(F(1) for _ in range(n + 1)) for n in range(4))


def test_difference_matrix_order_zero_is_identity():
    assert difference_matrix(0, 5).rows == identity(5).rows


def test_difference_matrix_first_order_rows():
    d = difference_matrix(1, 4)
    assert d.rows[2] == (F(0), F(-1), F(1))
    assert d.rows[0] == (F(1),)


def test_difference_matrix_is_iterated_composition():
    d1 = difference_matrix(1, 8)
    power = identity(8)
    for m in range(1, 6):
        power = compose(power, d1)
        assert difference_matrix(m, 8).rows == power.rows


def test_difference_inverse_first_order_is_all_ones():
    inv = difference_inverse(1, 5)
    assert inv.rows == tuple(tuple(F(1) for _ in range(n + 1)) for n in range(5))


def test_difference_inverse_order_zero_is_identity():
    assert difference_inverse(0, 5).rows == identity(5).rows


def test_difference_inverse_second_order_first_column():
    inv = difference_inverse(2, 5)
    assert tuple(inv.entry(n, 0) for n in range(5)) == (F(1), F(2), F(3), F(4), F(5))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_difference_inverse_inverts_difference(m):
    assert compose(difference_inverse(m, 8), difference_matrix(m, 8)).rows == identity(8).rows


def test_mean_inverse_identity_preset():
    p = identity_triple(4)
    assert weighted_mean_inverse(p).rows == identity(4).rows


def test_mean_inverse_uv_preset_uses_two_coefficients():
    # with s all ones the inverse is bidiagonal: entries vanish two below the diagonal
    p = preset(PresetSpec("uv", u=(F(2),) * 16, v=(F(3),) * 16), 4)
    B = weighted_mean_inverse(p)
    for n in range(4):
        for k in range(n + 1):
            if n - k >= 2:
                assert B.entry(n, k) == 0


@given(parameter_triples(order=8))
def test_mean_inverse_composes_to_identity(p):
    assert compose(weighted_mean_inverse(p), weighted_mean_matrix(p)).rows == identity(8).rows


@given(parameter_triples(order=8))
def test_mean_inverse_matches_forward_substitution(p):
    assert weighted_mean_inverse(p).rows == invert_triangle(weighted_mean_matrix(p)).rows


def test_composite_telescopes_for_all_ones():
    T = mean_difference_matrix(ones_params(6, m=1))
    assert T.rows == identity(6).rows


def test_composite_identity_preset_m0():
    T = mean_difference_matrix(identity_triple(6, m=0))
    assert T.rows == identity(6).rows


def test_composite_matches_direct_kernel():
    p = preset(PresetSpec("euler", alpha=F(1, 3)), 6, m=2)
    T = mean_difference_matrix(p)
    for n in range(6):
        for j in range(n + 1):
            assert T.entry(n, j) == composite_entry(p, n, j)


def _generated_rows_match_direct_kernel(p):
    # rows past the stored order come from the structural generator alone
    T = mean_difference_matrix(p)
    for n in range(p.order, p.capacity):
        assert T.row(n) == tuple(composite_entry(p, n, j) for j in range(n + 1))
    assert T.row(p.capacity) is None
    # each row is built as its integer form: the one integer_row makes of its values
    assert T.integer_rows == tuple(map(integer_row, T.extended))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [F(1, 2), F(1, 3)])
def test_generated_euler_composite_rows_match_direct_kernel(alpha, m):
    _generated_rows_match_direct_kernel(preset(PresetSpec("euler", alpha=alpha), 4, m=m))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@given(parameter_triples(order=4))
def test_generated_random_composite_rows_match_direct_kernel(m, p):
    _generated_rows_match_direct_kernel(dataclasses.replace(p, m=m))


def test_composite_uv_matches_independent_construction():
    # G(u, v) with entries u_n v_k composed with the difference triangle
    u = (F(2), F(-1), F(1, 2), F(3), F(1), F(1), F(2), F(1)) * 4
    v = (F(1), F(2), F(-1, 2), F(1), F(2), F(1), F(1), F(3)) * 4
    p = preset(PresetSpec("uv", u=u, v=v), 8, m=2)
    G = TriangleMatrix(8, tuple(tuple(u[n] * v[k] for k in range(n + 1)) for n in range(8)))
    expected = compose(G, difference_matrix(2, 8))
    assert mean_difference_matrix(p).rows == expected.rows


@given(parameter_triples(order=8))
def test_composite_inverse_matches_forward_substitution(p):
    T = mean_difference_matrix(p)
    assert mean_difference_inverse(p).rows == invert_triangle(T).rows


def test_composite_inverse_uv_two_term_reduction():
    # s = ones makes the inverse entries two-term sums over i in {k, k+1}
    p = preset(PresetSpec("uv", u=(F(2),) * 16, v=(F(3),) * 16), 4, m=1)
    S = mean_difference_inverse(p)
    from genmeans.selfcheck import binom
    for j in range(4):
        for k in range(j + 1):
            expected = sum(
                (-1) ** ((i - k) % 2) * binom(1 + j - i - 1, j - i) / p.t[i] * p.r[k]
                for i in (k, k + 1) if i <= j)
            assert S.entry(j, k) == expected


# --- transforms ---------------------------------------------------------------

def test_transform_all_ones_params_is_neutral():
    p = ones_params(5, m=1)
    x = SequenceWindow(tuple(F(i + 1) for i in range(5)))
    assert transform(p, x).values == x.values


def test_transform_identity_preset_is_first_difference():
    p = identity_triple(5, m=1)
    x = SequenceWindow((F(2), F(5), F(4), F(1), F(0)))
    y = transform(p, x)
    assert y.values == (F(2), F(3), F(-1), F(-3), F(-1))


def test_transform_euler_preserves_constants():
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 3, m=0)
    y = transform(p, SequenceWindow((F(1), F(1), F(1))))
    assert y.values == (F(1), F(1), F(1))


@given(parameter_triples(order=8), st.data())
def test_round_trip_is_identity(p, data):
    x = SequenceWindow(tuple(data.draw(small_fractions) for _ in range(8)))
    assert inverse_transform(p, transform(p, x)).values == x.values


def test_inverse_transform_of_zero_is_zero():
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 5, m=2)
    y = SequenceWindow((F(0),) * 5, "zero")
    assert inverse_transform(p, y).values == (F(0),) * 5


def test_inverse_transform_matches_double_sum():
    # independent oracle: the explicit double-sum reconstruction
    from genmeans.selfcheck import binom, toeplitz_inverse_coeffs

    p = preset(PresetSpec("euler", alpha=F(2, 5)), 6, m=2)
    y = SequenceWindow((F(1), F(-2), F(1, 3), F(0), F(2), F(-1)))
    D = toeplitz_inverse_coeffs(p.s, 6)
    expected = []
    for n in range(6):
        acc = F(0)
        for j in range(n + 1):
            for k in range(j, n + 1):
                acc += ((-1) ** ((k - j) % 2) * binom(p.m + n - k - 1, n - k)
                        * D[k - j] / p.t[k] * p.r[j] * y[j])
        expected.append(acc)
    assert inverse_transform(p, y).values == tuple(expected)


# --- norm ---------------------------------------------------------------------

def test_norm_reports_sup_and_index():
    p = ones_params(4, m=1)  # transform is neutral
    x = SequenceWindow((F(1), F(-1, 2), F(1, 3), F(-1, 4)))
    result = space_norm(p, x)
    assert result.value == F(1)
    assert result.arg_index == 0


def test_norm_of_zero():
    p = identity_triple(4, m=1)
    assert space_norm(p, SequenceWindow((F(0),) * 4, "zero")).value == 0


def test_norm_identity_preset_difference():
    p = identity_triple(4, m=1)
    result = space_norm(p, SequenceWindow((F(1), F(1), F(1), F(1))))
    assert result.value == F(1)
    assert result.arg_index == 0
    assert not result.exact  # sup over the window only bounds the true norm


def test_norm_ties_report_smallest_index():
    p = ones_params(4, m=1)
    result = space_norm(p, SequenceWindow((F(2), F(-2), F(1), F(0))))
    assert result.value == F(2) and result.arg_index == 0


@given(st.one_of(parameter_triples(order=8), f64_triples()), st.data())
def test_norm_equals_transform_sup(p, data):
    # the largest |entry| of the transform as returned, at its first index, on both backends
    values = small_fractions if p.backend is RATIONAL else dyadic_floats | st.just(0.0)
    x = SequenceWindow(tuple(data.draw(values) for _ in range(p.order)))
    sizes = [abs(v) for v in transform(p, x).values]
    result = space_norm(p, x)
    assert result == NormResult(max(sizes), sizes.index(max(sizes)), False)
    assert type(result.value) is type(sizes[0])


def test_f64_norm_index_is_the_first_max_of_the_printed_values():
    # exactly y_1 = 1 + 2^-60 > y_0 = 1, but both print as 1.0: the index stays 0
    p = preset(PresetSpec("uv", u=(1.0,) * 8, v=(1.0,) * 8), 2, m=0, backend=FLOAT64)
    x = SequenceWindow((1.0, 2.0 ** -60))
    assert transform(p, x).values == (1.0, 1.0)
    q, _ = exact_twin(p)
    assert transform(q, SequenceWindow(map(F, x))).values == (1, 1 + F(1, 2 ** 60))
    assert space_norm(p, x) == NormResult(1.0, 0, False)


# --- presets --------------------------------------------------------------------

def test_euler_rows_sum_to_one():
    p = preset(PresetSpec("euler", alpha=F(3, 7)), 8)
    A = weighted_mean_matrix(p)
    for n in range(8):
        assert sum(A.rows[n]) == F(1)


def test_euler_rejects_alpha_outside_unit_interval():
    with pytest.raises(ParameterError):
        preset(PresetSpec("euler", alpha=F(3, 2)), 4)
    with pytest.raises(ParameterError):
        preset(PresetSpec("aydin", alpha=F(0)), 4)


def test_uv_all_ones_gives_running_sum():
    p = preset(PresetSpec("uv", u=(F(1),) * 16, v=(F(1),) * 16), 4)
    assert weighted_mean_matrix(p).rows == weighted_mean_matrix(ones_params(4)).rows


def test_lambda_preset_windows():
    p = preset(PresetSpec("lambda", lam=tuple(F(i + 1) for i in range(16))), 4)
    assert p.t[:4] == (F(1), F(1), F(1), F(1))
    assert p.r[:4] == (F(1), F(2), F(3), F(4))
    assert p.m == 1


def test_lambda_rejects_non_monotone():
    with pytest.raises(ParameterError):
        preset(PresetSpec("lambda", lam=(F(1), F(3), F(2), F(4))), 4)


def test_aydin_windows():
    p = preset(PresetSpec("aydin", alpha=F(1, 2)), 4)
    assert p.r[:4] == (F(1), F(2), F(3), F(4))
    assert p.t[:3] == (F(2), F(3, 2), F(5, 4))


PRESET_CASES = {
    "uv": dict(u=tuple(F((-1) ** k * (k + 3), k + 1) for k in range(160)),
               v=tuple(F(k + 2, 3) for k in range(160))),
    "euler": dict(alpha=F(2, 5)),
    "aydin": dict(alpha=F(2, 5)),
    "aydin-15/16": dict(alpha=F(15, 16)),
    "lambda": dict(lam=tuple(F(k + 1, 3) for k in range(160))),
    "identity": dict(),
}


@pytest.mark.parametrize("inputs", ["fraction", "float"])
@pytest.mark.parametrize("case", sorted(PRESET_CASES))
def test_f64_preset_is_the_rational_preset_rounded_once(case, inputs):
    # aydin 2/5 rounded twice gave t_2 = 1.1600000000000001, lambda (k+1)/3 t_2 = 0.33333333333333337
    args = PRESET_CASES[case]
    if inputs == "float":
        args = {k: float(v) if k == "alpha" else tuple(map(float, v)) for k, v in args.items()}
    spec = PresetSpec(case.split("-")[0], **args)
    exact, p = (preset(spec, 40, m=2, backend=b) for b in (RATIONAL, FLOAT64))
    assert p.capacity >= 40 and p.m == exact.m
    for got, want in ((p.r, exact.r), (p.s, exact.s), (p.t, exact.t)):
        assert all(type(v) is float for v in got)
        assert got == tuple(map(float, want[:len(got)]))


def test_preset_arguments_are_checked_once_over_the_table():
    from genmeans.operators import PRESET_ARGS, PRESET_NAMES

    assert PRESET_NAMES == tuple(PRESET_ARGS)
    with pytest.raises(ParameterError, match=r"^preset 'uv' requires v$"):
        preset(PresetSpec("uv", u=(F(1),) * 16), 4)
    with pytest.raises(ParameterError, match=r"^preset 'euler' requires alpha$"):
        preset(PresetSpec("euler"), 4)
    for spec in (PresetSpec("aydin", alpha=float("nan")),
                 PresetSpec("uv", u=(float("inf"),) * 16, v=(1.0,) * 16)):
        with pytest.raises(ParameterError, match="arguments must be finite numbers"):
            preset(spec, 4, backend=FLOAT64)
    with pytest.raises(ParameterError, match=r"^u window covers 3 terms, need at least 4$"):
        preset(PresetSpec("uv", u=(F(1),) * 3, v=(F(1),) * 16), 4)
    with pytest.raises(ParameterError) as exc:
        preset(PresetSpec("lambda", lam=(F(1), F(0), F(2), F(4))), 4)
    assert exc.value.violations == ("lam[1] = 0 (must be zero-free)", "lam must be strictly monotone")
    with pytest.raises(ParameterError, match="truncation order must be positive, got 0"):
        preset(PresetSpec("identity"), 0)


def test_f64_preset_cuts_where_a_term_leaves_the_double_range():
    # t_n = 2^-n/n! underflows to 0 at n = 157; u_n = 2^-1100 makes 1/u_n overflow at n = 5
    assert preset(PresetSpec("euler", alpha=0.5), 40, backend=FLOAT64).capacity == 157
    with pytest.raises(ParameterError, match="past index 157; truncation order 158 needs more"):
        preset(PresetSpec("euler", alpha=0.5), 158, backend=FLOAT64)
    u = (F(1),) * 5 + (F(1, 2 ** 1100),) * 11
    assert preset(PresetSpec("uv", u=u, v=(F(1),) * 16), 4, backend=FLOAT64).capacity == 5


def test_preset_windows_cover_four_times_order():
    p = preset(PresetSpec("euler", alpha=F(1, 2)), 8)
    assert p.capacity >= 32


def test_float_backend_euler_round_trip():
    p = preset(PresetSpec("euler", alpha=0.5), 16, m=1, backend=FLOAT64)
    x = SequenceWindow(tuple((-1.0) ** i / (i + 1) for i in range(16)))
    back = inverse_transform(p, transform(p, x))
    assert max(abs(a - b) for a, b in zip(back.values, x.values)) <= 1e-10


@given(f64_triples())
def test_constructors_given_float_params_return_exact_triangles(p):
    q = exact_twin(p)[0]
    for build in (weighted_mean_matrix, weighted_mean_inverse,
                  mean_difference_matrix, mean_difference_inverse):
        T = build(p)
        assert all(isinstance(v, F) for row in T.rows for v in row)
        assert T.rows == build(q).rows


def test_exact_twin_is_kept_with_the_triple(monkeypatch):
    # the twin is built once per float triple and read back without hashing it
    u = tuple(1.0 + i / 8 for i in range(32))
    p = preset(PresetSpec("uv", u=u, v=(0.5,) * 32), 8, m=2, backend=FLOAT64)
    x = SequenceWindow(tuple(1.0 / (i + 1) for i in range(8)), "zero")
    hashed = []
    hash_triple = ParameterTriple.__hash__
    monkeypatch.setattr(ParameterTriple, "__hash__",
                        lambda self: hashed.append(self) or hash_triple(self))
    inverse_transform(p, transform(p, x))
    space_norm(p, x)
    associate_row(p, x)
    assert hashed == []
    assert exact_twin(p)[0] is exact_twin(p)[0]
    q = dataclasses.replace(p, m=1)
    assert exact_twin(q)[0] == dataclasses.replace(exact_twin(p)[0], m=1)


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT64], ids=lambda b: b.mode)
def test_integer_forms_are_kept_with_the_triple(backend, monkeypatch):
    # s, t and 1/r over common denominators are made once per exact twin at its
    # truncation order; a shorter kernel input reads a prefix of the same forms
    forms = ParameterTriple.__dict__["_forms"]
    made = []

    def counting_forms(p):
        made.append(p)
        return forms.func(p)

    counted = functools.cached_property(counting_forms)
    counted.__set_name__(ParameterTriple, "_forms")
    monkeypatch.setattr(ParameterTriple, "_forms", counted)
    spec = PresetSpec("euler", alpha=F(1, 3))
    p = preset(spec, 6, m=2, backend=backend)
    x = SequenceWindow(tuple(backend.convert(F(1, i + 1)) for i in range(6)), "zero")
    roundtrips = [inverse_transform(p, transform(p, x)) for _ in range(3)]
    q = exact_twin(p)[0]
    assert len(made) == 1 and made[0] is q
    fresh = preset(spec, 6, m=2, backend=backend)
    assert roundtrips == [inverse_transform(fresh, transform(fresh, x))] * 3
    short = SequenceWindow(tuple(F(1, i + 1) for i in range(4)))
    assert (kernel_values(_mean_apply(q, common_denominator(short)))
            == list(apply(weighted_mean_matrix(dataclasses.replace(q, order=4)), short)))
    assert (kernel_values(_mean_solve(q, common_denominator(short)))
            == list(apply(weighted_mean_inverse(dataclasses.replace(q, order=4)), short)))
    assert len(made) == 2 and made[0] is q and made[1] is exact_twin(fresh)[0]


def test_f64_input_values_are_read_without_a_fraction(monkeypatch):
    # with the twin built, the f64 routes read their input values through
    # common_denominator alone: no Fraction is made for them
    from genmeans import duality, operators

    u = tuple(1.0 + i / 8 for i in range(32))
    p = preset(PresetSpec("uv", u=u, v=(0.5,) * 32), 8, m=2, backend=FLOAT64)
    x = SequenceWindow(tuple(1.0 / (i + 1) for i in range(8)), "zero")
    exact_twin(p)
    built = []

    def counting_fraction(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(operators, "Fraction", counting_fraction)
    monkeypatch.setattr(duality, "Fraction", counting_fraction)
    y = transform(p, x)
    inverse_transform(p, y)
    associate_row(p, x)
    assert built == []


values_of_every_type = st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=10 ** 12)), max_size=8)


@given(values_of_every_type)
def test_common_denominator_reads_a_float_exactly(values):
    assert common_denominator(values) == common_denominator(map(F, values))


# --- integer substitution kernels ---------------------------------------------

@st.composite
def kernel_twins(draw):
    """Exact twins with large common denominators: rational euler presets
    (factorials) and float presets lifted to their dyadic twins (powers of two)."""
    if draw(st.booleans()):
        alpha = F(draw(st.integers(min_value=1, max_value=8)), 9)
        return preset(PresetSpec("euler", alpha=alpha), draw(st.integers(min_value=1, max_value=8)))
    return exact_twin(draw(f64_triples()))[0]


def kernel_values(got):
    """The Fractions of a kernel's integer form (ints, den), or of its list of
    (num, den) pairs; every numerator is an int and every denominator positive."""
    pairs = got if isinstance(got, list) else [(v, got[1]) for v in got[0]]
    assert all(type(v) is int and den > 0 for v, den in pairs)
    return [F(v, den) for v, den in pairs]


@pytest.mark.parametrize("m", range(4))
@no_shrink
@given(q=kernel_twins(), data=st.data())
def test_integer_kernels_match_dense_triangles(m, q, data):
    n = q.order
    x = SequenceWindow(tuple(data.draw(small_fractions) for _ in range(n)))
    form = common_denominator(x)
    cases = [
        (_differences(form, m), apply(difference_matrix(m, n), x)),
        (_running_sums(form, m), apply(difference_inverse(m, n), x)),
        (_mean_apply(q, form), apply(weighted_mean_matrix(q), x)),
        (_mean_solve(q, form), apply(weighted_mean_inverse(q), x)),
    ]
    for got, want in cases:
        assert kernel_values(got) == list(want)
    q = dataclasses.replace(q, m=m)
    for got in (transform(q, x), inverse_transform(q, x)):
        assert all(type(v) is F for v in got)
    # the associate product: a against the columns of the dense T^{-1}
    a = [data.draw(small_fractions) for _ in range(data.draw(st.integers(0, q.capacity)))]
    S = mean_difference_inverse(dataclasses.replace(q, order=q.capacity))
    ints, den = _InverseKernel(q, len(a)).associate(integer_row(a))
    assert [F(v, den) for v in ints] + [0] * (len(a) - len(ints)) == [
        sum(a[j] * S.entry(j, k) for j in range(k, len(a))) for k in range(len(a))]


def test_integer_kernels_take_iterators_plain_ints_and_empty_input():
    q = preset(PresetSpec("euler", alpha=F(1, 3)), 4, m=2)
    x = (F(1, 2), F(-2, 3), F(5), F(0))
    kernels = (lambda v: _differences(v, 2), lambda v: _running_sums(v, 2),
               lambda v: _mean_apply(q, v), lambda v: _mean_solve(q, v))

    def values(v):
        return kernel_values(kernel(common_denominator(v)))

    for kernel in kernels:
        assert values(iter(x)) == values(x)
        assert values(reversed(x)) == values(x[::-1])
        assert values([]) == []
        for zero in ((0,) * 4, (F(0),) * 4):
            assert values(zero) == [0] * 4
        assert values((0, 0, 1)) == values((F(0), F(0), F(1)))     # a plain-int unit row
    assert _running_sums(common_denominator(reversed((0, 0, 1))), 2) == ([1, 2, 3], 1)
    # the public outputs are Fractions, whatever the input's scalar type
    for v in ((0,) * 4, (F(0),) * 4, (0, 0, 1, 0)):
        for got in (transform(q, SequenceWindow(v)), inverse_transform(q, SequenceWindow(v))):
            assert all(type(u) is F for u in got)
        assert type(space_norm(q, SequenceWindow(v)).value) is F


def test_float_zeros_keep_the_exact_zeros_sign():
    # r_0 = 1/u_0 and t_1 = v_1 are negative: divided by a negative
    # denominator, an exact zero would round to -0.0, not to float(Fraction(0)).
    p = preset(PresetSpec("uv", u=(-1.5, 2.0, -0.5, 1.0), v=(1.0, -2.0, 0.5, -3.0)), 4,
               m=1, backend=FLOAT64)
    q = exact_twin(p)[0]
    x = SequenceWindow((0.0, 0.0, 1.0, 1.0))
    assert [repr(v) for v in transform(p, x)] == ["0.0", "0.0", "-0.25", "0.5"]
    for fn in (transform, inverse_transform):
        for v in (x.values, (0.0,) * 4, (0.0, 0.0, 1.0, 0.0)):
            got = fn(p, SequenceWindow(v)).values
            exact = fn(q, SequenceWindow(map(F, v))).values
            assert [repr(u) for u in got] == [repr(float(u)) for u in exact]
            assert "-0.0" not in map(repr, got)
    assert repr(space_norm(p, SequenceWindow((0.0,) * 4)).value) == "0.0"


def test_rational_round_trip_at_order_64_matches_dense_composite():
    rng = random.Random(64)

    def frac(nonzero=False):
        while True:
            v = F(rng.randint(-9, 9), rng.randint(1, 9))
            if v or not nonzero:
                return v

    n = 64
    p = ParameterTriple(tuple(frac(True) for _ in range(n)),
                        (frac(True),) + tuple(frac() for _ in range(n - 1)),
                        tuple(frac(True) for _ in range(n)), 2, n, RATIONAL)
    x = SequenceWindow(tuple(frac() for _ in range(n)))
    y = transform(p, x)
    assert y.values == apply(mean_difference_matrix(p), x).values
    assert inverse_transform(p, y).values == x.values
