"""Acceptance suite: every criterion at its stated tolerance, one line each.

Criterion 3's float branch includes the euler family at order 64, which is
analytically unattainable in f64 (the inverse's absolute row sums reach
((2-a)/a)^63 >= 1.3e17 on the stated alpha range, so the 53-bit intermediate
forces round-trip errors orders of magnitude above the stated 1e-10); that
sub-criterion is implemented faithfully and carried as a strict expected
failure.  See the repository notes for the full analysis.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

import genmeans as gm
from genmeans import (
    FLOAT64,
    MatrixWindow,
    PresetSpec,
    RATIONAL,
    SequenceWindow,
    TriangleMatrix,
    preset,
)
from genmeans.selfcheck import (
    any_fraction,
    coeff_via_determinant,
    compose,
    linf_source_autocompact_check,
    mean_difference_inverse,
    nonzero_fraction,
    random_params,
    random_window,
    random_zero_tail,
    random_zero_tail_rows,
    toeplitz_inverse_coeffs,
    weighted_mean_inverse,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {num:02d}: PASS - {description}")


def test_criterion_01_inverse_identities():
    rng = random.Random(101)
    eye = gm.identity(16)
    started = time.time()
    with criterion(1, "closed-form inverses compose to the identity (100 instances)"):
        for trial in range(100):
            p = random_params(rng, 16, m=trial % 4)
            A = gm.weighted_mean_matrix(p)
            B = weighted_mean_inverse(p)
            T = gm.mean_difference_matrix(p)
            S = mean_difference_inverse(p)
            assert compose(B, A).rows == eye.rows
            assert compose(S, T).rows == eye.rows
        assert time.time() - started < 10.0


def test_criterion_02_coefficient_oracle():
    rng = random.Random(102)
    with criterion(2, "recursion coefficients match the determinant oracle (50 windows)"):
        for _ in range(50):
            s = (nonzero_fraction(rng),) + tuple(any_fraction(rng) for _ in range(8))
            D = toeplitz_inverse_coeffs(s, 9)
            for n in range(9):
                assert D[n] == coeff_via_determinant(s, n)
        ones = toeplitz_inverse_coeffs((F(1),) * 9, 9)
        assert ones[:2] == (F(1), F(1))
        assert all(v == 0 for v in ones[2:])


def test_criterion_03_round_trip():
    rng = random.Random(103)
    with criterion(3, "transform round trip: rational bit-exact, float presets at 1e-10"):
        for _ in range(100):
            p = random_params(rng, 32)
            x = random_window(rng, 32)
            assert gm.inverse_transform(p, gm.transform(p, x)).values == x.values
        # float backend at order 64 for the attainable conditioned presets
        float_triples = [preset(PresetSpec("identity"), 64, m=2, backend=FLOAT64)]
        for _ in range(3):
            u = tuple(rng.choice([-1, 1]) * (0.5 + 1.5 * rng.random()) for _ in range(256))
            v = tuple(rng.choice([-1, 1]) * (0.5 + 1.5 * rng.random()) for _ in range(256))
            float_triples.append(preset(PresetSpec("uv", u=u, v=v), 64, m=1,
                                        backend=FLOAT64))
        for p in float_triples:
            x = SequenceWindow(tuple(2 * rng.random() - 1 for _ in range(64)), "zero")
            back = gm.inverse_transform(p, gm.transform(p, x))
            assert max(abs(a - b) for a, b in zip(back.values, x.values)) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="float euler round trip at order 64 is analytically unattainable: the "
           "inverse's absolute row sums are ((2-a)/a)^63 (1.3e17 at a=0.7, 1e30 at "
           "a=0.5), so rounding the intermediate to 53 bits forces errors far above "
           "1e-10 for every algorithm; see the decisions notes")
def test_criterion_03_round_trip_float_euler():
    rng = random.Random(113)
    with criterion(3, "float euler round trip at order 64 (stated tolerance 1e-10)"):
        for alpha in (0.3, 0.5, 0.7):
            p = preset(PresetSpec("euler", alpha=alpha), 64, m=1, backend=FLOAT64)
            x = SequenceWindow(tuple(2 * rng.random() - 1 for _ in range(64)), "zero")
            back = gm.inverse_transform(p, gm.transform(p, x))
            assert max(abs(a - b) for a, b in zip(back.values, x.values)) <= 1e-10


def test_criterion_04_norm_isometry():
    rng = random.Random(104)
    with criterion(4, "window norm equals the sup of the transformed coordinates"):
        for _ in range(50):
            p = random_params(rng, 16)
            x = random_window(rng, 16)
            y = gm.transform(p, x)
            result = gm.space_norm(p, x)
            assert result.value == max(abs(v) for v in y.values)
            assert abs(y[result.arg_index]) == result.value


def test_criterion_05_basis_identities():
    rng = random.Random(105)
    with criterion(5, "basis vectors hit the coordinate vectors; full expansion exact"):
        for _ in range(25):
            p = random_params(rng, 16)
            for j in range(16):
                y = gm.transform(p, gm.basis_vector(p, j))
                assert all(y[n] == (1 if n == j else 0) for n in range(16))
            y = gm.transform(p, gm.basis_vector(p, -1))
            assert y.values == (F(1),) * 16
            x = random_window(rng, 16)
            for space in ("c0", "c"):
                assert gm.reconstruct(p, x, 15, space).residual.value == 0


def test_criterion_06_duality_identities():
    rng = random.Random(106)
    with criterion(6, "duality, coordinatewise, and partial-sum identities (100 pairs each)"):
        for _ in range(100):
            p = random_params(rng, 16)
            a = random_zero_tail(rng, 16)
            x = random_window(rng, 16)
            y = gm.transform(p, x)
            R = gm.associate_row(p, a)
            assert (sum(a[k] * x[k] for k in range(16))
                    == sum(R[k] * y[k] for k in range(16)))
            Cy = gm.apply(gm.alpha_dual_matrix(p, a), y)
            assert all(Cy[n] == a[n] * x[n] for n in range(16))
            Ey = gm.apply(gm.gamma_dual_matrix(p, a), y)
            assert all(Ey[l] == sum(a[n] * x[n] for n in range(l + 1)) for l in range(16))


def test_criterion_07_associate_matrix_identity():
    rng = random.Random(107)
    with criterion(7, "coordinate change holds elementwise; composite associate is identity"):
        for _ in range(50):
            p = random_params(rng, 16)
            A = random_zero_tail_rows(rng, 6, 16)
            x = random_window(rng, 16)
            lhs = gm.apply(A, x).values
            rhs = gm.apply(gm.associate_matrix(p, A).window, gm.transform(p, x)).values
            assert lhs == rhs
        for _ in range(25):
            p = random_params(rng, 16)
            assoc = gm.associate_matrix(p, gm.mean_difference_matrix(p)).window
            assert all(assoc.entry(n, k) == (1 if n == k else 0)
                       for n in range(16) for k in range(16))


def test_criterion_08_chi_formulas():
    rng = random.Random(108)
    with criterion(8, "noncompactness gauges: exact zeros, identity values, decay, trends"):
        p = random_params(rng, 16)
        finite = random_zero_tail_rows(rng, 4, 16)
        for target in ("c0", "c", "l_inf"):
            est = gm.chi_norm(p, finite, target)
            assert est.lower == 0 and est.upper == 0
            assert gm.compactness_verdict(p, finite, target).status == "satisfied"

        eye = gm.supplied_associate(gm.identity(16))
        est = gm.chi_norm(p, eye, "c0")
        assert est.lower == 1 and est.upper == 1
        est = gm.chi_norm(p, eye, "c")
        assert est.lower == F(1, 2) and est.upper == 1
        assert all(v == 0 for v in est.alpha_tilde)
        est = gm.chi_norm(p, eye, "l_inf")
        assert est.lower == 0 and est.upper == 1

        def decay_row(n):
            return (F(1, n + 1),)
        decaying = gm.supplied_associate(MatrixWindow(
            tuple(decay_row(n) for n in range(16)), "structural", decay_row))
        assert gm.compactness_verdict(p, decaying, "c0").status == "satisfied"

        # euler structural-tail instances: trend statuses, monotone window traces
        pe = preset(PresetSpec("euler", alpha=F(1, 2)), 12, m=1)
        est = gm.chi_norm(pe, gm.mean_difference_matrix(pe), "c0")
        assert est.status == "trend-converged" and est.lower == 1
        trace = [float(v) for v in est.trace]
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        est = gm.chi_norm(pe, gm.weighted_mean_matrix(pe), "c0")
        trace = [float(v) for v in est.trace]
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        assert est.status == "indeterminate" and est.trend == "diverging"


def test_criterion_09_membership_forces_compactness():
    rng = random.Random(109)
    with criterion(9, "bounded-source membership and compactness agree (50 instances)"):
        for _ in range(50):
            p = random_params(rng, 16)
            A = random_zero_tail_rows(rng, 4, 16)
            check = linf_source_autocompact_check(p, A, "c0")
            assert check.status == "satisfied" and check.detail == "consistent-compact"
            assert check.evidence["classification"].overall.status == "satisfied"
            assert check.evidence["compactness"].status == "satisfied"


def test_criterion_10_condition_table_totality():
    rng = random.Random(110)
    with criterion(10, "all 21 condition ids evaluate; subset sup on the 3x3 identity is 3"):
        assert len(gm.CONDITION_IDS) == 21
        p = random_params(rng, 8)
        A = random_zero_tail_rows(rng, 3, 8)
        for cond in gm.CONDITION_IDS:
            est = gm.eval_condition(cond, A, p)
            verdict = gm.condition_verdict(cond, est)
            assert verdict.status in ("satisfied", "violated", "indeterminate")
        eye3 = TriangleMatrix(3, ((F(1),), (F(0), F(1)), (F(0), F(0), F(1))), "zero")
        est = gm.eval_condition("4.4", eye3)
        assert est.value == 3 and est.status == "exact"
