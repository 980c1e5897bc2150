"""Seeded random instances and the rational-backend invariant suite.

The generators here produce small random rationals so products stay cheap
while still exercising sign mixes and zero entries wherever zeros are legal.
The dense triangle algebra lives here as oracles for the substitution
kernels of ``operators``: the triangle product and inverse, the Toeplitz
inverse coefficients D_n of s with their determinant oracle, the difference
triangle and its binomial inverse, and the closed-form inverses of the
weighted-mean and composite operators.  So do the closed forms of the
associate rows, tail sums and partial-sum entries, oracles for the defining
sums that ``duality`` computes, the direct kernel of the composite
operator's entries and the window sums and scalings the linearity checks use.
``linf_source_autocompact_check`` is the consistency oracle between
membership and compactness.  ``run_selftest`` drives the cross-module
identities end to end and is what the CLI selftest command executes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import (
    DimensionError,
    GuardError,
    InconsistencyError,
    ParameterError,
    SingularTriangleError,
)
from .limits import Verdict
from .scalars import RATIONAL
from .triangle import (
    STRUCTURAL_TAIL,
    UNKNOWN_TAIL,
    ZERO_TAIL,
    MatrixWindow,
    SequenceWindow,
    TriangleMatrix,
    identity,
)
from .operators import (
    ParameterTriple,
    exact_twin,
    inverse_transform,
    mean_difference_matrix,
    space_norm,
    transform,
    weighted_mean_matrix,
)
from .duality import (
    alpha_dual_matrix,
    associate_row,
    basis_vector,
    gamma_dual_matrix,
    tail_sum_matrix,
)
from .triangle import apply, unit_sequence
from .compactness import associate_matrix, chi_norm, compactness_verdict, supplied_associate
from .conditions import CONDITION_IDS, classify_map, condition_verdict, eval_condition


# Dense triangle algebra: oracles for the substitution kernels of ``operators``.

def binom(n: int, k: int) -> int:
    """Binomial coefficient, extended so that binom(-1, 0) = 1 (empty product)."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < 0:
        out = 1
        for i in range(k):
            out *= n - i
        return out // math.factorial(k)
    return math.comb(n, k) if k <= n else 0


def _combined_tail(a, b):
    if a == ZERO_TAIL and b == ZERO_TAIL:
        return ZERO_TAIL
    if a == STRUCTURAL_TAIL and b == STRUCTURAL_TAIL:
        return STRUCTURAL_TAIL
    return UNKNOWN_TAIL


def compose(left, right):
    """Matrix product of two triangles of equal order.

    The tail combines pessimistically: zero with zero stays zero, structural
    with structural stays structural, anything else is unknown.  The product
    carries no row generator: a structural operator that needs one gets it
    from its own formula.
    """
    if left.order != right.order:
        raise DimensionError(f"order mismatch: {left.order} vs {right.order}")
    order = left.order
    rows = []
    for n in range(order):
        lrow = left.rows[n]
        row = []
        for k in range(n + 1):
            acc = lrow[k] * right.rows[k][k]
            for i in range(k + 1, n + 1):
                acc += lrow[i] * right.rows[i][k]
            row.append(acc)
        rows.append(tuple(row))
    return TriangleMatrix(order, rows, _combined_tail(left.tail, right.tail))


def invert_triangle(matrix):
    """Inverse of a triangle by forward substitution, one column at a time.

    Triangular inversion is local: entry (n, k) of the inverse depends only
    on rows <= n, so the window inverse agrees with the infinite inverse.  A
    structural input therefore yields a structural inverse, without a row
    generator (as ``compose``); any other input an unknown tail.
    """
    for n in range(matrix.order):
        if matrix.rows[n][n] == 0:
            raise SingularTriangleError(n)
    order = matrix.order
    inv = [[None] * (n + 1) for n in range(order)]
    for k in range(order):
        inv[k][k] = 1 / matrix.rows[k][k]
        for n in range(k + 1, order):
            acc = matrix.rows[n][k] * inv[k][k]
            for i in range(k + 1, n):
                acc += matrix.rows[n][i] * inv[i][k]
            inv[n][k] = -acc / matrix.rows[n][n]
    tail = STRUCTURAL_TAIL if matrix.tail == STRUCTURAL_TAIL else UNKNOWN_TAIL
    return TriangleMatrix(order, inv, tail)


def _seq_values(s):
    return s.values if isinstance(s, SequenceWindow) else tuple(s)


def toeplitz_inverse_coeffs(s, count):
    """The tuple D_0 .. D_{count-1} of coefficients of the inverse of the
    lower-triangular Toeplitz matrix built from a window s (s_0 on the
    diagonal), via the reciprocal-series convolution recursion.

    c_0 = 1/s_0, c_n = -(1/s_0) sum_{j=1}^{n} s_j c_{n-j}, D_n = (-1)^n c_n,
    so c is the reciprocal of s as a power series: sum_{j<=n} s_j c_{n-j} = [n = 0].
    Quadratic cost; ``coeff_via_determinant`` is its small-order determinant
    oracle.  The operators run the same recursion on integers
    (``operators._InverseKernel``), and this Fraction loop is their oracle.
    """
    vals = _seq_values(s)
    if count < 1:
        raise DimensionError("coefficient count must be positive")
    if len(vals) < count:
        raise DimensionError(f"window of length {len(vals)} too short for {count} coefficients")
    if vals[0] == 0:
        raise ParameterError(["s[0] must be nonzero (leading Toeplitz diagonal)"])
    c = [None] * count
    c[0] = 1 / vals[0]
    for n in range(1, count):
        acc = vals[1] * c[n - 1]
        for j in range(2, n + 1):
            acc += vals[j] * c[n - j]
        c[n] = -acc / vals[0]
    return tuple(c[n] if n % 2 == 0 else -c[n] for n in range(count))


def _structural(order, row, capacity=None):
    """The triangle of the value rows ``row(n)``; structural tail."""
    return TriangleMatrix(order, tuple(map(row, range(order))), STRUCTURAL_TAIL, row, capacity)


def difference_matrix(m, order, backend=RATIONAL) -> TriangleMatrix:
    """Order-m difference triangle: entries (-1)^{n-k} binom(m, n-k); m = 0 is the identity."""
    if m < 0:
        raise ParameterError([f"difference order must be nonnegative, got {m}"])
    one = backend.one

    def row(n):
        return tuple((-1) ** ((n - k) % 2) * binom(m, n - k) * one for k in range(n + 1))

    return _structural(order, row)


def difference_inverse(m, order, backend=RATIONAL) -> TriangleMatrix:
    """Inverse of the order-m difference triangle: entries binom(m+n-k-1, n-k)."""
    if m < 0:
        raise ParameterError([f"difference order must be nonnegative, got {m}"])
    one = backend.one

    def row(n):
        return tuple(binom(m + n - k - 1, n - k) * one for k in range(n + 1))

    return _structural(order, row)


def weighted_mean_inverse(p) -> TriangleMatrix:
    """Closed-form inverse of the weighted-mean triangle.

    Entry (n, k) is (-1)^{n-k} D_{n-k} r_k / t_n with D the Toeplitz inverse
    coefficients of s.
    """
    p = exact_twin(p)[0]
    D = toeplitz_inverse_coeffs(p.s, p.capacity)

    def row(n):
        return tuple((-1) ** ((n - k) % 2) * D[n - k] * p.r[k] / p.t[n] for k in range(n + 1))

    return _structural(p.order, row, p.capacity)


def mean_difference_inverse(p) -> TriangleMatrix:
    """Inverse of the composite operator: the difference inverse times the weighted-mean inverse."""
    p = exact_twin(p)[0]
    return compose(difference_inverse(p.m, p.order, p.backend), weighted_mean_inverse(p))


def nonzero_fraction(rng, span=3, den=3):
    while True:
        v = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if v:
            return v


def any_fraction(rng, span=3, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_params(rng, order, m=None) -> ParameterTriple:
    """A random valid rational parameter set with windows 4x the order."""
    length = 4 * order
    r = tuple(nonzero_fraction(rng) for _ in range(length))
    t = tuple(nonzero_fraction(rng) for _ in range(length))
    s = (nonzero_fraction(rng),) + tuple(any_fraction(rng, span=2) for _ in range(length - 1))
    m = rng.randint(0, 3) if m is None else m
    return ParameterTriple(r, s, t, m, order, RATIONAL)


def random_window(rng, order, tail="unknown") -> SequenceWindow:
    return SequenceWindow(tuple(any_fraction(rng) for _ in range(order)), tail)


def random_zero_tail(rng, order, max_support=None) -> SequenceWindow:
    """A zero-tail window with random support below max_support."""
    support = rng.randint(1, max_support or order)
    vals = [any_fraction(rng) for _ in range(support)] + [Fraction(0)] * (order - support)
    return SequenceWindow(vals, "zero")


def random_zero_tail_rows(rng, rows, width, density=0.6) -> MatrixWindow:
    out = []
    for _ in range(rows):
        out.append(tuple(any_fraction(rng) if rng.random() < density else Fraction(0)
                         for _ in range(width)))
    return MatrixWindow(tuple(out), "zero")


DET_ORACLE_MAX = 8


def seq_add(x, y):
    if len(x) != len(y):
        raise DimensionError(f"length mismatch: {len(x)} vs {len(y)}")
    tail = ZERO_TAIL if (x.tail == ZERO_TAIL and y.tail == ZERO_TAIL) else UNKNOWN_TAIL
    return SequenceWindow(tuple(a + b for a, b in zip(x, y)), tail)


def seq_scale(alpha, x):
    return SequenceWindow(tuple(alpha * v for v in x), x.tail)


def _det(mat):
    """The determinant of a square matrix by Gaussian elimination over
    Fractions, swapping in the first nonzero pivot of each column: O(n^3)."""
    rows = [list(map(Fraction, row)) for row in mat]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det


def coeff_via_determinant(s, n):
    """D_n evaluated directly from its n x n banded-Hessenberg determinant.

    Gaussian elimination, independent of the convolution recursion of
    toeplitz_inverse_coeffs, which it checks as an oracle; guarded to n <= 8.
    """
    if n > DET_ORACLE_MAX:
        raise GuardError(f"determinant oracle limited to n <= {DET_ORACLE_MAX}, got {n}")
    if n < 0:
        raise DimensionError("coefficient index must be nonnegative")
    vals = _seq_values(s)
    if not vals or vals[0] == 0:
        raise ParameterError(["s[0] must be nonzero (leading Toeplitz diagonal)"])
    if n == 0:
        return 1 / vals[0]
    if len(vals) < n + 1:
        raise DimensionError(f"window of length {len(vals)} too short for index {n}")
    mat = [[vals[i + 1 - j] if 0 <= i + 1 - j else 0 for j in range(n)] for i in range(n)]
    return _det(mat) / vals[0] ** (n + 1)


def composite_entry(p, n, j):
    """Row-n, column-j weight of the composite operator, from its direct kernel:
    (1/r_n) sum_{i=j}^{n} (-1)^{i-j} binom(m, i-j) s_{n-i} t_i.
    """
    acc = 0
    for i in range(j, n + 1):
        acc += (-1) ** ((i - j) % 2) * binom(p.m, i - j) * p.s[n - i] * p.t[i]
    return acc / p.r[n]


def associate_row_closed(p, a, order):
    """The three-group closed form of R_k(a), truncated at the support of a."""
    D = toeplitz_inverse_coeffs(p.s, max(a.support, 1))
    m = p.m
    jmax = a.support - 1
    out = []
    for k in range(order):
        if k > jmax:
            out.append(0)
            continue
        total = a[k] / (p.s[0] * p.t[k])
        for i in (k, k + 1):
            inner = 0
            for j in range(k + 1, jmax + 1):
                inner += binom(m + j - i - 1, j - i) * a[j]
            if inner != 0:
                sign = -1 if (i - k) % 2 else 1
                total += sign * D[i - k] / p.t[i] * inner
        for l in range(2, jmax - k + 1):
            inner = 0
            for j in range(k + l, jmax + 1):
                inner += binom(m + j - k - l - 1, j - k - l) * a[j]
            if inner != 0:
                sign = -1 if l % 2 else 1
                total += sign * D[l] / p.t[l + k] * inner
        out.append(total * p.r[k])
    return out


def tail_sum_closed(p, a, order):
    """Two-group closed form of w_pk, truncated at the support of a."""
    D = toeplitz_inverse_coeffs(p.s, max(a.support, 1))
    m = p.m
    jmax = a.support - 1
    rows = []
    for cut in range(order):
        row = []
        for k in range(cut + 1):
            total = 0
            for i in range(k, min(cut, jmax) + 1):
                inner = 0
                for j in range(max(cut, i), jmax + 1):
                    inner += binom(m + j - i - 1, j - i) * a[j]
                if inner != 0:
                    sign = -1 if (i - k) % 2 else 1
                    total += sign * D[i - k] / p.t[i] * inner
            for i in range(cut + 1, jmax + 1):
                inner = 0
                for j in range(i, jmax + 1):
                    inner += binom(m + j - i - 1, j - i) * a[j]
                if inner != 0:
                    sign = -1 if (i - k) % 2 else 1
                    total += sign * D[i - k] / p.t[i] * inner
            row.append(total * p.r[k])
        rows.append(tuple(row))
    return rows


def _gamma_entry_closed(p, a, D, l, n):
    m = p.m
    total = a[n] / (p.s[0] * p.t[n])
    for k in (n, n + 1):
        inner = 0
        for j in range(n + 1, l + 1):
            inner += binom(m + j - k - 1, j - k) * a[j]
        if inner != 0:
            sign = -1 if (k - n) % 2 else 1
            total += sign * D[k - n] / p.t[k] * inner
    for k in range(n + 2, l + 1):
        inner = 0
        for j in range(k, l + 1):
            inner += binom(m + j - k - 1, j - k) * a[j]
        if inner != 0:
            sign = -1 if (k - n) % 2 else 1
            total += sign * D[k - n] / p.t[k] * inner
    return total * p.r[n]


def gamma_dual_closed(p, a, partial_order):
    """Rows of the partial-sum triangle, entry (l, n) = sum_{j=n}^{l} a_j s_jn,
    by the bracketed closed form."""
    D = toeplitz_inverse_coeffs(p.s, partial_order)
    return [tuple(_gamma_entry_closed(p, a, D, l, n) for n in range(l + 1))
            for l in range(partial_order)]


def linf_source_autocompact_check(p, matrix, target) -> Verdict:
    """Consistency check: membership of a map out of the bounded-sequence
    source space into a null or convergent target forces compactness.

    Applicable only when the classification is decisively satisfied; a
    satisfied classification paired with a non-compact verdict is an internal
    inconsistency (a bug or a tail misdeclaration), reported loudly.
    """
    if target not in ("c0", "c"):
        raise DimensionError(f"target must be c0 or c, got {target!r}")
    report = classify_map(p, matrix, "l_inf", target)
    if report.overall.status != "satisfied":
        return Verdict("indeterminate",
                       f"membership precondition not established "
                       f"({report.overall.status}); check not applicable",
                       evidence=report)
    verdict = compactness_verdict(p, matrix, target)
    if verdict.status == "satisfied":
        return Verdict("satisfied", "consistent-compact",
                       evidence={"classification": report, "compactness": verdict})
    raise InconsistencyError(
        "membership is satisfied but the compactness verdict is "
        f"{verdict.status}: {verdict.detail}")


def run_selftest(seed=20240601, emit=print) -> bool:
    """Run the rational-backend invariant suite; True when every check passes."""
    rng = random.Random(seed)
    ok = True

    def check(name, passed):
        nonlocal ok
        emit(f"{'ok  ' if passed else 'FAIL'} {name}")
        ok = ok and passed

    order = 12
    eye = identity(order)

    passed = True
    for _ in range(10):
        p = random_params(rng, order)
        A = weighted_mean_matrix(p)
        B = weighted_mean_inverse(p)
        T = mean_difference_matrix(p)
        S = mean_difference_inverse(p)
        passed &= compose(B, A).rows == eye.rows
        passed &= compose(S, T).rows == eye.rows
        passed &= invert_triangle(T).rows == S.rows
    check("closed-form inverses reproduce the identity", passed)

    passed = True
    for _ in range(10):
        s = (nonzero_fraction(rng),) + tuple(any_fraction(rng) for _ in range(8))
        D = toeplitz_inverse_coeffs(s, 9)
        passed &= all(D[n] == coeff_via_determinant(s, n) for n in range(9))
    check("recursion coefficients match the determinant oracle", passed)

    passed = True
    for _ in range(10):
        p = random_params(rng, order)
        x = random_window(rng, order)
        y = transform(p, x)
        passed &= y.values == apply(mean_difference_matrix(p), x).values
        passed &= inverse_transform(p, y).values == x.values
        norm = space_norm(p, x)
        passed &= norm.value == max(abs(v) for v in y.values)
    check("transform round trip and norm agreement", passed)

    p = random_params(rng, order)
    passed = all(
        transform(p, basis_vector(p, j)).values == unit_sequence(order, j, p.backend).values
        for j in range(order))
    passed &= transform(p, basis_vector(p, -1)).values == (Fraction(1),) * order
    check("basis vectors map to coordinate vectors", passed)

    passed = True
    for _ in range(10):
        p = random_params(rng, order)
        a = random_zero_tail(rng, order)
        x = random_window(rng, order)
        y = transform(p, x)
        R = associate_row(p, a)
        passed &= sum(a[k] * x[k] for k in range(order)) == sum(R[k] * y[k] for k in range(order))
        passed &= list(R.values) == associate_row_closed(p, a, order)
        passed &= list(tail_sum_matrix(p, a).rows) == tail_sum_closed(p, a, order)
        C = alpha_dual_matrix(p, a)
        passed &= all(apply(C, y)[n] == a[n] * x[n] for n in range(order))
        E = gamma_dual_matrix(p, a)
        Ey = apply(E, y)
        passed &= all(Ey[l] == sum(a[n] * x[n] for n in range(l + 1)) for l in range(order))
        passed &= list(E.rows) == gamma_dual_closed(p, a, order)
    check("duality, coordinatewise and partial-sum identities", passed)

    passed = True
    for _ in range(5):
        p = random_params(rng, order)
        T = mean_difference_matrix(p)
        assoc = associate_matrix(p, T)
        passed &= all(assoc.window.entry(n, k) == (1 if n == k else 0)
                      for n in range(order) for k in range(order))
        A = random_zero_tail_rows(rng, order, order)
        x = random_window(rng, order)
        passed &= (apply(A, x).values
                   == apply(associate_matrix(p, A).window, transform(p, x)).values)
    check("associate matrices honor the coordinate change", passed)

    p = random_params(rng, order)
    A = random_zero_tail_rows(rng, 4, order)
    passed = all(chi_norm(p, A, tgt).lower == 0 and chi_norm(p, A, tgt).upper == 0
                 for tgt in ("c0", "c", "l_inf"))
    passed &= all(compactness_verdict(p, A, tgt).status == "satisfied"
                  for tgt in ("c0", "c", "l_inf"))
    eye_assoc = supplied_associate(identity(order))
    chi0 = chi_norm(p, eye_assoc, "c0")
    passed &= chi0.lower == 1 and chi0.upper == 1
    check("noncompactness gauges on finite-rank and identity associates", passed)

    # an inconsistency raises, and the selftest command exits 4 on it
    passed = all(linf_source_autocompact_check(p, A, tgt).status == "satisfied"
                 for tgt in ("c0", "c"))
    check("bounded-source membership forces compactness on a finite-rank map", passed)

    ref = random_zero_tail_rows(rng, 3, 6)
    pref = random_params(rng, 6)
    passed = True
    for cond in CONDITION_IDS:
        est = eval_condition(cond, ref, pref)
        passed &= condition_verdict(cond, est).status in ("satisfied", "violated",
                                                          "indeterminate")
    check("condition catalog is total", passed)

    emit("selftest " + ("passed" if ok else "FAILED"))
    return ok
