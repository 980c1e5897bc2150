"""Schauder basis synthesis and the alpha/beta/gamma-dual associate objects.

The coordinate basis of the transformed space pulls back through the inverse
of the composite operator: basis vector j is column j of that inverse, and
the extra vector indexed -1 (for the convergent-sequence space) is its row
sums.  The dual machinery revolves around the associate row R_k(a), the
source row against the inverse columns, one integer product with c = 1/s
per row, built only by ``associate_window``: a window's associate, and
``associate_row`` as row 0 of a one-row window's.  Every object reads all
rows of a call off one sized kernel (``operators._InverseKernel``) on the
exact twin, a float row read exactly by ``common_denominator``; the
tail-sum and alpha/gamma dual triangles are running sums of its rows
a_j T^{-1}_j.  Every window here is built from its rows' forms, each row
lowered past the float boundary once (``_lower``).  Every dual/associate
input must declare a zero tail so each series is a finite sum; anything
else is rejected, not extrapolated.  ``dual_membership`` reads no kernel: a
finitely supported sequence lies in every dual, its zero tail the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add

from .errors import DimensionError
from .limits import Verdict
from .scalars import common_denominator
from .triangle import (
    STRUCTURAL_TAIL,
    UNKNOWN_TAIL,
    ZERO_TAIL,
    MatrixWindow,
    SequenceWindow,
    TriangleMatrix,
    ones_sequence,
    seq_sub,
    span_form,
    support_of,
    unit_sequence,
)
from .operators import (
    NormResult,
    _InverseKernel,
    _add_rows,
    exact_twin,
    inverse_transform,
    space_norm,
    transform,
)


def basis_vector(p, j) -> SequenceWindow:
    """Basis element b^(j); transform(p, b^(j)) is the j-th coordinate vector
    (or the all-ones sequence for the special index j = -1)."""
    if j >= p.order or j < -1:
        raise DimensionError(f"basis index {j} outside [-1, {p.order})")
    e = ones_sequence(p.order, p.backend) if j == -1 else unit_sequence(p.order, j, p.backend)
    return inverse_transform(p, e)


@dataclass(frozen=True)
class Reconstruction:
    partial: SequenceWindow
    residual: NormResult
    coefficients: tuple
    limit_proxy: object = None       # proxy for the transform limit (space "c" only)
    limit_is_proxy: bool = False     # True: taken from the last window coordinate


def reconstruct(p, x, partial_order, space="c0") -> Reconstruction:
    """Partial basis expansion of x up to index ``partial_order`` and its residual norm.

    For the convergent-sequence space the expansion needs the limit of the
    transformed coordinates, which a finite window cannot observe; the last
    coordinate stands in for it and the result is flagged accordingly.
    """
    if not 0 <= partial_order < p.order:
        raise DimensionError(f"partial-sum order {partial_order} must lie in 0..{p.order - 1}")
    if space not in ("c0", "c"):
        raise DimensionError(f"reconstruction space must be c0 or c, got {space!r}")
    q, out = exact_twin(p)
    x = SequenceWindow(map(Fraction, x.values), x.tail)
    y = transform(q, x)
    # the partial sum is the preimage of y cut after partial_order, padded
    # with 0 (c0) or with the limit proxy ell (c): sum_j c_j b^(j) + ell b^(-1)
    ell = y[p.order - 1] if space == "c" else 0
    cut = y.values[:partial_order + 1] + (ell,) * (p.order - partial_order - 1)
    partial = inverse_transform(q, SequenceWindow(cut))
    residual = space_norm(q, seq_sub(x, partial))
    def lower(v):
        return out(*v.as_integer_ratio())
    return Reconstruction(SequenceWindow(map(lower, partial), partial.tail),
                          NormResult(lower(residual.value), residual.arg_index, residual.exact),
                          tuple(lower(v - ell) for v in cut[:partial_order + 1]),
                          lower(ell) if space == "c" else None, space == "c")


def _kernel(p, forms):
    """(one kernel sized to the longest support of the rows of integer forms
    ``forms``, out): every object here reads its rows off this."""
    q, out = exact_twin(p)
    return _InverseKernel(q, max((start + len(ints) for start, ints, *_ in forms), default=0)), out


def _form(values):
    """The integer form (0, ints, den) of a value row up to its support, a float
    read exactly: what the kernel takes."""
    return (0, *common_denominator(values[:support_of(values)]))


def _lower(out, width, ints, den):
    """The form of the row ints / den past the float boundary ``out``: its support
    span on the exact backend; on f64 its floats, padded with 0.0 to ``width``."""
    if out is Fraction:
        return span_form(ints, den)
    return 0, tuple(map(out, ints, repeat(den))) + (0.0,) * (width - len(ints)), None


def _dual_triangle(p, a, dual, tail):
    """The alpha, gamma or beta triangle of the values a, off one kernel's
    ``inverse_rows()`` on integers over one denominator: the rows a_j T^{-1}_j,
    their prefix sums (gamma) or suffix sums cut after entry p in row p (beta,
    the tail sums); built from the rows' forms (``_lower``)."""
    kernel, out = _kernel(p, (_form(a),))
    (rows, den), (nums, da) = kernel.inverse_rows(), common_denominator(a)
    rows = ([[x * v for v in row] for x, row in zip(nums, rows)]
            + [[0] * (j + 1) for j in range(len(rows), len(a))])
    if dual == "gamma":
        rows = list(accumulate(rows, _add_rows))
    elif dual == "beta":
        rows = list(accumulate(reversed(rows), lambda w, row: list(map(add, w, row))))[::-1]
    return TriangleMatrix._of_forms([_lower(out, len(row), row, den * da) for row in rows], tail)


def associate_window(p, window) -> MatrixWindow:
    """The window of rows R(A_n) for the rows A_n of ``window``, the one builder of
    an associate: its stored rows, and a structural source with a generator also
    its extension up to the capacity of the exact twin, all mapped off one kernel
    sized to the longest support, each row read off its form (a float row read
    exactly) and lowered as wide as its source row (``_lower``).  The row tail
    propagates; a generated associate row is read off that tuple alone, up to its
    capacity, so the associate holds no reference to its source.  A support past
    the twin's capacity raises ``DimensionError``."""
    generated = window.row_tail == STRUCTURAL_TAIL and window.row_fn is not None
    stop = window.stored
    if generated:
        stop = max(stop, min(exact_twin(p)[0].capacity, len(window.integer_rows)))
    forms = [form if form[2] else _form(form[1]) for form in window.integer_rows[:stop]]
    kernel, out = _kernel(p, forms)
    widths = tuple(map(window.row_width, range(stop)))
    assoc = tuple(_lower(out, w, *kernel.associate(form)) for w, form in zip(widths, forms))
    return MatrixWindow._of_forms(assoc[:window.stored], window.row_tail,
                                  assoc.__getitem__ if generated else None,
                                  stop if generated else window.capacity, width=widths.__getitem__)


def associate_row(p, a) -> SequenceWindow:
    """R_k(a) = sum_{j>=k} a_j s_{jk}, the source row against the inverse
    columns: with b the m reverse running sums of a, R_k = r_k sum_{j>=k}
    b_j c_{j-k} / t_j for the reciprocal series c = 1/s, one integer product
    per entry.  R vanishes past the support of a, so it has a zero tail: it is
    row 0 of the associate of the one-row zero-tail window of a.

    The defining sum over the dense inverse and the closed form are oracles
    for this route in the tests and in ``selfcheck``.
    """
    a.require_zero_tail("dual/associate input")
    return SequenceWindow(associate_window(p, MatrixWindow((a.values,), ZERO_TAIL)).rows[0],
                          ZERO_TAIL)


def tail_sum_matrix(p, a) -> TriangleMatrix:
    """Triangle of tail sums w_pk = sum_{j>=p} a_j s_{jk} for 0 <= k <= p:
    row p is the suffix sum of the rows a_j T^{-1}_j for j >= p, cut after
    entry p.  Rows vanish once p passes the support of a, so the triangle has
    a zero tail.  ``selfcheck`` holds the closed-form oracle.
    """
    a.require_zero_tail("dual/associate input")
    return _dual_triangle(p, a.values, "beta", ZERO_TAIL)


def alpha_dual_matrix(p, a) -> TriangleMatrix:
    """Row-scaled inverse: entry (n, j) = s_nj a_n, so that the coordinatewise
    products a_n x_n appear as the rows of this matrix applied to the
    transformed sequence.  Row n is a_n T^{-1}_n."""
    if len(a) != p.order:
        raise DimensionError(f"sequence length {len(a)} does not match order {p.order}")
    tail = ZERO_TAIL if a.tail == ZERO_TAIL else UNKNOWN_TAIL
    return _dual_triangle(p, a.values, "alpha", tail)


def gamma_dual_matrix(p, a, partial_order=None) -> TriangleMatrix:
    """Triangle E with (Ey)_l = sum_{n<=l} a_n x_n for linked x, y.

    Row l, column n holds the partial associate sum sum_{j=n}^{l} a_j s_jn:
    row l is the prefix sum of the rows a_j T^{-1}_j for j <= l.  Its
    bracketed closed form is an oracle in ``selfcheck``.
    """
    L = p.order if partial_order is None else partial_order
    if not 0 <= L <= p.order:
        raise DimensionError(f"partial-sum order {L} must lie in 0..{p.order}")
    if len(a) < L:
        raise DimensionError(f"sequence length {len(a)} shorter than partial-sum order {L}")
    tail = ZERO_TAIL if a.tail == ZERO_TAIL else UNKNOWN_TAIL
    return _dual_triangle(p, a.values[:L], "gamma", tail)


def dual_membership(p, a, dual, space="c0") -> Verdict:
    """Membership of a zero-tail sequence in the alpha/beta/gamma dual.

    A finitely supported a lies in every dual of every space: each series
    sum_k a_k x_k is a finite sum.  So a zero tail is its own certificate, and
    the verdict is ``satisfied`` with the index from which a vanishes and no
    evidence; no kernel is built.  Any other tail yields an indeterminate
    verdict with an explanation rather than a guess.  A zero-tail sequence
    must have length ``p.order``.
    """
    if dual not in ("alpha", "beta", "gamma"):
        raise DimensionError(f"dual must be alpha, beta or gamma, got {dual!r}")
    if space not in ("c0", "c", "l_inf"):
        raise DimensionError(f"space must be c0, c or l_inf, got {space!r}")
    if a.tail != ZERO_TAIL:
        return Verdict(
            "indeterminate",
            "input tail is undeclared; infinite-support membership is out of scope",
            evidence={"tail": a.tail})
    if len(a) != p.order:
        raise DimensionError(f"sequence length {len(a)} does not match order {p.order}")
    return Verdict("satisfied", f"finite support: the input vanishes from index {a.support}, "
                                "so sum_k a_k x_k is a finite sum for every x")


__all__ = [
    "Reconstruction", "basis_vector", "reconstruct", "associate_row", "tail_sum_matrix",
    "alpha_dual_matrix", "gamma_dual_matrix", "dual_membership",
]
