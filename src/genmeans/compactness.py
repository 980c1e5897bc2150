"""Associate matrices, operator norms, and compactness gauges.

A matrix A acting on a mean-difference space becomes an associate matrix
acting on the plain sequence space through the coordinate change: row n of
the associate is R(A_n), and A x equals the associate applied to the
transformed sequence.  The operator norm is the sup of the associate rows'
absolute sums, and the Hausdorff measure of noncompactness of the induced
operator is estimated from their limsup behavior: an identity for null
targets, a two-sided sandwich for convergent targets, and an upper bound
for bounded targets.  The compactness verdict is read off that estimate
alone, by ``ChiEstimate.verdict`` with the one zero test ``limits.vanishes``;
the convergent target reads the window's column-shifted trace once
(``MatrixWindow.shifted_abs_sums``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionError
from .limits import STATUS_INDET, LimitEstimate, Verdict, limsup_of_rows, sup_of_rows, vanishes
from .scalars import zero_like
from .triangle import MatrixWindow
from .conditions import SPACES, transformed_rows

TARGETS = SPACES


@dataclass(frozen=True)
class AssociateMatrix:
    """Rows R(A_n), computed through the coordinate change or supplied
    directly by the caller (so the gauge formulas can be exercised
    independently of the transform pipeline).  The gauges below read one
    window, so its structural extension is generated, and its rows summed,
    once for all of them."""

    window: MatrixWindow


def associate_matrix(p, matrix) -> AssociateMatrix:
    """Associate of a zero-tail-row matrix from the defining sums R(A_n),
    built once per triple and kept on the matrix window."""
    return AssociateMatrix(transformed_rows(p, matrix))


def supplied_associate(matrix) -> AssociateMatrix:
    return AssociateMatrix(matrix)


def _resolve_associate(p, matrix_or_associate) -> AssociateMatrix:
    if isinstance(matrix_or_associate, AssociateMatrix):
        return matrix_or_associate
    return associate_matrix(p, matrix_or_associate)


def operator_norm(p, matrix_or_associate) -> LimitEstimate:
    """sup_n of the associate rows' absolute sums; exact when rows are
    eventually zero, windowed with trend classification otherwise.  A matrix
    reads the associate kept on its window, as an ``AssociateMatrix`` does, so
    every gauge and classification of one operator shares its row sums."""
    assoc = _resolve_associate(p, matrix_or_associate).window
    return sup_of_rows(assoc, assoc.row_abs_sums)


@dataclass(frozen=True)
class ChiEstimate:
    """Two-sided estimate of the noncompactness gauge of the induced operator.

    Null target: lower = upper (the gauge identity).  Convergent target:
    the sandwich [L/2, L] around the column-shifted limsup L, with the
    per-column limit sequence reported.  Bounded target: [0, limsup].
    """

    target: str
    lower: object
    upper: object
    alpha_tilde: Optional[tuple]
    status: str
    trend: str
    window: tuple = ()
    trace: tuple = ()
    note: str = ""

    def verdict(self) -> Verdict:
        """Compactness read off this estimate, whose upper end L is the limsup
        behind the gauge chi.  Into c0, chi = L; into c, L/2 <= chi <= L:
        compact iff L vanishes, so a nonzero L is "violated".  Into l_inf,
        0 <= chi <= L: a vanishing L proves compactness and a nonzero one
        decides nothing.  An indeterminate estimate gives an indeterminate
        verdict, with the estimate's note; never a guess.  The verdict carries
        no evidence: the estimate is the one record of its number.  A method,
        not a field, so that a serialized estimate does not carry it."""
        if self.status == STATUS_INDET:
            return Verdict("indeterminate", self.note)
        if vanishes(self.upper, self.status):
            return Verdict("satisfied", f"compact ({self.status}): limit vanishes")
        if self.target == "l_inf":
            return Verdict("indeterminate",
                           f"chi bracket [0, {self.upper}] ({self.status}): a nonzero limit "
                           "does not decide compactness into l_inf")
        return Verdict("violated", f"not compact ({self.status}): limit {self.upper} is nonzero")


def chi_norm(p, matrix_or_associate, target) -> ChiEstimate:
    """The noncompactness gauge of the induced operator into ``target``: the
    limsup of the associate rows' absolute sums (c0; [0, limsup] for l_inf),
    or the sandwich around the column-shifted limsup (c).  A matrix reads the
    associate kept on its window, as an ``AssociateMatrix`` does, so every
    gauge and classification of one operator shares its row sums."""
    if target not in TARGETS:
        raise DimensionError(f"target must be one of {TARGETS}, got {target!r}")
    assoc = _resolve_associate(p, matrix_or_associate).window

    if target != "c":
        # null target: the gauge is the limsup; bounded target: [0, limsup]
        est = limsup_of_rows(assoc, assoc.row_abs_sums)
        zero = zero_like(est.value) if est.value is not None else 0
        return ChiEstimate(target, est.value if target == "c0" else zero, est.value, None,
                           est.status, est.trend, est.window, est.trace, est.note)

    # convergent target: sandwich around the column-shifted limsup; the column
    # limits are exact only on a zero tail, where the limsup is exact too, and
    # trend-converged otherwise, never better than the limsup's status
    cols, trace = assoc.columns, assoc.shifted_abs_sums
    if trace is None:
        return ChiEstimate("c", None, None, None, STATUS_INDET, cols.trend,
                           note="per-column limits unresolved")
    est = limsup_of_rows(assoc, trace)
    alphas = cols.value
    if est.value is None:
        return ChiEstimate("c", None, None, alphas, STATUS_INDET, est.trend,
                           est.window, est.trace, est.note)
    half = est.value / 2 if isinstance(est.value, float) else Fraction(est.value) / 2
    return ChiEstimate("c", half, est.value, alphas, est.status, est.trend,
                       est.window, est.trace, est.note)


def compactness_verdict(p, matrix_or_associate, target) -> Verdict:
    """``chi_norm(p, matrix_or_associate, target).verdict()``: callers that
    report the estimate too read its verdict off it instead."""
    return chi_norm(p, matrix_or_associate, target).verdict()


__all__ = [
    "AssociateMatrix", "ChiEstimate", "TARGETS",
    "associate_matrix", "supplied_associate",
    "operator_norm", "chi_norm", "compactness_verdict",
]
