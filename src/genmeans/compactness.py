"""Associate matrices, operator norms, and compactness gauges.

A matrix A acting on a mean-difference space becomes an associate matrix
acting on the plain sequence space through the coordinate change: row n of
the associate is R(A_n), and A x equals the associate applied to the
transformed sequence.  The operator norm is the sup of the associate rows'
absolute sums, and the Hausdorff measure of noncompactness of the induced
operator is estimated from their limsup behavior: an identity for null
targets, a two-sided sandwich for convergent targets, and an upper bound
for bounded targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionError, InconsistencyError
from .limits import (
    DEFAULT_TREND_WINDOW,
    STATUS_EXACT,
    STATUS_INDET,
    LimitEstimate,
    Verdict,
    _worse_status,
    column_shifted,
    limit_of_rows,
    limsup_of_rows,
    sup_of_rows,
)
from .scalars import zero_like
from .triangle import MatrixWindow
from .conditions import SPACES, _near_zero, classify_map, transformed_rows
from .operators import check_params

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
    """Associate of a zero-tail-row matrix, built row by row from the
    defining sums R(A_n)."""
    return AssociateMatrix(transformed_rows(p, matrix))


def supplied_associate(matrix) -> AssociateMatrix:
    return AssociateMatrix(matrix)


def _resolve_associate(p, matrix_or_associate) -> AssociateMatrix:
    if isinstance(matrix_or_associate, AssociateMatrix):
        return matrix_or_associate
    return associate_matrix(p, matrix_or_associate)


def operator_norm(p, matrix_or_associate, *, trend_window=DEFAULT_TREND_WINDOW,
                  tolerance=None) -> LimitEstimate:
    """sup_n of the associate rows' absolute sums; exact when rows are
    eventually zero, windowed with trend classification otherwise.  A matrix
    gets an associate of its own per call; an ``AssociateMatrix`` shares its
    extension and cached row sums with every gauge that reads it."""
    check_params(p)
    tolerance = p.backend.tolerance if tolerance is None else tolerance
    assoc = _resolve_associate(p, matrix_or_associate).window
    return sup_of_rows(assoc, assoc.row_abs_sums, trend_window=trend_window,
                       tolerance=tolerance)


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


def _half(value):
    if isinstance(value, float):
        return value / 2
    return Fraction(value) / 2


def _gauge_inputs(p, matrix_or_associate, target, tolerance):
    """(the associate window, the tolerance) after checking p and the target."""
    check_params(p)
    if target not in TARGETS:
        raise DimensionError(f"target must be one of {TARGETS}, got {target!r}")
    return (_resolve_associate(p, matrix_or_associate).window,
            p.backend.tolerance if tolerance is None else tolerance)


def chi_norm(p, matrix_or_associate, target, *, trend_window=DEFAULT_TREND_WINDOW,
             tolerance=None) -> ChiEstimate:
    """The noncompactness gauge of the induced operator into ``target``: the
    limsup of the associate rows' absolute sums (c0; [0, limsup] for l_inf),
    or the sandwich around the column-shifted limsup (c).  A matrix gets an
    associate of its own per call; an ``AssociateMatrix`` shares its extension
    and cached row sums with every gauge that reads it."""
    assoc, tolerance = _gauge_inputs(p, matrix_or_associate, target, tolerance)

    if target != "c":
        # null target: the gauge is the limsup; bounded target: [0, limsup]
        est = limsup_of_rows(assoc, assoc.row_abs_sums, trend_window=trend_window,
                             tolerance=tolerance)
        zero = zero_like(est.value) if est.value is not None else 0
        return ChiEstimate(target, est.value if target == "c0" else zero, est.value, None,
                           est.status, est.trend, est.window, est.trace, est.note)

    # convergent target: sandwich around the column-shifted limsup
    cols, est = column_shifted(assoc, limsup_of_rows, trend_window, tolerance)
    if est is None:
        return ChiEstimate("c", None, None, None, STATUS_INDET, cols.trend,
                           note="per-column limits unresolved")
    alphas = cols.value
    if est.value is None:
        return ChiEstimate("c", None, None, tuple(alphas), STATUS_INDET, est.trend,
                           est.window, est.trace, est.note)
    status = est.status if cols.status == STATUS_EXACT else _worse_status(est.status, cols.status)
    return ChiEstimate("c", _half(est.value), est.value, tuple(alphas), status, est.trend,
                       est.window, est.trace, est.note)


def compactness_verdict(p, matrix_or_associate, target, *,
                        trend_window=DEFAULT_TREND_WINDOW, tolerance=None) -> Verdict:
    """Compact iff the gauge-driving limit vanishes: the rows' absolute sums
    for null/bounded targets, the column-shifted sums for convergent targets.
    For a bounded target a vanishing limit is only sufficient (the gauge is
    bracketed by [0, L]), so a nonzero limit there stays indeterminate.
    Decisive only under decisive tails; never a guess.  A matrix gets an
    associate of its own per call; an ``AssociateMatrix`` shares its extension
    and cached row sums with every gauge that reads it."""
    assoc, tolerance = _gauge_inputs(p, matrix_or_associate, target, tolerance)

    if target == "c":
        cols, est = column_shifted(assoc, limsup_of_rows, trend_window, tolerance)
        if est is None:
            return Verdict("indeterminate", "per-column limits unresolved", evidence=cols)
    else:
        est = limit_of_rows(assoc, assoc.row_abs_sums, trend_window=trend_window,
                            tolerance=tolerance)

    if est.status == STATUS_INDET:
        return Verdict("indeterminate",
                       est.note or "tail trace does not decide the limit", evidence=est)
    value = est.value
    if _near_zero(value, est.status, tolerance):
        return Verdict("satisfied", f"compact ({est.status}): limit vanishes", evidence=est)
    if target == "l_inf":
        return Verdict("indeterminate",
                       f"chi bracket [0, {value}] ({est.status}): a nonzero limit does not "
                       "decide compactness into l_inf", evidence=est)
    return Verdict("violated", f"not compact ({est.status}): limit {value} is nonzero",
                   evidence=est)


def linf_source_autocompact_check(p, matrix, target, *,
                                  trend_window=DEFAULT_TREND_WINDOW,
                                  tolerance=None) -> Verdict:
    """Consistency check: membership of a map out of the bounded-sequence
    source space into a null or convergent target forces compactness.

    Applicable only when the classification is decisively satisfied; a
    satisfied classification paired with a non-compact verdict is an internal
    inconsistency (a bug or a tail misdeclaration), reported loudly.
    """
    check_params(p)
    if target not in ("c0", "c"):
        raise DimensionError(f"target must be c0 or c, got {target!r}")
    report = classify_map(p, matrix, "l_inf", target, trend_window=trend_window,
                          tolerance=tolerance)
    if report.overall.status != "satisfied":
        return Verdict("indeterminate",
                       f"membership precondition not established "
                       f"({report.overall.status}); check not applicable",
                       evidence=report)
    verdict = compactness_verdict(p, matrix, target, trend_window=trend_window,
                                  tolerance=tolerance)
    if verdict.status == "satisfied":
        return Verdict("satisfied", "consistent-compact",
                       evidence={"classification": report, "compactness": verdict})
    raise InconsistencyError(
        "membership is satisfied but the compactness verdict is "
        f"{verdict.status}: {verdict.detail}")


__all__ = [
    "AssociateMatrix", "ChiEstimate", "TARGETS",
    "associate_matrix", "supplied_associate",
    "operator_norm", "chi_norm", "compactness_verdict",
    "linf_source_autocompact_check",
]
