"""Matrix-class condition catalog and source/target classification.

The catalog holds two families.  Ids 4.4-4.11 are the classical conditions
on a raw infinite matrix that characterize maps between the bounded,
convergent and null sequence spaces.  Ids 4.13-4.25 are the same conditions
transported through the mean-difference coordinate change.  Most are their
raw twin run on the associate rows R_k(A_n) (``ON_ASSOCIATE``), which
``duality.associate_window`` builds and ``transformed_rows`` keeps on the
source window, one per triple, so every classification and gauge of one
operator reads one associate; 4.24 is the sup of the associate's held
|row total| trace; the rest are per-row on the tail-sum triangles, certified
by the finite support of every source row and the row-tail declaration, with
no triangle built.  How a tail declaration reads a trace
(``limits._tail_rule``) and whether a limit is zero (``limits.vanishes``) are
decided in ``limits`` alone, each in one function; 4.7, 4.9 and 4.10 read the
window's column limits, ``MatrixWindow.columns``.  Every id maps to exactly one evaluator and the
table is exhaustive.  A verdict carries no evidence: its estimate is the one
record of the number it was decided on.  The space parameters are valid by
construction, so no evaluator checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DimensionError, ParameterError
from .limits import (
    STATUS_EXACT,
    STATUS_INDET,
    TREND_EXACT,
    TREND_SHORT,
    LimitEstimate,
    Verdict,
    limit_of_rows,
    subset_column_sup,
    sup_of_rows,
    vanishes,
)
from .triangle import UNKNOWN_TAIL, MatrixWindow
from .duality import associate_window

SPACES = ("c0", "c", "l_inf")

RAW_CONDITION_IDS = ("4.4", "4.5", "4.6", "4.7", "4.8", "4.9", "4.10", "4.11")
TRANSFORMED_CONDITION_IDS = ("4.13", "4.14", "4.15", "4.16", "4.17", "4.18",
                             "4.19", "4.20", "4.21", "4.22", "4.23", "4.24", "4.25")
CONDITION_IDS = RAW_CONDITION_IDS + TRANSFORMED_CONDITION_IDS
# transported conditions: the raw twin run on the associate rows R(A_n).
# 4.24 reads the associate rows as sup_n |sum_k R_k(A_n)|; the others (4.15,
# 4.16, 4.19, 4.21, 4.22) are per-row tail-sum conditions
ON_ASSOCIATE = {"4.13": "4.5", "4.14": "4.7", "4.17": "4.9", "4.18": "4.6",
                "4.20": "4.10", "4.23": "4.8", "4.25": "4.11"}
_ASSOCIATE_IDS = (*ON_ASSOCIATE, "4.24")
_SHIFTED_MEMBERSHIP_IDS = ("4.23", "4.24", "4.25")

CONDITION_SUMMARY = {
    "4.4": "sup over finite column sets of the column-group absolute row totals is finite",
    "4.5": "row absolute sums are uniformly bounded",
    "4.6": "row absolute sums vanish",
    "4.7": "every column vanishes",
    "4.8": "signed row sums vanish",
    "4.9": "every column converges",
    "4.10": "rows converge absolutely to the column limits",
    "4.11": "signed row sums converge",
    "4.13": "associate-row absolute sums are uniformly bounded",
    "4.14": "every associate-row column vanishes",
    "4.15": "tail-sum rows are uniformly summable, per source row",
    "4.16": "tail sums vanish columnwise, per source row",
    "4.17": "every associate-row column converges",
    "4.18": "associate-row absolute sums vanish",
    "4.19": "absolute tail-sum rows vanish, per source row",
    "4.20": "associate rows converge absolutely to the column limits",
    "4.21": "tail sums converge columnwise, per source row",
    "4.22": "total tail sums converge, per source row",
    "4.23": "associate row totals minus their stable tail sums vanish",
    "4.24": "associate row totals minus their stable tail sums stay bounded",
    "4.25": "associate row totals minus their stable tail sums converge",
}

# predicate each estimate is tested against
_FINITE = "finite"
_ZERO = "zero"
_EXISTS = "exists"

CONDITION_PREDICATE = {
    "4.4": _FINITE, "4.5": _FINITE, "4.6": _ZERO, "4.7": _ZERO,
    "4.8": _ZERO, "4.9": _EXISTS, "4.10": _ZERO, "4.11": _EXISTS,
    "4.13": _FINITE, "4.14": _ZERO, "4.15": _FINITE, "4.16": _ZERO,
    "4.17": _EXISTS, "4.18": _ZERO, "4.19": _ZERO, "4.20": _ZERO,
    "4.21": _EXISTS, "4.22": _EXISTS, "4.23": _ZERO, "4.24": _FINITE,
    "4.25": _EXISTS,
}

# condition sets per (source, target) pair
REQUIRED_CONDITIONS = {
    ("c0", "c0"): ("4.13", "4.14", "4.15", "4.16"),
    ("c0", "c"): ("4.13", "4.15", "4.16", "4.17"),
    ("c0", "l_inf"): ("4.13", "4.15", "4.16"),
    ("l_inf", "c0"): ("4.18", "4.19"),
    ("l_inf", "c"): ("4.13", "4.17", "4.19", "4.20"),
    ("l_inf", "l_inf"): ("4.13", "4.19"),
    ("c", "c0"): ("4.13", "4.14", "4.15", "4.21", "4.22", "4.23"),
    ("c", "c"): ("4.13", "4.15", "4.17", "4.21", "4.22", "4.25"),
    ("c", "l_inf"): ("4.13", "4.15", "4.21", "4.22", "4.24"),
}

SHIFTED_MEMBERSHIP_NOTE = (
    "conditions 4.23-4.25 are read as membership of the scalar sequence "
    "n -> (sum_k R_k(A_n)) - gamma_n in the stated space")


def transformed_rows(p, matrix) -> MatrixWindow:
    """The matrix with rows R(A_n), ``duality.associate_window`` of the source
    window, derived once per source window like its extension: the window holds
    the latest triple and its associate, so a later call with that triple
    returns the same window."""
    held, assoc = vars(matrix).get("_associate", (None, None))
    if held is not p:
        assoc = associate_window(p, matrix)
        matrix._associate = p, assoc
    return assoc


def _per_row_tail_condition(window, cond):
    """Conditions quantified per source row over its tail-sum triangle.

    Each source row is a finite support, so its tail-sum triangle vanishes
    past the support: per-row limits are exact and every tail-sum row is
    bounded.  The universal quantifier over rows is certified by the row-tail
    declaration (zero and structural tails generate finitely supported rows;
    unknown tails cannot certify).  Nothing here builds a triangle: 4.15's
    bound is never read by its verdict, and ``duality.tail_sum_matrix`` gives
    one row's triangle on request."""
    kind = {_FINITE: "sup", _EXISTS: "exists"}.get(CONDITION_PREDICATE[cond], "lim")
    if window.row_tail == UNKNOWN_TAIL:
        return LimitEstimate(kind, None, STATUS_INDET, TREND_SHORT,
                             note="row tail undeclared; per-row conditions not certifiable")
    if cond == "4.15":
        return LimitEstimate(kind, None, STATUS_EXACT, TREND_EXACT,
                             note="each source row is finitely supported, so its tail-sum "
                                  "rows are bounded (duality.tail_sum_matrix gives a "
                                  "row's triangle)")
    # past the support the tail sums vanish columnwise, in absolute row sums
    # and in total, so 4.16/4.19/4.21/4.22 hold with exact limit 0
    n = window.stored
    return LimitEstimate(kind, 0, STATUS_EXACT, TREND_EXACT, tuple(range(n)), (0,) * n,
                         note="per-row quantities are finite computations on zero-tail rows")


def _raw_condition(cond, window):
    """Raw condition cond in 4.4-4.11 on a matrix window."""
    if cond == "4.4":
        return subset_column_sup(window)
    if cond == "4.5":
        return sup_of_rows(window, window.row_abs_sums)
    if cond == "4.6":
        return limit_of_rows(window, window.row_abs_sums)
    if cond == "4.7":
        return window.columns
    if cond == "4.8":
        return limit_of_rows(window, window.row_sums)
    if cond == "4.9":
        return replace(window.columns, kind="exists")
    if cond == "4.10":
        trace = window.shifted_abs_sums
        if trace is None:
            return LimitEstimate("lim", None, STATUS_INDET, window.columns.trend,
                                 note="column limits unresolved")
        return limit_of_rows(window, trace)
    return limit_of_rows(window, window.row_sums, kind="exists")


def eval_condition(cond, matrix, params=None) -> LimitEstimate:
    """Evaluate one catalog condition on a matrix window.

    Ids 4.4-4.11 read the window directly.  Ids 4.13-4.25 are conditions on
    the transformed objects and need the space parameters.
    """
    if cond not in CONDITION_IDS:
        raise DimensionError(f"unknown condition id {cond!r}")
    if cond in RAW_CONDITION_IDS:
        return _raw_condition(cond, matrix)
    if params is None:
        raise ParameterError([f"condition {cond} needs the space parameters"])
    assoc = transformed_rows(params, matrix) if cond in _ASSOCIATE_IDS else None
    return _transformed_condition(cond, params, matrix, assoc)


def _transformed_condition(cond, p, window, assoc):
    """Condition cond in 4.13-4.25 on a source window, reading the associate
    rows ``assoc = transformed_rows(p, window)`` where the condition needs them."""
    if cond == "4.24":
        est = sup_of_rows(assoc, assoc.row_sum_magnitudes)
    elif cond in ON_ASSOCIATE:
        est = _raw_condition(ON_ASSOCIATE[cond], assoc)
    else:
        return _per_row_tail_condition(window, cond)
    if cond in _SHIFTED_MEMBERSHIP_IDS:
        # gamma_n = 0 on the finite supports of the source rows
        est = replace(est, note="; ".join(filter(None, (est.note, SHIFTED_MEMBERSHIP_NOTE))))
    return est


def condition_verdict(cond, estimate) -> Verdict:
    """Map an estimate to satisfied / violated / indeterminate for its predicate."""
    predicate = CONDITION_PREDICATE[cond]
    if estimate.status == STATUS_INDET:
        return Verdict("indeterminate",
                       f"{cond}: {estimate.note or 'tail does not decide the limit'}")
    if predicate == _FINITE:
        return Verdict("satisfied", f"{cond}: bounded ({estimate.status})")
    if predicate == _EXISTS:
        return Verdict("satisfied", f"{cond}: limit exists ({estimate.status})")
    if vanishes(estimate.value, estimate.status):
        return Verdict("satisfied", f"{cond}: limit is zero ({estimate.status})")
    return Verdict("violated", f"{cond}: limit {estimate.value} is nonzero ({estimate.status})")


@dataclass(frozen=True)
class ClassReport:
    """Outcome of a source/target classification: per-condition estimates and
    verdicts plus the aggregated overall verdict."""

    source: str
    target: str
    estimates: dict
    verdicts: dict
    overall: Verdict
    notes: tuple = ()


def classify_map(p, matrix, source, target) -> ClassReport:
    """Evaluate the exact condition set for the (source, target) pair and aggregate.

    Overall is satisfied only when every required condition is satisfied at a
    decisive status; any indeterminate condition forces an indeterminate
    overall verdict.
    """
    if source not in SPACES or target not in SPACES:
        raise DimensionError(f"source and target must be in {SPACES}")
    required = REQUIRED_CONDITIONS[(source, target)]
    # every pair needs 4.13 or 4.18: read the window's associate once for all of them
    assoc = transformed_rows(p, matrix)
    estimates = {cond: _transformed_condition(cond, p, matrix, assoc) for cond in required}
    verdicts = {cond: condition_verdict(cond, est) for cond, est in estimates.items()}
    notes = (SHIFTED_MEMBERSHIP_NOTE,) if set(required) & set(_SHIFTED_MEMBERSHIP_IDS) else ()
    summary = {cond: verdicts[cond].status for cond in required}
    if any(v.status == "violated" for v in verdicts.values()):
        overall = Verdict("violated",
                          "violated: " + ", ".join(c for c, v in verdicts.items()
                                                   if v.status == "violated"),
                          evidence=summary)
    elif any(v.status == "indeterminate" for v in verdicts.values()):
        overall = Verdict("indeterminate",
                          "indeterminate: " + ", ".join(c for c, v in verdicts.items()
                                                        if v.status == "indeterminate"),
                          evidence=summary)
    else:
        overall = Verdict("satisfied", f"all of {', '.join(required)} hold",
                          evidence=summary)
    return ClassReport(source, target, estimates, verdicts, overall, notes)


__all__ = [
    "CONDITION_IDS", "RAW_CONDITION_IDS", "TRANSFORMED_CONDITION_IDS",
    "CONDITION_SUMMARY", "CONDITION_PREDICATE", "REQUIRED_CONDITIONS",
    "ON_ASSOCIATE", "SHIFTED_MEMBERSHIP_NOTE", "SPACES",
    "eval_condition", "condition_verdict", "classify_map", "ClassReport",
    "transformed_rows",
]
