"""Finite-truncation operator algebra for mean-difference sequence spaces.

Finite sequence and matrix windows over exact-rational and float backends,
the weighted-mean / difference operator constructions with transforms by
triangular substitution and associate rows from the reciprocal series of s,
Schauder basis and dual machinery, a matrix-class condition catalog, and
Hausdorff-noncompactness gauges — everything computed on finite windows with
declared tail behavior.  The dense triangle algebra and the closed-form
inverses are oracles in ``genmeans.selfcheck``, not exported here.
"""

from .scalars import Backend, FLOAT64, RATIONAL, TOLERANCE, backend_for
from .errors import (
    DimensionError,
    GenmeansError,
    GuardError,
    InconsistencyError,
    ParameterError,
    SchemaError,
    SingularTriangleError,
    TailError,
)
from .triangle import (
    MatrixWindow,
    SequenceWindow,
    TriangleMatrix,
    STRUCTURAL_TAIL,
    UNKNOWN_TAIL,
    ZERO_TAIL,
    apply,
    identity,
    ones_sequence,
    seq_sub,
    unit_sequence,
)
from .operators import (
    NormResult,
    ParameterTriple,
    PresetSpec,
    PRESET_NAMES,
    identity_triple,
    inverse_transform,
    mean_difference_matrix,
    preset,
    space_norm,
    transform,
    weighted_mean_matrix,
)
from .duality import (
    Reconstruction,
    alpha_dual_matrix,
    associate_row,
    basis_vector,
    dual_membership,
    gamma_dual_matrix,
    reconstruct,
    tail_sum_matrix,
)
from .limits import LimitEstimate, Verdict, analyze_tail
from .conditions import (
    CONDITION_IDS,
    CONDITION_SUMMARY,
    ClassReport,
    REQUIRED_CONDITIONS,
    classify_map,
    condition_verdict,
    eval_condition,
    transformed_rows,
)
from .compactness import (
    AssociateMatrix,
    ChiEstimate,
    associate_matrix,
    chi_norm,
    compactness_verdict,
    operator_norm,
    supplied_associate,
)

__version__ = "0.1.0"
