#!/usr/bin/env python3
"""Survey noncompactness gauges across a few operator families.

Usage: python scripts/compactness_survey.py [order]
"""

import sys
from fractions import Fraction as F

from genmeans import (
    MatrixWindow,
    PresetSpec,
    associate_matrix,
    chi_norm,
    identity,
    mean_difference_matrix,
    operator_norm,
    preset,
    supplied_associate,
    weighted_mean_matrix,
)


def survey(label, p, operand):
    norm = operator_norm(p, operand)
    row = [label, str(norm.value)]
    for target in ("c0", "c", "l_inf"):
        est = chi_norm(p, operand, target)
        row.append(f"[{est.lower}, {est.upper}] {est.verdict().status}/{est.status}")
    print("  ".join(f"{cell:<34}" for cell in row))


def main():
    order = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    p = preset(PresetSpec("euler", alpha=F(1, 2)), order, m=1)

    finite = MatrixWindow(
        ((F(1), F(2), F(0), F(-1)), (F(0), F(1, 2), F(1), F(0))), "zero")

    def decay_row(n):
        return (F(1, n + 1),)
    decaying = supplied_associate(MatrixWindow(
        tuple(decay_row(n) for n in range(order)), "structural", decay_row))

    header = ["instance", "op norm", "chi c0", "chi c", "chi l_inf"]
    print("  ".join(f"{cell:<34}" for cell in header))
    # one associate per instance: its seven gauge calls share the extension
    # and the row sums
    survey("finite rank (zero tail)", p, associate_matrix(p, finite))
    survey("composite operator (euler)", p, associate_matrix(p, mean_difference_matrix(p)))
    survey("weighted mean only (euler)", p, associate_matrix(p, weighted_mean_matrix(p)))
    survey("supplied associate: identity", p, supplied_associate(identity(order)))
    survey("supplied associate: 1/(n+1) e0", p, decaying)


if __name__ == "__main__":
    main()
