from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from genmeans import MatrixWindow, identity_triple
from genmeans.compactness import compactness_verdict, operator_norm, supplied_associate
from genmeans.limits import STATUS_INDET, STATUS_TREND, analyze_tail

# q -> lim q^n, or None when the powers have no limit
GEOMETRIC_LIMITS = {F(1, 2): 0, F(-1, 2): 0, F(1): 1, F(-1): None, F(2): None, F(-2): None}


@given(st.sampled_from(sorted(GEOMETRIC_LIMITS)), st.integers(min_value=0, max_value=20),
       st.integers(min_value=3, max_value=60), st.integers(min_value=3, max_value=12))
def test_decisive_status_on_geometric_traces_matches_the_truth(q, start, length, window):
    indices = range(start, start + length)
    status, trend, value = analyze_tail(indices, [q ** n for n in indices], window)
    limit = GEOMETRIC_LIMITS[q]
    if status == STATUS_INDET:
        assert value is None
        return
    assert status == STATUS_TREND
    assert limit is not None, f"{q}^n has no limit but the ladder says {trend} {value}"
    assert abs(float(value) - limit) <= 1e-9


def test_diverging_structural_associate_is_not_decided():
    p = identity_triple(4)
    for q in (2, -2):
        def row_fn(n, q=q):
            return (F(q) ** n,)

        assoc = supplied_associate(MatrixWindow(tuple(row_fn(n) for n in range(8)),
                                                "structural", row_fn))
        assert operator_norm(p, assoc).status == STATUS_INDET
        assert compactness_verdict(p, assoc, "c0").status == "indeterminate"
