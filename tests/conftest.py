from fractions import Fraction

from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st

settings.register_profile(
    "desk",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")

# For the oracle tests over whole parameter triples: shrinking a failure there
# runs into Hypothesis's five-minute cap for every parametrized case, so these
# tests report the first falsifying example unshrunk.
no_shrink = settings(phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))

# small rationals keep exact products cheap while exercising sign mixes
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_fractions = small_fractions.filter(bool)


@st.composite
def fraction_windows(draw, length, zero_free=False):
    elem = nonzero_fractions if zero_free else small_fractions
    return tuple(draw(elem) for _ in range(length))


@st.composite
def lower_triangles(draw, max_order=8):
    """Random invertible rational triangle."""
    from genmeans import TriangleMatrix

    order = draw(st.integers(min_value=1, max_value=max_order))
    rows = []
    for n in range(order):
        row = [draw(small_fractions) for _ in range(n)] + [draw(nonzero_fractions)]
        rows.append(tuple(row))
    return TriangleMatrix(order, tuple(rows), "unknown")


@st.composite
def parameter_triples(draw, order=8, max_m=3):
    from genmeans import ParameterTriple, RATIONAL

    length = 4 * order
    r = tuple(draw(nonzero_fractions) for _ in range(length))
    t = tuple(draw(nonzero_fractions) for _ in range(length))
    s = (draw(nonzero_fractions),) + tuple(draw(small_fractions) for _ in range(length - 1))
    m = draw(st.integers(min_value=0, max_value=max_m))
    return ParameterTriple(r, s, t, m, order, RATIONAL)


@st.composite
def zero_tail_windows(draw, order=8):
    from genmeans import SequenceWindow

    support = draw(st.integers(min_value=1, max_value=order))
    vals = [draw(small_fractions) for _ in range(support)]
    vals += [Fraction(0)] * (order - support)
    return SequenceWindow(vals, "zero")


# dyadic doubles: every f64 input below has an exact, short rational twin
dyadic_floats = st.integers(min_value=-4096, max_value=4096).filter(bool).map(lambda k: k / 1024)


@st.composite
def f64_triples(draw, max_order=6):
    """Float-backend presets: uv with dyadic windows, euler and aydin."""
    from genmeans import FLOAT64, PresetSpec, preset

    order = draw(st.integers(min_value=2, max_value=max_order))
    m = draw(st.integers(min_value=0, max_value=3))
    name = draw(st.sampled_from(("uv", "euler", "aydin")))
    if name == "uv":
        spec = PresetSpec("uv", u=tuple(draw(dyadic_floats) for _ in range(order)),
                          v=tuple(draw(dyadic_floats) for _ in range(order)))
    else:
        spec = PresetSpec(name, alpha=draw(st.integers(min_value=1, max_value=15)) / 16)
    return preset(spec, order, m=m, backend=FLOAT64)


def counted_ladder(monkeypatch):
    """Every trace the trend ladder (``limits.analyze_tail``) runs on from now
    on, each kept alive so that distinct traces are told apart by identity."""
    from genmeans import limits

    traces = []
    analyze_tail = limits.analyze_tail

    def counting_analyze_tail(values):
        traces.append(values)
        return analyze_tail(values)

    monkeypatch.setattr(limits, "analyze_tail", counting_analyze_tail)
    return traces
