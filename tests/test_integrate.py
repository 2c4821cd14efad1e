import random
import sys
from decimal import Context, Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finmeas import integrate
from finmeas.errors import FloatRange, InvalidExponent, NegativeFunction, SpaceMismatch
from finmeas.integrate import (
    INF,
    StepFunction,
    check_hoelder,
    check_minkowski,
    conv_in_measure_distance,
    integral,
    layered_integral,
    lp_norm,
    lp_norm_power,
    lp_norm_squared,
    pointwise_max,
    pointwise_min,
)
from finmeas.measures import Measure, SignedMeasure
from finmeas.rational import format_float
from finmeas.spaces import FiniteMeasurableSpace, MeasurableSet

from conftest import rand_measure, rand_space
from oracles import (
    conv_in_measure_distance_scan,
    integral_fraction_sum,
    layered_integral_per_level,
    lp_norm_float,
    lp_norm_fraction_sum,
    lp_norm_power_fraction_sum,
)

TWO = FiniteMeasurableSpace.discrete("ab")
QUARTER = Measure(TWO, [Fraction(1, 4), Fraction(3, 4)])
ETA = Measure(TWO, [Fraction(1, 2), Fraction(1, 2)])


def test_integral_example():
    f = StepFunction(TWO, [2, -1])
    assert integral(f, QUARTER) == Fraction(-1, 4)


def test_step_function_algebra():
    f = StepFunction(TWO, [1, 2])
    g = StepFunction(TWO, [3, 1])
    assert (f + g).values == (4, 3)
    assert (f - g).values == (-2, 1)
    assert (f * g).values == (3, 2)
    assert abs(StepFunction(TWO, [-2, 1])).values == (2, 1)
    assert pointwise_max(f, g).values == (3, 2)
    assert pointwise_min(f, g).values == (1, 1)
    assert StepFunction.constant(TWO, 5).values == (5, 5)


def test_indicator_and_superlevel():
    s = MeasurableSet(TWO, ["b"])
    ind = StepFunction.indicator(s)
    assert ind.values == (0, 1)
    f = StepFunction(TWO, [1, 3])
    assert f.superlevel_set(2).sorted_points() == ["b"]
    assert f.superlevel_set(Fraction(1, 2)).sorted_points() == ["a", "b"]


def test_space_mismatch():
    other = FiniteMeasurableSpace.discrete("xy")
    with pytest.raises(SpaceMismatch):
        integral(StepFunction(other, [1, 1]), QUARTER)


def test_lp_norm_examples():
    assert lp_norm(StepFunction(TWO, [1, 1]), ETA, 2) == pytest.approx(1.0)
    assert lp_norm(StepFunction(TWO, [3, -5]), ETA, INF) == 5
    assert lp_norm(StepFunction(TWO, [1, 2]), ETA, 1) == Fraction(3, 2)
    assert lp_norm_squared(StepFunction(TWO, [1, 2]), ETA) == Fraction(5, 2)
    assert lp_norm_power(StepFunction(TWO, [1, 2]), ETA, 3) == Fraction(9, 2)


def test_lp_norm_exponent_validation():
    f = StepFunction(TWO, [1, 1])
    with pytest.raises(InvalidExponent):
        lp_norm(f, ETA, Fraction(1, 2))
    with pytest.raises(InvalidExponent):
        lp_norm(f, ETA, 0)
    with pytest.raises(InvalidExponent):
        lp_norm_power(f, ETA, Fraction(3, 2))
    # rational exponents above one take the float route
    assert lp_norm(f, ETA, Fraction(3, 2)) == pytest.approx(1.0)


def test_hoelder_example_and_p1_rejection():
    f = StepFunction(TWO, [1, 2])
    g = StepFunction(TWO, [3, 1])
    lhs, rhs, holds = check_hoelder(f, g, ETA, 2)
    assert lhs == Fraction(5, 2)
    assert holds
    assert rhs == pytest.approx((25 / 2) ** 0.5)
    with pytest.raises(InvalidExponent):
        check_hoelder(f, g, ETA, 1)


def test_hoelder_equality_case():
    # g proportional to f makes Cauchy-Schwarz an equality
    f = StepFunction(TWO, [1, 2])
    g = StepFunction(TWO, [3, 6])
    lhs, rhs, holds = check_hoelder(f, g, ETA, 2)
    assert holds
    assert lhs * lhs == lp_norm_squared(f, ETA) * lp_norm_squared(g, ETA)


def test_minkowski_example_and_equality():
    f = StepFunction(TWO, [1, 0])
    g = StepFunction(TWO, [0, 1])
    lhs, rhs, holds = check_minkowski(f, g, ETA, 2)
    assert holds
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(2**0.5)
    # positively proportional functions give equality
    lhs, rhs, holds = check_minkowski(
        StepFunction(TWO, [1, 2]), StepFunction(TWO, [2, 4]), ETA, 2
    )
    assert holds
    assert lhs == pytest.approx(rhs)


def test_minkowski_p1_and_inf_exact():
    f = StepFunction(TWO, [1, -2])
    g = StepFunction(TWO, [3, 5])
    lhs, rhs, holds = check_minkowski(f, g, ETA, 1)
    assert (lhs, rhs, holds) == (Fraction(7, 2), Fraction(11, 2), True)
    lhs, rhs, holds = check_minkowski(f, g, ETA, INF)
    assert (lhs, rhs, holds) == (4, 7, True)


def test_layered_example_and_negativity():
    three = FiniteMeasurableSpace.discrete("abc")
    uniform = Measure(three, [Fraction(1, 3)] * 3)
    f = StepFunction(three, [2, 0, 1])
    assert layered_integral(f, uniform) == 1
    assert layered_integral(f, uniform) == integral(f, uniform)
    with pytest.raises(NegativeFunction):
        layered_integral(StepFunction(three, [1, -1, 0]), uniform)


def test_layered_with_rational_values():
    rng = random.Random(5)
    for _ in range(50):
        space = rand_space(rng, 6)
        mu = rand_measure(rng, space)
        f = StepFunction(
            space,
            [Fraction(rng.randint(0, 12), rng.randint(1, 5)) for _ in space.atoms],
        )
        assert layered_integral(f, mu) == integral(f, mu)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_layered_sweep_matches_the_per_level_loop(data):
    # ties between levels, zero values, uncharged atoms and signed measures
    n = data.draw(st.integers(1, 8))
    space = FiniteMeasurableSpace.discrete([f"p{k}" for k in range(n)])

    def values(low, high, den):
        entries = st.fractions(low, high, max_denominator=den)
        return data.draw(st.lists(entries, min_size=n, max_size=n))

    f = StepFunction(space, values(0, 3, 3))
    cls = data.draw(st.sampled_from([Measure, SignedMeasure]))
    mu = cls(space, values(0 if cls is Measure else -2, 2, 6))
    value = layered_integral(f, mu)
    assert type(value) is Fraction
    assert value == layered_integral_per_level(f, mu) == integral(f, mu)


def test_layered_integral_evaluates_no_superlevel_set():
    # one sweep over the levels: no measure of a set per level
    space = FiniteMeasurableSpace.discrete("abcd")
    f = StepFunction(space, [Fraction(1, 2), 0, 2, Fraction(1, 2)])
    mu = SignedMeasure(space, [Fraction(1, 3), 5, Fraction(-1, 6), 1])
    refuse = mock.Mock(side_effect=AssertionError("per-level evaluation"))
    with mock.patch.object(SignedMeasure, "eval", refuse), mock.patch.object(
        StepFunction, "superlevel_set", refuse
    ):
        assert layered_integral(f, mu) == Fraction(1, 3)
    assert refuse.call_count == 0


def test_delta_examples():
    assert conv_in_measure_distance(
        StepFunction(TWO, [0, 0]), StepFunction(TWO, [1, 0]), QUARTER
    ) == Fraction(1, 4)
    one = FiniteMeasurableSpace.discrete("x")
    assert conv_in_measure_distance(
        StepFunction(one, [0]), StepFunction(one, [5]), Measure(one, [1])
    ) == 1


def test_delta_symmetry_and_identity():
    rng = random.Random(9)
    for _ in range(30):
        space = rand_space(rng, 5)
        mu = rand_measure(rng, space)
        f = StepFunction(space, [Fraction(rng.randint(-4, 4)) for _ in space.atoms])
        g = StepFunction(space, [Fraction(rng.randint(-4, 4)) for _ in space.atoms])
        assert conv_in_measure_distance(f, g, mu) == conv_in_measure_distance(
            g, f, mu
        )
        assert conv_in_measure_distance(f, f, mu) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_delta_sweep_matches_the_candidate_scan(data):
    # ties between levels, zero weights and signed measures included
    n = data.draw(st.integers(1, 7))
    space = FiniteMeasurableSpace.discrete([f"p{k}" for k in range(n)])

    def values(low, high, den):
        entries = st.fractions(low, high, max_denominator=den)
        return data.draw(st.lists(entries, min_size=n, max_size=n))

    f, g = StepFunction(space, values(-3, 3, 4)), StepFunction(space, values(-3, 3, 4))
    cls = data.draw(st.sampled_from([Measure, SignedMeasure]))
    mu = cls(space, values(0 if cls is Measure else -2, 2, 6))
    assert conv_in_measure_distance(f, g, mu) == conv_in_measure_distance_scan(f, g, mu)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(-4, 4), min_size=2, max_size=2),
    st.lists(st.fractions(-4, 4), min_size=2, max_size=2),
)
def test_integral_is_linear(fv, gv):
    f = StepFunction(TWO, fv)
    g = StepFunction(TWO, gv)
    assert integral(f + g, ETA) == integral(f, ETA) + integral(g, ETA)


DECIMAL = Context(prec=60, Emax=10**15, Emin=-(10**15))


def _decimal_norm(values, weights, p):
    """(sum |v|^p w)^(1/p) in 60-digit decimals with an unbounded exponent."""
    ctx = DECIMAL

    def dec(x):
        return ctx.divide(Decimal(x.numerator), Decimal(x.denominator))

    q = dec(Fraction(p))
    total = Decimal(0)
    for v, w in zip(values, weights):
        total = ctx.add(total, ctx.multiply(ctx.power(abs(dec(v)), q), dec(w)))
    return ctx.power(total, ctx.divide(Decimal(1), q))


def _decimal_lp_norm(values, weights, p):
    return float(_decimal_norm(values, weights, p))


@pytest.mark.parametrize(
    "values, p",
    [
        ([1, 2], 100000),
        ([1, 2], Fraction(100001, 3)),
        ([Fraction(1, 4), Fraction(3, 4)], 100000),
        ([Fraction(1, 4), Fraction(3, 4)], Fraction(100001, 3)),
        ([0, 10**200], 100000),
        ([0, 10**200], Fraction(100001, 3)),
        ([0, 10**200], 2),
        ([Fraction(1, 10**200), Fraction(3, 10**200)], 1200),
        ([Fraction(1, 10**200), Fraction(3, 10**200)], Fraction(2401, 2)),
    ],
)
def test_lp_norm_outside_the_float_range_is_finite(values, p):
    f = StepFunction(TWO, values)
    expected = _decimal_lp_norm(values, QUARTER.weights, p)
    assert lp_norm(f, QUARTER, p) == pytest.approx(expected, rel=1e-12)


def test_lp_norm_cost_is_bounded_by_a_bit_budget_not_by_p():
    # values near 1 keep the p-th power inside the float range, but its
    # exact integer sum has about 40 p bits; past the budget only the
    # scaled form M (integral (|f|/M)^p)^(1/p) runs
    values = [Fraction(1000001, 1000000), 1]
    f = StepFunction(TWO, values)
    spy = mock.patch.object(integrate, "_float_power", wraps=integrate._float_power)
    for p, exact in [(1000, True), (100000, False), (400000, False)]:
        with spy as float_power:
            got = lp_norm(f, ETA, p)
        assert float_power.called == exact
        assert got == pytest.approx(_decimal_lp_norm(values, ETA.weights, p), rel=1e-14)
    assert format_float(got) == "1.00000054967"


def test_lp_norm_below_the_float_range_is_not_zero():
    tiny = StepFunction(TWO, [Fraction(1, 10**200), Fraction(1, 10**200)])
    assert lp_norm(tiny, ETA, 2) == pytest.approx(1e-200, rel=1e-12)
    assert lp_norm(tiny, ETA, Fraction(5, 2)) == pytest.approx(1e-200, rel=1e-12)


@pytest.mark.parametrize("p", [2, 3, Fraction(5, 2)])
def test_lp_norm_beyond_the_float_range_raises_float_range(p):
    huge = StepFunction(TWO, [10**340, 1])
    with pytest.raises(FloatRange):
        lp_norm(huge, ETA, p)


def test_inequalities_with_a_large_exponent():
    f, g = StepFunction(TWO, [1, 2]), StepFunction(TWO, [3, 1])
    lhs, rhs, holds = check_hoelder(f, g, ETA, 100000)
    assert holds and rhs == pytest.approx(4, rel=1e-4)
    lhs, rhs, holds = check_minkowski(f, g, ETA, Fraction(100001, 3))
    assert holds and lhs == pytest.approx(4, rel=1e-3)
    lhs, rhs, holds = check_hoelder(StepFunction(TWO, [10**200, 1]), g, ETA, 2)
    assert holds and format_float(rhs) == "1.58113883008e+200"
    with pytest.raises(FloatRange, match="Hoelder bound"):
        check_hoelder(StepFunction(TWO, [10**200, 0]), StepFunction(TWO, [0, 10**200]), ETA, 2)


BIG, TINY = 10**200, Fraction(1, 10**200)


def _magnitudes():
    tenth = st.integers(-400, 400).map(lambda e: Fraction(10) ** e)
    value = st.builds(
        lambda m, e, sign: sign * m * e, st.integers(1, 999), tenth, st.sampled_from([1, -1])
    )
    return st.lists(st.one_of(st.just(Fraction(0)), value), min_size=2, max_size=2)


LARGEST, SMALLEST = Decimal(sys.float_info.max), Decimal(sys.float_info.min)


@settings(max_examples=300, deadline=None)
@given(_magnitudes(), _magnitudes(), st.sampled_from([Fraction(2), Fraction(3), Fraction(5, 2)]))
@example([BIG, 1], [3, 1], Fraction(2))
@example([TINY, 0], [TINY, 0], Fraction(2))
@example([BIG, 0], [0, BIG], Fraction(3))
@example([10**400, 0], [0, Fraction(1, 10**400)], Fraction(2))
@example([17 * 10**307, 0], [0, 17 * 10**307], Fraction(3))
@example([Fraction(1, 10**318), 0], [10**300, 0], Fraction(2))
@example([10**340, 0], [Fraction(1, 10**340), 0], Fraction(2))
@example([10**340, 0], [Fraction(1, 10**340), 0], Fraction(3))
@example([Fraction(1, 10**400), 0], [10**300, 0], Fraction(2))
@example([Fraction(1, 10**400), 0], [10**300, 0], Fraction(3))
def test_inequality_floats_match_a_decimal_reference(fv, gv, p):
    """Each reported float is the 60-digit reference, FloatRange when the
    bound is past the largest float, even if a factor norm is not.

    A Minkowski norm below the normal float range carries fewer than 53
    bits, so there, with every norm in the float range, only the absence of
    an error is checked; a Hoelder bound is taken on logs then.
    """
    f, g = StepFunction(TWO, fv), StepFunction(TWO, gv)
    nf, ng, nq, ns = (
        _decimal_norm(v, ETA.weights, e)
        for v, e in [(fv, p), (gv, p), (gv, p / (p - 1)), ((f + g).values, p)]
    )
    for check, norms, bound in [
        (check_hoelder, [nf, nq], DECIMAL.multiply(nf, nq)),
        (check_minkowski, [nf, ng, ns], DECIMAL.add(nf, ng)),
    ]:
        if any(abs(r / LARGEST - 1) < Decimal("1e-9") for r in [*norms, bound]):
            continue  # too close to the largest float for the float sum to decide
        if bound > LARGEST:  # a Minkowski bound is at least each of its norms
            with pytest.raises(FloatRange):
                check(f, g, ETA, p)
            continue
        lhs, rhs, _ = check(f, g, ETA, p)
        if (
            check is check_minkowski
            and max(norms) <= LARGEST
            and any(0 < r < SMALLEST for r in norms[:2])
        ):
            continue
        assert rhs == pytest.approx(float(bound), rel=1e-12, abs=sys.float_info.min)
        if check is check_minkowski:
            assert lhs == pytest.approx(float(ns), rel=1e-12, abs=sys.float_info.min)


def test_hoelder_bound_with_a_factor_norm_past_the_float_range():
    f = StepFunction(TWO, [10**340, 0])
    g = StepFunction(TWO, [Fraction(1, 10**340), 0])
    for p in (2, 3):
        with pytest.raises(FloatRange, match="Lp norm"):
            lp_norm(f, ETA, p)
        assert check_hoelder(f, g, ETA, p) == (Fraction(1, 2), 0.5, True)
        assert check_hoelder(g, f, ETA, p) == (Fraction(1, 2), 0.5, True)
        assert check_hoelder(f, StepFunction(TWO, [0, 0]), ETA, p)[1] == 0.0
        with pytest.raises(FloatRange, match="Hoelder bound"):
            check_hoelder(f, StepFunction(TWO, [1, 1]), ETA, p)


def test_hoelder_bound_at_infinity_stays_exact_outside_the_float_range():
    tiny, huge = Fraction(1, 10**400), 10**400
    f = StepFunction(TWO, [tiny, 0])
    one = StepFunction(TWO, [1, 1])
    assert check_hoelder(f, one, ETA, INF) == (tiny / 2, tiny, True)
    assert check_hoelder(StepFunction(TWO, [huge, 0]), f, ETA, INF) == (
        Fraction(1, 2), Fraction(1, 2), True
    )
    lhs, rhs, holds = check_hoelder(StepFunction(TWO, [0, 0]), one, ETA, INF)
    assert (lhs, rhs, holds) == (0, 0, True) and type(rhs) is Fraction


def _norm_or_error(f, mu, p, norm):
    try:
        return norm(f, mu, p)
    except FloatRange:
        return "FloatRange"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.just(Fraction(0)),
            st.builds(
                lambda m, k, e: Fraction(m, k) * Fraction(10) ** e,
                st.integers(-999, 999),
                st.integers(1, 999),
                st.integers(-400, 400),
            ),
        ),
        min_size=3,
        max_size=3,
    ),
    st.lists(st.fractions(0, 3, max_denominator=1000), min_size=3, max_size=3),
    st.sampled_from([2, 3, 5]),
)
@example([10**340, 0, 0], [Fraction(1, 2), Fraction(1, 2), 0], 2)
@example([Fraction(1, 10**400), Fraction(3, 10**399), 7], [1, Fraction(1, 3), 0], 5)
def test_lp_norm_integer_power_matches_the_fraction_sum(values, weights, p):
    """The one int sum over a common denominator is the same rational as the
    Fraction sum, so the norms are the same floats, or both FloatRange."""
    three = FiniteMeasurableSpace.discrete("abc")
    f, mu = StepFunction(three, values), Measure(three, weights)
    got = _norm_or_error(f, mu, p, lp_norm)
    assert got == _norm_or_error(f, mu, p, lp_norm_fraction_sum)


_WIDE = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        lambda m, k, e: Fraction(m, k) * Fraction(10) ** e,
        st.integers(-999, 999),
        st.integers(1, 999),
        st.integers(-400, 400),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(_WIDE, min_size=n, max_size=n),
            st.lists(st.fractions(-3, 3, max_denominator=1000), min_size=n, max_size=n),
        )
    ),
    st.booleans(),
    st.integers(1, 7),
)
@example(([0, 0], [1, 1]), False, 2)
@example(([1, 2], [0, 0]), True, 3)
@example(([Fraction(-3, 10**400), 10**400], [Fraction(1, 3), Fraction(-1, 7)]), True, 7)
def test_integral_and_exact_powers_match_the_fraction_sums(case, signed, k):
    """One int sum over L^k D is the very Fraction the per-atom sums give:
    signed values and measures, zero values and empty supports."""
    values, weights = case
    space = FiniteMeasurableSpace.discrete([f"x{i}" for i in range(len(values))])
    f = StepFunction(space, values)
    mu = SignedMeasure(space, weights) if signed else Measure(space, map(abs, weights))
    assert integral(f, mu) == integral_fraction_sum(f, mu)
    got = lp_norm_power(f, mu, k)
    assert got == lp_norm_power_fraction_sum(f, mu, k) and type(got) is Fraction
    assert lp_norm(f, mu, 1) == integral_fraction_sum(abs(f), mu)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.fractions(-50, 50, max_denominator=40), min_size=2, max_size=2),
    st.lists(st.fractions(0, 3, max_denominator=40), min_size=2, max_size=2),
    st.one_of(
        st.integers(2, 400).map(Fraction),
        st.fractions(1, 400, max_denominator=12).filter(lambda p: p > 1),
    ),
)
@example([1, 2], [Fraction(1, 2), Fraction(1, 2)], Fraction(3, 2))
@example([0, 0], [1, 1], Fraction(2))
@example([Fraction(1, 3), 0], [0, 1], Fraction(7, 3))
def test_lp_norm_in_the_float_range_is_unchanged(values, weights, p):
    """Where the plain float form stays in the normal range, it is the result."""
    f, mu = StepFunction(TWO, values), Measure(TWO, weights)
    try:
        old = lp_norm_float(f, mu, p)
    except OverflowError:
        return
    if old == 0 and any(v and w for v, w in zip(values, weights)):
        return
    if 0 < old ** float(p) < sys.float_info.min:
        return
    assert lp_norm(f, mu, p) == old


XY = FiniteMeasurableSpace.discrete("xy")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: StepFunction(TWO, [1]), ValueError, "expected 2 atom values, got 1"),
        (lambda: StepFunction(TWO, [1, 2]) + StepFunction(XY, [1, 2]), SpaceMismatch,
         "step functions live on different spaces"),
    ],
    ids=["length", "add-across-spaces"],
)
def test_step_function_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
