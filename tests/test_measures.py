import random
from fractions import Fraction

import pytest

from finmeas.errors import (
    AbsoluteContinuityViolated,
    InvalidExponent,
    NegativeFunctional,
    SpaceMismatch,
    UnsupportedFunctional,
)
from finmeas.integrate import INF, StepFunction, integral, lp_norm
from finmeas.measures import (
    LinearFunctional,
    Measure,
    SignedMeasure,
    absolutely_continuous,
    change_of_measure,
    integration_functional,
    jordan_decompose,
    lebesgue_decompose,
    lp_dual_density,
    measure_from_functional,
    mutually_singular,
    radon_nikodym,
)
from finmeas.spaces import FiniteMeasurableSpace, MeasurableSet, sigma_from_generator

from conftest import rand_measure, rand_signed_measure, rand_space

X3 = FiniteMeasurableSpace.discrete("abc")


def test_eval_example():
    mu = Measure(X3, [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)])
    assert mu.eval(MeasurableSet(X3, "ac")) == Fraction(5, 6)
    assert mu.total() == 1
    assert mu.is_probability()


def test_ints_over_a_common_scale():
    nu = SignedMeasure(X3, [Fraction(1, 2), 0, Fraction(-1, 3)])
    assert nu.ints_over(6) == [3, 0, -2]
    assert nu.ints_over(12) == [6, 0, -4]
    assert [Fraction(v, 18) for v in nu.ints_over(18)] == list(nu.weights)
    assert Measure.zero(X3).ints_over(5) == [0, 0, 0]


def test_measure_rejects_negative_and_bool_weights():
    with pytest.raises(ValueError):
        Measure(X3, [1, -1, 0])
    with pytest.raises(ValueError):
        Measure(X3, [1, True, 0])
    with pytest.raises(ValueError):
        Measure(X3, [0.5, 0, 0])


def test_eval_requires_same_space():
    other = FiniteMeasurableSpace.discrete("ab")
    mu = Measure(X3, [1, 0, 0])
    with pytest.raises(SpaceMismatch):
        mu.eval(MeasurableSet(other, "a"))


def test_dirac_and_support():
    delta = Measure.dirac(X3, "b")
    assert delta.weights == (0, 1, 0)
    assert delta.support_atoms() == (1,)


def test_jordan_example():
    nu = SignedMeasure(X3, [1, -2, 3])
    plus, minus, variation = jordan_decompose(nu)
    assert plus.weights == (1, 0, 3)
    assert minus.weights == (0, 2, 0)
    assert variation.total() == 6
    assert mutually_singular(plus, minus)[0]


def test_absolute_continuity_and_singularity():
    mu = Measure(X3, [Fraction(1, 3), 0, Fraction(2, 3)])
    nu = Measure(X3, [Fraction(1, 2), Fraction(1, 2), 0])
    assert not absolutely_continuous(mu, nu)
    flag, sup_mu, sup_nu = mutually_singular(
        Measure(X3, [Fraction(1, 2), Fraction(1, 2), 0]), Measure(X3, [0, 0, 1])
    )
    assert flag
    assert sup_mu.sorted_points() == ["a", "b"]
    assert sup_nu.sorted_points() == ["c"]


def test_lebesgue_example():
    mu = Measure(X3, [Fraction(1, 2), Fraction(1, 2), 0])
    nu = Measure(X3, [1, 0, 1])
    part_ac, part_sing, density = lebesgue_decompose(mu, nu)
    assert part_ac.weights == (Fraction(1, 2), 0, 0)
    assert part_sing.weights == (0, Fraction(1, 2), 0)
    assert density.values == (Fraction(1, 2), 0, 0)
    assert absolutely_continuous(part_ac, nu)
    assert mutually_singular(part_sing, nu)[0]


def test_radon_nikodym_example_and_violation():
    two = FiniteMeasurableSpace.discrete("ab")
    h = radon_nikodym(
        Measure(two, [Fraction(1, 5), Fraction(4, 5)]),
        Measure(two, [Fraction(1, 2), Fraction(1, 2)]),
    )
    assert h.values == (Fraction(2, 5), Fraction(8, 5))
    with pytest.raises(AbsoluteContinuityViolated) as err:
        radon_nikodym(Measure(two, [0, 1]), Measure(two, [1, 0]))
    assert err.value.witness_atom == ("b",)


def test_radon_nikodym_round_trip_on_coarse_space():
    space = sigma_from_generator("abcd", [{"a", "b"}])
    rng = random.Random(7)
    nu = Measure(space, [Fraction(1, 3), Fraction(2, 3)])
    mu = Measure(space, [Fraction(1, 6), Fraction(5, 6)])
    h = radon_nikodym(mu, nu)
    for s in space.measurable_sets():
        indicator = StepFunction.indicator(s)
        assert integral(indicator * h, nu) == mu.eval(s)
    del rng


def test_functional_round_trip_and_positivity():
    two = FiniteMeasurableSpace.discrete("ab")
    functional = LinearFunctional(two, [Fraction(1, 3), Fraction(2, 3)])
    mu = measure_from_functional(functional)
    assert mu.weights == (Fraction(1, 3), Fraction(2, 3))
    back = integration_functional(mu)
    assert back == functional
    f = StepFunction(two, [3, -1])
    assert functional(f) == integral(f, mu)
    with pytest.raises(NegativeFunctional):
        measure_from_functional(LinearFunctional(two, [1, -1]))


def test_dual_density_examples():
    two = FiniteMeasurableSpace.discrete("ab")
    eta = Measure(two, [Fraction(1, 2), Fraction(1, 2)])
    lam = LinearFunctional(two, [Fraction(1, 4), Fraction(3, 4)])
    g, norm = lp_dual_density(lam, eta, 1)
    assert g.values == (Fraction(1, 2), Fraction(3, 2))
    assert norm == Fraction(3, 2)
    g2, norm2 = lp_dual_density(LinearFunctional(two, [1, 0]), eta, 2)
    assert g2.values == (2, 0)
    assert norm2 == pytest.approx(2**0.5)


def test_dual_density_rejects_charge_on_null_atom():
    two = FiniteMeasurableSpace.discrete("ab")
    mu = Measure(two, [1, 0])
    bad = LinearFunctional(two, [1, 1])
    with pytest.raises(UnsupportedFunctional):
        lp_dual_density(bad, mu, 2)


def test_dual_density_random_agreement():
    rng = random.Random(11)
    for _ in range(40):
        space = rand_space(rng, 5)
        mu = rand_measure(rng, space)
        h = StepFunction(
            space,
            [
                Fraction(rng.randint(0, 6), rng.randint(1, 4)) if w else Fraction(0)
                for w in mu.weights
            ],
        )
        functional = LinearFunctional(
            space, [v * w for v, w in zip(h.values, mu.weights)]
        )
        p = rng.choice([1, 2, 3, INF])
        try:
            g, norm = lp_dual_density(functional, mu, p)
        except InvalidExponent:
            continue
        for _ in range(4):
            f = StepFunction(
                space, [Fraction(rng.randint(-4, 4)) for _ in space.atoms]
            )
            assert functional(f) == integral(f * g, mu)
        q = INF if p == 1 else (1 if p == INF else Fraction(p, p - 1))
        assert norm == lp_norm(g, mu, q)


def test_change_of_measure():
    rng = random.Random(13)
    for _ in range(40):
        space = rand_space(rng, 6)
        nu = rand_measure(rng, space)
        # build mu << nu by damping nu atomwise, then integrate both ways
        mu = Measure(
            space,
            [w * Fraction(rng.randint(0, 4), 4) for w in nu.weights],
        )
        f = StepFunction(space, [Fraction(rng.randint(-3, 3)) for _ in space.atoms])
        assert change_of_measure(f, mu, nu) == integral(f, mu)


def test_signed_measure_add_scale():
    mu = Measure(X3, [1, 2, 3])
    nu = Measure(X3, [1, 0, 1])
    assert mu.add(nu).weights == (2, 2, 4)
    assert mu.scale(Fraction(1, 2)).weights == (Fraction(1, 2), 1, Fraction(3, 2))


def test_jordan_random_minimality():
    rng = random.Random(17)
    for _ in range(60):
        space = rand_space(rng, 6)
        nu = rand_signed_measure(rng, space)
        plus, minus, variation = jordan_decompose(nu)
        assert all(p * m == 0 for p, m in zip(plus.weights, minus.weights))
        for s in space.measurable_sets():
            assert nu.eval(s) == plus.eval(s) - minus.eval(s)
            assert variation.eval(s) == plus.eval(s) + minus.eval(s)


_XY = FiniteMeasurableSpace.discrete("xy")
_AB = FiniteMeasurableSpace.discrete("ab")
_ON_X = Measure.dirac(_XY, "x")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: SignedMeasure(X3, [1]), ValueError, "expected 3 atom weights, got 1"),
        (lambda: LinearFunctional(X3, [1]), ValueError,
         "expected 3 indicator values, got 1"),
        (lambda: Measure(_AB, [1, 1]).add(Measure(_XY, [1, 1])), SpaceMismatch,
         "measures live on different spaces"),
        (lambda: LinearFunctional(_AB, [1, 1])(StepFunction(_XY, [1, 2])),
         SpaceMismatch, "function lives on a different space"),
        (lambda: lp_dual_density(LinearFunctional(_AB, [1, 1]), _ON_X, 2), SpaceMismatch,
         "functional and measure live on different spaces"),
    ],
    ids=["weights-length", "functional-length", "add-across-spaces",
         "functional-on-other-space", "dual-on-other-space"],
)
def test_measure_and_functional_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
