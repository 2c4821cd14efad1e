import math
import random
from fractions import Fraction

import pytest

from finmeas.errors import InvalidGamma, SpaceMismatch
from finmeas.measures import Measure
from finmeas.metrics import (
    FiniteMetric,
    LipschitzWitness,
    check_weak_limit,
    hutchinson_distance,
    prohorov_distance,
    prohorov_feasible,
    support,
)
from finmeas.spaces import FiniteMeasurableSpace, sigma_from_generator

from conftest import rand_metric, rand_probability
from oracles import d_to_set

HALF = FiniteMetric.from_points("ab", [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])


def dirac(metric, point):
    return Measure.dirac(metric.space, point)


def test_metric_validation():
    with pytest.raises(ValueError):
        FiniteMetric.from_points("ab", [[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        FiniteMetric.from_points("ab", [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        FiniteMetric.from_points("ab", [[1, 1], [1, 0]])
    with pytest.raises(ValueError):
        FiniteMetric.from_points(
            "abc", [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
        )
    coarse = sigma_from_generator("ab", [])
    with pytest.raises(ValueError):
        FiniteMetric(coarse, [[Fraction(0)]])


def test_distance_lookups():
    assert HALF.d(0, 1) == Fraction(1, 2)
    assert HALF.d_points("b", "a") == Fraction(1, 2)
    assert d_to_set(HALF, 0, frozenset({0, 1})) == 0
    assert d_to_set(HALF, 0, frozenset({1})) == Fraction(1, 2)


def test_support():
    mu = Measure(HALF.space, [Fraction(1, 4), 0])
    assert support(mu).sorted_points() == ["a"]
    assert support(Measure.zero(HALF.space)).members == frozenset()


def test_prohorov_examples():
    assert prohorov_distance(dirac(HALF, "a"), dirac(HALF, "b"), HALF) == Fraction(1, 2)
    mu = Measure(HALF.space, [1, 0])
    nu = Measure(HALF.space, [Fraction(1, 4), Fraction(3, 4)])
    assert prohorov_distance(mu, nu, HALF) == Fraction(1, 2)


def test_prohorov_identity_and_symmetry():
    rng = random.Random(31)
    for _ in range(25):
        metric = rand_metric(rng, rng.randint(1, 5))
        mu = rand_probability(rng, metric.space)
        nu = rand_probability(rng, metric.space)
        assert prohorov_distance(mu, mu, metric) == 0
        assert prohorov_distance(mu, nu, metric) == prohorov_distance(
            nu, mu, metric
        )


def test_prohorov_feasibility_bracket():
    rng = random.Random(37)
    for _ in range(25):
        metric = rand_metric(rng, rng.randint(2, 5))
        mu = rand_probability(rng, metric.space)
        nu = rand_probability(rng, metric.space)
        value = prohorov_distance(mu, nu, metric)
        step = Fraction(1, 1000)
        assert prohorov_feasible(mu, nu, metric, value + step)
        if value > 0:
            assert not prohorov_feasible(mu, nu, metric, value - min(step, value / 2))


def test_prohorov_feasible_refuses_floats_and_reads_strings():
    mu, nu = dirac(HALF, "a"), dirac(HALF, "b")
    with pytest.raises(ValueError):
        prohorov_feasible(mu, nu, HALF, 0.5)
    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        assert prohorov_feasible(mu, nu, HALF, str(eps)) == prohorov_feasible(
            mu, nu, HALF, eps
        )
    # the open neighbourhood of radius 1/2 misses the other point
    assert not prohorov_feasible(mu, nu, HALF, "1/2")
    assert prohorov_feasible(mu, nu, HALF, "3/4")


def test_prohorov_and_hutchinson_obey_the_gibbs_su_bounds():
    # on a metric of diameter at most 1 a 1-Lipschitz f varies by at most
    # 1, so shifting it into [-1/2, 1/2] leaves its integral against
    # mu - nu alone: H_gamma is the Wasserstein W_1 for every gamma >= 1/2,
    # and pi^2 <= W_1 <= 2 pi (Gibbs and Su 2002, Thm. 2); the flow and
    # the transshipment share no code, so each checks the other
    rng = random.Random(47)
    for _ in range(200):
        metric = rand_metric(rng, rng.randint(1, 5), normalized=True)
        assert all(v <= 1 for row in metric.dist for v in row)
        mu = rand_probability(rng, metric.space, den=rng.choice([4, 12]))
        nu = rand_probability(rng, metric.space, den=rng.choice([4, 12]))
        pi = prohorov_distance(mu, nu, metric)
        values = {
            hutchinson_distance(mu, nu, metric, gamma)[0]
            for gamma in (Fraction(1, 2), 1, 3)
        }
        assert len(values) == 1
        (w1,) = values
        assert pi**2 <= w1 <= 2 * pi


def test_dirac_isometry_on_normalized_metric():
    rng = random.Random(41)
    for _ in range(20):
        metric = rand_metric(rng, rng.randint(2, 5), normalized=True)
        pts = metric.space.points
        i, j = rng.sample(range(len(pts)), 2)
        got = prohorov_distance(dirac(metric, pts[i]), dirac(metric, pts[j]), metric)
        assert got == metric.d(i, j)


def test_hutchinson_example_and_dirac_formula():
    value, witness = hutchinson_distance(dirac(HALF, "a"), dirac(HALF, "b"), HALF, 1)
    assert value == Fraction(1, 2)
    assert witness.objective(dirac(HALF, "a"), dirac(HALF, "b")) == value
    wide = FiniteMetric.from_points("ab", [[0, 3], [3, 0]])
    for gamma in (Fraction(1, 4), 1, 2):
        value, _ = hutchinson_distance(dirac(wide, "a"), dirac(wide, "b"), wide, gamma)
        assert value == min(Fraction(3), 2 * Fraction(gamma))


def test_hutchinson_rejects_bad_gamma():
    with pytest.raises(InvalidGamma):
        hutchinson_distance(dirac(HALF, "a"), dirac(HALF, "b"), HALF, 0)
    with pytest.raises(InvalidGamma):
        hutchinson_distance(dirac(HALF, "a"), dirac(HALF, "b"), HALF, -1)


def test_hutchinson_symmetry_and_mass_gap():
    rng = random.Random(43)
    for _ in range(20):
        metric = rand_metric(rng, rng.randint(1, 4), normalized=False)
        mu = rand_probability(rng, metric.space)
        nu = rand_probability(rng, metric.space)
        gamma = Fraction(rng.randint(1, 8), 4)
        a, _ = hutchinson_distance(mu, nu, metric, gamma)
        b, _ = hutchinson_distance(nu, mu, metric, gamma)
        assert a == b
        zero = Measure.zero(metric.space)
        total, _ = hutchinson_distance(mu, zero, metric, gamma)
        assert total == gamma * mu.total()


def test_lipschitz_witness_validation():
    with pytest.raises(ValueError):
        LipschitzWitness(HALF, [2, 0], 1)
    with pytest.raises(ValueError):
        LipschitzWitness(HALF, [1, 0], 1)
    LipschitzWitness(HALF, [Fraction(1, 2), 0], 1)


def test_weak_limit_convergent_sequence():
    space = HALF.space
    limit = Measure(space, [Fraction(1, 2), Fraction(1, 2)])
    seq = [
        Measure(
            space,
            [Fraction(1, 2) + Fraction(1, 4**k), Fraction(1, 2) - Fraction(1, 4**k)],
        )
        for k in range(1, 13)
    ]
    # the checked tail starts halfway in, so its first residual is 4**-7
    report = check_weak_limit(seq, limit, HALF, 1e-4)
    assert report.converges
    assert report.per_atom_ok and report.portmanteau_ok and report.mass_ok
    assert report.criteria_agree()
    assert report.witness_set is None


def test_weak_limit_alternating_sequence():
    space = HALF.space
    limit = Measure(space, [1, 0])
    seq = [Measure(space, [k % 2, 1 - k % 2]) for k in range(12)]
    report = check_weak_limit(seq, limit, HALF, 1e-3)
    assert not report.converges
    assert report.criteria_agree()
    assert report.witness_set is not None
    assert report.mass_ok


def test_weak_limit_mass_escapes():
    space = HALF.space
    limit = Measure(space, [1, 0])
    seq = [Measure(space, [Fraction(1, 2), 0]) for _ in range(8)]
    report = check_weak_limit(seq, limit, HALF, 1e-3)
    assert not report.converges
    assert not report.mass_ok
    assert report.criteria_agree()


def test_weak_limit_residuals_equal_to_tol_converge():
    """Every residual is exactly 1/100, which float(1/100) would exceed."""
    space = HALF.space
    limit = Measure(space, [Fraction(1, 2), Fraction(1, 2)])
    tail = Measure(space, [Fraction(51, 100), Fraction(49, 100)])
    report = check_weak_limit([tail], limit, HALF, Fraction(1, 100))
    assert report.converges
    assert report.witness_set is None


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1, -1e-9, Fraction(-1, 3)])
def test_weak_limit_rejects_a_non_finite_or_negative_tol(tol):
    space = HALF.space
    limit = Measure(space, [1, 0])
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        check_weak_limit([limit], limit, HALF, tol)
    assert check_weak_limit([limit], limit, HALF, 0).converges


_XY = FiniteMeasurableSpace.discrete("xy")
_ON_XY = Measure.dirac(_XY, "x")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LipschitzWitness(HALF, [0], 1), ValueError, "expected 2 values"),
        (lambda: prohorov_distance(_ON_XY, dirac(HALF, "a"), HALF), SpaceMismatch,
         "measures must live on the metric's space"),
        (lambda: hutchinson_distance(dirac(HALF, "a"), _ON_XY, HALF, 1), SpaceMismatch,
         "measures must live on the metric's space"),
    ],
    ids=["witness-length", "prohorov-off-space", "hutchinson-off-space"],
)
def test_witness_and_measure_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
