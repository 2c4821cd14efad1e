"""Measures held in their integer form (D, cols, nums) against the dense
Fraction measures they replaced (kept in ``oracles``)."""

import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmeas.errors import AbsoluteContinuityViolated, FinmeasError
from finmeas.integrate import INF
from finmeas.measures import (
    LinearFunctional,
    Measure,
    SignedMeasure,
    jordan_decompose,
    lebesgue_decompose,
    lp_dual_density,
    radon_nikodym,
)
from finmeas.spaces import FiniteMeasurableSpace

from oracles import (
    DenseMeasure,
    DenseSignedMeasure,
    from_ints_reference,
    jordan_decompose_dense,
    lebesgue_decompose_dense,
    lp_dual_density_dense,
    radon_nikodym_dense,
)

DENS = (1, 2, 3, 7, 11, 13)


@st.composite
def weight_lists(draw, n, signed):
    """n weights: zeros, and multiples of 1/7, 1/11, 1/13 or small
    denominators, negative too when signed."""
    low = -20 if signed else 0
    return [
        Fraction(draw(st.integers(low, 20)), draw(st.sampled_from(DENS)))
        if draw(st.integers(0, 3))
        else Fraction(0)
        for _ in range(n)
    ]


@st.composite
def measure_cases(draw, signed=False):
    """A discrete space and two weight lists on it, with a set of atoms."""
    n = draw(st.integers(1, 9))
    space = FiniteMeasurableSpace.discrete([f"p{k}" for k in range(n)])
    first = draw(weight_lists(n, signed))
    second = draw(weight_lists(n, signed))
    inside = draw(st.sets(st.integers(0, n - 1)))
    return space, first, second, space.set_of_atoms(sorted(inside))


def _check_form(measure):
    d, cols, nums = measure.form
    assert d >= 1 and 0 not in nums
    assert list(cols) == sorted(set(cols))
    assert gcd(d, *nums) == 1


@settings(max_examples=300, deadline=None)
@given(measure_cases(signed=True))
def test_signed_measure_matches_the_dense_form(case):
    space, weights, _, mset = case
    sparse = SignedMeasure(space, weights)
    dense = DenseSignedMeasure(space, weights)
    _check_form(sparse)
    assert sparse.weights == dense.weights
    assert sparse.total() == dense.total()
    assert sparse.eval(mset) == dense.eval(mset)


@settings(max_examples=300, deadline=None)
@given(measure_cases(), st.sampled_from([0, 1, Fraction(3, 7), Fraction(22, 13), 5]))
def test_measure_matches_the_dense_form(case, c):
    space, first, second, mset = case
    mu, nu = Measure(space, first), Measure(space, second)
    dense_mu, dense_nu = DenseMeasure(space, first), DenseMeasure(space, second)
    for sparse, dense in (
        (mu, dense_mu),
        (mu.add(nu), dense_mu.add(dense_nu)),
        (mu.scale(c), dense_mu.scale(c)),
    ):
        _check_form(sparse)
        assert sparse.weights == dense.weights
        assert sparse.total() == dense.total()
        assert sparse.eval(mset) == dense.eval(mset)
        assert sparse.support_atoms() == dense.support_atoms()
        assert sparse.is_probability() == dense.is_probability()


@settings(max_examples=300, deadline=None)
@given(measure_cases(signed=True), st.integers(1, 6))
def test_unnormalized_integers_give_the_canonical_form(case, factor):
    """Numerators of every atom, zeros included, over a common multiple of
    the denominators times a common factor equal the dense constructor in
    == and hash."""
    space, weights, _, _ = case
    d = factor * lcm(*(w.denominator for w in weights)) * 2
    nums = [w.numerator * (d // w.denominator) for w in weights]
    cls = Measure if all(w >= 0 for w in weights) else SignedMeasure
    built = cls.from_ints(space, d, range(len(nums)), nums)
    expected = cls(space, weights)
    _check_form(built)
    assert built == expected
    assert hash(built) == hash(expected)
    assert built.weights == tuple(weights)


@st.composite
def int_entries(draw):
    """A space of n atoms, a scale d in -2..24 and int entries (j, num):
    atoms -1..n, so out of the space now and then, unsorted, distinct half
    the time and else with repeats, zero or not; nums zero a quarter of the
    time and negative only when drawn signed."""
    n = draw(st.integers(1, 6))
    space = FiniteMeasurableSpace.discrete([f"p{k}" for k in range(n)])
    low = draw(st.sampled_from([0, -6]))
    num = st.integers(low, 30) | st.just(0)
    entry = st.tuples(st.integers(-1, n), num)
    unique_by = (lambda e: e[0]) if draw(st.booleans()) else None
    entries = draw(st.lists(entry, max_size=8, unique_by=unique_by))
    return space, draw(st.integers(-2, 24)), entries


@settings(max_examples=1000, deadline=None)
@given(int_entries())
def test_from_ints_columns_match_the_pair_constructor(case):
    """The column constructor and the one over (atom, num) pairs (kept in
    ``oracles``) give the same form, or raise the same ValueError, for
    Measure and SignedMeasure alike."""
    space, d, entries = case
    cols, nums = [j for j, _ in entries], [num for _, num in entries]
    for cls in (Measure, SignedMeasure):
        try:
            expected = from_ints_reference(cls, space, d, entries)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                cls.from_ints(space, d, cols, nums)
            assert str(got.value) == str(err)
            continue
        built = cls.from_ints(space, d, cols, nums)
        _check_form(built)
        assert type(built) is cls and built.space is space
        assert built.form == expected.form


@settings(max_examples=300, deadline=None)
@given(measure_cases(signed=True))
def test_jordan_decompose_matches_the_dense_split(case):
    space, weights, _, _ = case
    cls = Measure if all(w >= 0 for w in weights) else SignedMeasure
    parts = jordan_decompose(cls(space, weights))
    dense_parts = jordan_decompose_dense(DenseSignedMeasure(space, weights))
    for sparse, dense in zip(parts, dense_parts):
        _check_form(sparse)
        assert type(sparse) is Measure
        assert sparse.weights == dense.weights


def _density_or_witness(density, mu, nu):
    try:
        return density(mu, nu).values
    except AbsoluteContinuityViolated as err:
        return err.witness_atom


@settings(max_examples=300, deadline=None)
@given(measure_cases())
def test_densities_match_the_dense_formulas(case):
    # mu/nu on nu-positive atoms and 0 elsewhere; without mu << nu the
    # witness is the first atom that nu misses and mu charges
    space, first, second, _ = case
    mu, nu = Measure(space, first), Measure(space, second)
    parts = lebesgue_decompose(mu, nu)
    dense_parts = lebesgue_decompose_dense(mu, nu)
    assert parts[:2] == dense_parts[:2]
    assert parts[2].values == dense_parts[2].values
    for a, b in ((mu, nu), (nu, mu), (parts[0], nu)):
        found = _density_or_witness(radon_nikodym, a, b)
        assert found == _density_or_witness(radon_nikodym_dense, a, b)


def _dual_or_error(dual, functional, mu, p):
    try:
        g, norm = dual(functional, mu, p)
    except FinmeasError as err:
        return type(err), str(err)
    return g.values, norm


@settings(max_examples=300, deadline=None)
@given(
    measure_cases(),
    st.booleans(),
    st.integers(0, 9),
    st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2), 2, 3, INF]),
)
def test_lp_dual_density_matches_the_dense_loop(case, carried, flip, p):
    # indicator values of any sign against a measure with null atoms: the
    # same density and norm, or the same refusal (negative functional,
    # exponent below 1, charge on a mu-null atom)
    space, values, weights, _ = case
    if carried:
        values = [v if w else 0 for v, w in zip(values, weights)]
    if flip < len(values):
        values[flip] = -values[flip]
    functional, mu = LinearFunctional(space, values), Measure(space, weights)
    found = _dual_or_error(lp_dual_density, functional, mu, p)
    assert found == _dual_or_error(lp_dual_density_dense, functional, mu, p)


def test_sums_and_scalings_cost_the_nonzeros_not_the_atoms():
    """Two Diracs on 200,000 atoms: each result is built from the forms,
    where the dense round trip took about 0.4 s per call."""
    space = FiniteMeasurableSpace.discrete([f"p{k}" for k in range(200_000)])
    first, last = Measure.dirac(space, "p0"), Measure.dirac(space, "p199999")
    started = time.perf_counter()
    half = first.add(last).scale(Fraction(1, 2))
    assert time.perf_counter() - started < 0.1
    assert half.form == (2, (0, 199999), (1, 1))
    assert first.scale(0) == Measure.zero(space)
    with pytest.raises(ValueError, match="use SignedMeasure for negative scalings"):
        first.scale(Fraction(-1, 3))
