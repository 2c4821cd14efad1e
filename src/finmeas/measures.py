"""Finite (signed) measures: decompositions, densities, functionals.

A measure stores its weights as one canonical integer form (D, cols, nums),
weight nums[i] / D on atom cols[i] and 0 elsewhere; only this module
converts the form to and from Fractions, and from_ints builds it from two
int columns, atoms and numerators.  Decompositions, Radon-Nikodym
derivatives and the Daniell/Riesz correspondence are exact; only q-th
roots of norms leave the rationals.
"""

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import lt, mul, not_

from .errors import (
    AbsoluteContinuityViolated,
    NegativeFunctional,
    SpaceMismatch,
    UnsupportedFunctional,
)
from .integrate import (
    StepFunction,
    conjugate_exponent,
    integral,
    lp_norm,
    validate_exponent,
)
from .rational import as_fraction


class SignedMeasure:
    """A rational weight per atom, any sign, held as the form (D, cols, nums)."""

    __slots__ = ("space", "form")
    _require_nonnegative = False

    def __init__(self, space, weights):
        weights = [as_fraction(w) for w in weights]
        if len(weights) != space.n_atoms:
            raise ValueError(
                f"expected {space.n_atoms} atom weights, got {len(weights)}"
            )
        d = lcm(*(w.denominator for w in weights))
        nums = [w.numerator * (d // w.denominator) for w in weights]
        self.space = space
        self.form = self.from_ints(space, d, range(len(nums)), nums).form

    @classmethod
    def from_ints(cls, space, d, cols, nums):
        """The measure with weight nums[i] / d on atom cols[i] for two aligned
        int columns (a dict's keys() and values(), or range(n) and a list),
        atoms distinct and in any order.  Zeros are dropped and the gcd of d
        and the nums divided out, in C-level passes: the form is canonical."""
        cols, nums = tuple(cols), tuple(nums)
        if not all(nums):
            cols, nums = tuple(compress(cols, nums)), tuple(filter(None, nums))
        distinct = all(map(lt, cols, cols[1:]))
        if not distinct:
            cols, nums = zip(*sorted(zip(cols, nums)))
            distinct = all(map(lt, cols, cols[1:]))
        in_space = not cols or 0 <= cols[0] and cols[-1] < space.n_atoms
        if d <= 0 or not (distinct and in_space):
            raise ValueError("d must be positive and atoms distinct and in the space")
        if cls._require_nonnegative and min(nums, default=0) < 0:
            raise ValueError("measure weights must be nonnegative")
        g = gcd(d, *nums)
        if g > 1:
            d, nums = d // g, tuple(map(g.__rfloordiv__, nums))
        measure = cls.__new__(cls)
        measure.space, measure.form = space, (d, cols, nums)
        return measure

    @classmethod
    def from_atom_weights(cls, space, weights):
        """The measure with weight n / q on atom k for each ratio
        weights[k] = (n, q) of ints, q > 0, and 0 elsewhere."""
        d = lcm(*(q for _, q in weights.values()))
        nums = [n * (d // q) for n, q in weights.values()]
        return cls.from_ints(space, d, weights.keys(), nums)

    @property
    def weights(self):
        """The dense tuple of atom weights, built on each access."""
        d, cols, nums = self.form
        weights = [Fraction(0)] * self.space.n_atoms
        for j, num in zip(cols, nums):
            weights[j] = Fraction(num, d)
        return tuple(weights)

    def ints_over(self, scale):
        """The dense list of atom weights times scale, as ints; scale must
        be a multiple of the form's D."""
        d, cols, nums = self.form
        ints = [0] * self.space.n_atoms
        for j, num in zip(cols, nums):
            ints[j] = num * (scale // d)
        return ints

    def eval(self, mset):
        """Value on a measurable set: the sum of its atom weights."""
        if mset.space != self.space:
            raise SpaceMismatch("set lives on a different space")
        d, cols, nums = self.form
        inside = set(mset.atom_indices)
        return Fraction(sum(num for j, num in zip(cols, nums) if j in inside), d)

    def total(self):
        d, _, nums = self.form
        return Fraction(sum(nums), d)

    def _check(self, other):
        if self.space != other.space:
            raise SpaceMismatch("measures live on different spaces")

    def __eq__(self, other):
        return (
            isinstance(other, SignedMeasure)
            and self.space == other.space
            and self.form == other.form
        )

    def __hash__(self):
        return hash((self.space, self.form))

    def __repr__(self):
        pairs = ", ".join(
            "{" + ",".join(a) + "}:" + str(w)
            for a, w in zip(self.space.atoms, self.weights)
        )
        return f"{type(self).__name__}({pairs})"


class Measure(SignedMeasure):
    """A nonnegative finite measure."""

    __slots__ = ()
    _require_nonnegative = True

    @classmethod
    def zero(cls, space):
        return cls.from_ints(space, 1, (), ())

    @classmethod
    def dirac(cls, space, point):
        return cls.from_ints(space, 1, (space.atom_index_of_point(point),), (1,))

    def is_probability(self):
        d, _, nums = self.form
        return sum(nums) == d

    def add(self, other):
        self._check(other)
        (d, cols, nums), (e, other_cols, other_nums) = self.form, other.form
        scale = lcm(d, e)
        sums = dict(zip(cols, (num * (scale // d) for num in nums)))
        for j, num in zip(other_cols, other_nums):
            sums[j] = sums.get(j, 0) + num * (scale // e)
        return Measure.from_ints(self.space, scale, sums.keys(), sums.values())

    def scale(self, c):
        c = as_fraction(c)
        if c < 0:
            raise ValueError("use SignedMeasure for negative scalings")
        d, cols, nums = self.form
        scaled = map(c.numerator.__mul__, nums)
        return Measure.from_ints(self.space, d * c.denominator, cols, scaled)

    def support_atoms(self):
        return self.form[1]


class LinearFunctional:
    """A linear functional on step functions, given on the indicator basis."""

    def __init__(self, space, values_on_atom_indicators):
        values = tuple(as_fraction(v) for v in values_on_atom_indicators)
        if len(values) != space.n_atoms:
            raise ValueError(
                f"expected {space.n_atoms} indicator values, got {len(values)}"
            )
        self.space = space
        self.values_on_atom_indicators = values

    def __call__(self, f):
        """Apply by linearity: f = sum of f(atom) * indicator(atom)."""
        if f.space != self.space:
            raise SpaceMismatch("function lives on a different space")
        return sum(
            (v * c for v, c in zip(f.values, self.values_on_atom_indicators)),
            start=Fraction(0),
        )

    def is_positive(self):
        return all(v >= 0 for v in self.values_on_atom_indicators)

    def __eq__(self, other):
        return (
            isinstance(other, LinearFunctional)
            and self.space == other.space
            and self.values_on_atom_indicators == other.values_on_atom_indicators
        )

    def __hash__(self):
        return hash((self.space, self.values_on_atom_indicators))


def jordan_decompose(nu):
    """Split a signed measure into (plus, minus, total_variation).

    On atoms the split is forced: positive weights go to plus, negated
    negative weights to minus; the carriers are the positive and negative
    atoms, so plus and minus are mutually singular by construction.
    """
    d, cols, nums = nu.form
    plus = Measure.from_ints(nu.space, d, cols, [max(num, 0) for num in nums])
    minus = Measure.from_ints(nu.space, d, cols, [max(-num, 0) for num in nums])
    variation = Measure.from_ints(nu.space, d, cols, map(abs, nums))
    return plus, minus, variation


def absolutely_continuous(mu, nu):
    """mu << nu: every nu-null atom is mu-null."""
    mu._check(nu)
    return set(mu.form[1]) <= set(nu.form[1])


def mutually_singular(mu, nu):
    """mu and nu concentrate on disjoint sets; returns (flag, carrier_mu, carrier_nu)."""
    mu._check(nu)
    sup_mu = mu.space.set_of_atoms(mu.form[1])
    sup_nu = mu.space.set_of_atoms(nu.form[1])
    return not (sup_mu.members & sup_nu.members), sup_mu, sup_nu


def _density(mu, nu):
    """(h, carried): the density h = mu/nu on the atoms nu charges and 0
    elsewhere, and for each of mu's form entries whether nu charges its atom."""
    mu._check(nu)
    (d, cols, nums), (e, nu_cols, nu_nums) = mu.form, nu.form
    den = dict(zip(nu_cols, nu_nums))
    carried = list(map(den.__contains__, cols))
    values = [0] * mu.space.n_atoms
    for j, num in compress(zip(cols, nums), carried):
        values[j] = Fraction(num * e, d * den[j])
    return StepFunction(mu.space, values), carried


def lebesgue_decompose(mu, nu):
    """mu = mu_a + mu_s with mu_a << nu, mu_s singular to nu, plus the density.

    On atoms nu charges the density is mu/nu and mu_s vanishes; on nu-null
    atoms all of mu is singular and the density is fixed to 0 so results
    are reproducible.
    """
    density, carried = _density(mu, nu)
    d, cols, nums = mu.form
    absolutely = Measure.from_ints(mu.space, d, cols, map(mul, nums, carried))
    singular = Measure.from_ints(mu.space, d, cols, map(mul, nums, map(not_, carried)))
    return absolutely, singular, density


def radon_nikodym(mu, nu):
    """The density h with mu(A) = integral of h over A against nu.

    Requires mu << nu; change of measure follows for every step function f:
    integral f dmu = integral f h dnu.  The first atom that nu misses and
    mu charges is the witness of a violation.
    """
    density, carried = _density(mu, nu)
    if not all(carried):
        atom = mu.space.atoms[mu.form[1][carried.index(False)]]
        raise AbsoluteContinuityViolated(
            f"nu vanishes on atom {atom!r} but mu does not", witness_atom=atom
        )
    return density


def measure_from_functional(functional):
    """The measure mu with mu(atom) = L(indicator of atom).

    Positivity of L is required; L(f) = integral f dmu then holds for every
    step function by linearity.
    """
    if not functional.is_positive():
        raise NegativeFunctional("functional is negative on an atom indicator")
    return Measure(functional.space, functional.values_on_atom_indicators)


def integration_functional(mu):
    """The functional f -> integral f dmu; inverse of measure_from_functional."""
    return LinearFunctional(mu.space, mu.weights)


def lp_dual_density(functional, mu, p):
    """Represent a positive functional on Lp(mu) as integration against g.

    g is the Radon-Nikodym density of the measure that represents the
    functional: L(indicator)/mu(atom) on mu-charged atoms and 0 elsewhere.
    The operator norm is ||g||_q for the conjugate exponent q, exact for
    q in {1, infinity} and a float otherwise.
    """
    if functional.space != mu.space:
        raise SpaceMismatch("functional and measure live on different spaces")
    represented = measure_from_functional(functional)
    p = validate_exponent(p)
    g, carried = _density(represented, mu)
    if not all(carried):
        atom = mu.space.atoms[represented.form[1][carried.index(False)]]
        raise UnsupportedFunctional(f"functional charges the mu-null atom {atom!r}")
    return g, lp_norm(g, mu, conjugate_exponent(p))


def change_of_measure(f, mu, nu):
    """integral f dmu computed through the density dmu/dnu."""
    h = radon_nikodym(mu, nu)
    return integral(f * h, nu)
