"""Finite (signed) measures: decompositions, densities, functionals.

A measure stores its weights as one canonical integer form (D, cols, nums),
weight nums[i] / D on atom cols[i] and 0 elsewhere; only this module
converts the form to and from Fractions.  Decompositions, Radon-Nikodym
derivatives and the Daniell/Riesz correspondence are exact; only q-th
roots of norms leave the rationals.
"""

from fractions import Fraction
from math import gcd, lcm

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


def _scaled(values):
    """(D, nums): Fractions as numerators over D, the lcm of their denominators."""
    d = lcm(*(w.denominator for w in values))
    return d, [w.numerator * (d // w.denominator) for w in values]


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
        cols = [j for j, w in enumerate(weights) if w]
        self._init(space, *_scaled([weights[j] for j in cols]), cols)

    def _init(self, space, d, nums, cols):
        if self._require_nonnegative and any(num < 0 for num in nums):
            raise ValueError("measure weights must be nonnegative")
        self.space = space
        self.form = (d, tuple(cols), tuple(nums))

    @classmethod
    def from_ints(cls, space, d, entries):
        """The measure with weight num / d on atom j for each int entry
        (j, num), atoms distinct and in any order.  Zero entries are dropped
        and the gcd of d and the nums divided out: the form is canonical."""
        kept = sorted((j, num) for j, num in entries if num)
        cols = [j for j, _ in kept]
        bounds = [-1, *cols, space.n_atoms]
        if d <= 0 or not all(a < b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("d must be positive and atoms distinct and in the space")
        g = gcd(d, *(num for _, num in kept))
        measure = cls.__new__(cls)
        measure._init(space, d // g, [num // g for _, num in kept], cols)
        return measure

    @classmethod
    def from_atom_weights(cls, space, weights):
        """The measure with rational weight weights[k] on atom k, 0 elsewhere."""
        d, nums = _scaled([as_fraction(w) for w in weights.values()])
        return cls.from_ints(space, d, zip(weights, nums))

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
        return cls.from_ints(space, 1, ())

    @classmethod
    def dirac(cls, space, point):
        return cls.from_ints(space, 1, [(space.atom_index_of_point(point), 1)])

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
        return Measure.from_ints(self.space, scale, sums.items())

    def scale(self, c):
        c = as_fraction(c)
        if c < 0:
            raise ValueError("use SignedMeasure for negative scalings")
        d, cols, nums = self.form
        scaled = zip(cols, (num * c.numerator for num in nums))
        return Measure.from_ints(self.space, d * c.denominator, scaled)

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
    entries = list(zip(cols, nums))
    plus = Measure.from_ints(nu.space, d, [(j, num) for j, num in entries if num > 0])
    minus = Measure.from_ints(nu.space, d, [(j, -num) for j, num in entries if num < 0])
    variation = Measure.from_ints(nu.space, d, [(j, abs(num)) for j, num in entries])
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
    """(h, carried, singular): the density h = mu/nu on the atoms nu
    charges and 0 elsewhere, and mu's form entries (j, num) on and off
    those atoms, each in atom order."""
    mu._check(nu)
    (d, cols, nums), (e, nu_cols, nu_nums) = mu.form, nu.form
    den = dict(zip(nu_cols, nu_nums))
    values = [0] * mu.space.n_atoms
    parts = ([], [])
    for j, num in zip(cols, nums):
        if j in den:
            values[j] = Fraction(num * e, d * den[j])
        parts[j not in den].append((j, num))
    return StepFunction(mu.space, values), *parts


def lebesgue_decompose(mu, nu):
    """mu = mu_a + mu_s with mu_a << nu, mu_s singular to nu, plus the density.

    On atoms nu charges the density is mu/nu and mu_s vanishes; on nu-null
    atoms all of mu is singular and the density is fixed to 0 so results
    are reproducible.
    """
    density, *parts = _density(mu, nu)
    absolutely, singular = (Measure.from_ints(mu.space, mu.form[0], p) for p in parts)
    return absolutely, singular, density


def radon_nikodym(mu, nu):
    """The density h with mu(A) = integral of h over A against nu.

    Requires mu << nu; change of measure follows for every step function f:
    integral f dmu = integral f h dnu.  The first atom that nu misses and
    mu charges is the witness of a violation.
    """
    density, _, singular = _density(mu, nu)
    if singular:
        atom = mu.space.atoms[singular[0][0]]
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
    g, _, singular = _density(represented, mu)
    if singular:
        atom = mu.space.atoms[singular[0][0]]
        raise UnsupportedFunctional(f"functional charges the mu-null atom {atom!r}")
    return g, lp_norm(g, mu, conjugate_exponent(p))


def change_of_measure(f, mu, nu):
    """integral f dmu computed through the density dmu/dnu."""
    h = radon_nikodym(mu, nu)
    return integral(f * h, nu)
