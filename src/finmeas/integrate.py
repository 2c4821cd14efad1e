"""Step functions, integration, Lp norms, and the convergence-in-measure metric.

All functions on a finite measurable space are step functions: constant on
atoms, hence a rational value per atom.  Integrals and the p = 1, infinity
norms are exact; p-th roots fall back to floats.
"""

import math
import sys
from fractions import Fraction

from .errors import FloatRange, InvalidExponent, NegativeFunction, SpaceMismatch
from .rational import as_fraction, to_float

INF = math.inf

_POWER_BITS = 1 << 16  # the most bits lp_norm spends on an exact power sum


class StepFunction:
    """An atom-constant rational function on a finite measurable space."""

    def __init__(self, space, values):
        values = tuple(as_fraction(v) for v in values)
        if len(values) != space.n_atoms:
            raise ValueError(
                f"expected {space.n_atoms} atom values, got {len(values)}"
            )
        self.space = space
        self.values = values

    @classmethod
    def constant(cls, space, value):
        return cls(space, [as_fraction(value)] * space.n_atoms)

    @classmethod
    def indicator(cls, mset):
        """The characteristic function of a measurable set."""
        inside = set(mset.atom_indices)
        return cls(
            mset.space,
            [Fraction(int(k in inside)) for k in range(mset.space.n_atoms)],
        )

    def __call__(self, point):
        return self.values[self.space.atom_index_of_point(point)]

    def _check(self, other):
        if self.space != other.space:
            raise SpaceMismatch("step functions live on different spaces")

    def _zip(self, other, op):
        if isinstance(other, StepFunction):
            self._check(other)
            return StepFunction(
                self.space, [op(a, b) for a, b in zip(self.values, other.values)]
            )
        c = as_fraction(other)
        return StepFunction(self.space, [op(a, c) for a in self.values])

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._zip(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return StepFunction(self.space, [-v for v in self.values])

    def __abs__(self):
        return StepFunction(self.space, [abs(v) for v in self.values])

    def __eq__(self, other):
        return (
            isinstance(other, StepFunction)
            and self.space == other.space
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.space, self.values))

    def is_nonnegative(self):
        return all(v >= 0 for v in self.values)

    def superlevel_set(self, level):
        """The measurable set {f >= level}."""
        return self.space.set_of_atoms(
            [k for k, v in enumerate(self.values) if v >= level]
        )

    def __repr__(self):
        pairs = ", ".join(
            "{" + ",".join(a) + "}:" + str(v)
            for a, v in zip(self.space.atoms, self.values)
        )
        return f"StepFunction({pairs})"


def pointwise_max(f, g):
    return f._zip(g, max)


def pointwise_min(f, g):
    return f._zip(g, min)


def _check_pair(f, mu):
    if f.space != mu.space:
        raise SpaceMismatch("function and measure live on different spaces")


def integral(f, mu):
    """Integral of a step function: the weight-weighted sum of atom values."""
    _check_pair(f, mu)
    d, cols, nums = mu.form
    return Fraction(sum(f.values[j] * num for j, num in zip(cols, nums)), d)


def validate_exponent(p):
    """The exponent as a Fraction >= 1, or INF; InvalidExponent otherwise."""
    if p == INF:
        return INF
    p = as_fraction(p)
    if p < 1:
        raise InvalidExponent(f"p must be >= 1 or infinity, got {p}")
    return p


def lp_norm(f, mu, p):
    """The Lp norm of f under mu.

    Exact Fraction for p = 1 and p = infinity (essential sup on positive
    atoms); a float for every other exponent, where the p-th root is
    generally irrational.  See lp_norm_power for the exact p-th power.
    This is the one place where an Lp norm becomes a float.  The p-th power
    is taken as a float first; when it comes out beyond or below the normal
    float range, or its exact sum would pass _POWER_BITS bits, the norm is
    M (integral (|f|/M)^p dmu)^(1/p) with M = max |f| on the support;
    FloatRange when the norm itself is beyond the largest float.
    """
    _check_pair(f, mu)
    p = validate_exponent(p)
    if p == 1:
        return integral(abs(f), mu)
    d, cols, nums = mu.form
    pairs = [(abs(f.values[j]), Fraction(num, d)) for j, num in zip(cols, nums)]
    if p == INF:
        return max((v for v, w in pairs if w > 0), default=Fraction(0))
    support = [(v, w) for v, w in pairs if v]
    if not support:
        return 0.0
    q = to_float(p)
    bits = p * sum((v.numerator * v.denominator).bit_length() for v, _ in support)
    cheap = p.denominator > 1 or bits <= _POWER_BITS
    total = _float_power(support, p) if cheap else 0.0
    if sys.float_info.min <= total < math.inf:
        return total ** (1.0 / q)
    m = max(v for v, _ in support)
    scaled = sum(
        (Fraction(float(v / m) ** q) * w for v, w in support), start=Fraction(0)
    )
    try:
        return math.exp(_log(m) + _log(scaled) / q)
    except OverflowError:
        raise FloatRange("the Lp norm is beyond the largest float") from None


def _float_power(support, p):
    """integral |f|^p dmu as a float, inf when it overflows."""
    try:
        if p.denominator == 1:
            k = int(p)
            return float(sum((v**k * w for v, w in support), start=Fraction(0)))
        return sum(float(v) ** float(p) * float(w) for v, w in support)
    except OverflowError:
        return math.inf


def _log(x):
    """Natural log of a positive Fraction of any size."""
    return math.log(x.numerator) - math.log(x.denominator)


def lp_norm_power(f, mu, p):
    """Exact value of integral |f|^p dmu for integer exponents p >= 1."""
    _check_pair(f, mu)
    p = validate_exponent(p)
    if p == INF or p.denominator != 1:
        raise InvalidExponent("exact powers need an integer exponent")
    k = int(p)
    d, cols, nums = mu.form
    return Fraction(sum(abs(f.values[j]) ** k * num for j, num in zip(cols, nums)), d)


def lp_norm_squared(f, mu):
    """Exact squared L2 norm, integral f^2 dmu."""
    return lp_norm_power(f, mu, 2)


def conjugate_exponent(p):
    """The q with 1/p + 1/q = 1 for a validated exponent p."""
    if p == INF:
        return Fraction(1)
    if p == 1:
        return INF
    return p / (p - 1)


def check_hoelder(f, g, mu, p):
    """Evaluate integral |f g| dmu <= ||f||_p ||g||_q with 1/p + 1/q = 1.

    Requires p > 1 (p may be infinity).  The comparison is exact for
    p = 2 (squared) and p = infinity; other exponents are certified in
    floats with slack 1e-9.  rhs is the product of the two lp_norm values;
    FloatRange when it is beyond the largest float.  Returns (lhs, rhs, holds).
    """
    _check_pair(f, mu)
    _check_pair(g, mu)
    p = validate_exponent(p)
    if p == 1:
        raise InvalidExponent("Hoelder here needs p > 1; p = 1 pairs with q = inf")
    lhs = integral(abs(f * g), mu)
    rhs = lp_norm(f, mu, p) * lp_norm(g, mu, conjugate_exponent(p))
    if rhs == INF:
        raise FloatRange("the Hoelder bound is beyond the largest float")
    if p == INF:
        return lhs, rhs, lhs <= rhs
    if p == 2:
        return lhs, rhs, lhs * lhs <= lp_norm_squared(f, mu) * lp_norm_squared(g, mu)
    return lhs, rhs, to_float(lhs) <= rhs + 1e-9


def check_minkowski(f, g, mu, p):
    """Evaluate ||f + g||_p <= ||f||_p + ||g||_p.

    Exact for p = 1 and p = infinity; for p = 2 the inequality is decided
    exactly by squaring twice; other exponents use floats with slack 1e-9.
    lhs and rhs are lp_norm values and their sum; FloatRange when the sum
    is beyond the largest float.  Returns (lhs, rhs, holds).
    """
    _check_pair(f, mu)
    _check_pair(g, mu)
    p = validate_exponent(p)
    s = f + g
    lhs = lp_norm(s, mu, p)
    rhs = lp_norm(f, mu, p) + lp_norm(g, mu, p)
    if rhs == INF:
        raise FloatRange("the Minkowski bound is beyond the largest float")
    if p == 1 or p == INF:
        return lhs, rhs, lhs <= rhs
    if p == 2:
        a, b, c = (lp_norm_squared(h, mu) for h in (s, f, g))
        # lhs <= rhs  iff  a - b - c <= 2 sqrt(b c), squared once more
        gap = a - b - c
        return lhs, rhs, gap <= 0 or gap * gap <= 4 * b * c
    return lhs, rhs, lhs <= rhs + 1e-9


def layered_integral(f, mu):
    """Layered (Choquet) form: sum over levels r_j of (r_j - r_{j-1}) mu({f >= r_j}).

    Defined for nonnegative f; always equals integral(f, mu).
    """
    _check_pair(f, mu)
    if not f.is_nonnegative():
        raise NegativeFunction("the layered representation needs f >= 0")
    levels = sorted({v for v in f.values if v > 0})
    total = Fraction(0)
    previous = Fraction(0)
    for r in levels:
        total += (r - previous) * mu.eval(f.superlevel_set(r))
        previous = r
    return total


def conv_in_measure_distance(f, g, mu):
    """The pseudo-metric delta(f, g) = inf{eps > 0 : mu(|f - g| > eps) <= eps}.

    The tail map eps -> mu(|f - g| > eps) is a right-continuous step
    function, constant between consecutive values of |f - g| on the charged
    atoms.  Sweeping those levels upward, the first gap [level, above) that
    holds an eps >= its tail holds the infimum: max(level, tail).
    """
    _check_pair(f, mu)
    _check_pair(g, mu)
    d, cols, nums = mu.form
    mass = {Fraction(0): 0}  # d times mu(|f - g| = level)
    for j, num in zip(cols, nums):
        level = abs(f.values[j] - g.values[j])
        mass[level] = mass.get(level, 0) + num
    levels = sorted(mass)
    tail = sum(nums)
    for level, above in zip(levels, levels[1:] + [INF]):
        tail -= mass[level]  # d times mu(|f - g| > level)
        eps = max(level, Fraction(tail, d))
        if eps < above:
            return eps
