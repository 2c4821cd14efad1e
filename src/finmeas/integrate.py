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
    pairs = [(f.values[j], num) for j, num in zip(cols, nums)]
    return Fraction(*_power_sum(pairs, d, 1))


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
    if p == INF:
        values = (abs(f.values[j]) for j, num in zip(cols, nums) if num > 0)
        return max(values, default=Fraction(0))
    support = _support(f, mu)
    if not support:
        return 0.0
    q = to_float(p)
    bits = p * sum((v.numerator * v.denominator).bit_length() for v, _ in support)
    cheap = p.denominator > 1 or bits <= _POWER_BITS
    total = _float_power(support, d, p) if cheap else 0.0
    if sys.float_info.min <= total < math.inf:
        return total ** (1.0 / q)
    m, x = _scaled_power(support, d, q)
    try:
        return math.exp(_log(m) + x)
    except OverflowError:
        raise FloatRange("the Lp norm is beyond the largest float") from None


def _support(f, mu):
    """The pairs (|f|, num) on the atoms where f and mu's weight num / d are
    nonzero, d = mu.form[0]."""
    d, cols, nums = mu.form
    return [(abs(f.values[j]), num) for j, num in zip(cols, nums) if f.values[j]]


def _power_sum(pairs, d, k):
    """sum v^k num over the (value, num) pairs as two ints: a numerator over
    L^k d, with L the lcm of the values' denominators."""
    big = math.lcm(*(v.denominator for v, _ in pairs))
    total = sum((v.numerator * (big // v.denominator)) ** k * num for v, num in pairs)
    return total, big**k * d


def _float_power(support, d, p):
    """integral |f|^p dmu as a float, inf on overflow; integer p sums exactly."""
    try:
        if p.denominator == 1:
            total, scale = _power_sum(support, d, int(p))
            return total / scale
        return sum(float(v) ** float(p) * (num / d) for v, num in support)
    except OverflowError:
        return math.inf


def _scaled_power(support, d, q):
    """(M, log(integral (|f|/M)^q dmu) / q) for M = max |f| on the support,
    each power a float: the log of the norm is log M plus the second."""
    m = max(v for v, _ in support)
    s = _power_sum([(Fraction(float(v / m) ** q), num) for v, num in support], d, 1)
    return m, _log(Fraction(*s)) / q


def _log(x):
    """Natural log of a positive Fraction of any size."""
    return math.log(x.numerator) - math.log(x.denominator)


def lp_norm_power(f, mu, p):
    """Exact value of integral |f|^p dmu for integer exponents p >= 1."""
    _check_pair(f, mu)
    p = validate_exponent(p)
    if p == INF or p.denominator != 1:
        raise InvalidExponent("exact powers need an integer exponent")
    return Fraction(*_power_sum(_support(f, mu), mu.form[0], int(p)))


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
    floats with slack 1e-9.  rhs is the product of the two lp_norm values,
    taken on logs for finite p when one is outside the normal float range
    (0.0 or subnormal on a nonempty support, or past the largest float);
    FloatRange when it is beyond the largest float.  Returns (lhs, rhs, holds).
    """
    _check_pair(f, mu)
    _check_pair(g, mu)
    p = validate_exponent(p)
    if p == 1:
        raise InvalidExponent("Hoelder here needs p > 1; p = 1 pairs with q = inf")
    lhs = integral(abs(f * g), mu)
    q = conjugate_exponent(p)
    try:
        a, b = lp_norm(f, mu, p), lp_norm(g, mu, q)
    except FloatRange:  # a factor norm is past the largest float
        a = b = 0.0
    rhs = a * b
    if p != INF and min(a, b) < sys.float_info.min:  # a float norm out of range: on logs
        fs, gs, d = _support(f, mu), _support(g, mu), mu.form[0]
        if fs and gs:
            m, x = _scaled_power(fs, d, to_float(p))
            n, y = _scaled_power(gs, d, to_float(q))
            try:
                rhs = math.exp(_log(m * n) + x + y)
            except OverflowError:
                rhs = INF
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

    Defined for nonnegative f; always equals integral(f, mu).  A level that
    no charged atom takes leaves mu({f >= r}) as it is, so one upward sweep
    over the charged levels, with a running tail, gives the sum.
    """
    _check_pair(f, mu)
    if not f.is_nonnegative():
        raise NegativeFunction("the layered representation needs f >= 0")
    d, cols, nums = mu.form
    mass = {}  # d times mu({f = level}) for each positive level
    for j, num in zip(cols, nums):
        if f.values[j] > 0:
            mass[f.values[j]] = mass.get(f.values[j], 0) + num
    total, previous, tail = Fraction(0), 0, sum(mass.values())
    for r in sorted(mass):
        total += (r - previous) * tail  # tail is d times mu({f >= r})
        previous, tail = r, tail - mass[r]
    return total / d


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
