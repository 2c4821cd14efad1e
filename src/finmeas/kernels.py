"""Transition kernels and everything built from them.

A kernel assigns each domain atom a measure on the codomain; rows constant
on atoms make measurability automatic.  Convolution is Kleisli composition,
the lift acts on measures, products and disintegration translate between
joints and (marginal, kernel) pairs, and path measures iterate a kernel to
a finite horizon.

The arithmetic-heavy operations (convolution, the lift, path measures and
the refinement code in logic_bisim) work on sparse integer rows: each row
is scaled by the lcm of its nonzero denominators, sums and products run on
Python ints over the nonzero entries only, and every result entry becomes
one Fraction at the end.  A kernel builds these rows once, in its
constructor, as ``scaled_rows``, and reads its kind off the same pass.
"""

from fractions import Fraction
from itertools import compress
from math import lcm

from .errors import (
    HorizonTooLarge,
    NotAtomMap,
    NotProductSpace,
    SpaceMismatch,
)
from .integrate import StepFunction, integral
from .measures import Measure
from .spaces import product_space

FINITE = "finite"
SUB_MARKOV = "subMarkov"
MARKOV = "Markov"

_KIND_ORDER = {FINITE: 0, SUB_MARKOV: 1, MARKOV: 2}


def _join_kind(*kinds):
    return min(kinds, key=_KIND_ORDER.__getitem__)


class Kernel:
    """One measure on the codomain per domain atom, tagged by kind.

    ``scaled_rows`` holds each row as integers: a tuple (D, cols, nums)
    over its nonzero entries, where D is the lcm of their denominators (1
    for a zero row) and entry cols[i] is nums[i] / D.  The kind flag is
    validated eagerly against the row masses sum(nums) / D: Markov needs
    every one equal to one, subMarkov at most one.  Operations propagate
    the weakest kind that is sound for their operands.
    """

    def __init__(self, domain, codomain, rows, kind=None):
        rows = tuple(rows)
        if len(rows) != len(domain.atoms):
            raise ValueError(
                f"expected {len(domain.atoms)} rows, got {len(rows)}"
            )
        scaled_rows = []
        inferred = MARKOV
        for row in rows:
            if not isinstance(row, Measure):
                raise ValueError("kernel rows must be nonnegative measures")
            if row.space != codomain:
                raise SpaceMismatch("kernel row lives on the wrong codomain")
            weights = row.weights
            cols = tuple(compress(range(len(weights)), weights))
            entries = [weights[j] for j in cols]
            d = lcm(*(w.denominator for w in entries))
            nums = tuple(w.numerator * (d // w.denominator) for w in entries)
            total = sum(nums)
            if total > d:
                inferred = FINITE
            elif total < d and inferred == MARKOV:
                inferred = SUB_MARKOV
            scaled_rows.append((d, cols, nums))
        if kind is None:
            kind = inferred
        elif kind not in _KIND_ORDER:
            raise ValueError(f"unknown kernel kind {kind!r}")
        elif _KIND_ORDER[kind] > _KIND_ORDER[inferred]:
            raise ValueError(
                f"declared kind {kind} is unsound, rows support only {inferred}"
            )
        self.domain = domain
        self.codomain = codomain
        self.rows = rows
        self.scaled_rows = tuple(scaled_rows)
        self.kind = kind

    @classmethod
    def from_matrix(cls, domain, codomain, matrix, kind=None):
        rows = [Measure(codomain, row) for row in matrix]
        return cls(domain, codomain, rows, kind)

    def row(self, atom_index):
        return self.rows[atom_index]

    def row_at_point(self, point):
        return self.rows[self.domain.atom_index_of_point(point)]

    def is_endo(self):
        return self.domain == self.codomain

    def __eq__(self, other):
        return (
            isinstance(other, Kernel)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.rows))

    def __repr__(self):
        return (
            f"Kernel({len(self.domain.atoms)} atoms -> "
            f"{len(self.codomain.atoms)} atoms, {self.kind})"
        )


def _mix(masses, rows, n_out):
    """The weights of sum_k masses[k] * row_k, for a kernel's scaled rows.

    Every term is scaled to the lcm Q of mass denominator times row scale
    over the nonzero masses, accumulated as ints, and divided by Q once.
    """
    terms = [(m, rows[k]) for k, m in enumerate(masses) if m]
    q = lcm(*(m.denominator * d for m, (d, _, _) in terms))
    acc = [0] * n_out
    for m, (d, cols, nums) in terms:
        factor = m.numerator * (q // (m.denominator * d))
        for j, num in zip(cols, nums):
            acc[j] += factor * num
    zero = Fraction(0)
    return [Fraction(a, q) if a else zero for a in acc]


def identity_kernel(space):
    """The neutral element for convolution: rows are unit point masses."""
    n = len(space.atoms)
    rows = [
        Measure(space, [Fraction(int(i == k)) for i in range(n)])
        for k in range(n)
    ]
    return Kernel(space, space, rows, MARKOV)


def convolve(left, right):
    """Kleisli composition (left * right)(x)(C) = integral left(y)(C) d right(x)(y).

    right feeds left: right.codomain must equal left.domain.  Reduces to
    stochastic matrix multiplication of the row matrices, run over the
    nonzero entries of left's scaled rows.
    """
    if right.codomain != left.domain:
        raise SpaceMismatch("right.codomain must equal left.domain")
    n_out = len(left.codomain.atoms)
    rows = [
        Measure(left.codomain, _mix(row.weights, left.scaled_rows, n_out))
        for row in right.rows
    ]
    return Kernel(
        right.domain, left.codomain, rows, _join_kind(left.kind, right.kind)
    )


def kleisli_lift(kernel, mu):
    """The lifted map on measures: (K bar)(mu)(B) = integral K(x)(B) dmu(x)."""
    if mu.space != kernel.domain:
        raise SpaceMismatch("measure lives on a different space than the domain")
    n_out = len(kernel.codomain.atoms)
    return Measure(
        kernel.codomain, _mix(mu.weights, kernel.scaled_rows, n_out)
    )


def measure_kernel_product(mu, kernel):
    """The measure mu (x) K on the product of mu's space and the codomain."""
    if mu.space != kernel.domain:
        raise SpaceMismatch("measure lives on a different space than the domain")
    prod = product_space(mu.space, kernel.codomain)
    weights = []
    for w, row in zip(mu.weights, kernel.rows):
        for v in row.weights:
            weights.append(w * v)
    return Measure(prod, weights)


def product_measure(mu, nu):
    """The product measure with weight mu(A) nu(B) on each rectangle atom."""
    prod = product_space(mu.space, nu.space)
    weights = [w * v for w in mu.weights for v in nu.weights]
    return Measure(prod, weights)


def _require_product(space):
    if space.factors is None:
        raise NotProductSpace("this operation needs a space built by product_space")
    return space.factors


def cut_x(f, left_atom_index):
    """The section f(x, .) for x in a fixed left atom."""
    left, right = _require_product(f.space)
    n = len(right.atoms)
    start = left_atom_index * n
    return StepFunction(right, f.values[start : start + n])


def cut_y(f, right_atom_index):
    """The section f(., y) for y in a fixed right atom."""
    left, right = _require_product(f.space)
    n = len(right.atoms)
    return StepFunction(
        left, [f.values[i * n + right_atom_index] for i in range(len(left.atoms))]
    )


def fubini(f, mu, nu):
    """Evaluate integral f d(mu x nu) directly and via both iterated orders.

    Returns (direct, iterated_xy, iterated_yx); the three are provably equal
    on finite spaces, so any daylight between them is a bug.
    """
    product = product_measure(mu, nu)
    if f.space != product.space:
        raise SpaceMismatch("f must live on the product of the two spaces")
    direct = integral(f, product)
    inner_x = StepFunction(
        mu.space,
        [integral(cut_x(f, i), nu) for i in range(len(mu.space.atoms))],
    )
    iterated_xy = integral(inner_x, mu)
    inner_y = StepFunction(
        nu.space,
        [integral(cut_y(f, j), mu) for j in range(len(nu.space.atoms))],
    )
    iterated_yx = integral(inner_y, nu)
    return direct, iterated_xy, iterated_yx


class AtomMap:
    """A measurable point map sending every domain atom into one codomain atom."""

    def __init__(self, domain, codomain, mapping):
        self.domain = domain
        self.codomain = codomain
        self.mapping = dict(mapping)
        for p in domain.points:
            if p not in self.mapping:
                raise NotAtomMap(f"map not defined at point {p!r}")
            codomain.point_index(self.mapping[p])
        self.atom_mapping = []
        for atom in domain.atoms:
            targets = {codomain.atom_index_of_point(self.mapping[p]) for p in atom}
            if len(targets) != 1:
                raise NotAtomMap(
                    f"domain atom {atom!r} is split across codomain atoms"
                )
            self.atom_mapping.append(targets.pop())

    def __call__(self, point):
        return self.mapping[point]

    def compose_function(self, h):
        """The step function h o f on the domain."""
        if h.space != self.codomain:
            raise SpaceMismatch("function lives on a different space")
        return StepFunction(
            self.domain, [h.values[k] for k in self.atom_mapping]
        )


def pushforward(f, mu):
    """The image measure: weight of B is the mu-mass of its preimage."""
    if isinstance(f, dict):
        raise TypeError("wrap the point map in AtomMap(domain, codomain, mapping)")
    if mu.space != f.domain:
        raise SpaceMismatch("measure lives on a different space than the map domain")
    weights = [Fraction(0)] * len(f.codomain.atoms)
    for w, target in zip(mu.weights, f.atom_mapping):
        weights[target] += w
    return Measure(f.codomain, weights)


# the largest path space path_measure builds
MAX_PATH_POINTS = 1 << 16
MAX_PATH_LABEL_BYTES = 1 << 24


def _path_space_size(step_space, horizon):
    """(points, label bytes) of the horizon-h path space, without building it.

    A product label escape(p) + "|" + escape(q) adds a byte per bar, so with
    n points, B bytes and C bars in the step space, N points, L bytes and V
    bars extend to n N points, n (L + V) + N (n + B + C) bytes and
    2 n V + N (n + 2 C) bars.  The bars at least double per step, so the
    first limit passed raises HorizonTooLarge within about 25 steps.
    """
    n = len(step_space.points)
    b = sum(len(p.encode()) for p in step_space.points)
    c = sum(p.count("|") for p in step_space.points)
    points, size, bars = n, b, c
    for steps in range(1, horizon + 1):
        if points > MAX_PATH_POINTS or size > MAX_PATH_LABEL_BYTES:
            raise HorizonTooLarge(
                f"horizon {steps} already has {points} paths and {size} label bytes,"
                f" past the limits {MAX_PATH_POINTS} and {MAX_PATH_LABEL_BYTES}"
            )
        if steps == horizon:
            return points, size
        points, size, bars = (
            n * points,
            n * (size + bars) + points * (n + b + c),
            2 * n * bars + points * (n + 2 * c),
        )


def path_measure(kernel, start_point, horizon):
    """Distribution of the first `horizon` steps of the chain driven by `kernel`.

    The kernel maps a state space S to a product T x S (an observation and
    the next state).  The horizon-n measure lives on the n-fold product
    (left associated) of T x S; each extension weights a path by the kernel
    row of the state component of its last coordinate.  Projectivity holds:
    summing out the last coordinate of the horizon n+1 measure gives the
    horizon n measure.  Path weights are carried as ints over D^t, with D
    the lcm of the kernel's row scales, and divided out at the horizon.
    Path spaces past the MAX_PATH_* limits raise HorizonTooLarge up front.
    """
    step_space = kernel.codomain
    factors = step_space.factors
    if factors is None or factors[1] != kernel.domain:
        raise SpaceMismatch(
            "kernel must map S into a product T x S built by product_space"
        )
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    _path_space_size(step_space, horizon)
    n_step = len(step_space.atoms)
    n_s = len(factors[1].atoms)
    rows = kernel.scaled_rows
    scale = lcm(*(d for d, _, _ in rows))
    dense = []
    for d, cols, nums in rows:
        row = [0] * n_step
        for k, num in zip(cols, nums):
            row[k] = num * (scale // d)
        dense.append(row)

    start = kernel.domain.atom_index_of_point(start_point)
    space = step_space
    weights = dense[start]
    for _ in range(horizon - 1):
        space = product_space(space, step_space)
        # rectangle atoms are row-major, so the state component of path
        # atom idx (the state of its last step) is idx % n_s
        weights = [
            w * v
            for idx, w in enumerate(weights)
            for v in dense[idx % n_s]
        ]
    den = scale**horizon
    zero = Fraction(0)
    return Measure(space, [Fraction(w, den) if w else zero for w in weights])


def path_marginal(measure):
    """Sum out the final coordinate of a path measure (cylinder restriction)."""
    factors = _require_product(measure.space)
    prefix, step = factors
    n_step = len(step.atoms)
    weights = [Fraction(0)] * len(prefix.atoms)
    for idx, w in enumerate(measure.weights):
        weights[idx // n_step] += w
    return Measure(prefix, weights)


def disintegrate(joint):
    """Split a joint on Y x Z into (marginal on Y, kernel Y to Z, null fibers).

    Rows over marginal-null fibers are fixed to the zero measure and those
    fibers are reported, so the decomposition is reproducible; the round
    trip measure_kernel_product(marginal, kernel) restores the joint.
    """
    left, right = _require_product(joint.space)
    n_r = len(right.atoms)
    marginal_weights = []
    rows = []
    null_fibers = []
    for i, atom in enumerate(left.atoms):
        fiber = joint.weights[i * n_r : (i + 1) * n_r]
        mass = sum(fiber, start=Fraction(0))
        marginal_weights.append(mass)
        if mass == 0:
            if any(w != 0 for w in fiber):
                raise ValueError("joint has a zero-mass fiber with nonzero weights")
            rows.append(Measure.zero(right))
            null_fibers.append(atom)
        else:
            rows.append(Measure(right, [w / mass for w in fiber]))
    marginal = Measure(left, marginal_weights)
    kind = MARKOV if not null_fibers else SUB_MARKOV
    return marginal, Kernel(left, right, rows, kind), tuple(null_fibers)
