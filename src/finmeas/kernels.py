"""Transition kernels and everything built from them.

A kernel assigns each domain atom a measure on the codomain; rows constant
on atoms make measurability automatic.  Convolution is Kleisli composition,
the lift acts on measures, products and disintegration translate between
joints and (marginal, kernel) pairs, and path measures iterate a kernel to
a finite horizon, on the flat product of that many copies of its codomain.

Every row is a measure in its integer form (D, cols, nums) over its
nonzero atoms.  The lift, product measures, measure-kernel products,
pushforwards, path measures, the refinement in logic_bisim and convolution
with sparse rows run on ints over those nonzeros only; convolution with
dense left rows packs each into one int (Kronecker substitution).  All
build their results from ints, so none makes a Fraction.
"""

from math import lcm, prod

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

    The kind flag is validated eagerly against the row masses
    sum(nums) / D of the rows' forms: Markov needs every one equal to one,
    subMarkov at most one.  Operations propagate the weakest kind that is
    sound for their operands.
    """

    def __init__(self, domain, codomain, rows, kind=None):
        rows = tuple(rows)
        if len(rows) != domain.n_atoms:
            raise ValueError(f"expected {domain.n_atoms} rows, got {len(rows)}")
        inferred = MARKOV
        for row in rows:
            if not isinstance(row, Measure):
                raise ValueError("kernel rows must be nonnegative measures")
            if row.space != codomain:
                raise SpaceMismatch("kernel row lives on the wrong codomain")
            d, _, nums = row.form
            total = sum(nums)
            if total > d:
                inferred = FINITE
            elif total < d and inferred == MARKOV:
                inferred = SUB_MARKOV
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
        self.kind = kind

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
            f"Kernel({self.domain.n_atoms} atoms -> "
            f"{self.codomain.n_atoms} atoms, {self.kind})"
        )


def _mix(mu, rows, space):
    """The measure sum_k mu(k) rows[k] on space, as ints over D Q: mu(k) is
    m_k / D and Q is the lcm of the scales of the rows that mu charges."""
    d, cols, masses = mu.form
    terms = [(m, rows[k].form) for k, m in zip(cols, masses)]
    q = lcm(*(e for _, (e, _, _) in terms))
    sums = {}
    for m, (e, row_cols, nums) in terms:
        factor = m * (q // e)
        for j, num in zip(row_cols, nums):
            sums[j] = sums.get(j, 0) + factor * num
    return Measure.from_ints(space, d * q, sums.items())


def identity_kernel(space):
    """The neutral element for convolution: rows are unit point masses."""
    rows = [Measure.from_ints(space, 1, [(k, 1)]) for k in range(space.n_atoms)]
    return Kernel(space, space, rows, MARKOV)


def _slot(left, right):
    """S, the lcm of left's row scales, and c, hex digits per slot: as no entry
    is negative, none exceeds the largest right mass times left num over S."""
    forms = [row.form for row in left.rows]
    scale = lcm(*(d for d, _, _ in forms))
    top = max(max(nums, default=0) * (scale // d) for d, _, nums in forms)
    mass = max(sum(row.form[2]) for row in right.rows)
    return scale, (top * mass).bit_length() // 4 + 1


def _packed_rows(left, right, scale, c):
    """The rows of convolve(left, right) by Kronecker substitution: each left
    row over S is packed once into one int, c hex digits per atom, so a
    result row is one big-int multiply-add per charged left row, unpacked."""
    n, fmt = left.codomain.n_atoms, f"%0{c}x" * left.codomain.n_atoms
    packed = [int(fmt % tuple(row.ints_over(scale)), 16) for row in left.rows]
    for d, cols, masses in (row.form for row in right.rows):
        digits = f"{sum(m * packed[k] for k, m in zip(cols, masses)):0{n * c}x}"
        nums = [int(digits[i : i + c], 16) for i in range(0, n * c, c)]
        yield Measure.from_ints(left.codomain, d * scale, enumerate(nums))


def convolve(left, right):
    """Kleisli composition (left * right)(x)(C) = integral left(y)(C) d right(x)(y).

    right feeds left: right.codomain must equal left.domain.  Reduces to
    stochastic matrix multiplication of the row matrices.  Dense products run
    on packed left rows, when the nonzero multiply-adds (estimated from the
    row lengths) reach 4 per unpacked 64-bit limb; others run on the nonzeros.
    """
    if right.codomain != left.domain:
        raise SpaceMismatch("right.codomain must equal left.domain")
    work = prod(sum(len(row.form[1]) for row in k.rows) for k in (left, right))
    floor = 4 * len(right.rows) * left.codomain.n_atoms * len(left.rows)
    slot = work >= floor and _slot(left, right)  # no pass over sparse rows
    if slot and work >= floor * ((slot[1] + 15) // 16):
        rows = _packed_rows(left, right, *slot)
    else:
        rows = [_mix(row, left.rows, left.codomain) for row in right.rows]
    return Kernel(
        right.domain, left.codomain, rows, _join_kind(left.kind, right.kind)
    )


def kleisli_lift(kernel, mu):
    """The lifted map on measures: (K bar)(mu)(B) = integral K(x)(B) dmu(x)."""
    if mu.space != kernel.domain:
        raise SpaceMismatch("measure lives on a different space than the domain")
    return _mix(mu, kernel.rows, kernel.codomain)


def measure_kernel_product(mu, kernel):
    """The measure mu (x) K on the product of mu's space and the codomain,
    as ints over D Q, Q the lcm of the scales of the rows that mu charges."""
    if mu.space != kernel.domain:
        raise SpaceMismatch("measure lives on a different space than the domain")
    prod = product_space(mu.space, kernel.codomain)
    d, cols, masses = mu.form
    q = lcm(*(kernel.rows[i].form[0] for i in cols))
    m = kernel.codomain.n_atoms
    entries = []
    for i, mass in zip(cols, masses):
        e, row_cols, nums = kernel.rows[i].form
        factor = mass * (q // e)
        entries.extend((i * m + j, factor * r) for j, r in zip(row_cols, nums))
    return Measure.from_ints(prod, d * q, entries)


def product_measure(mu, nu):
    """The product measure with weight mu(A) nu(B) on each rectangle atom."""
    prod = product_space(mu.space, nu.space)
    (d1, cols1, nums1), (d2, cols2, nums2) = mu.form, nu.form
    n = nu.space.n_atoms
    entries = [
        (i * n + j, a * b) for i, a in zip(cols1, nums1) for j, b in zip(cols2, nums2)
    ]
    return Measure.from_ints(prod, d1 * d2, entries)


def _require_product(space):
    """(all factors but the last, as one product space; the last factor)."""
    if space.factors is None:
        raise NotProductSpace("this operation needs a space built by product_space")
    return product_space(*space.factors[:-1]), space.factors[-1]


def cut_x(f, left_atom_index):
    """The section f(x, .) for x in a fixed left atom."""
    left, right = _require_product(f.space)
    n = right.n_atoms
    start = left_atom_index * n
    return StepFunction(right, f.values[start : start + n])


def cut_y(f, right_atom_index):
    """The section f(., y) for y in a fixed right atom."""
    left, right = _require_product(f.space)
    n = right.n_atoms
    return StepFunction(
        left, [f.values[i * n + right_atom_index] for i in range(left.n_atoms)]
    )


def fubini(f, mu, nu):
    """Evaluate integral f d(mu x nu) directly and via both iterated orders.

    Returns (direct, iterated_xy, iterated_yx); the three are provably equal
    on finite spaces, so any daylight between them is a bug.  f's space is
    split once; rows[i] holds the values of the section f(x, .) for x in
    left atom i, and its columns are the sections f(., y).
    """
    if f.space.factors is None or _require_product(f.space) != (mu.space, nu.space):
        raise SpaceMismatch("f must live on the product of the two spaces")
    d, cols, nums = product_measure(mu, nu).form
    direct = integral(f, Measure.from_ints(f.space, d, zip(cols, nums)))
    n = nu.space.n_atoms
    rows = [f.values[i : i + n] for i in range(0, len(f.values), n)]
    inner_x = [integral(StepFunction(nu.space, row), nu) for row in rows]
    iterated_xy = integral(StepFunction(mu.space, inner_x), mu)
    inner_y = [integral(StepFunction(mu.space, col), mu) for col in zip(*rows)]
    iterated_yx = integral(StepFunction(nu.space, inner_y), nu)
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
    d, cols, nums = mu.form
    acc = {}
    for j, num in zip(cols, nums):
        acc[f.atom_mapping[j]] = acc.get(f.atom_mapping[j], 0) + num
    return Measure.from_ints(f.codomain, d, acc.items())


# the most steps path_measure takes
MAX_PATH_STEPS = 1 << 6


def path_measure(kernel, start_point, horizon):
    """Distribution of the first `horizon` steps of the chain driven by `kernel`.

    The kernel maps a state space S to a product T x S (an observation and
    the next state).  The horizon-n measure lives on the flat n-fold
    product of T x S, never listed; each extension weights a path by the
    kernel row of the state component of its last coordinate.  Projectivity
    holds: summing out the last coordinate of the horizon n+1 measure gives
    the horizon n measure.  Path weights are carried as ints over D^t, with
    D the lcm of the kernel's row scales, over the nonzero paths only.
    Past MAX_PATH_STEPS steps or the product limits, it raises up front.
    """
    step_space = kernel.codomain
    factors = step_space.factors
    if factors is None or factors[-1] != kernel.domain:
        raise SpaceMismatch(
            "kernel must map S into a product T x S built by product_space"
        )
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon > MAX_PATH_STEPS:
        raise HorizonTooLarge(
            f"horizon {horizon} is past the limit of {MAX_PATH_STEPS} steps"
        )
    space = product_space(*[step_space] * horizon)
    n_step = step_space.n_atoms
    n_s = factors[-1].n_atoms
    scale = lcm(*(row.form[0] for row in kernel.rows))
    rows = [
        [(k, num * (scale // d)) for k, num in zip(cols, nums)]
        for d, cols, nums in (row.form for row in kernel.rows)
    ]
    paths = rows[kernel.domain.atom_index_of_point(start_point)]
    for _ in range(horizon - 1):
        # rectangle atoms are row-major, so the state component of path
        # atom idx (the state of its last step) is idx % n_s
        paths = [
            (idx * n_step + k, w * v) for idx, w in paths for k, v in rows[idx % n_s]
        ]
    return Measure.from_ints(space, scale**horizon, paths)


def path_marginal(measure):
    """Sum out the final coordinate of a path measure (cylinder restriction)."""
    prefix, step = _require_product(measure.space)
    n_step = step.n_atoms
    d, cols, nums = measure.form
    acc = {}
    for idx, num in zip(cols, nums):
        acc[idx // n_step] = acc.get(idx // n_step, 0) + num
    return Measure.from_ints(prefix, d, acc.items())


def disintegrate(joint):
    """Split a joint on Y x Z into (marginal on Y, kernel Y to Z, null fibers).

    Rows over marginal-null fibers are fixed to the zero measure and those
    fibers are reported, so the decomposition is reproducible; the round
    trip measure_kernel_product(marginal, kernel) restores the joint.
    """
    left, right = _require_product(joint.space)
    n_r = right.n_atoms
    d, cols, nums = joint.form
    fibers = [[] for _ in range(left.n_atoms)]
    for idx, num in zip(cols, nums):
        fibers[idx // n_r].append((idx % n_r, num))
    # fiber i has the weights num / d and the mass masses[i] / d
    masses = [sum(num for _, num in fiber) for fiber in fibers]
    marginal = Measure.from_ints(left, d, enumerate(masses))
    rows = []
    null_fibers = []
    for i, (mass, fiber) in enumerate(zip(masses, fibers)):
        if mass == 0:
            if fiber:
                raise ValueError("joint has a zero-mass fiber with nonzero weights")
            rows.append(Measure.zero(right))
            null_fibers.append(left.atoms[i])
        else:
            rows.append(Measure.from_ints(right, mass, fiber))
    kind = MARKOV if not null_fibers else SUB_MARKOV
    return marginal, Kernel(left, right, rows, kind), tuple(null_fibers)
