"""Finite measurable spaces as atom partitions.

A sigma-algebra on a finite carrier is stored as the partition of the
carrier into its atoms; every measurable set is a union of atoms.  Atom
order is canonical (sorted by least contained point index), so spaces,
sets and partitions compare structurally.  A product of finitely many
spaces is listed in one pass on first read, labels linear in the factors.
A ``FiniteMetric`` holds a discrete space's distances as ints over one scale.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import add

from .errors import CapacityExceeded, EmptyCarrier, GeneratorNotPiSystem, SpaceMismatch
from .rational import as_fraction

ENUMERATION_CAP = 16  # the most atoms whose 2^n sets measurable_sets lists


def _escape(label):
    return label.replace("|", "||")


def join_pair_label(left, right):
    """Serialize a product point as 'left|right', doubling any literal '|'."""
    return _escape(left) + "|" + _escape(right)


def _label_counts(*factors):
    """(points, label bytes, bars, whether a label is empty or starts or ends
    with '|', the only labels that can collide) of product_space(*factors),
    read off the factors, so no product is listed.  A factor of n of the N
    points, with B label bytes and C bars, is escaped into N / n labels as
    B + C bytes and 2C bars; k > 1 components take k - 1 joining bars."""
    if len(factors) == 1 and factors[0].factors is None:
        labels = factors[0].points
        size = sum(len(p.encode()) for p in labels)
        edge = any(not p or p[0] == "|" or p[-1] == "|" for p in labels)
        return len(labels), size, sum(p.count("|") for p in labels), edge
    factors = factors[0].factors if len(factors) == 1 else factors
    counts = [_label_counts(f) for f in factors]
    points = prod(n for n, _, _, _ in counts)
    size = bars = (len(factors) - 1) * points
    for n, b, c, _ in counts:
        size += (b + c) * (points // n)
        bars += 2 * c * (points // n)
    return points, size, bars, any(edge for _, _, _, edge in counts)


def product_size(*factors):
    """(points, label bytes) of product_space(*factors), without building it."""
    return _label_counts(*factors)[:2]


class FiniteMeasurableSpace:
    """A finite carrier together with the atoms of its sigma-algebra."""

    factors = None  # set on products only

    def __init__(self, points, atoms):
        points = tuple(points)
        if not points:
            raise EmptyCarrier("a measurable space needs at least one point")
        index = {p: i for i, p in enumerate(points)}
        if len(index) != len(points):
            raise ValueError("points must be distinct")
        seen = set()
        normalized = []
        for atom in atoms:
            atom = tuple(atom)
            for p in atom:
                if p not in index:
                    raise ValueError(f"atom point {p!r} is not in points")
            if len(atom) > 1:
                atom = tuple(sorted(set(atom), key=index.__getitem__))
            if not atom:
                raise ValueError("atoms must be nonempty")
            for p in atom:
                if p in seen:
                    raise ValueError(f"atoms must be disjoint, {p!r} repeats")
                seen.add(p)
            normalized.append(atom)
        if len(seen) != len(points):
            raise ValueError("atoms must cover the carrier")
        self.points = points
        self.atoms = tuple(sorted(normalized, key=lambda atom: index[atom[0]]))
        self.n_atoms = len(normalized)
        self._index = index
        self._atom_of = {p: k for k, atom in enumerate(self.atoms) for p in atom}

    @classmethod
    def discrete(cls, points):
        """The space whose atoms are all singletons."""
        points = tuple(points)
        return cls(points, [(p,) for p in points])

    def point_index(self, point):
        try:
            return self._index[point]
        except KeyError:
            raise ValueError(f"unknown point {point!r}") from None

    def atom_index_of_point(self, point):
        try:
            return self._atom_of[point]
        except KeyError:
            raise ValueError(f"unknown point {point!r}") from None

    def full_set(self):
        return MeasurableSet(self, self.points)

    def set_of_atoms(self, atom_indices):
        members = []
        for k in atom_indices:
            members.extend(self.atoms[k])
        return MeasurableSet(self, members)

    def measurable_sets(self):
        """All measurable sets, in binary-counting order of atom masks."""
        n = self.n_atoms
        if n > ENUMERATION_CAP:
            raise CapacityExceeded(
                f"{n} atoms exceed the subset-enumeration cap {ENUMERATION_CAP}"
            )
        for mask in range(1 << n):
            yield self.set_of_atoms([k for k in range(n) if mask >> k & 1])

    def __eq__(self, other):
        if not isinstance(other, FiniteMeasurableSpace):
            return False
        if self is other or self.factors is not None and self.factors == other.factors:
            return True  # products of equal factors are equal, listed or not
        return self.points == other.points and self.atoms == other.atoms

    def __hash__(self):
        return hash((self.points, self.atoms))

    def __repr__(self):
        atoms = ", ".join("{" + ",".join(a) + "}" for a in self.atoms)
        return f"FiniteMeasurableSpace({atoms})"


class MeasurableSet:
    """A union of atoms of a fixed space."""

    def __init__(self, space, members):
        members = frozenset(members)
        for p in members:
            space.point_index(p)
        touched = {space._atom_of[p] for p in members}
        for k in touched:
            if not members.issuperset(space.atoms[k]):
                raise ValueError(
                    f"set is not a union of atoms, it splits {space.atoms[k]!r}"
                )
        self.space = space
        self.members = members
        self.atom_indices = tuple(sorted(touched))

    def __contains__(self, point):
        return point in self.members

    def __eq__(self, other):
        return (
            isinstance(other, MeasurableSet)
            and self.space == other.space
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.space, self.members))

    def __len__(self):
        return len(self.members)

    def intersection(self, other):
        self._check_space(other)
        return MeasurableSet(self.space, self.members & other.members)

    def union(self, other):
        self._check_space(other)
        return MeasurableSet(self.space, self.members | other.members)

    def complement(self):
        return MeasurableSet(self.space, set(self.space.points) - self.members)

    def _check_space(self, other):
        if self.space != other.space:
            raise SpaceMismatch("sets live on different spaces")

    def sorted_points(self):
        return sorted(self.members, key=self.space.point_index)

    def __repr__(self):
        return "{" + ",".join(self.sorted_points()) + "}"


class Partition:
    """A partition of the carrier into labeled blocks.

    ``refines_atoms`` records whether every block is a union of atoms,
    which is what quotient constructions require.
    """

    def __init__(self, space, blocks):
        # the blocks are validated, ordered and indexed exactly like atoms
        self._blocks = FiniteMeasurableSpace(space.points, blocks)
        self.space = space
        self.blocks = self._blocks.atoms
        # block_of_atom[k] is the block holding atom k, or None when the
        # atom is split across blocks
        block_of_atom = []
        atoms_of_block = [[] for _ in self.blocks]
        for k, atom in enumerate(space.atoms):
            owners = {self._blocks._atom_of[p] for p in atom}
            owner = owners.pop() if len(owners) == 1 else None
            block_of_atom.append(owner)
            if owner is not None:
                atoms_of_block[owner].append(k)
        self.block_of_atom = tuple(block_of_atom)
        self._atoms_of_block = tuple(map(tuple, atoms_of_block))
        self.refines_atoms = None not in block_of_atom

    def block_index_of_point(self, point):
        return self._blocks.atom_index_of_point(point)

    def block_atom_indices(self, block_index):
        """Atom indices contained in a block (requires refines_atoms)."""
        return self._atoms_of_block[block_index]

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.space == other.space
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.space, self.blocks))

    def __repr__(self):
        blocks = ", ".join("{" + ",".join(b) + "}" for b in self.blocks)
        return f"Partition({blocks})"


def _membership_groups(points, family):
    """Group points by the indices of the family's sets that hold them."""
    holders = {p: [] for p in points}
    for k, s in enumerate(family):
        for p in s:
            holders[p].append(k)
    groups = {}
    for p in points:
        groups.setdefault(tuple(holders[p]), []).append(p)
    return list(groups.values())


def sigma_from_generator(points, generator):
    """Space generated by a family of subsets.

    The atoms are the nonempty intersections over all sign vectors of the
    generator sets; equivalently, the classes of points sharing the same
    membership vector.
    """
    points = tuple(points)
    if not points:
        raise EmptyCarrier("cannot generate a sigma-algebra on an empty carrier")
    carrier = set(points)
    family = []
    for s in generator:
        s = frozenset(s)
        if not s <= carrier:
            raise ValueError(f"generator set {sorted(s)!r} is not a subset of points")
        family.append(s)
    return FiniteMeasurableSpace(points, _membership_groups(points, family))


# the largest product product_space builds; the points match mediate's limit
MAX_PRODUCT_POINTS = 1 << 20
MAX_PRODUCT_LABEL_BYTES = 1 << 26


class _Product(FiniteMeasurableSpace):
    """A product holding its factors and atom count; its points, atoms and
    indices are listed row-major on first read."""

    def __init__(self, factors):
        self.factors = factors
        self.n_atoms = prod(factor.n_atoms for factor in factors)

    def __getattr__(self, name):
        # reached only while the product is unlisted: list it once
        if name not in ("points", "atoms", "_index", "_atom_of"):
            raise AttributeError(name)
        # a point's atom is the rectangle of its components' atoms, ranked
        # row-major, which keeps the atoms and their points in canonical order
        points, owner, bar = [""], [0], ""
        for f in self.factors:
            tails = [bar + _escape(q) for q in f.points]
            ranks = [f._atom_of[q] for q in f.points]
            points = [p + t for p in points for t in tails]
            owner = [k * f.n_atoms + r for k in owner for r in ranks]
            bar = "|"
        index = {p: i for i, p in enumerate(points)}
        if len(index) != len(points):
            raise ValueError("points must be distinct")
        atoms = [[] for _ in range(self.n_atoms)]
        for p, k in zip(points, owner):
            atoms[k].append(p)
        self.points = tuple(points)
        self.atoms = tuple(map(tuple, atoms))
        self._index = index
        self._atom_of = dict(zip(points, owner))
        return getattr(self, name)


def product_space(*factors):
    """Product of finitely many spaces; atoms are all rectangles of atoms.

    A point's label is its components, each escaped once (a literal '|'
    doubled) and joined by '|', so two factors give join_pair_label(p, q).
    Points and rectangle atoms are row-major (lexicographic) over the
    factors.  A single factor is returned unchanged.  A product past the
    MAX_PRODUCT_* limits raises CapacityExceeded, counted before anything
    is built; one whose labels could collide is listed at once.
    """
    if len(factors) == 1:
        return factors[0]
    counts = _label_counts(*factors)
    if counts[0] > MAX_PRODUCT_POINTS or counts[1] > MAX_PRODUCT_LABEL_BYTES:
        raise CapacityExceeded(
            "a product of {} points and {} label bytes is past the limits {} and"
            " {}".format(*counts[:2], MAX_PRODUCT_POINTS, MAX_PRODUCT_LABEL_BYTES)
        )
    space = _Product(factors)
    if counts[3]:
        space.points  # list it now, so that a collision raises here
    return space


def check_pi_system_uniqueness(space, mu, nu, generator):
    """Whether two measures agree on every measurable set.

    The generator must be an intersection-closed family containing the full
    set (a pi-system); when mu and nu agree on such a generator of the
    sigma-algebra, agreement everywhere is forced.  Returns (True, None)
    on full agreement, else (False, witness_set): measures agree on every
    set iff they agree on every atom, and the first set in mask order where
    they disagree is the singleton of the first atom where they disagree.
    """
    full = space.full_set()
    gen = list(generator)
    for s in gen:
        if s.space != space:
            raise SpaceMismatch("generator sets live on a different space")
    if full not in gen:
        raise GeneratorNotPiSystem("generator must contain the full set")
    pool = {s.members: s for s in gen}
    for a, b in combinations(gen, 2):
        inter = a.members & b.members
        if inter and inter not in pool:
            raise GeneratorNotPiSystem(
                f"generator is not intersection closed: missing {sorted(inter)!r}"
            )
    if mu.space != space or nu.space != space:
        raise SpaceMismatch("measures live on a different space")
    scale = lcm(mu.form[0], nu.form[0])
    for k, (a, b) in enumerate(zip(mu.ints_over(scale), nu.ints_over(scale))):
        if a != b:
            return False, space.set_of_atoms([k])
    return True, None


class FiniteMetric:
    """A metric on a finite carrier with singleton atoms.

    The distances are held once as the integer form ``scaled`` = (D, rows):
    d(i, j) is rows[i][j] / D over the lcm D of their denominators.
    Validates, on those ints, symmetry, zero diagonal, positivity off the
    diagonal and the triangle inequality.
    """

    def __init__(self, space, dist):
        if any(len(atom) != 1 for atom in space.atoms):
            raise ValueError("metric carrier must have singleton atoms")
        n = len(space.points)
        rows = [tuple(as_fraction(v) for v in row) for row in dist]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"distance matrix must be {n}x{n}")
        scale = lcm(*(v.denominator for row in rows for v in row))
        rows = tuple(
            tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows
        )
        # each unordered pair once: a failing (j, i), j > i, fails first as (i, j)
        for i in range(n):
            if rows[i][i] != 0:
                raise ValueError("distance matrix needs a zero diagonal")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("distance matrix must be symmetric")
                if rows[i][j] <= 0:
                    raise ValueError("off-diagonal distances must be positive")
        # rows is symmetric now, so column j is row j: the first k with
        # d(i, j) > d(i, k) + d(k, j) is the first with rows[i][j] above
        # rows[i][k] + rows[j][k]
        for i in range(n):
            row_i = rows[i]
            for j in range(i + 1, n):
                row_j = rows[j]
                if min(map(add, row_i, row_j)) < row_i[j]:
                    k = next(k for k in range(n) if row_i[j] > row_i[k] + row_j[k])
                    raise ValueError(
                        "triangle inequality fails at "
                        f"({space.points[i]},{space.points[j]},{space.points[k]})"
                    )
        self.space = space
        self.scaled = (scale, rows)

    @classmethod
    def from_points(cls, points, dist):
        return cls(FiniteMeasurableSpace.discrete(points), dist)

    @property
    def dist(self):
        """The dense matrix of Fraction distances, built on each access."""
        scale, rows = self.scaled
        return [tuple(Fraction(v, scale) for v in row) for row in rows]

    def d(self, i, j):
        scale, rows = self.scaled
        return Fraction(rows[i][j], scale)

    def d_points(self, p, q):
        return self.d(self.space.point_index(p), self.space.point_index(q))
