"""Finite measurable spaces as atom partitions.

A sigma-algebra on a finite carrier is stored as the partition of the
carrier into its atoms; every measurable set is a union of atoms.  Atom
order is canonical (sorted by least contained point index), so spaces,
sets and partitions compare structurally.  A product of finitely many
spaces is built in one pass, with labels linear in the number of factors.
"""

from itertools import combinations
from math import lcm, prod

from .errors import CapacityExceeded, EmptyCarrier, GeneratorNotPiSystem, SpaceMismatch

ENUMERATION_CAP = 16  # the most atoms whose 2^n sets measurable_sets lists


def _escape(label):
    return label.replace("|", "||")


def join_pair_label(left, right):
    """Serialize a product point as 'left|right', doubling any literal '|'."""
    return _escape(left) + "|" + _escape(right)


def product_size(*factors):
    """(points, label bytes) of product_space(*factors), without building it.

    With N points in all, a factor of n points whose labels, escaped once,
    take E bytes is a component of N / n labels, and each label joins its
    k > 1 components with k - 1 bars.  A single factor keeps its labels.
    """
    if len(factors) == 1:
        return len(factors[0].points), sum(len(p.encode()) for p in factors[0].points)
    points = prod(len(factor.points) for factor in factors)
    escaped = {}  # scan each distinct factor once: a path space repeats one
    for factor in factors:
        if id(factor) not in escaped:
            escaped[id(factor)] = sum(len(_escape(p).encode()) for p in factor.points)
    size = sum(escaped[id(f)] * (points // len(f.points)) for f in factors)
    return points, size + (len(factors) - 1) * points


class FiniteMeasurableSpace:
    """A finite carrier together with the atoms of its sigma-algebra."""

    def __init__(self, points, atoms, factors=None):
        points = tuple(points)
        if not points:
            raise EmptyCarrier("a measurable space needs at least one point")
        index = {p: i for i, p in enumerate(points)}
        if len(index) != len(points):
            raise ValueError("points must be distinct")
        # one pass over the atoms: owner[p] is the position, in the order
        # given, of the atom holding p; it checks disjointness and coverage
        owner = {}
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
            k = len(normalized)
            for p in atom:
                if p in owner:
                    raise ValueError(f"atoms must be disjoint, {p!r} repeats")
                owner[p] = k
            normalized.append(atom)
        if len(owner) != len(points):
            raise ValueError("atoms must cover the carrier")
        firsts = [index[atom[0]] for atom in normalized]
        order = sorted(range(len(normalized)), key=firsts.__getitem__)
        self.points = points
        self.atoms = tuple(normalized[k] for k in order)
        self._index = index
        rank = [0] * len(order)
        for r, k in enumerate(order):
            rank[k] = r
        self._atom_of = {p: rank[k] for p, k in owner.items()}
        # factors is set for spaces built by product_space and is ignored
        # by equality; it only enables product-aware operations.
        self.factors = factors

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
        self.point_index(point)
        return self._atom_of[point]

    def full_set(self):
        return MeasurableSet(self, self.points)

    def set_of_atoms(self, atom_indices):
        members = []
        for k in atom_indices:
            members.extend(self.atoms[k])
        return MeasurableSet(self, members)

    def measurable_sets(self):
        """All measurable sets, in binary-counting order of atom masks."""
        n = len(self.atoms)
        if n > ENUMERATION_CAP:
            raise CapacityExceeded(
                f"{n} atoms exceed the subset-enumeration cap {ENUMERATION_CAP}"
            )
        for mask in range(1 << n):
            yield self.set_of_atoms([k for k in range(n) if mask >> k & 1])

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteMeasurableSpace)
            and self.points == other.points
            and self.atoms == other.atoms
        )

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


def product_space(*factors):
    """Product of finitely many spaces; atoms are all rectangles of atoms.

    A point's label is its components, each escaped once (a literal '|'
    doubled) and joined by '|', so two factors give join_pair_label(p, q).
    Points and rectangle atoms are row-major (lexicographic) over the
    factors, and the atoms reuse the label strings by index.  A single
    factor is returned unchanged.  A product past the MAX_PRODUCT_* limits
    raises CapacityExceeded, counted before anything is built.
    """
    if len(factors) == 1:
        return factors[0]
    size = product_size(*factors)
    if size[0] > MAX_PRODUCT_POINTS or size[1] > MAX_PRODUCT_LABEL_BYTES:
        raise CapacityExceeded(
            "a product of {} points and {} label bytes is past the limits {} and"
            " {}".format(*size, MAX_PRODUCT_POINTS, MAX_PRODUCT_LABEL_BYTES)
        )
    points = [_escape(p) for p in factors[0].points]
    for factor in factors[1:]:
        tails = ["|" + _escape(q) for q in factor.points]
        points = [p + t for p in points for t in tails]
    # cells[r] lists the point indices of rectangle r over the factors so
    # far, from the one empty rectangle; the last factor indexes the labels
    *init, (n, blocks) = [
        (len(f.points), [[f._index[p] for p in a] for a in f.atoms]) for f in factors
    ]
    cells = [[0]]
    for m, factor_blocks in init:
        cells = [[i * m + j for i in c for j in b] for c in cells for b in factor_blocks]
    atoms = [
        tuple([points[i * n + j] for i in c for j in b]) for c in cells for b in blocks
    ]
    space = FiniteMeasurableSpace(points, atoms, factors=factors)
    # canonical order of rectangle atoms is row-major over the factors
    if len(space.atoms) != prod(len(factor.atoms) for factor in factors):
        raise AssertionError("product atoms are not the rectangles of atoms")
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
