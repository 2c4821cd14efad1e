"""Finite measurable spaces as atom partitions.

A sigma-algebra on a finite carrier is stored as the partition of the
carrier into its atoms; every measurable set is a union of atoms.  Atom
order is canonical (sorted by least contained point index), so spaces,
sets and partitions compare structurally.
"""

from itertools import combinations

from .errors import CapacityExceeded, EmptyCarrier, GeneratorNotPiSystem, SpaceMismatch
from .rational import atom_cap


def join_pair_label(left, right):
    """Serialize a product point as 'left|right', doubling any literal '|'."""
    return left.replace("|", "||") + "|" + right.replace("|", "||")


def split_pair_label(label):
    """Inverse of join_pair_label."""
    chars = []
    i = 0
    n = len(label)
    while i < n:
        if label[i] == "|":
            if i + 1 < n and label[i + 1] == "|":
                chars.append("|")
                i += 2
            else:
                left = "".join(chars)
                return left, label[i + 1 :].replace("||", "|")
        else:
            chars.append(label[i])
            i += 1
    raise ValueError(f"not a product point label: {label!r}")


class FiniteMeasurableSpace:
    """A finite carrier together with the atoms of its sigma-algebra."""

    def __init__(self, points, atoms, factors=None):
        points = tuple(points)
        if not points:
            raise EmptyCarrier("a measurable space needs at least one point")
        if len(set(points)) != len(points):
            raise ValueError("points must be distinct")
        index = {p: i for i, p in enumerate(points)}
        seen = set()
        normalized = []
        for atom in atoms:
            atom = tuple(sorted(set(atom), key=index.__getitem__))
            if not atom:
                raise ValueError("atoms must be nonempty")
            for p in atom:
                if p in seen:
                    raise ValueError(f"atoms must be disjoint, {p!r} repeats")
                seen.add(p)
            normalized.append(atom)
        if seen != set(points):
            raise ValueError("atoms must cover the carrier")
        normalized.sort(key=lambda atom: index[atom[0]])
        self.points = points
        self.atoms = tuple(normalized)
        self._index = index
        self._atom_of = {}
        for k, atom in enumerate(self.atoms):
            for p in atom:
                self._atom_of[p] = k
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

    def atom_index(self, atom):
        """Index of an atom given as an iterable of points."""
        want = frozenset(atom)
        for k, a in enumerate(self.atoms):
            if frozenset(a) == want:
                return k
        raise ValueError(f"not an atom of this space: {sorted(want)!r}")

    def full_set(self):
        return MeasurableSet(self, self.points)

    def empty_set(self):
        return MeasurableSet(self, ())

    def set_of_atoms(self, atom_indices):
        members = []
        for k in atom_indices:
            members.extend(self.atoms[k])
        return MeasurableSet(self, members)

    def measurable_sets(self):
        """All measurable sets, in binary-counting order of atom masks."""
        n = len(self.atoms)
        if n > atom_cap():
            raise CapacityExceeded(
                f"{n} atoms exceed the subset-enumeration cap {atom_cap()}"
            )
        for mask in range(1 << n):
            yield self.set_of_atoms([k for k in range(n) if mask >> k & 1])

    def __eq__(self, other):
        return (
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
        index = space.point_index
        seen = set()
        normalized = []
        for block in blocks:
            block = tuple(sorted(set(block), key=index))
            if not block:
                raise ValueError("blocks must be nonempty")
            for p in block:
                if p in seen:
                    raise ValueError(f"blocks must be disjoint, {p!r} repeats")
                seen.add(p)
            normalized.append(block)
        if seen != set(space.points):
            raise ValueError("blocks must cover the carrier")
        normalized.sort(key=lambda block: index(block[0]))
        self.space = space
        self.blocks = tuple(normalized)
        self._block_of = {}
        for k, block in enumerate(self.blocks):
            for p in block:
                self._block_of[p] = k
        self.refines_atoms = all(
            len({self._block_of[p] for p in atom}) == 1 for atom in space.atoms
        )

    def block_index_of_point(self, point):
        self.space.point_index(point)
        return self._block_of[point]

    def block_atom_indices(self, block_index):
        """Atom indices contained in a block (requires refines_atoms)."""
        block = set(self.blocks[block_index])
        return tuple(
            k for k, atom in enumerate(self.space.atoms) if block.issuperset(atom)
        )

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
    """Group points by their membership vector across the family."""
    groups = {}
    for p in points:
        key = tuple(p in s for s in family)
        groups.setdefault(key, []).append(p)
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


def generated_equivalence(points, family):
    """The equivalence relation generated by a family of subsets.

    Two points are equivalent iff no family member separates them; the
    blocks coincide with the atoms of sigma_from_generator.
    """
    space = sigma_from_generator(points, family)
    return Partition(space, space.atoms)


def product_space(left, right):
    """Product space; atoms are all rectangles of atoms."""
    points = [
        join_pair_label(p, q) for p in left.points for q in right.points
    ]
    nr = len(right.points)
    atoms = []
    for a in left.atoms:
        for b in right.atoms:
            atoms.append(tuple(join_pair_label(p, q) for p in a for q in b))
    space = FiniteMeasurableSpace(points, atoms, factors=(left, right))
    # canonical order of rectangle atoms is row-major in (left, right)
    if len(space.atoms) != len(left.atoms) * len(right.atoms):
        raise AssertionError("product atoms are not the rectangles of atoms")
    return space


def product_atom_index(space, left_index, right_index):
    """Atom index of the rectangle (left atom) x (right atom)."""
    if space.factors is None:
        raise SpaceMismatch("space was not built by product_space")
    return left_index * len(space.factors[1].atoms) + right_index


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
    for k, (a, b) in enumerate(zip(mu.weights, nu.weights)):
        if a != b:
            return False, space.set_of_atoms([k])
    return True, None
