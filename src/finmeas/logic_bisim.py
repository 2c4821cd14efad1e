"""Modal logic over kernels, quotients, couplings and mediating kernels.

The logic is negation-free: T, conjunction, and the threshold modality
dia>=q.  Logical equivalence is computed by block-mass partition
refinement; formula enumeration serves as a test oracle only.  A coupling
of two marginals inside a support is one max flow: a full flow is the
coupling, and a short one yields a Hall-style cut certificate from the
residual graph.
"""

from fractions import Fraction
from itertools import permutations

from .errors import (
    CapacityExceeded,
    CouplingFailed,
    MassMismatch,
    NotACongruence,
    NotBisimilar,
    SpaceMismatch,
)
from .flow import max_flow
from .kernels import AtomMap, Kernel, pushforward
from .measures import Measure
from .rational import as_fraction, atom_cap, format_fraction
from .simplex import maximize  # noqa: F401  bench/spans.py wraps this attribute
from .spaces import (
    FiniteMeasurableSpace,
    Partition,
    join_pair_label,
    product_space,
    sigma_from_generator,
    split_pair_label,
)


class Formula:
    """AST base; concrete nodes are Top, And and Dia."""

    def depth(self):
        raise NotImplementedError


class Top(Formula):
    def depth(self):
        return 0

    def __eq__(self, other):
        return isinstance(other, Top)

    def __hash__(self):
        return hash("T")

    def __repr__(self):
        return "T"


class And(Formula):
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def depth(self):
        return max(self.left.depth(), self.right.depth())

    def __eq__(self, other):
        return (
            isinstance(other, And)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash(("&", self.left, self.right))

    def __repr__(self):
        return f"({self.left!r} & {self.right!r})"


class Dia(Formula):
    """The threshold modality: holds where the row mass of the body is >= q."""

    def __init__(self, threshold, body):
        threshold = as_fraction(threshold)
        if not 0 <= threshold <= 1:
            raise ValueError(f"dia threshold must lie in [0, 1], got {threshold}")
        self.threshold = threshold
        self.body = body

    def depth(self):
        return self.body.depth() + 1

    def __eq__(self, other):
        return (
            isinstance(other, Dia)
            and self.threshold == other.threshold
            and self.body == other.body
        )

    def __hash__(self):
        return hash(("dia", self.threshold, self.body))

    def __repr__(self):
        return f"dia>={format_fraction(self.threshold)} {self.body!r}"


def format_formula(phi):
    """Concrete syntax accepted back by parse_formula."""
    return repr(phi)


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif text.startswith("dia>=", i):
            tokens.append("dia>=")
            i += 5
        elif ch in "()&/T":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r} in formula")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ValueError("formula ends unexpectedly")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def rational(self):
        num = self.take()
        if not num.isdigit():
            raise ValueError(f"expected a number, got {num!r}")
        if self.peek() == "/":
            self.take("/")
            den = self.take()
            if not den.isdigit():
                raise ValueError(f"expected a denominator, got {den!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(num))

    def formula(self):
        tok = self.peek()
        if tok == "T":
            self.take()
            return Top()
        if tok == "dia>=":
            self.take()
            return Dia(self.rational(), self.formula())
        if tok == "(":
            self.take()
            node = self.formula()
            while self.peek() == "&":
                self.take()
                node = And(node, self.formula())
            self.take(")")
            return node
        raise ValueError(f"unexpected token {tok!r}")


def parse_formula(text):
    """Parse `T`, `(phi & phi)` (left-associative) or `dia>=p/q phi`.

    Whitespace-insensitive; dia binds tighter than &, so conjunctions are
    always parenthesized.
    """
    parser = _Parser(_tokenize(text))
    node = parser.formula()
    if parser.peek() is not None:
        raise ValueError(f"trailing input after formula: {parser.peek()!r}")
    return node


def _require_endo(kernel):
    if not kernel.is_endo():
        raise SpaceMismatch("this operation needs an endokernel")


def _dia_atoms(kernel, inner, q):
    """Atoms whose row puts mass at least q on the inner atom set."""
    out = []
    for k, row in enumerate(kernel.rows):
        mass = sum((row.weights[j] for j in inner), start=Fraction(0))
        if mass >= q:
            out.append(k)
    return frozenset(out)


def _validity_atoms(kernel, phi):
    if isinstance(phi, Top):
        return frozenset(range(len(kernel.domain.atoms)))
    if isinstance(phi, And):
        return _validity_atoms(kernel, phi.left) & _validity_atoms(kernel, phi.right)
    if isinstance(phi, Dia):
        return _dia_atoms(kernel, _validity_atoms(kernel, phi.body), phi.threshold)
    raise TypeError(f"not a formula: {phi!r}")


def validity_set(kernel, phi):
    """The set where phi holds, always a union of atoms."""
    _require_endo(kernel)
    return kernel.domain.set_of_atoms(sorted(_validity_atoms(kernel, phi)))


def logical_equivalence(kernel, labels=None):
    """Coarsest partition whose blocks see equal row masses on every block.

    Block-mass refinement from the trivial partition; the fixed point
    coincides with the partition induced by validity sets of all formulas.
    ``labels`` optionally seeds the initial partition with point label
    classes (an extension hook; the core logic has no atomic propositions).
    """
    _require_endo(kernel)
    space = kernel.domain
    n = len(space.atoms)
    if labels is None:
        blocks = [tuple(range(n))]
    else:
        by_label = {}
        for k, atom in enumerate(space.atoms):
            values = {labels[p] for p in atom}
            if len(values) != 1:
                raise ValueError(f"label map splits atom {atom!r}")
            by_label.setdefault(values.pop(), []).append(k)
        blocks = sorted((tuple(v) for v in by_label.values()), key=lambda b: b[0])
    while True:
        index_of = {}
        for b, members in enumerate(blocks):
            for k in members:
                index_of[k] = b
        split = {}
        for k in range(n):
            row = kernel.rows[k]
            signature = tuple(
                sum((row.weights[j] for j in members), start=Fraction(0))
                for members in blocks
            )
            split.setdefault((index_of[k], signature), []).append(k)
        refined = sorted((tuple(v) for v in split.values()), key=lambda b: b[0])
        if len(refined) == len(blocks):
            break
        blocks = refined
    return Partition(
        space,
        [[p for k in members for p in space.atoms[k]] for members in blocks],
    )


def invariant_sigma_algebra(kernel, depth):
    """The space generated by validity sets up to a given dia-nesting depth.

    Works on sets rather than formulas: each round applies the modality at
    every realized row-mass threshold in (0, 1] and closes under pairwise
    intersection (conjunction), so every depth-bounded validity set is
    produced.  Atoms refine toward the logical_equivalence blocks.
    """
    _require_endo(kernel)
    if depth < 0:
        raise ValueError("depth must be at least 0")
    space = kernel.domain
    n = len(space.atoms)
    if n > atom_cap():
        raise CapacityExceeded(
            f"{n} atoms exceed the subset-enumeration cap {atom_cap()}"
        )
    sets = {frozenset(range(n))}
    for _ in range(depth):
        layer = set(sets)
        for inner in sets:
            masses = {
                sum((row.weights[j] for j in inner), start=Fraction(0))
                for row in kernel.rows
            }
            for q in masses:
                if 0 < q <= 1:
                    layer.add(_dia_atoms(kernel, inner, q))
        frontier = layer
        closed = set(layer)
        while frontier:
            fresh = set()
            for a in frontier:
                for b in closed:
                    c = a & b
                    if c not in closed and c not in fresh:
                        fresh.add(c)
            closed |= fresh
            frontier = fresh
        if closed == sets:
            break
        sets = closed
    generator = [
        frozenset(p for k in s for p in space.atoms[k]) for s in sets
    ]
    return sigma_from_generator(space.points, generator)


def factor_map(partition):
    """The block space and the projection sending each point to its block.

    Blocks become singleton atoms labeled by their least point; requires
    blocks to be unions of atoms.
    """
    if not partition.refines_atoms:
        raise ValueError("partition blocks must be unions of atoms")
    reps = [block[0] for block in partition.blocks]
    quotient = FiniteMeasurableSpace.discrete(reps)
    mapping = {
        p: partition.blocks[partition.block_index_of_point(p)][0]
        for p in partition.space.points
    }
    return quotient, AtomMap(partition.space, quotient, mapping)


def _congruence_witness(kernel, dom_partition, cod_partition):
    """None when the partition pair is a congruence, else a witness pair."""
    for partition in (dom_partition, cod_partition):
        if not partition.refines_atoms:
            for atom in partition.space.atoms:
                blocks = {partition.block_index_of_point(p) for p in atom}
                if len(blocks) > 1:
                    first = partition.block_index_of_point(atom[0])
                    other = next(
                        p
                        for p in atom
                        if partition.block_index_of_point(p) != first
                    )
                    return atom[0], other
    cod_blocks = [
        cod_partition.block_atom_indices(c)
        for c in range(len(cod_partition.blocks))
    ]
    for block in dom_partition.blocks:
        members = dom_partition.block_atom_indices(
            dom_partition.block_index_of_point(block[0])
        )
        base = kernel.rows[members[0]]
        base_masses = [
            sum((base.weights[j] for j in atoms), start=Fraction(0))
            for atoms in cod_blocks
        ]
        for k in members[1:]:
            row = kernel.rows[k]
            for atoms, expected in zip(cod_blocks, base_masses):
                mass = sum((row.weights[j] for j in atoms), start=Fraction(0))
                if mass != expected:
                    return (
                        kernel.domain.atoms[members[0]][0],
                        kernel.domain.atoms[k][0],
                    )
    return None


def quotient_kernel_pair(kernel, dom_partition, cod_partition):
    """Quotient with separate domain and codomain congruence partitions."""
    if dom_partition.space != kernel.domain:
        raise SpaceMismatch("domain partition lives on a different space")
    if cod_partition.space != kernel.codomain:
        raise SpaceMismatch("codomain partition lives on a different space")
    witness = _congruence_witness(kernel, dom_partition, cod_partition)
    if witness is not None:
        raise NotACongruence(
            f"rows of {witness[0]!r} and {witness[1]!r} differ at block "
            "resolution",
            witness=witness,
        )
    dom_space, _ = factor_map(dom_partition)
    cod_space, _ = factor_map(cod_partition)
    cod_blocks = [
        cod_partition.block_atom_indices(c)
        for c in range(len(cod_partition.blocks))
    ]
    rows = []
    for block in dom_partition.blocks:
        row = kernel.rows[kernel.domain.atom_index_of_point(block[0])]
        rows.append(
            Measure(
                cod_space,
                [
                    sum((row.weights[j] for j in atoms), start=Fraction(0))
                    for atoms in cod_blocks
                ],
            )
        )
    return Kernel(dom_space, cod_space, rows, kernel.kind)


def quotient_kernel(kernel, partition):
    """The kernel induced on blocks: K([x])(B) = K(x)(union of B's blocks).

    Well-definedness needs the partition to be a congruence, which is
    validated across all representatives.
    """
    _require_endo(kernel)
    return quotient_kernel_pair(kernel, partition, partition)


class CouplingProblem:
    """Two marginals plus the allowed support as codomain atom-index pairs."""

    def __init__(self, left_marginal, right_marginal, support):
        n1 = len(left_marginal.space.atoms)
        n2 = len(right_marginal.space.atoms)
        pairs = set()
        for i, j in support:
            if not (0 <= i < n1 and 0 <= j < n2):
                raise ValueError(f"support pair ({i}, {j}) is out of range")
            pairs.add((int(i), int(j)))
        self.left_marginal = left_marginal
        self.right_marginal = right_marginal
        self.support = frozenset(pairs)

    @classmethod
    def from_point_pairs(cls, left_marginal, right_marginal, point_pairs):
        pairs = [
            (
                left_marginal.space.atom_index_of_point(p),
                right_marginal.space.atom_index_of_point(q),
            )
            for p, q in point_pairs
        ]
        return cls(left_marginal, right_marginal, pairs)


class Infeasible:
    """Hall-style certificate: rows demand more mass than their neighbors hold."""

    def __init__(self, rows, neighborhood, row_mass, neighborhood_mass):
        self.rows = rows
        self.neighborhood = neighborhood
        self.row_mass = row_mass
        self.neighborhood_mass = neighborhood_mass

    @property
    def deficit(self):
        return self.row_mass - self.neighborhood_mass

    def __repr__(self):
        return (
            f"Infeasible(rows={self.rows.sorted_points()}, "
            f"neighborhood={self.neighborhood.sorted_points()}, "
            f"deficit={self.deficit})"
        )


def solve_coupling(problem):
    """A joint measure with the given marginals inside the given support.

    One max flow decides it (Strassen 1965): source -> left atom i with
    capacity mu_i, support arcs i -> j unbounded and in sorted order, right
    atom j -> sink with capacity nu_j.  A flow of value mu(X) is the
    coupling, a measure on the full product (zero off the support); a
    shorter one leaves the rows reachable in the residual graph, returned
    as an Infeasible certificate whose deficit is the shortfall.
    """
    left = problem.left_marginal
    right = problem.right_marginal
    total = left.total()
    if total != right.total():
        raise MassMismatch(f"marginal totals differ: {total} vs {right.total()}")
    n1 = len(left.space.atoms)
    n2 = len(right.space.atoms)
    support = sorted(problem.support)
    source, sink = 0, n1 + n2 + 1
    arcs = [(source, 1 + i, left.weights[i]) for i in range(n1)]
    arcs += [(1 + i, 1 + n1 + j, None) for i, j in support]
    arcs += [(1 + n1 + j, sink, right.weights[j]) for j in range(n2)]
    flow, reached, flows = max_flow(n1 + n2 + 2, arcs, source, sink)
    if flow == total:
        weights = [Fraction(0)] * (n1 * n2)
        for (i, j), x in zip(support, flows[n1:]):
            weights[i * n2 + j] = x
        return Measure(product_space(left.space, right.space), weights)
    rows = [i for i in range(n1) if 1 + i in reached]
    neighborhood = sorted({j for i, j in support if 1 + i in reached})
    certificate = Infeasible(
        left.space.set_of_atoms(rows),
        right.space.set_of_atoms(neighborhood),
        sum((left.weights[i] for i in rows), start=Fraction(0)),
        sum((right.weights[j] for j in neighborhood), start=Fraction(0)),
    )
    if certificate.deficit != total - flow:
        raise AssertionError("Hall cut deficit differs from the flow shortfall")
    return certificate


class MediationResult:
    """A mediating kernel with its four commuting projection morphisms.

    ``common_events`` holds a nontrivial invariant pair (U1, U2) with
    (U1 x Y2) and (Y1 x U2) agreeing on B, or None when the shared
    quotient has a single class and only trivial common events exist.
    """

    def __init__(self, kernel, pi1, pi2, zeta1, zeta2, common_events):
        self.kernel = kernel
        self.pi1 = pi1
        self.pi2 = pi2
        self.zeta1 = zeta1
        self.zeta2 = zeta2
        self.common_events = common_events

    @property
    def common_events_trivial(self):
        return self.common_events is None


def _matching_pair_space(s1, s2, p1, p2, iso):
    """The subspace of s1 x s2 where quotient classes match under iso."""
    rep1 = [p1.blocks[p1.block_index_of_point(atom[0])][0] for atom in s1.atoms]
    rep2 = [p2.blocks[p2.block_index_of_point(atom[0])][0] for atom in s2.atoms]
    matches = [
        (i, j)
        for i in range(len(s1.atoms))
        for j in range(len(s2.atoms))
        if iso[rep1[i]] == rep2[j]
    ]
    matched = set(matches)
    points = []
    for x in s1.points:
        i = s1.atom_index_of_point(x)
        for y in s2.points:
            if (i, s2.atom_index_of_point(y)) in matched:
                points.append(join_pair_label(x, y))
    atoms = [
        tuple(
            join_pair_label(x, y) for x in s1.atoms[i] for y in s2.atoms[j]
        )
        for i, j in matches
    ]
    space = FiniteMeasurableSpace(points, atoms)
    pair_of_atom = []
    for atom in space.atoms:
        x, y = split_pair_label(atom[0])
        pair_of_atom.append(
            (s1.atom_index_of_point(x), s2.atom_index_of_point(y))
        )
    first = AtomMap(
        space, s1, {q: split_pair_label(q)[0] for q in space.points}
    )
    second = AtomMap(
        space, s2, {q: split_pair_label(q)[1] for q in space.points}
    )
    return space, first, second, pair_of_atom


def _as_partition_pair(kernel, q):
    if isinstance(q, Partition):
        if not kernel.is_endo():
            raise ValueError("a single partition fits only an endokernel")
        return q, q
    dom, cod = q
    return dom, cod


def _as_iso_pair(iso):
    if isinstance(iso, dict):
        return dict(iso), dict(iso)
    dom, cod = iso
    return dict(dom), dict(cod)


def _check_bijection(mapping, sources, targets):
    if set(mapping) != set(sources):
        raise ValueError("iso keys must be exactly the first quotient's blocks")
    values = list(mapping.values())
    if len(set(values)) != len(values) or set(values) != set(targets):
        raise ValueError("iso must biject onto the second quotient's blocks")


def mediate(k1, k2, q1, q2, iso):
    """Build the mediating kernel showing two processes bisimilar.

    q1 and q2 are congruence partitions (a single Partition for an
    endokernel, else a (domain, codomain) pair); iso is the block bijection
    (or pair of bijections) equating the quotient kernels.  A is the
    matching-class subspace of X1 x X2, B of Y1 x Y2; each row of the
    mediating kernel is a coupling of the corresponding rows of k1 and k2
    supported inside B, and both projection equations hold exactly.
    """
    q1d, q1c = _as_partition_pair(k1, q1)
    q2d, q2c = _as_partition_pair(k2, q2)
    try:
        quot1 = quotient_kernel_pair(k1, q1d, q1c)
        quot2 = quotient_kernel_pair(k2, q2d, q2c)
    except NotACongruence as err:
        raise NotBisimilar(f"partition is not a congruence: {err}") from err
    if len(quot1.domain.atoms) != len(quot2.domain.atoms) or len(
        quot1.codomain.atoms
    ) != len(quot2.codomain.atoms):
        raise NotBisimilar("quotient block counts differ")
    dom_iso, cod_iso = _as_iso_pair(iso)
    _check_bijection(dom_iso, quot1.domain.points, quot2.domain.points)
    _check_bijection(cod_iso, quot1.codomain.points, quot2.codomain.points)
    for b, row in zip(quot1.domain.points, quot1.rows):
        other = quot2.row_at_point(dom_iso[b])
        for c, w in zip(quot1.codomain.points, row.weights):
            if w != other.weights[quot2.codomain.atom_index_of_point(cod_iso[c])]:
                raise NotBisimilar(
                    f"quotient kernels disagree at block {b!r} on class {c!r}"
                )
    a_space, pi1, pi2, a_pairs = _matching_pair_space(
        k1.domain, k2.domain, q1d, q2d, dom_iso
    )
    b_space, zeta1, zeta2, b_pairs = _matching_pair_space(
        k1.codomain, k2.codomain, q1c, q2c, cod_iso
    )
    rows = []
    for i1, i2 in a_pairs:
        problem = CouplingProblem(k1.rows[i1], k2.rows[i2], b_pairs)
        coupling = solve_coupling(problem)
        if isinstance(coupling, Infeasible):
            raise CouplingFailed(
                f"no coupling for matched pair {k1.domain.atoms[i1]!r}, "
                f"{k2.domain.atoms[i2]!r}: {coupling!r}"
            )
        n2 = len(k2.codomain.atoms)
        row = Measure(
            b_space, [coupling.weights[j1 * n2 + j2] for j1, j2 in b_pairs]
        )
        if row.total() != k1.rows[i1].total():
            raise AssertionError("mediating row lost mass")
        rows.append(row)
    mediating = Kernel(a_space, b_space, rows)
    for (i1, i2), row in zip(a_pairs, rows):
        images = (pushforward(zeta1, row), pushforward(zeta2, row))
        if images != (k1.rows[i1], k2.rows[i2]):
            raise AssertionError("mediating row misses a marginal")
    if len(q1c.blocks) >= 2:
        u1 = k1.codomain.set_of_atoms(q1c.block_atom_indices(0))
        image = q2c.block_index_of_point(cod_iso[q1c.blocks[0][0]])
        u2 = k2.codomain.set_of_atoms(q2c.block_atom_indices(image))
        for point in b_space.points:
            x, y = split_pair_label(point)
            if (x in u1) != (y in u2):
                raise AssertionError("common events disagree on B")
        common_events = (u1, u2)
    else:
        common_events = None
    return MediationResult(mediating, pi1, pi2, zeta1, zeta2, common_events)


def find_quotient_iso(quot1, quot2):
    """Search block bijections making two quotient kernels equal.

    Returns (dom_iso, cod_iso) dicts keyed by block labels, or None.  For a
    pair of endokernels a single permutation is used on both sides.  The
    first match in index order wins, so the result is deterministic.
    """
    nd = len(quot1.domain.atoms)
    nc = len(quot1.codomain.atoms)
    if nd != len(quot2.domain.atoms) or nc != len(quot2.codomain.atoms):
        return None
    w1 = [row.weights for row in quot1.rows]
    w2 = [row.weights for row in quot2.rows]
    if quot1.is_endo() and quot2.is_endo():
        perm = [None] * nd
        used = [False] * nd
        def extend(i):
            if i == nd:
                return True
            for t in range(nd):
                if used[t]:
                    continue
                perm[i] = t
                consistent = all(
                    w1[a][i] == w2[perm[a]][t] and w1[i][a] == w2[t][perm[a]]
                    for a in range(i + 1)
                )
                if consistent:
                    used[t] = True
                    if extend(i + 1):
                        return True
                    used[t] = False
            perm[i] = None
            return False
        if not extend(0):
            return None
        mapping = {
            quot1.domain.points[i]: quot2.domain.points[perm[i]]
            for i in range(nd)
        }
        return mapping, dict(mapping)
    for cod_perm in permutations(range(nc)):
        candidates = [
            [
                t
                for t in range(nd)
                if all(w1[i][c] == w2[t][cod_perm[c]] for c in range(nc))
            ]
            for i in range(nd)
        ]
        row_map = [None] * nd
        taken = [False] * nd
        def assign(i):
            if i == nd:
                return True
            for t in candidates[i]:
                if not taken[t]:
                    row_map[i] = t
                    taken[t] = True
                    if assign(i + 1):
                        return True
                    taken[t] = False
            return False
        if assign(0):
            dom_iso = {
                quot1.domain.points[i]: quot2.domain.points[row_map[i]]
                for i in range(nd)
            }
            cod_iso = {
                quot1.codomain.points[c]: quot2.codomain.points[cod_perm[c]]
                for c in range(nc)
            }
            return dom_iso, cod_iso
    return None
