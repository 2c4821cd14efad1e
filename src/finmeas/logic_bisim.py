"""Modal logic over kernels, quotients, couplings and mediating kernels.

The logic is negation-free: T, conjunction, and the threshold modality
dia>=q with q in [0, 1].  Logical equivalence is computed by splitter-based
partition refinement (lumping) over the integer forms (D, cols, nums) of
the kernel's rows, which list only their nonzero atoms, and the invariant
sigma-algebra of a nesting depth by that many rounds of block-mass
refinement.  For kernels whose rows have mass at most 1, their blocks are
those cut out by the validity sets of all formulas (of that depth).
Validity sets and quotient kernels sum only the nonzero row entries, and
formulas are split into tokens by one pattern, then parsed and evaluated
with explicit stacks, so nesting depth costs no recursion.  Two logical
quotients are matched by the same refinement, run once on their disjoint
union.  Round-based refinement, formula enumeration, the validity-set
closure, the permutation and backtracking iso searches and the earlier
hand-written formula scanner serve as test oracles only.  A coupling of two
marginals inside a support is one ``flow.transport`` max flow: a full flow
is the coupling, and a short one yields a Hall-style cut certificate from
the residual graph.  A mediating kernel needs no flow: each row is the
class-conditional product of the two, over nonzero entries.
"""

import re
from collections import Counter
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .errors import (
    CapacityExceeded,
    MassMismatch,
    NotACongruence,
    NotBisimilar,
    SpaceMismatch,
)
from .flow import transport
from .kernels import AtomMap, Kernel, pushforward
from .measures import Measure
from .rational import as_fraction, format_fraction
from .simplex import maximize  # noqa: F401  bench/spans.py wraps this attribute
from .spaces import (
    FiniteMeasurableSpace,
    Partition,
    join_pair_label,
    product_space,
)


class Formula:
    """AST base; concrete nodes are Top, And and Dia.

    Printing walks the tree with an explicit stack, so formulas nested
    thousands deep need no recursion.  Equality and hashing go through the
    printed form, which is injective.
    """

    def __eq__(self, other):
        return isinstance(other, Formula) and repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))

    def __repr__(self):
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
            elif isinstance(node, And):
                stack += [")", node.right, " & ", node.left, "("]
            elif isinstance(node, Dia):
                out.append(f"dia>={format_fraction(node.threshold)} ")
                stack.append(node.body)
            else:
                out.append(repr(node))
        return "".join(out)


class Top(Formula):
    def __repr__(self):
        return "T"


class And(Formula):
    def __init__(self, left, right):
        self.left = left
        self.right = right


class Dia(Formula):
    """The threshold modality: holds where the row mass of the body is >= q."""

    def __init__(self, threshold, body):
        threshold = as_fraction(threshold)
        if not 0 <= threshold <= 1:
            raise ValueError(f"dia threshold must lie in [0, 1], got {threshold}")
        self.threshold = threshold
        self.body = body


def format_formula(phi):
    """Concrete syntax accepted back by parse_formula."""
    return repr(phi)


# a token, or the first character that starts none
_TOKEN = re.compile(r"\s*(?:(dia>=|\d+|[()&/T])|(\S))")


def parse_formula(text):
    """Parse `T`, `(phi & phi)` (left-associative) or `dia>=p/q phi`.

    Whitespace-insensitive; dia binds tighter than &, so conjunctions are
    always parenthesized.  The tokens are read off a reversed list, and
    open dia>= thresholds and conjunctions wait on an explicit stack of
    frames instead of the call stack.
    """
    tokens = []
    for token, bad in _TOKEN.findall(text):
        if bad:
            raise ValueError(f"unexpected character {bad!r} in formula")
        tokens.append(token)
    tokens.reverse()

    def take():
        if not tokens:
            raise ValueError("formula ends unexpectedly")
        return tokens.pop()

    frames = []
    while True:
        tok = take()
        if tok == "dia>=":
            num, den = take(), "1"
            if not num.isdigit():
                raise ValueError(f"expected a number, got {num!r}")
            if tokens[-1:] == ["/"]:
                tokens.pop()
                den = take()
                if not den.isdigit():
                    raise ValueError(f"expected a denominator, got {den!r}")
                if int(den) == 0:
                    raise ValueError(f"zero denominator in {num}/{den}")
            frames.append(Fraction(int(num), int(den)))
            continue
        if tok == "(":
            frames.append([None])
            continue
        if tok != "T":
            raise ValueError(f"unexpected token {tok!r}")
        node = Top()
        while frames:
            frame = frames[-1]
            if isinstance(frame, Fraction):
                frames.pop()
                node = Dia(frame, node)
                continue
            frame[0] = node if frame[0] is None else And(frame[0], node)
            tok = take()
            if tok == "&":
                break
            if tok != ")":
                raise ValueError(f"expected ')', got {tok!r}")
            frames.pop()
            node = frame[0]
        else:
            if tokens:
                raise ValueError(f"trailing input after formula: {tokens[-1]!r}")
            return node


def _require_endo(kernel):
    if not kernel.is_endo():
        raise SpaceMismatch("this operation needs an endokernel")


def _dia_atoms(rows, inner, q):
    """Atoms whose scaled row puts mass at least q on the inner atom set."""
    out = []
    for k, (d, cols, nums) in enumerate(rows):
        mass = sum(compress(nums, map(inner.__contains__, cols)))
        if mass * q.denominator >= q.numerator * d:
            out.append(k)
    return frozenset(out)


def _validity_atoms(rows, phi):
    """The atoms where phi holds, evaluated bottom-up with an explicit stack."""
    values = []
    stack = [(phi, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Top):
            values.append(frozenset(range(len(rows))))
        elif isinstance(node, And):
            if ready:
                right = values.pop()
                values.append(values.pop() & right)
            else:
                stack += [(node, True), (node.right, False), (node.left, False)]
        elif isinstance(node, Dia):
            if ready:
                values.append(_dia_atoms(rows, values.pop(), node.threshold))
            else:
                stack += [(node, True), (node.body, False)]
        else:
            raise TypeError(f"not a formula: {node!r}")
    return values.pop()


def validity_set(kernel, phi):
    """The set where phi holds, always a union of atoms."""
    _require_endo(kernel)
    atoms = _validity_atoms([row.form for row in kernel.rows], phi)
    return kernel.domain.set_of_atoms(sorted(atoms))


def _initial_blocks(space, labels):
    """The atom-index blocks refinement starts from: one block, or the
    label classes in order of their first atom."""
    if labels is None:
        return [list(range(space.n_atoms))]
    by_label = {}
    for k, atom in enumerate(space.atoms):
        values = {labels[p] for p in atom}
        if len(values) != 1:
            raise ValueError(f"label map splits atom {atom!r}")
        by_label.setdefault(values.pop(), []).append(k)
    return list(by_label.values())


def _lump(rows, blocks):
    """The coarsest refinement of the index blocks whose members' rows put
    equal masses on every block, as a list of index sets.

    Splitter refinement (Paige-Tarjan, in the lumping form of Valmari and
    Franceschinis, TACAS 2010) over predecessor lists of the scaled rows
    (D, cols, nums).  Every block starts on a worklist; popping a splitter
    S sums each predecessor's mass into S and splits the touched states of
    each touched block by that mass, the untouched states (mass 0) keeping
    the block.  The pieces of a split block are queued, except the largest
    when the block itself is not queued: its mass is then the block's minus
    the others'.
    """
    scale = [d for d, _, _ in rows]
    pred = [[] for _ in rows]
    for i, (_, cols, nums) in enumerate(rows):
        for j, num in zip(cols, nums):
            pred[j].append((i, num))
    members = [set(block) for block in blocks]
    block_of = [0] * len(rows)
    for b, block in enumerate(members):
        for k in block:
            block_of[k] = b
    queue = list(range(len(members)))
    queued = [True] * len(members)
    while queue:
        splitter = queue.pop()
        queued[splitter] = False
        mass = {}
        for j in members[splitter]:
            for i, num in pred[j]:
                mass[i] = mass.get(i, 0) + num
        touched = {}
        for i in mass:
            touched.setdefault(block_of[i], []).append(i)
        for b, states in touched.items():
            # masses of different rows compare as reduced fractions of
            # their own row scales, never over one common denominator
            groups = {}
            for i in states:
                g = gcd(mass[i], scale[i])
                groups.setdefault((mass[i] // g, scale[i] // g), []).append(i)
            pieces = list(groups.values())
            if len(states) == len(members[b]):
                if len(pieces) == 1:
                    continue
                pieces.remove(max(pieces, key=len))
            ids = [b]
            for piece in pieces:
                ids.append(len(members))
                members.append(set(piece))
                members[b].difference_update(piece)
                for i in piece:
                    block_of[i] = ids[-1]
                queued.append(False)
            if not queued[b]:
                ids.remove(max(ids, key=lambda x: len(members[x])))
            for x in ids:
                if not queued[x]:
                    queued[x] = True
                    queue.append(x)
    return members


def logical_equivalence(kernel, labels=None):
    """Coarsest partition whose blocks see equal row masses on every block.

    The lumping (_lump) of the kernel's rows from one block.  When every
    row has mass at most 1, it coincides with the partition induced by the
    validity sets of all formulas; a heavier row is told apart by masses
    above 1, which no threshold sees.  ``labels`` optionally seeds the
    lumping with point label classes instead of one block (an extension
    hook; the core logic has no atomic propositions).
    """
    _require_endo(kernel)
    space = kernel.domain
    rows = [row.form for row in kernel.rows]
    members = _lump(rows, _initial_blocks(space, labels))
    return Partition(
        space,
        [[p for k in block for p in space.atoms[k]] for block in members],
    )


def invariant_sigma_algebra(kernel, depth):
    """The space generated by validity sets up to a given dia-nesting depth.

    At most ``depth`` rounds of block-mass refinement from one block: each
    round keys every atom by its block and by its row's masses on the
    current blocks, compared as reduced fractions, and stops early at a
    fixed point.  Two rows of mass at most 1 that differ on a depth-d
    validity set are told apart by dia>= at the larger mass; rows agreeing
    on the intersection-stable family of those sets agree on the
    sigma-algebra it generates (pi-lambda uniqueness), whose atoms are the
    depth-d blocks.  Thresholds stop at 1, so a row of mass above 1 raises
    ValueError.
    """
    _require_endo(kernel)
    if depth < 0:
        raise ValueError("depth must be at least 0")
    space = kernel.domain
    rows = [row.form for row in kernel.rows]
    for k, (d, _, nums) in enumerate(rows):
        if sum(nums) > d:
            raise ValueError(
                f"the row of atom {space.atoms[k]!r} has mass above 1, which "
                "no dia>= threshold sees"
            )
    block_of = [0] * len(rows)
    count = 1
    for _ in range(depth):
        keys = {}
        refined = []
        for k, (d, cols, nums) in enumerate(rows):
            signature = []
            for c, m in _block_masses(cols, nums, block_of).items():
                g = gcd(m, d)
                signature.append((c, m // g, d // g))
            key = (block_of[k], frozenset(signature))
            refined.append(keys.setdefault(key, len(keys)))
        if len(keys) == count:
            break
        block_of, count = refined, len(keys)
    blocks = [[] for _ in range(count)]
    for k, b in enumerate(block_of):
        blocks[b].extend(space.atoms[k])
    return FiniteMeasurableSpace(space.points, blocks)


def _block_masses(cols, nums, block_of_atom):
    """Integer masses of a scaled row per codomain block (nonzero only)."""
    masses = {}
    for j, num in zip(cols, nums):
        c = block_of_atom[j]
        masses[c] = masses.get(c, 0) + num
    return masses


def _congruence_masses(rows, dom_partition, cod_partition):
    """(None, each domain block's (D, block masses)) or (witness pair, None)."""
    for partition in (dom_partition, cod_partition):
        if not partition.refines_atoms:
            # the first atom the partition splits, and its first point
            # outside the block of its first point
            atom = partition.space.atoms[partition.block_of_atom.index(None)]
            first = partition.block_index_of_point(atom[0])
            other = next(
                p for p in atom if partition.block_index_of_point(p) != first
            )
            return (atom[0], other), None
    atoms = dom_partition.space.atoms
    bases = []
    for b in range(len(dom_partition.blocks)):
        members = dom_partition.block_atom_indices(b)
        base_scale, base_cols, base_nums = rows[members[0]]
        base = _block_masses(base_cols, base_nums, cod_partition.block_of_atom)
        for k in members[1:]:
            scale, cols, nums = rows[k]
            masses = _block_masses(cols, nums, cod_partition.block_of_atom)
            if masses.keys() != base.keys() or any(
                m * base_scale != base[c] * scale for c, m in masses.items()
            ):
                return (atoms[members[0]][0], atoms[k][0]), None
        bases.append((base_scale, base))
    return None, bases


def quotient_kernel_pair(kernel, dom_partition, cod_partition):
    """Quotient with separate domain and codomain congruence partitions."""
    if dom_partition.space != kernel.domain:
        raise SpaceMismatch("domain partition lives on a different space")
    if cod_partition.space != kernel.codomain:
        raise SpaceMismatch("codomain partition lives on a different space")
    rows = [row.form for row in kernel.rows]
    witness, bases = _congruence_masses(rows, dom_partition, cod_partition)
    if witness is not None:
        raise NotACongruence(
            f"rows of {witness[0]!r} and {witness[1]!r} differ at block "
            "resolution",
            witness=witness,
        )
    dom_space = FiniteMeasurableSpace.discrete([b[0] for b in dom_partition.blocks])
    cod_space = FiniteMeasurableSpace.discrete([b[0] for b in cod_partition.blocks])
    quotient_rows = [
        Measure.from_ints(cod_space, d, m.keys(), m.values()) for d, m in bases
    ]
    return Kernel(dom_space, cod_space, quotient_rows, kernel.kind)


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
        n1 = left_marginal.space.n_atoms
        n2 = right_marginal.space.n_atoms
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

    One ``transport`` max flow decides it (Strassen 1965): the left atoms
    supply mu, the right atoms demand nu, both as ints over the lcm of the
    marginals' scales, over the support pairs in sorted order.  A flow of
    value mu(X) is the coupling, a measure on the full product (zero off
    the support) built from the nonzero pair flows; a shorter one leaves
    the rows reachable in the residual graph, returned as an Infeasible
    certificate whose deficit is the shortfall.
    """
    left = problem.left_marginal
    right = problem.right_marginal
    big = lcm(left.form[0], right.form[0])
    supply, demand = left.ints_over(big), right.ints_over(big)
    total = sum(supply)
    if total != sum(demand):
        raise MassMismatch(
            f"marginal totals differ: {left.total()} vs {right.total()}"
        )
    n2 = len(demand)
    support = sorted(problem.support)
    flow, rows, flows = transport(supply, demand, support)
    if flow == total:
        prod = product_space(left.space, right.space)
        return Measure.from_ints(prod, big, [i * n2 + j for i, j in support], flows)
    reached = set(rows)
    neighborhood = sorted({j for i, j in support if i in reached})
    certificate = Infeasible(
        left.space.set_of_atoms(rows),
        right.space.set_of_atoms(neighborhood),
        Fraction(sum(supply[i] for i in rows), big),
        Fraction(sum(demand[j] for j in neighborhood), big),
    )
    if certificate.deficit != Fraction(total - flow, big):
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


# the largest mediation mediate builds: points of A and of B, and nonzeros
MAX_MEDIATION_SIZE = 1 << 20


def _class_image(p1, p2, iso):
    """image[c] is the p2 block that iso sends p1's block c to."""
    return [p2.block_index_of_point(iso[block[0]]) for block in p1.blocks]


def _mediation_size(k1, k2, q1d, q1c, q2d, q2c, images):
    """(|A|, |B|, nonzeros) of the mediating kernel, in O(nonzeros) of k1
    and k2: A has |D| |iso D| points per domain class D, B likewise, and
    the rows have N1(D, C) N2(iso D, iso C) nonzeros, with N(D, C) the
    row nonzeros of class D's atoms inside class C.  images holds the
    domain and the codomain class images (_class_image)."""
    a, b = (
        sum(len(block) * len(p2.blocks[k]) for block, k in zip(p1.blocks, image))
        for p1, p2, image in zip((q1d, q1c), (q2d, q2c), images)
    )
    n1, n2 = (
        Counter(
            (dom.block_of_atom[i], cod.block_of_atom[j])
            for i, row in enumerate(kernel.rows)
            for j in row.form[1]
        )
        for kernel, dom, cod in ((k1, q1d, q1c), (k2, q2d, q2c))
    )
    nonzeros = sum(n * n2[images[0][d], images[1][c]] for (d, c), n in n1.items())
    return a, b, nonzeros


def _matching_pair_space(s1, s2, p1, p2, image):
    """The subspace of s1 x s2 where quotient classes match under the class
    image (_class_image), its two coordinate maps and its atoms as
    atom-index pairs (i, j), which in lexicographic order are its
    canonical atom order."""
    label = {}
    for x in s1.points:
        for y in p2.blocks[image[p1.block_index_of_point(x)]]:
            label[x, y] = join_pair_label(x, y)
    pairs = [
        (i, j)
        for i, b in enumerate(p1.block_of_atom)
        for j in p2.block_atom_indices(image[b])
    ]
    atoms = [
        tuple(label[x, y] for x in s1.atoms[i] for y in s2.atoms[j])
        for i, j in pairs
    ]
    space = FiniteMeasurableSpace(label.values(), atoms)
    first = AtomMap(space, s1, {q: x for (x, _), q in label.items()})
    second = AtomMap(space, s2, {q: y for (_, y), q in label.items()})
    return space, first, second, pairs


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
    matching-class subspace of X1 x X2, B of Y1 x Y2.  The row of a matched
    pair (x, y) couples k1(x) and k2(y) independently given the class:
    w(j1, j2) = k1(x)(j1) * k2(y)(j2) / m_C for j1 in a class C and j2 in
    iso(C), where m_C = k1(x)(C) is the quotient row's mass on C (w = 0
    when m_C = 0).  The quotient kernels agree, so k2(y)(iso(C)) = m_C too:
    summing out j2 gives k1(x)(j1) and summing out j1 gives k2(y)(j2), so
    each row is a coupling inside B and both projection equations hold.
    A, B or the rows' nonzeros past MAX_MEDIATION_SIZE raise
    CapacityExceeded, counted before anything is built.
    """
    q1d, q1c = _as_partition_pair(k1, q1)
    q2d, q2c = _as_partition_pair(k2, q2)
    try:
        quot1 = quotient_kernel_pair(k1, q1d, q1c)
        quot2 = quotient_kernel_pair(k2, q2d, q2c)
    except NotACongruence as err:
        raise NotBisimilar(f"partition is not a congruence: {err}") from err
    if (quot1.domain.n_atoms, quot1.codomain.n_atoms) != (
        quot2.domain.n_atoms, quot2.codomain.n_atoms
    ):
        raise NotBisimilar("quotient block counts differ")
    dom_iso, cod_iso = _as_iso_pair(iso)
    _check_bijection(dom_iso, quot1.domain.points, quot2.domain.points)
    _check_bijection(cod_iso, quot1.codomain.points, quot2.codomain.points)
    # quotient codomain atom c is q1c's block c; image[c] is its q2c block
    dom_image = _class_image(q1d, q2d, dom_iso)
    image = _class_image(q1c, q2c, cod_iso)
    for b, row in zip(quot1.domain.points, quot1.rows):
        d, cols, nums = row.form
        other = quot2.row_at_point(dom_iso[b])
        renamed = map(image.__getitem__, cols)
        if Measure.from_ints(other.space, d, renamed, nums) != other:
            mine, theirs = (m.ints_over(d * other.form[0]) for m in (row, other))
            c = next(
                c
                for c, w, k in zip(quot1.codomain.points, mine, image)
                if w != theirs[k]
            )
            raise NotBisimilar(
                f"quotient kernels disagree at block {b!r} on class {c!r}"
            )
    sizes = _mediation_size(k1, k2, q1d, q1c, q2d, q2c, (dom_image, image))
    if max(sizes) > MAX_MEDIATION_SIZE:
        raise CapacityExceeded(
            "mediation needs {} and {} pairs and {} nonzeros, past the limit"
            " {}".format(*sizes, MAX_MEDIATION_SIZE)
        )
    a_space, pi1, pi2, a_pairs = _matching_pair_space(
        k1.domain, k2.domain, q1d, q2d, dom_image
    )
    b_space, zeta1, zeta2, b_pairs = _matching_pair_space(
        k1.codomain, k2.codomain, q1c, q2c, image
    )
    b_index = {pair: k for k, pair in enumerate(b_pairs)}
    rows = []
    for i1, i2 in a_pairs:
        d1, cols1, nums1 = k1.rows[i1].form
        d2, cols2, nums2 = k2.rows[i2].form
        right = {}
        for j2, n2 in zip(cols2, nums2):
            right.setdefault(q2c.block_of_atom[j2], []).append((j2, n2))
        # m_C = S_C / d1 for the integer class masses S_C of the k1 row, so
        # w(j1, j2) = n1 n2 / (d2 S_C), taken over d2 times the lcm of the S_C
        masses = _block_masses(cols1, nums1, q1c.block_of_atom)
        scale = lcm(*masses.values())
        entries = {}
        for j1, n1 in zip(cols1, nums1):
            c = q1c.block_of_atom[j1]
            factor = n1 * (scale // masses[c])
            for j2, n2 in right.get(image[c], ()):
                entries[b_index[j1, j2]] = factor * n2
        row = Measure.from_ints(b_space, d2 * scale, entries.keys(), entries.values())
        images = (pushforward(zeta1, row), pushforward(zeta2, row))
        if images != (k1.rows[i1], k2.rows[i2]):
            raise AssertionError("mediating row misses a marginal")
        rows.append(row)
    if len(q1c.blocks) >= 2:
        common_events = (
            k1.codomain.set_of_atoms(q1c.block_atom_indices(0)),
            k2.codomain.set_of_atoms(q2c.block_atom_indices(image[0])),
        )
    else:
        common_events = None
    mediating = Kernel(a_space, b_space, rows)
    return MediationResult(mediating, pi1, pi2, zeta1, zeta2, common_events)


def find_quotient_iso(quot1, quot2):
    """The block bijection making two logical quotients equal, or None.

    Both must be logical quotients of endokernels: minimal, so no two of
    their blocks are bisimilar.  Then they are isomorphic exactly when the
    lumping (_lump) of their disjoint union puts one block of each in every
    class, and that iso is the only one.  Returns (dom_iso, cod_iso), two
    equal dicts keyed by the first quotient's blocks in point order.  A
    non-endo quotient raises SpaceMismatch, and a class holding two blocks
    of one quotient raises ValueError: that quotient is not minimal.
    """
    _require_endo(quot1)
    _require_endo(quot2)
    n = quot1.domain.n_atoms
    if n != quot2.domain.n_atoms:
        return None
    rows = [row.form for row in quot1.rows]
    for d, cols, nums in (row.form for row in quot2.rows):
        rows.append((d, [j + n for j in cols], nums))
    classes = [sorted(c) for c in _lump(rows, [range(2 * n)])]
    for offset, quot, name in ((0, quot1, "first"), (n, quot2, "second")):
        for c in classes:
            mine = [k - offset for k in c if offset <= k < offset + n]
            if len(mine) > 1:
                a, b = (quot.domain.atoms[k][0] for k in mine[:2])
                raise ValueError(
                    f"the {name} quotient is not minimal: its blocks {a!r} and "
                    f"{b!r} are bisimilar"
                )
    if len(classes) != n:
        return None
    match = dict(classes)
    iso = {
        atom[0]: quot2.domain.atoms[match[i] - n][0]
        for i, atom in enumerate(quot1.domain.atoms)
    }
    return iso, dict(iso)
