"""The masses every row of a kernel puts on an atom set
(``logic_bisim._RowMasses``), read from packed columns for dense kernels
and from predecessor lists for sparse ones: refinement, validity sets and
quotients on both against the Fraction oracles, and against each other,
for 14 to 22 atoms, around the 16-slot floor and the density threshold."""

import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmeas.errors import NotACongruence
from finmeas.kernels import Kernel
from finmeas.logic_bisim import (
    Top,
    _RowMasses,
    _row_masses,
    logical_equivalence,
    quotient_kernel,
    quotient_kernel_pair,
    validity_set,
)
from finmeas.measures import Measure
from finmeas.spaces import FiniteMeasurableSpace, Partition

from oracles import (
    congruence_witness_dense,
    logical_equivalence_rounds,
    quotient_rows_dense,
    validity_atoms_dense,
)
from test_kernel_oracles import atom_partitions, formulas

SMALL = (1, 2, 3, 4, 6, 12)
COPRIME = (7, 11, 13, 17)
# pairwise coprime denominators past 2^43: rows over two or three of them
# pack into slots of two or three 64-bit words
WIDE = (2**43 + 2, 2**45 + 5, 2**47 + 5)


def packed_words(kernel):
    """The words per slot the density rule picks for a kernel: 0 (the
    predecessor lists) below 16 rows or a quarter of the packed words."""
    rows = [row.form for row in kernel.rows]
    n, n_cols = len(rows), kernel.codomain.n_atoms
    nnz = sum(len(cols) for _, cols, _ in rows)
    big = lcm(*(d for d, _, _ in rows))
    top = max(sum(nums) * (big // d) for d, _, nums in rows)
    words = top.bit_length() // 64 + 1
    return words if n >= 16 and 4 * nnz >= n * n_cols * words else 0


def on_predecessor_lists(kernel):
    """An equal kernel whose row masses come from predecessor lists: with
    four times the columns, no kernel reaches the density threshold, and
    the extra columns are never asked for."""
    copy = Kernel(kernel.domain, kernel.codomain, kernel.rows, kernel.kind)
    rows = [row.form for row in kernel.rows]
    copy._row_masses = _RowMasses(rows, 4 * kernel.codomain.n_atoms + 1)
    assert copy._row_masses.words == 0
    return copy


@st.composite
def wide_spaces(draw, n, prefix):
    """n atoms, a few of them of two points."""
    points = [f"{prefix}{k}" for k in range(n + draw(st.integers(0, 3)))]
    atoms = [[p] for p in points[:n]]
    for k, p in enumerate(points[n:]):
        atoms[3 * k].append(p)
    return FiniteMeasurableSpace(points, atoms)


@st.composite
def wide_kernels(draw, endo=True):
    """A kernel from 14 to 22 atoms (some of two points) to the same space
    or, unless endo, to 6 to 30 others: dense, sparse or with exactly the
    nonzeros of the density threshold (or one fewer).  Row scales are
    small, pairwise coprime, or past 2^43; a finite row takes numerators up
    to twice its scale, so its mass may pass 1, and now and then a row is
    empty."""
    n = draw(st.integers(14, 22))
    domain = draw(wide_spaces(n, "s"))
    m = n if endo else draw(st.integers(6, 30))
    codomain = domain if endo else draw(wide_spaces(m, "t"))
    shape = draw(st.sampled_from(["dense", "dense", "sparse", "threshold"]))
    if shape == "threshold":
        dens = draw(st.sampled_from([SMALL, COPRIME]))
        count = (n * m + 3) // 4 - draw(st.integers(0, 1))
    else:
        dens = draw(st.sampled_from([SMALL, COPRIME, WIDE[:2], WIDE]))
        per_row = [1, 2] if shape == "sparse" else [m * 3 // 4, m]
        count = sum(draw(st.integers(*per_row)) for _ in range(n))
    empty = set(draw(st.lists(st.integers(0, n - 1), max_size=2)))
    cells = [(i, j) for i in range(n) if i not in empty for j in range(m)]
    chosen = draw(st.permutations(cells))[: min(count, len(cells))]
    support = [[] for _ in range(n)]
    for i, j in sorted(chosen):
        support[i].append(j)
    finite = draw(st.booleans())
    rows = []
    for cols in support:
        d = draw(st.sampled_from(dens))
        top = 2 * d if finite else max(1, d // max(1, len(cols)))
        nums = [draw(st.integers(1, top)) for _ in cols]
        if not finite and sum(nums) > d:
            nums = [1] * len(cols)
            d = max(d, len(cols))
        rows.append(Measure.from_ints(codomain, d, cols, nums))
    return Kernel(domain, codomain, rows)


def assert_quotients_agree(kernel, lists, dom, cod):
    """The same NotACongruence witness as the Fraction oracle on both
    paths, or the oracle's quotient with the same row forms on both."""
    witness = congruence_witness_dense(kernel, dom, cod)
    if witness is None:
        quotients = [quotient_kernel_pair(k, dom, cod) for k in (kernel, lists)]
        assert quotients[0] == quotient_rows_dense(kernel, dom, cod)
        forms = [[r.form for r in q.rows] for q in quotients]
        assert forms[0] == forms[1]
    else:
        for k in (kernel, lists):
            with pytest.raises(NotACongruence) as err:
                quotient_kernel_pair(k, dom, cod)
            assert err.value.witness == witness


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_masses_on_either_path_equal_the_fraction_oracles(data):
    kernel = data.draw(wide_kernels())
    masses = _row_masses(kernel)
    assert masses.words == packed_words(kernel)
    lists = on_predecessor_lists(kernel)
    partition = logical_equivalence(kernel)
    assert partition == logical_equivalence_rounds(kernel)
    assert logical_equivalence(lists) == partition
    thresholds = sorted({w for row in kernel.rows for w in row.weights if w <= 1}) + [
        Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)
    ]
    phi = data.draw(formulas(thresholds))
    expected = tuple(sorted(validity_atoms_dense(kernel, phi)))
    assert validity_set(kernel, phi).atom_indices == expected
    assert validity_set(lists, phi).atom_indices == expected
    quotient = quotient_kernel(kernel, partition)
    assert quotient == quotient_rows_dense(kernel, partition, partition)
    assert [row.form for row in quotient.rows] == [
        row.form for row in quotient_kernel(lists, partition).rows
    ]
    # a partition pair, drawn or the logical partition with a coarsening of
    # it (a congruence): the same witness, or the same quotient row forms
    if data.draw(st.booleans()):
        dom = data.draw(atom_partitions(kernel.domain))
        cod = data.draw(atom_partitions(kernel.codomain))
    else:
        owners = data.draw(st.lists(st.integers(0, 2), min_size=len(partition.blocks)))
        merged = {}
        for block, owner in zip(partition.blocks, owners):
            merged.setdefault(owner, []).extend(block)
        dom, cod = partition, Partition(kernel.codomain, list(merged.values()))
    assert_quotients_agree(kernel, lists, dom, cod)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_masses_of_kernels_between_two_spaces_give_the_same_quotients(data):
    kernel = data.draw(wide_kernels(endo=False))
    assert _row_masses(kernel).words == packed_words(kernel)
    dom = data.draw(atom_partitions(kernel.domain))
    cod = data.draw(atom_partitions(kernel.codomain))
    if data.draw(st.booleans()):  # its atoms: a congruence with any cod
        dom = Partition(kernel.domain, kernel.domain.atoms)
    assert_quotients_agree(kernel, on_predecessor_lists(kernel), dom, cod)


def _dealt(n, nonzeros):
    """n rows on n atoms with the given nonzeros, dealt row by row, each
    1/(4n)."""
    space = FiniteMeasurableSpace.discrete([f"s{k}" for k in range(n)])
    cells = [(i, j) for j in range(n) for i in range(n)][:nonzeros]
    support = [[j for i, j in cells if i == k] for k in range(n)]
    rows = [Measure.from_ints(space, 4 * n, cols, [1] * len(cols)) for cols in support]
    return Kernel(space, space, rows)


@pytest.mark.parametrize(
    "n, nonzeros, words",
    [(16, 64, 1), (16, 63, 0), (20, 100, 1), (20, 99, 0), (15, 225, 0), (16, 256, 1)],
)
def test_rows_pack_from_a_quarter_of_their_slots_and_16_rows(n, nonzeros, words):
    kernel = _dealt(n, nonzeros)
    masses = _row_masses(kernel)
    assert masses.words == words
    expected = {i: len(row.form[1]) for i, row in enumerate(kernel.rows) if row.form[1]}
    assert masses.on(range(n)) == expected


def test_slots_of_several_words_add_without_carries():
    """Rows over three coprime scales past 2^43 share an L past 2^128, so
    every slot spans three words; masses on any atom set read back exactly."""
    n = 16
    space = FiniteMeasurableSpace.discrete([f"s{k}" for k in range(n)])
    scales = [WIDE[k % 3] for k in range(n)]
    rows = [
        Measure.from_ints(space, d, range(n), [d - k] + [1] * (n - 1))
        for k, d in enumerate(scales)
    ]
    kernel = Kernel(space, space, rows)
    packed, lists = _row_masses(kernel), on_predecessor_lists(kernel)._row_masses
    assert packed.words == 3 and packed.scale == [lcm(*WIDE)] * n
    for atoms in ([0], [1, 2, 3], range(n)):
        expected = {i: sum(row.weights[j] for j in atoms) for i, row in enumerate(rows)}
        for masses in (packed, lists):
            got = masses.on(atoms)
            assert {i: Fraction(m, masses.scale[i]) for i, m in got.items()} == expected


def _shift_chain(n, dead_end):
    """State i moves to i + 1 and the last stays put, or, with dead_end, has
    an empty row."""
    space = FiniteMeasurableSpace.discrete([f"s{i}" for i in range(n)])
    rows = [Measure.from_ints(space, 1, [min(i + 1, n - 1)], [1]) for i in range(n)]
    if dead_end:
        rows[-1] = Measure.zero(space)
    return Kernel(space, space, rows)


@pytest.mark.parametrize("dead_end", [False, True])
def test_refining_a_sparse_chain_takes_memory_linear_in_its_entries(dead_end):
    """The 2,000-state shift chain has at most 2,000 nonzeros; refining and
    quotienting it peak near 1 and 2 MB of traced memory.  Packed columns
    would hold 2,000 slots of 8 bytes for each of its 2,000 atoms: 32 MB."""
    kernel = _shift_chain(2000, dead_end)
    tracemalloc.start()
    try:
        quotient_kernel(kernel, logical_equivalence(kernel))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _row_masses(kernel).words == 0
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", [20, 2000])
def test_building_row_masses_leaves_a_kernel_equal_hash_and_repr(n):
    """Row masses are kept on the kernel, packed (n = 20, full rows) or as
    predecessor lists (the 2,000-state chain); ==, hash and repr ignore them."""
    if n == 20:
        kernel, twin = _dealt(n, n * n), _dealt(n, n * n)
    else:
        kernel, twin = _shift_chain(n, True), _shift_chain(n, True)
    before = (hash(kernel), repr(kernel))
    partition = logical_equivalence(kernel)
    quotient_kernel(kernel, partition)
    validity_set(kernel, Top())
    assert _row_masses(kernel).words == (1 if n == 20 else 0)
    assert (hash(kernel), repr(kernel)) == before == (hash(twin), repr(twin))
    assert kernel == twin and twin == kernel
    assert not hasattr(twin, "_row_masses")
