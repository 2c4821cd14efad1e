"""Sparse integer-row kernels, packed and sparse convolution, splitter
refinement and integer kind inference against the dense Fraction loops they
replaced (kept in ``oracles``), for n <= 10."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmeas import kernels as kernels_module
from finmeas.errors import NotACongruence, SpaceMismatch
from finmeas.integrate import StepFunction
from finmeas.kernels import (
    FINITE,
    MARKOV,
    SUB_MARKOV,
    Kernel,
    _mix,
    _packed_rows,
    _slot,
    convolve,
    cut_x,
    cut_y,
    disintegrate,
    fubini,
    kleisli_lift,
    measure_kernel_product,
    path_marginal,
    path_measure,
)
from finmeas.logic_bisim import (
    And,
    Dia,
    Top,
    logical_equivalence,
    quotient_kernel,
    quotient_kernel_pair,
    validity_set,
)
from finmeas.measures import Measure
from finmeas.spaces import FiniteMeasurableSpace, Partition, product_space

from conftest import kernel_from_matrix
from oracles import (
    congruence_witness_dense,
    convolve_dense,
    inferred_kind_sums,
    kleisli_lift_dense,
    logical_equivalence_rounds,
    measure_kernel_product_dense,
    path_measure_dense,
    quotient_rows_dense,
    validity_atoms_dense,
)

COPRIME = (7, 11, 13, 17)
# pairwise coprime denominators past 2^40: the lcm of two of them needs
# packed slots past 64 bits, of all five past 192
WIDE = (2**40 + 1, 2**41 + 1, 2**43 + 2, 2**45 + 5, 2**47 + 5)


@st.composite
def spaces(draw, max_points=10, prefix="p"):
    """A discrete space, or the points dealt round-robin into fewer atoms."""
    n = draw(st.integers(1, max_points))
    points = [f"{prefix}{k}" for k in range(n)]
    n_atoms = draw(st.integers(1, n))
    if n_atoms == n:
        return FiniteMeasurableSpace.discrete(points)
    order = draw(st.permutations(points))
    atoms = [order[a::n_atoms] for a in range(n_atoms)]
    return FiniteMeasurableSpace(points, atoms)


@st.composite
def rows_on(draw, space, kind, den, sparse=False):
    """One row of the given kind whose entries are multiples of 1/den,
    on one or two atoms only when sparse.

    Markov rows cut den into parts, subMarkov rows cut a part of it,
    finite rows take any numerators up to 2 den; the latter two are all
    zero now and then."""
    n = len(space.atoms)
    if kind != MARKOV and draw(st.integers(0, 5)) == 0:
        return Measure.zero(space)
    support = list(range(n))
    if sparse:
        support = sorted(draw(st.sets(st.sampled_from(support), min_size=1, max_size=2)))
    m = len(support)
    if kind == FINITE:
        nums = draw(st.lists(st.integers(0, 2 * den), min_size=m, max_size=m))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=m, max_size=m)))
        if kind == MARKOV:
            cuts[-1] = den
        nums = [b - a for a, b in zip([0] + cuts, cuts)]
    weights = [Fraction(0)] * n
    for k, x in zip(support, nums):
        weights[k] = Fraction(x, den)
    return Measure(space, weights)


@st.composite
def kernels(draw, domain, codomain, kind=None, sparse=None, dens=None):
    """A kernel of a drawn (or given) kind, dense or with one or two
    entries per row (drawn, unless given); each row's denominator is one of
    the given dens, else one of a few small numbers or, half the time, one
    of 7, 11, 13 and 17, so the rows carry pairwise coprime scales."""
    if kind is None:
        kind = draw(st.sampled_from([MARKOV, SUB_MARKOV, FINITE]))
    if dens is None:
        dens = COPRIME if draw(st.booleans()) else (1, 2, 3, 4, 6, 12)
    if sparse is None:
        sparse = draw(st.booleans())
    rows = [
        draw(rows_on(codomain, kind, draw(st.sampled_from(dens)), sparse))
        for _ in domain.atoms
    ]
    return Kernel(domain, codomain, rows)


@st.composite
def chains(draw, max_points=10):
    """A shift chain (p = 1) or a ladder with self-loops on permuted points;
    the last state of the line has an empty row."""
    n = draw(st.integers(1, max_points))
    space = FiniteMeasurableSpace.discrete([f"s{k}" for k in range(n)])
    order = draw(st.permutations(range(n)))
    p = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(5, 12), Fraction(3, 7)]))
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for a, b in zip(order, order[1:]):
        matrix[a][b] = p
        matrix[a][a] = 1 - p
    return kernel_from_matrix(space, space, matrix)


@st.composite
def endokernels(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(chains())
    space = draw(spaces())
    return draw(kernels(space, space))


@st.composite
def label_seeds(draw, space):
    """None; one label everywhere (the trivial seed); a label per atom (a
    seed that merges nothing); or random labels constant on atoms, which
    usually split what the kernel alone would merge."""
    n = len(space.atoms)
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return None
    if choice == 1:
        per_atom = ["u"] * n
    elif choice == 2:
        per_atom = [f"u{k}" for k in range(n)]
    else:
        per_atom = draw(st.lists(st.sampled_from("uvw"), min_size=n, max_size=n))
    return {p: label for atom, label in zip(space.atoms, per_atom) for p in atom}


@st.composite
def atom_partitions(draw, space):
    """A partition whose blocks are unions of atoms."""
    n = len(space.atoms)
    owners = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for atom, owner in zip(space.atoms, owners):
        blocks.setdefault(owner, []).extend(atom)
    return Partition(space, list(blocks.values()))


@st.composite
def formulas(draw, thresholds, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return Top()
    if draw(st.booleans()):
        return And(draw(formulas(thresholds, depth - 1)), draw(formulas(thresholds, depth - 1)))
    return Dia(draw(st.sampled_from(thresholds)), draw(formulas(thresholds, depth - 1)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_splitter_refinement_equals_round_refinement(data):
    kernel = data.draw(endokernels())
    labels = data.draw(label_seeds(kernel.domain))
    assert logical_equivalence(kernel, labels) == logical_equivalence_rounds(kernel, labels)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_convolve_equals_dense(data):
    a = data.draw(spaces(prefix="a"))
    if data.draw(st.booleans()):
        b = c = a
    else:
        b = data.draw(spaces(prefix="b"))
        c = data.draw(spaces(prefix="c"))
    right = data.draw(kernels(a, b))
    left = data.draw(kernels(b, c))
    result = convolve(left, right)
    expected = convolve_dense(left, right)
    assert result == expected and result.kind == expected.kind
    if b != c:
        with pytest.raises(SpaceMismatch):
            convolve(right, left)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_and_sparse_convolve_rows_equal_dense(data):
    """Both of convolve's paths, forced, on kernels of every kind, dense
    (forced, half the time) or sparse, with zero rows, coprime row scales,
    now and then a one-atom codomain and, a quarter of the time, left row
    denominators past 2^40, so packed slots span more than 64 bits:
    the oracle's rows, form for form."""
    a = data.draw(spaces(prefix="a"))
    b = data.draw(spaces(prefix="b"))
    if data.draw(st.integers(0, 4)) == 0:
        c = FiniteMeasurableSpace.discrete(["c0"])
    else:
        c = data.draw(spaces(prefix="c"))
    sparse = False if data.draw(st.booleans()) else None
    wide = WIDE if data.draw(st.integers(0, 3)) == 0 else None
    right = data.draw(kernels(a, b, sparse=sparse))
    left = data.draw(kernels(b, c, sparse=sparse, dens=wide))
    expected = [row.form for row in convolve_dense(left, right).rows]
    packed = list(_packed_rows(left, right, *_slot(left, right)))
    mixed = [_mix(row, left.rows, left.codomain) for row in right.rows]
    assert [row.form for row in packed] == expected
    assert [row.form for row in mixed] == expected
    assert all(row.space == c for row in packed + mixed)


@pytest.mark.parametrize("count", [2, 3, 5])
def test_packed_rows_join_multi_limb_slots(count):
    """Dense kernels whose left rows take the first 2, 3 or all 5 of the
    wide denominators, so each slot spans more than 64 bits, in five or
    more 16-bit limbs: the packed rows equal the oracle's, form for form."""
    dens = WIDE[:count]
    rng = random.Random(7)
    n = 6
    space = FiniteMeasurableSpace.discrete([f"s{k}" for k in range(n)])

    def dense(den):
        cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
        nums = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
        return Measure.from_ints(space, den, range(n), nums)

    left = Kernel(space, space, [dense(dens[k % len(dens)]) for k in range(n)])
    right = Kernel(space, space, [dense(12) for _ in range(n)])
    scale, limbs = _slot(left, right)
    assert limbs >= 5
    packed = list(_packed_rows(left, right, scale, limbs))
    assert [row.form for row in packed] == [
        row.form for row in convolve_dense(left, right).rows
    ]


def _path_taken(monkeypatch, left, right):
    """The path convolve takes on (left, right), checked against the other."""
    taken = []
    packed, mix = kernels_module._packed_rows, kernels_module._mix

    def packed_spy(*args):
        taken.append("packed")
        return packed(*args)

    def mix_spy(*args):
        taken.append("dict")
        return mix(*args)

    monkeypatch.setattr(kernels_module, "_packed_rows", packed_spy)
    monkeypatch.setattr(kernels_module, "_mix", mix_spy)
    result = convolve(left, right)
    monkeypatch.undo()
    if taken[0] == "packed":
        other = [_mix(row, left.rows, left.codomain) for row in right.rows]
    else:
        other = list(_packed_rows(left, right, *_slot(left, right)))
    assert [row.form for row in result.rows] == [row.form for row in other]
    assert set(taken) == {taken[0]}
    return taken[0]


def test_convolve_packs_dense_rows_and_mixes_sparse_ones(monkeypatch):
    rng = random.Random(5)
    n = 20
    space = FiniteMeasurableSpace.discrete([f"s{k}" for k in range(n)])
    rows = []
    for _ in range(n):
        cuts = sorted(rng.randint(0, 2 * n) for _ in range(n - 1))
        nums = [b - a for a, b in zip([0, *cuts], [*cuts, 2 * n])]
        rows.append(Measure.from_ints(space, 2 * n, range(n), nums))
    dense = Kernel(space, space, rows)
    assert _path_taken(monkeypatch, dense, dense) == "packed"

    n = 1000
    space = FiniteMeasurableSpace.discrete([f"s{k}" for k in range(n)])
    rows = [Measure.from_ints(space, 1, [k + 1], [1]) for k in range(n - 1)]
    shift = Kernel(space, space, rows + [Measure.zero(space)])
    assert _path_taken(monkeypatch, shift, shift) == "dict"
    rows = []
    for _ in range(n):
        den = rng.choice((2, 3, 4, 6) + COPRIME)
        cuts = sorted(rng.randint(0, den) for _ in range(2))
        nums = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
        rows.append(Measure.from_ints(space, den, rng.sample(range(n), 3), nums))
    chain = Kernel(space, space, rows)
    assert _path_taken(monkeypatch, chain, chain) == "dict"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_kleisli_lift_equals_dense(data):
    a = data.draw(spaces(prefix="a"))
    b = data.draw(spaces(prefix="b"))
    kernel = data.draw(kernels(a, b))
    kind = data.draw(st.sampled_from([MARKOV, SUB_MARKOV, FINITE]))
    mu = data.draw(rows_on(a, kind, data.draw(st.sampled_from((5, 12) + COPRIME))))
    assert kleisli_lift(kernel, mu) == kleisli_lift_dense(kernel, mu)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_iterative_validity_equals_recursive(data):
    kernel = data.draw(endokernels())
    thresholds = sorted({w for row in kernel.rows for w in row.weights if w <= 1}) + [
        Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)
    ]
    phi = data.draw(formulas(thresholds))
    expected = validity_atoms_dense(kernel, phi)
    assert validity_set(kernel, phi).atom_indices == tuple(sorted(expected))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_quotient_equals_dense_sums(data):
    kernel = data.draw(endokernels())
    partition = logical_equivalence(kernel)
    quotient = quotient_kernel(kernel, partition)
    expected = quotient_rows_dense(kernel, partition, partition)
    assert quotient == expected and quotient.kind == expected.kind
    # arbitrary partition pairs of a kernel between two spaces: the same
    # congruence verdict, witness pair and quotient rows
    domain = data.draw(spaces(prefix="x"))
    codomain = data.draw(spaces(prefix="y"))
    kernel = data.draw(kernels(domain, codomain))
    dom = data.draw(atom_partitions(domain))
    cod = data.draw(atom_partitions(codomain))
    witness = congruence_witness_dense(kernel, dom, cod)
    if witness is None:
        assert quotient_kernel_pair(kernel, dom, cod) == quotient_rows_dense(kernel, dom, cod)
    else:
        with pytest.raises(NotACongruence) as err:
            quotient_kernel_pair(kernel, dom, cod)
        assert err.value.witness == witness


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_path_weights_equal_fraction_products(data):
    t = FiniteMeasurableSpace.discrete([f"t{k}" for k in range(data.draw(st.integers(1, 2)))])
    s = data.draw(spaces(max_points=3, prefix="s"))
    kernel = data.draw(kernels(s, product_space(t, s)))
    start = data.draw(st.sampled_from(s.points))
    horizon = data.draw(st.integers(1, 4))
    # the oracle builds the nested spaces of earlier versions: the same
    # atoms in the same order under other labels
    expected = path_measure_dense(kernel, start, horizon)
    result = path_measure(kernel, start, horizon)
    assert result.space == product_space(*[kernel.codomain] * horizon)
    assert len(result.space.atoms) == len(expected.space.atoms)
    assert result.form == expected.form
    assert result.weights == expected.weights


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_measure_kernel_product_equals_fraction_products(data):
    domain = data.draw(spaces(max_points=6, prefix="x"))
    codomain = data.draw(spaces(max_points=6, prefix="y"))
    kernel = data.draw(kernels(domain, codomain))
    # mu is all zero now and then, dense or on one or two atoms
    kind = data.draw(st.sampled_from([SUB_MARKOV, FINITE]))
    den = data.draw(st.sampled_from(COPRIME + (1, 6)))
    mu = data.draw(rows_on(domain, kind, den, data.draw(st.booleans())))
    result = measure_kernel_product(mu, kernel)
    expected = measure_kernel_product_dense(mu, kernel)
    assert result == expected
    assert hash(result) == hash(expected)
    assert result.space.factors == expected.space.factors


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_product_readers_split_off_the_last_of_three_factors(data):
    """On a flat product of three spaces, path_marginal, disintegrate, the
    sections and fubini take the first two factors against the third."""
    a, b, c = (data.draw(spaces(max_points=3, prefix=x)) for x in "abc")
    flat = product_space(a, b, c)
    prefix = product_space(a, b)
    n_c = len(c.atoms)

    def measure_on(space):
        kind = data.draw(st.sampled_from([SUB_MARKOV, FINITE]))
        den = data.draw(st.sampled_from((1, 6, 7)))
        return data.draw(rows_on(space, kind, den, data.draw(st.booleans())))

    joint = measure_on(flat)
    weights = joint.weights
    sums = [sum(weights[i * n_c : (i + 1) * n_c]) for i in range(len(prefix.atoms))]
    assert path_marginal(joint) == Measure(prefix, sums)
    marginal, kernel, null_fibers = disintegrate(joint)
    assert marginal == Measure(prefix, sums)
    assert (kernel.domain, kernel.codomain) == (prefix, c)
    assert len(null_fibers) == sums.count(0)
    assert measure_kernel_product(marginal, kernel).form == joint.form

    f = StepFunction(flat, [Fraction(data.draw(st.integers(-4, 4))) for _ in flat.atoms])
    mu, nu = measure_on(prefix), measure_on(c)
    expected = sum(
        f.values[i * n_c + j] * m * v
        for i, m in enumerate(mu.weights)
        for j, v in enumerate(nu.weights)
    )
    assert fubini(f, mu, nu) == (expected, expected, expected)
    assert cut_x(f, 0).values == f.values[:n_c]
    assert cut_y(f, n_c - 1).space == prefix
    with pytest.raises(SpaceMismatch):
        fubini(f, measure_on(a), nu)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_kind_inference_equals_fraction_sums(data):
    """Rows of mixed kinds (Markov, subMarkov, finite, all zero), dense or
    sparse, with small or pairwise coprime denominators per row: the
    rows' forms hold exactly their nonzero Fractions over the lcm of their
    denominators, and the kernel's inferred kind is the Fraction one."""
    space = data.draw(spaces())
    dens = COPRIME if data.draw(st.booleans()) else (1, 2, 3, 4, 6, 12)
    sparse = data.draw(st.booleans())
    rows = [
        data.draw(
            rows_on(
                space,
                data.draw(st.sampled_from([MARKOV, SUB_MARKOV, FINITE])),
                data.draw(st.sampled_from(dens)),
                sparse,
            )
        )
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    domain = FiniteMeasurableSpace.discrete([f"x{k}" for k in range(len(rows))])
    kernel = Kernel(domain, space, rows)
    for row, (d, cols, nums) in zip(rows, (row.form for row in kernel.rows)):
        nonzero = [(j, w) for j, w in enumerate(row.weights) if w != 0]
        assert d == lcm(*(w.denominator for _, w in nonzero))
        assert cols == tuple(j for j, _ in nonzero)
        assert [Fraction(num, d) for num in nums] == [w for _, w in nonzero]
    assert kernel.kind == inferred_kind_sums(rows)
