import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finmeas.cli import main
from finmeas.errors import (
    CapacityExceeded,
    MassMismatch,
    NotACongruence,
    NotBisimilar,
    SpaceMismatch,
)
from finmeas.kernels import FINITE, MARKOV, SUB_MARKOV, Kernel, pushforward
from finmeas.logic_bisim import (
    MAX_MEDIATION_SIZE,
    And,
    CouplingProblem,
    Dia,
    Infeasible,
    Top,
    _class_image,
    _mediation_size,
    find_quotient_iso,
    format_formula,
    invariant_sigma_algebra,
    logical_equivalence,
    mediate,
    parse_formula,
    quotient_kernel,
    quotient_kernel_pair,
    solve_coupling,
    validity_set,
)
from finmeas.measures import Measure
from finmeas.spaces import FiniteMeasurableSpace, Partition, sigma_from_generator

from conftest import kernel_from_matrix, rand_kernel, rand_probability, rand_space
from oracles import (
    factor_map,
    find_quotient_iso_backtracking,
    find_quotient_iso_search,
    invariant_sigma_algebra_closure,
    mediate_dense,
    mediate_flow,
    parse_formula_reference,
    solve_coupling_lp,
    solve_coupling_max_flow,
)

S = FiniteMeasurableSpace.discrete("ab")
M = kernel_from_matrix(
    S, S, [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(1, 4)]]
)


def test_parse_round_trip():
    for text in (
        "T",
        "(T & T)",
        "dia>=1/2 T",
        "dia>=1/2 dia>=1 T",
        "(dia>=1/4 T & dia>=1 T)",
        "(T & T & dia>=0 T)",
        "dia>=1/2 (T & dia>=1 T)",
    ):
        phi = parse_formula(text)
        assert parse_formula(format_formula(phi)) == phi


def test_parse_shapes():
    assert parse_formula("T") == Top()
    assert parse_formula("(T & T)") == And(Top(), Top())
    assert parse_formula("dia>=1/2 T") == Dia(Fraction(1, 2), Top())
    # conjunction chains associate to the left
    assert parse_formula("(T & dia>=1 T & T)") == And(
        And(Top(), Dia(1, Top())), Top()
    )
    # dia binds tighter than an enclosing conjunction
    assert parse_formula("(dia>=1 T & T)") == And(Dia(1, Top()), Top())


def test_parse_rejects_malformed():
    for bad in ("", "T T", "T & T", "(T & T", "dia>=3/2 T", "dia>= T", "(T &)", "X"):
        with pytest.raises(ValueError):
            parse_formula(bad)
    with pytest.raises(ValueError):
        Dia(Fraction(3, 2), Top())
    with pytest.raises(ValueError):
        Dia(Fraction(-1, 2), Top())


def _parsed(parse, text):
    """The printed formula, or the exception type and message."""
    try:
        return repr(parse(text))
    except Exception as err:
        return type(err), str(err)


_FORMULA_PIECES = [
    "T", "(", ")", "&", "/", "dia>=", "dia", "0", "1", "2", "12", "3/2", "x", "é", "٣",
    " ", "\t", "\n", "\x1c", "\xa0", "\u2003",
]


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(_FORMULA_PIECES), max_size=12).map("".join))
@example("T T")  # trailing input after formula: 'T'
@example("X")  # unexpected character 'X' in formula
@example("(T")  # formula ends unexpectedly
@example("dia>=1")  # formula ends unexpectedly, where a subformula starts
@example("")  # formula ends unexpectedly
@example("(T &")  # formula ends unexpectedly
@example("(T T")  # expected ')', got 'T'
@example("dia>= T")  # expected a number, got 'T'
@example("dia>=1/ T")  # expected a denominator, got 'T'
@example("dia>=1/0 T")  # zero denominator in 1/0
@example("&")  # unexpected token '&'
@example("dia>=3/2 T")  # the Dia range error
def test_parse_formula_matches_the_reference_parser(text):
    assert _parsed(parse_formula, text) == _parsed(parse_formula_reference, text)


def test_parse_formula_reads_only_decimal_digits():
    # the one deliberate change: a character that isdigit() accepts but that
    # is no decimal digit is refused by the scanner, not by int()
    assert _parsed(parse_formula, "dia>=² T") == (
        ValueError, "unexpected character '²' in formula"
    )
    assert _parsed(parse_formula_reference, "dia>=² T")[0] is ValueError
    assert parse_formula("dia>=١/٢ T") == Dia(Fraction(1, 2), Top())


def test_parse_formula_nests_without_recursion():
    chain = "dia>=1/2 " * 30000 + "T"
    conjunctions = "(" * 20000 + "T" + " & T)" * 20000
    for text in (chain, conjunctions):
        assert repr(parse_formula(text)) == repr(parse_formula_reference(text))


def test_validity_examples():
    assert validity_set(M, parse_formula("dia>=1 T")).sorted_points() == ["a"]
    assert validity_set(M, parse_formula("dia>=1/2 dia>=1 T")).sorted_points() == ["a"]
    assert validity_set(M, parse_formula("T")).sorted_points() == ["a", "b"]
    conj = parse_formula("(dia>=1 T & dia>=1/4 T)")
    assert validity_set(M, conj).sorted_points() == ["a"]
    assert validity_set(M, parse_formula("dia>=0 T")).sorted_points() == ["a", "b"]


def test_validity_requires_endokernel():
    other = FiniteMeasurableSpace.discrete("xy")
    k = rand_kernel(random.Random(1), S, other, kind=SUB_MARKOV)
    with pytest.raises(SpaceMismatch):
        validity_set(k, Top())


def test_logical_equivalence_separates_by_mass():
    part = logical_equivalence(M)
    assert part.blocks == (("a",), ("b",))


def test_logical_equivalence_markov_degenerates():
    three = FiniteMeasurableSpace.discrete("abc")
    kd = kernel_from_matrix(three, three, [[1, 0, 0], [0, 1, 0], [0, 1, 0]])
    assert logical_equivalence(kd).blocks == (("a", "b", "c"),)


def test_logical_equivalence_label_seed():
    three = FiniteMeasurableSpace.discrete("abc")
    kd = kernel_from_matrix(three, three, [[1, 0, 0], [0, 1, 0], [0, 1, 0]])
    # seeding a and c together forces a split: a feeds its own class, c does not
    part = logical_equivalence(kd, labels={"a": "u", "b": "v", "c": "u"})
    assert part.blocks == (("a",), ("b",), ("c",))
    # a seed the kernel already respects is returned unrefined
    stable = logical_equivalence(kd, labels={"a": "u", "b": "u", "c": "v"})
    assert stable.blocks == (("a", "b"), ("c",))


def test_logical_equivalence_queues_every_piece_of_a_queued_block():
    # the splitter {c, d} cuts the still-queued label class {a, b, f} into
    # {a, b} and {f}; {a, b} is the larger piece but must still be queued,
    # since only it separates c (mass 1 into it) from d (mass 0)
    space = FiniteMeasurableSpace.discrete("abfcd")
    rows = [[0, 0, 0, 1, 0], [0, 0, 0, 1, 0], [0] * 5, [1, 0, 0, 0, 0], [0] * 5]
    kernel = kernel_from_matrix(space, space, rows)
    labels = {"a": "u", "b": "u", "f": "u", "c": "v", "d": "v"}
    part = logical_equivalence(kernel, labels=labels)
    assert part.blocks == (("a", "b"), ("f",), ("c",), ("d",))


def test_invariant_sigma_algebra_growth():
    assert invariant_sigma_algebra(M, 0).atoms == (("a", "b"),)
    assert invariant_sigma_algebra(M, 1).atoms == (("a",), ("b",))
    assert invariant_sigma_algebra(M, 5).atoms == (("a",), ("b",))
    with pytest.raises(ValueError):
        invariant_sigma_algebra(M, -1)


def shift_chain(n):
    """States s0 -> s1 -> ... -> s(n-1), the last with a zero row."""
    space = FiniteMeasurableSpace.discrete([f"s{i}" for i in range(n)])
    zero, one = Fraction(0), Fraction(1)
    rows = [
        Measure(space, [one if j == i + 1 else zero for j in range(n)])
        for i in range(n)
    ]
    return Kernel(space, space, rows)


def test_invariant_sigma_algebra_past_forty_atoms():
    # depth d separates the last d states from each other and the rest
    k = shift_chain(40)
    assert invariant_sigma_algebra(k, 3).atoms == (
        tuple(f"s{i}" for i in range(37)),
        ("s37",),
        ("s38",),
        ("s39",),
    )
    assert invariant_sigma_algebra(k, 40) == k.domain


def test_invariant_sigma_algebra_refuses_row_mass_above_one():
    three = FiniteMeasurableSpace.discrete("abc")
    k = kernel_from_matrix(three, three, [[0, 0, 2], [0, 0, 3], [0, 0, 0]])
    # dia>=1 T separates {a, b} from c, but no realized mass is exactly 1
    assert validity_set(k, parse_formula("dia>=1 T")).sorted_points() == ["a", "b"]
    with pytest.raises(ValueError):
        invariant_sigma_algebra(k, 1)
    # no formula tells a from b, yet their masses 2 and 3 split them
    assert logical_equivalence(k).blocks == (("a",), ("b",), ("c",))


def test_invariant_sigma_algebra_reads_row_masses_not_the_kind():
    light = Kernel(S, S, M.rows, FINITE)
    assert light.kind == FINITE
    assert invariant_sigma_algebra(light, 1).atoms == (("a",), ("b",))


@st.composite
def light_kernels(draw):
    """An endokernel on 1-5 atoms of 1-2 points whose rows take few
    distinct weights and have mass at most 1."""
    points, atoms = [], []
    for _ in range(draw(st.integers(1, 5))):
        atom = [f"p{len(points) + k}" for k in range(draw(st.integers(1, 2)))]
        points += atom
        atoms.append(atom)
    space = FiniteMeasurableSpace(points, atoms)
    weight = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2)])
    rows = []
    for _ in atoms:
        row = draw(st.lists(weight, min_size=len(atoms), max_size=len(atoms)))
        while sum(row) > 1:
            row[row.index(max(row))] = Fraction(0)
        rows.append(row)
    return kernel_from_matrix(space, space, rows)


@settings(max_examples=200, deadline=None)
@given(light_kernels())
def test_invariant_sigma_algebra_against_the_closure_oracle(k):
    for depth in range(len(k.domain.atoms) + 2):
        assert invariant_sigma_algebra(k, depth) == invariant_sigma_algebra_closure(
            k, depth
        )


def test_invariant_sigma_algebra_matches_equivalence():
    rng = random.Random(3)
    for _ in range(20):
        space = FiniteMeasurableSpace.discrete(rand_space(rng, 5).points)
        k = rand_kernel(rng, space, space, kind=SUB_MARKOV, den=4)
        blocks = logical_equivalence(k).blocks
        stable = invariant_sigma_algebra(k, len(space.points)).atoms
        assert set(stable) == set(blocks)


def test_factor_map():
    part = Partition(S, [("a", "b")])
    quotient, h = factor_map(part)
    assert quotient.points == ("a",)
    assert list(h.atom_mapping) == [0, 0]
    splitter = Partition(sigma_from_generator("ab", []), [("a",), ("b",)])
    with pytest.raises(ValueError):
        factor_map(splitter)


def test_quotient_kernel_example():
    part = logical_equivalence(M)
    q = quotient_kernel(M, part)
    assert q.rows[0].weights == (Fraction(1, 2), Fraction(1, 2))
    assert q.rows[1].weights == (Fraction(1, 4), Fraction(1, 4))
    assert q.kind == M.kind


def test_quotient_kernel_rejects_non_congruence():
    three = FiniteMeasurableSpace.discrete("abc")
    k = kernel_from_matrix(three, three, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    bad = Partition(three, [("a", "b"), ("c",)])
    with pytest.raises(NotACongruence) as err:
        quotient_kernel(k, bad)
    assert err.value.witness is not None


@pytest.mark.parametrize("side", ["both", "domain", "codomain"])
def test_quotient_kernel_names_the_first_split_atom(side):
    # atoms {a,b},{c}; the partition {a},{b,c} splits the first atom, so the
    # witness is that atom's first point and its first point in another block
    space = FiniteMeasurableSpace("abc", [("a", "b"), ("c",)])
    k = kernel_from_matrix(space, space, [[1, 0], [0, 1]])
    split = Partition(space, [("a",), ("b", "c")])
    whole = Partition(space, [("a", "b", "c")])
    dom = whole if side == "codomain" else split
    cod = whole if side == "domain" else split
    with pytest.raises(NotACongruence) as err:
        quotient_kernel_pair(k, dom, cod)
    assert err.value.witness == ("a", "b")


def test_quotient_kernel_pair_different_sides():
    rng = random.Random(5)
    dom = FiniteMeasurableSpace.discrete("abcd")
    cod = FiniteMeasurableSpace.discrete("xy")
    rows = [rand_probability(rng, cod) for _ in range(2)]
    k = Kernel(dom, cod, [rows[0], rows[0], rows[1], rows[1]])
    dom_part = Partition(dom, [("a", "b"), ("c", "d")])
    cod_part = Partition(cod, [("x",), ("y",)])
    q = quotient_kernel_pair(k, dom_part, cod_part)
    assert q.rows[0] == rows[0]
    assert q.rows[1] == rows[1]


def test_coupling_problem_validation():
    mu = Measure(S, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        CouplingProblem(mu, mu, [(0, 5)])
    problem = CouplingProblem.from_point_pairs(mu, mu, [("a", "b"), ("b", "a")])
    assert problem.support == frozenset({(0, 1), (1, 0)})


def test_solve_coupling_off_diagonal_unique():
    mu = Measure(S, [Fraction(1, 2), Fraction(1, 2)])
    problem = CouplingProblem.from_point_pairs(mu, mu, [("a", "b"), ("b", "a")])
    coupling = solve_coupling(problem)
    assert coupling.weights == (0, Fraction(1, 2), Fraction(1, 2), 0)


def test_solve_coupling_mass_mismatch():
    mu = Measure(S, [1, 0])
    nu = Measure(S, [1, 1])
    with pytest.raises(MassMismatch):
        solve_coupling(CouplingProblem(mu, nu, [(0, 0)]))


def test_solve_coupling_infeasible_certificate():
    mu = Measure(S, [Fraction(3, 4), Fraction(1, 4)])
    nu = Measure(S, [Fraction(1, 2), Fraction(1, 2)])
    cert = solve_coupling(CouplingProblem.from_point_pairs(
        mu, nu, [("a", "a"), ("b", "b")]
    ))
    assert isinstance(cert, Infeasible)
    assert cert.rows.sorted_points() == ["a"]
    assert cert.neighborhood.sorted_points() == ["a"]
    assert cert.deficit == Fraction(1, 4)


def test_solve_coupling_empty_support():
    zero = Measure.zero(S)
    coupling = solve_coupling(CouplingProblem(zero, zero, []))
    assert coupling.total() == 0
    mu = Measure(S, [1, 0])
    cert = solve_coupling(CouplingProblem(mu, mu, []))
    assert isinstance(cert, Infeasible)
    assert cert.deficit == 1


def test_solve_coupling_random_feasible():
    rng = random.Random(7)
    for _ in range(40):
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 3)
        left = FiniteMeasurableSpace.discrete([f"l{k}" for k in range(n1)])
        right = FiniteMeasurableSpace.discrete([f"r{k}" for k in range(n2)])
        cells = [
            (i, j, Fraction(rng.randint(0, 4), 4))
            for i in range(n1)
            for j in range(n2)
            if rng.random() < 0.6
        ]
        mu_w = [Fraction(0)] * n1
        nu_w = [Fraction(0)] * n2
        for i, j, w in cells:
            mu_w[i] += w
            nu_w[j] += w
        problem = CouplingProblem(
            Measure(left, mu_w), Measure(right, nu_w), [(i, j) for i, j, _ in cells]
        )
        coupling = solve_coupling(problem)
        assert isinstance(coupling, Measure)
        for i in range(n1):
            row = sum(
                (coupling.weights[i * n2 + j] for j in range(n2)), start=Fraction(0)
            )
            assert row == mu_w[i]
        for j in range(n2):
            col = sum(
                (coupling.weights[i * n2 + j] for i in range(n1)), start=Fraction(0)
            )
            assert col == nu_w[j]
        off = [
            (i, j)
            for i in range(n1)
            for j in range(n2)
            if (i, j) not in problem.support
        ]
        assert all(coupling.weights[i * n2 + j] == 0 for i, j in off)


@st.composite
def coupling_problems(draw):
    """Marginals of equal mass (zero, a sub-probability or one) on up to 6
    atoms a side, zero-mass atoms included, inside a support that is empty,
    full or of random density."""
    n1 = draw(st.integers(1, 6))
    n2 = draw(st.integers(1, 6))
    mass = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(3, 4), 1]))
    marginals = []
    for n, name in ((n1, "l"), (n2, "r")):
        raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if mass and not any(raw):
            raw[draw(st.integers(0, n - 1))] = 1
        weights = [mass * Fraction(x, sum(raw)) if mass else 0 for x in raw]
        space = FiniteMeasurableSpace.discrete([f"{name}{k}" for k in range(n)])
        marginals.append(Measure(space, weights))
    density = draw(st.integers(0, 4))
    support = [
        (i, j)
        for i in range(n1)
        for j in range(n2)
        if draw(st.integers(0, 3)) < density
    ]
    return CouplingProblem(*marginals, support)


@settings(max_examples=300, deadline=None)
@given(coupling_problems())
def test_solve_coupling_equals_the_network_built_by_hand(problem):
    # transport adds its arcs in the same order, so even the coupling,
    # which is not unique, is the same measure
    result = solve_coupling(problem)
    expected = solve_coupling_max_flow(problem)
    assert type(result) is type(expected)
    if isinstance(result, Infeasible):
        for name in ("rows", "neighborhood", "row_mass", "neighborhood_mass"):
            assert getattr(result, name) == getattr(expected, name)
    else:
        assert result.space == expected.space
        assert result.form == expected.form


@settings(max_examples=300, deadline=None)
@given(coupling_problems())
def test_solve_coupling_matches_the_transportation_lp(problem):
    mu = problem.left_marginal
    nu = problem.right_marginal
    n1 = len(mu.weights)
    n2 = len(nu.weights)
    result = solve_coupling(problem)
    expected = solve_coupling_lp(problem)
    assert isinstance(result, Infeasible) == isinstance(expected, Infeasible)
    if isinstance(result, Infeasible):
        # the residual source side is the same for every maximum flow
        assert result.rows == expected.rows
        assert result.neighborhood == expected.neighborhood
        assert result.row_mass == expected.row_mass
        assert result.neighborhood_mass == expected.neighborhood_mass
        return
    for i in range(n1):
        for j in range(n2):
            w = result.weights[i * n2 + j]
            assert w >= 0 and (w == 0 or (i, j) in problem.support)
    for i in range(n1):
        assert sum(result.weights[i * n2:(i + 1) * n2]) == mu.weights[i]
    for j in range(n2):
        assert sum(result.weights[j::n2]) == nu.weights[j]


def test_mediate_uniform_pair():
    ku = kernel_from_matrix(
        S, S, [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    )
    u = FiniteMeasurableSpace.discrete("z")
    kz = kernel_from_matrix(u, u, [[1]])
    p1 = logical_equivalence(ku)
    p2 = logical_equivalence(kz)
    iso = find_quotient_iso(quotient_kernel(ku, p1), quotient_kernel(kz, p2))
    assert iso is not None
    result = mediate(ku, kz, p1, p2, iso)
    assert result.kernel.kind == MARKOV
    assert result.common_events_trivial
    for i, row in enumerate(result.kernel.rows):
        assert pushforward(result.zeta1, row) == ku.rows[result.pi1.atom_mapping[i]]


def test_mediate_uniform_kernel_with_itself_is_the_product():
    # one class: every row is the independent product of two uniform rows
    half = Fraction(1, 2)
    ku = kernel_from_matrix(S, S, [[half, half], [half, half]])
    p = logical_equivalence(ku)
    iso = find_quotient_iso(quotient_kernel(ku, p), quotient_kernel(ku, p))
    result = mediate(ku, ku, p, p, iso)
    assert [list(row.weights) for row in result.kernel.rows] == [
        [Fraction(1, 4)] * 4
    ] * 4


def test_mediate_zero_mass_class_gives_zero_entries():
    three = FiniteMeasurableSpace.discrete("abc")
    q = Fraction(1, 4)
    k = kernel_from_matrix(
        three, three, [[Fraction(1, 2), 0, 0], [0, q, q], [0, q, q]]
    )
    assert k.kind == SUB_MARKOV
    p = Partition(three, [("a",), ("b", "c")])
    result = mediate(k, k, p, p, {"a": "a", "b": "b"})
    assert result.kernel.codomain.points == ("a|a", "b|b", "b|c", "c|b", "c|c")
    e = Fraction(1, 8)
    # row a|a has mass 0 on the class {b,c}, rows from {b,c} on the class {a}
    assert [list(row.weights) for row in result.kernel.rows] == [
        [Fraction(1, 2), 0, 0, 0, 0]
    ] + [[0, e, e, e, e]] * 4


@st.composite
def expansion_pairs(draw):
    """Two random expansions of one random sub-Markov quotient.

    The quotient has 2-4 domain and codomain classes, rows of mass at most
    one and at least one zero-mass class.  Each expansion gives every class
    1-3 atoms of 1-2 points, lays the classes out in a random order, and
    splits each quotient entry over the class's atoms at random, row by
    row.  Endo cases return one Partition and one iso dict per side; the
    others a (domain, codomain) partition pair and an iso pair.
    """
    endo = draw(st.booleans())
    nd = draw(st.integers(2, 4))
    nc = nd if endo else draw(st.integers(2, 4))
    entries = st.lists(st.integers(0, 4), min_size=nc, max_size=nc)
    quotient = [[Fraction(x, 16) for x in draw(entries)] for _ in range(nd)]
    quotient[draw(st.integers(0, nd - 1))][draw(st.integers(0, nc - 1))] = Fraction(0)

    def expand(prefix, n):
        """A space of n classes laid out in a random order: the space, its
        class partition, each class's atom indices and least point."""
        points, atoms, members = [], [], [[] for _ in range(n)]
        for c in draw(st.permutations(range(n))):
            for _ in range(draw(st.integers(1, 3))):
                size = draw(st.integers(1, 2))
                atom = [f"{prefix}{len(points) + k}" for k in range(size)]
                points += atom
                members[c].append(len(atoms))
                atoms.append(atom)
        space = FiniteMeasurableSpace(points, atoms)
        blocks = [[p for k in members[c] for p in atoms[k]] for c in range(n)]
        reps = [atoms[members[c][0]][0] for c in range(n)]
        return space, Partition(space, blocks), members, reps

    def split(mass, n):
        raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if not any(raw):
            raw[0] = 1
        return [mass * Fraction(x, sum(raw)) for x in raw]

    sides = []
    for prefix in ("u", "v"):
        dom = expand(prefix, nd)
        cod = dom if endo else expand(prefix + "y", nc)
        rows = [None] * len(dom[0].atoms)
        for b in range(nd):
            for i in dom[2][b]:
                rows[i] = [Fraction(0)] * len(cod[0].atoms)
                for c in range(nc):
                    parts = split(quotient[b][c], len(cod[2][c]))
                    for j, w in zip(cod[2][c], parts):
                        rows[i][j] = w
        sides.append((kernel_from_matrix(dom[0], cod[0], rows), dom, cod))
    (k1, d1, c1), (k2, d2, c2) = sides
    dom_iso = dict(zip(d1[3], d2[3]))
    cod_iso = dict(zip(c1[3], c2[3]))
    if endo:
        return k1, k2, d1[1], d2[1], dom_iso
    return k1, k2, (d1[1], c1[1]), (d2[1], c2[1]), (dom_iso, cod_iso)


@settings(max_examples=200, deadline=None)
@given(expansion_pairs())
def test_mediate_closed_form_against_the_flow_oracle(case):
    k1, k2, q1, q2, iso = case
    result = mediate(k1, k2, q1, q2, iso)
    expected = mediate_flow(k1, k2, q1, q2, iso)
    assert result.kernel.domain == expected.kernel.domain
    assert result.kernel.codomain == expected.kernel.codomain
    for name in ("pi1", "pi2", "zeta1", "zeta2"):
        got, want = getattr(result, name), getattr(expected, name)
        assert got.atom_mapping == want.atom_mapping
    assert result.common_events == expected.common_events
    c1 = q1[1] if isinstance(q1, tuple) else q1
    c2 = q2[1] if isinstance(q2, tuple) else q2
    z1, z2 = result.zeta1.atom_mapping, result.zeta2.atom_mapping
    # within a class pair with a singleton side the coupling is forced
    forced = [
        len(c1.block_atom_indices(c1.block_of_atom[j1])) == 1
        or len(c2.block_atom_indices(c2.block_of_atom[j2])) == 1
        for j1, j2 in zip(z1, z2)
    ]
    for a, (row, other) in enumerate(zip(result.kernel.rows, expected.kernel.rows)):
        assert all(w >= 0 for w in row.weights)
        for kernel, i, z in (
            (k1, result.pi1.atom_mapping[a], z1),
            (k2, result.pi2.atom_mapping[a], z2),
        ):
            sums = [Fraction(0)] * len(kernel.codomain.atoms)
            for j, w in zip(z, row.weights):
                sums[j] += w
            assert tuple(sums) == kernel.rows[i].weights
        for w, v, unique in zip(row.weights, other.weights, forced):
            assert not unique or w == v


@settings(max_examples=200, deadline=None)
@given(expansion_pairs())
def test_mediate_equals_the_dense_closed_form(case):
    """The rows built over nonzero entries only equal, row by row, the
    dense class-conditional products they replaced."""
    result = mediate(*case)
    expected = mediate_dense(*case)
    assert result.kernel.domain == expected.kernel.domain
    assert result.kernel.codomain == expected.kernel.codomain
    assert result.kernel.kind == expected.kernel.kind
    for row, other in zip(result.kernel.rows, expected.kernel.rows, strict=True):
        assert row == other
        assert row.weights == other.weights
    assert result.common_events == expected.common_events


@settings(max_examples=200, deadline=None)
@given(expansion_pairs())
def test_mediation_size_counts_the_built_kernel(case):
    k1, k2, q1, q2, iso = case
    q1d, q1c = q1 if isinstance(q1, tuple) else (q1, q1)
    q2d, q2c = q2 if isinstance(q2, tuple) else (q2, q2)
    dom_iso, cod_iso = iso if isinstance(iso, tuple) else (iso, iso)
    kernel = mediate(*case).kernel
    images = (_class_image(q1d, q2d, dom_iso), _class_image(q1c, q2c, cod_iso))
    assert _mediation_size(k1, k2, q1d, q1c, q2d, q2c, images) == (
        len(kernel.domain.points),
        len(kernel.codomain.points),
        sum(len(row.form[1]) for row in kernel.rows),
    )


def uniform_chain(n):
    space = FiniteMeasurableSpace.discrete([f"s{i}" for i in range(n)])
    return kernel_from_matrix(space, space, [[Fraction(1, n)] * n] * n)


def self_mediation(k):
    p = logical_equivalence(k)
    iso = find_quotient_iso(quotient_kernel(k, p), quotient_kernel(k, p))
    return mediate(k, k, p, p, iso)


def test_mediation_size_limit_is_inclusive():
    # one class: (n^2)^2 nonzeros, 2^20 at n = 32
    rows = self_mediation(uniform_chain(32)).kernel.rows
    assert sum(len(row.form[1]) for row in rows) == MAX_MEDIATION_SIZE
    started = time.perf_counter()
    with pytest.raises(CapacityExceeded, match="1185921 nonzeros"):
        self_mediation(uniform_chain(33))
    assert time.perf_counter() - started < 1


def test_mediate_a_long_shift_chain_with_itself():
    # 1,200 classes of one state: 1,200 pairs on each side
    result = self_mediation(shift_chain(1200))
    assert len(result.kernel.domain.points) == 1200
    assert sum(len(row.form[1]) for row in result.kernel.rows) == 1199


def test_mediate_reports_common_events():
    # two copies of the same two-block chain must share a nontrivial event
    k = kernel_from_matrix(
        S, S, [[1, 0], [0, Fraction(1, 2)]]
    )
    p = logical_equivalence(k)
    assert len(p.blocks) == 2
    iso = find_quotient_iso(quotient_kernel(k, p), quotient_kernel(k, p))
    result = mediate(k, k, p, p, iso)
    assert not result.common_events_trivial
    u1, u2 = result.common_events
    assert u1.sorted_points() == u2.sorted_points()


def test_mediate_rejects_non_bisimilar():
    k1 = kernel_from_matrix(S, S, [[1, 0], [0, Fraction(1, 2)]])
    k2 = kernel_from_matrix(S, S, [[1, 0], [0, Fraction(1, 3)]])
    p1 = logical_equivalence(k1)
    p2 = logical_equivalence(k2)
    assert find_quotient_iso(quotient_kernel(k1, p1), quotient_kernel(k2, p2)) is None
    iso = {"a": "a", "b": "b"}
    with pytest.raises(NotBisimilar):
        mediate(k1, k2, p1, p2, (iso, iso))


def test_mediate_rejects_malformed_iso():
    k = kernel_from_matrix(S, S, [[1, 0], [0, Fraction(1, 2)]])
    p = logical_equivalence(k)
    with pytest.raises(ValueError):
        mediate(k, k, p, p, ({"a": "a"}, {"a": "a"}))


def test_mediate_refuses_mismatched_partitions_and_isos():
    k = kernel_from_matrix(S, S, [[1, 0], [0, Fraction(1, 2)]])
    p = logical_equivalence(k)
    assert p == Partition(S, [("a",), ("b",)])
    xyz = FiniteMeasurableSpace.discrete("xyz")
    onto = kernel_from_matrix(S, xyz, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="a single partition fits only an endokernel"):
        mediate(onto, onto, p, p, {})
    with pytest.raises(ValueError, match="iso must biject onto the second quotient's blocks"):
        mediate(k, k, p, p, {"a": "a", "b": "a"})
    z = FiniteMeasurableSpace.discrete("z")
    kz = kernel_from_matrix(z, z, [[1]])
    with pytest.raises(NotBisimilar, match="quotient block counts differ"):
        mediate(k, kz, p, logical_equivalence(kz), {"a": "z"})


def test_quotient_kernel_pair_refuses_a_partition_on_another_space():
    k = kernel_from_matrix(S, S, [[1, 0], [0, Fraction(1, 2)]])
    p = logical_equivalence(k)
    other = Partition(FiniteMeasurableSpace.discrete("xyz"), [("x", "y", "z")])
    with pytest.raises(SpaceMismatch, match="^domain partition lives on a different space"):
        quotient_kernel_pair(k, other, p)
    with pytest.raises(SpaceMismatch, match="codomain partition lives on a different space"):
        quotient_kernel_pair(k, p, other)


def test_mediate_wraps_non_congruence():
    three = FiniteMeasurableSpace.discrete("abc")
    k = kernel_from_matrix(three, three, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    bad = Partition(three, [("a", "b"), ("c",)])
    good = logical_equivalence(k)
    with pytest.raises(NotBisimilar):
        mediate(k, k, bad, good, None)


def test_find_quotient_iso_size_mismatch():
    u = FiniteMeasurableSpace.discrete("z")
    kz = kernel_from_matrix(u, u, [[1]])
    k = kernel_from_matrix(S, S, [[1, 0], [0, Fraction(1, 2)]])
    assert find_quotient_iso(k, kz) is None


@st.composite
def quotient_pairs(draw):
    """Two quotient kernels of up to 5 x 5 blocks with weights 0, 1/2, 1.

    The second is a block-permuted copy of the first, such a copy with one
    entry changed, or drawn afresh.  Endo pairs permute both sides alike;
    in the others the first kernel may still be endo when it is square.
    """
    endo = draw(st.booleans())
    nd = draw(st.integers(1, 5))
    nc = nd if endo else draw(st.integers(1, 5))
    weights = [Fraction(0), Fraction(1, 2), Fraction(1)]
    matrix = st.lists(
        st.lists(st.sampled_from(weights), min_size=nc, max_size=nc),
        min_size=nd,
        max_size=nd,
    )
    w1 = draw(matrix)
    how = draw(st.sampled_from(["copy", "changed", "fresh"]))
    if how == "fresh":
        w2 = draw(matrix)
    else:
        dom_perm = draw(st.permutations(range(nd)))
        cod_perm = dom_perm if endo else draw(st.permutations(range(nc)))
        w2 = [[None] * nc for _ in range(nd)]
        for i in range(nd):
            for c in range(nc):
                w2[dom_perm[i]][cod_perm[c]] = w1[i][c]
        if how == "changed":
            i, c = draw(st.integers(0, nd - 1)), draw(st.integers(0, nc - 1))
            w2[i][c] = draw(st.sampled_from([w for w in weights if w != w2[i][c]]))
    d1 = FiniteMeasurableSpace.discrete([f"x{i}" for i in range(nd)])
    d2 = FiniteMeasurableSpace.discrete([f"u{i}" for i in range(nd)])
    if endo:
        c1, c2 = d1, d2
    else:
        square = nd == nc and draw(st.booleans())
        c1 = d1 if square else FiniteMeasurableSpace.discrete(
            [f"y{c}" for c in range(nc)]
        )
        c2 = FiniteMeasurableSpace.discrete([f"v{c}" for c in range(nc)])
    k1 = kernel_from_matrix(d1, c1, w1)
    k2 = kernel_from_matrix(d2, c2, w2)
    return k1, k2, how == "copy"


def is_minimal(k):
    return len(logical_equivalence(k).blocks) == len(k.domain.atoms)


@settings(max_examples=300, deadline=None)
@given(quotient_pairs())
def test_find_quotient_iso_takes_only_minimal_endo_quotients(case):
    # a side with two bisimilar blocks raises ValueError, a non-endo side
    # SpaceMismatch; pairs of minimal sides match the search oracle
    k1, k2, _ = case
    if not (k1.is_endo() and k2.is_endo()):
        with pytest.raises(SpaceMismatch):
            find_quotient_iso(k1, k2)
    elif all(is_minimal(k) for k in (k1, k2)):
        assert find_quotient_iso(k1, k2) == find_quotient_iso_search(k1, k2)
    else:
        with pytest.raises(ValueError, match="quotient is not minimal"):
            find_quotient_iso(k1, k2)


@st.composite
def logical_quotient_pairs(draw, max_states=8):
    """The logical quotient of a random kernel on up to max_states states
    with weights 0, 1/4, 1/2 and 1, and that of a copy with its states
    renamed and listed in a random order, or of such a copy with one entry
    changed.  Both are minimal endokernels of any row masses."""
    n = draw(st.integers(1, max_states))
    weights = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    row = st.lists(st.sampled_from(weights), min_size=n, max_size=n)
    w1 = draw(st.lists(row, min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    w2 = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w2[perm[i]][perm[j]] = w1[i][j]
    changed = draw(st.booleans())
    if changed:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        w2[i][j] = draw(st.sampled_from([w for w in weights if w != w2[i][j]]))
    quotients = []
    for prefix, w in (("x", w1), ("u", w2)):
        space = FiniteMeasurableSpace.discrete([f"{prefix}{i}" for i in range(n)])
        k = kernel_from_matrix(space, space, w)
        quotients.append(quotient_kernel(k, logical_equivalence(k)))
    return quotients[0], quotients[1], not changed


@settings(max_examples=300, deadline=None)
@given(logical_quotient_pairs())
def test_find_quotient_iso_against_the_search_oracle(case):
    q1, q2, copy = case
    found = find_quotient_iso(q1, q2)
    assert found == find_quotient_iso_search(q1, q2)
    if copy:
        assert found is not None
    if found is not None:
        dom_iso, cod_iso = found
        assert dom_iso == cod_iso
        assert list(dom_iso) == list(q1.domain.points)
        assert sorted(dom_iso.values()) == sorted(q2.domain.points)
        for x, row in zip(q1.domain.points, q1.rows):
            other = q2.row_at_point(dom_iso[x])
            for y, w in zip(q1.codomain.points, row.weights):
                assert w == other.weights[q2.codomain.atom_index_of_point(cod_iso[y])]


@settings(max_examples=100, deadline=None)
@given(logical_quotient_pairs(max_states=20))
def test_find_quotient_iso_against_the_backtracking_oracle(case):
    q1, q2, copy = case
    found = find_quotient_iso(q1, q2)
    assert found == find_quotient_iso_backtracking(q1, q2)
    assert found is not None or not copy


def permuted_chains(m):
    """Two kernels on the states s{stage}c{chain} of m dead-end chains
    s0 -> s1 -> s2 of weight 1, chain c ending in a self-loop of weight
    1/(c + 2) in the first and 1/(m + 1 - c) in the second, which lists the
    chains in reverse.  The states go stage by stage, so a search that
    assigns them in that order meets each chain's loop only at its end."""
    space = FiniteMeasurableSpace.discrete(
        [f"s{s}c{c}" for s in range(3) for c in range(m)]
    )
    kernels = []
    for loop in (lambda c: c + 2, lambda c: m + 1 - c):
        rows = [Measure.from_ints(space, 1, [k + m], [1]) for k in range(2 * m)]
        rows += [Measure.from_ints(space, loop(c), [2 * m + c], [1]) for c in range(m)]
        kernels.append(Kernel(space, space, rows))
    return kernels


def reversed_chains(m):
    return {f"s{s}c{c}": f"s{s}c{m - 1 - c}" for s in range(3) for c in range(m)}


@pytest.mark.parametrize("m, limit", [(7, 0.1), (300, 1)])
def test_find_quotient_iso_on_permuted_chains(m, limit):
    # 3m blocks whose only iso reverses the chains; the backtracking
    # search took 13 s at m = 7 on a 2-vCPU VM
    q1, q2 = (quotient_kernel(k, logical_equivalence(k)) for k in permuted_chains(m))
    assert len(q1.domain.atoms) == 3 * m
    started = time.perf_counter()
    found = find_quotient_iso(q1, q2)
    assert time.perf_counter() - started < limit
    assert found == (reversed_chains(m), reversed_chains(m))
    assert list(found[0]) == list(q1.domain.points)


def test_bisim_mediate_on_permuted_chains(capsys, tmp_path):
    kernels = dict(zip("KL", permuted_chains(7)))
    points = kernels["K"].domain.points
    doc = {
        "spaces": {"S": {"points": list(points)}},
        "kernels": {
            name: {
                "domain": "S",
                "codomain": "S",
                "rows": {
                    x: {points[j]: f"{num}/{d}" for j, num in zip(cols, nums)}
                    for x, (d, cols, nums) in zip(points, (r.form for r in k.rows))
                },
            }
            for name, k in kernels.items()
        },
    }
    path = tmp_path / "chains.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    started = time.perf_counter()
    argv = ["bisim", "mediate", "-m", str(path), "--left", "K", "--right", "L"]
    code = main([*argv, "--json"])
    assert time.perf_counter() - started < 1
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    report = json.loads(out.out)
    assert report["iso"] == dict(sorted(reversed_chains(7).items()))
    assert len(report["a_atoms"]) == 21


def test_find_quotient_iso_checks_only_the_shared_nonzeros():
    # the 4,000-block quotient of the shift chain: checking every assigned
    # position for each candidate took about 2.8 s
    space = FiniteMeasurableSpace.discrete([f"s{i}" for i in range(4000)])
    rows = [Measure.from_ints(space, 1, [i + 1], [1]) for i in range(3999)]
    k = Kernel(space, space, rows + [Measure.zero(space)])
    quotient = quotient_kernel(k, logical_equivalence(k))
    started = time.perf_counter()
    dom_iso, cod_iso = find_quotient_iso(quotient, quotient)
    assert time.perf_counter() - started < 2
    assert dom_iso == cod_iso == {x: x for x in quotient.domain.points}


def test_find_quotient_iso_deeper_than_the_recursion_limit():
    # at least the 1,200-block quotient of the shift chain, whose only iso
    # is the identity
    k = shift_chain(max(1200, sys.getrecursionlimit() + 100))
    quotient = quotient_kernel(k, logical_equivalence(k))
    assert len(quotient.domain.atoms) > sys.getrecursionlimit()
    dom_iso, cod_iso = find_quotient_iso(quotient, quotient)
    assert dom_iso == cod_iso == {x: x for x in quotient.domain.points}
