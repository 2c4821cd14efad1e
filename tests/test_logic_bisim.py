import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmeas.errors import (
    CapacityExceeded,
    MassMismatch,
    NotACongruence,
    NotBisimilar,
    SpaceMismatch,
)
from finmeas.kernels import MARKOV, SUB_MARKOV, Kernel, pushforward
from finmeas.logic_bisim import (
    And,
    CouplingProblem,
    Dia,
    Infeasible,
    Top,
    factor_map,
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

from conftest import rand_kernel, rand_probability, rand_space
from oracles import solve_coupling_lp

S = FiniteMeasurableSpace.discrete("ab")
M = Kernel.from_matrix(
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
    kd = Kernel.from_matrix(three, three, [[1, 0, 0], [0, 1, 0], [0, 1, 0]])
    assert logical_equivalence(kd).blocks == (("a", "b", "c"),)


def test_logical_equivalence_label_seed():
    three = FiniteMeasurableSpace.discrete("abc")
    kd = Kernel.from_matrix(three, three, [[1, 0, 0], [0, 1, 0], [0, 1, 0]])
    # seeding a and c together forces a split: a feeds its own class, c does not
    part = logical_equivalence(kd, labels={"a": "u", "b": "v", "c": "u"})
    assert part.blocks == (("a",), ("b",), ("c",))
    # a seed the kernel already respects is returned unrefined
    stable = logical_equivalence(kd, labels={"a": "u", "b": "u", "c": "v"})
    assert stable.blocks == (("a", "b"), ("c",))


def test_invariant_sigma_algebra_growth():
    assert invariant_sigma_algebra(M, 0).atoms == (("a", "b"),)
    assert invariant_sigma_algebra(M, 1).atoms == (("a",), ("b",))
    assert invariant_sigma_algebra(M, 5).atoms == (("a",), ("b",))
    with pytest.raises(ValueError):
        invariant_sigma_algebra(M, -1)


def test_invariant_sigma_algebra_cap(monkeypatch):
    monkeypatch.setenv("FINMEAS_ATOM_CAP", "1")
    with pytest.raises(CapacityExceeded):
        invariant_sigma_algebra(M, 1)


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
    k = Kernel.from_matrix(three, three, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    bad = Partition(three, [("a", "b"), ("c",)])
    with pytest.raises(NotACongruence) as err:
        quotient_kernel(k, bad)
    assert err.value.witness is not None


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
    ku = Kernel.from_matrix(
        S, S, [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    )
    u = FiniteMeasurableSpace.discrete("z")
    kz = Kernel.from_matrix(u, u, [[1]])
    p1 = logical_equivalence(ku)
    p2 = logical_equivalence(kz)
    iso = find_quotient_iso(quotient_kernel(ku, p1), quotient_kernel(kz, p2))
    assert iso is not None
    result = mediate(ku, kz, p1, p2, iso)
    assert result.kernel.kind == MARKOV
    assert result.common_events_trivial
    for i, row in enumerate(result.kernel.rows):
        assert pushforward(result.zeta1, row) == ku.rows[
            ku.domain.atom_index_of_point(
                result.kernel.domain.atoms[i][0].split("|")[0]
            )
        ]


def test_mediate_reports_common_events():
    # two copies of the same two-block chain must share a nontrivial event
    k = Kernel.from_matrix(
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
    k1 = Kernel.from_matrix(S, S, [[1, 0], [0, Fraction(1, 2)]])
    k2 = Kernel.from_matrix(S, S, [[1, 0], [0, Fraction(1, 3)]])
    p1 = logical_equivalence(k1)
    p2 = logical_equivalence(k2)
    assert find_quotient_iso(quotient_kernel(k1, p1), quotient_kernel(k2, p2)) is None
    iso = {"a": "a", "b": "b"}
    with pytest.raises(NotBisimilar):
        mediate(k1, k2, p1, p2, (iso, iso))


def test_mediate_rejects_malformed_iso():
    k = Kernel.from_matrix(S, S, [[1, 0], [0, Fraction(1, 2)]])
    p = logical_equivalence(k)
    with pytest.raises(ValueError):
        mediate(k, k, p, p, ({"a": "a"}, {"a": "a"}))


def test_mediate_wraps_non_congruence():
    three = FiniteMeasurableSpace.discrete("abc")
    k = Kernel.from_matrix(three, three, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    bad = Partition(three, [("a", "b"), ("c",)])
    good = logical_equivalence(k)
    with pytest.raises(NotBisimilar):
        mediate(k, k, bad, good, None)


def test_find_quotient_iso_size_mismatch():
    u = FiniteMeasurableSpace.discrete("z")
    kz = Kernel.from_matrix(u, u, [[1]])
    k = Kernel.from_matrix(S, S, [[1, 0], [0, Fraction(1, 2)]])
    assert find_quotient_iso(k, kz) is None
