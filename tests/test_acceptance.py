"""End-to-end acceptance checks, one criterion per test.

Every test prints exactly one [Cnn] PASS/FAIL line straight to the
terminal (bypassing capture) so the run log doubles as a checklist.
Random cases use fixed seeds; where an independent route exists the
expected values come from a from-scratch oracle in this file or in
conftest (subset closure, rational Gauss elimination, vertex
enumeration, bisection on the feasibility predicate, depth-bounded set
closure, integer max flow).  Tolerances are pinned where a value is
inherently float; everything else is compared exactly.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import networkx as nx
import pytest

from finmeas.errors import AbsoluteContinuityViolated, GeneratorNotPiSystem
from finmeas.integrate import (
    INF,
    StepFunction,
    check_hoelder,
    check_minkowski,
    integral,
    lp_norm_squared,
)
from finmeas.kernels import (
    MARKOV,
    SUB_MARKOV,
    Kernel,
    convolve,
    disintegrate,
    fubini,
    identity_kernel,
    kleisli_lift,
    measure_kernel_product,
    path_marginal,
    path_measure,
    pushforward,
)
from finmeas.logic_bisim import (
    CouplingProblem,
    Infeasible,
    find_quotient_iso,
    logical_equivalence,
    mediate,
    quotient_kernel,
    solve_coupling,
)
from finmeas.measures import (
    LinearFunctional,
    Measure,
    absolutely_continuous,
    integration_functional,
    jordan_decompose,
    lebesgue_decompose,
    measure_from_functional,
    mutually_singular,
    radon_nikodym,
)
from finmeas.metrics import (
    LipschitzWitness,
    check_weak_limit,
    hutchinson_distance,
    prohorov_distance,
    prohorov_feasible,
)
from finmeas.spaces import (
    FiniteMeasurableSpace,
    MeasurableSet,
    Partition,
    check_pi_system_uniqueness,
    product_space,
    sigma_from_generator,
)

from conftest import (
    atoms_of_family,
    gauss_nullspace,
    gauss_solve,
    rand_generator_sets,
    rand_kernel,
    rand_measure,
    rand_metric,
    rand_probability,
    rand_signed_measure,
    rand_space,
    sigma_closure_bruteforce,
)
from oracles import factor_map, find_quotient_iso_search


_CAPTURE = None


@pytest.fixture(autouse=True)
def _criterion_terminal(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


class criterion:
    """Prints one [Cnn] label: PASS/FAIL line on the real terminal."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        line = f"[C{self.number:02d}] {self.label}: {status}\n"
        if _CAPTURE is not None:
            with _CAPTURE.disabled():
                sys.stdout.write(line)
                sys.stdout.flush()
        else:
            sys.stdout.write(line)
        return False


def test_c01_sigma_algebra_generation_matches_closure():
    rng = random.Random(101)
    start = time.perf_counter()
    with criterion(1, "sigma-algebra generation matches subset closure, 200 spaces"):
        for _ in range(200):
            points = tuple(f"p{k}" for k in range(rng.randint(1, 10)))
            family = rand_generator_sets(rng, points, max_sets=3)
            space = sigma_from_generator(points, family)
            closure = sigma_closure_bruteforce(points, family)
            assert {s.members for s in space.measurable_sets()} == closure
            assert {frozenset(a) for a in space.atoms} == atoms_of_family(
                points, closure
            )
        assert time.perf_counter() - start < 5.0


def _pi_closure(family):
    sets = {frozenset(s) for s in family}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(sets), 2):
            inter = a & b
            if inter and inter not in sets:
                sets.add(inter)
                changed = True
    return sets


def test_c02_pi_system_uniqueness():
    rng = random.Random(102)
    saw_forced_equality = saw_open_family = 0
    with criterion(2, "agreement on a generating pi-system forces equality, 200 instances"):
        for _ in range(200):
            points = tuple(f"p{k}" for k in range(rng.randint(2, 6)))
            family = [
                frozenset(p for p in points if rng.random() < 0.5)
                for _ in range(rng.randint(2, 3))
            ]
            family = [s for s in family if s]
            if not family:
                continue
            space = sigma_from_generator(points, family)
            closed = _pi_closure(family)
            gen_sets = [MeasurableSet(space, s) for s in closed]
            full = space.full_set()
            if full not in gen_sets:
                gen_sets.append(full)
            rows = [
                [Fraction(int(bool(set(atom) & s.members))) for atom in space.atoms]
                for s in gen_sets
            ]
            # oracle: a generating pi-system plus the full set pins every
            # atom weight, i.e. the indicator rows have a zero null space
            assert gauss_nullspace(rows) == []
            mu = rand_measure(rng, space)
            recovered = gauss_solve(rows, [mu.eval(s) for s in gen_sets])
            assert recovered == list(mu.weights)
            ok, witness = check_pi_system_uniqueness(space, mu, mu, gen_sets)
            assert ok and witness is None
            saw_forced_equality += 1

            # dropping the intersections reopens the gap: two measures can
            # agree on the raw family yet differ on a measurable set
            open_rows = [
                [Fraction(int(bool(set(atom) & s))) for atom in space.atoms]
                for s in family
            ] + [[Fraction(1)] * len(space.atoms)]
            basis = gauss_nullspace(open_rows)
            if basis:
                v = basis[0]
                scale = min(
                    (mu.weights[k] / -v[k] for k in range(len(v)) if v[k] < 0),
                    default=Fraction(1),
                )
                if scale > 0:
                    nu = Measure(
                        space,
                        [w + scale * vk for w, vk in zip(mu.weights, v)],
                    )
                    assert all(
                        mu.eval(MeasurableSet(space, s)) == nu.eval(MeasurableSet(space, s))
                        for s in family
                    )
                    assert any(
                        mu.eval(s) != nu.eval(s) for s in space.measurable_sets()
                    )
                    try:
                        check_pi_system_uniqueness(
                            space,
                            mu,
                            nu,
                            [MeasurableSet(space, s) for s in family] + [full],
                        )
                        raised = False
                    except GeneratorNotPiSystem:
                        raised = True
                    closed_already = all(
                        (a & b) in set(family) | {frozenset()}
                        for a, b in itertools.combinations(family, 2)
                    )
                    assert raised or closed_already
                    saw_open_family += 1
        assert saw_forced_equality >= 150
        assert saw_open_family >= 20


def test_c03_radon_nikodym_round_trip():
    rng = random.Random(103)
    start = time.perf_counter()
    violations = 0
    with criterion(3, "Radon-Nikodym density round trips exactly, 500 pairs"):
        for case in range(500):
            space = rand_space(rng, 8)
            nu = rand_measure(rng, space)
            if case % 10 == 0:
                k = rng.randrange(len(space.atoms))
                null_at_k = Measure(
                    space,
                    [
                        Fraction(0) if i == k else w + 1
                        for i, w in enumerate(nu.weights)
                    ],
                )
                bad = Measure(
                    space,
                    [Fraction(int(i == k)) for i in range(len(space.atoms))],
                )
                try:
                    radon_nikodym(bad, null_at_k)
                except AbsoluteContinuityViolated as err:
                    assert err.witness_atom == space.atoms[k]
                    violations += 1
                continue
            h = StepFunction(
                space,
                [
                    Fraction(rng.randint(0, 9), rng.randint(1, 4)) if w else Fraction(0)
                    for w in nu.weights
                ],
            )
            mu = Measure(space, [v * w for v, w in zip(h.values, nu.weights)])
            density = radon_nikodym(mu, nu)
            for s in space.measurable_sets():
                assert integral(density * StepFunction.indicator(s), nu) == mu.eval(s)
        assert violations == 50
        assert time.perf_counter() - start < 5.0


def test_c04_jordan_and_lebesgue_decompositions():
    rng = random.Random(104)
    with criterion(4, "Jordan and Lebesgue decompositions verify, 500 instances"):
        for _ in range(500):
            space = rand_space(rng, 6)
            sigma = rand_signed_measure(rng, space)
            plus, minus, variation = jordan_decompose(sigma)
            assert all(p * m == 0 for p, m in zip(plus.weights, minus.weights))
            for s in space.measurable_sets():
                assert sigma.eval(s) == plus.eval(s) - minus.eval(s)
                assert variation.eval(s) == plus.eval(s) + minus.eval(s)
            assert mutually_singular(plus, minus)[0]

            mu = rand_measure(rng, space)
            nu = rand_measure(rng, space)
            part_ac, part_sing, density = lebesgue_decompose(mu, nu)
            assert part_ac.add(part_sing).weights == mu.weights
            assert absolutely_continuous(part_ac, nu)
            assert mutually_singular(part_sing, nu)[0]
            assert radon_nikodym(part_ac, nu).values == density.values


def test_c05_fubini():
    rng = random.Random(105)
    with criterion(5, "product integrals equal both iterated orders, 300 triples"):
        for _ in range(300):
            left = rand_space(rng, 5)
            right = rand_space(rng, 5)
            prod = product_space(left, right)
            f = StepFunction(
                prod,
                [
                    Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                    for _ in prod.atoms
                ],
            )
            mu = rand_measure(rng, left)
            nu = rand_measure(rng, right)
            direct, xy, yx = fubini(f, mu, nu)
            assert direct == xy == yx


def test_c06_kleisli_category_laws():
    rng = random.Random(106)
    with criterion(6, "kernel composition is associative and functorial, 200 triples"):
        for _ in range(200):
            spaces = [rand_space(rng, 4) for _ in range(4)]
            kind = rng.choice([MARKOV, SUB_MARKOV, None])
            k1 = rand_kernel(rng, spaces[0], spaces[1], kind=kind or "finite")
            k2 = rand_kernel(rng, spaces[1], spaces[2], kind=kind or "finite")
            k3 = rand_kernel(rng, spaces[2], spaces[3], kind=kind or "finite")
            assert convolve(k3, convolve(k2, k1)) == convolve(convolve(k3, k2), k1)
            assert convolve(k1, identity_kernel(spaces[0])) == k1
            assert convolve(identity_kernel(spaces[1]), k1) == k1
            mu = rand_measure(rng, spaces[0])
            assert kleisli_lift(identity_kernel(spaces[0]), mu) == mu
            assert kleisli_lift(convolve(k2, k1), mu) == kleisli_lift(
                k2, kleisli_lift(k1, mu)
            )


def test_c07_path_projectivity():
    rng = random.Random(107)
    with criterion(7, "path measures are projective for horizons up to 3, 100 kernels"):
        for case in range(100):
            s_space = FiniteMeasurableSpace.discrete("ab")
            t_points = "t" if case % 2 else "uv"
            t_space = FiniteMeasurableSpace.discrete(t_points)
            step = product_space(t_space, s_space)
            kernel = rand_kernel(rng, s_space, step, kind=MARKOV)
            start = rng.choice(s_space.points)
            for horizon in (1, 2, 3):
                longer = path_measure(kernel, start, horizon + 1)
                shorter = path_measure(kernel, start, horizon)
                assert path_marginal(longer) == shorter
                assert shorter.total() == 1


def test_c08_disintegration():
    rng = random.Random(108)
    null_seen = 0
    with criterion(8, "disintegration reconstructs the joint, 300 instances"):
        for case in range(300):
            left = rand_space(rng, 6)
            right = rand_space(rng, 6)
            prod = product_space(left, right)
            joint = rand_probability(rng, prod)
            if case % 3 == 0 and len(left.atoms) > 1:
                nr = len(right.atoms)
                weights = list(joint.weights)
                dead = rng.randrange(len(left.atoms))
                for j in range(nr):
                    weights[dead * nr + j] = Fraction(0)
                joint = Measure(prod, weights)
            marginal, kernel, null_fibers = disintegrate(joint)
            assert measure_kernel_product(marginal, kernel) == joint
            nr = len(right.atoms)
            expect_null = tuple(
                left.atoms[i]
                for i in range(len(left.atoms))
                if sum(joint.weights[i * nr : (i + 1) * nr], start=Fraction(0)) == 0
            )
            assert null_fibers == expect_null
            assert kernel.kind == (MARKOV if not null_fibers else SUB_MARKOV)
            null_seen += bool(null_fibers)
        assert null_seen >= 50


def test_c09_prohorov_axioms_isometry_and_float_oracle():
    rng = random.Random(109)
    with criterion(9, "Prohorov metric: axioms, Dirac isometry, bisection oracle"):
        for _ in range(200):
            metric = rand_metric(rng, rng.randint(1, 6), normalized=rng.random() < 0.5)
            mu = rand_probability(rng, metric.space)
            nu = rand_probability(rng, metric.space)
            lam = rand_probability(rng, metric.space)
            d_mn = prohorov_distance(mu, nu, metric)
            assert prohorov_distance(mu, mu, metric) == 0
            assert d_mn == prohorov_distance(nu, mu, metric)
            assert prohorov_distance(mu, lam, metric) <= d_mn + prohorov_distance(
                nu, lam, metric
            )
            if mu.weights != nu.weights:
                assert d_mn > 0

        for _ in range(50):
            metric = rand_metric(rng, rng.randint(2, 6), normalized=True)
            pts = metric.space.points
            for i, j in itertools.combinations(range(len(pts)), 2):
                left = Measure.dirac(metric.space, pts[i])
                right = Measure.dirac(metric.space, pts[j])
                assert prohorov_distance(left, right, metric) == metric.d(i, j)

        # independent route: bisect the definitional feasibility predicate
        for _ in range(50):
            metric = rand_metric(rng, rng.randint(2, 6), normalized=True)
            mu = rand_probability(rng, metric.space)
            nu = rand_probability(rng, metric.space)
            exact = prohorov_distance(mu, nu, metric)
            lo, hi = Fraction(0), Fraction(2)
            for _ in range(32):
                mid = (lo + hi) / 2
                if prohorov_feasible(mu, nu, metric, mid):
                    hi = mid
                else:
                    lo = mid
            assert abs(float(exact) - float(hi)) < 1e-6


def _hutchinson_vertex_oracle(mu, nu, metric, gamma):
    """Maximize the pairing over all vertices of the Lipschitz box."""
    n = len(metric.space.atoms)
    rows = []
    rhs = []
    for i in range(n):
        for sign in (1, -1):
            row = [Fraction(0)] * n
            row[i] = Fraction(sign)
            rows.append(row)
            rhs.append(Fraction(gamma))
    for i, j in itertools.combinations(range(n), 2):
        for sign in (1, -1):
            row = [Fraction(0)] * n
            row[i] = Fraction(sign)
            row[j] = Fraction(-sign)
            rows.append(row)
            rhs.append(metric.d(i, j))
    best = None
    diff = [m - v for m, v in zip(mu.weights, nu.weights)]
    for active in itertools.combinations(range(len(rows)), n):
        square = [rows[k] for k in active]
        target = [rhs[k] for k in active]
        x = gauss_solve(square, target)
        if x is None:
            continue
        if any(
            sum((r * v for r, v in zip(row, x)), start=Fraction(0)) > b
            for row, b in zip(rows, rhs)
        ):
            continue
        value = sum((d * v for d, v in zip(diff, x)), start=Fraction(0))
        if best is None or value > best:
            best = value
    return best


def test_c10_hutchinson_oracle_axioms_and_witness():
    rng = random.Random(110)
    with criterion(10, "Hutchinson metric: vertex oracle, Dirac formula, axioms, witness"):
        for _ in range(100):
            metric = rand_metric(rng, rng.randint(2, 3), normalized=False)
            mu = rand_probability(rng, metric.space)
            nu = rand_probability(rng, metric.space)
            gamma = Fraction(rng.randint(1, 8), 4)
            value, witness = hutchinson_distance(mu, nu, metric, gamma)
            assert value == _hutchinson_vertex_oracle(mu, nu, metric, gamma)
            assert witness.objective(mu, nu) == value
            LipschitzWitness(metric, witness.values, gamma)

        for _ in range(100):
            metric = rand_metric(rng, 2, normalized=False)
            gamma = Fraction(rng.randint(1, 12), 4)
            left = Measure.dirac(metric.space, metric.space.points[0])
            right = Measure.dirac(metric.space, metric.space.points[1])
            value, _ = hutchinson_distance(left, right, metric, gamma)
            assert value == min(metric.d(0, 1), 2 * gamma)

        for _ in range(200):
            metric = rand_metric(rng, rng.randint(1, 4), normalized=False)
            gamma = Fraction(rng.randint(1, 8), 4)
            mu = rand_probability(rng, metric.space)
            nu = rand_probability(rng, metric.space)
            lam = rand_probability(rng, metric.space)
            d_mn, _ = hutchinson_distance(mu, nu, metric, gamma)
            d_nm, _ = hutchinson_distance(nu, mu, metric, gamma)
            d_ml, _ = hutchinson_distance(mu, lam, metric, gamma)
            d_nl, _ = hutchinson_distance(nu, lam, metric, gamma)
            assert d_mn == d_nm
            assert d_ml <= d_mn + d_nl
            assert hutchinson_distance(mu, mu, metric, gamma)[0] == 0


def test_c11_weak_convergence_sequences():
    rng = random.Random(111)
    with criterion(11, "constructed weak limits converge in both metrics, 50 sequences"):
        for _ in range(50):
            metric = rand_metric(rng, rng.randint(2, 5), normalized=True)
            space = metric.space
            limit = rand_probability(rng, space)
            positive = [k for k, w in enumerate(limit.weights) if w > 0]
            if len(positive) < 2:
                limit = Measure(
                    space,
                    [Fraction(1, len(space.atoms))] * len(space.atoms),
                )
                positive = list(range(len(space.atoms)))
            i, j = rng.sample(positive, 2)
            scale = min(limit.weights[i], limit.weights[j], Fraction(1, 2))
            seq = []
            for k in range(1, 18):
                eps = Fraction(scale, 4**k)
                weights = list(limit.weights)
                weights[i] += eps
                weights[j] -= eps
                seq.append(Measure(space, weights))
            final = seq[-1]
            assert float(prohorov_distance(final, limit, metric)) < 1e-9
            assert float(hutchinson_distance(final, limit, metric, 1)[0]) < 1e-9
            report = check_weak_limit(seq, limit, metric, 1e-4)
            assert report.converges
            assert report.criteria_agree()


def test_c12_hoelder_minkowski():
    rng = random.Random(112)
    exact_equalities = 0
    with criterion(12, "Hoelder and Minkowski hold across exponents, 1000 instances"):
        for case in range(1000):
            space = rand_space(rng, 5)
            mu = rand_measure(rng, space, den_max=6, num_max=12)
            f = StepFunction(
                space,
                [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in space.atoms],
            )
            if case % 5 == 0:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                g = StepFunction(space, [c * v for v in f.values])
            else:
                g = StepFunction(
                    space,
                    [
                        Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in space.atoms
                    ],
                )
            p = rng.choice([2, 2, 3, 4, INF, Fraction(5, 2), Fraction(3, 2)])
            lhs, rhs, holds = check_hoelder(f, g, mu, p)
            assert holds
            if p == 2:
                assert lhs * lhs <= lp_norm_squared(f, mu) * lp_norm_squared(g, mu)
                if case % 5 == 0:
                    assert lhs * lhs == lp_norm_squared(f, mu) * lp_norm_squared(
                        g, mu
                    )
                    exact_equalities += 1

            q = rng.choice([1, 2, 3, INF])
            lhs, rhs, holds = check_minkowski(f, g, mu, q)
            assert holds
            if q in (1, INF):
                assert lhs <= rhs
            if case % 5 == 0 and q in (1, INF):
                gg = StepFunction(space, [2 * v for v in f.values])
                lhs, rhs, holds = check_minkowski(f, gg, mu, q)
                assert holds and lhs == rhs
                exact_equalities += 1
        assert exact_equalities >= 150


def _formula_set_partition(kernel, depth):
    """Depth-bounded closure of validity sets, written from the semantics.

    Any threshold formula denotes {x : row mass of the body's set >= q},
    and distinct sets arise only at realized masses, so closing under
    those thresholds and pairwise intersections enumerates every validity
    set of modal depth <= depth.
    """
    n = len(kernel.domain.atoms)
    full = frozenset(range(n))
    sets = {full}
    for _ in range(depth):
        fresh = set(sets)
        for a in sets:
            masses = [
                sum((kernel.rows[i].weights[k] for k in a), start=Fraction(0))
                for i in range(n)
            ]
            for q in {m for m in masses if 0 < m <= 1}:
                fresh.add(frozenset(i for i in range(n) if masses[i] >= q))
        for a, b in itertools.combinations(list(fresh), 2):
            fresh.add(a & b)
        sets = fresh
    signatures = {}
    ordered = sorted(sets, key=sorted)
    for i in range(n):
        signatures.setdefault(
            tuple(i in a for a in ordered), []
        ).append(kernel.domain.atoms[i][0])
    return {frozenset(block) for block in signatures.values()}


def test_c13_logic_quotients_mediation_and_couplings():
    rng = random.Random(113)
    with criterion(13, "logical equivalence, quotients, mediation and couplings verify"):
        # (a) refinement vs depth-4 formula-set enumeration, 100 endokernels
        for case in range(100):
            n = rng.randint(1, 6)
            space = FiniteMeasurableSpace.discrete([f"s{k}" for k in range(n)])
            kind = MARKOV if case % 5 == 0 else SUB_MARKOV
            kernel = rand_kernel(rng, space, space, kind=kind)
            blocks = {frozenset(b) for b in logical_equivalence(kernel).blocks}
            assert blocks == _formula_set_partition(kernel, 4)

        # (b) the factor map commutes with the quotient kernel
        for _ in range(100):
            n = rng.randint(1, 5)
            space = FiniteMeasurableSpace.discrete([f"s{k}" for k in range(n)])
            kernel = rand_kernel(rng, space, space, kind=SUB_MARKOV)
            part = logical_equivalence(kernel)
            quotient_space, to_quotient = factor_map(part)
            quotient = quotient_kernel(kernel, part)
            assert quotient.domain == quotient_space
            for i in range(n):
                image_atom = to_quotient.atom_mapping[i]
                assert pushforward(to_quotient, kernel.rows[i]) == quotient.rows[
                    image_atom
                ]

        # (c) mediation with verified projection equations, 100 pairs
        for _ in range(100):
            m = rng.randint(1, 3)
            q_space = FiniteMeasurableSpace.discrete([f"q{k}" for k in range(m)])
            base = rand_kernel(rng, q_space, q_space, kind=SUB_MARKOV, den=6)
            k1, p1 = _expand_kernel(rng, base, "x")
            k2, p2 = _expand_kernel(rng, base, "y")
            q1, q2 = quotient_kernel(k1, p1), quotient_kernel(k2, p2)
            if len(logical_equivalence(base).blocks) == m:
                iso = find_quotient_iso(q1, q2)
            else:
                # a base with bisimilar states gives non-minimal quotients,
                # which only the exhaustive search matches
                with pytest.raises(ValueError):
                    find_quotient_iso(q1, q2)
                iso = find_quotient_iso_search(q1, q2)
            assert iso is not None
            result = mediate(k1, k2, p1, p2, iso)
            for idx, row in enumerate(result.kernel.rows):
                i1 = result.pi1.atom_mapping[idx]
                i2 = result.pi2.atom_mapping[idx]
                assert pushforward(result.zeta1, row) == k1.rows[i1]
                assert pushforward(result.zeta2, row) == k2.rows[i2]
            if len(p1.blocks) >= 2:
                assert result.common_events is not None

        # (d) coupling solver vs integer max-flow oracle on <= 4x4 supports
        for _ in range(150):
            n1 = rng.randint(1, 4)
            n2 = rng.randint(1, 4)
            left = FiniteMeasurableSpace.discrete([f"l{k}" for k in range(n1)])
            right = FiniteMeasurableSpace.discrete([f"r{k}" for k in range(n2)])
            mu = rand_probability(rng, left, den=12)
            nu = rand_probability(rng, right, den=12)
            support = [
                (i, j)
                for i in range(n1)
                for j in range(n2)
                if rng.random() < 0.55
            ]
            problem = CouplingProblem(mu, nu, support)
            result = solve_coupling(problem)
            assert isinstance(result, Measure) == _flow_feasible(
                mu, nu, support
            )
            if isinstance(result, Measure):
                for i in range(n1):
                    got = sum(
                        (result.weights[i * n2 + j] for j in range(n2)),
                        start=Fraction(0),
                    )
                    assert got == mu.weights[i]
                for j in range(n2):
                    got = sum(
                        (result.weights[i * n2 + j] for i in range(n1)),
                        start=Fraction(0),
                    )
                    assert got == nu.weights[j]
            else:
                assert isinstance(result, Infeasible)
                rows = result.rows.atom_indices
                neighborhood = {
                    j for i, j in support if i in set(rows)
                }
                assert result.neighborhood.atom_indices == tuple(sorted(neighborhood))
                assert result.deficit > 0
                assert result.row_mass == sum(
                    (mu.weights[i] for i in rows), start=Fraction(0)
                )
                assert result.neighborhood_mass == sum(
                    (nu.weights[j] for j in neighborhood), start=Fraction(0)
                )
                assert result.deficit == result.row_mass - result.neighborhood_mass


def _expand_kernel(rng, base, prefix):
    """Blow each quotient state up into 1-2 copies respecting the rows."""
    m = len(base.domain.atoms)
    copies = [rng.randint(1, 2) for _ in range(m)]
    points = [
        f"{prefix}{b}_{c}" for b in range(m) for c in range(copies[b])
    ]
    space = FiniteMeasurableSpace.discrete(points)
    blocks = []
    offset = 0
    for b in range(m):
        blocks.append(tuple(points[offset : offset + copies[b]]))
        offset += copies[b]
    rows = []
    for b in range(m):
        for _ in range(copies[b]):
            weights = []
            for target in range(m):
                mass = base.rows[b].weights[target]
                split = []
                remaining = mass
                for c in range(copies[target] - 1):
                    part = remaining * Fraction(rng.randint(0, 4), 4)
                    split.append(part)
                    remaining -= part
                split.append(remaining)
                weights.extend(split)
            rows.append(Measure(space, weights))
    kernel = Kernel(space, space, rows)
    return kernel, Partition(space, blocks)


def _flow_feasible(mu, nu, support):
    total = mu.total()
    if total != nu.total():
        return False
    scale = 1
    for w in list(mu.weights) + list(nu.weights):
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    graph = nx.DiGraph()
    for i, w in enumerate(mu.weights):
        graph.add_edge("src", ("l", i), capacity=int(w * scale))
    for j, w in enumerate(nu.weights):
        graph.add_edge(("r", j), "snk", capacity=int(w * scale))
    for i, j in support:
        graph.add_edge(("l", i), ("r", j), capacity=int(total * scale) + 1)
    value = nx.maximum_flow_value(graph, "src", "snk")
    return value == int(total * scale)


def test_c14_positive_functionals_are_integrals():
    rng = random.Random(114)
    with criterion(14, "positive functionals are exactly integration, 200 functionals"):
        for _ in range(200):
            space = rand_space(rng, 6)
            functional = LinearFunctional(
                space,
                [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in space.atoms],
            )
            mu = measure_from_functional(functional)
            assert integration_functional(mu) == functional
            for _ in range(5):
                f = StepFunction(
                    space,
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in space.atoms],
                )
                g = StepFunction(
                    space,
                    [Fraction(rng.randint(-5, 5)) for _ in space.atoms],
                )
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                assert functional(f) == integral(f, mu)
                assert functional(f * StepFunction.constant(space, c) + g) == (
                    c * functional(f) + functional(g)
                )
            nonneg = StepFunction(
                space, [Fraction(rng.randint(0, 4)) for _ in space.atoms]
            )
            assert functional(nonneg) >= 0


CLI_COMMANDS = [
    ["space", "--name", "G"],
    ["measure", "eval", "--measure", "tri", "--set", "a,c"],
    ["decompose", "jordan", "--measure", "sig"],
    ["decompose", "lebesgue", "--num", "mu_leb", "--den", "nu_leb"],
    ["rn", "--num", "rho", "--den", "eta"],
    ["integrate", "--function", "f2m1", "--measure", "quarter"],
    ["lp-norm", "--function", "f12", "--measure", "eta", "--p", "2"],
    ["ineq", "hoelder", "--left", "f12", "--right", "g31", "--measure", "eta", "--p", "2"],
    ["functional", "dual", "--functional", "lam", "--measure", "eta", "--p", "1"],
    ["kernel", "compose", "--left", "K", "--right", "K"],
    ["kernel", "path", "--kernel", "MP", "--start", "a", "--horizon", "2"],
    ["disintegrate", "--measure", "joint"],
    ["fubini", "--function", "F", "--left", "mu2", "--right", "nu2"],
    ["logic", "check", "--kernel", "M", "--formula", "dia>=1/2 dia>=1 T"],
    ["logic", "quotient", "--kernel", "M"],
    ["bisim", "mediate", "--left", "KU", "--right", "KZ"],
    ["dist", "prohorov", "--left", "dirac_a", "--right", "nu_p", "--metric", "d2"],
    ["dist", "hutchinson", "--left", "dirac_a", "--right", "dirac_b",
     "--metric", "d2", "--gamma", "1"],
    ["weak-check", "--sequence", "w1,w2,w3,w4,w5,w6", "--limit", "wlim",
     "--metric", "d3", "--tol", "0.01"],
]

MODEL_OF_COMMAND = {
    "space": "decomposition", "measure": "decomposition",
    "decompose": "decomposition", "rn": "decomposition",
    "integrate": "decomposition", "lp-norm": "decomposition",
    "ineq": "decomposition", "functional": "decomposition",
    "kernel": "processes", "disintegrate": "processes",
    "fubini": "processes", "logic": "processes", "bisim": "processes",
    "dist": "metrics", "weak-check": "metrics",
}


def test_c15_cli_determinism_and_mode_equivalence():
    from importlib import resources

    with criterion(15, "bundled CLI runs are byte-identical and mode-equivalent"):
        transcripts = []
        for command in CLI_COMMANDS:
            model = str(
                resources.files("finmeas")
                / "examples"
                / f"{MODEL_OF_COMMAND[command[0]]}.json"
            )
            argv = [sys.executable, "-m", "finmeas", *command, "-m", model]
            first = subprocess.run(argv, capture_output=True)
            second = subprocess.run(argv, capture_output=True)
            assert first.returncode == 0, first.stderr
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout
            assert first.stderr == second.stderr == b""
            transcripts.append(first.stdout.decode())

        # text and JSON reports carry the same values
        from finmeas.cli import main as cli_main

        scalar_checks = [
            (["dist", "prohorov", "--left", "dirac_a", "--right", "nu_p",
              "--metric", "d2"], "metrics", "value", "1/2"),
            (["measure", "eval", "--measure", "tri", "--set", "a,c"],
             "decomposition", "value", "5/6"),
            (["integrate", "--function", "f2m1", "--measure", "quarter"],
             "decomposition", "value", "-1/4"),
            (["dist", "hutchinson", "--left", "dirac_a", "--right",
              "dirac_b", "--metric", "d2", "--gamma", "1"],
             "metrics", "value", "1/2"),
        ]
        import io
        from contextlib import redirect_stdout

        for command, model_name, key, expected in scalar_checks:
            model = str(
                resources.files("finmeas") / "examples" / f"{model_name}.json"
            )
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                assert cli_main([*command, "-m", model, "--json"]) == 0
            payload = json.loads(buffer.getvalue())
            assert payload[key] == expected
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                assert cli_main([*command, "-m", model]) == 0
            assert expected in buffer.getvalue()
        assert len(transcripts) == len(CLI_COMMANDS)
