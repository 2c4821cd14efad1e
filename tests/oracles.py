"""The subset-scan and dense-LP algorithms the library used to run.

The library now computes these quantities with network flows and closed
forms.  The scans below are the earlier implementations, kept unchanged
apart from their names (the weak-limit scan now compares in Fractions), as
independent oracles for small spaces: the Prohorov distance and
feasibility by enumerating every subset, the weak-limit check and the
pi-system uniqueness witness by enumerating every measurable set, the
Hutchinson distance as the dense bounded-Lipschitz LP for the rational
simplex, and coupling feasibility as the transportation LP for the
rational simplex with a separate max-flow Hall cut.

The kernel and refinement layers now run on sparse integer rows with
splitter-based lumping.  Their dense Fraction loops are kept here too:
round-based logical equivalence (every atom against every block, until no
block splits), the dense Kleisli composition and lift, recursive formula
evaluation, the quotient block sums, the path-measure recursion over
nested binary product spaces and the dense measure-kernel product.

The space constructor validates in one pass, the product space escapes
each factor's labels once, the kernel kind is inferred from integer row
sums, and a generator space groups each point by the sets that hold it.
The earlier constructor, the label-by-label product, the Fraction row
totals and the grouping by membership vectors are kept here as well.

A mediating kernel is now the class-conditional product of the two rows.
The earlier construction is kept: one max-flow coupling per matched pair,
over spaces whose pair labels are joined and then split again.

The invariant sigma-algebra of a depth is now that many rounds of
block-mass refinement, and the iso of two logical quotients one lumping of
their disjoint union.  The earlier forms are kept: the closure of the
validity sets under every realized threshold and pairwise intersection,
the recursive search that tries every codomain permutation for pairs
other than endokernels, and the iterative backtracking search over the
positions that share a nonzero, which also takes non-minimal and
non-endo quotients and checks the union lumping at larger sizes.

The Prohorov value is now checked by its two exact optimality conditions:
the deficit over the pairs within the value is at most it, and the
deficit over the pairs closer than it at least it.
``_prohorov_feasible_above_fraction`` is the earlier probe, which tests
feasibility a breakpoint-gap step above and below the value; it is kept
as it was.  The library now reads both conditions off the sweep's own
flow and Hall cut; ``prohorov_two_flow_probe``, which decides them with
two fresh max flows, is the probe it replaced.

``flow._dijkstra`` now keeps its distances and search tree in lists;
``min_cost_transshipment_reference`` is the transshipment with the dict
form, kept as it was.

Lp norms for a non-integer or finite exponent other than 1 used to be
taken in plain floats only; that form is kept for the exponents where it
stays in the normal float range.  An integer power is now summed as one
int over a common denominator; lp_norm_fraction_sum is the norm with the
Fraction weight per atom and the Fraction sum it replaced.  The convergence-in-measure distance is
now one sweep over the sorted levels of |f - g|; the scan that summed the
tail mass again for each candidate is kept as
conv_in_measure_distance_scan.

A measure now holds only its integer form (D, cols, nums) over its nonzero
atoms.  The dense measure it replaced, a tuple of one Fraction per atom,
is kept as DenseSignedMeasure and DenseMeasure, and so is the dense
closed-form mediation, as mediate_dense.

The Prohorov distance now prices each breakpoint piece with one max flow
that serves both directions, and a coupling is one ``flow.transport``.
The earlier forms are kept: one max flow per direction and piece (the
two one-sided bisections), one per direction for the feasibility test,
and the coupling flow with its network built by hand.

The flows, the Prohorov and Hutchinson distances and the metric checks
now run on integer forms.  Their Fraction forms are kept: the metric
validation on the dense Fraction matrix, the Prohorov bisection and probe
over Fraction thresholds and weights, and the Hutchinson transshipment
over Fraction costs and supplies with its Fraction witness checks.

The Prohorov distance now sweeps its breakpoint pieces upward on one
network, augmenting the flow it has as each piece adds its pairs, in
place of the bisection with a fresh max flow per piece.  That bisection,
prohorov_distance_fraction, is now the bisection oracle of the sweep.
Edmonds-Karp's augmenting loop now runs on one residual network, the
sweep's, and transport is the sweep with one batch.  The general max_flow
it replaced, with its own residual network class and its refusal of a
source-sink path of unbounded arcs, is kept as max_flow_reference: the
oracles that build their networks by hand call it.

Measure sums, scalings and the Jordan split now build their results from
the integer forms, and the CLI formats a measure's zero once and each
nonzero once.  The Jordan split over the dense weights and the CLI's
dense rendering of kernels and measures, one format per atom, are kept.
So are the Lebesgue split's, the Radon-Nikodym density's and the Lp
dual density's loops over the dense weights, which one helper over the two
forms replaced.

Measure.from_ints now takes its entries as two aligned columns, atoms and
numerators, and runs each of its passes in C.  The constructor over
(atom, num) pairs is kept as from_ints_reference.

Formulas are now read with one token pattern and one stack loop.  The
hand-written scanner and the parser class it fed are kept as
parse_formula_reference.

The CLI now reads a model's numbers as integer pairs and builds each
measure and kernel row from them in one scaling.  dense_model_sections
builds the same objects from dense lists of as_fraction weights, the way
the constructors take them.

Five names only tests used have moved here from the library:
split_pair_label, generated_equivalence, factor_map, d_to_set (once a
FiniteMetric method), and CouplingFailed, which only the flow mediation
oracle raises.

The Hutchinson transshipment now runs over the metric's backbone arcs
(the pairs no third point splits), and a Lipschitz witness is checked on
those arcs only.  The integer transshipment over every ordered pair
cheaper than 2 gamma is kept as hutchinson_full_arcs, and the check of
every pair as lipschitz_all_pairs; backbone_closure, Floyd-Warshall over
the backbone, must give back every distance.
"""

import math
import sys
from collections import deque
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, permutations
from math import gcd, lcm

from finmeas.cli import _Rows
from finmeas.errors import (
    AbsoluteContinuityViolated,
    CapacityExceeded,
    EmptyCarrier,
    FinmeasError,
    FloatRange,
    MassMismatch,
    NegativeFunctional,
    NotACongruence,
    NotBisimilar,
    SpaceMismatch,
    UnsupportedFunctional,
)
from finmeas.flow import min_cost_transshipment, transport
from finmeas.kernels import (
    FINITE,
    MARKOV,
    SUB_MARKOV,
    AtomMap,
    Kernel,
    _join_kind,
    pushforward,
)
from finmeas.logic_bisim import (
    And,
    CouplingProblem,
    Dia,
    Infeasible,
    MediationResult,
    Top,
    _as_iso_pair,
    _as_partition_pair,
    _check_bijection,
    _class_image,
    _dia_atoms,
    _matching_pair_space,
    _require_endo,
    quotient_kernel_pair,
    solve_coupling,
)
from finmeas.integrate import (
    _POWER_BITS,
    INF,
    StepFunction,
    _log,
    conjugate_exponent,
    integral,
    lp_norm,
    validate_exponent,
)
from finmeas.measures import Measure, SignedMeasure
from finmeas.rational import as_fraction, format_float, format_fraction, to_float
from finmeas.metrics import FiniteMetric, WeakLimitReport, _check_metric_pair
from finmeas.simplex import OPTIMAL, maximize
from finmeas.spaces import (
    ENUMERATION_CAP,
    FiniteMeasurableSpace,
    MeasurableSet,
    Partition,
    join_pair_label,
    product_space,
    sigma_from_generator,
)


def _one_sided_min_eps(rho_b, sigma_masses, thresholds):
    """Least eps > 0 with rho(B) <= sigma(B^eps) + eps for one subset.

    thresholds are the sorted distinct values of d(., B); on the piece
    (thresholds[k], thresholds[k+1]] the open-neighborhood mass is
    sigma_masses[k], so the constraint is linear per piece.
    """
    for k, v in enumerate(thresholds):
        upper = thresholds[k + 1] if k + 1 < len(thresholds) else None
        lower_bound = rho_b - sigma_masses[k]
        if upper is None or lower_bound <= upper:
            return max(lower_bound, v)
    raise AssertionError("last piece is always feasible")


def d_to_set(metric, i, subset):
    """Distance from point index i to a nonempty set of point indices."""
    scale, rows = metric.scaled
    return Fraction(min(rows[i][j] for j in subset), scale)


def prohorov_distance_scan(mu, nu, metric):
    """Lévy-Prohorov distance as the maximum, over every subset and both
    directions, of the per-subset least feasible eps."""
    n = len(metric.space.points)
    best = Fraction(0)
    indices = range(n)
    for size in range(1, n + 1):
        for subset in combinations(indices, size):
            dists = [d_to_set(metric, i, subset) for i in indices]
            thresholds = sorted(set(dists) | {Fraction(0)})
            mu_masses = []
            nu_masses = []
            for v in thresholds:
                inside = [i for i in indices if dists[i] <= v]
                mu_masses.append(
                    sum((mu.weights[i] for i in inside), start=Fraction(0))
                )
                nu_masses.append(
                    sum((nu.weights[i] for i in inside), start=Fraction(0))
                )
            mu_b = sum((mu.weights[i] for i in subset), start=Fraction(0))
            nu_b = sum((nu.weights[i] for i in subset), start=Fraction(0))
            best = max(
                best,
                _one_sided_min_eps(nu_b, mu_masses, thresholds),
                _one_sided_min_eps(mu_b, nu_masses, thresholds),
            )
    return best


def prohorov_feasible_scan(mu, nu, metric, eps):
    """Whether eps satisfies both Prohorov constraints for every subset."""
    n = len(metric.space.points)
    indices = range(n)
    for size in range(1, n + 1):
        for subset in combinations(indices, size):
            neighborhood = [
                i for i in indices if d_to_set(metric, i, subset) < eps
            ]
            mu_b = sum((mu.weights[i] for i in subset), start=Fraction(0))
            nu_b = sum((nu.weights[i] for i in subset), start=Fraction(0))
            mu_n = sum((mu.weights[i] for i in neighborhood), start=Fraction(0))
            nu_n = sum((nu.weights[i] for i in neighborhood), start=Fraction(0))
            if nu_b > mu_n + eps or mu_b > nu_n + eps:
                return False
    return True


def _deficit_per_direction(rho, sigma, metric, joined):
    """max over B of rho(B) - sigma(N(B)), the empty B included.

    N(B) holds the points j with joined(d(i, j)) for some i in B.  By the
    deficiency form of Hall's theorem (Strassen 1965) this is rho(X) minus
    the max flow from rho to sigma over the joined pairs.
    """
    n = len(rho)
    source, sink = 2 * n, 2 * n + 1
    rows = [i for i in range(n) if rho[i] > 0]
    cols = [j for j in range(n) if sigma[j] > 0]
    arcs = [(source, i, rho[i]) for i in rows]
    dist = metric.dist
    arcs += [(i, n + j, None) for i in rows for j in cols if joined(dist[i][j])]
    arcs += [(n + j, sink, sigma[j]) for j in cols]
    flow, _, _ = max_flow_reference(2 * n + 2, arcs, source, sink)
    return sum(rho, start=Fraction(0)) - flow


def _one_sided_min_eps_flow(rho, sigma, metric, thresholds):
    """Least eps > 0 with rho(B) <= sigma(B^eps) + eps for every subset B.

    On the piece (thresholds[k], thresholds[k+1]] the open neighborhood
    B^eps is {x : d(x, B) <= thresholds[k]}, so the worst deficit G_k is
    constant there and the piece holds a feasible eps iff
    G_k <= thresholds[k+1].  G_k does not increase with k, so the first
    such piece is found by bisection, and the infimum on it is
    max(G_k, thresholds[k]).
    """
    deficits = {}

    def deficit(k):
        if k not in deficits:
            bound = thresholds[k]
            deficits[k] = _deficit_per_direction(
                rho, sigma, metric, lambda d: d <= bound
            )
        return deficits[k]

    lo, hi = 0, len(thresholds) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if deficit(mid) <= thresholds[mid + 1]:
            hi = mid
        else:
            lo = mid + 1
    return max(deficit(lo), thresholds[lo])


def prohorov_distance_per_direction(mu, nu, metric):
    """Lévy-Prohorov distance as the larger of two one-sided bisections,
    one max flow per direction and piece."""
    _check_metric_pair(mu, nu, metric)
    thresholds = sorted({d for row in metric.dist for d in row} | {Fraction(0)})
    mu_w, nu_w = mu.weights, nu.weights
    return max(
        _one_sided_min_eps_flow(nu_w, mu_w, metric, thresholds),
        _one_sided_min_eps_flow(mu_w, nu_w, metric, thresholds),
    )


def prohorov_feasible_per_direction(mu, nu, metric, eps):
    """Whether eps satisfies both Prohorov constraints for every subset."""
    _check_metric_pair(mu, nu, metric)

    def joined(d):
        return d < eps

    mu_w, nu_w = mu.weights, nu.weights
    return all(
        _deficit_per_direction(rho, sigma, metric, joined) <= eps
        for rho, sigma in ((nu_w, mu_w), (mu_w, nu_w))
    )


def check_weak_limit_scan(sequence, limit, metric, tol):
    """The weak-limit report with the portmanteau excess maximised over
    every measurable set in mask order, all in Fractions: the first set of
    strictly larger exact excess is kept, and only the residuals are
    reported as floats."""
    sequence = list(sequence)
    n = len(metric.space.atoms)
    if n > ENUMERATION_CAP:
        raise CapacityExceeded(
            f"{n} atoms exceed the subset-enumeration cap {ENUMERATION_CAP}"
        )
    tol = Fraction(tol)
    tail = sequence[len(sequence) // 2 :]
    per_atom = max(
        abs(m.weights[k] - limit.weights[k]) for m in tail for k in range(n)
    )
    mass = max(abs(m.total() - limit.total()) for m in tail)

    portmanteau = Fraction(0)
    witness_set = None
    for mset in metric.space.measurable_sets():
        limit_mass = limit.eval(mset)
        for m in tail:
            excess = m.eval(mset) - limit_mass
            if excess > portmanteau:
                portmanteau = excess
                witness_set = mset
    return WeakLimitReport(
        per_atom <= tol,
        portmanteau <= tol,
        mass <= tol,
        float(per_atom),
        float(portmanteau),
        float(mass),
        witness_set if portmanteau > tol else None,
    )


def hutchinson_lp(mu, nu, metric, gamma):
    """Hutchinson value and optimal f from the dense LP in the shifted
    variables x_i = f(x_i) + gamma, solved by the rational simplex."""
    gamma = Fraction(gamma)
    n = len(metric.space.points)
    dist = metric.dist
    c = [mu.weights[i] - nu.weights[i] for i in range(n)]
    a_ub = []
    b_ub = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [Fraction(0)] * n
            row[i], row[j] = Fraction(1), Fraction(-1)
            a_ub.append(row)
            b_ub.append(dist[i][j])
            a_ub.append([-v for v in row])
            b_ub.append(dist[i][j])
    for i in range(n):
        row = [Fraction(0)] * n
        row[i] = Fraction(1)
        a_ub.append(row)
        b_ub.append(2 * gamma)
    result = maximize(c, a_ub=a_ub, b_ub=b_ub)
    assert result.status == OPTIMAL
    shift = gamma * sum(c, start=Fraction(0))
    return result.value - shift, [x - gamma for x in result.x]


def finite_metric_rows_fraction(space, dist):
    """The metric validation on the dense Fraction matrix; returns its rows.

    Every ordered pair (i, j) is checked, where the library checks i < j.
    """
    if any(len(atom) != 1 for atom in space.atoms):
        raise ValueError("metric carrier must have singleton atoms")
    n = len(space.points)
    rows = [tuple(as_fraction(v) for v in row) for row in dist]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"distance matrix must be {n}x{n}")
    for i in range(n):
        if rows[i][i] != 0:
            raise ValueError("distance matrix needs a zero diagonal")
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("distance matrix must be symmetric")
            if i != j and rows[i][j] <= 0:
                raise ValueError("off-diagonal distances must be positive")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    raise ValueError(
                        "triangle inequality fails at "
                        f"({space.points[i]},{space.points[j]},{space.points[k]})"
                    )
    return rows


def _deficit_fraction(mu_w, nu_w, dist, joined):
    """The larger Hall deficit of both directions, one Fraction max flow."""
    rows = [i for i, w in enumerate(mu_w) if w > 0]
    cols = [j for j, w in enumerate(nu_w) if w > 0]
    pairs = [(i, j) for i in rows for j in cols if joined(dist[i][j])]
    flow, _, _ = transport(mu_w, nu_w, pairs)
    return max(sum(mu_w, start=Fraction(0)), sum(nu_w, start=Fraction(0))) - flow


def prohorov_feasible_fraction(mu, nu, metric, eps):
    """Whether eps satisfies both Prohorov constraints for every subset."""
    _check_metric_pair(mu, nu, metric)
    deficit = _deficit_fraction(mu.weights, nu.weights, metric.dist, lambda d: d < eps)
    return deficit <= eps


def _prohorov_feasible_above_fraction(mu, nu, metric, value):
    """Feasible just above the value and not just below it, with the gap
    half the smallest spacing of the candidate breakpoints."""
    candidates = {value}
    for row in metric.dist:
        candidates.update(row)
    candidates.update(mu.weights)
    candidates.update(nu.weights)
    gaps = [
        b - a
        for a, b in zip(sorted(candidates), sorted(candidates)[1:])
        if b > a
    ]
    step = min(gaps, default=Fraction(1)) / 2
    if not prohorov_feasible_fraction(mu, nu, metric, value + step):
        return False
    if value > 0 and prohorov_feasible_fraction(
        mu, nu, metric, value - min(step, value / 2)
    ):
        return False
    return True


def prohorov_distance_fraction(mu, nu, metric):
    """The Prohorov bisection over Fraction thresholds and weights, with
    its probe."""
    _check_metric_pair(mu, nu, metric)
    dist = metric.dist
    thresholds = sorted({d for row in dist for d in row} | {Fraction(0)})
    mu_w, nu_w = mu.weights, nu.weights
    deficits = {}

    def deficit(k):
        if k not in deficits:
            bound = thresholds[k]
            deficits[k] = _deficit_fraction(mu_w, nu_w, dist, lambda d: d <= bound)
        return deficits[k]

    lo, hi = 0, len(thresholds) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if deficit(mid) <= thresholds[mid + 1]:
            hi = mid
        else:
            lo = mid + 1
    best = max(deficit(lo), thresholds[lo])
    if not _prohorov_feasible_above_fraction(mu, nu, metric, best):
        raise AssertionError(f"Prohorov value {best} is not the infimum")
    return best


def hutchinson_distance_fraction(mu, nu, metric, gamma):
    """The Hutchinson transshipment over Fraction costs and supplies;
    returns (value, witness values) after the Fraction witness checks."""
    _check_metric_pair(mu, nu, metric)
    gamma = as_fraction(gamma)
    n = len(metric.space.points)
    dist = metric.dist
    supply = [a - b for a, b in zip(mu.weights, nu.weights)]
    supply.append(-sum(supply, start=Fraction(0)))
    ground = n
    arcs = [
        (i, j, dist[i][j])
        for i in range(n)
        for j in range(n)
        if i != j and dist[i][j] < 2 * gamma
    ]
    for i in range(n):
        arcs += [(i, ground, gamma), (ground, i, gamma)]
    flows, potentials = min_cost_transshipment(n + 1, arcs, supply, ground)
    value = sum((f * cost for f, (_, _, cost) in zip(flows, arcs)), start=Fraction(0))
    values = [potentials[ground] - potentials[i] for i in range(n)]
    for v in values:
        if abs(v) > gamma:
            raise ValueError("witness exceeds the gamma bound")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) > dist[i][j]:
                raise ValueError("witness is not 1-Lipschitz")
    objective = sum(
        (v * (a - b) for v, a, b in zip(values, mu.weights, nu.weights)),
        start=Fraction(0),
    )
    if objective != value:
        raise AssertionError(f"Hutchinson witness attains {objective}, not {value}")
    return value, values


def lipschitz_all_pairs(metric, values, gamma):
    """LipschitzWitness's checks with the Lipschitz bound on every pair
    i < j, not only on the backbone arcs; raises its ValueErrors in its
    order and returns the values as Fractions."""
    values = tuple(as_fraction(v) for v in values)
    gamma = as_fraction(gamma)
    n = len(metric.space.points)
    if len(values) != n:
        raise ValueError(f"expected {n} values")
    for v in values:
        if abs(v) > gamma:
            raise ValueError("witness exceeds the gamma bound")
    scale, rows = metric.scaled
    common = lcm(scale, *(v.denominator for v in values))
    ints = [v.numerator * (common // v.denominator) for v in values]
    factor = common // scale
    for i in range(n):
        for j in range(i + 1, n):
            if abs(ints[i] - ints[j]) > rows[i][j] * factor:
                raise ValueError("witness is not 1-Lipschitz")
    return values


def hutchinson_full_arcs(mu, nu, metric, gamma):
    """The integer Hutchinson transshipment over every ordered pair cheaper
    than 2 gamma, with the all-pairs Lipschitz check and the witness
    objective over the measures; returns (value, witness values)."""
    _check_metric_pair(mu, nu, metric)
    gamma = as_fraction(gamma)
    n = len(metric.space.points)
    scale, dist = metric.scaled
    cost_scale = lcm(scale, gamma.denominator)
    factor = cost_scale // scale
    ground_cost = gamma.numerator * (cost_scale // gamma.denominator)
    mass_scale = lcm(mu.form[0], nu.form[0])
    supply = [
        a - b for a, b in zip(mu.ints_over(mass_scale), nu.ints_over(mass_scale))
    ]
    supply.append(-sum(supply))
    ground = n
    arcs = [
        (i, j, d * factor)
        for i, row in enumerate(dist)
        for j, d in enumerate(row)
        if i != j and d * factor < 2 * ground_cost
    ]
    for i in range(n):
        arcs += [(i, ground, ground_cost), (ground, i, ground_cost)]
    flows, potentials = min_cost_transshipment(n + 1, arcs, supply, ground)
    net = [0] * (n + 1)
    for f, (u, v, _) in zip(flows, arcs):
        net[u], net[v] = net[u] + f, net[v] - f
    if net != supply or min(flows, default=0) < 0:
        raise AssertionError("Hutchinson flows do not meet the supplies")
    value = Fraction(
        sum(f * cost for f, (_, _, cost) in zip(flows, arcs) if f),
        mass_scale * cost_scale,
    )
    values = lipschitz_all_pairs(
        metric,
        [Fraction(potentials[ground] - potentials[i], cost_scale) for i in range(n)],
        gamma,
    )
    diffs = [a - b for a, b in zip(mu.ints_over(mass_scale), nu.ints_over(mass_scale))]
    objective = Fraction(sum(v * d for v, d in zip(values, diffs)), mass_scale)
    if objective != value:
        raise AssertionError(f"Hutchinson witness attains {objective}, not {value}")
    return value, values


def backbone_closure(metric):
    """Floyd-Warshall over the backbone arcs alone, on the scaled ints:
    the shortest-path distance of each ordered pair, None if unreachable."""
    n = len(metric.space.points)
    rows = metric.scaled[1]
    dist = [[0 if i == j else None for j in range(n)] for i in range(n)]
    for i, j in metric.backbone:
        dist[i][j] = dist[j][i] = rows[i][j]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] is None or dist[k][j] is None:
                    continue
                via = dist[i][k] + dist[k][j]
                if dist[i][j] is None or via < dist[i][j]:
                    dist[i][j] = via
    return dist


def pi_system_witness_scan(space, mu, nu):
    """The first measurable set in mask order where mu and nu disagree,
    as (False, witness), or (True, None) when they agree on every set."""
    for candidate in space.measurable_sets():
        if mu.eval(candidate) != nu.eval(candidate):
            return False, candidate
    return True, None


def _hall_certificate(problem):
    """Extract a violating row set from a max-flow residual cut."""
    left = problem.left_marginal
    right = problem.right_marginal
    n1 = len(left.space.atoms)
    n2 = len(right.space.atoms)
    total = left.total()
    source, sink = 0, n1 + n2 + 1
    arcs = [(source, 1 + i, left.weights[i]) for i in range(n1)]
    arcs += [(n1 + 1 + j, sink, right.weights[j]) for j in range(n2)]
    arcs += [(1 + i, n1 + 1 + j, None) for i, j in problem.support]
    flow, reached, _ = max_flow_reference(n1 + n2 + 2, arcs, source, sink)
    assert flow < total, "certificate requested for a feasible problem"
    rows = sorted(i for i in range(n1) if 1 + i in reached)
    row_set = set(rows)
    neighborhood = sorted({j for i, j in problem.support if i in row_set})
    row_mass = sum((left.weights[i] for i in rows), start=Fraction(0))
    neighborhood_mass = sum(
        (right.weights[j] for j in neighborhood), start=Fraction(0)
    )
    assert row_mass > neighborhood_mass
    return Infeasible(
        left.space.set_of_atoms(rows),
        right.space.set_of_atoms(neighborhood),
        row_mass,
        neighborhood_mass,
    )


def solve_coupling_lp(problem):
    """A coupling as the basic feasible solution of the transportation LP
    under the exact phase-1 simplex, or the max-flow Hall cut when the LP
    is infeasible."""
    left = problem.left_marginal
    right = problem.right_marginal
    if left.total() != right.total():
        raise MassMismatch(
            f"marginal totals differ: {left.total()} vs {right.total()}"
        )
    n1 = len(left.space.atoms)
    n2 = len(right.space.atoms)
    prod = product_space(left.space, right.space)
    variables = sorted(problem.support)
    if not variables:
        if left.total() == 0:
            return Measure.zero(prod)
        return _hall_certificate(problem)
    a_eq = []
    b_eq = []
    for i in range(n1):
        a_eq.append([Fraction(int(v[0] == i)) for v in variables])
        b_eq.append(left.weights[i])
    for j in range(n2):
        a_eq.append([Fraction(int(v[1] == j)) for v in variables])
        b_eq.append(right.weights[j])
    result = maximize([Fraction(0)] * len(variables), a_eq=a_eq, b_eq=b_eq)
    if result.status != OPTIMAL:
        return _hall_certificate(problem)
    weights = [Fraction(0)] * (n1 * n2)
    for x, (i, j) in zip(result.x, variables):
        weights[i * n2 + j] = x
    return Measure(prod, weights)


def solve_coupling_max_flow(problem):
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
    mu, nu = left.weights, right.weights
    n1, n2 = len(mu), len(nu)
    support = sorted(problem.support)
    source, sink = 0, n1 + n2 + 1
    arcs = [(source, 1 + i, mu[i]) for i in range(n1)]
    arcs += [(1 + i, 1 + n1 + j, None) for i, j in support]
    arcs += [(1 + n1 + j, sink, nu[j]) for j in range(n2)]
    flow, reached, flows = max_flow_reference(n1 + n2 + 2, arcs, source, sink)
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
        sum((mu[i] for i in rows), start=Fraction(0)),
        sum((nu[j] for j in neighborhood), start=Fraction(0)),
    )
    if certificate.deficit != total - flow:
        raise AssertionError("Hall cut deficit differs from the flow shortfall")
    return certificate


# ------------------------------------------------- kernels and refinement


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


def convolve_dense(left, right):
    """Kleisli composition as the dense row-by-matrix product."""
    if right.codomain != left.domain:
        raise SpaceMismatch("right.codomain must equal left.domain")
    n_out = len(left.codomain.atoms)
    rows = []
    for row in right.rows:
        weights = [Fraction(0)] * n_out
        for k, mass in enumerate(row.weights):
            if mass != 0:
                inner = left.rows[k]
                for j in range(n_out):
                    weights[j] += mass * inner.weights[j]
        rows.append(Measure(left.codomain, weights))
    return Kernel(
        right.domain, left.codomain, rows, _join_kind(left.kind, right.kind)
    )


def kleisli_lift_dense(kernel, mu):
    """The lifted measure as the dense vector-by-matrix product."""
    if mu.space != kernel.domain:
        raise SpaceMismatch("measure lives on a different space than the domain")
    n_out = len(kernel.codomain.atoms)
    weights = [Fraction(0)] * n_out
    for w, row in zip(mu.weights, kernel.rows):
        if w != 0:
            for j in range(n_out):
                weights[j] += w * row.weights[j]
    return Measure(kernel.codomain, weights)


def measure_kernel_product_dense(mu, kernel):
    """The measure mu (x) K with one Fraction product per rectangle atom."""
    if mu.space != kernel.domain:
        raise SpaceMismatch("measure lives on a different space than the domain")
    prod = product_space(mu.space, kernel.codomain)
    weights = []
    for w, row in zip(mu.weights, kernel.rows):
        for v in row.weights:
            weights.append(w * v)
    return Measure(prod, weights)


def path_measure_dense(kernel, start_point, horizon):
    """The path measure with one Fraction product per path extension."""
    step_space = kernel.codomain
    n_step = len(step_space.atoms)
    n_s = len(step_space.factors[1].atoms)
    s_of_step = [k % n_s for k in range(n_step)]
    start = kernel.domain.atom_index_of_point(start_point)
    space = step_space
    weights = list(kernel.rows[start].weights)
    last_s = list(s_of_step)
    for _ in range(horizon - 1):
        space = product_space(space, step_space)
        new_weights = []
        new_last = []
        for w, s in zip(weights, last_s):
            row = kernel.rows[s]
            for k in range(n_step):
                new_weights.append(w * row.weights[k])
                new_last.append(s_of_step[k])
        weights = new_weights
        last_s = new_last
    return Measure(space, weights)


def _dia_atoms_dense(kernel, inner, q):
    out = []
    for k, row in enumerate(kernel.rows):
        mass = sum((row.weights[j] for j in inner), start=Fraction(0))
        if mass >= q:
            out.append(k)
    return frozenset(out)


def validity_atoms_dense(kernel, phi):
    """The atoms where phi holds, by structural recursion over the formula."""
    if isinstance(phi, Top):
        return frozenset(range(len(kernel.domain.atoms)))
    if isinstance(phi, And):
        return validity_atoms_dense(kernel, phi.left) & validity_atoms_dense(
            kernel, phi.right
        )
    if isinstance(phi, Dia):
        return _dia_atoms_dense(
            kernel, validity_atoms_dense(kernel, phi.body), phi.threshold
        )
    raise TypeError(f"not a formula: {phi!r}")


def logical_equivalence_rounds(kernel, labels=None):
    """Round-based block-mass refinement from the trivial partition (or the
    label classes): each round splits every block by the row masses of its
    atoms on every current block, until a round splits nothing."""
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


def congruence_witness_dense(kernel, dom_partition, cod_partition):
    """The first (representative, other) pair of a domain block whose rows
    differ on some codomain block, by dense Fraction sums; None when the
    pair is a congruence.  Both partitions must refine the atoms."""
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


def quotient_rows_dense(kernel, dom_partition, cod_partition):
    """The quotient kernel of a congruence pair, by dense block sums."""
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


# ------------------------------------------- space constructors and kinds


def generated_equivalence(points, family):
    """The equivalence relation generated by a family of subsets.

    Two points are equivalent iff no family member separates them; the
    blocks coincide with the atoms of sigma_from_generator.
    """
    space = sigma_from_generator(points, family)
    return Partition(space, space.atoms)


def membership_groups_scan(points, family):
    """The generator grouping by each point's membership vector: one test
    of p in s per point and set, so points times sets."""
    groups = {}
    for p in points:
        key = tuple(p in s for s in family)
        groups.setdefault(key, []).append(p)
    return list(groups.values())


def space_reference(points, atoms, factors=None):
    """A FiniteMeasurableSpace built by the earlier constructor: a set for
    distinctness, every atom sorted through a set, a seen-set for
    disjointness and coverage, and a second pass for the atom of each point.
    """
    space = FiniteMeasurableSpace.__new__(FiniteMeasurableSpace)
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
    space.points = points
    space.atoms = tuple(normalized)
    space.n_atoms = len(space.atoms)
    space._index = index
    space._atom_of = {}
    for k, atom in enumerate(space.atoms):
        for p in atom:
            space._atom_of[p] = k
    space.factors = factors
    return space


def product_space_reference(left, right):
    """The product with every point and atom label built by join_pair_label."""
    points = [
        join_pair_label(p, q) for p in left.points for q in right.points
    ]
    atoms = []
    for a in left.atoms:
        for b in right.atoms:
            atoms.append(tuple(join_pair_label(p, q) for p in a for q in b))
    space = space_reference(points, atoms, factors=(left, right))
    if len(space.atoms) != len(left.atoms) * len(right.atoms):
        raise AssertionError("product atoms are not the rectangles of atoms")
    return space


def inferred_kind_sums(rows):
    """The kernel kind from each row's Fraction total."""
    totals = [row.total() for row in rows]
    if all(t == 1 for t in totals):
        return MARKOV
    if all(t <= 1 for t in totals):
        return SUB_MARKOV
    return FINITE


# ---------------------------------------------------------- dense measures


class DenseSignedMeasure:
    """A rational weight per atom, any sign."""

    _require_nonnegative = False

    def __init__(self, space, weights):
        weights = tuple(as_fraction(w) for w in weights)
        if len(weights) != len(space.atoms):
            raise ValueError(
                f"expected {len(space.atoms)} atom weights, got {len(weights)}"
            )
        if self._require_nonnegative and any(w.numerator < 0 for w in weights):
            raise ValueError("measure weights must be nonnegative")
        self.space = space
        self.weights = weights

    def eval(self, mset):
        """Value on a measurable set: the sum of its atom weights."""
        if mset.space != self.space:
            raise SpaceMismatch("set lives on a different space")
        return sum(
            (self.weights[k] for k in mset.atom_indices), start=Fraction(0)
        )

    def total(self):
        return sum(self.weights, start=Fraction(0))

    def _check(self, other):
        if self.space != other.space:
            raise SpaceMismatch("measures live on different spaces")

    def __eq__(self, other):
        return (
            isinstance(other, DenseSignedMeasure)
            and self.space == other.space
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.space, self.weights))

    def __repr__(self):
        pairs = ", ".join(
            "{" + ",".join(a) + "}:" + str(w)
            for a, w in zip(self.space.atoms, self.weights)
        )
        return f"{type(self).__name__}({pairs})"


class DenseMeasure(DenseSignedMeasure):
    """A nonnegative finite measure."""

    _require_nonnegative = True

    @classmethod
    def zero(cls, space):
        return cls(space, [Fraction(0)] * len(space.atoms))

    @classmethod
    def dirac(cls, space, point):
        k = space.atom_index_of_point(point)
        return cls(
            space,
            [Fraction(int(i == k)) for i in range(len(space.atoms))],
        )

    def is_probability(self):
        return self.total() == 1

    def is_subprobability(self):
        return self.total() <= 1

    def add(self, other):
        self._check(other)
        return DenseMeasure(
            self.space, [a + b for a, b in zip(self.weights, other.weights)]
        )

    def scale(self, c):
        c = as_fraction(c)
        if c < 0:
            raise ValueError("use SignedMeasure for negative scalings")
        return DenseMeasure(self.space, [c * w for w in self.weights])

    def support_atoms(self):
        return tuple(k for k, w in enumerate(self.weights) if w > 0)


def from_ints_reference(cls, space, d, entries):
    """cls.from_ints as it was when it took (atom, num) pairs: the measure
    with weight num / d on atom j for each int entry (j, num), atoms
    distinct and in any order, zeros dropped and the gcd divided out."""
    kept = sorted((j, num) for j, num in entries if num)
    cols = [j for j, _ in kept]
    bounds = [-1, *cols, space.n_atoms]
    if d <= 0 or not all(a < b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("d must be positive and atoms distinct and in the space")
    g = gcd(d, *(num for _, num in kept))
    if cls._require_nonnegative and any(num < 0 for _, num in kept):
        raise ValueError("measure weights must be nonnegative")
    measure = cls.__new__(cls)
    measure.space = space
    measure.form = (d // g, tuple(cols), tuple(num // g for _, num in kept))
    return measure


def jordan_decompose_dense(nu):
    """(plus, minus, total variation) of a signed measure, atom by atom
    over its dense weights."""
    plus = DenseMeasure(nu.space, [max(w, Fraction(0)) for w in nu.weights])
    minus = DenseMeasure(nu.space, [max(-w, Fraction(0)) for w in nu.weights])
    variation = DenseMeasure(nu.space, [abs(w) for w in nu.weights])
    return plus, minus, variation


def lebesgue_decompose_dense(mu, nu):
    """(absolutely continuous part, singular part, density), the density
    taken atom by atom over the dense weights."""
    mu._check(nu)
    d, cols, nums = mu.form
    carried = {j for j, num in zip(*nu.form[1:]) if num > 0}
    absolutely = [num if j in carried else 0 for j, num in zip(cols, nums)]
    singular = [0 if j in carried else num for j, num in zip(cols, nums)]
    density = [mw / nw if nw > 0 else 0 for mw, nw in zip(mu.weights, nu.weights)]
    return (
        Measure.from_ints(mu.space, d, cols, absolutely),
        Measure.from_ints(mu.space, d, cols, singular),
        StepFunction(mu.space, density),
    )


def radon_nikodym_dense(mu, nu):
    """The density dmu/dnu atom by atom over the dense weights."""
    mu._check(nu)
    for k, (mw, nw) in enumerate(zip(mu.weights, nu.weights)):
        if nw == 0 and mw != 0:
            raise AbsoluteContinuityViolated(
                f"nu vanishes on atom {mu.space.atoms[k]!r} but mu does not",
                witness_atom=mu.space.atoms[k],
            )
    return StepFunction(
        mu.space,
        [mw / nw if nw != 0 else Fraction(0) for mw, nw in zip(mu.weights, nu.weights)],
    )


def lp_dual_density_dense(functional, mu, p):
    """(g, operator norm) of a positive functional on Lp(mu), g taken atom
    by atom over the dense weights."""
    if functional.space != mu.space:
        raise SpaceMismatch("functional and measure live on different spaces")
    if not functional.is_positive():
        raise NegativeFunctional("functional is negative on an atom indicator")
    p = validate_exponent(p)
    values = []
    for k, (lv, mw) in enumerate(
        zip(functional.values_on_atom_indicators, mu.weights)
    ):
        if mw == 0:
            if lv != 0:
                raise UnsupportedFunctional(
                    f"functional charges the mu-null atom {mu.space.atoms[k]!r}"
                )
            values.append(Fraction(0))
        else:
            values.append(lv / mw)
    g = StepFunction(mu.space, values)
    return g, lp_norm(g, mu, conjugate_exponent(p))


# -------------------------------------------------------------- mediation


class CouplingFailed(FinmeasError):
    """A matched pair of rows that the flow oracle could not couple."""


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


def matching_pair_space_labels(s1, s2, p1, p2, iso):
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

def mediate_flow(k1, k2, q1, q2, iso):
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
    a_space, pi1, pi2, a_pairs = matching_pair_space_labels(
        k1.domain, k2.domain, q1d, q2d, dom_iso
    )
    b_space, zeta1, zeta2, b_pairs = matching_pair_space_labels(
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


def mediate_dense(k1, k2, q1, q2, iso):
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
        k1.domain, k2.domain, q1d, q2d, _class_image(q1d, q2d, dom_iso)
    )
    b_space, zeta1, zeta2, b_pairs = _matching_pair_space(
        k1.codomain, k2.codomain, q1c, q2c, _class_image(q1c, q2c, cod_iso)
    )
    rows = []
    for i1, i2 in a_pairs:
        mass = quot1.rows[q1d.block_of_atom[i1]].weights
        # k1(x)(j1) / m_C; a zero entry stays zero, so m_C = 0 never divides
        scaled = [
            w / mass[c] if w else w
            for w, c in zip(k1.rows[i1].weights, q1c.block_of_atom)
        ]
        right = k2.rows[i2].weights
        row = Measure(b_space, [scaled[j1] * right[j2] for j1, j2 in b_pairs])
        if row.total() != k1.rows[i1].total():
            raise AssertionError("mediating row lost mass")
        images = (pushforward(zeta1, row), pushforward(zeta2, row))
        if images != (k1.rows[i1], k2.rows[i2]):
            raise AssertionError("mediating row misses a marginal")
        rows.append(row)
    if len(q1c.blocks) >= 2:
        image = q2c.block_index_of_point(cod_iso[q1c.blocks[0][0]])
        if any(
            (q1c.block_of_atom[j1] == 0) != (q2c.block_of_atom[j2] == image)
            for j1, j2 in b_pairs
        ):
            raise AssertionError("common events disagree on B")
        common_events = (
            k1.codomain.set_of_atoms(q1c.block_atom_indices(0)),
            k2.codomain.set_of_atoms(q2c.block_atom_indices(image)),
        )
    else:
        common_events = None
    mediating = Kernel(a_space, b_space, rows)
    return MediationResult(mediating, pi1, pi2, zeta1, zeta2, common_events)


# -------------------------------------- invariant sigma-algebras and isos


def invariant_sigma_algebra_closure(kernel, depth):
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
    if n > ENUMERATION_CAP:
        raise CapacityExceeded(
            f"{n} atoms exceed the subset-enumeration cap {ENUMERATION_CAP}"
        )
    rows = [row.form for row in kernel.rows]
    sets = {frozenset(range(n))}
    for _ in range(depth):
        layer = set(sets)
        for inner in sets:
            masses = {
                Fraction(sum(num for j, num in zip(cols, nums) if j in inner), d)
                for d, cols, nums in rows
            }
            for q in masses:
                if 0 < q <= 1:
                    layer.add(_dia_atoms(rows, inner, q))
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


def find_quotient_iso_search(quot1, quot2):
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


def find_quotient_iso_backtracking(quot1, quot2):
    """Search block bijections making two quotient kernels equal.

    Returns (dom_iso, cod_iso) dicts keyed by block labels, or None.  A
    pair of endokernels is searched over its rows as they are, with one
    permutation for both sides.  Any other pair is searched as one square
    matrix with the codomain blocks first and the domain blocks after,
    whose only nonzero entries are the domain rows on the codomain blocks;
    no block may cross to the other side.  One iterative depth-first search
    assigns the positions in order, each trying its targets in index
    order, so the first match found is the lexicographically first.
    """
    nd = len(quot1.domain.atoms)
    nc = len(quot1.codomain.atoms)
    if nd != len(quot2.domain.atoms) or nc != len(quot2.codomain.atoms):
        return None
    w1, w2 = (
        [{j: Fraction(n, r.form[0]) for j, n in zip(*r.form[1:])} for r in q.rows]
        for q in (quot1, quot2)
    )
    cut = 0
    if not (quot1.is_endo() and quot2.is_endo()):
        cut = nc
        w1, w2 = ([{}] * nc + m for m in (w1, w2))
    n = len(w1)
    # the positions sharing a nonzero entry with each position; any other
    # assigned position a compares zero with zero on both sides
    near1, near2 = ([set(row) for row in w] for w in (w1, w2))
    for w, near in ((w1, near1), (w2, near2)):
        for a, row in enumerate(w):
            for b in row:
                near[b].add(a)
    perm = [None] * n
    inverse = [None] * n
    start = [0] * n
    i = 0
    while 0 <= i < n:
        if perm[i] is not None:
            inverse[perm[i]] = None
            perm[i] = None
        before = {a for a in near1[i] if a < i}
        for t in range(start[i], n):
            if (
                inverse[t] is None
                and (i < cut) == (t < cut)
                and w1[i].get(i, 0) == w2[t].get(t, 0)
                and all(
                    w1[a].get(i, 0) == w2[perm[a]].get(t, 0)
                    and w1[i].get(a, 0) == w2[t].get(perm[a], 0)
                    for a in before.union(
                        inverse[u] for u in near2[t] if inverse[u] is not None
                    )
                )
            ):
                perm[i] = t
                inverse[t] = i
                start[i] = t + 1
                i += 1
                break
        else:
            start[i] = 0
            i -= 1
    if i < 0:
        return None
    dom_iso = {
        quot1.domain.points[i]: quot2.domain.points[perm[cut + i] - cut]
        for i in range(nd)
    }
    cod_iso = {
        quot1.codomain.points[c]: quot2.codomain.points[perm[c]]
        for c in range(nc)
    }
    return dom_iso, cod_iso


# ---------------------------------------------------------------- formulas


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
            if int(den) == 0:
                raise ValueError(f"zero denominator in {num}/{den}")
            return Fraction(int(num), int(den))
        return Fraction(int(num))

    def formula(self):
        """One formula, parsed with an explicit stack of open dia>= and
        conjunction frames instead of recursion."""
        frames = []
        while True:
            tok = self.take()
            if tok == "dia>=":
                frames.append(self.rational())
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
                if self.peek() == "&":
                    self.take()
                    break
                self.take(")")
                frames.pop()
                node = frame[0]
            else:
                return node


def parse_formula_reference(text):
    """Parse `T`, `(phi & phi)` (left-associative) or `dia>=p/q phi`.

    Whitespace-insensitive; dia binds tighter than &, so conjunctions are
    always parenthesized.
    """
    parser = _Parser(_tokenize(text))
    node = parser.formula()
    if parser.peek() is not None:
        raise ValueError(f"trailing input after formula: {parser.peek()!r}")
    return node


# ---------------------------------------------------------- CLI rendering


def plain_dense(value, float_mode):
    """The JSON form of an exact CLI result, with every kernel row and
    measure read through the dense weights view: one format per atom."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (Fraction, int, float)):
        if float_mode or isinstance(value, float):
            return float(format_float(to_float(value)))
        return format_fraction(value)
    if isinstance(value, Kernel):
        rows = _Rows(
            {"atom": list(atom), "weights": plain_dense(row.weights, float_mode)}
            for atom, row in zip(value.domain.atoms, value.rows)
        )
        rows.columns = plain_dense(value.codomain.atoms, float_mode)
        return rows
    if isinstance(value, (SignedMeasure, StepFunction)):
        values = value.values if isinstance(value, StepFunction) else value.weights
        return [
            {"atom": list(atom), "value": plain_dense(v, float_mode)}
            for atom, v in zip(value.space.atoms, values)
        ]
    if isinstance(value, MeasurableSet):
        return value.sorted_points()
    if isinstance(value, dict):
        return {key: plain_dense(v, float_mode) for key, v in value.items()}
    return [plain_dense(v, float_mode) for v in value]


# ------------------------------------------------------------------ Lp norms


def lp_norm_fraction_sum(f, mu, p):
    """The Lp norm as the library took it with one Fraction weight per atom:
    the integer-p power summed one Fraction at a time, then converted."""
    p = validate_exponent(p)
    if p == 1:
        return integral(abs(f), mu)
    d, cols, nums = mu.form
    pairs = [(abs(f.values[j]), Fraction(num, d)) for j, num in zip(cols, nums)]
    if p == INF:
        return max((v for v, w in pairs if w > 0), default=Fraction(0))
    support = [(v, w) for v, w in pairs if v]
    if not support:
        return 0.0
    q = to_float(p)
    bits = p * sum((v.numerator * v.denominator).bit_length() for v, _ in support)
    cheap = p.denominator > 1 or bits <= _POWER_BITS
    total = _float_power_fraction_sum(support, p) if cheap else 0.0
    if sys.float_info.min <= total < math.inf:
        return total ** (1.0 / q)
    m = max(v for v, _ in support)
    scaled = sum(
        (Fraction(float(v / m) ** q) * w for v, w in support), start=Fraction(0)
    )
    try:
        return math.exp(_log(m) + _log(scaled) / q)
    except OverflowError:
        raise FloatRange("the Lp norm is beyond the largest float") from None


def _float_power_fraction_sum(support, p):
    """integral |f|^p dmu as a float, inf when it overflows."""
    try:
        if p.denominator == 1:
            k = int(p)
            return float(sum((v**k * w for v, w in support), start=Fraction(0)))
        return sum(float(v) ** float(p) * float(w) for v, w in support)
    except OverflowError:
        return math.inf


def lp_norm_float(f, mu, p):
    """The plain float Lp norm for a rational 1 < p < infinity."""
    if p.denominator == 1:
        power = sum(
            (abs(v) ** int(p) * w for v, w in zip(f.values, mu.weights)),
            start=Fraction(0),
        )
        return float(power) ** (1.0 / int(p))
    total = sum(
        abs(float(v)) ** float(p) * float(w) for v, w in zip(f.values, mu.weights)
    )
    return total ** (1.0 / float(p))


def conv_in_measure_distance_scan(f, g, mu):
    """delta(f, g) as the least feasible candidate: 0, every value of
    |f - g|, and the tail mass above each, the tail summed per candidate."""
    diff = abs(f - g)
    d, cols, nums = mu.form
    values = diff.values

    def tail(eps):
        return Fraction(sum(num for j, num in zip(cols, nums) if values[j] > eps), d)

    candidates = {Fraction(0)} | set(diff.values)
    candidates |= {tail(v) for v in list(candidates)}
    feasible = [c for c in candidates if c >= 0 and tail(c) <= c]
    return min(feasible)


class _ResidualReference:
    """Arc e runs head[e ^ 1] -> head[e]; arc e ^ 1 is its reverse.

    A residual capacity of None is unbounded.  Each node lists its arcs in
    the order they were added, which fixes the search order.
    """

    def __init__(self, n):
        self.head = []
        self.cap = []
        self.adj = [[] for _ in range(n)]

    def add(self, u, v, cap):
        e = len(self.head)
        self.head += [v, u]
        self.cap += [cap, 0]
        self.adj[u].append(e)
        self.adj[v].append(e + 1)

    def open(self, e):
        return self.cap[e] is None or self.cap[e] > 0

    def push(self, e, amount):
        if self.cap[e] is not None:
            self.cap[e] -= amount
        if self.cap[e ^ 1] is not None:
            self.cap[e ^ 1] += amount

    def flows(self, count):
        """The flow on each of the first count arcs added: its reverse capacity."""
        return [self.cap[2 * k + 1] for k in range(count)]

    def path_to(self, parent, v):
        """The arcs of the search tree path ending at v, sink end first."""
        path = []
        while parent[v] is not None:
            e = parent[v]
            path.append(e)
            v = self.head[e ^ 1]
        return path


def max_flow_reference(n, arcs, source, sink):
    """Maximum flow from source to sink over nodes 0..n-1.

    ``arcs`` is a sequence of (u, v, capacity); a capacity of None is
    unbounded.  Returns (value, source_side, flows): source_side is the set
    of nodes reachable from the source in the final residual graph, the
    source side of the minimum cut nearest the source, and flows[k] is the
    flow on arcs[k].
    """
    graph = _ResidualReference(n)
    for u, v, cap in arcs:
        graph.add(u, v, cap)
    head, cap, adj = graph.head, graph.cap, graph.adj
    value = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                # graph.open(e), inlined on the hottest loop
                if v not in parent and (cap[e] is None or cap[e] > 0):
                    parent[v] = e
                    queue.append(v)
        if sink not in parent:
            return value, set(parent), graph.flows(len(arcs))
        path = graph.path_to(parent, sink)
        caps = [cap[e] for e in path if cap[e] is not None]
        if not caps:
            raise ValueError("a source-sink path of unbounded arcs")
        bottleneck = min(caps)
        for e in path:
            graph.push(e, bottleneck)
        value += bottleneck


def _dijkstra_reference(graph, costs, potential, start):
    """Reduced-cost distances and search-tree arcs of the residual graph."""
    head, cap, adj = graph.head, graph.cap, graph.adj
    dist = {start: 0}
    parent = {start: None}
    done = set()
    heap = [(0, start)]
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        for e in adj[u]:
            if cap[e] is not None and cap[e] <= 0:
                continue
            v = head[e]
            nd = d + costs[e] + potential[u] - potential[v]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = e
                heappush(heap, (nd, v))
    return dist, parent


def min_cost_transshipment_reference(n, arcs, supply, root):
    """Cheapest flow over uncapacitated arcs meeting the node supplies.

    ``arcs`` is a sequence of (u, v, cost) with cost >= 0; ``supply[v]`` is
    the net outflow node v must send (negative for a demand), and the
    supplies sum to zero.  Returns (flows, potentials): flows[k] is the flow
    on arcs[k], and potentials[v] is the shortest-path distance from root to
    v in the final residual graph.  So potentials[v] - potentials[u] is at
    most the cost of every arc u -> v, with equality on each arc that
    carries flow: the potentials are an optimal dual solution.
    """
    graph = _ResidualReference(n)
    costs = []
    for u, v, cost in arcs:
        graph.add(u, v, None)
        costs += [cost, -cost]
    excess = list(supply)
    if sum(excess) != 0:
        raise ValueError("supplies must sum to zero")
    potential = [0] * n
    while True:
        start = next((v for v in range(n) if excess[v] > 0), None)
        if start is None:
            break
        dist, parent = _dijkstra_reference(graph, costs, potential, start)
        target = min(
            (v for v in dist if excess[v] < 0),
            key=lambda v: (dist[v], v),
            default=None,
        )
        if target is None:
            raise ValueError("a supply cannot reach any demand")
        # capping at the target's distance keeps every reduced cost >= 0
        reach = dist[target]
        for v in range(n):
            potential[v] += min(dist.get(v, reach), reach)
        path = graph.path_to(parent, target)
        amount = min(
            [excess[start], -excess[target]]
            + [graph.cap[e] for e in path if graph.cap[e] is not None]
        )
        for e in path:
            graph.push(e, amount)
        excess[start] -= amount
        excess[target] += amount
    dist, _ = _dijkstra_reference(graph, costs, potential, root)
    if len(dist) < n:
        raise ValueError("a node is unreachable from the root")
    potentials = [dist[v] + potential[v] - potential[root] for v in range(n)]
    return graph.flows(len(arcs)), potentials


def _deficit_over(instance, joined):
    """max(mu(X), nu(X)) - F as an int over L, F the max flow over the
    support pairs whose scaled distance passes joined."""
    _, supply, demand, pairs = instance
    flow, _, _ = transport(supply, demand, [(r, c) for r, c, d in pairs if joined(d)])
    return max(sum(supply), sum(demand)) - flow


def prohorov_two_flow_probe(instance, scale, value):
    """Whether value is the infimum of the feasible eps, decided exactly.

    Just above the value (up to the next distance) the joined pairs are
    those with d <= value, and their deficit is constant: eps is feasible
    there iff it is at most the value.  Just below, the pairs with
    d < value are joined: eps is infeasible there iff their deficit is at
    least the value (for value > 0).  The distances are over scale.
    """
    p, q = value.numerator, value.denominator
    bound = p * instance[0]
    above = _deficit_over(instance, lambda d: d * q <= p * scale) * q <= bound
    below = p == 0 or _deficit_over(instance, lambda d: d * q < p * scale) * q >= bound
    return above and below


# ----------------------------------------------------------- model loading


def dense_model_sections(doc, spaces):
    """The measures, functions, kernels and metrics of a model document,
    each built from a dense list of as_fraction weights on the named
    spaces: {section: {name: object}}."""

    def dense(space, mapping):
        values = [Fraction(0)] * space.n_atoms
        for point, value in mapping.items():
            values[space.atom_index_of_point(point)] = as_fraction(value)
        return values

    built = {section: {} for section in ("measures", "functions", "kernels", "metrics")}
    for name, entry in doc.get("measures", {}).items():
        space = spaces[entry["space"]]
        weights = dense(space, entry.get("weights", {}))
        cls = Measure if all(w >= 0 for w in weights) else SignedMeasure
        built["measures"][name] = cls(space, weights)
    for name, entry in doc.get("functions", {}).items():
        space = spaces[entry["space"]]
        built["functions"][name] = StepFunction(space, dense(space, entry.get("values", {})))
    for name, entry in doc.get("kernels", {}).items():
        domain, codomain = spaces[entry["domain"]], spaces[entry["codomain"]]
        rows = [None] * domain.n_atoms
        for point, row in entry["rows"].items():
            rows[domain.atom_index_of_point(point)] = Measure(codomain, dense(codomain, row))
        built["kernels"][name] = Kernel(domain, codomain, rows, entry.get("kind"))
    for name, entry in doc.get("metrics", {}).items():
        dist = [[as_fraction(v) for v in row] for row in entry["dist"]]
        built["metrics"][name] = FiniteMetric.from_points(entry["points"], dist)
    return built
