"""The subset-scan and dense-LP algorithms the library used to run.

The library now computes these quantities with network flows and closed
forms.  The scans below are the earlier implementations, kept unchanged
apart from their names, as independent oracles for small spaces: the
Prohorov distance and feasibility by enumerating every subset, the
weak-limit check and the pi-system uniqueness witness by enumerating every
measurable set, the Hutchinson distance as the dense bounded-Lipschitz LP
for the rational simplex, and coupling feasibility as the transportation
LP for the rational simplex with a separate max-flow Hall cut.
"""

from fractions import Fraction
from itertools import combinations

from finmeas.errors import CapacityExceeded, MassMismatch
from finmeas.flow import max_flow
from finmeas.logic_bisim import Infeasible
from finmeas.measures import Measure
from finmeas.metrics import WeakLimitReport
from finmeas.rational import atom_cap
from finmeas.simplex import OPTIMAL, maximize
from finmeas.spaces import product_space


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


def prohorov_distance_scan(mu, nu, metric):
    """Lévy-Prohorov distance as the maximum, over every subset and both
    directions, of the per-subset least feasible eps."""
    n = len(metric.space.points)
    best = Fraction(0)
    indices = range(n)
    for size in range(1, n + 1):
        for subset in combinations(indices, size):
            dists = [metric.d_to_set(i, subset) for i in indices]
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
                i for i in indices if metric.d_to_set(i, subset) < eps
            ]
            mu_b = sum((mu.weights[i] for i in subset), start=Fraction(0))
            nu_b = sum((nu.weights[i] for i in subset), start=Fraction(0))
            mu_n = sum((mu.weights[i] for i in neighborhood), start=Fraction(0))
            nu_n = sum((nu.weights[i] for i in neighborhood), start=Fraction(0))
            if nu_b > mu_n + eps or mu_b > nu_n + eps:
                return False
    return True


def check_weak_limit_scan(sequence, limit, metric, tol):
    """The weak-limit report with the portmanteau excess maximised over
    every measurable set in mask order."""
    sequence = list(sequence)
    n = len(metric.space.atoms)
    if n > atom_cap():
        raise CapacityExceeded(
            f"{n} atoms exceed the subset-enumeration cap {atom_cap()}"
        )
    tol = Fraction(tol) if not isinstance(tol, float) else tol
    tail = sequence[len(sequence) // 2 :]

    per_atom_residual = max(
        abs(float(m.weights[k] - limit.weights[k]))
        for m in tail
        for k in range(n)
    )
    mass_residual = max(abs(float(m.total() - limit.total())) for m in tail)

    portmanteau_excess = 0.0
    witness_set = None
    for mset in metric.space.measurable_sets():
        limit_mass = limit.eval(mset)
        for m in tail:
            excess = float(m.eval(mset) - limit_mass)
            if excess > portmanteau_excess:
                portmanteau_excess = excess
                witness_set = mset
    per_atom_ok = per_atom_residual <= tol
    portmanteau_ok = portmanteau_excess <= tol
    mass_ok = mass_residual <= tol
    return WeakLimitReport(
        per_atom_ok,
        portmanteau_ok,
        mass_ok,
        per_atom_residual,
        portmanteau_excess,
        mass_residual,
        witness_set if not portmanteau_ok else None,
    )


def hutchinson_lp(mu, nu, metric, gamma):
    """Hutchinson value and optimal f from the dense LP in the shifted
    variables x_i = f(x_i) + gamma, solved by the rational simplex."""
    gamma = Fraction(gamma)
    n = len(metric.space.points)
    c = [mu.weights[i] - nu.weights[i] for i in range(n)]
    a_ub = []
    b_ub = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [Fraction(0)] * n
            row[i], row[j] = Fraction(1), Fraction(-1)
            a_ub.append(row)
            b_ub.append(metric.dist[i][j])
            a_ub.append([-v for v in row])
            b_ub.append(metric.dist[i][j])
    for i in range(n):
        row = [Fraction(0)] * n
        row[i] = Fraction(1)
        a_ub.append(row)
        b_ub.append(2 * gamma)
    result = maximize(c, a_ub=a_ub, b_ub=b_ub)
    assert result.status == OPTIMAL
    shift = gamma * sum(c, start=Fraction(0))
    return result.value - shift, [x - gamma for x in result.x]


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
    flow, reached, _ = max_flow(n1 + n2 + 2, arcs, source, sink)
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
