"""Metrics on measures over finite metric spaces.

Everything is exact and runs on the network-flow core in ``flow``.  The
Lévy-Prohorov distance bisects the breakpoint pieces of the distinct
distances, pricing each piece with one max flow per direction (Strassen's
coupling characterisation of the subset constraints).  The Hutchinson
distance is a min-cost transshipment to a ground point, whose shortest-path
potentials are the optimal Lipschitz witness.  The weak-limit check's
portmanteau excess is the largest sum of positive parts of the tail's
per-atom differences.
"""

from fractions import Fraction

from .errors import InvalidGamma, SpaceMismatch
from .flow import max_flow, min_cost_transshipment
from .rational import as_fraction
from .simplex import maximize  # noqa: F401  bench/spans.py wraps this attribute
from .spaces import FiniteMeasurableSpace


class FiniteMetric:
    """A metric on a finite carrier with singleton atoms.

    Validates symmetry, zero diagonal, positivity off the diagonal and the
    triangle inequality.  ``normalized`` records whether all distances are
    at most one, which the Dirac isometry property requires.
    """

    def __init__(self, space, dist):
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
        self.space = space
        self.dist = rows
        self.normalized = all(v <= 1 for row in rows for v in row)

    @classmethod
    def from_points(cls, points, dist):
        return cls(FiniteMeasurableSpace.discrete(points), dist)

    def d(self, i, j):
        return self.dist[i][j]

    def d_points(self, p, q):
        return self.dist[self.space.point_index(p)][self.space.point_index(q)]

    def d_to_set(self, i, subset):
        """Distance from point index i to a nonempty set of point indices."""
        return min(self.dist[i][j] for j in subset)


class LipschitzWitness:
    """A 1-Lipschitz function bounded by gamma, one value per point."""

    def __init__(self, metric, values, gamma):
        values = tuple(as_fraction(v) for v in values)
        gamma = as_fraction(gamma)
        n = len(metric.space.points)
        if len(values) != n:
            raise ValueError(f"expected {n} values")
        for v in values:
            if abs(v) > gamma:
                raise ValueError("witness exceeds the gamma bound")
        for i in range(n):
            for j in range(i + 1, n):
                if abs(values[i] - values[j]) > metric.dist[i][j]:
                    raise ValueError("witness is not 1-Lipschitz")
        self.metric = metric
        self.values = values
        self.gamma = gamma

    def objective(self, mu, nu):
        return sum(
            (v * (a - b) for v, a, b in zip(self.values, mu.weights, nu.weights)),
            start=Fraction(0),
        )


def support(mu):
    """The set of atoms with positive weight: the smallest set of full measure.

    For the zero measure this is the empty set by convention (classically
    the support is defined only for nonzero measures).
    """
    return mu.space.set_of_atoms(
        [k for k, w in enumerate(mu.weights) if w > 0]
    )


def _check_metric_pair(mu, nu, metric):
    if mu.space != metric.space or nu.space != metric.space:
        raise SpaceMismatch("measures must live on the metric's space")


def _deficit(rho, sigma, metric, joined):
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
    arcs += [
        (i, n + j, None) for i in rows for j in cols if joined(metric.dist[i][j])
    ]
    arcs += [(n + j, sink, sigma[j]) for j in cols]
    flow, _, _ = max_flow(2 * n + 2, arcs, source, sink)
    return sum(rho, start=Fraction(0)) - flow


def _one_sided_min_eps(rho, sigma, metric, thresholds):
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
            deficits[k] = _deficit(rho, sigma, metric, lambda d: d <= bound)
        return deficits[k]

    lo, hi = 0, len(thresholds) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if deficit(mid) <= thresholds[mid + 1]:
            hi = mid
        else:
            lo = mid + 1
    return max(deficit(lo), thresholds[lo])


def prohorov_distance(mu, nu, metric):
    """Exact Lévy-Prohorov distance.

    d_P is the infimum of eps such that for every subset B, each measure's
    value on B is at most the other's value on the open eps-neighborhood
    B^eps = {x : d(x, B) < eps} plus eps.  Per direction the worst subset
    is found by a max flow (Strassen's coupling characterisation), and the
    least feasible eps by bisection over the breakpoint pieces of the
    distinct distances; d_P is the larger of the two directions.  The
    feasible set may be open at d_P (the infimum is a limit), which the
    internal probe checks.
    """
    _check_metric_pair(mu, nu, metric)
    thresholds = sorted({d for row in metric.dist for d in row} | {Fraction(0)})
    best = max(
        _one_sided_min_eps(nu.weights, mu.weights, metric, thresholds),
        _one_sided_min_eps(mu.weights, nu.weights, metric, thresholds),
    )
    if not _prohorov_feasible_above(mu, nu, metric, best):
        raise AssertionError(f"Prohorov value {best} is not the infimum")
    return best


def prohorov_feasible(mu, nu, metric, eps):
    """Whether eps satisfies both Prohorov constraints for every subset."""
    _check_metric_pair(mu, nu, metric)

    def joined(d):
        return d < eps

    return all(
        _deficit(rho, sigma, metric, joined) <= eps
        for rho, sigma in ((nu.weights, mu.weights), (mu.weights, nu.weights))
    )


def _prohorov_feasible_above(mu, nu, metric, value):
    """Probe that the computed value is the true infimum.

    Feasibility must hold just above the value and fail just below it.
    The probe gap is half the smallest spacing of the candidate breakpoints.
    """
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
    if not prohorov_feasible(mu, nu, metric, value + step):
        return False
    if value > 0 and prohorov_feasible(mu, nu, metric, value - min(step, value / 2)):
        return False
    return True


def hutchinson_distance(mu, nu, metric, gamma):
    """Exact Hutchinson distance with an optimal witness.

    H_gamma(mu, nu) is the supremum of integral f dmu - integral f dnu over
    1-Lipschitz f bounded by gamma.  By Kantorovich-Rubinstein duality with
    a ground point g (Hanin 1992) this is the cheapest transshipment of the
    supplies mu - nu, with g absorbing or supplying the mass gap, over arcs
    of cost d(x, y) between points and gamma between each point and g;
    arcs of cost 2 gamma or more are left out, since the route through g is
    as cheap.  The witness is f(x) = pi(g) - pi(x) for the residual
    shortest-path distances pi from g.  Returns (value, LipschitzWitness).
    """
    _check_metric_pair(mu, nu, metric)
    gamma = as_fraction(gamma)
    if gamma <= 0:
        raise InvalidGamma(f"gamma must be positive, got {gamma}")
    n = len(metric.space.points)
    supply = [mu.weights[i] - nu.weights[i] for i in range(n)]
    supply.append(-sum(supply, start=Fraction(0)))
    ground = n
    arcs = [
        (i, j, metric.dist[i][j])
        for i in range(n)
        for j in range(n)
        if i != j and metric.dist[i][j] < 2 * gamma
    ]
    for i in range(n):
        arcs += [(i, ground, gamma), (ground, i, gamma)]
    flows, potentials = min_cost_transshipment(n + 1, arcs, supply, ground)
    value = sum((f * cost for f, (_, _, cost) in zip(flows, arcs)), start=Fraction(0))
    witness = LipschitzWitness(
        metric, [potentials[ground] - potentials[i] for i in range(n)], gamma
    )
    if witness.objective(mu, nu) != value:
        raise AssertionError(
            f"Hutchinson witness attains {witness.objective(mu, nu)}, not {value}"
        )
    return value, witness


class WeakLimitReport:
    """Diagnostics for weak convergence of a finite sequence of measures.

    The tail of the sequence (its second half, at least the final element)
    stands in for the limit behavior.  On a finite discrete space per-atom
    convergence is equivalent to the subset criterion plus total-mass
    convergence, so criteria_agree holds whenever the residuals are far
    from the tolerance.
    """

    def __init__(
        self,
        per_atom_ok,
        portmanteau_ok,
        mass_ok,
        per_atom_residual,
        portmanteau_excess,
        mass_residual,
        witness_set,
    ):
        self.per_atom_ok = per_atom_ok
        self.portmanteau_ok = portmanteau_ok
        self.mass_ok = mass_ok
        self.converges = per_atom_ok and portmanteau_ok and mass_ok
        self.per_atom_residual = per_atom_residual
        self.portmanteau_excess = portmanteau_excess
        self.mass_residual = mass_residual
        self.witness_set = witness_set

    def criteria_agree(self):
        return self.per_atom_ok == (self.portmanteau_ok and self.mass_ok)


def check_weak_limit(sequence, limit, metric, tol):
    """Check the three Portmanteau-style criteria against a tolerance.

    (i) per-atom weights of the tail stay within tol of the limit's,
    (ii) every subset F has tail mass at most limit(F) + tol,
    (iii) total masses of the tail stay within tol of the limit's.
    Returns a WeakLimitReport; witness_set is a maximally violating subset
    when (ii) fails.
    """
    sequence = list(sequence)
    if not sequence:
        raise ValueError("need at least one element in the sequence")
    for m in sequence:
        if m.space != metric.space:
            raise SpaceMismatch("sequence measures must live on the metric's space")
    if limit.space != metric.space:
        raise SpaceMismatch("limit must live on the metric's space")
    n = len(metric.space.atoms)
    tol = Fraction(tol) if not isinstance(tol, float) else tol
    tail = sequence[len(sequence) // 2 :]

    per_atom_residual = max(
        abs(float(m.weights[k] - limit.weights[k]))
        for m in tail
        for k in range(n)
    )
    mass_residual = max(abs(float(m.total() - limit.total())) for m in tail)

    diffs = [
        [a - b for a, b in zip(m.weights, limit.weights)] for m in tail
    ]
    portmanteau_excess = max(
        float(sum((d for d in row if d > 0), start=Fraction(0))) for row in diffs
    )
    per_atom_ok = per_atom_residual <= tol
    portmanteau_ok = portmanteau_excess <= tol
    mass_ok = mass_residual <= tol
    witness_set = None
    if not portmanteau_ok and portmanteau_excess > 0:
        mask = min(_first_mask(row, portmanteau_excess) for row in diffs)
        witness_set = metric.space.set_of_atoms(
            [k for k in range(n) if mask >> k & 1]
        )
    return WeakLimitReport(
        per_atom_ok,
        portmanteau_ok,
        mass_ok,
        per_atom_residual,
        portmanteau_excess,
        mass_residual,
        witness_set,
    )


def _first_mask(diffs, excess):
    """Least atom mask S with float(sum of diffs over S) == excess, if any.

    This is the set a scan of all atom masks in counting order would keep.
    The positive diffs give the largest sum and float rounding is monotone,
    so, from the top bit down, a bit may stay clear exactly when the best
    completion below it still rounds to excess.  Returns 1 << len(diffs),
    above every mask, when this row never reaches excess.
    """
    below = [Fraction(0)]
    for d in diffs:
        below.append(below[-1] + max(d, Fraction(0)))
    if float(below[-1]) != excess:
        return 1 << len(diffs)
    mask, fixed = 0, Fraction(0)
    for k in reversed(range(len(diffs))):
        if float(fixed + below[k]) != excess:
            mask |= 1 << k
            fixed += diffs[k]
    return mask
