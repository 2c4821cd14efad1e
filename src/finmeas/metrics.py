"""Metrics on measures over finite metric spaces.

Everything is exact and runs on the network-flow core in ``flow``, on
ints: each instance is scaled once from the measures' and the metric's
integer forms, and only the results are Fractions.  The
Lévy-Prohorov distance sweeps the breakpoint pieces of the support
pairs' distances upward on one ``transport`` network, whose max flow serves
both directions (Strassen's coupling characterisation of the subset
constraints: the joined relation is symmetric); the sweep's own flow and
Hall cut then certify its two optimality conditions exactly, by weak
max-flow/min-cut duality, with no further flow.  The Hutchinson
distance is a min-cost transshipment to a ground point, whose shortest-path
potentials are the optimal Lipschitz witness.  The weak-limit check's
portmanteau excess is the largest sum of positive parts of the tail's
per-atom differences; its verdicts compare those ints with the tolerance
exactly, and its witness is the positive atoms of a maximal row, with no
2^n scan.
"""

import math
from fractions import Fraction
from math import lcm
from operator import add, gt, itemgetter, sub

from .errors import InvalidGamma, SpaceMismatch
from .flow import min_cost_transshipment, transport, transport_sweep
from .rational import as_fraction, to_float
from .simplex import maximize  # noqa: F401  bench/spans.py wraps this attribute
from .spaces import FiniteMeasurableSpace


class FiniteMetric:
    """A metric on a finite carrier with singleton atoms.

    The distances are held once as the integer form ``scaled`` = (D, rows):
    d(i, j) is rows[i][j] / D over the lcm D of their denominators.
    Validates, on those ints, symmetry, zero diagonal, positivity off the
    diagonal and the triangle inequality.  ``normalized`` records whether
    all distances are at most one, which the Dirac isometry property
    requires.
    """

    def __init__(self, space, dist):
        if any(len(atom) != 1 for atom in space.atoms):
            raise ValueError("metric carrier must have singleton atoms")
        n = len(space.points)
        rows = [tuple(as_fraction(v) for v in row) for row in dist]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"distance matrix must be {n}x{n}")
        scale = lcm(*(v.denominator for row in rows for v in row))
        rows = tuple(
            tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows
        )
        # each unordered pair once: a failing (j, i), j > i, fails first as (i, j)
        for i in range(n):
            if rows[i][i] != 0:
                raise ValueError("distance matrix needs a zero diagonal")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("distance matrix must be symmetric")
                if rows[i][j] <= 0:
                    raise ValueError("off-diagonal distances must be positive")
        # rows is symmetric now, so column j is row j: the first k with
        # d(i, j) > d(i, k) + d(k, j) is the first with rows[i][j] above
        # rows[i][k] + rows[j][k]
        for i in range(n):
            row_i = rows[i]
            for j in range(i + 1, n):
                row_j = rows[j]
                if min(map(add, row_i, row_j)) < row_i[j]:
                    k = next(k for k in range(n) if row_i[j] > row_i[k] + row_j[k])
                    raise ValueError(
                        "triangle inequality fails at "
                        f"({space.points[i]},{space.points[j]},{space.points[k]})"
                    )
        self.space = space
        self.scaled = (scale, rows)
        self.normalized = all(v <= scale for row in rows for v in row)

    @classmethod
    def from_points(cls, points, dist):
        return cls(FiniteMeasurableSpace.discrete(points), dist)

    @property
    def dist(self):
        """The dense matrix of Fraction distances, built on each access."""
        scale, rows = self.scaled
        return [tuple(Fraction(v, scale) for v in row) for row in rows]

    def d(self, i, j):
        scale, rows = self.scaled
        return Fraction(rows[i][j], scale)

    def d_points(self, p, q):
        return self.d(self.space.point_index(p), self.space.point_index(q))


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
        # the values and the distances as ints over one denominator
        scale, rows = metric.scaled
        common = lcm(scale, *(v.denominator for v in values))
        ints = [v.numerator * (common // v.denominator) for v in values]
        factor = common // scale
        for i in range(n):
            for j in range(i + 1, n):
                if abs(ints[i] - ints[j]) > rows[i][j] * factor:
                    raise ValueError("witness is not 1-Lipschitz")
        self.metric = metric
        self.values = values
        self.gamma = gamma

    def objective(self, mu, nu):
        scale = lcm(mu.form[0], nu.form[0])
        diffs = map(sub, mu.ints_over(scale), nu.ints_over(scale))
        return Fraction(sum(v * d for v, d in zip(self.values, diffs) if d), scale)


def support(mu):
    """The set of atoms with positive weight: the smallest set of full measure.

    For the zero measure this is the empty set by convention (classically
    the support is defined only for nonzero measures).
    """
    return mu.space.set_of_atoms([j for j, num in zip(*mu.form[1:]) if num > 0])


def _check_metric_pair(mu, nu, metric):
    if mu.space != metric.space or nu.space != metric.space:
        raise SpaceMismatch("measures must live on the metric's space")


def _prohorov_instance(mu, nu, metric):
    """(L, supply, demand, pairs): the weights on the two supports (a
    Measure's form lists exactly its positive atoms) as ints over L, the
    lcm of the scales, and (r, c, d) for each support pair, d its distance
    as an int over the metric's scale."""
    _check_metric_pair(mu, nu, metric)
    (a, rows, mu_nums), (b, cols, nu_nums) = mu.form, nu.form
    big, dist = lcm(a, b), metric.scaled[1]
    pairs = [(r, c, dist[i][j]) for r, i in enumerate(rows) for c, j in enumerate(cols)]
    return big, [w * big // a for w in mu_nums], [w * big // b for w in nu_nums], pairs


def prohorov_distance(mu, nu, metric):
    """Exact Lévy-Prohorov distance.

    d_P is the infimum of eps such that for every subset B, each measure's
    value on B is at most the other's value on the open eps-neighborhood
    B^eps = {x : d(x, B) < eps} plus eps.  Each direction's feasible eps
    form an up-set, so d_P is the infimum of the eps feasible for both.
    On the piece (t[k], t[k+1]] of the sorted distinct support-pair
    distances t (0 included) B^eps is {x : d(x, B) <= t[k]}, so the worst deficit G[k] of
    both directions, one max flow, is constant there and the piece holds
    a feasible eps iff G[k] <= t[k+1].  The pieces' pairs are nested, so
    one flow swept upward prices each in turn, and G[k] does not increase:
    the sweep stops at the first such piece (or the last), where d_P is
    max(G[k], t[k]).  It runs on ints: t as the metric's scaled distances
    over D, G over the measures' common scale L.  The flow at piece k and
    the Hall cut of piece k (or of piece k - 1, when d_P is t[k]) are the
    certificate that ``_prohorov_certified`` checks.
    """
    instance = _prohorov_instance(mu, nu, metric)
    big, supply, demand, pairs = instance
    scale = metric.scaled[0]
    thresholds = sorted({d for _, _, d in pairs} | {0})
    # in distance order, so the sweep's k-th pair flow is on pairs[k]
    pairs.sort(key=itemgetter(2))
    pieces = {t: [] for t in thresholds}
    for r, c, d in pairs:
        pieces[d].append((r, c))
    total = max(sum(supply), sum(demand))
    sweep = transport_sweep(supply, demand, map(pieces.get, thresholds))
    last = len(thresholds) - 1
    before = []
    for k, (flow, reached, flows) in enumerate(sweep):
        if k == last or (total - flow) * scale <= thresholds[k + 1] * big:
            break
        before = reached
    best = max(Fraction(total - flow, big), Fraction(thresholds[k], scale))
    # the pairs closer than best are pieces 0..k, or 0..k-1 when best is t[k]
    hall = reached if best * scale > thresholds[k] else before
    if not _prohorov_certified(instance, scale, best, flows(), hall):
        raise AssertionError(f"Prohorov value {best} is not the infimum")
    return best


def prohorov_feasible(mu, nu, metric, eps):
    """Whether eps satisfies both Prohorov constraints for every subset.

    eps must bound mu(B) - nu(N(B)) and nu(B) - mu(N(B)) for every B, N(B)
    the points within d < eps of B.  By Hall's deficiency form (Strassen
    1965) each maximum is a total less the max flow F over the joined
    support pairs (ints over L, the lcm of the scales): one F serves both.
    """
    big, supply, demand, pairs = _prohorov_instance(mu, nu, metric)
    eps = as_fraction(eps)
    p, q, scale = eps.numerator, eps.denominator, metric.scaled[0]
    joined = [(r, c) for r, c, d in pairs if d * q < p * scale]
    flow, _, _ = transport(supply, demand, joined)
    return (max(sum(supply), sum(demand)) - flow) * q <= p * big


def _prohorov_certified(instance, scale, value, flows, hall):
    """Whether flows and hall prove value the infimum of the feasible eps.

    flows[k] is the flow on pairs[k] (pairs past the list carry none) and
    hall holds supply nodes (other members are ignored); the distances are
    ints over scale.  Above: the flows are a feasible flow F over the
    pairs with d <= value whose deficit is at most the value, so every eps
    above it is feasible.  Below (for value > 0): any flow over the pairs
    with d < value is at most the cut of hall's supply complement and its
    neighbours over those pairs, and the deficit that cut leaves is at
    least the value, so no eps below it is feasible.  Weak duality on
    ints, with no flow run.
    """
    big, supply, demand, pairs = instance
    p, q = value.numerator, value.denominator
    sent, received = [0] * len(supply), [0] * len(demand)
    for f, (r, c, d) in zip(flows, pairs):
        if f < 0 or f and d * q > p * scale:
            return False
        sent[r] += f
        received[c] += f
    if any(map(gt, sent, supply)) or any(map(gt, received, demand)):
        return False
    total = max(sum(supply), sum(demand))
    if (total - sum(sent)) * q > p * big:
        return False
    if p == 0:
        return True
    joined = {c for r, c, d in pairs if r in hall and d * q < p * scale}
    cut = sum(w for r, w in enumerate(supply) if r not in hall)
    cut += sum(demand[c] for c in joined)
    return (total - cut) * q >= p * big


def hutchinson_distance(mu, nu, metric, gamma):
    """Exact Hutchinson distance with an optimal witness.

    H_gamma(mu, nu) is the supremum of integral f dmu - integral f dnu over
    1-Lipschitz f bounded by gamma.  By Kantorovich-Rubinstein duality with
    a ground point g (Hanin 1992) this is the cheapest transshipment of the
    supplies mu - nu, with g absorbing or supplying the mass gap, over arcs
    of cost d(x, y) between points and gamma between each point and g;
    arcs of cost 2 gamma or more are left out, since the route through g is
    as cheap.  The witness is f(x) = pi(g) - pi(x) for the residual
    shortest-path distances pi from g.  The transshipment runs on ints:
    costs over the lcm of the metric's scale and gamma's denominator,
    supplies over the lcm of the measures' scales.  The value is checked
    from both sides: the flows are nonnegative and meet every supply, so
    H <= value, and the witness attains it, so H >= value.  Returns
    (value, LipschitzWitness).
    """
    _check_metric_pair(mu, nu, metric)
    gamma = as_fraction(gamma)
    if gamma <= 0:
        raise InvalidGamma(f"gamma must be positive, got {gamma}")
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
    witness = LipschitzWitness(
        metric,
        [Fraction(potentials[ground] - potentials[i], cost_scale) for i in range(n)],
        gamma,
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
    The residuals are ints over one scale and each verdict compares them
    with tol exactly (a float tol converts exactly); only the reported
    residuals are floats.  Returns a WeakLimitReport; when (ii) fails,
    witness_set is the set an exact scan of all atom masks in counting
    order keeps: the positive atoms of the least-mask row among the tail
    rows of largest positive part.  tol must be finite and nonnegative
    (ValueError).
    """
    if (isinstance(tol, float) and not math.isfinite(tol)) or tol < 0:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    sequence = list(sequence)
    if not sequence:
        raise ValueError("need at least one element in the sequence")
    for m in sequence:
        if m.space != metric.space:
            raise SpaceMismatch("sequence measures must live on the metric's space")
    if limit.space != metric.space:
        raise SpaceMismatch("limit must live on the metric's space")
    tol = Fraction(tol)
    tail = sequence[len(sequence) // 2 :]
    scale = lcm(limit.form[0], *(m.form[0] for m in tail))
    limit_ints = limit.ints_over(scale)
    diffs = [list(map(sub, m.ints_over(scale), limit_ints)) for m in tail]
    per_atom = max(abs(d) for row in diffs for d in row)
    mass = max(abs(sum(row)) for row in diffs)
    positive = [sum(d for d in row if d > 0) for row in diffs]
    excess = max(positive)

    def within(x):  # x / scale <= tol, on ints
        return x * tol.denominator <= tol.numerator * scale

    portmanteau_ok = within(excess)
    witness_set = None
    if not portmanteau_ok:
        mask = min(
            sum(1 << k for k, d in enumerate(row) if d > 0)
            for row, x in zip(diffs, positive)
            if x == excess
        )
        witness_set = metric.space.set_of_atoms(
            [k for k in range(metric.space.n_atoms) if mask >> k & 1]
        )
    # int division rounds correctly: each maximum converts once
    return WeakLimitReport(
        within(per_atom),
        portmanteau_ok,
        within(mass),
        to_float(Fraction(per_atom, scale)),
        to_float(Fraction(excess, scale)),
        to_float(Fraction(mass, scale)),
        witness_set,
    )
