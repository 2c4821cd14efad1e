"""The flow and closed-form metrics against the subset scans and dense LP
they replaced (kept in ``oracles``)."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finmeas import flow, metrics
from finmeas.measures import Measure
from finmeas.metrics import (
    FiniteMetric,
    LipschitzWitness,
    check_weak_limit,
    hutchinson_distance,
    prohorov_distance,
    prohorov_feasible,
)
from finmeas.spaces import FiniteMeasurableSpace

from conftest import rand_metric
from oracles import (
    _deficit_fraction,
    backbone_closure,
    check_weak_limit_scan,
    finite_metric_rows_fraction,
    hutchinson_distance_fraction,
    hutchinson_full_arcs,
    hutchinson_lp,
    lipschitz_all_pairs,
    prohorov_distance_fraction,
    prohorov_distance_per_direction,
    prohorov_distance_scan,
    prohorov_feasible_fraction,
    prohorov_feasible_per_direction,
    prohorov_feasible_scan,
    prohorov_two_flow_probe,
)


@st.composite
def metrics_on(draw, max_points=8):
    """A metric on up to max_points points, with many tied distances.

    Either integer points on a line, or steps of 1/4 from a short list
    closed under shortest paths.
    """
    n = draw(st.integers(1, max_points))
    if draw(st.booleans()):
        coords = draw(st.lists(st.integers(0, 3 * n), min_size=n, max_size=n, unique=True))
        dist = [[Fraction(abs(a - b)) for b in coords] for a in coords]
    else:
        dist = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = Fraction(draw(st.integers(1, 4)), 4)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return FiniteMetric.from_points([f"x{k}" for k in range(n)], dist)


@st.composite
def subprobabilities(draw, space):
    """Weights num_k / den with total at most one; zero atoms are common."""
    nums = draw(st.lists(st.integers(0, 4), min_size=len(space.atoms), max_size=len(space.atoms)))
    den = sum(nums) + draw(st.integers(0, 3)) or 1
    return Measure(space, [Fraction(k, den) for k in nums])


@st.composite
def metric_and_pair(draw):
    metric = draw(metrics_on())
    mu = draw(subprobabilities(metric.space))
    nu = mu if draw(st.integers(0, 5)) == 0 else draw(subprobabilities(metric.space))
    return metric, mu, nu


@settings(max_examples=150, deadline=None)
@given(metric_and_pair())
def test_prohorov_flow_equals_subset_scan(case):
    metric, mu, nu = case
    value = prohorov_distance(mu, nu, metric)
    assert value == prohorov_distance_scan(mu, nu, metric)
    if mu.weights == nu.weights:
        assert value == 0


@settings(max_examples=150, deadline=None)
@given(metric_and_pair(), st.data())
def test_prohorov_feasible_equals_subset_scan_on_breakpoints(case, data):
    metric, mu, nu = case
    # distances are where the strict neighbourhood jumps
    breakpoints = sorted({d for row in metric.dist for d in row})
    value = prohorov_distance_scan(mu, nu, metric)
    candidates = breakpoints + [value, value + Fraction(1, 97), value / 2]
    eps = data.draw(st.sampled_from(candidates))
    assert prohorov_feasible(mu, nu, metric, eps) == prohorov_feasible_scan(mu, nu, metric, eps)


@settings(max_examples=300, deadline=None)
@given(metric_and_pair())
def test_prohorov_one_flow_equals_the_per_direction_flows(case):
    # one search over the larger deficit max(mu(X), nu(X)) - F finds the
    # larger of the two one-sided infima, unequal totals included
    metric, mu, nu = case
    assert prohorov_distance(mu, nu, metric) == prohorov_distance_per_direction(
        mu, nu, metric
    )


@settings(max_examples=300, deadline=None)
@given(metric_and_pair(), st.data())
def test_prohorov_feasible_one_flow_equals_the_per_direction_flows(case, data):
    metric, mu, nu = case
    breakpoints = sorted({d for row in metric.dist for d in row})
    weights = sorted(set(mu.weights) | set(nu.weights))
    value = prohorov_distance_per_direction(mu, nu, metric)
    candidates = breakpoints + weights + [value, value + Fraction(1, 97), value / 2]
    eps = data.draw(st.sampled_from(candidates))
    assert prohorov_feasible(mu, nu, metric, eps) == prohorov_feasible_per_direction(
        mu, nu, metric, eps
    )


@st.composite
def mixed_metric_and_pair(draw):
    """Points on a line at coordinates of mixed denominators, so the
    metric's scale, the two measures' scales and gamma's all differ."""
    n = draw(st.integers(1, 7))
    coord = st.builds(Fraction, st.integers(0, 12), st.integers(1, 6))
    coords = draw(st.lists(coord, min_size=n, max_size=n, unique=True))
    metric = FiniteMetric.from_points(
        [f"x{k}" for k in range(n)], [[abs(a - b) for b in coords] for a in coords]
    )
    mu = draw(subprobabilities(metric.space))
    nu = draw(subprobabilities(metric.space))
    return metric, mu, nu


@settings(max_examples=200, deadline=None)
@given(st.one_of(metric_and_pair(), mixed_metric_and_pair()), st.data())
def test_integer_prohorov_equals_the_fraction_form(case, data):
    metric, mu, nu = case
    value = prohorov_distance(mu, nu, metric)
    assert value == prohorov_distance_fraction(mu, nu, metric)
    breakpoints = sorted({d for row in metric.dist for d in row})
    weights = sorted(set(mu.weights) | set(nu.weights))
    candidates = breakpoints + weights + [value, value + Fraction(1, 97), value / 3]
    eps = data.draw(st.sampled_from(candidates))
    assert prohorov_feasible(mu, nu, metric, eps) == prohorov_feasible_fraction(
        mu, nu, metric, eps
    )


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(metric_and_pair(), mixed_metric_and_pair()),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 7)),
)
def test_integer_hutchinson_equals_the_fraction_form(case, gamma):
    # the value and the witness, not only the value: scaling keeps every
    # Dijkstra tie-break, so the potentials are the same
    metric, mu, nu = case
    value, witness = hutchinson_distance(mu, nu, metric, gamma)
    assert (value, list(witness.values)) == hutchinson_distance_fraction(
        mu, nu, metric, gamma
    )


def _outcome(build):
    try:
        return build()
    except ValueError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(metrics_on(max_points=6), st.data())
def test_integer_metric_checks_refuse_what_the_fraction_checks_refuse(metric, data):
    # a valid metric with a few entries changed, mostly off the diagonal
    # and with their mirror: the same matrices pass, and each refused one
    # gets the same message, the triangle naming the same (i, j, k)
    n = len(metric.space.points)
    rows = [list(row) for row in metric.dist]
    entry = st.builds(Fraction, st.integers(-1, 6), st.integers(1, 4))
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, n - 1))
        j = (i + data.draw(st.integers(0, 3 * n)) % n) % n
        rows[i][j] = data.draw(entry)
        if data.draw(st.integers(0, 3)):
            rows[j][i] = rows[i][j]
    got = _outcome(lambda: FiniteMetric(metric.space, rows))
    want = _outcome(lambda: finite_metric_rows_fraction(metric.space, rows))
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dist == want


@st.composite
def square_matrices(draw):
    # zero diagonal and symmetry each drawn, so every check gets to fail first
    n = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-1, 5), st.integers(1, 3))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = Fraction(0)
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return rows


@settings(max_examples=500, deadline=None)
@given(square_matrices())
def test_unordered_pair_checks_match_the_ordered_pair_scan(rows):
    space = FiniteMeasurableSpace.discrete([f"x{k}" for k in range(len(rows))])
    got = _outcome(lambda: FiniteMetric(space, rows))
    want = _outcome(lambda: finite_metric_rows_fraction(space, rows))
    assert got == want if isinstance(want, str) else got.dist == want


@settings(max_examples=300, deadline=None)
@given(square_matrices(), st.sampled_from([2, 21, 32, 64, 85, 128, 2**15, 10**20]))
def test_metric_checks_match_the_ordered_pair_scan_across_field_widths(rows, m):
    rows = [[v * m for v in row] for row in rows]
    space = FiniteMeasurableSpace.discrete([f"x{k}" for k in range(len(rows))])
    got = _outcome(lambda: FiniteMetric(space, rows))
    want = _outcome(lambda: finite_metric_rows_fraction(space, rows))
    assert got == want if isinstance(want, str) else got.dist == want


LINE = FiniteMetric.from_points(
    [f"x{k}" for k in range(20)],
    [[Fraction(abs(a - b), 32) for b in range(20)] for a in range(20)],
)


@settings(max_examples=100, deadline=None)
@given(metric_and_pair())
# the two ends of a short line: the first feasible piece is the last one
@example((LINE, Measure.dirac(LINE.space, "x0"), Measure.dirac(LINE.space, "x19")))
# two zero measures: both supports are empty, and piece 0 is feasible
@example((LINE, Measure.zero(LINE.space), Measure.zero(LINE.space)))
def test_prohorov_sweeps_one_network_up_to_the_answer_piece(case):
    # the answer piece k of the Fraction bisection is the first piece whose
    # deficit G[k] is at most the next distance, or the last piece; the
    # sweep augments one network once for each piece j = 0..k, holding the
    # support pairs within t[j] by then, and the check of the value
    # augments no other network: it reads the sweep's own flow and Hall cut
    metric, mu, nu = case
    dist = metric.dist
    rows = [i for i, w in enumerate(mu.weights) if w > 0]
    cols = [j for j, w in enumerate(nu.weights) if w > 0]
    # the pieces run between the support pairs' distances: between them
    # the deficit does not change
    thresholds = sorted({dist[i][j] for i in rows for j in cols} | {Fraction(0)})
    deficits = [
        _deficit_fraction(mu.weights, nu.weights, dist, lambda d: d <= t)
        for t in thresholds
    ]
    k = next(
        k for k in range(len(thresholds))
        if k + 1 == len(thresholds) or deficits[k] <= thresholds[k + 1]
    )
    value = prohorov_distance_fraction(mu, nu, metric)
    assert value == max(deficits[k], thresholds[k])
    sweep = [
        len(rows) + len(cols) + sum(dist[i][j] <= t for i in rows for j in cols)
        for t in thresholds[: k + 1]
    ]
    calls = []
    augment = flow._augment

    def spy(graph, source, sink):
        calls.append((graph, len(graph.head) // 2))
        return augment(graph, source, sink)

    with mock.patch.object(flow, "_augment", spy):
        assert prohorov_distance(mu, nu, metric) == value
    assert [arcs for graph, arcs in calls if graph is calls[0][0]] == sweep
    assert len(calls) == len(sweep)


def _certificate(mu, nu, metric):
    """prohorov_distance's value and the arguments of its check:
    (instance, scale, value, flows, hall)."""
    check = mock.patch.object(
        metrics, "_prohorov_certified", wraps=metrics._prohorov_certified
    )
    with check as spy:
        value = prohorov_distance(mu, nu, metric)
    return value, spy.call_args.args


@settings(max_examples=200, deadline=None)
@given(metric_and_pair())
@example((LINE, Measure.dirac(LINE.space, "x0"), Measure.dirac(LINE.space, "x19")))
@example((LINE, Measure.zero(LINE.space), Measure.zero(LINE.space)))
def test_prohorov_probe_accepts_the_value_and_nothing_near_it(case):
    # the check decides both optimality conditions exactly from the sweep's
    # certificate, so it refuses values a breakpoint-gap step would miss,
    # such as value +- 10^-6; the two-flow probe it replaced accepts
    # exactly the same values
    metric, mu, nu = case
    value, (instance, scale, _, flows, hall) = _certificate(mu, nu, metric)
    assert metrics._prohorov_certified(instance, scale, value, flows, hall)
    assert prohorov_two_flow_probe(instance, scale, value)
    tiny = Fraction(1, 10**6)
    wrong = [value + tiny] + [value - tiny] * (value >= tiny)
    if value > 0:
        wrong += [value / 2, 2 * value]
    for other in wrong + [Fraction(1, 8), Fraction(3, 35)]:
        accepted = metrics._prohorov_certified(instance, scale, other, flows, hall)
        assert accepted == prohorov_two_flow_probe(instance, scale, other)
        assert accepted == (other == value)


@settings(max_examples=300, deadline=None)
@given(metric_and_pair(), st.data())
@example(
    (LINE, Measure.dirac(LINE.space, "x0"), Measure.dirac(LINE.space, "x19")), None
)
def test_prohorov_check_refuses_bad_certificates(case, data):
    # the sweep's certificate changed in one place: a unit of flow moved
    # onto a pair farther than the value, a pair flow above its row's
    # supply, a near pair flow that overfills its column while its row
    # has room, a negative pair flow, a Hall set widened by a supply node
    # whose neighbours raise the cut past total - value
    metric, mu, nu = case
    value, (instance, scale, _, flows, hall) = _certificate(mu, nu, metric)
    big, supply, demand, pairs = instance
    p, q = value.numerator, value.denominator

    def certified(flows, hall):
        return metrics._prohorov_certified(instance, scale, value, flows, hall)

    def draw(options):
        return options[0] if data is None else data.draw(st.sampled_from(options))

    flows = flows + [0] * (len(pairs) - len(flows))
    assert certified(flows, hall)
    carrying = [k for k, f in enumerate(flows) if f > 0]
    far = [k for k, (_, _, d) in enumerate(pairs) if d * q > p * scale]
    changed = []
    if carrying and far:
        moved = list(flows)
        moved[draw(carrying)] -= 1
        moved[draw(far)] += 1
        changed.append(moved)
    if pairs:
        k = draw(range(len(pairs)))
        over, negative = list(flows), list(flows)
        over[k] = supply[pairs[k][0]] + 1
        negative[k] = -1
        changed += [over, negative]
    sent, received = [0] * len(supply), [0] * len(demand)
    for f, (r, c, _) in zip(flows, pairs):
        sent[r] += f
        received[c] += f
    overfill = [
        k for k, (r, c, d) in enumerate(pairs)
        if d * q <= p * scale and demand[c] - received[c] < supply[r] - sent[r]
    ]
    if overfill:
        k = draw(overfill)
        r, c, _ = pairs[k]
        column = list(flows)
        column[k] += demand[c] - received[c] + 1
        changed.append(column)
    for bad in changed:
        assert not certified(bad, hall)
    if p:
        total = max(sum(supply), sum(demand))
        for r in set(range(len(supply))) - set(hall):
            wider = set(hall) | {r}
            joined = {c for i, c, d in pairs if i in wider and d * q < p * scale}
            cut = sum(w for i, w in enumerate(supply) if i not in wider)
            cut += sum(demand[c] for c in joined)
            assert certified(flows, sorted(wider)) == ((total - cut) * q >= p * big)


def assert_same_report(got, want):
    assert (got.per_atom_ok, got.portmanteau_ok, got.mass_ok, got.converges) == (
        want.per_atom_ok, want.portmanteau_ok, want.mass_ok, want.converges
    )
    assert repr(got.per_atom_residual) == repr(want.per_atom_residual)
    assert repr(got.portmanteau_excess) == repr(want.portmanteau_excess)
    assert repr(got.mass_residual) == repr(want.mass_residual)
    assert got.witness_set == want.witness_set


@st.composite
def rounding_subprobabilities(draw, space):
    """Weights num_k / den with den = 10^k or 3^k, scales whose weights and
    sums round when they become floats; total at most one."""
    den = draw(st.sampled_from([10, 3])) ** draw(st.integers(1, 30))
    share = den // len(space.atoms)
    part = st.one_of(st.just(0), st.integers(0, share), st.just(share))
    nums = draw(st.lists(part, min_size=len(space.atoms), max_size=len(space.atoms)))
    return Measure(space, [Fraction(k, den) for k in nums])


@st.composite
def weak_cases(draw):
    metric = draw(metrics_on())
    space = metric.space
    measures = st.one_of(subprobabilities(space), rounding_subprobabilities(space))
    limit = draw(measures)
    distinct = draw(st.lists(measures, min_size=1, max_size=3))
    # repeats in the tail give float-excess ties between measures
    sequence = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=6))
    tol = draw(
        st.sampled_from(
            [Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 5),
             1e-3, 1e-17, 0.0, 0.1]
        )
    )
    return sequence, limit, metric, tol


def _mixed_scales_case(tol):
    """A limit over 3 and a sequence over 10^3, 10 and 3 * 2^80: the tail,
    its last two, has other scales than the limit, and the common scale
    is their lcm."""
    metric = FiniteMetric.from_points("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    third, tiny = Fraction(1, 3), Fraction(1, 2**80)
    weights = [
        [Fraction(333, 1000), Fraction(334, 1000), Fraction(333, 1000)],
        [Fraction(1, 10), Fraction(7, 10), Fraction(1, 5)],
        [third + tiny, third, third - tiny],
    ]
    sequence = [Measure(metric.space, w) for w in weights]
    return sequence, Measure(metric.space, [third] * 3), metric, tol


@settings(max_examples=200, deadline=None)
@given(weak_cases())
@example(_mixed_scales_case(0))
@example(_mixed_scales_case(1e-17))
def test_weak_check_closed_form_equals_mask_scan(case):
    assert_same_report(check_weak_limit(*case), check_weak_limit_scan(*case))


def test_weak_check_witness_on_float_ties():
    metric = FiniteMetric.from_points("ab", [[0, 1], [1, 0]])
    space = metric.space
    tiny = Fraction(1, 2**80)
    limit = Measure(space, [Fraction(1, 4), Fraction(1, 4)])
    to_a = Measure(space, [Fraction(1, 2), 0])
    to_b = Measure(space, [0, Fraction(1, 2)])
    cases = [
        # {a, b} has the larger exact excess; {b}'s rounds to the same float
        [Measure(space, [Fraction(1, 4) + tiny, Fraction(1, 4) + Fraction(1, 3)])],
        # the two tail measures tie exactly on different sets: {a} has the
        # lower mask, in either order
        [to_b, to_a, to_b, to_a],
        [to_a, to_b, to_a, to_b],
    ]
    expected = [["a", "b"], ["a"], ["a"]]
    for sequence, points in zip(cases, expected):
        got = check_weak_limit(sequence, limit, metric, 0)
        assert_same_report(got, check_weak_limit_scan(sequence, limit, metric, 0))
        assert got.witness_set.sorted_points() == points


def test_hutchinson_flow_equals_dense_lp():
    rng = random.Random(303)
    for case in range(40):
        n = rng.randint(1, 10)
        metric = rand_metric(rng, n, normalized=case % 2 == 0)
        weights = [
            [Fraction(rng.randint(0, 5), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(2)
        ]
        mu, nu = (Measure(metric.space, w) for w in weights)
        gamma = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3)][case % 5]
        value, witness = hutchinson_distance(mu, nu, metric, gamma)
        assert value == hutchinson_lp(mu, nu, metric, gamma)[0]
        LipschitzWitness(metric, witness.values, gamma)
        assert witness.objective(mu, nu) == value


# multipliers that put 2 max d on either side of the byte boundaries of
# FiniteMetric's packed fields
WIDTHS = [1, 1, 1, 21, 32, 64, 85, 128, 2**15, 2**15 + 1, 10**20]


@st.composite
def backbone_metrics(draw, max_points=14):
    """A line, sparse-graph or discrete metric on up to max_points points,
    in steps of m/q: points on a line split most pairs, a path with a few
    chords closed under shortest paths splits many with ties, and the
    discrete metric (every distance the same) splits none."""
    n = draw(st.integers(1, max_points))
    unit = Fraction(draw(st.sampled_from(WIDTHS)), draw(st.integers(1, 4)))
    kind = draw(st.sampled_from(["line", "graph", "discrete"]))
    if kind == "line":
        coords = draw(st.lists(st.integers(0, 3 * n), min_size=n, max_size=n, unique=True))
        steps = [[abs(a - b) for b in coords] for a in coords]
    elif kind == "discrete":
        steps = [[int(a != b) for b in range(n)] for a in range(n)]
    else:
        far = 6 * n
        steps = [[0 if i == j else far for j in range(n)] for i in range(n)]
        edges = [(i, i + 1) for i in range(n - 1)]
        if n > 2:
            pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            edges += [(i, j) for i, j in draw(st.lists(pairs, max_size=n)) if i != j]
        for i, j in edges:
            steps[i][j] = steps[j][i] = min(steps[i][j], draw(st.integers(1, 5)))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    steps[i][j] = min(steps[i][j], steps[i][k] + steps[k][j])
    dist = [[v * unit for v in row] for row in steps]
    return FiniteMetric.from_points([f"x{k}" for k in range(n)], dist)


def _diameter(metric):
    scale, rows = metric.scaled
    return Fraction(max(map(max, rows)), scale)


@settings(max_examples=300, deadline=None)
@given(backbone_metrics(), st.data())
def test_hutchinson_on_the_backbone_equals_the_full_arc_set(metric, data):
    # the same value and the same witness, entry for entry: both witnesses
    # are the largest optimal dual with pi(g) = 0 of one dual polyhedron
    mu = data.draw(subprobabilities(metric.space))
    nu = data.draw(subprobabilities(metric.space))
    top = int(8 * _diameter(metric)) + 16
    gamma = Fraction(data.draw(st.integers(1, top)), 8)
    value, witness = hutchinson_distance(mu, nu, metric, gamma)
    assert (value, witness.values) == hutchinson_full_arcs(mu, nu, metric, gamma)


@settings(max_examples=300, deadline=None)
@given(backbone_metrics())
def test_backbone_paths_give_back_every_distance(metric):
    n = len(metric.space.points)
    rows = metric.scaled[1]
    split = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if all(rows[i][k] + rows[k][j] != rows[i][j] for k in range(n) if k not in (i, j))
    ]
    assert metric.backbone == split
    assert backbone_closure(metric) == [list(row) for row in rows]


@st.composite
def values_and_gamma(draw, metric):
    """Values mostly 1-Lipschitz and on the bound along shortest paths (the
    least of a few anchor distances plus offsets), perhaps with one value
    nudged by a half step either way; gamma their largest magnitude, a
    step above or below it, or the diameter."""
    n = len(metric.space.points)
    scale, rows = metric.scaled
    if draw(st.integers(0, 4)):
        anchors = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        offsets = [draw(st.integers(-2 * scale, 2 * scale)) for _ in anchors]
        ints = [min(rows[a][x] + c for a, c in zip(anchors, offsets)) for x in range(n)]
        values = [Fraction(v, scale) for v in ints]
        if draw(st.booleans()):
            k = draw(st.integers(0, n - 1))
            values[k] += Fraction(draw(st.sampled_from([-1, 1])), 2 * scale)
    else:
        values = [Fraction(draw(st.integers(-3 * scale, 3 * scale)), scale) for _ in range(n)]
    top = max(map(abs, values))
    step = Fraction(1, 2 * scale)
    gamma = draw(st.sampled_from([top, top + step, top - step, _diameter(metric)]))
    return values, gamma


@settings(max_examples=400, deadline=None)
@given(backbone_metrics(), st.data())
def test_lipschitz_witness_checks_the_backbone_as_the_all_pairs_check(metric, data):
    values, gamma = data.draw(values_and_gamma(metric))
    got = _outcome(lambda: LipschitzWitness(metric, values, gamma).values)
    assert got == _outcome(lambda: lipschitz_all_pairs(metric, values, gamma))


def _cost_neutral(solve):
    """solve with +c_b on its first flow-carrying arc a and -c_a on
    another arc b: the total cost and the potentials stay."""
    def perturbed(n, arcs, supply, root):
        flows, potentials = solve(n, arcs, supply, root)
        a = next(k for k, f in enumerate(flows) if f)
        b = 0 if a else 1
        flows[a] += arcs[b][2]
        flows[b] -= arcs[a][2]
        return flows, potentials
    return perturbed


def test_hutchinson_refuses_flows_that_miss_the_supplies():
    # the witness alone proves only value <= H: a cost-neutral change of
    # the flows keeps it attaining the value, and the flow check refuses it
    metric = FiniteMetric.from_points("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    mu, nu = Measure.dirac(metric.space, "a"), Measure.dirac(metric.space, "b")
    assert hutchinson_distance(mu, nu, metric, 1)[0] == 1
    solve = _cost_neutral(metrics.min_cost_transshipment)
    with mock.patch.object(metrics, "min_cost_transshipment", solve):
        with pytest.raises(AssertionError, match="do not meet the supplies"):
            hutchinson_distance(mu, nu, metric, 1)


def test_self_checks_survive_python_optimize():
    script = """
import sys
from fractions import Fraction
from finmeas import metrics
from finmeas.measures import Measure

if not sys.flags.optimize:
    sys.exit("not running under -O")
metric = metrics.FiniteMetric.from_points("ab", [[0, 1], [1, 0]])
mu = Measure.dirac(metric.space, "a")
nu = Measure.dirac(metric.space, "b")
metrics._prohorov_certified = lambda *args: False
try:
    metrics.prohorov_distance(mu, nu, metric)
except AssertionError:
    print("prohorov probe raised")
solve = metrics.min_cost_transshipment
def perturbed(n, arcs, supply, root):
    flows, potentials = solve(n, arcs, supply, root)
    a = next(k for k, f in enumerate(flows) if f)
    b = 0 if a else 1
    flows[a] += arcs[b][2]
    flows[b] -= arcs[a][2]
    return flows, potentials
metrics.min_cost_transshipment = perturbed
try:
    metrics.hutchinson_distance(mu, nu, metric, 1)
except AssertionError:
    print("hutchinson flow check raised")
def halved(n, arcs, supply, root):
    # still gamma-bounded and 1-Lipschitz, but short of the value
    flows, potentials = solve(n, arcs, supply, root)
    return flows, [p // 2 for p in potentials]
metrics.min_cost_transshipment = halved
try:
    metrics.hutchinson_distance(mu, nu, metric, 1)
except AssertionError:
    print("hutchinson check raised")
from finmeas import logic_bisim
from finmeas.kernels import Kernel
from finmeas.spaces import FiniteMeasurableSpace
space = FiniteMeasurableSpace.discrete("ab")
half = Fraction(1, 2)
kernel = Kernel(space, space, [Measure(space, [half, half])] * 2)
part = logic_bisim.logical_equivalence(kernel)
quotient = logic_bisim.quotient_kernel(kernel, part)
iso = logic_bisim.find_quotient_iso(quotient, quotient)
logic_bisim.pushforward = lambda *args: None
try:
    logic_bisim.mediate(kernel, kernel, part, part, iso)
except AssertionError:
    print("mediate check raised")
"""
    src = str(Path(metrics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "prohorov probe raised",
        "hutchinson flow check raised",
        "hutchinson check raised",
        "mediate check raised",
    ]
