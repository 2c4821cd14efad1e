"""The flow and closed-form metrics against the subset scans and dense LP
they replaced (kept in ``oracles``)."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from finmeas import metrics
from finmeas.measures import Measure
from finmeas.metrics import (
    FiniteMetric,
    LipschitzWitness,
    check_weak_limit,
    hutchinson_distance,
    prohorov_distance,
    prohorov_feasible,
)

from conftest import rand_metric
from oracles import (
    check_weak_limit_scan,
    hutchinson_lp,
    prohorov_distance_scan,
    prohorov_feasible_scan,
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


def assert_same_report(got, want):
    assert (got.per_atom_ok, got.portmanteau_ok, got.mass_ok, got.converges) == (
        want.per_atom_ok, want.portmanteau_ok, want.mass_ok, want.converges
    )
    assert repr(got.per_atom_residual) == repr(want.per_atom_residual)
    assert repr(got.portmanteau_excess) == repr(want.portmanteau_excess)
    assert repr(got.mass_residual) == repr(want.mass_residual)
    assert got.witness_set == want.witness_set


@st.composite
def weak_cases(draw):
    metric = draw(metrics_on())
    space = metric.space
    limit = draw(subprobabilities(space))
    pool = st.lists(subprobabilities(space), min_size=1, max_size=3)
    distinct = draw(pool)
    # repeats in the tail give float-excess ties between measures
    sequence = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=6))
    tol = draw(st.sampled_from([Fraction(0), Fraction(1, 100), Fraction(1, 5), 1e-3]))
    return sequence, limit, metric, tol


@settings(max_examples=200, deadline=None)
@given(weak_cases())
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
        # {a, b} has the larger exact excess, but {b} rounds to the same float
        [Measure(space, [Fraction(1, 4) + tiny, Fraction(1, 4) + Fraction(1, 3)])],
        # the two tail measures tie exactly on different sets: {a} has the
        # lower mask, in either order
        [to_b, to_a, to_b, to_a],
        [to_a, to_b, to_a, to_b],
    ]
    expected = [["b"], ["a"], ["a"]]
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
metrics._prohorov_feasible_above = lambda *args: False
try:
    metrics.prohorov_distance(mu, nu, metric)
except AssertionError:
    print("prohorov probe raised")
metrics.LipschitzWitness.objective = lambda self, mu, nu: Fraction(-1)
try:
    metrics.hutchinson_distance(mu, nu, metric, 1)
except AssertionError:
    print("hutchinson check raised")
from finmeas import logic_bisim
from finmeas.kernels import Kernel
from finmeas.spaces import FiniteMeasurableSpace
space = FiniteMeasurableSpace.discrete("ab")
half = Fraction(1, 2)
kernel = Kernel.from_matrix(space, space, [[half, half], [half, half]])
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
        "prohorov probe raised", "hutchinson check raised", "mediate check raised",
    ]
