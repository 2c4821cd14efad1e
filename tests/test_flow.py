import random
from fractions import Fraction

import networkx as nx
import pytest

from finmeas.flow import max_flow, min_cost_transshipment
from finmeas.simplex import OPTIMAL, maximize


def rand_network(rng, n):
    """Random arcs on nodes 0..n-1 without parallels; source 0, sink n-1.

    Arcs out of the source are bounded, so no path is unbounded throughout.
    """
    arcs = []
    for u in range(n - 1):
        for v in range(1, n):
            if u != v and rng.random() < 0.45:
                if u != 0 and rng.random() < 0.2:
                    cap = None
                else:
                    cap = Fraction(rng.randint(0, 12), rng.randint(1, 6))
                arcs.append((u, v, cap))
    return arcs


def residual_reach(graph, flows, source):
    """Nodes reachable from source in the residual graph of a given flow."""
    reach = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        forward = [
            v for v in graph.successors(u)
            if "capacity" not in graph[u][v] or flows[u][v] < graph[u][v]["capacity"]
        ]
        backward = [v for v in graph.predecessors(u) if flows[v][u] > 0]
        for v in forward + backward:
            if v not in reach:
                reach.add(v)
                stack.append(v)
    return reach


def test_max_flow_matches_networkx():
    rng = random.Random(201)
    for _ in range(150):
        n = rng.randint(2, 9)
        arcs = rand_network(rng, n)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        for u, v, cap in arcs:
            if cap is None:
                graph.add_edge(u, v)
            else:
                graph.add_edge(u, v, capacity=cap)
        expected, flows = nx.maximum_flow(graph, 0, n - 1)
        value, side = max_flow(n, arcs, 0, n - 1)
        assert value == expected
        # the residual source side is the same for every maximum flow
        assert side == residual_reach(graph, flows, 0)
        cut = sum(
            (cap for u, v, cap in arcs if u in side and v not in side),
            start=Fraction(0),
        )
        assert n - 1 not in side and cut == value


def test_max_flow_rejects_an_unbounded_path():
    with pytest.raises(ValueError):
        max_flow(3, [(0, 1, None), (1, 2, None)], 0, 2)


def transshipment_lp(n, arcs, supply):
    """Least cost by the rational simplex: maximize -cost.x, out - in = supply."""
    a_eq = []
    for v in range(n):
        a_eq.append([Fraction(int(a == v) - int(b == v)) for a, b, _ in arcs])
    result = maximize([-cost for _, _, cost in arcs], a_eq=a_eq, b_eq=supply)
    assert result.status == OPTIMAL
    return -result.value


def test_transshipment_matches_simplex_and_is_dual_optimal():
    rng = random.Random(202)
    for _ in range(120):
        n = rng.randint(2, 6)
        # a directed cycle keeps every node reachable from every other
        arcs = [(v, (v + 1) % n, Fraction(rng.randint(0, 9), rng.randint(1, 4))) for v in range(n)]
        for u in range(n):
            for v in range(n):
                if u != v and v != (u + 1) % n and rng.random() < 0.4:
                    arcs.append((u, v, Fraction(rng.randint(0, 9), rng.randint(1, 4))))
        supply = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n - 1)]
        supply.append(-sum(supply, start=Fraction(0)))
        root = rng.randrange(n)
        flows, pi = min_cost_transshipment(n, arcs, supply, root)
        assert all(f >= 0 for f in flows)
        for v in range(n):
            out = sum((f for f, (a, _, _) in zip(flows, arcs) if a == v), start=Fraction(0))
            into = sum((f for f, (_, b, _) in zip(flows, arcs) if b == v), start=Fraction(0))
            assert out - into == supply[v]
        cost = sum((f * c for f, (_, _, c) in zip(flows, arcs)), start=Fraction(0))
        assert cost == transshipment_lp(n, arcs, supply)
        assert pi[root] == 0
        for f, (u, v, c) in zip(flows, arcs):
            assert pi[v] - pi[u] <= c
            if f > 0:
                assert pi[v] - pi[u] == c


def test_transshipment_rejects_unbalanced_or_unreachable_demand():
    with pytest.raises(ValueError):
        min_cost_transshipment(2, [(0, 1, Fraction(1))], [Fraction(1), Fraction(0)], 0)
    with pytest.raises(ValueError):
        min_cost_transshipment(2, [(1, 0, Fraction(1))], [Fraction(1), Fraction(-1)], 0)
