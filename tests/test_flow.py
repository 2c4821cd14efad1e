import random
from fractions import Fraction
from heapq import heappop
from math import lcm
from operator import le
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finmeas import flow
from finmeas.flow import min_cost_transshipment, transport, transport_sweep
from finmeas.simplex import OPTIMAL, maximize

from oracles import max_flow_reference, min_cost_transshipment_reference


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


def rand_transport(rng):
    """Fraction supplies and demands, zeros common, and pairs in any order,
    repeats included; either side may be empty."""
    n1, n2 = rng.randint(0, 5), rng.randint(0, 5)
    supply = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n1)]
    demand = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n2)]
    count = rng.randint(0, 12) if n1 and n2 else 0
    pairs = [(rng.randrange(n1), rng.randrange(n2)) for _ in range(count)]
    return supply, demand, pairs


def test_transport_matches_networkx():
    rng = random.Random(201)
    for _ in range(300):
        supply, demand, pairs = rand_transport(rng)
        graph = nx.DiGraph()
        graph.add_nodes_from(["s", "t"])
        for i, cap in enumerate(supply):
            graph.add_edge("s", ("a", i), capacity=cap)
        for j, cap in enumerate(demand):
            graph.add_edge(("b", j), "t", capacity=cap)
        # an edge with no capacity is unbounded
        graph.add_edges_from((("a", i), ("b", j)) for i, j in pairs)
        expected, nx_flows = nx.maximum_flow(graph, "s", "t")
        value, reached, flows = transport(supply, demand, pairs)
        assert value == expected
        # the pair flows are a feasible flow of that value
        sent, received = [0] * len(supply), [0] * len(demand)
        for f, (i, j) in zip(flows, pairs, strict=True):
            assert f >= 0
            sent[i] += f
            received[j] += f
        assert all(map(le, sent, supply)) and all(map(le, received, demand))
        assert sum(flows) == value
        # the reached supply nodes are the residual reach of every maximum
        # flow, and the cut they leave is a minimum one
        side = residual_reach(graph, nx_flows, "s")
        assert reached == [i for i in range(len(supply)) if ("a", i) in side]
        joined = {j for i, j in pairs if i in reached}
        cut = sum(w for i, w in enumerate(supply) if i not in reached)
        assert cut + sum(demand[j] for j in joined) == value


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


def test_max_flow_reference_matches_networkx():
    # the general solver the hand-built oracles call is checked on general
    # networks, not only on the bipartite ones transport builds
    rng = random.Random(202)
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
        value, side, arc_flows = max_flow_reference(n, arcs, 0, n - 1)
        assert value == expected
        # the arc flows are a feasible flow of that value
        for f, (_, _, cap) in zip(arc_flows, arcs):
            assert f >= 0 and (cap is None or f <= cap)
        for v in range(n):
            out = sum((f for f, (a, _, _) in zip(arc_flows, arcs) if a == v), start=Fraction(0))
            into = sum((f for f, (_, b, _) in zip(arc_flows, arcs) if b == v), start=Fraction(0))
            assert out - into == {0: value, n - 1: -value}.get(v, 0)
        # the residual source side is the same for every maximum flow
        assert side == residual_reach(graph, flows, 0)
        cut = sum(
            (cap for u, v, cap in arcs if u in side and v not in side),
            start=Fraction(0),
        )
        assert n - 1 not in side and cut == value


def test_max_flow_rejects_an_unbounded_path():
    with pytest.raises(ValueError):
        max_flow_reference(3, [(0, 1, None), (1, 2, None)], 0, 2)


def _flow_or_error(solve, case):
    try:
        return solve(*case)
    except ValueError as err:
        return str(err)


@st.composite
def transport_cases(draw):
    """Capacities with many zeros and pairs in any order, repeats included."""
    n1, n2 = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    caps = st.builds(Fraction, st.integers(0, 4), st.integers(1, 3))
    supply = draw(st.lists(caps, min_size=n1, max_size=n1))
    demand = draw(st.lists(caps, min_size=n2, max_size=n2))
    pair = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    pairs = draw(st.lists(pair, max_size=12)) if n1 and n2 else []
    return supply, demand, pairs


@settings(max_examples=300, deadline=None)
@given(transport_cases())
def test_transport_equals_the_network_built_by_hand(case):
    # the same arcs in the same order, with the source and sink numbered
    # last: node numbers do not steer the search, so the flows agree too
    supply, demand, pairs = case
    n1, n2 = len(supply), len(demand)
    source, sink = n1 + n2, n1 + n2 + 1
    arcs = [(source, i, cap) for i, cap in enumerate(supply)]
    arcs += [(i, n1 + j, None) for i, j in pairs]
    arcs += [(n1 + j, sink, cap) for j, cap in enumerate(demand)]
    value, side, flows = max_flow_reference(n1 + n2 + 2, arcs, source, sink)
    expected = (value, [i for i in range(n1) if i in side], flows[n1 : n1 + len(pairs)])
    assert transport(supply, demand, pairs) == expected


@settings(max_examples=300, deadline=None)
@given(transport_cases(), st.data())
def test_transport_sweep_yields_the_transport_value_of_each_prefix(case, data):
    # augmenting from the last flow reaches the max flow over all pairs so
    # far, batch by batch, empty batches included; each step's reached
    # supply nodes are transport's, a min cut, and the last step's pair
    # flows a feasible flow of its value
    supply, demand, pairs = case
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pairs)), max_size=4)))
    ends = cuts + [len(pairs)]
    batches = [pairs[a:b] for a, b in zip([0] + cuts, ends)]
    expected = [transport(supply, demand, pairs[:end])[:2] for end in ends]
    steps = []
    for value, reached, flows in transport_sweep(supply, demand, batches):
        steps.append((value, reached, flows()))
    supply_nodes = range(len(supply))
    got = [(v, [i for i in supply_nodes if i in r]) for v, r, _ in steps]
    assert got == expected
    for end, (value, reached, _) in zip(ends, steps):
        joined = {j for i, j in pairs[:end] if i in reached}
        cut = sum(w for i, w in enumerate(supply) if i not in reached)
        assert cut + sum(demand[j] for j in joined) == value
    value, _, flows = steps[-1]
    assert len(flows) == len(pairs) and min(flows, default=0) >= 0
    sent, received = [0] * len(supply), [0] * len(demand)
    for f, (i, j) in zip(flows, pairs):
        sent[i] += f
        received[j] += f
    assert all(map(le, sent, supply)) and all(map(le, received, demand))
    assert sum(flows) == value


def test_solvers_give_every_arc_a_number_for_its_capacity():
    # an unbounded arc gets a capacity it never reaches, not None
    rng = random.Random(203)
    caps = []
    add = flow._Residual.add

    def spy(graph, u, v, cap):
        caps.append(cap)
        return add(graph, u, v, cap)

    with mock.patch.object(flow._Residual, "add", spy):
        for _ in range(100):
            supply, demand, pairs = rand_transport(rng)
            for _ in transport_sweep(supply, demand, [pairs[:4], pairs[4:]]):
                pass
            n = rng.randint(2, 5)
            arcs = [(v, (v + 1) % n, rng.randint(0, 3)) for v in range(n)]
            supply = [rng.randint(-3, 3) for _ in range(n - 1)]
            min_cost_transshipment(n, arcs, supply + [-sum(supply)], 0)
    assert len(caps) > 100
    assert all(isinstance(cap, (int, Fraction)) for cap in caps)


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


def _over(values, scale):
    """Fractions (None kept) as ints over scale, a common denominator."""
    return [v if v is None else int(v * scale) for v in values]


def _all_ints(values):
    return all(type(v) is int for v in values)


@settings(max_examples=300, deadline=None)
@given(transport_cases())
def test_transport_on_the_scaled_int_instance_takes_the_same_steps(case):
    supply, demand, pairs = case
    scale = lcm(*(cap.denominator for cap in supply + demand))
    value, reached, flows = transport(supply, demand, pairs)
    got = transport(_over(supply, scale), _over(demand, scale), pairs)
    assert got == (value * scale, reached, _over(flows, scale))
    assert _all_ints([got[0], *got[2]])


@st.composite
def transshipment_cases(draw):
    """A directed cycle plus random arcs, Fraction costs and supplies."""
    n = draw(st.integers(2, 6))
    cost = st.builds(Fraction, st.integers(0, 9), st.integers(1, 4))
    arcs = [(v, (v + 1) % n, draw(cost)) for v in range(n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), cost)
    arcs += [(u, v, c) for u, v, c in draw(st.lists(extra, max_size=10)) if u != v]
    amount = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    supply = draw(st.lists(amount, min_size=n - 1, max_size=n - 1))
    supply.append(-sum(supply, start=Fraction(0)))
    return n, arcs, supply, draw(st.integers(0, n - 1))


@st.composite
def loose_transshipments(draw):
    """Int costs and supplies over arcs with no cycle forced, loops and
    parallels included, small costs, so distances tie often, and supplies
    that are sometimes unbalanced, so each ValueError can be reached."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 3)), max_size=14))
    supply = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    if draw(st.integers(0, 4)):
        supply[-1] -= sum(supply)
    return n, arcs, supply, draw(node)


@settings(max_examples=500, deadline=None)
@given(st.one_of(transshipment_cases(), loose_transshipments()))
# two demands at distance 1 from the first supply: the lower-numbered one
# is served first
@example((4, [(0, 2, 1), (0, 1, 1), (3, 1, 2), (3, 2, 2)], [1, -2, -2, 3], 0))
# from supply 2 the nearest deficits are 3 and, past node 4 at the same
# distance, 0: the search settles all of that distance before it stops,
# so it serves 0 first, and the flows show it
@example((5, [(4, 0, 0), (1, 4, 1), (2, 1, 1), (2, 3, 2), (0, 3, 0)], [-1, 0, 1, -1, 1], 4))
def test_transshipment_equals_the_dict_dijkstra_reference(case):
    # list-based Dijkstra pops the same heap order: the same flows and
    # potentials, or the same refusal
    got = _flow_or_error(min_cost_transshipment, case)
    assert got == _flow_or_error(min_cost_transshipment_reference, case)


def test_transshipment_search_stops_at_the_nearest_deficit():
    # on a cycle of unit arcs the deficit is one arc past the supply: that
    # search pops the supply, the deficit and the next node, and stops;
    # only the last search, for the potentials, settles all n nodes
    n = 10
    arcs = [(v, (v + 1) % n, 1) for v in range(n)]
    supply = [1, -1] + [0] * (n - 2)
    with mock.patch.object(flow, "heappop", wraps=heappop) as pops:
        flows, potentials = min_cost_transshipment(n, arcs, supply, 0)
    assert flows == [1] + [0] * (n - 1)
    assert potentials == list(range(n))
    assert pops.call_count == 3 + n


@settings(max_examples=300, deadline=None)
@given(transshipment_cases())
def test_transshipment_on_the_scaled_int_instance_takes_the_same_steps(case):
    # costs over their own scale C and supplies over theirs S: the same
    # shortest paths and amounts, so flows times S and potentials times C
    n, arcs, supply, root = case
    cost_scale = lcm(*(c.denominator for _, _, c in arcs))
    mass_scale = lcm(*(s.denominator for s in supply))
    flows, potentials = min_cost_transshipment(n, arcs, supply, root)
    ints = [(u, v, int(c * cost_scale)) for u, v, c in arcs]
    got = min_cost_transshipment(n, ints, _over(supply, mass_scale), root)
    assert got == (_over(flows, mass_scale), _over(potentials, cost_scale))
    assert _all_ints(got[0] + got[1])
