"""Exact network flows over rationals.

Two solvers, both over Fractions and deterministic in the order the arcs
are given:

- ``max_flow``: Edmonds-Karp, shortest augmenting paths found by BFS.
- ``min_cost_transshipment``: successive shortest paths (Dijkstra on
  reduced costs) for uncapacitated arcs with nonnegative costs.

The metrics layer builds the Prohorov constraint (a Hall deficiency) and
the Hutchinson program (a transshipment to a ground point) on these, and
the coupling layer reads a coupling off the max-flow arc flows, or its
Hall cut off the residual when the flow falls short.  See
Ahuja, Magnanti and Orlin, *Network Flows*, chapters 7 and 9.
"""

from collections import deque
from fractions import Fraction
from heapq import heappop, heappush


class _Residual:
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
        self.cap += [cap, Fraction(0)]
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


def max_flow(n, arcs, source, sink):
    """Maximum flow from source to sink over nodes 0..n-1.

    ``arcs`` is a sequence of (u, v, capacity); a capacity of None is
    unbounded.  Returns (value, source_side, flows): source_side is the set
    of nodes reachable from the source in the final residual graph, the
    source side of the minimum cut nearest the source, and flows[k] is the
    flow on arcs[k].
    """
    graph = _Residual(n)
    for u, v, cap in arcs:
        graph.add(u, v, cap)
    value = Fraction(0)
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for e in graph.adj[u]:
                v = graph.head[e]
                if v not in parent and graph.open(e):
                    parent[v] = e
                    queue.append(v)
        if sink not in parent:
            return value, set(parent), graph.flows(len(arcs))
        path = graph.path_to(parent, sink)
        caps = [graph.cap[e] for e in path if graph.cap[e] is not None]
        if not caps:
            raise ValueError("a source-sink path of unbounded arcs")
        bottleneck = min(caps)
        for e in path:
            graph.push(e, bottleneck)
        value += bottleneck


def _dijkstra(graph, costs, potential, start):
    """Reduced-cost distances and search-tree arcs of the residual graph."""
    dist = {start: Fraction(0)}
    parent = {start: None}
    done = set()
    heap = [(Fraction(0), start)]
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        for e in graph.adj[u]:
            if not graph.open(e):
                continue
            v = graph.head[e]
            nd = d + costs[e] + potential[u] - potential[v]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = e
                heappush(heap, (nd, v))
    return dist, parent


def min_cost_transshipment(n, arcs, supply, root):
    """Cheapest flow over uncapacitated arcs meeting the node supplies.

    ``arcs`` is a sequence of (u, v, cost) with cost >= 0; ``supply[v]`` is
    the net outflow node v must send (negative for a demand), and the
    supplies sum to zero.  Returns (flows, potentials): flows[k] is the flow
    on arcs[k], and potentials[v] is the shortest-path distance from root to
    v in the final residual graph.  So potentials[v] - potentials[u] is at
    most the cost of every arc u -> v, with equality on each arc that
    carries flow: the potentials are an optimal dual solution.
    """
    graph = _Residual(n)
    costs = []
    for u, v, cost in arcs:
        graph.add(u, v, None)
        costs += [cost, -cost]
    excess = [Fraction(s) for s in supply]
    if sum(excess) != 0:
        raise ValueError("supplies must sum to zero")
    potential = [Fraction(0)] * n
    while True:
        start = next((v for v in range(n) if excess[v] > 0), None)
        if start is None:
            break
        dist, parent = _dijkstra(graph, costs, potential, start)
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
    dist, _ = _dijkstra(graph, costs, potential, root)
    if len(dist) < n:
        raise ValueError("a node is unreachable from the root")
    potentials = [dist[v] + potential[v] - potential[root] for v in range(n)]
    return graph.flows(len(arcs)), potentials
