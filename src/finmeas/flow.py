"""Exact network flows.

Two solvers, deterministic in the order the arcs are given and exact for
any ordered numbers that add exactly: the library scales each instance to
ints once and passes plain ints, so the solvers build no Fraction.

- ``transport_sweep``: Edmonds-Karp (shortest augmenting paths by BFS) on
  the one bipartite network behind Strassen's theorem (1965), grown batch
  by batch for the Prohorov sweep; its flow and residual Hall cut at each
  step certify the Prohorov value.  ``transport`` is its one-batch form:
  the Prohorov constraints are Hall deficiencies of it, and a coupling is
  its pair flows, or a Hall cut off its residual graph if the flow falls
  short.
- ``min_cost_transshipment``: successive shortest paths (Dijkstra on
  reduced costs) for uncapacitated arcs with nonnegative costs.  The
  Hutchinson program is a transshipment to a ground point.

See Ahuja, Magnanti and Orlin, *Network Flows*, chapters 6, 7 and 9.
"""

from collections import deque
from heapq import heappop, heappush


class _Residual:
    """Arc e runs head[e ^ 1] -> head[e]; arc e ^ 1 is its reverse.  Each
    node lists its arcs in the order added, which fixes the search order."""

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

    def path_to(self, parent, v):
        """The arcs of the search tree path ending at v, sink end first."""
        path = []
        while parent[v] is not None:
            e = parent[v]
            path.append(e)
            v = self.head[e ^ 1]
        return path


def _augment(graph, source, sink):
    """Augment the graph's feasible flow to a maximum one by Edmonds-Karp:
    returns (value added, the nodes then reachable from the source)."""
    head, cap, adj = graph.head, graph.cap, graph.adj
    value = 0
    while True:
        # -1 marks a node not reached yet; the source is reached by no arc
        parent = [-1] * len(adj)
        parent[source] = None
        queue = deque([source])
        while queue and parent[sink] == -1:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                if parent[v] == -1 and cap[e] > 0:
                    parent[v] = e
                    queue.append(v)
        if parent[sink] == -1:
            return value, {v for v, e in enumerate(parent) if e != -1}
        path = graph.path_to(parent, sink)
        bottleneck = min(cap[e] for e in path)
        for e in path:
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
        value += bottleneck


def transport(supply, demand, pairs):
    """Maximum flow from supply nodes to demand nodes over the pairs:
    ``transport_sweep`` with the pairs as its one batch.

    Returns (value, reached, flows): reached lists, in increasing order,
    the supply nodes reachable from the source in the final residual
    graph, and flows[k] is the flow on pairs[k].
    """
    value, reached, flows = next(transport_sweep(supply, demand, [pairs]))
    return value, [i for i in range(len(supply)) if i in reached], flows()


def transport_sweep(supply, demand, batches):
    """Yield (value, reached, flows) over the pairs so far, batch by batch.

    The network is source -> supply node i with capacity supply[i], one
    arc i -> j per pair (i, j) in the order given, and demand node j ->
    sink with capacity demand[j]; value is its max flow over the pairs so
    far.  A pair arc's capacity, max(supply) + 1, exceeds what its supply
    node ever receives, so it never binds.  reached is the set of nodes the
    source reaches in the final residual graph, supply node i numbered i:
    its members below len(supply) are the reached supply nodes, a minimum
    cut's source side.
    flows() lists the flow on each pair so far in the order given, read
    from the network when called, so call it before the sweep goes on.
    Each batch joins the network and the flow augments from the last
    one, which stays feasible (Gallo, Grigoriadis and Tarjan 1989).
    """
    n1, n2 = len(supply), len(demand)
    unbounded = max(supply, default=0) + 1
    source, sink = n1 + n2, n1 + n2 + 1
    graph = _Residual(n1 + n2 + 2)
    for i, cap in enumerate(supply):
        graph.add(source, i, cap)
    for j, cap in enumerate(demand):
        graph.add(n1 + j, sink, cap)

    def flows():
        # the pair arcs follow the n1 + n2 supply and demand arcs
        return graph.cap[2 * (n1 + n2) + 1 :: 2]

    value = 0
    for batch in batches:
        for i, j in batch:
            graph.add(i, n1 + j, unbounded)
        added, reached = _augment(graph, source, sink)
        value += added
        yield value, reached, flows


def _dijkstra(graph, costs, potential, start, excess=None):
    """Reduced-cost distances and search-tree arcs of the residual graph,
    one entry per node, None where the start does not reach.  Given the
    excesses, it stops once all nodes as near as the nearest deficit are
    settled: each distance beyond is then an upper bound above it."""
    head, cap, adj = graph.head, graph.cap, graph.adj
    n = len(adj)
    dist = [None] * n
    parent = [None] * n
    dist[start] = 0
    heap = [(0, start)]
    reach = None
    while heap:
        d, u = heappop(heap)
        if reach is not None and d > reach:
            break
        if d > dist[u]:  # stale: u was settled nearer
            continue
        if reach is None and excess is not None and excess[u] < 0:
            reach = d
        for e in adj[u]:
            if cap[e] <= 0:
                continue
            v = head[e]
            nd = d + costs[e] + potential[u] - potential[v]
            if dist[v] is None or nd < dist[v]:
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
    carries flow: the potentials are an optimal dual solution.  Each arc's
    capacity is the total positive supply + 1: the paths carry that total
    between them, so no arc fills or limits a path's amount.
    """
    excess = list(supply)
    if sum(excess) != 0:
        raise ValueError("supplies must sum to zero")
    unbounded = sum(v for v in excess if v > 0) + 1
    graph = _Residual(n)
    cap, costs = graph.cap, []
    for u, v, cost in arcs:
        graph.add(u, v, unbounded)
        costs += [cost, -cost]
    potential = [0] * n
    while True:
        start = next((v for v in range(n) if excess[v] > 0), None)
        if start is None:
            break
        dist, parent = _dijkstra(graph, costs, potential, start, excess)
        target = min(
            (v for v in range(n) if excess[v] < 0 and dist[v] is not None),
            key=lambda v: (dist[v], v),
            default=None,
        )
        if target is None:
            raise ValueError("a supply cannot reach any demand")
        # capping at the target's distance keeps every reduced cost >= 0
        reach = dist[target]
        for v, d in enumerate(dist):
            potential[v] += reach if d is None or d > reach else d
        path = graph.path_to(parent, target)
        amount = min([excess[start], -excess[target]] + [cap[e] for e in path])
        for e in path:
            cap[e] -= amount
            cap[e ^ 1] += amount
        excess[start] -= amount
        excess[target] += amount
    dist, _ = _dijkstra(graph, costs, potential, root)
    if None in dist:
        raise ValueError("a node is unreachable from the root")
    potentials = [dist[v] + potential[v] - potential[root] for v in range(n)]
    return cap[1::2], potentials
