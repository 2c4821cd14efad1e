"""Report the in-process cost of the distance layer at n = 100 and 200.

For a line metric and a sparse shortest-path metric of each size, prints
the median wall ms of 3 calls of ``FiniteMetric``, ``prohorov_distance``
and ``hutchinson_distance`` (gamma 1/4, 2 and past the diameter), and the
backbone's arc count against the n(n - 1)/2 pairs.  A report, not a gate;
run it from any directory (it imports the package in ../src):

    python tests/distance_cost.py
"""

import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from finmeas.measures import Measure  # noqa: E402
from finmeas.metrics import FiniteMetric, hutchinson_distance, prohorov_distance  # noqa: E402


def line(n, rng):
    coords = rng.sample(range(4 * n), n)
    return [[abs(a - b) for b in coords] for a in coords]


def sparse_shortest_paths(n, rng):
    """A ring with three chords per point, weights 1-9, closed under
    shortest paths (one row update per pivot)."""
    far = 9 * n
    dist = [[0 if i == j else far for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in [(i + 1) % n, *rng.sample(range(n), 3)]:
            if i != j:
                dist[i][j] = dist[j][i] = min(dist[i][j], rng.randint(1, 9))
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            via = dist[i][k]
            dist[i] = list(map(min, dist[i], [via + d for d in row_k]))
    return dist


def median_ms(call):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def measure(space, rng):
    nums = [rng.randint(0, 5) for _ in space.points]
    return Measure(space, [Fraction(k, sum(nums) or 1) for k in nums])


def main():
    rng = random.Random(43)
    for n in (100, 200):
        points = [f"x{k}" for k in range(n)]
        for name, make in (("line", line), ("shortest-path", sparse_shortest_paths)):
            dist = make(n, rng)
            build = median_ms(lambda: FiniteMetric.from_points(points, dist))
            metric = FiniteMetric.from_points(points, dist)
            mu, nu = measure(metric.space, rng), measure(metric.space, rng)
            arcs = len(metric.backbone)
            print(f"{name} n={n}: {arcs} backbone arcs of {n * (n - 1) // 2} pairs")
            print(f"  FiniteMetric {build:.1f} ms")
            ms = median_ms(lambda: prohorov_distance(mu, nu, metric))
            print(f"  prohorov_distance {ms:.1f} ms")
            top = max(map(max, dist)) + 1
            for gamma in (Fraction(1, 4), Fraction(2), Fraction(top)):
                ms = median_ms(lambda: hutchinson_distance(mu, nu, metric, gamma))
                print(f"  hutchinson_distance gamma={gamma} {ms:.1f} ms")


if __name__ == "__main__":
    main()
