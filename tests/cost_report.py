"""Report what the library costs, layer by layer, in six sections.

Source lines (``wc -l src/finmeas/*.py``); import cost (the finmeas lines
of ``python -X importtime -c "import finmeas.cli"``, microseconds self and
cumulative); command cost (median wall ms of 11 cold ``python -m finmeas``
children, for ``space``, which runs no flow, and ``dist prohorov``);
distance cost (backbone arcs and median in-process ms of 3 calls of
``FiniteMetric``, ``prohorov_distance`` and ``hutchinson_distance`` at
n = 100 and 200 on a line and a sparse shortest-path metric); compose and
path cost (median ms of 5 calls of ``convolve`` on dense kernels and the
4,000-state shift chain, and of ``path_measure`` on two dense chains); Lp
cost (median ms of 31 calls of ``integral``, ``lp_norm_squared``,
``check_minkowski`` and ``check_hoelder`` at p = 2, 3 on 350 atoms, and the
best of 5 x 200 ``integral`` calls on 350 random rationals).

Every child and this process compile the package from source and write no
bytecode; when ``src/finmeas/__pycache__`` exists the children read it,
and the report says so.  A report, not a gate (about 10 s); run it from
any directory:

    python tests/cost_report.py
"""

import os
import random
import statistics
import subprocess
import sys
import time
import timeit
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.dont_write_bytecode = True

from finmeas.integrate import (  # noqa: E402
    StepFunction, check_hoelder, check_minkowski, integral, lp_norm_squared)
from finmeas.kernels import Kernel, convolve, path_measure  # noqa: E402
from finmeas.measures import Measure  # noqa: E402
from finmeas.metrics import FiniteMetric, hutchinson_distance, prohorov_distance  # noqa: E402
from finmeas.spaces import FiniteMeasurableSpace, product_space  # noqa: E402

EXAMPLES = SRC / "finmeas" / "examples"
COMMANDS = {
    "space": ["space", "--name", "G", "-m", str(EXAMPLES / "decomposition.json")],
    "dist prohorov": ["dist", "prohorov", "--left", "dirac_a", "--right", "nu_p",
                      "--metric", "d2", "-m", str(EXAMPLES / "metrics.json")],
}


def median_ms(call, calls):
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def discrete(n, prefix):
    return FiniteMeasurableSpace.discrete([f"{prefix}{k}" for k in range(n)])


def child(*args):
    """Run a python child on the package in src, compiled from source."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], check=True, capture_output=True,
                          text=True, env=env)


def source_lines():
    files = sorted(str(p.relative_to(ROOT)) for p in (SRC / "finmeas").glob("*.py"))
    done = subprocess.run(["wc", "-l", *files], check=True, capture_output=True,
                          text=True, cwd=ROOT)
    print(done.stdout, end="")


def import_cost():
    if (SRC / "finmeas" / "__pycache__").exists():
        print("src/finmeas/__pycache__ exists: the children below read its bytecode")
    stderr = child("-X", "importtime", "-c", "import finmeas.cli").stderr
    for line in stderr.splitlines():
        if "finmeas" in line:
            print(line)


def command_cost():
    for name, argv in COMMANDS.items():
        ms = median_ms(partial(child, "-m", "finmeas", *argv), 11)
        print(f"finmeas {name}: {ms:.1f} ms median of 11")


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


def distance_cost():
    rng = random.Random(43)

    def measure(space):
        nums = [rng.randint(0, 5) for _ in space.points]
        return Measure(space, [Fraction(k, sum(nums) or 1) for k in nums])

    for n in (100, 200):
        points = [f"x{k}" for k in range(n)]
        for name, make in (("line", line), ("shortest-path", sparse_shortest_paths)):
            dist = make(n, rng)
            build = median_ms(lambda: FiniteMetric.from_points(points, dist), 3)
            metric = FiniteMetric.from_points(points, dist)
            mu, nu = measure(metric.space), measure(metric.space)
            print(f"{name} n={n}: {len(metric.backbone)} backbone arcs of "
                  f"{n * (n - 1) // 2} pairs")
            print(f"  FiniteMetric {build:.1f} ms")
            ms = median_ms(lambda: prohorov_distance(mu, nu, metric), 3)
            print(f"  prohorov_distance {ms:.1f} ms")
            top = max(map(max, dist)) + 1
            for gamma in (Fraction(1, 4), Fraction(2), Fraction(top)):
                ms = median_ms(lambda: hutchinson_distance(mu, nu, metric, gamma), 3)
                print(f"  hutchinson_distance gamma={gamma} {ms:.1f} ms")


def compose_and_path_cost():
    dense_rng, chain_rng = random.Random(5), random.Random(5)

    def kernel(n, row):
        space = discrete(n, "s")
        return Kernel(space, space, [row(space, k) for k in range(n)])

    def dense(space, k):
        n = space.n_atoms
        cuts = sorted(dense_rng.randint(0, 2 * n) for _ in range(n - 1))
        nums = [b - a for a, b in zip([0, *cuts], [*cuts, 2 * n])]
        return Measure.from_ints(space, 2 * n, range(n), nums)

    def shift(space, k):
        if k + 1 == space.n_atoms:
            return Measure.zero(space)
        return Measure.from_ints(space, 1, [k + 1], [1])

    def chain(*sizes):
        states = discrete(sizes[-1], "s")
        step = product_space(*(discrete(m, f"t{i}") for i, m in enumerate(sizes[:-1])), states)
        rows = []
        for _ in range(states.n_atoms):
            nums = [chain_rng.randint(1, 9) for _ in range(step.n_atoms)]
            rows.append(Measure.from_ints(step, sum(nums), range(step.n_atoms), nums))
        return Kernel(states, step, rows)

    cases = [(f"dense n={n}", kernel(n, dense)) for n in (20, 40, 80)]
    for name, k in cases + [("shift n=4000", kernel(4000, shift))]:
        print(f"convolve {name}: {median_ms(lambda: convolve(k, k), 5):.2f} ms")
    for sizes, horizon in (((1, 2), 16), ((2, 4, 4), 4)):
        k = chain(*sizes)
        ms = median_ms(lambda: path_measure(k, "s0", horizon), 5)
        print(f"path_measure {sizes} horizon {horizon}: {ms:.2f} ms")


def lp_cost(n=350):
    rng = random.Random(5)
    space = discrete(n, "x")

    def values(lo, hi, den):
        return StepFunction(
            space, [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n)])

    def probability(low):
        cuts = sorted(rng.randint(0, 10 * n - n * low) for _ in range(n - 1))
        nums = [b - a + low for a, b in zip([0, *cuts], [*cuts, 10 * n - n * low])]
        return Measure.from_ints(space, 10 * n, range(n), nums)

    f, g, mu, nu = values(0, 9, 4), values(-5, 9, 4), probability(0), probability(1)
    calls = [("integral(f, mu)", partial(integral, f, mu)),
             ("lp_norm_squared(g, mu)", partial(lp_norm_squared, g, mu))]
    for p in (2, 3):
        calls += [(f"check_minkowski(f, g, nu, {p})", partial(check_minkowski, f, g, nu, p)),
                  (f"check_hoelder(f, g, mu, {p})", partial(check_hoelder, f, g, mu, p))]
    for name, call in calls:
        print(f"{name} n={n}: {median_ms(call, 31):.2f} ms")
    h = values(-999, 999, 999)
    best = min(timeit.repeat(partial(integral, h, mu), number=200, repeat=5)) / 200
    print(f"integral, {n} random rationals: {best * 1000:.3f} ms")


if __name__ == "__main__":
    for section in (source_lines, import_cost, command_cost, distance_cost,
                    compose_and_path_cost, lp_cost):
        section()
