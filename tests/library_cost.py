"""Report the in-process cost of composition, path measures and Lp.

Prints the median wall ms over 5 calls of ``convolve(K, K)`` on dense
kernels (denominator 2n, packed left rows) and on the 4,000-state shift
chain (sums over the nonzeros), and of ``path_measure`` on a dense chain
S -> T x S with (|T|, |S|) = (1, 2) at horizon 16 and on one with
T = T1 x T2, (2, 4, 4), at horizon 4.  Then, on a 350-atom space with
quarter-step values and probability weights over 3,500, the median ms over
31 calls of ``integral``, ``lp_norm_squared``, and ``check_minkowski`` and
``check_hoelder`` at p = 2 and 3, and the best ms per call over 5 rounds
of 200 ``integral`` calls on 350 random rationals.  A report, not a gate;
run it from any directory (it imports the package in ../src):

    python tests/library_cost.py
"""

import random
import statistics
import sys
import time
import timeit
from fractions import Fraction
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from finmeas.integrate import (  # noqa: E402
    StepFunction,
    check_hoelder,
    check_minkowski,
    integral,
    lp_norm_squared,
)
from finmeas.kernels import Kernel, convolve, path_measure  # noqa: E402
from finmeas.measures import Measure  # noqa: E402
from finmeas.spaces import FiniteMeasurableSpace, product_space  # noqa: E402


def discrete(n, prefix="s"):
    return FiniteMeasurableSpace.discrete([f"{prefix}{k}" for k in range(n)])


def kernel(n, row):
    space = discrete(n)
    return Kernel(space, space, [row(space, k) for k in range(n)])


def dense(space, k, rng=random.Random(5)):
    n = space.n_atoms
    cuts = sorted(rng.randint(0, 2 * n) for _ in range(n - 1))
    nums = [b - a for a, b in zip([0, *cuts], [*cuts, 2 * n])]
    return Measure.from_ints(space, 2 * n, range(n), nums)


def shift(space, k):
    if k + 1 == space.n_atoms:
        return Measure.zero(space)
    return Measure.from_ints(space, 1, [k + 1], [1])


def chain(*sizes, rng=random.Random(5)):
    states = discrete(sizes[-1])
    steps = [discrete(m, f"t{i}") for i, m in enumerate(sizes[:-1])]
    step = product_space(*steps, states)
    rows = []
    for _ in range(states.n_atoms):
        nums = [rng.randint(1, 9) for _ in range(step.n_atoms)]
        rows.append(Measure.from_ints(step, sum(nums), range(step.n_atoms), nums))
    return Kernel(states, step, rows)


def median_ms(call, calls=5):
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def compose_and_paths():
    cases = [(f"dense n={n}", kernel(n, dense)) for n in (20, 40, 80)]
    for name, k in cases + [("shift n=4000", kernel(4000, shift))]:
        print(f"convolve {name}: {median_ms(lambda: convolve(k, k)):.2f} ms")
    for sizes, horizon in (((1, 2), 16), ((2, 4, 4), 4)):
        k = chain(*sizes)
        ms = median_ms(lambda: path_measure(k, "s0", horizon))
        print(f"path_measure {sizes} horizon {horizon}: {ms:.2f} ms")


def lp(n=350, rng=random.Random(5)):
    space = discrete(n, "x")

    def values(lo, hi):
        return StepFunction(
            space, [Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)]
        )

    def probability(low):
        cuts = sorted(rng.randint(0, 10 * n - n * low) for _ in range(n - 1))
        nums = [b - a + low for a, b in zip([0, *cuts], [*cuts, 10 * n - n * low])]
        return Measure.from_ints(space, 10 * n, range(n), nums)

    f, g, mu, nu = values(0, 9), values(-5, 9), probability(0), probability(1)
    calls = [
        ("integral(f, mu)", lambda: integral(f, mu)),
        ("lp_norm_squared(g, mu)", lambda: lp_norm_squared(g, mu)),
    ]
    for p in (2, 3):
        calls += [
            (f"check_minkowski(f, g, nu, {p})", partial(check_minkowski, f, g, nu, p)),
            (f"check_hoelder(f, g, mu, {p})", partial(check_hoelder, f, g, mu, p)),
        ]
    for name, call in calls:
        print(f"{name} n={n}: {median_ms(call, 31):.2f} ms")
    h = StepFunction(
        space, [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(n)]
    )
    best = min(timeit.repeat(lambda: integral(h, mu), number=200, repeat=5)) / 200
    print(f"integral, {n} random rationals: {best * 1000:.3f} ms")


if __name__ == "__main__":
    compose_and_paths()
    lp()
