"""Shared generators and independent oracle helpers.

Everything random is driven by explicit seeded Random instances so every
run sees the same cases.  The linear-algebra helpers work in exact
rationals and are deliberately written from first principles so they can
serve as oracles for the library's own solvers.
"""

import contextlib
import io
from fractions import Fraction
from itertools import combinations

from finmeas.cli import main
from finmeas.kernels import Kernel
from finmeas.measures import Measure, SignedMeasure
from finmeas.metrics import FiniteMetric
from finmeas.spaces import FiniteMeasurableSpace


# ------------------------------------------------------------- generators


def rand_fraction(rng, den_max=12, num_max=24, allow_negative=False):
    den = rng.randint(1, den_max)
    num = rng.randint(-num_max if allow_negative else 0, num_max)
    return Fraction(num, den)


def rand_points(rng, max_points, min_points=1):
    n = rng.randint(min_points, max_points)
    return tuple(f"p{k}" for k in range(n))


def rand_space(rng, max_points, min_points=1, discrete_bias=0.5):
    """A random space: discrete, or a random coarsening of the points."""
    points = rand_points(rng, max_points, min_points)
    if rng.random() < discrete_bias or len(points) == 1:
        return FiniteMeasurableSpace.discrete(points)
    shuffled = list(points)
    rng.shuffle(shuffled)
    n_blocks = rng.randint(1, len(points))
    blocks = [[] for _ in range(n_blocks)]
    for k, p in enumerate(shuffled):
        blocks[k % n_blocks].append(p)
    return FiniteMeasurableSpace(points, [tuple(b) for b in blocks if b])


def rand_generator_sets(rng, points, max_sets=3):
    """Random subset family for sigma-algebra generation."""
    family = []
    for _ in range(rng.randint(0, max_sets)):
        family.append(frozenset(p for p in points if rng.random() < 0.5))
    return family


def rand_measure(rng, space, den_max=12, num_max=24):
    return Measure(
        space,
        [rand_fraction(rng, den_max, num_max) for _ in space.atoms],
    )


def rand_signed_measure(rng, space, den_max=12, num_max=24):
    return SignedMeasure(
        space,
        [
            rand_fraction(rng, den_max, num_max, allow_negative=True)
            for _ in space.atoms
        ],
    )


def rand_probability(rng, space, den=24):
    """Random rational probability vector (atoms may carry zero mass)."""
    n = len(space.atoms)
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    bounds = [0] + cuts + [den]
    return Measure(
        space,
        [Fraction(bounds[k + 1] - bounds[k], den) for k in range(n)],
    )


def rand_row(rng, codomain, kind, den=24):
    n = len(codomain.atoms)
    if kind == "Markov":
        return rand_probability(rng, codomain, den)
    if kind == "subMarkov":
        row = rand_probability(rng, codomain, den)
        scale = Fraction(rng.randint(0, den), den)
        return Measure(row.space, [w * scale for w in row.weights])
    return rand_measure(rng, codomain, den_max=8, num_max=16)


def kernel_from_matrix(domain, codomain, matrix, kind=None):
    """A kernel given by one dense weight list per domain atom."""
    return Kernel(domain, codomain, [Measure(codomain, row) for row in matrix], kind)


def rand_kernel(rng, domain, codomain, kind="Markov", den=24):
    rows = [rand_row(rng, codomain, kind, den) for _ in domain.atoms]
    return Kernel(domain, codomain, rows)


def rand_metric(rng, n_points, normalized=True):
    """A random exact metric, repaired to the triangle inequality.

    Half the draws embed the points on the rational line (plenty of
    triangle-equality cases); the rest take random symmetric distances and
    close them under shortest paths.
    """
    points = tuple(f"q{k}" for k in range(n_points))
    if rng.random() < 0.5:
        coords = rng.sample(range(1, 8 * n_points), n_points)
        dist = [
            [Fraction(abs(coords[i] - coords[j])) for j in range(n_points)]
            for i in range(n_points)
        ]
    else:
        dist = [[Fraction(0)] * n_points for _ in range(n_points)]
        for i in range(n_points):
            for j in range(i + 1, n_points):
                d = Fraction(rng.randint(2, 16), 8)
                dist[i][j] = dist[j][i] = d
        for k in range(n_points):
            for i in range(n_points):
                for j in range(n_points):
                    via = dist[i][k] + dist[k][j]
                    if i != j and via < dist[i][j]:
                        dist[i][j] = via
    if normalized and n_points > 1:
        top = max(max(row) for row in dist)
        dist = [[d / top for d in row] for row in dist]
    return FiniteMetric.from_points(points, dist)


# ----------------------------------------------------- exact linear algebra


def gauss_solve(matrix, rhs):
    """One exact solution of matrix x = rhs, or None if inconsistent.

    Free variables are set to zero.  Inputs are lists of Fraction lists.
    """
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    m = len(rows)
    n = len(matrix[0]) if matrix else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((k for k in range(r, m) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = rows[r][c]
        rows[r] = [v / scale for v in rows[r]]
        for k in range(m):
            if k != r and rows[k][c] != 0:
                factor = rows[k][c]
                rows[k] = [v - factor * w for v, w in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for k in range(r, m):
        if rows[k][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_index, c in enumerate(pivots):
        x[c] = rows[row_index][n]
    return x


def gauss_nullspace(matrix):
    """A basis of exact solutions of matrix x = 0."""
    if not matrix:
        return []
    m = len(matrix)
    n = len(matrix[0])
    rows = [list(r) for r in matrix]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((k for k in range(r, m) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = rows[r][c]
        rows[r] = [v / scale for v in rows[r]]
        for k in range(m):
            if k != r and rows[k][c] != 0:
                factor = rows[k][c]
                rows[k] = [v - factor * w for v, w in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row_index, pc in enumerate(pivots):
            vec[pc] = -rows[row_index][fc]
        basis.append(vec)
    return basis


# -------------------------------------------------- set-system brute force


def sigma_closure_bruteforce(points, generator):
    """Textbook closure: empty set and carrier, complements, finite unions."""
    carrier = frozenset(points)
    sets = {frozenset(), carrier}
    sets.update(frozenset(g) for g in generator)
    changed = True
    while changed:
        changed = False
        current = list(sets)
        for s in current:
            comp = carrier - s
            if comp not in sets:
                sets.add(comp)
                changed = True
        current = list(sets)
        for a, b in combinations(current, 2):
            u = a | b
            if u not in sets:
                sets.add(u)
                changed = True
    return sets


def atoms_of_family(points, sets):
    """Minimal nonempty members: intersection of all members containing p."""
    atoms = set()
    carrier = frozenset(points)
    for p in points:
        atom = carrier
        for s in sets:
            if p in s:
                atom = atom & s
        atoms.add(atom)
    return atoms


# ---------------------------------------------------------------------- CLI


def run_main(argv):
    """Run the CLI in-process: (exit code, stdout, stderr).

    argparse's own exits (usage errors, --help) count with their code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()
