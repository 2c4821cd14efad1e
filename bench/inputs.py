"""Seeded inputs for the benchmark workloads.

Every input is a *pool case*: a model fragment generated from its key
(kind, size, index) alone, so its expected result can be recorded once in
``digests.json``.  A run's ``--seed`` picks which pool cases fill a fixed
deck of op slots; sizes and variants follow a fixed order per op kind, so
two seeds differ in content but not in their mix, which keeps run-to-run
spread low.  This module imports nothing from finmeas.
"""

import json
import random
from fractions import Fraction

# the modules of src/finmeas, which the per-layer metrics are named after
LAYERS = (
    "spaces", "measures", "integrate", "kernels", "metrics", "simplex",
    "logic_bisim", "cli", "rational",
)

CASES_PER_LEVEL = 16

# op kind -> size ladder; a kind's slot j uses ladder[j % len(ladder)]
DISTANCES_LADDERS = {
    "prohorov": [5, 6, 7, 8, 9],
    "hutchinson": [6, 7, 8, 9, 10, 11, 12],
    "weak-check": [6, 7, 8, 9, 10, 11],
}
# one cycle of the distances deck; the counts balance wall-time shares
DISTANCES_CYCLE = [
    "prohorov", "weak-check", "hutchinson", "prohorov", "weak-check",
    "prohorov", "weak-check",
]

# (|T|, |S|, horizon) for path ops: path spaces of up to 4096 atoms
PATH_CONFIGS = [(1, 2, 10), (2, 2, 6), (1, 4, 6), (2, 4, 4), (4, 4, 3), (1, 3, 7)]
PATH_ATOM_CAP = 4096

CHAINS_LADDERS = {
    "refine-deep": [30, 40, 50, 60],
    "refine-shallow": [20, 30, 40, 50, 60, 70, 80],
    "mediate": [3, 4, 5],
    "couple": [6, 8, 10, 12, 14],
    "compose": [20, 25, 30, 35, 40],
    "path": list(range(len(PATH_CONFIGS))),
}
CHAINS_CYCLE = [
    "refine-deep", "couple", "compose", "refine-shallow", "path",
    "mediate", "couple", "compose", "refine-shallow", "path",
    "mediate", "couple", "compose", "refine-shallow", "path",
]

# kinds whose cases come in variants, chosen by the case index modulo this:
# the Hutchinson gamma, weak-check sequences that converge or not, shift or
# ladder chains, feasible or infeasible couplings
VARIANTS = {"hutchinson": 3, "weak-check": 2, "refine-deep": 2, "couple": 2}

CLI_SIZES = [250, 300, 350]

DECK_CYCLES = {"distances": 40, "chains": 12}
# The share of --seconds that one pass over the deck stands for: a run
# makes round(--seconds / this) passes, at least one.  At --seconds 20,
# distances and cli make one pass (about 20 s of wall time) and chains two
# (its p90 needed the extra samples to be steady across seeds).
PASS_SECONDS = {"distances": 20, "chains": 10, "cli": 20}


def case_key(kind, n, idx):
    return f"{kind}:{n}:{idx}"


def _rng(workload, kind, n, idx):
    return random.Random(f"{workload}:{case_key(kind, n, idx)}")


def _q(value):
    """A model-file rational: an int or a 'p/q' string."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else str(value)


def _probability(rng, n, den=None, positive=False):
    den = den or rng.choice([12, 24, 60])
    if positive:
        cuts = sorted(rng.sample(range(1, den), n - 1)) if n > 1 else []
    else:
        cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    bounds = [0] + cuts + [den]
    return [Fraction(bounds[k + 1] - bounds[k], den) for k in range(n)]


def _metric(rng, n):
    """A normalized exact metric: a line embedding or a shortest-path closure."""
    if rng.random() < 0.5:
        coords = rng.sample(range(1, 8 * n), n)
        dist = [[Fraction(abs(a - b)) for b in coords] for a in coords]
    else:
        dist = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = Fraction(rng.randint(2, 16), 8)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if i != j and dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
    top = max(max(row) for row in dist)
    return [[d / top for d in row] for row in dist]


def _weights(points, values):
    return {p: _q(v) for p, v in zip(points, values) if v != 0}


def _discrete(points):
    return {"points": list(points)}


def _kernel_entry(domain, codomain, dom_points, cod_points, matrix):
    return {
        "domain": domain,
        "codomain": codomain,
        "rows": {
            p: _weights(cod_points, row) for p, row in zip(dom_points, matrix)
        },
    }


def _sub_markov_rows(rng, m, den=24):
    rows = []
    for _ in range(m):
        row = _probability(rng, m, den)
        scale = Fraction(rng.randint(den // 2, den), den)
        rows.append([w * scale for w in row])
    return rows


def _expand(rng, base, copies):
    """Blow each base state up into copies whose rows split the base row.

    Each copy's mass into a target block equals the base mass into that
    block, so the copies of one state stay logically equivalent.
    """
    m = len(base)
    matrix = []
    for b in range(m):
        for _ in range(copies[b]):
            row = []
            for target in range(m):
                remaining = base[b][target]
                for _ in range(copies[target] - 1):
                    part = remaining * Fraction(rng.randint(0, 4), 4)
                    row.append(part)
                    remaining -= part
                row.append(remaining)
            matrix.append(row)
    return matrix


class Case:
    """One pool case: a model fragment and the names its op reads."""

    def __init__(self, kind, n, idx, doc, params):
        self.kind = kind
        self.n = n
        self.key = case_key(kind, n, idx)
        self.doc = doc
        self.params = params


# ------------------------------------------------------------- distances


def distances_case(kind, n, idx):
    rng = _rng("distances", kind, n, idx)
    name = f"{kind[0]}{n}_{idx}"
    points = [f"q{k}" for k in range(n)]
    dist = _metric(rng, n)
    doc = {
        "metrics": {
            name: {"points": points, "dist": [[_q(v) for v in row] for row in dist]}
        },
        "measures": {},
    }
    measures = doc["measures"]
    params = {"metric": name}
    if kind in ("prohorov", "hutchinson"):
        for side in ("mu", "nu"):
            measures[f"{name}_{side}"] = {
                "space": name,
                "weights": _weights(points, _probability(rng, n)),
            }
        params.update(left=f"{name}_mu", right=f"{name}_nu")
        if kind == "hutchinson":
            params["gamma"] = str(Fraction(1, 4) * 2 ** (idx % 3))
    else:
        length = 4 + n % 5
        limit = _probability(rng, n)
        target = limit if idx % 2 == 0 else _probability(rng, n)
        names = []
        for k in range(length):
            rho = _probability(rng, n)
            t = Fraction(1, 8 ** (k + 1))
            weights = [(1 - t) * a + t * b for a, b in zip(target, rho)]
            names.append(f"{name}_s{k}")
            measures[names[-1]] = {"space": name, "weights": _weights(points, weights)}
        measures[f"{name}_lim"] = {"space": name, "weights": _weights(points, limit)}
        params.update(sequence=names, limit=f"{name}_lim", tol="1/100")
    return Case(kind, n, idx, doc, params)


# ---------------------------------------------------------------- chains


def _permuted_points(rng, prefix, n):
    labels = [f"{prefix}{k}" for k in range(n)]
    rng.shuffle(labels)
    return labels


def chains_case(kind, n, idx):
    rng = _rng("chains", kind, n, idx)
    name = f"{kind.split('-')[-1][:4]}{n}_{idx}"
    doc = {"spaces": {}, "measures": {}, "kernels": {}, "relations": {}}
    params = {}
    if kind == "refine-deep":
        # a shift chain (p = 1) or a ladder with self-loops; the last state
        # has an empty row, and each round of refinement peels one state off
        p = Fraction(1) if idx % 2 == 0 else Fraction(rng.randint(1, 11), 12)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n - 1):
            matrix[i][i + 1] = p
            matrix[i][i] = 1 - p
        points = _permuted_points(rng, "s", n)
        doc["spaces"][name] = _discrete(points)
        doc["kernels"][name] = _kernel_entry(name, name, points, points, matrix)
        params["kernel"] = name
    elif kind == "refine-shallow":
        m = n // 5
        copies = [1] * m
        for _ in range(n - m):
            copies[rng.randrange(m)] += 1
        matrix = _expand(rng, _sub_markov_rows(rng, m), copies)
        points = _permuted_points(rng, "s", n)
        doc["spaces"][name] = _discrete(points)
        doc["kernels"][name] = _kernel_entry(name, name, points, points, matrix)
        depth_q = [Fraction(rng.randint(1, 6), 8) for _ in range(3)]
        params.update(
            kernel=name,
            formula=(
                f"(dia>={depth_q[0]} dia>={depth_q[1]} T & dia>={depth_q[2]} T)"
            ),
        )
    elif kind == "mediate":
        base = _sub_markov_rows(rng, n)
        copies = [2] * n
        for side in ("x", "y"):
            matrix = _expand(rng, base, copies)
            points = [f"{side}{b}_{c}" for b in range(n) for c in range(copies[b])]
            space = f"{name}_{side}"
            doc["spaces"][space] = _discrete(points)
            doc["kernels"][space] = _kernel_entry(space, space, points, points, matrix)
        params.update(left=f"{name}_x", right=f"{name}_y")
    elif kind == "couple":
        left = [f"l{k}" for k in range(n)]
        right = [f"r{k}" for k in range(n)]
        support = set(rng.sample([(i, j) for i in range(n) for j in range(n)], n * n // 2))
        den = 24
        if idx % 2 == 0:
            # feasible: the marginals of a random joint on the support
            for i in range(n):
                support.add((i, rng.randrange(n)))
            cells = sorted(support)
            joint = _probability(rng, len(cells), den, positive=len(cells) < den)
            mu = [Fraction(0)] * n
            nu = [Fraction(0)] * n
            for (i, j), w in zip(cells, joint):
                mu[i] += w
                nu[j] += w
        else:
            # infeasible: row i0 reaches only j0, which holds less mass
            i0, j0 = rng.randrange(n), rng.randrange(n)
            support = {(i, j) for i, j in support if i != i0} | {(i0, j0)}
            mu = _probability(rng, n, den, positive=True)
            nu = _probability(rng, n, den, positive=True)
            while mu[i0] <= nu[j0]:
                mu = _probability(rng, n, den, positive=True)
        doc["spaces"][f"{name}_l"] = _discrete(left)
        doc["spaces"][f"{name}_r"] = _discrete(right)
        doc["measures"][f"{name}_mu"] = {
            "space": f"{name}_l", "weights": _weights(left, mu)
        }
        doc["measures"][f"{name}_nu"] = {
            "space": f"{name}_r", "weights": _weights(right, nu)
        }
        doc["relations"][name] = {
            "left": f"{name}_l",
            "right": f"{name}_r",
            "pairs": [[left[i], right[j]] for i, j in sorted(support)],
        }
        params.update(left=f"{name}_mu", right=f"{name}_nu", support=name)
    elif kind == "compose":
        points = [f"s{k}" for k in range(n)]
        doc["spaces"][name] = _discrete(points)
        for side in ("a", "b"):
            matrix = [_probability(rng, n, 2 * n, positive=True) for _ in range(n)]
            doc["kernels"][f"{name}_{side}"] = _kernel_entry(
                name, name, points, points, matrix
            )
        params.update(left=f"{name}_a", right=f"{name}_b")
    elif kind == "path":
        n_t, n_s, horizon = PATH_CONFIGS[n]
        t_points = [f"t{k}" for k in range(n_t)]
        s_points = [f"s{k}" for k in range(n_s)]
        step_points = [f"{t}|{s}" for t in t_points for s in s_points]
        doc["spaces"][f"{name}_t"] = _discrete(t_points)
        doc["spaces"][f"{name}_s"] = _discrete(s_points)
        doc["spaces"][f"{name}_ts"] = {"product": [f"{name}_t", f"{name}_s"]}
        matrix = [_probability(rng, len(step_points), 24) for _ in s_points]
        doc["kernels"][name] = _kernel_entry(
            f"{name}_s", f"{name}_ts", s_points, step_points, matrix
        )
        params.update(kernel=name, start=rng.choice(s_points), horizon=horizon)
    else:
        raise ValueError(f"unknown chains op kind {kind!r}")
    return Case(kind, n, idx, doc, params)


# ------------------------------------------------------------------- cli


def cli_model(size, idx):
    """A generated model: large in bytes (a few hundred atoms) but cheap."""
    rng = _rng("cli", "model", size, idx)
    xs = [f"x{k}" for k in range(size)]
    a_pts = [f"a{k}" for k in range(10)]
    b_pts = [f"b{k}" for k in range(size // 10)]
    s_pts = [f"s{k}" for k in range(6)]
    t_pts = [f"t{k}" for k in range(3)]
    q_pts = [f"u{k}" for k in range(30)]
    d_pts = [f"d{k}" for k in range(6)]
    ab_pts = [f"{a}|{b}" for a in a_pts for b in b_pts]
    ts_pts = [f"{t}|{s}" for t in t_pts for s in s_pts]

    def prob(points, positive=False):
        return _weights(points, _probability(rng, len(points), 10 * len(points), positive))

    def values(points, lo, hi):
        return {p: _q(Fraction(rng.randint(lo, hi), rng.choice([1, 2, 3, 4]))) for p in points}

    doc = {
        "spaces": {
            "X": _discrete(xs),
            "G": {
                "points": xs,
                "generator": [
                    [p for p in xs if rng.random() < 0.5] for _ in range(3)
                ],
            },
            "A": _discrete(a_pts),
            "B": _discrete(b_pts),
            "AB": {"product": ["A", "B"]},
            "S": _discrete(s_pts),
            "T": _discrete(t_pts),
            "TS": {"product": ["T", "S"]},
            "Q": _discrete(q_pts),
        },
        "metrics": {
            "d": {
                "points": d_pts,
                "dist": [[_q(v) for v in row] for row in _metric(rng, len(d_pts))],
            }
        },
        "measures": {
            "mu": {"space": "X", "weights": prob(xs)},
            "nu": {"space": "X", "weights": prob(xs, positive=True)},
            "sig": {"space": "X", "weights": values(xs, -9, 9)},
            "alpha": {"space": "A", "weights": prob(a_pts)},
            "beta": {"space": "B", "weights": prob(b_pts)},
            "joint": {"space": "AB", "weights": prob(ab_pts)},
            "dm": {"space": "d", "weights": _weights(d_pts, _probability(rng, 6))},
            "dn": {"space": "d", "weights": _weights(d_pts, _probability(rng, 6))},
        },
        "functions": {
            "f": {"space": "X", "values": values(xs, 0, 9)},
            "g": {"space": "X", "values": values(xs, -5, 9)},
            "lam": {"space": "X", "values": values(xs, 0, 5)},
            "F": {"space": "AB", "values": values(ab_pts, -4, 9)},
        },
        "kernels": {},
        "relations": {
            "sync": {
                "left": "A",
                "right": "B",
                "pairs": [[a, rng.choice(b_pts)] for a in a_pts],
            }
        },
    }
    kernels = doc["kernels"]
    sparse = []
    for _ in b_pts:
        row = [Fraction(0)] * len(b_pts)
        for j, w in zip(rng.sample(range(len(b_pts)), 4), _probability(rng, 4, 12)):
            row[j] = w
        sparse.append(row)
    kernels["KB"] = _kernel_entry("B", "B", b_pts, b_pts, sparse)
    kernels["KL"] = _kernel_entry(
        "X", "A", xs, a_pts, [_probability(rng, len(a_pts), 20) for _ in xs]
    )
    kernels["MP"] = _kernel_entry(
        "S", "TS", s_pts, ts_pts, [_probability(rng, len(ts_pts), 36) for _ in s_pts]
    )
    copies = [6] * 5
    kernels["KQ"] = _kernel_entry(
        "Q", "Q", q_pts, q_pts, _expand(rng, _sub_markov_rows(rng, 5), copies)
    )
    base = _sub_markov_rows(rng, 3)
    copies = [2, 2, 2]
    for side in ("1", "2"):
        points = [f"k{side}_{b}_{c}" for b in range(3) for c in range(copies[b])]
        doc["spaces"][f"S{side}"] = _discrete(points)
        kernels[f"K{side}"] = _kernel_entry(
            f"S{side}", f"S{side}", points, points, _expand(rng, base, copies)
        )
    doc["measures"]["lim"] = {"space": "d", "weights": _weights(d_pts, _probability(rng, 6))}
    limit = [Fraction(doc["measures"]["lim"]["weights"].get(p, 0)) for p in d_pts]
    for k in range(6):
        rho = _probability(rng, 6)
        t = Fraction(1, 8 ** (k + 1))
        doc["measures"][f"w{k}"] = {
            "space": "d",
            "weights": _weights(d_pts, [(1 - t) * a + t * b for a, b in zip(limit, rho)]),
        }
    half = ",".join(xs[: size // 2])
    return doc, half


# A command template is (id, argv, json, certificate kind or None).  Every
# subcommand appears; about half run with --json.
def cli_commands(half_set):
    return [
        ("space", ["space", "--name", "G"], True, None),
        ("measure-eval", ["measure", "eval", "--measure", "mu", "--set", half_set], False, None),
        ("jordan", ["decompose", "jordan", "--measure", "sig"], True, None),
        ("lebesgue", ["decompose", "lebesgue", "--num", "nu", "--den", "mu"], False, None),
        ("rn", ["rn", "--num", "mu", "--den", "nu"], True, None),
        ("integrate", ["integrate", "--function", "f", "--measure", "mu", "--layered"], False, None),
        ("lp-norm", ["lp-norm", "--function", "g", "--measure", "mu", "--p", "2"], False, None),
        ("hoelder", ["ineq", "hoelder", "--left", "f", "--right", "g", "--measure", "mu", "--p", "3"], True, None),
        ("minkowski", ["ineq", "minkowski", "--left", "f", "--right", "g", "--measure", "nu", "--p", "2"], False, None),
        ("delta", ["delta", "--left", "f", "--right", "g", "--measure", "mu"], True, None),
        ("product", ["product", "--left", "alpha", "--right", "beta"], False, None),
        ("fubini", ["fubini", "--function", "F", "--left", "alpha", "--right", "beta"], True, None),
        ("compose", ["kernel", "compose", "--left", "KB", "--right", "KB"], True, None),
        ("lift", ["kernel", "lift", "--kernel", "KL", "--measure", "mu"], False, None),
        ("path", ["kernel", "path", "--kernel", "MP", "--start", "s0", "--horizon", "2"], False, None),
        ("disintegrate", ["disintegrate", "--measure", "joint"], True, None),
        ("prohorov", ["dist", "prohorov", "--left", "dm", "--right", "dn", "--metric", "d"], False, None),
        ("hutchinson", ["dist", "hutchinson", "--left", "dm", "--right", "dn", "--metric", "d", "--gamma", "1/2"], True, "hutchinson"),
        ("weak-check", ["weak-check", "--sequence", "w0,w1,w2,w3,w4,w5", "--limit", "lim", "--metric", "d", "--tol", "0.01"], False, None),
        ("logic-check", ["logic", "check", "--kernel", "KQ", "--formula", "(dia>=1/2 dia>=1/3 T & dia>=1/4 T)"], True, None),
        ("logic-quotient", ["logic", "quotient", "--kernel", "KQ"], False, None),
        ("mediate", ["bisim", "mediate", "--left", "K1", "--right", "K2"], True, "mediate"),
        ("to-measure", ["functional", "to-measure", "--functional", "lam"], False, None),
        ("dual", ["functional", "dual", "--functional", "lam", "--measure", "nu", "--p", "2"], True, None),
    ]


# Commands on the three bundled example models: the C15 transcript set plus
# the subcommands it leaves out.
BUNDLED_COMMANDS = [
    ("decomposition", "space", ["space", "--name", "G"], False, None),
    ("decomposition", "measure-eval", ["measure", "eval", "--measure", "tri", "--set", "a,c"], True, None),
    ("decomposition", "jordan", ["decompose", "jordan", "--measure", "sig"], False, None),
    ("decomposition", "lebesgue", ["decompose", "lebesgue", "--num", "mu_leb", "--den", "nu_leb"], True, None),
    ("decomposition", "rn", ["rn", "--num", "rho", "--den", "eta"], False, None),
    ("decomposition", "integrate", ["integrate", "--function", "f2m1", "--measure", "quarter"], True, None),
    ("decomposition", "lp-norm", ["lp-norm", "--function", "f12", "--measure", "eta", "--p", "2"], False, None),
    ("decomposition", "hoelder", ["ineq", "hoelder", "--left", "f12", "--right", "g31", "--measure", "eta", "--p", "2"], True, None),
    ("decomposition", "minkowski", ["ineq", "minkowski", "--left", "f12", "--right", "g31", "--measure", "eta", "--p", "2"], False, None),
    ("decomposition", "delta", ["delta", "--left", "f12", "--right", "g31", "--measure", "eta"], True, None),
    ("decomposition", "to-measure", ["functional", "to-measure", "--functional", "lam"], False, None),
    ("decomposition", "dual", ["functional", "dual", "--functional", "lam", "--measure", "eta", "--p", "1"], True, None),
    ("processes", "compose", ["kernel", "compose", "--left", "K", "--right", "K"], False, None),
    ("processes", "lift", ["kernel", "lift", "--kernel", "K", "--measure", "mu2"], True, None),
    ("processes", "path", ["kernel", "path", "--kernel", "MP", "--start", "a", "--horizon", "2"], False, None),
    ("processes", "product", ["product", "--left", "mu2", "--right", "nu2"], True, None),
    ("processes", "disintegrate", ["disintegrate", "--measure", "joint"], False, None),
    ("processes", "fubini", ["fubini", "--function", "F", "--left", "mu2", "--right", "nu2"], True, None),
    ("processes", "logic-check", ["logic", "check", "--kernel", "M", "--formula", "dia>=1/2 dia>=1 T"], False, None),
    ("processes", "logic-quotient", ["logic", "quotient", "--kernel", "M"], True, None),
    ("processes", "mediate", ["bisim", "mediate", "--left", "KU", "--right", "KZ"], True, "mediate"),
    ("metrics", "prohorov", ["dist", "prohorov", "--left", "dirac_a", "--right", "nu_p", "--metric", "d2"], True, None),
    ("metrics", "hutchinson", ["dist", "hutchinson", "--left", "dirac_a", "--right", "dirac_b", "--metric", "d2", "--gamma", "1"], True, "hutchinson"),
    ("metrics", "weak-check", ["weak-check", "--sequence", "w1,w2,w3,w4,w5,w6", "--limit", "wlim", "--metric", "d3", "--tol", "0.01"], False, None),
]


class CliOp:
    """One CLI invocation: a model (a bundled example's name or a generated
    model's key) plus a command template."""

    def __init__(self, model, cid, argv, json_mode, cert):
        self.model = model
        self.key = f"{model}/{cid}"  # the digest key
        self.argv = argv + (["--json"] if json_mode else [])
        self.cert = cert
        self.kind = argv[0]


# ------------------------------------------------------------------ decks


def _deck(workload, seed, ladders, cycle, make_case):
    """Fill DECK_CYCLES cycles of slots; the seed picks each slot's case.

    A kind's slots walk its size ladder, and each lap of the ladder takes
    the next variant (index modulo VARIANTS), so every seed runs
    the same sizes and variants in the same order.
    """
    rng = random.Random(f"deck:{workload}:{seed}")
    used = {kind: 0 for kind in ladders}
    deck = []
    for _ in range(DECK_CYCLES[workload]):
        for kind in cycle:
            ladder = ladders[kind]
            lap, step = divmod(used[kind], len(ladder))
            used[kind] += 1
            variants = VARIANTS.get(kind, 1)
            idx = rng.randrange(CASES_PER_LEVEL // variants) * variants + lap % variants
            deck.append(make_case(kind, ladder[step], idx))
    return deck


def distances_deck(seed):
    return _deck("distances", seed, DISTANCES_LADDERS, DISTANCES_CYCLE, distances_case)


def chains_deck(seed):
    return _deck("chains", seed, CHAINS_LADDERS, CHAINS_CYCLE, chains_case)


def cli_deck(seed):
    """Generated models (one per size, seed-chosen) and the bundled ones.

    Returns (ops, {model name: doc or None}); a bundled model maps to None
    because its file ships with finmeas.  The order is fixed: each command
    runs on each generated model in turn, then on a bundled model, so
    seeds differ only in model content.
    """
    rng = random.Random(f"deck:cli:{seed}")
    models = {name: None for name in ("decomposition", "processes", "metrics")}
    generated = []
    for size in CLI_SIZES:
        idx = rng.randrange(CASES_PER_LEVEL)
        name = case_key("model", size, idx)
        models[name], half = cli_model(size, idx)
        generated.append((name, cli_commands(half)))
    ops = []
    for k, bundled in enumerate(BUNDLED_COMMANDS):
        ops += [CliOp(name, *commands[k]) for name, commands in generated]
        ops.append(CliOp(*bundled))
    return ops, models


def merge_docs(cases):
    """One model document holding every distinct case of a deck."""
    doc = {}
    seen = set()
    for case in cases:
        if case.key in seen:
            continue
        seen.add(case.key)
        for section, entries in case.doc.items():
            doc.setdefault(section, {}).update(entries)
    return {section: entries for section, entries in doc.items() if entries}


def dump(doc):
    """Canonical bytes of a model document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
