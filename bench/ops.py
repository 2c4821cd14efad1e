"""Op runners and the correctness gate.

Ops call the library through module attributes (``fm_metrics.prohorov_distance``
and so on), so the traced run can wrap those attributes from outside.  The
gate runs after each op, outside its timing: unique results are compared
with digests recorded at a known-good commit, and results that are not
unique (Lipschitz witnesses, couplings, mediating kernels, Hall cuts) are
checked by certificate with the benchmark's own arithmetic.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from finmeas import cli as fm_cli
from finmeas import kernels as fm_kernels
from finmeas import logic_bisim as fm_logic
from finmeas import metrics as fm_metrics
from inputs import LAYERS

# the layer a CLI subcommand's result comes from
CLI_LAYER = {
    "space": "spaces", "measure": "measures", "decompose": "measures",
    "rn": "measures", "functional": "measures", "integrate": "integrate",
    "lp-norm": "integrate", "ineq": "integrate", "delta": "integrate",
    "product": "kernels", "fubini": "kernels", "kernel": "kernels",
    "disintegrate": "kernels", "dist": "metrics", "weak-check": "metrics",
    "logic": "logic_bisim", "bisim": "logic_bisim",
}

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


class CheckFailed(Exception):
    """A result that failed the gate, charged to one layer."""

    def __init__(self, layer, message):
        super().__init__(message)
        self.layer = layer


def failing_layer(err):
    """The layer an op failure is charged to.

    A failed check names its layer; an unexpected exception is charged to
    the innermost finmeas module on its traceback, else to the benchmark.
    """
    if isinstance(err, CheckFailed):
        return err.layer
    layer = "bench"
    for frame, _ in traceback.walk_tb(err.__traceback__):
        package, _, name = frame.f_globals.get("__name__", "").partition(".")
        if package == "finmeas" and name in LAYERS:
            layer = name
    return layer


# whole integers and p/q rationals; digits inside labels or floats do not count
_INT = re.compile(r"(?<![\w.])\d+(?![\w.])")


def max_bits(obj):
    """Largest numerator or denominator bit length in a result payload."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, (str, bytes)):
        text = obj.decode() if isinstance(obj, bytes) else obj
        return max((int(m).bit_length() for m in _INT.findall(text)), default=0)
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return max((max_bits(v) for v in obj), default=0)
    return 0


class Gate:
    """Digest table plus the running maximum of result bit lengths.

    With ``record`` set, digests are stored instead of compared; that is
    how ``record_digests.py`` fills the table.
    """

    def __init__(self, record=False):
        self.record = record
        self.table = {} if record else json.loads(DIGESTS_PATH.read_text())
        self.bits = 0

    def digest(self, key, payload, layer):
        if isinstance(payload, bytes):
            data = payload
        else:
            data = json.dumps(payload, sort_keys=True).encode()
        self.bits = max(self.bits, max_bits(payload))
        value = hashlib.sha256(data).hexdigest()[:16]
        if self.record:
            self.table[key] = value
        elif self.table.get(key) != value:
            raise CheckFailed(layer, f"{key}: result digest {value} != recorded {self.table.get(key)}")

    def note(self, payload):
        self.bits = max(self.bits, max_bits(payload))


def _fracs(weights):
    return [str(w) for w in weights]


# ------------------------------------------------------------- distances


def run_distances(case, model):
    p = case.params
    metric = model.metric(p["metric"])
    if case.kind == "weak-check":
        sequence = [model.measure(name, nonneg=True) for name in p["sequence"]]
        limit = model.measure(p["limit"], nonneg=True)
        return fm_metrics.check_weak_limit(sequence, limit, metric, Fraction(p["tol"]))
    mu = model.measure(p["left"], nonneg=True)
    nu = model.measure(p["right"], nonneg=True)
    if case.kind == "prohorov":
        return fm_metrics.prohorov_distance(mu, nu, metric)
    return fm_metrics.hutchinson_distance(mu, nu, metric, Fraction(p["gamma"]))


def check_hutchinson(value, witness, mu, nu, dist, gamma):
    """The witness is gamma-bounded, 1-Lipschitz and attains the value."""
    n = len(witness)
    if any(abs(v) > gamma for v in witness):
        raise CheckFailed("simplex", "Hutchinson witness exceeds gamma")
    for i in range(n):
        for j in range(n):
            if witness[i] - witness[j] > dist[i][j]:
                raise CheckFailed("simplex", "Hutchinson witness is not 1-Lipschitz")
    objective = sum((v * (a - b) for v, a, b in zip(witness, mu, nu)), Fraction(0))
    if objective != value:
        raise CheckFailed("simplex", f"witness objective {objective} != value {value}")


def check_distances(gate, case, model, result):
    p = case.params
    if case.kind == "prohorov":
        gate.digest(case.key, str(result), "metrics")
    elif case.kind == "hutchinson":
        value, witness = result
        gate.digest(case.key, str(value), "metrics")
        metric = model.metric(p["metric"])
        values = [Fraction(v) for v in witness.values]
        gate.note(values)
        check_hutchinson(
            value, values,
            model.measure(p["left"]).weights, model.measure(p["right"]).weights,
            metric.dist, Fraction(p["gamma"]),
        )
    else:
        report = result
        gate.digest(case.key, [
            report.converges, report.per_atom_ok, report.portmanteau_ok,
            report.mass_ok, repr(report.per_atom_residual),
            repr(report.portmanteau_excess), repr(report.mass_residual),
        ], "metrics")
        if report.witness_set is not None:
            points = model.metric(p["metric"]).space.points
            inside = [k for k, q in enumerate(points) if q in report.witness_set]
            limit = model.measure(p["limit"]).weights
            tail = p["sequence"][len(p["sequence"]) // 2:]
            excess = max(
                float(sum((model.measure(name).weights[k] - limit[k] for k in inside), Fraction(0)))
                for name in tail
            )
            if excess != report.portmanteau_excess:
                raise CheckFailed("metrics", "weak-check witness set does not attain the excess")


# ---------------------------------------------------------------- chains


def run_chains(case, model):
    p = case.params
    kind = case.kind
    if kind in ("refine-deep", "refine-shallow"):
        kernel = model.kernel(p["kernel"])
        partition = fm_logic.logical_equivalence(kernel)
        quotient = fm_logic.quotient_kernel(kernel, partition)
        if kind == "refine-deep":
            return partition, quotient
        phi = fm_logic.parse_formula(p["formula"])
        return partition, quotient, fm_logic.validity_set(kernel, phi)
    if kind == "mediate":
        k1 = model.kernel(p["left"])
        k2 = model.kernel(p["right"])
        p1 = fm_logic.logical_equivalence(k1)
        p2 = fm_logic.logical_equivalence(k2)
        iso = fm_logic.find_quotient_iso(
            fm_logic.quotient_kernel(k1, p1), fm_logic.quotient_kernel(k2, p2)
        )
        return p1, p2, iso, fm_logic.mediate(k1, k2, p1, p2, iso)
    if kind == "couple":
        _, _, pairs = model.relations[p["support"]]
        problem = fm_logic.CouplingProblem.from_point_pairs(
            model.measure(p["left"]), model.measure(p["right"]), pairs
        )
        return problem, fm_logic.solve_coupling(problem)
    if kind == "compose":
        return fm_kernels.convolve(model.kernel(p["left"]), model.kernel(p["right"]))
    if kind == "path":
        return fm_kernels.path_measure(model.kernel(p["kernel"]), p["start"], p["horizon"])
    raise ValueError(f"unknown chains op kind {kind!r}")


def _kernel_payload(kernel):
    return [kernel.kind, list(kernel.domain.points), [_fracs(r.weights) for r in kernel.rows]]


def _row_dict(kernel, point):
    row = kernel.row_at_point(point)
    return {atom[0]: w for atom, w in zip(kernel.codomain.atoms, row.weights)}


def _split(label):
    left, sep, right = label.partition("|")
    if not sep or "|" in right:
        raise CheckFailed("spaces", f"unexpected pair label {label!r}")
    return left, right


def check_mediation(a_atoms, b_atoms, rows, k1, k2, iso):
    """Mediating-kernel certificate from plain data.

    a_atoms and b_atoms are the labels 'x|y' of the A and B atoms (the
    kernels live on discrete spaces), rows[i][j] the weight of row i on B
    atom j.  A and B must be exactly the pairs whose logical classes iso
    matches, and each row must push forward to the k1 row of x and the k2
    row of y.
    """
    classes = []
    for kernel in (k1, k2):
        partition = fm_logic.logical_equivalence(kernel)
        classes.append({q: block[0] for block in partition.blocks for q in block})
    matching = sorted(
        (x, y) for x in classes[0] for y in classes[1] if iso.get(classes[0][x]) == classes[1][y]
    )
    pairs = [_split(label) for label in b_atoms]
    if sorted(pairs) != matching or sorted(map(_split, a_atoms)) != matching:
        raise CheckFailed("logic_bisim", "A or B is not the set of class-matching pairs")
    if len(rows) != len(a_atoms) or any(len(row) != len(pairs) for row in rows):
        raise CheckFailed("logic_bisim", "mediating kernel has the wrong shape")
    for label, row in zip(a_atoms, rows):
        x, y = _split(label)
        for side, (kernel, point) in enumerate(((k1, x), (k2, y))):
            pushed = {}
            for pair, w in zip(pairs, row):
                pushed[pair[side]] = pushed.get(pair[side], Fraction(0)) + w
            want = _row_dict(kernel, point)
            for q, w in want.items():
                if pushed.get(q, Fraction(0)) != w:
                    raise CheckFailed("logic_bisim", f"mediating row of {label} misses marginal {side + 1} at {q}")
            if any(q not in want and w != 0 for q, w in pushed.items()):
                raise CheckFailed("logic_bisim", f"mediating row of {label} leaves the codomain")


def check_coupling(problem, result):
    mu = problem.left_marginal.weights
    nu = problem.right_marginal.weights
    n1, n2 = len(mu), len(nu)
    if isinstance(result, fm_logic.Infeasible):
        rows = set(result.rows.atom_indices)
        reach = {j for i, j in problem.support if i in rows}
        if set(result.neighborhood.atom_indices) != reach:
            raise CheckFailed("logic_bisim", "Hall cut neighbourhood does not match the support")
        row_mass = sum((mu[i] for i in rows), Fraction(0))
        reach_mass = sum((nu[j] for j in reach), Fraction(0))
        if (row_mass, reach_mass) != (result.row_mass, result.neighborhood_mass):
            raise CheckFailed("logic_bisim", "Hall cut masses are wrong")
        if not row_mass > reach_mass:
            raise CheckFailed("logic_bisim", "Hall cut has no positive deficit")
        return
    w = result.weights
    if any(v < 0 for v in w) or any(
        w[i * n2 + j] != 0 and (i, j) not in problem.support
        for i in range(n1) for j in range(n2)
    ):
        raise CheckFailed("simplex", "coupling is negative or leaves the support")
    for i in range(n1):
        if sum(w[i * n2: (i + 1) * n2], Fraction(0)) != mu[i]:
            raise CheckFailed("simplex", f"coupling row {i} misses the left marginal")
    for j in range(n2):
        if sum(w[j::n2], Fraction(0)) != nu[j]:
            raise CheckFailed("simplex", f"coupling column {j} misses the right marginal")


def check_chains(gate, case, model, result):
    kind = case.kind
    if kind in ("refine-deep", "refine-shallow"):
        partition, quotient = result[0], result[1]
        payload = [[list(b) for b in partition.blocks], _kernel_payload(quotient)]
        if kind == "refine-shallow":
            payload.append(result[2].sorted_points())
        gate.digest(case.key, payload, "logic_bisim")
    elif kind == "mediate":
        p1, p2, iso, mediation = result
        gate.digest(case.key, [[list(b) for b in p.blocks] for p in (p1, p2)], "logic_bisim")
        kernel = mediation.kernel
        rows = [list(r.weights) for r in kernel.rows]
        gate.note(rows)
        check_mediation(
            [a[0] for a in kernel.domain.atoms], [b[0] for b in kernel.codomain.atoms],
            rows, model.kernel(case.params["left"]), model.kernel(case.params["right"]),
            iso[0],
        )
    elif kind == "couple":
        problem, coupling = result
        feasible = not isinstance(coupling, fm_logic.Infeasible)
        gate.digest(case.key, "feasible" if feasible else "infeasible", "logic_bisim")
        gate.note(list(coupling.weights) if feasible else [coupling.row_mass, coupling.neighborhood_mass])
        check_coupling(problem, coupling)
    elif kind == "compose":
        gate.digest(case.key, _kernel_payload(result), "kernels")
    else:
        gate.digest(case.key, [len(result.space.atoms), _fracs(result.weights)], "kernels")


# ------------------------------------------------------------------- cli


def spawn_cli(op, model_path, env, cwd, err_path):
    """Run one ``python -m finmeas`` child; returns (stdout, code, rusage).

    stderr goes to a file so a chatty child cannot block on a full pipe;
    os.wait4 gives the child's own CPU time and peak RSS.
    """
    argv = [sys.executable, "-m", "finmeas", *op.argv, "-m", str(model_path)]
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage


def replay_cli(op, model_path, call):
    """Replay a command in-process: parse, load, handler, render.

    ``call(name, fn, *args)`` runs each step, so the traced run can record
    a span per step.  Returns the stdout bytes the command would print.
    """
    args = call("cli.parse", lambda: fm_cli.build_parser().parse_args([*op.argv, "-m", str(model_path)]))
    model = call("cli.load_model", fm_cli.load_model, args.model)
    payload, lines = call("cli.handler", args.func, args, model)
    text = call(
        "cli.render",
        lambda: json.dumps(payload, indent=2) if args.json else "\n".join(lines),
    )
    return (text + "\n").encode()


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check_cli(gate, op, stdout, code, stderr, load):
    """Exit code, empty stderr, then digest or certificate of stdout.

    ``load(model name)`` returns the parsed model, for certificates.
    """
    layer = CLI_LAYER[op.kind]
    if code != 0 or stderr:
        raise CheckFailed("cli", f"{op.key}: exit {code}: {stderr[-300:]!r}")
    if op.cert is None:
        gate.digest(op.key, stdout, layer)
        return
    payload = json.loads(stdout)
    model = load(op.model)
    if op.cert == "hutchinson":
        gate.digest(op.key, payload["value"], layer)
        witness = [Fraction(v) for v in payload["witness"]]
        gate.note(witness)
        metric = model.metric(_flag(op.argv, "--metric"))
        check_hutchinson(
            Fraction(payload["value"]), witness,
            model.measure(_flag(op.argv, "--left")).weights,
            model.measure(_flag(op.argv, "--right")).weights,
            metric.dist, Fraction(payload["gamma"]),
        )
    else:
        rows = [[Fraction(v) for v in row["weights"]] for row in payload["rows"]]
        gate.note(rows)
        check_mediation(
            [a[0] for a in payload["a_atoms"]], [b[0] for b in payload["b_atoms"]],
            rows, model.kernel(_flag(op.argv, "--left")),
            model.kernel(_flag(op.argv, "--right")), payload["iso"],
        )
