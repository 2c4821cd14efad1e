"""finmeas benchmark: seeded workloads, a correctness gate, metrics by name.

    python3 bench/run.py --workload distances --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop: one caller, one process, no threads):
  distances  in-process Prohorov, Hutchinson and weak-limit checks on
             random exact metric spaces
  chains     in-process refinement, mediation, couplings, convolution and
             path measures on seeded sub-Markov kernels
  cli        one ``python -m finmeas`` child at a time on the bundled and
             on generated model files

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run that wraps the library's layer boundaries.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 5
START_REPEATS = 10
# The calibration loop and its wall time, and the wall time of a bare
# interpreter start, on an unloaded core of the reference box (Python 3.11,
# 2-core shared VM); see Runs and Bracket.
CALIBRATION_TERMS = 1200
CALIBRATION_REF_S = 0.0026
SPAWN_REF_S = 0.05

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "metrics.prohorov_s": "s",
    "metrics.prohorov_feasible_s": "s",
    "metrics.prohorov_feasible_calls": "count",
    "metrics.hutchinson_s": "s",
    "metrics.weak_check_s": "s",
    "metrics.finite_metric_s": "s",
    "spaces.measurable_sets_calls": "count",
    "simplex.maximize_s.metrics": "s",
    "simplex.maximize_calls.metrics": "count",
    "simplex.lp_cells.metrics": "count",
    "simplex.maximize_s.logic_bisim": "s",
    "simplex.maximize_calls.logic_bisim": "count",
    "simplex.lp_cells.logic_bisim": "count",
    "logic_bisim.logical_equivalence_s.deep": "s",
    "logic_bisim.logical_equivalence_s.shallow": "s",
    "logic_bisim.refine_blocks": "count",
    "logic_bisim.quotient_kernel_s": "s",
    "logic_bisim.find_quotient_iso_s": "s",
    "logic_bisim.mediate_s": "s",
    "logic_bisim.solve_coupling_s": "s",
    "logic_bisim.solve_coupling_calls": "count",
    "logic_bisim.infeasible_results": "count",
    "logic_bisim.validity_set_s": "s",
    "kernels.convolve_s": "s",
    "kernels.path_measure_s": "s",
    "kernels.pushforward_calls": "count",
    "spaces.product_space_s": "s",
    "spaces.product_space_calls": "count",
    "spaces.label_bytes_max": "B",
    "cli.bare_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.load_model_ms": "ms",
    "cli.handler_ms": "ms",
    "cli.render_ms": "ms",
    "cli.stdout_bytes": "B",
    "measures.call_s": "s",
    "integrate.call_s": "s",
    "rational.max_bits": "bit",
    "error_rate": "ratio",
    "trace.overhead_pct": "%",
    "trace.ops": "count",
    "host.speed": "ratio",
}
LAYERS = inputs.LAYERS
# rational's helpers run once per number, too often to wrap, so its self
# time stays inside its callers; bench is the op wrapper, proc the CLI child
SELF_LAYERS = tuple(layer for layer in LAYERS if layer != "rational") + ("bench", "proc")
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.failed"] = "count"
for _layer in SELF_LAYERS:
    PER_LAYER[f"{_layer}.self_ms_per_op"] = "ms"

SETUP_CODE = (
    "import sys\n"
    "import finmeas, finmeas.cli\n"
    "for path in sys.argv[1:]:\n"
    "    finmeas.cli.load_model(path)\n"
)
IMPORT_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import finmeas, finmeas.cli\n"
    "print(time.perf_counter() - start)\n"
)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    """Children import finmeas from this checkout with the atom cap pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["FINMEAS_ATOM_CAP"] = str(inputs.PATH_ATOM_CAP)
    return env


def run_child(argv):
    """Wall seconds and stdout of one child interpreter."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        capture_output=True, check=False,
    )
    elapsed = perf_counter() - start
    if done.returncode != 0:
        fail(f"child {argv[:2]} exited {done.returncode}: {done.stderr.decode()[-500:]}")
    return elapsed, done.stdout


def measure_setup(paths):
    """Median speed-scaled wall time of fresh interpreters importing finmeas
    and loading every model."""
    bracket = Bracket(spawns=True)
    times = [
        run_child(["-c", SETUP_CODE, *map(str, paths)])[0] * bracket.scale()
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(times)


def start_floor():
    """Medians of a bare interpreter start and of importing finmeas.cli, in ms."""
    bare = [run_child(["-c", "pass"])[0] for _ in range(START_REPEATS)]
    imports = [float(run_child(["-c", IMPORT_CODE])[1]) for _ in range(START_REPEATS)]
    return 1000 * statistics.median(bare), 1000 * statistics.median(imports)


def provenance(finmeas_file, args):
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "finmeas").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finmeas": finmeas_file,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "atom_cap": os.environ["FINMEAS_ATOM_CAP"],
    }


def passes(args):
    """Passes over the deck, from the share of --seconds one pass stands for."""
    return max(1, round(args.seconds / inputs.PASS_SECONDS[args.workload]))


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))]


def calibration():
    """Wall seconds of a fixed loop of rational arithmetic: the host's speed now."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, CALIBRATION_TERMS + 1):
        total += Fraction(1, k % 97 + 1)
    return perf_counter() - start


class Runs:
    """Op samples: speed-scaled latency and CPU, kinds, failures.

    The shared host this benchmark was built on changes speed by up to 2x
    within seconds, and CPU time stretches with it.  Each op is therefore
    bracketed by a calibration (see Bracket), and its times are scaled by
    the calibration's reference time over the mean of the two brackets:
    the op's time at the reference speed.  ``raw`` keeps the unscaled wall
    time.
    """

    def __init__(self):
        self.latency = []
        self.cpu = []
        self.raw = []
        self.speed = []
        self.kind = []
        self.failures = Counter()

    def add(self, outcome, speed):
        latency, cpu, kind, layer = outcome
        self.latency.append(latency * speed)
        self.cpu.append(cpu * speed)
        self.raw.append(latency)
        self.speed.append(speed)
        self.kind.append(kind)
        if layer is not None:
            self.failures[layer] += 1

    @property
    def attempted(self):
        return len(self.latency)


def spawn_calibration():
    """Wall seconds of a bare ``python -c pass`` child: the host's spawn speed."""
    return run_child(["-c", "pass"])[0]


class Bracket:
    """Calibration between consecutive ops; ``scale()`` closes one bracket.

    In-process ops are bracketed by the rational-arithmetic loop, and work
    that starts interpreters (CLI commands, set-up) by a bare interpreter
    start, which tracks spawn, import and page-fault costs that the loop
    misses.
    """

    def __init__(self, spawns=False):
        self.measure, self.ref = (
            (spawn_calibration, SPAWN_REF_S) if spawns else (calibration, CALIBRATION_REF_S)
        )
        self.before = self.measure()

    def scale(self):
        after = self.measure()
        speed = 2 * self.ref / (self.before + after)
        self.before = after
        return speed


def run_gate(gate_fn):
    """Run the gate between ops; return the failing layer or None."""
    from ops import failing_layer

    try:
        gate_fn()
    except Exception as err:  # any gate failure counts against the op
        layer = failing_layer(err)
        print(f"bench: check failed [{layer}]: {err}", file=sys.stderr)
        return layer
    return None


class Workload:
    """What a workload hands the run loop.

    ``step(i, traced)`` runs op i of the deck, gates it outside its timing
    and returns (latency, cpu, kind, failing layer or None).
    ``model_paths`` are the models an in-process workload loads, which the
    traced run loads once more under its wrappers.
    """

    def __init__(self, n_ops, step, setup_s, gate, model_paths):
        self.n_ops = n_ops
        self.step = step
        self.setup_s = setup_s
        self.gate = gate
        self.model_paths = model_paths
        self.child_rss = 0
        self.stdout_bytes = []


# ------------------------------------------------------------- in-process


def inprocess_workload(args, work, tracer):
    import ops
    from finmeas import cli as fm_cli

    if args.workload == "distances":
        deck, run_op, check = inputs.distances_deck(args.seed), ops.run_distances, ops.check_distances
    else:
        deck, run_op, check = inputs.chains_deck(args.seed), ops.run_chains, ops.check_chains
    model_path = work / "model.json"
    model_path.write_bytes(inputs.dump(inputs.merge_docs(deck)))
    setup_s = None if tracer else measure_setup([model_path])
    digests = ops.Gate()
    model = fm_cli.load_model(model_path)

    def step(i, traced):
        case = deck[i]
        if traced:
            tracer.begin_op(i, case.kind, case.n)
            tracer.active = True
        wall0, cpu0 = perf_counter(), process_time()
        try:
            if traced:
                result = tracer.call(f"bench.{case.kind}", run_op, case, model)
            else:
                result = run_op(case, model)
            error = None
        except Exception as err:  # an op that raises is a failed op
            error = err
        latency, cpu = perf_counter() - wall0, process_time() - cpu0
        if traced:
            tracer.active = False

        def gate_fn():
            if error is not None:
                raise error
            check(digests, case, model, result)

        return latency, cpu, case.kind, run_gate(gate_fn)

    return Workload(len(deck), step, setup_s, digests, [model_path])


# -------------------------------------------------------------------- cli


def cli_workload(args, work, tracer):
    import ops
    from finmeas import cli as fm_cli

    cli_ops, docs = inputs.cli_deck(args.seed)
    paths = {}
    for name, doc in docs.items():
        if doc is None:
            paths[name] = SRC / "finmeas" / "examples" / f"{name}.json"
        else:
            paths[name] = work / (name.replace(":", "_") + ".json")
            paths[name].write_bytes(inputs.dump(doc))
    setup_s = None if tracer else measure_setup(paths.values())
    digests = ops.Gate()
    env = child_env()
    err_path = work / "stderr.txt"
    loaded = {}

    def load(name):
        if name not in loaded:
            loaded[name] = fm_cli.load_model(paths[name])
        return loaded[name]

    def step(i, traced):
        op = cli_ops[i]
        replayed = error = None
        wall0, cpu0 = perf_counter(), process_time()
        if traced:
            tracer.begin_op(i, op.kind, None)
            tracer.active = True
            out, code, usage = tracer.call(
                "proc.subprocess", ops.spawn_cli, op, paths[op.model], env, ROOT, err_path
            )
            try:
                replayed = ops.replay_cli(op, paths[op.model], tracer.call)
            except Exception as err:  # a replay that raises fails the op
                error = err
            tracer.active = False
        else:
            out, code, usage = ops.spawn_cli(op, paths[op.model], env, ROOT, err_path)
        latency = perf_counter() - wall0
        cpu = process_time() - cpu0 + usage.ru_utime + usage.ru_stime
        workload.child_rss = max(workload.child_rss, usage.ru_maxrss)
        workload.stdout_bytes.append(len(out))

        def gate_fn():
            ops.check_cli(digests, op, out, code, err_path.read_bytes(), load)
            if error is not None:
                raise error
            if traced and replayed != out:
                raise ops.CheckFailed("cli", f"{op.key}: in-process replay differs from stdout")

        return latency, cpu, op.kind, run_gate(gate_fn)

    workload = Workload(len(cli_ops), step, setup_s, digests, [])
    return workload


# ---------------------------------------------------------------- metrics


def end_to_end(runs, load, in_process):
    if in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = load.child_rss
    return {
        "ops_per_s": runs.attempted / sum(runs.latency),
        "latency_p50_ms": 1000 * statistics.median(runs.latency),
        "latency_p90_ms": 1000 * percentile(runs.latency, 90),
        "cpu_ms_per_op": 1000 * statistics.mean(runs.cpu),
        "setup_s": load.setup_s,
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(tracer, traced, plain, load, floors):
    ops_n = load.n_ops
    spans = tracer.spans

    def named(name, kind=None):
        return [r for r in spans if r[0] == name and (kind is None or r[5] == kind)]

    def mean_s(recs):
        return sum(r[2] - r[1] for r in recs) / len(recs) if recs else 0.0

    def mean_attr(recs, key):
        return sum(r[7][key] for r in recs) / len(recs) if recs else 0.0

    def in_layer(layer):
        return [r for r in spans if r[0].split(".")[0] == layer
                and (r[3] < 0 or not spans[r[3]][0].startswith(layer + "."))]

    out = {
        "metrics.prohorov_s": mean_s(named("metrics.prohorov_distance")),
        "metrics.prohorov_feasible_s": mean_s(named("metrics.prohorov_feasible")),
        "metrics.prohorov_feasible_calls": len(named("metrics.prohorov_feasible")) / ops_n,
        "metrics.hutchinson_s": mean_s(named("metrics.hutchinson_distance")),
        "metrics.weak_check_s": mean_s(named("metrics.check_weak_limit")),
        "metrics.finite_metric_s": mean_s(named("metrics.FiniteMetric")),
        "spaces.measurable_sets_calls": tracer.counters["spaces.measurable_sets_calls"] / ops_n,
    }
    for caller in ("metrics", "logic_bisim"):
        recs = named(f"simplex.maximize.{caller}")
        out[f"simplex.maximize_s.{caller}"] = mean_s(recs)
        out[f"simplex.maximize_calls.{caller}"] = len(recs) / ops_n
        out[f"simplex.lp_cells.{caller}"] = mean_attr(recs, "cells")
    coupling = named("logic_bisim.solve_coupling")
    products = [r for r in spans if r[0] == "spaces.product_space"]
    out.update({
        "logic_bisim.logical_equivalence_s.deep": mean_s(named("logic_bisim.logical_equivalence", "refine-deep")),
        "logic_bisim.logical_equivalence_s.shallow": mean_s(named("logic_bisim.logical_equivalence", "refine-shallow")),
        "logic_bisim.refine_blocks": mean_attr(named("logic_bisim.logical_equivalence"), "blocks"),
        "logic_bisim.quotient_kernel_s": mean_s(named("logic_bisim.quotient_kernel")),
        "logic_bisim.find_quotient_iso_s": mean_s(named("logic_bisim.find_quotient_iso")),
        "logic_bisim.mediate_s": mean_s(named("logic_bisim.mediate")),
        "logic_bisim.solve_coupling_s": mean_s(coupling),
        "logic_bisim.solve_coupling_calls": len(coupling) / ops_n,
        "logic_bisim.infeasible_results": sum(r[7]["infeasible"] for r in coupling) / ops_n,
        "logic_bisim.validity_set_s": mean_s(named("logic_bisim.validity_set")),
        "kernels.convolve_s": mean_s(named("kernels.convolve")),
        "kernels.path_measure_s": mean_s(named("kernels.path_measure")),
        "kernels.pushforward_calls": len(named("kernels.pushforward")) / ops_n,
        "spaces.product_space_s": mean_s(products),
        "spaces.product_space_calls": len(products) / ops_n,
        "spaces.label_bytes_max": max((r[7]["label_bytes"] for r in products), default=0),
        "cli.bare_start_ms": floors[0],
        "cli.import_ms": floors[1],
        "cli.load_model_ms": 1000 * mean_s(named("cli.load_model")),
        "cli.handler_ms": 1000 * mean_s(named("cli.handler")),
        "cli.render_ms": 1000 * mean_s(named("cli.render")),
        "cli.stdout_bytes": statistics.mean(load.stdout_bytes) if load.stdout_bytes else 0,
        "measures.call_s": mean_s(in_layer("measures")),
        "integrate.call_s": mean_s(in_layer("integrate")),
        "rational.max_bits": load.gate.bits,
        "error_rate": sum((traced.failures + plain.failures).values()) / (traced.attempted + plain.attempted),
        "trace.overhead_pct": 100 * (sum(traced.latency) / sum(plain.latency) - 1),
        "host.speed": statistics.median(traced.speed + plain.speed),
        "trace.ops": ops_n,
    })
    failures = traced.failures + plain.failures
    for layer in LAYERS:
        out[f"{layer}.failed"] = failures[layer]
    self_times = tracer.self_times()
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms_per_op"] = 1000 * self_times[layer] / ops_n
    return out


def report(prov, phases, metrics, units):
    print("finmeas benchmark")
    for key, value in prov.items():
        print(f"  {key}: {value}")
    for label, runs in phases:
        total = sum(runs.latency)
        print(
            f"  {label}: {runs.attempted} ops (the latency samples), "
            f"{sum(runs.failures.values())} failed; op time {sum(runs.raw):.3f} s "
            f"as measured, {total:.3f} s at the reference speed "
            f"(median host speed factor {statistics.median(runs.speed):.3f})"
        )
        shares = Counter()
        for kind, value in zip(runs.kind, runs.latency):
            shares[kind] += value
        for kind in sorted(shares):
            print(f"    {kind:16s} {runs.kind.count(kind):5d} ops {100 * shares[kind] / total:5.1f}% of op time")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("distances", "chains", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        fail("refusing to run under python -O: it strips the library's self-check asserts")
    if not (SRC / "finmeas" / "__init__.py").is_file():
        fail(f"no finmeas sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    os.environ["FINMEAS_ATOM_CAP"] = str(inputs.PATH_ATOM_CAP)
    import finmeas
    from finmeas import cli as fm_cli

    if not Path(finmeas.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported finmeas from {finmeas.__file__}, not from {SRC}")
    prov = provenance(finmeas.__file__, args)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        make = cli_workload if args.workload == "cli" else inprocess_workload
        load = make(args, work, tracer)
        if not args.trace:
            runs = Runs()
            bracket = Bracket(spawns=args.workload == "cli")
            for _ in range(passes(args)):
                for i in range(load.n_ops):
                    outcome = load.step(i, False)
                    runs.add(outcome, bracket.scale())
            phases = [("timed", runs)]
            metrics = end_to_end(runs, load, args.workload != "cli")
            units = END_TO_END
        else:
            floors = start_floor()
            plain, traced = Runs(), Runs()
            tracer.install()
            try:
                tracer.begin_op("setup", "setup", None)
                tracer.active = True
                for path in load.model_paths:
                    tracer.call("cli.load_model", fm_cli.load_model, path)
                tracer.active = False
                # each op runs untraced, then traced, so both see the same noise
                bracket = Bracket(spawns=args.workload == "cli")
                for i in range(load.n_ops):
                    outcome = load.step(i, False)
                    plain.add(outcome, bracket.scale())
                    outcome = load.step(i, True)
                    traced.add(outcome, bracket.scale())
            finally:
                tracer.active = False
                tracer.uninstall()
            phases = [("untraced", plain), ("traced", traced)]
            metrics = per_layer(tracer, traced, plain, load, floors)
            units = PER_LAYER
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.dump(spans_path)
            prov["spans"] = spans_path.relative_to(ROOT).as_posix()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(prov, phases, metrics, units)
    attempted = sum(runs.attempted for _, runs in phases)
    failed = sum(sum(runs.failures.values()) for _, runs in phases)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
