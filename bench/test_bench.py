"""Tests of the benchmark itself: inputs, gate, names and a smoke run.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402

os.environ["FINMEAS_ATOM_CAP"] = str(inputs.PATH_ATOM_CAP)

import ops  # noqa: E402
import run  # noqa: E402
from finmeas import cli as fm_cli  # noqa: E402
from finmeas import measures as fm_measures  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def deck_bytes(workload, seed):
    if workload == "cli":
        cli_ops, docs = inputs.cli_deck(seed)
        return inputs.dump([[op.key, op.argv] for op in cli_ops]) + inputs.dump(docs)
    deck = inputs.distances_deck(seed) if workload == "distances" else inputs.chains_deck(seed)
    return inputs.dump([[case.key, case.params] for case in deck]) + inputs.dump(inputs.merge_docs(deck))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_inputs_and_two_seeds_differ(workload):
    assert deck_bytes(workload, 11) == deck_bytes(workload, 11)
    assert deck_bytes(workload, 11) != deck_bytes(workload, 12)


def parsed(case):
    return fm_cli.parse_model(json.loads(inputs.dump(case.doc)))


def test_gate_catches_a_bumped_distance():
    gate = ops.Gate()
    case = inputs.distances_case("prohorov", 7, 3)
    model = parsed(case)
    value = ops.run_distances(case, model)
    ops.check_distances(gate, case, model, value)
    with pytest.raises(ops.CheckFailed) as caught:
        ops.check_distances(gate, case, model, value + Fraction(1, 1000))
    assert caught.value.layer == "metrics"


def test_gate_catches_a_bent_hutchinson_witness():
    gate = ops.Gate()
    case = inputs.distances_case("hutchinson", 8, 5)
    model = parsed(case)
    value, witness = ops.run_distances(case, model)
    ops.check_distances(gate, case, model, (value, witness))
    witness.values = (witness.values[0] + Fraction(1, 1000),) + witness.values[1:]
    with pytest.raises(ops.CheckFailed) as caught:
        ops.check_distances(gate, case, model, (value, witness))
    assert caught.value.layer == "simplex"


def test_gate_catches_a_moved_coupling_cell():
    gate = ops.Gate()
    case = inputs.chains_case("couple", 8, 0)
    model = parsed(case)
    problem, coupling = ops.run_chains(case, model)
    assert isinstance(coupling, fm_measures.Measure)
    ops.check_chains(gate, case, model, (problem, coupling))
    weights = list(coupling.weights)
    src = next(k for k, w in enumerate(weights) if w > 0)
    dst = next(k for k in range(len(weights)) if k // 8 == src // 8 and k != src)
    weights[dst] += weights[src]
    weights[src] = Fraction(0)
    moved = fm_measures.Measure(coupling.space, weights)
    with pytest.raises(ops.CheckFailed) as caught:
        ops.check_chains(gate, case, model, (problem, moved))
    assert caught.value.layer == "simplex"


def test_gate_catches_a_wrong_hall_cut():
    gate = ops.Gate()
    case = inputs.chains_case("couple", 8, 1)
    model = parsed(case)
    problem, cut = ops.run_chains(case, model)
    ops.check_chains(gate, case, model, (problem, cut))
    cut.neighborhood_mass += Fraction(1, 24)
    with pytest.raises(ops.CheckFailed):
        ops.check_chains(gate, case, model, (problem, cut))


def test_gate_catches_changed_cli_stdout():
    gate = ops.Gate()
    op = inputs.CliOp(*inputs.BUNDLED_COMMANDS[0])
    model = ROOT / "src" / "finmeas" / "examples" / "decomposition.json"
    stdout = ops.replay_cli(op, model, lambda name, fn, *args: fn(*args))
    ops.check_cli(gate, op, stdout, 0, b"", None)
    with pytest.raises(ops.CheckFailed):
        ops.check_cli(gate, op, stdout.replace(b"3", b"4", 1), 0, b"", None)


def test_tracer_restores_every_wrapped_attribute():
    from spans import Tracer
    from finmeas import cli, kernels, logic_bisim, metrics, spaces

    owners = (cli, kernels, logic_bisim, metrics, metrics.FiniteMetric, spaces.FiniteMeasurableSpace)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    tracer.install()
    assert metrics.prohorov_distance is not before[3]["prohorov_distance"]
    tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_metric_names_match_benchmark_json():
    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(run.PER_LAYER) == [m["name"] for m in SPEC["per_layer"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def bench(*args, cwd=ROOT, flags=()):
    return subprocess.run(
        [sys.executable, *flags, str(Path(cwd) / SPEC["command"][1]), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_refuses_python_optimize():
    done = bench("--workload", "distances", "--seed", "1", "--seconds", "1", flags=["-O"])
    assert done.returncode == 2
    assert "-O" in done.stderr and done.stdout == ""


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench("--workload", "distances", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
