"""What importing the package loads: ``import finmeas`` binds each public
name on first access, the CLI imports the logic module and the distance
layers (``metrics``, ``flow``, ``simplex``) only for the commands that run
them, a command line makes only the argument parsers it selects, and
``tests/cost_report.py`` loads without running a section."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finmeas

SRC = Path(finmeas.__file__).resolve().parents[1]

# the public names of the package when it imported every submodule eagerly
PUBLIC = """
AbsoluteContinuityViolated And AtomMap CapacityExceeded CouplingProblem Dia
EmptyCarrier FINITE FiniteMeasurableSpace FiniteMetric FinmeasError FloatRange
Formula GeneratorNotPiSystem HorizonTooLarge INF Infeasible InvalidExponent
InvalidGamma Kernel LinearFunctional LipschitzWitness MARKOV MassMismatch
MeasurableSet Measure MediationResult NegativeFunction NegativeFunctional
NotACongruence NotAtomMap NotBisimilar NotProductSpace Partition SUB_MARKOV
SignedMeasure SpaceMismatch StepFunction Top UnsupportedFunctional
WeakLimitReport absolutely_continuous as_fraction change_of_measure
check_hoelder check_minkowski check_pi_system_uniqueness check_weak_limit
conv_in_measure_distance convolve cut_x cut_y disintegrate find_quotient_iso
format_float format_formula format_fraction fubini hutchinson_distance
identity_kernel integral integration_functional invariant_sigma_algebra
jordan_decompose kleisli_lift layered_integral lebesgue_decompose
logical_equivalence lp_dual_density lp_norm lp_norm_power lp_norm_squared
measure_from_functional measure_kernel_product mediate mutually_singular
parse_formula path_marginal path_measure pointwise_max pointwise_min
product_measure product_space prohorov_distance prohorov_feasible
pushforward quotient_kernel quotient_kernel_pair radon_nikodym
sigma_from_generator solve_coupling support to_float validity_set
""".split()


def _last_line(code):
    """The last line a fresh interpreter prints after running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()[-1]


def _loaded_after(code):
    """The finmeas modules a fresh interpreter holds after running code."""
    code += "\nimport sys, json\n"
    code += "print(json.dumps(sorted(m for m in sys.modules if m.startswith('finmeas'))))"
    return json.loads(_last_line(code))


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import finmeas") == ["finmeas"]


def test_importing_the_cli_leaves_out_the_logic_module():
    loaded = _loaded_after("import finmeas.cli")
    assert "finmeas.cli" in loaded
    assert "finmeas.logic_bisim" not in loaded


def test_a_logic_command_loads_the_logic_module():
    path = SRC / "finmeas" / "examples" / "processes.json"
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from finmeas.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['logic', 'quotient', '--kernel', 'K', '-m', {str(path)!r}]) == 0"
    )
    assert "finmeas.logic_bisim" in loaded


DISTANCE_LAYERS = ["finmeas.flow", "finmeas.metrics", "finmeas.simplex"]


def _loaded_by_command(argv):
    """The finmeas modules a fresh interpreter holds after main(argv) on the
    bundled metrics model."""
    argv = [*argv, "-m", str(SRC / "finmeas" / "examples" / "metrics.json")]
    return _loaded_after(
        "import contextlib, io\n"
        "from finmeas.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )


def test_importing_the_cli_leaves_out_the_distance_layers():
    loaded = _loaded_after("import finmeas.cli")
    assert [m for m in DISTANCE_LAYERS if m in loaded] == []


def test_a_command_on_a_model_with_a_metric_loads_no_distance_layer():
    loaded = _loaded_by_command(["space", "--name", "d2"])
    assert [m for m in [*DISTANCE_LAYERS, "finmeas.logic_bisim"] if m in loaded] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "prohorov", "--left", "dirac_a", "--right", "nu_p", "--metric", "d2"],
        ["dist", "hutchinson", "--left", "dirac_a", "--right", "nu_p", "--metric", "d2",
         "--gamma", "1"],
        ["weak-check", "--sequence", "dirac_a,nu_p", "--limit", "nu_p", "--metric", "d2",
         "--tol", "0.1"],
    ],
    ids=["prohorov", "hutchinson", "weak-check"],
)
def test_every_distance_command_loads_metrics_and_the_flow_core(argv):
    loaded = _loaded_by_command(argv)
    assert "finmeas.metrics" in loaded and "finmeas.flow" in loaded


def _parsers_made(argv, model):
    """The argparse parsers a fresh interpreter builds to run main(argv) on
    a bundled model."""
    argv = [*argv, "-m", str(SRC / "finmeas" / "examples" / model)]
    return int(_last_line(
        "import argparse, contextlib, io\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    made.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from finmeas.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(len(made))"
    ))


def test_a_command_makes_at_most_four_parsers():
    # the common flags, the top level and the command, with the command's
    # group in between for a grouped command; the whole tree is 34 parsers
    assert _parsers_made(["space", "--name", "G"], "decomposition.json") == 3
    argv = ["kernel", "compose", "--left", "K", "--right", "K"]
    assert _parsers_made(argv, "processes.json") == 4


def test_the_public_names_are_unchanged_and_are_their_modules_objects():
    assert finmeas.__all__ == sorted(PUBLIC) and len(PUBLIC) == 94
    for name in finmeas.__all__:
        value = getattr(finmeas, name)
        module = finmeas._SOURCE[name]
        assert value is getattr(getattr(finmeas, module), name), name
    assert finmeas.FiniteMetric is finmeas.spaces.FiniteMetric is finmeas.metrics.FiniteMetric


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from finmeas import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == finmeas.__all__


def test_submodules_resolve_as_attributes():
    loaded = _loaded_after("import finmeas\nassert finmeas.simplex.maximize")
    assert loaded == ["finmeas", "finmeas.simplex"]
    assert {"cli", "flow", "logic_bisim", "Measure"} <= set(dir(finmeas))


def test_the_cost_report_resolves_its_imports_and_runs_no_section_on_load():
    # CI runs the report as a step that may fail, so a library name it
    # imports and that no longer exists has to fail here
    path = Path(__file__).with_name("cost_report.py")
    code = f"import runpy\nrunpy.run_path({str(path)!r}, run_name='cost_report')"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "" and done.stderr == ""
