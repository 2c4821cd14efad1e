"""Exact measure theory on finite measurable spaces.

Finite sigma-algebras as atom partitions, signed measures and densities,
integration with Lp norms, transition kernels with products and paths,
Prohorov and Hutchinson distances, a negation-free probabilistic modal
logic with quotients, and exact couplings with Hall-style infeasibility
certificates.  All arithmetic is rational; floats appear only where a
p-th root forces them.

Importing the package loads no submodule: each public name, and each
submodule as an attribute, is imported on first access.  Submodules
import each other at their tops; only CLI command handlers import later.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_PUBLIC = {  # submodule -> the public names it defines
    "errors": """AbsoluteContinuityViolated CapacityExceeded EmptyCarrier
        FinmeasError FloatRange GeneratorNotPiSystem HorizonTooLarge
        InvalidExponent InvalidGamma MassMismatch NegativeFunction
        NegativeFunctional NotACongruence NotAtomMap NotBisimilar
        NotProductSpace SpaceMismatch UnsupportedFunctional""",
    "integrate": """INF StepFunction check_hoelder check_minkowski
        conv_in_measure_distance integral layered_integral lp_norm
        lp_norm_power lp_norm_squared pointwise_max pointwise_min""",
    "kernels": """FINITE MARKOV SUB_MARKOV AtomMap Kernel convolve cut_x cut_y
        disintegrate fubini identity_kernel kleisli_lift
        measure_kernel_product path_marginal path_measure product_measure
        pushforward""",
    "logic_bisim": """And CouplingProblem Dia Formula Infeasible
        MediationResult Top find_quotient_iso format_formula
        invariant_sigma_algebra logical_equivalence mediate parse_formula
        quotient_kernel quotient_kernel_pair solve_coupling validity_set""",
    "measures": """LinearFunctional Measure SignedMeasure absolutely_continuous
        change_of_measure integration_functional jordan_decompose
        lebesgue_decompose lp_dual_density measure_from_functional
        mutually_singular radon_nikodym""",
    "metrics": """LipschitzWitness WeakLimitReport check_weak_limit
        hutchinson_distance prohorov_distance prohorov_feasible support""",
    "rational": "as_fraction format_float format_fraction to_float",
    "spaces": """FiniteMeasurableSpace FiniteMetric MeasurableSet Partition
        check_pi_system_uniqueness product_space sigma_from_generator""",
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names.split()}
_SUBMODULES = {*_PUBLIC, "cli", "flow", "simplex"}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    """Import a public name's submodule, or a submodule, on first access."""
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
