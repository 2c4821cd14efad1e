"""Exact measure theory on finite measurable spaces.

Finite sigma-algebras as atom partitions, signed measures and densities,
integration with Lp norms, transition kernels with products and paths,
Prohorov and Hutchinson distances, a negation-free probabilistic modal
logic with quotients, and exact couplings with Hall-style infeasibility
certificates.  All arithmetic is rational; floats appear only where a
p-th root forces them.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AbsoluteContinuityViolated,
    CapacityExceeded,
    EmptyCarrier,
    FinmeasError,
    FloatRange,
    GeneratorNotPiSystem,
    HorizonTooLarge,
    InvalidExponent,
    InvalidGamma,
    MassMismatch,
    NegativeFunction,
    NegativeFunctional,
    NotACongruence,
    NotAtomMap,
    NotBisimilar,
    NotProductSpace,
    SpaceMismatch,
    UnsupportedFunctional,
)
from .integrate import (
    INF,
    StepFunction,
    check_hoelder,
    check_minkowski,
    conv_in_measure_distance,
    integral,
    layered_integral,
    lp_norm,
    lp_norm_power,
    lp_norm_squared,
    pointwise_max,
    pointwise_min,
)
from .kernels import (
    FINITE,
    MARKOV,
    SUB_MARKOV,
    AtomMap,
    Kernel,
    convolve,
    cut_x,
    cut_y,
    disintegrate,
    fubini,
    identity_kernel,
    kleisli_lift,
    measure_kernel_product,
    path_marginal,
    path_measure,
    product_measure,
    pushforward,
)
from .logic_bisim import (
    And,
    CouplingProblem,
    Dia,
    Formula,
    Infeasible,
    MediationResult,
    Top,
    find_quotient_iso,
    format_formula,
    invariant_sigma_algebra,
    logical_equivalence,
    mediate,
    parse_formula,
    quotient_kernel,
    quotient_kernel_pair,
    solve_coupling,
    validity_set,
)
from .measures import (
    LinearFunctional,
    Measure,
    SignedMeasure,
    absolutely_continuous,
    change_of_measure,
    integration_functional,
    jordan_decompose,
    lebesgue_decompose,
    lp_dual_density,
    measure_from_functional,
    mutually_singular,
    radon_nikodym,
)
from .metrics import (
    FiniteMetric,
    LipschitzWitness,
    WeakLimitReport,
    check_weak_limit,
    hutchinson_distance,
    prohorov_distance,
    prohorov_feasible,
    support,
)
from .rational import as_fraction, format_float, format_fraction, to_float
from .spaces import (
    FiniteMeasurableSpace,
    MeasurableSet,
    Partition,
    check_pi_system_uniqueness,
    product_space,
    sigma_from_generator,
)

__version__ = "0.1.0"

__all__ = sorted(  # the public names but the submodules the imports bind here
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
