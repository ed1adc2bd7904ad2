"""Dissipative spin squeezing of solid-state qubit arrays coupled to a
parametrically squeezed magnon reservoir.

The package computes the squeezed-bath parameters from material constants,
builds the inter-qubit coupling matrices and the master-equation generator,
evolves density matrices in dimensionless time, and reports collective-spin
observables (mean spin, Wineland squeezing parameter, relaxation rate).
"""

__version__ = "0.1.0"

from .bath import (
    BathState,
    bath_from_params,
    field_correlator,
    magnon_correlator,
    magnon_dispersion,
    resonant_wavelength,
    saw_coupling,
    squeezing_parameter,
)
from .couplings import CouplingSet, build_couplings, coupling_oracle
from .dynamics import (
    Generator,
    QubitState,
    Trajectory,
    build_generator,
    evolve,
    evolve_many,
    steady_state,
)
from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    MagsqueezeError,
    QuadratureConvergenceError,
    StateInvariantError,
    StepSizeUnderflowError,
    UnstableSqueezingError,
)
from .observables import (
    SpinSummary,
    collective_spin,
    initial_state,
    relaxation_rate,
    wineland_xi2,
)
from .params import (
    ArrayGeometry,
    PhysicalParams,
    load_config,
    serialize_config,
)

__all__ = [
    "ArrayGeometry",
    "BathState",
    "ConfigError",
    "CouplingSet",
    "DegenerateSteadyStateError",
    "Generator",
    "MagsqueezeError",
    "PhysicalParams",
    "QuadratureConvergenceError",
    "QubitState",
    "SpinSummary",
    "StateInvariantError",
    "StepSizeUnderflowError",
    "Trajectory",
    "UnstableSqueezingError",
    "bath_from_params",
    "build_couplings",
    "build_generator",
    "collective_spin",
    "coupling_oracle",
    "evolve",
    "evolve_many",
    "field_correlator",
    "initial_state",
    "load_config",
    "magnon_correlator",
    "magnon_dispersion",
    "relaxation_rate",
    "resonant_wavelength",
    "saw_coupling",
    "serialize_config",
    "squeezing_parameter",
    "steady_state",
    "wineland_xi2",
]
