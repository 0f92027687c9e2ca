"""Stochastic spin-flip dynamics of a cyclic feedback loop.

k molecular species sit on a cycle; each owns a reservoir of N binary
sites whose flip rates depend on the neighbouring species' activation
densities.  The package simulates the microscopic per-site chain and the
macroscopic density jump process exactly, integrates the fluid-limit ODE,
and analyses the bifurcations of the three-species system (pitchfork at
J = -1, Hopf at J = 2 for the half-J field).
"""

from .analysis import (
    BifurcationRecord,
    ConvergenceResult,
    ConvergenceRow,
    Spectrum,
    classify,
    convergence_experiment,
    fixed_point_branch,
    polar_rates,
    rotation_matrix,
    scan,
    symmetric_spectrum,
    z_system,
)
from .jump import ssa_simulate, ssa_sup_distance, sup_distance
from .micro import (
    SpinConfiguration,
    generator_matrix,
    gibbs_measure,
    hamiltonian,
    micro_simulate,
    reversibility_residual,
)
from .model import DensityState, LoopSpec, channel_rates, jacobian, vector_field
from .ode import IntegratorSettings, integrate, integrate_linear
from .trajectory import Trajectory

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LoopSpec",
    "DensityState",
    "SpinConfiguration",
    "Trajectory",
    "Spectrum",
    "BifurcationRecord",
    "ConvergenceRow",
    "ConvergenceResult",
    "IntegratorSettings",
    "channel_rates",
    "vector_field",
    "jacobian",
    "hamiltonian",
    "gibbs_measure",
    "generator_matrix",
    "reversibility_residual",
    "micro_simulate",
    "ssa_simulate",
    "ssa_sup_distance",
    "sup_distance",
    "integrate",
    "integrate_linear",
    "symmetric_spectrum",
    "fixed_point_branch",
    "classify",
    "scan",
    "rotation_matrix",
    "z_system",
    "polar_rates",
    "convergence_experiment",
]
