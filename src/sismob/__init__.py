"""SIS epidemics on patchy environments with multi-layer Markovian mobility.

The package provides the deterministic coupled infection/mobility model,
its finite-population stochastic counterpart, and the complete
equilibrium and stability analysis: spectral threshold, reproduction
number, endemic fixed point, and recovery-rate stability conditions.
"""

__version__ = "0.1.0"

from .dynamics import (AssembledMatrices, ModelSpec, SystemState, Trajectory,
                       assemble, integrate, integrate_until_settled, rhs)
from .equilibria import (ConditionReport, EquilibriumReport, classify,
                         stability_conditions, endemic_fixed_point,
                         equilibrium_matrices, margin_recovery_rates)
from .errors import (ConvergenceError, IntegrationError, MalformedGeneratorError,
                     NotStronglyConnectedError, ScenarioError, StepSizeError)
from .network import (MobilityLayer, MultiLayerNetwork, StationaryDistribution,
                      equal_exit_layer, layer_from_edge_rates,
                      metropolis_hastings_rates, network_stationary, preset_layer,
                      stationary_distribution, validate_layer)
from .scenario import Scenario, initial_state, load_scenario, parse_scenario
from .spectral import (MMatrixReport, SpectralResult, mmatrix_checks,
                       spectral_abscissa, spectral_radius)
from .stochastic import (AgentCounts, StochasticRun, seed_infections, simulate,
                         simulate_seeds, stationary_counts, step)

__all__ = [
    "__version__",
    "AgentCounts", "AssembledMatrices", "ConditionReport", "ConvergenceError",
    "EquilibriumReport", "IntegrationError", "MMatrixReport",
    "MalformedGeneratorError", "MobilityLayer", "ModelSpec", "MultiLayerNetwork",
    "NotStronglyConnectedError", "Scenario", "ScenarioError", "SpectralResult",
    "StationaryDistribution", "StepSizeError", "StochasticRun", "SystemState",
    "Trajectory", "assemble", "classify", "stability_conditions",
    "endemic_fixed_point", "equal_exit_layer", "equilibrium_matrices",
    "initial_state", "integrate", "integrate_until_settled",
    "layer_from_edge_rates", "load_scenario", "margin_recovery_rates",
    "metropolis_hastings_rates", "mmatrix_checks", "network_stationary",
    "parse_scenario", "preset_layer", "rhs", "seed_infections", "simulate", "simulate_seeds",
    "spectral_abscissa", "spectral_radius", "stationary_counts",
    "stationary_distribution", "step", "validate_layer",
]
