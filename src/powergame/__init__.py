"""Utility-based power control and receiver comparison for the DS-CDMA uplink.

The library finds the SIR-balanced Nash equilibria of the non-cooperative
uplink power game under matched-filter, decorrelator and MMSE receivers,
evaluates the matching large-system closed forms (equilibrium powers,
utilities, cooperative targets, admission limits, receive-diversity gains),
and reproduces the reference numerical experiments as seeded CSV sweeps.
"""

from .efficiency import (EfficiencyKind, EfficiencyModel, eff_derivative,
                         eff_value, solve_gamma_star)
from .exceptions import (ConfigError, InfeasibleLoadError,
                         InfeasibleUserError, PowerGameError,
                         SingularSpreadingError, SolverError)
from .game import EquilibriumResult, best_response_power, solve_equilibrium, verify_nash
from .multiantenna import solve_equilibrium_ma
from .system import (ChannelRealization, ReceiverKind, SystemParams,
                     effective_system, generate_gains, generate_spreading,
                     output_sir, receiver_filter, utility,
                     utility_vs_power_curve)

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization", "ConfigError", "EfficiencyKind", "EfficiencyModel",
    "EquilibriumResult",
    "InfeasibleLoadError", "InfeasibleUserError", "PowerGameError",
    "ReceiverKind", "SingularSpreadingError", "SolverError", "SystemParams",
    "best_response_power", "eff_derivative", "eff_value",
    "effective_system", "generate_gains", "generate_spreading",
    "output_sir", "receiver_filter", "solve_equilibrium",
    "solve_equilibrium_ma", "solve_gamma_star", "utility",
    "utility_vs_power_curve", "verify_nash",
]
