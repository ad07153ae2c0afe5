"""Utility-based power control and receiver comparison for the DS-CDMA uplink.

The library finds the SIR-balanced Nash equilibria of the non-cooperative
uplink power game under matched-filter, decorrelator and MMSE receivers,
evaluates the matching large-system closed forms (equilibrium powers,
utilities, cooperative targets, admission limits, receive-diversity gains),
and reproduces the reference numerical experiments as seeded CSV sweeps.

Each name below loads its module on first use (PEP 562), so importing the
package loads no numpy and the command-line entry point can still pin the
BLAS thread count that numpy reads when it loads.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "config": ("ReceiverKind", "SystemParams"),
    "efficiency": ("EfficiencyKind", "EfficiencyModel", "eff_derivative",
                   "eff_value", "solve_gamma_star"),
    "exceptions": ("ConfigError", "InfeasibleLoadError",
                   "InfeasibleUserError", "NoTargetSirError",
                   "PowerGameError", "SingularSpreadingError", "SolverError"),
    "game": ("EquilibriumResult", "best_response_power", "solve_equilibrium",
             "verify_nash"),
    "multiantenna": ("solve_equilibrium_ma",),
    "system": ("ChannelRealization", "effective_system", "generate_gains",
               "generate_spreading", "output_sir", "receiver_filter",
               "sir_per_watt", "utility"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value
