"""Receive diversity: the m-antenna equilibrium on raw spreading and gains.

The m-antenna game is the single-antenna game on the effective signatures
that system.effective_system builds; its large-system feasibility bounds and
load penalties are asymptotic.feasibility_bound and asymptotic.gamma_factor
at the antenna count. solve_equilibrium_ma(S, H, ...) is game.solve_channel,
the solver behind game.solve_equilibrium, under its older name.
"""

from .game import solve_channel

solve_equilibrium_ma = solve_channel
