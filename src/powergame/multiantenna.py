"""Receive diversity: the m-antenna equilibrium on raw spreading and gains.

The m-antenna game is the single-antenna game on system.effective_gram's
Gram ((S'S) o (H'H), or S'S with pooled gains); its large-system bounds and
load penalties are asymptotic.feasibility_bound and asymptotic.gamma_factor
at the antenna count. solve_equilibrium_ma(S, H, ...) is game.solve_channel,
the solver behind game.solve_equilibrium, under its older name.
"""

from .game import solve_channel

solve_equilibrium_ma = solve_channel
