"""Exact rational solvers for budgeted search-and-pursuit games.

The package exports the pipeline of the README's Library example and the
errors those calls raise; everything else is imported from its module
(``searchpursuit.closed_forms``, ``searchpursuit.learning``,
``searchpursuit.oracle``, ``searchpursuit.rationals``, ...).
"""

from .game_core import GameSpec, InstanceTooLarge, build_matrix, maximal_feasible_sets
from .lp_solver import hider_uniqueness, solve_zero_sum
from .oracle import verify_equilibrium
from .rationals import NumberTooLarge

__all__ = [
    "GameSpec",
    "InstanceTooLarge",
    "NumberTooLarge",
    "build_matrix",
    "hider_uniqueness",
    "maximal_feasible_sets",
    "solve_zero_sum",
    "verify_equilibrium",
]
