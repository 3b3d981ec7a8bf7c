"""Exact rational solvers for budgeted search-and-pursuit games.

The package exports the location-game pipeline of the README's Library
example and the errors those calls raise; everything else is imported
from its module (``searchpursuit.closed_forms``, ``searchpursuit.oracle``,
the full-matrix tools ``game_core.maximal_feasible_sets``,
``lp_solver.solve_zero_sum`` and ``oracle.verify_equilibrium``, ...).
"""

from .game_core import GameSpec, InstanceTooLarge
from .lp_solver import location_uniqueness, solve_location_game
from .oracle import location_certificate
from .rationals import NumberTooLarge

__all__ = [
    "GameSpec",
    "InstanceTooLarge",
    "NumberTooLarge",
    "location_certificate",
    "location_uniqueness",
    "solve_location_game",
]
