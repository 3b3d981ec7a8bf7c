"""Invariants of the game value that the paper implies, as properties
over random games."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_games
from searchpursuit import GameSpec, build_matrix, maximal_feasible_sets, solve_zero_sum


def game_value(spec: GameSpec) -> F:
    return solve_zero_sum(build_matrix(spec, maximal_feasible_sets(spec))).value


@settings(max_examples=100)
@given(small_games(), st.integers(1, 12), st.integers(1, 12))
def test_scaling_times_and_budget_keeps_the_value(spec, num, den):
    # Scaling every time and the budget by c > 0 keeps the same sets
    # feasible, so the game and its value are unchanged.
    c = F(num, den)
    scaled = GameSpec(
        tuple(c * t for t in spec.times), spec.captures, c * spec.budget
    )
    assert game_value(scaled) == game_value(spec)


@settings(max_examples=100)
@given(small_games(), st.data())
def test_value_is_nondecreasing_in_each_capture(spec, data):
    i = data.draw(st.integers(0, spec.n - 1), label="location")
    raised = data.draw(
        st.integers(int(spec.captures[i] * 20), 20), label="raised capture, in 20ths"
    )
    captures = list(spec.captures)
    captures[i] = F(raised, 20)
    higher = GameSpec(spec.times, tuple(captures), spec.budget)
    assert game_value(higher) >= game_value(spec)
