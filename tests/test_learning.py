import random
from fractions import Fraction as F

import pytest

from conftest import unit_fraction
from searchpursuit.learning import (
    LearningSpec,
    closed_form_value,
    diagonal_entries,
    payoff_matrix,
    per_state_payoffs,
    posterior_after_escape,
    same_location_payoff,
    stay_is_favored,
)
from searchpursuit.learning import solve as solve_learning
from searchpursuit.lp_solver import solve_zero_sum


def random_pair(rng, max_den=20, strict=False):
    while True:
        low = unit_fraction(rng, max_den=max_den)
        high = unit_fraction(rng, max_den=max_den)
        if low > high:
            low, high = high, low
        if strict and low == high:
            continue
        return low, high


class TestMatrix:
    def test_worked_example(self):
        m = payoff_matrix(LearningSpec("1/3", "2/3"))
        assert m == ((F(13, 36), F(1, 4)), (F(1, 4), F(3, 8)))

    def test_certain_capture_corner(self):
        m = payoff_matrix(LearningSpec(0, 0))
        assert m == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_certain_escape_corner(self):
        m = payoff_matrix(LearningSpec(1, 1))
        assert m == ((F(0), F(0)), (F(0), F(0)))

    def test_diagonal_reduction_identity(self):
        rng = random.Random(41)
        for _ in range(30):
            low, high = random_pair(rng)
            spec = LearningSpec(low, high)
            m = payoff_matrix(spec)
            a, b = diagonal_entries(spec)
            base = 4 - 2 * high - 2 * low
            shifted = [[8 * m[i][j] - base for j in range(2)] for i in range(2)]
            assert shifted == [[a, 0], [0, b]]


class TestPerStatePayoffs:
    def test_single_location_payoff_examples(self):
        assert same_location_payoff(F(2, 3)) == F(5, 18)
        assert same_location_payoff(F(1, 3)) == F(4, 9)
        assert same_location_payoff(0) == F(1, 2)

    def test_averages_reproduce_matrix(self):
        rng = random.Random(42)
        for _ in range(20):
            low, high = random_pair(rng)
            spec = LearningSpec(low, high)
            states = per_state_payoffs(spec)
            m = payoff_matrix(spec)
            assert (states.stay_low + states.stay_high) / 2 == m[0][0]
            switch_avg = (
                states.switch_high_high
                + states.switch_low_low
                + states.switch_low_high
                + states.switch_high_low
            ) / 4
            assert switch_avg == m[1][1]

    def test_four_state_average_worked_example(self):
        states = per_state_payoffs(LearningSpec("1/3", "2/3"))
        total = (
            states.switch_high_high
            + states.switch_low_low
            + states.switch_low_high
            + states.switch_high_low
        )
        assert total / 4 == F(3, 8)


class TestSolve:
    def test_worked_example(self):
        sol = solve_learning(LearningSpec("1/3", "2/3"))
        assert sol.diagonal == (F(8, 9), F(1))
        assert sol.diagonal_value == F(8, 17)
        assert sol.value == F(21, 68)
        assert sol.stay_probability == F(9, 17)
        assert sol.switch_probability == F(8, 17)

    def test_equal_probabilities_split_evenly(self):
        sol = solve_learning(LearningSpec("2/5", "2/5"))
        assert sol.stay_probability == sol.switch_probability == F(1, 2)

    def test_half_range_example(self):
        sol = solve_learning(LearningSpec(0, "1/2"))
        assert sol.diagonal == (F(1, 2), F(3, 4))
        assert sol.diagonal_value == F(3, 10)
        assert sol.stay_probability == F(3, 5)
        assert sol.value == F(33, 80)
        assert solve_zero_sum(sol.matrix).value == F(33, 80)

    def test_three_solution_paths_agree(self):
        rng = random.Random(43)
        for _ in range(30):
            low, high = random_pair(rng, strict=True)
            if (low, high) == (F(0), F(1)):
                continue
            spec = LearningSpec(low, high)
            sol = solve_learning(spec)
            assert closed_form_value(spec) == sol.value
            assert solve_zero_sum(payoff_matrix(spec)).value == sol.value
        # At the degenerate corners a diagonal entry vanishes and
        # closed_form_value divides by zero; the LP still agrees, mix too.
        for low, high, value in ((0, 0, F(1, 2)), (0, 1, F(1, 4)), (1, 1, F(0))):
            spec = LearningSpec(low, high)
            sol = solve_learning(spec)
            lp = solve_zero_sum(payoff_matrix(spec))
            assert lp.value == sol.value == value
            assert lp.col_strategy == (sol.stay_probability, sol.switch_probability)


class TestPosterior:
    def test_worked_example(self):
        spec = LearningSpec("1/3", "2/3")
        post = posterior_after_escape(spec)
        assert post.high_escape_posterior == F(2, 3)
        assert post.expected_escape == F(5, 9)
        assert post.implied_capture == F(4, 9)
        assert post.low_capture_posterior == F(2, 3)

    def test_equal_probabilities_are_uninformative(self):
        post = posterior_after_escape(LearningSpec("1/2", "1/2"))
        assert post.high_escape_posterior == F(1, 2)
        assert post.low_capture_posterior == F(1, 2)

    def test_zero_low_pins_the_posterior(self):
        post = posterior_after_escape(LearningSpec(0, "1/2"))
        assert post.high_escape_posterior == 1
        assert post.expected_escape == F(1, 2)

    def test_impossible_escape_rejected(self):
        with pytest.raises(ValueError):
            posterior_after_escape(LearningSpec(0, 0))

    def test_implied_capture_consistency(self):
        rng = random.Random(44)
        for _ in range(30):
            low, high = random_pair(rng, strict=True)
            if (low, high) == (F(0), F(1)):
                continue
            spec = LearningSpec(low, high)
            post = posterior_after_escape(spec)
            assert post.implied_capture == 1 - post.expected_escape
            assert post.low_capture_posterior == post.high_escape_posterior


class TestStayIsFavored:
    def test_examples(self):
        assert stay_is_favored(LearningSpec("1/3", "2/3"))
        assert stay_is_favored(LearningSpec(0, "1/2"))
        assert not stay_is_favored(LearningSpec("1/2", "1/2"))

    def test_equivalence_with_strict_gap(self):
        rng = random.Random(45)
        for _ in range(30):
            low, high = random_pair(rng)
            spec = LearningSpec(low, high)
            assert stay_is_favored(spec) == (low < high)
            if low < high and (low, high) != (F(0), F(1)):
                assert solve_learning(spec).stay_probability > F(1, 2)


class TestSpecValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            LearningSpec("2/3", "1/3")
        with pytest.raises(ValueError):
            LearningSpec("-1/3", "1/2")
        with pytest.raises(ValueError):
            LearningSpec("1/3", "3/2")
