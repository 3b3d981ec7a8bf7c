import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    constant_times_reference,
    staircase_reference,
    systematic_sets_reference,
    two_type_matrix,
    unit_fraction,
)
from searchpursuit import GameSpec
from searchpursuit.closed_forms import (
    RegimeError,
    TwoTypeSpec,
    _systematic_sets,
    check_value_floor,
    expand_two_type,
    solve_arithmetic_times,
    solve_constant_times,
    solve_two_type,
    two_type_payoff,
)
from searchpursuit.game_core import build_matrix, maximal_feasible_sets
from searchpursuit.lp_solver import solve_zero_sum

FAMILY = (F(1, 2), F(2, 5), F(3, 10), F(1, 5), F(1, 10))


def lp_value(spec):
    rows = maximal_feasible_sets(spec)
    return solve_zero_sum(build_matrix(spec, rows))


class TestConstantTimes:
    def test_interior_example_against_lp(self):
        sol = solve_constant_times(("0.2", "0.3", "0.5"), 1)
        assert sol.inv_capture_sum == F(31, 3)
        assert sol.regime == "interior"
        assert sol.value == F(3, 31)
        assert sol.hider.probs == (F(15, 31), F(10, 31), F(6, 31))
        lp = lp_value(GameSpec((1, 1, 1), ("0.2", "0.3", "0.5"), 1))
        assert lp.value == sol.value
        assert lp.col_strategy == sol.hider.probs

    def test_corner_when_everything_searchable(self):
        sol = solve_constant_times(("0.2", "0.3", "0.5"), 3)
        assert sol.regime == "corner"
        assert sol.value == F(1, 5)
        assert sol.hider.probs == (1, 0, 0)

    def test_single_location(self):
        sol = solve_constant_times(("0.7",), 1)
        assert sol.value == F(7, 10)

    def test_boundary_prefers_interior_mix(self):
        # two locations at 1/2: threshold k/sum(1/p) hits p_min at k = 2
        sol = solve_constant_times(("0.5", "0.5"), 2)
        assert sol.regime == "interior"
        assert sol.value == F(1, 2)
        assert sol.hider.probs == (F(1, 2), F(1, 2))

    def test_unsorted_input_maps_back_to_original_order(self):
        sol = solve_constant_times(("0.5", "0.2", "0.3"), 1)
        assert sol.value == F(3, 31)
        assert sol.hider.probs == (F(6, 31), F(15, 31), F(10, 31))

    def test_budget_out_of_range_rejected(self):
        for bad in (0, 4, F(3, 2)):
            with pytest.raises(ValueError):
                solve_constant_times(("0.2", "0.3", "0.5"), bad)

    def test_equalizer_and_lp_agreement_random(self):
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(1, 5)
            captures = tuple(
                unit_fraction(rng, max_den=12, positive=True) for _ in range(n)
            )
            k = rng.randint(1, n)
            sol = solve_constant_times(captures, k)
            lp = lp_value(GameSpec((1,) * n, captures, k))
            assert sol.value == lp.value == min(k / sol.inv_capture_sum, min(captures))
            if sol.regime == "interior":
                products = {h * p for h, p in zip(sol.hider.probs, captures)}
                assert len(products) == 1


class TestArithmeticTimes:
    def test_staircase_five(self):
        sol = solve_arithmetic_times(("0.5", "0.4", "0.3", "0.2", "0.1"))
        assert sol.value == F(3, 55)
        assert sol.inv_capture_sum == F(55, 3)
        assert sol.support_start == 3
        assert sol.hider.probs == (0, 0, F(2, 11), F(3, 11), F(6, 11))
        mix = {s.members: w for s, w in sol.searcher_mix}
        assert mix == {(2, 3): F(2, 11), (1, 4): F(3, 11), (5,): F(6, 11)}
        assert sol.verified
        assert sol.uniqueness_expected

    def test_single_location(self):
        sol = solve_arithmetic_times(("0.4",))
        assert sol.value == F(2, 5)
        assert sol.hider.probs == (1,)
        assert sol.verified

    def test_two_locations_is_diagonal_game(self):
        sol = solve_arithmetic_times(("0.5", "0.2"))
        assert sol.value == 1 / (F(2) + F(5))
        assert sol.support_start == 1
        assert sol.verified

    def test_even_four_matches_lp(self):
        # Frozen from the exact LP: the support reaches down to location
        # n/2 = 2 and the value is 1/(1/p2 + 1/p3 + 1/p4).
        sol = solve_arithmetic_times(("0.5", "0.4", "0.3", "0.2"))
        assert sol.support_start == 2
        assert sol.value == F(6, 65)
        assert sol.hider.probs == (0, F(3, 13), F(4, 13), F(6, 13))
        assert sol.verified
        spec = GameSpec((1, 2, 3, 4), ("0.5", "0.4", "0.3", "0.2"), 4)
        lp = lp_value(spec)
        assert lp.value == sol.value
        assert lp.col_strategy == sol.hider.probs

    def test_even_support_must_include_the_middle_location(self):
        # Restricting the inverse-capture sum to locations n/2+1..n (the
        # straight analogue of the odd case) does not solve even games:
        # the hider would then profit by hiding at location n/2.
        captures = (F(1, 2), F(2, 5), F(3, 10), F(1, 5))
        alt_sum = sum(1 / p for p in captures[2:])
        assert 1 / alt_sum == F(3, 25)
        assert lp_value(GameSpec((1, 2, 3, 4), captures, 4)).value == F(6, 65)

    def test_even_six_matches_lp(self):
        captures = ("0.6", "0.5", "0.4", "0.3", "0.2", "0.1")
        sol = solve_arithmetic_times(captures)
        spec = GameSpec((1, 2, 3, 4, 5, 6), captures, 6)
        lp = lp_value(spec)
        assert sol.verified
        assert sol.value == lp.value
        assert sol.hider.probs == lp.col_strategy

    def test_ties_allowed_but_uniqueness_not_claimed(self):
        captures = ("0.5", "0.3", "0.3", "0.2", "0.1")
        sol = solve_arithmetic_times(captures)
        assert not sol.uniqueness_expected
        assert sol.verified
        spec = GameSpec((1, 2, 3, 4, 5), captures, 5)
        assert lp_value(spec).value == sol.value

    def test_increasing_captures_rejected(self):
        with pytest.raises(ValueError):
            solve_arithmetic_times(("0.2", "0.3"))

    def test_certificate_enumerates_no_row(self, monkeypatch):
        from searchpursuit import game_core

        def refuse(*args, **kwargs):
            raise AssertionError("rows enumerated or a matrix built")

        monkeypatch.setattr(game_core, "maximal_feasible_sets", refuse)
        monkeypatch.setattr(game_core, "build_matrix", refuse)
        sol = solve_arithmetic_times([F(1, i) for i in range(1, 57)])
        assert sol.verified
        assert sol.support_start == 28

    def test_certify_false_skips_the_check(self):
        sol = solve_arithmetic_times(("0.5", "0.4", "0.3"), certify=False)
        assert not sol.verified
        assert sol.value == 1 / (F(10, 3) + F(10, 4))


@st.composite
def capture(draw, max_den=60):
    den = draw(st.integers(1, max_den))
    return F(draw(st.integers(1, den)), den)


@st.composite
def staircase_captures(draw):
    """n = 1..40 non-increasing captures with denominators up to 60:
    distinct values, or each value repeated one to three times."""
    if draw(st.booleans()):
        values = draw(st.lists(capture(), min_size=1, max_size=40, unique=True))
    else:
        n = draw(st.integers(1, 40))
        values = []
        while len(values) < n:
            values += [draw(capture())] * draw(st.integers(1, 3))
        del values[n:]
    return tuple(sorted(values, reverse=True))


@st.composite
def unit_time_games(draw):
    """(captures, k) with n = 1..14 and k = 1..n; a third of the games
    have all captures equal."""
    n = draw(st.integers(1, 14))
    if draw(st.integers(0, 2)) == 0:
        captures = (draw(capture()),) * n
    else:
        captures = tuple(draw(capture()) for _ in range(n))
    return captures, draw(st.integers(1, n))


@st.composite
def integer_coverages(draw):
    """(c, D): integers c_i in 0..D, zeros and D's among them, with a
    sum that is a multiple of D."""
    scale = draw(st.integers(1, 60))
    coverage = draw(
        st.lists(
            st.one_of(st.just(0), st.just(scale), st.integers(0, scale)),
            min_size=1, max_size=20,
        )
    )
    excess = sum(coverage) % scale
    for i, c in enumerate(coverage):
        cut = min(c, excess)
        coverage[i] -= cut
        excess -= cut
    return coverage, scale


class TestIntegerKernels:
    """The closed forms, computed over one common integer denominator,
    return exactly what their Fraction formulas return: every field, each
    Fraction's type and the mix's order (``repr`` shows all three)."""

    @settings(max_examples=300)
    @given(staircase_captures(), st.booleans())
    @example((F(1, 2), F(1, 2), F(1, 2), F(1, 2)), True)
    def test_staircase_matches_its_fraction_formula(self, captures, certify):
        got = solve_arithmetic_times(captures, certify=certify)
        assert repr(got) == repr(staircase_reference(captures, certify=certify))

    @settings(max_examples=400)
    @given(unit_time_games())
    @example(((F(1, 5), F(3, 10), F(1, 2)), 1))  # interior
    @example(((F(1, 5), F(3, 10), F(1, 2)), 3))  # corner
    @example(((F(2, 7),) * 6, 6))  # all equal at k = n: the regimes tie
    @example(((F(1, 2), F(1, 5), F(1, 5), F(1, 3)), 3))  # corner, tied lowest
    def test_constant_times_matches_its_fraction_formula(self, game):
        captures, k = game
        got = solve_constant_times(captures, k)
        assert repr(got) == repr(constant_times_reference(captures, k))

    @settings(max_examples=400)
    @given(integer_coverages())
    @example(([0, 3, 3, 0], 3))
    @example(([1, 1, 1], 1))
    def test_systematic_sets_match_the_fraction_scan(self, coverages):
        coverage, scale = coverages
        want = systematic_sets_reference([F(c, scale) for c in coverage])
        assert repr(_systematic_sets(coverage, scale)) == repr(want)


class TestValueFloor:
    def test_family_budget_ten_reaches_the_floor(self):
        spec = GameSpec((1, 2, 3, 4, 5), FAMILY, 10)
        check = check_value_floor(spec)
        assert check.holds
        assert check.reduced_value == F(3, 25)
        assert lp_value(spec).value == F(1, 10)

    def test_family_budget_nine_stays_above(self):
        spec = GameSpec((1, 2, 3, 4, 5), FAMILY, 9)
        check = check_value_floor(spec)
        assert not check.holds
        assert check.reduced_value == F(6, 65)
        assert lp_value(spec).value == F(18, 185) < F(1, 10)

    def test_single_location_always_holds(self):
        check = check_value_floor(GameSpec((1,), ("0.4",), 1))
        assert check.holds
        assert check.reduced_value is None

    def test_requires_staircase_times_and_budget(self):
        with pytest.raises(ValueError):
            check_value_floor(GameSpec((1, 3), ("0.5", "0.4"), 4))
        with pytest.raises(ValueError):
            check_value_floor(GameSpec((1, 2), ("0.5", "0.4"), 1))


class TestTwoType:
    def test_worked_example_and_expansion(self):
        spec = TwoTypeSpec(4, 2, 2, F(3, 10), F(1, 5), 4)
        sol = solve_two_type(spec)
        assert sol.type1_mass == F(2, 5)
        assert sol.mean_type2_searches == F(6, 5)
        assert sol.max_type2_searches == 2
        assert sol.value == F(3, 25)
        assert sol.searcher_mix == ((1, F(4, 5)), (2, F(1, 5)))
        expanded = expand_two_type(spec)
        assert lp_value(expanded).value == F(3, 25)

    def test_type_level_matrix_is_the_payoff_at_pure_hiding(self):
        spec = TwoTypeSpec(4, 2, 2, F(3, 10), F(1, 5), 4)
        matrix = two_type_matrix(spec)
        assert matrix == [
            [F(3, 10), F(0)],
            [F(3, 20), F(1, 10)],
            [F(0), F(1, 5)],
        ]
        for j, (quick, slow) in enumerate(matrix):
            assert quick == two_type_payoff(spec, j, 1)
            assert slow == two_type_payoff(spec, j, 0)

    def test_integral_mean_gives_pure_searcher(self):
        spec = TwoTypeSpec(2, 2, 1, F(1, 2), F(1, 2), 2)
        sol = solve_two_type(spec)
        assert sol.mean_type2_searches == 1
        assert sol.searcher_mix == ((1, F(1)),)
        assert sol.value == F(1, 4)

    def test_equal_types_reduce_to_constant_times(self):
        spec = TwoTypeSpec(3, 2, 1, F(1, 4), F(1, 4), 2)
        sol = solve_two_type(spec)
        a, b, p, k = 3, 2, F(1, 4), 2
        assert sol.value == p * k / (a + b)
        assert sol.type1_mass == F(a, a + b)
        const = solve_constant_times((p,) * (a + b), k)
        assert const.value == sol.value

    def test_value_identities_and_mean(self):
        rng = random.Random(32)
        for _ in range(15):
            tau = rng.randint(1, 3)
            b = rng.randint(1, 4)
            a = rng.randint(1, 8)
            k = rng.randint(1, min(a, b * tau)) if min(a, b * tau) >= 1 else 1
            spec = TwoTypeSpec(a, b, tau, unit_fraction(rng, positive=True),
                               unit_fraction(rng, positive=True), k)
            try:
                sol = solve_two_type(spec)
            except RegimeError:
                continue
            p, q = spec.type1_capture, spec.type2_capture
            j = sol.mean_type2_searches
            assert sum(w for _, w in sol.searcher_mix) == 1
            assert sum(jj * w for jj, w in sol.searcher_mix) == j
            assert 0 <= j <= sol.max_type2_searches
            assert sol.value == q * j / b
            assert sol.value == p * F(k) / a - p * tau * j / a

    def test_indifference_at_the_equalizing_split(self):
        spec = TwoTypeSpec(4, 2, 2, F(3, 10), F(1, 5), 4)
        sol = solve_two_type(spec)
        payoffs = {
            two_type_payoff(spec, j, sol.type1_mass)
            for j in range(sol.max_type2_searches + 1)
        }
        assert payoffs == {sol.value}

    def test_standing_assumption_violations_rejected(self):
        with pytest.raises(RegimeError):
            solve_two_type(TwoTypeSpec(2, 5, 1, F(1, 2), F(1, 2), 3))  # a < k
        with pytest.raises(RegimeError):
            solve_two_type(TwoTypeSpec(5, 1, 2, F(1, 2), F(1, 2), 3))  # b*tau < k

    def test_unreachable_mean_rejected_and_formula_really_fails_there(self):
        # With a=3, b=2, tau=2, k=3, p=9/10, q=1/10 the equalizing mean is
        # 6/5 > floor(k/tau) = 1. The formula would claim 9/130 but the
        # exact value of the expanded game is 1/20.
        spec = TwoTypeSpec(3, 2, 2, F(9, 10), F(1, 10), 3)
        with pytest.raises(RegimeError):
            solve_two_type(spec)
        formula = spec.type1_capture * spec.type2_capture * 3 / (
            3 * spec.type2_capture + 2 * spec.type1_capture * 2
        )
        assert formula == F(9, 130)
        assert lp_value(expand_two_type(spec)).value == F(1, 20)

    def test_tiny_mixed_type_game_is_out_of_regime(self):
        # One location per type with tau = k = 3 forces a < k: the
        # all-quick plan does not exist and the closed form cannot apply.
        spec = TwoTypeSpec(1, 1, 3, F(1, 4), F(1, 8), 3)
        with pytest.raises(RegimeError):
            solve_two_type(spec)
        p, q = F(1, 4), F(1, 8)
        assert lp_value(expand_two_type(spec)).value == p * q / (p + q)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TwoTypeSpec(0, 1, 1, F(1, 2), F(1, 2), 1)
        with pytest.raises(ValueError):
            TwoTypeSpec(1, 1, 1, F(3, 2), F(1, 2), 1)
        with pytest.raises(ValueError):
            TwoTypeSpec(1, 1, 1, F(1, 2), F(1, 2), 0)
