import math
import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_game, rational_games, rational_time_game, small_games
from searchpursuit import GameSpec, InstanceTooLarge
from searchpursuit.game_core import (
    HiderStrategy,
    SearchSet,
    build_matrix,
    check_size,
    is_maximal,
    max_payoff,
    maximal_feasible_sets,
    search_set,
)
from searchpursuit.lp_solver import solve_zero_sum

EXAMPLE = GameSpec((5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4"), 7)
STAIR5 = GameSpec((1, 2, 3, 4, 5), ("0.5", "0.4", "0.3", "0.2", "0.1"), 5)


def brute_feasible(spec):
    """Independent oracle: filter all 2^n subsets directly."""
    out = []
    for r in range(spec.n + 1):
        for combo in combinations(range(1, spec.n + 1), r):
            if sum((spec.times[i - 1] for i in combo), F(0)) <= spec.budget:
                out.append(combo)
    return sorted(out)


def members(sets):
    return [s.members for s in sets]


def reference_maximal(spec):
    """Independent oracle: the sets of :func:`brute_feasible` where no
    non-member fits in the slack, in lexicographic order."""
    out = []
    for combo in brute_feasible(spec):
        slack = spec.budget - sum((spec.times[i - 1] for i in combo), F(0))
        if all(
            spec.times[i - 1] > slack for i in range(1, spec.n + 1) if i not in combo
        ):
            out.append(combo)
    return out


def reference_specs(count=80, seed=41):
    """Seeded games with rational times (denominators up to about
    10**30), equal times in every fourth game, and budgets of 0, below
    every time, exactly a subset's total, a random share of the total
    time and the total time itself."""
    rng = random.Random(seed)
    denominators = (1, 2, 3, 7, 10**30 + 7, 10**30 + 57)
    specs = []
    for k in range(count):
        n = rng.randint(1, 8)
        if k % 4 == 0:
            times = (F(rng.randint(1, 35), 7),) * n
        else:
            times = tuple(
                F(rng.randint(1, 5 * d), d)
                for d in (rng.choice(denominators) for _ in range(n))
            )
        subset = [t for t in times if rng.randrange(2)]
        budget = (
            F(0),
            min(times) * F(rng.randint(0, 99), 100),
            sum(subset, F(0)),
            sum(times) * F(rng.randint(0, 10**6), 10**6),
            sum(times),
        )[k % 5]
        specs.append(GameSpec(times, ("1/2",) * n, budget))
    return specs


class TestFeasibleSets:
    """What the walk counts and keeps at the edges of the budget."""

    def test_zero_budget_leaves_only_empty_set(self):
        spec = GameSpec((1, 2, 3), ("0.5", "0.5", "0.5"), 0)
        assert members(maximal_feasible_sets(spec)) == [()]

    def test_unit_times_budget_two_counts_subsets(self):
        spec = GameSpec((1,) * 5, ("0.5",) * 5, 2)
        pairs = list(combinations(range(1, 6), 2))
        assert members(maximal_feasible_sets(spec)) == pairs

    def test_cap_refuses_large_instances(self):
        # 2**10 sets fit, one of them maximal: the cap counts them all.
        spec = GameSpec((1,) * 10, ("0.5",) * 10, 10)
        with pytest.raises(InstanceTooLarge):
            maximal_feasible_sets(spec, max_sets=100)
        with pytest.raises(InstanceTooLarge):
            maximal_feasible_sets(spec, max_sets=1023)
        everything = tuple(range(1, 11))
        assert members(maximal_feasible_sets(spec, max_sets=1024)) == [everything]


class TestMaximalSets:
    def test_example_prunes_dominated_singletons(self):
        assert members(maximal_feasible_sets(EXAMPLE)) == [(1,), (2, 3), (4,)]

    def test_full_set_when_everything_fits(self):
        spec = GameSpec((1, 1, 1), ("0.5", "0.5", "0.5"), 3)
        assert members(maximal_feasible_sets(spec)) == [(1, 2, 3)]

    def test_staircase_five_rows(self):
        assert set(members(maximal_feasible_sets(STAIR5))) == {
            (5,), (1, 4), (2, 3), (1, 3), (1, 2),
        }

    def test_empty_set_survives_only_when_nothing_fits(self):
        spec = GameSpec((5, 6), ("0.5", "0.5"), 2)
        assert members(maximal_feasible_sets(spec)) == [()]

    def test_no_feasible_strict_superset(self):
        rng = random.Random(13)
        for _ in range(20):
            spec = random_game(rng)
            feasible = brute_feasible(spec)
            for s in maximal_feasible_sets(spec):
                chosen = set(s.members)
                supersets = [
                    f for f in feasible if chosen < set(f)
                ]
                assert not supersets

    def test_value_on_maximal_rows_equals_value_on_all_rows(self):
        rng = random.Random(14)
        specs = [random_game(rng, max_n=5) for _ in range(6)]
        specs.append(random_game(rng, max_n=8, max_time=4))
        for spec in specs:
            all_rows = [SearchSet(combo) for combo in brute_feasible(spec)]
            some_rows = maximal_feasible_sets(spec)
            v_all = solve_zero_sum(build_matrix(spec, all_rows)).value
            v_max = solve_zero_sum(build_matrix(spec, some_rows)).value
            assert v_all == v_max


class TestAgainstReference:
    def test_maximal_sets_in_order(self):
        for spec in reference_specs():
            assert members(maximal_feasible_sets(spec)) == reference_maximal(spec)

    @pytest.mark.parametrize("capped", [check_size, maximal_feasible_sets])
    def test_cap_boundary(self, capped):
        for spec in reference_specs(count=30, seed=42):
            count = len(brute_feasible(spec))
            assert capped(spec, max_sets=count) == capped(spec)
            with pytest.raises(
                InstanceTooLarge, match=f"more than {count - 1} feasible sets"
            ):
                capped(spec, max_sets=count - 1)


class TestPayoffMatrix:
    def test_example_reduced_matrix(self):
        rows = maximal_feasible_sets(EXAMPLE)
        matrix = build_matrix(EXAMPLE, rows)
        assert matrix == (
            (F(1, 10), F(0), F(0), F(0)),
            (F(0), F(1, 5), F(3, 20), F(0)),
            (F(0), F(0), F(0), F(2, 5)),
        )

    def test_empty_row_is_all_zero(self):
        rows = [search_set(EXAMPLE, ())]
        matrix = build_matrix(EXAMPLE, rows)
        assert matrix == ((F(0),) * 4,)

    def test_staircase_matrix(self):
        rows = maximal_feasible_sets(STAIR5)
        matrix = build_matrix(STAIR5, rows)
        by_members = dict(zip(members(rows), matrix))
        assert by_members[(5,)] == (0, 0, 0, 0, F(1, 10))
        assert by_members[(1, 4)] == (F(1, 2), 0, 0, F(1, 5), 0)
        assert by_members[(2, 3)] == (0, F(2, 5), F(3, 10), 0, 0)
        assert by_members[(1, 3)] == (F(1, 2), 0, F(3, 10), 0, 0)
        assert by_members[(1, 2)] == (F(1, 2), F(2, 5), 0, 0, 0)

    def test_row_sums_match_member_captures(self):
        rng = random.Random(15)
        for _ in range(15):
            spec = random_game(rng)
            rows = maximal_feasible_sets(spec)
            matrix = build_matrix(spec, rows)
            for s, row in zip(rows, matrix):
                assert sum(row) == sum(
                    (spec.captures[i - 1] for i in s.members), F(0)
                )

    def test_infeasible_row_rejected(self):
        # {1,4} takes 12 time units against a budget of 7, whatever row
        # comes with it.
        too_big = search_set(EXAMPLE, (1, 4))
        with pytest.raises(ValueError, match="infeasible"):
            build_matrix(EXAMPLE, [too_big, search_set(EXAMPLE, (2, 3))])

    @pytest.mark.parametrize("row", [(0,), (-1,), (5,), (1, 9)])
    def test_member_outside_the_game_rejected(self, row):
        with pytest.raises(ValueError, match="outside 1..4"):
            build_matrix(EXAMPLE, [SearchSet(row)])

    def test_accepts_exactly_the_feasible_rows(self):
        for spec in reference_specs(count=25, seed=43):
            feasible = set(brute_feasible(spec))
            for r in range(spec.n + 1):
                for combo in combinations(range(1, spec.n + 1), r):
                    row = SearchSet(combo)
                    if combo in feasible:
                        build_matrix(spec, [row])
                    else:
                        with pytest.raises(ValueError, match="infeasible"):
                            build_matrix(spec, [row])


class TestBestResponse:
    def test_example_equalizing_hider(self):
        assert max_payoff(EXAMPLE, (F(12, 23), 0, F(8, 23), F(3, 23)))[0] == F(6, 115)

    def test_point_mass_hider(self):
        assert max_payoff(EXAMPLE, (1, 0, 0, 0)) == (F(1, 10), (1,))

    def test_staircase_equalizing_hider(self):
        assert max_payoff(STAIR5, (0, 0, F(2, 11), F(3, 11), F(6, 11)))[0] == F(3, 55)

    def test_table_of_totals_is_capped(self):
        # The uniform hider on times 5, 3, 4 and 7, budget 7: locations
        # 1..4 pay 2/80, 4/80, 3/80 and 8/80. The front (total, payoff)
        # is (0, 0), (5, 2/80); then (0, 0), (3, 4/80), as 5 pays less
        # than 3; then (0, 0), (3, 4/80), (7, 7/80), as 4 pays less than
        # 3; and last (0, 0), (3, 4/80), (7, 8/80). Its longest is 3
        # entries, where the table of every total held 5.
        hider = (F(1, 4),) * 4
        assert max_payoff(EXAMPLE, hider, max_sets=3) == (F(1, 10), (4,))
        with pytest.raises(InstanceTooLarge, match="more than 2 distinct set totals"):
            max_payoff(EXAMPLE, hider, max_sets=2)
        assert table_knapsack(EXAMPLE, hider)[2] == 5

    def test_single_location_probe_lower_bound(self):
        rng = random.Random(16)
        for _ in range(10):
            spec = random_game(rng)
            weights = [F(rng.randint(0, 4)) for _ in range(spec.n)]
            total = sum(weights) or F(1)
            h = HiderStrategy(tuple(w / total if sum(weights) else
                                    F(1, spec.n) for w in weights))
            value = max_payoff(spec, h.probs)[0]
            for i in range(1, spec.n + 1):
                if spec.times[i - 1] <= spec.budget:
                    assert value >= h.probs[i - 1] * spec.captures[i - 1]


class TestValidation:
    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            GameSpec((), (), 1)
        with pytest.raises(ValueError):
            GameSpec((1, 2), ("0.5",), 1)
        with pytest.raises(ValueError):
            GameSpec((0, 1), ("0.5", "0.5"), 1)
        with pytest.raises(ValueError):
            GameSpec((1, 1), ("0", "0.5"), 1)
        with pytest.raises(ValueError):
            GameSpec((1, 1), ("0.5", "1.5"), 1)
        with pytest.raises(ValueError):
            GameSpec((1, 1), ("0.5", "0.5"), -1)

    def test_hider_strategy_must_be_distribution(self):
        with pytest.raises(ValueError):
            HiderStrategy((F(1, 2), F(1, 3)))
        with pytest.raises(ValueError):
            HiderStrategy((F(3, 2), F(-1, 2)))

    def test_search_set_validates_indices(self):
        with pytest.raises(ValueError):
            search_set(EXAMPLE, (0,))
        with pytest.raises(ValueError):
            search_set(EXAMPLE, (5,))
        assert search_set(EXAMPLE, (3, 2)).members == (2, 3)


@settings(max_examples=150)
@given(rational_games())
def test_row_test_is_membership_in_the_maximal_sets(spec):
    rows = set(members(maximal_feasible_sets(spec)))
    n = spec.n
    for r in range(n + 1):
        for combo in combinations(range(1, n + 1), r):
            assert is_maximal(spec, combo) == (combo in rows), combo
            # Member order does not matter.
            assert is_maximal(spec, combo[::-1]) == (combo in rows), combo
    for row in rows:
        if row:
            assert not is_maximal(spec, row + row[:1])  # a duplicate member
        assert not is_maximal(spec, row + (n + 1,))
        assert not is_maximal(spec, (0,) + row)
    over = tuple(range(1, n + 1))
    if sum(spec.times) > spec.budget:
        assert not is_maximal(spec, over)


@settings(max_examples=100)
@given(rational_games(), st.data())
def test_knapsack_is_the_best_feasible_set(spec, data):
    hider = [F(data.draw(st.integers(0, 5)), 5) for _ in range(spec.n)]
    best = max(
        sum((spec.captures[i - 1] * hider[i - 1] for i in combo), F(0))
        for combo in brute_feasible(spec)
    )
    assert max_payoff(spec, hider)[0] == best


def table_knapsack(spec, hider):
    """The reference knapsack: a dict from every reachable scaled total to
    the best payoff reaching it and a bit mask of a set that does. Returns
    the best payoff, that set, and the number of totals the dict held."""
    times, budget = spec._scaled
    used = [
        (i, t, p.numerator * h.numerator, p.denominator * h.denominator)
        for i, (t, p, h) in enumerate(zip(times, spec.captures, hider), start=1)
        if h
    ]
    den = math.lcm(*(d for *_, d in used))
    best = {0: (0, 0)}
    for i, t, b, d in used:
        gain = b * (den // d)
        for total, (payoff, mask) in list(best.items()):
            reached, reward = total + t, payoff + gain
            if reached <= budget and (reached not in best or best[reached][0] < reward):
                best[reached] = reward, mask | 1 << i
    payoff, mask = max(best.values())
    chosen = tuple(i for i in range(1, spec.n + 1) if mask >> i & 1)
    return F(payoff, den), chosen, len(best)


def random_hider(data, n):
    """A hider mix of n weights drawn from 0..5, uniform when all are 0."""
    weights = [data.draw(st.integers(0, 5)) for _ in range(n)]
    total = sum(weights)
    return [F(w, total) if total else F(1, n) for w in weights]


def assert_front_matches_the_table(spec, hider):
    """The front's maximum is the table's, its set fits the budget and
    pays it, and a cap of the table's size never refuses the front,
    whose entries are distinct totals too."""
    payoff, chosen = max_payoff(spec, hider)
    best, _, table = table_knapsack(spec, hider)
    assert payoff == best
    assert chosen == tuple(sorted(set(chosen)))
    assert sum((spec.times[i - 1] for i in chosen), F(0)) <= spec.budget
    assert sum((spec.captures[i - 1] * hider[i - 1] for i in chosen), F(0)) == payoff
    assert max_payoff(spec, hider, max_sets=table) == (payoff, chosen)


@settings(max_examples=150)
@given(small_games(), st.data())
def test_front_matches_the_table_on_integer_times(spec, data):
    assert_front_matches_the_table(spec, random_hider(data, spec.n))


@settings(max_examples=150)
@given(rational_games(), st.data())
def test_front_matches_the_table_on_rational_times(spec, data):
    assert_front_matches_the_table(spec, random_hider(data, spec.n))


@settings(max_examples=100)
@given(rational_games(), st.data())
def test_knapsack_names_the_least_total_then_least_mask(spec, data):
    # The documented tie rule, against every feasible set: greatest
    # payoff, then least total time, then the set that leaves out the
    # highest-numbered location where two differ (the least bit mask).
    hider = random_hider(data, spec.n)

    def rank(combo):
        payoff = sum((spec.captures[i - 1] * hider[i - 1] for i in combo), F(0))
        total = sum((spec.times[i - 1] for i in combo), F(0))
        return -payoff, total, sum(1 << i for i in combo)

    expected = min(brute_feasible(spec), key=rank)
    assert max_payoff(spec, hider)[1] == expected


def test_front_is_fast_on_rational_times():
    # At n = 80 the table of every total would hold millions of entries.
    spec = rational_time_game(1, 80)
    rng = random.Random(2)
    weights = [rng.randint(0, 100) for _ in range(spec.n)]
    hider = [F(w, sum(weights)) for w in weights]
    started = time.perf_counter()
    payoff, chosen = max_payoff(spec, hider)
    assert time.perf_counter() - started < 0.1
    assert sum((spec.times[i - 1] for i in chosen), F(0)) <= spec.budget
    assert sum((spec.captures[i - 1] * hider[i - 1] for i in chosen), F(0)) == payoff


def test_check_size_is_the_enumeration_cap():
    spec = GameSpec((1,) * 30, ("1/2",) * 30, 15)
    with pytest.raises(InstanceTooLarge):
        check_size(spec, max_sets=1000)
    check_size(EXAMPLE, max_sets=len(brute_feasible(EXAMPLE)))
    with pytest.raises(InstanceTooLarge):
        check_size(EXAMPLE, max_sets=len(brute_feasible(EXAMPLE)) - 1)
