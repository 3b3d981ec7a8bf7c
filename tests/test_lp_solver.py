import json
import random
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    negated_transpose,
    random_game,
    random_matrix,
    rational_games,
    roadmap_game,
    small_games,
)
from searchpursuit import GameSpec, InstanceTooLarge, lp_solver
from searchpursuit.game_core import build_matrix, max_payoff, maximal_feasible_sets
from searchpursuit.lp_solver import (
    hider_uniqueness,
    location_uniqueness,
    solve_location_game,
    solve_zero_sum,
)
from searchpursuit.oracle import certified_ranges, verify_equilibrium
from support_enumeration import optimal_hider_ranges, support_enumeration_solve

EXAMPLE_MATRIX = [
    ["0.1", 0, 0, 0],
    [0, 0, 0, "0.4"],
    [0, "0.2", "0.15", 0],
]


def staircase_matrix():
    spec = GameSpec((1, 2, 3, 4, 5), ("0.5", "0.4", "0.3", "0.2", "0.1"), 5)
    rows = maximal_feasible_sets(spec)
    return rows, build_matrix(spec, rows)


def assert_probe_matches(matrix, reference=optimal_hider_ranges):
    """The probe's ranges equal ``reference(matrix, value)``, and its flag
    says whether every range is a single point."""
    value = solve_zero_sum(matrix).value
    report = hider_uniqueness(matrix, value)
    assert report.ranges == reference(matrix, value)
    assert report.unique == all(lo == hi for lo, hi in report.ranges)
    return report


def certified_or_vertex_ranges(spec):
    """The probe's reference on ``spec``'s full matrix:
    ``certified_ranges`` on the column-generation answer where it gives
    ranges, the vertex enumeration elsewhere. Both are simplex-free, and
    the vertex enumeration is slow on games with many rows, which
    ``certified_ranges`` settles."""

    def reference(matrix, value):
        sol = solve_location_game(spec, len(matrix))
        mix = [(s.members, w) for s, w in sol.searcher]
        ranges = certified_ranges(spec, sol.hider, mix, value)
        return optimal_hider_ranges(matrix, value) if ranges is None else ranges

    return reference


def assert_equilibrium(matrix, sol):
    """Strong duality, exactly: both guarantee systems hold with no slack
    tolerance."""
    rows = [[F(x) for x in row] for row in matrix]
    m, n = len(rows), len(rows[0])
    assert sum(sol.row_strategy) == 1 and all(p >= 0 for p in sol.row_strategy)
    assert sum(sol.col_strategy) == 1 and all(p >= 0 for p in sol.col_strategy)
    for j in range(n):
        assert sum(sol.row_strategy[i] * rows[i][j] for i in range(m)) >= sol.value
    for i in range(m):
        assert sum(rows[i][j] * sol.col_strategy[j] for j in range(n)) <= sol.value


class TestSolveZeroSum:
    def test_example_reduced_game(self):
        sol = solve_zero_sum(EXAMPLE_MATRIX)
        assert sol.value == F(6, 115)
        assert sol.col_strategy == (F(12, 23), 0, F(8, 23), F(3, 23))
        assert sol.row_strategy == (F(12, 23), F(3, 23), F(8, 23))

    def test_identity_two_by_two(self):
        sol = solve_zero_sum([[1, 0], [0, 1]])
        assert sol.value == F(1, 2)
        assert sol.row_strategy == sol.col_strategy == (F(1, 2), F(1, 2))

    def test_staircase_game(self):
        _, matrix = staircase_matrix()
        sol = solve_zero_sum(matrix)
        assert sol.value == F(3, 55)
        assert sol.col_strategy == (0, 0, F(2, 11), F(3, 11), F(6, 11))

    def test_strong_duality_exact_on_random_matrices(self):
        rng = random.Random(21)
        for _ in range(40):
            matrix = random_matrix(rng)
            assert_equilibrium(matrix, solve_zero_sum(matrix))

    def test_tall_matrices_agree_with_support_enumeration(self):
        rng = random.Random(22)
        for _ in range(15):
            matrix = random_matrix(rng, max_dim=5)
            while len(matrix) <= len(matrix[0]):
                matrix.append(matrix[0][:])
            sol = solve_zero_sum(matrix)
            assert_equilibrium(matrix, sol)
            if len(matrix) <= 6:
                assert sol.value == support_enumeration_solve(matrix).value

    def test_scale_and_shift_equivariance(self):
        rng = random.Random(23)
        for _ in range(15):
            matrix = random_matrix(rng, max_dim=4)
            base = solve_zero_sum(matrix)
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            d = F(rng.randint(-5, 5), rng.randint(1, 9))
            mapped = [[c * v + d for v in row] for row in matrix]
            sol = solve_zero_sum(mapped)
            assert sol.value == c * base.value + d
            assert sol.row_strategy == base.row_strategy
            assert sol.col_strategy == base.col_strategy

    def test_adding_dominated_row_keeps_value(self):
        rng = random.Random(24)
        for _ in range(15):
            matrix = random_matrix(rng, max_dim=5)
            row = list(rng.choice(matrix))
            keep = rng.randrange(len(row))
            dominated = [v if j == keep else F(0) for j, v in enumerate(row)]
            assert (
                solve_zero_sum(matrix + [dominated]).value
                == solve_zero_sum(matrix).value
            )

    def test_constant_matrix_returns_uniform(self):
        sol = solve_zero_sum([[F(1, 3)] * 4, [F(1, 3)] * 4])
        assert sol.value == F(1, 3)
        assert sol.row_strategy == (F(1, 2), F(1, 2))
        assert sol.col_strategy == (F(1, 4),) * 4

    def test_degenerate_shapes(self):
        assert solve_zero_sum([[F(2, 7)]]).value == F(2, 7)
        sol = solve_zero_sum([[F(1, 2), F(1, 3), F(1, 4)]])
        assert sol.value == F(1, 4)
        sol = solve_zero_sum([[F(1, 2)], [F(1, 3)], [F(1, 4)]])
        assert sol.value == F(1, 2)

    def test_rejects_empty_or_ragged(self):
        with pytest.raises(ValueError):
            solve_zero_sum([])
        with pytest.raises(ValueError):
            solve_zero_sum([[]])
        with pytest.raises(ValueError):
            solve_zero_sum([[1, 2], [3]])


def slack_tableau(A, b):
    """The constraint rows [A | I | b] of max c.x s.t. Ax <= b, x >= 0,
    and their all-slack basis; b >= 0."""
    m, n = len(A), len(A[0])
    rows = [
        [F(v) for v in row] + [F(int(k == i)) for k in range(m)] + [F(rhs)]
        for i, (row, rhs) in enumerate(zip(A, b))
    ]
    return rows, list(range(n, n + m))


class TestEnteringRule:
    """Dantzig's column enters, and Bland's wherever Dantzig's would give
    a zero step."""

    @staticmethod
    def pivots(monkeypatch, limit=None):
        """A one-item list that counts ``_pivot`` calls; past ``limit``
        the next call fails, so a cycling simplex fails instead of
        hanging."""
        count = [0]
        real = lp_solver._pivot

        def counted(*args):
            count[0] += 1
            assert limit is None or count[0] <= limit, f"over {limit} pivots"
            return real(*args)

        monkeypatch.setattr(lp_solver, "_pivot", counted)
        return count

    def test_largest_reduced_cost_enters(self, monkeypatch):
        # max x + 2y s.t. x + y <= 1: y enters first and is optimal at
        # once; entering x first would take a second pivot.
        count = self.pivots(monkeypatch)
        rows, basis = slack_tableau([[1, 1]], [1])
        value, x, _ = lp_solver._reoptimize([1, 2], rows, basis)
        assert (value, x, count[0]) == (2, [0, 1], 1)

    def test_ties_enter_the_lowest_index(self, monkeypatch):
        count = self.pivots(monkeypatch)
        rows, basis = slack_tableau([[1, 1]], [1])
        value, x, _ = lp_solver._reoptimize([1, 1], rows, basis)
        assert (value, x, count[0]) == (1, [1, 0], 1)

    def test_beale_cycling_example_reaches_its_optimum(self, monkeypatch):
        # Beale (1955): max 3/4 x1 - 150 x2 + 1/50 x3 - 6 x4 subject to
        # the rows below. Dantzig's rule alone, with this leaving rule,
        # cycles through six degenerate bases from the slack basis.
        count = self.pivots(monkeypatch, limit=30)
        A = [
            [F(1, 4), -60, F(-1, 25), 9],
            [F(1, 2), -90, F(-1, 50), 3],
            [0, 0, 1, 0],
        ]
        rows, basis = slack_tableau(A, [0, 0, 1])
        value, x, _ = lp_solver._reoptimize([F(3, 4), -150, F(1, 50), -6], rows, basis)
        assert value == F(1, 20)
        assert x == [F(1, 25), 0, 1, 0]
        assert count[0] <= 30

    def test_pivot_count_on_roadmap_games(self, monkeypatch):
        # The benchmark's n = 12 games, seeds 0..7: 212 pivots with this
        # rule, 402 with Bland's rule alone.
        count = self.pivots(monkeypatch)
        for seed in range(8):
            spec = roadmap_game(seed, 12)
            solve_zero_sum(build_matrix(spec, maximal_feasible_sets(spec)))
        assert count[0] <= 250


@st.composite
def degenerate_matrices(draw):
    """Matrices up to 5x5 over a few small values, so that many bases
    are degenerate and many optima tie."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2), F(-1, 3)])
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]


@settings(max_examples=150)
@given(degenerate_matrices())
def test_entering_rule_on_random_matrices(matrix):
    sol = solve_zero_sum(matrix)
    assert sol.value == support_enumeration_solve(matrix).value
    cert = verify_equilibrium(matrix, sol.col_strategy, sol.row_strategy, sol.value)
    assert cert.ok


def dense_pivot(rows, obj, basis, r, c):
    """The reference for ``lp_solver._pivot``: the full row operation,
    every entry of every row with a nonzero in column c, and of the
    objective, recomputed as a - f * b."""
    inv = F(1) / rows[r][c]
    row_r = [v * inv for v in rows[r]]
    rows[r] = row_r
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            rows[i] = [a - f * b for a, b in zip(row, row_r)]
    f = obj[c]
    if f:
        obj[:] = [a - f * b for a, b in zip(obj, row_r)]
    basis[r] = c


@st.composite
def pivot_cases(draw):
    """A tableau up to 6 rows by 8 columns, its objective and basis, and
    a pivot entry that is not zero. The entries are drawn from a few
    small values, int and Fraction zeros among them, so that most pivot
    rows have zero columns."""
    m, width = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entry = st.sampled_from([F(0), 0, F(1), F(-1), F(1, 2), F(2), F(-1, 3)])
    line = st.lists(entry, min_size=width, max_size=width)
    rows = [draw(line) for _ in range(m)]
    obj = draw(line)
    basis = draw(st.lists(st.integers(0, width - 1), min_size=m, max_size=m))
    r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, width - 1))
    rows[r][c] = draw(st.sampled_from([F(1), F(-1), F(1, 2), F(2), F(-1, 3)]))
    return rows, obj, basis, r, c


class TestPivotKernel:
    """``_pivot`` updates only the pivot row's nonzero columns, with the
    exact values of the dense update."""

    @settings(max_examples=300)
    @given(pivot_cases())
    def test_matches_the_dense_update(self, case):
        rows, obj, basis, r, c = case
        dense = ([row[:] for row in rows], obj[:], basis[:])
        lp_solver._pivot(rows, obj, basis, r, c)
        dense_pivot(*dense, r, c)
        assert (rows, obj, basis) == dense

    def test_zero_columns_keep_their_entries(self):
        # Row 0 is zero in columns 1 and 3; every other row and the
        # objective have a nonzero in the pivot column 0, so a dense
        # update would rebuild all their entries.
        rows = [
            [F(2), F(0), F(1), F(0), F(4)],
            [F(1), F(3), F(0), F(5), F(6)],
            [F(3), F(1, 2), F(-1), F(7), F(1)],
        ]
        obj = [F(5), F(2, 3), F(1), F(-4), F(0)]
        before = [row[:] for row in rows + [obj]]
        lp_solver._pivot(rows, obj, [3, 4, 5], 0, 0)
        for row, old in zip(rows[1:] + [obj], before[1:]):
            assert all(row[j] is old[j] for j in (1, 3))
        assert rows[0] == [1, 0, F(1, 2), 0, 2]
        assert rows[1] == [0, 3, F(-1, 2), 5, 4]
        assert obj == [0, F(2, 3), F(-3, 2), -4, -10]

    @pytest.mark.parametrize("seed", range(8))
    def test_whole_solves_match_the_dense_update(self, monkeypatch, seed):
        # The goldens pin four general-mode games; these are 32 more,
        # solved by column generation and by the full matrix's LP.
        def solves():
            out = []
            for n in range(8, 12):
                spec = roadmap_game(seed, n)
                out.append(solve_location_game(spec, 3000))
                out.append(solve_zero_sum(build_matrix(spec, maximal_feasible_sets(spec))))
            return out

        sparse = solves()
        monkeypatch.setattr(lp_solver, "_pivot", dense_pivot)
        dense = solves()
        assert sparse == dense
        assert repr(sparse) == repr(dense)


class TestHiderUniqueness:
    def test_staircase_hider_is_unique(self):
        _, matrix = staircase_matrix()
        report = hider_uniqueness(matrix, F(3, 55))
        assert report.unique
        assert report.ranges == (
            (F(0), F(0)),
            (F(0), F(0)),
            (F(2, 11), F(2, 11)),
            (F(3, 11), F(3, 11)),
            (F(6, 11), F(6, 11)),
        )

    def test_identity_matrix_unique(self):
        report = hider_uniqueness([[1, 0], [0, 1]], F(1, 2))
        assert report.unique
        assert report.ranges == ((F(1, 2), F(1, 2)),) * 2

    def test_staircase_searcher_side_is_not_unique(self):
        rows, matrix = staircase_matrix()
        # The searcher's optimal set of the game is the hider's optimal
        # set of the negated transpose.
        report = hider_uniqueness(negated_transpose(matrix), -F(3, 55))
        assert not report.unique
        by_members = dict(zip((s.members for s in rows), report.ranges))
        assert by_members[(1, 3)][1] > 0
        assert by_members[(1, 3)][0] == 0

    def test_wrong_value_is_rejected(self):
        with pytest.raises(ValueError, match="exact game value 6/115"):
            hider_uniqueness(EXAMPLE_MATRIX, F(7, 115))
        with pytest.raises(ValueError, match="exact game value 6/115"):
            hider_uniqueness(EXAMPLE_MATRIX, F(5, 115))


class TestProbeSteps:
    """Which re-optimizations the probe runs after its one LP, and that
    it never calls ``solve_zero_sum``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The cost vector of every ``_reoptimize`` call, with
        ``solve_zero_sum`` made to fail."""
        calls = []
        real = lp_solver._reoptimize

        def counted(costs, rows, basis):
            calls.append(tuple(costs))
            return real(costs, rows, basis)

        def refuse(matrix):
            raise AssertionError("the probe called solve_zero_sum")

        monkeypatch.setattr(lp_solver, "_reoptimize", counted)
        monkeypatch.setattr(lp_solver, "solve_zero_sum", refuse)
        return calls

    @staticmethod
    def probe(matrix, value):
        expected = optimal_hider_ranges(matrix, value)
        report = hider_uniqueness(matrix, value)
        assert report.ranges == expected
        return report

    @pytest.mark.parametrize(
        "matrix, value",
        [(EXAMPLE_MATRIX, F(6, 115)), (staircase_matrix()[1], F(3, 55))],
        ids=["worked-example", "staircase"],
    )
    def test_unique_hider_needs_one_lp_and_the_maxima(self, calls, matrix, value):
        report = self.probe(matrix, value)
        assert report.unique
        n = len(report.ranges)
        assert calls[0] == (1,) * n
        assert len(calls) == 1 + n
        assert all(min(cost) >= 0 for cost in calls[1:])

    def test_minima_are_skipped_where_a_vertex_has_a_zero(self, calls):
        # Every maximum of a constant game is a pure strategy, whose other
        # coordinates are 0, so no minimum LP is needed.
        report = self.probe([[F(1, 3)] * 3] * 2, F(1, 3))
        assert not report.unique
        assert len(calls) == 1 + 3

    def test_skipped_and_solved_minima_together(self, calls):
        _, matrix = staircase_matrix()
        flipped = negated_transpose(matrix)
        report = self.probe(flipped, -F(3, 55))
        n = len(flipped[0])
        minima = len(calls) - 1 - n
        assert minima == sum(min(cost) < 0 for cost in calls)
        assert 0 < minima < n
        assert sum(lo > 0 for lo, _ in report.ranges) <= minima

    @pytest.mark.parametrize("claimed", [F(5, 115), F(7, 115)], ids=["low", "high"])
    def test_wrong_value_is_refused_from_the_lp(self, calls, claimed):
        with pytest.raises(
            ValueError, match=f"claimed value {claimed} is not the exact game value 6/115"
        ):
            hider_uniqueness(EXAMPLE_MATRIX, claimed)
        assert calls == [(1,) * 4]


class TestWarmProbeAgainstColdReference:
    """The probe against references that share no code with the simplex:
    the vertex enumeration of ``tests/support_enumeration.py`` and, on
    location games it settles, ``certified_ranges``."""

    def test_random_games(self):
        rng = random.Random(31)
        unique_flags = set()
        for _ in range(32):
            n = rng.randint(1, 8)
            times = tuple(rng.randint(1, 6) for _ in range(n))
            captures = tuple(F(rng.randint(1, 20), 20) for _ in range(n))
            spec = GameSpec(times, captures, rng.randint(0, sum(times)))
            matrix = build_matrix(spec, maximal_feasible_sets(spec))
            report = assert_probe_matches(matrix, certified_or_vertex_ranges(spec))
            unique_flags.add(report.unique)
        assert unique_flags == {True, False}

    def test_small_location_games(self):
        rng = random.Random(34)
        unique_flags = set()
        for _ in range(40):
            spec = random_game(rng, max_n=5)
            matrix = build_matrix(spec, maximal_feasible_sets(spec))
            unique_flags.add(assert_probe_matches(matrix).unique)
        assert unique_flags == {True, False}

    def test_random_matrices_and_their_negated_transposes(self):
        rng = random.Random(32)
        for _ in range(20):
            matrix = random_matrix(rng, max_dim=5)
            matrix = [[v - F(1, 2) for v in row] for row in matrix]
            assert_probe_matches(matrix)
            assert_probe_matches(negated_transpose(matrix))

    def test_duplicated_rows(self):
        rng = random.Random(33)
        for _ in range(10):
            matrix = random_matrix(rng, max_dim=4)
            doubled = matrix + [row[:] for row in matrix]
            report = assert_probe_matches(doubled)
            assert report == hider_uniqueness(matrix, solve_zero_sum(matrix).value)

    def test_negated_transpose_with_negative_value(self):
        _, matrix = staircase_matrix()
        flipped = negated_transpose(matrix)
        assert solve_zero_sum(flipped).value == -F(3, 55)
        assert not assert_probe_matches(flipped).unique

    def test_constant_matrix(self):
        report = assert_probe_matches([[F(1, 3)] * 3] * 2)
        assert report.ranges == ((F(0), F(1)),) * 3
        assert not report.unique

    def test_single_row_and_single_column(self):
        row = assert_probe_matches([[F(1, 2), F(1, 3), F(1, 4)]])
        assert row.ranges == ((F(0), F(0)), (F(0), F(0)), (F(1), F(1)))
        assert row.unique
        column = assert_probe_matches([[F(1, 2)], [F(1, 3)], [F(1, 4)]])
        assert column.ranges == ((F(1), F(1)),)
        assert column.unique


@settings(max_examples=60)
@given(small_games())
def test_probe_properties_on_random_games(spec):
    matrix = build_matrix(spec, maximal_feasible_sets(spec))
    sol = solve_zero_sum(matrix)
    report = assert_probe_matches(matrix, certified_or_vertex_ranges(spec))
    assert all(lo <= y <= hi for (lo, hi), y in zip(report.ranges, sol.col_strategy))
    for wrong in (sol.value - F(1, 1000), sol.value + F(1, 1000)):
        with pytest.raises(ValueError, match="not the exact game value"):
            hider_uniqueness(matrix, wrong)


def brute_best_set(spec, benefits):
    """The largest benefit total over every set within budget, by trying
    them all."""
    return max(
        sum((benefits[i - 1] for i in combo), F(0))
        for r in range(spec.n + 1)
        for combo in combinations(range(1, spec.n + 1), r)
        if sum((spec.times[i - 1] for i in combo), F(0)) <= spec.budget
    )


def full_matrix_answer(spec, sol):
    """The full matrix over every maximal set and ``sol``'s searcher as a
    weight per row of it."""
    rows = maximal_feasible_sets(spec)
    weights = dict(sol.searcher)
    return build_matrix(spec, rows), [weights.get(row, F(0)) for row in rows]


class TestLocationGame:
    def test_worked_example_settles_on_its_seeds(self):
        spec = GameSpec((5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4"), 7)
        sol = solve_location_game(spec, 3)
        assert sol.value == F(6, 115)
        assert sol.hider == (F(12, 23), F(0), F(8, 23), F(3, 23))
        assert [(s.members, w) for s, w in sol.searcher] == [
            ((1,), F(12, 23)), ((2, 3), F(8, 23)), ((4,), F(3, 23))
        ]
        message = "3 maximal feasible sets in the master LP, more than 2"
        with pytest.raises(InstanceTooLarge, match=message):
            solve_location_game(spec, 2)

    def test_budget_below_every_search_time(self):
        spec = GameSpec((3, 4, 5), ("1/2", "1/3", "1/4"), 2)
        sol = solve_location_game(spec, 10)
        assert sol.value == 0
        assert [(s.members, w) for s, w in sol.searcher] == [((), F(1))]
        assert sum(sol.hider) == 1

    def test_budget_that_holds_every_location(self):
        spec = GameSpec((1, 2, 3), ("1/2", "1/5", "1/3"), 6)
        sol = solve_location_game(spec, 10)
        assert sol.value == F(1, 5)
        assert sol.hider == (F(0), F(1), F(0))
        assert [(s.members, w) for s, w in sol.searcher] == [((1, 2, 3), F(1))]

    def test_location_no_feasible_set_can_hold(self):
        # Location 3 takes longer than the budget: the hider goes there.
        spec = GameSpec((1, 2, 9), ("1/2", "1/5", "1/3"), 4)
        sol = solve_location_game(spec, 10)
        assert sol.value == 0
        assert sol.hider == (F(0), F(0), F(1))
        matrix, searcher = full_matrix_answer(spec, sol)
        assert verify_equilibrium(matrix, sol.hider, searcher, sol.value).ok

    def test_searcher_lists_its_support_sorted_by_members(self):
        for seed, n in ((0, 8), (7, 8), (0, 9), (1, 9), (3, 12)):
            sol = solve_location_game(roadmap_game(seed, n), 3000)
            sets = [s for s, _ in sol.searcher]
            assert sets == sorted(sets)
            assert all(w > 0 for _, w in sol.searcher)
            assert sum(w for _, w in sol.searcher) == 1

    def test_seeds_are_filled_and_taken_once(self):
        # {1, 2, 3} is the only maximal set at budget 6; each seed fills
        # to it, so the master holds one set and passes a cap of one.
        spec = GameSpec((1, 2, 3), ("1/2", "1/5", "1/3"), 6)
        sol = solve_location_game(spec, 1, seeds=[(1,), (2,), (3, 1)])
        assert sol == solve_location_game(spec)
        assert [(s.members, w) for s, w in sol.searcher] == [((1, 2, 3), F(1))]

    def test_seeds_start_the_master(self):
        # Budget 5 of the worked example: cold, the master starts from
        # {1}, {2} and {3}; seeded with {2}, it still prices in {1} and
        # {3}, and settles on another optimal searcher.
        spec = GameSpec((5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4"), 5)
        cold, warm = solve_location_game(spec), solve_location_game(spec, seeds=[(2,)])
        assert (cold.value, cold.hider) == (warm.value, warm.hider) == (0, (0, 0, 0, 1))
        assert [s.members for s, _ in cold.searcher] == [(1,)]
        assert [s.members for s, _ in warm.searcher] == [(2,)]

    @pytest.mark.parametrize("seed", [(1, 2), (4,), (5,), (0,)])
    def test_seed_outside_the_game_is_refused(self, seed):
        # {1, 2} takes 8 and {4} takes 7 of a budget of 6; 5 and 0 name
        # no location.
        spec = GameSpec((5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4"), 6)
        with pytest.raises(ValueError, match="is not a feasible set of the game"):
            solve_location_game(spec, seeds=[(3,), seed])

    def test_roadmap_games_match_the_full_lp(self):
        for seed in range(4):
            for n in (10, 11):
                spec = roadmap_game(seed, n)
                sol = solve_location_game(spec, 3000)
                matrix, searcher = full_matrix_answer(spec, sol)
                assert sol.value == solve_zero_sum(matrix).value
                assert verify_equilibrium(matrix, sol.hider, searcher, sol.value).ok


@settings(max_examples=80)
@given(rational_games(max_n=8))
def test_column_generation_matches_the_full_lp(spec):
    sol = solve_location_game(spec, 3000)
    matrix, searcher = full_matrix_answer(spec, sol)
    assert sol.value == solve_zero_sum(matrix).value
    assert verify_equilibrium(matrix, sol.hider, searcher, sol.value).ok


@settings(max_examples=100)
@given(st.one_of(small_games(), rational_games()))
def test_master_slack_sums_are_the_right_hand_sides(spec):
    # A new master column reads each row's slack sum off its last entry
    # (every right-hand side is 1), and the pricing test reads -sum(pi)
    # off the objective's. Both must hold after every re-optimization.
    optimize = lp_solver._optimize
    runs = []

    def checked(rows, obj, basis, width):
        optimize(rows, obj, basis, width)
        for row in rows + [obj]:
            assert sum(row[: len(rows)]) == row[-1]
        runs.append(width)

    with mock.patch.object(lp_solver, "_optimize", checked):
        solve_location_game(spec)
    assert runs


# Column generation's exact answers for roadmap_game(s, n), s = 0..7 and
# n = 8..13. The CLI goldens pin only four general-mode games; a change
# to the master's columns, pivots or pricing that moves any answer
# shows here.
PINNED_ANSWERS = json.loads(
    Path(__file__).with_name("golden").joinpath("location_games.json").read_text("utf-8")
)


@pytest.mark.parametrize(
    "case", PINNED_ANSWERS, ids=lambda case: f"roadmap-{case['seed']}-{case['n']}"
)
def test_column_generation_answers_are_pinned(case):
    sol = solve_location_game(roadmap_game(case["seed"], case["n"]))
    assert str(sol.value) == case["value"]
    assert [str(h) for h in sol.hider] == case["hider"]
    assert [[str(s), str(w)] for s, w in sol.searcher] == case["searcher"]


@settings(max_examples=100)
@given(rational_games(), st.data())
def test_pricer_finds_the_best_feasible_set(spec, data):
    benefits = [
        F(data.draw(st.integers(0, 6)), data.draw(st.integers(1, 4))) for _ in range(spec.n)
    ]
    gain, members = lp_solver._best_set(spec, benefits)
    assert gain == brute_best_set(spec, benefits)
    assert members == tuple(sorted(set(members)))
    assert sum((spec.times[i - 1] for i in members), F(0)) <= spec.budget
    assert sum((benefits[i - 1] for i in members), F(0)) == gain


@settings(max_examples=100)
@given(rational_games(max_n=8), st.data())
def test_certificate_knapsack_names_a_set_that_pays_its_maximum(spec, data):
    hider = [F(data.draw(st.integers(0, 5)), 5) for _ in range(spec.n)]
    benefits = [p * h for p, h in zip(spec.captures, hider)]
    payoff, members = max_payoff(spec, hider)
    assert payoff == brute_best_set(spec, benefits)
    assert members == tuple(sorted(set(members)))
    assert all(1 <= i <= spec.n for i in members)
    assert sum((spec.times[i - 1] for i in members), F(0)) <= spec.budget
    assert sum((benefits[i - 1] for i in members), F(0)) == payoff


@settings(max_examples=100)
@given(rational_games(max_n=8))
def test_generated_probe_matches_the_full_matrix(spec):
    sol = solve_location_game(spec, 3000)
    matrix = build_matrix(spec, maximal_feasible_sets(spec))
    assert location_uniqueness(spec, sol, 3000) == hider_uniqueness(matrix, sol.value)


def test_generated_probe_is_capped():
    # Budget 5 of the worked example: column generation's searcher plays
    # {1} alone, and the probe adds {2} and {3}, the other maximal sets.
    spec = GameSpec((5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4"), 5)
    sol = solve_location_game(spec, 3)
    assert [s.members for s, _ in sol.searcher] == [(1,)]
    assert location_uniqueness(spec, sol, 3).unique
    message = "3 maximal feasible sets in the uniqueness probe, more than 2"
    with pytest.raises(InstanceTooLarge, match=message):
        location_uniqueness(spec, sol, 2)
