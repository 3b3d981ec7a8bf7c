import ast
import random
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (
    random_game,
    random_matrix,
    rational_games,
    roadmap_game,
    small_games,
)
from searchpursuit import GameSpec, game_core, lp_solver, oracle
from searchpursuit.cli import sweep_budget
from searchpursuit.closed_forms import (
    TwoTypeSpec,
    expand_two_type,
    solve_arithmetic_times,
    solve_constant_times,
    solve_two_type,
)
from searchpursuit.game_core import build_matrix, maximal_feasible_sets
from searchpursuit.lp_solver import hider_uniqueness, solve_zero_sum
from searchpursuit.oracle import (
    CertificateFailure,
    MonotonicityError,
    certified_ranges,
    check_nondecreasing,
    location_certificate,
    verify_equilibrium,
)
from support_enumeration import support_enumeration_solve

EXAMPLE_MATRIX = [
    ["0.1", 0, 0, 0],
    [0, 0, 0, "0.4"],
    [0, "0.2", "0.15", 0],
]
EXAMPLE_HIDER = (F(12, 23), 0, F(8, 23), F(3, 23))
EXAMPLE_SEARCHER = (F(12, 23), F(3, 23), F(8, 23))
STAIRCASE = ((1, 2, 3, 4, 5), ("0.5", "0.4", "0.3", "0.2", "0.1"))
# The worked example as a location game, with its searcher mix over the
# rows of EXAMPLE_MATRIX: {1}, {4} and {2, 3}.
EXAMPLE_SPEC = GameSpec((5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4"), 7)
EXAMPLE_MIX = tuple(zip([(1,), (4,), (2, 3)], EXAMPLE_SEARCHER))


def unique(*args):
    """``certified_ranges`` proves the hider unique: every coordinate's
    range is a single value. False proves nothing either way."""
    ranges = certified_ranges(*args)
    return ranges is not None and all(lo == hi for lo, hi in ranges)


def answers(spec):
    """Two optimal (hider, mix, value) triples of ``spec``: column
    generation's, and the full LP's with its mix over every row."""
    sol = lp_solver.solve_location_game(spec, lp_solver.DEFAULT_MAX_ROWS)
    yield sol.hider, [(s.members, w) for s, w in sol.searcher], sol.value
    rows = maximal_feasible_sets(spec)
    lp = solve_zero_sum(build_matrix(spec, rows))
    yield lp.col_strategy, [(s.members, w) for s, w in zip(rows, lp.row_strategy)], lp.value


def full_matrix_probe(spec, value):
    """The reference ranges: ``hider_uniqueness`` on the full matrix."""
    return hider_uniqueness(build_matrix(spec, maximal_feasible_sets(spec)), value)


def assert_full_matrix_entries(spec, entries):
    """Each sweep entry's value, uniqueness flag and ranges are the full
    LP's and the probe's on the full matrix at its budget, and a unique
    hider is the full LP's."""
    for entry in entries:
        budget_spec = GameSpec(spec.times, spec.captures, entry.budget)
        matrix = build_matrix(budget_spec, maximal_feasible_sets(budget_spec))
        sol = solve_zero_sum(matrix)
        report = hider_uniqueness(matrix, sol.value)
        assert (entry.value, entry.unique) == (sol.value, report.unique)
        assert entry.hider_ranges == report.ranges
        if entry.unique:
            assert entry.hider == sol.col_strategy


def refuse_listing(*args):
    raise AssertionError("maximal sets listed")


def assert_certificate_implies_probe(spec):
    """Run both uniqueness tests on each answer of ``answers``; whenever
    the certificate gives ranges, the probe on the full matrix must give
    the same ones. Returns the certificate's uniqueness verdict on
    column generation's answer."""
    verdicts = []
    for hider, mix, value in answers(spec):
        args = (spec, hider, mix, value)
        ranges, certified = certified_ranges(*args), unique(*args)
        if ranges is not None:
            report = full_matrix_probe(spec, value)
            assert report.ranges == ranges
            assert report.unique == certified
        if certified:
            assert ranges == tuple((h, h) for h in hider)
        verdicts.append(certified)
    return verdicts[0]


class TestVerifyEquilibrium:
    def test_example_solution_certifies(self):
        cert = verify_equilibrium(
            EXAMPLE_MATRIX, EXAMPLE_HIDER, EXAMPLE_SEARCHER, F(6, 115)
        )
        assert cert.ok
        # Every row is in the searcher's support and equalized; among the
        # columns only the unplayed location 2 is strictly over-covered.
        assert cert.hider_slack == (0, 0, 0)
        assert cert.searcher_slack == (0, F(2, 115), 0, 0)

    def test_point_mass_pair_fails_on_uncovered_columns(self):
        cert = verify_equilibrium(
            EXAMPLE_MATRIX, (1, 0, 0, 0), (1, 0, 0), F(1, 10)
        )
        assert not cert.ok
        assert all(s >= 0 for s in cert.hider_slack)
        assert cert.searcher_slack[0] == 0
        assert all(s == -F(1, 10) for s in cert.searcher_slack[1:])

    def test_two_type_expansion_certifies_closed_form(self):
        spec = TwoTypeSpec(4, 2, 2, F(3, 10), F(1, 5), 4)
        closed = solve_two_type(spec)
        expanded = expand_two_type(spec)
        rows = maximal_feasible_sets(expanded)
        matrix = build_matrix(expanded, rows)
        lp = solve_zero_sum(matrix)
        hider = (closed.type1_mass / 4,) * 4 + ((1 - closed.type1_mass) / 2,) * 2
        cert = verify_equilibrium(matrix, hider, lp.row_strategy, F(3, 25))
        assert cert.ok

    def test_tampered_value_fails(self):
        cert = verify_equilibrium(
            EXAMPLE_MATRIX, EXAMPLE_HIDER, EXAMPLE_SEARCHER, F(7, 115)
        )
        assert not cert.ok
        assert min(cert.searcher_slack) < 0

    def test_dimension_and_distribution_checks(self):
        with pytest.raises(ValueError):
            verify_equilibrium(EXAMPLE_MATRIX, (1, 0, 0), EXAMPLE_SEARCHER, F(1))
        with pytest.raises(ValueError):
            verify_equilibrium(
                EXAMPLE_MATRIX, (F(1, 2), F(1, 2), 0, 0), (1, 0), F(1)
            )
        with pytest.raises(ValueError):
            verify_equilibrium(
                EXAMPLE_MATRIX, (F(1, 2), F(1, 4), 0, 0), EXAMPLE_SEARCHER, F(1)
            )


def dense_slacks(matrix, hider, searcher, value):
    """The certificate's slacks summed over every cell."""
    m, n = len(matrix), len(matrix[0])
    hider_slack = tuple(
        value - sum(matrix[i][j] * hider[j] for j in range(n)) for i in range(m)
    )
    searcher_slack = tuple(
        sum(searcher[i] * matrix[i][j] for i in range(m)) - value for j in range(n)
    )
    return hider_slack, searcher_slack


def random_mix(rng, size):
    """A distribution with some zero weights."""
    weights = [rng.randint(0, 3) for _ in range(size)]
    weights[rng.randrange(size)] += 1
    return tuple(F(w, sum(weights)) for w in weights)


class TestSparseCertificate:
    def test_slacks_equal_the_dense_formula(self):
        rng = random.Random(8)
        for k in range(300):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            matrix = [
                [F(rng.randint(-6, 6), rng.randint(1, 5)) * rng.randrange(2)
                 for _ in range(n)]
                for _ in range(m)
            ]
            matrix[rng.randrange(m)] = [F(0)] * n
            zero_column = rng.randrange(n)
            for row in matrix:
                row[zero_column] = F(0)
            if k % 2:
                sol = solve_zero_sum(matrix)
                hider, searcher, value = sol.col_strategy, sol.row_strategy, sol.value
            else:
                hider, searcher = random_mix(rng, n), random_mix(rng, m)
                value = F(rng.randint(-5, 5), rng.randint(1, 7))
            cert = verify_equilibrium(matrix, hider, searcher, value)
            hider_slack, searcher_slack = dense_slacks(matrix, hider, searcher, value)
            assert cert.hider_slack == hider_slack
            assert cert.searcher_slack == searcher_slack
            assert all(type(x) is F for x in cert.hider_slack + cert.searcher_slack)
            assert cert.ok == (min(hider_slack + searcher_slack) >= 0)
            if k % 2:
                assert cert.ok


SOURCES = Path(oracle.__file__).parent


def package_imports(path: Path) -> set[str]:
    """The package modules that the file at ``path`` imports, by short
    name, and those they import in turn; importing a name from the
    package itself counts as importing ``__init__``."""
    seen: set[str] = set()
    todo = [path]
    while todo:
        tree = ast.parse(todo.pop().read_text(encoding="utf-8"))
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = "searchpursuit" * (node.level > 0)
                module = ".".join(filter(None, [module, node.module]))
                targets = [(module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in targets:
                if module.startswith("searchpursuit."):
                    found.add(module.split(".")[1])
                elif module == "searchpursuit":
                    is_module = name and (SOURCES / f"{name}.py").exists()
                    found.add(name if is_module else "__init__")
        for name in found - seen:
            seen.add(name)
            todo.append(SOURCES / f"{name}.py")
    return seen


class TestCheckersImportNoSolver:
    """The checkers, the tests' references and the learning game's closed
    form reach no simplex code through any chain of imports."""

    @pytest.mark.parametrize(
        "path",
        [
            SOURCES / "oracle.py",
            Path(__file__).with_name("support_enumeration.py"),
            SOURCES / "learning.py",
        ],
        ids=["oracle", "support_enumeration", "learning"],
    )
    def test_no_solver_is_imported(self, path):
        assert package_imports(path).isdisjoint({"lp_solver", "closed_forms"})

    def test_the_walk_finds_the_solver(self):
        assert {"lp_solver", "closed_forms", "oracle"} <= package_imports(SOURCES / "cli.py")
        assert "lp_solver" in package_imports(Path(__file__).with_name("test_lp_solver.py"))


class TestSupportEnumeration:
    def test_example_game(self):
        assert support_enumeration_solve(EXAMPLE_MATRIX).value == F(6, 115)

    def test_identity(self):
        sol = support_enumeration_solve([[1, 0], [0, 1]])
        assert sol.value == F(1, 2)

    def test_staircase(self):
        spec = GameSpec((1, 2, 3, 4, 5), ("0.5", "0.4", "0.3", "0.2", "0.1"), 5)
        matrix = build_matrix(spec, maximal_feasible_sets(spec))
        assert support_enumeration_solve(matrix).value == F(3, 55)

    def test_returned_pair_is_an_equilibrium(self):
        rng = random.Random(51)
        for _ in range(25):
            matrix = random_matrix(rng, max_dim=5)
            sol = support_enumeration_solve(matrix)
            cert = verify_equilibrium(
                matrix, sol.col_strategy, sol.row_strategy, sol.value
            )
            assert cert.ok

    def test_agrees_with_lp_solver(self):
        rng = random.Random(52)
        for _ in range(50):
            matrix = random_matrix(rng)
            assert (
                support_enumeration_solve(matrix).value
                == solve_zero_sum(matrix).value
            )

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            support_enumeration_solve([[F(1, 2)] * 7] * 2)
        with pytest.raises(ValueError):
            support_enumeration_solve([[F(1, 2)] * 2] * 7)


class TestSweep:
    def test_staircase_table(self):
        entries = sweep_budget(
            (1, 2, 3, 4, 5), ("0.5", "0.4", "0.3", "0.2", "0.1"), range(5, 11)
        )
        values = [e.value for e in entries]
        assert values == [
            F(3, 55), F(3, 55), F(1, 15), F(1, 15), F(18, 185), F(1, 10),
        ]
        assert [e.unique for e in entries] == [True] * 6

    def test_value_settles_once_the_floor_is_reached(self):
        entries = sweep_budget(
            (1, 2, 3, 4, 5), ("0.5", "0.4", "0.3", "0.2", "0.1"), (10, 11, 12, 15)
        )
        assert all(e.value == F(1, 10) for e in entries)
        assert all(e.hider == (0, 0, 0, 0, 1) for e in entries)

    def test_single_location_family(self):
        entries = sweep_budget((1,), ("0.4",), (0, 1))
        assert [e.value for e in entries] == [F(0), F(2, 5)]

    @pytest.mark.parametrize("n, k_to", [(26, 31), (30, 25)])
    def test_oversized_sweep_is_refused_before_any_solve(self, monkeypatch, n, k_to):
        # Only the last budget is over the default cap, so a check at each
        # budget would solve every smaller one first.
        def refuse(*args):
            raise AssertionError("a budget was solved")

        monkeypatch.setattr(lp_solver, "solve_location_game", refuse)
        spec = roadmap_game(0, n)
        started = time.perf_counter()
        with pytest.raises(game_core.InstanceTooLarge) as exc:
            sweep_budget(spec.times, spec.captures, range(k_to + 1))
        assert time.perf_counter() - started < 1
        assert str(exc.value) == (
            "more than 4194304 feasible sets (--max-subsets); "
            "instance too large for exhaustive enumeration"
        )
        game_core.check_size(replace(spec, budget=k_to - 1))

    def test_budgets_are_sorted_and_deduplicated(self):
        entries = sweep_budget((1, 2), ("0.5", "0.25"), (3, 0, 3, 1))
        assert [e.budget for e in entries] == [0, 1, 3]

    def test_check_nondecreasing(self):
        check_nondecreasing([1, 2, 3], [F(1, 5), F(1, 5), F(1, 2)])
        check_nondecreasing([4], [F(1)])
        check_nondecreasing([], [])
        with pytest.raises(MonotonicityError, match="from 1/2 to 1/3 at budget 3"):
            check_nondecreasing([1, 2, 3], [F(1, 5), F(1, 2), F(1, 3)])

    def test_closed_forms_pass_the_slack_certificate(self):
        # Staircase: map the closed-form searcher mix onto the pruned rows.
        captures = ("0.5", "0.4", "0.3", "0.2", "0.1")
        closed = solve_arithmetic_times(captures)
        spec = GameSpec((1, 2, 3, 4, 5), captures, 5)
        rows = maximal_feasible_sets(spec)
        matrix = build_matrix(spec, rows)
        searcher = [F(0)] * len(rows)
        index = {s.members: i for i, s in enumerate(rows)}
        for s, w in closed.searcher_mix:
            searcher[index[s.members]] = w
        cert = verify_equilibrium(matrix, closed.hider.probs, searcher, closed.value)
        assert cert.ok
        # Constant times: closed-form hider with the LP searcher.
        const = solve_constant_times(("0.2", "0.3", "0.5"), 1)
        cspec = GameSpec((1, 1, 1), ("0.2", "0.3", "0.5"), 1)
        crows = maximal_feasible_sets(cspec)
        cmatrix = build_matrix(cspec, crows)
        lp = solve_zero_sum(cmatrix)
        ccert = verify_equilibrium(
            cmatrix, const.hider.probs, lp.row_strategy, const.value
        )
        assert ccert.ok


def fraction_reduce(system, width, nullity=0):
    """The reference for ``oracle._reduce``: Gauss-Jordan elimination in
    Fractions, each pivot row divided by its leading entry as soon as it
    is chosen."""
    rows = [row[:] for row in system]
    pivots = []
    for col in range(width):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            if col - top >= nullity:
                return None
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        lead = rows[top][col]
        rows[top] = [v / lead for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


@st.composite
def linear_systems(draw):
    """An augmented system over ``width`` columns with zero rows,
    duplicate rows and rows summed from others, so every rank occurs;
    consistent (its right-hand side is A x) when the flag says so.
    Returns ``(system, width, nullity, consistent)``."""
    width = draw(st.integers(1, 5))
    entry = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
    nonzero = st.builds(F, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4))
    consistent = draw(st.booleans())
    x = [draw(entry) for _ in range(width)]
    base = []
    for _ in range(draw(st.integers(1, width + 1))):
        row = [draw(entry) for _ in range(width)]
        b = sum(a * xj for a, xj in zip(row, x)) if consistent else draw(entry)
        base.append(row + [b])
    extra = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "duplicate", "scaled", "sum"]))
        u, w = (draw(st.sampled_from(base)) for _ in range(2))
        c = draw(nonzero)
        extra.append({
            "zero": [F(0)] * (width + 1),
            "duplicate": u[:],
            "scaled": [c * a for a in u],
            "sum": [a + c * b for a, b in zip(u, w)],
        }[kind])
    system = draw(st.permutations(base + extra))
    return system, width, draw(st.integers(0, width)), consistent


class TestFractionFreeReduce:
    @settings(max_examples=400)
    @given(linear_systems())
    def test_matches_fraction_elimination(self, case):
        system, width, nullity, consistent = case
        before = [row[:] for row in system]
        got = oracle._reduce(system, width, nullity)
        ref = fraction_reduce(system, width, nullity)
        assert system == before
        if ref is None:
            event(f"more than {nullity} columns without a pivot")
            assert got is None
            return
        (rows, pivots), (ref_rows, ref_pivots) = got, ref
        event(f"{width - len(pivots)} columns without a pivot")
        assert all(type(v) is F for row in rows for v in row)
        assert pivots == ref_pivots
        assert rows[: len(pivots)] == ref_rows[: len(pivots)]
        # A row past the pivots is zero over the first width columns; its
        # right-hand side is a nonzero multiple of the reference's.
        for row, ref_row in zip(rows[len(pivots):], ref_rows[len(pivots):]):
            assert row[:width] == ref_row[:width] == [0] * width
            assert (row[-1] == 0) == (ref_row[-1] == 0)
        if consistent:
            assert got == ref

    def test_pivot_rows_end_with_a_leading_one(self):
        system = [
            [F(0), F(2), F(4)],
            [F(0), F(0), F(0)],
            [F(3), F(1), F(2)],
            [F(3), F(3), F(6)],
        ]
        rows, pivots = oracle._reduce(system, 2)
        assert pivots == [0, 1]
        assert rows == [[1, 0, 0], [0, 1, 2], [0, 0, 0], [0, 0, 0]]
        assert oracle._reduce(system[:2], 2) is None
        assert oracle._reduce(system[:2], 2, nullity=1) == ([[0, 1, 2], [0, 0, 0]], [1])


def assert_warm_sweep_matches_cold(spec, budgets):
    """Each budget's master starts from the previous budget's support.
    Every warm answer must pass the certificate, and each entry must
    have the cold solve's value and ranges, and its hider where that is
    unique. Returns the budgets whose hider differs from the cold one."""
    entries = sweep_budget(spec.times, spec.captures, budgets)
    seeds, moved = (), []
    for entry in entries:
        budget_spec = GameSpec(spec.times, spec.captures, entry.budget)
        warm = lp_solver.solve_location_game(budget_spec, seeds=seeds)
        mix = [(s.members, w) for s, w in warm.searcher]
        assert location_certificate(budget_spec, warm.hider, mix, warm.value) is None
        assert (entry.value, entry.hider) == (warm.value, warm.hider)
        cold = lp_solver.solve_location_game(budget_spec)
        ranges = lp_solver.location_uniqueness(budget_spec, cold).ranges
        unique = all(lo == hi for lo, hi in ranges)
        assert (entry.value, entry.unique, entry.hider_ranges) == (cold.value, unique, ranges)
        if entry.hider != cold.hider:
            assert not unique
            moved.append(entry.budget)
        seeds = [s for s, _ in mix]
    return moved


@settings(max_examples=60)
@given(st.one_of(small_games(), rational_games()), st.data())
def test_warm_started_sweep_matches_cold_solves(spec, data):
    steps = data.draw(st.lists(st.integers(0, 24), min_size=2, max_size=5, unique=True))
    budgets = [sum(spec.times) * F(j, 24) for j in sorted(steps)]
    moved = assert_warm_sweep_matches_cold(spec, budgets)
    event("a hider moved" if moved else "every hider as cold")


def test_warm_start_can_move_a_hider_that_is_not_unique():
    # At budget 10, y_4 and y_5 (equal locations) trade 15/43: the cold
    # solve hides at 5, the warm start from budget 9's support at 4.
    spec = roadmap_game(28, 8)
    assert assert_warm_sweep_matches_cold(spec, (8, 9, 10)) == [10]
    assert sweep_budget(spec.times, spec.captures, (8, 9, 10))[-1].hider == (
        0, F(7, 43), 0, F(15, 43), 0, F(21, 43), 0, 0
    )


class TestCertifyUnique:
    def test_worked_example_is_certified(self):
        # Rank n: location 2 is covered above the value, and the three
        # played sets fix the other three coordinates.
        assert certified_ranges(EXAMPLE_SPEC, EXAMPLE_HIDER, EXAMPLE_MIX, F(6, 115)) == tuple(
            (h, h) for h in EXAMPLE_HIDER
        )
        # Inputs in any form parse_rational takes.
        mix = [((1,), "12/23"), ((4,), "3/23"), ((3, 2), "8/23")]
        assert unique(EXAMPLE_SPEC, ("12/23", 0, "8/23", "3/23"), mix, "6/115")

    def test_failed_equilibrium_proves_nothing(self):
        # A failed certificate raises, naming what failed, so that it is
        # told apart from a rank the test cannot settle (None).
        # An optimal hider with a searcher mix that is not optimal, last.
        mix = [((1,), F(1, 3)), ((4,), F(1, 3)), ((2, 3), F(1, 3))]
        for hider, searcher, value, failed in (
            (EXAMPLE_HIDER, EXAMPLE_MIX, F(7, 115), "column 1"),
            (EXAMPLE_HIDER, EXAMPLE_MIX, F(5, 115), "row {2,3}"),
            ((F(1, 4),) * 4, EXAMPLE_MIX, F(6, 115), "row {4}"),
            (EXAMPLE_HIDER, mix, F(6, 115), "column 1"),
        ):
            with pytest.raises(CertificateFailure) as failure:
                certified_ranges(EXAMPLE_SPEC, hider, searcher, value)
            assert str(failure.value) == failed

    def test_rank_deficient_system_proves_nothing(self):
        # One set holds all three locations at equal captures: every
        # hider is optimal.
        spec = GameSpec((2, 1, 3), ("1/10",) * 3, 6)
        assert not unique(spec, (1, 0, 0), [((1, 2, 3), 1)], F(1, 10))
        assert not assert_certificate_implies_probe(spec)
        assert not full_matrix_probe(spec, F(1, 10)).unique

    def test_rank_one_below_full_gives_the_segment(self):
        # One set covering both locations: every hider mix is optimal.
        spec = GameSpec((3, 2), ("4/5", "4/5"), 5)
        args = (spec, (F(1, 3), F(2, 3)), [((1, 2), 1)], F(4, 5))
        assert certified_ranges(*args) == ((0, 1), (0, 1))
        assert not unique(*args)
        # A segment cut short by an unplayed set's payoff: the searcher
        # plays {1, 2} and {2, 3}, and {1, 3} caps y_1 + y_3 at 1/2.
        spec = GameSpec((2, 3, 4), ("3/5", "3/10", "3/5"), 8)
        mix = [((1, 2), F(1, 2)), ((2, 3), F(1, 2))]
        ranges = ((0, F(1, 4)), (F(1, 2), 1), (0, F(1, 4)))
        assert certified_ranges(spec, (F(1, 4), F(1, 2), F(1, 4)), mix, F(3, 10)) == ranges
        assert certified_ranges(spec, (0, 1, 0), mix, F(3, 10)) == ranges
        assert full_matrix_probe(spec, F(3, 10)).ranges == ranges

    def test_segment_cut_to_a_point(self):
        # One null direction, y_3 against y_1 and y_2; once y_3 drops
        # below 1 the unplayed set {1, 2, 3} pays more than the value, so
        # the hider is unique.
        spec = GameSpec((2, 4, 2, 1), ("1/5", "1/5", "1/10", "1"), 8)
        mix = [((1, 3, 4), F(1, 2)), ((2, 3, 4), F(1, 2))]
        ranges = ((0, 0), (0, 0), (1, 1), (0, 0))
        assert certified_ranges(spec, (0, 0, 1, 0), mix, F(1, 10)) == ranges
        assert full_matrix_probe(spec, F(1, 10)).ranges == ranges

    def test_lower_rank_gives_nothing(self):
        # Value 0 with {1} played: location 1 is covered above the value
        # and drops out, and {1} holds none of the other three, so their
        # system has nullity 2.
        spec = GameSpec((1, 4, 2, 4), ("4/5", "3/10", "3/5", "3/5"), 2)
        assert certified_ranges(spec, (0, 1, 0, 0), [((1,), 1)], 0) is None
        # Budgets 5 and 6 of the worked example leave two null directions.
        for budget in (5, 6):
            spec = GameSpec(EXAMPLE_SPEC.times, EXAMPLE_SPEC.captures, budget)
            hider, mix, value = next(answers(spec))
            assert certified_ranges(spec, hider, mix, value) is None

    def test_single_location_and_single_set(self):
        assert unique(GameSpec((4,), ("2/5",), 4), (1,), [((1,), 1)], F(2, 5))
        spec = GameSpec((1, 3), ("1/5", "1"), 4)
        assert unique(spec, (1, 0), [((1, 2), 1)], F(1, 5))

    def test_needs_no_simplex(self, monkeypatch):
        spec = GameSpec(*STAIRCASE, 5)
        hider, mix, value = next(answers(spec))

        def refuse(*args):
            raise AssertionError("simplex code or the matrix called")

        for module, name in (
            (lp_solver, "solve_zero_sum"),
            (lp_solver, "_pivot"),
            (lp_solver, "_best_set"),
            (game_core, "build_matrix"),
            (game_core, "maximal_feasible_sets"),
            (oracle, "verify_equilibrium"),
        ):
            monkeypatch.setattr(module, name, refuse)
        assert unique(spec, hider, mix, value)
        assert unique(EXAMPLE_SPEC, EXAMPLE_HIDER, EXAMPLE_MIX, F(6, 115))
        segment = GameSpec((2, 3, 4), ("3/5", "3/10", "3/5"), 8)
        mix = [((1, 2), F(1, 2)), ((2, 3), F(1, 2))]
        assert certified_ranges(segment, (0, 1, 0), mix, F(3, 10))[1] == (F(1, 2), 1)

    def test_random_location_games(self):
        rng = random.Random(61)
        verdicts = set()
        for _ in range(30):
            verdicts.add(assert_certificate_implies_probe(random_game(rng, max_n=5)))
        assert verdicts == {True, False}


@settings(max_examples=60)
@given(small_games())
def test_certificate_implies_the_probe_on_random_games(spec):
    assert_certificate_implies_probe(spec)


class TestSweepShortcut:
    """Which sweep entries run the probe; no sweep lists the maximal sets."""

    @staticmethod
    def record(monkeypatch):
        """Wrap both range tests; returns, per certificate call, whether it
        gave ranges and, per probe call, how many certificate calls
        preceded it."""
        verdicts, probes = [], []
        real_ranges, real_probe = oracle.certified_ranges, lp_solver.location_uniqueness

        def ranges(*args):
            found = real_ranges(*args)
            verdicts.append(found is not None)
            return found

        def probe(*args):
            probes.append(len(verdicts))
            return real_probe(*args)

        monkeypatch.setattr(oracle, "certified_ranges", ranges)
        monkeypatch.setattr(lp_solver, "location_uniqueness", probe)
        return verdicts, probes

    @staticmethod
    def probed(monkeypatch, times, captures, budgets):
        """The sweep with every entry's ranges from the probe."""
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "certified_ranges", lambda *args: None)
            return sweep_budget(times, captures, budgets)

    def test_worked_example_budgets(self, monkeypatch):
        times, captures = (5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4")
        probed = self.probed(monkeypatch, times, captures, range(13))
        verdicts, probes = self.record(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(game_core, "maximal_feasible_sets", refuse_listing)
            entries = sweep_budget(times, captures, range(13))
        assert entries == probed
        # Budgets 0 to 6 leave two null directions or more.
        assert verdicts == [False] * 7 + [True] * 6
        # The probe runs right after each failed certificate, and only then.
        assert probes == [1, 2, 3, 4, 5, 6, 7]
        assert_full_matrix_entries(GameSpec(times, captures, 0), entries)

    def test_roadmap_sweeps_list_no_maximal_sets(self, monkeypatch):
        for seed in range(10):
            for n in range(5, 10):
                spec = roadmap_game(seed, n)
                k = spec.budget
                with monkeypatch.context() as patch:
                    patch.setattr(game_core, "maximal_feasible_sets", refuse_listing)
                    entries = sweep_budget(spec.times, spec.captures, (k - 1, k, k + 1))
                assert_full_matrix_entries(spec, entries)

    @pytest.mark.parametrize(
        "seed, budgets, unique",
        [
            # A segment of optimal hiders: y_4 and y_5 trade 15/43.
            (28, (8, 9, 10), [True, True, False]),
            # One null direction that y >= 0 and My <= v cut to a point.
            (38, (9, 10, 11), [True, True, True]),
        ],
    )
    def test_one_null_direction_needs_no_probe(self, monkeypatch, seed, budgets, unique):
        spec = roadmap_game(seed, 8)
        probed = self.probed(monkeypatch, spec.times, spec.captures, budgets)
        verdicts, probes = self.record(monkeypatch)
        entries = sweep_budget(spec.times, spec.captures, budgets)
        assert (verdicts, probes) == ([True] * 3, [])
        assert entries == probed
        assert [e.unique for e in entries] == unique

    def test_settled_entries_build_no_matrix(self, monkeypatch):
        # Budgets 5 and 6 of the worked example need the probe, 7 to 10
        # do not. The probe's matrices hold generated maximal sets only;
        # no budget lists the maximal sets, runs the full LP or its
        # certificate.
        def refuse(*args):
            raise AssertionError("full-matrix path called")

        for module, name in (
            (lp_solver, "solve_zero_sum"),
            (oracle, "verify_equilibrium"),
            (game_core, "maximal_feasible_sets"),
        ):
            monkeypatch.setattr(module, name, refuse)
        built, real = [], game_core.build_matrix

        def build_matrix(spec, rows):
            built.append((spec, [row.members for row in rows]))
            return real(spec, rows)

        monkeypatch.setattr(game_core, "build_matrix", build_matrix)
        times, captures = (5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4")
        sweep_budget(times, captures, range(5, 11))
        assert sorted({spec.budget for spec, _ in built}) == [5, 6]
        for spec, rows in built:
            assert all(game_core.is_maximal(spec, row) for row in rows)
        monkeypatch.setattr(game_core, "build_matrix", refuse)
        entries = sweep_budget(times, captures, range(7, 11))
        assert [e.unique for e in entries] == [True] * 4

    def test_n14_entry_needs_no_probe(self, monkeypatch):
        # The rank test settles this entry, so no probe runs.
        spec = roadmap_game(2, 14)
        verdicts, probes = self.record(monkeypatch)
        (entry,) = sweep_budget(spec.times, spec.captures, [spec.budget])
        assert (verdicts, probes) == ([True], [])
        assert entry.unique
        assert entry.hider_ranges == tuple((h, h) for h in entry.hider)


@settings(max_examples=60)
@given(rational_games(max_n=8), st.integers(0, 24))
def test_sweep_entries_match_the_full_matrix(spec, share):
    """Each entry's value and uniqueness flag are the full LP's and the
    probe's on the full matrix, and a unique hider is the full LP's."""
    budgets = {spec.budget, sum(spec.times) * F(share, 24)}
    entries = sweep_budget(spec.times, spec.captures, budgets)
    assert_full_matrix_entries(spec, entries)
    for entry in entries:
        event(f"n={spec.n} unique={entry.unique}")


def outcome(check, *args):
    """What a certificate check says: None when it holds, its first
    failure as (kind, printed name, slack), or the error it raises."""
    try:
        failure = check(*args)
    except ValueError as exc:
        return str(exc)
    if failure is None:
        return None
    kind, name, slack = failure
    return kind, str(name), slack


# Primes for denominators unrelated to a drawn game's numbers.
UNRELATED_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 101, 997)


def coprime_parts(w):
    """Parts with pairwise coprime denominators that sum to ``w``: one
    c/q for each coprime factor q of w's denominator (its prime powers
    below 1000 and the cofactor left over), and an integer, which may be
    negative (1/6 = 1/2 + 2/3 - 1)."""
    den, factors, p = w.denominator, [], 2
    while p < 1000 and den > 1:
        q = 1
        while den % p == 0:
            den //= p
            q *= p
        if q > 1:
            factors.append(q)
        p += 1
    if den > 1:
        factors.append(den)
    parts = []
    for q in factors:
        rest = w.denominator // q
        parts.append(F(w.numerator * pow(rest, -1, q) % q, q))
    parts.append(w - sum(parts))
    assert parts[-1].denominator == 1
    return parts


def perturbed(data, hider, weights, value):
    """The LP's exact answer, or one of its numbers moved: the value by
    +-1/1000, a share of one location's mass or one row's weight onto
    another (now and then more than all of it), every hider entry's mass
    moved by amounts over primes unrelated to the LP's denominators, or
    one entry of either mix moved alone, so that it sums to other than
    1. The "split" and "coprime" kinds keep the numbers; the test lists
    one row's weight as several parts of the same set."""
    kinds = ["exact", "value", "hider", "searcher", "split", "coprime", "unrelated", "unnormalized"]
    kind = data.draw(st.sampled_from(kinds))
    hider, weights = list(hider), list(weights)
    if kind == "value":
        value += data.draw(st.sampled_from([F(1, 1000), F(-1, 1000)]))
    elif kind in ("hider", "searcher"):
        mix = hider if kind == "hider" else weights
        a = data.draw(st.sampled_from([i for i, w in enumerate(mix) if w]), label="from")
        others = [i for i in range(len(mix)) if i != a] or [a]
        b = data.draw(st.sampled_from(others), label="to")
        moved = mix[a] * F(data.draw(st.integers(1, 11)), 10)  # past all of it at 11
        mix[a] -= moved
        mix[b] += moved
    elif kind == "unrelated":
        # x/q**2 moves between location 1 and each other location, from
        # the one that holds more; the sum stays 1.
        for i in range(1, len(hider)):
            q = data.draw(st.sampled_from(UNRELATED_PRIMES), label="prime")
            moved = F(data.draw(st.integers(1, 2)), q * q)
            a, b = (0, i) if hider[0] >= hider[i] else (i, 0)
            if hider[a] >= moved:
                hider[a] -= moved
                hider[b] += moved
    elif kind == "unnormalized":
        mix = data.draw(st.sampled_from([hider, weights]), label="side")
        i = data.draw(st.integers(0, len(mix) - 1), label="entry")
        q = data.draw(st.sampled_from(UNRELATED_PRIMES), label="prime")
        mix[i] += data.draw(st.sampled_from([F(1, q), F(-1, q)]), label="moved")
    return kind, hider, weights, value


@settings(max_examples=400)
@given(rational_games(), st.data())
def test_location_certificate_is_the_matrix_certificate(spec, data):
    rows = maximal_feasible_sets(spec)
    matrix = build_matrix(spec, rows)
    sol = solve_zero_sum(matrix)
    kind, hider, weights, value = perturbed(
        data, sol.col_strategy, sol.row_strategy, sol.value
    )
    mix = [(s.members, w) for s, w in zip(rows, weights)]
    if kind in ("split", "coprime"):
        i = data.draw(st.integers(0, len(mix) - 1), label="split row")
        members, w = mix[i]
        parts = [w / 3, w - w / 3] if kind == "split" else coprime_parts(w)
        # The same set listed once per part, in either member order.
        mix[i : i + 1] = [(members[:: (-1) ** k], part) for k, part in enumerate(parts)]

    def dense(*claim):
        """The matrix certificate's first negative slack: rows first, in
        the order of ``rows``, then the columns 1..n."""
        cert = verify_equilibrium(*claim)
        sides = (
            ("row", rows, cert.hider_slack),
            ("column", range(1, spec.n + 1), cert.searcher_slack),
        )
        return next(
            (
                (kind, name, slack)
                for kind, names, slacks in sides
                for name, slack in zip(names, slacks)
                if slack < 0
            ),
            None,
        )

    expected = outcome(dense, matrix, hider, weights, value)
    got = outcome(location_certificate, spec, hider, mix, value)
    if isinstance(expected, tuple) and expected[0] == "row":
        # A failed hider side names a row of least slack, any one of them.
        slacks = verify_equilibrium(matrix, hider, weights, value).hider_slack
        slack_of = dict(zip(map(str, rows), slacks))
        assert got[0] == "row"
        assert slack_of[got[1]] == got[2] == min(slacks)
    else:
        assert got == expected
    event(f"{kind}: {expected[0] if isinstance(expected, tuple) else expected}")
    if kind == "exact":
        assert expected is None


def test_location_certificate_refuses_a_set_that_is_no_row():
    spec = GameSpec((5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4"), 7)
    hider = EXAMPLE_HIDER
    with pytest.raises(ValueError, match=r"searcher set \[2\] is not a row"):
        location_certificate(spec, hider, [((2,), 1)], F(6, 115))
    mix = [((1,), F(12, 23)), ((4,), F(3, 23)), ((2, 3), F(8, 23))]
    assert location_certificate(spec, hider, mix, F(6, 115)) is None


def test_location_certificate_lists_no_rows(monkeypatch):
    spec = GameSpec((5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4"), 7)

    def refuse(*args, **kwargs):
        raise AssertionError("rows enumerated")

    monkeypatch.setattr(game_core, "maximal_feasible_sets", refuse)
    monkeypatch.setattr(game_core, "build_matrix", refuse)
    mix = [((1,), F(12, 23)), ((4,), F(3, 23)), ((2, 3), F(8, 23))]
    assert location_certificate(spec, EXAMPLE_HIDER, mix, F(6, 115)) is None
    # Every row pays 6/115, so each one fails a lower claim by 1/1000;
    # the knapsack's set of least total, {3}, filled to {2,3}, names one.
    assert outcome(location_certificate, spec, EXAMPLE_HIDER, mix, F(6, 115) - F(1, 1000)) == (
        "row", "{2,3}", -F(1, 1000)
    )
    # Every row holds, so the first failure is a column: {1} alone leaves
    # location 2 uncovered.
    assert location_certificate(spec, EXAMPLE_HIDER, [((1,), 1)], F(6, 115)) == (
        "column", 2, -F(6, 115)
    )
