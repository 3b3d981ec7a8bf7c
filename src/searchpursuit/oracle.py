"""Independent verification tools.

The checking routines here deliberately share no solving code with
:mod:`searchpursuit.lp_solver`: equilibrium claims are verified by
direct slack evaluation, and small games are re-solved from scratch by
enumerating square supports and solving the indifference systems with
plain Gaussian elimination. A bug in the simplex cannot hide behind an
identical bug here.

``sweep_budget`` is a driver, not a checker: it runs the regular
enumeration + LP pipeline once per budget and layers the uniqueness
probe and a value-monotonicity assertion (``check_nondecreasing``) on
top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import game_core
from .lp_solver import MixedSolution, hider_uniqueness, solve_zero_sum
from .rationals import parse_matrix, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

SUPPORT_ENUMERATION_CAP = 6


class MonotonicityError(RuntimeError):
    """A sweep produced a value that decreased as the budget grew."""


@dataclass(frozen=True)
class Certificate:
    """Exact two-sided equilibrium check.

    ``hider_slack[i]`` is the claimed value minus row i's payoff under
    the hider mix; ``searcher_slack[j]`` is column j's payoff under the
    searcher mix minus the claimed value. The triple is an equilibrium
    exactly when every slack is nonnegative.
    """

    claimed_value: Fraction
    hider_slack: tuple[Fraction, ...]
    searcher_slack: tuple[Fraction, ...]
    ok: bool


def verify_equilibrium(matrix, hider_mix, searcher_mix, claimed_value) -> Certificate:
    M = parse_matrix(matrix)
    m, n = len(M), len(M[0])
    hider = [parse_rational(v) for v in hider_mix]
    searcher = [parse_rational(v) for v in searcher_mix]
    if len(hider) != n or len(searcher) != m:
        raise ValueError("strategy dimensions do not match the matrix")
    for probs, side in ((hider, "hider"), (searcher, "searcher")):
        if any(p < 0 for p in probs) or sum(probs) != 1:
            raise ValueError(f"{side} mix is not a probability distribution")
    v = parse_rational(claimed_value)
    # Zero weights and zero entries add nothing to a payoff, so each sum
    # runs over the other player's support and the nonzero entries only.
    hider_support = [(j, h) for j, h in enumerate(hider) if h]
    hider_slack = tuple(
        v - sum(row[j] * h for j, h in hider_support if row[j]) for row in M
    )
    column = [0] * n
    for w, row in zip(searcher, M):
        if w:
            for j, x in enumerate(row):
                if x:
                    column[j] += w * x
    searcher_slack = tuple(c - v for c in column)
    ok = all(s >= 0 for s in hider_slack) and all(s >= 0 for s in searcher_slack)
    return Certificate(v, hider_slack, searcher_slack, ok)


def _solve_linear(system: list[list[Fraction]]):
    """Solve a square augmented system [A | b] exactly; None if singular."""
    size = len(system)
    rows = [row[:] for row in system]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][-1] for r in range(size)]


def _square_equilibrium(S, m, n, rows_sel, cols_sel):
    size = len(rows_sel)
    sys_x = [
        [S[i][j] for i in rows_sel] + [-ONE, ZERO] for j in cols_sel
    ]
    sys_x.append([ONE] * size + [ZERO, ONE])
    solved = _solve_linear(sys_x)
    if solved is None:
        return None
    x_support, value = solved[:size], solved[size]
    if any(w < 0 for w in x_support):
        return None
    sys_y = [
        [S[i][j] for j in cols_sel] + [-ONE, ZERO] for i in rows_sel
    ]
    sys_y.append([ONE] * size + [ZERO, ONE])
    solved = _solve_linear(sys_y)
    if solved is None:
        return None
    y_support, w_value = solved[:size], solved[size]
    if w_value != value or any(w < 0 for w in y_support):
        return None
    x = [ZERO] * m
    y = [ZERO] * n
    for idx, i in enumerate(rows_sel):
        x[i] = x_support[idx]
    for idx, j in enumerate(cols_sel):
        y[j] = y_support[idx]
    for j in range(n):
        if sum(x[i] * S[i][j] for i in range(m)) < value:
            return None
    for i in range(m):
        if sum(S[i][j] * y[j] for j in range(n)) > value:
            return None
    return value, tuple(x), tuple(y)


def support_enumeration_solve(
    matrix, max_dim: int = SUPPORT_ENUMERATION_CAP
) -> MixedSolution:
    """Second, simplex-free solver for cross-checks on tiny games.

    Shifts the matrix so its minimum entry is 1 (making the value
    positive, which guarantees some square support carries a
    nonsingular indifference system), then scans square support pairs
    in deterministic order and returns the first pair that passes the
    full equilibrium certificate. The value always matches the LP
    solver; the strategies may legitimately differ when optima are not
    unique.
    """
    M = parse_matrix(matrix)
    m, n = len(M), len(M[0])
    if m > max_dim or n > max_dim:
        raise ValueError(
            f"support enumeration is capped at {max_dim}x{max_dim} matrices"
        )
    shift = ONE - min(min(row) for row in M)
    S = [[v + shift for v in row] for row in M]
    for size in range(1, min(m, n) + 1):
        for rows_sel in combinations(range(m), size):
            for cols_sel in combinations(range(n), size):
                found = _square_equilibrium(S, m, n, rows_sel, cols_sel)
                if found is not None:
                    value, x, y = found
                    return MixedSolution(value - shift, x, y)
    raise RuntimeError("no square support yielded an equilibrium")  # pragma: no cover


@dataclass(frozen=True)
class SweepEntry:
    budget: Fraction
    value: Fraction
    hider: tuple[Fraction, ...]
    hider_ranges: tuple[tuple[Fraction, Fraction], ...]
    unique: bool


def sweep_budget(
    times, captures, budgets, max_sets: int = game_core.DEFAULT_MAX_SETS
) -> list[SweepEntry]:
    """Solve one game per budget; report value and hider uniqueness.

    Budgets are evaluated in ascending order and the value is asserted
    to be nondecreasing (extra search time can never hurt the searcher);
    a violation raises :class:`MonotonicityError`.
    """
    ks = sorted(set(parse_rational(k) for k in budgets))
    entries = []
    for k in ks:
        spec = game_core.GameSpec(tuple(times), tuple(captures), k)
        rows = game_core.maximal_feasible_sets(spec, max_sets=max_sets)
        matrix = game_core.build_matrix(spec, rows)
        sol = solve_zero_sum(matrix)
        report = hider_uniqueness(matrix, sol.value)
        entries.append(
            SweepEntry(k, sol.value, sol.col_strategy, report.ranges, report.unique)
        )
    check_nondecreasing(ks, [e.value for e in entries])
    return entries


def check_nondecreasing(budgets, values) -> None:
    """Raise :class:`MonotonicityError` if ``values``, one per budget of
    the ascending ``budgets``, ever decrease: extra search time can never
    hurt the searcher."""
    for k, previous, value in zip(budgets[1:], values, values[1:]):
        if value < previous:
            raise MonotonicityError(
                f"value decreased from {previous} to {value} at budget {k}"
            )
