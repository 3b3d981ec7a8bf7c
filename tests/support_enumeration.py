"""Simplex-free references for small matrix games: a second solver,
which the tests compare ``lp_solver.solve_zero_sum`` with, and the
vertex enumeration of the hider's optimal set, which they compare
``lp_solver.hider_uniqueness`` with.

Both enumerate square linear systems and solve them with the oracle's
exact Gauss-Jordan elimination, so they share no solving code with the
simplex; this module imports nothing from ``lp_solver``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from searchpursuit.oracle import ONE, ZERO, _reduce
from searchpursuit.rationals import parse_matrix, parse_rational

SUPPORT_ENUMERATION_CAP = 6


class Solution(NamedTuple):
    """Value and one optimal mix per player, in ``MixedSolution``'s
    field order: the row player maximizes."""

    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]


def _solve_linear(system: list[list[Fraction]]):
    """Solve a square augmented system [A | b] exactly; None if singular."""
    reduced = _reduce(system, len(system))
    return None if reduced is None else [row[-1] for row in reduced[0]]


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
) -> Solution:
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
                    return Solution(value - shift, x, y)
    raise RuntimeError("no square support yielded an equilibrium")  # pragma: no cover


def optimal_hider_ranges(matrix, value):
    """Exact (min, max) of each coordinate over the hider's optimal set
    {y >= 0, sum(y) = 1, My <= value}, read off its vertices; None when
    the set is empty. The simplex-free reference for
    ``lp_solver.hider_uniqueness``.

    A vertex with support F is the one solution of sum(y_F) = 1 and
    |F| - 1 rows held at ``value``, each restricted to F, with y_F > 0.
    Rows with equal restrictions give one equation. A row whose
    restriction is entrywise at most another's, and differs from it,
    pays less than the other at every y_F > 0, so it cannot be held at
    the value while the other stays at or under it. Only the distinct,
    undominated restrictions are tried.
    """
    M = parse_matrix(matrix)
    v = parse_rational(value)
    n = len(M[0])
    vertices = []
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            restricted = {tuple(row[j] for j in support) for row in M}
            candidates = sorted(
                r
                for r in restricted
                if not any(
                    s != r and all(a <= b for a, b in zip(r, s)) for s in restricted
                )
            )
            for tight in combinations(candidates, size - 1):
                system = [[ONE] * size + [ONE]] + [list(r) + [v] for r in tight]
                solved = _solve_linear(system)
                if solved is None or any(w <= 0 for w in solved):
                    continue
                y = [ZERO] * n
                for j, w in zip(support, solved):
                    y[j] = w
                if all(sum(a * b for a, b in zip(row, y)) <= v for row in M):
                    vertices.append(y)
    if not vertices:
        return None
    return tuple(
        (min(y[j] for y in vertices), max(y[j] for y in vertices)) for j in range(n)
    )
