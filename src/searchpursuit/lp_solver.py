"""Exact zero-sum matrix game solving.

``solve_zero_sum`` computes the value and one optimal mixed strategy
per player with a primal simplex over exact Fractions. The matrix is
first mapped affinely onto [1, 2]; mixed strategies are invariant under
positive affine payoff maps, and with all entries positive the standard
maximize-total-mass formulation is bounded and starts feasible at the
all-slack basis, so phase 1 never runs. Bland's rule keeps the pivot
sequence deterministic and cycle-free, and the minimizer's strategy is
read off the dual multipliers in the final objective row. Matrices with
more rows than columns are solved through the negated transpose so the
tableau always has min(m, n) constraint rows.

``hider_uniqueness`` probes the hider's optimal-strategy polytope
{y >= 0, sum(y) = 1, My <= v} with the same pivoting code. One phase 1
makes a tableau of the polytope with a margin column feasible, and
every later step is a phase-2 re-optimization over that tableau,
warm-started from the basis the previous one ended at: the margin
checks the claimed value, then come the n maxima of the y_j, and the
minima only when the maxima do not already prove the hider unique.
``solve_zero_sum`` runs the same two steps, ``_feasible_tableau`` then
one ``_reoptimize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import parse_matrix, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)


class UnboundedError(RuntimeError):
    """The linear program is unbounded (cannot happen for finite games)."""


class InfeasibleError(RuntimeError):
    """The linear program has no feasible point."""


@dataclass(frozen=True)
class MixedSolution:
    """Game value plus one optimal mixed strategy per player.

    The row player maximizes: every column yields at least ``value``
    under ``row_strategy`` and every row at most ``value`` under
    ``col_strategy``, both exactly.
    """

    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]


@dataclass(frozen=True)
class UniquenessReport:
    """Per-coordinate (min, max) over the hider's optimal polytope."""

    ranges: tuple[tuple[Fraction, Fraction], ...]
    unique: bool


def _pivot(rows, obj, basis, r, c) -> None:
    inv = ONE / rows[r][c]
    row_r = [v * inv for v in rows[r]]
    rows[r] = row_r
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [a - f * b for a, b in zip(row, row_r)]
    f = obj[c]
    if f:
        obj[:] = [a - f * b for a, b in zip(obj, row_r)]
    basis[r] = c


def _optimize(rows, obj, basis, width) -> None:
    """Pivot under Bland's rule until no objective coefficient is positive.

    ``obj`` holds the current objective expression with the running
    value negated in its last slot, so the same row operation updates
    it and the constraint rows alike.
    """
    while True:
        enter = None
        for j in range(width):
            if obj[j] > 0:
                enter = j
                break
        if enter is None:
            return
        leave = None
        best = None
        for i, row in enumerate(rows):
            coeff = row[enter]
            if coeff > 0:
                ratio = row[-1] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave is None:
            raise UnboundedError("unbounded linear program")
        _pivot(rows, obj, basis, leave, enter)


def _feasible_tableau(lhs, rhs):
    """Tableau of lhs.x <= rhs, x >= 0 at a feasible basis, all exact.

    Each row carries its own slack; rows with a negative right-hand side
    are negated and started on an artificial variable, which phase 1
    then drives to zero and out of the basis. Returns ``(rows, basis)``;
    the columns are the ``len(lhs[0])`` structural variables then the
    ``len(lhs)`` slacks.
    """
    m, n = len(lhs), len(lhs[0])
    neg = [i for i in range(m) if rhs[i] < 0]
    n_art = len(neg)
    width = n + m + n_art
    art_col = {i: n + m + a for a, i in enumerate(neg)}

    rows: list[list[Fraction]] = []
    basis: list[int] = []
    for i in range(m):
        row = [ZERO] * (width + 1)
        sign = -ONE if i in art_col else ONE
        for j, v in enumerate(lhs[i]):
            if v:
                row[j] = sign * v
        row[n + i] = sign
        row[-1] = sign * rhs[i]
        if i in art_col:
            row[art_col[i]] = ONE
            basis.append(art_col[i])
        else:
            basis.append(n + i)
        rows.append(row)

    if n_art:
        obj1 = [ZERO] * (width + 1)
        for i in neg:
            obj1[art_col[i]] = -ONE
        for i in neg:
            for j in range(width + 1):
                obj1[j] += rows[i][j]
        _optimize(rows, obj1, basis, width)
        if obj1[-1] != 0:
            raise InfeasibleError("infeasible linear program")
        # Pivot every artificial still basic (at zero) onto a structural
        # or slack column. One always has a nonzero entry in its row: the
        # slack columns give the rows full rank, and pivots keep it, so
        # no row is ever redundant.
        for i in range(m):
            if basis[i] >= n + m:
                col = next(j for j in range(n + m) if rows[i][j] != 0)
                _pivot(rows, obj1, basis, i, col)
        for row in rows:
            del row[n + m : n + m + n_art]
    return rows, basis


def _reoptimize(costs, rows, basis):
    """max costs.x over a feasible tableau, from its current basis.

    Phase 2 only: the tableau and basis are updated in place and stay
    feasible, so further cost vectors can start from the basis this one
    ends at. Returns ``(value, x, obj)`` with ``obj`` the final objective
    row, whose slack entries are the negated dual multipliers.
    """
    width = len(rows[0]) - 1
    obj = [Fraction(c) for c in costs] + [ZERO] * (width + 1 - len(costs))
    for i, row in enumerate(rows):
        f = obj[basis[i]]
        if f:
            obj[:] = [a - f * b for a, b in zip(obj, row)]
    _optimize(rows, obj, basis, width)

    x = [ZERO] * len(costs)
    for i, bv in enumerate(basis):
        if bv < len(costs):
            x[bv] = rows[i][-1]
    return -obj[-1], x, obj


def solve_zero_sum(matrix) -> MixedSolution:
    """Solve the matrix game exactly for both players.

    Accepts any rectangular nested sequence of rationals, such as
    ``build_matrix`` returns. Deterministic: identical matrices produce
    identical strategies.
    """
    M = parse_matrix(matrix)
    m, n = len(M), len(M[0])
    if m > n:
        flipped = solve_zero_sum(
            [[-M[i][j] for i in range(m)] for j in range(n)]
        )
        return MixedSolution(
            -flipped.value, flipped.col_strategy, flipped.row_strategy
        )
    lo = min(min(row) for row in M)
    hi = max(max(row) for row in M)
    if hi == lo:
        # Constant payoff: every strategy pair is optimal.
        return MixedSolution(
            lo, tuple([Fraction(1, m)] * m), tuple([Fraction(1, n)] * n)
        )
    span = hi - lo
    norm = [[(v - lo) / span + 1 for v in row] for row in M]
    rows, basis = _feasible_tableau(norm, [ONE] * m)
    total, mass, obj = _reoptimize([ONE] * n, rows, basis)
    duals = [-obj[n + i] for i in range(m)]
    if total <= 0 or sum(duals) != total:
        raise RuntimeError("simplex postcondition violated")  # pragma: no cover
    v_norm = 1 / total
    col = tuple(z * v_norm for z in mass)
    row = tuple(u * v_norm for u in duals)
    return MixedSolution(lo + (v_norm - 1) * span, row, col)


def solve_diagonal(diag) -> MixedSolution:
    """Diagonal game: value 1/sum(1/d_i); each side plays strategy i with
    probability inversely proportional to its diagonal entry."""
    d = [parse_rational(v) for v in diag]
    if not d:
        raise ValueError("diagonal must be nonempty")
    if any(v <= 0 for v in d):
        raise ValueError("diagonal entries must be positive")
    value = 1 / sum(ONE / v for v in d)
    probs = tuple(value / v for v in d)
    return MixedSolution(value, probs, probs)


def _value_error(M, v, fallback: str) -> ValueError:
    """The error for a claimed value the probe found wrong; it names the
    exact game value, which ``solve_zero_sum`` computes only here."""
    actual = solve_zero_sum(M).value
    if actual != v:
        return ValueError(f"claimed value {v} is not the exact game value {actual}")
    return ValueError(fallback)


def hider_uniqueness(matrix, value) -> UniquenessReport:
    """Range of each hider coordinate over the optimal-strategy polytope.

    ``value`` must be the exact game value and is checked: a value below
    it leaves the polytope {col mixes capping every row at the value}
    empty, a value above it would silently widen the ranges, so both
    directions raise ``ValueError``. The hider strategy is unique
    exactly when every coordinate's range is degenerate.

    One tableau holds {y >= 0, t >= 0, sum(y) = 1, My + t <= value}
    with a margin column t. Phase 1 fails on it exactly when the value
    is too low, and max t, a phase-2 re-optimization, is the claimed
    value minus the game value, so it checks the value from above. With
    t at zero its column is dropped, which leaves a feasible tableau of
    the polytope. The n maxima of the y_j come next, each warm-started
    from the basis the previous one ended at. If they sum to 1, every
    point of the polytope is the vector of maxima, and each range is
    (max y_j, max y_j). Otherwise each min y_j is re-optimized too,
    except where a vertex already found has y_j = 0. Every endpoint is
    the exact optimum of its LP.
    """
    M = parse_matrix(matrix)
    v = parse_rational(value)
    m, n = len(M), len(M[0])
    lhs = [list(row) + [ONE] for row in M]
    lhs.append([ONE] * n + [ZERO])
    lhs.append([-ONE] * n + [ZERO])
    rhs = [v] * m + [ONE, -ONE]
    try:
        rows, basis = _feasible_tableau(lhs, rhs)
    except InfeasibleError as exc:
        raise _value_error(
            M,
            v,
            "no column strategy achieves the claimed value; "
            "it is not the exact game value",
        ) from exc
    margin, point, _ = _reoptimize([ZERO] * n + [ONE], rows, basis)
    if margin:
        raise _value_error(M, v, f"claimed value {v} is {margin} above the game value")
    # Drop the margin column n, pivoting it out first if it is basic (at
    # zero); its row has another nonzero entry for the reason phase 1's
    # artificials do.
    if n in basis:
        i = basis.index(n)
        width = len(rows[i]) - 1
        col = next(j for j in range(width) if j != n and rows[i][j] != 0)
        _pivot(rows, [ZERO] * (width + 1), basis, i, col)
    for row in rows:
        del row[n]
    basis[:] = [b - 1 if b > n else b for b in basis]

    seen_zero = {j for j in range(n) if point[j] == 0}

    def bound(j, sign):
        """max y_j for sign 1, min y_j for sign -1."""
        cost = [ZERO] * n
        cost[j] = sign
        best, point, _ = _reoptimize(cost, rows, basis)
        seen_zero.update(k for k in range(n) if point[k] == 0)
        return sign * best

    highs = [bound(j, ONE) for j in range(n)]
    if sum(highs) == 1:
        return UniquenessReport(tuple((hi, hi) for hi in highs), True)
    # min y_j is 0 once any vertex found so far has y_j = 0.
    ranges = tuple(
        (ZERO if j in seen_zero else bound(j, -ONE), highs[j]) for j in range(n)
    )
    # The maxima sum past 1, so some coordinate takes two values.
    return UniquenessReport(ranges, False)
