"""Exact zero-sum matrix game solving.

``solve_zero_sum`` computes the value and one optimal mixed strategy
per player with a primal simplex over exact Fractions. The matrix is
first mapped affinely onto [1, 2]; mixed strategies are invariant under
positive affine payoff maps, and with all entries positive the standard
maximize-total-mass formulation is bounded and starts feasible at the
all-slack basis, so phase 1 never runs. The column with the largest
positive reduced cost enters (Dantzig's rule), except that where its
ratio test gives a zero step the first positive column enters instead
(Bland's rule); the leaving row is the minimum ratio, ties going to the
lowest basic variable. Every pivot then either strictly raises the
objective or is a Bland pivot, so the pivot sequence is deterministic
and cycle-free; on random location games of 10 to 14 locations it
takes 0.3 to 0.7 times the pivots of Bland's rule alone. A pivot,
``_pivot``, is the one kernel every LP here runs: it updates the rows
and the objective in place at the pivot row's nonzero columns only,
which leaves every entry exactly what the full row operation gives. The
minimizer's strategy is read off the dual multipliers in the final
objective row. Matrices with more rows than columns are solved through
the negated transpose so the tableau always has min(m, n) constraint
rows.

``solve_location_game`` solves a location game without listing its
maximal sets, by column generation (Gilmore and Gomory 1961): the
searcher's LP is a cutting-stock LP whose pricing step is a 0/1
knapsack over the search times. Its master LP is the swapped game's
``_game_lp`` over the sets generated so far, on n location rows, seeded
with one greedy maximal set per location, or with given sets such as
the previous budget's support in a sweep, and re-optimized by the same
``_optimize`` from its last basis after each priced set enters. A new
column's constant part, twice a row's slack sum, is read off the exact
tableau's right-hand side, since every right-hand side is 1. The
pricer, ``_best_set``, is a branch and bound of its own, not
``game_core.max_payoff``, the knapsack of the certificate that checks
its answers. The searcher's mix comes back over its support only.

``hider_uniqueness`` probes the hider's optimal-strategy polytope
{y >= 0, sum(y) = 1, My <= v} with the same pivoting code, and
``location_uniqueness`` runs that probe on generated rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import game_core
from .rationals import parse_matrix, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

# The most maximal sets an exact LP of a location game holds: the master
# LP of column generation, or the generated rows of a sweep's uniqueness
# probe. Both stay far below it: the masters of random games of 16 to 30
# locations (times 1..6, captures k/20, budget a third of the total
# time) held 12 to 46 sets, the probes of 20 to 24 locations 4 to 14.
DEFAULT_MAX_ROWS = 3000


class UnboundedError(RuntimeError):
    """The linear program is unbounded (cannot happen for finite games)."""


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
    """Pivot on entry (r, c): column c becomes basic in row r.

    Row r is divided by its entry in column c, then row r times f is
    subtracted from every other row and from ``obj``, f being that
    row's entry in column c. The rows and ``obj`` are updated in place,
    and only at the columns where the scaled row r is nonzero: at the
    others a - f * 0 = a, so the entry is left as the same object. Every
    entry therefore keeps the exact value the full row operation gives,
    and the pivot sequence and every answer are those of the dense
    update. On the column-generation masters of random games of 10 to
    13 locations this skips 49% of the dense update's Fraction
    operations, on their full-matrix LPs 30%.
    """
    row_r = rows[r]
    inv = ONE / row_r[c]
    nonzero = [(j, v * inv) for j, v in enumerate(row_r) if v]
    for j, b in nonzero:
        row_r[j] = b
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            for j, b in nonzero:
                row[j] -= f * b
    f = obj[c]
    if f:
        for j, b in nonzero:
            obj[j] -= f * b
    basis[r] = c


def _leaving(rows, basis, enter):
    """The minimum-ratio row for entering column ``enter``, ties going to
    the lowest basic variable; None when no entry of the column is
    positive."""
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
    return leave


def _optimize(rows, obj, basis, width) -> None:
    """Pivot until no objective coefficient is positive.

    ``obj`` holds the current objective expression with the running
    value negated in its last slot, so the same row operation updates
    it and the constraint rows alike.

    The entering column is the one with the largest positive reduced
    cost, the lowest index on ties (Dantzig's rule). When its ratio test
    gives a zero step, the first positive column enters instead (Bland's
    rule). The leaving row is always the minimum ratio, ties going to
    the lowest basic variable. So every pivot either strictly raises the
    objective or is a Bland pivot, and since a cycle could only be made
    of degenerate pivots, none forms (Bland 1977).
    """
    while True:
        enter = first = None
        for j in range(width):
            if obj[j] > 0:
                if first is None:
                    first = enter = j
                elif obj[j] > obj[enter]:
                    enter = j
        if enter is None:
            return
        leave = _leaving(rows, basis, enter)
        if leave is not None and enter != first and not rows[leave][-1]:
            enter = first
            leave = _leaving(rows, basis, enter)
        if leave is None:
            raise UnboundedError("unbounded linear program")
        _pivot(rows, obj, basis, leave, enter)


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


def _game_lp(M):
    """The column player's LP of M, solved from the all-slack basis.

    M is mapped onto [1, 2] by v -> (v - lo) / span + 1, a constant M
    onto all ones, as N. With every entry of N positive, max sum(x)
    s.t. Nx <= 1, x >= 0 is bounded and feasible at x = 0. Its optimum
    ``total`` is 1 over the value of N, and the optimal x are the
    optimal column strategies of M times ``total``. Returns ``(value,
    total, x, rows, basis, obj)``: M's game value, the optimum, one
    optimal x, and the final tableau, basis and objective row.
    """
    m, n = len(M), len(M[0])
    lo = min(min(row) for row in M)
    span = max(max(row) for row in M) - lo or ONE
    rows = [
        [(v - lo) / span + 1 for v in row]
        + [ONE if k == i else ZERO for k in range(m)]
        + [ONE]
        for i, row in enumerate(M)
    ]
    basis = list(range(n, n + m))
    total, x, obj = _reoptimize([ONE] * n, rows, basis)
    return lo + (1 / total - 1) * span, total, x, rows, basis, obj


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
    if all(v == M[0][0] for row in M for v in row):
        # Constant payoff: every strategy pair is optimal.
        return MixedSolution(
            M[0][0], tuple([Fraction(1, m)] * m), tuple([Fraction(1, n)] * n)
        )
    value, total, mass, _, _, obj = _game_lp(M)
    duals = [-obj[n + i] for i in range(m)]
    if sum(duals) != total:
        raise RuntimeError("simplex postcondition violated")  # pragma: no cover
    col = tuple(z / total for z in mass)
    row = tuple(u / total for u in duals)
    return MixedSolution(value, row, col)


def hider_uniqueness(matrix, value) -> UniquenessReport:
    """Range of each hider coordinate over the optimal-strategy polytope.

    ``value`` must be the exact game value and is checked: any other
    value raises ``ValueError`` naming the exact one. The hider strategy
    is unique exactly when every coordinate's range is degenerate.

    The optimal hiders are the optimal points of ``_game_lp`` divided by
    its optimum. At that optimum the objective is the optimum plus
    obj[c] * x_c over the nonbasic columns c, so a column with obj[c] < 0
    is 0 at every optimal point; without those columns the final tableau
    holds exactly the optimal face, at a feasible basis. The n maxima of
    the y_j come next, each warm-started from the basis the previous one
    ended at. If they sum to 1, every point of the polytope is the vector
    of maxima, and each range is (max y_j, max y_j). Otherwise each
    min y_j is re-optimized too, except where a vertex already found has
    y_j = 0. Every endpoint is the exact optimum of its LP.
    """
    return _probe(parse_matrix(matrix), parse_rational(value))[0]


def _probe(M, v):
    """``hider_uniqueness`` of parsed input, and the hiders its LPs end at."""
    n = len(M[0])
    actual, total, point, rows, basis, obj = _game_lp(M)
    if actual != v:
        raise ValueError(f"claimed value {v} is not the exact game value {actual}")
    keep = [c for c in range(len(obj) - 1) if obj[c] == 0]
    at = {c: k for k, c in enumerate(keep)}
    rows = [[row[c] for c in keep] + [row[-1]] for row in rows]
    basis = [at[b] for b in basis]
    # The hider columns left, which lead the kept columns.
    hider = [c for c in keep if c < n]
    visited = {tuple(x / total for x in point): None}  # the hiders found, in order

    def bound(j, sign):
        """max y_j for sign 1, min y_j for sign -1; 0 for a deleted j."""
        cost = [sign if c == j else ZERO for c in hider]
        best, x, _ = _reoptimize(cost, rows, basis)
        found = dict(zip(hider, x))
        visited[tuple(found.get(c, ZERO) / total for c in range(n))] = None
        return sign * best / total

    highs = [bound(j, ONE) for j in range(n)]
    if sum(highs) == 1:
        return UniquenessReport(tuple((hi, hi) for hi in highs), True), list(visited)
    # min y_j is 0 once any vertex found so far has y_j = 0.
    ranges = tuple(
        (ZERO if any(y[j] == 0 for y in visited) else bound(j, -ONE), highs[j]) for j in range(n)
    )
    # The maxima sum past 1, so some coordinate takes two values.
    return UniquenessReport(ranges, False), list(visited)


@dataclass(frozen=True)
class LocationSolution:
    """Value and one optimal strategy per player of a location game.

    ``searcher`` holds (set, weight) pairs over the searcher's support
    only, each set maximal, sorted by members.
    """

    value: Fraction
    hider: tuple[Fraction, ...]
    searcher: tuple[tuple[game_core.SearchSet, Fraction], ...]


def _best_set(spec: game_core.GameSpec, benefits) -> tuple[Fraction, tuple[int, ...]]:
    """The largest total of ``benefits`` (one nonnegative rational per
    location) over a set within budget, and the members of one set that
    reaches it.

    An exact 0/1 knapsack by depth-first branch and bound, in integers:
    the game's scaled times and budget (``GameSpec._scaled``), the
    benefits over their common denominator. The locations that can add
    something are taken in decreasing benefit per unit of time, each node
    tries taking its location before skipping it, and a node is dropped
    once its fractional (Dantzig) bound cannot beat the best set found.
    The certificate's knapsack, ``game_core.max_payoff``, is a different
    routine, so a set this one misses is not certified as optimal by the
    same mistake.
    """
    times, budget = spec._scaled
    den = math.lcm(*(b.denominator for b in benefits))
    items = []
    for i, (time, b) in enumerate(zip(times, benefits), start=1):
        if b > 0 and time <= budget:
            items.append((time, b.numerator * (den // b.denominator), i))
    items.sort(key=lambda item: (Fraction(-item[1], item[0]), item[2]))

    def beats(k, room, gain, best):
        """Whether the fractional fill of ``room`` from item k on lifts
        ``gain`` above ``best``."""
        for time, g, _ in items[k:]:
            if time > room:
                # gain + g * room / time > best, cross-multiplied.
                return (gain - best) * time + g * room > 0
            room -= time
            gain += g
        return gain > best

    best, chosen = 0, ()
    stack = [(0, budget, 0, ())]
    while stack:
        k, room, gain, members = stack.pop()
        if gain > best:
            best, chosen = gain, members
        if k == len(items) or not beats(k, room, gain, best):
            continue
        time, g, i = items[k]
        stack.append((k + 1, room, gain, members))
        if time <= room:
            stack.append((k + 1, room - time, gain + g, members + (i,)))
    return Fraction(best, den), tuple(sorted(chosen))


def solve_location_game(
    spec: game_core.GameSpec, max_rows: int = DEFAULT_MAX_ROWS, seeds=()
) -> LocationSolution:
    """Solve a location game exactly by column generation.

    The master LP is ``_game_lp``'s LP of the game with the players
    swapped, one row per location and one column per generated set A,
    over N[i][A] = 2 - p_i [i in A] / p_max: max sum(x) s.t. Nx <= 1,
    x >= 0, whose optimum ``total`` gives the value p_max (2 - 1/total).
    Slack columns come first, so the dual prices pi are the negated
    slack entries of the objective row and B^-1 is read from the slack
    columns; a new set column enters as B^-1 N[., A] with reduced cost
    1 - 2 sum(pi) + sum over i in A of pi_i p_i / p_max. Every
    right-hand side is 1, so a row's slack part sums to its last entry,
    exactly, the objective row's to -sum(pi); the closing check that
    sum(pi) is the optimum checks this identity.

    The master starts with one greedy maximal set per location (the
    location, then others in decreasing capture per unit of time while
    they fit), or, when ``seeds`` is given, with those sets of location
    numbers, each filled greedily in the same order and taken once; a
    seed that does not fit the budget or names no location of the game
    raises ``ValueError``. A sweep seeds each budget with the previous
    budget's support. The seeds choose only where the exact loop starts,
    not whether its answer is optimal. The master is re-optimized by
    ``_optimize`` from its last basis after every new column. The
    pricing step is ``_best_set`` on the benefits pi_i p_i; while the
    best set's reduced cost is positive it is extended to a maximal set
    and enters. Once none is, no feasible set pays more than the value
    against the hider pi / total, so both strategies are optimal in the
    game over every maximal set.

    Raises ``game_core.InstanceTooLarge`` before the master holds more
    than ``max_rows`` sets.
    """
    n = spec.n
    p_max = max(spec.captures)
    share = [p / p_max for p in spec.captures]
    order = sorted(
        range(1, n + 1), key=lambda i: (-spec.captures[i - 1] / spec.times[i - 1], i)
    )
    rows = [[ONE if k == i else ZERO for k in range(n)] + [ONE] for i in range(n)]
    obj = [ZERO] * (n + 1)
    basis = list(range(n))
    sets: list[tuple[int, ...]] = []

    def add(members):
        if members in sets:
            raise RuntimeError("column generation postcondition violated")
        if len(sets) == max_rows:
            raise game_core.InstanceTooLarge(
                f"{len(sets) + 1} maximal feasible sets in the master LP, more than "
                f"{max_rows} (--max-rows); instance too large for the exact LP"
            )
        # Each entry is s . N[., A] = 2 sum(s) - sum over i in A of
        # s_i p_i / p_max, for s the row's slack part, and sum(s) is the
        # row's last entry. The objective's entry is the reduced cost,
        # so its column cost 1 is added.
        for row in rows + [obj]:
            entry = 2 * row[-1] - sum(row[i - 1] * share[i - 1] for i in members if row[i - 1])
            row.insert(-1, entry)
        obj[-2] += 1
        sets.append(members)

    times, budget = spec._scaled
    if not seeds:
        seeds = [(i,) if times[i - 1] <= budget else () for i in range(1, n + 1)]
    for seed in seeds:
        members = tuple(sorted(set(seed)))
        if not all(1 <= i <= n for i in members) or sum(times[i - 1] for i in members) > budget:
            raise ValueError(f"seed {list(members)} is not a feasible set of the game")
        filled = game_core.greedy_fill(spec, members, order)
        if filled not in sets:
            add(filled)
    while True:
        _optimize(rows, obj, basis, len(obj) - 1)
        duals = [-obj[i] for i in range(n)]
        gain, best = _best_set(spec, [d * p for d, p in zip(duals, spec.captures)])
        if 1 + 2 * obj[-1] + gain / p_max <= 0:
            break
        add(game_core.greedy_fill(spec, best, order))
    total = -obj[-1]
    if sum(duals) != total:
        raise RuntimeError("column generation postcondition violated")  # pragma: no cover
    weights = [ZERO] * len(sets)
    for r, b in enumerate(basis):
        if b >= n:
            weights[b - n] = rows[r][-1] / total
    searcher = sorted(
        (game_core.SearchSet(s), w) for s, w in zip(sets, weights) if w
    )
    hider = tuple(d / total for d in duals)
    return LocationSolution(p_max * (2 - 1 / total), hider, tuple(searcher))


def location_uniqueness(
    spec: game_core.GameSpec, solution: LocationSolution, max_rows: int = DEFAULT_MAX_ROWS
):
    """``hider_uniqueness`` of a location game on generated rows only.

    The rows start as the support of ``solution``, a column-generation
    answer of value v; every optimal hider of the whole game is optimal
    over them. Each set ``_best_set`` finds paying more than v at a hider
    the probe ended at is filled to a maximal set and added, until none
    is; those hiders, which reach every range end, are then optimal in
    the whole game. Raises ``game_core.InstanceTooLarge`` past ``max_rows`` sets.
    """
    sets = {s: None for s, _ in solution.searcher}
    while True:
        if len(sets) > max_rows:
            raise game_core.InstanceTooLarge(
                f"{len(sets)} maximal feasible sets in the uniqueness probe, more than "
                f"{max_rows} (--max-rows); instance too large for the exact LP"
            )
        report, visited = _probe(game_core.build_matrix(spec, list(sets)), solution.value)
        cuts = {}
        for y in visited:
            gain, best = _best_set(spec, [p * h for p, h in zip(spec.captures, y)])
            if gain > solution.value:
                members = game_core.greedy_fill(spec, best, range(1, spec.n + 1))
                cuts[game_core.SearchSet(members)] = None
        if not cuts:
            return report
        sets.update(cuts)
