"""Independent verification tools.

The checking routines here deliberately share no solving code with
:mod:`searchpursuit.lp_solver`, and import neither it nor
``closed_forms``: equilibrium claims are verified by direct slack
evaluation, and linear systems are solved by Gauss-Jordan elimination
run fraction-free on integer rows (``_reduce``), whose reduced rows are
those of the plain Fraction elimination. A bug in the simplex cannot
hide behind an identical bug here. The tests' simplex-free references, the
support enumeration solver and the vertex enumeration of the optimal
hider set, solve their square systems with ``_reduce`` too.

``location_certificate`` is the certificate of every location-game
solution, the check ``verify_equilibrium`` makes on its matrix, made
without the matrix or a list of its rows: the hider side is one exact
knapsack optimum from ``game_core``, whose set, filled to a maximal one,
names a failed row; the searcher side is a sum over the listed sets
only. ``verify_equilibrium`` itself certifies the learning game, whose
2x2 matrix is explicit, and stays the reference the tests and the
benchmark's gate compare with. Every certificate checks its mixes with
``require_distribution`` first.

``certified_ranges`` bounds every optimal hider of a location game
from one optimal pair, the location certificate and the rank of the
complementary-slackness system over the played sets, with the same
elimination: a point at full rank, a segment one below it, whose ends
a ratio test on the sets ``game_core.max_payoff`` names finds, all
without a matrix or a list of sets. It runs the location certificate
once and raises ``CertificateFailure`` when it fails, so None means
only that the rank test cannot tell.

``check_nondecreasing`` is the value-monotonicity check of every
sweep, which ``cli`` drives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import game_core
from .rationals import parse_matrix, parse_rational, parse_rationals

ZERO = Fraction(0)
ONE = Fraction(1)


class CertificateFailure(RuntimeError):
    """An answer failed its certificate."""


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
    require_distribution(hider, 1, "hider")
    require_distribution(searcher, 1, "searcher")
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


def location_certificate(
    spec, hider_mix, searcher_mix, claimed_value, max_sets=game_core.DEFAULT_MAX_SETS
):
    """The certificate of a location game's solution, checked without its
    payoff matrix or a list of its rows: None when it holds, otherwise a
    negative slack of the check :func:`verify_equilibrium` makes on the
    matrix over the maximal feasible sets. Rows come first: a failed row
    is ``("row", set, v - payoff)`` for the row of least slack, and
    otherwise the first short column is ``("column", j, p_j * c_j - v)``.

    ``searcher_mix`` holds (members, weight) pairs, the members being
    location numbers of a maximal feasible set (``game_core.is_maximal``),
    else ValueError; a set listed more than once carries the sum of its
    weights. Both mixes are checked to be probability distributions
    first, with the same errors as ``verify_equilibrium``, each summed in
    integers over its common denominator. Then every benefit p_i * h_i is
    nonnegative, so the best feasible set, an exact knapsack optimum,
    still pays the most of any row once greedily filled to a maximal
    set: some row pays more than v exactly when it does, and it is the
    row named. Of several rows of least slack, the one named is thus
    fixed by the inputs alone: the set ``game_core.max_payoff`` names
    (least total, then least bit mask) filled in location order.
    ``max_sets`` caps the knapsack's Pareto front, with
    ``game_core.InstanceTooLarge``. Column j pays p_j times the weight
    c_j of the listed sets that hold j, which must reach v; the
    comparison is cross-multiplied, and only a failed column's slack is
    built as a Fraction.
    """
    n = spec.n
    hider = parse_rationals(hider_mix)
    listed = []
    for members, w in searcher_mix:
        members = tuple(sorted(members))
        if not game_core.is_maximal(spec, members):
            raise ValueError(f"searcher set {list(members)} is not a row of the game")
        listed.append((members, parse_rational(w)))
    if len(hider) != n:
        raise ValueError("hider mix length does not match the game")
    # Each mix as integers over its common denominator.
    hider_den = math.lcm(*(h.denominator for h in hider))
    require_distribution(
        [h.numerator * (hider_den // h.denominator) for h in hider], hider_den, "hider"
    )
    den = math.lcm(*(w.denominator for _, w in listed))
    weights: dict[tuple[int, ...], int] = {}
    for members, w in listed:
        weights[members] = weights.get(members, 0) + w.numerator * (den // w.denominator)
    require_distribution(weights.values(), den, "searcher")
    v = parse_rational(claimed_value)
    payoff, best = game_core.max_payoff(spec, hider, max_sets)
    if payoff > v:
        filled = game_core.greedy_fill(spec, best, range(1, n + 1))
        return "row", game_core.SearchSet(filled), v - payoff
    covered = [0] * n
    for members, w in weights.items():
        for i in members:
            covered[i - 1] += w
    # p_j * c_j < v, with c_j = covered[j] / den, cross-multiplied.
    vn, vd = v.numerator, v.denominator
    for j, (p, c) in enumerate(zip(spec.captures, covered), start=1):
        if p.numerator * c * vd < vn * p.denominator * den:
            return "column", j, Fraction(p.numerator * c, p.denominator * den) - v
    return None


def require_distribution(weights, den: int, side: str) -> None:
    """The ValueError of every certificate unless ``weights``, read over
    ``den``, are nonnegative and sum to 1."""
    if any(w < 0 for w in weights) or sum(weights) != den:
        raise ValueError(f"{side} mix is not a probability distribution")


def _reduce(system: list[list[Fraction]], width: int, nullity: int = 0):
    """Gauss-Jordan elimination of the augmented rows ``system`` over
    their first ``width`` columns, exactly.

    Returns ``(rows, pivots)``: row i of the reduced rows has its leading
    1 in column ``pivots[i]``, and the rows past ``len(pivots)`` are zero
    over the first ``width`` columns. With full rank the first ``width``
    rows read [I | solution]. Returns None as soon as more than
    ``nullity`` columns lack a pivot.

    The elimination is fraction-free: each row is scaled to integers
    over the lcm of its denominators, row y with leading entry x clears
    column c of row a as x * a - a[c] * y, and that row is divided by the
    gcd of its entries. A row is thus always a nonzero multiple of the
    row that Fraction elimination with the same row choices holds, so
    the pivots are the same, and only at the end is each pivot row
    divided by its leading entry. The reduced row echelon form is
    unique, so the pivot rows are exactly those of the Fraction
    elimination. A row past ``len(pivots)`` is a nonzero multiple of the
    Fraction elimination's, so the two are equal where the system is
    consistent (both zero); the tests keep that elimination as the
    reference.
    """
    rows = []
    for row in system:
        den = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (den // v.denominator) for v in row])
    pivots: list[int] = []
    for col in range(width):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            if col - top >= nullity:
                return None
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        y = rows[top]
        x = y[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != top:
                row = [x * a - f * b for a, b in zip(row, y)]
                g = math.gcd(*row) or 1
                rows[r] = [a // g for a in row]
        pivots.append(col)
    reduced = [[Fraction(v, row[col]) for v in row] for row, col in zip(rows, pivots)]
    return reduced + [[Fraction(v) for v in row] for row in rows[len(pivots):]], pivots


def certified_ranges(spec, hider, mix, value, max_sets=game_core.DEFAULT_MAX_SETS):
    """Exact (min, max) of each coordinate over the optimal hider set of
    a location game, from one optimal pair (``mix`` as for
    :func:`location_certificate`), or None when the rank test below
    cannot tell. A triple that :func:`location_certificate` refuses is
    no optimal pair, and raises :class:`CertificateFailure` naming the
    failed row or column; so a caller needs no second certificate to
    tell the two outcomes apart.

    Every optimal hider y meets complementary slackness with an optimal
    searcher mix x: (My)_A = v on each set A that x plays, and y_j = 0 on
    each location that x covers above v; and any hider mix that meets
    those equations, y >= 0 and My <= v is optimal. When
    ``location_certificate`` accepts the triple, ``hider`` solves that
    system with sum(y) = 1. If the system has rank n, ``hider`` is its
    one solution and the only optimal hider. If it has rank n - 1, its
    solutions are the line through ``hider`` along the one null
    direction d, and the optimal hiders are the segment of it where
    y >= 0 and My <= v. A ratio test from y >= 0 gives the segment's two
    ends, and each coordinate's range is read off them; while the set
    ``game_core.max_payoff`` names at a candidate end pays more than v,
    that set, a new one each time, joins the test. With a lower rank the
    result is None. The rank comes from the elimination above, not from
    the simplex; no matrix is built.
    """
    failure = location_certificate(spec, hider, mix, value, max_sets)
    if failure is not None:
        raise CertificateFailure(f"{failure[0]} {failure[1]}")
    y, v = parse_rationals(hider), parse_rational(value)
    # Each set as its 0-based indices, and its weight.
    played = [({i - 1 for i in s}, parse_rational(w)) for s, w in mix]
    # y_j = 0 on the over-covered locations: drop them from the system.
    cover = [sum(w for s, w in played if j in s) for j in range(spec.n)]
    free = [j for j, (p, c) in enumerate(zip(spec.captures, cover)) if p * c == v]
    system = [[ONE] * len(free) + [ONE]]
    system += [[spec.captures[j] if j in s else ZERO for j in free] + [v] for s, w in played if w]
    reduced = _reduce(system, len(free), nullity=1)
    if reduced is None:
        return None
    rows, pivots = reduced
    if len(pivots) == len(free):
        return tuple((h, h) for h in y)
    # The column without a pivot spans the null direction: d = 1 there,
    # and minus its entry in each pivot row at that row's pivot column.
    (spare,) = set(range(len(free))) - set(pivots)
    d = [ZERO] * len(y)
    d[free[spare]] = ONE
    for row, col in zip(rows, pivots):
        d[free[col]] = -row[spare]
    # y + z*d stays optimal while each y_j + z*d_j >= 0 and each set's
    # payoff (My)_A + z*(Md)_A <= v, that is while g*z <= h for every
    # limit (g, h). sum(d) = 0 and d != 0, so both ends are finite.
    limits = [(-dj, yj) for dj, yj in zip(d, y)]
    ends = []
    for sign in (-1, 1):
        while True:
            z = sign * min(h / (sign * g) for g, h in limits if sign * g > 0)
            point = [yj + z * dj for yj, dj in zip(y, d)]
            payoff, members = game_core.max_payoff(spec, point, max_sets)
            if payoff <= v:
                break
            g, paid = (sum(spec.captures[i - 1] * x[i - 1] for i in members) for x in (d, y))
            limits.append((g, v - paid))
        ends.append(point)
    return tuple((min(a, b), max(a, b)) for a, b in zip(*ends))


def check_nondecreasing(budgets, values) -> None:
    """Raise :class:`MonotonicityError` if ``values``, one per budget of
    the ascending ``budgets``, ever decrease: extra search time can never
    hurt the searcher."""
    for k, previous, value in zip(budgets[1:], values, values[1:]):
        if value < previous:
            raise MonotonicityError(
                f"value decreased from {previous} to {value} at budget {k}"
            )
