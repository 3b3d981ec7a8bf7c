"""Closed-form solutions for structured game families.

Three families admit exact solutions without touching the LP:

* constant search times (every location takes one time unit),
* staircase times (location i takes i units, captures decreasing,
  budget exactly n),
* two location types (many interchangeable locations of two kinds).

A fourth result, the floor test for whether a staircase game's value
has bottomed out at the last location's capture probability, reduces
the question to a game one location smaller, which it solves by column
generation (``lp_solver.solve_location_game``).

The constant-times and staircase solvers return a whole answer: the
value, the hider's mix and a searcher mix over maximal feasible sets,
which the oracle's location certificate checks without a matrix, so
the CLI reports them without enumerating a row or running the LP (the
tests still compare them with the LP). The constant-times mix comes
from systematic sampling of the searcher's coverage. The staircase
solver also records in ``verified`` that its output passed that
certificate, since its even-n variant rests on a direct construction.
``two_type_payoff`` is the two-type game's payoff at the level of
types, affine in the number of slow locations inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import game_core
from .game_core import GameSpec, HiderStrategy, SearchSet
from .lp_solver import solve_location_game
from .oracle import location_certificate
from .rationals import parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)


class RegimeError(ValueError):
    """Parameters fall outside the closed form's validity regime."""


# ---------------------------------------------------------------------------
# Constant search times


@dataclass(frozen=True)
class ConstantTimeSolution:
    """``regime`` is "interior" (equalizing mix, value k / inv_capture_sum)
    or "corner" (point mass on a lowest-capture location, value that
    capture probability). ``searcher_mix`` holds at most n sets of k
    locations each, every one a maximal feasible set, with positive
    weights summing to 1."""

    inv_capture_sum: Fraction
    regime: str
    hider: HiderStrategy
    searcher_mix: tuple[tuple[SearchSet, Fraction], ...]
    value: Fraction


def solve_constant_times(captures, budget) -> ConstantTimeSolution:
    """Unit-time locations, integer budget k: the searcher inspects any
    k locations.

    Below the threshold the hider equalizes capture chance times hiding
    probability across all locations; at or beyond it the hider commits
    to a location with the smallest capture probability. On the exact
    boundary both regimes tie and the interior mix is returned.

    The searcher covers location i a share c_i of the time, with
    p_i * c_i >= value: c_i = value / p_i in the interior regime, which
    sums to k; in the corner regime c_i starts at p_min / p_i and entries
    are raised toward 1, in index order, until they sum to k.
    :func:`_systematic_sets` splits that coverage into k-sets.
    """
    captures = tuple(captures)
    spec = GameSpec((ONE,) * len(captures), captures, budget)
    ps, n, k = spec.captures, spec.n, spec.budget
    if k.denominator != 1:
        raise ValueError("budget must be an integer number of inspections")
    if not 1 <= k <= n:
        raise ValueError(
            "budget must be between 1 and the location count; "
            "use the general solver outside that range"
        )
    lam = sum(ONE / p for p in ps)
    interior_value = k / lam
    min_idx = min(range(n), key=lambda i: ps[i])
    p_min = ps[min_idx]
    if interior_value <= p_min:
        regime, value = "interior", interior_value
        probs = tuple((ONE / p) / lam for p in ps)
        coverage = [value / p for p in ps]
    else:
        regime, value = "corner", p_min
        probs = tuple(ONE if i == min_idx else ZERO for i in range(n))
        coverage = [p_min / p for p in ps]
        short = k - sum(coverage)
        for i, c in enumerate(coverage):
            raised = min(ONE - c, short)
            coverage[i] += raised
            short -= raised
    mix = _systematic_sets(coverage)
    return ConstantTimeSolution(lam, regime, HiderStrategy(probs), mix, value)


def _systematic_sets(coverage: list[Fraction]) -> tuple[tuple[SearchSet, Fraction], ...]:
    """Systematic sampling (Madow 1949): split coverages c_i in [0, 1]
    with an integer sum k into weighted k-sets that hold each location i
    exactly c_i of the time.

    Lay the intervals [C_{i-1}, C_i) of the cumulative sums end to end
    on [0, k) and pick the points u + m, m = 0..k-1: each interval is at
    most 1 long, so it holds at most one of them, and it holds one for a
    share c_i of the u in [0, 1). The picked set changes only where u
    passes the fractional part of some C_i, so the gaps between those
    parts give at most n sets, each weighted by its gap's length; sets
    that come out equal are merged. The sets are listed in member order.
    """
    cumulative = [ZERO]
    for c in coverage:
        cumulative.append(cumulative[-1] + c)
    cuts = sorted({c - math.floor(c) for c in cumulative[:-1]} | {ONE})
    weights: dict[tuple[int, ...], Fraction] = {}
    for u, end in zip(cuts, cuts[1:]):
        members = tuple(
            i
            for i, (lo, hi) in enumerate(zip(cumulative, cumulative[1:]), start=1)
            if math.ceil(lo - u) < hi - u
        )
        weights[members] = weights.get(members, ZERO) + end - u
    return tuple((SearchSet(members), w) for members, w in sorted(weights.items()))


# ---------------------------------------------------------------------------
# Staircase search times (t_i = i, budget = n)


@dataclass(frozen=True)
class ArithmeticTimesSolution:
    """Solution of the staircase game.

    The hider mixes over locations ``support_start..n`` inversely to
    their capture probabilities; ``inv_capture_sum`` is the sum of the
    reciprocals over that support and the value is its reciprocal.
    ``searcher_mix`` pairs each supported location with a feasible set
    that covers it. ``verified`` records the exact slack check;
    ``uniqueness_expected`` is True when the captures strictly decrease
    (ties void the hider-uniqueness guarantee, not the solution).
    """

    n: int
    support_start: int
    inv_capture_sum: Fraction
    hider: HiderStrategy
    searcher_mix: tuple[tuple[SearchSet, Fraction], ...]
    value: Fraction
    verified: bool
    uniqueness_expected: bool


def solve_arithmetic_times(captures, certify: bool = True) -> ArithmeticTimesSolution:
    """Location i takes i time units, captures never increase with i,
    and the budget equals the location count n.

    No feasible set reaches two locations in the top half (their times
    alone exceed n), so the hider spreads inverse-proportionally over
    that half, and the searcher mixes complementary pairs {j, n-j}
    ({n} alone when j = n). For even n the support extends one slot
    lower, to location n/2, which the pairs miss; one greedily filled
    feasible set covers it. ``verified`` is the verdict of the oracle's
    location certificate, one exact knapsack and a sum over the mix's
    sets, with no row enumerated; ``certify=False`` skips it
    (``verified`` is then False), for callers that certify the solution
    themselves.
    """
    captures = tuple(captures)
    spec = GameSpec(tuple(range(1, len(captures) + 1)), captures, len(captures))
    ps, n = spec.captures, spec.n
    for i in range(1, n):
        if ps[i] > ps[i - 1]:
            raise ValueError(
                "capture probabilities must not increase with the location index"
            )
    strict = all(ps[i] < ps[i - 1] for i in range(1, n))
    half = n // 2
    support_start = n - half
    inv_sum = sum(ONE / ps[j - 1] for j in range(support_start, n + 1))
    value = 1 / inv_sum
    probs = tuple(
        (ONE / ps[j - 1]) / inv_sum if j >= support_start else ZERO
        for j in range(1, n + 1)
    )
    mix: list[tuple[SearchSet, Fraction]] = []
    for j in range(support_start, n + 1):
        weight = (ONE / ps[j - 1]) / inv_sum
        if j > half:
            partner = n - j
            members = (j,) if partner == 0 else (partner, j)
        else:
            # Even n, j == n/2: pack small locations around it while they fit.
            members = game_core.greedy_fill(spec, (j,), range(1, n + 1))
        mix.append((game_core.search_set(spec, members), weight))
    # Every set of the mix fills the budget or is filled greedily, so each
    # one is a maximal feasible set, hence a row.
    pairs = [(s.members, w) for s, w in mix]
    verified = certify and location_certificate(spec, probs, pairs, value) is None
    return ArithmeticTimesSolution(
        n, support_start, inv_sum, HiderStrategy(probs), tuple(mix), value,
        verified, strict,
    )


# ---------------------------------------------------------------------------
# Value floor test


@dataclass(frozen=True)
class ValueFloorCheck:
    """``holds`` is True exactly when the game's value equals the last
    location's capture probability. ``reduced_value`` is the value of
    the game with that location removed and the budget cut by its
    search time; None when no smaller game exists (single location)."""

    holds: bool
    reduced_value: Fraction | None


def check_value_floor(spec: GameSpec) -> ValueFloorCheck:
    """Has the value bottomed out at the slowest location's capture
    probability?

    Requires staircase times (t_i = i) and budget >= n so the slowest
    location is searchable at all. The floor is reached exactly when
    the one-smaller game, with budget reduced by n, is still worth at
    least that capture probability: then the searcher can always
    inspect location n and still cover the rest well enough, while the
    hider can cap the value at p_n by hiding there. The smaller game is
    solved by column generation at its default row cap.
    """
    n = spec.n
    expected = tuple(Fraction(i) for i in range(1, n + 1))
    if spec.times != expected:
        raise ValueError("the floor test requires search times 1, 2, ..., n")
    if spec.budget < n:
        raise ValueError(
            "budget below n: the slowest location cannot be searched and "
            "the floor test does not apply"
        )
    if n == 1:
        return ValueFloorCheck(True, None)
    reduced = GameSpec(expected[:-1], spec.captures[:-1], spec.budget - n)
    reduced_value = solve_location_game(reduced).value
    return ValueFloorCheck(reduced_value >= spec.captures[-1], reduced_value)


# ---------------------------------------------------------------------------
# Two location types


@dataclass(frozen=True)
class TwoTypeSpec:
    """``type1_count`` quick locations (unit search time, capture
    ``type1_capture``) and ``type2_count`` slow ones (``type2_time``
    units, capture ``type2_capture``), with total budget ``budget``."""

    type1_count: int
    type2_count: int
    type2_time: int
    type1_capture: Fraction
    type2_capture: Fraction
    budget: int

    def __post_init__(self):
        for name in ("type1_count", "type2_count", "type2_time", "budget"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer")
        for name in ("type1_capture", "type2_capture"):
            p = parse_rational(getattr(self, name))
            object.__setattr__(self, name, p)
            if not 0 < p <= 1:
                raise ValueError(f"{name} must be in (0, 1]")


@dataclass(frozen=True)
class TwoTypeSolution:
    """``type1_mass`` is the probability of hiding at a random quick
    location (split evenly within the type). ``searcher_mix`` gives the
    probability of inspecting j slow locations (and budget-many quick
    ones with the rest of the time), for j in 0..max_type2_searches;
    only the mean of j matters and the minimal-support mix achieving
    ``mean_type2_searches`` is returned."""

    type1_mass: Fraction
    mean_type2_searches: Fraction
    max_type2_searches: int
    value: Fraction
    searcher_mix: tuple[tuple[int, Fraction], ...]


def solve_two_type(spec: TwoTypeSpec) -> TwoTypeSolution:
    """Closed form for the two-type game.

    Valid when the searcher could spend the whole budget within either
    type (type1_count >= budget and type2_count * type2_time >= budget)
    and the equalizing mean number of slow-type inspections does not
    exceed the feasible maximum; outside that regime the formula is
    provably wrong and :class:`RegimeError` is raised.
    """
    a, b, tau, k = spec.type1_count, spec.type2_count, spec.type2_time, spec.budget
    p, q = spec.type1_capture, spec.type2_capture
    if a < k or b * tau < k:
        raise RegimeError(
            "the searcher cannot spend the whole budget within one location "
            "type; use the general solver"
        )
    m = k // tau
    denom = a * q + b * p * tau
    type1_mass = a * q / denom
    j_mean = p * b * k / denom
    if j_mean > m:
        raise RegimeError(
            "no searcher mix over 0..floor(budget / type2_time) slow-type "
            "inspections attains the equalizing mean; use the general solver"
        )
    value = p * q * k / denom
    low = math.floor(j_mean)
    high = j_mean - low
    mix = ((low, ONE),) if not high else ((low, ONE - high), (low + 1, high))
    return TwoTypeSolution(type1_mass, j_mean, m, value, mix)


def two_type_payoff(spec: TwoTypeSpec, j, type1_mass) -> Fraction:
    """Searcher win probability when j slow locations are inspected and
    the hider puts ``type1_mass`` on a random quick location."""
    y, j = parse_rational(type1_mass), parse_rational(j)
    quick = spec.type1_capture * (spec.budget - spec.type2_time * j) / spec.type1_count
    return y * quick + (1 - y) * spec.type2_capture * j / spec.type2_count


def expand_two_type(spec: TwoTypeSpec) -> GameSpec:
    """The same game with every location listed individually: quick
    locations first, then slow ones."""
    times = (ONE,) * spec.type1_count + (Fraction(spec.type2_time),) * spec.type2_count
    captures = (spec.type1_capture,) * spec.type1_count + (
        spec.type2_capture,
    ) * spec.type2_count
    return GameSpec(times, captures, Fraction(spec.budget))
