"""Search game model: locations, feasible inspection sets, payoff matrices.

A hider picks one of n locations. The searcher may inspect any set of
locations whose summed search times fit within a time budget; if the
hider's location is inspected, the pursuit succeeds with that
location's capture probability, otherwise the hider survives. The
searcher's undominated pure strategies are the inclusion-maximal
feasible sets: a strictly larger feasible set finds the hider at least
as often and sometimes strictly more often.

A row is its members, and a payoff matrix is a tuple of exact
``Fraction`` rows, so downstream game values reproduce bit for bit.
Enumeration works on integers instead: times and budget are scaled by
their common denominator, the feasible sets are counted by total
before any is built (so an instance over the cap is refused at once),
and one walk lists the maximal sets, testing maximality as it goes.
On the same integers ``build_matrix`` checks every row it is given,
``is_maximal`` tests one set without a walk, ``greedy_fill`` fills one
up, and ``max_payoff`` solves the searcher's best reply to a hider mix
as a knapsack over a Pareto front of totals; ``lp_solver`` reads them
too, so only this module knows how a game is scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .rationals import parse_rational, parse_rationals

DEFAULT_MAX_SETS = 1 << 22


class InstanceTooLarge(RuntimeError):
    """Enumeration refused: the instance exceeds the configured subset cap."""


@dataclass(frozen=True)
class GameSpec:
    """One game instance: per-location search times and capture
    probabilities plus the searcher's total time budget."""

    times: tuple[Fraction, ...]
    captures: tuple[Fraction, ...]
    budget: Fraction

    def __post_init__(self):
        object.__setattr__(self, "times", parse_rationals(self.times))
        object.__setattr__(self, "captures", parse_rationals(self.captures))
        object.__setattr__(self, "budget", parse_rational(self.budget))
        if not self.times:
            raise ValueError("at least one location is required")
        if len(self.times) != len(self.captures):
            raise ValueError("times and captures must have equal length")
        # Denominators are positive, so each test is one integer
        # comparison of a numerator with 0 or with its denominator.
        for i, t in enumerate(self.times, start=1):
            if t.numerator <= 0:
                raise ValueError(f"search time of location {i} must be positive")
        for i, p in enumerate(self.captures, start=1):
            if not 0 < p.numerator <= p.denominator:
                raise ValueError(
                    f"capture probability of location {i} must be in (0, 1]"
                )
        if self.budget.numerator < 0:
            raise ValueError("budget must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.times)

    @cached_property
    def _scaled(self) -> tuple[list[int], int]:
        """(times, budget) multiplied by the least common multiple of
        their denominators, as integers. Computed once per instance, for
        enumeration, the count, the row checks and the knapsack alike."""
        scale = math.lcm(self.budget.denominator, *(t.denominator for t in self.times))
        times = [t.numerator * (scale // t.denominator) for t in self.times]
        return times, self.budget.numerator * (scale // self.budget.denominator)

    @cached_property
    def _time_of(self) -> dict[int, int]:
        """Each location number's scaled time."""
        return dict(enumerate(self._scaled[0], start=1))

    @cached_property
    def _by_time(self) -> list[int]:
        """Location numbers in increasing order of search time."""
        return sorted(self._time_of, key=self._time_of.__getitem__)


@dataclass(frozen=True, order=True)
class SearchSet:
    """A set of locations: its members, sorted 1-based indices."""

    members: tuple[int, ...]

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.members) + "}"


@dataclass(frozen=True)
class HiderStrategy:
    """A mixed hiding strategy: nonnegative weights summing to exactly 1."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        probs = parse_rationals(self.probs)
        object.__setattr__(self, "probs", probs)
        if any(p.numerator < 0 for p in probs):
            raise ValueError("hider probabilities must be nonnegative")
        # The sum over the common denominator D is D exactly when it is 1.
        den = math.lcm(*(p.denominator for p in probs))
        if sum(p.numerator * (den // p.denominator) for p in probs) != den:
            raise ValueError("hider probabilities must sum to exactly 1")


def check_size(spec: GameSpec, max_sets: int = DEFAULT_MAX_SETS) -> None:
    """Raise :class:`InstanceTooLarge` if more than ``max_sets`` sets of
    ``spec`` are feasible, the refusal :func:`maximal_feasible_sets`
    gives, without building any set.

    Counts subsets by total with a 0/1 knapsack over a dict of totals.
    Each distinct total belongs to at least one set, so the dict never
    holds more than ``max_sets`` totals either.
    """
    times, budget = spec._scaled
    counts = {0: 1}
    found = 1
    for t in times:
        if found > max_sets:
            break
        for total, c in list(counts.items()):
            if total + t <= budget:
                counts[total + t] = counts.get(total + t, 0) + c
                found += c
    if found > max_sets:
        raise InstanceTooLarge(
            f"more than {max_sets} feasible sets (--max-subsets); "
            "instance too large for exhaustive enumeration"
        )


def maximal_feasible_sets(
    spec: GameSpec, max_sets: int = DEFAULT_MAX_SETS
) -> list[SearchSet]:
    """Feasible sets with no feasible strict superset, in lexicographic
    member order.

    These are the searcher's undominated pure strategies. The empty set
    only survives when no single location fits the budget. Raises
    :class:`InstanceTooLarge` when there are more than ``max_sets``
    feasible sets, maximal or not, before any is built.

    One walk over the feasible sets in integer arithmetic keeps the
    maximal ones: a set is maximal when its slack is below the time of
    every location left out, those skipped earlier on the path and those
    after its last member.
    """
    check_size(spec, max_sets)
    times, budget = spec._scaled
    n = len(times)
    # suffix[i] is the least of times[i:]; past the end nothing fits.
    suffix = [budget + 1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = min(times[i], suffix[i + 1])
    out: list[SearchSet] = []
    members: list[int] = []

    def walk(total: int, start: int, skipped: int) -> None:
        # ``skipped`` is the least time of a location before ``start``
        # that is not in the set.
        slack = budget - total
        if slack < min(skipped, suffix[start]):
            out.append(SearchSet(tuple(members)))
        for i in range(start, n):
            if suffix[i] > slack:
                break
            t = times[i]
            if t <= slack:
                members.append(i + 1)
                walk(total + t, i + 1, skipped)
                members.pop()
            if t < skipped:
                skipped = t

    walk(0, 0, budget + 1)
    return out


def is_maximal(spec: GameSpec, members: Sequence[int]) -> bool:
    """True exactly when ``members``, a list of location numbers, lists
    the members of a set in :func:`maximal_feasible_sets`: they are
    distinct, lie in 1..n and fit the budget, and every location left
    out takes longer than the time that is left."""
    time_of = spec._time_of
    chosen = set(members)
    if len(chosen) != len(members) or not chosen <= time_of.keys():
        return False
    slack = spec._scaled[1] - sum(map(time_of.__getitem__, chosen))
    if slack < 0:
        return False
    for i in spec._by_time:
        if i not in chosen:
            # The quickest location left out decides; the rest take longer.
            return time_of[i] > slack
    return True


def greedy_fill(spec: GameSpec, members, order) -> tuple[int, ...]:
    """``members`` with each location of ``order`` added in turn while it
    fits: a maximal set, since a location passed over took longer than
    the time then left, which only shrinks."""
    times, budget = spec._scaled
    room = budget - sum(times[i - 1] for i in members)
    out = set(members)
    for i in order:
        if i not in out and times[i - 1] <= room:
            out.add(i)
            room -= times[i - 1]
    return tuple(sorted(out))


def max_payoff(
    spec: GameSpec, hider: Sequence[Fraction], max_sets: int = DEFAULT_MAX_SETS
) -> tuple[Fraction, tuple[int, ...]]:
    """The most any feasible set pays against the hider mix ``hider``
    (max of sum(p_i * h_i) over sets within budget), and one such set.

    An exact 0/1 knapsack over the Pareto front of (scaled total,
    payoff) pairs (Nemhauser and Ullmann 1969), in integers over the
    payoffs' common denominator: a total is kept only if it pays
    strictly more than every smaller total, with a bit mask of one set
    that reaches it. Each location's shifted copy of the front is merged
    into it once, in location order. Locations the hider never uses, or
    that alone overrun the budget, are skipped. The set named is the one
    of greatest payoff, of least total among those, and of least mask
    among those: it leaves out the highest-numbered location where two
    such sets differ. Every entry of the front is a distinct total, so
    the front never outgrows the count :func:`check_size` bounds; it is
    bounded itself, and raises :class:`InstanceTooLarge` once it holds
    more than ``max_sets`` entries.
    """
    times, budget = spec._scaled
    # Each benefit p_i * h_i as an integer pair, left unreduced.
    used = [
        (i, t, p.numerator * h.numerator, p.denominator * h.denominator)
        for i, (t, p, h) in enumerate(zip(times, spec.captures, hider), start=1)
        if h and t <= budget
    ]
    den = math.lcm(*(d for *_, d in used))
    # (total, -payoff, mask), in increasing total and so decreasing
    # -payoff. A shifted entry's mask holds bit i, above every bit of the
    # front's, so at an equal total and payoff the sort puts the front's
    # entry, the one of lesser mask, first.
    front = [(0, 0, 0)]
    for i, t, b, d in used:
        gain, bit, room = b * (den // d), 1 << i, budget - t
        merged = sorted(front + [(T + t, Q - gain, M | bit) for T, Q, M in front if T <= room])
        front, least = [], 1
        for entry in merged:
            if entry[1] < least:
                front.append(entry)
                least = entry[1]
        if len(front) > max_sets:
            raise InstanceTooLarge(
                f"more than {max_sets} distinct set totals (--max-subsets); "
                "instance too large for the knapsack certificate"
            )
    _, loss, mask = front[-1]
    return Fraction(-loss, den), tuple(i for i in range(1, spec.n + 1) if mask >> i & 1)


def build_matrix(
    spec: GameSpec, rows: Sequence[SearchSet]
) -> tuple[tuple[Fraction, ...], ...]:
    """The payoff matrix over ``rows`` in the given order: entry (A, i)
    is the capture probability of location i when i is in A, and 0
    otherwise. A row with a location outside 1..n, or whose members
    take longer than the budget, raises ``ValueError``."""
    times, budget = spec._scaled
    zero = Fraction(0)
    n = spec.n
    entries = []
    for s in rows:
        row = [zero] * n
        for i in s.members:
            if not 1 <= i <= n:
                raise ValueError(f"row {s} has location {i} outside 1..{n}")
            row[i - 1] = spec.captures[i - 1]
        if sum(times[i - 1] for i in s.members) > budget:
            raise ValueError(f"row {s} is infeasible for budget {spec.budget}")
        entries.append(tuple(row))
    return tuple(entries)
