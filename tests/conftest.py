"""Shared test helpers: seeded rational generators, the ``hypothesis``
profile and game strategy, and the acceptance report that gets echoed
into the terminal summary."""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

# Every property test runs the same examples on every run, writes no
# example database and has no per-example deadline; each test sets its
# own max_examples.
settings.register_profile("exact", derandomize=True, database=None, deadline=None)
settings.load_profile("exact")

# pytest puts src/ on its own path (pyproject's pythonpath); the Python
# processes some tests start import the package from there too.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def pytest_configure(config):
    # Even without an example database, hypothesis caches the constants
    # it reads from the source files; keep them in pytest's cache.
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))

ACCEPTANCE_LINES: list[str] = []


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    """Record and print one acceptance-criterion verdict, then assert it."""
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail:
        line += f" -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def unit_fraction(rng: random.Random, max_den: int = 24, positive: bool = False) -> Fraction:
    """A rational in [0, 1], or (0, 1] when ``positive``."""
    den = rng.randint(1, max_den)
    num = rng.randint(1 if positive else 0, den)
    return Fraction(num, den)


def strictly_decreasing_captures(rng: random.Random, n: int, max_den: int = 60):
    """n distinct capture probabilities in (0, 1], sorted descending."""
    values: set[Fraction] = set()
    while len(values) < n:
        values.add(unit_fraction(rng, max_den=max_den, positive=True))
    return tuple(sorted(values, reverse=True))


def random_matrix(rng: random.Random, max_dim: int = 6, max_den: int = 12):
    """A random rational matrix with entries in [0, 1]."""
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return [[unit_fraction(rng, max_den=max_den) for _ in range(n)] for _ in range(m)]


def random_game(rng: random.Random, max_n: int = 5, max_time: int = 6, max_den: int = 10):
    """A random GameSpec with integer times and rational captures."""
    from searchpursuit import GameSpec

    n = rng.randint(1, max_n)
    times = tuple(rng.randint(1, max_time) for _ in range(n))
    captures = tuple(unit_fraction(rng, max_den=max_den, positive=True) for _ in range(n))
    budget = Fraction(rng.randint(0, sum(times)))
    return GameSpec(times, captures, budget)


def negated_transpose(matrix):
    """The game with the players' roles swapped: its hider is the
    original searcher."""
    return [
        [-Fraction(matrix[i][j]) for i in range(len(matrix))]
        for j in range(len(matrix[0]))
    ]


@st.composite
def small_games(draw):
    """A GameSpec with n <= 6 locations, integer times 1..6 and captures
    k/20."""
    from searchpursuit import GameSpec

    n = draw(st.integers(1, 6))
    times = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    captures = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    budget = draw(st.integers(0, sum(times)))
    return GameSpec(tuple(times), tuple(Fraction(c, 20) for c in captures), budget)


@st.composite
def rational_games(draw, max_n: int = 7):
    """A GameSpec with n <= ``max_n`` locations, times k/d with k in
    1..12 and d in 1..4, captures k/20 and a budget of j/24 of the total
    time."""
    from searchpursuit import GameSpec

    n = draw(st.integers(1, max_n))
    times = [Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 4))) for _ in range(n)]
    captures = [Fraction(draw(st.integers(1, 20)), 20) for _ in range(n)]
    budget = sum(times) * Fraction(draw(st.integers(0, 24)), 24)
    return GameSpec(tuple(times), tuple(captures), budget)


def roadmap_game(seed: int, n: int):
    """The benchmark's random game: times 1..6, captures k/20 and budget
    floor(sum of times / 3), all drawn from ``random.Random(seed)``."""
    from searchpursuit import GameSpec

    rng = random.Random(seed)
    times = tuple(rng.randint(1, 6) for _ in range(n))
    captures = tuple(Fraction(rng.randint(1, 20), 20) for _ in range(n))
    return GameSpec(times, captures, sum(times) // 3)


def rational_time_game(seed: int, n: int):
    """A game with rational times: a/b with a in 10..60 and b in 7..13,
    captures k/20 with k in 10..20, and a budget of a third of the total
    time, all drawn from ``random.Random(seed)``."""
    from searchpursuit import GameSpec

    rng = random.Random(seed)
    times = tuple(Fraction(rng.randint(10, 60), rng.randint(7, 13)) for _ in range(n))
    captures = tuple(Fraction(rng.randint(10, 20), 20) for _ in range(n))
    return GameSpec(times, captures, sum(times) / 3)


def value_lowered_documents(spec, value):
    """A game document for ``spec`` and a solution document that claims
    ``value`` for the uniform hider against one greedily filled set per
    location, each at weight 1/n."""
    from searchpursuit.game_core import greedy_fill

    n = spec.n
    game = {
        "locations": [{"time": str(t), "capture": str(p)} for t, p in zip(spec.times, spec.captures)],
        "budget": str(spec.budget),
    }
    order = range(1, n + 1)
    solution = {
        "value": {"fraction": str(value)},
        "hider": [f"1/{n}"] * n,
        "searcher": [
            {"set": list(greedy_fill(spec, (i,), order)), "probability": f"1/{n}"} for i in order
        ],
    }
    return game, solution


def two_type_matrix(spec):
    """The two-type game's whole type-level payoff matrix: row j inspects
    j = 0..floor(budget / type2_time) slow locations, and the columns
    hide at a random quick location and at a random slow one. The
    reference for the CLI's certificate, which reads only rows 0 and
    floor(budget / type2_time)."""
    from searchpursuit.closed_forms import two_type_payoff

    return [
        [two_type_payoff(spec, j, 1), two_type_payoff(spec, j, 0)]
        for j in range(spec.budget // spec.type2_time + 1)
    ]


# The closed forms' Fraction formulas, one Fraction operation at a time:
# the references the integer kernels of ``closed_forms`` are checked
# against, field by field and in mix order.


def systematic_sets_reference(coverage):
    """Systematic sampling of Fraction coverages c_i in [0, 1] with an
    integer sum: at each cut u (a fractional part of a cumulative sum),
    location i is picked when the first point u + m at or past C_{i-1}
    falls below C_i."""
    from searchpursuit.game_core import SearchSet

    cumulative = [Fraction(0)]
    for c in coverage:
        cumulative.append(cumulative[-1] + c)
    cuts = sorted({c - math.floor(c) for c in cumulative[:-1]} | {Fraction(1)})
    weights = {}
    for u, end in zip(cuts, cuts[1:]):
        members = tuple(
            i
            for i, (lo, hi) in enumerate(zip(cumulative, cumulative[1:]), start=1)
            if math.ceil(lo - u) < hi - u
        )
        weights[members] = weights.get(members, Fraction(0)) + end - u
    return tuple((SearchSet(members), w) for members, w in sorted(weights.items()))


def constant_times_reference(captures, budget):
    """``closed_forms.solve_constant_times`` in Fractions, for a valid
    integer budget."""
    from searchpursuit import GameSpec
    from searchpursuit.closed_forms import ConstantTimeSolution
    from searchpursuit.game_core import HiderStrategy

    one = Fraction(1)
    spec = GameSpec((one,) * len(captures), captures, budget)
    ps, n, k = spec.captures, spec.n, spec.budget
    lam = sum(one / p for p in ps)
    interior_value = k / lam
    min_idx = min(range(n), key=lambda i: ps[i])
    p_min = ps[min_idx]
    if interior_value <= p_min:
        regime, value = "interior", interior_value
        probs = tuple((one / p) / lam for p in ps)
        coverage = [value / p for p in ps]
    else:
        regime, value = "corner", p_min
        probs = tuple(one if i == min_idx else Fraction(0) for i in range(n))
        coverage = [p_min / p for p in ps]
        short = k - sum(coverage)
        for i, c in enumerate(coverage):
            raised = min(one - c, short)
            coverage[i] += raised
            short -= raised
    mix = systematic_sets_reference(coverage)
    return ConstantTimeSolution(lam, regime, HiderStrategy(probs), mix, value)


def staircase_reference(captures, certify=True):
    """``closed_forms.solve_arithmetic_times`` in Fractions, for
    non-increasing captures."""
    from searchpursuit import GameSpec, game_core
    from searchpursuit.closed_forms import ArithmeticTimesSolution
    from searchpursuit.game_core import HiderStrategy, SearchSet
    from searchpursuit.oracle import location_certificate

    one = Fraction(1)
    spec = GameSpec(tuple(range(1, len(captures) + 1)), captures, len(captures))
    ps, n = spec.captures, spec.n
    strict = all(ps[i] < ps[i - 1] for i in range(1, n))
    half = n // 2
    support_start = n - half
    inv_sum = sum(one / ps[j - 1] for j in range(support_start, n + 1))
    value = 1 / inv_sum
    probs = tuple(
        (one / ps[j - 1]) / inv_sum if j >= support_start else Fraction(0)
        for j in range(1, n + 1)
    )
    mix = []
    for j in range(support_start, n + 1):
        weight = (one / ps[j - 1]) / inv_sum
        if j > half:
            partner = n - j
            members = (j,) if partner == 0 else (partner, j)
        else:
            members = game_core.greedy_fill(spec, (j,), range(1, n + 1))
        mix.append((SearchSet(members), weight))
    pairs = [(s.members, w) for s, w in mix]
    verified = certify and location_certificate(spec, probs, pairs, value) is None
    return ArithmeticTimesSolution(
        n, support_start, inv_sum, HiderStrategy(probs), tuple(mix), value,
        verified, strict,
    )
