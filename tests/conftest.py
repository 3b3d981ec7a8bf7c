"""Shared test helpers: seeded rational generators, the ``hypothesis``
profile and game strategy, and the acceptance report that gets echoed
into the terminal summary."""

from __future__ import annotations

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
