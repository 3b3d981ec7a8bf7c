"""Invariants of the game value that the paper implies, as properties
over random games."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import small_games, two_type_matrix
from searchpursuit import GameSpec, InstanceTooLarge
from searchpursuit.cli import _two_type_failure, main, sweep_budget
from searchpursuit.closed_forms import (
    RegimeError,
    TwoTypeSpec,
    expand_two_type,
    solve_arithmetic_times,
    solve_constant_times,
    solve_two_type,
)
from searchpursuit.game_core import build_matrix, check_size, maximal_feasible_sets
from searchpursuit.lp_solver import solve_zero_sum
from searchpursuit.oracle import certified_ranges, verify_equilibrium
from searchpursuit.rationals import format_rational


def solved(spec: GameSpec):
    return solve_zero_sum(build_matrix(spec, maximal_feasible_sets(spec)))


def game_value(spec: GameSpec) -> F:
    return solved(spec).value


@settings(max_examples=100)
@given(small_games(), st.integers(1, 12), st.integers(1, 12))
def test_scaling_times_and_budget_keeps_the_value(spec, num, den):
    # Scaling every time and the budget by c > 0 keeps the same sets
    # feasible, so the game and its value are unchanged.
    c = F(num, den)
    scaled = GameSpec(
        tuple(c * t for t in spec.times), spec.captures, c * spec.budget
    )
    assert game_value(scaled) == game_value(spec)


@settings(max_examples=100)
@given(small_games(), st.data())
def test_value_is_nondecreasing_in_each_capture(spec, data):
    i = data.draw(st.integers(0, spec.n - 1), label="location")
    raised = data.draw(
        st.integers(int(spec.captures[i] * 20), 20), label="raised capture, in 20ths"
    )
    captures = list(spec.captures)
    captures[i] = F(raised, 20)
    higher = GameSpec(spec.times, tuple(captures), spec.budget)
    assert game_value(higher) >= game_value(spec)


@settings(max_examples=60)
@given(small_games(), st.data())
def test_permuting_the_locations_permutes_the_answer(spec, data):
    order = data.draw(st.permutations(range(spec.n)), label="order")
    permuted = GameSpec(
        tuple(spec.times[i] for i in order),
        tuple(spec.captures[i] for i in order),
        spec.budget,
    )
    sol, permuted_sol = solved(spec), solved(permuted)
    assert permuted_sol.value == sol.value
    mix = zip((s.members for s in maximal_feasible_sets(spec)), sol.row_strategy)
    ranges = certified_ranges(spec, sol.col_strategy, list(mix), sol.value)
    if ranges is not None and all(lo == hi for lo, hi in ranges):
        # The one optimal hider of a relabelled game is the relabelled one.
        assert list(permuted_sol.col_strategy) == [sol.col_strategy[i] for i in order]


@settings(max_examples=40)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=6), st.data())
def test_constant_times_closed_form_is_the_lp_value(captures, data):
    k = data.draw(st.integers(1, len(captures)), label="budget")
    ps = tuple(F(c, 20) for c in captures)
    closed = solve_constant_times(ps, k)
    assert closed.value == game_value(GameSpec((1,) * len(ps), ps, k))


@settings(max_examples=40)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=7))
def test_arithmetic_times_closed_form_is_the_lp_value(captures):
    ps = tuple(F(c, 20) for c in sorted(captures, reverse=True))
    n = len(ps)
    closed = solve_arithmetic_times(ps, certify=False)
    assert closed.value == game_value(GameSpec(tuple(range(1, n + 1)), ps, n))


def certified_on_full_matrix(spec: GameSpec, closed) -> bool:
    """Does ``verify_equilibrium`` accept the closed form's value, hider
    and searcher mix on the matrix over every maximal feasible set?"""
    rows = maximal_feasible_sets(spec)
    index = {s.members: i for i, s in enumerate(rows)}
    searcher = [F(0)] * len(rows)
    for s, w in closed.searcher_mix:
        searcher[index[s.members]] += w
    matrix = build_matrix(spec, rows)
    return verify_equilibrium(matrix, closed.hider.probs, searcher, closed.value).ok


@st.composite
def unit_time_games(draw):
    """(captures, k, regime): at most 8 unit-time locations, budget
    1 <= k <= n, in the constant-times regime drawn, where "boundary" has
    k / sum(1/p) equal to the least capture exactly."""
    regime = draw(st.sampled_from(["interior", "corner", "boundary"]), label="regime")
    if regime == "boundary":
        # One location at p0 and n - 1 at q = (n - 1) p0 / (k - 1) put
        # sum(1/p) at k / p0; k = 1 needs n = 1.
        n = draw(st.integers(1, 8), label="n")
        k = draw(st.integers(1, n), label="k")
        if k == 1:
            return (F(draw(st.integers(1, 20)), 20),), 1, regime
        p0 = F(draw(st.integers(1, 20 * (k - 1) // (n - 1))), 20)
        captures = [p0] + [(n - 1) * p0 / (k - 1)] * (n - 1)
        order = draw(st.permutations(range(n)), label="order")
        return tuple(captures[i] for i in order), k, regime
    captures = tuple(
        F(c, 20) for c in draw(st.lists(st.integers(1, 20), min_size=1, max_size=8))
    )
    n = len(captures)
    # Interior exactly when k <= min(p) * sum(1/p), which is at least 1.
    split = min(n, int(min(captures) * sum(1 / p for p in captures)))
    if regime == "interior":
        return captures, draw(st.integers(1, split), label="k"), regime
    assume(split < n)
    return captures, draw(st.integers(split + 1, n), label="k"), regime


@settings(max_examples=80)
@given(unit_time_games())
def test_constant_times_mix_is_certified_on_the_full_matrix(game):
    captures, k, regime = game
    n = len(captures)
    closed = solve_constant_times(captures, k)
    assert closed.regime == ("corner" if regime == "corner" else "interior")
    if regime == "boundary":
        assert closed.value == min(captures)
    mix = closed.searcher_mix
    assert len(mix) <= n
    assert all(len(s.members) == k for s, _ in mix)
    assert len({s for s, _ in mix}) == len(mix)
    assert all(w > 0 for _, w in mix)
    assert sum(w for _, w in mix) == 1
    assert certified_on_full_matrix(GameSpec((1,) * n, captures, k), closed)


@settings(max_examples=40)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=9))
def test_arithmetic_times_mix_is_certified_on_the_full_matrix(captures):
    ps = tuple(F(c, 20) for c in sorted(captures, reverse=True))
    n = len(ps)
    closed = solve_arithmetic_times(ps, certify=False)
    assert certified_on_full_matrix(GameSpec(tuple(range(1, n + 1)), ps, n), closed)


@settings(max_examples=40)
@given(
    st.integers(1, 5), st.integers(1, 4), st.integers(1, 3),
    st.integers(1, 20), st.integers(1, 20), st.integers(1, 5),
)
def test_two_type_closed_form_is_the_lp_value(a, b, tau, p, q, k):
    spec = TwoTypeSpec(a, b, tau, F(p, 20), F(q, 20), k)
    try:
        closed = solve_two_type(spec)
    except RegimeError:
        assume(False)
    assert closed.value == game_value(expand_two_type(spec))


@st.composite
def two_type_claims(draw):
    """An in-regime two-type game with k <= 12 and tau <= 5, and a claim
    near its closed-form answer: the value moved by at most 1/200, the
    quick-type mass by at most 1/50, and either the closed form's mix, a
    small arbitrary one, one with a negative weight, or one whose weights
    do not sum to 1."""
    k, tau = draw(st.integers(1, 12), label="k"), draw(st.integers(1, 5), label="tau")
    a = k + draw(st.integers(0, 3), label="a - k")
    b = -(-k // tau) + draw(st.integers(0, 3), label="b - ceil(k / tau)")
    p, q = (F(draw(st.integers(1, 20), label=name), 20) for name in ("p", "q"))
    spec = TwoTypeSpec(a, b, tau, p, q, k)
    try:
        closed = solve_two_type(spec)
    except RegimeError:
        assume(False)
    value = closed.value + draw(st.fractions(F(-1, 200), F(1, 200), max_denominator=400))
    mass = closed.type1_mass + draw(st.fractions(F(-1, 50), F(1, 50), max_denominator=100))
    m = closed.max_type2_searches
    mix = list(closed.searcher_mix)
    kind = draw(st.sampled_from(["closed", "arbitrary", "negative", "unnormalised"]))
    if kind == "arbitrary":
        raw = draw(st.lists(st.tuples(st.integers(0, m), st.integers(1, 5)), min_size=1, max_size=3))
        mix = [(j, F(w, sum(w for _, w in raw))) for j, w in raw]
    elif kind == "negative":
        # Paid back at another count, or at the same one, where the two cancel.
        w = F(1, draw(st.integers(1, 10)))
        mix += [(draw(st.integers(0, m)), -w), (draw(st.integers(0, m)), w)]
    elif kind == "unnormalised":
        c = draw(st.fractions(F(1, 2), F(3, 2), max_denominator=10).filter(lambda c: c != 1))
        mix = [(j, c * w) for j, w in mix]
    return spec, (mass, 1 - mass), mix, value


def whole_matrix_failure(args, spec, hider, pairs, value):
    """The two-type certificate on the whole type-level matrix under
    ``verify_equilibrium``: the first negative slack, rows first."""
    matrix = two_type_matrix(spec)
    searcher = [F(0)] * len(matrix)
    for j, w in pairs:
        searcher[j] += w
    cert = verify_equilibrium(matrix, hider, searcher, value)
    failures = [("row", f"j={j}", s) for j, s in enumerate(cert.hider_slack)]
    columns = zip(("quick-type", "slow-type"), cert.searcher_slack)
    failures += [("column", name, s) for name, s in columns]
    return next((failure for failure in failures if failure[2] < 0), None)


@settings(max_examples=400)
@given(two_type_claims())
def test_two_type_certificate_on_two_rows_is_the_whole_matrix_certificate(claim):
    """Rows 0 and floor(k / tau) give the same ValueError, or the same
    failed (kind, name, slack), as every row of the type-level game."""

    def outcome(certificate):
        try:
            return certificate(None, *claim)
        except ValueError as exc:
            return str(exc)

    assert outcome(_two_type_failure) == outcome(whole_matrix_failure)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def solve_and_alter(spec: GameSpec, alter):
    """Exit code and standard output of ``verify`` on the ``solve --format
    json`` document of ``spec`` after ``alter`` has changed it."""
    game = {
        "locations": [
            {"time": format_rational(t), "capture": format_rational(p)}
            for t, p in zip(spec.times, spec.captures)
        ],
        "budget": format_rational(spec.budget),
    }
    with tempfile.TemporaryDirectory() as tmp:
        game_path, solution_path = Path(tmp, "game.json"), Path(tmp, "solution.json")
        game_path.write_text(json.dumps(game), encoding="utf-8")
        code, out = run_main(["solve", str(game_path), "--format", "json"])
        assert code == 0
        document = json.loads(out)
        alter(document)
        solution_path.write_text(json.dumps(document), encoding="utf-8")
        return run_main(["verify", str(game_path), str(solution_path)])


nonzero_deltas = st.fractions(-2, 2, max_denominator=50).filter(bool)


@settings(max_examples=30)
@given(small_games(), nonzero_deltas)
def test_verify_fails_a_moved_value(spec, delta):
    def move(document):
        value = document["value"]
        value["fraction"] = format_rational(F(value["fraction"]) + delta)

    code, out = solve_and_alter(spec, move)
    assert code == 1
    assert "certificate: ok" not in out


@settings(max_examples=30)
@given(small_games(), st.sampled_from(["hider", "searcher"]), st.data(), nonzero_deltas)
def test_verify_fails_a_changed_probability(spec, side, data, delta):
    def change(document):
        entries = document[side]
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        if side == "hider":
            entries[i] = format_rational(F(entries[i]) + delta)
        else:
            entry = entries[i]
            entry["probability"] = format_rational(F(entry["probability"]) + delta)

    code, out = solve_and_alter(spec, change)
    assert code != 0
    assert "certificate: ok" not in out


def refusal(call):
    """The text of the ``InstanceTooLarge`` that ``call()`` raises, or None."""
    try:
        call()
    except InstanceTooLarge as exc:
        return str(exc)
    return None


@settings(max_examples=60)
@given(small_games(), st.lists(st.integers(0, 12), min_size=1, max_size=4), st.integers(1, 8))
def test_sweep_is_refused_iff_some_budget_is_over_the_cap(spec, budgets, cap):
    """The sweep's one size check, at its largest budget, refuses exactly
    the sweeps that a check at every budget refuses, in the same words."""
    checks = [refusal(lambda: check_size(replace(spec, budget=k), cap)) for k in budgets]
    expected = next((text for text in checks if text), None)
    assert refusal(lambda: sweep_budget(spec.times, spec.captures, budgets, cap)) == expected


@settings(max_examples=60)
@given(
    st.integers(1, 10), st.integers(1, 6), st.integers(1, 3),
    st.integers(1, 20), st.integers(1, 20), st.integers(1, 10), st.integers(1, 400),
)
def test_two_type_cross_check_is_skipped_iff_enumeration_refuses(a, b, tau, p, q, k, cap):
    """``solve`` reads the block for a lower bound on the feasible sets
    before it expands the game; that bound never skips a cross-check
    that the enumeration of the expanded game would run."""
    spec = TwoTypeSpec(a, b, tau, F(p, 20), F(q, 20), k)
    try:
        solve_two_type(spec)
    except RegimeError:
        assume(False)
    block = {"a": a, "b": b, "tau": tau, "p": f"{p}/20", "q": f"{q}/20", "k": k}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "game.json")
        path.write_text(json.dumps({"mode": "two-type", "two_type": block}), encoding="utf-8")
        code, out = run_main(["solve", str(path), "--format", "json", "--max-subsets", str(cap)])
    assert code == 0
    refused = refusal(lambda: maximal_feasible_sets(expand_two_type(spec), cap))
    assert json.loads(out)["provenance"] == ("closed-form" if refused else "both")
