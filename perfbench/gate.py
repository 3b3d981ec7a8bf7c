"""Correctness gate, run after the timed passes.

Every JSON answer is re-certified with ``oracle.verify_equilibrium``,
which shares no code with the simplex, against a payoff matrix the gate
builds itself; the answers are compared with the pinned fractions when
the seed has them, and staircase values with 1/sum(1/p) over the
hider's support. ``check`` returns the answers and the first problem it
found, or None.
"""

from __future__ import annotations

import json
from fractions import Fraction


class GateFailure(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def _json_part(text: str) -> dict:
    """The JSON document of an output; with ``--format both`` it follows
    the table, starting at the first line that opens an object."""
    lines = text.splitlines(keepends=True)
    start = next((i for i, line in enumerate(lines) if line.startswith("{")), None)
    _require(start is not None, "no JSON document in the output")
    try:
        return json.loads("".join(lines[start:]))
    except json.JSONDecodeError as exc:
        raise GateFailure(f"output is not JSON: {exc}") from None


def _spec(game: dict, budget=None):
    from searchpursuit.game_core import GameSpec

    times = tuple(Fraction(loc["time"]) for loc in game["locations"])
    captures = tuple(Fraction(loc["capture"]) for loc in game["locations"])
    return GameSpec(times, captures, Fraction(game["budget"] if budget is None else budget))


def _matrix(spec):
    from searchpursuit import game_core

    rows = game_core.maximal_feasible_sets(spec)
    return rows, game_core.build_matrix(spec, rows)


def _certify(matrix, hider, searcher, value, what: str) -> None:
    from searchpursuit.oracle import verify_equilibrium

    try:
        cert = verify_equilibrium(matrix, hider, searcher, value)
    except ValueError as exc:
        raise GateFailure(f"{what}: {exc}") from None
    _require(cert.ok, f"{what}: equilibrium certificate fails")


def staircase_value(captures) -> Fraction:
    """1 / sum(1/p_i) over the staircase hider's support n - n//2 .. n."""
    n = len(captures)
    return 1 / sum(1 / Fraction(p) for p in captures[n - n // 2 - 1 :])


def _check_solve(request, doc: dict) -> list:
    game = request.game()
    spec = _spec(game)
    rows, matrix = _matrix(spec)
    index = {s.members: i for i, s in enumerate(rows)}
    searcher = [Fraction(0)] * len(rows)
    for item in doc["searcher"]:
        members = tuple(item["set"])
        _require(members in index, f"searcher set {list(members)} is not a maximal feasible set")
        searcher[index[members]] = Fraction(item["probability"])
    value = Fraction(doc["value"]["fraction"])
    _certify(matrix, [Fraction(h) for h in doc["hider"]], searcher, value, "solve")
    if game.get("mode") == "arithmetic-times":
        captures = [loc["capture"] for loc in game["locations"]]
        _require(value == staircase_value(captures), "staircase value is not 1/sum(1/p)")
    return [str(value)]


def _check_sweep(request, doc: dict) -> list:
    from searchpursuit.lp_solver import solve_zero_sum

    answers = []
    for entry in doc["sweep"]:
        spec = _spec(request.game(), budget=Fraction(entry["budget"]))
        _, matrix = _matrix(spec)
        value = Fraction(entry["value"]["fraction"])
        # Any optimal searcher mix certifies the sweep's hider and value.
        searcher = solve_zero_sum(matrix).row_strategy
        hider = [Fraction(h) for h in entry["hider"]]
        _certify(matrix, hider, searcher, value, f"sweep budget {entry['budget']}")
        answers.append(f"{value} unique={entry['unique']}")
    return answers


def _check_learning(request, doc: dict) -> list:
    from searchpursuit.learning import LearningSpec, payoff_matrix

    argv = request.argv
    spec = LearningSpec(argv[argv.index("--low") + 1], argv[argv.index("--high") + 1])
    mix = (Fraction(doc["stay_probability"]), Fraction(doc["switch_probability"]))
    value = Fraction(doc["value"]["fraction"])
    _certify(payoff_matrix(spec), mix, mix, value, "learning")
    return [str(value)]


def _check_two_type(request, doc: dict) -> list:
    block = request.game()["two_type"]
    a, b, tau, k = (Fraction(block[x]) for x in ("a", "b", "tau", "k"))
    p, q = Fraction(block["p"]), Fraction(block["q"])
    # Rows: j slow locations inspected; columns: hide quick, hide slow.
    matrix = [[p * (k - tau * j) / a, q * j / b] for j in range(int(k // tau) + 1)]
    searcher = [Fraction(0)] * len(matrix)
    for item in doc["searcher"]:
        searcher[item["type2_searched"]] = Fraction(item["probability"])
    mass = Fraction(doc["hider"]["type1_mass"])
    value = Fraction(doc["value"]["fraction"])
    _certify(matrix, (mass, 1 - mass), searcher, value, "two-type")
    return [str(value)]


def _check_verify(request, text: str) -> list:
    _require(text == "certificate: ok\n", f"verify printed {text!r}")
    game_name, solution_name = request.argv[1], request.argv[2]
    value = Fraction(request.files[solution_name]["value"]["fraction"])
    captures = [loc["capture"] for loc in request.files[game_name]["locations"]]
    _require(value == staircase_value(captures), "staircase value is not 1/sum(1/p)")
    return [str(value)]


_JSON_CHECKS = {
    "solve": _check_solve,
    "sweep": _check_sweep,
    "learning": _check_learning,
    "two-type": _check_two_type,
}


def check(request, exit_code: int, text: str):
    """(answers, problem) for one output; ``problem`` is None when the
    output is correct."""
    try:
        _require(exit_code == 0, f"exit code {exit_code}")
        if request.kind == "verify":
            answers = _check_verify(request, text)
        else:
            answers = _JSON_CHECKS[request.kind](request, _json_part(text))
        if request.expected is not None:
            _require(
                answers == request.expected,
                f"answers {answers} differ from the pinned {request.expected}",
            )
    except GateFailure as exc:
        return None, str(exc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return None, f"malformed output: {exc!r}"
    return answers, None
