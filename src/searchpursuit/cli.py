"""Command-line front end: solve, sweep, learning, verify.

Game files are JSON; every number is read exactly: JSON decimals are
read as their literal text, so 0.15 means exactly 3/20, and strings
like "1/3" are fractions. ``rationals`` parses them and refuses one too
long to print back. Results go out as a human table, a JSON result
document, or both, in one layout for every mode. Identical inputs
produce byte-identical output unless --timing is requested.

The general mode enumerates the maximal sets, builds the matrix and
solves the LP; the closed-form location modes (constant-times,
arithmetic-times) compute their value, hider and searcher mix directly
and neither enumerate nor run the LP. ``verify`` reads each single-game
document into the check for its mode. Every location-list solution,
solved or verified, is certified by ``oracle.location_certificate``,
which needs no matrix and names the first row or column that fails.
Two-type and learning solutions are certified on their small matrices.

``main`` may be called any number of times in one process. Every call
parses with one parser, built on first use; parsing never changes it,
since each call gets a fresh Namespace and the subcommand defaults live
on the parser.

Exit codes: 0 success, 1 failed certificate or internal inconsistency,
2 invalid input (among them usage errors such as ``--max-subsets 0``,
and an unwritable ``--output``), 3 instance too large for
exhaustive enumeration or number too large to print back, 141 standard
output closed early (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial

from . import closed_forms, game_core, learning, lp_solver, oracle
from .rationals import NumberTooLarge, format_decimal, format_rational, parse_rational

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141

# The LP cross-checks an expanded two-type game only up to this many
# feasible sets, maximal or not; past that the closed form stands alone.
TWO_TYPE_CROSSCHECK_SETS = 2048


class InputError(ValueError):
    pass


class CertificateFailure(RuntimeError):
    pass


def _fail(message: str):
    raise InputError(message)


# ---------------------------------------------------------------------------
# Game file parsing


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:
        # Past the digit limit: kept as text for parse_rational to refuse.
        return text


def _number(value, where: str) -> Fraction:
    """``parse_rational`` for input read from outside the program, with
    ``where`` named in the InputError or NumberTooLarge it raises."""
    try:
        return parse_rational(value)
    except NumberTooLarge as exc:
        raise NumberTooLarge(f"{where}: {exc}") from None
    except (ValueError, TypeError) as exc:
        _fail(f"{where}: {exc}")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=str, parse_int=_json_int)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"{path}: invalid JSON: {exc}")


def _rational_field(container: dict, key: str, where: str) -> Fraction:
    if key not in container:
        _fail(f"{where}: missing field '{key}'")
    return _number(container[key], f"{where}.{key}")


def _int_field(container: dict, key: str, where: str) -> int:
    value = _rational_field(container, key, where)
    if value.denominator != 1:
        _fail(f"{where}.{key}: must be an integer")
    return int(value)


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        _fail(f"{where}: unknown fields: {', '.join(sorted(unknown))}")


def _mode_block(doc: dict, key: str, mode: str, allowed, path: str):
    """The object under ``key`` that ``mode`` reads its parameters from,
    with the name to report errors under."""
    if key not in doc:
        _fail(f"{path}: mode '{mode}' requires a '{key}' block")
    block = doc[key]
    where = f"{path}: {key}"
    if not isinstance(block, dict):
        _fail(f"{where} must be an object")
    _reject_unknown(block, allowed, where)
    return block, where


def load_game_file(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        _fail(f"{path}: top level must be a JSON object")
    _reject_unknown(doc, {"locations", "budget", "mode", "two_type", "learning"}, path)
    mode = doc.get("mode", "general")
    if not isinstance(mode, str) or mode not in _MODES:
        _fail(f"{path}: mode must be one of: {', '.join(_MODES)}")
    return {**doc, "mode": mode}


def game_spec_from(doc: dict, path: str) -> game_core.GameSpec:
    if "locations" not in doc:
        _fail(f"{path}: missing 'locations'")
    if "budget" not in doc:
        _fail(f"{path}: missing 'budget'")
    locations = doc["locations"]
    if not isinstance(locations, list) or not locations:
        _fail(f"{path}: 'locations' must be a nonempty list")
    times, captures = [], []
    for idx, loc in enumerate(locations, start=1):
        where = f"{path}: locations[{idx}]"
        if not isinstance(loc, dict):
            _fail(f"{where} must be an object")
        _reject_unknown(loc, {"time", "capture"}, where)
        times.append(_rational_field(loc, "time", where))
        captures.append(_rational_field(loc, "capture", where))
    budget = _number(doc["budget"], f"{path}: budget")
    try:
        return game_core.GameSpec(tuple(times), tuple(captures), budget)
    except ValueError as exc:
        _fail(f"{path}: {exc}")


def two_type_spec_from(doc: dict, path: str) -> closed_forms.TwoTypeSpec:
    block, where = _mode_block(
        doc, "two_type", "two-type", {"a", "b", "tau", "p", "q", "k"}, path
    )
    fields = dict(
        type1_count=_int_field(block, "a", where),
        type2_count=_int_field(block, "b", where),
        type2_time=_int_field(block, "tau", where),
        type1_capture=_rational_field(block, "p", where),
        type2_capture=_rational_field(block, "q", where),
        budget=_int_field(block, "k", where),
    )
    try:
        return closed_forms.TwoTypeSpec(**fields)
    except ValueError as exc:
        _fail(f"{where}: {exc}")


def learning_spec_from(doc: dict, path: str) -> learning.LearningSpec:
    block, where = _mode_block(doc, "learning", "learning", {"low", "high"}, path)
    low = _rational_field(block, "low", where)
    high = _rational_field(block, "high", where)
    try:
        return learning.LearningSpec(low, high)
    except ValueError as exc:
        _fail(f"{where}: {exc}")


# ---------------------------------------------------------------------------
# Rendering helpers


def _text(q: Fraction) -> str:
    """``format_rational`` for everything printed. Documents and tables are
    built before any output, so a NumberTooLarge comes before all of it."""
    try:
        return format_rational(q)
    except NumberTooLarge as exc:
        raise NumberTooLarge(f"result: {exc}") from None


def _value_json(v: Fraction) -> dict:
    return {"fraction": _text(v), "decimal": format_decimal(v)}


def _value_text(v: Fraction) -> str:
    return f"{_text(v)} (~{format_decimal(v)})"


def _location_label(spec: game_core.GameSpec, i: int, paper_names: bool) -> str:
    return _text(spec.times[i - 1]) if paper_names else str(i)


def _set_label(spec: game_core.GameSpec, s: game_core.SearchSet, paper_names: bool) -> str:
    return "{" + ",".join(_location_label(spec, i, paper_names) for i in s.members) + "}"


def _emit(args, document: dict, table_lines: list[str]) -> None:
    """Print what ``--format`` asks for. A JSON document bound for
    ``--output`` is written first, so an unwritable path fails before
    anything reaches standard output."""
    payload = json.dumps(document, indent=2) + "\n" if args.format != "table" else ""
    if payload and args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            _fail(f"cannot write {args.output}: {exc}")
        payload = ""
    if args.format != "json":
        print("\n".join(table_lines))
    sys.stdout.write(payload)


def _result(game: dict, value: Fraction, answer: dict, provenance: str,
            head: list[str], body: list[str], extras: dict | None = None):
    """The JSON document and table of one solve, in every mode's layout:
    game fields, value, the mode's answer, provenance, certificate, extras;
    head lines, value line, body, certificate line. A failed certificate
    raises before anything is rendered, so here it always holds."""
    document = {
        **game,
        "value": _value_json(value),
        **answer,
        "provenance": provenance,
        "certificate": {"ok": True},
        **(extras or {}),
    }
    return document, [*head, f"value: {_value_text(value)}", *body, "certificate: ok"]


# ---------------------------------------------------------------------------
# solve


def _location_matrix(spec: game_core.GameSpec, max_sets: int):
    """The rows (maximal feasible sets) and payoff matrix of a
    location-list game, for the LP to solve."""
    rows = game_core.maximal_feasible_sets(spec, max_sets=max_sets)
    return rows, game_core.build_matrix(spec, rows)


def _location_document(spec: game_core.GameSpec) -> list[dict]:
    return [
        {"time": _text(t), "capture": _text(p)}
        for t, p in zip(spec.times, spec.captures)
    ]


def _location_spec(doc: dict, path: str, mode: str) -> game_core.GameSpec:
    """The location game of ``doc``, refused if its search times break
    ``mode``'s rule: all 1 for constant-times, 1, 2, ..., n for
    arithmetic-times. Solve and sweep share it. The budget rule stays
    with the solve's closed forms, so a sweep's budgets are free."""
    spec = game_spec_from(doc, path)
    if mode == "constant-times" and any(t != 1 for t in spec.times):
        _fail(f"{path}: mode 'constant-times' requires every search time to be 1")
    if mode == "arithmetic-times" and spec.times != tuple(range(1, spec.n + 1)):
        _fail(f"{path}: mode 'arithmetic-times' requires search times 1, 2, ..., n")
    return spec


def _constant_times(spec: game_core.GameSpec, path: str):
    try:
        closed = closed_forms.solve_constant_times(spec.captures, spec.budget)
    except ValueError as exc:
        _fail(f"{path}: {exc}")
    extras = {"regime": closed.regime, "inv_capture_sum": _text(closed.inv_capture_sum)}
    header = [
        f"game: {spec.n} unit-time locations, budget {_text(spec.budget)}",
        f"regime: {closed.regime}",
    ]
    mix, extras = closed.searcher_mix, {"constant_times": extras}
    return closed.value, closed.hider.probs, mix, extras, header


def _arithmetic_times(spec: game_core.GameSpec, path: str):
    if spec.budget != spec.n:
        _fail(f"{path}: mode 'arithmetic-times' requires budget n = {spec.n}")
    try:
        # _solve_locations certifies the solution with the location
        # certificate and raises before rendering if it fails, so
        # "verified" is true wherever it is printed.
        closed = closed_forms.solve_arithmetic_times(spec.captures, certify=False)
    except ValueError as exc:
        _fail(f"{path}: {exc}")
    extras = {
        "support_start": closed.support_start,
        "inv_capture_sum": _text(closed.inv_capture_sum),
        "verified": True,
        "uniqueness_expected": closed.uniqueness_expected,
    }
    header = [
        f"game: staircase times 1..{spec.n}, budget {spec.n}",
        f"hider support: locations {closed.support_start}..{spec.n}",
    ]
    mix, extras = closed.searcher_mix, {"arithmetic_times": extras}
    return closed.value, closed.hider.probs, mix, extras, header


# Closed forms of the location-list modes. Each returns (value, hider,
# searcher mix as (set, weight) pairs, extras, header lines); "general"
# has none and solves the LP.
_CLOSED_FORMS = {"constant-times": _constant_times, "arithmetic-times": _arithmetic_times}


def _solve_locations(doc, path, args, mode):
    """Solve a location-list game, by its mode's closed form or else by
    enumeration and the LP, and certify the answer with the location
    certificate before anything is rendered."""
    spec = _location_spec(doc, path, mode)
    if mode in _CLOSED_FORMS:
        value, hider, pairs, extras, header = _CLOSED_FORMS[mode](spec, path)
        provenance = "closed-form"
    else:
        rows, matrix = _location_matrix(spec, args.max_subsets)
        sol = lp_solver.solve_zero_sum(matrix)
        value, hider, extras = sol.value, sol.col_strategy, None
        pairs = list(zip(rows, sol.row_strategy))
        header = [f"game: {spec.n} locations, budget {_text(spec.budget)}"]
        provenance = "lp"
    try:
        failure = oracle.location_certificate(
            spec, hider, [(s.members, w) for s, w in pairs], value, args.max_subsets
        )
    except ValueError as exc:
        raise CertificateFailure(f"closed form: {exc}") from None
    if failure is not None:
        raise CertificateFailure(f"{mode} solution failed its certificate")
    game = {"mode": mode, "locations": _location_document(spec), "budget": _text(spec.budget)}
    answer = {
        "hider": [_text(p) for p in hider],
        "searcher": [{"set": list(s.members), "probability": _text(w)} for s, w in pairs],
    }
    body = [
        "hider distribution:",
        *(
            f"  location {_location_label(spec, i, args.paper_names)}: {_text(p)}"
            for i, p in enumerate(hider, start=1)
        ),
        "searcher distribution:",
        *(f"  {_set_label(spec, s, args.paper_names)}: {_text(p)}" for s, p in pairs),
    ]
    return _result(game, value, answer, provenance, header, body, extras)


def _two_type_block(spec: closed_forms.TwoTypeSpec) -> dict:
    return {
        "a": spec.type1_count,
        "b": spec.type2_count,
        "tau": spec.type2_time,
        "p": _text(spec.type1_capture),
        "q": _text(spec.type2_capture),
        "k": spec.budget,
    }


def _two_type_searcher(pairs, m: int) -> list[Fraction]:
    """The searcher's weights on inspecting j = 0..m slow locations, from
    (j, weight) pairs; a count listed more than once carries the sum."""
    searcher = [Fraction(0)] * (m + 1)
    for j, w in pairs:
        searcher[j] += w
    return searcher


def _solve_two_type(doc, path, args, mode):
    spec = two_type_spec_from(doc, path)
    try:
        closed = closed_forms.solve_two_type(spec)
    except closed_forms.RegimeError as exc:
        _fail(f"{path}: {exc}")
    searcher = _two_type_searcher(closed.searcher_mix, closed.max_type2_searches)
    hider = (closed.type1_mass, 1 - closed.type1_mass)
    matrix = closed_forms.two_type_matrix(spec)
    if not oracle.verify_equilibrium(matrix, hider, searcher, closed.value).ok:
        raise CertificateFailure("two-type closed form failed the certificate")
    try:
        _, matrix = _location_matrix(
            closed_forms.expand_two_type(spec),
            min(args.max_subsets, TWO_TYPE_CROSSCHECK_SETS),
        )
    except game_core.InstanceTooLarge:
        provenance = "closed-form"
    else:
        lp_value = lp_solver.solve_zero_sum(matrix).value
        if lp_value != closed.value:
            raise CertificateFailure(
                f"closed form value {closed.value} disagrees with expanded "
                f"LP value {lp_value}"
            )
        provenance = "both"
    quick, slow = (_text(mass) for mass in hider)
    mean = _text(closed.mean_type2_searches)
    answer = {
        "hider": {"type1_mass": quick, "type2_mass": slow},
        "searcher": [
            {"type2_searched": j, "probability": _text(w)} for j, w in closed.searcher_mix
        ],
        "mean_type2_searches": mean,
        "max_type2_searches": closed.max_type2_searches,
    }
    head = [
        f"game: {spec.type1_count} quick locations (time 1, capture "
        f"{_text(spec.type1_capture)}) and {spec.type2_count} slow "
        f"locations (time {spec.type2_time}, capture "
        f"{_text(spec.type2_capture)}), budget {spec.budget}",
    ]
    body = [
        f"hider: quick-type mass {quick}, slow-type mass {slow}",
        "searcher (number of slow locations inspected):",
        *(f"  j={j}: {_text(w)}" for j, w in closed.searcher_mix),
        f"mean slow inspections: {mean} (max feasible {closed.max_type2_searches})",
    ]
    game = {"mode": "two-type", "two_type": _two_type_block(spec)}
    return _result(game, closed.value, answer, provenance, head, body)


def _learning_document(spec: learning.LearningSpec) -> tuple[dict, list[str]]:
    # learning.solve certifies its answer with the oracle or raises.
    sol = learning.solve(spec)
    favored = learning.stay_is_favored(spec)
    game = {
        "mode": "learning",
        "learning": {"low": _text(spec.low), "high": _text(spec.high)},
        "matrix": [[_text(v) for v in row] for row in sol.matrix],
        "diagonal": [_text(v) for v in sol.diagonal],
    }
    answer = {
        "stay_probability": _text(sol.stay_probability),
        "switch_probability": _text(sol.switch_probability),
        "stay_favored": favored,
        "posterior": None,
    }
    head = [
        f"escape probabilities: low {_text(spec.low)}, high {_text(spec.high)}",
        "payoff matrix (rows/cols: stay, switch):",
        *(f"  {_text(row[0])}  {_text(row[1])}" for row in sol.matrix),
        f"diagonal form: ({', '.join(game['diagonal'])})",
    ]
    body = [
        f"P(stay after escape)   = {answer['stay_probability']}",
        f"P(switch after escape) = {answer['switch_probability']}",
        f"stay favored: {'yes' if favored else 'no'}",
    ]
    if spec.low + spec.high > 0:
        posterior = learning.posterior_after_escape(spec, sol)
        answer["posterior"] = {
            "high_escape": _text(posterior.high_escape_posterior),
            "expected_escape": _text(posterior.expected_escape),
            "implied_capture": _text(posterior.implied_capture),
            "low_capture": _text(posterior.low_capture_posterior),
        }
        shown = answer["posterior"]
        body += [
            f"posterior P(high escape | escape) = {shown['high_escape']}",
            f"expected escape probability there = {shown['expected_escape']}",
            f"implied capture probability there = {shown['implied_capture']}",
            f"posterior P(low capture | escape) = {shown['low_capture']}",
        ]
    else:
        body.append("posterior: escape impossible (both escape probabilities 0)")
    provenance = "both" if sol.used_shortcut else "lp"
    return _result(game, sol.value, answer, provenance, head, body)


def _solve_learning(doc, path, args, mode):
    return _learning_document(learning_spec_from(doc, path))


def cmd_solve(args) -> int:
    doc = load_game_file(args.file)
    mode = args.mode or doc["mode"]
    started = time.perf_counter()
    document, table = _MODES[mode][0](doc, args.file, args, mode)
    if args.timing:
        document["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    _emit(args, document, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _budget_range(args) -> list[Fraction]:
    lo = _number(args.k_from, "--k-from")
    hi = _number(args.k_to, "--k-to")
    if lo > hi:
        _fail("--k-from must not exceed --k-to")
    count = int(hi - lo) + 1
    # Every budget enumerates at least one set, so the set cap bounds
    # the number of budgets too.
    if count > args.max_subsets:
        raise game_core.InstanceTooLarge(
            f"--k-from..--k-to spans {count} budgets, more than "
            f"--max-subsets ({args.max_subsets})"
        )
    return [lo + i for i in range(count)]


def _emit_sweep(args, head: dict, columns: str, rows) -> int:
    """Emit ``head`` with the entries under "sweep", and the ``columns``
    line with the lines, from one (entry, line) pair per budget."""
    entries, lines = zip(*rows)
    _emit(args, {**head, "sweep": list(entries)}, [columns, *lines])
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = load_game_file(args.file)
    mode = args.mode or doc["mode"]
    budgets = _budget_range(args)
    if mode == "two-type":
        return _sweep_two_type(doc, args, budgets)
    if mode not in ("general", "constant-times", "arithmetic-times"):
        _fail("sweep supports general, constant-times, arithmetic-times or two-type games")
    spec = _location_spec(doc, args.file, mode)
    entries = oracle.sweep_budget(
        spec.times, spec.captures, budgets, max_sets=args.max_subsets
    )

    def row(e):
        budget, hider = _text(e.budget), [_text(p) for p in e.hider]
        unique = "yes" if e.unique else "no"
        entry = dict(budget=budget, value=_value_json(e.value), hider=hider, unique=e.unique)
        return entry, f"{budget} | {' '.join(hider)} | {_value_text(e.value)} | {unique}"

    hiders = " ".join(f"h{i}" for i in range(1, spec.n + 1))
    return _emit_sweep(
        args,
        {"mode": "sweep", "locations": _location_document(spec)},
        f"k | {hiders} | value | unique hider",
        [row(e) for e in entries],
    )


def _sweep_two_type(doc, args, budgets) -> int:
    spec = two_type_spec_from(doc, args.file)
    if any(k.denominator != 1 for k in budgets):
        _fail("two-type sweeps need integer budgets")
    try:
        solutions = [
            closed_forms.solve_two_type(replace(spec, budget=int(k))) for k in budgets
        ]
    except ValueError as exc:
        _fail(f"{args.file}: {exc}")
    oracle.check_nondecreasing(budgets, [c.value for c in solutions])

    def row(k, c):
        mass, mean = _text(c.type1_mass), _text(c.mean_type2_searches)
        entry = {
            "budget": int(k),
            "value": _value_json(c.value),
            "type1_mass": mass,
            "mean_type2_searches": mean,
        }
        return entry, f"{int(k)} | {mass} | {mean} | {_value_text(c.value)}"

    return _emit_sweep(
        args,
        {"mode": "two-type-sweep", "two_type": _two_type_block(spec)},
        "k | type1 mass | mean slow inspections | value",
        [row(k, c) for k, c in zip(budgets, solutions)],
    )


# ---------------------------------------------------------------------------
# learning


def cmd_learning(args) -> int:
    low, high = _number(args.low, "--low"), _number(args.high, "--high")
    try:
        spec = learning.LearningSpec(low, high)
    except (ValueError, TypeError) as exc:
        _fail(str(exc))
    _emit(args, *_learning_document(spec))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: a reader per mode checks the game and solution documents and
# returns the check that finishes the work with the claimed value.


def _json_array(solution, key: str, where: str) -> list:
    value = solution.get(key, [])
    if not isinstance(value, list):
        _fail(f"{where}: {key} must be a JSON array")
    return value


def _solution_number(container: dict, key: str, where: str, name: str = "") -> Fraction:
    """The number under ``key``, reported as ``name`` (default ``key``);
    a missing one is named."""
    name = name or key
    if key not in container:
        _fail(f"{where}: missing '{name}'")
    return _number(container[key], f"{where}: {name}")


def _set_members(value, where: str) -> tuple[int, ...]:
    """The sorted members of a searcher set given as a JSON array of
    location numbers."""
    if not isinstance(value, list):
        _fail(f"{where}: searcher set must be a JSON array of locations")
    if not all(type(i) is int for i in value):  # not isinstance: true is an int
        _fail(f"{where}: searcher set members must be integers")
    return tuple(sorted(value))


def _read_locations(game_doc, solution, args):
    spec = game_spec_from(game_doc, args.file)
    where = args.solution
    hider = [
        _number(v, f"{where}: hider") for v in _json_array(solution, "hider", where)
    ]
    if len(hider) != spec.n:
        _fail(f"{where}: hider has {len(hider)} entries, game has {spec.n} locations")
    mix = []
    for item in _json_array(solution, "searcher", where):
        if not isinstance(item, dict) or "set" not in item or "probability" not in item:
            _fail(f"{where}: searcher entries need 'set' and 'probability'")
        members = _set_members(item["set"], where)
        if not game_core.is_maximal(spec, members):
            _fail(
                f"{where}: searcher set {list(members)} is not an "
                "undominated feasible set of this game"
            )
        prob = _number(item["probability"], f"{where}: searcher probability")
        mix.append((members, prob))
    return partial(_verify_locations, args, spec, hider, mix)


def _verify_locations(args, spec, hider, mix, value) -> int:
    """Certify a location-list solution without its matrix."""
    try:
        failure = oracle.location_certificate(spec, hider, mix, value, args.max_subsets)
    except ValueError as exc:  # a mix that is no probability distribution
        _fail(f"{args.solution}: {exc}")
    return _report(failure)


def _verify_matrix(where, matrix, hider, searcher, row_names, col_names, value) -> int:
    """Certify on an explicit matrix and report its first negative slack."""
    try:
        cert = oracle.verify_equilibrium(matrix, hider, searcher, value)
    except ValueError as exc:  # a mix that is no probability distribution
        _fail(f"{where}: {exc}")
    sides = (("row", row_names, cert.hider_slack), ("column", col_names, cert.searcher_slack))
    failures = (
        (kind, name, slack)
        for kind, names, slacks in sides
        for name, slack in zip(names, slacks)
        if slack < 0
    )
    return _report(next(failures, None))


def _read_two_type(game_doc, solution, args):
    spec = two_type_spec_from(game_doc, args.file)
    matrix = closed_forms.two_type_matrix(spec)
    m = len(matrix) - 1
    hider_block = solution.get("hider")
    if not isinstance(hider_block, dict) or "type1_mass" not in hider_block:
        _fail(f"{args.solution}: two-type solutions carry hider.type1_mass")
    # Both masses are certified as written, so they must sum to 1.
    hider = tuple(
        _solution_number(hider_block, key, args.solution, f"hider.{key}")
        for key in ("type1_mass", "type2_mass")
    )
    pairs = []
    for item in _json_array(solution, "searcher", args.solution):
        if not isinstance(item, dict) or not {"type2_searched", "probability"} <= item.keys():
            _fail(
                f"{args.solution}: searcher entries need 'type2_searched' "
                "and 'probability'"
            )
        j = item["type2_searched"]
        if type(j) is not int or not 0 <= j <= m:
            _fail(f"{args.solution}: type2_searched must be an integer in 0..{m}")
        pairs.append(
            (j, _number(item["probability"], f"{args.solution}: searcher probability"))
        )
    row_names = [f"j={j}" for j in range(m + 1)]
    searcher = _two_type_searcher(pairs, m)
    col_names = ["quick-type", "slow-type"]
    return partial(
        _verify_matrix, args.solution, matrix, hider, searcher, row_names, col_names
    )


def _read_learning(game_doc, solution, args):
    spec = learning_spec_from(game_doc, args.file)
    # Both players share the one (stay, switch) mix of a learning solution.
    mix = tuple(
        _solution_number(solution, key, args.solution)
        for key in ("stay_probability", "switch_probability")
    )
    names = ["stay", "switch"]
    matrix = learning.payoff_matrix(spec)
    return partial(_verify_matrix, args.solution, matrix, mix, mix, names, names)


# Every mode's solver and verify reader. Sweep documents carry no single
# solution, so they have no entry and ``verify`` refuses them.
_MODES = {
    "general": (_solve_locations, _read_locations),
    "constant-times": (_solve_locations, _read_locations),
    "arithmetic-times": (_solve_locations, _read_locations),
    "two-type": (_solve_two_type, _read_two_type),
    "learning": (_solve_learning, _read_learning),
}


def _claimed_value(solution, where) -> Fraction:
    value = solution.get("value")
    if isinstance(value, dict):
        value = value.get("fraction")
    if value is None:
        _fail(f"{where}: missing 'value'")
    return _number(value, f"{where}.value")


def _report(failure) -> int:
    """Print a certificate's outcome: ok for None, else the failed
    ``(kind, name, slack)``, which also fails the command."""
    if failure is None:
        print("certificate: ok")
        return EXIT_OK
    kind, name, slack = failure
    side = "hider side exceeds" if kind == "row" else "searcher mix falls short of"
    print(
        f"certificate FAILED: {side} the claimed value on {kind} {name} "
        f"(slack {_text(slack)})"
    )
    raise CertificateFailure(f"{kind} {name}")


def cmd_verify(args) -> int:
    game_doc = load_game_file(args.file)
    solution = _load_json(args.solution)
    if not isinstance(solution, dict):
        _fail(f"{args.solution}: top level must be a JSON object")
    mode = solution.get("mode", game_doc["mode"])
    if not isinstance(mode, str) or mode not in _MODES:
        _fail(f"{args.solution}: cannot verify mode {mode!r}")
    check = _MODES[mode][1](game_doc, solution, args)
    return check(_claimed_value(solution, args.solution))


# ---------------------------------------------------------------------------
# entry point


def _set_cap(text: str) -> int:
    """``--max-subsets``: an integer of at least 1, else a usage error
    that names the flag; a non-integer keeps argparse's own message."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares, built on first use."""
    parser = argparse.ArgumentParser(
        prog="searchpursuit",
        description="Exact solvers for budgeted search-and-pursuit games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p):
        p.add_argument(
            "--format", choices=("table", "json", "both"), default="table",
            help="output style (default: table)",
        )
        p.add_argument("--output", help="write the JSON document to this file")

    def max_subsets(p):
        p.add_argument(
            "--max-subsets", type=_set_cap, default=game_core.DEFAULT_MAX_SETS,
            help="cap on enumerated feasible sets and on the totals of the "
            "certificate's knapsack",
        )

    solve = sub.add_parser("solve", help="solve one game file")
    solve.add_argument("file", help="JSON game file")
    solve.add_argument("--mode", choices=_MODES, help="override the file's mode")
    solve.add_argument(
        "--paper-names", action="store_true",
        help="label locations by their search times instead of 1-based indices",
    )
    max_subsets(solve)
    solve.add_argument(
        "--timing", action="store_true",
        help="include wall-clock timing in the JSON document "
        "(off by default to keep outputs byte-identical)",
    )
    common_output(solve)
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="solve a family over a budget range")
    sweep.add_argument("file", help="JSON game file")
    sweep.add_argument("--k-from", required=True, help="first budget")
    sweep.add_argument("--k-to", required=True, help="last budget (inclusive)")
    sweep.add_argument("--mode", choices=_MODES, help="override the file's mode")
    max_subsets(sweep)
    common_output(sweep)
    sweep.set_defaults(func=cmd_sweep)

    learn = sub.add_parser("learning", help="solve the two-round learning game")
    learn.add_argument("--low", required=True, help="low escape probability")
    learn.add_argument("--high", required=True, help="high escape probability")
    common_output(learn)
    learn.set_defaults(func=cmd_learning)

    verify = sub.add_parser("verify", help="check a solution document exactly")
    verify.add_argument("file", help="JSON game file")
    verify.add_argument("solution", help="JSON solution document")
    max_subsets(verify)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (game_core.InstanceTooLarge, NumberTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except oracle.MonotonicityError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> int:
    """Console entry point: ``main`` on the process's own streams.

    If the reader of standard output goes away early (``... | head``),
    exits quietly with EXIT_BROKEN_PIPE instead of a traceback.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of the
        # unwritten buffer cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(run())
