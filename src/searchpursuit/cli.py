"""Command-line front end: solve, sweep, learning, verify.

Game files are JSON; every number is read exactly (JSON floats are
re-parsed as decimal literals, so 0.15 means exactly 3/20, and strings
like "1/3" are fractions). Results go out as a human table, a JSON
result document, or both. Identical inputs produce byte-identical
output unless --timing is requested.

Exit codes: 0 success, 1 failed certificate or internal inconsistency,
2 invalid input, 3 instance too large for exhaustive enumeration or
number too large to print back, 141 standard output closed early
(128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import closed_forms, game_core, learning, lp_solver, oracle
from .rationals import format_decimal, format_rational, parse_rational

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141

MODES = ("general", "constant-times", "arithmetic-times", "two-type", "learning")

# Expanded two-type games are cross-checked against the LP only while
# the pruned matrix stays small; beyond this the closed form stands alone.
TWO_TYPE_CROSSCHECK_ROWS = 2048


class InputError(ValueError):
    pass


class CertificateFailure(RuntimeError):
    pass


class NumberTooLarge(RuntimeError):
    """An input number has a numerator or denominator with more digits
    than ``sys.get_int_max_str_digits()`` lets the program print back."""


def _fail(message: str):
    raise InputError(message)


# ---------------------------------------------------------------------------
# Game file parsing


class _HugeLiteral(str):
    """A JSON number literal kept as text because its value is too long
    to print back; ``_number`` refuses it with the field's name."""


def _past_digit_limit(d: Decimal) -> bool:
    """Whether the reduced numerator or denominator of ``d`` has more
    digits than ``sys.get_int_max_str_digits()`` allows.

    Judged from the leading power of ten, 10**a: a nonzero value has a
    numerator of more than ``limit`` digits when a >= limit and a
    denominator of more than ``limit`` digits when a < -limit. Values in
    between are cheap to build exactly and are checked again then. Not
    building them first matters: 1e-999999999 needs a billion-digit
    power of ten.
    """
    limit = sys.get_int_max_str_digits()
    return (
        bool(limit)
        and d.is_finite()
        and not d.is_zero()
        and not -limit <= d.adjusted() < limit
    )


def _json_float(text: str):
    try:
        d = Decimal(text)
    except InvalidOperation:
        # The text is valid JSON, so only an exponent past about 10**18
        # gets here.
        return _HugeLiteral(text)
    return _HugeLiteral(text) if _past_digit_limit(d) else Fraction(d)


def _json_int(text: str):
    return _HugeLiteral(text) if _past_digit_limit(Decimal(text)) else int(text)


def _printable(q: Fraction) -> bool:
    try:
        format_rational(q)
    except ValueError:
        return False
    return True


def _unprintable_literal(value) -> bool:
    """Whether ``value`` is a JSON number literal or decimal string past
    the digit limit, judged without building its exact value."""
    if isinstance(value, _HugeLiteral):
        return True
    try:
        return isinstance(value, str) and _past_digit_limit(Decimal(value))
    except InvalidOperation:  # no decimal literal, such as "2/3"
        return False


def _number(value, where: str) -> Fraction:
    """``parse_rational`` for input read from outside the program.

    Raises InputError naming ``where`` for anything that is no rational,
    and NumberTooLarge for a number the program could not print back.
    """
    if not _unprintable_literal(value):
        try:
            q = parse_rational(value)
        except (ValueError, TypeError) as exc:
            _fail(f"{where}: {exc}")
        if _printable(q):
            return q
    raise NumberTooLarge(
        f"{where}: numerator or denominator has more than "
        f"{sys.get_int_max_str_digits()} digits"
    )


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=_json_float, parse_int=_json_int)
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


def load_game_file(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        _fail(f"{path}: top level must be a JSON object")
    unknown = set(doc) - {"locations", "budget", "mode", "two_type", "learning"}
    if unknown:
        _fail(f"{path}: unknown fields: {', '.join(sorted(unknown))}")
    mode = doc.get("mode", "general")
    if mode not in MODES:
        _fail(f"{path}: mode must be one of: {', '.join(MODES)}")
    doc = dict(doc)
    doc["mode"] = mode
    return doc


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
        unknown = set(loc) - {"time", "capture"}
        if unknown:
            _fail(f"{where}: unknown fields: {', '.join(sorted(unknown))}")
        times.append(_rational_field(loc, "time", where))
        captures.append(_rational_field(loc, "capture", where))
    budget = _rational_field(doc, "budget", path)
    try:
        return game_core.GameSpec(tuple(times), tuple(captures), budget)
    except ValueError as exc:
        _fail(f"{path}: {exc}")


def two_type_spec_from(doc: dict, path: str) -> closed_forms.TwoTypeSpec:
    if "two_type" not in doc:
        _fail(f"{path}: mode 'two-type' requires a 'two_type' block")
    block = doc["two_type"]
    where = f"{path}: two_type"
    if not isinstance(block, dict):
        _fail(f"{where} must be an object")
    unknown = set(block) - {"a", "b", "tau", "p", "q", "k"}
    if unknown:
        _fail(f"{where}: unknown fields: {', '.join(sorted(unknown))}")
    try:
        return closed_forms.TwoTypeSpec(
            type1_count=_int_field(block, "a", where),
            type2_count=_int_field(block, "b", where),
            type2_time=_int_field(block, "tau", where),
            type1_capture=_rational_field(block, "p", where),
            type2_capture=_rational_field(block, "q", where),
            budget=_int_field(block, "k", where),
        )
    except ValueError as exc:
        _fail(f"{where}: {exc}")


def learning_spec_from(doc: dict, path: str) -> learning.LearningSpec:
    if "learning" not in doc:
        _fail(f"{path}: mode 'learning' requires a 'learning' block")
    block = doc["learning"]
    where = f"{path}: learning"
    if not isinstance(block, dict):
        _fail(f"{where} must be an object")
    unknown = set(block) - {"low", "high"}
    if unknown:
        _fail(f"{where}: unknown fields: {', '.join(sorted(unknown))}")
    try:
        return learning.LearningSpec(
            _rational_field(block, "low", where),
            _rational_field(block, "high", where),
        )
    except ValueError as exc:
        _fail(f"{where}: {exc}")


# ---------------------------------------------------------------------------
# Rendering helpers


def _value_json(v: Fraction) -> dict:
    return {"fraction": format_rational(v), "decimal": format_decimal(v)}


def _value_text(v: Fraction) -> str:
    return f"{format_rational(v)} (~{format_decimal(v)})"


def _location_label(spec: game_core.GameSpec, i: int, paper_names: bool) -> str:
    return format_rational(spec.times[i - 1]) if paper_names else str(i)


def _set_label(spec: game_core.GameSpec, s: game_core.SearchSet, paper_names: bool) -> str:
    return "{" + ",".join(_location_label(spec, i, paper_names) for i in s.members) + "}"


def _emit(args, document: dict, table_lines: list[str]) -> None:
    if args.format in ("table", "both"):
        print("\n".join(table_lines))
    if args.format in ("json", "both"):
        payload = json.dumps(document, indent=2) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# solve


def _solve_general_pipeline(spec: game_core.GameSpec, max_sets: int):
    rows = game_core.maximal_feasible_sets(spec, max_sets=max_sets)
    matrix = game_core.build_matrix(spec, rows)
    sol = lp_solver.solve_zero_sum(matrix)
    cert = oracle.verify_equilibrium(
        matrix, sol.col_strategy, sol.row_strategy, sol.value
    )
    if not cert.ok:
        raise CertificateFailure(
            "solver output failed its own certificate; this is a bug"
        )
    return rows, matrix, sol, cert


def _location_document(spec: game_core.GameSpec) -> list[dict]:
    return [
        {"time": format_rational(t), "capture": format_rational(p)}
        for t, p in zip(spec.times, spec.captures)
    ]


def _strategy_table(
    spec, hider, searcher_pairs, value, cert_ok, paper_names, header_lines
) -> list[str]:
    lines = list(header_lines)
    lines.append(f"value: {_value_text(value)}")
    lines.append("hider distribution:")
    for i, prob in enumerate(hider, start=1):
        lines.append(
            f"  location {_location_label(spec, i, paper_names)}: "
            f"{format_rational(prob)}"
        )
    lines.append("searcher distribution:")
    for s, prob in searcher_pairs:
        lines.append(f"  {_set_label(spec, s, paper_names)}: {format_rational(prob)}")
    lines.append(f"certificate: {'ok' if cert_ok else 'FAILED'}")
    return lines


def _general_document(spec, mode, provenance, value, hider, searcher_pairs, cert_ok):
    return {
        "mode": mode,
        "locations": _location_document(spec),
        "budget": format_rational(spec.budget),
        "value": _value_json(value),
        "hider": [format_rational(p) for p in hider],
        "searcher": [
            {"set": list(s.members), "probability": format_rational(w)}
            for s, w in searcher_pairs
        ],
        "provenance": provenance,
        "certificate": {"ok": cert_ok},
    }


def _solve_mode_general(doc, path, args):
    spec = game_spec_from(doc, path)
    rows, _, sol, cert = _solve_general_pipeline(spec, args.max_subsets)
    pairs = list(zip(rows, sol.row_strategy))
    document = _general_document(
        spec, "general", "lp", sol.value, sol.col_strategy, pairs, cert.ok
    )
    header = [
        f"game: {spec.n} locations, budget {format_rational(spec.budget)}",
    ]
    table = _strategy_table(
        spec, sol.col_strategy, pairs, sol.value, cert.ok, args.paper_names, header
    )
    return document, table


def _solve_mode_constant(doc, path, args):
    spec = game_spec_from(doc, path)
    if any(t != 1 for t in spec.times):
        _fail(f"{path}: mode 'constant-times' requires every search time to be 1")
    closed = closed_forms.solve_constant_times(spec.captures, spec.budget)
    rows, matrix, sol, _ = _solve_general_pipeline(spec, args.max_subsets)
    if closed.value != sol.value:
        raise CertificateFailure(
            f"closed form value {closed.value} disagrees with LP value {sol.value}"
        )
    cert = oracle.verify_equilibrium(
        matrix, closed.hider.probs, sol.row_strategy, closed.value
    )
    if not cert.ok:
        raise CertificateFailure("closed-form hider failed the certificate")
    pairs = list(zip(rows, sol.row_strategy))
    document = _general_document(
        spec, "constant-times", "both", closed.value, closed.hider.probs, pairs, cert.ok
    )
    document["constant_times"] = {
        "regime": closed.regime,
        "inv_capture_sum": format_rational(closed.inv_capture_sum),
    }
    header = [
        f"game: {spec.n} unit-time locations, budget {format_rational(spec.budget)}",
        f"regime: {closed.regime}",
    ]
    table = _strategy_table(
        spec, closed.hider.probs, pairs, closed.value, cert.ok, args.paper_names, header
    )
    return document, table


def _solve_mode_arithmetic(doc, path, args):
    spec = game_spec_from(doc, path)
    expected = tuple(Fraction(i) for i in range(1, spec.n + 1))
    if spec.times != expected:
        _fail(f"{path}: mode 'arithmetic-times' requires search times 1, 2, ..., n")
    if spec.budget != spec.n:
        _fail(f"{path}: mode 'arithmetic-times' requires budget n = {spec.n}")
    try:
        closed = closed_forms.solve_arithmetic_times(spec.captures)
    except ValueError as exc:
        _fail(f"{path}: {exc}")
    _, _, sol, _ = _solve_general_pipeline(spec, args.max_subsets)
    if closed.value != sol.value or not closed.verified:
        raise CertificateFailure(
            f"closed form value {closed.value} (verified={closed.verified}) "
            f"disagrees with LP value {sol.value}"
        )
    pairs = list(closed.searcher_mix)
    document = _general_document(
        spec, "arithmetic-times", "both", closed.value, closed.hider.probs, pairs, True
    )
    document["arithmetic_times"] = {
        "support_start": closed.support_start,
        "inv_capture_sum": format_rational(closed.inv_capture_sum),
        "verified": closed.verified,
        "uniqueness_expected": closed.uniqueness_expected,
    }
    header = [
        f"game: staircase times 1..{spec.n}, budget {spec.n}",
        f"hider support: locations {closed.support_start}..{spec.n}",
    ]
    table = _strategy_table(
        spec, closed.hider.probs, pairs, closed.value, True, args.paper_names, header
    )
    return document, table


def _two_type_matrix(spec: closed_forms.TwoTypeSpec):
    """Type-level reduced matrix: rows are j = 0..m slow-type inspections,
    columns are (hide at a random quick location, hide at a random slow one)."""
    a, b = Fraction(spec.type1_count), Fraction(spec.type2_count)
    tau, k = Fraction(spec.type2_time), Fraction(spec.budget)
    m = spec.budget // spec.type2_time
    return [
        [
            spec.type1_capture * (k - tau * j) / a,
            spec.type2_capture * j / b,
        ]
        for j in range(m + 1)
    ]


def _solve_mode_two_type(doc, path, args):
    spec = two_type_spec_from(doc, path)
    try:
        closed = closed_forms.solve_two_type(spec)
    except closed_forms.RegimeError as exc:
        _fail(f"{path}: {exc}")
    matrix = _two_type_matrix(spec)
    searcher = [Fraction(0)] * (closed.max_type2_searches + 1)
    for j, w in closed.searcher_mix:
        searcher[j] = w
    hider = (closed.type1_mass, 1 - closed.type1_mass)
    cert = oracle.verify_equilibrium(matrix, hider, searcher, closed.value)
    if not cert.ok:
        raise CertificateFailure("two-type closed form failed the certificate")
    provenance = "closed-form"
    expanded = closed_forms.expand_two_type(spec)
    try:
        rows = game_core.maximal_feasible_sets(
            expanded, max_sets=min(args.max_subsets, TWO_TYPE_CROSSCHECK_ROWS)
        )
    except game_core.InstanceTooLarge:
        rows = None
    if rows is not None:
        lp_value = lp_solver.solve_zero_sum(
            game_core.build_matrix(expanded, rows)
        ).value
        if lp_value != closed.value:
            raise CertificateFailure(
                f"closed form value {closed.value} disagrees with expanded "
                f"LP value {lp_value}"
            )
        provenance = "both"
    document = {
        "mode": "two-type",
        "two_type": {
            "a": spec.type1_count,
            "b": spec.type2_count,
            "tau": spec.type2_time,
            "p": format_rational(spec.type1_capture),
            "q": format_rational(spec.type2_capture),
            "k": spec.budget,
        },
        "value": _value_json(closed.value),
        "hider": {
            "type1_mass": format_rational(closed.type1_mass),
            "type2_mass": format_rational(1 - closed.type1_mass),
        },
        "searcher": [
            {"type2_searched": j, "probability": format_rational(w)}
            for j, w in closed.searcher_mix
        ],
        "mean_type2_searches": format_rational(closed.mean_type2_searches),
        "max_type2_searches": closed.max_type2_searches,
        "provenance": provenance,
        "certificate": {"ok": cert.ok},
    }
    table = [
        f"game: {spec.type1_count} quick locations (time 1, capture "
        f"{format_rational(spec.type1_capture)}) and {spec.type2_count} slow "
        f"locations (time {spec.type2_time}, capture "
        f"{format_rational(spec.type2_capture)}), budget {spec.budget}",
        f"value: {_value_text(closed.value)}",
        f"hider: quick-type mass {format_rational(closed.type1_mass)}, "
        f"slow-type mass {format_rational(1 - closed.type1_mass)}",
        "searcher (number of slow locations inspected):",
    ]
    for j, w in closed.searcher_mix:
        table.append(f"  j={j}: {format_rational(w)}")
    table.append(
        f"mean slow inspections: {format_rational(closed.mean_type2_searches)} "
        f"(max feasible {closed.max_type2_searches})"
    )
    table.append(f"certificate: {'ok' if cert.ok else 'FAILED'}")
    return document, table


def _learning_document(spec: learning.LearningSpec) -> tuple[dict, list[str]]:
    sol = learning.solve(spec)
    cert = oracle.verify_equilibrium(
        sol.matrix,
        (sol.stay_probability, sol.switch_probability),
        (sol.stay_probability, sol.switch_probability),
        sol.value,
    )
    if not cert.ok:
        raise CertificateFailure("learning solution failed the certificate")
    favored = learning.stay_is_favored(spec)
    posterior = None
    if spec.low + spec.high > 0:
        posterior = learning.posterior_after_escape(spec, sol)
    document = {
        "mode": "learning",
        "learning": {
            "low": format_rational(spec.low),
            "high": format_rational(spec.high),
        },
        "matrix": [[format_rational(v) for v in row] for row in sol.matrix],
        "diagonal": [format_rational(v) for v in sol.diagonal],
        "value": _value_json(sol.value),
        "stay_probability": format_rational(sol.stay_probability),
        "switch_probability": format_rational(sol.switch_probability),
        "stay_favored": favored,
        "posterior": None
        if posterior is None
        else {
            "high_escape": format_rational(posterior.high_escape_posterior),
            "expected_escape": format_rational(posterior.expected_escape),
            "implied_capture": format_rational(posterior.implied_capture),
            "low_capture": format_rational(posterior.low_capture_posterior),
        },
        "provenance": "both" if sol.used_shortcut else "lp",
        "certificate": {"ok": cert.ok},
    }
    a, b = sol.diagonal
    table = [
        f"escape probabilities: low {format_rational(spec.low)}, "
        f"high {format_rational(spec.high)}",
        "payoff matrix (rows/cols: stay, switch):",
        f"  {format_rational(sol.matrix[0][0])}  {format_rational(sol.matrix[0][1])}",
        f"  {format_rational(sol.matrix[1][0])}  {format_rational(sol.matrix[1][1])}",
        f"diagonal form: ({format_rational(a)}, {format_rational(b)})",
        f"value: {_value_text(sol.value)}",
        f"P(stay after escape)   = {format_rational(sol.stay_probability)}",
        f"P(switch after escape) = {format_rational(sol.switch_probability)}",
        f"stay favored: {'yes' if favored else 'no'}",
    ]
    if posterior is not None:
        table += [
            f"posterior P(high escape | escape) = "
            f"{format_rational(posterior.high_escape_posterior)}",
            f"expected escape probability there = "
            f"{format_rational(posterior.expected_escape)}",
            f"implied capture probability there = "
            f"{format_rational(posterior.implied_capture)}",
            f"posterior P(low capture | escape) = "
            f"{format_rational(posterior.low_capture_posterior)}",
        ]
    else:
        table.append("posterior: escape impossible (both escape probabilities 0)")
    table.append(f"certificate: {'ok' if cert.ok else 'FAILED'}")
    return document, table


_SOLVE_DISPATCH = {
    "general": _solve_mode_general,
    "constant-times": _solve_mode_constant,
    "arithmetic-times": _solve_mode_arithmetic,
    "two-type": _solve_mode_two_type,
}


def cmd_solve(args) -> int:
    doc = load_game_file(args.file)
    mode = args.mode or doc["mode"]
    if mode not in MODES:
        _fail(f"mode must be one of: {', '.join(MODES)}")
    started = time.perf_counter()
    if mode == "learning":
        spec = learning_spec_from(doc, args.file)
        document, table = _learning_document(spec)
    else:
        document, table = _SOLVE_DISPATCH[mode](doc, args.file, args)
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
    budgets = []
    k = lo
    while k <= hi:
        budgets.append(k)
        k += 1
    return budgets


def cmd_sweep(args) -> int:
    doc = load_game_file(args.file)
    mode = args.mode or doc["mode"]
    budgets = _budget_range(args)
    if mode == "two-type":
        return _sweep_two_type(doc, args, budgets)
    if mode not in ("general", "constant-times", "arithmetic-times"):
        _fail("sweep supports general, constant-times, arithmetic-times or two-type games")
    spec = game_spec_from(doc, args.file)
    entries = oracle.sweep_budget(
        spec.times, spec.captures, budgets, max_sets=args.max_subsets
    )
    document = {
        "mode": "sweep",
        "locations": _location_document(spec),
        "sweep": [
            {
                "budget": format_rational(e.budget),
                "value": _value_json(e.value),
                "hider": [format_rational(p) for p in e.hider],
                "unique": e.unique,
            }
            for e in entries
        ],
    }
    header = "k | " + " ".join(f"h{i}" for i in range(1, spec.n + 1)) + " | value | unique hider"
    table = [header]
    for e in entries:
        hider = " ".join(format_rational(p) for p in e.hider)
        table.append(
            f"{format_rational(e.budget)} | {hider} | {_value_text(e.value)} | "
            f"{'yes' if e.unique else 'no'}"
        )
    _emit(args, document, table)
    return EXIT_OK


def _sweep_two_type(doc, args, budgets) -> int:
    spec = two_type_spec_from(doc, args.file)
    rows = []
    previous = None
    for k in budgets:
        if k.denominator != 1:
            _fail("two-type sweeps need integer budgets")
        per_k = closed_forms.TwoTypeSpec(
            spec.type1_count,
            spec.type2_count,
            spec.type2_time,
            spec.type1_capture,
            spec.type2_capture,
            int(k),
        )
        closed = closed_forms.solve_two_type(per_k)
        if previous is not None and closed.value < previous:
            raise oracle.MonotonicityError(
                f"value decreased from {previous} to {closed.value} at budget {k}"
            )
        previous = closed.value
        rows.append((int(k), closed))
    document = {
        "mode": "two-type-sweep",
        "two_type": doc["two_type"],
        "sweep": [
            {
                "budget": k,
                "value": _value_json(c.value),
                "type1_mass": format_rational(c.type1_mass),
                "mean_type2_searches": format_rational(c.mean_type2_searches),
            }
            for k, c in rows
        ],
    }
    table = ["k | type1 mass | mean slow inspections | value"]
    for k, c in rows:
        table.append(
            f"{k} | {format_rational(c.type1_mass)} | "
            f"{format_rational(c.mean_type2_searches)} | {_value_text(c.value)}"
        )
    _emit(args, document, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# learning


def cmd_learning(args) -> int:
    low, high = _number(args.low, "--low"), _number(args.high, "--high")
    try:
        spec = learning.LearningSpec(low, high)
    except (ValueError, TypeError) as exc:
        _fail(str(exc))
    document, table = _learning_document(spec)
    _emit(args, document, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _distribution_from(values, where) -> list[Fraction]:
    return [_number(v, where) for v in values]


def _report_certificate(cert: oracle.Certificate, row_names, col_names) -> int:
    if cert.ok:
        print("certificate: ok")
        return EXIT_OK
    for name, slack in zip(row_names, cert.hider_slack):
        if slack < 0:
            print(
                f"certificate FAILED: hider side exceeds the claimed value on "
                f"row {name} (slack {format_rational(slack)})"
            )
            raise CertificateFailure(f"row {name}")
    for name, slack in zip(col_names, cert.searcher_slack):
        if slack < 0:
            print(
                f"certificate FAILED: searcher mix falls short of the claimed "
                f"value on column {name} (slack {format_rational(slack)})"
            )
            raise CertificateFailure(f"column {name}")
    raise CertificateFailure("certificate not ok")  # pragma: no cover


def cmd_verify(args) -> int:
    game_doc = load_game_file(args.file)
    solution = _load_json(args.solution)
    if not isinstance(solution, dict):
        _fail(f"{args.solution}: top level must be a JSON object")
    mode = solution.get("mode", game_doc["mode"])
    if mode in ("general", "constant-times", "arithmetic-times", "sweep"):
        return _verify_general(game_doc, solution, args)
    if mode in ("two-type", "two-type-sweep"):
        return _verify_two_type(game_doc, solution, args)
    if mode == "learning":
        return _verify_learning(game_doc, solution, args)
    _fail(f"{args.solution}: cannot verify mode {mode!r}")


def _claimed_value(solution, where) -> Fraction:
    value = solution.get("value")
    if isinstance(value, dict):
        value = value.get("fraction")
    if value is None:
        _fail(f"{where}: missing 'value'")
    return _number(value, f"{where}.value")


def _verify_general(game_doc, solution, args) -> int:
    spec = game_spec_from(game_doc, args.file)
    rows = game_core.maximal_feasible_sets(spec, max_sets=args.max_subsets)
    matrix = game_core.build_matrix(spec, rows)
    hider = _distribution_from(solution.get("hider", ()), f"{args.solution}: hider")
    if len(hider) != spec.n:
        _fail(
            f"{args.solution}: hider has {len(hider)} entries, game has "
            f"{spec.n} locations"
        )
    index_of = {s.members: i for i, s in enumerate(rows)}
    searcher = [Fraction(0)] * len(rows)
    for item in solution.get("searcher", ()):
        if not isinstance(item, dict) or "set" not in item or "probability" not in item:
            _fail(f"{args.solution}: searcher entries need 'set' and 'probability'")
        members = tuple(sorted(item["set"]))
        if members not in index_of:
            _fail(
                f"{args.solution}: searcher set {list(members)} is not an "
                "undominated feasible set of this game"
            )
        searcher[index_of[members]] = _number(
            item["probability"], f"{args.solution}: searcher probability"
        )
    value = _claimed_value(solution, args.solution)
    cert = oracle.verify_equilibrium(matrix, hider, searcher, value)
    return _report_certificate(
        cert, [str(s) for s in rows], [str(i) for i in range(1, spec.n + 1)]
    )


def _verify_two_type(game_doc, solution, args) -> int:
    spec = two_type_spec_from(game_doc, args.file)
    matrix = _two_type_matrix(spec)
    m = spec.budget // spec.type2_time
    hider_block = solution.get("hider")
    if not isinstance(hider_block, dict) or "type1_mass" not in hider_block:
        _fail(f"{args.solution}: two-type solutions carry hider.type1_mass")
    mass = _number(hider_block["type1_mass"], f"{args.solution}: hider.type1_mass")
    searcher = [Fraction(0)] * (m + 1)
    for item in solution.get("searcher", ()):
        if (
            not isinstance(item, dict)
            or "type2_searched" not in item
            or "probability" not in item
        ):
            _fail(
                f"{args.solution}: searcher entries need 'type2_searched' "
                "and 'probability'"
            )
        j = item["type2_searched"]
        if not isinstance(j, int) or not 0 <= j <= m:
            _fail(f"{args.solution}: type2_searched must be an integer in 0..{m}")
        searcher[j] = _number(
            item["probability"], f"{args.solution}: searcher probability"
        )
    value = _claimed_value(solution, args.solution)
    cert = oracle.verify_equilibrium(matrix, (mass, 1 - mass), searcher, value)
    return _report_certificate(
        cert,
        [f"j={j}" for j in range(m + 1)],
        ["quick-type", "slow-type"],
    )


def _verify_learning(game_doc, solution, args) -> int:
    spec = learning_spec_from(game_doc, args.file)
    matrix = learning.payoff_matrix(spec)
    stay = _number(
        solution.get("stay_probability", "0"), f"{args.solution}: stay_probability"
    )
    switch = _number(
        solution.get("switch_probability", "0"), f"{args.solution}: switch_probability"
    )
    value = _claimed_value(solution, args.solution)
    cert = oracle.verify_equilibrium(matrix, (stay, switch), (stay, switch), value)
    return _report_certificate(cert, ["stay", "switch"], ["stay", "switch"])


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
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

    solve = sub.add_parser("solve", help="solve one game file")
    solve.add_argument("file", help="JSON game file")
    solve.add_argument("--mode", choices=MODES, help="override the file's mode")
    solve.add_argument(
        "--paper-names", action="store_true",
        help="label locations by their search times instead of 1-based indices",
    )
    solve.add_argument(
        "--max-subsets", type=int, default=game_core.DEFAULT_MAX_SETS,
        help="cap on enumerated feasible sets",
    )
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
    sweep.add_argument("--mode", choices=MODES, help="override the file's mode")
    sweep.add_argument(
        "--max-subsets", type=int, default=game_core.DEFAULT_MAX_SETS,
        help="cap on enumerated feasible sets",
    )
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
    verify.add_argument(
        "--max-subsets", type=int, default=game_core.DEFAULT_MAX_SETS,
        help="cap on enumerated feasible sets",
    )
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
