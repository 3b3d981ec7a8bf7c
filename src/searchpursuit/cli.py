"""Command-line front end: the solve, sweep, learning and verify
commands, each mode's certificate, and the rendering of results.

``inputs`` reads and checks everything from outside the program.
``_MODES`` lists every mode once, with its solver, its verify reader
and its certificate. The general mode solves by column generation
(``lp_solver.solve_location_game``) and lists the searcher's support
only; the constant-times and arithmetic-times modes take their answer
from the closed form and neither enumerate nor run an LP. Each solver
returns its claim as the mode's verify reader would, and its rendering,
not yet run. ``solve`` and ``learning`` end in ``_answer``: the mode's
certificate, the one check of the answer, runs on the claim, then the
rendering, then the writing. For location lists it is
``oracle.location_certificate``, which needs no matrix; for learning,
``oracle.verify_equilibrium`` on its 2x2 matrix; for two-type games the
slacks of the type-level rows 0 and floor(k / tau), which bound the
others, read off ``closed_forms.two_type_payoff`` with no matrix.

Results go out as a table, a JSON document or both, in one layout for
every mode; ``--output`` writes the document to a file in every
format. Identical inputs produce byte-identical output. ``main`` may be
called any number of times in one process: all calls share one parser,
built on first use, which parsing never changes.

``sweep_budget`` drives the location-list sweep: per budget the
column generation of ``solve``, the range certificate, and where that
tells nothing the uniqueness probe on generated sets, never a list of
the maximal sets. ``--max-subsets`` caps the feasible sets, counted
once per command before any solve (a sweep's at its largest budget),
the Pareto front of the certificate's knapsack, the number of sweep
budgets (``inputs.budget_range``) and the two-type cross-check, at
``min(cap, TWO_TYPE_CROSSCHECK_SETS)``; ``--max-rows`` caps the sets
each of those LPs holds. The layer that counts names the flag.

Exit codes: 0 success, 1 failed certificate or internal inconsistency,
2 invalid input (any ValueError, among them usage errors such as
``--max-subsets 0`` and an unwritable ``--output``), 3 instance too
large for exhaustive enumeration or for the LP, or number too large to
print back,
141 standard output closed early (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

from . import closed_forms, game_core, inputs, learning, lp_solver, oracle
from .oracle import CertificateFailure
from .rationals import NumberTooLarge, format_decimal, format_rational, parse_rational

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141

# The LP cross-checks an expanded two-type game only up to this many
# feasible sets, maximal or not, and never expands a block that shows
# more; past that the closed form stands alone.
TWO_TYPE_CROSSCHECK_SETS = 2048


# ---------------------------------------------------------------------------
# Rendering helpers


def _text(q: Fraction) -> str:
    """``format_rational`` for everything printed. Documents and tables are
    rendered before any output, so a NumberTooLarge comes before all of it."""
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
    """Write the JSON document to ``--output`` in every format. Standard
    output gets the table unless ``--format json``, and the document when
    the format asks for it and there is no ``--output``. The file comes
    first, so an unwritable path fails before anything is printed."""
    printed = args.format != "table" and not args.output
    payload = json.dumps(document, indent=2) + "\n" if printed or args.output else ""
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from None
    if args.format != "json":
        print("\n".join(table_lines))
    if printed:
        sys.stdout.write(payload)


def _result(game: dict, value: Fraction, answer: dict, provenance: str,
            head: list[str], body: list[str], extras: dict | None = None):
    """The JSON document and table of one solve, in every mode's layout:
    game fields, value, the mode's answer, provenance, certificate, extras;
    head lines, value line, body, certificate line. ``_answer`` renders
    only a claim that passed ``_certify``, so what is written holds."""
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


def _location_document(spec: game_core.GameSpec) -> list[dict]:
    return [
        {"time": _text(t), "capture": _text(p)}
        for t, p in zip(spec.times, spec.captures)
    ]


def _general(spec: game_core.GameSpec, path: str, args):
    game_core.check_size(spec, args.max_subsets)
    sol = lp_solver.solve_location_game(spec, args.max_rows)

    def details():
        return None, [f"game: {spec.n} locations, budget {_text(spec.budget)}"]

    return sol.value, sol.hider, sol.searcher, details


def _constant_times(spec: game_core.GameSpec, path: str, args):
    closed = inputs.checked(
        path, closed_forms.solve_constant_times, spec.captures, spec.budget
    )

    def details():
        extras = {"regime": closed.regime, "inv_capture_sum": _text(closed.inv_capture_sum)}
        header = [
            f"game: {spec.n} unit-time locations, budget {_text(spec.budget)}",
            f"regime: {closed.regime}",
        ]
        return {"constant_times": extras}, header

    return closed.value, closed.hider.probs, closed.searcher_mix, details


def _arithmetic_times(spec: game_core.GameSpec, path: str, args):
    if spec.budget != spec.n:
        raise ValueError(f"{path}: mode 'arithmetic-times' requires budget n = {spec.n}")
    # _answer runs the location certificate and renders only if it holds,
    # so "verified" is true wherever it is printed.
    closed = inputs.checked(
        path, closed_forms.solve_arithmetic_times, spec.captures, certify=False
    )

    def details():
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
        return {"arithmetic_times": extras}, header

    return closed.value, closed.hider.probs, closed.searcher_mix, details


# The solvers of the location-list modes: the LP for "general", the
# closed forms for the others. Each returns (value, hider, searcher mix
# as (set, weight) pairs, and a function that renders the mode's extras
# and header lines).
_LOCATION_SOLVERS = {
    "general": _general,
    "constant-times": _constant_times,
    "arithmetic-times": _arithmetic_times,
}


def _solve_locations(doc, path, args, mode):
    spec = inputs.game_spec_from(doc, path, mode)
    value, hider, pairs, details = _LOCATION_SOLVERS[mode](spec, path, args)
    claim = (spec, hider, [(s.members, w) for s, w in pairs], value)

    def render():
        extras, header = details()
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
        provenance = "lp" if mode == "general" else "closed-form"
        return _result(game, value, answer, provenance, header, body, extras)

    return claim, render


def _two_type_block(spec: closed_forms.TwoTypeSpec) -> dict:
    return {
        "a": spec.type1_count,
        "b": spec.type2_count,
        "tau": spec.type2_time,
        "p": _text(spec.type1_capture),
        "q": _text(spec.type2_capture),
        "k": spec.budget,
    }


def _two_type_failure(args, spec, hider, pairs, value):
    """The certificate of a two-type solution on the type-level game,
    from (slow locations inspected, weight) pairs; a count listed more
    than once carries the sum. Every payoff (``two_type_payoff``) is
    affine in j, so rows 0 and m = floor(k / tau) decide which row fails
    first, and each column pays at the mix's mean j what the mix pays.
    The rows are the game's maximal sets only where a >= k and b >= m,
    as ``solve_two_type`` requires and the verify reader checks."""
    weights: dict[int, Fraction] = {}
    for j, w in pairs:
        weights[j] = weights.get(j, 0) + w
    oracle.require_distribution(hider, 1, "hider")
    oracle.require_distribution(weights.values(), 1, "searcher")
    m = spec.budget // spec.type2_time
    # The hider sums to 1, so its quick-type mass alone gives each payoff.
    slack, last = (value - closed_forms.two_type_payoff(spec, j, hider[0]) for j in (0, m))
    if min(slack, last) < 0:
        # The first row past v: row 0, or where the slack line crosses 0.
        j = 0 if slack < 0 else slack * m // (slack - last) + 1
        return "row", f"j={j}", value - closed_forms.two_type_payoff(spec, j, hider[0])
    mean = sum(j * w for j, w in pairs)
    for name, quick_mass in (("quick-type", 1), ("slow-type", 0)):
        if (short := closed_forms.two_type_payoff(spec, mean, quick_mass) - value) < 0:
            return "column", name, short
    return None


def _two_type_claim(spec, closed):
    hider = (closed.type1_mass, 1 - closed.type1_mass)
    return spec, hider, closed.searcher_mix, closed.value


def _expanded_lp_value(spec: closed_forms.TwoTypeSpec, cap: int):
    """The LP value of the expanded game, or None if it has more than
    ``cap`` feasible sets. It has at least 1 + a + b, the empty set and
    each location alone: the closed form holds only where tau <= k."""
    if 1 + spec.type1_count + spec.type2_count > cap:
        return None
    expanded = closed_forms.expand_two_type(spec)
    try:
        sets = game_core.maximal_feasible_sets(expanded, cap)
    except game_core.InstanceTooLarge:
        return None
    return lp_solver.solve_zero_sum(game_core.build_matrix(expanded, sets)).value


def _solve_two_type(doc, path, args, mode):
    spec = inputs.two_type_spec_from(doc, path)
    closed = inputs.checked(path, closed_forms.solve_two_type, spec)
    claim = _two_type_claim(spec, closed)
    lp_value = _expanded_lp_value(spec, min(args.max_subsets, TWO_TYPE_CROSSCHECK_SETS))
    if lp_value is not None and lp_value != closed.value:
        raise CertificateFailure(
            f"closed form value {closed.value} disagrees with expanded LP value {lp_value}"
        )
    provenance = "closed-form" if lp_value is None else "both"

    def render():
        quick, slow = (_text(mass) for mass in claim[1])
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

    return claim, render


def _solve_learning(doc, path, args, mode):
    return _learning(inputs.learning_spec_from(doc, path))


def _learning(spec: learning.LearningSpec):
    sol = learning.solve(spec)
    mix = (sol.stay_probability, sol.switch_probability)

    def render():
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
            shown = answer["posterior"] = {
                "high_escape": _text(posterior.high_escape_posterior),
                "expected_escape": _text(posterior.expected_escape),
                "implied_capture": _text(posterior.implied_capture),
                "low_capture": _text(posterior.low_capture_posterior),
            }
            body += [
                f"posterior P(high escape | escape) = {shown['high_escape']}",
                f"expected escape probability there = {shown['expected_escape']}",
                f"implied capture probability there = {shown['implied_capture']}",
                f"posterior P(low capture | escape) = {shown['low_capture']}",
            ]
        else:
            body.append("posterior: escape impossible (both escape probabilities 0)")
        return _result(game, sol.value, answer, "closed-form", head, body)

    return (spec, mix, mix, sol.value), render


def _certify(args, mode: str, claim) -> None:
    """Raise CertificateFailure unless ``claim``, the (spec, hider, mix,
    value) of ``mode``'s verify reader, passes the mode's certificate."""
    try:
        failure = _MODES[mode][2](args, *claim)
    except ValueError as exc:
        raise CertificateFailure(f"closed form: {exc}") from None
    if failure is not None:
        raise CertificateFailure(f"{mode} solution failed its certificate")


def _answer(args, mode: str, claim, render) -> int:
    """Certify ``claim``, then render it and write the result."""
    _certify(args, mode, claim)
    _emit(args, *render())
    return EXIT_OK


def cmd_solve(args) -> int:
    doc = inputs.load_game_file(args.file, _MODES)
    mode = args.mode or doc["mode"]
    return _answer(args, mode, *_MODES[mode][0](doc, args.file, args, mode))


# ---------------------------------------------------------------------------
# sweep


def _emit_sweep(args, head: dict, columns: str, rows) -> int:
    """Emit ``head`` with the entries under "sweep", and the ``columns``
    line with the lines, from one (entry, line) pair per budget."""
    entries, lines = zip(*rows)
    _emit(args, {**head, "sweep": list(entries)}, [columns, *lines])
    return EXIT_OK


@dataclass(frozen=True)
class SweepEntry:
    budget: Fraction
    value: Fraction
    hider: tuple[Fraction, ...]
    hider_ranges: tuple[tuple[Fraction, Fraction], ...]
    unique: bool


def sweep_budget(
    times,
    captures,
    budgets,
    max_sets: int = game_core.DEFAULT_MAX_SETS,
    max_rows: int = lp_solver.DEFAULT_MAX_ROWS,
) -> list[SweepEntry]:
    """Solve one game per budget; report value and hider uniqueness.

    The feasible sets only grow with the budget, so ``solve``'s size
    check runs once, at the largest budget, before any solve. Budgets are
    then solved by column generation in ascending order, each after the
    first warm-started from the previous one's support (``seeds``), whose
    sets still fit; where the hider is not unique, the one reported may
    differ from a cold solve's, but its value and ranges do not. The
    ranges come from ``oracle.certified_ranges``, which runs the location
    certificate once (a failure raises ``CertificateFailure``), or, where
    its rank test cannot tell, from ``lp_solver.location_uniqueness``,
    whose generated sets ``max_rows`` caps. ``oracle.check_nondecreasing``
    checks the values (more search time never hurts the searcher) and
    raises ``oracle.MonotonicityError``. No budget lists the maximal sets.
    """
    ks = sorted(set(parse_rational(k) for k in budgets))
    specs = [game_core.GameSpec(tuple(times), tuple(captures), k) for k in ks]
    if specs:
        game_core.check_size(specs[-1], max_sets)
    entries, mix = [], []
    for spec in specs:
        sol = lp_solver.solve_location_game(spec, max_rows, [s for s, _ in mix])
        mix = [(s.members, w) for s, w in sol.searcher]
        try:
            ranges = oracle.certified_ranges(spec, sol.hider, mix, sol.value, max_sets)
        except CertificateFailure:
            raise CertificateFailure(
                f"budget {_text(spec.budget)}: LP solution failed its certificate"
            ) from None
        if ranges is None:
            ranges = lp_solver.location_uniqueness(spec, sol, max_rows).ranges
        unique = all(lo == hi for lo, hi in ranges)
        entries.append(SweepEntry(spec.budget, sol.value, sol.hider, ranges, unique))
    oracle.check_nondecreasing(ks, [e.value for e in entries])
    return entries


def cmd_sweep(args) -> int:
    doc = inputs.load_game_file(args.file, _MODES)
    mode = args.mode or doc["mode"]
    budgets = inputs.budget_range(args.k_from, args.k_to, args.max_subsets)
    if mode == "two-type":
        return _sweep_two_type(doc, args, budgets)
    if mode not in ("general", "constant-times", "arithmetic-times"):
        raise ValueError(
            "sweep supports general, constant-times, arithmetic-times or two-type games"
        )
    spec = inputs.game_spec_from(doc, args.file, mode)
    entries = sweep_budget(
        spec.times, spec.captures, budgets, args.max_subsets, args.max_rows
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
    spec = inputs.two_type_spec_from(doc, args.file)
    # The budgets step by 1 from --k-from, so it alone decides.
    if budgets[0].denominator != 1 or budgets[0] < 1:
        raise ValueError("--k-from must be a positive integer in a two-type sweep")

    def solve(k):
        budget_spec = replace(spec, budget=int(k))
        closed = inputs.checked(args.file, closed_forms.solve_two_type, budget_spec)
        _certify(args, "two-type", _two_type_claim(budget_spec, closed))
        return closed

    solutions = [solve(k) for k in budgets]
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
    low, high = inputs.number(args.low, "--low"), inputs.number(args.high, "--high")
    return _answer(args, "learning", *_learning(learning.LearningSpec(low, high)))


# ---------------------------------------------------------------------------
# verify


def _locations_failure(args, spec, hider, mix, value):
    return oracle.location_certificate(spec, hider, mix, value, args.max_subsets)


def _learning_failure(args, spec, hider, searcher, value):
    """The certificate on the learning game's 2x2 matrix, rows first."""
    cert = oracle.verify_equilibrium(learning.payoff_matrix(spec), hider, searcher, value)
    failures = [("row", name, s) for name, s in zip(("stay", "switch"), cert.hider_slack)]
    failures += [("column", name, s) for name, s in zip(("stay", "switch"), cert.searcher_slack)]
    return next((failure for failure in failures if failure[2] < 0), None)


# Every mode's solver, which returns its claim and a function that
# renders it, verify reader (in ``inputs``) and certificate, which
# returns None or a failure as (kind, name, slack). Sweep
# documents carry no single solution, so ``verify`` refuses them.
_MODES = {
    "general": (_solve_locations, inputs.location_solution, _locations_failure),
    "constant-times": (_solve_locations, inputs.location_solution, _locations_failure),
    "arithmetic-times": (_solve_locations, inputs.location_solution, _locations_failure),
    "two-type": (_solve_two_type, inputs.two_type_solution, _two_type_failure),
    "learning": (_solve_learning, inputs.learning_solution, _learning_failure),
}


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
    game_doc = inputs.load_game_file(args.file, _MODES)
    solution, mode = inputs.load_solution(args.solution, game_doc["mode"], _MODES)
    _, read, certificate = _MODES[mode]
    data = read(game_doc, solution, args.file, args.solution)
    # A certificate's ValueError is a mix that is no probability distribution.
    return _report(inputs.checked(args.solution, certificate, args, *data))


# ---------------------------------------------------------------------------
# entry point


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
            "--max-subsets", type=inputs.set_cap, default=game_core.DEFAULT_MAX_SETS,
            help="cap on enumerated feasible sets, on the entries of the "
            "Pareto front of the certificate's knapsack, on the budgets of a "
            "sweep, and on the feasible sets of the two-type LP cross-check "
            f"(never above {TWO_TYPE_CROSSCHECK_SETS})",
        )

    def max_rows(p):
        p.add_argument(
            "--max-rows", type=inputs.set_cap, default=lp_solver.DEFAULT_MAX_ROWS,
            help="cap on the maximal feasible sets an exact LP holds: the "
            "master LP of column generation, or the generated sets of a "
            "sweep's uniqueness probe",
        )

    solve = sub.add_parser("solve", help="solve one game file")
    solve.add_argument("file", help="JSON game file")
    solve.add_argument("--mode", choices=_MODES, help="override the file's mode")
    solve.add_argument(
        "--paper-names", action="store_true",
        help="label locations by their search times instead of 1-based indices",
    )
    max_subsets(solve)
    max_rows(solve)
    common_output(solve)
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="solve a family over a budget range")
    sweep.add_argument("file", help="JSON game file")
    sweep.add_argument("--k-from", required=True, help="first budget")
    sweep.add_argument("--k-to", required=True, help="last budget (inclusive)")
    sweep.add_argument("--mode", choices=_MODES, help="override the file's mode")
    max_subsets(sweep)
    max_rows(sweep)
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
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        # oracle.MonotonicityError, lp_solver.UnboundedError and every
        # solver's failed postcondition: a fault of the program.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


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
