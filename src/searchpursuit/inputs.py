"""Readers of input from outside the program: game files, solution
documents and the command line's numbers.

Every number is read exactly: JSON decimals are read as their literal
text, so 0.15 means exactly 3/20, and strings like "1/3" are fractions;
one too long to print back raises NumberTooLarge. Other malformed input
raises ValueError naming the file and field, or the flag.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction

from . import closed_forms, game_core, learning
from .rationals import NumberTooLarge, parse_rational


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:
        # Past the digit limit: kept as text for parse_rational to refuse.
        return text


def _json(text: str):
    """The JSON value of ``text``, decimals kept as their literal text.
    Integers are read by the decoder itself; only a document with one
    past the digit limit, which the decoder refuses, is read again with
    each integer through ``_json_int``."""
    try:
        return json.loads(text, parse_float=str)
    except json.JSONDecodeError:
        raise
    except ValueError:
        return json.loads(text, parse_float=str, parse_int=_json_int)


def number(value, where: str) -> Fraction:
    """``parse_rational`` for input read from outside the program, with
    ``where`` named in the ValueError or NumberTooLarge it raises."""
    try:
        return parse_rational(value)
    except NumberTooLarge as exc:
        raise NumberTooLarge(f"{where}: {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def checked(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; the ValueError it raises for input
    outside its domain names ``where``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _load_object(path: str) -> dict:
    """The JSON object in the file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = _json(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return doc


def _rational_field(container: dict, key: str, where: str) -> Fraction:
    if key not in container:
        raise ValueError(f"{where}: missing field '{key}'")
    return number(container[key], f"{where}.{key}")


def _int_field(container: dict, key: str, where: str) -> int:
    value = _rational_field(container, key, where)
    if value.denominator != 1:
        raise ValueError(f"{where}.{key}: must be an integer")
    return int(value)


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValueError(f"{where}: unknown fields: {', '.join(sorted(unknown))}")


def _mode_block(doc: dict, key: str, mode: str, allowed, path: str):
    """The object under ``key`` that ``mode`` reads its parameters from,
    with the name to report errors under."""
    if key not in doc:
        raise ValueError(f"{path}: mode '{mode}' requires a '{key}' block")
    block = doc[key]
    where = f"{path}: {key}"
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be an object")
    _reject_unknown(block, allowed, where)
    return block, where


def load_game_file(path: str, modes) -> dict:
    """The game document at ``path``; its mode, "general" if unset, is one of ``modes``."""
    doc = _load_object(path)
    _reject_unknown(doc, {"locations", "budget", "mode", "two_type", "learning"}, path)
    mode = doc.get("mode", "general")
    if not isinstance(mode, str) or mode not in modes:
        raise ValueError(f"{path}: mode must be one of: {', '.join(modes)}")
    return {**doc, "mode": mode}


# The fields of one location, each required.
_LOCATION_FIELDS = frozenset(("time", "capture"))


def _location(loc, where: str) -> tuple[Fraction, Fraction]:
    """The (time, capture) of one location, each fault named by ``where``."""
    if not isinstance(loc, dict):
        raise ValueError(f"{where} must be an object")
    _reject_unknown(loc, _LOCATION_FIELDS, where)
    return _rational_field(loc, "time", where), _rational_field(loc, "capture", where)


def game_spec_from(doc: dict, path: str, mode: str) -> game_core.GameSpec:
    """The location game of ``doc``, refused if its search times break
    ``mode``'s rule: all 1 for constant-times, 1, 2, ..., n for
    arithmetic-times. The budget rule stays with the solve's closed
    forms, so a sweep's budgets are free."""
    for key in ("locations", "budget"):
        if key not in doc:
            raise ValueError(f"{path}: missing '{key}'")
    locations = doc["locations"]
    if not isinstance(locations, list) or not locations:
        raise ValueError(f"{path}: 'locations' must be a nonempty list")
    times, captures = [], []
    for idx, loc in enumerate(locations, start=1):
        # A location with exactly its two fields, both numbers, is read
        # at once; any other is read again by _location, which names it.
        try:
            if type(loc) is not dict or loc.keys() != _LOCATION_FIELDS:
                raise ValueError
            time, capture = parse_rational(loc["time"]), parse_rational(loc["capture"])
        except (ValueError, TypeError):
            time, capture = _location(loc, f"{path}: locations[{idx}]")
        times.append(time)
        captures.append(capture)
    budget = number(doc["budget"], f"{path}: budget")
    spec = checked(path, game_core.GameSpec, tuple(times), tuple(captures), budget)
    if mode == "constant-times" and any(t != 1 for t in spec.times):
        raise ValueError(f"{path}: mode '{mode}' requires every search time to be 1")
    if mode == "arithmetic-times" and spec.times != tuple(range(1, spec.n + 1)):
        raise ValueError(f"{path}: mode '{mode}' requires search times 1, 2, ..., n")
    return spec


def two_type_spec_from(doc: dict, path: str) -> closed_forms.TwoTypeSpec:
    block, where = _mode_block(
        doc, "two_type", "two-type", {"a", "b", "tau", "p", "q", "k"}, path
    )
    return checked(
        where,
        closed_forms.TwoTypeSpec,
        type1_count=_int_field(block, "a", where),
        type2_count=_int_field(block, "b", where),
        type2_time=_int_field(block, "tau", where),
        type1_capture=_rational_field(block, "p", where),
        type2_capture=_rational_field(block, "q", where),
        budget=_int_field(block, "k", where),
    )


def learning_spec_from(doc: dict, path: str) -> learning.LearningSpec:
    block, where = _mode_block(doc, "learning", "learning", {"low", "high"}, path)
    low = _rational_field(block, "low", where)
    high = _rational_field(block, "high", where)
    return checked(where, learning.LearningSpec, low, high)


def budget_range(k_from: str, k_to: str, max_sets: int) -> list[Fraction]:
    """The budgets ``--k-from``, ``--k-from`` + 1, ..., up to ``--k-to``."""
    lo = number(k_from, "--k-from")
    hi = number(k_to, "--k-to")
    if lo < 0:
        raise ValueError("--k-from must be nonnegative")
    if lo > hi:
        raise ValueError("--k-from must not exceed --k-to")
    count = int(hi - lo) + 1
    # Each budget has at least one feasible set, the empty one, so the
    # set cap bounds the number of budgets too, before their list is built.
    if count > max_sets:
        raise game_core.InstanceTooLarge(
            f"--k-from..--k-to spans {count} budgets, more than "
            f"--max-subsets ({max_sets})"
        )
    return [lo + i for i in range(count)]


def set_cap(text: str) -> int:
    """``--max-subsets`` and ``--max-rows``: an integer of at least 1,
    else a usage error that names the flag; a non-integer keeps
    argparse's own message."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


# Solution documents. Each mode's reader returns the game's spec, the
# hider's mix, the searcher's mix as listed and the claimed value.


def load_solution(path: str, game_mode: str, modes) -> tuple[dict, str]:
    """The solution document at ``path`` and its mode, which defaults to
    the game's and must be one of ``modes``."""
    solution = _load_object(path)
    mode = solution.get("mode", game_mode)
    if not isinstance(mode, str) or mode not in modes:
        raise ValueError(f"{path}: cannot verify mode {mode!r}")
    return solution, mode


def _json_array(solution, key: str, where: str) -> list:
    value = solution.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{where}: {key} must be a JSON array")
    return value


def _solution_number(container: dict, key: str, where: str, name: str) -> Fraction:
    """The number under ``key``, reported as ``name``; a missing one is named."""
    if key not in container:
        raise ValueError(f"{where}: missing '{name}'")
    return number(container[key], f"{where}: {name}")


def _set_members(value, where: str) -> tuple[int, ...]:
    """The sorted members of a searcher set given as a JSON array of
    location numbers."""
    if not isinstance(value, list):
        raise ValueError(f"{where}: searcher set must be a JSON array of locations")
    if not set(map(type, value)) <= {int}:  # not isinstance: true is an int
        raise ValueError(f"{where}: searcher set members must be integers")
    return tuple(sorted(value))


def _claimed_value(solution, where) -> Fraction:
    value = solution.get("value")
    if isinstance(value, dict):
        value = value.get("fraction")
    if value is None:
        raise ValueError(f"{where}: missing 'value'")
    return number(value, f"{where}.value")


def location_solution(game_doc, solution, path: str, where: str):
    """A location-list solution: the mix holds (members, probability)
    pairs; the certificate refuses a set that is no row of the game."""
    # A solution is certified in any game; no mode's rule on times applies.
    spec = game_spec_from(game_doc, path, "general")
    values = _json_array(solution, "hider", where)
    try:
        hider = tuple(map(parse_rational, values))
    except (ValueError, TypeError):
        hider_where = f"{where}: hider"
        hider = [number(v, hider_where) for v in values]  # raises at the first fault
    if len(hider) != spec.n:
        raise ValueError(
            f"{where}: hider has {len(hider)} entries, game has {spec.n} locations"
        )
    mix = []
    probability_where = f"{where}: searcher probability"
    for item in _json_array(solution, "searcher", where):
        if not isinstance(item, dict) or "set" not in item or "probability" not in item:
            raise ValueError(f"{where}: searcher entries need 'set' and 'probability'")
        members = _set_members(item["set"], where)
        mix.append((members, number(item["probability"], probability_where)))
    return spec, hider, mix, _claimed_value(solution, where)


def two_type_solution(game_doc, solution, path: str, where: str):
    """A two-type solution: the hider is (quick-type mass, slow-type
    mass), the mix holds (slow locations inspected, probability) pairs."""
    spec = two_type_spec_from(game_doc, path)
    m = spec.budget // spec.type2_time  # the most slow locations inspected
    if spec.type1_count < spec.budget or spec.type2_count < m:
        raise ValueError(f"{path}: the type-level certificate needs a >= k and "
                         "b >= floor(k / tau); use the general solver")
    hider_block = solution.get("hider")
    if not isinstance(hider_block, dict) or "type1_mass" not in hider_block:
        raise ValueError(f"{where}: two-type solutions carry hider.type1_mass")
    # Both masses are certified as written, so they must sum to 1.
    hider = tuple(
        _solution_number(hider_block, key, where, f"hider.{key}")
        for key in ("type1_mass", "type2_mass")
    )
    mix = []
    for item in _json_array(solution, "searcher", where):
        if not isinstance(item, dict) or not {"type2_searched", "probability"} <= item.keys():
            raise ValueError(
                f"{where}: searcher entries need 'type2_searched' and 'probability'"
            )
        j = item["type2_searched"]
        if type(j) is not int or not 0 <= j <= m:
            raise ValueError(f"{where}: type2_searched must be an integer in 0..{m}")
        mix.append((j, number(item["probability"], f"{where}: searcher probability")))
    return spec, hider, mix, _claimed_value(solution, where)


def learning_solution(game_doc, solution, path: str, where: str):
    """A learning solution: both players share its (stay, switch) mix."""
    spec = learning_spec_from(game_doc, path)
    mix = tuple(
        _solution_number(solution, key, where, key)
        for key in ("stay_probability", "switch_probability")
    )
    return spec, mix, mix, _claimed_value(solution, where)
