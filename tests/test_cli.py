import argparse
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

import searchpursuit
from conftest import rational_time_game, roadmap_game, value_lowered_documents
from searchpursuit import InstanceTooLarge
from searchpursuit.cli import main, sweep_budget

EXAMPLE = {
    "locations": [
        {"time": 5, "capture": 0.1},
        {"time": 3, "capture": 0.2},
        {"time": 4, "capture": 0.15},
        {"time": 7, "capture": 0.4},
    ],
    "budget": 7,
}

STAIRCASE = {
    "locations": [
        {"time": i, "capture": c}
        for i, c in zip(range(1, 6), ("1/2", "2/5", "3/10", "1/5", "1/10"))
    ],
    "budget": 5,
}

TWO_TYPE = {
    "mode": "two-type",
    "two_type": {"a": 4, "b": 2, "tau": 2, "p": "3/10", "q": "1/5", "k": 4},
}

# a < k: the type-level rows are not this game's sets.
A_BELOW_K = {"a": 1, "b": 10, "tau": 1, "p": "1/10", "q": "1", "k": 5}

LEARNING = {"mode": "learning", "learning": {"low": "1/3", "high": "2/3"}}

# Per case: a game with its mode, the solver the CLI calls for it
# (module, name), and the fields of that solver's answer to change so
# that the answer fails its certificate.
BROKEN_ANSWERS = {
    "general": (
        dict(EXAMPLE, mode="general"),
        "lp_solver", "solve_location_game", lambda s: {"hider": (1, 0, 0, 0)},
    ),
    "constant-times": (
        {
            "mode": "constant-times",
            "locations": [{"time": 1, "capture": c} for c in ("1/5", "3/10", "1/2")],
            "budget": 2,
        },
        "closed_forms", "solve_constant_times", lambda s: {"value": 2 * s.value},
    ),
    "arithmetic-times": (
        dict(STAIRCASE, mode="arithmetic-times"),
        "closed_forms", "solve_arithmetic_times", lambda s: {"value": 2 * s.value},
    ),
    "two-type": (TWO_TYPE, "closed_forms", "solve_two_type", lambda s: {"type1_mass": F(1)}),
    "learning": (
        LEARNING, "learning", "solve",
        lambda s: {"stay_probability": F(1), "switch_probability": F(0)},
    ),
    # Stay 0 would divide by zero in the posterior, which is rendered
    # only after the certificate holds.
    "learning-no-stay": (
        LEARNING, "learning", "solve",
        lambda s: {"stay_probability": F(0), "switch_probability": F(1)},
    ),
}

# 40 unit-time locations at budget 20: about 2**39 feasible sets, far
# past the enumeration cap, in the interior regime.
CONSTANT_40_20 = {
    "mode": "constant-times",
    "locations": [{"time": 1, "capture": f"{40 + i}/80"} for i in range(1, 41)],
    "budget": 20,
}

# The staircase at n = 80 has 133,219 maximal sets, under the cap.
STAIRCASE_80 = {
    "mode": "arithmetic-times",
    "locations": [{"time": i, "capture": f"1/{i + 1}"} for i in range(1, 81)],
    "budget": 80,
}


def break_solver(monkeypatch, module, name, change):
    """Patch ``searchpursuit.<module>.<name>`` to return its answer with
    the fields ``change(answer)`` gives replaced."""
    mod = getattr(searchpursuit, module)
    real = getattr(mod, name)

    def broken(*args, **kwargs):
        answer = real(*args, **kwargs)
        return replace(answer, **change(answer))

    monkeypatch.setattr(mod, name, broken)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def timed_main_in_child(argv):
    """Exit code, seconds and standard error of ``main(argv)`` run in a
    child process, so that a hang or a runaway allocation fails the test
    instead of stalling the suite."""
    script = (
        "import json, sys, time\n"
        "from searchpursuit.cli import main\n"
        "started = time.perf_counter()\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "print(code, time.perf_counter() - started)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    # The last line is the child's own; what main printed comes before it.
    code, seconds = proc.stdout.splitlines()[-1].split()
    return int(code), float(seconds), proc.stderr


class TestSolve:
    def test_example_table(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "value: 6/115" in out
        assert "{2,3}: 8/23" in out
        assert "certificate: ok" in out

    def test_example_json(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        code, doc = run_json(capsys, ["solve", path, "--format", "json"])
        assert code == 0
        assert doc["value"]["fraction"] == "6/115"
        assert doc["hider"] == ["12/23", "0", "8/23", "3/23"]
        assert {tuple(e["set"]): e["probability"] for e in doc["searcher"]} == {
            (1,): "12/23",
            (4,): "3/23",
            (2, 3): "8/23",
        }
        assert doc["provenance"] == "lp"
        assert doc["certificate"]["ok"] is True
        assert "timing" not in doc

    def test_paper_names_label_locations_by_time(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        assert main(["solve", path, "--paper-names"]) == 0
        out = capsys.readouterr().out
        assert "location 5: 12/23" in out
        assert "location 7: 3/23" in out
        assert "{3,4}: 8/23" in out

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        assert main(["solve", path, "--format", "both"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", path, "--format", "both"]) == 0
        assert capsys.readouterr().out == first

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        out_path = tmp_path / "result.json"
        assert main(["solve", path, "--format", "json", "--output", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["value"]["fraction"] == "6/115"

    @pytest.mark.parametrize("command", ["solve", "sweep", "learning"])
    def test_output_file_in_table_format(self, tmp_path, capsys, command):
        argv = {
            "solve": ["solve", write(tmp_path, "g.json", EXAMPLE)],
            "sweep": ["sweep", write(tmp_path, "g.json", EXAMPLE), "--k-from", "6", "--k-to", "7"],
            "learning": ["learning", "--low", "1/3", "--high", "2/3"],
        }[command]
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        document = capsys.readouterr().out
        out_path = tmp_path / "result.json"
        assert main(argv + ["--output", str(out_path)]) == 0
        assert capsys.readouterr().out == table
        assert out_path.read_text(encoding="utf-8") == document

    def test_zero_budget(self, tmp_path, capsys):
        doc = {"locations": [{"time": 1, "capture": "1/2"}] * 3, "budget": 0}
        path = write(tmp_path, "g.json", doc)
        code, result = run_json(capsys, ["solve", path, "--format", "json"])
        assert code == 0
        assert result["value"]["fraction"] == "0"
        assert result["searcher"] == [{"set": [], "probability": "1"}]

    def test_constant_times_mode(self, tmp_path, capsys):
        doc = {
            "mode": "constant-times",
            "locations": [
                {"time": 1, "capture": 0.2},
                {"time": 1, "capture": 0.3},
                {"time": 1, "capture": 0.5},
            ],
            "budget": 1,
        }
        path = write(tmp_path, "g.json", doc)
        code, result = run_json(capsys, ["solve", path, "--format", "json"])
        assert code == 0
        assert result["provenance"] == "closed-form"
        assert result["value"]["fraction"] == "3/31"
        assert result["constant_times"]["regime"] == "interior"

    def test_arithmetic_times_mode(self, tmp_path, capsys):
        doc = dict(STAIRCASE)
        doc["mode"] = "arithmetic-times"
        path = write(tmp_path, "g.json", doc)
        code, result = run_json(capsys, ["solve", path, "--format", "json"])
        assert code == 0
        assert result["provenance"] == "closed-form"
        assert result["value"]["fraction"] == "3/55"
        assert result["arithmetic_times"]["verified"] is True

    def test_mode_flag_overrides_file(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", STAIRCASE)
        code, result = run_json(
            capsys, ["solve", path, "--format", "json", "--mode", "arithmetic-times"]
        )
        assert code == 0
        assert result["mode"] == "arithmetic-times"

    def test_two_type_mode_matches_expanded_general(self, tmp_path, capsys):
        tt_path = write(tmp_path, "tt.json", TWO_TYPE)
        code, tt_doc = run_json(capsys, ["solve", tt_path, "--format", "json"])
        assert code == 0
        assert tt_doc["value"]["fraction"] == "3/25"
        assert tt_doc["provenance"] == "both"
        expanded = {
            "locations": [{"time": 1, "capture": "3/10"}] * 4
            + [{"time": 2, "capture": "1/5"}] * 2,
            "budget": 4,
        }
        gen_path = write(tmp_path, "gen.json", expanded)
        code, gen_doc = run_json(capsys, ["solve", gen_path, "--format", "json"])
        assert code == 0
        assert gen_doc["value"]["fraction"] == tt_doc["value"]["fraction"]

    def test_learning_mode_file(self, tmp_path, capsys):
        path = write(tmp_path, "l.json", LEARNING)
        code, doc = run_json(capsys, ["solve", path, "--format", "json"])
        assert code == 0
        assert doc["value"]["fraction"] == "21/68"
        assert doc["stay_probability"] == "9/17"

    def test_closed_form_mix_off_the_matrix_is_certificate_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        # A closed-form searcher set that is no row of the game
        # ({1} is not maximal at budget 5) must fail the solve, not be
        # dropped from the certified mix.
        from dataclasses import replace

        from searchpursuit import closed_forms, game_core

        real = closed_forms.solve_arithmetic_times

        def off_matrix(captures, certify=True):
            sol = real(captures, certify=certify)
            spec = game_core.GameSpec(range(1, 6), captures, 5)
            (_, weight), *rest = sol.searcher_mix
            moved = ((game_core.SearchSet((1,)), weight), *rest)
            return replace(sol, searcher_mix=moved)

        monkeypatch.setattr(closed_forms, "solve_arithmetic_times", off_matrix)
        doc = dict(STAIRCASE, mode="arithmetic-times")
        path = write(tmp_path, "g.json", doc)
        assert main(["solve", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "certificate failure: closed form: searcher set [1] is not a row of the game\n"
        )

    @pytest.mark.parametrize("case", BROKEN_ANSWERS)
    def test_answer_that_fails_its_certificate_writes_nothing(
        self, tmp_path, capsys, monkeypatch, case
    ):
        game, *solver = BROKEN_ANSWERS[case]
        break_solver(monkeypatch, *solver)
        mode = game["mode"]
        path = write(tmp_path, "g.json", game)
        out_path = tmp_path / "result.json"
        assert main(["solve", path, "--format", "both", "--output", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"certificate failure: {mode} solution failed its certificate\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("mode", ["general", "constant-times", "arithmetic-times"])
    def test_location_solve_certifies_without_the_matrix_certificate(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        from searchpursuit import game_core, lp_solver, oracle

        def refuse(*args, **kwargs):
            raise AssertionError("dense certificate, enumeration or LP called")

        # A closed form is its own answer, and column generation lists
        # only the sets it prices: no row is enumerated and no LP runs
        # over the full matrix.
        monkeypatch.setattr(oracle, "verify_equilibrium", refuse)
        monkeypatch.setattr(lp_solver, "solve_zero_sum", refuse)
        monkeypatch.setattr(game_core, "maximal_feasible_sets", refuse)
        if mode == "constant-times":
            doc = {
                "locations": [{"time": 1, "capture": c} for c in ("1/5", "3/10", "1/2")],
                "budget": 2,
            }
        else:
            doc = STAIRCASE
        path = write(tmp_path, "g.json", dict(doc, mode=mode))
        assert main(["solve", path]) == 0
        assert capsys.readouterr().out.endswith("\ncertificate: ok\n")

    @pytest.mark.parametrize(
        "game", [STAIRCASE_80, CONSTANT_40_20], ids=["staircase-80", "constant-40-20"]
    )
    def test_large_closed_form_games_solve_and_verify_fast(self, tmp_path, game):
        game_path = write(tmp_path, "g.json", game)
        sol_path = str(tmp_path / "s.json")
        code, seconds, err = timed_main_in_child(
            ["solve", game_path, "--format", "json", "--output", sol_path]
        )
        assert (code, err) == (0, "")
        assert seconds < 1
        code, seconds, err = timed_main_in_child(["verify", game_path, sol_path])
        assert (code, err) == (0, "")
        assert seconds < 1
        # A claimed value 1/1000 too low fails on a row, named without a
        # list of the rows.
        doc = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
        doc["value"]["fraction"] = str(F(doc["value"]["fraction"]) - F(1, 1000))
        down_path = write(tmp_path, "down.json", doc)
        code, seconds, err = timed_main_in_child(["verify", game_path, down_path])
        assert code == 1
        assert err.startswith("certificate failure: row {")
        assert seconds < 1

    def test_general_mode_past_the_cap_is_still_refused(self, tmp_path):
        # The game the closed form above solves in milliseconds.
        path = write(tmp_path, "g.json", CONSTANT_40_20)
        code, seconds, err = timed_main_in_child(["solve", path, "--mode", "general"])
        assert code == 3
        assert seconds < 0.5
        assert "more than 4194304 feasible sets" in err


class TestSolveErrors:
    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_invalid_json_after_an_oversized_integer(self, tmp_path, capsys):
        # The decoder refuses the integer first; the document is read again
        # with integers kept as text, and the syntax error is what counts.
        path = tmp_path / "bad.json"
        path.write_text('{"budget": %s, "locations": [}' % ("1" * 4301), encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid JSON: Expecting value: line 1 column 4329 (char 4328)\n"
        )

    def test_unknown_field_rejected(self, tmp_path, capsys):
        doc = dict(EXAMPLE)
        doc["surprise"] = 1
        path = write(tmp_path, "g.json", doc)
        assert main(["solve", path]) == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_capture_above_one_rejected(self, tmp_path, capsys):
        doc = {"locations": [{"time": 1, "capture": "3/2"}], "budget": 1}
        path = write(tmp_path, "g.json", doc)
        assert main(["solve", path]) == 2

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/game.json"]) == 2

    def test_size_cap_is_resource_error(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        assert main(["solve", path, "--max-subsets", "4"]) == 3
        assert "too large" in capsys.readouterr().err

    def test_oversized_instance_is_refused_before_enumerating(self, tmp_path):
        # 30 unit-time locations at budget 15 have about 6 * 10**8
        # feasible sets; counting them by total refuses at once.
        doc = {"locations": [{"time": 1, "capture": "1/2"}] * 30, "budget": 15}
        path = write(tmp_path, "g.json", doc)
        code, seconds, err = timed_main_in_child(["solve", path])
        assert code == 3
        assert seconds < 0.5
        assert "more than 4194304 feasible sets" in err

    def test_learning_field_error_names_its_location_once(self, tmp_path, capsys):
        doc = {"mode": "learning", "learning": {"low": "abc", "high": "2/3"}}
        path = write(tmp_path, "g.json", doc)
        assert main(["solve", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: learning.low: not a rational: 'abc'\n"
        )

    @pytest.mark.parametrize(
        "budget, message",
        [
            (0, "budget must be between 1 and the location count"),
            ("3/2", "budget must be an integer number of inspections"),
        ],
    )
    def test_constant_times_budget_error_names_the_file(
        self, tmp_path, capsys, budget, message
    ):
        doc = {
            "mode": "constant-times",
            "locations": [{"time": 1, "capture": "1/2"}] * 2,
            "budget": budget,
        }
        path = write(tmp_path, "g.json", doc)
        assert main(["solve", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    def test_two_type_out_of_regime_is_input_error(self, tmp_path, capsys):
        doc = {
            "mode": "two-type",
            "two_type": {"a": 1, "b": 1, "tau": 3, "p": "1/4", "q": "1/8", "k": 3},
        }
        path = write(tmp_path, "g.json", doc)
        assert main(["solve", path]) == 2
        assert "general solver" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "capture, budget, field",
        [
            ("1e-200000", "1", "locations[1].capture"),
            ('"1e-999999999"', "1", "locations[1].capture"),
            ("1e-99999999999999999999999", "1", "locations[1].capture"),
            ("1e-4300", "1", "locations[1].capture"),
            ("0.5", "1" * 4301, ": budget"),
        ],
        ids=["float", "string", "past-decimal-range", "one-past-limit", "long-int"],
    )
    def test_oversized_number_is_resource_error(
        self, tmp_path, capsys, capture, budget, field
    ):
        # Each has a numerator or denominator longer than the int->str
        # digit limit (4300 by default), so it could not be printed back.
        path = tmp_path / "g.json"
        path.write_text(
            '{"locations": [{"time": 1, "capture": %s}, {"time": 2, '
            '"capture": 0.5}], "budget": %s}' % (capture, budget),
            encoding="utf-8",
        )
        started = time.perf_counter()
        assert main(["solve", str(path)]) == 3
        assert time.perf_counter() - started < 0.25
        assert f"{field}: numerator or denominator has more than" in (
            capsys.readouterr().err
        )

    def test_longest_printable_number_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(
            '{"locations": [{"time": 1, "capture": 1e-4299}], "budget": 1}',
            encoding="utf-8",
        )
        code, doc = run_json(capsys, ["solve", str(path), "--format", "json"])
        assert code == 0
        assert doc["value"]["fraction"] == "1/1" + "0" * 4299

    def test_string_exponent_past_decimal_range_is_refused_fast(self, tmp_path):
        # Decimal rejects this exponent; Fraction would build 10**(10**19).
        # Run in a child process so that a hang fails the test instead of
        # stalling the suite.
        path = tmp_path / "g.json"
        path.write_text(
            '{"locations": [{"time": 1, "capture": "1e-9999999999999999999"}], '
            '"budget": 1}',
            encoding="utf-8",
        )
        script = (
            "import sys, time\n"
            "from searchpursuit.cli import main\n"
            "started = time.perf_counter()\n"
            "code = main(['solve', sys.argv[1]])\n"
            "print(code, time.perf_counter() - started)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            timeout=20,
        )
        code, seconds = proc.stdout.split()
        assert code == "3"
        assert float(seconds) < 0.25
        assert "locations[1].capture: numerator or denominator has more than" in (
            proc.stderr
        )

    def test_exponent_past_decimal_range_without_a_digit_limit(self, tmp_path):
        # With no int->str digit limit the refusal names the exponent, and
        # a zero mantissa reads as 0 whatever its exponent.
        path = write(
            tmp_path,
            "g.json",
            {"locations": [{"time": 1, "capture": "1e-9999999999999999999"}],
             "budget": "0e-99999999999999999999"},
        )
        proc = subprocess.run(
            [sys.executable, "-m", "searchpursuit", "solve", path],
            capture_output=True,
            text=True,
            timeout=20,
            env={**os.environ, "PYTHONINTMAXSTRDIGITS": "0"},
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            f"error: {path}: locations[1].capture: "
            "exponent -9999999999999999999 is out of range\n"
        )

    def test_zero_mantissa_past_decimal_range_is_zero(self, tmp_path, capsys):
        doc = {**EXAMPLE, "budget": "0e-99999999999999999999"}
        path = write(tmp_path, "g.json", doc)
        code, out = run_json(capsys, ["solve", path, "--format", "json"])
        assert code == 0
        assert out["budget"] == "0"

    @pytest.mark.parametrize("fmt", ["table", "json", "both"])
    def test_unprintable_result_is_resource_error(self, tmp_path, capsys, fmt):
        # Each capture has 1500-digit terms and prints back, but the value
        # 1 / sum(1/p) has a numerator past the 4300-digit limit.
        rng = random.Random(7)
        locations = []
        for _ in range(3):
            a = rng.randrange(10**1499, 10**1500)
            b = rng.randrange(10**1499, a)
            locations.append({"time": 1, "capture": f"{b}/{a}"})
        path = write(tmp_path, "g.json", {"locations": locations, "budget": 1})
        assert main(["solve", path, "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: result: numerator or denominator has more than 4300 digits"
        )

    def test_wrong_times_for_constant_mode(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        assert main(["solve", path, "--mode", "constant-times"]) == 2

    @pytest.mark.parametrize("fmt", ["json", "both"])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, fmt):
        path = write(tmp_path, "g.json", EXAMPLE)
        target = tmp_path / "missing" / "x.json"
        assert main(["solve", path, "--format", fmt, "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert "No such file or directory" in captured.err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_max_subsets_below_one_is_usage_error(self, tmp_path, capsys, command, cap):
        path = write(tmp_path, "g.json", EXAMPLE)
        budgets = ["--k-from", "7", "--k-to", "7"] if command == "sweep" else []
        with pytest.raises(SystemExit) as exc:
            main([command, path, *budgets, "--max-subsets", cap])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-subsets: must be at least 1, got {cap}" in err


def roadmap_doc(seed, n):
    spec = roadmap_game(seed, n)
    locations = [
        {"time": str(t), "capture": str(p)} for t, p in zip(spec.times, spec.captures)
    ]
    return {"locations": locations, "budget": str(spec.budget)}


class TestRowCap:
    """``--max-rows`` caps the sets the master LP of column generation
    holds, in ``solve`` and in each budget of a ``sweep``."""

    def test_n18_game_solves_by_column_generation(self, tmp_path, capsys):
        # 6,999 maximal sets: the LP over all of them ran past 90 s.
        path = write(tmp_path, "g.json", roadmap_doc(0, 18))
        sol_path = tmp_path / "s.json"
        code, seconds, err = timed_main_in_child(
            ["solve", path, "--format", "json", "--output", str(sol_path)]
        )
        assert (code, err) == (0, "")
        assert seconds < 5
        assert json.loads(sol_path.read_text(encoding="utf-8"))["certificate"] == {"ok": True}
        assert main(["verify", path, str(sol_path)]) == 0
        assert capsys.readouterr().out == "certificate: ok\n"

    @staticmethod
    def assert_sweep_completes(tmp_path, seed, n):
        """``sweep`` of ``roadmap_game(seed, n)`` over k - 1..k + 1 exits 0
        in under 10 s, and every entry re-certifies."""
        from searchpursuit import game_core, lp_solver, oracle

        spec = roadmap_game(seed, n)
        path = write(tmp_path, "g.json", roadmap_doc(seed, n))
        out = tmp_path / "sweep.json"
        k = spec.budget
        code, seconds, err = timed_main_in_child(
            ["sweep", path, "--k-from", str(k - 1), "--k-to", str(k + 1), "--output", str(out)]
        )
        assert (code, err) == (0, "")
        assert seconds < 10
        entries = json.loads(out.read_text(encoding="utf-8"))["sweep"]
        assert [F(e["budget"]) for e in entries] == [k - 1, k, k + 1]
        for entry in entries:
            # Re-certified: the hider holds every set to the value, and
            # the value is that of a certified column-generation answer.
            budget_spec = replace(spec, budget=F(entry["budget"]))
            hider, value = [F(h) for h in entry["hider"]], F(entry["value"]["fraction"])
            assert game_core.max_payoff(budget_spec, hider)[0] == value
            sol = lp_solver.solve_location_game(budget_spec, lp_solver.DEFAULT_MAX_ROWS)
            mix = [(s.members, w) for s, w in sol.searcher]
            assert oracle.location_certificate(budget_spec, sol.hider, mix, sol.value) is None
            assert sol.value == value

    def test_n18_sweep_completes(self, tmp_path):
        # Budget k has 6,999 maximal sets, past the default --max-rows,
        # so exit 0 shows that no budget fell back on the full matrix.
        self.assert_sweep_completes(tmp_path, 0, 18)

    @pytest.mark.parametrize("seed, n", [(2, 22), (0, 24)])
    def test_probed_sweeps_complete(self, tmp_path, seed, n):
        # Entries the rank test cannot settle, over 54,821 maximal sets
        # at n = 22; the ratio test over the maximal sets of the n = 24
        # game took 34 s.
        self.assert_sweep_completes(tmp_path, seed, n)

    def test_solve_cap_is_on_the_master_lp(self, tmp_path, capsys):
        # The master LP of the worked example starts from its three
        # maximal sets, one per location, and needs no other.
        path = write(tmp_path, "g.json", EXAMPLE)
        assert main(["solve", path, "--max-rows", "3"]) == 0
        capsys.readouterr()
        assert main(["solve", path, "--max-rows", "2"]) == 3
        assert capsys.readouterr().err == (
            "error: 3 maximal feasible sets in the master LP, more than 2 "
            "(--max-rows); instance too large for the exact LP\n"
        )

    def test_sweep_cap_is_per_budget(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        # Budgets 0..3 have one maximal set, budget 4 two, 5 to 8 three.
        # Each master starts from the previous budget's support. Budget
        # 5's starts from {2} alone, and pricing adds {1}, then {3},
        # before its hider settles at location 4, which no set reaches.
        def sweep(k_to, max_rows):
            return main(["sweep", path, "--k-from", "0", "--k-to", k_to, "--max-rows", max_rows])

        assert sweep("8", "3") == 0
        assert sweep("4", "2") == 0
        capsys.readouterr()
        assert sweep("5", "2") == 3
        assert capsys.readouterr().err == (
            "error: 3 maximal feasible sets in the master LP, more than 2 "
            "(--max-rows); instance too large for the exact LP\n"
        )
        # A cold first budget starts from one greedy set per location.
        with pytest.raises(InstanceTooLarge, match="3 maximal feasible sets in the master LP"):
            sweep_budget((5, 3, 4, 7), ("0.1", "0.2", "0.15", "0.4"), [6, 7], max_rows=2)

    def test_sweep_cap_also_bounds_the_probe(self, tmp_path, capsys):
        # Budget 4's warm master holds budget 3's {2} alone, but its
        # hider is not unique, and the uniqueness probe adds {3}.
        path = write(tmp_path, "g.json", EXAMPLE)
        argv = ["sweep", path, "--k-from", "0", "--k-to", "4", "--max-rows", "1"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: 2 maximal feasible sets in the uniqueness probe, more than 1 "
            "(--max-rows); instance too large for the exact LP\n"
        )

    def test_two_type_cross_check_keeps_its_own_cap(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", TWO_TYPE)
        code, doc = run_json(capsys, ["solve", path, "--max-rows", "1", "--format", "json"])
        assert (code, doc["provenance"]) == (0, "both")

    def test_two_type_cross_check_runs_up_to_its_cap(self, tmp_path, capsys):
        # At budget 1 no two locations fit together, so the block's
        # 1 + a + b = 7 sets are all the feasible sets.
        doc = {"mode": "two-type", "two_type": dict(TWO_TYPE["two_type"], tau=1, k=1)}
        path = write(tmp_path, "t.json", doc)
        for cap, provenance in (("7", "both"), ("6", "closed-form")):
            code, solution = run_json(
                capsys, ["solve", path, "--format", "json", "--max-subsets", cap]
            )
            assert (code, solution["provenance"]) == (0, provenance)

    def test_two_type_block_past_the_cap_is_not_expanded(self, tmp_path):
        # 3 * 10**7 quick locations are more feasible sets than the
        # cross-check takes; expanding the game to find that out takes
        # seconds.
        doc = {"mode": "two-type", "two_type": dict(TWO_TYPE["two_type"], a=30_000_000)}
        path, out = write(tmp_path, "t.json", doc), tmp_path / "s.json"
        code, seconds, err = timed_main_in_child(["solve", path, "--output", str(out)])
        assert (code, err) == (0, "")
        assert seconds < 1
        solution = json.loads(out.read_text(encoding="utf-8"))
        assert (solution["provenance"], solution["certificate"]) == ("closed-form", {"ok": True})

    def test_closed_forms_and_verify_run_no_lp(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", STAIRCASE_80)
        assert main(["solve", path, "--max-rows", "1", "--format", "json"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", path, path, "--max-rows", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_max_rows_below_one_is_usage_error(self, tmp_path, capsys, command):
        path = write(tmp_path, "g.json", EXAMPLE)
        budgets = ["--k-from", "7", "--k-to", "7"] if command == "sweep" else []
        with pytest.raises(SystemExit) as exc:
            main([command, path, *budgets, "--max-rows", "0"])
        assert exc.value.code == 2
        assert "argument --max-rows: must be at least 1, got 0" in capsys.readouterr().err


class TestSweep:
    def test_two_type_out_of_regime_names_the_file(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", TWO_TYPE)
        assert main(["sweep", path, "--k-from", "1", "--k-to", "4"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: no searcher mix over ")

    def test_staircase_table_rows(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", STAIRCASE)
        code, doc = run_json(
            capsys,
            ["sweep", path, "--k-from", "5", "--k-to", "10", "--format", "json"],
        )
        assert code == 0
        values = [row["value"]["fraction"] for row in doc["sweep"]]
        assert values == ["3/55", "3/55", "1/15", "1/15", "18/185", "1/10"]
        assert all(row["unique"] for row in doc["sweep"])

    def test_single_budget_row(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        assert main(["sweep", path, "--k-from", "7", "--k-to", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 2
        assert "6/115" in out

    def test_two_type_sweep_is_linear_in_budget(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", TWO_TYPE)
        code, doc = run_json(
            capsys,
            ["sweep", path, "--k-from", "2", "--k-to", "4", "--format", "json"],
        )
        assert code == 0
        values = [row["value"]["fraction"] for row in doc["sweep"]]
        assert values == ["3/50", "9/100", "3/25"]

    def test_two_type_sweep_stops_outside_the_regime(self, tmp_path, capsys):
        # At budget 1 no slow location fits, so the equalizing mean is
        # unattainable and the closed form refuses.
        path = write(tmp_path, "g.json", TWO_TYPE)
        assert main(["sweep", path, "--k-from", "1", "--k-to", "4"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "p", [0.3, "6/20", "0.3"], ids=["json-decimal", "fraction", "decimal-string"]
    )
    def test_two_type_sweep_echoes_the_parsed_block(self, tmp_path, capsys, p):
        doc = {"mode": "two-type", "two_type": dict(TWO_TYPE["two_type"], p=p)}
        path = write(tmp_path, "g.json", doc)
        code, result = run_json(
            capsys,
            ["sweep", path, "--k-from", "3", "--k-to", "4", "--format", "json"],
        )
        assert code == 0
        assert result["two_type"] == dict(TWO_TYPE["two_type"], p="3/10")
        code, solved = run_json(capsys, ["solve", path, "--format", "json"])
        assert code == 0
        assert solved["two_type"] == result["two_type"]

    @pytest.mark.parametrize("mode", ["constant-times", "arithmetic-times"])
    def test_mode_time_rule_matches_solve(self, tmp_path, capsys, mode):
        path = write(tmp_path, "g.json", EXAMPLE)
        assert main(["solve", path, "--mode", mode]) == 2
        solve_err = capsys.readouterr().err
        assert main(["sweep", path, "--k-from", "1", "--k-to", "2", "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", solve_err)
        assert "requires" in solve_err

    def test_arithmetic_sweep_budgets_stay_free(self, tmp_path, capsys):
        # solve needs budget n = 5 in this mode; a sweep may leave it.
        path = write(tmp_path, "g.json", STAIRCASE)
        argv = ["sweep", path, "--k-from", "3", "--k-to", "7", "--mode", "arithmetic-times"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("\n") == 6

    def test_reversed_range_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        assert main(["sweep", path, "--k-from", "5", "--k-to", "3"]) == 2

    @pytest.mark.parametrize("game", [EXAMPLE, TWO_TYPE], ids=["locations", "two-type"])
    def test_negative_budget_names_its_flag(self, tmp_path, capsys, game):
        path = write(tmp_path, "g.json", game)
        assert main(["sweep", path, "--k-from", "-2", "--k-to", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --k-from must be nonnegative\n")

    @pytest.mark.parametrize("k_from", ["0", "1/2"], ids=["zero", "fractional"])
    def test_two_type_budget_error_names_its_flag(self, tmp_path, capsys, k_from):
        path = write(tmp_path, "t.json", TWO_TYPE)
        assert main(["sweep", path, "--k-from", k_from, "--k-to", "2"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: --k-from must be a positive integer in a two-type sweep\n",
        )

    def test_two_type_sweep_certifies_every_budget(self, tmp_path, capsys, monkeypatch):
        break_solver(monkeypatch, *BROKEN_ANSWERS["two-type"][1:])
        path = write(tmp_path, "g.json", TWO_TYPE)
        assert main(["sweep", path, "--k-from", "2", "--k-to", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "certificate failure: two-type solution failed its certificate\n"

    def test_location_sweep_refuses_an_uncertified_lp_answer(
        self, tmp_path, capsys, monkeypatch
    ):
        # The range certificate gives nothing for a hider that is not
        # optimal; the sweep must not fall back on the probe and print it.
        break_solver(monkeypatch, *BROKEN_ANSWERS["general"][1:])
        path = write(tmp_path, "g.json", EXAMPLE)
        assert main(["sweep", path, "--k-from", "7", "--k-to", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "certificate failure: budget 7: LP solution failed its certificate\n"
        )

    def test_budget_range_past_the_cap_is_refused_fast(self, tmp_path):
        path = write(tmp_path, "g.json", EXAMPLE)
        code, seconds, err = timed_main_in_child(
            ["sweep", path, "--k-from", "0", "--k-to", "100000000"]
        )
        assert code == 3
        assert seconds < 0.25
        assert "--k-from..--k-to spans 100000001 budgets" in err

    @pytest.mark.parametrize("n, k_to", [(26, "31"), (30, "25")])
    def test_sweep_past_the_cap_is_refused_before_any_solve(self, tmp_path, n, k_to):
        # Only the last budget is over the cap, so a check at each budget
        # would solve all the others, for seconds, before refusing.
        path = write(tmp_path, "g.json", roadmap_doc(0, n))
        code, seconds, err = timed_main_in_child(["sweep", path, "--k-from", "0", "--k-to", k_to])
        assert (code, err) == (3, (
            "error: more than 4194304 feasible sets (--max-subsets); "
            "instance too large for exhaustive enumeration\n"
        ))
        assert seconds < 1

    def test_budget_range_up_to_the_cap_is_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        argv = ["sweep", path, "--k-from", "0", "--k-to", "2", "--max-subsets"]
        assert main(argv + ["3"]) == 0
        capsys.readouterr()
        assert main(argv + ["2"]) == 3
        assert "more than --max-subsets (2)" in capsys.readouterr().err


class TestLearning:
    def test_report_contents(self, capsys):
        assert main(["learning", "--low", "1/3", "--high", "2/3"]) == 0
        out = capsys.readouterr().out
        assert "value: 21/68" in out
        assert "P(stay after escape)   = 9/17" in out
        assert "implied capture probability there = 4/9" in out
        assert "posterior P(low capture | escape) = 2/3" in out
        assert "stay favored: yes" in out

    def test_special_cases(self, capsys):
        assert main(["learning", "--low", "0", "--high", "0"]) == 0
        out = capsys.readouterr().out
        assert "value: 1/2" in out
        assert main(["learning", "--low", "0", "--high", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "value: 33/80" in out
        assert "P(stay after escape)   = 3/5" in out

    @pytest.mark.parametrize(
        "low, high, provenance",
        [
            ("1/3", "2/3", "closed-form"),
            ("0", "0", "closed-form"),
            ("0", "1", "closed-form"),
            ("1", "1", "closed-form"),
        ],
    )
    def test_provenance_names_the_path_that_ran(self, capsys, low, high, provenance):
        # One closed form solves every input, the degenerate corners too.
        argv = ["learning", "--low", low, "--high", high, "--format", "json"]
        code, doc = run_json(capsys, argv)
        assert (code, doc["provenance"]) == (0, provenance)

    def test_invalid_probabilities(self, capsys):
        assert main(["learning", "--low", "2/3", "--high", "1/3"]) == 2
        assert main(["learning", "--low", "0", "--high", "3/2"]) == 2

    def test_answer_that_fails_its_certificate_is_not_printed(self, capsys, monkeypatch):
        for case in ("learning", "learning-no-stay"):
            break_solver(monkeypatch, *BROKEN_ANSWERS[case][1:])
            assert main(["learning", "--low", "1/3", "--high", "2/3"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "certificate failure: learning solution failed its certificate\n"
            )
            monkeypatch.undo()


def count_certificate_calls(monkeypatch):
    """Count the calls of ``oracle.verify_equilibrium`` through every
    package module that binds it; returns the list they are added to."""
    real, calls = searchpursuit.oracle.verify_equilibrium, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("searchpursuit.") and getattr(module, "verify_equilibrium", None) is real:
            monkeypatch.setattr(module, "verify_equilibrium", counted)
    return calls


class TestCertificateCalls:
    """Each answer is certified once: learning's on its 2x2 matrix, the
    two-type game's straight from its payoffs, with no matrix at all."""

    def test_learning_command_certifies_once(self, capsys, monkeypatch):
        calls = count_certificate_calls(monkeypatch)
        assert main(["learning", "--low", "1/3", "--high", "2/3"]) == 0
        assert len(calls) == 1

    def test_two_type_solve_and_verify_build_no_matrix(self, tmp_path, capsys, monkeypatch):
        calls = count_certificate_calls(monkeypatch)
        game_path, sol_path = write(tmp_path, "t.json", TWO_TYPE), tmp_path / "t-sol.json"
        assert main(["solve", game_path, "--format", "json", "--output", str(sol_path)]) == 0
        assert calls == []
        assert main(["verify", game_path, str(sol_path)]) == 0
        assert calls == []


class TestVerify:
    def solve_to_file(self, tmp_path, capsys, game, name, extra=()):
        game_path = write(tmp_path, f"{name}.json", game)
        sol_path = tmp_path / f"{name}-sol.json"
        args = ["solve", game_path, "--format", "json", "--output", str(sol_path)]
        args += list(extra)
        assert main(args) == 0
        capsys.readouterr()
        return game_path, sol_path

    def test_value_lowered_rational_game_names_a_row_fast(self, tmp_path):
        # Rational times at n = 40: the certificate's knapsack would hold
        # more than the default --max-subsets of distinct totals, while
        # its Pareto front stays short.
        game, solution = value_lowered_documents(rational_time_game(0, 40), F(1, 1000))
        game_path = write(tmp_path, "g.json", game)
        sol_path = write(tmp_path, "s.json", solution)
        code, seconds, err = timed_main_in_child(["verify", game_path, sol_path])
        assert code == 1
        assert err.startswith("certificate failure: row {")
        assert seconds < 2

    def test_round_trip_general(self, tmp_path, capsys):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, EXAMPLE, "g")
        assert main(["verify", game_path, str(sol_path)]) == 0
        assert "certificate: ok" in capsys.readouterr().out

    def test_round_trip_arithmetic_times(self, tmp_path, capsys):
        doc = dict(STAIRCASE)
        doc["mode"] = "arithmetic-times"
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, doc, "a")
        assert main(["verify", game_path, str(sol_path)]) == 0

    def test_round_trip_two_type(self, tmp_path, capsys):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, TWO_TYPE, "t")
        assert main(["verify", game_path, str(sol_path)]) == 0

    def test_round_trip_learning(self, tmp_path, capsys):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, LEARNING, "l")
        assert main(["verify", game_path, str(sol_path)]) == 0

    @pytest.mark.parametrize(
        "budget, regime", [(30, "interior"), (150, "corner")], ids=["interior", "corner"]
    )
    def test_round_trip_unit_time_300(self, tmp_path, capsys, budget, regime):
        rng = random.Random(300)
        game = {
            "mode": "constant-times",
            "locations": [{"time": 1, "capture": f"{rng.randint(1, 20)}/20"} for _ in range(300)],
            "budget": budget,
        }
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, game, "u")
        doc = json.loads(sol_path.read_text(encoding="utf-8"))
        assert doc["constant_times"]["regime"] == regime
        assert main(["verify", game_path, str(sol_path)]) == 0
        assert capsys.readouterr().out == "certificate: ok\n"
        # Half the heaviest hider weight moved to a best-captured location:
        # a set holding that location and not the other pays more than v.
        hider = [F(h) for h in doc["hider"]]
        source = max(range(300), key=hider.__getitem__)
        target = max(range(300), key=lambda i: F(game["locations"][i]["capture"]))
        moved = hider[source] / 2
        hider[source] -= moved
        hider[target] += moved
        doc["hider"] = [str(h) for h in hider]
        sol_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", game_path, str(sol_path)]) == 1
        assert capsys.readouterr().err.startswith("certificate failure: row {")

    def altered_solution(self, tmp_path, capsys, game, change):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, game, "x")
        doc = json.loads(sol_path.read_text(encoding="utf-8"))
        change(doc)
        sol_path.write_text(json.dumps(doc), encoding="utf-8")
        return main(["verify", game_path, str(sol_path)]), capsys.readouterr()

    def test_two_type_masses_are_certified_as_written(self, tmp_path, capsys):
        # 2/5 and 9/10 sum to 13/10; the type-2 mass used to be read as 3/5.
        code, out = self.altered_solution(
            tmp_path, capsys, TWO_TYPE, lambda d: d["hider"].update(type2_mass="9/10")
        )
        assert code == 2
        assert "certificate: ok" not in out.out
        sol_path = tmp_path / "x-sol.json"
        assert out.err == f"error: {sol_path}: hider mix is not a probability distribution\n"

    def test_two_type_missing_type2_mass_is_named(self, tmp_path, capsys):
        code, out = self.altered_solution(
            tmp_path, capsys, TWO_TYPE, lambda d: d["hider"].pop("type2_mass")
        )
        assert code == 2
        assert out.err == f"error: {tmp_path / 'x-sol.json'}: missing 'hider.type2_mass'\n"

    def test_two_type_bad_type2_mass_is_input_error(self, tmp_path, capsys):
        code, out = self.altered_solution(
            tmp_path, capsys, TWO_TYPE, lambda d: d["hider"].update(type2_mass="x")
        )
        assert code == 2
        assert out.err.startswith(f"error: {tmp_path / 'x-sol.json'}: hider.type2_mass: ")

    @staticmethod
    def two_type_verify(tmp_path, capsys, block, hider, mix, value):
        """Exit code and captured output of ``verify`` on a hand-written
        two-type claim: hider (quick, slow) masses, mix of (j, weight)."""
        game_path = write(tmp_path, "t.json", {"mode": "two-type", "two_type": block})
        claim = {
            "mode": "two-type",
            "value": {"fraction": value},
            "hider": {"type1_mass": hider[0], "type2_mass": hider[1]},
            "searcher": [{"type2_searched": j, "probability": w} for j, w in mix],
        }
        sol_path = write(tmp_path, "t-sol.json", claim)
        return game_path, main(["verify", game_path, sol_path]), capsys.readouterr()

    @pytest.mark.parametrize(
        "block, mix",
        [
            # a < k: one quick location, so the type-level rows j = 0..5
            # are not sets of this game; they hold this claim of 1/4.
            (A_BELOW_K, [(2, "1/2"), (3, "1/2")]),
            # tau > k with a < k: no slow location fits, and two quick
            # locations do not fill the budget.
            ({"a": 2, "b": 1, "tau": 4, "p": "1/2", "q": "1/2", "k": 3}, [(0, "1")]),
        ],
        ids=["a-below-k", "tau-above-k"],
    )
    def test_two_type_rows_that_are_not_the_games_sets_are_refused(
        self, tmp_path, capsys, block, mix
    ):
        game_path, code, out = self.two_type_verify(
            tmp_path, capsys, block, ("1/2", "1/2"), mix, "1/4"
        )
        assert code == 2
        assert out.out == ""
        assert out.err == (
            f"error: {game_path}: the type-level certificate needs a >= k and "
            "b >= floor(k / tau); use the general solver\n"
        )

    def test_two_type_game_below_k_quick_locations_is_worth_less(self, tmp_path, capsys):
        # The same 11 locations as A_BELOW_K, listed: worth 1/10, not 1/4.
        general = {
            "locations": [{"time": 1, "capture": "1/10"}] + [{"time": 1, "capture": 1}] * 10,
            "budget": 5,
        }
        code, doc = run_json(capsys, ["solve", write(tmp_path, "g.json", general), "--format", "json"])
        assert code == 0
        assert doc["value"]["fraction"] == "1/10"

    def test_two_type_rows_are_the_sets_where_b_covers_floor_k_over_tau(
        self, tmp_path, capsys
    ):
        # b * tau = 4 < k = 5, so the closed form refuses this game, but
        # b = 2 >= floor(5 / 2): the rows j = 0, 1, 2 are its maximal
        # sets, and the equilibrium over them is certified.
        block = {"a": 5, "b": 2, "tau": 2, "p": "1/2", "q": "1/2", "k": 5}
        _, code, out = self.two_type_verify(
            tmp_path, capsys, block, ("5/9", "4/9"), [(1, "8/9"), (2, "1/9")], "5/18"
        )
        assert (code, out.out) == (0, "certificate: ok\n")
        general = {
            "locations": [{"time": 1, "capture": "1/2"}] * 5 + [{"time": 2, "capture": "1/2"}] * 2,
            "budget": 5,
        }
        code, doc = run_json(capsys, ["solve", write(tmp_path, "g.json", general), "--format", "json"])
        assert code == 0
        assert doc["value"]["fraction"] == "5/18"

    @pytest.mark.parametrize("key", ["stay_probability", "switch_probability"])
    def test_learning_missing_probability_is_named(self, tmp_path, capsys, key):
        code, out = self.altered_solution(
            tmp_path, capsys, LEARNING, lambda d: d.pop(key)
        )
        assert code == 2
        assert out.err == f"error: {tmp_path / 'x-sol.json'}: missing '{key}'\n"

    def test_tampered_value_fails_with_slack(self, tmp_path, capsys):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, EXAMPLE, "g")
        doc = json.loads(sol_path.read_text(encoding="utf-8"))
        doc["value"]["fraction"] = "7/115"
        sol_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", game_path, str(sol_path)]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "slack" in captured.out

    def test_dimension_mismatch_is_input_error(self, tmp_path, capsys):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, EXAMPLE, "g")
        smaller = {
            "locations": EXAMPLE["locations"][:3],
            "budget": 7,
        }
        small_path = write(tmp_path, "small.json", smaller)
        assert main(["verify", small_path, str(sol_path)]) == 2

    @pytest.mark.parametrize(
        "game, mode",
        [(EXAMPLE, "sweep"), (TWO_TYPE, "two-type-sweep")],
        ids=["sweep", "two-type-sweep"],
    )
    def test_sweep_documents_are_refused(self, tmp_path, capsys, game, mode):
        game_path = write(tmp_path, "g.json", game)
        sweep_path = tmp_path / "sweep.json"
        argv = ["sweep", game_path, "--k-from", "4", "--k-to", "4"]
        assert main(argv + ["--format", "json", "--output", str(sweep_path)]) == 0
        assert main(["verify", game_path, str(sweep_path)]) == 2
        assert f"cannot verify mode '{mode}'" in capsys.readouterr().err

    def test_unknown_searcher_set_is_input_error(self, tmp_path, capsys):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, EXAMPLE, "g")
        doc = json.loads(sol_path.read_text(encoding="utf-8"))
        doc["searcher"][0]["set"] = [2]
        sol_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", game_path, str(sol_path)]) == 2

    def test_repeated_searcher_set_adds_its_probabilities(self, tmp_path, capsys):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, EXAMPLE, "g")
        doc = json.loads(sol_path.read_text(encoding="utf-8"))
        assert doc["searcher"][0] == {"set": [1], "probability": "12/23"}
        doc["searcher"][0]["probability"] = "6/23"
        doc["searcher"].append({"set": [1], "probability": "6/23"})
        sol_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", game_path, str(sol_path)]) == 0
        assert capsys.readouterr().out == "certificate: ok\n"

    def test_repeated_type2_count_adds_its_probabilities(self, tmp_path, capsys):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, TWO_TYPE, "t")
        doc = json.loads(sol_path.read_text(encoding="utf-8"))
        assert doc["searcher"][0] == {"type2_searched": 1, "probability": "4/5"}
        doc["searcher"][0]["probability"] = "2/5"
        doc["searcher"].append({"type2_searched": 1, "probability": "2/5"})
        sol_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", game_path, str(sol_path)]) == 0
        assert capsys.readouterr().out == "certificate: ok\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("hider", 5, "hider must be a JSON array"),
            ("hider", "12/23", "hider must be a JSON array"),
            ("searcher", {"set": [1], "probability": 1}, "searcher must be a JSON array"),
            ("set", [1, "a"], "searcher set members must be integers"),
            ("set", [[1]], "searcher set members must be integers"),
            ("set", [True], "searcher set members must be integers"),
            ("set", [1.0], "searcher set members must be integers"),
            ("set", "1", "searcher set must be a JSON array of locations"),
        ],
        ids=[
            "hider-number", "hider-string", "searcher-object", "set-string-member",
            "set-nested-list", "set-bool-member", "set-float-member", "set-string",
        ],
    )
    def test_malformed_solution_shape_names_its_field(
        self, tmp_path, capsys, key, value, message
    ):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, EXAMPLE, "g")
        doc = json.loads(sol_path.read_text(encoding="utf-8"))
        if key == "set":
            doc["searcher"][0]["set"] = value
        else:
            doc[key] = value
        sol_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", game_path, str(sol_path)]) == 2
        assert capsys.readouterr().err == f"error: {sol_path}: {message}\n"

    @staticmethod
    def staircase_documents(tmp_path, n, value_shift=0):
        """A staircase game (times 1..n, budget n) and its closed-form
        solution document, with the value moved by ``value_shift``."""
        from searchpursuit.closed_forms import solve_arithmetic_times

        captures = [F(1, i + 1) for i in range(n)]
        sol = solve_arithmetic_times(captures, certify=False)
        game = {
            "mode": "arithmetic-times",
            "locations": [{"time": i, "capture": str(p)} for i, p in enumerate(captures, 1)],
            "budget": n,
        }
        solution = {
            "value": {"fraction": str(sol.value + value_shift)},
            "hider": [str(h) for h in sol.hider.probs],
            "searcher": [
                {"set": list(s.members), "probability": str(w)} for s, w in sol.searcher_mix
            ],
        }
        return write(tmp_path, "g.json", game), write(tmp_path, "s.json", solution)

    def test_location_verify_builds_no_matrix(self, tmp_path, capsys, monkeypatch):
        from searchpursuit import game_core, oracle

        def refuse(*args, **kwargs):
            raise AssertionError("verify enumerated rows or built a matrix")

        for module, name in [
            (game_core, "maximal_feasible_sets"),
            (game_core, "build_matrix"),
            (oracle, "verify_equilibrium"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        game_path, sol_path = self.staircase_documents(tmp_path, 56)
        assert main(["verify", game_path, sol_path]) == 0
        assert capsys.readouterr().out == "certificate: ok\n"

    def test_failed_location_verify_names_its_row(self, tmp_path, capsys, monkeypatch):
        from searchpursuit import game_core

        def refuse(*args, **kwargs):
            raise AssertionError("verify enumerated rows")

        monkeypatch.setattr(game_core, "maximal_feasible_sets", refuse)
        game_path, sol_path = self.staircase_documents(tmp_path, 10, -F(1, 1000))
        assert main(["verify", game_path, sol_path]) == 1
        out = capsys.readouterr()
        assert out.out.startswith(
            "certificate FAILED: hider side exceeds the claimed value on row {"
        )
        assert out.out.endswith(" (slack -1/1000)\n")
        assert out.err.startswith("certificate failure: row {")

    def test_verify_past_the_cap_needs_no_enumeration(self, tmp_path, capsys):
        # The staircase at n = 10 has 43 feasible sets; its hider's
        # knapsack table holds 7 totals.
        game_path, sol_path = self.staircase_documents(tmp_path, 10)
        assert main(["verify", game_path, sol_path, "--max-subsets", "20"]) == 0
        assert capsys.readouterr().out == "certificate: ok\n"

    def test_failed_row_check_past_the_cap_names_its_row(self, tmp_path, capsys):
        game_path, sol_path = self.staircase_documents(tmp_path, 10, -F(1, 1000))
        assert main(["verify", game_path, sol_path, "--max-subsets", "20"]) == 1
        out = capsys.readouterr()
        assert out.out.endswith(" (slack -1/1000)\n")
        assert out.err.startswith("certificate failure: row {")

    def test_bool_type2_count_is_input_error(self, tmp_path, capsys):
        game_path, sol_path = self.solve_to_file(tmp_path, capsys, TWO_TYPE, "t")
        doc = json.loads(sol_path.read_text(encoding="utf-8"))
        doc["searcher"][0]["type2_searched"] = True
        sol_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", game_path, str(sol_path)]) == 2
        assert "type2_searched must be an integer" in capsys.readouterr().err


def _decreasing(budgets, values):
    raise searchpursuit.oracle.MonotonicityError("value decreased from 1 to 0 at budget 7")


def _off_by_one_total(real):
    def patched(matrix):
        value, total, *rest = real(matrix)
        return (value, total + 1, *rest)

    return patched


class TestInternalErrors:
    """A solver's RuntimeError is a fault of the program: exit 1 with
    ``internal error: ...`` and nothing on standard output."""

    CASES = {
        "unbounded": (
            "lp_solver", "_leaving", lambda real: lambda *args: None,
            "solve", "unbounded linear program",
        ),
        "simplex-postcondition": (
            # The two-type cross-check still runs the full LP.
            "lp_solver", "_game_lp", _off_by_one_total,
            "two-type", "simplex postcondition violated",
        ),
        "column-generation-postcondition": (
            # The pricer names {1}, already in the master, as improving.
            "lp_solver", "_best_set", lambda real: lambda spec, benefits: (F(1), (1,)),
            "solve", "column generation postcondition violated",
        ),
        "monotonicity": (
            "oracle", "check_nondecreasing", lambda real: _decreasing,
            "sweep", "value decreased from 1 to 0 at budget 7",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_1_without_a_traceback(self, tmp_path, capsys, monkeypatch, case):
        module, name, patch, command, message = self.CASES[case]
        mod = getattr(searchpursuit, module)
        monkeypatch.setattr(mod, name, patch(getattr(mod, name)))
        path = write(tmp_path, "g.json", EXAMPLE)
        argv = {
            "solve": ["solve", path],
            "two-type": ["solve", write(tmp_path, "t.json", TWO_TYPE)],
            "sweep": ["sweep", path, "--k-from", "7", "--k-to", "7"],
            "learning": ["learning", "--low", "1/3", "--high", "2/3"],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {message}\n"


class TestParserReuse:
    def test_calls_in_one_process_leave_no_trace(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", EXAMPLE)
        plain = ["solve", path]
        first = (main(plain), capsys.readouterr())
        busy = [
            "solve", path, "--output", str(tmp_path / "out.json"),
            "--mode", "general", "--paper-names", "--format", "both",
        ]
        assert main(busy) == 0
        assert "location 5: " in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--format", "yaml"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert (main(plain), capsys.readouterr()) == first

    def test_parser_is_built_at_most_once(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            # Subcommand parsers run this too; count only the top level.
            if kwargs.get("prog") == "searchpursuit":
                built.append(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        path = write(tmp_path, "g.json", EXAMPLE)
        for argv in (["solve", path], ["learning", "--low", "1/3", "--high", "2/3"],
                     ["sweep", path, "--k-from", "7", "--k-to", "7"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(built) <= 1


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "g.json", EXAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "searchpursuit", "solve", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "value: 6/115" in proc.stdout


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    # The child's standard output is a pipe whose read end is closed
    # before the child starts, so its first write always meets a closed
    # pipe, however much the kernel would buffer.
    path = write(
        tmp_path,
        "g.json",
        {"locations": [{"time": 1, "capture": "1/2"}, {"time": 2, "capture": "1/4"}],
         "budget": 1},
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "searchpursuit", "sweep", path,
             "--k-from", "0", "--k-to", "600", "--format", "both"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""
