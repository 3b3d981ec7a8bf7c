"""Byte-identity corpus for the command-line front end.

Every case runs ``main(argv)`` in a directory that holds the corpus's
input files, and compares the exit code, standard output, standard
error and any file written with ``--output`` against
``golden/cli.json``. The corpus covers every mode and output format,
sweeps, ``verify`` round trips with the value moved by +-1/1000, and
the error paths.

The expected file records what the program printed when the corpus was
made. Regenerate it only to record an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import roadmap_game
from searchpursuit.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"


def run_case(argv: list[str], workdir) -> dict:
    """Exit code, output and written files of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        written = {}
        if "--output" in argv:
            target = Path(argv[argv.index("--output") + 1])
            if target.exists():
                written[target.name] = target.read_text(encoding="utf-8")
                target.unlink()
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "written": written}


def _load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


_GOLDEN = _load_golden() if GOLDEN.exists() else {"files": {}, "cases": []}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli-corpus")
    for name, text in _GOLDEN["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    return workdir


@pytest.mark.parametrize(
    "case", _GOLDEN["cases"], ids=[case["name"] for case in _GOLDEN["cases"]]
)
def test_cli_output_is_unchanged(case, corpus_dir):
    got = run_case(case["argv"], corpus_dir)
    expected = {key: case[key] for key in ("exit", "stdout", "stderr", "written")}
    assert got == expected


def test_corpus_is_present():
    assert len(_GOLDEN["cases"]) >= 100


# ---------------------------------------------------------------------------
# Building the corpus


def _game(locations, budget, mode=None) -> str:
    doc = {"locations": [{"time": t, "capture": p} for t, p in locations], "budget": budget}
    if mode is not None:
        doc["mode"] = mode
    return json.dumps(doc)


def _two_type(**block) -> str:
    return json.dumps({"mode": "two-type", "two_type": block})


def _learning(low, high) -> str:
    return json.dumps({"mode": "learning", "learning": {"low": low, "high": high}})


EXAMPLE = [(5, 0.1), (3, 0.2), (4, 0.15), (7, 0.4)]
STAIRCASE = list(zip(range(1, 6), ("1/2", "2/5", "3/10", "1/5", "1/10")))
TWO_TYPE = {"a": 4, "b": 2, "tau": 2, "p": "3/10", "q": "1/5", "k": 4}


def _roadmap(seed: int, n: int) -> str:
    """The benchmark's random game, in general mode."""
    spec = roadmap_game(seed, n)
    locations = [(int(t), str(p)) for t, p in zip(spec.times, spec.captures)]
    return _game(locations, int(spec.budget), "general")


# Random general games whose printed searcher mix depends on the
# simplex's pivot path, not only on the game.
ROADMAP_GAMES = ((0, 8), (7, 8), (0, 9), (1, 9))


def _oversized(capture: str, budget: str) -> str:
    return (
        '{"locations": [{"time": 1, "capture": %s}, {"time": 2, '
        '"capture": 0.5}], "budget": %s}' % (capture, budget)
    )


BASE_FILES = {
    "example.json": _game(EXAMPLE, 7),
    "example-frac.json": _game(
        [(5, "1/10"), (3, "1/5"), (4, "3/20"), (7, "2/5")], 7
    ),
    "example3.json": _game(EXAMPLE[:3], 7),
    "zero-budget.json": _game([(1, "1/2")] * 3, 0),
    "staircase5.json": _game(STAIRCASE, 5),
    "staircase5-arith.json": _game(STAIRCASE, 5, "arithmetic-times"),
    "staircase4-arith.json": _game(
        zip(range(1, 5), ("1/2", "1/3", "1/4", "1/5")), 4, "arithmetic-times"
    ),
    "staircase6-arith.json": _game(
        zip(range(1, 7), ("9/10", "4/5", "7/10", "3/5", "1/2", "2/5")),
        6,
        "arithmetic-times",
    ),
    "staircase-ties-arith.json": _game(
        zip(range(1, 5), ("1/2", "1/2", "1/4", "1/4")), 4, "arithmetic-times"
    ),
    "staircase-increasing-arith.json": _game(
        zip(range(1, 4), ("1/4", "1/2", "3/4")), 3, "arithmetic-times"
    ),
    "staircase-budget-arith.json": _game(STAIRCASE, 6, "arithmetic-times"),
    "arith-wrong-times.json": _game(EXAMPLE, 7, "arithmetic-times"),
    "const-interior.json": _game(
        [(1, 0.2), (1, 0.3), (1, 0.5)], 1, "constant-times"
    ),
    "const-corner.json": _game(
        [(1, "1/2"), (1, "1/2"), (1, "1/10")], 2, "constant-times"
    ),
    "const-boundary.json": _game(
        [(1, "1/2"), (1, "1/2"), (1, "1/4")], 2, "constant-times"
    ),
    "const-bigger.json": _game(
        [(1, p) for p in ("1/2", "1/3", "3/4", "2/5", "1/6", "5/6")],
        3,
        "constant-times",
    ),
    "const-budget0.json": _game([(1, "1/2"), (1, "1/3")], 0, "constant-times"),
    "two-type.json": _two_type(**TWO_TYPE),
    "two-type-mixed.json": _two_type(a=5, b=3, tau=2, p="1/2", q="1/3", k=4),
    "two-type-decimal.json": _two_type(**dict(TWO_TYPE, p=0.3)),
    "two-type-noncanon.json": _two_type(**dict(TWO_TYPE, p="6/20")),
    "two-type-out.json": _two_type(a=1, b=1, tau=3, p="1/4", q="1/8", k=3),
    "two-type-large.json": _two_type(a=30, b=10, tau=3, p="1/2", q="1/2", k=12),
    "two-type-nonint.json": _two_type(**dict(TWO_TYPE, a="3/2")),
    "two-type-missing.json": json.dumps({"mode": "two-type"}),
    "two-type-notobj.json": json.dumps({"mode": "two-type", "two_type": [1]}),
    "two-type-unknown.json": _two_type(**dict(TWO_TYPE, z=1)),
    "learning.json": _learning("1/3", "2/3"),
    "learning-00.json": _learning("0", "0"),
    "learning-01.json": _learning("0", "1"),
    "learning-11.json": _learning("1", "1"),
    "learning-decimal.json": _learning(0.25, 0.75),
    "learning-missing.json": json.dumps({"mode": "learning"}),
    "learning-unknown.json": json.dumps(
        {"mode": "learning", "learning": {"low": "0", "high": "1", "mid": "1/2"}}
    ),
    "learning-invalid.json": _learning("2/3", "1/3"),
    "bad.json": "{not json",
    "toplevel-list.json": "[1]",
    "unknown-top.json": json.dumps({"locations": [], "budget": 1, "surprise": 1}),
    "bad-mode.json": json.dumps({"mode": "magic", "locations": [], "budget": 1}),
    "no-locations.json": json.dumps({"budget": 1}),
    "no-budget.json": _game(EXAMPLE, 7).replace(', "budget": 7', ""),
    "locations-empty.json": json.dumps({"locations": [], "budget": 1}),
    "location-notobj.json": json.dumps({"locations": [1], "budget": 1}),
    "location-unknown.json": json.dumps(
        {"locations": [{"time": 1, "capture": "1/2", "x": 1}], "budget": 1}
    ),
    "capture-above-one.json": _game([(1, "3/2")], 1),
    "time-zero.json": _game([(0, "1/2")], 1),
    "budget-negative.json": _game([(1, "1/2")], -1),
    "capture-bool.json": _game([(1, True)], 1),
    "capture-word.json": _game([(1, "abc")], 1),
    "time-missing.json": json.dumps({"locations": [{"capture": "1/2"}], "budget": 1}),
    "oversized-float.json": _oversized("1e-200000", "1"),
    "oversized-string.json": _oversized('"1e-999999999"', "1"),
    "oversized-decimal-range.json": _oversized("1e-99999999999999999999999", "1"),
    "oversized-one-past.json": _oversized("1e-4300", "1"),
    "oversized-long-int.json": _oversized("0.5", "1" * 4301),
    "longest-printable.json": (
        '{"locations": [{"time": 1, "capture": 1e-4299}], "budget": 1}'
    ),
    **{f"roadmap-{seed}-{n}.json": _roadmap(seed, n) for seed, n in ROADMAP_GAMES},
    # Budget 10 has a segment of optimal hiders (rank n - 1).
    "roadmap-28-8.json": _roadmap(28, 8),
}

# Games whose solution documents are verified, as they come and with the
# claimed value moved by +1/1000 and -1/1000.
VERIFIED_GAMES = (
    "example",
    "const-interior",
    "staircase5-arith",
    "staircase4-arith",
    "two-type",
    "two-type-mixed",
    "learning",
    "learning-01",
)


def _cases() -> list[tuple[str, list[str]]]:
    cases = []

    def add(name, *argv):
        cases.append((name, list(argv)))

    for fmt in ("table", "json", "both"):
        for game in (
            "example", "staircase5-arith", "const-interior", "two-type", "learning"
        ):
            add(f"solve-{game}-{fmt}", "solve", f"{game}.json", "--format", fmt)
        add(f"learning-cmd-{fmt}", "learning", "--low", "1/3", "--high", "2/3", "--format", fmt)
    add("solve-example-paper-names", "solve", "example.json", "--paper-names")
    add("solve-example-paper-names-both", "solve", "example.json", "--paper-names", "--format", "both")
    add("solve-example-frac-json", "solve", "example-frac.json", "--format", "json")
    add("solve-example3-table", "solve", "example3.json")
    add("solve-zero-budget-both", "solve", "zero-budget.json", "--format", "both")
    add("solve-staircase5-general", "solve", "staircase5.json")
    add("solve-staircase5-mode-arith", "solve", "staircase5.json", "--mode", "arithmetic-times", "--format", "both")
    add("solve-staircase5-arith-paper-names", "solve", "staircase5-arith.json", "--paper-names")
    add("solve-staircase5-arith-mode-general", "solve", "staircase5-arith.json", "--mode", "general", "--format", "json")
    for game in ("staircase4-arith", "staircase6-arith", "staircase-ties-arith"):
        add(f"solve-{game}-both", "solve", f"{game}.json", "--format", "both")
    for game in ("staircase-increasing-arith", "staircase-budget-arith", "arith-wrong-times"):
        add(f"solve-{game}", "solve", f"{game}.json")
    add("solve-example-mode-arith", "solve", "example.json", "--mode", "arithmetic-times")
    for game in ("const-corner", "const-boundary", "const-bigger"):
        add(f"solve-{game}-both", "solve", f"{game}.json", "--format", "both")
    add("solve-const-interior-paper-names", "solve", "const-interior.json", "--paper-names")
    add("solve-const-interior-mode-general", "solve", "const-interior.json", "--mode", "general", "--format", "json")
    add("solve-const-budget0", "solve", "const-budget0.json")
    add("solve-example-mode-constant", "solve", "example.json", "--mode", "constant-times")
    add("solve-two-type-mixed-both", "solve", "two-type-mixed.json", "--format", "both")
    add("solve-two-type-decimal-both", "solve", "two-type-decimal.json", "--format", "both")
    add("solve-two-type-noncanon-json", "solve", "two-type-noncanon.json", "--format", "json")
    add("solve-two-type-large-json", "solve", "two-type-large.json", "--format", "json")
    for game in (
        "two-type-out", "two-type-nonint", "two-type-missing", "two-type-notobj",
        "two-type-unknown",
    ):
        add(f"solve-{game}", "solve", f"{game}.json")
    add("solve-example-mode-two-type", "solve", "example.json", "--mode", "two-type")
    add("solve-two-type-mode-general", "solve", "two-type.json", "--mode", "general")
    for game in ("learning-00", "learning-01", "learning-11"):
        add(f"solve-{game}-both", "solve", f"{game}.json", "--format", "both")
    add("solve-learning-decimal-json", "solve", "learning-decimal.json", "--format", "json")
    for game in ("learning-missing", "learning-unknown", "learning-invalid"):
        add(f"solve-{game}", "solve", f"{game}.json")
    add("solve-example-mode-learning", "solve", "example.json", "--mode", "learning")
    for low, high in (("0", "0"), ("0", "1"), ("1", "1"), ("1/2", "1/2")):
        add(f"learning-cmd-{low}-{high}-both".replace("/", "_"),
            "learning", "--low", low, "--high", high, "--format", "both")
    add("learning-cmd-0-1_2-table", "learning", "--low", "0", "--high", "1/2")
    add("learning-cmd-reversed", "learning", "--low", "2/3", "--high", "1/3")
    add("learning-cmd-above-one", "learning", "--low", "0", "--high", "3/2")
    add("learning-cmd-word", "learning", "--low", "abc", "--high", "1")
    add("learning-cmd-oversized", "learning", "--low", "1e-5000", "--high", "1")
    add("solve-output-json", "solve", "example.json", "--format", "json", "--output", "out-json.json")
    add("solve-output-both", "solve", "staircase5-arith.json", "--format", "both", "--output", "out-both.json")
    add("solve-output-unwritable-both", "solve", "example.json", "--format", "both", "--output", "no-such-dir/out.json")
    add("solve-output-table", "solve", "two-type.json", "--output", "out-table.json")
    add("solve-example-size-cap", "solve", "example.json", "--max-subsets", "4")
    add("solve-staircase5-arith-size-cap", "solve", "staircase5-arith.json", "--max-subsets", "4")
    add("solve-const-interior-size-cap", "solve", "const-interior.json", "--max-subsets", "2")
    for name in (
        "bad", "toplevel-list", "unknown-top", "bad-mode", "no-locations",
        "no-budget", "locations-empty", "location-notobj", "location-unknown",
        "capture-above-one", "time-zero", "budget-negative", "capture-bool",
        "capture-word", "time-missing", "missing", "oversized-float",
        "oversized-string", "oversized-decimal-range", "oversized-one-past",
        "oversized-long-int",
    ):
        add(f"solve-{name}", "solve", f"{name}.json")
    for seed, n in ROADMAP_GAMES:
        add(f"solve-roadmap-{seed}-{n}-both", "solve", f"roadmap-{seed}-{n}.json", "--format", "both")
    add("solve-longest-printable-json", "solve", "longest-printable.json", "--format", "json")

    add("sweep-example-table", "sweep", "example.json", "--k-from", "0", "--k-to", "8")
    add("sweep-example-json", "sweep", "example.json", "--k-from", "6", "--k-to", "7", "--format", "json")
    add("sweep-example-single-both", "sweep", "example.json", "--k-from", "7", "--k-to", "7", "--format", "both")
    add("sweep-example-fractional", "sweep", "example.json", "--k-from", "1/2", "--k-to", "5/2", "--format", "both")
    add("sweep-example-decimal-budget", "sweep", "example.json", "--k-from", "6.5", "--k-to", "7.5", "--format", "json")
    add("sweep-staircase5-both", "sweep", "staircase5.json", "--k-from", "5", "--k-to", "10", "--format", "both")
    add("sweep-staircase5-arith-json", "sweep", "staircase5-arith.json", "--k-from", "4", "--k-to", "6", "--format", "json")
    add("sweep-roadmap-28-8-both", "sweep", "roadmap-28-8.json", "--k-from", "8", "--k-to", "10", "--format", "both")
    add("sweep-const-interior-both", "sweep", "const-interior.json", "--k-from", "0", "--k-to", "3", "--format", "both")
    add("sweep-example-mode-constant", "sweep", "example.json", "--k-from", "1", "--k-to", "2", "--mode", "constant-times")
    for fmt in ("table", "json", "both"):
        add(f"sweep-two-type-{fmt}", "sweep", "two-type.json", "--k-from", "2", "--k-to", "4", "--format", fmt)
    add("sweep-two-type-out-of-regime", "sweep", "two-type.json", "--k-from", "1", "--k-to", "4")
    add("sweep-two-type-out-of-regime-json", "sweep", "two-type.json", "--k-from", "1", "--k-to", "4", "--format", "json")
    add("sweep-two-type-fractional", "sweep", "two-type.json", "--k-from", "1/2", "--k-to", "3/2")
    add("sweep-two-type-mixed-json", "sweep", "two-type-mixed.json", "--k-from", "3", "--k-to", "4", "--format", "json")
    add("sweep-two-type-decimal-json", "sweep", "two-type-decimal.json", "--k-from", "2", "--k-to", "4", "--format", "json")
    add("sweep-two-type-decimal-both", "sweep", "two-type-decimal.json", "--k-from", "2", "--k-to", "4", "--format", "both")
    add("sweep-two-type-noncanon-json", "sweep", "two-type-noncanon.json", "--k-from", "3", "--k-to", "4", "--format", "json")
    add("sweep-two-type-large-json", "sweep", "two-type-large.json", "--k-from", "12", "--k-to", "12", "--format", "json")
    add("sweep-learning", "sweep", "learning.json", "--k-from", "1", "--k-to", "2")
    add("sweep-reversed", "sweep", "example.json", "--k-from", "5", "--k-to", "3")
    add("sweep-word", "sweep", "example.json", "--k-from", "abc", "--k-to", "3")
    add("sweep-oversized", "sweep", "example.json", "--k-from", "1e-5000", "--k-to", "3")
    add("sweep-size-cap", "sweep", "example.json", "--k-from", "7", "--k-to", "7", "--max-subsets", "4")
    add("sweep-bad-file", "sweep", "bad.json", "--k-from", "1", "--k-to", "2")

    for game in VERIFIED_GAMES:
        for variant in ("sol", "up", "down"):
            add(f"verify-{game}-{variant}", "verify", f"{game}.json", f"{game}-{variant}.json")
    add("verify-example-sweep", "verify", "example.json", "example-sweep.json")
    add("verify-two-type-sweep", "verify", "two-type.json", "two-type-sweep.json")
    add("verify-dimension-mismatch", "verify", "example3.json", "example-sol.json")
    add("verify-size-cap", "verify", "example.json", "example-sol.json", "--max-subsets", "4")
    add("verify-example-down-size-cap", "verify", "example.json", "example-down.json", "--max-subsets", "4")
    for doc in (
        "example-noval", "example-badset", "example-badentry", "example-hider",
        "example-nomode", "example-list", "example-magic", "example-listmode",
        "two-type-badj", "two-type-nohider",
    ):
        game = "two-type" if doc.startswith("two-type") else "example"
        add(f"verify-{doc}", "verify", f"{game}.json", f"{doc}.json")
    add("verify-learning-nostay", "verify", "learning.json", "learning-nostay.json")
    add("verify-learning-nomode", "verify", "learning.json", "learning-nomode.json")
    add("verify-general-doc-on-two-type", "verify", "two-type.json", "example-sol.json")
    add("verify-bad-solution-json", "verify", "example.json", "bad.json")
    return cases


def _solution_files(workdir) -> dict[str, str]:
    """Solution documents written by the program, some of them altered."""

    def solve_doc(*argv) -> dict:
        result = run_case(list(argv) + ["--format", "json"], workdir)
        assert result["exit"] == 0, result
        return json.loads(result["stdout"])

    files = {}

    def put(name, doc):
        files[name] = json.dumps(doc, indent=2)

    for game in VERIFIED_GAMES:
        doc = solve_doc("solve", f"{game}.json")
        put(f"{game}-sol.json", doc)
        for variant, delta in (("up", Fraction(1, 1000)), ("down", Fraction(-1, 1000))):
            moved = json.loads(json.dumps(doc))
            moved["value"]["fraction"] = str(Fraction(doc["value"]["fraction"]) + delta)
            put(f"{game}-{variant}.json", moved)
    put("example-sweep.json", solve_doc("sweep", "example.json", "--k-from", "6", "--k-to", "7"))
    put("two-type-sweep.json", solve_doc("sweep", "two-type.json", "--k-from", "2", "--k-to", "4"))

    example = json.loads(files["example-sol.json"])

    def altered(name, change):
        doc = json.loads(json.dumps(example))
        change(doc)
        put(f"{name}.json", doc)

    altered("example-noval", lambda d: d.pop("value"))
    altered("example-badset", lambda d: d["searcher"][0].update(set=[2]))
    altered("example-badentry", lambda d: d["searcher"][0].pop("probability"))
    altered("example-hider", lambda d: d["hider"].__setitem__(0, "1/2"))
    altered("example-nomode", lambda d: d.pop("mode"))
    altered("example-magic", lambda d: d.update(mode="magic"))
    altered("example-listmode", lambda d: d.update(mode=[1]))
    files["example-list.json"] = "[1]"
    two_type = json.loads(files["two-type-sol.json"])
    two_type["searcher"][0]["type2_searched"] = 99
    put("two-type-badj.json", two_type)
    two_type = json.loads(files["two-type-sol.json"])
    del two_type["hider"]
    put("two-type-nohider.json", two_type)
    learning = json.loads(files["learning-sol.json"])
    del learning["stay_probability"]
    put("learning-nostay.json", learning)
    learning = json.loads(files["learning-sol.json"])
    del learning["mode"]
    put("learning-nomode.json", learning)
    return files


def _changed(old: dict, new: dict) -> list[str]:
    """The cases, then the corpus files, that differ between two corpora
    or are in only one of them."""
    cases = [
        {c["name"]: (c["argv"], c["exit"], c["stdout"], c["stderr"], c["written"])
         for c in corpus["cases"]}
        for corpus in (old, new)
    ]
    changed = []
    for kind, (before, after) in (("case", cases), ("file", (old["files"], new["files"]))):
        names = before.keys() | after.keys()
        changed += [f"{kind} {k}" for k in sorted(names) if before.get(k) != after.get(k)]
    return changed


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, text in BASE_FILES.items():
            (workdir / name).write_text(text, encoding="utf-8")
        files = dict(BASE_FILES)
        derived = _solution_files(workdir)
        for name, text in derived.items():
            (workdir / name).write_text(text, encoding="utf-8")
        files.update(derived)
        cases = []
        for name, argv in _cases():
            result = run_case(argv, workdir)
            cases.append({"name": name, "argv": argv, **result})
    names = [case["name"] for case in cases]
    assert len(names) == len(set(names)), "case names must be unique"
    for name in _changed(_GOLDEN, {"files": files, "cases": cases}):
        print(f"changed: {name}", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"files": files, "cases": cases}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
