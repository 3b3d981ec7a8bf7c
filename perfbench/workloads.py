"""Seeded request lists for the benchmark workloads.

A workload is a fixed list of ``searchpursuit`` command lines plus the
game and solution files they read. Everything is derived from the
workload seed, so the same seed gives the same files and arguments; the
program sees nothing else.

``solve-ladder`` and ``sweep-probe`` draw their games from pools pinned
in ``pinned.json``: the exact LP and the uniqueness probe vary about
tenfold in cost between random games of equal size, so each pool holds
games of one size whose costs lie in the narrowest band ``pin.py``
found, and the seed picks among them. ``verify-staircase`` and ``small-requests`` generate
their games from the seed directly; their cost depends on the sizes,
which are fixed, and hardly on the drawn numbers.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")
# Scratch space inside the checkout: generated inputs and dumped spans.
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench")
DEFAULT_SEED = 0

WORKLOADS = ("solve-ladder", "sweep-probe", "verify-staircase", "small-requests")

# Sizes of the generated workloads.
STAIRCASE_SIZES = (40, 44)
SMALL_STAIRCASE_N = 12
SMALL_CONSTANT_N, SMALL_CONSTANT_K = 8, 4
SMALL_VERIFY_N = 10
TWO_TYPE_SHAPE = {"a": 6, "b": 3, "tau": 2, "k": 4}
# One block of small requests; the pass repeats it SMALL_BLOCKS times
# with fresh games, so every pass holds 10 * SMALL_BLOCKS requests.
SMALL_BLOCKS = 10

WORKED_EXAMPLE = {
    "locations": [
        {"time": 5, "capture": "1/10"},
        {"time": 3, "capture": "1/5"},
        {"time": 4, "capture": "3/20"},
        {"time": 7, "capture": "2/5"},
    ],
    "budget": 7,
}
WORKED_VALUE = "6/115"


@dataclass
class Request:
    """One command line.

    ``kind`` names the correctness check the gate applies, ``files``
    maps the file names used in ``argv`` to the JSON documents written
    before the run, and ``expected`` holds the pinned answers, when the
    seed has them.
    """

    kind: str
    argv: list
    files: dict
    expected: list | None = None

    def resolved(self, workdir: str) -> list:
        return [os.path.join(workdir, a) if a in self.files else a for a in self.argv]

    def game(self) -> dict:
        return self.files[self.argv[1]]


@dataclass
class Workload:
    name: str
    seed: int
    warmup: Request
    requests: list

    def write_files(self, workdir: str) -> None:
        for request in [self.warmup, *self.requests]:
            for name, doc in request.files.items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Game generators


def random_game(game_seed: int, n: int) -> dict:
    """Times 1..6, captures k/20, budget floor(sum of times / 3)."""
    rng = random.Random(game_seed)
    times = [rng.randint(1, 6) for _ in range(n)]
    captures = [Fraction(rng.randint(1, 20), 20) for _ in range(n)]
    return game_doc(times, captures, sum(times) // 3)


def game_doc(times, captures, budget, mode=None) -> dict:
    doc = {
        "locations": [
            {"time": t, "capture": str(p)} for t, p in zip(times, captures)
        ],
        "budget": budget,
    }
    if mode is not None:
        doc["mode"] = mode
    return doc


def decreasing_captures(rng: random.Random, n: int, max_den: int = 60) -> list:
    """n distinct capture probabilities in (0, 1], strictly decreasing."""
    values = set()
    while len(values) < n:
        den = rng.randint(1, max_den)
        values.add(Fraction(rng.randint(1, den), den))
    return sorted(values, reverse=True)


def staircase_pair(rng: random.Random, n: int, tag: str):
    """A staircase game (t_i = i, budget n) and the closed-form solution
    document for it, built without running an LP."""
    from searchpursuit import closed_forms

    captures = decreasing_captures(rng, n)
    sol = closed_forms.solve_arithmetic_times(captures, certify=False)
    game = game_doc(range(1, n + 1), captures, n, mode="arithmetic-times")
    solution = {
        "mode": "arithmetic-times",
        "value": {"fraction": str(sol.value)},
        "hider": [str(p) for p in sol.hider.probs],
        "searcher": [
            {"set": list(s.members), "probability": str(w)}
            for s, w in sol.searcher_mix
        ],
    }
    game_name, solution_name = f"{tag}-game.json", f"{tag}-solution.json"
    return Request(
        "verify",
        ["verify", game_name, solution_name],
        {game_name: game, solution_name: solution},
    )


def solve_request(name: str, game: dict, *options) -> Request:
    return Request("solve", ["solve", name, "--format", "json", *options], {name: game})


# ---------------------------------------------------------------------------
# Workloads


def solve_ladder(seed: int, pinned: dict, tiny: bool) -> Workload:
    rng = random.Random(seed)
    warmup = solve_request("warmup.json", random_game(rng.randrange(1 << 30), 7))
    if tiny:
        rungs = {"6": [{"game_seed": seed, "value": None}]}
    else:
        rungs = pinned["solve-ladder"]["rungs"]
    requests = []
    for n in sorted(rungs, key=int):
        entry = rng.choice(rungs[n])
        request = solve_request(
            f"ladder-{n}.json", random_game(entry["game_seed"], int(n))
        )
        request.expected = None if entry["value"] is None else [entry["value"]]
        requests.append(request)
    return Workload("solve-ladder", seed, warmup, requests)


def sweep_request(name: str, game: dict, k_from: int, k_to: int) -> Request:
    argv = ["sweep", name, "--k-from", str(k_from), "--k-to", str(k_to), "--format", "json"]
    return Request("sweep", argv, {name: game})


def sweep_probe(seed: int, pinned: dict, tiny: bool) -> Workload:
    rng = random.Random(seed)
    small = random_game(rng.randrange(1 << 30), 5)
    warmup = sweep_request("warmup.json", small, small["budget"], small["budget"])
    spec = pinned["sweep-probe"]
    if tiny:
        chosen = [{"game_seed": seed, "n": 5, "k_from": 3, "k_to": 4, "answers": None}]
    else:
        chosen = rng.sample(spec["pool"], spec["per_pass"])
    requests = []
    for i, entry in enumerate(chosen):
        request = sweep_request(
            f"sweep-{i}.json",
            random_game(entry["game_seed"], entry["n"]),
            entry["k_from"],
            entry["k_to"],
        )
        request.expected = entry["answers"]
        requests.append(request)
    return Workload("sweep-probe", seed, warmup, requests)


def verify_staircase(seed: int, pinned: dict, tiny: bool) -> Workload:
    rng = random.Random(seed)
    warmup = staircase_pair(rng, SMALL_VERIFY_N, "warmup")
    sizes = (10, 12) if tiny else STAIRCASE_SIZES
    requests = [staircase_pair(rng, n, f"staircase-{n}") for n in sizes]
    return Workload("verify-staircase", seed, warmup, requests)


def learning_request(rng: random.Random) -> Request:
    low = rng.randint(1, 19)
    high = rng.randint(low, 19)
    argv = ["learning", "--low", f"{low}/20", "--high", f"{high}/20", "--format", "json"]
    return Request("learning", argv, {})


def two_type_game(rng: random.Random) -> dict:
    """Captures drawn until the closed form's regime holds: the
    equalizing mean number of slow inspections is at most floor(k/tau)."""
    a, b, tau, k = (TWO_TYPE_SHAPE[x] for x in ("a", "b", "tau", "k"))
    while True:
        p = Fraction(rng.randint(1, 19), 20)
        q = Fraction(rng.randint(1, 19), 20)
        if p * b * k <= (k // tau) * (a * q + b * p * tau):
            break
    block = dict(TWO_TYPE_SHAPE, p=str(p), q=str(q))
    return {"mode": "two-type", "two_type": block}


def worked_request() -> Request:
    """The four-location worked example, table and JSON together."""
    argv = ["solve", "worked.json", "--format", "both"]
    return Request("solve", argv, {"worked.json": WORKED_EXAMPLE}, [WORKED_VALUE])


def small_block(rng: random.Random, i: int) -> list:
    """Ten requests: worked example, learning, four staircase solves,
    constant times, two two-type solves, one small verify."""
    out = [worked_request()]
    out.append(learning_request(rng))
    for j in range(4):
        captures = decreasing_captures(rng, SMALL_STAIRCASE_N)
        game = game_doc(range(1, SMALL_STAIRCASE_N + 1), captures, SMALL_STAIRCASE_N, mode="arithmetic-times")
        out.append(solve_request(f"arith-{i}-{j}.json", game))
    captures = [Fraction(rng.randint(1, 20), 20) for _ in range(SMALL_CONSTANT_N)]
    game = game_doc([1] * SMALL_CONSTANT_N, captures, SMALL_CONSTANT_K, mode="constant-times")
    out.append(solve_request(f"constant-{i}.json", game))
    for j in range(2):
        name = f"two-type-{i}-{j}.json"
        out.append(Request("two-type", ["solve", name, "--format", "json"], {name: two_type_game(rng)}))
    out.append(staircase_pair(rng, SMALL_VERIFY_N, f"small-verify-{i}"))
    return out


def small_requests(seed: int, pinned: dict, tiny: bool) -> Workload:
    rng = random.Random(seed)
    warmup = worked_request()
    requests = []
    for i in range(1 if tiny else SMALL_BLOCKS):
        requests += small_block(rng, i)
    return Workload("small-requests", seed, warmup, requests)


BUILDERS = {
    "solve-ladder": solve_ladder,
    "sweep-probe": sweep_probe,
    "verify-staircase": verify_staircase,
    "small-requests": small_requests,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's warm-up request and request list for ``seed``.

    Answers pinned for the default seed are attached to the requests
    that do not already carry pool answers; ``tiny`` shrinks every game
    for the self-test and pins nothing.
    """
    pinned = load_pinned()
    workload = BUILDERS[name](seed, pinned, tiny)
    answers = pinned.get("default_seed_answers", {}).get(name)
    if seed == DEFAULT_SEED and not tiny and answers is not None:
        if len(answers) != len(workload.requests):
            raise ValueError(f"{name}: pinned answers do not match the requests; rerun pin.py")
        for request, expected in zip(workload.requests, answers):
            if request.expected is None:
                request.expected = expected
    return workload
