"""Rebuild ``pinned.json``: the cost-matched game pools and the answers
pinned for the default seed.

    python3 perfbench/pin.py

Takes a few minutes. Each candidate game is solved REPEATS times through
the CLI and its median time, scaled to the reference host speed, kept;
each pool keeps POOL_SIZE typical candidates of a size class whose
times span the narrowest ratio, so that any seed's pass costs about
the same. Every pinned answer has passed the correctness
gate. Rerun only when the benchmark's workloads change: the pinned
answers are what a later change to the program is checked against.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

import gate
import hostspeed
import worker
import workloads

LADDER_RUNGS = {10: 24, 11: 32, 12: 48, 13: 48}  # n -> candidates
SWEEP_N, SWEEP_CANDIDATES, SWEEPS_PER_PASS = 8, 48, 4
POOL_SIZE = 6
REPEATS = 3


def timed(request, workdir, repeats=1):
    """(median scaled seconds, answers) of ``repeats`` gated runs of
    ``request``."""
    for name, doc in request.files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    seconds = []
    for _ in range(repeats):
        before = hostspeed.probe()
        t0 = time.perf_counter()
        code, text = worker.call(request.resolved(workdir), None)
        elapsed = time.perf_counter() - t0
        seconds.append(elapsed * hostspeed.scale(before, hostspeed.probe()))
    answers, problem = gate.check(request, code, text)
    if problem is not None:
        raise SystemExit(f"{' '.join(request.argv)}: {problem}")
    return statistics.median(seconds), answers


def cost_matched(candidates: list) -> list:
    """Of the runs of POOL_SIZE consecutive candidates, by time, that
    include the median candidate, the one whose times span the narrowest
    ratio: typical games of nearly equal cost."""
    ranked = sorted(candidates, key=lambda c: c["seconds"])
    middle = len(ranked) // 2
    starts = range(max(0, middle - POOL_SIZE + 1), min(middle, len(ranked) - POOL_SIZE) + 1)
    windows = [ranked[i : i + POOL_SIZE] for i in starts]
    tightest = min(windows, key=lambda w: w[-1]["seconds"] / w[0]["seconds"])
    return sorted(tightest, key=lambda c: c["game_seed"])


def main() -> int:
    pinned = {}
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as workdir:
        rungs = {}
        for n, count in LADDER_RUNGS.items():
            candidates = []
            for game_seed in range(count):
                request = workloads.solve_request("g.json", workloads.random_game(game_seed, n))
                seconds, answers = timed(request, workdir, REPEATS)
                candidates.append({"game_seed": game_seed, "value": answers[0], "seconds": round(seconds, 4)})
            rungs[str(n)] = cost_matched(candidates)
            print(f"rung {n}: {rungs[str(n)]}", file=sys.stderr)
        pinned["solve-ladder"] = {"rungs": rungs}

        candidates = []
        for game_seed in range(SWEEP_CANDIDATES):
            game = workloads.random_game(game_seed, SWEEP_N)
            k = game["budget"]
            request = workloads.sweep_request("g.json", game, k - 1, k + 1)
            seconds, answers = timed(request, workdir, REPEATS)
            candidates.append({
                "game_seed": game_seed, "n": SWEEP_N, "k_from": k - 1, "k_to": k + 1,
                "answers": answers, "seconds": round(seconds, 4),
            })
        pool = cost_matched(candidates)
        print(f"sweep pool: {pool}", file=sys.stderr)
        pinned["sweep-probe"] = {"per_pass": SWEEPS_PER_PASS, "pool": pool}

        defaults = {}
        for name in ("verify-staircase", "small-requests"):
            workload = workloads.BUILDERS[name](workloads.DEFAULT_SEED, pinned, False)
            defaults[name] = [timed(r, workdir)[1] for r in workload.requests]
        pinned["default_seed_answers"] = defaults

    with open(workloads.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
