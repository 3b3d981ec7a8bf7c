"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the program is imported from
``src/``, nothing is installed. Set-up is timed SETUP_REPEATS times, each
in a fresh interpreter, and the median reported; the workload is then
measured in one more child process (see ``worker.py``). All times are
scaled to a reference host speed (see ``hostspeed.py``). The last line
of standard output is one JSON object: with ``--trace 0`` it carries
the end-to-end metrics, with ``--trace 1`` the per-layer ones. Run
``python3 perfbench/selftest.py`` to check the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
from spans import LAYER_UNITS  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
# The whole run must end within 180 s; leave room for the set-up runs.
MEASURE_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def child(args, phase: str, workdir: str, timeout: float, extra=()) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", workdir, "--phase", phase, *extra,
    ]
    if args.tiny:
        argv.append("--tiny")
    return subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description="searchpursuit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "searchpursuit", "cli.py")):
        return fail(f"no searchpursuit sources under {os.path.join(ROOT, 'src')}")

    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            before = hostspeed.probe()
            t0 = time.perf_counter()
            done = child(args, "setup", os.path.join(work, f"setup-{i}"), SETUP_TIMEOUT_S)
            seconds = time.perf_counter() - t0
            setup_times.append(seconds * hostspeed.scale(before, hostspeed.probe()))
            if done.returncode != 0:
                return fail(f"set-up exited with {done.returncode}")
        spans_path = os.path.join(OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans_path]
        done = child(args, "measure", os.path.join(work, "measure"), MEASURE_TIMEOUT_S, extra)
        if done.returncode != 0:
            return fail(f"measurement exited with {done.returncode}")
        report = json.loads(done.stdout.splitlines()[-1])
    except subprocess.TimeoutExpired as exc:
        return fail(f"timed out after {exc.timeout} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["setup_s"] = statistics.median(setup_times)
    report["setup_samples_s"] = setup_times
    report["failed_ratio"] = report["failed"] / report["attempted"]
    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
