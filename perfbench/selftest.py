"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size in both trace modes and checks that
the result line names every metric of ``BENCHMARK.json`` with its unit;
checks that the correctness gate counts tampered outputs as failures;
and checks that the benchmark refuses to run where the program's
sources are missing. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import gate
import worker
import workloads

ROOT = worker.ROOT
RUN = os.path.join(worker.HERE, "run.py")


def expected_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result_lines() -> None:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, RUN, "--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
            assert done.returncode == 0, (name, trace, done.stderr)
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, (name, trace, done.stdout)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected_metrics(trace), (name, trace, units)
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float)), metric
            print(f"ok: {name} --trace {trace} prints every metric with its unit")


def tamper_value(text: str) -> str:
    doc = json.loads(text)
    doc["value"]["fraction"] = str(Fraction(doc["value"]["fraction"]) + Fraction(1, 1000))
    return json.dumps(doc)


def move_searcher_weight(text: str) -> str:
    doc = json.loads(text)
    first, second = doc["searcher"][:2]
    total = Fraction(first["probability"]) + Fraction(second["probability"])
    first["probability"], second["probability"] = "0", str(total)
    return json.dumps(doc)


def check_gate() -> None:
    small = workloads.build("small-requests", 1, tiny=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as workdir:
        small.write_files(workdir)
        outputs = [worker.call(r.resolved(workdir), None) for r in small.requests]
    by_kind = {}
    for request, (code, text) in zip(small.requests, outputs):
        answers, problem = gate.check(request, code, text)
        assert problem is None, (request.argv, problem)
        by_kind.setdefault(request.kind, (request, text))

    solve, solve_text = next(
        (r, t) for r, t in zip(small.requests, (o[1] for o in outputs)) if r.argv[-1] == "json" and r.kind == "solve"
    )
    tampered = {
        "value off by 1/1000": (solve, 0, tamper_value(solve_text)),
        "searcher weight moved": (solve, 0, move_searcher_weight(solve_text)),
        "two-type value off by 1/1000": (by_kind["two-type"][0], 0, tamper_value(by_kind["two-type"][1])),
        "learning value off by 1/1000": (by_kind["learning"][0], 0, tamper_value(by_kind["learning"][1])),
        "nonzero exit code": (solve, 1, solve_text),
        "failed verify": (by_kind["verify"][0], 1, "certificate FAILED\n"),
        "not JSON": (solve, 0, "value: 1/2\n"),
    }
    for what, (request, code, text) in tampered.items():
        _, problem = gate.check(request, code, text)
        assert problem is not None, what
        print(f"ok: the gate rejects an output with {what}")

    answers, _ = gate.check(solve, 0, solve_text)
    solve.expected = [str(Fraction(answers[0]) + Fraction(1, 1000))]
    _, problem = gate.check(solve, 0, solve_text)
    assert problem is not None
    solve.expected = None
    print("ok: the gate rejects an answer that differs from the pinned one")

    passes = [{"outputs": list(outputs)}, {"outputs": list(outputs)}]
    passes[1]["outputs"][0] = (0, passes[1]["outputs"][0][1] + " ")
    attempted, failed, _ = worker.check_outputs(small.requests, passes)
    assert (attempted, failed) == (2 * len(outputs), 1), (attempted, failed)
    print("ok: an output that is not byte-identical across passes counts as failed")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(worker.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", "small-requests", "--seed", "0", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print("ok: without the program's sources the benchmark exits non-zero and prints no result")


def main() -> int:
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    check_gate()
    check_refuses_without_sources()
    check_result_lines()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
