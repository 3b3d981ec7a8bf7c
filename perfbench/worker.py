"""One workload in one process: set up, then time passes, then check.

Run by ``run.py`` as a child process, so that the peak resident memory
it reports belongs to this workload alone. ``--phase setup`` stops
after the warm-up request; ``run.py`` times that whole process, from a
fresh interpreter, as the set-up time. ``--phase measure`` then runs
closed-loop passes over the request list (one client, one thread, each
request starting when the previous one returned) until ``--seconds``
have passed, applies the correctness gate outside the timed region and
prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from searchpursuit import cli  # noqa: E402

import gate  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

PROBE_EVERY_S = 0.2


def call(argv: list, tracer: Tracer | None):
    """Run one command line in-process; (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.span("cli.main", cli.main, (argv,))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            code = f"raised {exc!r}"
    text = out.getvalue()
    if tracer is not None:
        tracer.counts["cli.output_bytes"] += len(text.encode("utf-8"))
    return code, text


def timed_passes(argvs: list, seconds: float, tracer: Tracer | None):
    """Passes until ``seconds`` have elapsed (at least one).

    A host speed probe runs before a request whenever PROBE_EVERY_S
    have passed since the last one, and at the end of the pass; each
    latency is scaled by the probes on either side of it.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        raw, outputs, probes, probe_before = [], [], [], []
        start = last_probe = time.perf_counter()
        probes.append(hostspeed.probe())
        for i, argv in enumerate(argvs):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(hostspeed.probe())
                last_probe = time.perf_counter()
            probe_before.append(len(probes) - 1)
            if tracer is not None:
                tracer.request = (len(passes), i)
            t0 = time.perf_counter()
            outputs.append(call(argv, tracer))
            raw.append(time.perf_counter() - t0)
        probes.append(hostspeed.probe())
        wall = time.perf_counter() - start
        scaled = [
            t * hostspeed.scale(probes[k], probes[k + 1])
            for t, k in zip(raw, probe_before)
        ]
        layers = tracer.end_pass() if tracer is not None else None
        passes.append({
            "wall": wall, "busy": sum(raw), "latencies": scaled, "outputs": outputs, "layers": layers,
        })
    return passes


def check_outputs(requests: list, passes: list):
    """(attempted, failed, problems): a request run fails when its exit
    code or answer is wrong or its bytes differ from the first run."""
    problems = []
    verdicts = []
    for i, request in enumerate(requests):
        code, text = passes[0]["outputs"][i]
        _, problem = gate.check(request, code, text)
        verdicts.append(problem)
        if problem is not None:
            problems.append(f"request {i} ({' '.join(request.argv)}): {problem}")
    attempted = failed = 0
    for number, run in enumerate(passes):
        for i, output in enumerate(run["outputs"]):
            attempted += 1
            if verdicts[i] is not None:
                failed += 1
            elif output != passes[0]["outputs"][i]:
                failed += 1
                problems.append(f"request {i}: output of pass {number} differs from pass 0")
    return attempted, failed, problems


def setup(args) -> tuple:
    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    workload.write_files(args.workdir)
    code, _ = call(workload.warmup.resolved(args.workdir), None)
    if code != 0:
        raise SystemExit(f"warm-up request exited with {code}")
    return workload, [r.resolved(args.workdir) for r in workload.requests]


def percentile(samples: list, q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def typical_latencies(passes: list) -> list:
    """Each request's median scaled latency over the passes."""
    return [statistics.median(times) for times in zip(*(run["latencies"] for run in passes))]


def measure(args) -> dict:
    workload, argvs = setup(args)
    requests = workload.requests
    tracer = Tracer() if args.trace else None
    plain_seconds = args.seconds / 2 if args.trace else args.seconds
    plain = timed_passes(argvs, plain_seconds, None)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    traced = []
    if tracer is not None:
        tracer.install()
        try:
            traced = timed_passes(argvs, args.seconds / 2, tracer)
        finally:
            tracer.restore()
    attempted, failed, problems = check_outputs(requests, plain + traced)
    typical = typical_latencies(plain)
    report = {
        "workload": workload.name,
        "seed": workload.seed,
        "requests": [" ".join(r.argv) for r in requests],
        "passes": len(plain),
        "pass_walls_s": [run["wall"] for run in plain],
        "request_latencies_s": typical,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "wall_s": sum(typical),
        "req_p50_ms": statistics.median(typical) * 1000,
        "req_p90_ms": percentile(typical, 90) * 1000,
        "peak_rss_mb": peak_kb / 1024,
    }
    if tracer is not None:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(run["layers"][name] for run in traced)
        layers["trace.overhead_ratio"] = sum(typical_latencies(traced)) / report["wall_s"]
        report["traced_passes"] = len(traced)
        # Raw seconds, the base of the layer times' shares.
        report["traced_busy_s"] = statistics.median(run["busy"] for run in traced)
        report["layers"] = layers
        os.makedirs(os.path.dirname(args.spans), exist_ok=True)
        tracer.dump(args.spans)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the spans of a traced run")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args()
    if args.phase == "setup":
        setup(args)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
