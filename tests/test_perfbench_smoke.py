"""The benchmark's use of the program, at its tiny sizes.

Every request of every ``perfbench`` workload runs through ``cli.main``
and must pass the benchmark's own correctness gate. ``workloads`` and
``gate`` call into the library (``GameSpec``, ``maximal_feasible_sets``,
``solve_arithmetic_times``, ``verify_equilibrium``) and into the CLI's
options, so a change there that the benchmark cannot follow fails here
rather than as a refused benchmark run. ``perfbench/selftest.py`` checks
the benchmark itself, at greater length.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from searchpursuit.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gate  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_the_gate(name, tmp_path):
    workload = workloads.build(name, 0, tiny=True)
    workload.write_files(str(tmp_path))
    for request in [workload.warmup, *workload.requests]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(request.resolved(str(tmp_path)))
        answers, problem = gate.check(request, code, out.getvalue())
        assert problem is None, (request.argv, problem)
        assert answers
