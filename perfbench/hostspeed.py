"""Host speed probe: puts timings taken at different host speeds on one
scale.

On a shared host the same exact-rational work takes up to 1.7 times
longer for minutes at a time, and a benchmark run cannot outlast such a
spell. ``probe`` times a fixed unit of ``fractions`` arithmetic, the
kind of work the solvers do; a timing multiplied by ``scale`` of the
probes taken around it reads as if the host ran at the reference speed,
at which the unit takes REFERENCE_S. Over 100 s of interleaved runs on
a 2-vCPU host, the per-spell median time of an LP moved by +-15% and
its ratio to the probe by +-8%.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the probe's time in the fast spells of a 2.1 GHz host, Python 3.11.
REFERENCE_S = 0.008
TERMS = 2000


def probe() -> float:
    """Seconds taken by one fixed unit of exact-rational work."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that maps a timing taken between two probes to the
    reference speed."""
    return REFERENCE_S / ((before + after) / 2)
