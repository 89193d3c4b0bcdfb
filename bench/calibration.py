"""A fixed pure-Python reference computation for machine-speed scaling.

The benchmark runs on shared machines whose speed changes by up to a factor
of two within a second (other tenants on the same cores).  Each pass process
times this computation before its operations, between them whenever
``INTERVAL_S`` has passed, and after them.  The wall time between two
samples (a segment) is then multiplied by ``(REFERENCE_S / mean of the two
samples) ** EXPONENT``, so the reported times read as seconds on a machine
where the reference takes ``REFERENCE_S``.  The computation uses no
groupoid_forge code, so a change to the library cannot move it, and it mixes
the interpreter work the library does: tuple keys, dict updates, frozensets
and small Fraction arithmetic.

The workloads slow down less than the reference when the machine is busy:
fitting log(time) against log(reference time) over passes gave exponents of
0.70 (af_realize), 0.83 (rank2_realize), 0.86 (finite_twist) and 0.74
(bouquet_symbolic) on a shared 2-vCPU machine.  ``EXPONENT`` is their round
middle; with 1.0 a busier machine made the scaled times read lower.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.02
INTERVAL_S = 0.3
EXPONENT = 0.8


def _work() -> int:
    table: dict = {}
    total = Fraction(0)
    acc = 0
    for i in range(25000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        acc += len(frozenset(key))
        if i % 16 == 0:
            total += Fraction(i % 7 - 3, 1 + i % 5)
    return acc + len(table) + total.denominator


def sample() -> tuple[float, float]:
    """(start, seconds) of one run of the reference computation; the start is
    ``time.monotonic()``, comparable across processes."""
    start = time.monotonic()
    _work()
    return start, time.monotonic() - start


def _scale(reference_s: float) -> float:
    return (REFERENCE_S / reference_s) ** EXPONENT


def segment_scales(samples: list) -> list[float]:
    """Scale of each segment between consecutive samples."""
    return [_scale((a[1] + b[1]) / 2) for a, b in zip(samples, samples[1:])]


def scaled_wall(spawned: float, ready: float, samples: list, exited: float) -> tuple[float, float]:
    """(set-up, whole process) wall time of a pass process in reference
    seconds, leaving out the samples themselves.  Set-up is scaled by the
    first sample, the tail after the last sample by the last one."""
    setup = (ready - spawned) * _scale(samples[0][1])
    total = setup
    for (t0, d0), (t1, _), scale in zip(samples, samples[1:], segment_scales(samples)):
        total += (t1 - t0 - d0) * scale
    t_last, d_last = samples[-1]
    total += (exited - t_last - d_last) * _scale(d_last)
    return setup, total
