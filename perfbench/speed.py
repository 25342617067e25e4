"""Reference-speed scaling of wall-clock times.

The shared machine this benchmark was tuned on ran the same pure-Python
work up to twice as slowly from one minute to the next, as other tenants
loaded it. ``probe`` times a fixed task of exact arithmetic and tuple
hashing, the package's own kind of work; a measured wall time is divided
by the mean probe time around it and multiplied by ``REFERENCE_S``. The
result reads as seconds on a machine where the probe takes 10 ms, about
this machine when it is quiet, and no longer moves with the machine's load.
"""
import time
from fractions import Fraction

REFERENCE_S = 0.010
_MATRIX = [[Fraction((i * 7 + j * 3) % 5 - 2, 1 + (i + j) % 3) for j in range(4)]
           for i in range(4)]


def probe() -> float:
    """Wall seconds of the fixed task."""
    start = time.perf_counter()
    seen = {}
    for k in range(200):
        v = (Fraction(k % 7 - 3, 1 + k % 4), Fraction(1, 3), Fraction(k % 5), Fraction(-2, 5))
        seen[tuple(sum(row[t] * v[t] for t in range(4)) for row in _MATRIX)] = k
    return time.perf_counter() - start


def steady_probe(samples: int = 3) -> float:
    """Median of a few probes, for a single long span such as set-up."""
    times = sorted(probe() for _ in range(samples))
    return times[samples // 2]


def scaled(wall: float, before: float, after: float) -> float:
    """Wall seconds between two probes, in reference seconds."""
    return wall * REFERENCE_S / ((before + after) / 2)
