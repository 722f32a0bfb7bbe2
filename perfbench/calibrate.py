"""Machine-speed calibration.

The benchmark runs on shared machines whose effective CPU speed drifts
by tens of percent over seconds to minutes, with the same drift in
process CPU time as in wall time.  Every run therefore interleaves a
short fixed reference workload (pure interpreter work of the kinds the
package does: exact rational arithmetic, hashing of frozen dataclasses
and tuples, small calls and dispatch) with its own measurements, and
scales each measured time by

    factor = REFERENCE_S / median(durations of the nearby probes)

so that times read as they would on the reference machine: on a
machine half as fast the probes take twice as long and the scaled
times stay the same.  The probe is the benchmark's own code, so no change to the
package can move it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# Reported times are those of a machine on which the median probe takes
# one millisecond, about the speed of the machine described in
# baseline.json when it recorded the baseline.
REFERENCE_S = 0.001


@dataclass(frozen=True)
class _Cell:
    key: tuple
    weight: Fraction


def _reference_work() -> int:
    table = {}
    acc = Fraction(0)
    for i in range(1, 60):
        w = Fraction(i % 11 + 1, i % 7 + 2)
        # The isinstance test mirrors the package's type dispatch.
        acc = max(acc - w / 5, w) if isinstance(w, Fraction) else acc
        cell = _Cell((i % 17, ("a", i % 5)), w)
        table[cell] = table.get(cell, Fraction(0)) + acc
    ranked = sorted(table.items(), key=lambda kv: (kv[0].key, kv[1]))
    return len(ranked) + sum(1 for _c, v in ranked if v > 1)


def probe() -> float:
    """Duration of one run of the reference workload, in seconds."""
    start = perf_counter()
    _reference_work()
    return perf_counter() - start


def factor(durations) -> float:
    """Scale that turns times measured alongside these probe durations
    into reference-machine times."""
    return REFERENCE_S / statistics.median(durations)


def scales(durations, reach: int = 2):
    """One scale per probe, from the median of the probes within
    ``reach`` places of it: the speed drifts over seconds, while a single
    probe is noisy."""
    return [factor(durations[max(0, i - reach):i + reach + 1])
            for i in range(len(durations))]
