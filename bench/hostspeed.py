"""Host speed, measured with a fixed reference loop between operations.

The gated timings are scaled to a reference host speed, so that a change
of the host's own speed during or between runs does not read as a change of
the program.  On the 2-vCPU host this benchmark was tuned on, one retrieve
seed ran at 125 and at 59 queries per second four minutes apart, with
set-up time moving in step.  Over seven minutes of interleaved timings
there, query time ranged over 47% of its median and its ratio to this
loop's time over 16%.  The loop's time moves more than the workloads' (by
a power of about 0.5-0.65 of it there), so scaled figures taken while the
host runs fast read a few percent slow.

The loop is shaped like the program's hot paths (a dict updated from a long
list of tuples, then a keyed sort), lives here and never calls the package,
so a change to the package does not move it.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

REF_S = 0.006        # loop time of the reference host at its faster speed
PROBE_EVERY_S = 0.25  # between two timings of the loop during a pass
WINDOW = 15          # timings whose median gives the current speed
N_POSTINGS = 8000


class HostSpeed:
    """Times the reference loop now and then; `scale()` converts a time
    measured now to the time it would take on the reference host."""

    def __init__(self):
        rng = random.Random(0)
        self._postings = [(rng.randrange(N_POSTINGS), rng.randint(1, 3))
                          for _ in range(N_POSTINGS)]
        self._lengths = [rng.randint(5, 40) for _ in range(N_POSTINGS)]
        self.timings: list[float] = []
        self._last = float("-inf")

    def _loop(self) -> list:
        scores: dict[int, float] = {}
        lengths = self._lengths
        for doc, tf in self._postings:
            norm = 1.2 * (0.25 + 0.75 * lengths[doc] / 22.5)
            scores[doc] = scores.get(doc, 0.0) + 1.7 * tf * 2.2 / (tf + norm)
        return sorted(((s, d) for d, s in scores.items()), key=lambda p: (-p[0], p[1]))[:45]

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter()
            self._loop()
            self._last = perf_counter()
            self.timings.append(self._last - t0)

    def tick(self) -> None:
        """Time the loop if PROBE_EVERY_S has passed since the last timing."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self) -> float:
        """REF_S over the median of the last WINDOW timings."""
        return REF_S / statistics.median(self.timings[-WINDOW:])
