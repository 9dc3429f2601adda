"""Two halves of one job on the host's two cores.

The training step's largest untaped blocks (the Adam update and the encodes
of evidence paragraphs missing from the table) are numpy and BLAS work that
releases the interpreter lock, so one worker thread can run half of each
while the caller runs the other.  The worker is created on first use, never
at import; with fewer than two CPUs in the affinity mask both halves run
inline in the caller.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_POOL: ThreadPoolExecutor | None = None
_LOCK = threading.Lock()


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def both(fn, first, second):
    """(fn(first), fn(second)), the second half on the worker thread.

    Waits for both halves before returning or raising; when either fails,
    the first half's error wins.  With fewer than two CPUs both halves run
    here in order.  fn must not call both() itself: the worker would wait on
    its own queue.
    """
    global _POOL
    if _cpus() < 2:
        return fn(first), fn(second)
    with _LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(1, "eviq-core")
    future = _POOL.submit(fn, second)
    try:
        a = fn(first)
    except BaseException:
        future.exception()  # waits for the worker's half
        raise
    return a, future.result()


def halves(sizes) -> tuple[list[int], list[int]]:
    """Indices into sizes cut in two sets of near-equal total size.

    Largest first, each to the lighter set (ties to the first); equal sizes
    keep input order, and each set is returned in input order, so the cut
    depends only on the sizes.
    """
    load, parts = [0, 0], ([], [])
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        side = int(load[1] < load[0])
        load[side] += sizes[i]
        parts[side].append(i)
    return sorted(parts[0]), sorted(parts[1])
