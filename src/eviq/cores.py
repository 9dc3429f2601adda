"""Two halves of one job on the host's two cores.

The training step's largest untaped blocks (the Adam update and the encodes
of evidence paragraphs missing from the table) are numpy and BLAS work that
releases the interpreter lock, so one worker thread can run half of each
while the caller runs the other.  The worker is created on first use, never
at import; with fewer than two CPUs in the affinity mask both halves run
inline in the caller.

Left to the kernel, the worker need not run on the other core: sampling
each thread's CPU (field 39 of /proc/<pid>/task/<tid>/stat) every 0.1 s
during two training runs on a 2-vCPU virtual host found the caller and the
worker on the same CPU in all 80 samples, both runnable at once in 30.  So
before its half the worker sets its own affinity to the caller's mask less
the CPU the caller was on when it handed the half over (never empty, as the
mask holds two or more CPUs).  The caller's affinity is never changed.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress

_POOL: ThreadPoolExecutor | None = None
_LOCK = threading.Lock()

try:
    _sched_getcpu = ctypes.CDLL(None).sched_getcpu
except (AttributeError, OSError, TypeError):  # no such call in this libc
    _sched_getcpu = None


def _cpu() -> int | None:
    """The CPU the calling thread runs on; None or -1 where none can be read."""
    return None if _sched_getcpu is None else _sched_getcpu()


def _mask() -> set:
    try:
        return os.sched_getaffinity(0)
    except AttributeError:  # no affinity masks on this platform
        return set(range(os.cpu_count() or 1))


def _run_on(cpus: set, fn, x):
    # a placement only: no affinity masks here, or a CPU gone offline since,
    # must not fail the half
    with suppress(AttributeError, OSError):
        os.sched_setaffinity(0, cpus)
    return fn(x)


def both(fn, first, second):
    """(fn(first), fn(second)), the second half on the worker thread, on
    a CPU other than the caller's.

    Waits for both halves before returning or raising; when either fails,
    the first half's error wins.  With fewer than two CPUs both halves run
    here in order.  fn must not call both() itself: the worker would wait on
    its own queue.
    """
    global _POOL
    mask = _mask()
    if len(mask) < 2:
        return fn(first), fn(second)
    with _LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(1, "eviq-core")
    future = _POOL.submit(_run_on, mask - {_cpu()}, fn, second)
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
