"""Evidence-aware inferential text generation with a discrete latent codebook."""

import ctypes
import os

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1   # mallopt parameter numbers from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _fix_malloc_thresholds() -> None:
    """Pin glibc's mmap and heap-trim thresholds at their adaptive ceilings.

    A packed transformer forward allocates and frees megabytes of
    temporaries per call.  Under glibc's adaptive thresholds, whether they
    reuse a hole in the heap or land on its top, to be trimmed back to the
    OS on free and faulted in again next call, depends on where earlier
    long-lived allocations fell.  On a 2-vCPU Xeon host about one decode
    process in two took the trimmed path: ~5,000 page faults and ~30% more
    CPU time per decoded event.  Fixed, blocks under 32 MiB come from the
    heap and up to 64 MiB freed at its top is kept for reuse.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    except (AttributeError, OSError, ValueError):
        pass


_fix_malloc_thresholds()
