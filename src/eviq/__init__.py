"""Evidence-aware inferential text generation with a discrete latent codebook."""

import ctypes
import os
from pathlib import Path

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


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread.

    The model's matrices are small: a stage-1 run on two CPUs took the same
    wall time on one BLAS thread as on the default two, at half the CPU
    time, and two runs side by side were ~5x slower under the default.  The
    library is the `scipy_openblas` one a numpy wheel ships in `numpy.libs`;
    a numpy without it, or without the symbol, is left as it is.
    """
    import numpy

    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*.so*"):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


_fix_malloc_thresholds()
_one_blas_thread()
