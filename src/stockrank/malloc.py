"""glibc's malloc thresholds, set through ctypes as ``blas`` sets OpenBLAS's threads.

``hold_pages`` fixes the mmap threshold at 32 MiB and the trim threshold at
64 MiB, above a training step's largest temporary, so the temporaries a
step frees stay in the heap for the next step instead of going back to the
OS and being faulted in afresh. ``trim`` hands the free pages back once a
period is trained. mallopt ends glibc's dynamic thresholds for the rest of
the process, and glibc has no call that restores them. Under any other libc
``thresholds()`` is None and both calls do nothing.
"""

from __future__ import annotations

import ctypes
import functools

M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # the ceiling of glibc's own dynamic mmap threshold
TRIM_THRESHOLD = 64 << 20


@functools.cache
def _glibc():
    """(mallopt, malloc_trim) of the process's glibc, or None."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no dlopen of the process image on this platform
        return None
    if getattr(libc, "gnu_get_libc_version", None) is None:
        return None
    mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return mallopt, malloc_trim


def thresholds() -> dict | None:
    """The thresholds ``hold_pages`` sets, in bytes, or None where the libc
    is not glibc."""
    if _glibc() is None:
        return None
    return {"mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD}


def hold_pages() -> None:
    """Serve allocations under 32 MiB from the heap and keep up to 64 MiB of
    free heap top mapped. Processes forked afterwards inherit both."""
    fns = _glibc()
    if fns is not None:
        fns[0](M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        fns[0](M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def trim() -> None:
    """Hand the heap's free pages back to the OS."""
    fns = _glibc()
    if fns is not None:
        fns[1](0)
