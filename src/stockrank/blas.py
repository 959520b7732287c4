"""Thread count of the OpenBLAS that numpy loaded, read and set through ctypes.

threadpoolctl does this for any BLAS but is not a dependency. This module
handles the OpenBLAS builds numpy ships with (plain ``openblas_*`` and the
``scipy_openblas_*64_`` symbols of the numpy wheels). Under any other
BLAS, ``threads()`` and ``config()`` are None and ``can_limit()`` is False.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy  # noqa: F401  (loads the OpenBLAS this module looks for)


def _symbol(lib, name: str):
    for sym in (f"openblas_{name}", f"openblas_{name}64_",
                f"scipy_openblas_{name}", f"scipy_openblas_{name}64_"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            return fn
    return None


@functools.cache
def _openblas():
    """(get_num_threads, set_num_threads, get_config) of the first loaded
    OpenBLAS that has all three, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        get, set_, config = (_symbol(ctypes.CDLL(path), name)
                             for name in ("get_num_threads", "set_num_threads", "get_config"))
        if get is not None and set_ is not None and config is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            config.argtypes, config.restype = (), ctypes.c_char_p
            return get, set_, config
    return None


def threads() -> int | None:
    """Threads the loaded OpenBLAS uses, or None when none was found."""
    fns = _openblas()
    return int(fns[0]()) if fns else None


def config() -> str | None:
    """The loaded OpenBLAS's build string (version, target core, options)."""
    fns = _openblas()
    return fns[2]().decode().strip() if fns else None


def can_limit() -> bool:
    return _openblas() is not None


@contextmanager
def limit_threads(n: int):
    """Run the block with n BLAS threads, then restore the previous count.

    The count is process state, so processes forked inside the block start
    with n threads too.
    """
    get, set_, _config = _openblas()
    previous = int(get())
    set_(n)
    try:
        yield
    finally:
        set_(previous)
