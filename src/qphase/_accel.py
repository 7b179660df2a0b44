"""Acceleration switch for the classical-map kernel, the one numba path.

QPHASE_NUMBA=0 (or "false"/"no") forces the pure-numpy map kernel even when
numba is installed; any other value, or the variable unset, uses numba when it
imports. `kernels.use_numba()` can flip the choice at runtime, which is what
the benchmark uses to time both paths in one process.
"""

from __future__ import annotations

import os


def _env_wants_numba() -> bool:
    return os.environ.get("QPHASE_NUMBA", "1").strip().lower() not in ("0", "false", "no")


try:
    from numba import njit as _numba_njit  # noqa: F401
    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

USE_NUMBA_DEFAULT = HAS_NUMBA and _env_wants_numba()


def njit(*args, **kwargs):
    """numba.njit when available, identity decorator otherwise."""
    if HAS_NUMBA:
        return _numba_njit(*args, **kwargs)
    if args and callable(args[0]):
        return args[0]

    def wrap(fn):
        return fn

    return wrap
