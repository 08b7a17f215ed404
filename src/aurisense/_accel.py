"""Numba/numpy backend selection for the hot numeric kernels.

Every accelerated kernel in this package exists in two interchangeable
forms: a scalar-loop version compiled with ``numba.njit`` and a
vectorized pure-numpy fallback.  Which one is bound to the public name
is decided once, at import time, from the ``AURISENSE_NUMBA``
environment variable:

    unset / "auto"   use numba when it imports, numpy otherwise
    "1" / "on"       require numba (ImportError if unavailable)
    "0" / "off"      force the pure-numpy path
"""

import os

_FLAG = os.environ.get("AURISENSE_NUMBA", "auto").strip().lower()

try:
    import numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    NUMBA_AVAILABLE = False

if _FLAG in ("0", "off", "false", "numpy"):
    USE_NUMBA = False
elif _FLAG in ("1", "on", "true", "numba"):
    if not NUMBA_AVAILABLE:
        raise ImportError("AURISENSE_NUMBA=1 but numba is not installed")
    USE_NUMBA = True
else:
    USE_NUMBA = NUMBA_AVAILABLE


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"


def maybe_jit(func):
    """Compile ``func`` with njit when numba is importable, else return it.

    Compilation happens even when the numpy path is selected so that both
    variants stay importable for parity tests and benchmarks; the caller
    decides which one to bind.
    """
    if NUMBA_AVAILABLE:
        return numba.njit(cache=True)(func)
    return func
