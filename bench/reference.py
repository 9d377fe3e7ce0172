"""Machine-speed reference: a fixed kernel, timed between benchmark ops.

The speed of a shared machine drifts with other tenants' load, by tens of
percent over minutes.  Dividing an op's time by the time of this kernel,
measured just before and just after the op, cancels the drift that the two
share.  The kernel belongs to the benchmark and calls nothing of the package,
so no change to the package moves it.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.Generator(np.random.PCG64(20220214))
_PAIRS = _RNG.random((12_000, 2)).tolist()
_ARRAY = _RNG.random(150_000)


def kernel_s() -> float:
    """Seconds for one run of the kernel: about half float formatting, as
    the CSV writer does, and half a numpy sort, as the audits do."""
    start = time.perf_counter()
    "\n".join(f"{x:.17g},{y:.17g}" for x, y in _PAIRS)
    np.argsort(_ARRAY, kind="stable")
    return time.perf_counter() - start
