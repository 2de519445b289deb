"""A fixed calibration loop that measures how fast the host runs right now.

On a shared host the same op can take 40% longer in one minute than in the
next, and that drift is slow: it holds for tens of seconds, so it does not
average out within a run.  The benchmark therefore runs this loop next to
every op and rescales the op's wall time to a reference host speed:

    normalized seconds = op seconds * REFERENCE_S / calibration seconds

where the calibration time is the mean of the loops run just before and just
after the op.  The loop uses nothing from ``bclearn``, so a change to the
program moves the normalized time exactly as it moves the wall time; only
the host's speed cancels.  Its work is a mix of what the ops spend their time
on: splitting and counting CSV-like text, numpy counting and sorting over
integer codes, and Python big-integer arithmetic.
"""

from __future__ import annotations

import time

import numpy as np

# The loop's median time on the host the benchmark was tuned on (2-vCPU
# Intel Xeon VM, Python 3.11, numpy 2.4).  It only sets the scale: on that
# host a normalized time reads about the same as the wall time.
REFERENCE_S = 0.12

_rng = np.random.default_rng(20010101)
_LINES = [",".join(map(str, row)) for row in _rng.integers(0, 3, size=(6000, 16)).tolist()]
_CODES = _rng.integers(0, 3, size=400_000)
_PARENTS = _rng.integers(0, 27, size=400_000)
_MODULUS = 1 << 2048


def calibrate() -> float:
    """Run the fixed loop once; return its wall time in seconds."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for line in _LINES:
        for token in line.split(","):
            counts[token] = counts.get(token, 0) + 1
    for _ in range(4):
        np.bincount(_PARENTS * 3 + _CODES, minlength=81)
        np.argsort(_PARENTS, kind="stable")
    x = 1
    for i in range(1, 1500):
        x = (x * (3 * i + 1)) % _MODULUS + i
    return time.perf_counter() - start


def normalized(seconds: float, before: float, after: float) -> float:
    """``seconds`` of an op rescaled to the reference host speed, given the
    calibration times measured just before and just after it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
