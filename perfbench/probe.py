"""Fixed reference work that measures how fast the machine runs right now.

On a shared machine the same code runs up to about twice as fast or slow from
one few-second stretch to the next, as other tenants load the host.  The
benchmark brackets timed work with a probe and reports times in reference
seconds: wall seconds x REF_SECONDS[kind] / (probe time around the work).
Where the probe takes REF_SECONDS, reference seconds are wall seconds.  A
contended machine slows interpreted code and dense linear algebra by
different factors, so each workload uses the probe kind that matches its own
time: "python" (an integer loop, then a list comprehension over 32768 big
residues, a working set larger than the core's cache like a transform's) or
"lapack" (the integer loop, then a complex product and a complex inversion
whose matrices also outgrow the cache).  The probes share no code with ringcond, so no change
to the program moves them.
"""
from __future__ import annotations

import time

import numpy as np

REF_SECONDS = {"python": 0.010, "lapack": 0.024}
_Q = 3169320961
_DATA = [i * 2654435761 % _Q for i in range(32768)]
_N = 320
_T = np.arange(_N * _N, dtype=float).reshape(_N, _N)
_MATRIX = np.eye(_N) + 0.01 * np.cos(_T) + 0.01j * np.sin(_T)


def _loop():
    x = 12345
    for _ in range(20_000):
        x = x * 1103515245 % _Q


def probe(kind: str) -> float:
    """Wall seconds of one pass of the reference work of this kind."""
    t0 = time.perf_counter()
    _loop()
    if kind == "python":
        [u * 1103515245 % _Q for u in _DATA]
    else:
        _MATRIX[:256, :256] @ _MATRIX[:256, :256]
        np.linalg.inv(_MATRIX)
    return time.perf_counter() - t0
