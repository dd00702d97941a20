"""The host-speed probe: a fixed piece of work timed next to the requests.

This machine's speed swings by up to 2x, in streaks from a fraction of a
second to minutes, so a latency read alone says as much about the moment as
about the program.  The probe is a fixed mix of the kinds of work gfusion
does (an interpreted loop, a JSON round trip, a LAPACK eigensolve), about
20 ms in all.  It calls nothing in gfusion, so a change to the program does
not move it; ``run.py`` divides each latency by the host's speed that the
probes around it read.
"""

import json
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20180609)
_SYM = _RNG.standard_normal((400, 400))
_SYM = _SYM + _SYM.T
_DOC = _RNG.standard_normal((60, 60)).tolist()


PARTS = ("interp", "lapack")


def probe() -> tuple[float, float]:
    """Seconds the probe's two parts took, in the order of ``PARTS``."""
    t0 = perf_counter()
    s = 0.0
    for i in range(100_000):
        s += i * 0.5
    json.loads(json.dumps(_DOC))
    t1 = perf_counter()
    np.linalg.eigvalsh(_SYM)
    return t1 - t0, perf_counter() - t1
