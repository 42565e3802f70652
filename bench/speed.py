"""Machine-speed normalisation of timings.

On a shared machine the same op runs up to twice as fast in one minute as
in the next, and the changes last from seconds to minutes, so raw medians of
separate runs disagree by far more than any bound worth setting.  A fixed
calibration kernel, timed next to each timed section, measures how fast the
machine is running at that moment.  A section's normalised time is
``wall * CAL_REF_S / calibration``: its wall time on a machine that runs the
kernel in ``CAL_REF_S`` seconds.  The kernel runs in the same process as the
section it rescales, because the two cores are loaded differently and a
calibration in a parent process says little about its child.  The kernel
mixes what isoalg spends its time on (interpreter work, 12x12 complex
products, a spectral norm), and it is part of the benchmark, so a change to
isoalg cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

CAL_REF_S = 0.1
_REPS = 2000
_MATS = [m + 1j * m.T for m in np.random.default_rng(12345).standard_normal(
    (8, 12, 12))]


def calibrate() -> float:
    """Wall seconds of one pass of the calibration kernel."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(_REPS):
        b = _MATS[i % 8] @ _MATS[(i + 3) % 8].conj().T
        acc += float(np.linalg.norm(b, 2))
        rows = {k: b[k, k] for k in range(12)}
        acc += sum(abs(v) for v in rows.values())
    return perf_counter() - t0


def rescale(wall: float, cal: float) -> float:
    """Wall time at the reference machine speed, given the calibration time
    measured alongside it."""
    return wall * CAL_REF_S / cal
