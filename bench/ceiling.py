"""Ceiling search: the largest model size that still builds.

A size n "builds" when ``isoalg.load_model`` succeeds and the resulting
system passes ``check_coefficient_algebra``.  At the measured commit the
answer is monotone in n (every size up to the ceiling builds, none above
it), so bisection finds it with a handful of builds.  Bisection alone would
silently report a wrong n if that stopped holding, so the search re-probes
the sizes just above its answer, where a tolerance band would first break
monotonicity, and raises instead of answering.
"""

from __future__ import annotations

from typing import Callable

import specs

LO, HI = 2, 64
CONFIRM = 3


class NonMonotone(RuntimeError):
    """The build predicate is not monotone in n; no ceiling is reported."""


def builds(spec: dict) -> bool:
    """Whether the model builds and its system is a coefficient algebra.

    Build errors the CLI reports as "model does not build" count as a
    failed build; any other exception propagates.
    """
    import isoalg
    try:
        loaded = isoalg.load_model(spec)
    except (isoalg.IsoalgError, ValueError):
        return False
    return isoalg.check_coefficient_algebra(loaded.system).passed


def ceiling(pred: Callable[[int], bool], lo: int = LO, hi: int = HI,
            confirm: int = CONFIRM) -> int:
    """Largest n in [lo, hi] with pred(n), by bisection.

    Raises NonMonotone when pred(lo) is false or when one of the ``confirm``
    sizes above the answer satisfies pred.
    """
    seen: dict[int, bool] = {}

    def probe(n: int) -> bool:
        if n not in seen:
            seen[n] = bool(pred(n))
        return seen[n]

    if not probe(lo):
        raise NonMonotone(f"the smallest size n = {lo} does not build")
    if probe(hi):
        best = hi
    else:
        good, bad = lo, hi
        while bad - good > 1:
            mid = (good + bad) // 2
            if probe(mid):
                good = mid
            else:
                bad = mid
        best = good
    above = [n for n in range(best + 1, min(best + confirm, hi) + 1) if probe(n)]
    if above:
        raise NonMonotone(f"ceiling search found n = {best}, but n = {above} "
                          f"also build{'s' if len(above) == 1 else ''}")
    return best


def max_n() -> dict[str, int]:
    """Ceiling of every model family in ``specs.FAMILIES``."""
    return {name: ceiling(lambda n, family=family: builds(family(n)))
            for name, family in specs.FAMILIES.items()}
