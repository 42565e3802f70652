"""Model specs and paths shared by the benchmark scripts.

This module imports nothing from numpy or isoalg, so the set-up probe can
import it before its clock starts.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on the import path.

    Exits with code 2 when the checkout has no isoalg sources, so that the
    benchmark never measures an isoalg installed elsewhere.
    """
    if not (SRC / "isoalg" / "__init__.py").is_file():
        print(f"bench: no isoalg sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def qdeform(n: int, q: float) -> dict:
    """The truncated q-model with the Heisenberg weight."""
    return {"type": "qdeform", "n": n, "q": q, "rho": "heisenberg"}


def polar_shift(n: int, base: float) -> dict:
    """Polar model of the n-dim weighted backward shift with weights
    base^{j/2}, j = 1..n-1 (``polar_shift(6, 0.5)`` is the test suite's
    ``polar6`` fixture)."""
    entries = [[[0.0, 0.0] for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        entries[i][i + 1] = [base ** ((i + 1) / 2), 0.0]
    return {"type": "polar", "a": {"dim": n, "entries": entries}}


# The two reference models of the verify workloads.
VERIFY_MODELS = {
    "verify-q12": qdeform(12, 0.5),
    "verify-p6": polar_shift(6, 0.5),
}

# One ladder pass of build-scale runs `isoalg closure` on each rung.
LADDER = [qdeform(12, 0.5), qdeform(24, 0.9), polar_shift(24, 0.7)]

# Model families of the ceiling search: n -> spec.
FAMILIES = {
    "q03": lambda n: qdeform(n, 0.3),
    "q05": lambda n: qdeform(n, 0.5),
    "q09": lambda n: qdeform(n, 0.9),
    "polar07": lambda n: polar_shift(n, 0.7),
}

WORKLOADS = ("verify-q12", "verify-p6", "build-scale")


def workload_models(workload: str) -> list[dict]:
    """The specs a workload builds during set-up."""
    if workload == "build-scale":
        return LADDER
    return [VERIFY_MODELS[workload]]
