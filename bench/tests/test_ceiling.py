"""Self-test of the benchmark's ceiling search.

Run from the root of a checkout:  python3 -m pytest bench/tests
"""

import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import ceiling  # noqa: E402
import specs  # noqa: E402

specs.use_source_tree()

SCAN = range(2, 36)
# Largest size that builds in a linear scan over SCAN, per family.
EXPECTED = {"q03": 8, "q05": 12, "q09": 30, "polar07": 24}


@pytest.mark.parametrize("family", sorted(EXPECTED))
def test_bisection_matches_linear_scan(family):
    build = functools.lru_cache(maxsize=None)(
        lambda n: ceiling.builds(specs.FAMILIES[family](n)))
    scan = [build(n) for n in SCAN]
    last = max(n for n, ok in zip(SCAN, scan) if ok)
    # monotone over the scan: everything up to the ceiling builds, nothing after
    assert scan == [n <= last for n in SCAN]
    assert last == EXPECTED[family]
    assert ceiling.ceiling(build) == last


def test_non_monotone_predicate_fails_loudly():
    # bisection over [2, 64] lands on 10; 12 also holds, just above it
    with pytest.raises(ceiling.NonMonotone):
        ceiling.ceiling(lambda n: n <= 10 or n == 12)


def test_smallest_size_must_build():
    with pytest.raises(ceiling.NonMonotone):
        ceiling.ceiling(lambda n: 5 <= n <= 9)


def test_monotone_predicate_and_cap():
    assert ceiling.ceiling(lambda n: n <= 17) == 17
    assert ceiling.ceiling(lambda n: True) == ceiling.HI
