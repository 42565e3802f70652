"""Set-up time of one workload, measured in a fresh process.

Usage: python3 bench/setup_probe.py <workload>

Times ``import isoalg`` plus one build of each of the workload's models,
then times the calibration kernel twice in the same process, and prints
{"setup_s": seconds, "calibration": mean kernel seconds} on stdout.
"""

from __future__ import annotations

import json
import sys
import time

import specs


def main() -> None:
    models = specs.workload_models(sys.argv[1])
    specs.use_source_tree()
    t0 = time.perf_counter()
    import isoalg
    for spec in models:
        isoalg.load_model(spec)
    wall = time.perf_counter() - t0
    import speed
    cal = 0.5 * (speed.calibrate() + speed.calibrate())
    print(json.dumps({"setup_s": wall, "calibration": cal}))


if __name__ == "__main__":
    main()
