"""The three closed-loop workloads, their output checks and oracles.

Each workload is one client that runs its operation back to back until the
run's time is up.  Every operation goes through ``isoalg.cli.main(argv)``
with model spec files written to a scratch directory inside the checkout.

- verify-q12: ``isoalg run --checks all`` on the q-model (n=12, q=1/2).
  Normal forms are long (degrees saturate at +-11), so normal-form
  multiplication dominates.  It runs isoalg at the benchmark's seed; at the
  default seed 0 the known norm_limit failure (convergence defect 0.0501
  against 0.05) shows, and no seed is chosen to hide it.
- verify-p6: the same on the polar model of the 6-dim weighted shift.
  Normal forms are short (U^6 = 0), so gauge and eval dominate, and a fixed
  per-call cost in normal-form arithmetic would show here.
- build-scale: one ladder pass runs ``isoalg closure`` on three models that
  build; algebra construction is nearly all the work and normal forms none.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import isoalg
from isoalg import cli

import ceiling
import specs
import speed
from layers import Tracer

COMMON_CHECKS = [
    "partial_isometry", "intertwining", "coefficient_algebra",
    "adjoint_intertwining", "extendability", "commutative_extendability",
    "power_structure", "extension_towers", "coefficient_bound",
    "gauge_invariance", "norm_limit", "sum_norm_estimates",
]
EXPECTED_CHECKS = {
    "verify-q12": COMMON_CHECKS + ["qdeform_relations"],
    "verify-p6": COMMON_CHECKS + ["polar_structure"],
}
NORM_LIMIT_DEFECT = "convergence at k = 8"

MIN_OPS = 3            # per timing series, even when one op outlasts the run
SETUP_REPEATS = {"verify-q12": 5, "verify-p6": 5, "build-scale": 3}
ORACLE_PAIRS = 40      # c01: product against matrix arithmetic
ORACLE_FORMS = 20      # c02: Fourier extraction against stored coefficients


class Result:
    """Outcome of one workload run."""

    def __init__(self):
        self.attempted = 0        # operations
        self.failed = 0           # operations with a wrong or missing output
        self.verdicts = 0         # check verdicts (closures on build-scale)
        self.verdicts_passed = 0
        self.oracle_misses = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, int] = {}
        # wall seconds of the ops, set-up probes and calibrations
        self.timings: dict[str, list] = {}
        self.wall: dict[str, float] = {}  # raw wall medians of timed metrics

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.oracle_misses == 0


# -- operations ---------------------------------------------------------------

def _call(argv: list[str]) -> tuple[int | None, float]:
    """One CLI invocation; returns (exit code or None if it raised, seconds)."""
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, perf_counter() - t0
    return rc, perf_counter() - t0


def _read(path: Path) -> bytes | None:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    path.unlink()
    return data


def _verify_verdicts(data: bytes | None, rc: int | None,
                     expected: list[str]) -> int | None:
    """Passed verdicts of a well-formed report, else None.

    Well-formed: exit code 0 or 1 agreeing with the report's pass flag, and
    exactly the expected checks, each with a verdict.
    """
    if data is None or rc not in (0, 1):
        return None
    try:
        doc = json.loads(data)
        results = doc["results"]
        well_formed = (doc["config"]["checks"] == expected
                       and len(results) == len(expected)
                       and rc == (0 if doc["pass"] else 1))
        return sum(1 for r in results if r["pass"]) if well_formed else None
    except (ValueError, KeyError, TypeError):
        return None


def _norm_limit_err(data: bytes) -> float:
    doc = json.loads(data)
    for res in doc["results"]:
        if res["name"] == "norm_limit":
            for d in res["defects"]:
                if d["check"] == NORM_LIMIT_DEFECT:
                    return float(d["value"])
    raise ValueError("report has no norm_limit convergence defect")


def _loop(op, seconds: float, trace: bool, tracer: Tracer | None):
    """Run ``op()``, which returns its wall time, back to back for
    ``seconds``, timing the calibration kernel before the first op and after
    each one.

    With ``trace``, ops alternate untraced and traced.  Returns the ops'
    wall times, whether each was traced, and the calibration times.
    """
    walls: list[float] = []
    flags: list[bool] = []
    cals = [speed.calibrate()]
    t_end = perf_counter() + seconds
    while True:
        is_traced = trace and len(walls) % 2 == 1
        if is_traced:
            tracer.op_id = len(walls)
            tracer.install()
            try:
                walls.append(op())
            finally:
                tracer.uninstall()
        else:
            walls.append(op())
        flags.append(is_traced)
        cals.append(speed.calibrate())
        n_traced = sum(flags)
        enough = (len(flags) - n_traced >= MIN_OPS
                  and (not trace or n_traced >= MIN_OPS))
        if enough and perf_counter() >= t_end:
            return walls, flags, cals


# -- oracles ------------------------------------------------------------------

def oracles(system, seed: int) -> int:
    """Differential oracles on the workload's system; returns the misses.

    c01: nf_multiply(x, y).eval() against x.eval() @ y.eval(), relative
    1e-10.  c02: gauge_average against the stored coefficient, 1e-9.
    """
    rng = np.random.default_rng(seed)
    misses = 0
    for _ in range(ORACLE_PAIRS):
        x = isoalg.random_normal_form(system, rng)
        y = isoalg.random_normal_form(system, rng)
        ex, ey = x.eval(), y.eval()
        err = isoalg.spectral_norm(isoalg.nf_multiply(x, y).eval() - ex @ ey)
        if not err <= 1e-10 * isoalg.spectral_norm(ex) * isoalg.spectral_norm(ey):
            misses += 1
    for _ in range(ORACLE_FORMS):
        x = isoalg.random_normal_form(system, rng)
        m = 2 * x.max_degree + 1
        for k in x.degrees():
            got = isoalg.strip_power(system, isoalg.gauge_average(x, k, m), k)
            if not np.linalg.norm(got - x.coefficient(k)) <= 1e-9 * x.scale():
                misses += 1
    return misses


# -- set-up -------------------------------------------------------------------

def setup_times(workload: str) -> tuple[list[float], list[float]]:
    """Import-and-build times of the workload, each in a fresh process, and
    the calibration time each process measured after its build."""
    probe = Path(__file__).with_name("setup_probe.py")
    walls, cals = [], []
    for _ in range(SETUP_REPEATS[workload]):
        out = subprocess.run([sys.executable, str(probe), workload],
                             capture_output=True, text=True, check=True,
                             timeout=120, cwd=specs.ROOT)
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        walls.append(doc["setup_s"])
        cals.append(doc["calibration"])
    return walls, cals


def _write_spec(workdir: Path, name: str, spec: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(spec))
    return str(path)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _normalised_ops(walls, cals) -> list[float]:
    """Op times at the reference speed, each against the mean of the
    calibrations before and after it."""
    return [speed.rescale(w, 0.5 * (before + after))
            for w, before, after in zip(walls, cals, cals[1:])]


def _end_to_end_common(res: Result, workload: str, walls, cals) -> None:
    setup, setup_cals = setup_times(workload)
    res.timings.update(setup=setup, setup_calibration=setup_cals)
    res.metrics["setup_s"] = (statistics.median(
        speed.rescale(w, c) for w, c in zip(setup, setup_cals)), "s")
    res.metrics["op_s"] = (statistics.median(_normalised_ops(walls, cals)), "s")
    res.metrics["pass_ratio"] = (res.verdicts_passed / res.verdicts, "ratio")
    res.wall.update(setup_s=statistics.median(setup),
                    op_s=statistics.median(walls))
    res.samples.update(setup_s=len(setup), op_s=len(walls))
    for family, n in ceiling.max_n().items():
        res.metrics[f"max_n.{family}"] = (n, "n")


def _per_layer_common(res: Result, tracer: Tracer, walls, flags,
                      cals) -> None:
    norm = _normalised_ops(walls, cals)
    traced = [(w, n) for w, n, f in zip(walls, norm, flags) if f]
    plain = [n for n, f in zip(norm, flags) if not f]
    scale = statistics.median(n / w for w, n in traced)
    for name, (value, unit) in tracer.summary(len(traced)).items():
        res.metrics[name] = (value * scale if unit == "s/op" else value, unit)
    res.metrics["trace.overhead_ratio"] = (
        statistics.median(n for _, n in traced) / statistics.median(plain),
        "ratio")
    res.samples.update(untraced_ops=len(plain), traced_ops=len(traced))


# -- workloads ----------------------------------------------------------------

def verify(workload: str, seed: int, seconds: float, trace: bool,
           workdir: Path) -> tuple[Result, Tracer | None]:
    spec = specs.VERIFY_MODELS[workload]
    expected = EXPECTED_CHECKS[workload]
    model = _write_spec(workdir, "model.json", spec)
    out = workdir / "report.json"
    argv = ["run", "--model", model, "--checks", "all", "--seed", str(seed),
            "--out", str(out)]
    res = Result()
    loaded = isoalg.load_model(spec)
    res.oracle_misses = oracles(loaded.system, seed)

    first: list[bytes] = []

    def op() -> float:
        rc, dt = _call(argv)
        data = _read(out)
        if data is not None and not first:
            first.append(data)
        passed = _verify_verdicts(data, rc, expected)
        res.attempted += 1
        res.verdicts += len(expected)
        if passed is None or data != first[0]:
            res.failed += 1
        else:
            res.verdicts_passed += passed
        return dt

    tracer = Tracer() if trace else None
    walls, flags, cals = _loop(op, seconds, trace, tracer)
    res.timings.update(ops=walls, traced=flags, calibration=cals)
    if res.oracle_misses:  # a missed oracle discredits every op of the run
        res.failed, res.verdicts_passed = res.attempted, 0

    if trace:
        _per_layer_common(res, tracer, walls, flags, cals)
        res.metrics["algebra.final_dim"] = (loaded.system.algebra.dim, "count")
        res.metrics["cli.report_bytes"] = (len(first[0]) if first else 0, "B")
    else:
        _end_to_end_common(res, workload, walls, cals)
        res.metrics["norm_limit_err"] = (
            _norm_limit_err(first[0]) if first else float("nan"), "ratio")
        res.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return res, tracer


def build_scale(seed: int, seconds: float, trace: bool,
                workdir: Path) -> tuple[Result, Tracer | None]:
    models = [_write_spec(workdir, f"rung{i}.json", spec)
              for i, spec in enumerate(specs.LADDER)]
    outs = [workdir / f"rung{i}.out.json" for i in range(len(models))]
    res = Result()
    first: list[list[bytes | None]] = []

    def op() -> float:
        total = 0.0
        outputs = []
        for model, out in zip(models, outs):
            rc, dt = _call(["closure", "--model", model, "--out", str(out)])
            total += dt
            data = _read(out)
            outputs.append(data if rc == 0 else None)
        if not first:
            first.append(outputs)
        passed = sum(d is not None for d in outputs)
        res.attempted += 1
        res.verdicts += len(models)
        res.verdicts_passed += passed
        if passed < len(models) or outputs != first[0]:
            res.failed += 1
        return total

    tracer = Tracer() if trace else None
    walls, flags, cals = _loop(op, seconds, trace, tracer)
    res.timings.update(ops=walls, traced=flags, calibration=cals)

    if trace:
        _per_layer_common(res, tracer, walls, flags, cals)
        done = [d for d in first[0] if d is not None]
        res.metrics["algebra.final_dim"] = (
            sum(json.loads(d)["full_tower_dim"] for d in done), "count")
        res.metrics["cli.report_bytes"] = (sum(len(d) for d in done), "B")
    else:
        _end_to_end_common(res, "build-scale", walls, cals)
        # the first rung is the verify-q12 model; same check, same seed
        out = workdir / "norm_limit.json"
        rc, _ = _call(["run", "--model", models[0], "--checks", "norm_limit",
                       "--seed", str(seed), "--out", str(out)])
        data = _read(out)
        if rc not in (0, 1) or data is None:
            raise RuntimeError(f"isoalg run --checks norm_limit exited {rc}")
        res.metrics["norm_limit_err"] = (_norm_limit_err(data), "ratio")
        res.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return res, tracer


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[Result, Tracer | None]:
    specs.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=specs.OUT) as tmp:
        if workload == "build-scale":
            return build_scale(seed, seconds, trace, Path(tmp))
        return verify(workload, seed, seconds, trace, Path(tmp))


# -- environment --------------------------------------------------------------

def _git_sha() -> str | None:
    git_dir = specs.ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, cwd=specs.ROOT,
                             env={**os.environ, "GIT_DIR": str(git_dir)})
    except OSError:
        return None
    return out.stdout.strip() or None


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "calibration_ref_s": speed.CAL_REF_S,
        "seed": seed,
    }
