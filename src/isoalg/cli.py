"""Batch front-end: build a model from a JSON spec, run selected checkers,
emit a machine-readable JSON report.

Exit codes: 0 when every requested check passes, 1 on a check failure,
2 on a configuration or parse error.  Reports are a deterministic function
of (config, seed): floats are printed with 17 significant digits and all
iteration orders are fixed, so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cached_property
from typing import Callable

from .algebra import (
    build_towers,
    check_commutative_extendability,
    check_extendability,
    check_extension_towers,
    check_intertwining_equivalents,
    verify_power_identities,
)
from .errors import IsoalgError, NotCommutative, HypothesisViolated
from .expr import parse
from .linalg import is_partial_isometry, matrix_from_json, matrix_to_json
from .models import (
    LoadedModel,
    load_model,
    polar_decompose,
    polar_structure_suite,
    qdeform_relations_suite,
)
from .normalform import NormalForm, check_adjoint_intertwining, reduce
from .norms import (
    gauge_invariance_sample,
    norm_limit,
    norm_limit_sample,
    random_normal_forms,
    sample_coefficient_bound,
    sum_norm_estimates_sample,
)
from .report import ConditionReport


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {dump_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dump_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj:  # NaN
            return "null"
        if obj == float("inf"):
            return "1e999"
        if obj == float("-inf"):
            return "-1e999"
        return format(obj, ".17g")
    if obj is None:
        return "null"
    return json.dumps(str(obj))


class ConfigError(Exception):
    """Invalid configuration; reported with exit code 2."""


def _towers_report(loaded: LoadedModel) -> dict:
    model = loaded.polar or loaded.qdeform
    if model is None:
        seed = loaded.system.algebra
        ext, full = build_towers(loaded.system)
    else:
        seed, ext, full = (model.seed_algebra, model.delta_tower,
                           model.system.algebra)
    return {"ambient_dim": seed.ambient_dim, "seed_dim": seed.dim,
            "delta_tower_dim": ext.dim, "full_tower_dim": full.dim}


class _Context:
    """What a check runner sees: the model, the run options, the traces it
    emits, and what the samplers share: one draw of random canonical forms
    and the coefficient-bound report measured on it."""

    def __init__(self, loaded: LoadedModel, cfg):
        self.loaded = loaded
        self.system = loaded.system
        self.cfg = cfg
        self.tol = cfg.tol
        self.traces = []

    @cached_property
    def forms(self) -> list[NormalForm]:
        return random_normal_forms(self.system, self.cfg.samples, self.cfg.seed)

    @cached_property
    def star(self) -> ConditionReport:
        return sample_coefficient_bound(self.system, self.forms, self.cfg.seed,
                                        self.tol)


def _norm_limit(ctx: _Context) -> ConditionReport:
    rep, traces = norm_limit_sample(ctx.forms[:50], ctx.cfg.seed, ctx.cfg.k_max,
                                    star_report=ctx.star)
    ctx.traces.extend(traces)
    return rep


# name -> (requirement, runner), in the execution order of --checks all.
# The requirement is None, "coefficient" (a coefficient algebra; these
# checks would only repeat the failure on a raw system that is not one, so
# --checks all skips them there) or the LoadedModel field the check needs.
# Runners name the checkers at call time, so a rebound module attribute
# reaches them.
CHECKS: dict[str, tuple[str | None, Callable[[_Context], ConditionReport]]] = {
    "partial_isometry": (None, lambda c: is_partial_isometry(c.system.u, c.tol)),
    "intertwining": (
        None, lambda c: check_intertwining_equivalents(c.system, c.tol)),
    # the system was built at c.tol, so its cached report is this check's
    "coefficient_algebra": (None, lambda c: c.system.coefficient_report),
    "adjoint_intertwining": (
        None, lambda c: check_adjoint_intertwining(c.system, c.tol)),
    "extendability": (
        None, lambda c: check_extendability(c.system, c.cfg.n_max, c.tol)),
    "commutative_extendability": (
        None, lambda c: check_commutative_extendability(
            c.system, c.cfg.n_max, c.tol)),
    "power_structure": (
        None, lambda c: verify_power_identities(c.system, c.cfg.k_max, c.tol)),
    "extension_towers": (
        None, lambda c: check_extension_towers(c.system, c.tol)),
    "coefficient_bound": ("coefficient", lambda c: c.star),
    "gauge_invariance": ("coefficient", lambda c: gauge_invariance_sample(
        c.system, c.forms, c.cfg.seed, star_report=c.star, tol=c.tol)),
    "norm_limit": ("coefficient", _norm_limit),
    "sum_norm_estimates": (None, lambda c: sum_norm_estimates_sample(
        c.cfg.samples, c.cfg.seed, c.tol)),
    "polar_structure": (
        "polar", lambda c: polar_structure_suite(c.loaded.polar, c.cfg.k_max)),
    "qdeform_relations": (
        "qdeform", lambda c: qdeform_relations_suite(c.loaded.qdeform)),
}


def _applies(requires: str | None, loaded: LoadedModel) -> bool:
    if requires == "coefficient":
        return loaded.system.coefficient_report.passed
    return requires is None or getattr(loaded, requires) is not None


def _run_check(ctx: _Context, name: str) -> ConditionReport:
    """Run one registered check, converting hypothesis failures into failed
    reports so one broken condition does not abort the whole batch."""
    if name not in CHECKS:
        raise ConfigError(
            f"unknown check {name!r}; registered: {', '.join(CHECKS)}")
    requires, run = CHECKS[name]
    # coefficient checks asked for by name still run, and fail with
    # NotCoefficientAlgebra on a system that is not one
    if requires != "coefficient" and not _applies(requires, ctx.loaded):
        raise ConfigError(f"{name} requires a {requires} model")
    try:
        return run(ctx)
    except (NotCommutative, HypothesisViolated) as exc:
        rep = ConditionReport(name)
        failed = getattr(exc, "report", None)
        if isinstance(exc, NotCommutative):
            rep.add("hypothesis: algebra commutative",
                    getattr(exc, "defect", 1.0), 0.0)
        else:
            worst = failed.worst() if failed is not None else None
            rep.add("hypothesis", worst.value if worst else 1.0, 0.0)
        rep.note(str(exc))
        if failed is not None:
            rep.merge(failed, prefix="failed hypothesis")
        return rep


def _load_model_file(path: str, tol: float) -> LoadedModel:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load model spec {path!r}: {exc}") from exc
    try:
        return load_model(spec, tol)
    except (IsoalgError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"model does not build: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _default_tol() -> float:
    env = os.environ.get("ISOALG_TOL")
    if env is None:
        return 1e-9
    try:
        return float(env)
    except ValueError:
        raise ConfigError(f"ISOALG_TOL={env!r} is not a number")


def _check_counts(args) -> None:
    """Reject --k-max and --samples below 1 and --n-max below 0 (the n = 0
    image is the algebra itself): a sampler over no samples, a norm-limit
    schedule with no stage or an empty delta^n orbit would pass vacuously."""
    for flag, least in (("k_max", 1), ("samples", 1), ("n_max", 0)):
        value = getattr(args, flag, least)
        if value < least:
            raise ConfigError(f"--{flag.replace('_', '-')} must be at least "
                              f"{least}, got {value}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model spec JSON file")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance (default 1e-9, or ISOALG_TOL)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-max", type=int, default=8, dest="k_max")
    p.add_argument("--n-max", type=int, default=6, dest="n_max")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _cmd_run(args) -> tuple[dict, int]:
    loaded = _load_model_file(args.model, args.tol)
    if args.checks.strip() == "all":
        names = [name for name, (requires, _) in CHECKS.items()
                 if _applies(requires, loaded)]
    else:
        names = [n.strip() for n in args.checks.split(",") if n.strip()]
        if not names:
            raise ConfigError(f"--checks {args.checks!r} names no check")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ConfigError(f"--checks names {', '.join(repeated)} more "
                              "than once")
    ctx = _Context(loaded, args)
    reports = [_run_check(ctx, name) for name in names]
    ok = all(r.passed for r in reports)
    doc = {
        "config": {"model": args.model, "checks": names, "tol": args.tol,
                   "seed": args.seed, "k_max": args.k_max, "n_max": args.n_max,
                   "samples": args.samples},
        "pass": ok,
        "results": [r.to_json() for r in reports],
    }
    if ctx.traces:
        doc["traces"] = [t.to_json(include_form=False) for t in ctx.traces]
    return doc, 0 if ok else 1


def _load_form(args) -> tuple[LoadedModel, NormalForm]:
    """Load the model, then parse and reduce the --expr/--expr-file text."""
    loaded = _load_model_file(args.model, args.tol)
    if args.expr is not None:
        text = args.expr
    else:
        try:
            with open(args.expr_file) as fh:
                text = fh.read().strip()
        except OSError as exc:
            raise ConfigError(f"cannot read expression file: {exc}") from exc
    e = parse(text, loaded.system, loaded.generators)
    return loaded, reduce(e, loaded.system)


def _cmd_nf(args) -> tuple[dict, int]:
    _, nf = _load_form(args)
    return nf.to_json(), 0


def _cmd_norm_limit(args) -> tuple[dict, int]:
    loaded, nf = _load_form(args)
    forms = random_normal_forms(loaded.system, args.samples, args.seed)
    star = sample_coefficient_bound(loaded.system, forms, args.seed, args.tol)
    trace = norm_limit(nf, args.k_max, star)
    return {"coefficient_bound": star.to_json(), "trace": trace.to_json()}, 0


def _cmd_closure(args) -> tuple[dict, int]:
    loaded = _load_model_file(args.model, args.tol)
    try:
        return _towers_report(loaded), 0
    except (HypothesisViolated, NotCommutative) as exc:
        doc = {"error": str(exc)}
        if getattr(exc, "report", None) is not None:
            doc["report"] = exc.report.to_json()
        return doc, 1


def _cmd_polar(args) -> tuple[dict, int]:
    try:
        with open(args.matrix) as fh:
            mat = matrix_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, IsoalgError) as exc:
        raise ConfigError(f"cannot load matrix: {exc}") from exc
    u, abs_a = polar_decompose(mat)
    return {
        "U": matrix_to_json(u),
        "abs": matrix_to_json(abs_a),
        "partial_isometry": is_partial_isometry(u, args.tol).to_json(),
    }, 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isoalg",
        description="verification suites for algebras generated by a "
                    "*-algebra and a partial isometry")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, func, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        return p

    p = command("run", _cmd_run, "run checker suites against a model")
    _add_common(p)
    p.add_argument("--checks", default="all",
                   help="comma-separated check names, or 'all'")

    for name, func, text in (
            ("nf", _cmd_nf,
             "parse an expression and print its canonical normal form"),
            ("norm-limit", _cmd_norm_limit,
             "norm-limit trace for an expression")):
        p = command(name, func, text)
        _add_common(p)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--expr", help="expression text")
        g.add_argument("--expr-file", help="file containing the expression")

    _add_common(command("closure", _cmd_closure,
                        "print extension-tower dimensions"))

    p = command("polar", _cmd_polar, "polar-decompose a matrix file")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.tol is None:
            args.tol = _default_tol()
        _check_counts(args)
        doc, rc = args.func(args)
    except ConfigError as exc:
        print(f"isoalg: {exc}", file=sys.stderr)
        return 2
    except IsoalgError as exc:
        print(f"isoalg: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(dump_json(doc), args.out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
