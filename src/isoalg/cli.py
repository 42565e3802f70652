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
import functools
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
from .errors import HypothesisViolated, IsoalgError
from .expr import parse
from .linalg import (
    DEFAULT_TOL,
    is_partial_isometry,
    matrix_from_json,
    matrix_to_json,
)
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
    sampler_hypothesis,
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
    at --samples and --seed, each sampler measuring (system, forms) on its
    own.  The system was built at --tol, so its checkers measure at --tol."""

    def __init__(self, loaded: LoadedModel, cfg):
        self.loaded = loaded
        self.system = loaded.system
        self.cfg = cfg
        self.traces = []

    @cached_property
    def forms(self) -> list[NormalForm]:
        return random_normal_forms(self.system, self.cfg.samples, self.cfg.seed)


def _norm_limit_k_max(k_max: int) -> int:
    """--k-max for the norm limit, whose stages k enter it as floats."""
    if k_max.bit_length() > 1000:
        raise ConfigError(f"--k-max {k_max} is too large: the norm limit "
                          "takes k below 2^1000")
    return k_max


def _norm_limit(ctx: _Context) -> ConditionReport:
    k_max = _norm_limit_k_max(ctx.cfg.k_max)
    rep, traces = norm_limit_sample(ctx.system, ctx.forms[:50], k_max=k_max)
    ctx.traces.extend(traces)
    return rep


def _to_k_max(run: Callable[[_Context], ConditionReport],
              stacks: str = "the powers of U"
              ) -> Callable[[_Context], ConditionReport]:
    """A runner of a check measured up to --k-max that names the flag when
    the ``stacks`` up to it cannot be allocated.  A nilpotent U's power
    checks stop at its index, so there this is a U that is not nilpotent."""
    def checked(ctx: _Context) -> ConditionReport:
        try:
            return run(ctx)
        except MemoryError as exc:
            raise ConfigError(f"--k-max {ctx.cfg.k_max} is too large: "
                              f"{stacks} up to it cannot be "
                              f"allocated") from exc
    return checked


# name -> (requirement, runner), in the execution order of --checks all.
# Every runner returns a report; a failed hypothesis is entries of it.  The
# requirement is None, a property of the system (see _SYSTEM_PROPERTIES) or
# the LoadedModel field the check needs.  Runners name the checkers at call
# time, so a rebound module attribute reaches them.
CHECKS: dict[str, tuple[str | None, Callable[[_Context], ConditionReport]]] = {
    "partial_isometry": (None, lambda c: c.system.partial_isometry),
    "intertwining": (
        None, lambda c: check_intertwining_equivalents(c.system)),
    "coefficient_algebra": (None, lambda c: c.system.coefficient_report),
    "adjoint_intertwining": (
        None, lambda c: check_adjoint_intertwining(c.system)),
    "extendability": (None, lambda c: check_extendability(c.system)),
    "commutative_extendability": (
        "commutative", lambda c: check_commutative_extendability(c.system)),
    "power_structure": (None, _to_k_max(
        lambda c: verify_power_identities(c.system, c.cfg.k_max))),
    "extension_towers": (
        "commutative", lambda c: check_extension_towers(c.system)),
    "coefficient_bound": ("coefficient", lambda c: sample_coefficient_bound(
        c.system, c.forms)),
    "gauge_invariance": ("coefficient", lambda c: gauge_invariance_sample(
        c.system, c.forms)),
    "norm_limit": ("coefficient", _to_k_max(_norm_limit,
                                            "the norm-limit stages")),
    "sum_norm_estimates": (None, lambda c: sum_norm_estimates_sample(
        c.cfg.samples, c.cfg.seed, c.cfg.tol)),
    "polar_structure": ("polar", _to_k_max(
        lambda c: polar_structure_suite(c.loaded.polar, c.cfg.k_max))),
    "qdeform_relations": (
        "qdeform", lambda c: qdeform_relations_suite(c.loaded.qdeform)),
}

# The system properties a check can require.  --checks all skips the check
# on a system without it, where it would only repeat that failure; asked for
# by name it reports that failed hypothesis
_SYSTEM_PROPERTIES: dict[str, Callable] = {
    "coefficient": lambda s: s.coefficient_report.passed,
    "commutative": lambda s: s.algebra.commutator_defect <= s.tol,
}


def _applies(requires: str | None, loaded: LoadedModel) -> bool:
    if requires in _SYSTEM_PROPERTIES:
        return _SYSTEM_PROPERTIES[requires](loaded.system)
    return requires is None or getattr(loaded, requires) is not None


def _run_check(ctx: _Context, name: str) -> ConditionReport:
    """Run one registered check by name.  A coefficient check on a system
    that fails the samplers' hypothesis reports that alone, drawing no
    form."""
    requires, run = CHECKS[name]
    if requires == "coefficient":
        hypothesis = sampler_hypothesis(ctx.system, name)
        if not hypothesis.passed:
            return hypothesis
    return run(ctx)


def _load_model_file(path: str, tol: float) -> LoadedModel:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON
        raise ConfigError(f"cannot load model spec {path!r}: {exc}") from exc
    try:
        return load_model(spec, tol)
    except IsoalgError as exc:
        raise ConfigError(f"model does not build: {type(exc).__name__}: "
                          f"{exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"model does not build: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        # flushed here, so that a closed stdout raises inside main
        print(text, flush=True)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out_path}: "
                          f"{exc.strerror or exc}") from exc


def _check_counts(args) -> None:
    """Reject --k-max and --samples below 1 (a sampler or the norm limit
    would pass vacuously), a --seed below 0 (numpy refuses it), and a --tol
    not finite and above 0 (at inf every check passes)."""
    for flag, least in (("k_max", 1), ("samples", 1), ("seed", 0)):
        value = getattr(args, flag, least)
        if value < least:
            raise ConfigError(f"--{flag.replace('_', '-')} must be at least "
                              f"{least}, got {value}")
    if not 0.0 < args.tol < float("inf"):  # NaN fails both
        raise ConfigError(f"--tol must be a finite number above 0, "
                          f"got {args.tol:g}")


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
        # every name is validated before any check runs
        for name in names:
            if name not in CHECKS:
                raise ConfigError(f"unknown check {name!r}; registered: "
                                  f"{', '.join(CHECKS)}")
            requires = CHECKS[name][0]
            if (requires not in _SYSTEM_PROPERTIES
                    and not _applies(requires, loaded)):
                raise ConfigError(f"{name} requires a {requires} model")
    ctx = _Context(loaded, args)
    reports = [_run_check(ctx, name) for name in names]
    ok = all(r.passed for r in reports)
    doc = {
        "config": {"model": args.model, "checks": names, "tol": args.tol,
                   "seed": args.seed, "k_max": args.k_max,
                   "samples": args.samples},
        "pass": ok,
        "results": [r.to_json() for r in reports],
    }
    if ctx.traces:
        doc["traces"] = [t.to_json(include_form=False) for t in ctx.traces]
    return doc, 0 if ok else 1


def _load_form(args) -> NormalForm:
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
    try:
        e = parse(text, loaded.system, loaded.generators)
        return reduce(e, loaded.system)
    except RecursionError as exc:
        raise ConfigError("expression nests deeper than the parser and the "
                          "normal-form rewrite can recurse") from exc


def _cmd_nf(args) -> tuple[dict, int]:
    return _load_form(args).to_json(), 0


def _cmd_norm_limit(args) -> tuple[dict, int]:
    try:
        trace = norm_limit(_load_form(args), _norm_limit_k_max(args.k_max))
    except HypothesisViolated as exc:
        return {"error": str(exc), "report": exc.report.to_json()}, 1
    return {"trace": trace.to_json()}, 0


def _cmd_closure(args) -> tuple[dict, int]:
    loaded = _load_model_file(args.model, args.tol)
    try:
        return _towers_report(loaded), 0
    except HypothesisViolated as exc:
        return {"error": str(exc), "report": exc.report.to_json()}, 1


def _cmd_polar(args) -> tuple[dict, int]:
    try:
        with open(args.matrix) as fh:
            mat = matrix_from_json(json.load(fh))
    except (OSError, ValueError, IsoalgError) as exc:
        raise ConfigError(f"cannot load matrix: {exc}") from exc
    u, abs_a = polar_decompose(mat)
    return {
        "U": matrix_to_json(u),
        "abs": matrix_to_json(abs_a),
        "partial_isometry": is_partial_isometry(u, args.tol).to_json(),
    }, 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each ``parse_args`` call fills a
    new namespace, so calls share no state."""
    ap = argparse.ArgumentParser(
        prog="isoalg",
        description="verification suites for algebras generated by a "
                    "*-algebra and a partial isometry")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, func, text: str, source: str = "--model",
                source_help: str = "model spec JSON file"
                ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument(source, required=True, help=source_help)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="tolerance (default 1e-9)")
        p.add_argument("--out", default=None,
                       help="output path (default stdout)")
        return p

    k_max = {"type": int, "default": 8, "dest": "k_max"}
    p = command("run", _cmd_run, "run checker suites against a model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-max", **k_max)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--checks", default="all",
                   help="comma-separated check names, or 'all'")

    for name, func, text in (
            ("nf", _cmd_nf,
             "parse an expression and print its canonical normal form"),
            ("norm-limit", _cmd_norm_limit,
             "norm-limit trace for an expression")):
        p = command(name, func, text)
        if name == "norm-limit":
            p.add_argument("--k-max", **k_max)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--expr", help="expression text")
        g.add_argument("--expr-file", help="file containing the expression")

    command("closure", _cmd_closure, "print extension-tower dimensions")
    command("polar", _cmd_polar, "polar-decompose a matrix file",
            "--matrix", "matrix JSON file")
    return ap


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--option VALUE`` as ``--option=VALUE`` when VALUE is a
    negative number, such as -1e-9 or -inf, that argparse would take for an
    option: so that it reaches the range check, which names it."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and arg.startswith("-") and _is_number(arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_negative_values(argv))
    try:
        _check_counts(args)
        doc, rc = args.func(args)
        _emit(dump_json(doc), args.out)
    except ConfigError as exc:
        print(f"isoalg: {exc}", file=sys.stderr)
        return 2
    except IsoalgError as exc:
        print(f"isoalg: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:  # the reader closed stdout
        # stdout goes to devnull, so that the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"isoalg: cannot write the report to stdout: {exc.strerror}",
              file=sys.stderr)
        return 2
    return rc


if __name__ == "__main__":
    sys.exit(main())
