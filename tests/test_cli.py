import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from isoalg import (
    load_model,
    matrix_from_json,
    matrix_to_json,
    norm_limit,
    parse,
    reduce,
)
from isoalg.cli import CHECKS, dump_json, main
from isoalg.report import ConditionReport

from conftest import (
    CACHED_DEFECTS,
    amplified_q12_spec,
    corner_shift9_spec,
    count_cached_defects,
    cyclic3_shift4_spec,
    cyclic5_spec,
    exact_chain_note,
    polar_spec,
    q6x2_spec,
    qdeform_spec,
    raw_system_spec,
    rotated,
    shift3_projection_spec,
    system_spec,
    weighted_shift,
)

README = Path(__file__).resolve().parent.parent / "README.md"

E12 = np.array([[0, 1], [0, 0]], complex)
NAN, INF = float("nan"), float("inf")
# a JSON integer beyond the float range
BIG = 10 ** 400


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    paths = {}

    def write(name, obj):
        p = root / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    write("polar.json", {"type": "polar", "a": matrix_to_json(2 * E12)})
    write("qdeform.json", {"type": "qdeform", "n": 6, "q": 0.5,
                           "rho": "heisenberg"})
    write("broken.json", {"type": "system",
                          "generators": [matrix_to_json(E12)],
                          "U": matrix_to_json(E12)})
    # the path Laplacian on C^4: integer entries, irrational eigenvectors
    lap = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
    write("laplacian.json", {"type": "system",
                             "generators": [matrix_to_json(lap)],
                             "U": matrix_to_json(np.eye(4))})
    write("badrho.json", {"type": "qdeform", "n": 6, "q": 0.5,
                          "rho": {"samples": [1.0] * 7}})
    write("matrix.json", matrix_to_json(2 * E12))
    paths["root"] = str(root)
    return paths


def run(args, specs, name):
    out = specs["root"] + f"/{name}.out"
    rc = main(args + ["--out", out])
    try:
        with open(out) as fh:
            return rc, json.load(fh)
    except FileNotFoundError:
        return rc, None


def test_run_all_passes(specs):
    rc, doc = run(["run", "--model", specs["qdeform.json"], "--checks", "all",
                   "--seed", "7", "--samples", "25"], specs, "q_all")
    assert rc == 0
    assert doc["pass"] is True
    names = [r["name"] for r in doc["results"]]
    assert "qdeform_relations" in names
    assert "polar_structure" not in names
    assert "traces" in doc


def test_run_polar_all(specs):
    rc, doc = run(["run", "--model", specs["polar.json"], "--checks", "all",
                   "--samples", "20"], specs, "p_all")
    assert rc == 0
    names = [r["name"] for r in doc["results"]]
    assert "polar_structure" in names
    assert "qdeform_relations" not in names


def test_run_selected_checks(specs):
    rc, doc = run(["run", "--model", specs["qdeform.json"],
                   "--checks", "partial_isometry,qdeform_relations"],
                  specs, "q_sel")
    assert rc == 0
    assert [r["name"] for r in doc["results"]] == \
        ["partial_isometry", "qdeform_relations"]


def test_run_broken_model_fails(specs):
    rc, doc = run(["run", "--model", specs["broken.json"], "--checks", "all",
                   "--samples", "10"], specs, "broken")
    assert rc == 1
    assert doc["pass"] is False
    by_name = {r["name"]: r["pass"] for r in doc["results"]}
    # the partial isometry itself is fine; the coefficient conditions fail
    assert by_name["partial_isometry"] is True
    assert by_name["intertwining_equivalents"] is False
    assert by_name["extendability"] is False


def test_run_unknown_check_exits_2(specs, capsys):
    rc = main(["run", "--model", specs["qdeform.json"], "--checks", "bogus"])
    assert rc == 2
    assert "registered" in capsys.readouterr().err


def test_readme_lists_the_registry():
    listing = re.search(r"Registered checks, in the order `--checks all` "
                        r"runs them:(.*?)\(q-models\)", README.read_text(),
                        re.DOTALL)
    assert re.findall(r"`(\w+)`", listing.group(1)) == list(CHECKS)


def test_run_all_on_raw_broken_system_skips_coefficient_checks(specs):
    # the broken system's algebra is neither a coefficient algebra nor
    # commutative, so the checks that require either are skipped
    rc, doc = run(["run", "--model", specs["broken.json"], "--checks", "all",
                   "--samples", "10"], specs, "broken_order")
    assert rc == 1
    assert doc["config"]["checks"] == [
        "partial_isometry", "intertwining", "coefficient_algebra",
        "adjoint_intertwining", "extendability", "power_structure",
        "sum_norm_estimates"]
    assert len(doc["results"]) == 7


def test_run_all_skips_commutative_checks_on_a_noncommutative_algebra(
        tmp_path):
    path = tmp_path / "raw_system.json"
    path.write_text(json.dumps(raw_system_spec()))
    out = tmp_path / "out.json"
    assert main(["run", "--model", str(path), "--checks", "all",
                 "--out", str(out)]) == 0
    names = json.loads(out.read_text())["config"]["checks"]
    assert names == [n for n in CHECKS if n not in (
        "commutative_extendability", "extension_towers", "polar_structure",
        "qdeform_relations")]
    # asked for by name, they run and report the failed hypothesis
    assert main(["run", "--model", str(path), "--checks",
                 "commutative_extendability,extension_towers",
                 "--out", str(out)]) == 1
    reps = json.loads(out.read_text())["results"]
    assert [[d["check"] for d in r["defects"]] for r in reps] == [
        ["algebra commutative"], ["hypothesis: algebra commutative"]]
    assert all(d["tol"] == 1e-9 for r in reps for d in r["defects"])


def test_run_explicit_coefficient_check_on_raw_system_reports_the_hypothesis(
        specs, capsys):
    # asked for by name on a system that is not a coefficient system, each
    # coefficient check reports that failed hypothesis alone: no forms are
    # drawn and no traces are emitted
    from isoalg.norms import sampler_hypothesis
    system = load_model(json.loads(Path(specs["broken.json"]).read_text())
                        ).system
    worst = max(d.value for d in system.coefficient_report.defects)
    for check in ("coefficient_bound", "gauge_invariance", "norm_limit"):
        rc, doc = run(["run", "--model", specs["broken.json"], "--checks",
                       check], specs, "explicit_" + check)
        assert rc == 1 and capsys.readouterr().err == ""
        assert "traces" not in doc
        (rep,) = doc["results"]
        assert rep == sampler_hypothesis(system, check).to_json()
        assert rep["defects"] == [{"check": "hypothesis: coefficient algebra",
                                   "value": worst, "tol": 1e-9, "ok": False}]
        assert rep["name"] == check and rep["notes"] == []


def test_unknown_check_message_lists_every_check(specs, capsys):
    rc = main(["run", "--model", specs["qdeform.json"], "--checks", "bogus"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown check 'bogus'" in err
    for name in CHECKS:
        assert name in err


@pytest.mark.parametrize("checks, message", [
    ("power_structure,bogus", "unknown check 'bogus'"),
    ("power_structure,polar_structure", "polar_structure requires a polar "
                                        "model")])
def test_checks_are_validated_before_any_runs(specs, monkeypatch, capsys,
                                              checks, message):
    import isoalg.cli as cli
    calls = []
    monkeypatch.setattr(cli, "verify_power_identities",
                        lambda *args: calls.append(args))
    rc = main(["run", "--model", specs["qdeform.json"], "--checks", checks])
    assert rc == 2 and calls == []
    assert message in capsys.readouterr().err


def test_run_unbuildable_model_exits_2(specs, capsys):
    rc = main(["run", "--model", specs["badrho.json"], "--checks", "all"])
    assert rc == 2
    assert "does not build: RhoConditionViolated: " in capsys.readouterr().err


def test_polar_kernel_rule_failure_exits_2_naming_the_value(tmp_path, capsys):
    spec = tmp_path / "kernel.json"
    a = np.diag([1.0, 0.5, 1e-9], 1)
    spec.write_text(json.dumps({"type": "polar", "a": matrix_to_json(a)}))
    assert main(["run", "--model", str(spec), "--checks", "all"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("isoalg: model does not build: "
                          "PolarConditionViolated: ")
    assert "singular value 1.000e-09 as kernel" in err
    assert "sqrt(n eps) ||a|| = 2.980e-08" in err


@pytest.mark.parametrize("command", ["run", "closure"])
def test_invalid_basis_exits_2_naming_the_invariant(specs, capsys, command):
    # at tol 5e-16 the spectral closure of the path Laplacian is closed
    # under products only to the rounding of its eigenvectors (the frame's
    # bound reads 1.4e-15), which the constructor rejects
    assert main([command, "--model", specs["laplacian.json"],
                 "--tol", "5e-16"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("isoalg: model does not build: InvalidBasis: "
                          "invalid *-algebra basis:\n"
                          "star_algebra_invariants: FAIL")
    assert "[BAD] closed under product" in err


def test_run_missing_file_exits_2(specs):
    rc = main(["run", "--model", specs["root"] + "/nope.json",
               "--checks", "all"])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["run", "--model", "qdeform.json", "--checks", "partial_isometry"],
    ["closure", "--model", "qdeform.json"],
    ["nf", "--model", "polar.json", "--expr", "U*U'"],
    ["norm-limit", "--model", "qdeform.json", "--expr", "U", "--k-max", "2"],
    ["polar", "--matrix", "matrix.json"]],
    ids=lambda args: args[0])
def test_unwritable_out_exits_2_naming_the_path(specs, capsys, args):
    # the command runs, then its output cannot be written: a configuration
    # error, not a failed check (exit 1) or a traceback
    out = specs["root"] + "/no-such-dir/out.json"
    argv = [specs[a] if a in specs else a for a in args]
    assert main(argv + ["--out", out]) == 2
    assert capsys.readouterr() == (
        "", f"isoalg: cannot write --out {out}: No such file or directory\n")


def test_closed_stdout_exits_2_without_a_traceback(specs):
    # the reader of stdout is gone before the report is written: a
    # configuration error, not a failed check (exit 1) or a traceback
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "isoalg.cli", "closure", "--model",
             specs["qdeform.json"]],
            stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ("isoalg: cannot write the report to stdout: "
                           "Broken pipe\n")


def test_parser_is_built_once_and_parses_each_argv_afresh(specs, capsys):
    from isoalg.cli import _build_parser
    parser = _build_parser()
    assert _build_parser() is parser
    run = parser.parse_args(["run", "--model", "a.json", "--seed", "3",
                             "--checks", "norm_limit"])
    nf = parser.parse_args(["nf", "--model", "b.json", "--expr", "U"])
    # the second parse neither reuses nor alters the first namespace
    assert run is not nf
    assert vars(run) == {"command": "run", "func": vars(run)["func"],
                         "model": "a.json", "tol": 1e-9, "seed": 3,
                         "k_max": 8, "samples": 200, "out": None,
                         "checks": "norm_limit"}
    assert (nf.command, nf.model, nf.expr, nf.expr_file) == (
        "nf", "b.json", "U", None)
    assert not hasattr(nf, "checks")
    # an argparse error still exits 2, and a later call is unaffected
    with pytest.raises(SystemExit) as info:
        main(["run", "--model"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(["run", "--model", specs["qdeform.json"],
                 "--checks", "bogus"]) == 2
    assert main(["closure", "--model", specs["qdeform.json"],
                 "--out", os.devnull]) == 0
    assert _build_parser() is parser


def test_each_subcommand_takes_only_the_options_it_reads():
    import argparse
    from isoalg.cli import _build_parser
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {name: {s for a in p._actions for s in a.option_strings}
               - {"-h", "--help"} for name, p in sub.choices.items()}
    io = {"--model", "--tol", "--out"}
    expr = {"--expr", "--expr-file"}
    assert options == {
        "run": io | {"--seed", "--k-max", "--samples", "--checks"},
        "nf": io | expr,
        "norm-limit": io | expr | {"--k-max"},
        "closure": io,
        "polar": {"--matrix", "--tol", "--out"}}


@pytest.mark.parametrize("args", [["closure", "--samples", "3"],
                                  ["nf", "--expr", "U", "--seed", "1"],
                                  ["norm-limit", "--expr", "U", "--samples",
                                   "3"]], ids=lambda args: args[0])
def test_a_flag_the_command_does_not_read_exits_2(specs, capsys, args):
    with pytest.raises(SystemExit) as info:
        main([args[0], "--model", specs["qdeform.json"], *args[1:]])
    assert info.value.code == 2
    assert (f"unrecognized arguments: {' '.join(args[-2:])}"
            in capsys.readouterr().err)


def test_isoalg_tol_is_not_read(tmp_path, monkeypatch, capsys):
    # q12 does not build at tol 0.05; with ISOALG_TOL=0.05 set, closure
    # still builds at the default tolerance
    path, out = tmp_path / "spec.json", tmp_path / "out.json"
    path.write_text(json.dumps(qdeform_spec(12, 0.5)))
    closure = ["closure", "--model", str(path), "--out", str(out)]
    assert main(closure) == 0
    want = out.read_text()
    assert main(closure + ["--tol", "0.05"]) == 2
    assert "ToleranceCollapse" in capsys.readouterr().err
    monkeypatch.setenv("ISOALG_TOL", "0.05")
    assert main(closure) == 0
    assert out.read_text() == want


def test_run_inapplicable_check_exits_2(specs):
    rc = main(["run", "--model", specs["polar.json"],
               "--checks", "qdeform_relations"])
    assert rc == 2


@pytest.mark.parametrize("flag, value", [("--k-max", "0"), ("--k-max", "-3"),
                                         ("--samples", "0"),
                                         ("--samples", "-1")])
def test_counts_below_one_exit_2(specs, capsys, flag, value):
    checks = "norm_limit" if flag == "--k-max" else "coefficient_bound"
    rc = main(["run", "--model", specs["qdeform.json"], "--checks", checks,
               flag, value])
    assert rc == 2
    assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("k_max", [10 ** 11, 10 ** 400])
def test_huge_k_max_stops_at_the_index_or_is_named(tmp_path, capsys, k_max):
    # a nilpotent U's power entries stop at its index, so a huge --k-max
    # measures what the index does; the powers of the cyclic shift up to
    # it cannot be allocated, which exits 2 and names the flag
    def run(spec, checks, k):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out.json"
        rc = main(["run", "--model", str(path), "--checks", checks,
                   "--k-max", str(k), "--out", str(out)])
        return rc, (json.loads(out.read_text()) if out.exists() else None)

    for spec, checks, index in (
            (qdeform_spec(12, 0.5), "power_structure", 12),
            (polar_spec(weighted_shift(6, 0.5)),
             "power_structure,polar_structure", 6)):
        (rc, huge), (rc_index, at_index) = (run(spec, checks, k_max),
                                            run(spec, checks, index))
        assert rc == rc_index == 0
        assert ([[d["value"] for d in r["defects"]] for r in huge["results"]]
                == [[d["value"] for d in r["defects"]]
                    for r in at_index["results"]])
    (tmp_path / "out.json").unlink()
    assert run(cyclic5_spec(), "power_structure", k_max) == (2, None)
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"isoalg: --k-max {k_max} is too large: the "
                              "powers of U up to it cannot be allocated\n")


@pytest.mark.parametrize("k_max", [2 ** 58, 2 ** 62, 10 ** 40])
@pytest.mark.parametrize("build", [lambda: qdeform_spec(12, 0.5),
                                   lambda: polar_spec(weighted_shift(6, 0.5))],
                         ids=["q12", "p6"])
def test_huge_k_max_norm_limit_stays_finite(tmp_path, capsys, build, k_max):
    # the computed ||P|| is 1 only up to rounding, so 58 squarings and more
    # overflow or underflow unless the stages are rescaled; a RuntimeWarning
    # fails the test
    path, out = tmp_path / "spec.json", tmp_path / "out.json"
    path.write_text(json.dumps(build()))
    assert main(["run", "--model", str(path), "--checks", "norm_limit",
                 "--k-max", str(k_max), "--samples", "50",
                 "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    doc = json.loads(out.read_text())
    assert all(np.isfinite(t["s_values"]).all() for t in doc["traces"])


def test_norm_limit_refuses_k_max_beyond_the_float_range(tmp_path, capsys):
    # the stages k = 2^j enter the formula as floats, so k_max stops below
    # 2^1000 on both paths, before any form is drawn
    path, out = tmp_path / "spec.json", tmp_path / "out.json"
    path.write_text(json.dumps(qdeform_spec(12, 0.5)))
    common = ["--model", str(path), "--out", str(out)]
    assert main(["norm-limit", *common, "--expr", "U",
                 "--k-max", str(2 ** 1000 - 1)]) == 0
    assert capsys.readouterr() == ("", "")
    trace = json.loads(out.read_text())["trace"]
    assert len(trace["s_values"]) == 1000
    assert np.isfinite(trace["s_values"]).all()
    out.unlink()
    for k_max in (2 ** 1000, 10 ** 400):
        for argv in (["norm-limit", "--expr", "U"],
                     ["run", "--checks", "norm_limit"]):
            assert main([*argv, *common, "--k-max", str(k_max)]) == 2
            assert not out.exists()
            assert capsys.readouterr() == (
                "", f"isoalg: --k-max {k_max} is too large: the norm limit "
                    "takes k below 2^1000\n")


def test_norm_limit_stages_that_cannot_be_allocated_name_k_max(
        specs, monkeypatch, capsys):
    def no_room(*args):
        raise MemoryError
    # the q-model's stages are its chain matrices' (the dense stack's on a
    # system without an exact chain model)
    monkeypatch.setattr("isoalg.norms._compressed_n0", no_room)
    monkeypatch.setattr("isoalg.norms._chain_n0", no_room)
    assert main(["run", "--model", specs["qdeform.json"], "--checks",
                 "norm_limit", "--k-max", "99"]) == 2
    assert capsys.readouterr() == ("", "isoalg: --k-max 99 is too large: the "
                                   "norm-limit stages up to it cannot be "
                                   "allocated\n")


def _refuse(*args):
    raise AssertionError("a check drew or sampled what it does not report")


@pytest.mark.parametrize("build", [lambda: qdeform_spec(12, 0.5),
                                   lambda: polar_spec(weighted_shift(6, 0.5)),
                                   amplified_q12_spec],
                         ids=["q12", "p6", "amplified_q12"])
def test_no_check_reads_another_checks_report(tmp_path, monkeypatch, build):
    # gauge_invariance and norm_limit report alone what they report inside
    # --checks all, without the coefficient-bound sampler; norm-limit
    # draws no form at all
    path, out = tmp_path / "spec.json", tmp_path / "out.json"
    path.write_text(json.dumps(build()))
    common = ["--model", str(path), "--samples", "60"]

    def run_doc(args):
        rc = main(args + ["--out", str(out)])
        return rc, json.loads(out.read_text())

    _, every = run_doc(["run", *common, "--checks", "all"])
    names = ["gauge_invariance", "norm_limit"]
    want = [r for r in every["results"] if r["name"] in names]
    assert [r["name"] for r in want] == names
    monkeypatch.setattr("isoalg.cli.sample_coefficient_bound", _refuse)
    rc, alone = run_doc(["run", *common, "--checks", ",".join(names)])
    assert rc == (0 if all(r["pass"] for r in want) else 1)
    assert (alone["results"], alone["traces"]) == (want, every["traces"])

    monkeypatch.setattr("isoalg.cli.random_normal_forms", _refuse)
    loaded = load_model(build())
    x = reduce(parse("U + U'*U", loaded.system, loaded.generators),
               loaded.system)
    assert run_doc(["norm-limit", "--model", str(path),
                    "--expr", "U + U'*U"]) == (
        0, {"trace": norm_limit(x, 8).to_json()})


def test_samplers_carry_no_coefficient_bound_verdict(tmp_path):
    # at --tol 1e-16 q12 is certified and U nilpotent, so the coefficient
    # bound holds; its sampler fails on a rounding margin, and that verdict
    # is its own report's alone
    path, out = tmp_path / "spec.json", tmp_path / "out.json"
    path.write_text(json.dumps(qdeform_spec(12, 0.5)))
    names = ["coefficient_bound", "gauge_invariance", "norm_limit"]
    assert main(["run", "--model", str(path), "--tol", "1e-16", "--checks",
                 ",".join(names), "--samples", "20", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    star, gauge, limit = doc["results"]
    assert [(r["name"], r["pass"]) for r in doc["results"]] == [
        ("coefficient_bound", False), ("gauge_invariance", True),
        ("norm_limit", True)]
    note = exact_chain_note(12)
    assert star["notes"] == ["max degree = 4", note]
    assert gauge["notes"] == ["certified by a gauge generator", note]
    assert limit["notes"] == [note]
    assert all(sorted(t) == ["direct_norm", "k_values", "max_degree",
                             "s_values", "sandwich_hi", "sandwich_lo"]
               for t in doc["traces"])


@pytest.mark.parametrize("command, args, env, message", [
    ("run", ["--checks", "coefficient_bound", "--seed", "-1"], None,
     "--seed must be at least 0, got -1"),
    ("run", ["--checks", "sum_norm_estimates", "--seed", "-1"], None,
     "--seed must be at least 0, got -1"),
    ("run", ["--checks", "all", "--tol", "inf"], None,
     "--tol must be a finite number above 0, got inf"),
    ("run", ["--checks", "all", "--tol", "0"], None,
     "--tol must be a finite number above 0, got 0"),
    ("run", ["--checks", "all", "--tol=-1e-9"], None,
     "--tol must be a finite number above 0, got -1e-09"),
    ("run", ["--checks", "all", "--tol", "nan"], None,
     "--tol must be a finite number above 0, got nan"),
    # a set ISOALG_TOL is not read: the message names --tol
    ("run", ["--checks", "all", "--tol", "0"], "1e-7",
     "--tol must be a finite number above 0, got 0"),
    ("closure", ["--tol", "inf"], "1e-7",
     "--tol must be a finite number above 0, got inf"),
    ("closure", ["--tol", "0"], None,
     "--tol must be a finite number above 0, got 0"),
    # argparse takes a negative number in exponent form for an option; the
    # CLI attaches it to --tol, so both spellings get the range message
    ("run", ["--checks", "all", "--tol", "-1e-9"], None,
     "--tol must be a finite number above 0, got -1e-09"),
    ("closure", ["--tol", "-inf"], None,
     "--tol must be a finite number above 0, got -inf"),
])
def test_bad_seed_or_tol_exits_2(specs, monkeypatch, capsys, command, args,
                                 env, message):
    # a negative seed is refused by numpy's generators, a tol of inf passes
    # every check, and a tol of 0 or below (or NaN) builds no basis
    if env is not None:
        monkeypatch.setenv("ISOALG_TOL", env)
    model = specs["broken.json" if command == "closure" else "qdeform.json"]
    assert main([command, "--model", model, *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"isoalg: {message}\n"


@pytest.mark.parametrize("k_max, k_last", [(12, 8), (8, 8), (1, 1)])
def test_norm_limit_label_names_the_measured_k(specs, k_max, k_last):
    # convergence is measured at the last k of the doubling schedule, the
    # largest power of two <= k_max, and the entry is labelled with it
    rc, doc = run(["run", "--model", specs["qdeform.json"], "--checks",
                   "norm_limit", "--k-max", str(k_max), "--samples", "5"],
                  specs, "label")
    assert rc in (0, 1)
    assert doc["results"][0]["defects"][-1]["check"] == (
        f"convergence at k = {k_last}")
    assert {tuple(t["k_values"]) for t in doc["traces"]} == {
        tuple(2 ** j for j in range(k_last.bit_length()))}


def test_run_deterministic(specs):
    args = ["run", "--model", specs["qdeform.json"], "--checks",
            "coefficient_bound,gauge_invariance,norm_limit",
            "--seed", "3", "--samples", "15"]
    out1 = specs["root"] + "/det1.out"
    out2 = specs["root"] + "/det2.out"
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


def test_samplers_share_one_draw_but_not_one_generator(specs):
    # each sampler reports what it reports when run alone: the three take
    # one list of drawn forms, not draws from one running generator
    names = ["coefficient_bound", "gauge_invariance", "norm_limit"]
    common = ["run", "--model", specs["qdeform.json"], "--seed", "4",
              "--samples", "12"]
    _, together = run(common + ["--checks", ",".join(names)], specs, "trio")
    for name, entry in zip(names, together["results"]):
        _, alone = run(common + ["--checks", name], specs, f"alone_{name}")
        assert dump_json(entry) == dump_json(alone["results"][0])
        if name == "norm_limit":
            assert dump_json(together["traces"]) == dump_json(alone["traces"])


@pytest.mark.parametrize("checks", ["", " , ", ","])
def test_run_no_checks_exits_2(specs, capsys, checks):
    # naming no check would pass vacuously
    rc = main(["run", "--model", specs["qdeform.json"], "--checks", checks])
    assert rc == 2
    assert "names no check" in capsys.readouterr().err


def test_run_repeated_check_exits_2(specs, capsys):
    rc = main(["run", "--model", specs["qdeform.json"], "--checks",
               "norm_limit,partial_isometry, norm_limit"])
    assert rc == 2
    assert "--checks names norm_limit more than once" in \
        capsys.readouterr().err


def test_nf_subcommand(specs):
    rc, doc = run(["nf", "--model", specs["polar.json"], "--expr", "U*U'*U"],
                  specs, "nf")
    assert rc == 0
    assert [d["k"] for d in doc["degrees"]] == [1]
    coeff = matrix_from_json(doc["degrees"][0]["coeff"])
    assert np.allclose(coeff, np.diag([1.0, 0.0]))  # UU*


def test_nf_expr_file(specs, tmp_path):
    p = tmp_path / "expr.txt"
    p.write_text("U*absa + (U*absa)'\n")  # the operator a plus its adjoint
    rc, doc = run(["nf", "--model", specs["polar.json"],
                   "--expr-file", str(p)], specs, "nf_file")
    assert rc == 0
    assert [d["k"] for d in doc["degrees"]] == [-1, 1]


def test_nf_annihilated_product_is_zero(specs):
    # absa kills the range of U, so absa*U is the zero operator
    rc, doc = run(["nf", "--model", specs["polar.json"],
                   "--expr", "absa*U"], specs, "nf_zero")
    assert rc == 0
    assert doc["degrees"] == []


def test_nf_parse_error_exits_2(specs, capsys):
    rc = main(["nf", "--model", specs["polar.json"], "--expr", "U^(-1)"])
    assert rc == 2


def test_norm_limit_subcommand(specs):
    rc, doc = run(["norm-limit", "--model", specs["qdeform.json"],
                   "--expr", "Q*U^2 + U'*rhoQ"], specs, "nlim")
    assert rc == 0
    tr = doc["trace"]
    assert tr["k_values"] == [1, 2, 4, 8]
    assert tr["s_values"][-1] <= tr["direct_norm"] * (1 + 1e-9)
    assert "x" in tr


@pytest.mark.parametrize("builder", [cyclic5_spec, cyclic3_shift4_spec])
def test_samplers_refuse_a_system_the_generator_does_not_certify(
        tmp_path, builder):
    # U is not nilpotent, so the coefficient bound fails: each sampler
    # reports the generator's residual as a failed hypothesis, draws
    # nothing and emits no trace; norm-limit exits 1 with that report
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(builder()))
    out = tmp_path / "out.json"
    names = ["coefficient_bound", "gauge_invariance", "norm_limit"]
    assert main(["run", "--model", str(path), "--checks", ",".join(names),
                 "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert "traces" not in doc
    results = doc["results"]
    for name, rep in zip(names, results, strict=True):
        assert (rep["name"], rep["pass"], rep["notes"]) == (name, False, [])
        assert [(d["check"], d["ok"]) for d in rep["defects"]] == [
            ("hypothesis: coefficient algebra", True),
            ("hypothesis: gauge generator ||[H, U] - U||", False)]
        assert rep["defects"][1]["value"] == pytest.approx(1.0, abs=1e-12)
    assert main(["norm-limit", "--model", str(path), "--expr", "U",
                 "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["error", "report"]
    assert doc["error"] == ("the norm-limit formula needs a system its "
                            "gauge generator certifies")
    assert doc["report"] == results[2]


def test_closure_subcommand(specs):
    rc, doc = run(["closure", "--model", specs["qdeform.json"]],
                  specs, "closure")
    assert rc == 0
    assert doc == {"ambient_dim": 6, "seed_dim": 6,
                   "delta_tower_dim": 6, "full_tower_dim": 6}


def test_closure_reports_the_loaded_model_towers(specs):
    for name in ("polar.json", "qdeform.json"):
        rc, doc = run(["closure", "--model", specs[name]], specs,
                      f"closure_{name}")
        assert rc == 0
        with open(specs[name]) as fh:
            loaded = load_model(json.load(fh))
        assert doc["full_tower_dim"] == loaded.system.algebra.dim


def test_closure_names_the_rejected_gap(tmp_path, capsys):
    # the seed closure Q/||Q||_F of the q = 0.3, n = 18 model has its two
    # smallest gaps, q^16 - q^17 and q^15 - q^16 over ||Q||_F, in the band
    # (1e-9, 1e-8]; a gap in the band is final, and the error names the
    # first of them as the cause
    spec = tmp_path / "q18.json"
    spec.write_text(json.dumps({"type": "qdeform", "n": 18, "q": 0.3,
                                "rho": "heisenberg"}))
    assert main(["closure", "--model", str(spec)]) == 2
    err = capsys.readouterr().err
    gap = 0.3 ** 16 * 0.7 / np.linalg.norm(0.3 ** np.arange(18))
    assert (f"rejected eigenvalue gap {gap:.3e} (index 0, " in err
            and "in its ambiguous band (1.0e-09, 1.0e-08]; "
                "gaps in the band: 2" in err), err


def test_closure_broken_exits_1(specs):
    rc, doc = run(["closure", "--model", specs["broken.json"]],
                  specs, "closure_broken")
    assert rc == 1
    assert "error" in doc


def test_polar_subcommand(specs):
    rc, doc = run(["polar", "--matrix", specs["matrix.json"]], specs, "polar")
    assert rc == 0
    assert np.allclose(matrix_from_json(doc["U"]), E12)
    assert np.allclose(matrix_from_json(doc["abs"]), np.diag([0.0, 2.0]))
    assert doc["partial_isometry"]["pass"] is True


def _run_quietly(argv, capsys):
    """main's exit code and JSON output, a RuntimeWarning failing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    return rc, json.loads(out)


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e150, 1e200, 1e300])
def test_polar_resolves_a_far_scale(tmp_path, capsys, c):
    # the polar decomposition is invariant under positive scaling, so
    # c e12 has U = e12 at every c; its model builds with towers 2/2/2
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix_to_json(c * E12)))
    rc, doc = _run_quietly(["polar", "--matrix", str(path)], capsys)
    assert rc == 0
    assert np.abs(matrix_from_json(doc["U"]) - E12).max() <= 1e-15
    assert doc["partial_isometry"]["pass"] is True
    assert np.abs(matrix_from_json(doc["abs"])
                  - np.diag([0.0, c])).max() <= 1e-15 * c
    path.write_text(json.dumps(polar_spec(c * E12)))
    rc, doc = _run_quietly(["closure", "--model", str(path)], capsys)
    assert (rc, doc) == (0, {"ambient_dim": 2, "seed_dim": 2,
                             "delta_tower_dim": 2, "full_tower_dim": 2})


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-170, 1e155, 1e200, 1e300])
def test_closure_splits_a_far_scale_generator(tmp_path, capsys, c):
    # the spectral split of c diag(1, 2, 3) is that of diag(1, 2, 3)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(system_spec(
        np.diag(np.ones(2), 1), [c * np.diag([1.0, 2.0, 3.0])])))
    rc, doc = _run_quietly(["closure", "--model", str(path)], capsys)
    assert rc == 0 and doc["seed_dim"] == 3


def test_polar_subcommand_rejects_a_non_finite_entry(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dim": 2, "entries": [[[0, 0], [1, -INF]],
                                                      [[0, 0], [0, 0]]]}))
    assert main(["polar", "--matrix", str(path)]) == 2
    assert capsys.readouterr() == ("", "isoalg: cannot load matrix: entry "
                                   "[0][1] is not a finite number, got "
                                   "[1, -inf]\n")


def test_polar_subcommand_rejects_a_huge_integer_entry(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dim": 1, "entries": [[[0, BIG]]]}))
    assert main(["polar", "--matrix", str(path)]) == 2
    assert capsys.readouterr() == ("", "isoalg: cannot load matrix: entry "
                                   "[0][0] is not a finite number, got "
                                   f"[0, {BIG}]\n")


def test_a_spec_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json refuses to convert an integer of more than 4300 digits
    path = tmp_path / "spec.json"
    path.write_text('{"type": "qdeform", "n": 2, "rho": "heisenberg", '
                    '"q": 1' + "0" * 5000 + "}")
    assert main(["run", "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        f"isoalg: cannot load model spec {str(path)!r}: Exceeds the limit")


@pytest.mark.parametrize("expr, fault", [
    ("1e400*U", "ParseError: number '1e400' is not finite (at position 0)"),
    ("U*1e400 + U", "ParseError: number '1e400' is not finite (at position "
                    "2)"),
    ("1e200*1e200*U", "Overflow: coefficient at degree 0 overflows: its norm "
                      "is inf"),
    ("(" * 3000 + "U" + ")" * 3000, "expression nests deeper than the parser "
     "and the normal-form rewrite can recurse"),
    ("U" + "'" * 5000, "expression nests deeper than the parser and the "
     "normal-form rewrite can recurse"),
], ids=["huge-literal", "huge-literal-in-a-sum", "overflowing-product",
        "deep-parentheses", "deep-adjoints"])
def test_nf_expression_faults_exit_2(specs, capsys, expr, fault):
    assert main(["nf", "--model", specs["qdeform.json"], "--expr", expr]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"isoalg: {fault}"), err


def test_console_entry_point(specs):
    proc = subprocess.run(
        [sys.executable, "-m", "isoalg.cli", "run", "--model",
         specs["qdeform.json"], "--checks", "partial_isometry"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True


def test_dump_json_17_digits():
    text = dump_json({"x": 0.1, "n": 3, "ok": True, "none": None,
                      "inf": float("inf"), "list": [1.5]})
    assert '"x": 0.10000000000000001' in text
    assert '"inf": 1e999' in text
    parsed = json.loads(text)
    assert parsed["x"] == 0.1
    assert parsed["inf"] == float("inf")


def test_run_all_repeats_no_shared_pass(specs, monkeypatch):
    # a model's system is the seed system its build walked (the towers
    # close at the seed), so one run, build included, makes two walks: the
    # build's delta and delta_star walks, which commutative_extendability
    # and extension_towers read as well.
    # Every defect the system caches is measured once, and U is validated
    # once, by the system's constructor.  Every binding of the counted
    # functions is patched, the CLI's too.
    import isoalg
    import isoalg.algebra as algebra
    import isoalg.cli
    import isoalg.linalg
    import isoalg.models
    calls = count_cached_defects(monkeypatch)
    calls.update(walks=0, is_partial_isometry=0)

    def counted(key, real):
        def call(*args):
            calls[key] += 1
            return real(*args)
        return call

    monkeypatch.setattr(algebra, "_checked_walk",
                        counted("walks", algebra._checked_walk))
    pi = counted("is_partial_isometry", isoalg.linalg.is_partial_isometry)
    for module in (isoalg, isoalg.linalg, algebra, isoalg.models, isoalg.cli):
        if hasattr(module, "is_partial_isometry"):
            monkeypatch.setattr(module, "is_partial_isometry", pi)
    q12 = Path(specs["root"]) / "q12.json"
    q12.write_text(json.dumps({"type": "qdeform", "n": 12, "q": 0.5,
                               "rho": "heisenberg"}))
    # q12 fails only norm_limit at seed 0 (its known convergence margin)
    for path, exit_code in ((specs["qdeform.json"], 0), (str(q12), 1)):
        for key in calls:
            calls[key] = 0
        rc, doc = run(["run", "--model", path, "--checks", "all"], specs,
                      "counted")
        assert "coefficient_algebra" in doc["config"]["checks"]
        assert rc == exit_code
        assert calls == {**dict.fromkeys(CACHED_DEFECTS, 1), "walks": 2,
                         "is_partial_isometry": 1}


@pytest.mark.parametrize("spec, fault", [
    ([], "a model spec is a JSON object, got list"),
    ({"type": "qdeform", "n": 6, "q": 0.5},
     "qdeform model spec has no 'rho' field"),
    ({"type": "qdeform", "n": 6, "q": 0.5, "rho": {}},
     "qdeform model spec has no 'samples' field in its 'rho' object"),
    ({"type": "system", "generators": 5, "U": matrix_to_json(E12)},
     "system model spec field 'generators' must be a list, got int"),
    ({"type": "system", "generators": [5], "U": matrix_to_json(E12)},
     "system model spec field 'generators[0]' must be a matrix object, "
     "got int"),
    ({"type": "polar", "a": [[0, 1], [0, 0]]},
     "polar model spec field 'a' must be a matrix object, got list"),
    ({"type": "qdeform", "n": "x", "q": 0.5, "rho": "heisenberg"},
     "qdeform model spec field 'n' must be an integer, got str"),
    ({"type": "qdeform", "n": 6.5, "q": 0.5, "rho": "heisenberg"},
     "qdeform model spec field 'n' must be an integer, got 6.5"),
    ({"type": "qdeform", "n": 6, "q": True, "rho": "heisenberg"},
     "qdeform model spec field 'q' must be a number, got bool"),
    ({"type": "qdeform", "n": 6, "q": 0.5, "rho": {"samples": "abc"}},
     "qdeform model spec field 'rho.samples' must be a list, got str"),
    ({"type": "qdeform", "n": 2, "q": 0.5, "rho": {"samples": [0, 1, "a"]}},
     "qdeform model spec field 'rho.samples[2]' must be a number, got str"),
    ({"type": "system", "U": matrix_to_json(E12),
      "generators": [{"dim": 2, "entries": [[[0, 0]], [[0, 0], [1, 0]]]}]},
     "system model spec field 'generators[0]' is not a matrix: entries do "
     "not form a 2x2 matrix"),
    ({"type": "system", "generators": [],
      "U": {"dim": 2, "entries": [[[0, 0], ["a", 0]], [[0, 0], [0, 0]]]}},
     "system model spec field 'U' is not a matrix: entry [0][1] is not a "
     "[re, im] pair of numbers, got ['a', 0]"),
    ({"type": "polar", "a": {"dim": 2}},
     "polar model spec field 'a' is not a matrix: malformed matrix object: "
     "'entries'"),
    # JSON's NaN and Infinity parse as floats, which pass every type
    # check; unrejected, the first of these passes all 12 checks
    ({"type": "system", "U": {"dim": 1, "entries": [[[0, 0]]]},
      "generators": [{"dim": 1, "entries": [[[NAN, 0]]]}]},
     "system model spec field 'generators[0]' is not a matrix: entry [0][0] "
     "is not a finite number, got [nan, 0]"),
    ({"type": "system", "U": matrix_to_json(E12),
      "generators": [{"dim": 2, "entries": [[[NAN, 0], [0, 0]],
                                            [[0, 0], [1, 0]]]}]},
     "system model spec field 'generators[0]' is not a matrix: entry [0][0] "
     "is not a finite number, got [nan, 0]"),
    ({"type": "polar", "a": {"dim": 2, "entries": [[[0, 0], [INF, 0]],
                                                   [[0, 0], [0, 0]]]}},
     "polar model spec field 'a' is not a matrix: entry [0][1] is not a "
     "finite number, got [inf, 0]"),
    ({"type": "qdeform", "n": 2, "q": 0.5, "rho": {"samples": [0, NAN, 1]}},
     "qdeform model spec field 'rho.samples[1]' must be a finite number, "
     "got nan"),
    # integers beyond the float range, which float() refuses
    pytest.param({"type": "system", "U": {"dim": 1, "entries": [[[0, 0]]]},
                  "generators": [{"dim": 1, "entries": [[[BIG, 0]]]}]},
                 "system model spec field 'generators[0]' is not a matrix: "
                 f"entry [0][0] is not a finite number, got [{BIG}, 0]",
                 id="huge-matrix-entry"),
    pytest.param({"type": "qdeform", "n": 2, "q": 0.5,
                  "rho": {"samples": [0, BIG, 1]}},
                 "qdeform model spec field 'rho.samples[1]' must be a finite "
                 f"number, got {BIG}", id="huge-rho-sample"),
    pytest.param({"type": "qdeform", "n": 2, "q": BIG, "rho": "heisenberg"},
                 f"qdeform model spec field 'q' must be a finite number, got "
                 f"{BIG}", id="huge-q"),
    # an n whose matrices are past the address range, or whose first n x n
    # allocation is refused outright
    *(pytest.param({"type": "qdeform", "n": n, "q": 0.5, "rho": "heisenberg"},
                   "qdeform model spec field 'n' is too large: its n x n "
                   "complex matrices cannot be allocated", id=f"huge-n-{label}")
      for n, label in ((10 ** 400, "1e400"), (10 ** 11, "1e11"),
                       (10 ** 6, "1e6"))),
    # a "dim" that is no integer, and a JSON true or false as an entry
    *(pytest.param({"type": "polar", "a": {"dim": dim, "entries": [
        [[0, 0], [1, 0]], [[0, 0], [0, 0]]]}},
                   f"polar model spec field 'a' is not a matrix: matrix "
                   f"\"dim\" must be an integer, got {dim!r}",
                   id=f"dim-{dim!r}") for dim in (2.7, "2", True)),
    pytest.param({"type": "system", "U": {"dim": 1, "entries": [[[0, 0]]]},
                  "generators": [{"dim": 1, "entries": [[[True, False]]]}]},
                 "system model spec field 'generators[0]' is not a matrix: "
                 "entry [0][0] is not a [re, im] pair of numbers, got "
                 "[True, False]", id="bool-matrix-entry"),
])
@pytest.mark.parametrize("command", ["run", "closure"])
def test_malformed_spec_exits_2(tmp_path, capsys, command, spec, fault):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([command, "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"isoalg: model does not build: {fault}\n")


def test_integral_float_n_builds_as_the_integer(tmp_path, capsys):
    outs = []
    for n in (6, 6.0):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"type": "qdeform", "n": n, "q": 0.5,
                                    "rho": "heisenberg"}))
        assert main(["closure", "--model", str(path)]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("builder, first, last", [
    ("shift3_projection_spec", "hypothesis: algebra commutative",
     "hypothesis: U*U commutes with delta(tower stage 0)"),
    ("raw_system_spec", "hypothesis: algebra commutative",
     "hypothesis: algebra commutative"),
])
def test_run_extension_towers_reports_the_failed_hypothesis(
        tmp_path, builder, first, last):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(globals()[builder]()))
    out = tmp_path / "out.json"
    assert main(["run", "--model", str(path), "--checks", "extension_towers",
                 "--out", str(out)]) == 1
    (rep,) = json.loads(out.read_text())["results"]
    checks = [d["check"] for d in rep["defects"]]
    assert rep["pass"] is False and (checks[0], checks[-1]) == (first, last)


def test_amplified_q12_checks(amplified_q12, tmp_path):
    # the q-model n = 12 amplified by M_2 builds through the word closure;
    # its algebra is not commutative, and that is the one failure of the
    # structure checks, asked for by name
    assert amplified_q12.algebra.dim == 48
    path = tmp_path / "amplified_q12.json"
    path.write_text(json.dumps(amplified_q12_spec()))
    out = tmp_path / "out.json"
    checks = ["coefficient_algebra", "extendability", "power_structure",
              "coefficient_bound", "commutative_extendability",
              "extension_towers"]
    assert main(["run", "--model", str(path), "--checks", ",".join(checks),
                 "--seed", "0", "--out", str(out)]) == 1
    reps = {r["name"]: r for r in json.loads(out.read_text())["results"]}
    for name in ("coefficient_algebra", "extendability", "power_structure",
                 "coefficient_bound"):
        assert reps[name]["pass"] is True, name
    assert "the delta tower closes at dimension 48" in \
        reps["extendability"]["notes"]
    for name, prefix in (("commutative_extendability", ""),
                         ("extension_towers", "hypothesis: ")):
        failed = [d["check"] for d in reps[name]["defects"] if not d["ok"]]
        assert failed == [prefix + "algebra commutative"], name


def test_run_and_closure_name_the_same_late_failing_stage(tmp_path):
    # delta^7(A) is among the images of delta tower stage 6
    path = tmp_path / "shift9.json"
    path.write_text(json.dumps(corner_shift9_spec()))
    failing = "U*U commutes with delta(tower stage 6)"
    out = tmp_path / "out.json"
    for argv in (["run", "--checks", "extendability"], ["closure"]):
        assert main(argv + ["--model", str(path), "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        rep = doc["results"][0] if argv[0] == "run" else doc["report"]
        assert rep["name"] == "extendability" and rep["pass"] is False
        assert rep["defects"][-1]["check"] == failing
        assert [d["ok"] for d in rep["defects"]] == [True] * 7 + [False]


# ---------------------------------------------------------------------------
# One contract for every check: a report, never a raised hypothesis.
# ---------------------------------------------------------------------------

CONTRACT_MODELS = ["q12", "p6", "cyclic5", "raw_system", "broken",
                   "shift3_projection", "corner_shift9", "amplified_q12"]


@pytest.fixture(scope="module")
def contract_specs(specs):
    paths = {}
    for name, spec in {
            "q12": qdeform_spec(12, 0.5),
            "p6": polar_spec(weighted_shift(6, 0.5)),
            "cyclic5": cyclic5_spec(),
            "raw_system": raw_system_spec(),
            "shift3_projection": shift3_projection_spec(),
            "corner_shift9": corner_shift9_spec(),
            "amplified_q12": amplified_q12_spec(),
    }.items():
        path = Path(specs["root"]) / f"contract_{name}.json"
        path.write_text(json.dumps(spec))
        paths[name] = str(path)
    paths["broken"] = specs["broken.json"]
    return paths


@pytest.fixture(scope="module")
def loaded_once(contract_specs):
    """Each contract model built once: the command runs share it."""
    return {name: load_model(json.loads(Path(path).read_text()))
            for name, path in contract_specs.items()}


def expected_exit_2(check, loaded):
    """The exit-2 case the README documents: a model-specific check on
    another model type."""
    requires = CHECKS[check][0]
    return requires in ("polar", "qdeform") and getattr(loaded, requires) is None


@pytest.mark.parametrize("model", CONTRACT_MODELS)
def test_every_check_exits_0_or_1_with_one_report(
        monkeypatch, tmp_path, capsys, contract_specs, loaded_once, model):
    import isoalg.cli as cli
    loaded = loaded_once[model]
    monkeypatch.setattr(cli, "load_model", lambda spec, tol: loaded)
    out = tmp_path / "out.json"
    for check in CHECKS:
        out.unlink(missing_ok=True)
        rc = main(["run", "--model", contract_specs[model], "--checks", check,
                   "--samples", "20", "--out", str(out)])
        err = capsys.readouterr().err
        if expected_exit_2(check, loaded):
            assert rc == 2 and not out.exists(), check
            assert f"{check} requires a" in err, (check, err)
            continue
        assert rc in (0, 1), (check, err)
        (rep,) = json.loads(out.read_text())["results"]
        assert rep["pass"] is (rc == 0), check


@pytest.mark.parametrize("model", CONTRACT_MODELS)
def test_library_checkers_return_reports(loaded_once, model):
    import isoalg as ia
    from isoalg.norms import (gauge_invariance_sample, norm_limit_sample,
                              random_normal_forms)
    loaded = loaded_once[model]
    sys = loaded.system
    reports = [check(sys) for check in (
        ia.check_intertwining_equivalents, ia.check_coefficient_algebra,
        ia.check_extendability, ia.check_commutative_extendability,
        ia.check_extension_towers, ia.check_adjoint_intertwining)]
    reports.append(ia.verify_power_identities(sys, 4))
    if sys.coefficient_report.passed:
        forms = random_normal_forms(sys, 10, 0)
        reports += [ia.sample_coefficient_bound(sys, forms),
                    gauge_invariance_sample(sys, forms),
                    norm_limit_sample(sys, forms, k_max=4)[0]]
    if loaded.polar is not None:
        reports.append(ia.polar_structure_suite(loaded.polar, 4))
    if loaded.qdeform is not None:
        reports.append(ia.qdeform_relations_suite(loaded.qdeform))
    for rep in reports:
        assert isinstance(rep, ConditionReport) and rep.defects, rep


# ---------------------------------------------------------------------------
# Reports do not depend on the interpreter's hash seed.
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

# model: (spec, exit code of run --checks all --seed 7, exit code of
# closure, whether a gauge generator certifies gauge_invariance).  shift9
# and shift3_projection fail extendability and extension_towers, and their
# delta tower does not build; amplified_q12, q09_24 and polar07_24 fail
# norm_limit at seed 7.  The generator certifies every nilpotent
# coefficient system here, and neither cyclic5, whose U is unitary, nor
# cyclic3_shift4, whose U is not nilpotent: each fails the three samplers
# on the generator's residual.  shift9 and shift3_projection are no
# coefficient systems (None)
HASH_SEED_MODELS = {
    "q12": (lambda: qdeform_spec(12, 0.5), 0, 0, True),
    "p6": (lambda: polar_spec(weighted_shift(6, 0.5)), 0, 0, True),
    # polar_decompose must count the rounding of a*a on ker a as kernel,
    # or U is no partial isometry
    "p6_rotated": (lambda: polar_spec(rotated(weighted_shift(6, 0.5), 3)),
                   0, 0, True),
    # non-zero defects, so the report passes through the eigensolves that
    # all-zero stacks skip
    "raw_system": (raw_system_spec, 0, 0, True),
    "shift9": (corner_shift9_spec, 1, 1, None),
    # a 48-dim non-commutative algebra built by the word closure
    "amplified_q12": (amplified_q12_spec, 1, 0, True),
    "shift3_projection": (shift3_projection_spec, 1, 1, None),
    # the build-scale rungs, whose spectral closures keep their frames
    "q09_24": (lambda: qdeform_spec(24, 0.9), 1, 0, True),
    "polar07_24": (lambda: polar_spec(weighted_shift(24, 0.7)), 1, 0, True),
    "cyclic5": (cyclic5_spec, 1, 0, False),
    # the cyclic shift on C^3 plus the backward shift on C^4
    "cyclic3_shift4": (cyclic3_shift4_spec, 1, 0, False),
    # every frame block of rank 2
    "q6x2": (q6x2_spec, 0, 0, True),
}


# One process: `isoalg run --checks all --seed 7` and `isoalg closure` on
# the spec argv[1], into argv[2]-run.json and argv[2]-closure.json; prints
# the two exit codes.
HASH_SEED_DRIVER = """
import json, sys
from isoalg.cli import main
spec, out = sys.argv[1:]
print(json.dumps([
    main(["run", "--checks", "all", "--seed", "7", "--model", spec,
          "--out", out + "-run.json"]),
    main(["closure", "--model", spec, "--out", out + "-closure.json"])]))
"""


@pytest.mark.parametrize("model", HASH_SEED_MODELS)
def test_reports_do_not_depend_on_the_hash_seed(tmp_path, model):
    # one process per PYTHONHASHSEED, 1 and 2.  A crash also exits 1, so a
    # RuntimeWarning is an error, as under pytest, and stderr must be
    # empty: the CLI writes to it only when it exits 2
    build, run_code, closure_code, certified = HASH_SEED_MODELS[model]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(build()))
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c",
             HASH_SEED_DRIVER, str(spec), str(tmp_path / seed)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, ""), seed
        assert json.loads(proc.stdout) == [run_code, closure_code], seed
    for command in ("run", "closure"):
        out1, out2 = ((tmp_path / f"{seed}-{command}.json").read_bytes()
                      for seed in ("1", "2"))
        assert out1 == out2, command
    if certified is not None:
        results = {r["name"]: r for r in json.loads(
            (tmp_path / "1-run.json").read_text())["results"]}
        notes = results["gauge_invariance"]["notes"]
        assert ("certified by a gauge generator" in notes) is certified


# Prints the top-level modules that importing isoalg and isoalg.cli loads,
# beyond those the interpreter had loaded at startup.
IMPORT_DRIVER = """
import json, sys
before = set(sys.modules)
import isoalg, isoalg.cli
print(json.dumps(sorted({name.partition(".")[0]
                         for name in set(sys.modules) - before})))
"""


def test_the_package_imports_only_the_standard_library_and_numpy():
    # the package is numpy-only: a fresh interpreter that imports it and
    # its CLI loads no other third-party module, scipy included
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_DRIVER],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = json.loads(proc.stdout)
    assert "isoalg" in loaded and "numpy" in loaded
    allowed = set(sys.stdlib_module_names) | {"isoalg", "numpy"}
    assert [name for name in loaded if name not in allowed] == []
