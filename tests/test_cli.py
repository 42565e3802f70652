import json
import re
from pathlib import Path

import numpy as np
import pytest

from isoalg import load_model, matrix_from_json, matrix_to_json
from isoalg.cli import CHECKS, dump_json, main

README = Path(__file__).resolve().parent.parent / "README.md"

E12 = np.array([[0, 1], [0, 0]], complex)


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
    rc, doc = run(["run", "--model", specs["broken.json"], "--checks", "all",
                   "--samples", "10"], specs, "broken_order")
    assert rc == 1
    assert doc["config"]["checks"] == [
        "partial_isometry", "intertwining", "coefficient_algebra",
        "adjoint_intertwining", "extendability", "commutative_extendability",
        "power_structure", "extension_towers", "sum_norm_estimates"]
    assert len(doc["results"]) == 9


def test_run_explicit_coefficient_check_on_raw_system_exits_2(specs, capsys):
    rc = main(["run", "--model", specs["broken.json"],
               "--checks", "coefficient_bound"])
    assert rc == 2
    assert "NotCoefficientAlgebra" in capsys.readouterr().err


def test_unknown_check_message_lists_every_check(specs, capsys):
    rc = main(["run", "--model", specs["qdeform.json"], "--checks", "bogus"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown check 'bogus'" in err
    for name in CHECKS:
        assert name in err


def test_run_unbuildable_model_exits_2(specs, capsys):
    rc = main(["run", "--model", specs["badrho.json"], "--checks", "all"])
    assert rc == 2
    assert "does not build" in capsys.readouterr().err


def test_run_missing_file_exits_2(specs):
    rc = main(["run", "--model", specs["root"] + "/nope.json",
               "--checks", "all"])
    assert rc == 2


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


def test_negative_n_max_exits_2(specs, capsys):
    # a negative --n-max would leave the delta^n orbit empty, so that
    # extendability passed on the broken system without checking anything
    rc = main(["run", "--model", specs["broken.json"],
               "--checks", "extendability", "--n-max", "-1"])
    assert rc == 2
    assert "isoalg: --n-max must be at least 0, got -1" in capsys.readouterr().err


def test_n_max_zero_checks_the_algebra_itself(specs):
    # the n = 0 image is the algebra itself, where U*U = E22 does not
    # commute with E12
    rc, doc = run(["run", "--model", specs["broken.json"],
                   "--checks", "extendability", "--n-max", "0"],
                  specs, "n_max_0")
    assert rc == 1
    defect = doc["results"][0]["defects"][0]
    assert defect["check"] == "U*U commutes with delta^n(basis), n <= 0"
    assert defect["value"] == pytest.approx(1.0)


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
                   "--expr", "Q*U^2 + U'*rhoQ", "--samples", "10"],
                  specs, "nlim")
    assert rc == 0
    tr = doc["trace"]
    assert tr["k_values"] == [1, 2, 4, 8]
    assert tr["s_values"][-1] <= tr["direct_norm"] * (1 + 1e-9)
    assert "x" in tr


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
    # (1e-9, 1e-8]; the Gram-Schmidt fallback then collapses, and the error
    # names the first of them as the cause
    spec = tmp_path / "q18.json"
    spec.write_text(json.dumps({"type": "qdeform", "n": 18, "q": 0.3,
                                "rho": "heisenberg"}))
    assert main(["closure", "--model", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "Gram-Schmidt residual" in err
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


def test_env_tolerance(specs, monkeypatch, capsys):
    monkeypatch.setenv("ISOALG_TOL", "not-a-number")
    rc = main(["run", "--model", specs["qdeform.json"],
               "--checks", "partial_isometry"])
    assert rc == 2
    monkeypatch.setenv("ISOALG_TOL", "1e-7")
    rc, doc = run(["run", "--model", specs["qdeform.json"],
                   "--checks", "partial_isometry"], specs, "envtol")
    assert rc == 0
    assert doc["config"]["tol"] == 1e-7


def test_console_entry_point(specs):
    import subprocess
    import sys
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
    # the model build and the tower builds scan no delta^n orbit, only the
    # three checks that report on it do; and the coefficient_algebra check
    # reads the report the system caches for the coefficient checks
    import isoalg.algebra as algebra
    calls = dict.fromkeys(["_orbit_scan", "check_intertwining_equivalents"], 0)
    for name in calls:
        def counted(*args, real=getattr(algebra, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(algebra, name, counted)
    rc, doc = run(["run", "--model", specs["qdeform.json"], "--checks", "all"],
                  specs, "counted")
    assert rc == 0 and "coefficient_algebra" in doc["config"]["checks"]
    assert calls == {"_orbit_scan": 3, "check_intertwining_equivalents": 1}


@pytest.mark.parametrize("spec, fault", [
    ([], "a model spec is a JSON object, got list"),
    ({"type": "qdeform", "n": 6, "q": 0.5},
     "qdeform model spec has no 'rho' field"),
    ({"type": "qdeform", "n": 6, "q": 0.5, "rho": {}},
     "qdeform model spec has no 'samples' field in its 'rho' object"),
])
@pytest.mark.parametrize("command", ["run", "closure"])
def test_malformed_spec_exits_2(tmp_path, capsys, command, spec, fault):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([command, "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"isoalg: model does not build: {fault}\n")
