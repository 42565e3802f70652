import json

import numpy as np
import pytest

import isoalg as ia
from isoalg import (
    ConditionReport,
    IsometrySystem,
    PolarConditionViolated,
    RhoConditionViolated,
    adjoint,
    backward_shift,
    build_polar_model,
    build_qdeform,
    constant_rho,
    heisenberg_rho,
    is_partial_isometry,
    load_model,
    matrix_to_json,
    polar_decompose,
    polar_structure_suite,
    qdeform_relations_suite,
    sl2_rho,
    spectral_norm,
    weighted_backward_shift,
)
from isoalg.algebra import (
    _absorption_defect,
    _commutator_norm,
    generate_closure,
)
from isoalg.cli import main

from conftest import bicommutant, rotated, spans_equal, weighted_shift

E12 = np.array([[0, 1], [0, 0]], complex)


# -- polar decomposition -----------------------------------------------------

def test_polar_decompose_examples():
    u, abs_a = polar_decompose(2 * E12)
    # |a| e2 = 2 e2 maps to a e2 = 2 e1, forcing U e2 = e1 and U e1 = 0
    assert np.allclose(abs_a, np.diag([0.0, 2.0]))
    assert np.allclose(u, E12)

    u, abs_a = polar_decompose(np.eye(3))
    assert np.allclose(u, np.eye(3))
    assert np.allclose(abs_a, np.eye(3))

    u, abs_a = polar_decompose(np.zeros((2, 2)))
    assert np.array_equal(u, np.zeros((2, 2)))
    assert np.array_equal(abs_a, np.zeros((2, 2)))
    assert is_partial_isometry(u).passed  # U = 0 is a partial isometry


def polar_parts_reference(a):
    """``_polar_parts`` with a*a taken through the checked ``herm_eig``."""
    a = ia.linalg.as_matrix(a)
    e = ia.linalg._scale_exponent(a)
    b = ia.linalg._ldexp(a, -e)
    w, v = ia.herm_eig(adjoint(b) @ b)
    s = np.sqrt(np.clip(w, 0.0, None))
    cut = np.sqrt(len(a) * np.finfo(float).eps) * s[-1]
    kept = np.where(s > cut, s, 0.0)
    abs_b = (v * kept) @ adjoint(v)
    inv = np.divide(1.0, kept, out=np.zeros_like(kept), where=kept > 0.0)
    u = b @ (v * inv) @ adjoint(v)
    return (u, ia.linalg._ldexp((abs_b + adjoint(abs_b)) / 2.0, e),
            np.ldexp(s, e), float(np.ldexp(cut, e)), b)


@pytest.mark.parametrize("name", ["p6", "polar07_n24", "p6_rotated",
                                  "e12_1e-300", "e12_1", "e12_1e+300"])
def test_polar_parts_match_the_checked_eigensolve(name):
    # a*a is self-adjoint as formed, so the bare eigensolve gives what the
    # checked one gives, bit for bit
    a = {"p6": lambda: weighted_shift(6, 0.5),
         "polar07_n24": lambda: weighted_shift(24, 0.7),
         "p6_rotated": lambda: rotated(weighted_shift(6, 0.5), 3)}.get(
        name, lambda: float(name[4:]) * E12)()
    got = ia.models._polar_parts(a)
    for g, w in zip(got, polar_parts_reference(a), strict=True):
        assert np.array_equal(g, w)


def test_polar_decompose_random_roundtrip():
    rng = np.random.default_rng(30)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if trial % 3 == 0:  # force rank deficiency
            mask = rng.random(n) < 0.5
            a[:, mask] = 0.0
        u, abs_a = polar_decompose(a)
        scale = max(1.0, spectral_norm(a))
        assert is_partial_isometry(u, 1e-9).passed
        assert spectral_norm(u @ abs_a - a) <= 1e-9 * scale
        # the SVD oracle a = W diag(s) V*: |a| = V diag(s) V*
        _, s, vh = np.linalg.svd(a)
        oracle = adjoint(vh) @ np.diag(s) @ vh
        assert spectral_norm(abs_a - oracle) <= 1e-9 * scale
        # U vanishes on ker |a|
        w, v = ia.herm_eig(abs_a)
        kernel = v[:, w <= 1e-10 * scale]
        if kernel.size:
            assert spectral_norm(u @ kernel @ adjoint(kernel)) <= 1e-9 * scale


@pytest.mark.parametrize("k", [-900, -300, -129, 129, 300, 900])
def test_polar_decompose_past_the_safe_range_scales_exactly(k):
    # the largest part of a is 1/2, so a 2^k, whose largest entry is past
    # [2^-128, 2^128], is decomposed as a itself: U is a's and |a 2^k| is
    # |a| 2^k, bit for bit
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a[:, 3] = 0.0
    a /= 2.0 * np.abs(a.view(float)).max()
    u, abs_a = polar_decompose(a)
    u_k, abs_k = polar_decompose(ia.linalg._ldexp(a, k))
    assert np.array_equal(u_k, u)
    assert np.array_equal(abs_k, ia.linalg._ldexp(abs_a, k))


def test_a_far_scale_polar_model_names_unscaled_values():
    with pytest.raises(PolarConditionViolated) as err:
        build_polar_model(weighted_backward_shift([2.0 ** 200, 2.0 ** 199,
                                                   1e-9 * 2.0 ** 200]))
    cut = np.sqrt(4 * np.finfo(float).eps) * 2.0 ** 200
    assert str(err.value).endswith(
        f"; polar_decompose counted the singular value "
        f"{1e-9 * 2.0 ** 200:.3e} as kernel, at or below its threshold "
        f"sqrt(n eps) ||a|| = {cut:.3e}")


# -- polar model -------------------------------------------------------------

def test_build_polar_model_accepts(polar2, polar6):
    for model in (polar2, polar6):
        assert model.system.coefficient_report.passed
        ok, _ = model.seed_algebra.contains(model.a @ adjoint(model.a))
        assert ok
        assert spectral_norm(model.u @ model.abs_a - model.a) <= \
            1e-10 * max(1.0, spectral_norm(model.a))


def test_build_polar_model_rejects_range_escape():
    # aa* has an off-diagonal component in the eigenbasis of |a|
    a = np.array([[1, 1], [0, 0]], complex)
    with pytest.raises(PolarConditionViolated) as err:
        build_polar_model(a)
    assert err.value.defect > 0.1
    # the decomposition itself is still fine; only the membership fails
    u, abs_a = polar_decompose(a)
    assert is_partial_isometry(u).passed
    assert spectral_norm(u @ abs_a - a) <= 1e-10


@pytest.mark.parametrize("weights, zeroed, cut", [
    # 1e-9 lies under sqrt(4 eps) * 1 = 2.98e-8
    ([1.0, 0.5, 1e-9], "1.000e-09", "2.980e-08"),
    # polar07 at n = 91: 0.7^45 = 1.07e-7 under sqrt(91 eps) = 1.19e-7
    ([0.7 ** (j / 2) for j in range(1, 91)], "1.070e-07", "1.189e-07")])
def test_build_polar_model_names_a_zeroed_singular_value(weights, zeroed, cut):
    with pytest.raises(PolarConditionViolated) as err:
        build_polar_model(weighted_backward_shift(weights))
    assert str(err.value).endswith(
        f"; polar_decompose counted the singular value {zeroed} as kernel, "
        f"at or below its threshold sqrt(n eps) ||a|| = {cut}")
    assert err.value.defect > 0.1


def test_polar_structure_suite(polar2, polar6):
    rep = polar_structure_suite(polar2, k_max=3)
    assert rep.passed
    assert max(d.value for d in rep.defects) <= 1e-13

    rep = polar_structure_suite(polar6, k_max=4)
    assert rep.passed


def test_polar_extension_contains_range_projections(polar6):
    # the delta tower of the seed algebra spans the same algebra as adjoining
    # all range projections U^k U^{*k}
    sys0 = IsometrySystem(polar6.seed_algebra, polar6.u)
    ext = ia.extend_delta(sys0)
    gens = list(polar6.seed_algebra.basis)
    for k in range(1, polar6.seed_algebra.ambient_dim + 1):
        gens.append(sys0.proj_final(k))
    direct = ia.generate_closure(gens)
    assert spans_equal(ext.basis, direct.basis, 1e-9)[0]
    for k in range(1, 7):
        assert ext.contains(sys0.proj_final(k))[0]


# -- polar_structure on the seed algebra --------------------------------------

def reference_polar_structure(m, k_max):
    """The closure-based polar_structure body: its first entry measures
    delta^k(|a|) against C*(|a|, U U*, ..., U^{k-1} U^{*(k-1)}), one closure
    per k, and its second measures multiplicativity on the closure of |a|
    and every U^k U^{*k}."""
    tol = ia.models.POLAR_TOL
    rep = ConditionReport("polar_structure")
    sys = m.system._with_algebra(m.seed_algebra)
    seed_tol = m.seed_algebra.tol
    finals = np.array([sys.proj_final(k) for k in range(1, k_max + 1)])

    d = 0.0
    for k in range(1, k_max + 1):
        closure_k = generate_closure([m.abs_a, *finals[:k - 1]], seed_tol)
        d = max(d, closure_k.contains(sys.delta_n(m.abs_a, k))[1])
    rep.add(f"delta^k(|a|) in span of |a| and lower projections, k <= {k_max}",
            d, tol)

    ext = generate_closure([m.abs_a, *finals], seed_tol)
    rep.add("delta multiplicative on the extended algebra",
            IsometrySystem(ext, m.u).multiplicativity_defect, tol)

    d_mem = float(m.seed_algebra.span_defects(finals).max(initial=0.0))
    d_comm = _commutator_norm(finals, m.seed_algebra.basis)
    rep.add(f"U^k U^{{*k}} in double commutant of seed, k <= {k_max}", d_mem, tol)
    rep.add("U^k U^{*k} commutes with seed algebra", d_comm, tol)

    ks = np.arange(k_max + 1)
    rep.add(f"absorption identities, 1 <= k <= l <= {k_max}",
            _absorption_defect(sys.power_stack(ks)), tol)
    rep.add("initial and range projection families commute",
            _commutator_norm(np.array([sys.proj_initial(k) for k in ks]),
                             np.array([sys.proj_final(k) for k in ks])), tol)
    return rep


def polar_shift(n, base):
    """The n-dim weighted backward shift with weights base^{j/2}."""
    return weighted_backward_shift([base ** (j / 2) for j in range(1, n)])


# W + W: the 3-dim weighted shift with weights 0.7, 0.4, twice; |a| has
# three distinct eigenvalues, each of multiplicity 2
W_PLUS_W = np.kron(np.eye(2), weighted_backward_shift([0.7, 0.4]))


@pytest.mark.parametrize("name", ["p6", "w_plus_w",
                                  *(f"polar07_n{n}" for n in range(2, 25))])
def test_polar_structure_on_the_seed_matches_the_closures(polar6, name):
    m = (polar6 if name == "p6" else build_polar_model(
        W_PLUS_W if name == "w_plus_w" else polar_shift(int(name[9:]), 0.7)))
    for k_max in (1, 2, 8, 16):
        assert (polar_structure_suite(m, k_max).to_json()
                == reference_polar_structure(m, k_max).to_json())


ROTATED = [(name, s) for name in ("p6", "w_plus_w", "polar07_n12")
           for s in range(4)]


def rotated_model(name, s):
    a = {"p6": polar_shift(6, 0.5), "w_plus_w": W_PLUS_W,
         "polar07_n12": polar_shift(12, 0.7)}[name]
    return build_polar_model(rotated(a, s))


@pytest.mark.parametrize("name, s", ROTATED)
def test_polar_structure_on_rotated_models_matches_the_closures(name, s):
    m = rotated_model(name, s)
    for k_max in (1, 2, 8):
        got = polar_structure_suite(m, k_max)
        ref = reference_polar_structure(m, k_max)
        assert [d.ok for d in got.defects] == [d.ok for d in ref.defects]
        assert got.passed
        for rep in (got, ref):
            assert max(d.value for d in rep.defects[:2]) < 1e-13


def test_polar_structure_builds_no_closure(polar6, monkeypatch):
    calls = []
    real = ia.models.generate_closure
    monkeypatch.setattr(ia.models, "generate_closure",
                        lambda *args, **kw: calls.append(args) or real(
                            *args, **kw))
    monkeypatch.setattr(ia.algebra, "generate_closure",
                        ia.models.generate_closure)
    assert polar_structure_suite(polar6, 8).passed
    assert calls == []


@pytest.mark.parametrize("a", [
    polar_shift(6, 0.5), polar_shift(24, 0.7),
    rotated(polar_shift(24, 0.9), 0), rotated(polar_shift(24, 0.7), 1)],
    ids=["p6", "polar07_n24", "rot09_n24", "rot07_n24"])
def test_both_power_suites_read_the_same_families(a):
    # the entries the two suites share are the same values bit for bit:
    # both read U's families from power_families
    m = build_polar_model(a)
    for k_max in (3, 8, 40):
        polar = polar_structure_suite(m, k_max).defects
        power = {d.check: d.value
                 for d in ia.verify_power_identities(m.system, k_max).defects}
        absorption = f"absorption identities, 1 <= k <= l <= {k_max}"
        assert polar[-2].check == absorption
        assert polar[-2].value == power[absorption]
        assert (polar[-1].check
                == "initial and range projection families commute")
        assert polar[-1].value == power["[U^{*k}U^k, U^lU^{*l}] = 0"]


@pytest.mark.parametrize("name, s", [
    (name, s) for name in ("p6", "w_plus_w") for s in range(4)])
def test_rotated_polar_models_build_and_verify(tmp_path, name, s):
    # |a| = sqrt(a*a) of a rotated operator holds rounding of a*a near
    # sqrt(n eps) ||a|| on ker a; polar_decompose counts it as kernel, so
    # these build (p6 at s = 3 was no partial isometry, W + W at every s a
    # closure gap in the ambiguous band) and pass every check
    a = rotated(polar_shift(6, 0.5) if name == "p6" else W_PLUS_W, s)
    m = build_polar_model(a)
    assert m.seed_algebra.dim == (6 if name == "p6" else 3)
    # |a| has no eigenvalue between the rounding of its own product and
    # the smallest weight of the shift
    w = np.linalg.eigvalsh(m.abs_a)
    assert np.all((np.abs(w) < 1e-14) | (w > 0.1)), w
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"type": "polar", "a": matrix_to_json(a)}))
    assert main(["run", "--checks", "all", "--seed", "0", "--model",
                 str(path), "--out", str(tmp_path / "out.json")]) == 0


# -- q-model -----------------------------------------------------------------

def test_qdeform_construction_examples():
    m = build_qdeform(4, 0.5, "heisenberg")
    assert np.allclose(np.diag(m.big_q), [1.0, 0.5, 0.25, 0.125])
    defect = spectral_norm(m.u @ m.big_q @ adjoint(m.u) - 0.5 * m.big_q)
    assert defect == pytest.approx(0.5 ** 4, abs=1e-15)
    assert np.allclose(np.diag(m.rho_matrix), [0.0, 1.0, 1.5, 1.75])


def test_heisenberg_rho_values():
    spec = heisenberg_rho(4, 0.5)
    assert spec.samples[0] == 0.0
    assert spec.samples[1] == 1.0  # rho(q) = 1 for every q
    assert heisenberg_rho(4, 0.3).samples[1] == 1.0
    assert np.allclose(spec.samples, [0.0, 1.0, 1.5, 1.75, 1.875])


def test_constant_rho_rejected():
    with pytest.raises(RhoConditionViolated) as err:
        build_qdeform(5, 0.5, constant_rho(5))
    assert "basis vector 1" in str(err.value)


def test_negative_rho_rejected():
    samples = [0.0, 1.0, -0.5, 1.0, 1.0, 1.0]
    with pytest.raises(RhoConditionViolated):
        build_qdeform(5, 0.5, samples)


def test_interior_zero_rho_rejected():
    samples = [0.0, 1.0, 0.0, 1.0, 1.0, 1.0]
    with pytest.raises(RhoConditionViolated):
        build_qdeform(5, 0.5, samples)


def test_sl2_rho_always_negative():
    for q in (0.1, 0.5, 0.9):
        with pytest.raises(RhoConditionViolated):
            sl2_rho(6, q)
    with pytest.raises(RhoConditionViolated):
        build_qdeform(6, 0.5, "sl2")


def test_qdeform_bad_params():
    with pytest.raises(ValueError):
        build_qdeform(1, 0.5, "heisenberg")
    with pytest.raises(ValueError):
        build_qdeform(4, 1.5, "heisenberg")
    with pytest.raises(ValueError):
        build_qdeform(4, 0.5, [0.0, 1.0])  # wrong sample count


def test_qdeform_relations(qdeform6):
    rep = qdeform_relations_suite(qdeform6)
    assert rep.passed


def test_qdeform_a_is_polar_decomposition(qdeform6):
    u, abs_a = polar_decompose(qdeform6.a)
    assert spectral_norm(abs_a - qdeform6.rho_matrix) <= 1e-10
    assert spectral_norm(u - qdeform6.u @ np.diag(
        (np.diag(qdeform6.rho_matrix) != 0).astype(complex))) <= 1e-10


def test_polynomial_intertwining(qdeform12):
    # U f(Q) = f(qQ) U holds exactly for every polynomial f
    rng = np.random.default_rng(31)
    n, q = qdeform12.n, qdeform12.q
    spec = np.diag(qdeform12.big_q)
    for _ in range(20):
        coeffs = rng.standard_normal(6)
        f_q = np.diag(np.polyval(coeffs, spec))
        f_qq = np.diag(np.polyval(coeffs, q * spec))
        defect = spectral_norm(qdeform12.u @ f_q - f_qq @ qdeform12.u)
        assert defect <= 1e-13 * max(1.0, spectral_norm(f_q))


def test_rho_intertwining(qdeform12):
    # U rho(Q) = rho(qQ) U, using the shifted sample for the edge
    rho_q = qdeform12.rho_matrix
    rho_qq = np.diag(qdeform12.rho.samples[1:]).astype(complex)
    defect = spectral_norm(qdeform12.u @ rho_q - rho_qq @ qdeform12.u)
    assert defect <= 1e-13


# -- model specs -------------------------------------------------------------

def test_load_model_polar():
    loaded = load_model({"type": "polar", "a": matrix_to_json(2 * E12)})
    assert loaded.kind == "polar"
    assert loaded.polar is not None
    assert set(loaded.generators) == {"absa"}


def test_load_model_qdeform_custom_rho():
    spec = {"type": "qdeform", "n": 4, "q": 0.5,
            "rho": {"samples": [0.0, 1.0, 1.2, 1.3, 1.4]}}
    loaded = load_model(spec)
    assert loaded.qdeform is not None
    assert loaded.qdeform.rho.name == "custom"


def test_load_model_system():
    spec = {"type": "system",
            "generators": [matrix_to_json(np.diag([1.0, 2.0]).astype(complex))],
            "U": matrix_to_json(E12)}
    loaded = load_model(spec)
    assert loaded.kind == "system"
    assert loaded.system.algebra.dim == 2
    assert set(loaded.generators) == {"g0"}


def test_load_model_tolerance_reaches_every_model_type():
    specs = [{"type": "qdeform", "n": 6, "q": 0.5, "rho": "heisenberg"},
             {"type": "polar", "a": matrix_to_json(2 * E12)}]
    for spec in specs:
        assert load_model(spec, tol=1e-6).system.tol == 1e-6
        assert load_model(spec).system.tol == 1e-9


def test_load_model_unknown_type():
    with pytest.raises(ValueError):
        load_model({"type": "nope"})


def test_shift_helpers():
    u = backward_shift(4)
    assert np.allclose(u, np.diag([1.0, 1.0, 1.0], 1))
    a = weighted_backward_shift([2.0, 3.0])
    assert np.allclose(a, np.array([[0, 2, 0], [0, 0, 3], [0, 0, 0]]))


@pytest.mark.parametrize("name", ["polar2", "polar6"]
                         + [f"polar07_n{n}" for n in range(2, 13)])
def test_polar_seed_is_its_own_double_commutant(request, name):
    # polar_structure_suite tests U^k U^{*k} for membership in the seed
    # algebra in place of its double commutant; the two are one algebra
    if name.startswith("polar07"):
        n = int(name.removeprefix("polar07_n"))
        m = build_polar_model(weighted_backward_shift(
            [0.7 ** (j / 2) for j in range(1, n)]))
    else:
        m = request.getfixturevalue(name)
    dbl = bicommutant(m.seed_algebra)
    assert dbl.dim == m.seed_algebra.dim
    equal, defect = spans_equal(dbl.basis, m.seed_algebra.basis,
                                m.seed_algebra.tol)
    assert equal, defect
