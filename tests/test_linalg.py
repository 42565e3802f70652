import json
import re

import numpy as np
import pytest

import isoalg.linalg
from isoalg import (
    DimensionMismatch,
    NotPSD,
    NotSelfAdjoint,
    adjoint,
    herm_eig,
    hs_inner,
    is_partial_isometry,
    matrix_from_json,
    matrix_to_json,
    psd_sqrt,
    spectral_norm,
)

E12 = np.array([[0, 1], [0, 0]], complex)


def test_adjoint_examples():
    assert np.array_equal(adjoint(E12), np.array([[0, 0], [1, 0]]))
    assert np.array_equal(adjoint(np.eye(3)), np.eye(3))
    m = np.array([[0, 1j], [0, 0]])
    assert np.array_equal(adjoint(m), np.array([[0, 0], [-1j, 0]]))
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(adjoint(adjoint(m)), m)
    stack = np.array([m[:2, :2], 2 * E12, np.eye(2)])
    assert all(np.array_equal(a, adjoint(b)) for a, b in zip(adjoint(stack), stack))


def test_spectral_norm_examples():
    assert spectral_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0, rel=1e-12)
    assert spectral_norm(np.zeros((4, 4))) == 0.0
    assert spectral_norm(2 * E12) == pytest.approx(2.0, rel=1e-12)


def test_herm_eig_examples():
    w, v = herm_eig(np.diag([2.0, 5.0]))
    assert np.allclose(w, [2.0, 5.0])
    assert np.allclose(np.abs(v), np.eye(2))  # permutation of identity columns

    w, _ = herm_eig(np.array([[0, 1], [1, 0]], complex))
    assert np.allclose(w, [-1.0, 1.0])

    a = 2 * E12
    prod = adjoint(a) @ a  # direct multiplication gives diag(0, 4)
    assert np.allclose(prod, np.diag([0.0, 4.0]))
    w, v = herm_eig(prod)
    assert np.allclose(w, [0.0, 4.0])
    assert spectral_norm(v @ np.diag(w) @ adjoint(v) - prod) <= 1e-10 * 4.0


def test_herm_eig_rejects_nonhermitian():
    with pytest.raises(NotSelfAdjoint, match=r"^self-adjointness defect"):
        herm_eig(E12)


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = g + adjoint(g)
        w, v = herm_eig(h)
        scale = max(spectral_norm(h), 1e-30)
        assert spectral_norm(v @ np.diag(w) @ adjoint(v) - h) <= 1e-10 * scale
        assert spectral_norm(v @ adjoint(v) - np.eye(n)) <= 1e-12


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    a = 2 * E12
    s = psd_sqrt(adjoint(a) @ a)  # eigendecomposition oracle: diag(0, 2)
    assert np.allclose(s, np.diag([0.0, 2.0]))


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD, match=r"^eigenvalue -1\.000e\+00 below"):
        psd_sqrt(np.diag([-1.0, 1.0]))


def test_psd_sqrt_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = psd_sqrt(g @ adjoint(g))
        assert spectral_norm(psd_sqrt(s @ s) - s) <= 1e-8 * max(1.0, spectral_norm(s))


def _psd_stack(rng, m, n):
    g = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return g @ adjoint(g)


@pytest.mark.parametrize("m, n", [(1, 1), (4, 1), (3, 5)])
def test_stacks_match_per_matrix_calls(m, n):
    stack = _psd_stack(np.random.default_rng(10 * m + n), m, n)
    w, v = herm_eig(stack)
    roots = psd_sqrt(stack)
    assert w.shape == (m, n) and v.shape == roots.shape == (m, n, n)
    for i, h in enumerate(stack):
        wi, vi = herm_eig(h)
        assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)
        assert np.array_equal(roots[i], psd_sqrt(h))


def test_stack_with_one_non_self_adjoint_matrix_names_it():
    stack = _psd_stack(np.random.default_rng(11), 4, 3)
    stack[2, 0, 1] += 1.0
    for func in (herm_eig, psd_sqrt):
        with pytest.raises(NotSelfAdjoint, match=r"^matrix 2: self-adjointness"):
            func(stack)


def test_stack_with_one_negative_matrix_names_it():
    stack = _psd_stack(np.random.default_rng(12), 4, 3)
    stack[1] = -stack[1]
    with pytest.raises(NotPSD, match=r"^matrix 1: eigenvalue"):
        psd_sqrt(stack)


def reference_herm_eig(m, tol=1e-10):
    """herm_eig with its exact self-adjointness test always taken."""
    m = isoalg.linalg._as_matrices(m)
    mh = adjoint(m)
    scale = isoalg.linalg.spectral_norms(m)
    defect = isoalg.linalg.spectral_norms(m - mh)
    isoalg.linalg._raise_first(
        defect > tol * scale, NotSelfAdjoint, lambda i:
        f"self-adjointness defect {defect[i]:.3e} exceeds "
        f"{tol:.1e} * {scale[i]:.3e}")
    return np.linalg.eigh((m + mh) / 2.0)


def herm_eig_inputs():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
    herm = g + adjoint(g)
    near = herm + 1e-13 * g  # self-adjoint within tol, not exactly
    zero = herm.copy()
    zero[2] = 0.0
    return [herm, _psd_stack(rng, 4, 3), near, zero, np.zeros((2, 4, 4)),
            np.ones((1, 1, 1)), 1e-160 * herm, 1e150 * herm]


@pytest.mark.parametrize("i", range(len(herm_eig_inputs())))
def test_herm_eig_matches_the_exact_test_reference(i):
    stack = herm_eig_inputs()[i]
    for m in [stack] + list(stack):
        w, v = herm_eig(m)
        w_ref, v_ref = reference_herm_eig(m)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_herm_eig_takes_column_strided_views():
    rng = np.random.default_rng(14)
    g = rng.standard_normal((5, 10)) + 1j * rng.standard_normal((5, 10))
    wide = np.zeros((5, 10), complex)
    wide[:, ::2] = g[:, :5] + adjoint(g[:, :5])
    for m in (wide[:, ::2], np.array([wide, wide])[:, :, ::2]):
        assert not m.flags.c_contiguous
        w, v = herm_eig(m)
        w_ref, v_ref = reference_herm_eig(m)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    psd = _psd_stack(rng, 1, 5)[0]
    wide[:, ::2] = psd
    assert np.array_equal(psd_sqrt(wide[:, ::2]), psd_sqrt(psd))


def test_herm_eig_on_non_finite_input_matches_the_reference():
    for entry in ((0, 1), (1, 1)):
        m = np.eye(3, dtype=complex)
        m[entry] = np.inf
        outcomes = []
        for func in (reference_herm_eig, herm_eig):
            with np.errstate(invalid="ignore", over="ignore"):
                try:
                    outcomes.append(func(m))
                except (np.linalg.LinAlgError, NotSelfAdjoint) as exc:
                    outcomes.append((type(exc), str(exc)))
        if isinstance(outcomes[0][0], type):
            assert outcomes[0] == outcomes[1]
        else:
            for ref, got in zip(*outcomes):
                assert np.array_equal(ref, got, equal_nan=True)


def epsilon_matrix(eps):
    # diag(1, 0, ..., 0) + eps i 1 on C^6: ||m - m*||_2 = 2 eps, ||m||_2 ~ 1,
    # ||m - m*||_F = 2 sqrt(6) eps, ||m||_F ~ 1
    return np.diag([1.0, 0, 0, 0, 0, 0]) + 1j * eps * np.eye(6)


def test_herm_eig_takes_the_exact_test_where_the_bound_cannot_decide():
    tol = 1e-10
    herm_eig(np.diag([1.0, 0, 0, 0, 0, 0]))
    # within the exact test's tol but not within a Frobenius bound's tol / 12
    m = epsilon_matrix(0.3 * tol)
    w, v = herm_eig(m)
    w_ref, v_ref = reference_herm_eig(m)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    # outside it: the same error as the exact test alone; the last matrix
    # has a flat spectrum, ||m||_F = sqrt(6) ||m||_2, where a Frobenius
    # bound without its sqrt(n) would pass it
    flat = np.eye(6) + 1j * tol * np.diag([1.0, 0, 0, 0, 0, 0])
    for bad in (epsilon_matrix(0.6 * tol),
                np.array([np.eye(6), epsilon_matrix(0.6 * tol)]),
                np.array([np.eye(6), flat])):
        with pytest.raises(NotSelfAdjoint) as ref:
            reference_herm_eig(bad)
        with pytest.raises(NotSelfAdjoint) as got:
            herm_eig(bad)
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith(
            "matrix 1: " if bad.ndim == 3 else "self-adjointness defect")


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (2, 0, 0), (2, 2, 3, 3)])
def test_herm_eig_rejects_non_square_input(shape):
    with pytest.raises(DimensionMismatch):
        herm_eig(np.zeros(shape))


def test_partial_isometry_examples():
    rep = is_partial_isometry(E12)
    assert rep.passed
    assert all(d.value == 0.0 for d in rep.defects)

    rep = is_partial_isometry(np.diag([1.0, 0.5]))
    assert not rep.passed

    for n in (2, 5, 9):
        u = np.diag(np.ones(n - 1), 1).astype(complex)
        assert is_partial_isometry(u).passed


def _random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_partial_isometry_subchecks_agree():
    # genuine partial isometries V P W* pass all five characterizations;
    # generic matrices fail all five
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        v, w = _random_unitary(rng, n), _random_unitary(rng, n)
        p = np.diag((rng.random(n) < 0.6).astype(float))
        u = v @ p @ adjoint(w)
        oks = [d.ok for d in is_partial_isometry(u).defects]
        assert all(oks)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        oks = [d.ok for d in is_partial_isometry(g).defects]
        assert len(set(oks)) == 1


def test_hs_inner_examples():
    assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    assert hs_inner(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0.0
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert hs_inner(m, m).real == pytest.approx(np.linalg.norm(m) ** 2)
    with pytest.raises(DimensionMismatch):
        hs_inner(np.eye(2), np.eye(3))


def test_cstar_identity_and_submultiplicativity():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        nm, nk = spectral_norm(m), spectral_norm(k)
        assert spectral_norm(adjoint(m) @ m) == pytest.approx(nm * nm, rel=1e-10)
        assert spectral_norm(m @ k) <= nm * nk * (1 + 1e-10)


def test_matrix_json_roundtrip_bitexact():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3)) * np.exp(rng.standard_normal((3, 3)) * 20)
    m = m + 1j * rng.standard_normal((3, 3))
    m[0, 0] = np.pi
    m[1, 1] = -0.1
    text = json.dumps(matrix_to_json(m))
    back = matrix_from_json(json.loads(text))
    assert np.array_equal(back, m)

    # and through the CLI's 17-significant-digit dumper
    from isoalg.cli import dump_json
    back = matrix_from_json(json.loads(dump_json(matrix_to_json(m))))
    assert np.array_equal(back, m)


def test_matrix_json_rejects_malformed():
    with pytest.raises(DimensionMismatch):
        matrix_from_json({"dim": 2, "entries": [[[1, 0]]]})
    with pytest.raises(DimensionMismatch):
        matrix_from_json({"entries": []})


def test_scale_exponent_leaves_the_safe_range_alone():
    # [2^-128, 2^128] keeps e = 0; past it m 2^-e has its largest part in
    # [1/2, 1); zero and non-finite matrices keep 0
    scale = isoalg.linalg._scale_exponent
    for top, e in ((2.0 ** -128, 0), (2.0 ** 128, 0), (1.0, 0), (0.0, 0),
                   (float("inf"), 0), (2.0 ** 128 * 1.5, 129),
                   (2.0 ** -129, -128), (1e300, 997), (5e-324, -1073)):
        assert scale(np.array([[0.0, complex(0.0, -top)]])) == e, top
    m = np.array([[3.0 - 1e300j, 0.5]])
    b = isoalg.linalg._ldexp(m, -997)
    assert np.array_equal(isoalg.linalg._ldexp(b, 997), m)
    assert isoalg.linalg._ldexp(m, 0) is m


@pytest.mark.parametrize("c", [1e160, 1e-170, 1e300, 1e-300])
def test_spectral_norm_of_a_matrix_whose_square_leaves_the_float_range(c):
    # ||c e12|| = c, where (c e12)*(c e12) overflows (c = 1e160, 1e300) or
    # underflows to 0 (c = 1e-170, 1e-300): the matrix is squared as
    # c e12 2^-e and its norm scaled back by 2^e, exactly
    assert spectral_norm(c * E12) == pytest.approx(c, rel=1e-15)
    assert spectral_norm(c * np.diag([1.0, -3.0])) == pytest.approx(
        3.0 * c, rel=1e-12)
    norms = isoalg.linalg.spectral_norms(
        np.array([c * E12, E12, c * np.eye(2)]))
    assert norms.tolist() == pytest.approx([c, 1.0, c], rel=1e-15)


@pytest.mark.parametrize("c", [1e160, 1e-170])
def test_herm_eig_refuses_a_far_scale_matrix_that_is_not_self_adjoint(c):
    # the self-adjointness defect of c e12 is its own norm, c: the test
    # sees it at every scale
    with pytest.raises(NotSelfAdjoint,
                       match=re.escape(f"defect {c:.3e} exceeds")):
        herm_eig(c * E12)
    w, _ = herm_eig(c * np.diag([1.0, -3.0]))
    assert w.tolist() == pytest.approx([-3.0 * c, c], rel=1e-15)


def test_spectral_norms_keep_the_bytes_of_an_in_range_stack():
    # inside [2^-128, 2^128] the exponent is 0 and no matrix is rescaled:
    # the norms are those of the bare eigensolve of m*m, bit for bit
    rng = np.random.default_rng(5)
    stack = (rng.standard_normal((6, 4, 4))
             + 1j * rng.standard_normal((6, 4, 4)))
    stack /= np.abs(stack).max(axis=(1, 2))[:, None, None]
    stack *= np.array([2.0 ** -128, 1e-30, 1.0, 1e30, 2.0 ** 127, 1.9])[
        :, None, None]
    bare = np.sqrt(np.maximum(np.linalg.eigvalsh(
        adjoint(stack) @ stack)[..., -1], 0.0))
    assert np.array_equal(isoalg.linalg.spectral_norms(stack), bare)
    assert [spectral_norm(m) for m in stack] == bare.tolist()
