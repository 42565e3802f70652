import json

import numpy as np
import pytest

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
