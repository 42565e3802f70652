import tracemalloc
from functools import cached_property

import numpy as np
import pytest

import isoalg as ia
from isoalg.algebra import _span_defects, _svd_span, commutant
from isoalg.linalg import _frobenius_norms, spectral_norms
from isoalg.normalform import _canonical_terms

_acceptance_results = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1],
                                    report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, ok in _acceptance_results:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")


@pytest.fixture(scope="session")
def polar2():
    """Polar model of the 2x2 rank-one operator a = 2*e12."""
    return ia.build_polar_model(np.array([[0, 2], [0, 0]], complex))


def weighted_shift(n, base):
    """The n-dim weighted backward shift with weights base^{j/2},
    j = 1..n-1."""
    return ia.weighted_backward_shift([base ** (j / 2) for j in range(1, n)])


def polar_spec(a):
    """The "polar" model spec of the operator a."""
    return {"type": "polar", "a": ia.matrix_to_json(a)}


def qdeform_spec(n, q):
    """The "qdeform" model spec with the Heisenberg weight."""
    return {"type": "qdeform", "n": n, "q": q, "rho": "heisenberg"}


def system_spec(u, gens):
    """The raw "system" model spec of U and the generators."""
    return {"type": "system", "U": ia.matrix_to_json(u),
            "generators": [ia.matrix_to_json(g) for g in gens]}


@pytest.fixture(scope="session")
def polar6():
    """Polar model of a 6-dim weighted backward shift, weights q^{j/2}."""
    return ia.build_polar_model(weighted_shift(6, 0.5))


@pytest.fixture(scope="session")
def qdeform12():
    """The q-model at n = 12, q = 1/2 with the Heisenberg weight."""
    return ia.build_qdeform(12, 0.5, "heisenberg")


@pytest.fixture(scope="session")
def qdeform6():
    return ia.build_qdeform(6, 0.5, "heisenberg")


@pytest.fixture(scope="session")
def broken_system():
    """Negative control: the full 2x2 algebra with the shift unit; U*U is
    not central, so none of the coefficient conditions hold."""
    e12 = np.array([[0, 1], [0, 0]], complex)
    algebra = ia.generate_closure([e12])
    return ia.IsometrySystem(algebra, e12)


def cyclic5_spec():
    """A system whose U is not nilpotent: the cyclic shift on C^5 (unitary)
    with the diagonal algebra, which conjugation by U permutes."""
    return system_spec(np.roll(np.eye(5), 1, axis=0),
                       [np.diag(e) for e in np.eye(5)])


@pytest.fixture(scope="session")
def cyclic5():
    return ia.load_model(cyclic5_spec()).system


def cyclic3_shift4_spec():
    """A coefficient system whose U is not nilpotent but has a nilpotent
    part: the cyclic shift on C^3 plus the backward shift on C^4, with the
    diagonal algebra on C^7."""
    u = np.zeros((7, 7), complex)
    u[:3, :3] = np.roll(np.eye(3), 1, axis=0)
    u[3:, 3:] = ia.backward_shift(4)
    return system_spec(u, [np.diag(e) for e in np.eye(7)])


@pytest.fixture(scope="session")
def cyclic3_shift4():
    return ia.load_model(cyclic3_shift4_spec()).system


def traced_peak(fn):
    """fn's result and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def exact_chain_note(length):
    """The samplers' path note on a system whose chain model is one chain
    of ``length`` blocks with every premise exactly 0, as on the q-models
    of the Heisenberg weight."""
    return (f"chain model, chains: 1 of length {length}; premises: "
            "||V*V - I||_F = 0.000e+00, mass of V^-1 U V off sigma = "
            "0.000e+00, F_k block values off the chains' 0 or 1 = 0.000e+00")


def gauged_matrices(x, lams):
    """Oracle: the matrices of x gauged at every lam of ``lams``, as one
    (len(lams), n, n) stack: the phases lam^k applied to the monomial stack
    of x in one matrix product."""
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    n = x.system.dim
    phases = lams[:, None] ** np.asarray(x.degrees(), dtype=int)[None, :]
    return (phases @ x._monomials.reshape(-1, n * n)).reshape(-1, n, n)


def gauge_deviation_oracle(x, grid: int = 16):
    """Oracle: the worst | ||x_lam|| - ||x|| | over the grid-th roots of
    unity, with ||x|| measured here, and the scale max(1, ||x||)."""
    base = ia.spectral_norm(x.eval())
    lams = np.exp(2j * np.pi * np.arange(grid) / grid)
    norms = spectral_norms(gauged_matrices(x, lams))
    return float(np.abs(norms - base).max(initial=0.0)), max(1.0, base)


def norm_limit_stack_body(x, k_max):
    """Oracle: the one-form stack body of the norm limit, (||x||, s_k,
    sandwich lo, hi).  x/||x|| gauged at m roots of unity is one (m, n, n)
    stack, P = YY* is squared as matrices, and N_0 of every stage is the
    mean of the stack: exact Fourier extraction of degree 0 once m exceeds
    the degree of the last power, m = D + 1 with D = min(4 k_max N,
    nilpotency index - 1)."""
    direct = ia.spectral_norm(x.eval())
    schedule = [2 ** i for i in range(k_max.bit_length())]
    if direct == 0.0:
        return 0.0, [0.0] * len(schedule), 0.0, 0.0
    top = 4 * schedule[-1] * x.max_degree
    if x.system.nilpotency_index is not None:
        top = min(top, x.system.nilpotency_index - 1)
    m = top + 1
    y = gauged_matrices(x, np.exp(2j * np.pi * np.arange(m) / m)) / direct
    p = y @ ia.adjoint(y)
    n0 = [p.mean(axis=0)]
    for _ in schedule:
        p = p @ p
        n0.append(p.mean(axis=0))
    norms = spectral_norms(np.array(n0))
    lo = direct * direct * norms[0]
    s_values = [direct * s ** (1.0 / (4 * k))
                for k, s in zip(schedule, norms[1:])]
    return direct, s_values, lo, (2 * x.max_degree + 1) * lo


def dense_sampler_oracle(forms, stages: int = 4):
    """Oracle: what the samplers' dense path measures, on the forms'
    matrices: per form, ||x|| (one eigensolve of x.eval()), the norms of
    its coefficients (eigensolves of x.coefficients) and the norms of the
    norm limit's N_0 stages, N_0 of P = xx*/||x||^2 and of its ``stages``
    squares as matrices, N_0 the compression V (mask o V*YV) V* onto the
    eigenspaces of the gauge generator H = V diag(h) V*, mask_ij =
    [h_i = h_j].  No stage is rescaled, so ``stages`` stays small."""
    gen = forms[0].system.gauge_generator
    vecs, h = gen.vecs, gen.potentials
    mask = h[:, None] == h[None, :]
    rows = []
    for x in forms:
        m = x.eval()
        norm = ia.spectral_norm(m)
        coeffs = (spectral_norms(x.coefficients) if x.degrees()
                  else np.zeros(0))
        p = (m / norm) @ ia.adjoint(m / norm) if norm else 0.0 * m
        n0 = []
        for j in range(stages + 1):
            p = p @ p if j else p
            n0.append(vecs @ ((ia.adjoint(vecs) @ p @ vecs) * mask)
                      @ ia.adjoint(vecs))
        rows.append((norm, coeffs, spectral_norms(np.array(n0))))
    return rows


def dense_draw_oracle(system, count, seed):
    """Oracle: the dense draw on the raw draws of
    ``random_normal_forms(system, count, seed)``, one form at a time: the
    raw coefficients projected into the algebra, then range-normalized,
    dropped against the form's largest projected coefficient and tested
    for membership by the NormalForm validation body.  Per form, its
    degrees, coefficient stack and Frobenius norms."""
    rng = np.random.default_rng(seed)
    forms = []
    for _ in range(count):
        z = ia.norms._draw(system, rng)
        degrees = np.arange(len(z)) - len(z) // 2
        stack = system.algebra.project(z)
        scale = _frobenius_norms(stack).max()
        keep, stack, norms = _canonical_terms(system, stack, degrees, scale)
        forms.append((degrees[keep], stack, norms))
    return forms


def spans_equal(a, b, tol: float) -> tuple[bool, float]:
    """Oracle: mutual containment of the spans of two (K, n, n) stacks,
    each measured against an SVD basis of the other's span, relative to
    max(1, ||m||_F); returns (equal, worst defect)."""
    a, b = np.asarray(a), np.asarray(b)
    worst = 0.0
    for flat, stack in ((_svd_span(a), b), (_svd_span(b), a)):
        scale = np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
        worst = max(worst, float((_span_defects(flat, stack) / scale).max()))
    return worst <= tol, worst


def bicommutant(alg):
    """Oracle: the commutant of the commutant (the von Neumann algebra
    generated), from two commutant solves."""
    return commutant(commutant(alg.basis, alg.tol).basis, alg.tol)


def rotated(a, s):
    """Q a Q*, Q the unitary factor of the QR decomposition of a complex
    Gaussian matrix drawn with seed s."""
    n = len(a)
    rng = np.random.default_rng(s)
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    return q @ a @ ia.adjoint(q)


@pytest.fixture(scope="session")
def certified_systems(qdeform12, polar6, raw_system, amplified_q12):
    """The systems whose gauge generator certifies them, by name: q12, p6,
    p6 in four rotated bases, the q-models q = 0.9 and the polar models of
    the weighted shifts with weights 0.7^{j/2} at n = 8, 16, 24, and the
    non-commutative raw_system and amplified_q12."""
    p6 = weighted_shift(6, 0.5)
    systems = {"qdeform12": qdeform12.system, "polar6": polar6.system}
    for s in range(4):
        systems[f"p6_rotated{s}"] = ia.build_polar_model(rotated(p6, s)).system
    for n in (8, 16, 24):
        systems[f"q09_n{n}"] = ia.build_qdeform(n, 0.9, "heisenberg").system
        systems[f"polar07_n{n}"] = ia.build_polar_model(
            weighted_shift(n, 0.7)).system
    systems["raw_system"], systems["amplified_q12"] = raw_system, amplified_q12
    return systems


def raw_system_spec():
    """A raw system spec with a non-commutative coefficient algebra: the
    shift on C^3 tensored with the identity on C^2, and the algebra of
    diagonal matrices tensored with M_2."""
    shift = np.diag(np.ones(2), -1).astype(complex)
    units = [np.kron(np.diag(e), np.eye(2)) for e in np.eye(3)]
    e12 = np.kron(np.eye(3), np.array([[0, 1], [0, 0]]))
    return system_spec(np.kron(shift, np.eye(2)), units + [e12])


@pytest.fixture(scope="session")
def raw_system():
    system = ia.load_model(raw_system_spec()).system
    assert system.coefficient_report.passed
    assert system.algebra.dim == 12 and system.nilpotency_index == 3
    return system


def amplified_generators(n, q):
    """Generators Q (x) 1, 1 (x) sigma_x and 1 (x) sigma_z of the q-model on
    C^n amplified by M_2: Q = diag(q^0, ..., q^(n-1)) on the first factor,
    the full 2x2 algebra on the second."""
    big_q = np.diag(q ** np.arange(n))
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma_z = np.diag([1.0, -1.0])
    return [np.kron(big_q, np.eye(2)), np.kron(np.eye(n), sigma_x),
            np.kron(np.eye(n), sigma_z)]


def amplified_q12_spec():
    """The q-model n = 12, q = 1/2 amplified by M_2: U (x) 1 on
    C^12 (x) C^2, a non-commutative coefficient algebra (diagonal (x) M_2)."""
    return system_spec(np.kron(ia.backward_shift(12), np.eye(2)),
                       amplified_generators(12, 0.5))


@pytest.fixture(scope="session")
def amplified_q12():
    return ia.load_model(amplified_q12_spec()).system


def q6x2_spec():
    """The q-model n = 6, q = 1/2 amplified by the identity on C^2 (Q x 1
    with U x 1): commutative, with a spectral frame of blocks of rank 2."""
    i2 = np.eye(2)
    return system_spec(np.kron(ia.backward_shift(6), i2),
                       [np.kron(np.diag(0.5 ** np.arange(6)), i2)])


@pytest.fixture(scope="session")
def q6x2():
    system = ia.load_model(q6x2_spec()).system
    assert system.coefficient_report.passed
    assert (system.algebra.frame.ranks == 2).all()
    return system


def shifts4_2_spec():
    """The backward shifts on C^4 and on C^2 side by side, with the
    diagonal algebra on C^6: a certified frame system of two chains, of
    lengths 4 and 2."""
    u = np.zeros((6, 6), complex)
    u[:4, :4], u[4:, 4:] = ia.backward_shift(4), ia.backward_shift(2)
    return system_spec(u, [np.diag(np.arange(1.0, 7.0))])


def shift3_projection_spec():
    """A commutative system that is not commutatively extendable: the shift
    on C^3 with A = C*(P), P the projection onto (e1 + e2)/sqrt(2).  U*U =
    1 - e33 commutes with P but not with delta(P), the projection onto
    (e2 + e3)/sqrt(2), and neither does P."""
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    shift = np.diag(np.ones(2), -1).astype(complex)
    return system_spec(shift, [np.outer(v, v).astype(complex)])


@pytest.fixture(scope="session")
def shift3_projection():
    return ia.load_model(shift3_projection_spec()).system


def rotation_pi6_spec():
    """An extendable system whose delta tower is not commutative: U the
    rotation by pi/6 on C^2 with A = C*(diag(1, 0)).  U is unitary, so U*U =
    1 commutes with everything, but delta(A) does not commute with A, and
    the delta tower is M_2."""
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    return system_spec(np.array([[c, -s], [s, c]], complex),
                       [np.diag([1.0, 0.0]).astype(complex)])


@pytest.fixture(scope="session")
def rotation_pi6():
    return ia.load_model(rotation_pi6_spec()).system


def corner_shift9_spec():
    """The backward shift on C^9 with A = C*(e89 + e98): U*U commutes with
    delta^n(A) for n < 7 only, so the delta tower fails at stage 7."""
    x = np.zeros((9, 9), complex)
    x[7, 8] = x[8, 7] = 1.0
    return {"type": "system", "U": ia.matrix_to_json(np.diag(np.ones(8), 1)),
            "generators": [ia.matrix_to_json(x)]}


@pytest.fixture(scope="session")
def corner_shift9():
    return ia.load_model(corner_shift9_spec()).system


# The defects an IsometrySystem caches: each is measured once per system.
CACHED_DEFECTS = ("intertwining_defect", "uu_commutator_defect",
                  "multiplicativity_defect", "delta_invariance_defect",
                  "delta_star_invariance_defect")


def count_cached_defects(monkeypatch, names=CACHED_DEFECTS) -> dict:
    """Replace each cached property ``names`` of IsometrySystem, by default
    the cached defects, by one that counts the runs of the same body;
    returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(sys, name=name, body=vars(ia.IsometrySystem)[name].func):
            calls[name] += 1
            return body(sys)

        prop = cached_property(counted)
        prop.__set_name__(ia.IsometrySystem, name)
        monkeypatch.setattr(ia.IsometrySystem, name, prop)
    return calls
