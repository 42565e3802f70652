import time

import numpy as np
import pytest

import isoalg as ia
import isoalg.expr as ex
import isoalg.normalform as nf
from isoalg import (
    CoefficientEscape,
    DimensionMismatch,
    InsufficientResolution,
    NotCoefficientAlgebra,
    NormalForm,
    NotUnimodular,
    ParseError,
    SystemMismatch,
    UnknownGenerator,
    adjoint,
    gauge,
    gauge_average,
    identity_form,
    left_coefficients,
    nf_add,
    nf_adjoint,
    nf_multiply,
    nf_scale,
    parse,
    reduce,
    spectral_norm,
    strip_power,
    zero_form,
)

from conftest import gauge_deviation_oracle


def eval_tree(node, u):
    """Independent tree-walking evaluator (the oracle for reduce)."""
    n = u.shape[0]
    if isinstance(node, ex.Scalar):
        return node.value * np.eye(n, dtype=complex)
    if isinstance(node, ex.Gen):
        return np.asarray(node.matrix, complex)
    if isinstance(node, ex.USym):
        return adjoint(u) if node.star else u
    if isinstance(node, ex.Sum):
        return sum(eval_tree(i, u) for i in node.items)
    if isinstance(node, ex.Prod):
        out = np.eye(n, dtype=complex)
        for i in node.items:
            out = out @ eval_tree(i, u)
        return out
    if isinstance(node, ex.Adj):
        return adjoint(eval_tree(node.item, u))
    if isinstance(node, ex.Pow):
        return np.linalg.matrix_power(eval_tree(node.item, u), node.exponent)
    raise TypeError(node)


@pytest.fixture(scope="module")
def qsys(qdeform6):
    return qdeform6.system


@pytest.fixture(scope="module")
def qtable(qdeform6):
    return {"Q": qdeform6.big_q, "rhoQ": qdeform6.rho_matrix}


def nf_allclose(x, y, tol=1e-10):
    degs = set(x.degrees()) | set(y.degrees())
    scale = max(x.scale(), y.scale(), 1.0)
    return all(np.linalg.norm(x.coefficient(k) - y.coefficient(k))
               <= tol * scale for k in degs)


# -- parser ------------------------------------------------------------------

def test_parse_structure(qsys, qtable):
    node = parse("U * U' * U", qsys, qtable)
    assert isinstance(node, ex.Prod) and len(node.items) == 3
    assert node.items[0] == ex.USym(False)
    assert isinstance(node.items[1], ex.Adj)

    node = parse("Q*U^2 + U'*Q", qsys, qtable)
    assert isinstance(node, ex.Sum) and len(node.items) == 2

    node = parse("(U')^3", qsys, qtable)
    assert isinstance(node, ex.Pow) and node.exponent == 3

    node = parse("2i*U - 1.5*Q", qsys, qtable)
    assert isinstance(node, ex.Sum)


def test_parse_rejects_negative_powers(qsys, qtable):
    with pytest.raises(ParseError):
        parse("U^(-1)", qsys, qtable)
    with pytest.raises(ParseError):
        parse("U^-1", qsys, qtable)


def test_parse_errors(qsys, qtable):
    with pytest.raises(ParseError) as err:
        parse("U + ", qsys, qtable)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("U $ Q", qsys, qtable)
    with pytest.raises(ParseError):
        parse("(U", qsys, qtable)
    with pytest.raises(UnknownGenerator):
        parse("U*zzz", qsys, qtable)


# -- reduce ------------------------------------------------------------------

@pytest.mark.parametrize("text, position", [
    ("1e400*U", 0), ("U*1e400 + U", 2), ("U + 2e999j", 4)])
def test_parse_rejects_a_literal_that_is_not_finite(qsys, qtable, text,
                                                    position):
    # a literal that overflows a float would become inf, and inf * U a
    # form of NaN coefficients
    with pytest.raises(ParseError, match="is not finite") as err:
        parse(text, qsys, qtable)
    assert err.value.position == position


def test_a_coefficient_that_overflows_is_named(qsys, qtable):
    # 1e200 * 1e200 overflows to inf, which the drop rule, inf > tol * inf,
    # would drop; the form would be zero
    n = qsys.dim
    with pytest.raises(ia.Overflow, match="coefficient at degree 0 overflows"):
        reduce(parse("1e200*1e200*U", qsys, qtable), qsys)
    big = NormalForm(qsys, {0: 1e150 * np.eye(n)})  # its square overflows
    with pytest.raises(ia.Overflow, match="coefficient at degree 0 overflows"):
        nf_multiply(big, big)
    bad = np.zeros((n, n))
    bad[0, 0] = np.inf
    with pytest.raises(ia.Overflow, match="at degree 0 overflows: its "
                                          "norm is inf"):
        NormalForm(qsys, {2: np.eye(n), 0: bad})


def test_reduce_shift_examples(qsys, qtable):
    nf = reduce(parse("U * U' * U", qsys, qtable), qsys)
    assert nf.degrees() == (1,)
    f1 = qsys.proj_final(1)
    assert np.allclose(nf.coefficient(1), f1)
    assert np.allclose(nf.eval(), qsys.u)

    nf = reduce(parse("U' * U", qsys, qtable), qsys)
    assert nf.degrees() == (0,)
    assert np.allclose(nf.coefficient(0), qsys.proj_initial(1))


def test_reduce_degree_zero_product(qsys, qtable):
    # (a U)(U* b) collapses to degree 0 with coefficient a delta(1) b
    a, b = qtable["Q"], qtable["rhoQ"]
    nf = reduce(parse("(Q*U) * (U'*rhoQ)", qsys, qtable), qsys)
    assert nf.degrees() == (0,)
    expected = a @ qsys.proj_final(1) @ b
    assert np.allclose(nf.coefficient(0), expected)


EXPRESSIONS = [
    "U",
    "U'",
    "U^2 * Q",
    "Q*U^2 + U'*rhoQ",
    "(Q*U + U'*rhoQ)' * (rhoQ*U^3 - 2.5*Q)",
    "(U*rhoQ)' * (U*rhoQ) + 1i*Q",
    "U*Q*U'*Q*U - Q^2*U",
    "(U + U')^3",
    "2 - Q + 0.5i*(U*Q*U*Q)",
]


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_reduce_faithful(qsys, qtable, text):
    node = parse(text, qsys, qtable)
    nf = reduce(node, qsys)
    direct = eval_tree(node, qsys.u)
    scale = max(1.0, np.linalg.norm(direct, 2))
    assert spectral_norm(nf.eval() - direct) <= 1e-10 * scale


def _random_expr_text(rng, depth, names):
    if depth == 0:
        choice = rng.integers(0, 4)
        if choice == 0:
            return "U"
        if choice == 1:
            return "U'"
        if choice == 2:
            return str(names[int(rng.integers(0, len(names)))])
        return f"{rng.integers(1, 4)}.{rng.integers(0, 10)}" + \
            ("i" if rng.integers(0, 2) else "")
    a = _random_expr_text(rng, depth - 1, names)
    b = _random_expr_text(rng, depth - 1, names)
    op = rng.integers(0, 5)
    if op == 0:
        return f"({a} + {b})"
    if op == 1:
        return f"({a} - {b})"
    if op == 2:
        return f"({a} * {b})"
    if op == 3:
        return f"({a})'"
    return f"({a})^{rng.integers(0, 4)}"


def test_reduce_faithful_fuzz(qsys, qtable, polar6):
    rng = np.random.default_rng(99)
    psys = polar6.system
    ptable = {"absa": polar6.abs_a}
    for sys_, table in ((qsys, qtable), (psys, ptable)):
        for _ in range(40):
            text = _random_expr_text(rng, int(rng.integers(1, 4)),
                                     sorted(table))
            node = parse(text, sys_, table)
            direct = eval_tree(node, sys_.u)
            nf = reduce(node, sys_)
            scale = max(1.0, np.linalg.norm(direct, 2))
            assert spectral_norm(nf.eval() - direct) <= 1e-10 * scale, text


def test_reduce_confluence(qsys, qtable):
    pairs = [
        ("U*U'*U", "U"),
        ("(Q*U)*U'", "Q*(U*U')"),
        ("(U'*Q)'", "Q*U"),
        ("U^3", "U*U*U"),
        ("(U+Q)*(U+Q)", "U*U + U*Q + Q*U + Q^2"),
    ]
    for left, right in pairs:
        a = reduce(parse(left, qsys, qtable), qsys)
        b = reduce(parse(right, qsys, qtable), qsys)
        assert nf_allclose(a, b), (left, right)


def test_reduce_takes_powers_by_squaring(qdeform12, cyclic5, monkeypatch):
    # U^e costs O(log e) products: on the q-model n = 12 (U^12 = 0) a huge
    # power is the zero form, and on cyclic5 U^(10^9) is the degree-10^9
    # form of the matrix power
    calls = []
    real = nf.nf_multiply
    monkeypatch.setattr(nf, "nf_multiply",
                        lambda x, y: calls.append(1) or real(x, y))
    q12 = qdeform12.system
    start = time.perf_counter()
    x = reduce(parse("U^100000000", q12, {}), q12)
    assert time.perf_counter() - start < 1.0
    assert x.degrees() == () and len(calls) <= 2 * 27
    calls.clear()
    x = reduce(parse("U^1000000000", cyclic5, {}), cyclic5)
    assert x.degrees() == (10 ** 9,) and len(calls) <= 2 * 30
    assert np.array_equal(x.eval(), np.linalg.matrix_power(cyclic5.u, 10 ** 9))


def test_a_degree_past_the_integer_range_overflows(cyclic5):
    # 2^62 squared is degree 2^63, which no 64-bit degree holds
    x = reduce(parse(f"U^{2 ** 62}", cyclic5, {}), cyclic5)
    assert x.degrees() == (2 ** 62,)
    for text in (f"U^{2 ** 63}", f"U^{2 ** 62} * U^{2 ** 62}",
                 f"U'^{2 ** 62} * U'^{2 ** 62}"):
        with pytest.raises(ia.Overflow, match="outside the range"):
            reduce(parse(text, cyclic5, {}), cyclic5)


E11 = np.diag([1.0, 0, 0, 0, 0]).astype(complex)
TOP = 2 ** 63 - 2  # the degree range is -TOP..TOP


@pytest.mark.parametrize("k, make", [
    (2 ** 63, lambda s, k: s.power(k)),
    (2 ** 63, lambda s, k: s.power_stack([1, k])),
    (2 ** 63, lambda s, k: strip_power(s, E11, k)),
    (2 ** 63, lambda s, k: NormalForm(s, {k: E11})),
    (-(2 ** 63), lambda s, k: NormalForm(s, {k: E11})),
    (TOP + 1, lambda s, k: NormalForm(s, E11[None], degrees=[k])),
    (2 ** 63, lambda s, k: NormalForm.from_json(
        {"degrees": [{"k": k, "coeff": ia.matrix_to_json(E11)}]}, s))],
    ids=["power", "power_stack", "strip_power", "NormalForm",
         "NormalForm_negative", "NormalForm_stack", "from_json"])
def test_an_integer_past_the_range_is_refused_where_it_enters(cyclic5, k,
                                                              make):
    # the value is named; no bare OverflowError from the int64 conversion
    with pytest.raises(ia.Overflow, match=f"{k} is outside the range"):
        make(cyclic5, k)


def test_the_range_ends_are_degrees(cyclic5):
    # on the permutation U, U^TOP = U^(TOP mod 5) exactly
    for k in (TOP, -TOP):
        x = NormalForm(cyclic5, {k: E11})
        assert x.degrees() == (k,)
        assert np.array_equal(strip_power(cyclic5, x.eval(), k), E11)


def test_product_holds_only_the_degrees_that_occur(cyclic5):
    # (U^k + U'^k)^2 has the degrees -2k, 0 and 2k; a product that held
    # every degree of -2k..2k took seconds at k = 10000
    k = 10000
    x = reduce(parse(f"U^{k} + U'^{k}", cyclic5, {}), cyclic5)
    start = time.perf_counter()
    y = nf_multiply(x, x)
    assert time.perf_counter() - start < 0.5
    assert y.degrees() == (-2 * k, 0, 2 * k)
    # on the permutation U every matrix of the product is exact
    u = np.linalg.matrix_power(cyclic5.u, k)
    s = u + adjoint(u)
    assert np.array_equal(y.eval(), s @ s)
    z = reduce(parse(f"(U^{k} + U'^{k})*(U^{k} + U'^{k})", cyclic5, {}),
               cyclic5)
    assert z.degrees() == y.degrees()
    assert np.array_equal(z.eval(), y.eval())


def test_reduce_refuses_broken_system(broken_system):
    with pytest.raises(NotCoefficientAlgebra):
        reduce(ex.USym(False), broken_system)
    with pytest.raises(NotCoefficientAlgebra):
        NormalForm(broken_system, {})


def test_generator_outside_algebra_escapes(qsys, qdeform6):
    # the model operator a = U rho(Q) is not a coefficient
    with pytest.raises(CoefficientEscape):
        reduce(ex.Gen("a", qdeform6.a), qsys)


# -- arithmetic --------------------------------------------------------------

def test_identity_and_involution(qsys):
    rng = np.random.default_rng(11)
    x = ia.random_normal_form(qsys, rng)
    assert nf_allclose(nf_multiply(x, identity_form(qsys)), x)
    assert nf_allclose(nf_multiply(identity_form(qsys), x), x)
    assert nf_allclose(nf_adjoint(nf_adjoint(x)), x)
    assert nf_allclose(nf_add(x, zero_form(qsys)), x)
    assert spectral_norm(nf_add(x, nf_scale(x, -1.0)).eval()) <= 1e-12


def test_degree_arithmetic(qsys, qtable):
    # (a1 U)(b1 U) lands in degree 2 with coefficient a1 delta(b1)
    a1, b1 = qtable["Q"], qtable["rhoQ"]
    x = NormalForm(qsys, {1: a1})
    y = NormalForm(qsys, {1: b1})
    z = nf_multiply(x, y)
    assert z.degrees() == (2,)
    oracle = (a1 @ qsys.power(1)) @ (b1 @ qsys.power(1))  # matrix product
    assert np.allclose(z.eval(), oracle)


def test_homomorphism_random(qsys):
    rng = np.random.default_rng(12)
    for _ in range(25):
        x = ia.random_normal_form(qsys, rng)
        y = ia.random_normal_form(qsys, rng)
        sc = max(1e-30, spectral_norm(x.eval()) * spectral_norm(y.eval()))
        assert spectral_norm(nf_multiply(x, y).eval()
                             - x.eval() @ y.eval()) <= 1e-10 * sc
        sc = max(1.0, spectral_norm(x.eval()) + spectral_norm(y.eval()))
        assert spectral_norm(nf_add(x, y).eval()
                             - (x.eval() + y.eval())) <= 1e-10 * sc
        assert spectral_norm(nf_adjoint(x).eval()
                             - adjoint(x.eval())) <= 1e-12 * max(1.0, x.scale())


def test_range_normalization_closure(qsys):
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = ia.random_normal_form(qsys, rng)
        y = ia.random_normal_form(qsys, rng)
        z = nf_multiply(x, y)
        for k in z.degrees():
            c = z.coefficient(k)
            f = qsys.proj_final(abs(k))
            renorm = c @ f if k > 0 else f @ c if k < 0 else c
            assert np.linalg.norm(renorm - c) <= 1e-12 * max(1.0, z.scale())


def test_system_mismatch(qsys, qdeform12):
    x = identity_form(qsys)
    y = identity_form(qdeform12.system)
    with pytest.raises(SystemMismatch):
        nf_multiply(x, y)


# -- coefficients and gauge --------------------------------------------------

def test_coefficient_examples(qsys, qtable):
    a0 = qtable["Q"]
    x = NormalForm(qsys, {0: a0})
    assert np.allclose(x.coefficient(0), a0)
    assert np.array_equal(x.coefficient(1), np.zeros((6, 6)))

    nf = reduce(parse("U", qsys, qtable), qsys)
    assert nf.degrees() == (1,)
    assert np.allclose(nf.coefficient(1), qsys.proj_final(1))


def test_adjoint_coefficient_relation(qsys):
    rng = np.random.default_rng(14)
    x = ia.random_normal_form(qsys, rng)
    y = nf_adjoint(x)
    for k in x.degrees():
        assert np.allclose(y.coefficient(-k), adjoint(x.coefficient(k)))


def test_gauge_examples(qsys):
    rng = np.random.default_rng(15)
    x = ia.random_normal_form(qsys, rng)
    assert nf_allclose(gauge(x, 1.0), x)
    lam = np.exp(0.7j)
    assert nf_allclose(gauge(gauge(x, lam), np.conj(lam)), x)

    y = NormalForm(qsys, {1: qsys.proj_final(1)})
    z = gauge(y, -1.0)
    assert np.allclose(z.coefficient(1), -y.coefficient(1))

    with pytest.raises(NotUnimodular):
        gauge(x, 1.1)


@pytest.mark.parametrize("lam", [float("nan"), complex(float("nan"), 0.0),
                                 complex(0.0, float("nan"))])
def test_gauge_refuses_a_nan_lam(qsys, lam):
    # a NaN modulus is not within 1e-12 of 1 either; refused here, it would
    # fail later as an Overflow naming a norm of nan
    x = ia.random_normal_form(qsys, np.random.default_rng(15))
    with pytest.raises(NotUnimodular, match=f"[|]lam[|] = {abs(lam)!r} is "
                                            f"not 1"):
        gauge(x, lam)


def test_gauge_average_examples(qsys, qtable):
    x = NormalForm(qsys, {0: qtable["Q"]})
    assert np.linalg.norm(gauge_average(x, 1, 5)) <= 1e-14
    assert np.allclose(gauge_average(x, 0, 5), qtable["Q"])

    rng = np.random.default_rng(16)
    y = ia.random_normal_form(qsys, rng)
    n_deg = y.max_degree
    with pytest.raises(InsufficientResolution):
        gauge_average(y, 0, max(1, 2 * n_deg))


def test_coefficient_oracle_agreement(qsys):
    rng = np.random.default_rng(17)
    for _ in range(15):
        x = ia.random_normal_form(qsys, rng)
        m = 2 * x.max_degree + 1
        scale = max(1.0, x.scale())
        for k in range(-x.max_degree, x.max_degree + 1):
            mono = gauge_average(x, k, m)
            got = strip_power(qsys, mono, k)
            assert np.linalg.norm(got - x.coefficient(k)) <= 1e-9 * scale


def test_left_coefficients(qsys):
    rng = np.random.default_rng(18)
    x = ia.random_normal_form(qsys, rng)
    left = left_coefficients(x)
    for k in x.degrees():
        if k >= 0:
            assert np.allclose(left[k], x.coefficient(k))
        else:
            lhs = left[k] @ qsys.star_power(-k)          # b U^{*|k|}
            rhs = qsys.star_power(-k) @ x.coefficient(k)  # U^{*|k|} a
            assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(1.0, x.scale())


def test_adjoint_intertwining_checker(qsys, broken_system):
    assert ia.check_adjoint_intertwining(qsys).passed
    assert not ia.check_adjoint_intertwining(broken_system).passed


def test_nf_json_roundtrip(qsys):
    rng = np.random.default_rng(19)
    x = ia.random_normal_form(qsys, rng)
    back = NormalForm.from_json(x.to_json(), qsys)
    assert nf_allclose(back, x, tol=1e-14)


@pytest.mark.parametrize("k", [1.5, True, False, "1", float("nan")])
def test_nf_json_refuses_a_degree_that_is_no_integer(qsys, k):
    coeff = ia.matrix_to_json(qsys.proj_final(1))
    with pytest.raises(DimensionMismatch,
                       match=f'degree "k" must be an integer, got {k!r}'):
        NormalForm.from_json({"degrees": [{"k": k, "coeff": coeff}]}, qsys)


def test_nf_json_refuses_a_repeated_degree_and_takes_an_integral_float(
        qsys):
    f1 = qsys.proj_final(1)
    terms = [{"k": 1, "coeff": ia.matrix_to_json(f1)},
             {"k": 1.0, "coeff": ia.matrix_to_json(2 * f1)}]
    with pytest.raises(DimensionMismatch, match="repeated degree"):
        NormalForm.from_json({"degrees": terms}, qsys)
    x = NormalForm.from_json({"degrees": terms[1:]}, qsys)
    assert x.degrees() == (1,)
    assert np.array_equal(x.coefficient(1), 2 * f1)


def test_coefficients_match_matrix_diagonals(qsys):
    # in the q-model the coefficient algebra is diagonal and U is the
    # superdiagonal shift, so the degree-k coefficient of x is exactly the
    # k-th matrix diagonal of eval(x); a fully independent oracle
    rng = np.random.default_rng(23)
    n = qsys.dim
    for _ in range(20):
        x = ia.random_normal_form(qsys, rng)
        m = x.eval()
        for k in range(-n + 1, n):
            expected = np.zeros((n, n), dtype=complex)
            for i in range(n - abs(k)):
                # a_k U^k puts a_k[i,i] on the k-th superdiagonal at (i, i+k);
                # U^{*|k|} a_k puts a_k[i,i] on the subdiagonal at (i+|k|, i)
                expected[i, i] = m[i, i + k] if k >= 0 else m[i - k, i]
            assert np.linalg.norm(x.coefficient(k) - expected) \
                <= 1e-10 * max(1.0, x.scale()), k


def test_wrong_shape_coefficient_is_a_dimension_mismatch(qsys):
    for k in (0, 1, -1):
        with pytest.raises(DimensionMismatch, match=f"degree {k}"):
            NormalForm(qsys, {k: np.eye(3)})
        with pytest.raises(DimensionMismatch):
            NormalForm(qsys, {k: np.ones((6, 5))})
    with pytest.raises(DimensionMismatch):
        NormalForm(qsys, np.zeros((2, 5, 5)), degrees=[0, 1])
    with pytest.raises(DimensionMismatch, match="repeated degree"):
        NormalForm(qsys, np.zeros((2, 6, 6)), degrees=[1, 1])


def test_stack_and_mapping_constructors_agree(qsys):
    rng = np.random.default_rng(30)
    x = ia.random_normal_form(qsys, rng)
    degrees = x.degrees()[::-1]
    stack = np.array([x.coefficient(k) for k in degrees])
    y = NormalForm(qsys, stack, degrees=degrees)
    assert y.degrees() == x.degrees()
    assert nf_allclose(y, x, tol=0.0)


# -- the product against the four product rules ------------------------------

def _term_product(system, j, c, k, d):
    """Product of two canonical single terms by the four product rules, as
    (degree, raw coefficient)."""
    if j >= 0 and k >= 0:
        return j + k, c @ system.delta_n(d, j)
    if j <= 0 and k <= 0:
        return j + k, system.delta_n(c, -k) @ d
    if j > 0:  # j > 0 > k
        b = -k
        if j <= b:
            return j + k, system.delta_n(c, b - j) @ system.proj_final(b) @ d
        return j + k, c @ system.proj_final(j) @ system.delta_n(d, j - b)
    # j < 0 < k
    a = -j
    return j + k, system.delta_star_n(c @ d, min(a, k))


def rule_product(x, y):
    """Reference product: every degree pair through the product rules."""
    acc = {}
    for j in x.degrees():
        for k in y.degrees():
            deg, c = _term_product(x.system, j, x.coefficient(j),
                                   k, y.coefficient(k))
            acc[deg] = acc[deg] + c if deg in acc else c
    return NormalForm(x.system, acc, drop_scale=x.scale() * y.scale())


# -- one product per degree against the per-matrix body ----------------------

def _sided_reference(stack, degrees, right, left):
    """The per-matrix body of the sided products: stack[i] @ right[i] where
    degrees[i] > 0 and left[i] @ stack[i] where degrees[i] < 0, with the
    factors gathered into (K, n, n) stacks, one per term."""
    out = np.array(stack, dtype=complex)
    pos, neg = degrees > 0, degrees < 0
    out[pos] = stack[pos] @ right[pos]
    out[neg] = left[neg] @ stack[neg]
    return out


@pytest.mark.parametrize("seed", [0, 7])
def test_sided_products_match_the_per_matrix_body(
        seed, qdeform12, polar6, certified_systems, raw_system,
        amplified_q12, cyclic5):
    # range normalization, monomials and strip_power over the coefficients
    # of 20 drawn forms: bit for bit on q12 and p6, within rounding of the
    # scale elsewhere
    exact = {"q12": qdeform12.system, "p6": polar6.system}
    close = {f"p6_rotated{s}": certified_systems[f"p6_rotated{s}"]
             for s in range(4)}
    close.update(raw_system=raw_system, amplified_q12=amplified_q12,
                 cyclic5=cyclic5)
    for name, system in {**exact, **close}.items():
        rng = np.random.default_rng(seed)
        draws = [ia.norms._draw(system, rng) for _ in range(20)]
        stack = system.algebra.project(np.concatenate(draws))
        degrees = np.concatenate([np.arange(len(z)) - len(z) // 2
                                  for z in draws])
        p = system.power_stack(np.abs(degrees))
        f = np.array([system.proj_final(k) for k in np.abs(degrees)])
        # a copy: the validation body normalizes its stack in place
        keep, normalized, _ = nf._canonical_terms(system, stack.copy(),
                                                  degrees, 0.0)
        pairs = [
            (normalized, _sided_reference(stack, degrees, f, f)[keep]),
            (nf._monomial_stack(system, stack, degrees),
             _sided_reference(stack, degrees, p, adjoint(p))),
            (nf._strip(system, stack, degrees),
             _sided_reference(stack, degrees, adjoint(p), p))]
        scale = np.linalg.norm(stack, axis=(1, 2)).max()
        for got, want in pairs:
            if name in exact:
                assert np.array_equal(got, want), name
            else:
                assert np.abs(got - want).max() <= 1e-14 * scale, name


def norm_limit_reference(x, k_max):
    """Reference norm limit: (yy*)^{2k}, y = x/||x||, by repeated squaring
    of the canonical form with nf_multiply; returns the s_k on the doubling
    schedule and the first-stage sandwich (lo, hi)."""
    direct = spectral_norm(x.eval())
    y = nf_scale(x, 1.0 / direct)
    p = nf_multiply(y, nf_adjoint(y))
    lo = direct * direct * spectral_norm(p.coefficient(0))
    s_values, k = [], 1
    while k <= k_max:
        p = nf_multiply(p, p)
        s_values.append(direct * spectral_norm(p.coefficient(0)) ** (1 / (4 * k)))
        k *= 2
    return s_values, lo, (2 * x.max_degree + 1) * lo


def test_norm_limit_matches_repeated_squaring(qdeform12, polar6, raw_system):
    rng = np.random.default_rng(35)
    for system in (qdeform12.system, polar6.system, raw_system):
        for _ in range(8):
            x = ia.random_normal_form(system, rng)
            if spectral_norm(x.eval()) == 0.0:
                continue
            tr = ia.norm_limit(x, 8)
            s_values, lo, hi = norm_limit_reference(x, 8)
            assert tr.s_values == pytest.approx(s_values, rel=1e-9)
            assert (tr.sandwich_lo, tr.sandwich_hi) == pytest.approx(
                (lo, hi), rel=1e-9)


def test_product_matches_the_product_rules(qdeform12, polar6, cyclic5):
    rng = np.random.default_rng(31)
    for system in (qdeform12.system, polar6.system, cyclic5):
        for _ in range(20):
            x = ia.random_normal_form(system, rng)
            y = ia.random_normal_form(system, rng)
            got, ref = nf_multiply(x, y), rule_product(x, y)
            scale = max(1.0, ref.scale())
            for k in set(got.degrees()) | set(ref.degrees()):
                assert np.linalg.norm(got.coefficient(k) - ref.coefficient(k)) \
                    <= 1e-12 * scale, (system, k)


def test_batched_gauge_deviation_matches_per_lam_loop(qdeform12, polar6,
                                                     cyclic5):
    rng = np.random.default_rng(32)
    for system in (qdeform12.system, polar6.system, cyclic5):
        for _ in range(10):
            x = ia.random_normal_form(system, rng)
            base = spectral_norm(x.eval())
            loop = max(abs(spectral_norm(gauge(x, np.exp(2j * np.pi * j / 16))
                                         .eval()) - base)
                       for j in range(16))
            worst, scale = gauge_deviation_oracle(x)  # 16 roots
            assert scale == max(1.0, base)
            assert abs(worst - loop) <= 1e-12 * scale


# -- a system whose U is not nilpotent ---------------------------------------

def test_oracles_on_a_non_nilpotent_system(cyclic5):
    # c01 (homomorphism) and c02 (gauge-average extraction) on the cyclic
    # shift, where products never vanish by nilpotency
    assert cyclic5.nilpotency_index is None
    rng = np.random.default_rng(33)
    for _ in range(100):
        x = ia.random_normal_form(cyclic5, rng)
        y = ia.random_normal_form(cyclic5, rng)
        ex, ey = x.eval(), y.eval()
        nx, ny = spectral_norm(ex), spectral_norm(ey)
        assert spectral_norm(nf_multiply(x, y).eval() - ex @ ey) \
            <= 1e-10 * nx * ny
        m = 2 * x.max_degree + 1
        for k in x.degrees():
            got = strip_power(cyclic5, gauge_average(x, k, m), k)
            assert np.linalg.norm(got - x.coefficient(k)) <= 1e-9 * x.scale()


def test_oracles_on_the_amplified_q_model(amplified_q12):
    # c01 (homomorphism) and c02 (gauge-average extraction) on a
    # non-commutative coefficient algebra, diagonal (x) M_2
    rng = np.random.default_rng(36)
    for _ in range(50):
        x = ia.random_normal_form(amplified_q12, rng)
        y = ia.random_normal_form(amplified_q12, rng)
        ex, ey = x.eval(), y.eval()
        nx, ny = spectral_norm(ex), spectral_norm(ey)
        assert spectral_norm(nf_multiply(x, y).eval() - ex @ ey) \
            <= 1e-10 * nx * ny
        m = 2 * x.max_degree + 1
        for k in x.degrees():
            got = strip_power(amplified_q12, gauge_average(x, k, m), k)
            assert np.linalg.norm(got - x.coefficient(k)) <= 1e-9 * x.scale()


def test_norm_limit_past_the_power_cache(cyclic5):
    # (xx*)^16 of a degree-4 form reaches degree 128, past the cached power
    # depth 2n + 4 = 14, in the canonical-form squaring of
    # norm_limit_reference.  Oracle: its degree-0 coefficient is the average
    # of the direct matrix powers (y_lam y_lam*)^{2k} over m > 128 roots of
    # unity, y_lam the matrix of x/||x|| gauged by lam.  U is not nilpotent,
    # so norm_limit itself refuses the system
    rng = np.random.default_rng(34)
    x = ia.random_normal_form(cyclic5, rng)
    while x.max_degree < 4:
        x = ia.random_normal_form(cyclic5, rng)
    with pytest.raises(ia.HypothesisViolated):
        ia.norm_limit(x, 8)
    s_values = norm_limit_reference(x, 8)[0]
    direct = spectral_norm(x.eval())
    m = 8 * 8 * 4 + 1
    lams = np.exp(2j * np.pi * np.arange(m) / m)
    ys = [gauge(x, lam).eval() / direct for lam in lams]
    for k, s in zip([1, 2, 4, 8], s_values):
        n0 = sum(np.linalg.matrix_power(y @ adjoint(y), 2 * k) for y in ys) / m
        want = direct * spectral_norm(n0) ** (1.0 / (4 * k))
        assert s == pytest.approx(want, rel=1e-9), k


def test_the_constructor_leaves_its_input_as_it_was(qdeform12):
    # the validation body range-normalizes in place, on a copy of the input:
    # F_1 a F_1 differs from a at degree -1
    system = qdeform12.system
    rng = np.random.default_rng(3)
    stack = system.algebra.project(rng.standard_normal((3, 12, 12)) + 0j)
    before = stack.copy()
    x = NormalForm(system, stack, degrees=[-1, 0, 2])
    assert not np.array_equal(x.coefficient(-1), before[0])
    assert np.array_equal(stack, before)
