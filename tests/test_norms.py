import numpy as np
import pytest

import isoalg as ia
from isoalg import (
    NormalForm,
    adjoint,
    check_sum_norm_estimates,
    gauge_invariance_check,
    norm_limit,
    random_normal_forms,
    sample_coefficient_bound,
    spectral_norm,
)
from isoalg.norms import (
    gauge_invariance_sample,
    norm_limit_sample,
    sum_norm_estimates_sample,
)


def test_coefficient_bound_zero_degree_equality(qdeform6):
    # a single degree-0 term realizes equality ||a_0|| = ||x||
    sys = qdeform6.system
    x = NormalForm(sys, {0: qdeform6.big_q})
    assert spectral_norm(x.coefficient(0)) == pytest.approx(
        spectral_norm(x.eval()), abs=1e-14)


def test_coefficient_bound_sampler(qdeform6):
    forms = random_normal_forms(qdeform6.system, 60, seed=1)
    rep = sample_coefficient_bound(qdeform6.system, forms, seed=1)
    assert rep.passed
    # the bound is exact for this model, not merely within tolerance
    assert all(d.value <= 1e-12 for d in rep.defects)


def test_coefficient_bound_deterministic(qdeform6):
    a = sample_coefficient_bound(
        qdeform6.system, random_normal_forms(qdeform6.system, 20, 5), seed=5)
    b = sample_coefficient_bound(
        qdeform6.system, random_normal_forms(qdeform6.system, 20, 5), seed=5)
    assert [d.value for d in a.defects] == [d.value for d in b.defects]


def test_sum_norm_estimates_single_element():
    # m = 1 reduces all four estimates to the C*-identity, with equality
    rng = np.random.default_rng(20)
    d = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rep = check_sum_norm_estimates([d])
    assert rep.passed
    assert all(x.value <= 1e-12 for x in rep.defects)


def test_sum_norm_estimates_projections():
    # d1 = diag(1,0), d2 = diag(0,1): ||d1+d2||^2 = 1 <= 2 ||sum dd*|| = 2
    d1 = np.diag([1.0, 0.0]).astype(complex)
    d2 = np.diag([0.0, 1.0]).astype(complex)
    total = d1 + d2
    assert spectral_norm(total) ** 2 == pytest.approx(1.0)
    assert 2 * spectral_norm(d1 @ adjoint(d1) + d2 @ adjoint(d2)) == \
        pytest.approx(2.0)
    assert check_sum_norm_estimates([d1, d2]).passed


def test_sum_norm_estimates_random():
    rep = sum_norm_estimates_sample(count=100, seed=2)
    assert rep.passed


def test_norm_limit_degree_zero_exact(qdeform6):
    # degree-0 forms: s_k = ||a_0|| exactly at every stage
    sys = qdeform6.system
    x = NormalForm(sys, {0: qdeform6.big_q})
    tr = norm_limit(x, 8)
    norm = spectral_norm(qdeform6.big_q)
    for s in tr.s_values:
        assert s == pytest.approx(norm, rel=1e-12)
    assert tr.direct_norm == pytest.approx(norm, rel=1e-12)


def test_norm_limit_shift(qdeform6):
    # x = U: xx* is a projection, so s_k = 1 = ||U|| exactly
    sys = qdeform6.system
    x = NormalForm(sys, {1: sys.proj_final(1)})
    tr = norm_limit(x, 8)
    assert tr.direct_norm == pytest.approx(1.0, rel=1e-12)
    for s in tr.s_values:
        assert s == pytest.approx(1.0, rel=1e-10)


def test_norm_limit_zero_form(qdeform6):
    tr = norm_limit(ia.zero_form(qdeform6.system), 8)
    assert tr.direct_norm == 0.0
    assert all(s == 0.0 for s in tr.s_values)


def test_norm_limit_schedule_and_sandwich(qdeform6):
    rng = np.random.default_rng(21)
    x = ia.random_normal_form(qdeform6.system, rng)
    star = sample_coefficient_bound(
        qdeform6.system, random_normal_forms(qdeform6.system, 20, 0), 0)
    tr = norm_limit(x, 8, star_report=star)
    assert tr.k_values == [1, 2, 4, 8]
    assert tr.property_star is True
    d = tr.direct_norm
    assert tr.sandwich_lo <= d * d * (1 + 1e-9)
    assert d * d <= tr.sandwich_hi * (1 + 1e-9)
    for k, s in zip(tr.k_values, tr.s_values):
        assert s <= d * (1 + 1e-9)
        bound = (4 * k * tr.max_degree + 1) ** (1.0 / (4 * k)) * s
        assert d <= bound * (1 + 1e-9)
    # monotone improvement is typical on this model
    assert abs(tr.s_values[-1] - d) <= abs(tr.s_values[0] - d) + 1e-12


def test_norm_limit_against_matrix_power_oracle(qdeform6):
    # in the q-model the degree-0 part of any element is its main matrix
    # diagonal, so every s_k can be recomputed from raw matrix powers,
    # independently of the normal-form arithmetic
    sys = qdeform6.system
    rng = np.random.default_rng(24)
    for _ in range(10):
        x = ia.random_normal_form(sys, rng)
        tr = norm_limit(x, 8)
        m = x.eval()
        nx = spectral_norm(m)
        if nx == 0.0:
            continue
        p = (m / nx) @ adjoint(m / nx)
        for k, s in zip(tr.k_values, tr.s_values):
            p = p @ p
            oracle = nx * spectral_norm(np.diag(np.diag(p))) ** (1.0 / (4 * k))
            assert s == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_norm_limit_sample_report(qdeform6):
    rep, traces = norm_limit_sample(
        random_normal_forms(qdeform6.system, 10, seed=3), seed=3)
    assert rep.passed
    assert len(traces) == 10
    doc = traces[0].to_json()
    assert set(doc) >= {"k_values", "s_values", "direct_norm",
                        "sandwich_lo", "sandwich_hi"}


def test_gauge_invariance(qdeform6):
    rng = np.random.default_rng(22)
    x = ia.random_normal_form(qdeform6.system, rng)
    rep = gauge_invariance_check(x, 16)
    assert rep.passed

    x0 = NormalForm(qdeform6.system, {0: qdeform6.big_q})
    rep = gauge_invariance_check(x0, 7)
    assert rep.defects[0].value <= 1e-14  # gauge acts trivially in degree 0

    rep = gauge_invariance_sample(
        qdeform6.system, random_normal_forms(qdeform6.system, 10, seed=4), seed=4)
    assert rep.passed


def _sum_norm_reference(mats, tol=1e-9):
    """The per-matrix body of check_sum_norm_estimates: one norm and one
    square root per matrix, summed in Python."""
    m = len(mats)
    rep = ia.ConditionReport("sum_norm_estimates")
    squares = {"dd*": [d @ adjoint(d) for d in mats],
               "d*d": [adjoint(d) @ d for d in mats]}
    lhs = spectral_norm(sum(mats)) ** 2
    for key in ("dd*", "d*d"):
        rhs = m * spectral_norm(sum(squares[key]))
        rep.add(f"||sum d||^2 <= m ||sum {key}||",
                (lhs - rhs) / max(1.0, rhs), tol)
    for label, key in (("|d|", "d*d"), ("sqrt(dd*)", "dd*")):
        lhs = spectral_norm(sum(ia.psd_sqrt(x) for x in squares[key])) ** 2
        rhs = spectral_norm(sum(squares[key])) / m
        rep.add(f"||sum {label}||^2 >= (1/m) ||sum {key}||",
                (rhs - lhs) / max(1.0, rhs), tol)
    return rep


@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (4, 1), (3, 3), (5, 8)])
def test_sum_norm_estimates_stack_matches_per_matrix_body(m, n):
    rng = np.random.default_rng(100 * m + n)
    for scale in (1e-3, 1.0, 1e3):
        stack = scale * (rng.standard_normal((m, n, n))
                         + 1j * rng.standard_normal((m, n, n)))
        got = check_sum_norm_estimates(stack)
        want = _sum_norm_reference(list(stack))
        assert [d.check for d in got.defects] == [d.check for d in want.defects]
        for g, w in zip(got.defects, want.defects):
            assert abs(g.value - w.value) <= 1e-12 * max(1.0, abs(w.value))


def test_sum_norm_estimates_report_signed_margins():
    # d1 = E12, d2 = E13: sum d*d = E22 + E33 (norm 1), sum dd* = 2 E11
    # (norm 2), sum |d| = E22 + E33 (norm 1), sum sqrt(dd*) = 2 E11 (norm 2),
    # ||d1 + d2||^2 = 2.  Each estimate pairs its own sides, so swapping the
    # two lower ones changes their margins (to 0 and -3.5).
    e = np.eye(3)
    d1, d2 = np.outer(e[0], e[1]), np.outer(e[0], e[2])
    rep = check_sum_norm_estimates([d1, d2])
    want = [(2 - 4) / 4, (2 - 2) / 2, (1 / 2 - 1) / 1, (2 / 2 - 4) / 1]
    assert [d.check for d in rep.defects] == list(ia.norms.SUM_NORM_ESTIMATES)
    for got, w in zip(rep.defects, want, strict=True):
        assert abs(got.value - w) <= 1e-12, (got.value, w)
    assert rep.passed


def test_sum_norm_sample_takes_the_worst_signed_margin():
    count, seed = 20, 3
    rep = sum_norm_estimates_sample(count=count, seed=seed)
    rng = np.random.default_rng(seed)
    worst, worst_multi, multi = np.full(4, -np.inf), np.full(4, -np.inf), 0
    for _ in range(count):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        z = rng.standard_normal((m, 2, n, n))
        sub = check_sum_norm_estimates(z[:, 0] + 1j * z[:, 1])
        worst = np.maximum(worst, [d.value for d in sub.defects])
        if m >= 2:
            worst_multi = np.maximum(worst_multi, [d.value for d in sub.defects])
            multi += 1
    # the shape-batched sampler gives the per-tuple values bit for bit
    assert [d.value for d in rep.defects[:4]] == list(worst)
    # m = 1 tuples meet every estimate with equality, so the worst margin
    # over a sample that draws one is rounding-sized, of either sign
    assert all(abs(d.value) <= 1e-12 for d in rep.defects[:4])
    # the m >= 2 lines follow, under the same labels
    assert 0 < multi < count
    assert [d.check for d in rep.defects[4:]] == [
        f"{label} ({multi} tuples with m >= 2)"
        for label in ia.norms.SUM_NORM_ESTIMATES]
    assert [d.value for d in rep.defects[4:]] == list(worst_multi)
    assert all(d.value < -1e-3 for d in rep.defects[4:])
    with pytest.raises(ValueError):
        sum_norm_estimates_sample(count=0, seed=seed)


def test_sum_norm_sample_without_multi_element_tuples():
    # a sample of one m = 1 tuple has no m >= 2 lines
    seed = next(s for s in range(100)
                if np.random.default_rng(s).integers(1, 6) == 1)
    rep = sum_norm_estimates_sample(count=1, seed=seed)
    assert [d.check for d in rep.defects] == [
        f"{label} (1 tuples)" for label in ia.norms.SUM_NORM_ESTIMATES]


@pytest.mark.parametrize("mats", [[], [np.eye(2), np.eye(3)],
                                  np.zeros((2, 2, 3))])
def test_sum_norm_estimates_rejects_bad_tuples(mats):
    with pytest.raises(ia.DimensionMismatch):
        check_sum_norm_estimates(mats)


def test_random_normal_forms_is_one_generator_of_draws(qdeform6):
    rng = np.random.default_rng(9)
    drawn = random_normal_forms(qdeform6.system, 6, seed=9)
    for x in drawn:
        y = ia.random_normal_form(qdeform6.system, rng)
        assert x.degrees() == y.degrees()
        assert np.array_equal(x.coefficients, y.coefficients)
    # a smaller count draws a prefix
    assert all(np.array_equal(x.coefficients, y.coefficients) for x, y in
               zip(random_normal_forms(qdeform6.system, 3, seed=9), drawn))
