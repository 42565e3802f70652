import re
import tracemalloc

import numpy as np
import pytest

import isoalg as ia
from isoalg import (
    NormalForm,
    adjoint,
    check_sum_norm_estimates,
    norm_limit,
    random_normal_forms,
    sample_coefficient_bound,
    spectral_norm,
)
from isoalg.linalg import spectral_norms
from isoalg.norms import (
    gauge_invariance_sample,
    norm_limit_sample,
    sum_norm_estimates_sample,
)

from conftest import (
    count_cached_defects,
    dense_draw_oracle,
    dense_sampler_oracle,
    exact_chain_note,
    gauge_deviation_oracle,
    gauged_matrices,
    norm_limit_stack_body,
    polar_spec,
    qdeform_spec,
    rotated,
    shifts4_2_spec,
    traced_peak,
    weighted_shift,
)

SAMPLERS = {"coefficient_bound": sample_coefficient_bound,
            "gauge_invariance": gauge_invariance_sample,
            "norm_limit": norm_limit_sample}


def test_coefficient_bound_zero_degree_equality(qdeform6):
    # a single degree-0 term realizes equality ||a_0|| = ||x||
    sys = qdeform6.system
    x = NormalForm(sys, {0: qdeform6.big_q})
    assert spectral_norm(x.coefficient(0)) == pytest.approx(
        spectral_norm(x.eval()), abs=1e-14)


def test_coefficient_bound_sampler(qdeform6):
    forms = random_normal_forms(qdeform6.system, 60, seed=1)
    rep = sample_coefficient_bound(qdeform6.system, forms)
    assert rep.passed
    # the bound is exact for this model, not merely within tolerance
    assert all(d.value <= 1e-12 for d in rep.defects)


def test_coefficient_bound_deterministic(qdeform6):
    a = sample_coefficient_bound(
        qdeform6.system, random_normal_forms(qdeform6.system, 20, 5))
    b = sample_coefficient_bound(
        qdeform6.system, random_normal_forms(qdeform6.system, 20, 5))
    assert [d.value for d in a.defects] == [d.value for d in b.defects]


def test_coefficient_bound_note_gives_the_largest_measured_degree(
        qdeform12, raw_system):
    # the note states the measured forms' largest degree, not the cap of
    # the draw; on raw_system U^3 = 0, so every drawn degree above 2 drops
    system = qdeform12.system
    x = next(x for x in random_normal_forms(system, 40, 0)
             if x.max_degree == 1)
    assert sample_coefficient_bound(system, [x]).notes == [
        "max degree = 1", exact_chain_note(12)]
    forms = random_normal_forms(raw_system, 50, 0)
    assert sample_coefficient_bound(raw_system, forms).notes == [
        "max degree = 2"]


@pytest.mark.parametrize("sampler", SAMPLERS.values(), ids=SAMPLERS)
def test_samplers_refuse_an_empty_sample(sampler, qdeform12, cyclic5):
    # over no form every sampler would pass, on cyclic5 without even its
    # hypothesis
    for system in (qdeform12.system, cyclic5):
        with pytest.raises(ValueError, match="forms is empty"):
            sampler(system, [])


@pytest.mark.parametrize("sampler", SAMPLERS.values(), ids=SAMPLERS)
def test_samplers_refuse_a_sample_of_zero_forms(sampler, qdeform6):
    # over forms with no stored coefficient coefficient_bound read -inf and
    # -0, and the other two passed at 0; a zero form among nonzero ones is
    # measured
    system = qdeform6.system
    for forms in ([ia.zero_form(system)], [ia.zero_form(system)] * 3):
        with pytest.raises(ValueError, match="every sampled form is zero"):
            sampler(system, forms)
    forms = random_normal_forms(system, 2, 0)
    forms.insert(1, ia.zero_form(system))
    rep = sampler(system, forms)
    if isinstance(rep, tuple):
        rep = rep[0]
    assert rep.defects and all(np.isfinite(d.value) for d in rep.defects)


@pytest.mark.parametrize("sampler", SAMPLERS.values(), ids=SAMPLERS)
def test_samplers_refuse_a_form_of_another_system(sampler, qdeform12,
                                                  qdeform6):
    # q09 at n = 12 has q12's dimension but another algebra; qdeform6 has
    # another dimension
    system = qdeform12.system
    q09 = ia.build_qdeform(12, 0.9, "heisenberg").system
    for other in (q09, qdeform6.system):
        forms = random_normal_forms(system, 3, 0)
        forms.insert(1, random_normal_forms(other, 1, 0)[0])
        with pytest.raises(ia.SystemMismatch):
            sampler(system, forms)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the certified gauge bound is "
                          "loose; rot09 n = 64 reads 4.44e-9 against tol "
                          "1e-9 at seed 0")
def test_gauge_invariance_passes_on_rot09_n64():
    # the polar model of the weighted shift with base 0.9 at n = 64 in the
    # seed-0 rotated basis is certified and sound; the sampled deviation
    # on the same forms is 1.7e-13
    system = ia.load_model(polar_spec(rotated(weighted_shift(64, 0.9),
                                              0))).system
    rep = gauge_invariance_sample(system, random_normal_forms(system, 200, 0))
    assert rep.passed, rep


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
    tr = norm_limit(x, 8)
    assert tr.k_values == [1, 2, 4, 8]
    d = tr.direct_norm
    assert tr.sandwich_lo <= d * d * (1 + 1e-9)
    assert d * d <= tr.sandwich_hi * (1 + 1e-9)
    for k, s in zip(tr.k_values, tr.s_values):
        assert s <= d * (1 + 1e-9)
        bound = (4 * k * tr.max_degree + 1) ** (1.0 / (4 * k)) * s
        assert d <= bound * (1 + 1e-9)
    # monotone improvement is typical on this model
    assert abs(tr.s_values[-1] - d) <= abs(tr.s_values[0] - d) + 1e-12


def test_norm_limit_rescales_the_stages_of_a_long_schedule(qdeform12):
    # the computed ||P|| is 1 only up to rounding, so stage 2^j drifts by
    # up to (1 + O(n eps))^(2^j): the long schedule rescales its late
    # stages by powers of two, keeps the unscaled values of the short one,
    # and ends at ||x|| to rounding
    system = qdeform12.system
    x = random_normal_forms(system, 1, 5)[0]
    short, long = norm_limit(x, 8), norm_limit(x, 2 ** 70)
    assert long.s_values[:4] == short.s_values
    _, e = ia.norms._compressed_n0([x], np.array([x.norm]),
                                   system.gauge_generator, 71)
    assert not e[0, :5].any() and e[0, -1] != 0
    assert long.s_values[-1] == pytest.approx(x.norm, rel=1e-12)


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
        qdeform6.system, random_normal_forms(qdeform6.system, 10, seed=3))
    assert rep.passed
    assert len(traces) == 10
    doc = traces[0].to_json()
    assert set(doc) >= {"k_values", "s_values", "direct_norm",
                        "sandwich_lo", "sandwich_hi"}


def test_gauge_invariance(qdeform6):
    rng = np.random.default_rng(22)
    x = ia.random_normal_form(qdeform6.system, rng)
    rep = gauge_invariance_sample(x.system, [x])
    assert rep.passed

    x0 = NormalForm(qdeform6.system, {0: qdeform6.big_q})
    rep = gauge_invariance_sample(x0.system, [x0])
    assert rep.defects[-1].value <= 1e-14  # gauge acts trivially in degree 0

    rep = gauge_invariance_sample(
        qdeform6.system, random_normal_forms(qdeform6.system, 10, seed=4))
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


def test_sum_norm_batch_of_one_dimension_matches_each_tuple():
    # tuples of sizes 1..5 and one dimension, as the sampler batches them:
    # the batch gives each tuple's check_sum_norm_estimates bit for bit,
    # and both agree with the per-matrix reference
    rng = np.random.default_rng(11)
    n, sizes = 4, [3, 1, 5, 2, 4, 1, 2]
    tuples = [rng.standard_normal((m, n, n)) + 1j * rng.standard_normal(
        (m, n, n)) for m in sizes]
    batch = ia.norms._sum_norm_margins(np.concatenate(tuples), sizes)
    assert batch.shape == (len(sizes), 4)
    for margins, mats in zip(batch, tuples, strict=True):
        got = check_sum_norm_estimates(mats)
        assert [d.value for d in got.defects] == list(margins)
        for g, w in zip(got.defects, _sum_norm_reference(list(mats)).defects,
                        strict=True):
            assert g.check == w.check
            assert abs(g.value - w.value) <= 1e-12 * max(1.0, abs(w.value))


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
        if m >= 2 and n >= 2:
            worst_multi = np.maximum(worst_multi, [d.value for d in sub.defects])
            multi += 1
    # the shape-batched sampler gives the per-tuple values bit for bit
    assert [d.value for d in rep.defects[:4]] == list(worst)
    # m = 1 tuples meet every estimate with equality, so the worst margin
    # over a sample that draws one is rounding-sized, of either sign
    assert all(abs(d.value) <= 1e-12 for d in rep.defects[:4])
    # the lines over m >= 2, n >= 2 follow, under the same labels
    assert 0 < multi < count
    assert [d.check for d in rep.defects[4:]] == [
        f"{label} ({multi} tuples with m >= 2, n >= 2)"
        for label in ia.norms.SUM_NORM_ESTIMATES]
    assert [d.value for d in rep.defects[4:]] == list(worst_multi)
    assert all(d.value < -1e-3 for d in rep.defects[4:])
    # for scalars |d| = sqrt(dd*), so the two lower estimates coincide;
    # without scalar tuples their worst margins differ, and a swap shows
    assert rep.defects[6].value != rep.defects[7].value
    with pytest.raises(ValueError):
        sum_norm_estimates_sample(count=0, seed=seed)


def test_sum_norm_sample_without_multi_element_tuples():
    # a sample of one m = 1 tuple has no m >= 2, n >= 2 lines
    seed = next(s for s in range(100)
                if np.random.default_rng(s).integers(1, 6) == 1)
    rep = sum_norm_estimates_sample(count=1, seed=seed)
    assert [d.check for d in rep.defects] == [
        f"{label} (1 tuples)" for label in ia.norms.SUM_NORM_ESTIMATES]


def sum_norm_margins_reference(stack, sizes):
    """``_sum_norm_margins`` with the square roots taken through the
    checked ``psd_sqrt``."""
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    dd, dsd = stack @ adjoint(stack), adjoint(stack) @ stack
    roots = ia.psd_sqrt(np.concatenate([dsd, dd]))
    sums = [np.add.reduceat(a, starts) for a in (
        stack, dd, dsd, roots[:len(stack)], roots[len(stack):])]
    n_sum, n_dd, n_dsd, n_abs, n_sqrt = spectral_norms(np.array(sums))
    upper = [(n_sum ** 2 - rhs) / np.maximum(1.0, rhs)
             for rhs in (sizes * n_dd, sizes * n_dsd)]
    lower = [(rhs - lhs ** 2) / np.maximum(1.0, rhs)
             for lhs, rhs in ((n_abs, n_dsd / sizes), (n_sqrt, n_dd / sizes))]
    return np.stack(upper + lower, axis=1)


@pytest.mark.parametrize("seed", range(5))
def test_sum_norm_margins_match_the_checked_square_roots(seed):
    # d*d and dd* are PSD as formed, so the bare square roots give what the
    # checked ones give, bit for bit, on the sampler's batches
    rng = np.random.default_rng(seed)
    dims = {}
    for _ in range(200):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        z = rng.standard_normal((m, 2, n, n))
        dims.setdefault(n, []).append(z[:, 0] + 1j * z[:, 1])
    for tuples in dims.values():
        stack, sizes = np.concatenate(tuples), [len(d) for d in tuples]
        assert np.array_equal(ia.norms._sum_norm_margins(stack, sizes),
                              sum_norm_margins_reference(stack, sizes))


@pytest.mark.parametrize("mats", [[], [np.eye(2), np.eye(3)],
                                  np.zeros((2, 2, 3))])
def test_sum_norm_estimates_rejects_bad_tuples(mats):
    with pytest.raises(ia.DimensionMismatch):
        check_sum_norm_estimates(mats)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_sum_norm_estimates_names_a_non_finite_entry(value):
    mats = np.ones((3, 2, 2), complex)
    mats[1, 0, 1] = complex(0.0, value)
    mats[2, 1, 0] = value
    with pytest.raises(ia.DimensionMismatch, match=(
            r"^matrix 1 entry \[0\]\[1\] is not a finite number, got ")):
        check_sum_norm_estimates(mats)


@pytest.mark.parametrize("scale", [1e200, 1e100, 1e77])
def test_sum_norm_estimates_refuses_a_tuple_whose_squares_overflow(scale):
    # at 1e200 d d* and d* d overflow; from 1e77 on the squares of their
    # sums, which the spectral norms form, do
    with pytest.raises(ia.Overflow, match=(
            rf"^entries up to {re.escape(f'{scale:.3e}')} overflow the "
            rf"sum-norm check: .* stays finite for t below 2\.434e\+76 at "
            rf"m = 2, n = 2$")):
        check_sum_norm_estimates(scale * np.ones((2, 2, 2)))


def test_sum_norm_estimates_take_every_tuple_below_the_bound():
    # the bound is reached by (1 + i) times the all-ones tuple: just below
    # it every margin is finite, with no RuntimeWarning
    for m, n in ((1, 1), (2, 3), (5, 8)):
        top = (np.finfo(float).max / (8.0 * m * m * n ** 4)) ** 0.25
        ones = np.full((m, n, n), 1 + 1j)
        rep = check_sum_norm_estimates(np.nextafter(top, 0) * ones)
        assert np.isfinite([d.value for d in rep.defects]).all()
        with pytest.raises(ia.Overflow):
            check_sum_norm_estimates(top * ones)


def test_sum_norm_estimates_keep_the_report_of_a_tiny_tuple():
    # the products underflow to zero: every estimate holds with equality
    rep = check_sum_norm_estimates(1e-200 * np.ones((2, 2, 2)))
    assert [d.value for d in rep.defects] == [0.0, 0.0, 0.0, 0.0]
    assert rep.passed


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


@pytest.mark.parametrize("coefficients", [1, 9, 40])
def test_random_normal_forms_validates_in_chunks(qdeform6, monkeypatch,
                                                 coefficients):
    # a budget below one form's coefficients still takes one form a chunk;
    # the chunks give the forms of one chunk, term for term
    system = qdeform6.system
    whole = random_normal_forms(system, 30, seed=4)
    chunks = []
    real = ia.norms._validated
    monkeypatch.setattr(ia.norms, "_validated", lambda sys, draws: (
        chunks.append([len(z) for z in draws]) or real(sys, draws)))
    monkeypatch.setattr(ia.norms, "DRAW_CHUNK_BYTES",
                        coefficients * 16 * system.dim ** 2)
    got = random_normal_forms(system, 30, seed=4)
    assert len(chunks) > 1 and sum(map(len, chunks)) == 30
    assert all(sum(c) <= coefficients or len(c) == 1 for c in chunks)
    for x, y in zip(got, whole, strict=True):
        assert x.degrees() == y.degrees()
        for a, b in ((x.coefficients, y.coefficients),
                     (x.eval(), y.eval()), (x._norms, y._norms)):
            assert np.array_equal(a, b)


def test_a_q09_draw_peaks_below_three_coefficient_stacks():
    # q09 n = 32: 200 forms hold about 16 MB of coefficients; on the chain
    # path the draw holds their block values
    _assert_the_draw_peaks_below_three_coefficient_stacks(
        ia.load_model(qdeform_spec(32, 0.9)).system)


def test_the_dense_draw_peaks_below_three_coefficient_stacks(amplified_q12):
    # the same on the dense draw, which only a frame-less system takes:
    # 200 forms of amplified_q12 (n = 24) hold about 8.8 MB of
    # coefficients, validated in one chunk, and the draw holds at most one
    # extra copy of the chunk at a time
    assert amplified_q12.algebra.frame is None
    _assert_the_draw_peaks_below_three_coefficient_stacks(amplified_q12)


def _assert_the_draw_peaks_below_three_coefficient_stacks(system):
    """The traced peak of a 200-form draw stays below three times the
    forms' coefficients, and a form keeps no monomial stack, which it
    forms on demand and which sums to its matrix, read-only."""
    system.algebra.basis  # formed on first use; not the draw's to count
    system.chains  # measured once, before the trace
    forms, peak = traced_peak(lambda: random_normal_forms(system, 200, 0))
    coefficient_bytes = sum(x.coefficients.nbytes for x in forms)
    assert peak < 3 * coefficient_bytes, (peak, coefficient_bytes)
    assert not any("_monomials" in vars(x) for x in forms)
    for x in forms:
        assert not x.eval().flags.writeable
        assert np.array_equal(x.eval(), x._monomials.sum(axis=0))


@pytest.mark.parametrize("chunk_matrices", [1, 7])
def test_the_samplers_in_chunks_report_as_one_stack(
        certified_systems, monkeypatch, chunk_matrices):
    # ||x|| stacks the forms' matrices, the coefficient bound the
    # coefficients and the norm limit its N_0 stages (on the chain systems
    # q12 and p6_rotated0 the chain matrices and their squares), in chunks
    # of DRAW_CHUNK_BYTES: one form a chunk at the least, else a few; the
    # reports and traces are those of one chunk
    for name in ("qdeform12", "p6_rotated0", "raw_system"):
        system = certified_systems[name]
        forms = random_normal_forms(system, 40, 3)
        unmeasured = random_normal_forms(system, 40, 3)
        whole = (sample_coefficient_bound(system, forms).to_json(),
                 norm_limit_sample(system, forms))
        with monkeypatch.context() as m:
            m.setattr(ia.norms, "DRAW_CHUNK_BYTES",
                      chunk_matrices * 16 * system.dim ** 2)
            got = (sample_coefficient_bound(system, unmeasured).to_json(),
                   norm_limit_sample(system, unmeasured))
        assert [x.norm for x in unmeasured] == [x.norm for x in forms], name
        assert got[0] == whole[0], name
        assert got[1][0].to_json() == whole[1][0].to_json(), name
        assert [t.to_json(include_form=False) for t in got[1][1]] == [
            t.to_json(include_form=False) for t in whole[1][1]], name


# -- per-form references for the batched samplers ----------------------------

def _close(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def _coefficient_bound_reference(forms):
    """The per-form loop of sample_coefficient_bound: the worst ||a_0|| - ||x||
    and max_k ||a_k|| - ||x||, one norm of x and one coefficient stack per
    form."""
    worst_zero = worst_any = -np.inf
    for x in forms:
        norm_x = spectral_norm(x.eval())
        margins = spectral_norms(x.coefficients) - norm_x
        worst_zero = max(worst_zero, -norm_x,
                         *margins[np.asarray(x.degrees()) == 0])
        worst_any = max(worst_any, margins.max(initial=-np.inf))
    return worst_zero, worst_any


def test_coordinate_norms_within_the_frame_bound(certified_systems, cyclic5,
                                                 q6x2):
    # | ||a|| - max_i |v_i| | <= dist(a, A) + ||E|| max_i |v_i| for the
    # block values v, E = V*V - I, up to the rounding of the two norms
    systems = {name: system for name, system in certified_systems.items()
               if system.algebra.frame is not None}
    assert len(systems) == 12
    systems.update(cyclic5=cyclic5, q6x2=q6x2)
    for name, system in systems.items():
        alg = system.algebra
        stack = np.concatenate([x.coefficients for x in
                                random_normal_forms(system, 40, seed=3)])
        got = np.abs(alg.block_values(stack)).max(axis=1, initial=0.0)
        want = spectral_norms(stack)
        e = spectral_norm(alg._frame_gram - np.eye(system.dim))
        bound = alg.span_defects(stack) + e * got
        slack = 1e-14 * np.maximum(1.0, want)
        assert (np.abs(got - want) <= bound + slack).all(), name


@pytest.mark.parametrize("seed", [0, 7])
def test_coefficient_bound_without_a_frame_is_the_eigensolve_path(
        seed, raw_system, amplified_q12):
    # without a frame every coefficient norm is an eigensolve: the report's
    # values are the per-form reference's, bit for bit
    for system in (raw_system, amplified_q12):
        assert system.algebra.frame is None
        forms = random_normal_forms(system, 200, seed)
        rep = sample_coefficient_bound(system, forms)
        assert [d.value for d in rep.defects[1:]] == list(
            _coefficient_bound_reference(forms))


def _certified_bound_reference(x):
    """pi sum_k (|k| eps + sqrt(d) eta) ||a_k||_F, one degree at a time."""
    system = x.system
    gen = system.gauge_generator
    root_d = np.sqrt(system.algebra.dim)
    return np.pi * sum(
        (abs(k) * gen.residual + root_d * gen.commutation)
        * np.linalg.norm(x.coefficient(k)) for k in x.degrees())


def _norm_limit_defects(forms, rows, k_values):
    """The four worst values of norm_limit_sample from reference rows."""
    lower = upper = sandwich = conv = 0.0
    for x, (d, s_values, lo, hi) in zip(forms, rows):
        if d == 0.0:
            continue
        for k, s in zip(k_values, s_values):
            lower = max(lower, (s - d) / d)
            bound = (4 * k * x.max_degree + 1) ** (1.0 / (4 * k)) * s
            upper = max(upper, (d - bound) / d)
        sandwich = max(sandwich, (lo - d * d) / (d * d), (d * d - hi) / (d * d))
        conv = max(conv, abs(s_values[-1] - d) / d)
    return [lower, upper, sandwich, conv]


@pytest.mark.parametrize("seed", [0, 7])
def test_samplers_match_their_per_form_references(seed, qdeform12, polar6,
                                                  raw_system):
    for system in (qdeform12.system, polar6.system, raw_system):
        forms = random_normal_forms(system, 200, seed)
        star = sample_coefficient_bound(system, forms)
        for got, want in zip(star.defects[1:],
                             _coefficient_bound_reference(forms), strict=True):
            _close(got.value, want)

        gauge = gauge_invariance_sample(system, forms)
        sampled = max(dev / scale for dev, scale in
                      (gauge_deviation_oracle(x) for x in forms))
        bound = max(_certified_bound_reference(x) / max(1.0, x.norm)
                    for x in forms)
        _close(gauge.defects[-1].value, bound)
        assert sampled <= bound + 1e-13

        rep, traces = norm_limit_sample(system, forms[:50])
        rows = [norm_limit_stack_body(x, 8) for x in forms[:50]]
        for tr, (d, s_values, lo, hi) in zip(traces, rows, strict=True):
            assert tr.k_values == [1, 2, 4, 8]
            for got, want in zip([tr.direct_norm, tr.sandwich_lo,
                                  tr.sandwich_hi, *tr.s_values],
                                 [d, lo, hi, *s_values], strict=True):
                _close(got, want)
        for got, want in zip(rep.defects, _norm_limit_defects(
                forms[:50], rows, [1, 2, 4, 8]), strict=True):
            _close(got.value, want)


# -- batch edges ---------------------------------------------------------------

def _mixed_forms(system):
    """A zero form, two degree-0 forms (one root) and random forms of every
    maximum degree 1..MAX_SAMPLE_DEGREE, interleaved."""
    n = system.dim
    rng = np.random.default_rng(40)
    by_degree = {}
    while len(by_degree) < ia.norms.MAX_SAMPLE_DEGREE:
        x = ia.random_normal_form(system, rng)
        if x.max_degree > 0:
            by_degree.setdefault(x.max_degree, []).append(x)
    diag = np.diag(np.arange(1.0, n + 1))
    forms = [by_degree[4][0], ia.zero_form(system), NormalForm(system, {0: diag}),
             by_degree[1][0], NormalForm(system, {0: -2j * np.eye(n)})]
    for k in (3, 2, 1):
        forms += by_degree[k][:2]
    return forms


def test_norm_limit_batch_matches_one_form_at_a_time(qdeform12,
                                                     amplified_q12):
    for system in (qdeform12.system, amplified_q12):
        forms = _mixed_forms(system)
        _, traces = norm_limit_sample(system, forms)
        for x, tr in zip(forms, traces, strict=True):
            alone = norm_limit(x, 8)
            assert (tr.s_values, tr.direct_norm, tr.sandwich_lo,
                    tr.sandwich_hi, tr.max_degree) == (
                alone.s_values, alone.direct_norm, alone.sandwich_lo,
                alone.sandwich_hi, alone.max_degree)
            d, s_values, lo, hi = norm_limit_stack_body(x, 8)
            for got, want in zip([tr.direct_norm, tr.sandwich_lo,
                                  tr.sandwich_hi, *tr.s_values],
                                 [d, lo, hi, *s_values], strict=True):
                _close(got, want)
        assert traces[1].s_values == [0.0] * 4


def _poison(monkeypatch, algebra, matrices):
    """Make span_defects report a defect of 1 more for the given matrices."""
    real = algebra.span_defects

    def span_defects(stack):
        defects = real(stack)
        for t in matrices:
            hit = np.abs(stack - t).max(axis=(1, 2)) <= 1e-12 * np.abs(t).max()
            defects[hit] += 1.0
        return defects
    monkeypatch.setattr(algebra, "span_defects", span_defects)


def _stage_n0(x, stage):
    """N_0 of (xx*)^(2^stage) for x/||x||, as norm_limit takes it."""
    system = x.system
    return ia.norms._compressed_n0([x], np.array([x.norm]),
                                   system.gauge_generator, 4)[0][0, stage]


def _raised(fn, *args):
    with pytest.raises(ia.IsoalgError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_norm_limit_batch_raises_for_the_first_offending_form(amplified_q12,
                                                              monkeypatch):
    # the membership guard of the dense stages, on a system without a
    # frame; a chain system's N_0 is block-scalar by construction
    system = amplified_q12
    forms = _mixed_forms(system)
    deg1, deg2 = forms[3], forms[-3]
    _poison(monkeypatch, system.algebra,
            [_stage_n0(deg1, 0), _stage_n0(deg2, 2)])
    cases = {"deg1": deg1, "deg2": deg2}
    alone = {name: _raised(norm_limit, x, 8) for name, x in cases.items()}
    assert alone["deg1"] == (ia.CoefficientEscape, "N_0[xx*] is outside the "
                             "algebra (defect 1.000e+00)")
    assert alone["deg2"][1].startswith("N_0[(xx*)^4] is outside")
    # the forms are guarded as one stack; the error is the one of the
    # first offending form in input order
    for first, second in (("deg2", "deg1"), ("deg1", "deg2")):
        sample = [forms[0], forms[2], cases[first], forms[4], cases[second]]
        assert _raised(norm_limit_sample, system, sample) == alone[first]


@pytest.mark.parametrize("chunk_matrices", [5, 10])
def test_norm_limit_in_chunks_raises_for_the_first_offending_form(
        amplified_q12, monkeypatch, chunk_matrices):
    # the same with the N_0 stacks in chunks of one or two forms (five
    # stages each at k_max = 8)
    monkeypatch.setattr(ia.norms, "DRAW_CHUNK_BYTES",
                        chunk_matrices * 16 * amplified_q12.dim ** 2)
    test_norm_limit_batch_raises_for_the_first_offending_form(amplified_q12,
                                                              monkeypatch)


def test_canonical_terms_names_the_escaping_degree_in_a_batch(qdeform12):
    # three forms' terms in one stack; the model operator a = U rho(Q) is
    # not a coefficient, at degree 2 of the second form and 3 of the third,
    # and a zero coefficient ahead of them is dropped
    system = qdeform12.system
    rng = np.random.default_rng(41)
    z = rng.standard_normal((9, 12, 12)) + 1j * rng.standard_normal((9, 12, 12))
    stack = system.algebra.project(z)
    stack[5] = stack[6] = qdeform12.a
    stack[1] = 0.0
    degrees = np.array([-1, 0, 1, 0, 1, 2, 3, -3, 0])
    scale = np.linalg.norm(stack, axis=(1, 2)).reshape(3, 3).max(axis=1)
    with pytest.raises(ia.CoefficientEscape) as batch:
        ia.normalform._canonical_terms(system, stack.copy(), degrees,
                                       np.repeat(scale, 3))
    with pytest.raises(ia.CoefficientEscape) as single:
        NormalForm(system, stack[3:6], degrees=degrees[3:6])
    assert str(batch.value) == str(single.value)
    assert str(batch.value).startswith("coefficient at degree 2 is outside")


# -- the certified path: a gauge generator -----------------------------------

def test_compressed_norm_limit_matches_the_stack_body(certified_systems):
    for name, system in certified_systems.items():
        forms = random_normal_forms(system, 20, 0)
        _, traces = norm_limit_sample(system, forms)
        for x, tr in zip(forms, traces, strict=True):
            d, s_values, lo, _ = norm_limit_stack_body(x, 8)
            _close(tr.direct_norm, d)
            for got, want in zip(tr.s_values, s_values, strict=True):
                assert abs(got - want) <= 1e-14 * want, (name, got, want)
            # ||N_0(xx*)|| is not damped by a root 1/4k as s_k is: the
            # rounding of a rotated basis (eps up to 1.1e-14) shows in full
            assert abs(tr.sandwich_lo - lo) <= 1e-13 * lo, (name, lo)


def test_sampled_gauge_deviation_is_within_the_certified_bound(
        certified_systems):
    # the bound holds on the whole circle, not only at the 16 roots
    rng = np.random.default_rng(50)
    lams = np.exp(1j * rng.uniform(-np.pi, np.pi, 16))
    for name, system in certified_systems.items():
        n = system.dim
        forms = random_normal_forms(system, 30, 0)
        rep = gauge_invariance_sample(system, forms)
        assert [d.check for d in rep.defects] == [
            "gauge generator: ||[H, U] - U||",
            "gauge generator: max ||[H, b_i]||",
            "norm deviation bound over the circle, 30 samples"]
        # a frame system's note names its chain: one of length n here
        notes = rep.notes[:1] + [note for note in rep.notes[1:]
                                 if note.startswith("chain model, chains: "
                                                    f"1 of length {n}; ")]
        assert rep.notes == notes and notes[0] == (
            "certified by a gauge generator"), name
        assert len(notes) == (1 if system.algebra.frame is None else 2), name
        assert rep.passed and {d.tol for d in rep.defects} == {system.tol}
        worst = 0.0
        for x in forms:
            bound = _certified_bound_reference(x)
            worst = max(worst, bound / max(1.0, x.norm))
            for dev in (gauge_deviation_oracle(x)[0],
                        np.abs(spectral_norms(gauged_matrices(x, lams))
                               - x.norm).max()):
                assert dev <= bound + 1e-13 * max(1.0, x.norm), (name, dev)
        _close(rep.defects[-1].value, worst)


def test_compressed_norm_limit_guards_every_stage(amplified_q12, monkeypatch):
    # the membership guard of the stack path runs on the compressed N_0:
    # poison stage 2 of one form, and the sample raises what it alone gives
    system = amplified_q12
    forms = random_normal_forms(system, 6, 3)
    x = forms[4]
    n0, _ = ia.norms._compressed_n0([x], np.array([x.norm]),
                                    system.gauge_generator, 4)
    _poison(monkeypatch, system.algebra, [n0[0, 2]])
    alone = _raised(norm_limit, x, 8)
    assert alone == (ia.CoefficientEscape, "N_0[(xx*)^4] is outside the "
                     "algebra (defect 1.000e+00)")
    assert _raised(norm_limit_sample, system, forms) == alone


# -- the decided hypothesis: no certificate, no sample --------------------------

def _witness(system):
    """The exact witness against the coefficient bound on the systems whose
    U is not nilpotent: x = e U^p - e with e the projection onto the cyclic
    part and p its length, which evaluates to 0 while ||a_0|| = 1."""
    if system.dim == 5:  # the cyclic shift: U^5 - 1
        e, p = np.eye(5), 5
    else:  # the cyclic shift on C^3 plus the backward shift on C^4
        e, p = np.diag([1.0, 1, 1, 0, 0, 0, 0]), 3
    return NormalForm(system, {p: e, 0: -e})


@pytest.mark.parametrize("name", ["cyclic5", "cyclic3_shift4"])
def test_the_bound_fails_exactly_where_the_generator_refuses(request, name):
    system = request.getfixturevalue(name)
    assert system.coefficient_report.passed
    assert system.nilpotency_index is None and system.gauge_generator is None
    assert system.gauge_candidate.residual == pytest.approx(1.0, abs=1e-12)
    x = _witness(system)
    assert x.degrees() == (0, x.max_degree)
    assert not x.eval().any()
    assert spectral_norm(x.coefficient(0)) == 1.0


@pytest.mark.parametrize("name", ["cyclic5", "cyclic3_shift4"])
def test_samplers_report_the_refused_generator_and_measure_nothing(
        request, name, monkeypatch):
    system = request.getfixturevalue(name)
    forms = random_normal_forms(system, 20, 0)

    def measured(*args):
        raise AssertionError("a sampler measured an uncertified system")
    for body in ("_operator_norms", "_compressed_n0", "_certified_deviations"):
        monkeypatch.setattr(ia.norms, body, measured)
    monkeypatch.setattr(ia.norms, "_coefficient_norms", measured)
    star = sample_coefficient_bound(system, forms)
    gauge = gauge_invariance_sample(system, forms)
    limit, traces = norm_limit_sample(system, forms, k_max=8)
    assert traces == []
    for rep, report_name in ((star, "coefficient_bound"),
                             (gauge, "gauge_invariance"),
                             (limit, "norm_limit")):
        assert rep.name == report_name and rep.notes == []
        assert [(d.check, d.ok) for d in rep.defects] == [
            ("hypothesis: coefficient algebra", True),
            ("hypothesis: gauge generator ||[H, U] - U||", False)]
        assert rep.defects[1].value == pytest.approx(1.0, abs=1e-12)
        assert rep.defects[1].tol == system.tol
    with pytest.raises(ia.HypothesisViolated) as info:
        norm_limit(_witness(system), 8)
    assert info.value.report.to_json() == limit.to_json()


def test_a_nilpotent_system_with_a_failed_certificate_reports_eta(
        qdeform12, monkeypatch):
    # no system here is nilpotent with a certificate that fails at tol;
    # fake one by a commutation defect above tol: the report names
    # eps, which passes, then eta, and ends there
    system = ia.IsometrySystem(qdeform12.system.algebra, qdeform12.system.u)
    gen = system.gauge_candidate._replace(commutation=3e-9)
    monkeypatch.setitem(vars(system), "gauge_candidate", gen)
    monkeypatch.setitem(vars(system), "gauge_generator", None)
    rep = ia.norms.sampler_hypothesis(system, "gauge_invariance")
    assert [(d.check, d.value, d.ok) for d in rep.defects] == [
        ("hypothesis: coefficient algebra", 0.0, True),
        ("hypothesis: gauge generator ||[H, U] - U||", gen.residual, True),
        ("hypothesis: gauge generator max ||[H, b_i]||", 3e-9, False)]
    x = random_normal_forms(system, 1, 0)[0]
    with pytest.raises(ia.HypothesisViolated):
        norm_limit(x, 8)


def test_the_sampler_hypothesis_keeps_no_power_of_u():
    # the gauge candidate's sum of the U^{*k}U^k and the nilpotency index
    # come from one walk that holds one power at a time: on q09 n = 64
    # (index 64) the hypothesis leaves the build's two cached powers and
    # retains the generator and one n x n sum, about 0.13 MiB; a cache
    # grown to the index would hold 65 powers, 4 MiB
    system = ia.build_qdeform(64, 0.9, "heisenberg").system
    cached = len(system._powers)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = ia.norms.sampler_hypothesis(system, "coefficient_bound")
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert rep.passed and system.nilpotency_index == 64
    assert len(system._powers) == cached
    assert retained < 2 ** 20


# -- the chain path: certified frame systems -----------------------------------

def _rel(got, want, name):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape, name
    assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all(), (
        name, got, want)


@pytest.fixture(scope="module")
def chain_fixtures(certified_systems, qdeform6, q6x2):
    """The certified frame systems the chain path is checked on, by name:
    q12, q6, p6, p6 in four rotated bases, q09 and polar07 at n = 24,
    q6x2, whose blocks have rank 2, and the two chains of shifts4_2."""
    names = ["qdeform12", "polar6", "q09_n24", "polar07_n24"] + [
        f"p6_rotated{s}" for s in range(4)]
    systems = {name: certified_systems[name] for name in names}
    systems["qdeform6"], systems["q6x2"] = qdeform6.system, q6x2
    systems["shifts4_2"] = ia.load_model(shifts4_2_spec()).system
    return systems


@pytest.fixture(scope="module")
def failed_premise_frame():
    """V = (1 + 4.5e-10) I with the backward shift on C^6: a frame whose
    invariants pass at tol 1e-9, with ||V*V - I||_F = 2.2e-9 > tol, so
    the chain model's first premise fails."""
    alg = ia.FiniteStarAlgebra(ia.algebra.Frame(
        (1.0 + 4.5e-10) * np.eye(6, dtype=complex), np.ones(6, int)))
    return ia.IsometrySystem(alg, ia.backward_shift(6))


@pytest.fixture(scope="module")
def frame_systems(certified_systems, chain_fixtures, rotated_frames, cyclic5,
                  cyclic3_shift4):
    """The frame fixtures the dense draw oracle measures, by name: the
    certified frame systems, the rotated frames and the two frames whose
    U is not nilpotent.  Not the frame with a failed premise: there the
    dense body's projection is off by the factor |1 + 4.5e-10|^4, and its
    membership test refuses the projected coefficients (defect 1.4e-9)."""
    systems = {name: system for name, system in certified_systems.items()
               if system.algebra.frame is not None}
    systems.update(chain_fixtures)
    systems.update(rotated_frames)
    systems.update(cyclic5=cyclic5, cyclic3_shift4=cyclic3_shift4)
    return systems


@pytest.fixture(scope="module")
def rotated_frames():
    """Certified frame systems whose chain model holds its premises but
    whose error bound sends them to the dense path: the seed-0 rotations
    of the base-0.9 weighted shift's polar model at n = 24 and 64, where
    V^-1 U V lies 1.1e-13 and 9.6e-13 off its chains (rounding)."""
    return {f"rot09_n{n}": ia.load_model(polar_spec(rotated(
        weighted_shift(n, 0.9), 0))).system for n in (24, 64)}


def _on_path(system, failed):
    """A fresh copy of a certified frame system whose chain model has
    ``failed`` in place of its own: None sends it to the chain path, a
    string to the dense path."""
    copy = ia.IsometrySystem(system.algebra, system.u)
    vars(copy)["chains"] = system.chains._replace(failed=failed)
    return copy


def _oracle_forms(system, seed):
    """40 drawn forms of a system and 6 of their products, which the
    constructor validates and which hold coefficient stacks."""
    drawn = random_normal_forms(system, 40, seed)
    return drawn + [ia.nf_multiply(x, y)
                    for x, y in zip(drawn[:6], drawn[6:12])]


@pytest.mark.parametrize("seed", [0, 7])
def test_the_chain_path_matches_the_dense_oracle(seed, chain_fixtures):
    # ||x||, every coefficient norm and the norm limit's N_0 stage norms,
    # read from the chain matrices and block values, against the dense
    # oracle on the forms' matrices: drawn forms, which hold block values,
    # and their products, which the constructor validates and which hold
    # coefficient stacks
    for name, system in chain_fixtures.items():
        chains = ia.normalform.chain_model(system)
        assert chains is not None, name
        forms = _oracle_forms(system, seed)
        norms = ia.norms._operator_norms(forms)
        live = [i for i, x in enumerate(forms) if norms[i] != 0.0]
        stages, exps = ia.norms._chain_n0(chains, [forms[i] for i in live],
                                          norms[live], 4)
        stages = dict(zip(live, stages * 2.0 ** exps))
        for i, (x, (norm, coeffs, n0)) in enumerate(zip(
                forms, dense_sampler_oracle(forms))):
            _rel(norms[i], norm, name)
            _rel(np.abs(x._values).max(axis=1, initial=0.0), coeffs, name)
            if i in stages:
                _rel(stages[i], n0, name)


@pytest.mark.parametrize("seed", [0, 7])
def test_rotated_frames_take_the_dense_path_and_match_the_oracle(
        seed, rotated_frames):
    # the error bound, not a premise, sends them to the dense path, whose
    # ||x||, coefficient norms (the block values' on every frame system)
    # and N_0 stage norms are the oracle's, and whose gauge bound is the
    # per-form reference's
    for name, system in rotated_frames.items():
        chains = system.chains
        assert ia.normalform.chain_model(system) is None, name
        assert max(chains.margins) <= system.tol, name
        bound = 2.0 * chains.error(ia.algebra.MAX_SAMPLE_DEGREE)
        assert bound > ia.algebra.CHAIN_AGREEMENT, name
        assert chains.failed == (f"error bound {bound:.3e} at degree 4 "
                                 f"exceeds 1.0e-12"), name
        assert ia.norms._path_note(system) == [f"dense path: {chains.failed}"]
        forms = _oracle_forms(system, seed)
        # drawn forms that enter no product hold block values alone, and
        # products their coefficient stacks
        assert not any("_coeffs" in vars(x) for x in forms[12:40]), name
        assert all("_coeffs" in vars(x) for x in forms[40:]), name
        norms = ia.norms._operator_norms(forms)
        coeffs = ia.norms._coefficient_norms(forms)
        gen = system.gauge_generator
        bounds = ia.norms._certified_deviations(forms, gen, system.algebra.dim)
        for x, bound in zip(forms, bounds, strict=True):
            _rel(bound, _certified_bound_reference(x), name)
        live = [i for i, x in enumerate(forms) if norms[i] != 0.0]
        stacks, exps = ia.norms._compressed_n0(
            [forms[i] for i in live], norms[live], system.gauge_generator, 4)
        stages = dict(zip(live, spectral_norms(stacks) * 2.0 ** exps))
        starts = np.cumsum([0] + [x._degrees.size for x in forms])
        for i, (norm, coeff, n0) in enumerate(dense_sampler_oracle(forms)):
            _rel(norms[i], norm, name)
            _rel(coeffs[starts[i]:starts[i + 1]], coeff, name)
            if i in stages:
                _rel(stages[i], n0, name)


@pytest.mark.parametrize("seed", [0, 7])
def test_the_chain_model_moves_within_its_error_bound(seed, rotated_frames):
    # forced onto the chain path, the rotated frames' chain values lie
    # within the first-order bound of Chains.error of the dense oracle on
    # the same forms: ||x|| within error(N) ||x||, ||N_0(xx*)|| within
    # twice that times ||x||^2, N the form's degree; n eps is the
    # eigensolves' own rounding
    for name, system in rotated_frames.items():
        chained = _on_path(system, None)
        chains = chained.chains
        forms = _oracle_forms(chained, seed)
        norms = ia.norms._operator_norms(forms)
        live = [i for i, x in enumerate(forms) if norms[i] != 0.0]
        stages, _ = ia.norms._chain_n0(chains, [forms[i] for i in live],
                                       norms[live], 0)
        first = dict(zip(live, stages[:, 0] * norms[live] ** 2))
        slack = system.dim * np.finfo(float).eps
        for i, (x, (norm, _, n0)) in enumerate(zip(
                forms, dense_sampler_oracle(forms, 0))):
            bound = chains.error(x.max_degree) + slack
            assert abs(norms[i] - norm) <= bound * norm, name
            if i in first:
                assert abs(first[i] - n0[0] * norm ** 2) <= (
                    2.0 * bound * norm ** 2), name


@pytest.mark.parametrize("seed", [0, 7])
def test_the_chain_draw_matches_the_dense_draw(seed, frame_systems):
    # the same RNG draws, validated in block values on every frame system
    # and, by the dense oracle, by projection, range normalization, the
    # drop rule and membership on the coefficient stacks: the same
    # degrees, and the same coefficients and Frobenius norms to rounding,
    # whether or not the chain model stands in (not on rot09) and where
    # there is none (cyclic5, cyclic3_shift4).  The dense body multiplies
    # by the computed F_k, whose part off the algebra (the rounding of U,
    # about 1e-13 on rot09 n = 64) the product of block values leaves
    # out: a block coefficient is the dense one's projection into the
    # algebra, and differs from it by the dense one's distance to it
    for name, system in frame_systems.items():
        forms = random_normal_forms(system, 60, seed)
        for x, (degrees, coeffs, norms) in zip(
                forms, dense_draw_oracle(system, 60, seed), strict=True):
            assert x.degrees() == tuple(degrees.tolist()), name
            assert "_coeffs" not in vars(x), name
            if not degrees.size:
                continue
            scale = max(1.0, norms.max())
            moved = np.abs(x.coefficients - coeffs).max(axis=(1, 2))
            off = system.algebra.span_defects(coeffs)
            assert (moved <= off + 1e-14 * scale).all(), name
            assert np.abs(x.coefficients - system.algebra.project(
                coeffs)).max() <= 1e-14 * scale, name
            assert np.abs(x._norms - norms).max() <= 1e-14 * scale, name


def test_the_draw_reads_no_chain_model(qdeform12, q6x2, chain_fixtures,
                                       rotated_frames, cyclic5,
                                       failed_premise_frame, monkeypatch):
    # the draw takes its body by the algebra kind alone: with
    # IsometrySystem.chains raising, every frame system still draws the
    # same forms in block values, whether its chain model stands in
    # (q12, q6x2, shifts4_2, the p6 rotations), does not (rot09 n = 24,
    # the failed premise) or is none (cyclic5, whose U is not nilpotent)
    systems = {"qdeform12": qdeform12.system, "q6x2": q6x2,
               "shifts4_2": chain_fixtures["shifts4_2"],
               "rot09_n24": rotated_frames["rot09_n24"], "cyclic5": cyclic5,
               "failed_premise": failed_premise_frame}
    systems.update({f"p6_rotated{s}": chain_fixtures[f"p6_rotated{s}"]
                    for s in range(4)})
    fresh = {name: ia.IsometrySystem(system.algebra, system.u)
             for name, system in systems.items()}
    whole = {name: random_normal_forms(system, 30, 5)
             for name, system in systems.items()}

    def chains(self):
        raise AssertionError("the draw read the chain model")
    monkeypatch.setattr(ia.IsometrySystem, "chains", property(chains))
    for name, system in fresh.items():
        for x, y in zip(random_normal_forms(system, 30, 5), whole[name],
                        strict=True):
            assert x.degrees() == y.degrees(), name
            assert "_coeffs" not in vars(x), name
            assert np.array_equal(x._values, y._values), name
            assert np.array_equal(x._norms, y._norms), name


def test_the_range_values_are_measured_once_per_system(qdeform12, cyclic5,
                                                        monkeypatch):
    # one walk of U* V serves the draw, the chain model's third premise
    # and the path note; rows k = 0 to the nilpotency index K, row 0 the
    # identity's (exactly 1) and row K an exact zero, or rows up to
    # MAX_SAMPLE_DEGREE + 1 when U is not nilpotent
    calls = count_cached_defects(monkeypatch, ("range_values",))
    system = ia.IsometrySystem(qdeform12.system.algebra, qdeform12.system.u)
    random_normal_forms(system, 20, 0)
    chains = system.chains
    ia.norms._path_note(system)
    random_normal_forms(system, 20, 1)
    assert calls == {"range_values": 1}
    ranges = system.range_values
    positions = chains.positions
    assert ranges.shape == (13, 12)
    assert (ranges[0] == 1.0).all() and not ranges[12].any()
    assert np.array_equal(ranges[1:12], positions >= np.arange(1, 12)[:, None])
    cyclic = ia.IsometrySystem(cyclic5.algebra, cyclic5.u)
    random_normal_forms(cyclic, 20, 0)
    assert calls == {"range_values": 2} and cyclic.nilpotency_index is None
    assert cyclic.range_values.shape == (ia.algebra.MAX_SAMPLE_DEGREE + 2, 5)
    assert np.array_equal(cyclic.range_values, np.ones((6, 5)))


def test_the_chain_model_reads_sigma_and_its_premises(chain_fixtures,
                                                       rotated_frames):
    # one chain through every block, in the order U runs through them: the
    # q-models' blocks are the basis vectors e_0, e_1, ..., the polar
    # models' their eigenspaces; every premise within tol, and the error
    # bound within CHAIN_AGREEMENT except on the rotated frames.
    # shifts4_2's backward shifts run e_3 -> ... -> e_0 and e_5 -> e_4
    twin = chain_fixtures["shifts4_2"].chains
    assert twin.blocks.tolist() == [[3, 2, 1, 0], [5, 4, -1, -1]]
    assert twin.positions.tolist() == [3, 2, 1, 0, 1, 0]
    assert twin.margins == (0.0, 0.0, 0.0) and twin.failed is None
    assert ia.norms._path_note(chain_fixtures["shifts4_2"]) == [
        "chain model, chains: 1 of length 4, 1 of length 2; premises: "
        "||V*V - I||_F = 0.000e+00, mass of V^-1 U V off sigma = 0.000e+00, "
        "F_k block values off the chains' 0 or 1 = 0.000e+00"]
    for name, system in {**chain_fixtures, **rotated_frames}.items():
        if name == "shifts4_2":
            continue
        chains = system.chains
        d = system.algebra.dim
        assert chains.blocks.shape == (1, d), name
        assert sorted(chains.blocks[0].tolist()) == list(range(d)), name
        assert chains.positions[chains.blocks[0]].tolist() == list(range(d))
        assert max(chains.margins) <= system.tol, name
        exact = 2.0 * chains.error(4) <= ia.algebra.CHAIN_AGREEMENT
        assert exact == (name in chain_fixtures), name
        assert (chains.failed is None) == exact, name
        if name.startswith(("qdeform", "q09", "q6x2")):
            assert chains.blocks[0].tolist() == list(range(d)), name
            assert chains.margins == (0.0, 0.0, 0.0), name


def test_systems_without_a_certified_frame_have_no_chain_model(
        raw_system, amplified_q12, cyclic5, cyclic3_shift4, broken_system):
    # no frame (raw_system, amplified_q12), no certificate (cyclic5,
    # cyclic3_shift4) or no coefficient algebra (broken_system): the
    # samplers measure none of them on chains, and note no path
    for system in (raw_system, amplified_q12, cyclic5, cyclic3_shift4,
                   broken_system):
        assert system.chains is None
        assert ia.norms._path_note(system) == []


def test_a_failed_premise_is_named_and_sends_the_samplers_to_the_dense_path(
        qdeform12, failed_premise_frame, monkeypatch):
    # V = (1 + 4.5e-10) I is a frame whose invariants pass at tol 1e-9,
    # with ||V*V - I||_F = 2.2e-9 > tol: the first premise fails
    system = failed_premise_frame
    assert system.coefficient_report.passed and system.gauge_generator
    assert system.chains.failed == ("||V*V - I||_F = 2.205e-09 exceeds tol "
                                    "1.0e-09")
    assert ia.norms._path_note(system) == [
        "dense path: ||V*V - I||_F = 2.205e-09 exceeds tol 1.0e-09"]
    # on q12 with its premises marked failed, the samplers measure ||x||
    # and N_0 on the dense path: they form no chain matrix.  The draw
    # reads block values on every frame system, and its forms are those
    # of q12's own draw
    system = ia.IsometrySystem(qdeform12.system.algebra, qdeform12.system.u)
    failed = system.chains._replace(failed="a premise")
    monkeypatch.setitem(vars(system), "chains", failed)

    def chained(*args):
        raise AssertionError("the chain path measured a failed model")
    monkeypatch.setattr(ia.algebra.Chains, "matrices", chained)
    forms = random_normal_forms(system, 30, 0)
    assert not any("_coeffs" in vars(x) for x in forms)
    for x, y in zip(forms, random_normal_forms(qdeform12.system, 30, 0),
                    strict=True):
        assert x.degrees() == y.degrees()
        assert np.array_equal(x._values, y._values)
    star = sample_coefficient_bound(system, forms)
    gauge = gauge_invariance_sample(system, forms)
    limit, _ = norm_limit_sample(system, forms)
    assert star.notes == ["max degree = 4", "dense path: a premise"]
    assert gauge.notes == ["certified by a gauge generator",
                           "dense path: a premise"]
    assert limit.notes == ["dense path: a premise"]


@pytest.mark.parametrize("seed", [0, 7])
def test_frame_less_systems_keep_the_dense_path(seed, raw_system,
                                                amplified_q12, monkeypatch):
    # no chain code runs: the draw projects and validates coefficient
    # stacks, and the coefficient bound is the eigensolve path bit for bit
    def chained(*args):
        raise AssertionError("a frame-less system reached the chain path")
    for body in ("_chain_n0", "_value_norms"):
        monkeypatch.setattr(ia.norms, body, chained)
    monkeypatch.setattr(ia.algebra.Chains, "matrices", chained)
    for system in (raw_system, amplified_q12):
        forms = random_normal_forms(system, 200, seed)
        assert all("_coeffs" in vars(x) and "_matrix" in vars(x)
                   for x in forms)
        rep = sample_coefficient_bound(system, forms)
        assert [d.value for d in rep.defects[1:]] == list(
            _coefficient_bound_reference(forms))
        assert gauge_invariance_sample(system, forms).passed
        norm_limit_sample(system, forms[:50])


def test_the_chain_norm_limit_needs_no_membership_guard(qdeform12,
                                                        monkeypatch):
    # N_0 of a chain system is the diagonal of its chain matrices, a member
    # by construction: no stage is tested for membership, and a form alone
    # gives its trace in the sample bit for bit
    system = qdeform12.system
    forms = _mixed_forms(system)
    _, traces = norm_limit_sample(system, forms)

    def tested(*args):
        raise AssertionError("a chain stage was tested for membership")
    monkeypatch.setattr(system.algebra, "membership", tested)
    monkeypatch.setattr(ia.norms, "_compressed_n0", tested)
    for x, tr in zip(forms, traces, strict=True):
        alone = norm_limit(x, 8)
        assert (alone.s_values, alone.sandwich_lo) == (tr.s_values,
                                                       tr.sandwich_lo)


@pytest.fixture(scope="module")
def q09_n64():
    system = ia.load_model(qdeform_spec(64, 0.9)).system
    assert system.chains.failed is None  # measured once, before any trace
    return system


def test_drawn_forms_hold_no_ambient_stack_until_one_is_asked_for(q09_n64):
    # the draw and the three samplers read the degrees and block values;
    # a form forms its coefficients, matrix and monomials on first use
    forms = random_normal_forms(q09_n64, 60, 0)
    sample_coefficient_bound(q09_n64, forms)
    gauge_invariance_sample(q09_n64, forms)
    norm_limit_sample(q09_n64, forms)
    ambient = ("_coeffs", "_matrix", "_monomials")
    assert not any(name in vars(x) for x in forms for name in ambient)
    x = forms[0]
    assert x.coefficient(x.degrees()[0]).shape == (64, 64)
    assert "_coeffs" in vars(x) and "_matrix" not in vars(x)
    assert not x.eval().flags.writeable and "_monomials" in vars(x)


@pytest.mark.parametrize("chunk_matrices", [1, 7, 50])
def test_an_asked_for_stack_is_formed_bit_for_bit_whatever_the_chunking(
        q09_n64, monkeypatch, chunk_matrices):
    whole = random_normal_forms(q09_n64, 40, 0)
    monkeypatch.setattr(ia.norms, "DRAW_CHUNK_BYTES",
                        chunk_matrices * 16 * q09_n64.dim ** 2)
    got = random_normal_forms(q09_n64, 40, 0)
    for x, y in zip(got, whole, strict=True):
        assert x.degrees() == y.degrees()
        assert np.array_equal(x._values, y._values)
        assert np.array_equal(x.coefficients, y.coefficients)
        assert np.array_equal(x.coefficients,
                              q09_n64.algebra.members(x._values))
        assert np.array_equal(x.eval(), y.eval())
        assert np.array_equal(x.eval(), ia.normalform._monomial_stack(
            q09_n64, x.coefficients, x._degrees).sum(axis=0))


def test_the_draw_peaks_within_a_chunk_of_raw_draws_and_the_block_values(
        q09_n64):
    # a raw draw is held only until its block values are read, so the
    # draw's peak is far inside DRAW_CHUNK_BYTES plus the block values: a
    # few copies of the values and one raw draw (about 3.5 MB at n = 64,
    # 200 forms, against 1.05 MB of values)
    forms, peak = traced_peak(lambda: random_normal_forms(q09_n64, 200, 0))
    values = sum(x._values.nbytes for x in forms)
    assert peak <= ia.norms.DRAW_CHUNK_BYTES + values, (peak, values)
    assert peak < 4 * values, (peak, values)
