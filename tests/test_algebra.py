import dataclasses
import json
import tracemalloc
import warnings
from functools import cached_property

import numpy as np
import pytest

import isoalg as ia
from isoalg import (
    DimensionMismatch,
    FiniteStarAlgebra,
    HypothesisViolated,
    InvalidBasis,
    IsometrySystem,
    NotPartialIsometry,
    ToleranceCollapse,
    adjoint,
    check_coefficient_algebra,
    check_commutative_extendability,
    check_extendability,
    check_extension_towers,
    check_intertwining_equivalents,
    extend_delta,
    extend_delta_star,
    generate_closure,
    spectral_norm,
    verify_power_identities,
)
from isoalg.algebra import (
    Frame,
    _Images,
    _absorption_defect,
    _commutator_norm,
    _commutator_norms,
    _extend,
    _gram_schmidt_closure,
    _inner_products,
    _intertwining_entry,
    _per_block,
    _span_defects,
    _spectral_closure,
    _svd_span,
    build_towers,
    commutant,
)
from isoalg.cli import main
from isoalg.linalg import _frobenius_norms, spectral_norms
from isoalg.models import polar_structure_suite
from isoalg.normalform import check_adjoint_intertwining

from conftest import (
    CACHED_DEFECTS,
    amplified_generators,
    bicommutant,
    count_cached_defects,
    polar_spec,
    qdeform_spec,
    raw_system_spec,
    rotated,
    spans_equal,
    traced_peak,
    weighted_shift,
)

E12 = np.array([[0, 1], [0, 0]], complex)


def closure_dim_oracle(gens, dim, length=6):
    """Brute-force span dimension of the unital *-algebra generated by gens:
    stack all words (over gens and their adjoints) up to the given length
    and take the matrix rank."""
    letters = [np.eye(dim, dtype=complex)]
    for g in gens:
        letters.append(np.asarray(g, complex))
        letters.append(adjoint(g))
    words = [np.eye(dim, dtype=complex)]
    frontier = [np.eye(dim, dtype=complex)]
    for _ in range(length):
        frontier = [w @ l for w in frontier for l in letters]
        words.extend(frontier)
    stack = np.array([w.ravel() for w in words])
    return np.linalg.matrix_rank(stack, tol=1e-8)


def test_closure_examples_against_oracle():
    d3 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert closure_dim_oracle([d3], 3) == 3
    assert generate_closure([d3]).dim == 3

    assert generate_closure([], dim=3).dim == 1

    assert closure_dim_oracle([E12], 2) == 4
    assert generate_closure([E12]).dim == 4


def test_closure_random_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = np.diag(rng.standard_normal(n)).astype(complex)
        for gens in ([g], [h], [g, h]):
            assert generate_closure(gens).dim == closure_dim_oracle(gens, n)


def test_closure_idempotent():
    alg = generate_closure([E12])
    again = generate_closure(alg.basis)
    assert again.dim == alg.dim
    assert spans_equal(alg.basis, again.basis, alg.tol)[0]


def test_closure_invariants():
    d = np.diag([1.0, 2.0, 3.0]).astype(complex)
    alg = generate_closure([d])
    assert alg.invariant_report().passed


def test_tolerance_collapse():
    # a generator within the ambiguous band of the identity
    g = np.eye(2, dtype=complex) + 5e-9 * E12
    with pytest.raises(ToleranceCollapse):
        generate_closure([g])


def test_contains_examples(polar2):
    diag2 = generate_closure([np.diag([1.0, 2.0]).astype(complex)])
    ok, defect = diag2.contains(np.diag([7.0, -1.0]))
    assert ok and defect <= 1e-12

    ok, defect = diag2.contains(E12)
    assert not ok
    assert defect == pytest.approx(1.0)  # off-diagonal is HS-orthogonal

    a = polar2.a
    alg = generate_closure([polar2.abs_a])
    ok, defect = alg.contains(a @ adjoint(a))
    assert ok and defect <= 1e-12

    with pytest.raises(DimensionMismatch):
        diag2.contains(np.eye(3))


def test_membership_is_one_rule_at_the_scale_of_each_matrix():
    # a member lies within tol * max(1, ||m||_F) of the span: tol below
    # norm 1, growing with the matrix above it; contains is the same rule
    diag2 = generate_closure([np.diag([1.0, 2.0]).astype(complex)])
    tol = diag2.tol
    big = 100.0 * np.eye(2)  # ||big||_F = 141.4
    stack = np.array([0.9 * tol * E12, 1.1 * tol * E12,
                      big + 140.0 * tol * E12, big + 142.0 * tol * E12])
    inside, defects = diag2.membership(stack)
    assert inside.tolist() == [True, False, True, False]
    for m, ok, defect in zip(stack, inside, defects):
        assert diag2.contains(m) == (ok, defect)


def test_algebra_rejects_bad_basis():
    with pytest.raises(InvalidBasis) as info:
        FiniteStarAlgebra([E12])  # not closed, no identity
    assert isinstance(info.value, ValueError)
    rep = info.value.report
    assert rep.name == "star_algebra_invariants" and not rep.passed
    # E12^2 = 0 lies in the span; E12* and the identity do not
    assert [d.ok for d in rep.defects] == [True, False, False, True]


def test_delta_examples():
    alg = generate_closure([np.diag([1.0, 2.0]).astype(complex)])
    sys = IsometrySystem(alg, E12)
    m = np.diag([3.0, 4.0]).astype(complex)
    assert np.allclose(sys.delta(m), np.diag([4.0, 0.0]))
    assert np.allclose(sys.delta(np.eye(2)), E12 @ adjoint(E12))
    assert np.allclose(sys.delta_star(np.eye(2)), adjoint(E12) @ E12)
    assert np.allclose(sys.delta_n(m, 0), m)


def test_system_rejects_non_partial_isometry():
    alg = generate_closure([], dim=2)
    with pytest.raises(NotPartialIsometry):
        IsometrySystem(alg, np.diag([1.0, 0.5]))
    with pytest.raises(DimensionMismatch):
        IsometrySystem(alg, np.zeros((3, 3)))


def test_tower_systems_reuse_the_validated_u(monkeypatch):
    tols = []
    real = ia.algebra.is_partial_isometry
    monkeypatch.setattr(ia.algebra, "is_partial_isometry",
                        lambda u, tol: tols.append(tol) or real(u, tol))
    m = ia.build_qdeform(6, 0.5, "heisenberg")
    assert tols == [m.system.tol]  # the seed system only
    fresh = IsometrySystem(m.system.algebra, m.u)
    for cached, new in zip(m.system.power_families(7),
                           fresh.power_families(7), strict=True):
        assert np.array_equal(cached, new)
    # an algebra at a tighter tolerance re-validates U at that tolerance
    tight = FiniteStarAlgebra(m.seed_algebra.basis, tol=1e-12)
    derived = m.system._with_algebra(tight)
    assert tols[-1] == derived.tol == 1e-12
    assert derived.algebra is tight


def test_derived_system_drops_cached_reports(qdeform6, monkeypatch):
    # over its own algebra a system is itself, with its cached walks and
    # reports: the q-model's tower closes at its seed, so its system is the
    # seed system the build walked
    sys = qdeform6.system
    report = sys.coefficient_report
    assert sys.algebra is qdeform6.seed_algebra
    assert sys._with_algebra(qdeform6.seed_algebra) is sys
    assert sys._with_algebra(sys.algebra).delta_walk is sys.delta_walk
    # over another algebra object, even of the same span, it is a new
    # system with its own reports, which validates U at that algebra's tol
    tols = []
    real = ia.algebra.is_partial_isometry
    monkeypatch.setattr(ia.algebra, "is_partial_isometry",
                        lambda u, tol: tols.append(tol) or real(u, tol))
    other = FiniteStarAlgebra(sys.algebra.basis, tol=1e-11)
    derived = sys._with_algebra(other)
    assert derived is not sys and derived.algebra is other
    assert tols == [derived.tol] == [1e-11]
    assert derived.partial_isometry is not sys.partial_isometry
    assert "delta_walk" not in vars(derived)
    assert derived.coefficient_report is not report
    assert derived.coefficient_report.passed
    assert sys.coefficient_report is report


def test_power_cache_matches_direct():
    # the cache holds U^k for k <= 2n + 4 (k <= 10 on C^3); the cyclic shift
    # is not nilpotent, so its powers past that are computed on demand
    for u in (ia.backward_shift(5), np.roll(np.eye(3), 1, axis=0)):
        n = len(u)
        sys = IsometrySystem(generate_closure([], dim=n), u)
        for k in range(0, 2 * n + 9):
            p = np.linalg.matrix_power(u, k)
            assert np.allclose(sys.power(k), p)
            assert np.allclose(sys.proj_initial(k), adjoint(p) @ p)
            assert np.allclose(sys.proj_final(k), p @ adjoint(p))


def test_intertwining_equivalents():
    # truncated backward shift with the diagonal algebra: all three pass
    n = 4
    u = ia.backward_shift(n)
    diag = generate_closure([np.diag(np.arange(1.0, n + 1)).astype(complex)])
    rep = check_intertwining_equivalents(IsometrySystem(diag, u))
    assert rep.passed
    assert max(d.value for d in rep.defects) <= 1e-14
    assert not rep.notes  # no disagreement

    # identity isometry with any algebra
    full = generate_closure([E12])
    rep = check_intertwining_equivalents(IsometrySystem(full, np.eye(2)))
    assert rep.passed


def test_intertwining_fails_together(broken_system):
    rep = check_intertwining_equivalents(broken_system)
    assert not rep.passed
    d = {x.check: x.ok for x in rep.defects}
    # the composite verdicts all fail; the bare partial-isometry sub-check
    # may still pass on its own
    assert not d["(i) Ua = delta(a)U on basis"]
    assert not d["(ii)/(iii) U*U commutes with algebra"]
    assert not d["(iii) delta multiplicative on basis pairs"]
    assert not rep.notes


def test_coefficient_algebra_negative():
    # span{1} with a truncated shift: delta(1) = UU* escapes the span
    trivial = generate_closure([], dim=3)
    sys = IsometrySystem(trivial, ia.backward_shift(3))
    rep = check_coefficient_algebra(sys)
    assert not rep.passed
    bad = {d.check: d.ok for d in rep.defects}
    assert not bad["delta maps algebra into itself"]


def test_extendability_and_growth():
    # span{1} with the truncated shift is extendable, and the delta tower
    # grows to the full diagonal algebra
    n = 5
    trivial = generate_closure([], dim=n)
    sys = IsometrySystem(trivial, ia.backward_shift(n))
    rep = check_extendability(sys)
    assert rep.passed
    assert rep.notes == [f"the delta tower closes at dimension {n}"]

    ext = extend_delta(sys)
    assert ext.dim == n
    for k in range(1, n):
        ok, _ = ext.contains(sys.proj_final(k))
        assert ok
    # monotone: the original basis is contained
    for b in trivial.basis:
        assert ext.contains(b)[0]


def test_extendability_negative(broken_system):
    rep = check_extendability(broken_system)
    assert not rep.passed
    assert rep.defects[0].value > 0.1
    with pytest.raises(HypothesisViolated):
        extend_delta(broken_system)
    with pytest.raises(HypothesisViolated):
        extend_delta_star(broken_system)


def test_extension_fixed_point(qdeform6):
    sys = qdeform6.system
    ext = extend_delta(sys)
    assert ext.dim == sys.algebra.dim
    assert spans_equal(ext.basis, sys.algebra.basis, sys.tol)[0]
    ext = extend_delta_star(sys)
    assert ext.dim == sys.algebra.dim
    assert spans_equal(ext.basis, sys.algebra.basis, sys.tol)[0]


def test_commutative_extendability_rejects_noncommutative(broken_system):
    # the walk stops at its first entry, the failing commutativity check
    rep = check_commutative_extendability(broken_system)
    assert rep.name == "commutative_extendability" and not rep.passed
    assert [d.check for d in rep.defects] == ["algebra commutative"]
    assert rep.defects[0].value == pytest.approx(np.sqrt(2.0))
    assert rep.defects[0].tol == broken_system.tol and not rep.notes


def test_power_identities_shift():
    n = 7
    u = ia.backward_shift(n)
    diag = generate_closure([np.diag(np.arange(1.0, n + 1)).astype(complex)])
    rep = verify_power_identities(IsometrySystem(diag, u), k_max=5)
    assert rep.passed
    assert max(d.value for d in rep.defects) <= 1e-13


def test_power_identities_unitary():
    # a cyclic permutation is unitary: every projection is the identity
    n = 4
    perm = np.roll(np.eye(n), 1, axis=0).astype(complex)
    alg = generate_closure([], dim=n)
    rep = verify_power_identities(IsometrySystem(alg, perm), k_max=4)
    assert rep.passed


def test_commutant_examples():
    diag3 = generate_closure([np.diag([1.0, 2.0, 3.0]).astype(complex)])
    c = commutant(diag3.basis)
    assert c.dim == 3  # commutant of the full diagonal algebra is itself
    assert spans_equal(c.basis, diag3.basis, 1e-9)[0]

    full = generate_closure([E12])
    c = commutant(full.basis)
    assert c.dim == 1  # scalars

    # block scalars: commutant of {1, diag(1,1,2)} is diag blocks 2x2 + 1x1
    blocky = generate_closure([np.diag([1.0, 1.0, 2.0]).astype(complex)])
    c = commutant(blocky.basis)
    assert c.dim == 5
    dbl = bicommutant(blocky)
    assert dbl.dim == 2
    assert spans_equal(dbl.basis, blocky.basis, 1e-9)[0]

    # triple commutant collapses back to the commutant
    c3 = commutant(bicommutant(blocky).basis)
    assert spans_equal(c3.basis, c.basis, 1e-9)[0]


def test_iterated_image_products_stay_inside(qdeform6):
    # delta_star^k(A) delta_star^l(A) lies in delta_star^k(A) for l <= k
    sys = qdeform6.system
    basis = sys.algebra.basis
    for k in range(0, 5):
        imgs_k = [sys.delta_star_n(b, k) for b in basis]
        from isoalg.algebra import _svd_span, _span_defects
        span_k = _svd_span(imgs_k)
        for l in range(0, k + 1):
            imgs_l = [sys.delta_star_n(b, l) for b in basis]
            for x in imgs_k[:3]:
                for y in imgs_l[:3]:
                    assert _span_defects(span_k, np.array([x @ y, y @ x])).max() \
                        <= 1e-9


def test_delta_star_span_decomposition(qdeform6):
    # the delta_star tower span equals the span of all iterated images
    sys = qdeform6.system
    ext = extend_delta_star(sys)
    imgs = []
    for k in range(0, sys.dim + 1):
        imgs.extend(sys.delta_star_n(b, k) for b in sys.algebra.basis)
    assert spans_equal(ext.basis, imgs, sys.tol)[0]


def test_extension_towers(qdeform6):
    seed_sys = IsometrySystem(qdeform6.seed_algebra, qdeform6.u)
    rep = check_extension_towers(seed_sys)
    assert rep.passed


def test_intertwining_agrees_after_extension(qdeform6):
    # the intertwining relation holds for the seed iff it holds for the
    # delta_star tower; the checkers must agree
    seed_sys = IsometrySystem(qdeform6.seed_algebra, qdeform6.u)
    before = check_intertwining_equivalents(seed_sys).passed
    ext = extend_delta_star(seed_sys)
    after = check_intertwining_equivalents(
        IsometrySystem(ext, qdeform6.u)).passed
    assert before == after


def test_multiplicativity_agrees_after_extension(qdeform6):
    # delta multiplicative on the seed iff multiplicative on its tower
    seed_sys = IsometrySystem(qdeform6.seed_algebra, qdeform6.u)

    def mult_defect(sys):
        ds = [sys.delta(b) for b in sys.algebra.basis]
        worst = 0.0
        for b1, d1 in zip(sys.algebra.basis, ds):
            for b2, d2 in zip(sys.algebra.basis, ds):
                worst = max(worst, spectral_norm(sys.delta(b1 @ b2) - d1 @ d2))
        return worst

    assert mult_defect(seed_sys) <= 1e-12
    ext = extend_delta_star(seed_sys)
    assert mult_defect(IsometrySystem(ext, qdeform6.u)) <= 1e-12


def test_commutative_extendability_yields_coefficient_tower():
    # whenever the commutative extendability conditions hold, the two-step
    # tower is a commutative coefficient algebra
    n = 5
    trivial = generate_closure([], dim=n)
    sys = IsometrySystem(trivial, ia.backward_shift(n))
    assert check_commutative_extendability(sys).passed
    ext = extend_delta(sys)
    full = extend_delta_star(IsometrySystem(ext, sys.u))
    full_sys = IsometrySystem(full, sys.u)
    assert check_coefficient_algebra(full_sys).passed
    worst = max(spectral_norm(a @ b - b @ a)
                for a in full.basis for b in full.basis)
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# The per-element loops that the stacked defect helpers replaced, kept as the
# reference they are compared against.
# ---------------------------------------------------------------------------

def loop_commutator_norm(p, mats):
    return max((spectral_norm(p @ a - a @ p) for a in mats), default=0.0)


def loop_commutator_defect(basis):
    return max((loop_commutator_norm(a, basis[i + 1:])
                for i, a in enumerate(basis)), default=0.0)


def loop_delta_orbit(sys, n_max):
    orbit = [list(sys.algebra.basis)]
    for _ in range(n_max):
        orbit.append([sys.delta(a) for a in orbit[-1]])
    return orbit[:n_max + 1]


def loop_extendability(sys):
    """Per n, the worst commutator of U*U and of the algebra with
    delta^n(algebra), over the whole orbit: to U's nilpotency index, past
    which delta^n is 0, or else to n = dim^2.  The spans of delta^0..delta^n
    of the algebra grow until two agree and then stay put, which they do
    by n = dim^2, so every further image lies in their span."""
    depth = sys.nilpotency_index or sys.dim ** 2
    p = sys.proj_initial(1)
    orbit = loop_delta_orbit(sys, depth)
    return ([loop_commutator_norm(p, images) for images in orbit],
            [max(loop_commutator_norm(a, images) for a in sys.algebra.basis)
             for images in orbit])


def loop_multiplicativity_defect(sys):
    basis = sys.algebra.basis
    deltas = [sys.delta(a) for a in basis]
    return max(spectral_norm(sys.delta(a @ b) - da @ db)
               for a, da in zip(basis, deltas) for b, db in zip(basis, deltas))


def loop_invariance_defect(sys, image):
    return max(sys.algebra.contains(image(a))[1] for a in sys.algebra.basis)


def loop_power_intertwining(sys, k_max):
    d = 0.0
    for k in range(1, k_max + 1):
        uk = sys.power(k)
        for a in sys.algebra.basis:
            d = max(d, spectral_norm(uk @ a - sys.delta_n(a, k) @ uk))
    return d


def loop_projection_families_defect(sys, k_max):
    finals = [sys.proj_final(l) for l in range(0, k_max + 1)]
    return max(loop_commutator_norm(sys.proj_initial(k), finals)
               for k in range(0, k_max + 1))


def loop_absorption_defect(sys, k_max):
    d = 0.0
    u, ustar = sys.u, adjoint(sys.u)
    for l in range(1, k_max + 1):
        for k in range(1, l + 1):
            lhs = ustar @ sys.power(k) @ sys.star_power(l)
            rhs = sys.power(k - 1) @ sys.star_power(l)
            d = max(d, spectral_norm(lhs - rhs))
            lhs = u @ sys.star_power(k) @ sys.power(l)
            rhs = sys.star_power(k - 1) @ sys.power(l)
            d = max(d, spectral_norm(lhs - rhs))
    return d


def loop_adjoint_intertwining(sys):
    ustar = adjoint(sys.u)
    return max(spectral_norm(ustar @ a - sys.delta_star(a) @ ustar)
               for a in sys.algebra.basis)


def loop_power_structure(sys, k_max):
    """The defect values of verify_power_identities after its two
    hypothesis entries, in report order."""
    basis = sys.algebra.basis
    out = [loop_power_intertwining(sys, k_max),
           max((loop_commutator_norm(sys.proj_initial(k), basis)
                for k in range(1, k_max + 1)), default=0.0)]
    for proj in (sys.proj_initial, sys.proj_final):
        family = [proj(l) for l in range(1, k_max + 1)]
        d_proj = d_pair = d_dec = 0.0
        for k in range(1, k_max + 1):
            p = proj(k)
            d_proj = max(d_proj, spectral_norm(p @ p - p),
                         spectral_norm(p - adjoint(p)))
            d_dec = max(d_dec, spectral_norm(p @ proj(k + 1) - proj(k + 1)))
            d_pair = max(d_pair, loop_commutator_norm(p, family))
        out += [d_proj, d_pair, d_dec]
    return out + [loop_projection_families_defect(sys, k_max),
                  loop_absorption_defect(sys, k_max)]


def loop_polar_structure(m, k_max):
    """The defect values of polar_structure_suite, in report order."""
    sys = IsometrySystem(m.seed_algebra, m.u)
    d = 0.0
    for k in range(1, k_max + 1):
        gens = [m.abs_a] + [sys.proj_final(j) for j in range(1, k)]
        closure_k = generate_closure(gens, m.seed_algebra.tol)
        d = max(d, closure_k.contains(sys.delta_n(m.abs_a, k))[1])
    gens = [m.abs_a] + [sys.proj_final(j) for j in range(1, k_max + 1)]
    ext = generate_closure(gens, m.seed_algebra.tol)
    dbl = bicommutant(m.seed_algebra)
    d_mem = d_comm = 0.0
    for k in range(1, k_max + 1):
        f = sys.proj_final(k)
        d_mem = max(d_mem, dbl.contains(f)[1])
        d_comm = max(d_comm, loop_commutator_norm(f, m.seed_algebra.basis))
    return [d, loop_multiplicativity_defect(IsometrySystem(ext, m.u)),
            d_mem, d_comm, loop_absorption_defect(sys, k_max),
            loop_projection_families_defect(sys, k_max)]


def assert_matches_loop(stacked, loop):
    assert abs(stacked - loop) <= 1e-12 * max(1.0, abs(loop)), (stacked, loop)


def generic_generator(rng):
    """A random block-diagonal 4x4 matrix (M_2 + C + C)."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g[:2, 2:] = g[2:, :2] = g[2, 3] = g[3, 2] = 0.0
    return g


@pytest.fixture(scope="module")
def generic_system():
    """A raw system on which every defect above is nonzero and generic, so
    that the stacked and the looped values are compared on real data: the
    complex non-commutative algebra generated by a random block-diagonal
    matrix (M_2 + C + C) and a random partial isometry of rank 3."""
    rng = np.random.default_rng(11)
    g = generic_generator(rng)
    w, v = (np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
            for _ in range(2))
    u = w @ v @ np.diag([1, 1, 1, 0]) @ adjoint(v)
    return IsometrySystem(generate_closure([g]), u)


FIXTURE_SYSTEMS = ["qdeform12", "polar6", "cyclic5", "broken_system",
                   "generic_system"]


def fixture_system(request, name):
    obj = request.getfixturevalue(name)
    return obj if isinstance(obj, IsometrySystem) else obj.system


@pytest.mark.parametrize("k_max, n_max", [(1, 0), (2, 1), (8, 6)])
@pytest.mark.parametrize("name", FIXTURE_SYSTEMS)
def test_stacked_defects_match_the_loops(request, monkeypatch, name, k_max,
                                        n_max):
    # small k_max and n_max leave few terms in each max, so that a stacked
    # body that drops a term shows; the system is a new one without the
    # fixture's cached walks and defects, so that they are measured here
    fixture = fixture_system(request, name)
    sys = IsometrySystem(fixture.algebra, fixture.u)
    # and every stack measured on the way is measured as the full solve
    # would, with no eigensolve pruned that could change the value
    stacks = []

    def checked(stack, real=ia.algebra._worst_norm):
        stacks.append(len(stack))
        got = real(stack)
        assert got == full_worst_norm(stack)
        return got

    monkeypatch.setattr(ia.algebra, "_worst_norm", checked)
    basis = sys.algebra.basis
    _, initial, final = sys.power_families(k_max)
    pairs = [
        (sys.uu_commutator_defect,
         loop_commutator_norm(sys.proj_initial(1), basis)),
        # the uncached body of the property
        (FiniteStarAlgebra.commutator_defect.func(sys.algebra),
         loop_commutator_defect(basis)),
        (sys.multiplicativity_defect, loop_multiplicativity_defect(sys)),
        (sys.delta_invariance_defect, loop_invariance_defect(sys, sys.delta)),
        (sys.delta_star_invariance_defect,
         loop_invariance_defect(sys, sys.delta_star)),
        (check_intertwining_equivalents(sys).defects[0].value,
         loop_power_intertwining(sys, 1)),
        (_absorption_defect(sys.power_stack(np.arange(k_max + 1))),
         loop_absorption_defect(sys, k_max)),
        (_commutator_norm(initial[:-1], final[:-1]),
         loop_projection_families_defect(sys, k_max)),
        (check_adjoint_intertwining(sys).defects[0].value,
         loop_adjoint_intertwining(sys)),
    ]
    power = verify_power_identities(sys, k_max).defects[2:]
    pairs += zip([d.value for d in power], loop_power_structure(sys, k_max))

    # the delta^n orbit to n_max, stacked and looped
    orbit = [sys.delta_n(basis, n) for n in range(n_max + 1)]
    loop_orbit = loop_delta_orbit(sys, n_max)
    assert len(orbit) == len(loop_orbit) == n_max + 1
    for stack, images in zip(orbit, loop_orbit):
        assert stack.shape == basis.shape
        assert np.abs(stack - np.array(images)).max() <= 1e-12
    # each fixture's delta walk stops by tower stage 0, whose images are
    # delta(algebra): each of its commutator norms is a loop's at n <= 1
    reps = [check_extendability(sys)]
    if loop_commutator_defect(basis) <= sys.tol:  # commutative algebras only
        reps.append(check_commutative_extendability(sys))
        pairs.append((reps[-1].defects[0].value,
                      loop_commutator_defect(basis)))
    at = {"the algebra": 0, "delta(tower stage 0)": 1}
    lefts = {"U*U": [sys.proj_initial(1)], "the algebra": basis}
    for rep in reps:
        for d in rep.defects:
            name, _, label = d.check.partition(" commutes with ")
            if label and at[label] <= n_max:
                pairs.append((d.value, max(
                    loop_commutator_norm(a, loop_orbit[at[label]])
                    for a in lefts[name])))
    for stacked, loop in pairs:
        assert_matches_loop(stacked, loop)
    assert stacks


@pytest.mark.parametrize("k_max", [1, 2, 8])
def test_polar_structure_matches_the_loops(polar6, k_max):
    got = [d.value for d in polar_structure_suite(polar6, k_max).defects]
    loops = loop_polar_structure(polar6, k_max)
    for stacked, loop in zip(got, loops, strict=True):
        assert_matches_loop(stacked, loop)


@pytest.mark.parametrize("name", FIXTURE_SYSTEMS)
def test_basis_is_one_stack_and_project_takes_stacks(request, name):
    alg = fixture_system(request, name).algebra
    n = alg.ambient_dim
    assert alg.basis.shape == (alg.dim, n, n)
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    got = alg.project(stack)
    assert got.shape == stack.shape
    for g, m in zip(got, stack):
        by_vdot = sum(np.vdot(b, m) * b for b in alg.basis)
        for ref in (alg.project(m), by_vdot):
            assert np.abs(g - ref).max() <= 1e-12 * max(1.0, np.abs(m).max())
    assert alg.project(stack[:0]).shape == (0, n, n)


# ---------------------------------------------------------------------------
# The spectral closure path against the Gram-Schmidt path it short-cuts.
# ---------------------------------------------------------------------------

TOL = ia.DEFAULT_TOL


@pytest.fixture(scope="module")
def ladder_models():
    """The three models one build-scale ladder pass builds."""
    polar_weights = [0.7 ** (j / 2) for j in range(1, 24)]
    return {"q05_n12": ia.build_qdeform(12, 0.5, "heisenberg"),
            "q09_n24": ia.build_qdeform(24, 0.9, "heisenberg"),
            "polar07_n24": ia.build_polar_model(
                ia.weighted_backward_shift(polar_weights))}


def closure_generator_sets(seed_gens, sys, ext, full):
    """The generator sets a model build hands to generate_closure: the seed
    generators, then a tower algebra together with its image, for both
    maps on the seed, the delta tower and the full tower."""
    sets = [list(seed_gens)]
    for alg in (sys.algebra, ext, full):
        for image in (sys.delta, sys.delta_star):
            sets.append(list(np.concatenate([alg.basis, image(alg.basis)])))
    return sets


def model_generator_sets(request, name):
    if name == "cyclic5":
        sys = request.getfixturevalue("cyclic5")
        units = [np.diag(e).astype(complex) for e in np.eye(5)]
        return closure_generator_sets(units, sys, sys.algebra, sys.algebra)
    if name in ("qdeform12", "polar6"):
        m = request.getfixturevalue(name)
    else:
        m = request.getfixturevalue("ladder_models")[name]
    seed = [m.abs_a] if hasattr(m, "abs_a") else [m.big_q]
    sys = IsometrySystem(m.seed_algebra, m.u)
    return closure_generator_sets(seed, sys, m.delta_tower, m.system.algebra)


@pytest.mark.parametrize("name", ["qdeform12", "polar6", "cyclic5", "q05_n12",
                                  "q09_n24", "polar07_n24"])
def test_spectral_closure_matches_gram_schmidt(request, name):
    for gens in model_generator_sets(request, name):
        n = gens[0].shape[0]
        frame = _spectral_closure(gens, n, TOL)
        assert frame is not None  # commuting normal generators
        assert frame.vecs.shape == (n, n) and frame.ranks.sum() == n
        spectral = frame.basis()
        reference = _gram_schmidt_closure(gens, n, TOL)
        assert len(spectral) == len(frame.ranks) == len(reference)
        equal, defect = spans_equal(spectral, reference, TOL)
        assert equal, defect
        alg = generate_closure(gens)
        assert alg.dim == len(reference)
        assert np.array_equal(alg.basis, spectral)


@pytest.mark.parametrize("name", ["polar2", "qdeform6", "polar6", "cyclic5"])
def test_spectral_closure_equals_its_bicommutant(request, name):
    obj = request.getfixturevalue(name)
    sys = obj if isinstance(obj, IsometrySystem) else obj.system
    algebras = [sys.algebra]
    if not isinstance(obj, IsometrySystem):
        algebras += [obj.seed_algebra, obj.delta_tower]
    for alg in algebras:
        assert alg.ambient_dim <= 6
        dbl = bicommutant(alg)
        assert dbl.dim == alg.dim
        assert spans_equal(dbl.basis, alg.basis, TOL)[0]


def random_commuting_normal_set(seed):
    """Generators W diag(lam) W* in a random unitary frame W, with the
    joint eigenvalues constant on random blocks; returns (generators, the
    block label of each eigenvector)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    blocks = int(rng.integers(1, n + 1))
    labels = np.concatenate([np.arange(blocks),
                             rng.integers(0, blocks, n - blocks)])
    rng.shuffle(labels)
    w = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    gens = []
    for _ in range(int(rng.integers(1, 4))):
        lam = rng.standard_normal(blocks) + 1j * rng.standard_normal(blocks)
        gens.append(w @ np.diag(lam[labels]) @ adjoint(w))
    return gens, labels


@pytest.mark.parametrize("seed", range(6))
def test_spectral_closure_of_random_commuting_normal_sets(seed):
    # the closure is the span of the block projections, and its dimension
    # is the number of blocks
    gens, labels = random_commuting_normal_set(seed)
    n, blocks = len(labels), labels.max() + 1
    frame = _spectral_closure(gens, n, TOL)
    assert frame is not None
    assert sorted(frame.ranks) == sorted(np.bincount(labels))
    alg = generate_closure(gens)
    assert alg.frame is not None
    assert alg.dim == blocks == len(_gram_schmidt_closure(gens, n, TOL))
    assert alg.commutator_defect <= 1e-12
    for g in gens:
        assert alg.contains(g)[0]


def test_spectral_closure_falls_back(generic_system):
    # not normal
    assert _spectral_closure([E12], 2, TOL) is None
    assert generate_closure([E12]).dim == 4
    # the generic non-commutative raw system
    g = generic_generator(np.random.default_rng(11))
    assert _spectral_closure([g], 4, TOL) is None
    assert generate_closure([g]).dim == generic_system.algebra.dim == 6
    # the generator of test_tolerance_collapse: its Hermitian combination
    # has a gap in the ambiguous band, which is final
    with pytest.raises(ToleranceCollapse, match="rejected eigenvalue gap"):
        _spectral_closure([np.eye(2) + 5e-9 * E12], 2, TOL)
    # normal, with one eigenvalue gap inside the ambiguous band: one
    # Hermitian generator gives H = g/||g||_F, whose gap is 4e-9/sqrt(2)
    g = np.diag([1.0, 1.0 + 4e-9]).astype(complex)
    with pytest.raises(ToleranceCollapse) as info:
        _spectral_closure([g], 2, TOL)
    assert str(info.value) == (
        f"the spectral path rejected eigenvalue gap {4e-9 / np.sqrt(2):.3e} "
        f"(index 0, {1 / np.sqrt(2):.3e} to {1 / np.sqrt(2):.3e}) in its "
        f"ambiguous band (1.0e-09, 1.0e-08]; gaps in the band: 1")
    with pytest.raises(ToleranceCollapse):
        generate_closure([g])
    # a rejection for another cause raises nothing
    assert _spectral_closure([E12], 2, TOL) is None
    # clear gaps either side of the band split or merge as the tolerance says
    assert generate_closure([np.diag([1.0, 1.0 + 1e-7])]).dim == 2
    assert generate_closure([np.diag([1.0, 1.0 + 1e-10])]).dim == 1


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-12, 1.0, 1e155, 1e200,
                               1e300])
def test_closures_of_far_scale_generators(c):
    # both paths take a generator times an exact power of two and compare
    # unscaled values: Gram-Schmidt drops c e12 when c <= tol and spans
    # M_2 otherwise; the spectral certificate, tol * max(1, ||g||_F), holds
    # for a non-normal g only at c <= tol; the split of c diag(1, 2, 3) is
    # that of diag(1, 2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        words = _gram_schmidt_closure([c * E12], 2, TOL)
        declined = _spectral_closure([c * E12], 2, TOL) is None
        frame = _spectral_closure([c * np.diag([1.0, 2.0, 3.0])], 3, TOL)
    assert len(words) == (1 if c <= TOL else 4)
    assert declined == (c > TOL)
    assert frame.ranks.tolist() == [1, 1, 1]


@pytest.mark.parametrize("c", [1e-300, 1e-12, TOL, 1e-8])
def test_closure_drops_a_generator_of_norm_at_most_tol(c):
    # c e12 is zero at tol when c <= tol, for either path: the scalars,
    # with a frame; above tol Gram-Schmidt spans M_2
    alg = generate_closure([c * E12])
    assert (alg.dim, alg.frame is not None) == (
        (1, True) if c <= TOL else (4, False))


def test_a_tiny_generator_leaves_a_closure_as_it_is():
    # 1e-12 E12 joins a spectral set, which keeps its frame, and a
    # Gram-Schmidt set, whose basis it leaves bit for bit
    e12 = np.zeros((3, 3), complex)
    e12[0, 1] = 1.0
    diag = np.diag([1.0, 2.0, 3.0]).astype(complex)
    alg = generate_closure([diag, 1e-12 * e12])
    assert alg.dim == 3 and alg.frame is not None
    assert alg.frame.ranks.tolist() == [1, 1, 1]
    words = generate_closure([E12])
    joined = generate_closure([E12, 1e-12 * E12.T])
    assert joined.frame is None and np.array_equal(joined.basis, words.basis)


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_one_generator_ceilings_do_not_depend_on_the_draw(monkeypatch, seed):
    # the seed closure of a q-model has one Hermitian generator Q, so H is
    # Q/||Q||_F whatever the draw: the last size that builds is the last one
    # before a gap q^k - q^(k+1) of Q falls in the band (tol, 10 tol]
    if seed is not None:
        monkeypatch.setattr(ia.algebra, "_SPECTRAL_SEED", seed)
    for q, last in ((0.3, 16), (0.5, 27)):
        m = ia.build_qdeform(last, q, "heisenberg")
        assert _spectral_closure([m.big_q], last, TOL) is not None
        assert check_coefficient_algebra(m.system).passed
        with pytest.raises(ToleranceCollapse):
            ia.build_qdeform(last + 1, q, "heisenberg")


def test_spectral_closure_is_deterministic(qdeform12):
    sys = qdeform12.system
    gens = list(np.concatenate([sys.algebra.basis,
                                sys.delta_star(sys.algebra.basis)]))
    first, second = generate_closure(gens), generate_closure(gens)
    assert np.array_equal(first.basis, second.basis)
    for a, b in zip(_spectral_closure(gens, 12, TOL),
                    _spectral_closure(gens, 12, TOL), strict=True):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# The word closure against the all-pairs Gram-Schmidt closure it replaced.
# ---------------------------------------------------------------------------

def reference_orth_insert(flat, cand, tol):
    """Extend an orthonormal flat basis by one candidate: the new unit
    vector, or None when the candidate lies in the span; ToleranceCollapse
    for a residual in (tol, 10 tol) after normalizing the candidate."""
    norm = np.linalg.norm(cand)
    if norm <= tol:
        return None
    v = cand / norm
    for _ in range(2):
        for b in flat:
            v = v - np.vdot(b, v) * b
    r = np.linalg.norm(v)
    if r <= tol:
        return None
    if r < 10.0 * tol:
        raise ToleranceCollapse(f"Gram-Schmidt residual {r:.3e}")
    return v / r


def reference_gram_schmidt_closure(gens, n, tol):
    """Gram-Schmidt over the identity and the generators, then over the
    adjoints and all pairwise products of the basis, round after round,
    until the dimension stabilizes."""
    flat = []
    for cand in [np.eye(n, dtype=complex)] + list(gens):
        v = reference_orth_insert(flat, cand.ravel(), tol)
        if v is not None:
            flat.append(v)
    for _ in range(n * n + 2):
        grew = False
        mats = [v.reshape(n, n) for v in flat]
        candidates = [adjoint(m) for m in mats]
        candidates += [mi @ mj for mi in mats for mj in mats]
        for cand in candidates:
            v = reference_orth_insert(flat, cand.ravel(), tol)
            if v is not None:
                flat.append(v)
                grew = True
        if not grew:
            break
    return np.reshape(flat, (-1, n, n))


def corner_shift_stage_sets(n):
    """The generator sets the delta tower walk of the corner shift on C^n
    hands to generate_closure: the seed generator, then each stage with its
    images, until the tower closes."""
    sys = corner_shift_system(n)
    sets = [[sys.algebra.basis[0]]]
    cur = sys.algebra
    while True:
        gens = np.concatenate([cur.basis, sys.delta(cur.basis)])
        sets.append(list(gens))
        nxt = generate_closure(gens, dim=n)
        if nxt.dim == cur.dim:
            return sets
        cur = nxt


def word_closure_sets(request, name):
    if name == "E12":
        return [[E12]]
    if name == "generic_system":
        return [[generic_generator(np.random.default_rng(11))]]
    if name == "raw_system":
        spec = raw_system_spec()
        return [[ia.matrix_from_json(g) for g in spec["generators"]]]
    if name.startswith("generic_n"):
        n = int(name[len("generic_n"):])
        rng = np.random.default_rng(n)
        return [[rng.standard_normal((n, n))
                 + 1j * rng.standard_normal((n, n))]]
    if name.startswith("corner_shift_n"):
        return corner_shift_stage_sets(int(name[len("corner_shift_n"):]))
    if name.startswith("amplified_n"):
        return [amplified_generators(int(name[len("amplified_n"):]), 0.5)]
    return model_generator_sets(request, name)


@pytest.mark.parametrize("name", [
    "E12", "generic_system", "raw_system",
    *(f"generic_n{n}" for n in range(2, 7)),
    *(f"corner_shift_n{n}" for n in range(4, 8)),
    *(f"amplified_n{n}" for n in range(3, 7)),
    "qdeform12", "polar6", "cyclic5", "q05_n12", "q09_n24", "polar07_n24"])
def test_word_closure_matches_the_reference(request, name):
    for gens in word_closure_sets(request, name):
        n = gens[0].shape[0]
        got = _gram_schmidt_closure(gens, n, TOL)
        ref = reference_gram_schmidt_closure(gens, n, TOL)
        assert len(got) == len(ref)
        equal, defect = spans_equal(got, ref, TOL)
        assert equal, defect
        flat = got.reshape(len(got), -1)
        gram = flat.conj() @ flat.T
        assert np.abs(gram - np.eye(len(got))).max() <= 1e-13


def unit(N, *entries):
    v = np.zeros(N, complex)
    for i, x in entries:
        v[i] = x
    return v


@pytest.mark.parametrize("order", ["given", "reversed", "permuted"])
def test_extend_raises_for_a_residual_in_the_band(order):
    # e1 + 3e-9 e3 has unit residual ~3e-9 off span{e1}, whichever of the
    # clear candidates are taken first
    flat = unit(6, (0, 1.0))[None]
    cands = np.array([unit(6, (1, 1.0)), unit(6, (0, 1.0), (2, 3e-9)),
                      unit(6, (3, 1.0), (1, 1.0)), unit(6, (4, 2.0))])
    if order == "reversed":
        cands = cands[::-1]
    elif order == "permuted":
        cands = cands[np.random.default_rng(0).permutation(len(cands))]
    with pytest.raises(ToleranceCollapse, match="Gram-Schmidt residual 3.0"):
        _extend(flat, cands, TOL)


def test_extend_drops_small_residuals_and_keeps_clear_ones():
    flat = unit(4, (0, 1.0))[None]
    assert np.array_equal(
        _extend(flat, unit(4, (0, 1.0), (1, 1e-10))[None], TOL), flat)
    # a zero candidate and one of norm <= tol are dropped before scaling
    assert np.array_equal(
        _extend(flat, np.array([np.zeros(4), unit(4, (2, 1e-10))]), TOL), flat)
    got = _extend(flat, unit(4, (0, 1.0), (1, 1e-7))[None], TOL)
    assert len(got) == 2 and np.array_equal(got[0], flat[0])
    assert abs(abs(got[1, 1]) - 1.0) <= 1e-12
    assert np.abs(got[1, [0, 2, 3]]).max() <= 1e-12


@pytest.mark.parametrize("build", [
    lambda: ia.build_qdeform(17, 0.3, "heisenberg"),
    lambda: ia.build_qdeform(28, 0.5, "heisenberg"),
    lambda: generate_closure([np.diag([1.0, 1.0 + 4e-9])]),
], ids=["q03_n17", "q05_n28", "diag_band"])
def test_a_gap_in_the_band_is_final(monkeypatch, build):
    def fallback(*args):
        raise AssertionError("the Gram-Schmidt fallback was called")

    monkeypatch.setattr(ia.algebra, "_gram_schmidt_closure", fallback)
    with pytest.raises(ToleranceCollapse, match="rejected eigenvalue gap"):
        build()


# ---------------------------------------------------------------------------
# The one-walk towers against the pre-check-then-rebuild walk.
# ---------------------------------------------------------------------------

def reference_tower(sys, image, tol):
    """The tower walk that certifies a fixed point by building the next
    closure and finding its dimension unchanged."""
    cur = sys.algebra
    for _ in range(sys.dim ** 2 + 2):
        nxt = generate_closure(np.concatenate([cur.basis, image(cur.basis)]),
                               tol, dim=sys.dim)
        if nxt.dim == cur.dim:
            return cur
        cur = nxt
    return cur


def reference_towers(sys):
    """build_towers with the extendability pre-check, the orbit loops,
    ahead of the delta tower."""
    assert max(loop_extendability(sys)[0]) <= sys.tol
    ext = reference_tower(sys, sys.delta, sys.tol)
    ext_sys = IsometrySystem(ext, sys.u)
    return ext, reference_tower(ext_sys, ext_sys.delta_star, sys.tol)


@pytest.mark.parametrize("name", ["qdeform12", "polar6", "cyclic5",
                                  "raw_system", "span1_shift5", "q05_n12",
                                  "q09_n24", "polar07_n24"])
def test_one_walk_towers_match_the_reference(request, name):
    if name == "span1_shift5":
        # span{1} with the backward shift on C^5: the delta tower grows 1 -> 5
        sys = IsometrySystem(generate_closure([], dim=5), ia.backward_shift(5))
        towers = build_towers(sys)
        assert [t.dim for t in towers] == [5, 5]
    elif name in ("cyclic5", "raw_system"):
        sys = request.getfixturevalue(name)
        towers = build_towers(sys)
    else:
        m = (request.getfixturevalue(name) if name in ("qdeform12", "polar6")
             else request.getfixturevalue("ladder_models")[name])
        sys = IsometrySystem(m.seed_algebra, m.u)
        towers = (m.delta_tower, m.system.algebra)
    for got, ref in zip(towers, reference_towers(sys), strict=True):
        assert got.dim == ref.dim
        equal, defect = spans_equal(got.basis, ref.basis, TOL)
        assert equal, defect


def corner_shift_system(n):
    """The backward shift on C^n with A = C*(e_{n-1,n} + e_{n,n-1}).  U*U =
    1 - e11 commutes with delta^k(A) for k < n - 2, but delta^(n-2)(A)
    holds e12 + e21."""
    x = np.zeros((n, n), complex)
    x[n - 2, n - 1] = x[n - 1, n - 2] = 1.0
    return IsometrySystem(generate_closure([x]), ia.backward_shift(n))


def test_extend_delta_checks_every_stage():
    sys = corner_shift_system(4)
    assert [w <= sys.tol for w in loop_extendability(sys)[0][:3]] == [
        True, True, False]
    with pytest.raises(HypothesisViolated,
                       match="extendability fails; delta tower unsound") as info:
        extend_delta(sys)
    rep = info.value.report
    assert rep.name == "extendability"
    assert [d.check for d in rep.defects] == [
        "U*U commutes with the algebra",
        "U*U commutes with delta(tower stage 0)",
        "U*U commutes with delta(tower stage 1)"]
    assert [d.ok for d in rep.defects] == [True, True, False]
    # the check's report is the walk's
    assert check_extendability(sys) == rep


def test_model_builds_scan_no_orbit(monkeypatch):
    # a build checks extendability on its delta tower's own walk, the one
    # walk it makes, and runs no separate check of it
    calls = []
    real = ia.algebra._checked_walk
    monkeypatch.setattr(ia.algebra, "_checked_walk",
                        lambda *args: calls.append(args) or real(*args))
    ia.build_qdeform(6, 0.5, "heisenberg")
    ia.build_polar_model(ia.weighted_backward_shift(
        [0.5 ** (j / 2) for j in range(1, 6)]))
    assert [args[2] for args in calls] == ["delta", "delta_star"] * 2


# ---------------------------------------------------------------------------
# The one checked walker against the two walks it replaced: a delta tower
# walk with its checks passed in as a callback, and a delta_star walk that
# recorded both of its hypotheses before it decided.
# ---------------------------------------------------------------------------

def reference_tower_walk(sys, image, check=None):
    """The callback walk: each stage's images go to ``check`` (False stops
    the walk with None), then to the fixed-point test."""
    cur = sys.algebra
    for stage in range(sys.dim ** 2 + 2):
        images = image(cur.basis)
        if check is not None and not check(stage, images):
            return None
        scale = np.maximum(1.0, np.linalg.norm(images, axis=(1, 2)))
        if np.all(cur.span_defects(images) <= sys.tol * scale):
            return cur
        cur = generate_closure(np.concatenate([cur.basis, images]), sys.tol,
                               dim=sys.dim)
    return cur


def reference_delta_walk(sys, commutative=False):
    tol, basis = sys.tol, sys.algebra.basis
    lefts = [("U*U", sys.proj_initial(1))]
    if commutative:
        rep = ia.ConditionReport("commutative_extendability")
        if not rep.add("algebra commutative", sys.algebra.commutator_defect,
                       tol).ok:
            return rep, None
        lefts.append(("the algebra", basis))
    else:
        rep = ia.ConditionReport("extendability")

    def commute(pairs, label, stack):
        return all(rep.add(f"{name} commutes with {label}",
                           _commutator_norm(left, stack), tol).ok
                   for name, left in pairs)

    if not commute(lefts[:1], "the algebra", basis):
        return rep, None
    ext = reference_tower_walk(sys, sys.delta, lambda stage, images: commute(
        lefts, f"delta(tower stage {stage})", images))
    if ext is not None:
        rep.note(f"the delta tower closes at dimension {ext.dim}")
    return rep, ext


def reference_delta_star_walk(sys):
    rep = ia.ConditionReport("delta_star_tower_hypotheses")
    rep.add("intertwining relation",
            check_intertwining_equivalents(sys).defects[0].value, sys.tol)
    rep.add("delta maps algebra into itself", sys.delta_invariance_defect,
            sys.tol)
    return rep, (reference_tower_walk(sys, sys.delta_star) if rep.passed
                 else None)


def assert_same_walk(got, ref):
    (rep, tower), (ref_rep, ref_tower) = got, ref
    assert rep.to_json() == ref_rep.to_json()
    assert (tower is None) == (ref_tower is None)
    if tower is not None:
        assert np.array_equal(tower.basis, ref_tower.basis)


@pytest.mark.parametrize("name", FIXTURE_SYSTEMS + [
    "shift3_projection", "rotation_pi6",
    *(f"corner_shift{n}" for n in range(4, 11))])
def test_walker_reports_match_the_replaced_walks(request, name):
    sys = (corner_shift_system(int(name[12:]))
           if name.startswith("corner_shift") else fixture_system(request, name))
    assert_same_walk(sys.delta_walk, reference_delta_walk(sys))
    # commutative extendability is decided on the delta tower itself: its
    # verdict is the interleaved pair walk's, its entries are not
    ref_rep, ref_tower = reference_delta_walk(sys, commutative=True)
    rep = check_commutative_extendability(sys)
    assert rep.passed == ref_rep.passed == (ref_tower is not None)
    assert rep.defects[0] == ref_rep.defects[0]  # "algebra commutative"
    ref_rep, ref_tower = reference_delta_star_walk(sys)
    if ref_rep.passed:
        # a passing walk notes its tower's dimension, as the delta walks do
        ref_rep.note(f"the delta_star tower closes at dimension "
                     f"{ref_tower.dim}")
        assert_same_walk(sys.delta_star_walk, (ref_rep, ref_tower))
        return
    # the one difference: the walk stops at its first failing entry, where
    # the replaced walk recorded both hypotheses whatever the first gave
    rep, tower = sys.delta_star_walk
    assert tower is None and ref_tower is None
    first = [d.ok for d in ref_rep.defects].index(False)
    assert rep.defects == ref_rep.defects[:first + 1] and not rep.notes


# ---------------------------------------------------------------------------
# The frame measures of the delta and delta_star images and of the power
# entries against the dense bodies they replaced, kept as oracles.  Each
# is exact for a unitary frame V; a distance to the algebra is within the
# factor 1 +- ||E||, E = V*V - I; both up to the rounding of the products.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def frame_models(ladder_models, qdeform12, polar6):
    """Models whose algebras all have frames: q12, p6, a rotated p6, the
    rotated polar models rot09 at n = 24 and 48 (dense frames, E != 0)
    and the ladder models."""
    models = {"qdeform12": qdeform12, "polar6": polar6,
              "p6_rotated": ia.build_polar_model(
                  rotated(weighted_shift(6, 0.5), 3))}
    for n in (24, 48):
        models[f"rot09_n{n}"] = ia.build_polar_model(
            rotated(weighted_shift(n, 0.9), 0))
    return {**models, **ladder_models}


def frame_oracle_systems(request, name):
    """Fresh systems over each algebra of a model (or of a raw system)."""
    if name == "q6x2":
        sys = request.getfixturevalue("q6x2")
        return [IsometrySystem(sys.algebra, sys.u)]
    m = request.getfixturevalue("frame_models")[name]
    algebras = {id(alg): alg for alg in (m.seed_algebra, m.delta_tower,
                                          m.system.algebra)}
    return [IsometrySystem(alg, m.u) for alg in algebras.values()]


def frame_error(alg):
    return float(np.linalg.norm(alg._frame_gram - np.eye(alg.ambient_dim)))


def assert_within_frame_bound(got, want, n, e=0.0):
    """|got - want| within the factor 1 +- e of got, plus the rounding of
    n x n products: 4 n eps relative to max(1, |want|)."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    slack = 4 * n * np.finfo(float).eps * np.maximum(1.0, np.abs(want))
    assert (np.abs(got - want) <= e * np.abs(got) + slack).all(), (got, want)


def _counted(monkeypatch, cls, name):
    """Replace the cached property ``name`` of ``cls`` by one that records,
    in the returned list, each instance it measures."""
    body, calls = vars(cls)[name].func, []

    def counted(self):
        calls.append(self)
        return body(self)
    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


@pytest.mark.parametrize("name", ["rot09_n24", "p6_rotated", "qdeform12"])
def test_each_frame_quantity_is_measured_once(frame_models, name,
                                              monkeypatch):
    # ||V*V - I||_F is one value of the frame algebra, read by "identity in
    # span", commutator_defect, the chain model's first premise and the
    # gauge bound; V^-1 U V is one product of the delta images, read by
    # their distances and the chain model
    errors = _counted(monkeypatch, FiniteStarAlgebra, "_frame_error")
    coords = _counted(monkeypatch, _Images, "_frame_coordinates")
    m = frame_models[name]
    alg = FiniteStarAlgebra(m.system.algebra.frame, tol=m.system.algebra.tol)
    sys = IsometrySystem(alg, m.system.u)
    forms = ia.random_normal_forms(sys, 5, 0)
    assert alg.commutator_defect >= 0.0 <= sys.delta_invariance_defect
    assert ia.norms.gauge_invariance_sample(sys, forms).passed
    assert errors == [alg]
    # each images' product once: the delta images', and those of delta_star
    assert coords == [sys._images(alg, False), sys._images(alg, True)]
    (ident,) = [d.value for d in alg.invariant_report().defects
                if d.check == "identity in span"]
    assert ident == sys.chains.margins[0] == alg._frame_error
    assert ident == frame_error(alg)
    vecs = alg.frame.vecs
    assert np.array_equal(sys._images(alg, False)._frame_coordinates,
                          np.linalg.inv(vecs) @ (sys.u @ vecs))


FRAME_MODELS = ["qdeform12", "polar6", "p6_rotated", "rot09_n24",
                "rot09_n48", "q6x2", "q05_n12", "q09_n24", "polar07_n24"]


def assert_images_match_the_dense_images(sys, projections):
    """Per delta and delta_star image of the basis: its distance to the
    algebra, its commutator with each Hermitian projection, the
    fixed-point verdict and the stack, against the dense stack of
    conjugates."""
    alg, n = sys.algebra, sys.dim
    e, ranks = frame_error(alg), alg.frame.ranks
    for star, image in ((False, sys.delta), (True, sys.delta_star)):
        images, dense = sys._images(alg, star), image(alg.basis)
        assert_within_frame_bound(images.distances, alg.span_defects(dense),
                                  n, e)
        w = images._factors
        for p in projections:
            assert_within_frame_bound(
                _per_block(_commutator_norms, p @ w, w, ranks),
                spectral_norms(p @ dense - dense @ p), n)
        assert images.closed == bool(alg.membership(dense)[0].all())
        # the stack, built only for a closure, is the dense one
        assert np.abs(images.stack - dense).max() <= 4 * n * np.finfo(
            float).eps


def assert_power_entries_match_the_dense_bodies(sys, k_max):
    """Per k <= k_max: ||X^k a - delta_X^k(a) X^k|| for X = U and U*, and
    ||[U^{*k}U^k, a]||, worst over the basis, against the dense bodies."""
    basis, n = sys.algebra.basis, sys.dim
    for k in range(1, k_max + 1):
        uk, pk = sys.power(k), sys.proj_initial(k)
        for xk, image, proj in (
                (uk, sys.delta_n, pk),
                (adjoint(uk), sys.delta_star_n, sys.proj_final(k))):
            assert_within_frame_bound(
                _intertwining_entry(sys.algebra, xk[None], proj[None]),
                spectral_norms(xk @ basis - image(basis, k) @ xk).max(), n)
        assert_within_frame_bound(
            _Images(sys.algebra).commutator_norm(pk[None]),
            spectral_norms(pk @ basis - basis @ pk).max(), n)


@pytest.mark.parametrize("name", FRAME_MODELS)
def test_frame_images_and_power_entries_match_the_dense_bodies(request,
                                                               name):
    for sys in frame_oracle_systems(request, name):
        assert sys.algebra.frame is not None
        assert_images_match_the_dense_images(sys, [sys.proj_initial(1)])
        assert_power_entries_match_the_dense_bodies(sys, 8)
        # the report entries are the worst over k
        basis = sys.algebra.basis
        got = [d.value for d in verify_power_identities(sys, 8).defects[2:4]]
        assert_within_frame_bound(got, [
            loop_power_intertwining(sys, 8),
            max(loop_commutator_norm(sys.proj_initial(k), basis)
                for k in range(1, 9))], sys.dim)


# fixtures whose walks reach their images, with frames and without
WALK_FIXTURES = ["qdeform12", "polar6", "cyclic5", "cyclic3_shift4",
                 "raw_system", "amplified_q12", "corner_shift9",
                 "rotation_pi6"]


@pytest.mark.parametrize("name", WALK_FIXTURES + FRAME_MODELS)
def test_walk_images_lie_in_the_unit_ball_up_to_the_defect(request,
                                                           monkeypatch, name):
    # the fixed-point test reads distances at scale 1: every image x b x*
    # that a walk tests, x = U or U*, has ||x b x*||_F <= ||U||^2 ||b||_F,
    # with ||U||^2 <= 1 + eps, eps U's partial-isometry defect, and
    # ||b||_F^2 <= 1 + the basis's orthonormality defect; so the rule at
    # the image's own norm gives the same verdict
    if name in WALK_FIXTURES:
        fixture = fixture_system(request, name)
        systems = [IsometrySystem(fixture.algebra, fixture.u)]
    else:
        systems = frame_oracle_systems(request, name)
    tested = []
    real = IsometrySystem._images

    def images(self, algebra, star):
        tested.append((self.u, star, real(self, algebra, star)))
        return tested[-1][2]

    monkeypatch.setattr(IsometrySystem, "_images", images)
    for sys in systems:
        sys.delta_walk, sys.delta_star_walk
    # the delta_star hypotheses fail on corner_shift9 and rotation_pi6
    delta_only = name in ("corner_shift9", "rotation_pi6")
    assert {star for _, star, _ in tested} == {False, not delta_only}
    frame = set()
    for u, star, imgs in tested:
        alg, target, n = imgs.algebra, imgs.target, len(u)
        frame.add(alg.frame is not None)
        eps = max(d.value for d in
                  IsometrySystem(alg, u).partial_isometry.defects)
        orth = alg.invariant_report().defects[0].value
        x = adjoint(u) if star else u
        dense = x @ alg.basis @ adjoint(x)
        norms = np.linalg.norm(dense, axis=(1, 2))
        rounding = 4 * n * np.finfo(float).eps
        assert norms.max() <= (1 + eps) * np.sqrt(1 + orth) + rounding, (
            norms.max(), eps, orth)
        assert imgs.closed == bool(target.membership(dense)[0].all())
        assert imgs.closed == bool(
            target._within(imgs.distances, norms).all())
    # frame-less stages on raw_system and amplified_q12, and the
    # non-commutative later stages of the two delta-only walks
    assert (True in frame) == (name not in ("raw_system", "amplified_q12"))
    assert (False in frame) == (name in ("raw_system", "amplified_q12",
                                         "corner_shift9", "rotation_pi6"))


@pytest.mark.parametrize("seed", range(6))
def test_frame_measures_match_the_dense_bodies_on_generic_systems(seed):
    # random frames with blocks of mixed ranks and a random partial
    # isometry: every value is generic and far from 0
    gens, labels = random_commuting_normal_set(seed)
    alg, n = generate_closure(gens), len(labels)
    rng = np.random.default_rng(100 + seed)
    w, v = (np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
            for _ in range(2))
    sys = IsometrySystem(alg, w @ v @ np.diag([1.0] * (n - 1) + [0.0])
                         @ adjoint(v))
    # (only the identity, in a 1-dim algebra, commutes with U*U)
    assert alg.dim == 1 or (sys.delta_invariance_defect > 0.1
                            and sys.uu_commutator_defect > 0.1)
    assert_images_match_the_dense_images(
        sys, [sys.proj_initial(1), sys.proj_final(2)])
    assert_power_entries_match_the_dense_bodies(sys, 3)
    gen = sys.gauge_candidate
    assert_within_frame_bound(gen.commutation,
                              loop_commutator_norm(gen.matrix(), alg.basis), n)


def polar_commutator_entry(m, k_max):
    return next(d.value for d in polar_structure_suite(m, k_max).defects
                if d.check == "U^k U^{*k} commutes with seed algebra")


@pytest.mark.parametrize("name", FRAME_MODELS)
def test_frame_basis_commutators_match_the_dense_loops(request, name):
    # the gauge candidate's eta = max ||[H', b_i]|| and polar_structure's
    # ||[U^kU^{*k}, b_i]|| are commutators of the basis, its x = 1 images
    for sys in frame_oracle_systems(request, name):
        gen = sys.gauge_candidate
        assert_within_frame_bound(gen.commutation, loop_commutator_norm(
            gen.matrix(), sys.algebra.basis), sys.dim)
    m = request.getfixturevalue("frame_models").get(name)
    if hasattr(m, "abs_a"):
        sys = IsometrySystem(m.seed_algebra, m.u)
        assert_within_frame_bound(polar_commutator_entry(m, 8), max(
            loop_commutator_norm(sys.proj_final(k), m.seed_algebra.basis)
            for k in range(1, 9)), sys.dim)


def assert_distances_match_the_oracle(a, b):
    """The distances of each algebra's basis to the other algebra, as
    measured in the target's frame, against an SVD basis of its span."""
    for source, target in ((a, b), (b, a)):
        assert_within_frame_bound(
            _Images(source, target=target).distances,
            _span_defects(_svd_span(target.basis), source.basis),
            source.ambient_dim, frame_error(target))


def test_frame_distances_across_ranks_match_the_oracle(qdeform12, polar6,
                                                       q6x2,
                                                       shift3_projection):
    # frames cut at different ranks: the rows of V_t^{-1} V_s at the
    # target's, the columns at the source's
    pairs = []
    for alg in (qdeform12.system.algebra, polar6.system.algebra):
        pairs.append((alg, generate_closure([alg.basis[0]], alg.tol)))
    for sys in (q6x2, shift3_projection):
        n = sys.dim
        pairs.append((sys.algebra, generate_closure([np.diag(
            np.arange(n, dtype=complex))], sys.tol)))
    # ||E|| ~ 1e-5 on both frames, of ranks [2, 1, 3] and [3, 3]
    rng = np.random.default_rng(7)
    v0 = np.linalg.qr(rng.standard_normal((6, 6))
                      + 1j * rng.standard_normal((6, 6)))[0]
    a, b = (FiniteStarAlgebra(Frame(v0 @ (np.eye(6) + 1e-6 * (
        rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))),
        np.array(ranks)), tol=1e-4) for ranks in ([2, 1, 3], [3, 3]))
    assert 1e-6 < min(frame_error(a), frame_error(b))
    pairs.append((a, b))
    for a, b in pairs:
        assert a.frame is not None and b.frame is not None
        assert a.frame.ranks.tolist() != b.frame.ranks.tolist()
        assert_distances_match_the_oracle(a, b)


@pytest.mark.parametrize("ranks", [[1] * 6, [2, 1, 3]])
def test_frame_distances_keep_their_bound_on_a_perturbed_frame(ranks):
    # V = V0 (1 + 1e-6 G), so ||E|| ~ 1e-5, and U = V0 S V0* maps the
    # algebra of V0 into itself: the images lie at distances of order
    # ||E|| from the algebra of V, which V* in place of V^{-1} would miss
    # by a term of the same order
    rng = np.random.default_rng(7)
    n = 6
    v0, g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             for _ in range(2))
    v0 = np.linalg.qr(v0)[0]
    alg = FiniteStarAlgebra(Frame(v0 @ (np.eye(n) + 1e-6 * g),
                                  np.array(ranks)), tol=1e-4)
    u = v0 @ ia.backward_shift(n) @ adjoint(v0)
    sys, e = IsometrySystem(alg, u), frame_error(alg)
    assert 1e-6 < e < 1e-4
    span = _svd_span(alg.basis)
    for star, x in ((False, u), (True, adjoint(u))):
        distances = _span_defects(span, x @ alg.basis @ adjoint(x))
        assert_within_frame_bound(sys._images(alg, star).distances,
                                  distances, n, e)


def assert_walk_within_frame_bound(got, ref, n, e):
    """The same entries, verdicts, notes and tower span as the dense
    walk's, with values within the frame bound."""
    (rep, tower), (ref_rep, ref_tower) = got, ref
    assert [(d.check, d.ok) for d in rep.defects] == [
        (d.check, d.ok) for d in ref_rep.defects]
    assert rep.notes == ref_rep.notes
    assert_within_frame_bound([d.value for d in rep.defects],
                              [d.value for d in ref_rep.defects], n, e)
    assert (tower is None) == (ref_tower is None)
    if tower is not None:
        assert tower.dim == ref_tower.dim
        assert spans_equal(tower.basis, ref_tower.basis, TOL)[0]


@pytest.mark.parametrize("name", FRAME_MODELS)
def test_frame_walks_match_the_dense_walks(request, name):
    for sys in frame_oracle_systems(request, name):
        e = frame_error(sys.algebra)
        assert_walk_within_frame_bound(sys.delta_walk,
                                       reference_delta_walk(sys), sys.dim, e)
        ref_rep, ref_tower = reference_delta_star_walk(sys)
        assert ref_rep.passed
        ref_rep.note(f"the delta_star tower closes at dimension "
                     f"{ref_tower.dim}")
        assert_walk_within_frame_bound(sys.delta_star_walk,
                                       (ref_rep, ref_tower), sys.dim, e)


def test_extend_delta_star_report_ends_at_the_failing_entry(broken_system):
    with pytest.raises(HypothesisViolated, match="delta_star tower unsound"
                       ) as info:
        extend_delta_star(broken_system)
    rep = info.value.report
    assert [(d.check, d.ok) for d in rep.defects] == [
        ("intertwining relation", False)]
    # power_structure still records both hypotheses
    power = verify_power_identities(broken_system, 2)
    assert [(d.check, d.ok) for d in power.defects[:2]] == [
        ("hypothesis: intertwining relation", False),
        ("hypothesis: delta maps algebra into itself", True)]


def test_walks_and_intertwining_report_are_made_once_per_system(
        qdeform6, monkeypatch):
    calls = []
    real = ia.algebra._checked_walk
    monkeypatch.setattr(ia.algebra, "_checked_walk",
                        lambda *args: calls.append(args[1]) or real(*args))
    bodies = count_cached_defects(monkeypatch)
    sys = IsometrySystem(qdeform6.system.algebra, qdeform6.u)
    for _ in range(2):
        check_extendability(sys)
        check_commutative_extendability(sys)
        extend_delta(sys)
        extend_delta_star(sys)
        check_coefficient_algebra(sys)
        check_intertwining_equivalents(sys)
        verify_power_identities(sys, 2)
        check_extension_towers(sys)
    # the tower closes at the system's own algebra, so extension_towers
    # reads the system's walks and its endomorphism entries its defects
    assert calls == ["extendability", "delta_star_tower_hypotheses"]
    assert bodies == dict.fromkeys(CACHED_DEFECTS, 1)
    assert check_coefficient_algebra(sys).defects[:4] == (
        check_intertwining_equivalents(sys).defects)


def test_commutative_extendability_takes_no_pair_loop(ladder_models,
                                                      monkeypatch):
    # on a frame system the check reads the delta walk and the tower's
    # frame commutator defect, and the walk takes its U*U entries in the
    # frame: no commutator norm of a dense stack is taken at all
    m = ladder_models["q09_n24"]
    sys = IsometrySystem(m.seed_algebra, m.u)
    lefts = []
    real = ia.algebra._commutator_norm
    monkeypatch.setattr(ia.algebra, "_commutator_norm", lambda left, right: (
        lefts.append(left.shape) or real(left, right)))
    rep = check_commutative_extendability(sys)
    assert rep.passed and sys.delta_walk[1].frame is not None
    assert [d.check for d in rep.defects if d.check.startswith("U*U")] == [
        "U*U commutes with the algebra",
        "U*U commutes with delta(tower stage 0)"]
    assert lefts == []


def test_frame_systems_conjugate_no_basis_stack(ladder_models, raw_system,
                                                monkeypatch):
    # a frame build, and every algebra check on its systems, takes the
    # images of a basis from W = UV and U*V: no (d, n, n) stack of
    # conjugates is made, by IsometrySystem._conjugate or otherwise
    shapes = []
    real = ia.algebra._conjugates
    monkeypatch.setattr(ia.algebra, "_conjugates", lambda x, m: (
        shapes.append(np.shape(m)) or real(x, m)))
    # the dense bodies of a frame-less system do make them
    check_coefficient_algebra(IsometrySystem(raw_system.algebra,
                                             raw_system.u))
    assert shapes and all(len(shape) == 3 for shape in shapes)
    shapes.clear()
    models = [ia.build_qdeform(12, 0.5, "heisenberg"),
              ia.build_polar_model(weighted_shift(24, 0.7)),
              ia.build_polar_model(rotated(weighted_shift(6, 0.5), 3)),
              *ladder_models.values()]
    for m in models:
        for sys in (IsometrySystem(m.seed_algebra, m.u),
                    IsometrySystem(m.system.algebra, m.u)):
            assert sys.algebra.frame is not None
            for rep in (check_coefficient_algebra(sys),
                        check_adjoint_intertwining(sys),
                        check_commutative_extendability(sys),
                        verify_power_identities(sys, 8),
                        check_extension_towers(sys)):
                assert rep.passed, rep
    assert not [shape for shape in shapes if len(shape) == 3], shapes


def test_frame_entries_take_no_dense_pair_body(ladder_models, raw_system,
                                               monkeypatch):
    # the gauge candidate's commutation, polar_structure's U^kU^{*k}
    # commutator and "towers have equal spans" measure a frame basis as
    # the x = 1 case of its images: no commutator of a basis stack and no
    # span_defects.  polar_structure's memberships stay span_defects
    calls = []
    real_comm, real_span = ia.algebra._commutator_norm, (
        FiniteStarAlgebra.span_defects)
    for module in (ia.algebra, ia.models):  # models may bind the name too
        monkeypatch.setattr(module, "_commutator_norm", lambda left, right: (
            calls.append(("commutator", right)) or real_comm(left, right)),
            raising=False)
    monkeypatch.setattr(FiniteStarAlgebra, "span_defects", lambda alg, m: (
        calls.append(("span_defects", m)) or real_span(alg, m)))

    def measured(measure, basis=None):
        """The pair bodies a measure calls (on ``basis`` alone if given)."""
        calls.clear()
        measure()
        return [kind for kind, arg in calls if basis is None or arg is basis]

    models = [ia.build_qdeform(12, 0.5, "heisenberg"),
              ia.build_polar_model(rotated(weighted_shift(6, 0.5), 3)),
              *ladder_models.values()]
    for m in models:
        for alg in (m.seed_algebra, m.system.algebra):
            sys = IsometrySystem(alg, m.u)
            assert alg.frame is not None
            assert measured(lambda: sys.gauge_candidate) == []
            assert measured(lambda: check_extension_towers(sys)) == []
        if hasattr(m, "abs_a"):
            assert measured(lambda: polar_structure_suite(m, 8),
                            m.seed_algebra.basis) == []
    # the controls: frame-less algebras take the pair bodies
    sys = IsometrySystem(raw_system.algebra, raw_system.u)
    assert measured(lambda: sys.gauge_candidate,
                    raw_system.algebra.basis) == ["commutator"]
    m = models[1]
    copy = FiniteStarAlgebra(m.seed_algebra.basis, tol=m.seed_algebra.tol)
    sys = IsometrySystem(copy, m.u)
    assert measured(lambda: check_extension_towers(sys),
                    copy.basis).count("span_defects") == 2
    polar = dataclasses.replace(m, seed_algebra=copy)
    assert measured(lambda: polar_structure_suite(polar, 8),
                    copy.basis) == ["commutator"]


def test_powers_past_the_cache_are_taken_by_squaring(cyclic5):
    # once grown to its cap the cache holds U^0..U^{2n+4}; a power past
    # it is built from cached powers in O(log k) products, and the cache
    # does not grow
    sys = IsometrySystem(generate_closure([], dim=5), cyclic5.u @ np.diag(
        np.exp(1j * np.arange(5))))
    assert sys.nilpotency_index is None
    sys.power(2 * sys.dim + 4)
    top = len(sys._powers) - 1
    assert top == 2 * sys.dim + 4
    ks = [0, 3, top, top + 1, 2 * top + 3, 100, 10 ** 9]
    got = sys.power_stack(ks)
    for k, p in zip(ks, got):
        # the phases' rounding grows with k in any float power
        want = np.linalg.matrix_power(sys.u, k)
        assert np.abs(p - want).max() <= 8 * np.finfo(float).eps * max(1, k)
    assert len(sys._powers) == top + 1
    # a permutation's powers are exact either way
    assert np.array_equal(cyclic5.power(10 ** 9),
                          np.linalg.matrix_power(cyclic5.u, 10 ** 9))


def sequential_powers(u, tol):
    """U^0, U^1, ... by U^{k+1} = U^k U, up to U^{2n+4} or the first power
    with ||U^k||_F <= tol, which is an exact zero."""
    powers = [np.eye(len(u), dtype=complex)]
    for _ in range(2 * len(u) + 4):
        powers.append(powers[-1] @ u)
        if np.linalg.norm(powers[-1]) <= tol:
            powers[-1] = np.zeros_like(u)
            break
    return powers


@pytest.mark.parametrize("name", [
    "qdeform12", "polar6", "p6_rotated", "cyclic5", "rot09_n24",
    *(f"corner_shift{n}" for n in range(4, 11))])
def test_powers_and_projections_are_the_sequential_products(request, name):
    if name.startswith("corner_shift"):
        sys = corner_shift_system(int(name[12:]))
    elif name in ("p6_rotated", "rot09_n24"):
        sys = request.getfixturevalue("frame_models")[name].system
    else:
        sys = fixture_system(request, name)
    want = sequential_powers(sys.u, sys.tol)
    top = len(want) - 1
    index = None if want[-1].any() else top
    # a fresh cache, asked out of order and partly before the index is
    # decided, holds the same products bit for bit
    fresh = IsometrySystem(sys.algebra, sys.u)
    for ks in ([3, 1], [top, 0, 2], range(top + 1)):
        for got, k in zip(fresh.power_stack(ks), ks):
            assert np.array_equal(got, want[k]), k
        for k in ks:
            assert np.array_equal(fresh.proj_initial(k),
                                  adjoint(want[k]) @ want[k]), k
            assert np.array_equal(fresh.proj_final(k),
                                  want[k] @ adjoint(want[k])), k
    assert fresh.nilpotency_index == index
    assert len(fresh._powers) == top + 1
    # the three families, for k_max below, at and past the index, are the
    # same products up to k = D + 1, D the depth
    k_maxes = (1, top - 1) if index is None else (1, index - 1, index,
                                                  index + 5)
    for k_max in k_maxes:
        depth = k_max if index is None else min(k_max, index - 1)
        families = IsometrySystem(sys.algebra, sys.u).power_families(k_max)
        for got, p in zip(zip(*families, strict=True), want[:depth + 2],
                          strict=True):
            assert np.array_equal(got[0], p), k_max
            assert np.array_equal(got[1], adjoint(p) @ p), k_max
            assert np.array_equal(got[2], p @ adjoint(p)), k_max
    if index is not None:
        assert index == {"qdeform12": 12, "polar6": 6, "p6_rotated": 6,
                         "rot09_n24": 24}.get(name, len(sys.u))
        assert not fresh.power_stack([index + 1, 10 ** 9]).any()
    # the generator sums the same projections in the same order as a sum
    # over their stack
    stack = np.array(want)
    total = (adjoint(stack) @ stack)[1:].sum(axis=0)
    assert np.array_equal(fresh.gauge_candidate.vecs,
                          np.linalg.eigh(-total)[1])


def test_a_build_and_its_coefficient_check_hold_two_powers(tmp_path,
                                                           monkeypatch):
    # the build and the checks of U and U*U read U^0 and U^1 alone: no
    # system keeps a further power or any (K, n, n) stack
    spec = {"type": "qdeform", "n": 64, "q": 0.9, "rho": "heisenberg"}
    path = tmp_path / "q09_n64.json"
    path.write_text(json.dumps(spec))
    systems = []
    real = IsometrySystem.__init__

    def init(self, algebra, u):
        systems.append(self)
        real(self, algebra, u)

    monkeypatch.setattr(IsometrySystem, "__init__", init)
    assert main(["closure", "--model", str(path),
                 "--out", str(tmp_path / "out.json")]) == 0
    loaded = ia.load_model(spec)
    assert check_coefficient_algebra(loaded.system).passed
    assert len(systems) >= 2
    for sys in systems:
        assert len(sys._powers) <= 2
        assert not [k for k, v in vars(sys).items()
                    if isinstance(v, np.ndarray) and v.ndim == 3]
    assert len(loaded.system._powers) == 2


@pytest.mark.parametrize("name, index", [("qdeform12", 12), ("polar6", 6)])
def test_power_entries_stop_at_the_nilpotency_index(request, monkeypatch,
                                                    name, index):
    # past the index every power is an exact zero and every entry reads 0,
    # so a huge k_max asks for no power past the index and reads what
    # measuring every k up to and past the index reads
    model = request.getfixturevalue(name)
    asked = []
    real = IsometrySystem.power_stack

    def power_stack(self, ks):
        ks = np.asarray(ks, dtype=int)
        asked.append(int(ks.max(initial=0)))
        return real(self, ks)

    monkeypatch.setattr(IsometrySystem, "power_stack", power_stack)
    suites = [verify_power_identities]
    if name == "polar6":
        suites.append(lambda sys, k_max: polar_structure_suite(model, k_max))
    for suite in suites:
        asked.clear()
        fresh = IsometrySystem(model.system.algebra, model.system.u)
        huge = suite(fresh, 10 ** 11)
        assert max(asked) <= index
        assert len(fresh._powers) <= index + 1
        assert any(f"k <= {10 ** 11}" in d.check for d in huge.defects)
        with monkeypatch.context() as patch:
            patch.setattr(IsometrySystem, "_power_depth",
                          lambda self, k_max: k_max)
            every_k = suite(
                IsometrySystem(model.system.algebra, model.system.u),
                index + 2)
        assert max(asked) > index
        assert ([d.value for d in huge.defects]
                == [d.value for d in every_k.defects])


@pytest.mark.parametrize("name, other", [("delta_n", "delta_star_n"),
                                         ("delta_star_n", "delta_n")])
def test_a_negative_map_power_names_the_map(cyclic5, name, other):
    with pytest.raises(ValueError, match=(
            rf"^{name} takes a power n >= 0, got -2; the conjugation the "
            rf"other way is {other}\(m, 2\)$")):
        getattr(cyclic5, name)(np.eye(5), -2)


def test_families_past_the_address_range_raise_memory_error(cyclic5):
    # the cyclic shift is not nilpotent, so its families up to 10^11 are
    # not held; run turns this MemoryError into exit 2 naming --k-max
    sys = IsometrySystem(cyclic5.algebra, cyclic5.u)
    with pytest.raises(MemoryError):
        sys.power_families(10 ** 11)
    assert len(sys._powers) == 2 * sys.dim + 5


@pytest.mark.parametrize("name, suite", [("qdeform12", "power_structure"),
                                         ("polar6", "power_structure"),
                                         ("polar6", "polar_structure")])
def test_power_checks_form_each_stack_once(request, monkeypatch, name,
                                           suite):
    # a check forms U^0..U^{D+1} once and both projection stacks from it;
    # its entries read slices of the three
    model = request.getfixturevalue(name)
    sys = IsometrySystem(model.system.algebra, model.system.u)
    for hypothesis in ("intertwining_defect", "delta_invariance_defect"):
        getattr(sys, hypothesis)  # cached before the count
    calls = {"power_stack": 0, "power_families": 0}
    for attr in calls:
        def counted(self, *args, attr=attr,
                    real=getattr(IsometrySystem, attr), **kwargs):
            calls[attr] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(IsometrySystem, attr, counted)
    if suite == "power_structure":
        rep = verify_power_identities(sys, 8)
    else:
        rep = polar_structure_suite(model, 8)
    assert rep.passed
    assert calls == {"power_stack": 1, "power_families": 1}


def test_commutant_keeps_no_left_singular_basis():
    # the joint commutator system of a 12-dim algebra on C^12 has
    # 12 * 144 rows; a full left-singular basis of it alone is 48 MB
    alg = generate_closure([np.diag(np.arange(1.0, 13.0)).astype(complex)])
    assert alg.dim == 12
    tracemalloc.start()
    try:
        c = commutant(alg.basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spans_equal(c.basis, alg.basis, TOL)[0]
    assert peak < 24 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# The extendability checks and extension_towers decide their hypotheses on
# the delta tower's walk; the orbit loops over every delta^n are the
# reference.
# ---------------------------------------------------------------------------

def precheck_verdict(sys):
    """The verdict of commutative extendability from the orbit loops."""
    if loop_commutator_defect(sys.algebra.basis) > sys.tol:
        return "not commutative"
    worst = max(max(per_n) for per_n in loop_extendability(sys))
    return ("passes" if worst <= sys.tol
            else "commutative extendability fails")


def assert_verdicts_match_the_loops(sys):
    """Compare both checks' verdicts with the loops'; returns the
    extendability report."""
    rep = check_extendability(sys)
    assert rep.passed == (max(loop_extendability(sys)[0]) <= sys.tol)
    verdict = precheck_verdict(sys)
    comm = check_commutative_extendability(sys)
    assert comm.passed == (verdict == "passes")
    if verdict == "not commutative":
        assert [d.check for d in comm.defects] == ["algebra commutative"]
    return rep


@pytest.mark.parametrize("name", FIXTURE_SYSTEMS + [
    "shift4", "shift3_projection", "rotation_pi6"])
def test_extendability_verdicts_match_the_orbit_loops(request, name):
    sys = (corner_shift_system(4) if name == "shift4"
           else fixture_system(request, name))
    assert_verdicts_match_the_loops(sys)


@pytest.mark.parametrize("n", range(4, 11))
def test_corner_shifts_fail_at_delta_n_minus_2(n):
    sys = corner_shift_system(n)
    rep = assert_verdicts_match_the_loops(sys)
    per_n = loop_extendability(sys)[0]
    assert [w <= sys.tol for w in per_n[:n - 1]] == [True] * (n - 2) + [False]
    # delta^(n-2)(A) is among the images of tower stage n - 3
    assert rep.defects[-1].check == (
        f"U*U commutes with delta(tower stage {n - 3})")
    assert [d.ok for d in rep.defects] == [True] * (n - 2) + [False]


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_system_checkers_measure_at_the_build_tolerance(tol):
    # every checker of a system measures at the tolerance the system was
    # built at; the q-model n = 6 builds at each of these
    m = ia.build_qdeform(6, 0.5, "heisenberg", tol)
    sys = m.system
    assert sys.tol == tol
    forms = ia.random_normal_forms(sys, 5, 0)
    reports = [check(sys) for check in SYSTEM_CHECKERS] + [
        verify_power_identities(sys, 3),
        ia.sample_coefficient_bound(sys, forms),
        ia.norms.gauge_invariance_sample(sys, forms)]
    for rep in reports:
        assert rep.passed, rep
        assert {d.tol for d in rep.defects} == {tol}, rep.name


SYSTEM_CHECKERS = [check_intertwining_equivalents, check_coefficient_algebra,
                   check_extendability, check_commutative_extendability,
                   check_extension_towers, check_adjoint_intertwining]


@pytest.mark.parametrize("name", ["qdeform12", "polar6", "cyclic5",
                                  "raw_system", "broken_system", "shift4",
                                  "shift3_projection", "rotation_pi6"])
def test_extension_towers_verdict_matches_the_precheck(request, name):
    sys = (corner_shift_system(4) if name == "shift4"
           else fixture_system(request, name))
    rep = check_extension_towers(sys)
    verdict = precheck_verdict(sys)
    assert rep.passed == (verdict == "passes")
    if not rep.passed:
        # the failing walk is the first, that of commutative_extendability
        walk = check_commutative_extendability(sys)
        assert [(d.check, d.value, d.tol) for d in rep.defects] == [
            ("hypothesis: " + d.check, d.value, d.tol) for d in walk.defects]
        # a failure after the delta walk closed carries the walk's note
        assert rep.notes == ["hypothesis: " + note for note in walk.notes] + [
            "hypothesis failed: commutative_extendability; no towers built"]
        assert [d.ok for d in rep.defects] == (
            [True] * (len(rep.defects) - 1) + [False])


@pytest.mark.parametrize("name, entries", [
    ("shift3_projection", ["algebra commutative",
                           "U*U commutes with the algebra",
                           "U*U commutes with delta(tower stage 0)"]),
    # U*U commutes with stage 0's images, not with stage 1's
    ("shift4", ["algebra commutative", "U*U commutes with the algebra",
                "U*U commutes with delta(tower stage 0)",
                "U*U commutes with delta(tower stage 1)"]),
])
def test_extension_towers_names_the_failing_stage(request, name, entries):
    sys = (corner_shift_system(4) if name == "shift4"
           else request.getfixturevalue(name))
    rep = check_extension_towers(sys)
    assert rep.name == "extension_towers"
    assert [d.check for d in rep.defects] == [
        "hypothesis: " + check for check in entries]
    assert [d.ok for d in rep.defects] == [True] * (len(entries) - 1) + [False]
    assert rep.notes == [
        "hypothesis failed: commutative_extendability; no towers built"]


# The hypothesis failure of check_extension_towers on each system, as the
# checker raised it before it returned reports: a commutator defect (from
# NotCommutative, which carried no report), or the entries of the
# commutative_extendability report carried by HypothesisViolated.  shift4
# fails extendability itself; rotation_pi6 is extendable, and its delta
# tower, M_2, is not commutative.
RAISED_HYPOTHESES = {
    "raw_system": [("algebra commutative", 0.9428090415820631)],
    "broken_system": [("algebra commutative", 1.414213562373095)],
    "amplified_q12": [("algebra commutative", 0.6943993112015562)],
    "shift3_projection": [
        ("algebra commutative", 2.2993471702930907e-17),
        ("U*U commutes with the algebra", 0.0),
        ("U*U commutes with delta(tower stage 0)", 0.4999999999999999)],
    "shift4": [("algebra commutative", 2.465190328815662e-32),
               ("U*U commutes with the algebra", 0.0),
               ("U*U commutes with delta(tower stage 0)", 0.0),
               ("U*U commutes with delta(tower stage 1)",
                0.9128709291752768)],
    "rotation_pi6": [("algebra commutative", 0.0),
                     ("U*U commutes with the algebra", 7.437084071668725e-18),
                     ("U*U commutes with delta(tower stage 0)", 0.0),
                     ("U*U commutes with delta(tower stage 1)",
                      1.0517625158662835e-17),
                     ("delta tower commutative", 1.0000000000000002)],
}


@pytest.mark.parametrize("name", list(RAISED_HYPOTHESES))
def test_failed_hypotheses_are_the_raised_reports_entries(request, name):
    sys = (corner_shift_system(4) if name == "shift4"
           else request.getfixturevalue(name))
    raised = RAISED_HYPOTHESES[name]
    for rep, prefix in ((check_commutative_extendability(sys), ""),
                        (check_extension_towers(sys), "hypothesis: ")):
        assert not rep.passed
        assert [d.check for d in rep.defects] == [
            prefix + check for check, _ in raised]
        assert [d.value for d in rep.defects] == pytest.approx(
            [value for _, value in raised], rel=1e-12, abs=1e-15)
        assert {d.tol for d in rep.defects} == {sys.tol}
        assert [d.ok for d in rep.defects] == [True] * (len(raised) - 1) + [
            False]


# ---------------------------------------------------------------------------
# _worst_norm skips the eigensolve of an all-zero stack; its value is the
# full solve's, bit for bit.
# ---------------------------------------------------------------------------

def full_worst_norm(stack):
    return float(spectral_norms(stack).max(initial=0.0))


def worst_norm_stacks():
    rng = np.random.default_rng(5)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    big_small = 1e-6 * cplx(30, 5, 5)
    big_small[17] = cplx(5, 5)
    mixed = cplx(20, 3, 3)
    mixed[::2] = 0.0
    one_entry = np.zeros((4, 3, 3), complex)
    one_entry[2, 0, 1] = 1e-300
    return {
        "empty": np.zeros((0, 3, 3), complex),
        "all zero": np.zeros((6, 4, 4), complex),
        "single": cplx(1, 5, 5),
        "rank one": cplx(7, 4, 1) @ cplx(7, 1, 4),
        "one large among small": big_small,
        "random": cplx(50, 6, 6),
        "zeros and random": mixed,
        "one tiny entry": one_entry,
        "imaginary entries only": 1j * rng.standard_normal((3, 4, 4)),
        "squares underflowing to zero": 1e-170 * cplx(5, 4, 4),
    }


@pytest.mark.parametrize("name", list(worst_norm_stacks()))
def test_worst_norm_matches_the_full_solve(name):
    stack = worst_norm_stacks()[name]
    assert ia.algebra._worst_norm(stack) == full_worst_norm(stack)


def test_worst_norm_fails_on_non_finite_stacks_as_the_full_solve():
    for bad in (np.nan, np.inf):
        stack = np.zeros((5, 3, 3), complex)
        stack[3, 1, 2] = bad
        for func in (full_worst_norm, ia.algebra._worst_norm):
            with np.errstate(invalid="ignore"), pytest.raises(
                    np.linalg.LinAlgError, match="did not converge"):
                func(stack)


def test_extension_towers_reports_a_failed_delta_star_walk():
    # span{1} with the backward shift on C^5 is commutatively extendable,
    # but delta(1) = UU* is outside span{1}: the third walk, the delta_star
    # tower of the algebra itself, fails its hypothesis
    sys = IsometrySystem(generate_closure([], dim=5), ia.backward_shift(5))
    assert check_commutative_extendability(sys).passed
    rep = check_extension_towers(sys)
    assert [(d.check, d.ok) for d in rep.defects] == [
        ("hypothesis: intertwining relation", True),
        ("hypothesis: delta maps algebra into itself", False)]
    assert rep.notes == [
        "hypothesis failed: delta_star_tower_hypotheses; no towers built"]
    with pytest.raises(HypothesisViolated) as info:
        extend_delta_star(sys)
    assert [(d.check, d.value) for d in info.value.report.defects] == [
        (d.check.removeprefix("hypothesis: "), d.value) for d in rep.defects]


def equal_spans_entry(sys):
    """check_extension_towers' "towers have equal spans" value, and the
    spans_equal oracle on the two towers it compares."""
    rep = check_extension_towers(sys)
    value = next(d.value for d in rep.defects
                 if d.check == "towers have equal spans")
    tower_a = sys._with_algebra(sys.delta_walk[1]).delta_star_walk[1]
    tower_b = sys._with_algebra(sys.delta_star_walk[1]).delta_walk[1]
    return rep, value, spans_equal(tower_a.basis, tower_b.basis, sys.tol)[1]


@pytest.mark.parametrize("name", [
    "qdeform12", "polar6", *(f"p6_rotated{s}" for s in range(4)),
    *(f"{family}_n{n}" for family in ("q09", "polar07") for n in (8, 16, 24)),
    "q6x2", "cyclic5"])
def test_equal_spans_entry_matches_the_oracle(request, certified_systems,
                                              name):
    # the entry measures each tower on the other's validated basis; the
    # oracle measures it on an SVD basis of the span
    sys = (certified_systems[name] if name in certified_systems
           else fixture_system(request, name))
    _, value, oracle = equal_spans_entry(sys)
    assert abs(value - oracle) <= 1e-14


@pytest.mark.parametrize("name", ["qdeform12", "polar6"])
def test_equal_spans_entry_compares_two_distinct_towers(request, name,
                                                       monkeypatch):
    # every reference model's towers close at stage 0, so both are the seed
    # algebra.  Priming makes the second tower another object: the delta
    # tower, which commutative_extendability reads, is the seed's; the
    # delta_star tower is a copy of the seed, and the delta walk over the
    # copy is primed.  A proper subalgebra and the full matrix algebra fail
    # each direction of the mutual containment alone
    seed = fixture_system(request, name)
    alg, n, tol = seed.algebra, seed.dim, seed.tol
    same = FiniteStarAlgebra(_gram_schmidt_closure(list(alg.basis), n, tol),
                             tol=tol)
    sub = generate_closure([alg.basis[0]], tol)
    full = FiniteStarAlgebra(np.eye(n * n).reshape(-1, n, n), tol=tol)
    assert same.frame is None and sub.dim == 2 < alg.dim < full.dim
    real = IsometrySystem._with_algebra
    for other, passes in ((same, True), (sub, False), (full, False)):
        sys = IsometrySystem(alg, seed.u)
        copy = FiniteStarAlgebra(alg.frame, tol=tol)
        primed = IsometrySystem(copy, seed.u)
        primed.delta_walk = (primed.delta_walk[0], other)
        sys.delta_star_walk = (sys.delta_star_walk[0], copy)
        monkeypatch.setattr(
            IsometrySystem, "_with_algebra",
            lambda self, a: primed if a is copy else real(self, a))
        rep, value, oracle = equal_spans_entry(sys)
        assert sys._with_algebra(sys.delta_star_walk[1]).delta_walk[1] is other
        if passes:
            assert value <= 1e-14
        else:
            assert abs(value - oracle) <= 1e-14 * oracle
        assert rep.passed == passes
        assert [d.check for d in rep.defects if not d.ok] == (
            [] if passes else ["towers have equal spans"])


# ---------------------------------------------------------------------------
# The frame bodies against the pair bodies, which measure algebras without a
# frame and are kept here as the reference.
# ---------------------------------------------------------------------------

def reference_invariants(alg):
    """The four star_algebra_invariants values by the pair loops over the
    basis, the product entry in O(d^3 n^2); the last three are distances to
    an SVD basis of the span."""
    flat, basis = alg.basis.reshape(alg.dim, -1), alg.basis
    span = _svd_span(basis)
    gram = flat.conj() @ flat.T
    eye = np.eye(alg.ambient_dim, dtype=complex)
    return [float(np.abs(gram - np.eye(alg.dim)).max()),
            float(_span_defects(span, eye[None])[0]),
            float(_span_defects(span, adjoint(basis)).max()),
            max(float(_span_defects(span, b @ basis).max()) for b in basis)]


def measured_values(alg, u):
    """The invariants, the commutator defect and the multiplicativity
    defect of a new system of u, as the algebra measures them."""
    return ([d.value for d in alg.invariant_report().defects]
            + [alg.commutator_defect,
               IsometrySystem(alg, u).multiplicativity_defect])


def reference_values(alg, u):
    """The same values by the pair loops (``reference_invariants`` and the
    per-pair loops above)."""
    return reference_invariants(alg) + [
        loop_commutator_defect(alg.basis),
        loop_multiplicativity_defect(IsometrySystem(alg, u))]


P6 = ia.weighted_backward_shift([0.5 ** (j / 2) for j in range(1, 6)])
# |a| of W + W has three eigenvalues of multiplicity 2: blocks of rank 2
W_PLUS_W = np.kron(np.eye(2), ia.weighted_backward_shift([0.7, 0.4]))


def frame_case(request, name):
    """The algebras a fixture builds by the spectral path, and its U."""
    if name in ("cyclic5", "shift3_projection"):
        sys = request.getfixturevalue(name)
        return [sys.algebra], sys.u
    if name == "corner9":
        sys = corner_shift_system(9)
        return [sys.algebra], sys.u
    if name in ("qdeform12", "polar6"):
        m = request.getfixturevalue(name)
    elif name.startswith("polar07_n"):
        m = ia.build_polar_model(ia.weighted_backward_shift(
            [0.7 ** (j / 2) for j in range(1, int(name[9:]))]))
    else:  # p6 or w_plus_w, rotated by the unitary of seed s
        base, _, s = name.partition("_rotated")
        a = P6 if base == "p6" else W_PLUS_W
        m = ia.build_polar_model(rotated(a, int(s)) if s else a)
    return [m.seed_algebra, m.delta_tower, m.system.algebra], m.u


FRAME_CASES = (["qdeform12", "polar6", "cyclic5", "shift3_projection",
                "corner9", "w_plus_w"]
               + [f"polar07_n{n}" for n in (8, 12, 16, 24)]
               + [f"p6_rotated{s}" for s in range(4)]
               + [f"w_plus_w_rotated{s}" for s in range(2)])


@pytest.mark.parametrize("name", FRAME_CASES)
def test_frame_values_match_the_pair_bodies(request, name):
    # each value within 1e-14 of its scale of the pair body's: the frame
    # measures the basis the frame defines, the pair body the stored one,
    # which is that up to the rounding of its products
    algebras, u = frame_case(request, name)
    for alg in algebras:
        assert alg.frame is not None
        got, ref = measured_values(alg, u), reference_values(alg, u)
        for g, r in zip(got, ref, strict=True):
            assert abs(g - r) <= 1e-14 * max(1.0, r), (g, r)


def random_partial_isometry(rng, n):
    w, v = (np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
            for _ in range(2))
    keep = np.arange(n) < int(rng.integers(1, n))
    return w @ v @ np.diag(keep.astype(float)) @ adjoint(v)


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 8])
def test_frame_multiplicativity_on_random_blocks(seed):
    # blocks of random ranks (the seeds give at least two blocks, ranks 1
    # to 4) and a random partial isometry of rank below n, so that the
    # multiplicativity defect is of order 1 and every pair of block ranks
    # is measured on generic data
    gens, labels = random_commuting_normal_set(seed)
    alg = generate_closure(gens)
    u = random_partial_isometry(np.random.default_rng(seed), len(labels))
    assert sorted(alg.frame.ranks) == sorted(np.bincount(labels))
    got, ref = measured_values(alg, u), reference_values(alg, u)
    assert ref[-1] > 1e-3
    for g, r in zip(got, ref, strict=True):
        assert abs(g - r) <= 1e-14 * max(1.0, r), (g, r)


def perturbed_frame(frame, size, seed=0):
    rng = np.random.default_rng(seed)
    n = len(frame.vecs)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Frame(frame.vecs + size * noise, frame.ranks)


@pytest.mark.parametrize("name", ["qdeform12", "w_plus_w_rotated0"])
def test_frame_bounds_hold_on_a_perturbed_frame(request, name):
    # V perturbed by 1e-6, so E = V*V - I is far above rounding and the
    # basis is orthonormal only to about 1e-5: each bound holds for the
    # distance to the span (which the pair bodies, projecting as if the
    # basis were orthonormal, measure only to that 1e-5), orthonormality
    # and multiplicativity are exact, and the commutator bound is within
    # the factor (1 + ||E||) / (1 - ||E||) of its value
    (alg, *_), u = frame_case(request, name)
    frame = perturbed_frame(alg.frame, 1e-6)
    pert = FiniteStarAlgebra(frame, tol=1e-3)
    basis = pert.basis
    e = np.linalg.norm(adjoint(frame.vecs) @ frame.vecs - np.eye(len(u)), 2)
    assert 1e-7 < e < 1e-4
    orth, ident, adj, prod, comm, mult = measured_values(pert, u)
    ref = reference_values(pert, u)
    assert abs(orth - ref[0]) <= 1e-14
    span = ia.algebra._svd_span(basis)
    assert len(span) == pert.dim
    for bound, stack in ((ident, np.eye(len(u), dtype=complex)[None]),
                         (adj, adjoint(basis)),
                         (prod, np.concatenate([b @ basis for b in basis]))):
        distance = float(_span_defects(span, stack).max())
        assert distance <= bound + 1e-14, (bound, distance)
    assert ref[4] <= comm + 1e-14 <= ref[4] * (1 + e) / (1 - e) + 2e-14
    assert ref[4] > 1e-8
    assert abs(mult - ref[5]) <= 1e-14 * max(1.0, ref[5])


def lstsq_distances(basis, stack):
    """Frobenius distance from each matrix of a stack to the span of a
    basis, by least squares on the basis as given: no orthonormality
    assumed."""
    cols = basis.reshape(len(basis), -1).T
    rhs = stack.reshape(len(stack), -1).T
    coef = np.linalg.lstsq(cols, rhs, rcond=None)[0]
    return np.linalg.norm(rhs - cols @ coef, axis=0)


@pytest.mark.parametrize("name", ["qdeform12", "w_plus_w_rotated0"])
def test_pair_invariants_are_distances_on_a_perturbed_stack(request, name):
    # the perturbed frame of test_frame_bounds_hold_on_a_perturbed_frame,
    # given as a plain stack: the basis is orthonormal only to about 1e-5,
    # and the pair body still reads the distances to its span, within the
    # frame's bounds
    (alg, *_), _ = frame_case(request, name)
    frame = perturbed_frame(alg.frame, 1e-6)
    basis = frame.basis()
    plain = FiniteStarAlgebra(basis, tol=1e-3)
    assert plain.frame is None
    orth, *got = [d.value for d in plain.invariant_report().defects]
    _, *bounds = [d.value for d in FiniteStarAlgebra(
        frame, tol=1e-3).invariant_report().defects]
    assert 1e-7 < orth < 1e-4
    n = alg.ambient_dim
    stacks = [np.eye(n, dtype=complex)[None], adjoint(basis),
              np.concatenate([b @ basis for b in basis])]
    for value, bound, stack in zip(got, bounds, stacks, strict=True):
        distance = float(lstsq_distances(basis, stack).max())
        assert abs(value - distance) <= 1e-13, (value, distance)
        assert value <= bound + 1e-14, (value, bound)
    # every b_i is Hermitian, so b_i* lies in the span; projecting onto the
    # non-orthonormal basis as if it were orthonormal reads the
    # orthonormality error instead
    assert got[1] <= 1e-14
    flat = basis.reshape(len(basis), -1)
    assert _span_defects(flat, adjoint(basis)).max() > 1e-7


@pytest.mark.parametrize("name", ["qdeform12", "p6_rotated0", "w_plus_w"])
def test_a_frame_perturbed_beyond_tol_is_rejected(request, name):
    (alg, *_), _ = frame_case(request, name)
    frame = perturbed_frame(alg.frame, 1e-6)
    with pytest.raises(InvalidBasis) as info:
        FiniteStarAlgebra(frame, tol=TOL)
    rep = info.value.report
    failed = [d.check for d in rep.defects if not d.ok]
    assert "closed under product" in failed
    # the pair body rejects the frame's basis too
    with pytest.raises(InvalidBasis):
        FiniteStarAlgebra(frame.basis(), tol=TOL)
    # a frame whose blocks miss a column spans no identity
    with pytest.raises(DimensionMismatch):
        FiniteStarAlgebra(Frame(alg.frame.vecs, alg.frame.ranks[:-1]), TOL)


@pytest.mark.parametrize("name", ["broken_system", "raw_system",
                                  "amplified_q12", "generic_system"])
def test_frameless_algebras_keep_the_pair_bodies(request, name):
    # a Gram-Schmidt closure has no frame; its values are the pair bodies'
    # to the last bit
    sys = request.getfixturevalue(name)
    assert sys.algebra.frame is None
    fresh = IsometrySystem(sys.algebra, sys.u)
    assert (measured_values(fresh.algebra, fresh.u)
            == reference_values(fresh.algebra, fresh.u))
    assert FiniteStarAlgebra(sys.algebra.basis).frame is None


# ---------------------------------------------------------------------------
# A frame algebra forms its (d, n, n) basis only for a dense consumer: a
# build measures it in chunks and forms no stack.
# ---------------------------------------------------------------------------

def count_frame_bases(monkeypatch) -> list:
    """The calls of ``Frame.basis`` from now on, as a list that gets the
    frame's dimension at each call."""
    calls = []
    real = Frame.basis

    def counted(self):
        calls.append(len(self.ranks))
        return real(self)

    monkeypatch.setattr(Frame, "basis", counted)
    return calls


def stack_bytes(d, n):
    return 16 * d * n * n


def test_a_q_model_build_forms_no_basis_stack(monkeypatch):
    # the coefficient algebra of q09 at n = 128 is validated, walked and
    # checked in its frame: one (128, 128, 128) complex stack is 32 MiB
    calls = count_frame_bases(monkeypatch)

    def build():
        m = ia.load_model(qdeform_spec(128, 0.9))
        return m, check_coefficient_algebra(m.system)

    (m, rep), peak = traced_peak(build)
    assert rep.passed and m.system.algebra.dim == 128
    assert calls == []
    assert "basis" not in vars(m.system.algebra)
    assert peak < stack_bytes(128, 128), peak


def test_a_polar_build_forms_the_seed_stack_alone(monkeypatch):
    # the polar model tests a a* for membership in the seed, which forms the
    # seed's stack; nothing else does, and the conjugated operand of that
    # test is a a*, not the basis
    calls = count_frame_bases(monkeypatch)

    def build():
        m = ia.load_model(polar_spec(weighted_shift(90, 0.7)))
        return m, check_coefficient_algebra(m.system)

    (m, rep), peak = traced_peak(build)
    alg = m.system.algebra
    assert rep.passed and calls == [alg.dim] and alg.dim == 90
    assert peak < 2 * stack_bytes(alg.dim, alg.ambient_dim), peak


def whole_group_basis(frame):
    """The frame's basis by one product per distinct rank over all its
    blocks, unchunked: the reference for the chunked bodies."""
    vecs, ranks = frame
    n = len(vecs)
    basis = np.empty((len(ranks), n, n), dtype=complex)
    starts = np.cumsum(ranks) - ranks
    for r in sorted(set(ranks.tolist())):
        at = np.flatnonzero(ranks == r)
        cols = starts[at, None] + np.arange(r)
        v = np.moveaxis(vecs[:, cols], 0, 1).copy()
        basis[at] = v @ (adjoint(v) / np.sqrt(r))
    return basis


INVARIANT_CASES = (["qdeform12", "polar6", "polar07_n24", "w_plus_w"]
                   + [f"p6_rotated{s}" for s in range(4)])


def chunk_sizes(n):
    """The default chunk, and chunks of one and of two matrices."""
    return [ia.algebra.BASIS_CHUNK_BYTES, stack_bytes(1, n),
            stack_bytes(2, n)]


@pytest.mark.parametrize("name", INVARIANT_CASES)
def test_the_lazy_basis_is_the_frame_basis(request, monkeypatch, name):
    # formed on first use, bit for bit the unchunked product, whatever the
    # chunk; _flat is a view of it
    algebras, _ = frame_case(request, name)
    for alg in algebras:
        n = alg.ambient_dim
        ref = whole_group_basis(alg.frame)
        for size in chunk_sizes(n):
            monkeypatch.setattr(ia.algebra, "BASIS_CHUNK_BYTES", size)
            fresh = FiniteStarAlgebra(alg.frame, alg.tol)
            assert "basis" not in vars(fresh) and "_flat" not in vars(fresh)
            assert (fresh.dim, fresh.ambient_dim) == (len(ref), n)
            flat = fresh._flat
            assert np.array_equal(fresh.basis, ref)
            assert np.array_equal(alg.frame.basis(), ref)
            assert np.shares_memory(flat, fresh.basis)
            assert np.array_equal(flat, ref.reshape(len(ref), -1))
    # a stack given to the constructor is the basis
    stack = whole_group_basis(algebras[0].frame)
    assert FiniteStarAlgebra(stack).basis is stack


def adjoint_reference(basis):
    """The "closed under adjoint" value, over the whole stack at once."""
    return float(_frobenius_norms(basis - adjoint(basis)).max())


@pytest.mark.parametrize("name", INVARIANT_CASES)
def test_the_chunked_adjoint_invariant_is_the_whole_stack_value(
        request, monkeypatch, name):
    algebras, _ = frame_case(request, name)
    for alg in algebras:
        ref = adjoint_reference(whole_group_basis(alg.frame))
        for size in chunk_sizes(alg.ambient_dim):
            monkeypatch.setattr(ia.algebra, "BASIS_CHUNK_BYTES", size)
            assert alg._frame_invariants()[2] == ref


def test_the_adjoint_invariant_reads_the_last_chunk(monkeypatch):
    # only the last block of the largest rank, the last chunk's, is off
    # Hermitian: V perturbed in its columns alone
    alg = ia.build_polar_model(W_PLUS_W).seed_algebra
    vecs, ranks = alg.frame
    assert ranks.tolist() == [2, 2, 2]
    noise = np.random.default_rng(3).standard_normal((len(vecs), 2))
    vecs = vecs.copy()
    vecs[:, -2:] += 1e-6 * noise
    frame = Frame(vecs, ranks)
    ref = adjoint_reference(whole_group_basis(frame))
    assert ref > 0.0
    for size in chunk_sizes(len(vecs)):
        monkeypatch.setattr(ia.algebra, "BASIS_CHUNK_BYTES", size)
        pert = FiniteStarAlgebra(frame, tol=1e-3)
        assert pert.invariant_report().defects[2].value == ref


@pytest.mark.parametrize("count, dim", [(1, 40), (3, 40), (40, 3), (40, 40)])
def test_inner_products_conjugate_the_smaller_operand(count, dim):
    # bit for bit v @ flat.conj().T, and for operands of unequal sizes the
    # copies made are the smaller operand's and the product's: under half
    # the larger operand's bytes
    rng = np.random.default_rng(count + dim)
    n2 = 64
    v, flat = (rng.standard_normal((k, n2)) + 1j * rng.standard_normal(
        (k, n2)) for k in (count, dim))
    want = v @ flat.conj().T
    got, peak = traced_peak(lambda: _inner_products(v, flat))
    assert np.array_equal(got, want)
    if count != dim:
        assert peak < max(v.nbytes, flat.nbytes) / 2, peak
    one = _inner_products(v[0], flat)
    assert np.array_equal(one, v[0] @ flat.conj().T)


# ---------------------------------------------------------------------------
# The gauge generator
# ---------------------------------------------------------------------------

def test_gauge_generator_certifies_the_frame_models(certified_systems):
    # W = V diag(lam^h) V* implements the gauge action: it sends U to lam U
    # within pi eps and fixes the basis within pi max ||[H, b_i]||
    angles = np.linspace(-np.pi, np.pi, 7)
    for name, sys in certified_systems.items():
        gen = sys.gauge_generator
        assert gen is not None, name
        assert gen.residual <= sys.tol and gen.commutation <= sys.tol, name
        assert gen.potentials.dtype.kind == "i"
        h = gen.matrix()
        assert np.array_equal(h, adjoint(h))
        basis = sys.algebra.basis
        for t in angles:
            w = (gen.vecs * np.exp(1j * t * gen.potentials)) @ adjoint(gen.vecs)
            lam_u = np.exp(1j * t) * sys.u
            assert spectral_norm(w @ sys.u @ adjoint(w) - lam_u) \
                <= np.pi * gen.residual + 1e-13, name
            fixed = spectral_norms(w @ basis @ adjoint(w) - basis).max()
            assert fixed <= np.pi * gen.commutation + 1e-13, name


def _unrounded_generator_defects(sys):
    """||[H, U] - U|| and max ||[H, b_i]|| of H = -sum_k U^{*k}U^k over
    1 <= k <= K, K the nilpotency index or 2n + 4, unrounded."""
    top = sys.nilpotency_index or 2 * sys.dim + 4
    h = -sys.power_families(top)[1][1:top + 1].sum(axis=0)
    basis = sys.algebra.basis
    return (spectral_norm(h @ sys.u - sys.u @ h - sys.u),
            spectral_norms(h @ basis - basis @ h).max())


@pytest.mark.parametrize("name", ["cyclic5", "corner_shift9",
                                  "shift3_projection", "broken_system"])
def test_gauge_generator_is_none_without_a_certificate(request, name):
    sys = request.getfixturevalue(name)
    assert sys.gauge_generator is None
    residual, commutation = _unrounded_generator_defects(sys)
    if name == "cyclic5":
        # U is unitary, not nilpotent: H = -14, and [H, U] - U = -U
        assert residual == pytest.approx(1.0) and commutation <= sys.tol
    else:
        # U is nilpotent, so [H, U] = U; U^{*k}U^k fails to commute with A
        assert residual <= sys.tol and commutation >= 0.49


@pytest.mark.parametrize("name", ["cyclic5", "corner_shift9",
                                  "shift3_projection", "broken_system",
                                  "raw_system", "amplified_q12"])
def test_gauge_candidate_carries_the_defects_that_decide(request, name):
    # the generator is the candidate exactly when both defects are within
    # tol; the samplers report the candidate's defects otherwise
    sys = request.getfixturevalue(name)
    gen = sys.gauge_candidate
    certified = gen.residual <= sys.tol and gen.commutation <= sys.tol
    assert certified is (name in ("raw_system", "amplified_q12"))
    assert sys.gauge_generator is (gen if certified else None)
    if name == "cyclic5":
        assert gen.residual == pytest.approx(1.0, abs=1e-12)


def test_generator_of_a_coefficient_system_lies_in_the_algebra(
        certified_systems):
    # H is a sum of the initial projections, which lie in A for a
    # coefficient system, with integer eigenvalues 1 - index .. 0
    for name, sys in certified_systems.items():
        gen = sys.gauge_generator
        assert sys.algebra.span_defects(gen.matrix()[None])[0] <= sys.tol
        assert np.unique(gen.potentials).tolist() == list(
            range(1 - sys.nilpotency_index, 1)), name


@pytest.mark.parametrize("name", ["qdeform12", "polar6", "p6_rotated0",
                                  "polar07_n24"])
def test_a_shifted_potential_is_not_certified(certified_systems, name,
                                              monkeypatch):
    sys = certified_systems[name]
    gen = sys.gauge_generator
    real = ia.algebra.GaugeGenerator

    def shifted(vecs, potentials, residual, commutation):
        h = potentials.copy()
        h[3] += 1
        return real(vecs, h, residual, commutation)
    monkeypatch.setattr(ia.algebra, "GaugeGenerator", shifted)
    fresh = IsometrySystem(sys.algebra, sys.u)
    assert fresh.gauge_generator is None
    # the shift breaks [H, U] = U on the edges at eigenvector 3, which U
    # moves in every model here; H still commutes with the algebra, whose
    # minimal projections are rank one
    h_mut = shifted(gen.vecs, gen.potentials, 0.0, 0.0).matrix()
    assert spectral_norm(h_mut @ sys.u - sys.u @ h_mut - sys.u) > 1e-3
    assert spectral_norms(h_mut @ sys.algebra.basis
                          - sys.algebra.basis @ h_mut).max() <= sys.tol


@pytest.mark.parametrize("seed", range(4))
def test_nilpotency_is_measured_at_tol(seed, certified_systems):
    # in a rotated basis ||U^6||_F is rounding, not 0: the index is 6, and
    # the sixth power is cached as an exact zero
    sys = certified_systems[f"p6_rotated{seed}"]
    assert sys.nilpotency_index == 6
    assert not sys.power(6).any() and not sys.power_stack([7, 9]).any()
    assert np.linalg.norm(sys.power(5)) > 0.1
