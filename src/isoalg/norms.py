"""Norm estimates: the coefficient bound, sum inequalities, the norm-limit
formula and gauge invariance.

The central hypothesis is the *coefficient bound*: for every finite canonical
form x, the zero-degree coefficient satisfies ||a_0|| <= ||x||.  It is a
hypothesis about the pair (algebra, U), and on a finite-dimensional
coefficient system U alone decides it.

**The bound holds exactly when U is nilpotent.**  Let (A, U) be a
coefficient system on C^n, P_k = U^{*k}U^k and H = -sum_{k=1}^{K} P_k.

- *U nilpotent => the bound holds.*  With U^K = 0, [H, U] = U (the
  telescoping sum of ``IsometrySystem.gauge_candidate``).  Each
  P_k = delta_star^k(1) lies in A and commutes with A, because
  U^k a = delta^k(a) U^k.  So W_lam = lam^H fixes A and sends U to lam U,
  and a_0 = int W_lam x W_lam* dlam over the circle, so ||a_0|| <= ||x||.
  Gauge invariance and the norm-limit formula follow the same way.
- *The bound => U nilpotent.*  The bound makes eval injective on
  normalized coefficient tuples, because the degree-0 coefficient of
  x U^{*k} is a_k (and that of U^k x is a_{-k}).  The product rules
  preserve degree, so sum_k a_k U^k -> sum_k lam^k a_k U^k is a
  well-defined, injective, unital *-endomorphism of the finite-dimensional
  C*(A, U), hence an automorphism sending U to lam U.  Then
  sigma(U) = lam sigma(U) for every |lam| = 1.  A finite set with that
  property is {0}, so U is nilpotent.

So a coefficient system that the gauge generator does not certify has
either a U that is not nilpotent, where the bound fails (on the cyclic
shift of C^5, x = U^5 - 1 evaluates to 0 while ||a_0|| = 1), or a
nilpotent U whose certificate failed at tol, a numerical failure.  The
three samplers measure only certified systems: on any other one each
reports the generator's residual and commutation as failing hypothesis
entries (:func:`sampler_hypothesis`) and measures nothing.

On a certified system the operator norm of x can be computed from
coefficient data alone::

    ||x|| = lim_k  || N_0[ (x x*)^{2k} ] || ^ (1/4k)

with the two-sided estimate, for x of maximum degree N,

    ||N_0(x x*)|| <= ||x||^2 <= (2N+1) ||N_0(x x*)||

holding at every stage (with 2N+1 growing to 4kN+1 for the k-th power).

N_0 is the average of the gauge action U -> lam U over the circle, so the
powers are never built as canonical forms.  The gauge action is
conjugation by W_lam = lam^H, with H = V diag(h) V* the certified
generator (``IsometrySystem.gauge_generator``), and N_0 is the compression
onto the eigenspaces of H: N_0(y) = V (mask o V*yV) V* with
mask_ij = [h_i = h_j].

The three samplers over canonical forms (coefficient bound, gauge
invariance, norm limit) measure one shared draw, ``random_normal_forms``;
each takes (system, forms), a list of forms of that system with at least
one nonzero form, and none reads another's report: on a certified system
the bound is a theorem.

**The draw** keeps its RNG calls and their order, and its body follows
the algebra kind alone.  On a frame algebra (V, r) it reads each raw
draw's block values v_i = tr(V_i* z V_i) / r_i, the coordinates of its
projection into A, before it draws the next; F_k = U^k U^{*k} =
delta^k(1) lies in A, so range normalization multiplies degree k's values
by those of F_|k| (``IsometrySystem.range_values``); the drop rule acts on
a member's Frobenius norm sqrt(sum_i r_i |v_i|^2); membership holds by
construction.  A form holds its degrees and block values.  On a
frame-less algebra the draw projects its raw draws into A and validates
them through the NormalForm constructor's body.

**||x|| and N_0** alone read the chain model (``IsometrySystem.chains``,
the model, its premises and the bound in the ``isoalg.algebra``
docstring; :func:`~isoalg.normalform.chain_model`).  Where it stands in,
its premises within tol and its first-order error bound within 1e-12
relative on the drawn forms, C*(A, U) is the direct sum over the chains
of L x L matrix algebras, U the shift and a member of A the diagonal of
its block values along each chain.  A form acts on chain c as
X_c (x) 1_r, X_c the banded L x L matrix of its coefficients' block
values (``Chains.matrices``), so ||x|| = max_c ||X_c||, and the norm
limit squares X_c X_c* / ||x||^2, whose positions carry distinct gauge
potentials, so N_0 of every stage is its diagonal, a member of A by
construction.  Elsewhere (no frame, a premise that fails, or an error
bound above 1e-12, as on a rotated frame past a few dimensions) ||x|| is
an eigensolve of the form's matrix, and :func:`norm_limit` squares
P = xx*/||x||^2 of the forms as (g, n, n) stacks in the eigenbasis of H
and tests their N_0 for membership in A as one stack.  On a frame system
the samplers' reports note which (:func:`_path_note`).

Every frame system takes ||a_k|| as max_i |v_i| of a_k's block values
(:func:`_coefficient_norms`), and the gauge bound ||a_k||_F as the stored
Frobenius norm times 1 + ||V*V - I||_F (:func:`_certified_deviations`).

The draw is validated in chunks (``_chunks``, which also cut the
samplers' stacks), each holding one raw draw and the chunk's block values
on a frame system, and elsewhere its stack and at most one more copy at a
time; ||x|| is one eigensolve per chunk, cached on the form and read by
all three samplers.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from .algebra import (
    CHAIN_PREMISES,
    MAX_SAMPLE_DEGREE,
    Chains,
    GaugeGenerator,
    IsometrySystem,
)
from .errors import (
    CoefficientEscape,
    DimensionMismatch,
    HypothesisViolated,
    Overflow,
    SystemMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    _eigh,
    _frobenius_norms,
    _root,
    adjoint,
    spectral_norms,
)
from .normalform import (
    NormalForm,
    _canonical_terms,
    _monomial_stack,
    _require_coefficient_system,
    chain_model,
)
from .report import ConditionReport

# Bytes of complex matrices that the draw and the samplers stack at once.
DRAW_CHUNK_BYTES = 32 * 2 ** 20

# The norm-limit sampler's convergence bound and per-stage estimate slack.
NORM_LIMIT_REL_TOL, NORM_LIMIT_SLACK = 0.05, 1e-9

# Largest size m and matrix dimension of the random sum-norm tuples, and
# the four estimates checked on each tuple, in report order.
MAX_TUPLE_SIZE = 5
MAX_TUPLE_DIM = 8
SUM_NORM_ESTIMATES = ("||sum d||^2 <= m ||sum dd*||",
                      "||sum d||^2 <= m ||sum d*d||",
                      "||sum |d|||^2 >= (1/m) ||sum d*d||",
                      "||sum sqrt(dd*)||^2 >= (1/m) ||sum dd*||")


def _draw(system: IsometrySystem, rng: np.random.Generator) -> np.ndarray:
    """The raw coefficients of one random canonical form: a uniform maximum
    degree N <= MAX_SAMPLE_DEGREE and, for every degree in [-N, N], an
    i.i.d. standard complex Gaussian matrix, as a (2N + 1, n, n) stack."""
    top = int(rng.integers(0, MAX_SAMPLE_DEGREE + 1))
    z = rng.standard_normal((2 * top + 1, 2, system.dim, system.dim))
    out = np.empty((len(z), system.dim, system.dim), dtype=complex)
    out.real, out.imag = z[:, 0], z[:, 1]
    return out


def _chunks(items, size, dim: int):
    """Consecutive lists of ``items`` (one item at least each), an item
    standing for ``size(item)`` complex dim x dim matrices, whose matrices
    fit DRAW_CHUNK_BYTES: the chunks in which the draw and the samplers
    stack.  A generator of items is drawn one item past each chunk."""
    room, chunk, used = DRAW_CHUNK_BYTES // (16 * dim ** 2), [], 0
    for item in items:
        if chunk and used + size(item) > room:
            yield chunk
            chunk, used = [], 0
        chunk.append(item)
        used += size(item)
    if chunk:
        yield chunk


def _operator_norms(forms: list[NormalForm]) -> np.ndarray:
    """||x|| of each form, one batched eigensolve per chunk (``_chunks``)
    of the forms not yet measured, whose values every ``x.norm`` reads:
    of their chain matrices on a system whose chain model stands in
    (``chain_model``), of their matrices otherwise."""
    todo = [x for x in forms if "norm" not in vars(x)]
    if todo:
        system = todo[0].system
        chains = chain_model(system)
        if chains is None:
            size, dim = (lambda x: 1), system.dim
        else:
            size, dim = (lambda x: len(chains.blocks)), chains.blocks.shape[1]
        for chunk in _chunks(todo, size, dim):
            if chains is None:
                values = spectral_norms(np.array([x.eval() for x in chunk]))
            else:
                values = chains.norms([(x._degrees, x._values)
                                       for x in chunk])
            for x, value in zip(chunk, values):
                vars(x)["norm"] = float(value)  # prime the cached property
    return np.array([x.norm for x in forms], dtype=float)


def _value_norms(values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """sqrt(sum_i r_i |v_i|^2) of each row v of a (K, d) array of block
    values: the Frobenius norm of V diag(v) V* for a unitary V, summed in
    C order (a gather's Fortran order would change its bits)."""
    mass = np.ascontiguousarray((values.real ** 2 + values.imag ** 2) * ranks)
    return np.sqrt(mass.sum(axis=1))


def _centred(count: int) -> np.ndarray:
    """The degrees -N..N of a draw of 2N + 1 coefficients."""
    return np.arange(count) - count // 2


def _draws(system: IsometrySystem, rng: np.random.Generator, count: int):
    """``count`` raw draws (``_draw``) from ``rng``; on a frame system each
    is held only until its (2N + 1, d) block values
    (``FiniteStarAlgebra.block_values``) are read, which stand for it."""
    for _ in range(count):
        z = _draw(system, rng)
        yield (z if system.algebra.frame is None
               else system.algebra.block_values(z))


def _validated(system: IsometrySystem,
               draws: list[np.ndarray]) -> list[NormalForm]:
    """The forms of a chunk of ``_draws``, validated as one stack:

    - on a frame system, in block values: range normalization multiplies
      degree k's values by those of F_|k| (``IsometrySystem.range_values``),
      which gives the block values of a F_|k|, and the drop rule compares
      the normalized norms sqrt(sum_i r_i |v_i|^2) with each form's
      largest input one; membership holds by construction.  A form keeps
      its degrees and block values (``NormalForm._from_values``);
    - elsewhere, one projection into the coefficient algebra, one pass of
      the NormalForm validation body with each form's own drop scale, in
      place, then one monomial pass, summed per form.

    ``draws`` is emptied once concatenated."""
    _require_coefficient_system(system)
    frame = system.algebra.frame
    count, sizes = len(draws), np.array([len(z) for z in draws])
    starts = np.cumsum(sizes) - sizes
    degrees = np.concatenate([_centred(k) for k in sizes])
    owner = np.repeat(np.arange(count), sizes)
    stack = np.concatenate(draws)
    draws.clear()
    # each form drops against its own largest input coefficient
    if frame is None:
        stack = system.algebra.project(stack)
        scale = np.maximum.reduceat(_frobenius_norms(stack), starts)
        keep, stack, norms = _canonical_terms(system, stack, degrees,
                                              scale[owner])
    else:
        scale = np.maximum.reduceat(_value_norms(stack, frame.ranks), starts)
        ranges = system.range_values
        stack *= ranges[np.minimum(np.abs(degrees), len(ranges) - 1)]
        norms = _value_norms(stack, frame.ranks)
        keep = norms > system.tol * scale[owner]
        stack, norms = stack[keep], norms[keep]
    degrees = degrees[keep]
    ends = np.cumsum(np.bincount(owner[keep], minlength=count)).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    if frame is not None:
        return [NormalForm._from_values(system, degrees[a:b], stack[a:b],
                                        norms[a:b]) for a, b in bounds]
    monomials = _monomial_stack(system, stack, degrees)
    # one sum per form, in NormalForm.eval's order (not np.add.reduceat's),
    # stacked once the monomials are freed, which fragments the heap less
    sums = [monomials[a:b].sum(axis=0) for a, b in bounds]
    del monomials
    return [NormalForm._from_terms(system, degrees[a:b], stack[a:b],
                                   norms[a:b], m)
            for (a, b), m in zip(bounds, np.array(sums))]


def random_normal_form(system: IsometrySystem,
                       rng: np.random.Generator) -> NormalForm:
    """Draw a random canonical form: the coefficients of :func:`_draw`,
    projected into the coefficient algebra and validated (range-normalized,
    dropped or tested for membership) as a NormalForm is; on a frame
    system in block values (:func:`_validated`)."""
    return _validated(system, list(_draws(system, rng, 1)))[0]


def random_normal_forms(system: IsometrySystem, count: int,
                        seed: int) -> list[NormalForm]:
    """``count`` draws of random_normal_form from one generator seeded with
    ``seed``: the forms the samplers measure, so that one draw serves them
    all (a prefix is what a smaller count would draw).

    The draws are validated in consecutive chunks of forms whose
    coefficients fit DRAW_CHUNK_BYTES as n x n matrices (at least one form
    each), so the memory a draw holds beyond its forms is bounded: on a
    frame system one raw draw and the chunk's block values, elsewhere the
    chunk's coefficients and one more copy.  The forms are successive
    random_normal_form draws: on a frame system bit for bit, elsewhere bit
    for bit where BLAS rounds each row of a chunk's projection as it rounds
    a single form's, else up to rounding."""
    rng = np.random.default_rng(seed)
    return [x for chunk in _chunks(_draws(system, rng, count), len,
                                   system.dim)
            for x in _validated(system, chunk)]


def sampler_hypothesis(system: IsometrySystem, name: str) -> ConditionReport:
    """A report ``name`` of the samplers' hypothesis, at tol, ending at its
    first failing entry: the worst defect of the system's coefficient
    report, then, when the gauge generator does not certify the system, the
    gauge candidate's residual eps = ||[H', U] - U|| and commutation
    eta = max ||[H', b_i]||.  It passes exactly on a certified coefficient
    system, the only kind the samplers measure (see the module docstring).
    """
    tol = system.tol
    rep = ConditionReport(name)
    worst = max((d.value for d in system.coefficient_report.defects),
                default=0.0)
    if (rep.add("hypothesis: coefficient algebra", worst, tol).ok
            and system.gauge_generator is None):
        gen = system.gauge_candidate
        if rep.add("hypothesis: gauge generator ||[H, U] - U||",
                   gen.residual, tol).ok:
            rep.add("hypothesis: gauge generator max ||[H, b_i]||",
                    gen.commutation, tol)
    return rep


def _path_note(system: IsometrySystem) -> list[str]:
    """The note that names the path a certified frame system's samplers
    take (none for a system without a frame): the chains and the margins
    of the chain model's premises, or the premise or structure that failed
    and sent the system to the dense path."""
    chains = system.chains
    if chains is None:
        return []
    if chains.failed is not None:
        return [f"dense path: {chains.failed}"]
    lengths = np.count_nonzero(chains.blocks >= 0, axis=1)
    counts = sorted(collections.Counter(lengths.tolist()).items(),
                    reverse=True)
    shape = ", ".join(f"{c} of length {n}" for n, c in counts)
    margins = ", ".join(f"{name} = {m:.3e}"
                        for name, m in zip(CHAIN_PREMISES, chains.margins))
    return [f"chain model, chains: {shape}; premises: {margins}"]


def _require_sample(system: IsometrySystem, forms: list[NormalForm]) -> None:
    """Refuse an empty sample and a sample in which no form has a stored
    coefficient, over either of which a sampler would pass measuring
    nothing, and a form over another system, which the system's algebra
    cannot measure.  A zero form among nonzero ones is measured."""
    if not forms:
        raise ValueError("forms is empty: a sampler needs at least one form")
    if any(x.system is not system for x in forms):
        raise SystemMismatch("a sampled form is built over another system")
    if not any(x._degrees.size for x in forms):
        raise ValueError("every sampled form is zero: a sampler needs a "
                         "form with a stored coefficient")


def sample_coefficient_bound(system: IsometrySystem,
                             forms: list[NormalForm]) -> ConditionReport:
    """Sample the coefficient bound ||a_0|| <= ||x|| and its per-degree
    extension ||a_k|| <= ||x|| on the drawn canonical forms.

    The reported defect is the worst margin max_k ||a_k|| - ||x|| over all
    samples (negative when the bound holds strictly).  ||x|| is a batched
    eigensolve per chunk (:func:`_operator_norms`), and ||a_k|| is
    :func:`_coefficient_norms`.  The notes give the largest degree of the
    measured forms and, on a frame system, the path (:func:`_path_note`).

    On a system that fails :func:`sampler_hypothesis` the report is that
    hypothesis alone.
    """
    _require_sample(system, forms)
    tol = system.tol
    rep = sampler_hypothesis(system, "coefficient_bound")
    if not rep.passed:
        return rep
    norm_x = _operator_norms(forms)
    norms = _coefficient_norms(forms)
    degrees = np.concatenate([x._degrees for x in forms])
    margins = norms - np.repeat(norm_x, [x._degrees.size for x in forms])
    # a_0 = 0 when degree 0 is absent, and ||a_0|| - ||x|| >= -||x||
    worst_zero = np.concatenate([-norm_x, margins[degrees == 0]]).max()
    worst_any = margins.max(initial=-np.inf)
    rep.add(f"||a_0|| - ||x|| over {len(forms)} samples", worst_zero, tol)
    rep.add(f"max_k ||a_k|| - ||x|| over {len(forms)} samples", worst_any, tol)
    rep.note(f"max degree = {int(np.abs(degrees).max(initial=0))}")
    rep.notes += _path_note(system)
    return rep


def _coefficient_norms(forms: list[NormalForm]) -> np.ndarray:
    """||a|| of every stored coefficient of the forms, in order: without a
    frame one batched eigensolve per chunk (``_chunks``), and on a frame
    system (V, r), whichever path it takes, max_i |v_i| of a's block values
    (``NormalForm._values``).  V diag(v) V* = sum_i <b_i, a> b_i lies within
    dist(a, A) of a, and its norm within the factors 1 +- ||E|| of
    ||diag(v)|| = max_i |v_i|, E = V*V - I, so

        | ||a|| - max_i |v_i| | <= dist(a, A) + ||E|| max_i |v_i|."""
    system = forms[0].system
    if system.algebra.frame is not None:
        return np.abs(np.concatenate([x._values for x in forms])).max(
            axis=1, initial=0.0)
    return np.concatenate([spectral_norms(np.concatenate(c)) for c in _chunks(
        [x.coefficients for x in forms], len, system.dim)])


def _sum_norm_margins(stack: np.ndarray, sizes) -> np.ndarray:
    """The four signed margins of :func:`check_sum_norm_estimates` for each
    of g tuples of n x n matrices, cut in order out of one (sum m, n, n)
    stack at the tuple ``sizes`` m, as a (g, 4) array: two batched square
    roots, the five sums of each tuple cut out by ``np.add.reduceat``, and
    one batched norm of all of them."""
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    dd, dsd = stack @ adjoint(stack), adjoint(stack) @ stack
    roots = _root(*_eigh(np.concatenate([dsd, dd])))
    sums = [np.add.reduceat(a, starts) for a in (
        stack, dd, dsd, roots[:len(stack)], roots[len(stack):])]
    n_sum, n_dd, n_dsd, n_abs, n_sqrt = spectral_norms(np.array(sums))
    upper = [(n_sum ** 2 - rhs) / np.maximum(1.0, rhs)
             for rhs in (sizes * n_dd, sizes * n_dsd)]
    lower = [(rhs - lhs ** 2) / np.maximum(1.0, rhs)
             for lhs, rhs in ((n_abs, n_dsd / sizes), (n_sqrt, n_dd / sizes))]
    return np.stack(upper + lower, axis=1)


def check_sum_norm_estimates(mats, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Check the four norm estimates for a tuple d_1, ..., d_m, given as one
    (m, n, n) stack or a list of matrices:

        ||sum d_i||^2        <= m ||sum d_i d_i*||
        ||sum d_i||^2        <= m ||sum d_i* d_i||
        ||sum |d_i|||^2      >= (1/m) ||sum d_i* d_i||
        ||sum sqrt(d_i d_i*)||^2 >= (1/m) ||sum d_i d_i*||

    These hold in every C*-algebra, so any violation beyond rounding flags a
    numerical bug.  Each defect is the signed margin, the side that should be
    smaller minus the other, normalized by max(1, right-hand side): negative
    when the estimate holds with room, so the report shows how close each
    estimate came.

    A tuple from outside is refused where it enters: DimensionMismatch
    names its first entry that is not a finite number, and Overflow a
    tuple whose largest real or imaginary part t lets the check leave the
    float range.  Its largest quantity is ||sum d_i d_i*||^2 or
    ||sum d_i* d_i||^2, an eigenvalue of a product that the spectral norm
    forms, at most 4 m^2 n^4 t^4 since ||d_i|| <= n sqrt(2) t; the check is
    taken only where twice that bound is finite, so no product or
    eigensolve sees an infinity.
    """
    try:
        stack = np.asarray(mats, dtype=complex)
    except ValueError as exc:
        raise DimensionMismatch("mixed dimensions in tuple") from exc
    if stack.ndim != 3 or 0 in stack.shape or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch(f"expected a nonempty (m, n, n) tuple of "
                                f"square matrices, got shape {stack.shape}")
    bad = np.argwhere(~np.isfinite(stack))
    if bad.size:
        k, i, j = bad[0]
        raise DimensionMismatch(f"matrix {k} entry [{i}][{j}] is not a finite "
                                f"number, got {complex(stack[k, i, j])}")
    m, n = stack.shape[:2]
    top = max(float(np.abs(stack.real).max()), float(np.abs(stack.imag).max()))
    limit = (np.finfo(float).max / (8.0 * m * m * n ** 4)) ** 0.25
    if top >= limit:
        raise Overflow(f"entries up to {top:.3e} overflow the sum-norm check: "
                       f"||sum d_i d_i*||^2, up to 4 m^2 n^4 t^4 for entries "
                       f"up to t, stays finite for t below {limit:.3e} at "
                       f"m = {m}, n = {n}")
    margins = _sum_norm_margins(stack, [len(stack)])[0]
    rep = ConditionReport("sum_norm_estimates")
    for label, value in zip(SUM_NORM_ESTIMATES, margins):
        rep.add(label, value, tol)
    return rep


@dataclass
class NormLimitTrace:
    """The s_k sequence of the norm-limit formula together with the direct
    norm and the two-sided sandwich at the first stage."""

    x: NormalForm
    k_values: list[int]
    s_values: list[float]
    direct_norm: float
    sandwich_lo: float
    sandwich_hi: float
    max_degree: int

    def to_json(self, include_form: bool = True) -> dict:
        doc = {
            "k_values": list(self.k_values),
            "s_values": [float(s) for s in self.s_values],
            "direct_norm": float(self.direct_norm),
            "sandwich_lo": float(self.sandwich_lo),
            "sandwich_hi": float(self.sandwich_hi),
            "max_degree": self.max_degree,
        }
        if include_form:
            doc["x"] = self.x.to_json()
        return doc


def norm_limit(x: NormalForm, k_max: int) -> NormLimitTrace:
    """Evaluate s_k = ||N_0[(xx*)^{2k}]||^{1/4k} on a doubling schedule
    k = 1, 2, 4, ... up to k_max.

    x is pre-scaled by 1/||x|| and the s_k are rescaled afterwards, so the
    powers stay bounded by one.  The powers are matrices, not canonical
    forms: P = xx*/||x||^2 is squared in the eigenbasis of the gauge
    generator H, and N_0 is the compression onto the eigenspaces of H.
    Every stage's N_0 must lie in the coefficient algebra (else
    CoefficientEscape).  On a system that fails :func:`sampler_hypothesis`
    the formula has no ground, and HypothesisViolated carries that report;
    on a certified one the coefficient bound it rests on is a theorem (see
    the module docstring), so nothing is sampled.
    """
    rep = sampler_hypothesis(x.system, "norm_limit")
    if not rep.passed:
        raise HypothesisViolated("the norm-limit formula needs a system its "
                                 "gauge generator certifies", rep)
    return _norm_limit_traces([x], k_max)[0]


def _squares(p: np.ndarray, stages: int):
    """p, a stack of g matrices or of g stacks of them, then its
    ``stages`` successive squares, each formed in place in p and yielded
    with the (g,) exponents e by which its i-th item is 2^e times p[i].  A
    square whose largest entry leaves [2^-256, 2^256] is brought into
    [1/2, 1) by an exact power of two, whose exponent e carries, doubling
    with each squaring."""
    axes, e = tuple(range(1, p.ndim)), np.zeros(len(p))
    yield p, e
    for _ in range(stages):
        np.matmul(p, p, out=p)
        top = np.abs(p).max(axis=axes)
        far = (top < 2.0 ** -256) | (top > 2.0 ** 256)
        shift = np.frexp(top[far])[1]
        p[far] *= np.exp2(-shift).reshape((-1,) + (1,) * len(axes))
        e = 2 * e
        e[far] += shift
        yield p, e


def _compressed_n0(forms: list[NormalForm], norms: np.ndarray,
                   gen: GaugeGenerator, stages: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """N_0 of xx* and of its ``stages`` successive squares for g forms of a
    system that a gauge generator certifies, as a (g, stages + 1, n, n)
    stack, and a (g, stages + 1) array e: each stage is 2^e times its stack
    entry.  P = xx*/||x||^2 of all forms is one (g, n, n) stack in the
    eigenbasis of H, V*PV, squared in place (:func:`_squares`), and N_0 of
    each stage is V (mask o V*PV) V* with mask_ij = [h_i = h_j], the
    compression onto the eigenspaces of H.  The computed ||P|| is
    1 +- O(n eps), so j squarings scale it by (1 +- O(n eps))^(2^j), which
    the squares' rescaling absorbs."""
    vecs, h = gen.vecs, gen.potentials
    mask = h[:, None] == h[None, :]
    y = np.array([x.eval() for x in forms]) / norms[:, None, None]
    p = adjoint(vecs) @ (y @ adjoint(y)) @ vecs
    n0 = np.empty((len(forms), stages + 1) + p.shape[1:], dtype=complex)
    exps = np.empty((len(forms), stages + 1))
    for j, (q, e) in enumerate(_squares(p, stages)):
        exps[:, j] = e
        n0[:, j] = vecs @ (q * mask) @ adjoint(vecs)
    return n0, exps


def _chain_n0(chains: Chains, forms: list[NormalForm], norms: np.ndarray,
              stages: int) -> tuple[np.ndarray, np.ndarray]:
    """||N_0|| of xx* and of its ``stages`` successive squares for g forms
    of a system whose chain model stands in for it, as a (g, stages + 1)
    array, and the (g, stages + 1) exponents e: each stage's norm is 2^e
    times its entry.  On chain c, xx*/||x||^2 is P_c = X_c X_c* / ||x||^2,
    and its powers are those of the P_c (:func:`_squares`); every position
    of a chain is one block, of its own gauge potential, so N_0 keeps the
    diagonal of each P_c, and ||N_0|| is its largest modulus."""
    x = chains.matrices([(f._degrees, f._values) for f in forms])
    x /= norms[:, None, None, None]
    p = x @ adjoint(x)
    del x
    out = np.empty((len(forms), stages + 1))
    exps = np.empty((len(forms), stages + 1))
    for j, (q, e) in enumerate(_squares(p, stages)):
        exps[:, j] = e
        out[:, j] = np.abs(np.diagonal(q, axis1=2, axis2=3)).max(axis=(1, 2))
    return out, exps


def _doubling_schedule(k_max: int) -> list[int]:
    """k = 1, 2, 4, ... up to k_max: the stages of the norm limit."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return [2 ** j for j in range(int(k_max).bit_length())]


def _norm_limit_traces(forms: list[NormalForm], k_max: int
                       ) -> list[NormLimitTrace]:
    """The body of :func:`norm_limit`, for one form or a whole sample of
    forms over one certified system.

    On a system whose chain model stands in the live forms of a chunk
    (``_chunks``) are squared together as their chain matrices
    (:func:`_chain_n0`), whose N_0 are members by construction.  Otherwise
    they are squared as one (g, n, n) stack in the eigenbasis of H
    (:func:`_compressed_n0`), and their N_0 are tested for membership and
    normed in one call each; CoefficientEscape is raised for the first
    offending form in input order, with the message that form alone gives.
    A zero form gets a zero trace."""
    schedule = _doubling_schedule(k_max)
    direct = _operator_norms(forms)
    system, stage_norms = forms[0].system, {}
    chains, n = chain_model(system), system.dim
    live = np.flatnonzero(direct != 0.0).tolist()
    if chains is not None:
        for chunk in _chunks(live, lambda i: len(chains.blocks),
                             chains.blocks.shape[1]):
            stage_norms.update(zip(chunk, zip(*_chain_n0(
                chains, [forms[i] for i in chunk], direct[chunk],
                len(schedule)))))
    else:
        for chunk in _chunks(live, lambda i: len(schedule) + 1, n):
            stack, exps = _compressed_n0([forms[i] for i in chunk],
                                         direct[chunk],
                                         system.gauge_generator,
                                         len(schedule))
            flat = stack.reshape(-1, n, n)
            inside, defects = (a.reshape(stack.shape[:2])
                               for a in system.algebra.membership(flat))
            for ins, dfs in zip(inside, defects):
                if not ins.all():
                    k = int(np.argmin(ins))
                    power = ("xx*" if k == 0
                             else f"(xx*)^{2 * schedule[k - 1]}")
                    raise CoefficientEscape(f"N_0[{power}] is outside the "
                                            f"algebra (defect {dfs[k]:.3e})")
            stage_norms.update(zip(chunk, zip(
                spectral_norms(flat).reshape(stack.shape[:2]), exps)))

    traces = []
    for i, x in enumerate(forms):
        d, n_deg = float(direct[i]), x.max_degree
        if d == 0.0:
            traces.append(NormLimitTrace(x, schedule, [0.0] * len(schedule),
                                         0.0, 0.0, 0.0, n_deg))
            continue
        norms, e = stage_norms[i]
        sandwich_lo = d * d * norms[0]
        sandwich_hi = (2 * n_deg + 1) * d * d * norms[0]
        s_values = [d * s ** (1.0 / (4 * k)) * 2.0 ** (e_k / (4 * k))
                    for k, s, e_k in zip(schedule, norms[1:], e[1:])]
        traces.append(NormLimitTrace(x, schedule, s_values, d,
                                     sandwich_lo, sandwich_hi, n_deg))
    return traces


def _certified_deviations(forms: list[NormalForm], gen: GaugeGenerator,
                          dim: int) -> np.ndarray:
    """pi sum_k (|k| eps + sqrt(d) eta) ||a_k||_F of each form: the bound
    on the norm deviation over the whole circle that
    :func:`gauge_invariance_sample` proves, with ||a_k||_F the norm stored
    on the form times 1 + ||E||_F, E = V*V - I, on a frame system (V, r)
    and times 1 without one.  That norm is ||a_k||_F, or, on a drawn form
    of a frame system, ||diag(v)||_F for a_k = V diag(v) V*, and
    ||V diag(v) V*||_F <= ||V||^2 ||diag(v)||_F with
    ||V||^2 = ||I + E|| <= 1 + ||E||_F."""
    algebra = forms[0].system.algebra
    error = 0.0 if algebra.frame is None else algebra._frame_error
    owner = np.repeat(np.arange(len(forms)), [len(x._degrees) for x in forms])
    degrees = np.concatenate([np.zeros(0, int)] + [x._degrees for x in forms])
    fro = np.concatenate([x._norms for x in forms]) * (1.0 + error)
    weights = (np.abs(degrees) * gen.residual
               + np.sqrt(dim) * gen.commutation) * fro
    return np.pi * np.bincount(owner, weights, minlength=len(forms))


def gauge_invariance_sample(system: IsometrySystem,
                            forms: list[NormalForm]) -> ConditionReport:
    """Gauge norm invariance, ||x_lam|| = ||x|| for x_lam = sum_k lam^k M_k
    (the monomials M_k of x gauged by U -> lam U), over the drawn canonical
    forms; each defect is normalized by max(1, ||x||), and every entry is at
    the system's tol.

    With eps = ||[H, U] - U||, eta = max ||[H, b_i]|| over the d basis
    elements of the certified gauge generator H and a_k the coefficients of
    x, the report is eps, eta, and the worst over the forms of

        pi sum_k (|k| eps + sqrt(d) eta) ||a_k||_F / max(1, ||x||),

    which bounds | ||x_lam|| - ||x|| | / max(1, ||x||) for every lam on the
    circle, with no eigensolve.  Proof: let lam = e^{it}, |t| <= pi, and
    W = e^{itH}, unitary since H is self-adjoint, so ||W x W*|| = ||x|| and

        | ||x_lam|| - ||x|| | <= ||x_lam - W x W*||.

    d/ds (e^{-iks} W_s U^k W_s*) = i e^{-iks} W_s ([H, U^k] - k U^k) W_s*,
    and [H, U^k] - k U^k = sum_j U^j ([H, U] - U) U^{k-1-j} has norm at most
    k eps, as ||U|| <= 1; so ||W U^k W* - lam^k U^k|| <= pi |k| eps, and the
    same holds for U^{*k}.  Likewise ||W a W* - a|| <= pi ||[H, a]||
    <= pi eta sum_i |c_i| <= pi sqrt(d) eta ||a||_F for a = sum_i c_i b_i in
    the algebra (the basis is HS-orthonormal, and the coefficients of a
    form are members, up to the tol of their validation).  For
    M_k = a_k U^k,

        W M_k W* - lam^k M_k = (W a_k W* - a_k) W U^k W*
                               + a_k (W U^k W* - lam^k U^k),

    of norm at most pi (sqrt(d) eta + |k| eps) ||a_k||_F, and likewise for
    M_k = U^{*|k|} a_|k|; summing over k bounds ||x_lam - W x W*||.  In
    particular ||W U W* - lam U|| <= pi eps.

    On a system that fails :func:`sampler_hypothesis` the report is that
    hypothesis alone.
    """
    _require_sample(system, forms)
    tol = system.tol
    hypothesis = sampler_hypothesis(system, "gauge_invariance")
    if not hypothesis.passed:
        return hypothesis
    gen = system.gauge_generator
    rep = ConditionReport("gauge_invariance")
    norms = _operator_norms(forms)  # one call, for x.norm
    bounds = _certified_deviations(forms, gen, system.algebra.dim)
    rep.add("gauge generator: ||[H, U] - U||", gen.residual, tol)
    rep.add("gauge generator: max ||[H, b_i]||", gen.commutation, tol)
    rep.add(f"norm deviation bound over the circle, {len(forms)} "
            f"samples", float((bounds / np.maximum(1.0, norms)).max(
                initial=0.0)), tol)
    rep.note("certified by a gauge generator")
    rep.notes += _path_note(system)
    return rep


def norm_limit_sample(system: IsometrySystem, forms: list[NormalForm], *,
                      k_max: int = 8
                      ) -> tuple[ConditionReport, list[NormLimitTrace]]:
    """Run the norm-limit formula on the drawn canonical forms and check,
    per sample:

    - the lower estimate s_k <= ||x|| at every stage;
    - the upper estimate ||x|| <= (4kN+1)^{1/4k} s_k at every stage;
    - the first-stage sandwich lo <= ||x||^2 <= hi;
    - convergence |s_k - ||x||| / ||x|| <= NORM_LIMIT_REL_TOL at the
      schedule's last k, the largest power of two <= k_max.

    The first three are relative to ||x|| (or ||x||^2), within
    NORM_LIMIT_SLACK.  On a system that fails :func:`sampler_hypothesis`
    the report is that hypothesis alone, with no trace.
    """
    _require_sample(system, forms)
    hypothesis = sampler_hypothesis(system, "norm_limit")
    if not hypothesis.passed:
        return hypothesis, []
    rep = ConditionReport("norm_limit")
    traces = _norm_limit_traces(forms, k_max)
    worst_lower = worst_upper = worst_sandwich = worst_conv = 0.0
    for tr in traces:
        if tr.direct_norm == 0.0:
            continue
        d = tr.direct_norm
        for k, s in zip(tr.k_values, tr.s_values):
            worst_lower = max(worst_lower, (s - d) / d)
            bound = (4 * k * tr.max_degree + 1) ** (1.0 / (4 * k)) * s
            worst_upper = max(worst_upper, (d - bound) / d)
        worst_sandwich = max(worst_sandwich,
                             (tr.sandwich_lo - d * d) / (d * d),
                             (d * d - tr.sandwich_hi) / (d * d))
        worst_conv = max(worst_conv, abs(tr.s_values[-1] - d) / d)
    rep.add(f"lower estimate s_k <= ||x||, {len(forms)} samples",
            worst_lower, NORM_LIMIT_SLACK)
    rep.add("upper estimate ||x|| <= (4kN+1)^{1/4k} s_k", worst_upper,
            NORM_LIMIT_SLACK)
    rep.add("first-stage sandwich", worst_sandwich, NORM_LIMIT_SLACK)
    rep.add(f"convergence at k = {_doubling_schedule(k_max)[-1]}",
            worst_conv, NORM_LIMIT_REL_TOL)
    rep.notes += _path_note(system)
    return rep, traces


def sum_norm_estimates_sample(count: int, seed: int,
                              tol: float = DEFAULT_TOL) -> ConditionReport:
    """The worst signed sum-norm margins (the largest, closest to a
    violation) over ``count`` random tuples (sizes m up to MAX_TUPLE_SIZE,
    dimensions up to MAX_TUPLE_DIM), then the same over the tuples with
    m >= 2 and n >= 2 when any were drawn: an m = 1 tuple meets every
    estimate with equality, and for scalars |d| = sqrt(dd*), so the two
    lower estimates coincide; only the second set of lines shows how close
    the estimates come, and which of the two lower ones is closer.  The
    tuples are checked in one batch per dimension n
    (:func:`_sum_norm_margins`)."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    dims: dict[int, list[np.ndarray]] = {}
    for _ in range(count):
        m = int(rng.integers(1, MAX_TUPLE_SIZE + 1))
        n = int(rng.integers(1, MAX_TUPLE_DIM + 1))
        z = rng.standard_normal((m, 2, n, n))  # real, imaginary part of each
        dims.setdefault(n, []).append(z[:, 0] + 1j * z[:, 1])
    worst = np.full((2, len(SUM_NORM_ESTIMATES)), -np.inf)
    multi = 0  # tuples with m >= 2 and n >= 2
    for n, tuples in dims.items():
        sizes = np.array([len(d) for d in tuples])
        margins = _sum_norm_margins(np.concatenate(tuples), sizes)
        worst[0] = np.maximum(worst[0], margins.max(axis=0))
        if n >= 2:
            wide = sizes >= 2
            worst[1] = np.maximum(worst[1], margins[wide].max(
                axis=0, initial=-np.inf))
            multi += int(wide.sum())
    rep = ConditionReport("sum_norm_estimates")
    for label, w in zip(SUM_NORM_ESTIMATES, worst[0]):
        rep.add(f"{label} ({count} tuples)", w, tol)
    if multi:
        for label, w in zip(SUM_NORM_ESTIMATES, worst[1]):
            rep.add(f"{label} ({multi} tuples with m >= 2, n >= 2)", w, tol)
    rep.note(f"seed = {seed}")
    return rep
