"""Finite-dimensional *-algebra machinery.

A *-subalgebra of the ambient matrix algebra is one (d, n, n) stack of
Hilbert-Schmidt orthonormal basis matrices, which turns span membership,
commutants and generated closures into ordinary linear algebra; an algebra
with a frame (below) forms that stack only when a dense consumer asks.

``generate_closure`` has two paths to that basis:

- **Spectral.**  A commutative *-algebra is spanned by its minimal
  projections, and the closure of commuting normal generators is spanned by
  the spectral projections of one generic Hermitian element of it (the
  random-element method of Murota, Kanno, Kojima and Kojima, JJIAM 27,
  2010).  The element is a real combination of the generators' Hermitian
  and anti-Hermitian parts, with coefficients from a generator seeded by
  the module constant ``_SPECTRAL_SEED``, so a closure is the same on every
  call.  The element is scaled so that its smallest coefficient is 1, so a
  single Hermitian generator g gives g / ||g||_F whatever the draw.  Its
  eigenvalues are split at gaps above ``tol * max(1, |lam|max)`` and the
  basis is ``P_i / sqrt(rank P_i)``.  A gap in the ambiguous band
  ``(tol, 10 tol] * max(1, |lam|max)`` raises ``ToleranceCollapse``.
  Otherwise the result certifies itself or is discarded: every generator
  must lie in the span within ``tol * max(1, ||g||_F)``.  The algebra
  keeps the path's *frame* (see below).
- **Gram-Schmidt by words.**  Every other generator set (not normal or not
  commuting) starts from the identity and multiplies each basis element,
  once reached, by the span of the generators and their adjoints.  Each
  batch of products extends the basis in one Hilbert-Schmidt Gram-Schmidt
  step with two batched passes, which raises ``ToleranceCollapse`` for a
  residual in its ambiguous band.  This is the only path for
  non-commutative systems.

**The frame.**  The frame of a spectral closure is (V, r): V the n x n
eigenvectors of the Hermitian element, its columns in consecutive blocks
V_i of the block ranks r_i, and basis element b_i = V_i V_i* / sqrt(r_i),
built from the frame in one place, ``Frame.chunks``, in chunks of bounded
size that ``Frame.basis`` stacks.  It covers the seed algebras and every
commutative tower stage.  With E = V*V - I (0 for a unitary V), every
pair identity of the basis reduces to n x n products, in O(n^3) instead
of O(d^2 n^3):

- b_i b_j - delta_ij b_i / sqrt(r_i) = V_i E_ij V_j* / sqrt(r_i r_j), so
  the distance of b_i b_j to the span is at most
  (1 + ||E||_F) ||E_ij||_F / sqrt(r_i r_j) ("closed under product");
- <b_i, b_j>_HS = ||(V*V)_ij||_F^2 / sqrt(r_i r_j), exactly ("basis
  orthonormal");
- I - sum_i sqrt(r_i) b_i = I - V V*, and ||I - V V*||_F = ||E||_F for a
  square V, which bounds the distance of I to the span ("identity in
  span");
- b_i* lies within ||b_i - b_i*||_F of b_i, which is in the span ("closed
  under adjoint", an O(d n^2) bound, taken chunk by chunk);
- [b_i, b_j] = (V_i E_ij V_j* - V_j E_ji V_i*) / sqrt(r_i r_j) for i != j,
  whose norm is ||E_ij|| / sqrt(r_i r_j) within the factor 1 +- ||E||
  (``commutator_defect`` reports the upper end);
- delta(ab) - delta(a) delta(b) = U a (1 - U*U) b U*, so pair (i, j) of
  the multiplicativity defect is ||(U V_i) Q_ij (U V_j)*|| / sqrt(r_i r_j)
  with Q = V*(1 - U*U)V, exactly.

An algebra with a frame keeps the frame, its dimension and the ambient
one, and forms its (d, n, n) basis on first use by a dense consumer, then
keeps it: ``project`` (the samplers' draw on a
system without an exact chain model, below), the membership tests
(``span_defects``, ``membership``, ``contains``: a
NormalForm's coefficients, a polar model's a a* test), and the images'
stack, which only a walk stage that does not close asks for.  So a
q-model builds and passes ``check_coefficient_algebra`` with no stack, and
a polar model with its seed's alone, for the a a* test.  The basis formed
is the frame's up to the rounding of its products, which the bounds do
not count.
Algebras without a frame (Gram-Schmidt closures, commutants, bases given
directly) keep the stack they are given and are measured by the pair
loops, as distances to an SVD basis of their span.

**Images in the frame.**  The images x b_i x* of a frame basis, for
x = U (delta), U* (delta_star) or 1 (the basis itself), are measured from
n x n products made once, in O(n^2) per basis element (``_Images``).
With W = xV, image i is W_i W_i* / sqrt(r_i), of rank r_i:

- its distance to a target algebra with a frame (V', r') (its own for
  the walks and the invariance defects, the other tower for "towers have
  equal spans") is that of Y_i = U~_i U~_i* / sqrt(r_i), U~ = V'^{-1} W
  (V'*W for a unitary V'), to the block-scalar matrices: the rows of U~
  cut at the target's ranks r', its columns at the source's r, the
  off-block mass of Y_i plus its part off each diagonal block's mean
  scalar.  The image less sum_j c_j V'_j V'_j* is V' (Y_i - sum_j c_j J_j)
  V'* with J_j the identity on block j, and the singular values of V' lie
  in [sqrt(1 - ||E'||), sqrt(1 + ||E'||)], so the ambient distance lies
  within the factor 1 +- ||E'|| of the frame value;
- ||[P, image]|| for a Hermitian P (U*U in the walk; for x = 1, P_k, the
  gauge generator's H' and polar_structure's U^kU^{*k}) is
  ||[P, W_i W_i*]|| / sqrt(r_i): for r_i = 1 exactly
  ||w|| ||Pw - (w*Pw / ||w||^2) w||, for r_i > 1 the norm of a
  2r_i x 2r_i core from thin QR factors (``_commutator_norms``);
- U^k b_i - delta^k(b_i) U^k = U^k b_i (1 - P_k), so that power entry is
  ||(U^k V_i)((1 - P_k) V_i)*|| / sqrt(r_i), exact from U^k V and P_k V.
  Its k = 1 case is ``intertwining_defect``, and with U* for U and UU*
  for P_1 it is ``adjoint_intertwining_defect``; that of [P_k, b_i] is
  ``uu_commutator_defect``.

None of them cancels: no norm is the square root of a difference of
squares, which leaves noise near sqrt(eps) where the value is 0, and an
off-block sum is an exclusive sum, never a total minus the diagonal.  The
stack of images is built (``Frame.basis`` on (W, r)) only for a stage
that does not close, whose closure needs it.

The walk's fixed-point test takes the membership rule at scale 1 (within
tol) and measures no image norm: with ||b||_F = 1 and x = U or U*,
||x b x*||_F <= ||U||^2 <= 1 + eps, eps <= tol U's partial-isometry
defect, so the rule at the image's norm would raise tol by tol * eps.

**The gauge generator.**  A system may certify its gauge action
U -> lam U (an Huef and Raeburn, ETDS 17, 1997; Exel, ETDS 23, 2003) from
U alone: H = -sum_{k=1}^{K} U^{*k}U^k over the cached initial projections
satisfies [H, U] = U - U^{*K}U^{K+1} by the absorption identities, and
commutes with the algebra when the projections do.  For a coefficient
system they lie in A and commute with it, so H lies in A and in its
commutant A'; for a nilpotent U with U^K = 0, [H, U] = U.  Then
W_lam = lam^H fixes the algebra and sends U to lam U, so the gauge action
is implemented by unitaries.  ``IsometrySystem.gauge_candidate`` keeps
the eigenvectors V of H and its eigenvalues rounded to integers h, with
the residual ||[H', U] - U|| and max ||[H', b_i]|| over the basis of
H' = V diag(h) V*; ``IsometrySystem.gauge_generator`` is the candidate
when both are within tol, and None otherwise.  It needs no frame, so it
certifies non-commutative systems too.  It certifies exactly the
nilpotent U, on which alone the coefficient bound holds (``isoalg.norms``).

**Chains.**  On a certified frame system (a frame (V, r), a passed
coefficient report and a gauge generator) U permutes the blocks along
chains (``IsometrySystem.chains``).  delta sends each minimal projection
p_i = V_i V_i* to a minimal projection p_sigma(i) of the same rank, or to
0: delta(p_i) is a projection of A, and for a minimal q <= delta(p_i),
U* q U is a nonzero projection of A below p_i, so it is p_i, and two
such q would give U* delta(p_i) U >= 2 p_i.  sigma is then a partial
injection of the blocks, acyclic since U is nilpotent, and its chains
partition them.  A basis of each chain's head, carried along the chain by
U, splits C^n as the sum over chains of C^L (x) C^r, on which U is the
shift S (x) 1 and a member a of A is D (x) 1, D the diagonal of its
block values v_i = <b_i, a> / sqrt(r_i) along the chain.  So C*(A, U) is
the direct sum of the L x L matrix algebras of its chains, the finite
acyclic graph algebras
(I. Raeburn, *Graph Algebras*, CBMS 103, AMS 2005, ch. 1), and the source
paper's isomorphism theorem in finite dimensions: ||x|| depends on
(A, delta) alone.  sigma is read from the block masses of V^-1 U V, and
three premises make that model exact within tol (``CHAIN_PREMISES``):
||V*V - I||_F, the mass of V^-1 U V off the blocks (sigma(i), i), and the
distance of the block values of every F_k = U^k U^{*k} from the 0 or 1
their chain positions give.

The model stands in for the dense path only where it reads the same
values to CHAIN_AGREEMENT.  With the premises e, m and f in that order,
to first order U lies within m + f of the model's shift and a
coefficient within (2e + f) ||a|| of its model, so a form of degree N,
whose coefficients have norms <= ||x|| (the coefficient bound), moves by
at most (``Chains.error``)

    N(N+1)(m + f) + (2N+1)(2e + f)

times ||x||, and xx* by twice that times ||x||^2, the scale of the norm
limit's values.  The chain model is taken where every premise is within
tol and twice the bound at the samplers' largest degree,
MAX_SAMPLE_DEGREE, is within CHAIN_AGREEMENT.  A rotated frame carries m
of about n^2 eps, the rounding of V^-1 U V: the polar model of the
base-0.9 weighted shift in a rotated basis reads m = 1.1e-13 at n = 24
and takes the dense path, which measures the computed U.

On top of that sit the condition checkers for a pair (algebra, partial
isometry U) and the extension builders that enlarge an initial algebra until
the maps delta(x) = U x U* and delta_star(x) = U* x U send it into itself.
Both maps act on stacks, so a checker measures its identity over the whole
basis in one batched call; identities over pairs take one call per row, so
that no temporary holds all the pairs at once.

One checked walk, ``_checked_walk``, builds both extension towers: it
decides the tower's hypotheses, then the entries of each stage, one at a
time, and stops at the first that fails.  Each stage's images serve those
entries, the fixed-point test and the next closure, so extendability is
decided on the delta tower's own walk at no orbit depth guessed.  A system
is the pair (algebra, U): over its own algebra, ``_with_algebra`` is the
system itself.  It caches its walks, U's partial-isometry report and each
defect that several reports share, so each is measured once per system.

**Commutative extendability on the tower.**  Let T be the closed delta
tower (S_0 = A, S_{s+1} = C*(S_s u delta(S_s)), T the fixed point) and
P = U*U.  Given extendability, which the delta walk decides, P commutes
with A and with every delta(S_s), hence with T; then A commutes with every
delta^n(A) if and only if T is commutative.  If T is, A and every
delta^n(A) lie in it.  Conversely, delta(x) delta(y) = U x P y U* =
delta(xy) on T, so delta^m is a *-homomorphism of T, and for a, b in A and
m <= n, delta^m(a) delta^n(b) = delta^m(a delta^{n-m}(b)) =
delta^m(delta^{n-m}(b) a) = delta^n(b) delta^m(a): the delta^n(A) form a
commuting, *-closed set.  By induction each S_s is the C*-algebra of its
part of that set, so T is commutative.  ``check_commutative_extendability``
is therefore "algebra commutative", the delta walk's report and "delta
tower commutative" (T's ``commutator_defect``), with no walk of its own.
Numerically every image s lies within tol * max(1, ||s||_F) of T (the
walk's fixed-point test or the certificate of the closure it entered), so
with c that defect and alpha, sigma the coordinates in T of a in A and of
the projection of s, ||[a, s]|| <= ||alpha||_1 ||sigma||_1 c +
2 ||a|| dist_F(s, T).

Every checker has one contract: ``check(sys[, k_max]) -> ConditionReport``,
measured at ``sys.tol``, the tolerance the system was built at.  A failed
hypothesis is an entry of the report, never an exception; a report that
stops early ends at the failing entry.  The builders (``extend_delta``,
``extend_delta_star``, ``build_towers``) are not checkers: they raise
HypothesisViolated, carrying the same report.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    InvalidBasis,
    NotPartialIsometry,
    ToleranceCollapse,
)
from .linalg import (
    DEFAULT_TOL,
    _frobenius_norms,
    _int64_vector,
    _ldexp,
    _scale_exponent,
    adjoint,
    as_matrix,
    hs_norm,
    is_partial_isometry,
    spectral_norms,
)
from .report import ConditionReport

# A checked tower walk: its report, and the tower (None when it failed).
Walk = tuple[ConditionReport, "FiniteStarAlgebra | None"]


def _chain_cap(n: int) -> int:
    # longest strictly increasing chain of subspaces of the n*n matrices,
    # plus slack; guards stabilization loops against tolerance oscillation
    return n * n + 2


def _exceeds(x, e, bound):
    """x 2^e > bound for x, bound >= 0, compared without forming x 2^e."""
    return np.ldexp(x, np.minimum(e, 0)) > np.ldexp(bound, -np.maximum(e, 0))


def _scaled(gens):
    """Each generator g, one at a time, as (g 2^-e, e), e its
    ``_scale_exponent``: g itself and 0 inside the safe range."""
    for g in gens:
        e = _scale_exponent(g)
        yield _ldexp(g, -e), e


def _extend(flat: np.ndarray, cands: np.ndarray, tol: float,
            exps: np.ndarray | int = 0) -> np.ndarray:
    """Extend an orthonormal flat basis (k, N) by the directions of a
    (m, N) candidate stack that it does not span; candidate i stands for
    itself times 2^exps[i].

    Each candidate is scaled to unit norm (those whose unscaled norm is
    <= tol are dropped) and projected off the basis in two batched passes.
    The candidate with the largest residual above 10 tol is then taken as
    the next direction and projected off the rest, until no residual is
    above 10 tol.  A residual left in the ambiguous band (tol, 10 tol]
    raises ToleranceCollapse, whatever the candidates' order.
    """
    norms = np.linalg.norm(cands, axis=1)
    keep = _exceeds(norms, exps, tol)
    v = cands[keep] / norms[keep, None]
    for _ in range(2):
        v = v - _inner_products(v, flat) @ flat
    new: list[np.ndarray] = []
    r = np.linalg.norm(v, axis=1)
    while r.size and r.max() > 10.0 * tol:
        w = v[np.argmax(r)]
        # a second pass against this call's directions, as for the basis
        for b in new:
            w = w - np.vdot(b, w) * b
        w = w / np.linalg.norm(w)
        new.append(w)
        v = v - np.outer(v @ w.conj(), w)
        r = np.linalg.norm(v, axis=1)
    r = r[r > tol]
    if r.size:
        raise ToleranceCollapse(
            f"Gram-Schmidt residual {r.max():.3e} in ambiguous band "
            f"({tol:.1e}, {10 * tol:.1e}]; generator set is ill-conditioned")
    return np.concatenate([flat, np.reshape(new, (-1, flat.shape[1]))])


def _svd_span(mats) -> np.ndarray:
    """Orthonormal flat basis of the span of a (K, n, n) stack, to measure
    distances to it (no band semantics)."""
    stack = np.asarray(mats)
    _, s, vh = np.linalg.svd(stack.reshape(len(stack), -1), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    rank = int(np.sum(s > 1e-12 * s[0]))
    return vh[:rank]


def _span_defects(flat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Frobenius distance from each matrix of a (K, n, n) stack to the span
    of an orthonormal flat basis, from one residual normed in row blocks."""
    v = stack.reshape(stack.shape[0], flat.shape[1])
    if flat.shape[0]:
        r = _inner_products(v, flat) @ flat
        v = np.subtract(v, r, out=r)
    step = max(1, BASIS_CHUNK_BYTES // (16 * v.shape[1]))
    out = np.empty(len(v))
    for i in range(0, len(v), step):
        out[i:i + step] = np.linalg.norm(v[i:i + step], axis=1)
    return out


def _inner_products(v: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """v @ flat.conj().T: the HS inner products <flat_j, v_i> of the rows
    of a flat basis with each row of v (or with a vector v).  The smaller
    operand is the one conjugated, (v.conj() @ flat.T).conj() when v is,
    which is exact: conjugation commutes with IEEE complex products and
    sums."""
    if v.size < flat.size:
        return (v.conj() @ flat.T).conj()
    return v @ flat.conj().T


# Bytes of basis matrices that ``Frame.chunks`` forms at once.
BASIS_CHUNK_BYTES = 2 ** 18


class Frame(NamedTuple):
    """The frame of a spectral closure: an n x n matrix ``vecs`` = V whose
    columns fall into consecutive blocks V_i of the block ``ranks`` r_i."""

    vecs: np.ndarray
    ranks: np.ndarray

    def chunks(self):
        """The basis b_i = V_i V_i* / sqrt(r_i) in chunks (at, stack): the
        indices ``at`` of blocks of one rank and their (len(at), n, n)
        stack, in one batched product, of at most BASIS_CHUNK_BYTES (one
        matrix at least).  The one place a basis is built from a frame; on
        W = xV the chunks hold the images x b_i x*."""
        n = len(self.vecs)
        for at, r, cols in _rank_groups(self.ranks):
            step = max(1, BASIS_CHUNK_BYTES // (16 * n * n))
            for i in range(0, len(at), step):
                v = _block_columns(self.vecs, cols[i:i + step])
                yield at[i:i + step], v @ (adjoint(v) / np.sqrt(r))

    def basis(self) -> np.ndarray:
        """The (d, n, n) stack of the ``chunks``.  A frame algebra forms it
        for its dense consumers alone (see ``FiniteStarAlgebra``), so a
        build forms none but a polar seed's, whose a a* test is one."""
        n = len(self.vecs)
        basis = np.empty((len(self.ranks), n, n), dtype=complex)
        for at, chunk in self.chunks():
            basis[at] = chunk
        return basis


def _rank_groups(ranks: np.ndarray):
    """Per distinct block rank r: the blocks of that rank, r, and their
    (len(at), r) column indices."""
    starts = np.cumsum(ranks) - ranks
    # not np.unique, whose first call imports numpy.ma
    for r in sorted(set(ranks.tolist())):
        at = np.flatnonzero(ranks == r)
        yield at, r, starts[at, None] + np.arange(r)


def _block_columns(m: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (..., k, n, r) stack of the column blocks at the (k, r) column
    indices ``cols`` of an (n, n) matrix or of each of an (..., n, n)
    stack."""
    return np.ascontiguousarray(np.moveaxis(m[..., cols], -3, -2))


def _outer_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The spectral norms ||a_i b_i*|| over (..., n, r) stacks a and b: the
    product of the two vectors' norms for r = 1, else ||R_a R_b*|| from the
    thin QR factors a_i = Q R_a and b_i = Q' R_b, exactly."""
    if a.shape[-1] == 1:
        return (np.linalg.norm(a[..., 0], axis=-1)
                * np.linalg.norm(b[..., 0], axis=-1))
    ra, rb = np.linalg.qr(a, mode="r"), np.linalg.qr(b, mode="r")
    return spectral_norms(ra @ adjoint(rb))


def _commutator_norms(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """||[P, w_i w_i*]|| for a Hermitian P over (..., n, r) stacks w and
    x = P w: x w* - w x* has rank at most 2r.  For r = 1 it is
    ||w|| ||x - (w*x / ||w||^2) w||, exactly, which takes the residual
    itself and not sqrt(||x||^2 ||w||^2 - |<w, x>|^2), whose cancellation
    leaves noise near sqrt(eps) where the value is 0.  For r > 1 it is
    ||L R*|| with L = [x, -w] and R = [w, x] (``_outer_norms``), and 0
    where the commutator, formed in O(n^2 r), has no nonzero entry."""
    w = np.broadcast_to(w, x.shape)
    if w.shape[-1] > 1:
        nonzero = (x @ adjoint(w) - w @ adjoint(x)).any(axis=(-2, -1))
        return np.where(nonzero, _outer_norms(
            np.concatenate([x, -w], axis=-1),
            np.concatenate([w, x], axis=-1)), 0.0)
    w, x = w[..., 0], x[..., 0]
    # one expression for both inner products, so that x = w gives alpha = 1
    mass = np.einsum("...i,...i->...", w.conj(), w).real
    alpha = np.divide(np.einsum("...i,...i->...", w.conj(), x), mass,
                      out=np.zeros(mass.shape, complex), where=mass > 0.0)
    return np.sqrt(mass) * np.linalg.norm(x - alpha[..., None] * w, axis=-1)


def _per_block(norms, a: np.ndarray, b: np.ndarray,
               ranks: np.ndarray) -> np.ndarray:
    """norms(A_i, B_i) / sqrt(r_i) over the column blocks A_i, B_i of an
    (..., n, n) stack a and an (n, n) matrix or a stack b, cut at the
    ranks, as an (..., d) array: one call per distinct rank."""
    out = np.empty(a.shape[:-2] + (len(ranks),))
    for at, r, cols in _rank_groups(ranks):
        out[..., at] = norms(_block_columns(a, cols),
                             _block_columns(b, cols)) / np.sqrt(r)
    return out


def _exclusive_sums(s: np.ndarray) -> np.ndarray:
    """sum_{k != j} s_k for each j along the first axis of a nonnegative
    array, as the sum of the entries before j and the entries after it:
    never the total minus s_j, which leaves the total's rounding where the
    mass sits in one entry."""
    out = np.zeros_like(s)
    np.cumsum(s[:-1], axis=0, out=out[1:])
    out[:-1] += np.cumsum(s[:0:-1], axis=0)[::-1]
    return out


def _block_scalar_residual(m: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """An (..., n, n) stack less, in place, the mean scalar of each of its
    diagonal blocks cut at the ranks: its part off the block-scalar
    matrices, whose Frobenius norm is its distance to them."""
    starts = np.cumsum(ranks) - ranks
    i = np.arange(m.shape[-1])
    means = np.add.reduceat(m[..., i, i], starts, axis=-1) / ranks
    m[..., i, i] -= np.repeat(means, ranks, axis=-1)
    return m


def _block_scalar_distances(coords: np.ndarray, rows: np.ndarray,
                            cols: np.ndarray) -> np.ndarray:
    """Frobenius distance of each Y_i = C_i C_i* / sqrt(r_i), C_i the i-th
    column block of the (n, n) matrix ``coords`` cut at the column ranks
    ``cols``, to the block-scalar matrices of the row ranks ``rows``: its
    off-block mass plus, inside each diagonal block, its part off the
    block's mean scalar.

    For a rank-1 column c, with s_j = ||c_j||^2 the mass of c in row
    block j, the squared distance is sum_j s_j sum_{k != j} s_k +
    sum_j s_j^2 (1 - 1/r_j), each a sum of nonnegative terms, in O(n)
    per column.  A column block of rank r > 1 is formed as C_i C_i* in
    O(n^2 r) (``_block_scalar_residual``)."""
    starts = np.cumsum(rows) - rows
    out = np.empty(len(cols))
    for at, r, idx in _rank_groups(cols):
        if r == 1:
            c = coords[:, idx[:, 0]]
            mass = np.add.reduceat(c.real ** 2 + c.imag ** 2, starts, axis=0)
            off = np.einsum("jk,jk->k", mass, _exclusive_sums(mass))
            inner = np.einsum("jk,jk,j->k", mass, mass, 1.0 - 1.0 / rows)
            out[at] = np.sqrt(off + inner)
            continue
        c = _block_columns(coords, idx)
        out[at] = _frobenius_norms(
            _block_scalar_residual(c @ adjoint(c), rows)) / np.sqrt(r)
    return out


def _block_sums(m: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The (d, d) sums of the blocks of an (n, n) matrix cut at the ranks."""
    starts = np.cumsum(ranks) - ranks
    return np.add.reduceat(np.add.reduceat(m, starts, axis=0), starts, axis=1)


def _block_norms(m: np.ndarray, ranks: np.ndarray,
                 gram: np.ndarray | None = None) -> np.ndarray:
    """The (d, d) spectral norms of S_i m_ij S_j over the blocks m_ij of an
    (n, n) matrix cut at the ranks, with S_i the square root of the PSD
    diagonal block gram_ii (the identity when ``gram`` is None).  The
    blocks of each pair of ranks are solved in one batch."""
    groups = []
    for at, r, cols in _rank_groups(ranks):
        idx = cols.ravel()
        root = None
        if gram is not None:
            g = gram[np.ix_(idx, idx)].reshape(len(at), r, len(at), r)
            w, v = np.linalg.eigh(g[np.arange(len(at)), :, np.arange(len(at))])
            root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None]) @ adjoint(v)
        groups.append((at, idx, r, root))
    out = np.empty((len(ranks), len(ranks)))
    for at_a, rows, ra, root_a in groups:
        for at_b, cols, rb, root_b in groups:
            blocks = m[np.ix_(rows, cols)].reshape(
                len(at_a), ra, len(at_b), rb).swapaxes(1, 2)
            if gram is not None:
                blocks = root_a[:, None] @ blocks @ root_b[None]
            out[np.ix_(at_a, at_b)] = spectral_norms(blocks)
    return out


class FiniteStarAlgebra:
    """A unital *-subalgebra of the n x n matrices.

    ``basis`` is one (d, n, n) stack, Hilbert-Schmidt orthonormal, closed
    under adjoints and products within ``tol``, and spans the identity.  The
    constructor takes the stack, or a ``Frame``, which it keeps as ``frame``
    (None for a stack) and from which it forms no stack: ``Frame.basis``
    forms it when a dense consumer first asks for ``basis`` or its flat
    view (``project``, ``span_defects``, ``membership``, ``contains``, and
    the images' stack of a walk stage that does not close), and it is kept
    from then on.  The constructor
    validates the basis (``invariant_report``) and raises InvalidBasis,
    carrying the report, when an invariant fails.

    With a frame (V, r), the four invariants are measured in O(n^3), each
    exact or an upper bound on the pair value for the basis the frame
    defines, by the identities the module docstring lists under their
    names.  Without a frame they are the pair loops over the basis, the
    product entry in O(d^3 n^2).
    """

    def __init__(self, basis, tol: float = DEFAULT_TOL):
        self.tol = float(tol)
        if isinstance(basis, Frame):
            self.frame = basis
            self.ambient_dim, self.dim = len(basis.vecs), len(basis.ranks)
        else:
            self.frame = None
            basis = np.asarray(basis, dtype=complex)
            if (basis.ndim != 3 or not len(basis)
                    or basis.shape[1] != basis.shape[2]):
                raise DimensionMismatch(
                    f"expected a nonempty (d, n, n) stack, got shape "
                    f"{basis.shape}")
            self.basis = basis
            self.ambient_dim, self.dim = basis.shape[1], len(basis)
        rep = self.invariant_report()
        if not rep.passed:
            raise InvalidBasis(f"invalid *-algebra basis:\n{rep}", rep)

    @cached_property
    def basis(self) -> np.ndarray:
        """The (d, n, n) stack; with a frame, ``Frame.basis``, formed on
        first use (a stack given to the constructor is kept as it is)."""
        return self.frame.basis()

    @cached_property
    def _flat(self) -> np.ndarray:
        """The basis as a (d, n^2) array, a view of the stack."""
        return self.basis.reshape(self.dim, -1)

    def project(self, m: np.ndarray) -> np.ndarray:
        """HS projection onto the span of a matrix, or of each matrix of a
        (K, n, n) stack, from its coordinates <b_i, m>."""
        m = np.asarray(m)
        flat = m.reshape(m.shape[:-2] + (self.ambient_dim ** 2,))
        coords = _inner_products(flat, self._flat)
        return (coords @ self._flat).reshape(m.shape)

    def span_defects(self, stack: np.ndarray) -> np.ndarray:
        """Frobenius distance to the span of each matrix of a (K, n, n)
        stack."""
        stack = np.asarray(stack, dtype=complex)
        n = self.ambient_dim
        if stack.ndim != 3 or stack.shape[1:] != (n, n):
            raise DimensionMismatch(
                f"expected {n}x{n} matrices (the ambient dim), got shape "
                f"{stack.shape}")
        return _span_defects(self._flat, stack)

    def membership(self, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The membership rule on a (K, n, n) stack: whether each matrix m
        lies in the span, within tol * max(1, ||m||_F), and its Frobenius
        distance to the span."""
        defects = self.span_defects(stack)
        return self._within(defects, _frobenius_norms(stack)), defects

    def _within(self, defects: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """The membership rule, on distances and Frobenius norms."""
        return defects <= self.tol * np.maximum(1.0, norms)

    def contains(self, m: np.ndarray) -> tuple[bool, float]:
        """The membership rule on one matrix, and its distance."""
        inside, defects = self.membership(as_matrix(m)[None])
        return bool(inside[0]), float(defects[0])

    def block_values(self, stack: np.ndarray) -> np.ndarray:
        """The block values v_i = <b_i, m> / sqrt(r_i) = tr(V_i* m V_i) / r_i
        of each matrix m of a (K, n, n) stack, as a (K, d) array, from the
        frame (V, r) and no basis (frame algebras only): the member
        sum_i <b_i, m> b_i is V diag(v) V*, diag(v) holding v_i on the
        columns of block i, as ``members`` forms it.  Column j of V
        contributes (V* m V)_jj / r_i (``_frame_columns``): one product
        m V, or, when each column of V has one nonzero entry, at row a_j,
        |V_{a_j j}|^2 m[a_j, a_j] read off m."""
        rows, weights, starts = self._frame_columns
        if rows is None:
            vecs = self.frame.vecs
            terms = np.einsum("kaj,aj->kj", stack @ vecs, vecs.conj())
        else:
            terms = stack[:, rows, rows]
        terms *= weights
        return terms if starts is None else np.add.reduceat(terms, starts,
                                                            axis=1)

    @cached_property
    def _frame_columns(self) -> tuple[np.ndarray | None, np.ndarray,
                                      np.ndarray | None]:
        """For ``block_values``: the row a_j of the one nonzero entry of
        each column j of the frame's V (None when a column has more: a
        q-model's V is a permutation, a rotated model's is dense), the
        weight of each column, |V_{a_j j}|^2 / r_i or 1 / r_i for column j
        of block i, and the first column of each block (None when every
        block has rank 1)."""
        vecs, ranks = self.frame
        weights = np.repeat(1.0 / ranks, ranks)
        rows, starts = None, None
        if (np.count_nonzero(vecs, axis=0) == 1).all():
            rows = np.argmax(vecs != 0, axis=0)
            entries = vecs[rows, np.arange(len(vecs))]
            weights *= entries.real ** 2 + entries.imag ** 2
        if len(ranks) < len(vecs):
            starts = np.cumsum(ranks) - ranks
        return rows, weights, starts

    def members(self, values: np.ndarray) -> np.ndarray:
        """V diag(v) V* for each row v of a (K, d) array of block values,
        as a (K, n, n) stack (frame algebras only)."""
        vecs, ranks = self.frame
        cols = np.repeat(values, ranks, axis=1)
        return (vecs * cols[:, None, :]) @ adjoint(vecs)

    @cached_property
    def _frame_gram(self) -> np.ndarray:
        """V*V of the frame: the identity, up to E, for a unitary V."""
        v = self.frame.vecs
        return adjoint(v) @ v

    @cached_property
    def _frame_error(self) -> float:
        """||E||_F, E = V*V - I: "identity in span", ``commutator_defect``,
        the chain model's first premise and the gauge bound read it."""
        return float(np.linalg.norm(self._frame_gram
                                    - np.eye(self.ambient_dim)))

    @cached_property
    def _frame_inverse(self) -> np.ndarray:
        """V^{-1} of the frame, which takes a matrix to frame coordinates:
        V*, up to E, for a unitary V."""
        return np.linalg.inv(self.frame.vecs)

    @cached_property
    def commutator_defect(self) -> float:
        """Worst commutator norm over distinct basis pairs: 0 up to rounding
        exactly when the algebra is commutative.  With a frame, the bound
        (1 + ||E||_F) ||E_ij|| / sqrt(r_i r_j) of pair (i, j), within the
        factor (1 + ||E||) / (1 - ||E||) of its value."""
        if self.frame is None:
            basis = self.basis
            return max((_commutator_norm(a, basis[i + 1:])
                        for i, a in enumerate(basis)), default=0.0)
        ranks = self.frame.ranks
        e = self._frame_gram - np.eye(self.ambient_dim)
        norms = _block_norms(e, ranks) / np.sqrt(np.outer(ranks, ranks))
        np.fill_diagonal(norms, 0.0)
        return float(norms.max()) * (1.0 + self._frame_error)

    def invariant_report(self) -> ConditionReport:
        """The four *-algebra invariants, in the frame when there is one
        (see the class docstring)."""
        n = self.ambient_dim
        if self.frame is None:
            values = self._pair_invariants()
        else:
            values = self._frame_invariants()
        rep = ConditionReport("star_algebra_invariants")
        for (label, tol), value in zip(
                (("basis orthonormal", 10.0 * self.tol),
                 ("identity in span", self.tol * n),
                 ("closed under adjoint", self.tol),
                 ("closed under product", self.tol)), values):
            rep.add(label, value, tol)
        return rep

    def _pair_invariants(self) -> tuple[float, ...]:
        """Orthonormality of the stored basis, and the distances to its span
        measured against an orthonormal basis of that span (an SVD), so
        that they are distances however far "basis orthonormal" is from 0
        within its 10 tol."""
        gram = self._flat.conj() @ self._flat.T
        orth = float(np.abs(gram - np.eye(self.dim)).max())
        n, basis = self.ambient_dim, self.basis
        span = _svd_span(basis)
        ident = float(_span_defects(span, np.eye(n, dtype=complex)[None])[0])
        adj = _span_defects(span, adjoint(basis)).max()
        prod = max(float(_span_defects(span, bi @ basis).max())
                   for bi in basis)
        return orth, ident, float(adj), prod

    def _frame_invariants(self) -> tuple[float, ...]:
        vecs, ranks = self.frame
        n = self.ambient_dim
        if (vecs.shape != (n, n) or not len(ranks) or ranks.min() < 1
                or ranks.sum() != n):
            raise DimensionMismatch(
                f"a frame of {n}x{n} matrices needs {n}x{n} vectors in "
                f"blocks of ranks >= 1 summing to {n}, got {vecs.shape} "
                f"and ranks {ranks.tolist()}")
        gram = self._frame_gram
        e = gram - np.eye(n)
        scale = np.sqrt(np.outer(ranks, ranks))
        inner = _block_sums(np.abs(gram) ** 2, ranks) / scale
        orth = float(np.abs(inner - np.eye(self.dim)).max())
        adj = max(float(_frobenius_norms(b - adjoint(b)).max())
                  for _, b in self.frame.chunks())
        prod = float((np.sqrt(_block_sums(np.abs(e) ** 2, ranks))
                      / scale).max()) * (1.0 + self._frame_error)
        return orth, self._frame_error, adj, prod

    def __repr__(self) -> str:
        return (f"FiniteStarAlgebra(dim={self.dim}, "
                f"ambient={self.ambient_dim}, tol={self.tol:g})")


# Seed of the random combination of the spectral closure path.  Fixed, so
# that a closure, and every report built on it, is the same on every call.
_SPECTRAL_SEED = 20100127


def _spectral_closure(gens: list[np.ndarray], n: int,
                      tol: float) -> Frame | None:
    """The frame (V, r) of the closure of commuting normal generators, or
    None when the generators do not certify it (see the module docstring).
    V holds the eigenvectors of the Hermitian combination H, and the blocks
    of ranks r are its eigenspaces split at gaps above tol * max(1,
    |lam|max), so the closure is spanned by the minimal projections
    V_i V_i*, whose basis ``Frame.basis`` builds.  V is unitary up to the
    eigensolver's rounding: E = V*V - I, which bounds the algebra's
    invariants and pair defects (see ``FiniteStarAlgebra``), is exactly 0
    when H is diagonal and of order n eps otherwise.  An eigenvalue gap in
    the ambiguous band raises ToleranceCollapse naming the gap, before the
    certificate is tested.

    The Hermitian combination is accumulated, and membership is tested, one
    generator at a time, so no copy of the generator stack is made.  Each
    generator g enters as g 2^-e (``_scaled``), which leaves H and its
    split unchanged; the certificate compares the unscaled values.
    """
    # The stdlib generator is portable and, unlike numpy.random, costs no
    # import at model build.
    draw = random.Random(_SPECTRAL_SEED).uniform
    h = np.zeros((n, n), dtype=complex)
    weights = []  # coefficients of the parts that enter H above tol
    for g, _ in _scaled(gens):
        a, b = draw(1.0, 2.0), draw(1.0, 2.0)
        norm = hs_norm(g)
        if norm > 0.0:
            # a Re(g) + b Im(g), with Re(g) = (g + g*)/2, Im(g) = (g - g*)/2i
            g_h = adjoint(g)
            w = complex(a, -b) / (2.0 * norm)
            h += w * g
            h += np.conj(w) * g_h
            for c, part in ((a, g + g_h), (b, g - g_h)):
                if hs_norm(part) > 2.0 * tol * norm:
                    weights.append(c)
    # H is scaled so that its smallest weight is 1: no generator's eigenvalue
    # gaps shrink in the combination, and one Hermitian (or skew-Hermitian)
    # generator g gives H = g/||g||_F whatever the draw, so where its
    # closure splits, and whether a gap falls in the band, is the same for
    # every seed.
    if weights:
        h /= min(weights)
    lam, vecs = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(lam).max()))
    gaps = np.diff(lam)
    in_band = (gaps > tol * scale) & (gaps <= 10.0 * tol * scale)
    if in_band.any():
        i = int(np.argmax(in_band))
        raise ToleranceCollapse(
            f"the spectral path rejected eigenvalue gap {gaps[i]:.3e} "
            f"(index {i}, {lam[i]:.3e} to {lam[i + 1]:.3e}) in its "
            f"ambiguous band ({tol * scale:.1e}, {10 * tol * scale:.1e}]; "
            f"gaps in the band: {int(in_band.sum())}")
    starts = np.concatenate([[0], np.flatnonzero(gaps > tol * scale) + 1])
    ranks = np.diff(starts, append=n)
    vecs_h = adjoint(vecs)
    for g, e in _scaled(gens):
        # distance from g to span{P_i}: in the eigenbasis, everything off the
        # diagonal blocks plus each block's deviation from its mean scalar;
        # it fails above tol * max(1, ||g||_F) of the unscaled g 2^e
        r = np.linalg.norm(_block_scalar_residual(vecs_h @ g @ vecs, ranks))
        if _exceeds(r, e, tol) and r > tol * hs_norm(g):
            return None
    return Frame(vecs, ranks)


def _gram_schmidt_closure(gens: list[np.ndarray], n: int,
                          tol: float) -> np.ndarray:
    """Orthonormal basis of the closure by words: a span that holds 1 and
    is closed under right multiplication by the span W of the generators
    and their adjoints holds every word in them.  Each basis element, once
    reached, is multiplied by W in one batched product, and the basis is
    extended by the products (see ``_extend``).  The letters enter as
    ``_scaled`` generators, whose drop rule compares their unscaled norms."""
    scaled = list(_scaled(gens))
    exps = np.array([e for _, e in scaled] * 2, dtype=int)
    gens = np.asarray([g for g, _ in scaled], dtype=complex).reshape(-1, n, n)
    letters = np.concatenate([gens, adjoint(gens)]).reshape(-1, n * n)
    w = _extend(np.empty((0, n * n), complex), letters, tol,
                exps).reshape(-1, n, n)
    flat = _extend(np.eye(n, dtype=complex).reshape(1, -1) / np.sqrt(n),
                   letters, tol, exps)
    i = 0
    while i < len(flat):
        flat = _extend(flat, (flat[i].reshape(n, n) @ w).reshape(-1, n * n),
                       tol)
        i += 1
    return flat.reshape(-1, n, n)


def generate_closure(gens: list[np.ndarray], tol: float = DEFAULT_TOL,
                     dim: int | None = None) -> FiniteStarAlgebra:
    """Minimal unital *-algebra containing the generators.

    Commuting normal generators take the spectral path: the minimal
    projections of one Hermitian combination of the generators, with fixed
    random coefficients (seed ``_SPECTRAL_SEED``) scaled so that the
    smallest is 1, split at eigenvalue gaps above
    ``tol * max(1, |lam|max)``.  The path is taken only when it certifies
    itself: every generator lies in the span within
    ``tol * max(1, ||g||_F)`` and no gap falls in the ambiguous band
    ``(tol, 10 tol] * max(1, |lam|max)``.  A gap in that band is final: it
    raises ToleranceCollapse naming the gap, its index and the band.  Every
    other set falls back to a Gram-Schmidt closure by words, which raises
    ToleranceCollapse for a residual in its own ambiguous band.  Either
    basis goes through the FiniteStarAlgebra constructor, which validates
    it; a spectral closure keeps its frame.  ``dim`` is required when
    ``gens`` is empty.  A generator whose largest entry leaves [2^-128,
    2^128] enters both paths times an exact power of two (``_scaled``),
    and the rules above compare its unscaled values.
    Before either path, a generator of unscaled norm <= tol is dropped as a
    Gram-Schmidt letter is, unless ||[g, g*]||_F <= tol ||g||_F^2 (normal).
    """
    gens = [as_matrix(g) for g in gens]
    if gens:
        n = gens[0].shape[0]
        if any(g.shape[0] != n for g in gens):
            raise DimensionMismatch("generators have mixed dimensions")
        if dim is not None and dim != n:
            raise DimensionMismatch(f"dim={dim} but generators are {n}x{n}")
    elif dim is None:
        raise DimensionMismatch("empty generator set needs an explicit dim")
    else:
        n = dim

    gens = [g for g, (s, e) in zip(gens, _scaled(gens))
            if _exceeds(hs_norm(s), e, tol) or hs_norm(
                s @ adjoint(s) - adjoint(s) @ s) <= tol * hs_norm(s) ** 2]
    frame = _spectral_closure(gens, n, tol)
    if frame is None:
        return FiniteStarAlgebra(_gram_schmidt_closure(gens, n, tol), tol=tol)
    return FiniteStarAlgebra(frame, tol=tol)


def commutant(mats: list[np.ndarray], tol: float = DEFAULT_TOL) -> FiniteStarAlgebra:
    """All matrices commuting with every element of ``mats``.

    Solved as the joint null space of X -> sX - Xs over the given matrices;
    the null space of the stacked system is computed by SVD, whose right
    singular vectors are already HS-orthonormal.
    """
    mats = [as_matrix(m) for m in mats]
    if not mats:
        raise DimensionMismatch("commutant of an empty set is the full algebra; "
                                "pass at least one matrix (e.g. the identity)")
    n = mats[0].shape[0]
    eye = np.eye(n)
    blocks = [np.kron(s, eye) - np.kron(eye, s.T) for s in mats]
    stack = np.vstack(blocks)
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    smax = s[0] if s.size else 0.0
    cutoff = max(tol * max(1.0, smax), n * n * np.finfo(float).eps * smax)
    # s is descending with one entry per row of vh
    null_rows = vh[int(np.count_nonzero(s > cutoff)):]
    return FiniteStarAlgebra(null_rows.conj().reshape(-1, n, n), tol=tol)


class GaugeGenerator(NamedTuple):
    """H = V diag(h) V*, self-adjoint with integer eigenvalues h, with
    [H, U] = U and H in the commutant of the algebra, within ``residual`` =
    ||[H, U] - U|| and ``commutation`` = max ||[H, b_i]|| over the basis."""

    vecs: np.ndarray
    potentials: np.ndarray
    residual: float
    commutation: float

    def matrix(self) -> np.ndarray:
        """H = V diag(h) V*, made exactly self-adjoint."""
        h = (self.vecs * self.potentials) @ adjoint(self.vecs)
        return (h + adjoint(h)) / 2.0


# The premises of the chain model, in the order they are measured.
CHAIN_PREMISES = ("||V*V - I||_F", "mass of V^-1 U V off sigma",
                  "F_k block values off the chains' 0 or 1")

# Largest degree of the random canonical forms the samplers draw, and the
# relative agreement with the dense path that the chain model must
# guarantee on them (see "Chains" in the module docstring).
MAX_SAMPLE_DEGREE = 4
CHAIN_AGREEMENT = 1e-12


class Chains(NamedTuple):
    """The chain model of a certified frame system (see "Chains" in the
    module docstring).  Chain c runs through the blocks ``blocks[c, 0]``,
    ``blocks[c, 1]``, ... from its head, U sending each to the next; -1
    pads a chain past its end to the longest length L, and ``positions``
    gives each block's place on its chain.  ``margins`` holds the measured
    premises (CHAIN_PREMISES), and ``failed`` names the first that is not
    within tol, the error bound (``error``) that exceeds CHAIN_AGREEMENT,
    or the structure that sigma lacks, with None when the model stands in
    for the dense path; the chains are empty when sigma has no structure.

    ``matrices`` lays out the chain matrices X_c of forms: the form
    sum_k a_k U^k + sum_k U^{*k} a_{-k} acts on chain c of length L as
    X_c (x) 1_r, X_c the banded L x L matrix of its coefficients' block
    values, so ||x|| = max_c ||X_c||."""

    blocks: np.ndarray
    positions: np.ndarray
    margins: tuple[float, ...]
    failed: str | None

    def error(self, degree: int) -> float:
        """The first-order bound N(N+1)(m + f) + (2N+1)(2e + f), from the
        premises (e, m, f) = ``margins``, on the relative move of ||x|| of
        a form of degree N = ``degree`` from the chain model to the
        computed system."""
        e, m, f = self.margins
        return (degree * (degree + 1) * (m + f)
                + (2 * degree + 1) * (2 * e + f))

    def ranged(self, degrees: np.ndarray) -> np.ndarray:
        """The (K, d) mask of the blocks in the range of F_|k|, whose
        chain position is at least |k|, for each degree k."""
        return self.positions[None, :] >= np.abs(degrees)[:, None]

    def matrices(self, terms) -> np.ndarray:
        """The chain matrices X_c of forms given as (degrees, block values)
        ``terms``, one (K, d) array of values per form, as a (g, C, L, L)
        stack: the entry of X_c at (q, p), q - p = k, is the degree-k value
        of the block at position max(p, q) of chain c (the coefficient's
        value where U^k or U^{*|k|} enters that block), and 0 elsewhere."""
        count, (chains, length) = len(terms), self.blocks.shape
        out = np.zeros((count, chains, length, length), dtype=complex)
        degrees = np.concatenate([np.zeros(0, int)]
                                 + [k for k, _ in terms])
        if not degrees.size:
            return out
        values = np.concatenate([v for _, v in terms])
        owner = np.repeat(np.arange(count), [len(k) for k, _ in terms])
        at = values[:, np.maximum(self.blocks, 0)]  # (K, C, L)
        at[:, self.blocks < 0] = 0.0
        term, t = np.nonzero(np.arange(length) >= np.abs(degrees)[:, None])
        k = degrees[term]
        rows, cols = t - np.maximum(-k, 0), t - np.maximum(k, 0)
        every = np.arange(chains)
        out[owner[term, None], every, rows[:, None], cols[:, None]] = (
            at[term, :, t])
        return out

    def norms(self, terms) -> np.ndarray:
        """||x|| = max_c ||X_c|| of each form of ``terms`` (as for
        ``matrices``), in one batched eigensolve."""
        return spectral_norms(self.matrices(terms)).max(axis=1)


class IsometrySystem:
    """A *-algebra together with a partial isometry acting on the same space.

    The powers of U are cached as they are asked for, each by one product
    U^{k+1} = U^k U, up to k = 2n + 4 on C^n or up to the first power that
    is zero at tol, stored as an exact zero; a power past the cap is taken
    from cached ones by repeated squaring, and none past it is kept.  The
    projections U^{*k} U^k and U^k U^{*k} are one product on U^k each, and
    ``power_families`` forms the three families up to a depth at once.  So
    a build, which reads U and U*U, holds two powers, and a check holds
    those up to the depth it measures.  The nilpotency index and the gauge
    candidate's sum of the U^{*k}U^k come from one walk of the same
    products that holds one power at a time and leaves the cache as it
    is.  ``tol`` is the algebra's, the tolerance every checker measures
    the system at, and ``partial_isometry`` is U's report at it.  The
    system is immutable after construction, apart from the power cache,
    which only grows, so its walks and the defects that several reports
    share are cached properties.
    """

    def __init__(self, algebra: FiniteStarAlgebra, u: np.ndarray):
        self.algebra = algebra
        self.u = as_matrix(u)
        if self.u.shape[0] != algebra.ambient_dim:
            raise DimensionMismatch(
                f"U dim {self.u.shape[0]} != ambient dim {algebra.ambient_dim}")
        self.tol = algebra.tol
        rep = self.partial_isometry = is_partial_isometry(self.u, self.tol)
        if not rep.passed:
            raise NotPartialIsometry("U is not a partial isometry", rep)
        self._powers = [np.eye(algebra.ambient_dim, dtype=complex)]
        self._nilpotent_at: int | None = None

    def _grow(self, k: int) -> None:
        """Extend the power cache by U^{j+1} = U^j U until it holds U^k,
        U^{2n+4} or the first power with ||U^j||_F <= tol, which is stored
        as an exact zero and ends it."""
        powers, top = self._powers, min(k, 2 * self.dim + 4)
        while len(powers) <= top and self._nilpotent_at is None:
            powers.append(self._next_power(powers[-1]))
            if not powers[-1].any():
                self._nilpotent_at = len(powers) - 1

    def _next_power(self, p: np.ndarray) -> np.ndarray:
        """p U, or an exact zero when ||p U||_F <= tol: the one step of
        both power walks, so an all-zero power is the nilpotency index."""
        nxt = p @ self.u
        return np.zeros_like(nxt) if hs_norm(nxt) <= self.tol else nxt

    def _with_algebra(self, algebra: FiniteStarAlgebra) -> "IsometrySystem":
        """This system, with its cached walks and defects, over its own
        algebra; otherwise a new system of U, validated at ``algebra.tol``."""
        return (self if algebra is self.algebra
                else IsometrySystem(algebra, self.u))

    @property
    def dim(self) -> int:
        return self.algebra.ambient_dim

    @property
    def nilpotency_index(self) -> int | None:
        """Smallest k with U^k = 0 at tol (||U^k||_F <= tol), or None when
        no power up to 2n + 4 is; decided by ``_projection_walk``, so the
        power cache does not grow."""
        return self._projection_walk[0]

    @cached_property
    def _projection_walk(self) -> tuple[int | None, np.ndarray]:
        """The nilpotency index and sum_{k=1}^{K} P_k, P_k = U^{*k}U^k and
        K the index or 2n + 4, from one walk U^{k+1} = U^k U that holds one
        power at a time.  Its steps are ``_grow``'s, so each P_k is the
        product ``proj_initial(k)`` forms, the exact zero P_K at the index
        included, and the terms are summed in order of k."""
        power = self._next_power(self._powers[0])
        total, k = adjoint(power) @ power, 1
        while power.any() and k < 2 * self.dim + 4:
            power, k = self._next_power(power), k + 1
            total += adjoint(power) @ power
        return (None if power.any() else k), total

    def _power_depth(self, k_max: int) -> int:
        """The largest k <= k_max whose power U^k can be nonzero: k_max, or
        one less than the nilpotency index when that is at most k_max.
        Every later power is an exact zero, so every identity of powers
        reads 0 on it.  The cache grows to at most U^{k_max}.  MemoryError
        when a stack of the powers up to the depth is past the address
        range (U not nilpotent and k_max huge)."""
        self._grow(k_max)
        index = self._nilpotent_at
        depth = k_max if index is None else min(k_max, index - 1)
        if 16 * depth * self.dim * self.dim > np.iinfo(np.intp).max:
            raise MemoryError(f"{depth} powers of {self.dim} x {self.dim} "
                              f"complex matrices are past the address range")
        return depth

    def power_stack(self, ks) -> np.ndarray:
        """U^k for each k >= 0 in ks, as a (len(ks), n, n) stack.  A power
        past the cap, U^{qT + r} with U^T = U^{2n+4}, is U^r times U^{qT} by
        repeated squaring: O(log k) products, none kept."""
        ks = _int64_vector(ks, "power")
        if ks.size and ks.min() < 0:
            raise ValueError("negative power; use star_power")
        if ks.size:
            self._grow(int(ks.max()))
        if self._nilpotent_at is not None:
            # the last cached power is U^index = 0
            ks = np.minimum(ks, self._nilpotent_at)
        powers = self._powers
        top = len(powers) - 1
        out = np.empty((ks.size, self.dim, self.dim), dtype=complex)
        for i, k in enumerate(ks):
            if k <= top:
                out[i] = powers[k]
                continue
            q, r = divmod(int(k), top)
            out[i], square = powers[r], powers[top]
            while q:
                if q & 1:
                    out[i] = out[i] @ square
                q >>= 1
                square = square @ square if q else square
        return out

    def power(self, k: int) -> np.ndarray:
        """U^k for k >= 0."""
        return self.power_stack([k])[0]

    def star_power(self, k: int) -> np.ndarray:
        return adjoint(self.power(k))

    def power_families(self, k_max: int) -> tuple[np.ndarray, ...]:
        """U's power families up to k_max: the stacks of U^k, U^{*k}U^k and
        U^kU^{*k} for k = 0..D+1, D = ``_power_depth(k_max)``, from one
        ``power_stack`` call; the powers past D are exact zeros.  The one
        place a stack of U's projections is formed."""
        powers = self.power_stack(np.arange(self._power_depth(k_max) + 2))
        stars = adjoint(powers)
        return powers, stars @ powers, powers @ stars

    def proj_initial(self, k: int) -> np.ndarray:
        """U^{*k} U^k."""
        p = self.power(k)
        return adjoint(p) @ p

    def proj_final(self, k: int) -> np.ndarray:
        """U^k U^{*k}."""
        p = self.power(k)
        return p @ adjoint(p)

    def _conjugate(self, m, n: int, star: bool) -> np.ndarray:
        m = np.asarray(m, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"expected {self.dim}x{self.dim} matrices (the ambient dim), "
                f"got shape {m.shape}")
        if n < 0:
            name, other = (("delta_star_n", "delta_n") if star
                           else ("delta_n", "delta_star_n"))
            raise ValueError(f"{name} takes a power n >= 0, got {n}; the "
                             f"conjugation the other way is {other}(m, {-n})")
        if n == 0:
            return m
        p = self.power(n)
        return _conjugates(adjoint(p) if star else p, m)

    def delta_n(self, m: np.ndarray, n: int) -> np.ndarray:
        """U^n m U^{*n} for a matrix or each matrix of a (K, n, n) stack
        (the identity map for n = 0)."""
        return self._conjugate(m, n, star=False)

    def delta_star_n(self, m: np.ndarray, n: int) -> np.ndarray:
        """U^{*n} m U^n, likewise."""
        return self._conjugate(m, n, star=True)

    def delta(self, m: np.ndarray) -> np.ndarray:
        """U m U*, for a matrix or a stack."""
        return self.delta_n(m, 1)

    def delta_star(self, m: np.ndarray) -> np.ndarray:
        """U* m U, for a matrix or a stack."""
        return self.delta_star_n(m, 1)

    @cached_property
    def intertwining_defect(self) -> float:
        """Intertwining (i): worst ||U a - delta(a) U|| over the basis."""
        u = self.power_stack([1])
        return _intertwining_entry(self.algebra, u, adjoint(u) @ u)

    @cached_property
    def adjoint_intertwining_defect(self) -> float:
        """Worst ||U* a - delta_star(a) U*|| over the basis."""
        u = self.power_stack([1])
        return _intertwining_entry(self.algebra, adjoint(u), u @ adjoint(u))

    @cached_property
    def uu_commutator_defect(self) -> float:
        """Worst ||[U*U, a]|| over the basis."""
        return _Images(self.algebra).commutator_norm(self.proj_initial(1))

    @cached_property
    def multiplicativity_defect(self) -> float:
        """Worst ||delta(ab) - delta(a)delta(b)|| over basis pairs.

        With a frame, delta(ab) - delta(a)delta(b) = U a (1 - U*U) b U*, so
        pair (i, j) is ||(U V_i) Q_ij (U V_j)*|| / sqrt(r_i r_j) with
        Q = V*(1 - U*U)V, measured as ||S_i Q_ij S_j|| / sqrt(r_i r_j),
        S_i = |U V_i|: in O(n^3), from one solve per pair of block ranks
        (for rank-1 blocks, |Q_ij| ||U V_i|| ||U V_j||).
        """
        alg = self.algebra
        if alg.frame is None:
            basis, deltas = alg.basis, self._images(alg, False).stack
            return max(_worst_norm(self.delta(a @ basis) - da @ deltas)
                       for a, da in zip(basis, deltas))
        uv, ranks = self._images(alg, False)._factors, alg.frame.ranks
        h = adjoint(uv) @ uv
        norms = _block_norms(alg._frame_gram - h, ranks, h)
        return float((norms / np.sqrt(np.outer(ranks, ranks))).max())

    def _images(self, algebra: FiniteStarAlgebra, star: bool) -> "_Images":
        """The delta (or delta_star) images of an algebra's basis; those of
        the system's own algebra are made once."""
        if algebra is self.algebra:
            return self._own_images[star]
        return _Images(algebra, adjoint(self.u) if star else self.u)

    @cached_property
    def _own_images(self) -> tuple["_Images", "_Images"]:
        return (_Images(self.algebra, self.u),
                _Images(self.algebra, adjoint(self.u)))

    @cached_property
    def delta_invariance_defect(self) -> float:
        """Worst distance from delta(a) to the algebra over the basis."""
        return float(self._images(self.algebra, False).distances.max())

    @cached_property
    def delta_star_invariance_defect(self) -> float:
        """Likewise for delta_star(a)."""
        return float(self._images(self.algebra, True).distances.max())

    @cached_property
    def coefficient_report(self) -> ConditionReport:
        """Cached result of check_coefficient_algebra on this system."""
        return check_coefficient_algebra(self)

    @cached_property
    def gauge_candidate(self) -> GaugeGenerator:
        """The candidate generator of the gauge action (see the module
        docstring), whether or not it certifies the system: the
        eigenvectors V and the rounded eigenvalues h of
        H = -sum_{k=1}^{K} P_k, P_k = U^{*k}U^k and K the nilpotency index
        or 2n + 4, with the residual ||[H', U] - U|| and the commutation
        max ||[H', b_i]|| of H' = V diag(h) V*.

        With P_0 = 1, the absorption identity U P_k = P_{k-1} U gives

            [H, U] = sum_{k=1}^{K} (U P_k - P_k U)
                   = sum_{k=1}^{K} (P_{k-1} U - P_k U) = U - P_K U,

        a telescoping sum, with P_K U = U^{*K}U^{K+1}.  [H, U] = U makes U
        nilpotent: it sends the lam-eigenspace of H into the
        (lam + 1)-eigenspace, and H has finitely many eigenvalues.  So a
        non-nilpotent U keeps a residual ||U^{*K}U^{K+1}|| (1 for the
        cyclic shift), and a failed absorption identity or a P_k that does
        not commute with the algebra shows in the residual or the
        commutation.  The sum is ``_projection_walk``'s, accumulated in
        order of k with one power held at a time."""
        u = self.u
        vals, vecs = np.linalg.eigh(-self._projection_walk[1])
        potentials = np.rint(vals).astype(int)
        h = GaugeGenerator(vecs, potentials, 0.0, 0.0).matrix()
        return GaugeGenerator(vecs, potentials,
                              _worst_norm((h @ u - u @ h - u)[None]),
                              _Images(self.algebra).commutator_norm(h))

    @cached_property
    def gauge_generator(self) -> GaugeGenerator | None:
        """The gauge candidate when it certifies the system, its residual
        and commutation within tol; None otherwise."""
        gen = self.gauge_candidate
        certified = gen.residual <= self.tol and gen.commutation <= self.tol
        return gen if certified else None

    @cached_property
    def chains(self) -> Chains | None:
        """The chain model of a certified frame system: a frame algebra,
        a passed coefficient report and a gauge generator; None on any
        other system.  sigma sends block i to the row block j of V^-1 U V
        that holds more than r_i / 2 of the mass of its column block i,
        when one does; the chains start at the blocks outside its image.
        The premises (CHAIN_PREMISES) are ||E||_F, E = V*V - I; the
        Frobenius mass of V^-1 U V off the blocks (sigma(i), i); and the
        largest distance of the block values ||U^{*k} V_i||_F^2 / r_i of
        F_k = U^k U^{*k}, k = 1 to the nilpotency index K less one, from
        [position of block i >= k], by one product
        U^{*k} V = U* U^{*(k-1)} V a step.  sigma must be a rank-preserving
        partial injection of the blocks without a cycle; when it is not,
        ``failed`` says so and the third premise is not measured.  With
        the premises within tol, twice the error bound at
        MAX_SAMPLE_DEGREE must be within CHAIN_AGREEMENT."""
        alg, tol = self.algebra, self.tol
        if (alg.frame is None or not self.coefficient_report.passed
                or self.gauge_generator is None):
            return None
        vecs, ranks = alg.frame
        d = len(ranks)
        tilde = self._images(alg, False)._frame_coordinates
        mass = _block_sums(np.abs(tilde) ** 2, ranks)  # [j, i]: i into j
        to = np.argmax(mass, axis=0)
        onto = mass[to, np.arange(d)] > ranks / 2.0
        sigma = np.where(onto, to, -1)
        mass[to[onto], np.flatnonzero(onto)] = 0.0
        margins = (alg._frame_error, float(np.sqrt(mass.sum())))
        image = sigma[onto]
        if (np.bincount(image, minlength=d).max() > 1
                or (ranks[image] != ranks[onto]).any()):
            return Chains(np.zeros((0, 0), int), np.zeros(d, int), margins,
                          "sigma is not a rank-preserving partial injection "
                          "of the blocks")
        chains = []
        for head in sorted(set(range(d)) - set(image.tolist())):
            chains.append([head])
            while sigma[chains[-1][-1]] >= 0:
                chains[-1].append(int(sigma[chains[-1][-1]]))
        if sum(map(len, chains)) < d:
            return Chains(np.zeros((0, 0), int), np.zeros(d, int), margins,
                          "sigma has a cycle of blocks")
        length = max(map(len, chains))
        blocks = np.full((len(chains), length), -1)
        positions = np.empty(d, dtype=int)
        for c, chain in enumerate(chains):
            blocks[c, :len(chain)] = chain
            positions[chain] = np.arange(len(chain))
        starts, ustar = np.cumsum(ranks) - ranks, adjoint(self.u)
        index = self.nilpotency_index or 2 * self.dim + 4
        off, y = 0.0, vecs
        for k in range(1, index):
            y = ustar @ y
            f = np.add.reduceat(np.einsum("ij,ij->j", y.conj(), y).real,
                                starts) / ranks
            off = max(off, float(np.abs(f - (positions >= k)).max()))
        margins += (off,)
        failed = next((f"{name} = {m:.3e} exceeds tol {tol:.1e}"
                       for name, m in zip(CHAIN_PREMISES, margins)
                       if not m <= tol), None)
        model = Chains(blocks, positions, margins, failed)
        bound = 2.0 * model.error(MAX_SAMPLE_DEGREE)
        if failed is None and not bound <= CHAIN_AGREEMENT:
            model = model._replace(failed=(
                f"error bound {bound:.3e} at degree {MAX_SAMPLE_DEGREE} "
                f"exceeds {CHAIN_AGREEMENT:.1e}"))
        return model

    @cached_property
    def delta_walk(self) -> Walk:
        """The checked walk of the delta tower (``_checked_walk``).

        The hypothesis is extendability, U*U commuting with every
        delta^n(a): U*U is checked against the algebra, then against each
        stage's delta images.  Stage n-1's images contain delta^n(algebra)
        and lie in the *-algebra the orbit generates, which the commutant
        of U*U (a *-algebra) contains when the hypothesis holds; and the
        closed tower's images contain delta^n(algebra) for every n.  So
        the walk decides the hypothesis itself, at no orbit depth chosen
        in advance."""
        return _checked_walk(
            self, "extendability", "delta",
            [("U*U commutes with the algebra",
              lambda: self.uu_commutator_defect)],
            ("U*U", self.proj_initial(1)))

    @cached_property
    def delta_star_walk(self) -> Walk:
        """Its hypotheses are decided before the walk; no stage entries."""
        return _checked_walk(self, "delta_star_tower_hypotheses",
                             "delta_star", _delta_hypotheses(self))

    def __repr__(self) -> str:
        return f"IsometrySystem(algebra={self.algebra!r})"


def _worst_norm(stack: np.ndarray) -> float:
    """Largest spectral norm over a (K, n, n) stack (0 for an empty one).

    An all-zero stack, which is what the hypotheses' defect stacks are on
    the reference models, returns 0.0 with no eigensolve: the computed norm
    of a zero matrix is exactly 0.  A stack with a non-zero or non-finite
    entry is solved whole.
    """
    if not stack.any():
        return 0.0
    return float(spectral_norms(stack).max(initial=0.0))


def _commutator_norm(left: np.ndarray, right: np.ndarray) -> float:
    """Worst ||a b - b a|| over a in left and b in the stack right (0 for
    none).  ``left`` is one matrix or a stack, taken one matrix at a time, so
    that no temporary holds more than len(right) products."""
    rows = left[None] if left.ndim == 2 else left
    return max((_worst_norm(a @ right - right @ a) for a in rows), default=0.0)


def _conjugates(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x m x* for a matrix or each matrix of a stack."""
    return x @ m @ adjoint(x)


class _Images:
    """The images x b_i x* of an algebra's basis, with x = U (delta), U*
    (delta_star) or 1 (None: the basis itself), and their measures against
    a ``target`` algebra, their own by default.

    Without frames they are the (d, n, n) stack of conjugates (the basis
    for x = 1).  With a frame (V, r), image i is W_i W_i* / sqrt(r_i) with
    W = xV, and each measure takes O(n^2) per image from W: its distance
    to a target with a frame and its commutator with a Hermitian P as
    "Images in the frame" in the module docstring sets out, and no norm.
    The stack is built (``Frame.basis`` on (W, r)) only when it is asked
    for: by a stage that does not close.
    """

    def __init__(self, algebra: FiniteStarAlgebra,
                 x: np.ndarray | None = None,
                 target: FiniteStarAlgebra | None = None):
        # x, not a system: a system caches its own images
        self.algebra, self.x = algebra, x
        self.target = algebra if target is None else target

    @cached_property
    def _factors(self) -> np.ndarray:
        vecs = self.algebra.frame.vecs
        return vecs if self.x is None else self.x @ vecs

    @cached_property
    def _frame_coordinates(self) -> np.ndarray:
        """T^-1 W, the factors W = xV in the target's frame T: V^-1 U V for
        the delta images, which ``IsometrySystem.chains`` reads."""
        return self.target._frame_inverse @ self._factors

    @cached_property
    def stack(self) -> np.ndarray:
        alg = self.algebra
        if self.x is None:
            return alg.basis
        if alg.frame is None:
            return _conjugates(self.x, alg.basis)
        return Frame(self._factors, alg.frame.ranks).basis()

    @cached_property
    def distances(self) -> np.ndarray:
        """The Frobenius distance of each image to the target."""
        alg, target = self.algebra, self.target
        if alg.frame is None or target.frame is None:
            return target.span_defects(self.stack)
        return _block_scalar_distances(self._frame_coordinates,
                                       target.frame.ranks, alg.frame.ranks)

    @cached_property
    def closed(self) -> bool:
        """Whether every image lies in the target within tol: the
        membership rule at scale 1 (see "Images in the frame")."""
        return bool(self.target._within(self.distances, 1.0).all())

    def commutator_norm(self, p: np.ndarray) -> float:
        """Worst ||[p, image]|| over the images and a Hermitian p, or each
        matrix of a stack p."""
        alg = self.algebra
        if alg.frame is None:
            return _commutator_norm(p, self.stack)
        return float(_per_block(_commutator_norms, p @ self._factors,
                                self._factors,
                                alg.frame.ranks).max(initial=0.0))


def _intertwining_entry(alg: FiniteStarAlgebra, powers: np.ndarray,
                        projs: np.ndarray) -> float:
    """Worst ||X a - X a X* X|| = ||X a (1 - X*X)|| over the basis and each
    X of ``powers`` (U^k, or U^{*k} for the delta_star form), given the
    X*X as ``projs``; with a frame ||(X V_i)((1 - X*X) V_i)*|| / sqrt(r_i)
    (``_outer_norms``), from the products X V and X*X V."""
    if alg.frame is None:
        basis = alg.basis
        return max((_worst_norm(x @ basis - _conjugates(x, basis) @ x)
                    for x in powers), default=0.0)
    v, ranks = alg.frame
    return float(_per_block(_outer_norms, powers @ v, v - projs @ v,
                            ranks).max(initial=0.0))


def _delta_hypotheses(sys: IsometrySystem) -> list:
    """The hypotheses of the delta_star tower and of the power identities,
    as (label, measure) entries: intertwining (i) and delta mapping the
    algebra into itself."""
    return [("intertwining relation", lambda: sys.intertwining_defect),
            ("delta maps algebra into itself",
             lambda: sys.delta_invariance_defect)]


def _absorption_defect(p: np.ndarray) -> float:
    """Worst defect of U* U^k U^{*l} = U^{k-1} U^{*l} and
    U U^{*k} U^l = U^{*(k-1)} U^l over 1 <= k <= l <= K, from the stack
    p of the powers U^0, ..., U^K."""
    s = adjoint(p)
    return max((max(_worst_norm(s[1] @ p[1:l + 1] @ s[l] - p[:l] @ s[l]),
                    _worst_norm(p[1] @ s[1:l + 1] @ p[l] - s[:l] @ p[l]))
                for l in range(1, len(p))), default=0.0)


# ---------------------------------------------------------------------------
# condition checkers
# ---------------------------------------------------------------------------

def check_intertwining_equivalents(sys: IsometrySystem) -> ConditionReport:
    """Check the three equivalent forms of the intertwining relation.

    (i)   U a = delta(a) U for every basis element a;
    (ii)  U is a partial isometry and U*U commutes with the algebra;
    (iii) U*U commutes with the algebra and delta is multiplicative on
          basis pairs.

    The three are equivalent in exact arithmetic, so a disagreement among
    them flags a numerical fault and is noted on the report.  Each entry is
    a value the system caches.
    """
    tol = sys.tol
    rep = ConditionReport("intertwining_equivalents")
    d_i, d_comm = sys.intertwining_defect, sys.uu_commutator_defect
    d_pi = max(d.value for d in sys.partial_isometry.defects)
    d_mult = sys.multiplicativity_defect
    rep.add("(i) Ua = delta(a)U on basis", d_i, tol)
    rep.add("(ii) U is a partial isometry", d_pi, tol)
    rep.add("(ii)/(iii) U*U commutes with algebra", d_comm, tol)
    rep.add("(iii) delta multiplicative on basis pairs", d_mult, tol)

    verdicts = [d_i <= tol,
                d_pi <= tol and d_comm <= tol,
                d_comm <= tol and d_mult <= tol]
    if len(set(verdicts)) > 1:
        rep.note("equivalent conditions disagree; suspect a numerical fault")
    return rep


def check_coefficient_algebra(sys: IsometrySystem) -> ConditionReport:
    """Check that the algebra is a coefficient algebra for (algebra, U):
    the intertwining relation holds and both delta and delta_star map the
    algebra into itself.
    """
    rep = ConditionReport("coefficient_algebra")
    rep.merge(check_intertwining_equivalents(sys))
    rep.add("delta maps algebra into itself", sys.delta_invariance_defect,
            sys.tol)
    rep.add("delta_star maps algebra into itself",
            sys.delta_star_invariance_defect, sys.tol)
    return rep


def _checked_walk(sys: IsometrySystem, name: str, image: str,
                  hypotheses: list, left: tuple | None = None) -> Walk:
    """The tower of the map ``image`` ("delta" or "delta_star") over the
    algebra, and the report ``name`` of its hypothesis.  The entries are
    the (label, measure) ``hypotheses``, then, at each stage, the
    commutator norm of the (label, matrix) ``left`` against the stage's
    images.  Each is measured when the walk reaches it; the first that
    fails ends the report and the walk, with tower None.  The walk stops
    when every image lies in the stage by its membership rule
    (``FiniteStarAlgebra.membership``), and otherwise closes the stage with
    them; the report notes the closed tower's dimension.  A stage with a
    frame measures its images in it (``_Images``)."""
    tol = sys.tol
    rep = ConditionReport(name)
    for label, measure in hypotheses:
        if not rep.add(label, measure(), tol).ok:
            return rep, None
    cur = sys.algebra
    for stage in range(_chain_cap(sys.dim)):
        images = sys._images(cur, image == "delta_star")
        if left is not None and not rep.add(
                f"{left[0]} commutes with {image}(tower stage {stage})",
                images.commutator_norm(left[1]), tol).ok:
            return rep, None
        if images.closed:
            break
        cur = generate_closure(np.concatenate([cur.basis, images.stack]),
                               tol, dim=sys.dim)
    rep.note(f"the {image} tower closes at dimension {cur.dim}")
    return rep, cur


def check_extendability(sys: IsometrySystem) -> ConditionReport:
    """Check that U*U commutes with every iterated image delta^n(a).

    This is the obstruction for extending the algebra to one satisfying the
    intertwining relation with delta mapping it into itself.  It is decided
    on the system's walk of the delta tower (``IsometrySystem.delta_walk``),
    whose report this is: a failure's last entry names the stage, and a
    pass notes the dimension of the closed tower.
    """
    return sys.delta_walk[0]


def check_commutative_extendability(sys: IsometrySystem) -> ConditionReport:
    """Check the conditions for a commutative coefficient extension: the
    algebra is commutative, and it and U*U commute with all delta^n images
    of itself.  Given extendability, the second holds exactly when the
    closed delta tower is commutative (see the module docstring), so the
    report reads the system's delta walk and makes none."""
    rep = ConditionReport("commutative_extendability")
    if rep.add("algebra commutative", sys.algebra.commutator_defect,
               sys.tol).ok:
        walk_rep, tower = sys.delta_walk
        rep.merge(walk_rep)
        if tower is not None:
            rep.add("delta tower commutative", tower.commutator_defect,
                    sys.tol)
    return rep


def _built(walk: Walk, what: str) -> FiniteStarAlgebra:
    """The tower of a checked walk, or HypothesisViolated(what, report)."""
    rep, tower = walk
    if tower is None:
        raise HypothesisViolated(what, rep)
    return tower


def extend_delta(sys: IsometrySystem) -> FiniteStarAlgebra:
    """Smallest *-algebra containing the algebra and all its delta^n images.

    Requires extendability: U*U commutes with every delta^n(a) (otherwise
    the result need not intertwine with U).  The system's delta walk checks
    it; a failure raises HypothesisViolated carrying the walk's report.
    """
    return _built(sys.delta_walk, "extendability fails; delta tower unsound")


def extend_delta_star(sys: IsometrySystem) -> FiniteStarAlgebra:
    """Smallest *-algebra containing the algebra and all delta_star^n images.

    Requires the intertwining relation and delta mapping the algebra into
    itself; raises HypothesisViolated carrying the walk's report.
    """
    return _built(sys.delta_star_walk,
                  "intertwining or delta-invariance fails; "
                  "delta_star tower unsound")


def build_towers(sys: IsometrySystem
                 ) -> tuple[FiniteStarAlgebra, FiniteStarAlgebra]:
    """Extend the algebra by delta, then the result by delta_star.

    Returns (delta tower, full tower); the full tower is the coefficient
    algebra the models are built over.
    """
    ext = extend_delta(sys)
    return ext, extend_delta_star(sys._with_algebra(ext))


def verify_power_identities(sys: IsometrySystem,
                            k_max: int) -> ConditionReport:
    """Verify the power structure of a coefficient system up to k_max:

    - U^k a = delta^k(a) U^k on the basis;
    - U^{*k} U^k commutes with the algebra;
    - both projection families U^{*k}U^k and U^kU^{*k} consist of pairwise
      commuting, decreasing projections;
    - the two families commute with each other;
    - the absorption identities U* U^k U^{*l} = U^{k-1} U^{*l} and
      U U^{*k} U^l = U^{*(k-1)} U^l for 1 <= k <= l.

    Both hypotheses (intertwining + delta-invariance) are recorded as the
    first entries.  Each entry is measured for k only up to D =
    ``_power_depth``: past it every power is an exact zero, and so is
    every entry's value.  The stacks of U^k, U^{*k}U^k and U^kU^{*k},
    k <= D + 1, come from ``power_families``; entries read slices of them.
    """
    tol = sys.tol
    rep = ConditionReport("power_structure")
    for label, measure in _delta_hypotheses(sys):
        rep.add("hypothesis: " + label, measure(), tol)

    powers, initial, final = sys.power_families(k_max)
    rep.add(f"U^k a = delta^k(a) U^k, k <= {k_max}",
            _intertwining_entry(sys.algebra, powers[1:-1], initial[1:-1]), tol)
    rep.add(f"U^{{*k}}U^k commutes with algebra, k <= {k_max}",
            _Images(sys.algebra).commutator_norm(initial[1:-1]), tol)

    for label, stack in (("U^{*k}U^k", initial), ("U^kU^{*k}", final)):
        p, nxt = stack[1:-1], stack[2:]
        d_proj = max(_worst_norm(p @ p - p), _worst_norm(p - adjoint(p)))
        d_dec = _worst_norm(p @ nxt - nxt)
        d_pair = _commutator_norm(p, p)
        rep.add(f"{label} are projections, k <= {k_max}", d_proj, tol)
        rep.add(f"{label} pairwise commute", d_pair, tol)
        rep.add(f"{label} decreasing", d_dec, tol)

    rep.add("[U^{*k}U^k, U^lU^{*l}] = 0",
            _commutator_norm(initial[:-1], final[:-1]), tol)
    rep.add(f"absorption identities, 1 <= k <= l <= {k_max}",
            _absorption_defect(powers[:-1]), tol)
    return rep


def check_extension_towers(sys: IsometrySystem) -> ConditionReport:
    """Verify that the two extension towers agree:

    extending by delta then delta_star yields the same span as extending by
    delta_star then delta, the result is commutative, and both maps send it
    into itself.

    The towers are four cached walks: the delta tower, read with the
    report of ``check_commutative_extendability``, the delta_star tower
    over it, the delta_star tower, and the delta tower over that.  When a
    walk's hypothesis fails, the report holds that walk's entries and notes
    prefixed "hypothesis: ", the failing entry last, and a note naming the
    walk.

    "towers have equal spans" is the largest distance of each tower's
    basis to the other tower, the x = 1 case of ``_Images``.  On two frame
    towers it is taken in the target's frame, within the factor
    1 +- ||E|| of the ambient distance, E = V*V - I of that frame.
    Otherwise it is ``span_defects``, as every membership test measures:
    the measuring basis's "basis orthonormal" invariant bounds its Gram
    error G - I, and each distance is off by at most ||G - I|| to first
    order (||b||_F = 1 for every basis member b).
    """
    tol = sys.tol
    rep = ConditionReport("extension_towers")
    towers: list[FiniteStarAlgebra] = []
    comm = check_commutative_extendability(sys)
    for walk in (lambda: (comm, sys.delta_walk[1] if comm.passed else None),
                 lambda: sys._with_algebra(towers[0]).delta_star_walk,
                 lambda: sys.delta_star_walk,
                 lambda: sys._with_algebra(towers[2]).delta_walk):
        walk_rep, tower = walk()
        if tower is None:
            rep.merge(walk_rep, prefix="hypothesis")
            rep.note(f"hypothesis failed: {walk_rep.name}; no towers built")
            return rep
        towers.append(tower)
    tower_a, tower_b = towers[1], towers[3]

    defect = max(_Images(tower_b, target=tower_a).distances.max(),
                 _Images(tower_a, target=tower_b).distances.max())
    rep.add("towers have equal spans", float(defect), tol)

    rep.add("tower is commutative", tower_a.commutator_defect, tol)

    sys_t = sys._with_algebra(tower_a)
    rep.add("delta an endomorphism of the tower",
            sys_t.delta_invariance_defect, tol)
    rep.add("delta_star an endomorphism of the tower",
            sys_t.delta_star_invariance_defect, tol)
    rep.note(f"tower dimensions: start {sys.algebra.dim}, delta-first "
             f"{tower_a.dim}, delta_star-first {tower_b.dim}")
    return rep
