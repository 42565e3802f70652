"""Finite-dimensional *-algebra machinery.

A *-subalgebra of the ambient matrix algebra is stored as one (d, n, n)
stack of Hilbert-Schmidt orthonormal basis matrices, which turns span
membership, commutants and generated closures into ordinary linear algebra.

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
  basis is ``P_i / sqrt(rank P_i)``.  The result certifies itself
  or is discarded: every generator must lie in the span within
  ``tol * max(1, ||g||_F)``, and no gap may fall in the ambiguous band
  ``(tol, 10 tol] * max(1, |lam|max)``.
- **Gram-Schmidt.**  Every other generator set (not normal, not commuting,
  or ambiguous) adjoins adjoints and pairwise products, round after round,
  with a two-pass Hilbert-Schmidt Gram-Schmidt.  This is the only path for
  non-commutative systems and the only place ``ToleranceCollapse`` is
  raised.

On top of that sit the condition checkers for a pair (algebra, partial
isometry U) and the extension builders that enlarge an initial algebra until
the maps

    delta(x) = U x U*,        delta_star(x) = U* x U

send it into itself.  Both maps act on stacks, so a checker measures its
identity over the whole basis in one batched call; identities over pairs
(of basis elements, or of powers k <= k_max) take one call per row, so that
no temporary holds all the pairs at once.  The delta^n orbit of a basis is
streamed: a scan over it holds the current and the previous stack only.
An extension tower is built in one walk: each stage's images are computed
once, for the hypothesis check, the fixed-point test and the next closure.
"""

from __future__ import annotations

import copy
import random
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    NotCommutative,
    NotPartialIsometry,
    ToleranceCollapse,
)
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    as_matrix,
    hs_norm,
    is_partial_isometry,
    spectral_norms,
)
from .report import ConditionReport


def _chain_cap(n: int) -> int:
    # longest strictly increasing chain of subspaces of the n*n matrices,
    # plus slack; guards stabilization loops against tolerance oscillation
    return n * n + 2


def _orth_insert(flat: list[np.ndarray], cand: np.ndarray, tol: float):
    """Try to extend an orthonormal flat basis by one candidate.

    Returns the new unit vector, or None when the candidate lies in the span.
    Raises ToleranceCollapse for residual norms in the ambiguous band
    (tol, 10*tol) after normalizing the candidate.
    """
    norm = np.linalg.norm(cand)
    if norm <= tol:
        return None
    v = cand / norm
    # two Gram-Schmidt passes for orthogonality at machine precision
    for _ in range(2):
        for b in flat:
            v = v - np.vdot(b, v) * b
    r = np.linalg.norm(v)
    if r <= tol:
        return None
    if r < 10.0 * tol:
        raise ToleranceCollapse(
            f"Gram-Schmidt residual {r:.3e} in ambiguous band "
            f"({tol:.1e}, {10 * tol:.1e}); generator set is ill-conditioned")
    return v / r


def _svd_span(mats) -> np.ndarray:
    """Orthonormal flat basis of the span of a (K, n, n) stack, for
    comparisons (no band semantics)."""
    stack = np.asarray(mats)
    _, s, vh = np.linalg.svd(stack.reshape(len(stack), -1), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    rank = int(np.sum(s > 1e-12 * s[0]))
    return vh[:rank]


def _span_defects(flat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Frobenius distance from each matrix of a (K, n, n) stack to the span
    of an orthonormal flat basis."""
    v = stack.reshape(stack.shape[0], flat.shape[1])
    if flat.shape[0]:
        v = v - (v @ flat.conj().T) @ flat
    return np.linalg.norm(v, axis=1)


def spans_equal(a, b, tol: float) -> tuple[bool, float]:
    """Mutual containment of the spans of two (K, n, n) stacks; returns
    (equal, worst defect)."""
    a, b = np.asarray(a), np.asarray(b)
    return _spans_equal(a, _svd_span(a), b, _svd_span(b), tol)


def _spans_equal(a: np.ndarray, fa: np.ndarray, b: np.ndarray,
                 fb: np.ndarray, tol: float) -> tuple[bool, float]:
    """spans_equal of two stacks given their ``_svd_span`` bases."""
    worst = 0.0
    for flat, stack in ((fa, b), (fb, a)):
        scale = np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
        worst = max(worst, float((_span_defects(flat, stack) / scale).max()))
    return worst <= tol, worst


class FiniteStarAlgebra:
    """A unital *-subalgebra of the n x n matrices.

    ``basis`` is one (d, n, n) stack, Hilbert-Schmidt orthonormal, closed
    under adjoints and products within ``tol``, and spans the identity.
    """

    def __init__(self, basis, tol: float = DEFAULT_TOL):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 3 or not len(basis) or basis.shape[1] != basis.shape[2]:
            raise DimensionMismatch(
                f"expected a nonempty (d, n, n) stack, got shape {basis.shape}")
        self.basis = basis
        self.ambient_dim = basis.shape[1]
        self.tol = float(tol)
        self._flat = basis.reshape(len(basis), -1)
        rep = self.invariant_report()
        if not rep.passed:
            raise ValueError(f"invalid *-algebra basis:\n{rep}")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def project(self, m: np.ndarray) -> np.ndarray:
        """HS projection onto the span of a matrix, or of each matrix of a
        (K, n, n) stack."""
        m = np.asarray(m)
        flat = m.reshape(m.shape[:-2] + self._flat.shape[1:])
        return ((flat @ self._flat.conj().T) @ self._flat).reshape(m.shape)

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

    def contains(self, m: np.ndarray) -> tuple[bool, float]:
        """Membership test; defect is the Frobenius distance to the span."""
        m = as_matrix(m)
        defect = float(self.span_defects(m[None])[0])
        return defect <= self.tol * max(1.0, hs_norm(m)), defect

    def invariant_report(self) -> ConditionReport:
        rep = ConditionReport("star_algebra_invariants")
        gram = self._flat.conj() @ self._flat.T
        rep.add("basis orthonormal", float(np.abs(gram - np.eye(self.dim)).max()),
                10.0 * self.tol)
        n = self.ambient_dim
        rep.add("identity in span",
                float(_span_defects(self._flat, np.eye(n, dtype=complex)[None])[0]),
                self.tol * n)
        basis = self.basis
        adj = _span_defects(self._flat, basis.conj().transpose(0, 2, 1)).max()
        rep.add("closed under adjoint", float(adj), self.tol)
        prod = max(float(_span_defects(self._flat, bi @ basis).max())
                   for bi in basis)
        rep.add("closed under product", prod, self.tol)
        return rep

    def __repr__(self) -> str:
        return (f"FiniteStarAlgebra(dim={self.dim}, "
                f"ambient={self.ambient_dim}, tol={self.tol:g})")


# Seed of the random combination of the spectral closure path.  Fixed, so
# that a closure, and every report built on it, is the same on every call.
_SPECTRAL_SEED = 20100127


def _spectral_closure(gens: list[np.ndarray], n: int, tol: float,
                      rejected: list[str] | None = None) -> np.ndarray | None:
    """Basis P_i / sqrt(rank P_i) of the minimal projections of the closure
    of commuting normal generators, or None when the generators do not
    certify it (see the module docstring).  A rejection for a gap in the
    ambiguous band is described in ``rejected``, when given.

    The Hermitian combination is accumulated, and membership is tested, one
    generator at a time, so no copy of the generator stack is made.
    """
    # The stdlib generator is portable and, unlike numpy.random, costs no
    # import at model build.
    draw = random.Random(_SPECTRAL_SEED).uniform
    h = np.zeros((n, n), dtype=complex)
    weights = []  # coefficients of the parts that enter H above tol
    for g in gens:
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
        if rejected is not None:
            i = int(np.argmax(in_band))
            rejected.append(
                f"the spectral path rejected eigenvalue gap {gaps[i]:.3e} "
                f"(index {i}, {lam[i]:.3e} to {lam[i + 1]:.3e}) in its "
                f"ambiguous band ({tol * scale:.1e}, {10 * tol * scale:.1e}]; "
                f"gaps in the band: {int(in_band.sum())}")
        return None
    starts = np.concatenate([[0], np.flatnonzero(gaps > tol * scale) + 1])
    ranks = np.diff(starts, append=n)
    vecs_h = adjoint(vecs)
    diag = np.diag_indices(n)
    for g in gens:
        # distance from g to span{P_i}: in the eigenbasis, everything off the
        # diagonal blocks plus each block's deviation from its mean scalar
        r = vecs_h @ g @ vecs
        means = np.add.reduceat(r[diag], starts) / ranks
        r[diag] -= np.repeat(means, ranks)
        if np.linalg.norm(r) > tol * max(1.0, hs_norm(g)):
            return None
    basis = np.empty((len(starts), n, n), dtype=complex)
    for p, start, rank in zip(basis, starts, ranks):
        v = vecs[:, start:start + rank]
        np.matmul(v, adjoint(v) / np.sqrt(rank), out=p)
    return basis


def _gram_schmidt_closure(gens: list[np.ndarray], n: int,
                          tol: float) -> np.ndarray:
    """Flat orthonormal basis of the closure by Hilbert-Schmidt
    Gram-Schmidt over adjoints and pairwise products, until the dimension
    stabilizes."""
    flat: list[np.ndarray] = []
    eye = np.eye(n, dtype=complex)
    for cand in [eye] + gens:
        v = _orth_insert(flat, cand.ravel(), tol)
        if v is not None:
            flat.append(v)

    cap = _chain_cap(n)
    for _ in range(cap):
        grew = False
        mats = [v.reshape(n, n) for v in flat]
        candidates = [adjoint(m) for m in mats]
        for mi in mats:
            for mj in mats:
                candidates.append(mi @ mj)
        for cand in candidates:
            v = _orth_insert(flat, cand.ravel(), tol)
            if v is not None:
                flat.append(v)
                grew = True
        if not grew:
            break
    return np.reshape(flat, (-1, n, n))


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
    ``(tol, 10 tol] * max(1, |lam|max)``.  Every other set falls back to
    Gram-Schmidt over adjoints and pairwise products, which raises
    ToleranceCollapse for a residual in its own ambiguous band; when the
    spectral path was rejected for a gap in its band, the error also names
    that gap, its index and the band.  Either
    basis goes through the FiniteStarAlgebra constructor, which validates
    it.  ``dim`` is required when ``gens`` is empty.
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

    rejected: list[str] = []
    basis = _spectral_closure(gens, n, tol, rejected)
    if basis is None:
        try:
            basis = _gram_schmidt_closure(gens, n, tol)
        except ToleranceCollapse as exc:
            if not rejected:
                raise
            raise ToleranceCollapse(f"{exc}; {rejected[0]}") from exc
    return FiniteStarAlgebra(basis, tol=tol)


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


def bicommutant(alg: FiniteStarAlgebra) -> FiniteStarAlgebra:
    """Commutant of the commutant (the von Neumann algebra generated)."""
    return commutant(commutant(alg.basis, alg.tol).basis, alg.tol)


class IsometrySystem:
    """A *-algebra together with a partial isometry acting on the same space.

    Powers of U and the projections U^{*k} U^k, U^k U^{*k} are cached eagerly
    as stacks up to ``depth`` (further powers are computed on demand without
    mutating the cache); the ``*_stack`` methods return many at once.  The
    instance is immutable after construction.
    """

    def __init__(self, algebra: FiniteStarAlgebra, u: np.ndarray,
                 depth: int | None = None):
        self.algebra = algebra
        self.u = as_matrix(u)
        if self.u.shape[0] != algebra.ambient_dim:
            raise DimensionMismatch(
                f"U dim {self.u.shape[0]} != ambient dim {algebra.ambient_dim}")
        self.tol = algebra.tol
        rep = is_partial_isometry(self.u, self.tol)
        if not rep.passed:
            raise NotPartialIsometry("U is not a partial isometry", rep)

        if depth is None:
            depth = 2 * algebra.ambient_dim + 4
        n = algebra.ambient_dim
        powers = [np.eye(n, dtype=complex)]
        for _ in range(depth):
            nxt = powers[-1] @ self.u
            powers.append(nxt)
            if not nxt.any():
                break
        self._powers = np.array(powers)
        self._nilpotent_at = len(powers) - 1 if not powers[-1].any() else None
        star = self._powers.conj().transpose(0, 2, 1)
        self._proj_initial = star @ self._powers
        self._proj_final = self._powers @ star

    def _with_algebra(self, algebra: FiniteStarAlgebra) -> "IsometrySystem":
        """The system of the same U over another algebra on the same space.

        U was validated at this system's tolerance, so when the algebra's is
        no tighter the new system shares U's power and projection stacks
        instead of re-validating and rebuilding them.
        """
        if algebra.ambient_dim != self.dim or algebra.tol < self.tol:
            return IsometrySystem(algebra, self.u)
        derived = copy.copy(self)
        derived.algebra, derived.tol = algebra, algebra.tol
        # cached properties were computed over this system's algebra
        for name, attr in vars(IsometrySystem).items():
            if isinstance(attr, cached_property):
                vars(derived).pop(name, None)
        return derived

    @property
    def dim(self) -> int:
        return self.algebra.ambient_dim

    @property
    def nilpotency_index(self) -> int | None:
        """Smallest k with U^k = 0, or None when U is not nilpotent."""
        return self._nilpotent_at

    def power_stack(self, ks) -> np.ndarray:
        """U^k for each k >= 0 in ks, as a (len(ks), n, n) stack."""
        ks = np.asarray(ks, dtype=int)
        if ks.size and ks.min() < 0:
            raise ValueError("negative power; use star_power")
        if self._nilpotent_at is not None:
            # the last cached power is U^index = 0
            ks = np.minimum(ks, self._nilpotent_at)
        powers = self._powers
        missing = int(ks.max(initial=0)) - (len(powers) - 1)
        if missing > 0:
            more = [powers[-1]]
            for _ in range(missing):
                more.append(more[-1] @ self.u)
            powers = np.concatenate([powers, more[1:]])
        return powers[ks]

    def power(self, k: int) -> np.ndarray:
        """U^k for k >= 0."""
        return self.power_stack([k])[0]

    def star_power(self, k: int) -> np.ndarray:
        return adjoint(self.power(k))

    def _proj_stack(self, ks, initial: bool) -> np.ndarray:
        """U^{*k} U^k (initial) or U^k U^{*k} for each k >= 0 in ks."""
        ks = np.asarray(ks, dtype=int)
        cache = self._proj_initial if initial else self._proj_final
        if ks.size == 0 or (ks.min() >= 0 and ks.max() < len(cache)):
            return cache[ks]
        p = self.power_stack(ks)
        star = p.conj().transpose(0, 2, 1)
        return star @ p if initial else p @ star

    def proj_initial_stack(self, ks) -> np.ndarray:
        """U^{*k} U^k for each k >= 0 in ks, as a (len(ks), n, n) stack."""
        return self._proj_stack(ks, initial=True)

    def proj_final_stack(self, ks) -> np.ndarray:
        """U^k U^{*k} for each k >= 0 in ks, as a (len(ks), n, n) stack."""
        return self._proj_stack(ks, initial=False)

    def proj_initial(self, k: int) -> np.ndarray:
        """U^{*k} U^k."""
        return self.proj_initial_stack([k])[0]

    def proj_final(self, k: int) -> np.ndarray:
        """U^k U^{*k}."""
        return self.proj_final_stack([k])[0]

    def _conjugate(self, m, n: int, star: bool) -> np.ndarray:
        m = np.asarray(m, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"expected {self.dim}x{self.dim} matrices (the ambient dim), "
                f"got shape {m.shape}")
        if n == 0:
            return m
        p = self.power(n)
        return adjoint(p) @ m @ p if star else p @ m @ adjoint(p)

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
    def coefficient_report(self) -> ConditionReport:
        """Cached result of check_coefficient_algebra on this system."""
        return check_coefficient_algebra(self)

    def __repr__(self) -> str:
        return f"IsometrySystem(algebra={self.algebra!r})"


def _worst_norm(stack: np.ndarray) -> float:
    """Largest spectral norm over a stack of matrices (0 for an empty one)."""
    return float(spectral_norms(stack).max(initial=0.0))


def _commutator_norm(left: np.ndarray, right: np.ndarray) -> float:
    """Worst ||a b - b a|| over a in left and b in the stack right (0 for
    none).  ``left`` is one matrix or a stack, taken one matrix at a time, so
    that no temporary holds more than len(right) products."""
    rows = left[None] if left.ndim == 2 else left
    return max((_worst_norm(a @ right - right @ a) for a in rows), default=0.0)


def _commutator_defect(basis: np.ndarray) -> float:
    """Worst commutator norm over distinct basis pairs."""
    return max((_commutator_norm(a, basis[i + 1:])
                for i, a in enumerate(basis)), default=0.0)


def _delta_orbit(sys: IsometrySystem, n_max: int):
    """Yield the stacks delta^n(basis) for n = 0, ..., n_max (none if
    n_max < 0), each the delta image of the one before; only the stack
    last yielded is kept."""
    images = sys.algebra.basis
    for n in range(n_max + 1):
        yield images
        if n < n_max:
            images = sys.delta(images)


def _orbit_scan(sys: IsometrySystem, n_max: int, tol: float,
                lefts: list[np.ndarray]) -> tuple[list[float], int | None]:
    """One pass over the delta^n orbit, n <= n_max, holding the current and
    the previous stack only.

    Returns the worst commutator of each stack in ``lefts`` with the orbit
    (``_commutator_norm``), and the first n >= 1 at which the spans of
    delta^(n-1)(basis) and delta^n(basis) agree (None if none does).
    """
    worst = [0.0] * len(lefts)
    stabilized_at, prev = None, None
    for n, images in enumerate(_delta_orbit(sys, n_max)):
        worst = [max(w, _commutator_norm(left, images))
                 for w, left in zip(worst, lefts)]
        if stabilized_at is None:
            # each stack's span basis is computed once, for both its pairs
            cur = (images, _svd_span(images))
            if prev is not None and _spans_equal(*prev, *cur, tol)[0]:
                stabilized_at = n
            prev = cur
    return worst, stabilized_at


def _multiplicativity_defect(sys: IsometrySystem) -> float:
    """Worst ||delta(ab) - delta(a)delta(b)|| over basis pairs."""
    basis = sys.algebra.basis
    deltas = sys.delta(basis)
    return max(_worst_norm(sys.delta(a @ basis) - da @ deltas)
               for a, da in zip(basis, deltas))


def _invariance_defect(sys: IsometrySystem, image) -> float:
    """Worst distance from image(a) to the algebra over the basis; ``image``
    is ``sys.delta`` or ``sys.delta_star``."""
    return float(sys.algebra.span_defects(image(sys.algebra.basis)).max())


def _intertwining_defect(sys: IsometrySystem) -> float:
    """Intertwining (i): worst ||U a - delta(a) U|| over the basis."""
    basis = sys.algebra.basis
    return _worst_norm(sys.u @ basis - sys.delta(basis) @ sys.u)


def _add_delta_hypotheses(rep: ConditionReport, sys: IsometrySystem,
                          tol: float, prefix: str = "") -> None:
    """Record the hypotheses of the delta_star tower and of the power
    identities: intertwining (i) and delta mapping the algebra into itself."""
    rep.add(prefix + "intertwining relation", _intertwining_defect(sys), tol)
    rep.add(prefix + "delta maps algebra into itself",
            _invariance_defect(sys, sys.delta), tol)


def _projection_families_defect(sys: IsometrySystem, k_max: int) -> float:
    """Worst commutator [U^{*k}U^k, U^lU^{*l}] over 0 <= k, l <= k_max."""
    ks = np.arange(k_max + 1)
    return _commutator_norm(sys.proj_initial_stack(ks), sys.proj_final_stack(ks))


def _absorption_defect(sys: IsometrySystem, k_max: int) -> float:
    """Worst defect of U* U^k U^{*l} = U^{k-1} U^{*l} and
    U U^{*k} U^l = U^{*(k-1)} U^l over 1 <= k <= l <= k_max."""
    p = sys.power_stack(np.arange(k_max + 1))
    s = p.conj().transpose(0, 2, 1)
    u, ustar = sys.u, adjoint(sys.u)
    return max((max(_worst_norm(ustar @ p[1:l + 1] @ s[l] - p[:l] @ s[l]),
                    _worst_norm(u @ s[1:l + 1] @ p[l] - s[:l] @ p[l]))
                for l in range(1, k_max + 1)), default=0.0)


# ---------------------------------------------------------------------------
# condition checkers
# ---------------------------------------------------------------------------

def check_intertwining_equivalents(sys: IsometrySystem,
                                   tol: float | None = None) -> ConditionReport:
    """Check the three equivalent forms of the intertwining relation.

    (i)   U a = delta(a) U for every basis element a;
    (ii)  U is a partial isometry and U*U commutes with the algebra;
    (iii) U*U commutes with the algebra and delta is multiplicative on
          basis pairs.

    The three are equivalent in exact arithmetic, so a disagreement among
    them flags a numerical fault and is noted on the report.
    """
    tol = sys.tol if tol is None else tol
    rep = ConditionReport("intertwining_equivalents")
    u, ustar = sys.u, adjoint(sys.u)
    basis = sys.algebra.basis

    d_i = _intertwining_defect(sys)
    rep.add("(i) Ua = delta(a)U on basis", d_i, tol)

    pi = is_partial_isometry(u, tol)
    d_pi = max(d.value for d in pi.defects)
    rep.add("(ii) U is a partial isometry", d_pi, tol)
    d_comm = _commutator_norm(ustar @ u, basis)
    rep.add("(ii)/(iii) U*U commutes with algebra", d_comm, tol)

    d_mult = _multiplicativity_defect(sys)
    rep.add("(iii) delta multiplicative on basis pairs", d_mult, tol)

    verdicts = [d_i <= tol,
                d_pi <= tol and d_comm <= tol,
                d_comm <= tol and d_mult <= tol]
    if len(set(verdicts)) > 1:
        rep.note("equivalent conditions disagree; suspect a numerical fault")
    return rep


def check_coefficient_algebra(sys: IsometrySystem,
                              tol: float | None = None) -> ConditionReport:
    """Check that the algebra is a coefficient algebra for (algebra, U):
    the intertwining relation holds and both delta and delta_star map the
    algebra into itself.
    """
    tol = sys.tol if tol is None else tol
    rep = ConditionReport("coefficient_algebra")
    rep.merge(check_intertwining_equivalents(sys, tol))
    rep.add("delta maps algebra into itself",
            _invariance_defect(sys, sys.delta), tol)
    rep.add("delta_star maps algebra into itself",
            _invariance_defect(sys, sys.delta_star), tol)
    return rep


def check_extendability(sys: IsometrySystem, n_max: int,
                        tol: float | None = None) -> ConditionReport:
    """Check that U*U commutes with every iterated image delta^n(a).

    This is the obstruction for extending the algebra to one satisfying the
    intertwining relation with delta mapping it into itself.  The span chain
    delta^n(basis) stabilizes in finite dimension; the first index where two
    consecutive spans agree is reported as a note.
    """
    tol = sys.tol if tol is None else tol
    (worst,), stabilized_at = _orbit_scan(sys, n_max, tol,
                                          [sys.proj_initial(1)])
    return _extendability(worst, stabilized_at, n_max, tol)


def _extendability(worst: float, stabilized_at: int | None, n_max: int,
                   tol: float) -> ConditionReport:
    """The report of check_extendability from its scan of the orbit."""
    rep = ConditionReport("extendability")
    rep.add(f"U*U commutes with delta^n(basis), n <= {n_max}", worst, tol)
    if stabilized_at is not None:
        rep.note(f"delta^n span stabilizes at n = {stabilized_at}")
    else:
        rep.note(f"delta^n span did not stabilize within n <= {n_max}")
    return rep


def check_commutative_extendability(sys: IsometrySystem, n_max: int,
                                    tol: float | None = None) -> ConditionReport:
    """Check the two conditions for a commutative coefficient extension:
    the algebra commutes with all delta^n images of itself, and U*U does too.

    Raises NotCommutative when the algebra itself is not commutative.
    """
    tol = sys.tol if tol is None else tol
    basis = sys.algebra.basis
    d_comm = _commutator_defect(basis)
    if d_comm > tol:
        exc = NotCommutative(
            f"algebra has commutator defect {d_comm:.3e} > {tol:.1e}")
        exc.defect = d_comm
        raise exc

    rep = ConditionReport("commutative_extendability")
    rep.add("algebra commutative", d_comm, tol)
    (worst, worst_p), stabilized_at = _orbit_scan(
        sys, n_max, tol, [basis, sys.proj_initial(1)])
    rep.add(f"algebra commutes with delta^n(algebra), n <= {n_max}", worst, tol)
    rep.merge(_extendability(worst_p, stabilized_at, n_max, tol))
    return rep


def _tower(sys: IsometrySystem, image, tol: float,
           check=None) -> FiniteStarAlgebra:
    """Generated closure of all iterated images of the algebra under
    ``image``, in one walk: each stage's images are computed once, passed
    with the stage number to ``check`` (when given; it raises when they
    break the tower's hypothesis), and tested for membership in the stage
    as ``contains`` does, within ``tol * max(1, ||img||_F)``.  The walk stops
    when all lie in it and otherwise closes the stage with them."""
    cur = sys.algebra
    for stage in range(_chain_cap(sys.dim)):
        images = image(cur.basis)
        if check is not None:
            check(stage, images)
        scale = np.maximum(1.0, np.linalg.norm(images, axis=(1, 2)))
        if np.all(cur.span_defects(images) <= tol * scale):
            return cur
        cur = generate_closure(np.concatenate([cur.basis, images]), tol,
                               dim=sys.dim)
    return cur


def extend_delta(sys: IsometrySystem, tol: float | None = None) -> FiniteStarAlgebra:
    """Smallest *-algebra containing the algebra and all its delta^n images.

    Requires extendability: U*U commutes with every delta^n(a) (otherwise
    the result need not intertwine with U).  The walk checks U*U against
    the algebra, then against each stage's delta images.  Stage n-1's
    images contain delta^n(algebra) and lie in the *-algebra the orbit
    generates, which the commutant of U*U (a *-algebra) contains when the
    hypothesis holds; so the check is the hypothesis itself.  A failure
    raises HypothesisViolated carrying the report, whose last entry names
    the stage.
    """
    tol = sys.tol if tol is None else tol
    p = sys.proj_initial(1)
    rep = ConditionReport("extendability")

    def commutes(label: str, stack: np.ndarray) -> None:
        rep.add(f"U*U commutes with {label}", _commutator_norm(p, stack), tol)
        if not rep.passed:
            raise HypothesisViolated(
                "extendability fails; delta tower unsound", rep)

    commutes("the algebra", sys.algebra.basis)
    return _tower(sys, sys.delta, tol, lambda stage, images: commutes(
        f"delta(tower stage {stage})", images))


def extend_delta_star(sys: IsometrySystem,
                      tol: float | None = None) -> FiniteStarAlgebra:
    """Smallest *-algebra containing the algebra and all delta_star^n images.

    Requires the intertwining relation and delta mapping the algebra into
    itself; raises HypothesisViolated carrying the failed report.
    """
    tol = sys.tol if tol is None else tol
    pre = ConditionReport("delta_star_tower_hypotheses")
    _add_delta_hypotheses(pre, sys, tol)
    if not pre.passed:
        raise HypothesisViolated(
            "intertwining or delta-invariance fails; delta_star tower unsound", pre)
    return _tower(sys, sys.delta_star, tol)


def build_towers(sys: IsometrySystem, tol: float | None = None
                 ) -> tuple[FiniteStarAlgebra, FiniteStarAlgebra]:
    """Extend the algebra by delta, then the result by delta_star.

    Returns (delta tower, full tower); the full tower is the coefficient
    algebra the models are built over.
    """
    ext = extend_delta(sys, tol)
    return ext, extend_delta_star(sys._with_algebra(ext), tol)


def verify_power_identities(sys: IsometrySystem, k_max: int,
                            tol: float | None = None) -> ConditionReport:
    """Verify the power structure of a coefficient system up to k_max:

    - U^k a = delta^k(a) U^k on the basis;
    - U^{*k} U^k commutes with the algebra;
    - both projection families U^{*k}U^k and U^kU^{*k} consist of pairwise
      commuting, decreasing projections;
    - the two families commute with each other;
    - the absorption identities U* U^k U^{*l} = U^{k-1} U^{*l} and
      U U^{*k} U^l = U^{*(k-1)} U^l for 1 <= k <= l.

    Report-valued; the hypothesis (intertwining + delta-invariance) is
    recorded as the first entries instead of raising.
    """
    tol = sys.tol if tol is None else tol
    rep = ConditionReport("power_structure")
    _add_delta_hypotheses(rep, sys, tol, prefix="hypothesis: ")

    basis, ks = sys.algebra.basis, np.arange(1, k_max + 1)
    d = max((_worst_norm(uk @ basis - sys.delta_n(basis, k) @ uk)
             for k, uk in zip(ks, sys.power_stack(ks))), default=0.0)
    rep.add(f"U^k a = delta^k(a) U^k, k <= {k_max}", d, tol)

    d = _commutator_norm(sys.proj_initial_stack(ks), basis)
    rep.add(f"U^{{*k}}U^k commutes with algebra, k <= {k_max}", d, tol)

    for label, stack in (("U^{*k}U^k", sys.proj_initial_stack),
                         ("U^kU^{*k}", sys.proj_final_stack)):
        p, nxt = stack(ks), stack(ks + 1)
        d_proj = max(_worst_norm(p @ p - p),
                     _worst_norm(p - p.conj().transpose(0, 2, 1)))
        d_dec = _worst_norm(p @ nxt - nxt)
        d_pair = _commutator_norm(p, p)
        rep.add(f"{label} are projections, k <= {k_max}", d_proj, tol)
        rep.add(f"{label} pairwise commute", d_pair, tol)
        rep.add(f"{label} decreasing", d_dec, tol)

    rep.add("[U^{*k}U^k, U^lU^{*l}] = 0",
            _projection_families_defect(sys, k_max), tol)
    rep.add(f"absorption identities, 1 <= k <= l <= {k_max}",
            _absorption_defect(sys, k_max), tol)
    return rep


def check_extension_towers(sys: IsometrySystem,
                           tol: float | None = None) -> ConditionReport:
    """Verify that the two extension towers agree:

    extending by delta then delta_star yields the same span as extending by
    delta_star then delta, the result is commutative, and both maps send it
    into itself.

    Requires commutative extendability; raises HypothesisViolated (or
    NotCommutative) otherwise.
    """
    tol = sys.tol if tol is None else tol
    pre = check_commutative_extendability(sys, n_max=sys.dim, tol=tol)
    if not pre.passed:
        raise HypothesisViolated("commutative extendability fails", pre)

    _, tower_a = build_towers(sys, tol)
    ext_s = extend_delta_star(sys, tol)
    tower_b = extend_delta(sys._with_algebra(ext_s), tol)

    rep = ConditionReport("extension_towers")
    _, defect = spans_equal(tower_a.basis, tower_b.basis, tol)
    rep.add("towers have equal spans", defect, tol)

    rep.add("tower is commutative", _commutator_defect(tower_a.basis), tol)

    sys_t = sys._with_algebra(tower_a)
    rep.add("delta an endomorphism of the tower",
            _invariance_defect(sys_t, sys_t.delta), tol)
    rep.add("delta_star an endomorphism of the tower",
            _invariance_defect(sys_t, sys_t.delta_star), tol)
    rep.note(f"tower dimensions: start {sys.algebra.dim}, delta-first "
             f"{tower_a.dim}, delta_star-first {tower_b.dim}")
    return rep
