"""Finite-dimensional *-algebra machinery.

A *-subalgebra of the ambient matrix algebra is stored as one (d, n, n)
stack of Hilbert-Schmidt orthonormal basis matrices, which turns span
membership, commutants and generated closures into ordinary linear algebra.
On top of that sit the condition checkers for a pair (algebra, partial
isometry U) and the extension builders that enlarge an initial algebra until
the maps

    delta(x) = U x U*,        delta_star(x) = U* x U

send it into itself.  Both maps act on stacks, so a checker measures its
identity over the whole basis in one batched call; identities over pairs
(of basis elements, or of powers k <= k_max) take one call per row, so that
no temporary holds all the pairs at once.
"""

from __future__ import annotations

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
    fa, fb = _svd_span(a), _svd_span(b)
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


def generate_closure(gens: list[np.ndarray], tol: float = DEFAULT_TOL,
                     dim: int | None = None) -> FiniteStarAlgebra:
    """Minimal unital *-algebra containing the generators.

    Iteratively adjoins adjoints and pairwise products, re-orthonormalizing
    by Hilbert-Schmidt Gram-Schmidt, until the dimension stabilizes.  The
    identity is always adjoined.  ``dim`` is required when ``gens`` is empty.
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

    return FiniteStarAlgebra(np.reshape(flat, (-1, n, n)), tol=tol)


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
    _, s, vh = np.linalg.svd(stack)
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


def _delta_orbit(sys: IsometrySystem, n_max: int) -> list[np.ndarray]:
    """The stacks delta^n(basis) for n = 0, ..., n_max (none if n_max < 0),
    each the delta image of the one before."""
    orbit = [sys.algebra.basis]
    for _ in range(n_max):
        orbit.append(sys.delta(orbit[-1]))
    return orbit[:n_max + 1]


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
    return _extendability(sys, _delta_orbit(sys, n_max), n_max, tol)


def _extendability(sys: IsometrySystem, orbit: list[np.ndarray], n_max: int,
                   tol: float) -> ConditionReport:
    """The body of check_extendability over an already built delta^n orbit."""
    rep = ConditionReport("extendability")
    p = sys.proj_initial(1)
    worst = max((_commutator_norm(p, images) for images in orbit), default=0.0)
    stabilized_at = next((n for n in range(1, n_max + 1)
                          if spans_equal(orbit[n - 1], orbit[n], tol)[0]), None)
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
    orbit = _delta_orbit(sys, n_max)
    worst = max((_commutator_norm(basis, images) for images in orbit),
                default=0.0)
    rep.add(f"algebra commutes with delta^n(algebra), n <= {n_max}", worst, tol)
    rep.merge(_extendability(sys, orbit, n_max, tol))
    return rep


def _tower(sys: IsometrySystem, image, tol: float) -> FiniteStarAlgebra:
    """Generated closure of all iterated images of the algebra under ``image``.

    Because the chain is nested, two consecutive equal dimensions certify a
    fixed point.
    """
    cur = sys.algebra
    cap = _chain_cap(sys.dim)
    for _ in range(cap):
        gens = np.concatenate([cur.basis, image(cur.basis)])
        nxt = generate_closure(gens, tol, dim=sys.dim)
        if nxt.dim == cur.dim:
            return cur
        cur = nxt
    return cur


def extend_delta(sys: IsometrySystem, tol: float | None = None) -> FiniteStarAlgebra:
    """Smallest *-algebra containing the algebra and all its delta^n images.

    Requires extendability (otherwise the result need not intertwine with U);
    raises HypothesisViolated carrying the failed report.
    """
    tol = sys.tol if tol is None else tol
    pre = check_extendability(sys, n_max=sys.dim, tol=tol)
    if not pre.passed:
        raise HypothesisViolated("extendability fails; delta tower unsound", pre)
    return _tower(sys, sys.delta, tol)


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
    return ext, extend_delta_star(IsometrySystem(ext, sys.u), tol)


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
    tower_b = extend_delta(IsometrySystem(ext_s, sys.u), tol)

    rep = ConditionReport("extension_towers")
    _, defect = spans_equal(tower_a.basis, tower_b.basis, tol)
    rep.add("towers have equal spans", defect, tol)

    rep.add("tower is commutative", _commutator_defect(tower_a.basis), tol)

    sys_t = IsometrySystem(tower_a, sys.u)
    rep.add("delta an endomorphism of the tower",
            _invariance_defect(sys_t, sys_t.delta), tol)
    rep.add("delta_star an endomorphism of the tower",
            _invariance_defect(sys_t, sys_t.delta_star), tol)
    rep.note(f"tower dimensions: start {sys.algebra.dim}, delta-first "
             f"{tower_a.dim}, delta_star-first {tower_b.dim}")
    return rep
