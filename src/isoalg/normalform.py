"""Canonical normal forms over an isometry system.

An element of the algebra generated by a coefficient algebra A and the
partial isometry U is a finite sum of degree terms::

    degree  k > 0:   a_k U^k          (coefficient on the left)
    degree  k = 0:   a_0
    degree  k < 0:   U^{*|k|} a_|k|   (coefficient on the right)

with every coefficient in A and normalized so that multiplying by the range
projection U^{|k|} U^{*|k|} (on the matching side) leaves it fixed.  The
right-coefficient convention for negative degrees is canonical here; the
left-coefficient variant is available through :func:`left_coefficients` when
the adjoint intertwining relation U* a = delta_star(a) U* holds.

A form is stored as a sorted degree vector and one (K, n, n) stack of the
coefficients at those degrees, so normalization, the zero-drop, the
membership test and the degree arithmetic are batched operations over the
stack; the validation body (:func:`_canonical_terms`) also takes the terms
of many forms in one stack.  Each form also keeps the represented matrix,
the sum of its monomials M_k (a_k U^k, a_0, U^{*|k|} a_|k|), read-only,
forms the stack of its monomials only for a product, and caches its norm.
On a frame system a form also has the (K, d) block values of its
coefficients, which the samplers read: a drawn form holds them alone and
forms its stack and matrix on first use, any other reads them off its
stack.  Where the chain model stands in (:func:`chain_model`) its norm is
the largest norm of its chain matrices.

The product is a convolution of monomials over the degree axis: the
degree-d monomial of xy is the sum of X_j Y_k over j + k = d, and its
coefficient is recovered by :func:`strip_power`.  That is sound exactly when
A is a coefficient algebra, where every such matrix product is again a
degree-(j+k) monomial by the four product rules

    (c U^j)(d U^k)          = c delta^j(d) U^{j+k}
    (U^{*j} c)(U^{*k} d)    = U^{*(j+k)} delta^k(c) d
    (c U^j)(U^{*k} d)       = U^{*(k-j)} delta^{k-j}(c) F_k d       (j <= k)
                            = c F_j delta^{j-k}(d) U^{j-k}          (j >= k)
    (U^{*j} c)(d U^k)       = delta_star^j(c d) U^{k-j}             (j <= k)
                            = U^{*(j-k)} delta_star^k(c d)          (j >= k)

where F_k = U^k U^{*k}; so every constructor refuses systems whose
coefficient report fails.  The rules themselves are kept in the tests as the
reference the convolution is compared against.

Gauge substitution U -> lam U multiplies degree k by lam^k (:func:`gauge`).
On the matrices C*(A, U) it is a *-automorphism, conjugation by lam^H with
H = -sum_k U^{*k}U^k, exactly when U is nilpotent, which is exactly when
the coefficient bound ||a_0|| <= ||x|| holds: a canonical form's matrix
then determines its coefficients.  On the cyclic shift it does not:
U^5 - 1 is the zero matrix.  The proof is in ``isoalg.norms``, whose
estimates use the gauge action only on such systems.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import expr as _expr
from .algebra import Chains, IsometrySystem
from .errors import (
    CoefficientEscape,
    DimensionMismatch,
    HypothesisViolated,
    InsufficientResolution,
    NotCoefficientAlgebra,
    NotUnimodular,
    Overflow,
    SystemMismatch,
)
from .linalg import (
    _frobenius_norms,
    _int64_vector,
    _is_integer,
    adjoint,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
)
from .report import ConditionReport

# Degrees lie in -_DEGREE_TOP.._DEGREE_TOP, one short of the int64 end.
_DEGREE_TOP = int(np.iinfo(np.int64).max) - 1


def chain_model(system: IsometrySystem) -> Chains | None:
    """The system's chain model (``IsometrySystem.chains``) when it stands
    in for the dense path, its premises within tol and its error bound
    within CHAIN_AGREEMENT, the only case in which forms are measured on
    it; None otherwise."""
    chains = system.chains
    return chains if chains is not None and chains.failed is None else None


def _require_coefficient_system(system: IsometrySystem) -> None:
    rep = system.coefficient_report
    if not rep.passed:
        raise NotCoefficientAlgebra(
            "the system's algebra is not a coefficient algebra; "
            "normal-form rewriting would be unsound", rep)


def _sided(out: np.ndarray, degrees: np.ndarray, right, left) -> np.ndarray:
    """Multiply out[i] by right(k) on the right where k = degrees[i] > 0
    and by left(-k) on the left where k < 0, in place on a complex stack
    the caller owns; ``right`` and ``left`` map k >= 1 to n x n matrices.

    One product per distinct degree k: on the right, the m matrices of
    degree k as one (m n, n) matrix times right(k); on the left, left(-k)
    times the m matrices side by side as one n x (m n) matrix.  So no
    factor is gathered into a (K, n, n) copy."""
    n = out.shape[-1]
    for k in np.unique(degrees[degrees != 0]).tolist():
        at = np.flatnonzero(degrees == k)
        m = at.size
        if k > 0:
            out[at] = (out[at].reshape(m * n, n) @ right(k)).reshape(m, n, n)
        else:
            side = out[at].transpose(1, 0, 2).reshape(n, m * n)
            out[at] = (left(-k) @ side).reshape(n, m, n).transpose(1, 0, 2)
    return out


def _canonical_terms(system: IsometrySystem, stack: np.ndarray,
                    degrees: np.ndarray, drop_scale
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The validation body of every canonical form, on a complex (K, n, n)
    stack of coefficients at ``degrees``, which it owns: range-normalize
    each in place, drop those whose norm is at most tol * drop_scale, and
    test the rest for membership in the algebra.  ``drop_scale`` is one
    scale, or one per coefficient when the stack holds many forms' terms.

    Returns the mask of kept coefficients and their normalized stack (the
    input when none drops) and Frobenius norms, in input order.  Overflow
    names the degree of the first coefficient whose norm is not finite, and
    CoefficientEscape that of the first kept coefficient, in input order,
    that is not a member.
    """
    _sided(stack, degrees, system.proj_final, system.proj_final)
    norms = _frobenius_norms(stack)
    if not np.isfinite(norms).all():
        i = int(np.argmin(np.isfinite(norms)))
        raise Overflow(f"coefficient at degree {degrees[i]} overflows: its "
                       f"norm is {norms[i]}")
    keep = norms > system.tol * drop_scale
    if not keep.all():
        stack, norms = stack[keep], norms[keep]
    inside, defects = system.algebra.membership(stack)
    if not inside.all():
        i = int(np.argmin(inside))
        raise CoefficientEscape(
            f"coefficient at degree {degrees[keep][i]} is outside the algebra "
            f"(defect {defects[i]:.3e})")
    return keep, stack, norms


def _monomial_stack(system: IsometrySystem, coeffs: np.ndarray,
                    degrees: np.ndarray) -> np.ndarray:
    """The degree terms c U^k, c, U^{*|k|} c of a (K, n, n) coefficient
    stack at ``degrees``."""
    return _sided(np.array(coeffs, dtype=complex), degrees, system.power,
                  system.star_power)


class NormalForm:
    """Immutable canonical form over an isometry system.

    ``coeffs`` maps degree -> coefficient; with ``degrees`` given it is
    instead a (K, n, n) stack whose i-th matrix sits at degrees[i] (distinct
    degrees, any order).  Every coefficient is range-normalized, dropped when
    its norm is at most tol * drop_scale, and otherwise tested for membership
    in the algebra (CoefficientEscape names the first failing degree in input
    order).  Arithmetic passes the scale of its operands as ``drop_scale`` so
    that cancellation leaves genuinely empty forms; it defaults to the
    largest input coefficient norm.
    """

    def __init__(self, system: IsometrySystem, coeffs,
                 drop_scale: float | None = None, *, degrees=None):
        _require_coefficient_system(system)
        self.system = system
        n = system.dim
        if degrees is None:
            degrees = list(coeffs)
            mats = [as_matrix(c) for c in coeffs.values()]
            for k, c in zip(degrees, mats):
                if c.shape[0] != n:
                    raise DimensionMismatch(
                        f"coefficient at degree {k} has dimension "
                        f"{c.shape[0]}; the system acts on dimension {n}")
            stack = np.array(mats) if mats else np.zeros((0, n, n), complex)
        else:
            stack = np.array(coeffs, dtype=complex)
        degrees = _int64_vector(degrees, "degree", _DEGREE_TOP)
        if stack.shape != (degrees.size, n, n):
            raise DimensionMismatch(
                f"coefficient stack of shape {stack.shape} for {degrees.size} "
                f"degrees on dimension {n}")
        if np.unique(degrees).size != degrees.size:
            raise DimensionMismatch("repeated degree in coefficient stack")

        if drop_scale is None:
            drop_scale = _frobenius_norms(stack).max(initial=0.0)
        keep, stack, norms = _canonical_terms(system, stack, degrees, drop_scale)
        degrees = degrees[keep]
        order = np.argsort(degrees)
        self._degrees = degrees[order]
        self._coeffs = stack[order]
        self._norms = norms[order]

    @classmethod
    def _from_terms(cls, system: IsometrySystem, degrees: np.ndarray,
                    coeffs: np.ndarray, norms: np.ndarray,
                    matrix: np.ndarray) -> "NormalForm":
        """A form from terms that already went through _canonical_terms, in
        ascending degree order, with their Frobenius norms and the sum of
        their monomials, which it keeps read-only."""
        x = cls.__new__(cls)
        x.system = system
        x._degrees, x._coeffs, x._norms = degrees, coeffs, norms
        x._matrix = matrix
        matrix.flags.writeable = False
        return x

    @classmethod
    def _from_values(cls, system: IsometrySystem, degrees: np.ndarray,
                     values: np.ndarray, norms: np.ndarray) -> "NormalForm":
        """A form of a frame system from the (K, d) block values of
        range-normalized members of the algebra, in ascending degree order,
        and their Frobenius norms sqrt(sum_i r_i |v_i|^2): its
        coefficients, matrix and monomials are formed on first use."""
        x = cls.__new__(cls)
        x.system = system
        x._degrees, x._values, x._norms = degrees, values, norms
        return x

    @cached_property
    def _coeffs(self) -> np.ndarray:
        """The coefficient stack of a form made ``_from_values``, V diag(v)
        V* per block values v (``FiniteStarAlgebra.members``); every other
        form holds its stack from the start."""
        return self.system.algebra.members(self._values)

    @cached_property
    def _values(self) -> np.ndarray:
        """The (K, d) block values of the coefficients on a frame system
        (``FiniteStarAlgebra.block_values``), for a form made with its
        stack."""
        return self.system.algebra.block_values(self._coeffs)

    # -- access ------------------------------------------------------------

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._degrees.tolist())

    @property
    def max_degree(self) -> int:
        return int(np.abs(self._degrees).max(initial=0))

    def coefficient(self, k: int) -> np.ndarray:
        """The stored normalized coefficient at degree k (zero if absent)."""
        i = int(np.searchsorted(self._degrees, k))
        if i < self._degrees.size and self._degrees[i] == k:
            return self._coeffs[i]
        n = self.system.dim
        return np.zeros((n, n), dtype=complex)

    @property
    def coefficients(self) -> np.ndarray:
        """The stored coefficients, one (K, n, n) stack in degree order."""
        return self._coeffs

    def scale(self) -> float:
        return float(self._norms.max(initial=0.0))

    @cached_property
    def _monomials(self) -> np.ndarray:
        """The degree terms a_k U^k, a_0, U^{*|k|} a_|k| as a (K, n, n) stack."""
        return _monomial_stack(self.system, self._coeffs, self._degrees)

    @cached_property
    def norm(self) -> float:
        """The operator norm ||x||, measured for many forms at once by
        ``norms._operator_norms``: on a system whose chain model stands in
        (``chain_model``), the norm of the chain model, the largest norm of
        the chain matrices of the coefficients' block values, which lies
        within the model's error bound (``Chains.error``) and the
        coefficients' membership defect of the norm of the represented
        matrix; else the norm of that matrix."""
        chains = chain_model(self.system)
        if chains is None:
            return spectral_norm(self.eval())
        return float(chains.norms([(self._degrees, self._values)])[0])

    def eval(self) -> np.ndarray:
        """The represented matrix, sum of all degree terms, read-only."""
        if "_matrix" not in vars(self):
            self._matrix = self._monomials.sum(axis=0)
            self._matrix.flags.writeable = False
        return self._matrix

    def to_json(self) -> dict:
        return {"degrees": [{"k": k, "coeff": matrix_to_json(c)}
                            for k, c in zip(self.degrees(), self._coeffs)]}

    @staticmethod
    def from_json(obj: dict, system: IsometrySystem) -> "NormalForm":
        """The form of a ``to_json`` object; DimensionMismatch names a
        degree "k" that is no integer (``_is_integer``) or a repeated one."""
        terms = obj["degrees"]
        for k in (d["k"] for d in terms):
            if not _is_integer(k):
                raise DimensionMismatch(f'degree "k" must be an integer, '
                                        f'got {k!r}')
        coeffs = {int(d["k"]): matrix_from_json(d["coeff"]) for d in terms}
        if len(coeffs) < len(terms):
            raise DimensionMismatch("repeated degree in coefficient list")
        return NormalForm(system, coeffs)

    def __repr__(self) -> str:
        return f"NormalForm(degrees={self.degrees()})"


def zero_form(system: IsometrySystem) -> NormalForm:
    return NormalForm(system, {})


def identity_form(system: IsometrySystem) -> NormalForm:
    return NormalForm(system, {0: np.eye(system.dim, dtype=complex)})


def _check_same_system(x: NormalForm, y: NormalForm) -> None:
    if x.system is not y.system:
        raise SystemMismatch("normal forms built over different systems")


def nf_add(x: NormalForm, y: NormalForm) -> NormalForm:
    _check_same_system(x, y)
    degrees = np.union1d(x._degrees, y._degrees)
    n = x.system.dim
    out = np.zeros((degrees.size, n, n), dtype=complex)
    out[np.searchsorted(degrees, x._degrees)] += x._coeffs
    out[np.searchsorted(degrees, y._degrees)] += y._coeffs
    return NormalForm(x.system, out, drop_scale=max(x.scale(), y.scale()),
                      degrees=degrees)


def nf_scale(x: NormalForm, z: complex) -> NormalForm:
    return NormalForm(x.system, z * x._coeffs, degrees=x._degrees)


def nf_adjoint(x: NormalForm) -> NormalForm:
    """Degree k maps to -k with the coefficient adjoint moved to the other
    side; the normalization carries over exactly."""
    return NormalForm(x.system, x._coeffs.conj().transpose(0, 2, 1),
                      degrees=-x._degrees)


def nf_multiply(x: NormalForm, y: NormalForm) -> NormalForm:
    """The product as a degree convolution of the monomial stacks: for each
    degree j of x, one batched product of X_j with every live monomial of y,
    accumulated at the degrees j + k.  Pairs with |j + k| at or past the
    nilpotency index of U are skipped (their product is zero).  Only the
    degrees j + k that occur are held, so the cost follows the number of
    term pairs, not the width of the degree range.  Overflow names an
    output degree past the 64-bit integer range."""
    _check_same_system(x, y)
    system = x.system
    n = system.dim
    limit = system.nilpotency_index
    dx, dy = x._degrees, y._degrees
    lo, hi = 0, -1  # no output degree unless both forms have terms
    if dx.size and dy.size:
        lo, hi = int(dx[0]) + int(dy[0]), int(dx[-1]) + int(dy[-1])
        if limit is not None:
            lo, hi = max(lo, 1 - limit), min(hi, limit - 1)
        if max(-lo, hi) > _DEGREE_TOP:
            raise Overflow(f"the product has degrees {lo} to {hi}, outside "
                           f"the range -{_DEGREE_TOP} to {_DEGREE_TOP}")
    outs = dx[:, None] + dy[None, :]
    lives = (outs >= lo) & (outs <= hi)
    degrees = np.unique(outs[lives])
    acc = np.zeros((degrees.size, n, n), dtype=complex)
    my = y._monomials
    for mj, out, live in zip(x._monomials, outs, lives):
        # within one j the target degrees are distinct, so += is exact
        acc[np.searchsorted(degrees, out[live])] += mj @ my[live]
    return NormalForm(system, _strip(system, acc, degrees),
                      drop_scale=x.scale() * y.scale(), degrees=degrees)


def gauge(x: NormalForm, lam: complex) -> NormalForm:
    """Substitute U -> lam*U for unimodular lam: degree k picks up lam^k."""
    # not "> 1e-12", which a NaN modulus passes
    if not abs(abs(lam) - 1.0) <= 1e-12:
        raise NotUnimodular(f"|lam| = {abs(lam)!r} is not 1")
    phases = complex(lam) ** x._degrees
    return NormalForm(x.system, phases[:, None, None] * x._coeffs,
                      degrees=x._degrees)


def gauge_average(x: NormalForm, k: int, m: int) -> np.ndarray:
    """Fourier extraction of the degree-k monomial by averaging over m-th
    roots of unity: (1/m) * sum_j lam_j^{-k} eval(gauge(x, lam_j)).

    Exact (up to rounding) once m exceeds twice the maximum degree; this is
    the independent oracle for :meth:`NormalForm.coefficient`.
    """
    if m <= 2 * x.max_degree:
        raise InsufficientResolution(
            f"m = {m} roots cannot separate degrees up to {x.max_degree}; "
            f"need m > {2 * x.max_degree}")
    n = x.system.dim
    out = np.zeros((n, n), dtype=complex)
    for j in range(m):
        lam = np.exp(2j * np.pi * j / m)
        out += (lam ** (-k)) * gauge(x, lam).eval()
    return out / m


def _strip(system: IsometrySystem, monomials: np.ndarray,
           degrees: np.ndarray) -> np.ndarray:
    """strip_power over a (K, n, n) stack of monomials at ``degrees``."""
    return _sided(np.array(monomials, dtype=complex), degrees,
                  system.star_power, system.power)


def strip_power(system: IsometrySystem, monomial: np.ndarray, k: int) -> np.ndarray:
    """Recover the normalized coefficient from a degree-k monomial matrix:
    right-multiply by U^{*k} for k > 0, left-multiply by U^{|k|} for k < 0."""
    return _strip(system, as_matrix(monomial)[None],
                  _int64_vector([k], "degree", _DEGREE_TOP))[0]


def reduce(e: _expr.Expression, system: IsometrySystem) -> NormalForm:
    """Rewrite a parsed expression to its canonical normal form.

    Distributes over sums, folds products left with the term product rules
    and takes powers by repeated squaring.  Refuses (NotCoefficientAlgebra)
    when the system's coefficient report fails, since the rewrite rules are
    only sound for coefficient algebras.
    """
    _require_coefficient_system(system)
    n = system.dim

    if isinstance(e, _expr.Scalar):
        return NormalForm(system, {0: e.value * np.eye(n, dtype=complex)})
    if isinstance(e, _expr.Gen):
        return NormalForm(system, {0: as_matrix(e.matrix)})
    if isinstance(e, _expr.USym):
        f1 = system.proj_final(1)
        return NormalForm(system, {(-1 if e.star else 1): f1})
    if isinstance(e, _expr.Sum):
        out = zero_form(system)
        for item in e.items:
            out = nf_add(out, reduce(item, system))
        return out
    if isinstance(e, _expr.Prod):
        out = identity_form(system)
        for item in e.items:
            out = nf_multiply(out, reduce(item, system))
        return out
    if isinstance(e, _expr.Adj):
        return nf_adjoint(reduce(e.item, system))
    if isinstance(e, _expr.Pow):
        out, base, k = identity_form(system), reduce(e.item, system), e.exponent
        while k:
            if k & 1:
                out = nf_multiply(out, base)
            k >>= 1
            base = nf_multiply(base, base) if k else base
        return out
    raise TypeError(f"not an expression node: {e!r}")


def check_adjoint_intertwining(sys: IsometrySystem) -> ConditionReport:
    """Check U* a = delta_star(a) U* on the basis (the mirror intertwining
    relation that makes the left-coefficient convention available)."""
    rep = ConditionReport("adjoint_intertwining")
    rep.add("U*a = delta_star(a)U* on basis", sys.adjoint_intertwining_defect,
            sys.tol)
    return rep


def left_coefficients(x: NormalForm) -> dict[int, np.ndarray]:
    """Coefficients in the left-placement convention (b_k U^{*k} for k < 0).

    Only available when the adjoint intertwining relation holds; raises
    HypothesisViolated otherwise.  Positive and zero degrees are unchanged;
    at degree k < 0 the left coefficient is delta_star^{|k|} of the stored
    one.
    """
    rep = check_adjoint_intertwining(x.system)
    if not rep.passed:
        raise HypothesisViolated(
            "adjoint intertwining fails; left-coefficient form unavailable", rep)
    out: dict[int, np.ndarray] = {}
    for k in x.degrees():
        c = x.coefficient(k)
        out[k] = x.system.delta_star_n(c, -k) if k < 0 else c
    return out
