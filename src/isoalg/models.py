"""The two worked operator models and their verification suites.

The polar model starts from an operator a, takes its polar decomposition
a = U |a|, generates the commutative algebra of |a|, and extends it to a
coefficient algebra.  Its standing condition is that a a* lies in the algebra
generated by |a|.

The truncated q-model lives on C^n with Q = diag(q^0, ..., q^{n-1}) and the
backward shift U (U e_j = e_{j-1}, U e_1 = 0).  The backward orientation
makes U Q = q Q U exact in finite dimension, confining all truncation error
to U U* != 1 at the top basis vector: UQU* - qQ has a single entry -q^n, and
the defect of a a* = rho^2(qQ) equals rho^2(q^n) at e_n while vanishing on
the bulk.  Those analytically derived defects are themselves checked, so the
truncation artifact doubles as a regression test.

The weight function rho is represented by its samples on the spectrum of Q
plus the shifted point q^n (continuous function calculus is diagonal
substitution in finite dimension); q^n is needed because the shifted
relations evaluate rho at q * q^{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    FiniteStarAlgebra,
    IsometrySystem,
    _absorption_defect,
    _commutator_norm,
    _Images,
    build_towers,
    generate_closure,
)
from .errors import (
    DimensionMismatch,
    PolarConditionViolated,
    RhoConditionViolated,
)
from .linalg import (
    DEFAULT_TOL,
    _eigh,
    _is_integer,
    _ldexp,
    _scale_exponent,
    adjoint,
    as_matrix,
    matrix_from_json,
    spectral_norm,
)
from .report import ConditionReport

# Tolerances of the polar structure suite, and of the q-model relations
# suite's exact identities and derived truncation defects.
POLAR_TOL = 1e-12
QDEFORM_TOL_EXACT, QDEFORM_TOL_EDGE = 1e-13, 1e-10


def backward_shift(n: int) -> np.ndarray:
    """The truncated backward shift on C^n: U e_j = e_{j-1}, U e_1 = 0."""
    return np.diag(np.ones(n - 1), 1).astype(complex)


def weighted_backward_shift(weights) -> np.ndarray:
    """a e_{j+1} = w_j e_j for the given weights (dimension len(weights)+1)."""
    return np.diag(np.asarray(weights, dtype=complex), 1)


def _polar_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                         np.ndarray, float, np.ndarray]:
    """The body of :func:`polar_decompose`: U, |a|, the singular values of
    a as computed, before the kernel rule, the rule's threshold
    sqrt(n eps) ||a||, and b = a 2^-e, e the ``_scale_exponent`` of a (0
    when a's largest entry lies in [2^-128, 2^128]).  All are taken from b,
    and all but U scaled back by 2^e exactly."""
    a = as_matrix(a)
    e = _scale_exponent(a)
    b = _ldexp(a, -e)
    w, v = _eigh(adjoint(b) @ b)
    s = np.sqrt(np.clip(w, 0.0, None))
    cut = np.sqrt(len(a) * np.finfo(float).eps) * s[-1]
    kept = np.where(s > cut, s, 0.0)
    abs_b = (v * kept) @ adjoint(v)
    inv = np.divide(1.0, kept, out=np.zeros_like(kept), where=kept > 0.0)
    u = b @ (v * inv) @ adjoint(v)
    return (u, _ldexp((abs_b + adjoint(abs_b)) / 2.0, e), np.ldexp(s, e),
            float(np.ldexp(cut, e)), b)


def polar_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition a = U |a| with U a partial isometry.

    From a*a = V diag(s^2) V*: |a| = V diag(s) V*, and U = a V diag(1/s) V*
    vanishes on ker |a|.  The computed a*a on C^n holds rounding of about
    n eps ||a||^2, so an s <= sqrt(n eps) ||a|| counts as kernel, in |a|
    too: |a| has no eigenvalue made of that rounding alone.  An a whose
    largest entry leaves [2^-128, 2^128] is decomposed as a 2^-e, brought
    into [1/2, 1) by an exact power of two, and |a| scaled back.
    """
    return _polar_parts(a)[:2]


@dataclass
class PolarModel:
    a: np.ndarray
    abs_a: np.ndarray
    u: np.ndarray
    seed_algebra: FiniteStarAlgebra  # generated by {1, |a|}
    delta_tower: FiniteStarAlgebra   # the seed extended by delta
    system: IsometrySystem           # over the full coefficient extension


def build_polar_model(a: np.ndarray, tol: float = DEFAULT_TOL) -> PolarModel:
    """Build the polar model of a, extending {1, |a|} to a coefficient
    algebra.

    Raises PolarConditionViolated (carrying the membership defect) when
    a a* does not lie in the algebra generated by |a|.  When
    :func:`polar_decompose` counted a nonzero singular value as kernel,
    the message also names the largest such value and the threshold
    sqrt(n eps) ||a|| it fell under: the condition may then fail only
    because |a| lumps that direction with the kernel.  Membership is
    tested on b b*, b = a 2^-e as :func:`polar_decompose` scales a.
    """
    a = as_matrix(a)
    u, abs_a, s, cut, b = _polar_parts(a)
    seed = generate_closure([abs_a], tol)
    ok, defect = seed.contains(b @ adjoint(b))
    if not ok:
        msg = (f"a a* is outside the algebra generated by |a| "
               f"(defect {defect:.3e})")
        zeroed = s[(s > 0.0) & (s <= cut)]
        if zeroed.size:
            msg += (f"; polar_decompose counted the singular value "
                    f"{zeroed.max():.3e} as kernel, at or below its "
                    f"threshold sqrt(n eps) ||a|| = {cut:.3e}")
        raise PolarConditionViolated(msg, defect)
    seed_sys = IsometrySystem(seed, u)
    ext, full = build_towers(seed_sys)
    return PolarModel(a, abs_a, u, seed, ext, seed_sys._with_algebra(full))


def polar_structure_suite(m: PolarModel, k_max: int) -> ConditionReport:
    """Structure checks for the polar model, up to power k_max, each within
    POLAR_TOL:

    - delta^k(|a|) lies in the algebra generated by |a| and the range
      projections U U*, ..., U^{k-1} U^{*(k-1)};
    - delta is multiplicative on that algebra;
    - the range projections U^k U^{*k} = delta^k(1) lie in the double
      commutant of the seed algebra and commute with it.  The double
      commutant is the seed algebra itself, by von Neumann's double
      commutant theorem: the seed is a unital *-algebra (its constructor
      validates that), and in finite dimension such an algebra equals its
      double commutant.  So membership is tested against the seed;
    - the absorption identities U* U^k U^{*l} = U^{k-1} U^{*l} and
      U U^{*k} U^l = U^{*(k-1)} U^l for 1 <= k <= l;
    - the two projection families commute.

    Each is measured for k only up to the depth D of ``power_families``:
    past it every power is an exact zero, and so is every value; the
    entries read its three families for k <= D.  The first two
    are measured on the seed S = C*(1, |a|), the algebra of both for every
    k: U*U, a spectral projection of |a|, lies in the commutative S, so
    delta(x) delta(y) = U x U*U y U* = delta(xy) on S.
    S is generated by 1 and |a|^2, and delta(|a|^2) = a a* (the build
    checks it) and delta(1) = U U*, the support projection of a a*, lie in
    S.  So delta(S) lies in S: every delta^k(|a|) and U^k U^{*k} does, and
    C*(|a|, U U*, ..., U^{k-1} U^{*(k-1)}) = S.
    """
    tol = POLAR_TOL
    rep = ConditionReport("polar_structure")
    seed = m.seed_algebra
    sys = m.system._with_algebra(seed)
    powers, initial, final = (f[:-1] for f in sys.power_families(k_max))
    stars = adjoint(powers)

    d = float(seed.span_defects(powers[1:] @ m.abs_a @ stars[1:])
              .max(initial=0.0))
    rep.add(f"delta^k(|a|) in span of |a| and lower projections, k <= {k_max}",
            d, tol)
    rep.add("delta multiplicative on the extended algebra",
            sys.multiplicativity_defect, tol)

    d_mem = float(seed.span_defects(final[1:]).max(initial=0.0))
    d_comm = _Images(seed).commutator_norm(final[1:])
    rep.add(f"U^k U^{{*k}} in double commutant of seed, k <= {k_max}", d_mem, tol)
    rep.add("U^k U^{*k} commutes with seed algebra", d_comm, tol)

    rep.add(f"absorption identities, 1 <= k <= l <= {k_max}",
            _absorption_defect(powers), tol)
    rep.add("initial and range projection families commute",
            _commutator_norm(initial, final), tol)
    return rep


@dataclass(frozen=True)
class RhoSpec:
    """Weight function sampled on q^0, ..., q^n (n+1 points; the last is the
    shifted edge point q * q^{n-1})."""

    name: str
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=float))


def heisenberg_rho(n: int, q: float) -> RhoSpec:
    """rho(t) = (1 - t) / (1 - q) sampled on q^0, ..., q^n."""
    if not 0.0 < q < 1.0:
        raise RhoConditionViolated(f"q = {q} not in (0, 1)")
    j = np.arange(n + 1)
    return RhoSpec("heisenberg", (1.0 - q ** j) / (1.0 - q))


def sl2_rho(n: int, q: float) -> RhoSpec:
    """rho taken from the printed square

        rho^2(t) = -(q/t + t) / ((1-q)(1-q^2)(1-q)^2)

    which is negative for every t > 0 and 0 < q < 1, so this constructor
    always raises RhoConditionViolated for the admissible q range; it exists
    to flag the unusable parameter combinations rather than silently guess a
    corrected formula.
    """
    if not 0.0 < q < 1.0:
        raise RhoConditionViolated(f"q = {q} not in (0, 1)")
    t = q ** np.arange(n + 1)
    rho_sq = -(q / t + t) / ((1.0 - q) * (1.0 - q * q) * (1.0 - q) ** 2)
    if np.any(rho_sq < 0.0):
        bad = int(np.argmin(rho_sq))
        raise RhoConditionViolated(
            f"rho^2({t[bad]:g}) = {rho_sq[bad]:g} < 0; the printed formula "
            f"admits no nonnegative rho for q = {q}")
    return RhoSpec("sl2", np.sqrt(rho_sq))


def constant_rho(n: int, value: float = 1.0) -> RhoSpec:
    """Constant weight; violates the kernel condition (negative control)."""
    return RhoSpec("constant", np.full(n + 1, float(value)))


@dataclass
class QDeformModel:
    n: int
    q: float
    big_q: np.ndarray           # Q = diag(q^0, ..., q^{n-1})
    u: np.ndarray               # truncated backward shift
    rho: RhoSpec
    rho_matrix: np.ndarray      # rho(Q)
    a: np.ndarray               # U rho(Q)
    seed_algebra: FiniteStarAlgebra
    delta_tower: FiniteStarAlgebra
    system: IsometrySystem


def build_qdeform(n: int, q: float, rho: RhoSpec | str,
                  tol: float = DEFAULT_TOL) -> QDeformModel:
    """Build the truncated q-model with the given weight function.

    ``rho`` may be a RhoSpec, one of the named choices "heisenberg" / "sl2",
    or a sequence of n+1 samples.  The kernel condition U*U rho(Q) = rho(Q)
    is checked, not assumed: it holds exactly iff rho(q^0) = 0, since ker U
    is spanned by e_1.
    """
    if n < 2:
        raise ValueError(f"n = {n} must be >= 2")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q = {q} not in (0, 1)")
    if isinstance(rho, str):
        if rho == "heisenberg":
            rho = heisenberg_rho(n, q)
        elif rho == "sl2":
            rho = sl2_rho(n, q)
        else:
            raise ValueError(f"unknown rho name {rho!r}")
    elif not isinstance(rho, RhoSpec):
        rho = RhoSpec("custom", rho)
    if rho.samples.shape != (n + 1,):
        raise ValueError(
            f"rho needs {n + 1} samples (on q^0..q^{n}), got {rho.samples.shape}")
    if np.any(rho.samples < 0.0):
        bad = int(np.argmin(rho.samples))
        raise RhoConditionViolated(
            f"rho(q^{bad}) = {rho.samples[bad]:g} is negative")
    scale = float(rho.samples.max())
    if abs(rho.samples[0]) > 1e-12 * max(1.0, scale):
        raise RhoConditionViolated(
            f"U*U rho(Q) != rho(Q) at basis vector 1: rho(q^0) = "
            f"{rho.samples[0]:g} but U annihilates e_1")
    interior = rho.samples[1:n]
    if np.any(interior == 0.0):
        bad = 1 + int(np.argmin(interior))
        raise RhoConditionViolated(
            f"rho(q^{bad}) = 0 at an interior spectrum point; U would not "
            f"vanish on ker rho(Q)")

    big_q = np.diag(q ** np.arange(n)).astype(complex)
    u = backward_shift(n)
    rho_matrix = np.diag(rho.samples[:n]).astype(complex)
    a = u @ rho_matrix

    seed = generate_closure([big_q], tol)
    seed_sys = IsometrySystem(seed, u)
    ext, full = build_towers(seed_sys)
    return QDeformModel(n, q, big_q, u, rho, rho_matrix, a, seed, ext,
                        seed_sys._with_algebra(full))


def qdeform_relations_suite(m: QDeformModel) -> ConditionReport:
    """Verify the defining relations of the q-model, separating exact
    identities (within QDEFORM_TOL_EXACT) from the analytically derived
    truncation defects (within QDEFORM_TOL_EDGE):

    - a* a = rho^2(Q), a Q = q Q a and Q a* = q a* Q hold globally;
    - U Q = q Q U holds globally (the backward orientation makes it exact);
    - a a* = rho^2(qQ) holds on the bulk span(e_1..e_{n-1}); its global
      defect must equal rho^2(q^n);
    - the global defect of U Q U* = q Q must equal q^n.
    """
    n, q = m.n, m.q
    tol_exact, tol_edge = QDEFORM_TOL_EXACT, QDEFORM_TOL_EDGE
    rep = ConditionReport("qdeform_relations")
    a, astar = m.a, adjoint(m.a)
    rho2_q = np.diag(m.rho.samples[:n] ** 2).astype(complex)
    rho2_shift = np.diag(m.rho.samples[1:n + 1] ** 2).astype(complex)

    rep.add("a*a = rho^2(Q)", spectral_norm(astar @ a - rho2_q), tol_exact)
    rep.add("aQ = qQa", spectral_norm(a @ m.big_q - q * m.big_q @ a), tol_exact)
    rep.add("Qa* = qa*Q",
            spectral_norm(m.big_q @ astar - q * astar @ m.big_q), tol_exact)
    rep.add("UQ = qQU",
            spectral_norm(m.u @ m.big_q - q * m.big_q @ m.u), 1e-14)

    diff = a @ astar - rho2_shift
    bulk = np.diag(np.concatenate([np.ones(n - 1), [0.0]])).astype(complex)
    rep.add("aa* = rho^2(qQ) on the bulk",
            spectral_norm(bulk @ diff @ bulk), tol_exact)
    edge_expected = float(m.rho.samples[n] ** 2)
    edge_measured = spectral_norm(diff)
    rep.add("aa* edge defect equals rho^2(q^n)",
            abs(edge_measured - edge_expected), tol_edge)
    rep.note(f"aa* edge defect: measured {edge_measured:.12e}, "
             f"derived {edge_expected:.12e}")

    trunc_measured = spectral_norm(m.u @ m.big_q @ adjoint(m.u) - q * m.big_q)
    trunc_expected = float(q ** n)
    rep.add("UQU* - qQ defect equals q^n",
            abs(trunc_measured - trunc_expected), tol_edge)
    rep.note(f"UQU* truncation defect: measured {trunc_measured:.12e}, "
             f"derived {trunc_expected:.12e}")
    return rep


@dataclass
class LoadedModel:
    """A model built from a JSON spec, with the generator table its
    expressions can refer to."""

    kind: str
    system: IsometrySystem
    generators: dict[str, np.ndarray]
    polar: PolarModel | None = None
    qdeform: QDeformModel | None = None


def load_model(obj: dict, tol: float = DEFAULT_TOL) -> LoadedModel:
    """Build a model from its JSON spec.

    Accepted forms::

        {"type": "polar", "a": <matrix>}
        {"type": "qdeform", "n": int, "q": real,
         "rho": "heisenberg" | "sl2" | {"samples": [real, ...]}}
        {"type": "system", "generators": [<matrix>, ...], "U": <matrix>}

    Matrices are {"dim": n, "entries": [[[re, im], ...], ...]}.  The raw
    "system" form generates the *-algebra closure of the given generators;
    it does not require a coefficient algebra, so it can express the
    deliberately broken configurations used as negative controls.  A
    missing field, one of the wrong JSON type, a NaN, infinite or
    float-overflowing "q", sample or matrix entry, or a matrix object that
    is not a matrix raises ValueError naming the field (and the type
    expected, or the matrix's fault); an integral float such as 12.0 is an
    integer "n", and an "n" whose matrices cannot be allocated is named too.
    """
    if not isinstance(obj, dict):
        raise ValueError(
            f"a model spec is a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")

    def expect(value, key: str, types, what: str):
        # a JSON true or false is no number
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{kind} model spec field {key!r} must be "
                             f"{what}, got {type(value).__name__}")
        return value

    def field(key: str, types=None, what: str = ""):
        if key not in obj:
            raise ValueError(f"{kind} model spec has no {key!r} field")
        value = obj[key]
        return value if types is None else expect(value, key, types, what)

    def matrix(value, key: str) -> np.ndarray:
        expect(value, key, dict, "a matrix object")
        try:
            return matrix_from_json(value)
        except DimensionMismatch as exc:
            raise ValueError(f"{kind} model spec field {key!r} is not a "
                             f"matrix: {exc}") from exc

    number = (int, float)

    def finite(value, key: str) -> float:
        expect(value, key, number, "a number")
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = np.inf
        if not np.isfinite(x):
            raise ValueError(f"{kind} model spec field {key!r} must be a "
                             f"finite number, got {value!r}")
        return x
    if kind == "polar":
        model = build_polar_model(matrix(field("a"), "a"), tol)
        # generator names must denote coefficient-algebra elements; the
        # operator itself is written U*absa
        return LoadedModel("polar", model.system,
                           {"absa": model.abs_a}, polar=model)
    if kind == "qdeform":
        rho = field("rho", (str, dict), "a rho name or a samples object")
        if isinstance(rho, dict):
            if "samples" not in rho:
                raise ValueError("qdeform model spec has no 'samples' field "
                                 "in its 'rho' object")
            samples = expect(rho["samples"], "rho.samples", list, "a list")
            rho = RhoSpec("custom", [finite(x, f"rho.samples[{i}]")
                                     for i, x in enumerate(samples)])
        n = field("n", number, "an integer")
        # an integral float such as 12.0 is an integer
        if not _is_integer(n):
            raise ValueError(f"{kind} model spec field 'n' must be an "
                             f"integer, got {n!r}")
        n, q = int(n), finite(field("q"), "q")
        too_large = ValueError(f"{kind} model spec field 'n' is too large: "
                               f"its n x n complex matrices cannot be "
                               f"allocated")
        if 16 * n * n > np.iinfo(np.intp).max:  # past the address range
            raise too_large
        try:
            model = build_qdeform(n, q, rho, tol)
        except MemoryError as exc:
            raise too_large from exc
        # the model operator a is written U*rhoQ
        return LoadedModel("qdeform", model.system,
                           {"Q": model.big_q, "rhoQ": model.rho_matrix},
                           qdeform=model)
    if kind == "system":
        gens = [matrix(g, f"generators[{i}]")
                for i, g in enumerate(field("generators", list, "a list"))]
        u = matrix(field("U"), "U")
        algebra = generate_closure(gens, tol, dim=u.shape[0])
        table = {f"g{i}": g for i, g in enumerate(gens)}
        return LoadedModel("system", IsometrySystem(algebra, u), table)
    raise ValueError(f"unknown model type {kind!r}")
