"""Dense complex matrix primitives.

Everything in the package represents operators as dense square complex
matrices.  The spectral primitives all go through Hermitian eigensolving
(the spectral norm is computed from eigenvalues of M*M rather than a general
SVD), which keeps the numeric core to a single LAPACK path.

``herm_eig`` and ``psd_sqrt`` test their input, for self-adjointness and
for negative eigenvalues, and so guard input from outside the package.
The Gram products the package forms itself (a*a, d*d, dd*) cannot fail
those tests; they take the bare bodies ``_eigh`` and ``_root`` that the
two functions call after their tests.

The tolerances of ``herm_eig`` and ``psd_sqrt`` are module constants;
every other tolerance is a parameter.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPSD, NotSelfAdjoint, Overflow
from .report import ConditionReport

DEFAULT_TOL = 1e-9

# herm_eig's self-adjointness tolerance and psd_sqrt's eigenvalue clamp,
# relative to the matrix norm: the rounding of <= 1e3 desk-scale products.
SELF_ADJOINT_TOL = 1e-10
PSD_CLAMP = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex ndarray (no copy when already one)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _scale_exponents(stack: np.ndarray) -> np.ndarray:
    """The e that brings the largest real or imaginary part, by modulus,
    of each matrix m of a stack (..., n, n) into [1/2, 1) as m 2^-e when
    that part leaves [2^-128, 2^128], the range where m's squares and their
    sums neither overflow nor underflow; 0 inside it, and for a zero or
    non-finite m.  An integer array of the stack's outer shape."""
    parts = (stack.real, stack.imag) if np.iscomplexobj(stack) else (stack,)
    top = 0.0
    for part in parts:  # the largest modulus from the extremes: no copy
        top = np.maximum(top, np.maximum(
            part.max(axis=(-2, -1), initial=0.0),
            -part.min(axis=(-2, -1), initial=0.0)))
    # frexp gives 0, +-inf and nan the exponent 0, and a top below 2^-128
    # an exponent below -127
    e = np.frexp(top)[1]
    return np.where((e < -127) | (top > 2.0 ** 128), e, 0)


def _scale_exponent(m: np.ndarray) -> int:
    """``_scale_exponents`` of one matrix m, as an int."""
    return int(_scale_exponents(m))


def _ldexp(m: np.ndarray, e) -> np.ndarray:
    """m 2^e for complex m, exact while no entry leaves the normal range;
    m itself for e = 0.  ``e`` is one exponent, or an array of one per
    matrix of a stack m."""
    e = np.asarray(e)
    if not e.any():
        return m
    m = np.ascontiguousarray(m, dtype=complex)
    e = e[..., None, None]
    return np.ldexp(m.view(float), e).view(complex)


def _int64_vector(values, name: str,
                  top: int = int(np.iinfo(np.int64).max)) -> np.ndarray:
    """Integers as a 1-d int64 array.  Overflow names the first value
    outside -top..top, one past the 64-bit range included."""
    try:
        vec = np.asarray(values, dtype=np.int64).reshape(-1)
    except OverflowError:  # a Python int no int64 holds
        vec = np.asarray(values, dtype=object).reshape(-1)
    outside = (vec > top) | (vec < -top)
    if outside.any():
        raise Overflow(f"{name} {vec[np.argmax(outside)]} is outside the "
                       f"range -{top} to {top}")
    return vec


def _is_integer(value) -> bool:
    """Whether a JSON value is an integer: an int or an integral float
    such as 2.0, not a true or false."""
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer())


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(np.asarray(m).conj(), -1, -2)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product trace(adjoint(a) @ b)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return complex(np.vdot(a, b))


def hs_norm(m: np.ndarray) -> float:
    """Frobenius norm (the norm induced by hs_inner)."""
    return float(np.linalg.norm(m))


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack of shape (..., n, n)."""
    # a contiguous copy, so that the float view of any strided input exists
    stack = np.ascontiguousarray(stack, dtype=complex)
    *outer, rows, cols = stack.shape
    flat = stack.reshape(*outer, rows * cols).view(float)
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack of shape (..., n, n),
    via the eigenvalues of adjoint(m) @ m, in one batched eigensolve.  A
    matrix whose largest part leaves [2^-128, 2^128] is squared as m 2^-e
    (``_scale_exponents``) and its norm scaled back by 2^e, exactly, so
    that its square neither overflows nor underflows; e = 0 inside."""
    stack = np.asarray(stack)
    e = _scale_exponents(stack)
    stack = _ldexp(stack, -e)
    top = np.linalg.eigvalsh(adjoint(stack) @ stack)[..., -1]
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), e)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value, via eigenvalues of adjoint(m) @ m."""
    return float(spectral_norms(as_matrix(m)))


def _as_matrices(m) -> np.ndarray:
    """Coerce to a complex square matrix or (m, n, n) stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(
            f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _raise_first(bad: np.ndarray, error: type, describe) -> None:
    """Raise ``error`` for the first matrix flagged in ``bad``, one flag for
    a matrix or one per matrix of a stack.  ``describe(i)`` words the fault
    at index i (``()`` for a matrix); a stack's message names i."""
    if bad.ndim == 0 and bad:
        raise error(describe(()))
    if bad.any():
        i = int(np.argmax(bad))
        raise error(f"matrix {i}: " + describe(i))


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The body of :func:`herm_eig`, without its test: the eigenpairs of
    (m + m*)/2, for a matrix or a stack."""
    return np.linalg.eigh((m + adjoint(m)) / 2.0)


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The body of :func:`psd_sqrt`, without its test: v diag(sqrt(w)) v*
    from eigenpairs, negative eigenvalues clamped to zero, symmetrised."""
    w = np.sqrt(np.clip(w, 0.0, None))
    s = (v * w[..., None, :]) @ adjoint(v)
    return (s + adjoint(s)) / 2.0


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a self-adjoint matrix, or of each matrix of an
    (m, n, n) stack in one batched call.

    Returns (w, v) with m = v @ diag(w) @ adjoint(v), eigenvalues ascending,
    v unitary.  Raises NotSelfAdjoint, naming the first offending matrix of
    a stack, when the defect norm of m - adjoint(m) exceeds tol * ||m||,
    tol = SELF_ADJOINT_TOL.
    """
    tol = SELF_ADJOINT_TOL
    m = _as_matrices(m)
    scale = spectral_norms(m)
    defect = spectral_norms(m - adjoint(m))
    _raise_first(defect > tol * scale, NotSelfAdjoint, lambda i:
                 f"self-adjointness defect {defect[i]:.3e} exceeds "
                 f"{tol:.1e} * {scale[i]:.3e}")
    return _eigh(m)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive square root of a PSD matrix, or of each matrix of a stack.

    Eigenvalues in [-tol * ||m||, 0), tol = PSD_CLAMP, are clamped to zero;
    anything more negative raises NotPSD, naming the first offending matrix
    of a stack.
    """
    tol = PSD_CLAMP
    w, v = herm_eig(m)
    scale = np.abs(w).max(axis=-1)
    _raise_first(w[..., 0] < -tol * scale, NotPSD, lambda i:
                 f"eigenvalue {w[i][0]:.3e} below -{tol:.1e} * {scale[i]:.3e}")
    return _root(w, v)


def is_partial_isometry(u: np.ndarray, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Check the five equivalent characterizations of a partial isometry.

    1. u is isometric on the orthogonal complement of its kernel and zero on
       the kernel, i.e. every eigenvalue of adjoint(u) @ u (the squared
       singular values) lies in {0, 1};
    2. the same for adjoint(u);
    3. adjoint(u) @ u is a projection;
    4. u @ adjoint(u) is a projection;
    5. u @ adjoint(u) @ u = u and adjoint(u) @ u @ adjoint(u) = adjoint(u).

    These agree exactly in theory; each is measured independently (the
    squared scale avoids the sqrt noise floor near zero) so a disagreement
    flags a numerical fault.
    """
    u = as_matrix(u)
    ustar = u.conj().T
    rep = ConditionReport("partial_isometry")

    p, f = ustar @ u, u @ ustar
    for label, sq in (("U", p), ("U*", f)):
        w = np.linalg.eigvalsh(sq)
        rep.add(f"squared singular values of {label} in {{0,1}}",
                float(np.minimum(np.abs(w), np.abs(w - 1.0)).max()), tol)
    for label, sq in (("U*U", p), ("UU*", f)):
        rep.add(f"{label} idempotent and self-adjoint",
                max(spectral_norm(sq @ sq - sq), spectral_norm(sq - sq.conj().T)),
                tol)

    rep.add("UU*U = U and U*UU* = U*",
            max(spectral_norm(u @ ustar @ u - u),
                spectral_norm(ustar @ u @ ustar - ustar)), tol)

    oks = [d.ok for d in rep.defects]
    if any(oks) and not all(oks):
        rep.note("characterizations disagree; suspect a numerical fault")
    return rep


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize as {"dim": n, "entries": [[[re, im], ...], ...]} row-major."""
    m = as_matrix(m)
    n = m.shape[0]
    entries = [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(n)]
               for i in range(n)]
    return {"dim": n, "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_json; bit-exact for finite 64-bit float
    entries.  Anything else, a NaN, an infinity, an integer beyond the
    float range or a JSON true or false too, and a "dim" that is no integer
    (``_is_integer``), raises DimensionMismatch naming the fault."""
    try:
        n, entries = obj["dim"], obj["entries"]
        square = (_is_integer(n) and n >= 1 and len(entries) == n
                  and all(len(row) == n for row in entries))
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed matrix object: {exc}") from exc
    if not _is_integer(n):
        raise DimensionMismatch(f'matrix "dim" must be an integer, got {n!r}')
    n = int(n)
    if not square:
        raise DimensionMismatch(f"entries do not form a {n}x{n} matrix")
    m = np.empty((n, n), dtype=complex)
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            try:
                re, im = entry
                if isinstance(re, bool) or isinstance(im, bool):
                    raise TypeError("a JSON true or false is no number")
                m[i, j] = complex(re, im)
            except (TypeError, ValueError) as exc:
                raise DimensionMismatch(
                    f"entry [{i}][{j}] is not a [re, im] pair of numbers, "
                    f"got {entry!r}") from exc
            except OverflowError:  # an integer beyond the float range
                m[i, j] = np.inf
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise DimensionMismatch(f"entry [{i}][{j}] is not a finite number, "
                                f"got {entries[i][j]!r}")
    return m
