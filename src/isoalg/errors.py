"""Exception types shared across the package."""

from __future__ import annotations


class IsoalgError(Exception):
    """Base class for all isoalg errors."""


class DimensionMismatch(IsoalgError):
    """Operands have incompatible shapes."""


class NotSelfAdjoint(IsoalgError):
    """A matrix expected to be self-adjoint is not, beyond tolerance."""


class NotPSD(IsoalgError):
    """A matrix has a significantly negative eigenvalue."""


class _ReportError(IsoalgError):
    """An error carrying the failing ConditionReport in ``report``."""

    def __init__(self, msg: str, report=None):
        super().__init__(msg)
        self.report = report


class InvalidBasis(_ReportError, ValueError):
    """A basis fails the *-algebra invariants (orthonormal, spans the
    identity, closed under adjoints and products).  Carries the
    ``star_algebra_invariants`` report in ``report``.  It is also a
    ValueError, so a caller that catches a bad basis as one still does.
    """


class NotPartialIsometry(_ReportError):
    """An operator fails the partial-isometry characterizations.

    Carries the full diagnostic report in ``report``.
    """


class ToleranceCollapse(IsoalgError):
    """A closure met a quantity in its ambiguous band (tol, 10*tol].

    Raised by either path of ``generate_closure``: the spectral path for an
    eigenvalue gap of its Hermitian combination in the band (the gap cannot
    be told from a repeated eigenvalue), the Gram-Schmidt closure for a
    candidate residual in the band (the candidate is neither clearly inside
    nor clearly outside the current span).  Either signals a generator set
    that is ill-conditioned at ``tol``.
    """


class HypothesisViolated(_ReportError):
    """A builder's or the norm limit's hypothesis failed; carries the failing
    report.  Checkers never raise it: a failed hypothesis is entries of their
    report."""


class NotCoefficientAlgebra(_ReportError):
    """Normal-form rewriting was requested on a system whose algebra is not
    a coefficient algebra, so the rewrite rules are unsound.  Carries the
    failing report.
    """


class CoefficientEscape(IsoalgError):
    """A rewritten coefficient left the coefficient algebra beyond tolerance."""


class SystemMismatch(IsoalgError):
    """Normal forms over different systems were combined."""


class NotUnimodular(IsoalgError):
    """Gauge parameter does not lie on the unit circle."""


class InsufficientResolution(IsoalgError):
    """Too few sample points to separate the degrees present."""


class Overflow(IsoalgError):
    """A coefficient's norm is not finite: it left the float range; or a
    degree left the 64-bit integer range."""


class ParseError(IsoalgError):
    """Expression text is not in the grammar.  ``position`` is the offset
    of the offending character."""

    def __init__(self, msg: str, position: int):
        super().__init__(f"{msg} (at position {position})")
        self.position = position


class UnknownGenerator(IsoalgError):
    """An identifier in an expression is not in the generator table."""


class PolarConditionViolated(IsoalgError):
    """a*adjoint(a) is not contained in the algebra generated by abs(a).

    Carries the membership defect in ``defect``.
    """

    def __init__(self, msg: str, defect: float):
        super().__init__(msg)
        self.defect = defect


class RhoConditionViolated(IsoalgError):
    """The weight function rho violates one of its standing requirements
    (negativity on the spectrum, or U*U rho(Q) != rho(Q))."""
