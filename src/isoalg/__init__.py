"""Computational toolkit for operator algebras generated by a *-algebra and
a partial isometry: canonical normal forms, coefficient-algebra checkers,
extension builders, norm estimates and two worked operator models, all at
finite matrix scale."""

from .algebra import (
    FiniteStarAlgebra,
    IsometrySystem,
    check_coefficient_algebra,
    check_commutative_extendability,
    check_extendability,
    check_extension_towers,
    check_intertwining_equivalents,
    extend_delta,
    extend_delta_star,
    generate_closure,
    verify_power_identities,
)
from .errors import (
    CoefficientEscape,
    DimensionMismatch,
    HypothesisViolated,
    InsufficientResolution,
    InvalidBasis,
    IsoalgError,
    NotCoefficientAlgebra,
    NotPSD,
    NotPartialIsometry,
    NotSelfAdjoint,
    NotUnimodular,
    Overflow,
    ParseError,
    PolarConditionViolated,
    RhoConditionViolated,
    SystemMismatch,
    ToleranceCollapse,
    UnknownGenerator,
)
from .expr import parse
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    herm_eig,
    hs_inner,
    is_partial_isometry,
    matrix_from_json,
    matrix_to_json,
    psd_sqrt,
    spectral_norm,
)
from .models import (
    LoadedModel,
    PolarModel,
    QDeformModel,
    RhoSpec,
    backward_shift,
    build_polar_model,
    build_qdeform,
    constant_rho,
    heisenberg_rho,
    load_model,
    polar_decompose,
    polar_structure_suite,
    qdeform_relations_suite,
    sl2_rho,
    weighted_backward_shift,
)
from .normalform import (
    NormalForm,
    check_adjoint_intertwining,
    gauge,
    gauge_average,
    identity_form,
    left_coefficients,
    nf_add,
    nf_adjoint,
    nf_multiply,
    nf_scale,
    reduce,
    strip_power,
    zero_form,
)
from .norms import (
    NormLimitTrace,
    check_sum_norm_estimates,
    norm_limit,
    random_normal_form,
    random_normal_forms,
    sample_coefficient_bound,
)
from .report import ConditionReport, Defect

__version__ = "0.1.0"
