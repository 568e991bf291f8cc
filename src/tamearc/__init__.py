"""Exact tame symbols, divisors, deformation arcs, and identity certificates
on the affine plane and the projective line over Q.

Everything is exact rational arithmetic; randomness enters only through
explicit seeds for the generic-shear choice in intersection computations.
"""

from .errors import (
    CapabilityError,
    DivisionByZero,
    EpsDatumIrregular,
    EpsDegree,
    ExprSyntaxError,
    FactorIncomplete,
    InexactDivision,
    InputError,
    NotAUnit,
    NotAUnitAlongY,
    ProjectionDisagreement,
    RestrictionUndefined,
    ScopeError,
    TameArcError,
)
from .expr import parse_expr, parse_poly
from .factor import (
    ASSERTED,
    PROVED,
    FactorHints,
    Factorization,
    FactorTerm,
    factor_plane_curve,
    factor_univariate,
)
from .geometry import (
    A2,
    P1,
    ClosedPoint,
    Cycle,
    PrimeDivisor,
    ResidueFunc,
    Variety,
    canonical_point,
    div_codim1,
    div_on_curve,
    intersection_cycle,
    valuation,
)
from .gersten import (
    Certificate,
    HigherCycleRep,
    complex_check_q2,
    cycle_check,
    tame_boundary_certify,
    weil_check_p1,
)
from .ksymbols import (
    DoubleSES,
    DualMilnorSymbol,
    GGArc,
    K1Cycle,
    MilnorSymbol,
    arc_as_double_ses,
    arc_specialize,
    d_eps,
    div_k1,
    p1_component_norm,
    specialize_arcs,
    tame,
)
from .poly import (
    DualRatFunc,
    MultiPoly,
    RatFunc,
    poly_gcd,
    resultant,
)
from .tangent import (
    DiffForm,
    LocalCohClass,
    boundary_forms,
    d_form,
    diagram_check,
    dlog_dform,
    tangent2,
    tangent3,
    tangent_cocycle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
