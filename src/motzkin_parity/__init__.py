"""Exact enumeration of Motzkin paths with parity-dependent level-step
multiplicities, kernel-method closed forms, and holonomic tooling.

The count table in :mod:`motzkin_parity.paths` is the ground truth every
closed form and every derived relation is validated against.
"""

from .closedform import (
    KernelContext,
    even_level_series,
    f0_series,
    kernel_context,
    odd_level_series,
    open_series,
)
from .errors import (
    AlreadyHomogeneous,
    DegenerateDiscriminant,
    DivisorNotUnit,
    IndexBeyondOrder,
    InsufficientInitialTerms,
    InsufficientTerms,
    InternalInconsistency,
    LeadingCoeffVanishes,
    MotzkinParityError,
    NotQuadratic,
    NotUnitSquare,
    OrderTooSmall,
)
from .holonomic import (
    AlgebraicEq,
    LinearODE,
    PRecurrence,
    algeq_to_ode,
    guess_algebraic,
    guess_recurrence,
    homogenize_ode,
    ode_to_recurrence,
    rec_extend,
    rec_verify,
    series_root,
    verify_algebraic,
    verify_ode,
)
from .paths import (
    MODEL_A,
    MODEL_B,
    CountTable,
    StepModel,
    dp_table,
    level_series,
    open_series_dp,
)
from .series import Poly, Series, poly_div_exact, poly_divmod, poly_gcd

__version__ = "0.1.0"

__all__ = [
    "AlgebraicEq",
    "AlreadyHomogeneous",
    "CountTable",
    "DegenerateDiscriminant",
    "DivisorNotUnit",
    "IndexBeyondOrder",
    "InsufficientInitialTerms",
    "InsufficientTerms",
    "InternalInconsistency",
    "KernelContext",
    "LeadingCoeffVanishes",
    "LinearODE",
    "MODEL_A",
    "MODEL_B",
    "MotzkinParityError",
    "NotQuadratic",
    "NotUnitSquare",
    "OrderTooSmall",
    "PRecurrence",
    "Poly",
    "Series",
    "StepModel",
    "algeq_to_ode",
    "dp_table",
    "even_level_series",
    "f0_series",
    "guess_algebraic",
    "guess_recurrence",
    "homogenize_ode",
    "kernel_context",
    "level_series",
    "ode_to_recurrence",
    "odd_level_series",
    "open_series",
    "open_series_dp",
    "poly_div_exact",
    "poly_divmod",
    "poly_gcd",
    "rec_extend",
    "rec_verify",
    "series_root",
    "verify_algebraic",
    "verify_ode",
]
