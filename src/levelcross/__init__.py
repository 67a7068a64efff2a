"""Expected density of complex level crossings of random sums.

Evaluates the closed-form density of solutions of S_N(z) = K for random sums
S_N(z) = sum_j (a_j + i b_j) f_j(z) with independent normal coefficients, and
verifies it against conditional-moment reconstruction, deterministic
quadrature of the expected zero count, and Monte Carlo zero counting.
"""

from .errors import (
    BoundaryHitError,
    ConfigurationError,
    ContractViolationError,
    DegenerateCovarianceError,
    DegeneratePointError,
    DiscardRateError,
)
from .model import (
    BasisFamily,
    CoefficientProfile,
    ComplexLevel,
    MonomialBasis,
    PrefixSumBasis,
    Rectangle,
    TabulatedBasis,
    TimeGrid,
    WeightedMonomialBasis,
    build_brownian_basis,
    validate_basis,
)
from .density import (
    DensityParts,
    DensityPartsGeneral,
    EqualVarianceParts,
    brownian_density,
    brownian_density_direct,
    conditioned_jacobian_density,
    diagonal_level_density,
    equal_variance_density,
    general_mean_density,
    moments_path_density,
    zero_level_density,
    zero_mean_density,
)
from .quadrature import QuadratureResult, integrate_density
from .zerocount import (
    MCEstimate,
    companion_matrix,
    count_zeros_companion,
    count_zeros_winding,
    estimate_expected_count,
)
from .rng import StreamKey, normal, standard_normal_block

__version__ = "0.1.0"

__all__ = [
    "BasisFamily",
    "BoundaryHitError",
    "CoefficientProfile",
    "ComplexLevel",
    "ConfigurationError",
    "ContractViolationError",
    "DegenerateCovarianceError",
    "DegeneratePointError",
    "DensityParts",
    "DensityPartsGeneral",
    "DiscardRateError",
    "EqualVarianceParts",
    "MCEstimate",
    "MonomialBasis",
    "PrefixSumBasis",
    "QuadratureResult",
    "Rectangle",
    "StreamKey",
    "TabulatedBasis",
    "TimeGrid",
    "WeightedMonomialBasis",
    "brownian_density",
    "brownian_density_direct",
    "build_brownian_basis",
    "companion_matrix",
    "conditioned_jacobian_density",
    "count_zeros_companion",
    "count_zeros_winding",
    "diagonal_level_density",
    "equal_variance_density",
    "estimate_expected_count",
    "general_mean_density",
    "integrate_density",
    "moments_path_density",
    "normal",
    "standard_normal_block",
    "validate_basis",
    "zero_level_density",
    "zero_mean_density",
]
