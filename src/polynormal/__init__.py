"""Polynomial-normal densities: characteristic functions, positivity
certification, and Gaussian-factor decomposition."""

from .errors import (
    ConditionFailed,
    DimensionMismatch,
    NegativeDensity,
    NoAdmissibleTheta,
    NotEligible,
    NotPositiveDefinite,
    NotSymmetric,
    NoWitnessFound,
    PolynormalError,
    QuadratureOrderTooLow,
    ThetaInadmissible,
    ZeroIntegral,
)
from .polyalg import (
    HermiteCoeffs,
    MultiIndex,
    Polynomial,
    affine_substitute,
    from_hermite,
    hermite_1d,
    theta_rescale,
    to_hermite,
)
from .pnd import (
    PND,
    MinimizationResult,
    QuadForm,
    SearchBudget,
    density,
    density_many,
    find_min_poly,
    integral_quadrature,
    make_pnd,
    make_quadform,
    minimize_polynomial,
)
from .charfn import (
    CharFn,
    cf_eval,
    cf_multiply,
    forward_cf,
    gaussian_cf,
    inverse_cf,
    inverse_cf_parts,
    make_charfn,
)
from .positivity import (
    PositivityReport,
    check_condition_337,
    epsilon_bound,
    estimate_inf_b,
    index_count,
    leading_axis_coeffs,
)
from .decompose import (
    Decomposition,
    Diagnosis,
    GaussianFactor,
    VERDICT_ELIGIBLE,
    VERDICT_FAILS_CONDITION_337,
    VERDICT_HAS_REAL_ZERO,
    decompose,
    precheck,
    theta_floor,
)
from .verify import (
    ConvReport,
    Example4Params,
    ProbeResult,
    Witness,
    biquadratic_factor_probe,
    convolution_check,
    example4_B,
    example4_B_exact,
    example4_B_from_density,
    example4_negative_witness,
    example4_witness_slice,
    validate_example4_params,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
