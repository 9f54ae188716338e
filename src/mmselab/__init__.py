"""Numerical laboratory for divergence/estimation-error relations in
additive white Gaussian noise channels: scalar and N-tone signals, exact
and asymptotic error formulas, low-snr expansions, and independent
verification by a Kalman oracle and Monte Carlo."""

from .numerics import (
    DEFAULT_QUADRATURE,
    DIVERGENCE_QUADRATURE,
    DerivativeEstimate,
    NonConvergence,
    NonFinite,
    NumericsError,
    QuadratureConfig,
    StepUnderflow,
    ValueWithError,
    derivative_at_zero,
    integrate,
)
from .sources import (
    AmplitudeLaw,
    ScalarSource,
    ZeroVariance,
    builtin_sources,
    custom_source,
    expstd,
    from_atoms,
    gaussian,
    gaussian_mixture,
    gaussian_pair_amplitude,
    magnitude_law,
    parse_amplitude,
    parse_source,
    rademacher,
    standardize,
    uniform,
    unit_amplitude,
)
from .scalar_channel import (
    ScalarChannel,
    conditional_mean,
    d4_at_zero_from_moments,
    divergence_derivatives_from_moments,
    divergence_derivatives_at_zero,
    gaussian_mmse,
    mmse,
    mmse_taylor3,
    nongaussianity,
)
from .tone_channel import (
    ToneModel,
    cmmse_asymptotic,
    cmmse_exact,
    gaussian_cmmse,
    gaussian_mmse_tone,
    mmse_asymptotic,
    mmse_exact,
    tone_divergence,
    tone_errors,
)
from .ct_verify import (
    IllConditioned,
    KalmanSetup,
    McConfig,
    McEstimate,
    kalman_cmmse,
    kalman_mmse,
    mc_scalar_mmse,
)

__version__ = "0.1.0"
