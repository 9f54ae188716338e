import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmselab.numerics import (
    DEFAULT_QUADRATURE,
    NonConvergence,
    NonFinite,
    QuadratureConfig,
    StepUnderflow,
    derivative_at_zero,
    integrate,
    kl_integrand,
    kl_integrand_from_logs,
)

_SQRT_2PI = math.sqrt(2 * math.pi)


def normal_pdf(y):
    return math.exp(-0.5 * y * y) / _SQRT_2PI


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureConfig(tail_width=4.0)


def test_normal_density_normalizes():
    val, err = integrate(normal_pdf, (-math.inf, math.inf))
    assert val == pytest.approx(1.0, abs=1e-9)
    assert err <= 1e-9


def test_odd_moment_vanishes():
    val, _ = integrate(lambda y: y * normal_pdf(y), (-math.inf, math.inf))
    assert val == pytest.approx(0.0, abs=1e-9)


def test_second_moment_is_one():
    val, _ = integrate(lambda y: y * y * normal_pdf(y), (-math.inf, math.inf))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_radial_halfline_domain():
    # Rayleigh density r exp(-r^2/2) integrates to 1 on the half-line
    val, _ = integrate(lambda r: r * math.exp(-0.5 * r * r), (0.0, math.inf))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_integrate_deterministic():
    runs = [integrate(normal_pdf, (-8.0, 8.0)) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        integrate(normal_pdf, (2.0, 2.0))


def test_nonfinite_detected():
    with pytest.raises(NonFinite):
        integrate(lambda y: math.inf if y > 0.5 else 1.0, (0.0, 1.0))
    with pytest.raises(NonFinite):
        integrate(lambda y: math.nan, (0.0, 1.0))


def test_nonconvergence_on_rough_integrand():
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-18, max_subdivisions=3)
    with pytest.raises(NonConvergence):
        integrate(lambda y: abs(y - math.pi / 7) ** 0.2, (0.0, 1.0), cfg)


def test_derivative_simple_powers():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-18)
    est = derivative_at_zero(lambda q: q * q, 2, cfg)
    assert est.value == pytest.approx(2.0, abs=1e-8)
    est = derivative_at_zero(lambda q: q**4, 3, cfg)
    assert est.value == pytest.approx(0.0, abs=1e-6)
    est = derivative_at_zero(lambda q: q**4, 4, cfg)
    assert est.value == pytest.approx(24.0, abs=1e-4)


_COEFF = st.one_of(st.just(0.0), st.floats(0.01, 8.0), st.floats(-8.0, -0.01))


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(_COEFF, min_size=7, max_size=7),
    order=st.integers(1, 4),
)
def test_derivative_honest_on_polynomials(coeffs, order):
    # degree <= 6 polynomial: the tableau removes the whole truncation
    # series, so the estimate must sit inside the reported error bound
    poly = np.polynomial.Polynomial(coeffs)
    truth = math.factorial(order) * coeffs[order]
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-18)
    est = derivative_at_zero(
        lambda q: float(poly(q)), order, cfg, value_at_zero=float(coeffs[0])
    )
    assert abs(est.value - truth) <= 3.0 * est.error_estimate
    assert abs(est.value - truth) <= max(est.error_estimate, 1e-7)


def test_step_underflow_when_noise_declared_large():
    # g declared accurate to only 1% relative: a fourth difference on a
    # shrinking schedule is noise-dominated and must say so
    cfg = QuadratureConfig(rel_tol=1e-2, abs_tol=1e-6)
    with pytest.raises(StepUnderflow):
        derivative_at_zero(lambda q: 5.0 + q**4, 4, cfg, value_at_zero=5.0)


def test_derivative_input_validation():
    with pytest.raises(ValueError):
        derivative_at_zero(lambda q: q, 5)
    with pytest.raises(ValueError):
        derivative_at_zero(lambda q: q, 1, initial_step=-0.1)
    with pytest.raises(ValueError):
        derivative_at_zero(lambda q: q, 1, levels=1)


def test_kl_integrand_matches_plain_form():
    p, g = 0.31, 0.27
    expected = p * math.log(p / g) - p + g
    assert kl_integrand(p, g) == pytest.approx(expected, rel=1e-14)
    assert kl_integrand_from_logs(math.log(p), math.log(g)) == pytest.approx(
        expected, rel=1e-14
    )


def test_kl_integrand_nonnegative_and_limits():
    assert kl_integrand(0.0, 0.4) == pytest.approx(0.4)
    assert kl_integrand(0.4, 0.4) == 0.0
    assert kl_integrand_from_logs(-800.0, math.log(0.2)) == pytest.approx(0.2)
    assert kl_integrand_from_logs(math.log(0.2), -800.0) > 0


@settings(max_examples=60, deadline=None)
@given(
    log_p=st.floats(-600.0, 1.0),
    log_g=st.floats(-600.0, 1.0),
)
def test_kl_integrand_always_nonnegative(log_p, log_g):
    assert kl_integrand_from_logs(log_p, log_g) >= 0.0
