import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmselab.numerics import (
    DEFAULT_QUADRATURE,
    NonConvergence,
    NonFinite,
    QuadratureConfig,
    StepUnderflow,
    derivative_at_zero,
    derivative_nodes,
    integrate,
    kl_integrand_from_logs,
)

_SQRT_2PI = math.sqrt(2 * math.pi)


def normal_pdf(y):
    return np.exp(-0.5 * y * y) / _SQRT_2PI


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


def test_normal_density_normalizes():
    val, err = integrate(normal_pdf, (-40.0, 40.0))
    assert val == pytest.approx(1.0, abs=1e-9)
    assert err <= 1e-9


def test_odd_moment_vanishes():
    val, _ = integrate(lambda y: y * normal_pdf(y), (-40.0, 40.0))
    assert val == pytest.approx(0.0, abs=1e-9)


def test_second_moment_is_one():
    val, _ = integrate(lambda y: y * y * normal_pdf(y), (-40.0, 40.0))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_radial_halfline_domain():
    # Rayleigh density r exp(-r^2/2) integrates to 1 on the half-line,
    # here cut at r = 40, where its tail is exp(-800)
    val, _ = integrate(lambda r: r * np.exp(-0.5 * r * r), (0.0, 40.0))
    assert val == pytest.approx(1.0, abs=1e-9)


def _narrow_normal(y):
    # sigma = 1e-3 around 0.3, tens of sigmas from every node of the
    # first pass on (-10, 10): only a breakpoint can reveal it
    return normal_pdf((y - 0.3) / 1e-3) / 1e-3


@pytest.mark.parametrize(
    "f, domain, breakpoints, expected",
    [
        (normal_pdf, (-40.0, 0.0), None, 0.5),
        (normal_pdf, (-1.0, 40.0), None, 0.8413447460685429),
        (lambda y: y**30, (0.0, 1.0), None, 1.0 / 31.0),
        (_narrow_normal, (-10.0, 10.0), (0.3 - 8e-3, 0.3, 0.3 + 8e-3), 1.0),
    ],
    ids=["lower-halfline", "upper-halfline", "kronrod-exact-polynomial", "narrow-peak"],
)
def test_integrate_known_values(f, domain, breakpoints, expected):
    val, err = integrate(f, domain, breakpoints=breakpoints)
    assert val == pytest.approx(expected, rel=1e-12)
    assert err <= max(DEFAULT_QUADRATURE.abs_tol, DEFAULT_QUADRATURE.rel_tol * abs(val))


def test_integrate_deterministic():
    runs = [integrate(normal_pdf, (-8.0, 8.0)) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        integrate(normal_pdf, (2.0, 2.0))


@pytest.mark.parametrize(
    "domain", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (0.0, math.nan)]
)
def test_infinite_domain_rejected(domain):
    # a domain is finite: a tailed integrand is cut where its tail is negligible
    with pytest.raises(ValueError, match="not a finite a < b"):
        integrate(normal_pdf, domain)


def test_nonfinite_detected():
    with pytest.raises(NonFinite):
        integrate(lambda y: np.where(y > 0.5, np.inf, 1.0), (0.0, 1.0))
    with pytest.raises(NonFinite):
        integrate(lambda y: np.full_like(y, np.nan), (0.0, 1.0))
    # one bad element of the array: the centre node of the first panel
    with pytest.raises(NonFinite, match="at x=0.0"):
        integrate(lambda y: np.where(y == 0.0, np.nan, 1.0), (-1.0, 1.0))


def test_nonconvergence_on_rough_integrand():
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-18, max_subdivisions=3)
    with pytest.raises(NonConvergence):
        integrate(lambda y: abs(y - math.pi / 7) ** 0.2, (0.0, 1.0), cfg)


def _laplace(y):
    return 0.5 * np.exp(-np.abs(y))


def test_vector_components_meet_their_own_tolerance():
    # scales 1e-200, 1 and 1e100 on one set of panels: each component is
    # held to rel_tol of its own value, with a breakpoint at the Laplace kink
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300)

    def f(y):
        return np.stack((1e-200 * normal_pdf(y), y * y * normal_pdf(y), 1e100 * _laplace(y)))

    val, err = integrate(f, (-40.0, 40.0), cfg, breakpoints=(0.0,))
    assert val.shape == err.shape == (3,)
    np.testing.assert_allclose(val, [1e-200, 1.0, 1e100], rtol=1e-12, atol=0.0)
    assert np.all(err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(val)))


def test_one_component_vector_returns_the_scalar_floats():
    f = lambda y: y * y * normal_pdf(y)  # noqa: E731
    scalar = integrate(f, (-40.0, 40.0))
    vector = integrate(lambda y: f(y)[None, :], (-40.0, 40.0))
    assert type(scalar.value) is float and type(scalar.error) is float
    assert vector.value.shape == (1,)
    assert (vector.value[0], vector.error[0]) == scalar


def test_vector_nonfinite_component_detected():
    with pytest.raises(NonFinite, match="at x=0.0"):
        integrate(lambda y: np.stack((normal_pdf(y), np.where(y == 0.0, np.nan, 1.0))), (-1.0, 1.0))


def test_vector_nonconvergence_names_the_component():
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-18, max_subdivisions=3)
    rough = lambda y: np.stack((np.ones_like(y), abs(y - math.pi / 7) ** 0.2))  # noqa: E731
    with pytest.raises(NonConvergence, match=r"\(component 1\)") as info:
        integrate(rough, (0.0, 1.0), cfg)
    assert info.value.component == 1
    with pytest.raises(NonConvergence) as info:
        integrate(lambda y: abs(y - math.pi / 7) ** 0.2, (0.0, 1.0), cfg)
    assert info.value.component is None


# -- the batch form of integrate -------------------------------------------


def _bump_family(centre, width, vector):
    """A Gaussian bump on a Laplace kink, or the pair (bump, y^2 bump) as a vector integrand."""

    def f(y):
        bump = np.exp(-0.5 * ((y - centre) / width) ** 2) + _laplace(y - 0.5 * centre)
        return np.stack((bump, y * y * bump)) if vector else bump

    return f


def _outcome(result):
    # a result's bits, or a failure's type and message
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    value, error = result
    return np.asarray(value).tobytes(), np.asarray(error).tobytes(), type(value)


def _lone(f, domain, cfg, breakpoints):
    # the lone call's result or failure, and the node count of each of its passes
    sizes = []

    def counted(y):
        sizes.append(y.size)
        return f(y)

    try:
        return integrate(counted, domain, cfg, breakpoints=breakpoints), sizes
    except (NonConvergence, NonFinite) as exc:
        return exc, sizes


_MEMBER = st.tuples(
    st.floats(-12.0, 0.0),  # a
    st.floats(0.5, 30.0),  # b - a
    st.floats(-5.0, 5.0),  # bump centre
    st.floats(0.01, 2.0),  # bump width
    st.booleans(),  # vector integrand
    st.booleans(),  # breakpoints at the bump and the kink
)


@settings(max_examples=60, deadline=None)
@given(
    members=st.lists(_MEMBER, min_size=1, max_size=6),
    budget=st.sampled_from((3, 12, 200)),
)
def test_batch_members_are_their_lone_calls_bit_for_bit(members, budget):
    # each member keeps its domain, breakpoints, panels, tolerance and
    # budget: its value and error bound, or its failure, are the lone call's
    cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-16, max_subdivisions=budget)
    fs, domains, breakpoints = [], [], []
    for a, length, centre, width, vector, kinks in members:
        fs.append(_bump_family(centre, width, vector))
        domains.append((a, a + length))
        kinks = (centre - 8 * width, centre, centre + 8 * width, 0.5 * centre) if kinks else None
        breakpoints.append(kinks)
    passes = []

    def batch_f(ys):
        passes.append([y.size for y in ys])
        return [f(y) for f, y in zip(fs, ys)]

    results = integrate(batch_f, domains, cfg, breakpoints=breakpoints)
    assert len(results) == len(members)
    sizes = np.array(passes)  # (passes, members): each member's nodes in each pass
    for f, domain, points, result, member in zip(fs, domains, breakpoints, results, sizes.T):
        lone, lone_sizes = _lone(f, domain, cfg, points)
        assert _outcome(result) == _outcome(lone)
        # the same nodes pass by pass, and none once the member has closed
        assert member.tolist() == lone_sizes + [0] * (len(passes) - len(lone_sizes))


def test_batch_member_over_its_budget_fails_alone():
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-18, max_subdivisions=2)
    rough = lambda y: abs(y - math.pi / 7) ** 0.2  # noqa: E731
    fs = [lambda y: y * y, rough, lambda y: np.stack((y, 1.0 + 0.0 * y))]
    domains = [(0.0, 1.0), (0.0, 3.0), (-1.0, 2.0)]
    results = integrate(lambda ys: [f(y) for f, y in zip(fs, ys)], domains, cfg)
    assert results[0] == integrate(fs[0], domains[0], cfg)
    assert _outcome(results[2]) == _outcome(integrate(fs[2], domains[2], cfg))
    failed = results[1]
    assert isinstance(failed, NonConvergence) and failed.component is None
    assert str(failed).endswith("on (0, 3)")
    with pytest.raises(NonConvergence) as info:
        integrate(rough, domains[1], cfg)
    assert str(info.value) == str(failed)


def test_batch_nonfinite_names_its_node():
    bad = lambda y: np.where(y == 0.0, np.nan, 1.0)  # noqa: E731
    fs = [normal_pdf, bad, bad]
    domains = [(-8.0, 8.0), (-1.0, 1.0), (-3.0, 1.0)]
    results = integrate(lambda ys: [f(y) for f, y in zip(fs, ys)], domains)
    assert results[0] == integrate(normal_pdf, domains[0])
    assert isinstance(results[1], NonFinite)
    assert str(results[1]) == "integrand returned nan at x=0.0"
    # the centre node of (-3, 1) is -1: its first pass never samples 0
    assert results[2] == integrate(bad, domains[2])


def test_batch_rejects_a_bad_domain():
    with pytest.raises(ValueError, match=r"\(1.0, 1.0\) is not a finite a < b"):
        integrate(lambda ys: ys, [(0.0, 1.0), (1.0, 1.0)])


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("step", [0.2, 0.05])
def test_derivative_nodes_are_the_q_the_tableau_requests(order, step):
    seen = []
    derivative_at_zero(lambda q: seen.append(q) or q**4, order, initial_step=step)
    assert tuple(sorted(seen)) == derivative_nodes((order,), step)
    assert len(set(seen)) == len(seen)
    # a set of orders shares its nodes: 14 for all four orders
    assert set(seen) <= set(derivative_nodes((1, 2, 3, 4), step))
    assert len(derivative_nodes((1, 2, 3, 4), step)) == 14


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
# Parents that agree by accident: once -1.56e-6 +- 1.6e-16 against 0, a
# StepUnderflow ("tableau accuracy 0"), and -6.8e-7 +- 2.6e-7 against 0.
@example(coeffs=[0.0, 0.0, 0.0, 0.0, 0.0, 1.9375, -5.0], order=1)
@example(coeffs=[-5.0, 0.0, 1.9375, 0.0, 0.0, 0.0, 0.0], order=1)
@example(coeffs=[0.0, 0.0, 0.0, 0.01171875, 0.0, -8.0, 1.0], order=1)
def test_derivative_honest_on_polynomials(coeffs, order):
    # degree <= 6 polynomial: the tableau removes the whole truncation
    # series, so the estimate must sit inside the reported error bound;
    # g - g(0) is accurate to 1e-14 of g, so to 1e-14 |g(0)| absolute
    poly = np.polynomial.Polynomial(coeffs)
    truth = math.factorial(order) * coeffs[order]
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-18 + 1e-14 * abs(coeffs[0]))
    est = derivative_at_zero(lambda q: float(poly(q)) - coeffs[0], order, cfg)
    assert abs(est.value - truth) <= 3.0 * est.error_estimate
    assert abs(est.value - truth) <= max(est.error_estimate, 1e-7)


def test_step_underflow_when_noise_declared_large():
    # g declared accurate to only 1% relative: a fourth difference on a
    # shrinking schedule is noise-dominated and must say so
    cfg = QuadratureConfig(rel_tol=1e-2, abs_tol=1e-6)
    with pytest.raises(StepUnderflow):
        derivative_at_zero(lambda q: (5.0 + q**4) - 5.0, 4, cfg)


def test_derivative_input_validation():
    with pytest.raises(ValueError):
        derivative_at_zero(lambda q: q, 5)
    with pytest.raises(ValueError):
        derivative_at_zero(lambda q: q, 1, initial_step=-0.1)


def test_kl_integrand_matches_plain_form():
    p, g = 0.31, 0.27
    expected = p * math.log(p / g) - p + g
    assert kl_integrand_from_logs(math.log(p), math.log(g)) == pytest.approx(
        expected, rel=1e-14
    )


def _kl_integrand_select_form(log_p, log_g):
    """Every case at every node, picked by ``np.select``."""
    g = np.exp(log_g)
    log_ratio = log_p - log_g
    delta = np.expm1(np.minimum(log_ratio, 30.0))
    series = np.zeros_like(delta)
    for k in range(8, 1, -1):
        series = series * delta + (-1) ** k / (k * (k - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.exp(log_p)
        return np.select(
            [log_ratio > 30.0, delta <= -1.0, np.abs(delta) < 1e-2],
            [p * log_ratio - p + g, g, g * delta * delta * series],
            g * ((1.0 + delta) * np.log1p(delta) - delta),
        )


def test_kl_integrand_computes_each_case_on_its_own_nodes_bit_for_bit():
    rng = np.random.default_rng(5)
    log_g = rng.uniform(-700.0, 2.0, (6, 2, 420))
    spreads = np.array([1e-4, 1e-2, 0.3, 3.0, 40.0, 800.0])[:, None, None]
    log_p = np.minimum(log_g + spreads * rng.standard_normal(log_g.shape), 5.0)
    log_p[rng.random(log_p.shape) < 0.05] = -np.inf
    log_ratio = log_p - log_g
    delta = np.expm1(np.minimum(log_ratio, 30.0))
    # log ratio > 30, p/g underflowed, the series and the closed form
    assert np.any(log_ratio > 30.0)
    assert np.any(np.isneginf(log_p))
    assert np.any((delta <= -1.0) & np.isfinite(log_p))
    assert np.any(np.abs(delta) < 1e-2)
    assert np.any((np.abs(delta) >= 1e-2) & (delta > -1.0) & (log_ratio <= 30.0))
    got = kl_integrand_from_logs(log_p, log_g)
    assert got.tobytes() == _kl_integrand_select_form(log_p, log_g).tobytes()
    assert np.all(got >= 0.0)
    for a, b in ((0.3, 0.1), (-np.inf, -1.0), (40.0, 2.0), (0.1, 0.1 + 1e-9)):
        assert kl_integrand_from_logs(a, b) == _kl_integrand_select_form(a, b)


def test_kl_integrand_nonnegative_and_limits():
    assert kl_integrand_from_logs(math.log(0.4), math.log(0.4)) == 0.0
    assert kl_integrand_from_logs(-800.0, math.log(0.2)) == pytest.approx(0.2)
    assert kl_integrand_from_logs(math.log(0.2), -800.0) > 0


@settings(max_examples=60, deadline=None)
@given(
    log_p=st.floats(-600.0, 1.0),
    log_g=st.floats(-600.0, 1.0),
)
def test_kl_integrand_always_nonnegative(log_p, log_g):
    assert kl_integrand_from_logs(log_p, log_g) >= 0.0
