"""Special-function tests: frozen oracle values, identities, domains."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from ellipcf.errors import ConvergenceError, DomainError
from ellipcf.specfun import (
    SeriesControl,
    bessel_j,
    bessel_j_zero,
    bessel_k,
    dawson,
    erfi,
    gamma_fn,
    hyp0f1,
    hyp1f1,
    log_gamma_fn,
    norm_cdf_imag,
    norm_cdf_imag_scaled,
)

# frozen from the oracles in oracles.py
J0_FIRST_ZERO = 2.404825557695766  # bisect_zero on bessel_j_series
HYP1F1_2_15_M9 = -0.005101253396581814  # hyp1f1_series at 200 digits
ERFI_INV_SQRT2 = 0.953438269251261  # erfi_integral (Simpson)
K_32_AT_2 = 0.17990665795209218  # bessel_k_half_recurrence(1, 2.0)


class TestGamma:
    def test_standard_values(self):
        assert gamma_fn(1.0) == 1.0
        assert_allclose(gamma_fn(0.5), math.sqrt(math.pi), rtol=1e-15)
        assert gamma_fn(5.0) == 24.0

    def test_recurrence_property(self):
        rng = np.random.default_rng(101)
        for x in rng.uniform(0.1, 50.0, size=100):
            assert_allclose(gamma_fn(x + 1.0), x * gamma_fn(x), rtol=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(DomainError):
            gamma_fn(x)
        with pytest.raises(DomainError):
            log_gamma_fn(x)

    def test_log_gamma_large(self):
        assert_allclose(log_gamma_fn(300.0), math.lgamma(300.0), rtol=1e-15)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(2.5, 0.0) == 0.0

    def test_half_order_at_pi(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x vanishes at pi
        assert abs(bessel_j(0.5, math.pi)) < 1e-12

    def test_first_zero_of_j0(self):
        assert abs(bessel_j(0.0, J0_FIRST_ZERO)) < 1e-10

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 1.0, 2.5, 4.0])
    @pytest.mark.parametrize("x", [0.05, 1.0, 5.0, 11.9, 12.1, 30.0, 75.0])
    def test_against_series_oracle(self, nu, x):
        ref = oracles.bessel_j_series(nu, x)
        assert abs(bessel_j(nu, x) - ref) <= 2e-11 * max(1.0, abs(ref))

    def test_half_order_sine_identity(self):
        # |J_{1/2}(x) - sqrt(2/(pi x)) sin x| <= 1e-12 max(1, |sin x|)
        for x in np.linspace(0.01, 50.0, 500):
            target = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert abs(bessel_j(0.5, x) - target) <= 1e-12 * max(1.0, abs(math.sin(x)))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(0.0, -1.0)
        with pytest.raises(DomainError):
            bessel_j(-1.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j(-0.5, 0.0)

    def test_non_convergence_reported(self):
        with pytest.raises(ConvergenceError):
            bessel_j(0.0, 11.0, SeriesControl(rel_tol=1e-14, max_terms=3))


class TestBesselJZero:
    def test_first_j0_zero(self):
        assert abs(bessel_j_zero(0.0, 1) - J0_FIRST_ZERO) < 1e-9

    def test_half_order_zeros_exact(self):
        for k in (1, 2, 7, 50):
            assert bessel_j_zero(0.5, k) == k * math.pi
            assert bessel_j_zero(-0.5, k) == (k - 0.5) * math.pi

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.5, 5.0])
    def test_zeros_strictly_interlaced(self, nu):
        prev = bessel_j_zero(nu, 1)
        for k in range(2, 51):
            cur = bessel_j_zero(nu, k)
            assert cur > prev + 1.0
            prev = cur

    def test_zeros_are_zeros(self):
        for nu in (0.0, 1.7):
            for k in (1, 3, 10):
                assert abs(bessel_j(nu, bessel_j_zero(nu, k))) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_j_zero(-0.6, 1)
        with pytest.raises(DomainError):
            bessel_j_zero(0.0, 0)


class TestBesselK:
    def test_half_order_closed_form(self):
        assert_allclose(bessel_k(0.5, 1.0), math.sqrt(math.pi / 2.0) * math.exp(-1.0), rtol=1e-14)

    def test_even_in_order(self):
        assert bessel_k(-0.5, 1.0) == bessel_k(0.5, 1.0)

    def test_recurrence_oracle(self):
        assert_allclose(bessel_k(1.5, 2.0), K_32_AT_2, rtol=1e-13)
        assert_allclose(bessel_k(1.5, 2.0), oracles.bessel_k_half_recurrence(1, 2.0), rtol=1e-13)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.7])
    def test_symmetry_in_nu(self, nu):
        for x in np.geomspace(0.05, 20.0, 25):
            assert_allclose(bessel_k(nu, x), bessel_k(-nu, x), rtol=1e-12)

    def test_integral_route_against_recurrence(self):
        # integer order goes through the integral representation; pin it
        # against the half-integer recurrence neighbours via the Wronskian-free
        # monotonicity sandwich K_{3/2} > K_1 > K_{1/2} and a direct value
        assert bessel_k(0.5, 2.0) < bessel_k(1.0, 2.0) < bessel_k(1.5, 2.0)
        # reference from the defining integral with Simpson (independent)
        ref = oracles.simpson(
            lambda t: math.exp(-2.0 * math.cosh(t)) * math.cosh(t), 0.0, 8.0, 4000
        )
        assert_allclose(bessel_k(1.0, 2.0), ref, rtol=1e-11)

    # Temme's series serves x <= 2 and Steed's continued fraction x > 2, both
    # at the reduced order |mu| <= 1/2 (here 0, +-0.3, 0.2, +-0.49 and the
    # half-integer -1/2), then forward recurrence
    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.3, 2.0, 2.7, 4.2, 0.5, 1.5, 3.5, 0.49, 2.51])
    def test_against_mpmath_oracle(self, nu):
        xs = list(np.geomspace(1e-3, 60.0, 37)) + [1.9999999, 2.0, 2.0000001, 1.5, 2.5]
        for x in xs:
            assert_allclose(bessel_k(nu, x), oracles.bessel_k_mp(nu, x), rtol=1e-13)

    def test_positive_and_domain(self):
        assert bessel_k(2.3, 0.01) > 0.0
        with pytest.raises(DomainError):
            bessel_k(1.0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(1.0, -2.0)


class TestHyp0F1:
    def test_at_zero(self):
        assert hyp0f1(0.7, 0.0) == 1.0

    def test_sine_reduction(self):
        # 0F1(3/2; -x^2/4) = sin(x)/x at x = 1
        assert_allclose(hyp0f1(1.5, -0.25), math.sin(1.0), rtol=1e-14)
        assert_allclose(hyp0f1(1.5, -0.25), oracles.hyp0f1_series(1.5, -0.25), rtol=1e-14)

    def test_bessel_relation_n3(self):
        # 0F1(n/2+1; -x^2/4) = (x/2)^(-n/2) Gamma(n/2+1) J_{n/2}(x), n=3, x=2
        n, x = 3, 2.0
        lhs = hyp0f1(0.5 * n + 1.0, -0.25 * x * x)
        rhs = (0.5 * x) ** (-0.5 * n) * gamma_fn(0.5 * n + 1.0) * bessel_j(0.5 * n, x)
        assert_allclose(lhs, rhs, rtol=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
    def test_bessel_relation_sweep(self, nu):
        for x in np.linspace(0.3, 30.0, 40):
            lhs = hyp0f1(nu + 1.0, -0.25 * x * x) * (0.5 * x) ** nu / gamma_fn(nu + 1.0)
            rhs = bessel_j(nu, x)
            assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1e-3)

    def test_pole_parameter(self):
        with pytest.raises(DomainError):
            hyp0f1(0.0, 1.0)
        with pytest.raises(DomainError):
            hyp0f1(-3.0, 1.0)

    def test_positive_argument(self):
        assert_allclose(hyp0f1(2.0, 100.0), oracles.hyp0f1_series(2.0, 100.0, dps=60), rtol=1e-13)


class TestHyp1F1:
    def test_exponential_collapse(self):
        assert_allclose(hyp1f1(2.0, 2.0, 1.0), math.e, rtol=1e-15)

    def test_normal_generator_value(self):
        # 1F1(n/2; n/2; -u^2/2) = exp(-u^2/2) at u = 1
        assert_allclose(hyp1f1(1.5, 1.5, -0.5), math.exp(-0.5), rtol=1e-15)

    def test_frozen_200_digit_oracle(self):
        assert_allclose(hyp1f1(2.0, 1.5, -9.0), HYP1F1_2_15_M9, rtol=1e-12)

    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_exponential_identity_sweep(self, a):
        for z in np.linspace(-20.0, 20.0, 41):
            assert_allclose(hyp1f1(a, a, z), math.exp(z), rtol=1e-12)

    def test_kummer_transform_region(self):
        # large negative z: must agree with the brute high-precision series
        for (a, c, z) in [(3.0, 2.0, -40.0), (2.5, 1.5, -100.0), (1.0, 3.0, -15.0)]:
            assert_allclose(hyp1f1(a, c, z), oracles.hyp1f1_series(a, c, z), rtol=1e-11)

    def test_terminating_polynomial(self):
        # a = -1 terminates: 1F1(-1; c; z) = 1 - z/c
        assert_allclose(hyp1f1(-1.0, 2.0, 3.0), 1.0 - 3.0 / 2.0, rtol=1e-15)

    def test_pole_parameter(self):
        with pytest.raises(DomainError):
            hyp1f1(1.0, -2.0, 1.0)


class TestNormCdfImag:
    def test_at_zero(self):
        assert norm_cdf_imag(0.0) == complex(0.5, 0.0)

    def test_frozen_erfi_oracle(self):
        val = norm_cdf_imag(1.0)
        assert val.real == 0.5
        assert_allclose(val.imag, 0.5 * ERFI_INV_SQRT2, rtol=1e-12)
        assert_allclose(erfi(1.0 / math.sqrt(2.0)), ERFI_INV_SQRT2, rtol=1e-12)
        assert_allclose(
            erfi(1.0 / math.sqrt(2.0)), oracles.erfi_integral(1.0 / math.sqrt(2.0)), rtol=1e-12
        )

    def test_conjugation(self):
        for y in (0.3, 1.0, 4.2, 11.0):
            a = norm_cdf_imag(y)
            b = norm_cdf_imag(-y)
            assert a.real == 0.5 and b.real == 0.5
            assert a.real + b.real == 1.0
            assert a.imag == -b.imag

    def test_scaled_form_consistency(self):
        for y in (0.5, 2.0, 8.0):
            mant, log_scale = norm_cdf_imag_scaled(y)
            direct = norm_cdf_imag(y)
            assert_allclose(mant * math.exp(log_scale), direct, rtol=1e-12)
        assert norm_cdf_imag_scaled(40.0)[1] == 800.0  # no overflow in scaled form

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            norm_cdf_imag(60.0)

    def test_dawson_branches(self):
        # series/asymptotic agree across the switch at |x| = 6
        for x in (5.9, 6.0, 6.1):
            d_series = math.exp(-x * x) * oracles.simpson(
                lambda t: math.exp(t * t), 0.0, x, 40000
            )
            assert_allclose(dawson(x), d_series, rtol=1e-10)
        assert dawson(-1.0) == -dawson(1.0)


class TestArrayDawson:
    """The one array Dawson against mpmath (oracles.dawson_mp).

    The rtols are the measured maxima on these points, rounded up: 6.7e-16
    for dawson and 1.0e-15 for the mantissa's imaginary part, which adds
    the roundings of y/sqrt(2) and of the 1/sqrt(pi) scale.
    """

    POINTS = [
        0.0, 1e-300, -1e-300, 1e-8, -1e-8, 0.1, -0.1,
        math.nextafter(6.0, 0.0), 6.0, math.nextafter(6.0, 7.0), -6.0,  # old switch
        12.0, 40.0, 1e3, 1e150,
    ]
    DAWSON_RTOL = 1e-15
    MANTISSA_RTOL = 1.5e-15

    def grid(self):
        rng = np.random.default_rng(2026)
        return np.concatenate([self.POINTS, rng.uniform(-40.0, 40.0, 4000)])

    def test_against_mpmath(self):
        xs = self.grid()
        want = np.array([oracles.dawson_mp(x) for x in xs])
        assert_allclose(dawson(xs), want, rtol=self.DAWSON_RTOL, atol=0.0)

    def test_norm_cdf_imag_scaled_against_mpmath(self):
        ys = self.grid()[:-1]  # y^2/2 must stay finite
        ys = ys[np.abs(ys) < 1e3]
        mantissa, log_scale = norm_cdf_imag_scaled(ys)
        want_im = [oracles.dawson_mp(y / math.sqrt(2.0)) / math.sqrt(math.pi) for y in ys]
        assert_allclose(mantissa.imag, want_im, rtol=self.MANTISSA_RTOL, atol=0.0)
        assert_allclose(mantissa.real, 0.5 * np.exp(-0.5 * ys * ys), rtol=4.5e-16, atol=0.0)
        assert np.array_equal(log_scale, 0.5 * ys * ys)

    def test_shapes_and_scalars(self):
        xs = self.grid()[:60]
        flat = dawson(xs)
        square = dawson(xs.reshape(6, 10))
        assert square.shape == (6, 10) and np.array_equal(square.ravel(), flat)
        singles = [dawson(x) for x in xs.tolist()]
        assert all(type(v) is float for v in singles)
        assert singles == flat.tolist()  # bits do not depend on the batch
        mantissa, log_scale = norm_cdf_imag_scaled(0.7)
        assert type(mantissa) is complex and type(log_scale) is float
        assert norm_cdf_imag_scaled(np.array([0.7]))[0][0] == mantissa
        assert type(norm_cdf_imag(0.7)) is complex
        assert norm_cdf_imag(np.array([0.7]))[0] == norm_cdf_imag(0.7)

    def test_odd_and_edges(self):
        assert dawson(-0.0) == 0.0 and math.copysign(1.0, dawson(-0.0)) == 1.0
        assert dawson(math.inf) == 0.0 and dawson(-math.inf) == 0.0
        assert_allclose(dawson(1e300), 0.5e-300, rtol=4.5e-16)  # 1/(2x) past the cap
        xs = self.grid()
        assert np.array_equal(dawson(-xs), -dawson(xs))

    def test_non_finite_named(self):
        with pytest.raises(DomainError, match="got nan"):
            norm_cdf_imag_scaled(np.array([0.5, math.nan]))
        with pytest.raises(OverflowError, match="y=60.0"):
            norm_cdf_imag(np.array([1.0, 60.0]))
