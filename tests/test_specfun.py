"""Special-function tests: frozen oracle values, identities, domains."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
import references
from ellipcf import generators as gn
from ellipcf import specfun
from ellipcf.elliptical import closed_form_generator
from ellipcf.errors import ConvergenceError, DomainError
from ellipcf.specfun import (
    bessel_j,
    bessel_j_zero,
    bessel_k,
    dawson,
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

    def test_non_convergence_reported(self, monkeypatch):
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError):
            bessel_j(0.0, 11.0)

    @pytest.mark.parametrize("nu", [0.5, -0.5])
    def test_half_order_against_mpmath(self, nu):
        xs = np.random.default_rng(5).uniform(1e-3, 30.0, 6000).tolist()
        assert max(abs(bessel_j(nu, x) - float(mpmath.besselj(nu, x))) for x in xs) <= 1e-14


class TestBesselJRows:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.5, 2.5, 5.0, 7.3, -0.3])
    def test_within_2_ulp_of_bessel_j(self, nu):
        # seeded x on both sides of the series / Hankel-expansion switch at
        # max(12, 2|nu|), and the switch itself: every entry of J and of
        # Omega_nu = hyp0f1(nu + 1, -x^2/4) is the one-entry loop's, bit for
        # bit (x = 0 only where J_nu is finite there)
        switch = max(12.0, 2.0 * abs(nu))
        rng = np.random.default_rng(int(10 * nu) % 1000)
        edge = [0.0] if nu >= 0.0 else [np.nextafter(switch, 0.0)]
        x = np.concatenate([rng.uniform(0.0, switch, 400), rng.uniform(switch, 300.0, 400),
                            edge, [switch]])
        got = bessel_j(nu, x.reshape(2, -1)).ravel()
        want = np.array([references.bessel_j_loop(nu, v) for v in x.tolist()])
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == np.array([bessel_j(nu, v) for v in x.tolist()]).tobytes()
        z = -((0.5 * x) ** 2)
        want = [references.omega_loop(nu + 1.0, v, 2.0 * math.sqrt(-v)) for v in z.tolist()]
        assert hyp0f1(nu + 1.0, z).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.5, 5.0])
    def test_against_mpmath(self, nu):
        # seeded x on both sides of the switch at 12, and 12 itself.  The
        # largest errors are the Hankel expansion's at x = 12 (8.6e-13 at
        # nu = 1, 2.3e-12 at nu = 5) and the series' just below it (5e-13)
        rng = np.random.default_rng(int(10 * nu) + 7)
        x = np.concatenate([rng.uniform(0.0, 12.0, 150), rng.uniform(12.0, 300.0, 150), [12.0]])
        with mpmath.workdps(30):
            want = [float(mpmath.besselj(nu, mpmath.mpf(v))) for v in x.tolist()]
        assert np.abs(bessel_j(nu, x) - want).max() <= 3e-12

    def test_half_orders_in_closed_form(self):
        x = np.linspace(0.01, 50.0, 500)
        assert_allclose(bessel_j(0.5, x), np.sqrt(2.0 / (np.pi * x)) * np.sin(x), rtol=0, atol=1e-15)
        assert_allclose(bessel_j(-0.5, x), np.sqrt(2.0 / (np.pi * x)) * np.cos(x), rtol=0, atol=1e-15)

    def test_errors_as_bessel_j(self, monkeypatch):
        with pytest.raises(DomainError):
            bessel_j(0.0, [1.0, -1.0])
        with pytest.raises(DomainError):
            bessel_j(-0.5, [1.0, 0.0])
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError) as raised:
            bessel_j(0.0, [20.0, 11.0, 5.0])
        with pytest.raises(ConvergenceError) as scalar:
            bessel_j(0.0, 11.0)
        assert str(raised.value) == str(scalar.value)

    @pytest.mark.parametrize("nu", [0.5, -0.5, 0.3, -0.3, 1.5, 2.5])
    def test_subnormal_x_against_mpmath(self, nu):
        # the lead x^nu / (2^nu Gamma(nu + 1)) is formed from x itself: x/2
        # would round a subnormal x, or reach 0 (-0.3 at 5e-324 divided by it)
        x = [5e-324, 1.5e-323, 2.5e-323, 1e-310, 3e-308, 1e-300]
        with mpmath.workdps(40):
            want = np.array([float(mpmath.besselj(nu, mpmath.mpf(v))) for v in x])
        assert (np.abs([bessel_j(nu, v) for v in x] - want) <= 5e-16 * np.abs(want)).all()

    @pytest.mark.parametrize("nu", [0.5, -0.5])
    def test_half_orders_at_huge_x_against_mpmath(self, nu):
        # z = -x^2/4 is -inf past x ~ 2.7e154: the kernel's cos x and
        # sin(x)/x take x itself, and libm reduces it exactly
        x = [1e155, 1e200, 1e300]
        with mpmath.workdps(350):
            want = np.array([float(mpmath.besselj(nu, mpmath.mpf(v))) for v in x])
        assert (np.abs(bessel_j(nu, np.array(x)) - want) <= 5e-16 * np.abs(want)).all()

    def test_lead_overflow_names_nu_and_x(self):
        # where the lead's x^nu (past nu = 30, its log-gamma form) leaves the
        # float range, OverflowError names nu and the first such x, for a
        # float and in an array's order
        cases = [(2.0, 1e160, 1e160), (40.0, 2e9, 2e9),
                 (2.0, np.array([[1.0, 3e200], [1e160, 5.0]]), 3e200),
                 (40.0, np.array([1.0, 5e9, 2e9]), 5e9)]
        for nu, x, first in cases:
            with pytest.raises(OverflowError) as raised:
                bessel_j(nu, x)
            assert str(raised.value) == f"bessel_j(nu={nu}, x={first}): x^nu overflows the float range"

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 16: past the switch Omega_nu carries (x/2)^-nu, which leaves "
        "the normal range where (x/2)^nu > 2^1022, so J = lead times Omega_nu loses its "
        "digits: J_100(x) reads 0 from x = 3444",
    )
    def test_high_order_past_the_switch_against_mpmath(self):
        x = np.geomspace(3e3, 5e4, 12)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.besselj(100, mpmath.mpf(v))) for v in x.tolist()])
        assert np.abs([bessel_j(100.0, v) for v in x.tolist()] - want).max() <= 1e-12


class TestBesselJHighOrder:
    """Orders above 30, where the J series takes its lead in log-gamma form."""

    @pytest.mark.parametrize("nu, xs", [
        (30.5, [0.5, 5.0, 15.0]),
        (35.0, [0.5, 5.0, 15.0, 20.0]),
        (40.25, [0.5, 5.0, 15.0, 20.0]),
    ])
    def test_against_mpmath(self, nu, xs):
        for x in xs:
            ref = float(mpmath.besselj(nu, x))
            assert abs(bessel_j(nu, x) - ref) <= 5e-14 * abs(ref)
        rows = bessel_j(nu, np.array(xs))
        assert rows.tobytes() == np.array([bessel_j(nu, x) for x in xs]).tobytes()

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: just below the switch to the Hankel expansion the "
        "power series loses every digit with no report; bessel_j(35, 69.5) is "
        "1.97e8, and through hyp0f1 the uniform ball at n = 70, u = 69.5 prints "
        "2.38e-6 where the true value is -9.0e-16",
    )
    def test_uniform_ball_n70_closed_form(self):
        ref = float(mpmath.hyp0f1(36, -(69.5**2) / 4))
        got = closed_form_generator(gn.uniform_ball_generator(), 70, 69.5**2)
        assert abs(got - ref) <= 1e-12


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

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.75, 2.0, 3.7, 5.0, 7.5])
    def test_against_mpmath(self, nu):
        for k in range(1, 61):
            want = float(mpmath.besseljzero(nu, k))
            assert abs(bessel_j_zero(nu, k) - want) <= 5e-13 * want

    def test_independent_of_the_calls_before(self, monkeypatch):
        # a zero's secant steps depend on nu and k only, not on the block
        # of zeros it was computed with
        monkeypatch.setattr(specfun, "_JZERO_CACHE", {})
        in_order = [bessel_j_zero(2.0, k) for k in range(1, 71)]
        monkeypatch.setattr(specfun, "_JZERO_CACHE", {})
        assert bessel_j_zero(2.0, 70) == in_order[-1]
        assert [bessel_j_zero(2.0, k) for k in range(1, 71)] == in_order

    def test_no_convergence_names_the_zero(self, monkeypatch):
        # with the kernel Omega flat at 1, J is its lead x / 2, which has
        # no positive zero: the secant steps run to x = 0
        monkeypatch.setattr(specfun, "_JZERO_CACHE", {})
        monkeypatch.setattr(specfun, "_omega_rows", lambda gamma, z, x: (
            np.ones(len(x)), np.ones(len(x), dtype=bool), np.ones(len(x), dtype=int)))
        with pytest.raises(ConvergenceError, match=r"bessel_j_zero\(nu=1\.0, k=1\): "
                                                   "the secant steps did not converge"):
            bessel_j_zero(1.0, 3)

    def test_wrong_index_names_the_zero(self, monkeypatch):
        # with the kernel at x/2, J has its zeros at twice J_nu's: the steps
        # from the first zero's estimate 3.83 end far past the midpoint 5.42
        # to the second's
        monkeypatch.setattr(specfun, "_JZERO_CACHE", {})
        kernel = specfun._omega_rows
        monkeypatch.setattr(specfun, "_omega_rows",
                            lambda gamma, z, x: kernel(gamma, 0.25 * z, 0.5 * x))
        with pytest.raises(ConvergenceError, match=r"bessel_j_zero\(nu=1\.0, k=1\): "
                                                   "the secant steps ended at .*, outside"):
            bessel_j_zero(1.0, 3)

    def test_zeros_before_a_failure_are_kept(self, monkeypatch):
        # the kernel, and so J, fails past x = 12 here: the four zeros below
        # stay available, the fifth (14.93) raises
        monkeypatch.setattr(specfun, "_JZERO_CACHE", {})
        kernel = specfun._omega_rows

        def failing_past_12(gamma, z, x):
            values, converged, used = kernel(gamma, z, x)
            return values, converged & (x < 12.0), used

        monkeypatch.setattr(specfun, "_omega_rows", failing_past_12)
        assert bessel_j_zero(0.0, 4) == pytest.approx(float(mpmath.besseljzero(0, 4)), rel=5e-13)
        with pytest.raises(ConvergenceError, match=r"nu=0\.0, k=5\)"):
            bessel_j_zero(0.0, 5)


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

    # at half-integer orders the reduced order is -1/2, where both seeds of
    # the recurrence are the exact K_{1/2} = K_{-1/2}; a small x is the case
    # where a seed formed from (-1/2 + x) + 1/2 would round x away
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5, 4.5])
    def test_half_integer_orders_at_small_x(self, nu):
        for x in (1e-9, 1e-7, 1.2e-6, 1.0, 10.0):
            assert_allclose(bessel_k(nu, x), oracles.bessel_k_mp(nu, x), rtol=1e-15)

    def test_positive_and_domain(self):
        assert bessel_k(2.3, 0.01) > 0.0
        with pytest.raises(DomainError):
            bessel_k(1.0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(1.0, -2.0)
        with pytest.raises(DomainError, match="got -2.0"):
            bessel_k(1.0, np.array([1.0, -2.0, 3.0]))


class TestBesselKArrays:
    """bessel_k on arrays: Temme's series and Steed's fraction in lockstep."""

    ORDERS = [0.0, 0.3, 0.5, 1.0, 1.3, 1.5, 2.0, 2.7, 4.5, 7.0]

    @staticmethod
    def _grid():
        # seeded arguments on both sides of the switch at x = 2, 2 itself,
        # and the ends 1e-6 and 700
        rng = np.random.default_rng(32)
        return np.concatenate([[1e-6, 2.0, 700.0], rng.uniform(1e-3, 2.0, 40),
                               rng.uniform(2.0, 40.0, 40), np.geomspace(1e-6, 700.0, 40)])

    @pytest.mark.parametrize("nu", ORDERS)
    def test_against_mpmath(self, nu):
        x = self._grid()
        want = [oracles.bessel_k_mp(nu, v) for v in x.tolist()]
        assert_allclose(bessel_k(nu, x), want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("nu", ORDERS + [0.49, 2.51, 30.2])
    def test_bits_of_the_one_entry_loops(self, nu):
        x = self._grid()
        want = np.array([references.bessel_k_loop(nu, v) for v in x.tolist()])
        assert bessel_k(nu, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("nu", ORDERS)
    def test_entries_equal_one_entry_calls(self, nu):
        # an entry's bits do not depend on the batch around it
        x = self._grid()
        ones = np.array([bessel_k(nu, v) for v in x.tolist()])
        whole = bessel_k(nu, x.reshape(3, -1)).ravel()
        order = np.random.default_rng(3).permutation(len(x))
        shuffled = np.empty(len(x))
        shuffled[order] = bessel_k(nu, x[order])
        halves = np.concatenate([bessel_k(nu, x[:50]), bessel_k(nu, x[50:])])
        for got in (whole, shuffled, halves):
            assert got.tobytes() == ones.tobytes()

    def test_float_gives_float(self):
        assert type(bessel_k(1.3, 0.5)) is float
        assert type(bessel_k(1.3, 5.0)) is float
        assert bessel_k(1.3, np.array(0.5)) == bessel_k(1.3, 0.5)
        assert bessel_k(1.3, np.array([[0.5]])).shape == (1, 1)

    def test_overflow_is_inf_without_warning(self):
        # the forward recurrence overflows at a small x and a high order,
        # to inf as float arithmetic does (RuntimeWarnings are errors here)
        got = bessel_k(50.2, np.array([1e-300, 1.0]))
        assert got[0] == math.inf
        assert got[1] == bessel_k(50.2, 1.0) and math.isfinite(got[1])

    def test_no_convergence_names_the_entry(self):
        # Steed's fraction at an infinite x
        with pytest.raises(ConvergenceError, match=r"mu=0\.3, x=inf"):
            bessel_k(0.3, np.array([1.0, math.inf]))


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

    @pytest.mark.parametrize("gamma", [0.7, 1.0, 2.0, 3.5, 6.0])
    def test_against_mpmath(self, gamma):
        # seeded z on both sides of the switch to Bessel J at x = 12
        # (z = -36), -25 and z > 0: within 2e-13 of max(|0F1|, 1), the
        # largest at gamma = 0.7 on the series (5.6e-13 when z < -25 took
        # J's series and its lead (x/2)^nu / Gamma(nu + 1))
        rng = np.random.default_rng(int(10 * gamma))
        z = np.concatenate([rng.uniform(-25.0, 0.0, 150), rng.uniform(-2500.0, -25.0, 150),
                            rng.uniform(0.0, 50.0, 50), [-25.0]])
        with mpmath.workdps(30):
            want = np.array([float(mpmath.hyp0f1(gamma, mpmath.mpf(v))) for v in z.tolist()])
        assert (np.abs(hyp0f1(gamma, z) - want) <= 1e-12 * np.fmax(np.abs(want), 1.0)).all()

    def test_pole_parameter(self):
        with pytest.raises(DomainError):
            hyp0f1(0.0, 1.0)
        with pytest.raises(DomainError):
            hyp0f1(-3.0, 1.0)

    @pytest.mark.parametrize("gamma", [-0.5, -1.5, -2.7])
    def test_negative_gamma_past_the_switch_against_mpmath(self, gamma):
        # a gamma < 0 that is no pole takes Hankel's expansion at the order
        # gamma - 1 < -1 past J's switch, x = 12 here; the largest error,
        # 1.2e-11, is at gamma = -2.7 on the switch itself (z = -36)
        z = np.array([-36.0, -100.0, -1e4])
        with mpmath.workdps(30):
            want = np.array([float(mpmath.hyp0f1(gamma, mpmath.mpf(v))) for v in z.tolist()])
        assert (np.abs(hyp0f1(gamma, z) - want) <= 1e-10 * np.abs(want)).all()

    def test_positive_argument(self):
        assert_allclose(hyp0f1(2.0, 100.0), oracles.hyp0f1_series(2.0, 100.0, dps=60), rtol=1e-13)

    @pytest.mark.parametrize("gamma", [172.0, 200.0, 400.0])
    def test_large_gamma_below_the_switch_against_mpmath(self, gamma):
        # Gamma(gamma) overflows from gamma = 171.7, and no entry here needs
        # it: z = -x^2/4 with x seeded in (0, nu/8), below the switch at
        # 2 nu, where the series keeps 1e-14 (toward 2 nu it cancels, item 16)
        x = np.random.default_rng(int(gamma)).uniform(0.0, (gamma - 1.0) / 8.0, 200)
        z = np.concatenate([-((0.5 * x) ** 2), [-0.0, -5e-324]])
        with mpmath.workdps(40):
            want = np.array([float(mpmath.hyp0f1(gamma, mpmath.mpf(v))) for v in z.tolist()])
        assert (np.abs(hyp0f1(gamma, z) - want) <= 1e-14 * np.abs(want)).all()

    def test_large_gamma_past_the_switch(self):
        # Gamma(gamma) overflows from gamma = 171.62: past the switch the
        # kernel forms Gamma(gamma) (x/2)^(1 - gamma) in log-gamma form there,
        # so an entry Hankel's expansion sums reads its value (0 here: the
        # true one, 1.2e-463, is below the float range), and one it does not
        # sum raises by name (its value, -4.9e-213, is item 16's)
        with mpmath.workdps(30):
            assert abs(mpmath.hyp0f1(172, -1e9)) < mpmath.mpf("1e-460")
        assert hyp0f1(172, -1e9) == 0.0
        assert (hyp0f1(172, np.array([-1e9, -1e12])) == 0.0).all()
        with pytest.raises(ConvergenceError) as raised:
            hyp0f1(180, -1e6)
        assert str(raised.value) == "hyp0f1(gamma=180, z=-1000000.0) did not converge after 3 terms"

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 16: below the switch max(12, 2 nu) the series cancels, and "
        "past it Hankel's expansion stops after 3 terms; on the 12000-entry table "
        "1844 entries raise and 726 are more than 2e-13 off (worst 3.8e14)",
    )
    def test_omega_table_against_mpmath(self):
        # item 16's table, nu in {0, 0.5, ..., 99.5} by 60 log-spaced x in
        # [0.05, 1300], z = -x^2/4 formed in floats and given to mpmath as
        # that float: a seeded 2000 of its entries, of which 326 raise and
        # 122 are silently off
        nus, xs = np.arange(0.0, 100.0, 0.5), np.geomspace(0.05, 1300.0, 60)
        bad = []
        for i in np.sort(np.random.default_rng(16).choice(12000, 2000, replace=False)).tolist():
            gamma, z = nus[i // 60] + 1.0, -0.25 * xs[i % 60] * xs[i % 60]
            try:
                got = hyp0f1(gamma, z)
            except ConvergenceError:
                got = math.nan
            with mpmath.workdps(30):
                want = float(mpmath.hyp0f1(gamma, mpmath.mpf(z)))
            if not abs(got - want) <= 2e-13:
                bad.append((gamma, z))
        assert bad == []

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_half_order_bessel_branch_against_mpmath(self, gamma):
        # at gamma = 1/2 and 3/2, 0F1 at z = -x^2/4 < 0 is cos x and
        # sin(x)/x, the kernel at order -+1/2, past x = 10 as below it
        z = np.random.default_rng(29).uniform(-2500.0, -25.01, 400)
        with mpmath.workdps(30):
            want = [float(mpmath.hyp0f1(gamma, mpmath.mpf(v))) for v in z.tolist()]
        assert np.abs(hyp0f1(gamma, z) - want).max() <= 1e-14

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_half_order_before_the_switch_against_mpmath(self, gamma):
        # on z in [-25, 0) too, gamma = 1/2 and 3/2 take cos x and sin(x)/x,
        # where the series cancels to some 4e-13
        z = np.concatenate([-np.random.default_rng(30).uniform(0.0, 25.0, 3500),
                            [-25.0, -1e-12, -1e-300, -5e-324]])
        z = z[z < 0.0]
        with mpmath.workdps(30):
            want = [float(mpmath.hyp0f1(gamma, mpmath.mpf(v))) for v in z.tolist()]
        assert np.abs(hyp0f1(gamma, z) - want).max() <= 2e-15


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
        # a negative integer a is summed as the polynomial at z < 0 too,
        # where Kummer's transform would make it an infinite series that 500
        # terms do not reach past |z| = 500
        cases = [(-3.0, 2.0, -1e4), (-2.0, -0.5, -1e4), (-1.0, 0.5, -1e6), (-3.0, 2.0, -30.0),
                 (-7.0, 1.5, -0.3), (-12.0, 3.5, -800.0), (-4.0, 0.5, 25.0)]
        with mpmath.workdps(30):
            want = [float(mpmath.hyp1f1(a, c, z)) for a, c, z in cases]
        for (a, c, z), value in zip(cases, want):
            assert abs(hyp1f1(a, c, z) - value) <= 1e-14 * abs(value)
            assert hyp1f1(a, c, np.array([z, -z])).tolist() == [hyp1f1(a, c, z), hyp1f1(a, c, -z)]
        assert hyp1f1(-3.0, 2.0, -30.0) == 1621.0

    def test_pole_parameter(self):
        with pytest.raises(DomainError):
            hyp1f1(1.0, -2.0, 1.0)


class TestSeriesLoopBits:
    """0F1 and 1F1 on their series: an array's values are those of the
    one-entry loop (references.ratio_series_loop) bit for bit, and an array
    with entries that 500 terms do not stop raises the message of the first."""

    @staticmethod
    def assert_loop_bits(f, call, zs, loop):
        # loop(z) gives (value, terms) at each float z, terms None on failure
        got = [loop(z) for z in zs.tolist()]
        ok = np.array([terms is not None for _, terms in got])
        assert ok.any() and not ok.all()
        want = np.array([value for value, _ in got])
        assert f(zs[ok]).tobytes() == want[ok].tobytes()
        with pytest.raises(ConvergenceError) as raised:
            f(zs)
        first = float(zs[(~ok).argmax()])
        assert str(raised.value) == f"{call}, z={first}) did not converge after 500 terms"

    @pytest.mark.parametrize("gamma", [0.7, 2.0, 3.5, 41.0])
    def test_hyp0f1_series(self, gamma):
        # seeded z of both signs below J's switch max(12, 2|gamma - 1|) (at
        # z = -x^2/4), z = +-0 and z past 500 terms' reach (k >= 2 sqrt z)
        edge = 0.25 * max(12.0, 2.0 * abs(gamma - 1.0)) ** 2
        rng = np.random.default_rng(int(10 * gamma))
        zs = np.concatenate([[0.0, -0.0], rng.uniform(-0.99 * edge, 0.0, 300),
                             rng.uniform(0.0, 400.0, 300), [7e4, 2e5]])

        def loop(z):
            return references.ratio_series_loop(lambda k: z / (k * (gamma + (k - 1))),
                                                2.0 * math.sqrt(abs(z)))

        self.assert_loop_bits(lambda z: hyp0f1(gamma, z), f"hyp0f1(gamma={gamma}", zs, loop)

    @pytest.mark.parametrize("alpha, gamma", [(2.5, 1.5), (0.5, 3.0), (1.7, 1.0), (-1.5, 2.0),
                                              (3.0, 0.5), (0.3, -2.5)])
    def test_hyp1f1_series(self, alpha, gamma):
        # seeded z of both signs, z < 0 by Kummer's transform, z = +-0 and
        # |z| past 500 terms' reach (k >= |z|)
        rng = np.random.default_rng(int(10 * alpha) % 1000)
        zs = np.concatenate([[0.0, -0.0], rng.uniform(-300.0, 300.0, 400), [600.0, -700.0]])

        def loop(z):
            upper = gamma - alpha if z < 0.0 else alpha
            value, terms = references.ratio_series_loop(
                lambda k: (upper + (k - 1)) * abs(z) / ((gamma + (k - 1)) * k), abs(z))
            return (value * math.exp(z) if z < 0.0 else value), terms

        self.assert_loop_bits(lambda z: hyp1f1(alpha, gamma, z),
                              f"hyp1f1(alpha={alpha}, gamma={gamma}", zs, loop)


class TestArrayHypergeometric:
    """0F1 and 1F1 on arrays: an entry's value, or the error it raises, is
    that of its own float call whatever else is in the array."""

    ZS = np.concatenate([[0.0, -25.0, np.nextafter(-25.0, 0.0), 1e-300],
                         np.random.default_rng(29).uniform(-2500.0, 60.0, 600)])

    @staticmethod
    def singles(f, zs):
        out = []
        for z in zs.tolist():
            try:
                out.append(f(z))
            except ConvergenceError as exc:
                out.append(str(exc))
        return out

    @pytest.mark.parametrize("gamma", [0.5, 0.7, 1.5, 2.0, 3.5, 5.0])
    def test_hyp0f1_batch_independent(self, gamma):
        singles = self.singles(lambda z: hyp0f1(gamma, z), self.ZS)
        assert all(type(v) is float for v in singles)
        assert hyp0f1(gamma, self.ZS).tolist() == singles
        assert hyp0f1(gamma, self.ZS.reshape(4, -1)).ravel().tolist() == singles

    @pytest.mark.parametrize("alpha, gamma", [(2.5, 1.5), (2.0, 1.5), (3.5, 2.5), (1.7, 1.0),
                                              (0.5, 3.0), (-1.0, 2.0)])
    def test_hyp1f1_batch_independent(self, alpha, gamma):
        # past |z| = 500 the series cannot stop (it needs k >= |z|): those
        # entries fail alone, and the array names the first of them
        singles = self.singles(lambda z: hyp1f1(alpha, gamma, z), self.ZS)
        ok = np.array([type(v) is float for v in singles])
        assert hyp1f1(alpha, gamma, self.ZS[ok]).tolist() == [v for v, k in zip(singles, ok) if k]
        if not ok.all():
            with pytest.raises(ConvergenceError) as raised:
                hyp1f1(alpha, gamma, self.ZS)
            assert str(raised.value) == singles[(~ok).argmax()]

    def test_errors_name_the_entry(self):
        with pytest.raises(OverflowError, match="z = -inf"):
            hyp0f1(2.0, np.array([-1.0, -math.inf]))
        with pytest.raises(ConvergenceError, match=r"z=-900.0\) did not converge after 500 terms"):
            hyp1f1(2.5, 1.7, np.array([-1.0, -900.0, -1000.0]))


class TestNormCdfImag:
    def test_at_zero(self):
        assert norm_cdf_imag(0.0) == complex(0.5, 0.0)

    def test_frozen_erfi_oracle(self):
        val = norm_cdf_imag(1.0)
        assert val.real == 0.5
        assert_allclose(val.imag, 0.5 * ERFI_INV_SQRT2, rtol=1e-12)
        # Phi(i) = 1/2 + (i/2) erfi(1/sqrt(2)), against the Simpson oracle
        assert_allclose(
            2.0 * val.imag, oracles.erfi_integral(1.0 / math.sqrt(2.0)), rtol=1e-12
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
