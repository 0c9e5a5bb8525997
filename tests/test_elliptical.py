"""Elliptical core tests: sphere CF, constants, closed forms, cf, dispersion."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellipcf import generators as gn
from ellipcf.elliptical import (
    CFMethod,
    Dispersion,
    EllipticalSpec,
    cf,
    closed_form_generator,
    normalizing_constant,
    radial_density,
    uniform_sphere_cf,
)
from ellipcf.errors import DomainError, NoClosedFormError
from ellipcf.quadrature import adaptive_interval
from ellipcf.specfun import bessel_j, gamma_fn, hyp0f1

J0_FIRST_ZERO = 2.404825557695766


def closed_families(n):
    """Named families with closed-form generators, valid in dimension n."""
    return [
        gn.normal_generator(),
        gn.uniform_ball_generator(),
        gn.generalized_t_generator(n, 2.0, 3),
        gn.generalized_t_generator(n, 1.0, 1),
        gn.pearson_ii_generator(1.0),
        gn.pearson_vii_generator(0.5 * n + 1.25, 1.5),
        gn.kotz_generator(2.0, 0.5, 1.0),
        gn.kotz_generator(1.0, 1.5, 0.5),
        gn.bessel_generator(0.75, 0.8),
    ]


class TestUniformSphereCF:
    def test_unit_at_origin(self):
        for n in range(1, 11):
            assert uniform_sphere_cf(n, 0.0) == 1.0

    def test_three_dim_sinc(self):
        for x in np.linspace(0.05, 12.0, 60):
            assert_allclose(uniform_sphere_cf(3, x * x), math.sin(x) / x, atol=1e-12)

    def test_two_dim_bessel_zero(self):
        assert abs(uniform_sphere_cf(2, J0_FIRST_ZERO**2)) < 1e-10

    def test_hyp0f1_form(self):
        for n in range(1, 11):
            for s in (1e-8, 1e-4, 0.5, 4.0, 100.0, 2500.0):
                assert (
                    abs(uniform_sphere_cf(n, s) - hyp0f1(0.5 * n, -0.25 * s)) <= 1e-11
                )

    def test_one_dim_cosine(self):
        # the sphere surface in R^1 is {-1, +1}: CF is cos t
        for x in (0.5, 2.0, 20.0):
            assert_allclose(uniform_sphere_cf(1, x * x), math.cos(x), atol=1e-12)


class TestNormalizingConstant:
    def test_normal(self):
        for n in (1, 2, 3, 5):
            assert_allclose(
                normalizing_constant(n, gn.normal_generator()),
                (2.0 * math.pi) ** (-0.5 * n),
                rtol=1e-13,
            )

    def test_uniform_ball(self):
        for n in (1, 2, 4):
            expect = n * gamma_fn(0.5 * n) / (2.0 * math.pi ** (0.5 * n))
            assert_allclose(normalizing_constant(n, gn.uniform_ball_generator()), expect, rtol=1e-13)

    def test_kotz(self):
        n, big_n, r, s = 3, 2.0, 0.5, 1.0
        q = (2.0 * big_n + n - 2.0) / (2.0 * s)
        expect = s * gamma_fn(0.5 * n) * r**q / (math.pi ** (0.5 * n) * gamma_fn(q))
        assert_allclose(
            normalizing_constant(n, gn.kotz_generator(big_n, r, s)), expect, rtol=1e-13
        )

    def test_custom_matches_named(self):
        custom = gn.custom_generator(lambda z: math.exp(-0.5 * z))
        assert_allclose(
            normalizing_constant(2, custom),
            normalizing_constant(2, gn.normal_generator()),
            rtol=1e-9,
        )

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            normalizing_constant(4, gn.pearson_vii_generator(1.5, 1.0))  # needs N > 2


class TestRadialDensity:
    def test_normal_one_dim_half_normal(self):
        spec = EllipticalSpec(1, [0.0], [[1.0]], gn.normal_generator())
        for v in (0.1, 1.0, 2.5):
            expect = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * v * v)
            assert_allclose(radial_density(spec, v), expect, rtol=1e-12)

    def test_uniform_ball_power_law(self):
        for n in (1, 2, 4):
            spec = EllipticalSpec(n, np.zeros(n), np.eye(n), gn.uniform_ball_generator())
            for v in (0.2, 0.7, 0.99):
                assert_allclose(radial_density(spec, v), n * v ** (n - 1), rtol=1e-12)
            assert radial_density(spec, 1.5) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_normalization_every_family(self, n):
        for gen in closed_families(n):
            spec = EllipticalSpec(n, np.zeros(n), np.eye(n), gen)
            if math.isfinite(gen.support_radius):
                hi = gen.support_radius
                val, _, _ = adaptive_interval(
                    lambda v: radial_density(spec, v), 0.0, hi, 1e-9, 1e-9, 3000,
                    seeds=tuple(np.linspace(hi / 16.0, hi * 0.999, 20)),
                )
            else:
                # v = x/(1-x) folds the whole half-line into [0, 1)
                val, _, _ = adaptive_interval(
                    lambda x: radial_density(spec, x / (1.0 - x)) / (1.0 - x) ** 2,
                    0.0,
                    1.0 - 1e-12,
                    1e-9,
                    1e-9,
                    3000,
                    seeds=tuple(np.linspace(0.05, 0.95, 19)),
                )
            assert abs(val - 1.0) < 1e-6, f"{gen.family} n={n}: integral {val}"

    def test_rank_deficient_rejected(self):
        spec = EllipticalSpec(2, [0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], gn.normal_generator())
        with pytest.raises(DomainError):
            radial_density(spec, 1.0)


class TestClosedFormGenerator:
    def test_cauchy_value(self):
        assert_allclose(
            closed_form_generator(gn.generalized_t_generator(2, 1.0, 1), 2, 4.0),
            math.exp(-2.0),
            rtol=1e-12,
        )

    def test_normal_value(self):
        assert_allclose(
            closed_form_generator(gn.normal_generator(), 2, 1.0), math.exp(-0.5), rtol=1e-14
        )

    def test_generalized_t_reduces_to_cauchy(self):
        for n in (1, 3):
            for q in (0.01, 0.1, 1.0, 4.0, 25.0):
                got = closed_form_generator(gn.generalized_t_generator(n, 1.0, 1), n, q)
                assert abs(got - math.exp(-math.sqrt(q))) <= 1e-12

    def test_pearson_vii_reduces_to_generalized_t(self):
        for (n, m, s) in [(2, 3, 2.0), (3, 1, 1.0), (5, 4, 0.6)]:
            for q in (0.01, 1.0, 25.0):
                pvii = closed_form_generator(gn.pearson_vii_generator(0.5 * (n + m), s), n, q)
                gent = closed_form_generator(gn.generalized_t_generator(n, s, m), n, q)
                assert abs(pvii - gent) <= 1e-12

    def test_bessel_at_origin(self):
        assert closed_form_generator(gn.bessel_generator(0.5, 2.0), 3, 0.0) == 1.0

    def test_unit_at_origin_all(self):
        for n in (1, 2, 5):
            for gen in closed_families(n):
                assert_allclose(closed_form_generator(gen, n, 0.0), 1.0, rtol=1e-13)

    def test_no_closed_form_status(self):
        with pytest.raises(NoClosedFormError):
            closed_form_generator(gn.kotz_generator(2.0, 0.5, 0.75), 2, 1.0)
        with pytest.raises(NoClosedFormError):
            closed_form_generator(gn.kotz_generator(2.0, 0.5, 0.5), 2, 1.0)  # s=1/2 needs N=1
        with pytest.raises(NoClosedFormError):
            closed_form_generator(gn.custom_generator(lambda z: math.exp(-z)), 2, 1.0)


class TestCF:
    def test_unit_at_origin(self):
        cauchy = gn.generalized_t_generator(3, 1.0, 1)
        spec = EllipticalSpec(3, [1.0, -2.0, 0.5], np.diag([1.0, 2.0, 0.5]), cauchy)
        val = cf(spec, np.zeros(3))
        assert val.re == 1.0 and val.im == 0.0

    def test_normal_with_location(self):
        spec = EllipticalSpec(2, [1.0, 0.0], np.eye(2), gn.normal_generator())
        val = cf(spec, [1.0, 0.0])
        expect = complex(math.cos(1.0), math.sin(1.0)) * math.exp(-0.5)
        assert_allclose([val.re, val.im], [expect.real, expect.imag], rtol=1e-14)

    def test_pearson_ii_dual_forms(self):
        # Bessel-J form vs the 0F1 form on a Q grid
        for n in (1, 2, 3, 5):
            for m in (0.0, 1.0, 2.0):
                b = 0.5 * n + m
                for q in (0.01, 0.1, 1.0, 4.0, 25.0):
                    u = math.sqrt(q)
                    jform = 2.0**b * gamma_fn(b + 1.0) * u ** (-b) * bessel_j(b, u)
                    f1form = closed_form_generator(gn.pearson_ii_generator(m), n, q)
                    assert abs(jform - f1form) <= 1e-10

    def test_route_selection(self):
        spec = EllipticalSpec(2, np.zeros(2), np.eye(2), gn.kotz_generator(2.0, 0.5, 0.75))
        with pytest.raises(NoClosedFormError):
            cf(spec, [1.0, 0.0], route="closed")
        val = cf(spec, [1.0, 0.0], route="auto")
        assert val.method is CFMethod.HANKEL
        assert val.abs_err is not None

    def test_hermitian_modulus_real(self):
        rng = np.random.default_rng(55)
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        for gen in closed_families(2):
            spec = EllipticalSpec(2, np.zeros(2), sigma, gen)
            for _ in range(20):
                t = rng.normal(size=2) * 2.0
                a = cf(spec, t)
                b = cf(spec, -t)
                assert abs(a.value) <= 1.0 + 1e-12
                assert abs(a.value - b.value.conjugate()) <= 1e-12
                assert abs(a.im) <= 1e-12  # mu = 0: real CF

    def test_rank_deficient_cf_allowed(self):
        spec = EllipticalSpec(2, np.zeros(2), [[1.0, 0.0], [0.0, 0.0]], gn.normal_generator())
        val = cf(spec, [0.0, 3.0])  # degenerate direction: CF = 1
        assert_allclose(val.re, 1.0, rtol=1e-13)


class TestMatrixRoots:
    """Roots of a validated Dispersion: A'A = Sigma (Cholesky) and S @ S = Sigma."""

    def test_identity(self):
        d = Dispersion(np.eye(3))
        assert_allclose(d.chol_factor(), np.eye(3), atol=1e-14)
        assert_allclose(d.sym_root, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        assert_allclose(Dispersion(np.diag([4.0, 9.0])).sym_root, np.diag([2.0, 3.0]), atol=1e-13)

    def test_random_psd_roundtrip(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5))
        sigma = m @ m.T
        d = Dispersion(sigma)
        a, s = d.chol_factor(), d.sym_root
        assert np.abs(a.T @ a - sigma).max() < 1e-10
        assert np.abs(s @ s - sigma).max() < 1e-10

    def test_rank_deficient(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        d = Dispersion(sigma)
        s = d.sym_root
        assert np.abs(s @ s - sigma).max() < 1e-10
        with pytest.raises(DomainError):
            d.chol_factor()

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            Dispersion(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSpecValidation:
    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            EllipticalSpec(2, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], gn.normal_generator())

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            EllipticalSpec(2, [0.0], np.eye(2), gn.normal_generator())
        with pytest.raises(DomainError):
            EllipticalSpec(2, np.zeros(2), np.eye(3), gn.normal_generator())
        with pytest.raises(DomainError):
            EllipticalSpec(3, np.zeros(3), np.eye(3), gn.generalized_t_generator(2, 1.0, 1))

    def test_pearson_vii_dimension_bound(self):
        with pytest.raises(DomainError):
            EllipticalSpec(4, np.zeros(4), np.eye(4), gn.pearson_vii_generator(1.75, 1.0))

    def test_custom_divergent_moment_rejected(self):
        heavy = gn.custom_generator(lambda z: (1.0 + z) ** (-0.75))
        with pytest.raises(DomainError):
            EllipticalSpec(2, np.zeros(2), np.eye(2), heavy)

    def test_custom_negative_rejected(self):
        with pytest.raises(DomainError):
            gn.custom_generator(lambda z: math.cos(z))

    def test_rank_recorded(self):
        spec = EllipticalSpec(3, np.zeros(3), np.diag([1.0, 1.0, 0.0]), gn.normal_generator())
        assert spec.dispersion.rank == 2
        with pytest.raises(DomainError):
            spec.dispersion.chol_factor()
