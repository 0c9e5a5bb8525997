"""Elliptical core tests: sphere CF, constants, closed forms, cf, dispersion."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from ellipcf import generators as gn
from ellipcf import quadrature
from ellipcf.elliptical import (
    CFMethod,
    Dispersion,
    EllipticalSpec,
    _rotate,
    cf,
    char_generator_rows,
    closed_form_generator,
    radial_density,
)
from ellipcf.errors import DomainError, NoClosedFormError
from ellipcf.quadrature import _moment_n, adaptive_interval
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
    """The CF of the uniform law on the unit sphere of R^n at s = ||t||^2,
    Omega_(n/2-1)(||t||) = 0F1(; n/2; -s/4): hyp0f1(n/2, -s/4)."""

    def test_unit_at_origin(self):
        for n in range(1, 11):
            assert hyp0f1(0.5 * n, 0.0) == 1.0

    def test_three_dim_sinc(self):
        for x in np.linspace(0.05, 12.0, 60):
            assert_allclose(hyp0f1(1.5, -0.25 * x * x), math.sin(x) / x, atol=1e-12)

    def test_two_dim_bessel_zero(self):
        assert abs(hyp0f1(1.0, -0.25 * J0_FIRST_ZERO**2)) < 1e-10

    def test_hyp0f1_form(self):
        # the 0F1 evaluation against the Gamma (2/x)^nu J_nu form in mpmath
        for n in range(1, 11):
            for s in (1e-8, 1e-4, 0.5, 4.0, 100.0, 2500.0):
                assert abs(hyp0f1(0.5 * n, -0.25 * s) - oracles.sphere_cf_bessel(n, s)) <= 1e-11

    def test_against_mpmath(self):
        # the 0F1 form itself, from an mpmath series
        for n in (1, 2, 3, 5, 8):
            for x in np.linspace(0.05, 60.0, 120):
                want = oracles.hyp0f1_series(0.5 * n, -0.25 * x * x)
                assert abs(hyp0f1(0.5 * n, -0.25 * x * x) - want) <= 1e-11

    def test_one_dim_cosine(self):
        # the sphere surface in R^1 is {-1, +1}: CF is cos t
        for x in (0.5, 2.0, 20.0):
            assert_allclose(hyp0f1(0.5, -0.25 * x * x), math.cos(x), atol=1e-12)


class TestNormalizingConstant:
    """The moment integral M_n = int_0^inf z^(n/2-1) g(z) dz behind every
    normalization 2/M_n (_moment_n)."""

    def test_normal(self):
        for n in (1, 2, 3, 5):
            assert_allclose(
                _moment_n(gn.normal_generator(), n), 2.0 ** (0.5 * n) * gamma_fn(0.5 * n), rtol=1e-13
            )

    def test_uniform_ball(self):
        for n in (1, 2, 4):
            assert_allclose(_moment_n(gn.uniform_ball_generator(), n), 2.0 / n, rtol=1e-13)

    def test_kotz(self):
        n, big_n, r, s = 3, 2.0, 0.5, 1.0
        q = (2.0 * big_n + n - 2.0) / (2.0 * s)
        expect = gamma_fn(q) / (s * r**q)
        assert_allclose(_moment_n(gn.kotz_generator(big_n, r, s), n), expect, rtol=1e-13)

    def test_custom_matches_named(self):
        custom = gn.custom_generator(lambda z: math.exp(-0.5 * z))
        assert_allclose(_moment_n(custom, 2), _moment_n(gn.normal_generator(), 2), rtol=1e-9)

    def test_divergent_rejected(self):
        with pytest.raises(DomainError, match=r"^moment integral M_n diverges at n = 4$"):
            _moment_n(gn.pearson_vii_generator(1.5, 1.0), 4)  # needs N > 2

    @pytest.mark.parametrize("n", [340, 344, 400])
    def test_overflow_named_as_overflow(self, n):
        # 2^(n/2) Gamma(n/2) is finite, but past the float range (n = 340),
        # or math.gamma overflows itself (n >= 344): an OverflowError, which
        # fails every Hankel row; a Pearson VII with N <= n/2 still diverges
        rows = quadrature.phi_hankel_rows(gn.normal_generator(), n, [1.0, 2.0])
        assert sorted(rows.failures) == [0, 1]
        for exc in rows.failures.values():
            assert type(exc) is OverflowError
            assert str(exc) == f"moment integral M_n overflows the float range at n = {n}"
        for big_n in (0.5 * n, 0.25 * n):
            with pytest.raises(DomainError, match=f"^moment integral M_n diverges at n = {n}$"):
                _moment_n(gn.pearson_vii_generator(big_n, 1.0), n)


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
        # the t is Pearson VII with N = (n+m)/2: every part of its record is
        # that family's, bit for bit
        z = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 200)])
        for n in (1, 2, 3, 5):
            for m in (1, 3, 4):
                t = gn.generalized_t_generator(n, 2.5, m)
                p7 = gn.pearson_vii_generator(0.5 * (n + m), 2.5)
                for part in ("g", "g_prime"):
                    assert getattr(t, part)(z).tobytes() == getattr(p7, part)(z).tobytes()
                for d in np.arange(1.0, n + m, 0.5).tolist():
                    assert t.finite(d) and t.moment(d) == p7.moment(d)
                assert not t.finite(float(n + m)) and not p7.finite(float(n + m))
                draws = [gen.radius(n, 1000, np.random.default_rng(11)) for gen in (t, p7)]
                assert draws[0].tobytes() == draws[1].tobytes()
                assert t.closed_form(n, z).tobytes() == p7.closed_form(n, z).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_pearson_vii_half_integer_order_near_origin(self, n):
        # odd n puts K at a half-integer order, and a small u makes its
        # argument small, where the recurrence's seeds must be exact
        q = 1e-12  # u = 1e-6
        got = closed_form_generator(gn.pearson_vii_generator(6.0, 1.5), n, q)
        assert_allclose(got, oracles.pearson_vii_phi_mp(n, 6.0, 1.5, q), rtol=1e-15)

    def test_bessel_at_origin(self):
        assert closed_form_generator(gn.bessel_generator(0.5, 2.0), 3, 0.0) == 1.0

    def test_unit_at_origin_all(self):
        for n in (1, 2, 5):
            for gen in closed_families(n):
                assert_allclose(closed_form_generator(gen, n, 0.0), 1.0, rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_array_form_batch_independent(self, n):
        # q = 0, both sides of 0F1's switch to Bessel J at q = 100, and 1F1
        # series of up to 200 terms: each entry is its one-entry call
        qs = np.concatenate([[0.0, 100.0, np.nextafter(100.0, 200.0)],
                             np.random.default_rng(n).uniform(0.0, 400.0, 300)])
        for gen in closed_families(n):
            got = gen.closed_form(n, qs)
            assert got.tolist() == [closed_form_generator(gen, n, q) for q in qs.tolist()]

    def test_no_closed_form_fails_every_row(self):
        qs = np.array([0.0, 1.0, 4.0, 200.0])
        for gen in (gn.kotz_generator(2.0, 0.5, 0.75), gn.custom_generator(lambda z: math.exp(-z))):
            values, _, failures = char_generator_rows(gen, 2, qs)
            assert np.isnan(values).all() and sorted(failures) == [0, 1, 2, 3]
            assert all(isinstance(exc, NoClosedFormError) for exc in failures.values())

    def test_no_closed_form_status(self):
        with pytest.raises(NoClosedFormError):
            closed_form_generator(gn.kotz_generator(2.0, 0.5, 0.75), 2, 1.0)
        with pytest.raises(NoClosedFormError):
            closed_form_generator(gn.kotz_generator(2.0, 0.5, 0.5), 2, 1.0)  # s=1/2 needs N=1
        with pytest.raises(NoClosedFormError):
            closed_form_generator(gn.custom_generator(lambda z: math.exp(-z)), 2, 1.0)

    # dyadic q and r make 1 + q/r^2 exact, so the power's condition number
    # (n+1)/2 multiplies no rounding of its base
    @pytest.mark.parametrize("n", [148, 168, 170, 200])
    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_kotz_half_at_high_dimension(self, n, r):
        self._check_kotz_half(n, r, [0.0625, 0.25, 1.0, 4.0, 9.0])

    @pytest.mark.parametrize("n", [2, 200])
    def test_kotz_half_at_huge_r(self, n):
        self._check_kotz_half(n, 1e200, [0.25, 1.0, 1e6])

    @staticmethod
    def _check_kotz_half(n, r, qs):
        # against Gradshteyn & Ryzhik's form, gamma factors and all:
        # 2^(n-1) Gamma(n/2) Gamma((n+1)/2) r^(n+1) / (sqrt(pi) Gamma(n) (r^2 + q)^((n+1)/2))
        got = gn.kotz_generator(1.0, r, 0.5).closed_form(n, np.array(qs))
        with mpmath.workdps(50):
            mr, half = mpmath.mpf(r), mpmath.mpf(n + 1) / 2
            want = [float(2 ** (n - 1) * mpmath.gamma(mpmath.mpf(n) / 2) * mpmath.gamma(half)
                          * mr ** (n + 1) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(n)
                                             * (mr**2 + mpmath.mpf(q)) ** half)) for q in qs]
        assert_allclose(got, want, rtol=1e-15, atol=0)


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
        val = cf(spec, [1.0, 0.0], route="hankel")
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
    """The one root of a validated Dispersion: S @ S = Sigma, S symmetric."""

    def test_identity(self):
        d = Dispersion(np.eye(3))
        assert_allclose(d.sym_root, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        assert_allclose(Dispersion(np.diag([4.0, 9.0])).sym_root, np.diag([2.0, 3.0]), atol=1e-13)

    def test_random_psd_roundtrip(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5))
        sigma = m @ m.T
        d = Dispersion(sigma)
        s = d.sym_root
        assert d.rank == 5
        assert np.array_equal(s, s.T)
        assert np.abs(s @ s - sigma).max() < 1e-10

    def test_rank_deficient(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        d = Dispersion(sigma)
        s = d.sym_root
        assert np.abs(s @ s - sigma).max() < 1e-10
        assert d.rank == 1
        with pytest.raises(DomainError):
            d.inv_sym_root()

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

    def test_custom_g_error_keeps_its_message(self):
        # an error raised by g inside the moment integral is not a divergence
        def g(z):
            if z > 1e4:
                raise DomainError("g: z past 1e4")
            return (1.0 + z) ** -3

        with pytest.raises(DomainError, match=r"^g: z past 1e4$"):
            EllipticalSpec(2, np.zeros(2), np.eye(2), gn.custom_generator(g))

    def test_custom_infinite_moment_diverges(self):
        def g(z):
            return math.inf if z > 1e4 else (1.0 + z) ** -3

        with pytest.raises(DomainError, match=r"moment integral diverges \(checked numerically\)"):
            EllipticalSpec(2, np.zeros(2), np.eye(2), gn.custom_generator(g))

    def test_custom_moment_computed_once(self, monkeypatch):
        # the dimension check fills the cache that _moment_n reads
        gen = gn.custom_generator(lambda z: math.exp(-0.5 * z))
        EllipticalSpec(3, np.zeros(3), np.eye(3), gen)
        assert ("moment", 3.0) in gen.moment_cache
        monkeypatch.setattr(quadrature, "moment_integral", None)  # a second run would fail
        assert _moment_n(gen, 3) == gen.moment_cache[("moment", 3.0)]

    def test_custom_negative_rejected(self):
        with pytest.raises(DomainError):
            gn.custom_generator(lambda z: math.cos(z))

    def test_rank_recorded(self):
        spec = EllipticalSpec(3, np.zeros(3), np.diag([1.0, 1.0, 0.0]), gn.normal_generator())
        assert spec.dispersion.rank == 2
        with pytest.raises(DomainError):
            spec.dispersion.inv_sym_root()


class TestRotate:
    """_rotate, the e^(i t'mu) of every closed and hankel grid form."""

    PHASE = np.array([0.0, -0.0, math.pi, -2.5, 1e6, 37.25, 1e300])
    VALUES = [-0.0, 0.0, -1.5, 0.0, 2.0, -0.75, 0.5]

    def test_real_value_real_products(self):
        z = np.array(self.VALUES)
        re, im = _rotate(z, self.PHASE)
        cos = [math.cos(p) for p in self.PHASE.tolist()]
        sin = [math.sin(p) for p in self.PHASE.tolist()]
        assert re.tobytes() == np.array([c * v for c, v in zip(cos, self.VALUES)]).tobytes()
        assert im.tobytes() == np.array([s * v for s, v in zip(sin, self.VALUES)]).tobytes()

    def test_complex_value_python_multiply(self):
        z = np.array([complex(v, w) for v, w in zip(self.VALUES, [0.0, -0.0, 0.0, -3.0, -0.0,
                                                                  0.125, 1.0])])
        re, im = _rotate(z, self.PHASE)
        want = [complex(math.cos(p), math.sin(p)) * v
                for p, v in zip(self.PHASE.tolist(), z.tolist())]
        assert re.tobytes() == np.array([w.real for w in want]).tobytes()
        assert im.tobytes() == np.array([w.imag for w in want]).tobytes()

    @pytest.mark.parametrize("z", [np.array([1.0, -2.0, 0.0]),
                                   np.array([1.0 + 1.0j, -2.0j, 0.0j])])
    def test_non_finite_phase_is_nan_without_warning(self, z):
        # the test run turns a RuntimeWarning into an error
        re, im = _rotate(z, np.array([math.inf, -math.inf, math.nan]))
        assert np.isnan(re).all() and np.isnan(im).all()
