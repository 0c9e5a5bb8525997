"""Skew/mixture tests: LSM, SMU, GSE closure, skew-normal, scale mixtures."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellipcf import generators as gn
from ellipcf.elliptical import EllipticalSpec, cf, closed_form_generator
from ellipcf.errors import ConvergenceError, DomainError
from ellipcf.quadrature import adaptive_interval, phi_hankel
from ellipcf.skewmix import (
    GSESpec,
    LSMixtureSpec,
    MixingLaw,
    Parametrization,
    SkewNormalK,
    SkewNormalSpec,
    cf_gse,
    cf_gse_rows,
    cf_location_scale_mixture,
    cf_skew_normal,
    cf_smsn,
    cf_star_unimodal,
    gse_affine,
    skew_normal_gse,
    smsn_split,
    smu_weight_density,
)


def std_normal_base(n):
    return EllipticalSpec(n, np.zeros(n), np.eye(n), gn.normal_generator())


class TestMixingLaw:
    def test_weight_validation(self):
        with pytest.raises(DomainError):
            MixingLaw.finite_discrete([1.0, 2.0], [0.6, 0.6])
        with pytest.raises(DomainError):
            MixingLaw.finite_discrete([-1.0, 2.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            MixingLaw.degenerate(-1.0)

    def test_custom_density_normalization_checked(self):
        with pytest.raises(DomainError):
            MixingLaw.custom_density(lambda v: math.exp(-v) * 2.0, (0.0, math.inf))
        law = MixingLaw.custom_density(lambda v: math.exp(-v), (0.0, math.inf))
        assert_allclose(law.expectation(lambda v: v), 1.0, atol=1e-8)

    def test_inverse_gamma_expectation(self):
        # E[V] = scale / (shape - 1)
        law = MixingLaw.inverse_gamma(3.0, 4.0)
        assert_allclose(law.expectation(lambda v: v), 2.0, atol=1e-7)


def _rational(a, v):
    # a complex integrand built from + - * / only, so its array and scalar
    # forms round identically
    return 1.0 / (1.0 + a * v) + 1j * (v / (1.0 + a * v * v))


def _rational_rows(a, v):
    out = np.empty(np.broadcast(a, v).shape, dtype=complex)
    out.real = 1.0 / (1.0 + a * v)
    out.imag = v / (1.0 + a * v * v)
    return out


class TestExpectationRows:
    LAW = MixingLaw.inverse_gamma(3.0, 2.0)

    @staticmethod
    def fn_for(params, fail_at=None, wild_at=None):
        def fn(rows, v):
            a = params[rows]
            if fail_at is not None and (a == fail_at).any():
                raise ConvergenceError("synthetic integrand failure")
            out = _rational_rows(a, v)
            if wild_at is not None:
                out = np.where(a == wild_at, np.cos(300.0 * v), out)
            return out

        return fn

    @pytest.mark.parametrize("size", [1, 2, 300])
    def test_rows_equal_one_row_calls_bitwise(self, size):
        rng = np.random.default_rng(size)
        params = rng.permutation(np.geomspace(0.05, 40.0, 300))[:size]
        values, failures = self.LAW.expectation_rows(self.fn_for(params), size)
        assert not failures and values.dtype == complex
        for i in rng.permutation(size):
            one, _ = self.LAW.expectation_rows(self.fn_for(params[i:i + 1]), 1)
            assert values[i:i + 1].tobytes() == one.tobytes()
        # the scalar form is the one-row case
        a = float(params[0])
        scalar = self.LAW.expectation(lambda v: _rational(a, v))
        assert np.array([scalar]).tobytes() == values[:1].tobytes()

    def test_failed_rows_fail_alone_with_scalar_messages(self):
        params = np.geomspace(0.05, 40.0, 40)
        clean, _ = self.LAW.expectation_rows(self.fn_for(params), 40)
        bad_fn = self.fn_for(params, fail_at=params[7], wild_at=params[23])
        values, failures = self.LAW.expectation_rows(bad_fn, 40)
        assert sorted(failures) == [7, 23]
        others = np.delete(np.arange(40), [7, 23])
        assert values[others].tobytes() == clean[others].tobytes()
        assert np.isnan(values[[7, 23]]).all()
        # the messages the scalar expectation raises for the same integrands
        with pytest.raises(ConvergenceError) as raised:
            self.LAW.expectation(lambda v: bad_fn(np.array([[7]]), np.array([[v]]))[0, 0])
        assert str(failures[7]) == str(raised.value) == "synthetic integrand failure"
        with pytest.raises(ConvergenceError) as raised:
            self.LAW.expectation(lambda v: math.cos(300.0 * v))
        assert str(failures[23]) == str(raised.value)
        assert str(raised.value).startswith("MixingLaw.expectation: quadrature error ")
        assert str(raised.value).endswith(" exceeds 1.00e-08")

    def test_discrete_kinds_one_call(self):
        calls = []

        def fn(rows, v):
            calls.append(v.shape)
            return _rational_rows(np.arange(1.0, 4.0)[rows], v)

        law = MixingLaw.finite_discrete([0.5, 1.0, 2.5], [0.3, 0.5, 0.2])
        values, failures = law.expectation_rows(fn, 3)
        assert calls == [(3, 3)] and not failures
        for a, got in zip((1.0, 2.0, 3.0), values):
            want = sum(w * _rational(a, p) for p, w in zip(law.points, law.weights))
            assert got == want
        values, _ = MixingLaw.degenerate(2.0).expectation_rows(fn, 3)
        assert values.tolist() == [_rational(a, 2.0) for a in (1.0, 2.0, 3.0)]

    def test_pdf_takes_arrays(self):
        v = np.array([[-1.0, 0.0, 0.3], [1.0, 2.5, 40.0]])
        got = self.LAW.pdf(v)
        assert got.shape == v.shape
        assert_allclose(got, [[self.LAW.pdf(float(x)) for x in row] for row in v], rtol=1e-15)
        assert got[0, 0] == got[0, 1] == 0.0


class TestLocationScaleMixture:
    def test_degenerate_recovers_elliptical(self):
        base = std_normal_base(2)
        spec = LSMixtureSpec(
            base, [0.5, -0.2], np.zeros(2), np.diag([2.0, 0.5]), MixingLaw.degenerate(1.0)
        )
        direct = EllipticalSpec(2, [0.5, -0.2], np.diag([2.0, 0.5]), gn.normal_generator())
        for t in ([0.3, 0.7], [1.0, 0.0], [-0.4, 1.2]):
            assert abs(cf_location_scale_mixture(spec, t).value - cf(direct, t).value) < 1e-14

    def test_unit_at_origin(self):
        spec = LSMixtureSpec(
            std_normal_base(2), [1.0, 1.0], [0.5, 0.0], np.eye(2),
            MixingLaw.finite_discrete([0.5, 2.0], [0.4, 0.6]),
        )
        val = cf_location_scale_mixture(spec, [0.0, 0.0])
        assert val.re == 1.0 and val.im == 0.0

    def test_two_point_mixture_hand_sum(self):
        spec = LSMixtureSpec(
            std_normal_base(2), np.zeros(2), np.zeros(2), np.eye(2),
            MixingLaw.finite_discrete([1.0, 4.0], [0.5, 0.5]),
        )
        val = cf_location_scale_mixture(spec, [1.0, 0.0])
        expect = 0.5 * (math.exp(-0.5) + math.exp(-2.0))
        assert abs(val.value - expect) <= 1e-12

    def test_inverse_gamma_recovers_student_t(self):
        # V ~ InvGamma(m/2, m/2) mixing of normals is the t with m df
        m = 5
        spec = LSMixtureSpec(
            std_normal_base(2), np.zeros(2), np.zeros(2), np.eye(2),
            MixingLaw.inverse_gamma(0.5 * m, 0.5 * m),
        )
        gent = gn.generalized_t_generator(2, float(m), m)
        for t in ([0.5, 0.0], [1.0, 1.0], [0.0, 2.0]):
            q = float(np.dot(t, t))
            assert abs(
                cf_location_scale_mixture(spec, t).re - closed_form_generator(gent, 2, q)
            ) <= 1e-7

    def test_drift_gives_imaginary_part(self):
        spec = LSMixtureSpec(
            std_normal_base(2), np.zeros(2), [1.0, 0.0], np.eye(2),
            MixingLaw.finite_discrete([0.5, 2.0], [0.5, 0.5]),
        )
        val = cf_location_scale_mixture(spec, [1.0, 0.0])
        assert abs(val.im) > 0.1

    def test_hermitian_and_modulus(self):
        rng = np.random.default_rng(3)
        spec = LSMixtureSpec(
            std_normal_base(2), [0.2, -0.1], [0.7, 0.3],
            np.array([[1.5, 0.4], [0.4, 0.8]]),
            MixingLaw.inverse_gamma(3.0, 2.0),
        )
        for _ in range(10):
            t = rng.normal(size=2)
            a = cf_location_scale_mixture(spec, t)
            b = cf_location_scale_mixture(spec, -t)
            assert abs(a.value - b.value.conjugate()) <= 1e-7
            assert abs(a.value) <= 1.0 + 1e-9

    def test_base_convention_enforced(self):
        shifted = EllipticalSpec(2, [1.0, 0.0], np.eye(2), gn.normal_generator())
        with pytest.raises(DomainError):
            LSMixtureSpec(shifted, np.zeros(2), np.zeros(2), np.eye(2), MixingLaw.degenerate(1.0))


class TestStarUnimodal:
    def test_weight_density_integrates_to_one(self):
        # power-exponential profiles (Kotz N=1) and the normal
        cases = [
            (gn.kotz_generator(1.0, 0.5, 0.75), 2),
            (gn.kotz_generator(1.0, 0.5, 1.5), 3),
            (gn.normal_generator(), 1),
            (gn.generalized_t_generator(2, 2.0, 3), 2),
        ]
        for gen, n in cases:
            val, _, _ = adaptive_interval(
                lambda x: smu_weight_density(gen, n, x / (1.0 - x)) / (1.0 - x) ** 2,
                0.0,
                1.0 - 1e-12,
                1e-10,
                1e-10,
                3000,
                seeds=tuple(np.linspace(0.05, 0.95, 19)),
            )
            assert abs(val - 1.0) <= 1e-8, f"{gen.family} n={n}: {val}"

    def test_normal_weight_is_chi3_scaled(self):
        # for the standard normal in R^1 the weight has E[W^2] = 3
        gen = gn.normal_generator()
        val, _, _ = adaptive_interval(
            lambda w: w * w * smu_weight_density(gen, 1, w), 0.0, 40.0, 1e-10, 1e-10, 2000
        )
        assert_allclose(val, 3.0, rtol=1e-8)

    def test_flat_generator_rejected(self):
        with pytest.raises(DomainError):
            smu_weight_density(gn.uniform_ball_generator(), 2, 0.5)
        with pytest.raises(DomainError):
            cf_star_unimodal(gn.pearson_ii_generator(0.0), 2, [1.0, 0.0])

    def test_increasing_generator_rejected(self):
        rising = gn.custom_generator(
            lambda z: z * math.exp(-z), g_prime=lambda z: (1.0 - z) * math.exp(-z)
        )
        with pytest.raises(DomainError):
            cf_star_unimodal(rising, 2, [1.0, 0.0])

    def test_normal_cf_reproduced(self):
        for u in (0.3, 1.0, 2.0, 3.5, 5.0):
            val = cf_star_unimodal(gn.normal_generator(), 2, [u, 0.0])
            assert abs(val.re - math.exp(-0.5 * u * u)) <= 1e-7
            assert val.im == 0.0

    def test_unit_at_origin(self):
        val = cf_star_unimodal(gn.normal_generator(), 3, [0.0, 0.0, 0.0])
        assert val.re == 1.0

    def test_agrees_with_hankel_route(self):
        # Kotz power-exponential in n = 2: SMU route vs the density-generator route
        gen = gn.kotz_generator(1.0, 0.5, 0.75)
        for u in (0.5, 1.0, 2.5):
            smu = cf_star_unimodal(gen, 2, [u, 0.0]).re
            hank = phi_hankel(gen, 2, u).value
            assert abs(smu - hank) <= 1e-6

    @pytest.mark.parametrize(
        "gen",
        [gn.normal_generator(), gn.pearson_ii_generator(1.5), gn.generalized_t_generator(2, 3.0, 3)],
        ids=["normal", "pearson_ii", "t_s3_m3"],
    )
    def test_small_u_series_matches_closed_form(self, gen):
        # below u = 1e-3 the route takes phi_hankel's moment series, and its
        # oscillatory integral where a moment is missing (E[R^4] for the t)
        u = 5e-4
        val = cf_star_unimodal(gen, 2, [u, 0.0])
        dev = abs(val.re - closed_form_generator(gen, 2, u * u))
        assert dev <= val.abs_err and dev <= 1e-6


class TestGSE:
    def test_constant_half_recovers_symmetric(self):
        spec = GSESpec(
            mu=[0.5, 0.0],
            sigma=np.diag([2.0, 1.0]),
            psi=lambda q: math.exp(-0.5 * q),
            k_fn=lambda y: 0.5 + 0.0j,
        )
        direct = EllipticalSpec(2, [0.5, 0.0], np.diag([2.0, 1.0]), gn.normal_generator())
        for t in ([1.0, 0.0], [0.3, -0.7]):
            assert abs(cf_gse(spec, t).value - cf(direct, t).value) <= 1e-14

    def test_unit_at_origin(self):
        spec = skew_normal_gse(SkewNormalSpec([0.0], [[1.0]], [2.0]))
        val = cf_gse(spec, [0.0])
        assert val.re == 1.0 and val.im == 0.0

    def test_antisymmetry_probe_rejects_bad_k(self):
        with pytest.raises(DomainError):
            GSESpec(
                mu=[0.0],
                sigma=[[1.0]],
                psi=lambda q: math.exp(-0.5 * q),
                k_fn=lambda y: 0.4 + 0.0j,
            )

    def test_skew_normal_k_consistency(self):
        sn = SkewNormalSpec([0.3, -1.0], [[2.0, 0.3], [0.3, 1.0]], [1.0, -2.0])
        gse = skew_normal_gse(sn)
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = rng.normal(size=2) * 2.0
            assert abs(cf_gse(gse, t).value - cf_skew_normal(sn, t).value) <= 1e-12

    def test_tau_identities(self):
        sn = SkewNormalSpec([0.0, 0.0], np.eye(2), [1.5, -0.5])
        k = SkewNormalK(sn.skew_direction())
        root = sn.dispersion.sym_root
        assert 1.0 - 2.0 * k(np.zeros(2)) == 0.0  # tau(t) = 1 - 2 k(-t)
        rng = np.random.default_rng(21)
        for _ in range(100):
            t = rng.normal(size=2)
            k_t = k(root @ t)
            tau = 1.0 - 2.0 * k(root @ -t)
            assert abs(2.0 * k_t - (1.0 + tau)) <= 1e-12
            assert abs(tau + (1.0 - 2.0 * k(root @ t))) <= 1e-12  # odd

    def test_affine_identity_map(self):
        sn = SkewNormalSpec([0.1, 0.2], [[1.0, 0.2], [0.2, 2.0]], [0.5, 1.0])
        gse = skew_normal_gse(sn)
        same = gse_affine(gse, np.zeros(2), np.eye(2))
        rng = np.random.default_rng(31)
        for _ in range(20):
            t = rng.normal(size=2)
            assert abs(cf_gse(same, t).value - cf_gse(gse, t).value) <= 1e-12

    def test_affine_closure_identity(self):
        sn = SkewNormalSpec([0.3, -1.0, 0.5], np.diag([1.0, 2.0, 0.5]), [1.0, 0.0, -1.0])
        gse = skew_normal_gse(sn)
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = int(rng.integers(1, 3))
            b = rng.normal(size=(m, 3))
            a = rng.normal(size=m)
            t = rng.normal(size=m)
            transformed = gse_affine(gse, a, b)
            lhs = cf_gse(transformed, t).value
            phase = complex(math.cos(float(a @ t)), math.sin(float(a @ t)))
            rhs = phase * cf_gse(gse, b.T @ t).value
            assert abs(lhs - rhs) <= 1e-12

    def test_stacked_k_matches_point_calls(self):
        # built-in k functions take stacked points; the GSE grid form uses
        # them in array passes and must agree bitwise with one-point calls
        sn = SkewNormalSpec([0.3, -1.0, 0.5], np.diag([1.0, 2.0, 0.5]), [1.0, 0.0, -1.0])
        mapped = gse_affine(skew_normal_gse(sn), [0.2, -0.4], [[1.0, 0.5, 0.0], [0.0, 1.0, 2.0]])
        rng = np.random.default_rng(51)
        ys = rng.normal(size=(40, 2)) * 2.0
        stacked_k, (mant, log_scale) = mapped.k_fn(ys), mapped.k_fn.scaled(ys)
        for i, y in enumerate(ys):
            assert stacked_k[i] == mapped.k_fn(y)
            assert (mant[i], log_scale[i]) == mapped.k_fn.scaled(y)
        ts = np.vstack([np.zeros(2), ys])
        rows = cf_gse_rows(mapped, ts)
        for i, t in enumerate(ts):
            assert rows.row(i) == cf_gse(mapped, t)

    def test_affine_rank_checked(self):
        sn = SkewNormalSpec([0.0, 0.0], np.eye(2), [1.0, 0.0])
        gse = skew_normal_gse(sn)
        with pytest.raises(DomainError):
            gse_affine(gse, np.zeros(2), np.array([[1.0, 0.0], [2.0, 0.0]]))


class TestSkewNormal:
    def test_zero_alpha_is_normal(self):
        sn = SkewNormalSpec([0.0, 0.0], np.eye(2), [0.0, 0.0])
        for t in ([1.0, 0.0], [0.5, -0.5]):
            q = float(np.dot(t, t))
            val = cf_skew_normal(sn, t)
            assert abs(val.value - math.exp(-0.5 * q)) <= 1e-14

    def test_unit_at_origin(self):
        sn = SkewNormalSpec([1.0], [[4.0]], [3.0], Parametrization.FULL_SIGMA)
        val = cf_skew_normal(sn, [0.0])
        assert val.re == 1.0 and val.im == 0.0

    def test_parametrizations_differ_off_identity(self):
        half = SkewNormalSpec([0.0], [[4.0]], [2.0], Parametrization.HALF_ROOT)
        full = SkewNormalSpec([0.0], [[4.0]], [2.0], Parametrization.FULL_SIGMA)
        assert abs(cf_skew_normal(half, [1.0]).value - cf_skew_normal(full, [1.0]).value) > 1e-3

    def test_parametrizations_agree_at_identity(self):
        half = SkewNormalSpec(np.zeros(2), np.eye(2), [1.0, -0.5], Parametrization.HALF_ROOT)
        full = SkewNormalSpec(np.zeros(2), np.eye(2), [1.0, -0.5], Parametrization.FULL_SIGMA)
        for t in ([0.5, 0.2], [-1.0, 0.7]):
            assert abs(cf_skew_normal(half, t).value - cf_skew_normal(full, t).value) <= 1e-14

    def test_modulus_bounded_large_t(self):
        # the log-scale assembly must stay bounded when exp(y^2/2) overflows
        sn = SkewNormalSpec([0.0], [[1.0]], [50.0])
        for t in (10.0, 40.0, 60.0):
            val = cf_skew_normal(sn, [t])
            assert abs(val.value) <= 1.0 + 1e-12

    def test_hermitian(self):
        sn = SkewNormalSpec([0.4, -0.2], [[1.0, 0.3], [0.3, 2.0]], [2.0, 1.0])
        rng = np.random.default_rng(17)
        for _ in range(50):
            t = rng.normal(size=2) * 2.0
            a = cf_skew_normal(sn, t)
            b = cf_skew_normal(sn, -t)
            assert abs(a.value - b.value.conjugate()) <= 1e-12
            assert abs(a.value) <= 1.0 + 1e-12


class TestScaleMixtureSkewNormal:
    def test_degenerate_unit_weight_recovers_skew_normal(self):
        sn = SkewNormalSpec([0.3, 0.0], [[2.0, 0.3], [0.3, 1.0]], [1.0, -2.0])
        mix = MixingLaw.degenerate(1.0)
        for t in ([0.5, 0.5], [1.0, -0.2]):
            assert abs(cf_smsn(sn, mix, t).value - cf_skew_normal(sn, t).value) <= 1e-14

    def test_zero_alpha_reduces_to_scale_mixture_of_normals(self):
        sn = SkewNormalSpec(np.zeros(2), np.eye(2), np.zeros(2))
        mix = MixingLaw.finite_discrete([0.5, 2.0], [0.3, 0.7])
        base = std_normal_base(2)
        lsm = LSMixtureSpec(base, np.zeros(2), np.zeros(2), np.eye(2), mix)
        for t in ([1.0, 0.0], [0.3, 0.4]):
            assert abs(cf_smsn(sn, mix, t).value - cf_location_scale_mixture(lsm, t).value) <= 1e-12

    def test_split_assembly_agreement_discrete(self):
        sn = SkewNormalSpec([0.1, -0.4], [[1.5, 0.2], [0.2, 0.7]], [2.0, 1.0])
        mix = MixingLaw.finite_discrete([0.4, 1.0, 3.0], [0.2, 0.5, 0.3])
        psi, k_n = smsn_split(sn, mix)
        rng = np.random.default_rng(23)
        for _ in range(25):
            t = rng.normal(size=2)
            q = max(float(t @ sn.sigma @ t), 0.0)
            phase = float(t @ sn.mu)
            assembled = 2.0 * complex(math.cos(phase), math.sin(phase)) * psi(q) * k_n(t)
            direct = cf_smsn(sn, mix, t).value
            assert abs(assembled - direct) <= 1e-9

    def test_check_split_flag(self):
        sn = SkewNormalSpec([0.0], [[1.0]], [1.0])
        mix = MixingLaw.finite_discrete([0.5, 1.5], [0.5, 0.5])
        cf_smsn(sn, mix, [0.7], check_split=True)  # must not raise

    def test_inverse_gamma_skew_t_hermitian(self):
        sn = SkewNormalSpec([0.0], [[1.0]], [2.0])
        mix = MixingLaw.inverse_gamma(2.5, 2.5)
        for t in (0.3, 1.0, 2.0):
            a = cf_smsn(sn, mix, [t])
            b = cf_smsn(sn, mix, [-t])
            assert abs(a.value - b.value.conjugate()) <= 1e-7
            assert abs(a.value) <= 1.0 + 1e-7
