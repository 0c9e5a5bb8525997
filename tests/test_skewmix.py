"""Skew/mixture tests: LSM, SMU, GSE closure, skew-normal, scale mixtures."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellipcf import elliptical, skewmix
from ellipcf import generators as gn
from ellipcf.elliptical import CFMethod, ComplexCF, EllipticalSpec, cf, cf_rows, closed_form_generator
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
    cf_location_scale_mixture_rows,
    cf_skew_normal,
    cf_skew_normal_rows,
    cf_smsn,
    cf_smsn_rows,
    cf_star_unimodal,
    cf_star_unimodal_rows,
    gse_affine,
    skew_normal_gse,
    star_unimodal_rows,
)
from references import smsn_split, smu_weight_density


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

    @pytest.mark.parametrize("factory, args, message", [
        pytest.param(MixingLaw.degenerate, (math.nan,), "v0 must be finite", id="v0-nan"),
        pytest.param(MixingLaw.degenerate, (math.inf,), "v0 must be finite", id="v0-inf"),
        pytest.param(MixingLaw.finite_discrete, ([math.nan, 2.0], [0.5, 0.5]),
                     "points and weights must be finite", id="point-nan"),
        pytest.param(MixingLaw.finite_discrete, ([math.inf, 1.0], [0.5, 0.5]),
                     "points and weights must be finite", id="point-inf"),
        pytest.param(MixingLaw.finite_discrete, ([1.0, 2.0], [math.nan, 1.0]),
                     "points and weights must be finite", id="weight-nan"),
        pytest.param(MixingLaw.inverse_gamma, (math.inf, 2.0),
                     "shape and scale must be finite", id="shape-inf"),
        pytest.param(MixingLaw.inverse_gamma, (-math.inf, 2.0),
                     "shape and scale must be finite", id="shape-minus-inf"),
        pytest.param(MixingLaw.inverse_gamma, (3.0, math.nan),
                     "shape and scale must be finite", id="scale-nan"),
    ])
    def test_non_finite_parameters_rejected(self, factory, args, message):
        # NaN and infinite parameters fail at construction, before any
        # expectation or draw reads them
        with pytest.raises(DomainError, match=f"^MixingLaw.{factory.__name__}: {message}$"):
            factory(*args)

    def test_zero_point_is_mass_at_mu(self):
        # V = 0 passes the construction checks and adds the CF of a point
        # mass at mu (here 0) to the scale mixture
        sn = SkewNormalSpec([0.0, 0.0], np.eye(2), [1.0, -0.5])
        law = MixingLaw.finite_discrete([0.0, 2.0], [0.5, 0.5])
        t = np.array([0.7, -0.3])
        want = 0.5 + 0.5 * cf_skew_normal(sn, math.sqrt(2.0) * t).value
        assert abs(cf_smsn(sn, law, t).value - want) <= 1e-15

    def test_custom_density_normalization_checked(self):
        with pytest.raises(DomainError):
            MixingLaw.custom_density(lambda v: math.exp(-v) * 2.0, (0.0, math.inf))
        law = MixingLaw.custom_density(lambda v: math.exp(-v), (0.0, math.inf))
        assert_allclose(law.expectation(lambda v: v), 1.0, atol=1e-8)

    def test_custom_density_nan_rejected(self):
        # a nan density integrates to nan, which must fail the unit-mass
        # check; a support must start at a finite lower bound
        with pytest.raises(DomainError, match="integrates to nan, not 1"):
            MixingLaw.custom_density(lambda v: math.nan, (0.0, 1.0))
        for support in ((math.nan, math.inf), (math.inf, math.inf), (1.0, math.nan)):
            with pytest.raises(DomainError, match="support must be in"):
                MixingLaw.custom_density(lambda v: math.exp(-v), support)

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

    @pytest.mark.parametrize("mixing, abs_err", [
        (MixingLaw.degenerate(2.0), math.nan),
        (MixingLaw.finite_discrete([0.5, 2.0], [0.25, 0.75]), math.nan),
        (MixingLaw.inverse_gamma(3.0, 2.0), 1e-8),
    ], ids=["degenerate", "finite_discrete", "inverse_gamma"])
    def test_closed_route_abs_err(self, mixing, abs_err):
        # the base route's estimate (the closed form has none), plus the
        # mixing tolerance for a continuous law: the rule of the smsn closed route
        ts = np.array([[0.7, 0.4], [1.5, -0.3], [0.0, 2.0]])
        spec = LSMixtureSpec(std_normal_base(2), [0.1, -0.2], [0.5, 0.25], np.eye(2), mixing)
        lsm = cf_location_scale_mixture_rows(spec, ts, "closed")
        smsn = cf_smsn_rows(SkewNormalSpec([0.1, -0.2], np.eye(2), [2.0, -0.5]), mixing, ts)
        for rows in (lsm, smsn):
            assert rows.error is None
            assert_allclose(rows.abs_err, abs_err, rtol=0, atol=0)

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

    def test_hankel_route_uniform_ball_inverse_gamma(self):
        # the mixing quadrature probes large v, where the finite-support base
        # runs at high frequencies and is summed out to its edge
        base = EllipticalSpec(2, np.zeros(2), np.eye(2), gn.uniform_ball_generator())
        spec = LSMixtureSpec(
            base, np.zeros(2), [0.5, -0.3], np.eye(2), MixingLaw.inverse_gamma(3.0, 2.0)
        )
        closed = cf_location_scale_mixture(spec, [0.7, 0.4], route="closed")
        assert abs(closed.value - complex(0.889708905732111, 0.19145425863621557)) <= 1e-8
        hankel = cf_location_scale_mixture(spec, [0.7, 0.4], route="hankel")
        assert abs(hankel.value - closed.value) <= 1e-6

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

    @pytest.mark.parametrize("big_n, s", [(-10.0, 1.0), (0.5, 12.0)])
    def test_star_check_skips_overflowing_probes(self, big_n, s):
        # Kotz g' = z^(N-2) e^(-z^s) (N - 1 - s z^s) < 0 here, but z^(N-2) at
        # z = 2^-128 and z^s at z = 2^128 overflow: the check reads g' at the
        # other powers of two it probes
        skewmix._check_star_unimodal(gn.kotz_generator(big_n, 1.0, s))

    @pytest.mark.parametrize("radius, rise", [(1.0, 0.6), (1.0, 0.99), (1e-3, 0.99), (100.0, 0.99)])
    def test_rise_near_a_finite_edge_rejected(self, radius, rise):
        # g = (z/R^2 - rise)^2 falls, then rises over the top of its support,
        # above every power of two below R^2: the check probes toward the edge
        top = radius**2
        gen = gn.custom_generator(
            lambda z: (z / top - rise) ** 2, g_prime=lambda z: 2.0 * (z / top - rise) / top,
            support_radius=radius,
        )
        with pytest.raises(DomainError, match="g' > 0 detected on the support"):
            cf_star_unimodal(gen, 2, [1.0, 0.0])

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
        # at small u the route's engine needs no moments (E[R^4] is missing
        # for the t)
        u = 5e-4
        val = cf_star_unimodal(gen, 2, [u, 0.0])
        dev = abs(val.re - closed_form_generator(gen, 2, u * u))
        assert dev <= val.abs_err and dev <= 1e-6

    @pytest.mark.parametrize("u", [1e-20, 1e-30, 1e-50, 1e-100, 1e-300])
    def test_heavy_tail_tiny_u_honest_or_named_failure(self, u):
        # the star route shares the hankel route's engine: its first Bessel
        # panel is also split down to w ~ 1, and every row is honest
        gen = gn.pearson_vii_generator(2.0, 1.0)
        res = star_unimodal_rows(gen, 2, [u]).row(0)
        assert abs(res.value - closed_form_generator(gen, 2, u * u)) <= res.err_est

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_phase_summed_in_index_order(self, n):
        # the grid form's phase is the one of every other route, a sum in
        # index order, never a BLAS dot, whose rounding may follow the
        # machine's kernel; a tiny Sigma keeps every u small, where the
        # engine leaves within its first panels
        rng = np.random.default_rng(n)
        mu = rng.normal(size=n) * 0.37
        spec = EllipticalSpec(n, mu, 1e-10 * np.eye(n), gn.normal_generator())
        ts = rng.normal(size=(20000, n)) * 3.0
        rows = cf_star_unimodal_rows(spec, ts)
        us = np.sqrt(spec.dispersion.quad_rows(ts))
        value = star_unimodal_rows(spec.generator, n, us).value
        re, im = elliptical._rotate(value.astype(complex), elliptical._row_dots(ts, mu))
        assert rows.re.tobytes() == re.tobytes() and rows.im.tobytes() == im.tobytes()


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

    def test_affine_closure_user_k_with_log_psi(self):
        # a user k without a scaled form, beside log_psi: its affine image
        # wraps it in LinearMappedK, which always has a scaled method, and
        # must still take the unscaled point path
        sn = SkewNormalSpec([0.0, 0.0], np.eye(2), [1.0, -0.5])
        gse = GSESpec([0.1, -0.2], [[1.0, 0.3], [0.3, 2.0]], lambda q: math.exp(-0.5 * q),
                      _PlainK(sn.skew_direction()), log_psi=lambda q: -0.5 * q)
        rng = np.random.default_rng(43)
        for b in (np.eye(2), rng.normal(size=(1, 2)), rng.normal(size=(2, 2))):
            a = rng.normal(size=len(b))
            transformed = gse_affine(gse, a, b)
            for t in rng.normal(size=(5, len(b))):
                lhs = cf_gse(transformed, t).value
                phase = complex(math.cos(float(a @ t)), math.sin(float(a @ t)))
                assert abs(lhs - phase * cf_gse(gse, b.T @ t).value) <= 1e-12

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


    @pytest.mark.parametrize("alpha", [[2.0, -1.0], [0.0, 0.0]], ids=["skewed", "alpha0"])
    @pytest.mark.parametrize("kind", ["skew_normal", "gse", "smsn_finite", "smsn_inverse_gamma"])
    def test_overflowing_quadratic_form(self, kind, alpha):
        # at t = (1e200, 0) t'St overflows and the CF underflows to 0, the
        # value of the normal law (the alpha = 0 skew normal) there
        sn = SkewNormalSpec([0.1, -0.2], [[1.0, 0.3], [0.3, 1.0]], alpha)
        ts = np.array([[0.3, 0.2], [1e200, 0.0]])
        normal = cf_rows(EllipticalSpec(2, sn.mu, sn.sigma, gn.normal_generator()), ts)
        assert (normal.re[1], normal.im[1]) == (0.0, 0.0)
        rows = {
            "skew_normal": lambda: cf_skew_normal_rows(sn, ts),
            "gse": lambda: cf_gse_rows(skew_normal_gse(sn), ts),
            "smsn_finite": lambda: cf_smsn_rows(sn, MixingLaw.finite_discrete([0.5, 2.0], [0.4, 0.6]), ts),
            "smsn_inverse_gamma": lambda: cf_smsn_rows(sn, MixingLaw.inverse_gamma(3.0, 2.0), ts),
        }[kind]()
        if kind == "gse" and any(alpha):
            # psi(q) -> 0 against k's exp(y^2/2) -> inf: not decided in float
            # range for a general psi, so the row fails by name
            assert len(rows) == 1 and isinstance(rows.error, OverflowError)
            return
        assert len(rows) == 2 and rows.error is None
        tol = 0.0 if math.isnan(rows.abs_err[1]) else rows.abs_err[1]
        assert abs(rows.re[1]) <= tol and abs(rows.im[1]) <= tol
        if not any(alpha) and not kind.startswith("smsn"):
            assert abs(rows.re[0] - normal.re[0]) <= 1e-15
            assert abs(rows.im[0] - normal.im[0]) <= 1e-15


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

    def test_point_mass_at_zero_with_overflowing_quadratic_form(self):
        # a zero mixing point is a point mass at mu: it keeps its share
        # e^(i t'mu) where t'St overflows, while the other points give 0
        sn = SkewNormalSpec([0.1, -0.2], [[1.0, 0.3], [0.3, 1.0]], [2.0, -0.5])
        mix = MixingLaw.finite_discrete([0.0, 1.0], [0.5, 0.5])
        rows = cf_smsn_rows(sn, mix, np.array([[1e200, 0.0]]))
        want = 0.5 * complex(math.cos(1e199), math.sin(1e199))
        assert rows.error is None
        assert abs(complex(rows.re[0], rows.im[0]) - want) <= 1e-15

    def test_inverse_gamma_skew_t_hermitian(self):
        sn = SkewNormalSpec([0.0], [[1.0]], [2.0])
        mix = MixingLaw.inverse_gamma(2.5, 2.5)
        for t in (0.3, 1.0, 2.0):
            a = cf_smsn(sn, mix, [t])
            b = cf_smsn(sn, mix, [-t])
            assert abs(a.value - b.value.conjugate()) <= 1e-7
            assert abs(a.value) <= 1.0 + 1e-7


# ---------------------------------------------------------------------------
# The one grid builder, elliptical._chunk_rows, seen through every analytic form
# ---------------------------------------------------------------------------

_SIGMA = np.array([[1.0, 0.3], [0.3, 1.0]])
_MU = np.array([0.1, -0.2])
_TS = np.array([[0.0, 0.0]] + [[0.3 * i, 0.1 * (i % 3)] for i in range(1, 12)])
_FAIL = 5  # a row of the second pass at 4 rows per pass
_Q_FAIL = float(elliptical.Dispersion(_SIGMA).quad_rows(_TS)[_FAIL])


def _t3():
    return EllipticalSpec(2, _MU, _SIGMA, gn.generalized_t_generator(2, 3.0, 3))


def _lsm():
    base = EllipticalSpec(2, np.zeros(2), np.eye(2), gn.generalized_t_generator(2, 3.0, 3))
    return LSMixtureSpec(base, _MU, [0.4, 0.1], _SIGMA, MixingLaw.degenerate(1.0))


def _sn():
    return SkewNormalSpec(_MU, _SIGMA, [2.0, -0.5])


def _injected(*args):
    return ConvergenceError("injected")


def _break_phi(monkeypatch, module):
    # module.char_generator_rows fails the rows at q = _Q_FAIL
    real = module.char_generator_rows

    def phi(gen, n, qs, route="closed"):
        values, err, failures = real(gen, n, qs, route)
        for i in np.flatnonzero(np.ravel(qs) == _Q_FAIL).tolist():
            values[i], failures[i] = math.nan, _injected()
        return values, err, failures

    monkeypatch.setattr(module, "char_generator_rows", phi)


def _break_star(monkeypatch):
    real = skewmix.star_unimodal_rows

    def star(gen, n, us):
        res = real(gen, n, us)
        for i in np.flatnonzero(np.asarray(us) == math.sqrt(_Q_FAIL)).tolist():
            res.value[i], res.failures[i] = math.nan, _injected()
        return res

    monkeypatch.setattr(skewmix, "star_unimodal_rows", star)


def _break_sn(monkeypatch, fail):
    # skewmix._sn_centered at q = _Q_FAIL: nan (fail = None) or raises
    real = skewmix._sn_centered

    def sn(q, y):
        if fail is not None and (q == _Q_FAIL).any():
            raise fail()
        return np.where(q == _Q_FAIL, math.nan, real(q, y))

    monkeypatch.setattr(skewmix, "_sn_centered", sn)


class _PlainK:
    """A custom k without a scaled form: cf_gse_rows runs point by point."""

    def __init__(self, direction):
        self.inner = SkewNormalK(direction)

    def __call__(self, y):
        return self.inner(y)


def _gse_array(broken):
    sn = _sn()

    def log_psi(q):
        return np.where(q == _Q_FAIL, math.nan, -0.5 * q) if broken else -0.5 * q

    return GSESpec(_MU, _SIGMA, lambda q: math.exp(-0.5 * q), SkewNormalK(sn.skew_direction()),
                   log_psi)


def _gse_point(broken):
    def psi(q):
        if broken and q == _Q_FAIL:
            raise _injected()
        return math.exp(-0.5 * q)

    return GSESpec(_MU, _SIGMA, psi, _PlainK(_sn().skew_direction()))


# case -> (the grid form, the failure injection, the exception of the failing row)
_FORMS = {
    "cf_rows-closed": (lambda ts, broken: cf_rows(_t3(), ts, "closed"),
                       lambda mp: _break_phi(mp, elliptical), ConvergenceError),
    "cf_rows-hankel": (lambda ts, broken: cf_rows(_t3(), ts, "hankel"),
                       lambda mp: _break_phi(mp, elliptical), ConvergenceError),
    "star": (lambda ts, broken: cf_star_unimodal_rows(_t3(), ts), _break_star, ConvergenceError),
    "lsm-closed": (lambda ts, broken: cf_location_scale_mixture_rows(_lsm(), ts, "closed"),
                   lambda mp: _break_phi(mp, skewmix), ConvergenceError),
    "lsm-hankel": (lambda ts, broken: cf_location_scale_mixture_rows(_lsm(), ts, "hankel"),
                   lambda mp: _break_phi(mp, skewmix), ConvergenceError),
    "skew_normal": (lambda ts, broken: cf_skew_normal_rows(_sn(), ts),
                    lambda mp: _break_sn(mp, None), OverflowError),
    "gse-array": (lambda ts, broken: cf_gse_rows(_gse_array(broken), ts),
                  lambda mp: None, OverflowError),
    "gse-per_point": (lambda ts, broken: cf_gse_rows(_gse_point(broken), ts),
                      lambda mp: None, ConvergenceError),
    "smsn": (lambda ts, broken: cf_smsn_rows(_sn(), MixingLaw.degenerate(1.0), ts),
             lambda mp: _break_sn(mp, _injected), ConvergenceError),
}


@pytest.mark.parametrize("case", list(_FORMS))
class TestGridBuilder:
    """Every closed and hankel grid form keeps one contract: t = 0 is
    (1, 0, 0, "closed"), a row's bits do not depend on the pass it is
    computed in, and the first failing row ends the grid with its exception."""

    def test_origin_row_is_exact(self, case):
        rows = _FORMS[case][0](_TS, False)
        assert rows.error is None and len(rows) == len(_TS)
        assert rows.row(0) == ComplexCF(1.0, 0.0, 0.0, CFMethod.CLOSED_FORM)
        assert set(rows.method[1:]) == {"hankel" if "hankel" in case or case == "star" else "closed"}

    def test_passes_keep_the_bits(self, monkeypatch, case):
        form = _FORMS[case][0]
        whole = form(_TS, False)
        monkeypatch.setattr(elliptical, "_CHUNK", 4)
        passes = form(_TS, False)
        assert passes.error is None
        for name in ("re", "im", "abs_err", "method"):
            assert getattr(passes, name).tobytes() == getattr(whole, name).tobytes(), name

    def test_failing_row_ends_the_grid(self, monkeypatch, case):
        form, inject, error = _FORMS[case]
        whole = form(_TS, False)
        monkeypatch.setattr(elliptical, "_CHUNK", 4)
        inject(monkeypatch)
        real, passes = elliptical._chunk_rows, []

        def spy(ts, n, mu, method, centered):
            return real(ts, n, mu, method, lambda t: passes.append(len(t)) or centered(t))

        for module in (elliptical, skewmix):
            monkeypatch.setattr(module, "_chunk_rows", spy)
        rows = form(_TS, True)
        assert passes == [4, 4]  # the third pass is never computed
        assert len(rows) == _FAIL and isinstance(rows.error, error)
        assert rows.re.tobytes() == whole.re[:_FAIL].tobytes()
        assert rows.im.tobytes() == whole.im[:_FAIL].tobytes()
        with pytest.raises(error):
            rows.row(_FAIL)


def _dispatch_hashes() -> dict:
    """sha256 of the inverse-gamma density, the lsm closed rows over it (normal
    base), the custom-density smsn draws and the elliptical draws of the two
    families whose radius takes a power (Kotz at s = 0.75, the ball at
    n = 3); none may follow numpy's SIMD dispatch.  (The smsn closed rows
    do: dawson takes numpy's exp, cosh and sinh.)"""
    from ellipcf import sampling

    def sha(*arrays):
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    law = MixingLaw.inverse_gamma(3.0, 2.0)
    spec = LSMixtureSpec(std_normal_base(2), [0.1, -0.2], [0.5, 0.25], [[1.0, 0.3], [0.3, 2.0]], law)
    lsm = cf_location_scale_mixture_rows(spec, np.random.default_rng(5).normal(size=(300, 2)) * 2.0)
    sn = SkewNormalSpec([0.5, -0.25], np.diag([4.0, 0.25]), [2.0, -0.5])
    custom = MixingLaw.custom_density(lambda v: math.exp(-v), (0.0, math.inf))
    draws = sampling.smsn_sampler(sn, custom).batch(40000, sampling.RngStream(7)).data

    def elliptical_draws(n, gen):
        spec = EllipticalSpec(n, np.zeros(n), np.eye(n), gen)
        return sampling.elliptical_sampler(spec).batch(40000, sampling.RngStream(7)).data

    return {
        "density": sha(law.pdf(np.linspace(0.01, 50.0, 10**5))),
        "lsm": sha(lsm.re, lsm.im, lsm.abs_err),
        "custom_draws": sha(draws),
        "kotz_draws": sha(elliptical_draws(2, gn.kotz_generator(2.0, 0.5, 0.75))),
        "ball_draws": sha(elliptical_draws(3, gn.uniform_ball_generator())),
    }


class TestSimdDispatch:
    def test_mixing_bytes_independent_of_dispatch(self):
        # the same hashes in this process and in one whose numpy may not use
        # its AVX-512 kernels (on a host without them, the same dispatch twice)
        tests, src = Path(__file__).resolve().parent, Path(skewmix.__file__).resolve().parents[1]
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), str(tests),
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import test_skewmix; print(test_skewmix._dispatch_hashes())"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(_dispatch_hashes())
