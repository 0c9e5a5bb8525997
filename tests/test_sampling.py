"""Sampler tests: stochastic representations vs analytic CFs and CDFs."""

import hashlib
import math
import os
from concurrent.futures import Future

import numpy as np
import pytest

import oracles
import references
from ellipcf import _csvout
from ellipcf import generators as gn
from ellipcf import sampling
from ellipcf.elliptical import EllipticalSpec, cf
from ellipcf.errors import DomainError
from ellipcf.skewmix import (
    LSMixtureSpec,
    MixingLaw,
    Parametrization,
    SkewNormalSpec,
    cf_location_scale_mixture,
    cf_skew_normal,
    cf_smsn,
)
from ellipcf.sampling import (
    RngStream,
    SampleBatch,
    empirical_cf,
    sample_elliptical,
    sample_location_scale_mixture,
    sample_skew_normal,
    sample_smsn,
)
from ellipcf.specfun import hyp0f1

RNG = RngStream(seed=20240814, stream_id=0)

KS_CRIT_1PCT = 1.628  # asymptotic one-sample Kolmogorov-Smirnov, alpha = 0.01


def ks_one_sample(data: np.ndarray, cdf) -> float:
    x = np.sort(data)
    n = len(x)
    f = cdf(x)
    up = np.abs(np.arange(1, n + 1) / n - f).max()
    lo = np.abs(f - np.arange(0, n) / n).max()
    return max(up, lo)


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    grid = np.sort(np.concatenate([a, b]))
    ca = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    cb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return np.abs(ca - cb).max()


def std_normal_base(n):
    return EllipticalSpec(n, np.zeros(n), np.eye(n), gn.normal_generator())


def sphere_sampler(n):
    # uniform draws on the unit sphere surface in R^n: the direction kernel
    # of the elliptical and lsm samplers
    return sampling.Sampler("sphere", n, lambda m, g: sampling._unit_sphere_rows(g, m, n))


def ball_sampler(n):
    # uniform draws inside the unit ball: the uniform_ball law at mu = 0, Sigma = I
    spec = EllipticalSpec(n, np.zeros(n), np.eye(n), gn.uniform_ball_generator())
    return sampling.elliptical_sampler(spec)


def sample_ball(n, count, rng, workers=1):
    return ball_sampler(n).batch(count, rng, workers)


def sample_radius(spec, count, rng):
    # draws of the generating variate R: the row norms of a law at mu = 0, Sigma = I
    return np.linalg.norm(sampling.elliptical_sampler(spec).batch(count, rng).data, axis=1)


class TestSphereAndBall:
    def test_sphere_norms_exact(self):
        batch = sphere_sampler(3).batch(50000, RNG)
        assert np.abs(np.linalg.norm(batch.data, axis=1) - 1.0).max() <= 1e-12

    def test_sphere_mean_symmetric(self):
        batch = sphere_sampler(4).batch(100000, RNG)
        assert np.abs(batch.data.mean(axis=0)).max() <= 4.0 / math.sqrt(batch.count)

    def test_sphere_cf_matches_analytic(self):
        count = 10**6
        batch = sphere_sampler(3).batch(count, RNG, workers=4)
        e = empirical_cf(batch, [2.0, 0.0, 0.0])
        want = hyp0f1(1.5, -1.0)  # the sphere in R^3 at ||t||^2 = 4
        band = 4.0 / math.sqrt(count)
        assert abs(e.re - want) <= band and abs(e.im) <= band

    def test_ball_norms_inside(self):
        batch = sample_ball(3, 50000, RNG)
        assert np.linalg.norm(batch.data, axis=1).max() <= 1.0

    def test_ball_second_moment(self):
        for n in (2, 3):
            batch = sample_ball(n, 200000, RNG)
            m2 = (batch.data**2).sum(axis=1).mean()
            assert abs(m2 - n / (n + 2.0)) <= 5.0 / math.sqrt(batch.count)

    def test_ball_cf_matches_0f1(self):
        count = 10**6
        batch = sample_ball(2, count, RNG, workers=4)
        for s in (1.0, 4.0):
            e = empirical_cf(batch, [math.sqrt(s), 0.0])
            want = hyp0f1(2.0, -0.25 * s)
            assert abs(e.re - want) <= 4.0 / math.sqrt(count)


class TestSampleRadius:
    def test_normal_chi(self):
        spec = std_normal_base(2)
        r = sample_radius(spec, 10**5, RNG)
        assert abs((r * r).mean() - 2.0) <= 0.05
        # R^2 ~ chi-square(2): CDF 1 - exp(-x/2)
        ks = ks_one_sample(r * r, lambda x: 1.0 - np.exp(-0.5 * x))
        assert ks <= KS_CRIT_1PCT / math.sqrt(len(r))

    def test_pearson_ii_m0_uniform(self):
        spec = EllipticalSpec(2, np.zeros(2), np.eye(2), gn.pearson_ii_generator(0.0))
        r = sample_radius(spec, 10**5, RNG)
        ks = ks_one_sample(r * r, lambda x: np.clip(x, 0.0, 1.0))
        assert ks <= KS_CRIT_1PCT / math.sqrt(len(r))

    def test_ball_radius_cdf(self):
        spec = EllipticalSpec(3, np.zeros(3), np.eye(3), gn.uniform_ball_generator())
        r = sample_radius(spec, 10**5, RNG)
        ks = ks_one_sample(r, lambda v: np.clip(v, 0.0, 1.0) ** 3)
        assert ks <= KS_CRIT_1PCT / math.sqrt(len(r))

    def test_custom_inversion_matches_shortcut(self):
        custom = gn.custom_generator(lambda z: math.exp(-0.5 * z))
        spec_c = EllipticalSpec(2, np.zeros(2), np.eye(2), custom)
        spec_n = std_normal_base(2)
        r_c = sample_radius(spec_c, 10**5, RngStream(seed=1, stream_id=0))
        r_n = sample_radius(spec_n, 10**5, RngStream(seed=2, stream_id=0))
        crit = KS_CRIT_1PCT * math.sqrt(2.0 / 10**5)
        assert ks_two_sample(r_c, r_n) <= crit


_PROBS = [0.05 * k for k in range(1, 20)]


def _quantile_misses(draws, cdf_mp):
    # |empirical CDF - p| at the exact p-quantile, for each p of _PROBS
    x = np.sort(draws)
    quantiles = [oracles.quantile_mp(cdf_mp, p) for p in _PROBS]
    return [abs(np.searchsorted(x, q, side="right") / len(x) - p) for q, p in zip(quantiles, _PROBS)]


class TestHeavyTailTables:
    """Draws through the tabulated CDF of a custom law whose mass reaches far
    out: a Cauchy-like radius and inverse-gamma mixing densities.  At every
    p in 0.05, ..., 0.95 the empirical CDF of 10^5 draws at the exact
    p-quantile is within 0.01 of p."""

    @pytest.mark.parametrize("n, m", [(2, 1), (5, 1)], ids=["n2-m1", "n5-m1"])
    def test_custom_radius_quantiles(self, n, m):
        # g = (1 + z)^(-(n + m)/2): R^2/(1 + R^2) ~ Beta(n/2, m/2)
        gen = gn.custom_generator(lambda z: (1.0 + z) ** (-0.5 * (n + m)))
        spec = EllipticalSpec(n, np.zeros(n), np.eye(n), gen)
        r = sample_radius(spec, 10**5, RngStream(seed=17))
        assert max(_quantile_misses(r, lambda v: oracles.radius_beta_cdf_mp(n, m, v))) <= 0.01

    @pytest.mark.parametrize("shape", [0.5, 1.5], ids=["a0.5", "a1.5"])
    def test_custom_density_quantiles(self, shape):
        # the inverse-gamma density IG(shape, 1) as a custom mixing density
        log_norm = -math.lgamma(shape)
        law = MixingLaw.custom_density(
            lambda v: math.exp(log_norm - (shape + 1.0) * math.log(v) - 1.0 / v) if v > 0.0 else 0.0
        )
        v = law.draw(10**5, np.random.default_rng(17))
        assert max(_quantile_misses(v, lambda x: oracles.inverse_gamma_cdf_mp(shape, 1.0, x))) <= 0.01


class TestCdfTable:
    def test_whole_cells_keep_their_first_pass_masses(self):
        # a custom IG(3, 1) density: the second pass integrates only the cells
        # the mass cap splits, so the table keeps its bytes and takes 21 102
        # density evaluations where integrating every cell again took 26 769.
        # Its map's unit, measured on the density (1/4, where it was 1), moved
        # the table: 1385 knots, each within 8.9e-16 of the exact CDF, as the
        # 1387 before, in 21 346 evaluations
        log_norm = -math.lgamma(3.0)
        law = MixingLaw.custom_density(
            lambda v: math.exp(log_norm - 4.0 * math.log(v) - 1.0 / v) if v > 0.0 else 0.0)
        calls = []

        def pdf(v):
            calls.append(v.size)
            return law.density(v)

        grid, cdf, _ = sampling._cdf_table(pdf, 0.0, math.inf)
        assert hashlib.sha256(grid.tobytes() + cdf.tobytes()).hexdigest() == (
            "556e07777aa1aaec1f88a4d178a35e888c0accf4101525929038b2bbbcb2571b"
        )
        assert sum(calls) < 26769


class TestSampleElliptical:
    def test_moments(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = EllipticalSpec(2, [1.0, -1.0], sigma, gn.normal_generator())
        batch = sample_elliptical(spec, 4 * 10**5, RNG, workers=4)
        assert np.abs(batch.data.mean(axis=0) - spec.mu).max() <= 0.02
        cov = np.cov(batch.data.T)
        assert np.abs(cov - sigma).max() <= 0.03  # E[R^2]/n = 1 for the normal

    def test_remaining_families_cf_oracle(self):
        # heavy/bounded families not exercised by the acceptance list
        count = 10**6
        band = 4.0 / math.sqrt(count)
        specs = [
            EllipticalSpec(2, np.zeros(2), np.eye(2), gn.pearson_vii_generator(2.25, 1.5)),
            EllipticalSpec(2, np.zeros(2), np.eye(2), gn.bessel_generator(0.75, 0.8)),
            EllipticalSpec(2, np.zeros(2), np.eye(2), gn.kotz_generator(1.0, 1.5, 0.5)),
        ]
        tgrid = [[0.25, 0.0], [0.5, 0.5], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]
        for spec in specs:
            batch = sample_elliptical(spec, count, RNG, workers=4)
            for t in tgrid:
                e = empirical_cf(batch, t)
                a = cf(spec, t)
                assert abs(e.re - a.re) <= band, (spec.generator.family, t)
                assert abs(e.im - a.im) <= band, (spec.generator.family, t)

    def test_rank_deficient_rejected(self):
        spec = EllipticalSpec(2, np.zeros(2), [[1.0, 0.0], [0.0, 0.0]], gn.normal_generator())
        with pytest.raises(DomainError):
            sample_elliptical(spec, 100, RNG)


class TestSampleLSM:
    def test_degenerate_zero_scale_collapses_to_mu(self):
        spec = LSMixtureSpec(
            std_normal_base(2), [3.0, -1.0], [5.0, 5.0], np.eye(2), MixingLaw.degenerate(0.0)
        )
        batch = sample_location_scale_mixture(spec, 1000, RNG)
        assert np.abs(batch.data - np.array([3.0, -1.0])).max() == 0.0

    def test_unit_mixing_matches_elliptical(self):
        spec = LSMixtureSpec(
            std_normal_base(2), np.zeros(2), np.zeros(2), np.eye(2), MixingLaw.degenerate(1.0)
        )
        b_lsm = sample_location_scale_mixture(spec, 10**5, RngStream(seed=3))
        b_ell = sample_elliptical(std_normal_base(2), 10**5, RngStream(seed=4))
        crit = KS_CRIT_1PCT * math.sqrt(2.0 / 10**5)
        assert ks_two_sample(b_lsm.data[:, 0], b_ell.data[:, 0]) <= crit

    def test_cf_oracle_and_asymmetry(self):
        count = 10**6
        spec = LSMixtureSpec(
            std_normal_base(2), np.zeros(2), [1.0, 0.0], np.eye(2),
            MixingLaw.finite_discrete([0.5, 2.0], [0.5, 0.5]),
        )
        batch = sample_location_scale_mixture(spec, count, RNG, workers=4)
        band = 4.0 / math.sqrt(count)
        for t in ([1.0, 0.0], [0.5, 0.5], [0.0, 1.5]):
            e = empirical_cf(batch, t)
            a = cf_location_scale_mixture(spec, t)
            assert abs(e.re - a.re) <= band + (a.abs_err or 0.0)
            assert abs(e.im - a.im) <= band + (a.abs_err or 0.0)
        # the drift makes the imaginary part visible far above the noise band
        e = empirical_cf(batch, [1.0, 0.0])
        assert abs(e.im) > 10.0 * 1.0 / math.sqrt(count)

    def test_custom_density_mixing(self):
        # V ~ Exp(1) via the tabulated-CDF inversion path
        count = 2 * 10**5
        band = 4.0 / math.sqrt(count)
        mix = MixingLaw.custom_density(lambda v: math.exp(-v), (0.0, math.inf))
        spec = LSMixtureSpec(std_normal_base(2), np.zeros(2), [0.5, 0.0], np.eye(2), mix)
        batch = sample_location_scale_mixture(spec, count, RNG, workers=2)
        for t in ([0.8, 0.0], [0.3, 0.9]):
            e = empirical_cf(batch, t)
            a = cf_location_scale_mixture(spec, t)
            assert abs(e.re - a.re) <= band + (a.abs_err or 0.0)
            assert abs(e.im - a.im) <= band + (a.abs_err or 0.0)

    @pytest.mark.parametrize("lo", [3.0, 10.0, 50.0])
    def test_custom_density_shifted_support(self, lo):
        # V - lo ~ Exp(1) on (lo, inf): the normalisation check and the CDF
        # table must both start at the lower end of the support
        count = 2 * 10**5
        mix = MixingLaw.custom_density(lambda v: math.exp(-(v - lo)), (lo, math.inf))
        assert abs(mix.expectation(lambda v: v) - (lo + 1.0)) <= 1e-6
        # X1 = V + sqrt(V) Z: mean lo + 1, variance lo + 2
        spec = LSMixtureSpec(std_normal_base(2), np.zeros(2), [1.0, 0.0], np.eye(2), mix)
        batch = sample_location_scale_mixture(spec, count, RNG)
        mean = float(batch.data[:, 0].mean())
        assert abs(mean - (lo + 1.0)) <= 5.0 * math.sqrt((lo + 2.0) / count)


class TestSampleSkewNormal:
    def test_zero_alpha_is_normal(self):
        sn = SkewNormalSpec([0.0], [[1.0]], [0.0])
        b = sample_skew_normal(sn, 10**5, RngStream(seed=5))
        b_ref = sample_elliptical(std_normal_base(1), 10**5, RngStream(seed=6))
        crit = KS_CRIT_1PCT * math.sqrt(2.0 / 10**5)
        assert ks_two_sample(b.data[:, 0], b_ref.data[:, 0]) <= crit

    def test_skewness_sign_witness(self):
        sn = SkewNormalSpec([0.0], [[1.0]], [5.0])
        b = sample_skew_normal(sn, 2 * 10**5, RNG)
        x = b.data[:, 0]
        skew = float(((x - x.mean()) ** 3).mean() / x.std() ** 3)
        assert skew > 5.0 * math.sqrt(6.0 / b.count)

    @pytest.mark.parametrize("par", [Parametrization.HALF_ROOT, Parametrization.FULL_SIGMA])
    def test_chunk_matches_sign_flip_formula(self, par):
        # one chunk and a short one, bit for bit the plain-numpy sign flip
        mu, sigma, alpha = [0.3, -0.2], [[1.0, 0.3], [0.3, 2.0]], [2.0, -0.5]
        sn = SkewNormalSpec(mu, sigma, alpha, par)
        half = par is Parametrization.HALF_ROOT
        for m in (sampling._CHUNK, 61):
            got = sn.mu + sampling._skew_normal_chunk(sn, m, RngStream(5).chunk_generator(m))
            want = references.skew_normal_sign_flip(
                mu, sigma, alpha, half, m, RngStream(5).chunk_generator(m)
            )
            assert got.shape == (m, 2) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("par", [Parametrization.HALF_ROOT, Parametrization.FULL_SIGMA])
    def test_mean(self, par):
        # E X = mu + sqrt(2/pi) delta, delta = Sigma alpha / sqrt(1 + alpha' Sigma alpha)
        # (full_sigma) or Sigma^(1/2) alpha / sqrt(1 + alpha' alpha) (half_root)
        count = 2 * 10**5
        mu, alpha = np.array([0.3, -0.2]), np.array([2.0, -0.5])
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        vals, vecs = np.linalg.eigh(sigma)
        root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
        if par is Parametrization.HALF_ROOT:
            delta = root @ alpha / math.sqrt(1.0 + alpha @ alpha)
        else:
            delta = sigma @ alpha / math.sqrt(1.0 + alpha @ sigma @ alpha)
        x = sample_skew_normal(SkewNormalSpec(mu, sigma, alpha, par), count, RNG, workers=2).data
        se = x.std(axis=0) / math.sqrt(count)
        assert np.all(np.abs(x.mean(axis=0) - (mu + math.sqrt(2.0 / math.pi) * delta)) <= 4.0 * se)

    @pytest.mark.parametrize("par", [Parametrization.HALF_ROOT, Parametrization.FULL_SIGMA])
    def test_cf_oracle_both_parametrizations(self, par):
        count = 2 * 10**5
        band = 4.0 / math.sqrt(count)
        sn = SkewNormalSpec([0.2], [[2.0]], [2.0], par)
        b = sample_skew_normal(sn, count, RNG, workers=2)
        for t in ([0.3], [0.8], [1.5]):
            e = empirical_cf(b, t)
            a = cf_skew_normal(sn, t)
            assert abs(e.re - a.re) <= band and abs(e.im - a.im) <= band


class TestSampleSMSN:
    def test_cf_oracle_skew_t(self):
        count = 4 * 10**5
        band = 4.0 / math.sqrt(count)
        sn = SkewNormalSpec([0.0], [[1.0]], [2.0])
        mix = MixingLaw.inverse_gamma(2.5, 2.5)
        b = sample_smsn(sn, mix, count, RNG, workers=2)
        for t in ([0.5], [1.0]):
            e = empirical_cf(b, t)
            a = cf_smsn(sn, mix, t)
            assert abs(e.re - a.re) <= band + (a.abs_err or 0.0)
            assert abs(e.im - a.im) <= band + (a.abs_err or 0.0)

    def test_custom_density_draws_pinned(self):
        # the lazily tabulated CDF of a custom mixing density, which no spec
        # file reaches.  The table's geometric grid takes its powers from the
        # math module and its sums run in grid order, so one hash holds under
        # every numpy SIMD dispatch.
        sn = SkewNormalSpec([0.5, -0.25], np.diag([4.0, 0.25]), [2.0, -0.5])
        law = MixingLaw.custom_density(lambda v: math.exp(-v), (0.0, math.inf))
        batch = sampling.smsn_sampler(sn, law).batch(40000, RngStream(7))
        assert hashlib.sha256(batch.data.tobytes()).hexdigest() == (
            "e7818b65c17e49105c1026d0175302d502958e81df0b34cc37645740269714c0"
        )
        assert batch.provenance == (
            "kind=smsn spec=bd1ad9770250 seed=7 stream=0 count=40000 chunk=32768"
        )

    def test_custom_laws_fingerprinted_by_values(self):
        # a custom generator or mixing density is named in the provenance
        # line by its values at fixed probes: different laws differ, and the
        # same law built twice gives the same line
        sn = SkewNormalSpec([0.0, 0.0], np.eye(2), [1.0, 0.0])

        def mixing(rate):
            return MixingLaw.custom_density(lambda v: rate * math.exp(-rate * v), (0.0, math.inf))

        def smsn(rate):
            return sampling.smsn_sampler(sn, mixing(rate)).fingerprint

        def elliptical(scale):
            g = gn.custom_generator(lambda z: math.exp(-0.5 * z / scale))
            return sampling.elliptical_sampler(EllipticalSpec(2, np.zeros(2), np.eye(2), g)).fingerprint

        def lsm(rate):
            spec = LSMixtureSpec(std_normal_base(2), np.zeros(2), np.zeros(2), np.eye(2), mixing(rate))
            return sampling.lsm_sampler(spec).fingerprint

        for fingerprint in (smsn, elliptical, lsm):
            assert fingerprint(1.0) == fingerprint(1.0)
            assert fingerprint(1.0) != fingerprint(2.0)


class TestEmpiricalCF:
    def test_exact_unit_at_origin(self):
        batch = sample_elliptical(std_normal_base(2), 12345, RNG)
        e = empirical_cf(batch, [0.0, 0.0])
        assert e.re == 1.0 and e.im == 0.0
        assert e.abs_err == 3.0 / math.sqrt(batch.count)

    def test_symmetric_imaginary_within_band(self):
        batch = sample_elliptical(std_normal_base(2), 10**5, RNG)
        e = empirical_cf(batch, [1.0, 0.5])
        assert abs(e.im) <= 4.0 / math.sqrt(batch.count)

    def test_normal_closed_form_target(self):
        count = 10**6
        batch = sample_elliptical(std_normal_base(2), count, RNG, workers=4)
        e = empirical_cf(batch, [1.0, 0.0])
        assert abs(e.re - math.exp(-0.5)) <= 4.0 / math.sqrt(count)


class TestCosSinKernel:
    """cos and sin from one half-angle tan, against mpmath per element."""

    def test_against_mpmath(self):
        rng = np.random.default_rng(20261018)
        mags = 10.0 ** rng.uniform(-300.0, 300.0, 1500)
        special = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7e308, np.finfo(float).max]
        for k in (1, 2, 3, 7, 100, 10**6, 10**12):
            for x in (k * math.pi, 0.5 * k * math.pi):
                special += [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]
        phases = np.concatenate([mags, special])
        phases = np.concatenate([phases, -phases])
        cos, sin = sampling._cos_sin(phases.copy())
        want = np.array([oracles.cos_sin_mp(float(p)) for p in phases])
        assert np.abs(cos - want[:, 0]).max() <= 1e-15
        assert np.abs(sin - want[:, 1]).max() <= 1e-15


class TestEmpiricalCFRows:
    COUNT = 10**5 + 17  # two full blocks and a short one
    RNG = RngStream(seed=5, stream_id=1)

    @pytest.fixture(scope="class")
    def sampler(self):
        spec = EllipticalSpec(2, [0.2, -0.1], [[1.0, 0.3], [0.3, 2.0]], gn.normal_generator())
        return sampling.elliptical_sampler(spec)

    @pytest.fixture(scope="class")
    def batch(self, sampler):
        return sampler.batch(self.COUNT, self.RNG)

    @pytest.fixture(scope="class")
    def ts(self):
        pts = np.random.default_rng(3).normal(scale=2.0, size=(9, 2))
        pts[[2, 6]] = 0.0  # origin rows among the others
        return pts

    def rows(self, sampler, ts, workers=1):
        return sampler.empirical_cf_rows(ts, self.COUNT, self.RNG, workers)

    def test_bitwise_across_workers(self, sampler, ts):
        rows = [self.rows(sampler, ts, workers=w) for w in (1, 2, 3)]
        for other in rows[1:]:
            assert other.re.tobytes() == rows[0].re.tobytes()
            assert other.im.tobytes() == rows[0].im.tobytes()

    def test_rows_equal_point_calls(self, sampler, batch, ts):
        rows = self.rows(sampler, ts)
        for i, t in enumerate(ts):
            assert rows.row(i) == empirical_cf(batch, t)

    def test_origin_rows_exact(self, sampler, ts):
        rows = self.rows(sampler, ts)
        for i in (2, 6):
            assert (rows.re[i], rows.im[i]) == (1.0, 0.0)
            assert rows.abs_err[i] == 3.0 / math.sqrt(self.COUNT)
        assert set(rows.method) == {"mc"}

    def test_near_libm_cos_sin_over_same_blocks(self, sampler, batch, ts):
        rows = self.rows(sampler, ts)
        for i, t in enumerate(ts):
            re = im = 0.0
            for start in range(0, batch.count, sampling._CHUNK):
                phases = batch.data[start:start + sampling._CHUNK] @ t
                re += float(np.cos(phases).sum())
                im += float(np.sin(phases).sum())
            assert abs(rows.re[i] - re / batch.count) <= 1e-15
            assert abs(rows.im[i] - im / batch.count) <= 1e-15

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_point_fails_alone(self, sampler, ts, workers):
        bad = np.array([[1.7e308, 1.7e308]])
        grid = np.concatenate([ts[:4], bad, ts[4:]])
        rows = self.rows(sampler, grid, workers=workers)
        assert len(rows) == 4 and isinstance(rows.error, OverflowError)
        whole = self.rows(sampler, ts[:4])
        assert rows.re.tobytes() == whole.re.tobytes()
        assert rows.im.tobytes() == whole.im.tobytes()
        with pytest.raises(OverflowError, match="t'x overflows"):
            rows.row(4)

    def test_point_calls_pinned(self, batch, ts):
        # empirical_cf's bits on the grid, origin rows included; the
        # overflowing point raises.  np.tan's bits follow numpy's SIMD
        # dispatch: the first hash is the AVX-512 dispatch's, the second
        # that of the AVX2 and baseline dispatches.
        with pytest.raises(OverflowError, match="t'x overflows"):
            empirical_cf(batch, [1.7e308, 1.7e308])
        h = hashlib.sha256()
        for t in ts:
            e = empirical_cf(batch, t)
            h.update(np.array([e.re, e.im, e.abs_err]).tobytes())
        assert h.hexdigest() in (
            "2dd5db64bbf17d96145a0e78457fcad6437a38ba294ef6a8bf7d633270152c24",
            "291315d16bb209fb01894e1ad6e16e9ac7bc1cbaa1c646ebcbadb2fa4610fd39",
        )


class TestDeterminism:
    def test_bit_identical_across_workers(self):
        spec = std_normal_base(3)
        batches = [
            sample_elliptical(spec, 10**5 + 17, RngStream(seed=99, stream_id=2), workers=w)
            for w in (1, 4, 8)
        ]
        for other in batches[1:]:
            assert np.array_equal(batches[0].data, other.data)

    def test_repeatable(self):
        sn = SkewNormalSpec([0.0, 0.0], np.eye(2), [3.0, -1.0])
        a = sample_skew_normal(sn, 50000, RngStream(seed=7), workers=4)
        b = sample_skew_normal(sn, 50000, RngStream(seed=7), workers=1)
        assert np.array_equal(a.data, b.data)

    def test_streams_differ(self):
        a = sphere_sampler(2).batch(1000, RngStream(seed=7, stream_id=0))
        b = sphere_sampler(2).batch(1000, RngStream(seed=7, stream_id=1))
        assert not np.array_equal(a.data, b.data)

    def test_provenance_recorded(self):
        batch = sphere_sampler(2).batch(10, RngStream(seed=31, stream_id=4))
        assert "seed=31" in batch.provenance and "stream=4" in batch.provenance


class TestBatchCSV:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_bytes(b"".join(ball_sampler(2).csv(500, RNG, 1, ["spec_sha256=abc"])))
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("seed=" in c for c in comments)
        assert any("spec_sha256=abc" in c for c in comments)
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "x1,x2"
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(parsed, sample_ball(2, 500, RNG).data)

    def test_block_writer_matches_per_value_format(self):
        # the block template must write exactly what f"{v:.17g}" writes,
        # also across block boundaries and on signed zero and subnormals
        edge = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e300, 0.1, 1.0 / 3.0, 123456789.0, 2.5]

        def draw(m, g):  # every chunk starts and ends with the edge values
            rows = g.standard_normal((m, 2))
            rows[: len(edge), 0] = edge
            rows[-len(edge):, 1] = edge
            return rows

        sampler = sampling.Sampler("test", 2, draw)
        rng = RngStream(seed=3)
        data = sampler.batch(70000, rng).data
        expected = f"# {sampler.provenance(rng, 70000)}\nx1,x2\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in data
        )
        assert b"".join(sampler.csv(70000, rng)).decode() == expected

    def test_batch_validation(self):
        with pytest.raises(DomainError):
            SampleBatch(2, 2, np.array([[1.0, np.nan], [0.0, 0.0]]), "x")


class TestStreamedChunks:
    """A sampler's chunks, reduced as they are drawn, give the bytes of the
    whole batch: the mc route's rows and the sample command's CSV."""

    COUNT = 10**5 + 17  # three full chunks and a short one

    @staticmethod
    def samplers():
        sn = SkewNormalSpec([0.3, -0.2], [[1.0, 0.4], [0.4, 1.5]], [2.0, -1.0])
        mixing = MixingLaw.inverse_gamma(3.0, 2.0)
        t3 = EllipticalSpec(2, [0.2, -0.1], [[1.0, 0.3], [0.3, 2.0]],
                            gn.generalized_t_generator(2, 3.0, 3))
        lsm = LSMixtureSpec(std_normal_base(2), [0.1, 0.0], [0.5, -0.3], [[2.0, 0.2], [0.2, 1.0]],
                            MixingLaw.finite_discrete([0.5, 2.0], [0.3, 0.7]))
        return {
            "elliptical": (sampling.elliptical_sampler(t3),
                           lambda c, r, w: sample_elliptical(t3, c, r, w)),
            "lsm": (sampling.lsm_sampler(lsm),
                    lambda c, r, w: sample_location_scale_mixture(lsm, c, r, w)),
            "skew_normal": (sampling.skew_normal_sampler(sn),
                            lambda c, r, w: sample_skew_normal(sn, c, r, w)),
            "smsn": (sampling.smsn_sampler(sn, mixing),
                     lambda c, r, w: sample_smsn(sn, mixing, c, r, w)),
        }

    GRID = np.array([[0.7, -0.4], [0.0, 0.0], [2.5, 1.0], [1.7e308, 1.7e308], [0.1, 0.2]])

    @pytest.mark.parametrize("kind", ["elliptical", "lsm", "skew_normal", "smsn"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_mc_rows_bitwise_equal_batch(self, kind, workers):
        sampler, sample = self.samplers()[kind]
        rng = RngStream(seed=11, stream_id=3)
        streamed = sampler.empirical_cf_rows(self.GRID, self.COUNT, rng, workers)
        batch = sample(self.COUNT, rng, workers)
        whole = [empirical_cf(batch, t) for t in self.GRID[:3]]
        with pytest.raises(OverflowError):  # the overflowing point fails
            empirical_cf(batch, self.GRID[3])
        assert len(streamed) == 3 and isinstance(streamed.error, OverflowError)
        for name in ("re", "im", "abs_err"):
            want = np.array([getattr(e, name) for e in whole])
            assert getattr(streamed, name).tobytes() == want.tobytes()
        assert (streamed.re[1], streamed.im[1]) == (1.0, 0.0)

    @pytest.mark.parametrize("kind", ["elliptical", "lsm", "skew_normal", "smsn"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_csv_bytes_equal_batch(self, kind, workers):
        sampler, _ = self.samplers()[kind]
        rng = RngStream(seed=12)
        batch = sampler.batch(self.COUNT, rng, 1)
        want = f"# {batch.provenance}\n# spec_sha256=abc\nx1,x2\n".encode() + _csvout.rows(batch.data)
        streamed = b"".join(sampler.csv(self.COUNT, rng, workers, ["spec_sha256=abc"]))
        assert streamed == want

    def test_count_checked_before_any_draw(self):
        calls = []
        sampler = sampling.Sampler("test", 1, lambda m, g: calls.append(m) or np.zeros((m, 1)))
        with pytest.raises(DomainError, match=r"count must be <= 2\^55"):
            sampler.chunks(sampling.MAX_COUNT + 1, RNG)
        with pytest.raises(DomainError, match="count must be >= 1"):
            sampler.csv(0, RNG)
        assert calls == []
        assert sampling.MAX_COUNT == 2**55

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_origin_grid_draws_nothing(self, workers):
        calls = []
        sampler = sampling.Sampler("test", 2, lambda m, g: calls.append(m) or np.zeros((m, 2)))
        rows = sampler.empirical_cf_rows(np.zeros((3, 2)), 10**6, RNG, workers)
        assert calls == []
        assert rows.re.tolist() == [1.0] * 3 and rows.im.tolist() == [0.0] * 3
        assert rows.abs_err.tolist() == [3e-3] * 3 and rows.error is None
        # the count is still checked first
        with pytest.raises(DomainError, match=r"count must be <= 2\^55"):
            sampler.empirical_cf_rows(np.zeros((1, 2)), sampling.MAX_COUNT + 1, RNG, workers)
        with pytest.raises(DomainError, match="count must be >= 1"):
            sampler.empirical_cf_rows(np.zeros((1, 2)), 0, RNG, workers)
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_chunk_raises_batch_error(self, workers):
        def draw(m, g):
            rows = g.standard_normal((m, 2))
            if m < sampling._CHUNK:  # the last, short chunk
                rows[-1, 0] = np.inf
            return rows

        sampler = sampling.Sampler("test", 2, draw)
        with pytest.raises(DomainError, match="^SampleBatch: non-finite entries in data$"):
            list(sampler.chunks(3 * sampling._CHUNK + 5, RNG, workers))
        with pytest.raises(DomainError, match="^SampleBatch: non-finite entries in data$"):
            sampler.batch(3 * sampling._CHUNK + 5, RNG, workers)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_bounded_submissions(self, workers):
        taken = []

        def items():
            for i in range(1000):
                taken.append(i)
                yield i

        for consumed, value in enumerate(sampling._ordered_map(lambda i: 2 * i, items(), workers)):
            assert value == 2 * consumed
            assert len(taken) <= consumed + 1 + 2 * workers
        assert len(taken) == 1000

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_pool_capped_at_cpu_count(self, monkeypatch, cpus):
        # --workers has no upper bound: the pool takes at most one thread per
        # CPU (none past one CPU); a stand-in pool records its size and runs
        # each call at once, so no thread starts
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                future = Future()
                future.set_result(fn(item))
                return future

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert list(sampling._ordered_map(lambda i: 2 * i, range(3), 100_000)) == [0, 2, 4]
        assert sizes == ([cpus] if cpus > 1 else [])


class TestRngStreamKeys:
    def test_stream_id_outside_24_bits_rejected(self):
        # the stream id fills the top 24 bits of the key's second word: a
        # larger one would repeat the draws of another stream
        for bad in (2**24, -1, 2**64):
            with pytest.raises(DomainError, match="stream_id"):
                RngStream(7, bad)
        top = RngStream(7, 2**24 - 1).chunk_generator(5).standard_normal(4)
        assert not np.array_equal(top, RngStream(7, 0).chunk_generator(5).standard_normal(4))

    def test_seed_outside_64_bits_rejected(self):
        # the seed is the key's first 64-bit word: a larger or negative one
        # would repeat the draws of another seed
        for bad in (2**64, -1):
            with pytest.raises(DomainError, match="seed"):
                RngStream(bad)
        top = RngStream(2**64 - 1).chunk_generator(0).standard_normal(4)
        assert not np.array_equal(top, RngStream(0).chunk_generator(0).standard_normal(4))

    def test_chunk_index_outside_40_bits_rejected(self):
        stream = RngStream(7, 1)
        last = stream.chunk_generator(2**40 - 1).standard_normal(4)
        assert not np.array_equal(last, RngStream(7, 2).chunk_generator(0).standard_normal(4))
        with pytest.raises(DomainError, match="chunk"):
            stream.chunk_generator(2**40)

    def test_keys_unchanged(self):
        # (seed, stream << 40 | chunk): the layout every recorded draw used
        key = np.array([9, (3 << 40) | 17], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(4)
        assert np.array_equal(RngStream(9, 3).chunk_generator(17).standard_normal(4), want)


@pytest.mark.parametrize("n", range(1, 17))
def test_row_norms_bitwise_equal_linalg_norm(n):
    x = np.random.default_rng(n).standard_normal((4099, n)) * np.logspace(-150, 150, n)
    x[0] = 0.0
    x[1, 0] = 1e-320
    assert sampling._row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()
