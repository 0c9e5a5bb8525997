"""Sampler tests: stochastic representations vs analytic CFs and CDFs."""

import math

import numpy as np
import pytest

from ellipcf import generators as gn
from ellipcf.elliptical import EllipticalSpec, cf, uniform_sphere_cf
from ellipcf.errors import DomainError
from ellipcf.skewmix import (
    LSMixtureSpec,
    MixingLaw,
    Parametrization,
    SkewNormalSpec,
    cf_location_scale_mixture,
    cf_skew_normal,
    cf_smsn,
    mixing_weights,
)
from ellipcf.sampling import (
    RngStream,
    SampleBatch,
    batch_to_csv,
    empirical_cf,
    sample_ball,
    sample_elliptical,
    sample_location_scale_mixture,
    sample_radius,
    sample_skew_normal,
    sample_smsn,
    sample_sphere,
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


class TestSphereAndBall:
    def test_sphere_norms_exact(self):
        batch = sample_sphere(3, 50000, RNG)
        assert np.abs(np.linalg.norm(batch.data, axis=1) - 1.0).max() <= 1e-12

    def test_sphere_mean_symmetric(self):
        batch = sample_sphere(4, 100000, RNG)
        assert np.abs(batch.data.mean(axis=0)).max() <= 4.0 / math.sqrt(batch.count)

    def test_sphere_cf_matches_analytic(self):
        count = 10**6
        batch = sample_sphere(3, count, RNG, workers=4)
        e = empirical_cf(batch, [2.0, 0.0, 0.0])
        want = uniform_sphere_cf(3, 4.0)
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_weight_matches_per_draw_weight(self, workers):
        # the array path for k(u) = u must draw exactly what the per-draw
        # weight-function path draws
        sn = SkewNormalSpec([0.1, -0.2], np.eye(2), [2.0, -1.0])
        plain = MixingLaw.inverse_gamma(3.0, 2.0)
        custom = MixingLaw.inverse_gamma(3.0, 2.0, weight_fn=lambda u: u)
        a = sample_smsn(sn, plain, 70000, RNG, workers)
        b = sample_smsn(sn, custom, 70000, RNG, 1)
        assert np.array_equal(a.data, b.data)

    def test_negative_weight_named(self):
        with pytest.raises(DomainError, match=r"k\(-2.0\)"):
            mixing_weights(MixingLaw.degenerate(1.0), np.array([1.0, -2.0, -3.0]))
        with pytest.raises(DomainError, match=r"k\(nan\)"):
            mixing_weights(MixingLaw.degenerate(1.0), np.array([1.0, math.nan]))
        flipped = MixingLaw.degenerate(1.0, weight_fn=lambda u: -u)
        with pytest.raises(DomainError, match=r"k\(1.0\) = -1.0"):
            mixing_weights(flipped, np.array([1.0]))


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
        a = sample_sphere(2, 1000, RngStream(seed=7, stream_id=0))
        b = sample_sphere(2, 1000, RngStream(seed=7, stream_id=1))
        assert not np.array_equal(a.data, b.data)

    def test_provenance_recorded(self):
        batch = sample_sphere(2, 10, RngStream(seed=31, stream_id=4))
        assert "seed=31" in batch.provenance and "stream=4" in batch.provenance


class TestBatchCSV:
    def test_round_trip(self, tmp_path):
        batch = sample_ball(2, 500, RNG)
        path = tmp_path / "batch.csv"
        batch_to_csv(batch, path, extra_comments=["spec_sha256=abc"])
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("seed=" in c for c in comments)
        assert any("spec_sha256=abc" in c for c in comments)
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "x1,x2"
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(parsed, batch.data)

    def test_block_writer_matches_per_value_format(self, tmp_path):
        # the block template must write exactly what f"{v:.17g}" writes,
        # also across block boundaries and on signed zero and subnormals
        edge = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e300, 0.1, 1.0 / 3.0, 123456789.0, 2.5]
        data = RngStream(seed=3).generator().standard_normal((70000, 2))
        data[: len(edge), 0] = edge
        data[-len(edge):, 1] = edge
        batch = SampleBatch(2, len(data), data, "kind=test")
        path = tmp_path / "block.csv"
        batch_to_csv(batch, path)
        expected = "# kind=test\nx1,x2\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in data
        )
        assert path.read_text() == expected

    def test_batch_validation(self):
        with pytest.raises(DomainError):
            SampleBatch(2, 2, np.array([[1.0, np.nan], [0.0, 0.0]]), "x")
