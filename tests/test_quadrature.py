"""Quadrature engine tests: moment integrals, oscillatory route, phi."""

import math
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ellipcf import generators as gn
from ellipcf import specfun
from ellipcf.elliptical import closed_form_generator
from ellipcf.errors import (
    ConvergenceError,
    DivergentIntegralError,
    DomainError,
    MomentUndefinedError,
)
from ellipcf.quadrature import (
    QuadratureControl,
    _phi_small_u_series,
    adaptive_interval,
    adaptive_rows,
    integrate_bessel_oscillatory,
    moment_integral,
    phi_hankel,
    radial_moment,
)
from ellipcf.specfun import bessel_j, gamma_fn, hyp1f1


class TestAdaptiveInterval:
    def test_kronrod_rule_nested(self):
        # K15 is exact to degree 22 and G7 to degree 13, so x^13 passes its
        # error test on the first panel; the nested pair costs 15 calls
        calls = []

        def f(x):
            calls.append(x)
            return x**13

        val, err, panels = adaptive_interval(f, 0.0, 1.0, 1e-14, 1e-14)
        assert panels == 1
        assert len(calls) == 15
        assert abs(val - 1.0 / 14.0) <= 1e-15 and err <= 1e-15

    def test_complex_integrand(self):
        # the mixing expectations integrate complex values
        val, err, _ = adaptive_interval(lambda x: complex(math.cos(x), math.sin(x)),
                                        0.0, 1.0, 1e-12, 1e-12)
        assert abs(val - complex(math.sin(1.0), 1.0 - math.cos(1.0))) <= 1e-13


class TestAdaptiveRows:
    """The lockstep form makes adaptive_interval's decisions for every row."""

    PARAMS = np.geomspace(0.3, 60.0, 40)

    @staticmethod
    def rows_integrand(params):
        # + - * / and sqrt only, so array and scalar values round alike
        def f(rows, x):
            p = params[rows]
            out = np.empty(x.shape, dtype=complex)
            out.real = np.sqrt(x) / (1.0 + p * x * x)
            out.imag = x / (1.0 + p * x) - 0.25
            return out

        return f

    @pytest.mark.parametrize("tols", [(1e-12, 1e-12, 512), (1e-6, 1e-9, 4)])
    def test_bitwise_equal_to_adaptive_interval(self, tols):
        vals, errs, panels, failures = adaptive_rows(
            self.rows_integrand(self.PARAMS), 40, 0.0, 3.0, *tols
        )
        assert not failures and panels.max() > 1
        for i, p in enumerate(self.PARAMS.tolist()):
            want = adaptive_interval(
                lambda x: complex(math.sqrt(x) / (1.0 + p * x * x), x / (1.0 + p * x) - 0.25),
                0.0, 3.0, *tols,
            )
            assert (complex(vals[i]), float(errs[i]), int(panels[i])) == want

    def test_real_integrand_stays_real(self):
        vals, errs, panels, _ = adaptive_rows(
            lambda rows, x: x * x * self.PARAMS[rows], 40, 0.0, 1.0, 1e-12, 1e-12
        )
        assert vals.dtype == float and (panels == 1).all()
        assert_allclose(vals, self.PARAMS / 3.0, rtol=1e-15)

    def test_raising_row_drops_out_alone(self):
        good = self.rows_integrand(self.PARAMS)

        def f(rows, x):
            if (rows == 5).any():
                raise ArithmeticError("row 5 breaks")
            return good(rows, x)

        clean = adaptive_rows(good, 40, 0.0, 3.0, 1e-12, 1e-12)[0]
        vals, errs, panels, failures = adaptive_rows(f, 40, 0.0, 3.0, 1e-12, 1e-12)
        assert list(failures) == [5] and str(failures[5]) == "row 5 breaks"
        assert np.isnan(vals[5]) and np.isnan(errs[5]) and panels[5] == 0
        keep = np.arange(40) != 5
        assert vals[keep].tobytes() == clean[keep].tobytes()


class TestMomentIntegral:
    def test_normal_gamma_integral(self):
        # int z^(n/2-1) e^(-z/2) dz = 2^(n/2) Gamma(n/2)
        for n in (1, 2, 3, 5):
            res = moment_integral(gn.normal_generator(), n)
            assert_allclose(res.value, 2.0 ** (0.5 * n) * gamma_fn(0.5 * n), rtol=1e-10)
            assert res.err_est <= 1e-8

    def test_ball_unit(self):
        assert_allclose(moment_integral(gn.uniform_ball_generator(), 2).value, 1.0, rtol=1e-12)

    def test_pearson_vii_beta_integral(self):
        # (n, s, N) = (2, 1, 3): s^(n/2) Gamma(n/2) Gamma(N - n/2) / Gamma(N) = 1/2
        res = moment_integral(gn.pearson_vii_generator(3.0, 1.0), 2)
        assert_allclose(res.value, 0.5, rtol=1e-10)

    def test_matches_closed_forms(self):
        cases = [
            (gn.generalized_t_generator(3, 2.0, 4), 3),
            (gn.pearson_ii_generator(1.5), 2),
            (gn.kotz_generator(2.0, 0.5, 1.0), 5),
            (gn.kotz_generator(1.0, 1.5, 0.5), 1),
            (gn.bessel_generator(0.75, 0.8), 2),
        ]
        for gen, n in cases:
            res = moment_integral(gen, n)
            assert_allclose(res.value, gn.closed_moment_integral(gen, float(n)), rtol=1e-8)

    def test_divergence_detected(self):
        slow = gn.custom_generator(lambda z: 1.0 / (1.0 + z))
        with pytest.raises(DivergentIntegralError):
            moment_integral(slow, 2)


class TestRadialMoment:
    def test_zeroth_is_one(self):
        for gen in (gn.normal_generator(), gn.generalized_t_generator(2, 1.0, 1)):
            assert radial_moment(gen, 2, 0) == 1.0

    def test_normal_chi_square_moment(self):
        # E[R^2] = n for the normal generator
        for n in (1, 3, 5):
            assert_allclose(radial_moment(gn.normal_generator(), n, 1), float(n), rtol=1e-9)

    def test_ball_moment(self):
        assert_allclose(radial_moment(gn.uniform_ball_generator(), 2, 1), 0.5, rtol=1e-10)

    def test_heavy_tail_moment_refused(self):
        with pytest.raises(MomentUndefinedError):
            radial_moment(gn.generalized_t_generator(2, 1.0, 1), 2, 1)
        with pytest.raises(MomentUndefinedError):
            radial_moment(gn.generalized_t_generator(2, 3.0, 3), 2, 2)  # 2k=4 > m=3

    def test_heavy_tail_detected_numerically(self):
        cauchy_like = gn.custom_generator(lambda z: (1.0 + z) ** (-1.5))  # n=2 profile
        with pytest.raises(MomentUndefinedError):
            radial_moment(cauchy_like, 2, 1)


class TestOscillatory:
    def test_gaussian_envelope_j0(self):
        # int_0^inf r exp(-r^2/2) J_0(r) dr = exp(-1/2)
        res = integrate_bessel_oscillatory(lambda r: r * math.exp(-0.5 * r * r), 0.0, 1.0)
        assert_allclose(res.value, math.exp(-0.5), atol=1e-9)

    def test_finite_support_lommel_identity(self):
        # int_0^1 r^(3/2) J_{1/2}(t r) dr = J_{3/2}(t) / t
        for t in (1.0, 10.0, 50.0):
            res = integrate_bessel_oscillatory(
                lambda r: r**1.5, 0.5, t, support_radius=1.0
            )
            assert_allclose(res.value, bessel_j(1.5, t) / t, atol=1e-10)
            assert res.tail_bound == 0.0

    def test_frequency_sweep_stable(self):
        for omega in (1.0, 10.0, 50.0):
            res = integrate_bessel_oscillatory(
                lambda r: r * math.exp(-0.5 * r * r), 0.0, omega
            )
            assert abs(res.value - math.exp(-0.5 * omega * omega)) <= 1e-8

    def test_non_decaying_envelope_fails(self):
        with pytest.raises(ConvergenceError):
            integrate_bessel_oscillatory(lambda r: r, 0.0, 1.0)

    def test_invalid_omega(self):
        with pytest.raises(DomainError):
            integrate_bessel_oscillatory(lambda r: math.exp(-r), 0.0, 0.0)


class TestPhiHankel:
    def test_normal_target(self):
        res = phi_hankel(gn.normal_generator(), 3, 1.0)
        assert_allclose(res.value, math.exp(-0.5), atol=1e-8)

    def test_kotz_kummer_target(self):
        # s=1, N=2, r=1/2, n=2, u=1 -> 1F1(n/2+N-1; n/2; -u^2/(4r))
        res = phi_hankel(gn.kotz_generator(2.0, 0.5, 1.0), 2, 1.0)
        assert_allclose(res.value, hyp1f1(2.0, 1.0, -0.5), atol=1e-8)

    def test_unit_at_origin(self):
        cauchy = gn.generalized_t_generator(2, 1.0, 1)
        for gen in (gn.normal_generator(), cauchy, gn.uniform_ball_generator()):
            res = phi_hankel(gen, 2, 0.0)
            assert res.value == 1.0 and res.err_est == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_series_oscillatory_splice(self, n):
        # at u = 1e-3 the moment series and the oscillatory route must agree
        u = 1e-3
        for gen in (gn.normal_generator(), gn.kotz_generator(2.0, 0.5, 1.0)):
            series = _phi_small_u_series(gen, n, u, QuadratureControl()).value
            c_n_route = phi_hankel(gen, n, 1.5e-3)  # oscillatory just above the switch
            closed = closed_form_generator(gen, n, u * u)
            assert abs(series - closed) <= 1e-7
            assert abs(c_n_route.value - closed_form_generator(gen, n, 1.5e-3**2)) <= 1e-6

    def test_heavy_tail_small_u_uses_oscillatory(self):
        # Cauchy has no moments: the small-u path must still work
        res = phi_hankel(gn.generalized_t_generator(1, 1.0, 1), 1, 5e-4)
        assert_allclose(res.value, math.exp(-5e-4), atol=1e-6)

    def test_monotone_tolerance(self):
        # halving rel_tol never worsens the closed-form deviation (small
        # float-plateau slack)
        cases = [
            (gn.normal_generator(), 2, 1.0),
            (gn.generalized_t_generator(2, 1.0, 1), 2, 4.0),
            (gn.kotz_generator(2.0, 0.5, 1.0), 3, 1.0),
        ]
        for gen, n, q in cases:
            target = closed_form_generator(gen, n, q)
            prev = None
            tol = 1e-4
            while tol >= 1e-9:
                ctl = QuadratureControl(abs_tol=tol, rel_tol=tol)
                err = abs(phi_hankel(gen, n, math.sqrt(q), ctl).value - target)
                if prev is not None:
                    assert err <= prev + 1e-12
                prev = err
                tol *= 0.5

    def test_error_estimate_honesty(self):
        # true error <= 10 * err_est on >= 95% of the closed-form grid
        fams = [
            gn.normal_generator(),
            gn.uniform_ball_generator(),
            gn.generalized_t_generator(2, 2.0, 3),
            gn.pearson_ii_generator(1.0),
            gn.kotz_generator(2.0, 0.5, 1.0),
            gn.bessel_generator(0.75, 0.8),
        ]
        total, honest = 0, 0
        for gen in fams:
            n = 2
            if gen.family is gn.Family.GENERALIZED_T:
                n = int(gen.params["n"])
            for q in (0.01, 0.1, 1.0, 4.0, 25.0):
                res = phi_hankel(gen, n, math.sqrt(q))
                true_err = abs(res.value - closed_form_generator(gen, n, q))
                total += 1
                if true_err <= 10.0 * max(res.err_est, 1e-15):
                    honest += 1
        assert honest >= 0.95 * total

    @pytest.mark.xfail(
        strict=True,
        reason="the integrable singularity at the Pearson II support edge is not "
        "substituted, so err_est is far too optimistic",
    )
    def test_error_estimate_covers_pearson_ii_edge(self):
        # m = -0.7, n = 2, u = 5: true error ~4e-6 against err_est ~5e-10
        gen = gn.pearson_ii_generator(-0.7)
        res = phi_hankel(gen, 2, 5.0)
        assert abs(res.value - closed_form_generator(gen, 2, 25.0)) <= res.err_est

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            phi_hankel(gn.normal_generator(), 0, 1.0)
        with pytest.raises(DomainError):
            phi_hankel(gn.normal_generator(), 2, -1.0)


class TestKernelMemo:
    GRID = (0.37, 1.0, 2.5, 4.1, 7.3, 12.0)

    @staticmethod
    def _values(gen, n, grid, cold):
        out = {}
        for u in grid:
            if cold:
                specfun._JZERO_CACHE.clear()
            res = phi_hankel(gen, n, u)
            out[u] = (res.value, res.err_est, res.panels_used)
        return out

    @pytest.mark.parametrize("n", [2, 5])
    def test_memo_is_transparent(self, n):
        # a cold memo, a warm one and the reversed grid give the same bits
        gen = gn.kotz_generator(2.0, 0.5, 1.0)
        cold = self._values(gen, n, self.GRID, cold=True)
        specfun._JZERO_CACHE.clear()
        warm = self._values(gen, n, self.GRID, cold=False)
        backward = self._values(gen, n, self.GRID[::-1], cold=False)
        assert cold == warm == backward
        assert len(specfun._JZERO_CACHE[0.5 * (n - 2.0)].j_values) > 0

    def test_memo_stays_under_its_cap(self, monkeypatch):
        cap = 200
        monkeypatch.setattr(specfun, "_J_MEMO_CAP", cap)
        specfun._JZERO_CACHE.clear()
        gen = gn.normal_generator()
        for i in range(40):
            u = 0.5 + 0.37 * i
            res = phi_hankel(gen, 2, u)
            assert abs(res.value - math.exp(-0.5 * u * u)) <= 1e-8
            assert 0 < len(specfun._JZERO_CACHE[0.0].j_values) <= cap

    def test_memo_shared_by_threads(self, monkeypatch):
        # more threads than cores on one small memo: every value still equals
        # the single-threaded one and the size check never lets it overflow
        cap = 150
        monkeypatch.setattr(specfun, "_J_MEMO_CAP", cap)
        gen = gn.kotz_generator(2.0, 0.5, 1.0)
        grid = [0.3 + 0.61 * i for i in range(12)]
        specfun._JZERO_CACHE.clear()
        expected = [phi_hankel(gen, 2, u).value for u in grid]
        memo = specfun._JZERO_CACHE[0.0].j_values
        results, sizes = {}, []

        def worker(idx):
            order = grid[idx % 3:] + grid[:idx % 3]
            results[idx] = {u: phi_hankel(gen, 2, u).value for u in order}
            sizes.append(len(memo))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == 8
        for got in results.values():
            assert [got[u] for u in grid] == expected
        assert max(sizes) <= cap
