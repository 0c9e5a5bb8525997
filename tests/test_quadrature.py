"""Quadrature engine tests: moment integrals, oscillatory route, phi."""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mpmath as mp
import oracles
import references

from ellipcf import generators as gn
from ellipcf import quadrature
from ellipcf.elliptical import closed_form_generator
from ellipcf.errors import ConvergenceError, DivergentIntegralError, DomainError, EllipcfError
from ellipcf.quadrature import (
    _moment_n,
    adaptive_interval,
    adaptive_rows,
    half_line,
    integrate_bessel_oscillatory,
    moment_integral,
    phi_hankel,
    phi_hankel_rows,
)
from ellipcf.skewmix import star_unimodal_rows
from ellipcf.specfun import bessel_j, gamma_fn, hyp1f1


def _narrow_normal(scale):
    # g = exp(-z/s) with its g': the normal of variance s/2
    return gn.custom_generator(lambda z: math.exp(-z / scale),
                               lambda z: -math.exp(-z / scale) / scale)


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

    # (integrand, a, b, abs_tol, rel_tol, max_panels, seeds) -> float.hex of
    # the value's parts and of err_est, and the panel count: the Gauss-Kronrod
    # decisions (nodes, sums, which panel is bisected, when to stop) pinned
    # to the bit
    PINNED = {
        "real": ((lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1e-13, 1e-13, 256, ()),
                 ("0x1.1945c10eaa046p-1",), "0x1.de00000000000p-49", 14),
        "complex": ((lambda x: complex(math.cos(x), math.sin(x)), 0.0, 20.0, 1e-12, 1e-12, 256, ()),
                    ("0x1.d36d8f55d3ce6p-1", "0x1.2f0fde34dabdfp-1"), "0x1.08ab68b3f7800p-41", 8),
        "seeded": ((math.sqrt, 0.0, 1.0, 1e-12, 1e-12, 256, (1e-3, 0.01, 0.1, 0.5, 2.0)),
                   ("0x1.55555555555cbp-1",), "0x1.ff90caa9b9b4ep-41", 21),
        "capped": ((lambda x: math.sqrt(abs(x - 0.3)), 0.0, 1.0, 1e-14, 1e-14, 4, ()),
                   ("0x1.ffa8589ec26d5p-2",), "0x1.aeb6a1db024c0p-11", 4),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_decisions_pinned(self, case):
        args, value, err, panels = self.PINNED[case]
        val, err_est, used = adaptive_interval(*args)
        parts = (val.real, val.imag) if isinstance(val, complex) else (val,)
        assert tuple(float.hex(p) for p in parts) == value
        assert (float.hex(err_est), used) == (err, panels)

    def test_integrand_exception_propagates(self):
        def f(x):
            if x > 0.5:
                raise ArithmeticError("past 0.5")
            return x

        with pytest.raises(ArithmeticError, match="past 0.5"):
            adaptive_interval(f, 0.0, 1.0, 1e-12, 1e-12)


class TestAdaptiveRows:
    """Every row of the lockstep engine gets the bits of its own one-row
    run (adaptive_interval), whatever else is in the batch."""

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

    def test_per_row_bounds_seeds_and_tolerances(self):
        # each row on its own interval, initial partition and abs_tol, with
        # empty intervals among them, still as adaptive_interval
        rng = np.random.default_rng(8)
        lo = rng.uniform(0.0, 1.0, 40)
        hi = lo + rng.uniform(-0.5, 3.0, 40)
        tols = np.geomspace(1e-13, 1e-5, 40)
        seeds = [tuple(np.sort(rng.uniform(-1.0, 4.0, i % 5)).tolist()) for i in range(40)]
        f = self.rows_integrand(self.PARAMS)
        vals, errs, panels, failures = adaptive_rows(f, 40, lo, hi, tols, 1e-12, 64, seeds=seeds)
        assert not failures and (panels == 0).any() and panels.max() > 1
        for i, p in enumerate(self.PARAMS.tolist()):
            want = adaptive_interval(
                lambda x: complex(math.sqrt(x) / (1.0 + p * x * x), x / (1.0 + p * x) - 0.25),
                lo[i], hi[i], tols[i], 1e-12, 64, seeds[i],
            )
            assert (complex(vals[i]), float(errs[i]), int(panels[i])) == want

    @pytest.mark.parametrize("part", ["complex", "real"])
    def test_bitwise_equal_to_reference_loop(self, part):
        # each row against references.adaptive_loop, a plain list of panels
        # that is not adaptive_rows' one-row case: seeded rows with bounds,
        # seeds, tolerances and budgets of their own, some of them binding
        rng = np.random.default_rng(47)
        lo = np.maximum(rng.uniform(-0.5, 1.0, 40), 0.0)  # sqrt(x) singular at 0
        hi = lo + rng.uniform(-0.5, 3.0, 40)
        tols = np.geomspace(1e-17, 1e-6, 40)
        budgets = rng.integers(1, 30, 40)
        seeds = [tuple(np.sort(rng.uniform(-1.0, 4.0, i % 4)).tolist()) for i in range(40)]
        f = self.rows_integrand(self.PARAMS)
        g = f if part == "complex" else lambda rows, x: f(rows, x).real
        vals, errs, panels, failures = adaptive_rows(g, 40, lo, hi, tols, 1e-15, budgets, seeds)
        assert not failures and (panels == 0).any()
        assert ((panels == budgets) & (panels > 2)).sum() >= 5 and (panels < budgets).sum() >= 5
        for i, p in enumerate(self.PARAMS.tolist()):
            def h(x, p=p):
                v = complex(math.sqrt(x) / (1.0 + p * x * x), x / (1.0 + p * x) - 0.25)
                return v if part == "complex" else v.real

            want = references.adaptive_loop(h, lo[i], hi[i], tols[i], 1e-15, budgets[i], seeds[i])
            assert (vals[i].item(), float(errs[i]), int(panels[i])) == want

    # integrands whose panels tie exactly in error, so the tie rule (the
    # older panel first) decides which one a binding budget bisects: the
    # two mirror halves of |x| and of sqrt|x|, and a step up and a step down
    # at the same place in two panels of one width; on [0, 3] seeded at 2 the
    # left half of [0, 2] ties with [2, 3], which is the older of the two
    TIES = {
        "abs": (abs, -1.0, 1.0, 0.0),
        "sqrt_abs": (lambda x: math.sqrt(abs(x)), -1.0, 1.0, 0.0),
        "steps": (lambda x: 1.0 if 0.35 <= x < 1.0 else -1.0 if x >= 1.35 else 0.0, 0.0, 2.0, 1.0),
        "uneven_steps": (lambda x: 1.0 if 0.35 <= x < 2.0 else -1.0 if x >= 2.35 else 0.0,
                         0.0, 3.0, 2.0),
        "complex_uneven_steps": (
            lambda x: (1.0 - 0.5j) * (1.0 if 0.35 <= x < 2.0 else -1.0 if x >= 2.35 else 0.0),
            0.0, 3.0, 2.0,
        ),
    }

    @pytest.mark.parametrize("name", list(TIES))
    def test_exact_error_ties_against_reference_loop(self, name):
        h, a, b, seed = self.TIES[name]
        budgets = np.arange(1, 30)

        def f(rows, x):
            return np.array([h(v) for v in x.ravel().tolist()]).reshape(x.shape)

        vals, errs, panels, failures = adaptive_rows(
            f, len(budgets), a, b, 0.0, 0.0, budgets, [(seed,)] * len(budgets)
        )
        assert not failures
        for i, cap in enumerate(budgets.tolist()):
            want = references.adaptive_loop(h, a, b, 0.0, 0.0, cap, (seed,))
            assert (vals[i].item(), float(errs[i]), int(panels[i])) == want

    def test_real_integrand_stays_real(self):
        vals, errs, panels, _ = adaptive_rows(
            lambda rows, x: x * x * self.PARAMS[rows], 40, 0.0, 1.0, 1e-12, 1e-12
        )
        assert vals.dtype == float and (panels == 1).all()
        assert_allclose(vals, self.PARAMS / 3.0, rtol=1e-15)

    def test_integrand_type_fixed_by_first_call(self):
        # real node values are summed as one component; an integrand that
        # turns complex later is refused rather than losing its imaginary part
        def f(rows, x):
            wobble = np.cos(40.0 * x)
            return wobble if x.shape[1] == 15 else wobble + 0j

        with pytest.raises(TypeError, match="turned complex"):
            adaptive_rows(f, 3, 0.0, 3.0, 1e-12, 1e-12)

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
            assert_allclose(res.value, gen.moment(float(n)), rtol=1e-8)

    @pytest.mark.parametrize("radius", [2.0, 3.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_finite_support_wider_than_one(self, n, radius):
        # g = 1 on a ball of radius R > 1: the unit window, then the window
        # [1, R]; 2 int_0^R w^(n-1) dw = 2 R^n / n
        gen = gn.custom_generator(lambda z: 1.0, support_radius=radius)
        assert_allclose(moment_integral(gen, n).value, 2.0 * radius**n / n, rtol=1e-14)

    def test_divergence_detected(self):
        slow = gn.custom_generator(lambda z: 1.0 / (1.0 + z))
        with pytest.raises(DivergentIntegralError):
            moment_integral(slow, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_heavy_tail_against_mpmath(self, n):
        # g = (1 + z)^-(n/2 + 1/4): the integrand decays like z^-(5/4), and
        # its log-slope gives the map's exponent p = 2; the moment is
        # B(n/2, 1/4).  The plain map reached v = inf here.
        gen = gn.custom_generator(lambda z: (1.0 + z) ** -(0.5 * n + 0.25))
        res = moment_integral(gen, n)
        with mp.workdps(30):
            want = float(mp.beta(mp.mpf(n) / 2, mp.mpf(1) / 4))
        assert abs(res.value - want) <= max(res.err_est, 1e-9 * want)


class TestHalfLine:
    S = np.array([0.0, 1e-300, 1e-17, 0.25, 0.5, 0.75, 1.0 - 2.0**-30, np.nextafter(1.0, 0.0)])

    @pytest.mark.parametrize("lo, hi, unit", [(0.0, math.inf, 1.0), (2.5, math.inf, 1e-3),
                                              (0.0, 7.0, 2.0), (1.0, 1.5, 1e6)])
    def test_exponent_one_is_the_plain_map(self, lo, hi, unit):
        # p = 1 is v = lo + unit x/(1 - x) with num/den = unit/(1 - x)^2,
        # bit for bit, on [0, top]
        top, to_v, seeds = half_line(lo, hi, unit)
        want_top = 1.0 if math.isinf(hi) else (hi - lo) / (unit + (hi - lo))
        assert top == want_top and seeds == ()
        x = self.S * top
        v, num, den = to_v(x)
        inner = x < 1.0
        assert v[inner].tobytes() == (lo + unit * x[inner] / (1.0 - x[inner])).tobytes()
        assert (num == unit).all() and den.tobytes() == ((1.0 - x) * (1.0 - x)).tobytes()
        assert np.isinf(v[~inner]).all()

    def test_exponent_carries_the_tail(self):
        # p = 5: v = unit (1 - s)/s^5 keeps every digit as s -> 0 (v -> inf),
        # and |dv/ds| = unit (5 - 4 s)/s^6
        top, to_v, seeds = half_line(0.0, math.inf, 0.5, 5.0)
        assert top == 1.0 and seeds == tuple(10.0**-k for k in range(13, 0, -1))
        s = np.array([1e-40, 1e-13, 0.3, 1.0])
        v, num, den = to_v(s)
        assert_allclose(v, 0.5 * (1.0 - s) / s**5, rtol=1e-15)
        assert_allclose(num / den, 0.5 * (5.0 - 4.0 * s) / s**6, rtol=1e-15)
        assert v[-1] == 0.0
        assert np.isinf(to_v(np.array([1e-70]))[0]).all()  # den underflows: v = inf

    def test_singular_edge_carries_the_gap(self):
        # a finite hi with p = 2: v = hi - den with den = (hi - lo) w^2 kept
        # below the spacing of hi, and num/den = 2 (hi - lo) w
        top, to_v, seeds = half_line(np.array([[0.5]]), np.array([[3.0]]), 1.0, 2.0)
        assert top == 1.0 and seeds == ()
        s = np.array([[0.0, 0.5, 1.0 - 1e-12]])
        v, num, den = to_v(s)
        w = 1.0 - s
        assert_allclose(den, 2.5 * w * w, rtol=1e-15)
        assert den[0, -1] < np.spacing(3.0) and v[0, -1] == 3.0
        assert_allclose(v, 3.0 - den, rtol=0.0)
        assert_allclose(num / den, 5.0 * w, rtol=1e-15)


class TestRadialMoment:
    """E[R^(2k)] in dimension n is the ratio of the moment integrals behind
    normalizations at n + 2k and n (_moment_n): closed forms for the
    named families, quadrature for custom ones, DomainError where the
    integral at n + 2k diverges."""

    @staticmethod
    def radial_moment(gen, n, k):
        return _moment_n(gen, n + 2 * k) / _moment_n(gen, n)

    def test_normal_chi_square_moment(self):
        # E[R^2] = n for the normal generator, and for the custom normal
        # exp(-z/2) through its numeric moment integrals
        custom = gn.custom_generator(lambda z: math.exp(-0.5 * z))
        for n in (1, 3, 5):
            assert_allclose(self.radial_moment(gn.normal_generator(), n, 1), float(n), rtol=1e-9)
            assert_allclose(self.radial_moment(custom, n, 1), float(n), rtol=1e-9)

    def test_ball_moment(self):
        assert_allclose(self.radial_moment(gn.uniform_ball_generator(), 2, 1), 0.5, rtol=1e-10)
        custom = gn.custom_generator(lambda z: 1.0, support_radius=1.0)
        assert_allclose(self.radial_moment(custom, 2, 1), 0.5, rtol=1e-12)

    def test_heavy_tail_moment_refused(self):
        with pytest.raises(DomainError):
            self.radial_moment(gn.generalized_t_generator(2, 1.0, 1), 2, 1)
        with pytest.raises(DomainError):
            self.radial_moment(gn.generalized_t_generator(2, 3.0, 3), 2, 2)  # 2k=4 > m=3

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("gen, n", [
        (gn.normal_generator(), 2),
        (gn.uniform_ball_generator(), 3),
        (gn.generalized_t_generator(3, 2.0, 9), 3),
        (gn.pearson_ii_generator(1.5), 2),
        (gn.pearson_vii_generator(6.0, 1.5), 3),
        (gn.kotz_generator(2.0, 0.5, 0.75), 2),
        (gn.bessel_generator(0.75, 0.8), 1),
    ], ids=lambda v: v.family.value if isinstance(v, gn.DensityGenerator) else str(v))
    def test_named_families_as_gamma_ratios(self, gen, n, k):
        # E[R^(2k)] is the ratio of closed moment integrals at n + 2k and n;
        # quadrature gave 0.8571428573267 for the generalized t's 6/7
        want = gen.moment(n + 2.0 * k) / gen.moment(n)
        assert abs(self.radial_moment(gen, n, k) - want) <= 4.0 * np.spacing(want)

    def test_heavy_tail_detected_numerically(self):
        # the n = 2 moment integral of (1 + z)^-1.5 converges, the n = 4 one
        # diverges: B(1, 1/2) = 2 and then DivergentIntegralError, as
        # DomainError, from _moment_n
        cauchy_like = gn.custom_generator(lambda z: (1.0 + z) ** (-1.5))  # n=2 profile
        assert_allclose(_moment_n(cauchy_like, 2), 2.0, rtol=1e-9)
        with pytest.raises(DomainError):
            _moment_n(cauchy_like, 4)
        with pytest.raises(DomainError):
            self.radial_moment(cauchy_like, 2, 1)


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
        # int_0^inf r^(nu+1) exp(-r^2/2) J_nu(omega r) dr = omega^nu exp(-omega^2/2)
        # at negative and larger orders, within err_est and rounding
        eps = np.finfo(float).eps
        for nu in (-0.5, 0.5, 2.5, 5.0):
            for omega in (0.5, 3.0, 20.0):
                res = integrate_bessel_oscillatory(
                    lambda r: r ** (nu + 1.0) * math.exp(-0.5 * r * r), nu, omega
                )
                exact = omega**nu * math.exp(-0.5 * omega * omega)
                assert abs(res.value - exact) <= res.err_est + 8.0 * eps, (nu, omega)

    def test_order_at_or_below_minus_one(self):
        with pytest.raises(DomainError, match="order must satisfy nu > -1"):
            integrate_bessel_oscillatory(lambda r: math.exp(-r), -1.5, 1.0)

    def test_non_decaying_envelope_fails(self):
        # r peaks at the largest probe radius, 2^128, far past the 400th
        # Bessel zero: no exit can come, and the row fails before its first panel
        with pytest.raises(ConvergenceError):
            integrate_bessel_oscillatory(lambda r: r, 0.0, 1.0)

    def test_support_edge_at_zero_sums_nothing(self):
        # R omega underflows to 0: there is nothing to sum, and the row fails
        # before its first panel
        with pytest.raises(ConvergenceError, match="no convergence within 400 panels"):
            integrate_bessel_oscillatory(lambda r: 1.0, 0.0, 1e-30, support_radius=1e-300)

    def test_invalid_omega(self):
        with pytest.raises(DomainError):
            integrate_bessel_oscillatory(lambda r: math.exp(-r), 0.0, 0.0)

    def test_invalid_support_radius(self):
        with pytest.raises(DomainError, match="support_radius must be > 0"):
            integrate_bessel_oscillatory(lambda r: 1.0, 0.0, 1.0, support_radius=0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_peak_past_the_budget_fails_before_its_first_panel(self, n):
        # at u = 1e9, u r_peak lies past x_400 = (400 + nu/2 - 1/4) pi, the
        # end of the last panel: no panel is integrated, g sees only the
        # radii of the peak search (the 257 powers of two of _unit's probe),
        # and the row fails by name, with u r_peak in plain numbers
        seen = []

        def g(z):
            seen.append(z)
            return (1.0 + z) ** -3.0

        gen = gn.custom_generator(g)
        _moment_n(gen, n)  # the moment integral, cached
        seen.clear()
        rows = phi_hankel_rows(gen, n, [1e9])
        assert len(seen) == 257
        peak = "0.25 = 2.5e+08 lies past x = 1255.07" if n == 1 else "0.5 = 5e+08 lies past x = 1255.85"
        assert str(rows.failures[0]) == (
            f"oscillatory engine: u r_peak = 1e+09 * {peak}, the end of panel 400; "
            "no convergence within 400 panels")

    @staticmethod
    def g_calls_to_first_panel(monkeypatch, n):
        # the sizes of the normal's g calls until the engine starts its first
        # Bessel panel, where it is stopped
        gen, calls = gn.normal_generator(), []
        profile = gen.g
        gen.g = lambda z: calls.append(z.size) or profile(z)

        class Stop(Exception):
            pass

        def stop(*args):
            raise Stop

        monkeypatch.setattr(quadrature, "adaptive_rows", stop)
        with pytest.raises(Stop):
            phi_hankel_rows(gen, n, [1.0])
        return calls

    def test_peak_search_at_n140(self, monkeypatch):
        # at n = 140 the probe r^69 g(r^2) takes no power where g is 0, as
        # from r = 2^15 up, where r^69 overflows: g is called once, on all
        # 257 powers of two.  A pow that raised there retried each radius
        # alone.
        assert self.g_calls_to_first_panel(monkeypatch, 140) == [257]

    def test_peak_search_at_n30_calls_g_once(self, monkeypatch):
        # at n = 30, r^14 overflows at the top powers of two, where g is 0:
        # the probe takes no power there, and the peak search is one call of
        # g (259 calls when that overflow raised, so that each radius was
        # retried alone, and a slope probe followed)
        calls = self.g_calls_to_first_panel(monkeypatch, 30)
        assert len(calls) <= 2 and calls == [257]

    def test_peak_grid_of_any_f_reaches_1e8_at_large_order(self, monkeypatch):
        # a bump at r = 1e6 of an f with no r^(nu + 1) factor is its r_peak
        # (the power of two 2^20), which at omega = 0.01 lies past the end of
        # the 400th Bessel panel, and the row fails before its first panel.
        # A peak search cut where r^(nu + 1) overflows (r ~ 2.2e4 at nu = 70)
        # would read about 2.2e4 and start the panels while they still grow.
        def no_panel(*args):
            raise AssertionError("a Bessel panel was started")

        monkeypatch.setattr(quadrature, "adaptive_rows", no_panel)
        with pytest.raises(ConvergenceError, match="no convergence within 400 panels"):
            integrate_bessel_oscillatory(lambda r: math.exp(-math.log(r / 1e6) ** 2), 70.0, 0.01)


def _kernel_rows(f, nu, omegas, radius=math.inf):
    # integrate_bessel_oscillatory at each omega, as QuadRows
    out, failures = [], {}
    for i, omega in enumerate(omegas):
        try:
            out.append(integrate_bessel_oscillatory(f, nu, omega, radius))
        except Exception as exc:
            failures[i] = exc
            out.append(quadrature.QuadResult(math.nan, math.nan, 0, math.nan))
    value, err_est, panels, tail = (np.array([getattr(res, key) for res in out]) for key in (
        "value", "err_est", "panels_used", "tail_bound"))
    return quadrature.QuadRows(value, err_est, panels, tail, failures)


def _raising_past_3(r):
    if r > 3.0:
        raise ArithmeticError(f"no value at r = {r!r}")
    return r * math.exp(-0.5 * r * r)


class TestOscillatoryExitBits:
    """The oscillatory engine pinned to the bit at every exit: the sha256 of
    each case's value, err_est, panels_used and tail_bound (as bytes) and of
    its failure messages.  The seeded u, log-uniform in [1e-3, 1e3], mix the
    exits in one lockstep call; the named rows reach the rest.  Each case
    also checks that its exit was taken."""

    US = np.round(10.0 ** np.random.default_rng(48).uniform(-3.0, 3.0, 12), 6).tolist()

    @staticmethod
    def edge(rows):
        # summed to the support edge: no tail
        return not rows.failures and (rows.tail_bound == 0.0).all()

    @staticmethod
    def tail(rows):
        # the envelope cutoff or settled mW values: a tail bound past the
        # last panel
        return not rows.failures and (rows.tail_bound > 0.0).any()

    @staticmethod
    def fails(*texts):
        # row i fails with a message that holds texts[i] ("": does not fail)
        def check(rows):
            messages = [str(rows.failures[i]) if i in rows.failures else "" for i in range(len(texts))]
            return all(t in m if t else not m for t, m in zip(texts, messages))

        return check

    BUDGET = "oscillatory engine: no convergence within 400 panels"
    NAN = "oscillatory engine: u = nan is not a number"
    CASES = {
        "ball": (lambda us: phi_hankel_rows(gn.uniform_ball_generator(), 3, us), US, edge,
                 "6c9838637c7a539b11b057825a0812dac14dfa50a26c3d01de233773039ed376"),
        # Pearson II through half_line, and on the star route
        "pearson2_edge": (lambda us: phi_hankel_rows(gn.pearson_ii_generator(-0.5), 2, us), US,
                          edge, "3cd8e1be711b9c43d2276cefbf6be17634b8c297fc06dcf9f9456f7aa2ba8023"),
        "star_pearson2_edge": (
            lambda us: star_unimodal_rows(gn.pearson_ii_generator(0.3), 2, us), US, edge,
            "639efd7c3efa4b669dfc493479793b2bdf2e2ccfce225ea2e3f7cce08a229eb8"),
        # the envelope cutoff
        "normal": (lambda us: phi_hankel_rows(gn.normal_generator(), 3, us), US, tail,
                   "6daddd799bb2ac793388674282e89b8cb628bc1e91d51e1f6149ae9a1d50370e"),
        # settled mW values
        "t": (lambda us: phi_hankel_rows(gn.generalized_t_generator(2, 3.0, 3), 2, us), US, tail,
              "08043caea9f28d85c3db6f90f489d9027690adc441b07383f3f75d1131513c85"),
        "cauchy": (lambda us: phi_hankel_rows(gn.generalized_t_generator(1, 1.0, 1), 1, us), US,
                   tail, "fa7ebe42453b059de0262e05ade45b34227dabdc8d0aabeed4a7e953e01ca345"),
        # an integrand that raises: f past r = 3, and the kernel at n = 18
        "integrand_raises": (lambda us: _kernel_rows(_raising_past_3, 0.0, us), [0.5, 2.0, 30.0],
                             fails("no value at r = ", "no value at r = ", ""),
                             "e0f2b2b4b688a0c7492868c3adb7836317d2551d7dd3f197632a163bc6ae747a"),
        "kernel_raises": (lambda us: phi_hankel_rows(gn.normal_generator(), 18, us),
                          [0.5, 1.0, 2.0, 4.0], fails(*["did not converge after 3 terms"] * 4),
                          "ad515c4175816d65525a12fc5e33a2c86e7b253e9fef3f937961433802b983c5"),
        # cos r against J_0 resonates: no exit within the 400 panels
        "budget": (lambda us: _kernel_rows(math.cos, 0.0, us), [1.0], fails(BUDGET),
                   "c8f6f99973ae5a468f41770932a94914e26e76add72712f47c5581a6de20ed34"),
        "past_x400": (lambda us: phi_hankel_rows(gn.generalized_t_generator(2, 3.0, 3), 2, us),
                      [1.7, 1e4, 1e9], fails("", "lies past x = 1255.85", "lies past x = 1255.85"),
                      "489a7d7224b091d86783177af5150d000d79c6926dfc9e6bac957b192bfa73b0"),
        "below_normal_range": (lambda us: phi_hankel_rows(_narrow_normal(1e-70), 2, us),
                               [1e-300, 1e-200], fails("below the normal float range of x", ""),
                               "769745aa2283a41bd78a605ba2104350a70ceaff3095a0d170c33ffa5d314b02"),
        # omega R underflows to 0
        "edge_at_zero": (lambda us: _kernel_rows(lambda r: 1.0, 0.0, us, 1e-300), [1e-30, 1e-3],
                         fails(BUDGET, ""),
                         "e33f7fbcadd71bd9f7bcf6e011ef3eaed1a60a8876e03283e661e3e41c1cfb49"),
        # a nan u fails before its first panel, on an infinite and on a
        # finite support, also where the envelope never sees it (the ball)
        "nan_normal": (lambda us: phi_hankel_rows(gn.normal_generator(), 2, us), [math.nan, 1.0],
                       fails(NAN, ""),
                       "b01747d80af07fd059244a94c9c87f040cad79adc555fa1ec63357c5551ee494"),
        "nan_pearson2": (lambda us: phi_hankel_rows(gn.pearson_ii_generator(1.5), 2, us),
                         [math.nan, 1.0], fails(NAN, ""),
                         "9dcb3d1c40ec63058fc33b1ab5e05753e4d3b3dc3523ee410c6737b8aa59a93a"),
        "nan_ball": (lambda us: phi_hankel_rows(gn.uniform_ball_generator(), 2, us),
                     [math.nan, 1.0], fails(NAN, ""),
                     "49b8c51796be849d1450686822809e1a8d037ff267d2dd852ed9b6cf5759fc6d"),
    }

    @staticmethod
    def digest(rows):
        h = hashlib.sha256()
        for z in (rows.value, rows.err_est, rows.panels_used.astype(np.int64), rows.tail_bound):
            h.update(np.ascontiguousarray(z, dtype=z.dtype.newbyteorder("<")).tobytes())
        for i, exc in sorted(rows.failures.items()):
            h.update(f"{i} {type(exc).__name__}: {exc}\n".encode())
        return h.hexdigest()

    @pytest.mark.parametrize("case", list(CASES))
    def test_bits_pinned(self, case):
        run, us, check, want = self.CASES[case]
        rows = run(us)
        assert check(rows)
        assert self.digest(rows) == want


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
        # around u = 1e-3, where a moment series once took over, the engine
        # alone meets the closed form on both sides
        us = [5e-4, 1e-3, 1.5e-3]
        for gen in (gn.normal_generator(), gn.kotz_generator(2.0, 0.5, 1.0)):
            rows = phi_hankel_rows(gen, n, us)
            assert not rows.failures and (rows.panels_used > 0).all()
            closed = np.array([closed_form_generator(gen, n, u * u) for u in us])
            assert np.all(abs(rows.value - closed) <= rows.err_est)

    @pytest.mark.parametrize("radius", [2.0, 3.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_custom_ball_wider_than_one(self, n, radius):
        # g = 1 on a ball of radius R is the uniform ball scaled by R:
        # phi(u^2) is the uniform-ball closed form at q = (uR)^2
        gen = gn.custom_generator(lambda z: 1.0, support_radius=radius)
        for u in (0.3, 1.0, 2.5, 6.0):
            res = phi_hankel(gen, n, u)
            closed = closed_form_generator(gn.uniform_ball_generator(), n, (u * radius) ** 2)
            assert abs(res.value - closed) <= res.err_est + 8.0 * np.finfo(float).eps

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e-40])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_custom_normal_at_any_scale(self, n, scale):
        # g = exp(-z/s) is the normal with variance s/2: phi(u^2) = exp(-s u^2/4).
        # The moment integral must find the integrand's mass at any scale:
        # its map's unit is measured where that mass lies.  So must the
        # engine's r_peak: at s = 1e-40 the envelope peaks near r = 1e-20
        gen = gn.custom_generator(lambda z: math.exp(-z / scale))
        us = np.array([0.3, 1.0, 3.0]) / math.sqrt(scale)
        rows = phi_hankel_rows(gen, n, us)
        assert not rows.failures
        assert np.all(abs(rows.value - np.exp(-0.25 * scale * us * us)) <= rows.err_est)

    def test_peak_below_the_float_range_of_x_fails_by_name(self):
        # exp(-z/1e-70) peaks near r = 1e-35, so at u = 1e-300 u r_peak
        # underflows and no node of the first panel reaches the peak: the
        # row read 0 +- 0.  It fails by name; u = 1e-200 meets exp(-s u^2/4)
        rows = phi_hankel_rows(_narrow_normal(1e-70), 2, [1e-300, 1e-200])
        assert list(rows.failures) == [0]
        assert str(rows.failures[0]).endswith("lies below the normal float range of x")
        assert abs(rows.value[1] - 1.0) <= rows.err_est[1]

    @pytest.mark.parametrize("route", [phi_hankel_rows, star_unimodal_rows])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("gen, scale", [
        (_narrow_normal(1e-12), 1e-12), (_narrow_normal(1e-40), 1e-40),
        (gn.kotz_generator(1.0, 1e12, 1.0), 1e-12),
    ], ids=["exp-1e-12", "exp-1e-40", "kotz-r1e12"])
    def test_narrow_peak_at_small_u(self, gen, scale, n, route):
        # a narrow normal (Kotz N = 1, r = 1e12, s = 1 is exp(-z/1e-12)) at
        # u r_peak << 1: the first Bessel panel spans r up to about 1/u, and
        # its seed cells, r_peak/4 wide at the left end, must resolve the
        # peak near r = sqrt(s).  Cells of a fixed 1/4 in r sampled it as all
        # zeros and every row read 0 +- 0.  phi(u^2) = exp(-s u^2/4)
        us = np.array([1e-2, 1.0, 1e3])
        rows = route(gen, n, us)
        assert not rows.failures
        assert np.all(abs(rows.value - np.exp(-0.25 * scale * us * us)) <= rows.err_est)

    @pytest.mark.parametrize("n", [2, 10, 30, 60])
    @pytest.mark.parametrize("gen, route, oracle", [
        (gn.normal_generator(), phi_hankel_rows, lambda n, u: math.exp(-0.5 * u * u)),
        (gn.uniform_ball_generator(), phi_hankel_rows, oracles.ball_phi_mp),
        (gn.normal_generator(), star_unimodal_rows, lambda n, u: math.exp(-0.5 * u * u)),
    ], ids=["normal-hankel", "ball-hankel", "normal-star"])
    def test_small_u_series_at_any_n(self, gen, route, oracle, n):
        # these rows go through the engine alone, with no moment series: the
        # kernel Omega_nu(u r) is bounded and reads 1 where u r underflows,
        # and the first panel's dyadic seeds, down to r_peak/4 (about 1000
        # at u = 1e-300), come on top of its panel budget.  In u^(-nu) J_nu
        # form, u^(-nu) and r^(nu+1) overflowed from n = 10, the seeds ran
        # out of budget at u <= 1e-100, and the ball missed by up to 1.2e-7
        # with an err_est of 9e-16
        us = [1e-4, 1e-8, 1e-12, 1e-20, 1e-62, 1e-100, 1e-300]
        rows = route(gen, n, us)
        assert not rows.failures and (rows.panels_used > 0).all()
        want = np.array([oracle(n, u) for u in us])
        assert np.all(abs(rows.value - want) <= rows.err_est)

    def test_failing_small_u_series_falls_back(self):
        # g = exp(-z/1e12), a wide normal, at u = 3e-6: a moment series
        # overflowed here (its terms grow as (1e12 u^2)^k before they fall);
        # the engine meets exp(-1e12 u^2/4)
        gen = gn.custom_generator(lambda z: math.exp(-z / 1e12))
        res = phi_hankel(gen, 2, 3e-6)
        assert res.panels_used > 0
        assert abs(res.value - math.exp(-2.25)) <= res.err_est

    def test_heavy_tail_small_u_uses_oscillatory(self):
        # Cauchy has no moments, which the engine does not need
        res = phi_hankel(gn.generalized_t_generator(1, 1.0, 1), 1, 5e-4)
        assert_allclose(res.value, math.exp(-5e-4), atol=1e-6)

    @pytest.mark.parametrize("u", [1e-20, 1e-30, 1e-50, 1e-100, 1e-300])
    def test_heavy_tail_tiny_u_honest_or_named_failure(self, u):
        # Pearson VII N = 2 in n = 2 has no E[R^2]; its first Bessel panel
        # spans r up to ~2.4/u and is split down to r ~ 1, where the
        # envelope lives, with those seeds off the panel budget: every row
        # is honest, none fails.  phi(u^2) = 1 to within u^2 log(1/u).
        gen = gn.pearson_vii_generator(2.0, 1.0)
        rows = phi_hankel_rows(gen, 2, [u, 1.0])
        assert not rows.failures
        assert rows.row(1) == phi_hankel(gen, 2, 1.0)
        res = phi_hankel(gen, 2, u)
        assert abs(res.value - 1.0) <= res.err_est
        assert rows.row(0) == res

    @pytest.mark.parametrize("gen, n, big_n, s", [
        (gn.generalized_t_generator(1, 1.0, 1), 1, 1.0, 1.0),
        (gn.generalized_t_generator(2, 1.0, 1), 2, 1.5, 1.0),
        (gn.generalized_t_generator(2, 3.0, 3), 2, 2.5, 3.0),
        (gn.pearson_vii_generator(3.7, 2.0), 5, 3.7, 2.0),
    ], ids=["cauchy-n1", "cauchy-n2", "t3-n2", "pearson_vii-n5"])
    def test_heavy_tail_in_few_panels(self, gen, n, big_n, s):
        # algebraic tails at small u: the mW transformation of the partial
        # sums at the zeros meets the closed form within a few Bessel panels
        us = [0.02, 0.1, 0.32, 1.0]
        rows = phi_hankel_rows(gen, n, us)
        want = np.array([oracles.pearson_vii_phi_mp(n, big_n, s, u * u) for u in us])
        assert not rows.failures
        assert np.all(rows.panels_used <= 40), rows.panels_used
        assert np.all(abs(rows.value - want) <= rows.err_est + 8.0 * np.finfo(float).eps)

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

    @pytest.mark.parametrize("gen, n, oracle", [
        (gn.uniform_ball_generator(), 2, lambda u: oracles.ball_phi_mp(2, u)),
        (gn.uniform_ball_generator(), 5, lambda u: oracles.ball_phi_mp(5, u)),
        (gn.bessel_generator(0.5, 1.0), 2, lambda u: oracles.bessel_family_phi_mp(2, 0.5, 1.0, u)),
    ], ids=["ball-n2", "ball-n5", "bessel-n2"])
    def test_error_estimate_covers_rounding(self, gen, n, oracle):
        # a row right to a few ulps is within its err_est: the panels' K15
        # and G7 sums can agree to the last bit, so their difference alone
        # may read 0
        us = np.linspace(0.05, 12.0, 240)
        rows = phi_hankel_rows(gen, n, us)
        assert not rows.failures
        errs = np.array([abs(v - oracle(u)) for v, u in zip(rows.value.tolist(), us.tolist())])
        assert np.all(errs <= rows.err_est), us[errs > rows.err_est]

    def test_error_estimate_covers_pearson_ii_edge(self):
        # m = -0.7, n = 2, u = 5: the plain last panel missed by ~4e-6 with
        # an err_est of ~5e-10; through half_line with p = 4 (1/(m + 1)
        # rounded up) and g at the carried distance to the edge it is within
        # 2.1e-12, a tenth of its err_est
        gen = gn.pearson_ii_generator(-0.7)
        res = phi_hankel(gen, 2, 5.0)
        assert abs(res.value - closed_form_generator(gen, 2, 25.0)) <= res.err_est

    @pytest.mark.parametrize(
        "gen, n, u",
        [
            (gn.generalized_t_generator(2, 2.0, 3), 2, 200.0),
            (gn.generalized_t_generator(5, 2.0, 3), 5, 200.0),
            (gn.uniform_ball_generator(), 3, 100.0),
        ],
        ids=["t-n2-u200", "t-n5-u200", "ball-n3-u100"],
    )
    def test_high_frequency_matches_closed_form(self, gen, n, u):
        # no row leaves before x = u r_peak, where its envelope peaks; closed
        # values: 4.13e-121 for both t cases, -2.602e-4 for the ball
        res = phi_hankel(gen, n, u)
        assert abs(res.value - closed_form_generator(gen, n, u * u)) <= 1e-6

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            phi_hankel(gn.normal_generator(), 0, 1.0)
        with pytest.raises(DomainError):
            phi_hankel(gn.normal_generator(), 2, -1.0)


class TestHankelSilentErrors:
    """Rows the Hankel route can return with exit 0 and an error estimate far
    below their true error.  Each case must either raise a named error or
    meet the closed form within err_est + 8 eps.  On finite support the sum
    runs to the edge: no panel before it bounds the rest.  At n = 30
    the kernel raises on its first panels, naming gamma and z; rows whose
    panels ended at Bessel zeros taken from J_nu's lost digits missed the
    closed form by 2e-8 to 6e-8, or read 0 +- 0 where the value is 0.61."""

    @pytest.mark.parametrize("gen, n, u", [
        pytest.param(gn.uniform_ball_generator(), 1, 60.2089, id="ball-n1-u60.2"),
        pytest.param(gn.pearson_ii_generator(1.0), 1, 73.44, id="pearson2-n1-u73.44"),
        pytest.param(gn.pearson_ii_generator(1.0), 2, 73.44, id="pearson2-n2-u73.44"),
        pytest.param(gn.pearson_ii_generator(1.0), 3, 80.0, id="pearson2-n3-u80"),
        pytest.param(gn.normal_generator(), 30, 4.0, id="normal-n30-u4"),
        pytest.param(gn.generalized_t_generator(30, 3.0, 3), 30, 5.0, id="t-n30-u5"),
        pytest.param(gn.normal_generator(), 140, 1.0, id="normal-n140-u1"),
        pytest.param(gn.normal_generator(), 150, 1.0, id="normal-n150-u1"),
    ])
    def test_named_error_or_honest(self, gen, n, u):
        try:
            res = phi_hankel(gen, n, u)
        except EllipcfError:
            return
        want = closed_form_generator(gen, n, u * u)
        assert abs(res.value - want) <= res.err_est + 8 * np.finfo(float).eps

    @pytest.mark.parametrize("route", [phi_hankel_rows, star_unimodal_rows])
    @pytest.mark.parametrize("n", [18, 22])
    def test_high_n_small_u_honest(self, n, route):
        # the normal at n = 18 and 22 and u <= 1e-3: the engine evaluates
        # its kernel only where the envelope is not 0, so the panels past
        # the peak, where g has underflowed, never reach the kernel at
        # x ~ 2 nu, where Hankel's expansion does not converge
        us = [1e-300, 1e-30, 1e-8, 1e-4, 1e-3]
        rows = route(gn.normal_generator(), n, us)
        assert not rows.failures
        assert np.all(abs(rows.value - np.exp(-0.5 * np.array(us) ** 2)) <= rows.err_est)

    @pytest.mark.parametrize("route", [phi_hankel_rows, star_unimodal_rows])
    @pytest.mark.parametrize("n, us", [
        (30, [0.5, 1.0, 2.0]), (60, [0.5, 1.0, 2.0, 4.0]), (100, [0.5, 1.0, 2.0, 4.0]),
        (150, [0.5, 1.0, 2.0, 4.0]),
        pytest.param(18, [0.5, 1.0, 2.0, 4.0], marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 16: the kernel does not converge at "
            "x ~ 2 nu, 'hyp0f1(gamma=9.0, z=-68.0...) did not converge after 3 terms'")),
        pytest.param(30, [4.0], marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 16: the kernel does not converge at "
            "x ~ 2 nu, 'hyp0f1(gamma=15.0, z=-211.1...) did not converge after 3 terms'")),
        pytest.param(200, [0.5, 1.0, 2.0, 4.0], marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 6: the envelope r^(2 nu + 1) p(r^2) overflows")),
        pytest.param(303, [0.5, 1.0, 2.0, 4.0], marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 6: M_n overflows the float range")),
    ])
    def test_normal_at_any_n_without_an_oracle(self, route, n, us):
        # scale mixtures of normals are consistent, so the normal's phi(u^2)
        # is exp(-u^2/2) at every n: ROADMAP item 1's check with no oracle
        rows = route(gn.normal_generator(), n, us)
        assert not rows.failures
        assert np.all(abs(rows.value - np.exp(-0.5 * np.array(us) ** 2)) <= rows.err_est)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: the envelope r^(2 nu + 1) p(r^2) is a product of floats, "
        "and p underflows in the tail before the power can lift it; Pearson VII with "
        "N = n/2 + 0.5 at n = 30 reads 1.5e-10 off with an err_est of 8.1e-11 on the "
        "Hankel route, and 6.9e-10 off with 7.8e-11 on the star route",
    )
    def test_heavy_tail_large_n_honest(self):
        gen, n, us = gn.pearson_vii_generator(15.5, 1.0), 30, [1e-300, 1e-12]
        want = np.array([closed_form_generator(gen, n, u * u) for u in us])
        for route in (phi_hankel_rows, star_unimodal_rows):
            rows = route(gen, n, us)
            assert not rows.failures
            assert np.all(abs(rows.value - want) <= rows.err_est), route.__name__

    @pytest.mark.parametrize("route", [phi_hankel_rows, star_unimodal_rows])
    def test_envelope_overflow_fails_by_name(self, route):
        # Pearson VII with N = n/2 + 0.3 at n = 40: the envelope
        # r^39 p(r^2) ~ r^-1.6 is no float product far out, where r^39
        # overflows (near r = 9e7) before p underflows.  Its rows fail by
        # name; in u^(-nu) J_nu form the row at u = 1e-12 read 4.5e-5 off
        # with an err_est of 1.1e-9, and the tinier u raised OverflowError
        rows = route(gn.pearson_vii_generator(20.3, 1.0), 40, [1e-300, 1e-12])
        assert sorted(rows.failures) == [0, 1]
        for exc in rows.failures.values():
            assert isinstance(exc, ConvergenceError) and "overflows at r = " in str(exc)

    @pytest.mark.parametrize("gen, n", [
        (gn.normal_generator(), 18), (gn.generalized_t_generator(20, 3.0, 3), 20),
    ], ids=["normal-n18", "t-n20"])
    def test_high_n_fails_row_by_row(self, gen, n):
        # every row meets its closed form within err_est or holds its own
        # named error: none escapes the call (a Bessel zero search that did
        # not converge at nu = 8 and 9 raised out of the whole grid)
        us = [0.5, 1.0, 2.0, 4.0, 8.0]
        rows = phi_hankel_rows(gen, n, us)
        for i, u in enumerate(us):
            if i in rows.failures:
                assert isinstance(rows.failures[i], EllipcfError)
            else:
                assert abs(rows.value[i] - closed_form_generator(gen, n, u * u)) <= rows.err_est[i]


class TestPhiHankelRows:
    """The lockstep engine: every row gets the bits of its one-point call."""

    CASES = [
        (gn.normal_generator(), 1),
        (gn.normal_generator(), 3),
        (gn.generalized_t_generator(2, 3.0, 3), 2),
        (gn.generalized_t_generator(5, 3.0, 3), 5),
        (gn.pearson_ii_generator(1.5), 3),
        (gn.kotz_generator(2.0, 0.5, 0.75), 2),
        (gn.bessel_generator(0.5, 1.0), 2),
        (gn.custom_generator(lambda z: (1.0 + z) ** -3.0), 2),
        (gn.pearson_ii_generator(-0.5), 2),
    ]
    # u = 0, small u, dyadic seeds up to u ~ 1.6 (the first Bessel panel
    # wider than 8 cells of u/4), and the far panels
    US = [0.0, 4e-4, 2e-3, 0.05, 0.3, 0.9, 1.7, 3.3, 6.1, 11.9]

    @staticmethod
    def _bits(res):
        return (res.value, res.err_est, res.panels_used, res.tail_bound)

    @pytest.mark.parametrize("gen, n", CASES, ids=["normal1", "normal3", "t2", "t5", "pearson2",
                                                    "kotz075", "bessel", "custom", "pearson2_edge"])
    def test_rows_equal_one_point_calls(self, gen, n):
        rng = np.random.default_rng(n)
        us = np.array(self.US + rng.uniform(0.01, 12.0, 10).tolist())
        points = [self._bits(phi_hankel(gen, n, u)) for u in us.tolist()]
        for order in (np.arange(len(us)), rng.permutation(len(us)), np.arange(len(us))[::-1]):
            rows = phi_hankel_rows(gen, n, us[order])
            assert not rows.failures
            assert [self._bits(rows.row(i)) for i in range(len(us))] == [points[i] for i in order]
        # a row alongside a far one (u = 1e9 runs out of panels) computes as alone
        assert self._bits(phi_hankel_rows(gen, n, [1e9, 1.7]).row(1)) == points[self.US.index(1.7)]

    def test_failed_row_fails_alone(self):
        # at u = 1e4 the envelope's peak lies past the panel budget; its
        # neighbours converge
        gen = gn.generalized_t_generator(2, 2.0, 3)
        rows = phi_hankel_rows(gen, 2, [1.0, 1e4, 0.0, 3.0])
        assert list(rows.failures) == [1]
        with pytest.raises(ConvergenceError, match="no convergence within 400 panels") as raised:
            phi_hankel(gen, 2, 1e4)
        assert str(rows.failures[1]) == str(raised.value)
        assert np.isnan(rows.value[1]) and rows.panels_used[1] == 0
        for i, u in ((0, 1.0), (2, 0.0), (3, 3.0)):
            assert self._bits(rows.row(i)) == self._bits(phi_hankel(gen, 2, u))
        with pytest.raises(ConvergenceError):
            rows.row(1)

    @pytest.mark.parametrize("max_panels", [9, 12, 17])
    def test_panel_budget_as_one_point_calls(self, max_panels, monkeypatch):
        # rows that run out of panels fail, each as it would alone, with the
        # same message
        monkeypatch.setattr(quadrature, "_MAX_PANELS", max_panels)
        gen = gn.generalized_t_generator(2, 3.0, 3)
        us = [0.3, 1.1, 4.0, 9.5, 0.0, 60.0]
        rows = phi_hankel_rows(gen, 2, us)
        assert rows.failures
        for i, u in enumerate(us):
            try:
                want = self._bits(phi_hankel(gen, 2, u))
            except ConvergenceError as exc:
                assert str(rows.failures[i]) == str(exc)
                assert str(exc).endswith(f"no convergence within {max_panels} panels")
            else:
                assert i not in rows.failures and self._bits(rows.row(i)) == want

    GRID = (0.37, 1.0, 2.5, 4.1, 7.3, 12.0)

    @pytest.mark.parametrize("n", [2, 5])
    def test_cold_warm_and_reversed_grids(self, n):
        # each u in a call of its own (cold), the grid after it (warm) and the
        # reversed grid give the same bits: the panel ends are one formula,
        # with no state carried from call to call
        gen = gn.kotz_generator(2.0, 0.5, 1.0)
        cold = {u: self._bits(phi_hankel_rows(gen, n, [u]).row(0)) for u in self.GRID}
        warm = phi_hankel_rows(gen, n, self.GRID)
        backward = phi_hankel_rows(gen, n, self.GRID[::-1])
        assert [self._bits(warm.row(i)) for i in range(6)] == [cold[u] for u in self.GRID]
        assert [self._bits(backward.row(i)) for i in range(6)] == [cold[u] for u in self.GRID[::-1]]

    def test_shared_by_threads(self):
        # more threads than cores in the engine at once, on one generator:
        # every value still equals the single-threaded one
        gen = gn.kotz_generator(2.0, 0.5, 1.0)
        grid = [0.3 + 0.61 * i for i in range(12)]
        expected = phi_hankel_rows(gen, 2, grid).value.tolist()
        results = {}

        def worker(idx):
            order = grid[idx % 3:] + grid[:idx % 3]
            got = phi_hankel_rows(gen, 2, order).value.tolist()
            results[idx] = dict(zip(order, got))

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
