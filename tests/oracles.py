"""Independent oracles for expected values.

These deliberately avoid the package's own evaluation paths: brute-force
high-precision series, plain bisection, Simpson integration and seeded
recurrences.  Frozen constants in the tests were produced by these
functions.

The oracle map: each key of the CLI's tables (cli._FAMILIES, cli._KINDS
and cli._MIXINGS) and the test that holds its closed route against an
mpmath oracle, and each special-function kernel of ellipcf.specfun and the
test that holds it against an oracle.  tests/test_oracles.py fails on a key
or a kernel with no row here.

    table     key              test
    family    normal           test_closed_sweep.py::test_closed_form_against_mpmath
    family    uniform_ball     test_closed_sweep.py::test_closed_form_against_mpmath
    family    generalized_t    test_closed_sweep.py::test_closed_form_against_mpmath
    family    pearson_ii       test_closed_sweep.py::test_closed_form_against_mpmath
    family    pearson_vii      test_closed_sweep.py::test_closed_form_against_mpmath
    family    kotz             test_closed_sweep.py::test_closed_form_against_mpmath
    family    bessel           test_closed_sweep.py::test_closed_form_against_mpmath
    kind      elliptical       test_mixture_oracle.py::test_unmixed_kind_closed_route
    kind      lsm              test_mixture_oracle.py::test_spec_closed_route
    kind      gse_skew_normal  test_mixture_oracle.py::test_unmixed_kind_closed_route
    kind      skew_normal      test_mixture_oracle.py::test_unmixed_kind_closed_route
    kind      smsn             test_mixture_oracle.py::test_spec_closed_route
    kind      smu              test_mixture_oracle.py::test_unmixed_kind_closed_route
    mixing    degenerate       test_mixture_oracle.py::test_spec_closed_route
    mixing    finite_discrete  test_mixture_oracle.py::test_spec_closed_route
    mixing    inverse_gamma    test_mixture_oracle.py::test_inverse_gamma_at_every_scale
    kernel    bessel_j         test_specfun.py::TestBesselJRows::test_against_mpmath
    kernel    bessel_k         test_specfun.py::TestBesselKArrays::test_against_mpmath
    kernel    bessel_j_zero    test_specfun.py::TestBesselJZero::test_against_mpmath
    kernel    hyp0f1           test_specfun.py::TestHyp0F1::test_against_mpmath
    kernel    hyp1f1           test_specfun.py::TestHyp1F1::test_kummer_transform_region
    kernel    dawson           test_specfun.py::TestArrayDawson::test_against_mpmath
    kernel    norm_cdf_imag_scaled
              test_specfun.py::TestArrayDawson::test_norm_cdf_imag_scaled_against_mpmath
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


def bessel_j_series(nu: float, x: float, dps: int = 50) -> float:
    """J_nu(x) by direct high-precision summation of the power series."""
    with mp.workdps(dps + int(0.9 * x)):
        nu_mp = mp.mpf(nu)
        x_mp = mp.mpf(x)
        half = x_mp / 2
        term = half**nu_mp / mp.gamma(nu_mp + 1)
        total = term
        msq = -(half**2)
        for k in range(1, 10000):
            term *= msq / (k * (nu_mp + k))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + 1):
                break
        return float(total)


def sphere_cf_bessel(n: int, s: float, dps: int = 30) -> float:
    """The uniform-sphere CF in its Bessel form at s = ||t||^2 > 0,
    Gamma(n/2) (2/x)^nu J_nu(x) with x = ||t|| and nu = (n - 2)/2, from
    mpmath's besselj."""
    with mp.workdps(dps):
        x = mp.sqrt(mp.mpf(s))
        nu = mp.mpf(n - 2) / 2
        return float(mp.gamma(mp.mpf(n) / 2) * (2 / x) ** nu * mp.besselj(nu, x))


def bisect_zero(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14 * max(1.0, hi):
            break
        fmid = f(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def hyp0f1_series(gamma: float, z: float, dps: int = 50) -> float:
    """0F1 by direct high-precision summation."""
    with mp.workdps(dps):
        g = mp.mpf(gamma)
        zz = mp.mpf(z)
        term = mp.mpf(1)
        total = mp.mpf(1)
        for k in range(1, 20000):
            term *= zz / (k * (g + k - 1))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + 1):
                break
        return float(total)


def hyp1f1_series(a: float, c: float, z: float, dps: int = 200) -> float:
    """1F1 by direct high-precision summation (default 200 digits)."""
    with mp.workdps(dps):
        aa, cc, zz = mp.mpf(a), mp.mpf(c), mp.mpf(z)
        term = mp.mpf(1)
        total = mp.mpf(1)
        for k in range(0, 100000):
            term *= (aa + k) * zz / ((cc + k) * (k + 1))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + 1):
                break
        return float(total)


def simpson(f, a: float, b: float, n: int = 20000) -> float:
    """Composite Simpson rule with n (even) subintervals."""
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += (4.0 if i % 2 else 2.0) * f(a + i * h)
    return total * h / 3.0


def erfi_integral(y: float) -> float:
    """erfi(y) = (2/sqrt(pi)) * int_0^y exp(t^2) dt by Simpson."""
    return 2.0 / math.sqrt(math.pi) * simpson(lambda t: math.exp(t * t), 0.0, y)


def dawson_mp(x: float, dps: int = 40) -> float:
    """Dawson's integral (sqrt(pi)/2) exp(-x^2) erfi(x) from mpmath's erfi."""
    with mp.workdps(dps):
        x_mp = mp.mpf(x)
        return float(mp.sqrt(mp.pi) / 2 * mp.exp(-x_mp * x_mp) * mp.erfi(x_mp))


def cos_sin_mp(phi: float, dps: int = 40) -> tuple[float, float]:
    """(cos phi, sin phi) of the exact binary value of phi from mpmath, with
    enough digits beyond the exponent that the reduction by 2 pi is exact."""
    exponent = 0 if phi == 0.0 else max(0, math.frexp(phi)[1])
    with mp.workdps(dps + int(0.31 * exponent)):
        x = mp.mpf(phi)
        return float(mp.cos(x)), float(mp.sin(x))


def bessel_k_mp(nu: float, x: float, dps: int = 40) -> float:
    """K_nu(x) from mpmath's arbitrary-precision besselk."""
    with mp.workdps(dps):
        return float(mp.besselk(mp.mpf(nu), mp.mpf(x)))


def pearson_vii_phi_mp(n: int, big_n: float, s: float, q: float, dps: int = 40) -> float:
    """The Pearson VII characteristic generator phi(q) in mpmath:
    2^(n/2-N+1) / Gamma(N-n/2) s^(N/2-n/4) u^(N-n/2) K_(n/2-N)(sqrt(s) u), u = sqrt(q)."""
    with mp.workdps(dps):
        n, big_n, s, u = mp.mpf(n), mp.mpf(big_n), mp.mpf(s), mp.sqrt(mp.mpf(q))
        return float(
            2 ** (n / 2 - big_n + 1) / mp.gamma(big_n - n / 2) * s ** (big_n / 2 - n / 4)
            * u ** (big_n - n / 2) * mp.besselk(n / 2 - big_n, mp.sqrt(s) * u)
        )


def ball_phi_mp(n: int, u: float, dps: int = 40) -> float:
    """The uniform-ball characteristic generator phi(u^2) = 0F1(; n/2 + 1; -u^2/4)
    from mpmath's hyp0f1."""
    with mp.workdps(dps):
        return float(mp.hyp0f1(mp.mpf(n) / 2 + 1, -mp.mpf(u) ** 2 / 4))


def bessel_family_phi_mp(n: int, a: float, beta: float, u: float, dps: int = 40) -> float:
    """The Bessel family's characteristic generator phi(u^2) =
    (1 + beta^2 u^2)^(-(n/2 + a)) in mpmath."""
    with mp.workdps(dps):
        a, beta, u = mp.mpf(a), mp.mpf(beta), mp.mpf(u)
        return float((1 + beta**2 * u**2) ** (-(mp.mpf(n) / 2 + a)))


def bessel_k_half_recurrence(half_orders: int, x: float) -> float:
    """K_{m+1/2}(x) from the exact K_{+-1/2} seeds and the upward recurrence
    K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu."""
    k_prev = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)  # K_{-1/2} = K_{1/2}
    k_cur = k_prev
    nu = 0.5
    for _ in range(half_orders):
        k_prev, k_cur = k_cur, k_prev + (2.0 * nu / x) * k_cur
        nu += 1.0
    return k_cur


def mixing_mean_mp(mixing: dict, fn):
    """E[fn(V)] in mpmath, for a mixing law given as a spec file's mixing
    object (degenerate, finite_discrete, inverse_gamma) or as
    {"kind": "custom_density", "density": f, "support": (lo, hi)} with f an
    mpmath function of v."""
    kind = mixing["kind"]
    if kind == "degenerate":
        return fn(mp.mpf(mixing["v0"]))
    if kind == "finite_discrete":
        return mp.fsum(w * fn(mp.mpf(p)) for p, w in zip(mixing["points"], mixing["weights"]))
    if kind == "inverse_gamma":
        a, b = mp.mpf(mixing["shape"]), mp.mpf(mixing["scale"])
        norm = b**a / mp.gamma(a)
        mode = b / (a + 1)  # cuts scaled by the mode, so the mass is seen at any scale
        cuts = [0, *(mode * c for c in (0.01, 0.1, 0.5, 1, 2, 5, 20, 100, 1000)), mp.inf]
        return mp.quad(lambda v: fn(v) * norm * v ** (-a - 1) * mp.exp(-b / v), cuts)
    lo, hi = (mp.mpf(x) for x in mixing["support"])
    cuts = [lo, hi] if mp.isfinite(hi) else [lo, lo + 1, lo + 4, lo + 16, hi]
    return mp.quad(lambda v: fn(v) * mixing["density"](v), cuts)


def lsm_normal_cf_mp(spec: dict, t) -> complex:
    """CF of a location-scale mixture with a normal base generator,
    exp(i t'mu) E[exp(i V t'gamma - V t'Sigma t / 2)], at the float vector t;
    t'Sigma t and t'gamma are rounded to floats, as the package forms them."""
    n = spec["n"]
    sigma = np.asarray(spec["sigma"], dtype=float).reshape(n, n)
    q = mp.mpf(float(t @ sigma @ t))
    d = mp.mpf(float(t @ np.asarray(spec["gamma"], dtype=float)))
    with mp.workdps(25):
        value = mixing_mean_mp(spec["mixing"], lambda v: mp.expj(v * d) * mp.exp(-v * q / 2))
        return complex(mp.expj(float(t @ np.asarray(spec["mu"], dtype=float))) * value)


def lsm_invgamma_cf_mp(spec: dict, t) -> complex:
    """CF of a location-scale mixture with a normal base and inverse-gamma
    (a, b) mixing in closed form, at the float vector t: the generalized
    hyperbolic skew-t's e^(i t'mu) 2 (b c)^(a/2) K_a(2 sqrt(b c)) / Gamma(a),
    c = t'Sigma t/2 - i t'gamma, through mpmath's complex besselk; t'Sigma t
    and t'gamma are rounded to floats, as the package forms them."""
    n = spec["n"]
    sigma = np.asarray(spec["sigma"], dtype=float).reshape(n, n)
    a, b = mp.mpf(spec["mixing"]["shape"]), mp.mpf(spec["mixing"]["scale"])
    with mp.workdps(40):
        bc = b * (mp.mpf(float(t @ sigma @ t)) / 2
                  - 1j * mp.mpf(float(t @ np.asarray(spec["gamma"], dtype=float))))
        value = 2 * bc ** (a / 2) * mp.besselk(a, 2 * mp.sqrt(bc)) / mp.gamma(a)
        return complex(mp.expj(float(t @ np.asarray(spec["mu"], dtype=float))) * value)


def smsn_cf_mp(spec: dict, t) -> complex:
    """CF of a scale mixture of skew-normals, exp(i t'mu) E[2 exp(-k q/2)
    Phi(i sqrt(k) y)] with Phi(iy) = 1/2 + (i/2) erfi(y/sqrt(2)), under either
    parametrization, at the float vector t; q = t'Sigma t and the skew scale
    y are rounded to floats, as the package forms them."""
    n = spec["n"]
    sigma = np.asarray(spec["sigma"], dtype=float).reshape(n, n)
    alpha = np.asarray(spec["alpha"], dtype=float)
    vals, vecs = np.linalg.eigh(sigma)
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    if spec.get("parametrization", "half_root") == "half_root":
        a = alpha / math.sqrt(1.0 + alpha @ alpha)
    else:
        a = root @ alpha / math.sqrt(1.0 + alpha @ sigma @ alpha)
    y = mp.mpf(float(a @ (root @ t)))
    q = mp.mpf(float(t @ sigma @ t))

    def sn(k):
        return 2 * mp.exp(-k * q / 2) * (mp.mpf(0.5) + 0.5j * mp.erfi(mp.sqrt(k) * y / mp.sqrt(2)))

    with mp.workdps(25):
        value = mixing_mean_mp(spec["mixing"], sn)
        return complex(mp.expj(float(t @ np.asarray(spec["mu"], dtype=float))) * value)


def radius_beta_cdf_mp(n: int, m: float, r: float, dps: int = 30):
    """P(R <= r) for the generator g(z) = (1 + z)^(-(n + m)/2) in dimension n,
    whose R^2/(1 + R^2) is Beta(n/2, m/2)."""
    with mp.workdps(dps):
        r = mp.mpf(r)
        return mp.betainc(mp.mpf(n) / 2, mp.mpf(m) / 2, 0, r * r / (1 + r * r), regularized=True)


def inverse_gamma_cdf_mp(a: float, b: float, v: float, dps: int = 30):
    """P(V <= v) for V ~ InverseGamma(a, b): the regularized upper incomplete
    gamma Q(a, b/v)."""
    with mp.workdps(dps):
        return mp.gammainc(mp.mpf(a), mp.mpf(b) / mp.mpf(v), mp.inf, regularized=True)


def quantile_mp(cdf, p: float) -> float:
    """The p-quantile of a law on (0, inf) with an increasing cdf, by plain
    bisection on log x between 1e-30 and 1e30."""
    a, b = math.log(1e-30), math.log(1e30)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if cdf(math.exp(mid)) < p:
            a = mid
        else:
            b = mid
        if b - a < 1e-13:
            break
    return math.exp(0.5 * (a + b))
