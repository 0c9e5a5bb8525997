"""Reference assemblies that only the tests use, built from library pieces.

Unlike oracles.py, these go through the package's own evaluation paths on
purpose: each one assembles a second form of a quantity the library computes
another way, so a test can hold the two forms against each other.
"""

from __future__ import annotations

import math

import numpy as np

from ellipcf.generators import DensityGenerator
from ellipcf.quadrature import _moment_n
from ellipcf.skewmix import MixingLaw, SkewNormalSpec, _check_star_unimodal
from ellipcf.specfun import _temme_gammas, gamma_fn, log_gamma_fn, norm_cdf_imag_scaled


def smsn_split(spec: SkewNormalSpec, mixing: MixingLaw):
    """The (psi, k_n) decomposition of the scale-mixture CF.

    psi(q) = E[exp(-V q / 2)] is the characteristic generator of the mixed
    Gaussian part; k_n carries the whole odd factor, averaged with the same
    Gaussian damping, so that 2 e^(i t'mu) psi(q) k_n(t) reproduces the
    direct expectation of cf_smsn.
    """

    def psi(q: float) -> float:
        return float(mixing.expectation(lambda v: math.exp(-0.5 * v * q)).real)

    def k_n(t) -> complex:
        (q,), (y,) = spec.invariants(np.asarray(t, dtype=float)[None, :])

        def odd_part(v: float) -> complex:
            # e^(-V q/2) (Phi(i sqrt(V) y) - 1/2), assembled in log scale
            mant, log_scale = norm_cdf_imag_scaled(math.sqrt(v) * y)
            return complex(0.0, math.exp(log_scale - 0.5 * v * q) * mant.imag)

        return 0.5 + complex(mixing.expectation(odd_part)) / psi(q)

    return psi, k_n


def smu_weight_density(gen: DensityGenerator, n: int, w: float) -> float:
    """Density of the radial weight W in the X = W * (uniform ball) form of
    a star-unimodal law: f_W(w) = -(4/(n M_n)) w^(n+1) g'(w^2), with the
    moment integral M_n = int_0^inf z^(n/2-1) g(z) dz.  A generator that is
    not star unimodal raises DomainError, as the star route does.
    """
    if not w > 0.0:
        return 0.0
    _check_star_unimodal(gen)
    if w > gen.support_radius:
        return 0.0
    lead = 4.0 / (n * _moment_n(gen, n))
    return -lead * w ** (n + 1) * gen.g_prime(np.array([w * w])).item()


def ratio_series_loop(ratio, kmin: float):
    """(sum, terms) of 1 + t_1 + t_2 + ..., t_k = t_{k-1} ratio(k), by a
    one-entry loop in Python floats: the stopping rule of 0F1's and 1F1's
    series, a zero term, or two terms in a row at most 1e-14 of the sum from
    k = kmin on.  terms is the k it stops at, None if 500 terms do not stop
    it (the sum is then the sum of all 500)."""
    term = total = 1.0
    small = False
    for k in range(1, 501):
        term *= ratio(k)
        total += term
        was_small, small = small, abs(term) <= 1e-14 * abs(total) and k >= kmin
        if (was_small and small) or term == 0.0:
            return total, k
    return total, None


def omega_loop(gamma: float, z: float, x: float) -> float:
    """0F1(gamma; z), x = 2 sqrt|z| given beside z, by one-entry loops in
    Python floats: the operations, branches and stopping rules that the
    kernel of specfun runs on each entry of an array.  At z = -x^2/4 < 0 it
    is Omega_nu(x), nu = gamma - 1: cos x and sin(x)/x at gamma = 1/2 and
    3/2, and past x = max(12, 2|nu|) Gamma(gamma) (x/2)^(1 - gamma) J_nu(x)
    by Hankel's expansion; every other z sums the series.  Returns nan where
    a loop does not converge."""
    nu = gamma - 1.0
    if z < 0.0 and gamma == 0.5:
        return math.cos(x)
    if z < 0.0 and gamma == 1.5:
        return math.sin(x) / x
    if z >= 0.0 or x < max(12.0, 2.0 * abs(nu)):
        total, terms = ratio_series_loop(lambda k: z / (k * (gamma + (k - 1))),
                                         2.0 * math.sqrt(abs(z)))
        return math.nan if terms is None else total
    w = x - nu * (0.5 * math.pi) - 0.25 * math.pi
    p_sum, q_sum, c, best = 1.0, 0.0, 1.0, 1.0
    for j in range(1, 80):
        c *= (4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j * x)
        if abs(c) >= best and j > 2:
            break  # divergence onset: optimal truncation reached
        best = min(best, abs(c))
        if j % 2 == 1:
            q_sum += c if (j - 1) // 2 % 2 == 0 else -c
        else:
            p_sum += c if (j // 2) % 2 == 0 else -c
        if abs(c) < 1e-18:
            break
    j_nu = math.sqrt(2.0 / (math.pi * x)) * (math.cos(w) * p_sum - math.sin(w) * q_sum)
    return gamma_fn(gamma) * (0.5 * x) ** (1.0 - gamma) * j_nu if best < 1e-10 else math.nan


def bessel_j_loop(nu: float, x: float) -> float:
    """J_nu(x), x >= 0, by one-entry loops in Python floats: its lead
    x^nu / (2^nu Gamma(nu + 1)) times omega_loop at z = -(x/2)^2, the
    operations bessel_j runs on each entry of an array.  Returns nan where
    a loop does not converge."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if nu > 30.0:
        lead = math.exp(nu * math.log(x) - (nu * math.log(2.0) + log_gamma_fn(nu + 1.0)))
    else:
        lead = x**nu * (2.0**-nu / gamma_fn(nu + 1.0))
    half = 0.5 * x
    return lead * omega_loop(nu + 1.0, -(half * half), x)


def bessel_k_loop(nu: float, x: float) -> float:
    """K_nu(x), x > 0, by one-entry loops in Python floats: Temme's series
    (x <= 2) or Steed's continued fraction at the reduced order, then
    forward recurrence, the operations bessel_k runs on each entry of an
    array.  Returns nan where a loop does not converge."""
    nu = abs(nu)
    steps = int(nu + 0.5)
    mu = nu - steps
    if mu == -0.5:
        k_mu = k_next = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
    elif x > 2.0:
        b = 2.0 * (1.0 + x)
        h = delh = d = 1.0 / b
        q1, q2 = 0.0, 1.0
        a1 = 0.25 - mu * mu
        q = c = a1
        a = -a1
        s = 1.0 + q * delh
        for i in range(2, 500):
            a -= 2.0 * (i - 1)
            c = -a * c / i
            q1, q2 = q2, (q1 - b * q2) / a
            q += c * q2
            b += 2.0
            d = 1.0 / (b + a * d)
            delh = (b * d - 1.0) * delh
            h += delh
            dels = q * delh
            s += dels
            if abs(dels) < 1e-16 * abs(s):
                break
        else:
            return math.nan
        k_mu = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
        k_next = k_mu * (mu + x + 0.5 - a1 * h) / x
    else:
        gam1, gam2 = _temme_gammas(mu)
        half = 0.5 * x
        pimu = math.pi * mu
        fact = pimu / math.sin(pimu) if mu != 0.0 else 1.0
        d = -math.log(half)
        e = mu * d
        fact2 = math.sinh(e) / e if e != 0.0 else 1.0
        f = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
        e = math.exp(e)
        p = 0.5 * e / (gam2 - mu * gam1)
        q = 0.5 / (e * (gam2 + mu * gam1))
        k_mu, k_next, c = f, p, 1.0
        for i in range(1, 500):
            f = (i * f + p + q) / (i * i - mu * mu)
            c *= half * half / i
            p /= i - mu
            q /= i + mu
            term = c * f
            k_mu += term
            k_next += c * (p - i * f)
            if abs(term) < 1e-16 * abs(k_mu):
                break
        else:
            return math.nan
        k_next /= half
    for i in range(1, steps + 1):
        k_mu, k_next = k_next, k_mu + 2.0 * (mu + i) / x * k_next
    return k_mu


def skew_normal_sign_flip(mu, sigma, alpha, half_root: bool, m: int, g: np.random.Generator):
    """m skew-normal rows by the sign flip of Azzalini and Dalla Valle (1996),
    in plain numpy: a normal row y (w, or w S for the full_sigma form, with S
    the symmetric root of Sigma) is negated unless its latent alpha'y + eps,
    eps an independent normal, is positive; the half_root form then takes
    the root.  It shares only numpy's Generator with the library: w is drawn
    first, then eps, from the generator g, and S is numpy's eigen-root.
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma = 0.5 * (sigma + sigma.T)
    vals, vecs = np.linalg.eigh(sigma)
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    root = 0.5 * (root + root.T)
    w = g.standard_normal((m, len(sigma)))
    eps = g.standard_normal(m)
    y = w if half_root else w @ root
    y = np.where((y @ np.asarray(alpha, dtype=float) + eps > 0.0)[:, None], y, -y)
    return (y @ root if half_root else y) + np.asarray(mu, dtype=float)
