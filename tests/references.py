"""Reference assemblies that only the tests use, built from library pieces.

Unlike oracles.py, these go through the package's own evaluation paths on
purpose: each one assembles a second form of a quantity the library computes
another way, so a test can hold the two forms against each other.
"""

from __future__ import annotations

import math

import numpy as np

from ellipcf.generators import DensityGenerator
from ellipcf.quadrature import normalizing_constant
from ellipcf.skewmix import MixingLaw, SkewNormalSpec, _check_star_unimodal
from ellipcf.specfun import bessel_j, gamma_fn, norm_cdf_imag_scaled


def sphere_cf_bessel(n: int, s: float) -> float:
    """The uniform-sphere CF in its Bessel form, at s = ||t||^2 > 0:
    Omega_n(x) = Gamma(n/2) (2/x)^((n-2)/2) J_((n-2)/2)(x) with x = ||t||.
    The library evaluates it as 0F1(; n/2; -s/4), by the series below
    hyp0f1's switch to J (x < 10), so there the two forms are independent.
    At n = 1 and 3 the order is -1/2 and 1/2, where both forms take J's
    closed form (cos x and sin(x)/x) at every x: there the mpmath tests
    (TestUniformSphereCF.test_against_mpmath) are the independent reference.
    """
    x = math.sqrt(s)
    half_order = 0.5 * (n - 2.0)
    return gamma_fn(0.5 * n) * (2.0 / x) ** half_order * bessel_j(half_order, x)


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
    a star-unimodal law: f_W(w) = -(4 pi^(n/2) / (n Gamma(n/2))) c_n
    w^(n+1) g'(w^2).  A generator that is not star unimodal raises
    DomainError, as the star route does.
    """
    if not w > 0.0:
        return 0.0
    _check_star_unimodal(gen)
    if w > gen.support_radius:
        return 0.0
    lead = 4.0 * math.pi ** (0.5 * n) / (n * math.gamma(0.5 * n)) * normalizing_constant(n, gen)
    return -lead * w ** (n + 1) * gen.g_prime(np.array([w * w])).item()
