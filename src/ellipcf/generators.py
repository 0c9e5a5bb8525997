"""Density generators: radial profiles g defining elliptical distributions.

A generator is the scalar map g on [0, inf) appearing in the elliptical
density c_n |Sigma|^{-1/2} g((x-mu)' Sigma^{-1} (x-mu)).  Named families
carry closed-form moment integrals and analytic derivatives; custom
generators fall back to numeric treatment everywhere.  The normal, uniform
ball, generalized t, Pearson II, Pearson VII and Kotz families also carry an
array profile with the scalar g's values bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .specfun import _elementwise, _power, bessel_k, gamma_fn, log_gamma_fn

__all__ = [
    "Family",
    "DensityGenerator",
    "normal_generator",
    "uniform_ball_generator",
    "generalized_t_generator",
    "pearson_ii_generator",
    "pearson_vii_generator",
    "kotz_generator",
    "bessel_generator",
    "custom_generator",
    "closed_moment_integral",
    "moment_exists",
]


class Family(enum.Enum):
    NORMAL = "normal"
    UNIFORM_BALL = "uniform_ball"
    GENERALIZED_T = "generalized_t"
    PEARSON_II = "pearson_ii"
    PEARSON_VII = "pearson_vii"
    KOTZ = "kotz"
    BESSEL = "bessel"
    CUSTOM = "custom"


@dataclass(eq=False)
class DensityGenerator:
    """A density generator g with family metadata.

    ``support_radius`` is expressed in the radius variable v, so g(z) lives
    on z in [0, support_radius**2].  ``g_prime`` is dg/dz where available
    (needed only by the star-unimodal route).  ``g_rows``, where set, is g
    on a float array, entry by entry the same values as g.
    """

    family: Family
    params: dict[str, float]
    g: Callable[[float], float]
    g_prime: Optional[Callable[[float], float]] = None
    support_radius: float = math.inf
    moment_cache: dict = field(default_factory=dict, repr=False)
    g_rows: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)

    def __call__(self, z: float) -> float:
        return self.g(z)

    def g_array(self, z: np.ndarray) -> np.ndarray:
        """g at every entry of the float array z: the array profile where the
        family has one, else g called entry by entry."""
        if self.g_rows is not None:
            return self.g_rows(z)
        return _elementwise(self.g, z)


def normal_generator() -> DensityGenerator:
    """g(z) = exp(-z/2), the multivariate normal profile."""
    return DensityGenerator(
        family=Family.NORMAL,
        params={},
        g=lambda z: math.exp(-0.5 * z),
        g_prime=lambda z: -0.5 * math.exp(-0.5 * z),
        g_rows=lambda z: _elementwise(math.exp, -0.5 * z),
    )


def uniform_ball_generator() -> DensityGenerator:
    """g = 1 on [0, 1]: the uniform law inside the unit ball."""
    return DensityGenerator(
        family=Family.UNIFORM_BALL,
        params={},
        g=lambda z: 1.0 if z <= 1.0 else 0.0,
        g_prime=lambda z: 0.0,
        support_radius=1.0,
        g_rows=lambda z: np.where(z <= 1.0, 1.0, 0.0),
    )


def generalized_t_generator(n: int, s: float, m: int) -> DensityGenerator:
    """g(z) = (1 + z/s)^{-(n+m)/2}; s = m gives the multivariate t with m df.

    The profile exponent involves the dimension, so n is fixed at
    construction time.
    """
    if not s > 0.0:
        raise DomainError("generalized_t_generator: s must be > 0")
    if not (isinstance(m, int) and m >= 1):
        raise DomainError("generalized_t_generator: m must be a positive integer")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError("generalized_t_generator: n must be a positive integer")
    e = 0.5 * (n + m)
    return DensityGenerator(
        family=Family.GENERALIZED_T,
        params={"n": float(n), "s": float(s), "m": float(m)},
        g=lambda z: (1.0 + z / s) ** (-e),
        g_prime=lambda z: -(e / s) * (1.0 + z / s) ** (-e - 1.0),
        g_rows=lambda z: _power(1.0 + z / s, -e),
    )


def pearson_ii_generator(m: float) -> DensityGenerator:
    """g(z) = (1 - z)^m on [0, 1], m > -1."""
    if not m > -1.0:
        raise DomainError("pearson_ii_generator: requires m > -1")

    def g(z: float) -> float:
        if z >= 1.0:
            return 0.0
        return (1.0 - z) ** m

    def g_prime(z: float) -> float:
        if z >= 1.0:
            return 0.0
        return -m * (1.0 - z) ** (m - 1.0)

    def g_rows(z: np.ndarray) -> np.ndarray:
        out = np.zeros(z.shape)
        inside = ~(z >= 1.0)
        out[inside] = _power(1.0 - z[inside], m)
        return out

    return DensityGenerator(
        family=Family.PEARSON_II,
        params={"m": float(m)},
        g=g,
        g_prime=g_prime,
        support_radius=1.0,
        g_rows=g_rows,
    )


def pearson_vii_generator(big_n: float, s: float) -> DensityGenerator:
    """g(z) = (1 + z/s)^{-N}; requires N > n/2, checked once n is known."""
    if not s > 0.0:
        raise DomainError("pearson_vii_generator: s must be > 0")
    if not big_n > 0.0:
        raise DomainError("pearson_vii_generator: N must be > 0")
    return DensityGenerator(
        family=Family.PEARSON_VII,
        params={"N": float(big_n), "s": float(s)},
        g=lambda z: (1.0 + z / s) ** (-big_n),
        g_prime=lambda z: -(big_n / s) * (1.0 + z / s) ** (-big_n - 1.0),
        g_rows=lambda z: _power(1.0 + z / s, -big_n),
    )


def kotz_generator(big_n: float, r: float, s: float) -> DensityGenerator:
    """g(z) = z^{N-1} exp(-r z^s); N = s = 1, r = 1/2 is the normal."""
    if not (r > 0.0 and s > 0.0):
        raise DomainError("kotz_generator: requires r > 0 and s > 0")

    at_zero = 1.0 if big_n == 1.0 else (0.0 if big_n > 1.0 else math.inf)

    def g(z: float) -> float:
        if z <= 0.0:
            return at_zero
        return z ** (big_n - 1.0) * math.exp(-r * z**s)

    def g_rows(z: np.ndarray) -> np.ndarray:
        out = np.full(z.shape, at_zero)
        pos = ~(z <= 0.0)
        zp = z[pos]
        out[pos] = _power(zp, big_n - 1.0) * _elementwise(math.exp, -r * _power(zp, s))
        return out

    def g_prime(z: float) -> float:
        if z <= 0.0:
            z = 1e-12  # one-sided limit; quadrature never probes exactly 0
        return z ** (big_n - 2.0) * math.exp(-r * z**s) * (big_n - 1.0 - r * s * z**s)

    return DensityGenerator(
        family=Family.KOTZ,
        params={"N": float(big_n), "r": float(r), "s": float(s)},
        g=g,
        g_prime=g_prime,
        g_rows=g_rows,
    )


def bessel_generator(a: float, beta: float) -> DensityGenerator:
    """g(z) = (sqrt(z)/beta)^a K_a(sqrt(z)/beta); requires a > -n/2."""
    if not beta > 0.0:
        raise DomainError("bessel_generator: beta must be > 0")

    def g(z: float) -> float:
        if z <= 0.0:
            # y^a K_a(y) -> 2^(a-1) Gamma(a) as y -> 0 for a > 0
            return 2.0 ** (a - 1.0) * gamma_fn(a) if a > 0.0 else math.inf
        y = math.sqrt(z) / beta
        return y**a * bessel_k(a, y)

    return DensityGenerator(
        family=Family.BESSEL,
        params={"a": float(a), "beta": float(beta)},
        g=g,
    )


def custom_generator(
    g: Callable[[float], float],
    g_prime: Optional[Callable[[float], float]] = None,
    support_radius: float = math.inf,
) -> DensityGenerator:
    """Wrap a user-supplied profile; nonnegativity is spot-checked."""
    if not support_radius > 0.0:
        raise DomainError("custom_generator: support_radius must be > 0")
    probe_top = min(support_radius, 50.0)
    for i in range(33):
        v = probe_top * i / 32.0
        if v >= support_radius:
            break
        gz = g(v * v)
        if not gz >= 0.0:  # also catches NaN
            raise DomainError(f"custom_generator: g({v * v}) = {gz} is negative or NaN")
    return DensityGenerator(
        family=Family.CUSTOM,
        params={},
        g=g,
        g_prime=g_prime,
        support_radius=float(support_radius),
    )


def closed_moment_integral(gen: DensityGenerator, d: float) -> Optional[float]:
    """Closed form of int_0^inf z^(d/2-1) g(z) dz, or None if unavailable.

    d plays the role of the dimension; radial moments use d = n + 2k.
    Returns None for custom generators; raises nothing for nonexistent
    moments (use moment_exists first).
    """
    p = gen.params
    fam = gen.family
    if fam is Family.NORMAL:
        return 2.0 ** (0.5 * d) * gamma_fn(0.5 * d)
    if fam is Family.UNIFORM_BALL:
        return 2.0 / d
    if fam is Family.GENERALIZED_T:
        n, s, m = p["n"], p["s"], p["m"]
        if d >= n + m:
            return math.inf
        return (
            s ** (0.5 * d)
            * gamma_fn(0.5 * d)
            * gamma_fn(0.5 * (n + m - d))
            / gamma_fn(0.5 * (n + m))
        )
    if fam is Family.PEARSON_II:
        m = p["m"]
        return gamma_fn(0.5 * d) * gamma_fn(m + 1.0) / gamma_fn(0.5 * d + m + 1.0)
    if fam is Family.PEARSON_VII:
        big_n, s = p["N"], p["s"]
        if d >= 2.0 * big_n:
            return math.inf
        return (
            s ** (0.5 * d) * gamma_fn(0.5 * d) * gamma_fn(big_n - 0.5 * d) / gamma_fn(big_n)
        )
    if fam is Family.KOTZ:
        big_n, r, s = p["N"], p["r"], p["s"]
        q = (2.0 * big_n + d - 2.0) / (2.0 * s)
        if q <= 0.0:
            return math.inf
        return gamma_fn(q) / (s * r**q)
    if fam is Family.BESSEL:
        a, beta = p["a"], p["beta"]
        if d <= -2.0 * a:
            return math.inf
        return math.exp(
            (d + a - 1.0) * math.log(2.0)
            + d * math.log(beta)
            + log_gamma_fn(0.5 * d)
            + log_gamma_fn(0.5 * d + a)
        )
    return None


def moment_exists(gen: DensityGenerator, d: float) -> Optional[bool]:
    """Whether int z^(d/2-1) g dz is finite; None when unknown (custom)."""
    p = gen.params
    fam = gen.family
    if fam is Family.GENERALIZED_T:
        return d < p["n"] + p["m"]
    if fam is Family.PEARSON_VII:
        return d < 2.0 * p["N"]
    if fam is Family.KOTZ:
        return 2.0 * p["N"] + d > 2.0
    if fam is Family.BESSEL:
        return d > -2.0 * p["a"]
    if fam is Family.CUSTOM:
        return None
    return True
