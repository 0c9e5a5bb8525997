"""Density generators: radial profiles g defining elliptical distributions.

A generator is the map g on [0, inf) appearing in the elliptical density
c_n |Sigma|^{-1/2} g((x-mu)' Sigma^{-1} (x-mu)), held in one form: a
function on float arrays, evaluated entry by entry with the math module's
values (see specfun._elementwise).  Each named constructor also sets its
family's record (see DensityGenerator), closures over the parameters it
validates, each finite, and every other module reads the family's facts
from there: a new family is one constructor here.  Custom generators take
a scalar g, called entry by entry, and fall back to numeric treatment
everywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DivergentIntegralError, DomainError, NoClosedFormError
from .specfun import _elementwise, _power, bessel_k, gamma_fn, hyp0f1, hyp1f1, log_gamma_fn

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
    """A density generator g with its family's record.

    ``g`` maps a float array of z to g(z) entry by entry; ``support_radius``
    is expressed in the radius variable v, so g(z) lives on z in
    [0, support_radius**2].  ``g_prime``, dg/dz on a float array where
    available, serves only the star-unimodal route.

    The family record: ``closed_form(n, q)``, phi at every entry of the
    float array q in dimension n, each entry's value that of its one-entry
    call (NoClosedFormError where there is none); ``radius(n, size, rng)``, size
    draws of R (None: no direct draw); ``moment(d)``, int_0^inf z^(d/2-1) g dz
    where ``finite(d)`` holds (None: no closed form); ``check_dimension(n)``,
    raising DomainError where the profile cannot serve dimension n.  A
    custom profile's ``probe`` holds g at the radii its construction checked,
    which tell custom profiles apart in a sampler's provenance fingerprint.
    Where g(z) ~ (R^2 - z)^m at a finite support edge, ``g_edge`` is g of
    the distance R^2 - z that quadrature.half_line carries there (None: a
    regular edge), and ``g_prime_edge`` the same for g'.
    """

    family: Family
    params: dict[str, float]
    g: Callable[[np.ndarray], np.ndarray]
    g_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_radius: float = math.inf
    moment_cache: dict = field(default_factory=dict, repr=False)
    closed_form: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    radius: Optional[Callable[[int, int, np.random.Generator], np.ndarray]] = None
    moment: Optional[Callable[[float], float]] = None
    finite: Callable[[float], bool] = lambda d: True
    check_dimension: Callable[[int], None] = lambda n: None
    probe: tuple = field(default=(), repr=False)
    g_edge: Optional[Callable[[np.ndarray], np.ndarray]] = None
    g_prime_edge: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _normalizable(finite: Callable[[float], bool], message: str) -> dict:
    """The record's finite and check_dimension for a family whose one limit on
    the dimension is its normalizability condition finite(d) at d = n."""

    def check_dimension(n: int) -> None:
        if not finite(n):
            raise DomainError(message)

    return {"finite": finite, "check_dimension": check_dimension}


def _check_finite(where: str, **params: float) -> None:
    # checked before any other condition: NaN fails every comparison, and an
    # infinite parameter would pass the domain checks with a silent profile
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{where}: {name} must be finite")


def _masked(z: np.ndarray, keep: np.ndarray, fill: float, fn) -> np.ndarray:
    # fn(z) on the entries that keep selects, fill elsewhere
    out = np.full(z.shape, fill)
    out[keep] = fn(z[keep])
    return out


def _gamma_ratio_radius(rng: np.random.Generator, n: int, size: int, s: float, shape: float):
    """R with R^2 = s G1 / G2, G1 ~ Gamma(n/2) drawn before G2 ~ Gamma(shape)."""
    g1 = rng.gamma(0.5 * n, 1.0, size=size)
    g1 *= s
    g1 /= rng.gamma(shape, 1.0, size=size)
    return np.sqrt(g1, out=g1)


def normal_generator() -> DensityGenerator:
    """g(z) = exp(-z/2), the multivariate normal profile."""
    return DensityGenerator(
        family=Family.NORMAL,
        params={},
        g=lambda z: _elementwise(math.exp, -0.5 * z),
        g_prime=lambda z: -0.5 * _elementwise(math.exp, -0.5 * z),
        closed_form=lambda n, q: _elementwise(math.exp, -0.5 * q),
        radius=lambda n, size, rng: np.sqrt(rng.chisquare(n, size=size)),
        moment=lambda d: 2.0 ** (0.5 * d) * gamma_fn(0.5 * d),
    )


def uniform_ball_generator() -> DensityGenerator:
    """g = 1 on [0, 1]: the uniform law inside the unit ball."""
    return DensityGenerator(
        family=Family.UNIFORM_BALL,
        params={},
        g=lambda z: np.where(z <= 1.0, 1.0, 0.0),
        g_prime=lambda z: np.zeros(z.shape),
        support_radius=1.0,
        closed_form=lambda n, q: hyp0f1(0.5 * n + 1.0, -0.25 * q),
        radius=lambda n, size, rng: _power(rng.random(size), 1.0 / n),
        moment=lambda d: 2.0 / d,
    )


def generalized_t_generator(n: int, s: float, m: int) -> DensityGenerator:
    """g(z) = (1 + z/s)^{-(n+m)/2}; s = m gives the multivariate t with m df.

    The profile is Pearson VII's with N = (n+m)/2, whose record it takes.
    The exponent involves the dimension, so n is fixed at construction time.
    """
    _check_finite("generalized_t_generator", s=s)
    if not s > 0.0:
        raise DomainError("generalized_t_generator: s must be > 0")
    if not (isinstance(m, int) and m >= 1):
        raise DomainError("generalized_t_generator: m must be a positive integer")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError("generalized_t_generator: n must be a positive integer")

    def check_dimension(k: int) -> None:
        if n != k:
            raise DomainError(f"generator: generalized-t profile built for n={n}, spec has n={k}")

    return replace(
        pearson_vii_generator(0.5 * (n + m), s),
        family=Family.GENERALIZED_T,
        params={"n": float(n), "s": float(s), "m": float(m)},
        check_dimension=check_dimension,
    )


def pearson_ii_generator(m: float) -> DensityGenerator:
    """g(z) = (1 - z)^m on [0, 1], m > -1."""
    _check_finite("pearson_ii_generator", m=m)
    if not m > -1.0:
        raise DomainError("pearson_ii_generator: requires m > -1")
    p = {"m": float(m)}
    return DensityGenerator(
        family=Family.PEARSON_II,
        params=p,
        g=lambda z: _masked(z, ~(z >= 1.0), 0.0, lambda y: _power(1.0 - y, m)),
        g_prime=lambda z: _masked(z, ~(z >= 1.0), 0.0, lambda y: -m * _power(1.0 - y, m - 1.0)),
        support_radius=1.0,
        closed_form=lambda n, q: hyp0f1(0.5 * n + p["m"] + 1.0, -0.25 * q),
        radius=lambda n, size, rng: np.sqrt(rng.beta(0.5 * n, p["m"] + 1.0, size=size)),
        moment=lambda d: (
            gamma_fn(0.5 * d) * gamma_fn(p["m"] + 1.0) / gamma_fn(0.5 * d + p["m"] + 1.0)
        ),
        g_edge=lambda d: _power(d, m),
        g_prime_edge=lambda d: -m * _power(d, m - 1.0),
    )


def pearson_vii_generator(big_n: float, s: float) -> DensityGenerator:
    """g(z) = (1 + z/s)^{-N}; requires N > n/2, checked once n is known."""
    _check_finite("pearson_vii_generator", N=big_n, s=s)
    if not s > 0.0:
        raise DomainError("pearson_vii_generator: s must be > 0")
    if not big_n > 0.0:
        raise DomainError("pearson_vii_generator: N must be > 0")
    p = {"N": float(big_n), "s": float(s)}

    def phi(n: int, q: np.ndarray) -> np.ndarray:
        h, s = p["N"] - 0.5 * n, p["s"]
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan, as in floats
            return _masked(q, q != 0.0, 1.0, lambda q: (
                _power(np.sqrt(q), h) * s ** (0.5 * h) / (2.0 ** (h - 1.0) * gamma_fn(h))
                * bessel_k(h, math.sqrt(s) * np.sqrt(q))))

    return DensityGenerator(
        family=Family.PEARSON_VII,
        params=p,
        g=lambda z: _power(1.0 + z / s, -big_n),
        g_prime=lambda z: -(big_n / s) * _power(1.0 + z / s, -big_n - 1.0),
        closed_form=phi,
        radius=lambda n, size, rng: _gamma_ratio_radius(rng, n, size, p["s"], p["N"] - 0.5 * n),
        moment=lambda d: (
            p["s"] ** (0.5 * d) * gamma_fn(0.5 * d) * gamma_fn(p["N"] - 0.5 * d) / gamma_fn(p["N"])
        ),
        **_normalizable(lambda d: d < 2.0 * p["N"], "generator: Pearson VII requires N > n/2"),
    )


def kotz_generator(big_n: float, r: float, s: float) -> DensityGenerator:
    """g(z) = z^{N-1} exp(-r z^s); N = s = 1, r = 1/2 is the normal."""
    _check_finite("kotz_generator", N=big_n, r=r, s=s)
    if not (r > 0.0 and s > 0.0):
        raise DomainError("kotz_generator: requires r > 0 and s > 0")

    at_zero = 1.0 if big_n == 1.0 else (0.0 if big_n > 1.0 else math.inf)

    def g(z: np.ndarray) -> np.ndarray:
        return _masked(z, ~(z <= 0.0), at_zero, lambda y: (
            _power(y, big_n - 1.0) * _elementwise(math.exp, -r * _power(y, s))))

    def g_prime(z: np.ndarray) -> np.ndarray:
        z = np.where(z <= 0.0, 1e-12, z)  # one-sided limit; quadrature never probes exactly 0
        zs = _power(z, s)
        return _power(z, big_n - 2.0) * _elementwise(math.exp, -r * zs) * (big_n - 1.0 - r * s * zs)

    p = {"N": float(big_n), "r": float(r), "s": float(s)}

    def closed_form(n: int, q: np.ndarray) -> np.ndarray:
        big_n, r, s = p["N"], p["r"], p["s"]
        if s == 1.0:
            return hyp1f1(0.5 * n + big_n - 1.0, 0.5 * n, -q / (4.0 * r))
        if s == 0.5 and big_n == 1.0:
            # the Bessel family at a = 1/2, beta = 1/r (the exponents of the
            # Laplace-type Bessel integral match at N = 1 only; the gamma
            # factors there are 1 by the duplication formula), as (q/r)/r
            # in Python floats, which no extreme r makes warn
            e = -0.5 * (n + 1.0)
            return _elementwise(lambda v: (1.0 + v / r / r) ** e, q)
        raise NoClosedFormError(f"no closed form for Kotz with s={s}, N={big_n}; "
                                "use the Hankel route")

    def moment(d: float) -> float:
        q = (2.0 * p["N"] + d - 2.0) / (2.0 * p["s"])
        return gamma_fn(q) / (p["s"] * p["r"] ** q)

    return DensityGenerator(
        family=Family.KOTZ,
        params=p,
        g=g,
        g_prime=g_prime,
        closed_form=closed_form,
        radius=lambda n, size, rng: np.sqrt(_power(
            rng.gamma((2.0 * p["N"] + n - 2.0) / (2.0 * p["s"]), 1.0, size=size) / p["r"],
            1.0 / p["s"],
        )),
        moment=moment,
        **_normalizable(lambda d: 2.0 * p["N"] + d > 2.0, "generator: Kotz requires 2N + n > 2"),
    )


def bessel_generator(a: float, beta: float) -> DensityGenerator:
    """g(z) = (sqrt(z)/beta)^a K_a(sqrt(z)/beta); requires a > -n/2."""
    _check_finite("bessel_generator", a=a, beta=beta)
    if not beta > 0.0:
        raise DomainError("bessel_generator: beta must be > 0")

    # y^a K_a(y) -> 2^(a-1) Gamma(a) as y -> 0 for a > 0
    at_zero = 2.0 ** (a - 1.0) * gamma_fn(a) if a > 0.0 else math.inf

    def g(z: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan, as in floats
            return _masked(z, ~(z <= 0.0), at_zero, lambda z: (
                _power(np.sqrt(z) / beta, a) * bessel_k(a, np.sqrt(z) / beta)))

    p = {"a": float(a), "beta": float(beta)}

    return DensityGenerator(
        family=Family.BESSEL,
        params=p,
        g=g,
        closed_form=lambda n, q: _power(1.0 + p["beta"] * p["beta"] * q, -(0.5 * n + p["a"])),
        radius=lambda n, size, rng: np.sqrt(
            rng.gamma(p["a"] + 0.5 * n, 2.0 * p["beta"] ** 2, size=size)
            * rng.chisquare(n, size=size)
        ),
        moment=lambda d: math.exp((d + p["a"] - 1.0) * math.log(2.0) + d * math.log(p["beta"])
                                  + log_gamma_fn(0.5 * d) + log_gamma_fn(0.5 * d + p["a"])),
        **_normalizable(lambda d: d > -2.0 * p["a"], "generator: Bessel requires a > -n/2"),
    )


def custom_generator(
    g: Callable[[float], float],
    g_prime: Optional[Callable[[float], float]] = None,
    support_radius: float = math.inf,
) -> DensityGenerator:
    """Wrap a user-supplied profile: g and g_prime take and return floats,
    and the record's forms call them entry by entry.  Nonnegativity is
    spot-checked."""
    if not support_radius > 0.0:
        raise DomainError("custom_generator: support_radius must be > 0")
    probe_top = min(support_radius, 50.0)
    probe = []
    for i in range(33):
        v = probe_top * i / 32.0
        if v >= support_radius:
            break
        gz = g(v * v)
        if not gz >= 0.0:  # also catches NaN
            raise DomainError(f"custom_generator: g({v * v}) = {gz} is negative or NaN")
        probe.append(float(gz))

    def closed_form(n: int, q: np.ndarray) -> np.ndarray:
        raise NoClosedFormError("no closed form for family custom; use the Hankel route")

    def check_dimension(n: int) -> None:  # the moment integral, checked numerically
        from .quadrature import _moment_n  # needed by custom generators only

        try:
            _moment_n(gen, n)  # cached on gen, where every normalization reads it
        except DomainError as exc:
            if not isinstance(exc.__cause__, DivergentIntegralError):
                raise  # g's own errors keep their message
            raise DomainError("generator: moment integral diverges (checked numerically)") from exc

    gen = DensityGenerator(
        family=Family.CUSTOM,
        params={},
        g=lambda z: _elementwise(g, z),
        g_prime=None if g_prime is None else lambda z: _elementwise(g_prime, z),
        support_radius=float(support_radius),
        closed_form=closed_form,
        check_dimension=check_dimension,
        probe=tuple(probe),
    )
    return gen

