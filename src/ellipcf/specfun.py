"""Real-order special functions for the characteristic-function engine.

Bessel J of the first kind, the MacDonald function K, the hypergeometric
series 0F1 and 1F1 (Kummer), gamma/log-gamma, Bessel-J zeros, the Dawson
function and the standard normal CDF at a purely imaginary argument.

The Dawson function, erfi and the normal CDF at iy take floats or numpy
arrays: Dawson's integral is one fixed sequence of array operations
(Rybicki's sampling-theorem sum) whose value at a point does not depend on
the array around it.

J_nu can also be read through a bounded per-order memo
(:func:`bessel_j_memoized`) kept with that order's cached zeros.

Every truncated series honours a :class:`SeriesControl` policy and reports
the number of terms consumed.  Non-convergence raises
:class:`~ellipcf.errors.ConvergenceError`; a silent NaN is never returned.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "SeriesControl",
    "SpecialValue",
    "gamma_fn",
    "log_gamma_fn",
    "bessel_j",
    "bessel_j_memoized",
    "bessel_j_zero",
    "bessel_k",
    "hyp0f1",
    "hyp1f1",
    "dawson",
    "erfi",
    "norm_cdf_imag",
    "norm_cdf_imag_scaled",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for power series."""

    rel_tol: float = 1e-14
    max_terms: int = 500

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise DomainError("SeriesControl.rel_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("SeriesControl.max_terms must be >= 1")


@dataclass(frozen=True)
class SpecialValue:
    """A series result with its convergence diagnostics.

    ``converged = False`` means the value must not be used.
    """

    value: float
    terms_used: int
    converged: bool


_DEFAULT_CTL = SeriesControl()

# Series / asymptotic switchover for J_nu.  Keeps the float64 series below
# ~5e-13 cancellation error while the Hankel expansion is already usable.
_J_SWITCH_BASE = 12.0

# Below this the 0F1 series is evaluated directly; beyond, cancellation in
# float64 forces the Bessel-J route (argument x = 2*sqrt(-z) >= 10).
_HYP0F1_NEG_SWITCH = -25.0


def gamma_fn(x: float) -> float:
    """Gamma function; poles (nonpositive integers) raise DomainError."""
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma_fn: pole at nonpositive integer x={x}")
    return math.gamma(x)


def log_gamma_fn(x: float) -> float:
    """log |Gamma(x)|; poles raise DomainError."""
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"log_gamma_fn: pole at nonpositive integer x={x}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# Bessel J
# ---------------------------------------------------------------------------


def _bessel_j_series(nu: float, x: float, ctl: SeriesControl) -> SpecialValue:
    # J_nu(x) = (x/2)^nu / Gamma(nu+1) * sum_k (-x^2/4)^k / (k! (nu+1)_k)
    half = 0.5 * x
    if nu > 30.0:
        lead = math.exp(nu * math.log(half) - log_gamma_fn(nu + 1.0))
    else:
        lead = half**nu / gamma_fn(nu + 1.0)
    msq = -(half * half)
    term = 1.0
    total = 1.0
    small_streak = 0
    kmin = 0.5 * x  # term magnitudes peak near k ~ x/2
    for k in range(1, ctl.max_terms + 1):
        term *= msq / (k * (nu + k))
        total += term
        if abs(term) <= ctl.rel_tol * abs(total) and k >= kmin:
            small_streak += 1
            if small_streak >= 2:
                return SpecialValue(lead * total, k, True)
        else:
            small_streak = 0
    return SpecialValue(lead * total, ctl.max_terms, False)


def _bessel_j_asymptotic(nu: float, x: float) -> SpecialValue:
    # Hankel expansion: J_nu(x) ~ sqrt(2/(pi x)) (cos(w) P - sin(w) Q),
    # w = x - nu pi/2 - pi/4, summed to the smallest term.
    mu4 = 4.0 * nu * nu
    w = x - nu * (0.5 * math.pi) - 0.25 * math.pi
    p_sum = 1.0
    q_sum = 0.0
    c = 1.0
    best = 1.0
    terms = 1
    for j in range(1, 80):
        odd = 2 * j - 1
        c *= (mu4 - odd * odd) / (8.0 * j * x)
        ac = abs(c)
        if ac >= best and j > 2:
            break  # divergence onset: optimal truncation reached
        best = min(best, ac)
        if j % 2 == 1:
            q_sum += c if (j - 1) // 2 % 2 == 0 else -c
        else:
            p_sum += c if (j // 2) % 2 == 0 else -c
        terms = j + 1
        if ac < 1e-18:
            break
    value = math.sqrt(2.0 / (math.pi * x)) * (math.cos(w) * p_sum - math.sin(w) * q_sum)
    return SpecialValue(value, terms, best < 1e-10)


def bessel_j(nu: float, x: float, ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """Bessel function of the first kind, real order nu > -1, x >= 0."""
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"bessel_j: x must be finite and >= 0, got {x}")
    if nu <= -1.0:
        raise DomainError(f"bessel_j: order must satisfy nu > -1, got {nu}")
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        if nu > 0.0:
            return 0.0
        raise DomainError("bessel_j: J_nu diverges at x=0 for nu < 0")
    if x < max(_J_SWITCH_BASE, 2.0 * abs(nu)):
        sv = _bessel_j_series(nu, x, ctl)
    else:
        sv = _bessel_j_asymptotic(nu, x)
    if not sv.converged:
        raise ConvergenceError(
            f"bessel_j(nu={nu}, x={x}) did not converge after {sv.terms_used} terms"
        )
    return sv.value


class _OrderTable:
    """Per-order Bessel data: the positive zeros (append-only, in order)
    and a bounded memo of J_nu values keyed by the argument."""

    __slots__ = ("zeros", "j_values")

    def __init__(self) -> None:
        self.zeros: list[float] = []
        self.j_values: dict[float, float] = {}


_JZERO_CACHE: dict[float, _OrderTable] = {}
_JZERO_LOCK = threading.Lock()

# Entries per order before the J_nu memo is emptied and refilled.
_J_MEMO_CAP = 1 << 14
_J_MEMO_LOCK = threading.Lock()  # keeps the size check and insert together


def _order_table(nu: float) -> _OrderTable:
    table = _JZERO_CACHE.get(nu)
    if table is None:
        table = _JZERO_CACHE.setdefault(nu, _OrderTable())
    return table


def bessel_j_memoized(nu: float) -> Callable[[float], float]:
    """x -> bessel_j(nu, x), memoized per order for repeated arguments.

    The memo lives with the order's zeros, so clearing the zero cache clears
    it too; it is emptied whenever it reaches a fixed size.  Values are
    exactly those of bessel_j, so results never depend on the memo's state.
    """
    memo = _order_table(nu).j_values

    def j(x: float) -> float:
        value = memo.get(x)
        if value is None:
            value = bessel_j(nu, x)
            with _J_MEMO_LOCK:
                if len(memo) >= _J_MEMO_CAP:
                    memo.clear()
                memo[x] = value
        return value

    return j


def bessel_j_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu (k >= 1), for nu >= -1/2.

    Half-integer orders reduce to sine/cosine zeros; the general case walks
    forward in steps below the minimal zero spacing and bisects each bracket.
    Cached per order; safe for concurrent use.
    """
    if k < 1:
        raise DomainError("bessel_j_zero: k must be a positive integer")
    if nu < -0.5:
        raise DomainError("bessel_j_zero: requires nu >= -1/2")
    if nu == 0.5:
        return k * math.pi
    if nu == -0.5:
        return (k - 0.5) * math.pi

    zeros = _order_table(nu).zeros
    if len(zeros) >= k:  # lock-free read: the list is append-only
        return zeros[k - 1]
    with _JZERO_LOCK:
        return _extend_zero_cache(zeros, nu, k)


def _extend_zero_cache(zeros: list[float], nu: float, k: int) -> float:
    while len(zeros) < k:
        lo = zeros[-1] + 1e-9 if zeros else 1e-3
        step = 0.5  # minimal spacing of J_nu zeros exceeds this for nu >= -1/2
        f_lo = bessel_j(nu, lo) if lo > 1e-6 else 1.0  # J_nu > 0 near 0
        x = lo
        bracket = None
        for _ in range(10000):
            x_next = x + step
            f_next = bessel_j(nu, x_next)
            if f_lo == 0.0:
                bracket = (x, x)
                break
            if f_lo * f_next < 0.0:
                bracket = (x, x_next)
                break
            x, f_lo = x_next, f_next
        if bracket is None:
            raise ConvergenceError(
                f"bessel_j_zero: failed to bracket zero #{len(zeros) + 1} of J_{nu}"
            )
        a, b = bracket
        if a != b:
            fa = bessel_j(nu, a)
            for _ in range(200):
                m = 0.5 * (a + b)
                if b - a <= 1e-13 * max(1.0, b):
                    break
                fm = bessel_j(nu, m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
        zeros.append(0.5 * (a + b))
    return zeros[k - 1]


# ---------------------------------------------------------------------------
# MacDonald function K
# ---------------------------------------------------------------------------

# Taylor coefficients of 1/Gamma(1+z) about z = 0 (Abramowitz & Stegun 6.1.34,
# recomputed to double precision); the terms past z^20 are below 1e-17 for
# |z| <= 1/2.
_RGAMMA_TAYLOR = (
    1.0,
    0.57721566490153286,
    -0.65587807152025388,
    -0.042002635034095236,
    0.16653861138229149,
    -0.042197734555544337,
    -0.0096219715278769736,
    0.0072189432466630995,
    -0.0011651675918590651,
    -0.00021524167411495097,
    0.00012805028238811619,
    -0.000020134854780788239,
    -0.0000012504934821426707,
    0.0000011330272319816959,
    -0.00000020563384169776071,
    0.0000000061160951044814158,
    0.0000000050020076444692229,
    -0.0000000011812745704870201,
    0.00000000010434267116911005,
    0.0000000000077822634399050713,
    -0.0000000000036968056186422057,
)

_K_EPS = 1e-16  # relative size of the last term kept
_K_MAX_TERMS = 500


def _temme_gammas(mu: float) -> tuple[float, float]:
    # (1/G(1-mu) - 1/G(1+mu)) / (2 mu) and (1/G(1-mu) + 1/G(1+mu)) / 2 from the
    # odd and even Taylor terms (Horner in mu^2), free of the 0/0 at mu = 0
    mu2 = mu * mu
    odd = even = 0.0
    for k in range(len(_RGAMMA_TAYLOR) - 1, -1, -1):
        if k % 2:
            odd = odd * mu2 + _RGAMMA_TAYLOR[k]
        else:
            even = even * mu2 + _RGAMMA_TAYLOR[k]
    return -odd, even


def _bessel_k_temme(mu: float, x: float) -> tuple[float, float]:
    # Temme's series (Temme 1975) for (K_mu, K_{mu+1}), |mu| <= 1/2, x <= 2
    gam1, gam2 = _temme_gammas(mu)
    half = 0.5 * x
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if mu != 0.0 else 1.0
    d = -math.log(half)
    e = mu * d
    fact2 = math.sinh(e) / e if e != 0.0 else 1.0
    f = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    e = math.exp(e)
    p = 0.5 * e / (gam2 - mu * gam1)  # (x/2)^-mu Gamma(1+mu) / 2
    q = 0.5 / (e * (gam2 + mu * gam1))  # (x/2)^mu Gamma(1-mu) / 2
    k_mu, k_next = f, p
    c = 1.0
    quarter_sq = half * half
    for i in range(1, _K_MAX_TERMS):
        f = (i * f + p + q) / (i * i - mu * mu)
        c *= quarter_sq / i
        p /= i - mu
        q /= i + mu
        term = c * f
        k_mu += term
        k_next += c * (p - i * f)
        if abs(term) < _K_EPS * abs(k_mu):
            return k_mu, k_next / half
    raise ConvergenceError(f"bessel_k: Temme series did not converge (mu={mu}, x={x})")


def _bessel_k_steed(mu: float, x: float) -> tuple[float, float]:
    # Steed's continued fraction CF2 (Thompson & Barnett 1987) for
    # (K_mu, K_{mu+1}), |mu| <= 1/2; used for x > 2
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _K_MAX_TERMS):
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
        if abs(dels) < _K_EPS * abs(s):
            k_mu = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
            return k_mu, k_mu * (mu + x + 0.5 - a1 * h) / x
    raise ConvergenceError(f"bessel_k: continued fraction did not converge (mu={mu}, x={x})")


def bessel_k(nu: float, x: float) -> float:
    """MacDonald function K_nu(x) for x > 0; K is even in the order.

    K_mu and K_{mu+1} at the reduced order mu = nu - round(nu), |mu| <= 1/2,
    come from Temme's series for x <= 2 and Steed's continued fraction
    otherwise; forward recurrence, stable for K, then reaches nu.
    """
    if not x > 0.0:
        raise DomainError(f"bessel_k: requires x > 0, got {x}")
    nu = abs(nu)
    steps = int(nu + 0.5)
    mu = nu - steps
    # at mu = -1/2 the fraction stops after one term with the exact
    # K_{1/2} = sqrt(pi/(2x)) e^-x, so half-integer orders take it at any x
    if x > 2.0 or mu == -0.5:
        k_mu, k_next = _bessel_k_steed(mu, x)
    else:
        k_mu, k_next = _bessel_k_temme(mu, x)
    for i in range(1, steps + 1):
        k_mu, k_next = k_next, k_mu + 2.0 * (mu + i) / x * k_next
    return k_mu


# ---------------------------------------------------------------------------
# Hypergeometric series
# ---------------------------------------------------------------------------


def _check_not_pole(gamma: float, name: str) -> None:
    if gamma <= 0.0 and abs(gamma - round(gamma)) < 1e-13:
        raise DomainError(f"{name}: lower parameter {gamma} is a nonpositive integer")


def _sum_ratio_series(
    ratio: Callable[[int], float], ctl: SeriesControl, kmin: float
) -> SpecialValue:
    # Sum 1 + t_1 + t_2 + ... with t_{k} = t_{k-1} * ratio(k-1); stops after
    # two consecutive negligible terms past the term-magnitude peak.
    term = 1.0
    total = 1.0
    small_streak = 0
    for k in range(1, ctl.max_terms + 1):
        term *= ratio(k - 1)
        total += term
        if term == 0.0:
            return SpecialValue(total, k, True)  # terminating series
        if abs(term) <= ctl.rel_tol * abs(total) and k >= kmin:
            small_streak += 1
            if small_streak >= 2:
                return SpecialValue(total, k, True)
        else:
            small_streak = 0
    return SpecialValue(total, ctl.max_terms, False)


def hyp0f1(gamma: float, z: float, ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """Generalized hypergeometric series 0F1(gamma; z).

    Large negative z is evaluated through Bessel J (the two functions are
    related by an exact identity); the direct float64 series would lose all
    accuracy to cancellation there.
    """
    _check_not_pole(gamma, "hyp0f1")
    if z == 0.0:
        return 1.0
    if z < _HYP0F1_NEG_SWITCH:
        x = 2.0 * math.sqrt(-z)
        return gamma_fn(gamma) * (0.5 * x) ** (1.0 - gamma) * bessel_j(gamma - 1.0, x)
    sv = _sum_ratio_series(
        lambda k: z / ((k + 1.0) * (gamma + k)), ctl, 2.0 * math.sqrt(abs(z))
    )
    if not sv.converged:
        raise ConvergenceError(
            f"hyp0f1(gamma={gamma}, z={z}) did not converge after {sv.terms_used} terms"
        )
    return sv.value


def hyp1f1(alpha: float, gamma: float, z: float, ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """Kummer's confluent hypergeometric function 1F1(alpha; gamma; z).

    Negative arguments go through the Kummer transform
    1F1(a; c; z) = e^z 1F1(c-a; c; -z) to avoid cancellation.
    """
    _check_not_pole(gamma, "hyp1f1")
    if z == 0.0 or alpha == gamma:
        return math.exp(z)
    if alpha == 0.0:
        return 1.0
    if z < 0.0:
        a2 = gamma - alpha
        sv = _sum_ratio_series(
            lambda k: (a2 + k) * (-z) / ((gamma + k) * (k + 1.0)), ctl, abs(z)
        )
        scale = math.exp(z)
    else:
        sv = _sum_ratio_series(
            lambda k: (alpha + k) * z / ((gamma + k) * (k + 1.0)), ctl, abs(z)
        )
        scale = 1.0
    if not sv.converged:
        raise ConvergenceError(
            f"hyp1f1(alpha={alpha}, gamma={gamma}, z={z}) did not converge "
            f"after {sv.terms_used} terms"
        )
    return scale * sv.value


# ---------------------------------------------------------------------------
# Dawson function and the normal CDF at imaginary argument
# ---------------------------------------------------------------------------

# Rybicki's sampling-theorem sum (Rybicki 1989): with h = 1/4 the sampling
# error is about exp(-(pi / 2h)^2) = 7e-18, and the offsets past 25h carry
# weights exp(-(kh)^2) below 1e-17.
_RYBICKI_K = np.arange(1.0, 26.0, 2.0)  # odd offsets k, in units of h
_RYBICKI_W = np.exp(-(0.25 * _RYBICKI_K) ** 2) / math.sqrt(math.pi)
# Past this |x|, D(x) = 1/(2x) to double precision; the sum runs at the cap.
_DAWSON_CAP = 2.0**60


def dawson(x):
    """Dawson integral D(x) = exp(-x^2) * int_0^x exp(t^2) dt.

    Takes a float or an array; the same fixed sequence of array operations
    serves every |x|.  Rybicki's form
    D(x) = pi^(-1/2) sum over odd n of exp(-(x - nh)^2) / n
    is summed about the even n0 with n0 h nearest |x|: writing x = n0 h + x',
    each pair n = n0 +- k contributes
    w_k [cosh(2hkx') (1/(n0+k) + 1/(n0-k)) + sinh(2hkx') (1/(n0+k) - 1/(n0-k))],
    which stays free of cancellation at n0 = 0, so small |x| needs no
    separate series.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    capped = np.minimum(ax, _DAWSON_CAP)
    n0 = 2.0 * np.floor(2.0 * capped + 0.5)
    xp = capped - 0.25 * n0  # exact, |xp| <= h
    kx = (0.5 * xp)[..., None] * _RYBICKI_K
    n0 = n0[..., None]
    u = 1.0 / (n0 + _RYBICKI_K)
    v = 1.0 / (n0 - _RYBICKI_K)
    total = (_RYBICKI_W * (np.cosh(kx) * (u + v) + np.sinh(kx) * (u - v))).sum(axis=-1)
    # past the cap D(x) = D(cap) * cap / |x| to double precision
    val = np.exp(-xp * xp) * total * (_DAWSON_CAP / np.maximum(ax, _DAWSON_CAP))
    out = np.copysign(val, x) + 0.0  # odd, with D(-0) = +0
    return out if out.ndim else float(out)


def _complex(re, im):
    # re + i im assembled exactly (no complex multiply); a complex for 0-d
    if np.ndim(re) == 0 and np.ndim(im) == 0:
        return complex(float(re), float(im))
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _first(values, mask) -> float:
    # the first entry of values where mask holds, as a float
    return float(np.asarray(values).ravel()[np.asarray(mask).ravel().argmax()])


_EXP_MAX = math.log(sys.float_info.max)


def erfi(x):
    """Imaginary error function erfi(x) = 2/sqrt(pi) * exp(x^2) * D(x).

    Takes a float or an array; raises OverflowError once exp(x^2) leaves
    float range.
    """
    x = np.asarray(x, dtype=float)
    over = x * x > _EXP_MAX
    if over.any():
        raise OverflowError(f"erfi overflows at x={_first(x, over)}")
    out = 2.0 / math.sqrt(math.pi) * np.exp(x * x) * dawson(x)
    return out if np.ndim(out) else float(out)


def norm_cdf_imag_scaled(y):
    """Standard normal CDF at iy as (mantissa, log_scale).

    Phi(iy) = mantissa * exp(log_scale) with log_scale = y^2/2.  The mantissa
    is bounded (|Re| <= 1/2, |Im| <= 0.31), so callers can cancel the growing
    exponential against their own decaying one before exponentiating.  A
    float gives (complex, float), an array gives (complex array, array).
    """
    y = np.asarray(y, dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        raise DomainError(
            f"norm_cdf_imag_scaled: y must be finite, got {_first(y, ~finite)}"
        )
    log_scale = 0.5 * y * y
    mantissa = _complex(
        0.5 * np.exp(-log_scale), dawson(y / math.sqrt(2.0)) / math.sqrt(math.pi)
    )
    return mantissa, (log_scale if log_scale.ndim else float(log_scale))


def norm_cdf_imag(y):
    """Standard normal CDF at the purely imaginary point iy.

    Phi(iy) = 1/2 + (i/2) erfi(y / sqrt(2)), for a float or an array.  Raises
    OverflowError once the exponential scale exceeds float range; use the
    scaled variant there.
    """
    mantissa, log_scale = norm_cdf_imag_scaled(y)
    over = np.asarray(log_scale) > 709.0
    if over.any():
        raise OverflowError(
            f"norm_cdf_imag overflows at y={_first(y, over)}; use norm_cdf_imag_scaled"
        )
    return _complex(0.5, np.exp(log_scale) * np.imag(mantissa))
