"""Real-order special functions for the characteristic-function engine.

Bessel J of the first kind, the MacDonald function K, the hypergeometric
series 0F1 and 1F1 (Kummer), gamma/log-gamma, Bessel-J zeros, the Dawson
function and the standard normal CDF at a purely imaginary argument.

Each function has one implementation, on arrays, and an entry's value does
not depend on the array around it: every series, continued fraction and
expansion is one loop that takes a term at a time for a whole array, each
entry with the operations of a one-entry loop and its own stopping rule,
with exp, log, pow and the trigonometric functions from libm.  0F1 at
z = -x^2/4 < 0 is the kernel Omega_nu(x), and one function evaluates it
(_omega_rows), with the one switch x = max(12, 2|nu|): cos x and sin(x)/x
at the orders -+1/2, 0F1's series below the switch and Hankel's expansion
past it.  J is its lead x^nu / (2^nu Gamma(nu + 1)) times Omega_nu.  K is
bessel_k (Temme's series and Steed's continued fraction).  0F1 and 1F1 sum
their series on one loop (_ratio_series_rows).  Dawson's integral is one
fixed sequence of array operations (Rybicki's sampling-theorem sum).  J,
K, 0F1, 1F1, the Dawson function and the normal CDF at iy take a float or
an array, a float giving a float.  The zeros of J come from McMahon's
expansion by secant steps on J.

Every truncated series stops at a relative term size of 1e-14, within at
most 500 terms, and reports the number of terms consumed.  Non-convergence
raises :class:`~ellipcf.errors.ConvergenceError`; a silent NaN is never
returned.
"""

from __future__ import annotations

import math
import threading
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "gamma_fn",
    "log_gamma_fn",
    "bessel_j",
    "bessel_j_zero",
    "bessel_k",
    "hyp0f1",
    "hyp1f1",
    "dawson",
    "norm_cdf_imag",
    "norm_cdf_imag_scaled",
]


# Every truncated series stops after two consecutive terms below this
# fraction of the running sum, and fails past this many terms.
_SERIES_REL_TOL = 1e-14
_SERIES_MAX_TERMS = 500


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
# Array helpers
# ---------------------------------------------------------------------------


def _elementwise(fn: Callable, x: np.ndarray, *args: float) -> np.ndarray:
    """fn(entry, *args) for every entry of the float array x, in x's shape.

    The array forms send exp, pow, sin and cos through here: the math
    module's values are those of the scalar forms bit for bit, where numpy's
    depend on its SIMD dispatch (its AVX-512 exp and pow round differently).
    Entries go through in slices of 4096, so the Python floats alive at once
    fit the interpreter's existing memory instead of fresh pages.
    """
    flat, out = x.ravel(), np.empty(x.size)
    for start in range(0, x.size, 4096):
        part = flat[start:start + 4096]
        out[start:start + 4096] = np.fromiter(
            map(fn, part.tolist(), *(repeat(a) for a in args)), float, len(part)
        )
    return out.reshape(x.shape)


def _call_rows(f, ids: np.ndarray, x: np.ndarray, failures: dict):
    # f(ids[:, None], x), the call of an array integrand (quadrature's
    # adaptive_rows, a mixing law's exact sums, the closed route's phi); if
    # that raises, again row by row, so that one row's failure cannot cost
    # the others their values.  Returns the values of
    # the rows that succeeded and their mask; a row whose call raises has
    # its exception recorded in failures, for the caller to raise at its row
    # (an id that appears more than once keeps its first exception).
    try:
        return np.asarray(f(ids[:, None], x)), np.ones(len(ids), dtype=bool)
    except Exception as exc:  # attributed to its row, raised again there
        if len(ids) == 1:
            failures.setdefault(int(ids[0]), exc)
            return np.zeros((0, x.shape[1])), np.zeros(1, dtype=bool)
    parts, ok = [np.zeros((0, x.shape[1]))], np.ones(len(ids), dtype=bool)
    for i in range(len(ids)):
        try:
            parts.append(np.asarray(f(ids[i:i + 1, None], x[i:i + 1])))
        except Exception as exc:  # as above
            failures.setdefault(int(ids[i]), exc)
            ok[i] = False
    return np.concatenate(parts), ok


def _node_by_node(f: Callable[[float], complex]) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    # a scalar integrand as adaptive_rows' f: called at each node in turn
    return lambda rows, x: np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _power(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e entry by entry, with the bits of the scalar power; pow gives
    exactly 1 and x at the exponents 0 and 1, so those make no calls."""
    if e == 0.0:
        return np.ones(x.shape)
    if e == 1.0:
        return x.copy()
    return _elementwise(pow, x, e)


def _ratio_series_rows(ratio: Callable, kmin: np.ndarray):
    # (sums, converged, terms used) of 1 + t_1 + t_2 + ..., t_k = t_{k-1} r_k,
    # where ratio(rows, k) gives r_k at the entries rows still running.  Each
    # entry runs a one-entry loop, in lockstep with the others, and stops at
    # a zero term (a terminating series) or after two terms in a row below
    # _SERIES_REL_TOL of its sum from k = kmin on.
    count = len(kmin)
    value, terms = np.empty(count), np.full(count, _SERIES_MAX_TERMS)
    converged = np.zeros(count, dtype=bool)
    live = np.arange(count)
    term, total, small = np.ones(count), np.ones(count), np.zeros(count, dtype=bool)
    last = np.fmax.reduce(kmin, initial=0.0)  # k >= kmin past it (a nan kmin has nan terms)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite z sums to no convergence
        for k in range(1, _SERIES_MAX_TERMS + 1):
            if not len(live):
                break
            term = term * ratio(live, k)
            total = total + term
            now = abs(term) <= _SERIES_REL_TOL * abs(total)
            if k <= last:
                now &= k >= kmin[live]
            stop = (now & small) | (term == 0.0)
            if stop.any():
                done = live[stop]
                value[done], terms[done], converged[done] = total[stop], k, True
                live, term, total, now = live[~stop], term[~stop], total[~stop], now[~stop]
            small = now
    value[live] = total
    return value, converged, terms


# ---------------------------------------------------------------------------
# Bessel J and the kernel Omega
# ---------------------------------------------------------------------------


def _omega_rows(gamma: float, z: np.ndarray, x: np.ndarray):
    # 0F1(gamma; z) at every entry of the 1-d array z, x = 2 sqrt|z| given
    # beside it (z may have under- or overflowed), as (values, converged,
    # terms used).  At z = -x^2/4 < 0 this is the kernel Omega_nu(x),
    # nu = gamma - 1: cos x and sin(x)/x at gamma = 1/2 and 3/2, and past the
    # switch x = max(12, 2|nu|), where the series would lose all accuracy to
    # cancellation, Gamma(gamma) (x/2)^(1 - gamma) J_nu(x) by Hankel's
    # expansion.  Every other entry sums the series, term ratio
    # z / (k (gamma + k - 1)), terms kept past k = 2 sqrt|z|.
    out, converged = np.empty(len(z)), np.ones(len(z), dtype=bool)
    terms = np.ones(len(z), dtype=int)
    bessel = (z < 0.0) & (gamma in (0.5, 1.5) or x >= max(12.0, 2.0 * abs(gamma - 1.0)))
    if bessel.any():
        xs = x[bessel]
        if gamma == 0.5:
            out[bessel] = _elementwise(math.cos, xs)
        elif gamma == 1.5:
            out[bessel] = _elementwise(math.sin, xs) / xs
        else:
            j, converged[bessel], terms[bessel] = _bessel_j_asymptotic_rows(gamma - 1.0, xs)
            out[bessel] = gamma_fn(gamma) * _power(0.5 * xs, 1.0 - gamma) * j
    zs = z[~bessel]  # z = 0 sums to exactly 1 (its first term is 0)
    out[~bessel], converged[~bessel], terms[~bessel] = _ratio_series_rows(
        lambda rows, k: zs[rows] / (k * (gamma + (k - 1))), 2.0 * np.sqrt(abs(zs)))
    return out, converged, terms


def _bessel_j_asymptotic_rows(nu: float, x: np.ndarray):
    # Hankel's expansion J_nu(x) ~ sqrt(2/(pi x)) (cos(w) P - sin(w) Q),
    # w = x - nu pi/2 - pi/4, summed to its smallest term, at every entry of
    # x: (values, converged, terms used).  Each entry runs a one-entry loop,
    # in lockstep with the others: its term c_j = c_{j-1} (4 nu^2 - (2j-1)^2)
    # / (8 j x) goes to Q (odd j) or P (even j) with the sign (-1)^(j // 2).
    # It stops before its first term past the smallest so far (from j = 3
    # on), or after its first term below 1e-18, and has converged if its
    # smallest term is below 1e-10.  P, Q and the smallest term are saved as
    # an entry stops, and the values assembled once, after the loop.
    pq, smallest, terms = np.empty((2, len(x))), np.empty(len(x)), np.full(len(x), 80)
    live, xs, c, best = np.arange(len(x)), x, np.ones(len(x)), np.ones(len(x))
    sums, tiny = np.zeros((2, len(x))), np.zeros(len(x), dtype=bool)
    sums[0] = 1.0  # P from 1, Q from 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow stops its entry
        for j in range(1, 80):
            if not len(live):
                break
            c = c * ((4.0 * nu * nu - (2 * j - 1) ** 2) / ((8.0 * j) * xs))
            ac = abs(c)
            stop = tiny | ((ac >= best) & (j > 2))  # after j - 1, or at divergence onset
            if stop.any():
                done = live[stop]
                pq[:, done], smallest[done], terms[done] = sums[:, stop], best[stop], j
                live, xs, c, ac, best, sums = (
                    live[~stop], xs[~stop], c[~stop], ac[~stop], best[~stop], sums[:, ~stop])
            best = np.minimum(best, ac)
            sums[j % 2] += (-1.0 if j // 2 % 2 else 1.0) * c
            tiny = ac < 1e-18
    pq[:, live], smallest[live] = sums, best
    w = x - nu * (0.5 * math.pi) - 0.25 * math.pi
    value = np.sqrt(2.0 / (math.pi * x)) * (
        _elementwise(math.cos, w) * pq[0] - _elementwise(math.sin, w) * pq[1])
    return value, smallest < 1e-10, terms


def _j_over_omega(nu: float, x: np.ndarray) -> np.ndarray:
    # J_nu(x) / Omega_nu(x) = x^nu / (2^nu Gamma(nu + 1)) at every entry of x,
    # formed from x itself, so that a subnormal x keeps its digits (x/2 would
    # round them away, or reach 0)
    if nu > 30.0:  # in log-gamma form
        return _elementwise(
            math.exp, nu * _elementwise(math.log, x) - (nu * math.log(2.0) + log_gamma_fn(nu + 1.0)))
    return _power(x, nu) * (2.0**-nu / gamma_fn(nu + 1.0))


def _j_rows(nu: float, x: np.ndarray):
    # J_nu at every entry of the 1-d array x > 0, its lead times the kernel
    # Omega_nu, as (values, converged, terms used)
    with np.errstate(over="ignore"):  # z is -inf past x ~ 2.7e154; the kernel takes x there
        z = -(0.5 * x) ** 2
    omega, converged, terms = _omega_rows(nu + 1.0, z, x)
    return _j_over_omega(nu, x) * omega, converged, terms


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu(x) for real nu > -1, at a float
    or an array x >= 0 (a float gives a float): its lead
    x^nu / (2^nu Gamma(nu + 1)) times the kernel Omega_nu(x) =
    0F1(; nu + 1; -x^2/4) of hyp0f1 (DLMF 10.16.9), entry by entry.

    The product keeps J's digits where both factors are normal floats.  For
    nu from 2 to 30, x^nu overflows (OverflowError) past 1.3e154 at nu = 2,
    4.5e61 at 5, 6.7e30 at 10 and 1.9e10 at 30, where Hankel's phase
    x - (nu/2 + 1/4) pi, rounded at ulp(x), has already cost J its digits.
    Past the switch, Omega_nu's factor (x/2)^-nu is subnormal where
    (x/2)^nu > 2^1022: from x = 2.9e6 at nu = 50 and 2400 at nu = 100 (0
    from 3444).  A ConvergenceError names the first entry that fails.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    ok = (flat >= 0.0) & (flat < math.inf)
    if not ok.all():
        raise DomainError(f"bessel_j: x must be finite and >= 0, got {flat[(~ok).argmax()]}")
    if nu <= -1.0:
        raise DomainError(f"bessel_j: order must satisfy nu > -1, got {nu}")
    positive = flat != 0.0
    if nu < 0.0 and not positive.all():
        raise DomainError("bessel_j: J_nu diverges at x=0 for nu < 0")
    out = np.full(flat.shape, 1.0 if nu == 0.0 else 0.0)
    xs = flat[positive]
    out[positive] = _series_rows(f"bessel_j(nu={nu}, x", xs, _j_rows(nu, xs))
    out = out.reshape(x.shape)
    return out if out.ndim else float(out)


# The positive zeros of J_nu per order, each list append-only and in order.
_JZERO_CACHE: dict[float, list[float]] = {}
_JZERO_LOCK = threading.Lock()
# Zeros per fill of an order's cache; secant steps a zero may take; the
# step, relative to the zero, that ends them, and the one below which they
# end once they stop shrinking (at the rounding noise of J's series at high
# order); the offset of the second start.
_JZERO_BLOCK = 32
_JZERO_STEPS = 40
_JZERO_REL_STEP = 1e-14
_JZERO_NOISE_STEP = 1e-8
_JZERO_OFFSET = 1e-2


def bessel_j_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu (k >= 1), for nu >= -1/2.

    The orders +-1/2 have the zeros of sin and cos.  Other orders fill their
    cache a block of zeros at a time, each from its estimate (_jzero_guesses)
    by secant steps on J_nu, in lockstep.  A zero whose steps do not
    converge, or end outside the midpoints to its neighbours' estimates (so
    possibly at another zero), raises ConvergenceError naming nu and k.
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

    zeros = _JZERO_CACHE.setdefault(nu, [])
    if len(zeros) >= k:  # lock-free read: the list is append-only
        return zeros[k - 1]
    with _JZERO_LOCK:
        while len(zeros) < k:
            first = len(zeros) + 1
            block, error = _jzero_block(nu, first, max(k, first + _JZERO_BLOCK - 1))
            zeros.extend(block)
            if error is not None and len(zeros) < k:
                raise ConvergenceError(error)
        return zeros[k - 1]


def _jzero_guesses(nu: float, ks: np.ndarray) -> np.ndarray:
    # McMahon's expansion of j_{nu,k} (DLMF 10.21.19) to (8a)^-7 at every k of
    # ks; from order 2.5 on, the first zero takes DLMF 10.21.40, the closer
    a = (ks + (0.5 * nu - 0.25)) * math.pi
    mu = 4.0 * nu * nu
    e = 1.0 / (8.0 * a)
    guess = a - (mu - 1.0) * e * (1.0 + e * e * (
        4.0 * (7.0 * mu - 31.0) / 3.0 + e * e * (
            32.0 * ((83.0 * mu - 982.0) * mu + 3779.0) / 15.0 + e * e * (
                64.0 * (((6949.0 * mu - 153855.0) * mu + 1585743.0) * mu - 6277237.0) / 105.0))))
    if nu >= 2.5:
        t = nu ** (1.0 / 3.0)
        guess[ks == 1] = (nu + 1.8557571 * t + 1.033150 / t - 0.00397 / nu
                          - 0.0908 / t**5 + 0.043 / t**7)
    return guess


def _jzero_block(nu: float, first: int, last: int) -> tuple[list[float], str | None]:
    # zeros first..last of J_nu by secant steps from their estimates, in
    # lockstep; each zero's steps depend only on nu and its k.  Returns the
    # zeros before the first that fails, and that one's error.
    guess = _jzero_guesses(nu, np.arange(first - 1, last + 2))
    if first == 1:
        guess[0] = 0.0
    lower, upper = 0.5 * (guess[:-2] + guess[1:-1]), 0.5 * (guess[1:-1] + guess[2:])
    zeros = np.full(len(lower), math.nan)
    live, x0, x1 = np.arange(len(lower)), guess[1:-1], guess[1:-1] + _JZERO_OFFSET
    (f0, ok0, _), (f1, ok1, _) = _j_rows(nu, x0), _j_rows(nu, x1)
    live, x0, f0, x1, f1 = (z[ok0 & ok1] for z in (live, x0, f0, x1, f1))
    prev = np.full(len(live), math.inf)  # the size of each zero's last step
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # such steps fail below
        for _ in range(_JZERO_STEPS):
            if not len(live):
                break
            step = np.where(f1 == 0.0, 0.0, f1 * (x1 - x0) / (f1 - f0))
            x0, f0, x1, size = x1, f1, x1 - step, abs(step)
            done = (size <= _JZERO_REL_STEP * x1) | (
                (size >= 0.5 * prev) & (size <= _JZERO_NOISE_STEP * x1))
            zeros[live[done]] = x1[done]
            more = ~done & (x1 > 0.0) & (x1 < math.inf)
            live, x0, f0, x1, prev = (z[more] for z in (live, x0, f0, x1, size))
            f1, ok, _ = _j_rows(nu, x1)
            live, x0, f0, x1, f1, prev = (z[ok] for z in (live, x0, f0, x1, f1, prev))
    wrong = ~((zeros > lower) & (zeros < upper))
    if not wrong.any():
        return zeros.tolist(), None
    i = int(wrong.argmax())
    error = ("the secant steps did not converge" if math.isnan(zeros[i]) else
             f"the secant steps ended at {zeros[i]}, outside ({lower[i]}, {upper[i]}) "
             f"about its estimate {guess[i + 1]}")
    return zeros[:i].tolist(), f"bessel_j_zero(nu={nu}, k={first + i}): {error}"


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
    for c in _RGAMMA_TAYLOR[-2::-2]:
        odd = odd * mu2 + c
    for c in _RGAMMA_TAYLOR[::-2]:
        even = even * mu2 + c
    return -odd, even


def _bessel_k_temme(mu: float, x: np.ndarray) -> np.ndarray:
    # Temme's series (Temme 1975) for (K_mu, K_{mu+1}), |mu| <= 1/2, at every
    # entry of the 1-d array 0 < x <= 2, as two rows: every entry runs the
    # operations of a one-entry loop, and keeps its sums at its first term
    # below _K_EPS of its sum
    gam1, gam2 = _temme_gammas(mu)
    half = 0.5 * x
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if mu != 0.0 else 1.0
    d = -_elementwise(math.log, half)
    e = mu * d
    fact2 = np.ones(len(x))
    fact2[e != 0.0] = _elementwise(math.sinh, e[e != 0.0]) / e[e != 0.0]
    f = fact * (gam1 * _elementwise(math.cosh, e) + gam2 * fact2 * d)
    e = _elementwise(math.exp, e)
    p = 0.5 * e / (gam2 - mu * gam1)  # (x/2)^-mu Gamma(1+mu) / 2
    q = 0.5 / (e * (gam2 + mu * gam1))  # (x/2)^mu Gamma(1-mu) / 2
    k_mu, k_next, c = f.copy(), p.copy(), np.ones(len(x))
    out, done = np.empty((2, len(x))), np.zeros(len(x), dtype=bool)
    for i in range(1, _K_MAX_TERMS):
        f = (i * f + p + q) / (i * i - mu * mu)
        c *= half * half / i
        p /= i - mu
        q /= i + mu
        term = c * f
        k_mu += term
        k_next += c * (p - i * f)
        now = ~done & (abs(term) < _K_EPS * abs(k_mu))
        out[:, now] = k_mu[now], k_next[now] / half[now]
        done |= now
        if done.all():
            return out
    raise ConvergenceError(f"bessel_k: Temme series did not converge (mu={mu}, x={_first(x, ~done)})")


def _bessel_k_steed(mu: float, x: np.ndarray) -> np.ndarray:
    # Steed's continued fraction CF2 (Thompson & Barnett 1987) for
    # (K_mu, K_{mu+1}), |mu| <= 1/2, at every entry of the 1-d array x > 2,
    # as _bessel_k_temme
    b = 2.0 * (1.0 + x)
    h = delh = d = 1.0 / b
    q1, q2 = np.zeros(len(x)), np.ones(len(x))
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    out, done = np.empty((2, len(x))), np.zeros(len(x), dtype=bool)
    for i in range(2, _K_MAX_TERMS):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q = q + c * q2
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        now = ~done & (abs(dels) < _K_EPS * abs(s))
        if now.any():
            xs = x[now]
            k_mu = np.sqrt(math.pi / (2.0 * xs)) * _elementwise(math.exp, -xs) / s[now]
            out[:, now] = k_mu, k_mu * (mu + xs + 0.5 - a1 * h[now]) / xs
            done |= now
            if done.all():
                return out
    raise ConvergenceError(
        f"bessel_k: continued fraction did not converge (mu={mu}, x={_first(x, ~done)})")


def bessel_k(nu: float, x):
    """MacDonald function K_nu(x) for a float or an array x > 0 (a float
    gives a float); K is even in the order.

    K_mu and K_{mu+1} at the reduced order mu = nu - round(nu), |mu| <= 1/2,
    come from Temme's series for x <= 2 and Steed's continued fraction
    otherwise, every entry in lockstep with its own stopping rule; forward
    recurrence, stable for K, then reaches nu.  exp, log, sinh and cosh come
    from libm, so an entry's value does not depend on the array around it;
    an overflow gives inf, as in float arithmetic.  An error names an entry
    that fails.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    bad = ~(flat > 0.0)
    if bad.any():
        raise DomainError(f"bessel_k: requires x > 0, got {_first(flat, bad)}")
    nu = abs(nu)
    steps = int(nu + 0.5)
    mu = nu - steps
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as in floats
        # half-integer orders start from the exact K_{-1/2} = K_{1/2} =
        # sqrt(pi/(2x)) e^-x at any x (the fraction's K_{mu+1} would round a
        # small x away in mu + x + 1/2)
        if mu == -0.5:
            k_mu = k_next = np.sqrt(math.pi / (2.0 * flat)) * _elementwise(math.exp, -flat)
        else:
            k_mu, k_next = np.empty((2, len(flat)))
            for branch, kernel in ((flat > 2.0, _bessel_k_steed), (flat <= 2.0, _bessel_k_temme)):
                if branch.any():
                    k_mu[branch], k_next[branch] = kernel(mu, flat[branch])
        for i in range(1, steps + 1):
            k_mu, k_next = k_next, k_mu + 2.0 * (mu + i) / flat * k_next
    out = k_mu.reshape(x.shape)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Hypergeometric series
# ---------------------------------------------------------------------------


def _check_not_pole(gamma: float, name: str) -> None:
    if gamma <= 0.0 and abs(gamma - round(gamma)) < 1e-13:
        raise DomainError(f"{name}: lower parameter {gamma} is a nonpositive integer")


def _series_rows(call: str, zs: np.ndarray, series) -> np.ndarray:
    # the values of a (values, converged, terms used) result over the entries
    # zs, raising at the first that does not converge; call is the function's
    # name and parameters up to the name of the argument zs gives
    sums, converged, terms = series
    if not converged.all():
        i = (~converged).argmax()
        raise ConvergenceError(
            f"{call}={float(zs[i])}) did not converge after {int(terms[i])} terms"
        )
    return sums


def hyp0f1(gamma: float, z):
    """Generalized hypergeometric series 0F1(gamma; z), for a float or an
    array z (a float gives a float).

    At z = -x^2/4 < 0 this is the kernel Omega_nu(x) = Gamma(nu + 1) (2/x)^nu
    J_nu(x), nu = gamma - 1 (DLMF 10.16.9), which _omega_rows evaluates:
    the series below the switch x = max(12, 2|nu|), Hankel's expansion past
    it, at any gamma, and cos x and sin(x)/x at gamma = 1/2 and 3/2.  Every
    z >= 0 sums the series.  An infinite z (an overflowed argument) raises
    OverflowError.  An error names the first entry that fails.
    """
    _check_not_pole(gamma, "hyp0f1")
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    inf = np.isinf(flat)
    if inf.any():
        raise OverflowError(f"hyp0f1: z = {_first(flat, inf)}: an intermediate overflows")
    out = _series_rows(f"hyp0f1(gamma={gamma}, z", flat,
                       _omega_rows(gamma, flat, 2.0 * np.sqrt(abs(flat)))).reshape(z.shape)
    return out if out.ndim else float(out)


def hyp1f1(alpha: float, gamma: float, z):
    """Kummer's confluent hypergeometric function 1F1(alpha; gamma; z), for a
    float or an array z (a float gives a float).

    Negative arguments go through the Kummer transform
    1F1(a; c; z) = e^z 1F1(c-a; c; -z) to avoid cancellation, unless a is a
    negative integer: there 1F1 is a polynomial, summed as it stands.  An
    error names the first entry that fails.
    """
    _check_not_pole(gamma, "hyp1f1")
    z = np.asarray(z, dtype=float)
    if alpha == gamma:
        out = _elementwise(math.exp, z)
    elif alpha == 0.0:
        out = np.ones(z.shape)
    else:
        zs = z.ravel()
        # the upper parameter (c - a where transformed) and the argument, so
        # one ratio serves both; z = 0 sums to exactly 1
        kummer = (zs < 0.0) & (not (alpha < 0.0 and float(alpha).is_integer()))
        upper, w = np.where(kummer, gamma - alpha, alpha), np.where(kummer, -zs, zs)
        out = _series_rows(f"hyp1f1(alpha={alpha}, gamma={gamma}, z", zs, _ratio_series_rows(
            lambda rows, k: (upper[rows] + (k - 1)) * w[rows] / ((gamma + (k - 1)) * k),
            abs(zs),
        ))
        out[kummer] *= _elementwise(math.exp, zs[kummer])
        out = out.reshape(z.shape)
    return out if out.ndim else float(out)


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
    with np.errstate(over="ignore"):  # y^2 overflows to an infinite log_scale
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
