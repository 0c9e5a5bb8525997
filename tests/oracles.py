"""Independent oracles for expected values.

These deliberately avoid the package's own evaluation paths: brute-force
high-precision series, plain bisection, Simpson integration and seeded
recurrences.  Frozen constants in the tests were produced by these
functions.
"""

from __future__ import annotations

import math

import mpmath as mp


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


def bessel_k_mp(nu: float, x: float, dps: int = 40) -> float:
    """K_nu(x) from mpmath's arbitrary-precision besselk."""
    with mp.workdps(dps):
        return float(mp.besselk(mp.mpf(nu), mp.mpf(x)))


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
