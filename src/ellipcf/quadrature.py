"""Adaptive panel quadrature and the Bessel-kernel radial integrals.

Every panel uses the nested Gauss-Kronrod 7/15 pair, for one scalar
integrand (adaptive_interval) or for many integrands advanced in lockstep
on arrays (adaptive_rows, which makes adaptive_interval's decisions for
each of them).  The oscillatory integrator works in the Bessel argument
x = omega r, splits that axis at consecutive Bessel zeros, integrates
each inter-zero panel adaptively, and accelerates the alternating panel
sums with an iterated Euler transform.
Because the panel nodes do not depend on omega, the kernel values J_nu(x)
come from a per-order memo shared by every frequency.
This evaluates the characteristic generator of any density generator,
including user-supplied ones without closed forms.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DivergentIntegralError,
    DomainError,
    MomentUndefinedError,
)
from .generators import DensityGenerator, closed_moment_integral, moment_exists
from .specfun import bessel_j, bessel_j_memoized, bessel_j_zero, gamma_fn

__all__ = [
    "QuadratureControl",
    "QuadResult",
    "adaptive_interval",
    "adaptive_rows",
    "moment_integral",
    "radial_moment",
    "normalizing_constant",
    "integrate_bessel_oscillatory",
    "phi_hankel",
]


@dataclass(frozen=True)
class QuadratureControl:
    """Error targets and resource limits for the quadrature routines."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_panels: int = 400
    tail_cutoff: float = 1e-16

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("QuadratureControl tolerances must be positive")
        if self.max_panels < 2:
            raise DomainError("QuadratureControl.max_panels must be >= 2")


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    panels_used: int
    tail_bound: float


_DEFAULT_CTL = QuadratureControl()

# QUADPACK's qk15 rule (Piessens et al. 1983): the 7 Gauss-Legendre nodes
# are a subset of the 15 Kronrod nodes.  One (node, Kronrod weight, Gauss
# weight) triple per symmetric pair, Gauss weight 0 off the Gauss nodes.
_K15_PAIRS = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_K15_CENTRE = 0.209482141084727828012999174891714
_G7_CENTRE = 0.417959183673469387755102040816327


def _kronrod_pair(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    # K15 value with |K15 - G7| as its error estimate, from 15 integrand calls
    halfw = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    k15 = _K15_CENTRE * fc
    g7 = _G7_CENTRE * fc
    for x, wk, wg in _K15_PAIRS:
        dx = halfw * x
        pair = f(mid - dx) + f(mid + dx)
        k15 += wk * pair
        g7 += wg * pair
    return halfw * k15, halfw * abs(k15 - g7)


def _dyadic_seeds(a: float, b: float, min_cell: float) -> tuple[float, ...]:
    # interior breakpoints halving toward the left edge, so an integrand
    # concentrated near `a` cannot hide between the nodes of one huge panel
    width = b - a
    if width <= 8.0 * min_cell:
        return ()
    levels = min(48, int(math.ceil(math.log2(width / min_cell))))
    return tuple(a + width * 2.0 ** (-j) for j in range(levels, 0, -1))


def adaptive_interval(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float,
    rel_tol: float,
    max_panels: int = 256,
    seeds: tuple[float, ...] = (),
) -> tuple[float, float, int]:
    """Adaptive Gauss-Kronrod 7/15 on [a, b]: (value, err_est, panels_used).

    Bisects the worst panel until the summed error estimate meets the
    tolerance or the panel budget runs out; never raises, callers judge the
    returned estimate.  `seeds` are interior breakpoints of the initial
    partition.
    """
    if b <= a:
        return 0.0, 0.0, 0
    edges = [a, *[s for s in seeds if a < s < b], b]
    heap = []
    total_val = total_err = 0.0
    panels = 0
    seq = 0
    for pa, pb in zip(edges[:-1], edges[1:]):
        val, err = _kronrod_pair(f, pa, pb)
        heapq.heappush(heap, (-err, seq, pa, pb, val, err))
        total_val += val
        total_err += err
        panels += 1
        seq += 1
    while panels < max_panels:
        if total_err <= max(abs_tol, rel_tol * abs(total_val)):
            break
        neg_err, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        lv, le = _kronrod_pair(f, pa, mid)
        rv, re = _kronrod_pair(f, mid, pb)
        total_val += lv + rv - pval
        total_err += le + re - perr
        heapq.heappush(heap, (-le, seq, pa, mid, lv, le))
        heapq.heappush(heap, (-re, seq + 1, mid, pb, rv, re))
        seq += 2
        panels += 1
    return total_val, total_err, panels


# The lockstep form below keeps _K15_PAIRS and _kronrod_pair's order of
# nodes and sums.  adaptive_interval stays the scalar form for scalar
# integrands (Bessel panels, moments, CDF tables): numpy's per-call overhead
# makes one 15-node array panel about twice as slow as the Python loop.
# Node offsets in _kronrod_pair's evaluation order: the centre, then each
# symmetric pair as (mid - dx, mid + dx).
_K15_OFFSETS = np.array([0.0] + [s * x for x, _, _ in _K15_PAIRS for s in (-1.0, 1.0)])
_K15_G7_WEIGHTS = np.array([(wk, wg) for _, wk, wg in _K15_PAIRS])
_K15_G7_CENTRE = np.array([_K15_CENTRE, _G7_CENTRE])


def _kronrod_rows(fv: np.ndarray, halfw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # _kronrod_pair on node values fv[..., 15, 2] (real and imaginary parts),
    # with the same sums in the same order: (value [..., 2], error [...]).
    # Axis -2 of the sums holds the K15 and the G7 sum side by side.
    pairs = (fv[..., 1::2, :] + fv[..., 2::2, :])[..., None, :]
    terms = _K15_G7_WEIGHTS[:, :, None] * pairs
    sums = _K15_G7_CENTRE[:, None] * fv[..., :1, :]
    for i in range(len(_K15_PAIRS)):
        sums = sums + terms[..., i, :, :]
    d = sums[..., 0, :] - sums[..., 1, :]
    return halfw[..., None] * sums[..., 0, :], halfw * np.hypot(d[..., 0], d[..., 1])


def _call_rows(f, ids: np.ndarray, x: np.ndarray, failures: dict):
    # f(ids[:, None], x); if that raises, again row by row, so that one row's
    # failure cannot cost the others their values.  Returns the values of
    # the rows that succeeded and their mask; a row whose call raises has
    # its exception recorded in failures, for the caller to raise at its row.
    try:
        return np.asarray(f(ids[:, None], x)), np.ones(len(ids), dtype=bool)
    except Exception as exc:  # attributed to its row, raised again there
        if len(ids) == 1:
            failures[int(ids[0])] = exc
            return np.zeros((0, x.shape[1])), np.zeros(1, dtype=bool)
    parts, ok = [np.zeros((0, x.shape[1]))], np.ones(len(ids), dtype=bool)
    for i in range(len(ids)):
        try:
            parts.append(np.asarray(f(ids[i:i + 1, None], x[i:i + 1])))
        except Exception as exc:  # as above
            failures[int(ids[i])] = exc
            ok[i] = False
    return np.concatenate(parts), ok


def adaptive_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    count: int,
    a: float,
    b: float,
    abs_tol: float,
    rel_tol: float,
    max_panels: int = 256,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """adaptive_interval on [a, b] for `count` integrands at once, in lockstep.

    f(rows, x) evaluates integrand rows[i, 0] at the nodes x[i] (rows is an
    integer (k, 1) array, x a (k, m) array) and returns x's shape, real or
    complex.  Every round bisects the worst panel (the older one on a tie)
    of each row still above its tolerance and under max_panels, with one
    call of f for all of them.  Sums over the nodes run elementwise in node
    order, so each row gets the value, error and panel count that
    adaptive_interval gives its integrand alone, whatever else is in the
    batch.

    Returns (values, errs, panels, failures).  A row whose integrand raises
    drops out: its exception is failures[row] and its value and error are
    nan.  Like adaptive_interval, it never raises for an unmet tolerance.
    """
    failures: dict = {}
    if b <= a:
        return np.zeros(count), np.zeros(count), np.zeros(count, dtype=int), failures
    values = np.full((count, 2), np.nan)
    errs = np.full(count, np.nan)
    panels = np.zeros(count, dtype=int)
    is_complex = False

    def evaluate(ids, lo, hi):
        # panels [lo, hi] of shape (k, P): the values (k', P, 2) and errors
        # (k', P) of the rows that did not fail, and their mask
        nonlocal is_complex
        halfw, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        x = mid[..., None] + halfw[..., None] * _K15_OFFSETS
        fv, ok = _call_rows(f, ids, x.reshape(len(ids), -1), failures)
        is_complex = is_complex or np.iscomplexobj(fv)
        if not ok.all():
            x, halfw = x[ok], halfw[ok]
        parts = np.ascontiguousarray(fv, dtype=complex).view(float).reshape(x.shape + (2,))
        val, err = _kronrod_rows(parts, halfw)
        return val, err, ok

    # per row still running: its id, its panels (bounds, value, error and
    # heap sequence number, one column each) and its running totals
    ids = np.arange(count)
    lo, hi = np.full((count, 1), float(a)), np.full((count, 1), float(b))
    val, err, ok = evaluate(ids, lo, hi)
    ids, lo, hi = ids[ok], lo[ok], hi[ok]
    seq = np.zeros((len(ids), 1), dtype=np.int64)
    total_val, total_err = 0.0 + val[:, 0], 0.0 + err[:, 0]
    used = np.ones(len(ids), dtype=int)
    step = 0
    while len(ids):
        done = (used >= max_panels) | (
            total_err <= np.fmax(abs_tol, rel_tol * np.hypot(total_val[:, 0], total_val[:, 1]))
        )
        if done.any():
            finished = ids[done]
            values[finished], errs[finished], panels[finished] = (
                total_val[done], total_err[done], used[done]
            )
            ids, lo, hi, val, err, seq, total_val, total_err, used = (
                z[~done] for z in (ids, lo, hi, val, err, seq, total_val, total_err, used)
            )
            if not len(ids):
                break
        # bisect each row's worst panel: largest error, then oldest
        worst = err.max(axis=1)
        j = np.where(err == worst[:, None], seq, np.iinfo(np.int64).max).argmin(axis=1)
        r = np.arange(len(ids))
        pa, pb = lo[r, j], hi[r, j]
        mid = 0.5 * (pa + pb)
        pa, pb, mid = pa[:, None], pb[:, None], mid[:, None]
        cval, cerr, ok = evaluate(ids, np.concatenate((pa, mid), axis=1), np.concatenate((mid, pb), axis=1))
        pval, perr = val[r, j], err[r, j]
        if not ok.all():
            ids, lo, hi, val, err, seq, total_val, total_err, used, j, pb, mid, pval, perr = (
                z[ok] for z in (
                    ids, lo, hi, val, err, seq, total_val, total_err, used, j, pb, mid, pval, perr
                )
            )
        total_val = total_val + ((cval[:, 0] + cval[:, 1]) - pval)
        total_err = total_err + ((cerr[:, 0] + cerr[:, 1]) - perr)
        used = used + 1
        step += 1
        # the left half takes the popped slot, the right half a new one
        r = np.arange(len(ids))
        hi[r, j], val[r, j], err[r, j], seq[r, j] = mid[:, 0], cval[:, 0], cerr[:, 0], 2 * step - 1
        lo = np.concatenate((lo, mid), axis=1)
        hi = np.concatenate((hi, pb), axis=1)
        val = np.concatenate((val, cval[:, 1:]), axis=1)
        err = np.concatenate((err, cerr[:, 1:]), axis=1)
        seq = np.concatenate((seq, np.full((len(ids), 1), 2 * step)), axis=1)
    if not is_complex:
        return values[:, 0].copy(), errs, panels, failures
    out = np.empty(count, dtype=complex)
    out.real, out.imag = values[:, 0], values[:, 1]
    return out, errs, panels, failures


def moment_integral(
    gen: DensityGenerator, n: int, ctl: QuadratureControl = _DEFAULT_CTL
) -> QuadResult:
    """int_0^inf z^(n/2-1) g(z) dz by adaptive panels, always numerically.

    Written in the radius variable (z = w^2) so the n = 1 endpoint is
    regular; the first unit window additionally substitutes w = y^3 to
    absorb any remaining algebraic singularity at the origin.  Infinite
    support is handled with doubling windows and a geometric tail estimate;
    a non-shrinking tail raises DivergentIntegralError.
    """
    return _radial_power_integral(gen, float(n), ctl)


def _radial_power_integral(
    gen: DensityGenerator, d: float, ctl: QuadratureControl
) -> QuadResult:
    # 2 * int_0^R w^(d-1) g(w^2) dw with R = support radius (maybe inf).
    g = gen.g

    def first_window(y: float) -> float:
        # w = y^3 on [0, 1]: integrand 3 y^2 * y^(3(d-1)) g(y^6)
        return 3.0 * y ** (3.0 * d - 1.0) * g(y**6)

    def w_integrand(w: float) -> float:
        return w ** (d - 1.0) * g(w * w)

    radius = gen.support_radius
    win_abs = 0.125 * ctl.abs_tol
    if radius <= 1.0:
        val, err, panels = adaptive_interval(
            lambda y: first_window(y) if y**3 < radius else 0.0,
            0.0,
            radius ** (1.0 / 3.0),
            win_abs,
            0.125 * ctl.rel_tol,
        )
        return QuadResult(2.0 * val, 2.0 * err, panels, 0.0)

    total, err_total, panels = adaptive_interval(
        first_window, 0.0, 1.0, win_abs, 0.125 * ctl.rel_tol
    )
    if math.isfinite(radius):
        val, err, p = adaptive_interval(
            w_integrand, 1.0, radius, win_abs, 0.125 * ctl.rel_tol
        )
        return QuadResult(2.0 * (total + val), 2.0 * (err_total + err), panels + p, 0.0)

    lo = 1.0
    prev_window = None
    flat_streak = 0
    for _ in range(100):
        hi = 2.0 * lo
        wval, werr, p = adaptive_interval(w_integrand, lo, hi, win_abs, 0.125 * ctl.rel_tol)
        total += wval
        err_total += werr
        panels += p
        thresh = 0.5 * max(ctl.abs_tol, ctl.rel_tol * abs(total))
        if prev_window is not None and prev_window > 0.0:
            ratio = wval / prev_window
            if wval >= 0.999 * prev_window and abs(wval) > thresh:
                flat_streak += 1
                if flat_streak >= 12:
                    raise DivergentIntegralError(
                        "moment integral: window contributions are not shrinking"
                    )
            else:
                flat_streak = 0
            if 0.0 <= ratio < 0.995:
                tail = wval * ratio / (1.0 - ratio)
                if tail < thresh:
                    total += tail
                    err_total += tail
                    return QuadResult(2.0 * total, 2.0 * err_total, panels, 2.0 * tail)
        elif abs(wval) <= 0.25 * thresh and prev_window is not None:
            return QuadResult(2.0 * total, 2.0 * err_total, panels, 2.0 * abs(wval))
        prev_window = wval
        lo = hi
    raise DivergentIntegralError("moment integral: tail bound did not converge")


def radial_moment(
    gen: DensityGenerator, n: int, k: int, ctl: QuadratureControl = _DEFAULT_CTL
) -> float:
    """E[R^(2k)] under the radial density of the generator in dimension n.

    Equals the ratio of moment integrals at dimension parameters n + 2k and
    n.  Raises MomentUndefinedError when the moment does not exist, which
    disables the small-argument series route for that generator.
    """
    if k < 0:
        raise DomainError("radial_moment: k must be >= 0")
    if k == 0:
        return 1.0
    key = ("radial_moment", n, k)
    if key in gen.moment_cache:
        return gen.moment_cache[key]
    exists = moment_exists(gen, n + 2.0 * k)
    if exists is False:
        raise MomentUndefinedError(
            f"E[R^{2 * k}] does not exist for family {gen.family.value} in dimension {n}"
        )
    try:
        num = _radial_power_integral(gen, n + 2.0 * k, ctl)
    except DivergentIntegralError as exc:
        raise MomentUndefinedError(
            f"E[R^{2 * k}] appears divergent for this generator (dimension {n})"
        ) from exc
    den = _moment_n(gen, n, ctl)
    value = num.value / den
    gen.moment_cache[key] = value
    return value


def _moment_n(gen: DensityGenerator, n: int, ctl: QuadratureControl) -> float:
    # int_0^inf z^(n/2-1) g(z) dz, cached on the generator: closed forms for
    # the named families, numeric for custom generators
    key = ("moment", float(n))
    if key not in gen.moment_cache:
        moment = closed_moment_integral(gen, float(n))
        if moment is None:
            try:
                moment = moment_integral(gen, n, ctl).value
            except DivergentIntegralError as exc:
                raise DomainError("normalizing_constant: moment integral diverges") from exc
        if not math.isfinite(moment):
            raise DomainError("normalizing_constant: moment integral diverges")
        gen.moment_cache[key] = moment
    return gen.moment_cache[key]


def normalizing_constant(
    n: int, gen: DensityGenerator, ctl: QuadratureControl | None = None
) -> float:
    """c_n = Gamma(n/2) pi^(-n/2) / int_0^inf z^(n/2-1) g(z) dz.

    The moment integral is cached on the generator; a divergent one raises
    DomainError.
    """
    return gamma_fn(0.5 * n) / (math.pi ** (0.5 * n) * _moment_n(gen, n, ctl or _DEFAULT_CTL))


# ---------------------------------------------------------------------------
# Oscillatory integration against a Bessel kernel
# ---------------------------------------------------------------------------


def _kernel(nu: float, x: float) -> float:
    # J_nu with closed forms at nu = +-1/2 (avoids the nu < 0 series branch
    # for the one-dimensional cosine case).
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if nu == -0.5:
        return math.sqrt(2.0 / (math.pi * x)) * math.cos(x)
    if nu == 0.5:
        return math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
    return bessel_j(nu, x)


def _euler_accelerate(partial_sums: list[float]) -> tuple[float, float]:
    # Iterated averaging of the partial-sum sequence; returns the deepest
    # diagonal value and the size of its last refinement.
    row = list(partial_sums)
    last = row[-1]
    prev = last
    while len(row) > 1:
        row = [0.5 * (row[i] + row[i + 1]) for i in range(len(row) - 1)]
        prev, last = last, row[-1]
    return last, abs(last - prev)


def integrate_bessel_oscillatory(
    f: Callable[[float], float],
    nu: float,
    omega: float,
    ctl: QuadratureControl = _DEFAULT_CTL,
    support_radius: float = math.inf,
) -> QuadResult:
    """int_0^R f(r) J_nu(omega r) dr with R the (possibly infinite) support.

    Panels are integrated in x = omega r, as int f(x/omega) J_nu(x) dx / omega,
    between consecutive Bessel zeros; each panel is integrated adaptively,
    and for infinite support the alternating panel sums are Euler-accelerated
    so algebraically decaying envelopes (heavy tails) still converge in a
    bounded panel budget.  The panel nodes are the same for every omega, so
    J_nu comes from the per-order memo; the last panel, cut short at the
    support edge x = R omega, evaluates its kernel afresh.
    """
    if not omega > 0.0:
        raise DomainError("integrate_bessel_oscillatory: omega must be > 0")

    def edge_integrand(x: float) -> float:
        return f(x / omega) * _kernel(nu, x)

    if abs(nu) == 0.5:
        integrand = edge_integrand  # closed forms beat a memo lookup
    else:
        j_nu = bessel_j_memoized(nu)

        def integrand(x: float) -> float:
            return f(x / omega) * j_nu(x)

    panel_abs = ctl.abs_tol / 64.0 * omega
    panel_rel = min(ctl.rel_tol, 1e-10)
    min_cell = 0.25 * omega
    x_edge = support_radius * omega

    contributions: list[float] = []
    partials: list[float] = []
    quad_err = 0.0
    panels_used = 0
    running = 0.0
    peak = 0.0
    prev_acc: Optional[float] = None
    acc_ok_streak = 0
    x_prev = 0.0

    for k in range(1, ctl.max_panels + 1):
        x_k = min(bessel_j_zero(nu, k), x_edge)
        if x_k <= x_prev:
            break
        val, err, p = adaptive_interval(
            edge_integrand if x_k == x_edge else integrand,
            x_prev, x_k, panel_abs, panel_rel,
            seeds=_dyadic_seeds(x_prev, x_k, min_cell),
        )
        val /= omega
        err /= omega
        contributions.append(val)
        running += val
        partials.append(running)
        quad_err += err
        panels_used += p
        peak = max(peak, abs(val))
        x_prev = x_k

        if x_k >= x_edge:
            # finite support exhausted: plain sum, no tail
            return QuadResult(running, quad_err, panels_used, 0.0)

        tol = max(ctl.abs_tol, ctl.rel_tol * abs(running))
        if abs(val) <= max(ctl.tail_cutoff * max(peak, 1e-300), 1e-300) and abs(
            val
        ) <= 0.01 * tol:
            # envelope has decayed below the cutoff: geometric tail bound
            tail = abs(val)
            return QuadResult(running, quad_err + tail, panels_used, tail)

        if k >= 10 and k % 2 == 0:
            start = contributions.index(max(contributions, key=abs))
            acc, resid = _euler_accelerate(partials[start:])
            tol_acc = 0.25 * max(ctl.abs_tol, ctl.rel_tol * abs(acc))
            if prev_acc is not None and abs(acc - prev_acc) < tol_acc and resid < tol_acc:
                acc_ok_streak += 1
                if acc_ok_streak >= 2:
                    err_est = max(resid * 4.0, abs(acc - prev_acc) * 2.0, quad_err)
                    return QuadResult(acc, err_est, panels_used, abs(val))
            else:
                acc_ok_streak = 0
            prev_acc = acc

        if k >= 16:
            c = contributions
            if abs(c[-1]) > abs(c[-2]) > abs(c[-3]) > abs(c[-4]) and abs(c[-1]) > peak * 0.5:
                raise ConvergenceError(
                    "integrate_bessel_oscillatory: envelope is not decaying"
                )

    if prev_acc is not None:
        acc, resid = _euler_accelerate(partials)
        err_est = max(resid * 4.0, quad_err)
        if err_est <= 10.0 * max(ctl.abs_tol, ctl.rel_tol * abs(acc)):
            return QuadResult(acc, err_est, panels_used, abs(contributions[-1]))
    raise ConvergenceError(
        f"integrate_bessel_oscillatory: no convergence within {ctl.max_panels} panels"
    )


# ---------------------------------------------------------------------------
# The characteristic generator by Hankel-type quadrature
# ---------------------------------------------------------------------------


def _phi_small_u_series(
    gen: DensityGenerator, n: int, u: float, ctl: QuadratureControl
) -> QuadResult:
    # phi(u^2) = sum_k (-u^2/4)^k / ((n/2)_k k!) * E[R^(2k)], valid for any
    # generator possessing the needed moments; raises MomentUndefinedError
    # otherwise so the caller can fall back to the oscillatory route.
    mqsq = -0.25 * u * u
    total = 1.0
    coeff = 1.0
    for k in range(1, 30):
        coeff *= mqsq / ((0.5 * n + k - 1.0) * k)
        term = coeff * radial_moment(gen, n, k, ctl)
        total += term
        if abs(term) <= ctl.rel_tol * abs(total):
            return QuadResult(total, abs(term) + 1e-16, 0, 0.0)
    raise ConvergenceError("small-u moment series did not converge")


def phi_hankel(
    gen: DensityGenerator,
    n: int,
    u: float,
    ctl: QuadratureControl = _DEFAULT_CTL,
) -> QuadResult:
    """Characteristic generator phi(u^2) by the radial Bessel integral.

    phi(u^2) = c_n (2 pi)^(n/2) u^(-(n-2)/2) *
               int_0^inf r^(n/2) J_((n-2)/2)(r u) g(r^2) dr

    u = 0 returns exactly 1.  Below u = 1e-3 the removable u-singularity is
    sidestepped with a moment series (for generators whose moments exist).
    """
    if n < 1:
        raise DomainError("phi_hankel: dimension must be >= 1")
    if u < 0.0:
        raise DomainError("phi_hankel: u must be >= 0")
    if u == 0.0:
        return QuadResult(1.0, 0.0, 0, 0.0)
    if u < 1e-3:
        try:
            return _phi_small_u_series(gen, n, u, ctl)
        except MomentUndefinedError:
            pass  # heavy tails: only the oscillatory route is available

    c_n = normalizing_constant(n, gen, ctl)
    prefactor = c_n * (2.0 * math.pi) ** (0.5 * n) * u ** (-0.5 * (n - 2.0))

    def envelope(r: float) -> float:
        return r ** (0.5 * n) * gen.g(r * r)

    inner = replace(ctl, abs_tol=ctl.abs_tol / max(prefactor, 1.0))
    res = integrate_bessel_oscillatory(
        envelope, 0.5 * (n - 2.0), u, inner, gen.support_radius
    )
    return QuadResult(
        prefactor * res.value,
        abs(prefactor) * res.err_est,
        res.panels_used,
        abs(prefactor) * res.tail_bound,
    )
