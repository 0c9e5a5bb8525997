"""Adaptive panel quadrature and the Bessel-kernel radial integrals.

Every panel uses the nested Gauss-Kronrod 7/15 pair, in one engine that
advances many integrands in lockstep on arrays (adaptive_rows); a scalar
integrand is its one-row case (adaptive_interval).  The oscillatory
integrator works in the Bessel argument x = omega r with the one kernel
Omega_nu(x) = 0F1(; nu + 1; -x^2/4) = Gamma(nu + 1) (2/x)^nu J_nu(x),
splits that axis at x_k = (k + nu/2 - 1/4) pi, McMahon's leading term for
the zeros of J_nu, integrates each panel adaptively, and extrapolates the
partial sums at the panel ends with Sidi's mW transformation on an
infinite support; a finite one is summed to its edge.
No row leaves before the panel that reaches omega r_peak, where _unit's
probe finds the envelope's peak; a row out of its panel budget fails by
name.  It runs a whole set of frequencies in lockstep: every round
integrates the next few Bessel panels of all rows still running in one
adaptive_rows call, and applies the exit rules to all of them as array
masks; a single frequency is the one-row case.  This evaluates the
characteristic generator of any density generator, including
user-supplied ones without closed forms, on a whole grid at once
(phi_hankel_rows), as the expectation of the bounded kernel Omega_nu(u R)
over the radius R: one path for every u > 0, with no moments.  Every integrand
here calls the generator's profile g on float arrays; the moment integral
of a custom generator is one adaptive_rows row, and the named families'
moments are read from their record.  half_line maps every half-line and
singular edge these integrals meet, with the unit and exponent _fit measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DivergentIntegralError, DomainError
from .generators import DensityGenerator
from .specfun import (
    _call_rows,
    _elementwise,
    _j_over_omega,
    _node_by_node,
    _power,
    hyp0f1,
)

__all__ = [
    "QuadResult",
    "QuadRows",
    "adaptive_interval",
    "adaptive_rows",
    "half_line",
    "moment_integral",
    "integrate_bessel_oscillatory",
    "phi_hankel",
    "phi_hankel_rows",
]


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    panels_used: int
    tail_bound: float


class QuadRows:
    """QuadResult's fields for many rows, one array entry per row.

    failures maps a row to the exception its computation raised; that row's
    entries are nan (panels_used 0).  A plain class: a frozen dataclass
    costs a quarter of a millisecond to build at every import.
    """

    __slots__ = ("value", "err_est", "panels_used", "tail_bound", "failures")

    def __init__(self, value: np.ndarray, err_est: np.ndarray, panels_used: np.ndarray,
                 tail_bound: np.ndarray, failures: dict):
        self.value, self.err_est, self.panels_used = value, err_est, panels_used
        self.tail_bound, self.failures = tail_bound, failures

    def row(self, i: int) -> QuadResult:
        """Row i as a QuadResult; a failed row raises its exception."""
        if i in self.failures:
            raise self.failures[i]
        return QuadResult(
            float(self.value[i]), float(self.err_est[i]),
            int(self.panels_used[i]), float(self.tail_bound[i]),
        )


# The accuracy policy of every routine here: error targets, the Bessel-panel
# budget of the oscillatory engine, the Gauss-Kronrod panel budget of each
# Bessel panel and the envelope cutoff (relative to the largest panel so far).
_ABS_TOL = _REL_TOL = 1e-9
_MAX_PANELS = 400
_PANEL_BUDGET = 256
_TAIL_CUTOFF = 1e-16
# The rounding floor of the oscillatory engine's reported err_est, in units
# of the sum of |panel values|: the rounding of J, of the envelope and of the
# panel sums.  It enters no exit test.
_ROUND_FLOOR = 4.0 * np.finfo(float).eps

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
# Node offsets in evaluation order: the centre, then each symmetric pair as
# (mid - dx, mid + dx); the centre's Kronrod and Gauss weights.
_K15_OFFSETS = np.array([0.0] + [s * x for x, _, _ in _K15_PAIRS for s in (-1.0, 1.0)])
_K15_G7_WEIGHTS = np.array([(wk, wg) for _, wk, wg in _K15_PAIRS])
_K15_G7_CENTRE = np.array(
    [0.209482141084727828012999174891714, 0.417959183673469387755102040816327]
)
_NO_PANEL = np.iinfo(np.int64).max  # the sequence number of a padding slot


def _dyadic_seeds(a: float, b: float, min_cell: float) -> tuple[float, ...]:
    # interior breakpoints halving toward the left edge down to min_cell, so
    # an integrand concentrated near `a` cannot hide between the nodes of one
    # huge panel (wider than 8 cells: the caller seeds no narrower one); at
    # most 1100 halvings, past which width 2^-j is 0 in floats
    width = b - a
    levels = math.ceil(min(math.log2(width / min_cell), 1100.0))
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

    The one-row case of adaptive_rows, with f called node by node: bisects
    the worst panel until the summed error estimate meets the tolerance or
    the panel budget runs out.  Never raises for an unmet tolerance, callers
    judge the returned estimate; an exception of f is raised again.
    `seeds` are interior breakpoints of the initial partition.
    """
    vals, errs, panels, failures = adaptive_rows(
        _node_by_node(f), 1, a, b, abs_tol, rel_tol, max_panels, [seeds] if seeds else None
    )
    if failures:
        raise failures[0]
    return vals[0].item(), float(errs[0]), int(panels[0])


def _magnitude(v: np.ndarray) -> np.ndarray:
    # |v| of values stored as [..., (real,)] or [..., (real, imaginary)];
    # hypot(x, 0) is |x|, so a real value gets the bits of its complex form
    return abs(v[..., 0]) if v.shape[-1] == 1 else np.hypot(v[..., 0], v[..., 1])


def _kronrod_rows(fv: np.ndarray, halfw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The K15 value and |K15 - G7| as its error on node values fv[..., 15, C]
    # (C = 1: real, C = 2: real and imaginary parts), summed elementwise in
    # node order: (value [..., C], error [...]).  Axis -2 of the sums holds
    # the K15 and the G7 sum side by side.
    pairs = (fv[..., 1::2, :] + fv[..., 2::2, :])[..., None, :]
    terms = _K15_G7_WEIGHTS[:, :, None] * pairs
    sums = _K15_G7_CENTRE[:, None] * fv[..., :1, :]
    for i in range(len(_K15_PAIRS)):
        sums = sums + terms[..., i, :, :]
    return halfw[..., None] * sums[..., 0, :], halfw * _magnitude(sums[..., 0, :] - sums[..., 1, :])


def adaptive_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    count: int,
    a,
    b,
    abs_tol,
    rel_tol: float,
    max_panels=256,
    seeds: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Adaptive Gauss-Kronrod 7/15 on [a, b] for `count` integrands at once.

    f(rows, x) evaluates integrand rows[i, 0] at the nodes x[i] (rows is an
    integer (k, 1) array, x a (k, m) array) and returns x's shape, real or
    complex.  a, b, abs_tol and max_panels are numbers, or arrays with one
    entry per row; seeds, if given, holds each row's interior breakpoints of
    its initial partition.  The panels of every row's initial partition take
    one call of f; then every round bisects the worst panel (the older one
    on a tie) of each row still above its tolerance (the summed error
    estimate against max(abs_tol, rel_tol |value|)) and under max_panels,
    with one call of f for all of them.  Sums over the nodes run
    elementwise in node order, so each row gets the value, error and panel
    count of its own one-row run, whatever else is in the batch.

    Returns (values, errs, panels, failures).  A row whose integrand raises
    drops out: its exception is failures[row] and its value and error are
    nan.  It never raises for an unmet tolerance; callers judge the
    returned estimates.
    """
    failures: dict = {}
    a, b, abs_tol, max_panels = (
        np.full(count, float(v)) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
        for v in (a, b, abs_tol, max_panels)
    )
    values = np.full((count, 2), np.nan)
    errs = np.full(count, np.nan)
    panels = np.zeros(count, dtype=int)
    empty = b <= a
    if empty.any():
        values[empty], errs[empty] = 0.0, 0.0
        if empty.all():
            return values[:, 0].copy(), errs, panels, failures
    is_complex = None  # set by the first call of f

    def evaluate(ids, lo, hi):
        # panels [lo, hi] of shape (k, P): the values (k', P, C) and errors
        # (k', P) of the rows that did not fail, and their mask
        nonlocal is_complex
        halfw, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        x = mid[..., None] + halfw[..., None] * _K15_OFFSETS
        fv, ok = _call_rows(f, ids, x.reshape(len(ids), -1), failures)
        if is_complex is None:
            is_complex = np.iscomplexobj(fv)
        elif np.iscomplexobj(fv) and not is_complex:
            raise TypeError("adaptive_rows: f turned complex after a real first call")
        if not ok.all():
            x, halfw = x[ok], halfw[ok]
        if is_complex:
            parts = np.ascontiguousarray(fv, dtype=complex).view(float).reshape(x.shape + (2,))
        else:
            parts = np.asarray(fv, dtype=float).reshape(x.shape + (1,))
        val, err = _kronrod_rows(parts, halfw)
        return val, err, ok

    # the initial partition of every row: its panels in order, one per entry
    owner = np.flatnonzero(~empty)
    lo, hi = a[owner], b[owner]
    if seeds is not None:
        edges = [
            [pa, *[x for x in seeds[i] if pa < x < pb], pb]
            for i, pa, pb in zip(owner.tolist(), lo.tolist(), hi.tolist())
        ]
        owner = np.repeat(owner, [len(e) - 1 for e in edges])
        lo = np.array([x for e in edges for x in e[:-1]])
        hi = np.array([x for e in edges for x in e[1:]])
    val, err, ok = evaluate(owner, lo[:, None], hi[:, None])
    if failures:
        keep = ~np.isin(owner[ok], list(failures))
        owner, lo, hi = owner[ok][keep], lo[ok][keep], hi[ok][keep]
        val, err = val[keep], err[keep]
    val, err = val[:, 0], err[:, 0]

    # per row still running: its id, its panels (bounds, value, error and
    # sequence number, one column each, padded after the initial ones),
    # its running totals and its number of initial panels (one unseeded)
    ids, first, initial = np.unique(owner, return_index=True, return_counts=True)
    row = np.repeat(np.arange(len(ids)), initial)
    col = np.arange(len(owner)) - first[row]
    width = int(initial.max(initial=1))
    lo_p, hi_p = np.zeros((len(ids), width)), np.zeros((len(ids), width))
    val_p, err_p = np.zeros((len(ids), width, val.shape[-1])), np.zeros((len(ids), width))
    seq = np.full((len(ids), width), _NO_PANEL)
    lo_p[row, col], hi_p[row, col], seq[row, col] = lo, hi, col
    val_p[row, col], err_p[row, col] = val, err
    lo, hi, val, err = lo_p, hi_p, val_p, err_p
    # summed in panel order; the zero padding
    # adds exactly nothing to a sum that starts from +0.0
    total_val, total_err = 0.0 + val[:, 0], 0.0 + err[:, 0]
    for j in range(1, val.shape[1]):
        total_val, total_err = total_val + val[:, j], total_err + err[:, j]
    err[seq == _NO_PANEL] = -np.inf  # padding is never the worst panel
    used = initial
    tol, cap = abs_tol[ids], max_panels[ids]
    step = 0
    while True:
        done = (used >= cap) | (
            total_err <= np.fmax(tol, rel_tol * _magnitude(total_val))
        )
        if done.any():
            finished = ids[done]
            values[finished, :total_val.shape[1]], errs[finished], panels[finished] = (
                total_val[done], total_err[done], used[done]
            )
            ids, lo, hi, val, err, seq, total_val, total_err, used, initial, tol, cap = (
                z[~done] for z in (
                    ids, lo, hi, val, err, seq, total_val, total_err, used, initial, tol, cap
                )
            )
        if not len(ids):
            break
        # bisect each row's worst panel: largest error, then oldest
        worst = err.max(axis=1)
        j = np.where(err == worst[:, None], seq, _NO_PANEL).argmin(axis=1)
        r = np.arange(len(ids))
        pa, pb = lo[r, j], hi[r, j]
        mid = 0.5 * (pa + pb)
        pa, pb, mid = pa[:, None], pb[:, None], mid[:, None]
        cval, cerr, ok = evaluate(
            ids, np.concatenate((pa, mid), axis=1), np.concatenate((mid, pb), axis=1)
        )
        pval, perr = val[r, j], err[r, j]
        if not ok.all():
            (ids, lo, hi, val, err, seq, total_val, total_err, used, initial, tol, cap,
             j, pb, mid, pval, perr) = (
                z[ok] for z in (
                    ids, lo, hi, val, err, seq, total_val, total_err, used, initial, tol, cap,
                    j, pb, mid, pval, perr,
                )
            )
        total_val = total_val + ((cval[:, 0] + cval[:, 1]) - pval)
        total_err = total_err + ((cerr[:, 0] + cerr[:, 1]) - perr)
        used = used + 1
        step += 1
        # the left half takes the popped slot, the right half a new one; the
        # halves are numbered on from the row's initial panels
        r = np.arange(len(ids))
        hi[r, j], val[r, j], err[r, j] = mid[:, 0], cval[:, 0], cerr[:, 0]
        seq[r, j] = initial + 2 * step - 2
        lo = np.concatenate((lo, mid), axis=1)
        hi = np.concatenate((hi, pb), axis=1)
        val = np.concatenate((val, cval[:, 1:]), axis=1)
        err = np.concatenate((err, cerr[:, 1:]), axis=1)
        seq = np.concatenate((seq, (initial + 2 * step - 1)[:, None]), axis=1)
    if not is_complex:
        return values[:, 0].copy(), errs, panels, failures
    out = np.empty(count, dtype=complex)
    out.real, out.imag = values[:, 0], values[:, 1]
    return out, errs, panels, failures


def half_line(lo, hi, unit: float, p: float = 1.0):
    """(top, to_v, seeds): to_v(s) = (v, num, den) maps [0, top] onto [lo, hi]
    with |dv/ds| = num/den, entry by entry; p (1 to 16) is the exponent of
    the upper edge, and seeds the breakpoints to start panels from.

    Up to an infinite hi, v = lo + unit x/w^p: the map unit x/(1 - x) with
    1 - x carried near the end as the power w^p, never by subtraction;
    num = unit (p - (p - 1) w), den = w^p w, and v = inf where den
    underflows.  p = 1 takes x = s, w = 1 - s and top = 1, or
    (hi - lo)/(unit + hi - lo) for a finite hi; p > 1 takes w = s, with all
    its digits near v = inf, and top = 1, and bounds a tail v^(-1-e) at
    p = 1/e; its seeds s = 10^-k, k = 1..13, hide no feature out to
    v = unit 10^(13 p) between nodes.  Up to a finite hi with p > 1 (lo, hi
    may be arrays): v = hi - den, den = (hi - lo) w^p the carried distance
    to hi, w = 1 - s, so (hi - v)^m is bounded at p = 1/(m + 1).
    """
    p = min(p, 16.0)
    if p != 1.0 and not np.all(np.isinf(hi)):
        def to_edge(s):
            gap = (hi - lo) * _power(1.0 - s, p)
            return hi - gap, (hi - lo) * p * _power(1.0 - s, p - 1.0) * gap, gap

        return 1.0, to_edge, ()

    @np.errstate(divide="ignore", over="ignore")
    def to_v(s):
        x, w = (s, 1.0 - s) if p == 1.0 else (1.0 - s, s)
        wp = _power(w, p)
        den = wp * w
        return np.where(den > 0.0, lo + unit * x / wp, math.inf), unit * (p - (p - 1.0) * w), den

    if p != 1.0:
        return 1.0, to_v, tuple(10.0**-k for k in range(13, 0, -1))
    return 1.0 if math.isinf(hi) else (hi - lo) / (unit + (hi - lo)), to_v, ()


# 2^k for |k| <= 128, exact under any SIMD dispatch: the distances at which
# _unit (and the star-unimodality check) probe a profile.
_OCTAVES = np.ldexp(1.0, np.arange(-128, 129))


@np.errstate(invalid="ignore", over="ignore")
def _unit(h: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    # half_line's unit for an integrand h on [lo, hi], probed in float
    # arithmetic as in Python (a value past the float range is inf): the d of
    # _OCTAVES, lo + d < hi, where d |h(lo + d)|, h's mass per unit of log
    # distance, is largest (one call of h, entry by entry where that raises),
    # 1 where none is nonzero and finite
    d = _OCTAVES[lo + _OCTAVES < hi]
    vals, ok = _call_rows(lambda ids, v: h(v), np.arange(len(d)), (lo + d)[:, None], {})
    mass = np.nan_to_num(d[ok] * abs(vals[:, 0]), nan=0.0, posinf=0.0)
    return float(d[ok][mass.argmax()]) if mass.max(initial=0.0) > 0.0 else 1.0


@np.errstate(invalid="ignore", over="ignore")
def _fit(h: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> tuple[float, float]:
    # half_line's (unit, p) for an integrand h on [lo, hi]: the unit of
    # _unit, and p from h's log-slope e over one doubling of the distance to
    # the end, v - lo = 1e8 -> 2e8 units on a half-line, hi - v = 1e-8 ->
    # 2e-8 of hi - lo below a finite edge: h ~ v^(-1-e) far out, or
    # ~ d^(e-1) at the edge, gives p = 1/e rounded up (so rounding cannot
    # move p = 1); 1 where e <= 0, or there is no slope.
    unit = _unit(h, lo, hi)
    infinite = math.isinf(hi)
    at = lo + unit * np.array([1e8, 2e8]) if infinite else hi - (hi - lo) * np.array([1e-8, 2e-8])
    try:
        a, b = h(at).tolist()
        e = (math.log2(b / a) + 1.0) * (-1.0 if infinite else 1.0)
        return unit, float(max(1, math.ceil(1.0 / e - 1e-3))) if e > 0.0 else 1.0
    except Exception:  # h zero, overflowing, not real or raising: no slope
        return unit, 1.0


# Float arithmetic as in Python: 0 * inf is nan and an overflow inf, with
# none of numpy's RuntimeWarnings.
@np.errstate(invalid="ignore", over="ignore")
def moment_integral(gen: DensityGenerator, n: int) -> QuadResult:
    """int_0^inf z^(n/2-1) g(z) dz by adaptive panels, always numerically.

    Written in the radius variable (z = v^2), 2 int_0^R v^(n-1) g(v^2) dv
    with R the support radius, so the n = 1 endpoint is regular: one
    adaptive_rows row over half_line(0, R, unit, p), g called only inside
    the support, unit and p measured on the integrand (_fit), to a relative
    tolerance: a moment is a positive integral at any scale.  A divergent
    tail drives the panels to v = inf and raises DivergentIntegralError.
    """
    g, d, radius = gen.g, float(n), gen.support_radius

    def h(v: np.ndarray) -> np.ndarray:
        return _power(v, d - 1.0) * g(v * v)

    top, to_v, seeds = half_line(0.0, radius, *_fit(h, 0.0, radius))

    def integrand(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        v, num, den = to_v(s)
        if np.isinf(v).any():
            raise DivergentIntegralError("moment integral: the quadrature reached v = inf")
        out, inside = np.zeros(s.shape), v < radius
        out[inside] = h(v[inside]) * num[inside] / den[inside]
        return out

    vals, errs, panels, failures = adaptive_rows(
        integrand, 1, 0.0, top, 0.0, 0.125 * _REL_TOL, seeds=[seeds]
    )
    if failures:
        raise failures[0]
    return QuadResult(2.0 * vals[0].item(), 2.0 * float(errs[0]), int(panels[0]), 0.0)


def _moment_n(gen: DensityGenerator, n: int) -> float:
    # M_n = int_0^inf z^(n/2-1) g(z) dz, cached on the generator: closed
    # forms for the named families, numeric for custom generators.  Every
    # normalization divides by M_n: R has the density 2 r^(n-1) g(r^2) / M_n.
    # A divergent tail or a non-finite numeric value raises DomainError from
    # DivergentIntegralError, as does a record's M_n where its finite(n)
    # fails; where it holds, an M_n past the float range raises OverflowError.
    key = ("moment", float(n))
    if key not in gen.moment_cache:
        diverges = f"moment integral M_n diverges at n = {n}"
        if gen.moment is None:
            try:
                moment = moment_integral(gen, n).value
                if not math.isfinite(moment):
                    raise DivergentIntegralError(f"moment integral = {moment}")
            except DivergentIntegralError as exc:
                raise DomainError(diverges) from exc
        elif not gen.finite(float(n)):
            raise DomainError(diverges)
        else:
            try:
                moment = gen.moment(float(n))
            except OverflowError:
                moment = math.inf
            if not math.isfinite(moment):
                raise OverflowError(f"moment integral M_n overflows the float range at n = {n}")
        gen.moment_cache[key] = moment
    return gen.moment_cache[key]


# ---------------------------------------------------------------------------
# Oscillatory integration against a Bessel kernel
# ---------------------------------------------------------------------------


def _mw_rows(
    partial: np.ndarray, x: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Sidi's W-algorithm in its mW form (Sidi 1988; Lucas & Stone 1995) on the
    # partial sums F_s = partial[i, start[i] + s] at x_s = x[start[i] + s]:
    # with t_s = 1/x_s and psi_s = F_(s+1) - F_s, M^(s) = F_s/psi_s and
    # N^(s) = 1/psi_s, then M^(s) <- (M^(s) - M^(s+1))/(t_s - t_(s+p+1)) and
    # N likewise at p = 0, 1, ..., and W_p = M^(0)/N^(0) at column start + p + 2.
    # Returns W_p there (nan elsewhere, and where a psi read is 0 or not
    # finite) and |W_p - W_(p-1)| + |W_(p-1) - W_(p-2)|: one small step alone
    # can be a near miss.  A row's entries come from its own columns only.
    rows, count = partial.shape
    r = np.arange(rows)
    span = count - int(start.min(initial=count))
    cols = start[:, None] + np.arange(span)  # past the end: nan
    f = np.column_stack((partial, np.full((rows, span), np.nan)))[r[:, None], cols]
    t = 1.0 / np.concatenate((x, np.full(span, np.nan)))[cols[:, :-1]]
    psi = f[:, 1:] - f[:, :-1]
    m, n = f[:, :-1] / psi, 1.0 / psi
    w = np.full((rows, count), np.nan)
    for p in range(span - 2):
        d = t[:, :span - 2 - p] - t[:, p + 1:]
        m, n = (m[:, :-1] - m[:, 1:]) / d, (n[:, :-1] - n[:, 1:]) / d
        at = start + p + 2
        w[r[at < count], at[at < count]] = (m[:, 0] / n[:, 0])[at < count]
    step = abs(np.diff(w, prepend=np.nan))
    return w, step + np.pad(step[:, :-1], ((0, 0), (1, 0)), constant_values=np.nan)


# Bessel panels per round of the oscillatory engine, from 2 doubling up to
# this.  A round's panels take one adaptive_rows call, so the per-round cost
# of the array passes is shared by several panels; a row that exits within
# a round wastes at most the rest of it.
_ROUND_PANELS = 8


# Float arithmetic as in Python: an inf or nan panel passes through the sums
# silently, with none of numpy's RuntimeWarnings.
@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def _oscillatory_rows(
    envelope: Callable[[np.ndarray], np.ndarray],
    nu: float,
    r_peak: float,
    omegas: np.ndarray,
    abs_tol: float,
    support_radius: float,
    edge_exponent: float = 1.0,
) -> QuadRows:
    # int_0^R envelope(r) Omega_nu(omega_i r) dr for every row i, each to the
    # absolute target abs_tol, in lockstep, with the kernel Omega_nu(x) =
    # 0F1(; nu + 1; -x^2/4) (hyp0f1); envelope maps an array of radii to its
    # values, entry by entry.  Before x = omega r_peak, where the envelope
    # peaks (_unit's scale of it), the panels still grow: none tells how small
    # the rest is.  Every round integrates the next few Bessel panels of every
    # row still running; the exit rules then run on each panel in turn, as
    # array masks, and a row leaves at its first panel where one fires.  A
    # panel that ends at a finite support edge is integrated through
    # half_line with the exponent edge_exponent (p = 1: plain panels in x).
    count = len(omegas)
    value, err_est, tail = np.full(count, np.nan), np.full(count, np.nan), np.full(count, np.nan)
    panels_used = np.zeros(count, dtype=int)
    failures: dict = {}
    panel_rel = min(_REL_TOL, 1e-10)
    infinite = math.isinf(support_radius)
    # the state of every row still running after `done` panels, one entry
    # (or one row of panel history) per row
    zero = np.zeros(count)
    live = {
        "id": np.arange(count), "omega": omegas, "panel_abs": abs_tol / 64.0 * omegas,
        "min_cell": 0.25 * r_peak * omegas, "x_edge": support_radius * omegas,
        "x_peak": r_peak * omegas, "x_prev": zero, "running": zero, "quad_err": zero,
        "abs_sum": zero, "peak": zero,
        "panels": np.zeros(count, dtype=int), "partial": np.zeros((count, 0)),
    }
    # panel k ends at x_k = (k + nu/2 - 1/4) pi, McMahon's leading term for the
    # k-th zero of J_nu (exact at nu = +-1/2): mW needs only ends of spacing pi
    # (Sidi's D-bar transformation), not the zeros themselves
    ends = (np.arange(1, _MAX_PANELS + 1) + 0.5 * nu - 0.25) * math.pi

    no_convergence = f"no convergence within {_MAX_PANELS} panels"
    # a row whose omega r_peak lies past the end of its last panel can leave by
    # no rule, and one whose omega r_peak is below the normal float range
    # has its peak where x has too few digits: both fail at once
    hopeless = (live["x_peak"] > ends[-1]) | (live["x_peak"] < np.finfo(float).tiny)
    for i in np.flatnonzero(hopeless).tolist():
        where = (f"lies past x = {ends[-1]:.6g}, the end of panel {_MAX_PANELS}; {no_convergence}"
                 if live["x_peak"][i] > ends[-1] else "lies below the normal float range of x")
        failures[i] = ConvergenceError(
            f"oscillatory engine: u r_peak = {omegas[i]:.6g} * {r_peak:.6g} = {omegas[i] * r_peak:.6g}"
            f" {where}")
    live = {key: z[~hopeless] for key, z in live.items()}
    done, width = 0, 1
    while len(live["id"]) and done < _MAX_PANELS:
        width = min(2 * width, _ROUND_PANELS, _MAX_PANELS - done)
        rows = len(live["id"])
        # panel j of row i is [lo[i, j], hi[i, j]], cut short at the support edge
        hi = np.minimum(ends[done:done + width], live["x_edge"][:, None])
        lo = np.column_stack((live["x_prev"], hi[:, :-1]))
        # the panels that end at the edge run in half_line's s on [0, 1]
        edged = ((hi >= live["x_edge"][:, None]) & (lo < hi)).ravel() & (edge_exponent != 1.0)
        a, b = np.where(edged, 0.0, lo.ravel()), np.where(edged, 1.0, hi.ravel())
        # a wide panel before the peak is seeded toward its left end, where
        # the envelope may rise in a narrow feature; past the peak it decays.
        # The seeds' panels come on top of the panel budget, which bounds
        # the bisections.
        cell = np.repeat(live["min_cell"], width)
        wide = ((hi - lo).ravel() > 8.0 * cell) & ~edged & (lo < live["x_peak"][:, None]).ravel()
        seeds, budget = None, _PANEL_BUDGET
        if wide.any():
            seeds = [
                _dyadic_seeds(*args) if w else ()
                for w, *args in zip(wide.tolist(), lo.ravel().tolist(), hi.ravel().tolist(), cell.tolist())
            ]
            budget = _PANEL_BUDGET + np.array([len(z) for z in seeds])
        omega = np.repeat(live["omega"], width)

        def integrand(entries, x):
            # Omega_nu only at the nodes where the envelope is not 0, once
            # per distinct node: the rows share panels, and so nodes (a
            # single row's are all distinct).  A panel at the edge takes its
            # nodes from half_line, and its envelope their distance to the
            # edge as the map carries it.
            on = edged[entries[:, 0]]
            if on.any():
                x, e = x.copy(), entries[on, 0]
                to_x = half_line(lo.ravel()[e][:, None], hi.ravel()[e][:, None], 1.0, edge_exponent)[1]
                x[on], num, gap = to_x(x[on])
            out = envelope(x / omega[entries])
            if on.any():
                w = omega[entries[on]]
                out[on] = envelope(x[on] / w, gap / w)
            nonzero = out != 0.0
            nodes, back = x[nonzero], slice(None)
            if rows > 1 and len(x) > 1:
                nodes, back = np.unique(nodes, return_inverse=True)
            out[nonzero] *= hyp0f1(nu + 1.0, -0.25 * nodes * nodes)[back]
            if on.any():
                out[on] *= num / gap
            return out

        val, err, p, raised = adaptive_rows(
            integrand, rows * width, a, b,
            np.repeat(live["panel_abs"], width), panel_rel, budget, seeds,
        )
        val, err = (val / omega).reshape(rows, width), (err / omega).reshape(rows, width)
        failed = np.zeros((rows, width), dtype=bool)
        if raised:
            failed.flat[list(raised)] = True

        # each panel's state, summed panel after panel
        running = np.cumsum(np.column_stack((live["running"], val)), axis=1)[:, 1:]
        partial = np.concatenate((live["partial"], running), axis=1)
        quad_err = np.cumsum(np.column_stack((live["quad_err"], err)), axis=1)[:, 1:]
        used = np.cumsum(np.column_stack((live["panels"], p.reshape(rows, width))), axis=1)[:, 1:]
        peak = np.fmax.accumulate(np.column_stack((live["peak"], abs(val))), axis=1)[:, 1:]
        last = abs(val)
        abs_sum = np.cumsum(np.column_stack((live["abs_sum"], last)), axis=1)[:, 1:]

        # (fmax and the where below take a larger of two values as Python's
        # max does, the first unless the second is larger: a nan panel sum
        # leaves the peak, the tolerances and the error sums as they were)
        # the exit rules, in their order at each panel: the panel is empty
        # (the sum stops before it), its integrand raises, the finite
        # support is exhausted (plain sum, no tail), the envelope has decayed
        # below the cutoff (geometric tail bound), the mW values have settled
        # (infinite support only).  The last two end a row only on a panel
        # that reaches x = omega r_peak.
        stuck = hi <= lo
        edge = hi >= live["x_edge"][:, None]
        past_peak = hi >= live["x_peak"][:, None]
        tol = np.fmax(abs_tol, _REL_TOL * abs(running))
        cutoff = np.fmax(_TAIL_CUTOFF * np.fmax(peak, 1e-300), 1e-300)
        cut = (last <= cutoff) & (last <= 0.01 * tol) & past_peak
        agreed = np.zeros((rows, width), dtype=bool)
        w = change = running  # read by no exit on a finite support
        if infinite:
            # each row's W table starts four panel ends before the panel that
            # reaches its peak, so its first exit test, on W_2, falls there
            x = ends[:done + width]
            start = np.maximum(np.searchsorted(x, live["x_peak"]) - 4, 0)
            w, change = (z[:, done:] for z in _mw_rows(partial, x, start))
            agreed = (change <= tol) & past_peak

        rules = np.stack((stuck, failed, edge, cut, agreed))  # (rule, row, panel)
        fired = rules.any(axis=0)
        leaving = fired.any(axis=1)
        r = np.flatnonzero(leaving)
        j = fired[r].argmax(axis=1)
        rule = rules[:, r, j].argmax(axis=0)
        ids = live["id"][r]
        # the rows that leave with a value: (value, err_est, tail_bound)
        # per rule, err_est raised by the rounding floor
        for code, (v, e, tl) in {2: (running, quad_err, np.zeros_like(last)),
                                 3: (running, quad_err + last, last),
                                 4: (w, change + quad_err, last)}.items():
            on = rule == code
            at = (r[on], j[on])
            value[ids[on]], tail[ids[on]] = v[at], tl[at]
            err_est[ids[on]] = e[at] + _ROUND_FLOOR * abs_sum[at]
            panels_used[ids[on]] = used[at]
        for i, row, panel, code in zip(ids.tolist(), r.tolist(), j.tolist(), rule.tolist()):
            if code == 0:
                # a panel is empty only at a support edge at x = 0, before
                # any panel: nothing is summed, and no panel budget helps
                failures[i] = ConvergenceError(f"oscillatory engine: {no_convergence}")
            elif code == 1:
                failures[i] = raised[row * width + panel]

        live.update(
            x_prev=hi[:, -1], running=running[:, -1], quad_err=quad_err[:, -1],
            abs_sum=abs_sum[:, -1], panels=used[:, -1], peak=peak[:, -1], partial=partial,
        )
        live = {key: z[~leaving] for key, z in live.items()}
        done += width

    for i in live["id"].tolist():  # out of panels
        failures[i] = ConvergenceError(f"oscillatory engine: {no_convergence}")
    return QuadRows(value, err_est, panels_used, tail, failures)


def integrate_bessel_oscillatory(
    f: Callable[[float], float],
    nu: float,
    omega: float,
    support_radius: float = math.inf,
) -> QuadResult:
    """int_0^R f(r) J_nu(omega r) dr with R the (possibly infinite) support.

    Panels are integrated in x = omega r, as int f(x/omega) J_nu(x) dx / omega,
    ending at x_k = (k + nu/2 - 1/4) pi; each panel is integrated adaptively,
    and for infinite support the partial sums at the panel ends are
    extrapolated by Sidi's mW transformation, so algebraically decaying
    envelopes (heavy tails) converge in a few panels.  No panel exit comes
    before omega r_peak, with r_peak the power of two where |f(r)/r| peaks.
    The engine of phi_hankel_rows in its one-row case, with f called point by
    point: J_nu(x) = x^nu / (2^nu Gamma(nu + 1)) Omega_nu(x), and that lead
    goes into the envelope.
    """
    if not omega > 0.0:
        raise DomainError("integrate_bessel_oscillatory: omega must be > 0")
    if not support_radius > 0.0:
        raise DomainError("integrate_bessel_oscillatory: support_radius must be > 0")
    if not nu > -1.0:
        raise DomainError(f"integrate_bessel_oscillatory: order must satisfy nu > -1, got {nu}")

    def values(r: np.ndarray) -> np.ndarray:
        return _elementwise(f, r)

    res = _oscillatory_rows(
        lambda r: values(r) * _j_over_omega(nu, omega * r), nu,
        _unit(lambda r: values(r) / r, 0.0, support_radius),
        np.array([float(omega)]), _ABS_TOL, support_radius,
    )
    return res.row(0)


# ---------------------------------------------------------------------------
# The characteristic generator by Hankel-type quadrature
# ---------------------------------------------------------------------------


def _pow_or_inf(x: float, e: float) -> float:
    try:
        return pow(x, e)
    except OverflowError:
        return math.inf


def _times_power(r: np.ndarray, e: float, v: np.ndarray) -> np.ndarray:
    # v r^e entry by entry with r^e from libm, inf where pow overflows; v
    # itself wherever it is 0, with no power taken, so inf 0 is never formed
    out = np.array(v, dtype=float)
    on = out != 0.0
    try:
        power = _power(r[on], e)
    except OverflowError:
        power = _elementwise(_pow_or_inf, r[on], e)
    out[on] *= power
    return out


# Rows per pass of the oscillatory engine: bounds the memory a pass holds
# (a round's nodes and every row's panel history).
_ROWS = 1 << 9


def _bessel_transform_rows(
    gen: DensityGenerator, n: int, us, nu: float, profile: Callable[[np.ndarray], np.ndarray],
    edge_profile: Optional[Callable[[np.ndarray], np.ndarray]], scale: float,
) -> QuadRows:
    # phi(u^2) = C int_0^R r^(2 nu + 1) profile(r^2) Omega_nu(u r) dr at every
    # u of the array us, with the bounded kernel Omega_nu(x) = 0F1(; nu + 1;
    # -x^2/4) = Gamma(nu + 1) (2/x)^nu J_nu(x) and the constant C = scale/M_n
    # (_moment_n): the front end of phi_hankel_rows (scale 2) and of the star
    # route's grid form (scale -4/n).  u = 0 gives exactly
    # 1; every other u goes through the oscillatory engine, all of them in
    # lockstep, in passes of _ROWS rows, to the absolute target _ABS_TOL on
    # phi.  profile maps an array of z to its values, entry by entry;
    # edge_profile (None: a regular edge) is profile of the distance R^2 - z
    # to a finite support edge, read there at the distance half_line carries
    # (p by _fit).  r_peak is _unit's scale of r^nu profile(r^2).
    radius = gen.support_radius

    def envelope(r: np.ndarray, gap: Optional[np.ndarray] = None) -> np.ndarray:
        # at the support edge R, edge_profile at R^2 - r^2 = gap (2 R - gap);
        # an envelope past the float range fails its row
        prof = profile(r * r) if gap is None else edge_profile(gap * (2.0 * radius - gap))
        out = _times_power(r, 2.0 * nu + 1.0, prof)
        if np.isinf(out).any():
            raise ConvergenceError(
                f"oscillatory engine: the envelope r^{2.0 * nu + 1.0:g} p(r^2) overflows"
                f" at r = {r[np.isinf(out)][0]:.6g}")
        return out

    if n < 1:
        raise DomainError("phi_hankel: dimension must be >= 1")
    us = np.asarray(us, dtype=float).reshape(-1)
    if (us < 0.0).any():
        raise DomainError("phi_hankel: u must be >= 0")
    origin = us == 0.0
    value, err_est, tail = (np.where(origin, v, np.nan) for v in (1.0, 0.0, 0.0))
    panels_used = np.zeros(len(us), dtype=int)
    rows = np.flatnonzero(~origin)
    if not len(rows):
        return QuadRows(value, err_est, panels_used, tail, {})
    try:
        c = scale / _moment_n(gen, n)
    except Exception as exc:  # raised again at every row but the origin's
        return QuadRows(value, err_est, panels_used, tail, {int(i): exc for i in rows})

    r_peak = _unit(lambda r: _times_power(r, nu, profile(r * r)), 0.0, radius)
    edge = 1.0 if edge_profile is None else _fit(lambda r: envelope(r, radius - r), 0.0, radius)[1]
    tol = _ABS_TOL / max(abs(c), 1.0)  # the engine's absolute target
    failures: dict = {}
    for start in range(0, len(rows), _ROWS):
        idx = rows[start:start + _ROWS]
        res = _oscillatory_rows(envelope, nu, r_peak, us[idx], tol, radius, edge)
        value[idx], err_est[idx] = c * res.value, abs(c) * res.err_est
        panels_used[idx], tail[idx] = res.panels_used, abs(c) * res.tail_bound
        failures.update({int(idx[i]): exc for i, exc in res.failures.items()})
    return QuadRows(value, err_est, panels_used, tail, dict(sorted(failures.items())))


def phi_hankel_rows(gen: DensityGenerator, n: int, us) -> QuadRows:
    """Characteristic generator phi(u^2) at every u of the array us.

    phi(u^2) = E[Omega_nu(u R)]
             = (2/M_n) int_0^inf r^(n-1) g(r^2) Omega_nu(u r) dr,   nu = (n-2)/2,

    with M_n = int_0^inf z^(n/2-1) g(z) dz: the expectation of the bounded
    kernel Omega_nu(x) = 0F1(; n/2; -x^2/4) = Gamma(nu + 1) (2/x)^nu J_nu(x)
    over the radius R, so every u > 0 takes one path.  u = 0 gives exactly 1; every other u goes through the
    oscillatory engine, all of them in lockstep, panel by panel, with the
    generator's profile g and, at a singular support edge, its g_edge.  Each
    row gets the bits it would get alone; a row whose computation raises has
    its exception in the result's failures.
    """
    return _bessel_transform_rows(gen, n, us, 0.5 * (n - 2.0), gen.g, gen.g_edge, 2.0)


def phi_hankel(gen: DensityGenerator, n: int, u: float) -> QuadResult:
    """Characteristic generator phi(u^2) by the radial Bessel integral: the
    one-row case of phi_hankel_rows."""
    return phi_hankel_rows(gen, n, [u]).row(0)
