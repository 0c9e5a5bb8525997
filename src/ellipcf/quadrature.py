"""Adaptive panel quadrature and the Bessel-kernel radial integrals.

Every panel uses the nested Gauss-Kronrod 7/15 pair, in one engine that
advances many integrands in lockstep on arrays (adaptive_rows); a scalar
integrand is its one-row case (adaptive_interval).  The oscillatory
integrator works in the Bessel argument x = omega r, splits that axis at
consecutive Bessel zeros, integrates each inter-zero panel adaptively,
and accelerates the alternating panel sums with an iterated Euler
transform on an infinite support; a finite one is summed to its edge.
No row leaves before the panel that reaches omega r_peak, where the
envelope peaks, and a row out of its panel budget fails by name.
It runs a whole set of frequencies in lockstep: every round integrates the
next few Bessel panels of all rows still running in one adaptive_rows call,
and applies the exit rules to all of them as array masks; a single
frequency is the one-row case.  This evaluates the characteristic
generator of any density generator, including user-supplied ones without
closed forms, on a whole grid at once (phi_hankel_rows).  Every integrand
here calls the generator's profile g on float arrays; the moment integral
of a custom generator runs its windows as one-row adaptive_rows calls, and
the named families' moments are read from their record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DivergentIntegralError,
    DomainError,
    MomentUndefinedError,
)
from .generators import DensityGenerator
from .specfun import (
    _call_rows,
    _elementwise,
    _node_by_node,
    _power,
    bessel_j_rows,
    bessel_j_zero,
    gamma_fn,
)

__all__ = [
    "QuadResult",
    "QuadRows",
    "adaptive_interval",
    "adaptive_rows",
    "half_line",
    "moment_integral",
    "radial_moment",
    "normalizing_constant",
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
    # huge panel (wider than 8 cells: the caller seeds no narrower one);
    # halvings that would not fit in the panel budget raise
    width = b - a
    if not width <= min_cell * 2.0 ** (_PANEL_BUDGET - 1):
        raise ConvergenceError(
            f"integrate_bessel_oscillatory: a panel of width {width:.6g} needs more than "
            f"{_PANEL_BUDGET} subpanels to resolve cells of {min_cell:.6g}"
        )
    levels = int(math.ceil(math.log2(width / min_cell)))
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
    max_panels: int = 256,
    seeds: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Adaptive Gauss-Kronrod 7/15 on [a, b] for `count` integrands at once.

    f(rows, x) evaluates integrand rows[i, 0] at the nodes x[i] (rows is an
    integer (k, 1) array, x a (k, m) array) and returns x's shape, real or
    complex.  a, b and abs_tol are floats, or arrays with one entry per
    row; seeds, if given, holds each row's interior breakpoints of its
    initial partition.  The panels of every row's initial partition take
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
    a, b, abs_tol = (
        np.full(count, float(v)) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
        for v in (a, b, abs_tol)
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
    tol = abs_tol[ids]
    step = 0
    while True:
        done = (used >= max_panels) | (
            total_err <= np.fmax(tol, rel_tol * _magnitude(total_val))
        )
        if done.any():
            finished = ids[done]
            values[finished, :total_val.shape[1]], errs[finished], panels[finished] = (
                total_val[done], total_err[done], used[done]
            )
            ids, lo, hi, val, err, seq, total_val, total_err, used, initial, tol = (
                z[~done] for z in (
                    ids, lo, hi, val, err, seq, total_val, total_err, used, initial, tol
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
            (ids, lo, hi, val, err, seq, total_val, total_err, used, initial, tol,
             j, pb, mid, pval, perr) = (
                z[ok] for z in (
                    ids, lo, hi, val, err, seq, total_val, total_err, used, initial, tol,
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


def half_line(lo: float, hi: float, unit: float) -> tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """(top, to_v): v = to_v(x) = lo + unit x/(1 - x) maps [0, top] onto [lo, hi],
    top = (hi - lo)/(unit + hi - lo), or 1 for an infinite hi; dv = unit dx/(1 - x)^2.
    x = 1 (v = inf) is the caller's to exclude."""
    top = 1.0 if math.isinf(hi) else (hi - lo) / (unit + (hi - lo))
    return top, lambda x: lo + unit * x / (1.0 - x)


# Float arithmetic as in Python: 0 * inf is nan and an overflow inf, with
# none of numpy's RuntimeWarnings.
@np.errstate(invalid="ignore", over="ignore")
def moment_integral(gen: DensityGenerator, n: int) -> QuadResult:
    """int_0^inf z^(n/2-1) g(z) dz by adaptive panels, always numerically.

    Written in the radius variable (z = w^2) so the n = 1 endpoint is
    regular; the first unit window additionally substitutes w = y^3 to
    absorb any remaining algebraic singularity at the origin.  Infinite
    support is handled with doubling windows and a geometric tail estimate;
    a non-shrinking tail raises DivergentIntegralError.
    """
    # 2 * int_0^R w^(d-1) g(w^2) dw with R = support radius (maybe inf)
    g, d = gen.g, float(n)
    radius = gen.support_radius

    def first_window(y: np.ndarray) -> np.ndarray:
        # w = y^3 on [0, 1]: integrand 3 y^2 * y^(3(d-1)) g(y^6), zero past
        # the support edge, where g is not called
        inside = _power(y, 3.0) < radius
        out = np.zeros(y.shape)
        out[inside] = 3.0 * _power(y[inside], 3.0 * d - 1.0) * g(_power(y[inside], 6.0))
        return out

    def w_integrand(w: np.ndarray) -> np.ndarray:
        return _power(w, d - 1.0) * g(w * w)

    def window(f, a: float, b: float) -> tuple[float, float, int]:
        # one adaptive_rows row: (value, err_est, panels_used)
        vals, errs, panels, failures = adaptive_rows(
            lambda rows, x: f(x), 1, a, b, 0.125 * _ABS_TOL, 0.125 * _REL_TOL
        )
        if failures:
            raise failures[0]
        return vals[0].item(), float(errs[0]), int(panels[0])

    if radius <= 1.0:
        val, err, panels = window(first_window, 0.0, radius ** (1.0 / 3.0))
        return QuadResult(2.0 * val, 2.0 * err, panels, 0.0)

    total, err_total, panels = window(first_window, 0.0, 1.0)
    if math.isfinite(radius):
        val, err, p = window(w_integrand, 1.0, radius)
        return QuadResult(2.0 * (total + val), 2.0 * (err_total + err), panels + p, 0.0)

    lo = 1.0
    prev_window = None
    flat_streak = 0
    for _ in range(100):
        hi = 2.0 * lo
        wval, werr, p = window(w_integrand, lo, hi)
        total += wval
        err_total += werr
        panels += p
        thresh = 0.5 * max(_ABS_TOL, _REL_TOL * abs(total))
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


def radial_moment(gen: DensityGenerator, n: int, k: int) -> float:
    """E[R^(2k)] under the radial density of the generator in dimension n.

    Equals the ratio of moment integrals at dimension parameters n + 2k and
    n: gamma ratios for the named families, quadrature for custom ones.
    Raises MomentUndefinedError when the moment does not exist, which
    disables the small-argument series route for that generator.
    """
    if k < 0:
        raise DomainError("radial_moment: k must be >= 0")
    if k == 0:
        return 1.0
    if gen.moment is not None and not gen.finite(n + 2.0 * k):
        raise MomentUndefinedError(
            f"E[R^{2 * k}] does not exist for family {gen.family.value} in dimension {n}"
        )
    try:
        num = _moment_n(gen, n + 2 * k)
    except DomainError as exc:
        raise MomentUndefinedError(
            f"E[R^{2 * k}] appears divergent for this generator (dimension {n})"
        ) from exc
    return num / _moment_n(gen, n)


def _moment_n(gen: DensityGenerator, n: int) -> float:
    # int_0^inf z^(n/2-1) g(z) dz, cached on the generator: closed forms for
    # the named families, numeric for custom generators.  A divergent tail or
    # a non-finite numeric value raises DomainError from DivergentIntegralError.
    key = ("moment", float(n))
    if key not in gen.moment_cache:
        if gen.moment is None:
            try:
                moment = moment_integral(gen, n).value
                if not math.isfinite(moment):
                    raise DivergentIntegralError(f"moment integral = {moment}")
            except DivergentIntegralError as exc:
                raise DomainError("normalizing_constant: moment integral diverges") from exc
        else:
            moment = gen.moment(float(n)) if gen.finite(float(n)) else math.inf
        if not math.isfinite(moment):
            raise DomainError("normalizing_constant: moment integral diverges")
        gen.moment_cache[key] = moment
    return gen.moment_cache[key]


def normalizing_constant(n: int, gen: DensityGenerator) -> float:
    """c_n = Gamma(n/2) pi^(-n/2) / int_0^inf z^(n/2-1) g(z) dz.

    The moment integral is cached on the generator; a divergent one raises
    DomainError.
    """
    return gamma_fn(0.5 * n) / (math.pi ** (0.5 * n) * _moment_n(gen, n))


# ---------------------------------------------------------------------------
# Oscillatory integration against a Bessel kernel
# ---------------------------------------------------------------------------


def _euler_rows(partials: np.ndarray, starts: np.ndarray, ends) -> tuple[np.ndarray, np.ndarray]:
    # Iterated averaging of each row's partial sums, for several spans at
    # once: span m of row i is partials[i, starts[i, m]:ends[m]].  Returns
    # the deepest diagonal values and the sizes of their last refinement,
    # each (rows, spans).  After d averagings an entry depends on d + 1
    # consecutive columns only, so one pass over the widest span serves
    # every row and span, each read off at its own depth and end.
    ends = np.asarray(ends)
    length = ends - starts
    first = int(starts.min(initial=ends.max() - 1))
    table = partials[:, first:ends.max()]
    at = ends - 1 - first  # the column of each span's last entry
    diagonal = [table[:, at]]
    for depth in range(1, int(length.max(initial=1))):
        table = 0.5 * (table[:, :-1] + table[:, 1:])
        diagonal.append(table[:, np.maximum(at - depth, 0)])
    diagonal = np.stack(diagonal)
    r, m = np.indices(length.shape)
    last, prev = diagonal[length - 1, r, m], diagonal[np.maximum(length - 2, 0), r, m]
    return last, abs(last - prev)


# Bessel panels per round of the oscillatory engine, from 2 doubling up to
# this.  A round's panels take one adaptive_rows call, so the per-round cost
# of the array passes is shared by several panels; a row that exits within
# a round wastes at most the rest of it.
_ROUND_PANELS = 8


# Float arithmetic as in Python: an inf or nan panel passes through the sums
# silently, with none of numpy's RuntimeWarnings.
@np.errstate(invalid="ignore", over="ignore")
def _oscillatory_rows(
    envelope: Callable[[np.ndarray], np.ndarray],
    nu: float,
    omegas: np.ndarray,
    abs_tols: np.ndarray,
    support_radius: float,
) -> QuadRows:
    # int_0^R envelope(r) J_nu(omega_i r) dr for every row i, each to its own
    # abs_tols[i]: integrate_bessel_oscillatory for all rows in lockstep.
    # envelope maps an array of radii to its values, entry by entry.  Every
    # round integrates the next few Bessel panels of every row still running;
    # the exit rules then run on each panel in turn, as array masks, and a
    # row leaves at its first panel where one fires.
    count = len(omegas)
    value, err_est, tail = np.full(count, np.nan), np.full(count, np.nan), np.full(count, np.nan)
    panels_used = np.zeros(count, dtype=int)
    failures: dict = {}
    panel_rel = min(_REL_TOL, 1e-10)
    # r_peak maximises |envelope| on a fixed log grid of radii, skipping the
    # radii where it raises: before x = omega r_peak the panels still grow,
    # so no panel tells how small the rest is
    grid = np.geomspace(1e-8, min(support_radius, 1e8), 400)
    mag, ok = _call_rows(lambda ids, r: envelope(r), np.arange(400), grid[:, None], {})
    r_peak = grid[ok][np.nan_to_num(abs(mag[:, 0]), nan=0.0).argmax()] if ok.any() else 0.0
    infinite = math.isinf(support_radius)
    # the state of every row still running after `done` panels, one entry
    # (or one row of panel history) per row
    zero = np.zeros(count)
    live = {
        "id": np.arange(count), "omega": omegas, "tol": abs_tols,
        "panel_abs": abs_tols / 64.0 * omegas, "min_cell": 0.25 * omegas,
        "x_edge": support_radius * omegas, "x_peak": r_peak * omegas, "x_prev": zero,
        "running": zero, "quad_err": zero, "abs_sum": zero, "peak": zero, "prev_acc": zero,
        "panels": np.zeros(count, dtype=int), "streak": np.zeros(count, dtype=int),
        "contrib": np.zeros((count, 0)), "partial": np.zeros((count, 0)),
    }

    no_convergence = f"integrate_bessel_oscillatory: no convergence within {_MAX_PANELS} panels"
    done, width = 0, 1
    while len(live["id"]) and done < _MAX_PANELS:
        width = min(2 * width, _ROUND_PANELS, _MAX_PANELS - done)
        ks = np.arange(done + 1, done + width + 1)
        rows = len(live["id"])
        # panel j of row i is [lo[i, j], hi[i, j]], cut short at the support edge
        zeros, top = [], live["x_edge"].max()
        for k in ks.tolist():  # no zeros past every row's support edge
            zeros.append(bessel_j_zero(nu, k) if not zeros or zeros[-1] < top else zeros[-1])
        hi = np.minimum(np.array(zeros), live["x_edge"][:, None])
        lo = np.column_stack((live["x_prev"], hi[:, :-1]))
        cell = np.repeat(live["min_cell"], width)
        wide = (hi - lo).ravel() > 8.0 * cell
        seeds, unresolved = None, {}
        if wide.any():
            seeds = []
            for e, (w, *args) in enumerate(
                zip(wide.tolist(), lo.ravel().tolist(), hi.ravel().tolist(), cell.tolist())
            ):
                try:
                    seeds.append(_dyadic_seeds(*args) if w else ())
                except ConvergenceError as exc:  # fails its row at this panel
                    seeds.append(())
                    unresolved[e] = exc
        omega = np.repeat(live["omega"], width)

        def integrand(entries, x):
            # the rows share panels, and so nodes: J_nu once per distinct row
            # of x (a single row's panels are all distinct)
            if rows == 1 or len(x) == 1:
                return envelope(x / omega[entries]) * bessel_j_rows(nu, x)
            keys = np.ascontiguousarray(x).view(np.dtype((np.void, x.itemsize * x.shape[1])))
            _, first, back = np.unique(keys.ravel(), return_index=True, return_inverse=True)
            return envelope(x / omega[entries]) * bessel_j_rows(nu, x[first])[back.ravel()]

        val, err, p, raised = adaptive_rows(
            integrand, rows * width, lo.ravel(), hi.ravel(),
            np.repeat(live["panel_abs"], width), panel_rel, _PANEL_BUDGET, seeds,
        )
        raised.update(unresolved)
        val, err = (val / omega).reshape(rows, width), (err / omega).reshape(rows, width)
        failed = np.zeros((rows, width), dtype=bool)
        if raised:
            failed.flat[list(raised)] = True

        # each panel's state, summed panel after panel
        contrib = np.concatenate((live["contrib"], val), axis=1)
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
        # below the cutoff (geometric tail bound), the Euler-accelerated sums
        # agree (every even k >= 10, infinite support only).  The last two
        # end a row only on a panel that reaches x = omega r_peak.
        stuck = hi <= lo
        edge = hi >= live["x_edge"][:, None]
        past_peak = hi >= live["x_peak"][:, None]
        tol = np.fmax(live["tol"][:, None], _REL_TOL * abs(running))
        cutoff = np.fmax(_TAIL_CUTOFF * np.fmax(peak, 1e-300), 1e-300)
        cut = (last <= cutoff) & (last <= 0.01 * tol) & past_peak
        agreed = np.zeros((rows, width), dtype=bool)
        acc_at, acc_err = np.zeros((rows, width)), np.zeros((rows, width))
        prev_acc, streak = live["prev_acc"], live["streak"]
        euler = [j for j, k in enumerate(ks.tolist()) if k >= 10 and k % 2 == 0 and infinite]
        if euler:
            ends = ks[euler]  # each from the first largest panel so far
            starts = np.column_stack([abs(contrib[:, :k]).argmax(axis=1) for k in ends.tolist()])
            accs, resids = _euler_rows(partial, starts, ends)
        for m, (j, k) in enumerate(zip(euler, ks[euler].tolist())):
            acc, resid = accs[:, m], resids[:, m]
            tol_acc = 0.25 * np.fmax(live["tol"], _REL_TOL * abs(acc))
            change = abs(acc - prev_acc)
            # at k = 10 there is no earlier estimate to agree with
            agree = (change < tol_acc) & (resid < tol_acc) & (k > 10)
            streak = np.where(agree, streak + 1, 0)
            prev_acc = acc
            agreed[:, j] = (streak >= 2) & past_peak[:, j]
            acc_at[:, j] = acc
            acc_err[:, j] = np.fmax(np.fmax(resid * 4.0, change * 2.0), quad_err[:, j])

        rules = np.stack((stuck, failed, edge, cut, agreed))  # (rule, row, panel)
        fired = rules.any(axis=0)
        leaving = fired.any(axis=1)
        some_leave = leaving.any()
        if some_leave:
            r = np.flatnonzero(leaving)
            j = fired[r].argmax(axis=1)
            rule = rules[:, r, j].argmax(axis=0)
            ids = live["id"][r]
            # the rows that leave with a value: (value, err_est, tail_bound)
            # per rule, err_est raised by the rounding floor
            for code, (v, e, tl) in {2: (running, quad_err, np.zeros_like(last)),
                                     3: (running, quad_err + last, last),
                                     4: (acc_at, acc_err, last)}.items():
                on = rule == code
                at = (r[on], j[on])
                value[ids[on]], tail[ids[on]] = v[at], tl[at]
                err_est[ids[on]] = e[at] + _ROUND_FLOOR * abs_sum[at]
                panels_used[ids[on]] = used[at]
            for i, row, panel, code in zip(ids.tolist(), r.tolist(), j.tolist(), rule.tolist()):
                if code == 0:
                    # a panel is empty only at a support edge at x = 0, before
                    # any panel: nothing is summed, and no panel budget helps
                    failures[i] = ConvergenceError(no_convergence)
                elif code == 1:
                    failures[i] = raised[row * width + panel]

        live.update(
            x_prev=hi[:, -1], running=running[:, -1], quad_err=quad_err[:, -1],
            abs_sum=abs_sum[:, -1],
            panels=used[:, -1], peak=peak[:, -1], prev_acc=prev_acc, streak=streak,
            contrib=contrib, partial=partial,
        )
        if some_leave:
            for key in live:
                live[key] = live[key][~leaving]
        done += width

    for i in live["id"].tolist():  # out of panels
        failures[i] = ConvergenceError(no_convergence)
    return QuadRows(value, err_est, panels_used, tail, failures)


def integrate_bessel_oscillatory(
    f: Callable[[float], float],
    nu: float,
    omega: float,
    support_radius: float = math.inf,
) -> QuadResult:
    """int_0^R f(r) J_nu(omega r) dr with R the (possibly infinite) support.

    Panels are integrated in x = omega r, as int f(x/omega) J_nu(x) dx / omega,
    between consecutive Bessel zeros; each panel is integrated adaptively,
    and for infinite support the alternating panel sums are Euler-accelerated
    so algebraically decaying envelopes (heavy tails) still converge in a
    bounded panel budget.  The one-row case of the lockstep engine behind
    phi_hankel_rows, with f called point by point.
    """
    if not omega > 0.0:
        raise DomainError("integrate_bessel_oscillatory: omega must be > 0")
    if not support_radius > 0.0:
        raise DomainError("integrate_bessel_oscillatory: support_radius must be > 0")
    res = _oscillatory_rows(
        lambda r: _elementwise(f, r), nu, np.array([float(omega)]),
        np.array([_ABS_TOL]), support_radius,
    )
    return res.row(0)


# ---------------------------------------------------------------------------
# The characteristic generator by Hankel-type quadrature
# ---------------------------------------------------------------------------


def _phi_small_u_series(gen: DensityGenerator, n: int, u: float) -> QuadResult:
    # phi(u^2) = sum_k (-u^2/4)^k / ((n/2)_k k!) * E[R^(2k)], valid for any
    # generator possessing the needed moments; raises MomentUndefinedError
    # otherwise so the caller can fall back to the oscillatory route.
    mqsq = -0.25 * u * u
    total = 1.0
    coeff = 1.0
    for k in range(1, 30):
        coeff *= mqsq / ((0.5 * n + k - 1.0) * k)
        term = coeff * radial_moment(gen, n, k)
        total += term
        if abs(term) <= _REL_TOL * abs(total):
            return QuadResult(total, abs(term) + 1e-16, 0, 0.0)
    raise ConvergenceError("small-u moment series did not converge")


def _oscillatory_tol(prefactor: float) -> float:
    # the engine's absolute target for an integral that prefactor multiplies
    tol = _ABS_TOL / max(prefactor, 1.0)
    if not tol > 0.0:
        raise DomainError(f"phi_hankel: no positive tolerance under the prefactor {prefactor}")
    return tol


# Rows per pass of the oscillatory engine: bounds the memory a pass holds
# (a round's nodes and every row's panel history).
_ROWS = 1 << 9


def _bessel_transform_rows(
    gen: DensityGenerator, n: int, us, nu: float,
    envelope: Callable[[np.ndarray], np.ndarray], scale: float,
) -> QuadRows:
    # phi(u^2) = scale c_n (2 pi)^(n/2) u^(-nu) int_0^R envelope(r) J_nu(u r) dr
    # at every u of the array us: the front end of phi_hankel_rows and of the
    # star route's grid form.  u = 0 gives exactly 1 and 0 < u < 1e-3 the
    # moment series; every other u goes through the oscillatory engine, all
    # of them in lockstep, in passes of _ROWS rows.  envelope maps an array
    # of radii to its values, entry by entry.
    if n < 1:
        raise DomainError("phi_hankel: dimension must be >= 1")
    us = np.asarray(us, dtype=float).reshape(-1)
    if (us < 0.0).any():
        raise DomainError("phi_hankel: u must be >= 0")
    count = len(us)
    value, err_est, tail = np.full(count, np.nan), np.full(count, np.nan), np.full(count, np.nan)
    panels_used = np.zeros(count, dtype=int)
    failures: dict = {}

    def put(i, res: QuadResult):
        value[i], err_est[i], panels_used[i], tail[i] = (
            res.value, res.err_est, res.panels_used, res.tail_bound
        )

    rows, prefactors, tols = [], [], []
    head = None
    for i, u in enumerate(us.tolist()):
        try:
            if u == 0.0:
                put(i, QuadResult(1.0, 0.0, 0, 0.0))
                continue
            if u < 1e-3:
                try:
                    put(i, _phi_small_u_series(gen, n, u))
                    continue
                except MomentUndefinedError:
                    pass  # heavy tails: only the oscillatory route is available
            if head is None:
                head = scale * (normalizing_constant(n, gen) * (2.0 * math.pi) ** (0.5 * n))
            prefactor = head * u ** (-nu)
            tols.append(_oscillatory_tol(prefactor))
            prefactors.append(prefactor)
            rows.append(i)
        except Exception as exc:  # raised again at its row
            failures[i] = exc

    for start in range(0, len(rows), _ROWS):
        sl = slice(start, start + _ROWS)
        idx, pref = np.array(rows[sl]), np.array(prefactors[sl])
        res = _oscillatory_rows(envelope, nu, us[idx], np.array(tols[sl]), gen.support_radius)
        value[idx], err_est[idx] = pref * res.value, abs(pref) * res.err_est
        panels_used[idx], tail[idx] = res.panels_used, abs(pref) * res.tail_bound
        failures.update({int(idx[i]): exc for i, exc in res.failures.items()})
    for i in failures:
        value[i] = err_est[i] = tail[i] = np.nan
        panels_used[i] = 0
    return QuadRows(value, err_est, panels_used, tail, dict(sorted(failures.items())))


def phi_hankel_rows(gen: DensityGenerator, n: int, us) -> QuadRows:
    """Characteristic generator phi(u^2) at every u of the array us.

    phi(u^2) = c_n (2 pi)^(n/2) u^(-(n-2)/2) *
               int_0^inf r^(n/2) J_((n-2)/2)(r u) g(r^2) dr

    u = 0 gives exactly 1.  Below u = 1e-3 the removable u-singularity is
    sidestepped with a moment series (for generators whose moments exist).
    Every other u goes through the oscillatory engine, all of them in
    lockstep, panel by panel, with the generator's profile g.  Each row
    gets the bits it would get alone; a row whose computation raises has
    its exception in the result's failures.
    """

    def envelope(r: np.ndarray) -> np.ndarray:
        return _power(r, 0.5 * n) * gen.g(r * r)

    return _bessel_transform_rows(gen, n, us, 0.5 * (n - 2.0), envelope, 1.0)


def phi_hankel(gen: DensityGenerator, n: int, u: float) -> QuadResult:
    """Characteristic generator phi(u^2) by the radial Bessel integral: the
    one-row case of phi_hankel_rows."""
    return phi_hankel_rows(gen, n, [u]).row(0)
