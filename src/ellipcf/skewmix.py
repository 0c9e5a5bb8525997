"""Skew and mixture constructions on top of the elliptical core.

Location-scale mixtures, the star-unimodal (scale-mixture-of-uniforms)
route, generalized skew-elliptical (GSE) characteristic functions with
their affine closure, the skew-normal CF and its scale mixtures.

Skewness enters a CF only through an odd complex factor k with
k(t) + k(-t) = 1; all evaluators here assemble that factor in log scale
where a growing exponential must cancel against a Gaussian envelope.

The grid forms (``*_rows``) compute blocks of grid points as arrays: the
skew-normal factor through the array Dawson function, and mixing
expectations for every point of a block at once
(:meth:`MixingLaw.expectation_rows`, lockstep quadrature for continuous
laws).  They return an :class:`~ellipcf.elliptical.CFRows`, which ends
at the first failing row and holds its exception; the per-point
functions are its row 0.  Complex products are formed from their real
parts in the order Python's complex arithmetic uses, so a point's value
does not depend on the block it is computed in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from .elliptical import (
    _ORIGIN,
    CFMethod,
    CFRows,
    ComplexCF,
    Dispersion,
    EllipticalSpec,
    _as_rows,
    _as_vector,
    _row_dots,
    char_generator,
)
from .errors import ConvergenceError, DomainError, MomentUndefinedError
from .generators import DensityGenerator
from .quadrature import (
    QuadratureControl,
    _call_rows,
    _phi_small_u_series,
    adaptive_rows,
    integrate_bessel_oscillatory,
    normalizing_constant,
)
from .specfun import _complex, gamma_fn, norm_cdf_imag, norm_cdf_imag_scaled

__all__ = [
    "MixingKind",
    "MixingLaw",
    "LSMixtureSpec",
    "GSESpec",
    "Parametrization",
    "SkewNormalSpec",
    "SkewNormalK",
    "LinearMappedK",
    "cf_location_scale_mixture",
    "cf_location_scale_mixture_rows",
    "smu_weight_density",
    "cf_star_unimodal",
    "cf_gse",
    "cf_gse_rows",
    "gse_affine",
    "skew_normal_gse",
    "cf_skew_normal",
    "cf_skew_normal_rows",
    "cf_smsn",
    "cf_smsn_rows",
    "smsn_split",
    "mixing_weight",
    "mixing_weights",
]

_MIX_ABS_TOL = 1e-8

# Rows per array pass of the grid forms; bounds their per-row temporaries.
_CHUNK = 1 << 10


def _times_ratio(g, p, den):
    # (g * p) / den rounded per component, as Python's complex arithmetic
    # does it (numpy's complex division multiplies by a reciprocal instead)
    g = np.asarray(g)
    if np.iscomplexobj(g):
        return _complex(g.real * p / den, g.imag * p / den)
    return g * p / den


def _rotate(z: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # e^(i phase) z as (re, im), with the products and sums of Python's
    # complex multiply
    c, s = np.cos(phase), np.sin(phase)
    return c * z.real - s * z.imag, c * z.imag + s * z.real


def _chunk_rows(ts: np.ndarray, evaluate) -> CFRows:
    """The CF at the rows of ts, in array passes of _CHUNK rows.

    evaluate(sl) returns the rows ts[sl] as (re, im, abs_err, method,
    failures), abs_err (nan: no estimate) and method as arrays or one value
    for all rows, and failures mapping an index within sl to its exception.
    The passes stop at the first failing row; an exception out of evaluate
    itself fails its pass at the first row.  t = 0 gives the exact 1.
    """
    count = len(ts)
    re, im, abs_err = np.empty((3, count))
    method = np.empty(count, dtype="<U6")
    at_origin = ~ts.any(axis=1)
    end, error = count, None
    for start in range(0, count, _CHUNK):
        sl = slice(start, start + _CHUNK)
        try:
            re[sl], im[sl], abs_err[sl], method[sl], failures = evaluate(sl)
        except Exception as exc:  # recorded at the pass's first row
            end, error = start, exc
            break
        failed = sorted(i for i in failures if not at_origin[start + i])
        if failed:
            end, error = start + failed[0], failures[failed[0]]
            break
    re[at_origin], im[at_origin], abs_err[at_origin] = 1.0, 0.0, 0.0
    method[at_origin] = CFMethod.CLOSED_FORM.value
    return CFRows(re[:end], im[:end], abs_err[:end], method[:end], error)


# ---------------------------------------------------------------------------
# Mixing laws
# ---------------------------------------------------------------------------


class MixingKind(enum.Enum):
    DEGENERATE = "degenerate"
    FINITE_DISCRETE = "finite_discrete"
    INVERSE_GAMMA = "inverse_gamma"
    CUSTOM_DENSITY = "custom_density"


class MixingLaw:
    """Law of a nonnegative mixing variable, with an optional weight map.

    Use the factory classmethods; expectations are exact sums for the
    discrete kinds and adaptive quadrature against the density otherwise
    (substitution v = lo + x/(1-x) for a support [lo, inf)).
    """

    def __init__(
        self,
        kind: MixingKind,
        *,
        v0: float | None = None,
        points: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        shape: float | None = None,
        scale: float | None = None,
        density: Callable[[float], float] | None = None,
        support: tuple[float, float] = (0.0, math.inf),
        weight_fn: Callable[[float], float] | None = None,
    ):
        self.kind = kind
        self.v0 = v0
        self.points = points
        self.weights = weights
        self.shape = shape
        self.scale = scale
        self.density = density
        self.support = support
        self.weight_fn = weight_fn  # None: k(u) = u
        self._cdf_table = None  # filled lazily by the sampler
        if kind is MixingKind.INVERSE_GAMMA:  # log of the density's constant
            self._log_norm = shape * math.log(scale) - math.lgamma(shape)

    @classmethod
    def degenerate(cls, v0: float, weight_fn=None) -> "MixingLaw":
        if not v0 >= 0.0:
            raise DomainError("MixingLaw.degenerate: v0 must be >= 0")
        return cls(MixingKind.DEGENERATE, v0=float(v0), weight_fn=weight_fn)

    @classmethod
    def finite_discrete(cls, points, weights, weight_fn=None) -> "MixingLaw":
        pts = np.asarray(points, dtype=float)
        wts = np.asarray(weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise DomainError("MixingLaw.finite_discrete: points/weights shape mismatch")
        if np.any(pts < 0.0):
            raise DomainError("MixingLaw.finite_discrete: support must be nonnegative")
        if np.any(wts < 0.0) or abs(float(wts.sum()) - 1.0) > 1e-12:
            raise DomainError("MixingLaw.finite_discrete: weights must be >= 0 and sum to 1")
        return cls(MixingKind.FINITE_DISCRETE, points=pts, weights=wts, weight_fn=weight_fn)

    @classmethod
    def inverse_gamma(cls, shape: float, scale: float, weight_fn=None) -> "MixingLaw":
        if not (shape > 0.0 and scale > 0.0):
            raise DomainError("MixingLaw.inverse_gamma: shape and scale must be > 0")
        return cls(
            MixingKind.INVERSE_GAMMA, shape=float(shape), scale=float(scale), weight_fn=weight_fn
        )

    @classmethod
    def custom_density(
        cls, density: Callable[[float], float], support=(0.0, math.inf), weight_fn=None
    ) -> "MixingLaw":
        lo, hi = float(support[0]), float(support[1])
        if lo < 0.0 or hi <= lo:
            raise DomainError("MixingLaw.custom_density: support must be in [0, inf)")
        law = cls(
            MixingKind.CUSTOM_DENSITY,
            density=density,
            support=(lo, hi),
            weight_fn=weight_fn,
        )
        total = law.expectation(lambda v: 1.0)
        if abs(total - 1.0) > 1e-8:
            raise DomainError(
                f"MixingLaw.custom_density: density integrates to {total!r}, not 1"
            )
        return law

    def pdf(self, v):
        """Mixing density at v, a float or an array of them."""
        if self.kind not in (MixingKind.INVERSE_GAMMA, MixingKind.CUSTOM_DENSITY):
            raise DomainError(f"MixingLaw.pdf: {self.kind.value} has no density")
        if np.ndim(v):
            v = np.asarray(v, dtype=float)
            if self.kind is MixingKind.CUSTOM_DENSITY:
                return np.array([self.pdf(x) for x in v.ravel().tolist()]).reshape(v.shape)
            out = np.zeros(v.shape)
            pos = v > 0.0
            out[pos] = self._inverse_gamma_pdf(v[pos], np.log, np.exp)
            return out
        if self.kind is MixingKind.INVERSE_GAMMA:
            return self._inverse_gamma_pdf(v, math.log, math.exp) if v > 0.0 else 0.0
        lo, hi = self.support
        if v < lo or v > hi:
            return 0.0
        return self.density(v)

    def _inverse_gamma_pdf(self, v, log, exp):
        # b^a / Gamma(a) v^(-a-1) e^(-b/v) for v > 0, with the log of the
        # constant computed once; floats go through the math module, whose
        # bits the scalar density has always had
        return exp((self._log_norm - (self.shape + 1.0) * log(v)) - self.scale / v)

    def expectation_rows(self, fn, count: int, abs_tol: float = _MIX_ABS_TOL):
        """E[fn(rows, V)] for `count` integrands at once: (values, failures).

        fn(rows, v) takes an integer (k, 1) array of row indices and a (k, m)
        array of mixing values, and returns v's shape, real or complex;
        rows[i, 0] names the integrand at the values v[i].  Exact sums for
        the discrete kinds, one fn call for all rows and points; otherwise
        quadrature against the density with quadrature.adaptive_rows, one fn
        call per round (substitution v = lo + x/(1-x) for a support
        [lo, inf)).  A row whose fn call raises, or whose quadrature error
        exceeds abs_tol, gets its exception in failures (row -> exception)
        and a nan value; no other row changes.
        """
        failures: dict = {}
        if self.is_exact():
            if self.kind is MixingKind.DEGENERATE:
                points, weights = np.array([self.v0]), None
            else:
                points, weights = self.points, self.weights
            ids = np.arange(count)
            vals, ok = _call_rows(fn, ids, np.tile(points, (count, 1)), failures)
            if weights is None:
                total = vals[:, 0]
            else:
                total = 0
                for j, w in enumerate(weights):
                    total = total + w * vals[:, j]  # in point order, as sum() adds
            out = np.full(count, np.nan, dtype=np.result_type(total, float))
            out[ok] = total
            return out, failures
        lo, hi = self.support if self.kind is MixingKind.CUSTOM_DENSITY else (0.0, math.inf)
        if math.isinf(hi):
            # v = lo + x/(1-x) maps [0, 1) onto [lo, inf)
            def integrand(rows, x):
                v = lo + x / (1.0 - x)
                return _times_ratio(fn(rows, v), self.pdf(v), (1.0 - x) * (1.0 - x))

            a, b = 0.0, 1.0
        else:
            def integrand(rows, v):
                return _times_ratio(fn(rows, v), self.pdf(v), 1.0)

            a, b = lo, hi
        vals, errs, _, failures = adaptive_rows(integrand, count, a, b, abs_tol / 4.0, 1e-12, 512)
        for row in np.flatnonzero(errs > abs_tol).tolist():
            failures[row] = ConvergenceError(
                f"MixingLaw.expectation: quadrature error {errs[row]:.2e} exceeds {abs_tol:.2e}"
            )
            vals[row] = np.nan
        return vals, failures

    def expectation(self, fn: Callable[[float], complex], abs_tol: float = _MIX_ABS_TOL):
        """E[fn(V)] for a scalar fn: the one-row case of expectation_rows."""

        def at_values(rows, v):
            return np.array([fn(x) for x in v.ravel().tolist()]).reshape(v.shape)

        values, failures = self.expectation_rows(at_values, 1, abs_tol)
        if failures:
            raise failures[0]
        return values[0].item()

    def is_exact(self) -> bool:
        return self.kind in (MixingKind.DEGENERATE, MixingKind.FINITE_DISCRETE)


# ---------------------------------------------------------------------------
# Location-scale mixtures
# ---------------------------------------------------------------------------


class LSMixtureSpec:
    """X = mu + V gamma + sqrt(V) Sigma^(1/2) Z with Z ~ ELL(0, I, g)."""

    def __init__(self, base: EllipticalSpec, mu, gamma, sigma, mixing: MixingLaw):
        n = base.n
        if base.mu.any():
            raise DomainError("LSMixtureSpec: base spec must have mu = 0")
        if np.abs(base.sigma - np.eye(n)).max() > 1e-12:
            raise DomainError("LSMixtureSpec: base spec must have sigma = I")
        self.base = base
        self.n = n
        self.mu = _as_vector(mu, n, "mu")
        self.gamma = _as_vector(gamma, n, "gamma")
        self.dispersion = Dispersion(sigma, n)
        self.sigma = self.dispersion.matrix
        self.mixing = mixing


def cf_location_scale_mixture_rows(
    spec: LSMixtureSpec,
    ts,
    route: str = "auto",
    ctl: QuadratureControl | None = None,
) -> CFRows:
    """CF of the location-scale mixture at each row t of the (P, n) array ts.

    exp(i t'mu) E[e^(iV t'gamma) phi(V t'Sigma t)]: t'Sigma t, t'gamma and
    t'mu come from one array pass, and the mixing expectation runs for a
    block of rows at once (MixingLaw.expectation_rows), with phi evaluated
    point by point at its nodes.  Degenerate and finite-discrete mixing are
    exact weighted sums; continuous mixing is adaptive quadrature over the
    mixing density.  The rows stop at the first one whose phi fails.
    """
    ts = _as_rows(ts, spec.n, "t")
    gen, n = spec.base.generator, spec.n
    q = spec.dispersion.quad_rows(ts)
    drift, phase = _row_dots(ts, spec.gamma), _row_dots(ts, spec.mu)

    def evaluate(sl: slice):
        qs, drifts = q[sl], drift[sl]
        q_list = qs.tolist()
        base_err = [0.0] * len(q_list)
        hankel = [False] * len(q_list)

        def f(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
            phi = []
            for row, vs in zip(rows[:, 0].tolist(), v.tolist()):
                for x in vs:
                    value, err, meth = char_generator(gen, n, x * q_list[row], route, ctl)
                    hankel[row] = hankel[row] or meth is CFMethod.HANKEL
                    if err is not None:
                        base_err[row] = max(base_err[row], err)
                    phi.append(value)
            phi = np.array(phi).reshape(v.shape)
            vd = v * drifts[rows]
            return _complex(np.cos(vd) * phi, np.sin(vd) * phi)

        ev, failures = spec.mixing.expectation_rows(f, len(q_list))
        abs_err = np.array(base_err) + (0.0 if spec.mixing.is_exact() else _MIX_ABS_TOL)
        method = np.where(hankel, CFMethod.HANKEL.value, CFMethod.CLOSED_FORM.value)
        return (*_rotate(ev, phase[sl]), abs_err, method, failures)

    return _chunk_rows(ts, evaluate)


def cf_location_scale_mixture(
    spec: LSMixtureSpec,
    t,
    route: str = "auto",
    ctl: QuadratureControl | None = None,
) -> ComplexCF:
    """CF of the location-scale mixture at the point t (see the rows form)."""
    ts = _as_vector(t, spec.n, "t")[None, :]
    return cf_location_scale_mixture_rows(spec, ts, route, ctl).row(0)


# ---------------------------------------------------------------------------
# Star-unimodal (scale mixture of uniforms) route
# ---------------------------------------------------------------------------


def _check_star_unimodal(gen: DensityGenerator) -> None:
    if gen.g_prime is None:
        raise DomainError("star-unimodal route requires the generator derivative g'")
    top = min(gen.support_radius**2, 400.0)
    zs = np.geomspace(1e-8, top * (1.0 - 1e-9), 64)
    dvals = np.array([gen.g_prime(float(z)) for z in zs])
    scale = float(np.abs(dvals).max())
    if scale == 0.0:
        raise DomainError(
            "not star unimodal: g' vanishes identically (no scale-mixture weight density)"
        )
    if float(dvals.max()) > 1e-12 * scale:
        raise DomainError("not star unimodal: g' > 0 detected on the support")


def smu_weight_density(gen: DensityGenerator, n: int, w: float) -> float:
    """Density of the radial weight W in the X = W * (uniform ball) representation.

    f_W(w) = -(4 pi^(n/2) / (n Gamma(n/2))) c_n w^(n+1) g'(w^2); requires a
    monotone nonincreasing generator (g' <= 0, not identically 0).
    """
    if not w > 0.0:
        return 0.0
    _check_star_unimodal(gen)
    if w > gen.support_radius:
        return 0.0
    c_n = normalizing_constant(n, gen)
    lead = 4.0 * math.pi ** (0.5 * n) / (n * gamma_fn(0.5 * n)) * c_n
    return -lead * w ** (n + 1) * gen.g_prime(w * w)


def cf_star_unimodal(
    gen: DensityGenerator, n: int, t, ctl: QuadratureControl | None = None
) -> ComplexCF:
    """CF through the scale-mixture-of-uniforms route (real-valued).

    2 c_n (2 pi)^(n/2) ||t||^(-n/2) int_0^inf w^(n/2+1) J_(n/2)(w||t||) (-g'(w^2)) dw
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    _check_star_unimodal(gen)
    ctl = ctl or QuadratureControl()
    u = float(np.linalg.norm(t))
    if u == 0.0:
        return ComplexCF(1.0, 0.0, 0.0, CFMethod.HANKEL)
    if u < 1e-3:
        # the ball-kernel series in E[W^(2k)] = ((n+2k)/n) E[R^(2k)] is
        # term by term phi_hankel's series in E[R^(2k)]
        try:
            res = _phi_small_u_series(gen, n, u, ctl)
            return ComplexCF(res.value, 0.0, res.err_est, CFMethod.HANKEL)
        except MomentUndefinedError:
            pass  # heavy tails: only the oscillatory route is available
    c_n = normalizing_constant(n, gen, ctl)
    prefactor = 2.0 * c_n * (2.0 * math.pi) ** (0.5 * n) * u ** (-0.5 * n)

    def envelope(w: float) -> float:
        return -(w ** (0.5 * n + 1.0)) * gen.g_prime(w * w)

    inner = replace(ctl, abs_tol=ctl.abs_tol / max(prefactor, 1.0))
    res = integrate_bessel_oscillatory(envelope, 0.5 * n, u, inner, gen.support_radius)
    return ComplexCF(
        prefactor * res.value, 0.0, abs(prefactor) * res.err_est, CFMethod.HANKEL
    )


# ---------------------------------------------------------------------------
# Generalized skew-elliptical distributions
# ---------------------------------------------------------------------------


class SkewNormalK:
    """The built-in skew-normal odd factor: k(y) = Phi(i a'y).

    Exposes a scaled form (mantissa, log_scale) so callers can cancel the
    exp(y^2/2) growth against their Gaussian envelope.  y may stack points
    along leading axes, y[..., n]; one point gives a complex.
    """

    def __init__(self, direction):
        self.direction = np.asarray(direction, dtype=float)

    def __call__(self, y):
        return norm_cdf_imag(_row_dots(np.asarray(y, dtype=float), self.direction))

    def scaled(self, y):
        return norm_cdf_imag_scaled(_row_dots(np.asarray(y, dtype=float), self.direction))


class LinearMappedK:
    """k composed with a linear map: preserves k(t) + k(-t) = 1.

    Maps y[..., n] to (M y)[..., m]; stacked points reach the inner k as
    stacked points.
    """

    def __init__(self, inner, matrix):
        self.inner = inner
        self.matrix = np.asarray(matrix, dtype=float)

    def _map(self, y) -> np.ndarray:
        return _row_dots(np.asarray(y, dtype=float)[..., None, :], self.matrix)

    def __call__(self, y):
        return self.inner(self._map(y))

    def scaled(self, y):
        if not hasattr(self.inner, "scaled"):
            raise AttributeError("inner k function has no scaled form")
        return self.inner.scaled(self._map(y))


def _takes_rows(k_fn) -> bool:
    # the built-in k functions, which accept stacked points
    while isinstance(k_fn, LinearMappedK):
        k_fn = k_fn.inner
    return isinstance(k_fn, SkewNormalK)


class GSESpec:
    """Generalized skew-elliptical spec: CF = 2 e^(i t'mu) psi(t'St) k(S^(1/2) t).

    ``psi`` is a characteristic generator (phi from the elliptical core);
    ``k_fn`` maps R^n to complex with k(y) + k(-y) = 1 (spot-checked on a
    deterministic pseudo-random probe at construction).  ``log_psi``, when
    supplied, enables overflow-free assembly with scaled k functions.
    """

    def __init__(
        self,
        mu,
        sigma,
        psi: Callable[[float], float],
        k_fn: Callable[[np.ndarray], complex],
        log_psi: Optional[Callable[[float], float]] = None,
    ):
        self.dispersion = Dispersion(sigma)
        self.sigma = self.dispersion.matrix
        self.n = self.sigma.shape[0]
        self.mu = _as_vector(mu, self.n, "mu")
        self.psi = psi
        self.k_fn = k_fn
        self.log_psi = log_psi
        self._probe_antisymmetry()

    def _probe_antisymmetry(self) -> None:
        rng = np.random.default_rng(1729)
        for _ in range(64):
            y = rng.normal(scale=1.5, size=self.n)
            resid = abs(self.k_fn(y) + self.k_fn(-y) - 1.0)
            if resid > 1e-10:
                raise DomainError(
                    f"GSESpec: k(t) + k(-t) != 1 (residual {resid:.3e} at a probe point)"
                )


def cf_gse_rows(spec: GSESpec, ts) -> CFRows:
    """CF of a generalized skew-elliptical law at each row t of the (P, n) array ts.

    t'St, S^(1/2) t and t'mu come from one array pass.  With log_psi and a
    built-in k (SkewNormalK, possibly behind LinearMappedK) the rest is
    array passes too, so log_psi must then accept an array of q; any other
    psi, log_psi or k runs point by point, up to the first row where it
    raises.
    """
    ts = _as_rows(ts, spec.n, "t")
    q = spec.dispersion.quad_rows(ts)
    ys = _row_dots(ts[:, None, :], spec.dispersion.sym_root)
    phase = _row_dots(ts, spec.mu)
    if spec.log_psi is not None and _takes_rows(spec.k_fn):

        def evaluate(sl: slice):
            mant, log_scale = spec.k_fn.scaled(ys[sl])
            z = 2.0 * np.exp(spec.log_psi(q[sl]) + log_scale) * mant
            return (*_rotate(z, phase[sl]), math.nan, CFMethod.CLOSED_FORM.value, {})

        return _chunk_rows(ts, evaluate)
    scaled = spec.log_psi is not None and hasattr(spec.k_fn, "scaled")

    def at_point(at_origin: bool, q: float, y: np.ndarray, phase: float) -> ComplexCF:
        if at_origin:
            return _ORIGIN
        rot = complex(math.cos(phase), math.sin(phase))
        if scaled:
            mant, log_scale = spec.k_fn.scaled(y)
            out = 2.0 * math.exp(spec.log_psi(q) + log_scale) * mant * rot
        else:
            out = 2.0 * spec.psi(q) * spec.k_fn(y) * rot
        return ComplexCF(out.real, out.imag, None, CFMethod.CLOSED_FORM)

    return CFRows.collect(map(at_point, (~ts.any(axis=1)).tolist(), q.tolist(), ys, phase.tolist()))


def cf_gse(spec: GSESpec, t) -> ComplexCF:
    """CF of a generalized skew-elliptical law at t."""
    return cf_gse_rows(spec, _as_vector(t, spec.n, "t")[None, :]).row(0)


def gse_affine(spec: GSESpec, a, b_matrix) -> GSESpec:
    """Spec of a + B Y for a GSE Y: GSE with location a + B mu, dispersion
    B Sigma B', and the odd factor rewired through the new symmetric root.

    B must have full row rank m <= n and B Sigma B' must be positive
    definite so the new root is invertible.
    """
    b_matrix = np.asarray(b_matrix, dtype=float)
    if b_matrix.ndim != 2 or b_matrix.shape[1] != spec.n:
        raise DomainError(f"gse_affine: B must be m x {spec.n}")
    m = b_matrix.shape[0]
    if m > spec.n:
        raise DomainError("gse_affine: B must have m <= n rows")
    if np.linalg.matrix_rank(b_matrix) != m:
        raise DomainError("gse_affine: B must have full row rank")
    a = _as_vector(a, m, "a")
    new = Dispersion(b_matrix @ spec.sigma @ b_matrix.T)
    mapping = spec.dispersion.sym_root @ b_matrix.T @ new.inv_sym_root()
    return GSESpec(
        mu=a + b_matrix @ spec.mu,
        sigma=new.matrix,
        psi=spec.psi,
        k_fn=LinearMappedK(spec.k_fn, mapping),
        log_psi=spec.log_psi,
    )


# ---------------------------------------------------------------------------
# Skew-normal and its scale mixtures
# ---------------------------------------------------------------------------


class Parametrization(enum.Enum):
    HALF_ROOT = "half_root"  # Phi(i alpha' Sigma^(1/2) t / sqrt(1 + alpha'alpha))
    FULL_SIGMA = "full_sigma"  # Phi(i alpha' Sigma t / sqrt(1 + alpha'Sigma alpha))


class SkewNormalSpec:
    """Skew-normal law (mu, Sigma, alpha) under one of two parametrizations.

    The two conventions are inequivalent unless Sigma = I and are never
    silently mixed.
    """

    def __init__(self, mu, sigma, alpha, parametrization: Parametrization = Parametrization.HALF_ROOT):
        self.dispersion = Dispersion(sigma)
        self.sigma = self.dispersion.matrix
        self.n = self.sigma.shape[0]
        self.mu = _as_vector(mu, self.n, "mu")
        self.alpha = _as_vector(alpha, self.n, "alpha")
        if not isinstance(parametrization, Parametrization):
            raise DomainError("SkewNormalSpec: invalid parametrization")
        self.parametrization = parametrization

    def skew_direction(self) -> np.ndarray:
        """Vector a with the CF odd part Phi(i a' S t); k(y) = Phi(i a'y)."""
        alpha = self.alpha
        if self.parametrization is Parametrization.HALF_ROOT:
            return alpha / math.sqrt(1.0 + float(alpha @ alpha))
        return (self.dispersion.sym_root @ alpha) / math.sqrt(
            1.0 + float(alpha @ self.sigma @ alpha)
        )

    def invariants(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """t'Sigma t, the skew scale y (CF factor Phi(iy)) and t'mu for each row t.

        y = a'S t = (S a)'t with a the skew direction and S the symmetric root.
        """
        y_dir = self.dispersion.sym_root @ self.skew_direction()
        return self.dispersion.quad_rows(ts), _row_dots(ts, y_dir), _row_dots(ts, self.mu)


def _sn_centered(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    # 2 exp(-q/2) Phi(iy) assembled as 2 exp((y^2 - q)/2) * mantissa; the
    # exponent is <= 0 by Cauchy-Schwarz, so this never overflows.
    mant, log_scale = norm_cdf_imag_scaled(y)
    return 2.0 * np.exp(log_scale - 0.5 * q) * mant


def cf_skew_normal_rows(spec: SkewNormalSpec, ts) -> CFRows:
    """CF of the skew-normal law, e^(i t'mu) 2 exp(-t'St/2) Phi(i y_t), at each
    row t of the (P, n) array ts, in array passes."""
    ts = _as_rows(ts, spec.n, "t")
    q, y, phase = spec.invariants(ts)

    def evaluate(sl: slice):
        z = _sn_centered(q[sl], y[sl])
        return (*_rotate(z, phase[sl]), math.nan, CFMethod.CLOSED_FORM.value, {})

    return _chunk_rows(ts, evaluate)


def cf_skew_normal(spec: SkewNormalSpec, t) -> ComplexCF:
    """CF of the skew-normal law: e^(i t'mu) 2 exp(-t'St/2) Phi(i y_t)."""
    return cf_skew_normal_rows(spec, _as_vector(t, spec.n, "t")[None, :]).row(0)


def skew_normal_gse(spec: SkewNormalSpec) -> GSESpec:
    """The same law expressed as a GSE spec (normal psi, Phi-type k)."""
    return GSESpec(
        mu=spec.mu,
        sigma=spec.sigma,
        psi=lambda q: math.exp(-0.5 * q),
        k_fn=SkewNormalK(spec.skew_direction()),
        log_psi=lambda q: -0.5 * q,
    )


def cf_smsn_rows(spec: SkewNormalSpec, mixing: MixingLaw, ts) -> CFRows:
    """CF of a scale mixture of skew-normals, e^(i t'mu) E[c_sn(sqrt(k(u)) t)],
    at each row t of the (P, n) array ts, in array passes.

    Exact for degenerate/finite-discrete mixing, adaptive quadrature
    otherwise (MixingLaw.expectation_rows).
    """
    ts = _as_rows(ts, spec.n, "t")
    q, y, phase = spec.invariants(ts)
    abs_err = math.nan if mixing.is_exact() else _MIX_ABS_TOL

    def evaluate(sl: slice):
        qs, ys = q[sl], y[sl]

        def f(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
            kv = mixing_weights(mixing, u)
            return _sn_centered(kv * qs[rows], np.sqrt(kv) * ys[rows])

        ev, failures = mixing.expectation_rows(f, len(qs))
        return (*_rotate(ev, phase[sl]), abs_err, CFMethod.CLOSED_FORM.value, failures)

    return _chunk_rows(ts, evaluate)


def cf_smsn(
    spec: SkewNormalSpec,
    mixing: MixingLaw,
    t,
    check_split: bool = False,
) -> ComplexCF:
    """CF of a scale mixture of skew-normals at the point t (see the rows form).

    With ``check_split`` the (psi, k_n) decomposition is also assembled and
    the two values are required to agree.
    """
    t = _as_vector(t, spec.n, "t")
    result = cf_smsn_rows(spec, mixing, t[None, :]).row(0)
    if check_split and t.any():
        psi, k_n = smsn_split(spec, mixing)
        (q,), _, (phase,) = spec.invariants(t[None, :])
        split_val = 2.0 * complex(math.cos(phase), math.sin(phase)) * psi(q) * k_n(t)
        if abs(split_val - result.value) > 1e-9:
            raise ConvergenceError(
                f"cf_smsn: split assembly deviates by {abs(split_val - result.value):.3e}"
            )
    return result


def mixing_weight(mixing: MixingLaw, u: float) -> float:
    """The weight k(u) of one mixing draw; must be >= 0."""
    kv = u if mixing.weight_fn is None else mixing.weight_fn(u)
    if not kv >= 0.0:
        raise DomainError(f"mixing weight k({u}) = {kv} is negative")
    return float(kv)


def mixing_weights(mixing: MixingLaw, us: np.ndarray) -> np.ndarray:
    """k(u) for an array of mixing draws: one array check for the default
    k(u) = u, a call per draw for a supplied weight function."""
    if mixing.weight_fn is not None:
        return np.array([mixing_weight(mixing, u) for u in us.ravel().tolist()]).reshape(us.shape)
    bad = ~(us >= 0.0)
    if bad.any():
        mixing_weight(mixing, float(us.ravel()[bad.ravel().argmax()]))  # raises, naming it
    return us


def smsn_split(
    spec: SkewNormalSpec, mixing: MixingLaw
) -> tuple[Callable[[float], float], Callable[[np.ndarray], complex]]:
    """The (psi, k_n) decomposition of the scale-mixture CF.

    psi(q) = E[exp(-k(u) q / 2)] is the characteristic generator of the
    mixed Gaussian part; k_n carries the whole odd factor, averaged with
    the same Gaussian damping so that 2 e^(i t'mu) psi(q) k_n(t)
    reproduces the direct expectation identically.
    """

    def psi(q: float) -> float:
        return float(mixing.expectation(lambda u: math.exp(-0.5 * mixing_weight(mixing, u) * q)).real)

    def k_n(t: np.ndarray) -> complex:
        t = _as_vector(t, spec.n, "t")
        (q,), (y,), _ = spec.invariants(t[None, :])

        def odd_part(u: float) -> complex:
            kv = mixing_weight(mixing, u)
            # e^(-k q/2) (Phi(i sqrt(k) y) - 1/2), assembled in log scale
            mant, log_scale = norm_cdf_imag_scaled(math.sqrt(kv) * y)
            return complex(0.0, math.exp(log_scale - 0.5 * kv * q) * mant.imag)

        num = complex(mixing.expectation(odd_part))
        return 0.5 + num / psi(q)

    return psi, k_n
