"""Skew and mixture constructions on top of the elliptical core.

Location-scale mixtures, the star-unimodal (scale-mixture-of-uniforms)
route, generalized skew-elliptical (GSE) characteristic functions with
their affine closure, the skew-normal CF and its scale mixtures.  Both
mixtures mix over one nonnegative scale variable V, whose law is a
:class:`MixingLaw`.

Skewness enters a CF only through an odd complex factor k with
k(t) + k(-t) = 1; all evaluators here assemble that factor in log scale
where a growing exponential must cancel against a Gaussian envelope.

The grid forms (``*_rows``) compute passes of grid points as arrays: the
skew-normal factor through the array Dawson function, and mixing
expectations for every point of a pass at once
(:meth:`MixingLaw.expectation_rows`, lockstep quadrature for continuous
laws).  Each one gives the centered values of a pass to elliptical's one
builder, ``_chunk_rows``, which applies e^(i t'mu) and keeps the grid
contract (t = 0 exact, a non-finite value a failing row, the grid ending
at the first failing row); the per-point functions are its row 0.  The
star route's grid form, cf_star_unimodal_rows, is the hankel route of the
CLI's smu kind.  Complex products are formed from their real parts in the
order Python's complex arithmetic uses, so a point's value does not
depend on the pass it is computed in.

The quadrature module is imported by the functions that integrate:
continuous mixing expectations and the star route.  The skew-normal and GSE
closed forms and the exact (degenerate, finite discrete) mixing sums run
without it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .elliptical import (
    CFMethod,
    CFRows,
    ComplexCF,
    Dispersion,
    EllipticalSpec,
    _as_vector,
    _chunk_rows,
    _rotate,
    _row_dots,
    char_generator_rows,
)
from .errors import ConvergenceError, DomainError
from .generators import DensityGenerator
from .specfun import (
    _call_rows,
    _complex,
    _elementwise,
    _node_by_node,
    norm_cdf_imag,
    norm_cdf_imag_scaled,
)

if TYPE_CHECKING:  # quadrature is imported by the functions that integrate
    from .quadrature import QuadRows

__all__ = [
    "MixingLaw",
    "LSMixtureSpec",
    "GSESpec",
    "Parametrization",
    "SkewNormalSpec",
    "SkewNormalK",
    "LinearMappedK",
    "cf_location_scale_mixture",
    "cf_location_scale_mixture_rows",
    "cf_star_unimodal",
    "cf_star_unimodal_rows",
    "star_unimodal_rows",
    "cf_gse",
    "cf_gse_rows",
    "gse_affine",
    "skew_normal_gse",
    "cf_skew_normal",
    "cf_skew_normal_rows",
    "cf_smsn",
    "cf_smsn_rows",
]

_MIX_ABS_TOL = 1e-8


def _mixture_err(mixing: MixingLaw, base):
    # a mixture row's abs_err: its base route's estimate (nan: none), plus the
    # mixing quadrature's tolerance for a continuous law
    return base if mixing.is_exact() else np.fmax(base, 0.0) + _MIX_ABS_TOL


def _times_ratio(g, p, den):
    # (g * p) / den rounded per component, as Python's complex arithmetic
    # does it (numpy's complex division multiplies by a reciprocal instead)
    g = np.asarray(g)
    if np.iscomplexobj(g):
        return _complex(g.real * p / den, g.imag * p / den)
    return g * p / den


# ---------------------------------------------------------------------------
# Mixing laws
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MixingLaw:
    """Law of a nonnegative mixing variable V.

    A mixing k(U) of some other variable U is given as the law of
    V = k(U), e.g. ``finite_discrete(k(points), weights)``.  Use the factory
    classmethods.  Each sets the law's record, closures over the parameters
    it validates (each finite; NaN fails every check), and the
    expectations and samplers read the law's facts from there: a new mixing
    kind is one factory here.  The record: ``kind``, the factory's name;
    ``draw(m, generator)``, m draws of V; for the exact laws, the nodes
    ``points`` and their ``weights`` (None: one point of mass 1); for the
    continuous laws, the ``density`` at every entry of a float array (of any
    shape, 0-d included), on ``support``; ``parts``, the samplers'
    fingerprint parts (kind, v0, points, weights, shape, scale), None where
    the kind has no such field, then for a custom density its support and
    its values at 32 points spread over it; ``unit``, the scale of the map
    quadrature.half_line (the mode b/(a + 1) of the inverse gamma, else 1).
    Expectations are exact sums for the exact laws and adaptive quadrature
    against the density otherwise, in s of that map on every support, with
    its exponent measured on an infinite support's tail at v = 1e8 unit
    (a density ~ v^(-1-a) takes 1/a rounded up); a custom density's draws
    invert its CDF tabulated in s of the map with exponent 1.
    """

    kind: str
    draw: Callable[[int, np.random.Generator], np.ndarray]
    parts: tuple
    points: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support: tuple[float, float] = (0.0, math.inf)
    unit: float = 1.0

    @classmethod
    def degenerate(cls, v0: float) -> "MixingLaw":
        if not math.isfinite(v0):
            raise DomainError("MixingLaw.degenerate: v0 must be finite")
        if not v0 >= 0.0:
            raise DomainError("MixingLaw.degenerate: v0 must be >= 0")
        v0 = float(v0)
        return cls(
            "degenerate",
            draw=lambda m, g: np.full(m, v0),
            parts=("degenerate", v0, None, None, None, None),
            points=np.array([v0]),
        )

    @classmethod
    def finite_discrete(cls, points, weights) -> "MixingLaw":
        pts = np.asarray(points, dtype=float)
        wts = np.asarray(weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise DomainError("MixingLaw.finite_discrete: points/weights shape mismatch")
        if not (np.isfinite(pts).all() and np.isfinite(wts).all()):
            raise DomainError("MixingLaw.finite_discrete: points and weights must be finite")
        if np.any(pts < 0.0):
            raise DomainError("MixingLaw.finite_discrete: support must be nonnegative")
        if np.any(wts < 0.0) or abs(float(wts.sum()) - 1.0) > 1e-12:
            raise DomainError("MixingLaw.finite_discrete: weights must be >= 0 and sum to 1")
        return cls(
            "finite_discrete",
            draw=lambda m, g: g.choice(pts, p=wts, size=m),
            parts=("finite_discrete", None, pts, wts, None, None),
            points=pts,
            weights=wts,
        )

    @classmethod
    def inverse_gamma(cls, shape: float, scale: float) -> "MixingLaw":
        if not (math.isfinite(shape) and math.isfinite(scale)):
            raise DomainError("MixingLaw.inverse_gamma: shape and scale must be finite")
        if not (shape > 0.0 and scale > 0.0):
            raise DomainError("MixingLaw.inverse_gamma: shape and scale must be > 0")
        shape, scale = float(shape), float(scale)
        log_norm = shape * math.log(scale) - math.lgamma(shape)  # computed once

        def density(v: np.ndarray) -> np.ndarray:
            # b^a / Gamma(a) v^(-a-1) e^(-b/v) for v > 0, else 0; log and exp
            # from libm, so the values do not follow numpy's SIMD dispatch
            out = np.zeros(v.shape)
            pos = v > 0.0
            w = v[pos]
            out[pos] = _elementwise(
                math.exp, (log_norm - (shape + 1.0) * _elementwise(math.log, w)) - scale / w
            )
            return out

        return cls(
            "inverse_gamma",
            draw=lambda m, g: 1.0 / g.gamma(shape, 1.0 / scale, size=m),
            parts=("inverse_gamma", None, None, None, shape, scale),
            density=density,
            unit=scale / (shape + 1.0),
        )

    @classmethod
    def custom_density(
        cls, density: Callable[[float], float], support=(0.0, math.inf)
    ) -> "MixingLaw":
        lo, hi = float(support[0]), float(support[1])
        if not (math.isfinite(lo) and lo >= 0.0 and hi > lo):
            raise DomainError("MixingLaw.custom_density: support must be in [0, inf)")

        def pdf(v: float) -> float:
            return 0.0 if v < lo or v > hi else density(v)

        top = min(hi - lo, 50.0)  # the fingerprint's probes: interior points of [lo, lo + top]
        table = []  # the tabulated CDF, built at the first draw

        def draw(m: int, g: np.random.Generator) -> np.ndarray:
            from .sampling import _cdf_table, _invert_from_table  # only samplers draw

            if not table:
                table.append(_cdf_table(law.density, lo, hi, law.unit))
            return _invert_from_table(table[0], g.random(m))

        law = cls(
            "custom_density",
            draw=draw,
            parts=(
                "custom_density", None, None, None, None, None, (lo, hi),
                tuple(float(pdf(lo + top * (i + 0.5) / 32.0)) for i in range(32)),
            ),
            density=lambda v: _elementwise(pdf, v),
            support=(lo, hi),
        )
        values, failures = law.expectation_rows(lambda rows, v: np.ones(v.shape), 1)
        if failures:
            raise failures[0]
        total = values[0].item()
        if not abs(total - 1.0) <= 1e-8:  # a nan total fails too
            raise DomainError(
                f"MixingLaw.custom_density: density integrates to {total!r}, not 1"
            )
        return law

    def pdf(self, v):
        """Mixing density at v, a float or an array of them."""
        if self.density is None:
            raise DomainError(f"MixingLaw.pdf: {self.kind} has no density")
        out = self.density(np.asarray(v, dtype=float))
        return out if np.ndim(v) else float(out)

    def expectation_rows(self, fn, count: int):
        """E[fn(rows, V)] for `count` integrands at once: (values, failures).

        fn(rows, v) takes an integer (k, 1) array of row indices and a (k, m)
        array of mixing values, and returns v's shape, real or complex;
        rows[i, 0] names the integrand at the values v[i].  Exact sums for
        the discrete kinds, one fn call for all rows and points; otherwise
        quadrature against the density with quadrature.adaptive_rows, one fn
        call per round, in s of the law's map (see the class), so the nodes
        follow its scale and its tail.  A row whose fn call raises, whose panels
        reach v = inf, or whose finite value has a quadrature error estimate over
        _MIX_ABS_TOL (1e-8) or nan, gets its exception in failures (row ->
        exception) and a nan value; no other row changes.  A value that is
        not finite is left for the caller to name.
        """
        failures: dict = {}
        if self.is_exact():
            ids = np.arange(count)
            vals, ok = _call_rows(fn, ids, np.tile(self.points, (count, 1)), failures)
            if self.weights is None:
                total = vals[:, 0]
            else:
                total = 0
                for j, w in enumerate(self.weights):
                    total = total + w * vals[:, j]  # in point order, as sum() adds
            out = np.full(count, np.nan, dtype=np.result_type(total, float))
            out[ok] = total
            return out, failures
        from .quadrature import _end_exponent, adaptive_rows, half_line  # continuous laws only

        # p measured on an infinite support's tail, in v / unit: the probe
        # then reads the tail's power wherever the law's scale puts its mass
        lo, hi = self.support
        tail = _end_exponent(lambda x: self.pdf(self.unit * x)) if math.isinf(hi) else 1.0
        top, to_v, seeds = half_line(lo, hi, self.unit, tail)

        def integrand(rows, s):
            v, num, den = to_v(s)
            if np.isinf(v).any():
                raise ConvergenceError("MixingLaw.expectation: the quadrature reached v = inf")
            return _times_ratio(fn(rows, v), num * self.pdf(v), den)

        vals, errs, _, failures = adaptive_rows(
            integrand, count, 0.0, top, _MIX_ABS_TOL / 4.0, 1e-12, 512, [seeds] * count
        )
        for row in np.flatnonzero(~(errs <= _MIX_ABS_TOL) & np.isfinite(vals)).tolist():
            failures[row] = ConvergenceError(
                f"MixingLaw.expectation: quadrature error {errs[row]:.2e} exceeds {_MIX_ABS_TOL:.2e}"
            )
            vals[row] = np.nan
        return vals, failures

    def expectation(self, fn: Callable[[float], complex]):
        """E[fn(V)] for a scalar fn: the one-row case of expectation_rows."""
        values, failures = self.expectation_rows(_node_by_node(fn), 1)
        if failures:
            raise failures[0]
        return values[0].item()

    def is_exact(self) -> bool:
        return self.points is not None


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


def cf_location_scale_mixture_rows(spec: LSMixtureSpec, ts, route: str = "closed") -> CFRows:
    """CF of the location-scale mixture at each row t of the (P, n) array ts.

    exp(i t'mu) E[e^(iV t'gamma) phi(V t'Sigma t)]: the mixing expectation
    runs for a pass of rows at once (MixingLaw.expectation_rows), with phi
    at all of a round's nodes from one call of char_generator_rows.
    Degenerate and finite-discrete mixing are exact weighted sums;
    continuous mixing is adaptive quadrature over the mixing density.
    route ("closed" or "hankel") is the route of phi.
    """
    gen, n = spec.base.generator, spec.n

    def centered(t: np.ndarray):
        qs, drifts = spec.dispersion.quad_rows(t), _row_dots(t, spec.gamma)
        base_err = np.full(len(t), np.nan)

        def f(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
            phi, err, failures = char_generator_rows(gen, n, v * qs[rows], route)
            if failures:
                raise failures[min(failures)]
            phi, err = phi.reshape(v.shape), err.reshape(v.shape)
            # the largest estimate among a row's nodes, nan (closed form) ignored
            base_err[rows[:, 0]] = np.fmax(base_err[rows[:, 0]], np.fmax.reduce(err, axis=1))
            # an overflowed phase V t'gamma is nan in _rotate, so its row fails
            with np.errstate(over="ignore", invalid="ignore"):
                return _complex(*_rotate(phi, v * drifts[rows]))

        ev, failures = spec.mixing.expectation_rows(f, len(t))
        return ev, _mixture_err(spec.mixing, base_err), failures

    return _chunk_rows(ts, n, spec.mu, route, centered)


def cf_location_scale_mixture(spec: LSMixtureSpec, t, route: str = "closed") -> ComplexCF:
    """CF of the location-scale mixture at the point t (see the rows form)."""
    ts = _as_vector(t, spec.n, "t")[None, :]
    return cf_location_scale_mixture_rows(spec, ts, route).row(0)


# ---------------------------------------------------------------------------
# Star-unimodal (scale mixture of uniforms) route
# ---------------------------------------------------------------------------


def _check_star_unimodal(gen: DensityGenerator) -> None:
    if gen.g_prime is None:
        raise DomainError("star-unimodal route requires the generator derivative g'")
    top = min(gen.support_radius**2, 400.0)
    dvals = gen.g_prime(np.geomspace(1e-8, top * (1.0 - 1e-9), 64))
    scale = float(np.abs(dvals).max())
    if scale == 0.0:
        raise DomainError(
            "not star unimodal: g' vanishes identically (no scale-mixture weight density)"
        )
    if float(dvals.max()) > 1e-12 * scale:
        raise DomainError("not star unimodal: g' > 0 detected on the support")


def star_unimodal_rows(gen: DensityGenerator, n: int, us) -> QuadRows:
    """phi(u^2) through the scale-mixture-of-uniforms route at every u of us.

    -2 c_n (2 pi)^(n/2) u^(-n/2) int_0^inf w^(n/2+1) J_(n/2)(w u) g'(w^2) dw

    phi_hankel_rows' front end with the order n/2, the profile g' and, at
    a singular support edge, its g_prime_edge: u = 0 gives exactly 1,
    0 < u < 1e-3 the moment series (the ball-kernel series in
    E[W^(2k)] = ((n+2k)/n) E[R^(2k)] is term by term phi_hankel's series in
    E[R^(2k)]), every other u the oscillatory engine, in lockstep.  A
    generator that is not star unimodal raises DomainError.
    """
    from .quadrature import _bessel_transform_rows

    _check_star_unimodal(gen)
    return _bessel_transform_rows(gen, n, us, 0.5 * n, gen.g_prime, gen.g_prime_edge, -2.0)


def cf_star_unimodal(gen: DensityGenerator, n: int, t) -> ComplexCF:
    """CF through the scale-mixture-of-uniforms route (real-valued) at the
    point t: row 0 of star_unimodal_rows at u = ||t||, "closed" at u = 0
    as every grid form's origin."""
    u = float(np.linalg.norm(np.asarray(t, dtype=float).reshape(-1)))
    res = star_unimodal_rows(gen, n, [u]).row(0)
    return ComplexCF(res.value, 0.0, res.err_est, CFMethod.HANKEL if u else CFMethod.CLOSED_FORM)


def cf_star_unimodal_rows(spec: EllipticalSpec, ts) -> CFRows:
    """The star route of an elliptical law, e^(i t'mu) phi(t'St) with phi
    from star_unimodal_rows at u = ||t||_Sigma, at each row t of the (P, n)
    array ts: one star_unimodal_rows call per pass of _chunk_rows."""

    def centered(t: np.ndarray):
        res = star_unimodal_rows(spec.generator, spec.n, np.sqrt(spec.dispersion.quad_rows(t)))
        # as complex(value, 0.0): the products with its 0.0 set the signs of zero parts
        return res.value.astype(complex), res.err_est, res.failures

    return _chunk_rows(ts, spec.n, spec.mu, CFMethod.HANKEL.value, centered)


# ---------------------------------------------------------------------------
# Generalized skew-elliptical distributions
# ---------------------------------------------------------------------------


class SkewNormalK:
    """The built-in skew-normal odd factor: k(y) = Phi(i a'y).

    Exposes a scaled form (mantissa, log_scale) so callers can cancel the
    exp(y^2/2) growth against their Gaussian envelope; where y or a'y
    overflows, its mantissa is nan, so the caller's value is not finite.  y
    may stack points along leading axes, y[..., n]; one point gives a complex.
    """

    def __init__(self, direction):
        self.direction = np.asarray(direction, dtype=float)

    def __call__(self, y):
        return norm_cdf_imag(_row_dots(np.asarray(y, dtype=float), self.direction))

    def scaled(self, y):
        x = _row_dots(np.asarray(y, dtype=float), self.direction)
        finite = np.isfinite(x)
        mant, log_scale = norm_cdf_imag_scaled(np.where(finite, x, 0.0))
        return np.where(finite, mant, np.nan)[()], log_scale  # [()]: one point, a complex


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
        return self.inner.scaled(self._map(y))


def _innermost(k_fn):
    # the k function behind any LinearMappedK wrappers
    while isinstance(k_fn, LinearMappedK):
        k_fn = k_fn.inner
    return k_fn


class GSESpec:
    """Generalized skew-elliptical spec: CF = 2 e^(i t'mu) psi(t'St) k(S^(1/2) t).

    ``psi`` is a characteristic generator (phi from the elliptical core);
    ``k_fn`` maps R^n to complex with k(y) + k(-y) = 1 (spot-checked on a
    deterministic pseudo-random probe at construction).  ``log_psi``, when
    supplied with the built-in k (SkewNormalK, possibly behind
    LinearMappedK), enables overflow-free array assembly with its scaled
    form; with any other k it is unused, and psi(q) k(y) is evaluated
    point by point.
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

    t'St and S^(1/2) t come from array passes.  With log_psi and a built-in
    k (SkewNormalK, possibly behind LinearMappedK) the rest is array passes
    too, assembled in log scale, so log_psi must then accept an array of q;
    otherwise psi(q) k(y) runs point by point, a point's exception failing
    its row.
    """
    root = spec.dispersion.sym_root
    if spec.log_psi is not None and isinstance(_innermost(spec.k_fn), SkewNormalK):
        def centered(t: np.ndarray):  # the built-in k takes stacked points
            mant, log_scale = spec.k_fn.scaled(_row_dots(t[:, None, :], root))
            with np.errstate(invalid="ignore"):  # -inf + inf where t'St overflows: a failing row
                z = 2.0 * np.exp(spec.log_psi(spec.dispersion.quad_rows(t)) + log_scale) * mant
            return z, math.nan, {}
    else:
        def centered(t: np.ndarray):  # point by point, each point's exception at its row
            z, failures = np.full(len(t), np.nan, dtype=complex), {}
            ys = _row_dots(t[:, None, :], root)
            for i, (qi, y) in enumerate(zip(spec.dispersion.quad_rows(t).tolist(), ys)):
                try:
                    z[i] = 2.0 * spec.psi(qi) * spec.k_fn(y)
                except Exception as exc:  # raised again at its row
                    failures[i] = exc
            return z, math.nan, failures

    return _chunk_rows(ts, spec.n, spec.mu, CFMethod.CLOSED_FORM.value, centered)


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

    def invariants(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """t'Sigma t and the skew scale y (CF factor Phi(iy)) for each row t.

        y = a'S t = (S a)'t with a the skew direction and S the symmetric root.
        """
        y_dir = self.dispersion.sym_root @ self.skew_direction()
        return self.dispersion.quad_rows(ts), _row_dots(ts, y_dir)


def _sn_centered(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    # 2 exp(-q/2) Phi(iy) assembled as 2 exp((y^2 - q)/2) * mantissa; the
    # exponent is <= -(1 - |a|^2) q/2 < 0 by Cauchy-Schwarz, so this never
    # overflows, and where q overflows the value underflows to 0: y, which
    # may overflow with q, is taken as 0 there, so no inf - inf arises.
    mant, log_scale = norm_cdf_imag_scaled(np.where(q == np.inf, 0.0, y))
    return 2.0 * np.exp(log_scale - 0.5 * q) * mant


def cf_skew_normal_rows(spec: SkewNormalSpec, ts) -> CFRows:
    """CF of the skew-normal law, e^(i t'mu) 2 exp(-t'St/2) Phi(i y_t), at each
    row t of the (P, n) array ts, in array passes."""

    def centered(t: np.ndarray):
        return _sn_centered(*spec.invariants(t)), math.nan, {}

    return _chunk_rows(ts, spec.n, spec.mu, CFMethod.CLOSED_FORM.value, centered)


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
    """CF of a scale mixture of skew-normals, e^(i t'mu) E[c_sn(sqrt(V) t)],
    at each row t of the (P, n) array ts, in array passes.

    Exact for degenerate/finite-discrete mixing, adaptive quadrature
    otherwise (MixingLaw.expectation_rows).
    """

    def centered(t: np.ndarray):
        qs, ys = spec.invariants(t)

        def f(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
            # V = 0 is a point mass at mu, whose centered CF is 1 even where t'St
            # overflows (no 0 * inf)
            live = v > 0.0
            vq = np.multiply(v, qs[rows], out=np.zeros_like(v), where=live)
            vy = np.multiply(np.sqrt(v), ys[rows], out=np.zeros_like(v), where=live)
            return _sn_centered(vq, vy)

        ev, failures = mixing.expectation_rows(f, len(t))
        return ev, _mixture_err(mixing, math.nan), failures

    return _chunk_rows(ts, spec.n, spec.mu, CFMethod.CLOSED_FORM.value, centered)


def cf_smsn(spec: SkewNormalSpec, mixing: MixingLaw, t) -> ComplexCF:
    """CF of a scale mixture of skew-normals at the point t (see the rows form)."""
    return cf_smsn_rows(spec, mixing, _as_vector(t, spec.n, "t")[None, :]).row(0)
