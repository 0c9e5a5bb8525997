"""Core elliptical distribution model.

An elliptical law is (mu, Sigma, g): location, dispersion and a density
generator.  Its characteristic function factors as
exp(i t'mu) * phi(t' Sigma t) for a scalar characteristic generator phi;
this module provides the closed forms of phi for the named families, the
uniform-sphere characteristic function, normalizing constants, radial
densities and the validated dispersion matrix with its roots, with the
Hankel quadrature route as the generic fallback.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import DivergentIntegralError, DomainError, NoClosedFormError
from .generators import DensityGenerator, Family, moment_exists
from .quadrature import (
    QuadratureControl,
    moment_integral,
    normalizing_constant,
    phi_hankel,
)
from .specfun import bessel_j, bessel_k, gamma_fn, hyp0f1, hyp1f1

__all__ = [
    "CFMethod",
    "ComplexCF",
    "CFRows",
    "Dispersion",
    "EllipticalSpec",
    "uniform_sphere_cf",
    "normalizing_constant",
    "radial_density",
    "closed_form_generator",
    "char_generator",
    "cf",
    "cf_rows",
]

_SYM_TOL = 1e-12
_EIG_TOL = 1e-12


class CFMethod(enum.Enum):
    CLOSED_FORM = "closed"
    HANKEL = "hankel"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class ComplexCF:
    """A characteristic-function value with an optional error estimate."""

    re: float
    im: float
    abs_err: Optional[float]
    method: CFMethod

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)


# The CF value at t = 0, exact for every law.
_ORIGIN = ComplexCF(1.0, 0.0, 0.0, CFMethod.CLOSED_FORM)


@dataclass(eq=False)
class CFRows:
    """A characteristic function on the rows of a grid, in grid order.

    re, im and abs_err are float arrays and method an array of CFMethod
    values ("closed", "hankel", "mc"), one entry per row before the first
    failing row; abs_err is nan where a route gives no error estimate.
    error is the exception of that failing row, whose index is len(rows),
    or None when every row was computed.
    """

    re: np.ndarray
    im: np.ndarray
    abs_err: np.ndarray
    method: np.ndarray
    error: Optional[Exception] = None

    @classmethod
    def collect(cls, values: Iterable[ComplexCF]) -> "CFRows":
        """The values in order, up to the first one whose computation raises."""
        done, error = [], None
        try:
            for value in values:
                done.append(value)
        except Exception as exc:  # recorded at its row; row() raises it again
            error = exc
        cols = np.array([(v.re, v.im, v.abs_err) for v in done], dtype=float)  # None: nan
        re, im, abs_err = cols.reshape(-1, 3).T
        return cls(re, im, abs_err, np.array([v.method.value for v in done]), error)

    def __len__(self) -> int:
        return len(self.re)

    def row(self, i: int) -> ComplexCF:
        """Row i as a ComplexCF; from the failing row on, raises its exception."""
        if i >= len(self) and self.error is not None:
            raise self.error
        re, im, err = float(self.re[i]), float(self.im[i]), float(self.abs_err[i])
        return ComplexCF(re, im, None if math.isnan(err) else err, CFMethod(self.method[i]))


def _as_vector(x, n: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise DomainError(f"{name}: expected shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: contains non-finite entries")
    return arr


def _as_rows(x, n: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise DomainError(f"{name}: expected shape (P, {n}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: contains non-finite entries")
    return arr


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of a and b, broadcast against each other.

    Summed term by term in index order with elementwise operations, so a
    row's value never depends on how many rows are stacked with it (a BLAS
    product may group its sums differently by array size).  Overflow gives
    inf silently, as float arithmetic does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms = a * b
        out = terms[..., 0]
        for i in range(1, terms.shape[-1]):
            out = out + terms[..., i]
    return out


class Dispersion:
    """A validated dispersion matrix Sigma with its factorizations.

    Checked once at construction: square (n x n when n is given), finite,
    symmetric within 1e-12 (then symmetrised) and positive semi-definite
    within 1e-12 of its largest eigenvalue.  The matrix, its rank, the
    eigen-factorization and the symmetric PSD root S (S @ S = Sigma) are
    stored read-only.
    """

    def __init__(self, sigma, n: int | None = None):
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise DomainError(f"sigma: must be a square matrix, got shape {sigma.shape}")
        if n is not None and sigma.shape != (n, n):
            raise DomainError(f"sigma: expected shape ({n}, {n}), got {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise DomainError("sigma: contains non-finite entries")
        scale = max(1.0, float(np.abs(sigma).max()))
        asym = float(np.abs(sigma - sigma.T).max())
        if asym > _SYM_TOL * scale:
            raise DomainError(f"sigma: not symmetric (max asymmetry {asym:.3e})")
        self.matrix = 0.5 * (sigma + sigma.T)

        eigvals, self.eigvecs = np.linalg.eigh(self.matrix)
        scale = max(1.0, float(eigvals.max(initial=0.0)))
        if eigvals.min(initial=0.0) < -_EIG_TOL * scale:
            raise DomainError(
                f"sigma: not positive semi-definite (min eigenvalue {eigvals.min():.3e})"
            )
        self.eigvals = np.clip(eigvals, 0.0, None)
        self.rank = int(np.sum(self.eigvals > _EIG_TOL * scale))
        root = self.eigvecs @ np.diag(np.sqrt(self.eigvals)) @ self.eigvecs.T
        self.sym_root = 0.5 * (root + root.T)
        for arr in (self.matrix, self.eigvals, self.eigvecs, self.sym_root):
            arr.setflags(write=False)

    def quad_rows(self, ts: np.ndarray) -> np.ndarray:
        """t' Sigma t for each row t of ts, clipped at 0 against rounding."""
        sigma_t = _row_dots(ts[:, None, :], self.matrix)
        return np.maximum(_row_dots(ts, sigma_t), 0.0)

    def chol_factor(self) -> np.ndarray:
        """A with A'A = Sigma; requires full rank (used by sampling)."""
        n = self.matrix.shape[0]
        if self.rank < n:
            raise DomainError(f"sigma has rank {self.rank} < {n}: no Cholesky factor")
        return np.linalg.cholesky(self.matrix).T

    def inv_sym_root(self) -> np.ndarray:
        """The inverse of the symmetric root; requires full rank."""
        if self.rank < self.matrix.shape[0]:
            raise DomainError(f"sigma has rank {self.rank}: singular, no inverse root")
        return self.eigvecs @ np.diag(1.0 / np.sqrt(self.eigvals)) @ self.eigvecs.T


class EllipticalSpec:
    """An elliptical distribution (n, mu, Sigma, generator).

    Sigma may be positive semi-definite (rank-deficient specs still have a
    characteristic function); density and sampling queries require full
    rank.  Immutable after construction.
    """

    def __init__(self, n: int, mu, sigma, generator: DensityGenerator):
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise DomainError("EllipticalSpec: n must be an integer >= 1")
        self.n = int(n)
        self.mu = _as_vector(mu, self.n, "mu")
        self.dispersion = Dispersion(sigma, self.n)
        self.sigma = self.dispersion.matrix
        self.generator = generator
        self._validate_generator_dimension()
        self.mu.setflags(write=False)

    def _validate_generator_dimension(self) -> None:
        gen, n = self.generator, self.n
        p = gen.params
        if gen.family is Family.GENERALIZED_T and int(p["n"]) != n:
            raise DomainError(
                f"generator: generalized-t profile built for n={int(p['n'])}, spec has n={n}"
            )
        if gen.family is Family.PEARSON_VII and not p["N"] > 0.5 * n:
            raise DomainError("generator: Pearson VII requires N > n/2")
        if gen.family is Family.KOTZ and not 2.0 * p["N"] + n > 2.0:
            raise DomainError("generator: Kotz requires 2N + n > 2")
        if gen.family is Family.BESSEL and not p["a"] > -0.5 * n:
            raise DomainError("generator: Bessel requires a > -n/2")
        exists = moment_exists(gen, float(n))
        if exists is False:
            raise DomainError("generator: moment integral diverges in this dimension")
        if exists is None:
            try:
                moment_integral(gen, n)
            except DivergentIntegralError as exc:
                raise DomainError(
                    "generator: moment integral diverges (checked numerically)"
                ) from exc


def uniform_sphere_cf(n: int, s: float) -> float:
    """CF of the uniform law on the unit sphere surface, at s = ||t||^2.

    Gamma(n/2) (2/||t||)^((n-2)/2) J_((n-2)/2)(||t||); the 0F1 series form
    is used near the origin where the Bessel form has a removable 0/0.
    """
    if n < 1:
        raise DomainError("uniform_sphere_cf: n must be >= 1")
    if s < 0.0:
        raise DomainError("uniform_sphere_cf: s = ||t||^2 must be >= 0")
    x = math.sqrt(s)
    if x < 1e-3:
        return hyp0f1(0.5 * n, -0.25 * s)
    half_order = 0.5 * (n - 2.0)
    return gamma_fn(0.5 * n) * (2.0 / x) ** half_order * bessel_j(half_order, x)


def radial_density(spec: EllipticalSpec, v: float) -> float:
    """Density of the generating variate R at v >= 0 (full-rank specs only)."""
    if v < 0.0:
        raise DomainError("radial_density: v must be >= 0")
    if spec.dispersion.rank < spec.n:
        raise DomainError("radial_density: undefined for rank-deficient sigma")
    gen = spec.generator
    if v > gen.support_radius:
        return 0.0
    n = spec.n
    c_n = normalizing_constant(n, gen)
    return c_n * 2.0 * math.pi ** (0.5 * n) / gamma_fn(0.5 * n) * v ** (n - 1) * gen.g(v * v)


def closed_form_generator(gen: DensityGenerator, n: int, q: float) -> float:
    """Closed-form characteristic generator phi(q), q = t' Sigma t.

    Raises NoClosedFormError for (family, parameter) combinations without
    one; callers fall back to the Hankel quadrature route.
    """
    if q < 0.0:
        raise DomainError("closed_form_generator: q must be >= 0")
    fam = gen.family
    p = gen.params
    if fam is Family.NORMAL:
        return math.exp(-0.5 * q)
    if fam is Family.UNIFORM_BALL:
        return hyp0f1(0.5 * n + 1.0, -0.25 * q)
    if fam is Family.GENERALIZED_T:
        if q == 0.0:
            return 1.0
        s, m = p["s"], p["m"]
        u = math.sqrt(q)
        half_m = 0.5 * m
        return (
            u**half_m
            * s ** (0.5 * half_m)
            / (2.0 ** (half_m - 1.0) * gamma_fn(half_m))
            * bessel_k(half_m, math.sqrt(s) * u)
        )
    if fam is Family.PEARSON_II:
        return hyp0f1(0.5 * n + p["m"] + 1.0, -0.25 * q)
    if fam is Family.PEARSON_VII:
        if q == 0.0:
            return 1.0
        big_n, s = p["N"], p["s"]
        u = math.sqrt(q)
        return (
            2.0 ** (0.5 * n - big_n + 1.0)
            / gamma_fn(big_n - 0.5 * n)
            * s ** (0.5 * big_n - 0.25 * n)
            * u ** (big_n - 0.5 * n)
            * bessel_k(0.5 * n - big_n, math.sqrt(s) * u)
        )
    if fam is Family.KOTZ:
        big_n, r, s = p["N"], p["r"], p["s"]
        if s == 1.0:
            return hyp1f1(0.5 * n + big_n - 1.0, 0.5 * n, -q / (4.0 * r))
        if s == 0.5 and big_n == 1.0:
            # the exponent match in the Laplace-type Bessel integral only
            # holds at N = 1; other N go through the quadrature route
            return (
                2.0 ** (n - 1.0)
                * gamma_fn(0.5 * n)
                * gamma_fn(0.5 * (n + 1.0))
                * r ** (n + 1.0)
                / (math.sqrt(math.pi) * gamma_fn(float(n)) * (r * r + q) ** (0.5 * (n + 1.0)))
            )
        raise NoClosedFormError(
            f"no closed form for Kotz with s={s}, N={big_n}; use the Hankel route"
        )
    if fam is Family.BESSEL:
        a, beta = p["a"], p["beta"]
        return (1.0 + beta * beta * q) ** (-(0.5 * n + a))
    raise NoClosedFormError(
        f"no closed form for family {fam.value}; use the Hankel route"
    )


def char_generator(
    gen: DensityGenerator,
    n: int,
    q: float,
    route: str = "auto",
    ctl: QuadratureControl | None = None,
) -> tuple[float, Optional[float], CFMethod]:
    """phi(q) by the requested route: (value, abs_err, method)."""
    if route not in ("auto", "closed", "hankel"):
        raise DomainError(f"char_generator: unknown route {route!r}")
    if route in ("auto", "closed"):
        try:
            return closed_form_generator(gen, n, q), None, CFMethod.CLOSED_FORM
        except NoClosedFormError:
            if route == "closed":
                raise
    res = phi_hankel(gen, n, math.sqrt(q), ctl or QuadratureControl())
    return res.value, res.err_est, CFMethod.HANKEL


def cf_rows(
    spec: EllipticalSpec,
    ts,
    route: str = "auto",
    ctl: QuadratureControl | None = None,
) -> CFRows:
    """exp(i t'mu) phi(t' Sigma t) at each row t of the (P, n) array ts, in order.

    The quadratic forms and phases of all rows come from one array pass;
    only phi runs point by point, up to the first row where it raises.
    """
    ts = _as_rows(ts, spec.n, "t")

    def at_point(at_origin: bool, q: float, phase: float) -> ComplexCF:
        if at_origin:
            return _ORIGIN
        phi, abs_err, method = char_generator(spec.generator, spec.n, q, route, ctl)
        return ComplexCF(math.cos(phase) * phi, math.sin(phase) * phi, abs_err, method)

    q, phase = spec.dispersion.quad_rows(ts), _row_dots(ts, spec.mu)
    return CFRows.collect(map(at_point, (~ts.any(axis=1)).tolist(), q.tolist(), phase.tolist()))


def cf(
    spec: EllipticalSpec,
    t,
    route: str = "auto",
    ctl: QuadratureControl | None = None,
) -> ComplexCF:
    """Characteristic function exp(i t'mu) phi(t' Sigma t) at the point t."""
    return cf_rows(spec, _as_vector(t, spec.n, "t")[None, :], route, ctl).row(0)
