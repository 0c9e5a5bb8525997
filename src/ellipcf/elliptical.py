"""Core elliptical distribution model.

An elliptical law is (mu, Sigma, g): location, dispersion and a density
generator.  Its characteristic function factors as
exp(i t'mu) * phi(t' Sigma t) for a scalar characteristic generator phi;
this module provides phi in closed form (from the generator's family
record), the Hankel quadrature route for every generator, radial densities
and the validated dispersion matrix with its roots.  Every route
is named: "closed" (a closed form, NoClosedFormError where the family has
none) or "hankel".

Every closed and hankel grid form, here and in skewmix, supplies only the
centered values of each pass to _chunk_rows, which owns the grid contract:
it applies e^(i t'mu), gives t = 0 the exact (1, 0, 0, "closed"), fails a
non-finite value with an OverflowError at its row and ends the grid at the
first failing row other than the origin.  The hankel rows of a pass go
through phi_hankel_rows in one call.

The quadrature module is imported by the functions that integrate: the
hankel rows of char_generator_rows and radial_density (and, in generators,
the dimension check of a custom generator).  The closed forms of the named
families run without it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .generators import DensityGenerator
from .specfun import _call_rows, _elementwise, _power

__all__ = [
    "CFMethod",
    "ComplexCF",
    "CFRows",
    "Dispersion",
    "EllipticalSpec",
    "radial_density",
    "closed_form_generator",
    "char_generator_rows",
    "cf",
    "cf_rows",
]

_SYM_TOL = 1e-12
_EIG_TOL = 1e-12

# Rows per array pass of the grid forms; bounds their per-row temporaries.
_CHUNK = 1 << 10


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

    def __len__(self) -> int:
        return len(self.re)

    def row(self, i: int) -> ComplexCF:
        """Row i as a ComplexCF; from the failing row on, raises its exception."""
        if i >= len(self) and self.error is not None:
            raise self.error
        re, im, err = float(self.re[i]), float(self.im[i]), float(self.abs_err[i])
        return ComplexCF(re, im, None if math.isnan(err) else err, CFMethod(self.method[i]))


def _chunk_rows(ts, n: int, mu: np.ndarray, method: str, centered) -> CFRows:
    """e^(i t'mu) times the centered CF at each row t of the (P, n) array
    ts, in array passes of _CHUNK rows: the one owner of the grid contract.

    centered(t) gives the rows t of a pass as (z, abs_err, failures): z
    real or complex, abs_err (nan: no estimate) an array or one value, and
    failures mapping a row of the pass to its exception; an exception out
    of centered fails every row of its pass.  t'mu comes from _row_dots,
    the rotation from _rotate, and a row whose value is not finite fails
    with an OverflowError.  Every row is named method but t = 0, the exact
    (1, 0, 0, "closed") whatever centered made of it; the passes stop at
    the first other failing row.
    """
    ts = _as_rows(ts, n, "t")
    count = len(ts)
    re, im, abs_err = np.empty((3, count))
    at_origin = ~ts.any(axis=1)
    end, error = count, None
    for start in range(0, count, _CHUNK):
        t = ts[start : start + _CHUNK]
        sl = slice(start, start + len(t))
        try:
            z, abs_err[sl], failures = centered(t)
            re[sl], im[sl] = _rotate(z, _row_dots(t, mu))
        except Exception as exc:  # raised again at each row of the pass
            failures = dict.fromkeys(range(len(t)), exc)
        finite = np.isfinite(re[sl]) & np.isfinite(im[sl])
        for i in np.flatnonzero(~finite).tolist():  # never a silent nan or inf
            failures.setdefault(i, OverflowError("the value is not finite: an intermediate overflows"))
        failed = sorted(i for i in failures if not at_origin[start + i])
        if failed:
            end, error = start + failed[0], failures[failed[0]]
            break
    re[at_origin], im[at_origin], abs_err[at_origin] = 1.0, 0.0, 0.0
    names = np.where(at_origin[:end], CFMethod.CLOSED_FORM.value, method)
    return CFRows(re[:end], im[:end], abs_err[:end], names, error)


def _rotate(z: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^(i phase) z as (re, im), the one phase rotation (of _chunk_rows and
    the lsm drift).  A real z gives the real products (cos z, sin z), a
    complex z the products and sums of Python's complex multiply.  cos and
    sin come from libm (_elementwise); a phase that is not finite (t'mu or
    V t'gamma overflowed) is nan, and _chunk_rows fails any row whose result
    is not finite, so no warning is raised for one."""
    phase = np.where(np.isfinite(phase), phase, np.nan)
    c, s = _elementwise(math.cos, phase), _elementwise(math.sin, phase)
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf, or a sum past the range
        if np.iscomplexobj(z):
            return c * z.real - s * z.imag, c * z.imag + s * z.real
        return c * z, s * z


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
        generator.check_dimension(self.n)
        self.mu.setflags(write=False)


def radial_density(spec: EllipticalSpec, v):
    """Density of the generating variate R at v >= 0, a float or an array of
    them (full-rank specs only): 2 v^(n-1) g(v^2) / M_n with the moment
    integral M_n = int_0^inf z^(n/2-1) g(z) dz; g sees only the entries
    inside the support."""
    vs = np.asarray(v, dtype=float)
    if (vs < 0.0).any():
        raise DomainError("radial_density: v must be >= 0")
    if spec.dispersion.rank < spec.n:
        raise DomainError("radial_density: undefined for rank-deficient sigma")
    gen, n = spec.generator, spec.n
    out = np.zeros(vs.shape)
    inside = ~(vs > gen.support_radius)
    if inside.any():
        from .quadrature import _moment_n

        lead = 2.0 / _moment_n(gen, n)
        w = vs[inside]
        with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf is nan, as in Python
            out[inside] = lead * _power(w, n - 1) * gen.g(w * w)
    return out if np.ndim(v) else float(out)


def closed_form_generator(gen: DensityGenerator, n: int, q: float) -> float:
    """Closed-form characteristic generator phi(q), q = t' Sigma t, from the
    generator's family record: its one-entry call.

    Raises NoClosedFormError for (family, parameter) combinations without
    one; the Hankel route (route="hankel") serves every generator.
    """
    if q < 0.0:
        raise DomainError("closed_form_generator: q must be >= 0")
    return float(gen.closed_form(n, np.array([float(q)]))[0])


def char_generator_rows(
    gen: DensityGenerator, n: int, qs, route: str = "closed"
) -> tuple[np.ndarray, np.ndarray, dict]:
    """phi(q) at every q of the array qs by the route "closed" or "hankel".

    Returns (values, abs_err, failures): abs_err is nan on the closed route
    (no estimate), and failures maps a row to the exception its computation
    raised (its value is nan); a family without a closed form fails every
    row of the closed route with NoClosedFormError.  Each route takes qs
    in one call: the record's array closed form through specfun._call_rows
    (which retries row by row, so a failing row fails alone), the hankel
    route through phi_hankel_rows.
    """
    if route not in ("closed", "hankel"):
        raise DomainError(f"char_generator_rows: unknown route {route!r}")
    qs = np.asarray(qs, dtype=float).reshape(-1)
    if route == "hankel":
        from .quadrature import phi_hankel_rows

        res = phi_hankel_rows(gen, n, np.sqrt(qs))
        return res.value, res.err_est, res.failures
    values, failures = np.full(len(qs), np.nan), {}
    phi, ok = _call_rows(lambda rows, q: gen.closed_form(n, q[:, 0])[:, None],
                         np.arange(len(qs)), qs[:, None], failures)
    values[ok] = phi[:, 0]
    return values, np.full(len(qs), np.nan), failures


def cf_rows(spec: EllipticalSpec, ts, route: str = "closed") -> CFRows:
    """exp(i t'mu) phi(t' Sigma t) at each row t of the (P, n) array ts, in
    order: phi from one call of char_generator_rows per pass of _chunk_rows."""

    def centered(t: np.ndarray):
        return char_generator_rows(spec.generator, spec.n, spec.dispersion.quad_rows(t), route)

    return _chunk_rows(ts, spec.n, spec.mu, route, centered)


def cf(spec: EllipticalSpec, t, route: str = "closed") -> ComplexCF:
    """Characteristic function exp(i t'mu) phi(t' Sigma t) at the point t."""
    return cf_rows(spec, _as_vector(t, spec.n, "t")[None, :], route).row(0)
