"""Stochastic-representation samplers and the Monte-Carlo CF oracle.

Sampling is chunked over counter-based Philox streams keyed by
(seed, derived stream id), so batches are bit-identical for any worker
count and any draw is replayable from its provenance line.

The oracle is the empirical CF (1/N) sum exp(i t'X_j) of Feuerverger and
Mureika (1977).  empirical_cf_rows takes a whole grid in one pass over the
draws, in the same blocks: one job per block sums cos and sin of t'x for
every grid point, both from one vectorized tan of the half angle, and the
block sums are added in block order, so the result does not depend on the
worker count.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _csvout
from .elliptical import (
    CFMethod,
    CFRows,
    ComplexCF,
    EllipticalSpec,
    _as_rows,
    _as_vector,
    radial_density,
)
from .errors import DomainError
from .generators import DensityGenerator, Family
from .quadrature import adaptive_interval
from .skewmix import (
    LSMixtureSpec,
    MixingKind,
    MixingLaw,
    Parametrization,
    SkewNormalSpec,
    mixing_weights,
)

__all__ = [
    "RngStream",
    "SampleBatch",
    "sample_sphere",
    "sample_radius",
    "sample_elliptical",
    "sample_location_scale_mixture",
    "sample_skew_normal",
    "sample_smsn",
    "empirical_cf",
    "empirical_cf_rows",
    "batch_to_csv",
]

_CHUNK = 1 << 15  # rows per stream; fixed so worker count cannot matter

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """A reproducible counter-based random stream (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def chunk_generator(self, chunk: int) -> np.random.Generator:
        # derived stream: disjoint by construction for chunk < 2^40
        sub = ((self.stream_id & _MASK64) << 40) ^ (chunk & ((1 << 40) - 1))
        key = np.array([self.seed & _MASK64, sub & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SampleBatch:
    """count x n draws with provenance (seed/stream layout identifier)."""

    n: int
    count: int
    data: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        if self.count < 1:
            raise DomainError("SampleBatch: count must be >= 1")
        if self.data.shape != (self.count, self.n):
            raise DomainError(
                f"SampleBatch: data shape {self.data.shape} != ({self.count}, {self.n})"
            )
        if not np.all(np.isfinite(self.data)):
            raise DomainError("SampleBatch: non-finite entries in data")


def _run_chunks(
    count: int,
    rng: RngStream,
    workers: int,
    chunk_fn: Callable[[int, int, np.random.Generator], np.ndarray],
) -> np.ndarray:
    if count < 1:
        raise DomainError("count must be >= 1")
    ranges = [(i, min(_CHUNK, count - i * _CHUNK)) for i in range((count + _CHUNK - 1) // _CHUNK)]

    def job(arg):
        idx, m = arg
        return chunk_fn(idx, m, rng.chunk_generator(idx))

    def gather(parts) -> np.ndarray:
        # copy each chunk into place as it arrives, so the draws are held
        # once rather than as parts plus their concatenation
        out = None
        for idx, part in enumerate(parts):
            if out is None:
                out = np.empty((count,) + part.shape[1:], dtype=part.dtype)
            out[idx * _CHUNK : idx * _CHUNK + len(part)] = part
        return out

    if workers <= 1:
        return gather(map(job, ranges))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return gather(pool.map(job, ranges))


def _unit_sphere_rows(gen: np.random.Generator, m: int, n: int) -> np.ndarray:
    x = gen.standard_normal((m, n))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms == 0.0):  # probability ~0; keeps rows well-defined
        bad = norms == 0.0
        x[bad] = gen.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]


def sample_sphere(n: int, count: int, rng: RngStream, workers: int = 1) -> SampleBatch:
    """Uniform draws on the unit sphere surface in R^n."""
    data = _run_chunks(count, rng, workers, lambda i, m, g: _unit_sphere_rows(g, m, n))
    return SampleBatch(n, count, data, _provenance("sphere", rng, count))


def _sample_ball(n: int, count: int, rng: RngStream, workers: int = 1) -> SampleBatch:
    """Uniform draws inside the unit ball: radius CDF inverse U^(1/n)."""

    def chunk(i: int, m: int, g: np.random.Generator) -> np.ndarray:
        u = _unit_sphere_rows(g, m, n)
        r = g.random(m) ** (1.0 / n)
        return r[:, None] * u

    data = _run_chunks(count, rng, workers, chunk)
    return SampleBatch(n, count, data, _provenance("ball", rng, count))


def _radius_chunk(
    spec: EllipticalSpec, m: int, g: np.random.Generator
) -> np.ndarray:
    gen = spec.generator
    n = spec.n
    p = gen.params
    fam = gen.family
    if fam is Family.NORMAL:
        return np.sqrt(g.chisquare(n, size=m))
    if fam is Family.UNIFORM_BALL:
        return g.random(m) ** (1.0 / n)
    if fam is Family.PEARSON_II:
        return np.sqrt(g.beta(0.5 * n, p["m"] + 1.0, size=m))
    if fam is Family.GENERALIZED_T:
        g1 = g.gamma(0.5 * n, 1.0, size=m)
        g2 = g.gamma(0.5 * p["m"], 1.0, size=m)
        return np.sqrt(p["s"] * g1 / g2)
    if fam is Family.PEARSON_VII:
        g1 = g.gamma(0.5 * n, 1.0, size=m)
        g2 = g.gamma(p["N"] - 0.5 * n, 1.0, size=m)
        return np.sqrt(p["s"] * g1 / g2)
    if fam is Family.KOTZ:
        q = (2.0 * p["N"] + n - 2.0) / (2.0 * p["s"])
        z = (g.gamma(q, 1.0, size=m) / p["r"]) ** (1.0 / p["s"])
        return np.sqrt(z)
    if fam is Family.BESSEL:
        v = g.gamma(p["a"] + 0.5 * n, 2.0 * p["beta"] ** 2, size=m)
        return np.sqrt(v * g.chisquare(n, size=m))
    # custom: numeric inversion of the radial CDF, tabulated once per n
    key = ("radial_cdf", n)
    if key not in gen.moment_cache:
        pdf = lambda v: radial_density(spec, v)
        gen.moment_cache[key] = _cdf_table(pdf, 0.0, gen.support_radius)
    return _invert_from_table(gen.moment_cache[key], g.random(m))


def _cdf_table(
    pdf: Callable[[float], float], lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated CDF of a unit-mass density on [lo, hi].

    An infinite hi is cut where the mass of [hi, 4 hi] drops below 1e-11,
    searching upward from max(lo, 1).
    """
    if math.isinf(hi):
        hi = max(lo, 1.0)
        while hi < 1e9:
            tail, _, _ = adaptive_interval(pdf, hi, 4.0 * hi, 1e-13, 1e-13, 256)
            if tail < 1e-11:
                break
            hi *= 2.0
    grid = np.unique(
        np.concatenate([np.linspace(lo, hi, 400), np.geomspace(max(lo, hi * 1e-6), hi, 200)])
    )
    cdf = np.zeros_like(grid)
    acc = 0.0
    for i in range(1, len(grid)):
        seg, _, _ = adaptive_interval(pdf, grid[i - 1], grid[i], 1e-12, 1e-10, 64)
        acc += seg
        cdf[i] = acc
    if cdf[-1] <= 0.0:
        raise DomainError("sampling: density mass is zero on the CDF grid")
    cdf /= cdf[-1]
    return grid, cdf


def _invert_from_table(table: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    grid, cdf = table
    idx = np.searchsorted(cdf, u, side="left").clip(1, len(grid) - 1)
    c0, c1 = cdf[idx - 1], cdf[idx]
    g0, g1 = grid[idx - 1], grid[idx]
    frac = np.where(c1 > c0, (u - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.5)
    return g0 + frac.clip(0.0, 1.0) * (g1 - g0)


def sample_radius(spec: EllipticalSpec, count: int, rng: RngStream, workers: int = 1) -> np.ndarray:
    """Draws of the generating variate R for this spec.

    Named families use exact distributional shortcuts (chi-square, beta,
    gamma-ratio, generalized-gamma, gamma scale mixtures); custom
    generators invert a tabulated radial CDF.
    """
    return _run_chunks(count, rng, workers, lambda i, m, g: _radius_chunk(spec, m, g))


def sample_elliptical(spec: EllipticalSpec, count: int, rng: RngStream, workers: int = 1) -> SampleBatch:
    """Rows mu + R A'U with A'A = Sigma, R and U independent."""
    a = spec.dispersion.chol_factor()  # raises for rank-deficient sigma

    def chunk(i: int, m: int, g: np.random.Generator) -> np.ndarray:
        u = _unit_sphere_rows(g, m, spec.n)
        r = _radius_chunk(spec, m, g)
        return spec.mu + (r[:, None] * u) @ a

    fp = _fingerprint(_gen_parts(spec.generator), spec.n, spec.mu, spec.sigma)
    data = _run_chunks(count, rng, workers, chunk)
    return SampleBatch(spec.n, count, data, _provenance("elliptical", rng, count, fp))


def _mixing_parts(law: MixingLaw):
    return (
        law.kind.value,
        law.v0,
        law.points,
        law.weights,
        law.shape,
        law.scale,
    )


def _mixing_chunk(law: MixingLaw, m: int, g: np.random.Generator) -> np.ndarray:
    if law.kind is MixingKind.DEGENERATE:
        return np.full(m, law.v0)
    if law.kind is MixingKind.FINITE_DISCRETE:
        return g.choice(law.points, p=law.weights, size=m)
    if law.kind is MixingKind.INVERSE_GAMMA:
        return 1.0 / g.gamma(law.shape, 1.0 / law.scale, size=m)
    # custom density: inversion of a tabulated CDF
    if law._cdf_table is None:
        law._cdf_table = _cdf_table(law.pdf, *law.support)
    return _invert_from_table(law._cdf_table, g.random(m))


def sample_location_scale_mixture(
    spec: LSMixtureSpec, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """Rows mu + V gamma + sqrt(V) Sigma^(1/2) Z, V independent of Z."""
    s_root = spec.dispersion.sym_root

    def chunk(i: int, m: int, g: np.random.Generator) -> np.ndarray:
        u = _unit_sphere_rows(g, m, spec.n)
        r = _radius_chunk(spec.base, m, g)
        v = _mixing_chunk(spec.mixing, m, g)
        z = r[:, None] * u
        return spec.mu + v[:, None] * spec.gamma + np.sqrt(v)[:, None] * (z @ s_root)

    fp = _fingerprint(
        _gen_parts(spec.base.generator), spec.n, spec.mu, spec.gamma, spec.sigma,
        _mixing_parts(spec.mixing),
    )
    data = _run_chunks(count, rng, workers, chunk)
    return SampleBatch(spec.n, count, data, _provenance("lsm", rng, count, fp))


def _skew_normal_chunk(spec: SkewNormalSpec, m: int, g: np.random.Generator) -> np.ndarray:
    # conditioning mechanism: keep the normal draw when the latent
    # alpha-projection plus independent noise is positive (acceptance 1/2)
    n = spec.n
    s_root = spec.dispersion.sym_root
    alpha = spec.alpha
    rows = []
    have = 0
    while have < m:
        block = max(64, int(2.3 * (m - have)))
        w = g.standard_normal((block, n))
        eps = g.standard_normal(block)
        if spec.parametrization is Parametrization.HALF_ROOT:
            keep = w[(w @ alpha + eps) > 0.0]
            keep = keep @ s_root
        else:
            y = w @ s_root
            keep = y[(y @ alpha + eps) > 0.0]
        rows.append(keep[: m - have])
        have += len(rows[-1])
    return spec.mu + np.concatenate(rows, axis=0)


def sample_skew_normal(
    spec: SkewNormalSpec, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """Rejection draws from the skew-normal law (either parametrization)."""
    fp = _fingerprint(spec.n, spec.mu, spec.sigma, spec.alpha, spec.parametrization.value)
    data = _run_chunks(count, rng, workers, lambda i, m, g: _skew_normal_chunk(spec, m, g))
    return SampleBatch(spec.n, count, data, _provenance("skew_normal", rng, count, fp))


def sample_smsn(
    spec: SkewNormalSpec, mixing: MixingLaw, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """Scale mixture of skew-normals: mu + sqrt(k(xi)) X, X skew-normal(0, Sigma, alpha)."""
    centered = SkewNormalSpec(
        np.zeros(spec.n), spec.sigma, spec.alpha, spec.parametrization
    )

    def chunk(i: int, m: int, g: np.random.Generator) -> np.ndarray:
        x = _skew_normal_chunk(centered, m, g)
        xi = _mixing_chunk(mixing, m, g)
        return spec.mu + np.sqrt(mixing_weights(mixing, xi))[:, None] * x

    fp = _fingerprint(
        spec.n, spec.mu, spec.sigma, spec.alpha, spec.parametrization.value,
        _mixing_parts(mixing),
    )
    data = _run_chunks(count, rng, workers, chunk)
    return SampleBatch(spec.n, count, data, _provenance("smsn", rng, count, fp))


def _cos_sin(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the phases from one tan of the half angle.

    With tau = tan(phi/2) and r = 1/(1 + tau^2): cos phi = 2r - 1 and
    sin phi = 2 tau r.  numpy's tan is vectorized where its cos and sin may
    run element by element through libm; the absolute error stays within a
    few eps for any finite phase.  Overwrites phases.
    """
    tau = np.tan(np.multiply(phases, 0.5, out=phases), out=phases)
    r = np.multiply(tau, tau)
    r += 1.0
    np.divide(1.0, r, out=r)
    sin = np.multiply(tau, r, out=tau)
    sin *= 2.0
    cos = np.multiply(r, 2.0, out=r)
    cos -= 1.0
    return cos, sin


def empirical_cf_rows(batch: SampleBatch, ts, workers: int = 1) -> CFRows:
    """Monte-Carlo CF estimate (1/N) sum exp(i t'X_j), abs_err = 3/sqrt(N),
    at each row t of the (P, n) array ts, in one pass over the batch.

    Each job takes one _CHUNK block of draws and returns, for every grid
    point, the block's sums of cos and sin of t'x; the block sums are added
    in block order, so the result is the same for any worker count.  t = 0 gives (1, 0) without a pass.  A point where t'x
    overflows is the failing row: it and the rows after it are dropped and
    an OverflowError is recorded.
    """
    ts = _as_rows(ts, batch.n, "t")
    live = np.flatnonzero(ts.any(axis=1))
    points = ts[live]

    def block_sums(start: int) -> np.ndarray:
        block = batch.data[start:start + _CHUNK]
        sums = np.empty((len(points), 2))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is the check
            for i, t in enumerate(points):
                cos, sin = _cos_sin(block @ t)
                sums[i] = cos.sum(), sin.sum()
        return sums

    starts = range(0, batch.count, _CHUNK) if len(live) else ()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(block_sums, starts))
    else:
        parts = map(block_sums, starts)
    total = np.zeros((len(live), 2))
    for part in parts:  # in block order: the same float adds for any worker count
        total += part
    re, im = np.full(len(ts), float(batch.count)), np.zeros(len(ts))  # origin: sum of cos 0
    re[live], im[live] = total.T
    bad = ~np.isfinite(re + im)
    end = int(bad.argmax()) if bad.any() else len(ts)
    return CFRows(
        re[:end] / batch.count,
        im[:end] / batch.count,
        np.full(end, 3.0 / math.sqrt(batch.count)),
        np.full(end, CFMethod.MONTE_CARLO.value),
        OverflowError("empirical_cf: the phase t'x overflows") if end < len(ts) else None,
    )


def empirical_cf(batch: SampleBatch, t) -> ComplexCF:
    """Monte-Carlo CF estimate (1/N) sum exp(i t'X_j), abs_err = 3/sqrt(N)."""
    return empirical_cf_rows(batch, _as_vector(t, batch.n, "t")[None, :]).row(0)


def _fingerprint(*parts) -> str:
    # short stable hash of the defining data, for replayable provenance
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()[:12]


def _gen_parts(gen: DensityGenerator):
    return (gen.family.value, tuple(sorted(gen.params.items())), gen.support_radius)


def _provenance(kind: str, rng: RngStream, count: int, fingerprint: str = "") -> str:
    spec_part = f" spec={fingerprint}" if fingerprint else ""
    return (
        f"kind={kind}{spec_part} seed={rng.seed} stream={rng.stream_id} "
        f"count={count} chunk={_CHUNK}"
    )


def batch_to_csv(batch: SampleBatch, path, extra_comments: Optional[list[str]] = None) -> None:
    """Write the batch as CSV ('-' = stdout): '#' provenance comments, x1..xn header, rows."""
    comments = [batch.provenance, *(extra_comments or [])]
    head = "".join(f"# {line}\n" for line in comments)
    head += ",".join(f"x{i + 1}" for i in range(batch.n)) + "\n"
    blocks = (_csvout.rows(batch.data[s:s + _CHUNK]) for s in range(0, batch.count, _CHUNK))
    _csvout.write(path, itertools.chain([head.encode()], blocks))
