"""Stochastic-representation samplers and the Monte-Carlo CF oracle.

Each law has a Sampler whose draw function gives the rows of one chunk from
that chunk's counter-based Philox stream, keyed by (seed, stream id, chunk
index).  Sampler.chunks draws the chunks on the worker pool and passes each
one straight to a reduction, with at most 2 x workers chunks in flight, so
memory does not grow with the draw count: Sampler.csv reduces chunks to CSV
text (sample) and Sampler.empirical_cf_rows to the cos and sin sums of the
empirical CF (the mc route).  Sampler.batch gathers the chunks into one
SampleBatch; the sample_* functions are its per-law forms.  Chunks have
a fixed size and their results come back in chunk order, so every result is
bit-identical for any worker count, and any draw is replayable from its
provenance line.

The oracle is the empirical CF (1/N) sum exp(i t'X_j) of Feuerverger and
Mureika (1977).  It takes a whole grid in one pass over the draws, one chunk
of draws at a time.  For every grid point a chunk gives its sums of cos and
sin of t'x, both from one vectorized tan of the half angle.  The chunk sums
are added in chunk order, so the result does not depend on the worker count.
empirical_cf takes one point of it over a held batch.

Every sampler applies the one matrix root of the spec's Dispersion, its
symmetric root Sigma^(1/2).  The skew-normal and smsn samplers share one
sign-flip draw of centred rows, _skew_normal_chunk, n + 1 normals a row,
each adding mu itself (the smsn sampler after scaling by sqrt(V)).  The
skewmix module is imported by that draw, and the quadrature module by the
uncut CDF tables of custom laws, in s of the mixing expectations' map
quadrature.half_line; no other sampler imports either.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, TypeVar

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
from .generators import DensityGenerator
from .specfun import _elementwise

if TYPE_CHECKING:  # imported by the samplers that use them
    from .skewmix import LSMixtureSpec, MixingLaw, SkewNormalSpec

__all__ = [
    "MAX_COUNT",
    "RngStream",
    "SampleBatch",
    "Sampler",
    "elliptical_sampler",
    "lsm_sampler",
    "skew_normal_sampler",
    "smsn_sampler",
    "sample_elliptical",
    "sample_location_scale_mixture",
    "sample_skew_normal",
    "sample_smsn",
    "empirical_cf",
]

_CHUNK = 1 << 15  # rows per chunk; fixed so worker count cannot matter

# A chunk's Philox key is (seed, stream id << 40 | chunk index): 24 bits of
# stream id and 40 of chunk index fill the second 64-bit word, so every
# (stream, chunk) pair has its own key.
_CHUNK_BITS = 40
_STREAM_BITS = 64 - _CHUNK_BITS
MAX_COUNT = _CHUNK << _CHUNK_BITS  # 2^55 draws per stream

T = TypeVar("T")


@dataclass(frozen=True)
class RngStream:
    """A reproducible counter-based random stream (seed, stream_id), with
    0 <= seed < 2^64 and 0 <= stream_id < 2^24."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise DomainError(f"RngStream: seed must be in [0, 2^64), got {self.seed}")
        if not 0 <= self.stream_id < 1 << _STREAM_BITS:
            raise DomainError(f"RngStream: stream_id must be in [0, 2^24), got {self.stream_id}")

    def chunk_generator(self, chunk: int) -> np.random.Generator:
        if not 0 <= chunk < 1 << _CHUNK_BITS:
            raise DomainError(f"RngStream: chunk must be in [0, 2^40), got {chunk}")
        key = np.array([self.seed, self.stream_id << _CHUNK_BITS | chunk], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _finite(rows: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(rows)):
        raise DomainError("SampleBatch: non-finite entries in data")
    return rows


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
        _finite(self.data)


def _ordered_map(fn: Callable[..., T], items: Iterable, workers: int) -> Iterator[T]:
    """fn(item) for each item, in item order.  With workers > 1 the calls run
    on a thread pool of at most os.cpu_count() threads that holds at most
    twice that many calls at a time, taking items only as earlier calls
    finish."""
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, items)
        return
    items = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(fn, item) for item in itertools.islice(items, 2 * workers))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in itertools.islice(items, 1))
            yield result


def _gather(parts: Iterable[np.ndarray], count: int) -> np.ndarray:
    # copy each chunk into place as it arrives, so the draws are held once
    # rather than as parts plus their concatenation
    out = None
    for idx, part in enumerate(parts):
        if out is None:
            out = np.empty((count,) + part.shape[1:], dtype=part.dtype)
        out[idx * _CHUNK : idx * _CHUNK + len(part)] = part
    return out


@dataclass(frozen=True)
class Sampler:
    """The draws of one law, chunk by chunk: draw(m, generator) gives m rows
    from one chunk's generator.  kind and fingerprint name the law in the
    provenance line."""

    kind: str
    n: int
    draw: Callable[[int, np.random.Generator], np.ndarray]
    fingerprint: str = ""

    def provenance(self, rng: RngStream, count: int) -> str:
        return _provenance(self.kind, rng, count, self.fingerprint)

    def chunks(
        self,
        count: int,
        rng: RngStream,
        workers: int = 1,
        reduce: Optional[Callable[[np.ndarray], T]] = None,
    ) -> Iterator:
        """reduce(rows) for the rows of each chunk of count draws, in chunk
        order (the rows themselves without reduce).  Chunks are drawn and
        reduced on workers threads, at most 2 * workers at a time.  The count
        is checked before any draw; a chunk holding a non-finite draw raises
        SampleBatch's DomainError."""
        if count < 1:
            raise DomainError("count must be >= 1")
        if count > MAX_COUNT:
            raise DomainError(f"count must be <= 2^55 = {MAX_COUNT}, got {count}")

        def job(i: int):
            # chunk i: the rows left, at most _CHUNK, from its own generator
            rows = _finite(self.draw(min(_CHUNK, count - i * _CHUNK), rng.chunk_generator(i)))
            return rows if reduce is None else reduce(rows)

        return _ordered_map(job, range((count + _CHUNK - 1) // _CHUNK), workers)

    def batch(self, count: int, rng: RngStream, workers: int = 1) -> SampleBatch:
        """All count draws as one SampleBatch."""
        data = _gather(self.chunks(count, rng, workers), count)
        return SampleBatch(self.n, count, data, self.provenance(rng, count))

    def csv(
        self,
        count: int,
        rng: RngStream,
        workers: int = 1,
        extra_comments: Optional[list[str]] = None,
    ) -> Iterator[bytes]:
        """count draws as CSV bytes, in parts: '#' comment lines (the
        provenance, then extra_comments), the x1..xn header, and the rows as
        %.17g text, each chunk formatted on the worker pool as it is drawn.
        The count is checked here, before any draw."""
        head = _csv_head(self.provenance(rng, count), self.n, extra_comments)
        return itertools.chain([head], self.chunks(count, rng, workers, _csvout.rows))

    def empirical_cf_rows(self, ts, count: int, rng: RngStream, workers: int = 1) -> CFRows:
        """Monte-Carlo CF estimate (1/N) sum exp(i t'X_j), abs_err = 3/sqrt(N),
        at each row t of the (P, n) array ts from count draws, each chunk
        reduced to its cos and sin sums as it is drawn.  The chunk sums add
        in chunk order, so every worker count gives the same bits.  t = 0
        gives (1, 0) exactly; the count is checked even when every row is the
        origin, and then nothing is drawn.  A point where t'x overflows fails:
        it and the rows after it are dropped, with an OverflowError recorded."""

        def block_sums(points: np.ndarray) -> Iterator[np.ndarray]:
            chunks = self.chunks(count, rng, workers, lambda rows: _block_sums(rows, points))
            return chunks if len(points) else ()

        return _cf_rows(ts, self.n, count, block_sums)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1), bit for bit.  Below 8 columns numpy sums
    each row's squares left to right, as the column sum here does, at an
    eighth of the cost; from 8 columns its pairwise sum takes another order."""
    if x.shape[1] >= 8:
        return np.linalg.norm(x, axis=1)
    sq = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        sq += x[:, j] * x[:, j]
    return np.sqrt(sq, out=sq)


def _unit_sphere_rows(gen: np.random.Generator, m: int, n: int) -> np.ndarray:
    x = gen.standard_normal((m, n))
    norms = _row_norms(x)
    while np.any(norms == 0.0):  # probability ~0; keeps rows well-defined
        bad = norms == 0.0
        x[bad] = gen.standard_normal((int(bad.sum()), n))
        norms = _row_norms(x)
    x /= norms[:, None]
    return x


def _radius_chunk(spec: EllipticalSpec, m: int, g: np.random.Generator) -> np.ndarray:
    """m radii R: the family's own draw, or for a custom generator the
    numeric inversion of its radial CDF, tabulated once per n."""
    gen, n = spec.generator, spec.n
    if gen.radius is not None:
        return gen.radius(n, m, g)
    key = ("radial_cdf", n)
    if key not in gen.moment_cache:
        gen.moment_cache[key] = _cdf_table(lambda v: radial_density(spec, v), 0.0, gen.support_radius)
    return _invert_from_table(gen.moment_cache[key], g.random(m))


def _cdf_table(pdf: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> tuple:
    """Tabulated CDF of a unit-mass density on [lo, hi], pdf its values at
    every entry of a float array: (grid, cdf, to_v), in s of quadrature's
    half_line on [0, top] with the scale quadrature._unit measures on pdf
    and exponent 1, so no support is cut.  The grid:
    200 points growing geometrically over 15 decades from each end, then
    each cell with over 1/1000 of the mass split into equal parts.  The
    cells' masses under pdf(v) |dv/ds|, weight 0 at v = inf, take one
    lockstep quadrature, and the split cells' parts a second one.
    """
    from .quadrature import _unit, adaptive_rows, half_line

    top, to_v, _ = half_line(lo, hi, _unit(pdf, lo, hi))

    def density(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        v, num, den = to_v(s)
        out, inner = np.zeros(s.shape), v < math.inf
        out[inner] = pdf(v[inner]) * num[inner] / den[inner]
        return out

    def masses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mass, _, _, failures = adaptive_rows(density, len(a), a, b, 1e-12, 1e-10, 64)
        if failures:
            raise failures[min(failures)]
        return mass

    # the math module's powers, whose bits do not follow numpy's SIMD dispatch
    steps = top * _elementwise(lambda e: 10.0**e, np.linspace(-15.0, 0.0, 200))
    grid = np.unique(np.concatenate([steps, top - steps]))  # 0 and top included
    mass = masses(grid[:-1], grid[1:])
    total = np.cumsum(mass)[-1]  # summed in grid order, as the cdf is
    if not total > 0.0:
        raise DomainError("sampling: density mass is zero on the CDF grid")
    parts = np.ceil(mass * (1e3 / total)).clip(1.0).astype(int)
    knots = np.concatenate(([0], np.cumsum(parts)))
    grid = np.interp(np.arange(knots[-1] + 1.0), knots, grid)  # cell i in equal parts
    mass, split = np.repeat(mass, parts), np.repeat(parts > 1, parts)
    mass[split] = masses(grid[:-1][split], grid[1:][split])
    cdf = np.concatenate(([0.0], np.cumsum(mass)))  # summed in grid order
    return grid, cdf / cdf[-1], to_v


def _invert_from_table(table: tuple, u: np.ndarray) -> np.ndarray:
    # s interpolated in the table and mapped to v; an s that rounds up to 1
    # in the last cell of an infinite support takes the float below it
    grid, cdf, to_v = table
    return to_v(np.minimum(np.interp(u, cdf, grid), np.nextafter(1.0, 0.0)))[0]


def elliptical_sampler(spec: EllipticalSpec) -> Sampler:
    """Rows mu + R Sigma^(1/2) U, R and U independent; Sigma must have full
    rank, since U is uniform on the sphere of R^n."""
    if spec.dispersion.rank < spec.n:
        raise DomainError(
            f"elliptical_sampler: sigma has rank {spec.dispersion.rank} < {spec.n}; "
            "draws need full rank"
        )
    s_root = spec.dispersion.sym_root

    def draw(m: int, g: np.random.Generator) -> np.ndarray:
        u = _unit_sphere_rows(g, m, spec.n)
        u *= _radius_chunk(spec, m, g)[:, None]
        x = u @ s_root
        x += spec.mu
        return x

    fp = _fingerprint(_gen_parts(spec.generator), spec.n, spec.mu, spec.sigma)
    return Sampler("elliptical", spec.n, draw, fp)


def sample_elliptical(spec: EllipticalSpec, count: int, rng: RngStream, workers: int = 1) -> SampleBatch:
    """count draws of elliptical_sampler(spec) as one batch."""
    return elliptical_sampler(spec).batch(count, rng, workers)


def lsm_sampler(spec: LSMixtureSpec) -> Sampler:
    """Rows mu + V gamma + sqrt(V) Sigma^(1/2) Z, V independent of Z."""
    s_root = spec.dispersion.sym_root

    def draw(m: int, g: np.random.Generator) -> np.ndarray:
        z = _unit_sphere_rows(g, m, spec.n)
        z *= _radius_chunk(spec.base, m, g)[:, None]
        v = spec.mixing.draw(m, g)
        y = z @ s_root
        y *= np.sqrt(v)[:, None]
        x = v[:, None] * spec.gamma
        x += spec.mu
        x += y  # (mu + V gamma) + sqrt(V) S z
        return x

    fp = _fingerprint(
        _gen_parts(spec.base.generator), spec.n, spec.mu, spec.gamma, spec.sigma,
        spec.mixing.parts,
    )
    return Sampler("lsm", spec.n, draw, fp)


def sample_location_scale_mixture(
    spec: LSMixtureSpec, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """count draws of lsm_sampler(spec) as one batch."""
    return lsm_sampler(spec).batch(count, rng, workers)


def _skew_normal_chunk(spec: SkewNormalSpec, m: int, g: np.random.Generator) -> np.ndarray:
    # m centred rows (no mu) by a sign flip: a normal row y and a latent
    # alpha'y + eps with independent noise eps; the rows whose latent is not
    # positive are negated, which is the normal conditioned on a positive
    # latent (Azzalini and Dalla Valle 1996).  y is w for half_root, whose
    # rows then take the root, and w Sigma^(1/2) for full_sigma.
    from .skewmix import Parametrization

    s_root = spec.dispersion.sym_root
    half = spec.parametrization is Parametrization.HALF_ROOT
    y = g.standard_normal((m, spec.n))
    if not half:
        y = y @ s_root
    flip = (y @ spec.alpha + g.standard_normal(m)) <= 0.0
    np.negative(y, out=y, where=flip[:, None])
    return y @ s_root if half else y


def skew_normal_sampler(spec: SkewNormalSpec) -> Sampler:
    """Sign-flip draws from the skew-normal law (either parametrization)."""

    def draw(m: int, g: np.random.Generator) -> np.ndarray:
        x = _skew_normal_chunk(spec, m, g)
        x += spec.mu
        return x

    fp = _fingerprint(spec.n, spec.mu, spec.sigma, spec.alpha, spec.parametrization.value)
    return Sampler("skew_normal", spec.n, draw, fp)


def sample_skew_normal(
    spec: SkewNormalSpec, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """count draws of skew_normal_sampler(spec) as one batch."""
    return skew_normal_sampler(spec).batch(count, rng, workers)


def smsn_sampler(spec: SkewNormalSpec, mixing: MixingLaw) -> Sampler:
    """Scale mixture of skew-normals: mu + sqrt(V) X, X skew-normal(0, Sigma, alpha)."""

    def draw(m: int, g: np.random.Generator) -> np.ndarray:
        x = _skew_normal_chunk(spec, m, g)
        x *= np.sqrt(mixing.draw(m, g))[:, None]
        x += spec.mu
        return x

    fp = _fingerprint(
        spec.n, spec.mu, spec.sigma, spec.alpha, spec.parametrization.value,
        mixing.parts,
    )
    return Sampler("smsn", spec.n, draw, fp)


def sample_smsn(
    spec: SkewNormalSpec, mixing: MixingLaw, count: int, rng: RngStream, workers: int = 1
) -> SampleBatch:
    """count draws of smsn_sampler(spec, mixing) as one batch."""
    return smsn_sampler(spec, mixing).batch(count, rng, workers)


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


def _block_sums(block: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(P, 2): the sums of cos and sin of t'x over the draws x of the block,
    for each row t of points."""
    sums, phases = np.empty((len(points), 2)), np.empty(len(block))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is the check
        for i, t in enumerate(points):
            cos, sin = _cos_sin(np.matmul(block, t, out=phases))
            sums[i] = cos.sum(), sin.sum()
    return sums


def _cf_rows(
    ts, n: int, count: int, block_sums: Callable[[np.ndarray], Iterable[np.ndarray]]
) -> CFRows:
    """The empirical CF at the rows of ts from count draws, where
    block_sums(points) gives _block_sums of each block of draws, in block
    order, for the nonzero rows of ts."""
    ts = _as_rows(ts, n, "t")
    live = np.flatnonzero(ts.any(axis=1))
    total = np.zeros((len(live), 2))
    for part in block_sums(ts[live]):  # in block order: the same float adds for any worker count
        total += part
    re, im = np.full(len(ts), float(count)), np.zeros(len(ts))  # origin: sum of cos 0
    re[live], im[live] = total.T
    bad = ~np.isfinite(re + im)
    end = int(bad.argmax()) if bad.any() else len(ts)
    return CFRows(
        re[:end] / count,
        im[:end] / count,
        np.full(end, 3.0 / math.sqrt(count)),
        np.full(end, CFMethod.MONTE_CARLO.value),
        OverflowError("empirical_cf: the phase t'x overflows") if end < len(ts) else None,
    )


def empirical_cf(batch: SampleBatch, t) -> ComplexCF:
    """Monte-Carlo CF estimate (1/N) sum exp(i t'X_j), abs_err = 3/sqrt(N):
    Sampler.empirical_cf_rows's sums at one point, over the batch's blocks
    of _CHUNK draws in block order."""

    def block_sums(points: np.ndarray) -> Iterator[np.ndarray]:
        return (_block_sums(batch.data[s:s + _CHUNK], points) for s in range(0, batch.count, _CHUNK))

    return _cf_rows(_as_vector(t, batch.n, "t")[None, :], batch.n, batch.count, block_sums).row(0)


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
    # a named family is its parameters; a custom profile adds its probe values
    parts = (gen.family.value, tuple(sorted(gen.params.items())), gen.support_radius)
    return parts + (gen.probe,) if gen.probe else parts


def _provenance(kind: str, rng: RngStream, count: int, fingerprint: str = "") -> str:
    spec_part = f" spec={fingerprint}" if fingerprint else ""
    return (
        f"kind={kind}{spec_part} seed={rng.seed} stream={rng.stream_id} "
        f"count={count} chunk={_CHUNK}"
    )


def _csv_head(provenance: str, n: int, extra_comments: Optional[list[str]]) -> bytes:
    """The '#' comment lines, provenance first, and the x1..xn header."""
    comments = [provenance, *(extra_comments or [])]
    head = "".join(f"# {line}\n" for line in comments)
    return (head + ",".join(f"x{i + 1}" for i in range(n)) + "\n").encode()
