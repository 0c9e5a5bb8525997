"""Batch CLI: evaluate, cross-compare and sample distribution specs.

Distribution specs are JSON files (strict schema, version field
``schema: 1``); grids are JSON axis/list descriptions; results are CSV
with '#'-prefixed provenance comments.  Exit codes are a stable contract:
0 success, 2 spec/config error, 3 numeric failure, 4 tolerance exceedance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import elliptical as el
from . import generators as gn
from . import sampling as sp
from . import skewmix as sk
from .errors import (
    ConvergenceError,
    DomainError,
    EllipcfError,
    NoClosedFormError,
    SpecValidationError,
)

__all__ = ["main", "RunConfig", "load_spec", "parse_grid"]

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_NUMERIC_ERROR = 3
EXIT_TOLERANCE_ERROR = 4

_KINDS = ("elliptical", "lsm", "gse_skew_normal", "skew_normal", "smsn", "smu")
_ROUTES = ("closed", "hankel", "mc")
_NUMERIC_ERRORS = (ConvergenceError, ArithmeticError)  # exit 3; other errors exit 2

_BLOCK = 1 << 12  # grid points per formatted block of output rows


@dataclass
class RunConfig:
    command: str
    spec_path: str
    grid: Optional[dict] = None
    routes: tuple[str, ...] = ("closed",)
    mc_count: int = 100000
    seed: int = 0
    out_path: str = "-"
    workers: int = 1
    tol_analytic: float = 1e-6
    mc_band: float = 4.0
    tol_overrides: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Spec parsing (strict: unknown fields are errors)
# ---------------------------------------------------------------------------


def _check_fields(obj: dict, required: set[str], optional: set[str], path: str) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise SpecValidationError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise SpecValidationError(f"{path}.{key}: missing required field")


def _number(value, path: str) -> float:
    """A JSON number as a float; null, strings and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(f"{path}: expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer past float range
        raise SpecValidationError(f"{path}: number out of range") from exc


def _integer(value, path: str) -> int:
    """A JSON number with an integral value (3 or 3.0) as an int."""
    number = _number(value, path)
    if not number.is_integer():
        raise SpecValidationError(f"{path}: expected an integer, got {json.dumps(value)}")
    return int(number)


def _number_list(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise SpecValidationError(f"{path}: expected a list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_float_list(value, length: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != length:
        raise SpecValidationError(f"{path}: expected a list of {length} numbers")
    try:
        return np.array([_number(v, path) for v in value])
    except SpecValidationError as exc:
        raise SpecValidationError(f"{path}: non-numeric entry") from exc


def _parse_sigma(value, n: int, path: str) -> np.ndarray:
    flat = _as_float_list(value, n * n, path)
    return flat.reshape(n, n)


def _parse_generator(obj, n: int, path: str = "generator") -> gn.DensityGenerator:
    if not isinstance(obj, dict):
        raise SpecValidationError(f"{path}: expected an object")
    _check_fields(obj, {"family"}, {"params"}, path)
    family = obj["family"]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SpecValidationError(f"{path}.params: expected an object")

    def need(*keys: str) -> list[float]:
        for key in params:
            if key not in keys:
                raise SpecValidationError(f"{path}.params.{key}: unknown parameter")
        for key in keys:
            if key not in params:
                raise SpecValidationError(f"{path}.params.{key}: missing parameter")
        return [_number(params[key], f"{path}.params.{key}") for key in keys]

    try:
        if family == "normal":
            need()
            return gn.normal_generator()
        if family == "uniform_ball":
            need()
            return gn.uniform_ball_generator()
        if family == "generalized_t":
            s, m = need("s", "m")
            return gn.generalized_t_generator(n, s, _integer(m, f"{path}.params.m"))
        if family == "pearson_ii":
            return gn.pearson_ii_generator(*need("m"))
        if family == "pearson_vii":
            return gn.pearson_vii_generator(*need("N", "s"))
        if family == "kotz":
            return gn.kotz_generator(*need("N", "r", "s"))
        if family == "bessel":
            return gn.bessel_generator(*need("a", "beta"))
    except DomainError as exc:
        raise SpecValidationError(f"{path}.params: {exc}") from exc
    raise SpecValidationError(f"{path}.family: unknown family {family!r}")


def _parse_mixing(obj, path: str = "mixing") -> sk.MixingLaw:
    if not isinstance(obj, dict):
        raise SpecValidationError(f"{path}: expected an object")
    kind = obj.get("kind")
    try:
        if kind == "degenerate":
            _check_fields(obj, {"kind", "v0"}, set(), path)
            return sk.MixingLaw.degenerate(_number(obj["v0"], f"{path}.v0"))
        if kind == "finite_discrete":
            _check_fields(obj, {"kind", "points", "weights"}, set(), path)
            return sk.MixingLaw.finite_discrete(
                _number_list(obj["points"], f"{path}.points"),
                _number_list(obj["weights"], f"{path}.weights"),
            )
        if kind == "inverse_gamma":
            _check_fields(obj, {"kind", "shape", "scale"}, set(), path)
            return sk.MixingLaw.inverse_gamma(
                _number(obj["shape"], f"{path}.shape"), _number(obj["scale"], f"{path}.scale")
            )
    except DomainError as exc:
        raise SpecValidationError(f"{path}: {exc}") from exc
    raise SpecValidationError(f"{path}.kind: unknown mixing kind {kind!r}")


@dataclass
class ParsedSpec:
    kind: str
    n: int
    sha256: str
    elliptical: Optional[el.EllipticalSpec] = None
    lsm: Optional[sk.LSMixtureSpec] = None
    skew_normal: Optional[sk.SkewNormalSpec] = None
    mixing: Optional[sk.MixingLaw] = None


def load_spec(path: str) -> ParsedSpec:
    """Load and validate a distribution spec JSON file."""
    try:
        with open(path) as fh:
            raw = fh.read()
        obj = json.loads(raw)
    except OSError as exc:
        raise SpecValidationError(f"spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"spec file: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise SpecValidationError("spec: top level must be an object")
    sha = hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    if obj.get("schema") != 1:
        raise SpecValidationError("schema: must be 1")
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise SpecValidationError(f"kind: unknown kind {kind!r} (expected one of {_KINDS})")
    base_fields = {"schema", "kind", "n", "mu", "sigma"}
    n = _integer(obj.get("n"), "n")
    if n < 1:
        raise SpecValidationError("n: must be >= 1")

    try:
        if kind in ("elliptical", "smu"):
            _check_fields(obj, base_fields | {"generator"}, set(), "spec")
            mu = _as_float_list(obj["mu"], n, "mu")
            sigma = _parse_sigma(obj["sigma"], n, "sigma")
            gen = _parse_generator(obj["generator"], n)
            return ParsedSpec(kind, n, sha, elliptical=el.EllipticalSpec(n, mu, sigma, gen))
        if kind == "lsm":
            _check_fields(obj, base_fields | {"generator", "gamma", "mixing"}, set(), "spec")
            mu = _as_float_list(obj["mu"], n, "mu")
            gamma = _as_float_list(obj["gamma"], n, "gamma")
            sigma = _parse_sigma(obj["sigma"], n, "sigma")
            gen = _parse_generator(obj["generator"], n)
            mixing = _parse_mixing(obj["mixing"])
            base = el.EllipticalSpec(n, np.zeros(n), np.eye(n), gen)
            return ParsedSpec(
                kind, n, sha, lsm=sk.LSMixtureSpec(base, mu, gamma, sigma, mixing)
            )
        # skew-normal kinds
        extra = {"alpha"}
        optional = {"parametrization"}
        if kind == "smsn":
            extra = {"alpha", "mixing"}
        _check_fields(obj, base_fields | extra, optional, "spec")
        mu = _as_float_list(obj["mu"], n, "mu")
        sigma = _parse_sigma(obj["sigma"], n, "sigma")
        alpha = _as_float_list(obj["alpha"], n, "alpha")
        par_name = obj.get("parametrization", "half_root")
        try:
            par = sk.Parametrization(par_name)
        except ValueError as exc:
            raise SpecValidationError(
                f"parametrization: unknown value {par_name!r}"
            ) from exc
        sn = sk.SkewNormalSpec(mu, sigma, alpha, par)
        mixing = _parse_mixing(obj["mixing"]) if kind == "smsn" else None
        return ParsedSpec(kind, n, sha, skew_normal=sn, mixing=mixing)
    except DomainError as exc:
        raise SpecValidationError(str(exc)) from exc


def parse_grid(text: str, n: int) -> np.ndarray:
    """Parse a grid description (JSON text or @file reference) into a (P, n)
    array of finite t-vectors, one per row."""
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecValidationError(f"grid file: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"grid: invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise SpecValidationError("grid: expected an object")
    kind = obj.get("kind")
    if kind == "axis":
        _check_fields(obj, {"kind", "index", "start", "stop", "num"}, set(), "grid")
        index = _integer(obj["index"], "grid.index")
        if not 0 <= index < n:
            raise SpecValidationError(f"grid.index: must be in [0, {n})")
        num = _integer(obj["num"], "grid.num")
        if num < 1:
            raise SpecValidationError("grid.num: must be >= 1")
        ends = []
        for key in ("start", "stop"):
            ends.append(_number(obj[key], f"grid.{key}"))
            if not math.isfinite(ends[-1]):
                raise SpecValidationError(f"grid.{key}: non-finite value")
        points = np.zeros((num, n))
        points[:, index] = np.linspace(*ends, num)
        return points
    if kind == "list":
        _check_fields(obj, {"kind", "points"}, set(), "grid")
        pts = obj["points"]
        if not isinstance(pts, list) or not pts:
            raise SpecValidationError("grid.points: must be a nonempty list of vectors")
        try:
            points = np.array(pts, dtype=float)
        except (TypeError, ValueError, OverflowError):
            points = None
        if (  # numpy also reads numeric strings, booleans and null (as nan)
            points is None
            or points.shape != (len(pts), n)
            or not set(map(type, itertools.chain.from_iterable(pts))) <= {int, float}
        ):  # name the first bad point
            points = np.array(
                [_as_float_list(p, n, f"grid.points[{i}]") for i, p in enumerate(pts)]
            )
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            raise SpecValidationError(f"grid.points[{int(finite.argmin())}]: non-finite entry")
        return points
    raise SpecValidationError(f"grid.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Route evaluators
# ---------------------------------------------------------------------------


def _analytic_evaluator(spec: ParsedSpec, route: str) -> Callable[[np.ndarray], el.CFRows]:
    """The closed or the hankel route: (P, n) grid -> CFRows."""
    kind = spec.kind
    if kind == "elliptical" or (kind, route) == ("smu", "closed"):
        return lambda ts: el.cf_rows(spec.elliptical, ts, route=route)
    if kind == "lsm":
        return lambda ts: sk.cf_location_scale_mixture_rows(spec.lsm, ts, route=route)
    if kind == "smu":
        return partial(_smu_rows, spec.elliptical)
    if route == "hankel":
        raise SpecValidationError(f"routes: 'hankel' is not available for kind {kind!r}")
    if kind == "skew_normal":
        return lambda ts: sk.cf_skew_normal_rows(spec.skew_normal, ts)
    if kind == "gse_skew_normal":
        gse = sk.skew_normal_gse(spec.skew_normal)
        return lambda ts: sk.cf_gse_rows(gse, ts)
    if kind == "smsn":
        return lambda ts: sk.cf_smsn_rows(spec.skew_normal, spec.mixing, ts)
    raise SpecValidationError(f"kind: unsupported kind {kind!r}")


def _smu_rows(ell: el.EllipticalSpec, ts: np.ndarray) -> el.CFRows:
    """The star-unimodal route (the hankel route of smu), point by point."""

    def at_point(u: float, t: np.ndarray) -> el.ComplexCF:
        base = sk.cf_star_unimodal(ell.generator, ell.n, [u])  # depends on ||t||_Sigma = u only
        phase = float(t @ ell.mu)
        out = complex(math.cos(phase), math.sin(phase)) * base.re
        return el.ComplexCF(out.real, out.imag, base.abs_err, base.method)

    return el.CFRows.collect(map(at_point, np.sqrt(ell.dispersion.quad_rows(ts)).tolist(), ts))


def _mc_rows(batch: sp.SampleBatch, workers: int, ts: np.ndarray) -> el.CFRows:
    """The empirical CF point by point; with workers > 1 on a thread pool
    (numpy releases the GIL in empirical_cf, while the analytic routes are
    Python-bound and threads only slow them)."""
    if workers <= 1:
        return el.CFRows.collect(sp.empirical_cf(batch, t) for t in ts)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return el.CFRows.collect(pool.map(partial(sp.empirical_cf, batch), ts))


def _sample_batch(spec: ParsedSpec, count: int, seed: int, workers: int) -> sp.SampleBatch:
    rng = sp.RngStream(seed=seed)
    if spec.kind in ("elliptical", "smu"):
        return sp.sample_elliptical(spec.elliptical, count, rng, workers)
    if spec.kind == "lsm":
        return sp.sample_location_scale_mixture(spec.lsm, count, rng, workers)
    if spec.kind in ("skew_normal", "gse_skew_normal"):
        return sp.sample_skew_normal(spec.skew_normal, count, rng, workers)
    if spec.kind == "smsn":
        return sp.sample_smsn(spec.skew_normal, spec.mixing, count, rng, workers)
    raise SpecValidationError(f"kind: unsupported kind {spec.kind!r}")


def _build_evaluators(spec: ParsedSpec, config: RunConfig) -> dict[str, Callable]:
    """Route -> evaluator, each mapping a (P, n) grid to its CFRows."""
    evaluators: dict[str, Callable] = {}
    probe = np.full((1, spec.n), 0.25)
    for route in config.routes:
        if route == "mc":
            if config.mc_count < 1000:
                raise SpecValidationError("mc_count: must be >= 1000 for the mc route")
            batch = _sample_batch(spec, config.mc_count, config.seed, config.workers)
            evaluators["mc"] = partial(_mc_rows, batch, config.workers)
            continue
        evaluator = _analytic_evaluator(spec, route)
        error = evaluator(probe).error  # availability probe
        if isinstance(error, NoClosedFormError):
            raise SpecValidationError(f"routes: {error}") from error
        # numeric trouble at the probe is judged per grid point, not here
        if error is not None and not isinstance(error, _NUMERIC_ERRORS):
            raise error
        evaluators[route] = evaluator
    return evaluators


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_out(out_path: str, parts: Iterable[str]) -> None:
    out = contextlib.nullcontext(sys.stdout) if out_path == "-" else open(out_path, "w", newline="")
    with out as fh:
        for part in parts:
            fh.write(part)


def _grid_rows(points: np.ndarray, evaluators: dict[str, Callable]) -> dict[str, el.CFRows]:
    """Each route's values at every grid point, in grid order.

    A numeric failure names the first failing point in grid order: after
    one route fails, later routes run only on the points before it.  Any
    other error a route records is raised as it is.
    """
    values: dict[str, el.CFRows] = {}
    end, failure = len(points), None
    for route, evaluate in evaluators.items():
        rows = values[route] = evaluate(points[:end])
        if rows.error is not None:
            if not isinstance(rows.error, _NUMERIC_ERRORS):
                raise rows.error
            end, failure = len(rows), rows.error
    if failure is not None:
        raise ConvergenceError(f"at grid point t={points[end].tolist()}: {failure}") from failure
    return values


def _eval_blocks(
    points: np.ndarray, values: dict[str, el.CFRows], routes: tuple[str, ...]
) -> Iterator[str]:
    # one %-template per block of rows; "%.17g" formats as f"{v:.17g}"
    n = points.shape[1]
    row = "%.17g," * (n + 2) + "%s,%s\n"
    for start in range(0, len(points), _BLOCK):
        sl = slice(start, start + _BLOCK)
        block = points[sl]
        cells = np.empty((len(block), len(routes), n + 4), dtype=object)
        cells[:, :, :n] = block[:, None, :]
        for j, route in enumerate(routes):
            rows = values[route]
            cells[:, j, n] = rows.re[sl]
            cells[:, j, n + 1] = rows.im[sl]
            errs = rows.abs_err[sl].tolist()  # nan: no estimate, an empty cell
            cells[:, j, n + 2] = ["" if math.isnan(e) else _fmt(e) for e in errs]
            cells[:, j, n + 3] = rows.method[sl]
        yield row * (len(block) * len(routes)) % tuple(cells.ravel().tolist())


def _grid_run(config: RunConfig) -> tuple[ParsedSpec, np.ndarray, dict[str, el.CFRows]]:
    """The spec, the grid and every route's values on it; a numeric failure
    raises, for main to exit 3."""
    spec = load_spec(config.spec_path)
    points = parse_grid(config.grid, spec.n)
    return spec, points, _grid_rows(points, _build_evaluators(spec, config))


def _head(config: RunConfig, spec: ParsedSpec, columns: list[str]) -> str:
    """The provenance line and the CSV header, t columns first."""
    return (
        f"# ellipcf {config.command} spec_sha256={spec.sha256} kind={spec.kind} "
        f"routes={','.join(config.routes)} seed={config.seed} mc_count={config.mc_count}\n"
        + ",".join([f"t{i + 1}" for i in range(spec.n)] + columns)
        + "\n"
    )


def run_eval(config: RunConfig) -> int:
    spec, points, values = _grid_run(config)
    head = _head(config, spec, ["re", "im", "abs_err", "method"])
    _write_out(config.out_path, [head, *_eval_blocks(points, values, config.routes)])
    return EXIT_OK


def _pair_tolerance(route_a: str, route_b: str, config: RunConfig) -> float:
    key = f"{route_a}-{route_b}"
    if key in config.tol_overrides:
        return float(config.tol_overrides[key])
    if "mc" in (route_a, route_b):
        return config.mc_band / math.sqrt(config.mc_count)
    return config.tol_analytic


def run_compare(config: RunConfig) -> int:
    if len(config.routes) < 2:
        raise SpecValidationError("routes: compare needs at least two routes")
    spec, points, values = _grid_run(config)
    routes = config.routes
    names, columns = [], [points]
    for route in routes:
        names += [f"re_{route}", f"im_{route}"]
        columns += [values[route].re, values[route].im]
    pairs = [(a, b) for i, a in enumerate(routes) for b in routes[i + 1 :]]
    tols, max_dev, exceed = {}, {}, {}
    for a, b in pairs:
        d_re = np.abs(values[a].re - values[b].re)
        d_im = np.abs(values[a].im - values[b].im)
        dev = np.where(d_im > d_re, d_im, d_re)  # max(d_re, d_im), nan cases included
        tols[a, b] = _pair_tolerance(a, b, config)
        max_dev[a, b] = float(np.fmax.reduce(dev, initial=0.0))  # skips nan, as max() did
        exceed[a, b] = int(np.count_nonzero(dev > tols[a, b]))
        names.append(f"dev_{a}_{b}")
        columns.append(dev)
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"  # formats as f"{v:.17g}"
    parts = [_head(config, spec, names)]
    for start in range(0, len(points), _BLOCK):
        block = table[start:start + _BLOCK]
        parts.append(row * len(block) % tuple(block.ravel().tolist()))
    for (a, b) in pairs:
        parts.append(
            f"# summary {a}-{b}: max_dev={_fmt(max_dev[(a, b)])} tol={_fmt(tols[(a, b)])} "
            f"exceedances={exceed[(a, b)]}/{len(points)}\n"
        )
    _write_out(config.out_path, parts)
    if any(exceed.values()):
        print(
            "tolerance exceedance: "
            + "; ".join(
                f"{a}-{b}: {exceed[(a, b)]} points over {_fmt(tols[(a, b)])}"
                for (a, b) in pairs
                if exceed[(a, b)]
            ),
            file=sys.stderr,
        )
        return EXIT_TOLERANCE_ERROR
    return EXIT_OK


def run_sample(config: RunConfig) -> int:
    spec = load_spec(config.spec_path)
    try:
        batch = _sample_batch(spec, config.mc_count, config.seed, config.workers)
    except DomainError as exc:
        raise SpecValidationError(str(exc)) from exc
    sp.batch_to_csv(batch, config.out_path, [f"spec_sha256={spec.sha256} kind={spec.kind}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipcf",
        description="Evaluate, cross-validate and sample characteristic functions "
        "of elliptical, skew-elliptical and mixture distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_grid: bool) -> None:
        p.add_argument("--spec", required=True, help="path to the distribution spec JSON")
        if with_grid:
            p.add_argument(
                "--grid",
                required=True,
                help='grid JSON ({"kind":"axis",...} or {"kind":"list",...}) or @file',
            )
            p.add_argument(
                "--routes",
                default="closed",
                help="comma-separated subset of closed,hankel,mc",
            )
        p.add_argument("--mc-count", type=int, default=100000, help="Monte-Carlo sample size")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (Philox key)")
        p.add_argument("--workers", type=int, default=1, help="parallel workers")
        p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")

    p_eval = sub.add_parser("eval", help="evaluate the CF on a grid")
    common(p_eval, with_grid=True)

    p_cmp = sub.add_parser("compare", help="cross-compare CF routes on a grid")
    common(p_cmp, with_grid=True)
    p_cmp.add_argument(
        "--tol-analytic",
        type=float,
        default=1e-6,
        help="tolerance for closed-vs-hankel deviations",
    )
    p_cmp.add_argument(
        "--mc-band",
        type=float,
        default=4.0,
        help="Monte-Carlo deviation band factor (band = factor/sqrt(N))",
    )
    p_cmp.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="PAIR=TOL",
        help="override a pair tolerance, e.g. closed-hankel=1e-8",
    )

    p_sample = sub.add_parser("sample", help="draw from the spec and emit CSV")
    p_sample.add_argument("--spec", required=True)
    p_sample.add_argument("--count", type=int, default=100000, help="number of draws")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--workers", type=int, default=1)
    p_sample.add_argument("--out", default="-")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    routes: tuple[str, ...] = ()
    grid = None
    if args.command in ("eval", "compare"):
        routes = tuple(r.strip() for r in args.routes.split(",") if r.strip())
        if not routes:
            raise SpecValidationError("routes: empty route list")
        for route in routes:
            if route not in _ROUTES:
                raise SpecValidationError(f"routes: unknown route {route!r}")
        if len(set(routes)) != len(routes):
            raise SpecValidationError("routes: duplicate route")
        grid = args.grid
    overrides = {}
    for item in getattr(args, "tol", []):
        if "=" not in item:
            raise SpecValidationError(f"tol: expected PAIR=VALUE, got {item!r}")
        pair, _, value = item.partition("=")
        try:
            overrides[pair] = float(value)
        except ValueError as exc:
            raise SpecValidationError(f"tol: non-numeric tolerance in {item!r}") from exc
    mc_count = args.count if args.command == "sample" else args.mc_count
    return RunConfig(
        command=args.command,
        spec_path=args.spec,
        grid=grid,
        routes=routes,
        mc_count=mc_count,
        seed=args.seed,
        out_path=args.out,
        workers=args.workers,
        tol_analytic=getattr(args, "tol_analytic", 1e-6),
        mc_band=getattr(args, "mc_band", 4.0),
        tol_overrides=overrides,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if config.command == "eval":
            return run_eval(config)
        if config.command == "compare":
            return run_compare(config)
        return run_sample(config)
    except SpecValidationError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except EllipcfError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
