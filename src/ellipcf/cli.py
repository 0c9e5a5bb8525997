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
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
        return np.array([float(v) for v in value])
    except (TypeError, ValueError) as exc:
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
        except (TypeError, ValueError):
            points = None
        if points is None or points.shape != (len(pts), n):  # name the first bad point
            points = np.array(
                [_as_float_list(p, n, f"grid.points[{i}]") for i, p in enumerate(pts)]
            )
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            i = int(finite.argmin())
            _as_float_list(pts[i], n, f"grid.points[{i}]")  # numpy reads null as nan
            raise SpecValidationError(f"grid.points[{i}]: non-finite entry")
        return points
    raise SpecValidationError(f"grid.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Route evaluators
# ---------------------------------------------------------------------------


def _phase_times(phi_value: float, phase: float) -> complex:
    return complex(math.cos(phase), math.sin(phase)) * phi_value


def _closed_evaluator(spec: ParsedSpec) -> Callable[[np.ndarray], Iterator[el.ComplexCF]]:
    """The closed route over a whole (P, n) grid: one ComplexCF per row, in order."""
    kind = spec.kind
    if kind in ("elliptical", "smu"):
        return lambda ts: el.cf_rows(spec.elliptical, ts, route="closed")
    if kind == "lsm":
        return lambda ts: sk.cf_location_scale_mixture_rows(spec.lsm, ts, route="closed")
    if kind == "skew_normal":
        return lambda ts: sk.cf_skew_normal_rows(spec.skew_normal, ts)
    if kind == "gse_skew_normal":
        gse = sk.skew_normal_gse(spec.skew_normal)
        return lambda ts: sk.cf_gse_rows(gse, ts)
    if kind == "smsn":
        return lambda ts: sk.cf_smsn_rows(spec.skew_normal, spec.mixing, ts)
    raise SpecValidationError(f"kind: unsupported kind {kind!r}")


def _hankel_evaluator(spec: ParsedSpec) -> Callable[[np.ndarray], el.ComplexCF]:
    """The quadrature route at one grid point."""
    kind = spec.kind
    if kind == "elliptical":
        return lambda t: el.cf(spec.elliptical, t, route="hankel")
    if kind == "smu":
        ell = spec.elliptical

        def smu_eval(t: np.ndarray) -> el.ComplexCF:
            u = math.sqrt(ell.dispersion.quad_rows(t[None, :])[0])
            radial = np.zeros(ell.n)
            radial[0] = u
            base = sk.cf_star_unimodal(ell.generator, ell.n, radial)
            out = _phase_times(base.re, float(t @ ell.mu))
            return el.ComplexCF(out.real, out.imag, base.abs_err, base.method)

        return smu_eval
    if kind == "lsm":
        return lambda t: sk.cf_location_scale_mixture(spec.lsm, t, route="hankel")
    raise SpecValidationError(f"routes: 'hankel' is not available for kind {kind!r}")


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
    """Route -> evaluator: the closed one takes the whole grid, the others one point."""
    evaluators: dict[str, Callable] = {}
    probe = np.full((1, spec.n), 0.25)
    for route in config.routes:
        if route == "mc":
            if config.mc_count < 1000:
                raise SpecValidationError("mc_count: must be >= 1000 for the mc route")
            batch = _sample_batch(spec, config.mc_count, config.seed, config.workers)
            evaluators["mc"] = lambda t, _b=batch: sp.empirical_cf(_b, t)
            continue
        evaluator = _closed_evaluator(spec) if route == "closed" else _hankel_evaluator(spec)
        try:  # availability probe
            if route == "closed":
                next(evaluator(probe))
            else:
                evaluator(probe[0])
        except NoClosedFormError as exc:
            raise SpecValidationError(f"routes: {exc}") from exc
        except (ConvergenceError, ArithmeticError):
            pass  # numeric trouble is judged per grid point, not here
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


def _pooled(evaluate: Callable, points: np.ndarray, workers: int) -> Iterator[el.ComplexCF]:
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(evaluate, points)


def _grid_rows(
    points: np.ndarray,
    evaluators: dict[str, Callable],
    workers: int,
) -> dict[str, list[el.ComplexCF]]:
    """Each route's values at every grid point, in grid order.

    The closed route takes the whole grid in one stacked pass.  Hankel and
    mc run point by point; only mc uses a thread pool (numpy releases the
    GIL in empirical_cf, while the analytic routes are Python-bound and
    threads only slow them).  A numeric failure names the first failing
    point in grid order: after one route fails, later routes run only on
    the points before it.
    """
    values: dict[str, list[el.ComplexCF]] = {}
    failure = None
    for route, evaluate in evaluators.items():
        todo = points if failure is None else points[: failure[0]]
        done = values[route] = []
        try:
            if route == "closed":
                rows = evaluate(todo)
            elif route == "mc" and workers > 1:
                rows = _pooled(evaluate, todo, workers)
            else:
                rows = map(evaluate, todo)
            for row in rows:
                done.append(row)
        except (ConvergenceError, ArithmeticError) as exc:
            failure = (len(done), exc)
    if failure is not None:
        index, exc = failure
        raise ConvergenceError(f"at grid point t={points[index].tolist()}: {exc}") from exc
    return values


def _eval_blocks(
    points: np.ndarray, values: dict[str, list[el.ComplexCF]], routes: tuple[str, ...]
) -> Iterator[str]:
    # one %-template per block of rows; "%.17g" formats as f"{v:.17g}"
    row = "%.17g," * (points.shape[1] + 2) + "%s,%s\n"
    for start in range(0, len(points), _BLOCK):
        block = points[start:start + _BLOCK].tolist()
        cells = []
        for i, t in enumerate(block, start):
            for route in routes:
                cfv = values[route][i]
                err = "" if cfv.abs_err is None else _fmt(cfv.abs_err)
                cells += t
                cells += (cfv.re, cfv.im, err, cfv.method.value)
        yield row * (len(block) * len(routes)) % tuple(cells)


def run_eval(config: RunConfig) -> int:
    spec = load_spec(config.spec_path)
    points = parse_grid(config.grid, spec.n)
    evaluators = _build_evaluators(spec, config)
    head = (
        f"# ellipcf eval spec_sha256={spec.sha256} kind={spec.kind} "
        f"routes={','.join(config.routes)} seed={config.seed} mc_count={config.mc_count}\n"
        + ",".join([f"t{i + 1}" for i in range(spec.n)] + ["re", "im", "abs_err", "method"])
        + "\n"
    )
    try:
        values = _grid_rows(points, evaluators, config.workers)
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
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
    spec = load_spec(config.spec_path)
    points = parse_grid(config.grid, spec.n)
    evaluators = _build_evaluators(spec, config)
    routes = list(config.routes)
    pairs = [(a, b) for i, a in enumerate(routes) for b in routes[i + 1 :]]

    header = [f"t{i + 1}" for i in range(spec.n)]
    for route in routes:
        header += [f"re_{route}", f"im_{route}"]
    for a, b in pairs:
        header += [f"dev_{a}_{b}"]
    head = (
        f"# ellipcf compare spec_sha256={spec.sha256} kind={spec.kind} "
        f"routes={','.join(routes)} seed={config.seed} mc_count={config.mc_count}\n"
        + ",".join(header)
        + "\n"
    )
    try:
        values = _grid_rows(points, evaluators, config.workers)
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR

    tols = {pair: _pair_tolerance(*pair, config) for pair in pairs}
    max_dev = {pair: 0.0 for pair in pairs}
    exceed = {pair: 0 for pair in pairs}
    row = ",".join(["%.17g"] * len(header)) + "\n"  # formats as f"{v:.17g}"
    parts = [head]
    for start in range(0, len(points), _BLOCK):
        block = points[start:start + _BLOCK].tolist()
        cells = []
        for i, t in enumerate(block, start):
            cells += t
            for route in routes:
                cfv = values[route][i]
                cells += (cfv.re, cfv.im)
            for pair in pairs:
                va, vb = values[pair[0]][i], values[pair[1]][i]
                dev = max(abs(va.re - vb.re), abs(va.im - vb.im))
                cells.append(dev)
                max_dev[pair] = max(max_dev[pair], dev)
                if dev > tols[pair]:
                    exceed[pair] += 1
        parts.append(row * len(block) % tuple(cells))
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
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except EllipcfError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
