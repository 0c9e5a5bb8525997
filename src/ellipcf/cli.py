"""Batch CLI: evaluate, cross-compare and sample distribution specs.

Distribution specs are JSON files (strict schema, version field
``schema: 1``); grids are JSON axis/list descriptions; results are CSV
with '#'-prefixed provenance comments.  Exit codes are a stable contract:
0 success, 2 spec/config error, 3 numeric failure, 4 tolerance exceedance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

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

    def need(keys: set[str]) -> None:
        for key in params:
            if key not in keys:
                raise SpecValidationError(f"{path}.params.{key}: unknown parameter")
        for key in keys:
            if key not in params:
                raise SpecValidationError(f"{path}.params.{key}: missing parameter")

    try:
        if family == "normal":
            need(set())
            return gn.normal_generator()
        if family == "uniform_ball":
            need(set())
            return gn.uniform_ball_generator()
        if family == "generalized_t":
            need({"s", "m"})
            return gn.generalized_t_generator(n, float(params["s"]), int(params["m"]))
        if family == "pearson_ii":
            need({"m"})
            return gn.pearson_ii_generator(float(params["m"]))
        if family == "pearson_vii":
            need({"N", "s"})
            return gn.pearson_vii_generator(float(params["N"]), float(params["s"]))
        if family == "kotz":
            need({"N", "r", "s"})
            return gn.kotz_generator(float(params["N"]), float(params["r"]), float(params["s"]))
        if family == "bessel":
            need({"a", "beta"})
            return gn.bessel_generator(float(params["a"]), float(params["beta"]))
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
            return sk.MixingLaw.degenerate(float(obj["v0"]))
        if kind == "finite_discrete":
            _check_fields(obj, {"kind", "points", "weights"}, set(), path)
            return sk.MixingLaw.finite_discrete(obj["points"], obj["weights"])
        if kind == "inverse_gamma":
            _check_fields(obj, {"kind", "shape", "scale"}, set(), path)
            return sk.MixingLaw.inverse_gamma(float(obj["shape"]), float(obj["scale"]))
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
    try:
        n = int(obj.get("n"))
    except (TypeError, ValueError) as exc:
        raise SpecValidationError("n: must be an integer") from exc
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


def parse_grid(text: str, n: int) -> list[np.ndarray]:
    """Parse a grid description (JSON text or @file reference) into t-vectors."""
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
        index = int(obj["index"])
        if not 0 <= index < n:
            raise SpecValidationError(f"grid.index: must be in [0, {n})")
        num = int(obj["num"])
        if num < 1:
            raise SpecValidationError("grid.num: must be >= 1")
        points = []
        for value in np.linspace(float(obj["start"]), float(obj["stop"]), num):
            t = np.zeros(n)
            t[index] = value
            points.append(t)
        return points
    if kind == "list":
        _check_fields(obj, {"kind", "points"}, set(), "grid")
        pts = obj["points"]
        if not isinstance(pts, list) or not pts:
            raise SpecValidationError("grid.points: must be a nonempty list of vectors")
        return [_as_float_list(p, n, f"grid.points[{i}]") for i, p in enumerate(pts)]
    raise SpecValidationError(f"grid.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Route evaluators
# ---------------------------------------------------------------------------


def _phase_times(phi_value: float, phase: float) -> complex:
    return complex(math.cos(phase), math.sin(phase)) * phi_value


def _analytic_evaluator(spec: ParsedSpec, route: str) -> Callable[[np.ndarray], el.ComplexCF]:
    kind = spec.kind
    if kind == "elliptical":
        return lambda t: el.cf(spec.elliptical, t, route=route)
    if kind == "smu":
        ell = spec.elliptical
        if route == "closed":
            return lambda t: el.cf(ell, t, route="closed")

        def smu_eval(t: np.ndarray) -> el.ComplexCF:
            t = np.asarray(t, dtype=float)
            u = math.sqrt(ell.dispersion.quad(t))
            radial = np.zeros(ell.n)
            radial[0] = u
            base = sk.cf_star_unimodal(ell.generator, ell.n, radial)
            out = _phase_times(base.re, float(t @ ell.mu))
            return el.ComplexCF(out.real, out.imag, base.abs_err, base.method)

        return smu_eval
    if kind == "lsm":
        return lambda t: sk.cf_location_scale_mixture(spec.lsm, t, route=route)
    if route == "hankel":
        raise SpecValidationError(
            f"routes: 'hankel' is not available for kind {kind!r}"
        )
    if kind == "skew_normal":
        return lambda t: sk.cf_skew_normal(spec.skew_normal, t)
    if kind == "gse_skew_normal":
        gse = sk.skew_normal_gse(spec.skew_normal)
        return lambda t: sk.cf_gse(gse, t)
    if kind == "smsn":
        return lambda t: sk.cf_smsn(spec.skew_normal, spec.mixing, t)
    raise SpecValidationError(f"kind: unsupported kind {kind!r}")


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


def _build_evaluators(
    spec: ParsedSpec, config: RunConfig
) -> dict[str, Callable[[np.ndarray], el.ComplexCF]]:
    evaluators: dict[str, Callable[[np.ndarray], el.ComplexCF]] = {}
    for route in config.routes:
        if route == "mc":
            if config.mc_count < 1000:
                raise SpecValidationError("mc_count: must be >= 1000 for the mc route")
            batch = _sample_batch(spec, config.mc_count, config.seed, config.workers)
            evaluators["mc"] = lambda t, _b=batch: sp.empirical_cf(_b, t)
        else:
            evaluator = _analytic_evaluator(spec, route)
            try:
                evaluator(np.full(spec.n, 0.25))  # availability probe
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


def _write_out(out_path: str, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _grid_rows(
    points: list[np.ndarray],
    evaluators: dict[str, Callable],
    workers: int,
) -> list[tuple[np.ndarray, dict[str, el.ComplexCF]]]:
    routes = list(evaluators)

    def job(t: np.ndarray):
        try:
            return t, {route: evaluators[route](t) for route in routes}
        except (ConvergenceError, ArithmeticError) as exc:
            raise ConvergenceError(f"at grid point t={t.tolist()}: {exc}") from exc

    if workers <= 1:
        return [job(t) for t in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, points))


def run_eval(config: RunConfig) -> int:
    spec = load_spec(config.spec_path)
    points = parse_grid(config.grid, spec.n)
    evaluators = _build_evaluators(spec, config)
    lines = [
        f"# ellipcf eval spec_sha256={spec.sha256} kind={spec.kind} "
        f"routes={','.join(config.routes)} seed={config.seed} mc_count={config.mc_count}",
        ",".join([f"t{i + 1}" for i in range(spec.n)] + ["re", "im", "abs_err", "method"]),
    ]
    try:
        rows = _grid_rows(points, evaluators, config.workers)
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    for t, by_route in rows:
        for route in config.routes:
            cfv = by_route[route]
            err = "" if cfv.abs_err is None else _fmt(cfv.abs_err)
            lines.append(
                ",".join([_fmt(v) for v in t] + [_fmt(cfv.re), _fmt(cfv.im), err, cfv.method.value])
            )
    _write_out(config.out_path, lines)
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
    lines = [
        f"# ellipcf compare spec_sha256={spec.sha256} kind={spec.kind} "
        f"routes={','.join(routes)} seed={config.seed} mc_count={config.mc_count}",
        ",".join(header),
    ]
    try:
        rows = _grid_rows(points, evaluators, config.workers)
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR

    max_dev = {pair: 0.0 for pair in pairs}
    exceed = {pair: 0 for pair in pairs}
    for t, by_route in rows:
        cells = [_fmt(v) for v in t]
        for route in routes:
            cfv = by_route[route]
            cells += [_fmt(cfv.re), _fmt(cfv.im)]
        for pair in pairs:
            a, b = pair
            va, vb = by_route[a], by_route[b]
            dev = max(abs(va.re - vb.re), abs(va.im - vb.im))
            cells.append(_fmt(dev))
            max_dev[pair] = max(max_dev[pair], dev)
            if dev > _pair_tolerance(a, b, config):
                exceed[pair] += 1
        lines.append(",".join(cells))
    for pair in pairs:
        a, b = pair
        tol = _pair_tolerance(a, b, config)
        lines.append(
            f"# summary {a}-{b}: max_dev={_fmt(max_dev[pair])} tol={_fmt(tol)} "
            f"exceedances={exceed[pair]}/{len(rows)}"
        )
    _write_out(config.out_path, lines)
    if any(exceed.values()):
        print(
            "tolerance exceedance: "
            + "; ".join(
                f"{a}-{b}: {exceed[(a, b)]} points over {_fmt(_pair_tolerance(a, b, config))}"
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
