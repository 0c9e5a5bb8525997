"""Batch CLI: evaluate, cross-compare and sample distribution specs.

Distribution specs are JSON files (strict schema, version field
``schema: 1``); grids are JSON axis/list descriptions; results are CSV
with '#'-prefixed provenance comments.  Exit codes are a stable contract:
0 success, 2 spec/config error, 3 numeric failure, 4 tolerance exceedance.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional

# A CLI process runs BLAS on one thread: its only parallelism is --workers, and an
# idle OpenBLAS pool busy-waits.  Nothing is set if numpy is already loaded; any
# process that imports this module before numpy gets one BLAS thread too.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import _csvout
from . import elliptical as el
from . import generators as gn
from .errors import (
    ConvergenceError,
    DomainError,
    EllipcfError,
    NoClosedFormError,
    SpecValidationError,
)

if TYPE_CHECKING:  # skewmix and sampling are imported by the commands that use them
    from . import sampling as sp
    from . import skewmix as sk

__all__ = ["main", "entry", "load_spec", "parse_grid"]

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_NUMERIC_ERROR = 3
EXIT_TOLERANCE_ERROR = 4
EXIT_OUTPUT_CLOSED = 141  # 128 + SIGPIPE: the reader of the output went away

_ROUTES = ("closed", "hankel", "mc")
_NUMERIC_ERRORS = (ConvergenceError, ArithmeticError)  # exit 3; other errors exit 2

_BLOCK = 1 << 10  # grid points per formatted block of eval rows


# ---------------------------------------------------------------------------
# Spec parsing (strict: unknown fields are errors)
# ---------------------------------------------------------------------------


def _lazy(module: str):
    """The package module skewmix or sampling, imported where first needed by
    the import statement's machinery, so that -X importtime reports it."""
    return getattr(__import__(__package__, fromlist=[module]), module)


def _check_fields(obj: dict, required: tuple, optional: tuple, path: str) -> None:
    """The first unknown field in the object's order, then the first missing
    required field in the declared order, is an error naming it."""
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


def _any_dimension(constructor: Callable[..., gn.DensityGenerator]) -> Callable:
    """A constructor whose profile serves every dimension, called as (n, *params)."""
    return lambda n, *params: constructor(*params)


# family name -> (constructor called as (n, *params), parameter names, integer parameters)
_FAMILIES = {
    "normal": (_any_dimension(gn.normal_generator), (), ()),
    "uniform_ball": (_any_dimension(gn.uniform_ball_generator), (), ()),
    "generalized_t": (gn.generalized_t_generator, ("s", "m"), ("m",)),
    "pearson_ii": (_any_dimension(gn.pearson_ii_generator), ("m",), ()),
    "pearson_vii": (_any_dimension(gn.pearson_vii_generator), ("N", "s"), ()),
    "kotz": (_any_dimension(gn.kotz_generator), ("N", "r", "s"), ()),
    "bessel": (_any_dimension(gn.bessel_generator), ("a", "beta"), ()),
}


def _parse_generator(obj, n: int, path: str = "generator") -> gn.DensityGenerator:
    if not isinstance(obj, dict):
        raise SpecValidationError(f"{path}: expected an object")
    _check_fields(obj, ("family",), ("params",), path)
    family = obj["family"]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SpecValidationError(f"{path}.params: expected an object")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise SpecValidationError(f"{path}.family: unknown family {family!r}")
    constructor, names, integers = _FAMILIES[family]
    for key in params:
        if key not in names:
            raise SpecValidationError(f"{path}.params.{key}: unknown parameter")
    for key in names:
        if key not in params:
            raise SpecValidationError(f"{path}.params.{key}: missing parameter")
    values = [
        (_integer if key in integers else _number)(params[key], f"{path}.params.{key}")
        for key in names
    ]
    try:
        return constructor(n, *values)
    except DomainError as exc:
        raise SpecValidationError(f"{path}.params: {exc}") from exc


# mixing kind -> its fields in order, each with its parser; a kind's name is
# that of its MixingLaw factory, which takes the fields' values in this order
_MIXINGS = {
    "degenerate": (("v0", _number),),
    "finite_discrete": (("points", _number_list), ("weights", _number_list)),
    "inverse_gamma": (("shape", _number), ("scale", _number)),
}


def _parse_mixing(obj, path: str = "mixing") -> sk.MixingLaw:
    if not isinstance(obj, dict):
        raise SpecValidationError(f"{path}: expected an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _MIXINGS:
        raise SpecValidationError(f"{path}.kind: unknown mixing kind {kind!r}")
    fields = _MIXINGS[kind]
    _check_fields(obj, ("kind", *(name for name, _ in fields)), (), path)
    values = [parse(obj[name], f"{path}.{name}") for name, parse in fields]
    try:
        return getattr(_lazy("skewmix").MixingLaw, kind)(*values)
    except DomainError as exc:
        raise SpecValidationError(f"{path}: {exc}") from exc


@dataclass
class ParsedSpec:
    kind: str
    n: int
    sha256: str
    elliptical: Optional[el.EllipticalSpec] = None
    lsm: Optional[sk.LSMixtureSpec] = None
    skew_normal: Optional[sk.SkewNormalSpec] = None
    mixing: Optional[sk.MixingLaw] = None


def _parse_elliptical(obj: dict, n: int) -> dict:
    mu = _as_float_list(obj["mu"], n, "mu")
    sigma = _as_float_list(obj["sigma"], n * n, "sigma").reshape(n, n)
    gen = _parse_generator(obj["generator"], n)
    return {"elliptical": el.EllipticalSpec(n, mu, sigma, gen)}


def _parse_lsm(obj: dict, n: int) -> dict:
    mu = _as_float_list(obj["mu"], n, "mu")
    gamma = _as_float_list(obj["gamma"], n, "gamma")
    sigma = _as_float_list(obj["sigma"], n * n, "sigma").reshape(n, n)
    gen = _parse_generator(obj["generator"], n)
    mixing = _parse_mixing(obj["mixing"])
    base = el.EllipticalSpec(n, np.zeros(n), np.eye(n), gen)
    return {"lsm": _lazy("skewmix").LSMixtureSpec(base, mu, gamma, sigma, mixing)}


def _parse_skew_normal(obj: dict, n: int) -> dict:
    sk = _lazy("skewmix")
    mu = _as_float_list(obj["mu"], n, "mu")
    sigma = _as_float_list(obj["sigma"], n * n, "sigma").reshape(n, n)
    alpha = _as_float_list(obj["alpha"], n, "alpha")
    par_name = obj.get("parametrization", "half_root")
    try:
        par = sk.Parametrization(par_name)
    except ValueError as exc:
        raise SpecValidationError(f"parametrization: unknown value {par_name!r}") from exc
    return {"skew_normal": sk.SkewNormalSpec(mu, sigma, alpha, par)}


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
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SpecValidationError(f"kind: unknown kind {kind!r} (expected one of {tuple(_KINDS)})")
    row = _KINDS[kind]
    n = _integer(obj.get("n"), "n")
    if n < 1:
        raise SpecValidationError("n: must be >= 1")
    try:
        required = ("schema", "kind", "n", "mu", "sigma", *row.fields)
        _check_fields(obj, required, row.optional, "spec")
        return ParsedSpec(kind, n, sha, **row.parse(obj, n))
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
        _check_fields(obj, ("kind", "index", "start", "stop", "num"), (), "grid")
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
        try:
            points = np.zeros((num, n))
        except (MemoryError, ValueError) as exc:  # past memory, or past numpy's size limit
            raise SpecValidationError(f"grid.num: {num} points do not fit in memory") from exc
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing span, named below
            points[:, index] = np.linspace(*ends, num)
        if not np.isfinite(points[:, index]).all():
            raise SpecValidationError("grid: the span from start to stop overflows the float range")
        return points
    if kind == "list":
        _check_fields(obj, ("kind", "points"), (), "grid")
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
# Route evaluators: the kind table
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    """A spec kind: its fields beside schema, kind, n, mu and sigma, required
    and optional, each in the order a missing one is named; the parse of a
    spec object into ParsedSpec's fields; and per route a builder of its
    evaluator of (P, n) grids (hankel None where the kind has none) or of its
    Sampler, raising the route's spec errors."""

    fields: tuple[str, ...]
    optional: tuple[str, ...]
    parse: Callable[[dict, int], dict]
    closed: Callable[[ParsedSpec], Callable[[np.ndarray], el.CFRows]]
    hankel: Optional[Callable[[ParsedSpec], Callable[[np.ndarray], el.CFRows]]]
    sampler: Callable[[ParsedSpec], sp.Sampler]


def _star_rows(spec: ParsedSpec) -> Callable[[np.ndarray], el.CFRows]:
    sk = _lazy("skewmix")
    sk._check_star_unimodal(spec.elliptical.generator)  # a spec error, before any point
    return partial(sk.cf_star_unimodal_rows, spec.elliptical)


_ELLIPTICAL = _Kind(
    ("generator",), (), _parse_elliptical,
    closed=lambda spec: partial(el.cf_rows, spec.elliptical, route="closed"),
    hankel=lambda spec: partial(el.cf_rows, spec.elliptical, route="hankel"),
    sampler=lambda spec: _lazy("sampling").elliptical_sampler(spec.elliptical),
)
_SKEW_NORMAL = _Kind(
    ("alpha",), ("parametrization",), _parse_skew_normal,
    closed=lambda spec: partial(_lazy("skewmix").cf_skew_normal_rows, spec.skew_normal),
    hankel=None,
    sampler=lambda spec: _lazy("sampling").skew_normal_sampler(spec.skew_normal),
)
_KINDS = {
    "elliptical": _ELLIPTICAL,
    "lsm": _Kind(
        ("generator", "gamma", "mixing"), (), _parse_lsm,
        closed=lambda spec: partial(
            _lazy("skewmix").cf_location_scale_mixture_rows, spec.lsm, route="closed"),
        hankel=lambda spec: partial(
            _lazy("skewmix").cf_location_scale_mixture_rows, spec.lsm, route="hankel"),
        sampler=lambda spec: _lazy("sampling").lsm_sampler(spec.lsm),
    ),
    "gse_skew_normal": _SKEW_NORMAL._replace(closed=lambda spec: partial(
        _lazy("skewmix").cf_gse_rows, _lazy("skewmix").skew_normal_gse(spec.skew_normal))),
    "skew_normal": _SKEW_NORMAL,
    "smsn": _Kind(
        ("alpha", "mixing"), ("parametrization",),
        lambda obj, n: {**_parse_skew_normal(obj, n), "mixing": _parse_mixing(obj["mixing"])},
        closed=lambda spec: partial(_lazy("skewmix").cf_smsn_rows, spec.skew_normal, spec.mixing),
        hankel=None,
        sampler=lambda spec: _lazy("sampling").smsn_sampler(spec.skew_normal, spec.mixing),
    ),
    "smu": _ELLIPTICAL._replace(hankel=_star_rows),  # the star route as its hankel route
}


def _build_evaluators(spec: ParsedSpec, args: argparse.Namespace) -> dict[str, Callable]:
    """Route -> evaluator, each mapping a (P, n) grid to its CFRows."""
    evaluators: dict[str, Callable] = {}
    probe = np.full((1, spec.n), 0.25)
    row = _KINDS[spec.kind]
    for route in args.routes:
        if route == "mc":
            sp = _lazy("sampling")
            if args.mc_count < 1000:
                raise SpecValidationError("mc_count: must be >= 1000 for the mc route")
            if args.mc_count > sp.MAX_COUNT:
                raise SpecValidationError(
                    f"mc_count: must be <= 2^55 = {sp.MAX_COUNT}, got {args.mc_count}"
                )
            # the draws are made and reduced chunk by chunk when the route runs
            evaluators["mc"] = partial(
                row.sampler(spec).empirical_cf_rows,
                count=args.mc_count, rng=sp.RngStream(seed=args.seed), workers=args.workers,
            )
            continue
        build = getattr(row, route)  # the closed or the hankel column
        if build is None:
            raise SpecValidationError(f"routes: 'hankel' is not available for kind {spec.kind!r}")
        evaluator = evaluators[route] = build(spec)
        if route == "closed":  # availability probe: only a closed form can be missing
            error = evaluator(probe).error
            if isinstance(error, NoClosedFormError):
                raise SpecValidationError(f"routes: {error}") from error
            # numeric trouble at the probe is judged per grid point, not here
            if error is not None and not isinstance(error, _NUMERIC_ERRORS):
                raise error
    return evaluators


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@contextlib.contextmanager
def _output_errors(out_path: str) -> Iterator[None]:
    """An output that cannot be written exits 2 naming it; a closed pipe
    passes through, for main to end quietly."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise SpecValidationError(f"out: cannot write {out_path!r}: {exc.strerror or exc}") from exc


def _write_out(out_path: str, parts: Iterable[bytes]) -> None:
    with _output_errors(out_path):
        _csvout.write(out_path, parts)


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
) -> Iterator[bytes]:
    """Rows t, re, im, abs_err, method for each point and route, in blocks;
    abs_err is an empty cell where it is nan (no estimate)."""
    n = points.shape[1]
    for start in range(0, len(points), _BLOCK):
        sl = slice(start, start + _BLOCK)
        table = np.empty((len(points[sl]), len(routes), n + 4))
        table[:, :, :n] = points[sl, None, :]
        for j, route in enumerate(routes):
            rows = values[route]
            table[:, j, n:n + 3] = np.column_stack([rows.re[sl], rows.im[sl], rows.abs_err[sl]])
        table = table.reshape(-1, n + 4)
        no_err = np.isnan(table[:, n + 2])
        table[no_err, n + 2] = 1.0  # blanked below, as is the 1.0 that holds the method's cell
        table[:, n + 3] = 1.0
        cells = _csvout.cells(table)
        cells[no_err, n + 2, :-1] = 0
        width = cells.shape[2] - 1
        methods = np.stack([values[route].method[sl] for route in routes], axis=1).reshape(-1)
        cells[:, n + 3, :-1] = np.asarray(methods, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
        yield _csvout.join(cells)


def _grid_run(args: argparse.Namespace) -> tuple[ParsedSpec, np.ndarray, dict[str, el.CFRows]]:
    """The spec, the grid and every route's values on it; a numeric failure
    raises, for main to exit 3."""
    spec = load_spec(args.spec)
    points = parse_grid(args.grid, spec.n)
    return spec, points, _grid_rows(points, _build_evaluators(spec, args))


def _head(args: argparse.Namespace, spec: ParsedSpec, columns: list[str]) -> str:
    """The provenance line and the CSV header, t columns first."""
    return (
        f"# ellipcf {args.command} spec_sha256={spec.sha256} kind={spec.kind} "
        f"routes={','.join(args.routes)} seed={args.seed} mc_count={args.mc_count}\n"
        + ",".join([f"t{i + 1}" for i in range(spec.n)] + columns)
        + "\n"
    )


def run_eval(args: argparse.Namespace) -> int:
    spec, points, values = _grid_run(args)
    head = _head(args, spec, ["re", "im", "abs_err", "method"]).encode()
    _write_out(args.out, [head, *_eval_blocks(points, values, args.routes)])
    return EXIT_OK


def _tolerance(name: str, value: float) -> float:
    if not (math.isfinite(value) and value >= 0.0):
        raise SpecValidationError(f"{name}: must be a finite number >= 0, got {value!r}")
    return value


def _tol_overrides(args: argparse.Namespace) -> dict[tuple[str, str], float]:
    """The --tol overrides, keyed by route pair in route order whichever order
    the flag names it in.  Every tolerance flag is checked: a pair outside the
    requested routes, or a tolerance that is negative or not finite, is an
    error naming its flag."""
    _tolerance("tol-analytic", args.tol_analytic)
    _tolerance("mc-band", args.mc_band)
    routes = args.routes
    overrides = {}
    for key, value in args.tol.items():
        a, _, b = key.partition("-")
        if a == b or a not in routes or b not in routes:
            raise SpecValidationError(
                f"tol: pair {key!r} is not among the requested routes {','.join(routes)}"
            )
        pair = (a, b) if routes.index(a) < routes.index(b) else (b, a)
        overrides[pair] = _tolerance(f"tol {key}", value)
    return overrides


def run_compare(args: argparse.Namespace) -> int:
    routes = args.routes
    if len(routes) < 2:
        raise SpecValidationError("routes: compare needs at least two routes")
    overrides = _tol_overrides(args)
    spec, points, values = _grid_run(args)
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
        default = args.mc_band / math.sqrt(args.mc_count) if "mc" in (a, b) else args.tol_analytic
        tols[a, b] = overrides.get((a, b), default)
        max_dev[a, b] = float(np.fmax.reduce(dev, initial=0.0))  # skips nan, as max() did
        exceed[a, b] = int(np.count_nonzero(dev > tols[a, b]))
        names.append(f"dev_{a}_{b}")
        columns.append(dev)
    table = np.column_stack(columns)
    parts = [_head(args, spec, names).encode()]
    parts.extend(_csvout.rows(table))
    for (a, b) in pairs:
        parts.append(
            f"# summary {a}-{b}: max_dev={_fmt(max_dev[(a, b)])} tol={_fmt(tols[(a, b)])} "
            f"exceedances={exceed[(a, b)]}/{len(points)}\n".encode()
        )
    _write_out(args.out, parts)
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


def run_sample(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    parts = _KINDS[spec.kind].sampler(spec).csv(  # checks the count; draws as it is written
        args.mc_count, _lazy("sampling").RngStream(seed=args.seed), args.workers,
        [f"spec_sha256={spec.sha256} kind={spec.kind}"],
    )
    _write_out(args.out, parts)
    return EXIT_OK


_COMMANDS = {"eval": run_eval, "compare": run_compare, "sample": run_sample}


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
    p_sample.add_argument(
        "--count", dest="mc_count", metavar="COUNT", type=int, default=100000,
        help="number of draws",
    )
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--workers", type=int, default=1)
    p_sample.add_argument("--out", default="-")
    return parser


def _tol_item(item: str) -> tuple[str, float]:
    """A --tol PAIR=VALUE item as (pair, value)."""
    if "=" not in item:
        raise SpecValidationError(f"tol: expected PAIR=VALUE, got {item!r}")
    pair, _, value = item.partition("=")
    try:
        return pair, float(value)
    except ValueError as exc:
        raise SpecValidationError(f"tol: non-numeric tolerance in {item!r}") from exc


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:  # the namespace is checked in place before any file is read
        if args.command != "sample":
            args.routes = tuple(r.strip() for r in args.routes.split(",") if r.strip())
            if not args.routes:
                raise SpecValidationError("routes: empty route list")
            for route in args.routes:
                if route not in _ROUTES:
                    raise SpecValidationError(f"routes: unknown route {route!r}")
            if len(set(args.routes)) != len(args.routes):
                raise SpecValidationError("routes: duplicate route")
        if args.workers < 1:
            raise SpecValidationError(f"workers: must be >= 1, got {args.workers}")
        if not 0 <= args.seed < 1 << 64:
            raise SpecValidationError(f"seed: must be in [0, 2^64), got {args.seed}")
        if args.command == "compare":
            args.tol = dict(map(_tol_item, args.tol))
        return _COMMANDS[args.command](args)
    except SpecValidationError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except EllipcfError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except BrokenPipeError:  # e.g. `ellipcf sample ... | head`: stop quietly
        if args.out == "-":  # so that the flush at exit cannot fail again
            _stdout_to_devnull()
        return EXIT_OUTPUT_CLOSED


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at the null device, if it has one."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no file descriptor behind stdout
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def entry(argv: Optional[list[str]] = None) -> int:
    """The process entry of `python -m ellipcf.cli` and of the `ellipcf`
    console script: main(argv), then the heap frozen, so that the
    collections at interpreter exit skip the objects the imports made.  The
    process ends right after; library callers and tests use main."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
