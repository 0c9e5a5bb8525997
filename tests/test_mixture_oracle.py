"""The lsm and smsn closed routes against mpmath over the mixing law.

The closed route of a location-scale mixture with a normal base, and of a
scale mixture of skew-normals in either parametrization, is an expectation
over the mixing variable: an exact sum for degenerate and finite-discrete
mixing, quadrature against the density otherwise.  At a few seeded points
per mixing kind it must agree with the mpmath oracles of tests/oracles.py
within its reported abs_err plus 8 eps, an empty abs_err cell counting as 0.
The spec kinds go through the CLI; custom densities, which no spec file
reaches, through the library.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest

import oracles
from ellipcf import cli
from ellipcf.elliptical import EllipticalSpec
from ellipcf.generators import normal_generator
from ellipcf.skewmix import (
    LSMixtureSpec,
    MixingLaw,
    Parametrization,
    SkewNormalSpec,
    cf_location_scale_mixture_rows,
    cf_smsn_rows,
)

EPS = np.finfo(float).eps

_BASE = {"schema": 1, "n": 2, "mu": [0.5, -0.25], "sigma": [4.0, 0.0, 0.0, 0.25]}
MODELS = {
    "lsm": dict(_BASE, kind="lsm", gamma=[0.5, 0.25], generator={"family": "normal"}),
    "smsn-half_root": dict(_BASE, kind="smsn", alpha=[2.0, -0.5]),
    "smsn-full_sigma": dict(_BASE, kind="smsn", alpha=[2.0, -0.5],
                            parametrization="full_sigma"),
}
ORACLES = {"lsm": oracles.lsm_normal_cf_mp, "smsn": oracles.smsn_cf_mp}
# mixing kind -> (spec object, seed of its points)
MIXINGS = {
    "degenerate": ({"kind": "degenerate", "v0": 1.5}, 1),
    "finite_discrete": ({"kind": "finite_discrete", "points": [0.25, 1.0, 3.0],
                         "weights": [0.2, 0.5, 0.3]}, 2),
    "inverse_gamma": ({"kind": "inverse_gamma", "shape": 3.0, "scale": 2.0}, 3),
}
# custom densities: (float density, support, mpmath density, seed of its points)
CUSTOM = {
    "exponential": (lambda v: math.exp(-v), (0.0, math.inf), lambda v: mp.exp(-v), 4),
    "uniform-1-3": (lambda v: 0.5, (1.0, 3.0), lambda v: mp.mpf(0.5), 5),
}


def _points(seed):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(3, 2))


def _check(spec, rows):
    """rows: (t, value, abs_err) per point; abs_err nan where none."""
    oracle = ORACLES[spec["kind"]]
    misses = []
    for t, value, abs_err in rows:
        want = oracle(spec, t)
        bound = (0.0 if math.isnan(abs_err) else abs_err) + 8 * EPS
        if not abs(value - want) <= bound:
            misses.append((t.tolist(), abs(value - want), bound))
    assert not misses


def _closed_rows(tmp_path, capsys, spec, points):
    """(t, value, abs_err) per point of the CLI's closed route on spec."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    grid = json.dumps({"kind": "list", "points": points.tolist()})
    assert cli.main(["eval", "--spec", str(path), "--routes", "closed", "--grid", grid]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    rows = []
    for line in lines[1:]:
        t1, t2, re, im, abs_err, _ = line.split(",")
        rows.append((np.array([float(t1), float(t2)]), complex(float(re), float(im)),
                     float(abs_err) if abs_err else math.nan))
    return rows


@pytest.mark.parametrize("mixing", MIXINGS)
@pytest.mark.parametrize("model", MODELS)
def test_spec_closed_route(tmp_path, capsys, model, mixing):
    obj, seed = MIXINGS[mixing]
    spec = dict(MODELS[model], mixing=obj)
    _check(spec, _closed_rows(tmp_path, capsys, spec, _points(seed)))


# The kinds without a mixing law, each as the mixture with V = 1 that an
# oracle knows: the normal elliptical law (and smu, whose closed route is the
# elliptical one) as an lsm with gamma = 0, the skew-normal and its
# generalized skew-elliptical form, in either parametrization, as an smsn.
_V1 = {"kind": "degenerate", "v0": 1}
_NORMAL = dict(_BASE, generator={"family": "normal"})
UNMIXED = {
    "elliptical": (dict(_NORMAL, kind="elliptical"), dict(MODELS["lsm"], gamma=[0.0, 0.0])),
    "smu": (dict(_NORMAL, kind="smu"), dict(MODELS["lsm"], gamma=[0.0, 0.0])),
    **{f"{kind}-{par}": (dict(_BASE, kind=kind, alpha=[2.0, -0.5], parametrization=par),
                         MODELS[f"smsn-{par}"])
       for kind in ("skew_normal", "gse_skew_normal") for par in ("half_root", "full_sigma")},
}


@pytest.mark.parametrize("case", UNMIXED)
def test_unmixed_kind_closed_route(tmp_path, capsys, case):
    spec, mixture = UNMIXED[case]
    _check(dict(mixture, mixing=_V1), _closed_rows(tmp_path, capsys, spec, _points(6)))


@pytest.mark.parametrize("density", CUSTOM)
@pytest.mark.parametrize("model", MODELS)
def test_custom_density_closed_route(model, density):
    fn, support, fn_mp, seed = CUSTOM[density]
    spec = dict(MODELS[model],
                mixing={"kind": "custom_density", "density": fn_mp, "support": support})
    law = MixingLaw.custom_density(fn, support)
    mu, sigma = np.array(spec["mu"]), np.array(spec["sigma"]).reshape(2, 2)
    if spec["kind"] == "lsm":
        base = EllipticalSpec(2, np.zeros(2), np.eye(2), normal_generator())
        rows = cf_location_scale_mixture_rows(
            LSMixtureSpec(base, mu, spec["gamma"], sigma, law), _points(seed))
    else:
        par = Parametrization(spec.get("parametrization", "half_root"))
        rows = cf_smsn_rows(SkewNormalSpec(mu, sigma, spec["alpha"], par), law, _points(seed))
    assert rows.error is None
    _check(spec, zip(_points(seed), rows.re + 1j * rows.im, rows.abs_err))


# Inverse-gamma laws far from scale 1, as (shape, scale, t): the mixing
# quadrature must find the law's mass wherever its scale puts it.  With
# Sigma = I and gamma = 0 the lsm values are about 1.0, 0.795, 0.508, 0.857
# and 1.15e-4.
SCALE_CASES = [
    (3.0, 1e-6, (0.5, 0.25)),
    (3.0, 1e6, (1e-3, 0.0)),
    (1.2, 1e6, (1e-3, 0.0)),
    (30.0, 1e-4, (300.0, 0.0)),
    (3.0, 1e-3, (316.2, 0.0)),
]
# The full grid of shapes and scales, one point each, where V t'Sigma t/2 = 10
# at the mode V = b/(a + 1)
GRID_CASES = [(a, b, (math.sqrt(20.0 * (a + 1.0) / b), 0.0))
              for a in (0.5, 3.0, 30.0) for b in (1e-6, 1e-3, 1.0, 1e3, 1e6)]
# Shapes below 1, whose mean diverges, down to t = 1e-12: the map's exponent
# 1/shape keeps the tail v^(-1-shape) in reach; at shape 0.3 and t = 1e-12
# the deficit 1 - phi is 7.4e-8, which a tail hidden between nodes would lose
HEAVY_CASES = [(a, 1.0, (t, 0.0)) for a in (0.2, 0.3, 0.7) for t in (1e-12, 1e-8, 1e-4)]
# Custom copies of the IG(a, 1) density: the map's exponent is measured on
# their tails v^(-1-a), as on the inverse gamma's own.  With exponent 1,
# shapes 0.2 and 0.3 reached v = inf in the constructor's mass check, and
# shape 0.5 read 0.999999994070853 at t = 1e-12 (mpmath: 0.999999999998586).
CUSTOM_CASES = [(a, 1.0, (t, 0.0)) for a in (0.2, 0.3, 0.5) for t in (1e-12, 1e-8, 1e-4)]
# SCALE_CASES and GRID_CASES also run on custom copies: their map's unit is
# measured on the density, as the inverse gamma's is, so a custom law finds
# its mass (and passes its own mass check) at any scale.
# Heavy tails at large scales, each HEAVY_CASES or CUSTOM_CASES point with
# V and t^-2 scaled by b: the exponent is measured in v / unit, where the
# density's e^(-b/v) no longer bends the slope.  Measured at v = 1e8 itself,
# IG(0.2, 1e9) took exponent 1 and reached v = inf, and IG(0.5, 1e8) read
# 7.2e-9 off.
SCALED_CASES = [(0.2, 1e9, (1e-8 / math.sqrt(1e9), 0.0)), (0.5, 1e8, (1e-12 / 1e4, 0.0))]
_UNIT = {"schema": 1, "n": 2, "mu": [0.0, 0.0], "sigma": [1.0, 0.0, 0.0, 1.0]}
SCALE_MODELS = {
    "lsm": dict(_UNIT, kind="lsm", gamma=[0.0, 0.0], generator={"family": "normal"}),
    "smsn": dict(_UNIT, kind="smsn", alpha=[2.0, -1.0]),
}


def _custom_inverse_gamma(a, b):
    # a custom law with the IG(a, b) density
    log_norm = a * math.log(b) - math.lgamma(a)
    return MixingLaw.custom_density(
        lambda v: math.exp(log_norm - (a + 1.0) * math.log(v) - b / v) if v > 0.0 else 0.0)


@pytest.mark.parametrize("shape, scale, t, make_law",
                         [(*c, MixingLaw.inverse_gamma)
                          for c in SCALE_CASES + GRID_CASES + HEAVY_CASES + SCALED_CASES]
                         + [(*c, _custom_inverse_gamma)
                            for c in CUSTOM_CASES + SCALE_CASES + GRID_CASES],
                         ids=[f"a{a:g}-b{b:g}" for a, b, _ in SCALE_CASES]
                         + [f"a{a:g}-b{b:g}-mode" for a, b, _ in GRID_CASES]
                         + [f"a{a:g}-t{t[0]:g}" for a, _, t in HEAVY_CASES]
                         + [f"a{a:g}-b{b:g}-t{t[0]:g}" for a, b, t in SCALED_CASES]
                         + [f"custom-a{a:g}-t{t[0]:g}" for a, _, t in CUSTOM_CASES]
                         + [f"custom-a{a:g}-b{b:g}" for a, b, _ in SCALE_CASES]
                         + [f"custom-a{a:g}-b{b:g}-mode" for a, b, _ in GRID_CASES])
@pytest.mark.parametrize("model", SCALE_MODELS)
def test_inverse_gamma_at_every_scale(model, shape, scale, t, make_law):
    spec = dict(SCALE_MODELS[model], mixing={"kind": "inverse_gamma", "shape": shape, "scale": scale})
    law = make_law(shape, scale)
    ts = np.array([t])
    if model == "lsm":
        base = EllipticalSpec(2, np.zeros(2), np.eye(2), normal_generator())
        rows = cf_location_scale_mixture_rows(
            LSMixtureSpec(base, np.zeros(2), np.zeros(2), np.eye(2), law), ts)
    else:
        rows = cf_smsn_rows(SkewNormalSpec(np.zeros(2), np.eye(2), spec["alpha"]), law, ts)
    assert rows.error is None
    want = ORACLES[model](spec, ts[0])
    assert abs(complex(rows.re[0], rows.im[0]) - want) <= 1e-9


@pytest.mark.parametrize("model, scale, t", [
    ("smsn", 1e-6, [0.5, 0.25]),
    ("lsm", 1e6, [1e-3, 0.0]),
])
def test_inverse_gamma_scale_closed_meets_mc(tmp_path, model, scale, t):
    # compare exits 4 where the closed and mc routes disagree beyond their bands
    spec = dict(SCALE_MODELS[model], mixing={"kind": "inverse_gamma", "shape": 3.0, "scale": scale})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    grid = json.dumps({"kind": "list", "points": [t]})
    argv = ["compare", "--spec", str(path), "--routes", "closed,mc", "--mc-count", "100000",
            "--grid", grid]
    assert cli.main(argv) == 0


# An inverse-gamma law of shape 0.2, whose tail v^-1.2 reaches so far that at
# t = (1e-8, 0) the plain half-line map's panels reached x = 1 (v = inf)
# before they met the tolerance; the edge exponent p = 1/0.2 of
# quadrature.half_line keeps its integrand bounded there.  mpmath gives
# 0.99930351755 there.
_HEAVY = dict(SCALE_MODELS["lsm"], mixing={"kind": "inverse_gamma", "shape": 0.2, "scale": 1.0})
# Shape 0.01: some 0.3% of the law's mass lies past v = 1e254, out of the
# map's reach with its exponent capped at 16, and at t = (1e-140, 0) the CF
# still counts that mass (V t^2/2 < 1e-26 there), so the panels reach v = inf.
_BEYOND_REACH = dict(SCALE_MODELS["lsm"], mixing={"kind": "inverse_gamma", "shape": 0.01, "scale": 1.0})


def _eval_heavy(tmp_path, capsys, t, spec=_HEAVY):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    grid = json.dumps({"kind": "list", "points": [t]})
    rc = cli.main(["eval", "--spec", str(path), "--routes", "closed", "--grid", grid])
    out, err = capsys.readouterr()
    return rc, out, err


def test_heavy_mixing_reaching_infinity_fails_by_name(tmp_path, capsys):
    # exit 3 naming the point and v = inf, and no numpy warning on stderr
    rc, out, err = _eval_heavy(tmp_path, capsys, [1e-140, 0.0], _BEYOND_REACH)
    assert rc == 3 and out == ""
    assert err == ("numeric failure: at grid point t=[1e-140, 0.0]: "
                   "MixingLaw.expectation: the quadrature reached v = inf\n")


def test_capped_exponent_meets_the_bessel_k_form():
    # the lsm with a normal base at t = (t1, 0) under IG(a, b) is
    # E[exp(-V t1^2/2)] = 2 (b q/2)^(a/2) K_a(sqrt(2 b q)) / Gamma(a), q = t1^2.
    # half_line caps its exponent at 16 where shape 0.01 asks for 100; the
    # map's unit, measured where v pdf(v) peaks (near b/a), keeps the tail in
    # reach at these points
    base = EllipticalSpec(2, np.zeros(2), np.eye(2), normal_generator())
    misses = []
    for scale, t1 in ((1e-6, 1e-78), (1e6, 1e-84)):
        law = MixingLaw.inverse_gamma(0.01, scale)
        rows = cf_location_scale_mixture_rows(
            LSMixtureSpec(base, np.zeros(2), np.zeros(2), np.eye(2), law), np.array([[t1, 0.0]]))
        with mp.workdps(50):
            a, bq = mp.mpf(0.01), mp.mpf(scale) * mp.mpf(t1) ** 2
            want = float(2 * (bq / 2) ** (a / 2) * mp.besselk(a, mp.sqrt(2 * bq)) / mp.gamma(a))
        if not (rows.error is None and abs(rows.re[0] - want) <= rows.abs_err[0]):
            misses.append((scale, t1, rows.re[0] - want))
    assert not misses


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_expectation_reaching_infinity_fails_its_row(scale):
    # the mean of the law, which diverges (shape 0.2 < 1): a failed row,
    # never a silent nan
    law = MixingLaw.inverse_gamma(0.2, scale)
    values, failures = law.expectation_rows(lambda rows, v: v, 1)
    assert math.isnan(values[0])
    assert str(failures[0]) == "MixingLaw.expectation: the quadrature reached v = inf"


def test_heavy_mixing_at_small_t_meets_mpmath(tmp_path, capsys):
    rc, out, _ = _eval_heavy(tmp_path, capsys, [1e-8, 0.0])
    assert rc == 0
    _, _, re, im, abs_err, _ = out.splitlines()[-1].split(",")
    want = ORACLES["lsm"](_HEAVY, np.array([1e-8, 0.0]))
    assert abs(complex(float(re), float(im)) - want) <= float(abs_err)


def test_heavy_mixing_at_larger_t_keeps_its_value(tmp_path, capsys):
    # at t = (1e-6, 0), with the map's exponent 5 and measured unit 4, the
    # printed value is 6.1e-14 off mpmath (0.99560549284169)
    rc, out, _ = _eval_heavy(tmp_path, capsys, [1e-6, 0.0])
    assert rc == 0
    row = out.splitlines()[-1]
    assert row == "9.9999999999999995e-07,0,0.99560549284175193,0,1e-08,closed"
    want = ORACLES["lsm"](_HEAVY, np.array([1e-6, 0.0]))
    assert abs(0.99560549284175193 - want) <= 1e-8


# An lsm with a normal base and inverse-gamma (0.3, 2) mixing on a full
# Sigma, the CI's BLAS-kernel spec: the generalized hyperbolic skew-t, whose
# CF has the exact form of oracles.lsm_invgamma_cf_mp.  At t = (1e-100, 0, 0)
# and (1e-2, 0, 0) its closed route meets that form.
_GH_SKEW_T = {"schema": 1, "kind": "lsm", "n": 3, "mu": [0.1, -0.23, 0.37],
              "sigma": [1, 0.3, 0, 0.3, 1.5, 0.2, 0, 0.2, 2], "gamma": [0.4, 0.1, -0.3],
              "generator": {"family": "normal"},
              "mixing": {"kind": "inverse_gamma", "shape": 0.3, "scale": 2}}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: the closed route exits 3 at t = (1e-12, 0, 0) to (1e-4, 0, 0), "
    "where the CF is well defined; at 1e-8, 'MixingLaw.expectation: quadrature error "
    "5.83e-05 exceeds 1.00e-08' against 0.99520177279928278 + 0.0024448084511352128i",
)
def test_gh_skew_t_at_small_t_meets_the_bessel_k_form(tmp_path, capsys):
    misses = []
    for t1 in (1e-12, 1e-8, 1e-6, 1e-4):
        t = [t1, 0.0, 0.0]
        rc, out, err = _eval_heavy(tmp_path, capsys, t, _GH_SKEW_T)
        if rc != 0:
            misses.append((t1, err))
            continue
        *_, re, im, abs_err, _ = out.splitlines()[-1].split(",")
        want = oracles.lsm_invgamma_cf_mp(_GH_SKEW_T, np.array(t))
        if not abs(complex(float(re), float(im)) - want) <= float(abs_err):
            misses.append((t1, complex(float(re), float(im)) - want))
    assert not misses
