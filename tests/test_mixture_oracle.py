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


@pytest.mark.parametrize("mixing", MIXINGS)
@pytest.mark.parametrize("model", MODELS)
def test_spec_closed_route(tmp_path, capsys, model, mixing):
    obj, seed = MIXINGS[mixing]
    spec = dict(MODELS[model], mixing=obj)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    grid = json.dumps({"kind": "list", "points": _points(seed).tolist()})
    assert cli.main(["eval", "--spec", str(path), "--routes", "closed", "--grid", grid]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    rows = []
    for line in lines[1:]:
        t1, t2, re, im, abs_err, _ = line.split(",")
        rows.append((np.array([float(t1), float(t2)]), complex(float(re), float(im)),
                     float(abs_err) if abs_err else math.nan))
    _check(spec, rows)


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
_UNIT = {"schema": 1, "n": 2, "mu": [0.0, 0.0], "sigma": [1.0, 0.0, 0.0, 1.0]}
SCALE_MODELS = {
    "lsm": dict(_UNIT, kind="lsm", gamma=[0.0, 0.0], generator={"family": "normal"}),
    "smsn": dict(_UNIT, kind="smsn", alpha=[2.0, -1.0]),
}


@pytest.mark.parametrize("shape, scale, t", SCALE_CASES,
                         ids=[f"a{a:g}-b{b:g}" for a, b, _ in SCALE_CASES])
@pytest.mark.parametrize("model", SCALE_MODELS)
def test_inverse_gamma_at_every_scale(model, shape, scale, t):
    spec = dict(SCALE_MODELS[model], mixing={"kind": "inverse_gamma", "shape": shape, "scale": scale})
    law = MixingLaw.inverse_gamma(shape, scale)
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
