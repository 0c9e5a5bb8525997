"""Output bytes that must not depend on how a run is cut up.

Each grid case runs `eval` through `cli.main` on a whole grid and on its two
halves, and compares the data rows (every line after the provenance comment
and the header) byte for byte.  Each draw case writes the same output with
one worker and with several, and compares whole files.
"""

from __future__ import annotations

import json

import pytest

from ellipcf import cli


def _spec(kind, n, mu, sigma, **fields):
    return dict(schema=1, kind=kind, n=n, mu=mu, sigma=sigma, **fields)


def _family(family, **params):
    return {"family": family, "params": params} if params else {"family": family}


# the named grids, each cut into the halves [:cut] and [cut:]
_GRID = [[0.05 + 0.3 * i, 0.1 * (i % 7)] for i in range(40)]
_FAR2 = [[0.05 + 3.8 * i, 0.1 * (i % 7)] for i in range(40)]
GRIDS = {
    "grid": (_GRID, 20),
    "far2": (_FAR2, 20),
    "far1": ([p[:1] for p in _FAR2], 20),
    "near1": ([[0.02 + 0.025 * i] for i in range(40)], 20),
    "small2": ([[1e-4 + 2.5e-5 * i, 0.0] for i in range(40)], 20),
    "closed": ([[0.0, 0.0]] + [[0.004 * i - 3.0, 0.1 * (i % 31) - 1.5] for i in range(1, 1500)],
               700),
}


def _rows_of(tmp_path, name, spec, grid, routes):
    # the data rows of eval on the named grid, then on its two halves
    points, cut = GRIDS[grid]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    rows = []
    for part, pts in (("all", points), ("a", points[:cut]), ("b", points[cut:])):
        out = tmp_path / f"{name}-{part}.csv"
        grid_arg = json.dumps({"kind": "list", "points": pts})
        assert cli.main(["eval", "--spec", str(path), "--grid", grid_arg, "--routes", routes,
                         "--out", str(out)]) == 0
        rows.append(out.read_text().splitlines(keepends=True)[2:])
    return rows[0], rows[1] + rows[2]


# The hankel route computes a whole grid in lockstep; a row's bytes must not
# depend on the rows computed with it.  The Bessel family's g takes Bessel K
# on each array of radii, Temme's series and Steed's fraction in lockstep.
# The normal at n = 2 and the 1-d ball run a grid out to u ~ 150, where no
# row may leave before the panel at u r_peak (the envelope's peak) and the
# ball's rows are summed to its edge.  Pearson II with m = -0.5 integrates
# its last panel through the edge map of quadrature.half_line, whose
# substitution must not tie a row to its batch.  The univariate Cauchy at u
# in [0.02, 1] leaves by the mW transformation, whose W table each row
# builds from its own partial sums.  The wide Kotz (N = 1, r = 1e-8, s = 1)
# at u in [1e-4, 1.1e-3] peaks near r = 1e4, so u r_peak runs from 1.6 to
# 18 across the grid: each row seeds its wide panels before the peak with
# cells of its own u r_peak/4 and leaves after its own number of panels.
_PLANE = dict(n=2, mu=[0, 0], sigma=[1, 0, 0, 1])
_LINE = dict(n=1, mu=[0], sigma=[1])
HANKEL = {
    "t3": (_PLANE, _family("generalized_t", s=3, m=3), "grid"),
    "bessel": (_PLANE, _family("bessel", a=1, beta=0.8), "grid"),
    "normal": (_PLANE, _family("normal"), "far2"),
    "ball1": (_LINE, _family("uniform_ball"), "far1"),
    "pearson2edge": (_PLANE, _family("pearson_ii", m=-0.5), "grid"),
    "cauchy1": (_LINE, _family("generalized_t", s=1, m=1), "near1"),
    "kotz-wide": (_PLANE, _family("kotz", N=1, r=1e-8, s=1), "small2"),
}


@pytest.mark.parametrize("case", list(HANKEL))
def test_hankel_rows_do_not_depend_on_their_batch(tmp_path, case):
    law, generator, grid = HANKEL[case]
    spec = _spec("elliptical", **law, generator=generator)
    whole, halves = _rows_of(tmp_path, case, spec, grid, "hankel")
    assert whole == halves


# The star-unimodal route (the hankel route of smu) also runs a whole grid in
# one lockstep call; the same check, with a nonzero mu.  Pearson II with
# m = 0.3 integrates its last panel through the edge map of
# quadrature.half_line, with g' at the distance the map carries.
STAR = {
    "t3": _family("generalized_t", s=3, m=3),
    "pearson2": _family("pearson_ii", m=0.3),
}


@pytest.mark.parametrize("case", list(STAR))
def test_star_route_rows_do_not_depend_on_their_batch(tmp_path, case):
    spec = _spec("smu", 2, [0.1, -0.2], [1, 0, 0, 1], generator=STAR[case])
    whole, halves = _rows_of(tmp_path, case, spec, "grid", "hankel")
    assert whole == halves


# The closed grid forms cut a grid into passes of 1024 rows and compute each
# pass's quadratic forms and phases t'mu on their own: a grid of 1500 points
# (two passes, the origin first) against its halves, with a nonzero mu, for
# each closed kind.  The ball and Kotz specs stretch u to about 23, past
# 0F1's switch to Bessel J and into 1F1 series of some 260 terms, which the
# array forms sum in lockstep.  Pearson VII's Bessel K argument sqrt(s) u
# crosses 2, the switch from Temme's series to Steed's fraction.  The lsm
# with inverse-gamma mixing of shape 0.3 integrates through
# quadrature.half_line with the scale and exponent measured on its density.
_SKEWED = dict(n=2, mu=[0.1, -0.23], sigma=[1, 0.3, 0.3, 1.5])
_WIDE = dict(n=2, mu=[0.1, -0.23], sigma=[36, 10.8, 10.8, 54])
_ALPHA = [2, -0.5]
_INV_GAMMA = {"kind": "inverse_gamma", "shape": 3, "scale": 2}
CLOSED = {
    "skew_normal": _spec("skew_normal", **_SKEWED, alpha=_ALPHA),
    "gse_skew_normal": _spec("gse_skew_normal", **_SKEWED, alpha=_ALPHA,
                             parametrization="full_sigma"),
    "smsn": _spec("smsn", **_SKEWED, alpha=_ALPHA, mixing=_INV_GAMMA),
    "lsm": _spec("lsm", **_SKEWED, gamma=[0.4, 0.1], generator=_family("generalized_t", s=3, m=3),
                 mixing=_INV_GAMMA),
    "lsm_heavy": _spec("lsm", **_SKEWED, gamma=[0.4, 0.1], generator=_family("normal"),
                       mixing={"kind": "inverse_gamma", "shape": 0.3, "scale": 2}),
    "elliptical": _spec("elliptical", **_SKEWED, generator=_family("pearson_ii", m=1.5)),
    "pearson_vii": _spec("elliptical", **_SKEWED, generator=_family("pearson_vii", N=2.3, s=1.5)),
    "ball": _spec("elliptical", **_WIDE, generator=_family("uniform_ball")),
    "kotz": _spec("elliptical", **_WIDE, generator=_family("kotz", N=2, r=0.5, s=1)),
}


@pytest.mark.parametrize("case", list(CLOSED))
def test_closed_rows_do_not_depend_on_their_batch(tmp_path, case):
    whole, halves = _rows_of(tmp_path, case, CLOSED[case], "closed", "closed")
    assert whole == halves


# Every chunk of draws comes from its own Philox key and is written in chunk
# order, so a sample file must not depend on --workers: 70000 draws (three
# chunks, the last one short) of each sampler kind.  The mc route of compare
# streams its draws the same way, beside the closed and hankel routes.
_DRAWN = dict(n=2, mu=[0.1, -0.2], sigma=[1, 0.3, 0.3, 1.5])
_SAMPLE = ["sample", "--count", "70000", "--seed", "7"]
WORKERS = {
    "t": (_spec("elliptical", **_DRAWN, generator=_family("generalized_t", s=3, m=3)), _SAMPLE),
    "sn-half": (_spec("skew_normal", **_DRAWN, alpha=_ALPHA), _SAMPLE),
    "sn-full": (_spec("skew_normal", **_DRAWN, alpha=_ALPHA, parametrization="full_sigma"),
                _SAMPLE),
    "lsm": (_spec("lsm", **_DRAWN, gamma=[0.4, 0.1], generator=_family("normal"),
                  mixing={"kind": "finite_discrete", "points": [0.5, 2], "weights": [0.4, 0.6]}),
            _SAMPLE),
    "smsn": (_spec("smsn", **_DRAWN, alpha=_ALPHA, mixing=_INV_GAMMA), _SAMPLE),
    "normal": (_spec("elliptical", **_PLANE, generator=_family("normal")), _SAMPLE),
    "compare-normal": (
        _spec("elliptical", **_PLANE, generator=_family("normal")),
        ["compare", "--routes", "closed,hankel,mc", "--mc-count", "100000", "--seed", "17",
         "--grid", '{"kind":"axis","index":0,"start":0.2,"stop":2.0,"num":6}'],
    ),
}


@pytest.mark.parametrize("case", list(WORKERS))
def test_draws_do_not_depend_on_workers(tmp_path, case):
    spec, args = WORKERS[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    outs = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}.csv"
        assert cli.main([*args, "--spec", str(path), "--workers", workers, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
