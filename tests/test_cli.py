"""CLI tests: spec validation, exit-code contract, CSV schema, determinism."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ellipcf
from ellipcf import cli
from ellipcf import elliptical
from ellipcf import generators
from ellipcf import quadrature
from ellipcf import sampling
from ellipcf import skewmix
from ellipcf.errors import ConvergenceError, DomainError


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def normal_spec(n=2, mu=None, sigma=None):
    return {
        "schema": 1,
        "kind": "elliptical",
        "n": n,
        "mu": mu or [0.0] * n,
        "sigma": sigma or [float(i == j) for i in range(n) for j in range(n)],
        "generator": {"family": "normal"},
    }


def patch_closed_form(monkeypatch, family, wrap):
    """Build the spec's `family` generators with wrap(real) as their record's
    closed form, real being the one the constructor set."""
    constructor, names, integers = cli._FAMILIES[family]

    def patched(*args):
        gen = constructor(*args)
        gen.closed_form = wrap(gen.closed_form)
        return gen

    monkeypatch.setitem(cli._FAMILIES, family, (patched, names, integers))


def parse_result_csv(text):
    """Reference parser: '#' comments, one header, float cells with a
    trailing method column when present."""
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestEval:
    def test_unit_at_origin(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main(["eval", "--spec", spec, "--grid", '{"kind":"list","points":[[0.0,0.0]]}'])
        assert rc == 0
        comments, header, rows = parse_result_csv(capsys.readouterr().out)
        assert header == ["t1", "t2", "re", "im", "abs_err", "method"]
        assert float(rows[0][2]) == 1.0 and float(rows[0][3]) == 0.0

    def test_cauchy_value(self, tmp_path, capsys):
        obj = normal_spec()
        obj["generator"] = {"family": "generalized_t", "params": {"s": 1.0, "m": 1}}
        spec = write_spec(tmp_path, "c.json", obj)
        rc = cli.main(["eval", "--spec", spec, "--grid", '{"kind":"list","points":[[2.0,0.0]]}'])
        assert rc == 0
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        assert abs(float(rows[0][2]) - math.exp(-2.0)) < 1e-12
        assert float(rows[0][3]) == 0.0

    def test_hankel_normal_n2_at_high_frequency(self, tmp_path, capsys):
        # no row leaves before its envelope's peak, and none is refused while
        # the envelope still rises: phi = exp(-u^2/2), 0 to within abs_err
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main(["eval", "--spec", spec, "--routes", "hankel",
                       "--grid", '{"kind":"list","points":[[68.0,0.0],[150.0,0.0]]}'])
        assert rc == 0
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        assert len(rows) == 2
        for row in rows:
            assert abs(complex(float(row[2]), float(row[3]))) <= float(row[4])

    @pytest.mark.parametrize("kind", ["elliptical", "skew_normal"])
    @pytest.mark.parametrize(
        "sigma",
        [[1.0, 0.5, 0.0, 1.0], [1.0, math.nan, math.nan, 1.0], [1.0, 0.0, 0.0, math.inf]],
        ids=["asymmetric", "nan", "inf"],
    )
    def test_asymmetric_sigma_exit_2(self, tmp_path, capsys, sigma, kind):
        obj = normal_spec(sigma=sigma)
        if kind == "skew_normal":
            del obj["generator"]
            obj.update(kind="skew_normal", alpha=[1.0, -1.0])
        spec = write_spec(tmp_path, "bad.json", obj)
        rc = cli.main(["eval", "--spec", spec, "--grid", '{"kind":"list","points":[[1.0,0.0]]}'])
        assert rc == 2
        assert "sigma" in capsys.readouterr().err

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        obj = normal_spec()
        obj["sigma_scale"] = 2.0
        spec = write_spec(tmp_path, "u.json", obj)
        rc = cli.main(["eval", "--spec", spec, "--grid", '{"kind":"list","points":[[1.0,0.0]]}'])
        assert rc == 2
        assert "sigma_scale" in capsys.readouterr().err

    def test_unknown_generator_param_exit_2(self, tmp_path, capsys):
        obj = normal_spec()
        obj["generator"] = {"family": "kotz", "params": {"N": 1.0, "r": 0.5, "s": 1.0, "q": 3}}
        spec = write_spec(tmp_path, "k.json", obj)
        rc = cli.main(["eval", "--spec", spec, "--grid", '{"kind":"list","points":[[1.0,0.0]]}'])
        assert rc == 2
        assert "params.q" in capsys.readouterr().err

    def test_missing_schema_version(self, tmp_path, capsys):
        obj = normal_spec()
        del obj["schema"]
        spec = write_spec(tmp_path, "s.json", obj)
        rc = cli.main(["eval", "--spec", spec, "--grid", '{"kind":"list","points":[[1.0,0.0]]}'])
        assert rc == 2
        assert "schema" in capsys.readouterr().err

    def test_axis_grid(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        grid = '{"kind":"axis","index":1,"start":0.0,"stop":2.0,"num":5}'
        rc = cli.main(["eval", "--spec", spec, "--grid", grid])
        assert rc == 0
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        assert len(rows) == 5
        assert float(rows[-1][1]) == 2.0
        assert abs(float(rows[-1][2]) - math.exp(-2.0)) < 1e-12

    def test_grid_from_file(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        gridfile = tmp_path / "grid.json"
        gridfile.write_text('{"kind":"list","points":[[1.0,0.0]]}')
        rc = cli.main(["eval", "--spec", spec, "--grid", f"@{gridfile}"])
        assert rc == 0

    def test_hankel_unavailable_for_skew_normal(self, tmp_path, capsys):
        obj = {
            "schema": 1, "kind": "skew_normal", "n": 1,
            "mu": [0.0], "sigma": [1.0], "alpha": [2.0],
        }
        spec = write_spec(tmp_path, "sn.json", obj)
        rc = cli.main([
            "eval", "--spec", spec, "--routes", "hankel",
            "--grid", '{"kind":"list","points":[[1.0]]}',
        ])
        assert rc == 2

    def test_mc_count_floor(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main([
            "eval", "--spec", spec, "--routes", "mc", "--mc-count", "100",
            "--grid", '{"kind":"list","points":[[1.0,0.0]]}',
        ])
        assert rc == 2
        assert "mc_count" in capsys.readouterr().err

    def test_numeric_failure_exit_3_names_grid_point(self, tmp_path, capsys, monkeypatch):
        from ellipcf.errors import ConvergenceError

        def broken(gen, n, us):
            raise ConvergenceError("synthetic quadrature breakdown")

        monkeypatch.setattr(quadrature, "phi_hankel_rows", broken)
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main([
            "eval", "--spec", spec, "--routes", "hankel",
            "--grid", '{"kind":"list","points":[[1.5,0.0]]}',
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "1.5" in err and "numeric failure" in err
        assert "np.float64" not in err

    @pytest.mark.parametrize(
        "grid, named",
        [
            ('{"kind":"list","points":[[1.0,0.0],[NaN,0.0]]}', "grid.points[1]: non-finite entry"),
            ('{"kind":"list","points":[[0.0,0.0],[1.0,1.0],[1.0,-Infinity]]}',
             "grid.points[2]: non-finite entry"),
            ('{"kind":"list","points":[[1.0,null]]}', "grid.points[0]: non-numeric entry"),
            ('{"kind":"axis","index":0,"start":0.0,"stop":Infinity,"num":3}',
             "grid.stop: non-finite value"),
        ],
    )
    def test_non_finite_grid_point_exit_2(self, tmp_path, capsys, grid, named):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main(["eval", "--spec", spec, "--grid", grid])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("num", [10**17, 10**19])
    def test_axis_past_memory_exit_2(self, tmp_path, capsys, num):
        # 10^17 points at n = 2 are past any address space, so the
        # allocation fails before it touches memory; 10^19 is past numpy's
        # largest dimension
        spec = write_spec(tmp_path, "n.json", normal_spec())
        grid = json.dumps({"kind": "axis", "index": 0, "start": 0.0, "stop": 1.0, "num": num})
        rc = cli.main(["eval", "--spec", spec, "--grid", grid])
        assert rc == 2
        assert capsys.readouterr().err == f"spec error: grid.num: {num} points do not fit in memory\n"

    def test_axis_span_past_float_range_exit_2(self, tmp_path, capsys):
        # finite ends whose difference overflows, named without numpy's warnings
        spec = write_spec(tmp_path, "n.json", normal_spec())
        grid = '{"kind":"axis","index":0,"start":-1e308,"stop":1e308,"num":5}'
        rc = cli.main(["eval", "--spec", spec, "--grid", grid])
        assert rc == 2
        assert capsys.readouterr().err == (
            "spec error: grid: the span from start to stop overflows the float range\n")
        # a span just inside the range keeps linspace's points
        grid = '{"kind":"axis","index":1,"start":-8e307,"stop":8e307,"num":7}'
        points = cli.parse_grid(grid, 2)
        assert points[:, 1].tobytes() == np.linspace(-8e307, 8e307, 7).tobytes()
        assert not points[:, 0].any()

    def test_stacked_failure_names_first_failing_point(self, tmp_path, capsys, monkeypatch):
        def breaks_above_q3(real):
            def closed_form(n, q):
                if (q > 3.0).any():
                    raise ConvergenceError("synthetic series breakdown")
                return real(n, q)
            return closed_form

        patch_closed_form(monkeypatch, "normal", breaks_above_q3)
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main([
            "eval", "--spec", spec,
            "--grid", '{"kind":"list","points":[[0.5,0.0],[0.0,2.5],[3.0,0.0]]}',
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "at grid point t=[0.0, 2.5]: synthetic series breakdown" in err

    @pytest.mark.parametrize("kind", ["lsm", "smsn"])
    def test_mixture_failure_names_first_failing_point(self, tmp_path, capsys, monkeypatch, kind):
        # the rows of a mixture grid are computed together; a failing row
        # still fails alone, and the first one in grid order is named
        finite = {"kind": "finite_discrete", "points": [0.5, 1.0, 2.5], "weights": [0.3, 0.5, 0.2]}
        if kind == "lsm":
            real = skewmix.char_generator_rows

            def breaks(gen, n, qs, route="closed"):
                if (np.asarray(qs) > 20.0).any():
                    raise ConvergenceError("synthetic series breakdown")
                return real(gen, n, qs, route)

            monkeypatch.setattr(skewmix, "char_generator_rows", breaks)
            obj = dict(normal_spec(), kind="lsm", gamma=[0.4, 0.1], mixing=finite)
        else:
            real = skewmix.norm_cdf_imag_scaled

            def breaks(y):
                if (abs(np.asarray(y)) > 3.0).any():
                    raise ConvergenceError("synthetic series breakdown")
                return real(y)

            monkeypatch.setattr(skewmix, "norm_cdf_imag_scaled", breaks)
            obj = dict(normal_spec(), kind="smsn", alpha=[1.0, 0.0], mixing=finite)
            del obj["generator"]
        spec = write_spec(tmp_path, "m.json", obj)
        rc = cli.main([
            "eval", "--spec", spec,
            "--grid", '{"kind":"list","points":[[0.5,0.0],[0.0,0.3],[3.5,0.0],[4.0,0.0]]}',
        ])
        assert rc == 3
        assert "at grid point t=[3.5, 0.0]: synthetic series breakdown" in capsys.readouterr().err

    def test_failure_named_in_grid_order_across_routes(self, tmp_path, capsys, monkeypatch):
        # closed fails from the third point on, hankel from the second: the
        # message names the second point, as a point-by-point sweep would
        def closed_breaks(real):
            def closed_form(n, q):
                if (q > 5.0).any():
                    raise ConvergenceError("closed breakdown")
                return real(n, q)
            return closed_form

        def hankel_breaks(gen, n, us):
            raise ConvergenceError("hankel breakdown")

        patch_closed_form(monkeypatch, "normal", closed_breaks)
        monkeypatch.setattr(quadrature, "phi_hankel_rows", hankel_breaks)
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main([
            "compare", "--spec", spec, "--routes", "closed,hankel",
            "--grid", '{"kind":"list","points":[[0.0,0.0],[2.0,0.0],[2.5,0.0]]}',
        ])
        assert rc == 3
        assert "at grid point t=[2.0, 0.0]: hankel breakdown" in capsys.readouterr().err

    def test_smu_hankel_small_u_heavy_tail(self, tmp_path, capsys):
        # E[R^4] does not exist for this t, which the star route's engine
        # does not need at small u
        obj = dict(_gen_spec("generalized_t", {"s": 3.0, "m": 3}), kind="smu")
        spec = write_spec(tmp_path, "smu.json", obj)
        rc = cli.main([
            "eval", "--spec", spec, "--routes", "hankel",
            "--grid", '{"kind":"list","points":[[5e-4,0.0]]}',
        ])
        assert rc == 0
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        assert abs(float(rows[0][2]) - 0.99999962521644) <= 1e-12
        assert rows[0][5] == "hankel"

    def test_hankel_failing_small_u_series_falls_back(self, tmp_path, capsys):
        # Kotz (N = 1, r = 1e-8, s = 1) is a wide normal: at u = 9e-4 a
        # moment series did not converge in 30 terms; the oscillatory engine
        # meets phi = exp(-u^2/(4 r))
        obj = _gen_spec("kotz", {"N": 1.0, "r": 1e-8, "s": 1.0})
        spec = write_spec(tmp_path, "k.json", obj)
        rc = cli.main(["eval", "--spec", spec, "--routes", "hankel",
                       "--grid", '{"kind":"list","points":[[9e-4,0.0]]}'])
        assert rc == 0
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        assert abs(float(rows[0][2]) - math.exp(-20.25)) <= float(rows[0][4])
        assert rows[0][5] == "hankel"

    def test_smu_star_check_at_any_scale(self, tmp_path, capsys):
        # Kotz (N = 1, r = 1e12, s = 1) is a narrow normal, star unimodal
        # though its g' underflows to 0 from z = 1e-9 on: the check must
        # probe g' where it lives.  phi = exp(-1/4)
        obj = dict(_gen_spec("kotz", {"N": 1.0, "r": 1e12, "s": 1.0}), kind="smu")
        spec = write_spec(tmp_path, "smu.json", obj)
        rc = cli.main(["eval", "--spec", spec, "--routes", "hankel",
                       "--grid", '{"kind":"list","points":[[1e6,0.0]]}'])
        assert rc == 0
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        assert abs(float(rows[0][2]) - math.exp(-0.25)) <= float(rows[0][4])

    @pytest.mark.parametrize("r", [1e30, 1e40])
    @pytest.mark.parametrize("kind", ["elliptical", "smu"])
    def test_hankel_peak_at_any_scale(self, tmp_path, capsys, kind, r):
        # Kotz (N = 1, r, s = 1) is a normal of variance 1/(2 r), whose
        # envelope peaks near r^(-1/2): the engine must read its r_peak
        # there, at any scale.  phi = exp(-u^2/(4 r)) = exp(-1) at u = 2 sqrt(r)
        obj = dict(_gen_spec("kotz", {"N": 1.0, "r": r, "s": 1.0}), kind=kind)
        spec = write_spec(tmp_path, "k.json", obj)
        grid = json.dumps({"kind": "list", "points": [[2.0 * math.sqrt(r), 0.0]]})
        rc = cli.main(["eval", "--spec", spec, "--routes", "closed,hankel", "--grid", grid])
        assert rc == 0
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        assert [row[5] for row in rows] == ["closed", "hankel"]
        assert abs(float(rows[0][2]) - math.exp(-1.0)) <= 4e-16
        assert abs(float(rows[1][2]) - math.exp(-1.0)) <= float(rows[1][4])

    @pytest.mark.parametrize("kind", ["elliptical", "smu"])
    def test_hankel_narrow_peak_at_small_u(self, tmp_path, capsys, kind):
        # Kotz (N = 1, r = 1e12, s = 1) at u = 1 and 1000, where u r_peak << 1:
        # the first Bessel panel must be seeded down to the envelope's scale.
        # Seed cells a fixed 1/4 wide in r read re = 0, abs_err = 0 with exit 0
        obj = dict(_gen_spec("kotz", {"N": 1.0, "r": 1e12, "s": 1.0}), kind=kind)
        spec = write_spec(tmp_path, "k.json", obj)
        grid = '{"kind":"list","points":[[1.0,0.0],[1000.0,0.0]]}'
        rc = cli.main(["eval", "--spec", spec, "--routes", "closed,hankel", "--grid", grid])
        assert rc == 0
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        closed = {row[0]: float(row[2]) for row in rows if row[5] == "closed"}
        hankel = [row for row in rows if row[5] == "hankel"]
        assert [row[0] for row in hankel] == ["1", "1000"]
        for row in hankel:
            assert abs(float(row[2]) - closed[row[0]]) <= float(row[4])

    @pytest.mark.parametrize("kind", ["elliptical", "smu", "lsm"])
    def test_hankel_routes_compute_no_bessel_zero(self, tmp_path, monkeypatch, kind):
        # the Bessel panels end at a formula: the hankel routes' bytes are the
        # same with every Bessel zero search of the package made to raise
        obj = {
            "elliptical": normal_spec(),
            "smu": dict(_gen_spec("generalized_t", {"s": 3.0, "m": 3}), kind="smu"),
            "lsm": _lsm_spec({"kind": "finite_discrete", "points": [0.5, 2.0],
                              "weights": [0.25, 0.75]}),
        }[kind]
        spec = write_spec(tmp_path, "s.json", obj)
        grid = '{"kind":"list","points":[[0.5,0.0],[2.0,1.0],[7.0,0.0]]}'

        def run(name):
            out = tmp_path / name
            argv = ["eval", "--spec", spec, "--routes", "hankel", "--grid", grid, "--out", str(out)]
            assert cli.main(argv) == 0
            return out.read_bytes()

        def no_zero(nu, k):
            raise AssertionError("a Bessel zero was computed")

        before = run("a.csv")
        for name, module in list(sys.modules.items()):
            if name.startswith("ellipcf") and hasattr(module, "bessel_j_zero"):
                monkeypatch.setattr(module, "bessel_j_zero", no_zero)
        assert run("b.csv") == before

    @pytest.mark.parametrize("kind", ["elliptical", "smu"])
    def test_origin_only_hankel_runs_no_quadrature(self, tmp_path, capsys, monkeypatch, kind):
        # the hankel route is always available: nothing is integrated before the grid
        calls = []
        real = quadrature._oscillatory_rows

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_oscillatory_rows", counted)
        obj = dict(_gen_spec("pearson_vii", {"N": 2.0, "s": 1.0}), kind=kind)
        spec = write_spec(tmp_path, "p7.json", obj)
        rc = cli.main(["eval", "--spec", spec, "--routes", "hankel",
                       "--grid", '{"kind":"list","points":[[0.0,0.0]]}'])
        assert rc == 0 and not calls
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        assert float(rows[0][2]) == 1.0

    @pytest.mark.parametrize(
        "routes, points",
        [("hankel", [[0.0, 0.0]]), ("hankel", [[0.5, 0.0], [1.5, 0.0]]),
         ("closed,hankel", [[0.5, 0.0], [1.5, 0.0]])],
        ids=["origin", "nonzero", "closed-fails-first"],
    )
    def test_smu_not_star_unimodal_is_spec_error(self, tmp_path, capsys, monkeypatch, routes, points):
        # a Kotz N = 2 generator rises from the origin: the star route is
        # refused as the evaluator is built, before any grid point, even where
        # the closed route fails numerically at the first point
        def closed_breaks(real):
            def closed_form(n, q):
                raise ConvergenceError("closed breakdown")
            return closed_form

        if routes.startswith("closed"):
            patch_closed_form(monkeypatch, "kotz", closed_breaks)
        obj = dict(_gen_spec("kotz", {"N": 2.0, "r": 0.5, "s": 1.0}), kind="smu")
        spec = write_spec(tmp_path, "smu.json", obj)
        grid = json.dumps({"kind": "list", "points": points})
        assert cli.main(["eval", "--spec", spec, "--routes", routes, "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert "spec error: not star unimodal: g' > 0 detected on the support" in err

    def test_closed_unavailable_exit_2(self, tmp_path, capsys):
        obj = normal_spec()
        obj["generator"] = {"family": "kotz", "params": {"N": 2.0, "r": 0.5, "s": 0.75}}
        spec = write_spec(tmp_path, "k.json", obj)
        rc = cli.main([
            "eval", "--spec", spec, "--routes", "closed",
            "--grid", '{"kind":"list","points":[[1.0,0.0]]}',
        ])
        assert rc == 2

    def test_kotz_half_closed_at_n200(self, tmp_path, capsys):
        # Kotz (N = 1, s = 1/2) is (1 + q/r^2)^(-(n+1)/2); its gamma factors
        # once overflowed at this n.  Here q = 1/4 and r = 1/2: 2^(-201/2)
        obj = normal_spec(200)
        obj["generator"] = {"family": "kotz", "params": {"N": 1.0, "r": 0.5, "s": 0.5}}
        spec = write_spec(tmp_path, "k.json", obj)
        grid = json.dumps({"kind": "list", "points": [[0.5] + [0.0] * 199]})
        assert cli.main(["eval", "--spec", spec, "--routes", "closed", "--grid", grid]) == 0
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        assert float(rows[0][200]) == 2.0**-100.5 and float(rows[0][201]) == 0.0


def _with(obj, path, value):
    """A deep copy of obj with the entry at the key path set to value."""
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return obj


def _gen_spec(family, params):
    return dict(normal_spec(), generator={"family": family, "params": params})


def _lsm_spec(mixing):
    return dict(normal_spec(), kind="lsm", gamma=[0.4, 0.1], mixing=mixing)


def _skew_spec(alpha):
    obj = dict(normal_spec(), kind="skew_normal", alpha=alpha)
    del obj["generator"]
    return obj


_AXIS = {"kind": "axis", "index": 0, "start": 0.0, "stop": 1.0, "num": 3}
_DEGENERATE = {"kind": "degenerate", "v0": 1.0}
_FINITE = {"kind": "finite_discrete", "points": [0.5, 2.0], "weights": [0.4, 0.6]}
_INV_GAMMA = {"kind": "inverse_gamma", "shape": 3.0, "scale": 2.0}


class TestFieldTypes:
    """Spec and grid fields must be JSON numbers, integral where an integer
    is meant; anything else is exit 2 naming the field, never a traceback
    and never a silent truncation."""

    @pytest.mark.parametrize(
        "spec, grid, named",
        [
            (_with(normal_spec(), ["n"], 2.5), _AXIS, "n: expected an integer, got 2.5"),
            (_with(normal_spec(), ["n"], "2"), _AXIS, 'n: expected a number, got "2"'),
            (_gen_spec("generalized_t", {"s": 2.0, "m": 3.5}), _AXIS,
             "generator.params.m: expected an integer, got 3.5"),
            (_gen_spec("generalized_t", {"s": 2.0, "m": "x"}), _AXIS,
             'generator.params.m: expected a number, got "x"'),
            (_gen_spec("pearson_vii", {"N": 2.3, "s": None}), _AXIS,
             "generator.params.s: expected a number, got null"),
            (_gen_spec("pearson_ii", {"m": True}), _AXIS,
             "generator.params.m: expected a number, got true"),
            (_lsm_spec(_with(_DEGENERATE, ["v0"], "1")), _AXIS,
             'mixing.v0: expected a number, got "1"'),
            (_lsm_spec(_with(_INV_GAMMA, ["shape"], None)), _AXIS,
             "mixing.shape: expected a number, got null"),
            (_lsm_spec(_with(_INV_GAMMA, ["scale"], "x")), _AXIS,
             'mixing.scale: expected a number, got "x"'),
            (_lsm_spec(_with(_FINITE, ["points"], [None, 2.0])), _AXIS,
             "mixing.points[0]: expected a number, got null"),
            (_lsm_spec(_with(_FINITE, ["weights"], "abc")), _AXIS,
             "mixing.weights: expected a list of numbers"),
            (normal_spec(), _with(_AXIS, ["index"], 0.7),
             "grid.index: expected an integer, got 0.7"),
            (normal_spec(), _with(_AXIS, ["index"], "a"),
             'grid.index: expected a number, got "a"'),
            (normal_spec(), _with(_AXIS, ["num"], 2.9), "grid.num: expected an integer, got 2.9"),
            (normal_spec(), _with(_AXIS, ["num"], None), "grid.num: expected a number, got null"),
            (normal_spec(), _with(_AXIS, ["start"], "x"),
             'grid.start: expected a number, got "x"'),
            (normal_spec(), _with(_AXIS, ["stop"], None),
             "grid.stop: expected a number, got null"),
            (_with(normal_spec(), ["mu"], ["0.5", True]), _AXIS, "mu: non-numeric entry"),
            (_with(normal_spec(), ["sigma"], [1.0, 0.0, False, 1.0]), _AXIS,
             "sigma: non-numeric entry"),
            (_with(_lsm_spec(_DEGENERATE), ["gamma"], [0.4, "0.1"]), _AXIS,
             "gamma: non-numeric entry"),
            (_skew_spec([True, 0.0]), _AXIS, "alpha: non-numeric entry"),
            (normal_spec(), {"kind": "list", "points": [["1.0", False]]},
             "grid.points[0]: non-numeric entry"),
            (normal_spec(), {"kind": "list", "points": [[1.0, 0.0], [True, 0.0]]},
             "grid.points[1]: non-numeric entry"),
        ],
        ids=[
            "n-fraction", "n-string", "gen-t-m-fraction", "gen-t-m-string", "pearson7-s-null",
            "pearson2-m-bool", "v0-string", "shape-null", "scale-string", "points-null",
            "weights-string", "index-fraction", "index-string", "num-fraction", "num-null",
            "start-string", "stop-null", "mu-string-bool", "sigma-bool", "gamma-string",
            "alpha-bool", "point-string-bool", "point-bool",
        ],
    )
    def test_bad_field_exit_2(self, tmp_path, capsys, spec, grid, named):
        path = write_spec(tmp_path, "s.json", spec)
        rc = cli.main(["eval", "--spec", path, "--grid", json.dumps(grid)])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_integral_floats_accepted(self, tmp_path, capsys):
        spec = _with(_gen_spec("generalized_t", {"s": 2.0, "m": 3.0}), ["n"], 2.0)
        grid = dict(_AXIS, index=1.0, num=3.0)
        path = write_spec(tmp_path, "s.json", spec)
        rc = cli.main(["eval", "--spec", path, "--grid", json.dumps(grid)])
        assert rc == 0
        _, _, rows = parse_result_csv(capsys.readouterr().out)
        assert [row[:2] for row in rows] == [["0", "0"], ["0", "0.5"], ["0", "1"]]


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


_KIND_LIST = "('elliptical', 'lsm', 'gse_skew_normal', 'skew_normal', 'smsn', 'smu')"
_SN = _skew_spec([2.0, -0.5])
_SMSN = dict(_SN, kind="smsn", mixing=_FINITE)
# a non-finite mixing field (JSON NaN or Infinity): the mixing's spec error,
# before any route runs or any draw is made
_NON_FINITE_MIXINGS = [
    ("weights-nan", dict(_FINITE, weights=[math.nan, 1.0]),
     "MixingLaw.finite_discrete: points and weights must be finite"),
    ("point-nan", dict(_FINITE, points=[math.nan, 2.0]),
     "MixingLaw.finite_discrete: points and weights must be finite"),
    ("point-inf", dict(_FINITE, points=[math.inf, 1.0]),
     "MixingLaw.finite_discrete: points and weights must be finite"),
    ("v0-inf", dict(_DEGENERATE, v0=math.inf), "MixingLaw.degenerate: v0 must be finite"),
    ("v0-nan", dict(_DEGENERATE, v0=math.nan), "MixingLaw.degenerate: v0 must be finite"),
    ("shape-inf", dict(_INV_GAMMA, shape=math.inf),
     "MixingLaw.inverse_gamma: shape and scale must be finite"),
]


def _mixture_specs(mixing):
    return [("lsm", _lsm_spec(mixing)), ("smsn", dict(_SMSN, mixing=mixing))]


# a non-finite generator parameter (JSON NaN or Infinity): the family's
# spec error, before any route runs or any draw is made
_NON_FINITE_GENERATORS = [
    ("generalized_t-s-inf", "generalized_t", {"s": math.inf, "m": 3},
     "generalized_t_generator: s must be finite"),
    ("pearson_ii-m-inf", "pearson_ii", {"m": math.inf}, "pearson_ii_generator: m must be finite"),
    ("pearson_vii-N-inf", "pearson_vii", {"N": math.inf, "s": 1},
     "pearson_vii_generator: N must be finite"),
    ("pearson_vii-s-nan", "pearson_vii", {"N": 2, "s": math.nan},
     "pearson_vii_generator: s must be finite"),
    ("kotz-N-nan", "kotz", {"N": math.nan, "r": 0.5, "s": 1}, "kotz_generator: N must be finite"),
    ("kotz-r-inf", "kotz", {"N": 1, "r": math.inf, "s": 1}, "kotz_generator: r must be finite"),
    ("kotz-s-inf", "kotz", {"N": 1, "r": 0.5, "s": math.inf}, "kotz_generator: s must be finite"),
    ("bessel-a-nan", "bessel", {"a": math.nan, "beta": 1}, "bessel_generator: a must be finite"),
    ("bessel-a-inf", "bessel", {"a": math.inf, "beta": 1}, "bessel_generator: a must be finite"),
    ("bessel-beta-inf", "bessel", {"a": 0.5, "beta": math.inf},
     "bessel_generator: beta must be finite"),
]


def _generator_specs(family, params):
    generator = {"family": family, "params": params}
    return [("elliptical", _gen_spec(family, params)),
            ("lsm", dict(_lsm_spec(_FINITE), generator=generator)),
            ("smu", dict(_gen_spec(family, params), kind="smu"))]


class TestSpecMessages:
    """The whole stderr line of each spec error raised while a spec's
    family, kind, fields and routes are looked up: exit 2, the message
    naming the field or the condition."""

    @pytest.mark.parametrize("spec, route, message", [
        pytest.param(_gen_spec("generalized_t", {"s": 3, "m": 3, "x": 1}), "closed",
                     "generator.params.x: unknown parameter", id="unknown-parameter"),
        pytest.param(_gen_spec("pearson_vii", {"N": 2}), "closed",
                     "generator.params.s: missing parameter", id="missing-parameter"),
        pytest.param(_gen_spec("generalized_t", {"s": 3, "m": 3.5}), "closed",
                     "generator.params.m: expected an integer, got 3.5",
                     id="parameter-not-integer"),
        pytest.param(_gen_spec("pearson_vii", {"N": 2, "s": -1}), "closed",
                     "generator.params: pearson_vii_generator: s must be > 0",
                     id="parameter-domain"),
        pytest.param(_gen_spec("bogus", []), "closed",
                     "generator.params: expected an object", id="params-not-object"),
        pytest.param(_gen_spec("bogus", {}), "closed",
                     "generator.family: unknown family 'bogus'", id="unknown-family"),
        pytest.param(_gen_spec(["normal"], {}), "closed",
                     "generator.family: unknown family ['normal']", id="unhashable-family"),
        pytest.param(dict(normal_spec(), kind="bogus"), "closed",
                     f"kind: unknown kind 'bogus' (expected one of {_KIND_LIST})",
                     id="unknown-kind"),
        pytest.param(dict(normal_spec(), kind=["elliptical"]), "closed",
                     f"kind: unknown kind ['elliptical'] (expected one of {_KIND_LIST})",
                     id="unhashable-kind"),
        pytest.param(_lsm_spec({"kind": "bogus"}), "closed",
                     "mixing.kind: unknown mixing kind 'bogus'", id="unknown-mixing-kind"),
        pytest.param(_lsm_spec(["degenerate"]), "closed",
                     "mixing: expected an object", id="mixing-not-object"),
        pytest.param(_lsm_spec({"kind": ["degenerate"], "v0": 1}), "closed",
                     "mixing.kind: unknown mixing kind ['degenerate']",
                     id="unhashable-mixing-kind"),
        pytest.param(_lsm_spec(_without(_INV_GAMMA, "scale")), "closed",
                     "mixing.scale: missing required field", id="mixing-missing-field"),
        pytest.param(dict(_SMSN, mixing=dict(_DEGENERATE, weight=1)), "closed",
                     "mixing.weight: unknown field", id="mixing-unknown-field"),
        pytest.param(dict(_SMSN, mixing=dict(_FINITE, points=[0.5, "2"])), "closed",
                     'mixing.points[1]: expected a number, got "2"', id="mixing-non-numeric"),
        pytest.param(_lsm_spec(dict(_DEGENERATE, v0=-1)), "closed",
                     "mixing: MixingLaw.degenerate: v0 must be >= 0", id="degenerate-domain"),
        pytest.param(dict(_SMSN, mixing=dict(_FINITE, weights=[0.5, 0.6])), "closed",
                     "mixing: MixingLaw.finite_discrete: weights must be >= 0 and sum to 1",
                     id="finite_discrete-domain"),
        pytest.param(_lsm_spec(dict(_INV_GAMMA, shape=0)), "closed",
                     "mixing: MixingLaw.inverse_gamma: shape and scale must be > 0",
                     id="inverse_gamma-domain"),
        pytest.param(dict(normal_spec(), alpha=[1.0, 0.0]), "closed",
                     "spec.alpha: unknown field", id="unknown-field"),
        pytest.param(dict(_SN, generator={"family": "normal"}), "closed",
                     "spec.generator: unknown field", id="unknown-field-skew"),
        pytest.param(_without(_lsm_spec(_FINITE), "gamma"), "closed",
                     "spec.gamma: missing required field", id="missing-field"),
        pytest.param(_without(_SMSN, "mixing"), "closed",
                     "spec.mixing: missing required field", id="missing-field-smsn"),
        pytest.param(dict(_SN, parametrization="bogus"), "closed",
                     "parametrization: unknown value 'bogus'", id="unknown-parametrization"),
        *[pytest.param(spec, "hankel", f"routes: 'hankel' is not available for kind '{kind}'",
                       id=f"hankel-{kind}")
          for kind, spec in [("skew_normal", _SN), ("smsn", _SMSN),
                             ("gse_skew_normal", dict(_SN, kind="gse_skew_normal"))]],
        *[pytest.param(spec, "closed", f"mixing: {message}", id=f"{kind}-{case}")
          for case, mixing, message in _NON_FINITE_MIXINGS
          for kind, spec in _mixture_specs(mixing)],
        *[pytest.param(spec, "hankel", f"generator.params: {message}", id=f"{kind}-{case}")
          for case, family, params, message in _NON_FINITE_GENERATORS
          for kind, spec in _generator_specs(family, params)],
        pytest.param(_gen_spec("pearson_vii", {"N": 1, "s": 1}), "closed",
                     "generator: Pearson VII requires N > n/2", id="pearson_vii-dimension"),
        pytest.param(dict(normal_spec(1), generator={"family": "kotz",
                                                     "params": {"N": 0.5, "r": 0.5, "s": 1}}),
                     "closed", "generator: Kotz requires 2N + n > 2", id="kotz-dimension"),
        pytest.param(_gen_spec("bessel", {"a": -1, "beta": 1}), "closed",
                     "generator: Bessel requires a > -n/2", id="bessel-dimension"),
        pytest.param(_with(_lsm_spec(_FINITE), ["generator"],
                           {"family": "bessel", "params": {"a": -1.5, "beta": 1}}),
                     "closed", "generator: Bessel requires a > -n/2", id="lsm-bessel-dimension"),
        pytest.param(_with(_gen_spec("kotz", {"N": 0, "r": 0.5, "s": 1}), ["kind"], "smu"),
                     "hankel", "generator: Kotz requires 2N + n > 2", id="smu-kotz-dimension"),
        pytest.param(_gen_spec("kotz", {"N": 2, "r": 0.5, "s": 0.75}), "closed",
                     "routes: no closed form for Kotz with s=0.75, N=2.0; use the Hankel route",
                     id="no-closed-form-kotz"),
        pytest.param(_with(_gen_spec("bessel", {"a": 0.5, "beta": 1}), ["kind"], "smu"),
                     "hankel", "star-unimodal route requires the generator derivative g'",
                     id="smu-no-derivative"),
        pytest.param(_with(_gen_spec("uniform_ball", {}), ["kind"], "smu"), "hankel",
                     "not star unimodal: g' vanishes identically (no scale-mixture weight density)",
                     id="smu-flat-profile"),
    ])
    def test_spec_error_line(self, tmp_path, capsys, spec, route, message):
        path = write_spec(tmp_path, "s.json", spec)
        rc = cli.main(["eval", "--spec", path, "--routes", route,
                       "--grid", '{"kind":"list","points":[[0.5,0.25]]}'])
        assert rc == 2
        assert capsys.readouterr() == ("", f"spec error: {message}\n")

    @pytest.mark.parametrize("command", [
        ["compare", "--routes", "closed,mc", "--mc-count", "1000",
         "--grid", '{"kind":"list","points":[[0.5,0.25]]}'],
        ["sample", "--count", "10"],
    ], ids=["compare", "sample"])
    @pytest.mark.parametrize("case, mixing, message", [
        pytest.param(*row, id=row[0]) for row in _NON_FINITE_MIXINGS])
    def test_non_finite_mixing_other_commands(self, tmp_path, capsys, command, case, mixing,
                                              message):
        for kind, spec in _mixture_specs(mixing):
            path = write_spec(tmp_path, f"{kind}.json", spec)
            assert cli.main([command[0], "--spec", path, *command[1:]]) == 2
            assert capsys.readouterr() == ("", f"spec error: mixing: {message}\n")

    @pytest.mark.parametrize("command", [
        ["compare", "--routes", "closed,mc", "--mc-count", "1000",
         "--grid", '{"kind":"list","points":[[0.5,0.25]]}'],
        ["sample", "--count", "10"],
    ], ids=["compare", "sample"])
    @pytest.mark.parametrize("case, family, params, message", [
        pytest.param(*row, id=row[0]) for row in _NON_FINITE_GENERATORS])
    def test_non_finite_generator_other_commands(self, tmp_path, capsys, command, case, family,
                                                 params, message):
        for kind, spec in _generator_specs(family, params):
            path = write_spec(tmp_path, f"{kind}.json", spec)
            assert cli.main([command[0], "--spec", path, *command[1:]]) == 2
            assert capsys.readouterr() == ("", f"spec error: generator.params: {message}\n")

    @pytest.mark.parametrize("hash_seed", ["0", "5"])
    def test_missing_fields_named_in_declared_order(self, tmp_path, hash_seed):
        # several fields missing at once: the first in the declared order is
        # named, whatever order the string hash seed gives a set of them
        point = '{"kind":"list","points":[[0.5,0.25]]}'
        cases = [
            (write_spec(tmp_path, "lsm.json", {"schema": 1, "kind": "lsm", "n": 2}), point),
            (write_spec(tmp_path, "normal.json", normal_spec()), '{"kind":"axis"}'),
            (write_spec(tmp_path, "mixing.json", _lsm_spec({"kind": "finite_discrete"})), point),
        ]
        code = ("import sys\nfrom ellipcf import cli\n"
                "for spec, grid in zip(sys.argv[1::2], sys.argv[2::2]):\n"
                "    assert cli.main(['eval', '--spec', spec, '--grid', grid]) == 2\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, *itertools.chain(*cases)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ("spec error: spec.mu: missing required field\n"
                               "spec error: grid.index: missing required field\n"
                               "spec error: mixing.points: missing required field\n")

    @pytest.mark.parametrize("n, generator, message", [
        pytest.param(3, lambda: generators.generalized_t_generator(2, 3.0, 3),
                     "generator: generalized-t profile built for n=2, spec has n=3",
                     id="generalized_t-dimension"),
        pytest.param(2, lambda: generators.custom_generator(lambda z: (1.0 + z) ** (-0.75)),
                     "generator: moment integral diverges (checked numerically)",
                     id="custom-divergent-moment"),
    ])
    def test_library_only_dimension_error(self, n, generator, message):
        # no spec file reaches these: the CLI builds the generalized t in the
        # spec's dimension and has no custom family
        with pytest.raises(DomainError) as info:
            elliptical.EllipticalSpec(n, np.zeros(n), np.eye(n), generator())
        assert str(info.value) == message


def _closed_specs():
    """One spec per kind with a closed route, with correlated sigma and a
    nonzero mu; smu shares the elliptical path."""
    sigma = [1.0, 0.3, 0.3, 2.0]
    base = {"schema": 1, "n": 2, "mu": [0.2, -0.1], "sigma": sigma}
    finite = {"kind": "finite_discrete", "points": [0.5, 1.0, 2.5], "weights": [0.3, 0.5, 0.2]}
    inv_gamma = {"kind": "inverse_gamma", "shape": 3.0, "scale": 2.0}
    t_gen = {"family": "generalized_t", "params": {"s": 2.0, "m": 4}}
    return {
        "elliptical": dict(base, kind="elliptical", generator=t_gen),
        "smu": dict(base, kind="smu", generator={"family": "normal"}),
        "lsm_finite": dict(base, kind="lsm", gamma=[0.4, 0.1], generator=t_gen, mixing=finite),
        "lsm_invgamma": dict(base, kind="lsm", gamma=[0.4, 0.1],
                             generator={"family": "normal"}, mixing=inv_gamma),
        "skew_normal": dict(base, kind="skew_normal", alpha=[2.0, -0.5]),
        "gse_skew_normal": dict(base, kind="gse_skew_normal", alpha=[2.0, -0.5],
                                parametrization="full_sigma"),
        "smsn_finite": dict(base, kind="smsn", alpha=[2.0, -0.5], mixing=finite),
        "smsn_invgamma": dict(base, kind="smsn", alpha=[2.0, -0.5], mixing=inv_gamma),
    }


def _star_unimodal_point(ell, t):
    # the hankel route of smu at one point: the star route at ||t||_Sigma
    u = math.sqrt(ell.dispersion.quad_rows(t[None, :])[0])
    base = skewmix.cf_star_unimodal(ell.generator, ell.n, [u, 0.0])
    phase = float(elliptical._row_dots(t, ell.mu))
    value = complex(math.cos(phase), math.sin(phase)) * base.re
    return elliptical.ComplexCF(value.real, value.imag, base.abs_err, base.method)


def _per_point(spec, route="closed"):
    if spec.kind == "smu" and route == "hankel":
        return lambda t: _star_unimodal_point(spec.elliptical, t)
    if spec.kind in ("elliptical", "smu"):
        return lambda t: elliptical.cf(spec.elliptical, t, route=route)
    if spec.kind == "lsm":
        return lambda t: skewmix.cf_location_scale_mixture(spec.lsm, t, route=route)
    if spec.kind == "skew_normal":
        return lambda t: skewmix.cf_skew_normal(spec.skew_normal, t)
    if spec.kind == "gse_skew_normal":
        gse = skewmix.skew_normal_gse(spec.skew_normal)
        return lambda t: skewmix.cf_gse(gse, t)
    return lambda t: skewmix.cf_smsn(spec.skew_normal, spec.mixing, t)


class TestOverflow:
    """Where t'x or t'St overflows a route returns the true value or exits 3
    naming the point; never nan with exit 0, never a numpy warning."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_mc_overflowing_phase_exits_3(self, tmp_path, capsys, workers):
        spec = write_spec(tmp_path, "s.json", _skew_spec([2.0, -1.0]))
        grid = json.dumps({"kind": "list", "points": [[0.5, 0.0], [1.7e308, 1.7e308]]})
        rc = cli.main(["eval", "--spec", spec, "--grid", grid, "--routes", "mc",
                       "--mc-count", "1000", "--workers", workers])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert "at grid point t=[1.7e+308, 1.7e+308]" in err and "overflows" in err

    @pytest.mark.parametrize(
        "kind,mixing,code",
        [("skew_normal", None, 0), ("gse_skew_normal", None, 3), ("smsn", _FINITE, 0),
         ("smsn", _INV_GAMMA, 0)],
        ids=["skew_normal", "gse_skew_normal", "smsn-finite", "smsn-inverse_gamma"],
    )
    def test_closed_overflowing_quadratic_form(self, tmp_path, capsys, kind, mixing, code):
        obj = dict(_skew_spec([2.0, -1.0]), kind=kind)
        if mixing is not None:
            obj["mixing"] = mixing
        spec = write_spec(tmp_path, "s.json", obj)
        grid = json.dumps({"kind": "list", "points": [[0.3, 0.2], [1e200, 0.0]]})
        rc = cli.main(["eval", "--spec", spec, "--grid", grid, "--routes", "closed"])
        out, err = capsys.readouterr()
        assert rc == code and "nan" not in out
        if code == 3:
            assert "at grid point t=[1e+200, 0.0]" in err
            return
        _, _, rows = parse_result_csv(out)
        tol = float(rows[1][4] or 0.0)
        assert abs(float(rows[1][2])) <= tol and abs(float(rows[1][3])) <= tol

    @pytest.mark.parametrize("route, code", [("hankel", 3), ("closed", 0)])
    def test_moment_past_the_float_range_exits_3(self, tmp_path, capsys, route, code):
        # the normal's M_n = 2^(n/2) Gamma(n/2) is finite but past the float
        # range at n = 340: a numeric failure on the Hankel route, which
        # divides by it, naming the overflow; the closed form needs no M_n
        n = 340
        spec = write_spec(tmp_path, "n.json", normal_spec(n))
        grid = json.dumps({"kind": "list", "points": [[0.5] + [0.0] * (n - 1)]})
        rc = cli.main(["eval", "--spec", spec, "--grid", grid, "--routes", route])
        out, err = capsys.readouterr()
        assert rc == code
        if code == 3:
            assert out == "" and err.startswith("numeric failure: at grid point t=[0.5, 0.0,")
            assert err.rstrip().endswith("moment integral M_n overflows the float range at n = 340")

    @pytest.mark.parametrize(
        "family, params, code",
        [("normal", {}, 0), ("uniform_ball", {}, 3), ("generalized_t", {"s": 3, "m": 3}, 3),
         ("pearson_ii", {"m": 1}, 3), ("pearson_vii", {"N": 2, "s": 1}, 3),
         ("kotz", {"N": 2, "r": 0.5, "s": 1}, 3), ("bessel", {"a": 0.5, "beta": 1}, 0)],
        ids=["normal", "uniform_ball", "generalized_t", "pearson_ii", "pearson_vii", "kotz",
             "bessel"],
    )
    def test_elliptical_closed_overflowing_quadratic_form(self, tmp_path, capsys, family,
                                                          params, code):
        # t'St overflows: the true value 0, or exit 3 naming the point
        spec = write_spec(tmp_path, "e.json",
                          dict(normal_spec(), generator={"family": family, "params": params}))
        grid = json.dumps({"kind": "list", "points": [[0.3, 0.2], [1e200, 0.0]]})
        rc = cli.main(["eval", "--spec", spec, "--grid", grid, "--routes", "closed"])
        out, err = capsys.readouterr()
        assert rc == code and "nan" not in out
        if code == 3:
            assert out == "" and err.startswith("numeric failure: at grid point t=[1e+200, 0.0]")
            return
        _, _, rows = parse_result_csv(out)
        assert float(rows[1][2]) == 0.0 and float(rows[1][3]) == 0.0

    @pytest.mark.parametrize("kind", ["elliptical", "smu"])
    def test_generalized_t_closed_overflow_exits_3(self, tmp_path, capsys, kind):
        # K_(m/2) at an infinite argument times an infinite power: nan, never printed
        obj = dict(normal_spec(mu=[0.1, -0.2]), kind=kind,
                   generator={"family": "generalized_t", "params": {"s": 3, "m": 3}})
        spec = write_spec(tmp_path, "t.json", obj)
        grid = json.dumps({"kind": "list", "points": [[0.5, 0.0], [1e160, 0.0]]})
        rc = cli.main(["eval", "--spec", spec, "--grid", grid, "--routes", "closed"])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert "at grid point t=[1e+160, 0.0]: the value is not finite" in err

    @pytest.mark.parametrize("kind, route", [
        ("elliptical", "closed"), ("elliptical", "hankel"), ("smu", "closed"), ("smu", "hankel"),
        ("lsm", "closed"), ("skew_normal", "closed"), ("gse_skew_normal", "closed"),
        ("smsn", "closed"),
    ])
    def test_overflowing_phase_exits_3(self, tmp_path, capsys, kind, route):
        # t'mu = 1e309 overflows while t'St = 0, t'gamma = 0 and the skew scale is
        # 0: only the phase rotation sees the overflow (stderr is compared whole,
        # and the test run turns a RuntimeWarning into an error)
        obj = {"schema": 1, "kind": kind, "n": 2, "mu": [10.0, 0.0], "sigma": [0, 0, 0, 1],
               "generator": {"family": "generalized_t", "params": {"s": 3, "m": 3}},
               "gamma": [0.0, 0.5], "alpha": [0.0, 1.0], "mixing": _INV_GAMMA}
        fields = {"elliptical": ("generator",), "smu": ("generator",),
                  "lsm": ("generator", "gamma", "mixing"), "skew_normal": ("alpha",),
                  "gse_skew_normal": ("alpha",), "smsn": ("alpha", "mixing")}[kind]
        for key in {"generator", "gamma", "alpha", "mixing"} - set(fields):
            del obj[key]
        spec = write_spec(tmp_path, "s.json", obj)
        grid = json.dumps({"kind": "list", "points": [[0.5, 0.25], [1e308, 0.0]]})
        rc = cli.main(["eval", "--spec", spec, "--grid", grid, "--routes", route])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err == ("numeric failure: at grid point t=[1e+308, 0.0]: "
                       "the value is not finite: an intermediate overflows\n")

    @pytest.mark.parametrize("mixing", [_FINITE, _INV_GAMMA], ids=["finite", "inverse_gamma"])
    @pytest.mark.parametrize("route", ["closed", "hankel"])
    def test_lsm_overflowing_drift_exits_3(self, tmp_path, capsys, route, mixing):
        # t'gamma = 1e309 overflows while t'St = 0 and t'mu = 0: only the drift
        # factor e^(iV t'gamma) sees the overflow, and no numpy warning is printed
        obj = {"schema": 1, "kind": "lsm", "n": 2, "mu": [0.0, 0.0], "sigma": [0, 0, 0, 1],
               "gamma": [10.0, 0.0], "generator": {"family": "normal"}, "mixing": mixing}
        spec = write_spec(tmp_path, "s.json", obj)
        grid = json.dumps({"kind": "list", "points": [[0.5, 0.25], [1e308, 0.0]]})
        rc = cli.main(["eval", "--spec", spec, "--grid", grid, "--routes", route])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err == ("numeric failure: at grid point t=[1e+308, 0.0]: "
                       "the value is not finite: an intermediate overflows\n")

    def test_gse_overflowing_root_exits_3(self, tmp_path, capsys):
        # S^(1/2) t and a'y overflow: a failing row, not a spec error (exit 2)
        obj = {
            "schema": 1, "kind": "gse_skew_normal", "n": 3, "mu": [0.1, -0.2, 0.3],
            "sigma": [1.0, 0.3, 0.09, 0.3, 1.0, 0.3, 0.09, 0.3, 1.0],
            "alpha": [2.0, 0.5, -1.0], "parametrization": "full_sigma",
        }
        spec = write_spec(tmp_path, "g.json", obj)
        grid = json.dumps({"kind": "list", "points": [[1.0, 0.5, 0.0], [1.7e308, 1.7e308, 0.0]]})
        rc = cli.main(["eval", "--spec", spec, "--grid", grid, "--routes", "closed"])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert "at grid point t=[1.7e+308, 1.7e+308, 0.0]" in err and "overflows" in err


class TestGridPath:
    @pytest.mark.parametrize(
        "key, route",
        [pytest.param(key, "closed", id=key) for key in _closed_specs()]
        + [pytest.param(key, "hankel", id=f"{key}-hankel")
           for key in ("elliptical", "smu", "lsm_finite")],
    )
    def test_grid_equals_per_point_bitwise(self, tmp_path, key, route):
        spec_path = write_spec(tmp_path, "s.json", _closed_specs()[key])
        rng = np.random.default_rng(5)
        points = [[0.0, 0.0]] + rng.uniform(-3.0, 3.0, (40, 2)).tolist() + [[-0.0, 0.0]]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"kind": "list", "points": points}))
        out = tmp_path / "out.csv"
        rc = cli.main(["eval", "--spec", spec_path, "--grid", f"@{grid}", "--routes", route,
                       "--out", str(out)])
        assert rc == 0
        _, _, rows = parse_result_csv(out.read_text())
        per_point = _per_point(cli.load_spec(spec_path), route)
        assert len(rows) == len(points)
        for t, row in zip(points, rows):
            want = per_point(np.array(t))
            assert [float(v) for v in row[:2]] == t
            assert float(row[2]) == want.re and float(row[3]) == want.im
            assert (None if row[4] == "" else float(row[4])) == want.abs_err
            assert row[5] == want.method.value

    def test_block_writer_matches_per_value_format(self, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK", 2)  # several blocks, one cut mid-grid
        cfv, method = elliptical.ComplexCF, elliptical.CFMethod
        points = np.array(
            [[0.0, 0.0], [-0.0, 5e-324], [1e-300, -2.5], [3.0, 1.0 / 3.0], [7.0, -0.0]]
        )
        values = {
            "closed": [
                cfv(1.0, 0.0, 0.0, method.CLOSED_FORM),
                cfv(-0.0, 5e-324, None, method.CLOSED_FORM),
                cfv(0.1, -1.0 / 3.0, 1e-8, method.CLOSED_FORM),
                cfv(math.pi, -0.0, None, method.CLOSED_FORM),
                cfv(1e-320, 2.0**-1074, 0.0, method.CLOSED_FORM),
            ],
            "hankel": [
                cfv(1.0, 0.0, 0.0, method.CLOSED_FORM),
                cfv(0.5, -5e-324, 2.5e-11, method.HANKEL),
                cfv(-1e300, 0.0, None, method.HANKEL),
                cfv(math.e, 1e-17, 3e-16, method.HANKEL),
                cfv(0.0, -0.0, 1e-300, method.HANKEL),
            ],
        }
        routes = ("closed", "hankel")
        expected = ""
        for i, t in enumerate(points):
            for route in routes:
                c = values[route][i]
                err = "" if c.abs_err is None else f"{c.abs_err:.17g}"
                cells = [f"{v:.17g}" for v in t]
                cells += [f"{c.re:.17g}", f"{c.im:.17g}", err, c.method.value]
                expected += ",".join(cells) + "\n"
        rows = {
            route: elliptical.CFRows(
                np.array([c.re for c in values[route]]),
                np.array([c.im for c in values[route]]),
                np.array([math.nan if c.abs_err is None else c.abs_err for c in values[route]]),
                np.array([c.method.value for c in values[route]]),
            )
            for route in routes
        }
        assert b"".join(cli._eval_blocks(points, rows, routes)).decode() == expected
        assert expected.startswith("0,0,1,0,0,closed\n")
        assert "-0,4.9406564584124654e-324,-0,4.9406564584124654e-324,,closed\n" in expected

    @pytest.mark.parametrize(
        "error, code, prefix",
        [(ConvergenceError, 3, "numeric failure: at grid point t=[1.5, 0.0]: "),
         (DomainError, 2, "spec error: ")],
        ids=["numeric", "domain"],
    )
    def test_failure_in_later_chunk(self, tmp_path, capsys, monkeypatch, error, code, prefix):
        # 12 points in array passes of 4 rows: row 5 (second pass) fails, so
        # the third pass is never computed; a non-numeric error stays exit 2
        monkeypatch.setattr(elliptical, "_CHUNK", 4)
        points = [[0.25 * (i + 1), 0.0] for i in range(12)]
        row_of_q = {t[0] * t[0]: i for i, t in enumerate(points)}  # v = 1: q = t1^2
        seen = set()
        real = skewmix.char_generator_rows

        def core(gen, n, qs, route="closed"):
            rows = {row_of_q.get(q) for q in np.ravel(qs).tolist()}  # None: the availability probe
            seen.update(rows)
            if 5 in rows:
                raise error("synthetic breakdown")
            return real(gen, n, qs, route)

        monkeypatch.setattr(skewmix, "char_generator_rows", core)
        spec = write_spec(tmp_path, "m.json", _lsm_spec(_DEGENERATE))
        grid = json.dumps({"kind": "list", "points": points})
        assert cli.main(["eval", "--spec", spec, "--grid", grid]) == code
        assert prefix + "synthetic breakdown" in capsys.readouterr().err
        assert seen - {None} == set(range(8))

    def test_analytic_routes_run_without_threads(self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started for an analytic route")

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", no_pool)  # the package's only pool
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main([
            "compare", "--spec", spec, "--routes", "closed,hankel", "--workers", "4",
            "--grid", '{"kind":"axis","index":0,"start":0.0,"stop":3.0,"num":5}',
        ])
        assert rc == 0


class TestCompare:
    def test_closed_vs_hankel_normal(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main([
            "compare", "--spec", spec, "--routes", "closed,hankel",
            "--grid", '{"kind":"axis","index":0,"start":0.1,"stop":5.0,"num":8}',
        ])
        assert rc == 0
        comments, header, rows = parse_result_csv(capsys.readouterr().out)
        assert any("summary closed-hankel" in c for c in comments)
        assert header[-1] == "dev_closed_hankel"

    @pytest.mark.parametrize("t", [60.2089, 150.0, 400.0])
    def test_closed_vs_hankel_ball_n1_at_high_frequency(self, tmp_path, capsys, t):
        # the finite support is summed out to its edge: the hankel row meets
        # the closed form where it used to stop short and read about 0
        obj = normal_spec(n=1)
        obj["generator"] = {"family": "uniform_ball"}
        spec = write_spec(tmp_path, "b.json", obj)
        rc = cli.main([
            "compare", "--spec", spec, "--routes", "closed,hankel",
            "--grid", json.dumps({"kind": "list", "points": [[t]]}),
        ])
        assert rc == 0, capsys.readouterr().err

    def test_closed_vs_mc_within_band(self, tmp_path, capsys):
        obj = normal_spec()
        obj["generator"] = {"family": "pearson_ii", "params": {"m": 1.0}}
        spec = write_spec(tmp_path, "p.json", obj)
        rc = cli.main([
            "compare", "--spec", spec, "--routes", "closed,mc",
            "--mc-count", "200000", "--seed", "11",
            "--grid", '{"kind":"list","points":[[0.5,0.0],[1.0,0.5],[2.0,0.0]]}',
        ])
        assert rc == 0

    def test_needs_two_routes(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main([
            "compare", "--spec", spec, "--routes", "closed",
            "--grid", '{"kind":"list","points":[[1.0,0.0]]}',
        ])
        assert rc == 2

    def test_corrupted_closed_form_exit_4(self, tmp_path, capsys, monkeypatch):
        # corrupt the closed form: the triangulation must catch it
        patch_closed_form(monkeypatch, "normal", lambda real: lambda n, q: real(n, q) + 1e-3)
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main([
            "compare", "--spec", spec, "--routes", "closed,hankel",
            "--grid", '{"kind":"list","points":[[1.0,0.0]]}',
        ])
        assert rc == 4
        assert "tolerance exceedance" in capsys.readouterr().err

    def test_tolerance_override(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main([
            "compare", "--spec", spec, "--routes", "closed,hankel",
            "--tol", "closed-hankel=1e-16",
            "--grid", '{"kind":"list","points":[[1.0,0.0]]}',
        ])
        assert rc == 4  # machine-level deviations exceed an impossible bar

    def test_smu_kind_triangulates(self, tmp_path, capsys):
        obj = {
            "schema": 1, "kind": "smu", "n": 2,
            "mu": [0.0, 0.0], "sigma": [1.0, 0.0, 0.0, 1.0],
            "generator": {"family": "kotz", "params": {"N": 1.0, "r": 0.5, "s": 0.75}},
        }
        spec = write_spec(tmp_path, "smu.json", obj)
        rc = cli.main([
            "compare", "--spec", spec, "--routes", "hankel,mc",
            "--mc-count", "200000", "--seed", "3",
            "--grid", '{"kind":"list","points":[[0.5,0.0],[1.5,0.0]]}',
        ])
        assert rc == 0


class TestSample:
    def test_ball_norms(self, tmp_path):
        obj = normal_spec()
        obj["generator"] = {"family": "uniform_ball"}
        spec = write_spec(tmp_path, "b.json", obj)
        out = tmp_path / "ball.csv"
        assert cli.main(["sample", "--spec", spec, "--count", "2000", "--seed", "1",
                         "--out", str(out)]) == 0
        comments, header, rows = parse_result_csv(out.read_text())
        data = np.array([[float(v) for v in row] for row in rows])
        assert np.linalg.norm(data, axis=1).max() <= 1.0
        assert any("spec_sha256=" in c for c in comments)

    def test_skew_normal_positive_skew(self, tmp_path):
        obj = {
            "schema": 1, "kind": "skew_normal", "n": 1,
            "mu": [0.0], "sigma": [1.0], "alpha": [5.0],
        }
        spec = write_spec(tmp_path, "sn.json", obj)
        out = tmp_path / "sn.csv"
        assert cli.main(["sample", "--spec", spec, "--count", "50000", "--seed", "2",
                         "--out", str(out)]) == 0
        _, _, rows = parse_result_csv(out.read_text())
        x = np.array([float(r[0]) for r in rows])
        assert ((x - x.mean()) ** 3).mean() / x.std() ** 3 > 0.5

    def test_rank_deficient_unsamplable_exit_2(self, tmp_path, capsys):
        obj = normal_spec(sigma=[1.0, 0.0, 0.0, 0.0])
        spec = write_spec(tmp_path, "r.json", obj)
        rc = cli.main(["sample", "--spec", spec, "--count", "1000", "--seed", "1"])
        assert rc == 2

    def test_lsm_and_smsn_kinds_sample(self, tmp_path):
        lsm = {
            "schema": 1, "kind": "lsm", "n": 2,
            "mu": [0.0, 0.0], "gamma": [1.0, 0.0],
            "sigma": [1.0, 0.0, 0.0, 1.0],
            "generator": {"family": "normal"},
            "mixing": {"kind": "finite_discrete", "points": [0.5, 2.0], "weights": [0.5, 0.5]},
        }
        smsn = {
            "schema": 1, "kind": "smsn", "n": 1,
            "mu": [0.0], "sigma": [1.0], "alpha": [2.0],
            "mixing": {"kind": "inverse_gamma", "shape": 2.5, "scale": 2.5},
        }
        for name, obj in (("lsm.json", lsm), ("smsn.json", smsn)):
            spec = write_spec(tmp_path, name, obj)
            out = tmp_path / (name + ".csv")
            assert cli.main(["sample", "--spec", spec, "--count", "2000", "--seed", "4",
                             "--out", str(out)]) == 0


class TestStartup:
    """A CLI process imports only what its command uses, runs BLAS on one
    thread unless OPENBLAS_NUM_THREADS says otherwise, and freezes its heap
    before exit; library use leaves the environment and the collector alone.
    Each case runs in a fresh interpreter."""

    # python -m ellipcf.cli, reporting the BLAS thread setting, the frozen
    # object count and the loaded modules on stderr at exit
    AS_MAIN = (
        "import atexit, gc, os, runpy, sys\n"
        "atexit.register(lambda: print(os.environ.get('OPENBLAS_NUM_THREADS'),"
        " gc.get_freeze_count(), *sorted(sys.modules), file=sys.stderr))\n"
        "sys.argv = ['ellipcf', *sys.argv[1:]]\n"
        "runpy.run_module('ellipcf.cli', run_name='__main__')\n"
    )
    # the console script's entry point, ellipcf.cli:entry
    CONSOLE = (
        "import gc, os, sys\n"
        "from ellipcf.cli import entry\n"
        "rc = entry(sys.argv[1:])\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), gc.get_freeze_count(), file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    # cli.main called as a library function
    IN_PROCESS = (
        "import gc, sys\n"
        "from ellipcf import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(gc.get_freeze_count(), file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )

    @staticmethod
    def _python(code, *args, blas_threads=None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        src = str(Path(ellipcf.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr.split()

    @staticmethod
    def _eval_args(tmp_path, route):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        return ["eval", "--spec", spec, "--routes", route,
                "--grid", '{"kind":"list","points":[[0.5,0.2]]}']

    @pytest.mark.parametrize("route", ["closed", "hankel"])
    def test_elliptical_eval_skips_skewmix_and_sampling(self, tmp_path, route):
        modules = self._python(self.AS_MAIN, *self._eval_args(tmp_path, route))[2:]
        assert "ellipcf.elliptical" in modules
        for name in ("ellipcf.skewmix", "ellipcf.sampling", "concurrent.futures"):
            assert name not in modules
        assert ("ellipcf.quadrature" in modules) == (route == "hankel")

    @pytest.mark.parametrize(
        "kind", ["elliptical", "skew_normal", "gse_skew_normal", "lsm", "smsn"]
    )
    def test_closed_route_skips_quadrature(self, tmp_path, kind):
        # the mixtures have exact (finite_discrete) mixing: sums, no quadrature
        obj = normal_spec()
        if kind == "lsm":
            obj = dict(obj, kind=kind, gamma=[0.4, 0.1], mixing=_FINITE)
        elif kind != "elliptical":
            obj = dict(obj, kind=kind, alpha=[1.0, -0.5])
            del obj["generator"]
            if kind == "smsn":
                obj["mixing"] = _FINITE
        spec = write_spec(tmp_path, "s.json", obj)
        grid = '{"kind":"list","points":[[0.5,0.2],[0.0,0.0]]}'
        for command in ("eval", "compare"):
            routes = "closed" if command == "eval" else "closed,mc"
            modules = self._python(self.AS_MAIN, command, "--spec", spec, "--routes", routes,
                                   "--grid", grid, "--mc-count", "1000")[2:]
            assert ("ellipcf.skewmix" in modules) == (kind != "elliptical")
            assert "ellipcf.quadrature" not in modules, command

    def test_elliptical_draws_skip_skewmix_and_quadrature(self, tmp_path):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        for args in (["compare", "--routes", "closed,mc", "--mc-count", "1000",
                      "--grid", '{"kind":"list","points":[[0.5,0.2]]}'],
                     ["sample", "--count", "1000"]):
            modules = self._python(self.AS_MAIN, *args, "--spec", spec, "--out", os.devnull)[2:]
            assert "ellipcf.sampling" in modules
            for name in ("ellipcf.skewmix", "ellipcf.quadrature"):
                assert name not in modules, (args[0], name)

    @pytest.mark.parametrize("entry", ["AS_MAIN", "CONSOLE"])
    def test_process_entry_freezes_heap(self, tmp_path, entry):
        report = self._python(getattr(self, entry), *self._eval_args(tmp_path, "closed"))
        assert int(report[1]) > 0

    def test_main_in_process_leaves_heap_unfrozen(self, tmp_path):
        assert self._python(self.IN_PROCESS, *self._eval_args(tmp_path, "closed")) == ["0"]

    @pytest.mark.parametrize("preset, seen", [(None, "1"), ("2", "2")])
    @pytest.mark.parametrize("entry", ["AS_MAIN", "CONSOLE"])
    def test_cli_process_blas_threads(self, tmp_path, entry, preset, seen):
        report = self._python(getattr(self, entry), *self._eval_args(tmp_path, "closed"),
                              blas_threads=preset)
        assert report[0] == seen

    def test_library_import_leaves_environment(self):
        code = ("import os, sys, numpy, ellipcf.cli\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'), file=sys.stderr)\n")
        assert self._python(code) == ["None"]


# n = 2, Sigma = diag(4, 0.25) and a power-of-two mu, so every product of a matmul is exact
_BASE = '"n":2,"mu":[0.5,-0.25],"sigma":[4,0,0,0.25]'


class TestGoldenBytes:
    """sha256 of whole CLI outputs, captured before the CSV writers moved to
    one formatter.  The numbers do not depend on the BLAS kernel or on
    numpy's SIMD dispatch (the hashes held under OPENBLAS_CORETYPE=Sandybridge
    and with AVX-512 disabled): the sample has a diagonal power-of-two Sigma,
    and eval and compare run the closed and hankel routes only."""

    HEAVY_N3 = ('{"schema":1,"kind":"elliptical","n":3,"mu":[0.5,-0.25,0],'
                '"sigma":[4,0,0,0,1,0,0,0,0.25],'
                '"generator":{"family":"pearson_vii","params":{"N":1.6,"s":1.0}}}')
    KOTZ_N3 = ('{"schema":1,"kind":"elliptical","n":3,"mu":[0.1,-0.2,0.3],'
               '"sigma":[1,0.3,0.09,0.3,1,0.3,0.09,0.3,1],'
               '"generator":{"family":"kotz","params":{"N":1,"r":0.5,"s":1}}}')
    AXIS = '{"kind":"axis","index":0,"start":0,"stop":30,"num":61}'
    # the sign-flip and mixture samplers and every family: _BASE, with power-of-two
    # alpha and gamma
    SN_HALF = '{"schema":1,"kind":"skew_normal",' + _BASE + ',"alpha":[2,-0.5]}'
    SN_FULL = ('{"schema":1,"kind":"skew_normal",' + _BASE
               + ',"alpha":[2,-0.5],"parametrization":"full_sigma"}')
    LSM_FINITE = ('{"schema":1,"kind":"lsm",' + _BASE + ',"gamma":[0.5,0.25],'
                  '"generator":{"family":"normal"},'
                  '"mixing":{"kind":"finite_discrete","points":[0.5,2],"weights":[0.25,0.75]}}')
    SMSN_INVGAMMA = ('{"schema":1,"kind":"smsn",' + _BASE + ',"alpha":[2,-0.5],'
                     '"mixing":{"kind":"inverse_gamma","shape":3,"scale":2}}')
    LSM_DEGENERATE = ('{"schema":1,"kind":"lsm",' + _BASE + ',"gamma":[0.5,0.25],'
                      '"generator":{"family":"normal"},"mixing":{"kind":"degenerate","v0":2}}')
    LSM_INVGAMMA = ('{"schema":1,"kind":"lsm",' + _BASE + ',"gamma":[0.5,0.25],'
                    '"generator":{"family":"normal"},'
                    '"mixing":{"kind":"inverse_gamma","shape":3,"scale":2}}')
    SMSN_DEGENERATE = ('{"schema":1,"kind":"smsn",' + _BASE + ',"alpha":[2,-0.5],'
                       '"mixing":{"kind":"degenerate","v0":2}}')
    SMSN_FINITE = ('{"schema":1,"kind":"smsn",' + _BASE + ',"alpha":[2,-0.5],'
                   '"mixing":{"kind":"finite_discrete","points":[0.5,2],"weights":[0.25,0.75]}}')
    # the mixture closed routes with exact mixing, to t1 = 6
    AXIS6 = '{"kind":"axis","index":0,"start":0,"stop":6,"num":25}'
    SAMPLE = ["sample", "--count", "40000", "--seed", "7"]
    # every named family on the same law; the closed route on an axis grid to u = 30
    FAMILY = {
        key: ('{"schema":1,"kind":"elliptical",' + _BASE + ',"generator":{"family":"'
              + key.split("-")[0] + '","params":' + params + '}}')
        for key, params in [
            ("normal", "{}"), ("uniform_ball", "{}"),
            ("generalized_t-odd", '{"s":3,"m":3}'), ("generalized_t-even", '{"s":2,"m":4}'),
            ("pearson_ii", '{"m":1.5}'), ("pearson_vii", '{"N":2.3,"s":1.5}'),
            ("kotz-s0.75", '{"N":2,"r":0.5,"s":0.75}'), ("kotz-s1", '{"N":2,"r":0.5,"s":1}'),
            ("kotz-s0.5", '{"N":1,"r":0.5,"s":0.5}'), ("bessel", '{"a":0.5,"beta":1}'),
        ]
    }
    CLOSED = ["eval", "--routes", "closed",
              "--grid", '{"kind":"axis","index":0,"start":0,"stop":15,"num":61}']

    @pytest.mark.parametrize("spec, args, sha256", [
        # 40000 draws (two sampler chunks), 39 cells in exponent notation
        (HEAVY_N3, ["sample", "--count", "40000", "--seed", "7"],
         "f9d725c4421b7cc547ef9e2f4616db709e466c46d55bf092a2272f8edae242a8"),
        # closed values down to 1e-196 (24-character cells), closed abs_err empty;
        # the hankel abs_err cells carry the rounding floor.  The mW
        # transformation moved 58 of the 61 hankel rows (55 compare rows):
        # their error against the closed form went from at most 5.6e-12 to
        # at most 3.2e-11, 0.18 of their abs_err.  r_peak read off _fit's
        # powers of two moved the 36 hankel rows at t1 >= 12.5, where
        # |phi| < 1.2e-34: their error went from at most 7.7e-12 to 7.2e-12,
        # and the largest error/abs_err of the 61 rows stayed 0.178.  The
        # kernel Omega_nu(u r) in place of u^(-nu) J_nu(u r) moved 60 of the
        # 61 hankel rows (58 compare rows) by at most 3.5e-11: their error
        # against the closed form went from at most 2.7e-11 to 3.0e-11, and
        # their largest error/abs_err stayed 0.15.  The constant 2/M_n and
        # the kernel's sin(x)/x moved all 60 hankel rows (60 compare rows) by
        # at most 1.1e-16, and their abs_err cells at the last bits: their
        # error against the closed form stayed 3.2e-11, and their largest
        # error/abs_err 0.178
        (KOTZ_N3, ["eval", "--routes", "closed,hankel", "--grid", AXIS],
         "e4972c341e66a8125b817946412b4ad91028e9c22baf30a3f2aaef8c50bb9ec0"),
        (KOTZ_N3, ["compare", "--routes", "closed,hankel", "--grid", AXIS],
         "ee68f52e5b6c3e68d9703fded106f0d3490fcb9c2e1796ddc300e53e7a807817"),
        (SN_HALF, SAMPLE,
         "09ee0f5407101592b0968c3639db86bdc824089469be257ef124285eacfbffc2"),
        (SN_FULL, SAMPLE,
         "c160dc35901a57b7ae7250df79d21182bfb54492fc233099896151a5d247cbf3"),
        (LSM_FINITE, SAMPLE,
         "ef6a23ed89905412b2ce98f17ad3686cf5d19cfe2ac6113df930c7df51a77fdf"),
        (SMSN_INVGAMMA, SAMPLE,
         "b9f42c9047df81ed00ce7900385a9c45b981fd666782ce4b06a5805cd5a7c88d"),
        # the draw of each mixing kind
        (LSM_DEGENERATE, SAMPLE,
         "7facef82165ccfcd30bfe4fdc0143133b59fcb670f44a60036730e511563e35a"),
        (LSM_INVGAMMA, SAMPLE,
         "951fc408aae182e512b9c848dc81ff3a6561bd45a39f117d9fe208501c2a70a8"),
        (SMSN_DEGENERATE, SAMPLE,
         "75373d79f1789563ba5e68ee9859a6ca4080b6bf465c8cf78984bd975c84934f"),
        (SMSN_FINITE, SAMPLE,
         "6a12bacb497457d1c203c20ea5dd9bef75ea56c26437d6525ed6a03e5ad9c28a"),
        # the exact mixing sums on both routes of phi; closed abs_err empty (no
        # estimate).  The J_0 zeros from secant steps moved the hankel rows by
        # at most 2.1e-15, under 0.005 of their abs_err; their abs_err cells
        # carry the rounding floor.  The mW transformation moved 23 of the 24
        # hankel rows of each: their error against the closed form went from
        # at most 1.2e-11 to 7.7e-11 (degenerate) and from 8.7e-12 to 5.8e-11
        # (finite), at most 0.15 of their abs_err.  r_peak read off _fit's
        # powers of two moved one row of each, at t1 = 5.5: its error went
        # from 2.90e-12 to 3.21e-12 (degenerate) and from 1.92e-12 to
        # 2.15e-12 (finite), under 0.015 of its abs_err.  Panels ending at
        # (k + nu/2 - 1/4) pi, not at the zeros, moved all 24 hankel rows of
        # each by at most 2.6e-13: their largest error against the closed
        # form stayed 7.7e-11 (degenerate) and 5.8e-11 (finite), and their
        # largest error/abs_err went from 0.152 to 0.155 and from 0.060 to 0.059
        (LSM_DEGENERATE, ["eval", "--routes", "closed,hankel", "--grid", AXIS6],
         "24c7ee8428ad68600f8d6a0f3a05fac7bd7b3ca08300954ff593bba879b10548"),
        (LSM_FINITE, ["eval", "--routes", "closed,hankel", "--grid", AXIS6],
         "301b23eca4a4b3c5f344d8b646bb8a7bec7d4d99fa920d355aa747a7d07ac1dc"),
        # the mixing quadrature over the inverse gamma, its map scaled by the law's mode
        (LSM_INVGAMMA, ["eval", "--routes", "closed", "--grid", AXIS6],
         "7e107973c7bc2560dc43c67d2f66ce4d457ed965d627e276e85e68abf624a560"),
        # the radius draw of each family
        (FAMILY["normal"], SAMPLE,
         "0a3fbd69515554c0b5ffd85811ea9c6b2617136e0d29be3ada0873e8c1cee708"),
        # the ball's and Kotz's radius powers come from libm, as under every
        # SIMD dispatch
        (FAMILY["uniform_ball"], SAMPLE,
         "71c422d783f18f0539c4432eb7802e43fd9a1f494a321ed924f710e3fa873b52"),
        (FAMILY["generalized_t-odd"], SAMPLE,
         "c2d8a316f1749660fefd55b96bf3d151e8242618959502bfd04e962820d22787"),
        (FAMILY["pearson_ii"], SAMPLE,
         "dadd5a0591862a0dcc0574495100ae499a49048bd5a31d982c42f34bba713ac5"),
        (FAMILY["kotz-s0.75"], SAMPLE,
         "87f3e5e6028ff8406118de5219548273eb92dbd6aa8d4dcbc0eb5d329a521c1c"),
        (FAMILY["bessel"], SAMPLE,
         "9e6a9bee0f6828f579d21e568040a2574838c8489f4aafcb429bb0dd227152e0"),
        # the closed form of each family, to u = 30
        (FAMILY["normal"], CLOSED,
         "2ee71664b886b3d2f09fd38d4cb6a490ba674ae42c6a06bd3f10977ac49d0034"),
        # 0F1 by its own series up to x = 12 (was: J's series past x = 10)
        # moved the row at t1 = 5.25 (x = 10.5) by 1.9e-18 (ball) and at
        # t1 = 5.75 by 8.9e-19 (Pearson II); their error against mpmath
        # stayed 1.4e-14 and 5.4e-15
        (FAMILY["uniform_ball"], CLOSED,
         "2fd3bfda22a2aebd4041399dc277538eed5881322273593783e2fa3e6340c242"),
        (FAMILY["generalized_t-odd"], CLOSED,
         "adb12c14cdf4ebcbb08decc911d04e1ac322b28566105ea0496bd13a3dc29ab3"),
        (FAMILY["generalized_t-even"], CLOSED,
         "d3efcd91197ca573a8220d91d4c4ac35223ef1de9f399fb940e568cfcb7c3f7a"),
        (FAMILY["pearson_ii"], CLOSED,
         "e49dafe3e483c0568908a458c32819fb5670148b41a3790f6a1eef5b7f59dfde"),
        # phi written once, in the t's operation order: 19 of 61 rows moved
        # by at most 3.1e-16 relative
        (FAMILY["pearson_vii"], CLOSED,
         "b2ee936dbcccea6bffcc189f24d3cc3e86827c23f34bb5c8bda375944c5e612e"),
        (FAMILY["kotz-s1"], CLOSED,
         "5c75eeaf5c81eef1bcad2ae8dca220e80d48c6584905ca8dac245287f6a181fb"),
        # the Bessel family's (1 + q/r^2)^(-(n+1)/2): 42 of 61 rows moved by
        # at most 4.1e-16 relative, the error against mpmath fell from 3.3e-16
        # to 1.7e-16
        (FAMILY["kotz-s0.5"], CLOSED,
         "31b53a26630c60727fb19972474ab89d0ee72ccaea8ae851155bb447bf548a92"),
        (FAMILY["bessel"], CLOSED,
         "bba13c2e9680797166bfb3945dff4737f14775c67311d68f23efbebe97294a2f"),
    ], ids=["sample", "eval", "compare", "sample-skew_normal-half_root",
            "sample-skew_normal-full_sigma", "sample-lsm-finite_discrete",
            "sample-smsn-inverse_gamma", "sample-lsm-degenerate", "sample-lsm-inverse_gamma",
            "sample-smsn-degenerate", "sample-smsn-finite_discrete", "eval-lsm-degenerate",
            "eval-lsm-finite_discrete", "eval-lsm-inverse_gamma",
            *[f"sample-{key}" for key in ("normal", "uniform_ball", "generalized_t", "pearson_ii",
                                          "kotz", "bessel")],
            *[f"eval-closed-{key}" for key in ("normal", "uniform_ball", "generalized_t-odd",
                                               "generalized_t-even", "pearson_ii", "pearson_vii",
                                               "kotz-s1", "kotz-s0.5", "bessel")]])
    def test_output_sha256(self, tmp_path, spec, args, sha256):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        out = tmp_path / "out.csv"
        assert cli.main([*args, "--spec", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    # The skew-normal factor 2 exp(-q/2) Phi(iy) takes numpy's exp, whose bits
    # follow its SIMD dispatch: the first hash is the AVX-512 dispatch's, the
    # second that of the AVX2 and baseline dispatches.
    @pytest.mark.parametrize("spec, hashes", [
        (SMSN_DEGENERATE, ("443d6b561356ffcf3811f18a86ad46b2669dc3f0ecdf3a3df991a9e8b2af527d",
                           "6ed9f9119b2aa60f3f57ff85691b776825de695804c2780f4dac1df912fe7a39")),
        (SMSN_FINITE, ("2d5792fafe262dda8ec996a7ffaabeea77863d77781b8d509598c6910de3e7fa",
                       "1b02055b0ead85cebd03c22c96637949c7b1d8356afddb09b1df093b34679a0c")),
        (SMSN_INVGAMMA, ("d953177a3b5634481599630c6b1b64dcb8fa707a4db2d93ede8834ce25ce2952",
                         "c74884a26c7d63f026ba9477cd7fb897b9efdb0de85543bcfc2d146cbf81f02a")),
    ], ids=["eval-smsn-degenerate", "eval-smsn-finite_discrete", "eval-smsn-inverse_gamma"])
    def test_smsn_eval_sha256(self, tmp_path, spec, hashes):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        out = tmp_path / "out.csv"
        argv = ["eval", "--routes", "closed", "--grid", self.AXIS6]
        assert cli.main([*argv, "--spec", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() in hashes


class TestCompareGates:
    GRID = '{"kind":"list","points":[[0.5,0.0],[1.0,0.5]]}'

    def _compare(self, tmp_path, *extra):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        return cli.main(["compare", "--spec", spec, "--routes", "closed,mc", "--mc-count",
                         "1000", "--grid", self.GRID, "--out", str(tmp_path / "c.csv"), *extra])

    @pytest.mark.parametrize("flag, value, named", [
        ("--tol-analytic", "nan", "tol-analytic"),
        ("--tol-analytic", "-1e-6", "tol-analytic"),
        ("--mc-band", "nan", "mc-band"),
        ("--mc-band", "inf", "mc-band"),
        ("--mc-band", "-4", "mc-band"),
        ("--tol", "closed-mc=nan", "tol closed-mc"),
        ("--tol", "mc-closed=-0.5", "tol mc-closed"),
    ])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, flag, value, named):
        assert self._compare(tmp_path, f"{flag}={value}") == 2  # '=': a value may start with '-'
        assert f"spec error: {named}: must be a finite number >= 0" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("pair", ["closed-mc", "mc-closed"])
    def test_override_in_either_order(self, tmp_path, capsys, pair):
        assert self._compare(tmp_path, "--tol", f"{pair}=1e-30") == 4
        summary = (tmp_path / "c.csv").read_text().splitlines()[-1]
        assert "tol=1.0000000000000001e-30 exceedances=2/2" in summary

    @pytest.mark.parametrize("pair", ["closed-xx", "closed-hankel", "mc-mc", "closed"])
    def test_pair_outside_routes_exits_2(self, tmp_path, capsys, pair):
        assert self._compare(tmp_path, "--tol", f"{pair}=1") == 2
        err = capsys.readouterr().err
        assert f"tol: pair {pair!r} is not among the requested routes closed,mc" in err


class TestArgChecks:
    """--routes and --tol are checked before the spec file is read: a bad value
    exits 2 with its message even where the spec does not exist."""

    GRID = '{"kind":"list","points":[[0.5,0.0]]}'

    @pytest.mark.parametrize("routes, message", [
        ("", "routes: empty route list"),
        (" , ,", "routes: empty route list"),
        ("closed,bogus", "routes: unknown route 'bogus'"),
        ("closed,mc,closed", "routes: duplicate route"),
        (" hankel , hankel", "routes: duplicate route"),
    ])
    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_bad_routes_exit_2(self, tmp_path, capsys, command, routes, message):
        out = tmp_path / "x.csv"
        rc = cli.main([command, "--spec", str(tmp_path / "missing.json"), "--grid", self.GRID,
                       f"--routes={routes}", "--out", str(out)])
        assert rc == 2 and capsys.readouterr().err == f"spec error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("item, message", [
        ("closed-mc", "tol: expected PAIR=VALUE, got 'closed-mc'"),
        ("closed-mc=tight", "tol: non-numeric tolerance in 'closed-mc=tight'"),
        ("closed-mc=", "tol: non-numeric tolerance in 'closed-mc='"),
    ])
    def test_bad_tol_item_exits_2(self, tmp_path, capsys, item, message):
        out = tmp_path / "x.csv"
        rc = cli.main(["compare", "--spec", str(tmp_path / "missing.json"), "--grid", self.GRID,
                       "--routes", "closed,mc", "--tol", "closed-mc=1", "--tol", item,
                       "--out", str(out)])
        assert rc == 2 and capsys.readouterr().err == f"spec error: {message}\n"
        assert not out.exists()

    def test_routes_checked_before_workers_and_tol(self, tmp_path, capsys):
        rc = cli.main(["compare", "--spec", str(tmp_path / "missing.json"), "--grid", self.GRID,
                       "--routes", "closed,closed", "--workers", "0", "--tol", "x"])
        assert rc == 2 and capsys.readouterr().err == "spec error: routes: duplicate route\n"


class TestOutputErrors:
    @pytest.mark.parametrize("command", ["sample", "eval", "compare"])
    def test_unwritable_out_exits_2_naming_it(self, tmp_path, capsys, command):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        out = str(tmp_path / "missing" / "x.csv")
        args = {"sample": ["--count", "100"],
                "eval": ["--grid", '{"kind":"list","points":[[1.0,0.0]]}'],
                "compare": ["--grid", '{"kind":"list","points":[[1.0,0.0]]}',
                            "--routes", "closed,hankel"]}[command]
        assert cli.main([command, "--spec", spec, *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"spec error: out: cannot write {out!r}: ")
        assert "Traceback" not in err

    def test_failed_computation_creates_no_file(self, tmp_path, capsys, monkeypatch):
        def broken(gen, n, us):
            raise ConvergenceError("synthetic quadrature breakdown")

        monkeypatch.setattr(quadrature, "phi_hankel_rows", broken)
        out = tmp_path / "x.csv"
        spec = write_spec(tmp_path, "n.json", normal_spec())
        assert cli.main(["eval", "--spec", spec, "--routes", "hankel", "--out", str(out),
                         "--grid", '{"kind":"list","points":[[1.5,0.0]]}']) == 3
        rank_1 = write_spec(tmp_path, "r.json", normal_spec(sigma=[1.0, 0.0, 0.0, 0.0]))
        assert cli.main(["sample", "--spec", rank_1, "--count", "100", "--out", str(out)]) == 2
        assert not out.exists()

    def test_closed_stdout_ends_quietly(self, tmp_path):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        env = dict(os.environ)
        src = str(Path(ellipcf.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ellipcf.cli", "sample", "--spec", spec, "--count", "200000",
             "--out", "-"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"# kind=elliptical")
        proc.stdout.close()  # the reader goes away, as `| head -1` does
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_OUTPUT_CLOSED == 141
        assert err == b""


class TestWorkers:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize("command", ["sample", "eval", "compare"])
    def test_non_positive_workers_exit_2(self, tmp_path, capsys, command, workers):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        args = [] if command == "sample" else [
            "--grid", '{"kind":"list","points":[[1.0,0.0]]}', "--routes", "closed,hankel"]
        assert cli.main([command, "--spec", spec, *args, "--workers", workers]) == 2
        assert f"spec error: workers: must be >= 1, got {workers}" in capsys.readouterr().err


class TestSeedRange:
    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    @pytest.mark.parametrize("command", ["sample", "eval", "compare"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, command, seed):
        # 2^64 would draw what seed 0 draws, and -1 what 2^64 - 1 draws
        spec = write_spec(tmp_path, "n.json", normal_spec())
        out = tmp_path / "x.csv"
        args = ["--count", "1000"] if command == "sample" else [
            "--grid", '{"kind":"list","points":[[1.0,0.0]]}', "--routes", "closed,mc"]
        assert cli.main([command, "--spec", spec, *args, f"--seed={seed}", "--out", str(out)]) == 2
        assert f"spec error: seed: must be in [0, 2^64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        assert cli.main(["sample", "--spec", spec, "--count", "1000", "--seed", str(2**64 - 1)]) == 0
        assert f"seed={2**64 - 1}" in capsys.readouterr().out


class TestStreamedDraws:
    """The mc route and sample hold one chunk of draws per job, whatever the count."""

    @pytest.mark.parametrize("command, named", [("eval", "mc_count: must"),
                                                ("compare", "mc_count: must"),
                                                ("sample", "count must")])
    def test_count_past_key_space_exits_2(self, tmp_path, capsys, monkeypatch, command, named):
        # 2^55 draws use every chunk key of a stream; past that, chunks would repeat
        def no_draws(*args):
            raise AssertionError("drew before checking the count")

        monkeypatch.setattr(sampling, "_ordered_map", no_draws)
        spec = write_spec(tmp_path, "n.json", normal_spec())
        out = tmp_path / "x.csv"
        count = "99999999999999999999"
        args = ["--count", count] if command == "sample" else [
            "--mc-count", count, "--routes", "closed,mc",
            "--grid", '{"kind":"list","points":[[1.0,0.0]]}']
        assert cli.main([command, "--spec", spec, *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"spec error: {named} be <= 2^55 = 36028797018963968, got {count}\n")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_all_origin_grid_draws_nothing(self, tmp_path, capsys, monkeypatch, workers):
        # t = 0 is exactly 1 on the mc route: no grid row needs a draw
        calls = []
        sphere = sampling._unit_sphere_rows
        monkeypatch.setattr(sampling, "_unit_sphere_rows",
                            lambda g, m, n: calls.append(m) or sphere(g, m, n))
        spec = write_spec(tmp_path, "n.json", normal_spec())
        assert cli.main(["compare", "--spec", spec, "--routes", "closed,mc", "--seed", "3",
                         "--grid", '{"kind":"list","points":[[0,0],[0,0]]}',
                         "--mc-count", "10000000", "--workers", workers]) == 0
        assert calls == []
        sha = cli.load_spec(spec).sha256
        assert capsys.readouterr().out == (
            f"# ellipcf compare spec_sha256={sha} kind=elliptical routes=closed,mc seed=3"
            " mc_count=10000000\n"
            "t1,t2,re_closed,im_closed,re_mc,im_mc,dev_closed_mc\n"
            "0,0,1,0,1,0,0\n"
            "0,0,1,0,1,0,0\n"
            "# summary closed-mc: max_dev=0 tol=0.0012649110640673518 exceedances=0/2\n"
        )

    @pytest.mark.parametrize("existing", [False, True])
    def test_non_finite_draw_in_later_chunk_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                                           existing):
        radius = sampling._radius_chunk
        calls = []

        def overflowing(spec, m, g):
            calls.append(m)
            r = radius(spec, m, g)
            if len(calls) == 3:
                r[-1] = np.nan
            return r

        monkeypatch.setattr(sampling, "_radius_chunk", overflowing)
        spec = write_spec(tmp_path, "n.json", normal_spec())
        out = tmp_path / "x.csv"
        if existing:
            out.write_text("old\n")
        assert cli.main(["sample", "--spec", spec, "--count", "100000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "spec error: SampleBatch: non-finite entries in data\n"
        assert not out.exists()

    def test_peak_memory_does_not_grow_with_count(self, tmp_path):
        import tracemalloc

        spec = write_spec(tmp_path, "n.json", normal_spec())
        # sample on one worker: with two, how many formatted chunks wait for
        # the writer depends on thread timing (at most 2 x workers of them)
        commands = {
            "eval": ["eval", "--spec", spec, "--routes", "mc", "--workers", "2", "--grid",
                     '{"kind":"list","points":[[0.5,0.25],[0.0,0.0],[2.0,-1.0]]}', "--mc-count"],
            "sample": ["sample", "--spec", spec, "--workers", "1", "--count"],
        }
        for name, argv in commands.items():
            peaks = []
            for count in (400_000, 4_000_000):
                tracemalloc.start()
                try:
                    assert cli.main([*argv, str(count), "--out", os.devnull]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] - peaks[0] < 2 * 2**20, (name, peaks)


class TestReadmeTables:
    """README's kinds table and family list name what cli's tables hold."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_kinds_table_matches_cli(self):
        text = self.README.read_text()
        head = "| kind | extra fields | routes |"
        lines = text[text.index(head):].splitlines()[2:]
        rows = {}
        for line in itertools.takewhile(lambda l: l.startswith("|"), lines):
            kind, fields, routes = (cell.strip() for cell in line.strip("|").split("|"))
            names = re.findall(r"`(\w+)`(\?)?", fields)
            rows[kind.strip("`")] = (
                {name for name, optional in names if not optional},
                {name for name, optional in names if optional},
                {item.split()[0].rstrip("*") for item in routes.split(", ")},
            )
        assert rows == {
            kind: (set(row.fields), set(row.optional),
                   {"closed", "mc"} | ({"hankel"} if row.hankel is not None else set()))
            for kind, row in cli._KINDS.items()
        }

    def test_family_list_matches_cli(self):
        text = " ".join(self.README.read_text().split())
        listed = text[text.index("Generator families"):text.index("Mixing laws:")]
        families = {name: tuple(re.findall(r"\w+", params or ""))
                    for name, params in re.findall(r"`(\w+)(?: \{([^}]*)\})?`", listed)}
        assert families == {name: names for name, (_, names, _) in cli._FAMILIES.items()}

    def test_library_block_runs(self):
        # README's one python block, the library tour, runs as written
        text = self.README.read_text()
        block = text[text.index("```python\n") + len("```python\n"):]
        exec(compile(block[:block.index("```")], "README.md", "exec"), {})

    def test_mixing_list_matches_cli(self):
        text = " ".join(self.README.read_text().split())
        listed = text[text.index("Mixing laws:"):text.index("`parametrization` is")]
        kinds = {name: tuple(re.findall(r"\w+", fields))
                 for name, fields in re.findall(r"`(\w+) \{([^}]*)\}`", listed)}
        assert kinds == {kind: tuple(name for name, _ in fields)
                         for kind, fields in cli._MIXINGS.items()}
