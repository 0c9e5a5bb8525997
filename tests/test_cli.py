"""CLI tests: spec validation, exit-code contract, CSV schema, determinism."""

import json
import math

import numpy as np
import pytest

from ellipcf import cli
from ellipcf import elliptical
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
        from ellipcf import quadrature
        from ellipcf.errors import ConvergenceError

        def broken(gen, n, u, ctl=None):
            raise ConvergenceError("synthetic quadrature breakdown")

        monkeypatch.setattr(elliptical, "phi_hankel", broken)
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

    def test_stacked_failure_names_first_failing_point(self, tmp_path, capsys, monkeypatch):
        real = elliptical.closed_form_generator

        def breaks_above_q3(gen, n, q):
            if q > 3.0:
                raise ConvergenceError("synthetic series breakdown")
            return real(gen, n, q)

        monkeypatch.setattr(elliptical, "closed_form_generator", breaks_above_q3)
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
            real = skewmix.char_generator

            def breaks(gen, n, q, route="auto", ctl=None):
                if q > 20.0:
                    raise ConvergenceError("synthetic series breakdown")
                return real(gen, n, q, route, ctl)

            monkeypatch.setattr(skewmix, "char_generator", breaks)
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
        real = elliptical.closed_form_generator

        def closed_breaks(gen, n, q):
            if q > 5.0:
                raise ConvergenceError("closed breakdown")
            return real(gen, n, q)

        def hankel_breaks(gen, n, u, ctl=None):
            raise ConvergenceError("hankel breakdown")

        monkeypatch.setattr(elliptical, "closed_form_generator", closed_breaks)
        monkeypatch.setattr(elliptical, "phi_hankel", hankel_breaks)
        spec = write_spec(tmp_path, "n.json", normal_spec())
        rc = cli.main([
            "compare", "--spec", spec, "--routes", "closed,hankel",
            "--grid", '{"kind":"list","points":[[0.0,0.0],[2.0,0.0],[2.5,0.0]]}',
        ])
        assert rc == 3
        assert "at grid point t=[2.0, 0.0]: hankel breakdown" in capsys.readouterr().err

    def test_smu_hankel_small_u_heavy_tail(self, tmp_path, capsys):
        # E[R^4] does not exist for this t: the star route's small-u series
        # must give way to its oscillatory integral, not fail
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

    def test_closed_unavailable_exit_2(self, tmp_path, capsys):
        obj = normal_spec()
        obj["generator"] = {"family": "kotz", "params": {"N": 2.0, "r": 0.5, "s": 0.75}}
        spec = write_spec(tmp_path, "k.json", obj)
        rc = cli.main([
            "eval", "--spec", spec, "--routes", "closed",
            "--grid", '{"kind":"list","points":[[1.0,0.0]]}',
        ])
        assert rc == 2


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
    phase = float(t @ ell.mu)
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
        rows = {route: elliptical.CFRows.collect(values[route]) for route in routes}
        assert "".join(cli._eval_blocks(points, rows, routes)) == expected
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
        monkeypatch.setattr(skewmix, "_CHUNK", 4)
        points = [[0.25 * (i + 1), 0.0] for i in range(12)]
        row_of_q = {t[0] * t[0]: i for i, t in enumerate(points)}  # v = 1: q = t1^2
        seen = set()
        real = skewmix.char_generator

        def core(gen, n, q, route="auto", ctl=None):
            row = row_of_q.get(q)  # None: the route's availability probe
            seen.add(row)
            if row == 5:
                raise error("synthetic breakdown")
            return real(gen, n, q, route, ctl)

        monkeypatch.setattr(skewmix, "char_generator", core)
        spec = write_spec(tmp_path, "m.json", _lsm_spec(_DEGENERATE))
        grid = json.dumps({"kind": "list", "points": points})
        assert cli.main(["eval", "--spec", spec, "--grid", grid]) == code
        assert prefix + "synthetic breakdown" in capsys.readouterr().err
        assert seen - {None} == set(range(8))

    def test_analytic_routes_run_without_threads(self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started for an analytic route")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
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
        real = elliptical.closed_form_generator

        def corrupted(gen, n, q):
            return real(gen, n, q) + 1e-3

        monkeypatch.setattr(elliptical, "closed_form_generator", corrupted)
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
    def test_deterministic_bytes(self, tmp_path):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sample", "--spec", spec, "--count", "5000", "--seed", "5",
                         "--out", str(out1)]) == 0
        assert cli.main(["sample", "--spec", spec, "--count", "5000", "--seed", "5",
                         "--workers", "8", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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


class TestCompareDeterminism:
    def test_compare_bytes_stable_across_workers(self, tmp_path):
        spec = write_spec(tmp_path, "n.json", normal_spec())
        outs = []
        for w, name in ((1, "w1.csv"), (8, "w8.csv")):
            out = tmp_path / name
            rc = cli.main([
                "compare", "--spec", spec, "--routes", "closed,hankel,mc",
                "--mc-count", "100000", "--seed", "17", "--workers", str(w),
                "--grid", '{"kind":"axis","index":0,"start":0.2,"stop":2.0,"num":6}',
                "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
