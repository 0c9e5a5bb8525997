"""Workload catalogue: specs, seeded grids and the CLI operations of each workload.

An *operation* is one `ellipcf` CLI invocation.  Every workload is a fixed
list of operations (a *pass*); the seed only moves the grid points and the
Monte-Carlo `--seed`, never the specs, the point counts or the flags, so the
work done per pass is the same for every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("hankel_grid", "closed_grid", "mc_sample")

# Nominal wall time of one pass on a 2-core x86 VM; `--seconds` is divided by
# it to get the number of passes, so a run measures about `--seconds`.
PASS_SECONDS = {"hankel_grid": 10.0, "closed_grid": 6.7, "mc_sample": 10.5}

# Fresh processes timed for setup_s; the median over them is reported.
SETUP_PROCESSES = 10

MC_COUNT = 1_000_000
SAMPLE_COUNT = 300_000


@dataclass
class Op:
    """One CLI invocation and what the checker needs to judge its output."""

    name: str
    command: str  # eval | compare | sample
    spec: str  # key into the workload's spec table
    routes: str = ""
    grid: list = field(default_factory=list)  # list of t-vectors
    workers: int = 1
    seed: int = 0
    count: int = 0  # mc-count (compare) or sample count
    defect: bool = False  # known defect: exit 3 today, exit 0 once fixed

    @property
    def points(self) -> int:
        return len(self.grid)

    def argv(self, inputs: Path, out: Path, workers: int | None = None) -> list[str]:
        w = str(self.workers if workers is None else workers)
        spec = str(inputs / f"{self.spec}.json")
        if self.command == "sample":
            return ["sample", "--spec", spec, "--count", str(self.count),
                    "--seed", str(self.seed), "--workers", w, "--out", str(out)]
        argv = [self.command, "--spec", spec, "--grid", f"@{inputs / self.name}.grid.json",
                "--routes", self.routes, "--workers", w, "--out", str(out)]
        if "mc" in self.routes.split(","):
            argv += ["--mc-count", str(self.count), "--seed", str(self.seed)]
        return argv


@dataclass
class Workload:
    name: str
    specs: dict  # key -> spec JSON object
    ops: list  # one pass
    setup_ops: list  # origin-only operations timed as setup_s


# ---------------------------------------------------------------------------
# Spec builders
# ---------------------------------------------------------------------------


def _sigma(n: int, rho: float = 0.3, scale: float = 1.0) -> np.ndarray:
    idx = np.arange(n)
    return scale * rho ** np.abs(idx[:, None] - idx[None, :])


def _mu(n: int) -> list:
    return [round(0.1 * (-1) ** i * (i + 1), 3) for i in range(n)]


def _base(kind: str, n: int, sigma=None, mu=None) -> dict:
    sigma = _sigma(n) if sigma is None else np.asarray(sigma, dtype=float)
    return {
        "schema": 1,
        "kind": kind,
        "n": n,
        "mu": _mu(n) if mu is None else list(mu),
        "sigma": [float(v) for v in sigma.reshape(-1)],
    }


def ell(n: int, family: str, params: dict | None = None, kind: str = "elliptical", **kw) -> dict:
    spec = _base(kind, n, **kw)
    spec["generator"] = {"family": family, "params": params or {}}
    return spec


def lsm(n: int, family: str, params: dict | None, mixing: dict, **kw) -> dict:
    spec = _base("lsm", n, **kw)
    spec["gamma"] = [round(0.4 - 0.3 * i, 3) for i in range(n)]
    spec["generator"] = {"family": family, "params": params or {}}
    spec["mixing"] = mixing
    return spec


def skew(kind: str, n: int, parametrization: str, mixing: dict | None = None) -> dict:
    spec = _base(kind, n)
    spec["alpha"] = [round(2.0 - 1.5 * i, 3) for i in range(n)]
    spec["parametrization"] = parametrization
    if mixing is not None:
        spec["mixing"] = mixing
    return spec


FINITE = {"kind": "finite_discrete", "points": [0.5, 1.0, 2.5], "weights": [0.3, 0.5, 0.2]}
INV_GAMMA = {"kind": "inverse_gamma", "shape": 3.0, "scale": 2.0}


# ---------------------------------------------------------------------------
# Seeded grids
# ---------------------------------------------------------------------------


def _inv_sqrt(sigma: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sigma)
    return vecs @ np.diag(vals**-0.5) @ vecs.T


def band_points(rng: np.random.Generator, spec: dict, bands: list) -> list:
    """Points whose quadratic form sqrt(t' Sigma t) is uniform in each band.

    `bands` is a list of (lo, hi, count); the origin comes first, so every
    output also carries the exact value 1 at t = 0.
    """
    n = spec["n"]
    root = _inv_sqrt(np.asarray(spec["sigma"]).reshape(n, n))
    pts = [[0.0] * n]
    for lo, hi, count in bands:
        for u in rng.uniform(lo, hi, count):
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            pts.append([float(v) for v in u * (root @ d)])
    return pts


def _spread(keys: list, count: int) -> list:
    """`count` keys spread evenly over the list, repeating keys if it is shorter."""
    return [keys[(i * len(keys)) // count] for i in range(count)]


def rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, *salt])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

LOW = (0.02, 2.0)


def _hankel_grid(seed: int) -> Workload:
    # key: (spec, upper end of the high band, points per band)
    table = {
        "normal_n1": (ell(1, "normal"), 12.0, 192),
        "normal_n3": (ell(3, "normal"), 12.0, 192),
        "t3_n2": (ell(2, "generalized_t", {"s": 3.0, "m": 3}), 12.0, 6),
        "cauchy_n1": (ell(1, "generalized_t", {"s": 1.0, "m": 1}), 12.0, 38),
        "cauchy_n2": (ell(2, "generalized_t", {"s": 1.0, "m": 1}), 12.0, 6),
        "pearson7_n2": (ell(2, "pearson_vii", {"N": 2.3, "s": 1.5}), 12.0, 6),
        "pearson7_n5": (ell(5, "pearson_vii", {"N": 3.7, "s": 2.0}), 12.0, 16),
        "pearson2_n3": (ell(3, "pearson_ii", {"m": 1.5}), 12.0, 224),
        "pearson2_edge_n2": (ell(2, "pearson_ii", {"m": -0.5}), 12.0, 8),
        "ball_n2": (ell(2, "uniform_ball"), 12.0, 224),
        "ball_n5": (ell(5, "uniform_ball"), 12.0, 224),
        "kotz075_n2": (ell(2, "kotz", {"N": 2.0, "r": 0.5, "s": 0.75}), 8.0, 16),
        "kotz1_n3": (ell(3, "kotz", {"N": 2.0, "r": 0.5, "s": 1.0}), 8.0, 160),
        "bessel_n2": (ell(2, "bessel", {"a": 0.5, "beta": 1.0}), 12.0, 13),
        "bessel_n3": (ell(3, "bessel", {"a": 1.0, "beta": 0.8}), 12.0, 3),
        "smu_t3_n2": (ell(2, "generalized_t", {"s": 3.0, "m": 3}, kind="smu"), 12.0, 4),
        "lsm_finite_n2": (lsm(2, "normal", None, FINITE), 4.0, 11),
    }
    specs, ops = {}, []
    for i, (key, (spec, hi, k)) in enumerate(table.items()):
        specs[key] = spec
        grid = band_points(rng(seed, 1, i), spec, [(*LOW, k), (2.0, hi, k)])
        ops.append(Op(f"hankel.{key}", "eval", key, "hankel", grid))

    # Known defects of the oscillatory integrator, one point each at fixed
    # coordinates (no seed): each exits 3 today and passes once fixed.
    eye = lambda n: np.eye(n)  # noqa: E731
    zeros = lambda n: [0.0] * n  # noqa: E731
    defects = {
        "defect_t_n2_u200": (ell(2, "generalized_t", {"s": 2.0, "m": 3}, sigma=eye(2), mu=zeros(2)), 200.0),
        "defect_t_n5_u200": (ell(5, "generalized_t", {"s": 2.0, "m": 3}, sigma=eye(5), mu=zeros(5)), 200.0),
        "defect_ball_n3_u100": (ell(3, "uniform_ball", sigma=eye(3), mu=zeros(3)), 100.0),
        "defect_kotz075_n2_u20.909": (ell(2, "kotz", {"N": 2.0, "r": 0.5, "s": 0.75}, sigma=eye(2), mu=zeros(2)), 20.909),
    }
    for key, (spec, u) in defects.items():
        specs[key] = spec
        ops.append(Op(f"hankel.{key}", "eval", key, "hankel",
                      [[u] + [0.0] * (spec["n"] - 1)], defect=True))
    lsm_ig = lsm(2, "uniform_ball", None, INV_GAMMA, sigma=eye(2), mu=zeros(2))
    lsm_ig["gamma"] = [0.5, -0.3]
    specs["defect_lsm_ball_invgamma"] = lsm_ig
    ops.append(Op("hankel.defect_lsm_ball_invgamma", "eval", "defect_lsm_ball_invgamma",
                  "hankel", [[0.7, 0.4]], defect=True))
    # Error-estimate honesty case: converges, but err_est is too optimistic.
    specs["pearson2_edge_u3"] = ell(2, "pearson_ii", {"m": -0.5}, sigma=eye(2), mu=zeros(2))
    ops.append(Op("hankel.pearson2_edge_u3", "eval", "pearson2_edge_u3", "hankel",
                  [[0.0, 0.0], [3.0, 0.0]]))

    setup = [Op(f"setup.{k}", "eval", k, "hankel", [[0.0] * specs[k]["n"]])
             for k in _spread(list(table), SETUP_PROCESSES)]
    return Workload("hankel_grid", specs, ops, setup)


def _closed_grid(seed: int) -> Workload:
    # key: (spec, upper end of the band of sqrt(t' Sigma t), points); the
    # groups (elliptical, skew-normal, continuous mixtures) take comparable
    # shares of the pass.
    table = {
        # bessel_k integral branch: even m, and a non-half-integer order
        "t_even_n2": (ell(2, "generalized_t", {"s": 2.0, "m": 4}), 12.0, 1875),
        "pearson7_n2": (ell(2, "pearson_vii", {"N": 2.3, "s": 1.5}), 12.0, 1875),
        "kotz1_n3": (ell(3, "kotz", {"N": 2.0, "r": 0.5, "s": 1.0}), 12.0, 4500),
        # past the hyp0f1 -> bessel_j switch (u > 10)
        "pearson2_n2": (ell(2, "pearson_ii", {"m": 1.5}), 30.0, 4500),
        "ball_n3": (ell(3, "uniform_ball"), 30.0, 4500),
        "skew_normal_n2": (skew("skew_normal", 2, "half_root"), 6.0, 18000),
        "gse_skew_normal_n3": (skew("gse_skew_normal", 3, "full_sigma"), 6.0, 18000),
        "lsm_finite_n2": (lsm(2, "generalized_t", {"s": 3.0, "m": 3}, FINITE), 6.0, 1875),
        "lsm_invgamma_n2": (lsm(2, "normal", None, INV_GAMMA), 6.0, 300),
        "smsn_finite_n2": (skew("smsn", 2, "half_root", FINITE), 6.0, 4500),
        "smsn_invgamma_n2": (skew("smsn", 2, "full_sigma", INV_GAMMA), 6.0, 300),
    }
    specs, ops = {}, []
    for i, (key, (spec, hi, k)) in enumerate(table.items()):
        specs[key] = spec
        grid = band_points(rng(seed, 2, i), spec, [(0.0, hi, k)])
        ops.append(Op(f"closed.{key}", "eval", key, "closed", grid))
    setup = [Op(f"setup.{k}", "eval", k, "closed", [[0.0] * specs[k]["n"]])
             for k in _spread(list(table), SETUP_PROCESSES)]
    return Workload("closed_grid", specs, ops, setup)


def _mc_sample(seed: int) -> Workload:
    specs = {
        "t3_n2": ell(2, "generalized_t", {"s": 3.0, "m": 3}),
        "skew_normal_n2": skew("skew_normal", 2, "half_root"),
        "lsm_finite_n2": lsm(2, "normal", None, FINITE),
        "smsn_invgamma_n2": skew("smsn", 2, "half_root", INV_GAMMA),
    }
    ops = []
    for i, (key, spec) in enumerate(specs.items()):
        mc_seed = int(rng(seed, 3, i).integers(1, 2**31))
        for j, (lo, hi) in enumerate(((0.05, 1.5), (1.5, 4.0))):
            grid = band_points(rng(seed, 4, i, j), spec, [(lo, hi, 6)])
            ops.append(Op(f"compare.{key}.{j}", "compare", key, "closed,mc", grid,
                          workers=2, seed=mc_seed, count=MC_COUNT))
        ops.append(Op(f"sample.{key}", "sample", key, workers=2, seed=mc_seed,
                      count=SAMPLE_COUNT))
    setup = [Op(f"setup.{k}", "compare", k, "closed,mc", [[0.0] * specs[k]["n"]], workers=2,
                seed=1, count=1000)
             for k in _spread(list(specs), SETUP_PROCESSES)]
    return Workload("mc_sample", specs, ops, setup)


def build(name: str, seed: int) -> Workload:
    return {"hankel_grid": _hankel_grid, "closed_grid": _closed_grid,
            "mc_sample": _mc_sample}[name](seed)


def write_inputs(workload: Workload, inputs: Path) -> None:
    """Write spec files and grid files that the operations reference."""
    inputs.mkdir(parents=True, exist_ok=True)
    for key, spec in workload.specs.items():
        (inputs / f"{key}.json").write_text(json.dumps(spec))
    for op in workload.ops + workload.setup_ops:
        if op.command != "sample":
            (inputs / f"{op.name}.grid.json").write_text(
                json.dumps({"kind": "list", "points": op.grid})
            )


def passes(name: str, seconds: float) -> int:
    return max(1, int(math.floor(seconds / PASS_SECONDS[name] + 0.5)))
