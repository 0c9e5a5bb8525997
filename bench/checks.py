"""Correctness checks of CLI outputs against independent routes.

Every output row must obey the universal CF laws (finite, exactly 1 at the
origin, |phi| <= 1 + abs_err).  On top of that, rows are compared with a
value computed another way:

* Hankel rows against the closed form, where one exists (1e-6);
* closed-form elliptical and finite-mixture rows against the Hankel route
  (1e-6);
* skew-normal kinds and continuous mixtures against mpmath: erfi for the
  normal CDF at imaginary argument, and mpmath quadrature over the mixing
  density;
* Monte-Carlo columns and sample files within 4/sqrt(N) of the reference.
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp
import numpy as np

from ellipcf import cli
from ellipcf import elliptical as el
from ellipcf import skewmix as sk
from ellipcf.errors import NoClosedFormError

TOL_ANALYTIC = 1e-6  # closed form vs Hankel, as in `ellipcf compare`
TOL_MPMATH = 1e-7  # mixture quadrature targets 1e-8
MC_BAND = 4.0  # Monte Carlo within MC_BAND / sqrt(N)
REFEREE_ROWS = 4  # seeded rows per output compared with a costly reference


def read_csv(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header or [], rows


class Referee:
    """Reference CF values by a route other than the one that produced them."""

    def __init__(self, inputs: Path, specs: dict):
        self.inputs = inputs
        self.specs = specs  # key -> spec JSON object
        self._parsed: dict = {}

    def parsed(self, key: str) -> cli.ParsedSpec:
        if key not in self._parsed:
            self._parsed[key] = cli.load_spec(str(self.inputs / f"{key}.json"))
        return self._parsed[key]

    def reference(self, key: str, t: np.ndarray, produced_by: str) -> tuple[complex, float] | None:
        """(value, tolerance), or None when no independent value exists."""
        spec = self.parsed(key)
        raw = self.specs[key]
        if spec.kind in ("elliptical", "smu"):
            other = "closed" if produced_by == "hankel" else "hankel"
            try:
                return complex(el.cf(spec.elliptical, t, route=other)), TOL_ANALYTIC
            except NoClosedFormError:
                return None
        if spec.kind == "lsm":
            if produced_by == "hankel":
                try:
                    return complex(sk.cf_location_scale_mixture(spec.lsm, t, route="closed")), TOL_ANALYTIC
                except NoClosedFormError:
                    return None
            if spec.lsm.mixing.is_exact():
                return complex(sk.cf_location_scale_mixture(spec.lsm, t, route="hankel")), TOL_ANALYTIC
            if raw["generator"]["family"] == "normal":
                return _mp_lsm_normal(raw, t), TOL_MPMATH
            return None
        return _mp_skew(raw, t), TOL_MPMATH


# ---------------------------------------------------------------------------
# mpmath references
# ---------------------------------------------------------------------------


def _sym_root(sigma: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sigma)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _mixing_mean(mixing: dict, fn) -> mp.mpc:
    """E[fn(V)] for a finite-discrete or inverse-gamma mixing law."""
    if mixing["kind"] == "finite_discrete":
        return mp.fsum(w * fn(mp.mpf(p)) for p, w in zip(mixing["points"], mixing["weights"]))
    a, b = mp.mpf(mixing["shape"]), mp.mpf(mixing["scale"])
    norm = b**a / mp.gamma(a)
    return mp.quad(lambda v: fn(v) * norm * v ** (-a - 1) * mp.exp(-b / v),
                   [0, 0.25, 1, 4, 16, mp.inf])


def _mp_skew(raw: dict, t: np.ndarray) -> complex:
    # 2 exp(i t'mu - k q/2) Phi(i sqrt(k) y), Phi(iy) = 1/2 + (i/2) erfi(y/sqrt(2)),
    # averaged over the mixing variable k for the smsn kind
    n = raw["n"]
    sigma = np.asarray(raw["sigma"], dtype=float).reshape(n, n)
    alpha = np.asarray(raw["alpha"], dtype=float)
    root = _sym_root(sigma)
    if raw.get("parametrization", "half_root") == "half_root":
        a = alpha / math.sqrt(1.0 + alpha @ alpha)
    else:
        a = root @ alpha / math.sqrt(1.0 + alpha @ sigma @ alpha)
    y = mp.mpf(float(a @ (root @ t)))
    q = mp.mpf(float(t @ sigma @ t))

    def sn(k):
        return 2 * mp.exp(-k * q / 2) * (mp.mpf(0.5) + 0.5j * mp.erfi(mp.sqrt(k) * y / mp.sqrt(2)))

    with mp.workdps(25):
        value = sn(mp.mpf(1)) if raw["kind"] != "smsn" else _mixing_mean(raw["mixing"], sn)
        return complex(mp.expj(float(t @ np.asarray(raw["mu"]))) * value)


def _mp_lsm_normal(raw: dict, t: np.ndarray) -> complex:
    # exp(i t'mu) E[exp(i V t'gamma - V q / 2)] for a normal base generator
    n = raw["n"]
    sigma = np.asarray(raw["sigma"], dtype=float).reshape(n, n)
    q = mp.mpf(float(t @ sigma @ t))
    d = mp.mpf(float(t @ np.asarray(raw["gamma"])))
    with mp.workdps(25):
        value = _mixing_mean(raw["mixing"], lambda v: mp.expj(v * d) * mp.exp(-v * q / 2))
        return complex(mp.expj(float(t @ np.asarray(raw["mu"]))) * value)


# ---------------------------------------------------------------------------
# Output checks; each returns a list of problems (empty when correct)
# ---------------------------------------------------------------------------


def _pick_rows(rows: int, rng: np.random.Generator, every: bool = False,
               count: int = REFEREE_ROWS) -> list[int]:
    if every or rows <= count:
        return list(range(rows))
    return sorted(rng.choice(rows, size=count, replace=False).tolist())


def check_eval(op, path: Path, referee: Referee, rng: np.random.Generator) -> list[str]:
    _, header, rows = read_csv(path)
    n = referee.parsed(op.spec).n
    expected = [f"t{i + 1}" for i in range(n)] + ["re", "im", "abs_err", "method"]
    if header != expected:
        return [f"{op.name}: header {header}"]
    if len(rows) != op.points:
        return [f"{op.name}: {len(rows)} rows for {op.points} points"]
    problems = []
    for i, row in enumerate(rows):
        t = np.array([float(v) for v in row[:n]])
        if not np.array_equal(t, np.asarray(op.grid[i])):
            problems.append(f"{op.name}: row {i} echoes t={row[:n]}")
            continue
        re, im = float(row[n]), float(row[n + 1])
        err = float(row[n + 2]) if row[n + 2] else 0.0
        if not (math.isfinite(re) and math.isfinite(im) and err >= 0.0):
            problems.append(f"{op.name}: row {i} not finite")
        elif not t.any() and (re, im) != (1.0, 0.0):
            problems.append(f"{op.name}: value {re}+{im}i at the origin")
        elif abs(complex(re, im)) > 1.0 + err + 1e-12:
            problems.append(f"{op.name}: |phi| = {abs(complex(re, im))} > 1 at row {i}")
    # Hankel rows are judged by closed forms, which are cheap: judge them all
    for i in _pick_rows(len(rows), rng, every=op.routes == "hankel"):
        t = np.asarray(op.grid[i], dtype=float)
        if not t.any():
            continue
        ref = referee.reference(op.spec, t, op.routes)
        if ref is None:
            continue
        value, tol = ref
        got = complex(float(rows[i][n]), float(rows[i][n + 1]))
        dev = max(abs(got.real - value.real), abs(got.imag - value.imag))
        if not dev <= tol:
            problems.append(f"{op.name}: row {i} deviates {dev:.3e} from the reference")
    return problems


def check_compare(op, path: Path, referee: Referee, rng: np.random.Generator) -> list[str]:
    comments, header, rows = read_csv(path)
    n = referee.parsed(op.spec).n
    expected = [f"t{i + 1}" for i in range(n)] + ["re_closed", "im_closed", "re_mc", "im_mc",
                                                  "dev_closed_mc"]
    if header != expected or len(rows) != op.points:
        return [f"{op.name}: header {header} with {len(rows)} rows"]
    if not any(c.startswith("# summary closed-mc:") for c in comments):
        return [f"{op.name}: summary line missing"]
    band = MC_BAND / math.sqrt(op.count)
    picked = set(_pick_rows(len(rows), rng, count=2))
    problems = []
    for i, row in enumerate(rows):
        closed = complex(float(row[n]), float(row[n + 1]))
        mc = complex(float(row[n + 2]), float(row[n + 3]))
        dev = max(abs(closed.real - mc.real), abs(closed.imag - mc.imag))
        if not dev <= band:
            problems.append(f"{op.name}: Monte Carlo off by {dev:.3e} > {band:.3e} at row {i}")
        t = np.asarray(op.grid[i], dtype=float)
        if i in picked and t.any():
            value, tol = referee.reference(op.spec, t, "closed")
            if not abs(closed - value) <= tol:
                problems.append(f"{op.name}: closed value off the reference at row {i}")
    return problems


def check_sample(op, path: Path, referee: Referee, rng: np.random.Generator) -> list[str]:
    comments, header, data = read_sample(path)
    n = referee.parsed(op.spec).n
    if header != [f"x{i + 1}" for i in range(n)] or data.shape != (op.count, n):
        return [f"{op.name}: header {header}, data shape {data.shape}"]
    if f"count={op.count}" not in comments[0] or f"seed={op.seed}" not in comments[0]:
        return [f"{op.name}: provenance line {comments[0]!r}"]
    if not np.all(np.isfinite(data)):
        return [f"{op.name}: non-finite draws"]
    band = MC_BAND / math.sqrt(op.count)
    problems = []
    for u in (0.5, 1.5):
        d = rng.standard_normal(n)
        t = u * d / np.linalg.norm(d)
        phases = data @ t
        ecf = complex(np.cos(phases).mean(), np.sin(phases).mean())
        value, _ = referee.reference(op.spec, t, "closed")
        if not abs(ecf - value) <= band * math.sqrt(2.0):
            problems.append(f"{op.name}: empirical CF off by {abs(ecf - value):.3e} at |t|={u}")
    return problems


def read_sample(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    comments, header = [], []
    with open(path, "rb") as fh:
        while True:
            line = fh.readline().decode().rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
                continue
            header = line.split(",")
            break
        body = fh.read()
    values = np.array(body.replace(b"\n", b",").split(b",")[:-1], dtype=float)
    return comments, header, values.reshape(-1, max(len(header), 1))


def check_output(op, path: Path, referee: Referee, rng: np.random.Generator) -> list[str]:
    return {"eval": check_eval, "compare": check_compare, "sample": check_sample}[op.command](
        op, path, referee, rng
    )
