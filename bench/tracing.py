"""Per-layer metrics: an in-process traced run plus layer probes.

The traced run executes the workload's operations in this process through
`cli.main`, with `--workers 1`.  Wrappers installed from here (nothing under
`src/` changes) rebind each public function in every `ellipcf` module that
holds it, and record calls, inclusive time and self time (inclusive minus the
time of wrapped callees).  Work counters come from the same wrappers:
generator evaluations, quadrature panels, Bessel calls and zeros, mixing
integrand evaluations.  The operations run twice traced; the counters must
repeat exactly.

The probes time each layer on fixed seeded arguments, untraced, so their
per-call costs mean the same thing on every workload; scipy.special serves
as speed ceiling and value cross-check for the special functions.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from collections import defaultdict

import numpy as np

from ellipcf import cli
from ellipcf import elliptical as el
from ellipcf import generators as gn
from ellipcf import quadrature as qd
from ellipcf import sampling as sp
from ellipcf import skewmix as sk
from ellipcf import specfun as sf
from ellipcf.errors import NoClosedFormError

import checks
import harness
import workloads

MODULES = (sf, gn, qd, el, sk, sp, cli)

# Largest deviation from scipy.special, relative to the largest value probed.
SCIPY_TOL = 1e-9

EPS = float(np.finfo(float).eps)

SPANS = {
    sf: ("bessel_j", "bessel_j_zero", "bessel_k", "hyp0f1", "hyp1f1", "norm_cdf_imag_scaled"),
    qd: ("adaptive_interval", "integrate_bessel_oscillatory", "phi_hankel"),
    el: ("cf",),
    sk: ("cf_location_scale_mixture", "cf_star_unimodal", "cf_skew_normal", "cf_gse", "cf_smsn"),
    sp: ("sample_elliptical", "sample_skew_normal", "sample_location_scale_mixture",
         "sample_smsn", "empirical_cf"),
    cli: ("load_spec", "_grid_rows"),
}

# Deterministic work counters; they must repeat exactly between traced runs.
COUNTERS = (
    "generators.g.calls",
    "specfun.bessel_j.calls",
    "specfun.bessel_j_zero.calls",
    "specfun.bessel_k.calls",
    "quadrature.phi_hankel.calls",
    "quadrature.phi_hankel.panels",
    "quadrature.adaptive_interval.calls",
    "quadrature.adaptive_interval.panels",
    "elliptical.cf.calls",
    "skewmix.expectation.integrand_calls",
)

# Per-layer metrics in the JSON line: every counter, and the timings that
# are defined on every workload.
JSON_METRICS = COUNTERS + (
    "specfun.bessel_j.us_per_call",
    "specfun.bessel_j.scipy_ratio",
    "specfun.bessel_k.us_per_call",
    "specfun.bessel_k.scipy_ratio",
    "specfun.hyp0f1.us_per_call",
    "specfun.hyp1f1.us_per_call",
    "specfun.norm_cdf_imag_scaled.us_per_call",
    "quadrature.phi_hankel.ms_p50",
    "quadrature.phi_hankel.ms_tail",
    "quadrature.phi_hankel.err_ratio_max",
    "quadrature.adaptive_interval.self_s",
    "elliptical.cf.us_per_call",
    "skewmix.cf_location_scale_mixture.ms_per_call",
    "skewmix.cf_smsn.ms_per_call",
    "skewmix.cf_star_unimodal.ms_per_call",
    "skewmix.cf_skew_normal.us_per_call",
    "sampling.elliptical.rows_per_s",
    "sampling.skew_normal.rows_per_s",
    "sampling.lsm.rows_per_s",
    "sampling.smsn.rows_per_s",
    "sampling.empirical_cf.ms_per_point",
    "sampling.empirical_cf.gb_per_s",
    "sampling.speedup_w2",
    "cli.load_spec.ms",
    "cli.self_s",
    "cli.output_mb_per_s",
    "cli.grid_rows.speedup_w2",
    "cli.speedup_w2",
    "trace.overhead_frac",
)


class Tracer:
    """Span statistics per name: [calls, inclusive s, self s], plus counters."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self._stack: list[float] = []
        self._restore: list = []

    def wrap(self, name: str, fn, on_result=None):
        stats, stack = self.stats[name], self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child
                if stack:
                    stack[-1] += duration
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def rebind(self, module, attr: str, wrapper) -> None:
        """Point every ellipcf module's reference to module.attr at wrapper."""
        original = getattr(module, attr)
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def install(self, full: bool) -> None:
        count = self.counters
        if not full:  # light mode: only the grid sweep, for the worker speed-up
            self.rebind(cli, "_grid_rows", self.wrap("cli._grid_rows", cli._grid_rows))
            self.rebind(cli, "main", self.wrap("cli.main", cli.main))
            return
        hooks = {
            ("quadrature", "adaptive_interval"):
                lambda r: count.__setitem__("quadrature.adaptive_interval.panels",
                                            count["quadrature.adaptive_interval.panels"] + r[2]),
            ("quadrature", "phi_hankel"):
                lambda r: count.__setitem__("quadrature.phi_hankel.panels",
                                            count["quadrature.phi_hankel.panels"] + r.panels_used),
        }
        for module, names in SPANS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in names:
                fn = getattr(module, attr)
                self.rebind(module, attr,
                            self.wrap(f"{layer}.{attr}", fn, hooks.get((layer, attr))))
        self.rebind(cli, "main", self.wrap("cli.main", cli.main))

        original_load = cli.load_spec

        def load_spec(path):
            spec = original_load(path)
            for gen in _generators(spec):
                gen.g = self.wrap("generators.g", gen.g)
                if gen.g_prime is not None:
                    gen.g_prime = self.wrap("generators.g_prime", gen.g_prime)
            return spec

        self.rebind(cli, "load_spec", load_spec)

        expectation = sk.MixingLaw.expectation

        def counted_expectation(law, fn, *args, **kwargs):
            def integrand(v):
                count["skewmix.expectation.integrand_calls"] += 1
                return fn(v)

            return expectation(law, integrand, *args, **kwargs)

        self._restore.append((sk.MixingLaw, "expectation", expectation))
        sk.MixingLaw.expectation = self.wrap("skewmix.expectation", counted_expectation)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def work_counters(self) -> dict:
        out = dict.fromkeys(COUNTERS, 0)
        for name in COUNTERS:
            if name.endswith(".calls"):
                out[name] = self.calls(name[: -len(".calls")])
        for name, value in self.counters.items():
            out[name] = value
        return out


def _generators(spec: cli.ParsedSpec) -> list:
    if spec.elliptical is not None:
        return [spec.elliptical.generator]
    if spec.lsm is not None:
        return [spec.lsm.base.generator]
    return []


# ---------------------------------------------------------------------------
# In-process passes
# ---------------------------------------------------------------------------


def run_pass(run, ops, tag: str, workers: int, tracer: Tracer | None = None) -> dict:
    """Run each operation through cli.main; returns wall time and outputs."""
    if tracer is not None:
        tracer.install(full=tag.startswith("traced"))
    walls, digests, codes = {}, {}, {}
    try:
        for op in ops:
            sf._JZERO_CACHE.clear()  # as in a fresh process
            out = run.out_path(op, tag)
            with contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                codes[op.name] = cli.main(op.argv(run.inputs, out, workers))
                walls[op.name] = time.perf_counter() - start
            digests[op.name] = harness.digest(out) if out.exists() else ""
            if not tag.startswith("traced1"):
                out.unlink(missing_ok=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall": sum(walls.values()), "digests": digests, "codes": codes}


def measure(args, workload) -> dict:
    run = harness.Run()
    workloads.write_inputs(workload, run.inputs)
    run.outputs.mkdir(parents=True)
    ops = workload.ops

    light1, light2 = Tracer(), Tracer()
    plain1 = run_pass(run, ops, "plain1", 1, light1)
    plain2 = run_pass(run, ops, "plain2", 2, light2)
    tracers = [Tracer(), Tracer()]
    traced = [run_pass(run, ops, f"traced{i + 1}", 1, tr) for i, tr in enumerate(tracers)]
    tracer = tracers[0]
    counters = tracer.work_counters()

    problems = run.problems
    if tracers[1].work_counters() != counters:
        diff = {k for k, v in counters.items() if tracers[1].work_counters()[k] != v}
        problems.append(f"work counters differ between two traced runs: {sorted(diff)}")
    for name in traced[0]["codes"]:
        others = [p["digests"][name] for p in (plain1, plain2, traced[1])]
        if any(d != traced[0]["digests"][name] for d in others):
            problems.append(f"{name}: output differs between --workers 1, 2 and traced runs")
    referee = checks.Referee(run.inputs, workload.specs)
    rng = workloads.rng(args.seed, 9)
    failed = 0
    for op in ops:
        code = traced[0]["codes"][op.name]
        result = harness.OpResult(op, 0.0, 0.0, 0.0, code)
        failed += harness.judge(run, result, run.out_path(op, "traced1"), referee, rng) == "failed"

    out_bytes = sum(run.out_path(op, "traced1").stat().st_size
                    for op in ops if run.out_path(op, "traced1").exists())
    cli_self = tracer.self_s("cli.main") + tracer.self_s("cli.load_spec")
    metrics = {name: (value, "count", "work counter") for name, value in counters.items()}
    metrics.update({
        "specfun.bessel_j.self_s": (tracer.self_s("specfun.bessel_j"), "s", "workload"),
        "specfun.bessel_j_zero.self_s": (tracer.self_s("specfun.bessel_j_zero"), "s", "workload"),
        "specfun.bessel_k.self_s": (tracer.self_s("specfun.bessel_k"), "s", "workload"),
        "generators.g.self_s": (tracer.self_s("generators.g"), "s", "workload"),
        "quadrature.integrate_bessel_oscillatory.self_s":
            (tracer.self_s("quadrature.integrate_bessel_oscillatory"), "s", "workload"),
        "quadrature.adaptive_interval.self_s":
            (tracer.self_s("quadrature.adaptive_interval"), "s", "workload"),
        "cli.self_s": (cli_self, "s", "main + load_spec self time: parse, format, write"),
        "cli.load_spec.ms": (1e3 * tracer.stats["cli.load_spec"][1]
                             / max(tracer.calls("cli.load_spec"), 1), "ms", "workload, per call"),
        "cli.output_mb_per_s": (out_bytes / 1e6 / cli_self, "MB/s",
                                f"{out_bytes} output bytes over cli.self_s"),
        "cli.grid_rows.speedup_w2": (light1.stats["cli._grid_rows"][1]
                                     / light2.stats["cli._grid_rows"][1], "ratio",
                                     "grid sweep time at --workers 1 / 2"),
        "cli.speedup_w2": (plain1["wall"] / plain2["wall"], "ratio",
                           "workload time at --workers 1 / 2, in process"),
        "trace.overhead_frac": ((traced[0]["wall"] - plain1["wall"]) / plain1["wall"], "ratio",
                                f"traced {traced[0]['wall']:.3f} s vs untraced {plain1['wall']:.3f} s"),
    })
    metrics.update(probe(args.seed, problems))
    return {"metrics": metrics, "attempted": len(ops), "failed": failed,
            "correct": not problems and failed == 0, "problems": problems}


# ---------------------------------------------------------------------------
# Layer probes
# ---------------------------------------------------------------------------


def _per_call(fn, arg_list, repeats: int = 3) -> float:
    """Median over repeats of the mean seconds per call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a in arg_list:
            fn(*a)
        times.append((time.perf_counter() - start) / len(arg_list))
    return statistics.median(times)


def _scipy_probe(rng, problems: list) -> dict:
    import scipy.special as ss

    cases = {
        "bessel_j": (sf.bessel_j, ss.jv, [(float(rng.choice([0.0, 0.5, 1.0, 1.5])),
                                           float(rng.uniform(0.1, 60.0))) for _ in range(2000)]),
        "bessel_k": (sf.bessel_k, ss.kv, [(float(rng.choice([1.3, 2.0, 0.8])),
                                           float(rng.uniform(0.05, 30.0))) for _ in range(150)]),
        "hyp0f1": (sf.hyp0f1, ss.hyp0f1, [(float(rng.choice([2.0, 2.5, 3.5])),
                                           float(rng.uniform(-200.0, 5.0))) for _ in range(2000)]),
        "hyp1f1": (sf.hyp1f1, ss.hyp1f1, [(2.5, 1.5, float(rng.uniform(-40.0, 0.0)))
                                          for _ in range(1000)]),
    }
    out = {}
    for name, (ours, ref, args) in cases.items():
        t_ours = _per_call(ours, args)
        t_ref = _per_call(ref, args)
        got = np.array([ours(*a) for a in args])
        want = np.array([ref(*a) for a in args])
        # deviation relative to the largest value, as the functions oscillate
        dev = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        if not dev <= SCIPY_TOL:
            problems.append(f"specfun.{name} deviates from scipy.special by {dev:.2e}")
        out[f"specfun.{name}.us_per_call"] = (1e6 * t_ours, "us", f"{len(args)} seeded arguments")
        out[f"specfun.{name}.scipy_ratio"] = (t_ours / t_ref, "ratio", "ellipcf / scipy.special time")
        out[f"specfun.{name}.scipy_dev"] = (dev, "ratio", "max |ellipcf - scipy| / max |scipy|")
    ys = [(float(rng.uniform(-8.0, 8.0)),) for _ in range(2000)]
    out["specfun.norm_cdf_imag_scaled.us_per_call"] = (
        1e6 * _per_call(sf.norm_cdf_imag_scaled, ys), "us", f"{len(ys)} seeded arguments")
    return out


def _phi_hankel_probe(rng) -> dict:
    # n = 2, per family two points below u = 2 and two above, each after a
    # warm-up call that fills the Bessel-zero and moment caches; plus the
    # Pearson II edge case whose error estimate is too optimistic
    families = (
        (gn.normal_generator(), 12.0),
        (gn.generalized_t_generator(2, 3.0, 3), 12.0),
        (gn.generalized_t_generator(2, 1.0, 1), 12.0),
        (gn.pearson_vii_generator(2.3, 1.5), 12.0),
        (gn.pearson_ii_generator(1.5), 12.0),
        (gn.uniform_ball_generator(), 12.0),
        (gn.kotz_generator(2.0, 0.5, 0.75), 8.0),
        (gn.kotz_generator(2.0, 0.5, 1.0), 8.0),
        (gn.bessel_generator(0.5, 1.0), 12.0),
    )
    cases = [(gen, float(u)) for gen, hi in families
             for u in np.concatenate([rng.uniform(0.5, 2.0, 2), rng.uniform(2.0, hi, 2)])]
    cases.append((gn.pearson_ii_generator(-0.5), 3.0))
    n = 2
    times, ratios = [], []
    for gen, u in cases:
        qd.phi_hankel(gen, n, 0.5)
        start = time.perf_counter()
        res = qd.phi_hankel(gen, n, u)
        times.append(time.perf_counter() - start)
        try:
            closed = el.closed_form_generator(gen, n, u * u)
        except NoClosedFormError:
            continue
        # an estimate below double-precision resolution counts as that resolution
        ratios.append(abs(res.value - closed) / max(res.err_est, EPS * abs(closed)))
    tail_value, pct = harness.tail(times)
    return {
        "quadrature.phi_hankel.ms_p50": (1e3 * statistics.median(times), "ms",
                                         f"{len(times)} probe calls, n=2"),
        "quadrature.phi_hankel.ms_tail": (1e3 * tail_value, "ms", f"p{pct:.0f} of probe calls"),
        "quadrature.phi_hankel.err_ratio_max": (max(ratios), "ratio",
                                                "max |hankel - closed| / err_est"),
    }


def _skewmix_probe(rng) -> dict:
    ts = [rng.uniform(-2.0, 2.0, 2) for _ in range(20)]
    snorm = sk.SkewNormalSpec(np.zeros(2), np.eye(2), np.array([2.0, -1.0]))
    base = el.EllipticalSpec(2, np.zeros(2), np.eye(2), gn.normal_generator())
    lsm = sk.LSMixtureSpec(base, np.zeros(2), np.array([0.4, 0.1]), np.eye(2),
                           sk.MixingLaw.inverse_gamma(3.0, 2.0))
    mixing = sk.MixingLaw.inverse_gamma(3.0, 2.0)
    t3 = gn.generalized_t_generator(2, 3.0, 3)
    gens = [gn.normal_generator(), t3, gn.pearson_ii_generator(1.5), gn.uniform_ball_generator()]
    specs = [el.EllipticalSpec(2, np.zeros(2), np.eye(2), g) for g in gens]
    cf_args = [(specs[i % 4], 4.0 * ts[i % 20]) for i in range(400)]
    sk.cf_star_unimodal(t3, 2, np.array([0.5, 0.0]))  # warm the zero cache
    return {
        "elliptical.cf.us_per_call": (1e6 * _per_call(el.cf, cf_args), "us", "closed route"),
        "skewmix.cf_location_scale_mixture.ms_per_call": (
            1e3 * _per_call(lambda t: sk.cf_location_scale_mixture(lsm, t), [(t,) for t in ts], 1),
            "ms", "normal base, inverse-gamma mixing"),
        "skewmix.cf_smsn.ms_per_call": (
            1e3 * _per_call(lambda t: sk.cf_smsn(snorm, mixing, t), [(t,) for t in ts], 1),
            "ms", "inverse-gamma mixing"),
        "skewmix.cf_star_unimodal.ms_per_call": (
            1e3 * _per_call(lambda t: sk.cf_star_unimodal(t3, 2, 3.0 * t), [(t,) for t in ts[:8]], 1),
            "ms", "generalized t, n=2"),
        "skewmix.cf_skew_normal.us_per_call": (
            1e6 * _per_call(lambda t: sk.cf_skew_normal(snorm, t), [(t,) for t in ts] * 50),
            "us", "n=2"),
    }


def _sampling_probe(seed: int) -> dict:
    count = 200_000
    base = el.EllipticalSpec(2, np.zeros(2), np.eye(2), gn.generalized_t_generator(2, 3.0, 3))
    normal = el.EllipticalSpec(2, np.zeros(2), np.eye(2), gn.normal_generator())
    snorm = sk.SkewNormalSpec(np.zeros(2), np.eye(2), np.array([2.0, -1.0]))
    lsm = sk.LSMixtureSpec(normal, np.zeros(2), np.array([0.4, 0.1]), np.eye(2),
                           sk.MixingLaw.finite_discrete([0.5, 1.0, 2.5], [0.3, 0.5, 0.2]))
    mixing = sk.MixingLaw.inverse_gamma(3.0, 2.0)
    samplers = {
        "elliptical": lambda w: sp.sample_elliptical(base, count, sp.RngStream(seed), w),
        "skew_normal": lambda w: sp.sample_skew_normal(snorm, count, sp.RngStream(seed), w),
        "lsm": lambda w: sp.sample_location_scale_mixture(lsm, count, sp.RngStream(seed), w),
        "smsn": lambda w: sp.sample_smsn(snorm, mixing, count, sp.RngStream(seed), w),
    }
    out, w1_total, w2_total = {}, 0.0, 0.0
    for name, draw in samplers.items():
        w1 = _per_call(draw, [(1,)])
        w2 = _per_call(draw, [(2,)])
        w1_total += w1
        w2_total += w2
        out[f"sampling.{name}.rows_per_s"] = (count / w1, "1/s", f"{count} rows, --workers 1")
    out["sampling.speedup_w2"] = (w1_total / w2_total, "ratio", "sampler time at workers 1 / 2")
    batch = sp.sample_elliptical(base, 1_000_000, sp.RngStream(seed), 1)
    points = [(np.array([0.3 * k, -0.2 * k]),) for k in range(1, 9)]
    per_point = _per_call(lambda t: sp.empirical_cf(batch, t), points)
    out["sampling.empirical_cf.ms_per_point"] = (1e3 * per_point, "ms", "N = 1e6, n = 2")
    out["sampling.empirical_cf.gb_per_s"] = (8.0 * batch.count * batch.n / per_point / 1e9, "GB/s",
                                             "computed: 8 N n bytes per point")
    return out


def probe(seed: int, problems: list) -> dict:
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 77])
    out = {}
    out.update(_scipy_probe(rng, problems))
    out.update(_phi_hankel_probe(rng))
    out.update(_skewmix_probe(rng))
    out.update(_sampling_probe(seed))
    return out
