"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The report lines are written to the real stdout (bypassing pytest capture)
so `pytest -v` always shows them.  Every tolerance is pinned here; nothing
is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

from ellipcf import cli
from ellipcf import generators as gn
from ellipcf.elliptical import (
    EllipticalSpec,
    cf,
    closed_form_generator,
    uniform_sphere_cf,
)
from ellipcf.quadrature import adaptive_interval, phi_hankel
from ellipcf.sampling import (
    RngStream,
    empirical_cf,
    sample_elliptical,
    sample_skew_normal,
)
from ellipcf.skewmix import (
    LSMixtureSpec,
    MixingLaw,
    Parametrization,
    SkewNormalK,
    SkewNormalSpec,
    cf_location_scale_mixture,
    cf_skew_normal,
    cf_smsn,
    cf_star_unimodal,
    cf_gse,
    gse_affine,
    skew_normal_gse,
    smsn_split,
    smu_weight_density,
)
from ellipcf.specfun import bessel_j, gamma_fn, hyp0f1

N_GRID = (1, 2, 3, 5)
Q_GRID = (0.01, 0.1, 1.0, 4.0, 25.0)


@pytest.fixture
def report(capsys):
    """Reporter printing one [PASS]/[FAIL] line per criterion, capture-proof."""

    def _report(criterion: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def closed_form_families(n):
    return [
        ("normal", gn.normal_generator()),
        ("uniform_ball", gn.uniform_ball_generator()),
        ("generalized_t(s=2,m=3)", gn.generalized_t_generator(n, 2.0, 3)),
        ("cauchy", gn.generalized_t_generator(n, 1.0, 1)),
        ("pearson_ii(m=1)", gn.pearson_ii_generator(1.0)),
        (f"pearson_vii(N={0.5 * n + 1.25},s=1.5)", gn.pearson_vii_generator(0.5 * n + 1.25, 1.5)),
        ("kotz(N=2,r=0.5,s=1)", gn.kotz_generator(2.0, 0.5, 1.0)),
        ("kotz(N=1,r=1.5,s=0.5)", gn.kotz_generator(1.0, 1.5, 0.5)),
        ("bessel(a=0.75,beta=0.8)", gn.bessel_generator(0.75, 0.8)),
    ]


def test_criterion_1_schoenberg_identity(report):
    xs = np.linspace(0.1, 50.0, 500)
    worst_sinc = max(
        abs(uniform_sphere_cf(3, x * x) - math.sin(x) / x) for x in xs
    )
    worst_0f1 = 0.0
    for n in range(1, 11):
        for x in xs:
            s = x * x
            dev = abs(uniform_sphere_cf(n, s) - hyp0f1(0.5 * n, -0.25 * s))
            worst_0f1 = max(worst_0f1, dev)
    ok = worst_sinc <= 1e-10 and worst_0f1 <= 1e-10
    report(
        "criterion 1 (Schoenberg identity)",
        ok,
        f"max |Omega_3 - sinc| = {worst_sinc:.2e}, max |Omega_n - 0F1| = {worst_0f1:.2e} "
        f"(tol 1e-10)",
    )


def test_criterion_2_closed_vs_hankel(report):
    start = time.time()
    worst = 0.0
    worst_case = ""
    for n in N_GRID:
        for name, gen in closed_form_families(n):
            for q in Q_GRID:
                target = closed_form_generator(gen, n, q)
                got = phi_hankel(gen, n, math.sqrt(q)).value
                dev = abs(got - target)
                if dev > worst:
                    worst, worst_case = dev, f"{name} n={n} Q={q}"
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    report(
        "criterion 2 (closed vs Hankel)",
        ok,
        f"max |phi_closed - phi_hankel| = {worst:.2e} at {worst_case} "
        f"(tol 1e-6), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_closed_vs_monte_carlo(report):
    start = time.time()
    count = 10**6
    band = 4.0 / math.sqrt(count)
    rng = RngStream(seed=310562, stream_id=0)
    families = [
        ("normal", gn.normal_generator()),
        ("cauchy", gn.generalized_t_generator(2, 1.0, 1)),
        ("generalized_t(m=3)", gn.generalized_t_generator(2, 3.0, 3)),
        ("pearson_ii(m=1)", gn.pearson_ii_generator(1.0)),
        ("uniform_ball", gn.uniform_ball_generator()),
        ("kotz(s=1,N=2)", gn.kotz_generator(2.0, 0.5, 1.0)),
    ]
    tgrid = [[0.25, 0.0], [0.5, 0.5], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]
    worst = 0.0
    worst_case = ""
    for name, gen in families:
        spec = EllipticalSpec(2, np.zeros(2), np.eye(2), gen)
        batch = sample_elliptical(spec, count, rng, workers=4)
        for t in tgrid:
            e = empirical_cf(batch, t)
            a = cf(spec, t)
            dev = max(abs(e.re - a.re), abs(e.im - a.im))
            if dev > worst:
                worst, worst_case = dev, f"{name} t={t}"
    elapsed = time.time() - start
    ok = worst <= band and elapsed < 300.0
    report(
        "criterion 3 (closed vs Monte Carlo)",
        ok,
        f"max CF deviation = {worst:.2e} at {worst_case} (band {band:.2e}), "
        f"runtime {elapsed:.1f}s (< 300s)",
    )


def test_criterion_4_special_case_reductions(report):
    devs = {}
    # generalized t (m=1, s=1) = Cauchy
    devs["gen_t->cauchy"] = max(
        abs(closed_form_generator(gn.generalized_t_generator(n, 1.0, 1), n, q)
            - math.exp(-math.sqrt(q)))
        for n in N_GRID
        for q in Q_GRID
    )
    # Pearson VII at N = (n+m)/2 = generalized t
    devs["pearson_vii->gen_t"] = max(
        abs(
            closed_form_generator(gn.pearson_vii_generator(0.5 * (n + m), s), n, q)
            - closed_form_generator(gn.generalized_t_generator(n, s, m), n, q)
        )
        for (n, m, s) in [(1, 3, 2.0), (2, 3, 2.0), (3, 1, 1.0), (5, 2, 0.7)]
        for q in Q_GRID
    )
    # Kotz (N=1, s=1, r=1/2) = normal
    devs["kotz->normal"] = max(
        abs(closed_form_generator(gn.kotz_generator(1.0, 0.5, 1.0), n, q) - math.exp(-0.5 * q))
        for n in N_GRID
        for q in Q_GRID
    )
    # two-dimensional Kotz s=1/2, N=1: general closed form vs the simple form
    r = 1.5
    devs["kotz_half_n2"] = max(
        abs(
            closed_form_generator(gn.kotz_generator(1.0, r, 0.5), 2, q)
            - r**3 / (r * r + q) ** 1.5
        )
        for q in Q_GRID
    )
    worst = max(devs.values())
    ok = worst <= 1e-10
    report(
        "criterion 4 (special-case reductions)",
        ok,
        "; ".join(f"{k}={v:.2e}" for k, v in devs.items()) + " (tol 1e-10)",
    )


def test_criterion_5_pearson_ii_dual_forms(report):
    worst = 0.0
    for n in N_GRID:
        for m in (0.0, 1.0, 2.0):
            b = 0.5 * n + m
            for q in Q_GRID:
                u = math.sqrt(q)
                jform = 2.0**b * gamma_fn(b + 1.0) * u ** (-b) * bessel_j(b, u)
                f1form = closed_form_generator(gn.pearson_ii_generator(m), n, q)
                worst = max(worst, abs(jform - f1form))
    ok = worst <= 1e-10
    report(
        "criterion 5 (Pearson II dual forms)",
        ok,
        f"max |J-form - 0F1-form| = {worst:.2e} (tol 1e-10)",
    )


def test_criterion_6_skew_machinery(report):
    # k antisymmetry on 1000 random t
    rng = np.random.default_rng(654321)
    sn2 = SkewNormalSpec([0.0, 0.0], [[2.0, 0.3], [0.3, 1.0]], [1.0, -2.0])
    k = SkewNormalK(sn2.skew_direction())
    worst_k = max(
        abs(k(t) + k(-t) - 1.0) for t in rng.normal(size=(1000, 2)) * 3.0
    )

    # CF vs rejection sampler at N = 1e6, n in {1, 2}, both parametrizations
    count = 10**6
    band = 4.0 / math.sqrt(count)
    worst_mc = 0.0
    cases = [
        (SkewNormalSpec([0.0], [[1.0]], [2.0], Parametrization.HALF_ROOT), [[0.3], [0.8], [1.5]]),
        (
            SkewNormalSpec([0.0, 0.0], [[2.0, 0.3], [0.3, 1.0]], [1.0, -2.0],
                           Parametrization.FULL_SIGMA),
            [[0.5, 0.0], [0.3, 0.6], [1.0, -0.5]],
        ),
    ]
    for spec, tgrid in cases:
        batch = sample_skew_normal(spec, count, RngStream(seed=777, stream_id=3), workers=4)
        for t in tgrid:
            e = empirical_cf(batch, t)
            a = cf_skew_normal(spec, t)
            worst_mc = max(worst_mc, abs(e.re - a.re), abs(e.im - a.im))

    # alpha = 0 reduction
    sn0 = SkewNormalSpec([0.0, 0.0], np.eye(2), [0.0, 0.0])
    worst_zero = max(
        abs(cf_skew_normal(sn0, t).value - math.exp(-0.5 * float(np.dot(t, t))))
        for t in ([1.0, 0.0], [0.5, -0.5], [2.0, 1.0])
    )

    # affine closure on 100 random (a, B, t)
    sn3 = SkewNormalSpec([0.3, -1.0, 0.5], np.diag([1.0, 2.0, 0.5]), [1.0, 0.0, -1.0])
    gse = skew_normal_gse(sn3)
    worst_aff = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 3))
        b = rng.normal(size=(m, 3))
        a_vec = rng.normal(size=m)
        t = rng.normal(size=m)
        lhs = cf_gse(gse_affine(gse, a_vec, b), t).value
        phase = complex(math.cos(float(a_vec @ t)), math.sin(float(a_vec @ t)))
        rhs = phase * cf_gse(gse, b.T @ t).value
        worst_aff = max(worst_aff, abs(lhs - rhs))

    ok = worst_k <= 1e-12 and worst_mc <= band and worst_zero <= 1e-14 and worst_aff <= 1e-12
    report(
        "criterion 6 (skew machinery)",
        ok,
        f"k-antisymmetry {worst_k:.2e} (tol 1e-12); sampler dev {worst_mc:.2e} "
        f"(band {band:.2e}); alpha=0 reduction {worst_zero:.2e} (tol 1e-14); "
        f"affine closure {worst_aff:.2e} (tol 1e-12)",
    )


def test_criterion_7_mixture_machinery(report):
    base = EllipticalSpec(2, np.zeros(2), np.eye(2), gn.normal_generator())
    mix = MixingLaw.finite_discrete([1.0, 4.0], [0.5, 0.5])
    spec = LSMixtureSpec(base, np.zeros(2), np.zeros(2), np.eye(2), mix)
    hand = 0.5 * (math.exp(-0.5) + math.exp(-2.0))
    dev_hand = abs(cf_location_scale_mixture(spec, [1.0, 0.0]).value - hand)

    count = 10**6
    band = 4.0 / math.sqrt(count)
    from ellipcf.sampling import sample_location_scale_mixture

    batch = sample_location_scale_mixture(spec, count, RngStream(seed=515, stream_id=1), workers=4)
    dev_mc = 0.0
    for t in ([1.0, 0.0], [0.5, 0.5], [0.0, 1.5]):
        e = empirical_cf(batch, t)
        a = cf_location_scale_mixture(spec, t)
        dev_mc = max(dev_mc, abs(e.re - a.re), abs(e.im - a.im))

    # the (psi, k_n) split assembly vs the direct expectation, discrete mixing
    sn = SkewNormalSpec([0.1, -0.4], [[1.5, 0.2], [0.2, 0.7]], [2.0, 1.0])
    mix2 = MixingLaw.finite_discrete([0.4, 1.0, 3.0], [0.2, 0.5, 0.3])
    psi, k_n = smsn_split(sn, mix2)
    rng = np.random.default_rng(99)
    dev_split = 0.0
    for _ in range(50):
        t = rng.normal(size=2)
        q = max(float(t @ sn.sigma @ t), 0.0)
        phase = float(t @ sn.mu)
        assembled = 2.0 * complex(math.cos(phase), math.sin(phase)) * psi(q) * k_n(t)
        dev_split = max(dev_split, abs(assembled - cf_smsn(sn, mix2, t).value))

    ok = dev_hand <= 1e-12 and dev_mc <= band and dev_split <= 1e-9
    report(
        "criterion 7 (mixture machinery)",
        ok,
        f"hand-summed two-point dev {dev_hand:.2e} (tol 1e-12); MC dev {dev_mc:.2e} "
        f"(band {band:.2e}); split-assembly dev {dev_split:.2e} (tol 1e-9)",
    )


def test_criterion_8_smu_route(report):
    worst_cf = 0.0
    for u in np.linspace(0.05, 5.0, 25):
        got = cf_star_unimodal(gn.normal_generator(), 2, [u, 0.0]).re
        worst_cf = max(worst_cf, abs(got - math.exp(-0.5 * u * u)))

    worst_norm = 0.0
    for n in (2, 3):
        for s in (0.75, 1.5):
            gen = gn.kotz_generator(1.0, 0.5, s)  # power-exponential profile
            val, _, _ = adaptive_interval(
                lambda x: smu_weight_density(gen, n, x / (1.0 - x)) / (1.0 - x) ** 2,
                0.0,
                1.0 - 1e-12,
                1e-10,
                1e-10,
                3000,
                seeds=tuple(np.linspace(0.05, 0.95, 19)),
            )
            worst_norm = max(worst_norm, abs(val - 1.0))

    ok = worst_cf <= 1e-6 and worst_norm <= 1e-8
    report(
        "criterion 8 (SMU route)",
        ok,
        f"max |cf_smu - exp(-t^2/2)| = {worst_cf:.2e} (tol 1e-6); "
        f"max |integral f_W - 1| = {worst_norm:.2e} (tol 1e-8)",
    )


def test_criterion_9_universal_cf_laws(report):
    rng = np.random.default_rng(246)
    worst_mod, worst_herm = 0.0, 0.0
    origin_exact = True

    base = EllipticalSpec(2, [0.4, -0.7], np.array([[1.5, 0.4], [0.4, 0.8]]),
                          gn.generalized_t_generator(2, 2.0, 3))
    lsm = LSMixtureSpec(
        EllipticalSpec(2, np.zeros(2), np.eye(2), gn.normal_generator()),
        [0.2, 0.1], [0.5, -0.3], np.eye(2),
        MixingLaw.finite_discrete([0.5, 2.0], [0.5, 0.5]),
    )
    sn = SkewNormalSpec([0.3, -0.2], [[1.0, 0.2], [0.2, 2.0]], [1.5, -1.0])
    gse = skew_normal_gse(sn)
    mix = MixingLaw.finite_discrete([0.4, 1.6], [0.5, 0.5])

    evaluators = {
        "elliptical/closed": lambda t: cf(base, t, route="closed"),
        "elliptical/hankel": lambda t: cf(base, t, route="hankel"),
        "lsm": lambda t: cf_location_scale_mixture(lsm, t),
        "skew_normal": lambda t: cf_skew_normal(sn, t),
        "gse": lambda t: cf_gse(gse, t),
        "smsn": lambda t: cf_smsn(sn, mix, t),
        "smu": lambda t: cf_star_unimodal(gn.normal_generator(), 2, t),
    }
    batch = sample_elliptical(
        EllipticalSpec(2, np.zeros(2), np.eye(2), gn.normal_generator()),
        10**5, RngStream(seed=8), workers=2,
    )
    evaluators["mc"] = lambda t: empirical_cf(batch, t)

    for name, ev in evaluators.items():
        v0 = ev(np.zeros(2))
        if not (v0.re == 1.0 and v0.im == 0.0):
            origin_exact = False
        for _ in range(40):
            t = rng.normal(size=2) * 2.0
            a, b = ev(t), ev(-t)
            worst_mod = max(worst_mod, abs(a.value) - 1.0)
            worst_herm = max(worst_herm, abs(a.value - b.value.conjugate()))

    ok = origin_exact and worst_herm <= 1e-12 and worst_mod <= 1e-12
    report(
        "criterion 9 (universal CF laws)",
        ok,
        f"origin exact: {origin_exact}; hermitian dev {worst_herm:.2e} (tol 1e-12); "
        f"modulus excess {worst_mod:.2e} (tol 1e-12)",
    )


def test_criterion_10_determinism(tmp_path, report):
    import json

    spec_obj = {
        "schema": 1, "kind": "elliptical", "n": 2,
        "mu": [0.0, 0.0], "sigma": [1.0, 0.0, 0.0, 1.0],
        "generator": {"family": "normal"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_obj))

    outs = {}
    for cmd, args in {
        "sample": ["sample", "--spec", str(spec_path), "--count", "100000", "--seed", "12"],
        "compare": [
            "compare", "--spec", str(spec_path), "--routes", "closed,hankel,mc",
            "--mc-count", "100000", "--seed", "12",
            "--grid", '{"kind":"axis","index":0,"start":0.2,"stop":3.0,"num":7}',
        ],
    }.items():
        blobs = []
        for w in (1, 8):
            out = tmp_path / f"{cmd}_w{w}.csv"
            rc = cli.main(args + ["--workers", str(w), "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        outs[cmd] = blobs[0] == blobs[1]

    ok = all(outs.values())
    report(
        "criterion 10 (determinism)",
        ok,
        f"byte-identical across 1 vs 8 workers: sample={outs['sample']}, "
        f"compare={outs['compare']}",
    )
