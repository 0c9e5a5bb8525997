"""The generator paths no spec file reaches, pinned by sha256.

The CLI builds only the named families, and their closed forms and direct
radius draws; custom generators and custom mixing densities go through the
numeric paths instead: the moment integral, the radial density, the
tabulated radial CDF, the Hankel and star envelopes.  Each hash covers the
bits of every value (floats as float.hex), and of every error's type and
message, of one of those paths over a fixed set of generators.
"""

import hashlib
import math

import numpy as np
import pytest

from ellipcf import generators as gn
from ellipcf import sampling
from ellipcf.elliptical import EllipticalSpec, radial_density
from ellipcf.quadrature import moment_integral, phi_hankel_rows
from ellipcf.skewmix import MixingLaw, star_unimodal_rows


def _laplace_like():
    return gn.custom_generator(lambda z: math.exp(-math.sqrt(z)))


def _capped():
    # (1 - z)^1.5 is complex past the support edge: g must see only z <= 1
    return gn.custom_generator(lambda z: (1.0 - z) ** 1.5, support_radius=1.0)


def _shifted_exp():
    # star unimodal, with its derivative
    return gn.custom_generator(
        lambda z: math.exp(-math.sqrt(1.0 + z)),
        g_prime=lambda z: -math.exp(-math.sqrt(1.0 + z)) / (2.0 * math.sqrt(1.0 + z)),
    )


def _named(n):
    return [
        gn.normal_generator(), gn.uniform_ball_generator(), gn.generalized_t_generator(n, 3.0, 3),
        gn.pearson_ii_generator(1.0), gn.pearson_ii_generator(-0.5),
        gn.pearson_vii_generator(3.0, 2.0), gn.kotz_generator(2.0, 0.5, 1.0),
        gn.kotz_generator(0.75, 1.0, 0.5), gn.bessel_generator(0.5, 1.0),
    ]


def _custom():
    return [_laplace_like(), _capped(), _shifted_exp(),
            gn.custom_generator(lambda z: (1.0 + z) ** -3.0)]


def _text(x) -> str:
    if isinstance(x, BaseException):
        return f"{type(x).__name__}: {x}"
    if isinstance(x, np.ndarray):
        return ",".join(_text(v) for v in x.tolist())
    if isinstance(x, float):
        return x.hex()
    return repr(x)


def _sha(parts) -> str:
    return hashlib.sha256("\n".join(_text(p) for p in parts).encode()).hexdigest()


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # the error's type and message are pinned too
        return exc


def _moments():
    parts = []
    for n in (1, 2, 3, 5):
        for gen in _named(n) + _custom():
            res = _attempt(lambda: moment_integral(gen, n))
            parts += [res] if isinstance(res, Exception) else [
                res.value, res.err_est, res.panels_used, res.tail_bound]
    return parts


def _densities():
    parts = []
    for n in (1, 3):
        for gen in _named(n) + _custom():
            spec = EllipticalSpec(n, np.zeros(n), np.eye(n), gen)
            parts += [_attempt(lambda: radial_density(spec, v)) for v in (0.0, 0.3, 1.0, 1.7, 4.0)]
    return parts


def _rows(res):
    return [res.value, res.err_est, res.panels_used, res.tail_bound,
            *(f"{i} {_text(exc)}" for i, exc in res.failures.items())]


_US = [0.0, 5e-4, 0.3, 1.0, 2.5, 7.0]


def _hankel():
    return [p for n in (1, 2, 3) for gen in _custom() for p in _rows(phi_hankel_rows(gen, n, _US))]


def _star():
    gens = [gn.normal_generator(), gn.generalized_t_generator(2, 3.0, 3),
            gn.pearson_ii_generator(1.0), gn.pearson_vii_generator(3.0, 2.0),
            gn.kotz_generator(1.0, 0.5, 0.5), _shifted_exp()]
    return [p for gen in gens for p in _rows(star_unimodal_rows(gen, 2, _US))]


def _draws():
    out = []
    for n, gen in ((2, _laplace_like()), (3, _capped())):
        spec = EllipticalSpec(n, np.zeros(n), np.eye(n), gen)
        out.append(sampling.elliptical_sampler(spec).batch(5000, sampling.RngStream(11)).data)
    return out


def _mixing_draws():
    laws = [MixingLaw.custom_density(lambda v: math.exp(-v)),
            MixingLaw.custom_density(lambda v: 1.5 * math.sqrt(v), (0.0, 1.0))]
    return [law.draw(4000, np.random.default_rng(3)) for law in laws]


PINNED = {
    # the moment integral is one adaptive_rows row over quadrature.half_line,
    # whose edge exponent opens the Pearson II m = -0.5 edge: its moments
    # went from up to 4.6e-8 to up to 9.2e-14 off their closed forms, and no
    # named moment is off its closed form by more than 7e-11 relative.  The
    # custom generators' normalizing constants moved with them, and so the
    # radial densities (by 3.8e-11), the hankel rows (by 5.6e-11), the star
    # rows (an err_est by 2e-27) and the draws (by 3.6e-15) built on them.
    # The map's unit is measured on the integrand (quadrature._fit), and the
    # tolerance is relative only: no moment is off its closed form or
    # mpmath by more than 6.8e-11 relative (Kotz N = 0.75, s = 1/2, n = 1)
    "moment_integral": (_moments,
        "f678879df5eb27077df87a20462df61b7e7d9e75c47cee285ce3d65405801a05"),
    # the lead 2/M_n in place of c_n 2 pi^(n/2) / Gamma(n/2) moved 35 of 130
    # densities by at most 2.2e-16; against 2 v^(n-1) g(v^2) / M_n in
    # mpmath, from the same float g and M_n, the worst relative error went
    # from 3.6e-16 to 2.1e-16
    "radial_density": (_densities,
        "11de9e3e9b2c4541b050816b120b2177d5a07d43c3169bd3aee481ee02aac55f"),
    # the J zeros from secant steps (not bisection) moved the hankel and star
    # rows by at most 1.7e-15; their err_est carries the rounding floor.  The
    # mW transformation, and no dyadic seeds past the envelope's peak, moved
    # 38 of 72 hankel and 22 of 36 star rows: 24 and 12 left by
    # extrapolation before and after, 7 and 6 by the tail cutoff before and
    # by mW after, 7 and 4 by the cutoff both times (moved at the last bits
    # only).  Against closed forms or mpmath their worst error went from
    # 1.5e-11 to 1.2e-11 (hankel) and from 2.6e-11 to 6.2e-12 (star), at
    # most 0.038 of their err_est; with the moments above, every custom
    # row is within 0.027 of its err_est of its closed form or mpmath.
    # Panels ending at (k + nu/2 - 1/4) pi, not at the zeros, and seed cells
    # of r_peak/4 moved 28 of 72 hankel rows (15 values, by at most 2.3e-13)
    # and 23 of 36 star rows (20 values, by at most 2.6e-13); their worst
    # error against mpmath went from 1.22e-11 to 1.25e-11 (hankel) and from
    # 6.2e-12 to 5.9e-12 (star), and their largest error/err_est stayed 0.041
    # and 0.12.  The kernel Omega_nu(u r) in place of u^(-nu) J_nu(u r), with
    # no moment series at u = 5e-4, moved 43 of 72 hankel rows (38 values, by
    # at most 2.4e-13) and 30 of 36 star rows (24 values, by at most
    # 1.1e-12).  The u = 5e-4 rows that took the series now take 8 to 19
    # panels, and their err_est grew from 2e-16 to 2e-13 to 1e-15 to 1e-10;
    # against mpmath (quadrature of the radial integral; closed forms for
    # the named star rows) the worst error stayed 1.8e-11 (hankel) and
    # 5.9e-12 (star), and the largest error/err_est went from 0.18 to 0.18
    # and from 0.12 to 0.11.  The constants 2/M_n and -4/(n M_n), and the
    # kernel's cos x and sin(x)/x at n = 1 and 3, moved 40 of 72 hankel rows
    # (32 values, by at most 3.3e-16) and the err_est of 7 of 36 star rows
    # (by at most 1.1e-18), with no panel count moved; against closed forms
    # in mpmath the worst error stayed 1.25e-11 (hankel) and 5.9e-12 (star),
    # and the largest error/err_est stayed 0.035 and 0.112
    "phi_hankel_rows": (_hankel,
        "8ab177e0b30abbd03048890399d17bc0df89e6700d2ae7fb0ed438e5921c50f9"),
    "star_unimodal_rows": (_star,
        "48df5ce3bd7b04ec1063cfe07c2514d0dff334fb19cf2bb7e3591bb619fc5468"),
    # the CDF tables live in s of quadrature.half_line, with no cut of the
    # support, and their unit measured on the density (quadrature._fit); the
    # draws' KS against the exact CDFs did not move.  The radial density's
    # lead 2/M_n moved 409 of the 5000 draws at n = 3 by at most 4.4e-16
    # (none at n = 2), and their KS against the exact CDF stayed 0.01538
    "elliptical_draws": (_draws,
        "1731b1a1909f13a2bfa834289d5a7da3b2f6dded72f7adacc4cc1c19e87e284a"),
    "custom_density_draws": (_mixing_draws,
        "75b7fd48982f841eb8d46a478716d941f6fef64c41ebf1388deba23f15558031"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned(name):
    parts, sha256 = PINNED[name]
    assert _sha(parts()) == sha256


if __name__ == "__main__":  # print the current hashes
    for name, (parts, _) in PINNED.items():
        print(name, _sha(parts()))
