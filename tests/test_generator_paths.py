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
    # rows (an err_est by 2e-27) and the draws (by 3.6e-15) built on them
    "moment_integral": (_moments,
        "700c2d4bde5d68025a56a666ef2e185206210a9ff82ba783e973a18ab12d833f"),
    "radial_density": (_densities,
        "8dea9c441176273f3555525271bc9911f0f8032a180fb0bd45f4ef53a28e1de2"),
    # the J zeros from secant steps (not bisection) moved the hankel and star
    # rows by at most 1.7e-15; their err_est carries the rounding floor
    "phi_hankel_rows": (_hankel,
        "106af3a34269bee578738e08effd305aac8b29848a5e128a761f5ede7a1b0858"),
    "star_unimodal_rows": (_star,
        "1b940814006016398babfa286558cf531d1b80624c831e5dd7da7e7855e6c683"),
    # the CDF tables live in s of quadrature.half_line, with no cut of the
    # support; the draws' KS against the exact CDFs did not move
    "elliptical_draws": (_draws,
        "e8a049d71507391a14947a6aa7b61e480eb061d49e347323acb874c06796ea07"),
    "custom_density_draws": (_mixing_draws,
        "f4ea8cee94af1814b68936162db95736a128eb9d01530fbe985d1ea9fa70449a"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned(name):
    parts, sha256 = PINNED[name]
    assert _sha(parts()) == sha256


if __name__ == "__main__":  # print the current hashes
    for name, (parts, _) in PINNED.items():
        print(name, _sha(parts()))
