"""The CSV formatter against Python's own '%.17g' template, byte for byte."""

import contextlib
import io

import numpy as np
import pytest

from ellipcf import _csvout


def reference(block):
    rows, cols = block.shape
    row = ",".join(["%.17g"] * cols) + "\n"
    return (row * rows % tuple(block.ravel().tolist())).encode()


def neighbours(values):
    """The values with their two nearest doubles on each side."""
    v = np.asarray(values, dtype=float)
    down, up = np.nextafter(v, 0.0), np.nextafter(v, np.inf)
    return np.concatenate([v, down, up, np.nextafter(down, 0.0), np.nextafter(up, np.inf)])


TIES = 1.0 + np.arange(1, 1 << 17) * 2.0**-17  # 18 significant digits, the last a 5

CASES = {
    "bit_patterns": lambda rng: rng.integers(0, 1 << 64, 100000, dtype=np.uint64).view(float),
    "ties": lambda rng: TIES,
    "ties_scaled": lambda rng: TIES * 2.0**-10,
    "powers_of_ten": lambda rng: neighbours(10.0 ** np.arange(-5, 18)),
    "range_ends": lambda rng: neighbours([1e-4, 1e17]),
    "specials": lambda rng: np.array(
        [0.0, 5e-324, np.finfo(float).max, np.finfo(float).tiny, np.nan, np.inf]
    ),
    "normal": lambda rng: rng.standard_normal(50000),
    "cauchy": lambda rng: rng.standard_cauchy(50000),
    "log_uniform": lambda rng: 10.0 ** rng.uniform(-17.0, 17.0, 50000),
    "integers": lambda rng: rng.integers(-10**6, 10**6, 20000).astype(float),
}


@pytest.mark.parametrize("cols", [1, 2, 3])
@pytest.mark.parametrize("case", CASES)
def test_matches_percent_17g(case, cols):
    values = CASES[case](np.random.default_rng(20261018))
    values = np.concatenate([values, -values])  # both signs: -0.0, -inf, ...
    block = values[: len(values) // cols * cols].reshape(-1, cols)
    assert b"".join(_csvout.rows(block)) == reference(block)


def test_cells_are_fixed_width_and_end_in_separators():
    block = np.array([[1.5, -2.0], [np.nan, 1e-300]])
    cells = _csvout.cells(block)
    assert cells.shape == (2, 2, 24)
    assert bytes(cells[:, :, -1].ravel()) == b",\n,\n"
    # a 24-character text takes 32-byte cells, so its separator still fits
    wide = _csvout.cells(np.array([[-2.2250738585072014e-308, 1.0]]))
    assert wide.shape == (1, 2, 32)
    assert _csvout.join(wide) == b"-2.2250738585072014e-308,1\n"


def test_empty_block():
    assert b"".join(_csvout.rows(np.empty((0, 3)))) == b""


def test_write_to_text_only_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _csvout.write("-", [b"x1\n", *_csvout.rows(np.array([[0.25], [-1e-300]]))])
    assert buf.getvalue() == "x1\n0.25\n-1e-300\n"
