"""The CSV formatter against Python's own '%.17g' template, byte for byte."""

import contextlib
import io
import sys
import tracemalloc

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


EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e300, 0.1, 1.0 / 3.0, 123456789.0, 2.5,
         9.9999999999999991e-05, 1e-4, -1e17, 99999999999999984.0, 1e16, np.nan, -np.inf,
         -2.2250738585072014e-308, 1.0, 1000.0, 0.00123]


@pytest.mark.parametrize("cols", [2, 3, 10])
def test_matches_percent_17g_across_block_boundaries(cols):
    # edge values on both sides of every formatter block boundary, between
    # normal draws: fixed and exponent notation, specials, the widest text
    step = _csvout._BLOCK_VALUES // cols  # rows per block
    block = np.random.default_rng(cols).standard_normal((3 * step + 7, cols))
    for i, end in enumerate(range(step, len(block), step)):  # each boundary its own order
        block[end - 6:end + 6] = np.resize(np.roll(EDGES, i), (12, cols))
    assert len(_csvout.rows(block)) == 4
    assert b"".join(_csvout.rows(block)) == reference(block)


def test_cells_are_fixed_width_and_end_in_separators():
    block = np.array([[1.5, -2.0], [np.nan, 1e-300]])
    cells = _csvout.cells(block)
    assert cells.shape == (2, 2, 40)
    assert bytes(cells[:, :, -1].ravel()) == b",\n,\n"
    # the longest text, 24 characters, still leaves the separator its byte
    wide = _csvout.cells(np.array([[-2.2250738585072014e-308, 1.0]]))
    assert wide.shape == (1, 2, 40)
    assert _csvout.join(wide) == b"-2.2250738585072014e-308,1\n"


def test_rows_scratch_beyond_its_text():
    # one sample chunk: what rows() holds beyond the text it returns is one
    # formatter block's work arrays, about 0.2 MB, held once per formatting
    # thread
    block = np.random.default_rng(7).standard_normal((32768, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parts = _csvout.rows(block)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    text = sys.getsizeof(parts) + sum(sys.getsizeof(part) for part in parts)
    assert peak - text < 0.35e6, (peak, text)


def test_empty_block():
    assert b"".join(_csvout.rows(np.empty((0, 3)))) == b""


def test_write_to_text_only_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _csvout.write("-", [b"x1\n", *_csvout.rows(np.array([[0.25], [-1e-300]]))])
    assert buf.getvalue() == "x1\n0.25\n-1e-300\n"
