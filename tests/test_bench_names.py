"""The names the bench's traced run wraps exist where it looks for them.

bench/tracing.py rebinds each name of its SPANS table in its module, and
MixingLaw.expectation on the class, to count calls and work.  Its traced
pass runs only on request, so a renamed or deleted name would go unnoticed
until then; this test imports the bench's own table instead.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_spans_exist(tracing):
    missing = [
        f"{module.__name__}.{name}"
        for module, names in tracing.SPANS.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert missing == []
    assert callable(getattr(tracing.sk.MixingLaw, "expectation", None))


def test_tracer_installs_and_restores(tracing):
    originals = {(m, n): getattr(m, n) for m, names in tracing.SPANS.items() for n in names}
    expectation = tracing.sk.MixingLaw.expectation
    tracer = tracing.Tracer()
    try:
        tracer.install(full=True)
        assert all(getattr(m, n) is not fn for (m, n), fn in originals.items())
        assert tracing.sk.MixingLaw.expectation is not expectation
    finally:
        tracer.uninstall()
    assert all(getattr(m, n) is fn for (m, n), fn in originals.items())
    assert tracing.sk.MixingLaw.expectation is expectation
