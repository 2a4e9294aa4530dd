"""The public API and the benchmark's tracer stay in step with the package."""

import importlib
import sys
from pathlib import Path

import gateprog

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_exported_name_resolves():
    missing = [name for name in gateprog.__all__ if not hasattr(gateprog, name)]
    assert missing == []


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    # every function the benchmark traces must still exist under its name; the
    # tracer is imported without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
        originals = [getattr(owner, name) for _, owner, name, _ in tracing.TARGETS]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wrapped = [getattr(owner, name) for _, owner, name, _ in tracing.TARGETS]
            assert all(w is not o for w, o in zip(wrapped, originals))
        finally:
            tracer.uninstall()
        restored = [getattr(owner, name) for _, owner, name, _ in tracing.TARGETS]
        assert all(r is o for r, o in zip(restored, originals))
    finally:
        sys.modules.pop("tracing", None)
