"""The public API and the benchmark's tracer stay in step with the package."""

import importlib
import re
import sys
import types
from pathlib import Path

import pytest

import gateprog
from gateprog import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture
def tracing(monkeypatch):
    """The benchmark's tracing module, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.modules.pop("tracing", None)


@pytest.fixture
def tracer(tracing):
    """The benchmark's tracer, installed for one test."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_every_exported_name_resolves():
    # __all__ names every public attribute but the submodules, and nothing else
    public = {name for name, value in vars(gateprog).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public.symmetric_difference(gateprog.__all__)) == []


def test_module_table_names_only_what_exists():
    # a backticked name in a module's row of README's table, with or without an argument
    # list, is an attribute of that module or a name the package exports
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `gateprog\.(\w+)` \|(.*)$", readme, re.M)
    assert len(rows) == 9
    unknown = [
        (module, span) for module, row in rows for span in re.findall(r"`([^`]*)`", row)
        if (name := re.fullmatch(r"([A-Za-z_]\w*)(?:\(.*\))?", span))
        and not hasattr(importlib.import_module(f"gateprog.{module}"), name[1])
        and name[1] not in gateprog.__all__
    ]
    assert unknown == []


def test_benchmark_tracer_installs_and_uninstalls(tracing):
    # every function the benchmark traces must still exist under its name
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


# The tracer replaces every gateprog module attribute that is a traced function, and
# ScoreMatrix.matvec on the class; a call bound before then, to a default argument or
# a closure, would leave its span empty.

def test_protocol_runs_reach_the_traced_spans(tracer, tmp_path):
    # the protocol-grid workload's d >= 3 points; each report builds one corner set and
    # takes its dimensions in one call
    for d, n in ((3, 600), (4, 300)):
        out = str(tmp_path / f"protocol-d{d}-n{n}.json")
        assert cli.run(["protocol", "--d", str(d), "--n", str(n), "--format", "json",
                        "--output", out]) == 0
    assert tracer.missing_spans("protocol-grid") == []
    assert tracer.calls["protocol.viable_set"] == tracer.calls["young.irrep_dimension"] == 2
    assert tracer.calls["scoring.optimal_fidelity"] == 2
    assert tracer.calls["scoring.entanglement_fidelity"] == 2


def test_verify_run_reaches_the_traced_spans(tracer):
    # 70 box solves: d=2 N = 2..64 and d=3 N = 2..8
    assert cli.run(["verify", "--format", "json", "--samples", "100000"]) == 0
    assert tracer.missing_spans("verify") == []
    assert tracer.calls["scoring.optimal_fidelity"] == 70
