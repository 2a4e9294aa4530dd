"""Spans around gateprog's public layer functions, installed from the benchmark.

``Tracer.install`` replaces every layer function listed in TARGETS with a
timing wrapper.  A function imported with ``from .x import f`` is bound in
several modules (``optimal_fidelity`` lives in scoring, reporting, verify and
the package itself), so the wrapper replaces every module attribute that is
the original function object.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the time of the spans it called.  A
layer's busy time counts only spans entered from outside that layer, so
nested calls within one layer are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from gateprog import bounds, cli, oracle, phase, protocol, reporting, scoring, verify, young

VERIFY_CHECKS = (
    "dimension_identity", "oracle_equivalence", "closed_form_consistency",
    "error_and_dimension_bounds", "heisenberg_scaling", "cost_scaling",
    "eigenvalue_oracle", "phase_gate", "choi_decomposition",
)


def _bind(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _matvec_bytes(tracer, fn, args, kwargs, result, outer):
    tracer.count("scoring.matvec_bytes_computed", args[1].nbytes + result.nbytes)


def _members(tracer, fn, args, kwargs, result, outer):
    tracer.count("protocol.members_built", len(result))


def _climbs(tracer, fn, args, kwargs, result, outer):
    tracer.count("phase.climbs", len(result.start_values))


def _grid_nodes(tracer, fn, args, kwargs, result, outer):
    if outer:
        tracer.count("oracle.quadrature_nodes", len(result.weights))


def _haar_table(tracer, fn, args, kwargs, result, outer):
    a = _bind(fn, args, kwargs)
    rows = len(a["diagram_set"]) + 1  # the members plus the defining representation
    tracer.count("oracle.character_table_bytes_computed", 16 * rows * len(a["grid"].weights))


def _ortho_table(tracer, fn, args, kwargs, result, outer):
    a = _bind(fn, args, kwargs)
    tracer.count("oracle.character_table_bytes_computed",
                 16 * len(a["diagrams"]) * len(a["grid"].weights))


def _choi_samples(tracer, fn, args, kwargs, result, outer):
    tracer.count("oracle.choi_samples", _bind(fn, args, kwargs)["samples"])


def _text_bytes(tracer, fn, args, kwargs, result, outer):
    tracer.count("reporting.bytes_written", len(_bind(fn, args, kwargs)["text"].encode()))


# (layer, owning module, function name, hook called after a successful return)
TARGETS = (
    ("cli", cli, "run", None),
    ("verify", verify, "run_all", None),
    *(("verify", verify, f"check_{name}", None) for name in VERIFY_CHECKS),
    ("reporting", reporting, "protocol_report", None),
    ("reporting", reporting, "report_to_dict", None),
    ("reporting", reporting, "sweep_to_dict", None),
    ("reporting", reporting, "reports_to_csv", None),
    ("reporting", reporting, "write_text_atomic", _text_bytes),
    ("scoring", scoring, "optimal_fidelity", None),
    ("scoring", scoring, "score_matrix", None),
    ("scoring", scoring, "entanglement_fidelity", None),
    ("scoring", scoring, "lemma3_bound", None),
    ("protocol", protocol, "viable_set", _members),
    ("protocol", protocol, "sine_weights", None),
    ("young", young, "irrep_dimension", None),
    ("young", young, "enumerate_diagrams", None),
    ("young", young, "sum_squared_dimensions", None),
    ("young", young, "young_distance", None),
    ("young", young, "dm_lower_bound", None),
    ("phase", phase, "diamond_distance_search", _climbs),
    ("oracle", oracle, "su2_grid", _grid_nodes),
    ("oracle", oracle, "su_torus_grid", _grid_nodes),
    ("oracle", oracle, "haar_fidelity", _haar_table),
    ("oracle", oracle, "character_orthonormality_check", _ortho_table),
    ("oracle", oracle, "choi_monte_carlo_su2", _choi_samples),
    *(("bounds", bounds, name, None) for name in (
        "lower_bound_cost", "lower_bound_dimension", "feasible_delta_interval",
        "optimize_delta", "upper_bound_cost", "table1_rows", "conjecture_cost",
        "bound_report",
    )),
)

# Spans that must record at least one call in a traced run of each workload.
EXPECTED_SPANS = {
    "protocol-grid": (
        "cli.run", "reporting.protocol_report", "reporting.report_to_dict",
        "reporting.write_text_atomic", "scoring.optimal_fidelity", "scoring.matvec",
        "scoring.score_matrix", "protocol.viable_set", "protocol.sine_weights",
        "young.irrep_dimension", "bounds.upper_bound_cost",
    ),
    "verify": (
        "cli.run", "verify.run_all", *(f"verify.check_{n}" for n in VERIFY_CHECKS),
        "reporting.protocol_report", "scoring.optimal_fidelity", "scoring.matvec",
        "scoring.score_matrix", "protocol.viable_set", "protocol.sine_weights",
        "young.irrep_dimension", "phase.diamond_distance_search", "oracle.su2_grid",
        "oracle.haar_fidelity", "oracle.choi_monte_carlo_su2", "bounds.optimize_delta",
    ),
    "crosscheck": (
        "oracle.su_torus_grid", "oracle.haar_fidelity", "oracle.choi_monte_carlo_su2",
        "scoring.optimal_fidelity", "scoring.matvec", "scoring.score_matrix",
        "protocol.viable_set", "protocol.sine_weights",
    ),
}


class Tracer:
    """In-memory span aggregates and counters for one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.outer_total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.failures: dict[str, int] = defaultdict(int)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.layer_entries: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [layer, time spent in child spans]
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def _wrap(self, layer: str, span: str, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[span] += 1
                self.total[span] += elapsed
                self.self_time[span] += elapsed - frame[1]
                if outer:
                    self.outer_total[span] += elapsed
                    self.layer_busy[layer] += elapsed
                    self.layer_entries[layer] += 1
                if not ok:
                    self.failures[span] += 1
            if hook is not None:
                hook(self, fn, args, kwargs, result, outer)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "gateprog" or name.startswith("gateprog.")]
        for layer, owner, name, hook in TARGETS:
            original = getattr(owner, name)
            traced = self._wrap(layer, f"{layer}.{name}", original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, traced)
        original = scoring.ScoreMatrix.matvec
        self._undo.append((scoring.ScoreMatrix, "matvec", original))
        scoring.ScoreMatrix.matvec = self._wrap("scoring", "scoring.matvec", original,
                                                _matvec_bytes)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def missing_spans(self, workload: str) -> list[str]:
        return [span for span in EXPECTED_SPANS[workload] if not self.calls.get(span)]

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, named as in BENCHMARK.json."""
        t, c = self.total, self.calls
        grid = ("oracle.su2_grid", "oracle.su_torus_grid")
        serialize = ("reporting.report_to_dict", "reporting.sweep_to_dict",
                     "reporting.reports_to_csv", "reporting.write_text_atomic")
        checks = {f"verify.{n}_s": t[f"verify.check_{n}"] for n in VERIFY_CHECKS}
        return {
            "scoring.eigensolve_s": t["scoring.optimal_fidelity"],
            "scoring.eigensolve_calls": c["scoring.optimal_fidelity"],
            "scoring.matvec_calls": c["scoring.matvec"],
            "scoring.matvec_s": t["scoring.matvec"],
            "scoring.matvec_bytes_computed": self.counters["scoring.matvec_bytes_computed"],
            "scoring.convergence_failures": self.failures["scoring.optimal_fidelity"],
            "scoring.score_matrix_s": t["scoring.score_matrix"],
            "protocol.viable_set_s": t["protocol.viable_set"],
            "protocol.sine_weights_s": t["protocol.sine_weights"],
            "protocol.members_built": self.counters["protocol.members_built"],
            "young.busy_s": self.layer_busy["young"],
            "young.irrep_dimension_calls": c["young.irrep_dimension"],
            "phase.diamond_search_s": t["phase.diamond_distance_search"],
            "phase.diamond_search_calls": c["phase.diamond_distance_search"],
            "phase.climbs": self.counters["phase.climbs"],
            "oracle.grid_s": sum(self.outer_total[s] for s in grid),
            "oracle.quadrature_nodes": self.counters["oracle.quadrature_nodes"],
            "oracle.haar_fidelity_s": t["oracle.haar_fidelity"],
            "oracle.character_table_bytes_computed":
                self.counters["oracle.character_table_bytes_computed"],
            "oracle.choi_s": t["oracle.choi_monte_carlo_su2"],
            "oracle.choi_samples": self.counters["oracle.choi_samples"],
            **checks,
            "verify.shared_reports_s": t["verify.run_all"] - sum(checks.values()),
            "reporting.protocol_report_self_s": self.self_time["reporting.protocol_report"],
            "reporting.serialize_s": sum(t[s] for s in serialize),
            "reporting.bytes_written": self.counters["reporting.bytes_written"],
            "bounds.busy_s": self.layer_busy["bounds"],
            "bounds.calls": self.layer_entries["bounds"],
            "cli.self_s": self.self_time["cli.run"],
            "trace.overhead_s": overhead_s,
        }

