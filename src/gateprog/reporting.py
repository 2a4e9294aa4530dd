"""Protocol reports over (n, d) points, inequality checks, CSV rendering, atomic writes.

Reports carry both achieved quantities (fidelities, exact program dimension)
and the guaranteed bounds they must satisfy; each bound gets a pass flag.  The
exact program dimension is an arbitrary-precision integer carried alongside
its log2 view and serialized as a decimal string.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import bounds as bounds_mod
from .protocol import capacity_parameter, viable_set
from .scoring import (
    FidelityResult,
    lemma3_bound,
    optimal_fidelity,
    qstar_error_closed_form,
    score_matrix,
)
from .young import irrep_dimension


@dataclass(frozen=True)
class ProtocolReport:
    """All achieved values and bound checks for one (n, d) protocol instance."""

    d: int
    n: int
    N: int
    n0: int
    set_size: int
    fidelity_qstar: float
    fidelity_optimal: float
    epsilon_qstar: float
    epsilon_optimal: float
    dP_exact: int
    dP_exact_log2: float
    cP_bits: float
    bound_eq5: float
    bound_eq6_log2: float
    bound_lemma3: float
    bound_lemma4_log2: float
    corollary_bits: float
    pass_flags: dict[str, bool]


def protocol_report(n: int, d: int, optimal: FidelityResult | None = None) -> ProtocolReport:
    """Run the full pipeline at one point and evaluate every guarantee.

    Bounds checked: the achieved error against 2 (pi (d-1)^2 (3d-2) / (d n))^2;
    the exact dimension against both (9n/(3d-2))^(d^2-1) and the sharper
    (2(d-1) c_max n + 3)^(d^2-1); the sine-weight fidelity against its closed
    floor; and the cost in bits against the achievable-cost curve evaluated at
    the achieved error.

    ``optimal`` is the eigensolve of any point in the same (d, N) box, which
    stands in for this point's own: the score matrix and the solver's sine start
    depend on (d, N) only, so the two are the same floats.
    """
    diagram_set = viable_set(n, d)
    epsilon_qstar = qstar_error_closed_form(d, diagram_set.N)
    fidelity_qstar = 1.0 - epsilon_qstar
    if optimal is None:
        optimal = optimal_fidelity(score_matrix(diagram_set))
    else:
        solved = optimal.weights_used.diagram_set
        if (solved.d, solved.N) != (d, diagram_set.N):
            raise ValueError(
                f"the solve of the (d, N) = ({solved.d}, {solved.N}) box does not serve "
                f"n={n}, d={d}, whose box is ({d}, {diagram_set.N})"
            )

    dims = irrep_dimension(diagram_set.rows)
    dim_exact = (dims * dims).sum()
    dim_log2 = math.log2(dim_exact)

    nu = d * d - 1
    bound_eq5 = 2.0 * (math.pi * (d - 1) ** 2 * (3 * d - 2) / (d * n)) ** 2
    bound_eq6_log2 = nu * math.log2(9.0 * n / (3 * d - 2))
    bound_l3 = lemma3_bound(d, n)
    c_max_n = (2.0 * n + (d - 2) * (d - 1)) / ((3 * d - 2) * (d - 1))
    bound_l4_log2 = nu * math.log2(2.0 * (d - 1) * c_max_n + 3.0)
    corollary = bounds_mod.upper_bound_cost(d, epsilon_qstar)

    flags = {
        "eq5": epsilon_qstar <= bound_eq5,
        "eq6": dim_log2 <= bound_eq6_log2,
        "lemma3": fidelity_qstar >= bound_l3,
        "lemma4": dim_log2 <= bound_l4_log2,
        "corollary": dim_log2 <= corollary,
    }

    return ProtocolReport(
        d=d,
        n=n,
        N=diagram_set.N,
        n0=diagram_set.n0,
        set_size=len(diagram_set),
        fidelity_qstar=fidelity_qstar,
        fidelity_optimal=optimal.fidelity,
        epsilon_qstar=epsilon_qstar,
        epsilon_optimal=optimal.error,
        dP_exact=dim_exact,
        dP_exact_log2=dim_log2,
        cP_bits=dim_log2,
        bound_eq5=bound_eq5,
        bound_eq6_log2=bound_eq6_log2,
        bound_lemma3=bound_l3,
        bound_lemma4_log2=bound_l4_log2,
        corollary_bits=corollary,
        pass_flags=flags,
    )


def protocol_reports(d: int, n_values) -> list[ProtocolReport]:
    """``protocol_report(n, d)`` for each n in order, with one eigensolve per (d, N)
    box: the first n of a box is solved, and its solve serves the rest."""
    solves: dict[int, FidelityResult] = {}
    reports = []
    for n in n_values:
        big_n = capacity_parameter(n, d)
        if big_n not in solves:
            solves[big_n] = optimal_fidelity(score_matrix(viable_set(n, d)))
        reports.append(protocol_report(n, d, solves[big_n]))
    return reports


@dataclass(frozen=True)
class SweepResult:
    """Reports over an n-grid plus the fitted log-log error slope."""

    reports: tuple[ProtocolReport, ...]
    slope: float
    residual: float


def sweep(d: int, n_values: list[int]) -> SweepResult:
    """Evaluate a grid of n values and fit the log-log slope of the error.

    Needs at least three points for a meaningful fit; reports are ordered by n.
    """
    if len(n_values) < 3:
        raise ValueError(f"need at least 3 points for a slope fit, got {len(n_values)}")
    reports = tuple(protocol_reports(d, sorted(n_values)))
    log_n = np.log([r.n for r in reports])
    log_eps = np.log([r.epsilon_qstar for r in reports])
    slope, intercept = np.polyfit(log_n, log_eps, 1)
    fitted = slope * log_n + intercept
    residual = float(np.sqrt(np.mean((log_eps - fitted) ** 2)))
    return SweepResult(reports=reports, slope=float(slope), residual=residual)


def format_float(x: float) -> str:
    """Fixed 12-significant-digit rendering used for all floating output."""
    return f"{x:.12g}"


def round_floats(value):
    """Every float in value, through nested dicts, lists and tuples, at 12 digits."""
    if isinstance(value, float):
        return float(format_float(value))
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


REPORT_FIELDS = tuple(f.name for f in fields(ProtocolReport) if f.name != "pass_flags")

PASS_FLAG_FIELDS = ("eq5", "eq6", "lemma3", "lemma4", "corollary")

CSV_COLUMNS = REPORT_FIELDS + tuple(f"pass_{k}" for k in PASS_FLAG_FIELDS)


def report_to_dict(report: ProtocolReport) -> dict:
    """The report's fields in order, the exact dimension as a decimal string; floats are
    left unrounded for the one rounding pass of the CLI."""
    return {**asdict(report), "dP_exact": str(report.dP_exact)}


def sweep_to_dict(result: SweepResult) -> dict:
    return {
        "reports": [report_to_dict(r) for r in result.reports],
        "slope": result.slope,
        "residual": result.residual,
    }


def csv_text(header: tuple[str, ...], rows: list) -> str:
    """Header and rows as CSV, floats through ``format_float``, values quoted where
    they hold a comma, a quote or a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_float(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def reports_to_csv(reports: list[dict]) -> str:
    """One row per ``report_to_dict`` mapping, its pass flags as the last columns."""
    return csv_text(CSV_COLUMNS, [
        [*(r[k] for k in REPORT_FIELDS), *(r["pass_flags"][k] for k in PASS_FLAG_FIELDS)]
        for r in reports
    ])


def write_text_atomic(text: str, path: str) -> None:
    """Write via a temporary file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
