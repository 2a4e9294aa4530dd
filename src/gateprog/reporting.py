"""Protocol reports over (n, d) points, inequality checks, CSV rendering, atomic writes.

Reports carry both achieved quantities (fidelities, exact program dimension)
and the guaranteed bounds they must satisfy; each bound gets a pass flag.  The
exact program dimension is an arbitrary-precision integer carried alongside
its log2 view and serialized as a decimal string.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import tempfile
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import bounds as bounds_mod
from .protocol import viable_set
from .scoring import (
    FidelityResult,
    ScoreMatrix,
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


def _newton_weights(big_n: int, m: int) -> list[int]:
    """Integer w_k with sum_{t<N} p(t) = sum_{k<m} w_k p(k) for every p of degree below m,
    by Newton's series in C(t, j) and sum_{t<N} C(t, j) = C(N, j+1); all ones at m = N."""
    return [sum((-1) ** (j - k) * math.comb(j, k) * math.comb(big_n, j + 1) for j in range(k, m))
            for k in range(m)]


def protocol_report(
    n: int, d: int, solve: Callable[[ScoreMatrix], FidelityResult] | None = None
) -> ProtocolReport:
    """Run the full pipeline at one point and evaluate every guarantee.

    Bounds checked: the achieved error against 2 (pi (d-1)^2 (3d-2) / (d n))^2;
    the exact dimension against both (9n/(3d-2))^(d^2-1) and the sharper
    (2(d-1) c_max n + 3)^(d^2-1); the sine-weight fidelity against its closed
    floor; and the cost in bits against the achievable-cost curve evaluated at
    the achieved error.

    At d >= 3 the optimal error is the eigensolve of the point's (d, N) box: the report
    hands the box's score matrix to ``solve``, a function like ``optimal_fidelity`` (a
    memo of it, say), or to ``optimal_fidelity`` itself when none is given.
    d=2 runs no eigensolve and never calls ``solve``: its score matrix is the path
    graph's 2 I + A, whose top eigenvalue is 2 + 2 cos(pi/(N+1)), so the optimal
    error is sin^2(pi/(2(N+1))), taken in that form; ``verify``'s
    ``eigenvalue_oracle`` checks the solver against that eigenvalue.

    The exact dimension, the sum of dim^2 over the box, reads the lattice's corner of
    m = min(N, 4d-5) points per axis: rows i < d of member t are base_i + t_i, so dim^2
    has degree 4d-6 in each t_i; the weights of ``_newton_weights`` sum it over t_i < N
    from its values at t_i < m, contracting the squares axis by axis in Python integers.
    """
    diagram_set = viable_set(n, d, width=4 * d - 5)
    big_n, n0 = diagram_set.N, diagram_set.n0
    weights = np.array(_newton_weights(big_n, min(big_n, 4 * d - 5)), dtype=object)
    dim_exact = irrep_dimension(diagram_set.rows).reshape((len(weights),) * (d - 1))
    dim_exact *= dim_exact
    for _ in range(d - 1):
        dim_exact = dim_exact.dot(weights)
    epsilon_qstar = qstar_error_closed_form(d, big_n)
    fidelity_qstar = 1.0 - epsilon_qstar
    if d == 2:
        epsilon_optimal = math.sin(math.pi / (2 * (big_n + 1))) ** 2
    else:
        epsilon_optimal = (solve or optimal_fidelity)(score_matrix(diagram_set)).error
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
        N=big_n,
        n0=n0,
        set_size=big_n ** (d - 1),
        fidelity_qstar=fidelity_qstar,
        fidelity_optimal=1.0 - epsilon_optimal,
        epsilon_qstar=epsilon_qstar,
        epsilon_optimal=epsilon_optimal,
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


@dataclass(frozen=True)
class SweepResult:
    """Reports over an n-grid plus the fitted log-log error slope."""

    reports: tuple[ProtocolReport, ...]
    slope: float
    residual: float


def sweep(d: int, n_values: list[int]) -> SweepResult:
    """Evaluate a grid of n values and fit the log-log slope of the error.

    Needs at least three distinct n for a meaningful fit; each distinct n gets one
    report, in increasing order.  N does not fall as n grows, so each box's n come in
    one run, and the reports share a memo that keeps one box's solve: a box's
    principal weights are let go once the next box is solved.
    """
    distinct = sorted(set(n_values))
    if len(distinct) < 3:
        raise ValueError(f"need at least 3 points for a slope fit, got {len(distinct)}")
    solve = functools.lru_cache(maxsize=1)(optimal_fidelity)
    reports = tuple(protocol_report(n, d, solve) for n in distinct)
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
    """Write via an owner-only temporary file in the target directory, then rename; the
    file gets the mode ``open(path, "w")`` leaves: the existing file's, else 0o666 & ~umask."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0o022)  # read, then put back
    os.umask(umask)
    mode = os.stat(path).st_mode & 0o7777 if os.path.exists(path) else 0o666 & ~umask
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), mode)
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
