"""The verification battery: every headline guarantee, checked at fixed tolerances.

Each check pits an implementation path against an independent route (exact
binomials, dense eigensolvers, Haar quadrature, Monte-Carlo sampling, direct
trace-norm maximization) and reports a single pass/fail with its worst margin.
The CLI ``verify`` command and the acceptance test module both run this list.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from . import bounds as bounds_mod
from .oracle import (
    character_orthonormality_check,
    choi_monte_carlo_su2,
    haar_fidelity,
    su2_grid,
    su_torus_grid,
    validate_sampling,
)
from .phase import classical_phase_error, diamond_distance_search, phase_report
from .protocol import capacity_parameter, sine_amplitudes, sine_weights, viable_set
from .reporting import ProtocolReport, protocol_reports
from .scoring import (
    entanglement_fidelity,
    optimal_fidelity,
    qstar_error_closed_form,
    score_matrix,
)
from .young import dm_lower_bound, enumerate_diagrams, sum_squared_dimensions


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        # numpy comparison results must not leak into the JSON layer
        object.__setattr__(self, "passed", bool(self.passed))


SWEEP_NS = (32, 64, 128, 256, 512)
SMALL_NS_D2 = (4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 256, 512)
NS_D3 = tuple(range(13, 61))


def check_dimension_identity() -> CheckResult:
    """Sum of squared irrep dimensions equals the exact binomial count."""
    for d in (2, 3):
        nu = d * d - 1
        for m in range(0, 9):
            lhs = sum_squared_dimensions(m, d)
            rhs = comb(m + nu, nu)
            if lhs != rhs:
                return CheckResult(
                    "schur_weyl_dimension_identity", False,
                    f"mismatch at d={d}, m={m}: {lhs} != {rhs}",
                )
        for m in range(1, 13):
            if dm_lower_bound(m, d) > sum_squared_dimensions(m, d):
                return CheckResult(
                    "schur_weyl_dimension_identity", False,
                    f"closed-form floor exceeds the exact sum at d={d}, m={m}",
                )
    return CheckResult(
        "schur_weyl_dimension_identity", True,
        "exact for d in {2,3}, m <= 8; floor holds for m <= 12",
    )


def check_oracle_equivalence() -> CheckResult:
    """Haar-quadrature fidelity vs the score-matrix quadratic form, d in {2, 3}."""
    worst = 0.0
    for d, n in ((2, 4), (2, 8), (2, 16), (2, 32), (2, 64), (3, 13), (3, 60)):
        ds = viable_set(n, d)
        grid = su_torus_grid(d, n + 1)
        matrix = score_matrix(ds)
        for q in (sine_weights(ds), optimal_fidelity(matrix).weights_used):
            f_matrix = entanglement_fidelity(q, matrix).fidelity
            f_haar = haar_fidelity(ds, q, grid)
            worst = max(worst, abs(f_haar - f_matrix))
    diagrams = np.concatenate([enumerate_diagrams(m, 2) for m in range(7)])
    ortho = character_orthonormality_check(su2_grid(6), diagrams)
    passed = worst <= 1e-10 and ortho <= 1e-10
    return CheckResult(
        "oracle_equivalence", passed,
        f"max |haar - matrix| = {worst:.2e} (tol 1e-10), "
        f"orthonormality deviation = {ortho:.2e} (tol 1e-10)",
    )


def check_closed_form_consistency() -> CheckResult:
    """Sine-weight error summed over the lattice vs the closed form the report reads,
    all valid n per dimension; the difference is shown times d^2, on the score scale.
    The sum depends on (d, N) only, so each N is summed once, at its first n."""
    worst = 0.0
    for d, n_values in ((2, range(4, 513)), (3, range(13, 61))):
        first_n: dict[int, int] = {}
        for n in n_values:
            first_n.setdefault(capacity_parameter(n, d), n)
        for n in first_n.values():
            ds = viable_set(n, d)
            lattice = entanglement_fidelity(sine_weights(ds), score_matrix(ds)).error
            worst = max(worst, d * d * abs(lattice - qstar_error_closed_form(d, ds.N)))
    passed = worst <= 1e-12
    return CheckResult(
        "closed_form_consistency", passed,
        f"max |quadratic - closed| = {worst:.2e} (tol 1e-12) over d=2 n<=512, d=3 n<=60",
    )


def _bound_margins(reports: list[ProtocolReport]) -> tuple[float, float, bool]:
    eps_margin = min(r.bound_eq5 - r.epsilon_qstar for r in reports)
    dim_margin = min(r.bound_eq6_log2 - r.dP_exact_log2 for r in reports)
    flags_ok = all(all(r.pass_flags.values()) for r in reports)
    return eps_margin, dim_margin, flags_ok


def check_error_and_dimension_bounds(
    reports_d2: dict[int, ProtocolReport], reports_d3: dict[int, ProtocolReport]
) -> CheckResult:
    """Achieved error and exact dimension stay inside their guarantees."""
    all_reports = list(reports_d2.values()) + list(reports_d3.values())
    eps_margin, dim_margin, flags_ok = _bound_margins(all_reports)
    passed = eps_margin >= 0.0 and dim_margin >= 0.0 and flags_ok
    return CheckResult(
        "error_and_dimension_bounds", passed,
        f"min error-bound margin = {eps_margin:.3e}, "
        f"min log2-dimension margin = {dim_margin:.3f} over "
        f"{len(all_reports)} (d, n) points; all pass flags {'true' if flags_ok else 'FALSE'}",
    )


def check_heisenberg_scaling(reports_d2: dict[int, ProtocolReport]) -> CheckResult:
    """log-log slope of the achieved error vs n is -2 within 0.05."""
    pts = [reports_d2[n] for n in SWEEP_NS]
    slope = float(np.polyfit(
        np.log([r.n for r in pts]), np.log([r.epsilon_qstar for r in pts]), 1
    )[0])
    passed = abs(slope + 2.0) <= 0.05
    return CheckResult(
        "heisenberg_scaling", passed,
        f"slope = {slope:.4f} over n in {list(SWEEP_NS)} (target -2.00 +/- 0.05)",
    )


def check_cost_scaling(reports_d2: dict[int, ProtocolReport]) -> CheckResult:
    """Achieved cost slope is 1.5 +/- 0.08; lower bound stays under the upper."""
    pts = [reports_d2[n] for n in SWEEP_NS]
    xs = [math.log2(1.0 / r.epsilon_qstar) for r in pts]
    ys = [r.cP_bits for r in pts]
    slope = float(np.polyfit(xs, ys, 1)[0])
    slope_ok = abs(slope - 1.5) <= 0.08

    ordering_ok = True
    eps_grid = [r.epsilon_qstar for r in pts] + [1e-10, 1e-12, 1e-13, 1e-14]
    for eps in eps_grid:
        try:
            _, lower = bounds_mod.optimize_delta(2, eps)
        except ValueError:
            continue  # vacuous lower bound, nothing to compare
        if lower > bounds_mod.upper_bound_cost(2, eps):
            ordering_ok = False

    deep = [1e-12, 1e-13, 1e-14]
    deep_bits = [bounds_mod.optimize_delta(2, e)[1] for e in deep]
    deep_slope = float(
        np.polyfit([math.log2(1.0 / e) for e in deep], deep_bits, 1)[0]
    )
    deep_ok = deep_slope >= 1.35

    passed = slope_ok and ordering_ok and deep_ok
    return CheckResult(
        "cost_scaling", passed,
        f"achieved slope = {slope:.4f} (target 1.5 +/- 0.08); "
        f"lower <= upper on grid: {ordering_ok}; "
        f"optimized lower-bound slope at eps <= 1e-12: {deep_slope:.4f} (>= 1.35)",
    )


def check_eigenvalue_oracle() -> CheckResult:
    """Tridiagonal largest eigenvalue vs 2 + 2 cos(pi/(N+1)) and a dense solver."""
    worst_analytic = 0.0
    worst_solver = 0.0
    for big_n in range(2, 65):
        ds = viable_set(2 * big_n, 2)
        matrix = score_matrix(ds)
        dense_max = float(np.linalg.eigvalsh(matrix.dense())[-1])
        analytic = 2.0 + 2.0 * math.cos(math.pi / (big_n + 1))
        solver = optimal_fidelity(matrix).fidelity * 4.0
        worst_analytic = max(worst_analytic, abs(dense_max - analytic))
        worst_solver = max(worst_solver, abs(solver - dense_max))
    passed = worst_analytic <= 1e-10 and worst_solver <= 1e-10
    # the detail text is pinned by bench/reference.json, so it keeps the old solver's name
    return CheckResult(
        "eigenvalue_oracle", passed,
        f"max |dense - analytic| = {worst_analytic:.2e}, "
        f"max |power iteration - dense| = {worst_solver:.2e} for N <= 64 (tol 1e-10)",
    )


def check_phase_gate() -> CheckResult:
    """Mesh error against its chord form, the reported 1 - kappa against the
    direct diamond search at dP = 4 and 128, the reported Choi infidelity against
    a quadrature of the outcome density, quantum error scaling and ratio,
    quantum advantage."""
    worst_classical = max(
        abs(classical_phase_error(dp) - abs(1.0 - cmath.exp(1j * math.pi / dp)) / 2.0)
        for dp in range(1, 257)
    )
    classical_ok = worst_classical <= 1e-15

    dps = (16, 23, 32, 45, 64, 91, 128)
    advantage_dps = (*range(4, 17), 32, 64, 128)
    reports = {dp: phase_report(dp) for dp in dps + advantage_dps}
    errors = {dp: report.eps_quantum for dp, report in reports.items()}
    # the direct search is the oracle for the closed form, at both ends of the range;
    # it takes kappa from the amplitudes, never from epsilon_g
    for dp in (4, 128):
        a = sine_amplitudes(dp)
        search = diamond_distance_search(math.fsum(a[:-1] * a[1:]))
        if search.spread > 1e-6:
            return CheckResult(
                "phase_gate", False, f"search spread {search.spread:.1e} at dP={dp}"
            )
        if abs(search.value - errors[dp]) > 1e-9:
            return CheckResult(
                "phase_gate", False,
                f"search maximum {search.value:.12g} differs from 1 - kappa = "
                f"{errors[dp]:.12g} at dP={dp} (tol 1e-9)",
            )
    # mean of sin^2(theta/2) |sum_m c_m e^{i m theta}|^2 over 2 dP equispaced nodes,
    # exact for this degree-dP trigonometric polynomial
    for dp in advantage_dps:
        theta = math.pi * np.arange(2 * dp) / dp
        density = np.abs(np.fft.fft(sine_amplitudes(dp), 2 * dp)) ** 2
        quadrature = float(np.mean(density * np.sin(theta / 2.0) ** 2))
        if abs(quadrature - reports[dp].choi_infidelity) > 1e-12:
            return CheckResult(
                "phase_gate", False,
                f"Choi infidelity {reports[dp].choi_infidelity:.12g} differs from the "
                f"outcome-density quadrature {quadrature:.12g} at dP={dp} (tol 1e-12)",
            )
    slope = float(np.polyfit(np.log(dps), np.log([errors[dp] for dp in dps]), 1)[0])
    slope_ok = abs(slope + 2.0) <= 0.1

    ratios = {dp: errors[dp] * 2.0 * dp * dp / math.pi**2 for dp in (32, 64)}
    ratio_ok = all(0.5 <= r <= 2.0 for r in ratios.values())

    advantage_ok = all(errors[dp] < classical_phase_error(dp) for dp in advantage_dps)

    passed = classical_ok and slope_ok and ratio_ok and advantage_ok
    return CheckResult(
        "phase_gate", passed,
        f"mesh closed-form deviation = {worst_classical:.1e} (tol 1e-15); "
        f"quantum slope = {slope:.4f} (-2 +/- 0.1); "
        f"ratio at dP=32,64 = {ratios[32]:.4f}, {ratios[64]:.4f} (in [0.5, 2.0]); "
        f"quantum beats classical for dP >= 4: {advantage_ok}",
    )


def check_choi_decomposition(samples: int, seed: int) -> CheckResult:
    """Monte-Carlo Choi state fits the one-parameter covariant form."""
    tol = 5.0 / math.sqrt(samples)
    worst_resid = 0.0
    worst_diff = 0.0
    for n in (4, 8):
        ds = viable_set(n, 2)
        q = sine_weights(ds)
        fidelity = entanglement_fidelity(q, score_matrix(ds)).fidelity
        fit = choi_monte_carlo_su2(n, q, samples, seed=seed)
        worst_resid = max(worst_resid, fit.residual)
        worst_diff = max(worst_diff, abs((1.0 - fit.a) - fidelity))
    passed = worst_resid <= tol and worst_diff <= tol
    return CheckResult(
        "choi_decomposition", passed,
        f"max residual = {worst_resid:.2e}, max |(1-a) - F| = {worst_diff:.2e} "
        f"(tol {tol:.2e} at {samples} samples, seed {seed})",
    )


CRITERIA = (
    "schur_weyl_dimension_identity",
    "oracle_equivalence",
    "closed_form_consistency",
    "error_and_dimension_bounds",
    "heisenberg_scaling",
    "cost_scaling",
    "eigenvalue_oracle",
    "phase_gate",
    "choi_decomposition",
)


def run_all(samples: int = 10**6, seed: int = 0) -> list[CheckResult]:
    """Run every check once, sharing the protocol reports between them; the reports
    share one eigensolve per (d, N) box.

    ``samples`` and ``seed`` are checked before any work, so a bad request
    fails at once with the Monte-Carlo oracle's own message."""
    validate_sampling(samples, seed)
    reports_d2 = dict(zip(SMALL_NS_D2, protocol_reports(2, SMALL_NS_D2)))
    reports_d3 = dict(zip(NS_D3, protocol_reports(3, NS_D3)))
    return [
        check_dimension_identity(),
        check_oracle_equivalence(),
        check_closed_form_consistency(),
        check_error_and_dimension_bounds(reports_d2, reports_d3),
        check_heisenberg_scaling(reports_d2),
        check_cost_scaling(reports_d2),
        check_eigenvalue_oracle(),
        check_phase_gate(),
        check_choi_decomposition(samples, seed),
    ]
