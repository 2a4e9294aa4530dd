"""Qubit phase-gate example: sine-state quantum program vs a classical mesh.

The quantum program is the sine state (squared amplitudes: the protocol's sine
profile at N = dP) pushed through the unknown phase gate; reading it out with
the covariant phase measurement and applying the estimate turns the overall
action on the data qubit into a pure dephasing channel whose off-diagonal
damping factor is the nearest-neighbour autocorrelation kappa of the program
amplitudes.  Its diamond-norm distance to the identity, 1 - kappa, is the
protocol's closed form eps_g(dP).  Numerical quadrature and the direct
multi-start maximization of the output trace norm (``diamond_distance_search``)
only appear in ``verify``'s cross-checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .protocol import epsilon_g, sine_profile


@dataclass(frozen=True)
class PhaseProtocol:
    """A phase-gate program state given by non-negative amplitudes."""

    amplitudes: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.amplitudes:
            raise ValueError("a program state needs at least one amplitude")
        if not all(math.isfinite(c) and c >= 0.0 for c in self.amplitudes):
            raise ValueError("amplitudes must be finite and non-negative")
        norm = math.fsum(c * c for c in self.amplitudes)
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"amplitudes have squared norm {norm!r}, not 1")

    @property
    def dP(self) -> int:
        return len(self.amplitudes)


def sine_state(d_p: int) -> PhaseProtocol:
    """Program state with amplitudes sqrt(g_m) = sqrt(2/dP) sin(pi (m + 1/2) / dP)."""
    if d_p < 2:
        raise ValueError(f"program dimension must be at least 2, got {d_p}")
    return PhaseProtocol(amplitudes=tuple(math.sqrt(g) for g in sine_profile(d_p)))


def classical_phase_error(d_p: int) -> float:
    """Worst-case error of the dP-interval mesh program: sin(pi / (2 dP)).

    Both algebraic forms, sin(pi/(2 dP)) and sqrt((1 - cos(pi/dP)) / 2), are
    evaluated and cross-checked to guard against transcription slips.  The
    cosine route cancels near 1, which inflates its rounding error by a factor
    1/(4 direct); the cross-check tolerance includes that floor.
    """
    if d_p < 1:
        raise ValueError(f"program dimension must be positive, got {d_p}")
    direct = math.sin(math.pi / (2.0 * d_p))
    via_cos = math.sqrt((1.0 - math.cos(math.pi / d_p)) / 2.0)
    if abs(direct - via_cos) > 1e-15 + 2.5e-16 / (4.0 * direct):
        raise AssertionError(
            f"algebraic forms disagree: {direct!r} vs {via_cos!r} at dP={d_p}"
        )
    return direct


def autocorrelation(protocol: PhaseProtocol, lag: int = 1) -> float:
    """sum_m c_m c_(m+lag); the lag-1 value is the dephasing factor kappa."""
    c = protocol.amplitudes
    lag = abs(lag)
    return math.fsum(c[m] * c[m + lag] for m in range(len(c) - lag))


def choi_infidelity(protocol: PhaseProtocol) -> float:
    """1 - fidelity of the implemented channel's Choi state with the ideal one.

    For the dephasing channel this is (1 - kappa) / 2 with kappa the lag-1
    autocorrelation; it equals the phase-average of sin^2(theta/2) under the
    outcome density |sum_m c_m e^{i m theta}|^2 / (2 pi).
    """
    return (1.0 - autocorrelation(protocol, lag=1)) / 2.0


def _state_from_angles(x: np.ndarray) -> np.ndarray:
    """Fixed six-parameter chart on pure states of a 4-dimensional system, per row."""
    t1, t2, t3, p1, p2, p3 = x.T
    s1, s2 = np.sin(t1), np.sin(t2)
    return np.stack(
        [
            np.cos(t1),
            np.exp(1j * p1) * s1 * np.cos(t2),
            np.exp(1j * p2) * s1 * s2 * np.cos(t3),
            np.exp(1j * p3) * s1 * s2 * np.sin(t3),
        ],
        axis=-1,
    )


_ME_ANGLES = np.array([math.pi / 4, math.pi / 2, math.pi / 2, 0.0, 0.0, 0.0])


def _difference_output_trace_norm(kappa: float, psi: np.ndarray) -> np.ndarray:
    """||((E - I) (x) I)(psi psi*)||_1 for each row psi, E dephasing with factor kappa."""
    block = (kappa - 1.0) * psi[:, :2, None] * psi[:, None, 2:].conj()
    x = np.zeros((len(psi), 4, 4), dtype=complex)
    x[:, :2, 2:] = block
    x[:, 2:, :2] = block.conj().transpose(0, 2, 1)
    return np.abs(np.linalg.eigvalsh(x)).sum(axis=1)


@dataclass(frozen=True)
class DiamondSearchResult:
    """Outcome of the multi-start maximization of the output trace norm."""

    value: float
    me_value: float
    start_values: tuple[float, ...]
    spread: float
    me_is_max: bool


def diamond_distance_search(
    protocol: PhaseProtocol,
    *,
    starts: int = 32,
    max_evaluations: int = 500,
) -> DiamondSearchResult:
    """Maximize the output trace norm over pure 2x2 inputs by direct search.

    This is the independent oracle for the closed form in
    ``quantum_phase_error``; it never uses 1 - kappa.  Hill climbing in the
    fixed six-angle chart runs from the maximally entangled input plus
    ``starts`` seeded random points, all in lockstep: every step evaluates the
    candidates of all live starts as one batched 4x4 eigenproblem.  Each start
    draws its step noise up front from its own generator, widens its step by
    1.2 (at most 1) on an improvement and shrinks it by 0.9 otherwise, and
    stops once the step falls below 1e-9.  Every run is deterministic.
    """
    kappa = autocorrelation(protocol, lag=1)

    rngs = [np.random.default_rng(10_000)]
    x = [_ME_ANGLES]
    for seed in range(starts):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.0, math.pi / 2, size=6)
        x0[3:] = rng.uniform(0.0, 2.0 * math.pi, size=3)
        rngs.append(rng)
        x.append(x0)
    x = np.array(x)
    noise = np.stack([rng.standard_normal((max_evaluations, 6)) for rng in rngs])

    best = _difference_output_trace_norm(kappa, _state_from_angles(x))
    me_value = float(best[0])
    step = np.full(len(x), 0.4)
    live = np.arange(len(x))
    for k in range(max_evaluations):
        candidate = x[live] + step[live, None] * noise[live, k]
        value = _difference_output_trace_norm(kappa, _state_from_angles(candidate))
        better = value > best[live]
        up = live[better]
        x[up], best[up] = candidate[better], value[better]
        step[up] = np.minimum(step[up] * 1.2, 1.0)
        step[live[~better]] *= 0.9
        live = live[step[live] >= 1e-9]
        if not live.size:
            break

    finals = tuple(float(v) for v in best)
    top = max(finals)
    return DiamondSearchResult(
        value=top,
        me_value=me_value,
        start_values=finals,
        spread=top - min(finals),
        me_is_max=all(v <= me_value + 1e-9 for v in finals),
    )


def quantum_phase_error(protocol: PhaseProtocol) -> float:
    """Diamond-norm distance 1 - kappa between the implemented channel and the identity.

    Write a pure input on system plus a qubit reference (which suffices) as
    |0>|psi_0> + |1>|psi_1> with ||psi_0||^2 + ||psi_1||^2 = 1.  The dephasing
    channel multiplies the off-diagonal system block by kappa, so the output
    difference is the Hermitian dilation of B = (kappa - 1) psi_0 psi_1*.  B
    has rank one, so the trace norm is 2 |1 - kappa| ||psi_0|| ||psi_1||.  By
    AM-GM this is at most |1 - kappa|, and the maximally entangled input
    attains it; the maximiser does not depend on kappa.  Cauchy-Schwarz gives
    kappa <= 1, so the distance is 1 - kappa (Watrous, The Theory of Quantum
    Information, sec. 3.3).  ``diamond_distance_search`` checks this by direct
    maximization inside ``verify``.
    """
    return 1.0 - autocorrelation(protocol, lag=1)


@dataclass(frozen=True)
class PhaseReport:
    """Classical-vs-quantum comparison at one program dimension."""

    dP: int
    eps_classical: float
    eps_quantum: float
    choi_infidelity: float
    asymptote_ratio: float


def phase_report(d_p: int) -> PhaseReport:
    """Mesh error, quantum error eps_g(dP) = 1 - kappa and Choi infidelity at one dP.

    No amplitudes and no search; a dP whose eps_g is not a positive normal
    double (from about dP = 1.5e154) is refused.
    """
    if d_p < 2:
        raise ValueError(f"program dimension must be at least 2, got {d_p}")
    try:
        eps_q = epsilon_g(d_p)
    except OverflowError:
        eps_q = 0.0
    if not eps_q >= sys.float_info.min:
        raise ValueError(f"quantum phase error at dP={d_p} is below the normal float range")
    return PhaseReport(
        dP=d_p,
        eps_classical=classical_phase_error(d_p),
        eps_quantum=eps_q,
        choi_infidelity=eps_q / 2.0,
        asymptote_ratio=eps_q * 2.0 * d_p * d_p / math.pi**2,
    )
