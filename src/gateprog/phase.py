"""Qubit phase-gate example: sine-state quantum program vs a classical mesh.

The quantum program is the sine state, the protocol's 1-D sine amplitudes
``sine_amplitudes(dP)``, pushed through the unknown phase gate; reading it out
with the covariant phase measurement and applying the estimate turns the
overall action on the data qubit into a pure dephasing channel whose
off-diagonal damping factor is the nearest-neighbour autocorrelation kappa of
the program amplitudes.  For the sine state 1 - kappa is the protocol's closed
form eps_g(dP), which ``phase_report`` reads.

The channel's diamond-norm distance to the identity is 1 - kappa.  Write a
pure input on system plus a qubit reference (which suffices) as
|0>|psi_0> + |1>|psi_1> with ||psi_0||^2 + ||psi_1||^2 = 1.  The dephasing
channel multiplies the off-diagonal system block by kappa, so the output
difference is the Hermitian dilation of B = (kappa - 1) psi_0 psi_1*.  B has
rank one, so the trace norm is 2 |1 - kappa| ||psi_0|| ||psi_1||.  By AM-GM
this is at most |1 - kappa|, and the maximally entangled input attains it; the
maximiser does not depend on kappa.  Cauchy-Schwarz gives kappa <= 1, so the
distance is 1 - kappa (Watrous, The Theory of Quantum Information, sec. 3.3).
The Choi infidelity of the same channel is (1 - kappa) / 2, the phase-average
of sin^2(theta/2) under the outcome density |sum_m c_m e^{i m theta}|^2 / (2 pi).

The direct multi-start maximization of the output trace norm
(``diamond_distance_search``) and a quadrature of the outcome density only
appear in ``verify``'s cross-checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .protocol import epsilon_g


def classical_phase_error(d_p: int) -> float:
    """Worst-case error of the dP-interval mesh program: sin(pi / (2 dP))."""
    if d_p < 1:
        raise ValueError(f"program dimension must be positive, got {d_p}")
    return math.sin(math.pi / (2.0 * d_p))


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


def _singular_value_sum(b: np.ndarray) -> np.ndarray:
    """s1 + s2 of each complex 2x2 block of a (k, 2, 2) stack, from the identity
    (s1 + s2)^2 = ||B||_F^2 + 2 |det B|, which holds for every 2x2 B."""
    frobenius = np.sum(b.real**2 + b.imag**2, axis=(1, 2))
    det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    return np.sqrt(frobenius + 2.0 * np.abs(det))


def _difference_output_trace_norm(kappa: float, psi: np.ndarray) -> np.ndarray:
    """||((E - I) (x) I)(psi psi*)||_1 for each row psi, E dephasing with factor kappa.

    The difference is the Hermitian dilation of the 2x2 block B, whose eigenvalues
    are +/- the singular values of B, so its trace norm is 2 (s1 + s2); neither
    rank one nor 1 - kappa is assumed.
    """
    return 2.0 * _singular_value_sum((kappa - 1.0) * psi[:, :2, None] * psi[:, None, 2:].conj())


@dataclass(frozen=True)
class DiamondSearchResult:
    """Outcome of the multi-start maximization of the output trace norm."""

    value: float
    me_value: float
    start_values: tuple[float, ...]
    spread: float
    me_is_max: bool


# Candidates each live start evaluates per pass.  A start's candidates up to its next
# improvement are fixed before it is reached, so the value changes speed only.
_AHEAD = 16


def diamond_distance_search(
    kappa: float,
    *,
    starts: int = 32,
    max_evaluations: int = 500,
) -> DiamondSearchResult:
    """Maximize the output trace norm of dephasing with factor ``kappa`` over
    pure 2x2 inputs by direct search.

    This is the independent oracle for the closed form 1 - kappa; it never uses
    that form.  Hill climbing in the fixed six-angle chart runs from the
    maximally entangled input plus ``starts`` seeded random points.  Each start
    draws its step noise up front from its own generator, and its k-th
    candidate adds noise row k times its step to its current point; it widens
    its step by 1.2 (at most 1) on an improvement, shrinks it by 0.9 otherwise,
    and stops once the step falls below 1e-9 or after ``max_evaluations``
    candidates.

    A failed candidate leaves the point alone and only shrinks the step, so a
    start's candidates up to its next improvement are known in advance.  Each
    pass therefore evaluates the next ``_AHEAD`` candidates of every live start
    at once, as if all of them failed, each through the closed 2x2
    singular-value sum of its output block, and keeps the first improvement,
    or counts every candidate as failed.  Every start visits exactly the points
    of a climb that evaluates one candidate at a time.  Every run is
    deterministic.
    """
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
    index = np.zeros(len(x), dtype=np.int64)  # the next noise row of each start
    live = np.flatnonzero(index < max_evaluations)
    while live.size:
        # the steps of _AHEAD failures in a row, by repeated multiplication as in a
        # one-at-a-time climb; a start reaches the prefix of its row still in range
        steps = np.full((live.size, _AHEAD), 0.9)
        steps[:, 0] = step[live]
        steps = np.multiply.accumulate(steps, axis=1)
        rows = index[live, None] + np.arange(_AHEAD)
        reached = (rows < max_evaluations) & (steps >= 1e-9)
        which, ahead = np.nonzero(reached)
        start = live[which]
        candidate = x[start] + steps[which, ahead][:, None] * noise[start, rows[which, ahead]]
        value = _difference_output_trace_norm(kappa, _state_from_angles(candidate))
        better = np.zeros(reached.shape, dtype=bool)
        better[which, ahead] = value > best[start]

        count = reached.sum(axis=1)
        first = better.argmax(axis=1)
        up = better[np.arange(live.size), first]
        # candidates are laid out start by start, so a start's j-th sits at offset + j
        pick = (np.cumsum(count) - count + first)[up]
        gain = live[up]
        x[gain], best[gain] = candidate[pick], value[pick]
        step[gain] = np.minimum(steps[up, first[up]] * 1.2, 1.0)
        index[gain] += first[up] + 1
        lose = live[~up]
        step[lose] = steps[~up, count[~up] - 1] * 0.9
        index[lose] += count[~up]
        live = live[(step[live] >= 1e-9) & (index[live] < max_evaluations)]

    finals = tuple(float(v) for v in best)
    top = max(finals)
    return DiamondSearchResult(
        value=top,
        me_value=me_value,
        start_values=finals,
        spread=top - min(finals),
        me_is_max=all(v <= me_value + 1e-9 for v in finals),
    )


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
