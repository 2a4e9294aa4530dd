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

The see-saw maximization of the output trace norm from 33 Haar-random inputs,
with no entangled start (``diamond_distance_search``), and a quadrature of the
outcome density only appear in ``verify``'s cross-checks.
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


def _difference(kappa: float, rho: np.ndarray) -> np.ndarray:
    """((E - I) (x) I)(rho) for each 4x4 matrix of a stack, system index first, E
    dephasing with factor kappa: the off-diagonal system blocks scale by kappa - 1
    and the diagonal blocks clear.  The map is its own adjoint."""
    out = np.zeros_like(rho)
    out[..., :2, 2:] = (kappa - 1.0) * rho[..., :2, 2:]
    out[..., 2:, :2] = (kappa - 1.0) * rho[..., 2:, :2]
    return out


@dataclass(frozen=True)
class DiamondSearchResult:
    """Outcome of the multi-start maximization of the output trace norm."""

    value: float
    start_values: tuple[float, ...]
    spread: float


# A cap on the see-saw's rounds; it takes at most 10 over kappa in [0, 1].
_MAX_ROUNDS = 100


def diamond_distance_search(kappa: float) -> DiamondSearchResult:
    """Maximize the output trace norm of dephasing with factor ``kappa`` over
    pure 2x2 inputs by a see-saw ascent.

    This is the independent oracle for the closed form 1 - kappa; it never uses
    that form or rank one, and it is not given the entangled input.  The distance
    is the maximum of tr U ((E - I) (x) I)(psi psi*) over pure inputs psi and
    Hermitian U with -I <= U <= I (Watrous, Theory of Computing 5 (2009) 217).
    The 33 starts are Haar-random pure inputs, normalized complex Gaussian
    4-vectors from one generator seeded 0 (Zyczkowski & Sommers, J. Phys. A 34
    (2001) 7111).  Each round, for every start at once, diagonalizes the output
    difference V diag(lambda) V*, whose trace norm sum |lambda| is the start's
    value, takes the best U for that psi, V sign(lambda) V*, and the best psi for
    that U, the top eigenvector of ((E - I) (x) I)(U), as the map is its own
    adjoint.  Neither step lowers the value, and a fixed point meets the
    first-order optimality condition.  A start's value is the best it has
    reached, since rounding scatters each round's by a few ulps; the rounds stop
    once no start rises above it by more than 4 ulps.  The value is the best any
    start reached.  Every run is deterministic.
    """
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((33, 4)) + 1j * rng.standard_normal((33, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)

    best = np.full(len(psi), -np.inf)
    for _ in range(_MAX_ROUNDS):
        lam, v = np.linalg.eigh(_difference(kappa, psi[:, :, None] * psi[:, None, :].conj()))
        value = np.abs(lam).sum(axis=1)
        if np.all(value <= best * (1.0 + 4.0 * np.finfo(float).eps)):
            break
        best = np.maximum(best, value)
        u = (v * np.sign(lam)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        psi = np.linalg.eigh(_difference(kappa, u))[1][:, :, -1]

    finals = tuple(float(v) for v in best)
    top = max(finals)
    return DiamondSearchResult(value=top, start_values=finals, spread=top - min(finals))


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
