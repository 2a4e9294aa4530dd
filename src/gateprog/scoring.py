"""Score matrix over a diagram lattice and the fidelity quadratic form.

The score matrix has diagonal d and off-diagonal 1 exactly between diagrams at
Young distance 2; on the viable lattice those are the unit moves +/-e_i and the
exchange moves +/-(e_i - e_j).  The entanglement fidelity of a weight vector q
is (1/d^2) sqrt(q)^T S sqrt(q), and the optimum over weights is the largest
eigenvalue of S divided by d^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .protocol import DiagramSet, WeightVector, _check_uses, _lattice_parameters
from .young import young_distance


class ConvergenceError(RuntimeError):
    """The eigensolver failed to reach the requested residual."""


@functools.cache
def _stencil_slices(d: int) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
    """(target, source) slice pairs on the (N,)*(d-1) box, one per move +/-e_i or
    +/-(e_i - e_j), in lexicographic order of the move, i.e. ascending flat offset.
    """
    shift = {1: (slice(None, -1), slice(1, None)), -1: (slice(1, None), slice(None, -1)),
             0: (slice(None), slice(None))}
    return tuple(
        tuple(zip(*(shift[m] for m in move)))
        for move in product((-1, 0, 1), repeat=d - 1)
        if sorted(m for m in move if m) in ([-1], [1], [-1, 1])
    )


@dataclass(eq=False)
class ScoreMatrix:
    """Sparse symmetric score matrix, applied as a stencil on the (N,)*(d-1) lattice box."""

    diagram_set: DiagramSet

    @property
    def dimension(self) -> int:
        return len(self.diagram_set)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        d, big_n = self.diagram_set.d, self.diagram_set.N
        x = v.reshape((big_n,) * (d - 1))
        neighbours = np.zeros(x.shape)
        # adding neighbours in ascending index order and the diagonal last gives, for
        # d <= 3, the same float sums as a gather over sorted adjacency rows
        for target, source in _stencil_slices(d):
            neighbours[target] += x[source]
        return (d * x + neighbours).reshape(-1)

    def dense(self) -> np.ndarray:
        return np.column_stack([self.matvec(col) for col in np.eye(self.dimension)])


def score_matrix(diagram_set: DiagramSet) -> ScoreMatrix:
    """The score matrix of the viable lattice (unit and exchange moves)."""
    return ScoreMatrix(diagram_set)


def score_matrix_by_distance(diagram_set: DiagramSet) -> np.ndarray:
    """Dense score matrix from pairwise Young distances; used for cross-checks."""
    members = diagram_set.members
    return np.array([
        [diagram_set.d if i == j else young_distance(lam, mu) == 2
         for j, mu in enumerate(members)]
        for i, lam in enumerate(members)
    ], dtype=float)


@dataclass(frozen=True, eq=False)
class FidelityResult:
    """Entanglement fidelity, its complement, and the weights that produced it."""

    fidelity: float
    error: float
    weights_used: WeightVector


def entanglement_fidelity(q: WeightVector, s: ScoreMatrix) -> FidelityResult:
    """(1/d^2) a^T S a with a = sqrt(q); the quadratic form is in amplitudes."""
    if not q.diagram_set.same_as(s.diagram_set):
        raise ValueError("weight vector and score matrix use different diagram sets")
    amp = np.sqrt(np.asarray(q.probabilities))
    d = s.diagram_set.d
    fid = float(amp @ s.matvec(amp)) / (d * d)
    return FidelityResult(fidelity=fid, error=1.0 - fid, weights_used=q)


def optimal_fidelity(
    s: ScoreMatrix,
    *,
    tol: float = 1e-12,
    max_iterations: int = 10**6,
) -> FidelityResult:
    """Largest eigenvalue of S over d^2, with the principal weights.

    Symmetric power iteration from the all-ones vector.  S is non-negative and
    irreducible on the connected lattice, so the principal eigenvector is
    strictly positive and the iteration converges; we stop when the residual
    ||S v - theta v|| drops below ``tol * theta``.
    """
    if max_iterations < 1:
        raise ValueError(f"iteration cap must be positive, got {max_iterations}")
    dim = s.dimension
    v = np.full(dim, 1.0 / math.sqrt(dim))
    theta = 0.0
    for _ in range(max_iterations):
        w = s.matvec(v)
        theta = float(v @ w)
        residual = float(np.linalg.norm(w - theta * v))
        if residual <= tol * theta:
            break
        v = w / np.linalg.norm(w)
    else:
        raise ConvergenceError(
            f"power iteration hit the {max_iterations}-step cap with residual "
            f"{residual:.3e} (target {tol * theta:.3e})"
        )

    if float(v.min()) < -1e-10:
        raise ConvergenceError("principal eigenvector came out with negative entries")
    v = np.abs(v)
    probs = v * v
    probs /= probs.sum()
    d = s.diagram_set.d
    fid = theta / (d * d)
    weights = WeightVector(
        diagram_set=s.diagram_set, probabilities=tuple(float(p) for p in probs)
    )
    return FidelityResult(fidelity=fid, error=1.0 - fid, weights_used=weights)


def qstar_score_closed_form(d: int, eps_g: float) -> float:
    """Closed form of the sine-weight quadratic form:
    d + (d-1)(d-2)(1-eps_g)^2 + 2(d-1)(1-eps_g).
    """
    if d < 2:
        raise ValueError(f"gate dimension must be at least 2, got {d}")
    if not 0.0 <= eps_g <= 1.0:
        raise ValueError(f"coherence deficit must lie in [0, 1], got {eps_g}")
    c = 1.0 - eps_g
    return d + (d - 1) * (d - 2) * c * c + 2 * (d - 1) * c


def lemma3_bound(d: int, n: int) -> float:
    """Guaranteed fidelity floor 1 - 2 (pi (d-1) / (d c_min n))^2 for the sine weights.

    c_min n = 2 (n - d(d-1)) / ((3d-2)(d-1)).  Negative values are returned
    as-is; callers flag them as vacuous rather than clamping.
    """
    _check_uses(n, d)
    _lattice_parameters(n, d)
    c_min_n = 2.0 * (n - d * (d - 1)) / ((3 * d - 2) * (d - 1))
    return 1.0 - 2.0 * (math.pi * (d - 1) / (d * c_min_n)) ** 2
