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

from .protocol import DiagramSet, WeightVector, _check_uses, _lattice_parameters, sine_profile
from .young import YoungDiagram, young_distance


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
    diagrams = [YoungDiagram(tuple(rows)) for rows in diagram_set.rows.tolist()]
    return np.array([
        [diagram_set.d if i == j else young_distance(lam, mu) == 2
         for j, mu in enumerate(diagrams)]
        for i, lam in enumerate(diagrams)
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
    amp = np.sqrt(q.probabilities)
    d = s.diagram_set.d
    fid = float(amp @ s.matvec(amp)) / (d * d)
    return FidelityResult(fidelity=fid, error=1.0 - fid, weights_used=q)


def _sine_start(diagram_set: DiagramSet) -> np.ndarray:
    """Unit vector sqrt(sine weights), built as an outer product on the lattice box;
    all ones when N < 2, where the sine profile is undefined."""
    d, big_n = diagram_set.d, diagram_set.N
    if big_n < 2:
        v = np.ones(len(diagram_set))
    else:
        g = np.sqrt(sine_profile(big_n))
        v = functools.reduce(np.multiply.outer, [g] * (d - 1)).reshape(-1)
    return v / np.linalg.norm(v)


# The Lanczos basis gets this many floats, clamped to 24 to 64 vectors.  A larger
# basis converges in fewer matvecs but raises peak memory on the big lattices; a
# thick restart keeps half of it, and fewer than 24 vectors keep too little on the
# big d >= 3 lattices (at d=3 n=2000: 721 matvecs with 24 vectors, 1,289 with 16).
_LANCZOS_BASIS_FLOATS = 2**17


def optimal_fidelity(
    s: ScoreMatrix,
    *,
    tol: float = 1e-12,
    max_iterations: int = 10**6,
) -> FidelityResult:
    """Largest eigenvalue of S over d^2, with the principal weights.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22 (2000) 602;
    Stathopoulos, Saad & Wu, SIAM J. Sci. Comput. 19 (1998) 227) started from
    sqrt(sine weights).  Each cycle fills a basis of m vectors, fully
    reorthogonalised twice; the coefficients of both passes form the projected
    matrix, so after a restart its arrowhead needs no separate bookkeeping.  A
    full cycle restarts from its top m/2 Ritz vectors and the residual vector,
    which keeps the Krylov information the shrinking spectral gap (about 1/N^2)
    needs.

    We stop only on the true residual ||S v - theta v|| <= ``tol * theta`` of a
    unit vector v with theta = v^T S v: the start vector's is known after the
    first matvec, and a cycle's top Ritz vector gets one confirming matvec once
    its Ritz estimate |beta s_m| meets the same bound.  A cycle also ends when
    the next Lanczos coefficient falls below ``tol * theta`` (an invariant
    Krylov space); its top Ritz vector then always gets the confirming matvec,
    and if it fails the test, the next cycle starts from that vector alone.
    ``max_iterations`` caps the number of matvecs, the confirming ones
    included.  S is non-negative and irreducible on the connected lattice, so
    the principal eigenvector is strictly positive.
    """
    if max_iterations < 1:
        raise ValueError(f"iteration cap must be positive, got {max_iterations}")
    dim = s.dimension
    m = min(dim, 64, max(24, _LANCZOS_BASIS_FLOATS // dim))
    basis = np.empty((m, dim))
    projected = np.zeros((m, m))  # upper triangle of basis @ S @ basis.T
    basis[0] = _sine_start(s.diagram_set)
    kept = matvecs = restarts = 0

    def apply(v: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        if matvecs == max_iterations:
            raise ConvergenceError(
                f"Lanczos on the dimension-{dim} lattice hit the {max_iterations}-matvec "
                f"cap after {restarts} restarts with residual {residual:.3e} "
                f"(target {tol * theta:.3e})"
            )
        matvecs += 1
        return s.matvec(v)

    while True:
        for j in range(kept, m):
            w = apply(basis[j])
            if j == 0:
                theta = float(basis[0] @ w)
                residual = float(np.linalg.norm(w - theta * basis[0]))
                if residual <= tol * theta:
                    return _principal_result(s, basis[0], theta)
            coefficients = basis[: j + 1] @ w
            w -= basis[: j + 1].T @ coefficients
            correction = basis[: j + 1] @ w
            w -= basis[: j + 1].T @ correction
            projected[: j + 1, j] = coefficients + correction
            beta = float(np.linalg.norm(w))
            if beta <= tol * theta:
                break
            if j + 1 < m:
                basis[j + 1] = w / beta
        size = j + 1
        # an invariant Krylov space (to within the tolerance) leaves w / beta as noise,
        # also when it fills the whole basis
        invariant = beta <= tol * theta
        values, vectors = np.linalg.eigh(projected[:size, :size], UPLO="U")
        theta = float(values[-1])
        # the Ritz estimate is the residual norm of the top Ritz vector in exact arithmetic
        residual = abs(beta * float(vectors[-1, -1]))
        if invariant or residual <= tol * theta:
            v = vectors[:, -1] @ basis[:size]
            v /= np.linalg.norm(v)
            sv = apply(v)
            theta = float(v @ sv)
            residual = float(np.linalg.norm(sv - theta * v))
            if residual <= tol * theta:
                return _principal_result(s, v, theta)
        restarts += 1
        if invariant:  # its top Ritz vector failed the test
            basis[0] = v
            kept = 0
            continue
        kept = m // 2
        basis[:kept] = vectors[:, -kept:].T @ basis[:size]
        basis[kept] = w / beta
        projected[:kept, :kept] = np.diag(values[-kept:])


def _principal_result(s: ScoreMatrix, v: np.ndarray, theta: float) -> FidelityResult:
    if v.sum() < 0.0:  # a Ritz vector comes with either sign
        v = -v
    if float(v.min()) < -1e-10:
        raise ConvergenceError("principal eigenvector came out with negative entries")
    v = np.abs(v)
    probs = v * v
    probs /= probs.sum()
    d = s.diagram_set.d
    fid = theta / (d * d)
    weights = WeightVector(diagram_set=s.diagram_set, probabilities=probs)
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
