"""Score matrix over a diagram lattice and the fidelity quadratic form.

The score matrix has diagonal d and off-diagonal 1 exactly between diagrams at
Young distance 2; on the viable lattice those are the unit moves +/-e_i and the
exchange moves +/-(e_i - e_j).  The entanglement fidelity of weights q is
(1/d^2) a^T S a in their amplitudes a = sqrt(q), the form ``WeightVector``
holds, and the optimum over weights is the largest eigenvalue of S divided by
d^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .protocol import DiagramSet, WeightVector, _check_uses, epsilon_g, sine_weights
from .young import young_distance


class ConvergenceError(RuntimeError):
    """The eigensolver failed to reach the requested residual."""


@functools.cache
def _stencil_slices(d: int) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
    """(target, source) slice pairs on the (N,)*(d-1) box, one per move +/-e_i or
    +/-(e_i - e_j), in lexicographic order of the move, i.e. ascending flat offset.

    ``entanglement_fidelity`` sums its edge differences over these moves; the matvec
    uses the Pieri form instead.
    """
    shift = {1: (slice(None, -1), slice(1, None)), -1: (slice(1, None), slice(None, -1)),
             0: (slice(None), slice(None))}
    unit = np.eye(d - 1, dtype=int)
    i, j = np.nonzero(unit == 0)
    moves = sorted(map(tuple, np.concatenate([unit, -unit, unit[i] - unit[j]]).tolist()))
    return tuple(tuple(zip(*(shift[m] for m in move))) for move in moves)


@dataclass(eq=False)
class ScoreMatrix:
    """Sparse symmetric score matrix on the (N,)*(d-1) lattice box, applied in its
    Pieri form.

    B, the Pieri map that removes one box, sends a to y[t] = a[t] + sum_j a[t + e_j],
    and its transpose sends y to y[t] + sum_j y[t - e_j], both sums taken inside the
    box.  B^T B has every unit and exchange move once and a[t] d - c(t) times, c(t)
    being the number of coordinates of t that are 0, so S = B^T B + c: the matvec is
    3(d-1) slice adds, where the stencil's moves take d(d-1).
    """

    diagram_set: DiagramSet

    @property
    def dimension(self) -> int:
        return len(self.diagram_set)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """S v for a vector v over the members, or for each column of an (M, k) block."""
        d, big_n = self.diagram_set.d, self.diagram_set.N
        a = v.reshape((big_n,) * (d - 1) + v.shape[1:])
        y = a.copy()
        for j in range(d - 1):
            head = (slice(None),) * j
            y[head + (slice(None, -1),)] += a[head + (slice(1, None),)]
        z = y.copy()
        # z[t] += y[t - e_j] inside the box, and a[t] on the face t_j = 0 it leaves
        for j in range(d - 1):
            head = (slice(None),) * j
            z[head + (slice(1, None),)] += y[head + (slice(None, -1),)]
            z[head + (0,)] += a[head + (0,)]
        return z.reshape(v.shape)

    def dense(self) -> np.ndarray:
        """S as a dense array, one block matvec on the identity; the entries are
        small integers, so every sum is exact."""
        return self.matvec(np.eye(self.dimension))


def score_matrix(diagram_set: DiagramSet) -> ScoreMatrix:
    """The score matrix of the viable lattice (unit and exchange moves)."""
    return ScoreMatrix(diagram_set)


def score_matrix_by_distance(diagram_set: DiagramSet) -> np.ndarray:
    """Dense score matrix from pairwise Young distances; used for cross-checks."""
    rows = diagram_set.rows
    matrix = np.array([young_distance(lam, rows) == 2 for lam in rows], dtype=float)
    np.fill_diagonal(matrix, diagram_set.d)
    return matrix


@dataclass(frozen=True, eq=False)
class FidelityResult:
    """Entanglement fidelity, its complement, and the weights that produced it."""

    fidelity: float
    error: float
    weights_used: WeightVector


def entanglement_fidelity(q: WeightVector, s: ScoreMatrix) -> FidelityResult:
    """(1/d^2) a^T S a in the amplitudes a = sqrt(q) of the weights.

    The error is a^T L a / d^2 with L = d^2 I - S = d(d-1) I - A, the lattice
    Laplacian with a Dirichlet boundary, so no fidelity near 1 is subtracted
    from 1.  Each stencil move sums (a_u - a_v)^2 over its edges in the box, and
    a move and its reverse count every edge twice.  A node with fewer than the
    d(d-1) moves inside the box lies on the boundary: each missing move adds
    a_u^2, counted twice as well.  The fidelity is 1 - error.
    """
    if not q.diagram_set.same_as(s.diagram_set):
        raise ValueError("weight vector and score matrix use different diagram sets")
    d, big_n = s.diagram_set.d, s.diagram_set.N
    a = q.amplitudes.reshape((big_n,) * (d - 1))
    missing = np.full(a.shape, d * (d - 1))
    twice = 0.0
    for t, u in _stencil_slices(d):
        twice += float(np.sum((a[t] - a[u]) ** 2))
        missing[t] -= 1
    twice += 2.0 * float(np.sum(missing * a * a))
    error = twice / (2 * d * d)
    return FidelityResult(fidelity=1.0 - error, error=error, weights_used=q)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b in numpy's own einsum loop, not BLAS: a BLAS reduction over a long vector
    wakes a second OpenBLAS thread, whose spin-wait costs CPU time and saves no wall time."""
    return float(np.einsum("i,i", a, b))


# the largest N whose sine transforms multiply by the N x N sine matrix: timed at
# d = 2-5, the product beats the padded rfft at every N up to 148, and from N = 159
# on the rfft wins at d = 3 wherever 2(N+1) has only small prime factors
_DENSE_SINE_MAX_N = 148

# multiply-adds per matmul call, so at least 23 rows up to the crossover: OpenBLAS
# (0.3.31, 2 cores) runs a call of fewer than about 2^20 on one thread, and a
# larger one wakes a second thread, which spin-waits for about 0.1 s after it
_MATMUL_BLOCK = 2**19


def _sine_work(box: tuple[int, ...]) -> np.ndarray:
    """What ``_sine_transform`` needs on ``box``: up to ``_DENSE_SINE_MAX_N``, the
    N x N matrix -sin(pi j k / (N+1)); above it, the zero rfft buffer, 2(N+1) long
    on the last axis."""
    big_n = box[-1]
    if big_n <= _DENSE_SINE_MAX_N:
        k = np.arange(1, big_n + 1)
        # j k reduced modulo 2(N+1) keeps the argument within one period
        return -np.sin(np.pi * (np.outer(k, k) % (2 * big_n + 2)) / (big_n + 1))
    return np.zeros(box[:-1] + (2 * big_n + 2,))


def _sine_transform(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Type-I sine transform of x along every axis, times -1 per axis, with the
    ``work`` array of ``_sine_work(x.shape)``.

    Up to ``_DENSE_SINE_MAX_N`` each axis is one product with the sine matrix: the
    first axis is contracted and its image put last, in row blocks of at most
    ``_MATMUL_BLOCK`` multiply-adds, so that no matmul wakes a second BLAS thread.
    Above it each axis is the imaginary part of the rfft of (0, x, 0, ..., 0),
    length 2(N+1), built in ``work``.
    """
    big_n = x.shape[-1]
    if big_n <= _DENSE_SINE_MAX_N:
        rows = _MATMUL_BLOCK // (big_n * big_n)
        shape = x.shape
        for _ in range(x.ndim):
            columns = x.reshape(big_n, -1)
            x = np.empty((columns.shape[1], big_n))
            for start in range(0, x.shape[0], rows):
                np.matmul(columns[:, start : start + rows].T, work, out=x[start : start + rows])
        return x.reshape(shape)
    rotate = (x.ndim - 1, *range(x.ndim - 1))
    for _ in range(x.ndim):
        work[..., 1 : big_n + 1] = x
        x = np.fft.rfft(work)[..., 1 : big_n + 1].imag.transpose(rotate)
    return x


def optimal_fidelity(
    s: ScoreMatrix,
    *,
    tol: float = 1e-12,
    max_iterations: int = 10**6,
) -> FidelityResult:
    """Largest eigenvalue of S over d^2, with the principal weights.

    Block-1 LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517) from the sine
    amplitudes: a Rayleigh-Ritz step on S in the span of the iterate x, the
    preconditioned residual w and the previous step p costs one matvec, S w, as
    the images of x and p are combined from the basis images.  The next p is the
    w and p part of the step, not a difference of iterates, which cancels once x
    converges (Hetmaniuk & Lehoucq, J. Comput. Phys. 218 (2006) 324).  SVQB
    orthonormalises the basis, which loses rank near convergence, and drops
    directions below 1e-10 of the largest scaled Gram eigenvalue (Stathopoulos &
    Wu, SIAM J. Sci. Comput. 23 (2002) 2165).

    The preconditioner is the inverse of the square-lattice Dirichlet Laplacian T
    on the box, a sine transform along each axis: a product with the N x N sine
    matrix, built once per call, up to ``_DENSE_SINE_MAX_N``, and a padded rfft
    above it (``_sine_transform``).  T's edges are a subset of those of
    L = d^2 I - S, also a Dirichlet Laplacian, and each exchange edge is bounded by
    two square edges: the two are spectrally equivalent with constants free of N,
    so the step count does not grow with N.  At d=2, T = L.

    We stop only on the true residual ||S v - theta v|| <= ``tol * theta`` of a
    unit vector v with theta = v^T S v: an iterate whose combined image meets the
    bound gets one confirming matvec.  ``max_iterations`` caps the number of
    matvecs, the confirming ones included.  S is non-negative and irreducible on
    the connected lattice, so the principal eigenvector is strictly positive.
    The result is ``entanglement_fidelity`` of the principal weights: the error
    a^T L a / d^2 keeps its own digits, where 1 - theta / d^2 would cancel.
    """
    if max_iterations < 1:
        raise ValueError(f"iteration cap must be positive, got {max_iterations}")
    d, big_n, dim = s.diagram_set.d, s.diagram_set.N, s.dimension
    box = (big_n,) * (d - 1)
    # T's eigenvalues, indexed like the sine transform
    modes = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, big_n + 1) / (big_n + 1))
    spectrum = functools.reduce(np.add.outer, [modes] * (d - 1))
    sine_work = _sine_work(box)
    # the trial vectors x, w, p, each beside its image S x, S w, S p, so that a step
    # updates both alike; p = 0 until the first step
    work = np.zeros((3, 2, dim))
    x_pair, w_pair, p_pair = work
    (x, sx), (w, sw), _ = work
    x[:] = sine_weights(s.diagram_set).amplitudes
    x /= math.sqrt(_dot(x, x))
    matvecs = 0

    def apply(v: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        if matvecs == max_iterations:
            raise ConvergenceError(
                f"LOBPCG on the dimension-{dim} lattice hit the {max_iterations}-matvec "
                f"cap with residual {residual:.3e} (target {tol * theta:.3e})"
            )
        matvecs += 1
        return s.matvec(v)

    sx[:] = apply(x)
    confirmed = True
    while True:
        theta = _dot(x, sx)
        r = sx - theta * x
        residual = math.sqrt(_dot(r, r))
        if residual <= tol * theta:
            if confirmed:
                return _principal_result(s, x)
            sx[:] = apply(x)
            confirmed = True
            continue
        w.reshape(box)[...] = _sine_transform(
            _sine_transform(r.reshape(box), sine_work) / spectrum, sine_work
        )
        sw[:] = apply(w)
        # vector . vector and image . vector over the trial vectors, numpy loops as in _dot
        gram, projected = np.einsum("aki,bi->kab", work, work[:, 0])
        # SVQB: scale to a unit diagonal, then drop the nearly dependent directions;
        # the zero p of the first step gets scale 0 and is dropped with them
        norms = np.sqrt(gram.diagonal())
        scale = np.divide(1.0, norms, out=np.zeros(3), where=norms > 0.0)
        sigma, u = np.linalg.eigh(gram * scale * scale[:, None])
        keep = sigma > 1e-10 * sigma[-1]
        coefficients = scale[:, None] * u[:, keep] / np.sqrt(sigma[keep])
        ritz = np.linalg.eigh(coefficients.T @ projected @ coefficients)[1][:, -1]
        # the step is c0 x + c1 w + c2 p, summed in that order; the next p is its w and
        # p part (Hetmaniuk & Lehoucq).  w and S w are recomputed before they are read
        # again, so they are scaled in place
        c0, c1, c2 = coefficients @ ritz
        w_pair *= c1
        p_pair *= c2
        x_pair *= c0
        x_pair += w_pair
        x_pair += p_pair
        p_pair += w_pair
        x_pair /= math.sqrt(_dot(x, x))
        confirmed = False


def _principal_result(s: ScoreMatrix, v: np.ndarray) -> FidelityResult:
    """The principal amplitudes |v| at unit length and their fidelity, error first,
    without cancellation."""
    if v.sum() < 0.0:  # a Ritz vector comes with either sign
        v = -v
    if float(v.min()) < -1e-10:
        raise ConvergenceError("principal eigenvector came out with negative entries")
    v = np.abs(v)
    v /= math.sqrt(_dot(v, v))
    return entanglement_fidelity(WeightVector(diagram_set=s.diagram_set, amplitudes=v), s)


def qstar_error_closed_form(d: int, big_n: int) -> float:
    """Error of the sine weights, (d-1)((d-2) e(2-e) + 2e) / d^2 with e = epsilon_g(N):
    d^2 minus their score d + (d-1)(d-2)(1-e)^2 + 2(d-1)(1-e), taken term by term
    without cancellation.  ``entanglement_fidelity`` sums it over the lattice."""
    if d < 2:
        raise ValueError(f"gate dimension must be at least 2, got {d}")
    e = epsilon_g(big_n)
    return (d - 1) * ((d - 2) * e * (2.0 - e) + 2.0 * e) / (d * d)


def lemma3_bound(d: int, n: int) -> float:
    """Guaranteed fidelity floor 1 - 2 (pi (d-1) / (d c_min n))^2 for the sine weights.

    c_min n = 2 (n - d(d-1)) / ((3d-2)(d-1)).  Negative values are returned
    as-is; callers flag them as vacuous rather than clamping.
    """
    _check_uses(n, d)
    c_min_n = 2.0 * (n - d * (d - 1)) / ((3 * d - 2) * (d - 1))
    return 1.0 - 2.0 * (math.pi * (d - 1) / (d * c_min_n)) ** 2
