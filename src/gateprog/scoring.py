"""Score matrix over a diagram lattice and the fidelity quadratic form.

The score matrix has diagonal d and off-diagonal 1 exactly between diagrams at
Young distance 2; on the viable lattice those are the unit moves +/-e_i and the
exchange moves +/-(e_i - e_j).  The entanglement fidelity of weights q is
(1/d^2) a^T S a in their amplitudes a = sqrt(q), the form ``WeightVector``
holds, and the optimum over weights is the largest eigenvalue of S divided by
d^2.  Nothing here builds S as a dense matrix: ``verify``'s eigenvalue oracle builds
its d=2 chain itself, and the tests build S from the matvec and from pairwise Young
distances.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .protocol import (
    DiagramSet, WeightVector, _check_members, _check_uses, epsilon_g, sine_weights,
)


class ConvergenceError(RuntimeError):
    """The eigensolver failed to reach the requested residual."""


@functools.cache
def _edge_slices(d: int) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
    """(tail, head) slice pairs on the (N,)*(d-1) box, one per undirected edge
    direction e, i.e. e_i and e_i - e_j for i < j: a[tail] and a[head] hold the two
    ends t and t + e of every edge along e inside the box."""
    shift = {1: (slice(None, -1), slice(1, None)), -1: (slice(1, None), slice(None, -1)),
             0: (slice(None), slice(None))}
    unit = np.eye(d - 1, dtype=int)
    i, j = np.triu_indices(d - 1, 1)
    directions = np.concatenate([unit, unit[i] - unit[j]]).tolist()
    return tuple(tuple(zip(*(shift[m] for m in e))) for e in directions)


@dataclass(frozen=True)
class ScoreMatrix:
    """Sparse symmetric score matrix on the (N,)*(d-1) lattice box, applied in its
    Pieri form.

    B, the Pieri map that removes one box, sends a to y[t] = a[t] + sum_j a[t + e_j],
    and its transpose sends y to y[t] + sum_j y[t - e_j], both sums taken inside the
    box.  B^T B has every unit and exchange move once and a[t] d - c(t) times, c(t)
    being the number of coordinates of t that are 0, so S = B^T B + c: the matvec is
    3(d-1) adds, where a neighbour sum over ``_edge_slices`` takes d(d-1).  S
    depends on the box alone, so every n of one (d, N) box shares it, and equal boxes
    compare and hash alike: ``functools.cache(optimal_fidelity)`` solves each box once.
    """

    d: int
    N: int

    @property
    def dimension(self) -> int:
        return self.N ** (self.d - 1)

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """S v for a vector v over the members, or for each column of an (M, k) block,
        written into ``out``, a contiguous array of v's shape apart from v, or else into
        a new array, and returned.  B a takes the one temporary of v's size.

        Each shift along an axis is one add of the flat arrays offset by that axis's
        stride, which numpy runs without the buffers of a strided add.  It also
        reaches across the face it should stop at, so that face, 1/N of v, is kept
        aside and put back: each entry gets the same sums as by slices of the box.
        """
        d, big_n = self.d, self.N
        a = v.reshape(-1)
        y = a.copy()
        step = a.size
        for _ in range(d - 1):
            step //= big_n
            # y[t] += a[t + e_j] inside the box: the face t_j = N-1 keeps its value
            last = y.reshape(-1, big_n, step)[:, -1]
            kept = last.copy()
            y[:-step] += a[step:]
            last[...] = kept
        if out is None:
            out = np.empty(v.shape, v.dtype)
        z = out.reshape(-1)
        z[...] = y
        step = a.size
        for _ in range(d - 1):
            step //= big_n
            # z[t] += y[t - e_j] inside the box, and a[t] on the face t_j = 0 it leaves
            first = z.reshape(-1, big_n, step)[:, 0]
            face = first + a.reshape(-1, big_n, step)[:, 0]
            z[step:] += y[:-step]
            first[...] = face
        return out

    def start(self) -> np.ndarray:
        """The solver's start, the sine amplitudes of the box."""
        return sine_weights(self).amplitudes

    def preconditioner(self) -> Callable[[np.ndarray, np.ndarray], None]:
        """A function (r, w) that writes ((N+1)/2)^(d-1) T^-1 r into w, r and w
        contiguous and r possibly w itself, T the square-lattice Dirichlet Laplacian
        on the box, built once per solve with every buffer it uses; the solver's step
        does not depend on the scale.

        T^-1 is a sine transform along each axis, a division by T's eigenvalues and
        the transform again; the transform is unnormalised, and twice over it
        multiplies by (N+1)/2 per axis.  The route is chosen here, once per box: up
        to ``_DENSE_SINE_MAX_N`` each axis is one product with the N x N matrix
        -sin(pi j k / (N+1)), the first axis contracted and its image put last, in
        row blocks of at most ``_MATMUL_BLOCK`` multiply-adds, so that no matmul
        wakes a second BLAS thread, and through one image buffer; above it each axis
        is the imaginary part of the rfft of (0, x, 0, ..., 0), length 2(N+1), built
        in one zero buffer, in row blocks of at most ``_MATMUL_BLOCK`` values written
        straight into w.  The eigenvalues are formed a block of lines at a time, so
        no array of them is box-sized.  T's edges are a subset of those of
        L = d^2 I - S, also a Dirichlet Laplacian, and each exchange edge is bounded
        by two square edges: the two are spectrally equivalent with constants free
        of N, so the solver's step count does not grow with N.  At d=2, T = L.
        """
        big_n, axes = self.N, self.d - 1
        # T's eigenvalues, indexed like the sine transform, are lead + modes along the
        # last axis, lead summing the modes of the others in the same order
        modes = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, big_n + 1) / (big_n + 1))
        lead = functools.reduce(np.add.outer, [modes] * (axes - 1), np.zeros(1)).ravel()
        if big_n <= _DENSE_SINE_MAX_N:
            k = np.arange(1, big_n + 1)
            # j k reduced modulo 2(N+1) keeps the argument within one period
            sines = -np.sin(np.pi * (np.outer(k, k) % (2 * big_n + 2)) / (big_n + 1))
            rows = _MATMUL_BLOCK // (big_n * big_n)
            # a product reads its source while it writes its target, so they differ
            image = np.empty(lead.size * big_n)

            def axis(source: np.ndarray, target: np.ndarray) -> None:
                # the first axis transformed, its image put last
                columns, lines = source.reshape(big_n, -1), target.reshape(-1, big_n)
                for start in range(0, len(lines), rows):
                    np.matmul(columns[:, start : start + rows].T, sines,
                              out=lines[start : start + rows])
        else:
            padded = np.zeros((lead.size, 2 * big_n + 2))
            rows = max(1, _MATMUL_BLOCK // (2 * big_n + 2))
            # the source is read into padded first, so the target may be the source
            image = None

            def axis(source: np.ndarray, target: np.ndarray) -> None:
                # the last axis transformed, its image put first
                padded[:, 1 : big_n + 1] = source.reshape(-1, big_n)
                lines = target.reshape(big_n, -1).T
                for start in range(0, len(lines), rows):
                    lines[start : start + rows] = np.fft.rfft(
                        padded[start : start + rows])[:, 1 : big_n + 1].imag

        def precondition(r: np.ndarray, w: np.ndarray) -> None:
            # the 2(d-1) axis passes alternate between image, if the route has one, and
            # w, so the last lands in w and r is read before w is written: r may be w
            source = r
            for step in range(2 * axes):
                target = w if step % 2 or image is None else image
                axis(source, target)
                if step == axes - 1:
                    lines = target.reshape(-1, big_n)
                    for start in range(0, len(lines), rows):
                        block = slice(start, start + rows)
                        lines[block] /= np.add.outer(lead[block], modes)
                source = target

        return precondition

    def error_form(self, v: np.ndarray) -> FidelityResult:
        """``entanglement_fidelity`` of the weights whose amplitudes are v: the error
        keeps its own digits, where 1 - theta / d^2 would cancel."""
        return entanglement_fidelity(WeightVector(self.d, self.N, v), self)


def score_matrix(diagram_set: DiagramSet) -> ScoreMatrix:
    """The score matrix of the viable lattice (unit and exchange moves) on its box.
    Only the box is read, the same for a corner set, so a solve needs no rows."""
    return ScoreMatrix(diagram_set.d, diagram_set.N)


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
    from 1: (a_u - a_v)^2 summed once over each edge of the box, plus m_t a_t^2 at
    each node t.  A row of S sums to d plus the node's neighbours in the box, so the
    small integer m_t = d^2 - (S 1)_t, exact in floating point, counts the moves
    from t that leave it.  The fidelity is 1 - error.
    """
    d, big_n = s.d, s.N
    if (q.d, q.N) != (d, big_n):
        raise ValueError("weight vector and score matrix use different diagram sets")
    a = q.amplitudes.reshape((big_n,) * (d - 1))
    missing = d * d - s.matvec(np.ones(a.size)).reshape(a.shape)
    error = 0.0
    for tail, head in _edge_slices(d):
        error += float(np.sum((a[tail] - a[head]) ** 2))
    error += float(np.sum(missing * a * a))
    error /= d * d
    return FidelityResult(fidelity=1.0 - error, error=error, weights_used=q)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b in numpy's own einsum loop, not BLAS: a BLAS reduction over a long vector
    wakes a second OpenBLAS thread, whose spin-wait costs CPU time and saves no wall time."""
    return float(np.einsum("i,i", a, b))


# the largest N whose sine transforms multiply by the N x N sine matrix: timed at
# d = 2-5, the product beats the padded rfft at every N up to 148, and from N = 159
# on the rfft wins at d = 3 wherever 2(N+1) has only small prime factors
_DENSE_SINE_MAX_N = 148

# multiply-adds per matmul call, so at least 23 rows of a sine-matrix product up to
# the crossover and 29,127 members of the trial Gram: OpenBLAS (0.3.31, 2 cores)
# runs a call of fewer than about 2^20 on one thread, and a larger one wakes a
# second thread, which spin-waits for about 0.1 s after it
_MATMUL_BLOCK = 2**19


def _trial_products(work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix x_a . x_b and the projected matrix (S x_a) . x_b of the three
    trial vectors x_a, with ``work`` holding each beside its image, shape (3, 2, M).

    One matmul of the six rows of ``work`` against the three vectors, in blocks of
    members of at most ``_MATMUL_BLOCK`` multiply-adds, so that no matmul wakes a
    second BLAS thread.
    """
    rows, vectors = work.reshape(6, -1), work[:, 0]
    members = _MATMUL_BLOCK // 18
    products = np.zeros((6, 3))
    for start in range(0, rows.shape[1], members):
        products += rows[:, start : start + members] @ vectors[:, start : start + members].T
    gram, projected = products.reshape(3, 2, 3).transpose(1, 0, 2)
    return gram, projected


# the solver's relative residual target and its cap on matvecs, set by no caller
_TOL = 1e-12
_MAX_MATVECS = 10**6


def optimal_fidelity(s: ScoreMatrix) -> FidelityResult:
    """The error form of the principal eigenvector of the operator s: for a
    ``ScoreMatrix``, the largest eigenvalue of S over d^2, with the principal weights.

    Block-1 LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517) from the
    operator's start: a Rayleigh-Ritz step on S in the span of the iterate x, the
    preconditioned residual w and the previous step p costs one matvec, S w, as
    the images of x and p are combined from the basis images.  The next p is the
    w and p part of the step, not a difference of iterates, which cancels once x
    converges (Hetmaniuk & Lehoucq, J. Comput. Phys. 218 (2006) 324).  SVQB
    orthonormalises the basis, which loses rank near convergence, and drops
    directions below 1e-10 of the largest scaled Gram eigenvalue (Stathopoulos &
    Wu, SIAM J. Sci. Comput. 23 (2002) 2165).

    The loop reads five things of s, and a ``ScoreMatrix``, the package's one
    operator, gives each for its box:
    - ``s.dimension``, the length of its vectors, refused past ``MAX_MEMBERS``
      before anything of that length is built;
    - ``s.matvec(v, out)``, S v written into out and returned, by the Pieri form;
    - ``s.start()``, a vector not orthogonal to the principal one: the sine
      amplitudes;
    - ``s.preconditioner()``, built once per solve, a function (r, w) that writes
      ((N+1)/2)^(d-1) T^-1 r into w, called with r = w: the sine-transform inverse
      of the square-lattice Laplacian, scaled, which leaves the step unchanged;
    - ``s.error_form(v)``, the result at the unit principal vector v:
      ``entanglement_fidelity`` of the weights whose amplitudes are v.

    We stop only on the true residual ||S v - theta v|| <= ``_TOL * theta`` of a
    unit vector v with theta = v^T S v: an iterate whose combined image meets the
    bound gets one confirming matvec.  ``_MAX_MATVECS`` caps the number of
    matvecs, the confirming ones included.  The Perron step then assumes S
    symmetric, non-negative and irreducible, as S is on the connected lattice, so
    that the principal eigenvector is strictly positive: v takes the sign of its
    sum, an entry below -1e-10 raises ``ConvergenceError``, and the error form
    reads |v| at unit length.

    Of the operator's length a step holds the trial block and the preconditioner's
    buffers, each allocated once per solve, and the matvec's one temporary.  Only
    |v| outlives the loop into the error form, which builds vectors of its own.
    """
    dim = s.dimension
    _check_members("dimension", dim, 1)
    # the start is taken before the solve's own vectors are built, so that its
    # temporaries come and go first
    start = s.start()
    precondition = s.preconditioner()
    # the trial vectors x, w, p, each beside its image S x, S w, S p, so that a step
    # updates both alike; p = 0 until the first step
    work = np.zeros((3, 2, dim))
    x_pair, w_pair, p_pair = work
    (x, sx), (w, sw) = x_pair, w_pair
    x[:] = start
    del start
    x /= math.sqrt(_dot(x, x))
    s.matvec(x, sx)
    matvecs, confirmed = 1, True
    while True:
        theta = _dot(x, sx)
        # the residual S x - theta x, in w's slot: the step preconditions it there
        np.multiply(x, theta, out=w)
        np.subtract(sx, w, out=w)
        residual = math.sqrt(_dot(w, w))
        converged = residual <= _TOL * theta
        if converged and confirmed:
            break
        # every later pass makes one matvec, the confirming S x or S w
        if matvecs >= _MAX_MATVECS:
            raise ConvergenceError(
                f"LOBPCG on the dimension-{dim} lattice hit the {_MAX_MATVECS}-matvec "
                f"cap with residual {residual:.3e} (target {_TOL * theta:.3e})"
            )
        matvecs += 1
        if converged:
            s.matvec(x, sx)
            confirmed = True
            continue
        precondition(w, w)
        s.matvec(w, sw)
        gram, projected = _trial_products(work)
        # SVQB: scale to a unit diagonal, then drop the nearly dependent directions;
        # the zero p of the first step gets scale 0 and is dropped with them
        norms = np.sqrt(gram.diagonal())
        scale = np.divide(1.0, norms, out=np.zeros(3), where=norms > 0.0)
        sigma, u = np.linalg.eigh(gram * scale * scale[:, None])
        keep = sigma > 1e-10 * sigma[-1]
        coefficients = scale[:, None] * u[:, keep] / np.sqrt(sigma[keep])
        ritz = np.linalg.eigh(coefficients.T @ projected @ coefficients)[1][:, -1]
        # the next p is the step's w and p part, c1 w + c2 p (Hetmaniuk & Lehoucq), and
        # the step is c0 x + p.  w and S w are recomputed before they are read again,
        # so they are scaled in place
        c0, c1, c2 = coefficients @ ritz
        p_pair *= c2
        w_pair *= c1
        p_pair += w_pair
        x_pair *= c0
        x_pair += p_pair
        x_pair /= math.sqrt(_dot(x, x))
        confirmed = False
    if x.sum() < 0.0:  # a Ritz vector comes with either sign
        np.negative(x, out=x)
    if float(x.min()) < -1e-10:
        raise ConvergenceError("principal eigenvector came out with negative entries")
    x = np.abs(x)
    # only x outlives the loop: the error form builds box-sized vectors of its own
    del work, x_pair, w_pair, p_pair, sx, w, sw, precondition
    x /= math.sqrt(_dot(x, x))
    return s.error_form(x)


def qstar_error_closed_form(d: int, big_n: int) -> float:
    """Error of the sine weights, (d-1)((d-2) e(2-e) + 2e) / d^2 with e = epsilon_g(N):
    d^2 minus their score d + (d-1)(d-2)(1-e)^2 + 2(d-1)(1-e), taken term by term
    without cancellation.  ``entanglement_fidelity`` sums it over the lattice; the
    report reads this form, and ``verify`` checks it against that sum."""
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
