"""Brute-force verification machinery, independent of the score-matrix path.

Class functions on SU(d) are integrated with a torus quadrature: a uniform
periodic grid per eigenphase direction, weighted by the squared Vandermonde of
the eigenvalues and renormalized numerically so the weights sum to one.  The
integrands of interest are trigonometric polynomials, so a sufficiently fine
grid is exact to rounding; normalizing numerically means the measure constant
is verified by the identity integral instead of being trusted.  Every
Vandermonde factor |x_i - x_j|^2 = 4 sin^2(pi (k_i - k_j) / count) of the
grid is read from one table at the integer node indices k.

Every d takes the same route, SU(2) included: its free eigenphase is
phi = theta / 2 for the rotation angle theta.  By the Weyl character formula
the probe sum_lam sqrt(q_lam) chi_lam is a ratio whose numerator is a
trigonometric polynomial in the d-1 free eigenphases with integer
frequencies, and the quadrature weight cancels its Vandermonde denominator.
So the Haar fidelity, by Parseval, is a ratio of sums of squared Fourier
coefficients and visits no node.  The outcome density that the Monte-Carlo
fit samples, weight times |probe|^2, is |Weyl numerator|^2 at every node: the
squared modulus of one inverse FFT of the same coefficients.  The explicit
character table, the only route that divides by the Vandermonde, stays for
the orthonormality check.

Also provides a Monte-Carlo reconstruction of the implemented channel's Choi
state for SU(2).  It samples the protocol itself: the error rotation's
eigenphase comes from the outcome density at the nodes of the SU(2) grid, its
axis is uniform, taken from Marsaglia's disc points without Gaussian draws, and
every sample has unit weight.  The samples are drawn in small chunks whose
buffers are reused, and only their 4x4 quaternion Gram is kept, summed in the loop.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .protocol import DiagramSet, WeightVector, viable_set


@dataclass(eq=False)
class TorusGrid:
    """The product eigenphase grid of SU(d), ``nodes_per_dim`` nodes per direction.

    Node (k_1, ..., k_{d-1}) sits at the phases 2 pi k_i / nodes_per_dim, with
    k_d = -(k_1 + ... + k_{d-1}).  ``angles`` has one row per node holding the
    d-1 free eigenphases (the last phase is minus their sum) and ``weights`` are
    the squared Vandermonde, normalized to sum to one; both are built on first
    read.  Each weight factor |x_i - x_j|^2 = 4 sin^2(pi (k_i - k_j) / count) is
    read from one table of count values, so nodes with coincident eigenvalues
    get weight exactly zero.
    """

    d: int
    nodes_per_dim: int

    def _index(self) -> tuple[np.ndarray, ...]:
        return np.ix_(*[np.arange(self.nodes_per_dim)] * (self.d - 1))

    @functools.cached_property
    def angles(self) -> np.ndarray:
        d, count = self.d, self.nodes_per_dim
        angles = np.empty((count,) * (d - 1) + (d - 1,))
        for axis, k_axis in enumerate(self._index()):
            angles[..., axis] = 2.0 * math.pi * k_axis / count
        return angles.reshape(-1, d - 1)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        d, count = self.d, self.nodes_per_dim
        index = self._index()
        sine2 = 4.0 * np.sin(math.pi * np.arange(count) / count) ** 2
        k = [*index, -sum(index)]
        weights = np.ones((count,) * (d - 1))
        for i in range(d):
            for j in range(i + 1, d):
                weights *= sine2.take(k[i] - k[j], mode="wrap")
        weights /= weights.sum()
        return weights.reshape(-1)

    def resolves(self, max_boxes: int) -> bool:
        return self.nodes_per_dim >= 4 * (max_boxes + 2)


def _eigenphases(angles: np.ndarray) -> np.ndarray:
    """All d eigenphases at every node: the d-1 free ones, then minus their sum."""
    return np.column_stack([angles, -angles.sum(axis=1)])


def su_torus_grid(d: int, max_boxes: int) -> TorusGrid:
    """Product eigenphase grid for SU(d) with squared-Vandermonde weights.

    Implemented for d in {2, 3}, with count = 4 (max_boxes + 8) nodes per
    direction, enough for the character products of the sets built here.  At
    d = 2 the free eigenphase phi = theta / 2 runs over [0, 2 pi) with weight
    4 sin^2(phi), the Haar class weight of the rotation angle theta.
    """
    if d not in (2, 3):
        raise ValueError(f"torus grid implemented for d in {{2, 3}}, got {d}")
    if max_boxes < 0:
        raise ValueError(f"degree must be non-negative, got {max_boxes}")
    return TorusGrid(d=d, nodes_per_dim=4 * (max_boxes + 8))


def su2_grid(max_boxes: int) -> TorusGrid:
    """The SU(2) eigenphase grid, ``su_torus_grid(2, max_boxes)``."""
    return su_torus_grid(2, max_boxes)


def _vandermonde(x: np.ndarray) -> np.ndarray:
    """Weyl denominator prod_{i<j} (x_i - x_j) at every row of eigenvalues ``x``."""
    d = x.shape[1]
    den = np.ones(len(x), dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            den *= x[:, i] - x[:, j]
    return den


def _schur_character_table(rows: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Characters of the diagrams ``rows`` at every grid node, as a complex (L, M) array.

    Nodes with (numerically) coincident eigenvalues carry zero Weyl weight;
    their character values are masked to zero, which leaves the quadrature
    unchanged.
    """
    d = grid.d
    full = _eigenphases(grid.angles)
    den = _vandermonde(np.exp(1j * full))
    degenerate = np.abs(den) < 1e-9

    out = np.empty((len(rows), len(full)), dtype=complex)
    for row, exps in enumerate(rows + np.arange(d - 1, -1, -1)):
        mats = np.exp(1j * full[:, :, None] * exps[None, None, :])
        vals = np.linalg.det(mats)
        vals[~degenerate] /= den[~degenerate]
        vals[degenerate] = 0.0
        out[row] = vals
    return out


def _weyl_coefficients(rows: np.ndarray, amps: np.ndarray, d: int, count: int) -> np.ndarray:
    """Fourier coefficients of sum_lam amps_lam * det(x_i^(e_j)) on the product grid.

    With e_j = rows_j + d - j, the permutation s contributes sgn(s) amps_lam
    at the frequencies e_s(i) - e_s(d), i < d, taken modulo ``count``; one
    ``bincount`` adds up all d! |set| terms.  Returns a real (count,)*(d-1)
    array indexed by frequency (first phase first).
    """
    exps = rows + np.arange(d - 1, -1, -1)
    shape = (count,) * (d - 1)
    flat, signed = [], []
    for perm in permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        e = exps[:, perm]
        flat.append(np.ravel_multi_index(tuple((e[:, :-1] - e[:, -1:]).T % count), shape))
        signed.append((-1) ** inversions * amps)
    coeff = np.bincount(
        np.concatenate(flat), weights=np.concatenate(signed), minlength=count ** (d - 1)
    )
    return coeff.reshape(shape)


def _weyl_density(rows: np.ndarray, amps: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Outcome density weights * |sum_lam amps_lam * chi_lam|^2 at every node, summing to one.

    The weight is |Vandermonde|^2 up to normalisation and chi_lam is the Weyl
    numerator over the Vandermonde, so the density is |Weyl numerator|^2, one
    inverse FFT of ``_weyl_coefficients``, normalised: no division, and nodes
    with coincident eigenvalues come out zero by themselves.  This is exact:
    the last eigenphase is minus the sum of the others and the nodes sit at
    multiples of 2 pi / nodes_per_dim, so every term of the numerator is one
    Fourier mode of the grid.
    """
    coeff = _weyl_coefficients(rows, amps, grid.d, grid.nodes_per_dim)
    density = np.abs(np.fft.ifftn(coeff).ravel()) ** 2
    return density / density.sum()


def haar_fidelity(diagram_set: DiagramSet, q: WeightVector, grid: TorusGrid) -> float:
    """Entanglement fidelity from first principles, by Haar quadrature.

    F = (1/d^2) * integral over the group of
    |chi_defining(U) * sum_lam sqrt(q_lam) chi_lam(U)|^2,
    which for class functions reduces to the torus integral on ``grid``.  On
    the product grid, weight times integrand is
    |chi_defining * Weyl numerator|^2 / sum |Vandermonde|^2, so by Parseval
    both sums are sums of squared Fourier coefficients.  chi_defining =
    x_1 + ... + x_d shifts frequencies: x_i (i < d) raises the i-th by one and
    x_d lowers all of them.  The identity integral (d! on a resolving grid) is
    computed, not trusted.  The full sum over all d! permutations is kept, so
    nothing here relies on the score-matrix identities.  q's amplitudes pair with the
    set's rows in order, so weights of another set are refused: a corner set shares
    (d, N) with its box, and only its member count tells them apart.
    """
    if grid.d != diagram_set.d:
        raise ValueError(f"grid is for d={grid.d}, set is for d={diagram_set.d}")
    if (q.d, q.N, len(q.amplitudes)) != (diagram_set.d, diagram_set.N, len(diagram_set)):
        raise ValueError("weight vector belongs to a different diagram set")
    if not grid.resolves(diagram_set.n + 1):
        raise ValueError(
            f"under-resolved grid: {grid.nodes_per_dim} nodes per direction cannot "
            f"integrate degree-{diagram_set.n + 1} characters exactly"
        )

    d = diagram_set.d
    count = grid.nodes_per_dim
    coeff = _weyl_coefficients(diagram_set.rows, q.amplitudes, d, count)
    product = np.roll(coeff, -1, axis=tuple(range(d - 1)))
    for axis in range(d - 1):
        product += np.roll(coeff, 1, axis=axis)
    vandermonde = _weyl_coefficients(np.zeros((1, d), dtype=int), np.ones(1), d, count)
    # squares summed by numpy, not BLAS: a threaded dot spins a second core
    identity = float(np.square(vandermonde).sum())
    return float(np.square(product).sum()) / (identity * d * d)


def character_orthonormality_check(grid: TorusGrid, diagrams: np.ndarray) -> float:
    """Max deviation of quadrature character inner products from orthonormality,
    over the rows of an (L, d) array of diagrams.

    Two diagrams label the same SU(d) irrep exactly when they differ by full
    columns, so the target inner product is 1 for equal reduced rows (each row
    minus the last) and 0 otherwise.
    """
    rows = np.asarray(diagrams, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != grid.d:
        raise ValueError(
            f"diagrams must be an (L, {grid.d}) array of rows to match the grid, "
            f"got shape {rows.shape}"
        )
    if np.any(rows[:, -1:] < 0) or np.any(np.diff(rows, axis=1) > 0):
        raise ValueError("diagram rows must be non-negative and non-increasing")
    max_boxes = int(rows.sum(axis=1).max(initial=0))
    if not grid.resolves(max_boxes):
        raise ValueError(
            f"under-resolved grid: {grid.nodes_per_dim} nodes per direction for "
            f"degree-{max_boxes} characters"
        )
    table = _schur_character_table(rows, grid)
    gram = (table * grid.weights) @ table.conj().T
    reduced = rows - rows[:, -1:]
    target = np.all(reduced[:, None] == reduced[None], axis=-1)
    return float(np.abs(gram - target).max(initial=0.0))


# quaternion pairs a chunk: its Gram, quat @ quat.T, is then 16 * _CHUNK = 2^19
# multiply-adds, scoring's _MATMUL_BLOCK, below the size that wakes a second BLAS thread
_CHUNK = 32_768


def _quaternion_chunks(
    cos_phi: np.ndarray, sin_phi: np.ndarray, density: np.ndarray, samples: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Exactly ``samples`` unit quaternions r = (cos(phi), sin(phi) * axis), in chunks.

    The node of phi follows ``density`` and the axis is uniform on the sphere,
    from Marsaglia's disc points (Ann. Math. Stat. 43 (1972) 645): a pair v
    uniform in [-1, 1)^2 with s = |v|^2 < 1 gives the exactly unit, exactly
    uniform axis (2 v sqrt(1 - s), 1 - 2 s), with no Gaussian draw.  Each chunk
    draws min(_CHUNK, samples) pairs, keeps the first accepted ones that are
    still needed (about pi / 4 of them), and draws the node counts of that many
    samples from one multinomial.  The draws are iid, so grouping them by node
    leaves their distribution unchanged.  Each chunk is yielded as the
    (4, count) view of one buffer, which the next chunk overwrites.
    """
    size = min(_CHUNK, samples)
    pairs, s, buffer = np.empty((2, size)), np.empty(size), np.empty((4, size))
    remaining = samples
    while remaining:
        rng.random(out=pairs)
        pairs *= 2.0
        pairs -= 1.0
        np.einsum("ij,ij->j", pairs, pairs, out=s)
        keep = np.flatnonzero(s < 1.0)[:remaining]
        count = len(keep)
        remaining -= count
        nodes = rng.multinomial(count, density)
        quat = buffer[:, :count]
        w, x, y, z = quat
        # keep indexes the chunk, so "clip" never clips; the default "raise" would
        # gather into a temporary and copy it to out
        s.take(keep, out=z, mode="clip")
        pairs[0].take(keep, out=x, mode="clip")
        pairs[1].take(keep, out=y, mode="clip")
        sin_rep = np.repeat(sin_phi, nodes)
        # w holds 2 sin(phi) sqrt(1 - s) until the last line
        np.subtract(1.0, z, out=w)
        np.sqrt(w, out=w)
        w *= 2.0
        w *= sin_rep
        x *= w
        y *= w
        z *= -2.0
        z += 1.0
        z *= sin_rep
        w[:] = np.repeat(cos_phi, nodes)
        # not held across the yield, where they would meet the next chunk's copies
        del keep, nodes, sin_rep
        yield quat


class ChoiFit(NamedTuple):
    """Least-squares fit of the Monte-Carlo Choi state to the covariant form:
    a is the quaternion Gram's vector share, and the residual its Frobenius
    distance from diag(1 - a, a/3, a/3, a/3)."""

    a: float
    residual: float


def validate_sampling(samples: int, seed: int) -> None:
    """Reject a Monte-Carlo request too small for a stable fit or with a negative seed."""
    if samples < 10**5:
        raise ValueError(f"need at least 1e5 samples for a stable fit, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def choi_monte_carlo_su2(
    n: int, q: WeightVector, samples: int, seed: int
) -> ChoiFit:
    """Monte-Carlo Choi state of the measure-and-operate channel at the identity.

    Simulates the protocol: the error rotation of the estimate has its
    eigenphase phi drawn from the outcome density |sum_lam sqrt(q_lam) chi_lam|^2
    times the Haar class weight, at the nodes of ``su2_grid(n + 1)``, and its
    axis drawn uniformly from Marsaglia's disc points.  Each quaternion
    r = (cos(phi), sin(phi) * axis) enters the 4x4 Choi matrix with unit
    weight and unit trace; the mean is fitted to the one-parameter covariant form
    (1 - a) * Phi+ + a * (I - Phi+) / 3.  Returns the least-squares a and the
    Frobenius residual of the fit.  The rows are ``viable_set(n, 2)``'s, and weights
    whose N is not n's are refused.

    Drawing the eigenphase from grid nodes is exact, not an approximation:
    averaged over the axis, the Choi integrand is an even trigonometric
    polynomial in phi that the grid integrates exactly, as in ``haar_fidelity``,
    whose Weyl coefficients it shares (``_weyl_density``).

    The samples come in chunks of at most 32768 (``_quaternion_chunks``): each chunk
    draws its node counts from one multinomial and repeats every node's angle that
    many times, and its Gram is summed before the next chunk reuses its few small
    buffers, so the memory does not grow with ``samples``.  The Choi vector of a
    sample is vec(U) / sqrt(2) = V r for the SU(2) matrix U of r, where the fixed
    4x4 V is unitary and sends e_0 to Phi+.  So in quaternion coordinates the Choi
    matrix is G / samples, for the real Gram G = sum r r^T, and the covariant form
    is diag(1 - a, a/3, a/3, a/3).  For a unit-trace Gram the least-squares a is the
    vector share (G_11 + G_22 + G_33) / samples, the mean of sin^2(phi), formed
    without cancellation.

    One call consumes one deterministic stream keyed by ``seed``; parallel
    callers must use distinct seeds.
    """
    if q.d != 2:
        raise ValueError(f"Monte-Carlo check implemented for d=2, got d={q.d}")
    diagram_set = viable_set(n, 2)
    if q.N != diagram_set.N:
        raise ValueError(f"weight vector is for N={q.N}, not for n={n}, whose N is {diagram_set.N}")
    validate_sampling(samples, seed)

    grid = su2_grid(n + 1)
    density = _weyl_density(diagram_set.rows, q.amplitudes, grid)
    phis = grid.angles[:, 0]
    gram = sum(quat @ quat.T for quat in _quaternion_chunks(
        np.cos(phis), np.sin(phis), density, samples, np.random.default_rng(seed)))

    a_fit = float(gram[1, 1] + gram[2, 2] + gram[3, 3]) / samples
    model = np.diag([1.0 - a_fit, a_fit / 3.0, a_fit / 3.0, a_fit / 3.0])
    residual = float(np.linalg.norm(gram / samples - model))
    return ChoiFit(a=a_fit, residual=residual)
