"""Brute-force verification machinery, independent of the score-matrix path.

Class functions on SU(d) are integrated with a torus quadrature: a uniform
periodic grid per eigenphase direction, weighted by the squared Vandermonde of
the eigenvalues and renormalized numerically so the weights sum to one.  The
integrands of interest are trigonometric polynomials, so a sufficiently fine
grid is exact to rounding; normalizing numerically means the measure constant
is verified by the identity integral instead of being trusted.

Every d takes the same route, SU(2) included: its free eigenphase is
phi = theta / 2 for the rotation angle theta.  The Haar fidelity never
tabulates characters.  By the Weyl character formula the probe
sum_lam sqrt(q_lam) chi_lam is a ratio whose numerator is a trigonometric
polynomial in the d-1 free eigenphases with integer frequencies; on the
uniform product grid that polynomial is exactly a discrete Fourier transform,
so one inverse FFT evaluates it at every node in O(M log M) time and O(M)
memory for M nodes.  The explicit character table stays only for the
orthonormality check.

Also provides a Monte-Carlo reconstruction of the implemented channel's Choi
state for SU(2).  It samples the protocol itself: the error rotation's
eigenphase comes from the outcome density at the nodes of the SU(2) grid, its
axis is uniform, and every sample has unit weight.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple, Sequence

import numpy as np

from .protocol import DiagramSet, WeightVector
from .young import YoungDiagram, irrep_dimension


@dataclass(eq=False)
class TorusGrid:
    """Quadrature nodes on the eigenphase torus of SU(d).

    ``angles`` has one row per node holding the d-1 free eigenphases (the last
    phase is minus their sum); ``weights`` are normalized to sum to one.
    """

    d: int
    angles: np.ndarray
    weights: np.ndarray
    nodes_per_dim: int

    def __post_init__(self) -> None:
        self.angles = np.asarray(self.angles, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.angles.shape != (len(self.weights), self.d - 1):
            raise ValueError(
                f"angles have shape {self.angles.shape}, expected "
                f"({len(self.weights)}, {self.d - 1})"
            )
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0.0)):
            raise ValueError("weights must be finite and non-negative")
        total = float(self.weights.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")

    def resolves(self, max_boxes: int) -> bool:
        return self.nodes_per_dim >= 4 * (max_boxes + 2)


def _eigenphases(angles: np.ndarray) -> np.ndarray:
    """All d eigenphases at every node: the d-1 free ones, then minus their sum."""
    return np.column_stack([angles, -angles.sum(axis=1)])


def su_torus_grid(d: int, max_boxes: int) -> TorusGrid:
    """Product eigenphase grid for SU(d) with squared-Vandermonde weights.

    Implemented for d in {2, 3}, with 4 (max_boxes + 8) nodes per direction,
    enough for the character products of the sets built here.  At d = 2 the
    free eigenphase phi = theta / 2 runs over [0, 2 pi) with weight
    4 sin^2(phi), the Haar class weight of the rotation angle theta.
    """
    if d not in (2, 3):
        raise ValueError(f"torus grid implemented for d in {{2, 3}}, got {d}")
    if max_boxes < 0:
        raise ValueError(f"degree must be non-negative, got {max_boxes}")
    count = 4 * (max_boxes + 8)
    line = 2.0 * math.pi * np.arange(count) / count
    axes = np.meshgrid(*[line] * (d - 1), indexing="ij")
    angles = np.column_stack([axis.ravel() for axis in axes])
    weights = np.abs(_vandermonde(np.exp(1j * _eigenphases(angles)))) ** 2
    weights /= weights.sum()
    return TorusGrid(d=d, angles=angles, weights=weights, nodes_per_dim=count)


def su2_grid(max_boxes: int) -> TorusGrid:
    """The SU(2) eigenphase grid, ``su_torus_grid(2, max_boxes)``."""
    return su_torus_grid(2, max_boxes)


def schur_character(diagram: YoungDiagram, phases: Sequence[complex]) -> complex:
    """Character of the irrep ``diagram`` at the given eigenvalues.

    Bialternant ratio det(x_i^(rows_j + d - j)) / det(x_i^(d - j)).  Coincident
    eigenvalues are nudged apart by a 1e-9 phase jitter, except the fully
    degenerate point, which returns dim * (common phase)^boxes exactly.
    """
    d = diagram.d
    if len(phases) != d:
        raise ValueError(f"need {d} eigenvalues, got {len(phases)}")
    x = [complex(p) for p in phases]

    if all(abs(x[i] - x[0]) < 1e-12 for i in range(1, d)):
        return irrep_dimension(diagram.rows) * x[0] ** diagram.boxes()

    if any(
        abs(x[i] - x[j]) < 1e-9 for i in range(d) for j in range(i + 1, d)
    ):
        x = [xi * cmath.exp(1j * 1e-9 * (k + 1)) for k, xi in enumerate(x)]

    exps = [diagram.rows[j] + d - (j + 1) for j in range(d)]
    num = np.array([[xi**e for e in exps] for xi in x], dtype=complex)
    den = np.array([[xi ** (d - (j + 1)) for j in range(d)] for xi in x], dtype=complex)
    return complex(np.linalg.det(num) / np.linalg.det(den))


def su2_character(diagram: YoungDiagram, theta: float) -> float:
    """SU(2) character sin(k theta / 2) / sin(theta / 2) with k = rows[0] - rows[1] + 1.

    The removable singularities at theta = 0 and 2 pi are filled with the
    analytic limit.
    """
    if diagram.d != 2:
        raise ValueError(f"expected a two-row diagram, got d={diagram.d}")
    k = diagram.rows[0] - diagram.rows[1] + 1
    half = theta / 2.0
    s = math.sin(half)
    if abs(s) < 1e-9:
        return k * math.cos(k * half) / math.cos(half)
    return math.sin(k * half) / s


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


def _weyl_numerator(rows: np.ndarray, amps: np.ndarray, d: int, count: int) -> np.ndarray:
    """sum_lam amps_lam * det(x_i^(e_j)) at every node of the product grid, by one FFT.

    With e_j = rows_j + d - j, the permutation s contributes sgn(s) times the
    Fourier mode of frequencies e_s(i) - e_s(d), i < d, taken modulo ``count``.
    Values come ravelled in the grid's node order (first phase most significant).
    """
    exps = rows + np.arange(d - 1, -1, -1)
    shape = (count,) * (d - 1)
    coeff = np.zeros(count ** (d - 1))
    for perm in permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        e = exps[:, perm]
        flat = np.ravel_multi_index(tuple((e[:, :-1] - e[:, -1:]).T % count), shape)
        coeff += (-1) ** inversions * np.bincount(flat, weights=amps, minlength=coeff.size)
    return (np.fft.ifftn(coeff.reshape(shape)) * coeff.size).ravel()


def _weyl_probe(
    rows: np.ndarray, amps: np.ndarray, grid: TorusGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues x and sum_lam amps_lam * chi_lam at every node of the product grid.

    The probe is the Weyl numerator (see ``_weyl_numerator``) over the
    Vandermonde denominator; nodes where the denominator vanishes carry zero
    weight and get probe zero.  This is exact, not an approximation: the last
    eigenphase is minus the sum of the others and the nodes sit at multiples of
    2 pi / nodes_per_dim, so every term of the numerator is one Fourier mode of
    the grid.  ``grid`` must therefore be the full product grid of
    nodes_per_dim^(d-1) nodes.
    """
    x = np.exp(1j * _eigenphases(grid.angles))
    den = _vandermonde(x)
    regular = np.abs(den) >= 1e-9
    numerator = _weyl_numerator(rows, amps, grid.d, grid.nodes_per_dim)
    probe = np.zeros(len(x), dtype=complex)
    probe[regular] = numerator[regular] / den[regular]
    return x, probe


def haar_fidelity(diagram_set: DiagramSet, q: WeightVector, grid: TorusGrid) -> float:
    """Entanglement fidelity from first principles, by Haar quadrature.

    F = (1/d^2) * integral over the group of
    |chi_defining(U) * sum_lam sqrt(q_lam) chi_lam(U)|^2,
    which for class functions reduces to the torus integral on ``grid``.  The
    probe comes from one inverse FFT of the Weyl numerator at every d (see
    ``_weyl_probe``), and chi_defining is the sum of the eigenvalues.
    """
    if grid.d != diagram_set.d:
        raise ValueError(f"grid is for d={grid.d}, set is for d={diagram_set.d}")
    if not q.diagram_set.same_as(diagram_set):
        raise ValueError("weight vector belongs to a different diagram set")
    if not grid.resolves(diagram_set.n + 1):
        raise ValueError(
            f"under-resolved grid: {grid.nodes_per_dim} nodes per direction cannot "
            f"integrate degree-{diagram_set.n + 1} characters exactly"
        )

    d = diagram_set.d
    count = grid.nodes_per_dim
    if len(grid.weights) != count ** (d - 1):
        raise ValueError(
            f"not a product grid: {len(grid.weights)} nodes, expected "
            f"{count}^{d - 1} = {count ** (d - 1)}"
        )

    x, probe = _weyl_probe(diagram_set.rows, np.sqrt(q.probabilities), grid)
    integrand = np.abs(x.sum(axis=1) * probe) ** 2
    return float(grid.weights @ integrand) / (d * d)


def character_orthonormality_check(
    grid: TorusGrid, diagrams: Sequence[YoungDiagram]
) -> float:
    """Max deviation of quadrature character inner products from orthonormality.

    Two diagrams label the same SU(d) irrep exactly when they differ by full
    columns, so the target inner product is 1 for equal reduced rows and 0
    otherwise.
    """
    if any(lam.d != grid.d for lam in diagrams):
        raise ValueError("all diagrams must match the grid dimension")
    max_boxes = max((lam.boxes() for lam in diagrams), default=0)
    if not grid.resolves(max_boxes):
        raise ValueError(
            f"under-resolved grid: {grid.nodes_per_dim} nodes per direction for "
            f"degree-{max_boxes} characters"
        )
    rows = np.array([lam.rows for lam in diagrams]).reshape(-1, grid.d)
    table = _schur_character_table(rows, grid)
    gram = (table * grid.weights) @ table.conj().T
    worst = 0.0
    for i, lam in enumerate(diagrams):
        for j, mu in enumerate(diagrams):
            target = 1.0 if lam.reduced_rows() == mu.reduced_rows() else 0.0
            worst = max(worst, float(abs(gram[i, j] - target)))
    return worst


class ChoiFit(NamedTuple):
    """Least-squares fit of the Monte-Carlo Choi state to the covariant form."""

    a: float
    residual: float


def choi_monte_carlo_su2(
    n: int, q: WeightVector, samples: int, seed: int
) -> ChoiFit:
    """Monte-Carlo Choi state of the measure-and-operate channel at the identity.

    Simulates the protocol: the error rotation of the estimate has its
    eigenphase phi drawn from the outcome density |sum_lam sqrt(q_lam) chi_lam|^2
    times the Haar class weight, at the nodes of ``su2_grid(n + 1)``, and its
    axis drawn uniformly.  Each quaternion r = (cos(phi), sin(phi) * axis)
    enters the 4x4 Choi matrix with unit weight and unit trace; the mean is
    fitted to the one-parameter covariant form
    (1 - a) * Phi+ + a * (I - Phi+) / 3.  Returns the fitted a and the
    Frobenius residual of the fit.

    Drawing the eigenphase from grid nodes is exact, not an approximation:
    averaged over the axis, the Choi integrand is an even trigonometric
    polynomial in phi that the grid integrates exactly, as in ``haar_fidelity``,
    whose probe it shares.

    Each chunk draws its node counts from one multinomial and repeats every
    node's angle that many times.  The draws are iid, so grouping them by node
    leaves their distribution unchanged.  The Choi vector of a sample is
    M r for a fixed complex 4x4 M, so the samples only enter the real 4x4
    Gram G = sum r r^T, and the Choi matrix is M G M^dagger / samples.

    One call consumes one deterministic stream keyed by ``seed``; parallel
    callers must use distinct seeds.
    """
    diagram_set = q.diagram_set
    if diagram_set.d != 2:
        raise ValueError(f"Monte-Carlo check implemented for d=2, got d={diagram_set.d}")
    if diagram_set.n != n:
        raise ValueError(f"weight vector is for n={diagram_set.n}, not n={n}")
    if samples < 10**5:
        raise ValueError(f"need at least 1e5 samples for a stable fit, got {samples}")

    # eigenphase distribution; sums to 1 by character orthonormality up to
    # rounding, which the renormalisation removes
    grid = su2_grid(n + 1)
    _, probe = _weyl_probe(diagram_set.rows, np.sqrt(q.probabilities), grid)
    density = grid.weights * np.abs(probe) ** 2
    density /= density.sum()
    phis = grid.angles[:, 0]
    cos_phi, sin_phi = np.cos(phis), np.sin(phis)

    rng = np.random.default_rng(seed)
    gram = np.zeros((4, 4))
    chunk_size = 250_000
    buffer = np.empty(4 * min(chunk_size, samples))
    remaining = samples
    while remaining:
        count = min(chunk_size, remaining)
        remaining -= count
        nodes = rng.multinomial(count, density)
        quat = buffer[: 4 * count].reshape(4, count)
        rng.standard_normal(out=quat[1:])
        scale = np.repeat(sin_phi, nodes)
        scale /= np.sqrt(np.einsum("ij,ij->j", quat[1:], quat[1:]))
        quat[1:] *= scale
        quat[0] = np.repeat(cos_phi, nodes)
        gram += quat @ quat.T

    # m r = vec(U) for the SU(2) matrix U of r = (w, x, y, z); the Choi vector
    # is vec(U) / sqrt(2), hence the factor 2 below
    m = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]])
    choi = m @ (gram / (2.0 * samples)) @ m.conj().T

    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    proj = np.outer(phi, phi.conj())
    rho_perp = (np.eye(4) - proj) / 3.0
    direction = rho_perp - proj
    a_fit = float(
        np.real(np.vdot(direction, choi - proj)) / np.real(np.vdot(direction, direction))
    )
    model = (1.0 - a_fit) * proj + a_fit * rho_perp
    residual = float(np.linalg.norm(choi - model))
    return ChoiFit(a=a_fit, residual=residual)
