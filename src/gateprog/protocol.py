"""Construction of the estimation protocol's probe support and weights.

Builds the capacity parameter N, the flat base diagram, the viable lattice of
strictly-decreasing diagrams with n boxes, and the product sine weights over
that lattice.  Weights q are held as their amplitudes sqrt(q), the form every
fidelity reads, and the 1-D sine amplitudes are built in one place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


# Most members built at once: ``viable_set`` refuses a larger set or corner, and
# ``optimal_fidelity`` a larger operator, as its LOBPCG solve holds about ten float
# vectors that long.  A report builds a corner and, at d >= 3, solves its box.
MAX_MEMBERS = 2**20


class ProtocolError(ValueError):
    """A precondition of the protocol construction is violated."""


def _check_uses(n: int, d: int) -> None:
    if d < 2:
        raise ProtocolError(f"gate dimension must be at least 2, got d={d}")
    least = 2 * d * (d - 1)
    if n < least:
        raise ProtocolError(
            f"insufficient uses: n={n} is below the required minimum of "
            f"2*d*(d-1) = {least} for d={d}"
        )


def _lattice_parameters(n: int, d: int) -> tuple[int, int]:
    """Raw (N, n0) pair, exact integer arithmetic, no N >= 2 guard."""
    big_n = (2 * n + (d - 2) * (d - 1)) // ((3 * d - 2) * (d - 1))
    # the offset is an integer, as (d-1) is even for odd d and (3d-2), (d-2) are even
    # for even d; and n0 >= 0, as the floor makes (3d-2)(d-1)N <= 2n + (d-2)(d-1)
    return big_n, n - ((3 * d - 2) * big_n - d + 2) * (d - 1) // 2


def _check_members(name: str, base: int, power: int, where: str = "") -> None:
    """Refuse ``name`` = base^power members over ``MAX_MEMBERS``, before they are built.
    From power = 21 on a base of 2 or more is over without forming base^power, which may
    run to millions of digits: past 64 bits the count is left out, the base given in bits."""
    if base > 1 and (power >= MAX_MEMBERS.bit_length() or base**power > MAX_MEMBERS):
        bits = base.bit_length()
        named = base if bits <= 64 else f"({bits}-bit number)"
        size = f" = {base ** power}" if power * bits <= 64 else ""
        raise ProtocolError(
            f"lattice too large: {name} = {named}^{power}{size} members{where} "
            f"exceeds the budget of {MAX_MEMBERS} members"
        )


def _checked_parameters(n: int, d: int) -> tuple[int, int]:
    """(N, n0) for n uses in dimension d; requires n >= 2d(d-1) and rejects N < 2."""
    _check_uses(n, d)
    big_n, n0 = _lattice_parameters(n, d)
    if big_n < 2:
        raise ProtocolError(
            f"degenerate weight regime: N={big_n} < 2 at n={n}, d={d}; "
            "the weight profile needs at least two lattice points per axis"
        )
    return big_n, n0


def capacity_parameter(n: int, d: int) -> int:
    """Lattice width N for n gate uses in dimension d.

    N = floor((2n/(d-1) + d - 2) / (3d-2)), computed exactly in integers.
    Requires n >= 2d(d-1); rejects N < 2, as the sine weights are only normalized for
    N >= 2.  Any larger N is returned: what is built from it checks its own size.
    """
    return _checked_parameters(n, d)[0]


def flat_diagram(n0: int, d: int) -> tuple[int, ...]:
    """Rows of the most balanced diagram with n0 boxes in d rows; they differ by at most one."""
    if n0 < 0:
        raise ValueError(f"box count must be non-negative, got {n0}")
    if d < 1:
        raise ValueError(f"row budget must be positive, got {d}")
    q, r = divmod(n0, d)
    return (q + 1,) * r + (q,) * (d - r)


@dataclass(frozen=True, eq=False)
class DiagramSet:
    """The viable lattice, or its corner: strictly-decreasing diagrams of n boxes.

    ``rows`` is a read-only (m^(d-1), d) int64 array stored column by column, one member
    per row, in row-major order of the coordinates in {0..m-1}^(d-1), m = N for the full
    lattice, the first coordinate most significant; ``haar_fidelity`` and the Choi fit
    rely on this when they pair a ``WeightVector``'s amplitudes, in that order, with rows.
    """

    d: int
    n: int
    N: int
    n0: int
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


def viable_set(n: int, d: int, width: int | None = None) -> DiagramSet:
    """Build the viable lattice of diagrams for n uses in dimension d, or with ``width``
    its corner of min(N, width) points per axis; ``N`` is the box's width either way.

    Row i (1-based, i < d) of the member at coordinate t is
    mu0[i] + N(2d-3) + 1 - (N+1)(i-1) + t[i], mu0 = flat_diagram(n0, d); the last row
    absorbs the remaining boxes.  With every t[i] in [0, N-1], consecutive rows differ
    by at least 2 and the last row is at least mu0[-1] >= 0, so every member is a
    strictly decreasing diagram without a check.
    The rows are int64, so n is at most 2^63 - 1, and min(N, width)^(d-1) members at
    most ``MAX_MEMBERS``: either is refused before a row is built.
    """
    big_n, n0 = _checked_parameters(n, d)
    if n > np.iinfo(np.int64).max:
        raise ProtocolError(f"n={n} exceeds 2^63 - 1, the int64 limit of the lattice rows")
    m = big_n if width is None else min(big_n, width)
    _check_members("N^(d-1)" if m == big_n else f"min(N, {width})^(d-1)", m, d - 1,
                   f" at n={n}, d={d}")
    mu0 = flat_diagram(n0, d)
    base = tuple(
        mu0[i - 1] + big_n * (2 * d - 3) + 1 - (big_n + 1) * (i - 1)
        for i in range(1, d)
    )

    # stored column by column: column k, viewed as the (m,)*(d-1) box in member (row-major)
    # order, is base[k] + t[k], and the last column is n - sum(base) - sum(t)
    rows = np.empty((m ** (d - 1), d), dtype=np.int64, order="F")
    last = rows[:, -1].reshape((m,) * (d - 1))
    last[...] = n - sum(base)
    for k in range(d - 1):
        steps = np.arange(m).reshape(-1, *(1,) * (d - 2 - k))
        rows[:, k].reshape(last.shape)[...] = base[k] + steps
        last -= steps
    rows.flags.writeable = False
    return DiagramSet(d=d, n=n, N=big_n, n0=n0, rows=rows)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Weights q over the (N,)*(d-1) box of a viable lattice, in the row-major order of
    its members, held as the amplitudes sqrt(q) in a read-only copy; the squares sum
    to 1.  They serve every n whose lattice has this (d, N) box."""

    d: int
    N: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amplitudes = np.array(self.amplitudes, dtype=float)
        amplitudes.flags.writeable = False
        object.__setattr__(self, "amplitudes", amplitudes)
        if len(amplitudes) != self.N ** (self.d - 1):
            raise ValueError(f"{len(amplitudes)} amplitudes for {self.N ** (self.d - 1)} diagrams")
        if not np.all(np.isfinite(amplitudes) & (amplitudes >= 0.0)):
            raise ValueError("amplitudes must be finite and non-negative")
        # fsum over a memoryview reads Python floats straight from the buffer, with no
        # numpy scalar per member and no list of them
        total = math.fsum(memoryview(amplitudes * amplitudes))
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"squared amplitudes sum to {total!r}, not 1")


def sine_amplitudes(big_n: int) -> np.ndarray:
    """Read-only 1-D amplitudes sqrt(g_k) of the sine profile
    g_k = (2/N) sin^2(pi (2k+1) / (2N)), k = 0..N-1."""
    if big_n < 2:
        raise ProtocolError(
            f"weight profile undefined for N={big_n}: it is only normalized for N >= 2"
        )
    k = np.arange(big_n)
    amplitudes = np.sqrt((2.0 / big_n) * np.sin(np.pi * (2 * k + 1) / (2 * big_n)) ** 2)
    amplitudes.flags.writeable = False
    return amplitudes


def sine_weights(diagram_set: DiagramSet) -> WeightVector:
    """Product of the 1-D sine amplitudes over the lattice coordinates.  Only the box
    is read, ``.d`` and ``.N``, so a ``ScoreMatrix`` serves as well as a DiagramSet."""
    d, big_n = diagram_set.d, diagram_set.N
    amplitudes = functools.reduce(np.multiply.outer, [sine_amplitudes(big_n)] * (d - 1))
    return WeightVector(d, big_n, np.ravel(amplitudes))


def epsilon_g(big_n: int) -> float:
    """Nearest-neighbour coherence deficit 1 - sum_k sqrt(g_k g_{k+1}).

    The sum is ((N-1) cos(pi/N) + 1) / N, so the deficit is
    2 (N-1) sin^2(pi/(2N)) / N, computed in that form, without cancellation.
    Lies in (0, 1) and is bounded above by pi^2 / N^2.
    """
    if big_n < 2:
        raise ProtocolError(f"coherence deficit undefined for N={big_n}: it needs N >= 2")
    return 2.0 * (big_n - 1) * math.sin(math.pi / (2 * big_n)) ** 2 / big_n
