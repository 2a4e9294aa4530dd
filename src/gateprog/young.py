"""Young-diagram combinatorics for SU(d): enumeration, distance, irrep dimensions."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Sequence

import numpy as np


@dataclass(frozen=True, order=True)
class YoungDiagram:
    """A non-increasing integer partition with a fixed row budget.

    Trailing zero rows are kept explicit, so the row budget ``d`` is always
    ``len(rows)`` and the same partition with different budgets compares
    unequal.
    """

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a diagram needs at least one row")
        if any(r < 0 for r in self.rows):
            raise ValueError(f"negative row length in {self.rows}")
        if any(self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise ValueError(f"rows must be non-increasing, got {self.rows}")

    @property
    def d(self) -> int:
        return len(self.rows)

    def boxes(self) -> int:
        return sum(self.rows)

    def reduced_rows(self) -> tuple[int, ...]:
        """Rows minus the last row; labels the SU(d) irrep modulo full columns."""
        last = self.rows[-1]
        return tuple(r - last for r in self.rows)


def enumerate_diagrams(m: int, d: int) -> list[YoungDiagram]:
    """All partitions of ``m`` into at most ``d`` parts, lexicographically decreasing.

    ``m == 0`` yields the single all-zero diagram.
    """
    if m < 0:
        raise ValueError(f"box count must be non-negative, got {m}")
    if d < 1:
        raise ValueError(f"row budget must be positive, got {d}")

    out: list[YoungDiagram] = []

    def descend(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        slots = d - len(prefix)
        if remaining == 0:
            out.append(YoungDiagram(prefix + (0,) * slots))
            return
        if slots == 0:
            return
        # largest feasible part first keeps the output lex-decreasing
        for part in range(min(cap, remaining), 0, -1):
            if part * slots >= remaining:
                descend(remaining - part, part, prefix + (part,))

    descend(m, m if m else 1, ())
    return out


def irrep_dimension(rows: Sequence[int] | np.ndarray) -> int | np.ndarray:
    """Exact dimension of the SU(d) irrep with row lengths ``rows``, for one diagram
    or a stack of shape (..., d) in one array pass.

    The product over row pairs of (rows[i] - rows[j] + j - i), divided by
    1! 2! ... (d-1)!.  Each factor is at most the box count plus d, so the factors
    are formed in int64; their product is taken in Python integers (object
    dtype), exact at any size, and the division is checked to be exact.  Returns
    an ``int`` for one diagram and an object array of ``int`` for a stack.
    """
    rows = np.asarray(rows, dtype=np.int64)
    d = rows.shape[-1]
    i, j = np.triu_indices(d, 1)
    factors = (rows[..., i] - rows[..., j] + (j - i)).astype(object)
    num = np.prod(factors, axis=-1)
    den = prod(factorial(k) for k in range(1, d))
    dim, rem = num // den, num % den
    if np.any(rem):
        bad = rows[np.asarray(rem != 0)][0]
        raise ValueError(f"dimension product not divisible for {tuple(bad.tolist())}")
    return dim


def young_distance(a: YoungDiagram, b: YoungDiagram) -> int:
    """L1 distance between row-length vectors; both diagrams must share a budget."""
    if a.d != b.d:
        raise ValueError(f"row budgets differ: {a.d} vs {b.d}")
    return sum(abs(x - y) for x, y in zip(a.rows, b.rows))


def sum_squared_dimensions(m: int, d: int) -> int:
    """Sum of squared irrep dimensions over all diagrams with ``m`` boxes.

    Exact integer; equals the binomial coefficient C(m + d^2 - 1, d^2 - 1),
    which the test suite checks independently.
    """
    if d < 2:
        raise ValueError(f"row budget must be at least 2, got {d}")
    dims = irrep_dimension([lam.rows for lam in enumerate_diagrams(m, d)])
    return (dims * dims).sum()


def dm_lower_bound(m: int, d: int) -> float:
    """Closed-form lower bound (m / (d^2 - 1))^(d^2 - 1) on sum_squared_dimensions."""
    if m < 1:
        raise ValueError(f"box count must be positive, got {m}")
    if d < 2:
        raise ValueError(f"row budget must be at least 2, got {d}")
    nu = d * d - 1
    return (m / nu) ** nu
