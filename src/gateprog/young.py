"""Young-diagram combinatorics for SU(d): enumeration, distance, irrep dimensions."""

from __future__ import annotations

from math import factorial, prod
from typing import Sequence

import numpy as np


def enumerate_diagrams(m: int, d: int) -> np.ndarray:
    """All partitions of ``m`` into at most ``d`` parts, lexicographically decreasing,
    as a (count, d) int64 array of rows with the trailing zero rows explicit.

    ``m == 0`` yields the single all-zero diagram.
    """
    if m < 0:
        raise ValueError(f"box count must be non-negative, got {m}")
    if d < 1:
        raise ValueError(f"row budget must be positive, got {d}")

    out: list[tuple[int, ...]] = []

    def descend(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        slots = d - len(prefix)
        if remaining == 0:
            out.append(prefix + (0,) * slots)
            return
        if slots == 0:
            return
        # largest feasible part first keeps the output lex-decreasing
        for part in range(min(cap, remaining), 0, -1):
            if part * slots >= remaining:
                descend(remaining - part, part, prefix + (part,))

    descend(m, m if m else 1, ())
    return np.array(out, dtype=np.int64)


def irrep_dimension(rows: Sequence[int] | np.ndarray) -> int | np.ndarray:
    """Exact dimension of the SU(d) irrep with row lengths ``rows``, for one diagram
    or a stack of shape (..., d) in one array pass.

    The product over row pairs of (rows[i] - rows[j] + j - i), divided by
    1! 2! ... (d-1)!.  No factor exceeds the widest row spread plus d - 1 in
    absolute value, so the factors are formed one row pair at a time in int64 and
    multiplied into a running int64 group of as many factors as that bound keeps
    below 2^63.  Each group is multiplied into the product in Python integers
    (object dtype), exact at any size, which is divided there once and the
    division checked to be exact.  Returns an ``int`` for one diagram and an
    object array of ``int`` for a stack.
    """
    rows = np.asarray(rows, dtype=np.int64)
    d = rows.shape[-1]
    pairs = list(zip(*np.triu_indices(d, 1)))
    largest = int(np.max(rows.max(axis=-1) - rows.min(axis=-1), initial=0)) + d - 1
    group = 1
    while group < len(pairs) and largest ** (group + 1) < 2**63:
        group += 1
    num = np.ones(rows.shape[:-1], dtype=object)
    for start in range(0, len(pairs), group):
        run = np.ones(rows.shape[:-1], dtype=np.int64)
        for i, j in pairs[start : start + group]:
            run *= rows[..., i] - rows[..., j] + (j - i)
        num *= run.astype(object)
        del run  # let go before the next group's arrays and the division's
    den = prod(factorial(k) for k in range(1, d))
    dim, rem = num // den, num % den
    if np.any(rem):
        bad = rows[np.asarray(rem != 0)][0]
        raise ValueError(f"dimension product not divisible for {tuple(bad.tolist())}")
    return dim


def young_distance(a: Sequence[int] | np.ndarray, b: Sequence[int] | np.ndarray) -> np.ndarray:
    """L1 distance between row-length vectors, broadcast over (..., d) stacks; both
    sides must share the row budget d."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"row budgets differ: {a.shape[-1]} vs {b.shape[-1]}")
    return np.abs(a - b).sum(axis=-1)


def sum_squared_dimensions(m: int, d: int) -> int:
    """Sum of squared irrep dimensions over all diagrams with ``m`` boxes.

    Exact integer; equals the binomial coefficient C(m + d^2 - 1, d^2 - 1),
    which the test suite checks independently.
    """
    if d < 2:
        raise ValueError(f"row budget must be at least 2, got {d}")
    dims = irrep_dimension(enumerate_diagrams(m, d))
    return (dims * dims).sum()


def dm_lower_bound(m: int, d: int) -> float:
    """Closed-form lower bound (m / (d^2 - 1))^(d^2 - 1) on sum_squared_dimensions."""
    if m < 1:
        raise ValueError(f"box count must be positive, got {m}")
    if d < 2:
        raise ValueError(f"row budget must be at least 2, got {d}")
    nu = d * d - 1
    return (m / nu) ** nu
