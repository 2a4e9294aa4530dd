"""Cost bounds in qubits for universal gate programming.

All logarithms are base 2 (costs are measured in qubits).  Lower bounds may
come out negative for large errors; they are reported untouched and flagged
vacuous instead of being clamped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"error parameter must lie in (0, 1), got {epsilon}")


def _finite(quantity: str, value: float, epsilon: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{quantity} is {value} at epsilon={epsilon!r}: out of float range")
    return value


def _float_range(fn):
    """Report a d too large to convert to float as a ValueError naming d."""
    @functools.wraps(fn)
    def checked(d: int, *args, **kwargs):
        try:
            return fn(d, *args, **kwargs)
        except OverflowError:
            quantity = fn.__name__.replace("_", " ")
            raise ValueError(f"d={d} is out of float range for the {quantity}") from None
    return checked


@_float_range
def lower_bound_cost(d: int, epsilon: float, delta: float) -> float:
    """Recycling lower bound on the program cost, in bits.

    (1 - delta - 4 sqrt(2 eps)) (d^2 - 1) log2(delta / (4 sqrt(2 eps) (d^2 - 1))) - 1
    """
    if d < 2:
        raise ValueError(f"gate dimension must be at least 2, got {d}")
    _check_epsilon(epsilon)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"slack parameter must lie in (0, 1), got {delta}")
    u = 4.0 * math.sqrt(2.0 * epsilon)
    nu = d * d - 1
    return (1.0 - delta - u) * nu * math.log2(delta / (u * nu)) - 1.0


@_float_range
def lower_bound_dimension(d: int, epsilon: float, delta: float) -> float:
    """log2 of the program-dimension lower bound (1/2) (delta / (4 sqrt(2 eps) (d^2-1)))^k.

    Algebraically identical to :func:`lower_bound_cost`; implemented separately
    so the identity can be checked numerically.
    """
    if d < 2:
        raise ValueError(f"gate dimension must be at least 2, got {d}")
    _check_epsilon(epsilon)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"slack parameter must lie in (0, 1), got {delta}")
    u = 4.0 * math.sqrt(2.0 * epsilon)
    nu = d * d - 1
    exponent = (1.0 - delta - u) * nu
    return math.log2(0.5) + exponent * math.log2(delta / (u * nu))


@_float_range
def feasible_delta_interval(d: int, epsilon: float) -> tuple[float, float]:
    """Open interval of delta values with a positive exponent and log argument > 1."""
    _check_epsilon(epsilon)
    u = 4.0 * math.sqrt(2.0 * epsilon)
    lo = u * (d * d - 1) * (1.0 + 1e-9)
    hi = 1.0 - u
    return lo, hi


def optimize_delta(d: int, epsilon: float) -> tuple[float, float]:
    """Golden-section maximization of the lower bound over the feasible delta.

    Returns (delta_star, bits).  Raises when no delta gives a non-vacuous
    bound, which happens once epsilon reaches 1 / (32 d^4) scale.
    """
    lo, hi = feasible_delta_interval(d, epsilon)
    if lo >= hi:
        raise ValueError(
            f"bound vacuous for all delta: feasible interval ({lo:.6g}, {hi:.6g}) "
            f"is empty at epsilon={epsilon:.6g}, d={d}"
        )

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    e = a + inv_phi * (b - a)
    fc = lower_bound_cost(d, epsilon, c)
    fe = lower_bound_cost(d, epsilon, e)
    while b - a > 1e-9:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - inv_phi * (b - a)
            fc = lower_bound_cost(d, epsilon, c)
        else:
            a, c, fc = c, e, fe
            e = a + inv_phi * (b - a)
            fe = lower_bound_cost(d, epsilon, e)
    delta_star = (a + b) / 2.0
    return delta_star, lower_bound_cost(d, epsilon, delta_star)


@_float_range
def upper_bound_cost(d: int, epsilon: float, *, simplified: bool = False) -> float:
    """Achievable cost of the estimation protocol, in bits.

    ((d^2 - 1) / 2) log2(162 pi^2 (d-1)^4 / (d^2 eps)); with ``simplified``
    the weaker, d-uniform form ((d^2 - 1) / 2) log2(162 pi^2 d^2 / eps).
    Raises ValueError where the argument leaves float range (eps below about
    2e-306 at d = 2).
    """
    if d < 2:
        raise ValueError(f"gate dimension must be at least 2, got {d}")
    _check_epsilon(epsilon)
    nu = d * d - 1
    if simplified:
        arg = 162.0 * math.pi**2 * d * d / epsilon
    else:
        arg = 162.0 * math.pi**2 * (d - 1) ** 4 / (d * d * epsilon)
    return _finite("upper bound cost", (nu / 2.0) * math.log2(arg), epsilon)


@_float_range
def table1_rows(d: int, epsilon: float, big_k: float = 1.0) -> dict[str, float]:
    """Prior-work cost rows, label -> bits, for side-by-side comparison.

    ``big_k`` is a universal constant left unspecified by the sources; it is
    caller-supplied and defaults to 1.  A row that leaves float range raises
    ValueError naming it; 1/eps^2 does so for eps below about 3e-154 at d = 2.
    """
    if d < 2:
        raise ValueError(f"gate dimension must be at least 2, got {d}")
    _check_epsilon(epsilon)
    if not 0.0 < big_k < math.inf:
        raise ValueError(f"constant K must be positive and finite, got {big_k}")
    rows = {
        "upper d^2 log(K/eps)": d * d * math.log2(big_k / epsilon),
        "upper 4 d^2 log(d) / eps^2": 4.0 * d * d * math.log2(d) / epsilon / epsilon,
        "lower (1-eps) K d - (2/3) log(d)":
            (1.0 - epsilon) * big_k * d - (2.0 / 3.0) * math.log2(d),
        "lower log(d^2/eps)": math.log2(d * d / epsilon),
        "lower ((d+1)/2) log(1/d) + ((d-1)/2) log(1/eps)":
            ((d + 1) / 2.0) * math.log2(1.0 / d) + ((d - 1) / 2.0) * math.log2(1.0 / epsilon),
    }
    return {label: _finite(label, bits, epsilon) for label, bits in rows.items()}


def conjecture_cost(nu: int, epsilon: float, big_c: float) -> float:
    """(nu / 2) log2(C / eps) for a nu-parameter gate family with constant C."""
    if nu < 1:
        raise ValueError(f"parameter count must be positive, got {nu}")
    _check_epsilon(epsilon)
    if not 0.0 < big_c < math.inf:
        raise ValueError(f"constant must be positive and finite, got {big_c}")
    return _finite("conjecture cost", (nu / 2.0) * math.log2(big_c / epsilon), epsilon)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated cost bounds at one (d, epsilon) point."""

    d: int
    epsilon: float
    delta: float
    delta_optimized: bool
    lower_bits: float
    lower_dimension_log2: float
    upper_bits: float
    upper_bits_simplified: float
    K: float
    table1: dict[str, float]
    vacuous_flags: dict[str, bool]


def bound_report(
    d: int,
    epsilon: float,
    delta: float | None = None,
    big_k: float = 1.0,
) -> BoundReport:
    """Assemble lower/upper bounds plus the prior-work rows for one point.

    With ``delta`` absent, the slack is optimized by golden-section search;
    if even that is infeasible the lower bound is reported at a midpoint-free
    sentinel of -inf and flagged vacuous.
    """
    optimized = delta is None
    if delta is None:
        try:
            delta, lower = optimize_delta(d, epsilon)
        except ValueError:
            delta, lower = float("nan"), float("-inf")
    else:
        lower = lower_bound_cost(d, epsilon, delta)

    lower_dim = (
        lower_bound_dimension(d, epsilon, delta) if not math.isnan(delta) else float("-inf")
    )
    u = 4.0 * math.sqrt(2.0 * epsilon)
    nu = d * d - 1
    lower_vacuous = math.isnan(delta) or lower < 0.0 or delta / (u * nu) <= 1.0
    return BoundReport(
        d=d,
        epsilon=epsilon,
        delta=delta,
        delta_optimized=optimized,
        lower_bits=lower,
        lower_dimension_log2=lower_dim,
        upper_bits=upper_bound_cost(d, epsilon),
        upper_bits_simplified=upper_bound_cost(d, epsilon, simplified=True),
        K=big_k,
        table1=table1_rows(d, epsilon, big_k),
        vacuous_flags={"lower": lower_vacuous, "upper": False},
    )
