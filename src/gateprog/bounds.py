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
    """Check d >= 2, then 0 < eps < 1, before calling ``fn``; report a d too
    large to convert to float as a ValueError naming d."""
    @functools.wraps(fn)
    def checked(d: int, epsilon: float, *args, **kwargs):
        if d < 2:
            raise ValueError(f"gate dimension must be at least 2, got {d}")
        _check_epsilon(epsilon)
        try:
            return fn(d, epsilon, *args, **kwargs)
        except OverflowError:
            quantity = fn.__name__.replace("_", " ")
            raise ValueError(f"d={d} is out of float range for the {quantity}") from None
    return checked


@_float_range
def lower_bound_cost(d: int, epsilon: float, delta: float) -> float:
    """Recycling lower bound on the program cost, in bits.

    (1 - delta - 4 sqrt(2 eps)) (d^2 - 1) log2(delta / (4 sqrt(2 eps) (d^2 - 1))) - 1
    """
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
    if not 0.0 < delta < 1.0:
        raise ValueError(f"slack parameter must lie in (0, 1), got {delta}")
    u = 4.0 * math.sqrt(2.0 * epsilon)
    nu = d * d - 1
    exponent = (1.0 - delta - u) * nu
    return math.log2(0.5) + exponent * math.log2(delta / (u * nu))


@_float_range
def feasible_delta_interval(d: int, epsilon: float) -> tuple[float, float]:
    """Open interval of delta values with a positive exponent and log argument > 1."""
    u = 4.0 * math.sqrt(2.0 * epsilon)
    lo = u * (d * d - 1) * (1.0 + 1e-9)
    hi = 1.0 - u
    return lo, hi


def _lambert_w(log_a: float) -> float:
    """Principal Lambert W(A) for A >= e, from ln A.

    Newton's method on w + ln w = ln A (Corless et al., Adv. Comput. Math. 5
    (1996) 329), started at ln A - ln ln A, which is a lower bound on W(A) for
    A >= e.  The left side is concave in w, so the iterates rise monotonically
    to the root; the first step that does not rise ends the iteration.
    """
    w = log_a - math.log(log_a)
    while (step := w - (w + math.log(w) - log_a) * w / (1.0 + w)) > w:
        w = step
    return w


def optimize_delta(d: int, epsilon: float) -> tuple[float, float]:
    """The slack that maximizes the lower bound, in closed form.

    With u = 4 sqrt(2 eps) and nu = d^2 - 1 the bound is concave in delta, and
    its stationary point solves delta ln(e delta / (u nu)) = 1 - u, so
    delta* = (1 - u) / W(A) with A = e (1 - u) / (u nu).  Returns
    (delta*, bits).  Raises when the feasible interval is empty: from
    epsilon = 1 / (32 d^4) on, where u d^2 reaches 1 (less the interval's
    relative margin of 1e-9).  Just below that threshold the optimum is still
    negative, about -1, and :func:`bound_report` flags it vacuous.
    """
    lo, hi = feasible_delta_interval(d, epsilon)
    if lo >= hi:
        raise ValueError(
            f"bound vacuous for all delta: feasible interval ({lo:.6g}, {hi:.6g}) "
            f"is empty at epsilon={epsilon:.6g}, d={d}"
        )
    u = 4.0 * math.sqrt(2.0 * epsilon)
    delta_star = (1.0 - u) / _lambert_w(1.0 + math.log1p(-u) - math.log(u * (d * d - 1)))
    return delta_star, lower_bound_cost(d, epsilon, delta_star)


@_float_range
def upper_bound_cost(d: int, epsilon: float, *, simplified: bool = False) -> float:
    """Achievable cost of the estimation protocol, in bits.

    ((d^2 - 1) / 2) log2(162 pi^2 (d-1)^4 / (d^2 eps)); with ``simplified``
    the weaker, d-uniform form ((d^2 - 1) / 2) log2(162 pi^2 d^2 / eps).
    Raises ValueError where the argument leaves float range (eps below about
    2e-306 at d = 2).
    """
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

    With ``delta`` absent, the slack is the closed-form optimum of
    :func:`optimize_delta`; where no slack is feasible, the lower bound is
    reported as -inf at delta = nan and flagged vacuous.
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
