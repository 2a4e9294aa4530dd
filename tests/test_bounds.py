"""Lower/upper cost bounds, slack optimization, and the comparison rows."""

import math
import re

import numpy as np
import pytest

from gateprog.bounds import (
    bound_report,
    conjecture_cost,
    feasible_delta_interval,
    lower_bound_cost,
    lower_bound_dimension,
    optimize_delta,
    table1_rows,
    upper_bound_cost,
)


class TestLowerBound:
    def test_reference_point(self):
        assert lower_bound_cost(2, 1e-6, 0.1) == pytest.approx(5.86558709452787, abs=1e-10)

    def test_unit_log_argument(self):
        # delta chosen so the log argument is exactly 1
        delta = 4.0 * math.sqrt(2.0 * 1e-6) * 3
        assert lower_bound_cost(2, 1e-6, delta) == pytest.approx(-1.0, abs=1e-12)

    def test_leading_term_takes_over(self):
        # at fixed delta the bound grows like (1-delta)(d^2-1)/2 * log2(1/eps)
        def ratio(eps):
            lead = 0.9 * 1.5 * math.log2(1.0 / eps)
            return lower_bound_cost(2, eps, 0.1) / lead

        r30, r100, r300 = ratio(1e-30), ratio(1e-100), ratio(1e-300)
        assert r30 < r100 < r300 < 1.0
        assert r300 > 0.98

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            lower_bound_cost(1, 1e-6, 0.1)
        with pytest.raises(ValueError):
            lower_bound_cost(2, 0.0, 0.1)
        with pytest.raises(ValueError):
            lower_bound_cost(2, 1e-6, 1.5)


class TestDimensionForm:
    def test_agrees_with_cost_form_on_grid(self):
        for eps in np.logspace(-14, -3, 10):
            for delta in np.linspace(0.05, 0.95, 10):
                cost = lower_bound_cost(2, float(eps), float(delta))
                dim = lower_bound_dimension(2, float(eps), float(delta))
                assert abs(cost - dim) <= 1e-12

    def test_vacuous_point_flagged(self):
        report = bound_report(2, 1e-2, 0.5)
        assert report.lower_bits < 0.0
        assert report.vacuous_flags["lower"]


class TestOptimizeDelta:
    def test_frozen_optimum(self):
        delta_star, bits = optimize_delta(2, 1e-12)
        assert bits == pytest.approx(32.818451, abs=1e-4)
        assert delta_star == pytest.approx(0.102978, abs=1e-4)
        lo, hi = feasible_delta_interval(2, 1e-12)
        assert lo < delta_star < hi

    def test_slope_in_the_deep_error_regime(self):
        eps_grid = (1e-12, 1e-13, 1e-14)
        bits = [optimize_delta(2, e)[1] for e in eps_grid]
        xs = [math.log2(1.0 / e) for e in eps_grid]
        slope = float(np.polyfit(xs, bits, 1)[0])
        assert slope >= 0.9 * 1.5

    def test_monotone_in_eps(self):
        values = [optimize_delta(2, e)[1] for e in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_no_grid_point_beats_the_closed_form(self, d):
        for eps in (1e-3, 1e-12, 1e-100, 1e-300):
            lo, hi = feasible_delta_interval(d, eps)
            if lo >= hi:
                continue
            delta_star, bits = optimize_delta(d, eps)
            assert bits == lower_bound_cost(d, eps, delta_star)
            grid = np.linspace(lo, hi, 10**4 + 2)[1:-1]
            assert bits >= max(lower_bound_cost(d, eps, float(x)) for x in grid)

    @pytest.mark.parametrize("d", [2, 3, 4, 10, 21])
    def test_matches_lambert_w(self, d):
        # delta* = (1 - u) / W(A), A = e (1 - u) / (u nu), against scipy's W
        special = pytest.importorskip("scipy.special")
        for eps in (0.9 / (32.0 * d**4), 1e-9, 1e-12, 1e-50, 1e-100, 1e-300):
            u = 4.0 * math.sqrt(2.0 * eps)
            big_a = math.e * (1.0 - u) / (u * (d * d - 1))
            expected = (1.0 - u) / special.lambertw(big_a).real
            assert abs(optimize_delta(d, eps)[0] - expected) <= 4 * math.ulp(expected)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_empty_interval_threshold(self, d):
        # the interval empties where 4 sqrt(2 eps) d^2 reaches 1; just below,
        # the optimum exists but is still a vacuous -1 + o(1)
        threshold = 1.0 / (32.0 * d**4)
        lo, hi = feasible_delta_interval(d, (1.0 - 1e-3) * threshold)
        delta_star, bits = optimize_delta(d, (1.0 - 1e-3) * threshold)
        assert lo < delta_star < hi
        assert -1.0 < bits < -0.999
        with pytest.raises(ValueError, match="vacuous for all delta"):
            optimize_delta(d, (1.0 + 1e-3) * threshold)

    @pytest.mark.parametrize("d", [2, 3])
    def test_empty_interval_raises(self, d):
        eps = 1.0 / (32.0 * (d * d - 1) ** 2)
        with pytest.raises(ValueError, match="vacuous for all delta"):
            optimize_delta(d, eps)


_D_MESSAGE = "gate dimension must be at least 2, got 1"


class TestInputChecks:
    # d is checked first, then epsilon, then the function's own argument
    @pytest.mark.parametrize(
        "bound, extra",
        [
            (lower_bound_cost, (1.5,)),
            (lower_bound_dimension, (1.5,)),
            (feasible_delta_interval, ()),
            (upper_bound_cost, ()),
            (table1_rows, (0.0,)),
        ],
    )
    @pytest.mark.parametrize("eps", [0.0, 1.0, math.nan])
    def test_d_then_epsilon(self, bound, extra, eps):
        with pytest.raises(ValueError, match=f"^{_D_MESSAGE}$"):
            bound(1, eps, *extra)
        with pytest.raises(ValueError, match=f"^{_D_MESSAGE}$"):
            bound(1, 0.1, *extra)
        message = re.escape(f"error parameter must lie in (0, 1), got {eps}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            bound(2, eps, *extra)


class TestUpperBound:
    def test_reference_point(self):
        assert upper_bound_cost(2, 0.01) == pytest.approx(22.93004767740598, abs=1e-10)

    def test_simplified_form_offset_at_d2(self):
        # (d-1)^4/d^2 vs d^2 differ by a factor 16 at d = 2, i.e. 6 bits at slope 3/2
        for eps in (1e-2, 1e-5, 1e-9):
            gap = upper_bound_cost(2, eps, simplified=True) - upper_bound_cost(2, eps)
            assert gap == pytest.approx(6.0, abs=1e-12)

    def test_slope_is_half_parameter_count(self):
        for d in (2, 3, 5):
            b1 = upper_bound_cost(d, 1e-4)
            b2 = upper_bound_cost(d, 1e-8)
            slope = (b2 - b1) / math.log2(1e4)
            assert slope == pytest.approx((d * d - 1) / 2.0, abs=1e-12)

    def test_out_of_float_range_raises(self):
        # 162 pi^2 / (4 eps) overflows below about 2e-306 at d = 2
        assert math.isfinite(upper_bound_cost(2, 1e-300))
        with pytest.raises(ValueError, match=r"upper bound cost is inf at epsilon=1e-307"):
            upper_bound_cost(2, 1e-307)


class TestTable1:
    def test_reference_rows(self):
        rows = table1_rows(2, 0.01, 1.0)
        assert rows["upper d^2 log(K/eps)"] == pytest.approx(26.575424759098897, abs=1e-10)
        assert rows["lower log(d^2/eps)"] == pytest.approx(8.643856189774725, abs=1e-10)

    def test_new_upper_beats_prior_upper_in_small_error_regime(self):
        for eps in (1e-6, 1e-8, 1e-10):
            prior = table1_rows(2, eps, 1.0)["upper d^2 log(K/eps)"]
            assert upper_bound_cost(2, eps, simplified=True) < prior

    def test_requires_positive_k(self):
        for big_k in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                table1_rows(2, 0.01, big_k)

    def test_inverse_square_row_out_of_float_range(self):
        # 1 / eps^2 overflows below about 3e-154; eps**2 itself underflows to zero
        # below about 1e-162
        row = "upper 4 d^2 log(d) / eps^2"
        assert table1_rows(2, 1e-150)[row] == pytest.approx(1.6e301)
        for eps in (1e-155, 1e-200):
            with pytest.raises(ValueError, match=rf"{re.escape(row)} is inf at epsilon={eps}"):
                table1_rows(2, eps)


class TestConjecture:
    def test_reduces_to_upper_bound(self):
        value = conjecture_cost(3, 0.01, 162.0 * math.pi**2 * 4.0)
        assert value == pytest.approx(upper_bound_cost(2, 0.01, simplified=True), abs=1e-12)

    def test_single_parameter_point(self):
        assert conjecture_cost(1, 0.25, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_linear_in_parameter_count(self):
        base = conjecture_cost(3, 1e-3, 10.0)
        assert conjecture_cost(6, 1e-3, 10.0) == pytest.approx(2.0 * base, abs=1e-12)

    @pytest.mark.parametrize("big_c", [0.0, -1.0, math.nan, math.inf])
    def test_requires_positive_finite_constant(self, big_c):
        with pytest.raises(ValueError, match="positive and finite"):
            conjecture_cost(3, 0.01, big_c)

    def test_out_of_float_range_raises(self):
        # C / eps overflows although both are finite
        with pytest.raises(ValueError, match=r"conjecture cost is inf at epsilon=1e-10"):
            conjecture_cost(3, 1e-10, 1e300)


class TestBoundReport:
    def test_optimized_report(self):
        report = bound_report(2, 1e-6)
        assert report.delta_optimized
        assert report.lower_bits <= report.upper_bits
        assert not report.vacuous_flags["lower"]

    def test_consistency_lower_below_upper(self):
        for eps in np.logspace(-14, -4, 12):
            try:
                _, lower = optimize_delta(2, float(eps))
            except ValueError:
                continue
            assert lower <= upper_bound_cost(2, float(eps))


class TestHugeDimension:
    @pytest.mark.parametrize(
        "bound, args, quantity",
        [
            (lower_bound_cost, (0.1, 0.5), "lower bound cost"),
            (lower_bound_dimension, (0.1, 0.5), "lower bound dimension"),
            (feasible_delta_interval, (0.1,), "feasible delta interval"),
            (optimize_delta, (0.1,), "feasible delta interval"),
            (upper_bound_cost, (0.1,), "upper bound cost"),
            (table1_rows, (0.1,), "table1 rows"),
        ],
    )
    def test_names_d_when_it_leaves_float_range(self, bound, args, quantity):
        d = 10**200
        with pytest.raises(ValueError, match=f"^d={d} is out of float range for the {quantity}$"):
            bound(d, *args)

    def test_upper_bound_leaves_float_range_first(self):
        # (d-1)^4 overflows from about d = 1.2e77; the other bounds only need d^2
        assert math.isfinite(upper_bound_cost(10**76, 0.1))
        with pytest.raises(ValueError, match="out of float range for the upper bound cost"):
            upper_bound_cost(10**78, 0.1)
        assert len(table1_rows(10**78, 0.1)) == 5
