"""Diagram enumeration, distances, and exact dimension arithmetic."""

import functools
import operator
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import numpy as np
import pytest

from gateprog import young
from gateprog.protocol import viable_set
from gateprog.reporting import protocol_report
from gateprog.scoring import optimal_fidelity
from gateprog.verify import NS_D3, SMALL_NS_D2
from gateprog.young import (
    dm_lower_bound,
    enumerate_diagrams,
    irrep_dimension,
    sum_squared_dimensions,
    young_distance,
)

from test_reporting import python_int_dimension


def brute_force_partitions(m, d):
    """Independent oracle: filter all length-d tuples for partitions of m."""
    return {
        t for t in product(range(m + 1), repeat=d)
        if sum(t) == m and all(t[i] >= t[i + 1] for i in range(d - 1))
    }


def hook_content_dimension(rows, d):
    """Independent oracle: product over cells of (d + content) / hook length."""
    shape = [r for r in rows if r > 0]
    value = Fraction(1)
    for i, r in enumerate(shape):
        for j in range(r):
            arm = r - j - 1
            leg = sum(1 for below in shape[i + 1:] if below > j)
            value *= Fraction(d + j - i, arm + leg + 1)
    assert value.denominator == 1
    return int(value)


class TestEnumeration:
    def test_single_box(self):
        assert enumerate_diagrams(1, 2).tolist() == [[1, 0]]

    def test_two_boxes(self):
        assert enumerate_diagrams(2, 2).tolist() == [[2, 0], [1, 1]]

    def test_three_boxes_three_rows(self):
        assert enumerate_diagrams(3, 3).tolist() == [
            [3, 0, 0], [2, 1, 0], [1, 1, 1],
        ]

    def test_empty(self):
        assert enumerate_diagrams(0, 3).tolist() == [[0, 0, 0]]

    def test_int64_rows(self):
        rows = enumerate_diagrams(4, 3)
        assert rows.dtype == np.int64 and rows.shape == (4, 3)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("m", range(0, 9))
    def test_matches_brute_force(self, m, d):
        got = [tuple(row) for row in enumerate_diagrams(m, d).tolist()]
        assert set(got) == brute_force_partitions(m, d)
        assert len(got) == len(set(got))
        assert got == sorted(got, reverse=True)


class TestIrrepDimension:
    def test_defining_representation(self):
        assert irrep_dimension((1, 0)) == 2

    def test_antisymmetric(self):
        assert irrep_dimension((1, 1, 0)) == 3

    def test_adjoint_of_su3(self):
        assert irrep_dimension([2, 1, 0]) == 8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_hook_content_oracle(self, d):
        for m in range(0, 9):
            for lam in enumerate_diagrams(m, d).tolist():
                assert irrep_dimension(lam) == hook_content_dimension(lam, d)

    def test_one_diagram_is_plain_int(self):
        assert type(irrep_dimension((2, 1, 0))) is int
        assert type(irrep_dimension(np.array([2, 1, 0]))) is int

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_stack_matches_hook_content_oracle(self, d):
        rows = [tuple(lam) for m in range(0, 9) for lam in enumerate_diagrams(m, d).tolist()]
        expected = [hook_content_dimension(r, d) for r in rows]
        got = irrep_dimension(rows)
        assert got.shape == (len(rows),)
        assert got.tolist() == expected
        twice = irrep_dimension(np.stack([np.array(rows), np.array(rows[::-1])]))
        assert twice.shape == (2, len(rows))
        assert twice.tolist() == [expected, expected[::-1]]

    @pytest.mark.parametrize("rows", [
        # the widest spread plus d - 1 is 2^40 + 3, whose square passes 2^63: each
        # int64 group holds one factor
        [(2**40, 2**39 + 7, 2**31, 0), (3 * 2**35, 2**33, 5, 1), (9, 5, 2, 0)],
        # factors 2^21, 2^21 + 1 and 2^21 + 2, whose product passes 2^63: a group holds two
        [(2**21 - 1, 0, 0, 0), (2**21 - 1, 2**20, 7, 0)],
    ])
    def test_factors_past_int32(self, rows):
        expected = [python_int_dimension(r) for r in rows]
        assert irrep_dimension(rows).tolist() == expected
        assert [irrep_dimension(r) for r in rows] == expected

    @pytest.mark.parametrize("d, ns", [
        (2, (512, 1024, 4096, *SMALL_NS_D2)), (3, (600, *NS_D3)), (4, (300,)),
    ])
    def test_int64_division_matches_python_ints(self, d, ns):
        # protocol-grid's and verify's full boxes, where one int64 group holds every
        # factor: the group's product, divided once in Python ints, gives the quotients
        # of the product taken factor by factor in Python ints
        den = prod(map(factorial, range(1, d)))
        for n in ns:
            rows = viable_set(n, d).rows
            num = functools.reduce(operator.mul, (
                (rows[:, i] - rows[:, j] + (j - i)).astype(object)
                for i, j in zip(*np.triu_indices(d, 1))
            ))
            got = irrep_dimension(rows)
            assert got.dtype == object and {type(v) for v in got} == {int}
            assert got.tolist() == (num // den).tolist()

    @pytest.mark.parametrize("rows", [
        [(2, 1, 0), (5, 3, 0)],  # one int64 group
        [(2**40, 2**39 + 7, 2**31, 0)],  # one factor a group
    ])
    def test_division_is_checked(self, monkeypatch, rows):
        # no integer rows leave a remainder, so the divisor is made 7^(d-1)
        monkeypatch.setattr(young, "factorial", lambda k: 7)
        with pytest.raises(ValueError, match=rf"not divisible for \({rows[0][0]}, "):
            irrep_dimension(rows)

    def test_slice_at_d21(self):
        # 210 factors a diagram, several int64 groups each; one diagram is still an int
        rows = viable_set(1030, 21).rows[::1021]
        assert irrep_dimension(rows).tolist() == [python_int_dimension(r) for r in rows.tolist()]
        for row in (rows[0], rows[-1]):
            dim = irrep_dimension(row)
            assert type(dim) is int and dim == python_int_dimension(row.tolist())


class TestYoungDistance:
    def test_identical(self):
        assert young_distance((3, 1), (3, 1)) == 0

    def test_neighbours(self):
        assert young_distance((3, 1), (2, 2)) == 2

    def test_further_apart(self):
        assert young_distance((4, 0), (2, 2)) == 4

    def test_mismatched_budget(self):
        with pytest.raises(ValueError, match="row budgets differ: 2 vs 3"):
            young_distance((1, 0), (1, 0, 0))

    def test_broadcasts_over_stacks(self):
        rows = enumerate_diagrams(4, 3)
        got = young_distance(rows[:, None], rows[None])
        assert got.shape == (len(rows), len(rows))
        assert got.tolist() == [[young_distance(a, b) for b in rows] for a in rows]
        assert young_distance((2, 2, 0), rows).tolist() == got[2].tolist()

    def test_triangle_inequality_and_parity(self):
        diagrams = enumerate_diagrams(6, 3)
        for a in diagrams:
            dab = young_distance(a, diagrams)
            assert np.all(dab % 2 == 0)  # equal box counts force even distance
            assert np.array_equal(dab == 0, np.all(diagrams == a, axis=1))
            for c in diagrams:
                assert np.all(dab <= young_distance(a, c) + young_distance(c, diagrams))


class TestDimensionSums:
    def test_one_box_two_rows(self):
        assert sum_squared_dimensions(1, 2) == 4

    def test_two_boxes_two_rows(self):
        assert sum_squared_dimensions(2, 2) == 10

    def test_two_boxes_three_rows(self):
        assert sum_squared_dimensions(2, 3) == 45

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_binomial_exactly(self, d):
        nu = d * d - 1
        for m in range(0, 9):
            assert sum_squared_dimensions(m, d) == comb(m + nu, nu)

    @pytest.mark.parametrize("d, ns", [(2, range(4, 65)), (3, NS_D3), (4, (177,))],
                             ids=["d2", "d3", "d4"])
    def test_dp_against_the_hook_content_formula(self, d, ns):
        # the report's Newton-weight sum over its corner against the squared hook-content
        # dimensions of every member of the box, a route that shares no code with
        # irrep_dimension; the d=3 boxes of N = 8 (n >= 55) and the d=4 box of N = 12
        # are wider than the corner of 4d - 5 points per axis
        solve = functools.cache(optimal_fidelity)
        reports = [protocol_report(n, d, solve) for n in ns]
        for report in reports:
            rows = viable_set(report.n, d).rows.tolist()
            assert report.dP_exact == sum(hook_content_dimension(r, d) ** 2 for r in rows)
        assert max(r.N for r in reports) > 4 * d - 5


class TestDimensionFloor:
    def test_values(self):
        assert dm_lower_bound(3, 2) == 1.0
        assert dm_lower_bound(6, 2) == 8.0
        assert dm_lower_bound(8, 3) == 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_below_exact_sum(self, d):
        for m in range(1, 13):
            assert dm_lower_bound(m, d) <= sum_squared_dimensions(m, d)
