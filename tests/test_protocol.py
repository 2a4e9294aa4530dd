"""Capacity parameter, viable lattice construction, and sine weights."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from gateprog.protocol import (
    MAX_MEMBERS,
    DiagramSet,
    ProtocolError,
    WeightVector,
    _lattice_parameters,
    capacity_parameter,
    epsilon_g,
    flat_diagram,
    sine_amplitudes,
    sine_weights,
    viable_set,
)


class TestCapacityParameter:
    @pytest.mark.parametrize("n,d,expected", [(4, 2, 2), (8, 2, 4), (26, 3, 3)])
    def test_values(self, n, d, expected):
        assert capacity_parameter(n, d) == expected

    def test_insufficient_uses(self):
        with pytest.raises(ProtocolError, match="insufficient uses"):
            capacity_parameter(3, 2)

    def test_degenerate_regime(self):
        # d=3 admits n=12 by the n >= 2d(d-1) rule, but the lattice collapses
        with pytest.raises(ProtocolError, match="degenerate weight regime"):
            capacity_parameter(12, 3)

    def test_rejects_d_below_two(self):
        with pytest.raises(ProtocolError):
            capacity_parameter(10, 1)

    def test_size_budget(self):
        # the width is given past the member budget, and only what is built is refused:
        # the full d=2 set of N = n // 2 members and the d=3 box of N^2, not the corners
        assert capacity_parameter(2 * (MAX_MEMBERS + 1), 2) == MAX_MEMBERS + 1
        assert len(viable_set(2 * (MAX_MEMBERS + 1), 2, width=3)) == 3
        with pytest.raises(ProtocolError, match=f"{MAX_MEMBERS + 1} members .* budget"):
            viable_set(2 * (MAX_MEMBERS + 1), 2)
        assert capacity_parameter(7 * 1025, 3) == 1025
        assert len(viable_set(7 * 1025, 3, width=7)) == 49
        with pytest.raises(ProtocolError, match=f"= {1025**2} members at n=7175, d=3 "):
            viable_set(7 * 1025, 3)

    @pytest.mark.parametrize("d", range(2, 31))
    def test_bracketing_and_residual(self, d):
        # the lattice offset ((3d-2)N - (d-2))(d-1)/2 is an integer and at most n
        least = 2 * d * (d - 1)
        for n in range(least, least + 3 * (3 * d - 2) * (d - 1)):
            big_n, n0 = _lattice_parameters(n, d)
            c_min_n = 2.0 * (n - d * (d - 1)) / ((3 * d - 2) * (d - 1))
            c_max_n = (2.0 * n + (d - 2) * (d - 1)) / ((3 * d - 2) * (d - 1))
            assert c_min_n - 1e-9 <= big_n <= c_max_n + 1e-9
            assert isinstance(n0, int) and n0 >= 0
            assert 2 * (n - n0) == ((3 * d - 2) * big_n - (d - 2)) * (d - 1)


class TestFlatDiagram:
    def test_empty(self):
        assert flat_diagram(0, 2) == (0, 0)

    def test_divisible(self):
        assert flat_diagram(6, 3) == (2, 2, 2)

    def test_leftover_box_goes_first(self):
        assert flat_diagram(1, 2) == (1, 0)

    def test_sums_and_balance(self):
        for n0 in range(0, 40):
            for d in (2, 3, 4):
                rows = flat_diagram(n0, d)
                assert sum(rows) == n0
                assert max(rows) - min(rows) <= 1


class TestViableSet:
    def test_n4_d2(self):
        ds = viable_set(4, 2)
        assert ds.N == 2 and ds.n0 == 0
        assert ds.rows.tolist() == [[3, 1], [4, 0]]

    def test_n8_d2(self):
        ds = viable_set(8, 2)
        assert ds.N == 4
        assert ds.rows.tolist() == [[5, 3], [6, 2], [7, 1], [8, 0]]

    def test_n26_d3(self):
        ds = viable_set(26, 3)
        assert len(ds) == 9 and ds.N == 3 and ds.n0 == 6
        assert flat_diagram(ds.n0, 3) == (2, 2, 2)
        assert sorted(set(ds.rows[:, 0].tolist())) == [12, 13, 14]
        assert sorted(set(ds.rows[:, 1].tolist())) == [8, 9, 10]
        for rows in ds.rows.tolist():
            assert sum(rows) == 26
            assert all(rows[i] > rows[i + 1] for i in range(2))

    @pytest.mark.parametrize("n,d", [(4, 2), (17, 2), (26, 3), (40, 3), (61, 4)])
    def test_row_formula(self, n, d):
        # recompute every row directly from the defining affine formula
        ds = viable_set(n, d)
        mu0 = flat_diagram(ds.n0, d)
        assert ds.rows.shape == (ds.N ** (d - 1), d)
        for member, t in zip(ds.rows.tolist(), product(range(ds.N), repeat=d - 1)):
            for i in range(1, d):
                expected = (
                    mu0[i - 1]
                    + ds.N * (2 * d - 3) + 1
                    - (ds.N + 1) * (i - 1)
                    + t[i - 1]
                )
                assert member[i - 1] == expected
            assert member[d - 1] == n - sum(member[: d - 1])

    @pytest.mark.parametrize("d", range(2, 22))
    def test_strictly_decreasing_everywhere(self, d):
        # widths N from 2 to the largest within the member budget, each at its least n
        # (n0 = 0) and, below the budget, also at n0 = 1 and the largest n0 with that N
        top = round(MAX_MEMBERS ** (1 / (d - 1)))
        top -= top ** (d - 1) > MAX_MEMBERS
        assert top ** (d - 1) <= MAX_MEMBERS < (top + 1) ** (d - 1)
        per_width = (3 * d - 2) * (d - 1) // 2  # n0 takes this many values at one N
        for big_n in sorted({w for w in (2, 3, math.isqrt(top), top) if 2 <= w <= top}):
            least = ((3 * d - 2) * big_n - (d - 2)) * (d - 1) // 2
            for n in (least,) if big_n == top else (least, least + 1, least + per_width - 1):
                ds = viable_set(n, d)
                assert ds.N == big_n and len(ds) == big_n ** (d - 1)
                assert ds.rows.flags.f_contiguous
                assert np.all(ds.rows[:, :-1] > ds.rows[:, 1:])
                assert ds.rows[:, -1].min() == flat_diagram(ds.n0, d)[-1] >= 0

    def test_size_budget_refused_before_building(self):
        # d = 2 has N = n // 2 members: one over the budget
        with pytest.raises(ProtocolError, match=f"{MAX_MEMBERS + 1} members .* budget"):
            viable_set(2 * (MAX_MEMBERS + 1), 2)

    def test_corner_over_budget_is_named(self):
        # d=6 n=800 has N = 20: a report's corner of 19 points per axis is over the budget
        with pytest.raises(ProtocolError, match=(
            r"min\(N, 19\)\^\(d-1\) = 19\^5 = 2476099 members at n=800, d=6 exceeds")):
            viable_set(800, 6, width=19)

    def test_rows_at_int64_limit(self):
        # one more use is refused, as tests/test_cli.py checks
        ds = viable_set(2**63 - 1, 2, width=3)
        assert ds.N == 2**62 - 1 and ds.n0 == 1
        assert ds.rows.tolist() == [[2**62 + 1 + t, 2**62 - 2 - t] for t in range(3)]

    def test_rows_are_read_only(self):
        ds = viable_set(26, 3)
        with pytest.raises(ValueError):
            ds.rows[0, 0] = 0
        assert ds.rows[0].tolist() == [12, 8, 6]

    @pytest.mark.parametrize("n,d", [(2000, 3), (400, 5)])
    def test_builds_without_lattice_sized_copies(self, n, d):
        # at most one extra column's worth of memory over the (M, d) result while building
        # it; three full-size copies would read (3d - 1) / d
        tracemalloc.start()
        try:
            rows = viable_set(n, d).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) > 50_000
        assert peak <= (d + 1) / d * rows.nbytes


class TestSineWeights:
    def test_two_point_profile(self):
        ds = viable_set(4, 2)
        amps = sine_weights(ds).amplitudes
        assert amps == pytest.approx([math.sqrt(0.5)] * 2, abs=1e-15)

    def test_three_point_profile(self):
        g = sine_amplitudes(3) ** 2
        assert g == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-15)

    def test_product_form_d3(self):
        ds = viable_set(13, 3)  # N = 2
        amps = sine_weights(ds).amplitudes
        assert amps == pytest.approx([0.5] * 4, abs=1e-15)

    @pytest.mark.parametrize("n,d", [(17, 2), (40, 3), (61, 4)])
    def test_outer_product_equals_product_loop(self, n, d):
        ds = viable_set(n, d)
        a = sine_amplitudes(ds.N)
        expected = [math.prod(c) for c in product(a, repeat=d - 1)]
        assert sine_weights(ds).amplitudes.tolist() == expected

    def test_profile_rejects_single_point(self):
        with pytest.raises(ProtocolError, match="N=1"):
            sine_amplitudes(1)

    def test_normalization_across_widths(self):
        for big_n in range(2, 513):
            assert abs(math.fsum(sine_amplitudes(big_n) ** 2) - 1.0) <= 1e-12

    def test_probabilities_are_a_read_only_copy(self):
        # the weights are held as amplitudes, the square roots of the probabilities
        ds = viable_set(4, 2)
        given = np.array([0.6, 0.8])
        q = WeightVector(ds.d, ds.N, amplitudes=given)
        given[0] = 0.5
        assert q.amplitudes.tolist() == [0.6, 0.8]
        with pytest.raises(ValueError, match="read-only"):
            q.amplitudes[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            sine_weights(ds).amplitudes[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            sine_amplitudes(4)[0] = 0.5

    def test_weight_vector_validation(self):
        # a gate dimension below 2 is refused first, as ScoreMatrix refuses it: at d=1
        # one amplitude would fit N^0 = 1 diagram, and at d=0 the count is N^-1
        for d in (1, 0):
            with pytest.raises(ProtocolError,
                               match=f"^gate dimension must be at least 2, got d={d}$"):
                WeightVector(d, 4, [1.0])
        ds = viable_set(4, 2)
        with pytest.raises(ValueError, match="squared amplitudes sum to"):
            WeightVector(ds.d, ds.N, amplitudes=(0.9, 0.2))
        with pytest.raises(ValueError, match="1 amplitudes for 2 diagrams"):
            WeightVector(ds.d, ds.N, amplitudes=(1.0,))
        with pytest.raises(ValueError, match="non-negative"):
            WeightVector(ds.d, ds.N, amplitudes=(1.5, -0.5))
        # the squares sum to 1: only the sign is wrong
        with pytest.raises(ValueError, match="non-negative"):
            WeightVector(ds.d, ds.N, amplitudes=(-0.6, 0.8))
        # four amplitudes in a column, a scalar and a square: refused by their shape
        # before their length is read
        for amplitudes, shape in ((np.ones((4, 1)) / 2, r"\(4, 1\)"), (np.array(1.0), r"\(\)"),
                                  (np.full((2, 2), 0.5), r"\(2, 2\)")):
            with pytest.raises(ValueError, match=f"one-dimensional, got shape {shape}"):
                WeightVector(2, 4, amplitudes)

    # at 0.5 the entries are (0.5, 0.5): probabilities that sum to 1 are not amplitudes
    @pytest.mark.parametrize("total", [0.5, 0.9, 1.1])
    def test_weight_vector_rejects_squares_off_one(self, total):
        half = math.sqrt(total / 2.0)
        with pytest.raises(ValueError, match="squared amplitudes sum to"):
            WeightVector(2, 2, amplitudes=(half, half))

    @pytest.mark.parametrize("total, accepted",
                             [(1 + 1e-13, True), (1 + 1e-11, False), (1 - 1e-11, False)])
    def test_weight_vector_norm_at_the_member_budget(self, total, accepted):
        # the d=3 N=1024 sine weights, 2^20 members, scaled so their squares sum to total:
        # the norm check's 1e-12 bound holds over a sum of that length
        a = sine_amplitudes(1024)
        amplitudes = np.multiply.outer(a, a).ravel() * math.sqrt(total)
        assert amplitudes.size == MAX_MEMBERS
        if accepted:
            WeightVector(3, 1024, amplitudes)
        else:
            with pytest.raises(ValueError, match="squared amplitudes sum to"):
                WeightVector(3, 1024, amplitudes)

    @pytest.mark.parametrize(
        "probabilities", [(math.nan, math.nan), (math.nan, 1.0), (math.inf, 0.0)]
    )
    def test_weight_vector_rejects_non_finite(self, probabilities):
        # a non-finite probability has a non-finite amplitude
        with pytest.raises(ValueError, match="finite"):
            WeightVector(2, 2, amplitudes=np.sqrt(probabilities))


class TestEpsilonG:
    def test_small_widths(self):
        assert epsilon_g(2) == pytest.approx(0.5, abs=1e-15)
        assert epsilon_g(3) == pytest.approx(1 / 3, abs=1e-14)
        assert epsilon_g(4) == pytest.approx(0.2196699141100893, abs=1e-14)

    def test_closed_form_oracle(self):
        # independent closed form: (N-1)(1 - cos(pi/N)) / N
        for big_n in range(2, 513):
            expected = (big_n - 1) * (1.0 - math.cos(math.pi / big_n)) / big_n
            assert abs(epsilon_g(big_n) - expected) <= 1e-12

    @pytest.mark.parametrize("big_n", [2, 3, 17, 4096])
    def test_against_mpmath(self, big_n):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            angles = [mpmath.pi * (2 * k + 1) / (2 * big_n) for k in range(big_n)]
            overlap = mpmath.fsum(
                2 * mpmath.sin(a) * mpmath.sin(b) / big_n for a, b in zip(angles, angles[1:])
            )
            exact = 1 - overlap
        assert abs(epsilon_g(big_n) - exact) <= 1e-15 * exact

    def test_upper_bound(self):
        for big_n in range(2, 513):
            value = epsilon_g(big_n)
            assert 0.0 < value < 1.0
            assert value <= math.pi**2 / big_n**2

    def test_scaled_limit_is_monotone(self):
        scaled = [epsilon_g(n) * n * n for n in (2, 4, 8, 16, 32, 64, 128, 256, 512)]
        assert scaled == sorted(scaled)

    def test_rejects_single_point(self):
        with pytest.raises(ProtocolError):
            epsilon_g(1)


def single_member_set() -> DiagramSet:
    """Hypothetical one-point lattice used as a fixture by other suites."""
    return DiagramSet(
        d=2, n=4, N=1, n0=0, rows=np.array([[3, 1]]),
    )


def test_single_member_set_rejected_by_sine_weights():
    with pytest.raises(ProtocolError):
        sine_weights(single_member_set())
