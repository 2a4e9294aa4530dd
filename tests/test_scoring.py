"""Score matrix construction, fidelity quadratic form, and the eigenvalue route."""

import math
import re
from itertools import product

import numpy as np
import pytest

from gateprog.protocol import ProtocolError, WeightVector, epsilon_g, sine_weights, viable_set
from gateprog.scoring import (
    _DENSE_SINE_MAX_N,
    ConvergenceError,
    _sine_transform,
    _sine_work,
    _stencil_slices,
    entanglement_fidelity,
    lemma3_bound,
    optimal_fidelity,
    qstar_error_closed_form,
    score_matrix,
    score_matrix_by_distance,
)

from test_protocol import single_member_set


def count_matvecs(s):
    """Wrap ``s.matvec`` to record its calls; returns the list it appends to."""
    calls = []
    matvec = s.matvec

    def counted(v):
        calls.append(None)
        return matvec(v)

    s.matvec = counted
    return calls


def stencil_matvec(s, v):
    """S v as d v plus the neighbour sum over ``_stencil_slices``, one move at a time."""
    d, big_n = s.diagram_set.d, s.diagram_set.N
    x = v.reshape((big_n,) * (d - 1))
    neighbours = np.zeros(x.shape)
    for target, source in _stencil_slices(d):
        neighbours[target] += x[source]
    return (d * x + neighbours).reshape(-1)


class TestScoreMatrix:
    def test_two_member_chain(self):
        s = score_matrix(viable_set(4, 2))
        assert s.dense().tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_four_member_chain_is_tridiagonal(self):
        dense = score_matrix(viable_set(8, 2)).dense()
        expected = np.diag([2.0] * 4) + np.diag([1.0] * 3, 1) + np.diag([1.0] * 3, -1)
        assert np.array_equal(dense, expected)

    def test_single_member(self):
        s = score_matrix(single_member_set())
        assert s.dense().tolist() == [[2.0]]

    @pytest.mark.parametrize(
        "n,d",
        [(4, 2), (9, 2), (20, 2), (60, 2), (13, 3), (26, 3), (41, 3), (60, 3),
         (27, 4), (40, 4), (61, 4), (46, 5), (80, 5), (70, 6)],
    )
    def test_lattice_equals_distance_construction(self, n, d):
        ds = viable_set(n, d)
        assert np.array_equal(score_matrix(ds).dense(), score_matrix_by_distance(ds))

    @pytest.mark.parametrize("d", range(2, 8))
    def test_stencil_moves_in_ascending_offset_order(self, d):
        # the 3^(d-1) move tuples filtered for unit and exchange moves, in product order
        expected = [
            move for move in product((-1, 0, 1), repeat=d - 1)
            if sorted(m for m in move if m) in ([-1], [1], [-1, 1])
        ]
        step = {(None, -1, 1, None): 1, (1, None, None, -1): -1, (None, None, None, None): 0}
        moves = [
            tuple(step[(t.start, t.stop, u.start, u.stop)] for t, u in zip(target, source))
            for target, source in _stencil_slices(d)
        ]
        assert moves == expected

    def test_stencil_at_twenty_one_rows(self):
        assert len(_stencil_slices(21)) == 21 * 20

    # N = 2 boxes, where every node lies on a face, at n = 4, 13, 27, 46, 70 and 1030
    @pytest.mark.parametrize(
        "n,d",
        [(4, 2), (60, 2), (13, 3), (26, 3), (27, 4), (61, 4), (46, 5), (80, 5), (70, 6),
         (300, 6), (1030, 21)],
    )
    def test_matvec_matches_dense(self, n, d):
        # the Pieri form against the stencil's neighbour sum, within a few ulps of the
        # sum of absolute terms |S| |v|, and against the dense matrix where it fits
        ds = viable_set(n, d)
        s = score_matrix(ds)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(len(ds))
        pieri = s.matvec(v)
        ulps = 4 * np.finfo(float).eps * stencil_matvec(s, np.abs(v))
        assert np.all(np.abs(pieri - stencil_matvec(s, v)) <= ulps)
        if len(ds) <= 1000:
            assert np.allclose(pieri, s.dense() @ v, atol=1e-13)

    @pytest.mark.parametrize("n,d", [(4, 2), (60, 2), (26, 3), (61, 4), (80, 5), (70, 6)])
    def test_block_matvec_is_column_matvecs(self, n, d):
        # each column of the block goes through the same adds in the same order
        s = score_matrix(viable_set(n, d))
        block = np.random.default_rng(2).standard_normal((s.dimension, 3))
        columns = np.column_stack([s.matvec(v) for v in block.T])
        assert np.array_equal(s.matvec(block), columns)
        if s.dimension <= 1000:
            identity = np.eye(s.dimension)
            assert np.array_equal(
                s.dense(), np.column_stack([s.matvec(e) for e in identity])
            )


class TestEntanglementFidelity:
    def test_uniform_two_member(self):
        ds = viable_set(4, 2)
        q = WeightVector(diagram_set=ds, amplitudes=(math.sqrt(0.5),) * 2)
        result = entanglement_fidelity(q, score_matrix(ds))
        assert result.fidelity == pytest.approx(0.75, abs=1e-15)
        assert result.error == pytest.approx(0.25, abs=1e-15)

    def test_single_member_gives_inverse_dimension(self):
        ds = single_member_set()
        q = WeightVector(diagram_set=ds, amplitudes=(1.0,))
        assert entanglement_fidelity(q, score_matrix(ds)).fidelity == pytest.approx(0.5)

    def test_sine_weights_n8(self):
        ds = viable_set(8, 2)
        result = entanglement_fidelity(sine_weights(ds), score_matrix(ds))
        expected = (2.0 + 2.0 * (1.0 - epsilon_g(4))) / 4.0
        assert result.fidelity == pytest.approx(expected, abs=1e-14)
        assert result.fidelity == pytest.approx(0.8901650429449556, abs=1e-12)

    def test_brute_force_dense_route(self):
        ds = viable_set(26, 3)
        q = sine_weights(ds)
        amp = q.amplitudes
        brute = float(amp @ score_matrix(ds).dense() @ amp) / 9.0
        assert entanglement_fidelity(q, score_matrix(ds)).fidelity == pytest.approx(
            brute, abs=1e-14
        )

    @pytest.mark.parametrize("n, d", [(26, 3), (61, 4), (80, 5)])
    def test_error_is_dense_laplacian_form(self, n, d):
        # random weights: the boundary term counts each node's moves out of the box
        ds = viable_set(n, d)
        amps = np.random.default_rng(2).random(len(ds))
        q = WeightVector(diagram_set=ds, amplitudes=amps / np.linalg.norm(amps))
        amp = q.amplitudes
        laplacian = d * d * np.eye(len(ds)) - score_matrix(ds).dense()
        brute = float(amp @ laplacian @ amp) / (d * d)
        assert entanglement_fidelity(q, score_matrix(ds)).error == pytest.approx(
            brute, rel=1e-13
        )

    def test_mismatched_sets_rejected(self):
        q = sine_weights(viable_set(4, 2))
        s = score_matrix(viable_set(8, 2))
        with pytest.raises(ValueError):
            entanglement_fidelity(q, s)

    @pytest.mark.parametrize("d, n", [(2, 512), (2, 2048), (2, 8192), (3, 600), (3, 2000)])
    def test_sine_error_against_mpmath(self, d, n):
        # closed form ((d-1)(d-2) e (2-e) + 2(d-1) e) / d^2 with e = eps_g; taken as
        # 1 - F, the error kept only about 16 + log10(error) digits
        mpmath = pytest.importorskip("mpmath")
        ds = viable_set(n, d)
        result = entanglement_fidelity(sine_weights(ds), score_matrix(ds))
        with mpmath.workdps(50):
            e = 2 * (ds.N - 1) * mpmath.sin(mpmath.pi / (2 * ds.N)) ** 2 / ds.N
            exact = ((d - 1) * (d - 2) * e * (2 - e) + 2 * (d - 1) * e) / d**2
        assert abs(result.error - exact) <= 1e-12 * exact
        assert result.fidelity == 1.0 - result.error


class TestOptimalFidelity:
    def test_two_member_chain(self):
        result = optimal_fidelity(score_matrix(viable_set(4, 2)))
        assert result.fidelity == pytest.approx(0.75, abs=1e-12)

    def test_single_member_refused(self):
        # N = 1, which viable_set never builds: the solver starts from the sine
        # amplitudes, which need N >= 2
        with pytest.raises(ProtocolError, match="undefined for N=1"):
            optimal_fidelity(score_matrix(single_member_set()))

    def test_chain_eigenvalue_closed_form(self):
        # largest eigenvalue of the length-N chain is 2 + 2 cos(pi / (N+1))
        for big_n in (2, 3, 5, 8, 16, 64):
            s = score_matrix(viable_set(2 * big_n, 2))
            expected = (2.0 + 2.0 * math.cos(math.pi / (big_n + 1))) / 4.0
            assert optimal_fidelity(s).fidelity == pytest.approx(expected, abs=1e-11)

    @pytest.mark.parametrize("n", [4096, 8192, 32768])
    def test_chain_closed_form_at_large_n(self, n):
        s = score_matrix(viable_set(n, 2))
        expected = (2.0 + 2.0 * math.cos(math.pi / (s.diagram_set.N + 1))) / 4.0
        assert abs(optimal_fidelity(s).fidelity - expected) <= 1e-12

    @pytest.mark.parametrize("n", [512, 2048, 8192])
    def test_error_against_mpmath(self, n):
        # at d = 2 the optimal error is sin^2(pi / (2 (N + 1))); taken as 1 - theta / d^2
        # it would keep only about 16 + log10(error) digits
        mpmath = pytest.importorskip("mpmath")
        s = score_matrix(viable_set(n, 2))
        result = optimal_fidelity(s)
        with mpmath.workdps(50):
            exact = mpmath.sin(mpmath.pi / (2 * (s.diagram_set.N + 1))) ** 2
        assert abs(result.error - exact) <= 1e-12 * exact
        assert result.fidelity == 1.0 - result.error

    @pytest.mark.parametrize("n,d", [(41, 3), (61, 4)])
    def test_against_dense_eigensolver(self, n, d):
        s = score_matrix(viable_set(n, d))
        dense_max = float(np.linalg.eigvalsh(s.dense())[-1])
        assert optimal_fidelity(s).fidelity * d * d == pytest.approx(dense_max, abs=1e-10)

    def test_beats_sine_weights(self):
        for n, d in ((8, 2), (33, 2), (26, 3), (55, 3)):
            ds = viable_set(n, d)
            s = score_matrix(ds)
            sine = entanglement_fidelity(sine_weights(ds), s).fidelity
            assert optimal_fidelity(s).fidelity >= sine - 1e-13

    @pytest.mark.parametrize("n,d", [(16, 2), (60, 3), (61, 4)])
    def test_principal_weights_are_positive(self, n, d):
        amps = optimal_fidelity(score_matrix(viable_set(n, d))).weights_used.amplitudes
        assert min(amps) > 0.0
        assert abs(math.fsum(amps * amps) - 1.0) <= 1e-12

    def test_iteration_cap_raises(self):
        with pytest.raises(ConvergenceError,
                           match=r"dimension-16 .* 2-matvec cap with residual \d"):
            optimal_fidelity(score_matrix(viable_set(32, 2)), max_iterations=2)

    @pytest.mark.parametrize("n", [8, 64, 128])
    def test_tolerance_below_rounding_fails_cleanly(self, n):
        # no vector meets 1e-17: the trial basis loses rank at the rounding floor,
        # SVQB drops the dependent directions, and the residual the solver reports
        # at the cap stays at that floor
        with pytest.raises(ConvergenceError, match=r"300-matvec cap") as info:
            optimal_fidelity(score_matrix(viable_set(n, 2)), tol=1e-17, max_iterations=300)
        assert float(re.search(r"with residual (\S+) ", str(info.value))[1]) < 1e-13

    def test_iteration_cap_counts_every_matvec(self):
        # a solve that takes m matvecs, the confirming one included, succeeds under a
        # cap of m with the same result and fails under a cap of m - 1
        for n, d in ((64, 2), (4096, 2), (60, 3), (300, 3), (61, 4)):
            s = score_matrix(viable_set(n, d))
            calls = count_matvecs(s)
            expected = optimal_fidelity(s).fidelity
            m = len(calls)
            assert m >= 2
            assert optimal_fidelity(s, max_iterations=m).fidelity == expected
            with pytest.raises(ConvergenceError, match=rf"{m - 1}-matvec cap with residual \d"):
                optimal_fidelity(s, max_iterations=m - 1)

    @pytest.mark.parametrize("n,d", [(300, 3), (1035, 3), (1042, 3), (2000, 3), (600, 4)])
    def test_matvec_count_does_not_grow_with_n(self, n, d):
        # the sine-transform preconditioner is spectrally equivalent to d^2 I - S with
        # constants free of N, so the solver needs about 20 matvecs at every size; at
        # d=3, n=1035 (N=148) and n=1042 (N=149) lie either side of the dense crossover
        s = score_matrix(viable_set(n, d))
        calls = count_matvecs(s)
        optimal_fidelity(s)
        assert len(calls) <= 40


class TestSineTransform:
    # up to the crossover by the sine matrix, above it by the padded rfft
    @pytest.mark.parametrize(
        "big_n,axes",
        [(1, 1), (5, 1), (6, 2), (4, 3)]
        + [(n, axes) for n in (_DENSE_SINE_MAX_N, _DENSE_SINE_MAX_N + 1) for axes in (1, 2, 3)],
    )
    def test_matches_dense_sine_matrix(self, big_n, axes):
        k = np.arange(1, big_n + 1)
        sines = np.sin(np.pi * np.outer(k, k) / (big_n + 1))
        x = np.random.default_rng(3).standard_normal((big_n,) * axes)
        expected = x
        for axis in range(axes):
            expected = -np.moveaxis(np.tensordot(sines, expected, axes=(1, axis)), 0, axis)
        # each axis sums N terms, so rounding stays within N ulps of the largest entry per axis
        bound = 4 * np.finfo(float).eps * axes * big_n * np.abs(expected).max()
        assert np.abs(_sine_transform(x, _sine_work(x.shape)) - expected).max() <= bound


@pytest.fixture(scope="module", params=[(1200, 3), (600, 4)], ids=["1200-3", "600-4"])
def frontier(request):
    """Lattices of 29,241 and 64,000 members, beyond the dense oracle's reach; each is
    solved once for all the tests that use it."""
    s = score_matrix(viable_set(*request.param))
    return s, optimal_fidelity(s)


class TestFrontier:
    def test_against_arpack(self, frontier):
        linalg = pytest.importorskip("scipy.sparse.linalg")
        s, result = frontier
        dim = s.dimension
        operator = linalg.LinearOperator((dim, dim), matvec=s.matvec, dtype=float)
        top = float(linalg.eigsh(operator, k=1, which="LA", v0=np.ones(dim),
                                 return_eigenvectors=False)[0])
        d = s.diagram_set.d
        assert abs(result.fidelity * d * d - top) <= 1e-10

    def test_beats_sine_weights(self, frontier):
        s, result = frontier
        assert result.fidelity >= entanglement_fidelity(sine_weights(s.diagram_set), s).fidelity

    def test_principal_weights_are_positive(self, frontier):
        assert min(frontier[1].weights_used.amplitudes) > 0.0


class TestClosedForm:
    def test_values(self):
        # epsilon_g(2) = 1/2 and epsilon_g(3) = 1/3
        assert qstar_error_closed_form(2, 2) == pytest.approx(0.25, rel=1e-15)
        assert qstar_error_closed_form(3, 2) == pytest.approx(3.5 / 9, rel=1e-15)
        assert qstar_error_closed_form(2, 3) == pytest.approx(1 / 6, rel=1e-15)
        assert qstar_error_closed_form(3, 3) == pytest.approx((10 / 9 + 4 / 3) / 9, rel=1e-15)

    def test_refuses_invalid_arguments(self):
        with pytest.raises(ValueError, match="gate dimension must be at least 2"):
            qstar_error_closed_form(1, 4)
        with pytest.raises(ProtocolError, match="coherence deficit undefined for N=1"):
            qstar_error_closed_form(2, 1)

    @pytest.mark.parametrize("d,ns", [(2, range(4, 65)), (3, range(13, 41))])
    def test_matches_quadratic_form(self, d, ns):
        # the Pieri matvec's score, on the score scale d^2 (1 - epsilon)
        for n in ns:
            ds = viable_set(n, d)
            amp = sine_weights(ds).amplitudes
            quad = float(amp @ score_matrix(ds).matvec(amp))
            assert abs(quad - d * d * (1.0 - qstar_error_closed_form(d, ds.N))) <= 1e-12

    @pytest.mark.parametrize("d, n", [(2, 512), (2, 1024), (2, 4096), (3, 600), (4, 300),
                                      (14, 442), (16, 661)])
    def test_matches_lattice_sum(self, d, n):
        # the error as the report read it before the closed form: both sides keep their
        # digits, and the lattice sum's rounding grows with its depth, log2 |set|
        ds = viable_set(n, d)
        lattice = entanglement_fidelity(sine_weights(ds), score_matrix(ds)).error
        closed = qstar_error_closed_form(d, ds.N)
        assert abs(lattice - closed) <= (math.log2(len(ds)) + 4) * np.finfo(float).eps * closed


class TestLemma3Bound:
    def test_frozen_value_at_n64(self):
        assert lemma3_bound(2, 64) == pytest.approx(1.0 - 2.0 * (math.pi / 62) ** 2, abs=1e-15)
        assert lemma3_bound(2, 64) == pytest.approx(0.9948649300722741, abs=1e-13)

    def test_approaches_one(self):
        assert lemma3_bound(2, 10**6) > 1.0 - 1e-10

    def test_negative_values_not_clamped(self):
        assert lemma3_bound(2, 4) == pytest.approx(-3.934802200544679, abs=1e-12)

    def test_floor_holds_for_sine_weights(self):
        for n, d in ((4, 2), (16, 2), (64, 2), (13, 3), (26, 3), (60, 3)):
            ds = viable_set(n, d)
            fidelity = entanglement_fidelity(sine_weights(ds), score_matrix(ds)).fidelity
            assert fidelity >= lemma3_bound(d, n)


class TestErrorGuarantee:
    @pytest.mark.parametrize("d,ns", [(2, (4, 8, 16, 33, 64)), (3, (13, 26, 41, 60))])
    def test_both_errors_within_bound(self, d, ns):
        for n in ns:
            ds = viable_set(n, d)
            s = score_matrix(ds)
            bound = 2.0 * (math.pi * (d - 1) ** 2 * (3 * d - 2) / (d * n)) ** 2
            assert entanglement_fidelity(sine_weights(ds), s).error <= bound
            assert optimal_fidelity(s).error <= bound
