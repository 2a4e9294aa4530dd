"""Score matrix construction, fidelity quadratic form, and the eigenvalue route."""

import functools
import math
import re
import tracemalloc
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

import gateprog.scoring as scoring
from gateprog.protocol import ProtocolError, WeightVector, epsilon_g, sine_weights, viable_set
from gateprog.scoring import (
    _DENSE_SINE_MAX_N,
    _MATMUL_BLOCK,
    ConvergenceError,
    ScoreMatrix,
    _edge_slices,
    _trial_products,
    entanglement_fidelity,
    lemma3_bound,
    optimal_fidelity,
    qstar_error_closed_form,
    score_matrix,
)

from dense_score import dense, orbit_matrix, score_matrix_by_distance
from test_protocol import single_member_set


def count_matvecs(s):
    """Wrap ``s.matvec`` to record its calls; returns the list it appends to."""
    calls = []
    matvec = s.matvec

    def counted(v, out=None):
        calls.append(None)
        return matvec(v, out)

    # a ScoreMatrix is frozen, so the instance attribute is set past its __setattr__
    object.__setattr__(s, "matvec", counted)
    return calls


@dataclass
class DenseOperator:
    """The solver's operator on a dense symmetric matrix: the identity preconditioner,
    a given start, and as error form the Rayleigh quotient theta = v^T A v beside v."""

    matrix: np.ndarray
    initial: np.ndarray

    @property
    def dimension(self):
        return len(self.matrix)

    def matvec(self, v, out):
        return np.matmul(self.matrix, v, out=out)

    def start(self):
        return self.initial

    def preconditioner(self):
        return lambda r, w: np.copyto(w, r)

    def error_form(self, v):
        return float(v @ self.matrix @ v), v


# (target, source) slices of a move's component: source = target + the component
SHIFT = {1: (slice(None, -1), slice(1, None)), -1: (slice(1, None), slice(None, -1)),
         0: (slice(None), slice(None))}


def stencil_moves(d):
    """The d(d-1) moves e_i - e_j, i != j < d, on the box of the first d-1 rows, in
    lexicographic order: e_{d-1} is 0 there, so a move with i or j = d-1 is -/+e."""
    unit = np.eye(d, dtype=int)[:, :-1]
    return sorted(tuple((unit[i] - unit[j]).tolist())
                  for i, j in product(range(d), repeat=2) if i != j)


def stencil_matvec(s, v):
    """S v as d v plus the neighbour sum over ``stencil_moves``, one move at a time."""
    d, big_n = s.d, s.N
    x = v.reshape((big_n,) * (d - 1))
    neighbours = np.zeros(x.shape)
    for move in stencil_moves(d):
        target, source = zip(*(SHIFT[m] for m in move))
        neighbours[target] += x[source]
    return (d * x + neighbours).reshape(-1)


def directed_error(q, s):
    """The error form summed over every directed move, so every edge twice, with each
    move from t out of the box adding 2 a_t^2, over 2 d^2."""
    d, big_n = s.d, s.N
    a = q.amplitudes.reshape((big_n,) * (d - 1))
    missing = np.full(a.shape, d * (d - 1))
    twice = 0.0
    for move in stencil_moves(d):
        target, source = zip(*(SHIFT[m] for m in move))
        twice += float(np.sum((a[target] - a[source]) ** 2))
        missing[target] -= 1
    twice += 2.0 * float(np.sum(missing * a * a))
    return twice / (2 * d * d)


class TestScoreMatrix:
    def test_two_member_chain(self):
        s = score_matrix(viable_set(4, 2))
        assert dense(s).tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_four_member_chain_is_tridiagonal(self):
        matrix = dense(score_matrix(viable_set(8, 2)))
        expected = np.diag([2.0] * 4) + np.diag([1.0] * 3, 1) + np.diag([1.0] * 3, -1)
        assert np.array_equal(matrix, expected)

    def test_single_member(self):
        s = score_matrix(single_member_set())
        assert dense(s).tolist() == [[2.0]]

    @pytest.mark.parametrize(
        "n,d",
        [(4, 2), (9, 2), (20, 2), (60, 2), (13, 3), (26, 3), (41, 3), (60, 3),
         (27, 4), (40, 4), (61, 4), (46, 5), (80, 5), (70, 6)],
    )
    def test_lattice_equals_distance_construction(self, n, d):
        ds = viable_set(n, d)
        assert np.array_equal(dense(score_matrix(ds)), score_matrix_by_distance(ds))

    @pytest.mark.parametrize("d", range(2, 8))
    def test_edge_table_is_the_distance_two_pairs(self, d):
        # the box's edges, read from the table, are the member pairs at Young distance
        # 2, each once; n is the least with N = (2n/(d-1) + d - 2) // (3d-2)
        big_n = {2: 5, 3: 4, 4: 3, 5: 3, 6: 2, 7: 2}[d]
        ds = viable_set((d - 1) * (big_n * (3 * d - 2) - d + 2) // 2, d)
        assert ds.N == big_n
        index = np.arange(len(ds)).reshape((big_n,) * (d - 1))
        edges = [tuple(sorted(pair)) for tail, head in _edge_slices(d)
                 for pair in zip(index[tail].ravel().tolist(), index[head].ravel().tolist())]
        distance_two = np.argwhere(np.triu(score_matrix_by_distance(ds) == 1.0, 1))
        assert sorted(edges) == list(map(tuple, distance_two.tolist()))

    def test_edge_table_at_twenty_one_rows(self):
        assert len(_edge_slices(21)) == 21 * 20 // 2

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
            assert np.allclose(pieri, dense(s) @ v, atol=1e-13)

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
                dense(s), np.column_stack([s.matvec(e) for e in identity])
            )


class TestEntanglementFidelity:
    def test_uniform_two_member(self):
        ds = viable_set(4, 2)
        q = WeightVector(ds.d, ds.N, amplitudes=(math.sqrt(0.5),) * 2)
        result = entanglement_fidelity(q, score_matrix(ds))
        assert result.fidelity == pytest.approx(0.75, abs=1e-15)
        assert result.error == pytest.approx(0.25, abs=1e-15)

    def test_single_member_gives_inverse_dimension(self):
        ds = single_member_set()
        q = WeightVector(ds.d, ds.N, amplitudes=(1.0,))
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
        brute = float(amp @ dense(score_matrix(ds)) @ amp) / 9.0
        assert entanglement_fidelity(q, score_matrix(ds)).fidelity == pytest.approx(
            brute, abs=1e-14
        )

    @pytest.mark.parametrize("n, d", [(26, 3), (61, 4), (80, 5)])
    def test_error_is_dense_laplacian_form(self, n, d):
        # random weights: the boundary term counts each node's moves out of the box
        ds = viable_set(n, d)
        amps = np.random.default_rng(2).random(len(ds))
        q = WeightVector(ds.d, ds.N, amplitudes=amps / np.linalg.norm(amps))
        amp = q.amplitudes
        laplacian = d * d * np.eye(len(ds)) - dense(score_matrix(ds))
        brute = float(amp @ laplacian @ amp) / (d * d)
        assert entanglement_fidelity(q, score_matrix(ds)).error == pytest.approx(
            brute, rel=1e-13
        )

    @pytest.mark.parametrize(
        "d, big_n",
        [(2, 1), (2, 2), (2, 300), (3, 1), (3, 40), (4, 1), (4, 12), (5, 1), (5, 7),
         (6, 1), (6, 5), (21, 1), (21, 2)],
    )
    def test_edge_sum_matches_directed_sum(self, d, big_n):
        # random non-negative weights.  Either form is a sum of at most
        # K = d(d-1) N^(d-1) non-negative terms, each of at most 3 roundings, and one
        # division, so each lies within (K + 3) eps of the exact error, to first order
        s = ScoreMatrix(d, big_n)
        amps = np.random.default_rng(d * big_n).random(s.dimension)
        q = WeightVector(d, big_n, amps / np.linalg.norm(amps))
        result = entanglement_fidelity(q, s)
        expected = directed_error(q, s)
        terms = d * (d - 1) * s.dimension
        assert abs(result.error - expected) <= 2 * (terms + 3) * np.finfo(float).eps * expected
        assert result.fidelity == 1.0 - result.error

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

    @pytest.mark.parametrize("d", [0, 1])
    def test_gate_dimension_below_two_refused(self, d):
        # the operator is refused as it is made, before a solve, weights or a fidelity
        # reads it
        with pytest.raises(ProtocolError, match=f"gate dimension must be at least 2, got d={d}"):
            optimal_fidelity(ScoreMatrix(d, 4))

    @pytest.mark.parametrize("d, big_n", [(2, 2**20 + 1), (3, 1025), (30, 2), (20000, 2)])
    def test_box_over_the_member_budget_refused(self, monkeypatch, d, big_n):
        # the operator's dimension is read first: nothing of its length is built; one
        # past 64 bits, 2^19999 at d=20000, is named by its bit length, not written out
        def refuse(*args):
            raise AssertionError("the solve used the operator")

        for method in ("preconditioner", "start", "matvec"):
            monkeypatch.setattr(ScoreMatrix, method, refuse)
        size = big_n ** (d - 1)
        count = f"{size}\\^1 = {size}" if d < 20000 else r"\(20000-bit number\)\^1"
        with pytest.raises(ProtocolError, match=(
                f"dimension = {count} members exceeds the budget of 1048576 members")):
            optimal_fidelity(ScoreMatrix(d, big_n))

    def test_chain_eigenvalue_closed_form(self):
        # largest eigenvalue of the length-N chain is 2 + 2 cos(pi / (N+1))
        for big_n in (2, 3, 5, 8, 16, 64):
            s = score_matrix(viable_set(2 * big_n, 2))
            expected = (2.0 + 2.0 * math.cos(math.pi / (big_n + 1))) / 4.0
            assert optimal_fidelity(s).fidelity == pytest.approx(expected, abs=1e-11)

    @pytest.mark.parametrize("n", [4096, 8192, 32768])
    def test_chain_closed_form_at_large_n(self, n):
        s = score_matrix(viable_set(n, 2))
        expected = (2.0 + 2.0 * math.cos(math.pi / (s.N + 1))) / 4.0
        assert abs(optimal_fidelity(s).fidelity - expected) <= 1e-12

    @pytest.mark.parametrize("n", [512, 2048, 8192])
    def test_error_against_mpmath(self, n):
        # at d = 2 the optimal error is sin^2(pi / (2 (N + 1))); taken as 1 - theta / d^2
        # it would keep only about 16 + log10(error) digits
        mpmath = pytest.importorskip("mpmath")
        s = score_matrix(viable_set(n, 2))
        result = optimal_fidelity(s)
        with mpmath.workdps(50):
            exact = mpmath.sin(mpmath.pi / (2 * (s.N + 1))) ** 2
        assert abs(result.error - exact) <= 1e-12 * exact
        assert result.fidelity == 1.0 - result.error

    @pytest.mark.parametrize("n,d", [(41, 3), (61, 4)])
    def test_against_dense_eigensolver(self, n, d):
        s = score_matrix(viable_set(n, d))
        dense_max = float(np.linalg.eigvalsh(dense(s))[-1])
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

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(scoring, "_MAX_MATVECS", 2)
        with pytest.raises(ConvergenceError,
                           match=r"dimension-16 .* 2-matvec cap with residual \d"):
            optimal_fidelity(score_matrix(viable_set(32, 2)))

    def test_zero_cap_raises_after_the_first_matvec(self, monkeypatch):
        # the first matvec is made before any cap check, so the message has a residual
        monkeypatch.setattr(scoring, "_MAX_MATVECS", 0)
        with pytest.raises(ConvergenceError, match=r"0-matvec cap with residual \d"):
            optimal_fidelity(score_matrix(viable_set(32, 2)))

    @pytest.mark.parametrize("n", range(8, 641, 8))
    def test_tolerance_below_rounding_fails_cleanly(self, monkeypatch, n):
        # no vector meets 1e-17: the trial basis loses rank at the rounding floor,
        # SVQB drops the dependent directions, and the residual the solver reports
        # at the cap stays at that floor.  Each entry of S v - theta v carries the
        # 3(d-1) + 2 roundings of the matvec, the product and the difference, so the
        # Rayleigh-Ritz entries are known to c eps theta, c = 3(d-1) + 2 (S and v
        # non-negative, v of unit length).  A step coefficient along a direction the
        # projection resolves only by the gap delta = lambda_1 - lambda_2 is then off
        # by up to c eps theta / delta, and it moves the residual by up to
        # ||S - theta|| <= theta times that: the floor is c eps theta (1 + theta / delta).
        # At d=2 the eigenvalues are 2 + 2 cos(pi k / (N+1)).
        monkeypatch.setattr(scoring, "_TOL", 1e-17)
        monkeypatch.setattr(scoring, "_MAX_MATVECS", 300)
        d = 2
        s = score_matrix(viable_set(n, d))
        with pytest.raises(ConvergenceError, match=r"300-matvec cap") as info:
            optimal_fidelity(s)
        top, second = 2.0 + 2.0 * np.cos(np.pi * np.array([1, 2]) / (s.N + 1))
        c = 3 * (d - 1) + 2
        floor = c * np.finfo(float).eps * top * (1.0 + top / (top - second))
        assert float(re.search(r"with residual (\S+) ", str(info.value))[1]) <= floor

    def test_iteration_cap_counts_every_matvec(self, monkeypatch):
        # a solve that takes m matvecs, the confirming one included, succeeds under a
        # cap of m with the same result and fails under a cap of m - 1
        for n, d in ((64, 2), (4096, 2), (60, 3), (300, 3), (61, 4)):
            s = score_matrix(viable_set(n, d))
            calls = count_matvecs(s)
            expected = optimal_fidelity(s).fidelity
            # the last call is the error form's S 1, which the cap does not count
            m = len(calls) - 1
            assert m >= 2
            with monkeypatch.context() as patch:
                patch.setattr(scoring, "_MAX_MATVECS", m)
                assert optimal_fidelity(s).fidelity == expected
                patch.setattr(scoring, "_MAX_MATVECS", m - 1)
                with pytest.raises(ConvergenceError,
                                   match=rf"{m - 1}-matvec cap with residual \d"):
                    optimal_fidelity(s)

    @pytest.mark.parametrize("n,d", [(300, 3), (1035, 3), (1042, 3), (2000, 3), (600, 4)])
    def test_matvec_count_does_not_grow_with_n(self, n, d):
        # the sine-transform preconditioner is spectrally equivalent to d^2 I - S with
        # constants free of N, so the solver needs about 20 matvecs at every size; at
        # d=3, n=1035 (N=148) and n=1042 (N=149) lie either side of the dense crossover
        s = score_matrix(viable_set(n, d))
        calls = count_matvecs(s)
        optimal_fidelity(s)
        assert len(calls) <= 40

    @pytest.mark.parametrize("d, big_n, vectors",
                             [(3, 85, 10.5), (4, 20, 9.5), (5, 12, 8.9), (3, 200, 14.0)])
    def test_working_set(self, d, big_n, vectors):
        # a solve allocates its box-sized vectors once: the six of the trial block, the
        # preconditioner's one buffer, its columns on the dense route or its padded
        # lines, about two, on the rfft route (N=200), and one matvec temporary; only x
        # outlives the loop.  T's eigenvalues are formed in that buffer, and the N x N
        # sine matrix counts as one vector more at d=3 N=85.  tracemalloc counts
        # numpy's buffers, so the peak repeats for one code path: each dense bound is
        # its measured peak (10.16, 9.23 and 8.56 vectors) plus about a third of a
        # vector.  The rfft's plan cache, built on a length's first use, moves the
        # N=200 peak between runs, so that bound keeps its wider margin
        s = ScoreMatrix(d, big_n)
        tracemalloc.start()
        try:
            optimal_fidelity(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vectors * 8 * s.dimension


class TestOperatorContract:
    """The LOBPCG loop on operators that are not a box: a dense matrix and S on the
    S_{d-1}-orbits, each with the identity preconditioner."""

    @pytest.mark.parametrize("m", [1, 2, 7, 40, 200])
    def test_dense_random_matrix(self, m):
        rng = np.random.default_rng(m)
        a = rng.random((m, m))
        a += a.T
        theta, v = optimal_fidelity(DenseOperator(a, rng.random(m) + 0.1))
        top = np.linalg.eigh(a)
        assert abs(theta - top[0][-1]) <= 1e-10
        assert np.all(v > 0.0) and abs(v @ v - 1.0) <= 1e-15
        assert np.allclose(v, np.abs(top[1][:, -1]), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("d, big_n", [(3, big_n) for big_n in range(2, 9)]
                             + [(4, big_n) for big_n in range(2, 6)])
    def test_symmetric_orbits_match_the_box(self, d, big_n):
        # S commutes with S_{d-1}, and its principal eigenvector, unique and positive,
        # is constant on each orbit: S on the orbits has the box's largest eigenvalue
        matrix, sizes = orbit_matrix(d, big_n)
        assert np.allclose(matrix, matrix.T, rtol=4 * np.finfo(float).eps, atol=0.0)
        theta, _ = optimal_fidelity(DenseOperator(matrix, np.sqrt(sizes)))
        box = optimal_fidelity(ScoreMatrix(d, big_n))
        assert abs(theta - d * d * box.fidelity) <= 1e-10

    def test_sign_change_ends_cleanly(self):
        # 3 I minus the path's adjacency: the top eigenvector alternates in sign, which
        # no non-negative irreducible operator gives
        m = 5
        a = 3.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
        with pytest.raises(ConvergenceError,
                           match="^principal eigenvector came out with negative entries$"):
            optimal_fidelity(DenseOperator(a, np.arange(1.0, m + 1)))

    def test_cap_message(self, monkeypatch):
        rng = np.random.default_rng(4)
        a = rng.random((40, 40))
        a += a.T
        monkeypatch.setattr(scoring, "_MAX_MATVECS", 2)
        number = r"\d\.\d{3}e[-+]\d\d"
        with pytest.raises(ConvergenceError, match=(
            rf"^LOBPCG on the dimension-40 lattice hit the 2-matvec cap with residual "
            rf"{number} \(target {number}\)$"
        )):
            optimal_fidelity(DenseOperator(a, np.ones(40)))


def preconditioner_rounding(big_n, axes):
    """A bound, per unit ||r||, on the 2-norm rounding error of the preconditioner's w
    on the (N,)*axes box, or of any route that computes the same transforms.

    Along one axis each entry sums N products with sines of modulus at most 1, so its
    error is at most N eps sqrt(N) times the norm of its input line, and each sine,
    its argument reduced to at most 2 pi, carries at most 10 eps: an axis adds at
    most N (N + 10) eps ||x||.  The padded rfft's error, O(log N) eps times its norm
    sqrt(2(N+1)), stays under that.  The exact transform multiplies norms by
    sigma = sqrt((N+1)/2) per axis, so a transform adds at most
    axes N (N + 10) eps sigma^(axes-1) ||x||.  T's eigenvalues each carry at most
    4 axes eps, so the division adds eps + 4 axes eps / lambda_min of its output and
    multiplies what it divides by at most 1 / lambda_min.  Summed to first order and
    doubled for the higher orders.
    """
    eps = np.finfo(float).eps
    sigma = math.sqrt((big_n + 1) / 2)
    lambda_min = axes * (2.0 - 2.0 * math.cos(math.pi / (big_n + 1)))
    first_order = eps * (2 * axes * big_n * (big_n + 10) / sigma + 1 + 4 * axes / lambda_min)
    return 2 * sigma ** (2 * axes) / lambda_min * first_order


def dirichlet_laplacian(w):
    """T w by slices: 2 w[t] - w[t + e_j] - w[t - e_j] summed over the axes j, with w
    zero outside the box."""
    t = 2.0 * w.ndim * w
    for j in range(w.ndim):
        head = (slice(None),) * j
        t[head + (slice(None, -1),)] -= w[head + (slice(1, None),)]
        t[head + (slice(1, None),)] -= w[head + (slice(None, -1),)]
    return t


class TestSineTransform:
    """``ScoreMatrix.preconditioner``'s contract, w = ((N+1)/2)^(d-1) T^-1 r, on both
    routes: up to the crossover by the sine matrix, above it by the padded rfft."""

    cases = pytest.mark.parametrize(
        "big_n,axes",
        [(1, 1), (5, 1), (6, 2), (4, 3)]
        + [(n, axes) for n in (_DENSE_SINE_MAX_N, _DENSE_SINE_MAX_N + 1) for axes in (1, 2, 3)],
    )

    @staticmethod
    def precondition(big_n, axes):
        r = np.random.default_rng(3).standard_normal(big_n**axes)
        w = np.empty_like(r)
        ScoreMatrix(axes + 1, big_n).preconditioner()(r, w)
        return r.reshape((big_n,) * axes), w.reshape((big_n,) * axes)

    @cases
    def test_matches_dense_sine_matrix(self, big_n, axes):
        r, w = self.precondition(big_n, axes)
        k = np.arange(1, big_n + 1)
        sines = np.sin(np.pi * (np.outer(k, k) % (2 * big_n + 2)) / (big_n + 1))
        modes = 2.0 - 2.0 * np.cos(np.pi * k / (big_n + 1))
        spectrum = sum(np.ix_(*[modes] * axes))

        def transform(x):
            for axis in range(axes):
                x = -np.moveaxis(np.tensordot(sines, x, axes=(1, axis)), 0, axis)
            return x

        expected = transform(transform(r) / spectrum)
        # both sides are within the rounding bound of the exact value
        bound = 2 * preconditioner_rounding(big_n, axes) * np.linalg.norm(r)
        assert np.linalg.norm(w - expected) <= bound

    @cases
    def test_inverts_dirichlet_laplacian(self, big_n, axes):
        r, w = self.precondition(big_n, axes)
        scale = ((big_n + 1) / 2) ** axes
        # T multiplies w's error by at most 4 axes, and each entry of T w sums 2 axes + 1
        # terms of w's magnitude, ||w|| <= scale ||r|| / lambda_min
        lambda_min = axes * (2.0 - 2.0 * math.cos(math.pi / (big_n + 1)))
        apply_rounding = (2 * axes + 1) * 4 * axes * np.finfo(float).eps * scale / lambda_min
        bound = (4 * axes * preconditioner_rounding(big_n, axes) + 2 * apply_rounding) \
            * np.linalg.norm(r)
        assert np.linalg.norm(dirichlet_laplacian(w) - scale * r) <= bound


def blockwise_preconditioner(s, r):
    """``s.preconditioner()``'s w for r, each pass into a new array and T's eigenvalues
    formed a block of lines at a time by ``np.add.outer(lead[block], modes)``, in the
    route's row blocks."""
    big_n, axes = s.N, s.d - 1
    modes = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, big_n + 1) / (big_n + 1))
    lead = functools.reduce(np.add.outer, [modes] * (axes - 1), np.zeros(1)).ravel()
    if big_n <= _DENSE_SINE_MAX_N:
        k = np.arange(1, big_n + 1)
        sines = -np.sin(np.pi * (np.outer(k, k) % (2 * big_n + 2)) / (big_n + 1))
        rows = _MATMUL_BLOCK // (big_n * big_n)

        def axis(x):
            columns = x.reshape(big_n, -1)
            return np.concatenate([columns[:, start : start + rows].T @ sines
                                   for start in range(0, columns.shape[1], rows)]).ravel()
    else:
        rows = max(1, _MATMUL_BLOCK // (2 * big_n + 2))

        def axis(x):
            padded = np.zeros((x.size // big_n, 2 * big_n + 2))
            padded[:, 1 : big_n + 1] = x.reshape(-1, big_n)
            image = np.concatenate([np.fft.rfft(padded[start : start + rows])[:, 1 : big_n + 1]
                                    for start in range(0, len(padded), rows)]).imag
            return image.T.ravel()

    x = r
    for step in range(2 * axes):
        x = axis(x)
        if step == axes - 1:
            lines = x.reshape(-1, big_n)
            for start in range(0, len(lines), rows):
                block = slice(start, start + rows)
                lines[block] /= np.add.outer(lead[block], modes)
    return x


@pytest.mark.parametrize("d, big_n",
                         [(2, 64), (3, 85), (4, 20), (3, 148), (3, 149), (3, 200)])
def test_preconditioner_matches_blockwise_division(d, big_n):
    # T's eigenvalues, formed in the route's buffer, are the same floats as the
    # blockwise reference's, on the dense route (N <= 148, its last box included) and
    # the rfft route, with r and w one array or two; two arrays leave r as it was
    s = ScoreMatrix(d, big_n)
    r = np.random.default_rng(d * big_n).standard_normal(s.dimension)
    expected = blockwise_preconditioner(s, r)
    precondition = s.preconditioner()
    w, given = np.empty_like(r), r.copy()
    precondition(given, w)
    assert np.array_equal(w, expected)
    assert np.array_equal(given, r)
    w = r.copy()
    precondition(w, w)
    assert np.array_equal(w, expected)


class TestTrialProducts:
    def test_blocks_sum_to_one_product(self):
        # the d=3, N=171 box has 29,241 members, past one block of _MATMUL_BLOCK // 18
        members = 171**2
        assert members > _MATMUL_BLOCK // 18
        work = np.random.default_rng(5).random((3, 2, members))
        gram, projected = _trial_products(work)
        vectors = work[:, 0]
        # each entry sums M positive products, so rounding stays within M ulps of it
        rtol = members * np.finfo(float).eps
        np.testing.assert_allclose(gram, vectors @ vectors.T, rtol=rtol)
        np.testing.assert_allclose(projected, work[:, 1] @ vectors.T, rtol=rtol)


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
        d = s.d
        assert abs(result.fidelity * d * d - top) <= 1e-10

    def test_beats_sine_weights(self, frontier):
        s, result = frontier
        assert result.fidelity >= entanglement_fidelity(sine_weights(s), s).fidelity

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
