"""Quadrature, characters, and the Monte-Carlo Choi reconstruction."""

import math
import tracemalloc

import numpy as np
import pytest

from gateprog import oracle, scoring
from gateprog.oracle import (
    _eigenphases,
    _quaternion_chunks,
    _schur_character_table,
    _vandermonde,
    _weyl_density,
    character_orthonormality_check,
    choi_monte_carlo_su2,
    haar_fidelity,
    su2_grid,
    su_torus_grid,
)
from gateprog.protocol import WeightVector, epsilon_g, sine_weights, viable_set
from gateprog.scoring import entanglement_fidelity, optimal_fidelity, score_matrix
from gateprog.young import enumerate_diagrams

from test_protocol import single_member_set


def regular_nodes(grid):
    """Nodes without coincident eigenvalues; the others have weight exactly zero."""
    return grid.weights > 0.0


class TestSchurCharacter:
    # the bialternant table at the regular nodes against closed forms
    def test_defining_rep_is_power_sum(self):
        for d in (2, 3):
            grid = su_torus_grid(d, 3)
            table = _schur_character_table(np.eye(1, d, dtype=int), grid)
            power_sum = np.exp(1j * _eigenphases(grid.angles)).sum(axis=1)
            regular = regular_nodes(grid)
            assert np.max(np.abs(table[0] - power_sum)[regular]) <= 1e-12

    def test_determinant_rep(self):
        # on SU(d) the product of the eigenvalues is one
        for d in (2, 3):
            grid = su_torus_grid(d, 3)
            table = _schur_character_table(np.ones((1, d), dtype=int), grid)
            assert np.max(np.abs(table[0] - 1.0)[regular_nodes(grid)]) <= 1e-12


class TestSu2Character:
    def test_defining_rep(self):
        grid = su2_grid(3)
        table = _schur_character_table(np.array([[1, 0]]), grid)
        two_cos = 2.0 * np.cos(grid.angles[:, 0])
        assert np.max(np.abs(table[0] - two_cos)[regular_nodes(grid)]) <= 1e-12

    def test_half_turn(self):
        # theta = pi is phi = pi / 2, the node a quarter of the way round
        grid = su2_grid(2)
        node = grid.nodes_per_dim // 4
        assert grid.angles[node, 0] == pytest.approx(math.pi / 2.0, abs=1e-15)
        table = _schur_character_table(np.array([[2, 0]]), grid)
        assert table[0, node] == pytest.approx(-1.0, abs=1e-12)

    def test_agrees_with_schur(self):
        # every row is sin(k phi) / sin(phi) with k = rows[0] - rows[1] + 1
        grid = su2_grid(10)
        rows = np.concatenate([enumerate_diagrams(m, 2) for m in range(11)])
        table = _schur_character_table(rows, grid)
        regular = regular_nodes(grid)
        phi = grid.angles[regular, 0]
        k = rows[:, 0] - rows[:, 1] + 1
        closed = np.sin(np.outer(k, phi)) / np.sin(phi)
        assert np.max(np.abs(table[:, regular] - closed)) <= 1e-12
        assert np.all(table[:, ~regular] == 0.0)


class TestOrthonormality:
    def test_su2_diagrams_up_to_six_boxes(self):
        diagrams = np.concatenate([enumerate_diagrams(m, 2) for m in range(7)])
        assert character_orthonormality_check(su2_grid(6), diagrams) <= 1e-10

    def test_unit_integral_of_identity(self):
        empty = np.array([[0, 0]])
        deviation = character_orthonormality_check(su2_grid(2), empty)
        assert isinstance(deviation, float)
        assert deviation <= 1e-12

    def test_defining_rep_is_normalized(self):
        diagrams = np.array([[1, 0]])
        assert character_orthonormality_check(su2_grid(2), diagrams) <= 1e-12

    def test_su3_diagrams(self):
        diagrams = np.concatenate([enumerate_diagrams(m, 3) for m in range(5)])
        assert character_orthonormality_check(su_torus_grid(3, 4), diagrams) <= 1e-10

    def test_under_resolved_grid_rejected(self):
        # su2_grid(1) has 36 nodes; degree-9 characters need 4 * (9 + 2) = 44
        diagrams = np.concatenate([enumerate_diagrams(m, 2) for m in range(10)])
        with pytest.raises(ValueError, match="under-resolved"):
            character_orthonormality_check(su2_grid(1), diagrams)

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([[1, 0, 0]], r"\(L, 2\) array of rows"),
            ([1, 0], r"\(L, 2\) array of rows"),
            ([[1, 2]], "non-increasing"),
            ([[2, 0], [2, -1]], "non-negative"),
        ],
        ids=["wrong-d", "flat", "increasing", "negative"],
    )
    def test_malformed_rows_rejected(self, rows, match):
        with pytest.raises(ValueError, match=match):
            character_orthonormality_check(su2_grid(2), rows)

    @pytest.mark.parametrize("d", [2, 3])
    def test_negative_degree_rejected(self, d):
        with pytest.raises(ValueError, match="degree must be non-negative, got -3"):
            su_torus_grid(d, -3)


class TestTorusGrid:
    @pytest.mark.parametrize("d, max_boxes", [(2, 0), (2, 5), (2, 513), (3, 0), (3, 14), (3, 61)])
    def test_sine_table_matches_vandermonde(self, d, max_boxes):
        grid = su_torus_grid(d, max_boxes)
        count = grid.nodes_per_dim
        line = 2.0 * math.pi * np.arange(count) / count
        axes = np.meshgrid(*[line] * (d - 1), indexing="ij")
        angles = np.column_stack([axis.ravel() for axis in axes])
        assert grid.angles.tobytes() == angles.tobytes()

        reference = np.abs(_vandermonde(np.exp(1j * _eigenphases(angles)))) ** 2
        reference /= reference.sum()
        assert np.max(np.abs(grid.weights - reference)) <= 1e-13 * np.max(reference)

        k = np.indices((count,) * (d - 1)).reshape(d - 1, -1).T
        full = np.column_stack([k, -k.sum(axis=1)])
        degenerate = np.zeros(len(full), dtype=bool)
        for i in range(d):
            for j in range(i + 1, d):
                degenerate |= (full[:, i] - full[:, j]) % count == 0
        assert degenerate.any()
        assert np.all(grid.weights[degenerate] == 0.0)
        assert np.all(grid.weights[~degenerate] > 0.0)


class TestHaarFidelity:
    def test_two_member_set(self):
        ds = viable_set(4, 2)
        value = haar_fidelity(ds, sine_weights(ds), su2_grid(5))
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_four_member_set(self):
        ds = viable_set(8, 2)
        value = haar_fidelity(ds, sine_weights(ds), su2_grid(9))
        expected = (2.0 + 2.0 * (1.0 - epsilon_g(4))) / 4.0
        assert value == pytest.approx(expected, abs=1e-12)

    # at n = 4096 a (|set|, nodes) character table would hold about 0.5 GB
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 2048, 4096])
    def test_matches_matrix_route(self, n):
        ds = viable_set(n, 2)
        grid = su2_grid(n + 1)
        matrix = score_matrix(ds)
        for q in (sine_weights(ds), optimal_fidelity(matrix).weights_used):
            f_matrix = entanglement_fidelity(q, matrix).fidelity
            assert abs(haar_fidelity(ds, q, grid) - f_matrix) <= 1e-10

    def test_single_member_set(self):
        ds = single_member_set()
        q = WeightVector(ds.d, ds.N, amplitudes=(1.0,))
        assert haar_fidelity(ds, q, su2_grid(6)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [26, 33, 120, 300, 600])
    def test_su3_matches_matrix_route(self, n):
        # n = 300 is 1,849 members on 1.5M nodes: a character table would need ~45 GB;
        # n = 600 (7,225 members on 5.9M nodes) is the protocol grid's d = 3 point
        ds = viable_set(n, 3)
        grid = su_torus_grid(3, n + 1)
        matrix = score_matrix(ds)
        for q in (sine_weights(ds), optimal_fidelity(matrix).weights_used):
            f_matrix = entanglement_fidelity(q, matrix).fidelity
            assert abs(haar_fidelity(ds, q, grid) - f_matrix) <= 1e-10

    @pytest.mark.parametrize("d, n", [(2, 4), (2, 64), (2, 512), (3, 26), (3, 33), (3, 45)])
    def test_fft_probe_matches_character_table(self, d, n):
        # the Choi fit's density, |Weyl numerator|^2 by one FFT, against weights times
        # the squared probe from the bialternant table
        ds = viable_set(n, d)
        grid = su_torus_grid(d, n + 1)
        table = _schur_character_table(ds.rows, grid)
        chi_def = _schur_character_table(np.eye(1, d, dtype=int), grid)[0]
        degenerate = ~regular_nodes(grid)
        for q in (sine_weights(ds), optimal_fidelity(score_matrix(ds)).weights_used):
            amps = q.amplitudes
            reference = amps @ table
            expected = grid.weights * np.abs(reference) ** 2
            expected /= expected.sum()
            density = _weyl_density(ds.rows, amps, grid)
            assert np.max(np.abs(density - expected)) <= 1e-12 * np.max(expected)
            assert np.max(density[degenerate]) <= 1e-30
            fidelity = float(grid.weights @ np.abs(chi_def * reference) ** 2) / (d * d)
            assert abs(haar_fidelity(ds, q, grid) - fidelity) <= 1e-13

    def test_memory_stays_bounded_at_su3_n300(self):
        # 1.53M nodes: the grid's nodes and weights, built on first read, take one sine
        # table and no complex array, and the fidelity works on real Fourier
        # coefficients, never on per-node values
        ds = viable_set(300, 3)
        q = sine_weights(ds)
        tracemalloc.start()
        try:
            grid = su_torus_grid(3, 301)
            grid.angles, grid.weights
            grid_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            haar_fidelity(ds, q, grid)
            haar_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert grid_peak <= 100 * 10**6
        assert haar_peak <= 80 * 10**6

    def test_under_resolved_grid_rejected(self):
        ds = viable_set(32, 2)
        with pytest.raises(ValueError, match="under-resolved"):
            haar_fidelity(ds, sine_weights(ds), su2_grid(4))

    def test_weights_serve_their_whole_box(self):
        # d=3 n=60 and n=61 share the N=8 box, whose weights serve both; n=54 is N=7
        own, other = viable_set(61, 3), viable_set(60, 3)
        grid = su_torus_grid(3, 62)
        matrix = score_matrix(own)
        for weights in (sine_weights, lambda ds: optimal_fidelity(score_matrix(ds)).weights_used):
            q, borrowed = weights(own), weights(other)
            assert float.hex(haar_fidelity(own, borrowed, grid)) == float.hex(
                haar_fidelity(own, q, grid)
            )
            assert float.hex(entanglement_fidelity(borrowed, matrix).fidelity) == float.hex(
                entanglement_fidelity(q, matrix).fidelity
            )
            smaller = weights(viable_set(54, 3))
            with pytest.raises(ValueError, match="different diagram set"):
                haar_fidelity(own, smaller, grid)
            with pytest.raises(ValueError, match="different diagram sets"):
                entanglement_fidelity(smaller, matrix)

    @pytest.mark.parametrize("n, d, width", [(60, 3, 7), (64, 2, 3)])
    def test_corner_set_rejected(self, n, d, width):
        # a corner shares (d, N) with its box, so only its member count tells it apart
        full, corner = viable_set(n, d), viable_set(n, d, width=width)
        assert (corner.d, corner.N) == (full.d, full.N) and len(corner) < len(full)
        with pytest.raises(ValueError, match="different diagram set"):
            haar_fidelity(corner, sine_weights(full), su_torus_grid(d, n + 1))


class TestChoiMonteCarlo:
    def test_recovers_fidelity_n4(self):
        ds = viable_set(4, 2)
        q = sine_weights(ds)
        fit = choi_monte_carlo_su2(4, q, 2 * 10**5, seed=0)
        tol = 5.0 / math.sqrt(2 * 10**5)
        assert abs((1.0 - fit.a) - 0.75) <= tol
        assert fit.residual <= tol

    @staticmethod
    def assert_recovers_fidelity(n, seed, samples=10**6):
        ds = viable_set(n, 2)
        q = sine_weights(ds)
        fidelity = entanglement_fidelity(q, score_matrix(ds)).fidelity
        fit = choi_monte_carlo_su2(n, q, samples, seed=seed)
        tol = 5.0 / math.sqrt(samples)
        assert fit.residual <= tol
        assert abs((1.0 - fit.a) - fidelity) <= tol

        # the fitted a is the sample mean of sin^2(phi) under the outcome
        # density; its moments by quadrature (node 0, phi = 0, has zero weight)
        grid = su2_grid(n + 1)
        phis = grid.angles[1:, 0]
        k = ds.rows[:, 0] - ds.rows[:, 1] + 1
        probe = q.amplitudes @ (np.sin(np.outer(k, phis)) / np.sin(phis))
        density = grid.weights[1:] * probe**2
        s2 = np.sin(phis) ** 2
        mean = float(density @ s2)
        sd = math.sqrt(float(density @ s2**2) - mean**2)
        assert mean == pytest.approx(1.0 - fidelity, rel=1e-9)
        relative = abs(fit.a - (1.0 - fidelity)) / (1.0 - fidelity)
        assert relative <= 5.0 * sd / math.sqrt(samples) / mean

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_fidelity_n512(self, seed):
        self.assert_recovers_fidelity(512, seed)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [4, 8])
    def test_recovers_fidelity_at_verify_points(self, n, seed):
        self.assert_recovers_fidelity(n, seed)

    @pytest.mark.parametrize("n", [4, 8, 512])
    def test_vector_share_is_the_complex_projection_fit(self, n):
        # the fit by projection onto the covariant form in the Bell basis, run
        # on the same quaternion stream, is the reference for the closed form
        samples, seed = 2 * 10**5, 7
        ds = viable_set(n, 2)
        q = sine_weights(ds)
        cos_phi, sin_phi, density = su2_outcome_density(n)
        gram = sum(quat @ quat.T for quat in _quaternion_chunks(
            cos_phi, sin_phi, density, samples, np.random.default_rng(seed)))
        # m r = vec(U) for the SU(2) matrix U of r = (w, x, y, z)
        m = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]])
        choi = m @ (gram / (2.0 * samples)) @ m.conj().T
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
        proj = np.outer(phi, phi.conj())
        rho_perp = (np.eye(4) - proj) / 3.0
        direction = rho_perp - proj
        a = float(
            np.real(np.vdot(direction, choi - proj)) / np.real(np.vdot(direction, direction))
        )
        residual = float(np.linalg.norm(choi - ((1.0 - a) * proj + a * rho_perp)))

        fit = choi_monte_carlo_su2(n, q, samples, seed=seed)
        assert abs(fit.a - a) <= 1e-14
        assert abs(fit.residual - residual) <= 1e-12 * residual

    def test_concentrated_weights_give_inverse_dimension(self):
        ds = viable_set(4, 2)
        q = WeightVector(ds.d, ds.N, amplitudes=(1.0, 0.0))
        fit = choi_monte_carlo_su2(4, q, 10**5, seed=3)
        assert abs((1.0 - fit.a) - 0.5) <= 5.0 / math.sqrt(10**5)

    def test_residual_shrinks_with_sample_count(self):
        ds = viable_set(4, 2)
        q = sine_weights(ds)
        sizes = (10**5, 4 * 10**5, 16 * 10**5)
        # one residual per size makes the slope a coin toss; the RMS over a
        # fixed set of seeds averages the noise down
        residuals = [
            math.sqrt(np.mean([choi_monte_carlo_su2(4, q, s, seed=seed).residual ** 2
                               for seed in range(8)]))
            for s in sizes
        ]
        slope = float(np.polyfit(np.log(sizes), np.log(residuals), 1)[0])
        assert -0.75 <= slope <= -0.3

    def test_memory_stays_bounded_at_large_n(self):
        # the outcome density needs O(nodes) memory, not a (|set|, nodes) table
        # (about 134 MB here), and the sample buffers are bounded by the chunk size:
        # about 3 MB in all
        ds = viable_set(2048, 2)
        q = sine_weights(ds)
        tracemalloc.start()
        try:
            choi_monte_carlo_su2(2048, q, 10**6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 10**6

    def test_sample_floor_enforced(self):
        ds = viable_set(4, 2)
        with pytest.raises(ValueError):
            choi_monte_carlo_su2(4, sine_weights(ds), 10**4, seed=0)

    def test_wrong_dimension_rejected(self):
        ds = viable_set(26, 3)
        with pytest.raises(ValueError):
            choi_monte_carlo_su2(26, sine_weights(ds), 10**5, seed=0)

    def test_weights_serve_their_whole_box(self):
        # n=8 is the N=4 box; n=9 shares it and n=4 does not
        q = sine_weights(viable_set(8, 2))
        fidelity = entanglement_fidelity(q, score_matrix(viable_set(9, 2))).fidelity
        fit = choi_monte_carlo_su2(9, q, 10**5, seed=0)
        assert abs((1.0 - fit.a) - fidelity) <= 5.0 / math.sqrt(10**5)
        with pytest.raises(ValueError, match="weight vector is for N=4, not for n=4"):
            choi_monte_carlo_su2(4, q, 10**5, seed=0)

    def test_deterministic_in_seed(self):
        ds = viable_set(4, 2)
        q = sine_weights(ds)
        fit_a = choi_monte_carlo_su2(4, q, 10**5, seed=11)
        fit_b = choi_monte_carlo_su2(4, q, 10**5, seed=11)
        assert fit_a == fit_b


def su2_outcome_density(n):
    ds = viable_set(n, 2)
    grid = su2_grid(n + 1)
    density = _weyl_density(ds.rows, sine_weights(ds).amplitudes, grid)
    phis = grid.angles[:, 0]
    return np.cos(phis), np.sin(phis), density


class TestQuaternionDraw:
    def test_chunk_gram_stays_in_one_blas_block(self):
        # a chunk's Gram, quat @ quat.T, is one matmul of 16 * _CHUNK multiply-adds; a
        # larger one wakes a second BLAS thread, whose spin-wait the Choi fit pays in CPU
        assert 16 * oracle._CHUNK <= scoring._MATMUL_BLOCK

    # a chunk of 32768 pairs keeps about 25,700: fewer samples than that, and
    # counts that end inside a later chunk
    @pytest.mark.parametrize("samples", [1, 1000, 32_768, 100_003, 10**6 + 1])
    def test_exactly_samples_unit_quaternions(self, samples):
        widths, traces = [], []
        for quat in _quaternion_chunks(*su2_outcome_density(8), samples,
                                       np.random.default_rng(0)):
            widths.append(quat.shape[1])
            traces.append(np.trace(quat @ quat.T))
        assert sum(widths) == samples
        # the trace of the Gram the fit sums: one per unit quaternion
        assert sum(traces) == pytest.approx(samples, rel=1e-12)

    def test_axis_moments_match_the_uniform_sphere(self):
        # one node at phi = pi / 2 makes every quaternion (0, axis)
        samples = 10**6
        total = np.zeros(3)
        second = np.zeros((3, 3))
        fourth = np.zeros(3)
        norm_errors = []
        for quat in _quaternion_chunks(np.zeros(1), np.ones(1), np.ones(1), samples,
                                       np.random.default_rng(0)):
            assert not quat[0].any()
            u = quat[1:]
            total += u.sum(axis=1)
            second += u @ u.T
            fourth += (u**4).sum(axis=1)
            norm_errors.append(float(np.abs(np.einsum("ij,ij->j", u, u) - 1.0).max()))
        assert max(norm_errors) <= 1e-15

        # 5 sigma from the sample count: Var u_i = 1/3, Var u_i^2 = 1/5 - 1/9,
        # Var u_i u_j = 1/15 (i != j), Var u_i^4 = 1/9 - 1/25
        root = math.sqrt(samples)
        assert np.all(np.abs(total / samples) <= 5.0 * math.sqrt(1.0 / 3.0) / root)
        off_diagonal = ~np.eye(3, dtype=bool)
        assert np.all(np.abs(np.diag(second) / samples - 1.0 / 3.0)
                      <= 5.0 * math.sqrt(1.0 / 5.0 - 1.0 / 9.0) / root)
        assert np.all(np.abs(second[off_diagonal] / samples)
                      <= 5.0 * math.sqrt(1.0 / 15.0) / root)
        assert np.all(np.abs(fourth / samples - 1.0 / 5.0)
                      <= 5.0 * math.sqrt(1.0 / 9.0 - 1.0 / 25.0) / root)

    @pytest.mark.parametrize("n", [8, 512])
    def test_plain_draw_gives_the_same_gram(self, n):
        # the same draws with each chunk's arrays allocated anew: the sampler's
        # buffers, in-place steps and takes change neither the stream nor a rounding
        samples = 10**6 + 1
        cos_phi, sin_phi, density = su2_outcome_density(n)
        rng = np.random.default_rng(5)
        size = min(oracle._CHUNK, samples)
        plain = np.zeros((4, 4))
        remaining = samples
        while remaining:
            v = 2.0 * rng.random((2, size)) - 1.0
            s = v[0] * v[0] + v[1] * v[1]
            keep = np.flatnonzero(s < 1.0)[:remaining]
            remaining -= len(keep)
            nodes = rng.multinomial(len(keep), density)
            v, s = v[:, keep], s[keep]
            sin_rep = np.repeat(sin_phi, nodes)
            scale = 2.0 * np.sqrt(1.0 - s) * sin_rep
            r = np.stack([np.repeat(cos_phi, nodes), v[0] * scale, v[1] * scale,
                          (1.0 - 2.0 * s) * sin_rep])
            plain += r @ r.T
        gram = sum(quat @ quat.T for quat in _quaternion_chunks(
            cos_phi, sin_phi, density, samples, np.random.default_rng(5)))
        assert np.array_equal(gram, plain)
