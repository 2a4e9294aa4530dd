"""Quadrature, characters, and the Monte-Carlo Choi reconstruction."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from gateprog.oracle import (
    TorusGrid,
    _schur_character_table,
    _weyl_probe,
    character_orthonormality_check,
    choi_monte_carlo_su2,
    haar_fidelity,
    schur_character,
    su2_character,
    su2_grid,
    su_torus_grid,
)
from gateprog.protocol import WeightVector, epsilon_g, sine_weights, viable_set
from gateprog.scoring import entanglement_fidelity, optimal_fidelity, score_matrix
from gateprog.young import YoungDiagram, enumerate_diagrams, irrep_dimension

from test_protocol import single_member_set


class TestSchurCharacter:
    def test_defining_rep_is_power_sum(self):
        x = (0.3 + 0.8j, -0.5 + 0.1j)
        assert schur_character(YoungDiagram((1, 0)), x) == pytest.approx(x[0] + x[1])

    def test_determinant_rep(self):
        x = (0.3 + 0.8j, -0.5 + 0.1j)
        assert schur_character(YoungDiagram((1, 1)), x) == pytest.approx(x[0] * x[1])

    def test_identity_gives_dimension(self):
        for m in range(0, 7):
            for lam in enumerate_diagrams(m, 3):
                value = schur_character(lam, (1.0, 1.0, 1.0))
                assert value == pytest.approx(irrep_dimension(lam.rows), abs=1e-9)

    def test_common_phase_scales_by_box_count(self):
        lam = YoungDiagram((2, 1, 0))
        w = cmath.exp(0.7j)
        expected = irrep_dimension(lam.rows) * w ** lam.boxes()
        assert schur_character(lam, (w, w, w)) == pytest.approx(expected)

    def test_jitter_handles_partial_coincidence(self):
        lam = YoungDiagram((2, 1, 0))
        w = cmath.exp(0.9j)
        value = schur_character(lam, (w, w, cmath.exp(-1.8j)))
        assert abs(value) < 20.0 and not math.isnan(abs(value))


class TestSu2Character:
    def test_defining_rep(self):
        for theta in (0.3, 1.2, 2.9):
            assert su2_character(YoungDiagram((1, 0)), theta) == pytest.approx(
                2.0 * math.cos(theta / 2.0)
            )

    def test_identity_limit(self):
        for lam in ((4, 1), (7, 0), (3, 3)):
            diagram = YoungDiagram(lam)
            expected = lam[0] - lam[1] + 1
            assert su2_character(diagram, 0.0) == pytest.approx(expected)
            assert su2_character(diagram, 1e-12) == pytest.approx(expected, abs=1e-9)

    def test_half_turn(self):
        assert su2_character(YoungDiagram((2, 0)), math.pi) == pytest.approx(-1.0)

    def test_agrees_with_schur(self):
        thetas = np.linspace(0.1, 2 * math.pi - 0.1, 23)
        for m in range(0, 11):
            for lam in enumerate_diagrams(m, 2):
                for theta in thetas:
                    phases = (cmath.exp(1j * theta / 2), cmath.exp(-1j * theta / 2))
                    direct = su2_character(lam, float(theta))
                    via_det = schur_character(lam, phases)
                    assert abs(direct - via_det) <= 1e-12


class TestOrthonormality:
    def test_su2_diagrams_up_to_six_boxes(self):
        diagrams = [lam for m in range(7) for lam in enumerate_diagrams(m, 2)]
        assert character_orthonormality_check(su2_grid(6), diagrams) <= 1e-10

    def test_unit_integral_of_identity(self):
        empty = [YoungDiagram((0, 0))]
        deviation = character_orthonormality_check(su2_grid(2), empty)
        assert isinstance(deviation, float)
        assert deviation <= 1e-12

    def test_defining_rep_is_normalized(self):
        diagrams = [YoungDiagram((1, 0))]
        assert character_orthonormality_check(su2_grid(2), diagrams) <= 1e-12

    def test_su3_diagrams(self):
        diagrams = [lam for m in range(5) for lam in enumerate_diagrams(m, 3)]
        assert character_orthonormality_check(su_torus_grid(3, 4), diagrams) <= 1e-10

    def test_under_resolved_grid_rejected(self):
        # su2_grid(1) has 36 nodes; degree-9 characters need 4 * (9 + 2) = 44
        diagrams = [lam for m in range(10) for lam in enumerate_diagrams(m, 2)]
        with pytest.raises(ValueError, match="under-resolved"):
            character_orthonormality_check(su2_grid(1), diagrams)

    @pytest.mark.parametrize("d", [2, 3])
    def test_negative_degree_rejected(self, d):
        with pytest.raises(ValueError, match="degree must be non-negative, got -3"):
            su_torus_grid(d, -3)


class TestTorusGrid:
    @pytest.mark.parametrize(
        "angles, weights, match",
        [
            (np.zeros((3, 1)), [math.nan] * 3, "finite and non-negative"),
            (np.zeros((3, 1)), [math.inf, 0.0, 0.0], "finite and non-negative"),
            (np.zeros((2, 1)), [1.5, -0.5], "finite and non-negative"),
            (np.zeros((5, 1)), [0.5, 0.5], "shape"),
            (np.zeros((2, 2)), [0.5, 0.5], "shape"),
            (np.zeros((2, 1)), [0.5, 0.4], "sum to"),
        ],
    )
    def test_malformed_grid_rejected(self, angles, weights, match):
        with pytest.raises(ValueError, match=match):
            TorusGrid(2, angles, np.array(weights), 3)


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
        q = WeightVector(diagram_set=ds, probabilities=(1.0,))
        assert haar_fidelity(ds, q, su2_grid(6)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [26, 33, 120, 300])
    def test_su3_matches_matrix_route(self, n):
        # n = 300 is 1,849 members on 1.5M nodes: a character table would need ~45 GB
        ds = viable_set(n, 3)
        grid = su_torus_grid(3, n + 1)
        matrix = score_matrix(ds)
        for q in (sine_weights(ds), optimal_fidelity(matrix).weights_used):
            f_matrix = entanglement_fidelity(q, matrix).fidelity
            assert abs(haar_fidelity(ds, q, grid) - f_matrix) <= 1e-10

    @pytest.mark.parametrize("d, n", [(2, 4), (2, 64), (2, 512), (3, 26), (3, 33), (3, 45)])
    def test_fft_probe_matches_character_table(self, d, n):
        ds = viable_set(n, d)
        grid = su_torus_grid(d, n + 1)
        table = _schur_character_table(ds.rows, grid)
        chi_def = _schur_character_table(np.eye(1, d, dtype=int), grid)[0]
        for q in (sine_weights(ds), optimal_fidelity(score_matrix(ds)).weights_used):
            amps = np.sqrt(q.probabilities)
            reference = amps @ table
            _, probe = _weyl_probe(ds.rows, amps, grid)
            assert np.max(np.abs(probe - reference)) <= 1e-12 * np.max(np.abs(reference))
            fidelity = float(grid.weights @ np.abs(chi_def * reference) ** 2) / (d * d)
            assert abs(haar_fidelity(ds, q, grid) - fidelity) <= 1e-13

    def test_non_product_grid_rejected(self):
        ds = viable_set(26, 3)
        grid = su_torus_grid(3, 27)
        keep = slice(0, len(grid.weights) - grid.nodes_per_dim)
        weights = grid.weights[keep] / grid.weights[keep].sum()
        truncated = TorusGrid(3, grid.angles[keep], weights, grid.nodes_per_dim)
        with pytest.raises(ValueError, match="not a product grid"):
            haar_fidelity(ds, sine_weights(ds), truncated)

    def test_under_resolved_grid_rejected(self):
        ds = viable_set(32, 2)
        with pytest.raises(ValueError, match="under-resolved"):
            haar_fidelity(ds, sine_weights(ds), su2_grid(4))


class TestChoiMonteCarlo:
    def test_recovers_fidelity_n4(self):
        ds = viable_set(4, 2)
        q = sine_weights(ds)
        fit = choi_monte_carlo_su2(4, q, 2 * 10**5, seed=0)
        tol = 5.0 / math.sqrt(2 * 10**5)
        assert abs((1.0 - fit.a) - 0.75) <= tol
        assert fit.residual <= tol

    def test_recovers_fidelity_n512(self):
        n, samples = 512, 10**6
        ds = viable_set(n, 2)
        q = sine_weights(ds)
        fidelity = entanglement_fidelity(q, score_matrix(ds)).fidelity
        fit = choi_monte_carlo_su2(n, q, samples, seed=1)
        tol = 5.0 / math.sqrt(samples)
        assert fit.residual <= tol
        assert abs((1.0 - fit.a) - fidelity) <= tol

        # the fitted a is the sample mean of sin^2(phi) under the outcome
        # density; its moments by quadrature (node 0, phi = 0, has zero weight)
        grid = su2_grid(n + 1)
        phis = grid.angles[1:, 0]
        k = ds.rows[:, 0] - ds.rows[:, 1] + 1
        probe = np.sqrt(q.probabilities) @ (np.sin(np.outer(k, phis)) / np.sin(phis))
        density = grid.weights[1:] * probe**2
        s2 = np.sin(phis) ** 2
        mean = float(density @ s2)
        sd = math.sqrt(float(density @ s2**2) - mean**2)
        assert mean == pytest.approx(1.0 - fidelity, rel=1e-9)
        relative = abs(fit.a - (1.0 - fidelity)) / (1.0 - fidelity)
        assert relative <= 5.0 * sd / math.sqrt(samples) / mean

    def test_concentrated_weights_give_inverse_dimension(self):
        ds = viable_set(4, 2)
        q = WeightVector(diagram_set=ds, probabilities=(1.0, 0.0))
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
        # (about 134 MB here), and the sample buffers are bounded by the chunk size
        ds = viable_set(2048, 2)
        q = sine_weights(ds)
        tracemalloc.start()
        try:
            choi_monte_carlo_su2(2048, q, 10**6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 10**6

    def test_sample_floor_enforced(self):
        ds = viable_set(4, 2)
        with pytest.raises(ValueError):
            choi_monte_carlo_su2(4, sine_weights(ds), 10**4, seed=0)

    def test_wrong_dimension_rejected(self):
        ds = viable_set(26, 3)
        with pytest.raises(ValueError):
            choi_monte_carlo_su2(26, sine_weights(ds), 10**5, seed=0)

    def test_deterministic_in_seed(self):
        ds = viable_set(4, 2)
        q = sine_weights(ds)
        fit_a = choi_monte_carlo_su2(4, q, 10**5, seed=11)
        fit_b = choi_monte_carlo_su2(4, q, 10**5, seed=11)
        assert fit_a == fit_b
