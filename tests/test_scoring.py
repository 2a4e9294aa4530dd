"""Score matrix construction, fidelity quadratic form, and the eigenvalue route."""

import math

import numpy as np
import pytest

from gateprog.protocol import WeightVector, epsilon_g, sine_weights, viable_set
from gateprog.scoring import (
    ConvergenceError,
    entanglement_fidelity,
    lemma3_bound,
    optimal_fidelity,
    qstar_score_closed_form,
    score_matrix,
    score_matrix_by_distance,
)

from test_protocol import single_member_set


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
         (40, 4), (61, 4)],
    )
    def test_lattice_equals_distance_construction(self, n, d):
        ds = viable_set(n, d)
        assert np.array_equal(score_matrix(ds).dense(), score_matrix_by_distance(ds))

    @pytest.mark.parametrize("n,d", [(60, 2), (26, 3), (61, 4)])
    def test_matvec_matches_dense(self, n, d):
        ds = viable_set(n, d)
        s = score_matrix(ds)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(len(ds))
        assert np.allclose(s.matvec(v), s.dense() @ v, atol=1e-13)


class TestEntanglementFidelity:
    def test_uniform_two_member(self):
        ds = viable_set(4, 2)
        q = WeightVector(diagram_set=ds, probabilities=(0.5, 0.5))
        result = entanglement_fidelity(q, score_matrix(ds))
        assert result.fidelity == pytest.approx(0.75, abs=1e-15)
        assert result.error == pytest.approx(0.25, abs=1e-15)

    def test_single_member_gives_inverse_dimension(self):
        ds = single_member_set()
        q = WeightVector(diagram_set=ds, probabilities=(1.0,))
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
        amp = np.sqrt(np.asarray(q.probabilities))
        brute = float(amp @ score_matrix(ds).dense() @ amp) / 9.0
        assert entanglement_fidelity(q, score_matrix(ds)).fidelity == pytest.approx(
            brute, abs=1e-14
        )

    def test_mismatched_sets_rejected(self):
        q = sine_weights(viable_set(4, 2))
        s = score_matrix(viable_set(8, 2))
        with pytest.raises(ValueError):
            entanglement_fidelity(q, s)


class TestOptimalFidelity:
    def test_two_member_chain(self):
        result = optimal_fidelity(score_matrix(viable_set(4, 2)))
        assert result.fidelity == pytest.approx(0.75, abs=1e-12)

    def test_single_member(self):
        # N = 1: the sine profile is undefined, so the solver starts from all ones
        result = optimal_fidelity(score_matrix(single_member_set()))
        assert result.fidelity == pytest.approx(0.5, abs=1e-15)
        assert result.weights_used.probabilities == (1.0,)

    def test_chain_eigenvalue_closed_form(self):
        # largest eigenvalue of the length-N chain is 2 + 2 cos(pi / (N+1))
        for big_n in (2, 3, 5, 8, 16, 64):
            s = score_matrix(viable_set(2 * big_n, 2))
            expected = (2.0 + 2.0 * math.cos(math.pi / (big_n + 1))) / 4.0
            assert optimal_fidelity(s).fidelity == pytest.approx(expected, abs=1e-11)

    def test_chain_closed_form_at_n4096(self):
        s = score_matrix(viable_set(4096, 2))
        expected = (2.0 + 2.0 * math.cos(math.pi / (s.diagram_set.N + 1))) / 4.0
        assert abs(optimal_fidelity(s).fidelity - expected) <= 1e-12

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
        result = optimal_fidelity(score_matrix(viable_set(n, d)))
        assert min(result.weights_used.probabilities) > 0.0

    def test_iteration_cap_raises(self):
        with pytest.raises(ConvergenceError, match=r"dimension-16 .* 2-matvec cap after 0 "
                           r"restarts with residual \d"):
            optimal_fidelity(score_matrix(viable_set(32, 2)), max_iterations=2)

    def test_iteration_cap_counts_restarts(self):
        # 2048 members give a 32-vector basis: matvec 80 falls inside the third block
        with pytest.raises(ConvergenceError, match=r"80-matvec cap after 2 restarts"):
            optimal_fidelity(score_matrix(viable_set(4096, 2)), max_iterations=80)


class TestClosedForm:
    def test_values(self):
        assert qstar_score_closed_form(2, 0.5) == pytest.approx(3.0)
        assert qstar_score_closed_form(2, 0.0) == pytest.approx(4.0)
        assert qstar_score_closed_form(3, 0.0) == pytest.approx(9.0)

    @pytest.mark.parametrize("d,ns", [(2, range(4, 65)), (3, range(13, 41))])
    def test_matches_quadratic_form(self, d, ns):
        for n in ns:
            ds = viable_set(n, d)
            amp = np.sqrt(np.asarray(sine_weights(ds).probabilities))
            quad = float(amp @ score_matrix(ds).matvec(amp))
            assert abs(quad - qstar_score_closed_form(d, epsilon_g(ds.N))) <= 1e-12


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
