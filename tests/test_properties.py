"""Property tests over random valid (d, n): the lattice, the stencil, the fidelity
ordering, the eigensolver against the dense distance-built oracle and its
true-residual stopping rule, the SU(2) and SU(3) Haar quadrature against the
matrix route and the protocol report's pass flags; over small boxes at d = 3-5,
the principal amplitudes' symmetry; and over random phase-gate dephasing
factors, the diamond search against 1 - kappa."""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gateprog.scoring as scoring
from gateprog.oracle import haar_fidelity, su_torus_grid
from gateprog.phase import diamond_distance_search
from gateprog.protocol import sine_weights, viable_set
from gateprog.reporting import protocol_report
from gateprog.scoring import (
    ScoreMatrix,
    entanglement_fidelity,
    optimal_fidelity,
    score_matrix,
)

from dense_score import dense, score_matrix_by_distance
from test_phase import entangled_trace_norm

# n from the first width N = 2 to the last with at most 400 members (N^(d-1) <= 400),
# so the dense oracle stays cheap
N_RANGE = {2: (4, 801), 3: (13, 145), 4: (27, 116)}

points = st.sampled_from(sorted(N_RANGE)).flatmap(
    lambda d: st.tuples(st.integers(*N_RANGE[d]), st.just(d))
)
lattices = points.map(lambda nd: viable_set(*nd))


deterministic = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@deterministic
@given(lattices)
def test_members_are_strictly_decreasing_with_n_boxes(ds):
    assert ds.rows.shape == (len(ds), ds.d)
    assert np.all(np.diff(ds.rows, axis=1) < 0) and np.all(ds.rows[:, -1] >= 0)
    assert np.all(ds.rows.sum(axis=1) == ds.n)


@deterministic
@given(st.one_of(
    st.integers(*N_RANGE[2]).map(lambda n: viable_set(n, 2)),
    st.integers(13, 120).map(lambda n: viable_set(n, 3)),
))
def test_haar_quadrature_matches_matrix_route(ds):
    q = sine_weights(ds)
    matrix = entanglement_fidelity(q, score_matrix(ds)).fidelity
    assert abs(haar_fidelity(ds, q, su_torus_grid(ds.d, ds.n + 1)) - matrix) <= 1e-10


@deterministic
@given(lattices)
def test_stencil_and_eigensolver_match_distance_oracle(ds):
    oracle = score_matrix_by_distance(ds)
    s = score_matrix(ds)
    assert np.array_equal(dense(s), oracle)
    top = float(np.linalg.eigvalsh(oracle)[-1])
    assert abs(optimal_fidelity(s).fidelity * ds.d * ds.d - top) <= 1e-10


@deterministic
@given(lattices)
@example(viable_set(4096, 2))
def test_solver_stops_on_the_true_residual(ds):
    # the returned weights meet the stopping rule itself, not only a Ritz estimate
    s = score_matrix(ds)
    a = optimal_fidelity(s).weights_used.amplitudes
    sa = s.matvec(a)
    theta = float(a @ sa)
    assert np.linalg.norm(sa - theta * a) <= (1e-12 + 1e-14) * theta


@pytest.mark.parametrize("d, big_n", [(3, big_n) for big_n in range(2, 13)]
                         + [(4, big_n) for big_n in range(2, 7)]
                         + [(5, big_n) for big_n in range(2, 5)])
def test_principal_amplitudes_are_symmetric(d, big_n):
    # S commutes with every permutation P of the d-1 box axes and with t -> (N-1) - t,
    # so its principal eigenvector u, unique and positive, has P u = u.  The solver's
    # unit v stops at residual r <= _TOL theta, plus the 3(d-1) + 2 roundings of each
    # entry of S v - theta v (S and v non-negative), and theta <= lambda_1.  Davis-Kahan
    # gives sin(v, u) <= r / delta, delta the gap lambda_1 - lambda_2, so
    # |v - u| <= sqrt(2) r / delta and |P v - v| <= 2 sqrt(2) r / delta; the final
    # |v| / |v|_2 rounds each entry by at most 2 ulps, 4 eps on the difference
    s = ScoreMatrix(d, big_n)
    spectrum = np.linalg.eigvalsh(dense(s))
    eps = np.finfo(float).eps
    residual = (scoring._TOL + 3 * d * eps) * spectrum[-1]
    bound = 2.0 * math.sqrt(2.0) * residual / (spectrum[-1] - spectrum[-2]) + 4.0 * eps
    a = optimal_fidelity(s).weights_used.amplitudes.reshape((big_n,) * (d - 1))
    images = [a.transpose(axes) for axes in permutations(range(d - 1))]
    images.append(a[(slice(None, None, -1),) * (d - 1)])
    for image in images:
        assert np.linalg.norm(image - a) <= bound


@deterministic
@given(lattices)
def test_optimum_bounds_the_sine_weights(ds):
    s = score_matrix(ds)
    sine = entanglement_fidelity(sine_weights(ds), s).fidelity
    optimum = optimal_fidelity(s).fidelity
    assert 0.0 < sine <= optimum + 1e-13
    assert optimum <= 1.0


@deterministic
@given(points)
def test_protocol_report_passes_every_flag(point):
    flags = protocol_report(*point).pass_flags
    assert all(flags.values()), flags


@deterministic
@given(st.floats(0.0, 1.0))
def test_diamond_search_matches_closed_form(kappa):
    result = diamond_distance_search(kappa)
    assert abs(result.value - (1.0 - kappa)) <= 1e-9
    assert entangled_trace_norm(kappa) >= result.value - 1e-9
