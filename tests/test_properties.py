"""Property tests over random valid (d, n): the lattice, the stencil, the fidelity
ordering, the eigensolver against the dense distance-built oracle and its
true-residual stopping rule, the SU(2) and SU(3) Haar quadrature against the
matrix route and the protocol report's pass flags; and over random phase-gate
dephasing factors, the diamond search against 1 - kappa."""


import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gateprog.oracle import haar_fidelity, su_torus_grid
from gateprog.phase import diamond_distance_search
from gateprog.protocol import sine_weights, viable_set
from gateprog.reporting import protocol_report
from gateprog.scoring import (
    entanglement_fidelity,
    optimal_fidelity,
    score_matrix,
    score_matrix_by_distance,
)

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
    assert np.array_equal(s.dense(), oracle)
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
