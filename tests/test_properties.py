"""Property tests over random valid (d, n): the lattice, the stencil, the fidelity
ordering, the eigensolver against the dense distance-built oracle, and the SU(3)
Haar quadrature against the matrix route."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gateprog.oracle import haar_fidelity, su_torus_grid
from gateprog.protocol import sine_weights, viable_set
from gateprog.scoring import (
    entanglement_fidelity,
    optimal_fidelity,
    score_matrix,
    score_matrix_by_distance,
)

# n from the first width N = 2 to the last with at most 400 members (N^(d-1) <= 400),
# so the dense oracle stays cheap
N_RANGE = {2: (4, 801), 3: (13, 145), 4: (27, 116)}

lattices = st.sampled_from(sorted(N_RANGE)).flatmap(
    lambda d: st.integers(*N_RANGE[d]).map(lambda n: viable_set(n, d))
)

deterministic = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@deterministic
@given(lattices)
def test_members_are_strictly_decreasing_with_n_boxes(ds):
    assert all(m.is_strictly_decreasing() and m.boxes() == ds.n for m in ds.members)


@deterministic
@given(st.integers(13, 120).map(lambda n: viable_set(n, 3)))
def test_su3_haar_quadrature_matches_matrix_route(ds):
    q = sine_weights(ds)
    matrix = entanglement_fidelity(q, score_matrix(ds)).fidelity
    assert abs(haar_fidelity(ds, q, su_torus_grid(3, ds.n + 1)) - matrix) <= 1e-10


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
def test_optimum_bounds_the_sine_weights(ds):
    s = score_matrix(ds)
    sine = entanglement_fidelity(sine_weights(ds), s).fidelity
    optimum = optimal_fidelity(s).fidelity
    assert 0.0 < sine <= optimum + 1e-13
    assert optimum <= 1.0
