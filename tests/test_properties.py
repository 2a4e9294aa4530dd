"""Property tests over random valid (d, n): the stencil, the fidelity ordering and
the eigensolver against the dense distance-built oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
