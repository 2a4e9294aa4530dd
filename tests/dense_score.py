"""Dense score matrices for the tests, which the package itself never builds: the
Pieri matvec's image of the identity, and the matrix from pairwise Young
distances, which shares no code with the matvec."""

import numpy as np

from gateprog.young import young_distance


def dense(s):
    """S of a ``ScoreMatrix`` as a dense array, one block matvec on the identity; the
    entries are small integers, so every sum is exact."""
    return s.matvec(np.eye(s.dimension))


def score_matrix_by_distance(diagram_set):
    """The dense score matrix of a diagram set: d on the diagonal and 1 between two
    diagrams at Young distance 2."""
    rows = diagram_set.rows
    matrix = (young_distance(rows[:, None], rows[None]) == 2).astype(float)
    np.fill_diagonal(matrix, diagram_set.d)
    return matrix


def orbit_matrix(d, big_n):
    """S of the (N,)*(d-1) box reduced to the orbits O of S_{d-1}, which permutes the
    coordinates, and the orbit sizes |O|.  In the orthonormal basis 1_O / sqrt|O| the
    entry between O and O' is c(O -> O') sqrt(|O| / |O'|), c summing the entries of S
    from one member of O to the members of O'.  S comes from the Young distance of the
    coordinates, sum_i |t_i - t'_i| + |sum_i (t_i - t'_i)|: d on the diagonal and 1 at
    distance 2, with no code of the matvec."""
    t = np.array(list(np.ndindex((big_n,) * (d - 1))))
    step = t[:, None] - t[None]
    distance = np.abs(step).sum(axis=-1) + np.abs(step.sum(axis=-1))
    s = (distance == 2) + d * np.eye(len(t))
    # an orbit is the multiset of coordinates, the sorted tuple
    _, first, orbit, sizes = np.unique(np.sort(t, axis=1), axis=0, return_index=True,
                                       return_inverse=True, return_counts=True)
    counts = s[first] @ (orbit.reshape(-1, 1) == np.arange(len(sizes)))
    return counts * np.sqrt(sizes[:, None] / sizes[None]), sizes
