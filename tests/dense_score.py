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
