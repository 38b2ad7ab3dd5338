"""Batched joint eigenbases for the tests, composed from the library's two steps."""

import numpy as np

from qphase.operators import stabilizer_rows, stabilizer_vectors


def stabilizer_eigenbases(x, z, dim, coord):
    """(vectors, exponents), (G, N, N) and (G, N, N-1), of G groups:
    ``stabilizer_rows``, then each group's vectors read off its sign frame
    (x, z, exponent row 0, flips) by ``stabilizer_vectors``."""
    rows = stabilizer_rows(x, z, dim, coord)
    frame = zip(rows.x, rows.z, rows.exponents[:, 0], rows.flips)
    return np.array([stabilizer_vectors(*row) for row in frame]), rows.exponents
