"""Batched joint eigenbases for the tests, composed from the library's two steps."""

import numpy as np

from qphase.operators import exponent_rows, stabilizer_rows, stabilizer_vectors


def stabilizer_eigenbases(x, z, dim, coord):
    """(vectors, exponents), (G, N, N) and (G, N, N-1), of G groups:
    ``stabilizer_rows``, then each group's vectors and exponent table read
    off its sign frame (x, z, exponent row 0, flips) by
    ``stabilizer_vectors`` and ``exponent_rows``."""
    frame = stabilizer_rows(x, z, dim, coord)
    vectors = np.array([stabilizer_vectors(*row) for row in zip(*frame)])
    return vectors, np.array([exponent_rows(row0, flips) for row0, flips in zip(frame.row0, frame.flips)])
