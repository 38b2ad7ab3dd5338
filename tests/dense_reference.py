"""Dense linear-algebra references for the stabilizer bases.

The library builds every basis from Pauli masks without an
eigendecomposition; these helpers recompute the same facts from dense
matrices alone, so the tests keep a reference independent of the masks.
"""

import numpy as np

from qphase.operators import NonCommutingError


def first_noncommuting_pair(ops, tol=1e-10):
    """NonCommutingError for the first pair (i < j) with U_i U_j != U_j U_i
    (deviation the largest entry of the commutator), or None."""
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            dev = float(np.max(np.abs(ops[i] @ ops[j] - ops[j] @ ops[i])))
            if dev > tol:
                return NonCommutingError(i, j, dev)
    return None


def joint_eigenprojectors(ops, seed=0):
    """The eigenprojectors of one Hermitian matrix, a random real combination
    of the Hermitian parts U + U^dag and i(U - U^dag) of commuting unitaries.

    Its eigenspaces are the joint eigenspaces of the unitaries (for almost
    every combination), so for a maximal commuting set each projector is
    that of one joint eigenvector.
    """
    rng = np.random.default_rng(seed)
    dim = ops[0].shape[0]
    h = np.zeros((dim, dim), dtype=complex)
    for u in ops:
        a, b = rng.standard_normal(2)
        h += a * (u + u.conj().T) + b * 1j * (u - u.conj().T)
    _, vecs = np.linalg.eigh(h)
    return np.einsum("ik,jk->kij", vecs, vecs.conj())


def projector_matching(vectors, projectors):
    """(match, dev): match[k] is the projector closest to |v_k><v_k| and dev
    the largest entrywise distance over all k."""
    mine = vectors[:, :, None] * vectors.conj()[:, None, :]
    gap = np.abs(mine[:, None] - projectors[None]).max(axis=(2, 3))
    match = gap.argmin(axis=1)
    return match, float(gap[np.arange(len(vectors)), match].max())
