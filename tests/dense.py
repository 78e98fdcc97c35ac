"""Block lists assembled into dense arrays, for tests that compare
against dense oracles."""

import numpy as np


def annihilation(dim):
    """Single-mode annihilation operator, <n-1|a|n> = sqrt(n), as a dense
    dim x dim matrix."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(np.complex128)


def dense(blocks):
    """The matrix of a list of (rows, square block) pairs, zero outside
    the blocks."""
    dim = sum(len(rows) for rows, _ in blocks)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for rows, block in blocks:
        out[np.ix_(rows, rows)] = block
    return out


def dense_basis(eigenvectors):
    """Eigenvector columns in eigenvalue order, from the (rows, columns,
    positions) list that ``eig_hermitian`` returns."""
    dim = sum(len(rows) for rows, _, _ in eigenvectors)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for rows, vec, pos in eigenvectors:
        out[np.ix_(rows, pos)] = vec
    return out


def one_block(matrix):
    """A matrix as a block list of one block."""
    return [(np.arange(len(matrix)), matrix)]
