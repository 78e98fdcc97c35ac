"""Block lists assembled into dense arrays, for tests that compare
against dense oracles."""

import numpy as np


def annihilation(dim):
    """Single-mode annihilation operator, <n-1|a|n> = sqrt(n), as a dense
    dim x dim matrix."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(np.complex128)


def lowering_matrix(state):
    """The r x r matrix m[i, j] = <w_i| s |w_j> of a state's lowering pairs."""
    rows, cols, values = state.lowering_pairs()
    m = np.zeros((state.rank, state.rank), dtype=np.result_type(values, float))
    m[rows, cols] = values
    return m


def dense(blocks):
    """The matrix of a list of (rows, square block) pairs, zero outside
    the blocks."""
    dim = sum(len(rows) for rows, _ in blocks)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for rows, block in blocks:
        out[np.ix_(rows, rows)] = block
    return out


def dense_unitary(u, d_s):
    """The (signal x bath) matrix of a beamsplitter array
    u[N, j - lo, i - lo] = <j, N - j|U|i, N - i> with signal cutoff d_s,
    where lo = max(0, N - d_b + 1); zero between sectors."""
    d_b = len(u) - d_s + 1
    out = np.zeros((d_s * d_b, d_s * d_b), dtype=np.complex128)
    for n in range(len(u)):
        levels = np.arange(max(0, n - d_b + 1), min(n, d_s - 1) + 1)
        idx = levels * d_b + n - levels
        out[np.ix_(idx, idx)] = u[n, :len(levels), :len(levels)]
    return out


def dense_basis(spectra):
    """Eigenvector columns in block order, the order of the concatenated
    eigenvalues, from the (rows, eigenvalues, eigenvectors) list that
    ``eig_hermitian`` returns."""
    dim = sum(len(rows) for rows, _, _ in spectra)
    out = np.zeros((dim, dim), dtype=np.complex128)
    col = 0
    for rows, _, vec in spectra:
        out[rows, col:col + len(rows)] = vec
        col += len(rows)
    return out


def one_block(matrix):
    """A matrix as a block list of one block."""
    return [(np.arange(len(matrix)), matrix)]
