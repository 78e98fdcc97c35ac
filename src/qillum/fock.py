"""Operator algebra on truncated bosonic Fock spaces, dense matrices
diagonalized sector by sector.

Operators are plain dense complex128 numpy arrays.  The one wrapper is
:class:`DensityOperator`, which keeps a received state's matrix next to
its trace deficit and checks that the matrix is square and Hermitian.
Spectral work runs on sectors that a conserved quantity fixes in closed
form (:func:`group_indices` groups joint indices by its value).  Entries
between two sectors are exactly zero, so each is diagonalized or
exponentiated on its own.  The beamsplitter conserves the excitation
number n_s + n_b; :func:`eig_hermitian` takes its sectors from the caller.

Multimode objects follow one global factor-ordering convention: whenever
idler, signal, and bath modes appear together the factors are ordered
(idler, signal, bath), and the joint index is row-major over the per-mode
cutoffs.  Truncation never renormalizes: density operators carry the
probability mass lost to the cutoff in an explicit ``trace_deficit`` so
the truncation error stays auditable instead of silently biasing later
denominators.

All functions here are pure; returned arrays are treated as immutable
and are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12


class DimensionError(ValueError):
    """An operator dimension is invalid or a tensor product would overflow."""


class TruncationError(RuntimeError):
    """A truncation deficit exceeds the caller-supplied tolerance."""


def _hermitian(matrix) -> np.ndarray:
    """``matrix`` as a contiguous complex128 array, checked to be a nonempty
    square matrix (:class:`DimensionError`) that is Hermitian entrywise to
    HERMITIAN_ATOL (ValueError)."""
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionError(f"expected a nonempty square matrix, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max()
    if dev >= HERMITIAN_ATOL:
        raise ValueError(f"matrix deviates from Hermitian by {dev:.3e}")
    return m


@dataclass
class DensityOperator:
    """Hermitian positive operator with explicit truncation bookkeeping.

    ``data`` is a square complex matrix, Hermitian to 1e-12, and
    ``trace + trace_deficit = 1`` holds to 1e-9; the deficit is the
    probability mass lost to finite cutoffs (never renormalized away).
    """

    data: np.ndarray
    trace_deficit: float = 0.0

    def __post_init__(self):
        self.data = _hermitian(self.data)
        if self.trace_deficit < -TRACE_ATOL:
            raise ValueError(f"negative trace deficit {self.trace_deficit:.3e}")
        tr = self.trace()
        if abs(tr + self.trace_deficit - 1.0) > 1e-9:
            raise ValueError(
                f"trace {tr:.12f} + deficit {self.trace_deficit:.3e} is not 1"
            )

    def trace(self) -> float:
        return float(np.real(np.trace(self.data)))


def annihilation(dim: int) -> np.ndarray:
    """Single-mode annihilation operator: <n-1|a|n> = sqrt(n)."""
    if dim < 2:
        raise DimensionError(f"annihilation needs dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(np.complex128)


def thermal_weights(n_bath: float, dim: int) -> np.ndarray:
    """Bose-Einstein weights n_bath^n / (1+n_bath)^(n+1), untruncated values."""
    ratio = n_bath / (1.0 + n_bath)
    return ratio ** np.arange(dim) / (1.0 + n_bath)


def group_indices(keys) -> dict:
    """Indices grouped by an integer key: {key: ascending index array},
    in ascending key order."""
    keys = np.asarray(keys).ravel()
    order = np.argsort(keys, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
    return {int(keys[g[0]]): g for g in groups}


def excitation_sectors(dim_signal: int, dim_bath: int) -> dict:
    """Joint (signal, bath) indices i * dim_bath + j grouped by the
    excitation number N = i + j that the beamsplitter conserves."""
    return group_indices(np.add.outer(np.arange(dim_signal), np.arange(dim_bath)))


def beamsplitter_unitary(eta: float, dim_signal: int, dim_bath: int) -> np.ndarray:
    """Beamsplitter exp[asin(eta) (s'b - s b')] mixing signal into the bath mode.

    The generator conserves the excitation number n_s + n_b, so each of
    the :func:`excitation_sectors` is a tridiagonal chain, exponentiated
    on its own through the eigendecomposition of its Hermitian block.
    That makes the result unitary on the truncated joint space up to
    eigensolver accuracy and exactly zero between sectors.  Rows in
    incomplete sectors (n_s + n_b >= min(dim_signal, dim_bath)) remain
    unitary but no longer represent the physical beamsplitter; keep those
    amplitudes negligible by choosing cutoffs with headroom.
    """
    if abs(eta) > 1.0:
        raise ValueError(f"amplitude reflectivity must satisfy |eta| <= 1, got {eta}")
    theta = float(np.arcsin(eta))
    u = np.zeros((dim_signal * dim_bath,) * 2, dtype=np.complex128)
    for idx in excitation_sectors(dim_signal, dim_bath).values():
        i, j = np.divmod(idx[1:], dim_bath)
        # s'b - sb' is real and antisymmetric: <i,j|s'b|i-1,j+1> = sqrt(i (j+1))
        link = np.sqrt(i) * np.sqrt(j + 1)
        k = np.diag(link, -1) - np.diag(link, 1)
        lam, vec = np.linalg.eigh(1j * k)
        # 1 + V (e^{-i theta lam} - 1) V': the identity stays exact at eta = 0
        u[np.ix_(idx, idx)] = (np.eye(len(idx))
                               + (vec * np.expm1(-1j * theta * lam)) @ vec.conj().T)
    return u


def eig_hermitian(matrix: np.ndarray, sectors=None):
    """Eigenvalues (descending), orthonormal eigenvector columns and the
    (rows, columns) of each sector of a Hermitian matrix; a non-Hermitian
    one raises ValueError.

    ``sectors`` are disjoint index arrays covering the matrix with zeros
    between them (default: one sector); each is diagonalized on its own.
    """
    matrix = _hermitian(matrix)
    dim = matrix.shape[0]
    if sectors is None:
        sectors = [np.arange(dim)]
    lam = np.empty(dim)
    vec = np.zeros((dim, dim), dtype=np.complex128)
    for idx in sectors:
        lam[idx], vec[np.ix_(idx, idx)] = np.linalg.eigh(matrix[np.ix_(idx, idx)])
    order = np.argsort(lam, kind="stable")[::-1]
    column = np.argsort(order)
    return lam[order], vec[:, order], [(idx, np.sort(column[idx])) for idx in sectors]
