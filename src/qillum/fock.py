"""Operator algebra on truncated bosonic Fock spaces, dense matrices
diagonalized sector by sector.

Operators are stored as dense matrices, but their spectral work runs on
sectors: the connected components of a matrix's exact nonzero pattern
(:func:`sectors`).  Entries between two sectors are exactly zero, so each
sector is diagonalized or exponentiated on its own.  The beamsplitter
generator splits by the excitation number n_s + n_b; a matrix without
exact zeros is a single sector and is handled as one dense block.

Multimode objects follow one global factor-ordering convention: whenever
idler, signal, and bath modes appear together the factors are ordered
(idler, signal, bath), and the joint index is row-major over the per-mode
cutoffs.  Truncation never renormalizes: density operators carry the
probability mass lost to the cutoff in an explicit ``trace_deficit`` so
the truncation error stays auditable instead of silently biasing later
denominators.

All functions here are pure; returned objects are treated as immutable
and are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


class DimensionError(ValueError):
    """An operator dimension is invalid or a tensor product would overflow."""


class TruncationError(RuntimeError):
    """A truncation deficit exceeds the caller-supplied tolerance."""


@dataclass
class TruncatedOperator:
    """Dense complex matrix on a truncated mode (or tensor-product) space.

    ``cutoffs`` lists the per-factor dimensions; the matrix dimension is
    their product.  ``hermitian_hint`` asserts Hermiticity at construction
    time (checked entrywise to 1e-12).
    """

    data: np.ndarray
    cutoffs: tuple
    hermitian_hint: bool = False

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.complex128)
        self.cutoffs = tuple(int(c) for c in self.cutoffs)
        if any(c < 1 for c in self.cutoffs):
            raise DimensionError(f"cutoffs must be positive, got {self.cutoffs}")
        dim = int(np.prod(self.cutoffs))
        if self.data.shape != (dim, dim):
            raise DimensionError(
                f"matrix shape {self.data.shape} does not match cutoffs {self.cutoffs}"
            )
        if self.hermitian_hint:
            dev = np.abs(self.data - self.data.conj().T).max()
            if dev >= HERMITIAN_ATOL:
                raise ValueError(f"operator marked Hermitian deviates by {dev:.3e}")

    @property
    def dim(self) -> int:
        return self.data.shape[0]


@dataclass
class DensityOperator:
    """Hermitian positive operator with explicit truncation bookkeeping.

    ``trace + trace_deficit = 1`` holds to 1e-12; the deficit is the
    probability mass lost to finite cutoffs (never renormalized away).
    """

    op: TruncatedOperator
    trace_deficit: float = 0.0

    def __post_init__(self):
        if not self.op.hermitian_hint:
            raise ValueError("density operators must be constructed Hermitian")
        if self.trace_deficit < -TRACE_ATOL:
            raise ValueError(f"negative trace deficit {self.trace_deficit:.3e}")
        tr = float(np.real(np.trace(self.op.data)))
        if abs(tr + self.trace_deficit - 1.0) > 1e-9:
            raise ValueError(
                f"trace {tr:.12f} + deficit {self.trace_deficit:.3e} is not 1"
            )

    @property
    def data(self) -> np.ndarray:
        return self.op.data

    def trace(self) -> float:
        return float(np.real(np.trace(self.op.data)))

    def validate(self, eig_floor: float = EIGENVALUE_FLOOR) -> None:
        """Full invariant check including the eigenvalue floor (O(D^3))."""
        tr = self.trace()
        if abs(tr + self.trace_deficit - 1.0) > TRACE_ATOL:
            raise ValueError("trace plus deficit drifted from 1")
        lo = float(np.linalg.eigvalsh(self.op.data).min())
        if lo < eig_floor:
            raise ValueError(f"negative eigenvalue {lo:.3e} below floor")


def annihilation(dim: int) -> TruncatedOperator:
    """Single-mode annihilation operator: <n-1|a|n> = sqrt(n)."""
    if dim < 2:
        raise DimensionError(f"annihilation needs dim >= 2, got {dim}")
    return TruncatedOperator(np.diag(np.sqrt(np.arange(1, dim)), 1), (dim,))


def thermal_weights(n_bath: float, dim: int) -> np.ndarray:
    """Bose-Einstein weights n_bath^n / (1+n_bath)^(n+1), untruncated values."""
    ratio = n_bath / (1.0 + n_bath)
    return ratio ** np.arange(dim) / (1.0 + n_bath)


def sectors(matrix: np.ndarray) -> list:
    """Connected components of the exact nonzero pattern of a square matrix.

    Indices i and j share a sector when a chain of nonzero entries, in
    either triangle, links them, so every entry between two sectors is
    exactly zero.  Each sector is an ascending index array; sectors are
    ordered by their smallest index.  A matrix without exact zeros is one
    sector.
    """
    link = np.asarray(matrix) != 0
    link |= link.T
    unseen = np.ones(link.shape[0], dtype=bool)
    out = []
    while unseen.any():
        frontier = np.array([np.argmax(unseen)])
        members = []
        while frontier.size:
            unseen[frontier] = False
            members.append(frontier)
            frontier = np.flatnonzero(link[frontier].any(axis=0) & unseen)
        out.append(np.sort(np.concatenate(members)))
    return out


def _sector_eigh(matrix: np.ndarray):
    """(indices, ascending eigenvalues, eigenvector columns) of each sector
    of a Hermitian matrix, diagonalized on its own."""
    for idx in sectors(matrix):
        lam, vec = np.linalg.eigh(matrix[np.ix_(idx, idx)])
        yield idx, lam, vec


def beamsplitter_unitary(eta: float, dim_signal: int, dim_bath: int) -> TruncatedOperator:
    """Beamsplitter exp[asin(eta) (s'b - s b')] mixing signal into the bath mode.

    The generator conserves the excitation number n_s + n_b, so it is
    exactly block-diagonal in it.  Each excitation sector is exponentiated
    on its own through the eigendecomposition of its Hermitian block,
    which makes the result unitary on the truncated joint space up to
    eigensolver accuracy and exactly zero between sectors.  Rows in
    incomplete sectors (n_s + n_b >= min(dim_signal, dim_bath)) remain
    unitary but no longer represent the physical beamsplitter; keep those
    amplitudes negligible by choosing cutoffs with headroom.
    """
    if abs(eta) > 1.0:
        raise ValueError(f"amplitude reflectivity must satisfy |eta| <= 1, got {eta}")
    theta = float(np.arcsin(eta))
    # s'b - sb' is real and antisymmetric: K - K^T with K = s^T (x) b
    k = np.kron(annihilation(dim_signal).data.real.T, annihilation(dim_bath).data.real)
    gen = 1j * (k - k.T)
    u = np.zeros_like(gen)
    for idx, lam, vec in _sector_eigh(gen):
        # 1 + V (e^{-i theta lam} - 1) V': the identity stays exact at eta = 0
        u[np.ix_(idx, idx)] = (np.eye(len(idx))
                               + (vec * np.expm1(-1j * theta * lam)) @ vec.conj().T)
    return TruncatedOperator(u, (dim_signal, dim_bath))


def eig_hermitian(a: TruncatedOperator):
    """Eigenvalues (descending) and orthonormal eigenvector columns.

    Each sector of the matrix's exact nonzero pattern is diagonalized on
    its own, so every eigenvector is supported on one sector.
    """
    if not a.hermitian_hint:
        raise ValueError("eig_hermitian requires hermitian_hint")
    lam = np.empty(a.dim)
    vec = np.zeros((a.dim, a.dim), dtype=np.complex128)
    for idx, lam_s, vec_s in _sector_eigh(a.data):
        lam[idx] = lam_s
        vec[np.ix_(idx, idx)] = vec_s
    order = np.argsort(lam, kind="stable")[::-1]
    return lam[order], vec[:, order]
