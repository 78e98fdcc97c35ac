"""Operator algebra on truncated bosonic Fock spaces, kept as block lists.

A block list is a list of ``(rows, block)`` pairs, one per sector of a
conserved quantity (:func:`group_indices` groups joint indices by its
value): ``block`` is the square matrix on the indices ``rows``, float64
for a real operator and complex128 otherwise, and entries between
sectors are zero and never stored.  The Hermitian operators share this
one format: received states (:class:`DensityOperator`), the estimator
observable (:func:`eig_hermitian`) and the reflectivity derivative of the
received state.  The beamsplitter U is one array ``u[N, j - lo, i - lo]``
over its excitation sectors N, offset by each sector's lowest signal
level lo (:func:`beamsplitter_unitary`); no received state uses it, as
:mod:`qillum.estimator` applies the thermal-loss channel it dilates in
closed form.
No single-mode operator is built here: a ladder enters only as the
entries of the blocks that use it (the beamsplitter chains below, the
estimator's sector blocks in :mod:`qillum.estimator`).

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


def _hermitian(blocks) -> list:
    """``blocks`` with contiguous blocks, float64 for real input and
    complex128 for complex, checked to be a nonempty list of nonempty
    square blocks with one row index per row (:class:`DimensionError`),
    each finite and Hermitian entrywise to HERMITIAN_ATOL (ValueError)."""
    if not blocks:
        raise DimensionError("expected at least one block")
    out = []
    # a NaN or infinite entry makes dev NaN or infinite, so it fails too
    with np.errstate(invalid="ignore"):
        for rows, block in blocks:
            m = np.asarray(block)
            m = np.ascontiguousarray(m, dtype=np.result_type(m, float))
            if m.ndim != 2 or not 0 < len(rows) == m.shape[0] == m.shape[1]:
                raise DimensionError(
                    f"expected a square block on {len(rows)} rows, got {m.shape}")
            dev = np.abs(m - m.conj().T).max()
            if not dev < HERMITIAN_ATOL:
                raise ValueError(f"block is not finite or deviates from Hermitian by {dev:.3e}")
            out.append((rows, m))
    return out


@dataclass
class DensityOperator:
    """Hermitian positive operator with explicit truncation bookkeeping.

    ``blocks`` is a block list of square real or complex blocks, each
    Hermitian to 1e-12, and ``trace + trace_deficit = 1`` holds to 1e-9;
    the deficit is the probability mass lost to finite cutoffs (never
    renormalized away).
    """

    blocks: list
    trace_deficit: float = 0.0

    def __post_init__(self):
        self.blocks = _hermitian(self.blocks)
        if self.trace_deficit < -TRACE_ATOL:
            raise ValueError(f"negative trace deficit {self.trace_deficit:.3e}")
        tr = self.trace()
        if not abs(tr + self.trace_deficit - 1.0) <= 1e-9:
            raise ValueError(
                f"trace {tr:.12f} + deficit {self.trace_deficit:.3e} is not 1"
            )

    def trace(self) -> float:
        return float(sum(block.trace().real for _, block in self.blocks))


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


def beamsplitter_unitary(eta: float, dim_signal: int, dim_bath: int) -> np.ndarray:
    """Beamsplitter exp[asin(eta) (s'b - s b')] mixing signal into the bath
    mode, as the array u[N, j - lo, i - lo] = <j, N - j|U|i, N - i> of
    shape (dim_signal + dim_bath - 1, w, w) with w = min(dim_signal,
    dim_bath).

    The generator conserves the excitation number N = n_s + n_b, so each
    sector N is one block on the signal levels lo = max(0, N - dim_bath
    + 1) to min(N, dim_signal - 1), at most w of them, a tridiagonal
    chain exponentiated through the eigendecomposition of its Hermitian
    form, unitary up to eigensolver accuracy; entries past the block are
    zero.  At eta = 0 every block is the exact identity and no
    eigensolver runs.
    Rows in incomplete sectors (N >= min(dim_signal, dim_bath)) remain
    unitary but no longer represent the physical beamsplitter; keep those
    amplitudes negligible by choosing cutoffs with headroom.
    """
    if abs(eta) > 1.0:
        raise ValueError(f"amplitude reflectivity must satisfy |eta| <= 1, got {eta}")
    theta = float(np.arcsin(eta))
    width = min(dim_signal, dim_bath)
    u = np.zeros((dim_signal + dim_bath - 1, width, width), dtype=np.complex128)
    for n in range(len(u)):
        lo, hi = max(0, n - dim_bath + 1), min(n, dim_signal - 1) + 1
        block = np.eye(hi - lo)
        if theta != 0.0:
            i = np.arange(lo + 1, hi)
            # s'b - sb' is real and antisymmetric: <i,j|s'b|i-1,j+1> = sqrt(i (j+1))
            link = np.sqrt(i) * np.sqrt(n - i + 1)
            k = np.diag(link, -1) - np.diag(link, 1)
            lam, vec = np.linalg.eigh(1j * k)
            # 1 + V (e^{-i theta lam} - 1) V', accurate at small theta
            block = block + (vec * np.expm1(-1j * theta * lam)) @ vec.conj().T
        u[n, :hi - lo, :hi - lo] = block
    return u


def eig_hermitian(blocks) -> list:
    """Spectrum of a Hermitian block list: (rows, eigenvalues, eigenvector
    columns) per block, in ``np.linalg.eigh``'s ascending order, with each
    column orthonormal on ``rows``.  A non-Hermitian block raises
    ValueError."""
    return [(rows, *np.linalg.eigh(m)) for rows, m in _hermitian(blocks)]
