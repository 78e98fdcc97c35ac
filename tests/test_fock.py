"""Truncated Fock-space operator algebra."""

import numpy as np
import pytest
from dense import annihilation, dense, dense_basis, dense_unitary, one_block

from qillum.fock import (DensityOperator, DimensionError, beamsplitter_unitary,
                         eig_hermitian, thermal_weights)


# the dense ladder oracle that tests/dense.py provides to the other tests
def test_annihilation_d2():
    a = annihilation(2)
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_d3_entries():
    a = annihilation(3)
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(np.sqrt(2))
    assert np.count_nonzero(a) == 2


def test_number_operator_diagonal():
    a = annihilation(4)
    n = a.conj().T @ a
    assert np.allclose(np.diag(n).real, [0, 1, 2, 3])
    assert np.allclose(n, np.diag(np.arange(4)))


def test_commutator_is_one_below_cutoff():
    d = 9
    a = annihilation(d)
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(np.diag(comm).real[: d - 1], 1.0)


def test_thermal_vacuum():
    w = thermal_weights(0.0, 5)
    assert 1.0 - w.sum() == 0.0
    assert np.array_equal(w, [1, 0, 0, 0, 0])


def test_thermal_hand_values():
    # n_bath = 1, dim 2: weights 1/2, 1/4, deficit 1/4
    w = thermal_weights(1.0, 2)
    assert np.allclose(w, [0.5, 0.25])
    assert 1.0 - w.sum() == pytest.approx(0.25)


def test_thermal_mean_photons_direct_sum():
    n_bath, dim = 1.7, 40
    w = thermal_weights(n_bath, dim)
    mean = np.arange(dim) @ w
    direct = sum(n * p for n, p in enumerate(w))
    deficit = (n_bath / (1.0 + n_bath)) ** dim
    assert 1.0 - w.sum() == pytest.approx(deficit, rel=1e-9)
    assert mean == pytest.approx(direct, rel=1e-14)
    assert mean <= n_bath
    assert mean >= n_bath * (1 - deficit * dim)


def test_thermal_ratio_exact():
    w = thermal_weights(2.3, 30)
    ratios = w[1:] / w[:-1]
    assert np.allclose(ratios, 2.3 / 3.3, rtol=1e-14)


def test_beamsplitter_zero_is_identity():
    u = dense_unitary(beamsplitter_unitary(0.0, 6, 6), 6)
    assert np.array_equal(u, np.eye(36))


def test_beamsplitter_full_reflection_swaps():
    d = 5
    u = dense_unitary(beamsplitter_unitary(1.0, d, d), d)
    vec = np.zeros(d * d)
    vec[1 * d + 0] = 1.0  # |1, 0>
    out = u @ vec
    target = 1 * 1  # |0, 1> index 0*d + 1
    assert abs(abs(out[target]) - 1.0) < 1e-12
    mask = np.ones(d * d, bool)
    mask[target] = False
    assert np.abs(out[mask]).max() < 1e-12


def test_beamsplitter_unitarity():
    # exact exponential through the eigendecomposition keeps even the
    # boundary rows unitary; physical fidelity (not unitarity) is what
    # degrades in incomplete total-excitation sectors
    u = dense_unitary(beamsplitter_unitary(0.01, 12, 12), 12)
    assert np.abs(u.conj().T @ u - np.eye(144)).max() < 1e-10


def test_beamsplitter_inverse_pair():
    u = dense_unitary(beamsplitter_unitary(0.3, 10, 10), 10)
    v = dense_unitary(beamsplitter_unitary(-0.3, 10, 10), 10)
    assert np.abs(u @ v - np.eye(100)).max() < 1e-9


def test_beamsplitter_rejects_bad_reflectivity():
    with pytest.raises(ValueError):
        beamsplitter_unitary(1.5, 4, 4)


def test_operators_are_complex128_arrays():
    assert beamsplitter_unitary(0.2, 4, 3).dtype == np.complex128


def test_beamsplitter_array_shape_and_sectors():
    # u[N, j - lo, i - lo] has shape (d_s + d_b - 1, w, w), w = min(d_s, d_b),
    # and sector N fills its leading min(N, d_s - 1) + 1 - lo rows and
    # columns, lo = max(0, N - d_b + 1), with zeros past them
    for eta, d_s, d_b in ((0.0, 4, 3), (0.2, 4, 3), (0.5, 3, 7), (0.3, 40, 8)):
        u = beamsplitter_unitary(eta, d_s, d_b)
        width = min(d_s, d_b)
        assert u.shape == (d_s + d_b - 1, width, width)
        assert u.nbytes <= 16 * (d_s + d_b - 1) * width ** 2
        for n in range(len(u)):
            inside = np.zeros(width, bool)
            inside[:min(n, d_s - 1) + 1 - max(0, n - d_b + 1)] = True
            assert not u[n][~np.outer(inside, inside)].any()
            assert np.abs(u[n][np.ix_(inside, inside)]).max() > 0


def test_eig_is_eigh_per_block():
    # (rows, eigenvalues, eigenvectors) per block, in block order, each
    # exactly np.linalg.eigh of its block: ascending, no global order
    blocks = [(np.array([0, 2, 4]), np.diag([3.0, 1.0, 2.0])),
              (np.array([1, 3]), np.array([[0.0, 2.0], [2.0, 0.0]]))]
    spectra = eig_hermitian(blocks)
    assert len(spectra) == 2
    for (rows, block), (own, lam, vec) in zip(blocks, spectra):
        ref_lam, ref_vec = np.linalg.eigh(block.astype(np.complex128))
        assert own is rows
        assert np.array_equal(lam, ref_lam)
        assert np.array_equal(vec, ref_vec)
    assert np.array_equal(spectra[0][1], [1.0, 2.0, 3.0])
    assert np.array_equal(spectra[1][1], [-2.0, 2.0])


def test_eig_pauli_x():
    vecs = eig_hermitian(one_block(np.array([[0.0, 1.0], [1.0, 0.0]])))
    [(_, lam, _)] = vecs
    vec = dense_basis(vecs)
    assert np.allclose(lam, [-1.0, 1.0])
    assert np.allclose(np.abs(vec), 1 / np.sqrt(2))


def test_eig_reconstruction_random():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    h = 0.5 * (x + x.conj().T)
    vecs = eig_hermitian(one_block(h))
    [(_, lam, _)] = vecs
    vec = dense_basis(vecs)
    recon = (vec * lam) @ vec.conj().T
    assert np.abs(recon - h).max() < 1e-9
    assert np.abs(vec.conj().T @ vec - np.eye(20)).max() < 1e-10
    assert np.all(np.diff(lam) >= -1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(one_block(np.array([[0.0, 1.0], [0.0, 0.0]])))
    # a deviation at the 1e-12 tolerance is rejected too
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(one_block(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])))


def test_density_operator_rejects_non_square():
    with pytest.raises(DimensionError):
        DensityOperator(one_block(np.eye(4)[:3] / 3.0))
    with pytest.raises(DimensionError):
        DensityOperator(one_block(np.ones(3) / 3.0))
    with pytest.raises(DimensionError):
        DensityOperator(one_block(np.zeros((0, 0))), 1.0)
    with pytest.raises(DimensionError):
        DensityOperator([], 1.0)
    with pytest.raises(DimensionError):
        DensityOperator([(np.arange(3), np.eye(2) / 2.0)])


def test_density_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(one_block(np.array([[0.5, 0.1], [0.0, 0.5]])))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(one_block(np.array([[0.5, 1e-12], [0.0, 0.5]])))


def test_density_operator_rejects_non_finite_blocks():
    # a NaN once passed both the Hermiticity and the trace check (NaN compares false)
    nan, inf = np.nan, np.inf
    for bad in ([[nan, 0.0], [0.0, 1.0]], [[0.5, nan], [nan, 0.5]], [[inf, 0.0], [0.0, 0.5]],
                [[0.5, inf], [inf, 0.5]], [[0.5, 1j * inf], [-1j * inf, 0.5]]):
        with pytest.raises(ValueError, match="not finite"):
            DensityOperator(one_block(np.array(bad)))
        with pytest.raises(ValueError, match="not finite"):
            eig_hermitian(one_block(np.array(bad)))
    with pytest.raises(ValueError, match="is not 1"):
        DensityOperator(one_block(np.diag([0.5, 0.5])), nan)


def test_density_operator_rejects_trace_mismatch():
    with pytest.raises(ValueError, match="is not 1"):
        DensityOperator(one_block(np.diag([0.5, 0.4])))
    with pytest.raises(ValueError, match="is not 1"):
        DensityOperator(one_block(np.diag([0.5, 0.4])), 0.2)
    with pytest.raises(ValueError, match="negative trace deficit"):
        DensityOperator(one_block(np.diag([0.6, 0.5])), -0.1)


def test_density_operator_invariants():
    w = thermal_weights(0.8, 30)
    rho = DensityOperator(one_block(np.diag(w)), (0.8 / 1.8) ** 30)
    # a real operator stays float64, a complex one is complex128
    assert rho.blocks[0][1].dtype == np.float64
    phased = DensityOperator(one_block(np.diag(w + 0j)), rho.trace_deficit)
    assert phased.blocks[0][1].dtype == np.complex128
    assert np.linalg.eigvalsh(dense(rho.blocks)).min() >= -1e-10
    assert rho.trace() + rho.trace_deficit == pytest.approx(1.0, abs=1e-12)
