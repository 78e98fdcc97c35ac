"""Truncated Fock-space operator algebra."""

import numpy as np
import pytest

from qillum.fock import (DensityOperator, DimensionError, annihilation,
                         beamsplitter_unitary, eig_hermitian, thermal_weights)


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


def test_annihilation_rejects_small_dim():
    with pytest.raises(DimensionError):
        annihilation(1)


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
    u = beamsplitter_unitary(0.0, 6, 6)
    assert np.abs(u - np.eye(36)).max() < 1e-13


def test_beamsplitter_full_reflection_swaps():
    d = 5
    u = beamsplitter_unitary(1.0, d, d)
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
    u = beamsplitter_unitary(0.01, 12, 12)
    assert np.abs(u.conj().T @ u - np.eye(144)).max() < 1e-10


def test_beamsplitter_inverse_pair():
    u = beamsplitter_unitary(0.3, 10, 10)
    v = beamsplitter_unitary(-0.3, 10, 10)
    assert np.abs(u @ v - np.eye(100)).max() < 1e-9


def test_beamsplitter_rejects_bad_reflectivity():
    with pytest.raises(ValueError):
        beamsplitter_unitary(1.5, 4, 4)


def test_operators_are_complex128_arrays():
    assert annihilation(5).dtype == np.complex128
    assert beamsplitter_unitary(0.2, 4, 3).dtype == np.complex128


def test_eig_descending_diag():
    lam, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(lam, [3.0, 2.0, 1.0])


def test_eig_pauli_x():
    lam, vec = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lam, [1.0, -1.0])
    assert np.allclose(np.abs(vec), 1 / np.sqrt(2))


def test_eig_reconstruction_random():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    h = 0.5 * (x + x.conj().T)
    lam, vec = eig_hermitian(h)
    recon = (vec * lam) @ vec.conj().T
    assert np.abs(recon - h).max() < 1e-9
    assert np.abs(vec.conj().T @ vec - np.eye(20)).max() < 1e-10
    assert np.all(np.diff(lam) <= 1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a deviation at the 1e-12 tolerance is rejected too
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))


def test_density_operator_rejects_non_square():
    with pytest.raises(DimensionError):
        DensityOperator(np.eye(4)[:3] / 3.0)
    with pytest.raises(DimensionError):
        DensityOperator(np.ones(3) / 3.0)
    with pytest.raises(DimensionError):
        DensityOperator(np.zeros((0, 0)), 1.0)


def test_density_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(np.array([[0.5, 1e-12], [0.0, 0.5]]))


def test_density_operator_rejects_trace_mismatch():
    with pytest.raises(ValueError, match="is not 1"):
        DensityOperator(np.diag([0.5, 0.4]))
    with pytest.raises(ValueError, match="is not 1"):
        DensityOperator(np.diag([0.5, 0.4]), 0.2)
    with pytest.raises(ValueError, match="negative trace deficit"):
        DensityOperator(np.diag([0.6, 0.5]), -0.1)


def test_density_operator_invariants():
    w = thermal_weights(0.8, 30)
    rho = DensityOperator(np.diag(w), (0.8 / 1.8) ** 30)
    assert rho.data.dtype == np.complex128
    assert np.linalg.eigvalsh(rho.data).min() >= -1e-10
    assert rho.trace() + rho.trace_deficit == pytest.approx(1.0, abs=1e-12)
