"""Optimal observable construction, received states, and moment machinery."""

import tracemalloc

import numpy as np
import pytest
from dense import annihilation, dense, dense_basis, one_block

from qillum.estimator import (eta_derivative, mgf_empirical,
                              moment_bound_check, outcome_distribution,
                              received_state, signal_antinormal_moments,
                              sld_observable, trace_moments, unbiasedness_check)
from qillum.fock import (DensityOperator, TruncationError, eig_hermitian,
                         thermal_weights)
from qillum.qfi import qfi_schmidt
from qillum.states import cat_state, coherent, tmsv

NB = 1.0
DIM_BATH = 40


def sld_from_eigensum(rho0, drho, pair_floor=1e-12):
    """Oracle SLD from the spectral definition
    L = 2 sum_{mn} <m|drho|n> / (lam_m + lam_n) |m><n|, restricted to the
    eigenvalue-pair support above ``pair_floor``."""
    spectra = eig_hermitian(rho0.blocks)
    lam = np.concatenate([w for _, w, _ in spectra])
    vec = dense_basis(spectra)
    m = vec.conj().T @ drho @ vec
    pair = lam[:, None] + lam[None, :]
    coef = np.zeros_like(m)
    mask = pair > pair_floor
    coef[mask] = 2.0 * m[mask] / pair[mask]
    return vec @ coef @ vec.conj().T


def pure_state(v, obs):
    """The projector |v><v| as a density operator on the observable's
    blocks, for a vector v inside one of them."""
    return DensityOperator([(rows, np.outer(v[rows], v[rows].conj()))
                            for rows, _ in obs.blocks])


@pytest.fixture(scope="module")
def tmsv_setup():
    state = tmsv(0.3, 30)
    rep = qfi_schmidt(state, NB)
    obs = sld_observable(state, NB, DIM_BATH)
    rho0 = received_state(state, NB, 0.0, DIM_BATH)
    return state, rep, obs, rho0


def test_sld_rejects_zero_information():
    with pytest.raises(ValueError):
        sld_observable(tmsv(0.0, 8), NB, 10)


def test_sld_coherent_is_scaled_quadrature():
    ns, phase = 0.5, 0.7
    obs = sld_observable(coherent(ns, phase, 30), NB, 30)
    b = annihilation(30)
    quadrature = np.exp(-1j * phase) * b + np.exp(1j * phase) * b.conj().T
    target = -quadrature / (2.0 * np.sqrt(ns))
    assert np.abs(dense(obs.blocks) - target).max() < 1e-12


def test_sld_tmsv_pair_coupling_structure():
    state = tmsv(0.3, 20)
    obs = sld_observable(state, NB, 15)
    o = dense(obs.blocks).reshape(state.rank, 15, state.rank, 15)
    ladder = np.zeros((15, 15), bool)
    for m in range(14):
        ladder[m, m + 1] = ladder[m + 1, m] = True
    for a in range(state.rank):
        for b in range(state.rank):
            block = np.abs(o[a, :, b, :])
            if abs(a - b) == 1:
                assert block[~ladder].max() == 0.0
            else:
                assert block.max() == 0.0


def test_sld_tmsv_is_proportional_to_gaussian_pair_form():
    # geometric Schmidt weights make the pair coefficients scale exactly
    # like sqrt(n+1), so the optimal observable is a scalar multiple of
    # ab + a'b' at any photon number in this representation
    state = tmsv(0.3, 25)
    obs = sld_observable(state, NB, 12)
    a, b = annihilation(state.rank), annihilation(12)
    gab = np.kron(a, b) + np.kron(a.conj().T, b.conj().T)
    x, y = dense(obs.blocks).ravel(), gab.ravel()
    cos = abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y))
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_sld_cat2_low_photon_is_jaynes_cummings_like():
    obs = sld_observable(cat_state(0.01, 2, 20), NB, 15)
    o = dense(obs.blocks).reshape(2, 15, 2, 15)
    assert np.abs(o[0, :, 0, :]).max() < 1e-10
    assert np.abs(o[1, :, 1, :]).max() < 1e-10
    block = o[0, :, 1, :]
    dominant = np.abs(np.triu(block, 1)).max()
    subdominant = np.abs(np.tril(block, -1)).max()
    assert subdominant < 0.05 * dominant


def test_sld_spectrum_reconstruction(tmsv_setup):
    _, _, obs, _ = tmsv_setup
    basis = dense_basis(obs.spectra)
    recon = (basis * obs.eigenvalues) @ basis.conj().T
    assert np.abs(recon - dense(obs.blocks)).max() < 1e-9


def test_received_state_zero_reflectivity_is_product(tmsv_setup):
    state, _, _, rho0 = tmsv_setup
    expected = np.kron(np.diag(state.probs), np.diag(thermal_weights(NB, DIM_BATH)))
    assert np.abs(dense(rho0.blocks) - expected).max() < 1e-12


def test_received_state_trace_bookkeeping():
    state = tmsv(0.3, 30)
    rho = received_state(state, NB, 0.1, DIM_BATH)
    assert rho.trace() + rho.trace_deficit == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= rho.trace_deficit < 1e-9
    assert np.linalg.eigvalsh(dense(rho.blocks)).min() >= -1e-10


def test_received_state_deficit_opt_in():
    with pytest.raises(TruncationError):
        received_state(tmsv(0.3, 30), NB, 0.1, 6, deficit_tol=1e-12)


def test_eta_derivative_matches_finite_difference():
    state = tmsv(0.3, 30)
    delta = 1e-5
    fd = (dense(received_state(state, NB, delta, DIM_BATH).blocks)
          - dense(received_state(state, NB, 0.0, DIM_BATH).blocks)) / delta
    analytic = dense(eta_derivative(state, NB, DIM_BATH))
    assert np.abs(fd - analytic).max() < 1e-4


def test_sld_defining_equation(tmsv_setup):
    state, rep, obs, rho0 = tmsv_setup
    drho = dense(eta_derivative(state, NB, DIM_BATH))
    l_mat = rep.h * dense(obs.blocks)
    rho = dense(rho0.blocks)
    resid = 0.5 * (rho @ l_mat + l_mat @ rho) - drho
    assert np.abs(resid).max() < 1e-12


def test_sld_two_route_agreement(tmsv_setup):
    # closed form against the spectral eigen-sum, compared on the
    # eigenvalue-pair support; tiny pairs are excluded where eigenvector
    # mixing between near-degenerate tail levels amplifies roundoff
    state, rep, obs, rho0 = tmsv_setup
    drho = dense(eta_derivative(state, NB, DIM_BATH))
    spectra = eig_hermitian(rho0.blocks)
    lam = np.concatenate([w for _, w, _ in spectra])
    vec = dense_basis(spectra)
    m = vec.conj().T @ drho @ vec
    pair = lam[:, None] + lam[None, :]
    mask = pair > 1e-6
    l_def = np.zeros_like(m)
    l_def[mask] = 2.0 * m[mask] / pair[mask]
    l_cf = vec.conj().T @ (rep.h * dense(obs.blocks)) @ vec
    assert np.abs(l_cf - l_def)[mask].max() < 1e-8


def test_sld_from_eigensum_helper(tmsv_setup):
    state, rep, obs, rho0 = tmsv_setup
    drho = dense(eta_derivative(state, NB, DIM_BATH))
    l_back = sld_from_eigensum(rho0, drho)
    assert abs(np.trace(l_back @ drho) - rep.h) < 1e-6


def test_outcome_point_mass(tmsv_setup):
    _, _, obs, _ = tmsv_setup
    dist = outcome_distribution(pure_state(dense_basis(obs.spectra)[:, 3], obs), obs)
    assert dist.probabilities[3] == pytest.approx(1.0, abs=1e-10)
    assert dist.mean() == pytest.approx(obs.eigenvalues[3], abs=1e-9)


def test_outcome_mean_is_trace_identity(tmsv_setup):
    state, _, obs, _ = tmsv_setup
    rho = received_state(state, NB, 0.05, DIM_BATH)
    dist = outcome_distribution(rho, obs)
    r, o = dense(rho.blocks), dense(obs.blocks)
    assert dist.mean() == pytest.approx(float(np.real(np.trace(r @ o))), abs=1e-10)
    assert dist.variance() == pytest.approx(
        float(np.real(np.trace(r @ o @ o))) - dist.mean() ** 2, abs=1e-10)


def test_outcome_distribution_rejects_mismatched_blocks(tmsv_setup):
    state, _, obs, rho0 = tmsv_setup
    with pytest.raises(ValueError, match="do not match"):
        outcome_distribution(received_state(state, NB, 0.0, DIM_BATH - 1), obs)
    # one block of the observable's dimension, but not on its blocks
    whole = DensityOperator(one_block(dense(rho0.blocks)), rho0.trace_deficit)
    with pytest.raises(ValueError, match="do not match"):
        outcome_distribution(whole, obs)


def test_outcome_zero_reflectivity_moments(tmsv_setup):
    _, rep, obs, rho0 = tmsv_setup
    dist = outcome_distribution(rho0, obs)
    assert abs(dist.mean()) < 1e-10
    assert dist.variance() == pytest.approx(1.0 / rep.h, abs=1e-6)


def test_distribution_mass(tmsv_setup):
    _, _, obs, rho0 = tmsv_setup
    dist = outcome_distribution(rho0, obs)
    assert dist.probabilities.sum() + dist.deficit == pytest.approx(1.0, abs=1e-10)


def test_antinormal_moments_thermal_identity():
    # geometric marginal: <s^k s'^k> = k! (1+NS)^k
    ns = 0.3
    moments = signal_antinormal_moments(tmsv(ns, 30), 4)
    import math

    for k, m in enumerate(moments, start=1):
        assert m == pytest.approx(math.factorial(k) * (1 + ns) ** k, rel=1e-9)


def test_moment_bound_report(tmsv_setup):
    state, rep, _, _ = tmsv_setup
    report = moment_bound_check(state, NB, 4, DIM_BATH)
    assert max(abs(v) for v in report.odd_moments) < 1e-10
    assert report.c_fitted == pytest.approx(1.3, abs=1e-6)
    assert report.all_passed()
    assert report.even_moments[0] == pytest.approx(1.0 / rep.h, abs=1e-6)


def test_distribution_moments_equal_trace_route(tmsv_setup):
    # trace_moments reads the eigenbasis diagonal; dense matrix powers are
    # its oracle, also for a state off eta = 0 and for the derivative
    # blocks, which are not a density operator
    state, _, obs, rho0 = tmsv_setup
    dist = outcome_distribution(rho0, obs)
    operators = (rho0.blocks, received_state(state, NB, 0.05, DIM_BATH).blocks,
                 eta_derivative(state, NB, DIM_BATH))
    moments = [trace_moments(x, obs, 4) for x in operators]
    power = np.eye(len(obs.eigenvalues), dtype=np.complex128)
    for k in range(1, 5):
        power = power @ dense(obs.blocks)
        trace_moment = float(np.real(np.trace(dense(rho0.blocks) @ power)))
        dist_moment = float(np.dot(dist.probabilities, dist.values ** k))
        assert abs(trace_moment - dist_moment) < 1e-9
        for x, f in zip(operators, moments):
            assert abs(f[k - 1] - float(np.real(np.trace(dense(x) @ power)))) < 1e-9


def test_mgf_point_mass_and_origin(tmsv_setup):
    _, _, obs, rho0 = tmsv_setup
    dist = outcome_distribution(rho0, obs)
    assert mgf_empirical(dist, [0.0])[0] == pytest.approx(1.0, abs=1e-9)
    point = outcome_distribution(pure_state(dense_basis(obs.spectra)[:, 0], obs), obs)
    vals = mgf_empirical(point, [0.0, 0.5, 2.0])
    assert np.allclose(vals, 1.0, atol=1e-9)


def test_mgf_warns_outside_interval(tmsv_setup):
    _, rep, obs, rho0 = tmsv_setup
    dist = outcome_distribution(rho0, obs)
    with pytest.warns(RuntimeWarning):
        mgf_empirical(dist, [10.0], t_max=1.0)


def test_spectral_preparation_allocates_no_dense_matrix():
    """The received state, the SLD spectrum and the outcome distribution
    at N_B = 3, on 23 x 67 = 1541 joint dimensions, peak below one dense
    1541^2 complex matrix."""
    state = tmsv(0.5, 23)
    tracemalloc.start()
    try:
        rho = received_state(state, 3.0, 0.1, 67)
        obs = sld_observable(state, 3.0, 67)
        dist = outcome_distribution(rho, obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(obs.eigenvalues) == 1541
    assert peak < 16 * 1541 ** 2
    assert dist.probabilities.sum() + dist.deficit == pytest.approx(1.0, abs=1e-10)


def test_block_route_in_the_bright_bath():
    """At N_B = 50 (23 x 933 = 21459 joint dimensions) no dense oracle
    fits, so the block route is held to its own identities: the estimator
    is unbiased at eta = 0 with unit slope, and Var_0 = 1/H.  Slope and
    variance may miss by the thermal tail cut at the bath cutoff, whose
    n-weighted mass relative to N_B is delta (d_b + N_B) / N_B for the
    geometric law, E[n | n >= d_b] = d_b + N_B."""
    nb, d_b = 50.0, 933
    state = tmsv(0.5, 23)
    fit = unbiasedness_check(state, nb, d_b)
    obs = sld_observable(state, nb, d_b)
    rho0 = received_state(state, nb, 0.0, d_b)
    dist0 = outcome_distribution(rho0, obs)
    dist1 = outcome_distribution(received_state(state, nb, 0.1, d_b), obs)
    tail = 2.0 * rho0.trace_deficit * (d_b + nb) / nb
    assert abs(fit["intercept"]) < 1e-9
    assert abs(fit["slope"] - 1.0) <= tail
    assert abs(dist0.variance() * qfi_schmidt(state, nb).h - 1.0) <= tail
    for dist in (dist0, dist1):
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-8)
