"""Optimal observable construction, received states, and moment machinery."""

import time
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
from qillum.qfi import BATH_TAIL, default_cutoff, qfi_schmidt, thermal_cutoff
from qillum.states import cat_state, coherent, state_from_family, tmsv

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


def test_residue_sectors_allocate_no_one_sector_factor():
    """cat:2 and cat:3 at N_B = 10 (23 x 196 levels) split into residue
    sectors, so their received state, SLD spectrum and outcome
    distribution peak below 32 bytes per entry of the (rank x d_b) x
    (d_s x d_b) factor z that one sector over every row and column would
    gather."""
    for d in (2, 3):
        state = cat_state(0.5, d, 23)
        tracemalloc.start()
        try:
            rho = received_state(state, 10.0, 0.1, 196)
            obs = sld_observable(state, 10.0, 196)
            dist = outcome_distribution(rho, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(obs.spectra) == d
        assert peak < 32 * (d * 196) * (23 * 196)
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


def test_real_transmitters_stay_float64():
    """tmsv, coherent at phase 0 and cat:2 have real amplitudes, so the
    received state, the SLD and its eigenvectors are built in float64."""
    for label in ("tmsv", "coherent", "cat:2"):
        state = state_from_family(label, 0.5, 20)
        rho = received_state(state, NB, 0.1, 15)
        obs = sld_observable(state, NB, 15)
        arrays = ([b for _, b in rho.blocks] + [b for _, b in obs.blocks]
                  + [vec for _, _, vec in obs.spectra])
        assert all(x.dtype == np.float64 for x in arrays), label


def test_zero_reflectivity_deficit_is_the_bath_tail():
    """At eta = 0 the channel is the thermal state alone, so the deficit is
    1 - sum_a p_a |w_a|^2 (1 - (N_B / (1 + N_B))^d_b): the transmitter's
    loss plus the amplifier's tail above d_b, and nothing else."""
    for label, d_s, n_bath, d_b in (("tmsv", 12, 1.0, 15), ("coherent", 10, 3.0, 20),
                                    ("cat:2", 12, 0.5, 9), ("cat:3", 14, 2.0, 25)):
        state = state_from_family(label, 0.8, d_s)
        norms = np.sum(np.abs(state.vectors) ** 2, axis=0)
        kept = np.sum(state.probs * norms) * (1.0 - (n_bath / (1.0 + n_bath)) ** d_b)
        rho = received_state(state, n_bath, 0.0, d_b)
        assert abs(rho.trace_deficit - (1.0 - kept)) <= 1e-15, label


def test_complex_phase_gives_the_real_outcomes():
    """coherent at phase 0.7 runs in complex128 and is the phase-0 state
    rotated by e^(0.7 i n), which the SLD's eigenbasis absorbs: its outcome
    distributions equal the float64 ones."""
    for eta in (0.0, 0.2):
        dists = []
        for phase in (0.0, 0.7):
            state = coherent(0.5, phase, 20)
            obs = sld_observable(state, NB, 25)
            rho = received_state(state, NB, eta, 25)
            assert rho.blocks[0][1].dtype == (np.complex128 if phase else np.float64)
            dists.append(outcome_distribution(rho, obs))
        real, phased = dists
        assert np.abs(phased.values - real.values).max() <= 1e-12
        assert np.abs(phased.probabilities - real.probabilities).max() <= 1e-12


def test_transmitted_port_keeps_the_bath_photons():
    """tmsv at N_S = 0.1, N_B = 10, eta = 0.5 with the automatic cutoffs:
    eta^2 N_B = 2.5 bath photons leave through the discarded port, and the
    mean of the estimator under H1 is exactly eta for tmsv (it read
    0.49748 while the received state truncated that port)."""
    ns, nb, eta = 0.1, 10.0, 0.5
    state = tmsv(ns, default_cutoff("tmsv", ns))
    d_b = thermal_cutoff(nb, BATH_TAIL)
    obs = sld_observable(state, nb, d_b)
    dist = outcome_distribution(received_state(state, nb, eta, d_b), obs)
    assert abs(dist.mean() - eta) <= 1e-8


@pytest.mark.parametrize("label", ["tmsv", "coherent", "cat:2", "cat:3", "cat:inf",
                                   "maxfock:4"])
def test_bright_bath_received_states_are_cheap(label):
    """At N_B = 50 (N_S = 0.5, eta = 0.1, automatic cutoffs, d_b = 933) the
    received states of both hypotheses take at most 1 s together and peak
    at most 150 MB under tracemalloc.  The time is read untraced, since
    tracemalloc slows numpy's allocations several-fold."""
    nb = 50.0
    state = state_from_family(label, 0.5, default_cutoff(label, 0.5))
    d_b = thermal_cutoff(nb, BATH_TAIL)
    start = time.perf_counter()
    for eta in (0.0, 0.1):
        received_state(state, nb, eta, d_b)
    assert time.perf_counter() - start <= 1.0
    tracemalloc.start()
    try:
        for eta in (0.0, 0.1):
            received_state(state, nb, eta, d_b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 150e6
