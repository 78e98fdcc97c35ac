"""Block-list spectral route against dense oracles built here.

The beamsplitter, the SLD spectrum, the received state, its reflectivity
derivative and the outcome distribution are block lists over sectors of
conserved quantities: the excitation number n_s + n_b, and q = L_a - n_b
for a state whose Schmidt vectors are Fock levels L_a.  These tests rebuild each of them densely,
with full Kronecker products, ``scipy.linalg.expm`` and
``np.linalg.eigh`` on the full matrices, and require the two routes to
agree.  They also check that the dense oracles vanish outside the
blocks, which the block lists leave out.
"""

import numpy as np
from dense import annihilation, dense
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qillum.estimator import (eta_derivative, outcome_distribution, received_state,
                              sld_observable)
from qillum.fock import beamsplitter_unitary, thermal_weights
from qillum.qfi import qfi_schmidt, signal_lowering_matrix
from qillum.states import SchmidtState, state_from_family


def dense_beamsplitter(eta, dim_signal, dim_bath):
    s = annihilation(dim_signal)
    b = annihilation(dim_bath)
    gen = np.kron(s.conj().T, b) - np.kron(s, b.conj().T)
    return expm(np.arcsin(eta) * gen)


def dense_received(state, n_bath, eta, dim_bath):
    """Tr_S of U (|psi><psi| (x) thermal) U', one bath Fock level at a time."""
    d_s, r = state.d_signal, state.rank
    u = dense_beamsplitter(eta, d_s, dim_bath)
    rho = np.zeros((r, dim_bath, r, dim_bath), dtype=complex)
    for n, weight in enumerate(thermal_weights(n_bath, dim_bath)):
        psi = np.empty((r, d_s, dim_bath), dtype=complex)
        for a in range(r):
            level = np.zeros(dim_bath)
            level[n] = 1.0
            out = u @ np.kron(state.vectors[:, a], level)
            psi[a] = np.sqrt(state.probs[a]) * out.reshape(d_s, dim_bath)
        rho += weight * np.tensordot(psi, psi.conj(), axes=([1], [1]))
    return rho.reshape(r * dim_bath, r * dim_bath)


def dense_sld(state, n_bath, dim_bath):
    """The closed-form SLD divided by H, as two full Kronecker products."""
    p = state.probs
    q = n_bath / (1.0 + n_bath)
    c = np.sqrt(np.outer(p, p)) * signal_lowering_matrix(state) / (p[:, None] + p[None, :] * q)
    b = annihilation(dim_bath)
    obs = np.kron(np.conj(c), b) + np.kron(c.T, b.conj().T)
    return -2.0 / (qfi_schmidt(state, n_bath).h * (1.0 + n_bath)) * obs


def dense_eta_derivative(state, n_bath, dim_bath):
    """The reflectivity derivative of the received state at eta = 0, as
    two full Kronecker products with the commutators [b, rho_B] and
    [b', rho_B]."""
    rho_b = np.diag(thermal_weights(n_bath, dim_bath))
    b = annihilation(dim_bath)
    comm_b = b @ rho_b - rho_b @ b
    comm_bd = b.conj().T @ rho_b - rho_b @ b.conj().T
    m = signal_lowering_matrix(state)
    sp = np.sqrt(state.probs)
    outer = sp[:, None] * sp[None, :]
    return np.kron(outer * np.conj(m), comm_b) - np.kron(outer * m.T, comm_bd)


def dense_outcomes(rho, observable):
    lam, vec = np.linalg.eigh(observable)
    return lam, np.real(np.einsum("ij,ij->j", vec.conj(), rho @ vec))


def assert_same_distribution(values, probs, ref_values, ref_probs):
    scale = np.abs(ref_values).max()
    assert np.abs(np.sort(values) - np.sort(ref_values)).max() <= 1e-12 * scale
    # CDFs compared between clusters of the merged spectrum, where they
    # do not depend on how a degenerate eigenspace was split
    merged = np.sort(np.concatenate([values, ref_values]))
    gaps = np.flatnonzero(np.diff(merged) > 1e-9 * scale)
    cuts = 0.5 * (merged[gaps] + merged[gaps + 1])
    cdf = np.array([probs[values <= c].sum() for c in cuts])
    ref_cdf = np.array([ref_probs[ref_values <= c].sum() for c in cuts])
    assert np.abs(cdf - ref_cdf).max(initial=0.0) <= 1e-12
    for k in range(1, 5):
        moment = probs @ values ** k
        ref = ref_probs @ ref_values ** k
        assert abs(moment - ref) <= 1e-12 * (ref_probs @ np.abs(ref_values) ** k)


def test_beamsplitter_matches_dense_expm():
    for eta, d_s, d_b in ((0.0, 5, 7), (0.1, 9, 6), (0.7, 6, 11), (1.0, 8, 8), (-0.3, 4, 9)):
        u = dense(beamsplitter_unitary(eta, d_s, d_b))
        assert np.abs(u - dense_beamsplitter(eta, d_s, d_b)).max() < 1e-12


def gapped_level_state(n_signal, d_signal):
    """Level state on the Fock levels 0, 1, 3, 4: a sector q then holds
    two chains that no SLD or beamsplitter entry couples."""
    levels = np.array([0, 1, 3, 4])
    probs = thermal_weights(n_signal, 5)[levels]
    probs /= probs.sum()
    return SchmidtState(probs, None, d_signal, 0.0, {"family": "gapped"}, levels=levels)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["tmsv", "cat:inf", "maxfock", "coherent", "cat:2", "gapped"]),
       n_signal=st.floats(0.05, 2.0),
       n_bath=st.floats(0.1, 3.0),
       eta=st.floats(0.01, 0.3),
       d_signal=st.integers(8, 12),
       dim_bath=st.integers(6, 12),
       order=st.integers(2, 4))
def test_outcome_distributions_match_dense_route(family, n_signal, n_bath, eta,
                                                 d_signal, dim_bath, order):
    if family == "gapped":
        state = gapped_level_state(n_signal, d_signal)
    else:
        label = f"maxfock:{order}" if family == "maxfock" else family
        state = state_from_family(label, n_signal, d_signal)
    obs = sld_observable(state, n_bath, dim_bath)
    ref_obs = dense_sld(state, n_bath, dim_bath)
    inside = np.zeros((obs.dim, obs.dim), dtype=bool)
    for rows, _ in obs.blocks:
        inside[np.ix_(rows, rows)] = True
    assert np.abs(ref_obs[~inside]).max(initial=0.0) <= 1e-15
    drho = eta_derivative(state, n_bath, dim_bath)
    assert all(np.array_equal(rows, own) for (rows, _), (own, _) in zip(drho, obs.blocks))
    ref_drho = dense_eta_derivative(state, n_bath, dim_bath)
    assert np.abs(dense(drho) - ref_drho).max() <= 1e-15
    assert np.abs(ref_drho[~inside]).max(initial=0.0) <= 1e-15
    for reflectivity in (0.0, eta):
        rho = received_state(state, n_bath, reflectivity, dim_bath)
        dist = outcome_distribution(rho, obs)
        ref_rho = dense_received(state, n_bath, reflectivity, dim_bath)
        assert np.abs(ref_rho[~inside]).max(initial=0.0) <= 1e-15
        ref_values, ref_probs = dense_outcomes(ref_rho, ref_obs)
        assert_same_distribution(dist.values, dist.probabilities, ref_values, ref_probs)
