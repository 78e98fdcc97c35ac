"""Sector-wise spectral route against dense oracles built here.

The beamsplitter, the SLD spectrum, the received state and the outcome
distribution are computed block by block over the exact nonzero pattern
of their matrices.  These tests rebuild each of them densely, with
``scipy.linalg.expm`` and ``np.linalg.eigh`` on the full matrices, and
require the two routes to agree.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qillum.estimator import outcome_distribution, received_state, sld_observable
from qillum.fock import annihilation, beamsplitter_unitary, sectors, thermal_weights
from qillum.states import state_from_family


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


def test_sectors_of_permuted_blocks():
    rng = np.random.default_rng(3)
    blocks = [rng.normal(size=(k, k)) for k in (3, 1, 4)]
    dense = np.zeros((8, 8))
    dense[:3, :3], dense[3:4, 3:4], dense[4:, 4:] = blocks
    perm = rng.permutation(8)
    permuted = dense[np.ix_(perm, perm)]
    found = sorted(sorted(perm[s].tolist()) for s in sectors(permuted))
    assert found == [[0, 1, 2], [3], [4, 5, 6, 7]]
    assert all(np.all(np.diff(s) > 0) for s in sectors(permuted))
    assert [s.tolist() for s in sectors(np.ones((5, 5)))] == [list(range(5))]
    # one-sided entries link their indices too
    assert len(sectors(np.triu(np.ones((4, 4))))) == 1


def test_beamsplitter_matches_dense_expm():
    for eta, d_s, d_b in ((0.0, 5, 7), (0.1, 9, 6), (0.7, 6, 11), (1.0, 8, 8), (-0.3, 4, 9)):
        u = beamsplitter_unitary(eta, d_s, d_b)
        assert np.abs(u - dense_beamsplitter(eta, d_s, d_b)).max() < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["tmsv", "cat:inf", "maxfock", "coherent", "cat:2"]),
       n_signal=st.floats(0.05, 2.0),
       n_bath=st.floats(0.1, 3.0),
       eta=st.floats(0.01, 0.3),
       d_signal=st.integers(8, 12),
       dim_bath=st.integers(6, 12),
       order=st.integers(2, 4))
def test_outcome_distributions_match_dense_route(family, n_signal, n_bath, eta,
                                                 d_signal, dim_bath, order):
    label = f"maxfock:{order}" if family == "maxfock" else family
    state = state_from_family(label, n_signal, d_signal)
    obs = sld_observable(state, n_bath, dim_bath)
    for reflectivity in (0.0, eta):
        rho = received_state(state, n_bath, reflectivity, dim_bath)
        dist = outcome_distribution(rho, obs)
        ref_values, ref_probs = dense_outcomes(
            dense_received(state, n_bath, reflectivity, dim_bath), obs.matrix)
        assert_same_distribution(dist.values, dist.probabilities, ref_values, ref_probs)
