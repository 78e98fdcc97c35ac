"""Block-list spectral route against dense oracles built here.

The beamsplitter, the SLD spectrum, the received state, its reflectivity
derivative and the outcome distribution are block lists over sectors of
conserved quantities: the excitation number n_s + n_b, and q = r_a - n_b
(mod g) for a state whose Schmidt vector a lives on the levels r_a
(mod g), with g = 0 (no modulus) when each vector is one Fock level
L_a = r_a.  These tests rebuild each of them densely, with full
Kronecker products, ``scipy.linalg.expm`` and ``np.linalg.eigh`` on the
full matrices, and require the two routes to agree.  The received state
is the one exception: its oracle is the beamsplitter dilation of the
thermal-loss channel, exponentiated one excitation sector at a time so
that its cutoffs can lie far past the returned-mode cutoff, where no
truncation of its own reaches the kept levels.  They also check that the
dense oracles vanish outside the blocks, which the block lists leave
out.
"""

import numpy as np
from dense import annihilation, dense, dense_unitary, lowering_matrix
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from qillum.estimator import (_sectors, eta_derivative, outcome_distribution,
                              received_state, sld_observable)
from qillum.fock import beamsplitter_unitary, group_indices, thermal_weights
from qillum.qfi import BATH_TAIL, default_cutoff, qfi_schmidt, thermal_cutoff
from qillum.states import SchmidtState, schmidt_decompose, state_from_family


def dense_beamsplitter(eta, dim_signal, dim_bath):
    s = annihilation(dim_signal)
    b = annihilation(dim_bath)
    gen = np.kron(s.conj().T, b) - np.kron(s, b.conj().T)
    return expm(np.arcsin(eta) * gen)


def dilation_received(state, n_bath, eta, dim_bath):
    """Tr_S of U (|psi><psi| (x) thermal) U' on the kept returned levels
    n < dim_bath, one thermal input level k at a time.

    The thermal input runs to k < 4 dim_bath + d_s, and U is exponentiated
    whole on each excitation sector |j, N - j>, j = 0..N, that an input
    reaches, so the only cut is the thermal input's tail.  The kept levels
    then move by less than 1e-16 when that cut moves (checked at N_B = 3,
    eta = 0.3 down to dim_bath = 5): losing 4 dim_bath photons into the
    signal port costs a factor eta^(8 dim_bath).
    """
    d_s, r = state.d_signal, state.rank
    bath_levels = 4 * dim_bath + d_s
    top = d_s + bath_levels - 1
    units = []
    for n in range(top):
        j = np.arange(1, n + 1)
        # <j, n - j| s'b - sb' |j - 1, n - j + 1> = sqrt(j (n - j + 1)), antisymmetric
        link = np.sqrt(j) * np.sqrt(n - j + 1)
        units.append(expm(np.arcsin(eta) * (np.diag(link, -1) - np.diag(link, 1))))
    amp = state.vectors * np.sqrt(state.probs)
    rho = np.zeros((r, dim_bath, r, dim_bath), dtype=complex)
    for k, weight in enumerate(thermal_weights(n_bath, bath_levels)):
        psi = np.zeros((r, top, dim_bath), dtype=complex)   # [a, j, n]
        for i in range(d_s):
            n = i + k
            j = np.arange(max(0, n - dim_bath + 1), n + 1)
            psi[:, j, n - j] += np.outer(amp[i], units[n][j, i])
        rho += weight * np.tensordot(psi, psi.conj(), axes=([1], [1]))
    return rho.reshape(r * dim_bath, r * dim_bath)


def dense_sld(state, n_bath, dim_bath):
    """The closed-form SLD divided by H, as two full Kronecker products."""
    p = state.probs
    q = n_bath / (1.0 + n_bath)
    c = np.sqrt(np.outer(p, p)) * lowering_matrix(state) / (p[:, None] + p[None, :] * q)
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
    m = lowering_matrix(state)
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
    # do not depend on how a degenerate eigenspace was split.  A
    # backward-stable eigensolver splits eigenvalues a gap g apart only to
    # an angle of about eps * scale / g, which can move that share of
    # probability across the cut between them, so a cut is held to that
    # bound where it exceeds 1e-12
    merged = np.sort(np.concatenate([values, ref_values]))
    gap = np.diff(merged)
    at = np.flatnonzero(gap > 1e-9 * scale)
    cuts = 0.5 * (merged[at] + merged[at + 1])
    cdf = np.array([probs[values <= c].sum() for c in cuts])
    ref_cdf = np.array([ref_probs[ref_values <= c].sum() for c in cuts])
    bound = np.maximum(1e-12, np.finfo(float).eps * scale / gap[at])
    assert np.all(np.abs(cdf - ref_cdf) <= bound)
    for k in range(1, 5):
        moment = probs @ values ** k
        ref = ref_probs @ ref_values ** k
        assert abs(moment - ref) <= 1e-12 * (ref_probs @ np.abs(ref_values) ** k)


def test_beamsplitter_matches_dense_expm():
    for eta, d_s, d_b in ((0.0, 5, 7), (0.1, 9, 6), (0.7, 6, 11), (1.0, 8, 8), (-0.3, 4, 9),
                          (0.2, 40, 8)):
        u = dense_unitary(beamsplitter_unitary(eta, d_s, d_b), d_s)
        assert np.abs(u - dense_beamsplitter(eta, d_s, d_b)).max() < 1e-12


def gapped_level_state(n_signal, d_signal):
    """Level state on the Fock levels 0, 1, 3, 4: a sector q then holds
    two chains that no SLD or beamsplitter entry couples."""
    levels = np.array([0, 1, 3, 4])
    probs = thermal_weights(n_signal, 5)[levels]
    probs /= probs.sum()
    return SchmidtState(probs, None, d_signal, 0.0, {"family": "gapped"}, levels=levels)


def residue_state(n_signal, d_signal, period):
    """schmidt_decompose of amplitudes on the residues n = k (mod period)
    of idler label k: its vectors keep exact zeros off their residue."""
    amp = np.sqrt(thermal_weights(n_signal, d_signal)) * np.exp(1j * np.arange(d_signal))
    n = np.arange(d_signal)
    matrix = np.zeros((d_signal, period), dtype=complex)
    matrix[n, n % period] = amp
    return schmidt_decompose(matrix / np.linalg.norm(matrix), {"family": "residues"})


def diagonal_state(n_signal, d_signal):
    """schmidt_decompose of a Fock-diagonal amplitude matrix, and its level
    twin, the same weights stored as Fock levels."""
    probs = thermal_weights(n_signal, d_signal)
    probs /= probs.sum()
    twin = SchmidtState(probs, None, d_signal, 0.0, {"family": "twin"},
                        levels=np.arange(d_signal))
    return schmidt_decompose(np.diag(np.sqrt(probs)), {"family": "diagonal"}), twin


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["tmsv", "cat:inf", "maxfock", "coherent", "cat", "gapped",
                               "residues", "diagonal"]),
       n_signal=st.floats(0.05, 2.0),
       n_bath=st.floats(0.1, 3.0),
       eta=st.floats(0.01, 0.3),
       d_signal=st.integers(8, 12),
       dim_bath=st.integers(6, 12),
       order=st.integers(2, 4))
# a signal cutoff far past the bath cutoff: the loss keeps levels that the
# amplifier then pushes past d_b
@example(family="tmsv", n_signal=2.0, n_bath=0.5, eta=0.2, d_signal=24, dim_bath=5, order=2)
@example(family="coherent", n_signal=3.0, n_bath=0.5, eta=0.2, d_signal=24, dim_bath=5, order=2)
# cat:4 at small N_S has outcome pairs +-3e-7 and +-3e-5 (scale 4.8): two
# eigensolvers split their mass differently by up to 1.9e-12, within the
# eps * scale / gap bound of those cuts (1.8e-9 and 3.7e-11)
@example(family="cat", n_signal=0.25, n_bath=1.0, eta=0.25, d_signal=8, dim_bath=10, order=4)
def test_outcome_distributions_match_dense_route(family, n_signal, n_bath, eta,
                                                 d_signal, dim_bath, order):
    if family == "gapped":
        state = gapped_level_state(n_signal, d_signal)
    elif family == "residues":
        state = residue_state(n_signal, d_signal, 2 + order % 2)
    elif family == "diagonal":
        state, _ = diagonal_state(n_signal, d_signal)
    else:
        label = f"{family}:{order}" if family in ("maxfock", "cat") else family
        state = state_from_family(label, n_signal, d_signal)
    obs = sld_observable(state, n_bath, dim_bath)
    ref_obs = dense_sld(state, n_bath, dim_bath)
    dim = len(obs.eigenvalues)
    inside = np.zeros((dim, dim), dtype=bool)
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
        ref_rho = dilation_received(state, n_bath, reflectivity, dim_bath)
        assert np.abs(ref_rho[~inside]).max(initial=0.0) <= 1e-15
        ref_values, ref_probs = dense_outcomes(ref_rho, ref_obs)
        assert_same_distribution(dist.values, dist.probabilities, ref_values, ref_probs)


def level_key_sectors(state, dim_bath):
    """Sectors keyed exactly by q = L_a - n_b of a level state, with no
    modulus, in ascending q: the grouping the support rule must keep."""
    n = np.arange(dim_bath)
    return list(group_indices(np.subtract.outer(state.levels, n)).values())


def assert_same_sectors(sectors, ref):
    assert len(sectors) == len(ref)
    assert all(np.array_equal(rows, ref_rows) for rows, ref_rows in zip(sectors, ref))


def test_sectors_follow_the_support_of_the_vectors():
    d_b = 9
    for label, d_s in (("tmsv", 12), ("cat:inf", 14), ("maxfock:4", 4), ("tmsv", 30)):
        state = state_from_family(label, 1.0, d_s)
        assert_same_sectors(_sectors(state, d_b), level_key_sectors(state, d_b))
    state = gapped_level_state(0.5, 10)
    assert_same_sectors(_sectors(state, d_b), level_key_sectors(state, d_b))
    diagonal, twin = diagonal_state(0.7, 10)
    assert_same_sectors(_sectors(diagonal, d_b), _sectors(twin, d_b))
    coherent = state_from_family("coherent", 1.0, 12)
    assert_same_sectors(_sectors(coherent, d_b), [np.arange(d_b)])
    for d in (2, 3, 4):
        for state in (state_from_family(f"cat:{d}", 1.0, 16), residue_state(1.0, 16, d)):
            sectors = _sectors(state, d_b)
            assert len(sectors) == d
            assert all(len(rows) == d_b for rows in sectors)
            assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(d * d_b))


def test_every_sld_sector_is_a_zero_diagonal_jacobi_matrix():
    # ordered by returned level n, each sector holds one row per n, at
    # consecutive n, and the SLD couples n only to n +- 1
    for family in ("tmsv", "coherent", "cat:2", "cat:3", "cat:inf", "maxfock:4"):
        for n_bath in (0.5, 3.0):
            state = state_from_family(family, 0.5, default_cutoff(family, 0.5))
            dim_bath = thermal_cutoff(n_bath, BATH_TAIL)
            for rows, block in sld_observable(state, n_bath, dim_bath).blocks:
                n = rows % dim_bath
                order = np.argsort(n)
                assert np.array_equal(n[order], n[order][0] + np.arange(len(n))), family
                jacobi = block[np.ix_(order, order)]
                assert np.all(np.diag(jacobi) == 0), family
                assert np.all(np.triu(jacobi, 2) == 0) and np.all(np.tril(jacobi, -2) == 0)
