"""The two-mode squeezed vacuum maximizes the Fisher information at fixed
signal and bath photon numbers: random transmitters never beat it, the
named families sit between the classical benchmark and it, and its level
distribution is a stationary point of H (the KKT condition)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qillum.qfi import qfi_gaussian_closed, qfi_schmidt
from qillum.states import SchmidtState, state_from_family, tmsv

# H / H_tmsv may exceed 1 only by roundoff: at N_B = 0 every state
# saturates H_Q1 = 4 N_S, as tmsv does
REL_ROUNDOFF = 1e-12
N_BATH = st.floats(0.0, 100.0, allow_nan=False)


def assert_below_tmsv(state, n_bath):
    rep = qfi_schmidt(state, n_bath)
    assert rep.h <= qfi_gaussian_closed(rep.n_signal, n_bath) * (1 + REL_ROUNDOFF)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 24), n_bath=N_BATH)
@example(seed=0, d=24, n_bath=0.0).via("noiseless bath")
@example(seed=1, d=24, n_bath=100.0).via("brightest bath")
def test_random_level_states_never_beat_tmsv(seed, d, n_bath):
    # Dirichlet weights on a random set of Fock levels below d
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.choice(d, rng.integers(1, d + 1), replace=False))
    probs = rng.dirichlet(np.ones(len(levels)))
    assert_below_tmsv(SchmidtState(probs, None, d, 0.0, levels=levels), n_bath)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 24), rank=st.integers(1, 8),
       n_bath=N_BATH)
@example(seed=0, d=24, rank=8, n_bath=0.0).via("noiseless bath")
@example(seed=1, d=24, rank=8, n_bath=100.0).via("brightest bath")
def test_random_general_states_never_beat_tmsv(seed, d, rank, n_bath):
    # orthonormal signal vectors from the QR of a complex Gaussian matrix
    rng = np.random.default_rng(seed)
    rank = min(rank, d)
    gauss = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    vectors, _ = np.linalg.qr(gauss)
    probs = rng.dirichlet(np.ones(rank))
    assert_below_tmsv(SchmidtState(probs, vectors, d, 0.0), n_bath)


@pytest.mark.parametrize("family", ["tmsv", "coherent", "cat:2", "cat:3", "cat:inf",
                                    "maxfock:2", "maxfock:7"])
@pytest.mark.parametrize("n_signal", [0.01, 0.5, 2.0])
@pytest.mark.parametrize("n_bath", [0.0, 0.1, 1.0, 100.0])
def test_named_families_lie_between_classical_and_tmsv(family, n_signal, n_bath):
    rep = qfi_schmidt(state_from_family(family, n_signal, 60), n_bath)
    tmsv_h = qfi_gaussian_closed(rep.n_signal, n_bath)
    assert rep.h <= tmsv_h * (1 + REL_ROUNDOFF)
    assert rep.gain <= tmsv_h / rep.h_c * (1 + REL_ROUNDOFF)
    assert tmsv_h / rep.h_c < 2.0


@pytest.mark.parametrize("n_signal", [0.5, 2.0])
@pytest.mark.parametrize("n_bath", [0.0, 1.0, 100.0])
def test_tmsv_levels_are_stationary(n_signal, n_bath):
    # dH/dp_n = 4 / ((1 + N_B)(1 + q x)^2) [n (1 + q x^2) + q x^2], with
    # x = N_S / (1 + N_S) and q = N_B / (1 + N_B): affine in n, so no
    # reweighting at fixed norm and photon number raises H to first order
    state = tmsv(n_signal, 40)
    x, q = n_signal / (1 + n_signal), n_bath / (1 + n_bath)
    step = 1e-6
    ns = np.arange(11)
    grad = []
    for n in ns:
        h = []
        for sign in (1, -1):
            probs = state.probs.copy()
            probs[n] *= 1 + sign * step
            h.append(qfi_schmidt(SchmidtState(probs, None, state.d_signal, state.deficit,
                                              levels=state.levels), n_bath).h)
        grad.append((h[0] - h[1]) / (2 * step * state.probs[n]))
    exact = 4 / ((1 + n_bath) * (1 + q * x) ** 2) * (ns * (1 + q * x * x) + q * x * x)
    np.testing.assert_allclose(grad, exact, rtol=1e-5, atol=1e-8)
