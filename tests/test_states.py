"""Schmidt-form transmitter constructors."""

import math

import numpy as np
import pytest

from qillum.states import (SchmidtState, cat_idler_eigenvalues, cat_state,
                           cat_state_infinite_d, coherent, coherent_amplitudes,
                           max_entangled_fock, schmidt_decompose,
                           state_from_family, tmsv)


def poisson_pmf(mean, n):
    return math.exp(-mean) * mean ** n / math.factorial(n)


def test_tmsv_vacuum():
    st = tmsv(0.0, 10)
    assert st.rank == 1
    assert st.probs[0] == 1.0
    assert np.array_equal(st.vectors[:, 0], np.eye(10)[:, 0])


def test_tmsv_hand_probabilities():
    st = tmsv(1.0, 3)
    assert np.allclose(st.probs, [0.5, 0.25, 0.125])


def test_tmsv_mean_photons_within_tail():
    st = tmsv(0.5, 40)
    # enumeration oracle: everything from the state's rank up is dropped
    # (geometric decay, so pruning removes exactly the top levels)
    p = [0.5 ** n / 1.5 ** (n + 1) for n in range(400)]
    tail_mean = sum(n * p[n] for n in range(st.rank, 400))
    tail_mass = sum(p[n] for n in range(st.rank, 400))
    assert abs(st.mean_photons() - 0.5) <= tail_mean + 1e-15
    assert st.deficit == pytest.approx(tail_mass, rel=1e-6)


def test_tmsv_validates():
    tmsv(0.5, 40).validate()


def test_coherent_vacuum():
    st = coherent(0.0, 0.0, 8)
    assert st.rank == 1
    assert st.probs[0] == 1.0
    assert st.vectors[0, 0] == pytest.approx(1.0)


def test_coherent_is_lowering_eigenvector():
    st = coherent(1.0, 0.7, 30)
    from qillum.fock import annihilation

    w = st.vectors[:, 0]
    m = w.conj() @ annihilation(30) @ w
    alpha = np.sqrt(1.0) * np.exp(0.7j)
    assert abs(m - alpha) < 1e-12


def test_coherent_truncated_norm_is_poisson_cdf():
    st = coherent(1.0, 0.0, 6)
    norm2 = float(np.sum(np.abs(st.vectors[:, 0]) ** 2))
    cdf = sum(poisson_pmf(1.0, n) for n in range(6))
    assert norm2 == pytest.approx(cdf, rel=1e-12)
    assert st.deficit == pytest.approx(1.0 - cdf, rel=1e-9)


def test_max_entangled_fock_cases():
    st1 = max_entangled_fock(1)
    assert st1.rank == 1 and st1.mean_photons() == 0.0
    st2 = max_entangled_fock(2)
    assert np.allclose(st2.probs, [0.5, 0.5])
    assert st2.mean_photons() == pytest.approx(0.5)
    assert max_entangled_fock(5).mean_photons() == pytest.approx(2.0)


def test_cat_degenerates_to_vacuum():
    st = cat_state(0.0, 3, 10)
    assert st.rank == 1
    assert abs(abs(st.vectors[0, 0]) - 1.0) < 1e-12


def test_cat_d2_eigenvalues_overlap_formula():
    for ns in (0.05, 0.4, 2.0):
        lam = cat_idler_eigenvalues(ns, 2)
        k = np.exp(-2.0 * ns)
        assert lam[0] == pytest.approx((1 + k) / 2, rel=1e-12)
        assert lam[1] == pytest.approx((1 - k) / 2, rel=1e-12)


def test_cat_vectors_orthonormal():
    st = cat_state(1.0, 4, 40)
    gram = st.vectors.conj().T @ st.vectors
    assert np.abs(gram - np.eye(st.rank)).max() < 1e-9
    st.validate()


def test_cat_mean_photons():
    st = cat_state(0.7, 3, 30)
    assert st.mean_photons() == pytest.approx(0.7, abs=1e-9)


def test_cat_matches_svd_of_amplitude_matrix():
    d, ns, dim = 4, 1.0, 40
    cols = [coherent_amplitudes(np.sqrt(ns) * np.exp(2j * np.pi * k / d), dim)
            for k in range(d)]
    amp = np.column_stack(cols) / np.sqrt(d)
    sd = schmidt_decompose(amp)
    cs = cat_state(ns, d, dim)
    a = np.sort(sd.probs)[::-1]
    b = np.sort(cs.probs)[::-1]
    assert np.abs(a - b[: len(a)]).max() < 1e-9


def test_cat_converges_to_infinite_d():
    ns = 1.0
    lam = np.sort(cat_idler_eigenvalues(ns, 32))[::-1]
    pois = np.sort([poisson_pmf(ns, n) for n in range(32)])[::-1]
    assert np.abs(lam - pois).max() < 1e-12


def test_cat_infinite_d_poisson():
    st = cat_state_infinite_d(1.0, 12)
    assert st.probs[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert st.probs[1] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert st.probs[2] == pytest.approx(math.exp(-1.0) / 2, rel=1e-12)
    assert np.allclose(st.vectors, np.eye(12))


def test_cat_infinite_d_vacuum_and_mean():
    assert cat_state_infinite_d(0.0, 5).rank == 1
    st = cat_state_infinite_d(0.8, 40)
    assert st.mean_photons() == pytest.approx(0.8, abs=1e-10)


def test_fock_basis_families_have_theorem_form():
    # geometric and Poisson families must come out over the plain Fock basis
    for st in (tmsv(0.6, 25), cat_state_infinite_d(0.6, 25)):
        assert np.allclose(st.vectors, np.eye(25)[:, : st.rank])


def test_level_state_contract():
    st = tmsv(0.6, 25)
    assert np.array_equal(st.levels, np.arange(st.rank)) and st.columns is None
    # cat:inf prunes level 0 from N_S = 33 on, so its kept levels start above 0
    assert cat_state_infinite_d(35.0, 120).levels[0] > 0
    p = np.array([0.5, 0.5])
    for columns, levels in ((None, None), (np.eye(3)[:, :2], [0, 1]), (None, [1, 0]),
                            (None, [0, 3]), (None, [-1, 0]), (None, [0])):
        with pytest.raises(ValueError):
            SchmidtState(p, columns, 3, 0.0, levels=levels)


def test_schmidt_decompose_product_state():
    amp = np.outer([1.0, 0.0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    sd = schmidt_decompose(amp)
    assert sd.rank == 1
    assert sd.probs[0] == pytest.approx(1.0)


def test_schmidt_decompose_bell():
    amp = np.diag([1 / np.sqrt(2), 1 / np.sqrt(2)])
    sd = schmidt_decompose(amp)
    assert np.allclose(sd.probs, [0.5, 0.5])


def test_schmidt_decompose_rejects_unnormalized():
    with pytest.raises(ValueError):
        schmidt_decompose(np.eye(2))


def test_schmidt_decompose_sorted_descending():
    rng = np.random.default_rng(8)
    amp = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    amp /= np.linalg.norm(amp)
    sd = schmidt_decompose(amp)
    assert np.all(np.diff(sd.probs) <= 0)


def test_state_from_family_labels():
    assert state_from_family("tmsv", 0.5, 20).meta["family"] == "tmsv"
    assert state_from_family("coherent", 0.5, 20).meta["family"] == "coherent"
    assert state_from_family("cat:3", 0.5, 20).meta["d"] == 3
    assert state_from_family("cat:inf", 0.5, 20).meta["family"] == "cat_inf"
    assert state_from_family("maxfock:4", 0.0, 20).rank == 4
    for bad in ("squeezed", "cat:x", "cat:", "maxfock:inf", "tmsv:2", 2):
        with pytest.raises(ValueError, match="unknown family"):
            state_from_family(bad, 0.5, 20)


def test_constructor_rejects_a_state_without_terms():
    # every Poisson weight of cat:inf at N_S = 100 lies below the pruning
    # threshold at cutoffs 16 and 32
    for d_signal in (16, 32):
        with pytest.raises(ValueError, match="no Schmidt term"):
            cat_state_infinite_d(100.0, d_signal)
    assert cat_state_infinite_d(100.0, 64).rank > 0
    for fn in (lambda: tmsv(0.5, 0),
               lambda: SchmidtState(np.empty(0), None, 5, 1.0, levels=[])):
        with pytest.raises(ValueError, match="no Schmidt term"):
            fn()


def test_constructor_rejects_negative_photons():
    for fn in (lambda: tmsv(-0.1, 5), lambda: coherent(-1.0, 0.0, 5),
               lambda: cat_state(-0.5, 2, 5), lambda: cat_state_infinite_d(-2.0, 5)):
        with pytest.raises(ValueError):
            fn()
