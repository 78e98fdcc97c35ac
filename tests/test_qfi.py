"""Fisher-information formulas, bounds, and cross-route validation."""

import math
import tracemalloc

import numpy as np
import pytest
from dense import annihilation, dense, lowering_matrix
from hypothesis import example, given, settings, strategies as st

from qillum.estimator import eta_derivative, signal_antinormal_moments
from qillum.fock import thermal_weights
from qillum.qfi import (BATH_TAIL, MAX_CUTOFF, SIGNAL_TAIL, ConvergenceError,
                        converge_cutoff, default_cutoff, qfi_bounds, qfi_cat_direct,
                        qfi_gaussian_closed, qfi_schmidt, thermal_cutoff)
from qillum.states import (SchmidtState, cat_state, cat_state_infinite_d,
                           coherent, max_entangled_fock, schmidt_decompose,
                           state_from_family, tmsv)

NS_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
NB_GRID = (0.1, 1.0, 10.0, 50.0, 100.0)


def qfi_numerical(state, n_bath, dim_bath, pair_floor=1e-12):
    """Fisher information through the eigendecomposition definition, the
    oracle for the pair sum of :func:`qfi_schmidt`.

    Builds the zero-reflectivity received state on a concrete
    (idler-rank x bath) space together with the reflectivity derivative,
    then evaluates 2 sum |<m|drho|n>|^2 / (lam_m + lam_n), skipping pairs
    whose eigenvalue sum is below ``pair_floor``.
    """
    drho = dense(eta_derivative(state, n_bath, dim_bath))
    rho0 = np.kron(np.diag(state.probs), np.diag(thermal_weights(n_bath, dim_bath)))
    lam, vec = np.linalg.eigh(rho0)
    m = vec.conj().T @ drho @ vec
    pair = lam[:, None] + lam[None, :]
    mask = pair > pair_floor
    return 2.0 * float(np.sum(np.abs(m[mask]) ** 2 / pair[mask]))


def test_vacuum_has_zero_information():
    assert qfi_schmidt(tmsv(0.0, 8), 3.0).h == 0.0


def test_coherent_hand_value():
    rep = qfi_schmidt(coherent(1.0, 0.0, 40), 50.0)
    assert rep.h == pytest.approx(4.0 / 101.0, rel=1e-12)
    assert rep.h == pytest.approx(rep.h_c, rel=1e-10)


def test_maxfock_closed_form_any_bath():
    for d in (2, 5, 9):
        st = max_entangled_fock(d)
        ns = (d - 1) / 2.0
        for nb in NB_GRID:
            rep = qfi_schmidt(st, nb)
            assert rep.h == pytest.approx(4.0 * ns / (1.0 + 2.0 * nb), abs=1e-12)


def test_gaussian_closed_values():
    assert qfi_gaussian_closed(0.0, 7.0) == 0.0
    assert qfi_gaussian_closed(1.0, 50.0) == pytest.approx(1.0 / 19.0, rel=1e-14)
    assert qfi_gaussian_closed(0.7, 0.0) == pytest.approx(4 * 0.7, rel=1e-14)
    assert qfi_gaussian_closed(0.7, 0.0) == pytest.approx(qfi_bounds(0.7, 0.0)[0])


def test_bounds_values():
    assert qfi_bounds(0.0, 3.0)[0] == 0.0
    assert qfi_bounds(0.0, 3.0)[2] == 0.0
    h_q1, h_q2, h_c = qfi_bounds(1.0, 50.0)
    assert h_q1 == pytest.approx(4.0 / 51.0)
    assert h_q2 == pytest.approx(3.0 / 50.0)
    assert h_c == pytest.approx(4.0 / 101.0)
    assert math.isinf(qfi_bounds(1.0, 0.0)[1])


def test_gain_cap_is_algebraic():
    for nb in NB_GRID:
        h_q1, _, h_c = qfi_bounds(1.0, nb)
        assert h_q1 / h_c == pytest.approx((1 + 2 * nb) / (1 + nb), rel=1e-12)
        assert h_q1 / h_c <= 2.0


def test_schmidt_below_bound_on_grid():
    for ns in NS_GRID:
        for nb in NB_GRID:
            for st in (tmsv(ns, 60), cat_state(ns, 2, 50),
                       cat_state_infinite_d(ns, 70)):
                rep = qfi_schmidt(st, nb)
                assert rep.h <= rep.h_q + 1e-9


def test_tmsv_gain_formula_left_edge():
    # gain = (1+2NB)/(1+NB) / (1 + NS NB / ((1+NS)(1+NB)))
    rep = qfi_schmidt(tmsv(1e-4, 12), 50.0)
    assert rep.gain == pytest.approx(101.0 / 51.0, abs=1e-3)
    gain_exact = (101.0 / 51.0) / (1 + 1e-4 * 50 / (1.0001 * 51))
    assert rep.gain == pytest.approx(gain_exact, rel=1e-9)


def test_schmidt_invariant_under_permutation_and_phase():
    rng = np.random.default_rng(3)
    st = tmsv(0.7, 30)
    h0 = qfi_schmidt(st, 2.0).h
    perm = rng.permutation(st.rank)
    st_p = SchmidtState(st.probs[perm], st.vectors[:, perm], st.d_signal,
                        st.deficit, st.meta)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, st.rank))
    st_f = SchmidtState(st.probs, st.vectors * phases[None, :], st.d_signal,
                        st.deficit, st.meta)
    assert qfi_schmidt(st_p, 2.0).h == pytest.approx(h0, rel=1e-12)
    assert qfi_schmidt(st_f, 2.0).h == pytest.approx(h0, rel=1e-12)


def test_numerical_matches_schmidt():
    st = tmsv(0.5, 12)
    h_num = qfi_numerical(st, 1.0, 40)
    h_sch = qfi_schmidt(st, 1.0).h
    assert abs(h_num - h_sch) < 1e-6


def test_numerical_matches_closed_form_within_tail():
    ns, rank = 0.5, 12
    st = tmsv(ns, rank)
    h_num = qfi_numerical(st, 1.0, 40)
    ref = qfi_gaussian_closed(ns, 1.0)
    # every dropped Schmidt pair contributes at most 4 n p_n / (1+NB)
    q = ns / (1 + ns)
    tail = sum(4 * n * q ** n / (1 + ns) / 2.0 for n in range(rank, 300))
    assert abs(h_num - ref) <= tail


def test_numerical_coherent_reproduces_classical():
    st = coherent(0.5, 0.3, 30)
    h_num = qfi_numerical(st, 1.0, 40)
    assert abs(h_num - 4 * 0.5 / 3.0) < 1e-6


def explicit_columns(state, perm):
    """The level state ``state`` with its terms reordered by ``perm`` and its
    unit columns given explicitly, so that it takes the general route."""
    columns = np.eye(state.d_signal, dtype=np.complex128)[:, state.levels[perm]]
    return SchmidtState(state.probs[perm], columns, state.d_signal, state.deficit, state.meta)


def assert_close(value, ref, rel=1e-13):
    assert np.abs(np.asarray(value) - ref).max() <= rel * np.abs(ref).max()


def assert_routes_agree(state, n_bath, dim_bath, perm):
    """Level route of ``state`` against its explicit columns, reordered by ``perm``."""
    general = explicit_columns(state, perm)
    assert_close(qfi_schmidt(state, n_bath).h, qfi_schmidt(general, n_bath).h)
    assert_close(state.mean_photons(), general.mean_photons())
    assert_close(lowering_matrix(state)[np.ix_(perm, perm)], lowering_matrix(general))
    joint = (perm[:, None] * dim_bath + np.arange(dim_bath)).ravel()
    assert_close(dense(eta_derivative(state, n_bath, dim_bath))[np.ix_(joint, joint)],
                 dense(eta_derivative(general, n_bath, dim_bath)))
    assert_close(signal_antinormal_moments(state, 3), signal_antinormal_moments(general, 3))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["tmsv", "cat:inf", "maxfock"]),
       n_signal=st.floats(0.01, 40.0),
       n_bath=st.floats(0.0, 100.0),
       headroom=st.integers(2, 120),
       order=st.integers(2, 12),
       dim_bath=st.integers(2, 4),
       seed=st.integers(0, 2 ** 16))
@example(family="cat:inf", n_signal=35.0, n_bath=50.0, headroom=80, order=2,
         dim_bath=3, seed=1)
def test_level_route_matches_explicit_columns(family, n_signal, n_bath, headroom,
                                              order, dim_bath, seed):
    label = f"maxfock:{order}" if family == "maxfock" else family
    d_signal = int(n_signal) + headroom
    state = state_from_family(label, n_signal, d_signal)
    assert state.levels is not None
    rng = np.random.default_rng(seed)
    assert_routes_agree(state, n_bath, dim_bath, rng.permutation(state.rank))
    # dropped terms leave gaps between the kept levels
    keep = rng.random(state.rank) < 0.7
    keep[0] = True
    gapped = SchmidtState(state.probs[keep], None, state.d_signal, state.deficit,
                          state.meta, levels=state.levels[keep])
    assert_routes_agree(gapped, n_bath, dim_bath, rng.permutation(gapped.rank))

    rep = qfi_schmidt(state, n_bath)
    assert rep.h <= rep.h_q * (1.0 + 1e-12)
    assert rep.gain <= 2.0
    if family != "maxfock":
        wider = qfi_schmidt(state_from_family(label, n_signal, 2 * d_signal), n_bath)
        assert wider.h >= rep.h * (1.0 - 1e-15)

    assert np.array_equal(state.vectors, np.eye(state.d_signal)[:, state.levels])


def test_sliced_ladder_matches_dense_annihilation():
    rng = np.random.default_rng(5)
    amp = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    for state in (coherent(1.3, 0.4, 30), cat_state(2.0, 3, 30),
                  schmidt_decompose(amp / np.linalg.norm(amp))):
        v, d = state.vectors, state.d_signal
        a = annihilation(d + 3)
        assert_close(lowering_matrix(state), v.conj().T @ a[:d, :d] @ v)
        lowered = a[:d, :d] @ v
        assert_close(state.mean_photons(),
                     np.sum(state.probs * np.sum(np.abs(lowered) ** 2, axis=0)))
        raised = np.vstack([v, np.zeros((3, state.rank))])
        moments = []
        for _ in range(3):
            raised = a.conj().T @ raised
            moments.append(np.sum(state.probs * np.sum(np.abs(raised) ** 2, axis=0)))
        assert_close(signal_antinormal_moments(state, 3), moments)


def test_level_state_qfi_allocates_no_dense_matrix():
    tracemalloc.start()
    try:
        rep = qfi_schmidt(tmsv(30.0, 4096), 50.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rep.h == pytest.approx(qfi_gaussian_closed(30.0, 50.0), rel=1e-10)


def _cutoff_or_inf(rule, *args):
    try:
        return rule(*args)
    except ConvergenceError:
        return math.inf


def test_derived_cutoffs_over_photon_numbers():
    """The cutoff rules are the only route to a cutoff.  Over N drawn
    log-uniform in [1e-320, 1e4], thermal_cutoff is an int in [16,
    MAX_CUTOFF] or a ConvergenceError, nondecreasing in N, and leaves the
    geometric tail (N/(1+N))^(c-2) below its target; default_cutoff is
    nondecreasing in N_S for every family with a photon-number rule."""
    rng = np.random.default_rng(27)
    edges = [1e-320, 2.0 ** -53, math.nextafter(2.0 ** -53, 1.0), 1e4]
    ns = sorted([*map(float, 10.0 ** rng.uniform(-320.0, 4.0, 2000)), *edges])
    for tail in (SIGNAL_TAIL, BATH_TAIL):
        cutoffs = [_cutoff_or_inf(thermal_cutoff, n, tail) for n in ns]
        for n, c in zip(ns, cutoffs):
            if c == math.inf:
                continue
            assert type(c) is int and 16 <= c <= MAX_CUTOFF, (n, c)
            # the slack covers the roundoff of the rule's two logs
            assert (n / (1.0 + n)) ** (c - 2) <= tail * (1.0 + 1e-9), (n, c)
        assert all(a <= b for a, b in zip(cutoffs, cutoffs[1:])), tail
        assert cutoffs[0] == 16 and cutoffs[-1] == math.inf
    for family in ("tmsv", "coherent", "cat:2", "cat:inf"):
        cutoffs = [_cutoff_or_inf(default_cutoff, family, n) for n in ns]
        assert all(a <= b for a, b in zip(cutoffs, cutoffs[1:])), family


def test_converge_cutoff_constant():
    val, cutoff = converge_cutoff(lambda d: 1.0, rel_tol=1e-6, start=8)
    assert val == 1.0
    assert cutoff == 16


def test_converge_cutoff_geometric_tail():
    val, cutoff = converge_cutoff(lambda d: 1.0 - 2.0 ** (-d), rel_tol=1e-6, start=8)
    assert val == pytest.approx(1.0, abs=1e-6)
    assert 2.0 ** (-cutoff / 2) < 1e-6


def test_converge_cutoff_cat_run():
    val, cutoff = converge_cutoff(
        lambda dim: qfi_cat_direct(1.0, 2, 50.0, dim),
        rel_tol=1e-6, start=64)
    assert val == pytest.approx(qfi_schmidt(cat_state(1.0, 2, 40), 50.0).h, rel=1e-4)
    assert cutoff < MAX_CUTOFF


def test_converge_cutoff_exhaustion():
    with pytest.raises(ConvergenceError):
        converge_cutoff(lambda d: math.log(d), rel_tol=1e-12, start=8)


def test_converge_cutoff_clamps_the_last_doubling():
    seen = []

    def never(d):
        seen.append(d)
        return float(len(seen))

    with pytest.raises(ConvergenceError):
        converge_cutoff(never, rel_tol=1e-6, start=6000)
    assert seen == [6000, 12000, 24000, MAX_CUTOFF]
    seen.clear()
    with pytest.raises(ConvergenceError):
        converge_cutoff(never, rel_tol=1e-6, start=MAX_CUTOFF + 1)
    assert seen == [MAX_CUTOFF]


def test_report_serialization():
    rep = qfi_schmidt(tmsv(1.0, 40), 50.0)
    payload = rep.to_json_dict()
    assert payload["family"] == "tmsv"
    assert payload["H"] == pytest.approx(1.0 / 19.0, rel=1e-9)


def test_report_infinite_bound_serializes():
    rep = qfi_schmidt(tmsv(1.0, 40), 0.0)
    assert rep.to_json_dict()["H_Q2"] is None
    assert math.isinf(rep.h_q2)
