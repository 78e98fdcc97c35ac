"""Fisher-information formulas, bounds, and cross-route validation."""

import math

import numpy as np
import pytest

from qillum.qfi import (ConvergenceError, converge_cutoff, qfi_bounds,
                        qfi_cat_direct, qfi_gaussian_closed, qfi_numerical,
                        qfi_schmidt)
from qillum.states import (SchmidtState, cat_state, cat_state_infinite_d,
                           coherent, max_entangled_fock, tmsv)

NS_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
NB_GRID = (0.1, 1.0, 10.0, 50.0, 100.0)


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


def test_numerical_dimension_guard():
    with pytest.raises(Exception):
        qfi_numerical(tmsv(0.5, 30), 1.0, 2000, max_dim=1000)


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
        rel_tol=1e-6, max_cutoff=1 << 15, start=64)
    assert val == pytest.approx(qfi_schmidt(cat_state(1.0, 2, 40), 50.0).h, rel=1e-4)
    assert cutoff < 1 << 15


def test_converge_cutoff_exhaustion():
    with pytest.raises(ConvergenceError):
        converge_cutoff(lambda d: math.log(d), rel_tol=1e-12, max_cutoff=64, start=8)


def test_report_serialization():
    rep = qfi_schmidt(tmsv(1.0, 40), 50.0)
    payload = rep.to_json_dict()
    assert payload["family"] == "tmsv"
    assert payload["H"] == pytest.approx(1.0 / 19.0, rel=1e-9)
    row = rep.to_csv_row()
    assert row.startswith("tmsv,")
    assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))


def test_report_infinite_bound_serializes():
    rep = qfi_schmidt(tmsv(1.0, 40), 0.0)
    assert rep.to_json_dict()["H_Q2"] is None
    assert math.isinf(rep.h_q2)
