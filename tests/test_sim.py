"""Detection-protocol Monte Carlo and exponent extraction."""

import functools
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.random import Generator, Philox

from qillum.qfi import qfi_bounds, qfi_gaussian_closed
from qillum.sim import (GUIDE_SIZE, MIN_ERROR_EVENTS, SAMPLE_CHUNK, ErrorReport,
                        ProtocolConfig, UnresolvedStatisticsError, _guide_table,
                        classical_error_closed, gaussian_rate_fit,
                        prepare_distributions, run_protocol, sample_means,
                        wilson_interval, xi_sweep)

GRID = 1 << 20  # probabilities on a 2^-20 grid keep every CDF entry exact


def searchsorted_sample_means(values, probabilities, m, trials, seed, stream):
    """Oracle: the plain binary-search inverse-CDF sampler, one full
    chunk of uniforms per SAMPLE_CHUNK trials."""
    order = np.argsort(values)
    vals = values[order]
    cdf = np.cumsum(probabilities[order])
    cdf /= cdf[-1]
    out = np.empty(trials)
    for start in range(0, trials, SAMPLE_CHUNK):
        take = min(SAMPLE_CHUNK, trials - start)
        bg = Philox(counter=[0, start // SAMPLE_CHUNK, 0, 0],
                    key=[seed & 0xFFFFFFFFFFFFFFFF, stream])
        u = Generator(bg).random((SAMPLE_CHUNK, m))
        idx = np.searchsorted(cdf, u[:take], side="right")
        np.clip(idx, 0, len(vals) - 1, out=idx)
        out[start:start + take] = vals[idx].mean(axis=1)
    return out


@st.composite
def outcome_distributions(draw):
    """Values with repeats; probabilities either arbitrary nonnegative
    floats or CDF steps on a 2^-20 grid, some snapped to the guide-table
    bucket edges k / GUIDE_SIZE, repeated steps giving zero-probability
    outcomes and a lone step a point mass."""
    n = draw(st.integers(1, 40))
    values = np.array(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.5]),
                                    min_size=n, max_size=n)))
    if draw(st.booleans()):
        probs = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                                       min_size=n, max_size=n)))
        assume(probs.sum() > 0)
        return values, probs
    edge = st.integers(0, GUIDE_SIZE).map(lambda k: k * (GRID // GUIDE_SIZE))
    steps = draw(st.lists(st.one_of(st.integers(0, GRID), edge, st.sampled_from([0, GRID])),
                          min_size=n - 1, max_size=n - 1))
    cdf = np.array(sorted(steps) + [GRID]) / GRID
    probs = np.empty(n)
    probs[np.argsort(values)] = np.diff(cdf, prepend=0.0)
    return values, probs


@pytest.fixture(scope="module")
def coherent_setup():
    cfg = ProtocolConfig(family="coherent", n_signal=0.5, n_bath=1.0, eta=0.1,
                         xi=0.5, trials=20000, seed=5, m_copies=300)
    return cfg, prepare_distributions(cfg)


def test_bright_tmsv_keeps_its_tail():
    # the transmitter rule keeps the geometric tail below 1e-12 at N_S = 5;
    # weighted by levels up to the cutoff 154, it moves H by 2e-11
    cfg = ProtocolConfig(family="tmsv", n_signal=5.0, n_bath=1.0)
    dists = prepare_distributions(cfg)
    assert dists.state.deficit <= 1e-12
    assert dists.h == pytest.approx(qfi_gaussian_closed(5.0, 1.0), rel=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(xi=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(trials=0)
    with pytest.raises(ValueError):
        ProtocolConfig(prior_absent=0.7, prior_present=0.7)
    with pytest.raises(ValueError):
        ProtocolConfig(eta=-0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(eta=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(n_signal=-0.5)
    with pytest.raises(ValueError):
        ProtocolConfig(n_bath=-1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(family="cat:x")
    for bad in (dict(d_signal=0), dict(family="coherent", d_signal=-3),
                dict(dim_bath=1), dict(dim_bath=0)):
        with pytest.raises(ValueError, match="cutoff"):
            ProtocolConfig(**bad)
    for bad in (dict(n_signal=math.nan), dict(n_bath=math.inf), dict(eta=math.nan),
                dict(family="coherent", phase=math.nan), dict(phase=-math.inf),
                dict(prior_absent=math.nan), dict(prior_present=math.nan),
                dict(prior_absent=math.inf, prior_present=-math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ProtocolConfig(**bad)
    # constructor only: an infinite cap would double trials without bound
    for bad in (dict(trials_cap_factor=math.inf), dict(trials_cap_factor=0),
                dict(trials_cap_factor=2.5), dict(trials=2.5), dict(trials=1e5),
                dict(trials=-3), dict(m_copies=0), dict(m_copies=50.9),
                dict(trials=True)):
        with pytest.raises(ValueError, match="integers >= 1"):
            ProtocolConfig(**bad)
    assert ProtocolConfig(trials=1, trials_cap_factor=1).trials_cap_factor == 1
    assert ProtocolConfig(eta=1.0).eta == 1.0
    assert ProtocolConfig(d_signal=1, dim_bath=2).dim_bath == 2


def test_config_json_roundtrip():
    # a simulate config file holds the dataclass fields as JSON keys
    cfg = ProtocolConfig(family="cat:2", n_signal=0.3, seed=99, d_signal=20)
    clone = ProtocolConfig(**json.loads(json.dumps(asdict(cfg))))
    assert clone == cfg


def test_wilson_interval_basics():
    lo, hi = wilson_interval(5, 100)
    assert 0.0 <= lo <= 0.05 <= hi <= 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 < 1e-12 and hi0 > 0.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_classical_error_zero_reflectivity():
    p1, p2, _ = classical_error_closed(0.5, 1.0, 0.0, 100, 0.5)
    assert p1 == pytest.approx(0.5)
    assert p2 == pytest.approx(0.5)


def test_classical_error_vanishes_with_copies():
    p1, p2, pr = classical_error_closed(0.5, 1.0, 0.1, 10 ** 7, 0.5)
    assert p1 < 1e-10 and p2 < 1e-10 and pr < 1e-10


def test_classical_optimal_exponent_bright_bath():
    # (sqrt(NB+1) - sqrt(NB))^2 -> 1/(4 NB) for bright baths
    nb = 1e6
    factor = (math.sqrt(nb + 1) - math.sqrt(nb)) ** 2
    assert factor == pytest.approx(1.0 / (4 * nb), rel=1e-6)
    _, _, pr = classical_error_closed(0.5, nb, 0.1, 1000, 0.5)
    assert -math.log(pr) == pytest.approx(1000 * 0.1 ** 2 * 0.5 / (4 * nb), rel=1e-6)


def test_gaussian_rate_fit_recovers_erfc_form():
    from scipy.special import erfc

    ms = np.array([200, 500, 1000, 2000])
    rate = 8.333e-4
    ps = 0.5 * erfc(np.sqrt(rate * ms))
    fit, _ = gaussian_rate_fit(ms, ps)
    assert fit == pytest.approx(rate, rel=1e-10)


def test_gaussian_rate_fit_guards():
    with pytest.raises(UnresolvedStatisticsError):
        gaussian_rate_fit([100, 200], [0.6, 0.1])


def test_sample_means_deterministic():
    values = np.array([-1.0, 0.0, 2.0])
    probs = np.array([0.25, 0.5, 0.25])
    a = sample_means(values, probs, 7, 5000, seed=42, stream=3)
    b = sample_means(values, probs, 7, 5000, seed=42, stream=3)
    assert np.array_equal(a, b)
    c = sample_means(values, probs, 7, 5000, seed=43, stream=3)
    assert not np.array_equal(a, c)


def test_sample_means_extension_preserves_prefix():
    values = np.array([0.0, 1.0])
    probs = np.array([0.5, 0.5])
    short = sample_means(values, probs, 3, 6000, seed=1, stream=0)
    long = sample_means(values, probs, 3, 12000, seed=1, stream=0)
    assert np.array_equal(short, long[:6000])


def test_sample_means_point_mass():
    out = sample_means(np.array([1.5]), np.array([1.0]), 4, 100, seed=0, stream=0)
    assert np.all(out == 1.5)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dist=outcome_distributions(), m=st.sampled_from([1, 7, 300]),
       size=st.floats(0.0, 1.0), split=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 40), stream=st.integers(0, 4001))
def test_sample_means_matches_binary_search_oracle(dist, m, size, split, seed, stream):
    values, probs = dist
    # up to two chunk boundaries, fewer at m = 300 to bound the run time
    trials = 1 + int(size * (SAMPLE_CHUNK + 50 if m == 300 else 2 * SAMPLE_CHUNK + 50))
    expected = searchsorted_sample_means(values, probs, m, trials, seed, stream)
    assert np.array_equal(sample_means(values, probs, m, trials, seed, stream), expected)
    head = int(split * trials)
    parts = [sample_means(values, probs, m, head, seed, stream),
             sample_means(values, probs, m, trials - head, seed, stream, first=head)]
    assert np.array_equal(np.concatenate(parts), expected)


def test_guide_table_sized_to_the_outcomes():
    # the smallest power of two with four buckets per outcome, at least GUIDE_SIZE
    for n, size in ((1, GUIDE_SIZE), (4096, GUIDE_SIZE), (4097, 2 * GUIDE_SIZE),
                    (21459, 8 * GUIDE_SIZE)):
        cdf = np.arange(1, n + 1) / n
        assert len(_guide_table(np.arange(n, dtype=float), cdf)) == size


def test_sample_means_many_outcomes_match_binary_search_oracle():
    # 5000 outcomes take a 2^15-bucket guide table
    rng = np.random.default_rng(3)
    values = rng.normal(size=5000)
    probs = rng.random(5000)
    expected = searchsorted_sample_means(values, probs, 7, 5000, 8, 1)
    assert np.array_equal(sample_means(values, probs, 7, 5000, seed=8, stream=1), expected)


def test_sample_means_ignores_outcome_order():
    # outcome distributions list their outcomes in block order, an
    # implementation detail: for distinct values any joint permutation of
    # (values, probabilities) draws the same means, bit for bit
    rng = np.random.default_rng(5)
    values = rng.normal(size=3000)
    probs = rng.random(3000)
    assert len(np.unique(values)) == len(values)
    expected = sample_means(values, probs, 7, 3000, seed=6, stream=3)
    for perm in (np.argsort(values), np.argsort(values)[::-1], rng.permutation(3000)):
        assert np.array_equal(sample_means(values[perm], probs[perm], 7, 3000, seed=6,
                                           stream=3), expected)


def test_sample_means_clamps_negative_probabilities():
    values = np.array([-1.0, 0.0, 0.5, 2.0])
    probs = np.array([0.3, -0.05, 0.4, 0.3])
    expected = searchsorted_sample_means(values, np.maximum(probs, 0.0), 7, 5000, 4, 2)
    assert np.array_equal(sample_means(values, probs, 7, 5000, seed=4, stream=2), expected)


def test_sample_means_statistics():
    values = np.array([-1.0, 1.0])
    probs = np.array([0.5, 0.5])
    out = sample_means(values, probs, 1, 200000, seed=9, stream=1)
    assert abs(out.mean()) < 0.01
    assert out.var() == pytest.approx(1.0, rel=0.02)


def test_run_protocol_deterministic(coherent_setup):
    cfg, dists = coherent_setup
    a = run_protocol(cfg, dists)
    b = run_protocol(cfg, dists)
    assert a == b


def test_run_protocol_report_contents(coherent_setup):
    cfg, dists = coherent_setup
    rep = run_protocol(cfg, dists)
    assert 0.0 <= rep.p_type1 <= 1.0
    assert rep.p_type1_ci[0] <= rep.p_type1 <= rep.p_type1_ci[1]
    assert rep.p_type2_ci[0] <= rep.p_type2 <= rep.p_type2_ci[1]
    assert rep.pr_err == pytest.approx(0.5 * rep.p_type1 + 0.5 * rep.p_type2)
    assert rep.rate_type1_pred == pytest.approx(0.05 ** 2 * rep.h / 2)
    assert rep.h == pytest.approx(qfi_bounds(0.5, 1.0)[2], abs=1e-9)
    # Monte Carlo agrees with the closed-form coherent error probability
    assert rep.p_type1 == pytest.approx(rep.p_type1_classical, abs=0.01)
    assert rep.p_type2 == pytest.approx(rep.p_type2_classical, abs=0.01)


def test_run_protocol_adaptive_extension():
    # M large enough that errors are rare at the starting trial count
    cfg = ProtocolConfig(family="coherent", n_signal=0.5, n_bath=1.0, eta=0.3,
                         xi=0.5, trials=400, seed=2, m_copies=2000,
                         trials_cap_factor=64)
    rep = run_protocol(cfg)
    assert rep.trials > 400
    assert min(rep.errors_type1, rep.errors_type2) >= 50 or rep.trials == 400 * 64


def test_estimator_moments_near_cramer_rao():
    cfg = ProtocolConfig(family="tmsv", n_signal=0.5, n_bath=1.0, eta=0.05,
                         xi=0.5, trials=50000, seed=3, m_copies=400)
    dists = prepare_distributions(cfg)
    means = sample_means(dists.dist_present.values,
                         dists.dist_present.probabilities,
                         cfg.m_copies, cfg.trials, cfg.seed, stream=1)
    se = math.sqrt(means.var() / cfg.trials)
    assert abs(means.mean() - cfg.eta) < 4 * se + 0.02 * cfg.eta
    assert means.var() == pytest.approx(1.0 / (cfg.m_copies * dists.h), rel=0.05)


def test_xi_sweep_monotone(coherent_setup):
    cfg, dists = coherent_setup
    reports = xi_sweep(cfg, [0.2, 0.4, 0.6, 0.8], dists)
    p1 = [r.p_type1 for r in reports]
    p2 = [r.p_type2 for r in reports]
    assert all(a >= b for a, b in zip(p1, p1[1:]))
    assert all(a <= b for a, b in zip(p2, p2[1:]))


@pytest.fixture(scope="module")
def doubling_setup():
    """A sweep whose xi rows stop on different rungs of the doubling."""
    cfg = ProtocolConfig(family="coherent", n_signal=0.5, n_bath=1.0, eta=0.3, xi=0.5,
                         m_copies=200, trials=300, seed=11, trials_cap_factor=64,
                         d_signal=16, dim_bath=16)
    return cfg, [0.3, 0.5, 0.7], prepare_distributions(cfg)


def test_xi_sweep_doublings_match_redrawn_trials(doubling_setup):
    cfg, xis, dists = doubling_setup
    reports = xi_sweep(cfg, xis, dists)

    @functools.cache
    def redraw(trials):
        return (searchsorted_sample_means(dists.dist_absent.values,
                                          dists.dist_absent.probabilities,
                                          cfg.m_copies, trials, cfg.seed, 2 * cfg.m_copies),
                searchsorted_sample_means(dists.dist_present.values,
                                          dists.dist_present.probabilities,
                                          cfg.m_copies, trials, cfg.seed,
                                          2 * cfg.m_copies + 1))

    # oracle: each xi redraws all trials with the binary-search sampler,
    # doubling until both of its own error counts reach 50
    expected = []
    for xi in xis:
        trials = cfg.trials
        while True:
            means0, means1 = redraw(trials)
            k1 = int(np.count_nonzero(means0 > xi * cfg.eta))
            k2 = int(np.count_nonzero(means1 <= xi * cfg.eta))
            if min(k1, k2) >= MIN_ERROR_EVENTS:
                break
            trials *= 2
        assert cfg.trials < trials < cfg.trials * cfg.trials_cap_factor
        expected.append((trials, k1, k2))
    assert [(r.trials, r.errors_type1, r.errors_type2) for r in reports] == expected


def test_xi_sweep_equals_run_protocol_per_xi(doubling_setup):
    cfg, xis, dists = doubling_setup
    reports = xi_sweep(cfg, xis, dists)
    assert len({r.trials for r in reports}) > 1
    assert reports == [run_protocol(replace(cfg, xi=xi), dists) for xi in xis]


def test_xi_branch_rate_scaling(coherent_setup):
    cfg, dists = coherent_setup
    rep = run_protocol(replace(cfg, xi=0.3, trials=100000, m_copies=500), dists)
    ratio = rep.rate_type1 / rep.rate_type2
    assert ratio == pytest.approx(0.3 ** 2 / 0.7 ** 2, rel=0.10)


def test_quantum_exponent_beats_classical():
    common = dict(n_signal=0.5, n_bath=1.0, eta=0.1, xi=0.5,
                  trials=50000, seed=13, m_copies=1000)
    rep_q = run_protocol(ProtocolConfig(family="tmsv", **common))
    rep_c = run_protocol(ProtocolConfig(family="coherent", **common))
    assert rep_q.h > rep_c.h
    assert rep_q.rate_type1 > rep_c.rate_type1
    assert rep_q.rate_type2 > rep_c.rate_type2


def test_tmsv_gain_prediction():
    # tmsv over coherent at NS=0.05, NB=2 predicts about 2.08 dB
    ratio = qfi_gaussian_closed(0.05, 2.0) / qfi_bounds(0.05, 2.0)[2]
    assert 10 * math.log10(ratio) == pytest.approx(2.08, abs=0.01)


def test_error_report_csv_row(coherent_setup):
    cfg, dists = coherent_setup
    rep = run_protocol(cfg, dists)
    row = rep.to_csv_row()
    assert len(row.split(",")) == len(ErrorReport.CSV_HEADER.split(","))
    payload = rep.to_json_dict()
    assert payload["p_type1"] == rep.p_type1
