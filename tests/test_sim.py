"""Detection-protocol Monte Carlo and exponent extraction."""

import functools
import json
import math
import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.random import Generator, Philox

from qillum.qfi import qfi_bounds, qfi_gaussian_closed
from qillum.sim import (GUIDE_SIZE, HEAD_DRAWS, MIN_ERROR_EVENTS, SAMPLE_CHUNK,
                        ErrorReport, ProtocolConfig, UnresolvedStatisticsError,
                        _chunk_generator, _erfcinv_2p, _guide_table,
                        classical_error_closed, gaussian_rate_fit, prepare_distributions,
                        sample_means, sampling_table, simulate, wilson_interval)

GRID = 1 << 20  # probabilities on a 2^-20 grid keep every CDF entry exact


def searchsorted_sample_means(values, probabilities, m, trials, seed, stream):
    """Oracle: the sampling rule written plainly, one whole chunk at a time.
    Per chunk, one multinomial gives every trial its head counts and its
    tail count.  The words after it hold the chunk's tail draws in trial
    order, as 16-bit lanes in native byte order, or 32-bit lanes when the
    guide table has more than 2^16 buckets.  A lane's top b bits give its
    bucket [k, k + 1) / 2^b of u.  Where binary searches over the tail CDF
    at both bucket edges agree, that outcome is the draw; else the next
    word r of the chunk's second stream places u in the bucket, u = (k
    2^(53-b) + (r >> (11 + b))) 2^-53, and a binary search finds its
    outcome.  Each trial sums its own."""
    order = np.argsort(values)
    vals = values[order]
    p = np.maximum(probabilities[order], 0.0)
    vals, p = vals[p > 0], p[p > 0] / p.sum()
    head = m * p >= HEAD_DRAWS
    head_vals, head_p = vals[head], p[head]
    tail_vals, tail_p = vals[~head], p[~head]
    k = len(head_vals)
    if len(tail_vals):
        pvals = np.append(head_p, max(0.0, 1.0 - head_p.sum()))
        cdf = np.cumsum(tail_p)
        cdf /= cdf[-1]
        size = max(GUIDE_SIZE, 1 << (4 * len(tail_vals) - 1).bit_length())
        bits = size.bit_length() - 1
        lane, width = (np.uint16, 16) if bits <= 16 else (np.uint32, 32)
    else:
        pvals = head_p
    out = np.empty(trials)
    for start in range(0, trials, SAMPLE_CHUNK):
        n = min(SAMPLE_CHUNK, trials - start)
        key = np.array([seed, stream], dtype=np.uint64)
        gen = Philox(counter=[0, start // SAMPLE_CHUNK, 0, 0], key=key)
        counts = Generator(gen).multinomial(m, pvals, size=SAMPLE_CHUNK)[:n]
        tail_counts = counts[:, k] if len(tail_vals) else np.zeros(n, dtype=int)
        x = np.empty(0)
        if len(tail_vals):
            words = gen.random_raw(math.ceil(tail_counts.sum() * width / 64))
            bucket = words.view(lane)[:tail_counts.sum()] >> (width - bits)
            lo = np.searchsorted(cdf, bucket / size, side="right")
            hi = np.searchsorted(cdf, (bucket + 1.0) / size, side="left")
            miss = lo != hi
            fresh = Philox(counter=[0, start // SAMPLE_CHUNK, 1, 0], key=key)
            r = fresh.random_raw(np.count_nonzero(miss))
            u = (bucket[miss] * 2.0 ** (53 - bits) + (r >> (11 + bits))) * 2.0 ** -53
            lo[miss] = np.searchsorted(cdf, u, side="right")
            x = tail_vals[lo]
        ends = np.cumsum(tail_counts)
        for t in range(n):
            c = tail_counts[t]
            tail = np.add.reduceat(x[ends[t] - c:ends[t]], [0])[0] if c else 0.0
            out[start + t] = ((counts[t, :k] * head_vals).sum() + tail) / m
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
                         xi=0.5, trials=20000, seed=5, m=300)
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
        ProtocolConfig(eta=-0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(eta=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(n_signal=-0.5)
    with pytest.raises(ValueError):
        ProtocolConfig(n_bath=-1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(family="cat:x")
    for bad in (dict(n_signal=math.nan), dict(n_bath=math.inf), dict(eta=math.nan),
                dict(n_signal="0.5"), dict(eta=None), dict(n_bath=True),
                dict(n_bath=[1.0])):
        with pytest.raises(ValueError, match="finite"):
            ProtocolConfig(**bad)
    # every grid point is checked, and an empty grid is no run
    for bad in (dict(m=[]), dict(xi=[]), dict(m=())):
        with pytest.raises(ValueError, match="at least one value"):
            ProtocolConfig(**bad)
    for bad in (dict(xi=[0.5, 1.0]), dict(xi=[0.5, None]), dict(xi="0.5"),
                dict(xi=[[0.5]]), dict(xi=math.nan)):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            ProtocolConfig(**bad)
    # constructor only: an infinite cap would double trials without bound
    for bad in (dict(trials_cap_factor=math.inf), dict(trials_cap_factor=0),
                dict(trials_cap_factor=2.5), dict(trials=2.5), dict(trials=1e5),
                dict(trials=-3), dict(m=0), dict(m=50.9),
                dict(trials=True), dict(m=[100, 0]), dict(m=[100, True]), dict(m=[[100]]),
                dict(m="100"), dict(trials=None)):
        with pytest.raises(ValueError, match="integers >= 1"):
            ProtocolConfig(**bad)
    assert ProtocolConfig(trials=1, trials_cap_factor=1).trials_cap_factor == 1
    assert ProtocolConfig(eta=1.0).eta == 1.0
    # a number is a one-element grid, and a list a tuple
    cfg = ProtocolConfig(m=np.int64(100), xi=0.3)
    assert (cfg.m, cfg.xi) == ((100,), (0.3,)) and type(cfg.m[0]) is int
    assert ProtocolConfig(m=[200, 100], xi=[0.5, 0.3]).m == (200, 100)
    assert ProtocolConfig(m=[200, 100], xi=[0.5, 0.3]).xi == (0.5, 0.3)


def test_config_seed_is_a_64_bit_key():
    # the seed keys Philox as one uint64 word: anything else would collide
    for bad in (-1, -1000, 1 << 64, True, 1.5, "7", None):
        with pytest.raises(ValueError, match="seed"):
            ProtocolConfig(seed=bad)
    for good in (0, 7, (1 << 63) + 5, (1 << 64) - 1, np.uint64(9)):
        assert ProtocolConfig(seed=good).seed == good


def test_chunk_generator_streams_below_2_63_are_unchanged():
    # the uint64 key array draws what the former [seed, stream] list drew
    for seed in (0, 7, 2024, (1 << 63) - 1):
        old = Generator(Philox(counter=[0, 3, 0, 0], key=[seed & 0xFFFFFFFFFFFFFFFF, 41]))
        assert np.array_equal(_chunk_generator(seed, 41, 3).random(64), old.random(64))


def test_chunk_generator_keys_philox_with_the_whole_seed():
    # seeds >= 2^63 once went through float64, so nearby seeds shared a key
    for seed in ((1 << 63) + 5, (1 << 63) + 99, (1 << 64) - 1):
        key = _chunk_generator(seed, 3, 0).bit_generator.state["state"]["key"]
        assert key.tolist() == [seed, 3]


def test_config_json_roundtrip():
    # a simulate config file holds the dataclass fields as JSON keys
    cfg = ProtocolConfig(family="cat:2", n_signal=0.3, seed=99)
    clone = ProtocolConfig(**json.loads(json.dumps(asdict(cfg))))
    assert clone == cfg


def test_readme_simulate_config_is_a_protocol_config():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    payload = json.loads(block)
    cfg = ProtocolConfig(**payload)
    assert {key: getattr(cfg, key) for key in payload} == \
        dict(payload, m=tuple(payload["m"]), xi=(payload["xi"],))


def test_wilson_interval_basics():
    lo, hi = wilson_interval(5, 100)
    assert 0.0 <= lo <= 0.05 <= hi <= 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 < 1e-12 and hi0 > 0.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_maxfock_reports_carry_the_state_photon_number():
    # maxfock:4 has N_S = 1.5 whatever the config asks for (0.5 by default);
    # it equals the classical case, so its classical column is at N_S = 1.5
    cfg = ProtocolConfig(family="maxfock:4", n_bath=1.0, m=500, xi=0.5, trials=2000,
                         trials_cap_factor=1, seed=7)
    rep, = simulate(cfg)
    assert rep.n_signal == 1.5
    assert rep.p_type1_classical == classical_error_closed(1.5, 1.0, 0.1, 500, 0.5)[0]
    assert rep.p_type1_classical == pytest.approx(0.0569, abs=1e-4)
    assert rep.to_csv_row().split(",")[1] == "1.5"


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


def test_classical_error_matches_scipy_erfc_form():
    from scipy.special import erfc

    # the criterion-8 points (N_S = 0.5, N_B = 1, eta = 0.1), at three thresholds
    h_c = qfi_bounds(0.5, 1.0)[2]
    for m in (200, 500, 1000, 2000):
        for xi in (0.2, 0.5, 0.8):
            p1, p2, _ = classical_error_closed(0.5, 1.0, 0.1, m, xi)
            assert p1 == pytest.approx(0.5 * erfc(np.sqrt((xi * 0.1) ** 2 * h_c * m / 2)),
                                       rel=1e-15, abs=0)
            assert p2 == pytest.approx(
                0.5 * erfc(np.sqrt(((1 - xi) * 0.1) ** 2 * h_c * m / 2)), rel=1e-15, abs=0)


def test_erfcinv_helper_matches_scipy():
    from scipy.special import erfcinv

    two_p = np.concatenate([np.geomspace(2e-300, 1.0, 4000),
                            np.linspace(0.0, 2.0 - 2e-12, 4001)[1:],
                            np.random.default_rng(1).uniform(0.0, 2.0 - 2e-12, 4000)])
    got = np.array([_erfcinv_2p(p) for p in (0.5 * two_p).tolist()])
    np.testing.assert_allclose(got, erfcinv(two_p), rtol=1e-14, atol=0)


def test_erfcinv_matches_the_normal_quantile():
    """erfcinv(2 p), computed from math.erfc, is -Phi^-1(p) / sqrt(2) of
    statistics.NormalDist to 1e-15 max(1, |x|) from p = 1e-300 to
    1 - 1e-12.  Against 40-digit values the helper is off by at most
    2.2e-16 max(1, |x|) there, and NormalDist by up to 8.4e-16."""
    from statistics import NormalDist

    ps = np.concatenate([np.geomspace(1e-300, 0.5, 4000), [0.25, 0.5],
                         1.0 - np.geomspace(1e-12, 0.5, 4000),
                         np.random.default_rng(2).uniform(0.0, 1.0, 2000)])
    for p in ps.tolist():
        x = -NormalDist().inv_cdf(p) / math.sqrt(2.0)
        assert abs(_erfcinv_2p(p) - x) <= 1e-15 * max(1.0, abs(x)), p


def test_gaussian_rate_fit_recovers_erfc_form():
    from scipy.special import erfc

    ms = np.array([200, 500, 1000, 2000])
    rate = 8.333e-4
    ps = 0.5 * erfc(np.sqrt(rate * ms))
    fit, _ = gaussian_rate_fit(ms, ps, 0.01 * ps)
    assert fit == pytest.approx(rate, rel=1e-10)


def test_gaussian_rate_fit_guards():
    with pytest.raises(UnresolvedStatisticsError):
        gaussian_rate_fit([100, 200], [0.6, 0.1], [0.01, 0.01])


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
    # drawn one by one at m = 4, counted as the one head outcome at m = 100
    for m in (4, 100):
        out = sample_means(np.array([1.5]), np.array([1.0]), m, 100, seed=0, stream=0)
        assert np.all(out == 1.5)


def test_sample_means_rejects_invalid_probabilities():
    # each once returned the first outcome's value for every trial
    for bad in ([0.0, 0.0], [np.nan, 1.0], [-0.1, -0.2], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="probabilities"):
            sample_means(np.array([0.0, 1.0]), np.array(bad), 5, 10, seed=0, stream=0)


def test_sample_means_all_head():
    # every outcome is counted (m p >= HEAD_DRAWS): no tail and no uniform draws
    values = np.array([1.0, 2.0, 4.0])
    probs = np.array([0.5, 0.3, 0.2])
    m = 200
    assert np.all(m * probs >= HEAD_DRAWS)
    out = sample_means(values, probs, m, 3000, seed=3, stream=1)
    assert np.array_equal(out, searchsorted_sample_means(values, probs, m, 3000, 3, 1))
    parts = [sample_means(values, probs, m, 1500, seed=3, stream=1),
             sample_means(values, probs, m, 1500, seed=3, stream=1, first=1500)]
    assert np.array_equal(np.concatenate(parts), out)
    sums = np.round(out * m)
    np.testing.assert_allclose(out * m, sums, rtol=0, atol=1e-9)
    assert np.all((sums >= m) & (sums <= 4 * m))
    se = math.sqrt(probs @ values ** 2 - (probs @ values) ** 2) / math.sqrt(m * len(out))
    assert abs(out.mean() - probs @ values) < 5 * se


def test_sample_means_zero_probability_outcomes_change_nothing():
    # a zero-probability outcome is never drawn, in the head's or the tail's range;
    # below 8 outcomes the total mass is a plain sum, so inserting zeros keeps it exact
    for values, probs, m in (([0.0, 5.0], [0.5, 0.5], 100),            # all head
                             ([0.0, 1.0, 2.0], [0.6, 0.3, 0.1], 80),   # head and tail
                             ([0.0, 1.0, 2.0], [0.6, 0.3, 0.1], 3)):   # all tail
        expected = sample_means(np.array(values), np.array(probs), m, 2000, seed=4, stream=9)
        padded = sample_means(np.array(values + [-3.0, 0.5, 9.0]),
                              np.array(probs + [0.0, 0.0, 0.0]), m, 2000, seed=4, stream=9)
        assert np.array_equal(padded, expected)


def assert_exact_law(weights, m, counted, stepped):
    """Outcomes 0, 1, 2, ... with the given weights, ``counted`` of them
    counted and ``stepped`` guide buckets holding a tail CDF step: the sum
    of m draws has the m-fold convolution of the outcome law as its exact
    distribution, and a chi-square test over 200k trials must not reject
    it at alpha = 1e-6, a level fixed before any seed was run."""
    from scipy.stats import chi2

    values = np.arange(len(weights), dtype=float)
    probs = weights / weights.sum()
    trials, alpha = 200_000, 1e-6
    head = m * probs >= HEAD_DRAWS
    cdf = np.cumsum(probs[~head])
    cdf /= cdf[-1]
    assert np.count_nonzero(head) == counted
    assert np.count_nonzero(np.isnan(_guide_table(values[~head], cdf).buckets)) == stepped
    law = np.array([1.0])
    for _ in range(m):
        law = np.convolve(law, probs)
    sums = sample_means(values, probs, m, trials, seed=17, stream=5) * m
    k = np.round(sums).astype(int)
    np.testing.assert_allclose(sums, k, rtol=0, atol=1e-9)
    observed = np.bincount(k, minlength=len(law)).astype(float)
    expected = trials * law
    # pool each sparse tail into the outermost cell that expects at least 5
    # trials, so that every cell of the unimodal law does
    big = np.flatnonzero(expected >= 5.0)
    lo, hi = big[0] + 1, big[-1]

    def pooled(a):
        return np.concatenate(([a[:lo].sum()], a[lo:hi], [a[hi:].sum()]))

    obs, exp = pooled(observed), pooled(expected)
    assert obs.sum() == trials and exp.min() >= 5
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert chi2.sf(stat, len(exp) - 1) > alpha


def test_sample_means_exact_law():
    # 4 outcomes, two counted (m p >= HEAD_DRAWS) and two drawn; the one
    # tail CDF step, 0.15 / 0.2, rounds to one ulp below the bucket edge 3/4
    assert_exact_law(np.array([0.5, 0.3, 0.15, 0.05]), m=120, counted=2, stepped=1)


def test_sample_means_exact_law_with_steps_inside_buckets():
    # 4000 drawn outcomes whose every tail CDF step falls strictly inside a
    # guide bucket, so about a quarter of the draws take a fresh word
    assert_exact_law(50.0 + (37 * np.arange(4000)) % 101, m=1, counted=0, stepped=3999)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dist=outcome_distributions(), m=st.sampled_from([1, 7, 120, 300]),
       size=st.floats(0.0, 1.0), split=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 40), stream=st.integers(0, 4001))
def test_sample_means_matches_binary_search_oracle(dist, m, size, split, seed, stream):
    values, probs = dist
    # up to two chunk boundaries; m = 120 and 300 count their likely outcomes
    trials = 1 + int(size * (2 * SAMPLE_CHUNK + 50))
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
        assert len(_guide_table(np.arange(n, dtype=float), cdf).buckets) == size


def assert_many_outcomes_match_oracle(n, size):
    rng = np.random.default_rng(3)
    values = rng.normal(size=n)
    probs = rng.random(n)
    assert len(_guide_table(values, np.arange(1, n + 1) / n).buckets) == size
    expected = searchsorted_sample_means(values, probs, 7, 5000, 8, 1)
    assert np.array_equal(sample_means(values, probs, 7, 5000, seed=8, stream=1), expected)


def test_sample_means_many_outcomes_match_binary_search_oracle():
    # 5000 outcomes take a 2^15-bucket guide table, read from 16-bit lanes
    assert_many_outcomes_match_oracle(5000, 1 << 15)


def test_sample_means_32_bit_lanes_match_binary_search_oracle():
    # 20000 outcomes take a 2^17-bucket guide table, read from 32-bit lanes
    assert_many_outcomes_match_oracle(20000, 1 << 17)


def crowded_law(n_spread, clusters, per_cluster):
    """Values 0, 1, 2, ... with random masses, among which ``clusters``
    runs of ``per_cluster`` equal tiny masses, each run 0.4 of a guide
    bucket wide, so that hundreds of steps share one step bucket."""
    rng = np.random.default_rng(12)
    n = n_spread + clusters * per_cluster
    size = max(GUIDE_SIZE, 1 << (4 * n - 1).bit_length())
    probs = rng.random(n_spread)
    probs *= (1.0 - clusters * 0.4 / size) / probs.sum()
    for at in np.sort(rng.choice(n_spread, clusters, replace=False))[::-1]:
        probs = np.insert(probs, at, np.full(per_cluster, 0.4 / size / per_cluster))
    return np.arange(n, dtype=float), probs


def miss_path_levels(values, probs, m, trials, seed, stream):
    """How the tail draws of ``sample_means`` resolve: the draws that take
    a fresh word, those the second level resolves, those left to the
    sorted search, and those in a bucket with at least 100 steps."""
    table = sampling_table(values, probs, m)
    guide = table.guide
    bits = len(guide.buckets).bit_length() - 1
    lane, width = (np.uint16, 16) if bits <= 16 else (np.uint32, 32)
    steps = np.bincount((table.cdf * len(guide.buckets)).astype(int), minlength=1 << bits)
    fresh = second = deep = crowded = 0
    for chunk in range(-(-trials // SAMPLE_CHUNK)):
        n = min(SAMPLE_CHUNK, trials - chunk * SAMPLE_CHUNK)
        gen = _chunk_generator(seed, stream, chunk)
        c = gen.multinomial(m, table.pvals, size=SAMPLE_CHUNK)[:n, -1].sum()
        lanes = gen.bit_generator.random_raw(-(-c * width // 64)).view(lane)[:c]
        bucket = (lanes >> (width - bits)).astype(np.intp)
        stepped = bucket[np.isnan(guide.buckets[bucket])]
        r = _chunk_generator(seed, stream, chunk, part=1).bit_generator.random_raw(len(stepped))
        sub = guide.sub[guide.rows[stepped] | (r >> (64 - guide.sub_bits)).astype(np.intp)]
        fresh += len(stepped)
        second += np.count_nonzero(~np.isnan(sub))
        deep += np.count_nonzero(np.isnan(sub))
        crowded += np.count_nonzero(steps[stepped] >= 100)
    return fresh, second, deep, crowded


@pytest.mark.parametrize("n_spread, clusters, per_cluster, lane_bits", [
    (1000, 6, 500, 16),        # 4000 outcomes, 2^14 buckets
    (12000, 12, 500, 32),      # 18000 outcomes, 2^17 buckets
])
def test_sample_means_miss_path_matches_binary_search_oracle(n_spread, clusters,
                                                             per_cluster, lane_bits):
    # every level of a draw whose bucket holds a step: the second level,
    # the sorted search below it, and a bucket crowded with tiny steps
    values, probs = crowded_law(n_spread, clusters, per_cluster)
    m, trials = 100, 4 * SAMPLE_CHUNK
    assert m * probs.max() < HEAD_DRAWS
    guide = sampling_table(values, probs, m).guide
    assert (len(guide.buckets) > 1 << 16) == (lane_bits == 32)
    fresh, second, deep, crowded = miss_path_levels(values, probs, m, trials, 3, 8)
    assert second > 0 and deep > 0 and crowded > 0
    assert fresh == second + deep
    expected = searchsorted_sample_means(values, probs, m, trials, 3, 8)
    assert np.array_equal(sample_means(values, probs, m, trials, seed=3, stream=8), expected)


def test_sample_means_draws_rung_by_rung_from_one_table():
    # the trial ranges of a doubling ladder, drawn from one prebuilt table,
    # are the trials of one call, bit for bit
    rng = np.random.default_rng(4)
    values = rng.normal(size=3000)
    probs = rng.random(3000)
    probs[:5] = 600.0                 # counted at m = 300
    m = 300
    table = sampling_table(values, probs, m)
    assert len(table.head_vals) == 5 and np.isnan(table.guide.buckets).any()
    rungs = [0, 300, 600, 1200, 2400, 4800]
    parts = [sample_means(values, probs, m, hi - lo, seed=2, stream=6, first=lo, table=table)
             for lo, hi in zip(rungs, rungs[1:])]
    assert np.array_equal(np.concatenate(parts),
                          sample_means(values, probs, m, rungs[-1], seed=2, stream=6))


def test_xi_sweep_reports_equal_those_of_tables_rebuilt_per_rung(doubling_setup,
                                                                 monkeypatch):
    import qillum.sim as sim

    cfg, xis, dists = doubling_setup
    tables = []
    original = sim.sample_means

    def rebuilding(*args, table=None, **kwargs):
        tables.append(table)
        return original(*args, **kwargs)

    expected = simulate(replace(cfg, xi=xis), dists)
    monkeypatch.setattr(sim, "sample_means", rebuilding)
    assert simulate(replace(cfg, xi=xis), dists) == expected
    # one table per hypothesis, drawn from on every rung
    assert len(tables) > 2 and len({id(t) for t in tables}) == 2


def test_sample_means_ignores_outcome_order():
    # outcome distributions list their outcomes in block order, an
    # implementation detail: for distinct values any joint permutation of
    # (values, probabilities) draws the same means, bit for bit, with or
    # without counted outcomes (m = 1500 counts 10 of the 15 heavy ones)
    rng = np.random.default_rng(5)
    values = rng.normal(size=3000)
    probs = rng.random(3000)
    probs[:12] *= 300
    probs[12:15] = probs[0]           # equal head masses
    assert len(np.unique(values)) == len(values)
    for m in (7, 1500):
        expected = sample_means(values, probs, m, 3000, seed=6, stream=3)
        for perm in (np.argsort(values), np.argsort(values)[::-1], rng.permutation(3000)):
            assert np.array_equal(sample_means(values[perm], probs[perm], m, 3000, seed=6,
                                               stream=3), expected)


def test_sample_means_roundoff_does_not_order_tied_outcomes():
    # an eta = 0 SLD spectrum pairs -sigma and +sigma with equal
    # probabilities in exact arithmetic, so roundoff may rank either one
    # first; one ulp more on +sigma must not redraw the means
    values = np.array([-1.0749, 1.0749, 0.3, -0.2, 0.05])
    probs = np.array([0.3, 0.3, 0.2, 0.1, 0.1])
    m = 200
    assert np.count_nonzero(m * probs >= HEAD_DRAWS) == 3
    bumped = probs.copy()
    bumped[1] = np.nextafter(bumped[1], 1.0)
    expected = sample_means(values, probs, m, 3000, seed=7, stream=0)
    assert np.array_equal(sample_means(values, bumped, m, 3000, seed=7, stream=0), expected)


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


def test_simulate_deterministic(coherent_setup):
    cfg, dists = coherent_setup
    a = simulate(cfg, dists)[0]
    b = simulate(cfg, dists)[0]
    assert a == b


def test_simulate_report_contents(coherent_setup):
    cfg, dists = coherent_setup
    rep = simulate(cfg, dists)[0]
    assert 0.0 <= rep.p_type1 <= 1.0
    assert rep.p_type1_ci[0] <= rep.p_type1 <= rep.p_type1_ci[1]
    assert rep.p_type2_ci[0] <= rep.p_type2 <= rep.p_type2_ci[1]
    # the equal-prior error, bit for bit the 0.5/0.5 weighting
    assert rep.pr_err == 0.5 * rep.p_type1 + 0.5 * rep.p_type2
    assert rep.rate_type1_pred == pytest.approx(0.05 ** 2 * rep.h / 2)
    assert rep.h == pytest.approx(qfi_bounds(0.5, 1.0)[2], abs=1e-9)
    # Monte Carlo agrees with the closed-form coherent error probability
    assert rep.p_type1 == pytest.approx(rep.p_type1_classical, abs=0.01)
    assert rep.p_type2 == pytest.approx(rep.p_type2_classical, abs=0.01)


def test_simulate_adaptive_extension():
    # M large enough that errors are rare at the starting trial count
    cfg = ProtocolConfig(family="coherent", n_signal=0.5, n_bath=1.0, eta=0.3,
                         xi=0.5, trials=400, seed=2, m=2000,
                         trials_cap_factor=64)
    rep = simulate(cfg)[0]
    assert rep.trials > 400
    assert min(rep.errors_type1, rep.errors_type2) >= 50 or rep.trials == 400 * 64


def test_estimator_moments_near_cramer_rao():
    cfg = ProtocolConfig(family="tmsv", n_signal=0.5, n_bath=1.0, eta=0.05,
                         xi=0.5, trials=50000, seed=3, m=400)
    dists = prepare_distributions(cfg)
    means = sample_means(dists.dist_present.values,
                         dists.dist_present.probabilities,
                         cfg.m[0], cfg.trials, cfg.seed, stream=1)
    se = math.sqrt(means.var() / cfg.trials)
    assert abs(means.mean() - cfg.eta) < 4 * se + 0.02 * cfg.eta
    assert means.var() == pytest.approx(1.0 / (cfg.m[0] * dists.h), rel=0.05)


def test_xi_sweep_monotone(coherent_setup):
    cfg, dists = coherent_setup
    reports = simulate(replace(cfg, xi=[0.2, 0.4, 0.6, 0.8]), dists)
    p1 = [r.p_type1 for r in reports]
    p2 = [r.p_type2 for r in reports]
    assert all(a >= b for a, b in zip(p1, p1[1:]))
    assert all(a <= b for a, b in zip(p2, p2[1:]))


@pytest.fixture(scope="module")
def doubling_setup():
    """A sweep whose xi rows stop on different rungs of the doubling."""
    cfg = ProtocolConfig(family="coherent", n_signal=0.5, n_bath=1.0, eta=0.3, xi=0.5,
                         m=200, trials=300, seed=11, trials_cap_factor=64)
    return cfg, [0.3, 0.5, 0.7], prepare_distributions(cfg)


def test_xi_sweep_doublings_match_redrawn_trials(doubling_setup):
    cfg, xis, dists = doubling_setup
    reports = simulate(replace(cfg, xi=xis), dists)
    m, = cfg.m

    @functools.cache
    def redraw(trials):
        return (searchsorted_sample_means(dists.dist_absent.values,
                                          dists.dist_absent.probabilities,
                                          m, trials, cfg.seed, 2 * m),
                searchsorted_sample_means(dists.dist_present.values,
                                          dists.dist_present.probabilities,
                                          m, trials, cfg.seed, 2 * m + 1))

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


def test_xi_sweep_equals_simulate_per_xi(doubling_setup):
    cfg, xis, dists = doubling_setup
    reports = simulate(replace(cfg, xi=xis), dists)
    assert len({r.trials for r in reports}) > 1
    assert reports == [simulate(replace(cfg, xi=xi), dists)[0] for xi in xis]


def test_xi_branch_rate_scaling(coherent_setup):
    cfg, dists = coherent_setup
    rep = simulate(replace(cfg, xi=0.3, trials=100000, m=500), dists)[0]
    ratio = rep.rate_type1 / rep.rate_type2
    assert ratio == pytest.approx(0.3 ** 2 / 0.7 ** 2, rel=0.10)


def test_quantum_exponent_beats_classical():
    common = dict(n_signal=0.5, n_bath=1.0, eta=0.1, xi=0.5,
                  trials=50000, seed=13, m=1000)
    rep_q = simulate(ProtocolConfig(family="tmsv", **common))[0]
    rep_c = simulate(ProtocolConfig(family="coherent", **common))[0]
    assert rep_q.h > rep_c.h
    assert rep_q.rate_type1 > rep_c.rate_type1
    assert rep_q.rate_type2 > rep_c.rate_type2


def test_tmsv_gain_prediction():
    # tmsv over coherent at NS=0.05, NB=2 predicts about 2.08 dB
    ratio = qfi_gaussian_closed(0.05, 2.0) / qfi_bounds(0.05, 2.0)[2]
    assert 10 * math.log10(ratio) == pytest.approx(2.08, abs=0.01)


def test_error_report_csv_row(coherent_setup):
    cfg, dists = coherent_setup
    rep = simulate(cfg, dists)[0]
    row = rep.to_csv_row()
    assert len(row.split(",")) == len(ErrorReport.CSV_HEADER.split(","))
    payload = asdict(rep)
    assert payload["p_type1"] == rep.p_type1


def test_error_report_csv_cells_sit_under_their_header():
    # every field holds its own value, so a cell under a wrong name shows
    values = {f.name: i + 0.5 for i, f in enumerate(fields(ErrorReport))}
    values.update(family="cat:3", m_copies=1000, trials=2048, errors_type1=51,
                  errors_type2=77, seed=(1 << 63) + 5, p_type1_ci=(0.125, 0.25),
                  p_type2_ci=(0.375, 0.625), h=np.float64(20.75), rate_type1_raw=math.inf)
    row = ErrorReport(**values).to_csv_row().split(",")
    header = ErrorReport.CSV_HEADER.split(",")
    assert len(row) == len(header) == 29
    columns = {"family": "family", "N_S": "n_signal", "N_B": "n_bath", "eta": "eta",
               "xi": "xi", "M": "m_copies", "trials": "trials", "errors_I": "errors_type1",
               "errors_II": "errors_type2", "P_I": "p_type1", "P_II": "p_type2",
               "Pr_err": "pr_err", "rate_I_raw": "rate_type1_raw",
               "rate_II_raw": "rate_type2_raw", "rate_I": "rate_type1",
               "rate_I_err": "rate_type1_err", "rate_II": "rate_type2",
               "rate_II_err": "rate_type2_err", "rate_I_pred": "rate_type1_pred",
               "rate_II_pred": "rate_type2_pred", "H": "h",
               "P_I_classical": "p_type1_classical", "P_II_classical": "p_type2_classical",
               "Pr_err_opt_classical": "pr_err_opt_classical", "seed": "seed"}
    expected = {name: str(values[field]) for name, field in columns.items()}
    expected.update(P_I_lo="0.125", P_I_hi="0.25", P_II_lo="0.375", P_II_hi="0.625")
    assert dict(zip(header, row)) == expected
    assert expected["M"] == "1000" and expected["seed"] == "9223372036854775813"
    assert expected["H"] == "20.75" and expected["rate_I_raw"] == "inf"
