"""Monte Carlo simulation of the reflectivity-threshold detection protocol.

Each trial draws M single-copy outcomes of the optimal observable, takes
their mean as the reflectivity estimate, and declares the object present
when the estimate exceeds xi * eta.  Type I and II error probabilities
are estimated with 95 % Wilson confidence intervals.  Exponential decay
rates come from ``gaussian_rate_fit``, which inverts the Gaussian tail
form before fitting, y(M) = erfcinv(2 P)^2 = rate * M.  A plain fit of
-log P against M would be biased upward at desk-scale M by the
subexponential prefactor of the true tail (for a Gaussian mean, P =
erfc(sqrt(rate * M)) / 2, whose -log P carries an additive ~ 0.5 log M
term); the inversion removes that prefactor and recovers the rate
already at moderate M.
These are the rates compared against the predictions xi^2 eta^2 H / 2.

Sampling uses counter-based RNG streams keyed by (seed, stream, chunk),
and a chunk of SAMPLE_CHUNK trials is the unit of generation: each chunk
is drawn whole from its own streams, independently of execution order,
so results are bit-identical across runs and thread counts.  Within a
chunk the likely outcomes are counted with one multinomial draw per
trial and only the rest are drawn one by one, several draws from each
raw Philox word (``sample_means``).  The binomial streams are numpy's
and the words are read in native byte order, so bit identity holds for
a fixed numpy version and byte order.  Trial means are
prefix-consistent, so the thresholds of one M share one draw: each xi
reports on the prefix where its own doubling rule stops, with the same
numbers as a sweep of that xi alone.

A ``ProtocolConfig`` holds the grids of M and xi, and ``simulate`` runs
them, one ``xi_sweep`` per M on one pair of outcome distributions; each
sweep builds the sampling table of each hypothesis once
(``sampling_table``) and draws every doubling rung from it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .estimator import outcome_distribution, received_state, sld_observable
from .qfi import (BATH_TAIL, default_cutoff, qfi_bounds, qfi_schmidt,
                  require_information, thermal_cutoff)
from .states import SchmidtState, parse_family, state_from_family

# trials per Philox chunk, the unit of generation: a doubling ladder from a
# multiple of it (2048 trials, say) never generates a chunk twice
SAMPLE_CHUNK = 1024
GUIDE_SIZE = 1 << 14      # fewest guide-table buckets; powers of two, read from raw bits
# draws per sampling block: its two scratch buffers, intp buckets and float64
# outcomes, take 512 KB each, so a block's work stays in a 2 MB L2 cache
BLOCK_DRAWS = 1 << 16
# an outcome expected at least this often per trial is counted by a binomial
# rather than drawn one by one: above M p = 30 numpy's binomial is BTPE, at
# 90-105 ns, against 5-6 ns a packed draw, but below it is inversion, whose
# 120-240 ns (M p = 10-29) grows with M p and buys no more than the draws
HEAD_DRAWS = 30
MIN_ERROR_EVENTS = 50
Z_95 = 1.959963984540054  # two-sided 95 % quantile of the standard normal


class UnresolvedStatisticsError(RuntimeError):
    """Too few error events to resolve an exponent at the trial budget."""


def _is_int(v) -> bool:
    # bool is an Integral: a JSON true would run as 1 and print "True"
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass
class ProtocolConfig:
    """All parameters of one simulate run, one field per key of its JSON
    config.  ``m`` and ``xi`` are the grids the run covers, every xi at
    every M; a number stands for a one-element grid.  The cutoffs are not
    parameters: ``prepare_distributions`` derives both from the
    transmitter and the bath."""

    family: str = "tmsv"
    n_signal: float = 0.5
    n_bath: float = 1.0
    eta: float = 0.1                  # true reflectivity under H1
    m: tuple = (500,)                 # copies averaged per trial
    xi: tuple = (0.5,)                # threshold fractions, declare at eta_hat > xi*eta
    trials: int = 100_000
    seed: int = 2024
    trials_cap_factor: int = 8        # adaptive doubling cap, multiple of trials

    def __post_init__(self):
        self.m, self.xi = (tuple(v) if isinstance(v, (list, tuple)) else (v,)
                           for v in (self.m, self.xi))
        if not self.m or not self.xi:
            raise ValueError("'m' and 'xi' need at least one value each")
        parse_family(self.family)
        for name in ("n_signal", "n_bath", "eta"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.n_signal < 0 or self.n_bath < 0:
            raise ValueError("mean photon numbers must be >= 0")
        if not all(isinstance(x, numbers.Real) and 0.0 < x < 1.0 for x in self.xi):
            raise ValueError(f"every xi must lie strictly between 0 and 1, "
                             f"got {list(self.xi)!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("reflectivity must lie in [0, 1]")
        if not all(_is_int(v) and v >= 1
                   for v in (*self.m, self.trials, self.trials_cap_factor)):
            raise ValueError("m, trials and trials_cap_factor must be integers >= 1")
        self.m, self.xi = tuple(map(int, self.m)), tuple(map(float, self.xi))
        # the seed is the 64-bit Philox key: outside [0, 2^64) distinct seeds would collide
        if not (_is_int(self.seed) and 0 <= self.seed < 1 << 64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")


@dataclass
class ErrorReport:
    """Estimated error probabilities and decay rates for one (config, M).

    The classical fields are :func:`classical_error_closed`, the paper's
    eta -> 0 form for a coherent transmitter: its outcomes have variance
    1/H_C under both hypotheses there.  At finite eta a coherent
    transmitter's H1 outcomes have variance (1/H_C)(1 + 2(1 - eta^2)
    N_B)/(1 + 2 N_B), 1.49 against 1.5 at N_S = 0.5, N_B = 1, eta = 0.1,
    so ``p_type2_classical`` is that limit, not the finite-eta value."""

    family: str
    n_signal: float
    n_bath: float
    eta: float
    xi: float
    m_copies: int
    trials: int
    errors_type1: int
    errors_type2: int
    p_type1: float
    p_type1_ci: tuple
    p_type2: float
    p_type2_ci: tuple
    pr_err: float                     # (P_I + P_II) / 2, the equal-prior error
    rate_type1_raw: float             # -log(P_I) / M
    rate_type2_raw: float
    rate_type1: float                 # Gaussian-tail-inverted rate
    rate_type1_err: float
    rate_type2: float
    rate_type2_err: float
    rate_type1_pred: float            # xi^2 eta^2 H / 2
    rate_type2_pred: float            # (1-xi)^2 eta^2 H / 2
    h: float
    p_type1_classical: float
    p_type2_classical: float
    pr_err_opt_classical: float
    seed: int

    CSV_HEADER = ("family,N_S,N_B,eta,xi,M,trials,errors_I,errors_II,"
                  "P_I,P_I_lo,P_I_hi,P_II,P_II_lo,P_II_hi,Pr_err,"
                  "rate_I_raw,rate_II_raw,rate_I,rate_I_err,rate_II,rate_II_err,"
                  "rate_I_pred,rate_II_pred,H,P_I_classical,P_II_classical,"
                  "Pr_err_opt_classical,seed")

    def to_csv_row(self) -> str:
        # the fields are declared in CSV_HEADER's order, each CI as its (lo, hi)
        # cells; str writes a float as repr does, and a numpy scalar as a number
        cells = [c for v in astuple(self) for c in (v if isinstance(v, tuple) else (v,))]
        return ",".join(map(str, cells))


def wilson_interval(successes: int, n: int):
    """95 % Wilson score interval; well behaved for probabilities near 0."""
    if n <= 0:
        raise ValueError("zero trials")
    phat = successes / n
    z = Z_95
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def classical_error_closed(n_signal: float, n_bath: float, eta: float,
                           m_copies: int, xi: float):
    """Closed-form coherent-transmitter error probabilities.

    P_I,II = erfc(sqrt(eta_{I,II}^2 H_C M / 2)) / 2 with eta_I = xi*eta,
    eta_II = (1-xi)*eta, plus the globally optimal error probability
    exp(-eta^2 N_S (sqrt(N_B+1) - sqrt(N_B))^2 M).
    """
    if min(n_signal, n_bath, eta) < 0 or m_copies < 0 or not 0 < xi < 1:
        raise ValueError("invalid classical-error parameters")
    _, _, h_c = qfi_bounds(n_signal, n_bath)
    p1 = 0.5 * math.erfc(math.sqrt((xi * eta) ** 2 * h_c * m_copies / 2.0))
    p2 = 0.5 * math.erfc(math.sqrt(((1 - xi) * eta) ** 2 * h_c * m_copies / 2.0))
    pr_opt = math.exp(-eta ** 2 * n_signal
                      * (math.sqrt(n_bath + 1) - math.sqrt(n_bath)) ** 2 * m_copies)
    return p1, p2, pr_opt


def _chunk_generator(seed: int, stream: int, chunk: int, part: int = 0) -> Generator:
    """The counter-based generator of one trial chunk, order-independent:
    part 0 draws the counts and the tail lanes, part 1 the fresh words of
    the tail draws that a guide bucket does not resolve."""
    # a uint64 array: a list with a seed >= 2^63 would pass through float64
    return Generator(Philox(counter=[0, chunk, part, 0],
                            key=np.array([seed, stream], dtype=np.uint64)))


class GuideTable(NamedTuple):
    """Two-level guide table over the uniform u of a tail draw (Chen &
    Asau, AIIE Trans. 6, 163, 1974).  ``buckets`` holds the outcome value
    of each of the 2^b buckets [k, k + 1) 2^-b of u, or NaN where a CDF
    step falls strictly inside the bucket.  The row of step bucket k
    starts at ``sub[rows[k]]``: its 2^s sub-buckets [k 2^s + j, k 2^s + j
    + 1) 2^-(b+s) of u, each its outcome value or NaN again."""

    buckets: np.ndarray
    rows: np.ndarray
    sub: np.ndarray
    sub_bits: int


def _cell_values(vals: np.ndarray, at: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Cells 0 to at[-1] - 1 of a guide table: cell c holds vals[i] for
    the first i with at[i] > c, or NaN where a step i with at[i] = c lies
    strictly inside it (``inside[i]``); ``at`` is nondecreasing."""
    cells = np.repeat(vals, np.diff(at, prepend=0))
    cells[at[inside]] = np.nan
    return cells


def _guide_table(vals: np.ndarray, cdf: np.ndarray) -> GuideTable:
    """The guide table of the outcomes ``vals`` with CDF ``cdf``.  There
    are 2^b buckets, the smallest power of two with four buckets per
    outcome, at least GUIDE_SIZE, so that few buckets hold a step.  The
    S step buckets get 2^s sub-buckets each, s = floor(log2(2^b / S)) and
    at most 8, so the second level is never larger than the first.

    Both levels come from one pass over the steps: cdf 2^b is exact, so
    its floor is the bucket of each step, and a step lies strictly inside
    that bucket unless the product is whole.  A bucket with no step
    inside holds, for every u in it, the first outcome i with cdf[i] > u.
    A step's place in its bucket, (cdf 2^b - bucket) 2^s, is exact too,
    and places it among the sub-buckets of its row; the steps of the
    other buckets sit on a bucket edge, and so on the edge of a row."""
    size = max(GUIDE_SIZE, 1 << (4 * len(vals) - 1).bit_length())
    scaled = cdf * size
    at = scaled.astype(np.intp)
    inside = at != scaled
    # the buckets holding a step, each once: at is nondecreasing
    stepped = at[inside]
    stepped = stepped[np.diff(stepped, prepend=-1) > 0]
    sub_bits = min(8, (size // max(1, len(stepped))).bit_length() - 1)
    # where each bucket's row starts, or the next row for a bucket without one
    rows = np.repeat(np.arange(len(stepped) + 1) << sub_bits,
                     np.diff(stepped, prepend=-1, append=size))
    place = (scaled - at) * (1 << sub_bits)
    sub_at = place.astype(np.intp)
    return GuideTable(_cell_values(vals, at, inside), rows,
                      _cell_values(vals, rows[at] + sub_at, place != sub_at), sub_bits)


@dataclass
class SamplingTable:
    """What the draws from one outcome law at M copies read, built once
    by :func:`sampling_table` and shared by every trial range drawn."""

    head_vals: np.ndarray             # counted outcomes, in value order
    pvals: np.ndarray                 # multinomial masses: the head, then the tail
    tail_vals: np.ndarray             # outcomes drawn one by one, in value order
    cdf: np.ndarray | None            # their CDF, exactly 1 at the end; None without a tail
    guide: GuideTable | None


def sampling_table(values: np.ndarray, probabilities: np.ndarray, m: int) -> SamplingTable:
    """The outcomes of a finite law sorted by value, split into the head
    counted at M = ``m`` and the tail drawn one by one, and the tail's
    CDF and guide table; see :func:`sample_means`."""
    order = np.argsort(values)
    vals = values[order]
    p = np.asarray(probabilities, dtype=float)[order]
    if not np.isfinite(p).all():
        raise ValueError("outcome probabilities must be finite")
    p = np.maximum(p, 0.0)
    total = p.sum()
    if not total > 0.0:
        raise ValueError("outcome probabilities have no positive mass")
    # a zero-probability outcome is never drawn
    vals, p = vals[p > 0.0], p[p > 0.0] / total
    in_head = m * p >= HEAD_DRAWS
    head_p, tail_p = p[in_head], p[~in_head]
    # multinomial's last category takes the remaining mass: the tail, or
    # the last head outcome when there is no tail
    if not len(tail_p):
        return SamplingTable(vals[in_head], head_p, vals[~in_head], None, None)
    pvals = np.append(head_p, max(0.0, 1.0 - head_p.sum()))
    cdf = np.cumsum(tail_p)
    # exactly 1 at the end, so every u in [0, 1) finds an outcome
    cdf /= cdf[-1]
    return SamplingTable(vals[in_head], pvals, vals[~in_head], cdf,
                         _guide_table(vals[~in_head], cdf))


def _tail_sums(gen: Generator, fresh: Generator, counts: np.ndarray,
               table: SamplingTable, scratch: tuple) -> np.ndarray:
    """Per trial, the sum of ``counts[t]`` inverse-CDF draws from the tail
    outcomes of ``table``, drawn in trial order in blocks of whole trials
    of at most BLOCK_DRAWS draws (one trial at least).  ``scratch`` is an
    intp and a float64 buffer, each at least one block long, that hold a
    block's buckets and outcomes.

    A draw u selects the outcome i with cdf[i-1] <= u < cdf[i].  The
    first level of the guide table resolves most draws with one lookup:
    every bucket of u that no CDF step enters holds its outcome directly.

    A bucket needs b bits, so each raw 64-bit word of ``gen`` gives
    several draws: it is read as 16-bit lanes when b <= 16, as 32-bit
    lanes otherwise, in native byte order, and a lane's top b bits are
    its bucket.  A draw whose bucket holds a CDF step takes the next raw
    word r of ``fresh`` for its place in the bucket, u = (bucket 2^(53-b)
    + (r >> (11 + b))) 2^-53.  So u is uniform on the 2^-53 grid of
    ``Generator.random``, and every outcome keeps its exact probability.
    Draw k is lane k of ``gen`` and the j-th draw taking a fresh word
    takes word j of ``fresh``, so the counts fix both streams' layout.

    The top s bits of r are the top s bits of u's place in the bucket,
    so they pick its sub-bucket, and the second level resolves most of
    these draws with a second lookup.  The few whose sub-bucket holds a
    step too are searched over the whole CDF in sorted order: a binary
    search over sorted keys follows the branch predictor, one over
    random keys costs several times as much in mispredicted branches.
    """
    guide = table.guide
    bits = len(guide.buckets).bit_length() - 1
    lane = np.dtype(np.uint16 if bits <= 16 else np.uint32)
    per_word = 8 // lane.itemsize
    shift = 8 * lane.itemsize - bits
    offsets = np.concatenate(([0], np.cumsum(counts)))
    sums = np.zeros(len(counts))
    words_drawn = 0
    t = 0
    while t < len(counts):
        s = max(t + 1, int(np.searchsorted(offsets, offsets[t] + BLOCK_DRAWS,
                                           side="right")) - 1)
        start, stop = offsets[t], offsets[s]
        words = gen.bit_generator.random_raw(-(-stop // per_word) - words_drawn)
        words_drawn += len(words)
        first = start % per_word
        if first:
            # the block's first lanes are in the previous block's last word
            words = np.concatenate((last, words))
        last = words[-1:]
        # a gather is fastest with an intp index
        bucket = np.right_shift(words.view(lane)[first:first + stop - start], shift,
                                out=scratch[0][:stop - start])
        # every bucket is in range, so "clip" changes nothing; the default
        # "raise" would buffer the output
        x = guide.buckets.take(bucket, out=scratch[1][:stop - start], mode="clip")
        miss = np.flatnonzero(np.isnan(x))
        if len(miss):
            r = fresh.bit_generator.random_raw(len(miss))
            stepped = bucket[miss]
            y = guide.sub[guide.rows[stepped] | (r >> (64 - guide.sub_bits)).astype(np.intp)]
            deep = np.flatnonzero(np.isnan(y))
            if len(deep):
                u = ((stepped[deep].astype(np.uint64) << (53 - bits))
                     | (r[deep] >> (11 + bits))) * 2.0 ** -53
                order = np.argsort(u)
                y[deep[order]] = table.tail_vals[np.searchsorted(table.cdf, u[order],
                                                                 side="right")]
            x[miss] = y
        # reduceat gives an empty segment the value at its start, not 0
        drawn = np.flatnonzero(counts[t:s]) + t
        if len(drawn):
            sums[drawn] = np.add.reduceat(x, offsets[drawn] - start)
        t = s
    return sums


def sample_means(values: np.ndarray, probabilities: np.ndarray, m: int,
                 trials: int, seed: int, stream: int, first: int = 0,
                 table: SamplingTable | None = None) -> np.ndarray:
    """Trial means of m draws from a finite outcome distribution.

    Returns the means of trials ``first`` to ``first + trials - 1``.  Trial
    t is row t mod SAMPLE_CHUNK of chunk t // SAMPLE_CHUNK.  A chunk is the
    unit of generation: every chunk the range touches is generated on its
    own streams from its start, up to the range's end, and the result
    sliced, so drawing a trial range in parts gives the same means as
    drawing it at once.  ``table``, when given, is ``sampling_table(values,
    probabilities, m)``, built once by a caller that draws several ranges.

    A mean depends only on how often each outcome was drawn.  The head
    outcomes, those with m p_j >= HEAD_DRAWS, are counted in value order,
    which roundoff in p cannot change: one ``Generator.multinomial(m,
    [p_head..., p_tail])`` call gives every trial of the chunk its head
    counts and its tail count c, by conditional binomials (C. S. Davis,
    Comput. Stat. Data Anal. 16, 205, 1993), and the head sum is the row
    sum of counts times values.  Each trial's c tail draws then come one
    by one, in trial order, through a two-level guide table over the tail
    outcomes, several draws from each raw word of the same generator
    (``_tail_sums``).  Given the counts, the tail draws are independent
    draws from the tail's conditional law, so every mean has the law of m
    independent draws.  No BLAS call is involved, so the means do not
    depend on the BLAS thread count.  The binomials are numpy's and the
    words are read in native byte order, so the means are bit-identical
    for a fixed numpy version and byte order.

    Probabilities below zero (roundoff down to -1e-10) are clamped to
    zero, and the distribution is normalized by its total mass; NaN or
    infinite probabilities, or no positive mass, raise ValueError.  The
    mass falls short of 1 by the received state's truncation deficit.  For
    tmsv the automatic cutoffs leave 1.9e-9 at N_B = 1 and 4.3e-9 at N_B =
    3, far below Monte Carlo resolution: nearly all of it is the bath's
    1e-8 thermal tail, since the transmitter keeps its own tail below
    1e-12 at any N_S (6.4e-13 at N_S = 5).
    """
    if table is None:
        table = sampling_table(values, probabilities, m)
    if table.cdf is not None:
        # one pair of block buffers for every chunk: a 512 KB temporary
        # freed after each block would be a fresh mmap under glibc's default
        # 128 KB threshold, and fault in each of its pages again
        scratch = np.empty(max(BLOCK_DRAWS, m), dtype=np.intp), np.empty(max(BLOCK_DRAWS, m))
    stop = first + trials
    out = np.empty(trials)
    for chunk in range(first // SAMPLE_CHUNK, -(-stop // SAMPLE_CHUNK)):
        lo = chunk * SAMPLE_CHUNK
        n = min(stop, lo + SAMPLE_CHUNK) - lo
        gen = _chunk_generator(seed, stream, chunk)
        counts = gen.multinomial(m, table.pvals, size=SAMPLE_CHUNK)[:n]
        sums = (counts[:, :len(table.head_vals)] * table.head_vals).sum(axis=1)
        if table.cdf is not None:
            sums += _tail_sums(gen, _chunk_generator(seed, stream, chunk, part=1),
                               counts[:, -1], table, scratch)
        begin = max(first, lo)
        out[begin - first:lo + n - first] = sums[begin - lo:] / m
    return out


@dataclass
class ProtocolDistributions:
    """The two outcome distributions of one config, reusable across M and xi."""

    state: SchmidtState
    h: float
    dist_absent: object
    dist_present: object


def prepare_distributions(cfg: ProtocolConfig) -> ProtocolDistributions:
    """Build the transmitter, the optimal observable, and the outcome
    distributions under both hypotheses.  This is the expensive part; the
    eigendecomposition runs once per configuration.  The transmitter
    cutoff is ``default_cutoff``'s and the returned mode's keeps its thermal
    tail below BATH_TAIL.  H = 0 is a ValueError: with photons that of
    :func:`require_information`, without them that of :func:`sld_observable`."""
    d_signal = default_cutoff(cfg.family, cfg.n_signal)
    dim_bath = thermal_cutoff(cfg.n_bath, BATH_TAIL)
    state = state_from_family(cfg.family, cfg.n_signal, d_signal)
    rep = qfi_schmidt(state, cfg.n_bath)
    require_information(state, rep)
    obs = sld_observable(state, cfg.n_bath, dim_bath)
    rho0 = received_state(state, cfg.n_bath, 0.0, dim_bath)
    rho1 = received_state(state, cfg.n_bath, cfg.eta, dim_bath)
    d0 = outcome_distribution(rho0, obs)
    d1 = outcome_distribution(rho1, obs)
    return ProtocolDistributions(state, rep.h, d0, d1)


def _erfcinv_2p(p: float) -> float:
    """erfcinv(2 p) for p in (0, 1), the x with erfc(x) = 2 p.

    The p > 1/2 half is -erfcinv(2 (1 - p)), where 1 - p is exact.  For
    p <= 1/2 the start is the rational approximation 26.2.23 of Abramowitz
    and Stegun to the normal quantile (error below 4.5e-4), divided by
    sqrt(2), and Halley steps on f = erfc(x) - 2 p, x -= u / (1 + x u)
    with u = f / f' and f' = -2 e^(-x^2) / sqrt(pi), converge cubically
    from there.  Above p = 1/4, f is read as (1 - 2 p) - erf(x), both
    terms exact or relatively accurate, so that x near 0 keeps its
    relative accuracy where erfc(x) - 2 p would cancel.
    """
    if p > 0.5:
        return -_erfcinv_2p(1.0 - p)
    t = math.sqrt(-2.0 * math.log(p))
    x = (t - (2.515517 + t * (0.802853 + t * 0.010328))
         / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))) / math.sqrt(2.0)
    for _ in range(3):
        f = (1.0 - 2.0 * p) - math.erf(x) if p > 0.25 else math.erfc(x) - 2.0 * p
        u = f / (-2.0 / math.sqrt(math.pi) * math.exp(-x * x))
        x -= u / (1.0 + x * u)
    return x


def _gauss_rate_point(p: float, p_lo: float, p_hi: float, m: int):
    """Gaussian-tail-inverted rate erfcinv(2P)^2 / M with its CI half-width."""
    if not 0.0 < p < 0.5:
        return math.nan, math.nan
    y = _erfcinv_2p(p) ** 2
    ys = [_erfcinv_2p(min(max(q, 1e-300), 1 - 1e-12)) ** 2 for q in (p_hi, p_lo)]
    err = 0.5 * abs(ys[1] - ys[0])
    return y / m, err / m


def xi_sweep(cfg: ProtocolConfig, m: int, dists: ProtocolDistributions) -> list:
    """Run the threshold test at M = ``m`` over the grid ``cfg.xi`` on one
    shared draw.

    Both hypothesis branches are sampled once, each from a sampling
    table built once for this M, and trials double
    (trials, 2 trials, ... up to ``trials_cap_factor`` times the configured
    count) until every threshold has at least 50 events in both error
    classes or the cap is reached; each doubling draws only the new
    trials.  Each xi then reports on the first rung of that ladder where
    both of its own error counts reach 50, or on the last one.  Trial
    means are prefix-consistent, so every report equals a sweep of that
    xi alone, bit for bit.  Deterministic given the seed.
    """
    trials = cfg.trials
    cap = cfg.trials * cfg.trials_cap_factor
    absent, present = dists.dist_absent, dists.dist_present
    # each hypothesis's tables are built once, and every rung draws from them
    table0 = sampling_table(absent.values, absent.probabilities, m)
    table1 = sampling_table(present.values, present.probabilities, m)
    means0 = means1 = np.empty(0)
    ladder = []                       # (trials, error counts per xi) of each rung
    while True:
        drawn = len(means0)
        means0 = np.concatenate([means0, sample_means(
            absent.values, absent.probabilities, m, trials - drawn, cfg.seed,
            stream=2 * m, first=drawn, table=table0)])
        means1 = np.concatenate([means1, sample_means(
            present.values, present.probabilities, m, trials - drawn, cfg.seed,
            stream=2 * m + 1, first=drawn, table=table1)])
        counts = [(int(np.count_nonzero(means0 > xi * cfg.eta)),
                   int(np.count_nonzero(means1 <= xi * cfg.eta))) for xi in cfg.xi]
        ladder.append((trials, counts))
        if all(min(k1, k2) >= MIN_ERROR_EVENTS for k1, k2 in counts) or trials >= cap:
            break
        trials = min(cap, trials * 2)

    # maxfock:<d> fixes its own N_S, whatever the config asks for
    n_signal = dists.state.meta["n_signal"]
    reports = []
    for j, xi in enumerate(cfg.xi):
        # where a sweep of this xi alone stops: its first resolved rung, else the last
        trials, counts = next((rung for rung in ladder
                               if min(rung[1][j]) >= MIN_ERROR_EVENTS), ladder[-1])
        k1, k2 = counts[j]
        p1, p2 = k1 / trials, k2 / trials
        ci1 = wilson_interval(k1, trials)
        ci2 = wilson_interval(k2, trials)
        rate1, err1 = _gauss_rate_point(p1, *ci1, m)
        rate2, err2 = _gauss_rate_point(p2, *ci2, m)
        c1, c2, c_opt = classical_error_closed(n_signal, cfg.n_bath, cfg.eta, m, xi)
        reports.append(ErrorReport(
            family=cfg.family,
            n_signal=n_signal,
            n_bath=cfg.n_bath,
            eta=cfg.eta,
            xi=xi,
            m_copies=m,
            trials=trials,
            errors_type1=k1,
            errors_type2=k2,
            p_type1=p1,
            p_type1_ci=ci1,
            p_type2=p2,
            p_type2_ci=ci2,
            pr_err=0.5 * (p1 + p2),
            rate_type1_raw=-math.log(p1) / m if p1 > 0 else math.inf,
            rate_type2_raw=-math.log(p2) / m if p2 > 0 else math.inf,
            rate_type1=rate1,
            rate_type1_err=err1,
            rate_type2=rate2,
            rate_type2_err=err2,
            rate_type1_pred=(xi * cfg.eta) ** 2 * dists.h / 2.0,
            rate_type2_pred=((1 - xi) * cfg.eta) ** 2 * dists.h / 2.0,
            h=dists.h,
            p_type1_classical=c1,
            p_type2_classical=c2,
            pr_err_opt_classical=c_opt,
            seed=cfg.seed,
        ))
    return reports


def simulate(cfg: ProtocolConfig, dists: ProtocolDistributions | None = None,
             threads: int = 1) -> list:
    """Every (M, xi) report of a config, M-major in the order of ``cfg.m``
    and ``cfg.xi``: one ``xi_sweep`` per M, all on one pair of outcome
    distributions.  With ``threads > 1`` the M values run on a thread
    pool; the reports are bit-identical either way."""
    dists = dists or prepare_distributions(cfg)

    def sweep(m):
        return xi_sweep(cfg, m, dists)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            sweeps = list(pool.map(sweep, cfg.m))
    else:
        sweeps = map(sweep, cfg.m)
    return [rep for reports in sweeps for rep in reports]


def gaussian_rate_fit(m_grid, p_estimates, p_errs):
    """Decay rate via the Gaussian tail inversion y = erfcinv(2P)^2 = rate*M.

    ``p_errs`` are one-sigma errors of the P estimates; they propagate
    through the inversion and weight the through-origin fit.
    """
    ms = np.asarray(m_grid, dtype=float)
    ps = np.asarray(p_estimates, dtype=float)
    if np.any(ps <= 0.0) or np.any(ps >= 0.5):
        raise UnresolvedStatisticsError(
            "estimates outside (0, 1/2); the tail inversion needs resolved errors")
    x = np.vectorize(_erfcinv_2p)(ps)
    y = x ** 2
    # dy/dP = -2 x sqrt(pi) e^{x^2}
    sig = np.abs(2.0 * x * math.sqrt(math.pi) * np.exp(x ** 2)
                 * np.asarray(p_errs, dtype=float)) + 1e-30
    w = 1.0 / sig ** 2
    denom = float(np.sum(w * ms * ms))
    rate = float(np.sum(w * ms * y) / denom)
    stderr = math.sqrt(1.0 / denom)
    return rate, stderr
