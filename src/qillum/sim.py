"""Monte Carlo simulation of the reflectivity-threshold detection protocol.

Each trial draws M single-copy outcomes of the optimal observable, takes
their mean as the reflectivity estimate, and declares the object present
when the estimate exceeds xi * eta.  Type I and II error probabilities
are estimated with Wilson confidence intervals.  Exponential decay rates
come from ``gaussian_rate_fit``, which inverts the Gaussian tail form
before fitting, y(M) = erfcinv(2 P)^2 = rate * M.  A plain fit of -log P
against M would be biased upward at desk-scale M by the subexponential
prefactor of the true tail (for a Gaussian mean, P = erfc(sqrt(rate * M))
/ 2, whose -log P carries an additive ~ 0.5 log M term); the inversion
removes that prefactor and recovers the rate already at moderate M.
These are the rates compared against the predictions xi^2 eta^2 H / 2.

Sampling uses counter-based RNG streams keyed by (seed, stream, chunk):
every trial's draws are reproducible independently of execution order,
so results are bit-identical across runs and thread counts.  Trial means
are prefix-consistent, so the thresholds of one M share one draw: each
xi reports on the prefix where its own doubling rule stops, with the
same numbers as a sweep of that xi alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import erfc, erfcinv

from .estimator import outcome_distribution, received_state, sld_observable
from .qfi import BATH_TAIL, default_cutoff, qfi_bounds, qfi_schmidt, thermal_cutoff
from .states import SchmidtState, parse_family, state_from_family

SAMPLE_CHUNK = 4096
GUIDE_SIZE = 1 << 14      # fewest guide-table buckets; powers of two keep u * size exact
BLOCK_DRAWS = 1 << 15     # uniforms per sampling block, small enough to stay in cache
MIN_ERROR_EVENTS = 50


class UnresolvedStatisticsError(RuntimeError):
    """Too few error events to resolve an exponent at the trial budget."""


@dataclass
class ProtocolConfig:
    """All parameters of one hypothesis-test run."""

    family: str = "tmsv"
    n_signal: float = 0.5
    n_bath: float = 1.0
    eta: float = 0.1                  # true reflectivity under H1
    m_copies: int = 500               # copies averaged per trial
    xi: float = 0.5                   # threshold fraction, declare at eta_hat > xi*eta
    prior_absent: float = 0.5
    prior_present: float = 0.5
    trials: int = 100_000
    seed: int = 2024
    d_signal: int | None = None       # transmitter cutoff (None = qfi.default_cutoff)
    dim_bath: int | None = None       # returned-mode cutoff (None = qfi.thermal_cutoff)
    phase: float = 0.0                # coherent-transmitter phase
    trials_cap_factor: int = 8        # adaptive doubling cap, multiple of trials

    def __post_init__(self):
        parse_family(self.family)
        if not all(map(math.isfinite, (self.n_signal, self.n_bath, self.eta, self.phase,
                                       self.prior_absent, self.prior_present))):
            raise ValueError("n_signal, n_bath, eta, phase and priors must be finite")
        if self.n_signal < 0 or self.n_bath < 0:
            raise ValueError("mean photon numbers must be >= 0")
        if not 0.0 < self.xi < 1.0:
            raise ValueError("threshold fraction must lie strictly between 0 and 1")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("reflectivity must lie in [0, 1]")
        # bool is an Integral: a JSON true would run and print "True" as trials
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
                   for v in (self.m_copies, self.trials, self.trials_cap_factor)):
            raise ValueError("m_copies, trials and trials_cap_factor must be integers >= 1")
        if abs(self.prior_absent + self.prior_present - 1.0) > 1e-12 or \
                min(self.prior_absent, self.prior_present) < 0:
            raise ValueError("priors must form a distribution")
        if self.d_signal is not None and self.d_signal < 1:
            raise ValueError("transmitter cutoff d_signal must be >= 1")
        if self.dim_bath is not None and self.dim_bath < 2:
            raise ValueError("returned-mode cutoff dim_bath must be >= 2")


@dataclass
class ErrorReport:
    """Estimated error probabilities and decay rates for one (config, M)."""

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
    pr_err: float
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
        cells = [self.family, repr(self.n_signal), repr(self.n_bath),
                 repr(self.eta), repr(self.xi), str(self.m_copies),
                 str(self.trials), str(self.errors_type1), str(self.errors_type2),
                 repr(self.p_type1), repr(self.p_type1_ci[0]), repr(self.p_type1_ci[1]),
                 repr(self.p_type2), repr(self.p_type2_ci[0]), repr(self.p_type2_ci[1]),
                 repr(self.pr_err), repr(self.rate_type1_raw), repr(self.rate_type2_raw),
                 repr(self.rate_type1), repr(self.rate_type1_err),
                 repr(self.rate_type2), repr(self.rate_type2_err),
                 repr(self.rate_type1_pred), repr(self.rate_type2_pred), repr(self.h),
                 repr(self.p_type1_classical), repr(self.p_type2_classical),
                 repr(self.pr_err_opt_classical), str(self.seed)]
        return ",".join(cells)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["p_type1_ci"] = list(self.p_type1_ci)
        d["p_type2_ci"] = list(self.p_type2_ci)
        return d


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054):
    """Wilson score interval; well behaved for probabilities near 0."""
    if n <= 0:
        raise ValueError("zero trials")
    phat = successes / n
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
    p1 = 0.5 * erfc(math.sqrt((xi * eta) ** 2 * h_c * m_copies / 2.0))
    p2 = 0.5 * erfc(math.sqrt(((1 - xi) * eta) ** 2 * h_c * m_copies / 2.0))
    pr_opt = math.exp(-eta ** 2 * n_signal
                      * (math.sqrt(n_bath + 1) - math.sqrt(n_bath)) ** 2 * m_copies)
    return float(p1), float(p2), pr_opt


def _chunk_generator(seed: int, stream: int, chunk: int, skip: int) -> Generator:
    """Counter-based uniforms of one trial chunk, started ``skip`` draws
    in; order-independent."""
    bg = Philox(counter=[0, chunk, 0, 0], key=[seed & 0xFFFFFFFFFFFFFFFF, stream])
    bg.advance(skip // 4)             # one Philox counter step yields four draws
    gen = Generator(bg)
    gen.random(skip % 4)
    return gen


def _guide_table(vals: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The outcome value of each bucket [b, b + 1) / size of u, or NaN
    where a CDF step falls strictly inside the bucket.  The size is the
    smallest power of two with four buckets per outcome, at least
    GUIDE_SIZE, so that few buckets hold a step."""
    size = max(GUIDE_SIZE, 1 << (4 * len(vals) - 1).bit_length())
    edges = np.arange(size + 1) / size
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    hi = np.searchsorted(cdf, edges[1:], side="left")
    return np.where(lo == hi, vals[lo], np.nan)


def sample_means(values: np.ndarray, probabilities: np.ndarray, m: int,
                 trials: int, seed: int, stream: int, first: int = 0) -> np.ndarray:
    """Trial means of m inverse-CDF draws from a finite outcome distribution.

    Returns the means of trials ``first`` to ``first + trials - 1``.  Trial
    t draws row t mod SAMPLE_CHUNK of chunk t // SAMPLE_CHUNK, so drawing a
    trial range in parts gives the same means as drawing it at once.

    A draw u selects the outcome i with cdf[i-1] <= u < cdf[i].  A guide
    table (Chen & Asau, AIIE Trans. 6, 163, 1974) resolves most draws
    with one lookup: every bucket of u that no CDF step enters holds its
    outcome directly, and only draws in the other buckets (at most one
    per outcome) take the binary search.  Both routes pick the same
    outcome, so the means equal a plain binary-search sampler's bit for
    bit.

    The CDF is normalized by its total mass.  That mass falls short of 1
    by the received state's truncation deficit.  For tmsv the automatic
    cutoffs leave 1.9e-9 at N_B = 1 and 4.3e-9 at N_B = 3, far below
    Monte Carlo resolution: nearly all of it is the bath's 1e-8 thermal
    tail, since the transmitter keeps its own tail below 1e-12 at any N_S
    (6.4e-13 at N_S = 5).
    """
    order = np.argsort(values)
    vals = values[order]
    # probabilities may carry roundoff down to -1e-10; a negative step
    # would make the CDF non-monotone
    cdf = np.cumsum(np.maximum(probabilities[order], 0.0))
    # exactly 1 at the end, so every u in [0, 1) finds an outcome
    cdf /= cdf[-1]
    guide = _guide_table(vals, cdf)
    size = len(guide)
    rows = max(1, BLOCK_DRAWS // m)
    stop = first + trials
    out = np.empty(trials)
    for chunk in range(first // SAMPLE_CHUNK, -(-stop // SAMPLE_CHUNK)):
        begin = max(first, chunk * SAMPLE_CHUNK)
        end = min(stop, (chunk + 1) * SAMPLE_CHUNK)
        gen = _chunk_generator(seed, stream, chunk, (begin - chunk * SAMPLE_CHUNK) * m)
        for t in range(begin, end, rows):
            n = min(rows, end - t)
            u = gen.random((n, m))
            u *= size                 # exact, so u // 1 is the bucket
            x = guide[u.astype(np.intp)]
            miss = np.isnan(x)
            if miss.any():
                x[miss] = vals[np.searchsorted(cdf, u[miss] / size, side="right")]
            out[t - first:t - first + n] = x.mean(axis=1)
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
    eigendecomposition runs once per configuration."""
    d_signal = cfg.d_signal or default_cutoff(cfg.family, cfg.n_signal)
    dim_bath = cfg.dim_bath or thermal_cutoff(cfg.n_bath, BATH_TAIL)
    state = state_from_family(cfg.family, cfg.n_signal, d_signal, phase=cfg.phase)
    rep = qfi_schmidt(state, cfg.n_bath)
    obs = sld_observable(state, cfg.n_bath, dim_bath)
    rho0 = received_state(state, cfg.n_bath, 0.0, dim_bath)
    rho1 = received_state(state, cfg.n_bath, cfg.eta, dim_bath)
    d0 = outcome_distribution(rho0, obs)
    d1 = outcome_distribution(rho1, obs)
    return ProtocolDistributions(state, rep.h, d0, d1)


def _gauss_rate_point(p: float, p_lo: float, p_hi: float, m: int):
    """Gaussian-tail-inverted rate erfcinv(2P)^2 / M with its CI half-width."""
    if not 0.0 < p < 0.5:
        return math.nan, math.nan
    y = float(erfcinv(2.0 * p)) ** 2
    ys = [float(erfcinv(2.0 * min(max(q, 1e-300), 1 - 1e-12))) ** 2
          for q in (p_hi, p_lo)]
    err = 0.5 * abs(ys[1] - ys[0])
    return y / m, err / m


def xi_sweep(cfg: ProtocolConfig, xi_grid,
             dists: ProtocolDistributions | None = None) -> list:
    """Run the threshold test over a grid of xi on one shared draw.

    Both hypothesis branches are sampled once, and trials double
    (trials, 2 trials, ... up to ``trials_cap_factor`` times the configured
    count) until every threshold has at least 50 events in both error
    classes or the cap is reached; each doubling draws only the new
    trials.  Each xi then reports on the first rung of that ladder where
    both of its own error counts reach 50, or on the last one.  Trial
    means are prefix-consistent, so every report equals ``run_protocol``
    with that xi alone, bit for bit.  Deterministic given the seed.
    """
    if dists is None:
        dists = prepare_distributions(cfg)
    xis = [float(x) for x in xi_grid]
    trials = cfg.trials
    cap = cfg.trials * cfg.trials_cap_factor
    means0 = means1 = np.empty(0)
    ladder = []                       # (trials, error counts per xi) of each rung
    while True:
        drawn = len(means0)
        means0 = np.concatenate([means0, sample_means(
            dists.dist_absent.values, dists.dist_absent.probabilities, cfg.m_copies,
            trials - drawn, cfg.seed, stream=2 * cfg.m_copies, first=drawn)])
        means1 = np.concatenate([means1, sample_means(
            dists.dist_present.values, dists.dist_present.probabilities, cfg.m_copies,
            trials - drawn, cfg.seed, stream=2 * cfg.m_copies + 1, first=drawn)])
        counts = [(int(np.count_nonzero(means0 > xi * cfg.eta)),
                   int(np.count_nonzero(means1 <= xi * cfg.eta))) for xi in xis]
        ladder.append((trials, counts))
        if all(min(k1, k2) >= MIN_ERROR_EVENTS for k1, k2 in counts) or trials >= cap:
            break
        trials = min(cap, trials * 2)

    reports = []
    for j, xi in enumerate(xis):
        # where a sweep of this xi alone stops: its first resolved rung, else the last
        trials, counts = next((rung for rung in ladder
                               if min(rung[1][j]) >= MIN_ERROR_EVENTS), ladder[-1])
        k1, k2 = counts[j]
        p1, p2 = k1 / trials, k2 / trials
        ci1 = wilson_interval(k1, trials)
        ci2 = wilson_interval(k2, trials)
        rate1, err1 = _gauss_rate_point(p1, *ci1, cfg.m_copies)
        rate2, err2 = _gauss_rate_point(p2, *ci2, cfg.m_copies)
        c1, c2, c_opt = classical_error_closed(cfg.n_signal, cfg.n_bath, cfg.eta,
                                               cfg.m_copies, xi)
        reports.append(ErrorReport(
            family=cfg.family,
            n_signal=cfg.n_signal,
            n_bath=cfg.n_bath,
            eta=cfg.eta,
            xi=xi,
            m_copies=cfg.m_copies,
            trials=trials,
            errors_type1=k1,
            errors_type2=k2,
            p_type1=p1,
            p_type1_ci=ci1,
            p_type2=p2,
            p_type2_ci=ci2,
            pr_err=cfg.prior_absent * p1 + cfg.prior_present * p2,
            rate_type1_raw=-math.log(p1) / cfg.m_copies if p1 > 0 else math.inf,
            rate_type2_raw=-math.log(p2) / cfg.m_copies if p2 > 0 else math.inf,
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


def run_protocol(cfg: ProtocolConfig,
                 dists: ProtocolDistributions | None = None) -> ErrorReport:
    """Monte Carlo estimate of both error probabilities at one (M, xi)."""
    return xi_sweep(cfg, [cfg.xi], dists)[0]


def gaussian_rate_fit(m_grid, p_estimates, p_errs=None):
    """Decay rate via the Gaussian tail inversion y = erfcinv(2P)^2 = rate*M.

    ``p_errs`` are one-sigma errors of the P estimates; they propagate
    through the inversion and weight the through-origin fit.
    """
    ms = np.asarray(m_grid, dtype=float)
    ps = np.asarray(p_estimates, dtype=float)
    if np.any(ps <= 0.0) or np.any(ps >= 0.5):
        raise UnresolvedStatisticsError(
            "estimates outside (0, 1/2); the tail inversion needs resolved errors")
    x = erfcinv(2.0 * ps)
    y = x ** 2
    if p_errs is None:
        sig = np.full_like(ms, np.median(y) * 0.01 + 1e-30)
    else:
        # dy/dP = -2 x sqrt(pi) e^{x^2}
        sig = np.abs(2.0 * x * math.sqrt(math.pi) * np.exp(x ** 2)
                     * np.asarray(p_errs, dtype=float)) + 1e-30
    w = 1.0 / sig ** 2
    denom = float(np.sum(w * ms * ms))
    rate = float(np.sum(w * ms * y) / denom)
    stderr = math.sqrt(1.0 / denom)
    return rate, stderr
