"""Fisher information of reflectivity estimation for Schmidt-form states.

Everything is evaluated at zero reflectivity, where the received state is
the product of the idler marginal and the thermal background.  The main
entry point is :func:`qfi_schmidt`, the closed pair-sum over Schmidt
terms, summed over the lowering pairs (a, a', <w_a|s|w_a'> != 0) that
:meth:`SchmidtState.lowering_pairs` gives: the consecutive levels of a
Fock-diagonal level state in O(rank), or a shifted-slice ladder for
general vectors.  No d x d or r x r matrix is built on this path, so its
cost does not grow with the cutoff of a level state.
:func:`qfi_cat_direct`, an independent route for the cat family, sums
over the d adjacent idler eigenvector pairs with an explicit received-mode
cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DimensionError, thermal_weights
from .states import MAX_CUTOFF, PRUNE_EPS, SchmidtState, cat_idler_eigenvalues, parse_family

DENOM_GUARD = 1e-14
# Bose-Einstein mass left past the automatic cutoffs (see thermal_cutoff)
SIGNAL_TAIL = 1e-12   # tmsv: H stays within ~1e-11 of its closed form
BATH_TAIL = 1e-8      # simulate: a received-state deficit far below Monte Carlo resolution


class ConvergenceError(RuntimeError):
    """A cutoff sweep hit its limit before the target tolerance."""


@dataclass
class QfiReport:
    """Fisher information of one (state, bath) instance with its bounds.

    ``h`` is the state's information per squared reflectivity; ``h_q1``
    and ``h_q2`` are the two universal upper bounds, ``h_q`` their
    minimum, and ``h_c`` the best classical (coherent-transmitter)
    benchmark at the same photon numbers.  ``h_q2`` is infinite in a
    noiseless bath.
    """

    family: str
    n_signal: float
    n_bath: float
    h: float
    h_q1: float
    h_q2: float
    h_q: float
    h_c: float
    gain_db: float
    cutoff: int
    deficit_warning: float

    @property
    def gain(self) -> float:
        return self.h / self.h_c if self.h_c > 0 else math.nan

    def to_json_dict(self) -> dict:
        def _num(x):
            return x if math.isfinite(x) else None

        return {
            "family": self.family,
            "N_S": self.n_signal,
            "N_B": self.n_bath,
            "H": self.h,
            "H_Q1": self.h_q1,
            "H_Q2": _num(self.h_q2),
            "H_Q": _num(self.h_q),
            "H_C": self.h_c,
            "gain": _num(self.gain),
            "gain_db": _num(self.gain_db),
            "cutoff": self.cutoff,
            "deficit": self.deficit_warning,
            "equals_classical": bool(abs(self.h - self.h_c) <= 1e-9 * max(self.h_c, 1e-300)),
        }


def qfi_bounds(n_signal: float, n_bath: float):
    """Upper bounds and the classical benchmark.

    h_q1 = 4 N_S / (1 + N_B); h_q2 = (2 N_S + 1) / N_B (infinite at
    N_B = 0, where h_q reduces to h_q1); h_c = 4 N_S / (1 + 2 N_B).
    """
    if n_signal < 0 or n_bath < 0:
        raise ValueError("photon numbers must be >= 0")
    h_q1 = 4.0 * n_signal / (1.0 + n_bath)
    h_q2 = (2.0 * n_signal + 1.0) / n_bath if n_bath > 0 else math.inf
    h_c = 4.0 * n_signal / (1.0 + 2.0 * n_bath)
    return h_q1, h_q2, h_c


def qfi_gaussian_closed(n_signal: float, n_bath: float) -> float:
    """Two-mode squeezed vacuum Fisher information in closed form."""
    if n_signal < 0 or n_bath < 0:
        raise ValueError("photon numbers must be >= 0")
    shrink = 1.0 + (n_signal / (1.0 + n_signal)) * (n_bath / (1.0 + n_bath)) \
        if n_signal > 0 else 1.0
    return 4.0 * n_signal / (1.0 + n_bath) / shrink


def qfi_schmidt(state: SchmidtState, n_bath: float) -> QfiReport:
    """Fisher information from the Schmidt pair sum.

    H = 4/(1+N_B) * sum_{a a'} p_a p_a' |<w_a'|s|w_a>|^2
                    / (p_a' + p_a N_B/(N_B+1)),
    including the diagonal pairs, summed over the nonzero matrix
    elements only.  Pairs whose denominator falls under 1e-14 cannot
    occur after pruning and are skipped defensively.
    """
    if n_bath < 0:
        raise ValueError("bath photon number must be >= 0")
    p = state.probs
    q = n_bath / (1.0 + n_bath)
    # rows index a', columns a: numerator p_a p_a', denominator p_a' + p_a q
    rows, cols, values = state.lowering_pairs()
    num = np.abs(values) ** 2 * (p[cols] * p[rows])
    den = p[rows] + p[cols] * q
    mask = den > DENOM_GUARD
    h = 4.0 / (1.0 + n_bath) * float(np.sum(num[mask] / den[mask]))
    n_signal = state.mean_photons()
    h_q1, h_q2, h_c = qfi_bounds(n_signal, n_bath)
    h_q = min(h_q1, h_q2)
    gain_db = 10.0 * math.log10(h / h_c) if h > 0 and h_c > 0 else math.nan
    return QfiReport(
        family=state.meta.get("family", "custom"),
        n_signal=n_signal,
        n_bath=n_bath,
        h=h,
        h_q1=h_q1,
        h_q2=h_q2,
        h_q=h_q,
        h_c=h_c,
        gain_db=gain_db,
        cutoff=state.d_signal,
        deficit_warning=state.deficit,
    )


def require_information(state: SchmidtState, report: QfiReport) -> None:
    """Raise a ValueError if a transmitter built with photons, meta
    ``n_signal`` > 0, has H = 0: every excited Schmidt term fell below the
    pruning floor, at any cutoff, or H fell below the float range."""
    if report.h == 0 and state.meta.get("n_signal", 0.0) > 0:
        raise ValueError(f"N_S = {state.meta['n_signal']:g} gives H = 0: every excited "
                         f"Schmidt term falls below the pruning floor {PRUNE_EPS:g}, "
                         f"or H underflows")


def qfi_cat_direct(n_signal: float, d: int, n_bath: float, dim_received: int) -> float:
    """Cat-family Fisher information from the spectral sum over the d
    adjacent idler pairs, the received mode cut at ``dim_received`` levels.

    The lowering operator takes idler eigenvector l to l-1 only (indices
    mod d), with |<w_{l-1}|s|w_l>|^2 = N_S lam_{l-1} / lam_l, so H =
    4 N_S sum_l lam_{l-1}^2 sum_{n=1}^{dim-1} n (rho_n - rho_{n-1})^2
    / (lam_{l-1} rho_{n-1} + lam_l rho_n) in O(d dim), with lam from
    :func:`cat_idler_eigenvalues` and rho the thermal weights.  It is
    nondecreasing in ``dim_received``; :func:`converge_cutoff` picks one.
    """
    if d < 2:
        raise ValueError("cat states need d >= 2 components")
    if dim_received < 2:
        raise DimensionError("received-mode cutoff must be >= 2")
    lam = cat_idler_eigenvalues(n_signal, d)
    rho = thermal_weights(n_bath, dim_received)
    lower, upper = np.roll(lam, 1)[:, None], lam[:, None]   # lam_{l-1}, lam_l
    den = lower * rho[:-1] + upper * rho[1:]
    num = lower ** 2 * (np.arange(1, dim_received) * np.diff(rho) ** 2)
    ok = den > DENOM_GUARD
    return 4.0 * n_signal * float(np.sum(num[ok] / den[ok]))


def thermal_cutoff(n_mean: float, tail: float) -> int:
    """Two levels past the first whose Bose-Einstein tail of mean ``n_mean``
    is below ``tail``, at least 16; a ConvergenceError above MAX_CUTOFF."""
    # below 2^-53, 1 + N rounds to 1 and the ratio's log would be log(0);
    # the mass above the vacuum is then N itself, far below any tail
    if 1.0 + n_mean <= 1.0:
        return 16
    # log1p keeps the log of the ratio N/(1+N) nonzero however large N is
    cutoff = max(16, math.ceil(math.log(tail) / math.log1p(-1.0 / (1.0 + n_mean))) + 2)
    if cutoff > MAX_CUTOFF:
        raise ConvergenceError(f"a thermal tail below {tail:g} at mean {n_mean:g} needs "
                               f"cutoff {cutoff}, above the cap {MAX_CUTOFF}")
    return cutoff


def default_cutoff(family: str, n_signal: float) -> int:
    """Transmitter cutoff of a family label (see :func:`parse_family`).

    maxfock:<d> keeps its rank d; tmsv keeps its geometric tail below
    SIGNAL_TAIL; coherent and the cat families take the Poisson mean plus
    ten standard deviations and ten levels, never fewer than 20.  A rule
    that asks for more than MAX_CUTOFF is a ConvergenceError.
    """
    name, order = parse_family(family)
    if name == "maxfock":
        return order
    if name == "tmsv":
        return thermal_cutoff(n_signal, SIGNAL_TAIL)
    cutoff = math.ceil(n_signal + 10.0 * math.sqrt(n_signal + 1.0) + 10.0)
    if cutoff > MAX_CUTOFF:
        raise ConvergenceError(f"a Poisson mean {n_signal:g} needs cutoff {cutoff}, "
                               f"above the cap {MAX_CUTOFF}")
    return cutoff


def converge_cutoff(f, start: int, rel_tol: float = 1e-6):
    """Double a cutoff from ``start``, never past MAX_CUTOFF, until
    successive values of ``f`` agree to ``rel_tol``.

    Verifies along the way that the sequence tends monotonically (the
    direction is inferred, not assumed).  Returns (value, cutoff_used).
    """
    if not 0 < rel_tol < math.inf:
        raise ValueError("rel_tol must be positive and finite")
    cutoff = min(int(start), MAX_CUTOFF)
    prev = float(f(cutoff))
    diffs = []
    while cutoff < MAX_CUTOFF:
        cutoff = min(2 * cutoff, MAX_CUTOFF)
        cur = float(f(cutoff))
        diffs.append(cur - prev)
        scale = max(abs(cur), abs(prev), 1e-300)
        if len(diffs) >= 2:
            slack = rel_tol * scale
            if (diffs[-1] > slack and diffs[0] < -slack) or \
               (diffs[-1] < -slack and diffs[0] > slack):
                raise ConvergenceError(
                    f"sequence is not monotone-tending near cutoff {cutoff}")
        if abs(cur - prev) <= rel_tol * scale:
            return cur, cutoff
        prev = cur
    raise ConvergenceError(
        f"no convergence to rel_tol={rel_tol:g} within max cutoff {MAX_CUTOFF}")
