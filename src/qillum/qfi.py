"""Fisher information of reflectivity estimation for Schmidt-form states.

Everything is evaluated at zero reflectivity, where the received state is
the product of the idler marginal and the thermal background.  The main
entry point is :func:`qfi_schmidt`, the closed pair-sum over Schmidt
terms, summed over the nonzero entries of the signal lowering matrix
that :meth:`SchmidtState.lowering_pairs` gives: the consecutive levels
of a Fock-diagonal level state in O(rank), or a shifted-slice ladder for
general vectors.  No d x d operator is built on this path, so its cost
does not grow with the cutoff of a level state.
:func:`qfi_cat_direct` evaluates the cat-family spectral sum with an
explicit received-mode cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DimensionError, thermal_weights
from .states import SchmidtState, cat_idler_eigenvalues, parse_family

DENOM_GUARD = 1e-14
MAX_CUTOFF = 1 << 15
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

    CSV_HEADER = "family,N_S,N_B,H,H_Q1,H_Q2,H_C,gain_db,cutoff,deficit"

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

    def to_csv_row(self) -> str:
        cells = [self.family, repr(self.n_signal), repr(self.n_bath), repr(self.h),
                 repr(self.h_q1), repr(self.h_q2), repr(self.h_c), repr(self.gain_db),
                 str(self.cutoff), repr(self.deficit_warning)]
        return ",".join(cells)


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


def signal_lowering_matrix(state: SchmidtState) -> np.ndarray:
    """Dense r x r view m[i, j] = <w_i| s |w_j> of the state's lowering pairs."""
    rows, cols, values = state.lowering_pairs()
    m = np.zeros((state.rank, state.rank), dtype=np.result_type(values, float))
    m[rows, cols] = values
    return m


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


def qfi_cat_direct(n_signal: float, d: int, n_bath: float, dim_received: int) -> float:
    """Cat-family Fisher information from the spectral quadruple sum.

    Sums over idler eigenvector pairs (l, l') and received-mode levels,
    with the ladder selection rules collapsing one level index.  The
    result is monotonically nondecreasing in ``dim_received``; use
    :func:`converge_cutoff` to pick an adequate cutoff.
    """
    if d < 2:
        raise ValueError("cat states need d >= 2 components")
    if dim_received < 2:
        raise DimensionError("received-mode cutoff must be >= 2")
    lam = cat_idler_eigenvalues(n_signal, d)
    rho = thermal_weights(n_bath, dim_received)
    idx = np.arange(d)
    overlaps = np.exp(-n_signal * (1.0 - np.exp(2j * np.pi * (idx[None, :] - idx[:, None]) / d)))

    n_up = np.arange(1, dim_received)          # levels with a lower neighbor
    diff_dn = rho[n_up] - rho[n_up - 1]
    n_dn = np.arange(0, dim_received - 1)      # levels with an upper neighbor
    diff_up = rho[n_dn] - rho[n_dn + 1]

    total = 0.0
    for l in range(d):
        for lp in range(d):
            phase = np.exp(2j * np.pi * (lp * idx[None, :] - l * idx[:, None]) / d)
            t1 = np.sum(overlaps * phase * np.exp(-2j * np.pi * idx[None, :] / d))
            t2 = np.sum(overlaps * phase * np.exp(2j * np.pi * idx[:, None] / d))
            if abs(t1) > 0:
                den = rho[n_up - 1] * lam[l] + rho[n_up] * lam[lp]
                ok = den > DENOM_GUARD
                total += abs(t1) ** 2 * float(
                    np.sum(n_up[ok] * diff_dn[ok] ** 2 / den[ok]))
            if abs(t2) > 0:
                den = rho[n_dn + 1] * lam[l] + rho[n_dn] * lam[lp]
                ok = den > DENOM_GUARD
                total += abs(t2) ** 2 * float(
                    np.sum((n_dn[ok] + 1) * diff_up[ok] ** 2 / den[ok]))
    return 2.0 * n_signal / d ** 4 * total


def thermal_cutoff(n_mean: float, tail: float) -> int:
    """Two levels past the first whose Bose-Einstein tail of mean ``n_mean``
    is below ``tail``, at least 16; a ConvergenceError above MAX_CUTOFF."""
    if n_mean <= 0:
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
    ten standard deviations and ten levels, never fewer than 20.
    """
    name, order = parse_family(family)
    if name == "maxfock":
        return order
    if name == "tmsv":
        return thermal_cutoff(n_signal, SIGNAL_TAIL)
    return math.ceil(n_signal + 10.0 * math.sqrt(n_signal + 1.0) + 10.0)


def converge_cutoff(f, start: int, rel_tol: float = 1e-6, max_cutoff: int = MAX_CUTOFF):
    """Double a cutoff from ``start``, never past ``max_cutoff``, until
    successive values of ``f`` agree to ``rel_tol``.

    Verifies along the way that the sequence tends monotonically (the
    direction is inferred, not assumed).  Returns (value, cutoff_used).
    """
    if not 0 < rel_tol < math.inf:
        raise ValueError("rel_tol must be positive and finite")
    cutoff = min(int(start), max_cutoff)
    prev = float(f(cutoff))
    diffs = []
    while cutoff < max_cutoff:
        cutoff = min(2 * cutoff, max_cutoff)
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
        f"no convergence to rel_tol={rel_tol:g} within max cutoff {max_cutoff}")
