"""Signal-idler transmitter states in a common Schmidt representation.

A bipartite pure state sum_a sqrt(p_a) |w_a>_S |v_a>_I is stored as the
probabilities p_a plus the signal vectors w_a on a truncated Fock space.
The idler vectors are abstract orthonormal labels and are never
materialized here: every downstream quantity (Fisher information, optimal
observable) depends only on p_a, the w_a, and idler orthonormality.
Measurement-stage code instantiates a concrete idler space of dimension
equal to the Schmidt rank when it needs one.

Level states are Fock-diagonal: each signal vector is one Fock level,
w_a = |L_a>, and the state stores the ascending levels L_a instead of the
vectors (tmsv, cat:inf, maxfock).  Ladder quantities then follow from the
levels in O(rank) at any cutoff; the unit columns are materialized only
when a caller reads ``vectors`` (received states, ``validate``).
States with general vectors (coherent, cat:<d>, :func:`schmidt_decompose`)
store them explicitly and apply the ladder as a shifted slice.  Either
way :meth:`SchmidtState.support` lists where the vectors are nonzero,
and the estimator reads its sectors from that alone: cat:<d> keeps exact
zeros off each residue class n = k (mod d), so its d vectors give d
sectors, while a vector with no gaps (coherent) makes one.

Constructors take the signal cutoff from the caller and report the lost
probability mass as ``deficit``; they never enlarge the space on their
own and never renormalize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PRUNE_EPS = 1e-14
FAMILY_LABELS = ("tmsv", "coherent", "cat:<d>", "cat:inf", "maxfock:<d>")


@dataclass
class SchmidtState:
    """Schmidt-form signal-idler state.

    probs    : (r,) term probabilities p_a (exact, not renormalized);
               a state keeps at least one term
    columns  : (d_signal, r) signal vectors as columns, float64 when the
               amplitudes are real and complex128 otherwise, or None for
               a level state; read them through ``vectors``
    deficit  : probability mass lost to truncation and pruning
    meta     : family label and construction parameters
    levels   : (r,) strictly ascending Fock level of each signal vector
               of a level state, None for general vectors
    """

    probs: np.ndarray
    columns: np.ndarray | None
    d_signal: int
    deficit: float
    meta: dict = field(default_factory=dict)
    levels: np.ndarray | None = None

    def __post_init__(self):
        if self.rank == 0:
            raise ValueError(f"no Schmidt term is kept at cutoff {self.d_signal}; "
                             "every weight is pruned")
        if (self.columns is None) == (self.levels is None):
            raise ValueError("give either explicit signal vectors or Fock levels")
        if self.levels is not None:
            self.levels = np.asarray(self.levels, dtype=np.int64)
            lv = self.levels
            if len(lv) != self.rank or np.any(np.diff(lv) <= 0) \
                    or np.any(lv < 0) or np.any(lv >= self.d_signal):
                raise ValueError("a level state needs one strictly ascending Fock "
                                 "level below the cutoff per term")

    @property
    def rank(self) -> int:
        return len(self.probs)

    @property
    def vectors(self) -> np.ndarray:
        """Signal vectors as columns; a level state builds its real unit
        columns on every read, so keep large-cutoff work on ``levels``."""
        if self.levels is None:
            return self.columns
        unit = np.zeros((self.d_signal, self.rank))
        unit[self.levels, np.arange(self.rank)] = 1.0
        return unit

    def support(self):
        """(levels, terms) of the nonzero signal amplitudes, w_terms[levels]
        != 0: a level state gives its levels without building unit columns,
        general vectors the nonzero entries of ``columns``."""
        if self.levels is not None:
            return self.levels, np.arange(self.rank)
        return np.nonzero(self.columns)

    def mean_photons(self) -> float:
        if self.levels is not None:
            return float(np.sum(self.probs * self.levels))
        lowered = np.sqrt(np.arange(1, self.d_signal))[:, None] * self.columns[1:]
        return float(np.sum(self.probs * np.sum(np.abs(lowered) ** 2, axis=0)))

    def lowering_pairs(self):
        """(rows, cols, values) with m[rows, cols] = values the nonzero entries
        of m[i, j] = <w_i| s |w_j> over the Schmidt vectors.

        A level state has <L_i|s|L_j> = sqrt(L_j) exactly when L_i = L_j - 1,
        so its entries are the pairs of consecutive kept levels, found in
        O(rank) whatever the cutoff and whatever levels pruning removed.
        General vectors take the shifted slice v[:-1]' (sqrt(n) v[1:]).
        """
        if self.levels is not None:
            k = np.flatnonzero(np.diff(self.levels) == 1)
            return k, k + 1, np.sqrt(self.levels[k + 1])
        v = self.columns
        m = v[:-1].conj().T @ (np.sqrt(np.arange(1, self.d_signal))[:, None] * v[1:])
        rows, cols = np.nonzero(m)
        return rows, cols, m[rows, cols]


def _finalize(probs: np.ndarray, vectors: np.ndarray | None, d_signal: int,
              meta: dict) -> SchmidtState:
    """Prune terms below PRUNE_EPS and account the total lost mass.

    ``vectors=None`` makes a level state whose term n is the Fock level n.
    """
    probs = np.asarray(probs, dtype=float)
    keep = probs > PRUNE_EPS
    probs = probs[keep]
    if vectors is None:
        deficit = max(0.0, 1.0 - float(np.sum(probs)))
        return SchmidtState(probs, None, d_signal, deficit, meta, levels=np.flatnonzero(keep))
    vectors = np.asarray(vectors)
    vectors = np.ascontiguousarray(vectors, dtype=np.result_type(vectors, float))[:, keep]
    norms2 = np.sum(np.abs(vectors) ** 2, axis=0)
    deficit = max(0.0, 1.0 - float(np.sum(probs * norms2)))
    return SchmidtState(probs, vectors, d_signal, deficit, meta)


def tmsv(n_signal: float, d_signal: int) -> SchmidtState:
    """Two-mode squeezed vacuum: p_n = n_signal^n / (1+n_signal)^(n+1), w_n = |n>."""
    if n_signal < 0:
        raise ValueError("mean photon number must be >= 0")
    from .fock import thermal_weights

    probs = thermal_weights(n_signal, d_signal)
    return _finalize(probs, None, d_signal,
                     {"family": "tmsv", "n_signal": n_signal})


def coherent_amplitudes(alpha: complex, d_signal: int) -> np.ndarray:
    """Truncated Fock amplitudes exp(-|a|^2/2) a^n / sqrt(n!), real for a
    real ``alpha``."""
    factors = np.empty(d_signal, dtype=np.result_type(alpha, float))
    factors[0] = np.exp(-0.5 * abs(alpha) ** 2)
    factors[1:] = alpha / np.sqrt(np.arange(1, d_signal))
    return np.cumprod(factors)


def coherent(n_signal: float, phase: float, d_signal: int) -> SchmidtState:
    """Coherent transmitter |alpha> with alpha = sqrt(n_signal) e^{i phase}.

    Single Schmidt term; the stored vector keeps the raw truncated
    amplitudes, so its squared norm is 1 minus the Poisson tail.  They are
    real at phase 0 and complex otherwise.
    """
    if n_signal < 0:
        raise ValueError("mean photon number must be >= 0")
    alpha = np.sqrt(n_signal) * np.exp(1j * phase) if phase else math.sqrt(n_signal)
    vec = coherent_amplitudes(alpha, d_signal)
    return _finalize(np.array([1.0]), vec[:, None], d_signal,
                     {"family": "coherent", "n_signal": n_signal, "phase": phase})


def max_entangled_fock(d: int) -> SchmidtState:
    """Flat superposition of the first d Fock levels, p = 1/d, w_n = |n>."""
    if d < 1:
        raise ValueError("rank must be >= 1")
    return _finalize(np.full(d, 1.0 / d), None, d,
                     {"family": f"maxfock:{d}", "d": d, "n_signal": (d - 1) / 2.0})


def cat_idler_eigenvalues(n_signal: float, d: int) -> np.ndarray:
    """Idler reduced-state eigenvalues for the d-component cat transmitter.

    The idler state commutes with the cyclic boost operator, so its
    eigenvectors are the discrete-Fourier combinations of the idler
    labels; the eigenvalues follow from the coherent-state overlaps
    <a_r|a_s> = exp[-n_signal (1 - e^{i 2 pi (s-r)/d})] and equal the
    Poisson masses of photon number regrouped modulo d.
    """
    m = np.arange(d)
    overlaps = np.exp(-n_signal * (1.0 - np.exp(2j * np.pi * m / d)))
    lam = (overlaps[None, :] * np.exp(-2j * np.pi * np.outer(m, m) / d)).sum(axis=1) / d
    if np.abs(lam.imag).max() > 1e-12:
        raise ValueError("idler eigenvalues acquired an imaginary part")
    lam = lam.real
    if lam.min() < -1e-10:
        raise ValueError(f"idler eigenvalue {lam.min():.3e} below tolerance")
    return np.clip(lam, 0.0, None)


def cat_state(n_signal: float, d: int, d_signal: int) -> SchmidtState:
    """Multicomponent cat transmitter: equal superposition of d coherent
    states on the circle |a_k|, a_k = sqrt(n_signal) e^{i 2 pi k / d},
    each tagged by an orthonormal idler label.

    Returns the exact Schmidt form: signal vector k is the normalized
    residue class n = k (mod d) of the truncated coherent amplitudes c_n,
    and its probability the class mass sum_{n < d_signal, n = k mod d}
    |c_n|^2, so the deficit is the Poisson tail, as for :func:`coherent`.
    These direct sums avoid the cancellation of their untruncated limit,
    :func:`cat_idler_eigenvalues`, at small n_signal.  The phase
    convention tying signal vectors to idler eigenvectors is fixed by this
    construction (the Fisher information is invariant to it).
    """
    if n_signal < 0:
        raise ValueError("mean photon number must be >= 0")
    if d < 2:
        raise ValueError("cat states need d >= 2 components")
    # u_k = (1/d) sum_l e^{-i 2 pi k l / d} |a_l>, the unnormalized Schmidt
    # vector, keeps the levels n = k (mod d) of |a_0>: u_k[n] = c_n [n = k mod d]
    amp = coherent_amplitudes(np.sqrt(n_signal), d_signal)
    residue = np.arange(d_signal)[:, None] % d == np.arange(d)[None, :]
    raw = np.where(residue, amp[:, None], 0.0)
    mass = np.sum(np.abs(raw) ** 2, axis=0)
    lam = cat_idler_eigenvalues(n_signal, d)
    if np.any((lam > PRUNE_EPS) & (mass < 0.5 * lam)):
        raise ValueError("signal cutoff too small to resolve a retained component")
    norms = np.sqrt(mass)
    return _finalize(mass, raw / np.where(norms > 0, norms, 1.0), d_signal,
                     {"family": f"cat:{d}", "n_signal": n_signal, "d": d})


def cat_state_infinite_d(n_signal: float, d_signal: int) -> SchmidtState:
    """Infinite-component cat limit: Poisson coefficients p_n, w_n = |n>."""
    if n_signal < 0:
        raise ValueError("mean photon number must be >= 0")
    n = np.arange(d_signal)
    log_p = -n_signal + n * np.log(n_signal) - _log_factorial(n) if n_signal > 0 \
        else np.where(n == 0, 0.0, -np.inf)
    return _finalize(np.exp(log_p), None, d_signal,
                     {"family": "cat:inf", "n_signal": n_signal})


def _log_factorial(n: np.ndarray) -> np.ndarray:
    # log space: a cumprod of Poisson amplitudes underflows at large N_S
    return np.array([math.lgamma(k + 1) for k in np.asarray(n).tolist()], dtype=float)


def schmidt_decompose(amplitudes: np.ndarray, meta: dict | None = None) -> SchmidtState:
    """Schmidt form of a pure state given as a (signal Fock, idler basis)
    amplitude matrix, via singular-value decomposition.

    Terms are sorted by descending probability.  The matrix must have unit
    Frobenius norm to 1e-10.  Real amplitudes give real vectors.
    """
    amplitudes = np.asarray(amplitudes)
    amplitudes = amplitudes.astype(np.result_type(amplitudes, float))
    norm = float(np.linalg.norm(amplitudes))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"amplitude matrix norm {norm:.12f} differs from 1")
    u, sigma, _ = np.linalg.svd(amplitudes, full_matrices=False)
    probs = sigma ** 2
    return _finalize(probs, u, amplitudes.shape[0], meta or {"family": "custom"})


def parse_family(family: str):
    """Split a transmitter label into (name, order).

    Labels: ``tmsv``, ``coherent``, ``cat:<d>``, ``cat:inf``,
    ``maxfock:<d>``.  The order is the integer ``d`` of ``cat:<d>`` and
    ``maxfock:<d>`` and None otherwise; ``cat:inf`` keeps its full label
    as its name.
    """
    if family in ("tmsv", "coherent", "cat:inf"):
        return family, None
    name, _, order = str(family).partition(":")
    if name in ("cat", "maxfock") and order.isdigit():
        return name, int(order)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_LABELS}")


def state_from_family(family: str, n_signal: float, d_signal: int) -> SchmidtState:
    """Build a transmitter from its CLI/config label (see :func:`parse_family`).

    For ``maxfock`` the photon number is fixed by the rank and ``n_signal``
    is ignored.  ``coherent`` is built at phase 0: a phase moves no result
    beyond roundoff.
    """
    name, order = parse_family(family)
    if name == "tmsv":
        return tmsv(n_signal, d_signal)
    if name == "coherent":
        return coherent(n_signal, 0.0, d_signal)
    if name == "cat:inf":
        return cat_state_infinite_d(n_signal, d_signal)
    if name == "cat":
        return cat_state(n_signal, order, d_signal)
    return max_entangled_fock(order)
