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
store them explicitly and apply the ladder as a shifted slice.

Constructors take the signal cutoff from the caller and report the lost
probability mass as ``deficit``; they never enlarge the space on their
own and never renormalize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PRUNE_EPS = 1e-14
FAMILY_LABELS = ("tmsv", "coherent", "cat:<d>", "cat:inf", "maxfock:<d>")


@dataclass
class SchmidtState:
    """Schmidt-form signal-idler state.

    probs    : (r,) term probabilities p_a (exact, not renormalized);
               a state keeps at least one term
    columns  : (d_signal, r) complex signal vectors as columns, or None
               for a level state; read them through ``vectors``
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
        """Signal vectors as columns; a level state builds its unit columns
        on every read, so keep large-cutoff work on ``levels``."""
        if self.levels is None:
            return self.columns
        unit = np.zeros((self.d_signal, self.rank), dtype=np.complex128)
        unit[self.levels, np.arange(self.rank)] = 1.0
        return unit

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

    def validate(self, ortho_tol: float = 1e-9, mass_tol: float = 1e-10) -> None:
        vectors = self.vectors
        gram = vectors.conj().T @ vectors
        dev = np.abs(gram - np.eye(self.rank)).max()
        if dev >= ortho_tol:
            raise ValueError(f"signal vectors not orthonormal, deviation {dev:.3e}")
        mass = float(np.sum(self.probs)) + self.deficit
        if abs(mass - 1.0) > mass_tol:
            raise ValueError(f"probability mass {mass:.12f} differs from 1")
        if np.any(self.probs < 0):
            raise ValueError("negative Schmidt probability")


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
    vectors = np.ascontiguousarray(vectors, dtype=np.complex128)[:, keep]
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
    """Truncated Fock amplitudes exp(-|a|^2/2) a^n / sqrt(n!)."""
    amps = np.empty(d_signal, dtype=np.complex128)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, d_signal):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return amps


def coherent(n_signal: float, phase: float, d_signal: int) -> SchmidtState:
    """Coherent transmitter |alpha> with alpha = sqrt(n_signal) e^{i phase}.

    Single Schmidt term; the stored vector keeps the raw truncated
    amplitudes, so its squared norm is 1 minus the Poisson tail.
    """
    if n_signal < 0:
        raise ValueError("mean photon number must be >= 0")
    alpha = np.sqrt(n_signal) * np.exp(1j * phase)
    vec = coherent_amplitudes(alpha, d_signal)
    return _finalize(np.array([1.0]), vec[:, None], d_signal,
                     {"family": "coherent", "n_signal": n_signal, "phase": phase})


def max_entangled_fock(d: int) -> SchmidtState:
    """Flat superposition of the first d Fock levels, p = 1/d, w_n = |n>."""
    if d < 1:
        raise ValueError("rank must be >= 1")
    return _finalize(np.full(d, 1.0 / d), None, d,
                     {"family": "maxfock", "d": d, "n_signal": (d - 1) / 2.0})


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

    Returns the exact Schmidt form: probabilities are the idler
    eigenvalues from :func:`cat_idler_eigenvalues`; the signal vectors are
    the matched orthonormalized coherent superpositions.  The phase
    convention tying signal vectors to idler eigenvectors is fixed by this
    construction (the Fisher information is invariant to it).
    """
    if n_signal < 0:
        raise ValueError("mean photon number must be >= 0")
    if d < 2:
        raise ValueError("cat states need d >= 2 components")
    lam = cat_idler_eigenvalues(n_signal, d)
    alphas = np.sqrt(n_signal) * np.exp(2j * np.pi * np.arange(d) / d)
    amp = np.column_stack([coherent_amplitudes(a, d_signal) for a in alphas])
    # u_k = (1/d) sum_l e^{-i 2 pi k l / d} |a_l>, the unnormalized Schmidt vector
    phases = np.exp(-2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    raw = amp @ phases.T / d
    keep = lam > PRUNE_EPS
    lam_kept = lam[keep]
    raw_kept = raw[:, keep]
    norms = np.sqrt(np.sum(np.abs(raw_kept) ** 2, axis=0))
    if np.any(norms ** 2 < 0.5 * lam_kept):
        raise ValueError("signal cutoff too small to resolve a retained component")
    vectors = raw_kept / norms
    probs = lam_kept
    state = SchmidtState(probs, vectors, d_signal,
                         max(0.0, 1.0 - float(np.sum(probs * np.sum(np.abs(vectors) ** 2, axis=0)))),
                         {"family": "cat", "n_signal": n_signal, "d": d})
    return state


def cat_state_infinite_d(n_signal: float, d_signal: int) -> SchmidtState:
    """Infinite-component cat limit: Poisson coefficients p_n, w_n = |n>."""
    if n_signal < 0:
        raise ValueError("mean photon number must be >= 0")
    n = np.arange(d_signal)
    log_p = -n_signal + n * np.log(n_signal) - _log_factorial(n) if n_signal > 0 \
        else np.where(n == 0, 0.0, -np.inf)
    return _finalize(np.exp(log_p), None, d_signal,
                     {"family": "cat_inf", "n_signal": n_signal})


def _log_factorial(n: np.ndarray) -> np.ndarray:
    from scipy.special import gammaln

    return gammaln(np.asarray(n, dtype=float) + 1.0)


def schmidt_decompose(amplitudes: np.ndarray, meta: dict | None = None) -> SchmidtState:
    """Schmidt form of a pure state given as a (signal Fock, idler basis)
    amplitude matrix, via singular-value decomposition.

    Terms are sorted by descending probability.  The matrix must have unit
    Frobenius norm to 1e-10.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
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


def state_from_family(family: str, n_signal: float, d_signal: int,
                      phase: float = 0.0) -> SchmidtState:
    """Build a transmitter from its CLI/config label (see :func:`parse_family`).

    For ``maxfock`` the photon number is fixed by the rank and ``n_signal``
    is ignored.
    """
    name, order = parse_family(family)
    if name == "tmsv":
        return tmsv(n_signal, d_signal)
    if name == "coherent":
        return coherent(n_signal, phase, d_signal)
    if name == "cat:inf":
        return cat_state_infinite_d(n_signal, d_signal)
    if name == "cat":
        return cat_state(n_signal, order, d_signal)
    return max_entangled_fock(order)
